"""Growth series as an oracle for the sphere step, independent of any walk.

Integer power series are truncated mod t^M.  For every spherical T the term
G_T = (-1)^|T| t^{l(w_T)} / W_T(t) comes from the recursion 1/W_T(t) =
sum over U within T of G_U, solved for the U = T term, with l(w_T) read from
``WeylGroup.longest`` (a strip of -rho, no enumeration).  Then for any K,
spherical or not, 1/W_K(t) is the sum of G_U over the spherical U within K
(Steinberg; Bjorner-Brenti, Combinatorics of Coxeter Groups, 7.1), and
W^K(t) = W(t) / W_K(t) (Bjorner-Brenti 2.4).
"""

from collections import Counter
from itertools import combinations

import pytest

from dominantk.coxeter import weyl_group
from dominantk.gcm import classify_type, spherical_poset


def _inverse(f, M):
    """1 / f mod t^M for an integer series with f[0] = 1."""
    g = [1] + [0] * (M - 1)
    for d in range(1, M):
        g[d] = -sum(f[k] * g[d - k] for k in range(1, d + 1))
    return g


def _product(f, g, M):
    return [sum(f[k] * g[d - k] for k in range(d + 1)) for d in range(M)]


def _submasks(mask):
    sub = mask
    while True:
        yield sub
        if not sub:
            return
        sub = (sub - 1) & mask


class GrowthSeries:
    """The terms G_T mod t^M of a matrix, by the mask of each spherical T,
    and the growth series W(t) of the whole group as ``whole``."""

    def __init__(self, A, M):
        group, self.M = weyl_group(A), M
        masks = sorted((sum(1 << i for i in T) for T in spherical_poset(A).members),
                       key=lambda mask: bin(mask).count("1"))
        self.terms = {0: [1] + [0] * (M - 1)}
        for mask in masks:
            if not mask:
                continue
            N = group.longest([i for i in range(A.size) if mask >> i & 1]).length
            sign = -1 if bin(mask).count("1") % 2 else 1
            # 1/W_T = rest + G_T with G_T = sign t^N / W_T, so 1/W_T is rest
            # divided by 1 - sign t^N
            inverse = self.inverse_poincare(mask, proper=True)
            for d in range(N, M):
                inverse[d] += sign * inverse[d - N]
            self.terms[mask] = ([0] * N + [sign * c for c in inverse])[:M]
        self.whole = _inverse(self.inverse_poincare((1 << A.size) - 1), M)

    def inverse_poincare(self, mask, proper=False):
        """1 / W_K(t) for K of ``mask``: the sum of G_U over spherical U in K."""
        out = [0] * self.M
        for sub in _submasks(mask):
            if sub in self.terms and not (proper and sub == mask):
                out = [x + y for x, y in zip(out, self.terms[sub])]
        return out

    def quotient(self, K):
        """W^K(t) = W(t) / W_K(t)."""
        mask = sum(1 << k for k in K)
        return _product(self.whole, self.inverse_poincare(mask), self.M)


def _walked(elements, L):
    count = Counter(w.length for w in elements)
    return [count[k] for k in range(L + 1)]


def test_series_of_finite_and_dihedral_groups(matrices):
    """Pinned cases: W(A2) = (1 + t)(1 + t + t^2), W(G2) = (1 + t)(1 + ... + t^5),
    affine A1 has 1 + 2t + 2t^2 + ..., and W^K of a finite W is the quotient
    of Poincare polynomials."""
    assert GrowthSeries(matrices["a2"], 6).whole == [1, 2, 2, 1, 0, 0]
    assert GrowthSeries(matrices["g2"], 8).whole == [1, 2, 2, 2, 2, 2, 1, 0]
    assert GrowthSeries(matrices["affine_a1"], 6).whole == [1, 2, 2, 2, 2, 2]
    assert GrowthSeries(matrices["a2"], 5).quotient((0,)) == [1, 1, 1, 0, 0]


@pytest.mark.parametrize("name, L", [("affine_a1", 10), ("hyper_rank3", 10), ("ext4", 10),
                                     ("e9", 6), ("e10", 8)])
def test_ball_spheres_match_growth_series(matrices, name, L):
    A = matrices[name]
    assert _walked(weyl_group(A).ball(L), L) == GrowthSeries(A, L + 1).whole


@pytest.mark.parametrize("name", ["a2", "b2", "g2", "a1xa1", "affine_a1", "affine_a2",
                                  "hyper_rank2", "hyper_rank3", "ext4"])
def test_quotient_spheres_match_growth_series(matrices, name):
    """|W^K meet sphere_l| of the walked right quotient, for every K."""
    A, L = matrices[name], 12
    series, group = GrowthSeries(A, L + 1), weyl_group(A)
    for k in range(A.size + 1):
        for K in combinations(range(A.size), k):
            assert _walked(group.min_coset_reps((), K, L), L) == series.quotient(K), K


def test_e9_quotient_spheres_match_growth_series(matrices):
    """All 512 K of E9, spherical or not, at length 4."""
    A, L = matrices["e9"], 4
    series, group = GrowthSeries(A, L + 1), weyl_group(A)
    for k in range(A.size + 1):
        for K in combinations(range(A.size), k):
            assert _walked(group.min_coset_reps((), K, L), L) == series.quotient(K), K


def test_e10_quotient_of_i0_to_length_20(matrices):
    """W^{I0} of E10 through length 20 has the 68 elements that the extended
    report at L = 20 walks; W_{I0} is the affine E9, an infinite parabolic."""
    A, L = matrices["e10"], 20
    i0 = classify_type(A).extended_compact[0]
    expected = GrowthSeries(A, L + 1).quotient(i0)
    assert sum(expected) == 68
    assert _walked(weyl_group(A).min_coset_reps((), i0, L), L) == expected
