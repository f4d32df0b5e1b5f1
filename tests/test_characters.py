import random
import time
from fractions import Fraction
from itertools import product

import pytest

from dominantk.cli import main
from dominantk.errors import (
    DivisionRemainderError,
    NotDominantError,
    NotFiniteTypeError,
    ResourceExceededError,
)
from dominantk.characters import (
    FormalCharacter,
    ambient_dominance_oracle,
    ambient_dominance_test,
    dirac_induction,
    exact_divide,
    levi_irreducible_character,
    levi_positive_roots,
    spinor_character,
    weyl_denominator,
    weyl_numerator,
)
from dominantk.coxeter import CoxeterElement, WeylGroup, weyl_group
from dominantk.data import load
from dominantk.gcm import gcm_from_rows, is_finite_type, spherical_poset
from dominantk.weights import Realization, build_realization

A3_ROWS = [[2, -1, 0], [-1, 2, -1], [0, -1, 2]]
F4_ROWS = [[2, -1, 0, 0], [-1, 2, -2, 0], [0, -1, 2, -1], [0, 0, -1, 2]]


def shift(real, lam, J):
    return tuple(a + b for a, b in zip(lam, real.partial_rho(J)))


# -- positive roots --------------------------------------------------------------


def test_levi_positive_roots(matrices):
    A = matrices["a2"]
    assert levi_positive_roots(A, (0,)) == ((1, 0),)
    assert levi_positive_roots(A, (0, 1)) == ((0, 1), (1, 0), (1, 1))
    B = matrices["b2"]
    assert len(levi_positive_roots(B, (0, 1))) == 4
    with pytest.raises(NotFiniteTypeError):
        levi_positive_roots(matrices["affine_a1"], (0, 1))


def reference_levi_positive_roots(A, J):
    """Positive roots of the subsystem on J as the closure of its simple
    roots under the reflections r_j, j in J (a breadth-first search)."""
    J = tuple(sorted(set(J)))
    if not is_finite_type(A, J):
        raise NotFiniteTypeError(f"subset {J} is not of finite type")
    n = A.size
    simple = [tuple(1 if k == j else 0 for k in range(n)) for j in J]
    positives = set(simple)
    frontier = list(simple)
    while frontier:
        nxt = []
        for root in frontier:
            for i in J:
                pairing = sum(A.entries[i][k] * root[k] for k in range(n))
                image = list(root)
                image[i] -= pairing
                image = tuple(image)
                if all(x >= 0 for x in image) and image not in positives:
                    positives.add(image)
                    nxt.append(image)
        frontier = nxt
    return tuple(sorted(positives))


def test_levi_positive_roots_match_closure_reference(matrices):
    """The inversions of w_J are the closure's roots on every spherical
    subset of every bundled matrix, E8 in E9 and E10 included."""
    for A in matrices.values():
        for J in spherical_poset(A).members:
            assert levi_positive_roots(A, J) == reference_levi_positive_roots(A, J)


def test_levi_positive_roots_closure_oracle(matrices):
    # closure property: the set is exactly the orbit positives
    A = gcm_from_rows(A3_ROWS)
    roots = set(levi_positive_roots(A, (0, 1, 2)))
    assert len(roots) == 6  # binomial(4, 2): positive roots of rank-3 type A
    group = weyl_group(A)
    for w in group.ball(6):
        for j in range(3):
            img = group._root_images(w)[j]
            if all(x >= 0 for x in img):
                assert tuple(img) in roots


# -- alternating sums ---------------------------------------------------------------


def test_weyl_numerator_rank_one(matrices):
    real = build_realization(matrices["affine_a1"])
    lam = (1, 2, 0)
    char = weyl_numerator(real, lam, (1,))
    assert char.terms == {lam: 1, real.reflect(1, lam): -1}
    fixed = (1, 0, 0)
    assert not weyl_numerator(real, fixed, (1,))


def test_weyl_numerator_full_truncated(matrices):
    real = build_realization(matrices["affine_a1"])
    group = weyl_group(matrices["affine_a1"])
    rho = real.rho()
    char = weyl_numerator(real, rho, length_bound=2)
    assert char.length_bound == 2
    expected = {}
    for w in group.ball(2):
        expected[real.act(w.word, rho)] = w.sign()
    assert char.terms == expected
    assert len(char) == 5
    with pytest.raises(ValueError, match="a length bound is required"):
        weyl_numerator(real, rho)


def test_weyl_numerator_refuses_subset_with_bound(matrices):
    """A W_J sum runs over all of W_J, so a length bound beside J is refused
    rather than dropped."""
    real = build_realization(matrices["affine_a1"])
    for bound in (0, 3):
        with pytest.raises(ValueError, match="a subset J or a length bound, not both"):
            weyl_numerator(real, real.rho(), (1,), bound)


def test_numerator_orbit_support(matrices):
    """Truncated full alternating sums at a shifted dominant weight have
    support exactly the ball orbit with unit coefficients."""
    real = build_realization(matrices["affine_a1"])
    group = weyl_group(matrices["affine_a1"])
    for mu in [(0, 0, 0), (1, 0, 0), (1, 2, -1)]:
        lam = tuple(a + b for a, b in zip(mu, real.rho()))
        char = weyl_numerator(real, lam, length_bound=6)
        ball = group.ball(6)
        assert char.support() == {real.act(w.word, lam) for w in ball}
        assert len(char) == len(ball)
        assert set(char.terms.values()) <= {1, -1}


# -- the word-keyed numerator, kept as the reference for the per-sphere loop ----------


def reference_weyl_numerator(real, lam, J=None, length_bound=None):
    """Over the flat ball or W_J, each w(lam) reflected from the image of
    word[1:] kept for every element, signed by w.sign()."""
    group = weyl_group(real.gcm)
    if J is not None:
        elements, bound = group.subgroup_elements(J), None
    else:
        elements, bound = group.ball(length_bound), length_bound
    orbit, terms = {(): lam}, {}
    for w in elements:
        key = orbit[w.word] = (
            real.reflect(w.word[0], orbit[w.word[1:]]) if w.word else lam
        )
        terms[key] = terms.get(key, 0) + w.sign()
    return FormalCharacter(terms, length_bound=bound)


def _singular(real, j):
    """rho with coordinate j set to 0: fixed by r_j."""
    return tuple(0 if k == j else x for k, x in enumerate(real.rho()))


def _assert_same_numerator(real, lam, J=None, length_bound=None):
    new = weyl_numerator(real, lam, J, length_bound)
    old = reference_weyl_numerator(real, lam, J, length_bound)
    assert new == old
    assert new.length_bound == old.length_bound == length_bound
    return new


@pytest.mark.parametrize("name", ["a2", "b2", "g2", "a1xa1", "affine_a1", "affine_a2",
                                  "hyper_rank2", "hyper_rank3", "ext4", "e9", "e10"])
def test_numerator_matches_word_keyed_reference(matrices, name):
    """Ball sums at a regular and a singular weight, and W_J sums over the
    spherical J of up to 3 nodes: at rho, and at a weight singular on J,
    where every term cancels and is dropped."""
    A = matrices[name]
    real = build_realization(A)
    bound = 6 if A.size <= 4 else 3
    for lam in (real.rho(), _singular(real, 0)):
        assert _assert_same_numerator(real, lam, length_bound=bound).length_bound == bound
    for J in spherical_poset(A).members:
        if len(J) <= 3:
            assert len(_assert_same_numerator(real, real.rho(), J)) == len(
                weyl_group(A).subgroup_elements(J))
        if 0 < len(J) <= 3:
            assert not _assert_same_numerator(real, _singular(real, J[-1]), J)


def test_numerator_matches_word_keyed_reference_e10(matrices):
    real = build_realization(matrices["e10"])
    assert len(_assert_same_numerator(real, real.rho(), length_bound=6)) == len(
        weyl_group(matrices["e10"]).ball(6))
    _assert_same_numerator(real, _singular(real, 4), length_bound=6)


def test_numerator_at_rho_reads_the_orbit_vectors(matrices, monkeypatch):
    """On a nonsingular matrix the numerator at rho reflects nothing: each
    key is the orbit vector w(rho) the walk keeps for w, signed by w.  E10
    at a length bound, hyper_rank3 at a bound and over every spherical W_J."""
    def refuse(*args):
        raise AssertionError("the numerator at rho reflected a weight")

    monkeypatch.setattr(Realization, "reflect", refuse)
    monkeypatch.setattr(Realization, "_reflect", refuse)
    e10, hyper = matrices["e10"], matrices["hyper_rank3"]
    cases = [(e10, weyl_group(e10).ball(6), dict(length_bound=6)),
             (hyper, weyl_group(hyper).ball(8), dict(length_bound=8))]
    cases += [(hyper, weyl_group(hyper).subgroup_elements(J), dict(J=J))
              for J in spherical_poset(hyper).members]
    for A, elements, how in cases:
        real = build_realization(A)
        char = weyl_numerator(real, real.rho(), **how)
        assert char.length_bound == how.get("length_bound")
        keys = {key: key for key in char.terms}
        assert len(keys) == len(elements)
        for w in elements:
            assert keys[w.orbit] is w.orbit
            assert char.terms[w.orbit] == w.sign()


def test_entry_points_check_the_weight(matrices):
    """Weights of the affine_a1 realization have 3 coordinates; a longer or
    shorter one is refused by every character entry point, and any sequence
    of the right length is taken as its tuple."""
    real = build_realization(matrices["affine_a1"])
    calls = [
        lambda: levi_irreducible_character(real, (1,), (1, 1, 0, 7)),
        lambda: dirac_induction(real, (1,), (1, 2, 0, 4)),
        lambda: weyl_numerator(real, (1, 1), (1,)),
        lambda: weyl_numerator(real, (1, 1, 0, 0), length_bound=2),
        lambda: ambient_dominance_test(real, (1,), (2, 1, 0, 5)),
        lambda: ambient_dominance_test(real, (1,), (2, 1)),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="needs 3 integer coordinates"):
            call()
    assert weyl_numerator(real, [1, 1, 0], length_bound=2) == weyl_numerator(
        real, (1, 1, 0), length_bound=2)


def test_formal_character_drops_zeros_and_copies_its_terms():
    """Zero coefficients are dropped, and the terms are a copy: changing the
    caller's dict afterwards leaves the character as it was."""
    assert FormalCharacter({(0, 0): 0}) == FormalCharacter.zero()
    for source in ({(1, 0): 2, (0, 0): -1}, {(1, 0): 2, (0, 1): 0, (0, 0): -1}):
        char = FormalCharacter(source, length_bound=3)
        source[(5, 5)] = 7
        source[(1, 0)] = 9
        assert char.terms == {(1, 0): 2, (0, 0): -1}
        assert char.length_bound == 3


# -- irreducible characters ------------------------------------------------------------


def test_rank_one_string(matrices):
    real = build_realization(matrices["affine_a1"])
    mu = (0, 2, 0)
    char = levi_irreducible_character(real, (1,), mu)
    alpha1 = real.root_weight((0, 1))
    expected = {}
    for k in range(3):
        expected[tuple(a - k * b for a, b in zip(mu, alpha1))] = 1
    assert char.terms == expected


def test_one_dimensional(matrices):
    real = build_realization(matrices["affine_a1"])
    mu = (3, 0, 1)
    assert levi_irreducible_character(real, (1,), mu).terms == {mu: 1}


def test_character_identity(matrices):
    """A_J ch L = shifted alternating sum, exactly."""
    cases = [
        (matrices["affine_a1"], (1,)),
        (matrices["affine_a2"], (0, 1)),
        (matrices["hyper_rank3"], (0, 2)),  # bond product 2
        (gcm_from_rows(A3_ROWS), (0, 1, 2)),
    ]
    for A, J in cases:
        real = build_realization(A)
        for values in product(range(4), repeat=len(J)):
            mu = [0] * real.rank
            for j, v in zip(J, values):
                mu[j] = v
            mu = tuple(mu)
            lhs = weyl_denominator(real, J) * levi_irreducible_character(real, J, mu)
            rhs = weyl_numerator(real, shift(real, mu, J), J)
            assert lhs == rhs


def test_levi_character_group_invariance(matrices):
    real = build_realization(matrices["affine_a2"])
    char = levi_irreducible_character(real, (0, 1), (1, 2, 0, 0))
    for j in (0, 1):
        reflected = {real.reflect(j, w): c for w, c in char.terms.items()}
        assert reflected == char.terms


def test_not_dominant_for_levi(matrices):
    real = build_realization(matrices["affine_a1"])
    with pytest.raises(NotDominantError):
        levi_irreducible_character(real, (1,), (0, -1, 0))


# -- spinor characters ------------------------------------------------------------------


def test_spinor_examples(matrices):
    real = build_realization(matrices["affine_a1"])
    char = spinor_character(real, (1,))
    rho1 = real.partial_rho((1,))
    alpha1 = real.root_weight((0, 1))
    assert char.terms == {rho1: 1, tuple(a - b for a, b in zip(rho1, alpha1)): 1}


def test_spinor_total_dimension(matrices):
    real = build_realization(matrices["affine_a2"])
    char = spinor_character(real, (0, 1))
    assert sum(char.terms.values()) == 8  # 2^(number of positive roots)


def reference_spinor_character(real, J):
    """e^{rho_J} times the product of (1 + e^{-alpha}) over the positive Levi
    roots, expanded factor by factor."""
    one = FormalCharacter.monomial(real.zero())
    out = FormalCharacter.monomial(real.partial_rho(J))
    for root in levi_positive_roots(real.gcm, J):
        out = out * (one + FormalCharacter.monomial(real.root_weight([-c for c in root])))
    return out


@pytest.mark.parametrize(
    "name,J",
    [
        ("affine_a1", (0,)),
        ("affine_a1", (1,)),
        ("affine_a2", (0, 1)),
        ("hyper_rank3", (0, 2)),
        ("b2", (0, 1)),
        ("g2", (0, 1)),
        ("e10", (1, 2, 3, 4, 5)),  # A5: 2,932 weights, dimension 2^15
    ],
)
def test_spinor_equals_irreducible_at_partial_rho(matrices, name, J):
    """The Levi irreducible at rho_J is the product of (1 + e^{-alpha})."""
    real = build_realization(matrices[name])
    assert spinor_character(real, J) == reference_spinor_character(real, J)


def test_spinor_equals_irreducible_rank3():
    real = build_realization(gcm_from_rows(A3_ROWS))
    J = (0, 1, 2)
    assert spinor_character(real, J) == reference_spinor_character(real, J)


def test_spinor_character_respects_element_cap():
    """The spinor character's weights count against the group's element
    cap, like any Levi character's."""
    J = (0, 1, 2)
    A = gcm_from_rows(A3_ROWS)  # a fresh matrix, so no other test shares its group
    real, group = build_realization(A), weyl_group(A)
    size = len(reference_spinor_character(real, J))
    group.element_cap = size - 1
    with pytest.raises(ResourceExceededError, match=rf"cap of {size - 1} weights"):
        spinor_character(real, J)


# -- induction ---------------------------------------------------------------------------


def test_dirac_induction_basics(matrices):
    real = build_realization(matrices["affine_a2"])
    J = (0, 1)
    one = FormalCharacter.monomial(real.zero())
    assert dirac_induction(real, J, real.partial_rho(J)) == one
    singular = (0, 2, 0, 0)
    assert not dirac_induction(real, J, singular)


def reference_dirac_induction(real, J, mu):
    """The enumerated route: the alternating W_J-sum at mu, divided by the
    expanded A_J unless it is zero."""
    numerator = weyl_numerator(real, mu, J)
    return exact_divide(numerator, weyl_denominator(real, J)) if numerator else numerator


def test_dirac_matches_enumerated_route(matrices):
    """Dominantizing first gives the enumerated route's character on random
    weights, singular ones included, for every spherical J with |J| <= 3 of
    the rank <= 4 matrices."""
    rng = random.Random(7)
    for A in matrices.values():
        if A.size > 4:
            continue
        real = build_realization(A)
        for J in spherical_poset(A).members:
            if len(J) > 3:
                continue
            for _ in range(8):
                mu = tuple(rng.randint(-2, 2) for _ in range(real.rank))
                assert dirac_induction(real, J, mu) == reference_dirac_induction(real, J, mu)


def test_dirac_singular_weight_needs_no_enumeration(matrices, monkeypatch):
    """A J-singular weight of E10 on J = (0, ..., 6), type A7 with 40,320
    elements, gives 0 from its W_J-dominant weight, with no W_J enumerated;
    a non-finite or out-of-range J is refused first."""

    def refuse(self, J):
        raise AssertionError("W_J enumerated")

    real = build_realization(matrices["e10"])
    J = tuple(range(7))
    monkeypatch.setattr(WeylGroup, "subgroup_elements", refuse)
    for j in J:
        dominant = tuple(0 if k == j else 1 + k % 3 for k in range(real.rank))
        mu = real.act((3, 1, 4, 0, 6, 2, 5), dominant)
        assert not real.is_dominant_for(mu, J)
        start = time.perf_counter()
        assert dirac_induction(real, J, mu) == FormalCharacter.zero()
        assert time.perf_counter() - start < 1
    with pytest.raises(NotFiniteTypeError):
        dirac_induction(real, tuple(range(10)), real.zero())
    with pytest.raises(IndexError):
        dirac_induction(real, (0, 10), real.zero())


@pytest.mark.parametrize(
    "name,J", [("affine_a1", (1,)), ("affine_a2", (0, 1)), ("hyper_rank3", (0, 2))]
)
def test_dirac_shift_identity(matrices, name, J):
    real = build_realization(matrices[name])
    for values in product(range(3), repeat=len(J)):
        mu = [0] * real.rank
        for j, v in zip(J, values):
            mu[j] = v
        mu = tuple(mu)
        assert dirac_induction(real, J, shift(real, mu, J)) == (
            levi_irreducible_character(real, J, mu)
        )


def test_dirac_antisymmetry(matrices):
    real = build_realization(matrices["affine_a2"])
    group = weyl_group(matrices["affine_a2"])
    J = (0, 1)
    mu = shift(real, (2, 1, 0, 0), J)
    base = dirac_induction(real, J, mu)
    for u in group.subgroup_elements(J):
        assert dirac_induction(real, J, real.act(u.word, mu)) == base.scaled(u.sign())


def test_division_remainder_guard():
    a = FormalCharacter({(0,): 1})
    b = FormalCharacter({(0,): 2})
    with pytest.raises(DivisionRemainderError):
        exact_divide(a, b)


def test_division_refused_outside_newton_box():
    """A non-exact division stops as soon as the quotient outgrows the box
    [min N - min D, max N - max D] that holds every exact quotient."""
    one = FormalCharacter.monomial((0, 0))
    with pytest.raises(DivisionRemainderError, match="0 lattice points of its Newton box"):
        exact_divide(FormalCharacter.monomial((1, 0)), one - FormalCharacter.monomial((-1, 0)))
    # (1 + x^2) / (1 - x): the box holds x^0 and x^1, so step 3 is refused
    with pytest.raises(DivisionRemainderError, match="the 2 lattice points"):
        exact_divide(FormalCharacter({(0,): 1, (2,): 1}), FormalCharacter({(0,): 1, (1,): -1}))
    assert exact_divide(FormalCharacter({(0,): 1, (2,): -1}),
                        FormalCharacter({(0,): 1, (1,): -1})) == FormalCharacter({(0,): 1, (1,): 1})


def test_exact_divide_roundtrip(matrices):
    rng = random.Random(9)
    real = build_realization(matrices["affine_a1"])
    for _ in range(20):
        f = FormalCharacter(
            {
                tuple(rng.randint(-3, 3) for _ in range(3)): rng.choice([-2, -1, 1, 2])
                for _ in range(rng.randint(1, 4))
            }
        )
        g = FormalCharacter(
            {
                tuple(rng.randint(-2, 2) for _ in range(3)): rng.choice([-1, 1])
                for _ in range(rng.randint(1, 3))
            }
        )
        if not f or not g:
            continue
        assert exact_divide(f * g, g) == f


def exact_divide_reference(numerator, denominator):
    """Leading-term elimination that scans the remainder for its maximum at
    every step: the route the heap replaced."""
    glt, gc = denominator.leading()
    rest = [(w, c) for w, c in denominator.terms.items() if w != glt]
    remainder = dict(numerator.terms)
    quotient = {}
    while remainder:
        flt = max(remainder)
        fc = remainder.pop(flt)
        if fc % gc:
            raise DivisionRemainderError(f"leading coefficient {fc} not divisible by {gc}")
        shift = tuple(a - b for a, b in zip(flt, glt))
        coeff = fc // gc
        quotient[shift] = quotient.get(shift, 0) + coeff
        for w, c in rest:
            key = tuple(a + b for a, b in zip(w, shift))
            val = remainder.get(key, 0) - coeff * c
            if val:
                remainder[key] = val
            else:
                remainder.pop(key, None)
    return FormalCharacter(quotient)


def test_heap_division_matches_max_scan():
    """Random exact products: the heap and the max scan give the same
    quotient; with a denominator whose leading coefficient is 2, both refuse
    the same odd numerators."""
    rng = random.Random(17)
    for _ in range(200):
        f, g = (FormalCharacter({
            tuple(rng.randint(-3, 3) for _ in range(3)): rng.choice([-3, -1, 1, 2])
            for _ in range(rng.randint(1, size))
        }) for size in (8, 4))
        assert exact_divide(f * g, g) == exact_divide_reference(f * g, g) == f
        g2 = g + FormalCharacter({(4, 0, 0): 2})
        odd = f * g2 + FormalCharacter({(9, 0, 0): 1})
        for divide in (exact_divide, exact_divide_reference):
            with pytest.raises(DivisionRemainderError):
                divide(odd, g2)


def divide_by_weyl_denominator(real, J, numerator):
    """numerator / A_J by exact division, one factor of A_J at a time:
    e^{rho_J}, then one (1 - e^{-alpha}) per positive Levi root.  The
    division route of Levi characters and Dirac induction, kept as the
    oracle of Freudenthal's recursion."""
    one = FormalCharacter.monomial(real.zero())
    numerator = exact_divide(numerator, FormalCharacter.monomial(real.partial_rho(J)))
    for root in levi_positive_roots(real.gcm, J):
        factor = one - FormalCharacter.monomial(real.root_weight([-c for c in root]))
        numerator = exact_divide(numerator, factor)
    return numerator


def test_factorwise_division_matches_whole_denominator(matrices):
    """Dividing by e^{rho_J} and then one (1 - e^{-alpha}) at a time equals
    one division by the expanded A_J, and both equal the Levi characters and
    Dirac induction (regular, singular and non-dominant weights)."""
    cases = [
        (matrices["affine_a2"], (0, 1)),
        (matrices["hyper_rank3"], (0, 2)),
        (gcm_from_rows(A3_ROWS), (0, 1, 2)),
        (matrices["e10"], (4, 5, 6, 8)),
    ]
    rng = random.Random(5)
    for A, J in cases:
        real = build_realization(A)
        denominator = weyl_denominator(real, J)
        for _ in range(6):
            mu = [0] * real.rank
            for j in J:
                mu[j] = rng.randint(0, 1)
            mu = tuple(mu)
            numerator = weyl_numerator(real, shift(real, mu, J), J)
            whole = exact_divide(numerator, denominator)
            assert divide_by_weyl_denominator(real, J, numerator) == whole
            assert levi_irreducible_character(real, J, mu) == whole
            nu = tuple(x - 1 if i in J else x for i, x in enumerate(mu))
            numerator = weyl_numerator(real, nu, J)
            whole = exact_divide(numerator, denominator) if numerator else numerator
            assert dirac_induction(real, J, nu) == whole


def test_freudenthal_matches_division_oracle(matrices):
    """Levi characters and Dirac induction at regular, non-dominant and
    singular weights equal the division route on every spherical J with
    |J| <= 3 of the bundled matrices, on the A4 and D4 Levis of E10, and on
    F4 at its 26-dimensional irreducible (zero weight of multiplicity 2).
    Values on J are 0 or 1 and off J random, so the centre of the Levi moves
    too."""
    rng = random.Random(12)
    e10 = matrices["e10"]
    cases = [(A, J, None) for A in matrices.values() for J in spherical_poset(A).members
             if len(J) <= 3]
    cases += [(e10, (1, 2, 3, 4), None), (e10, (4, 5, 6, 8), None),
              (gcm_from_rows(F4_ROWS), (0, 1, 2, 3), (1, 0, 0, 0))]
    for A, J, fixed in cases:
        real = build_realization(A)
        mu = fixed or tuple(rng.randint(0, 1) if i in J else rng.randint(-2, 2)
                            for i in range(real.rank))
        shifted = shift(real, mu, J)
        expected = divide_by_weyl_denominator(real, J, weyl_numerator(real, shifted, J))
        assert levi_irreducible_character(real, J, mu) == expected
        if not J:
            continue
        singular = tuple(0 if i == J[0] else x for i, x in enumerate(shifted))
        for nu in (shifted, real.reflect(J[0], shifted), real.reflect(J[-1], singular)):
            numerator = weyl_numerator(real, nu, J)
            expected = divide_by_weyl_denominator(real, J, numerator) if numerator else numerator
            assert dirac_induction(real, J, nu) == expected


def test_a8_levi_of_e10_needs_no_enumeration(matrices, monkeypatch):
    """E10 on J = (0, ..., 7), type A8 with 362,880 elements: the Levi
    character at omega_7 and its Dirac induction take well under a second
    with no W_J enumerated, and the dimension is Weyl's."""

    def refuse(self, J):
        raise AssertionError("W_J enumerated")

    real = build_realization(matrices["e10"])
    J = tuple(range(8))
    omega = tuple(int(i == 7) for i in range(real.rank))
    monkeypatch.setattr(WeylGroup, "subgroup_elements", refuse)
    start = time.perf_counter()
    char = levi_irreducible_character(real, J, omega)
    induced = dirac_induction(real, J, real.reflect(3, shift(real, omega, J)))
    assert time.perf_counter() - start < 1
    assert induced == -char
    assert sum(char.terms.values()) == weyl_dimension(real, J, omega)


def test_levi_character_needs_finite_type(tmp_path, capsys):
    """A non-finite J is refused before the symmetrizer is asked for: by the
    functions, and by the CLI with exit 1 and ``error not-finite-type``."""
    rows = [[2, -1, -1], [-2, 2, -1], [-1, -1, 2]]
    real = build_realization(gcm_from_rows(rows))
    for call in (levi_irreducible_character, dirac_induction):
        with pytest.raises(NotFiniteTypeError):
            call(real, (0, 1, 2), real.partial_rho((0, 1, 2)))
    path = tmp_path / "hyperbolic.gcm"
    path.write_text("n 3\n" + "".join(" ".join(map(str, row)) + "\n" for row in rows))
    for sub in ("levi", "dirac"):
        argv = ["character", sub, "--gcm", str(path), "--j", "0,1,2", "--weight", "1,1,1"]
        assert main(argv) == 1
        assert capsys.readouterr().err.startswith("error not-finite-type:")


def test_levi_character_respects_element_cap(monkeypatch):
    """The weights a Levi character produces count against the group's
    element cap; hitting it names the cap, its value and the count.  The
    J-dominant weights count as they are collected: A2 on J = (0,) at
    (8000, 0) has 4,001 of them, and a cap of 3,000 refuses them before any
    weight is reflected, so Freudenthal's recursion never starts."""
    J = (0, 1, 2)
    A = gcm_from_rows(A3_ROWS)  # a fresh matrix, so no other test shares its group
    real, group = build_realization(A), weyl_group(A)
    mu = real.partial_rho(J)
    size = len(levi_irreducible_character(real, J, mu))
    group.element_cap = size
    assert len(levi_irreducible_character(real, J, mu)) == size
    group.element_cap = size - 1
    with pytest.raises(ResourceExceededError, match=rf"cap of {size - 1} weights \(\d+ produced\)"):
        levi_irreducible_character(real, J, mu)

    A = gcm_from_rows([[2, -1], [-1, 2]])
    real = build_realization(A)
    weyl_group(A).element_cap = 3000

    def refuse(*args):
        raise AssertionError("the recursion ran")

    monkeypatch.setattr(Realization, "reflect", refuse)
    with pytest.raises(ResourceExceededError,
                       match=r"cap of 3000 weights \(\d+ dominant weights reached\)"):
        levi_irreducible_character(real, (0,), (8000, 0))


# -- dominance of the ambient group ------------------------------------------------------


def test_ambient_dominance_routes_agree(matrices):
    """The predicate and the weight-by-weight cone oracle agree on every
    decidable rank-one case in a window around the walls."""
    real = build_realization(matrices["affine_a1"])
    for a in range(-5, 5):
        for b in range(0, 5):
            mu = (a, b, 0)
            if real.affine_level(mu) == 0 and any(mu):
                continue  # membership undecided by design at level zero
            fast = ambient_dominance_test(real, (1,), mu)
            slow = ambient_dominance_oracle(real, (1,), mu)
            assert fast == slow
            assert fast == (real.affine_level(mu) > 0 or not any(mu))


def test_ambient_dominance_examples(matrices):
    real = build_realization(matrices["affine_a1"])
    assert ambient_dominance_test(real, (1,), (2, 1, 0))
    assert ambient_dominance_test(real, (1,), (0, 0, 0))
    assert not ambient_dominance_test(real, (1,), (-3, 1, 0))


# -- metadata ----------------------------------------------------------------------------


def test_length_bound_metadata(matrices):
    real = build_realization(matrices["affine_a1"])
    a = weyl_numerator(real, real.rho(), length_bound=2)
    b = weyl_numerator(real, real.rho(), length_bound=4)
    assert a != b
    with pytest.raises(ValueError):
        a + b


def _levi_root_coroot_pairs(A, J):
    """Positive roots of the Levi with their coroots, both as coefficient
    vectors (coroots transform under the transposed matrix)."""
    n = A.size
    pairs = {
        (
            tuple(1 if k == j else 0 for k in range(n)),
            tuple(1 if k == j else 0 for k in range(n)),
        )
        for j in J
    }
    frontier = set(pairs)
    while frontier:
        nxt = set()
        for root, coroot in frontier:
            for i in J:
                pairing = sum(A.entries[i][k] * root[k] for k in range(n))
                new_root = list(root)
                new_root[i] -= pairing
                co_pairing = sum(A.entries[k][i] * coroot[k] for k in range(n))
                new_coroot = list(coroot)
                new_coroot[i] -= co_pairing
                item = (tuple(new_root), tuple(new_coroot))
                if all(x >= 0 for x in item[0]) and item not in pairs:
                    pairs.add(item)
                    nxt.add(item)
        frontier = nxt
    return pairs


def weyl_dimension(real, J, mu) -> Fraction:
    """Weyl's product over the positive coroots of the Levi on J:
    (mu + rho_J)(h) / rho_J(h)."""
    rho_j, shifted = real.partial_rho(J), shift(real, mu, J)
    dim = Fraction(1)
    for _, coroot in _levi_root_coroot_pairs(real.gcm, J):
        dim *= Fraction(sum(c * shifted[k] for k, c in enumerate(coroot)),
                        sum(c * rho_j[k] for k, c in enumerate(coroot)))
    return dim


@pytest.mark.parametrize(
    "name,J",
    [
        ("affine_a1", (1,)),
        ("affine_a2", (0, 1)),
        ("hyper_rank3", (0, 2)),
        ("g2", (0, 1)),
    ],
)
def test_weyl_dimension_formula(matrices, name, J):
    """Independent oracle: the total coefficient mass of each Levi
    irreducible equals the product formula over positive coroots."""
    real = build_realization(matrices[name])
    for values in product(range(4), repeat=len(J)):
        mu = [0] * real.rank
        for j, v in zip(J, values):
            mu[j] = v
        mu = tuple(mu)
        dim = weyl_dimension(real, J, mu)
        char = levi_irreducible_character(real, J, mu)
        assert sum(char.terms.values()) == dim
        assert dim.denominator == 1


def test_walked_numerators_read_no_word(monkeypatch):
    """Each walked w(lam) is reflected from the image of w's suffix, keyed by
    orbit vector: no numerator reads a word.  The values match the
    word-keyed reference, read afterwards on the same walks."""
    def refuse(self):
        raise AssertionError("the numerator read a word")

    cases = [("e10", None, 6, None), ("affine_a1", None, 6, None), ("e9", None, 3, None),
             ("e10", (4, 5, 6, 8), None, 2)]
    with monkeypatch.context() as patch:
        patch.setattr(CoxeterElement, "word", property(refuse))
        numerators = []
        for name, J, bound, k in cases:
            real = build_realization(load(name))  # a fresh group, walked here
            lam = tuple(k * x for x in real.rho()) if k else real.rho()
            numerators.append((real, lam, J, bound, weyl_numerator(real, lam, J, bound)))
    for real, lam, J, bound, char in numerators:
        assert char == reference_weyl_numerator(real, lam, J, bound)
