import gc
import re
import subprocess
import sys
import tracemalloc
import weakref
from fractions import Fraction
from itertools import combinations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dominantk.errors import NotFiniteTypeError, NotMinimalError, ResourceExceededError
from dominantk import coxeter
from dominantk.coxeter import CoxeterElement, WeylGroup, weyl_group
from dominantk.data import load
from dominantk.gcm import classify_type, gcm_from_rows, spherical_poset
from test_characters import reference_levi_positive_roots
from test_cli import _cli_env, _limit_memory, data_path


def _bits(mask: int, n: int) -> tuple[int, ...]:
    """The indices 0..n-1 set in a descent mask."""
    return tuple(i for i in range(n) if mask >> i & 1)


# -- independent oracle: W(A2) as permutations of three letters --------------------


def perm_mul(p, q):
    return tuple(p[q[i]] for i in range(len(q)))


A2_GENS = {0: (1, 0, 2), 1: (0, 2, 1)}


def a2_perm(word):
    out = (0, 1, 2)
    for s in word:
        out = perm_mul(out, A2_GENS[s])
    return out


def a2_shortlex_table():
    """Breadth-first table permutation -> least reduced word."""
    table = {(0, 1, 2): ()}
    frontier = [()]
    while frontier:
        nxt = []
        for word in sorted(frontier):
            for s in (0, 1):
                cand = word + (s,)
                p = a2_perm(cand)
                if p not in table:
                    table[p] = cand
                    nxt.append(cand)
        frontier = nxt
    return table


def test_normal_form_matches_symmetric_group(matrices):
    table = a2_shortlex_table()
    group = weyl_group(matrices["a2"])
    for length in range(5):
        for word in product((0, 1), repeat=length):
            el = group.element(word)
            assert el.word == table[a2_perm(word)]
            assert el.length == len(table[a2_perm(word)])


def test_normal_form_examples(matrices):
    group = weyl_group(matrices["a2"])
    assert group.element((0, 1, 0, 1)).word == (1, 0)
    assert group.element((0, 0)).word == ()
    dihedral = weyl_group(matrices["affine_a1"])
    assert dihedral.element((0, 1, 0, 1, 0)).word == (0, 1, 0, 1, 0)
    assert dihedral.element((0, 1, 0, 1, 0)).length == 5


def test_index_out_of_range(matrices):
    group = weyl_group(matrices["a2"])
    with pytest.raises(IndexError):
        group.element((2,))
    with pytest.raises(IndexError, match="generator index -1 out of range"):
        group.lmul_gen(-1, group.identity)


def test_elements_of_two_groups_compare_by_orbit_vector(matrices):
    """An element holds no group: the identities of two different 3-node
    groups have the same orbit vector, so they are equal and hash alike."""
    e = weyl_group(matrices["affine_a2"]).identity
    f = weyl_group(matrices["hyper_rank3"]).identity
    assert e == f and hash(e) == hash(f)


@settings(max_examples=100, deadline=None)
@given(
    words=st.tuples(
        st.lists(st.integers(0, 2), max_size=6),
        st.lists(st.integers(0, 2), max_size=6),
    ),
    spot=st.integers(0, 12),
    gen=st.integers(0, 2),
)
def test_normal_form_is_a_group_invariant(matrices, words, spot, gen):
    """The normal form depends only on the group element: concatenation agrees
    with multiplication, and inserting a repeated generator changes nothing."""
    group = weyl_group(matrices["hyper_rank3"])
    w1, w2 = words
    joined = group.element(tuple(w1) + tuple(w2))
    assert joined == group.multiply(group.element(tuple(w1)), group.element(tuple(w2)))
    word = tuple(w1) + tuple(w2)
    k = min(spot, len(word))
    padded = word[:k] + (gen, gen) + word[k:]
    assert group.element(padded) == group.element(word)


# -- root action ---------------------------------------------------------------------


def test_act_on_root_basics(matrices):
    group = weyl_group(matrices["a2"])
    r0 = group.generator(0)
    assert group._root_images(r0)[0] == (-1, 0)
    assert group._root_images(r0)[1] == (1, 1)
    dihedral = weyl_group(matrices["affine_a1"])
    w = dihedral.element((0, 1))
    # compose the two reflection steps by hand: r1(a1) = -a1,
    # r0(-a1) = -(a1 + 2a0)
    assert dihedral._root_images(w)[1] == (-2, -1)


def test_length_counts_inversions(matrices):
    """l(w) equals the number of positive roots sent negative."""
    for name, bound, depth in (("a2", 3, 4), ("b2", 4, 6), ("affine_a1", 6, 16)):
        A = matrices[name]
        group = weyl_group(A)
        n = A.size
        roots = {tuple(1 if k == j else 0 for k in range(n)) for j in range(n)}
        frontier = set(roots)
        for _ in range(depth):
            nxt = set()
            for root in frontier:
                for i in range(n):
                    pairing = sum(A.entries[i][k] * root[k] for k in range(n))
                    img = list(root)
                    img[i] -= pairing
                    img = tuple(img)
                    if all(x >= 0 for x in img) and img not in roots:
                        roots.add(img)
                        nxt.add(img)
            frontier = nxt
        for w in group.ball(bound):
            sent_negative = sum(
                1
                for root in roots
                if all(
                    x <= 0
                    for x in _act(A, w.word, root)
                )
            )
            assert sent_negative == w.length


def _act(A, word, root):
    n = A.size
    out = list(root)
    for i in reversed(word):
        pairing = sum(A.entries[i][k] * out[k] for k in range(n))
        out[i] -= pairing
    return out


def test_root_positivity_dichotomy(matrices):
    group = weyl_group(matrices["hyper_rank3"])
    for w in group.ball(5):
        for j in range(3):
            img = group._root_images(w)[j]
            assert all(x >= 0 for x in img) or all(x <= 0 for x in img)


# -- descents ---------------------------------------------------------------------


def test_descents(matrices):
    """Descent masks against lengths: bit j of ``right`` (``left``) is set
    exactly when w r_j (r_j w) is shorter than w."""
    for name, A in matrices.items():
        group = weyl_group(A)
        for w in group.ball(3 if A.size > 4 else 5):
            for j in range(A.size):
                assert bool(group.right(w) >> j & 1) == (group.rmul_gen(w, j).length < w.length)
                shorter = group.multiply(group.generator(j), w).length < w.length
                assert bool(w.left >> j & 1) == shorter
    group = weyl_group(matrices["a2"])
    assert _bits(group.right(group.identity), 2) == ()
    longest = group.element((0, 1, 0))
    assert _bits(group.right(longest), 2) == (0, 1)
    dihedral = weyl_group(matrices["affine_a1"])
    w = dihedral.element((0, 1, 0))
    assert dihedral.element((0, 1, 0, 1)).length == 4
    assert dihedral.element((0, 1)).length == 2
    assert _bits(dihedral.right(w), 2) == (0,)
    assert _bits(w.left, 2) == (0,)


def test_descent_sets_are_spherical(matrices):
    from dominantk.gcm import spherical_poset

    for name, A in matrices.items():
        poset = spherical_poset(A)
        group = weyl_group(A)
        for w in group.ball(3 if A.size > 4 else 5):
            assert _bits(group.right(w), A.size) in poset
            assert _bits(w.left, A.size) in poset


# -- balls -------------------------------------------------------------------------


def test_ball_sizes(matrices):
    assert len(weyl_group(matrices["a2"]).ball(3)) == 6
    assert len(weyl_group(matrices["a2"]).ball(10)) == 6
    for L in range(11):
        assert len(weyl_group(matrices["affine_a1"]).ball(L)) == 2 * L + 1
    assert weyl_group(matrices["g2"]).ball(0) == (weyl_group(matrices["g2"]).identity,)


def test_finite_ball_ends_at_its_longest_element(matrices):
    """The walk stops at the first empty sphere: past the longest element
    every sphere is empty, and ball, cosets and the exhaustion test keep
    their answers at any bound.  A fresh interpreter checks a 20-digit bound,
    which a walk stepping every length would never finish."""
    script = ("from dominantk.data import load\n"
              "from dominantk.coxeter import weyl_group\n"
              "group, L = weyl_group(load('a2')), 10**20\n"
              "print(len(group.ball(L)), len(group.min_coset_reps((0,), (1,), L)),"
              " group.sphere(L), group.is_finite(L))\n")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=_cli_env(), timeout=60, preexec_fn=_limit_memory)
    assert proc.stdout == "6 2 () True\n", proc.stderr
    group = WeylGroup(matrices["a2"])
    assert [len(group.sphere(k)) for k in range(6)] == [1, 2, 2, 1, 0, 0]
    assert group.ball(3_000_000) == group.ball(3)
    assert group.min_coset_reps((0,), (), 3_000_000) == group.min_coset_reps((0,), (), 3)
    assert group.is_finite(4) and not group.is_finite(3)


def test_ball_sorted_and_unique(matrices):
    ball = weyl_group(matrices["hyper_rank3"]).ball(5)
    keys = [(w.length, w.word) for w in ball]
    assert keys == sorted(keys)
    assert len(set(keys)) == len(keys)


def test_element_cap():
    A = gcm_from_rows([[2, -2], [-2, 2]])
    group = WeylGroup(A, element_cap=10)
    # 1, 2, 2, ... elements a sphere: the sixth sphere passes the cap, and a
    # refused sphere is not counted, so a second call reports the same
    for _ in range(2):
        with pytest.raises(ResourceExceededError,
                           match=r"cap of 10 elements \(11 enumerated through length 5\)"):
            group.ball(20)
    # a finite parabolic past the cap is refused too, naming subset and cap
    B = gcm_from_rows([[2, -1, 0], [-1, 2, -1], [0, -1, 2]])
    with pytest.raises(ResourceExceededError, match=r"\(0, 1, 2\).* 20 elements"):
        WeylGroup(B, element_cap=20).subgroup_elements((0, 1, 2))
    assert len(WeylGroup(B, element_cap=24).subgroup_elements((0, 1, 2))) == 24
    # a right quotient shares the cap: W^K of K = (0,) has one element a
    # length, so with the identity counted once its sphere 10 passes the cap;
    # the refused sphere is not counted, so a second call reports the same
    group = WeylGroup(A, element_cap=10)
    for call in (lambda: group.min_coset_reps((), (0,), 20),
                 lambda: group.pure_reps((1,), (0,), 20)):
        with pytest.raises(ResourceExceededError,
                           match=r"K = \(0,\) enumeration exceeded the cap of 10 elements"
                                 r" \(11 enumerated through length 10\)"):
            call()
    assert len(group.min_coset_reps((), (0,), 9)) == 10
    # a cap lowered below the elements held refuses the next sphere's first one
    group.element_cap = 5
    with pytest.raises(ResourceExceededError,
                       match=r"cap of 5 elements \(11 enumerated through length 1\)"):
        group.ball(6)


def test_element_cap_counts_distinct_elements():
    """An element held by the ball and by a right quotient counts once: with
    the cap at |ball(6)| = 13 of affine A1, W^K of K = (0,) to length 6 holds
    only ball elements, in either order, and the next sphere is refused at
    its first element past the cap."""
    A = gcm_from_rows([[2, -2], [-2, 2]])
    for quotient_first in (False, True):
        group = WeylGroup(A, element_cap=13)
        calls = [lambda: group.ball(6), lambda: group.min_coset_reps((), (0,), 6)]
        if quotient_first:
            calls.reverse()
        assert [len(call()) for call in calls] == ([7, 13] if quotient_first else [13, 7])
        with pytest.raises(ResourceExceededError,
                           match=r"cap of 13 elements \(14 enumerated through length 7\)"):
            group.ball(7)
        assert len(group._by_orbit) == 13


def test_e10_ball_is_refused_within_its_last_sphere():
    """The cap is checked after each letter's pass of a sphere step, not after
    the sphere: E10 ball(14) is refused near 10^6 elements, not after building
    all 1,331,342 elements of length <= 14."""
    argv = ["coxeter", "ball", "--gcm", data_path("e10"), "--max-length", "14"]
    proc = subprocess.run([sys.executable, "-m", "dominantk", *argv], capture_output=True,
                          text=True, env=_cli_env(), timeout=120, preexec_fn=_limit_memory)
    assert proc.returncode == 1
    match = re.fullmatch(r"error resource-exceeded: ball enumeration exceeded the cap of"
                         r" 1000000 elements \((\d+) enumerated through length 14\)\n",
                         proc.stderr)
    assert match, proc.stderr
    assert 1_000_000 < int(match.group(1)) < 1_100_000


def test_e10_parabolic_is_refused_within_its_last_sphere():
    """The parabolic walk checks the cap after each letter's pass too: W_J of
    J = (0, 1, 2, 3, 4, 5, 6, 8) of E10, type D8 with 5,160,960 elements, is
    refused inside sphere 22, not after the 1,173,804 elements of spheres
    0..22, and the count is of W_J's own elements."""
    argv = ["character", "numerator", "--gcm", data_path("e10"), "--j", "0,1,2,3,4,5,6,8",
            "--weight", ",".join("1" * 10)]
    proc = subprocess.run([sys.executable, "-m", "dominantk", *argv], capture_output=True,
                          text=True, env=_cli_env(), timeout=120, preexec_fn=_limit_memory)
    assert proc.returncode == 1
    match = re.fullmatch(r"error resource-exceeded: parabolic subgroup on \(0, 1, 2, 3, 4, 5, 6,"
                         r" 8\) exceeded the cap of 1000000 elements \((\d+) enumerated"
                         r" through length 22\)\n", proc.stderr)
    assert match, proc.stderr
    assert 1_000_000 < int(match.group(1)) < 1_173_804


# -- cosets ------------------------------------------------------------------------


def brute_min_left_reps(group, J, L):
    """Group the ball into left W_J-cosets and keep each coset's minimum."""
    ball = group.ball(L)
    subgroup = group.subgroup_elements(J)
    best = {}
    for w in ball:
        orbit = min(
            (group.multiply(u, w) for u in subgroup), key=lambda e: (e.length, e.word)
        )
        key = orbit.word
        if key not in best or (w.length, w.word) < (best[key].length, best[key].word):
            if orbit.word == w.word:
                best[key] = w
    return sorted(best.values(), key=lambda e: (e.length, e.word))


def test_min_coset_reps_a2(matrices):
    group = weyl_group(matrices["a2"])
    reps = group.min_coset_reps((0,), None, 3)
    assert [w.word for w in reps] == [(), (1,), (1, 0)]
    assert reps == tuple(brute_min_left_reps(group, (0,), 3))


def test_min_coset_reps_no_constraint(matrices):
    group = weyl_group(matrices["affine_a1"])
    assert group.min_coset_reps((), None, 4) == group.ball(4)


def test_min_coset_reps_dihedral(matrices):
    group = weyl_group(matrices["affine_a1"])
    reps = group.min_coset_reps((0,), None, 3)
    assert [w.word for w in reps] == [(), (1,), (1, 0), (1, 0, 1)]


# -- the ball filter, kept as the reference for the quotient walk --------------------


def reference_min_coset_reps(group, J, K=None, L: int = 0):
    """Elements of length <= L minimal in W_J w (and in W_J w W_K if K given)."""
    jmask, kmask = group.subset_mask(J), group.subset_mask(K or ())
    return tuple(
        w for w in group.ball(L) if not (w.left & jmask or group.right(w) & kmask)
    )


@pytest.mark.parametrize("name", ["a2", "b2", "g2", "a1xa1", "affine_a1", "affine_a2",
                                  "hyper_rank2", "hyper_rank3", "ext4"])
def test_quotient_walk_matches_ball_filter(matrices, name):
    """Every (J, K) at every L <= 9: the walked quotient W^K filtered by left
    descents in J gives the ball filter's elements (word, both orbit vectors,
    both masks) in its order, on a group that walks W^K before any ball
    (prefixes outside W^K are folded) and on one whose ball is enumerated
    (its elements are reused)."""
    A = matrices[name]
    ref, ref_words = WeylGroup(A), {}
    ref.ball(9)
    subsets = _all_subsets(A.size)
    for K in subsets:
        walked, words = WeylGroup(A), {}
        for L in range(10):
            for J in subsets:
                expected = _fields(ref, reference_min_coset_reps(ref, J, K, L), ref_words)
                assert _fields(walked, walked.min_coset_reps(J, K, L), words) == expected
                assert _fields(ref, ref.min_coset_reps(J, K, L), ref_words) == expected


@pytest.mark.parametrize("name,L,smallest", [("ext4", 7, 0), ("e10", 5, 0), ("e10", 7, 7)])
def test_quotient_walk_matches_ball_filter_extended(matrices, name, L, smallest):
    """Every K with at least ``smallest`` nodes, J in {(), I0, J0, one node}:
    the walk equals the ball filter at L (and so at every shorter length,
    both being in (length, ShortLex) order).  One group walks every W^K,
    the largest K first, so early quotients fold their elements and later
    ones reuse them; E10 at L = 7 for every K (2.4 million walked entries)
    is too slow for this suite and takes K with at least 7 nodes."""
    A = matrices[name]
    i0, j0 = classify_type(A).extended_compact
    ref, walked, ref_words, words = WeylGroup(A), WeylGroup(A), {}, {}
    ref.ball(L)
    for K in reversed(_all_subsets(A.size)):
        if len(K) < smallest:
            continue
        for J in ((), i0, j0, (0,)):
            expected = _fields(ref, reference_min_coset_reps(ref, J, K, L), ref_words)
            assert _fields(walked, walked.min_coset_reps(J, K, L), words) == expected


def test_double_coset_intersection(matrices):
    group = weyl_group(matrices["a2"])
    assert group.double_coset_intersection(group.identity, (0,), (0,)) == (0,)
    assert group.double_coset_intersection(group.element((1,)), (0,), (0,)) == ()
    dihedral = weyl_group(matrices["affine_a1"])
    assert dihedral.double_coset_intersection(dihedral.identity, (1,), (0,)) == ()


def brute_conjugation_subset(group, w, J, K, bound=6):
    """Indices j in J with w W_J w^-1 meeting W_K, via explicit conjugation."""
    winv = group.inverse(w)
    meet = []
    for u in group.subgroup_elements(J):
        if u.length == 0:
            continue
        conj = group.multiply(group.multiply(w, u), winv)
        if set(conj.word) <= set(K):
            meet.append(u)
    return meet


@pytest.mark.parametrize("name", ["a2", "b2", "affine_a1", "hyper_rank3"])
def test_intersection_matches_brute_force(matrices, name):
    A = matrices[name]
    group = weyl_group(A)
    n = A.size
    finite_subsets = [
        s
        for size in range(n + 1)
        for s in combinations(range(n), size)
        if not (name == "affine_a1" and s == (0, 1))
        and not (name == "hyper_rank3" and s == (0, 1, 2))
    ]
    for J in finite_subsets:
        for K in finite_subsets:
            for w in group.min_coset_reps(K, J, 4):
                claimed = group.double_coset_intersection(w, J, K)
                # the claimed subgroup, conjugated by w, must be exactly the
                # brute-force intersection
                brute = brute_conjugation_subset(group, w, J, K)
                expected = [
                    u for u in group.subgroup_elements(claimed) if u.length > 0
                ]
                assert sorted(u.word for u in brute) == sorted(
                    u.word for u in expected
                )


def test_pure_reps_examples(matrices):
    dihedral = weyl_group(matrices["affine_a1"])
    pure = dihedral.pure_reps((0,), (1,), 3)
    assert dihedral.identity in pure
    group = weyl_group(matrices["hyper_rank3"])
    # trivial K: purity is automatic on all right-minimal representatives
    assert group.pure_reps((), (0,), 4) == group.min_coset_reps((), (0,), 4)


def test_maximally_pure_subset_of_pure(matrices):
    group = weyl_group(matrices["ext4"])
    for size in range(5):
        for K in combinations(range(4), size):
            pure = set(group.pure_reps(K, (0, 1, 2), 6))
            maximal = set(group.pure_reps(K, (0, 1, 2), 6, maximal=True))
            assert maximal <= pure


def superset_purity_oracle(group, w, K, J):
    """Is w pure for some proper superset of J: every superset, one by one."""
    rest = [i for i in range(group.n) if i not in J]
    right = set(_bits(group.right(w), group.n))
    for bits in range(1, 1 << len(rest)):
        extra = [rest[t] for t in range(len(rest)) if bits >> t & 1]
        if any(i in right for i in extra):
            continue  # not even a minimal rep for the bigger parabolic
        if not group.double_coset_intersection(w, tuple(J) + tuple(extra), K):
            return True
    return False


@pytest.mark.parametrize(
    "name,bound", [("a2", 3), ("affine_a1", 8), ("hyper_rank3", 7), ("ext4", 8)]
)
def test_maximal_purity_matches_superset_oracle(matrices, name, bound):
    """The per-node purity test agrees with the loop over all supersets, on
    every minimal (K, J) double coset rep, pure for J or not."""
    group = weyl_group(matrices[name])
    n = matrices[name].size
    subsets = [s for size in range(n + 1) for s in combinations(range(n), size)]
    pure = 0
    for K in subsets:
        for J in subsets:
            pure_reps = set(group.pure_reps(K, J, bound))
            maximal = set(group.pure_reps(K, J, bound, maximal=True))
            for w in group.min_coset_reps(K, J, bound):
                expected = w in pure_reps and not superset_purity_oracle(group, w, K, J)
                assert (w in maximal) == expected
                pure += w in pure_reps
    assert pure  # the oracle ran on pure representatives, not only impure ones


def test_concurrent_enumeration(matrices):
    """Ball extension is safe under concurrent callers and stays canonical."""
    import threading

    from dominantk.coxeter import WeylGroup

    group = WeylGroup(matrices["hyper_rank3"])
    results = []

    def worker():
        results.append(tuple(w.word for w in group.ball(6)))

    threads = [threading.Thread(target=worker) for _ in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert len(set(results)) == 1
    assert results[0] == tuple(w.word for w in weyl_group(matrices["hyper_rank3"]).ball(6))
    assert gc.isenabled()  # every walk's pause handed the collector back


# -- the root-matrix route, kept as the reference for the orbit vectors ------------


def _negative_mask(roots, n: int) -> int:
    # a nonzero root has coefficients of one sign, so it is negative exactly
    # when it sorts below the zero vector
    zero = (0,) * n
    return sum(1 << j for j, root in enumerate(roots) if root < zero)


class MatrixElement:
    """An element as the matrices of its root action: ``cols[j]`` is w(alpha_j)
    over the simple roots, ``inv_rows`` the matrix of w^{-1} by rows."""

    def __init__(self, group, word, cols, inv_rows):
        self.word = word
        self.cols = cols
        self.inv_rows = inv_rows
        self.right = _negative_mask(cols, group.n)
        self.left = _negative_mask(zip(*inv_rows), group.n)


def _lowest(mask: int) -> int:
    return (mask & -mask).bit_length() - 1


class MatrixWeylGroup:
    """Reference route: every element carries two n x n matrices and every
    product updates both."""

    def __init__(self, A):
        self.gcm = A
        self.n = A.size
        ident = tuple(
            tuple(1 if i == j else 0 for i in range(self.n)) for j in range(self.n)
        )
        self.identity = MatrixElement(self, (), ident, ident)
        self._spheres = [[self.identity]]
        self._by_cols = {ident: self.identity}

    def _rmul(self, cols, inv_rows, s):
        """Matrices of w*r_s from those of w."""
        row_s = self.gcm.entries[s]
        col_s = cols[s]
        new_cols = list(cols)
        for j in range(self.n):
            a = row_s[j]
            if a:
                new_cols[j] = tuple(x - a * y for x, y in zip(cols[j], col_s))
        acc = [-x for x in inv_rows[s]]
        for j in range(self.n):
            a = row_s[j]
            if a and j != s:
                acc = [x - a * y for x, y in zip(acc, inv_rows[j])]
        new_rows = list(inv_rows)
        new_rows[s] = tuple(acc)
        return tuple(new_cols), tuple(new_rows)

    def _lmul(self, cols, inv_rows, s):
        """Matrices of r_s*w from those of w."""
        row_s = self.gcm.entries[s]
        new_cols = []
        for col in cols:
            acc = -col[s]
            for k in range(self.n):
                a = row_s[k]
                if a and k != s:
                    acc -= a * col[k]
            lst = list(col)
            lst[s] = acc
            new_cols.append(tuple(lst))
        new_rows = []
        for row in inv_rows:
            lst = list(row)
            for j in range(self.n):
                a = row_s[j]
                if a:
                    lst[j] = row[j] - a * row[s]
            new_rows.append(tuple(lst))
        return tuple(new_cols), tuple(new_rows)

    def _normalize(self, cols, inv_rows) -> MatrixElement:
        """Cached element, or ShortLex word by repeatedly stripping the
        least left descent."""
        cached = self._by_cols.get(cols)
        if cached is not None:
            return cached
        w = MatrixElement(self, (), cols, inv_rows)
        word, left, c, r = [], w.left, cols, inv_rows
        while left:
            i = _lowest(left)
            word.append(i)
            c, r = self._lmul(c, r, i)
            left = _negative_mask(zip(*r), self.n)
        w.word = tuple(word)
        return w

    def element(self, word) -> MatrixElement:
        cols, inv_rows = self.identity.cols, self.identity.inv_rows
        for s in word:
            cols, inv_rows = self._rmul(cols, inv_rows, s)
        return self._normalize(cols, inv_rows)

    def multiply(self, u, v) -> MatrixElement:
        cols, inv_rows = u.cols, u.inv_rows
        for s in v.word:
            cols, inv_rows = self._rmul(cols, inv_rows, s)
        return self._normalize(cols, inv_rows)

    def inverse(self, w) -> MatrixElement:
        return self.element(tuple(reversed(w.word)))

    def rmul_gen(self, w, s) -> MatrixElement:
        return self._normalize(*self._rmul(w.cols, w.inv_rows, s))

    def lmul_gen(self, s, w) -> MatrixElement:
        return self._normalize(*self._lmul(w.cols, w.inv_rows, s))

    def ball(self, L: int) -> list[MatrixElement]:
        while len(self._spheres) <= L:
            frontier = {}
            for el in self._spheres[-1]:
                for s in range(self.n):
                    if el.right >> s & 1:
                        continue  # descent: ws is shorter
                    cols, inv_rows = self._rmul(el.cols, el.inv_rows, s)
                    if cols in frontier:
                        continue
                    w = frontier[cols] = MatrixElement(self, (), cols, inv_rows)
                    i = _lowest(w.left)
                    w.word = (i,) + self._by_cols[self._lmul(cols, inv_rows, i)[0]].word
            self._by_cols.update(frontier)
            self._spheres.append(sorted(frontier.values(), key=lambda e: e.word))
        return [w for sphere in self._spheres[: L + 1] for w in sphere]


def _matrix_strip(ref, w, S, side):
    """w stripped within S on one side, one letter at a time."""
    mask = sum(1 << k for k in S)
    while getattr(w, side) & mask:
        s = _lowest(getattr(w, side) & mask)
        w = ref.rmul_gen(w, s) if side == "right" else ref.lmul_gen(s, w)
    return w


def _matrix_double_strip(ref, w, J, K):
    """The minimum of W_J w W_K: both strips, until neither moves w."""
    while (v := _matrix_strip(ref, _matrix_strip(ref, w, J, "left"), K, "right")) is not w:
        w = v
    return w


def _same(group, w, ref) -> bool:
    """Same word, both descent masks and every root image."""
    return (w.word, w.left, group.right(w), group._root_images(w)) == (
        ref.word, ref.left, ref.right, ref.cols)


ALL_MATRICES = ("a2", "b2", "g2", "a1xa1", "affine_a1", "affine_a2",
                "hyper_rank2", "hyper_rank3", "ext4", "e9", "e10")


@pytest.mark.parametrize("name", ALL_MATRICES)
def test_ball_matches_matrix_reference(matrices, name):
    """Orbit-vector enumeration gives the reference's words, masks and root
    images, and one-letter products agree, on singular matrices too."""
    A = matrices[name]
    bound = 5 if A.size > 4 else 8
    group, ref = WeylGroup(A), MatrixWeylGroup(A)
    ball, expected = group.ball(bound), ref.ball(bound)
    assert len(ball) == len(expected)
    for w, r in zip(ball, expected):
        assert _same(group, w, r)
    for w, r in zip(ball[:400], expected[:400]):
        for s in range(A.size):
            assert group.rmul_gen(w, s).word == ref.rmul_gen(r, s).word
            assert group.lmul_gen(s, w).word == ref.lmul_gen(s, r).word


@settings(max_examples=60, deadline=None)
@given(
    name=st.sampled_from(ALL_MATRICES),
    cached=st.integers(0, 2),
    words=st.tuples(st.lists(st.integers(0, 9), max_size=14),
                    st.lists(st.integers(0, 9), max_size=14)),
    s=st.integers(0, 9),
    masks=st.tuples(st.integers(0, 1023), st.integers(0, 1023)),
)
def test_cache_misses_match_matrix_reference(matrices, name, cached, words, s, masks):
    """Elements past the enumerated ball are normalized by stripping the orbit
    vector: element, inverse, one-letter products, multiply and the coset
    strips, whose root images come through that normalization, agree with
    the reference's one-letter loops."""
    A = matrices[name]
    n = A.size
    w1, w2 = (tuple(x % n for x in word) for word in words)
    J, K = (tuple(k for k in range(n) if mask >> k & 1) for mask in masks)
    s %= n
    group, ref = WeylGroup(A), MatrixWeylGroup(A)
    group.ball(cached)
    u, v = group.element(w1), group.element(w2)
    ru, rv = ref.element(w1), ref.element(w2)
    assert _same(group, u, ru) and _same(group, v, rv)
    assert _same(group, group.inverse(u), ref.inverse(ru))
    assert _same(group, group.rmul_gen(u, s), ref.rmul_gen(ru, s))
    assert _same(group, group.lmul_gen(s, u), ref.lmul_gen(s, ru))
    assert _same(group, group.multiply(u, v), ref.multiply(ru, rv))
    assert _same(group, group.rstrip(u, K), _matrix_strip(ref, ru, K, "right"))
    assert _same(group, group.double_strip(v, J, K), _matrix_double_strip(ref, rv, J, K))


def test_thread_pool_shares_one_group(matrices):
    """Four threads enumerate ball(6) of one fresh E10 group and multiply in
    it; the words equal those of a serial run on another group."""
    import sys
    from concurrent.futures import ThreadPoolExecutor

    A = matrices["e10"]

    def work(group, seed):
        ball = group.ball(6)
        products = [group.multiply(ball[(seed * 7919 + k * 104729) % len(ball)],
                                   ball[(seed + 31 * k) % len(ball)]).word
                    for k in range(300)]
        return [w.word for w in ball], products

    serial = WeylGroup(A)
    expected = [work(serial, seed) for seed in range(4)]
    shared = WeylGroup(A)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            futures = [pool.submit(work, shared, seed) for seed in range(4)]
            results = [f.result(timeout=120) for f in futures]
    finally:
        sys.setswitchinterval(interval)
    assert results == expected
    assert gc.isenabled()


def test_thread_pool_shares_one_quotient(matrices):
    """Four threads walk the same right quotients of one fresh E10 group
    through min_coset_reps and pure_reps; the words equal those of a serial
    run on another group."""
    import sys
    from concurrent.futures import ThreadPoolExecutor

    A = matrices["e10"]
    K, i0 = (0, 2, 4, 6, 8), tuple(range(9))

    def work(group, seed):
        reps = group.min_coset_reps((seed,), K, 6)
        pure = group.pure_reps((seed, seed + 1), K, 6)
        maximal = [group.pure_reps(J, i0, 9, maximal=True) for J in ((), (seed,), (6, 8))]
        return [[w.word for w in out] for out in (reps, pure, *maximal)]

    serial = WeylGroup(A)
    expected = [work(serial, seed) for seed in range(4)]
    shared = WeylGroup(A)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            futures = [pool.submit(work, shared, seed) for seed in range(4)]
            results = [f.result(timeout=120) for f in futures]
    finally:
        sys.setswitchinterval(interval)
    assert results == expected
    assert gc.isenabled()
    assert all(len(words) for words in expected[0])


# -- the root-support route, kept as the reference for the continuation mask --------


def _support(vector) -> int:
    return sum(1 << i for i, x in enumerate(vector) if x)


def reference_double_coset_intersection(group, w, J, K):
    """Subset L of J with W_K meet w W_J w^{-1} equal to w W_L w^{-1}.

    Requires w minimal for (K-left, J-right).  j belongs to L exactly
    when w(alpha_j) is a positive root supported on K.
    """
    kmask = group.subset_mask(K)
    if w.left & kmask or group.right(w) & group.subset_mask(J):
        raise NotMinimalError("w is not a minimal (K, J) double coset representative")
    # j in J is a right ascent, so w(alpha_j) is positive
    roots = group._root_images(w)
    return tuple(j for j in sorted(set(J)) if not _support(roots[j]) & ~kmask)


def reference_pure_for_proper_superset(group, w, K, J) -> bool:
    """Is w, minimal for (K-left, J-right), pure for some proper superset of J?

    Purity for J' asks that no j in J' have w(alpha_j) positive and
    supported on K, one node at a time.  So for w pure for J the answer
    is yes exactly when some right ascent j outside J has w(alpha_j)
    not supported on K; for w not pure for J it is no.
    """
    if reference_double_coset_intersection(group, w, J, K):
        return False
    outside, kmask = ~(group.subset_mask(J) | group.right(w)), group.subset_mask(K)
    roots = group._root_images(w)
    return any(
        outside >> j & 1 and _support(roots[j]) & ~kmask for j in range(group.n)
    )


def reference_pure_reps(group, K, J, L: int, maximal: bool = False):
    out = []
    for w in group.min_coset_reps(K, J, L):
        if reference_double_coset_intersection(group, w, J, K):
            continue
        if maximal and reference_pure_for_proper_superset(group, w, K, J):
            continue
        out.append(w)
    return tuple(out)


def reference_rstrip(group, w, S):
    """Minimal length element of w W_S, one right multiplication at a time."""
    smask = group.subset_mask(S)
    while group.right(w) & smask:
        w = group.rmul_gen(w, _lowest(group.right(w) & smask))
    return w


def reference_lstrip(group, w, S):
    """Minimal length element of W_S w, one left multiplication at a time."""
    smask = group.subset_mask(S)
    while w.left & smask:
        w = group.lmul_gen(_lowest(w.left & smask), w)
    return w


def reference_double_strip(group, w, J, K):
    """Minimal length element of W_J w W_K."""
    while True:
        w2 = reference_rstrip(group, reference_lstrip(group, w, J), K)
        if w2.length == w.length:
            return w2
        w = w2


def _all_subsets(n):
    return [s for size in range(n + 1) for s in combinations(range(n), size)]


def assert_purity_matches_reference(group, K, J, L):
    for maximal in (False, True):
        assert group.pure_reps(K, J, L, maximal) == reference_pure_reps(group, K, J, L, maximal)
    for w in group.min_coset_reps(K, J, L):
        assert (group.double_coset_intersection(w, J, K)
                == reference_double_coset_intersection(group, w, J, K))


@pytest.mark.parametrize("name", ["affine_a2", "hyper_rank3", "ext4"])
def test_continuation_mask_matches_support_reference(matrices, name):
    """Intersections read from the continuation mask, and pure reps in both
    modes, equal the root-support loops, every K and J."""
    group = weyl_group(matrices[name])
    subsets = _all_subsets(group.n)
    for K in subsets:
        for J in subsets:
            assert_purity_matches_reference(group, K, J, 6)


def test_continuation_mask_matches_support_reference_e10(matrices):
    A = matrices["e10"]
    group = weyl_group(A)
    i0 = tuple(range(9))
    for K in _all_subsets(A.size):
        assert_purity_matches_reference(group, K, i0, 3)


def test_pure_reps_match_support_reference_e10_at_length_5(matrices):
    """The (need, forbid) test equals the root-support loops for all 1,024 K
    of E10 with J = I0, in both modes."""
    A = matrices["e10"]
    group = weyl_group(A)
    i0 = tuple(range(9))
    for K in _all_subsets(A.size):
        for maximal in (False, True):
            assert (group.pure_reps(K, i0, 5, maximal)
                    == reference_pure_reps(group, K, i0, 5, maximal))


def test_continuation_mask_is_deodhar_continuation(matrices):
    """The mask is the set of right ascents j with w r_j still K-left minimal."""
    group = weyl_group(matrices["ext4"])
    for K in _all_subsets(4):
        kmask = group.subset_mask(K)
        for w in group.min_coset_reps(K, (), 6):
            expected = sum(1 << j for j in range(4)
                           if not group.right(w) >> j & 1 and not group.rmul_gen(w, j).left & kmask)
            assert group.continuation_mask(w, kmask) == expected


def test_pure_masks_require_minimal_reps(matrices):
    group = weyl_group(matrices["ext4"])
    w = group.element((0,))
    for call in (lambda: group.double_coset_intersection(w, (), (0,)),
                 lambda: group.double_coset_intersection(group.element((1, 0)), (0,), ())):
        with pytest.raises(NotMinimalError):
            call()


def test_double_strip_matches_loop_reference(matrices):
    group = weyl_group(matrices["ext4"])
    subsets = _all_subsets(4)
    for w in group.ball(5):
        for J in subsets:
            for K in subsets:
                assert group.double_strip(w, J, K) == reference_double_strip(group, w, J, K)


@pytest.mark.parametrize("name", ALL_MATRICES)
def test_strips_match_loop_reference(matrices, name):
    """One strip of an orbit vector within S reaches the coset extreme the
    one-letter loops reach, for every S."""
    A = matrices[name]
    group = weyl_group(A)
    ball = group.ball(2 if A.size > 4 else 6)
    for S in _all_subsets(A.size):
        for w in ball:
            assert group.rstrip(w, S) == reference_rstrip(group, w, S)
            assert group.lstrip(w, S) == reference_lstrip(group, w, S)


# -- the longest element of a finite parabolic subgroup ------------------------------


def _parabolic_order(roots) -> int:
    """|W_J| from the heights of its positive roots: the product over the
    roots of (ht + 1) / ht (Kostant's exponents are the dual partition of
    the height counts, and |W_J| is the product of the exponents plus one)."""
    order = Fraction(1)
    for root in roots:
        order *= Fraction(sum(root) + 1, sum(root))
    assert order.denominator == 1
    return int(order)


@pytest.mark.parametrize("name", ALL_MATRICES)
def test_longest_is_the_top_of_the_parabolic(matrices, name):
    """w_J is a word in J with every node of J a left and a right descent
    and length |Phi+(J)|, on every spherical J; it is the last element of
    the enumerated W_J when |W_J| <= 10^4."""
    A = matrices[name]
    group = WeylGroup(A)  # a fresh group, so its enumerated ball goes with it
    for J in spherical_poset(A).members:
        w, jmask = group.longest(J), group.subset_mask(J)
        roots = reference_levi_positive_roots(A, J)
        assert set(w.word) <= set(J)
        assert w.left & jmask == jmask == group.right(w) & jmask
        assert w.length == len(roots)
        if _parabolic_order(roots) <= 10**4:
            assert w == group.subgroup_elements(J)[-1]


def test_longest_e8_in_e9_without_enumeration(matrices, monkeypatch):
    def refuse(self, J):
        raise AssertionError("W_J enumerated")

    monkeypatch.setattr(WeylGroup, "subgroup_elements", refuse)
    group = WeylGroup(matrices["e9"])
    e8 = tuple(range(1, 9))
    assert group.longest(e8).length == 120
    assert len(group._quotients[0]) == 1


def test_longest_needs_finite_type(matrices):
    group = weyl_group(matrices["affine_a1"])
    for call in (group.longest, group.subgroup_elements):
        with pytest.raises(NotFiniteTypeError):
            call((0, 1))


# -- the dedupe-then-sort ball and the rmul_gen parabolic, kept as references ------


def reference_ball(group, L):
    """Each sphere as the set of ascents r_i u of the last one, deduplicated
    by orbit vector, each linked to the element its least left descent strips
    it to, then sorted by word."""
    spheres, by_orbit = [[group.identity]], {group.identity.orbit: group.identity}
    while len(spheres) <= L:
        shorter = spheres[-1]
        frontier = {}
        for el in shorter:
            for i in range(group.n):
                if not el.left >> i & 1:  # r_i el is longer
                    frontier.setdefault(group._reflect(i, el.orbit))
        # ShortLex word: least left descent, then the word of the shorter
        # element it strips to
        for orbit in frontier:
            left = coxeter._negative_mask(orbit)
            suffix = by_orbit[group._reflect(coxeter._lowest(left), orbit)]
            frontier[orbit] = CoxeterElement(orbit, left, suffix)
        sphere = sorted(frontier.values(), key=lambda e: e.word)
        by_orbit.update(frontier)
        spheres.append(sphere)
    return [w for sphere in spheres for w in sphere]


def reference_parabolic(group, J):
    """W_J breadth first by right multiplication, sorted at the end."""
    out = [group.identity]
    layer = [group.identity]
    while layer:
        nxt = {}
        for el in layer:
            for s in J:
                if not group.right(el) >> s & 1:
                    w = group.rmul_gen(el, s)
                    nxt[w.word] = w
        layer = list(nxt.values())
        out.extend(layer)
    return tuple(sorted(out, key=lambda e: (e.length, e.word)))


def _fields(group, elements, words=None):
    """(word, orbit, left, right) of each element of ``group``.  A test that
    reads the elements of one group many times passes ``words``, a dict that
    keeps each word, spelled once, by element id (the group keeps its
    elements alive)."""
    if words is None:
        return [(w.word, w.orbit, w.left, group.right(w)) for w in elements]
    for w in elements:
        if id(w) not in words:
            words[id(w)] = w.word
    return [(words[id(w)], w.orbit, w.left, group.right(w)) for w in elements]


@pytest.mark.parametrize("name", ALL_MATRICES)
def test_ball_matches_sort_reference(matrices, name):
    """The sphere step gives the words, the orbit vectors, both descent
    masks and the order of the dedupe-then-sort loop."""
    A = matrices[name]
    bound = 6 if A.size <= 4 else 5
    group = WeylGroup(A)
    assert _fields(group, group.ball(bound)) == _fields(group, reference_ball(group, bound))


def test_walk_reads_no_root_image(matrices):
    """A walk leaves the root images and the right descents unread: after
    E10 ball(6) only the identity holds them.  Their first read gives the
    values of the dedupe-then-sort reference."""
    A = matrices["e10"]
    group, ref = WeylGroup(A), WeylGroup(A)
    ball = group.ball(6)
    assert [w.word for w in ball if w.roots is not None] == [()]
    assert _fields(group, ball) == _fields(ref, reference_ball(ref, 6))


def test_thread_pool_reads_one_set_of_root_images(matrices):
    """Four threads read right and the root images of the same fresh E10
    ball(6) elements, in the same order, two of them right first; each
    thread sees the values of a serial group, never roots without their mask."""
    import threading
    from concurrent.futures import ThreadPoolExecutor

    A = matrices["e10"]
    serial = WeylGroup(A)
    expected = [(w.word, serial.right(w), serial._root_images(w)) for w in serial.ball(6)]
    group = WeylGroup(A)
    ball = group.ball(6)
    start = threading.Barrier(4)

    def read(w, right_first):
        if right_first:
            right = group.right(w)
            return w.word, right, w.roots
        roots = group._root_images(w)
        return w.word, group.right(w), roots

    def work(seed):
        start.wait(timeout=60)
        return [read(w, seed % 2) for w in ball]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            results = list(pool.map(work, range(4), timeout=120))
    finally:
        sys.setswitchinterval(interval)
    assert results == [expected] * 4


@pytest.mark.parametrize("name", ALL_MATRICES)
def test_parabolics_match_bfs_reference(matrices, name):
    """subgroup_elements equals the rmul_gen BFS, in order, on every spherical
    J with |W_J| <= 10^4 (<= 200 on E9 and E10, where the BFS costs about
    90 us an element); elements within the enumerated ball are the ball's."""
    A = matrices[name]
    cap = 10**4 if A.size <= 4 else 200
    group = WeylGroup(A)
    ball = {w.word: w for w in group.ball(3)}
    for J in spherical_poset(A).members:
        if _parabolic_order(reference_levi_positive_roots(A, J)) <= cap:
            elements = group.subgroup_elements(J)
            assert _fields(group, elements) == _fields(group, reference_parabolic(group, J))
            assert all(w is ball[w.word] for w in elements if w.length <= 3)


# -- words read through suffix links ---------------------------------------------


def _walks(matrices):
    """Fresh walks, each with its group: E10 ball(5), the quotient W^K of
    ext4 with K = (0, 1) at L = 6 and W_J of E10 with J = D4, each element's
    word unread."""
    e10, ext4, e10_j = (WeylGroup(matrices[name]) for name in ("e10", "ext4", "e10"))
    return {
        "ball": (e10, e10.ball(5)),
        "quotient": (ext4, [w for sphere in ext4._quotient(6, (0, 1)) for w in sphere]),
        "parabolic": (e10_j, e10_j.subgroup_elements((4, 5, 6, 8))),
    }


def test_words_read_through_suffix_links(matrices):
    """Every walked element but e links to its suffix; read deepest first,
    each word is w(rho) stripped, and its length the walked length."""
    for walk, (group, elements) in _walks(matrices).items():
        assert [w.length for w in elements if w.suffix is None] == [0], walk
        for w in reversed(elements):
            assert w.word == group._strip(w.orbit)[0], walk
            assert w.length == len(w.word), walk


def test_element_past_the_ball_links_down_to_the_ball(matrices):
    """An element built past a walked E10 ball(3) is linked down by least left
    descents until it reaches the ball: the links below length 4 are the
    ball's own elements, not copies."""
    group = WeylGroup(matrices["e10"])
    ball = {w.orbit: w for w in group.ball(3)}
    w = group.element(range(10))
    assert w.word == tuple(range(10)) == group._strip(w.orbit)[0]
    assert w.orbit not in ball
    chain = [w]
    while chain[-1].suffix is not None:
        chain.append(chain[-1].suffix)
    assert [u.length for u in chain] == list(range(10, -1, -1))
    for u in chain:
        assert (u is ball[u.orbit]) if u.length <= 3 else u.orbit not in ball
    assert chain[-1] is group.identity


def test_long_element_is_built_read_and_dropped_without_recursion(matrices):
    """affine_a1 element((0, 1) * 50,000) links 100,000 elements down to e:
    it is built, its right descents and its word are read, and it is freed,
    all in loops, with no RecursionError."""
    group = WeylGroup(matrices["affine_a1"])
    w = group.element((0, 1) * 50_000)
    assert w.length == 100_000
    assert group.right(w) == 0b10
    word = w.word
    assert len(word) == 100_000 and word[:2] == word[-2:] == (0, 1)
    del w
    gc.collect()


def test_deep_word_is_read_without_recursion(matrices):
    """affine_a1 ball(5000): the last element's word, read first, follows
    5,000 suffix links in a loop."""
    group = WeylGroup(matrices["affine_a1"])
    last = group.ball(5000)[-1]
    assert len(last.word) == last.length == 5000
    assert last.word == group._strip(last.orbit)[0]


def test_walks_read_no_word(matrices, monkeypatch):
    """The ball, a right quotient stepped through root images of the ball's
    elements, and a parabolic W_J read no word.  W^K of K = A4 has 218
    elements of length <= 4 (the ball(4) elements with no right descent in
    K), and W_J of J = D4 has 192."""
    def refuse(self):
        raise AssertionError("a walk read a word")

    monkeypatch.setattr(CoxeterElement, "word", property(refuse))
    group = WeylGroup(matrices["e10"])
    assert len(group.ball(8)) == 35761
    assert sum(map(len, group._quotient(4, (1, 2, 3, 4)))) == 218
    assert sum(map(len, group._subgroup_spheres((4, 5, 6, 8)))) == 192


def test_walked_element_bytes():
    """tracemalloc bytes per element of a fresh E10 ball(7): an element and
    its orbit vector, with no word tuple."""
    A = load("e10")
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        group = WeylGroup(A)
        count = len(group.ball(7))
        per_element = (tracemalloc.get_traced_memory()[0] - before) / count
    finally:
        tracemalloc.stop()
    assert per_element <= 266


def test_dropped_group_is_freed_without_the_collector():
    """No walked element refers back to its group, so a fresh E10 group
    walked to ball(6) and one right quotient is freed as soon as it is
    dropped, with the cyclic collector paused."""
    group = WeylGroup(load("e10"))
    group.ball(6)
    group.min_coset_reps((), (1, 2, 3, 4), 6)
    ref = weakref.ref(group)
    with coxeter.paused_gc():
        del group
        assert ref() is None


def test_reading_words_keeps_no_memory():
    """Reading every word of a fresh E10 ball(7) keeps nothing: a word is
    spelled from the suffix links and stored nowhere (a cached word tuple
    would keep about 90 B an element)."""
    group = WeylGroup(load("e10"))
    ball = group.ball(7)
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        assert sum(len(w.word) for w in ball) == sum(w.length for w in ball)
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert grown <= 16 * len(ball)
