import math
import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dominantk import intlinalg
from dominantk.characters import ambient_dominance_test, levi_positive_roots
from dominantk.coxeter import weyl_group
from dominantk.errors import MalformedFileError, NotAGCMError
from dominantk.gcm import (
    AFFINE,
    FINITE,
    INDEFINITE,
    INFINITE_ORDER,
    GeneralizedCartanMatrix,
    _leading_minors,
    _symmetrizer,
    classify_type,
    coxeter_matrix,
    gcm_from_rows,
    is_finite_type,
    parse_gcm,
    spherical_poset,
)
from dominantk.weights import build_realization


def all_principal_minors_positive(entries, proper=False):
    """Independent finite/affine oracle: every (proper) principal minor."""
    n = len(entries)
    top = n - 1 if proper else n
    for size in range(1, top + 1):
        for subset in combinations(range(n), size):
            sub = [[entries[i][j] for j in subset] for i in subset]
            if intlinalg.det(sub) <= 0:
                return False
    return True


def oracle_kind(entries):
    if all_principal_minors_positive(entries):
        return FINITE
    full = intlinalg.det(entries)
    if all_principal_minors_positive(entries, proper=True) and full == 0:
        return AFFINE
    return INDEFINITE


# -- parsing ------------------------------------------------------------------


def test_parse_smallest():
    A = parse_gcm("n 1\n2\n")
    assert A.entries == ((2,),)


def test_parse_affine_a1_with_comment():
    A = parse_gcm("# comment\nn 2\n2 -2\n-2 2\n")
    assert A.entries == ((2, -2), (-2, 2))


def test_parse_zero_pairing_violation():
    with pytest.raises(NotAGCMError) as exc:
        parse_gcm("n 2\n2 -1\n0 2\n")
    assert "a[0][1]" in str(exc.value) and "a[1][0]" in str(exc.value)


@pytest.mark.parametrize(
    "text",
    [
        "",
        "n two\n2\n",
        "n 2\n2 -1\n",
        "n 2\nlabels a\n2 -1\n-1 2\n",
        "n 2\n2 -1 0\n-1 2 0\n",
        "n 2\n2 x\n-1 2\n",
    ],
)
def test_parse_malformed(text):
    with pytest.raises(MalformedFileError):
        parse_gcm(text)


def test_bad_diagonal_and_positive_offdiag():
    with pytest.raises(NotAGCMError):
        gcm_from_rows([[1]])
    with pytest.raises(NotAGCMError):
        gcm_from_rows([[2, 1], [1, 2]])


# -- classification ------------------------------------------------------------


def test_a2_finite_compact():
    A = gcm_from_rows([[2, -1], [-1, 2]])
    # leading principal minors by hand: 2 and 2*2 - 1 = 3
    assert intlinalg.det([[2]]) == 2
    assert intlinalg.det(A.entries) == 3
    cls = classify_type(A)
    assert cls.kind == FINITE and cls.compact_type and cls.extended_compact is None


def test_affine_a1_compact(matrices):
    cls = classify_type(matrices["affine_a1"])
    assert cls.kind == AFFINE
    assert cls.compact_type  # indecomposable affine is automatically compact
    assert intlinalg.det(matrices["affine_a1"].entries) == 0


def test_rank3_indefinite_compact(matrices):
    A = matrices["hyper_rank3"]
    assert intlinalg.det(A.entries) == -3
    cls = classify_type(A)
    assert cls.kind == INDEFINITE and cls.compact_type
    for pair in combinations(range(3), 2):
        assert is_finite_type(A, pair)


def test_ext4_partition_by_exhaustion(matrices):
    A = matrices["ext4"]
    cls = classify_type(A)
    assert cls.extended_compact == ((0, 1, 2), (3,))
    # oracle: enumerate all 16 subsets, non-finite exactly the supersets of I0
    for size in range(5):
        for subset in combinations(range(4), size):
            sub = A.submatrix(subset)
            finite = all(
                oracle_kind([[sub.entries[i][j] for j in block] for i in block])
                == FINITE
                for block in sub.blocks()
            ) if subset else True
            assert finite == (not set((0, 1, 2)) <= set(subset))


def test_extended_partition_unique_small():
    # exhaustive 2-partition search on matrices of size <= 5
    for A in (
        gcm_from_rows([[2, -2, 0], [-2, 2, -1], [0, -1, 2]]),
        parse_gcm("n 4\n2 -1 -1 0\n-1 2 -1 0\n-1 -1 2 -1\n0 0 -1 2\n"),
    ):
        cls = classify_type(A)
        assert cls.extended_compact is not None
        valid = []
        n = A.size
        for size in range(1, n):
            for i0 in combinations(range(n), size):
                good = True
                for s in range(n + 1):
                    for sub in combinations(range(n), s):
                        nonfinite = not is_finite_type(A, sub)
                        if nonfinite != (set(i0) <= set(sub)):
                            good = False
                            break
                    if not good:
                        break
                if good:
                    valid.append(i0)
        assert valid == [cls.extended_compact[0]]


def test_symmetrizer_exactness(matrices):
    for name in ("a2", "b2", "g2", "affine_a1", "e10"):
        A = matrices[name]
        cls = classify_type(A)
        assert cls.symmetrizable
        d = cls.symmetrizer
        assert all(x > 0 for x in d)
        for i in range(A.size):
            for j in range(A.size):
                assert d[i] * A.entries[i][j] == d[j] * A.entries[j][i]
    assert not classify_type(matrices["hyper_rank3"]).symmetrizable
    assert classify_type(matrices["hyper_rank3"]).symmetrizer is None


def test_classification_permutation_invariant():
    rng = random.Random(3)
    seeds = [
        [[2, -1, 0], [-1, 2, -2], [0, -1, 2]],
        [[2, -2, 0], [-2, 2, -1], [0, -1, 2]],
        [[2, -3], [-1, 2]],
    ]
    for rows in seeds:
        n = len(rows)
        base = classify_type(gcm_from_rows(rows))
        for _ in range(6):
            perm = list(range(n))
            rng.shuffle(perm)
            permuted = [[rows[perm[i]][perm[j]] for j in range(n)] for i in range(n)]
            cls = classify_type(gcm_from_rows(permuted))
            assert (cls.kind, cls.compact_type, cls.symmetrizable) == (
                base.kind,
                base.compact_type,
                base.symmetrizable,
            )


def random_gcm(rng, n):
    """A random n x n GCM; zero and single bonds are common, so that finite
    blocks of several nodes occur."""
    rows = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
    for i, j in combinations(range(n), 2):
        rows[i][j] = rng.choice((0, 0, -1, -1, -1, -2, -3))
        rows[j][i] = rng.choice((-1, -1, -2)) if rows[i][j] else 0
    return gcm_from_rows(rows)


# -- the subset searches, kept as the reference for the node-removal test ------------


def _minimal_nonfinite_subset(A: GeneralizedCartanMatrix):
    """Greedily shrink the full index set to a minimal non-finite subset."""
    if is_finite_type(A):
        return None
    current = list(A.index_set)
    shrunk = True
    while shrunk:
        shrunk = False
        for i in list(current):
            smaller = tuple(x for x in current if x != i)
            if smaller and not is_finite_type(A, smaller):
                current = list(smaller)
                shrunk = True
                break
    return tuple(current)


def _extended_compact(A: GeneralizedCartanMatrix):
    """The unique partition (I0, J0) with non-finite subsets exactly the
    supersets of I0, when it exists with J0 nonempty.

    Since non-finite subsets are closed upward, the partition exists iff the
    matrix has a unique minimal non-finite subset, which is then I0; it is
    unique exactly when dropping any single node of I0 from the full index
    set leaves a finite-type submatrix.
    """
    i0 = _minimal_nonfinite_subset(A)
    if i0 is None or len(i0) == A.size:
        return None
    for i in i0:
        rest = tuple(x for x in A.index_set if x != i)
        if not is_finite_type(A, rest):
            return None
    j0 = tuple(x for x in A.index_set if x not in i0)
    return (i0, j0)


def reference_compact_and_extended(A: GeneralizedCartanMatrix):
    compact = all(
        is_finite_type(A, sub)
        for sub in combinations(A.index_set, A.size - 1)
    )
    extended = None if compact else _extended_compact(A)
    return compact, extended


def test_node_removal_matches_subset_search_on_bundled(matrices):
    for A in matrices.values():
        cls = classify_type(A)
        assert (cls.compact_type, cls.extended_compact) == reference_compact_and_extended(A)


@settings(max_examples=300, deadline=None)
@given(n=st.integers(2, 7), seed=st.integers(0, 10**9))
def test_node_removal_matches_subset_search(n, seed):
    """compact_type and extended_compact from the n + 1 finite-type tests
    equal the greedy shrink and the (n - 1)-subset loop."""
    A = random_gcm(random.Random(seed), n)
    cls = classify_type(A)
    assert (cls.compact_type, cls.extended_compact) == reference_compact_and_extended(A)


def test_leading_minors_are_elimination_pivots():
    """The pivots of the fraction-free elimination are the determinant-
    computed leading minors, up to and including the first not positive."""
    rng = random.Random(7)
    for _ in range(300):
        n = rng.randint(1, 7)
        A = random_gcm(rng, n)
        subset = sorted(rng.sample(range(n), rng.randint(1, n)))
        entries = [[A.entries[i][j] for j in subset] for i in subset]
        expected = []
        for k in range(1, len(subset) + 1):
            expected.append(intlinalg.det([row[:k] for row in entries[:k]]))
            if expected[-1] <= 0:
                break
        assert _leading_minors(entries) == expected


def test_node_indices_are_checked_once(matrices):
    """Every subset reaches the finite-type test, which refuses indices
    outside the node set and reads a repeated index as one node."""
    A = matrices["a2"]
    with pytest.raises(IndexError, match=r"\(-1,\)"):
        is_finite_type(A, (-1,))
    with pytest.raises(IndexError):
        is_finite_type(A, (0, 2))
    with pytest.raises(IndexError):
        levi_positive_roots(A, (-1,))
    with pytest.raises(IndexError):
        weyl_group(A).subgroup_elements((-1,))
    with pytest.raises(IndexError):
        ambient_dominance_test(build_realization(A), (-1,), (0, 0))
    assert is_finite_type(A, (0, 0))



def random_tree_gcm(rng, n):
    """A random n-node GCM whose bond graph is a tree: always symmetrizable,
    and a_ij / a_ji is often not integral."""
    rows = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
    for j in range(1, n):
        i = rng.randrange(j)
        rows[i][j], rows[j][i] = rng.choice((-1, -1, -2, -3)), rng.choice((-1, -1, -2, -3))
    return gcm_from_rows(rows)


def random_mixed_gcms(seed, count=400):
    """Seeded 2-7-node GCMs: random bond graphs, trees, and sums of two such
    pieces with their nodes interleaved, so decomposable matrices with blocks
    of different symmetrizer scales and non-symmetrizable ones both occur."""
    rng = random.Random(seed)

    def piece(n):
        return (random_gcm if rng.random() < 0.5 else random_tree_gcm)(rng, n)

    out = []
    for k in range(count):
        n = rng.randint(2, 7)
        if k % 3 < 2:
            out.append(piece(n))
            continue
        first = piece(rng.randint(1, n - 1))
        second = piece(n - first.size)
        order = list(range(n))
        rng.shuffle(order)
        rows = [[0] * n for _ in range(n)]
        for offset, part in ((0, first), (first.size, second)):
            for i, row in enumerate(part.entries):
                for j, x in enumerate(row):
                    rows[order[offset + i]][order[offset + j]] = x
        out.append(gcm_from_rows(rows))
    return out


def reference_symmetrizer(A: GeneralizedCartanMatrix):
    """The rational route: each block's first node gets 1, the others
    d_j = d_i a_ij / a_ji as fractions, then the primitive integer multiple."""
    n = A.size
    d = [None] * n
    for block in A.blocks():
        root = block[0]
        d[root] = Fraction(1)
        stack = [root]
        while stack:
            i = stack.pop()
            for j in range(n):
                if A.entries[i][j] != 0 and i != j and d[j] is None:
                    d[j] = d[i] * A.entries[i][j] / A.entries[j][i]
                    stack.append(j)
    for i in range(n):
        for j in range(n):
            if d[i] * A.entries[i][j] != d[j] * A.entries[j][i]:
                return None
    denom = math.lcm(*(x.denominator for x in d))
    ints = [int(x * denom) for x in d]
    g = math.gcd(*ints)
    return tuple(x // g for x in ints)


def test_integer_symmetrizer_matches_rational_route(matrices):
    assert classify_type(matrices["g2"]).symmetrizer == (3, 1)
    assert classify_type(matrices["b2"]).symmetrizer == (2, 1)
    cases = list(matrices.values()) + random_mixed_gcms(5)
    scaled = unsymmetrizable = 0
    for A in cases:
        expected = reference_symmetrizer(A)
        assert _symmetrizer(A) == expected, A
        unsymmetrizable += expected is None
        scaled += expected is not None and len(A.blocks()) > 1 and max(expected) > 1
    assert scaled >= 40 and unsymmetrizable >= 40


def reference_spherical_members(A: GeneralizedCartanMatrix):
    """The whole-submatrix route: every subset in combinations order, finite
    when the leading minors of its whole submatrix are all positive."""
    return tuple(
        subset
        for size in range(A.size + 1)
        for subset in combinations(A.index_set, size)
        if all(m > 0 for m in _leading_minors([[A.entries[i][j] for j in subset] for i in subset]))
    )


def test_spherical_poset_matches_whole_submatrix_route(matrices):
    """Per-component minors give the poset and the finite-type test of one
    elimination per subset, on the bundled matrices and 400 random ones;
    the test runs on a fresh copy in shuffled order as well, so that the
    components are split without the poset's smaller subsets at hand."""
    rng = random.Random(17)
    cases = list(matrices.values()) + random_mixed_gcms(17)
    decomposable = 0
    for A in cases:
        expected = reference_spherical_members(A)
        assert spherical_poset(A).members == expected, A
        subsets = [s for k in range(A.size + 1) for s in combinations(A.index_set, k)]
        rng.shuffle(subsets)
        fresh, members = gcm_from_rows(A.entries), set(expected)
        for subset in subsets:
            assert is_finite_type(fresh, subset) == (subset in members), (A, subset)
        decomposable += len(A.blocks()) > 1
    assert decomposable >= 100


# -- spherical poset -------------------------------------------------------------


def test_spherical_poset_affine_a1(matrices):
    poset = spherical_poset(matrices["affine_a1"])
    assert poset.members == ((), (0,), (1,))


def test_spherical_poset_compact_rank3(matrices):
    poset = spherical_poset(matrices["hyper_rank3"])
    assert len(poset.members) == 7  # all proper subsets of a 3-set
    assert (0, 1, 2) not in poset


def test_spherical_poset_ext4(matrices):
    poset = spherical_poset(matrices["ext4"])
    for size in range(5):
        for subset in combinations(range(4), size):
            assert (subset in poset) == (not set((0, 1, 2)) <= set(subset))


def test_spherical_poset_downward_closed(matrices):
    for name in ("affine_a2", "ext4", "e9"):
        poset = spherical_poset(matrices[name])
        members = set(poset.members)
        for m in members:
            for i in range(len(m)):
                assert m[:i] + m[i + 1 :] in members
        assert () in members
        for i in range(matrices[name].size):
            assert (i,) in members


# -- bond orders ------------------------------------------------------------------


def test_coxeter_matrix_values(matrices):
    assert coxeter_matrix(matrices["a2"])[0][1] == 3
    assert coxeter_matrix(matrices["b2"])[0][1] == 4
    assert coxeter_matrix(matrices["g2"])[0][1] == 6
    assert coxeter_matrix(matrices["a1xa1"])[0][1] == 2
    assert coxeter_matrix(matrices["affine_a1"])[0][1] == INFINITE_ORDER
    assert all(coxeter_matrix(matrices["a2"])[i][i] == 1 for i in range(2))


def test_finite_type_iff_enumeration_terminates():
    """Cross-module property: a subset spans a finite reflection group
    exactly when ball enumeration exhausts it."""
    from dominantk.coxeter import WeylGroup

    seeds = [
        [[2, -1], [-1, 2]],
        [[2, -2], [-1, 2]],
        [[2, -3], [-1, 2]],
        [[2, -2], [-2, 2]],
        [[2, -1, 0], [-1, 2, -1], [0, -1, 2]],
        [[2, -1, -1], [-1, 2, -1], [-1, -1, 2]],
        [[2, -2, 0], [-1, 2, -1], [0, -3, 2]],
        [[2, -3, -3], [-3, 2, -3], [-3, -3, 2]],
    ]
    from dominantk.errors import ResourceExceededError

    def terminates(group):
        try:
            return group.is_finite(max_length=40)
        except ResourceExceededError:
            return False

    for rows in seeds:
        A = gcm_from_rows(rows)
        for size in range(1, A.size + 1):
            for subset in combinations(range(A.size), size):
                group = WeylGroup(A.submatrix(subset), element_cap=100_000)
                assert terminates(group) == is_finite_type(A, subset)


def test_e10_determinant(matrices):
    assert intlinalg.det(matrices["e10"].entries) == -1
    assert intlinalg.det(matrices["e9"].entries) == 0


def test_e10_spherical_poset_size(matrices):
    members = spherical_poset(matrices["e10"]).members
    assert len(members) == 2**10 - 2  # everything except I0 and the full set


def test_bond_orders_match_root_action(matrices):
    """The bond-order table is validated by the actual order of each product
    of two reflections under the root action; infinite bonds never close."""
    from dominantk.coxeter import weyl_group

    for name in ("a2", "b2", "g2", "a1xa1"):
        group = weyl_group(matrices[name])
        m = coxeter_matrix(matrices[name])[0][1]
        for power in range(1, int(m)):
            assert group.element((0, 1) * power).length > 0
        assert group.element((0, 1) * int(m)).length == 0
    dihedral = weyl_group(matrices["affine_a1"])
    for power in range(1, 21):  # powers of r0 r1 up to word length 40
        assert dihedral.element((0, 1) * power).length == 2 * power


def test_derived_data_is_released_with_its_matrix():
    """Classification, poset, realization and group are cached on the
    matrix object and go when it goes."""
    import gc
    import weakref

    from dominantk.coxeter import weyl_group
    from dominantk.weights import build_realization

    A = gcm_from_rows([[2, -2, -1], [-2, 2, -1], [-1, -1, 2]])
    classify_type(A)
    spherical_poset(A)
    real = weakref.ref(build_realization(A))
    group = weakref.ref(weyl_group(A))
    assert len(group().ball(4)) > 1
    assert len(group().subgroup_elements((0, 2))) == 6
    assert build_realization(A) is real() and weyl_group(A) is group()
    del A
    gc.collect()
    assert real() is None and group() is None


def test_racing_threads_share_one_group():
    """Four threads asking for the group of one fresh matrix get one object."""
    import sys
    import threading

    from dominantk.coxeter import weyl_group

    A = gcm_from_rows([[2, -1, -1, 0], [-1, 2, -1, 0], [-1, -1, 2, -1], [0, 0, -1, 2]])
    start = threading.Barrier(4)
    groups = []

    def worker():
        start.wait()
        groups.append(weyl_group(A))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
    finally:
        sys.setswitchinterval(interval)
    assert len(groups) == 4 and all(g is groups[0] for g in groups)
