"""Acceptance suite: one test per criterion, exact integer equality
throughout, each printing a PASS line on success (run with -s to see them).
"""

from itertools import combinations, product

from hypothesis import given, settings
from hypothesis import strategies as st

from dominantk import intlinalg
from dominantk.characters import (
    ambient_dominance_oracle,
    ambient_dominance_test,
    dirac_induction,
    exact_divide,
    levi_irreducible_character,
    weyl_denominator,
    weyl_numerator,
)
from dominantk.coxeter import weyl_group
from dominantk.davis import (
    davis_truncation,
    hat_sector_cohomology,
    sector_filtration_cohomology,
    snf_cohomology,
)
from dominantk.gcm import (
    AFFINE,
    FINITE,
    classify_type,
    coxeter_matrix,
    gcm_from_rows,
)
from dominantk.ktheory import (
    Box,
    compact_type_report,
    derived_limit_oracle,
    extended_type_report,
    k_homology_report,
    splitting_maps,
    strata_colimit_functor,
    strata_limit_functor,
    stratum_basis,
)
from dominantk.weights import build_realization

PASS = "ACCEPTANCE {0}: PASS - {1}"


def all_subsets(n):
    for size in range(n + 1):
        yield from combinations(range(n), size)


def principal_minors_kind(entries):
    """Independent classification oracle via every principal minor."""
    n = len(entries)

    def positive(proper):
        top = n - 1 if proper else n
        for size in range(1, top + 1):
            for sub in combinations(range(n), size):
                if intlinalg.det([[entries[i][j] for j in sub] for i in sub]) <= 0:
                    return False
        return True

    if positive(proper=False):
        return FINITE
    if positive(proper=True) and intlinalg.det(entries) == 0:
        return AFFINE
    return "indefinite"


#: off-diagonal pairs (a_ij, a_ji) with entries in [-3, 0]: zeros pair up
GRID_PAIRS = [(0, 0)] + [(a, b) for a in range(-3, 0) for b in range(-3, 0)]


def gcm_with_pairs(size, chosen):
    """The matrix with the pairs ``chosen`` at the spots i < j in order."""
    rows = [[2 if i == j else 0 for j in range(size)] for i in range(size)]
    for (i, j), (a, b) in zip(combinations(range(size), 2), chosen):
        rows[i][j], rows[j][i] = a, b
    return gcm_from_rows(rows)


def gcm_grid(size):
    """All generalized Cartan matrices of the given size with off-diagonal
    entries in [-3, 0]."""
    for chosen in product(GRID_PAIRS, repeat=size * (size - 1) // 2):
        yield gcm_with_pairs(size, chosen)


def blockwise_minors_kind(A):
    """The worst principal-minors verdict over the indecomposable blocks."""
    kinds = {principal_minors_kind(A.submatrix(b).entries) for b in A.blocks()}
    if kinds == {FINITE}:
        return FINITE
    if kinds <= {FINITE, AFFINE}:
        return AFFINE
    return "indefinite"


def test_acceptance_1_classification_grid(matrices):
    checked = 0
    for size in (2, 3):
        for A in gcm_grid(size):
            cls = classify_type(A)
            assert cls.kind == blockwise_minors_kind(A)
            if cls.kind == AFFINE and cls.indecomposable:
                assert cls.compact_type
            checked += 1
    assert checked == 10 + 1000
    for name in ("a2", "b2", "g2"):
        assert classify_type(matrices[name]).kind == FINITE
    assert classify_type(gcm_from_rows([[2, -2], [-2, 2]])).kind == AFFINE
    assert classify_type(gcm_from_rows([[2, -1], [-4, 2]])).kind == AFFINE
    print(PASS.format(1, f"classification grid of {checked} matrices vs minors oracle"))


@settings(max_examples=250, deadline=None)
@given(st.lists(st.one_of(st.just((0, 0)), st.sampled_from(GRID_PAIRS[1:])),
                min_size=6, max_size=6))
def test_classification_matches_minors_on_4x4(chosen):
    """Random 4x4 matrices of the grid, which is too large (10^6) to run in
    full here: the Kac classification equals the blockwise minors oracle.
    Half the pairs are zero, so decomposable and finite matrices occur."""
    A = gcm_with_pairs(4, chosen)
    assert classify_type(A).kind == blockwise_minors_kind(A)


def test_acceptance_2_coxeter_engine(matrices):
    orders = {"a2": 6, "b2": 8, "g2": 12, "a1xa1": 4}
    for name, order in orders.items():
        group = weyl_group(matrices[name])
        assert group.is_finite()
        assert len(group.ball(24)) == order
        m = coxeter_matrix(matrices[name])
        for i in range(2):
            for j in range(2):
                if i == j:
                    continue
                word = (i, j) * int(m[i][j])
                assert group.element(word).length == 0
                for k in range(1, int(m[i][j])):
                    assert group.element((i, j) * k).length > 0
    dihedral = weyl_group(matrices["affine_a1"])
    for L in range(11):
        assert len(dihedral.ball(L)) == 2 * L + 1
    print(PASS.format(2, "group orders 6/8/12/4, bond orders, dihedral growth"))


def _brute_force_min_in_double_coset(group, w, left_elements, right_elements):
    """Is w of minimal length in its double coset, searching the given
    parabolic windows with early exit."""
    for u in left_elements:
        uw = group.multiply(u, w)
        for v in right_elements:
            if group.multiply(uw, v).length < w.length:
                return False
    return True


def test_acceptance_3_minimal_double_cosets(matrices):
    names = ("a2", "b2", "affine_a1", "hyper_rank3")
    mismatches = 0
    checked = 0
    for name in names:
        A = matrices[name]
        group = weyl_group(A)
        ball = group.ball(6)
        window = {}
        for subset in all_subsets(A.size):
            if classify_type(A.submatrix(subset)).kind == FINITE if subset else True:
                window[subset] = group.subgroup_elements(subset) if subset else (group.identity,)
            else:
                window[subset] = tuple(
                    w for w in ball if set(w.word) <= set(subset)
                )
        for J in all_subsets(A.size):
            for K in all_subsets(A.size):
                lefts = sorted(window[J], key=lambda e: e.length)
                rights = sorted(window[K], key=lambda e: e.length)
                for w in ball:
                    brute = _brute_force_min_in_double_coset(group, w, lefts, rights)
                    engine = not (
                        any(w.left >> i & 1 for i in set(J))
                        or any(group.right(w) >> k & 1 for k in set(K))
                    )
                    checked += 1
                    if brute != engine:
                        mismatches += 1
    assert mismatches == 0
    print(PASS.format(3, f"double-coset minimality, {checked} cases, 0 mismatches"))


def test_acceptance_4_purity_oracle(matrices):
    mismatches = 0
    checked = 0
    for name in ("a2", "affine_a1", "ext4"):
        A = matrices[name]
        group = weyl_group(A)
        finite_subsets = [
            s
            for s in all_subsets(A.size)
            if not s or classify_type(A.submatrix(s)).kind == FINITE
        ]
        for J in finite_subsets:
            sub_elements = group.subgroup_elements(J)
            for K in finite_subsets:
                pure = set(group.pure_reps(K, J, 6))
                for w in group.min_coset_reps(K, J, 6):
                    winv = group.inverse(w)
                    brute = all(
                        not set(group.multiply(group.multiply(w, u), winv).word)
                        <= set(K)
                        for u in sub_elements
                        if u.length
                    )
                    checked += 1
                    if brute != (w in pure):
                        mismatches += 1
    assert mismatches == 0
    A = matrices["ext4"]
    group = weyl_group(A)
    for K in all_subsets(4):
        maximal = set(group.pure_reps(K, (0, 1, 2), 6, maximal=True))
        assert maximal <= set(group.pure_reps(K, (0, 1, 2), 6))
    print(PASS.format(4, f"purity vs conjugation on {checked} representatives"))


def test_acceptance_5_davis_compact_supports(matrices):
    cases = {"affine_a1": 1, "hyper_rank2": 1, "hyper_rank3": 2}
    for name, n in cases.items():
        A = matrices[name]
        for K in all_subsets(A.size):
            if len(K) == A.size:
                continue
            scan = sector_filtration_cohomology(A, K, 8).cohomology()
            if K == ():
                assert scan.groups[n] == (1, ())
                assert all(
                    scan.groups[p] == (0, ()) for p in range(n)
                )
            else:
                assert all(g == (0, ()) for g in scan.groups)
            stabilized = None
            previous = None
            for L in (2, 4, 6, 8):
                cx, fr = davis_truncation(A, K, L)
                coh = snf_cohomology(cx, fr)
                if previous is not None and previous == coh.groups:
                    stabilized = coh.groups
                    break
                previous = coh.groups
            assert stabilized is not None, f"{name} K={K} did not stabilize by L=8"
            assert stabilized == scan.groups
    print(PASS.format(5, "sector scan = stabilized truncation oracle on 3 matrices"))


def test_acceptance_6_extended_cross_check(matrices):
    A = matrices["ext4"]
    group = weyl_group(A)
    i0 = (0, 1, 2)
    L = 8
    box = Box(1, 1)
    report = extended_type_report(A, L, box)
    core_elements = {
        u for pair in combinations(i0, 2) for u in group.subgroup_elements(pair)
    }
    for K in all_subsets(4):
        scan = sector_filtration_cohomology(A, K, L)
        maximal = group.pure_reps(K, i0, L, maximal=True)
        assert len(scan.degree_n_generators) == len(maximal)
        assert set(scan.degree_n_generators) == set(maximal)
        assert report.rank_in_degree(2, K) == len(maximal) * len(
            stratum_basis(A, K, box)
        )
        # induced-complex ranks against the brute-force orbit decomposition
        hat = hat_sector_cohomology(A, K, L)
        brute_n, brute_0 = [], []
        for w in group.min_coset_reps(K, i0, L):
            winv = group.inverse(w)
            meets = any(
                u.length
                and set(group.multiply(group.multiply(w, u), winv).word) <= set(K)
                for u in core_elements
            )
            if not meets:
                brute_n.append(w)
            if all(
                set(group.multiply(group.multiply(w, group.generator(j)), winv).word)
                <= set(K)
                for j in i0
            ):
                brute_0.append(w)
        assert set(hat.degree_n) == set(brute_n)
        assert set(hat.degree_zero) == set(brute_0)
    print(PASS.format(6, "scan / purity / report / orbit decomposition all agree at L=8"))


def test_acceptance_7_character_identities(matrices):
    cases = [
        (matrices["affine_a1"], (1,)),      # rank-one bond
        (matrices["affine_a2"], (0, 1)),    # two single bonds
        (matrices["hyper_rank3"], (0, 2)),  # bond product two
    ]
    identities = 0
    for A, J in cases:
        real = build_realization(A)
        rho_j = real.partial_rho(J)
        assert dirac_induction(real, J, rho_j).terms == {real.zero(): 1}
        for values in product(range(5), repeat=len(J)):
            mu = [0] * real.rank
            for j, v in zip(J, values):
                mu[j] = v
            mu = tuple(mu)
            shifted = tuple(a + b for a, b in zip(mu, rho_j))
            lhs = weyl_denominator(real, J) * levi_irreducible_character(real, J, mu)
            assert lhs == weyl_numerator(real, shifted, J)
            identities += 1
            singular = list(mu)
            singular[J[0]] = 0
            assert not dirac_induction(real, J, tuple(singular))
    real = build_realization(matrices["affine_a1"])
    box_weights = []
    for a in range(-6, 6):
        for b in range(5):
            if a + b != 0 and len(box_weights) < 50:
                box_weights.append((a, b, 0))
    assert len(box_weights) == 50
    for mu in box_weights:
        assert ambient_dominance_test(real, (1,), mu) == ambient_dominance_oracle(
            real, (1,), mu
        )
    print(PASS.format(7, f"{identities} character identities + 50 dominance cases"))


def test_acceptance_8_orbit_support(matrices):
    A = matrices["affine_a1"]
    real = build_realization(A)
    group = weyl_group(A)
    ball = group.ball(6)
    checked = 0
    for a in range(2):
        for b in range(2):
            for d in range(-1, 2):
                mu = (a, b, d)
                lam = tuple(x + y for x, y in zip(mu, real.rho()))
                char = weyl_numerator(real, lam, length_bound=6)
                assert char.support() == {real.act(w.word, lam) for w in ball}
                assert set(char.terms.values()) <= {1, -1}
                assert len(char) == len(ball)
                checked += 1
    print(PASS.format(8, f"truncated alternating sums supported on ball orbits ({checked} weights)"))


def test_acceptance_9_derived_functor_oracles(matrices):
    cases = [
        ("affine_a1", 6, Box(2, 1)),
        ("hyper_rank2", 6, Box(2, 0)),
        ("hyper_rank3", 5, Box(1, 0)),
    ]
    for name, L, box in cases:
        A = matrices[name]
        n = A.size - 1
        full = tuple(range(A.size))
        for K in all_subsets(A.size):
            lim = derived_limit_oracle(A, strata_limit_functor(A, K, L, box), "limit")
            col = derived_limit_oracle(
                A, strata_colimit_functor(A, K, L, box), "colimit"
            )
            expected_lim = [0] * (n + 1)
            expected_col = [0] * (n + 1)
            if K == ():
                expected_lim[n] = len(stratum_basis(A, K, box))
                expected_col[0] = expected_lim[n]
            elif K == full:
                expected_lim[0] = len(stratum_basis(A, K, box))
                expected_col[n] = expected_lim[0]
            assert [lim.free_rank(p) for p in range(n + 1)] == expected_lim
            assert [col.free_rank(p) for p in range(n + 1)] == expected_col
        box2 = Box(2, 1)
        ktheory = compact_type_report(A, box2)
        homology = k_homology_report(A, box2)
        top = next(s for s in ktheory.summands if s.degree == ktheory.top_degree)
        reduced = next(
            s for s in homology.summands if s.degree == -homology.torus_rank
        )
        assert top.basis.weights == reduced.basis.weights
    print(PASS.format(9, "derived limit/colimit oracles match closed forms, all strata"))


def test_acceptance_10_splitting_roundtrips(matrices):
    samples = []
    for b in range(5):
        for a in (-b, -b + 1, -b + 2):
            samples.append(("affine_a1", (1,), (a, b, 0)))
    for a in range(2):
        samples.append(("affine_a1", (0,), (a, 1, 1)))
    for values in [(0, 0, 0, 0), (1, 0, 0, 0), (0, 2, 0, 0), (1, 1, 0, -1),
                   (2, 0, 0, 1), (0, 1, 0, 2), (1, 2, 0, 0), (2, 2, 0, -2)]:
        samples.append(("affine_a2", (0, 1), values))
    samples = samples[:25]
    assert len(samples) == 25
    for name, J, mu in samples:
        A = matrices[name]
        real = build_realization(A)
        shifted = tuple(a + b for a, b in zip(mu, real.partial_rho(J)))
        assert real.affine_level(shifted) > 0  # reductions certified to finish
        record = splitting_maps(A, J, mu)
        # Weyl's formula by exact division, independent of Freudenthal's recursion
        assert record.roundtrip == exact_divide(weyl_numerator(real, shifted, J),
                                                weyl_denominator(real, J))
    print(PASS.format(10, "25 split/retract roundtrips reproduce their classes"))


def test_acceptance_11_e10_smoke(matrices):
    A = matrices["e10"]
    cls = classify_type(A)
    assert cls.extended_compact is not None
    i0, j0 = cls.extended_compact
    assert len(i0) == 9 and len(j0) == 1
    assert classify_type(A.submatrix(i0)).kind == AFFINE
    box = Box(1, 0)
    report = extended_type_report(A, 4, box)
    assert report.top_degree == 8 and report.torus_rank == 10
    zero_subsets = {s.subset for s in report.summands if s.degree == 0}
    assert zero_subsets == {tuple(range(10))}
    group = weyl_group(A)
    total = 0
    for s in report.summands:
        if s.degree != 8:
            continue
        assert s.index_words
        maximal = set(s.index_words)
        pure = {w.word for w in group.pure_reps(s.subset, i0, 4)}
        assert maximal <= pure
        total += s.index_size
    assert total > 0
    print(PASS.format(11, f"E10 classified; report complete at L=4 with {total} top-degree generators"))
