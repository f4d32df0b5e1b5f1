import weakref
from itertools import combinations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dominantk import davis
from dominantk.data import load
from dominantk.errors import ResourceExceededError, WrongTypeError
from dominantk.coxeter import CoxeterElement, WeylGroup, weyl_group
from dominantk.davis import (
    EMPTY,
    FULL,
    SILENT,
    SimplicialComplexDesc,
    cochain_cohomology,
    davis_truncation,
    hat_sector_cohomology,
    nerve_complex,
    sector_filtration_cohomology,
    snf_cohomology,
    _building_data,
    _chains,
    _complex_from_cells,
    _levels,
    _two_degree_cohomology,
)
from dominantk.gcm import classify_type, spherical_poset
from test_intlinalg import kernel_basis, smith_invariants_reference
from test_coxeter import (
    _all_subsets,
    reference_double_coset_intersection,
    reference_pure_for_proper_superset,
)


# -- nerves ---------------------------------------------------------------------


def test_nerve_affine_a1(matrices):
    complex_ = nerve_complex(spherical_poset(matrices["affine_a1"]))
    assert complex_.f_vector() == (3, 2)


def test_nerve_rank3(matrices):
    complex_ = nerve_complex(spherical_poset(matrices["hyper_rank3"]))
    assert complex_.f_vector() == (7, 12, 6)
    # a disk: contractible with trivial higher cohomology
    coh = snf_cohomology(complex_)
    assert coh.groups == ((1, ()), (0, ()), (0, ()))


def test_nerve_rejects_finite_type(matrices):
    with pytest.raises(WrongTypeError):
        nerve_complex(spherical_poset(matrices["a2"]))


# -- SNF oracle on seeded complexes ------------------------------------------------


def test_interval_rel_endpoints():
    interval = _complex_from_cells([("a", "b"), ("b", "c")])
    endpoints = _complex_from_cells([("a",), ("c",)])
    coh = snf_cohomology(interval, endpoints)
    assert coh.groups == ((0, ()), (1, ()))


def test_disk_rel_boundary():
    # two triangles glued along a diagonal, relative to the outer square
    disk = _complex_from_cells([(1, 2, 3), (1, 3, 4)])
    boundary = _complex_from_cells([(1, 2), (2, 3), (3, 4), (1, 4)])
    coh = snf_cohomology(disk, boundary)
    assert coh.groups == ((0, ()), (0, ()), (1, ()))


def test_projective_plane_torsion():
    # 6-vertex triangulation (antipodal icosahedron quotient): Z/2 in degree 2
    rp2 = _complex_from_cells(
        [
            (1, 2, 6), (2, 3, 4), (1, 3, 4), (1, 2, 5), (2, 3, 5),
            (1, 3, 6), (2, 4, 6), (1, 4, 5), (3, 5, 6), (4, 5, 6),
        ]
    )
    coh = snf_cohomology(rp2)
    assert coh.groups == ((1, ()), (0, ()), (0, (2,)))


class Rows(list):
    """A coboundary's rows, in a list that a weak reference can watch."""


def lazy_maps(maps, calls):
    """``coboundary(p, skip)`` over dense matrices ``maps[p]`` that records
    each call as (p, skip) and checks that no map it returned before is alive."""
    alive = []

    def coboundary(p, skip):
        assert all(ref() is None for ref in alive), "an earlier coboundary is still held"
        calls.append((p, set(skip)))
        rows = Rows({j: v for j, v in enumerate(row) if v}
                    for i, row in enumerate(maps[p]) if i not in skip)
        alive.append(weakref.ref(rows))
        return rows

    return coboundary


def test_cochain_cohomology_torsion_and_lazy_coboundaries():
    # Z --x(2, 2)--> Z^2 --(a - b)--> Z: the diagonal mod twice itself is
    # Z/2 in degree 1, and a - b is onto
    calls = []
    coh = cochain_cohomology([1, 2, 1], lazy_maps([[[2], [2]], [[1, -1]]], calls))
    assert coh.groups == ((0, ()), (0, (2,)), (0, ()))
    # once per degree from the top down; a - b pivots on a, so the row of
    # a in d^0 is never built
    assert calls == [(1, set()), (0, {0})]
    # a zero coboundary, and a complex in one degree
    assert cochain_cohomology([2, 3], lazy_maps([[[0, 0]] * 3], [])).groups == (
        (2, ()), (3, ()))
    assert cochain_cohomology([4], lazy_maps([], [])).groups == ((4, ()),)


def test_coboundaries_skip_rows_below_the_top_on_ext4(matrices, monkeypatch):
    """The truncation's coboundaries are asked for from the top down, and
    the lower one leaves out the rows that the top one pivoted on."""
    complex_, frontier = davis_truncation(matrices["ext4"], (3,), 6)
    calls, cohomology = [], davis.cochain_cohomology

    def recording(sizes, coboundary):
        def recorded(p, skip):
            calls.append((p, len(skip)))
            return coboundary(p, skip)
        return cohomology(sizes, recorded)

    monkeypatch.setattr(davis, "cochain_cohomology", recording)
    snf_cohomology(complex_, frontier)
    assert [p for p, _ in calls] == [1, 0] and calls[0][1] == 0 < calls[1][1]


@st.composite
def two_map_complexes(draw):
    """(d^0, d^1) with d^1·d^0 = 0: d^1 random, and d^0 a kernel basis of d^1
    times a random integer matrix, so that d^0 may have torsion."""
    n0, n1, n2 = (draw(st.integers(1, 5)) for _ in range(3))
    entries = st.integers(-2, 2)
    d1 = draw(st.lists(st.lists(entries, min_size=n1, max_size=n1), min_size=n2, max_size=n2))
    kernel = kernel_basis(d1, n1)
    mix = draw(st.lists(st.lists(st.integers(-3, 3), min_size=n0, max_size=n0),
                        min_size=len(kernel), max_size=len(kernel)))
    d0 = [[sum(v[i] * m[j] for v, m in zip(kernel, mix)) for j in range(n0)]
          for i in range(n1)]
    return (n0, n1, n2), d0, d1


@settings(max_examples=200, deadline=None)
@given(two_map_complexes())
@example(((1, 2, 1), [[2], [2]], [[1, -1]]))  # Z/2 in degree 1
def test_cochain_cohomology_drops_rows_soundly(complex_):
    """Leaving out the rows that d^1 pivots on keeps the groups that the
    reference gives on the full maps."""
    sizes, d0, d1 = complex_
    into = [[], smith_invariants_reference(d0), smith_invariants_reference(d1), []]
    expected = tuple((size - len(into[p]) - len(into[p + 1]), tuple(d for d in into[p] if d > 1))
                     for p, size in enumerate(sizes))
    assert cochain_cohomology(sizes, lazy_maps([d0, d1], [])).groups == expected


@pytest.mark.parametrize("relative_to", [
    SimplicialComplexDesc((((9,),),)),  # not a vertex of the triangle
    SimplicialComplexDesc((((1,), (2,)), ((2, 1),))),  # an edge in the wrong order
    SimplicialComplexDesc(((), ((1, 2),))),  # an edge without its vertices
], ids=["foreign-vertex", "misordered-edge", "edge-without-vertices"])
def test_snf_cohomology_refuses_a_relative_complex_that_is_no_subcomplex(relative_to):
    triangle = _complex_from_cells([(1, 2, 3)])
    with pytest.raises(ValueError):
        snf_cohomology(triangle, relative_to)


def test_two_degree_cohomology():
    assert _two_degree_cohomology(2, 1, 4).groups == ((1, ()), (0, ()), (4, ()))
    # a top degree of 0 adds both ranks in degree 0
    assert _two_degree_cohomology(0, 1, 2).groups == ((3, ()),)


# -- truncations --------------------------------------------------------------------


def test_truncation_affine_a1(matrices):
    A = matrices["affine_a1"]
    complex_, frontier = davis_truncation(A, (), 3)
    # 2L+1 chambers, each a path of two edges
    assert complex_.f_vector() == (15, 14)
    assert frontier.f_vector() == (2,)
    coh = snf_cohomology(complex_, frontier)
    assert coh.groups == ((0, ()), (1, ()))


def test_truncation_full_quotient(matrices):
    A = matrices["affine_a1"]
    complex_, frontier = davis_truncation(A, (0, 1), 4)
    assert complex_.f_vector() == (3, 2)  # a single chamber
    assert frontier.f_vector() == (0,)
    assert snf_cohomology(complex_, frontier).groups == ((1, ()), (0, ()))


def test_truncation_chamber_census(matrices):
    A = matrices["hyper_rank3"]
    group = weyl_group(A)
    complex_, _ = davis_truncation(A, (), 2)
    chambers = {
        cell for cell in complex_.simplices[2]
    }
    # every group element of length <= 2 contributes its own 6 triangles
    assert len(chambers) == 6 * len(group.ball(2))


def reference_davis_truncation(A, K, L):
    """The truncation by the route the orbit points replaced: the vertex
    w W_T of member m labelled (word of rstrip(w, T), m), read for every
    (chamber, member) pair, with the frontier decided at the first chamber
    whose vertex it is."""
    members, _, j0 = _building_data(A)
    group = weyl_group(A)
    K = tuple(sorted(set(K)))
    glued = {m: tuple(sorted(set(m) | set(j0))) for m in members}
    vertices, meets_long = [], {}
    for w in group.min_coset_reps(K, j0, L):
        chamber = {}
        for m in members:
            base = group.rstrip(w, glued[m])
            vertex = chamber[m] = (base.word, m)
            if vertex not in meets_long:
                meet = group.double_coset_intersection(base, glued[m], K)
                far = group.double_strip(group.longest(glued[m]), meet, j0)
                meets_long[vertex] = base.length + far.length > L
        vertices.append(chamber)
    simplices = tuple(
        tuple(dict.fromkeys(tuple(chamber[m] for m in chain)
                            for chamber in vertices for chain in level))
        for level in _levels(_chains(members))
    )
    frontier = _levels(cell for level in simplices for cell in level if meets_long[cell[0]])
    return SimplicialComplexDesc(simplices), SimplicialComplexDesc(frontier)


def relabelled_reference(A, K, L):
    """``reference_davis_truncation`` with its vertices numbered by first
    appearance, and the (word, m) label of each number."""
    complex_, frontier = reference_davis_truncation(A, K, L)
    number = {}
    for level in complex_.simplices:
        for cell in level:
            for vertex in cell:
                number.setdefault(vertex, len(number))

    def relabel(desc):
        return SimplicialComplexDesc(tuple(tuple(tuple(number[v] for v in cell) for cell in level)
                                           for level in desc.simplices))

    return relabel(complex_), relabel(frontier), list(number)


@pytest.mark.parametrize("name,bound", [
    ("affine_a1", 8), ("affine_a2", 5), ("hyper_rank2", 6), ("hyper_rank3", 6), ("ext4", 6),
])
def test_truncation_matches_coset_word_reference(matrices, name, bound):
    """Vertices named by the points w(lambda_T) and numbered as first met give
    the complex and frontier of the (word, member) route cell for cell, in
    order, for every K and L <= bound (J0 nonempty on ext4)."""
    A = matrices[name]
    for K in _all_subsets(A.size):
        for L in range(bound + 1):
            complex_, frontier, _ = relabelled_reference(A, K, L)
            assert davis_truncation(A, K, L) == (complex_, frontier)


def test_truncation_reads_no_word_or_root_image(monkeypatch):
    """A K = () truncation reflects each chamber's points from its suffix's:
    it reads no word, and no chamber but the identity gets its root images."""
    def refuse(self):
        raise AssertionError("the truncation read a word")

    A = load("hyper_rank3")  # a group of its own, which no other test has read
    with monkeypatch.context() as patch:
        patch.setattr(CoxeterElement, "word", property(refuse))
        davis_truncation(A, (), 6)
    chambers = weyl_group(A).min_coset_reps((), (), 6)
    assert len(chambers) > 1
    assert all(w.roots is None for w in chambers if w.length)


def test_truncation_refuses_past_the_chain_cap_before_any_work(matrices, monkeypatch):
    """E9's chains are counted, not listed, and refused before a chamber is
    walked; the nerve of its spherical poset too."""
    def unreachable(*args):
        raise AssertionError("reached past the chain count")

    monkeypatch.setattr(davis, "_chains", unreachable)
    monkeypatch.setattr(WeylGroup, "min_coset_reps", unreachable)
    for build in (lambda A: davis_truncation(A, (), 6), lambda A: nerve_complex(spherical_poset(A))):
        with pytest.raises(ResourceExceededError) as exc:
            build(matrices["e9"])
        assert "14174521" in str(exc.value) and str(davis.CHAIN_CAP) in str(exc.value)


def reference_cell_meets_long_chamber(group, base, glue_subset, j0, kmask, L) -> bool:
    """The loop the frontier test replaced: some base x, x in W_T, strips to
    a K-left-minimal chamber longer than L."""
    for x in group.subgroup_elements(glue_subset):
        v = group.rstrip(group.multiply(base, x), j0)
        if v.length > L and not v.left & kmask:
            return True
    return False


@pytest.mark.parametrize("name,bound", [
    ("affine_a1", 8), ("affine_a2", 5), ("hyper_rank3", 6), ("ext4", 6),
])
def test_frontier_matches_parabolic_loop_reference(matrices, name, bound):
    """The frontier read from the projection of w_T is the one the loop over
    W_T finds, for every K and L <= bound (J0 nonempty on ext4); a vertex's
    (word, m) is read through the reference's numbering."""
    A = matrices[name]
    group = weyl_group(A)
    cls = classify_type(A)
    j0 = cls.extended_compact[1] if cls.extended_compact else ()
    for K in _all_subsets(A.size):
        kmask = group.subset_mask(K)
        for L in range(bound + 1):
            complex_, frontier = davis_truncation(A, K, L)
            labels = relabelled_reference(A, K, L)[2]
            meets = {}
            for level in complex_.simplices:
                for vertex in (cell[0] for cell in level):
                    if vertex not in meets:
                        word, m = labels[vertex]
                        meets[vertex] = reference_cell_meets_long_chamber(
                            group, group.element(word), tuple(sorted(set(m) | set(j0))),
                            j0, kmask, L)
            expected = {cell for level in complex_.simplices for cell in level
                        if meets[cell[0]]}
            assert {cell for level in frontier.simplices for cell in level} == expected


def closed_under_faces(cells) -> bool:
    return all(cell[:k] + cell[k + 1:] in cells
               for cell in cells if len(cell) > 1 for k in range(len(cell)))


@pytest.mark.parametrize("name", ["affine_a1", "hyper_rank3", "ext4"])
def test_chain_cells_are_closed_under_faces(matrices, name):
    """Nerves and truncations take their chains as cells without re-closing:
    every face of a cell is a cell, and every face of a frontier cell is a
    frontier cell."""
    A = matrices[name]
    assert closed_under_faces({c for level in nerve_complex(spherical_poset(A)).simplices
                               for c in level})
    for size in range(A.size):
        for K in combinations(range(A.size), size):
            for L in (2, 4):
                complex_, frontier = davis_truncation(A, K, L)
                cells = {c for level in complex_.simplices for c in level}
                frontier_cells = {c for level in frontier.simplices for c in level}
                assert sum(complex_.f_vector()) == len(cells)
                assert closed_under_faces(cells)
                assert frontier_cells <= cells
                assert closed_under_faces(frontier_cells)


def test_truncation_stabilizes_to_sector_answer(matrices):
    for name in ("affine_a1", "hyper_rank2"):
        A = matrices[name]
        for K in [(), (0,), (1,)]:
            scan = sector_filtration_cohomology(A, K, 8).cohomology()
            prev = None
            for L in (2, 4, 6, 8):
                cx, fr = davis_truncation(A, K, L)
                coh = snf_cohomology(cx, fr)
                if prev is not None and prev == coh.groups:
                    break
                prev = coh.groups
            assert prev == scan.groups


def test_large_truncation_equals_sector_scan(matrices):
    A = matrices["hyper_rank3"]
    cx, fr = davis_truncation(A, (), 10)
    scan = sector_filtration_cohomology(A, (), 10).cohomology()
    assert snf_cohomology(cx, fr).groups == scan.groups


# -- sector scans ---------------------------------------------------------------------


def test_sector_affine_a1(matrices):
    A = matrices["affine_a1"]
    report = sector_filtration_cohomology(A, (), 6)
    assert [s.verdict for s in report.steps] == [FULL]
    assert report.degree_n_generators[0].word == ()
    assert report.cohomology().groups == ((0, ()), (1, ()))
    report = sector_filtration_cohomology(A, (0,), 6)
    assert report.cohomology().groups == ((0, ()), (0, ()))
    assert not report.compact
    report = sector_filtration_cohomology(A, (0, 1), 6)
    assert report.compact
    assert report.cohomology().groups == ((1, ()), (0, ()))


def test_sector_rank3_all_strata(matrices):
    A = matrices["hyper_rank3"]
    n = 2
    for size in range(4):
        for K in combinations(range(3), size):
            coh = sector_filtration_cohomology(A, K, 6).cohomology()
            if K == ():
                assert coh.groups[n] == (1, ())
                assert coh.groups[0] == (0, ())
            elif len(K) == 3:
                assert coh.groups[0] == (1, ())
            else:
                assert all(g == (0, ()) for g in coh.groups)


def test_sector_rejects_noncompact(matrices):
    with pytest.raises(WrongTypeError):
        sector_filtration_cohomology(matrices["a2"], (), 4)


def test_sector_full_steps_are_maximally_pure(matrices):
    A = matrices["ext4"]
    group = weyl_group(A)
    for size in range(5):
        for K in combinations(range(4), size):
            report = sector_filtration_cohomology(A, K, 6)
            expected = group.pure_reps(K, (0, 1, 2), 6, maximal=True)
            assert set(report.degree_n_generators) == set(expected)


def reference_scan_steps(A, K, L):
    """(word, continuation, verdict) of each scan step by the route the
    continuation mask replaced: a normal form of w r_j for every ascent j,
    and the root-support purity tests."""
    cls = classify_type(A)
    i0 = cls.extended_compact[0] if cls.extended_compact else A.index_set
    group = weyl_group(A)
    kmask = group.subset_mask(K)
    steps = []
    for w in group.min_coset_reps(K, i0, L):
        continuation = tuple(
            j for j in range(A.size)
            if not group.right(w) >> j & 1 and not group.rmul_gen(w, j).left & kmask
        )
        if not continuation:
            verdict = EMPTY
        elif not reference_double_coset_intersection(group, w, i0, K) and not (
            reference_pure_for_proper_superset(group, w, K, i0)
        ):
            verdict = FULL
        else:
            verdict = SILENT
        steps.append((w.word, continuation, verdict))
        if verdict == EMPTY:
            break
    return steps


@pytest.mark.parametrize("name,bound", [
    ("affine_a1", 6), ("affine_a2", 6), ("hyper_rank3", 6), ("ext4", 6), ("e10", 3)])
def test_sector_steps_match_reference_scan(matrices, name, bound):
    """Continuations and verdicts read from the mask equal the per-ascent
    normal forms and support tests, for every K."""
    A = matrices[name]
    for size in range(A.size + 1):
        for K in combinations(range(A.size), size):
            report = sector_filtration_cohomology(A, K, bound)
            steps = [(s.element.word, s.continuation, s.verdict) for s in report.steps]
            assert steps == reference_scan_steps(A, K, bound)


# -- descent subcomplexes ----------------------------------------------------------------


def point_cohomology(groups):
    return groups[0] == (1, ()) and all(g == (0, ()) for g in groups[1:])


@pytest.mark.parametrize("name", ["affine_a1", "hyper_rank3"])
def test_descent_subcomplexes_contractible(matrices, name):
    """The nerve of the spherical subsets meeting the descent set of any
    nonidentity element has the cohomology of a point."""
    A = matrices[name]
    poset = spherical_poset(A)
    group = weyl_group(A)
    seen = set()
    for w in group.ball(5):
        if w.length == 0:
            continue
        descents = {j for j in range(A.size) if group.right(w) >> j & 1}
        key = frozenset(descents)
        if key in seen:
            continue
        seen.add(key)
        members = [m for m in poset.members if set(m) & descents]
        sub = _complex_from_cells(_chains(members))
        assert point_cohomology(snf_cohomology(sub).groups)


# -- induced complexes --------------------------------------------------------------------


def test_hat_sector_full_stabilizer(matrices):
    A = matrices["ext4"]
    report = hat_sector_cohomology(A, (0, 1, 2, 3), 6)
    assert [w.word for w in report.degree_zero] == [()]
    assert report.degree_n == ()
    assert report.cohomology().groups[0] == (1, ())


def test_hat_sector_trivial_group(matrices):
    A = matrices["ext4"]
    group = weyl_group(A)
    report = hat_sector_cohomology(A, (), 5)
    assert report.degree_zero == ()
    assert set(report.degree_n) == set(group.min_coset_reps((), (0, 1, 2), 5))


def test_hat_sector_matches_orbit_decomposition(matrices):
    """Ranks agree with the brute-force orbit decomposition of the coset
    space under the core subgroup: a representative contributes to the top
    degree iff its conjugated parabolic meets W_K trivially, and to degree
    zero iff the whole core is absorbed."""
    A = matrices["ext4"]
    group = weyl_group(A)
    i0 = (0, 1, 2)
    for K in [(3,), (0, 3), (0, 1, 2)]:
        report = hat_sector_cohomology(A, K, 5)
        deg_n, deg_0 = [], []
        core_elements = {
            u
            for pair in combinations(i0, 2)
            for u in group.subgroup_elements(pair)
        }
        for w in group.min_coset_reps(K, i0, 5):
            winv = group.inverse(w)
            meet = set()
            for u in core_elements:
                if u.length and set(
                    group.multiply(group.multiply(w, u), winv).word
                ) <= set(K):
                    meet.add(u.word)
            if not meet:
                deg_n.append(w)
            # full absorption requires every core generator conjugate into W_K
            if all(
                set(group.multiply(group.multiply(w, group.generator(j)), winv).word)
                <= set(K)
                for j in i0
            ):
                deg_0.append(w)
        assert set(report.degree_n) == set(deg_n)
        assert set(report.degree_zero) == set(deg_0)


def test_no_torsion_in_stabilized_answers(matrices):
    for name, K in [("affine_a1", ()), ("hyper_rank3", ()), ("hyper_rank2", (0,))]:
        A = matrices[name]
        cx, fr = davis_truncation(A, K, 6)
        coh = snf_cohomology(cx, fr)
        assert all(not g[1] for g in coh.groups)


def test_truncation_extended_full_quotient(matrices):
    A = matrices["ext4"]
    complex_, frontier = davis_truncation(A, (0, 1, 2, 3), 6)
    assert complex_.f_vector() == (7, 12, 6)  # one copy of the core nerve
    assert frontier.f_vector() == (0,)
    assert snf_cohomology(complex_, frontier).groups == ((1, ()), (0, ()), (0, ()))


def test_truncation_extended_sector_grows(matrices):
    A = matrices["ext4"]
    cx2, fr2 = davis_truncation(A, (3,), 2)
    cx4, fr4 = davis_truncation(A, (3,), 4)
    assert cx4.f_vector() > cx2.f_vector()
    coh = snf_cohomology(cx4, fr4)
    assert coh.groups[1] == (0, ())  # nothing in intermediate degrees
    assert not any(g[1] for g in coh.groups)


def test_nerve_resource_guard(matrices):
    from dominantk.errors import ResourceExceededError
    from dominantk.gcm import spherical_poset as sp

    with pytest.raises(ResourceExceededError):
        nerve_complex(sp(matrices["e10"]))
