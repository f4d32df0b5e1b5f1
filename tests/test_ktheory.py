import random
import time
from itertools import combinations

import pytest

from dominantk.data import load
from dominantk import ktheory
from dominantk.errors import (
    ConeReductionFailedError,
    FunctorialityError,
    HypothesisViolatedError,
    ResourceExceededError,
    WrongTypeError,
)
from dominantk.characters import (
    dirac_induction,
    exact_divide,
    weyl_denominator,
    weyl_numerator,
)
from dominantk.coxeter import WeylGroup, weyl_group
from dominantk.davis import (
    IntegerCohomology,
    _chains,
    _levels,
    cochain_cohomology,
    davis_truncation,
    hat_sector_cohomology,
    sector_filtration_cohomology,
)
from dominantk.gcm import classify_type, gcm_from_rows, spherical_poset
from dominantk.ktheory import (
    EXTENDED_COHOMOLOGY,
    Box,
    FunctorOnPoset,
    KTheoryReport,
    Summand,
    _nonfinite_nodes,
    compact_type_report,
    derived_limit_oracle,
    extended_type_report,
    k_homology_report,
    splitting_maps,
    st_r_image_predicates,
    strata_colimit_functor,
    strata_limit_functor,
    stratum_basis,
)
from dominantk.weights import Realization, build_realization
from test_coxeter import reference_min_coset_reps


def all_subsets(n):
    for size in range(n + 1):
        yield from combinations(range(n), size)


# -- strata ------------------------------------------------------------------------


def test_stratum_basis_origin_only(matrices):
    basis = stratum_basis(matrices["hyper_rank2"], (0, 1), Box(3, 0))
    assert basis.weights == ((0, 0),)


def test_stratum_basis_affine_line(matrices):
    basis = stratum_basis(matrices["affine_a1"], (0, 1), Box(3, 2))
    assert len(basis) == 5
    assert all(w[:2] == (0, 0) for w in basis.weights)


def test_stratum_basis_regular(matrices):
    real = build_realization(matrices["affine_a1"])
    basis = stratum_basis(matrices["affine_a1"], (), Box(2, 1))
    assert all(real.stratum(w) == () for w in basis.weights)
    assert len(basis) == 2 * 2 * 3


def test_strata_partition_dominant_box(matrices):
    real = build_realization(matrices["hyper_rank3"])
    box = Box(2, 0)
    seen = set()
    for K in all_subsets(3):
        for w in stratum_basis(matrices["hyper_rank3"], K, box).weights:
            assert w not in seen
            seen.add(w)
    dominant = {
        w
        for w in (
            (a, b, c)
            for a in range(3)
            for b in range(3)
            for c in range(3)
        )
    }
    assert seen == dominant


# -- closed-form reports --------------------------------------------------------------


def test_compact_report_affine_a1(matrices):
    box = Box(2, 1)
    report = compact_type_report(matrices["affine_a1"], box)
    assert report.top_degree == 1 and report.torus_rank == 3
    assert report.rank_in_degree(1, ()) == len(
        stratum_basis(matrices["affine_a1"], (), box)
    )
    assert report.rank_in_degree(0, (0, 1)) == len(
        stratum_basis(matrices["affine_a1"], (0, 1), box)
    )
    degrees = {s.degree for s in report.summands}
    assert degrees == {0, 1}


def test_compact_report_hyper_rank2(matrices):
    box = Box(2, 0)
    report = compact_type_report(matrices["hyper_rank2"], box)
    assert report.rank_in_degree(0) == 1  # just the origin
    assert report.rank_in_degree(1) == 4


def test_compact_report_rank3_top_degree(matrices):
    report = compact_type_report(matrices["hyper_rank3"], Box(1, 0))
    assert report.top_degree == 2
    assert report.rank_in_degree(2, ()) == 1


def test_compact_report_rejects_wrong_type(matrices):
    with pytest.raises(WrongTypeError):
        compact_type_report(matrices["a2"], Box(1, 0))
    with pytest.raises(WrongTypeError):
        compact_type_report(matrices["ext4"], Box(1, 0))


def test_homology_report_degrees(matrices):
    box = Box(2, 1)
    report = k_homology_report(matrices["affine_a1"], box)
    assert report.torus_rank == 3
    assert {s.degree for s in report.summands} == {-3, -2}
    assert report.rank_in_degree(-3, ()) == len(
        stratum_basis(matrices["affine_a1"], (), box)
    )
    report2 = k_homology_report(matrices["hyper_rank2"], Box(2, 0))
    assert {s.degree for s in report2.summands} == {-2, -1}


def test_duality_shadow(matrices):
    """Reduced homology and cohomology share the identical regular-stratum
    basis, placed at degrees -r and n."""
    for name in ("affine_a1", "hyper_rank2", "hyper_rank3"):
        box = Box(2, 1)
        ktheory = compact_type_report(matrices[name], box)
        homology = k_homology_report(matrices[name], box)
        top = next(s for s in ktheory.summands if s.degree == ktheory.top_degree)
        reduced = next(
            s for s in homology.summands if s.degree == -homology.torus_rank
        )
        assert top.basis.weights == reduced.basis.weights
        assert top.subset == reduced.subset == ()


# -- extended reports ------------------------------------------------------------------


def test_extended_report_matches_sector_tallies(matrices):
    A = matrices["ext4"]
    L = 6
    box = Box(1, 1)
    report = extended_type_report(A, L, box)
    assert report.top_degree == 2
    for K in all_subsets(4):
        scan = sector_filtration_cohomology(A, K, L)
        expected = len(scan.degree_n_generators) * len(stratum_basis(A, K, box))
        assert report.rank_in_degree(2, K) == expected


def test_extended_report_degree_zero(matrices):
    report = extended_type_report(matrices["ext4"], 4, Box(1, 1))
    zero_subsets = {s.subset for s in report.summands if s.degree == 0}
    assert zero_subsets == {(0, 1, 2, 3)}


def reference_extended_type_report(A, L, box):
    """The extended report one subset K at a time, all 2^n of them in mask
    order: a (K, I0) representative is maximally pure when its continuation
    mask is I0 itself, and degree 0 takes each K of finite index."""
    i0, _ = classify_type(A).extended_compact
    group, n = weyl_group(A), len(i0) - 1
    i0mask = group.subset_mask(i0)
    subsets = [tuple(i for i in range(A.size) if bits >> i & 1) for bits in range(1 << A.size)]
    summands = [Summand(0, K, None, stratum_basis(A, K, box))
                for K in subsets if finite_index(A, K)]
    for K in subsets:
        kmask = group.subset_mask(K)
        words = tuple(w.word for w in group.min_coset_reps(K, i0, L)
                      if group.continuation_mask(w, kmask) == i0mask)
        if words:
            summands.append(Summand(n, K, words, stratum_basis(A, K, box)))
    return KTheoryReport(EXTENDED_COHOMOLOGY, n, build_realization(A).rank, L, box,
                         tuple(summands))


def relabel(A, seed):
    """A with its nodes shuffled by ``random.Random(seed)``."""
    perm = list(range(A.size))
    random.Random(seed).shuffle(perm)
    rows = [[0] * A.size for _ in range(A.size)]
    for i, row in enumerate(A.entries):
        for j, x in enumerate(row):
            rows[perm[i]][perm[j]] = x
    return gcm_from_rows(rows)


#: affine A2 on 2, 3, 4 with the tail 0 - 1 - 2: I0 = (2, 3, 4) and J0 = (0, 1),
#: so W^{I0} has right ascents outside I0 whose root images are not simple
TAILED_AFFINE_A2 = ((2, -1, 0, 0, 0), (-1, 2, -1, 0, 0), (0, -1, 2, -1, -1),
                    (0, 0, -1, 2, -1), (0, 0, -1, -1, 2))


@pytest.mark.parametrize("seed", [None, 1, 2, 3, 4])
@pytest.mark.parametrize("name,top", [("e10", 7), ("ext4", 10), ("tailed_affine_a2", 8)])
def test_extended_report_matches_per_subset_reference(matrices, name, top, seed):
    """Summand order, index words and bases equal the 2^n-subset loop's, on
    the bundled node order and on shuffled ones."""
    A = matrices[name] if name in matrices else gcm_from_rows(TAILED_AFFINE_A2)
    A = A if seed is None else relabel(A, seed)
    for L in range(top + 1):
        for box in (Box(1, 0), Box(1, 1)):
            assert extended_type_report(A, L, box) == reference_extended_type_report(A, L, box)


def test_purity_need_never_meets_forbid(matrices):
    """w(alpha_j) = alpha_k for a right ascent j makes k a left ascent, and
    distinct roots have distinct images, so a w of W^{I0} is maximally pure
    for some K exactly when its need is not -1.  The tailed matrix has
    elements with need -1."""
    for A in (matrices["e10"], matrices["ext4"], gcm_from_rows(TAILED_AFFINE_A2)):
        group, (i0, _) = weyl_group(A), classify_type(A).extended_compact
        i0mask = group.subset_mask(i0)
        pairs = [group._purity(w, i0mask) for w in group.min_coset_reps((), i0, 7)]
        assert all(need < 0 or not need & forbid for need, forbid in pairs)
    assert any(need < 0 for need, _ in pairs)  # the tailed matrix's


def test_extended_report_reads_each_representative_once(monkeypatch):
    """On E10 at L = 7 the report reads one (need, forbid) pair per element
    of W^{I0} and filters no coset per subset K."""
    calls = dict.fromkeys(("_purity", "pure_reps", "continuation_mask"), 0)
    for name in calls:
        def counted(self, *args, _name=name, _method=getattr(WeylGroup, name)):
            calls[_name] += 1
            return _method(self, *args)
        monkeypatch.setattr(WeylGroup, name, counted)
    A = load("e10")
    extended_type_report(A, 7, Box(1, 0))
    i0, _ = classify_type(A).extended_compact
    quotient = weyl_group(A).min_coset_reps((), i0, 7)
    assert calls == {"_purity": len(quotient), "pure_reps": 0, "continuation_mask": 0}


def _up_to(report, L):
    """(degree, subset, index words) of a report's summands, keeping the
    index words of length <= L and dropping top-degree summands left empty."""
    out = []
    for s in report.summands:
        words = s.index_words and tuple(w for w in s.index_words if len(w) <= L)
        if words != ():
            out.append((s.degree, s.subset, words))
    return out


def test_e10_at_length_20_walks_only_the_quotient(monkeypatch):
    """With WeylGroup.ball refused past length 0, the E10 extended report
    and the K = () sector scan at L = 20 walk the quotient W^{I0} (68
    elements) and finish in under 5 s each.  Maximal purity is a property of
    the element, so both restrict to what the ball-filter route gives at a
    shorter length: checked here at L = 7, and at L = 8 and 9 when the
    counts were pinned."""
    ball = WeylGroup.ball

    def refuse(self, L):
        if L > 0:
            raise AssertionError(f"ball({L}) enumerated")
        return ball(self, L)

    monkeypatch.setattr(WeylGroup, "ball", refuse)
    A, box = load("e10"), Box(1, 0)
    start = time.perf_counter()
    report = extended_type_report(A, 20, box)
    assert time.perf_counter() - start < 5
    start = time.perf_counter()
    scan = sector_filtration_cohomology(A, (), 20)
    assert time.perf_counter() - start < 5
    assert (len(report.summands), report.rank_in_degree(8), report.rank_in_degree(0)) == (64, 305, 1)
    assert len(scan.steps) == 68
    assert scan.cohomology().groups[8] == (67, ())
    assert len(weyl_group(A)._quotients[0]) == 1

    monkeypatch.setattr(WeylGroup, "ball", ball)
    monkeypatch.setattr(WeylGroup, "min_coset_reps", reference_min_coset_reps)
    B = load("e10")
    assert _up_to(report, 7) == _up_to(extended_type_report(B, 7, box), 7)
    assert ([(step.element.word, step.verdict) for step in scan.steps if step.element.length <= 7]
            == [(step.element.word, step.verdict)
                for step in sector_filtration_cohomology(B, (), 7).steps])


def test_extended_report_rejects(matrices):
    with pytest.raises(WrongTypeError):
        extended_type_report(matrices["affine_a1"], 4, Box(1, 1))
    # a three-node extended matrix has a two-node core: hypothesis n > 1 fails
    small = gcm_from_rows([[2, -2, 0], [-2, 2, -1], [0, -1, 2]])
    with pytest.raises(HypothesisViolatedError):
        extended_type_report(small, 4, Box(1, 1))


def test_node_subsets_are_checked_where_they_become_masks_or_weights(matrices):
    """An index outside the node set is refused, naming the subset, where
    the subset becomes a descent mask or a weight, not read as absent."""
    a2, affine_a1 = matrices["a2"], matrices["affine_a1"]
    with pytest.raises(IndexError, match=r"\(-1,\)"):
        weyl_group(a2).min_coset_reps((-1,), (), 2)
    with pytest.raises(IndexError, match=r"\(5,\)"):
        davis_truncation(affine_a1, (5,), 2)
    with pytest.raises(IndexError, match=r"\(7,\)"):
        sector_filtration_cohomology(matrices["hyper_rank3"], (7,), 4)
    with pytest.raises(IndexError, match=r"\(9,\)"):
        hat_sector_cohomology(matrices["ext4"], (9,), 3)
    with pytest.raises(IndexError, match=r"\(5,\)"):
        build_realization(affine_a1).partial_rho((5,))
    with pytest.raises(IndexError, match=r"\(5,\)"):
        stratum_basis(affine_a1, (5,), Box(1, 0))


def finite_index(A, K) -> bool:
    """Does W_K have finite index?  K contains every non-finite block."""
    return _nonfinite_nodes(A) <= set(K)


def test_finite_index_rule(matrices):
    A = matrices["ext4"]
    for K in all_subsets(4):
        assert finite_index(A, K) == (K == (0, 1, 2, 3))
    blocks = gcm_from_rows([[2, -2, 0], [-2, 2, 0], [0, 0, 2]])
    assert finite_index(blocks, (0, 1))
    assert finite_index(blocks, (0, 1, 2))
    assert not finite_index(blocks, (0, 2))


# -- image predicates --------------------------------------------------------------------


def test_image_predicates(matrices):
    A = matrices["ext4"]
    rec = st_r_image_predicates(A, (1, 1, 1, 1))
    assert rec.regular_dominant_for_levi and rec.in_image_st and not rec.in_image_of_r
    rec = st_r_image_predicates(A, (1, 1, 1, -2))
    assert rec.regular_dominant_for_levi and rec.in_image_st and rec.in_image_of_r
    rec = st_r_image_predicates(A, (1, 1, 1, 0))
    assert rec.in_image_of_r  # antidominance is a weak inequality
    with pytest.raises(WrongTypeError):
        st_r_image_predicates(matrices["affine_a1"], (1, 1, 0))


def test_image_predicates_undecided_is_not_in_image(matrices):
    A = matrices["ext4"]
    rec = st_r_image_predicates(A, (-1, 0, 0, 0), max_steps=40)
    if rec.reduction_status != "in-cone":
        assert not rec.in_image_st and not rec.in_image_of_r


# -- derived limit oracle -------------------------------------------------------------------


def covers(members):
    """Cover pairs (J, Jp), |Jp| = |J| + 1, of poset members."""
    return [(J, Jp) for J in members for Jp in members
            if len(Jp) == len(J) + 1 and set(J) < set(Jp)]


def constant_functor(A):
    members = spherical_poset(A).members
    basis = {J: ("*",) for J in members}
    transitions = {cover: ({0: 1},) for cover in covers(members)}
    return FunctorOnPoset(members, "contravariant", basis, transitions)


def test_constant_functor_limit(matrices):
    for name in ("affine_a1", "hyper_rank3"):
        coh = derived_limit_oracle(matrices[name], constant_functor(matrices[name]), "limit")
        assert coh.groups[0] == (1, ())
        assert all(g == (0, ()) for g in coh.groups[1:])


def test_functoriality_violation(matrices):
    """With the cover () < (0,) zeroed, the square () < (0,) < (0, 1) and
    () < (1,) < (0, 1) no longer commutes."""
    A = matrices["hyper_rank3"]
    functor = constant_functor(A)
    functor.transitions[((), (0,))] = ({},)  # the zero map
    with pytest.raises(FunctorialityError):
        derived_limit_oracle(A, functor, "limit")


def compose(inner, outer):
    """Row product of two transitions: inner along J < Jp, outer along
    Jp < Jpp, the same for both variances."""
    composed = []
    for row in inner:
        out = {}
        for c, v in row.items():
            for d, x in outer[c].items():
                out[d] = out.get(d, 0) + v * x
        composed.append({d: x for d, x in out.items() if x})
    return tuple(composed)


def strict_inclusions(functor):
    """The transition along every strict inclusion J < Jp, composed from
    covers: first J < J + s, s the least node of Jp - J, then J + s < Jp."""
    table = {}
    for gap in range(1, max(map(len, functor.members)) + 1):
        for J in functor.members:
            for Jp in functor.members:
                if len(Jp) == len(J) + gap and set(J) < set(Jp):
                    s = min(set(Jp) - set(J))
                    first = (J, tuple(sorted(J + (s,))))
                    table[(J, Jp)] = (functor.transitions[first] if gap == 1
                                      else compose(functor.transitions[first],
                                                   table[(first[1], Jp)]))
    return table


def chain_limit_oracle(functor, direction):
    """Derived (co)limit over the nerve of the poset: the p-(co)chains are
    indexed by strict chains J_0 < ... < J_p carrying the value at J_0, and
    dropping J_0 moves coefficients along the transition J_0 < J_1."""
    transitions = strict_inclusions(functor)
    dims = [
        [(chain, k) for chain in level for k in range(len(functor.basis[chain[0]]))]
        for level in _levels(_chains(functor.members))
    ]
    basis_index = {label: i for labels in dims for i, label in enumerate(labels)}

    def faces(p, skip):
        rows = []
        for index, (chain, k) in enumerate(dims[p + 1]):
            if index in skip:
                continue
            row = {basis_index[(chain[1:], c)]: v
                   for c, v in transitions[chain[:2]][k].items()}
            for i in range(1, len(chain)):
                row[basis_index[(chain[:i] + chain[i + 1:], k)]] = (-1) ** i
            rows.append(row)
        return rows

    coh = cochain_cohomology([len(labels) for labels in dims], faces)
    if direction == "limit":
        return coh
    return IntegerCohomology(tuple((free, coh.torsion(p + 1))
                                   for p, (free, _) in enumerate(coh.groups)))


@pytest.mark.parametrize("name,L,box", [
    ("affine_a1", 6, Box(2, 1)),
    ("hyper_rank2", 6, Box(2, 0)),
    ("hyper_rank3", 5, Box(1, 0)),
    ("ext4", 6, Box(1, 0)),
    ("ext4", 4, Box(2, 0)),
    ("ext4", 4, Box(2, 1)),
])
def test_interval_route_matches_chain_route(matrices, name, L, box):
    """The oracle over the intervals [T', T] on the factored functor Z^m ⊗ G
    gives the groups of the oracle over strict chains on the per-tau
    reference functor, both directions and every K: the acceptance-9 cases
    and ext4.  Only the first route scales by m."""
    A = matrices[name]
    for K in all_subsets(A.size):
        for build, reference, direction in (
                (strata_limit_functor, reference_strata_limit_functor, "limit"),
                (strata_colimit_functor, reference_strata_colimit_functor, "colimit")):
            assert (derived_limit_oracle(A, build(A, K, L, box), direction).groups
                    == chain_limit_oracle(reference(A, K, L, box), direction).groups)


def test_oracle_past_the_element_cap_is_refused_before_any_row():
    """The cochain basis, one copy of F(T') per interval [T', T], is counted
    before any face row is built and refused past the group's element cap."""
    A = load("hyper_rank3")  # a fresh matrix, so its group is its own
    functor = strata_limit_functor(A, (), 4, Box(1, 0))
    size = sum(len(functor.basis[Tp]) for T in functor.members
               for Tp in functor.members if set(Tp) <= set(T))
    group = weyl_group(A)
    group.element_cap = size
    assert derived_limit_oracle(A, functor, "limit").free_rank(2) == 1
    group.element_cap = size - 1
    with pytest.MonkeyPatch.context() as patch:
        def refuse(*args):
            raise AssertionError("cochain rows built")

        patch.setattr(ktheory, "cochain_cohomology", refuse)
        with pytest.raises(ResourceExceededError,
                           match=rf"derived limit oracle needs {size} cochain basis elements,"
                                 rf" past the element cap of {size - 1}"):
            derived_limit_oracle(A, functor, "limit")


def test_oracle_torsion_placement(matrices):
    """Z everywhere with both transitions x2: the cokernel Z/2 is degree-1
    torsion of the limit and degree-0 torsion of the colimit.  Z^2 with
    both transitions diag(2, 4) in three copies gives the groups of the
    explicit three-block functor: each divisor three times, in order."""
    A = matrices["affine_a1"]
    members = spherical_poset(A).members
    assert members == ((), (0,), (1,))

    def oracles(basis, diagonal, copies=1):
        transitions = {cover: tuple({k: d} for k, d in enumerate(diagonal))
                       for cover in (((), (0,)), ((), (1,)))}
        return tuple(
            derived_limit_oracle(A, FunctorOnPoset(members, variance, basis, transitions,
                                                   copies), direction).groups
            for variance, direction in (("contravariant", "limit"), ("covariant", "colimit")))

    assert oracles({J: ("*",) for J in members}, (2,)) == (
        ((1, ()), (0, (2,))), ((1, (2,)), (0, ())))
    factored = oracles({J: ("a", "b") for J in members}, (2, 4), copies=3)
    assert factored == oracles({J: tuple(range(6)) for J in members}, (2, 4) * 3)
    assert factored == (((6, ()), (0, (2, 2, 2, 4, 4, 4))),
                        ((6, (2, 2, 2, 4, 4, 4)), (0, ())))


def test_direction_variance_mismatch(matrices):
    A = matrices["affine_a1"]
    functor = constant_functor(A)
    with pytest.raises(FunctorialityError):
        derived_limit_oracle(A, functor, "colimit")


def reference_strata_limit_functor(A, K, L, box):
    """The limit functor built from full W_J-orbits: a representative is kept
    when every element of its orbit strips to length <= L, and its row
    along a cover J < Jp collects the Jp-representatives whose orbit meets it."""
    real = build_realization(A)
    group = weyl_group(A)
    K = tuple(sorted(set(K)))
    taus = real.dominant_box_weights(K, box)
    members = spherical_poset(A).members
    reps = {}
    for J in members:
        subgroup = group.subgroup_elements(J)
        reps[J] = []
        for w in group.min_coset_reps(J, K, L):
            orbit = [group.multiply(u, w) for u in subgroup]
            if all(group.rstrip(uw, K).length <= L for uw in orbit):
                reps[J].append((w, orbit))
    basis = {J: tuple((w.word, tau) for tau in taus for w, _ in reps[J]) for J in members}
    transitions = {}
    for J, Jp in covers(members):
        index = {w.word: i for i, (w, _) in enumerate(reps[J])}
        hits = [[] for _ in reps[J]]
        for c, (_, orbit) in enumerate(reps[Jp]):
            for i in {index[group.double_strip(uw, J, K).word] for uw in orbit}:
                hits[i].append(c)
        width = len(reps[Jp])
        transitions[(J, Jp)] = tuple(
            {t * width + c: 1 for c in hit} for t in range(len(taus)) for hit in hits
        )
    return FunctorOnPoset(members, "contravariant", basis, transitions)


def reference_strata_colimit_functor(A, K, L, box):
    """The colimit functor built from weights: every W^K translate of every
    stratum weight, kept over J when J-regular and J-dominant, and each
    transition dominantizes the weight within Jp."""
    real = build_realization(A)
    group = weyl_group(A)
    K = tuple(sorted(set(K)))
    taus = real.dominant_box_weights(K, box)
    members = spherical_poset(A).members
    cosets = group.min_coset_reps((), K, L)

    all_weights = dict.fromkeys(real.act(w.word, tau) for tau in taus for w in cosets)
    basis = {
        J: tuple(lam for lam in all_weights
                 if real.is_dominant_for(lam, J) and real.is_regular_for(lam, J))
        for J in members
    }

    transitions = {}
    for J, Jp in covers(members):
        index = {lam: i for i, lam in enumerate(basis[Jp])}
        rows = []
        for lam in basis[J]:
            target, sign = real.dominantize(lam, Jp)
            rows.append({index[target]: sign} if real.is_regular_for(target, Jp) else {})
        transitions[(J, Jp)] = tuple(rows)
    return FunctorOnPoset(members, "covariant", basis, transitions)


def expand_copies(A, functor, K, box, label):
    """The per-tau functor that a factored Z^m ⊗ G stands for: block t of the
    basis over J is G's basis labelled by the t-th stratum weight tau, and
    each row of G repeats in every block, shifted to that block's columns."""
    taus = stratum_basis(A, K, box).weights
    assert functor.copies == len(taus)
    basis = {J: tuple(label(w, tau) for tau in taus for w in reps)
             for J, reps in functor.basis.items()}
    transitions = {}
    for (J, Jp), rows in functor.transitions.items():
        width = len(functor.basis[Jp])
        transitions[(J, Jp)] = tuple({t * width + c: v for c, v in row.items()}
                                     for t in range(len(taus)) for row in rows)
    return FunctorOnPoset(functor.members, functor.variance, basis, transitions)


@pytest.mark.parametrize("name,direction", [
    pytest.param(name, direction, id=name if direction == "limit" else f"{name}-colimit")
    for direction in ("limit", "colimit")
    for name in ("affine_a1", "affine_a2", "hyper_rank3", "ext4")
])
def test_limit_functor_matches_orbit_reference(matrices, name, direction):
    """Both functors, built from double-coset representatives with one strip
    per row and expanded from Z^m ⊗ G to m blocks, give the reference
    builders' bases and transitions, every K: the limit functor's window
    read from the projection of w_J against full W_J-orbits, the colimit
    functor's pure representatives against dominantized weights, on every
    cover."""
    build, reference = {
        "limit": (strata_limit_functor, reference_strata_limit_functor),
        "colimit": (strata_colimit_functor, reference_strata_colimit_functor),
    }[direction]
    A = matrices[name]
    real = build_realization(A)
    label = ((lambda w, tau: (w.word, tau)) if direction == "limit"
             else lambda w, tau: real.act(w.word, tau))
    for K in all_subsets(A.size):
        for L in (2, 4, 6):
            for box in (Box(1), Box(2, 0), Box(2, 1)):
                functor = expand_copies(A, build(A, K, L, box), K, box, label)
                expected = reference(A, K, L, box)
                assert functor.basis == expected.basis
                assert functor.transitions == expected.transitions


def test_colimit_functor_neither_dominantizes_nor_filters_weights(matrices, monkeypatch):
    """The colimit functor reads its basis and signs from the group alone."""
    A = matrices["hyper_rank3"]
    expected = reference_strata_colimit_functor(A, (), 4, Box(1, 0))

    def refuse(*args):
        raise AssertionError("weight-level dominance test called")

    for name in ("dominantize", "is_regular_for", "is_dominant_for"):
        monkeypatch.setattr(Realization, name, refuse)
    real = build_realization(A)
    functor = expand_copies(A, strata_colimit_functor(A, (), 4, Box(1, 0)), (), Box(1, 0),
                            lambda w, tau: real.act(w.word, tau))
    assert functor.basis == expected.basis
    assert functor.transitions == expected.transitions


@pytest.mark.parametrize("name,L,box", [
    ("affine_a1", 6, Box(2, 1)),
    ("hyper_rank2", 6, Box(2, 0)),
    ("hyper_rank3", 5, Box(1, 0)),
])
def test_oracles_reproduce_closed_forms(matrices, name, L, box):
    """Both derived functors of the truncated strata reproduce the
    closed-form reports in every stratum and degree."""
    A = matrices[name]
    n = A.size - 1
    full = tuple(range(A.size))
    for K in all_subsets(A.size):
        lim = derived_limit_oracle(A, strata_limit_functor(A, K, L, box), "limit")
        col = derived_limit_oracle(A, strata_colimit_functor(A, K, L, box), "colimit")
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
        assert all(not lim.torsion(p) and not col.torsion(p) for p in range(n + 1))


def assert_limit_matches(A, K, L, box, report):
    """The derived limit of the K-stratum's limit functor has the report's
    rank in every degree and no torsion."""
    lim = derived_limit_oracle(A, strata_limit_functor(A, K, L, box), "limit")
    assert [lim.groups[p] for p in range(len(lim.groups))] == [
        (report.rank_in_degree(p, K), ()) for p in range(len(lim.groups))]
    return lim


@pytest.mark.parametrize("K,degree", [((), 8), ((0,), None)])
def test_e9_limit_oracle_matches_compact_report(K, degree):
    """E9 is affine, so of compact type: at L = 2 the interval oracle (19,171
    intervals; the nerve has 14,174,521 chains) gives lim^8 = Z at K = ()
    and nothing at K = (0,), as the compact report says."""
    A, box = load("e9"), Box(1, 0)
    lim = assert_limit_matches(A, K, 2, box, compact_type_report(A, box))
    assert [p for p in range(len(lim.groups)) if lim.free_rank(p)] == (
        [] if degree is None else [degree])


def test_limit_oracle_matches_extended_report_ext4(matrices):
    """On the extended compact ext4, the derived limit of every K-stratum is
    the extended report's rank in every degree, with no torsion."""
    A = matrices["ext4"]
    for L in (4, 6):
        for box in (Box(1, 0), Box(1, 1)):
            report = extended_type_report(A, L, box)
            for K in all_subsets(A.size):
                assert_limit_matches(A, K, L, box, report)


@pytest.mark.parametrize("K,box,rank", [
    ((), Box(1, 0), 2), ((0,), Box(1, 0), 1), ((9,), Box(2, 0), 512),
], ids=("K0-2", "K1-1", "K2-512"))
def test_limit_oracle_matches_extended_report_e10(K, box, rank):
    """E10 at L = 2: lim^8 = Z^2 at K = () and Z at K = (0,) with Box(1, 0),
    and Z^512 at K = (9,) with Box(2, 0), whose stratum has 512 weights:
    the extended report's degree-8 ranks, and nothing elsewhere."""
    A = load("e10")
    lim = assert_limit_matches(A, K, 2, box, extended_type_report(A, 2, box))
    assert [lim.free_rank(p) for p in range(len(lim.groups))] == [0] * 8 + [rank, 0]


# -- splitting maps ----------------------------------------------------------------------


def divided_levi_character(real, J, mu):
    """Weyl's character formula by exact division, a route independent of
    Freudenthal's recursion: the W_J-alternating sum at mu + rho_J over A_J."""
    shifted = tuple(a + b for a, b in zip(mu, real.partial_rho(J)))
    return exact_divide(weyl_numerator(real, shifted, J), weyl_denominator(real, J))


def test_splitting_identity_element(matrices):
    A = matrices["affine_a1"]
    real = build_realization(A)
    record = splitting_maps(A, (1,), real.zero())
    assert record.word == ()
    assert record.sign == 1
    assert record.roundtrip == divided_levi_character(real, (1,), real.zero())


def test_splitting_nontrivial(matrices):
    A = matrices["affine_a1"]
    record = splitting_maps(A, (1,), (-1, 1, 0))
    assert record.roundtrip == divided_levi_character(build_realization(A), (1,), (-1, 1, 0))
    assert len(record.word) > 0
    assert record.sign == -1


def test_splitting_refuses_a_weight_of_the_wrong_length(matrices):
    """mu + rho_J is formed before the chamber reduction sees the weight, so
    the length is checked first: a fourth coordinate is refused, not dropped."""
    for mu in ((1, 1, 0, 7), (1, 1)):
        with pytest.raises(ValueError, match="needs 3 integer coordinates"):
            splitting_maps(matrices["affine_a1"], (1,), mu)


def test_splitting_sign_flip(matrices):
    A = matrices["affine_a1"]
    real = build_realization(A)
    mu = (0, 1, 0)
    record = splitting_maps(A, (1,), mu)
    stratum = record.stratum
    assert stratum  # the reduced weight sits on a wall for this choice
    k = stratum[0]
    flipped = splitting_maps(A, (1,), mu, word=(k,) + record.word)
    assert flipped.word == weyl_group(A).shortlex((k,) + record.word)
    assert flipped.sign == -record.sign
    assert flipped.roundtrip == record.roundtrip
    assert flipped.roundtrip == divided_levi_character(real, (1,), mu)


def test_letters_outside_the_nodes_are_refused(matrices):
    """A letter that names no node is refused, naming it, wherever a word is
    folded: a negative one does not index from the end."""
    A = matrices["affine_a1"]
    for letter in (-1, 2):
        for call in (lambda: build_realization(A).act((letter,), (1, 2, 3)),
                     lambda: weyl_group(A).shortlex((letter,)),
                     lambda: splitting_maps(A, (1,), (0, 1, 0), word=(letter,))):
            with pytest.raises(IndexError, match=f"generator index {letter} out of range"):
                call()


def test_splitting_requires_reduction(matrices):
    A = matrices["hyper_rank2"]
    with pytest.raises(ConeReductionFailedError):
        # far outside the cone: reduction cannot finish within a tiny budget
        splitting_maps(A, (0,), (-5, -7), max_steps=3)


def test_finite_index_matches_enumeration_growth(matrices):
    """Cross-check of the finite-index rule: representative counts stop
    growing exactly for subsets of finite index, which on ext4 are the
    extended report's degree-0 subsets."""
    for name in ("affine_a1", "ext4"):
        A = matrices[name]
        group = weyl_group(A)
        stable = set()
        for K in all_subsets(A.size):
            stabilized = len(group.min_coset_reps(K, None, 8)) == len(
                group.min_coset_reps(K, None, 10)
            )
            assert stabilized == finite_index(A, K)
            if stabilized:
                stable.add(K)
    report = extended_type_report(matrices["ext4"], 4, Box(1, 0))
    assert {s.subset for s in report.summands if s.degree == 0} == stable  # ext4's


def test_colimit_functor_transitions_match_induction(matrices):
    """The covariant strata functor's transitions implement character-level
    induction for every stratum weight tau: w tau maps to wp tau with the
    row's sign exactly when the corresponding induced characters agree.
    Every cover is checked; on hyper_rank3 and ext4 the strips behind the
    signs have several letters."""
    signs = []
    for name, box in (("affine_a1", Box(2, 0)), ("hyper_rank3", Box(1, 0)), ("ext4", Box(1, 0))):
        A = matrices[name]
        real = build_realization(A)
        functor = strata_colimit_functor(A, (), 4, box)
        taus = stratum_basis(A, (), box).weights
        assert functor.copies == len(taus)
        for (J, Jp), images in functor.transitions.items():
            assert len(images) == len(functor.basis[J])
            for w, image in zip(functor.basis[J], images):
                assert len(image) <= 1
                assert all(image.values())
                for tau in taus:
                    induced = dirac_induction(real, Jp, real.act(w.word, tau))
                    if not induced:
                        assert not image
                        continue
                    ((row, sign),) = image.items()
                    target = real.act(functor.basis[Jp][row].word, tau)
                    assert induced == dirac_induction(real, Jp, target).scaled(sign)
                    signs.append(sign)
    assert -1 in signs
