"""Closed-form K-theory reports for the building, with independent
derived-(co)limit oracles over the intervals of the spherical poset.

Reports are E2-page data: the underlying spectral sequences collapse in
every computed case, so the closed forms are assembled directly from strata
of dominant weights and coset index sets.  The oracle route recomputes the
same ranks as derived limits/colimits of truncated strata functors, whose
transitions are stored along covers, over the intervals [T', T] of the
spherical poset; the test suite holds it against the closed forms.
"""

from __future__ import annotations

from itertools import combinations
from typing import NamedTuple

from .coxeter import weyl_group
from .davis import IntegerCohomology, cochain_cohomology
from .characters import FormalCharacter, dirac_induction
from .errors import (
    ConeReductionFailedError,
    FunctorialityError,
    HypothesisViolatedError,
    ResourceExceededError,
    WrongTypeError,
)
from .gcm import (FINITE, GeneralizedCartanMatrix, classify_type, is_finite_type, per_matrix,
                  spherical_poset)
from .weights import IN_CONE, Box, Weight, build_realization

COMPACT_COHOMOLOGY = "compact-cohomology"
EXTENDED_COHOMOLOGY = "extended-cohomology"
COMPACT_HOMOLOGY = "compact-homology"


class StratumBasis(NamedTuple):
    """Dominant weights in a box vanishing exactly on the coroots in K."""

    subset: tuple[int, ...]
    weights: tuple[Weight, ...]

    def __len__(self):
        return len(self.weights)


class Summand(NamedTuple):
    degree: int
    subset: tuple[int, ...]
    index_words: tuple | None  # None: the one-point index set
    basis: StratumBasis

    @property
    def index_size(self) -> int:
        return 1 if self.index_words is None else len(self.index_words)

    @property
    def rank(self) -> int:
        return self.index_size * len(self.basis)


class KTheoryReport(NamedTuple):
    mode: str
    top_degree: int
    torus_rank: int
    length_bound: int | None
    box: Box
    summands: tuple[Summand, ...]

    def rank_in_degree(self, degree: int, subset=None) -> int:
        return sum(
            s.rank
            for s in self.summands
            if s.degree == degree and (subset is None or s.subset == tuple(sorted(subset)))
        )


def stratum_basis(A: GeneralizedCartanMatrix, K, box: Box) -> StratumBasis:
    real = build_realization(A)
    K = tuple(sorted(set(K)))
    return StratumBasis(K, real.dominant_box_weights(K, box))


def _require_compact_non_finite(A):
    cls = classify_type(A)
    if cls.kind == FINITE or not cls.compact_type:
        raise WrongTypeError("report requires a compact-type matrix that is not finite")
    return cls


def compact_type_report(A: GeneralizedCartanMatrix, box: Box) -> KTheoryReport:
    """Everything sits in degree 0 (the invariant stratum) and degree n (the
    regular stratum); all intermediate strata contribute nothing."""
    _require_compact_non_finite(A)
    real = build_realization(A)
    n = A.size - 1
    summands = (
        Summand(0, A.index_set, None, stratum_basis(A, A.index_set, box)),
        Summand(n, (), None, stratum_basis(A, (), box)),
    )
    return KTheoryReport(COMPACT_COHOMOLOGY, n, real.rank, None, box, summands)


@per_matrix
def _nonfinite_nodes(A: GeneralizedCartanMatrix) -> frozenset[int]:
    """The nodes of the non-finite indecomposable blocks of A."""
    return frozenset(i for block in A.blocks() if not is_finite_type(A, block) for i in block)


def _between(low: int, high: int):
    """The masks K with low <= K <= high as bit sets, in increasing order."""
    free, sub = high & ~low, 0
    yield low
    while sub != free:
        sub = (sub - free) & free  # the next submask of free
        yield low | sub


def extended_type_report(A: GeneralizedCartanMatrix, L: int, box: Box) -> KTheoryReport:
    """Degree n: maximally pure (K, I0) representatives tensor the K-stratum,
    for every K, from one pass over W^{I0}: w is listed under each K from its
    need up to the complement of its forbid (``WeylGroup._purity``).  Degree
    0: strata whose parabolic has finite index, the K containing every
    non-finite block (a proper standard parabolic of an infinite irreducible
    reflection group has infinite index)."""
    cls = classify_type(A)
    if cls.extended_compact is None:
        raise WrongTypeError("report requires an extended compact matrix")
    i0, _ = cls.extended_compact
    n = len(i0) - 1
    if n <= 1:
        raise HypothesisViolatedError("the compact core must have at least three nodes")
    real = build_realization(A)
    group = weyl_group(A)
    full = (1 << A.size) - 1
    words = {}  # mask of K: the words of its maximally pure representatives
    i0mask = group.subset_mask(i0)
    for w in group.min_coset_reps((), i0, L):
        need, forbid = group._purity(w, i0mask)
        # need misses forbid: w(alpha_j) = alpha_k for an ascent j makes k an ascent
        if need >= 0:
            word = w.word
            for kmask in _between(need, full & ~forbid):
                words.setdefault(kmask, []).append(word)

    def summand(degree, kmask, index):
        K = tuple(i for i in A.index_set if kmask >> i & 1)
        return Summand(degree, K, index, stratum_basis(A, K, box))

    nonfinite = group.subset_mask(_nonfinite_nodes(A))
    summands = [summand(0, kmask, None) for kmask in _between(nonfinite, full)]
    summands += [summand(n, kmask, tuple(words[kmask])) for kmask in sorted(words)]
    return KTheoryReport(EXTENDED_COHOMOLOGY, n, real.rank, L, box, tuple(summands))


def k_homology_report(A: GeneralizedCartanMatrix, box: Box) -> KTheoryReport:
    """Homology-side closed form: the regular stratum in degree -r (the
    reduced part) and the invariant stratum in degree n - r."""
    _require_compact_non_finite(A)
    real = build_realization(A)
    n = A.size - 1
    r = real.rank
    summands = (
        Summand(-r, (), None, stratum_basis(A, (), box)),
        Summand(n - r, A.index_set, None, stratum_basis(A, A.index_set, box)),
    )
    return KTheoryReport(COMPACT_HOMOLOGY, n, r, None, box, summands)


# -- restriction / stabilization image predicates -----------------------------------


class ImagePredicates(NamedTuple):
    regular_dominant_for_levi: bool
    in_image_st: bool
    in_image_of_r: bool
    reduction_status: str


def st_r_image_predicates(A: GeneralizedCartanMatrix, lam: Weight,
                          max_steps: int | None = None) -> ImagePredicates:
    """Membership tests for the two comparison maps of the extended theory:
    the stabilization image consists of cone weights, and the restriction
    image additionally requires antidominance across J0."""
    cls = classify_type(A)
    if cls.extended_compact is None:
        raise WrongTypeError("image predicates require an extended compact matrix")
    i0, j0 = cls.extended_compact
    real = build_realization(A)
    regular = all(lam[i] > 0 for i in i0)
    result = real.chamber_reduce(lam, max_steps=max_steps)
    in_st = result.status == IN_CONE
    in_r = in_st and all(lam[j] <= 0 for j in j0)
    return ImagePredicates(regular, in_st, in_r, result.status)


# -- functors on the spherical poset and their derived (co)limits ---------------------


class FunctorOnPoset:
    """Finite free abelian groups indexed by spherical subsets with integer
    transitions along covers.

    ``variance`` is "covariant" (maps go up the poset) or "contravariant"
    (maps go down).  ``transitions[(J, Jp)]`` is stored for every cover
    J < Jp = J + s as one sparse row ``{c: coefficient}`` (nonzero
    coefficients only) per basis element k of F(J), where c indexes the
    basis of F(Jp): for a covariant functor row k is the image of k, for a
    contravariant one it is row k of the matrix of F(Jp) -> F(J).  Either
    way a composite along J < Jp < Jpp is the row product.  Spherical
    subsets are closed under subsets, so every interval is a Boolean lattice
    and functoriality is the commuting of the squares of covers.  With
    ``copies`` m the functor is Z^m ⊗ G, and only G is stored.
    """

    def __init__(self, members, variance, basis, transitions, copies=1):
        self.members = tuple(members)
        self.variance = variance
        self.basis = dict(basis)
        self.transitions = dict(transitions)
        self.copies = copies

    def check_functoriality(self) -> None:
        """Raise unless J < J+s < T equals J < J+t < T for each member
        T = J+s+t: the squares of covers."""
        def through(J, Jp, T):
            composed, outer = [], self.transitions[(Jp, T)]
            for row in self.transitions[(J, Jp)]:
                out: dict[int, int] = {}
                for c, v in row.items():
                    for d, x in outer[c].items():
                        out[d] = out.get(d, 0) + v * x
                composed.append({d: x for d, x in out.items() if x})
            return composed

        for T in self.members:
            for i, j in combinations(range(len(T)), 2):
                J, a, b = T[:i] + T[i + 1:j] + T[j + 1:], T[:j] + T[j + 1:], T[:i] + T[i + 1:]
                if through(J, a, T) != through(J, b, T):
                    raise FunctorialityError(f"transitions via {a} and {b} break on {J} < {T}")


def derived_limit_oracle(A: GeneralizedCartanMatrix, functor: FunctorOnPoset,
                         direction: str) -> IntegerCohomology:
    """Exact derived limit (cochain) or colimit (chain) of a poset functor,
    computed over the intervals of the spherical poset with Smith normal form.

    The intervals [T', T] of members form a cube complex with the cohomology
    of the nerve (Davis, ch. 7; Curry 2014).  Its p-cells are the intervals
    with |T - T'| = p, carrying F(T').  For s at position i of T - T', with
    sign (-1)^i, the faces are [T' + s, T], through the transition along
    T' < T' + s, and [T', T - s], through the identity with the opposite
    sign.  The top degree is the largest |T|.  Z^m ⊗ G has m copies of G's
    groups: free ranks times m, each torsion divisor m times in place.  A
    cochain basis of G past the element cap is refused before any row is built.
    """
    if direction not in ("limit", "colimit"):
        raise ValueError("direction must be 'limit' or 'colimit'")
    expected = "contravariant" if direction == "limit" else "covariant"
    if functor.variance != expected:
        raise FunctorialityError(f"{direction} needs a {expected} functor")
    functor.check_functoriality()

    basis, transitions = functor.basis, functor.transitions
    cells = [[] for _ in range(max(map(len, functor.members), default=0) + 1)]
    for T in functor.members:  # every subset of a member is a member
        for k in range(len(T) + 1):
            cells[len(T) - k].extend((Tp, T) for Tp in combinations(T, k))
    sizes, offset = [0] * len(cells), {}  # offset: a cell's first basis index
    for p, level in enumerate(cells):
        for cell in level:
            offset[cell], sizes[p] = sizes[p], sizes[p] + len(basis[cell[0]])
    if sum(sizes) > (cap := weyl_group(A).element_cap):
        raise ResourceExceededError(f"derived {direction} oracle needs {sum(sizes)} cochain"
                                    f" basis elements, past the element cap of {cap}")

    def faces(p, skip):
        """Sparse rows, indexed by (p+1)-cells, of the face map to p-cells,
        leaving out the rows in ``skip``.

        This is the limit's coboundary C^p -> C^{p+1}, and the transpose of
        the colimit's boundary C_{p+1} -> C_p: the coboundary of its dual.
        """
        rows = []
        for cell in cells[p + 1]:
            Tp, T = cell
            first = offset[cell]
            kept = [k for k in range(len(basis[Tp])) if first + k not in skip]
            if not kept:
                continue
            gaps = []  # per s: sign, transition rows, raised and lowered face
            for i, s in enumerate(s for s in T if s not in Tp):
                up = tuple(sorted(Tp + (s,)))
                gaps.append(((-1) ** i, transitions[(Tp, up)], offset[(up, T)],
                             offset[(Tp, tuple(t for t in T if t != s))]))
            for k in kept:
                row = {}
                for sign, rows_up, up, down in gaps:
                    for c, v in rows_up[k].items():
                        row[up + c] = sign * v
                    row[down + k] = -sign
                rows.append(row)
        return rows

    coh = cochain_cohomology(sizes, faces)
    # universal coefficients: a colimit's H_p has the free rank of H^p of the
    # dual complex and the torsion of H^{p+1}
    m, shift = functor.copies, direction == "colimit"
    return IntegerCohomology(tuple((free * m, tuple(d for d in coh.torsion(p + shift)
                                                    for _ in range(m)))
                                   for p, (free, _) in enumerate(coh.groups)))


# -- truncated strata functors ---------------------------------------------------------


def _strata_functor(A, K, box, variance, reps, column) -> FunctorOnPoset:
    """Functor of the K-stratum built from representatives: Z^m ⊗ G for the
    m stratum weights tau, since no row depends on tau.  G's basis over J is
    ``reps(J)`` itself, each w indexed by w(rho).  Along a cover J < Jp the
    row of w holds the coefficient v at the column of wp, where ``(wp, v) =
    column(w, Jp)``; it is empty when wp is not among ``reps(Jp)``."""
    members = spherical_poset(A).members
    basis = {J: reps(J) for J in members}
    transitions = {}
    # the covers J = Jp - s < Jp: every subset of a member is a member
    for J, Jp in ((Jp[:i] + Jp[i + 1:], Jp) for Jp in members for i in range(len(Jp))):
        index = {w.orbit: c for c, w in enumerate(basis[Jp])}
        cols = (column(w, Jp) for w in basis[J])
        transitions[(J, Jp)] = tuple(
            {} if (c := index.get(wp.orbit)) is None else {c: v} for wp, v in cols)
    copies = len(build_realization(A).dominant_box_weights(K, box))
    return FunctorOnPoset(members, variance, basis, transitions, copies)


def strata_limit_functor(A: GeneralizedCartanMatrix, K, L: int, box: Box) -> FunctorOnPoset:
    """Contravariant functor of parabolic invariants of the K-stratum.

    The basis over J consists of full W_J-orbit sums of stratum weights
    whose coset window stays inside length L; keeping only complete orbits
    is what makes the truncation compute compact-supports answers instead
    of picking up window-edge classes.  Restricted to J, the orbit sum of
    wp over Jp sums the J-representatives in W_Jp wp W_K, so the row of w
    holds the wp of its own double coset, if kept.
    """
    group = weyl_group(A)
    K = tuple(sorted(set(K)))

    def window(J):
        # the w whose W_J-orbit K-strips to length <= L: by Deodhar's lemma the
        # longest strip is l(w) + l(w_J) - l(w_M), as W_J meet w W_K w^{-1} = W_M
        # for M the j in J with alpha_j = w(alpha_k), k in K, and min(w_J W_M) = w_J w_M
        top, kept = group.longest(J).length, []
        for w in group.min_coset_reps(J, K, L):
            meet = sum(group._simple.get(group._root_images(w)[k], 0) for k in K)  # bit j in M
            if w.length + top - (meet and group.longest(j for j in J if meet >> j & 1).length) <= L:
                kept.append(w)
        return kept

    return _strata_functor(A, K, box, "contravariant", window,
                           lambda w, Jp: (group.double_strip(w, Jp, K), 1))


def strata_colimit_functor(A: GeneralizedCartanMatrix, K, L: int, box: Box) -> FunctorOnPoset:
    """Covariant functor of induced classes of the K-stratum.

    A stratum weight tau has stabilizer W_K, so for w minimal in w W_K the
    weight w tau is J-regular-dominant iff w has no left descent in J and
    W_J meets w W_K w^{-1} trivially: the basis over J is w tau for the pure
    (J, K) representatives and each tau.  Transitions dominantize: w tau
    goes to wp tau, wp = lstrip(w, Jp), with sign (-1)^(l(w) - l(wp)), zero
    unless wp is pure; G's basis is the w."""
    group = weyl_group(A)
    K = tuple(sorted(set(K)))

    def column(w, Jp):
        wp = group.lstrip(w, Jp)
        return wp, (-1) ** (w.length - wp.length)

    return _strata_functor(A, K, box, "covariant", lambda J: group.pure_reps(J, K, L), column)


# -- splitting of the homology functor ---------------------------------------------------


class SplitRecord(NamedTuple):
    sign: int
    cone_weight: Weight
    word: tuple[int, ...]  # ShortLex word of the element w reaching the cone weight
    stratum: tuple[int, ...]
    roundtrip: FormalCharacter


def splitting_maps(A: GeneralizedCartanMatrix, J, mu: Weight,
                   max_steps: int | None = None,
                   word: tuple[int, ...] | None = None) -> SplitRecord:
    """Split/retract pair for a Levi class: reduce mu + rho_J into the
    dominant chamber to get (tau, w), record the ShortLex word of w and its
    sign, then reconstruct the class by induction of w^{-1}(tau) = mu + rho_J;
    the roundtrip must reproduce the character of L_mu.

    ``word`` may spell another solution of w^{-1}(tau) = mu + rho_J in place
    of w (for example a stabilizer reflection of tau then w); the recorded
    sign flips while the roundtrip is unchanged.  No element is built.
    """
    J = tuple(sorted(set(J)))
    real = build_realization(A)
    shifted = tuple(a + b for a, b in zip(real.check_weight(mu), real.partial_rho(J)))
    reduction = real.chamber_reduce(shifted, max_steps=max_steps)
    if reduction.status != IN_CONE:
        raise ConeReductionFailedError(
            f"mu + rho_J = {shifted} did not reduce to the dominant chamber"
        )
    word = reduction.word if word is None else weyl_group(A).shortlex(word)
    tau = real.act(word, shifted)
    if not real.is_dominant(tau):
        raise ConeReductionFailedError("provided word does not reduce mu + rho_J")
    return SplitRecord(
        sign=-1 if len(word) % 2 else 1,
        cone_weight=tau,
        word=word,
        stratum=real.stratum(tau),
        roundtrip=dirac_induction(real, J, shifted),
    )
