"""Closed-form K-theory reports for the building, with independent
derived-(co)limit oracles over the spherical poset.

Reports are E2-page data: the underlying spectral sequences collapse in
every computed case, so the closed forms are assembled directly from strata
of dominant weights and coset index sets.  The oracle route recomputes the
same ranks as derived limits/colimits of truncated strata functors and is
held against the closed forms by the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import intlinalg
from .coxeter import CoxeterElement, weyl_group
from .davis import IntegerCohomology, _chains
from .characters import FormalCharacter, dirac_induction, levi_irreducible_character
from .errors import (
    ConeReductionFailedError,
    FunctorialityError,
    HypothesisViolatedError,
    WrongTypeError,
)
from .gcm import FINITE, GeneralizedCartanMatrix, classify_type, is_finite_type, spherical_poset
from .weights import IN_CONE, Box, Weight, build_realization

COMPACT_COHOMOLOGY = "compact-cohomology"
EXTENDED_COHOMOLOGY = "extended-cohomology"
COMPACT_HOMOLOGY = "compact-homology"


@dataclass(frozen=True)
class StratumBasis:
    """Dominant weights in a box vanishing exactly on the coroots in K."""

    subset: tuple[int, ...]
    weights: tuple[Weight, ...]

    def __len__(self):
        return len(self.weights)


@dataclass(frozen=True)
class Summand:
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


@dataclass(frozen=True)
class KTheoryReport:
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


def _finite_index(A: GeneralizedCartanMatrix, K) -> bool:
    """Does W_K have finite index in the full group?

    Holds exactly when K contains every non-finite indecomposable block:
    proper standard parabolics of infinite irreducible reflection groups
    have infinite index.
    """
    kset = set(K)
    for block in A.blocks():
        if not is_finite_type(A, block) and not set(block) <= kset:
            return False
    return True


def _subsets(indices):
    indices = tuple(indices)
    for bits in range(1 << len(indices)):
        yield tuple(indices[t] for t in range(len(indices)) if bits >> t & 1)


def extended_type_report(A: GeneralizedCartanMatrix, L: int, box: Box) -> KTheoryReport:
    """Degree n: maximally pure (K, I0) representatives tensor the K-stratum,
    for every K; degree 0: strata whose parabolic has finite index."""
    cls = classify_type(A)
    if cls.extended_compact is None:
        raise WrongTypeError("report requires an extended compact matrix")
    i0, _ = cls.extended_compact
    n = len(i0) - 1
    if n <= 1:
        raise HypothesisViolatedError("the compact core must have at least three nodes")
    real = build_realization(A)
    group = weyl_group(A)
    summands = []
    for K in _subsets(A.index_set):
        if _finite_index(A, K):
            summands.append(Summand(0, K, None, stratum_basis(A, K, box)))
    for K in _subsets(A.index_set):
        words = tuple(w.word for w in group.pure_reps(K, i0, L, maximal=True))
        if words:
            summands.append(Summand(n, K, words, stratum_basis(A, K, box)))
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


@dataclass(frozen=True)
class ImagePredicates:
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
    transition matrices along inclusions.

    ``variance`` is "covariant" (maps go up the poset) or "contravariant"
    (maps go down); transitions are stored for every strict inclusion pair
    and checked for functoriality on composable pairs.
    """

    def __init__(self, members, variance, basis, transitions):
        self.members = tuple(members)
        self.variance = variance
        self.basis = dict(basis)
        self.transitions = dict(transitions)

    def rank(self, J) -> int:
        return len(self.basis[J])

    def matrix(self, J, Jp):
        """Transition along J < Jp, oriented by the variance."""
        return self.transitions[(J, Jp)]

    def check_functoriality(self) -> None:
        for J in self.members:
            for Jp in self.members:
                if not (set(J) < set(Jp)):
                    continue
                for Jpp in self.members:
                    if not (set(Jp) < set(Jpp)):
                        continue
                    if self.variance == "covariant":
                        lhs = _matmul(self.matrix(Jp, Jpp), self.matrix(J, Jp))
                    else:
                        lhs = _matmul(self.matrix(J, Jp), self.matrix(Jp, Jpp))
                    if lhs != self.matrix(J, Jpp):
                        raise FunctorialityError(
                            f"transitions through {Jp} break on {J} < {Jpp}"
                        )


def _matmul(a, b):
    if not a or not b:
        return tuple(() for _ in a)
    cols_b = len(b[0])
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(len(b))) for j in range(cols_b))
        for i in range(len(a))
    )


def _zero_matrix(nrows, ncols):
    return tuple((0,) * ncols for _ in range(nrows))


def derived_limit_oracle(A: GeneralizedCartanMatrix, functor: FunctorOnPoset,
                         direction: str) -> IntegerCohomology:
    """Exact derived limit (cochain) or colimit (chain) of a poset functor,
    computed from the nerve of the spherical poset with Smith normal form.

    The p-(co)chains are indexed by strict chains J_0 < ... < J_p carrying
    the value at J_0; dropping J_0 moves coefficients along the transition.
    """
    if direction not in ("limit", "colimit"):
        raise ValueError("direction must be 'limit' or 'colimit'")
    expected = "contravariant" if direction == "limit" else "covariant"
    if functor.variance != expected:
        raise FunctorialityError(f"{direction} needs a {expected} functor")
    functor.check_functoriality()

    chains = [c for c in _chains(functor.members)]
    by_dim: dict[int, list] = {}
    for c in chains:
        by_dim.setdefault(len(c) - 1, []).append(c)
    top = max(by_dim) if by_dim else 0
    basis_index = {}
    dims = []
    for p in range(top + 1):
        labels = []
        for chain in sorted(by_dim.get(p, [])):
            for k, _ in enumerate(functor.basis[chain[0]]):
                basis_index[(chain, k)] = len(labels)
                labels.append((chain, k))
        dims.append(labels)

    def faces(p):
        """Sparse rows, indexed by p-chains, of the face map to (p-1)-chains.

        This is the colimit's chain differential C_p -> C_{p-1} transposed,
        or the limit's cochain differential C^{p-1} -> C^p itself; Smith
        invariants do not see the transpose.
        """
        rows = []
        for chain, k in dims[p]:
            row: dict[int, int] = {}
            for i in range(len(chain)):
                sub = chain[:i] + chain[i + 1 :]
                sign = (-1) ** i
                if i == 0:
                    # matrix(J0, J1) maps F(J0) -> F(J1) for a covariant
                    # functor and F(J1) -> F(J0) for a contravariant one
                    mat = functor.matrix(chain[0], chain[1])
                    for c in range(len(functor.basis[chain[1]])):
                        v = mat[k][c] if direction == "limit" else mat[c][k]
                        if v:
                            idx = basis_index[(sub, c)]
                            row[idx] = row.get(idx, 0) + sign * v
                else:
                    idx = basis_index[(sub, k)]
                    row[idx] = row.get(idx, 0) + sign
            rows.append(row)
        return rows

    invariants = {
        p: intlinalg.smith_invariants(faces(p), len(dims[p - 1]))
        for p in range(1, top + 1)
    }
    # torsion in degree p comes from the map into degree p, built from the
    # (p+1)-chains for a colimit and from the p-chains for a limit
    shift = 1 if direction == "colimit" else 0
    groups = []
    for p in range(top + 1):
        free = len(dims[p]) - len(invariants.get(p, [])) - len(invariants.get(p + 1, []))
        torsion = tuple(d for d in invariants.get(p + shift, []) if d > 1)
        groups.append((free, torsion))
    return IntegerCohomology(tuple(groups))


# -- truncated strata functors ---------------------------------------------------------


def strata_limit_functor(A: GeneralizedCartanMatrix, K, L: int, box: Box) -> FunctorOnPoset:
    """Contravariant functor of parabolic invariants of the K-stratum.

    The basis over J consists of full W_J-orbit sums of stratum weights
    whose coset window stays inside length L; keeping only complete orbits
    is what makes the truncation compute compact-supports answers instead
    of picking up window-edge classes.
    """
    real = build_realization(A)
    group = weyl_group(A)
    K = tuple(sorted(set(K)))
    taus = real.dominant_box_weights(K, box)
    members = spherical_poset(A).members

    basis = {}
    for J in members:
        reps = []
        subgroup = group.subgroup_elements(J)
        for w in group.min_coset_reps(J, K, L):
            if all(
                group.rstrip(group.multiply(u, w), K).length <= L for u in subgroup
            ):
                reps.append(w)
        basis[J] = tuple((w.word, tau) for tau in taus for w in reps)

    transitions = {}
    for J in members:
        jset = set(J)
        for Jp in members:
            if not jset < set(Jp):
                continue
            index = {lab: i for i, lab in enumerate(basis[J])}
            cols = []
            for wp_word, tau in basis[Jp]:
                wp = group.element(wp_word)
                seen = set()
                for u in group.subgroup_elements(Jp):
                    v = group.double_strip(group.multiply(u, wp), J, K)
                    seen.add(v.word)
                col = [0] * len(basis[J])
                for word in seen:
                    col[index[(word, tau)]] = 1
                cols.append(col)
            nrows = len(basis[J])
            matrix = tuple(
                tuple(cols[j][i] for j in range(len(cols))) for i in range(nrows)
            )
            transitions[(J, Jp)] = matrix
    return FunctorOnPoset(members, "contravariant", basis, transitions)


def strata_colimit_functor(A: GeneralizedCartanMatrix, K, L: int, box: Box) -> FunctorOnPoset:
    """Covariant functor of induced classes of the K-stratum: the basis over
    J consists of J-regular-dominant translates of stratum weights, and
    transitions dominantize with the sign of the moving element (zero on
    singular orbits)."""
    real = build_realization(A)
    group = weyl_group(A)
    K = tuple(sorted(set(K)))
    taus = real.dominant_box_weights(K, box)
    members = spherical_poset(A).members
    cosets = group.min_coset_reps((), K, L)

    all_weights = []
    seen = set()
    for tau in taus:
        for w in cosets:
            lam = real.act(w, tau)
            if lam not in seen:
                seen.add(lam)
                all_weights.append(lam)

    basis = {}
    for J in members:
        basis[J] = tuple(
            lam
            for lam in all_weights
            if real.is_dominant_for(lam, J) and real.is_regular_for(lam, J)
        )

    def dominantize(lam, J):
        sign = 1
        steps = 0
        while True:
            neg = next((j for j in J if lam[j] < 0), None)
            if neg is None:
                break
            lam = real.reflect(neg, lam)
            sign = -sign
            steps += 1
            if steps > 10000:
                raise ConeReductionFailedError("parabolic dominantization ran away")
        if any(lam[j] == 0 for j in J):
            return None, 0
        return lam, sign

    transitions = {}
    for J in members:
        jset = set(J)
        for Jp in members:
            if not jset < set(Jp):
                continue
            index = {lam: i for i, lam in enumerate(basis[Jp])}
            nrows = len(basis[Jp])
            cols = []
            for lam in basis[J]:
                col = [0] * nrows
                target, sign = dominantize(lam, Jp)
                if target is not None:
                    col[index[target]] = sign
                cols.append(col)
            matrix = tuple(
                tuple(cols[j][i] for j in range(len(cols))) for i in range(nrows)
            )
            transitions[(J, Jp)] = matrix
    return FunctorOnPoset(members, "covariant", basis, transitions)


# -- splitting of the homology functor ---------------------------------------------------


@dataclass(frozen=True)
class SplitRecord:
    sign: int
    cone_weight: Weight
    element: CoxeterElement
    stratum: tuple[int, ...]
    roundtrip: FormalCharacter
    identity_ok: bool


def splitting_maps(A: GeneralizedCartanMatrix, J, mu: Weight,
                   max_steps: int | None = None,
                   element: CoxeterElement | None = None) -> SplitRecord:
    """Split/retract pair for a Levi class: reduce mu + rho_J into the
    dominant chamber to get (tau, w), record the sign of w, then reconstruct
    the class by induction of w^{-1}(tau); the roundtrip must reproduce the
    character of L_mu.

    ``element`` may replace w by another solution of w^{-1}(tau) = mu + rho_J
    (for example w composed with a stabilizer reflection of tau); the
    recorded sign flips while the roundtrip is unchanged.
    """
    J = tuple(sorted(set(J)))
    real = build_realization(A)
    group = weyl_group(A)
    shifted = tuple(a + b for a, b in zip(mu, real.partial_rho(J)))
    reduction = real.chamber_reduce(shifted, max_steps=max_steps)
    if reduction.status != IN_CONE:
        raise ConeReductionFailedError(
            f"mu + rho_J = {shifted} did not reduce to the dominant chamber"
        )
    w = reduction.element if element is None else element
    tau = real.act(w, shifted)
    if not real.is_dominant(tau):
        raise ConeReductionFailedError("provided element does not reduce mu + rho_J")
    sign = w.sign()
    back = real.act(group.inverse(w), tau)
    roundtrip = dirac_induction(real, J, back)
    expected = levi_irreducible_character(real, J, mu)
    return SplitRecord(
        sign=sign,
        cone_weight=tau,
        element=w,
        stratum=real.stratum(tau),
        roundtrip=roundtrip,
        identity_ok=roundtrip == expected,
    )
