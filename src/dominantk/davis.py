"""Nerve and Davis-complex combinatorics with two independent routes to
compactly supported cohomology.

The sector filtration scans minimal coset representatives chamber by chamber
and reads the answer off per-step verdicts; the Smith-normal-form oracle
computes relative cohomology of finite truncations directly.  The two must
agree once truncations stabilize, and the test suite enforces that.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import intlinalg
from .coxeter import CoxeterElement, WeylGroup, subset_mask, weyl_group
from .errors import DominantKError, ResourceExceededError, WrongTypeError
from .gcm import FINITE, GeneralizedCartanMatrix, classify_type, spherical_poset

FULL = "full"
EMPTY = "empty"
SILENT = "silent"

#: cells are enumerated per chamber; complexes past this many chains per
#: chamber are refused rather than silently truncated
CHAIN_CAP = 500_000


@dataclass(frozen=True)
class SimplicialComplexDesc:
    """Finite simplicial complex; ``simplices[d]`` holds dimension-d cells as
    sorted tuples of vertex indices (indices follow the ``vertices`` order)."""

    vertices: tuple
    simplices: tuple[tuple[tuple[int, ...], ...], ...]

    @property
    def dim(self) -> int:
        return len(self.simplices) - 1

    def f_vector(self) -> tuple[int, ...]:
        return tuple(len(level) for level in self.simplices)

    def simplex_labels(self, d: int) -> set:
        if d >= len(self.simplices):
            return set()
        return {
            tuple(self.vertices[i] for i in cell) for cell in self.simplices[d]
        }


@dataclass(frozen=True)
class IntegerCohomology:
    """Per-degree free rank plus torsion divisors (d1 | d2 | ...)."""

    groups: tuple[tuple[int, tuple[int, ...]], ...]

    def free_rank(self, p: int) -> int:
        return self.groups[p][0] if 0 <= p < len(self.groups) else 0

    def torsion(self, p: int) -> tuple[int, ...]:
        return self.groups[p][1] if 0 <= p < len(self.groups) else ()

    def describe(self, p: int) -> str:
        rank, tors = self.free_rank(p), self.torsion(p)
        parts = []
        if rank:
            parts.append(f"Z^{rank}" if rank > 1 else "Z")
        parts.extend(f"Z/{d}" for d in tors)
        return " ⊕ ".join(parts) if parts else "0"


def _complex_from_cells(cells) -> SimplicialComplexDesc:
    """Build a complex from an iterable of cells given as tuples of labels."""
    vertex_labels = sorted({v for cell in cells for v in cell}, key=_label_key)
    index = {lab: i for i, lab in enumerate(vertex_labels)}
    by_dim: dict[int, set] = {}
    for cell in cells:
        idx = tuple(sorted(index[v] for v in cell))
        by_dim.setdefault(len(idx) - 1, set()).add(idx)
    # close under faces, top dimension downward
    max_dim = max(by_dim) if by_dim else 0
    for d in range(max_dim, 0, -1):
        for cell in list(by_dim.get(d, ())):
            for k in range(len(cell)):
                by_dim.setdefault(d - 1, set()).add(cell[:k] + cell[k + 1 :])
    simplices = tuple(
        tuple(sorted(by_dim.get(d, set()))) for d in range(max_dim + 1)
    )
    return SimplicialComplexDesc(tuple(vertex_labels), simplices)


def _label_key(label):
    def atom_key(x):
        if isinstance(x, tuple):
            return (len(x), tuple(atom_key(y) for y in x))
        return (0, x)

    return atom_key(label)


def _chains(members, cap: int = CHAIN_CAP) -> list[tuple]:
    """Nonempty strict inclusion chains within a poset of index subsets."""
    member_sets = [(m, set(m)) for m in members]
    out = [(m,) for m in members]
    frontier = out
    while frontier:
        nxt = []
        for chain in frontier:
            top = set(chain[-1])
            for m, ms in member_sets:
                if top < ms:
                    nxt.append(chain + (m,))
        out.extend(nxt)
        if len(out) > cap:
            raise ResourceExceededError(
                f"poset has more than {cap} inclusion chains"
            )
        frontier = nxt
    return out


def nerve_complex(poset) -> SimplicialComplexDesc:
    """Geometric realization data of the nerve of a spherical poset.

    The poset must not have a terminal object (finite-type matrices are
    excluded by convention).
    """
    members = poset.members
    index_union = set()
    for m in members:
        index_union |= set(m)
    if tuple(sorted(index_union)) in members:
        raise WrongTypeError(
            "nerve is a cone: the full index set is spherical (finite type)"
        )
    return _complex_from_cells(_chains(members))


# -- Davis complex truncations ------------------------------------------------


def _building_data(A: GeneralizedCartanMatrix):
    """(poset members over I0, I0, J0) for the chamber complex of A.

    Extended compact matrices glue along the enlarged subsets J + J0; all
    other non-finite matrices use their spherical poset directly.
    """
    cls = classify_type(A)
    if cls.kind == FINITE:
        raise WrongTypeError("the chamber complex needs a non-finite matrix")
    if cls.extended_compact is not None:
        i0, j0 = cls.extended_compact
        members = tuple(
            m for m in spherical_poset(A.submatrix(i0)).members
            if len(m) < len(i0)
        )
        # poset members are positions within I0: convert to ambient indices
        members = tuple(tuple(i0[k] for k in m) for m in members)
        return members, i0, j0
    members = spherical_poset(A).members
    return members, A.index_set, ()


def davis_truncation(A: GeneralizedCartanMatrix, K, L: int):
    """Finite chamber-by-chamber truncation of the K-sector of the chamber
    complex, together with its frontier subcomplex.

    Chambers are the minimal (K-left, J0-right) coset representatives of
    length at most L; the frontier consists of cells also carried by sector
    chambers of length above L.
    """
    members, i0, j0 = _building_data(A)
    group = weyl_group(A)
    K = tuple(sorted(set(K)))
    kmask = subset_mask(K)
    chambers = group.min_coset_reps(K, j0, L)
    chains = _chains(members)

    def glue(subset):
        return tuple(sorted(set(subset) | set(j0)))

    cells = {}
    for w in chambers:
        for chain in chains:
            label = tuple(
                (group.rstrip(w, glue(m)).word, m) for m in chain
            )
            cells.setdefault(label, chain[0])

    frontier_cells = []
    for label, min_subset in cells.items():
        base = group.element(label[0][0])
        if _cell_meets_long_chamber(group, base, glue(min_subset), j0, kmask, L):
            frontier_cells.append(label)

    complex_ = _complex_from_cells(list(cells))
    frontier = (
        _complex_from_cells(frontier_cells)
        if frontier_cells
        else SimplicialComplexDesc((), ((),))
    )
    return complex_, frontier


def _cell_meets_long_chamber(group: WeylGroup, base, glue_subset, j0, kmask, L) -> bool:
    for x in group.subgroup_elements(glue_subset):
        v = group.rstrip(group.multiply(base, x), j0)
        if v.length > L and not v.left & kmask:
            return True
    return False


# -- Smith normal form oracle ---------------------------------------------------


def snf_cohomology(complex_: SimplicialComplexDesc,
                   relative_to: SimplicialComplexDesc | None = None) -> IntegerCohomology:
    """Integral (relative) simplicial cohomology via Smith normal form."""
    excluded = [
        relative_to.simplex_labels(d) if relative_to is not None else set()
        for d in range(complex_.dim + 1)
    ]
    cells = []
    for d in range(complex_.dim + 1):
        level = [
            cell
            for cell in complex_.simplices[d]
            if tuple(complex_.vertices[i] for i in cell) not in excluded[d]
        ]
        cells.append(level)

    def coboundary(p):
        # rows: (p+1)-cells, cols: p-cells; transpose of the boundary map
        if p + 1 > complex_.dim:
            return [], len(cells[p])
        col_index = {cell: k for k, cell in enumerate(cells[p])}
        rows = []
        for big in cells[p + 1]:
            row = {}
            for k in range(len(big)):
                face = big[:k] + big[k + 1 :]
                j = col_index.get(face)
                if j is not None:
                    row[j] = (-1) ** k
            rows.append(row)
        return rows, len(cells[p])

    groups = []
    prev_invariants: list[int] = []
    for p in range(complex_.dim + 1):
        rows, ncols = coboundary(p)
        invariants = intlinalg.smith_invariants(rows, ncols) if rows else []
        rank_delta_p = len(invariants)
        free = len(cells[p]) - rank_delta_p - len(prev_invariants)
        torsion = tuple(d for d in prev_invariants if d > 1)
        groups.append((free, torsion))
        prev_invariants = invariants
    euler_cells = sum((-1) ** p * len(cells[p]) for p in range(complex_.dim + 1))
    euler_ranks = sum((-1) ** p * groups[p][0] for p in range(len(groups)))
    if euler_cells != euler_ranks:
        raise DominantKError("internal: Euler characteristic mismatch in SNF cohomology")
    return IntegerCohomology(tuple(groups))


# -- sector filtration ------------------------------------------------------------


@dataclass(frozen=True)
class SectorStep:
    element: CoxeterElement
    continuation: tuple[int, ...]  # ascent nodes keeping K-left minimality
    verdict: str


@dataclass(frozen=True)
class SectorReport:
    """Per-step record of the chamber scan plus the resulting compactly
    supported cohomology of the K-sector."""

    subset: tuple[int, ...]
    length_bound: int
    top_degree: int
    steps: tuple[SectorStep, ...]

    @property
    def compact(self) -> bool:
        return any(s.verdict == EMPTY for s in self.steps)

    @property
    def degree_n_generators(self) -> tuple[CoxeterElement, ...]:
        return tuple(s.element for s in self.steps if s.verdict == FULL)

    def cohomology(self) -> IntegerCohomology:
        groups = [(0, ())] * (self.top_degree + 1)
        groups[0] = (1 if self.compact else 0, ())
        n_rank = len(self.degree_n_generators)
        if self.top_degree == 0:
            groups[0] = (groups[0][0] + n_rank, ())
        else:
            groups[self.top_degree] = (n_rank, ())
        return IntegerCohomology(tuple(groups))


def sector_filtration_cohomology(A: GeneralizedCartanMatrix, K, L: int) -> SectorReport:
    """Filtration scan of the K-sector of the chamber complex.

    Representatives are the minimal (K-left, I0-right) double coset
    representatives in scan order (length, then ShortLex).  Each step
    records its ascent-continuation set P (nodes j with l(w r_j) > l(w) and
    w r_j still K-left minimal) and a verdict:

      empty  - P is empty: the scan is exhausted, the sector is compact,
               and the step contributes Z in degree 0;
      full   - w is maximally pure for (K, I0): the step contributes Z in
               the top degree n;
      silent - anything else contributes nothing.

    The compact case runs with I0 the whole node set, where the single
    representative reproduces the per-stratum case analysis: full for the
    empty subset, empty for the full subset, silent in between.
    """
    cls = classify_type(A)
    if cls.kind == FINITE:
        raise WrongTypeError("sector scan requires a non-finite matrix")
    if cls.extended_compact is not None:
        i0, j0 = cls.extended_compact
    elif cls.compact_type:
        i0, j0 = A.index_set, ()
    else:
        raise WrongTypeError("sector scan requires compact or extended compact type")
    group = weyl_group(A)
    K = tuple(sorted(set(K)))
    kmask = subset_mask(K)
    reps = group.min_coset_reps(K, i0, L)
    n = len(i0) - 1

    steps = []
    for idx, w in enumerate(reps):
        continuation = tuple(
            j for j in range(A.size)
            if not w.right >> j & 1 and not group.rmul_gen(w, j).left & kmask
        )
        if not continuation:
            verdict = EMPTY
        elif not group.double_coset_intersection(w, i0, K) and not (
            group.pure_for_proper_superset(w, K, i0)
        ):
            verdict = FULL
        else:
            verdict = SILENT
        steps.append(SectorStep(w, continuation, verdict))
        if verdict == EMPTY:
            if idx != len(reps) - 1:
                raise DominantKError(
                    "internal: scan produced representatives past an empty verdict"
                )
            break
    return SectorReport(
        subset=K, length_bound=L, top_degree=n, steps=tuple(steps)
    )


# -- decomposition of the induced complex ------------------------------------------


@dataclass(frozen=True)
class HatSectorReport:
    """Cohomology of the K-quotient of the induced chamber complex, with the
    coset representatives generating each nonzero degree."""

    subset: tuple[int, ...]
    length_bound: int
    top_degree: int
    degree_zero: tuple[CoxeterElement, ...]
    degree_n: tuple[CoxeterElement, ...]

    def cohomology(self) -> IntegerCohomology:
        groups = [(0, ())] * (self.top_degree + 1)
        groups[0] = (len(self.degree_zero), ())
        if self.top_degree == 0:
            groups[0] = (groups[0][0] + len(self.degree_n), ())
        else:
            groups[self.top_degree] = (len(self.degree_n), ())
        return IntegerCohomology(tuple(groups))


def hat_sector_cohomology(A: GeneralizedCartanMatrix, K, L: int) -> HatSectorReport:
    """Decomposition under the subgroup on I0: each minimal (K, I0) double
    coset representative w contributes a top-degree generator when the
    conjugate intersection is trivial and a degree-zero generator when it is
    all of I0."""
    cls = classify_type(A)
    if cls.extended_compact is None:
        raise WrongTypeError("induced-complex decomposition requires extended compact type")
    i0, _ = cls.extended_compact
    group = weyl_group(A)
    K = tuple(sorted(set(K)))
    deg0, degn = [], []
    for w in group.min_coset_reps(K, i0, L):
        meet = group.double_coset_intersection(w, i0, K)
        if not meet:
            degn.append(w)
        elif meet == i0:
            deg0.append(w)
    return HatSectorReport(
        subset=K,
        length_bound=L,
        top_degree=len(i0) - 1,
        degree_zero=tuple(deg0),
        degree_n=tuple(degn),
    )
