"""Nerve and Davis-complex combinatorics with two independent routes to
compactly supported cohomology.

The sector filtration scans minimal coset representatives chamber by chamber
and reads the answer off per-step verdicts; the Smith-normal-form oracle
computes relative cohomology of finite truncations directly.  The two must
agree once truncations stabilize, and the test suite enforces that.
"""

from __future__ import annotations

from itertools import combinations, repeat, zip_longest
from typing import NamedTuple

from . import intlinalg
from .coxeter import CoxeterElement, _lowest, weyl_group
from .errors import DominantKError, ResourceExceededError, WrongTypeError
from .gcm import FINITE, GeneralizedCartanMatrix, classify_type, spherical_poset

FULL = "full"
EMPTY = "empty"
SILENT = "silent"

#: cells are enumerated per chamber; posets with more chains than this are
#: refused, counted before any chain is listed, rather than silently truncated
CHAIN_CAP = 500_000


class SimplicialComplexDesc(NamedTuple):
    """Finite simplicial complex: ``simplices[d]`` holds the d-cells as tuples of
    vertex labels in one shared order (poset order for chains; a truncation
    labels the points w(lambda_T) 0, 1, ... as first met, see davis_truncation)."""

    simplices: tuple[tuple[tuple, ...], ...]

    def f_vector(self) -> tuple[int, ...]:
        return tuple(len(level) for level in self.simplices)


class IntegerCohomology(NamedTuple):
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


def _levels(cells) -> tuple[tuple[tuple, ...], ...]:
    """Cells grouped by dimension up to the top one; no cells is one empty level."""
    by_dim: dict[int, list] = {}
    for cell in cells:
        by_dim.setdefault(len(cell) - 1, []).append(cell)
    return tuple(tuple(by_dim.get(d, ())) for d in range(max(by_dim, default=0) + 1))


def _complex_from_cells(cells) -> SimplicialComplexDesc:
    """Close cells given as tuples of comparable labels under faces, each
    listing its vertices in sorted order."""
    closed = {face for cell in cells for k in range(1, len(cell) + 1)
              for face in combinations(sorted(cell), k)}
    return SimplicialComplexDesc(_levels(sorted(closed)))


def _chains(members) -> list[tuple]:
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
        frontier = nxt
    return out


def nerve_f_vector(members, cap=None) -> tuple[int, ...]:
    """f-vector of the nerve of a poset of subsets closed under subsets and
    listed by size, refused for a cone (finite type) or past ``cap`` chains:
    chains with k + 1 members ending at T extend those with k ending below T."""
    if tuple(sorted(set().union(*members))) in members:
        raise WrongTypeError("nerve is a cone: the full index set is spherical (finite type)")
    ending = {}
    for T in members:
        ending[T] = counts = [1] + [0] * len(T)
        for Tp in (Tp for size in range(len(T)) for Tp in combinations(T, size)):
            for k, c in enumerate(ending[Tp]):
                counts[k + 1] += c
    f_vector = tuple(map(sum, zip_longest(*ending.values(), fillvalue=0)))
    if cap is not None and sum(f_vector) > cap:
        raise ResourceExceededError(
            f"poset has {sum(f_vector)} inclusion chains, past the cap of {cap}")
    return f_vector


def nerve_complex(poset) -> SimplicialComplexDesc:
    """Geometric realization data of the nerve of a spherical poset that is no cone."""
    nerve_f_vector(poset.members, CHAIN_CAP)
    return SimplicialComplexDesc(_levels(_chains(poset.members)))


# -- Davis complex truncations ------------------------------------------------


def _building_data(A: GeneralizedCartanMatrix):
    """(poset members over I0, I0, J0) for the chamber complex of A.

    Extended compact matrices glue along the enlarged subsets J + J0; all
    other non-finite matrices use their whole spherical poset (I0 = I).
    """
    cls = classify_type(A)
    if cls.kind == FINITE:
        raise WrongTypeError("the chamber complex needs a non-finite matrix")
    i0, j0 = cls.extended_compact or (A.index_set, ())
    members = tuple(m for m in spherical_poset(A).members if set(m) <= set(i0))
    return members, i0, j0


def davis_truncation(A: GeneralizedCartanMatrix, K, L: int):
    """Finite chamber-by-chamber truncation of the K-sector of the chamber
    complex, together with its frontier subcomplex.

    Chambers are the minimal (K-left, J0-right) coset representatives of
    length at most L; the frontier consists of cells also carried by sector
    chambers of length above L.  The vertex w W_T of member m, T = m + J0, is
    the point w(lambda_T), lambda_T 1 off T and 0 on T in coroot coordinates
    (stabilizer W_T: Kac, Prop. 3.12), numbered 0, 1, ... as chambers then members first meet it.
    """
    members, i0, j0 = _building_data(A)
    nerve_f_vector(members, CHAIN_CAP)  # refused before any chamber is walked
    group = weyl_group(A)
    kmask, chambers = group.subset_mask(K), group.min_coset_reps(K, j0, L)

    glued = [tuple(sorted(set(m) | set(j0))) for m in members]
    # w(lambda_T) for each T by w(rho), reflected from the suffix's
    points = {group._rho: tuple(tuple(int(k not in T) for k in range(A.size)) for T in glued)}
    # The first chamber w to meet a vertex is minimal in w W_T and W_K w W_T, so
    # (Deodhar) its sector chambers are w x, x minimal for (M-left, J0-right), M
    # the j in T with w(alpha_j) simple in K; the longest x projects w_T.  A cell
    # is in the frontier when its first vertex (least m) meets a long chamber;
    # a face keeps that coset or moves to a larger one, so stays in the frontier.
    number, meets_long, far, vertices = {}, [], {}, []
    for w in chambers:
        chain, u = [], w
        while u.orbit not in points:
            chain.append(u)
            u = u.suffix
        for v in reversed(chain):
            points[v.orbit] = tuple(map(group._reflect, repeat(_lowest(v.left)), points[u.orbit]))
            u = v
        roots, chamber = group._root_images(w) if kmask else (), []
        for T, point in zip(glued, points[w.orbit]):
            if point not in number:
                number[point] = len(number)
                meet = tuple(j for j in T if kmask and group._simple.get(roots[j], 0) & kmask)
                if (T, meet) not in far:
                    far[T, meet] = group.double_strip(group.longest(T), meet, j0).length
                meets_long.append(w.length + far[T, meet] > L)
            chamber.append(number[point])
        vertices.append(chamber)
    # the cells of a chamber are its chains, a complex closed under faces
    simplices = tuple(
        tuple(dict.fromkeys(tuple(map(chamber.__getitem__, chain))
                            for chamber in vertices for chain in level))
        for level in _levels([tuple(map(members.index, chain)) for chain in _chains(members)])
    )
    frontier = _levels(cell for level in simplices for cell in level if meets_long[cell[0]])
    return SimplicialComplexDesc(simplices), SimplicialComplexDesc(frontier)


# -- Smith normal form oracle ---------------------------------------------------


def cochain_cohomology(sizes, coboundary) -> IntegerCohomology:
    """Integral cohomology, via Smith normal form, of a cochain complex of
    free groups: C^p has rank ``sizes[p]``, and ``coboundary(p, skip)`` lists
    the sparse rows ``{col: value}`` of d^p: C^p -> C^{p+1}, one per basis
    element of C^{p+1} not in ``skip``.  Degree p has free rank sizes[p]
    minus the ranks of the maps out of and into it; its torsion is the
    invariant factors above 1 of the map into it.

    The maps are asked for from the top one down, one at a time, and
    ``skip`` holds the columns P on which the unit sweep of d^{p+1} pivoted,
    with pivot rows R.  The coboundaries must compose to zero.  Rows R of
    d^{p+1}·d^p = 0 then read M·d^p[P] = -d^{p+1}[R, Q]·d^p[Q], where Q are
    the other rows of d^p and the pivot minor M = d^{p+1}[R, P] is
    unimodular.  So the rows P of d^p are integer combinations of the rows
    Q, and leaving them out keeps its invariant factors (Bauer, Kerber and
    Reininghaus's clearing, over Z with unit pivots)."""
    sizes = list(sizes)
    into = [[]] * (len(sizes) + 1)  # invariant factors of the map into each degree
    skip = set()
    for p in reversed(range(len(sizes) - 1)):
        pivots = set()  # the map is a temporary, freed before the next one is built
        into[p + 1] = intlinalg.smith_invariants(coboundary(p, skip), sizes[p], pivots=pivots)
        skip = pivots
    return IntegerCohomology(tuple(
        (size - len(into[p]) - len(into[p + 1]), tuple(d for d in into[p] if d > 1))
        for p, size in enumerate(sizes)
    ))


def snf_cohomology(complex_: SimplicialComplexDesc,
                   relative_to: SimplicialComplexDesc | None = None) -> IntegerCohomology:
    """Integral (relative) simplicial cohomology via Smith normal form.

    ``relative_to`` must be a subcomplex: its cells are cells of the complex,
    listing their vertices in the same order, and it is closed under faces.
    Anything else raises ValueError."""
    excluded = set() if relative_to is None else {
        c for level in relative_to.simplices for c in level}
    cells = [[c for c in level if c not in excluded] for level in complex_.simplices]
    if sum(map(len, complex_.simplices)) - sum(map(len, cells)) != len(excluded):
        raise ValueError("relative_to has cells that are not cells of the complex")
    if any(c[:k] + c[k + 1:] not in excluded
           for c in excluded if len(c) > 1 for k in range(len(c))):
        raise ValueError("relative_to is not closed under faces")

    def coboundary(p, skip):
        # rows: (p+1)-cells, columns: p-cells; transpose of the boundary map
        col_index = {cell: k for k, cell in enumerate(cells[p])}
        rows = []
        for i, big in enumerate(cells[p + 1]):
            if i in skip:
                continue
            row = {}
            for k in range(len(big)):
                j = col_index.get(big[:k] + big[k + 1:])
                if j is not None:
                    row[j] = (-1) ** k
            rows.append(row)
        return rows

    return cochain_cohomology(map(len, cells), coboundary)


def _two_degree_cohomology(top_degree: int, zero_rank: int, top_rank: int) -> IntegerCohomology:
    """Z^zero_rank in degree 0 and Z^top_rank in ``top_degree``, added
    together when the top degree is 0."""
    groups = [(0, ())] * (top_degree + 1)
    groups[top_degree] = (top_rank, ())
    groups[0] = (groups[0][0] + zero_rank, ())
    return IntegerCohomology(tuple(groups))


# -- sector filtration ------------------------------------------------------------


class SectorStep(NamedTuple):
    element: CoxeterElement
    continuation: tuple[int, ...]  # ascent nodes keeping K-left minimality
    verdict: str


class SectorReport(NamedTuple):
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
        return _two_degree_cohomology(
            self.top_degree, int(self.compact), len(self.degree_n_generators))


def sector_filtration_cohomology(A: GeneralizedCartanMatrix, K, L: int) -> SectorReport:
    """Filtration scan of the K-sector of the chamber complex.

    Representatives are the minimal (K-left, I0-right) double coset
    representatives in scan order (length, then ShortLex).  Each step
    records its ascent-continuation set P (nodes j with l(w r_j) > l(w) and
    w r_j still K-left minimal, ``WeylGroup.continuation_mask``) and a
    verdict read from P:

      empty  - P is empty: the scan is exhausted, the sector is compact,
               and the step contributes Z in degree 0;
      full   - P is I0, that is w is maximally pure for (K, I0): the step
               contributes Z in the top degree n;
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
    kmask, i0mask = group.subset_mask(K), group.subset_mask(i0)
    reps = group.min_coset_reps(K, i0, L)
    n = len(i0) - 1

    steps = []
    for idx, w in enumerate(reps):
        pmask = group.continuation_mask(w, kmask)
        verdict = EMPTY if not pmask else FULL if pmask == i0mask else SILENT
        continuation = tuple(j for j in range(A.size) if pmask >> j & 1)
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


class HatSectorReport(NamedTuple):
    """Cohomology of the K-quotient of the induced chamber complex, with the
    coset representatives generating each nonzero degree."""

    subset: tuple[int, ...]
    length_bound: int
    top_degree: int
    degree_zero: tuple[CoxeterElement, ...]
    degree_n: tuple[CoxeterElement, ...]

    def cohomology(self) -> IntegerCohomology:
        return _two_degree_cohomology(
            self.top_degree, len(self.degree_zero), len(self.degree_n))


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
