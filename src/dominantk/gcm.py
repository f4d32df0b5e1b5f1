"""Generalized Cartan matrices: parsing, validation, classification, spherical subsets.

The integer matrix is the root object of the package; Coxeter groups, weight
lattices, character rings and building combinatorics are all derived from it.
All classification arithmetic is exact (integer/rational).
"""

from __future__ import annotations

import functools
import math
from itertools import combinations
from typing import NamedTuple

from .errors import MalformedFileError, NotAGCMError, NotFiniteTypeError

FINITE = "finite"
AFFINE = "affine"
INDEFINITE = "indefinite"

#: Coxeter bond order as a function of the off-diagonal entry product.
#: This is the crystallographic convention; it is validated in the test
#: suite by checking the order of every product of two reflections under
#: the root action.
BOND_ORDER = {0: 2, 1: 3, 2: 4, 3: 6}
INFINITE_ORDER = math.inf


class GeneralizedCartanMatrix:
    """Validated integer matrix with 2's on the diagonal, non-positive
    off-diagonal entries and a symmetric zero pattern.

    Immutable, and equal and hashed by (entries, labels).  ``_memo`` holds
    the data derived from the matrix (see ``per_matrix``) and takes no part
    in equality, hashing or copies."""

    __slots__ = ("entries", "labels", "_memo")

    def __init__(self, entries: tuple[tuple[int, ...], ...], labels: tuple[str, ...]):
        object.__setattr__(self, "entries", entries)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "_memo", {})

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.entries, self.labels) == (other.entries, other.labels)

    def __hash__(self):
        return hash((self.entries, self.labels))

    def __repr__(self):
        return f"GeneralizedCartanMatrix(entries={self.entries!r}, labels={self.labels!r})"

    def __reduce__(self):
        return GeneralizedCartanMatrix, (self.entries, self.labels)

    @property
    def size(self) -> int:
        return len(self.entries)

    @property
    def index_set(self) -> tuple[int, ...]:
        return tuple(range(self.size))

    def submatrix(self, subset) -> "GeneralizedCartanMatrix":
        idx = tuple(sorted(subset))
        rows = tuple(tuple(self.entries[i][j] for j in idx) for i in idx)
        return GeneralizedCartanMatrix(rows, tuple(self.labels[i] for i in idx))

    def blocks(self) -> tuple[tuple[int, ...], ...]:
        """Indecomposable blocks: connected components of the bond graph."""
        out, rest = [], self.index_set
        while rest:
            comp, rest = _component(self.entries, rest)
            out.append(comp)
        return tuple(sorted(out))

    def label_indices(self, names) -> tuple[int, ...]:
        lookup, indices = {lab: i for i, lab in enumerate(self.labels)}, set()
        for name in names:
            if name not in lookup:
                raise KeyError(f"unknown node label {name!r}")
            if lookup[name] in indices:
                raise KeyError(f"node label {name!r} given twice")
            indices.add(lookup[name])
        return tuple(sorted(indices))

    def canonical_text(self) -> str:
        """Canonical serialization (used for reproducibility hashes)."""
        lines = [f"n {self.size}", "labels " + " ".join(self.labels)]
        lines += [" ".join(str(x) for x in row) for row in self.entries]
        return "\n".join(lines) + "\n"


def per_matrix(fn):
    """Memoize ``fn(A, *args)`` in ``A._memo``, so derived data lives exactly
    as long as A.  Racing threads may both compute; all return the first result."""

    @functools.wraps(fn)
    def memoized(A: GeneralizedCartanMatrix, *args):
        key = (fn, *args)
        try:
            return A._memo[key]
        except KeyError:
            return A._memo.setdefault(key, fn(A, *args))

    return memoized


def gcm_from_rows(rows, labels=None) -> GeneralizedCartanMatrix:
    """Validate a square integer matrix as a generalized Cartan matrix.

    Raises NotAGCMError naming the offending entry pair.
    """
    entries = tuple(tuple(int(x) for x in row) for row in rows)
    n = len(entries)
    if n == 0:
        raise NotAGCMError("matrix must have positive size")
    for i, row in enumerate(entries):
        if len(row) != n:
            raise NotAGCMError(f"row {i} has length {len(row)}, expected {n}")
    for i in range(n):
        if entries[i][i] != 2:
            raise NotAGCMError(f"a[{i}][{i}] = {entries[i][i]} must equal 2")
        for j in range(n):
            if i == j:
                continue
            if entries[i][j] > 0:
                raise NotAGCMError(f"a[{i}][{j}] = {entries[i][j]} must be <= 0")
            if (entries[i][j] == 0) != (entries[j][i] == 0):
                raise NotAGCMError(
                    f"a[{i}][{j}] = {entries[i][j]} but a[{j}][{i}] = "
                    f"{entries[j][i]}: zeros must pair up"
                )
    if labels is None:
        labels = tuple(str(i) for i in range(n))
    else:
        labels = tuple(str(x) for x in labels)
        if len(labels) != n:
            raise NotAGCMError(f"{len(labels)} labels for a size-{n} matrix")
        if len(set(labels)) != n:
            raise NotAGCMError("node labels must be distinct")
    return GeneralizedCartanMatrix(entries, labels)


def parse_gcm(text: str) -> GeneralizedCartanMatrix:
    """Parse the GCM text format.

    Format: a line ``n <size>``, an optional line ``labels <name> ...``,
    then ``<size>`` rows of ``<size>`` space-separated integers.  Lines
    starting with ``#`` (and blank lines) are ignored.
    """
    lines = [s for s in (raw.split("#", 1)[0].strip() for raw in text.splitlines()) if s]
    if not lines:
        raise MalformedFileError("empty file")
    head = lines[0].split()
    if len(head) != 2 or head[0] != "n":
        raise MalformedFileError(f"expected 'n <size>' header, got {lines[0]!r}")
    try:
        size = int(head[1])
    except ValueError:
        raise MalformedFileError(f"size {head[1]!r} is not an integer") from None
    if size <= 0:
        raise MalformedFileError("size must be positive")
    body = lines[1:]
    labels = None
    if body and body[0].split()[0] == "labels":
        labels = body[0].split()[1:]
        if len(labels) != size:
            raise MalformedFileError(
                f"labels line has {len(labels)} names, expected {size}"
            )
        body = body[1:]
    if len(body) != size:
        raise MalformedFileError(f"expected {size} matrix rows, found {len(body)}")
    rows = []
    for lineno, line in enumerate(body):
        parts = line.split()
        if len(parts) != size:
            raise MalformedFileError(
                f"matrix row {lineno} has {len(parts)} entries, expected {size}"
            )
        try:
            rows.append([int(x) for x in parts])
        except ValueError:
            raise MalformedFileError(
                f"matrix row {lineno} contains a non-integer entry"
            ) from None
    return gcm_from_rows(rows, labels)


class TypeClassification(NamedTuple):
    kind: str
    symmetrizable: bool
    symmetrizer: tuple[int, ...] | None
    compact_type: bool
    extended_compact: tuple[tuple[int, ...], tuple[int, ...]] | None
    indecomposable: bool


class SphericalPoset(NamedTuple):
    """Subsets J of the node set whose reflection subgroup is finite,
    listed in (size, lexicographic) order and closed downward."""

    members: tuple[tuple[int, ...], ...]

    def __contains__(self, subset) -> bool:
        return tuple(sorted(subset)) in self.members


def _leading_minors(entries) -> list[int]:
    """Leading principal minors of an integer matrix, up to and including the
    first that is not positive: the pivots of one fraction-free (Bareiss)
    elimination without row exchanges."""
    rows = [list(row) for row in entries]
    n = len(rows)
    minors, prev = [], 1
    for k in range(n):
        pivot = rows[k][k]
        minors.append(pivot)
        if pivot <= 0:
            break
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                rows[i][j] = (rows[i][j] * pivot - rows[i][k] * rows[k][j]) // prev
        prev = pivot
    return minors


def _block_kind(entries) -> str:
    """Type of an indecomposable block via exact principal minors."""
    minors = _leading_minors(entries)
    if len(minors) == len(entries) and minors[-1] >= 0:
        return FINITE if minors[-1] else AFFINE
    return INDEFINITE


def _component(entries, nodes: tuple[int, ...]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The sorted bond-graph component of the last node within ``nodes``,
    and the other nodes in their given order."""
    comp, stack, rest = list(nodes[-1:]), list(nodes[-1:]), nodes[:-1]
    while stack:
        row = entries[stack.pop()]
        near = [j for j in rest if row[j]]
        if near:
            comp += near
            stack += near
            rest = tuple(j for j in rest if not row[j])
    return tuple(sorted(comp)), rest


@per_matrix
def _subset_finite(A: GeneralizedCartanMatrix, subset: tuple[int, ...]) -> bool:
    # finite type holds blockwise (Kac, ch. 4): a connected subset is finite
    # iff its leading minors are all positive, any other iff both the
    # component of its last node and the rest are, each tested once
    a = A.entries
    comp, rest = _component(a, subset)
    if rest:
        return _subset_finite(A, rest) and _subset_finite(A, comp)
    return all(m > 0 for m in _leading_minors([[a[i][j] for j in subset] for i in subset]))


def is_finite_type(A: GeneralizedCartanMatrix, subset=None) -> bool:
    """Finite-type test for the matrix or one of its principal submatrices."""
    idx = A.index_set if subset is None else tuple(sorted(set(subset)))
    if idx and not 0 <= idx[0] <= idx[-1] < A.size:
        raise IndexError(f"node subset {idx} has an index outside 0..{A.size - 1}")
    return _subset_finite(A, idx)


def finite_subset(A: GeneralizedCartanMatrix, subset) -> tuple[int, ...]:
    """The sorted subset, refused unless its reflection subgroup is finite."""
    J = tuple(sorted(set(subset)))
    if not is_finite_type(A, J):
        raise NotFiniteTypeError(f"subset {J} does not span a finite subgroup")
    return J


def _symmetrizer(A: GeneralizedCartanMatrix):
    """Positive diagonal d with d_i a_ij = d_j a_ji, as a primitive positive
    integer vector, or None if no such d exists.

    Each block's first node gets the current unit, and its other nodes
    d_j = d_i a_ij / a_ji along a search tree; where that quotient is not
    integral, every value set so far (and the unit) is scaled to make it so."""
    n, a = A.size, A.entries
    d, unit = [0] * n, 1
    for block in A.blocks():
        d[block[0]] = unit
        stack = [block[0]]
        while stack:
            i = stack.pop()
            for j in range(n):
                if a[i][j] and i != j and not d[j]:
                    num, den = d[i] * a[i][j], a[j][i]
                    scale = -den // math.gcd(num, den)
                    if scale > 1:
                        d = [x * scale for x in d]
                        unit, num = unit * scale, num * scale
                    d[j] = num // den
                    stack.append(j)
    if any(d[i] * a[i][j] != d[j] * a[j][i] for i in range(n) for j in range(n)):
        return None
    g = math.gcd(*d)
    return tuple(x // g for x in d)


@per_matrix
def classify_type(A: GeneralizedCartanMatrix) -> TypeClassification:
    """Classify a generalized Cartan matrix.

    The finite/affine/indefinite verdict is computed per indecomposable
    block from exact leading principal minors (all positive: finite; all
    proper positive with zero determinant: affine).  A decomposable matrix
    reports the worst verdict among its blocks.  The compact and extended
    predicates are evaluated on the whole matrix.

    Finite type passes to subsets (Kac, ch. 4), so every non-finite subset
    contains I0, the nodes whose removal leaves finite type: A is compact
    when I0 = I, and otherwise extended compact with (I0, I - I0) exactly
    when I0 is itself not of finite type.
    """
    blocks = A.blocks()
    kinds = [_block_kind([[A.entries[i][j] for j in b] for i in b]) for b in blocks]
    if all(k == FINITE for k in kinds):
        kind = FINITE
    elif all(k in (FINITE, AFFINE) for k in kinds):
        kind = AFFINE
    else:
        kind = INDEFINITE
    sym = _symmetrizer(A)
    nodes = A.index_set
    i0 = tuple(i for i in nodes if _subset_finite(A, nodes[:i] + nodes[i + 1:]))
    compact = i0 == nodes
    extended = None
    if not compact and not _subset_finite(A, i0):
        extended = (i0, tuple(i for i in nodes if i not in i0))
    return TypeClassification(
        kind=kind,
        symmetrizable=sym is not None,
        symmetrizer=sym,
        compact_type=compact,
        extended_compact=extended,
        indecomposable=len(blocks) == 1,
    )


@per_matrix
def spherical_poset(A: GeneralizedCartanMatrix) -> SphericalPoset:
    """All subsets J with a finite reflection subgroup, ordered by inclusion."""
    members = [
        subset
        for size in range(A.size + 1)
        for subset in combinations(A.index_set, size)
        if _subset_finite(A, subset)
    ]
    return SphericalPoset(members=tuple(members))


def coxeter_matrix(A: GeneralizedCartanMatrix):
    """Orders m[i][j] of the products of two simple reflections.

    Off-diagonal orders depend on the entry product a_ij * a_ji through the
    table {0: 2, 1: 3, 2: 4, 3: 6, >=4: infinity}; math.inf is the sentinel.
    """
    n = A.size
    rows = []
    for i in range(n):
        row = []
        for j in range(n):
            if i == j:
                row.append(1)
            else:
                prod = A.entries[i][j] * A.entries[j][i]
                row.append(BOND_ORDER.get(prod, INFINITE_ORDER))
        rows.append(tuple(row))
    return tuple(rows)

