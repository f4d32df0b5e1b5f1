"""Generalized Cartan matrices: parsing, validation, classification, spherical subsets.

The integer matrix is the root object of the package; Coxeter groups, weight
lattices, character rings and building combinatorics are all derived from it.
All classification arithmetic is exact (integer/rational).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations

from . import intlinalg
from .errors import MalformedFileError, NotAGCMError, WrongTypeError

FINITE = "finite"
AFFINE = "affine"
INDEFINITE = "indefinite"

#: Coxeter bond order as a function of the off-diagonal entry product.
#: This is the crystallographic convention; it is validated in the test
#: suite by checking the order of every product of two reflections under
#: the root action.
BOND_ORDER = {0: 2, 1: 3, 2: 4, 3: 6}
INFINITE_ORDER = math.inf


@dataclass(frozen=True)
class GeneralizedCartanMatrix:
    """Validated integer matrix with 2's on the diagonal, non-positive
    off-diagonal entries and a symmetric zero pattern."""

    entries: tuple[tuple[int, ...], ...]
    labels: tuple[str, ...]

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
        n = self.size
        seen = [False] * n
        out = []
        for start in range(n):
            if seen[start]:
                continue
            comp = []
            stack = [start]
            seen[start] = True
            while stack:
                i = stack.pop()
                comp.append(i)
                for j in range(n):
                    if not seen[j] and self.entries[i][j] != 0:
                        seen[j] = True
                        stack.append(j)
            out.append(tuple(sorted(comp)))
        return tuple(sorted(out))

    def label_indices(self, names) -> tuple[int, ...]:
        lookup = {lab: i for i, lab in enumerate(self.labels)}
        try:
            return tuple(sorted(lookup[name] for name in names))
        except KeyError as exc:
            raise KeyError(f"unknown node label {exc.args[0]!r}") from None

    def canonical_text(self) -> str:
        """Canonical serialization (used for reproducibility hashes)."""
        lines = [f"n {self.size}", "labels " + " ".join(self.labels)]
        lines += [" ".join(str(x) for x in row) for row in self.entries]
        return "\n".join(lines) + "\n"


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
    lines = []
    for raw in text.splitlines():
        stripped = raw.split("#", 1)[0].strip()
        if stripped:
            lines.append(stripped)
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


@dataclass(frozen=True)
class TypeClassification:
    kind: str
    symmetrizable: bool
    symmetrizer: tuple[int, ...] | None
    compact_type: bool
    extended_compact: tuple[tuple[int, ...], tuple[int, ...]] | None
    indecomposable: bool


@dataclass(frozen=True)
class SphericalPoset:
    """Subsets J of the node set whose reflection subgroup is finite,
    listed in (size, lexicographic) order and closed downward."""

    members: tuple[tuple[int, ...], ...]

    def __contains__(self, subset) -> bool:
        return tuple(sorted(subset)) in self.members


def _leading_minors(entries) -> list[int]:
    n = len(entries)
    return [
        intlinalg.det([row[: k + 1] for row in entries[: k + 1]])
        for k in range(n)
    ]


def _block_kind(entries) -> str:
    """Type of an indecomposable block via exact principal minors."""
    minors = _leading_minors(entries)
    if all(m > 0 for m in minors):
        return FINITE
    if all(m > 0 for m in minors[:-1]) and minors[-1] == 0:
        return AFFINE
    return INDEFINITE


@lru_cache(maxsize=None)
def _subset_finite(A: GeneralizedCartanMatrix, subset: tuple[int, ...]) -> bool:
    if not subset:
        return True
    sub = A.submatrix(subset)
    return all(_block_kind(sub.submatrix(b).entries) == FINITE for b in sub.blocks())


def is_finite_type(A: GeneralizedCartanMatrix, subset=None) -> bool:
    """Finite-type test for the matrix or one of its principal submatrices."""
    idx = A.index_set if subset is None else tuple(sorted(subset))
    return _subset_finite(A, idx)


def _symmetrizer(A: GeneralizedCartanMatrix):
    """Positive rational diagonal d with d_i a_ij = d_j a_ji, as a primitive
    positive integer vector, or None if no such d exists."""
    n = A.size
    d: list[Fraction | None] = [None] * n
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
    denom = 1
    for x in d:
        denom = denom * x.denominator // math.gcd(denom, x.denominator)
    ints = [int(x * denom) for x in d]
    g = 0
    for x in ints:
        g = math.gcd(g, x)
    return tuple(x // g for x in ints)


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


@lru_cache(maxsize=None)
def classify_type(A: GeneralizedCartanMatrix) -> TypeClassification:
    """Classify a generalized Cartan matrix.

    The finite/affine/indefinite verdict is computed per indecomposable
    block from exact leading principal minors (all positive: finite; all
    proper positive with zero determinant: affine).  A decomposable matrix
    reports the worst verdict among its blocks.  The compact and extended
    predicates are evaluated on the whole matrix.
    """
    blocks = A.blocks()
    kinds = [_block_kind(A.submatrix(b).entries) for b in blocks]
    if all(k == FINITE for k in kinds):
        kind = FINITE
    elif all(k in (FINITE, AFFINE) for k in kinds):
        kind = AFFINE
    else:
        kind = INDEFINITE
    sym = _symmetrizer(A)
    compact = all(
        is_finite_type(A, sub)
        for sub in combinations(A.index_set, A.size - 1)
    )
    extended = None if compact else _extended_compact(A)
    return TypeClassification(
        kind=kind,
        symmetrizable=sym is not None,
        symmetrizer=sym,
        compact_type=compact,
        extended_compact=extended,
        indecomposable=len(blocks) == 1,
    )


@lru_cache(maxsize=None)
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


def require_non_finite(A: GeneralizedCartanMatrix) -> None:
    if classify_type(A).kind == FINITE:
        raise WrongTypeError("operation requires a matrix that is not of finite type")
