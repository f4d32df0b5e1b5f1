"""Exact linear algebra over the integers and rationals.

Everything here works with Python ints / Fractions; no floating point is used
anywhere, so determinants, ranks and Smith normal forms are exact at any size.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd


def det(rows) -> int:
    """Determinant of a square integer matrix (fraction-free Bareiss)."""
    n = len(rows)
    if n == 0:
        return 1
    m = [list(map(int, r)) for r in rows]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k]:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def _rref(rows):
    """Reduced row echelon form over the rationals: (rows, pivot columns)."""
    m = [[Fraction(x) for x in row] for row in rows]
    nrows = len(m)
    ncols = len(m[0]) if nrows else 0
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        if r == nrows:
            break
        pivot = next((i for i in range(r, nrows) if m[i][c]), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        inv = 1 / m[r][c]
        m[r] = [x * inv for x in m[r]]
        for i in range(nrows):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
    return m, pivots


def rank(rows) -> int:
    """Rank of an integer (or Fraction) matrix via exact Gaussian elimination."""
    return len(_rref(rows)[1])


def primitive_null_vector(rows) -> tuple[int, ...]:
    """Primitive integer kernel vector of a square matrix with corank one.

    Raises ValueError if the kernel is not one dimensional.  The sign is
    normalized so that the first nonzero entry is positive.
    """
    n = len(rows)
    m, pivots = _rref(rows)
    free = [c for c in range(n) if c not in pivots]
    if len(free) != 1:
        raise ValueError("matrix does not have corank one")
    c0 = free[0]
    vec = [Fraction(0)] * n
    vec[c0] = Fraction(1)
    for r, c in enumerate(pivots):
        vec[c] = -m[r][c0]
    denom = 1
    for x in vec:
        denom = denom * x.denominator // gcd(denom, x.denominator)
    ints = [int(x * denom) for x in vec]
    g = 0
    for x in ints:
        g = gcd(g, x)
    ints = [x // g for x in ints]
    lead = next(x for x in ints if x)
    if lead < 0:
        ints = [-x for x in ints]
    return tuple(ints)


def smith_invariants(dense_rows, ncols=None) -> list[int]:
    """Invariant factors (positive, each dividing the next) of an integer matrix.

    Accepts either a dense list of rows or a sparse list of ``{col: value}``
    dicts (with ``ncols`` given).  Small unit pivots are preferred so sparse
    boundary matrices reduce without coefficient blowup.
    """
    if ncols is None:
        sparse = [
            {j: v for j, v in enumerate(row) if v} for row in dense_rows
        ]
    else:
        sparse = [dict(row) for row in dense_rows]
    rows = {i: r for i, r in enumerate(sparse) if r}
    cols: dict[int, set[int]] = {}
    for i, r in rows.items():
        for j in r:
            cols.setdefault(j, set()).add(i)

    def set_entry(i, j, v):
        r = rows.get(i)
        if r is None:
            if v:
                rows[i] = {j: v}
                cols.setdefault(j, set()).add(i)
            return
        if v:
            if j not in r:
                cols.setdefault(j, set()).add(i)
            r[j] = v
        elif j in r:
            del r[j]
            cols[j].discard(i)
            if not cols[j]:
                del cols[j]
            if not r:
                del rows[i]

    def add_row_multiple(dst, src, c):
        # row[dst] += c * row[src]
        for j, v in list(rows.get(src, {}).items()):
            set_entry(dst, j, rows.get(dst, {}).get(j, 0) + c * v)

    def add_col_multiple(dst, src, c):
        # col[dst] += c * col[src]
        for i in list(cols.get(src, set())):
            v = rows[i].get(src, 0)
            set_entry(i, dst, rows.get(i, {}).get(dst, 0) + c * v)

    diag: list[int] = []
    while rows:
        # pivot choice: units first, then smallest magnitude, then least fill
        best = None
        for i, r in rows.items():
            for j, v in r.items():
                key = (abs(v) != 1, abs(v), len(r) * len(cols[j]))
                if best is None or key < best[0]:
                    best = (key, i, j)
                    if key[0] is False and key[2] <= 1:
                        break
            else:
                continue
            break
        _, pi, pj = best
        while True:
            p = rows[pi][pj]
            # clear the pivot column with exact or euclidean steps
            dirty = False
            for i in list(cols.get(pj, set())):
                if i == pi:
                    continue
                v = rows[i].get(pj, 0)
                if v:
                    add_row_multiple(i, pi, -(v // p))
                    if rows.get(i, {}).get(pj, 0):
                        # remainder is smaller than |p|: swap pivot row
                        pi = i
                        dirty = True
                        break
            if dirty:
                continue
            for j in list(rows.get(pi, {}).keys()):
                if j == pj:
                    continue
                v = rows[pi].get(j, 0)
                if v:
                    add_col_multiple(j, pj, -(v // p))
                    if rows.get(pi, {}).get(j, 0):
                        pj = j
                        dirty = True
                        break
            if dirty:
                continue
            if len(rows.get(pi, {})) == 1 and len(cols.get(pj, set())) == 1:
                break
        p = abs(rows[pi][pj])
        set_entry(pi, pj, 0)
        diag.append(p)

    # enforce the divisibility chain
    diag = [d for d in diag if d]
    changed = True
    while changed:
        changed = False
        for a in range(len(diag)):
            for b in range(a + 1, len(diag)):
                if diag[b] % diag[a]:
                    g = gcd(diag[a], diag[b])
                    l = diag[a] * diag[b] // g
                    diag[a], diag[b] = g, l
                    changed = True
    diag.sort()
    return diag
