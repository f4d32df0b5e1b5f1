"""Exact linear algebra over the integers.

Everything here works with Python ints; no floating point or rational is
used anywhere, so determinants, ranks, kernel vectors and Smith normal forms
are exact at any size.
"""

from __future__ import annotations

from collections import defaultdict
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


def rank(rows) -> int:
    """Rank of an integer matrix: the number of its invariant factors."""
    return len(smith_invariants(rows))


def primitive_null_vector(rows) -> tuple[int, ...]:
    """Primitive integer kernel vector of a square matrix with corank one.

    Raises ValueError if the kernel is not one dimensional.  The sign is
    normalized so that the first nonzero entry is positive.  The adjugate of
    a corank-one matrix has rank one and each of its columns, a row of
    cofactors, lies in the kernel; the first nonzero one is returned
    divided by its gcd.
    """
    n = len(rows)
    if rank(rows) != n - 1:
        raise ValueError("matrix does not have corank one")
    cofactor_rows = (
        [(-1) ** (i + j) * det([r[:j] + r[j + 1:] for k, r in enumerate(rows) if k != i])
         for j in range(n)]
        for i in range(n)
    )
    row = next(r for r in cofactor_rows if any(r))
    g = gcd(*row) if next(x for x in row if x) > 0 else -gcd(*row)
    return tuple(x // g for x in row)


def smith_invariants(dense_rows, ncols=None, *, pivots=None) -> list[int]:
    """Invariant factors (positive, each dividing the next) of an integer matrix.

    Accepts either a dense list of rows or a sparse list of ``{col: value}``
    dicts (with ``ncols`` given), left unmodified; the unit sweep adds its
    pivot columns to ``pivots``.  The input's minor on the pivot rows and
    columns is unimodular: in pivot order, each pivot row is its input row
    plus multiples of the earlier ones, with ±1 at its own pivot column and
    0 at the earlier ones, so the minor is a unimodular row change of a
    triangular matrix with ±1 on its diagonal.  Two stages:

    1. Unit sweep.  Rows are taken shortest first from stacks indexed by row
       length: a row changed by a row operation is pushed again, and the
       scan restarts at the shortest row a pivot changed.  In each row the
       ±1 entry whose column lists the fewest rows is the pivot: row
       operations clear its column, and the pivot row and column are dropped
       with an invariant factor 1.  A unit pivot needs no column operations,
       since they would touch nothing outside its row.  A column's list is
       lazy: fill appends a row, and a row that has lost the entry or been
       pivoted away is skipped when read, so a list's length, which only
       the pivot choice reads, may overcount.
    2. Residual.  Once no ±1 entry is left, the remaining rows go to a dense
       Euclidean Smith normal form.  Boundary matrices usually leave none.
    """
    if ncols is None:
        dense_rows = [dict(enumerate(row)) for row in dense_rows]
    rows = [{j: v for j, v in r.items() if v} for r in dense_rows]
    cols: dict[int, list[int]] = defaultdict(list)
    # row indices by the length they were pushed at
    buckets: list[list[int]] = [[] for _ in range(max(map(len, rows), default=0) + 1)]
    for i, r in enumerate(rows):
        for j in r:
            cols[j].append(i)
        buckets[len(r)].append(i)

    units, size = 0, 0
    while size < len(buckets):
        if not buckets[size]:
            size += 1
            continue
        pi = buckets[size].pop()
        prow = rows[pi]
        if prow is None or len(prow) != size:
            continue  # stale: the row was used or changed and pushed again
        pj, fewest = None, None
        for j, v in prow.items():
            if (v == 1 or v == -1) and (pj is None or len(cols[j]) < fewest):
                pj, fewest = j, len(cols[j])
        if pj is None:
            continue
        rows[pi] = None
        p = prow.pop(pj)
        for i in cols.pop(pj):
            row = rows[i]
            if row is None or pj not in row:
                continue  # stale: pivoted away, or the entry cancelled
            # row[i] -= c * row[pi] clears column pj: the pop alone when the
            # pivot row has no other entry
            c = row.pop(pj) * p
            for j, v in prow.items():
                new = row.get(j, 0) - c * v
                if new:
                    if j not in row:
                        cols[j].append(i)
                    row[j] = new
                else:
                    del row[j]
            n = len(row)
            while n >= len(buckets):
                buckets.append([])
            buckets[n].append(i)
            if n < size:
                size = n
        if pivots is not None:
            pivots.add(pj)
        units += 1

    rest = [r for r in rows if r]
    used = sorted({j for r in rest for j in r})
    return [1] * units + _dense_smith([[r.get(j, 0) for j in used] for r in rest])


def _dense_smith(m) -> list[int]:
    """Smith invariants of a dense integer matrix: move the smallest entry to
    the corner and reduce its row and column by Euclidean steps until both are
    clear; while the corner fails to divide some row, add that row to the top
    one, so that the diagonal is a divisibility chain."""
    diag = []
    while True:
        entries = [(abs(v), i, j) for i, row in enumerate(m) for j, v in enumerate(row) if v]
        if not entries:
            return diag
        _, pi, pj = min(entries)
        m[0], m[pi] = m[pi], m[0]
        for row in m:
            row[0], row[pj] = row[pj], row[0]
        p, top = m[0][0], m[0]
        clear = True
        for row in m[1:]:
            q = row[0] // p
            for j in range(len(row)):
                row[j] -= q * top[j]
            clear = clear and not row[0]
        for j in range(1, len(top)):
            q = top[j] // p
            for row in m:
                row[j] -= q * row[0]
            clear = clear and not top[j]
        if not clear:
            continue
        bad = next((row for row in m[1:] if any(v % p for v in row)), None)
        if bad is None:
            diag.append(abs(p))
            m = [row[1:] for row in m[1:]]
        else:
            m[0] = [a + b for a, b in zip(top, bad)]
