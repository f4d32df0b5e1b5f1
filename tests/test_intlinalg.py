import random
from fractions import Fraction
from itertools import combinations
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dominantk import davis, intlinalg
from dominantk.davis import _complex_from_cells, davis_truncation, snf_cohomology


def brute_det(rows):
    # cofactor expansion, the slow-but-obvious oracle
    n = len(rows)
    if n == 1:
        return rows[0][0]
    total = 0
    for j in range(n):
        minor = [r[:j] + r[j + 1 :] for r in rows[1:]]
        total += (-1) ** j * rows[0][j] * brute_det(minor)
    return total


def minor_gcd_invariants(rows, ncols):
    """Invariant factors via gcds of k x k minors: d_1...d_k = gcd of all
    k-minors.  Exponential, only for tiny matrices."""
    nrows = len(rows)
    out = []
    prev = 1
    for k in range(1, min(nrows, ncols) + 1):
        g = 0
        for ri in combinations(range(nrows), k):
            for ci in combinations(range(ncols), k):
                sub = [[rows[i][j] for j in ci] for i in ri]
                g = gcd(g, brute_det(sub))
        if g == 0:
            break
        out.append(g // prev)
        prev = g
    return out


def smith_invariants_reference(dense_rows, ncols=None) -> list[int]:
    """Invariant factors (positive, each dividing the next) of an integer matrix.

    The general sparse routine that ``intlinalg.smith_invariants`` replaced,
    kept verbatim as its oracle: every pivot is chosen by a scan of all
    nonzeros (units first, then smallest magnitude, then least fill).

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


def rank_reference(rows) -> int:
    """Rank of an integer (or Fraction) matrix via exact Gaussian elimination.

    The rational Gauss-Jordan route that ``intlinalg.rank`` replaced, kept
    verbatim (with ``_rref`` and ``primitive_null_vector_reference``) as its
    oracle."""
    return len(_rref(rows)[1])


def primitive_null_vector_reference(rows) -> tuple[int, ...]:
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


def test_det_against_cofactors():
    rng = random.Random(7)
    for _ in range(50):
        n = rng.randint(1, 5)
        rows = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
        assert intlinalg.det(rows) == brute_det(rows)


def test_rank_basics():
    assert intlinalg.rank([[2, -2], [-2, 2]]) == 1
    assert intlinalg.rank([[2, -1], [-1, 2]]) == 2
    assert intlinalg.rank([[0, 0], [0, 0]]) == 0


def test_primitive_null_vector_affine_a1():
    assert intlinalg.primitive_null_vector([[2, -2], [-2, 2]]) == (1, 1)


def test_primitive_null_vector_twisted():
    # [[2,-1],[-4,2]]: kernel generated by (1, 2)
    assert intlinalg.primitive_null_vector([[2, -4], [-1, 2]]) == (2, 1)
    with pytest.raises(ValueError):
        intlinalg.primitive_null_vector([[2, -1], [-1, 2]])


# -- rank and kernel vector against the rational Gauss-Jordan references -------------

DENSE_ENTRIES = st.sampled_from((0, 1, -1, 2, -2, 3, -3, 4, -6))


@st.composite
def dependent_matrices(draw):
    """Integer matrices up to 6 x 6, square half of the time, in which some
    rows are integer combinations of the rows above them."""
    nrows = draw(st.integers(0, 6))
    ncols = nrows if draw(st.booleans()) else draw(st.integers(1, 6))
    rows = []
    for _ in range(nrows):
        if rows and draw(st.booleans()):
            coeffs = draw(st.lists(st.integers(-2, 2), min_size=len(rows), max_size=len(rows)))
            rows.append([sum(c * r[j] for c, r in zip(coeffs, rows)) for j in range(ncols)])
        else:
            rows.append(draw(st.lists(DENSE_ENTRIES, min_size=ncols, max_size=ncols)))
    return rows


def _null_vector_or_error(route, rows):
    try:
        return route(rows)
    except ValueError:
        return ValueError


def _assert_rank_and_null_vector_match(rows):
    assert intlinalg.rank(rows) == rank_reference(rows)
    if all(len(r) == len(rows) for r in rows):
        assert _null_vector_or_error(intlinalg.primitive_null_vector, rows) == (
            _null_vector_or_error(primitive_null_vector_reference, rows))


@settings(max_examples=400, deadline=None)
@given(dependent_matrices())
def test_rank_and_null_vector_match_reference(rows):
    _assert_rank_and_null_vector_match(rows)


def test_rank_and_null_vector_match_reference_on_bundled_matrices(matrices):
    for A in matrices.values():
        _assert_rank_and_null_vector_match([list(r) for r in A.entries])
        _assert_rank_and_null_vector_match([list(r) for r in zip(*A.entries)])


def test_smith_known_cases():
    assert intlinalg.smith_invariants([[2, 0], [0, 3]]) == [1, 6]
    assert intlinalg.smith_invariants([[1, 0], [0, 0]]) == [1]
    assert intlinalg.smith_invariants([[0, 0], [0, 0]]) == []
    assert intlinalg.smith_invariants([[2, 4, 4], [-6, 6, 12], [10, 4, 16]]) == [2, 2, 156]


def test_smith_against_minor_gcds():
    rng = random.Random(21)
    for _ in range(60):
        nrows = rng.randint(1, 4)
        ncols = rng.randint(1, 4)
        rows = [[rng.randint(-3, 3) for _ in range(ncols)] for _ in range(nrows)]
        expected = minor_gcd_invariants(rows, ncols)
        assert intlinalg.smith_invariants(rows) == expected


def test_smith_sparse_input():
    rows = [{0: 1, 2: -1}, {1: 2}]
    assert intlinalg.smith_invariants(rows, 3) == [1, 2]


def kernel_basis(rows, ncols) -> list[tuple[int, ...]]:
    """Integer vectors spanning the rational kernel of an integer matrix, one
    per free column of its reduced row echelon form."""
    m, pivots = _rref(rows or [[0] * ncols])
    basis = []
    for free in (c for c in range(ncols) if c not in pivots):
        vec = [Fraction(0)] * ncols
        vec[free] = Fraction(1)
        for r, c in enumerate(pivots):
            vec[c] = -m[r][free]
        denom = 1
        for x in vec:
            denom = denom * x.denominator // gcd(denom, x.denominator)
        basis.append(tuple(int(x * denom) for x in vec))
    return basis


# -- the unit sweep against the minor-gcd and pre-sweep oracles ---------------------

#: dense unit entries mixed with non-units, so that both the sweep (with
#: fill-in) and the dense residual stage run
ENTRIES = st.sampled_from((1, -1, 1, -1, 1, -1, 2, -2, 3, -3, 4, -4, 6, -6))


@st.composite
def sparse_matrices(draw, max_size):
    ncols = draw(st.integers(1, max_size))
    row = st.dictionaries(st.integers(0, ncols - 1), ENTRIES, max_size=min(ncols, 6))
    return draw(st.lists(row, max_size=max_size)), ncols


@settings(max_examples=300, deadline=None)
@given(sparse_matrices(4))
def test_smith_property_against_minor_gcds(matrix):
    rows, ncols = matrix
    dense = [[row.get(j, 0) for j in range(ncols)] for row in rows]
    expected = minor_gcd_invariants(dense, ncols)
    assert intlinalg.smith_invariants(rows, ncols) == expected
    assert intlinalg.smith_invariants(dense) == expected


@st.composite
def two_per_column_matrices(draw):
    """±1 matrices up to 40 x 40 with at most two nonzeros per column: the
    shape of a truncation's top coboundary and of the oracle's face maps."""
    nrows, ncols = draw(st.integers(1, 40)), draw(st.integers(1, 40))
    rows = [{} for _ in range(nrows)]
    for j in range(ncols):
        for i in draw(st.lists(st.integers(0, nrows - 1), max_size=2, unique=True)):
            rows[i][j] = draw(st.sampled_from((1, -1)))
    return rows, ncols


@settings(max_examples=300, deadline=None)
@given(st.one_of(sparse_matrices(30), two_per_column_matrices()))
def test_smith_property_against_reference(matrix):
    rows, ncols = matrix
    before = [dict(row) for row in rows]
    assert intlinalg.smith_invariants(rows, ncols) == smith_invariants_reference(rows, ncols)
    assert rows == before  # the input is not modified


@settings(max_examples=300, deadline=None)
@given(st.one_of(sparse_matrices(30), two_per_column_matrices()))
def test_smith_pivot_columns_are_unimodular(matrix):
    """The columns that the sweep pivots on carry a unimodular minor: the
    matrix cut down to them has invariant factors 1, one per pivot column."""
    rows, ncols = matrix
    pivots = set()
    result = intlinalg.smith_invariants(rows, ncols, pivots=pivots)
    assert len(pivots) <= result.count(1)
    kept = [{j: v for j, v in row.items() if j in pivots} for row in rows]
    assert smith_invariants_reference(kept, ncols) == [1] * len(pivots)


def test_smith_skips_a_column_entry_lost_and_regained():
    """Row 2 loses column 0 by cancellation under the pivot of row 3, and
    regains it through fill under the pivot of row 1; so column 0's list
    holds row 2 twice, and the pivot of row 0 visits it once more after
    clearing it, and skips it."""
    rows = [{0: 2, 1: -1}, {0: -1, 1: 1}, {0: -1, 1: 2, 2: -1}, {0: 1, 2: 1}]
    before = [dict(row) for row in rows]
    pivots = set()
    assert intlinalg.smith_invariants(rows, 3, pivots=pivots) == [1, 1, 1]
    assert pivots == {0, 1, 2}
    assert rows == before
    assert smith_invariants_reference(rows, 3) == [1, 1, 1]


def test_smith_torsion_block_beside_unit_rows():
    block = [[2, 4, 4], [-6, 6, 12], [10, 4, 16]]
    rows = [{3: 1, 0: 2, 1: -3}]
    rows += [{j: v for j, v in enumerate(r)} for r in block]
    rows += [{4: -1, 5: 1, 2: 3}, {5: 1, 0: 4}]
    assert intlinalg.smith_invariants(rows, 6) == [1, 1, 1, 2, 2, 156]
    assert smith_invariants_reference(rows, 6) == [1, 1, 1, 2, 2, 156]


def test_smith_empty_rows_and_unused_columns():
    assert intlinalg.smith_invariants([{}, {0: 2}, {}, {1: 1}], 3) == [1, 2]
    assert intlinalg.smith_invariants([{}, {}], 4) == []
    assert intlinalg.smith_invariants([{0: 3}, {2: -6}], 10) == [3, 6]
    assert intlinalg.smith_invariants([[], []]) == []
    assert intlinalg.smith_invariants([]) == []


#: a 6-vertex triangulation of the real projective plane, for torsion
RP2 = [(1, 2, 6), (2, 3, 4), (1, 3, 4), (1, 2, 5), (2, 3, 5),
       (1, 3, 6), (2, 4, 6), (1, 4, 5), (3, 5, 6), (4, 5, 6)]


def _random_simplicial_pair(rng):
    """Some triangles of RP2 and a few random simplices on vertices 0..6,
    relative to the closure of some of their cells."""
    cells = [t for t in RP2 if rng.random() < 0.8]
    cells += [tuple(rng.sample(range(7), rng.randint(1, 4))) for _ in range(rng.randint(0, 3))]
    complex_ = _complex_from_cells(cells)
    faces = [c for level in complex_.simplices for c in level]
    return complex_, _complex_from_cells(rng.sample(faces, rng.randint(0, len(faces) // 3)))


def recording_maps(monkeypatch):
    """Patch ``davis.cochain_cohomology`` and ``intlinalg.smith_invariants``
    to record, per map in call order, (full rows, ncols, skipped, invariants):
    the full rows come from asking the coboundary for them with no skip."""
    maps, results = [], []
    cohomology, sweep = davis.cochain_cohomology, intlinalg.smith_invariants

    def recording_cohomology(sizes, coboundary):
        sizes = list(sizes)

        def recorded(p, skip):
            maps.append((coboundary(p, set()), sizes[p], len(skip)))
            return coboundary(p, skip)

        return cohomology(sizes, recorded)

    def recording_sweep(rows, ncols=None, **keywords):
        results.append(sweep(rows, ncols, **keywords))
        return results[-1]

    monkeypatch.setattr(davis, "cochain_cohomology", recording_cohomology)
    monkeypatch.setattr(intlinalg, "smith_invariants", recording_sweep)
    return lambda: [m + (r,) for m, r in zip(maps, results, strict=True)]


def test_unit_sweep_matches_reference_on_ext4_truncation(matrices, monkeypatch):
    """Each coboundary's invariants, with the rows that the sweep of the map
    above it pivoted on left out, equal the reference's on the full map: on
    the ext4 truncation and on random simplicial pairs."""
    complex_, frontier = davis_truncation(matrices["ext4"], (3,), 10)
    assert complex_.f_vector() == (1637, 4522, 2886)
    assert frontier.f_vector() == (592, 646)
    recorded = recording_maps(monkeypatch)
    snf_cohomology(complex_, frontier)
    # one coboundary matrix per degree below the top, the top one first: its
    # rows are the 2-cells, and the 1-cells it pivoted on are not rows of the
    # map below it
    (_, _, top_skipped, _), (low, _, low_skipped, _) = recorded()
    assert top_skipped == 0 and (len(low), low_skipped) == (3876, 2831)
    rng = random.Random(0)
    for _ in range(300):
        snf_cohomology(*_random_simplicial_pair(rng))
    maps = recorded()
    for rows, ncols, _, result in maps:
        assert result == smith_invariants_reference(rows, ncols)
    # the pairs drop rows below their top maps, and show torsion
    assert any(skipped for _, _, skipped, _ in maps[2:])
    assert any(d > 1 for *_, result in maps[2:] for d in result)
