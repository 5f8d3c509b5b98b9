"""Linear algebra oracles: hand elimination results frozen before the
implementation, a minor-expansion rank oracle for small matrices, and
rank-nullity style properties.
"""

from fractions import Fraction
from itertools import combinations
from math import gcd, lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rht.exactq import (
    ONE,
    ZERO,
    _SMALL,
    QMatrix,
    _rref_rows,
    _kernel_from_rref,
    _signed_array,
    image_pivot_columns,
    kernel_basis,
    rank,
    rat,
    rref,
    rref_from,
    solve_linear,
    solve_matrix,
)


# -- the image and extension helpers nothing in the library calls any more ----


def image_basis(m: QMatrix) -> list:
    return [m.column(j) for j in image_pivot_columns(m)]


def rank_kernel_image(m: QMatrix) -> tuple:
    red, pivots = rref(m)
    return len(pivots), _kernel_from_rref(red, pivots).columns(), [m.column(j) for j in pivots]


def extend_to_basis(spanning: QMatrix, candidates: QMatrix) -> list[int]:
    """Columns of candidates completing the column space of spanning to span
    both; candidate column indices, deterministic (leftmost)."""
    pivots = image_pivot_columns(QMatrix.hstack([spanning, candidates]))
    return [p - spanning.cols for p in pivots if p >= spanning.cols]


# -- frozen hand-computed expectations ---------------------------------------

# [[1,2],[2,4]]: R2 -= 2*R1 gives [[1,2],[0,0]]; rank 1; kernel (-2,1);
# solving against b=(1,2) gives x=(1,0) with the free variable zeroed.
HAND = QMatrix.from_rows([[1, 2], [2, 4]])


def test_rref_identity():
    m = QMatrix.identity(3)
    red, pivots = rref(m)
    assert red == m
    assert pivots == [0, 1, 2]


def test_rref_zero():
    m = QMatrix.zero(2, 2)
    red, pivots = rref(m)
    assert red == m
    assert pivots == []


def test_rref_hand_case():
    red, pivots = rref(HAND)
    assert red == QMatrix.from_rows([[1, 2], [0, 0]])
    assert pivots == [0]


def test_rank_kernel_image_identity():
    r, ker, img = rank_kernel_image(QMatrix.identity(4))
    assert r == 4 and ker == []
    assert img == [QMatrix.identity(4).column(j) for j in range(4)]


def test_rank_kernel_image_zero():
    r, ker, img = rank_kernel_image(QMatrix.zero(3, 3))
    assert r == 0 and img == []
    assert ker == [QMatrix.identity(3).column(j) for j in range(3)]


def test_rank_kernel_hand_case():
    r, ker, img = rank_kernel_image(HAND)
    assert r == 1
    assert ker == [(rat(-2), rat(1))]
    assert img == [(rat(1), rat(2))]


def test_solve_identity():
    b = (rat(3), rat("1/2"))
    assert solve_linear(QMatrix.identity(2), b) == b


def test_solve_zero():
    assert solve_linear(QMatrix.zero(2, 3), (rat(0), rat(0))) == (0, 0, 0)
    assert solve_linear(QMatrix.zero(2, 3), (rat(1), rat(0))) is None


def test_solve_hand_case():
    assert solve_linear(HAND, (rat(1), rat(2))) == (1, 0)
    assert solve_linear(HAND, (rat(1), rat(3))) is None


def test_solve_shape_error():
    with pytest.raises(ValueError):
        solve_linear(HAND, (rat(1),))


# -- minor-expansion rank oracle ----------------------------------------------


def _det_dense(rows):
    n = len(rows)
    if n == 0:
        return Fraction(1)
    if n == 1:
        return rows[0][0]
    total = Fraction(0)
    sign = 1
    for j in range(n):
        minor = [r[:j] + r[j + 1 :] for r in rows[1:]]
        total += sign * rows[0][j] * _det_dense(minor)
        sign = -sign
    return total


def _rank_by_minors(m: QMatrix) -> int:
    rows = m.to_rows()
    for size in range(min(m.rows, m.cols), 0, -1):
        for ri in combinations(range(m.rows), size):
            for ci in combinations(range(m.cols), size):
                sub = [[rows[r][c] for c in ci] for r in ri]
                if _det_dense(sub) != 0:
                    return size
    return 0


small_entries = st.integers(min_value=-4, max_value=4)


@st.composite
def small_matrix(draw, max_dim=4):
    r = draw(st.integers(1, max_dim))
    c = draw(st.integers(1, max_dim))
    data = draw(
        st.lists(st.lists(small_entries, min_size=c, max_size=c), min_size=r, max_size=r)
    )
    return QMatrix.from_rows(data)


@settings(max_examples=120, deadline=None)
@given(small_matrix())
def test_rank_matches_minor_oracle(m):
    assert rank(m) == _rank_by_minors(m)


@settings(max_examples=120, deadline=None)
@given(small_matrix(max_dim=5))
def test_rref_idempotent(m):
    red, pivots = rref(m)
    red2, pivots2 = rref(red)
    assert red2 == red and pivots2 == pivots


@settings(max_examples=120, deadline=None)
@given(small_matrix(max_dim=5))
def test_rank_nullity_and_kernel(m):
    r, ker, img = rank_kernel_image(m)
    assert r + len(ker) == m.cols
    assert len(img) == r
    for v in ker:
        assert all(x == 0 for x in m.apply(v))
    # image basis columns are independent
    if img:
        assert rank(QMatrix.from_columns(img, m.rows)) == r


@settings(max_examples=120, deadline=None)
@given(small_matrix(max_dim=4), st.data())
def test_solve_consistent_systems(m, data):
    x = tuple(
        rat(data.draw(small_entries, label=f"x{j}")) for j in range(m.cols)
    )
    b = m.apply(x)
    got = solve_linear(m, b)
    assert got is not None
    assert m.apply(got) == b


def test_solve_matrix_and_extend():
    m = QMatrix.from_rows([[1, 0], [0, 1], [1, 1]])
    b = QMatrix.from_rows([[1], [2], [3]])
    x = solve_matrix(m, b)
    assert x is not None and m * x == b
    spanning = QMatrix.from_columns([(rat(1), rat(0))], 2)
    cands = QMatrix.from_columns([(rat(2), rat(0)), (rat(0), rat(1))], 2)
    assert extend_to_basis(spanning, cands) == [1]


@settings(max_examples=200, deadline=None)
@given(small_matrix(max_dim=4), st.data())
def test_solve_matrix_matches_columnwise_solves(m, data):
    cols = []
    for j in range(data.draw(st.integers(0, 3), label="rhs columns")):
        kind = data.draw(st.sampled_from(("image", "random", "zero")), label=f"kind{j}")
        if kind == "image":
            cols.append(m.apply(tuple(rat(data.draw(small_entries)) for _ in range(m.cols))))
        elif kind == "random":
            cols.append(tuple(rat(data.draw(small_entries)) for _ in range(m.rows)))
        else:
            cols.append((rat(0),) * m.rows)
    each = [solve_linear(m, col) for col in cols]
    for col, x in zip(cols, each):
        augmented = QMatrix.hstack([m, QMatrix.from_columns([col], m.rows)])
        assert (x is None) == (rank(augmented) > rank(m))
    b = QMatrix.from_columns(cols, m.rows)
    got = solve_matrix(m, b)
    if any(x is None for x in each):
        assert got is None
    else:
        assert got == QMatrix.from_columns(each, m.cols)
        assert m * got == b


def test_solve_matrix_edge_shapes():
    assert solve_matrix(HAND, QMatrix.zero(2, 0)) == QMatrix.zero(2, 0)
    assert solve_matrix(HAND, QMatrix.zero(2, 3)) == QMatrix.zero(2, 3)
    assert solve_matrix(QMatrix.zero(2, 0), QMatrix.zero(2, 1)) == QMatrix.zero(0, 1)
    assert solve_matrix(QMatrix.zero(2, 0), QMatrix.identity(2)) is None
    # the second column is inconsistent, so the whole solve is
    assert solve_matrix(HAND, QMatrix.from_rows([[1, 1], [2, 3]])) is None


@st.composite
def matrix_or_empty(draw, max_dim=5):
    r = draw(st.integers(0, max_dim))
    c = draw(st.integers(0, max_dim))
    if draw(st.booleans()):
        return QMatrix.zero(r, c)
    ent = draw(st.dictionaries(st.tuples(st.integers(0, max(r - 1, 0)), st.integers(0, max(c - 1, 0))),
                               small_entries, max_size=r * c))
    return QMatrix(r, c, ent if r and c else {})


@settings(max_examples=200, deadline=None)
@given(matrix_or_empty())
def test_rank_is_the_pivot_count_and_kernels_agree(m):
    red, pivots = rref(m)
    assert rank(m) == len(pivots)
    # the kernel read off the rref, one loop per free column as before
    rows = red.to_rows()
    loop = []
    for j in (j for j in range(m.cols) if j not in pivots):
        v = [Fraction(0)] * m.cols
        v[j] = Fraction(1)
        for i, pc in enumerate(pivots):
            v[pc] = -rows[i][j]
        loop.append(tuple(v))
    assert kernel_basis(m).columns() == loop == rank_kernel_image(m)[1]


def test_kernel_image_deterministic_order():
    m = QMatrix.from_rows([[0, 1, 2], [0, 2, 4]])
    assert kernel_basis(m).columns() == [
        (rat(1), rat(0), rat(0)),
        (rat(0), rat(-2), rat(1)),
    ]
    assert image_basis(m) == [(rat(1), rat(2))]


# -- the integer elimination against the Fraction elimination it replaced ---------


def _fraction_rref_rows(rows, cols):
    """The Fraction elimination loop that exactq ran before it moved to integer
    rows: leftmost pivot column, first row holding it, one Fraction operation
    per entry touched."""
    pivots = []
    r = 0
    nrows = len(rows)
    for c in range(cols):
        piv = None
        for i in range(r, nrows):
            if c in rows[i]:
                piv = i
                break
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = ONE / rows[r][c]
        if inv != 1:
            rows[r] = {k: v * inv for k, v in rows[r].items()}
        prow = rows[r]
        for i in range(nrows):
            if i != r and c in rows[i]:
                f = rows[i][c]
                tgt = rows[i]
                for k, v in prow.items():
                    s = tgt.get(k, ZERO) - f * v
                    if s == 0:
                        tgt.pop(k, None)
                    else:
                        tgt[k] = s
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return rows, pivots


def _fraction_rows(m):
    rows = [dict() for _ in range(m.rows)]
    for (r, c), v in m.entries.items():
        rows[r][c] = v
    return rows


def _oracle_rref(m):
    rows, pivots = _fraction_rref_rows(_fraction_rows(m), m.cols)
    return QMatrix(m.rows, m.cols, {(i, c): v for i, row in enumerate(rows) for c, v in row.items()}), pivots


def _oracle_kernel(m):
    red, pivots = _oracle_rref(m)
    rows = red.to_rows()
    out = []
    for j in (j for j in range(m.cols) if j not in pivots):
        v = [ZERO] * m.cols
        v[j] = ONE
        for i, pc in enumerate(pivots):
            v[pc] = -rows[i][j]
        out.append(tuple(v))
    return out


def _oracle_solve(m, b):
    rows, pivots = _fraction_rref_rows(_fraction_rows(QMatrix.hstack([m, b])), m.cols)
    if any(rows[len(pivots):]):
        return None
    return QMatrix(m.cols, b.cols, {
        (pc, c - m.cols): v for pc, row in zip(pivots, rows) for c, v in row.items() if c >= m.cols
    })


DENOMINATORS = st.sampled_from((1, 1, 1, 2, 3, 4, 6, 9))
FRACTIONS = st.builds(Fraction, st.integers(-9, 9), DENOMINATORS)


@st.composite
def elimination_case(draw):
    """(m, b, kind): a matrix of one of the shapes the integer rows must get
    right, and a right-hand side with consistent and inconsistent columns."""
    kind = draw(st.sampled_from(("empty", "zero", "mixed", "deficient", "short-pivot")))
    r, c = draw(st.integers(0, 6)), draw(st.integers(0, 6))
    if kind == "empty":
        r, c = draw(st.sampled_from(((0, c), (r, 0), (0, 0))))
        m = QMatrix(r, c)
    elif kind == "zero":
        m = QMatrix(r, c)
    elif kind == "mixed":
        places = st.tuples(st.integers(0, max(r - 1, 0)), st.integers(0, max(c - 1, 0)))
        m = QMatrix(r, c, draw(st.dictionaries(places, FRACTIONS, max_size=r * c)) if r and c else {})
    elif kind == "deficient":
        # a product through k < min(r, c) dimensions has rank at most k
        r, c = draw(st.integers(2, 7)), draw(st.integers(2, 7))
        k = draw(st.integers(0, min(r, c) - 1))
        left = [[draw(FRACTIONS) for _ in range(k)] for _ in range(r)]
        right = [[draw(FRACTIONS) for _ in range(c)] for _ in range(k)]
        m = QMatrix.from_rows([[sum((left[i][t] * right[t][j] for t in range(k)), ZERO) for j in range(c)]
                               for i in range(r)])
    else:
        # column 0 is held first by a full row, later by a row of one entry
        r, c = draw(st.integers(2, 6)), draw(st.integers(2, 6))
        dense = [draw(FRACTIONS.filter(bool)) for _ in range(c)]
        rows = [dense] + [[draw(FRACTIONS) for _ in range(c)] for _ in range(r - 1)]
        short = draw(st.integers(1, r - 1))
        rows[short] = [draw(FRACTIONS.filter(bool))] + [ZERO] * (c - 1)
        m = QMatrix.from_rows(rows)
    cols = []
    for j in range(draw(st.integers(0, 3))):
        rhs = draw(st.sampled_from(("image", "random", "zero")))
        if rhs == "image":
            cols.append(m.apply(tuple(draw(FRACTIONS) for _ in range(m.cols))))
        elif rhs == "random":
            cols.append(tuple(draw(FRACTIONS) for _ in range(m.rows)))
        else:
            cols.append((ZERO,) * m.rows)
    return m, QMatrix.from_columns(cols, m.rows) if cols else QMatrix(m.rows, 0), kind


def _fractions_only(values):
    return all(type(v) is Fraction for v in values)


@settings(max_examples=400, deadline=None)
@given(elimination_case(), st.data())
def test_integer_elimination_matches_the_fraction_elimination(case, data):
    m, b, _ = case
    m_before, b_before = dict(m.entries), dict(b.entries)
    red, pivots = rref(m)
    want_red, want_pivots = _oracle_rref(m)
    assert red == want_red and pivots == want_pivots
    assert _fractions_only(red.entries.values())
    assert rank(m) == len(want_pivots)
    assert image_pivot_columns(m) == want_pivots
    assert image_basis(m) == [m.column(j) for j in want_pivots]
    split = data.draw(st.integers(0, m.cols), label="spanning columns")
    spanning = QMatrix(m.rows, split, {(i, j): v for (i, j), v in m.entries.items() if j < split})
    candidates = QMatrix(m.rows, m.cols - split,
                         {(i, j - split): v for (i, j), v in m.entries.items() if j >= split})
    assert extend_to_basis(spanning, candidates) == [p - split for p in want_pivots if p >= split]
    kernel = kernel_basis(m).columns()
    assert kernel == _oracle_kernel(m)
    assert all(_fractions_only(v) for v in kernel)
    assert rank_kernel_image(m) == (len(want_pivots), kernel, [m.column(j) for j in want_pivots])
    x, want_x = solve_matrix(m, b), _oracle_solve(m, b)
    assert (x is None) == (want_x is None)
    if x is not None:
        assert x == want_x and _fractions_only(x.entries.values())
        assert m * x == b
    for j in range(b.cols):
        col = b.column(j)
        one, want_one = solve_linear(m, col), _oracle_solve(m, QMatrix.from_columns([col], m.rows))
        assert (one is None) == (want_one is None)
        if one is not None:
            assert one == want_one.column(0) and _fractions_only(one)
    assert m.entries == m_before and b.entries == b_before


def test_pivot_row_is_the_shortest_holder():
    from rht.exactq import _sparse_rows

    m = QMatrix.from_rows([["1/2", "1/3", 1], [2, 0, 0], [-3, 0, 0]])
    rows = _sparse_rows(m)
    assert rows[0] == {0: 3, 1: 2, 2: 6}  # scaled by the lcm 6 of its denominators
    rows, pivots = _rref_rows(rows, m.cols)
    # column 0: rows 1 and 2 are the shortest, the lower index wins; the old
    # row 0 becomes 2 * row0 - 3 * row1 = (0, 4, 12), divided by its content 4
    assert pivots == [0, 1]
    assert rows == [{0: 2}, {1: 1, 2: 3}, {}]
    # the pivot row is negated when its pivot is negative
    assert _rref_rows(_sparse_rows(QMatrix.from_rows([[-3, 1]])), 2) == ([{0: 3, 1: -1}], [0])


def _lcm_sparse_rows(m):
    """_sparse_rows as it was: every row rebuilt, scaled by the lcm of all its
    denominators."""
    rows = [dict() for _ in range(m.rows)]
    for (r, c), v in m.entries.items():
        rows[r][c] = v
    out = []
    for row in rows:
        den = lcm(*(v.denominator for v in row.values()))
        out.append({c: v.numerator * (den // v.denominator) for c, v in row.items()})
    return out


@st.composite
def integer_or_mixed_matrix(draw):
    """Integer or mixed entries, often with empty rows."""
    r, c = draw(st.integers(0, 6)), draw(st.integers(0, 6))
    values = small_entries.map(Fraction)
    if draw(st.booleans()):
        values = values | st.fractions(-4, 4, max_denominator=6)
    cells = st.tuples(st.integers(0, max(r - 1, 0)), st.integers(0, max(c - 1, 0)))
    ent = draw(st.dictionaries(cells, values, max_size=r * c))
    return QMatrix(r, c, ent if r and c else {})


@settings(max_examples=200, deadline=None)
@given(integer_or_mixed_matrix())
def test_sparse_rows_scale_only_the_rows_holding_a_fraction(m):
    from rht.exactq import _sparse_rows

    got = _sparse_rows(m)
    assert [list(row.items()) for row in got] == [list(row.items()) for row in _lcm_sparse_rows(m)]
    assert all(type(v) is int for row in got for v in row.values())


def _scan_rref_rows(rows, cols):
    """_rref_rows as it was before the column index: for each column, scan every
    remaining row for the pivot and every row for the entries to eliminate."""
    pivots = []
    r = 0
    nrows = len(rows)
    for c in range(cols):
        piv = None
        for i in range(r, nrows):
            if c in rows[i] and (piv is None or len(rows[i]) < len(rows[piv])):
                piv = i
        if piv is None:
            continue
        prow = rows[piv]
        if prow[c] < 0:
            prow = {k: -v for k, v in prow.items()}
        rows[piv], rows[r] = rows[r], prow
        p = prow[c]
        for i in range(nrows):
            tgt = rows[i]
            f = tgt.get(c)
            if f is None or i == r:
                continue
            g = gcd(p, f)
            a, b = p // g, f // g
            if a != 1:
                for k in tgt:
                    tgt[k] *= a
            for k, v in prow.items():
                s = tgt.get(k, 0) - b * v
                if s:
                    tgt[k] = s
                else:
                    del tgt[k]
            g = gcd(*tgt.values())
            if g > 1:
                rows[i] = {k: v // g for k, v in tgt.items()}
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return rows, pivots


INTEGERS = st.integers(-6, 6)


@st.composite
def integer_rows(draw):
    """(rows, cols): integer rows for _rref_rows, past column cols too (the
    right-hand sides of _solve), of the shapes the column index must follow."""
    kind = draw(st.sampled_from(("empty", "sparse", "fill-in", "duplicate", "deficient")))
    nrows, cols, extra = draw(st.integers(0, 7)), draw(st.integers(0, 7)), draw(st.integers(0, 2))
    if kind == "empty":
        nrows, cols = draw(st.sampled_from(((0, cols), (nrows, 0), (0, 0))))
    width = cols + extra

    def row(density):
        return {k: v for k in range(width) if draw(st.floats(0, 1)) < density and (v := draw(INTEGERS))}

    if kind in ("empty", "sparse"):
        rows = [row(draw(st.sampled_from((0.2, 0.5, 1.0)))) for _ in range(nrows)]
    elif kind == "fill-in":
        # short rows under one full row: each elimination spreads the full row
        rows = [{k: draw(INTEGERS.filter(bool)) for k in range(width)}] + [row(0.25) for _ in range(nrows)]
    elif kind == "duplicate":
        # copies and multiples of a few rows cancel to empty rows
        base = [row(0.6) for _ in range(draw(st.integers(1, 3)))]
        rows = [{k: f * v for k, v in draw(st.sampled_from(base)).items()}
                for f in draw(st.lists(st.sampled_from((1, -1, 2, -3)), max_size=7))]
    else:
        # a product through fewer dimensions: rank deficient, full of cancellations
        inner = [row(0.7) for _ in range(draw(st.integers(0, 2)))]
        rows = []
        for _ in range(nrows):
            mix = [draw(INTEGERS) for _ in inner]
            out = {}
            for f, r in zip(mix, inner):
                for k, v in r.items():
                    out[k] = out.get(k, 0) + f * v
            rows.append({k: v for k, v in out.items() if v})
    return rows, cols


@settings(max_examples=300, deadline=None)
@given(elimination_case(), st.data())
def test_rref_from_keeps_the_rows_of_rref_from_the_split_on(case, data):
    m, _, _ = case
    red, pivots = rref(m)
    start = data.draw(st.integers(0, m.cols + 1), label="start")
    part, part_pivots = rref_from(m, start)
    assert part_pivots == pivots and (part.rows, part.cols) == (m.rows, m.cols)
    kept = {(i, c): v for (i, c), v in red.entries.items() if pivots[i] >= start}
    assert part.entries == kept and list(part.entries) == list(kept)
    assert all(v is _SMALL.get(v, v) for v in part.entries.values() if v.denominator == 1 and abs(v) <= 16)


def test_rref_from_builds_a_fraction_only_for_the_rows_it_keeps(monkeypatch):
    import rht.exactq as exactq

    # [K | I] for K the first column: the row holding K's pivot is not read
    m = QMatrix.hstack([QMatrix.from_rows([[2], [3], ["1/2"]]), QMatrix.identity(3)])
    whole = rref(m)[0]
    built = []
    real = exactq._frac
    monkeypatch.setattr(exactq, "_frac", lambda num, den: built.append((num, den)) or real(num, den))
    red, pivots = rref_from(m, 1)
    assert pivots == [0, 1, 2] and {i for i, _ in red.entries} == {1, 2}
    assert len(built) == len(red.entries) == 4 and len(whole.entries) == 6


@settings(max_examples=500, deadline=None)
@given(integer_rows())
def test_column_index_elimination_matches_the_column_scan(case):
    rows, cols = case
    # the same rows list, row by row, and the same pivots; not just the same rref
    assert _rref_rows([dict(r) for r in rows], cols) == _scan_rref_rows([dict(r) for r in rows], cols)


def test_pivot_readers_build_no_fraction(monkeypatch):
    import rht.exactq as exactq

    m = QMatrix.from_rows([["1/2", 1, 0], [1, 2, 0], [0, "2/3", 5]])
    unit = QMatrix.identity(3)
    want = (rank(m), image_pivot_columns(m), image_basis(m), extend_to_basis(m, unit))

    def no_fraction(*args):
        raise AssertionError("a Fraction was built")

    monkeypatch.setattr(exactq, "Fraction", no_fraction)
    assert (rank(m), image_pivot_columns(m), image_basis(m), extend_to_basis(m, unit)) == want


# -- the integer products against the Fraction products they replaced ------------


def _fraction_scale(m, c):
    """QMatrix.scale as it was before products moved to integer numerators."""
    c = rat(c)
    if c == 0:
        return QMatrix(m.rows, m.cols)
    out = QMatrix(m.rows, m.cols)
    out.entries = {k: c * v for k, v in m.entries.items()}
    return out


def _fraction_mul(a, b):
    """QMatrix.__mul__ as it was: one Fraction multiply-add per product term."""
    if a.cols != b.rows:
        raise ValueError(f"shape mismatch in *: {a.rows}x{a.cols} by {b.rows}x{b.cols}")
    by_row = {}
    for (r, c), v in b.entries.items():
        by_row.setdefault(r, []).append((c, v))
    ent = {}
    for (r, k), x in a.entries.items():
        for c, y in by_row.get(k, ()):
            key = (r, c)
            s = ent.get(key, ZERO) + x * y
            if s == 0:
                ent.pop(key, None)
            else:
                ent[key] = s
    out = QMatrix(a.rows, b.cols)
    out.entries = ent
    return out


# numerators past 16 give integer entries that are not shared objects
PRODUCT_ENTRIES = st.builds(Fraction, st.integers(-40, 40), st.integers(1, 9))


@st.composite
def _matrix(draw, rows, cols):
    density = draw(st.sampled_from((0.0, 0.3, 0.7, 1.0)))
    ent = {}
    for i in range(rows):
        for j in range(cols):
            if draw(st.floats(0, 1)) < density:
                ent[(i, j)] = draw(PRODUCT_ENTRIES)
    return QMatrix(rows, cols, ent)


MINUS_ONE = _SMALL[-1]


@st.composite
def _signed_permutation(draw, rows, cols, per_row):
    """A signed partial permutation of the shared ONE and MINUS_ONE, one entry
    or none per row (per_row) or per column; or, spoilt, one line holding two
    entries or one entry a fresh Fraction(1), which must take the integer path."""
    lines, across = (rows, cols) if per_row else (cols, rows)
    ent = {}
    for line in range(lines):
        at = draw(st.integers(-1, across - 1))  # -1: an empty line
        if at >= 0:
            ent[(line, at) if per_row else (at, line)] = draw(st.sampled_from((ONE, MINUS_ONE)))
    spoil = draw(st.sampled_from((None, None, "two in a line", "fresh one")))
    if spoil == "two in a line" and lines and across > 1:
        line = draw(st.integers(0, lines - 1))
        for at in draw(st.permutations(range(across)))[:2]:
            ent[(line, at) if per_row else (at, line)] = draw(st.sampled_from((ONE, MINUS_ONE)))
    elif spoil == "fresh one" and ent:
        ent[draw(st.sampled_from(sorted(ent)))] = Fraction(1)
    return QMatrix(rows, cols, ent)


def _signed_lines(m, axis):
    """Whether m holds at most one entry per row (axis 0) or column (axis 1),
    each the shared ONE or MINUS_ONE."""
    lines = [key[axis] for key in m.entries]
    return len(set(lines)) == len(lines) and all(v is ONE or v is MINUS_ONE for v in m.entries.values())


PRODUCT_KINDS = ("empty", "zero", "mixed", "cancel", "mismatch", "signed")


@st.composite
def product_case(draw, kinds=PRODUCT_KINDS):
    """(a, b, a2): factors a and b of a product, of one of the shapes the integer
    and the reindexing kernels must get right, and a2 of a's shape to subtract
    from a."""
    kind = draw(st.sampled_from(kinds))
    r, k, c = (draw(st.integers(1 if kind in ("cancel", "signed") else 0, 4)) for _ in range(3))
    if kind == "empty":
        r, k, c = draw(st.permutations((0, r, c)))
    if kind == "cancel":
        k = max(k, 2)
    a, b = draw(_matrix(r, k)), draw(_matrix(k + (kind == "mismatch"), c))
    if kind == "signed":
        side = draw(st.sampled_from(("left", "right", "both")))
        if side != "right":
            a = draw(_signed_permutation(r, k, per_row=True))
        if side != "left":
            b = draw(_signed_permutation(k, c, per_row=False))
    if kind == "zero":
        a, b = draw(st.sampled_from(((QMatrix(r, k), b), (a, QMatrix(k, c)))))
    if kind == "cancel":
        # (a b)[i, j] = 0 through two nonzero terms, for a drawn i and j
        i, j = draw(st.integers(0, r - 1)), draw(st.integers(0, c - 1))
        ea, eb = dict(a.entries), dict(b.entries)
        ea[(i, 0)], ea[(i, 1)] = draw(PRODUCT_ENTRIES.filter(bool)), draw(PRODUCT_ENTRIES.filter(bool))
        eb[(1, j)] = draw(PRODUCT_ENTRIES.filter(bool))
        eb.pop((0, j), None)
        rest = sum((ea.get((i, l), ZERO) * eb.get((l, j), ZERO) for l in range(1, k)), ZERO)
        eb[(0, j)] = -rest / ea[(i, 0)]
        a, b = QMatrix(r, k, ea), QMatrix(k, c, eb)
    a2 = draw(st.sampled_from((a, _fraction_scale(a, draw(PRODUCT_ENTRIES)), draw(_matrix(a.rows, a.cols)))))
    return a, b, a2


SCALARS = st.one_of(
    st.sampled_from((0, 1, -1, ZERO, ONE, -ONE, 2, -17, "-3/4", "5/2")),
    PRODUCT_ENTRIES,
)


def _assert_same_matrix(new, old):
    assert (new.rows, new.cols) == (old.rows, old.cols)
    assert new.entries == old.entries
    assert all(type(v) is Fraction and v != 0 for v in new.entries.values())


def _assert_small_integers_shared(m):
    assert all(v is _SMALL[v.numerator] for v in m.entries.values() if v.denominator == 1 and -16 <= v <= 16)


def _check_products(case, c):
    a, b, a2 = case
    before = [dict(m.entries) for m in case]
    # the reindexing products take exactly the factors that are signed partial permutations
    # (b per column, a per row), and the face and Sigma_n checks read the same arrays
    for m in (a, b):
        for axis in (0, 1):
            lines = _signed_array(m, axis)
            assert (lines is not None) == _signed_lines(m, axis)
            at = lambda line, x: (line, abs(x) - 1) if axis == 0 else (abs(x) - 1, line)
            assert lines is None or m.entries == {at(j, x): ONE if x > 0 else -ONE for j, x in enumerate(lines) if x}
    if a.cols == b.rows:
        _assert_same_matrix(a * b, _fraction_mul(a, b))
        _assert_small_integers_shared(a * b)
    else:
        with pytest.raises(ValueError) as new:
            a * b
        with pytest.raises(ValueError) as old:
            _fraction_mul(a, b)
        assert str(new.value) == str(old.value)
    _assert_same_matrix(a.scale(c), _fraction_scale(a, c))
    _assert_same_matrix(-a, _fraction_scale(a, -1))
    _assert_small_integers_shared(a.scale(c))
    _assert_small_integers_shared(-a)
    _assert_same_matrix(a - a2, a + _fraction_scale(a2, -1))
    assert [m.entries for m in case] == before


@settings(max_examples=400, deadline=None)
@given(product_case(), SCALARS)
def test_integer_products_match_the_fraction_products(case, c):
    _check_products(case, c)


# at one kind in six the test above seldom draws a signed partial permutation
@settings(max_examples=300, deadline=None)
@given(product_case(kinds=("signed",)), SCALARS)
def test_signed_permutation_products_match_the_fraction_products(case, c):
    _check_products(case, c)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_a_row_reading_is_the_column_reading_of_the_transpose(data):
    r, c = data.draw(st.integers(0, 4)), data.draw(st.integers(0, 4))
    m = data.draw(st.one_of(_signed_permutation(r, c, per_row=True), _signed_permutation(r, c, per_row=False), _matrix(r, c)))
    assert _signed_array(m, 0) == _signed_array(m.transpose(), 1)
    assert _signed_array(m, 1) == _signed_array(m.transpose(), 0)


def _fraction_add(a, b):
    """QMatrix.__add__ as it was: one Fraction addition per entry of b."""
    ent = dict(a.entries)
    for k, v in b.entries.items():
        s = ent.get(k, ZERO) + v
        if s == 0:
            ent.pop(k, None)
        else:
            ent[k] = s
    out = QMatrix(a.rows, a.cols)
    out.entries = ent
    return out


@settings(max_examples=300, deadline=None)
@given(product_case())
def test_sums_and_differences_match_the_fraction_loop(case):
    a, _, a2 = case
    # small integers as their shared objects, as products and scalings return them
    a, a2 = a.scale(1), a2.scale(1)
    for new, old in ((a + a2, _fraction_add(a, a2)), (a - a2, _fraction_add(a, _fraction_scale(a2, -1)))):
        _assert_same_matrix(new, old)
        assert list(new.entries) == list(old.entries)
        _assert_small_integers_shared(new)
    with pytest.raises(ValueError, match="shape mismatch in"):
        a + QMatrix(a.rows + 1, a.cols)


def test_small_integer_entries_are_shared():
    from rht.exactq import _frac

    assert _SMALL[0] is ZERO and _SMALL[1] is ONE
    assert _frac(6, 3) is _frac(2, 1) is _SMALL[2]
    assert _frac(-32, 2) is _SMALL[-16]
    assert _frac(34, 2) == 17 and type(_frac(34, 2)) is Fraction
    assert _frac(3, 6) == Fraction(1, 2)
    swap = QMatrix.from_rows([[0, -1], [1, 0]])
    for m in (swap * swap, swap.scale(-1), -swap, QMatrix.from_rows([["1/2", 0]]) * swap.scale(2)):
        assert all(v is _SMALL[v.numerator] for v in m.entries.values())


# -- forward-only elimination against the full reduction it replaced --------------


def _full_rref_rows(rows, cols):
    """_rref_rows before its start argument: each pivot step reduces every row
    holding the pivot column, the rows above the pivot row too."""
    holders = {}
    for j, row in enumerate(rows):
        for k in row:
            holders.setdefault(k, set()).add(j)
    nrows = len(rows)
    pos = list(range(nrows))
    ids = list(range(nrows))
    pivots = []
    r = 0
    for c in range(cols):
        held = holders.get(c)
        if not held:
            continue
        piv = None
        for j in held:
            i = pos[j]
            if i >= r and (piv is None or (len(rows[i]), i) < (len(rows[piv]), piv)):
                piv = i
        if piv is None:
            continue
        prow = rows[piv]
        if prow[c] < 0:
            prow = {k: -v for k, v in prow.items()}
        rows[piv], rows[r] = rows[r], prow
        jp, jr = ids[piv], ids[r]
        ids[piv], ids[r] = jr, jp
        pos[jp], pos[jr] = r, piv
        p = prow[c]
        for j in [j for j in held if j != jp]:
            i = pos[j]
            tgt = rows[i]
            f = tgt[c]
            g = gcd(p, f)
            a, b = p // g, f // g
            if a != 1:
                for k in tgt:
                    tgt[k] *= a
            for k, v in prow.items():
                s = tgt.get(k)
                if s is None:
                    tgt[k] = -b * v
                    holders[k].add(j)
                else:
                    s -= b * v
                    if s:
                        tgt[k] = s
                    else:
                        del tgt[k]
                        holders[k].remove(j)
            g = gcd(*tgt.values())
            if g > 1:
                rows[i] = {k: v // g for k, v in tgt.items()}
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return rows, pivots


@settings(max_examples=400, deadline=None)
@given(integer_rows())
def test_rows_from_start_on_match_the_full_reduction(case):
    rows, cols = case
    want, want_pivots = _full_rref_rows([dict(r) for r in rows], cols)
    for start in range(cols + 2):
        got, pivots = _rref_rows([dict(r) for r in rows], cols, start)
        assert pivots == want_pivots
        # the rows whose pivot is start or later, then the rows with no pivot
        read = [i for i, p in enumerate(pivots) if p >= start] + list(range(len(pivots), len(rows)))
        assert [got[i] for i in read] == [want[i] for i in read]
    assert _rref_rows([dict(r) for r in rows], cols) == (want, want_pivots)


def test_forward_elimination_leaves_the_rows_above_a_pivot():
    rows = [{0: 1, 1: 1}, {1: 1}]
    assert _rref_rows([dict(r) for r in rows], 2, 2) == ([{0: 1, 1: 1}, {1: 1}], [0, 1])
    assert _rref_rows([dict(r) for r in rows], 2, 1) == ([{0: 1, 1: 1}, {1: 1}], [0, 1])
    assert _rref_rows([dict(r) for r in rows], 2, 0) == ([{0: 1}, {1: 1}], [0, 1])


# -- the unchecked constructor against the checked one ------------------------------


def test_unchecked_constructor_sites_build_what_the_checked_one_builds(monkeypatch):
    """Over a run through every caller of QMatrix._of, each call gets nonzero
    Fractions inside its shape and so builds what QMatrix(...) builds."""
    import sys

    from rht.calculus import TensorPowerFunctor, cross_effect, homogeneous_eval, lie_n, test_cube
    from rht.dgcore import DG, ho_cube, homology_dims, sum_many

    real, sites = QMatrix._of.__func__, set()

    def checked(cls, rows, cols, entries):
        frame = sys._getframe(1)
        while frame.f_code.co_name.startswith("<"):  # a comprehension's own frame
            frame = frame.f_back
        sites.add(f"{frame.f_globals['__name__']}.{frame.f_code.co_name}")
        for (r, c), v in entries.items():
            assert type(v) is Fraction and v != 0 and 0 <= r < rows and 0 <= c < cols
        m = real(cls, rows, cols, entries)
        assert m == QMatrix(rows, cols, entries) and m.entries is entries
        return m

    monkeypatch.setattr(QMatrix, "_of", classmethod(checked))
    a = QMatrix.from_rows([[1, "1/2", 0], [0, 2, -1]])
    cols = QMatrix.from_rows([[0, 1, 0], [-1, 0, 0], [0, 0, 1]]).scale(1)
    rows = QMatrix.from_rows([[0, -1], [1, 0]]).scale(1)
    for m in (a * cols, rows * a, a * a.transpose(), a.scale(2), -a, a.scale(0), a + a, a - a):
        assert m == QMatrix(m.rows, m.cols, m.entries)
    assert QMatrix.direct_sum([a, QMatrix.vstack([a, a])]).rows == 6
    assert rref_from(QMatrix.hstack([a, QMatrix.identity(2)]), 3)[1] == [0, 1]
    assert a * solve_matrix(a, a) == a
    # consecutive nonzero differentials; twists that cancel leave no entry
    v = DG({0: ("a",), 1: ("b", "c"), 2: ("e",)}, {1: QMatrix.from_rows([[1, 0]]), 2: QMatrix.from_rows([[0], [1]])})
    assert homology_dims(v) == {}
    minus = {k: -m for k, m in v.diff.items()}
    assert sum_many([v, v], twist=[(0, 1, v.diff), (0, 1, minus)])[0] == sum_many([v, v])[0]
    x = DG({1: ("a",), 2: ("b", "c")}, {2: QMatrix.from_rows([[1, -1]])})
    ho_cube("limit", test_cube(2, x))
    cross_effect(TensorPowerFunctor(2), 2, [x, x])
    homogeneous_eval(lie_n(3).derivative(), x, 3)
    # b (x) b and c (x) c are fixed by the swap, with the sign-twisted Lie(2)
    # acting by +1, so their a (x) s - 1 columns are zero and hold no entry
    homogeneous_eval(lie_n(2).derivative(), x, 2)
    assert sites == {
        *(f"rht.exactq.{f}" for f in ("from_rows", "__add__", "scale", "__mul__", "transpose",
                                     "hstack", "vstack", "direct_sum", "rref_from", "_solve")),
        "rht.dgcore.homology_dims", "rht.dgcore.sum_many", "rht.dgcore.quotient_dg", "rht.dgcore._cube_sum",
        "rht.calculus.edge_map", "rht.calculus._gather", "rht.calculus.move",
        "rht.calculus._power_with_swaps", "rht.calculus.homogeneous_eval",
    }
