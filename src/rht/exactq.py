"""Exact rational scalars and sparse linear algebra over Q.

Every differential, bracket, and coproduct in the package reduces to
operations on QMatrix values.  All arithmetic is exact; there is no
floating-point mode anywhere.

Every elimination runs on integer rows: each row is scaled by the lcm of
its denominators, and the one elimination loop (_rref_rows) only ever
multiplies rows by integers, subtracts them and divides out their content.
A Fraction is built only for the entries a caller reads, once per entry,
when a pivot row is divided by its pivot.  The pivot column is always the
leftmost one left; the pivot row is the shortest remaining row holding it,
which on the identity blocks that dominate the models cancels the unit
entries first and keeps fill-in low.  That choice cannot change any
output: a matrix has one reduced row echelon form, and with pivots in m's
columns the solution of m x = b with free variables 0 is unique.  A column
-> rows index, kept through the pivot swaps, fill-in and cancellation, lets
each pivot step find and eliminate the rows holding its column without
scanning the others.

Products and scalings run on integer numerators too.  A product scales
each factor by the lcm of the denominators it reads, found in the pass over
its entries, and sums the products as ints; a scaling multiplies numerators
and denominators.  Each nonzero output entry becomes one Fraction, divided
once.  Every integer entry from -16 to 16 is one shared Fraction object
(Fraction is immutable), so the ±1 entries of the symmetric-group actions
and of most differentials cost a dict lookup, and comparing two such
matrices stops at object identity.

Most products in the models have a signed partial permutation as a factor:
the symmetric-group actions, inclusions, projections and cube edges.  When
the right factor holds at most one entry per column, or the left factor at
most one per row, and each such entry is the shared 1 or -1 object, the
product is a reindex of the other factor: each entry is moved, negated
where the sign is -1, and no sum is formed.  The one reader of such
matrices, _signed_array, which dgcore's face and conjugation checks read
too, is one pass over the entries that stops at the first line holding a
second entry or the first entry not one of those two objects; any other
entry, an unshared Fraction(1) included, takes the integer path.  Scaling
by 1 or -1 copies or negates the entries.  Moved and negated small
integers come out as their shared objects, as above.
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Optional, Sequence

# one shared Fraction per small integer; see _frac
_SMALL = {v: Fraction(v) for v in range(-16, 17)}
ZERO = _SMALL[0]
ONE = _SMALL[1]
_MINUS_ONE = _SMALL[-1]
# the shared objects by identity, each to its negation; they live as long as the module
_NEGATED = {id(f): _SMALL[-v] for v, f in _SMALL.items()}

Vector = tuple[Fraction, ...]


def _frac(num: int, den: int) -> Fraction:
    """num/den for den > 0; a small integer comes back as its shared object."""
    q, r = divmod(num, den)
    if r:
        return Fraction(num, den)
    f = _SMALL.get(q)
    return Fraction(q) if f is None else f


def _moved(v: Fraction) -> Fraction:
    """v, as its shared object when it is a small integer."""
    if id(v) in _NEGATED or v.denominator != 1:
        return v
    return _SMALL.get(v.numerator, v)


def _negated(v: Fraction) -> Fraction:
    """-v, as its shared object when it is a small integer."""
    f = _NEGATED.get(id(v))
    return _frac(-v.numerator, v.denominator) if f is None else f


def _signed_array(m: "QMatrix", axis: int) -> Optional[list[int]]:
    """Per row (axis 0) or column (axis 1) of m: 0 for an empty line and
    ±(j + 1) for the shared ONE or _MINUS_ONE at index j across it.  None
    when a line holds two entries or an entry is not one of those two
    objects: the one reader of signed monomial matrices."""
    out = [0] * (m.cols if axis else m.rows)
    for key, v in m.entries.items():
        line = key[axis]
        if out[line] or (v is not ONE and v is not _MINUS_ONE):
            return None
        out[line] = key[1 - axis] + 1 if v is ONE else -key[1 - axis] - 1
    return out


def rat(x) -> Fraction:
    """Coerce ints, strings like '-3/4', and Fractions to an exact rational."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x.strip())
    raise TypeError(f"cannot interpret {x!r} as a rational")


def format_rat(x: Fraction) -> str:
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


def vec(xs: Iterable) -> Vector:
    return tuple(rat(x) for x in xs)


def zero_vec(n: int) -> Vector:
    return (ZERO,) * n


def _unit_vec(n: int, i: int) -> Vector:
    return tuple(ONE if j == i else ZERO for j in range(n))


def vec_add(a: Vector, b: Vector) -> Vector:
    return tuple(x + y for x, y in zip(a, b, strict=True))


def vec_sub(a: Vector, b: Vector) -> Vector:
    return tuple(x - y for x, y in zip(a, b, strict=True))


def vec_scale(c: Fraction, a: Vector) -> Vector:
    return tuple(c * x for x in a)


def is_zero_vec(a: Vector) -> bool:
    return all(x == 0 for x in a)


class QMatrix:
    """Sparse matrix over Q.  Immutable by convention: no method mutates self.

    entries maps (row, col) -> nonzero Fraction; zeros are never stored.
    """

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows: int, cols: int, entries: Optional[dict] = None):
        if rows < 0 or cols < 0:
            raise ValueError("negative dimensions")
        self.rows = rows
        self.cols = cols
        clean: dict[tuple[int, int], Fraction] = {}
        if entries:
            for (r, c), v in entries.items():
                if not (0 <= r < rows and 0 <= c < cols):
                    raise ValueError(f"entry ({r},{c}) outside {rows}x{cols}")
                fv = rat(v)
                if fv != 0:
                    clean[(r, c)] = fv
        self.entries = clean

    @classmethod
    def _of(cls, rows: int, cols: int, entries: dict) -> "QMatrix":
        """The rows x cols matrix on entries, which must already be nonzero
        Fractions inside it; unlike QMatrix(...), nothing is checked or copied."""
        m = object.__new__(cls)
        m.rows, m.cols, m.entries = rows, cols, entries
        return m

    # -- construction ------------------------------------------------------

    @staticmethod
    def zero(rows: int, cols: int) -> "QMatrix":
        return QMatrix(rows, cols)

    @staticmethod
    def identity(n: int) -> "QMatrix":
        return QMatrix(n, n, {(i, i): ONE for i in range(n)})

    @staticmethod
    def from_rows(data: Sequence[Sequence]) -> "QMatrix":
        rows = len(data)
        cols = len(data[0]) if rows else 0
        ent = {}
        for i, row in enumerate(data):
            if len(row) != cols:
                raise ValueError("ragged rows")
            for j, v in enumerate(row):
                fv = rat(v)
                if fv != 0:
                    ent[(i, j)] = fv
        return QMatrix._of(rows, cols, ent)

    @staticmethod
    def from_columns(cols: Sequence[Vector], nrows: int) -> "QMatrix":
        ent = {}
        for j, col in enumerate(cols):
            if len(col) != nrows:
                raise ValueError("column length mismatch")
            for i, v in enumerate(col):
                if v != 0:
                    ent[(i, j)] = v
        return QMatrix(nrows, len(cols), ent)

    # -- access ------------------------------------------------------------

    def get(self, r: int, c: int) -> Fraction:
        return self.entries.get((r, c), ZERO)

    def to_rows(self) -> list[list[Fraction]]:
        out = [[ZERO] * self.cols for _ in range(self.rows)]
        for (r, c), v in self.entries.items():
            out[r][c] = v
        return out

    def column(self, j: int) -> Vector:
        return tuple(self.entries.get((i, j), ZERO) for i in range(self.rows))

    def columns(self) -> list[Vector]:
        return [self.column(j) for j in range(self.cols)]

    def is_zero(self) -> bool:
        return not self.entries

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, QMatrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self.entries == other.entries
        )

    def __hash__(self):
        return hash((self.rows, self.cols, frozenset(self.entries.items())))

    def __repr__(self):
        return f"QMatrix({self.rows}x{self.cols}, {len(self.entries)} entries)"

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other: "QMatrix") -> "QMatrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch in +")
        # an entry only other holds is copied: it is already nonzero, and may be shared
        ent = dict(self.entries)
        for k, v in other.entries.items():
            a = ent.get(k)
            if a is None:
                ent[k] = v
                continue
            s = a + v
            if s:
                ent[k] = _moved(s)
            else:
                del ent[k]
        return QMatrix._of(self.rows, self.cols, ent)

    def __sub__(self, other: "QMatrix") -> "QMatrix":
        return self + other.scale(-1)

    def __neg__(self) -> "QMatrix":
        return self.scale(-1)

    def scale(self, c) -> "QMatrix":
        c = rat(c)
        n, d = c.numerator, c.denominator
        if n == 0:
            ent = {}
        elif d == 1 and n == 1:
            ent = {k: _moved(v) for k, v in self.entries.items()}
        elif d == 1 and n == -1:
            ent = {k: _negated(v) for k, v in self.entries.items()}
        else:
            ent = {k: _frac(n * v.numerator, d * v.denominator) for k, v in self.entries.items()}
        return QMatrix._of(self.rows, self.cols, ent)

    def __mul__(self, other: "QMatrix") -> "QMatrix":
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch in *: {self.rows}x{self.cols} by {other.rows}x{other.cols}")
        cols = _signed_array(other, 1)
        if cols is not None:
            # column c of the product is ± column k of self, for other[k, c] = ±1
            targets: dict[int, list[tuple[int, bool]]] = {}
            for c, x in enumerate(cols):
                if x:
                    targets.setdefault(abs(x) - 1, []).append((c, x > 0))
            ent = {}
            for (r, k), v in self.entries.items():
                row = targets.get(k)
                if row is not None:
                    for c, positive in row:
                        ent[(r, c)] = _moved(v) if positive else _negated(v)
            return QMatrix._of(self.rows, other.cols, ent)
        if _signed_array(self, 0) is not None:
            # row r of the product is ± row k of other, for self[r, k] = ±1
            other_rows: dict[int, list[tuple[int, Fraction]]] = {}
            for (k, c), v in other.entries.items():
                other_rows.setdefault(k, []).append((c, v))
            ent = {}
            for (r, k), s in self.entries.items():
                row = other_rows.get(k)
                if row is not None:
                    if s is ONE:
                        for c, v in row:
                            ent[(r, c)] = _moved(v)
                    else:
                        for c, v in row:
                            ent[(r, c)] = _negated(v)
            return QMatrix._of(self.rows, other.cols, ent)
        # other grouped by row; each factor over a common denominator, read in the pass
        # that reads its entries: where an entry's denominator does not divide the one
        # so far, that grows by the missing factor f, as do the integers taken so far
        db, by_row = 1, {}
        for (r, c), v in other.entries.items():
            d = v.denominator
            if db % d:
                f = d // gcd(db, d)
                db *= f
                by_row = {k: [(j, b * f) for j, b in row] for k, row in by_row.items()}
            by_row.setdefault(r, []).append((c, v.numerator * (db // d)))
        da, acc = 1, {}
        for (r, k), a in self.entries.items():
            row = by_row.get(k)
            if row is None:
                continue
            d = a.denominator
            if da % d:
                f = d // gcd(da, d)
                da *= f
                acc = {key: s * f for key, s in acc.items()}
            a = a.numerator * (da // d)
            for c, b in row:
                key = (r, c)
                acc[key] = acc.get(key, 0) + a * b
        den = da * db
        return QMatrix._of(self.rows, other.cols, {key: _frac(v, den) for key, v in acc.items() if v})

    def apply(self, v: Sequence[Fraction]) -> Vector:
        if len(v) != self.cols:
            raise ValueError("vector length mismatch")
        out = [ZERO] * self.rows
        for (r, c), a in self.entries.items():
            if v[c] != 0:
                out[r] += a * v[c]
        return tuple(out)

    def transpose(self) -> "QMatrix":
        return QMatrix._of(self.cols, self.rows, {(c, r): v for (r, c), v in self.entries.items()})

    # -- block assembly ------------------------------------------------------

    @staticmethod
    def hstack(mats: Sequence["QMatrix"]) -> "QMatrix":
        if not mats:
            return QMatrix(0, 0)
        rows = mats[0].rows
        ent = {}
        off = 0
        for m in mats:
            if m.rows != rows:
                raise ValueError("hstack row mismatch")
            ent.update({(r, c + off): v for (r, c), v in m.entries.items()} if off else m.entries)
            off += m.cols
        return QMatrix._of(rows, off, ent)

    @staticmethod
    def vstack(mats: Sequence["QMatrix"]) -> "QMatrix":
        if not mats:
            return QMatrix(0, 0)
        cols = mats[0].cols
        ent = {}
        off = 0
        for m in mats:
            if m.cols != cols:
                raise ValueError("vstack col mismatch")
            for (r, c), v in m.entries.items():
                ent[(r + off, c)] = v
            off += m.rows
        return QMatrix._of(off, cols, ent)

    @staticmethod
    def direct_sum(mats: Sequence["QMatrix"]) -> "QMatrix":
        ent = {}
        ro = co = 0
        for m in mats:
            for (r, c), v in m.entries.items():
                ent[(r + ro, c + co)] = v
            ro += m.rows
            co += m.cols
        return QMatrix._of(ro, co, ent)


# -- elimination ------------------------------------------------------------


def _sparse_rows(m: QMatrix) -> list[dict[int, int]]:
    """The rows of m, each scaled by the lcm of its denominators to integers.

    One pass takes every entry's numerator; only a row holding a non-integer
    is then scaled, by the lcm of its non-integers' denominators."""
    rows: list[dict[int, int]] = [dict() for _ in range(m.rows)]
    fractions: dict[int, list[tuple[int, Fraction]]] = {}
    for (r, c), v in m.entries.items():
        rows[r][c] = v.numerator
        if v.denominator != 1:
            fractions.setdefault(r, []).append((c, v))
    for r, held in fractions.items():
        den, row = lcm(*(v.denominator for _, v in held)), rows[r]
        for c in row:
            row[c] *= den
        for c, v in held:
            row[c] = v.numerator * (den // v.denominator)
    return rows


def _rref_rows(rows: list[dict[int, int]], cols: int, start: int = 0) -> tuple[list[dict[int, int]], list[int]]:
    """In-place fraction-free echelon form of integer rows, reduced above the
    pivot in the rows whose pivot column is start or later.

    The pivot column is the leftmost column some remaining row holds; the
    pivot row is the shortest such row (ties: lowest index), negated if
    needed so that its pivot p is positive.  A row holding the column, with
    entry f there, becomes (p/g) row - (f/g) pivot row for g = gcd(p, f) and
    is then divided by its content: each row below the pivot row, and each
    row above it whose own pivot is start or later.  Every pivot row comes
    from below, so a row left as it is never feeds another, and the pivots
    and the other rows are the same for every start.  Row i with pivot start
    or later, divided by its pivot, is row i of the rref, which is unique,
    so the pivot rule changes only the work done.  The pivot readers need
    only start = cols: forward elimination.  A column -> rows index, kept
    through the pivot swaps, fill-in and cancellation, finds the rows that
    hold a column without scanning the others.
    """
    # a row's id is its position on entry; holders[k] holds the ids of the rows
    # holding column k, pos[j] is row j's position now, and ids[i] the id of
    # the row at position i
    holders: dict[int, set[int]] = {}
    for j, row in enumerate(rows):
        for k in row:
            held = holders.get(k)
            if held is None:
                holders[k] = {j}
            else:
                held.add(j)
    nrows = len(rows)
    pos = list(range(nrows))
    ids = list(range(nrows))
    pivots: list[int] = []
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
            if i < r and pivots[i] < start:
                continue
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


def _pivots(m: QMatrix) -> list[int]:
    return _rref_rows(_sparse_rows(m), m.cols, m.cols)[1]


def rref(m: QMatrix) -> tuple[QMatrix, list[int]]:
    """Reduced row echelon form with strictly increasing pivot columns."""
    return rref_from(m, 0)


def rref_from(m: QMatrix, start: int) -> tuple[QMatrix, list[int]]:
    """rref(m) holding only the rows whose pivot column is start or later (the
    rows above them are left empty), and all of its pivots.  Only those rows
    are cleared above their pivots and become Fractions; the pivots and the
    rows kept are rref's (see _rref_rows)."""
    rows, pivots = _rref_rows(_sparse_rows(m), m.cols, start)
    first = bisect_left(pivots, start)
    ent = {(i, c): _frac(v, rows[i][pivots[i]]) for i in range(first, len(pivots)) for c, v in rows[i].items()}
    return QMatrix._of(m.rows, m.cols, ent), pivots


def rank(m: QMatrix) -> int:
    return len(_pivots(m))


def _kernel_from_rref(red: QMatrix, pivots: list[int]) -> QMatrix:
    """ker of the matrix an rref came from, one column per free column j in
    order: 1 at j and minus column j of the rref at the pivot columns."""
    pivot_set = set(pivots)
    at = {j: i for i, j in enumerate(j for j in range(red.cols) if j not in pivot_set)}
    ent = {(j, i): ONE for j, i in at.items()}
    for (r, j), v in red.entries.items():
        i = at.get(j)
        if i is not None:
            ent[(pivots[r], i)] = _negated(v)
    return QMatrix._of(red.cols, len(at), ent)


def kernel_basis(m: QMatrix) -> QMatrix:
    """ker(m) as the columns of a matrix, one per free column, deterministic order."""
    return _kernel_from_rref(*rref(m))


def image_pivot_columns(m: QMatrix) -> list[int]:
    """Indices of the deterministic column basis of the image of m."""
    return _pivots(m)


def _solve(m: QMatrix, b: QMatrix) -> Optional[QMatrix]:
    """X with m X = b from one elimination of [m | b].

    Pivots are taken in m's columns only, so they do not depend on b and each
    column of X equals a one-column solve.  A row still nonzero afterwards has
    its pivot in b's part: some column is inconsistent.
    """
    rows, pivots = _rref_rows(_sparse_rows(QMatrix.hstack([m, b])), m.cols)
    if any(rows[len(pivots):]):
        return None
    return QMatrix._of(m.cols, b.cols, {
        (pc, c - m.cols): _frac(v, row[pc])
        for pc, row in zip(pivots, rows)
        for c, v in row.items()
        if c >= m.cols
    })


def solve_linear(m: QMatrix, b: Sequence[Fraction]) -> Optional[Vector]:
    """Some x with m x = b, free variables set to 0; None when inconsistent."""
    if len(b) != m.rows:
        raise ValueError("right-hand side length mismatch")
    x = _solve(m, QMatrix(m.rows, 1, {(i, 0): v for i, v in enumerate(b)}))
    return None if x is None else x.column(0)


def solve_matrix(m: QMatrix, b: QMatrix) -> Optional[QMatrix]:
    """X with m X = b, free variables set to 0; None if any column is inconsistent."""
    if b.rows != m.rows:
        raise ValueError("shape mismatch in solve_matrix")
    return _solve(m, b)

