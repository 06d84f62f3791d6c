"""Exact linear algebra over the Gaussian rationals.

This module is the deterministic substrate for all structure-theoretic
computations: scalars in Q(i), immutable matrices, canonical-echelon
subspaces of a matrix space (complex-linear or real-linear via coordinate
doubling), commutators, and exact polynomial utilities (characteristic
polynomials, squarefree parts).  The semisimple part of a matrix comes from
matrix Newton iteration on the squarefree part of its characteristic
polynomial, and the inverse from the same reduced echelon form as every
other elimination here.

Working form
------------
Matrices, coordinate vectors and echelon rows are held as Gaussian-integer
``(re, im)`` pairs over one shared positive denominator.  Products,
commutators, combinations, elimination and reduction all run on that form,
visiting only nonzero entries where it pays.  Polynomials are lists of
Gaussian-integer ``(re, im)`` coefficients, taken up to a scalar: the
characteristic polynomial is that of the numerator matrix, and gcds and
squarefree parts come from a primitive pseudo-remainder sequence.
:class:`QI` values are built only at the public edges (``entries``,
``rows``, ``flatten``, coefficient lists, ``repr``).

Canonical form
--------------
A :class:`Subspace` always stores the unique reduced row echelon form of its
spanning set with respect to the row-major flattening of ``n x n`` matrices
(for real-linear subspaces, each complex coordinate contributes a real and an
imaginary slot, in that order).  Each canonical row is kept as its
Gaussian-integer numerators over the least positive integer that clears its
denominators, which is also its pivot entry.  Two subspaces are equal iff
these rows agree entry-wise, which makes equality a syntactic check.
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Sequence

__all__ = [
    "QI",
    "ExactMatrix",
    "Subspace",
    "VectorSpan",
    "echelonize",
    "subspace_sum",
    "subspace_intersect",
    "contains",
    "bracket",
    "bracket_space",
    "linear_combination",
    "solve_kernel",
    "charpoly",
    "squarefree_part",
    "semisimple_part",
]

class QI:
    """A Gaussian-rational scalar ``re + im*i`` with exact arithmetic."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        object.__setattr__(self, "re", re if isinstance(re, Fraction) else Fraction(re))
        object.__setattr__(self, "im", im if isinstance(im, Fraction) else Fraction(im))

    def __setattr__(self, name, value):  # immutability
        raise AttributeError("QI is immutable")

    # -- arithmetic ---------------------------------------------------------
    def __add__(self, other: "QI") -> "QI":
        return QI(self.re + other.re, self.im + other.im)

    def __sub__(self, other: "QI") -> "QI":
        return QI(self.re - other.re, self.im - other.im)

    def __neg__(self) -> "QI":
        return QI(-self.re, -self.im)

    def __mul__(self, other: "QI") -> "QI":
        a, b, c, d = self.re, self.im, other.re, other.im
        return QI(a * c - b * d, a * d + b * c)

    def __truediv__(self, other: "QI") -> "QI":
        c, d = other.re, other.im
        n = c * c + d * d
        if n == 0:
            raise ZeroDivisionError("division by zero Gaussian rational")
        a, b = self.re, self.im
        return QI((a * c + b * d) / n, (b * c - a * d) / n)

    def conj(self) -> "QI":
        return QI(self.re, -self.im)

    # -- predicates / conversions ------------------------------------------
    @property
    def is_zero(self) -> bool:
        return not self.re and not self.im

    def __bool__(self) -> bool:
        return bool(self.re) or bool(self.im)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, QI) and self.re == other.re and self.im == other.im
        )

    def __hash__(self) -> int:
        return hash((self.re, self.im))

    def __repr__(self) -> str:
        if not self.im:
            return str(self.re)
        if not self.re:
            return f"{self.im}i"
        sign = "+" if self.im > 0 else "-"
        return f"{self.re}{sign}{abs(self.im)}i"


QI_ZERO = QI(0)
QI_ONE = QI(1)
QI_I = QI(0, 1)


_new = object.__new__
_set = object.__setattr__


def _qi(value) -> QI:
    """Coerce ints, Fractions, and QI values to QI."""
    if isinstance(value, QI):
        return value
    return QI(value)


# ---------------------------------------------------------------------------
# Gaussian-integer working form
# ---------------------------------------------------------------------------

IntRow = list  # list[tuple[int, int]]: Gaussian-integer (re, im) pairs


def _to_num(values: Sequence[QI]) -> tuple[int, list]:
    """Common positive denominator and Gaussian-integer numerators of QI values."""
    den = 1
    for q in values:
        dr = q.re.denominator
        di = q.im.denominator
        if dr != 1 or di != 1:
            den = lcm(den, dr, di)
    if den == 1:
        return 1, [(q.re.numerator, q.im.numerator) for q in values]
    return den, [
        (q.re.numerator * (den // q.re.denominator),
         q.im.numerator * (den // q.im.denominator))
        for q in values
    ]


def _reduce_den(den: int, num) -> tuple[int, tuple]:
    """Canonical ``(den, num)``: the denominator coprime to the numerators."""
    if den != 1:
        g = den
        for a, b in num:
            if a:
                g = gcd(g, a)
            if b:
                g = gcd(g, b)
            if g == 1:
                break
        if g > 1:
            return den // g, tuple((a // g, b // g) for a, b in num)
    return den, tuple(num)


def _qi_of(a: int, b: int, den: int) -> QI:
    """The scalar ``(a + b i) / den``."""
    if not (a or b):
        return QI_ZERO
    if den == 1:
        return QI(a, b)
    return QI(Fraction(a, den), Fraction(b, den))


def _qi_row(row, den: int) -> tuple[QI, ...]:
    return tuple(_qi_of(a, b, den) for a, b in row)


class ExactMatrix:
    """An immutable matrix with Gaussian-rational entries.

    Held as row-major Gaussian-integer numerators over one positive
    denominator coprime to them, so equal matrices have equal storage; the
    QI grid ``entries`` is built on first use.
    """

    __slots__ = ("rows", "cols", "_den", "_num", "_entries", "_terms", "_row_terms")

    def __init__(self, entries: Sequence[Sequence]):
        grid = [[_qi(e) for e in row] for row in entries]
        if grid and any(len(row) != len(grid[0]) for row in grid):
            raise ValueError("incompatible shapes")
        den, num = _to_num([q for row in grid for q in row])
        ExactMatrix._init(self, len(grid), len(grid[0]) if grid else 0, den, num)

    def _init(self, rows: int, cols: int, den: int, num) -> None:
        den, num = _reduce_den(den, num)
        _set(self, "rows", rows)
        _set(self, "cols", cols)
        _set(self, "_den", den)
        _set(self, "_num", num)
        _set(self, "_entries", None)
        _set(self, "_terms", None)
        _set(self, "_row_terms", None)

    def __setattr__(self, name, value):
        raise AttributeError("ExactMatrix is immutable")

    @staticmethod
    def _make(rows: int, cols: int, den: int, num) -> "ExactMatrix":
        """Internal constructor from row-major numerators over ``den``."""
        m = _new(ExactMatrix)
        ExactMatrix._init(m, rows, cols, den, num)
        return m

    @property
    def entries(self) -> tuple[tuple[QI, ...], ...]:
        grid = self._entries
        if grid is None:
            c, den, num = self.cols, self._den, self._num
            grid = tuple(
                _qi_row(num[i * c:(i + 1) * c], den) for i in range(self.rows)
            )
            _set(self, "_entries", grid)
        return grid

    def _nonzero(self) -> tuple:
        """The nonzero numerators as ``(flat index, re, im)``; cached."""
        terms = self._terms
        if terms is None:
            terms = tuple((k, a, b) for k, (a, b) in enumerate(self._num) if a or b)
            _set(self, "_terms", terms)
        return terms

    def _nonzero_by_row(self) -> tuple:
        """Per row, the nonzero numerators as ``(column, re, im)``; cached."""
        rows = self._row_terms
        if rows is None:
            c = self.cols
            grouped = [[] for _ in range(self.rows)]
            for k, a, b in self._nonzero():
                i, j = divmod(k, c)
                grouped[i].append((j, a, b))
            rows = tuple(tuple(r) for r in grouped)
            _set(self, "_row_terms", rows)
        return rows

    # -- constructors -------------------------------------------------------
    @staticmethod
    def zeros(rows: int, cols: int | None = None) -> "ExactMatrix":
        cols = rows if cols is None else cols
        return ExactMatrix._make(rows, cols, 1, ((0, 0),) * (rows * cols))

    @staticmethod
    def identity(n: int) -> "ExactMatrix":
        return ExactMatrix.diagonal([1] * n)

    @staticmethod
    def unit(n: int, i: int, j: int, value=1) -> "ExactMatrix":
        """The matrix with a single entry ``value`` at position ``(i, j)``."""
        den, (pair,) = _to_num([_qi(value)])
        grid = [[(0, 0)] * n for _ in range(n)]
        grid[i][j] = pair
        return ExactMatrix._make(n, n, den, [p for row in grid for p in row])

    @staticmethod
    def diagonal(values: Sequence) -> "ExactMatrix":
        n = len(values)
        den, pairs = _to_num([_qi(v) for v in values])
        num = [(0, 0)] * (n * n)
        for i, pair in enumerate(pairs):
            num[i * n + i] = pair
        return ExactMatrix._make(n, n, den, num)

    # -- algebra -------------------------------------------------------------
    def _check_same_shape(self, other: "ExactMatrix") -> None:
        if self.rows != other.rows or self.cols != other.cols:
            raise ValueError("incompatible shapes")

    def _add_scaled(self, other: "ExactMatrix", sign: int) -> "ExactMatrix":
        self._check_same_shape(other)
        d1, d2 = self._den, other._den
        den = lcm(d1, d2)
        f1, f2 = den // d1, sign * (den // d2)
        num = [
            (a * f1 + c * f2, b * f1 + d * f2)
            for (a, b), (c, d) in zip(self._num, other._num)
        ]
        return ExactMatrix._make(self.rows, self.cols, den, num)

    def __add__(self, other: "ExactMatrix") -> "ExactMatrix":
        return self._add_scaled(other, 1)

    def __sub__(self, other: "ExactMatrix") -> "ExactMatrix":
        return self._add_scaled(other, -1)

    def __neg__(self) -> "ExactMatrix":
        return ExactMatrix._make(
            self.rows, self.cols, self._den, [(-a, -b) for a, b in self._num]
        )

    def scale(self, c) -> "ExactMatrix":
        cden, ((cr, ci),) = _to_num([_qi(c)])
        num = [(cr * a - ci * b, cr * b + ci * a) for a, b in self._num]
        return ExactMatrix._make(self.rows, self.cols, self._den * cden, num)

    def __matmul__(self, other: "ExactMatrix") -> "ExactMatrix":
        if self.cols != other.rows:
            raise ValueError("incompatible shapes")
        cols = other.cols
        re = [0] * (self.rows * cols)
        im = [0] * (self.rows * cols)
        right = other._nonzero_by_row()
        for i, terms in enumerate(self._nonzero_by_row()):
            base = i * cols
            for k, a, b in terms:
                for l, c, d in right[k]:
                    re[base + l] += a * c - b * d
                    im[base + l] += a * d + b * c
        return ExactMatrix._make(
            self.rows, cols, self._den * other._den, list(zip(re, im))
        )

    def _transposed(self, conj: bool) -> "ExactMatrix":
        r, c, num = self.rows, self.cols, self._num
        sign = -1 if conj else 1
        out = [
            (num[i * c + j][0], sign * num[i * c + j][1])
            for j in range(c)
            for i in range(r)
        ]
        return ExactMatrix._make(c, r, self._den, out)

    def star(self) -> "ExactMatrix":
        """Conjugate transpose."""
        return self._transposed(True)

    def transpose(self) -> "ExactMatrix":
        return self._transposed(False)

    def trace(self) -> QI:
        if self.rows != self.cols:
            raise ValueError("incompatible shapes")
        n, num = self.rows, self._num
        return _qi_of(
            sum(num[i * n + i][0] for i in range(n)),
            sum(num[i * n + i][1] for i in range(n)),
            self._den,
        )

    def power(self, k: int) -> "ExactMatrix":
        if self.rows != self.cols:
            raise ValueError("incompatible shapes")
        result = ExactMatrix.identity(self.rows)
        base = self
        while k:
            if k & 1:
                result = result @ base
            base = base @ base if k > 1 else base
            k >>= 1
        return result

    def inverse(self) -> "ExactMatrix":
        """Exact inverse: the right half of the reduced echelon form of [A | I].

        ``[A | I]`` is taken as ``[num | den I]``, which has the same rows up
        to the positive scale ``den``; A is invertible iff the pivots are the
        first ``n`` columns.
        """
        if self.rows != self.cols:
            raise ValueError("incompatible shapes")
        n, den = self.rows, self._den
        pivots, rows = _rref_num(
            row + [(den, 0) if i == j else (0, 0) for j in range(n)]
            for i, row in enumerate(self._row_nums())
        )
        if pivots != tuple(range(n)):
            raise ValueError("matrix is singular")
        den, nums = _common_den([(row[p][0], row[n:]) for row, p in zip(rows, pivots)])
        return ExactMatrix._make(n, n, den, [pair for num in nums for pair in num])

    # -- predicates / conversions --------------------------------------------
    @property
    def is_zero(self) -> bool:
        return not self._nonzero()

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols

    def is_nilpotent(self) -> bool:
        if not self.is_square:
            raise ValueError("incompatible shapes")
        return self.power(self.rows).is_zero

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, ExactMatrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self._den == other._den
            and self._num == other._num
        )

    def __hash__(self) -> int:
        return hash((self.rows, self._den, self._num))

    def _row_nums(self) -> list[IntRow]:
        """The rows' numerators (the common denominator dropped)."""
        c, num = self.cols, self._num
        return [list(num[i * c:(i + 1) * c]) for i in range(self.rows)]

    def _apply(self, den: int, vec) -> tuple[int, list]:
        """``self @ (vec / den)`` as ``(den', numerators)``."""
        out = []
        for terms in self._nonzero_by_row():
            sre = sim = 0
            for j, a, b in terms:
                c, d = vec[j]
                if c or d:
                    sre += a * c - b * d
                    sim += a * d + b * c
            out.append((sre, sim))
        return self._den * den, out

    def _coords(self, real: bool) -> list:
        """Coordinate numerators (over ``_den``): row-major, real-doubled if asked."""
        if real:
            return [p for a, b in self._num for p in ((a, 0), (b, 0))]
        return list(self._num)

    def flatten(self) -> tuple[QI, ...]:
        """Row-major coordinate vector of length ``rows * cols``."""
        return _qi_row(self._num, self._den)

    def flatten_real(self) -> tuple[QI, ...]:
        """Real-doubled coordinates: (Re, Im) per entry, row-major."""
        return _qi_row(self._coords(True), self._den)

    def to_numpy(self):
        import numpy as np

        c, den, num = self.cols, self._den, self._num
        return np.array(
            [
                [complex(a / den, b / den) for a, b in num[i * c:(i + 1) * c]]
                for i in range(self.rows)
            ],
            dtype=complex,
        )

    def __repr__(self) -> str:
        body = "; ".join(
            " ".join(repr(a) for a in row) for row in self.entries
        )
        return f"ExactMatrix[{body}]"


def _lincomb(mats: Sequence[ExactMatrix], cden: int, cnum) -> ExactMatrix:
    """``Σ (cnum[k] / cden) * mats[k]`` in one integer pass."""
    if not mats:
        raise ValueError("incompatible shapes")
    rows, cols = mats[0].rows, mats[0].cols
    terms = []
    den = 1
    for (cr, ci), m in zip(cnum, mats):
        if m.rows != rows or m.cols != cols:
            raise ValueError("incompatible shapes")
        if cr or ci:
            terms.append((cr, ci, m))
            if m._den != 1:
                den = lcm(den, m._den)
    re = [0] * (rows * cols)
    im = [0] * (rows * cols)
    for cr, ci, m in terms:
        f = den // m._den
        fr, fi = f * cr, f * ci
        for k, a, b in m._nonzero():
            re[k] += fr * a - fi * b
            im[k] += fr * b + fi * a
    return ExactMatrix._make(rows, cols, den * cden, list(zip(re, im)))


def linear_combination(mats: Sequence[ExactMatrix], coeffs: Sequence) -> ExactMatrix:
    """Fused exact sum ``Σ coeffs[k] * mats[k]`` (single integer pass)."""
    cden, cnum = _to_num([_qi(c) for c in coeffs])
    return _lincomb(mats, cden, cnum)


def bracket(x: ExactMatrix, y: ExactMatrix) -> ExactMatrix:
    """The commutator ``x @ y - y @ x`` (exact, over the nonzero entries)."""
    if not (x.is_square and y.is_square and x.rows == y.rows):
        raise ValueError("incompatible shapes")
    n = x.rows
    re = [0] * (n * n)
    im = [0] * (n * n)
    xr = x._nonzero_by_row()
    yr = y._nonzero_by_row()
    for i in range(n):
        base = i * n
        for k, a, b in xr[i]:
            for l, c, d in yr[k]:
                re[base + l] += a * c - b * d
                im[base + l] += a * d + b * c
        for k, a, b in yr[i]:
            for l, c, d in xr[k]:
                re[base + l] -= a * c - b * d
                im[base + l] -= a * d + b * c
    return ExactMatrix._make(n, n, x._den * y._den, list(zip(re, im)))


def _trace_form(x: ExactMatrix, y: ExactMatrix) -> tuple[int, tuple[int, int]]:
    """``tr(x @ y)`` as ``(den, (re, im))`` numerators over ``den``."""
    n, ynum = x.cols, y._num
    sre = sim = 0
    for k, a, b in x._nonzero():
        i, j = divmod(k, n)
        c, d = ynum[j * n + i]
        if c or d:
            sre += a * c - b * d
            sim += a * d + b * c
    return x._den * y._den, (sre, sim)


# ---------------------------------------------------------------------------
# Gaussian-integer elimination core
# ---------------------------------------------------------------------------


def _row_content_normalize(row: IntRow) -> IntRow:
    g = 0
    for a, b in row:
        if a:
            g = gcd(g, a)
        if b:
            g = gcd(g, b)
        if g == 1:
            return row
    if g > 1:
        return [(a // g, b // g) for a, b in row]
    return row


def _int_row(vec: Sequence[QI]) -> IntRow:
    """A QI vector as a content-reduced Gaussian-integer row (same span)."""
    return _row_content_normalize(_to_num(vec)[1])


def _first_nonzero(row: IntRow) -> int:
    for idx, (a, b) in enumerate(row):
        if a or b:
            return idx
    return -1


def _nonzero_indices(row) -> list[int]:
    return [k for k, (a, b) in enumerate(row) if a or b]


def _subtract_multiple(row, pivot_row, col: int, nnz: Sequence[int]) -> IntRow:
    """``p*row - r*pivot_row`` where p, r are the column-``col`` values."""
    ra, rb = row[col]
    pa, pb = pivot_row[col]
    if pb:
        new = [(pa * a - pb * b, pa * b + pb * a) for a, b in row]
    elif pa == 1:
        new = list(row)
    else:
        new = [(pa * a, pa * b) for a, b in row]
    for k in nnz:
        qa, qb = pivot_row[k]
        na, nb = new[k]
        new[k] = (na - (ra * qa - rb * qb), nb - (ra * qb + rb * qa))
    return new


def _eliminate(row: IntRow, pivot_row: IntRow, col: int, nnz: Sequence[int]) -> IntRow:
    """Clear column ``col`` of ``row`` with ``pivot_row`` (content-reduced)."""
    return _row_content_normalize(_subtract_multiple(row, pivot_row, col, nnz))


def _canonical_row(row: IntRow, col: int) -> tuple:
    """The Gaussian-integer multiple of ``row`` whose pivot entry is the
    least positive integer possible (the canonical-row numerators)."""
    pa, pb = row[col]
    if pb:
        norm = pa * pa + pb * pb
        row = [(a * pa + b * pb, b * pa - a * pb) for a, b in row]
        pa = norm
    elif pa < 0:
        row = [(-a, -b) for a, b in row]
        pa = -pa
    g = pa
    for a, b in row:
        if a:
            g = gcd(g, a)
        if b:
            g = gcd(g, b)
        if g == 1:
            return tuple(row)
    return tuple((a // g, b // g) for a, b in row)


class _Echelon:
    """Incremental Gaussian-integer row echelon structure."""

    __slots__ = ("rows", "pivots", "nnz")

    def __init__(self):
        self.rows: list[IntRow] = []
        self.pivots: list[int] = []
        self.nnz: list[list[int]] = []

    def reduce(self, row: IntRow) -> IntRow:
        """Reduce ``row`` against the current echelon (no insertion)."""
        for i, col in enumerate(self.pivots):
            a, b = row[col]
            if a or b:
                row = _eliminate(row, self.rows[i], col, self.nnz[i])
        return row

    def insert(self, row: IntRow) -> bool:
        """Reduce and insert; returns True when the row increased the rank."""
        row = self.reduce(row)
        nnz = _nonzero_indices(row)
        if not nnz:
            return False
        row = _row_content_normalize(row)
        col = nnz[0]
        pos = bisect_left(self.pivots, col)
        self.rows.insert(pos, row)
        self.pivots.insert(pos, col)
        self.nnz.insert(pos, nnz)
        return True

    def canonical(self) -> tuple[tuple[int, ...], tuple[tuple, ...]]:
        """Clear entries above every pivot; return (pivots, canonical rows).

        Rows are processed bottom-up, so each pivot row is final before it
        is used.
        """
        rows = self.rows
        for i in range(len(rows) - 1, -1, -1):
            col = self.pivots[i]
            nnz_i = _nonzero_indices(rows[i])
            for j in range(i):
                a, b = rows[j][col]
                if a or b:
                    rows[j] = _eliminate(rows[j], rows[i], col, nnz_i)
        return tuple(self.pivots), tuple(
            _canonical_row(r, c) for r, c in zip(rows, self.pivots)
        )


def _rref_num(rows: Iterable[IntRow]) -> tuple[tuple[int, ...], tuple[tuple, ...]]:
    """Canonical reduced echelon form (pivots, rows) of Gaussian-integer rows."""
    ech = _Echelon()
    for row in rows:
        ech.insert(row)
    return ech.canonical()


def _kernel_num(rows: Iterable[IntRow], ncols: int) -> tuple[tuple[int, ...], tuple[tuple, ...]]:
    """Canonical echelon (pivots, rows) of the right kernel of integer rows."""
    pivots, reduced = _rref_num(rows)
    pivot_set = set(pivots)
    basis = []
    for f in range(ncols):
        if f in pivot_set:
            continue
        den = 1
        for row, p in zip(reduced, pivots):
            if row[f] != (0, 0):
                den = lcm(den, row[p][0])
        vec = [(0, 0)] * ncols
        vec[f] = (den, 0)
        for row, p in zip(reduced, pivots):
            a, b = row[f]
            if a or b:
                q = den // row[p][0]
                vec[p] = (-a * q, -b * q)
        basis.append(vec)
    return _rref_num(basis)


def _kernel_mats(mats: Sequence[ExactMatrix], rows: Iterable[IntRow]) -> list[ExactMatrix]:
    """The combinations of ``mats`` whose coefficient vectors span the
    canonical kernel of the integer constraint ``rows``."""
    pivots, kernel = _kernel_num(rows, len(mats))
    return [_lincomb(mats, row[p][0], row) for row, p in zip(kernel, pivots)]


def _common_den(parts) -> tuple[int, list]:
    """``(den, numerators)`` pairs brought to their least common denominator."""
    den = 1
    for d, _ in parts:
        if d != 1:
            den = lcm(den, d)
    return den, [
        num if d == den else [(a * (den // d), b * (den // d)) for a, b in num]
        for d, num in parts
    ]


def _common_row(values) -> IntRow:
    """Numerators of the scalars ``(den, (re, im))`` over one denominator."""
    _, nums = _common_den([(d, (pair,)) for d, pair in values])
    return [num[0] for num in nums]


def _columns_to_rows(cols) -> list[IntRow]:
    """Rows of the matrix with the given ``(den, numerators)`` columns,
    over one denominator (dropped); all-zero rows are left out."""
    _, nums = _common_den(cols)
    return [list(row) for row in zip(*nums) if any(a or b for a, b in row)]


def _matrix_from_columns(cols) -> ExactMatrix:
    """The square matrix whose ``j``-th column is ``cols[j] = (den, numerators)``."""
    m = len(cols)
    den, nums = _common_den(cols)
    return ExactMatrix._make(m, m, den, [nums[j][i] for i in range(m) for j in range(m)])


def solve_kernel(rows: Sequence[Sequence[QI]], ncols: int) -> list[tuple[QI, ...]]:
    """Basis of the right kernel of the matrix with the given rows.

    Parameters
    ----------
    rows:
        Constraint rows (each of length ``ncols``); the kernel is
        ``{x : row . x = 0 for every row}``.
    ncols:
        Number of unknowns.

    Returns
    -------
    list of coordinate vectors spanning the kernel (canonically echelonized).
    """
    pivots, kernel = _kernel_num([_int_row(r) for r in rows], ncols)
    return [_qi_row(row, row[p][0]) for row, p in zip(kernel, pivots)]


# ---------------------------------------------------------------------------
# Canonical spans
# ---------------------------------------------------------------------------


class _Span:
    """Canonical reduced echelon basis of a span of coordinate vectors.

    Row ``i`` is stored as the Gaussian-integer numerators of the canonical
    row over its pivot entry ``d_i`` (the least positive integer making the
    row integral); the QI rows are built on first use of ``rows``.
    """

    __slots__ = ("pivots", "_irows", "_nnz", "_rows", "_hash")

    def _set_echelon(self, pivots, irows) -> None:
        _set(self, "pivots", tuple(pivots))
        _set(self, "_irows", tuple(irows))
        _set(self, "_nnz", tuple(_nonzero_indices(r) for r in irows))
        _set(self, "_rows", None)
        _set(self, "_hash", None)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    @property
    def dim(self) -> int:
        return len(self.pivots)

    @property
    def rows(self) -> tuple[tuple[QI, ...], ...]:
        """The canonical basis rows (pivot entries 1)."""
        rows = self._rows
        if rows is None:
            rows = tuple(
                _qi_row(r, r[p][0]) for r, p in zip(self._irows, self.pivots)
            )
            _set(self, "_rows", rows)
        return rows

    def _reduce(self, row: IntRow) -> IntRow:
        """A row reduced against the basis (scale not preserved)."""
        for prow, col, nnz in zip(self._irows, self.pivots, self._nnz):
            a, b = row[col]
            if a or b:
                row = _eliminate(row, prow, col, nnz)
        return row

    def _has(self, row: IntRow) -> bool:
        return _first_nonzero(self._reduce(row)) < 0

    def _residue(self, den: int, row) -> tuple[int, tuple]:
        """``(den', numerators)`` of the residue of ``row / den``: the vector
        minus the unique member agreeing with it at the pivot coordinates."""
        for prow, col, nnz in zip(self._irows, self.pivots, self._nnz):
            a, b = row[col]
            if a or b:
                row = _subtract_multiple(row, prow, col, nnz)
                den *= prow[col][0]
        return _reduce_den(den, row)

    def _coordinate_num(self, den: int, row, outside: str) -> tuple[int, list]:
        """Basis coefficients of ``row / den`` as ``(den, numerators)``; the
        vector must lie in the span, else ``ValueError(outside)``.

        A canonical row is 1 at its own pivot and 0 at every other pivot, so
        the coefficients are the vector's values at the pivots.
        """
        if not self._has(row):
            raise ValueError(outside)
        return den, [row[p] for p in self.pivots]

    def _same_span(self, other) -> bool:
        return self.pivots == other.pivots and self._irows == other._irows

    def _span_hash(self, *key) -> int:
        h = self._hash
        if h is None:
            h = hash(key + (self.pivots, self._irows))
            _set(self, "_hash", h)
        return h


class VectorSpan(_Span):
    """A canonical-echelon span of plain coordinate vectors over Q(i).

    Companion to :class:`Subspace` for coefficient spaces that are not
    matrix-shaped (weight functionals, abstract coordinates, flags of C^n).
    """

    __slots__ = ("width",)

    @staticmethod
    def _of(width: int, pivots, irows) -> "VectorSpan":
        span = _new(VectorSpan)
        _set(span, "width", width)
        span._set_echelon(pivots, irows)
        return span

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, VectorSpan)
            and self.width == other.width
            and self._same_span(other)
        )

    def __hash__(self) -> int:
        return self._span_hash(self.width)


class Subspace(_Span):
    """A linear subspace of the space of ``side x side`` matrices.

    ``real=False``: a complex-linear subspace; coordinates are the row-major
    matrix entries.  ``real=True``: a real-linear subspace; coordinates are
    (Re, Im) pairs of the row-major entries and scalars are rational.

    The stored basis is the unique canonical reduced echelon basis, so
    equality of subspaces is entry-wise equality of bases.
    """

    __slots__ = ("side", "real", "_basis")

    @staticmethod
    def _of(side: int, real: bool, pivots, irows) -> "Subspace":
        s = _new(Subspace)
        _set(s, "side", side)
        _set(s, "real", real)
        _set(s, "_basis", None)
        s._set_echelon(pivots, irows)
        return s

    # -- constructors --------------------------------------------------------
    @staticmethod
    def span(mats: Iterable[ExactMatrix], side: int, real: bool = False) -> "Subspace":
        rows = []
        for m in mats:
            if m.rows != side or m.cols != side:
                raise ValueError("incompatible shapes")
            rows.append(_row_content_normalize(m._coords(real)))
        return Subspace._of(side, real, *_rref_num(rows))

    @staticmethod
    def zero(side: int, real: bool = False) -> "Subspace":
        return Subspace._of(side, real, (), ())

    # -- core queries ---------------------------------------------------------
    @property
    def ambient_dim(self) -> int:
        n2 = self.side * self.side
        return 2 * n2 if self.real else n2

    def _coords_of(self, mat: ExactMatrix) -> list:
        if mat.rows != self.side or mat.cols != self.side:
            raise ValueError("incompatible shapes")
        return mat._coords(self.real)

    def basis(self) -> list[ExactMatrix]:
        """Canonical basis, as matrices."""
        mats = self._basis
        if mats is None:
            n = self.side
            mats = []
            for row, p in zip(self._irows, self.pivots):
                den = row[p][0]
                if self.real:
                    row = [(row[2 * k][0], row[2 * k + 1][0]) for k in range(n * n)]
                mats.append(ExactMatrix._make(n, n, den, row))
            mats = tuple(mats)
            _set(self, "_basis", mats)
        return list(mats)

    def _residue_mat(self, mat: ExactMatrix) -> tuple[int, tuple]:
        return self._residue(mat._den, self._coords_of(mat))

    def contains_mat(self, mat: ExactMatrix) -> bool:
        return self._has(_row_content_normalize(self._coords_of(mat)))

    def contains_space(self, other: "Subspace") -> bool:
        self._check_compatible(other)
        return all(self._has(row) for row in other._irows)

    def coordinates_of(self, mat: ExactMatrix) -> list[QI]:
        """Coefficients of ``mat`` in the canonical basis (must be a member)."""
        den, coords = self._coordinate_num(
            mat._den, self._coords_of(mat), "matrix is not a member of the subspace"
        )
        return list(_qi_row(coords, den))

    def _check_compatible(self, other: "Subspace") -> None:
        if self.side != other.side or self.real != other.real:
            raise ValueError("ambient mismatch")

    # -- lattice operations ----------------------------------------------------
    def sum(self, other: "Subspace") -> "Subspace":
        self._check_compatible(other)
        rows = [list(r) for r in self._irows] + [list(r) for r in other._irows]
        return Subspace._of(self.side, self.real, *_rref_num(rows))

    def intersect(self, other: "Subspace") -> "Subspace":
        """Intersection via the Zassenhaus double-block elimination."""
        self._check_compatible(other)
        width = self.ambient_dim
        ech = _Echelon()
        for row in self._irows:
            ech.insert(list(row) + list(row))
        zero = [(0, 0)] * width
        for row in other._irows:
            ech.insert(list(row) + zero)
        inter = [row[width:] for row, col in zip(ech.rows, ech.pivots) if col >= width]
        return Subspace._of(self.side, self.real, *_rref_num(inter))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Subspace)
            and self.side == other.side
            and self.real == other.real
            and self._same_span(other)
        )

    def __hash__(self) -> int:
        return self._span_hash(self.side, self.real)

    # -- real/complex interplay --------------------------------------------------
    def realify(self) -> "Subspace":
        """The underlying real-linear subspace of a complex-linear one."""
        if self.real:
            return self
        rows = [[p for a, b in row for p in ((a, 0), (b, 0))] for row in self._irows]
        rows += [[p for a, b in row for p in ((-b, 0), (a, 0))] for row in self._irows]
        return Subspace._of(self.side, True, *_rref_num(rows))

    def complexify_if_stable(self) -> "Subspace | None":
        """The complex-linear space with the same elements, if i-stable."""
        if not self.real:
            return self
        mats = self.basis()
        for m in mats:
            if not self.contains_mat(m.scale(QI_I)):
                return None
        return Subspace.span(mats, self.side, real=False)

    def __repr__(self) -> str:
        kind = "R" if self.real else "C"
        return f"Subspace(side={self.side}, dim={self.dim}, field={kind})"


# ---------------------------------------------------------------------------
# Module-level convenience operations
# ---------------------------------------------------------------------------


def echelonize(mats: Sequence[ExactMatrix], side: int | None = None,
               real: bool = False) -> Subspace:
    """Canonical subspace spanned by the given matrices.

    ``side`` may be omitted when at least one matrix is supplied.
    """
    mats = list(mats)
    if side is None:
        if not mats:
            raise ValueError("incompatible shapes")
        side = mats[0].rows
    return Subspace.span(mats, side, real=real)


def subspace_sum(a: Subspace, b: Subspace) -> Subspace:
    return a.sum(b)


def subspace_intersect(a: Subspace, b: Subspace) -> Subspace:
    return a.intersect(b)


def contains(a: Subspace, x: ExactMatrix) -> bool:
    return a.contains_mat(x)


def bracket_space(a: Subspace, b: Subspace) -> Subspace:
    """Span of pairwise commutators of the two bases."""
    if a.real or b.real:
        raise ValueError("ambient mismatch")
    a._check_compatible(b)
    if a is b or a == b:
        mats = a.basis()
        brackets = [
            bracket(mats[i], mats[j])
            for i in range(len(mats))
            for j in range(i + 1, len(mats))
        ]
    else:
        brackets = [bracket(x, y) for x in a.basis() for y in b.basis()]
    return Subspace.span(brackets, a.side, real=False)


# ---------------------------------------------------------------------------
# Polynomials: Gaussian-integer coefficient lists, leading coefficient
# first and nonzero ([] is the zero polynomial)
# ---------------------------------------------------------------------------


def _plus_scalar(m: ExactMatrix, c: tuple[int, int]) -> ExactMatrix:
    """``m + c I`` for a Gaussian integer ``c``."""
    n, den = m.rows, m._den
    num = list(m._num)
    for k in range(0, n * n, n + 1):
        a, b = num[k]
        num[k] = (a + c[0] * den, b + c[1] * den)
    return ExactMatrix._make(n, n, den, num)


def _charpoly_num(x: ExactMatrix) -> IntRow:
    """The monic det(tI - X) of the numerator matrix X = den * x.

    Faddeev-LeVerrier: M_k = X (M_{k-1} + c_{k-1} I) and c_k = -tr(M_k) / k.
    Every c_k lies in Z[i], as X does, so each division by k is exact; the
    coefficients of det(tI - x) are c_k / den^k.
    """
    if not x.is_square:
        raise ValueError("incompatible shapes")
    n = x.rows
    big = ExactMatrix._make(n, n, 1, x._num)
    coeffs = [(1, 0)]
    prod = ExactMatrix.zeros(n)
    for k in range(1, n + 1):
        prod = big @ _plus_scalar(prod, coeffs[-1])
        diag = prod._num[::n + 1]
        coeffs.append((-sum(a for a, _ in diag) // k, -sum(b for _, b in diag) // k))
    return coeffs


def _poly_derivative(p: IntRow) -> IntRow:
    n = len(p) - 1
    return [((n - i) * a, (n - i) * b) for i, (a, b) in enumerate(p[:-1])]


def _pseudo_divmod(p: IntRow, q: IntRow) -> tuple[IntRow, IntRow]:
    """Pseudo-division for deg p >= deg q: ``(quot, rem)`` with
    lc(q)^(deg p - deg q + 1) p = quot q + rem and deg rem < deg q."""
    lr, li = q[0]
    m = len(p) - len(q) + 1
    work = list(p)
    # step i: work[i] becomes the next quotient coefficient, every other
    # entry is multiplied by lc(q), and work[i] * q leaves the remainder
    for i in range(m):
        ar, ai = work[i]
        work = [(lr * c - li * d, lr * d + li * c) for c, d in work]
        work[i] = (ar, ai)
        for k, (c, d) in enumerate(q[1:], i + 1):
            er, ei = work[k]
            work[k] = (er - (ar * c - ai * d), ei - (ar * d + ai * c))
    rem = work[m:]
    lead = _first_nonzero(rem)
    return work[:m], rem[lead:] if lead >= 0 else []


def _poly_gcd(p: IntRow, q: IntRow) -> IntRow:
    """A gcd of ``p`` and ``q`` (deg p >= deg q), up to a scalar.

    The primitive pseudo-remainder sequence (Collins, J. ACM 14, 1967;
    Brown & Traub, J. ACM 18, 1971): each remainder loses its integer
    content, which keeps the coefficients small.
    """
    while q:
        p, q = q, _row_content_normalize(_pseudo_divmod(p, q)[1])
    return p


def _squarefree_num(p: IntRow) -> IntRow:
    """The squarefree part ``p / gcd(p, p')`` of a nonzero polynomial, up to
    a scalar."""
    quot, rem = _pseudo_divmod(p, _poly_gcd(p, _poly_derivative(p)))
    if rem:
        raise ArithmeticError("squarefree division left a remainder")
    return _row_content_normalize(quot)


def _poly_eval_matrix(p: IntRow, x: ExactMatrix) -> ExactMatrix:
    """``p(x)`` by Horner's rule."""
    acc = ExactMatrix.zeros(x.rows)
    for c in p:
        acc = _plus_scalar(acc @ x, c)
    return acc


def charpoly(x: ExactMatrix) -> list[QI]:
    """Exact characteristic polynomial det(tI - x), leading coefficient 1."""
    den = x._den
    return [_qi_of(a, b, den**k) for k, (a, b) in enumerate(_charpoly_num(x))]


def squarefree_part(p: Sequence[QI]) -> list[QI]:
    """The squarefree part ``p / gcd(p, p')`` (monic)."""
    _, num = _to_num(p)
    lead = _first_nonzero(num)
    if lead < 0:
        raise ZeroDivisionError("polynomial division by zero")
    part = _qi_row(_squarefree_num(num[lead:]), 1)
    return [c / part[0] for c in part]


def semisimple_part(x: ExactMatrix) -> ExactMatrix:
    """The semisimple summand of the additive Jordan decomposition of ``x``.

    Matrix Newton iteration ``s <- s - f(s) f'(s)^-1`` from the numerator
    matrix ``s = X = den * x``, with ``f`` the squarefree part of its
    characteristic polynomial; the Jordan decomposition is linear, so the
    result scaled by ``1 / den`` is that of ``x``.  Every iterate is a
    polynomial in ``X`` differing from it by a nilpotent, so ``f'(s)`` is
    invertible (the roots of ``f`` are simple) and ``f(s)`` is nilpotent; by
    Taylor's formula the next ``f(s)`` is a multiple of the square of the
    last, so ``f(s) = 0`` after at most ``ceil(log2 n)`` steps.
    """
    f = _charpoly_num(x)
    fs = _squarefree_num(f)
    if len(fs) == len(f):
        return x
    dfs = _poly_derivative(fs)
    s = ExactMatrix._make(x.rows, x.cols, 1, x._num)
    for _ in range((x.rows - 1).bit_length() + 1):
        val = _poly_eval_matrix(fs, s)
        if val.is_zero:
            return ExactMatrix._make(s.rows, s.cols, s._den * x._den, s._num)
        s = s - val @ _poly_eval_matrix(dfs, s).inverse()
    raise ArithmeticError("Newton iteration failed to converge exactly")
