"""Exact linear algebra over the Gaussian rationals.

This module is the deterministic substrate for all structure-theoretic
computations: scalars in Q(i), immutable matrices, canonical-echelon
subspaces of a matrix space (complex-linear or real-linear via coordinate
doubling), commutators, the trace pairing and the Killing form of a
quotient algebra, and exact polynomial utilities (characteristic
polynomials, squarefree parts, roots in Q(i)).  The semisimple part of a
matrix comes from matrix Newton iteration on the squarefree part of its
characteristic polynomial, and the inverse from the same reduced echelon
form as every other elimination here.

Working form
------------
The working form below is private to this module: other modules reach it
only through the public names in ``__all__`` and the public methods of
:class:`ExactMatrix` and :class:`Subspace`.

Matrices, coordinate vectors and echelon rows are sparse: dicts from an
index (row-major for matrices) to the Gaussian-integer ``(re, im)`` pair of
each nonzero entry, over one shared positive denominator.  Products,
commutators, combinations, elimination and reduction touch only those
entries.

Commutators, products and traces ``tr(x·y)`` each have one batch kernel
over two lists of matrices (:func:`products` and :func:`trace_pairing` are
public); a single ``bracket`` or ``@`` is the kernel on one pair.  The
pruning rule: ``x·y`` is nonzero only where a column index of ``x`` is a
row index of ``y`` (Gustavson, ACM TOMS 4, 1978), ``[x, y]`` only where
that holds for ``x·y`` or for ``y·x``, and ``tr(x·y)`` only where a
position ``(i, j)`` of ``x`` is the transposed position ``(j, i)`` of
``y``.  A kernel indexes the terms of its right factors once, by row, by
column or by transposed position, with the bitmask of the factors holding
each index; each left factor then meets only the right factors that share
an index with it, and only nonzero results come out, in row-major order of
the pairs.  Where only a commutator's coordinates are wanted (commutator
spans, closure and membership checks, centralizer and normalizer
constraints, Killing-form residues) they are read as a numerator row and no
matrix is built; a membership scan stops at the first commutator outside.
The echelon maps each pivot column to its row, and reducing a row visits
only the pivots that occur in it, in increasing column order; stored pivot
rows are primitive over Z[i], so entries stay as small as their lines
allow.  Polynomials are dense lists of Gaussian-integer ``(re, im)``
coefficients, taken up to a scalar: the
characteristic polynomial is that of the numerator matrix, and gcds and
squarefree parts come from a primitive pseudo-remainder sequence.
:class:`QI` values are built only at the public edges (``entries``,
``flatten``, coefficient lists, ``repr``).

Canonical form
--------------
A :class:`Subspace` always stores the unique reduced row echelon form of its
spanning set with respect to the row-major flattening of ``n x n`` matrices
(for real-linear subspaces, each complex coordinate contributes a real and an
imaginary slot, in that order).  Each canonical row is kept as its
Gaussian-integer numerators over the least positive integer that clears its
denominators, which is also its pivot entry.  Two subspaces are equal iff
these rows agree entry-wise, which makes equality a syntactic check.

Kernels
-------
Subspaces cut out of a span by linear constraints come from two entry
points.  :func:`trace_annihilator` keeps the combinations of given matrices
that are trace-orthogonal to others (radicals, nilradicals, trace
complements, fiber factors); :func:`kernel_space` keeps those that given
linear maps send to zero, or into a subspace (the closed-form split),
and :func:`bracket_kernel` is its form for the maps
``ad y`` (centralizers, normalizers, stabilizers).  Both solve one integer
system by the shared elimination, over complex coefficients or, with
``real=True``, over rational ones with the real and imaginary parts of
each constraint imposed separately.  :func:`kernel_projector` solves the same kind of
system on Cⁿ itself and returns the orthogonal projector onto the joint
kernel of given matrices: a subspace of Cⁿ, such as a step of an invariant
flag, is held as that projector, which is unique, so two steps are equal
iff their projectors are.  The same call gives eigenspaces:
``kernel_projector([z − λ])`` projects onto the λ-eigenspace of z, and for
commuting normal z the products of these are the joint eigenprojectors
from which the weight pieces of a Levi center are built.

Forms and roots
---------------
:func:`trace_pairing` is the one place the trace form is computed (sparse,
over one common denominator), and
:func:`killing_form` certifies radicals.  :func:`hermitian_inertia` reads
the signature of a Hermitian form from an exact congruence (Sylvester's
law of inertia).  :func:`rational_roots` finds the roots in Q(i) by Hensel
lifting modulo an inert prime.
"""

from __future__ import annotations

from fractions import Fraction
from heapq import heapify, heappop, heappush
from itertools import groupby
from math import gcd, isqrt, lcm
from operator import itemgetter
from typing import Iterable, Sequence

__all__ = [
    "QI",
    "ExactMatrix",
    "Subspace",
    "bracket",
    "bracket_space",
    "bracket_kernel",
    "products",
    "trace_pairing",
    "combine",
    "killing_form",
    "hermitian_inertia",
    "trace_annihilator",
    "kernel_space",
    "kernel_projector",
    "solve_kernel",
    "charpoly",
    "squarefree_part",
    "semisimple_part",
    "rational_roots",
]

class QI:
    """A Gaussian-rational scalar ``re + im*i`` with exact arithmetic."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        _qi_re(self, re if isinstance(re, Fraction) else Fraction(re))
        _qi_im(self, im if isinstance(im, Fraction) else Fraction(im))

    def __setattr__(self, name, value):  # immutability
        raise AttributeError("QI is immutable")

    def __delattr__(self, name):
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


# Construction writes the slots through their descriptors, past the
# ``__setattr__`` that keeps the classes immutable.
_new = object.__new__
_qi_re, _qi_im = QI.re.__set__, QI.im.__set__

QI_ZERO = QI(0)
QI_ONE = QI(1)
QI_I = QI(0, 1)


def _qi(value) -> QI:
    """Coerce ints, Fractions, and QI values to QI."""
    if isinstance(value, QI):
        return value
    return QI(value)


# ---------------------------------------------------------------------------
# Gaussian-integer working form
# ---------------------------------------------------------------------------

IntRow = list  # list[tuple[int, int]]: dense Gaussian-integer (re, im) pairs
SparseRow = dict  # dict[int, tuple[int, int]]: the nonzero (re, im) entries


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


def _qi_of(a: int, b: int, den: int) -> QI:
    """The scalar ``(a + b i) / den``."""
    if not (a or b):
        return QI_ZERO
    if den == 1:
        return QI(a, b)
    return QI(Fraction(a, den), Fraction(b, den))


class ExactMatrix:
    """An immutable matrix with Gaussian-rational entries.

    Held as its nonzero Gaussian-integer numerators ``{row-major index:
    (re, im)}`` over one positive denominator coprime to them, so equal
    matrices have equal storage; the QI grid ``entries`` is built on first
    use.
    """

    __slots__ = ("rows", "cols", "_den", "_terms", "_entries")

    def __init__(self, entries: Sequence[Sequence]):
        grid = [list(row) for row in entries]
        if grid and any(len(row) != len(grid[0]) for row in grid):
            raise ValueError("incompatible shapes")
        flat = [e for row in grid for e in row]
        if all(type(e) is int for e in flat):  # no QI needed
            den, num = 1, [(e, 0) for e in flat]
        else:
            den, num = _to_num([_qi(e) for e in flat])
        terms = {k: pair for k, pair in enumerate(num) if pair != (0, 0)}
        ExactMatrix._init(self, len(grid), len(grid[0]) if grid else 0, den, terms)

    def _init(self, rows: int, cols: int, den: int, terms: SparseRow) -> None:
        if den != 1:
            g = _content(terms.values(), den)
            den, terms = den // g, _divide(terms, g)
        _m_rows(self, rows)
        _m_cols(self, cols)
        _m_den(self, den)
        _m_terms(self, terms)
        _m_entries(self, None)

    def __setattr__(self, name, value):
        raise AttributeError("ExactMatrix is immutable")

    def __delattr__(self, name):
        raise AttributeError("ExactMatrix is immutable")

    @staticmethod
    def _make(rows: int, cols: int, den: int, terms: SparseRow) -> "ExactMatrix":
        """Internal constructor from the nonzero numerators over ``den``
        (zero entries left out); ``terms`` must not be modified afterwards."""
        m = _new(ExactMatrix)
        ExactMatrix._init(m, rows, cols, den, terms)
        return m

    @property
    def entries(self) -> tuple[tuple[QI, ...], ...]:
        grid = self._entries
        if grid is None:
            c = self.cols
            flat = _qi_vec(self._terms, self.rows * c, self._den)
            grid = tuple(flat[i * c:(i + 1) * c] for i in range(self.rows))
            _m_entries(self, grid)
        return grid

    # -- constructors -------------------------------------------------------
    @staticmethod
    def zeros(rows: int, cols: int | None = None) -> "ExactMatrix":
        return ExactMatrix._make(rows, rows if cols is None else cols, 1, {})

    @staticmethod
    def identity(n: int) -> "ExactMatrix":
        return ExactMatrix._make(n, n, 1, {i * (n + 1): (1, 0) for i in range(n)})

    @staticmethod
    def unit(n: int, i: int, j: int, value=1) -> "ExactMatrix":
        """The matrix with a single entry ``value`` at position ``(i, j)``."""
        return ExactMatrix._make(n, n, *_sparse_num({i * n + j: _qi(value)}))

    @staticmethod
    def diagonal(values: Sequence) -> "ExactMatrix":
        n = len(values)
        return ExactMatrix._make(
            n, n, *_sparse_num({i * n + i: _qi(v) for i, v in enumerate(values)})
        )

    # -- algebra -------------------------------------------------------------
    def __add__(self, other: "ExactMatrix") -> "ExactMatrix":
        return _lincomb([self, other], 1, {0: (1, 0), 1: (1, 0)})

    def __sub__(self, other: "ExactMatrix") -> "ExactMatrix":
        return _lincomb([self, other], 1, {0: (1, 0), 1: (-1, 0)})

    def __neg__(self) -> "ExactMatrix":
        return self.scale(-1)

    def scale(self, c) -> "ExactMatrix":
        if type(c) is int:  # no QI needed
            cden, cr, ci = 1, c, 0
        else:
            cden, ((cr, ci),) = _to_num([_qi(c)])
        if not (cr or ci):
            return ExactMatrix.zeros(self.rows, self.cols)
        terms = {k: (cr * a - ci * b, cr * b + ci * a) for k, (a, b) in self._terms.items()}
        return ExactMatrix._make(self.rows, self.cols, self._den * cden, terms)

    def __matmul__(self, other: "ExactMatrix") -> "ExactMatrix":
        nonzero = products([self], [other])
        return nonzero[0][2] if nonzero else ExactMatrix.zeros(self.rows, other.cols)

    def _transposed(self, conj: bool) -> "ExactMatrix":
        r, c = self.rows, self.cols
        sign = -1 if conj else 1
        terms = {(k % c) * r + k // c: (a, sign * b) for k, (a, b) in self._terms.items()}
        return ExactMatrix._make(c, r, self._den, terms)

    def star(self) -> "ExactMatrix":
        """Conjugate transpose."""
        return self._transposed(True)

    def transpose(self) -> "ExactMatrix":
        return self._transposed(False)

    def reshape(self, rows: int, cols: int) -> "ExactMatrix":
        """The same entries, read row-major into a ``rows x cols`` matrix."""
        if rows * cols != self.rows * self.cols:
            raise ValueError("incompatible shapes")
        return ExactMatrix._make(rows, cols, self._den, self._terms)

    def trace(self) -> QI:
        if self.rows != self.cols:
            raise ValueError("incompatible shapes")
        diag = _diagonal(self)
        return _qi_of(sum(a for a, _ in diag), sum(b for _, b in diag), self._den)

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
            {**row, n + i: (den, 0)} for i, row in enumerate(self._row_nums())
        )
        if pivots != tuple(range(n)):
            raise ValueError("matrix is singular")
        den, nums = _common_den([(row[p][0], row) for row, p in zip(rows, pivots)])
        right = {i * n + k - n: z for i, row in enumerate(nums) for k, z in row.items() if k >= n}
        return ExactMatrix._make(n, n, den, right)

    # -- predicates / conversions --------------------------------------------
    @property
    def is_zero(self) -> bool:
        return not self._terms

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols

    def is_nilpotent(self) -> bool:
        """Whether ``x^n = 0`` for ``n`` the side.  ``x^e = 0`` for some
        ``e >= n`` exactly when ``x^n = 0``, so squaring stops at the first
        zero power or once the exponent reaches ``n``."""
        if not self.is_square:
            raise ValueError("incompatible shapes")
        power, exponent = self, 1
        while exponent < self.rows and not power.is_zero:
            power, exponent = power @ power, 2 * exponent
        return power.is_zero

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, ExactMatrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self._den == other._den
            and self._terms == other._terms
        )

    def __hash__(self) -> int:
        return hash((self.rows, self.cols, self._den, frozenset(self._terms.items())))

    def _row_nums(self) -> list[SparseRow]:
        """The rows' sparse numerators (the common denominator dropped)."""
        rows = [{} for _ in range(self.rows)]
        for k, pair in self._terms.items():
            i, j = divmod(k, self.cols)
            rows[i][j] = pair
        return rows

    def _coords(self, real: bool) -> SparseRow:
        """Sparse coordinate numerators (over ``_den``): row-major,
        real-doubled if asked."""
        return _real_coords(self._terms) if real else self._terms

    def flatten(self) -> tuple[QI, ...]:
        """Row-major coordinate vector of length ``rows * cols``."""
        return _qi_vec(self._terms, self.rows * self.cols, self._den)

    def to_numpy(self):
        import numpy as np

        out = np.zeros((self.rows, self.cols), dtype=complex)
        den = self._den
        for k, (a, b) in self._terms.items():
            out[divmod(k, self.cols)] = complex(a / den, b / den)
        return out

    def __repr__(self) -> str:
        body = "; ".join(
            " ".join(repr(a) for a in row) for row in self.entries
        )
        return f"ExactMatrix[{body}]"


_m_rows, _m_cols, _m_den, _m_terms, _m_entries = (
    getattr(ExactMatrix, name).__set__ for name in ExactMatrix.__slots__
)


def _sparse_num(values: dict) -> tuple[int, SparseRow]:
    """Common denominator and nonzero numerators of ``{index: QI}``."""
    den, num = _to_num(list(values.values()))
    return den, {k: pair for k, pair in zip(values, num) if pair != (0, 0)}


def _nonzero_terms(acc: dict) -> SparseRow:
    """The nonzero ``[re, im]`` accumulators as ``(re, im)`` entries."""
    return {k: (a, b) for k, (a, b) in acc.items() if a or b}


def _diagonal(m: ExactMatrix) -> list:
    """The diagonal numerators of a square matrix."""
    n, terms = m.rows, m._terms
    return [terms.get(k, (0, 0)) for k in range(0, n * n, n + 1)]


def _lincomb(mats: Sequence[ExactMatrix], cden: int, coeffs: SparseRow) -> ExactMatrix:
    """``Σ (coeffs[k] / cden) * mats[k]`` in one integer pass."""
    if not mats:
        raise ValueError("incompatible shapes")
    rows, cols = mats[0].rows, mats[0].cols
    if any(m.rows != rows or m.cols != cols for m in mats):
        raise ValueError("incompatible shapes")
    den = lcm(*(mats[k]._den for k in coeffs))
    acc: dict[int, list] = {}
    for k, (cr, ci) in coeffs.items():
        m = mats[k]
        f = den // m._den
        fr, fi = f * cr, f * ci
        for j, (a, b) in m._terms.items():
            v = acc.setdefault(j, [0, 0])
            v[0] += fr * a - fi * b
            v[1] += fr * b + fi * a
    return ExactMatrix._make(rows, cols, den * cden, _nonzero_terms(acc))


# ---------------------------------------------------------------------------
# Batch bilinear kernels (the pruning rule is in the module docstring; a
# skipped pair has an exactly zero result)
# ---------------------------------------------------------------------------


def _side(mats: Iterable[ExactMatrix], side: int | None = None) -> int | None:
    """The common side of square matrices (``side`` when given, else that of
    the first one, ``None`` for none); raises on any other shape."""
    for m in mats:
        if side is None:
            side = m.rows
        if m.rows != side or m.cols != side:
            raise ValueError("incompatible shapes")
    return side


def _index_terms(ys: Sequence[ExactMatrix], cols: int, by_col: bool):
    """Each of ``ys``' terms by row, ``{r: [(l, re, im)]}``, and, with
    ``by_col``, by column, ``{l: [(r * cols, re, im)]}``; with, for each row
    and each column, the bitmask of the ``ys`` holding a term there."""
    index, row_masks, col_masks = [], {}, {}
    for j, y in enumerate(ys):
        bit = 1 << j
        rows: dict[int, list] = {}
        columns: dict[int, list] = {}
        for key, (c, d) in y._terms.items():
            r, l = divmod(key, cols)
            if r in rows:
                rows[r].append((l, c, d))
            else:
                rows[r] = [(l, c, d)]
                row_masks[r] = row_masks.get(r, 0) | bit
            if not by_col:
                continue
            if l in columns:
                columns[l].append((key - l, c, d))
            else:
                columns[l] = [(key - l, c, d)]
                col_masks[l] = col_masks.get(l, 0) | bit
        index.append((rows, columns))
    return index, row_masks, col_masks


def _bits(mask: int):
    """The positions of the set bits of ``mask``, in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _multiply(xterms: SparseRow, inner: int, rows: dict, cols: int) -> SparseRow:
    """The nonzero numerators of ``x @ y`` from the terms of ``x`` and those
    of ``y`` by row: ``x[i, k]`` meets row ``k`` of ``y``."""
    acc: dict[int, list] = {}
    get = acc.get
    for key, (a, b) in xterms.items():
        i, k = divmod(key, inner)
        base = i * cols
        for l, c, d in rows.get(k, ()):
            re, im = a * c - b * d, a * d + b * c
            v = get(base + l)
            if v is None:
                acc[base + l] = [re, im]
            else:
                v[0] += re
                v[1] += im
    return _nonzero_terms(acc)


def products(xs: Sequence[ExactMatrix], ys: Sequence[ExactMatrix]) -> list[tuple[int, int, ExactMatrix]]:
    """``(i, j, xs[i] @ ys[j])`` for every nonzero product, in row-major
    order; ``xs[i]`` meets only the ``ys`` with a row at one of its
    columns."""
    out = []
    if not (xs and ys):
        return out
    inner, cols = xs[0].cols, ys[0].cols
    for x in xs:
        if x.cols != inner:
            raise ValueError("incompatible shapes")
    for y in ys:
        if y.rows != inner or y.cols != cols:
            raise ValueError("incompatible shapes")
    index, row_masks, _ = _index_terms(ys, cols, False)
    for i, x in enumerate(xs):
        terms = x._terms
        mask = 0
        for key in terms:
            mask |= row_masks.get(key % inner, 0)
        for j in _bits(mask):
            product = _multiply(terms, inner, index[j][0], cols)
            if product:
                out.append((i, j, ExactMatrix._make(x.rows, cols, x._den * ys[j]._den, product)))
    return out


def _commute(xterms: SparseRow, rows: dict, columns: dict, n: int) -> SparseRow:
    """The nonzero numerators of ``x @ y - y @ x`` from the terms of ``x``
    and those of ``y`` by row and by column: ``x[i, k]`` meets ``y[k, l]``
    in ``(x y)[i, l]`` and ``y[r, i]`` in ``(y x)[r, k]``."""
    acc: dict[int, list] = {}
    get = acc.get
    for key, (a, b) in xterms.items():
        i, k = divmod(key, n)
        base = i * n
        for l, c, d in rows.get(k, ()):
            re, im = a * c - b * d, a * d + b * c
            v = get(base + l)
            if v is None:
                acc[base + l] = [re, im]
            else:
                v[0] += re
                v[1] += im
        for rn, c, d in columns.get(i, ()):
            re, im = a * c - b * d, a * d + b * c
            v = get(rn + k)
            if v is None:
                acc[rn + k] = [-re, -im]
            else:
                v[0] -= re
                v[1] -= im
    return _nonzero_terms(acc)


def _bracket_pairs(xs: Sequence[ExactMatrix], ys: Sequence[ExactMatrix] | None = None,
                   side: int | None = None):
    """Yield ``(i, j, numerators)`` for every nonzero ``[xs[i], ys[j]]``, over
    ``xs[i]._den * ys[j]._den``; with ``ys`` omitted, for the pairs
    ``i < j`` of ``xs`` (the bracket is antisymmetric).

    ``xs[i]`` meets only the ``ys`` with a row at one of its columns (for
    ``x·y``) or a column at one of its rows (for ``y·x``).  All matrices
    must be square of one side, ``side`` when it is given.
    """
    upper = ys is None
    if upper:
        ys = xs
    n = _side(ys, _side(xs, side))
    index, row_masks, col_masks = _index_terms(ys, n, True)
    for i, x in enumerate(xs):
        terms = x._terms
        mask = 0
        for key in terms:
            r, k = divmod(key, n)
            mask |= row_masks.get(k, 0) | col_masks.get(r, 0)
        if upper:
            mask &= -2 << i  # j > i
        for j in _bits(mask):
            out = _commute(terms, *index[j], n)
            if out:
                yield i, j, out


def bracket(x: ExactMatrix, y: ExactMatrix) -> ExactMatrix:
    """The commutator ``x @ y - y @ x`` (exact, over the nonzero entries)."""
    for _, _, terms in _bracket_pairs([x], [y]):
        break
    else:
        terms = {}
    return ExactMatrix._make(x.rows, x.rows, x._den * y._den, terms)


def trace_pairing(xs: Sequence[ExactMatrix], ys: Sequence[ExactMatrix]) -> ExactMatrix:
    """The ``len(xs) x len(ys)`` matrix of traces ``tr(xs[i] @ ys[j])``,
    without forming the products.

    The terms of the ``ys`` are indexed once by transposed position, so each
    term of an ``x`` meets only the ``y`` terms that it pairs with; the
    traces are summed over the common denominator ``lcm(x dens)·lcm(y
    dens)``, and only the nonzero ones are kept.
    """
    n = _side(ys, _side(xs))
    at: dict[int, list] = {}
    for j, y in enumerate(ys):
        for key, (c, d) in y._terms.items():
            r, l = divmod(key, n)
            at.setdefault(l * n + r, []).append((j, c, d))
    xden, yden = lcm(*(x._den for x in xs)), lcm(*(y._den for y in ys))
    yscale = [yden // y._den for y in ys]
    width = len(ys)
    terms = {}
    for i, x in enumerate(xs):
        acc: dict[int, list] = {}
        get = acc.get
        for key, (a, b) in x._terms.items():
            for j, c, d in at.get(key, ()):
                re, im = a * c - b * d, a * d + b * c
                v = get(j)
                if v is None:
                    acc[j] = [re, im]
                else:
                    v[0] += re
                    v[1] += im
        xscale, base = xden // x._den, i * width
        for j, (re, im) in acc.items():
            if re or im:
                f = xscale * yscale[j]
                terms[base + j] = (re * f, im * f)
    return ExactMatrix._make(len(xs), width, xden * yden, terms)


def combine(mats: Sequence[ExactMatrix], coeffs: ExactMatrix) -> list[ExactMatrix]:
    """``Σ_k coeffs[i, k]·mats[k]`` for each row ``i`` of ``coeffs``, each in
    one integer pass."""
    if coeffs.cols != len(mats):
        raise ValueError("incompatible shapes")
    return [_lincomb(mats, coeffs._den, row) for row in coeffs._row_nums()]


# ---------------------------------------------------------------------------
# Gaussian-integer elimination core
# ---------------------------------------------------------------------------


def _content(pairs, g: int = 0) -> int:
    """The gcd of ``g`` and every real and imaginary part (stops at 1)."""
    for a, b in pairs:
        if a:
            g = gcd(g, a)
        if b:
            g = gcd(g, b)
        if g == 1:
            break
    return g


def _divide(row: SparseRow, g: int) -> SparseRow:
    """``row / g`` for a common integer divisor ``g`` (0 and 1 change nothing)."""
    if g > 1:
        return {k: (a // g, b // g) for k, (a, b) in row.items()}
    return row


def _gaussian_gcd(a: tuple[int, int], b: tuple[int, int]) -> tuple[int, int]:
    """A gcd in Z[i]: Euclid with the quotient rounded to the nearest
    Gaussian integer, which at least halves the norm of the remainder."""
    while b[0] or b[1]:
        (ar, ai), (br, bi) = a, b
        if not (ai or bi):
            return gcd(ar, br), 0
        n = br * br + bi * bi
        qr = (2 * (ar * br + ai * bi) + n) // (2 * n)
        qi = (2 * (ai * br - ar * bi) + n) // (2 * n)
        a, b = b, (ar - qr * br + qi * bi, ai - qr * bi - qi * br)
    return a


def _primitive_row(row: SparseRow) -> SparseRow:
    """``row`` divided by the gcd in Z[i] of its entries.

    The primitive multiple of a line is unique up to a unit, so pivot rows
    kept primitive stay as small as their line allows; removing only the
    integer content would let a Gaussian factor compound with every row
    that is reduced against an earlier one.
    """
    g = (0, 0)
    for pair in row.values():
        g = _gaussian_gcd(pair, g)
        if abs(g[0]) + abs(g[1]) == 1:
            return row
    gr, gi = g
    if not gi:
        return _divide(row, abs(gr))
    n = gr * gr + gi * gi
    return {k: ((a * gr + b * gi) // n, (b * gr - a * gi) // n) for k, (a, b) in row.items()}


def _real_coords(vec: SparseRow) -> SparseRow:
    """Real-doubled coordinates: slot ``2k`` holds Re, slot ``2k + 1`` Im."""
    return {
        s: (x, 0)
        for k, (a, b) in vec.items()
        for s, x in ((2 * k, a), (2 * k + 1, b))
        if x
    }


def _int_row(vec: Sequence[QI]) -> SparseRow:
    """A QI vector as a content-reduced Gaussian-integer row (same span)."""
    return _primitive_row(
        {k: pair for k, pair in enumerate(_to_num(vec)[1]) if pair != (0, 0)}
    )


def _eliminate(row: SparseRow, prow: SparseRow, col: int) -> SparseRow:
    """``p*row - r*prow`` where p, r are the column-``col`` values of
    ``prow`` and ``row``; column ``col`` cancels.  Neither row is modified."""
    ra, rb = row[col]
    pa, pb = prow[col]
    if pb:
        new = {k: (pa * a - pb * b, pa * b + pb * a) for k, (a, b) in row.items()}
    elif pa == 1:
        new = dict(row)
    else:
        new = {k: (pa * a, pa * b) for k, (a, b) in row.items()}
    for k, (qa, qb) in prow.items():
        da, db = ra * qa - rb * qb, ra * qb + rb * qa
        old = new.get(k)
        if old is None:
            new[k] = (-da, -db)
        elif old[0] != da or old[1] != db:
            new[k] = (old[0] - da, old[1] - db)
        else:
            del new[k]
    return new


def _canonical_row(row: SparseRow, col: int) -> SparseRow:
    """The Gaussian-integer multiple of ``row`` whose pivot entry is the
    least positive integer possible (the canonical-row numerators)."""
    pa, pb = row[col]
    if pb:
        row = {k: (a * pa + b * pb, b * pa - a * pb) for k, (a, b) in row.items()}
        pa = pa * pa + pb * pb
    elif pa < 0:
        row = {k: (-a, -b) for k, (a, b) in row.items()}
        pa = -pa
    return _divide(row, _content(row.values(), pa))


class _Echelon:
    """Incremental Gaussian-integer row echelon structure.

    ``rows`` maps each pivot column to its row, whose least column it is.
    Rows are never modified in place, so input rows may be shared.
    """

    __slots__ = ("rows",)

    def __init__(self, rows: dict[int, SparseRow] | None = None):
        self.rows: dict[int, SparseRow] = {} if rows is None else rows

    def reduce(self, row: SparseRow) -> SparseRow:
        """Reduce ``row`` against the current echelon (no insertion).

        Only the pivots occurring in the row are visited, in increasing
        column order: a pivot row has entries only to the right of its
        pivot, so a column, once cleared, is never refilled.
        """
        rows = self.rows
        todo = [c for c in row if c in rows]
        heapify(todo)
        while todo:
            col = heappop(todo)
            if col in row:
                prow = rows[col]
                new = _eliminate(row, prow, col)
                for c in prow:
                    if c not in row and c in rows:
                        heappush(todo, c)
                row = new
        return row

    def insert(self, row: SparseRow) -> bool:
        """Reduce and insert; returns True when the row increased the rank."""
        row = self.reduce(row)
        if not row:
            return False
        self.rows[min(row)] = _primitive_row(row)
        return True

    def canonical(self) -> tuple[tuple[int, ...], tuple[SparseRow, ...]]:
        """Clear entries above every pivot; return (pivots, canonical rows).

        Rows are processed bottom-up, so each pivot row is final, and zero at
        every other pivot, before it is used; clearing a column with it then
        fills no other pivot column.
        """
        rows = self.rows
        pivots = sorted(rows)
        for col in reversed(pivots):
            row = rows[col]
            for c in [c for c in row if c != col and c in rows]:
                row = _eliminate(row, rows[c], c)
            rows[col] = _canonical_row(row, col)
        return tuple(pivots), tuple(rows[c] for c in pivots)


def _rref_num(rows: Iterable[SparseRow]) -> tuple[tuple[int, ...], tuple[SparseRow, ...]]:
    """Canonical reduced echelon form (pivots, rows) of Gaussian-integer rows."""
    ech = _Echelon()
    for row in rows:
        ech.insert(row)
    return ech.canonical()


def _kernel_num(rows: Iterable[SparseRow], ncols: int) -> tuple[tuple[int, ...], tuple[SparseRow, ...]]:
    """Canonical echelon (pivots, rows) of the right kernel of integer rows."""
    pivots, reduced = _rref_num(rows)
    # a canonical row is zero at every other pivot: its other entries sit in
    # free columns
    by_free: dict[int, list] = {}
    for row, p in zip(reduced, pivots):
        for c in row:
            if c != p:
                by_free.setdefault(c, []).append((p, row))
    pivot_set = set(pivots)
    basis = []
    for f in range(ncols):
        if f in pivot_set:
            continue
        hits = by_free.get(f, ())
        den = lcm(*(row[p][0] for p, row in hits))
        vec = {f: (den, 0)}
        for p, row in hits:
            a, b = row[f]
            q = den // row[p][0]
            vec[p] = (-a * q, -b * q)
        basis.append(vec)
    return _rref_num(basis)


def _common_den(parts) -> tuple[int, list[SparseRow]]:
    """``(den, vector)`` pairs brought to their least common denominator."""
    den = lcm(*(d for d, _ in parts))
    return den, [
        vec if d == den else {k: (a * (den // d), b * (den // d)) for k, (a, b) in vec.items()}
        for d, vec in parts
    ]


def _columns_to_rows(cols) -> list[SparseRow]:
    """Rows of the matrix with the given ``(den, vector)`` columns, over one
    denominator (dropped); all-zero rows are left out.  A sparse transpose."""
    rows: dict[int, SparseRow] = {}
    for j, vec in enumerate(_common_den(cols)[1]):
        for i, pair in vec.items():
            rows.setdefault(i, {})[j] = pair
    return list(rows.values())


def _qi_vec(vec: SparseRow, width: int, den: int) -> tuple[QI, ...]:
    """The QI vector ``vec / den`` of the given width."""
    return tuple(_qi_of(*vec.get(k, (0, 0)), den) for k in range(width))


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
    return [_qi_vec(row, ncols, row[p][0]) for row, p in zip(kernel, pivots)]


# ---------------------------------------------------------------------------
# Canonical spans
# ---------------------------------------------------------------------------


class Subspace:
    """A linear subspace of the space of ``side x side`` matrices.

    ``real=False``: a complex-linear subspace; coordinates are the row-major
    matrix entries.  ``real=True``: a real-linear subspace; coordinates are
    (Re, Im) pairs of the row-major entries and scalars are rational.

    The stored basis is the unique canonical reduced echelon basis, so
    equality of subspaces is entry-wise equality of bases.  Row ``i`` is
    stored as the sparse Gaussian-integer numerators of the canonical row
    over its pivot entry ``d_i`` (the least positive integer making the row
    integral); ``_where`` maps each pivot column to its row.
    """

    __slots__ = ("side", "real", "pivots", "_irows", "_where", "_hash", "_basis")

    @staticmethod
    def _of(side: int, real: bool, pivots, irows) -> "Subspace":
        s = _new(Subspace)
        pivots = tuple(pivots)
        _s_side(s, side)
        _s_real(s, real)
        _s_pivots(s, pivots)
        _s_irows(s, tuple(irows))
        _s_where(s, {p: i for i, p in enumerate(pivots)})
        _s_hash(s, None)
        _s_basis(s, None)
        return s

    def __setattr__(self, name, value):
        raise AttributeError("Subspace is immutable")

    def __delattr__(self, name):
        raise AttributeError("Subspace is immutable")

    # -- constructors --------------------------------------------------------
    @staticmethod
    def span(mats: Iterable[ExactMatrix], side: int, real: bool = False) -> "Subspace":
        rows = []
        for m in mats:
            if m.rows != side or m.cols != side:
                raise ValueError("incompatible shapes")
            rows.append(m._coords(real))
        return Subspace._of(side, real, *_rref_num(rows))

    @staticmethod
    def zero(side: int, real: bool = False) -> "Subspace":
        return Subspace._of(side, real, (), ())

    # -- core queries ---------------------------------------------------------
    @property
    def dim(self) -> int:
        return len(self.pivots)

    def _coords_of(self, mat: ExactMatrix) -> SparseRow:
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
                terms = row
                if self.real:
                    terms = {}
                    for k, (a, _) in row.items():
                        re, im = terms.get(k // 2, (0, 0))
                        terms[k // 2] = (re, a) if k % 2 else (a, im)
                mats.append(ExactMatrix._make(n, n, row[p][0], terms))
            mats = tuple(mats)
            _s_basis(self, mats)
        return list(mats)

    def _has(self, row: SparseRow) -> bool:
        """Whether a coordinate row lies in the span.

        A canonical row is zero at every other pivot, so clearing one pivot
        column fills no other; the order does not matter.
        """
        where, irows = self._where, self._irows
        for col in [c for c in row if c in where]:
            row = _eliminate(row, irows[where[col]], col)
        return not row

    def _residue_mat(self, mat: ExactMatrix) -> tuple[int, SparseRow]:
        """``(den, numerators)`` of the residue of ``mat``."""
        if mat.rows != self.side or mat.cols != self.side:
            raise ValueError("incompatible shapes")
        return self._residue(mat._den, mat._terms)

    def _residue(self, den: int, terms: SparseRow) -> tuple[int, SparseRow]:
        """``(den, numerators)``, in lowest terms, of the residue of the
        matrix with numerators ``terms`` over ``den``: its coordinates minus
        those of the unique member agreeing with it at the pivots."""
        where, irows = self._where, self._irows
        row = _real_coords(terms) if self.real else terms
        for col in [c for c in row if c in where]:
            prow = irows[where[col]]
            row = _eliminate(row, prow, col)
            den *= prow[col][0]
        g = _content(row.values(), den)
        return den // g, _divide(row, g)

    def contains_mat(self, mat: ExactMatrix) -> bool:
        return self._has(self._coords_of(mat))

    def bracket_outside(self, xs: Sequence[ExactMatrix],
                        ys: Sequence[ExactMatrix] | None = None) -> tuple[ExactMatrix, ExactMatrix] | None:
        """The first pair ``(x, y)``, in row-major order, whose commutator
        lies outside the span, or ``None``: ``x`` from ``xs`` and ``y`` from
        ``ys``, or, with ``ys`` omitted, ``x`` before ``y`` in ``xs``.  Each
        commutator is read as its coordinate row, without forming the
        matrix, and the scan stops at the first one outside."""
        real = self.real
        for i, j, row in _bracket_pairs(xs, ys, self.side):
            if not self._has(_real_coords(row) if real else row):
                return xs[i], (xs if ys is None else ys)[j]
        return None

    def contains_brackets(self, outer: Sequence[ExactMatrix], inner: Sequence[ExactMatrix]) -> bool:
        """Whether ``[x, y]`` lies in the span for every ``x`` in ``outer``
        or ``inner`` and ``y`` in ``inner``: each member of ``outer`` with
        each of ``inner``, and each two members of ``inner`` once (the
        bracket is antisymmetric).  Stops at the first commutator outside."""
        return self.bracket_outside(outer, inner) is None and self.bracket_outside(inner) is None

    def contains_space(self, other: "Subspace") -> bool:
        self._check_compatible(other)
        return all(self._has(row) for row in other._irows)

    def _check_compatible(self, other: "Subspace") -> None:
        if self.side != other.side or self.real != other.real:
            raise ValueError("ambient mismatch")

    # -- lattice operations ----------------------------------------------------
    def sum(self, other: "Subspace") -> "Subspace":
        """The span of both: the larger operand's canonical rows, already an
        echelon, take the other's rows; when none adds rank, the larger
        operand is the sum and is returned itself."""
        self._check_compatible(other)
        big, small = (self, other) if self.dim >= other.dim else (other, self)
        ech = _Echelon(dict(zip(big.pivots, big._irows)))
        grew = False
        for row in small._irows:
            grew |= ech.insert(row)
        if not grew:
            return big
        return Subspace._of(self.side, self.real, *ech.canonical())

    def intersect(self, other: "Subspace") -> "Subspace":
        """Intersection via the Zassenhaus double-block elimination."""
        self._check_compatible(other)
        width = self.side * self.side * (2 if self.real else 1)
        ech = _Echelon()
        for row in self._irows:
            ech.insert({**row, **{k + width: pair for k, pair in row.items()}})
        for row in other._irows:
            ech.insert(row)
        inter = [
            {k - width: pair for k, pair in row.items()}
            for col, row in ech.rows.items()
            if col >= width
        ]
        return Subspace._of(self.side, self.real, *_rref_num(inter))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Subspace)
            and self.side == other.side
            and self.real == other.real
            and self.pivots == other.pivots
            and self._irows == other._irows
        )

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = hash((self.side, self.real, self.pivots,
                      tuple(frozenset(r.items()) for r in self._irows)))
            _s_hash(self, h)
        return h

    # -- real/complex interplay --------------------------------------------------
    def realify(self) -> "Subspace":
        """The underlying real-linear subspace of a complex-linear one."""
        if self.real:
            return self
        rows = [_real_coords(row) for row in self._irows]
        rows += [
            _real_coords({k: (-b, a) for k, (a, b) in row.items()}) for row in self._irows
        ]
        return Subspace._of(self.side, True, *_rref_num(rows))

    def __repr__(self) -> str:
        kind = "R" if self.real else "C"
        return f"Subspace(side={self.side}, dim={self.dim}, field={kind})"


_s_side, _s_real, _s_pivots, _s_irows, _s_where, _s_hash, _s_basis = (
    getattr(Subspace, name).__set__ for name in Subspace.__slots__
)


# ---------------------------------------------------------------------------
# Commutator spans and kernels
# ---------------------------------------------------------------------------


def bracket_space(a: Subspace, b: Subspace) -> Subspace:
    """Span of pairwise commutators of the two bases, read as coordinate
    rows; zero commutators are left out."""
    if a.real or b.real:
        raise ValueError("ambient mismatch")
    a._check_compatible(b)
    pairs = _bracket_pairs(a.basis(), None if a is b or a == b else b.basis(), a.side)
    return Subspace._of(a.side, False, *_rref_num(row for _, _, row in pairs))


def bracket_kernel(mats: Sequence[ExactMatrix], others: Iterable[ExactMatrix], side: int,
                   real: bool = False, modulo: Subspace | None = None) -> Subspace:
    """The combinations ``x`` of ``mats`` with ``[x, y] = 0``, or ``[x, y]``
    in ``modulo`` when it is given, for every ``y`` in ``others``
    (centralizers, normalizers, stabilizers).

    The :func:`kernel_space` of the maps ``ad y``, with each commutator read
    as its coordinate row; ``real`` is as for :func:`trace_annihilator`.
    """
    if modulo is not None and modulo.side != side:
        raise ValueError("incompatible shapes")
    column = modulo._residue if modulo is not None else lambda den, terms: (den, terms)
    others = list(others)
    rows = []
    # [y, x] = -[x, y]: one sign on all of a map's rows keeps its kernel
    for j, pairs in groupby(_bracket_pairs(others, mats, side), itemgetter(0)):
        cols = [(1, {})] * len(mats)
        for _, k, row in pairs:
            cols[k] = column(others[j]._den * mats[k]._den, row)
        rows += _columns_to_rows(cols)
    return _kernel_subspace(mats, rows, side, real)


def _real_rows(row: SparseRow) -> list[SparseRow]:
    """The real and the imaginary parts of a complex constraint row, as two
    real rows (each kept only when nonzero)."""
    out = []
    for part in (0, 1):
        real = {k: (pair[part], 0) for k, pair in row.items() if pair[part]}
        if real:
            out.append(real)
    return out


def _kernel_subspace(mats: Sequence[ExactMatrix], rows: list[SparseRow], side: int,
                     real: bool) -> Subspace:
    """The span of the combinations of ``mats`` whose coefficients satisfy
    the constraint ``rows``; with ``real``, each row's real and imaginary
    parts separately, over rational coefficients."""
    if real:
        rows = [part for row in rows for part in _real_rows(row)]
    pivots, kernel = _kernel_num(rows, len(mats))
    combos = [_lincomb(mats, row[p][0], row) for row, p in zip(kernel, pivots)]
    return Subspace.span(combos, side, real=real)


def trace_annihilator(mats: Sequence[ExactMatrix], others: Iterable[ExactMatrix],
                      side: int, real: bool = False) -> Subspace:
    """The combinations ``x`` of ``mats`` with ``tr(x·y) = 0`` for every
    ``y`` in ``others``.

    ``real=False`` takes complex coefficients and returns a complex-linear
    subspace; ``real=True`` takes rational coefficients, asks the real and
    the imaginary part of each trace to vanish, and returns a real-linear
    subspace.
    """
    # tr(x·y) = tr(y·x): the row of each y is its pairing with the mats
    rows = trace_pairing(list(others), mats)._row_nums()
    return _kernel_subspace(mats, rows, side, real)


def kernel_space(mats: Sequence[ExactMatrix], images: Iterable[Sequence[ExactMatrix]],
                 side: int, real: bool = False, modulo: Subspace | None = None) -> Subspace:
    """The combinations ``Σ c_k·mats[k]`` that every linear map in ``images``
    sends to zero, or into ``modulo`` when it is given.

    Each member of ``images`` lists one map's values at ``mats``, in order;
    the values may be matrices of any shape when ``modulo`` is ``None``.
    Each entry of ``Σ c_k·f(mats[k])``, or of its residue modulo
    ``modulo`` (the residue is linear), is one constraint row.  ``real``
    is as for :func:`trace_annihilator`.
    """
    column = modulo._residue_mat if modulo is not None else lambda m: (m._den, m._terms)
    rows = []
    for values in images:
        rows += _columns_to_rows([column(m) for m in values])
    return _kernel_subspace(mats, rows, side, real)


def kernel_projector(mats: Iterable[ExactMatrix], n: int) -> ExactMatrix:
    """The orthogonal projector onto ``{v ∈ Cⁿ : m·v = 0 for every m}``.

    With ``B`` a matrix whose columns are a basis of the kernel, this is
    ``B·(B*B)⁻¹·B*``, which does not depend on the basis chosen; it is zero
    when the kernel is.
    """
    rows = []
    for m in mats:
        if m.cols != n:
            raise ValueError("incompatible shapes")
        rows += m._row_nums()
    _, kernel = _kernel_num(rows, n)
    if not kernel:
        return ExactMatrix.zeros(n)
    k = len(kernel)
    b = ExactMatrix._make(
        n, k, 1, {i * k + j: pair for j, vec in enumerate(kernel) for i, pair in vec.items()}
    )
    b_star = b.star()
    return b @ (b_star @ b).inverse() @ b_star


def killing_form(space: Subspace, ideal: Subspace) -> ExactMatrix:
    """The Killing form ``tr(ad x · ad y)`` of the quotient algebra
    ``space / ideal``, for an ideal of a bracket-closed complex subspace.

    The quotient basis is the canonical basis of ``space`` at the pivots
    that are not pivots of ``ideal``: the class of a member of ``space`` is
    the combination of these with the entries of its residue modulo
    ``ideal`` at their pivots.  Entry ``(i, j)`` pairs the i-th and the j-th
    basis element.
    """
    ideal_pivots = set(ideal.pivots)
    kept = [(x, p) for x, p in zip(space.basis(), space.pivots) if p not in ideal_pivots]
    index = {p: k for k, (_, p) in enumerate(kept)}
    m = len(kept)
    # [y, x] = −[x, y] and the residue is linear: bracket each pair once;
    # a zero commutator adds nothing
    mats = [x for x, _ in kept]
    residues = {}
    for i, j, row in _bracket_pairs(mats, None, space.side):
        d, num = residues[i, j] = ideal._residue(mats[i]._den * mats[j]._den, row)
        residues[j, i] = (d, {p: (-a, -b) for p, (a, b) in num.items()})
    den = lcm(*(d for d, _ in residues.values()))
    # ad[i][(k, j)]: the coefficient of mats[k] in [mats[i], mats[j]] mod ideal
    ad = [{} for _ in range(m)]
    for (i, j), (d, num) in residues.items():
        f = den // d
        for p, (a, b) in num.items():
            k = index.get(p)
            if k is not None:
                ad[i][(k, j)] = (a * f, b * f)
    terms = {}
    for i in range(m):
        for j in range(i, m):
            sre = sim = 0
            for (a, b), (cr, ci) in ad[i].items():
                other = ad[j].get((b, a))
                if other is not None:
                    dr, di = other
                    sre += cr * dr - ci * di
                    sim += cr * di + ci * dr
            if sre or sim:
                terms[i * m + j] = terms[j * m + i] = (sre, sim)
    return ExactMatrix._make(m, m, den * den, terms)


def hermitian_inertia(h: ExactMatrix) -> tuple[int, int]:
    """The numbers ``(positives, negatives)`` of positive and of negative
    eigenvalues of a Hermitian matrix.

    By Sylvester's law of inertia a congruence ``P·h·P*``, for ``P``
    invertible, keeps both numbers, and so does a positive scalar factor.
    The elimination runs on the Gaussian-integer numerators (the positive
    denominator changes no sign).  A nonzero diagonal entry ``d`` is real
    and counts one eigenvalue of its sign; every other row ``j`` becomes
    ``|d|·row_j − sgn(d)·h_ji·row_i`` without column ``i``: ``|d|`` times
    the Schur complement, Hermitian again, scaled by the same positive
    integer on rows and columns.  The block is then divided by the integer
    content of its entries.  When every diagonal entry is zero and ``h_ij``
    is not, ``e_i`` is first replaced by ``e_i + conj(h_ij)·e_j``, whose
    diagonal entry is ``2·|h_ij|²``.  A zero row counts a zero eigenvalue.
    """
    if not h.is_square:
        raise ValueError("incompatible shapes")
    if h != h.star():
        raise ValueError("not Hermitian")
    rows = {i: row for i, row in enumerate(h._row_nums()) if row}
    pos = neg = 0
    while rows:
        i = next((i for i, row in rows.items() if i in row), None)
        if i is None:
            i, row = next(iter(rows.items()))
            j = min(row)
            a, b = row[j]
            rows[i] = new = _add_multiple(row, rows[j], (a, b))
            new[i] = (2 * (a * a + b * b), 0)
            for k in row.keys() | new.keys():
                if k == i:
                    continue
                if k in new:
                    x, y = new[k]
                    rows[k][i] = (x, -y)
                else:
                    del rows[k][i]
        prow = rows.pop(i)
        d = prow.pop(i)[0]
        if d > 0:
            pos += 1
        else:
            neg += 1
        scale, sign = abs(d), 1 if d > 0 else -1
        g = 0
        for k in list(rows):
            row = rows[k]
            c = row.pop(i, None)
            if scale != 1:
                row = {col: (scale * x, scale * y) for col, (x, y) in row.items()}
            if c is not None:
                row = _add_multiple(row, prow, (-sign * c[0], -sign * c[1]))
            if row:
                rows[k] = row
                g = _content(row.values(), g)
            else:
                del rows[k]
        if g > 1:
            rows = {k: _divide(row, g) for k, row in rows.items()}
    return pos, neg


def _add_multiple(row: SparseRow, other: SparseRow, c: tuple[int, int]) -> SparseRow:
    """``row + c·other`` for a Gaussian integer ``c``, as a new row."""
    cr, ci = c
    out = dict(row)
    for k, (x, y) in other.items():
        a, b = out.get(k, (0, 0))
        a, b = a + cr * x - ci * y, b + cr * y + ci * x
        if a or b:
            out[k] = (a, b)
        else:
            out.pop(k, None)
    return out


# ---------------------------------------------------------------------------
# Polynomials: Gaussian-integer coefficient lists, leading coefficient
# first and nonzero ([] is the zero polynomial)
# ---------------------------------------------------------------------------


def _plus_scalar(m: ExactMatrix, c: tuple[int, int]) -> ExactMatrix:
    """``m + c I`` for a Gaussian integer ``c``: ``c * den`` added to the
    diagonal numerators."""
    n, den = m.rows, m._den
    cr, ci = c[0] * den, c[1] * den
    terms = dict(m._terms)
    for k in range(0, n * n, n + 1):
        a, b = terms.get(k, (0, 0))
        if a + cr or b + ci:
            terms[k] = (a + cr, b + ci)
        else:
            terms.pop(k, None)
    return ExactMatrix._make(n, n, den, terms)


def _charpoly_num(x: ExactMatrix) -> IntRow:
    """The monic det(tI - X) of the numerator matrix X = den * x.

    Faddeev-LeVerrier: M_k = X (M_{k-1} + c_{k-1} I) and c_k = -tr(M_k) / k.
    Every c_k lies in Z[i], as X does, so each division by k is exact; the
    coefficients of det(tI - x) are c_k / den^k.
    """
    if not x.is_square:
        raise ValueError("incompatible shapes")
    n = x.rows
    big = ExactMatrix._make(n, n, 1, x._terms)
    coeffs = [(1, 0)]
    prod = ExactMatrix.zeros(n)
    for k in range(1, n + 1):
        prod = big @ _plus_scalar(prod, coeffs[-1])
        diag = _diagonal(prod)
        coeffs.append((-sum(a for a, _ in diag) // k, -sum(b for _, b in diag) // k))
    return coeffs


def _poly_strip(p: IntRow) -> IntRow:
    """``p`` without its leading zero coefficients."""
    lead = next((k for k, c in enumerate(p) if c != (0, 0)), len(p))
    return p[lead:]


def _poly_primitive(p: IntRow) -> IntRow:
    """``p`` divided by the gcd in Z[i] of its coefficients."""
    return list(_primitive_row(dict(enumerate(p))).values())


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
    return work[:m], _poly_strip(work[m:])


def _poly_gcd(p: IntRow, q: IntRow) -> IntRow:
    """A gcd of ``p`` and ``q`` (deg p >= deg q), up to a scalar.

    The primitive pseudo-remainder sequence (Collins, J. ACM 14, 1967;
    Brown & Traub, J. ACM 18, 1971): each remainder loses its content in
    Z[i], which keeps the coefficients small.  Removing only the integer
    content would let a Gaussian factor of the leading coefficients compound
    with every pseudo-division.
    """
    while q:
        p, q = q, _poly_primitive(_pseudo_divmod(p, q)[1])
    return p


def _squarefree_num(p: IntRow) -> IntRow:
    """The squarefree part ``p / gcd(p, p')`` of a nonzero polynomial, up to
    a scalar."""
    quot, rem = _pseudo_divmod(p, _poly_gcd(p, _poly_derivative(p)))
    if rem:
        raise ArithmeticError("squarefree division left a remainder")
    return _poly_primitive(quot)


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
    """The squarefree part ``p / gcd(p, p')``, made monic in Gaussian
    integers: each coefficient ``c`` becomes ``c·conj(lead) / |lead|²``."""
    num = _poly_strip(_to_num(p)[1])
    if not num:
        raise ZeroDivisionError("polynomial division by zero")
    part = _squarefree_num(num)
    lr, li = part[0]
    norm = lr * lr + li * li
    return [_qi_of(a * lr + b * li, b * lr - a * li, norm) for a, b in part]


def semisimple_part(x: ExactMatrix) -> ExactMatrix:
    """The semisimple summand of the additive Jordan decomposition of ``x``.

    Two cases are exact at sight: a diagonal matrix is its own semisimple
    part, and an ``x`` with ``x·x = 0`` is nilpotent, with semisimple part
    0.  Every other matrix takes :func:`_newton_semisimple`.
    """
    if not x.is_square:
        raise ValueError("incompatible shapes")
    step = x.rows + 1
    if all(k % step == 0 for k in x._terms):
        return x
    if (x @ x).is_zero:
        return ExactMatrix.zeros(x.rows)
    return _newton_semisimple(x)


def _newton_semisimple(x: ExactMatrix) -> ExactMatrix:
    """The semisimple part of ``x`` by matrix Newton iteration
    ``s <- s - f(s) f'(s)^-1`` from the numerator matrix ``s = X = den * x``,
    with ``f`` the squarefree part of its characteristic polynomial; the
    Jordan decomposition is linear, so the result scaled by ``1 / den`` is
    that of ``x``.  Every iterate is a polynomial in ``X`` differing from it
    by a nilpotent, so ``f'(s)`` is invertible (the roots of ``f`` are
    simple) and ``f(s)`` is nilpotent; by Taylor's formula the next ``f(s)``
    is a multiple of the square of the last, so ``f(s) = 0`` after at most
    ``ceil(log2 n)`` steps.
    """
    f = _charpoly_num(x)
    fs = _squarefree_num(f)
    if len(fs) == len(f):
        return x
    dfs = _poly_derivative(fs)
    s = ExactMatrix._make(x.rows, x.cols, 1, x._terms)
    for _ in range((x.rows - 1).bit_length() + 1):
        val = _poly_eval_matrix(fs, s)
        if val.is_zero:
            return ExactMatrix._make(s.rows, s.cols, s._den * x._den, s._terms)
        s = s - val @ _poly_eval_matrix(dfs, s).inverse()
    raise ArithmeticError("Newton iteration failed to converge exactly")


# ---------------------------------------------------------------------------
# Roots in Q(i)
# ---------------------------------------------------------------------------


def _deflate(coeffs, root):
    """Quotient of a Gaussian-integer polynomial by ``t - root``, or None
    when ``root`` is not a root (exact synthetic division)."""
    x, y = root
    out = []
    acc_re = acc_im = 0
    for a, b in coeffs:
        acc_re, acc_im = a + acc_re * x - acc_im * y, b + acc_re * y + acc_im * x
        out.append((acc_re, acc_im))
    if out.pop() != (0, 0):
        return None
    return out


def _inert_primes():
    """The primes q = 3 (mod 4) in increasing order.  Each stays prime in
    Z[i], so Z[i] / (q) is the field with q^2 elements."""
    q = 3
    while True:
        if all(q % p for p in range(3, isqrt(q) + 1, 2)):
            yield q
        q += 4


def _poly_at(coeffs, x: int, y: int, mod: int) -> tuple[int, int]:
    """A Gaussian-integer polynomial at ``x + y i``, modulo ``mod`` (Horner)."""
    re = im = 0
    for a, b in coeffs:
        re, im = (re * x - im * y + a) % mod, (re * y + im * x + b) % mod
    return re, im


def _gaussian_integer_roots(f) -> list[tuple[int, int]]:
    """The roots in Z[i] of a squarefree Gaussian-integer polynomial.

    Hensel lifting modulo an inert prime q: every root in Z[i] reduces to a
    root of ``f`` in Z[i] / (q), and from a simple root there Newton's
    iteration lifts it to the unique root modulo q^(2^j).  A q for which
    every root modulo q is simple exists, because ``f`` has a nonzero
    discriminant.  Once q^(2^j) exceeds twice a bound on the roots, the
    symmetric residues of a lift are its real and imaginary parts; a lift
    that does not come from a root in Z[i] fails the exact deflation.
    """
    df = _poly_derivative(f)
    for q in _inert_primes():
        fq = [(a % q, b % q) for a, b in f]
        roots = [
            (x, y)
            for x in range(q)
            for y in range(q)
            if _poly_at(fq, x, y, q) == (0, 0)
        ]
        if all(_poly_at(df, x, y, q) != (0, 0) for x, y in roots):
            break
    # Fujiwara's bound |root| <= 2 max_k |f_k / f_0|^(1/k) is below 2^(e+1),
    # from |f_0| >= 2^lead and |f_k| <= |re f_k| + |im f_k|
    lead = max(map(abs, f[0])).bit_length() - 1
    e = max(
        -((lead - (abs(a) + abs(b)).bit_length()) // k)
        for k, (a, b) in enumerate(f[1:], 1)
    )
    limit = 4 << max(e, 0)
    found = []
    for x, y in roots:
        mod = q
        while mod <= limit:
            mod *= mod
            fr, fi = _poly_at(f, x, y, mod)
            dr, di = _poly_at(df, x, y, mod)
            # f / f' = f * conj(f') / (dr^2 + di^2), a unit modulo q
            inv = pow(dr * dr + di * di, -1, mod)
            x = (x - (fr * dr + fi * di) * inv) % mod
            y = (y - (fi * dr - fr * di) * inv) % mod
        half = mod // 2
        root = (x - mod if x > half else x, y - mod if y > half else y)
        if _deflate(f, root) is not None:
            found.append(root)
    return found


def rational_roots(poly) -> list[QI]:
    """Gaussian-rational roots of an exact polynomial (leading coeff first).

    Returns the distinct roots in Q(i), sorted by (real, imaginary) part.
    With ``t = s / D`` for the common denominator ``D`` of the monic
    coefficients, the polynomial becomes monic over the Gaussian integers,
    so its roots in Q(i) are Gaussian integers over ``D``: those of its
    squarefree part, found exactly by :func:`_gaussian_integer_roots`.  A
    polynomial that is already monic, as :func:`charpoly` and
    :func:`squarefree_part` return, is not divided by its leading
    coefficient.
    """
    coeffs = list(poly)
    while coeffs and not coeffs[0]:
        coeffs.pop(0)
    if not coeffs:
        raise ValueError("zero polynomial has no finite root list")
    lead = coeffs[0]
    den, num = _to_num(coeffs[1:] if lead == QI_ONE else [c / lead for c in coeffs[1:]])
    monic = [(1, 0)]
    power = 1
    for a, b in num:
        monic.append((a * power, b * power))
        power *= den
    if len(monic) == 1:
        return []
    roots = sorted(_gaussian_integer_roots(_squarefree_num(monic)))
    return [_qi_of(a, b, den) for a, b in roots]
