"""Tests for the exact linear-algebra core."""

import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from crmostow import exact
from crmostow.exact import (
    QI,
    ExactMatrix,
    Subspace,
    bracket,
    bracket_kernel,
    bracket_space,
    charpoly,
    combine,
    hermitian_inertia,
    kernel_projector,
    kernel_space,
    killing_form,
    products,
    semisimple_part,
    solve_kernel,
    squarefree_part,
    trace_annihilator,
    trace_pairing,
)
from crmostow.exact import _bracket_pairs, _newton_semisimple, _rref_num


# ---------------------------------------------------------------------------
# scalars
# ---------------------------------------------------------------------------


def test_qi_field_ops():
    a = QI(Fraction(1, 2), Fraction(3))
    b = QI(2, -1)
    assert a + b == QI(Fraction(5, 2), 2)
    assert a - b == QI(Fraction(-3, 2), 4)
    assert a * b == QI(4, Fraction(11, 2))
    assert (a / b) * b == a
    assert a.conj() == QI(Fraction(1, 2), -3)
    assert (a * a.conj()).im == 0
    assert not QI(0, 0)
    assert QI(0, 1) * QI(0, 1) == QI(-1)


def test_qi_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        QI(1) / QI(0)


# ---------------------------------------------------------------------------
# matrices
# ---------------------------------------------------------------------------


def _E(n, i, j):
    return ExactMatrix.unit(n, i, j)


def test_matrix_algebra():
    x = ExactMatrix([[1, 2], [3, 4]])
    y = ExactMatrix([[0, 1], [1, 0]])
    assert (x @ y).entries == ExactMatrix([[2, 1], [4, 3]]).entries
    assert (x + y - y) == x
    assert x.scale(2) == ExactMatrix([[2, 4], [6, 8]])
    assert x.trace() == QI(5)
    assert x.transpose() == ExactMatrix([[1, 3], [2, 4]])


def test_matrix_star_is_conjugate_transpose():
    z = ExactMatrix([[QI(1, 2), QI(0, 1)], [QI(3), QI(0, -4)]])
    s = z.star()
    assert s.entries[0][1] == QI(3)
    assert s.entries[1][0] == QI(0, -1)
    assert s.entries[1][1] == QI(0, 4)


def test_matrix_inverse_and_power():
    x = ExactMatrix([[1, 1], [0, 1]])
    assert x.inverse() == ExactMatrix([[1, -1], [0, 1]])
    assert x.power(5) == ExactMatrix([[1, 5], [0, 1]])
    assert x.power(0) == ExactMatrix.identity(2)
    with pytest.raises(ValueError):
        ExactMatrix([[1, 1], [1, 1]]).inverse()


def test_matrix_inverse_complex():
    g = ExactMatrix([[QI(1), QI(0, 1)], [QI(0), QI(2)]])
    assert g @ g.inverse() == ExactMatrix.identity(2)
    assert g.inverse() @ g == ExactMatrix.identity(2)
    h = Fraction(1, 2)
    g4 = ExactMatrix([
        [QI(h, 1), QI(2), QI(0, Fraction(-1, 3)), QI(1)],
        [QI(0), QI(Fraction(3, 4), -1), QI(1), QI(0, 2)],
        [QI(1), QI(0), QI(-2, h), QI(Fraction(1, 5))],
        [QI(0, 1), QI(1, 1), QI(0), QI(3)],
    ])
    assert g4 @ g4.inverse() == ExactMatrix.identity(4)
    assert g4.inverse() @ g4 == ExactMatrix.identity(4)
    # the last row is the first plus i times the second
    rows = [list(r) for r in g4.entries[:3]]
    rows.append([a + QI(0, 1) * b for a, b in zip(rows[0], rows[1])])
    with pytest.raises(ValueError, match="singular"):
        ExactMatrix(rows).inverse()


def test_matrix_storage_is_canonical():
    # equal matrices built along different routes compare and hash equal
    x = ExactMatrix([[QI(Fraction(1, 2), 1), 0], [Fraction(3, 4), QI(0, -2)]])
    y = x.scale(Fraction(2, 3)).scale(QI(0, 3)).scale(QI(0, Fraction(-1, 2)))
    assert y == x and hash(y) == hash(x)
    assert y.entries == x.entries
    assert (x - x) == ExactMatrix.zeros(2) and hash(x - x) == hash(ExactMatrix.zeros(2))
    assert x.flatten() == tuple(e for row in x.entries for e in row)
    # the identity, built from its terms, is stored as the diagonal of ones is
    for n in (1, 2, 5):
        ones = ExactMatrix.diagonal([1] * n)
        assert ExactMatrix.identity(n) == ones and hash(ExactMatrix.identity(n)) == hash(ones)


def test_matrices_and_subspaces_are_immutable():
    m = ExactMatrix([[1, QI(0, Fraction(1, 2))], [0, 3]])
    bracket(m, m)  # fills the cached slots too
    m.entries
    s = Subspace.span([m, _E(2, 0, 1)], 2)
    s.basis()
    hash(s)
    for obj in (m, s, QI(Fraction(1, 2), 3)):
        slots = type(obj).__slots__
        before = {name: getattr(obj, name) for name in slots}
        for name in (*slots, "extra"):
            with pytest.raises(AttributeError):
                setattr(obj, name, None)
            with pytest.raises(AttributeError):
                delattr(obj, name)
        assert {name: getattr(obj, name) for name in slots} == before


def test_integer_scale_matches_gaussian_scale():
    x = ExactMatrix([[QI(Fraction(1, 6), 1), 0], [Fraction(-3, 4), QI(0, Fraction(2, 3))]])
    for c in (-1, 2, 3, -12, 0):
        assert x.scale(c) == x.scale(QI(c)) and hash(x.scale(c)) == hash(x.scale(QI(c)))
    assert -x == x.scale(QI(-1)) and -(-x) == x


def test_nilpotent_detection():
    assert _E(3, 0, 1).is_nilpotent()
    assert not ExactMatrix.identity(3).is_nilpotent()
    assert (_E(3, 0, 1) + _E(3, 1, 2)).is_nilpotent()
    assert ExactMatrix.zeros(0).is_nilpotent() and ExactMatrix.zeros(1).is_nilpotent()
    assert not ExactMatrix.identity(1).is_nilpotent()


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_is_nilpotent_matches_the_nth_power(data):
    """Conjugates of strictly upper triangular matrices (nilpotent), of a
    multiple of E_{0,n-1} (square zero) and of triangular matrices with a
    nonzero diagonal entry (not nilpotent)."""
    n = data.draw(st.integers(1, 6))
    kind = data.draw(st.sampled_from(["nilpotent", "square_zero", "other"]))
    entry = st.tuples(_gaussian, st.integers(1, 3)).map(
        lambda z: QI(Fraction(z[0][0], z[1]), Fraction(z[0][1], z[1]))
    )
    grid = [[QI(0)] * n for _ in range(n)]
    if kind == "square_zero":
        if n > 1:
            grid[0][n - 1] = data.draw(entry)
    else:
        for i in range(n):
            for j in range(i + 1, n):
                grid[i][j] = data.draw(entry)
    if kind == "other":
        k = data.draw(st.integers(0, n - 1))
        grid[k][k] = data.draw(entry.filter(bool))
    p = ExactMatrix([
        [QI(1) if i == j else data.draw(entry) if i > j else QI(0) for j in range(n)]
        for i in range(n)
    ])
    x = p @ ExactMatrix(grid) @ p.inverse()
    assert x.is_nilpotent() == x.power(n).is_zero == (kind != "other")


# ---------------------------------------------------------------------------
# commutators
# ---------------------------------------------------------------------------


def test_bracket_basic_relations():
    n = 2
    e, f = _E(n, 0, 1), _E(n, 1, 0)
    h = bracket(e, f)
    assert h == ExactMatrix.diagonal([1, -1])
    assert bracket(h, e) == e.scale(2)
    assert bracket(h, f) == f.scale(-2)


def test_bracket_diagonal_weights():
    h = ExactMatrix.diagonal([QI(3), QI(5)])
    e = _E(2, 0, 1)
    assert bracket(h, e) == e.scale(-2)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.lists(st.integers(-4, 4), min_size=9, max_size=9),
        min_size=3,
        max_size=3,
    )
)
def test_bracket_jacobi_and_antisymmetry(flat):
    mats = [
        ExactMatrix([row[0:3], row[3:6], row[6:9]]) for row in flat
    ]
    x, y, z = mats
    assert bracket(x, y) == -bracket(y, x)
    jac = (
        bracket(x, bracket(y, z))
        + bracket(y, bracket(z, x))
        + bracket(z, bracket(x, y))
    )
    assert jac.is_zero


@st.composite
def _gaussian_matrices(draw, n):
    """An n x n Gaussian-rational matrix with 0 to n² nonzero entries, each
    over its own denominator."""
    count = draw(st.integers(0, n * n))
    keys = draw(st.lists(st.integers(0, n * n - 1), min_size=count, max_size=count, unique=True))
    grid = [[QI(0)] * n for _ in range(n)]
    for k in keys:
        a, b = draw(_gaussian.filter(lambda z: z != (0, 0)))
        den = draw(st.integers(1, 6))
        grid[k // n][k % n] = QI(Fraction(a, den), Fraction(b, den))
    return ExactMatrix(grid)


def _dense_bracket(x, y):
    n, a, b = x.rows, x.entries, y.entries
    return ExactMatrix([
        [sum((a[i][k] * b[k][j] - b[i][k] * a[k][j] for k in range(n)), QI(0)) for j in range(n)]
        for i in range(n)
    ])


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_bracket_matches_the_products(data):
    n = data.draw(st.integers(1, 8))
    x, y = data.draw(_gaussian_matrices(n)), data.draw(_gaussian_matrices(n))
    assert bracket(x, y) == x @ y - y @ x == _dense_bracket(x, y)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_bracket_space_is_the_span_of_the_brackets(data):
    n = data.draw(st.integers(1, 4))
    a = Subspace.span(data.draw(st.lists(_gaussian_matrices(n), max_size=3)), n)
    b = Subspace.span(data.draw(st.lists(_gaussian_matrices(n), max_size=3)), n)
    for u, w in ((a, b), (a, a)):
        brackets = [bracket(x, y) for x in u.basis() for y in w.basis()]
        assert bracket_space(u, w) == Subspace.span(brackets, n)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_row_readers_match_the_bracket_matrices(data):
    n = data.draw(st.integers(1, 3))
    mats = data.draw(st.lists(_gaussian_matrices(n), min_size=1, max_size=3))
    others = data.draw(st.lists(_gaussian_matrices(n), max_size=2))
    modulo = Subspace.span(data.draw(st.lists(_gaussian_matrices(n), max_size=2)), n)
    real = data.draw(st.booleans())
    images = [[bracket(x, y) for x in mats] for y in others]
    for mod in (None, modulo):
        assert bracket_kernel(mats, others, n, real=real, modulo=mod) == kernel_space(
            mats, images, n, real=real, modulo=mod
        )
    closed = Subspace.span([m for values in images for m in values], n)
    for space in (modulo, modulo.realify(), closed, closed.realify()):
        for x in mats:
            for y in others:
                inside = space.bracket_outside([x], [y]) is None
                assert inside == space.contains_mat(bracket(x, y))
    for space in (closed, closed.realify()):
        assert space.bracket_outside(mats, others) is None


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_contains_brackets_is_containment_of_the_bracket_span(data):
    n = data.draw(st.integers(1, 3))
    outer = data.draw(st.lists(_gaussian_matrices(n), max_size=3))
    inner = data.draw(st.lists(_gaussian_matrices(n), max_size=3))
    left, right = Subspace.span(outer + inner, n), Subspace.span(inner, n)
    spanned = bracket_space(left, right)
    extra = Subspace.span(data.draw(st.lists(_gaussian_matrices(n), max_size=2)), n)
    without_inner = bracket_space(Subspace.span(outer, n), right)
    for target in (spanned, extra, spanned.sum(extra), without_inner, bracket_space(right, right)):
        assert target.contains_brackets(outer, inner) == target.contains_space(spanned)
        # the same question on the realified span, read in real coordinates
        real = target.realify()
        pairs = [(x, y) for x in outer + inner for y in inner]
        assert real.contains_brackets(outer, inner) == all(
            real.contains_mat(bracket(x, y)) for x, y in pairs
        )


def test_contains_brackets_takes_the_inner_pairs():
    # b + span{f1, f2} in sl(3), b the upper Borel: [b, f1] and [b, f2]
    # stay inside, [f1, f2] = -f3 does not
    borel = [_E(3, 0, 1), _E(3, 1, 2), _E(3, 0, 2), ExactMatrix.diagonal([1, -1, 0]),
             ExactMatrix.diagonal([0, 1, -1])]
    lower = [_E(3, 1, 0), _E(3, 2, 1)]
    space = Subspace.span(borel + lower, 3)
    assert space.contains_brackets(borel, lower[:1]) and space.contains_brackets(borel, lower[1:])
    assert not space.contains_brackets(borel, lower)
    assert space.contains_brackets(borel + lower, [])


# ---------------------------------------------------------------------------
# batch kernels
# ---------------------------------------------------------------------------


@st.composite
def _kernel_operands(draw):
    """A side n from 1 to 8 and two lists, each possibly empty, of n x n
    Gaussian-rational matrices: zero, sparse (one to three entries) or dense
    (every entry nonzero), every entry over a denominator above 1."""
    n = draw(st.integers(1, 8))

    def member():
        kind = draw(st.sampled_from(["zero", "sparse", "dense"]))
        count = {"zero": 0, "sparse": draw(st.integers(1, min(3, n * n))), "dense": n * n}[kind]
        keys = draw(st.lists(st.integers(0, n * n - 1), min_size=count, max_size=count, unique=True))
        grid = [[QI(0)] * n for _ in range(n)]
        for k in keys:
            a, b = draw(_gaussian.filter(lambda z: z != (0, 0)))
            den = draw(st.integers(2, 6))
            grid[k // n][k % n] = QI(Fraction(a, den), Fraction(b, den))
        return ExactMatrix(grid)

    xs = [member() for _ in range(draw(st.integers(0, 4)))]
    ys = [member() for _ in range(draw(st.integers(0, 4)))]
    return n, xs, ys


def _dense_product(x, y):
    a, b = x.entries, y.entries
    return ExactMatrix([
        [sum((a[i][k] * b[k][j] for k in range(x.cols)), QI(0)) for j in range(y.cols)]
        for i in range(x.rows)
    ])


def _positions(m):
    return {(i, j) for i, row in enumerate(m.entries) for j, v in enumerate(row) if v}


def _product_meets(x, y):
    """Whether a column index of x is a row index of y."""
    return bool({j for _, j in _positions(x)} & {i for i, _ in _positions(y)})


def _bracket_meets(x, y):
    return _product_meets(x, y) or _product_meets(y, x)


def _as_matrices(n, pairs, xs, ys):
    return [(i, j, ExactMatrix._make(n, n, xs[i]._den * ys[j]._den, row)) for i, j, row in pairs]


@settings(max_examples=60, deadline=None)
@given(_kernel_operands())
def test_bracket_pairs_are_the_nonzero_brackets_in_row_major_order(case):
    n, xs, ys = case
    for left, right, pairs in (
        (xs, ys, [(i, j) for i in range(len(xs)) for j in range(len(ys))]),
        (xs, xs, [(i, j) for i in range(len(xs)) for j in range(i + 1, len(xs))]),
    ):
        expected = []
        for i, j in pairs:
            value = _dense_bracket(left[i], right[j])
            assert bracket(left[i], right[j]) == value
            if not value.is_zero:
                expected.append((i, j, value))
        got = _bracket_pairs(left, None if left is right else right, n)
        assert _as_matrices(n, got, left, right) == expected


@settings(max_examples=60, deadline=None)
@given(_kernel_operands())
def test_products_are_the_nonzero_products_in_row_major_order(case):
    n, xs, ys = case
    expected = []
    for i, x in enumerate(xs):
        for j, y in enumerate(ys):
            value = _dense_product(x, y)
            assert x @ y == value
            if not value.is_zero:
                expected.append((i, j, value))
    assert products(xs, ys) == expected


@settings(max_examples=60, deadline=None)
@given(_kernel_operands())
def test_trace_pairing_is_the_canonical_matrix_of_traces(case):
    _, xs, ys = case
    pairing = trace_pairing(xs, ys)
    assert (pairing.rows, pairing.cols) == (len(xs), len(ys))
    traces = [[_dense_product(x, y).trace() for y in ys] for x in xs]
    if xs:
        # equal storage: only nonzero entries, over the least denominator
        assert pairing == ExactMatrix(traces)
    assert trace_pairing(ys, xs) == pairing.transpose()


@settings(max_examples=60, deadline=None)
@given(_kernel_operands())
def test_batch_kernels_visit_only_the_pairs_that_share_an_index(case):
    n, xs, ys = case
    with mock.patch.object(exact, "_commute", wraps=exact._commute) as commute:
        list(_bracket_pairs(xs, ys, n))
        assert commute.call_count == sum(_bracket_meets(x, y) for x in xs for y in ys)
        commute.reset_mock()
        list(_bracket_pairs(xs, None, n))
        upper = [(x, y) for i, x in enumerate(xs) for y in xs[i + 1:]]
        assert commute.call_count == sum(_bracket_meets(x, y) for x, y in upper)
    with mock.patch.object(exact, "_multiply", wraps=exact._multiply) as multiply:
        products(xs, ys)
        assert multiply.call_count == sum(_product_meets(x, y) for x in xs for y in ys)


def test_batch_kernels_drop_results_that_cancel():
    # the factors share indices, yet x·y = E00 − E00, [h, k] and tr(a·b) = 1 − 1 are zero
    x, y = _E(2, 0, 0) + _E(2, 0, 1), _E(2, 0, 0) - _E(2, 1, 0)
    h, k = ExactMatrix.diagonal([1, 2]), ExactMatrix.diagonal([3, 5])
    a, b = _E(2, 0, 1) + _E(2, 1, 0), _E(2, 1, 0) - _E(2, 0, 1)
    assert products([x], [y]) == [] and (x @ y).is_zero
    assert list(_bracket_pairs([h], [k])) == [] and list(_bracket_pairs([h, k])) == []
    assert trace_pairing([a], [b]) == ExactMatrix.zeros(1)


def test_batch_kernels_reject_mixed_shapes():
    with pytest.raises(ValueError):
        list(_bracket_pairs([_E(2, 0, 1)], [_E(3, 1, 0)]))
    with pytest.raises(ValueError):
        list(_bracket_pairs([_E(2, 0, 1), _E(3, 1, 0)]))
    with pytest.raises(ValueError):
        Subspace.span([_E(2, 0, 1)], 2).bracket_outside([_E(3, 0, 1)], [_E(3, 1, 0)])
    with pytest.raises(ValueError):
        products([_E(2, 0, 1)], [ExactMatrix([[1, 2, 3]])])
    with pytest.raises(ValueError):
        ExactMatrix([[1, 2]]) @ ExactMatrix([[1, 2]])
    assert (ExactMatrix([[1, 2]]) @ ExactMatrix([[3], [4]])) == ExactMatrix([[11]])


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_bracket_outside_is_the_first_miss_of_a_row_major_scan(data):
    n = data.draw(st.integers(1, 3))
    xs = data.draw(st.lists(_gaussian_matrices(n), max_size=3))
    ys = data.draw(st.lists(_gaussian_matrices(n), max_size=3))
    brackets = [bracket(x, y) for x in xs + ys for y in xs + ys]
    kept = data.draw(st.lists(st.sampled_from(brackets), max_size=3)) if brackets else []
    extra = data.draw(st.lists(_gaussian_matrices(n), max_size=1))
    span = Subspace.span(kept + extra, n)
    for target in (span, span.realify()):
        for left, right, pairs in (
            (xs, ys, [(x, y) for x in xs for y in ys]),
            (xs, None, [(x, y) for i, x in enumerate(xs) for y in xs[i + 1:]]),
        ):
            scan = next(((x, y) for x, y in pairs if not target.contains_mat(bracket(x, y))), None)
            got = target.bracket_outside(left, right)
            assert (got is None) == (scan is None)
            if scan is not None:
                assert got[0] is scan[0] and got[1] is scan[1]


# ---------------------------------------------------------------------------
# subspaces
# ---------------------------------------------------------------------------


def test_echelonize_dependent_spans():
    n = 2
    s = Subspace.span([_E(n, 0, 1), _E(n, 0, 1).scale(2)], n)
    assert s.dim == 1
    assert s.contains_mat(_E(n, 0, 1).scale(QI(0, 7)))


def test_echelonize_empty_is_zero():
    s = Subspace.zero(3)
    assert s.dim == 0
    assert not s.contains_mat(_E(3, 0, 1))
    assert s.contains_mat(ExactMatrix.zeros(3))


def test_echelonize_mixed_combination():
    n = 4
    a = _E(n, 0, 1) + _E(n, 2, 3)
    b = _E(n, 0, 1) - _E(n, 2, 3)
    s = Subspace.span([a, b], n)
    assert s.dim == 2
    assert s.contains_mat(_E(n, 0, 1))
    assert s.contains_mat(_E(n, 2, 3))
    assert s == Subspace.span([_E(n, 0, 1), _E(n, 2, 3)], n)


def test_canonical_form_is_basis_independent():
    n = 3
    a = _E(n, 0, 1).scale(QI(0, 2)) + _E(n, 1, 2)
    b = _E(n, 0, 1) + _E(n, 0, 2)
    s1 = Subspace.span([a, b], n)
    s2 = Subspace.span([b.scale(QI(3, 1)), a + b.scale(5), a], n)
    assert s1 == s2
    assert hash(s1) == hash(s2)


def test_sum_and_intersection_dims():
    n = 3
    a = Subspace.span([_E(n, 0, 1), _E(n, 0, 2)], n)
    b = Subspace.span([_E(n, 0, 2), _E(n, 1, 2)], n)
    u = a.sum(b)
    w = a.intersect(b)
    assert u.dim == 3
    assert w.dim == 1
    assert w.contains_mat(_E(n, 0, 2))


def _gaussian_integer_matrix(rng, n, density):
    """An n x n matrix whose entries are, with probability ``density``,
    Gaussian integers with parts in [-2, 2], and zero otherwise."""
    return ExactMatrix([
        [QI(rng.randint(-2, 2), rng.randint(-2, 2)) if rng.random() < density else QI(0)
         for _ in range(n)]
        for _ in range(n)
    ])


def _sum_pair(seed):
    """Two spans from ``seed``: independent, nested (the second a span of
    combinations of the first's basis) or equal (as many combinations as
    the first's dimension plus one; on these seeds they span it all)."""
    rng = random.Random(seed)
    n = rng.choice((2, 3))
    a = Subspace.span(
        [_gaussian_integer_matrix(rng, n, rng.random()) for _ in range(rng.randint(0, n * n))], n
    )
    kind = ("independent", "nested", "equal")[seed % 3]
    if kind == "independent":
        mats = [_gaussian_integer_matrix(rng, n, rng.random()) for _ in range(rng.randint(0, n * n))]
    else:
        count = rng.randint(0, a.dim) if kind == "nested" else a.dim + 1
        basis = a.basis()
        mats = [
            sum((m.scale(QI(rng.randint(-2, 2), rng.randint(-2, 2))) for m in basis), ExactMatrix.zeros(n))
            for _ in range(count)
        ]
    return a, Subspace.span(mats, n)


@pytest.mark.parametrize("real", [False, True], ids=["complex", "realified"])
@pytest.mark.parametrize("seed", range(60))
def test_sum_is_the_span_of_both_bases(seed, real):
    a, b = _sum_pair(seed)
    if real:
        a, b = a.realify(), b.realify()
    total = a.sum(b)
    assert total == Subspace.span(a.basis() + b.basis(), a.side, real=real)
    assert b.sum(a) == total
    for big, small in ((a, b), (b, a)):
        if big.contains_space(small):
            assert big.sum(small) is big
            assert small.sum(big) is (big if big.dim > small.dim else small)


def test_intersection_nontrivial_combination():
    n = 2
    a = Subspace.span([_E(n, 0, 0) + _E(n, 1, 1), _E(n, 0, 1)], n)
    b = Subspace.span([_E(n, 0, 0) + _E(n, 1, 1) + _E(n, 0, 1), _E(n, 1, 0)], n)
    w = a.intersect(b)
    assert w.dim == 1
    assert w.contains_mat(_E(n, 0, 0) + _E(n, 1, 1) + _E(n, 0, 1))


def test_contains_rejects_outside():
    n = 2
    a = Subspace.span([_E(n, 0, 1)], n)
    assert a.contains_mat(_E(n, 0, 1).scale(QI(Fraction(2, 3), 5)))
    assert not a.contains_mat(_E(n, 1, 0))
    assert not a.contains_mat(_E(n, 0, 1) + _E(n, 1, 0))


@st.composite
def _subspace_triples(draw):
    n = 2
    def mats():
        count = draw(st.integers(0, 3))
        out = []
        for _ in range(count):
            entries = [
                [
                    QI(draw(st.integers(-3, 3)), draw(st.integers(-3, 3)))
                    for _ in range(n)
                ]
                for _ in range(n)
            ]
            out.append(ExactMatrix(entries))
        return out
    return (
        Subspace.span(mats(), n),
        Subspace.span(mats(), n),
    )


@settings(max_examples=50, deadline=None)
@given(_subspace_triples())
def test_dimension_lattice_identity(pair):
    a, b = pair
    assert (
        a.sum(b).dim + a.intersect(b).dim
        == a.dim + b.dim
    )


@settings(max_examples=50, deadline=None)
@given(_subspace_triples())
def test_sum_contains_both_and_intersection_in_both(pair):
    a, b = pair
    u = a.sum(b)
    w = a.intersect(b)
    assert u.contains_space(a) and u.contains_space(b)
    assert a.contains_space(w) and b.contains_space(w)


def test_bracket_space_oracle():
    n = 2
    sl2 = Subspace.span([_E(n, 0, 1), _E(n, 1, 0), ExactMatrix.diagonal([1, -1])], n)
    derived = bracket_space(sl2, sl2)
    assert derived == sl2
    cartan = Subspace.span([ExactMatrix.diagonal([1, -1])], n)
    assert bracket_space(cartan, cartan).dim == 0
    borel = Subspace.span([ExactMatrix.diagonal([1, -1]), _E(n, 0, 1)], n)
    assert bracket_space(borel, borel) == Subspace.span([_E(n, 0, 1)], n)


def test_real_subspace_doubling():
    n = 2
    # real span of a single matrix: not i-stable
    m = _E(n, 0, 1)
    s = Subspace.span([m], n, real=True)
    assert s.dim == 1
    assert s.contains_mat(m.scale(Fraction(5, 7)))
    assert not s.contains_mat(m.scale(QI(0, 1)))
    # complex line realified has real dimension 2
    line = Subspace.span([m], n)
    doubled = line.realify()
    assert doubled.dim == 2
    assert doubled.contains_mat(m.scale(QI(1, 1)))


def test_real_intersection_of_complex_spaces():
    n = 2
    a = Subspace.span([_E(n, 0, 1), _E(n, 1, 0)], n, real=True)
    b = Subspace.span(
        [_E(n, 0, 1) + _E(n, 1, 0), _E(n, 0, 1).scale(QI(0, 1))], n, real=True
    )
    w = a.intersect(b)
    assert w.dim == 1
    assert w.contains_mat(_E(n, 0, 1) + _E(n, 1, 0))


def test_solve_kernel_oracle():
    # x + y = 0 over two unknowns
    rows = [(QI(1), QI(1))]
    basis = solve_kernel(rows, 2)
    assert len(basis) == 1
    v = basis[0]
    assert v[0] + v[1] == QI(0)
    # full-rank system has trivial kernel
    rows = [(QI(1), QI(0)), (QI(0), QI(1))]
    assert solve_kernel(rows, 2) == []
    # complex coefficients: x = i*y
    rows = [(QI(1), QI(0, -1))]
    basis = solve_kernel(rows, 2)
    assert len(basis) == 1
    v = basis[0]
    assert v[0] == QI(0, 1) * v[1]


# ---------------------------------------------------------------------------
# the elimination engine against a plain Gauss-Jordan oracle
# ---------------------------------------------------------------------------

_ZERO = (Fraction(0), Fraction(0))


def _c_mul(x, y):
    return (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def _oracle_rref(rows, width):
    """Reduced row echelon form over Q(i), entries as (Fraction, Fraction)."""
    rows = [list(r) for r in rows]
    pivots = []
    for c in range(width):
        r = len(pivots)
        hit = next((i for i in range(r, len(rows)) if rows[i][c] != _ZERO), None)
        if hit is None:
            continue
        rows[r], rows[hit] = rows[hit], rows[r]
        a, b = rows[r][c]
        inv = (a / (a * a + b * b), -b / (a * a + b * b))
        rows[r] = [_c_mul(inv, x) for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != _ZERO:
                f = rows[i][c]
                rows[i] = [
                    (x[0] - fy[0], x[1] - fy[1])
                    for x, fy in zip(rows[i], (_c_mul(f, y) for y in rows[r]))
                ]
        pivots.append(c)
    return tuple(pivots), [tuple(r) for r in rows[: len(pivots)]]


def _oracle_intersection(u_rows, w_rows, width):
    """U ∩ W from the kernel of [U; -W]^T: the vectors Σ a_i u_i = Σ b_j w_j."""
    gens = list(u_rows) + [tuple((-a, -b) for a, b in w) for w in w_rows]
    cols = [tuple(g[k] for g in gens) for k in range(width)]
    pivots, reduced = _oracle_rref(cols, len(gens))
    out = []
    for f in (f for f in range(len(gens)) if f not in pivots):
        coeff = [_ZERO] * len(gens)
        coeff[f] = (Fraction(1), Fraction(0))
        for row, p in zip(reduced, pivots):
            coeff[p] = (-row[f][0], -row[f][1])
        vec = [_ZERO] * width
        for c, u in zip(coeff[: len(u_rows)], u_rows):
            vec = [(v[0] + cu[0], v[1] + cu[1]) for v, cu in zip(vec, (_c_mul(c, x) for x in u))]
        out.append(vec)
    return _oracle_rref(out, width)


def _fractions(vec):
    return tuple((Fraction(q.re), Fraction(q.im)) for q in vec)


def _real_fractions(m):
    """Real-doubled coordinates of a matrix: (Re, Im) per entry, row-major."""
    return tuple((x, Fraction(0)) for q in m.flatten() for x in (Fraction(q.re), Fraction(q.im)))


def _engine_rref(pivots, rows, width):
    return pivots, [
        tuple(
            (Fraction(row.get(k, (0, 0))[0], row[p][0]), Fraction(row.get(k, (0, 0))[1], row[p][0]))
            for k in range(width)
        )
        for row, p in zip(rows, pivots)
    ]


_gaussian = st.tuples(st.integers(-3, 3), st.integers(-3, 3))


@st.composite
def _row_sets(draw, width, real=False):
    """Rows of every shape: sparse, dense, all-zero, and multiples of rows
    already drawn (duplicates)."""
    entry = st.tuples(st.integers(-3, 3), st.just(0)) if real else _gaussian
    rows = []
    for kind in draw(st.lists(st.sampled_from("sdzm"), max_size=7)):
        if kind == "s":
            cols = draw(st.lists(st.integers(0, width - 1), min_size=1, max_size=2))
            rows.append({c: draw(entry) for c in cols})
        elif kind == "d":
            rows.append({c: draw(entry) for c in range(width)})
        elif kind == "z":
            rows.append({})
        elif rows:
            base = draw(st.sampled_from(rows))
            ma, mb = draw(entry.filter(lambda z: z != (0, 0)))
            rows.append({c: (ma * a - mb * b, ma * b + mb * a) for c, (a, b) in base.items()})
    return [{c: z for c, z in r.items() if z != (0, 0)} for r in rows]


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_rref_matches_oracle(data):
    width = data.draw(st.integers(1, 6))
    rows = data.draw(_row_sets(width, real=data.draw(st.booleans())))
    dense = [
        tuple((Fraction(r.get(k, (0, 0))[0]), Fraction(r.get(k, (0, 0))[1])) for k in range(width))
        for r in rows
    ]
    assert _engine_rref(*_rref_num(rows), width) == _oracle_rref(dense, width)


@st.composite
def _matrix_sets(draw):
    """Two lists of 2x2 Gaussian-rational matrices, sparse, dense or zero."""
    def mats():
        out = []
        for r in draw(_row_sets(4)):
            den = draw(st.integers(1, 3))
            entries = [QI(Fraction(a, den), Fraction(b, den)) for a, b in (r.get(k, (0, 0)) for k in range(4))]
            out.append(ExactMatrix([entries[:2], entries[2:]]))
        return out
    return mats(), mats(), draw(st.booleans())


@settings(max_examples=60, deadline=None)
@given(_matrix_sets())
def test_span_sum_intersect_match_oracle(case):
    mats_u, mats_w, real = case
    width = 8 if real else 4
    coords = _real_fractions if real else (lambda m: _fractions(m.flatten()))
    u = Subspace.span(mats_u, 2, real=real)
    w = Subspace.span(mats_w, 2, real=real)
    ou = _oracle_rref([coords(m) for m in mats_u], width)
    ow = _oracle_rref([coords(m) for m in mats_w], width)
    for space, oracle in ((u, ou), (w, ow)):
        assert (space.pivots, [coords(m) for m in space.basis()]) == oracle
    total = u.sum(w)
    inter = u.intersect(w)
    assert (total.pivots, [coords(m) for m in total.basis()]) == _oracle_rref(ou[1] + ow[1], width)
    assert (inter.pivots, [coords(m) for m in inter.basis()]) == _oracle_intersection(
        ou[1], ow[1], width
    )
    assert total.dim + inter.dim == u.dim + w.dim


# ---------------------------------------------------------------------------
# kernels against the QI oracle solve_kernel
# ---------------------------------------------------------------------------


@st.composite
def _kernel_cases(draw):
    """2x2 matrices to combine, matrices to pair them with, up to two maps
    x -> a·x·b, a subspace to work modulo, and the field."""
    def mats():
        out = []
        for r in draw(_row_sets(4)):
            entries = [QI(*r.get(k, (0, 0))) for k in range(4)]
            out.append(ExactMatrix([entries[:2], entries[2:]]))
        return out
    mats_, others, factors = mats(), mats(), mats()
    maps = list(zip(factors[0::2], factors[1::2]))[:2]
    return mats_, others, maps, Subspace.span(mats(), 2), draw(st.booleans())


def _oracle_span(mats, rows, unknowns, real):
    """The span of Σ c_k·mats[k] over solve_kernel's basis of the rows (in
    ``unknowns`` variables, the first len(mats) of them the c_k); with
    ``real``, each row's real and imaginary parts are imposed separately."""
    if real:
        rows = [tuple(QI(getattr(q, part)) for q in row) for row in rows for part in ("re", "im")]
    combos = []
    for vec in solve_kernel(rows, unknowns):
        combo = ExactMatrix.zeros(2)
        for c, m in zip(vec, mats):
            combo = combo + m.scale(c)
        combos.append(combo)
    return Subspace.span(combos, 2, real=real)


@settings(max_examples=80, deadline=None)
@given(_kernel_cases())
def test_trace_annihilator_matches_oracle(case):
    mats, others, _, _, real = case
    rows = [tuple((x @ y).trace() for x in mats) for y in others]
    expected = _oracle_span(mats, rows, len(mats), real)
    assert trace_annihilator(mats, others, 2, real=real) == expected


@settings(max_examples=80, deadline=None)
@given(_kernel_cases())
def test_kernel_space_matches_oracle(case):
    mats, _, maps, modulo, real = case
    images = [[a @ m @ b for m in mats] for a, b in maps]
    # Σ c_k·f(mats[k]) = Σ d_l·b_l with b_l the basis of the modulus, one
    # vector d per map: the kernel in (c, d), projected to c
    basis = [] if real else [b.flatten() for b in modulo.basis()]
    unknowns = len(mats) + len(maps) * len(basis)
    rows = []
    for j, values in enumerate(images):
        flat = [m.flatten() for m in values]
        for e in range(4):
            row = [QI(0)] * unknowns
            row[: len(mats)] = [v[e] for v in flat]
            for l, b in enumerate(basis):
                row[len(mats) + j * len(basis) + l] = -b[e]
            rows.append(tuple(row))
    expected = _oracle_span(mats, rows, unknowns, real)
    got = kernel_space(mats, images, 2, real=real, modulo=None if real else modulo)
    assert got == expected


def test_kernel_space_modulo_is_the_normalizer():
    # {x in gl(2) : [x, E01] in span(E01)} is the upper triangular algebra
    units = [_E(2, i, j) for i in range(2) for j in range(2)]
    line = Subspace.span([_E(2, 0, 1)], 2)
    images = [[bracket(x, _E(2, 0, 1)) for x in units]]
    upper = Subspace.span([_E(2, 0, 0), _E(2, 0, 1), _E(2, 1, 1)], 2)
    assert kernel_space(units, images, 2, modulo=line) == upper
    # without the modulus only the centralizer span(I, E01) is left
    centralizer = Subspace.span([ExactMatrix.identity(2), _E(2, 0, 1)], 2)
    assert kernel_space(units, images, 2) == centralizer


@st.composite
def _square_sets(draw):
    """A size n and n x n Gaussian-rational matrices, sparse, dense or zero."""
    n = draw(st.integers(1, 3))
    out = []
    for r in draw(_row_sets(n * n)):
        den = draw(st.integers(1, 3))
        entries = [QI(Fraction(a, den), Fraction(b, den)) for a, b in (r.get(k, (0, 0)) for k in range(n * n))]
        out.append(ExactMatrix([entries[i * n:(i + 1) * n] for i in range(n)]))
    return n, out


@settings(max_examples=80, deadline=None)
@given(_square_sets())
def test_kernel_projector_matches_oracle(case):
    n, mats = case
    p = kernel_projector(mats, n)
    assert p @ p == p and p.star() == p
    assert all(m @ p == ExactMatrix.zeros(n) for m in mats)
    kernel = solve_kernel([row for m in mats for row in m.entries], n)
    for vec in kernel:
        column = ExactMatrix([[c] for c in vec])
        assert p @ column == column
    assert p.trace() == QI(len(kernel))


def test_kernel_projector_of_no_matrices_and_of_a_zero_kernel():
    assert kernel_projector([], 3) == ExactMatrix.identity(3)
    assert kernel_projector([_E(3, 0, 1), _E(3, 1, 0), _E(3, 2, 2)], 3) == ExactMatrix.zeros(3)
    # the kernel of E01 - E02 is span(e1, e2 + e3)
    half = QI(Fraction(1, 2))
    line = ExactMatrix([[1, 0, 0], [0, half, half], [0, half, half]])
    assert kernel_projector([_E(3, 0, 1) - _E(3, 0, 2)], 3) == line


@pytest.mark.parametrize("real", [False, True])
def test_kernels_of_no_matrices_are_zero(real):
    others = [_E(2, 0, 1), ExactMatrix.identity(2)]
    assert trace_annihilator([], others, 2, real=real) == Subspace.zero(2, real=real)
    assert kernel_space([], [[], []], 2, real=real) == Subspace.zero(2, real=real)
    modulo = Subspace.span(others, 2)
    assert kernel_space([], [[]], 2, modulo=modulo) == Subspace.zero(2)


@settings(max_examples=60, deadline=None)
@given(_square_sets(), _square_sets())
def test_trace_pairing_matches_oracle(left, right):
    n, xs = left
    ys = [m for m in right[1] if m.rows == n]
    pairing = trace_pairing(xs, ys)
    assert (pairing.rows, pairing.cols) == (len(xs), len(ys))
    assert pairing.entries == tuple(tuple((x @ y).trace() for y in ys) for x in xs)


def test_trace_pairing_rejects_mixed_sides():
    with pytest.raises(ValueError):
        trace_pairing([_E(2, 0, 1)], [_E(3, 1, 0)])


@settings(max_examples=60, deadline=None)
@given(_square_sets(), st.data())
def test_combine_matches_sums_of_scales(case, data):
    n, mats = case
    if not mats:
        return
    gaussian = st.builds(QI, st.fractions(-3, 3, max_denominator=4), st.fractions(-3, 3, max_denominator=4))
    coeffs = data.draw(st.lists(st.lists(gaussian, min_size=len(mats), max_size=len(mats)), max_size=3))
    rows = ExactMatrix(coeffs) if coeffs else ExactMatrix.zeros(0, len(mats))
    expected = []
    for row in coeffs:
        total = ExactMatrix.zeros(n)
        for c, m in zip(row, mats):
            total = total + m.scale(c)
        expected.append(total)
    assert combine(mats, rows) == expected
    with pytest.raises(ValueError):
        combine(mats[1:], ExactMatrix.zeros(1, len(mats)))


def test_reshape_round_trip():
    m = ExactMatrix([[1, QI(0, Fraction(1, 2)), 0], [QI(-2, 1), 0, Fraction(3, 4)]])
    flat = m.flatten()
    assert m.reshape(1, 6).entries == (flat,)
    assert m.reshape(3, 2).entries == (flat[0:2], flat[2:4], flat[4:6])
    assert m.reshape(3, 2).reshape(2, 3) == m
    with pytest.raises(ValueError):
        m.reshape(4, 2)


def _coordinates(x, basis):
    """The coefficients c with x = Σ c_k·basis[k], by a QI kernel solve."""
    width = len(basis)
    columns = [b.flatten() for b in basis] + [x.flatten()]
    rows = [[col[e] for col in columns] for e in range(len(columns[0]))]
    (vec,) = solve_kernel(rows, width + 1)
    return [-c / vec[width] for c in vec[:width]]


def _killing_oracle(space, ideal):
    """tr(ad x·ad y) on space/ideal from QI coordinates in the basis of
    ``space`` at the non-ideal pivots followed by that of ``ideal``."""
    kept = [m for m, p in zip(space.basis(), space.pivots) if p not in ideal.pivots]
    full = kept + ideal.basis()
    m = len(kept)
    ad = [
        [_coordinates(bracket(x, y), full)[:m] for y in kept]  # ad[i][j][k]
        for x in kept
    ]
    def entry(i, j):
        total = QI(0)
        for a in range(m):
            for b in range(m):
                total = total + ad[i][b][a] * ad[j][a][b]
        return total
    return [[entry(i, j) for j in range(m)] for i in range(m)]


def _killing_cases():
    h = ExactMatrix.diagonal([1, -1])
    sl2 = Subspace.span([_E(2, 0, 1), _E(2, 1, 0), h], 2)
    h3 = [ExactMatrix.diagonal([1, -1, 0]), ExactMatrix.diagonal([0, 1, -1])]
    upper = [_E(3, 0, 1), _E(3, 0, 2), _E(3, 1, 2)]
    borel = Subspace.span(h3 + upper, 3)
    nil = Subspace.span(upper, 3)
    return [
        (sl2, Subspace.zero(2)),
        (borel, Subspace.zero(3)),
        (borel, Subspace.span(upper[1:2], 3)),
        (borel, nil),
        (borel, borel),
    ]


@pytest.mark.parametrize("space, ideal", _killing_cases())
def test_killing_form_matches_oracle(space, ideal):
    form = killing_form(space, ideal)
    assert form.entries == tuple(map(tuple, _killing_oracle(space, ideal)))


def test_killing_form_of_sl2_and_of_a_borel():
    space, _ = _killing_cases()[0]
    # canonical basis diag(1, -1), E01, E10: K(h, h) = 8, K(e, f) = 4
    assert killing_form(space, Subspace.zero(2)) == ExactMatrix([[8, 0, 0], [0, 0, 4], [0, 4, 0]])
    borel, _ = _killing_cases()[1]
    nil = _killing_cases()[3][1]
    # the quotient of a Borel by its nilradical is abelian
    assert killing_form(borel, nil) == ExactMatrix.zeros(2)


# ---------------------------------------------------------------------------
# polynomials
# ---------------------------------------------------------------------------


def test_charpoly_oracles():
    assert charpoly(ExactMatrix.diagonal([1, 2])) == [QI(1), QI(-3), QI(2)]
    assert charpoly(_E(2, 0, 1)) == [QI(1), QI(0), QI(0)]
    j = ExactMatrix([[2, 1], [0, 2]])
    assert charpoly(j) == [QI(1), QI(-4), QI(4)]
    rot = ExactMatrix([[0, -1], [1, 0]])
    assert charpoly(rot) == [QI(1), QI(0), QI(1)]


def test_charpoly_cayley_hamilton():
    # the second matrix has denominator 60 and Gaussian entries
    f = Fraction
    for x in (
        ExactMatrix([[QI(1, 1), QI(2)], [QI(0, -1), QI(3, 2)]]),
        ExactMatrix([
            [QI(f(1, 2), f(1, 3)), QI(2), QI(0, f(-1, 4))],
            [QI(f(3, 5)), QI(0, 1), QI(1)],
            [QI(1, -1), QI(f(2, 3)), QI(f(-1, 6), 1)],
        ]),
    ):
        p = charpoly(x)
        assert len(p) == x.rows + 1 and p[0] == QI(1) and p[1] == -x.trace()
        acc = ExactMatrix.zeros(x.rows)
        for c in p:
            acc = acc @ x + ExactMatrix.identity(x.rows).scale(c)
        assert acc.is_zero


def _descartes_signature(h):
    """``(positives, negatives)`` of a Hermitian matrix by Descartes' rule
    of signs on its characteristic polynomial, exact as every root is real:
    the sign changes of p(t) and of p(-t), zeros skipped."""
    coeffs = [c.re for c in charpoly(h)]

    def changes(values):
        signs = [c > 0 for c in values if c]
        return sum(a != b for a, b in zip(signs, signs[1:]))

    return changes(coeffs), changes([-c if k % 2 else c for k, c in enumerate(coeffs)])


_GAUSSIAN = st.builds(QI, st.integers(-3, 3), st.integers(-3, 3))


@st.composite
def _hermitian(draw):
    """A Hermitian matrix of side 1-6 over a denominator 1-7: a general
    one, one with a zero diagonal (hyperbolic blocks), or a rank-deficient
    z·diag(d)·z* with some d zero."""
    n = draw(st.integers(1, 6))
    kind = draw(st.sampled_from(["general", "zero diagonal", "z diag(d) z*"]))
    if kind == "z diag(d) z*":
        k = draw(st.integers(1, n))
        z = ExactMatrix([[draw(_GAUSSIAN) for _ in range(k)] for _ in range(n)])
        d = ExactMatrix.diagonal([draw(st.integers(-2, 2)) for _ in range(k)])
        h = z @ d @ z.star()
    else:
        rows = [[QI(0)] * n for _ in range(n)]
        for i in range(n):
            if kind == "general":
                rows[i][i] = QI(draw(st.integers(-3, 3)))
            for j in range(i + 1, n):
                rows[i][j] = draw(_GAUSSIAN)
                rows[j][i] = rows[i][j].conj()
        h = ExactMatrix(rows)
    return h.scale(QI(Fraction(1, draw(st.integers(1, 7)))))


@settings(max_examples=200, deadline=None)
@given(_hermitian())
def test_hermitian_inertia_matches_descartes(h):
    assert h == h.star()
    assert hermitian_inertia(h) == _descartes_signature(h)


def test_hermitian_inertia_of_hyperbolic_blocks_and_the_empty_matrix():
    assert hermitian_inertia(ExactMatrix.zeros(0)) == (0, 0)
    assert hermitian_inertia(ExactMatrix.zeros(3)) == (0, 0)
    hyperbolic = ExactMatrix([[0, QI(1, -2), 0, 0], [QI(1, 2), 0, 0, 0], [0, 0, 0, 3], [0, 0, 3, 0]])
    assert hermitian_inertia(hyperbolic) == _descartes_signature(hyperbolic) == (2, 2)
    with pytest.raises(ValueError, match="incompatible shapes"):
        hermitian_inertia(ExactMatrix([[1, 0]]))
    with pytest.raises(ValueError, match="not Hermitian"):
        hermitian_inertia(ExactMatrix([[1, 1], [0, 1]]))


def _poly_times(p, q):
    out = [QI(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] = out[i + j] + a * b
    return out


def test_squarefree_part():
    # (t-2)^2 -> t-2
    p = [QI(1), QI(-4), QI(4)]
    assert squarefree_part(p) == [QI(1), QI(-2)]
    # already squarefree
    q = [QI(1), QI(-3), QI(2)]
    assert squarefree_part(q) == q
    # non-monic over Q(i), roots of multiplicity 2, 1 and 3, a leading zero
    roots = [QI(Fraction(1, 2), Fraction(1, 2)), QI(-3), QI(0, Fraction(1, 5))]
    r = [QI(Fraction(2, 3), 1)]
    part = [QI(1)]
    for root, mult in zip(roots, (2, 1, 3)):
        part = _poly_times(part, [QI(1), -root])
        for _ in range(mult):
            r = _poly_times(r, [QI(1), -root])
    assert squarefree_part([QI(0)] + r) == part


def test_semisimple_part_oracles():
    # diagonalizable: unchanged
    d = ExactMatrix.diagonal([1, 2])
    assert semisimple_part(d) == d
    # nilpotent: zero
    assert semisimple_part(_E(2, 0, 1)).is_zero
    # Jordan block: diagonal part
    j = ExactMatrix([[2, 1], [0, 2]])
    assert semisimple_part(j) == ExactMatrix.diagonal([2, 2])
    # mixed with distinct eigenvalues in the same matrix
    m = ExactMatrix([[1, 1, 0], [0, 1, 0], [0, 0, 5]])
    s = semisimple_part(m)
    assert s == ExactMatrix.diagonal([1, 1, 5])
    n = m - s
    assert n.is_nilpotent()
    assert bracket(s, n).is_zero
    # P J P^-1 with a Gaussian eigenvalue of multiplicity 3 (one Jordan block
    # beside a simple eigenvalue) and 4 (one block: two Newton steps)
    p = ExactMatrix([
        [QI(1), QI(0, 1), QI(0), QI(2)],
        [QI(0), QI(1), QI(1, -1), QI(0)],
        [QI(1), QI(0), QI(1), QI(0, 1)],
        [QI(0), QI(2), QI(0), QI(1)],
    ])
    pinv = p.inverse()
    assert p @ pinv == ExactMatrix.identity(4)
    lam = QI(1, 2)
    nil3 = _E(4, 0, 1) + _E(4, 1, 2)
    # fractional eigenvalues, with a fractional nilpotent part
    frac = QI(Fraction(1, 3), Fraction(-1, 2))
    for d, nil in (
        (ExactMatrix.diagonal([lam, lam, lam, QI(-3)]), nil3),
        (ExactMatrix.diagonal([lam] * 4), nil3 + _E(4, 2, 3)),
        (
            ExactMatrix.diagonal([frac] * 3 + [QI(Fraction(-5, 2))]),
            nil3.scale(QI(Fraction(1, 7))),
        ),
    ):
        assert semisimple_part(p @ (d + nil) @ pinv) == p @ d @ pinv
    # the exact shortcuts agree with the Newton path: a diagonal matrix is
    # its own semisimple part, and its conjugate by the non-monomial p takes
    # the Newton path; an x with x·x = 0 has semisimple part 0, and so has
    # its conjugate, which is square-zero again
    for d in (
        ExactMatrix.diagonal([lam, lam, QI(-3), frac]),
        ExactMatrix.diagonal([2, 0, 0, -1]),
        ExactMatrix.diagonal([lam] * 4),
    ):
        conj = p @ d @ pinv
        assert semisimple_part(d) is d == _newton_semisimple(d)
        assert semisimple_part(conj) == conj == _newton_semisimple(conj)
    for z in (
        _E(4, 0, 3),
        _E(4, 0, 2) + _E(4, 1, 3),
        _E(4, 0, 1) + _E(4, 0, 2).scale(QI(Fraction(1, 3), 1)),
    ):
        conj = p @ z @ pinv
        assert (conj @ conj).is_zero and not conj.is_zero
        for x in (z, conj):
            assert semisimple_part(x).is_zero and _newton_semisimple(x).is_zero


def test_semisimple_part_gaussian_eigenvalues():
    rot = ExactMatrix([[0, -1], [1, 0]])  # eigenvalues +-i
    assert semisimple_part(rot) == rot
    mixed = ExactMatrix([[QI(0, 1), QI(1)], [QI(0), QI(0, 1)]])
    s = semisimple_part(mixed)
    assert s == ExactMatrix.diagonal([QI(0, 1), QI(0, 1)])
