"""Tests for the exact linear-algebra core."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from crmostow.exact import (
    QI,
    ExactMatrix,
    Subspace,
    bracket,
    bracket_space,
    charpoly,
    contains,
    echelonize,
    semisimple_part,
    solve_kernel,
    squarefree_part,
    subspace_intersect,
    subspace_sum,
)


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
    assert x.flatten_real()[:2] == (QI(Fraction(1, 2)), QI(1))


def test_nilpotent_detection():
    assert _E(3, 0, 1).is_nilpotent()
    assert not ExactMatrix.identity(3).is_nilpotent()
    assert (_E(3, 0, 1) + _E(3, 1, 2)).is_nilpotent()


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


# ---------------------------------------------------------------------------
# subspaces
# ---------------------------------------------------------------------------


def test_echelonize_dependent_spans():
    n = 2
    s = echelonize([_E(n, 0, 1), _E(n, 0, 1).scale(2)])
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
    s = echelonize([a, b])
    assert s.dim == 2
    assert s.contains_mat(_E(n, 0, 1))
    assert s.contains_mat(_E(n, 2, 3))
    assert s == echelonize([_E(n, 0, 1), _E(n, 2, 3)])


def test_canonical_form_is_basis_independent():
    n = 3
    a = _E(n, 0, 1).scale(QI(0, 2)) + _E(n, 1, 2)
    b = _E(n, 0, 1) + _E(n, 0, 2)
    s1 = echelonize([a, b])
    s2 = echelonize([b.scale(QI(3, 1)), a + b.scale(5), a])
    assert s1 == s2
    assert hash(s1) == hash(s2)


def test_sum_and_intersection_dims():
    n = 3
    a = echelonize([_E(n, 0, 1), _E(n, 0, 2)])
    b = echelonize([_E(n, 0, 2), _E(n, 1, 2)])
    u = subspace_sum(a, b)
    w = subspace_intersect(a, b)
    assert u.dim == 3
    assert w.dim == 1
    assert w.contains_mat(_E(n, 0, 2))


def test_intersection_nontrivial_combination():
    n = 2
    a = echelonize([_E(n, 0, 0) + _E(n, 1, 1), _E(n, 0, 1)])
    b = echelonize([_E(n, 0, 0) + _E(n, 1, 1) + _E(n, 0, 1), _E(n, 1, 0)])
    w = subspace_intersect(a, b)
    assert w.dim == 1
    assert w.contains_mat(_E(n, 0, 0) + _E(n, 1, 1) + _E(n, 0, 1))


def test_contains_rejects_outside():
    n = 2
    a = echelonize([_E(n, 0, 1)])
    assert contains(a, _E(n, 0, 1).scale(QI(Fraction(2, 3), 5)))
    assert not contains(a, _E(n, 1, 0))
    assert not contains(a, _E(n, 0, 1) + _E(n, 1, 0))


def test_coordinates_roundtrip():
    n = 3
    basis_mats = [_E(n, 0, 1) + _E(n, 1, 2), _E(n, 0, 2)]
    s = echelonize(basis_mats)
    target = basis_mats[0].scale(QI(2, 1)) + basis_mats[1].scale(QI(0, -3))
    coeffs = s.coordinates_of(target)
    rebuilt = ExactMatrix.zeros(n)
    for c, m in zip(coeffs, s.basis()):
        rebuilt = rebuilt + m.scale(c)
    assert rebuilt == target
    with pytest.raises(ValueError):
        s.coordinates_of(_E(n, 1, 0))


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
        subspace_sum(a, b).dim + subspace_intersect(a, b).dim
        == a.dim + b.dim
    )


@settings(max_examples=50, deadline=None)
@given(_subspace_triples())
def test_sum_contains_both_and_intersection_in_both(pair):
    a, b = pair
    u = subspace_sum(a, b)
    w = subspace_intersect(a, b)
    assert u.contains_space(a) and u.contains_space(b)
    assert a.contains_space(w) and b.contains_space(w)


def test_bracket_space_oracle():
    n = 2
    sl2 = echelonize([_E(n, 0, 1), _E(n, 1, 0), ExactMatrix.diagonal([1, -1])])
    derived = bracket_space(sl2, sl2)
    assert derived == sl2
    cartan = echelonize([ExactMatrix.diagonal([1, -1])])
    assert bracket_space(cartan, cartan).dim == 0
    borel = echelonize([ExactMatrix.diagonal([1, -1]), _E(n, 0, 1)])
    assert bracket_space(borel, borel) == echelonize([_E(n, 0, 1)])


def test_real_subspace_doubling():
    n = 2
    # real span of a single matrix: not i-stable
    m = _E(n, 0, 1)
    s = Subspace.span([m], n, real=True)
    assert s.dim == 1
    assert s.contains_mat(m.scale(Fraction(5, 7)))
    assert not s.contains_mat(m.scale(QI(0, 1)))
    assert s.complexify_if_stable() is None
    # complex line realified has real dimension 2
    line = echelonize([m])
    doubled = line.realify()
    assert doubled.dim == 2
    assert doubled.contains_mat(m.scale(QI(1, 1)))
    back = doubled.complexify_if_stable()
    assert back == line


def test_real_intersection_of_complex_spaces():
    n = 2
    a = Subspace.span([_E(n, 0, 1), _E(n, 1, 0)], n, real=True)
    b = Subspace.span(
        [_E(n, 0, 1) + _E(n, 1, 0), _E(n, 0, 1).scale(QI(0, 1))], n, real=True
    )
    w = subspace_intersect(a, b)
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
    x = ExactMatrix([[QI(1, 1), QI(2)], [QI(0, -1), QI(3, 2)]])
    p = charpoly(x)
    acc = ExactMatrix.zeros(2)
    for c in p:
        acc = acc @ x + ExactMatrix.identity(2).scale(c)
    assert acc.is_zero


def test_squarefree_part():
    # (t-2)^2 -> t-2
    p = [QI(1), QI(-4), QI(4)]
    assert squarefree_part(p) == [QI(1), QI(-2)]
    # already squarefree
    q = [QI(1), QI(-3), QI(2)]
    assert squarefree_part(q) == q


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
    for d, nil in (
        (ExactMatrix.diagonal([lam, lam, lam, QI(-3)]), nil3),
        (ExactMatrix.diagonal([lam] * 4), nil3 + _E(4, 2, 3)),
    ):
        assert semisimple_part(p @ (d + nil) @ pinv) == p @ d @ pinv


def test_semisimple_part_gaussian_eigenvalues():
    rot = ExactMatrix([[0, -1], [1, 0]])  # eigenvalues +-i
    assert semisimple_part(rot) == rot
    mixed = ExactMatrix([[QI(0, 1), QI(1)], [QI(0), QI(0, 1)]])
    s = semisimple_part(mixed)
    assert s == ExactMatrix.diagonal([QI(0, 1), QI(0, 1)])
