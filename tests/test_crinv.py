"""Tests for CR type, fiber factors, Levi signatures, and cohomology windows."""

from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest

from crmostow import catalog, crinv
from crmostow.ambient import block_special_linear, special_linear
from crmostow.crinv import (
    cohomology_ranges,
    cr_type,
    fiber_data,
    levi_report,
)
from crmostow.exact import QI, ExactMatrix, bracket, trace_annihilator
from crmostow.parabolic import is_parabolic
from crmostow.structure import make_subalgebra


def _E(n, i, j, c=1):
    rows = [[QI(0)] * n for _ in range(n)]
    rows[i][j] = QI(c)
    return ExactMatrix(rows)


def _diag(*vals):
    n = len(vals)
    rows = [[QI(0)] * n for _ in range(n)]
    for i, v in enumerate(vals):
        rows[i][i] = QI(v)
    return ExactMatrix(rows)


@pytest.fixture(scope="module")
def pair22():
    amb = block_special_linear([2, 2])
    return make_subalgebra(amb, [_diag(1, -1, 1, -1), _E(4, 0, 1) + _E(4, 2, 3)])


@pytest.fixture(scope="module")
def flag13():
    amb = block_special_linear([2, 3])
    return make_subalgebra(
        amb,
        [
            _diag(1, 0, 1, -2, 0),
            _diag(0, 1, 0, -2, 1),
            _E(5, 0, 1) + _E(5, 2, 4),
            _E(5, 3, 4),
        ],
    )


@pytest.fixture(scope="module")
def flag12():
    amb = block_special_linear([2, 3])
    return make_subalgebra(
        amb,
        [
            _diag(1, 0, 1, 0, -2),
            _diag(0, 1, 0, 1, -2),
            _E(5, 0, 1) + _E(5, 2, 3),
            _E(5, 2, 4),
            _E(5, 3, 4),
        ],
    )


@pytest.fixture(scope="module")
def grass1231():
    amb = special_linear(4)
    return make_subalgebra(
        amb,
        [
            _diag(1, 0, 0, -1),
            _diag(0, 1, 0, -1),
            _diag(0, 0, 1, -1),
            _E(4, 1, 2),
            _E(4, 2, 1),
            _E(4, 0, 3),
            _E(4, 1, 3),
            _E(4, 2, 3),
        ],
    )


# ---------------------------------------------------------------------------
# CR type
# ---------------------------------------------------------------------------


def test_cr_type_pair22(pair22):
    t = cr_type(pair22)
    assert (t.cr_dim, t.cr_codim, t.complex_orbit_dim) == (1, 4, 5)


def test_cr_type_flag13(flag13):
    t = cr_type(flag13)
    assert (t.cr_dim, t.cr_codim, t.complex_orbit_dim) == (2, 6, 8)


def test_cr_type_flag12(flag12):
    t = cr_type(flag12)
    assert (t.cr_dim, t.cr_codim, t.complex_orbit_dim) == (3, 4, 7)


def test_cr_type_grassmann(grass1231):
    t = cr_type(grass1231)
    assert (t.cr_dim, t.cr_codim, t.complex_orbit_dim) == (3, 4, 7)


def test_cr_type_genericity(pair22, flag13, flag12, grass1231):
    for v in (pair22, flag13, flag12, grass1231):
        t = cr_type(v)
        assert t.cr_dim + t.cr_codim == t.complex_orbit_dim


def test_cr_type_rejects_non_reductive():
    amb = special_linear(3)
    # twisted symmetric pattern with a non-proportional conjugate: the
    # conjugation-stable part does not complement the nilpotent part
    s = [QI(1), QI(1), QI(0, 2)]
    gens = []
    for i in range(3):
        for j in range(i + 1, 3):
            gens.append(_E(3, i, j) - _E(3, j, i).scale(s[i] / s[j]))
    v = make_subalgebra(amb, gens)
    assert not v.n_reductive_verdict.ok
    with pytest.raises(ValueError, match="not n-reductive"):
        cr_type(v)


# ---------------------------------------------------------------------------
# fiber data
# ---------------------------------------------------------------------------


def test_fiber_pair22(pair22):
    fd = fiber_data(pair22)
    assert fd.hermitian_part.dim == 4
    assert fd.nilpotent_complement.dim == 0
    assert fd.envelope.dim == pair22.ambient.dim
    # the Hermitian factor consists of pairs (X, -X) with X Hermitian
    for m in (
        _diag(1, -1, -1, 1),
        _E(4, 0, 1) + _E(4, 1, 0) - _E(4, 2, 3) - _E(4, 3, 2),
        (_E(4, 0, 1) - _E(4, 1, 0) - _E(4, 2, 3) + _E(4, 3, 2)).scale(QI(0, 1)),
        _diag(1, 1, -1, -1),
    ):
        assert fd.hermitian_part.contains_mat(m)


def test_fiber_flag13(flag13):
    fd = fiber_data(flag13)
    assert fd.hermitian_part.dim == 2
    assert fd.nilpotent_complement.dim == 2
    t = cr_type(flag13)
    assert fd.hermitian_part.dim + 2 * fd.nilpotent_complement.dim == t.cr_codim


def test_fiber_flag12(flag12):
    fd = fiber_data(flag12)
    assert fd.hermitian_part.dim == 4
    assert fd.nilpotent_complement.dim == 0
    for m in (
        _diag(1, 0, -1, 0, 0),
        _diag(0, 1, 0, -1, 0),
        _E(5, 0, 1) + _E(5, 1, 0) - _E(5, 2, 3) - _E(5, 3, 2),
        (_E(5, 0, 1) - _E(5, 1, 0) - _E(5, 2, 3) + _E(5, 3, 2)).scale(QI(0, 1)),
    ):
        assert fd.hermitian_part.contains_mat(m)


def test_fiber_grassmann(grass1231):
    fd = fiber_data(grass1231)
    assert fd.hermitian_part.dim == 4
    assert fd.nilpotent_complement.dim == 0


def test_fiber_orthogonal_to_conjugate_pair(pair22, flag13):
    # the Hermitian factor is trace-orthogonal to the subalgebra and, by
    # conjugation symmetry, to its conjugate as well
    for v in (pair22, flag13):
        fd = fiber_data(v)
        conj = v.ambient.conj_space(v.space)
        for p in fd.hermitian_part.basis():
            for u in list(v.space.basis()) + list(conj.basis()):
                val = (p @ u).trace()
                assert val.re == 0


def test_fiber_rejects_bad_envelope(pair22):
    amb = pair22.ambient
    borel = make_subalgebra(
        amb,
        [_diag(1, -1, 0, 0), _diag(0, 0, 1, -1), _diag(1, 1, -1, -1),
         _E(4, 0, 1), _E(4, 2, 3)],
    )
    ok, p = is_parabolic(borel)
    assert ok
    with pytest.raises(ValueError, match="q not in P0"):
        fiber_data(pair22, p)


def test_fiber_trivial_for_split_parabolic():
    # a parabolic input sums with its conjugate to the whole algebra, so the
    # only admissible envelope of the largest intermediate is the ambient
    amb = special_linear(2)
    borel = make_subalgebra(amb, [_diag(1, -1), _E(2, 0, 1)])
    fd = fiber_data(borel)
    assert fd.envelope.dim == amb.dim
    assert fd.hermitian_part.dim == 0
    assert fd.nilpotent_complement.dim == 0


# ---------------------------------------------------------------------------
# scalar Levi forms
# ---------------------------------------------------------------------------


def test_levi_pair22_flat(pair22):
    rep = levi_report(pair22)
    assert rep.witt_lower_bound == 0
    assert all(p == 0 and n == 0 for _, p, n in rep.sampled_signatures)
    # the single bracket value lies inside the subalgebra plus conjugate,
    # so its projected vector form vanishes
    assert len(rep.vector_form) == 1
    assert rep.vector_form[0][0].is_zero


def test_levi_grassmann(grass1231):
    rep = levi_report(grass1231)
    assert rep.witt_lower_bound == 1
    assert len(rep.covector_basis) == 4
    nonzero = [(p, n) for _, p, n in rep.sampled_signatures if (p, n) != (0, 0)]
    assert nonzero
    assert all(min(p, n) == 1 for p, n in nonzero)


def test_levi_signature_scaling(grass1231):
    rep = levi_report(grass1231)
    sigs = {coords: (p, n) for coords, p, n in rep.sampled_signatures}
    for coords, (p, n) in list(sigs.items()):
        doubled = tuple(2 * c for c in coords)
        flipped = tuple(-c for c in coords)
        if doubled in sigs:
            assert sigs[doubled] == (p, n)
        if flipped in sigs:
            assert sigs[flipped] == (n, p)


def test_levi_empty_characteristic_space():
    amb = special_linear(2)
    borel = make_subalgebra(amb, [_diag(1, -1), _E(2, 0, 1)])
    with pytest.raises(ValueError, match="empty characteristic space"):
        levi_report(borel)


def test_levi_deterministic(flag13, monkeypatch):
    a = levi_report(flag13, seed=7)
    evaluated = []
    inertia = crinv.hermitian_inertia

    def counted(h):
        evaluated.append(h)
        return inertia(h)

    monkeypatch.setattr(crinv, "hermitian_inertia", counted)
    b = levi_report(flag13, seed=7)
    assert a.sampled_signatures == b.sampled_signatures
    assert a.witt_lower_bound == b.witt_lower_bound
    # refinement revisits sampled points; each point is evaluated once
    distinct = {coords for coords, _, _ in b.sampled_signatures}
    assert len(evaluated) == len(distinct) < len(b.sampled_signatures)


def _levi_projection_setup(name):
    entry = catalog.build(name, catalog.REFERENCE_PARAMS.get(name))
    v, amb = entry.subalgebra, entry.ambient
    pair = v.space.sum(amb.conj_space(v.space))
    comp = trace_annihilator(amb.space.basis(), pair.basis(), amb.n)
    return v, amb, pair, comp


# every catalog entry with a scalar Levi form (so_n_symmetric is not n-reductive)
LEVI_ENTRIES = [name for name in catalog.entry_names() if name != "so_n_symmetric"]


@pytest.mark.parametrize("name", LEVI_ENTRIES)
def test_levi_projection_splits_along_pair(name):
    v, amb, pair, comp = _levi_projection_setup(name)
    zb = v.nr.basis()
    values = [bracket(za, amb.sigma(zc)) for za in zb for zc in zb]
    projected = crinv._trace_projection(amb, pair, comp, values)
    forms = [form for row in levi_report(v).vector_form for form in row]
    assert len(projected) == len(forms) == len(values)
    for t, p, form in zip(values, projected, forms):
        assert p == form
        assert comp.contains_mat(p)
        assert pair.contains_mat(t - p)


def test_levi_projection_certificate_raises():
    _, amb, pair, comp = _levi_projection_setup("su23_f13")
    assert comp.dim >= 2
    w = comp.basis()
    dependent = SimpleNamespace(dim=comp.dim, basis=lambda: [w[0]] * comp.dim)
    with pytest.raises(ArithmeticError):
        crinv._trace_projection(amb, pair, dependent, [])
    short = SimpleNamespace(dim=comp.dim - 1, basis=lambda: w[1:])
    with pytest.raises(ArithmeticError):
        crinv._trace_projection(amb, pair, short, [])


def _check_signature_against_numpy(h_np, q=1):
    h = ExactMatrix(
        [[QI(int(v.real), int(v.imag)) for v in row] for row in h_np]
    ).scale(QI(Fraction(1, q)))
    pos, neg = crinv.hermitian_inertia(h)
    eig = np.linalg.eigvalsh(h_np.astype(complex) / q)
    assert pos == int((eig > 1e-9).sum())
    assert neg == int((eig < -1e-9).sum())


def test_hermitian_signature_against_numpy():
    rng = np.random.default_rng(20260816)
    for trial in range(25):
        m = int(rng.integers(1, 6))
        a = rng.integers(-3, 4, size=(m, m))
        b = rng.integers(-3, 4, size=(m, m))
        z = a + 1j * b
        _check_signature_against_numpy(z + z.conj().T)
    # rank-deficient z diag(d) z* (some d = 0): zero eigenvalues, i.e.
    # trailing zero coefficients of the characteristic polynomial
    for trial in range(25):
        m = int(rng.integers(1, 6))
        z = rng.integers(-3, 4, size=(m, m)) + 1j * rng.integers(-3, 4, size=(m, m))
        d = rng.integers(-2, 3, size=m)
        d[int(rng.integers(0, m))] = 0
        _check_signature_against_numpy(z @ np.diag(d) @ z.conj().T)
    # scaled by 1/q (q prime to the entries): a denominator > 1
    for trial in range(10):
        m = int(rng.integers(1, 6))
        z = rng.integers(-3, 4, size=(m, m)) + 1j * rng.integers(-3, 4, size=(m, m))
        _check_signature_against_numpy(z + z.conj().T, q=(7, 11, 13)[trial % 3])


def test_hermitian_signature_hyperbolic_block():
    h = [[QI(0), QI(2, 1)], [QI(2, -1), QI(0)]]
    assert crinv.hermitian_inertia(ExactMatrix(h)) == (1, 1)
    assert crinv.hermitian_inertia(ExactMatrix([[QI(0)]])) == (0, 0)
    assert crinv.hermitian_inertia(ExactMatrix([])) == (0, 0)


# ---------------------------------------------------------------------------
# cohomology windows
# ---------------------------------------------------------------------------


def test_cohomology_ranges_examples():
    w = cohomology_ranges(1, 3, 0)
    assert list(w.finite_low) == [0]
    assert list(w.finite_high) == [3]
    w = cohomology_ranges(0, 1, 0)
    assert list(w.finite_low) == []
    assert list(w.finite_high) == []
    w = cohomology_ranges(2, 5, 1)
    assert list(w.finite_low) == [0]
    assert list(w.finite_high) == [4, 5]


def test_cohomology_ranges_rejects_excess_concavity():
    with pytest.raises(ValueError, match="concavity exceeds CR dimension"):
        cohomology_ranges(4, 3)

