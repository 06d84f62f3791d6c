"""Tests for the symmetric-space numerics: distances, Jacobi fields, the
two-stage group decomposition, the exhaustion function, and the associated
inequalities and probes."""

import dataclasses
import functools
import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
import scipy.linalg
import scipy.optimize

from crmostow import catalog, symspace
from crmostow.ambient import block_special_linear
from crmostow.errors import NonConvergenceError, RestartDisagreementError
from crmostow.exact import QI, ExactMatrix, Subspace
from crmostow.parabolic import horocyclic_verdict
from crmostow.structure import make_subalgebra
from test_metamorphic import _cayley_transform
from crmostow.symspace import (
    CounterexampleReport,
    JacobiFieldSpec,
    MostowDecomposition,
    SpdPoint,
    _ChartFactor,
    _check_restart_agreement,
    _decomposition_chart,
    _group_chart,
    _nilpotency_index,
    _orbit_objective,
    _stage_b_residual,
    commuting_split,
    counterexample_search,
    dist,
    exhaustion_phi,
    geodesic_variation_spec,
    jacobi_energy,
    jacobi_eval,
    jacobi_norm_sq,
    minor_log_inequality,
    mostow_decompose,
    mostow_structure,
    phi_levi_probe,
    polar_decompose,
    random_compact_element,
    random_group_element,
)


def _random_traceless(n, rng):
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return z - np.trace(z) / n * np.eye(n)


def _random_traceless_hermitian(n, rng):
    x = _random_traceless(n, rng)
    x = 0.5 * (x + x.conj().T)
    return x - np.trace(x) / n * np.eye(n)


def _random_spec(n, rng, distinct_eigenvalues=False):
    """A random valid Jacobi-field specification."""
    if distinct_eigenvalues:
        d = np.sort(rng.standard_normal(n))
        h = np.diag(d - d.mean()).astype(complex)
    else:
        h = _random_traceless_hermitian(n, rng)
    z = _random_traceless(n, rng)
    evals, u = np.linalg.eigh(h)
    t = (u * rng.standard_normal(n)) @ u.conj().T
    t = 0.5 * (t + t.conj().T)
    return JacobiFieldSpec(h, z, t)


def _random_spd_det_one(n, rng):
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    p = a @ a.conj().T + 0.1 * np.eye(n)
    p = p / np.linalg.det(p).real ** (1.0 / n)
    return 0.5 * (p + p.conj().T)


def _synthesize(structure, rng, scale=0.4, with_compact=True, with_complement=False):
    """Build zeta = u·exp(X0)·exp(Z0)·v0 from random chart coordinates,
    returning (zeta, X0)."""
    n = structure.size
    u0 = (
        random_compact_element(structure, rng, scale=scale)
        if with_compact
        else np.eye(n, dtype=complex)
    )
    x0 = np.zeros((n, n), dtype=complex)
    for c, m in zip(scale * rng.standard_normal(structure.fiber_dim), structure.fiber_basis):
        x0 = x0 + c * m
    z0 = np.zeros((n, n), dtype=complex)
    if with_complement and structure.complement_dim:
        for (a, b), m in zip(
            scale * rng.standard_normal((structure.complement_dim, 2)),
            structure.complement_basis,
        ):
            z0 = z0 + complex(a, b) * m
    nmat = np.zeros((n, n), dtype=complex)
    for (a, b), m in zip(
        scale * rng.standard_normal((len(structure.nil_basis), 2)),
        structure.nil_basis,
    ):
        nmat = nmat + complex(a, b) * m
    pmat = np.zeros((n, n), dtype=complex)
    for c, m in zip(
        scale * rng.standard_normal(len(structure.herm_basis)), structure.herm_basis
    ):
        pmat = pmat + c * m
    v0 = scipy.linalg.expm(nmat) @ scipy.linalg.expm(pmat)
    zeta = u0 @ scipy.linalg.expm(x0) @ scipy.linalg.expm(z0) @ v0
    return zeta, x0


@pytest.fixture(scope="module")
def su22_structure():
    return mostow_structure(catalog.build("su22_f12").subalgebra)


@pytest.fixture(scope="module")
def su22_optimizer(su22_structure):
    """``su22_f12`` without its closed-form data, so that the optimizers
    serve it."""
    return dataclasses.replace(su22_structure, levi_frame=None)


@pytest.fixture(scope="module")
def grassmann_structure():
    entry = catalog.build("grassmann_pair", {"p": 1, "q": 2, "n": 3, "k": 1})
    return mostow_structure(entry.subalgebra)


@pytest.fixture(scope="module")
def f13_structure():
    return mostow_structure(catalog.build("su23_f13").subalgebra)


# The two strictly horocyclic catalog structures that the closed form serves.
CLOSED_FORM_SPECS = [
    ("upper_triangular_horocycle", None),
    ("grassmann_pair", {"p": 1, "q": 2, "n": 3, "k": 1}),
]
# The two horocyclic catalog structures that are not strictly horocyclic,
# whose group factor couples two Levi blocks; the closed form serves them too.
LEVI_COUPLED_SPECS = [("su22_f12", None), ("su23_f12", None)]


@functools.cache
def _cached_structure(name, params):
    return mostow_structure(catalog.build(name, dict(params) if params else None).subalgebra)


def _catalog_structure(name, params=None):
    return _cached_structure(name, tuple(params.items()) if params else None)


def _record_results(monkeypatch, name):
    """Patch ``scipy.optimize.<name>`` to record every result it returns;
    returns the list it appends to."""
    results = []
    solver = getattr(scipy.optimize, name)

    def recorded(*args, **kwargs):
        result = solver(*args, **kwargs)
        results.append(result)
        return result

    monkeypatch.setattr(scipy.optimize, name, recorded)
    return results


def _zero_set_point(st, rng, scale=0.5):
    """``u·exp(N)·exp(P)`` with ``u`` compact and ``exp(N)·exp(P)`` in the
    group factor: a point where φ vanishes."""
    u0 = random_compact_element(st, rng, scale)
    nmat = sum(
        complex(a, b) * m
        for (a, b), m in zip(scale * rng.standard_normal((len(st.nil_basis), 2)), st.nil_basis)
    )
    pmat = sum(
        c * m for c, m in zip(scale * rng.standard_normal(len(st.herm_basis)), st.herm_basis)
    )
    return u0 @ scipy.linalg.expm(nmat) @ scipy.linalg.expm(pmat)


def _forbid_solvers(monkeypatch):
    """Make every SciPy optimizer and ``expm`` raise when called."""

    def forbidden(*args, **kwargs):
        raise AssertionError("the closed form called a SciPy solver")

    monkeypatch.setattr(scipy.optimize, "minimize", forbidden)
    monkeypatch.setattr(scipy.optimize, "least_squares", forbidden)
    monkeypatch.setattr(scipy.linalg, "expm", forbidden)


class TestDistance:
    def test_identity_distance_zero(self):
        assert dist(np.eye(3), np.eye(3)) == 0.0

    def test_two_by_two_exponential_point(self):
        p = np.diag([math.e**2, math.e**-2]).astype(complex)
        assert abs(dist(np.eye(2), p) - math.sqrt(8.0)) < 1e-12

    def test_congruence_invariance(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            n = int(rng.integers(2, 5))
            p = _random_spd_det_one(n, rng)
            q = _random_spd_det_one(n, rng)
            z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            z = z / np.linalg.det(z) ** (1.0 / n)
            moved = dist(z.conj().T @ p @ z, z.conj().T @ q @ z)
            assert abs(moved - dist(p, q)) < 1e-8 * max(1.0, dist(p, q))

    def test_rejects_non_hermitian(self):
        bad = np.array([[1.0, 1.0], [0.0, 1.0]], dtype=complex)
        with pytest.raises(ValueError, match="not positive definite"):
            dist(bad, np.eye(2))

    def test_rejects_indefinite(self):
        with pytest.raises(ValueError, match="not positive definite"):
            dist(np.diag([1.0, -1.0]).astype(complex), np.eye(2))

    def test_point_validation(self):
        SpdPoint(np.diag([2.0, 0.5]).astype(complex))
        with pytest.raises(ValueError, match="determinant not one"):
            SpdPoint(np.diag([2.0, 1.0]).astype(complex))
        with pytest.raises(ValueError, match="not positive definite"):
            SpdPoint(np.diag([1.0, -1.0]).astype(complex))

    def test_points_accepted_by_dist(self):
        p = SpdPoint(np.diag([4.0, 0.25]).astype(complex))
        assert dist(p, SpdPoint.identity(2)) > 0


class TestPolarDecompose:
    def test_unitary_input(self):
        rng = np.random.default_rng(3)
        a = _random_traceless(3, rng)
        u0 = scipy.linalg.expm(a - a.conj().T)
        u, x = polar_decompose(u0, det_one=False)
        assert np.linalg.norm(x) < 1e-10
        assert np.linalg.norm(u - u0) < 1e-9

    def test_positive_input(self):
        rng = np.random.default_rng(4)
        x0 = _random_traceless_hermitian(3, rng)
        u, x = polar_decompose(scipy.linalg.expm(x0))
        assert np.linalg.norm(u - np.eye(3)) < 1e-9
        assert np.linalg.norm(x - x0) < 1e-9

    def test_random_special_linear_reconstruction(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            z = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
            z = z / np.linalg.det(z) ** (1.0 / 3.0)
            u, x = polar_decompose(z)
            recon = u @ scipy.linalg.expm(x)
            assert np.linalg.norm(z - recon) < 1e-10 * max(1.0, np.linalg.norm(z))
            assert abs(np.trace(x)) < 1e-10

    def test_singular_input(self):
        with pytest.raises(ValueError, match="singular input"):
            polar_decompose(np.diag([1.0, 0.0]).astype(complex))

    @pytest.mark.parametrize(
        "z, det", [(2.0 * np.eye(2), "4"), (np.diag([1.0, 2.0]), "2")], ids=["2I", "diag-1-2"]
    )
    def test_det_one_needs_unit_determinant(self, z, det):
        # an input error, reported before factoring, not a failed reconstruction
        with pytest.raises(ValueError, match=rf"\|det z\| = {det}$"):
            polar_decompose(z.astype(complex))
        u, x = polar_decompose(z.astype(complex), det_one=False)
        assert np.linalg.norm(z - u @ scipy.linalg.expm(x)) < 1e-12

    def test_reconstruction_check_raises(self, monkeypatch):
        # the check is an explicit raise, so it also runs under python -O
        monkeypatch.setattr(scipy.linalg, "expm", lambda x: 2.0 * np.eye(len(x)))
        with pytest.raises(ArithmeticError, match="polar reconstruction failed"):
            polar_decompose(np.diag([2.0, 0.5]).astype(complex))


class TestJacobiEval:
    def test_zero_spec_gives_zero_field(self):
        spec = JacobiFieldSpec(
            np.diag([1.0, -1.0]).astype(complex), np.zeros((2, 2)), np.zeros((2, 2))
        )
        j, jd = jacobi_eval(spec, 0.7)
        assert np.linalg.norm(j) == 0.0
        assert np.linalg.norm(jd) == 0.0

    def test_initial_value_and_derivative(self):
        # J(0) = Z + Z* and J'(0) = [H, Z - Z*]/2 + 2T for every specification
        rng = np.random.default_rng(24)
        for trial in range(10):
            spec = _random_spec(3 + trial % 2, rng, distinct_eigenvalues=bool(trial % 2))
            z, h, t = spec.Z, spec.H, spec.T
            j0, jd0 = jacobi_eval(spec, 0.0)
            d = z - z.conj().T
            expected_jd = 0.5 * (h @ d - d @ h) + 2.0 * t
            for got, expected in ((j0, z + z.conj().T), (jd0, expected_jd)):
                atol = 1e-9 * max(1.0, np.linalg.norm(expected))
                assert np.allclose(got, expected, atol=atol)

    def test_kernel_directions_vanish(self):
        # anti-Hermitian Z commuting with H spans the kernel of W -> theta_W
        h = np.diag([1.0, 1.0, -2.0]).astype(complex)
        z = np.zeros((3, 3), dtype=complex)
        z[0, 1], z[1, 0] = 1.0 + 2.0j, -1.0 + 2.0j  # block-diag anti-Hermitian
        spec = JacobiFieldSpec(h, z, np.zeros((3, 3)))
        for t in (0.0, 0.3, 1.0, -1.4):
            j, _ = jacobi_eval(spec, t)
            assert np.linalg.norm(j) < 1e-12

    def test_derivative_matches_transported_difference(self):
        rng = np.random.default_rng(6)
        spec = _random_spec(4, rng)
        s = 1e-5
        for t in (0.0, 0.6, -0.9):
            _, jd = jacobi_eval(spec, t)

            def transported(ds):
                jp, _ = jacobi_eval(spec, t + ds)
                e = scipy.linalg.expm(-0.5 * ds * spec.H)
                return e @ jp @ e

            fd = (transported(s) - transported(-s)) / (2 * s)
            err = np.linalg.norm(fd - jd) / max(1.0, np.linalg.norm(jd))
            assert err < 1e-6

    def test_spec_validation(self):
        h = np.diag([1.0, -1.0]).astype(complex)
        with pytest.raises(ValueError, match="H not hermitian"):
            JacobiFieldSpec(np.array([[0, 1], [0, 0]], dtype=complex), np.zeros((2, 2)), np.zeros((2, 2)))
        with pytest.raises(ValueError, match="H not traceless"):
            JacobiFieldSpec(np.eye(2, dtype=complex), np.zeros((2, 2)), np.zeros((2, 2)))
        with pytest.raises(ValueError, match="Z not traceless"):
            JacobiFieldSpec(h, np.eye(2, dtype=complex), np.zeros((2, 2)))
        with pytest.raises(ValueError, match="T not hermitian"):
            JacobiFieldSpec(h, np.zeros((2, 2)), np.array([[0, 1], [0, 0]], dtype=complex))
        with pytest.raises(ValueError, match="T does not commute"):
            JacobiFieldSpec(h, np.zeros((2, 2)), np.array([[0, 1], [1, 0]], dtype=complex))


class TestJacobiNormSq:
    def test_pure_commuting_term(self):
        h = np.diag([1.0, 0.0, -1.0]).astype(complex)
        t_mat = np.diag([2.0, -1.0, -1.0]).astype(complex)
        spec = JacobiFieldSpec(h, np.zeros((3, 3)), t_mat)
        expected_tr = float(np.real(np.trace(t_mat @ t_mat)))
        for t in (0.0, 0.5, 1.0, 2.0):
            assert abs(jacobi_norm_sq(spec, t) - 4.0 * t * t * expected_tr) < 1e-10

    def test_value_at_zero(self):
        rng = np.random.default_rng(7)
        spec = _random_spec(3, rng)
        expected = float(np.linalg.norm(spec.Z + spec.Z.conj().T) ** 2)
        assert abs(jacobi_norm_sq(spec, 0.0) - expected) < 1e-9 * max(1.0, expected)

    def test_internal_cross_check_passes_on_random_data(self):
        rng = np.random.default_rng(8)
        for trial in range(20):
            spec = _random_spec(3 + trial % 2, rng, distinct_eigenvalues=bool(trial % 3))
            t = float(rng.uniform(-2.0, 2.0))
            value = jacobi_norm_sq(spec, t)
            assert value >= -1e-12

    def test_norm_growth_from_zero_initial_value(self):
        # a field with J(0)=0 and nonzero derivative grows in norm
        rng = np.random.default_rng(9)
        h = np.diag([0.8, -0.3, -0.5]).astype(complex)
        x = _random_traceless_hermitian(3, rng)
        spec = geodesic_variation_spec(h, x)
        n_half = jacobi_norm_sq(spec, 0.5)
        n_one = jacobi_norm_sq(spec, 1.0)
        assert 0.0 < n_half < n_one


class TestJacobiEnergy:
    def test_parallel_field_has_zero_energy(self):
        h = np.diag([1.0, -0.5, -0.5]).astype(complex)
        t0 = np.diag([1.0, 2.0, -3.0]).astype(complex)
        spec = JacobiFieldSpec(h, t0, np.zeros((3, 3)))
        assert abs(jacobi_energy(spec)) < 1e-9

    def test_linear_commuting_field_energy(self):
        h = np.diag([1.0, -0.5, -0.5]).astype(complex)
        t0 = np.diag([1.0, 2.0, -3.0]).astype(complex)
        spec = JacobiFieldSpec(h, np.zeros((3, 3)), t0)
        expected = 2.0 * float(np.real(np.trace(t0 @ t0)))
        assert abs(jacobi_energy(spec) - expected) < 1e-9 * expected

    def test_nonnegative(self):
        rng = np.random.default_rng(10)
        for _ in range(10):
            spec = _random_spec(3, rng)
            assert jacobi_energy(spec) >= -1e-9

    def test_taylor_remainder_identity(self):
        rng = np.random.default_rng(11)
        for trial in range(20):
            spec = _random_spec(3 + trial % 2, rng)
            n1 = jacobi_norm_sq(spec, 1.0)
            j0, jd0 = jacobi_eval(spec, 0.0)
            n0 = float(np.real(np.trace(j0 @ j0)))
            cross = float(np.real(np.trace(j0 @ jd0)))
            total = n0 + 2.0 * cross + 2.0 * jacobi_energy(spec)
            assert abs(n1 - total) < 1e-7 * max(1.0, abs(n1))

    def test_difference_field_identity(self):
        # For traceless Z, Hermitian traceless X with tr(XZ) = 0, the field
        # D = theta_Z - J_X satisfies
        #   ||D(1)||^2 = ||Z+Z*||^2 + 2 Re tr(H[Z,Z*]) + 2*energy(D).
        rng = np.random.default_rng(12)
        for trial in range(8):
            n = 3 + trial % 2
            d = np.sort(rng.standard_normal(n))
            h = np.diag(d - d.mean()).astype(complex)
            z = _random_traceless(n, rng)
            x = _random_traceless_hermitian(n, rng)
            # remove the component with nonzero complex trace pairing with Z
            basis = [_random_traceless_hermitian(n, rng) for _ in range(12)]
            fixed = None
            for a1, a2 in itertools.combinations(basis, 2):
                m = np.array(
                    [
                        [np.trace(a1 @ z).real, np.trace(a2 @ z).real],
                        [np.trace(a1 @ z).imag, np.trace(a2 @ z).imag],
                    ]
                )
                if abs(np.linalg.det(m)) > 1e-3:
                    rhs = np.array([np.trace(x @ z).real, np.trace(x @ z).imag])
                    c = np.linalg.solve(m, rhs)
                    fixed = x - c[0] * a1 - c[1] * a2
                    break
            assert fixed is not None and abs(np.trace(fixed @ z)) < 1e-9
            y, t0 = commuting_split(h, fixed)
            diff_spec = JacobiFieldSpec(h, z - y, -0.5 * t0)
            lhs = jacobi_norm_sq(diff_spec, 1.0)
            comm = z @ z.conj().T - z.conj().T @ z
            rhs_val = (
                float(np.linalg.norm(z + z.conj().T) ** 2)
                + 2.0 * float(np.real(np.trace(h @ comm)))
                + 2.0 * jacobi_energy(diff_spec)
            )
            assert abs(lhs - rhs_val) < 1e-7 * max(1.0, abs(lhs))


class TestCommutingSplit:
    def test_reconstruction(self):
        rng = np.random.default_rng(13)
        for _ in range(5):
            h = _random_traceless_hermitian(4, rng)
            x = _random_traceless_hermitian(4, rng)
            y, t = commuting_split(h, x)
            recon = h @ y - y @ h + t
            assert np.linalg.norm(recon - x) < 1e-10
            assert np.linalg.norm(y + y.conj().T) < 1e-10  # anti-Hermitian
            assert np.linalg.norm(h @ t - t @ h) < 1e-10

    def test_variation_initial_conditions(self):
        rng = np.random.default_rng(14)
        h = np.diag([0.9, -0.3, -0.6]).astype(complex)
        x = _random_traceless_hermitian(3, rng)
        spec = geodesic_variation_spec(h, x)
        j0, jd0 = jacobi_eval(spec, 0.0)
        assert np.linalg.norm(j0) < 1e-12
        assert np.linalg.norm(jd0 - x) < 1e-12

    def test_exponential_directional_derivative(self):
        # D/ds exp(H + sX) at s=0 equals the variation field at t=1
        rng = np.random.default_rng(15)
        for _ in range(5):
            h = _random_traceless_hermitian(3, rng)
            x = _random_traceless_hermitian(3, rng)
            j1, _ = jacobi_eval(geodesic_variation_spec(h, x), 1.0)
            s = 1e-6
            fd = (scipy.linalg.expm(h + s * x) - scipy.linalg.expm(h - s * x)) / (2 * s)
            assert np.linalg.norm(fd - j1) < 1e-5 * max(1.0, np.linalg.norm(j1))


class TestFieldOrthogonality:
    @pytest.mark.parametrize("blocks", [(1, 2), (2, 1), (2, 2), (1, 3)])
    def test_block_parabolic_orthogonality(self, blocks):
        # For block-upper data: diagonal-block field vs strictly-upper field
        # are metrically orthogonal at every parameter value.
        rng = np.random.default_rng(sum(blocks))
        n = sum(blocks)
        cuts = np.cumsum((0,) + blocks)
        d = rng.standard_normal(len(blocks))
        diag_vals = np.concatenate([np.full(b, v) for b, v in zip(blocks, d)])
        diag_vals = diag_vals - diag_vals.mean()
        h = np.diag(diag_vals).astype(complex)
        z0 = np.zeros((n, n), dtype=complex)
        for a, b in zip(cuts, cuts[1:]):
            z0[a:b, a:b] = rng.standard_normal((b - a, b - a)) + 1j * rng.standard_normal(
                (b - a, b - a)
            )
        z0 -= np.trace(z0) / n * np.eye(n)
        zn = np.zeros((n, n), dtype=complex)
        for (a1, b1), (a2, b2) in itertools.combinations(zip(cuts, cuts[1:]), 2):
            zn[a1:b1, a2:b2] = rng.standard_normal((b1 - a1, b2 - a2)) + 1j * (
                rng.standard_normal((b1 - a1, b2 - a2))
            )
        t_mat = np.diag(rng.standard_normal(n)).astype(complex)
        for t in np.linspace(-2.0, 2.0, 20):
            gamma = scipy.linalg.expm(t * h)
            ginv = scipy.linalg.expm(-t * h)
            j1 = (z0.conj().T @ gamma + gamma @ z0) + t * (
                t_mat.conj().T @ gamma + gamma @ t_mat
            )
            j2 = zn.conj().T @ gamma + gamma @ zn
            ip = float(np.real(np.trace(ginv @ j1 @ ginv @ j2)))
            assert abs(ip) < 1e-9


class TestMostowStructure:
    def test_su22_dimensions(self, su22_structure):
        st = su22_structure
        assert st.size == 4 and st.blocks == (2, 2)
        assert st.fiber_dim == 4 and st.complement_dim == 0
        assert len(st.nil_basis) == 1 and len(st.herm_basis) == 1
        assert st.horocyclic and not st.strict_horocyclic

    def test_f13_dimensions(self, f13_structure):
        st = f13_structure
        assert st.fiber_dim == 2 and st.complement_dim == 2
        assert not st.horocyclic and not st.strict_horocyclic

    def test_grassmann_dimensions(self, grassmann_structure):
        st = grassmann_structure
        assert st.fiber_dim == 4 and st.complement_dim == 0
        assert len(st.nil_basis) == 3
        assert st.horocyclic and st.strict_horocyclic

    def test_random_elements_live_in_the_right_groups(self, su22_structure):
        rng = np.random.default_rng(16)
        u = random_compact_element(su22_structure, rng)
        assert np.linalg.norm(u.conj().T @ u - np.eye(4)) < 1e-10
        g = random_group_element(su22_structure, rng)
        assert abs(np.linalg.det(g) - 1.0) < 1e-8
        # block-diagonal pattern of the ambient group is preserved
        assert np.linalg.norm(g[:2, 2:]) < 1e-12 and np.linalg.norm(g[2:, :2]) < 1e-12


class TestMostowDecompose:
    def test_compact_input_gives_trivial_factors(self, su22_structure, su22_optimizer):
        for st in (su22_structure, su22_optimizer):
            rng = np.random.default_rng(17)
            u0 = random_compact_element(st, rng)
            md = mostow_decompose(u0, st, max_restarts=2)
            assert md.residual < 1e-9
            assert np.linalg.norm(md.X) < 1e-6
            assert np.linalg.norm(md.Z) < 1e-6

    def test_round_trip_recovers_fiber_norm(self, su22_optimizer):
        for seed in (7, 21, 35):
            rng = np.random.default_rng(seed)
            zeta, x0 = _synthesize(su22_optimizer, rng)
            md = mostow_decompose(zeta, su22_optimizer, max_restarts=3)
            assert md.residual < 1e-9
            assert abs(md.fiber_norm - np.linalg.norm(x0)) < 1e-6
            recon = (
                md.u
                @ scipy.linalg.expm(md.X)
                @ scipy.linalg.expm(md.Z)
                @ md.v_matrix
            )
            assert np.linalg.norm(zeta - recon) < 1e-8

    def test_grassmann_random_elements(self, grassmann_structure):
        for seed in (3, 9):
            rng = np.random.default_rng(seed)
            zeta = random_group_element(grassmann_structure, rng, scale=0.3)
            md = mostow_decompose(zeta, grassmann_structure, max_restarts=4)
            assert md.residual < 1e-8
            assert md.restarts_agree

    def test_nontrivial_complement_round_trip(self, f13_structure):
        rng = np.random.default_rng(11)
        zeta, x0 = _synthesize(f13_structure, rng, scale=0.3, with_complement=True)
        md = mostow_decompose(zeta, f13_structure, max_restarts=3)
        assert md.residual < 1e-8
        assert abs(md.fiber_norm - np.linalg.norm(x0)) < 1e-5

    def test_rejects_wrong_shape(self, su22_structure):
        with pytest.raises(ValueError, match="not in the group"):
            mostow_decompose(np.eye(3, dtype=complex), su22_structure)

    def test_rejects_wrong_block_pattern(self, su22_structure):
        bad = np.eye(4, dtype=complex)
        bad[0, 3] = 0.5
        with pytest.raises(ValueError, match="not in the group"):
            mostow_decompose(bad, su22_structure)

    def test_rejects_wrong_determinant(self, su22_structure):
        with pytest.raises(ValueError, match="not in the group"):
            mostow_decompose(2.0 * np.eye(4, dtype=complex), su22_structure)

    @pytest.mark.parametrize("value", [math.nan, math.inf], ids=["nan", "infinity"])
    @pytest.mark.parametrize("name", ["upper_triangular_horocycle", "su22_f12"])
    def test_rejects_non_finite_entries(self, name, value):
        # every comparison with NaN is false, and inf - inf is NaN, so the
        # determinant and block tests alone let such a matrix through; the
        # horocycle takes the closed form, su22_f12 the optimizers
        structure = _catalog_structure(name)
        if name == "su22_f12":
            structure = dataclasses.replace(structure, levi_frame=None)
        n = structure.size
        for zeta in (np.full((n, n), value, dtype=complex), np.eye(n, dtype=complex)):
            zeta[0, 0] = value
            for call in (mostow_decompose, exhaustion_phi):
                with pytest.raises(ValueError, match="not in the group"):
                    call(zeta, structure)

    def test_restart_agreement_gate(self):
        assert _check_restart_agreement([1.0, 1.0 + 1e-9], 1e-6, strict=True)
        assert not _check_restart_agreement([1.0, 1.5], 1e-6, strict=False)
        assert not _check_restart_agreement([], 1e-6, strict=True)
        with pytest.raises(RestartDisagreementError, match="restart disagreement"):
            _check_restart_agreement([1.0, 1.5], 1e-6, strict=True)


class TestExhaustion:
    def test_zero_on_base_orbit(self, su22_structure, su22_optimizer):
        for st in (su22_structure, su22_optimizer):
            rng = np.random.default_rng(18)
            for _ in range(3):
                zeta, _ = _synthesize(st, rng, scale=0.5)
                # rebuild without the Hermitian fiber factor: u0 * v0 only
                point = _zero_set_point(st, rng)
                assert exhaustion_phi(point, st) < 1e-8

    @pytest.mark.parametrize("name", ["su22_f12", "su23_f12"])
    def test_zero_set_runs_one_start(self, name, monkeypatch):
        # the objective is non-negative, so a start ending at f <= 1e-14
        # leaves the other starts less than 2.5e-15 to gain in phi
        st = dataclasses.replace(_catalog_structure(name), levi_frame=None)
        rng = np.random.default_rng(23)
        for _ in range(3):
            point = _zero_set_point(st, rng)
            results = _record_results(monkeypatch, "minimize")
            phi = exhaustion_phi(point, st, restarts=4)
            assert len(results) == 1
            assert phi <= 2.5e-15
            assert phi == exhaustion_phi(point, st, restarts=1)

    @pytest.mark.parametrize("name", ["su22_f12", "su23_f12"])
    def test_tangency_runs_every_start(self, name, monkeypatch):
        st = dataclasses.replace(_catalog_structure(name), levi_frame=None)
        rng = np.random.default_rng(24)
        for _ in range(2):
            x = sum(c * m for c, m in zip(0.4 * rng.standard_normal(st.fiber_dim), st.fiber_basis))
            point = scipy.linalg.expm(x) @ random_compact_element(st, rng)
            results = _record_results(monkeypatch, "minimize")
            phi = exhaustion_phi(point, st, restarts=4)
            assert len(results) == 4
            assert 1e-6 < phi <= np.linalg.norm(x) ** 2 + 1e-8

    def test_fiber_exponentials_attain_their_norm(self, su22_structure, su22_optimizer):
        for st in (su22_structure, su22_optimizer):
            rng = np.random.default_rng(19)
            for _ in range(3):
                coeffs = 0.4 * rng.standard_normal(st.fiber_dim)
                x = sum(c * m for c, m in zip(coeffs, st.fiber_basis))
                phi = exhaustion_phi(scipy.linalg.expm(x), st)
                assert abs(phi - np.linalg.norm(x) ** 2) < 1e-7 * max(
                    1.0, np.linalg.norm(x) ** 2
                )

    def test_left_compact_invariance(self, su22_structure, su22_optimizer):
        for st in (su22_structure, su22_optimizer):
            rng = np.random.default_rng(20)
            zeta, _ = _synthesize(st, rng)
            base = exhaustion_phi(zeta, st)
            for _ in range(10):
                u = random_compact_element(st, rng)
                moved = exhaustion_phi(u @ zeta, st)
                assert abs(moved - base) < 1e-7 * max(1.0, base)

    def test_translated_orbit_stays_below_fiber_level(self, grassmann_structure):
        rng = np.random.default_rng(21)
        st = grassmann_structure
        for _ in range(5):
            coeffs = 0.4 * rng.standard_normal(st.fiber_dim)
            x = sum(c * m for c, m in zip(coeffs, st.fiber_basis))
            u = random_compact_element(st, rng)
            phi = exhaustion_phi(scipy.linalg.expm(x) @ u, st)
            assert phi <= np.linalg.norm(x) ** 2 + 1e-8

    def test_cross_check_against_decomposition(self, su22_optimizer):
        rng = np.random.default_rng(22)
        zeta, x0 = _synthesize(su22_optimizer, rng)
        phi = exhaustion_phi(zeta, su22_optimizer, cross_check=True)
        assert abs(phi - np.linalg.norm(x0) ** 2) < 1e-6 * max(
            1.0, np.linalg.norm(x0) ** 2
        )

    def test_rejects_non_group_input(self, su22_structure):
        with pytest.raises(ValueError, match="not in the group"):
            exhaustion_phi(np.eye(5, dtype=complex), su22_structure)


    def test_unconverged_minimization_raises(self, grassmann_structure, monkeypatch):
        # a minimizer that returns its start unchanged leaves a nonzero
        # gradient at the best point, which the stationarity check rejects
        def stalled(fun, x0, **kwargs):
            value, _ = fun(x0)
            return scipy.optimize.OptimizeResult(
                x=np.array(x0), fun=value, success=False, nfev=1, nit=0
            )

        monkeypatch.setattr(scipy.optimize, "minimize", stalled)
        structure = dataclasses.replace(grassmann_structure, levi_frame=None)
        zeta = random_group_element(structure, np.random.default_rng(4), 0.4)
        with pytest.raises(NonConvergenceError, match="non-convergent"):
            exhaustion_phi(zeta, structure)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("spec", CLOSED_FORM_SPECS + LEVI_COUPLED_SPECS, ids=lambda s: s[0])
    def test_closed_form_needs_no_optimizer(self, spec, monkeypatch):
        st = _catalog_structure(*spec)
        zeta, x0 = _synthesize(st, np.random.default_rng(4), scale=0.4)
        directions = [-m.conj().T for m in st.nil_basis] + list(st.nil_basis)
        _forbid_solvers(monkeypatch)
        md = mostow_decompose(zeta, st)
        assert md.residual < 1e-9 and md.restarts_agree
        assert abs(exhaustion_phi(zeta, st) - np.linalg.norm(x0) ** 2) < 1e-12
        probe = phi_levi_probe(zeta, st, directions)
        assert len(probe.values) == len(directions)

    def test_cross_check_compares_with_the_optimizer(self, grassmann_structure, monkeypatch):
        zeta, _ = _synthesize(grassmann_structure, np.random.default_rng(5))
        phi = exhaustion_phi(zeta, grassmann_structure, cross_check=True)
        closed_form_phi = symspace._closed_form_phi
        monkeypatch.setattr(
            symspace, "_closed_form_phi", lambda *args: closed_form_phi(*args) + 1e-3
        )
        assert exhaustion_phi(zeta, grassmann_structure) == phi + 1e-3
        with pytest.raises(ArithmeticError, match="exhaustion cross-check failed"):
            exhaustion_phi(zeta, grassmann_structure, cross_check=True)


DERIVATIVE_STRUCTURES = [
    ("su22_f12", None),
    ("su23_f12", None),
    ("grassmann_pair", {"p": 1, "q": 2, "n": 3, "k": 1}),
    ("upper_triangular_horocycle", None),
]


@pytest.fixture(scope="module", params=DERIVATIVE_STRUCTURES, ids=lambda s: s[0])
def derivative_structure(request):
    name, params = request.param
    return mostow_structure(catalog.build(name, params).subalgebra)


def _central_jacobian(fun, y, step=1e-6):
    """Columns (fun(y + h e_k) - fun(y - h e_k)) / 2h."""
    cols = []
    for k in range(len(y)):
        e = np.zeros_like(y)
        e[k] = step
        cols.append((np.asarray(fun(y + e)) - np.asarray(fun(y - e))) / (2.0 * step))
    return np.stack(cols, axis=-1)


class TestExactDerivatives:
    """The optimizers' analytic gradients and Jacobian against central
    differences at random points."""

    def _point(self, structure, seed):
        rng = np.random.default_rng(seed)
        zeta = random_group_element(structure, rng, scale=0.4)
        return zeta.conj().T @ zeta, rng

    def test_fiber_factor_is_hermitian(self, derivative_structure):
        # exp(X)*·exp(X) = exp(2X), which the charts use, needs X Hermitian
        for m in derivative_structure.fiber_basis:
            assert np.array_equal(m, m.conj().T)

    @pytest.mark.parametrize("chart_of", [_decomposition_chart, _group_chart], ids=["stage_a", "phi"])
    def test_objective_gradients(self, derivative_structure, chart_of):
        a_mat, rng = self._point(derivative_structure, 31)
        chart = chart_of(derivative_structure)
        objective = _orbit_objective(a_mat, chart)
        for _ in range(3):
            y = 0.4 * rng.standard_normal(chart.dim)
            _, grad = objective(y)
            fd = _central_jacobian(lambda t: objective(t)[0], y)
            assert np.linalg.norm(grad - fd) <= 1e-6 * np.linalg.norm(fd)

    def test_stage_b_jacobian(self, derivative_structure):
        a_mat, rng = self._point(derivative_structure, 32)
        chart = _decomposition_chart(derivative_structure)
        residual, jacobian = _stage_b_residual(a_mat, chart)
        for _ in range(3):
            y = 0.4 * rng.standard_normal(chart.dim)
            fd = _central_jacobian(residual, y)
            assert np.linalg.norm(jacobian(y) - fd) <= 1e-6 * np.linalg.norm(fd)


MOSTOW_ENTRIES = [
    name
    for name in catalog.entry_names()
    if catalog.build(name, catalog.REFERENCE_PARAMS.get(name)).expected.n_reductive
]


@pytest.fixture(scope="module", params=MOSTOW_ENTRIES)
def catalog_structure(request):
    return _catalog_structure(request.param, catalog.REFERENCE_PARAMS.get(request.param))


def _nilpotent_spans(structure):
    """``(basis, index)`` of each nonempty nilpotent span of a structure."""
    spans = [
        (structure.nil_basis, structure.nil_index),
        (structure.complement_basis, structure.complement_index),
    ]
    return [(basis, index) for basis, index in spans if basis]


def _relative_error(a, b):
    return np.linalg.norm(a - b) / np.linalg.norm(b)


class TestNilpotentCharts:
    """The nilpotent chart factors' finite sums against SciPy, and the
    exact certificate of the nilpotency index that truncates them."""

    def test_exp_and_frechet_match_scipy(self, catalog_structure):
        st = catalog_structure
        rng = np.random.default_rng(61)
        for basis, index in _nilpotent_spans(st):
            factor = _ChartFactor(basis, st.size, True, 0, index)
            for _ in range(3):
                f = factor.exponent(rng.standard_normal(factor.dim))
                e, powers = factor.exp(f)
                assert _relative_error(e, scipy.linalg.expm(f)) <= 1e-13
                s = _random_traceless(st.size, rng)
                expected = scipy.linalg.expm_frechet(f, s, compute_expm=False)
                assert _relative_error(factor.frechet(f, powers, s), expected) <= 1e-13

    @pytest.mark.parametrize(
        "chart_of", [_decomposition_chart, _group_chart], ids=["envelope", "group"]
    )
    def test_tangents_match_scipy(self, catalog_structure, chart_of):
        # reference: ∂w/∂y = E₁···E_{j−1}·L(F_j, B)·E_{j+1}···E_m from SciPy
        chart = chart_of(catalog_structure)
        rng = np.random.default_rng(62)
        y = 0.5 * rng.standard_normal(chart.dim)
        _, parts = chart.evaluate(y)
        tangents = chart.tangents(parts)
        exps = [scipy.linalg.expm(factor.exponent(y)) for factor in chart.factors]
        eye = np.eye(chart.n, dtype=complex)
        for j, factor in enumerate(chart.factors):
            prefix = functools.reduce(np.matmul, exps[:j], eye)
            suffix = functools.reduce(np.matmul, exps[j + 1 :], eye)
            f = factor.exponent(y)
            step = 2 if factor.is_complex else 1
            for k, b in enumerate(factor.basis):
                d = prefix @ scipy.linalg.expm_frechet(f, b, compute_expm=False) @ suffix
                assert _relative_error(tangents[factor.start + step * k], d) <= 1e-13
                if factor.is_complex:
                    assert _relative_error(tangents[factor.start + step * k + 1], 1j * d) <= 1e-13

    def test_index_is_least_vanishing_product_length(self, catalog_structure):
        for basis, index in _nilpotent_spans(catalog_structure):
            def largest_product(length):
                return max(
                    np.linalg.norm(functools.reduce(np.matmul, word))
                    for word in itertools.product(basis, repeat=length)
                )
            assert largest_product(index) == 0.0
            assert largest_product(index - 1) > 0.5

    def test_index_of_strictly_upper_triangular_matrices(self):
        e = ExactMatrix.unit
        assert _nilpotency_index(Subspace.span([e(3, 0, 1), e(3, 1, 2), e(3, 0, 2)], 3)) == 3
        assert _nilpotency_index(Subspace.span([e(3, 0, 2)], 3)) == 2
        assert _nilpotency_index(Subspace.zero(3)) == 1

    def test_certificate_rejects_a_span_that_is_not_nilpotent(self):
        # each basis matrix is nilpotent, but E01·E10 = E00 is not
        e = ExactMatrix.unit
        with pytest.raises(ArithmeticError, match="not nilpotent"):
            _nilpotency_index(Subspace.span([e(3, 0, 1), e(3, 1, 0)], 3))


# About 10 % above the objective evaluations that stage A of
# ``mostow_decompose`` takes on the inputs of
# ``TestStageBStart::test_stage_b_solves_are_short`` when it hands over at a
# gradient of 1e-3 (901, 1385, 2206, 3259 and 911); driving the gradient to
# 1e-12 took 1227, 2919, 4711, 7751 and 1533.
STAGE_A_CEILINGS = {
    "su22_f12": 990,
    "su23_f13": 1520,
    "su23_f12": 2450,
    "grassmann_pair": 3580,
    "upper_triangular_horocycle": 1000,
}


class TestStageBStart:
    """Stage B starts on stage A's chart from its restart's stage-A
    estimate, so the least-squares solve only polishes it.  Started from
    Z = 0 and v = I (and a random v on later restarts), solves on these
    inputs took up to ``max_nfev`` = 4000 residual evaluations."""

    @staticmethod
    def _decompose_inputs(structure):
        """Decompose the 20 inputs (scale 0.6, seeds 20-39) with 2 restarts
        on the optimizer path."""
        structure = dataclasses.replace(structure, levi_frame=None)
        for seed in range(20, 40):
            rng = np.random.default_rng(seed)
            zeta, _ = _synthesize(structure, rng, scale=0.6, with_complement=True)
            mostow_decompose(zeta, structure, max_restarts=2, seed=seed)

    def test_stage_b_solves_are_short(self, catalog_structure, monkeypatch):
        solves = _record_results(monkeypatch, "least_squares")
        self._decompose_inputs(catalog_structure)
        evaluations = [result.nfev for result in solves]
        assert len(evaluations) == 40
        assert max(evaluations) <= 20

    @pytest.mark.parametrize("name", sorted(STAGE_A_CEILINGS))
    def test_stage_a_hands_over_early(self, name, monkeypatch):
        # L-BFGS-B's nfev counts its evaluations of _orbit_objective
        stage_a = _record_results(monkeypatch, "minimize")
        self._decompose_inputs(_catalog_structure(name, catalog.REFERENCE_PARAMS.get(name)))
        assert sum(result.nfev for result in stage_a) <= STAGE_A_CEILINGS[name]

    @pytest.mark.parametrize("seed", [3, 18])
    def test_stage_b_solves_are_short_at_scale_08(self, su22_optimizer, monkeypatch, seed):
        # inputs on which a stage A that stopped at f = 6.58 (seed 3) or
        # 16.99 (seed 18) while reporting success left stage B 854 or 1510
        # evaluations
        solves = _record_results(monkeypatch, "least_squares")
        rng = np.random.default_rng(seed)
        zeta, x0 = _synthesize(su22_optimizer, rng, scale=0.8, with_complement=True)
        md = mostow_decompose(zeta, su22_optimizer, max_restarts=2, seed=seed)
        assert abs(md.fiber_norm - np.linalg.norm(x0)) < 1e-9
        evaluations = [result.nfev for result in solves]
        assert len(evaluations) == 2
        assert max(evaluations) <= 20

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("spec", CLOSED_FORM_SPECS + LEVI_COUPLED_SPECS, ids=lambda s: s[0])
    def test_closed_form_runs_no_solve(self, spec, monkeypatch):
        st = _catalog_structure(*spec)
        inputs = [
            _synthesize(st, np.random.default_rng(seed), scale=0.6, with_complement=True)
            for seed in range(20, 40)
        ]
        _forbid_solvers(monkeypatch)
        for zeta, x0 in inputs:
            md = mostow_decompose(zeta, st, max_restarts=2)
            assert abs(md.fiber_norm - np.linalg.norm(x0)) < 1e-9


class TestDeterminism:
    def test_same_seed_gives_bitwise_equal_results(self, grassmann_structure):
        zeta = random_group_element(grassmann_structure, np.random.default_rng(8), 0.4)
        first = mostow_decompose(zeta, grassmann_structure, max_restarts=3, seed=5)
        second = mostow_decompose(zeta, grassmann_structure, max_restarts=3, seed=5)
        for name in ("u", "X", "Z", "v_params", "v_matrix"):
            assert np.array_equal(getattr(first, name), getattr(second, name)), name
        assert first.residual == second.residual
        assert first.restarts_agree == second.restarts_agree
        assert exhaustion_phi(zeta, grassmann_structure, seed=5) == exhaustion_phi(
            zeta, grassmann_structure, seed=5
        )


class TestSeedCheck:
    # the optimizer path seeds default_rng([seed, restart]), which refuses a
    # negative or fractional seed; the closed form uses none, yet refuses it
    # the same way
    @pytest.mark.parametrize(
        "name", ["su22_f12", "upper_triangular_horocycle"], ids=["optimizer", "closed-form"]
    )
    @pytest.mark.parametrize("call", ["decompose", "exhaust", "probe"])
    @pytest.mark.parametrize("seed", [-1, 1.5])
    def test_bad_seed_is_rejected_on_every_path(self, name, call, seed):
        structure = _catalog_structure(name)
        if name == "su22_f12":
            structure = dataclasses.replace(structure, levi_frame=None)
        assert (structure.levi_frame is None) == (name == "su22_f12")
        zeta = np.eye(structure.size, dtype=complex)
        calls = {
            "decompose": lambda: mostow_decompose(zeta, structure, seed=seed),
            "exhaust": lambda: exhaustion_phi(zeta, structure, seed=seed),
            "probe": lambda: phi_levi_probe(zeta, structure, [], seed=seed),
        }
        with pytest.raises(ValueError, match=f"seed must be a non-negative integer, got {seed}$"):
            calls[call]()


class TestMinorLogInequality:
    def test_diagonal_equality(self):
        h = np.diag([2.0, 2.0, 0.25]).astype(complex)
        lhs, rhs, strict = minor_log_inequality(h)
        assert abs(lhs - rhs) < 1e-12
        assert not strict

    def test_hand_checked_two_by_two(self):
        lhs, rhs, strict = minor_log_inequality(np.array([[2.0, 1.0], [1.0, 1.0]], dtype=complex))
        # eigenvalues (3 ± sqrt(5))/2, minors D1 = 2, D2 = 1
        lam = (3.0 + math.sqrt(5.0)) / 2.0
        expected_lhs = 2.0 * math.log(lam) ** 2
        expected_rhs = 2.0 * math.log(2.0) ** 2
        assert abs(lhs - 1.8524) < 1e-3 and abs(lhs - expected_lhs) < 1e-12
        assert abs(rhs - 0.9609) < 1e-3 and abs(rhs - expected_rhs) < 1e-12
        assert strict

    def test_random_positive_matrices(self):
        rng = np.random.default_rng(23)
        for trial in range(30):
            n = 2 + trial % 4
            h = _random_spd_det_one(n, rng)
            lhs, rhs, strict = minor_log_inequality(h)
            assert lhs >= rhs - 1e-10
            off = h - np.diag(np.diag(h))
            if np.linalg.norm(off) > 1e-6:
                assert strict

    def test_rejects_indefinite(self):
        with pytest.raises(ValueError, match="not positive definite"):
            minor_log_inequality(np.diag([1.0, -1.0]).astype(complex))


class TestCounterexampleSearch:
    def test_report_certifies_the_field(self):
        rep = counterexample_search(seed=0)
        assert isinstance(rep, CounterexampleReport)
        assert rep.residuals["system"] < 1e-10
        assert rep.residuals["theta_at_one"] < 1e-8
        assert rep.residuals["theta_at_zero"] > 0.1
        assert rep.residuals["orthogonality"] < 1e-10
        assert rep.residuals["nilpotency"] == 0.0
        assert rep.a * rep.b > 0

    def test_witness_matrices(self):
        rep = counterexample_search(seed=1)
        # Y is anti-Hermitian (real entries, antisymmetric)
        assert np.linalg.norm(rep.Y + rep.Y.conj().T) < 1e-12
        # Z is nilpotent: float eigenvalues of a nilpotent matrix scatter as
        # norm * eps^(1/3); the exact certificate is residuals["nilpotency"]
        assert rep.residuals["nilpotency"] == 0.0
        assert np.max(np.abs(np.linalg.eigvals(rep.Z))) < 1e-4
        # the field theta_{Z+Y} vanishes at parameter one but not at zero
        h = np.diag([rep.lambda1, rep.lambda2, -rep.lambda1 - rep.lambda2]).astype(
            complex
        )
        gamma = scipy.linalg.expm(h)
        w = rep.Z + rep.Y
        assert np.linalg.norm(w.conj().T @ gamma + gamma @ w) < 1e-8
        assert np.linalg.norm(w + w.conj().T) > 0.1

    def test_deterministic_per_seed(self):
        r1 = counterexample_search(seed=5)
        r2 = counterexample_search(seed=5)
        assert r1.lambda2 == r2.lambda2 and r1.a == r2.a


class TestHessianProbe:
    def test_zero_direction_reports_zero(self, grassmann_structure):
        st = grassmann_structure
        x = 0.3 * st.fiber_basis[0]
        probe = phi_levi_probe(
            scipy.linalg.expm(x), st, [np.zeros((4, 4), dtype=complex)]
        )
        assert probe.values == (0.0,)
        assert probe.zero == 1

    def test_noise_gate(self, grassmann_structure):
        st = grassmann_structure
        x = 0.3 * st.fiber_basis[0]
        with pytest.raises(ArithmeticError, match="step too small"):
            phi_levi_probe(
                scipy.linalg.expm(x), st, [st.nil_basis[0]], step=1e-6, gap_tol=1e-4
            )

    # the strict (grassmann_pair) and the Levi-coupled (su22_f12) closed form;
    # the options are checked before either path runs
    @pytest.mark.parametrize("structure", ["grassmann_structure", "su22_structure"])
    @pytest.mark.parametrize(
        "options, match",
        [
            ({"step": math.nan}, "step must be positive and finite, got nan"),
            ({"step": math.inf}, "step must be positive and finite, got inf"),
            ({"step": -1e-3}, "step must be positive and finite"),
            ({"gap_tol": math.nan}, "gap_tol must be positive and finite, got nan"),
            ({"gap_tol": -1.0}, "gap_tol must be positive and finite"),
            ({"gap_tol": 0.0}, "gap_tol must be positive and finite"),
        ],
        ids=["step-nan", "step-inf", "step-negative", "gap-nan", "gap-negative", "gap-zero"],
    )
    def test_rejects_non_finite_or_non_positive_options(self, structure, options, match, request):
        st = request.getfixturevalue(structure)
        zeta = scipy.linalg.expm(0.3 * st.fiber_basis[0])
        with pytest.raises(ValueError, match=match):
            phi_levi_probe(zeta, st, [st.nil_basis[0]], **options)

    @pytest.mark.parametrize("structure", ["grassmann_structure", "su22_structure"])
    @pytest.mark.parametrize("bad", ["nan", "inf", "size", "non-square"])
    def test_rejects_bad_directions(self, structure, bad, request):
        st = request.getfixturevalue(structure)
        zeta = scipy.linalg.expm(0.3 * st.fiber_basis[0])
        direction = np.array(st.nil_basis[0])
        if bad in ("nan", "inf"):
            direction[0, 0] = float(bad)
        else:
            direction = direction[:-1] if bad == "non-square" else direction[:-1, :-1]
        with pytest.raises(ValueError, match="direction 1 must be a finite 4 x 4 matrix"):
            phi_levi_probe(zeta, st, [st.nil_basis[0], direction])

    def test_requires_positive_base_value(self, grassmann_structure):
        direction = [np.zeros((4, 4), dtype=complex)]
        with pytest.raises(ValueError, match="not positive"):
            phi_levi_probe(np.eye(4, dtype=complex), grassmann_structure, direction)

    def test_signature_along_orbit_and_transverse_directions(
        self, grassmann_structure
    ):
        st = grassmann_structure
        rng = np.random.default_rng(1)
        coeffs = 0.3 * rng.standard_normal(st.fiber_dim)
        x = sum(c * m for c, m in zip(coeffs, st.fiber_basis))
        zeta = scipy.linalg.expm(x)
        # analytic tangent of the translated orbit: conjugates of the
        # nilpotent directions survive the quotient by the stabilizer
        orbit_dirs = [-m.conj().T for m in st.nil_basis]

        def unit(i, j):
            m = np.zeros((4, 4), dtype=complex)
            m[i, j] = 1.0
            return m

        transverse_dirs = [unit(0, 1), unit(0, 2), unit(1, 0), unit(2, 0)]
        probe = phi_levi_probe(
            zeta, st, orbit_dirs + transverse_dirs, step=1e-3, gap_tol=1e-4
        )
        orbit_vals = probe.values[: len(orbit_dirs)]
        trans_vals = probe.values[len(orbit_dirs) :]
        assert sum(1 for v in orbit_vals if v < -1e-4) >= 1
        assert sum(1 for v in trans_vals if v > 1e-4) >= 1

    def test_stabilizer_directions_are_flat(self, grassmann_structure):
        # right translation by the subalgebra itself leaves the value constant
        st = grassmann_structure
        x = 0.25 * st.fiber_basis[0] + 0.1 * st.fiber_basis[1]
        probe = phi_levi_probe(
            scipy.linalg.expm(x), st, list(st.nil_basis), step=1e-3, gap_tol=1e-4
        )
        assert probe.zero == len(st.nil_basis)


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestClosedForm:
    """The closed form on strictly horocyclic structures against the
    optimizers, which run on the same structure with ``levi_frame`` removed."""

    @pytest.mark.parametrize(
        "name, params, count",
        [(name, params, 20) for name, params in CLOSED_FORM_SPECS]
        + [
            ("grassmann_pair", {"p": 2, "q": 3, "n": 4, "k": 1}, 2),
            ("grassmann_pair", {"p": 2, "q": 4, "n": 5, "k": 1}, 2),
        ],
        ids=["horocycle", "grassmann-1231", "grassmann-2341", "grassmann-2451"],
    )
    def test_matches_the_optimizer(self, name, params, count):
        st = _catalog_structure(name, params)
        optimizer = dataclasses.replace(st, levi_frame=None)
        for seed in range(count):
            zeta, x0 = _synthesize(st, np.random.default_rng([71, seed]), scale=0.4)
            phi = exhaustion_phi(zeta, st)
            md = mostow_decompose(zeta, st)
            oracle_phi = exhaustion_phi(zeta, optimizer, restarts=2, seed=seed)
            oracle = mostow_decompose(zeta, optimizer, max_restarts=2, seed=seed)
            assert abs(phi - oracle_phi) <= 1e-12 * oracle_phi
            assert np.linalg.norm(md.X - oracle.X) <= 1e-9
            assert abs(md.fiber_norm - oracle.fiber_norm) <= 1e-9
            assert abs(md.fiber_norm - np.linalg.norm(x0)) <= 1e-9

    def test_covers_the_grassmann_grid(self):
        grid = catalog.grassmann_parameter_grid(6)
        assert len(grid) == 44
        for index, params in enumerate(grid):
            st = mostow_structure(catalog.build("grassmann_pair", params).subalgebra)
            assert st.levi_frame is not None, params
            assert st.levi_frame.frame is None, params
            for seed in range(3):
                rng = np.random.default_rng([72, index, seed])
                zeta, x0 = _synthesize(st, rng, scale=0.4)
                md = mostow_decompose(zeta, st)
                assert md.residual <= 1e-9 * max(1.0, np.linalg.norm(zeta)), params
                assert abs(md.fiber_norm - np.linalg.norm(x0)) <= 1e-9, params

    @pytest.mark.parametrize(
        "name, params, blocks",
        [
            ("upper_triangular_horocycle", None, ((1, 1), (1, 1), (1, 1))),
            ("grassmann_pair", {"p": 1, "q": 2, "n": 3, "k": 1}, ((3, 1), (1, 0))),
            ("grassmann_pair", {"p": 2, "q": 3, "n": 4, "k": 1}, ((1, 0), (2, 1), (2, 0))),
            ("grassmann_pair", {"p": 2, "q": 4, "n": 5, "k": 1}, ((1, 0), (2, 1), (3, 0))),
        ],
        ids=["horocycle", "grassmann-1231", "grassmann-2341", "grassmann-2451"],
    )
    def test_frame_layouts(self, name, params, blocks):
        # a coordinate flag keeps the identity frame
        frame = _catalog_structure(name, params).levi_frame
        assert frame.blocks == blocks
        assert frame.frame is None

    def test_step_projectors(self):
        # the flag of a Cayley-conjugated grassmann_pair lies off the coordinates
        entry = catalog.build("grassmann_pair", {"p": 1, "q": 2, "n": 3, "k": 1})
        values = itertools.cycle([Fraction(k, d) for k, d in ((1, 2), (-1, 3), (2, 3), (1, 1))])
        g = _cayley_transform(entry.ambient.blocks, lambda: next(values))
        moved = make_subalgebra(
            entry.ambient, [g @ b @ g.star() for b in entry.subalgebra.basis()]
        )
        witness = horocyclic_verdict(moved).strict_witness
        nil = witness.nilradical.basis()
        identity = ExactMatrix.identity(4)
        below, lower_dim = ExactMatrix.zeros(4), 0
        for upto, dim in zip(witness.invariant_flag, witness.flag_dims):
            assert upto @ upto == upto and upto.star() == upto
            # the step is the joint kernel of the nilradical modulo the last one
            assert all((identity - below) @ b @ upto == ExactMatrix.zeros(4) for b in nil)
            assert upto.trace() == QI(dim) and dim > lower_dim
            block, size = upto - below, dim - lower_dim
            assert block @ block == block and block @ below == ExactMatrix.zeros(4)
            assert symspace._hermitian_span(block, block).dim == size * size
            below, lower_dim = upto, dim
        assert below == identity

    def test_floating_point_guards(self):
        # ζ*ζ = [[1, 1e10, 0], [1e10, 1e20 + 1, 0], [0, 0, 1]] rounds to a
        # singular matrix, whose Cholesky factorization fails
        st = _catalog_structure("upper_triangular_horocycle")
        zeta = np.eye(3, dtype=complex)
        zeta[0, 1] = 1e10
        with pytest.raises(NonConvergenceError, match="non-convergent"):
            exhaustion_phi(zeta, st)
        with pytest.raises(NonConvergenceError, match="non-convergent"):
            mostow_decompose(zeta, st)
        # parallel columns: a canonical correlation of exactly one
        with pytest.raises(NonConvergenceError, match="non-convergent"):
            symspace._levi_block(np.array([[1, 1], [0, 0]], dtype=complex), 1)

    @pytest.mark.parametrize("name", ["su23_f13"])
    def test_absent_without_the_certificate(self, name):
        # not horocyclic, and with a nilpotent fiber factor
        assert mostow_structure(catalog.build(name).subalgebra).levi_frame is None

    @pytest.mark.parametrize("spec", CLOSED_FORM_SPECS + LEVI_COUPLED_SPECS, ids=lambda s: s[0])
    def test_non_coordinate_flags(self, spec):
        # a unitary conjugation is an isometry of the symmetric space, so it
        # moves the flag off the coordinates but changes no value; the
        # optimizer runs on the unconjugated chart, whose basis is sparse
        name, params = spec
        entry = catalog.build(name, params)
        st = _catalog_structure(name, params)
        values = itertools.cycle([Fraction(k, d) for k, d in ((1, 2), (-1, 3), (2, 3), (1, 1), (-2, 3))])
        g = _cayley_transform(entry.ambient.blocks, lambda: next(values))
        g_inv = g.star()
        assert g @ g_inv == ExactMatrix.identity(g.rows)
        moved = mostow_structure(
            make_subalgebra(entry.ambient, [g @ b @ g_inv for b in entry.subalgebra.basis()])
        )
        assert moved.levi_frame is not None and moved.levi_frame.frame is not None
        gm = g.to_numpy()
        optimizer = dataclasses.replace(st, levi_frame=None)
        for seed in range(3):
            zeta, _ = _synthesize(st, np.random.default_rng([73, seed]), scale=0.4)
            phi = exhaustion_phi(zeta, st)
            moved_phi = exhaustion_phi(gm @ zeta @ gm.conj().T, moved)
            assert abs(moved_phi - phi) <= 1e-12 * phi
            oracle = exhaustion_phi(zeta, optimizer, restarts=2, seed=seed)
            assert abs(moved_phi - oracle) <= 1e-12 * oracle
            md = mostow_decompose(gm @ zeta @ gm.conj().T, moved)
            assert abs(md.fiber_norm - math.sqrt(phi)) <= 1e-9


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestLeviCoupled:
    """The closed form on the horocyclic structures that are not strictly
    horocyclic: the group factor couples two Levi blocks by a graph, so its
    orbit is a totally geodesic diagonal and the nearest point a midpoint."""

    @pytest.mark.parametrize(
        "name, blocks, center",
        [
            ("su22_f12", ((2, 0), (2, 0)), np.zeros((2, 2))),
            # one least-squares step in the log-det flat: μ = (a + b − 2c)/10
            ("su23_f12", ((2, 0), (2, 0), (1, 0)), np.outer([1, 1, -4], [1, 1, -2]) / 10),
        ],
    )
    def test_layouts(self, name, blocks, center):
        frame = _catalog_structure(name).levi_frame
        assert frame.frame is None and frame.blocks == blocks
        ((k, j, t),) = frame.pairs
        assert (k, j) == (0, 1) and np.array_equal(t, np.eye(2))
        assert np.allclose(frame.center, center, rtol=0, atol=1e-15)

    @pytest.mark.parametrize("spec", LEVI_COUPLED_SPECS, ids=lambda s: s[0])
    def test_matches_the_optimizer(self, spec):
        st = _catalog_structure(*spec)
        optimizer = dataclasses.replace(st, levi_frame=None)
        n = st.size
        transverse = np.zeros((n, n), dtype=complex)
        transverse[1, 0] = 1.0
        directions = [-m.conj().T for m in st.nil_basis] + [transverse]
        # φ is the distance to a totally geodesic orbit, which is convex, so
        # one start of each optimizer finds the minimum
        rng = np.random.default_rng(74)
        for index in range(30):
            zeta = random_group_element(st, rng, scale=0.6)
            phi = exhaustion_phi(zeta, st)
            oracle_phi = exhaustion_phi(zeta, optimizer, restarts=1)
            assert abs(phi - oracle_phi) <= 1e-12 * oracle_phi
            md = mostow_decompose(zeta, st)
            oracle = mostow_decompose(zeta, optimizer, max_restarts=1)
            assert md.residual <= 1e-12 * max(1.0, np.linalg.norm(zeta))
            assert abs(md.fiber_norm - oracle.fiber_norm) <= 1e-10
            if index % 10 == 0:
                probe = phi_levi_probe(zeta, st, directions)
                oracle_probe = phi_levi_probe(zeta, optimizer, directions, restarts=1)
                signs = [np.sign(v) * (abs(v) > probe.gap) for v in probe.values]
                oracle_signs = [np.sign(v) * (abs(v) > probe.gap) for v in oracle_probe.values]
                assert signs == oracle_signs

    def test_three_coupled_blocks_keep_the_optimizer(self):
        # the real-diagonal Borel of sl(2), diagonally in s(gl2 × gl2 × gl2):
        # the midpoint of three points, their Karcher mean, has no closed form
        amb = block_special_linear((2, 2, 2))
        e = ExactMatrix.unit
        v = make_subalgebra(
            amb, [ExactMatrix.diagonal([1, -1, 1, -1, 1, -1]), e(6, 0, 1) + e(6, 2, 3) + e(6, 4, 5)]
        )
        verdict = horocyclic_verdict(v)
        assert verdict.horocyclic and not verdict.strictly_horocyclic
        assert mostow_structure(v).levi_frame is None

    def test_a_coupled_parabolic_keeps_the_optimizer(self):
        # sl(3)'s parabolic of C² ⊂ C³, diagonally in s(gl3 × gl3): its orbit
        # is still the diagonal, but the group factor is no real Borel, so the
        # upper triangular closed form does not parametrize it
        e = ExactMatrix.unit
        v = make_subalgebra(
            block_special_linear((3, 3)),
            [e(6, i, j) + e(6, i + 3, j + 3) for i, j in ((0, 1), (1, 0), (0, 2), (1, 2))]
            + [ExactMatrix.diagonal([1, -1, 0, 1, -1, 0]), ExactMatrix.diagonal([1, 1, -2, 1, 1, -2])],
        )
        verdict = horocyclic_verdict(v)
        assert verdict.horocyclic and not verdict.strictly_horocyclic
        assert mostow_structure(v).levi_frame is None

    @pytest.mark.parametrize(
        "herm_diagonal, scale, certified",
        [
            ([1, -1, 1, -1], 1, True),
            # b ↦ T·b·T⁻¹ with T = diag(2, 1) couples the blocks, but T*T is
            # not scalar, so the orbit {(b*b, T^-*·b*·T*T·b·T⁻¹)} is no diagonal
            ([1, -1, 1, -1], 2, False),
            # the central part diag(1, 1, −1, −1) of the Hermitian factor is
            # not in it, so the orbit is no product of a diagonal and a flat
            ([2, 0, 0, -2], 1, False),
        ],
        ids=["su22_f12", "coupling-not-an-isometry", "center-not-split-off"],
    )
    def test_coupled_layout_certificate(self, herm_diagonal, scale, certified):
        e = ExactMatrix.unit
        pieces = [ExactMatrix.diagonal([1, 1, 0, 0]), ExactMatrix.diagonal([0, 0, 1, 1])]
        wholes = [symspace._hermitian_span(p, p) for p in pieces]
        herm = Subspace.span([ExactMatrix.diagonal(herm_diagonal)], 4, real=True)
        nr = Subspace.span([e(4, 0, 1) + e(4, 2, 3).scale(scale)], 4)
        layout = symspace._coupled_layout(pieces, wholes, Subspace.zero(4, real=True), herm, nr)
        assert (layout is not None) == certified


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestStackedClosedForm:
    """The closed form on a stack ``(..., n, n)`` of points, as the Levi
    probe evaluates its shifted points, against one point at a time."""

    @staticmethod
    def _stack(st, seed, count=20):
        rng = np.random.default_rng([74, seed])
        return np.stack([random_group_element(st, rng, 0.5) for _ in range(count)])

    @pytest.mark.parametrize("spec", CLOSED_FORM_SPECS + LEVI_COUPLED_SPECS, ids=lambda s: s[0])
    def test_stack_matches_single_points(self, spec):
        st = _catalog_structure(*spec)
        points = self._stack(st, 0)
        stacked = symspace._closed_form_phi(points, st)
        assert stacked.shape == (20,)
        single = [symspace._closed_form_phi(p, st) for p in points]
        assert all(isinstance(v, float) for v in single)
        assert np.all(np.abs(stacked - single) <= 1e-15 * np.abs(single))
        # any leading shape, as the probe's (direction, shift) stack
        grid = symspace._closed_form_phi(points.reshape(5, 4, st.size, st.size), st)
        assert np.array_equal(grid, stacked.reshape(5, 4))

    def test_levi_block_stack_matches_single_blocks(self):
        st = _catalog_structure(*CLOSED_FORM_SPECS[1])
        _, _, diagonal = symspace._horospherical(self._stack(st, 1), st.levi_frame)
        for g, (_, split) in zip(diagonal, st.levi_frame.blocks):
            stacked = symspace._levi_block(g, split)
            for i, block in enumerate(g):
                for part, single in zip(stacked, symspace._levi_block(block, split)):
                    assert np.allclose(part[i], single, rtol=0, atol=1e-15)

    def test_expm_taylor_stack_matches_single_matrices(self):
        # norms from 1e-3 to 40 need from no squaring to seven
        rng = np.random.default_rng(75)
        mats = np.stack(
            [s * _random_traceless(4, rng) for s in (1e-3, 0.05, 0.3, 1.0, 4.0, 10.0)]
        )
        stacked = symspace._expm_taylor(mats)
        for m, e in zip(mats, stacked):
            assert np.array_equal(e, symspace._expm_taylor(m))
            assert np.linalg.norm(e - scipy.linalg.expm(m)) <= 1e-12 * np.linalg.norm(e)

    @pytest.mark.parametrize("spec", CLOSED_FORM_SPECS + LEVI_COUPLED_SPECS, ids=lambda s: s[0])
    def test_one_singular_point_fails_the_stack(self, spec):
        st = _catalog_structure(*spec)
        points = self._stack(st, 2, count=6)
        points[3] = np.zeros((st.size, st.size))
        points[3][0, 0] = 1.0
        with pytest.raises(NonConvergenceError, match="non-convergent"):
            symspace._closed_form_phi(points, st)

    @pytest.mark.parametrize("spec", CLOSED_FORM_SPECS + LEVI_COUPLED_SPECS, ids=lambda s: s[0])
    def test_probe_matches_single_point_second_differences(self, spec, monkeypatch):
        st = _catalog_structure(*spec)
        rng = np.random.default_rng(76)
        zeta, _ = _synthesize(st, rng, scale=0.4)
        k = len(st.group_basis)
        directions = [-m.conj().T for m in st.nil_basis] + [np.zeros((st.size, st.size))]
        for _ in range(3):
            c = rng.standard_normal(k) + 1j * rng.standard_normal(k)
            directions.append(sum(a * m for a, m in zip(c, st.group_basis)))
        step = 1e-3
        calls = []
        closed_form_phi = symspace._closed_form_phi

        def counted(points, structure):
            calls.append(points.shape)
            return closed_form_phi(points, structure)

        monkeypatch.setattr(symspace, "_closed_form_phi", counted)
        probe = phi_levi_probe(zeta, st, directions, step=step)
        # the base point, then every shifted point in one stack
        assert calls == [zeta.shape, (len(directions) - 1, 4, st.size, st.size)]
        monkeypatch.setattr(symspace, "_closed_form_phi", closed_form_phi)
        phi0 = exhaustion_phi(zeta, st)
        for w, value in zip(directions, probe.values):
            shifted = [
                exhaustion_phi(zeta @ symspace._expm_taylor(s * w), st)
                for s in (step, -step, 1j * step, -1j * step)
            ]
            assert abs(value - (sum(shifted) - 4 * phi0) / (4 * step * step)) <= 1e-9

    def test_base_point_error_comes_first(self, grassmann_structure, monkeypatch):
        calls = []
        closed_form_phi = symspace._closed_form_phi

        def counted(points, structure):
            calls.append(points.shape)
            return closed_form_phi(points, structure)

        monkeypatch.setattr(symspace, "_closed_form_phi", counted)
        st = grassmann_structure
        with pytest.raises(ValueError, match="exhaustion not positive at base point"):
            phi_levi_probe(np.eye(st.size, dtype=complex), st, list(st.nil_basis))
        assert calls == [(st.size, st.size)]


def _conjugated_optimizer_inputs(name, params):
    """The structure of a Cayley-conjugated catalog entry with ``levi_frame``
    removed, so that the optimizers serve it, and four inputs synthesized on
    the unconjugated structure and then conjugated, with their fiber norms."""
    entry = catalog.build(name, params)
    values = itertools.cycle(
        [Fraction(k, d) for k, d in ((1, 2), (-1, 3), (2, 3), (1, 1), (-2, 3), (1, 3))]
    )
    g = _cayley_transform(entry.ambient.blocks, lambda: next(values))
    g_inv = g.star()
    moved = mostow_structure(
        make_subalgebra(entry.ambient, [g @ b @ g_inv for b in entry.subalgebra.basis()])
    )
    st = _catalog_structure(name, params)
    gm = g.to_numpy()
    inputs = []
    for seed in range(4):
        zeta, x0 = _synthesize(st, np.random.default_rng([73, seed]), scale=0.4)
        inputs.append((gm @ zeta @ gm.conj().T, float(np.linalg.norm(x0))))
    return dataclasses.replace(moved, levi_frame=None), inputs


@pytest.mark.filterwarnings(
    "ignore:overflow encountered:RuntimeWarning", "ignore:invalid value encountered:RuntimeWarning"
)
class TestOptimizerFailures:
    """On a Cayley-conjugated chart (``herm_basis`` norms up to 135) the
    line searches reach points where the chart value overflows.  That start
    fails, as does one whose polar factor cannot be reconstructed, and a call
    whose every start fails raises ``NonConvergenceError``."""

    @pytest.mark.parametrize("spec", CLOSED_FORM_SPECS, ids=lambda s: s[0])
    def test_decomposition_on_a_conjugated_chart(self, spec):
        structure, inputs = _conjugated_optimizer_inputs(*spec)
        for seed, (zeta, fiber_norm) in enumerate(inputs):
            md = mostow_decompose(zeta, structure, max_restarts=2, seed=seed)
            assert md.residual <= 1e-9 * max(1.0, np.linalg.norm(zeta))
            assert abs(md.fiber_norm - fiber_norm) < 1e-9

    def test_exhaustion_on_a_conjugated_chart_fails_typed(self):
        structure, inputs = _conjugated_optimizer_inputs(*CLOSED_FORM_SPECS[1])
        for seed, (zeta, _) in enumerate(inputs):
            with pytest.raises(NonConvergenceError, match="non-convergent"):
                exhaustion_phi(zeta, structure, restarts=2, seed=seed)

    def test_failed_polar_reconstruction_fails_the_start(self, su22_optimizer, monkeypatch):
        def failing(z, det_one=True):
            raise ArithmeticError("polar reconstruction failed")

        monkeypatch.setattr(symspace, "polar_decompose", failing)
        zeta, _ = _synthesize(su22_optimizer, np.random.default_rng(4))
        with pytest.raises(NonConvergenceError, match="non-convergent"):
            mostow_decompose(zeta, su22_optimizer, max_restarts=2)
