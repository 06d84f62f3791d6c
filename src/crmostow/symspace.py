"""Floating-point geometry on the cone of determinant-one positive
Hermitian matrices.

The cone carries the invariant metric ``g_p(A, B) = tr(p⁻¹A p⁻¹B)``; its
geodesics through the identity are ``t ↦ exp(tH)`` for traceless Hermitian
``H``.  This module provides distances, Jacobi fields along such geodesics,
polar and group decompositions adapted to a distinguished subalgebra, the
associated exhaustion function, and a root search exhibiting a Jacobi field
that vanishes at ``t = 1`` but not at ``t = 0``.

All optimizers are deterministic given their seed: multi-start restarts use
per-restart child seeds and the reduction keeps the smallest residual, with
the earliest restart winning ties.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

import numpy as np
import scipy.linalg

# scipy.optimize and scipy.integrate are imported by the functions that run
# them, so a process that only uses the exact layer never loads them.

from .ambient import AmbientAlgebra
from .crinv import FiberData, fiber_data
from .errors import NonConvergenceError, RestartDisagreementError
from .exact import Subspace, subspace_intersect, subspace_sum
from .parabolic import horocyclic_verdict
from .structure import Subalgebra

__all__ = [
    "HERMITIAN_TOL",
    "UNITARY_TOL",
    "DET_TOL",
    "CROSS_CHECK_TOL",
    "SpdPoint",
    "JacobiFieldSpec",
    "MostowStructure",
    "MostowDecomposition",
    "CounterexampleReport",
    "HessianProbe",
    "dist",
    "polar_decompose",
    "jacobi_eval",
    "jacobi_norm_sq",
    "jacobi_energy",
    "commuting_split",
    "geodesic_variation_spec",
    "mostow_structure",
    "mostow_decompose",
    "exhaustion_phi",
    "minor_log_inequality",
    "counterexample_search",
    "phi_levi_probe",
    "random_compact_element",
    "random_group_element",
]


HERMITIAN_TOL = 1e-10
UNITARY_TOL = 1e-10
DET_TOL = 1e-8
CROSS_CHECK_TOL = 1e-8
_MAX_CONDITION = 1e12
_STATIONARY_TOL = 1e-5
_QUAD_TARGET = 1e-10


# --------------------------------------------------------------------------
# array plumbing
# --------------------------------------------------------------------------


def _as_matrix(m) -> np.ndarray:
    """Coerce an array-like or exact matrix to a complex ndarray."""
    if hasattr(m, "to_numpy"):
        m = m.to_numpy()
    arr = np.asarray(m, dtype=complex)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValueError("square matrix required")
    return arr


def _scale(a: np.ndarray) -> float:
    return max(1.0, float(np.linalg.norm(a)))


def _is_hermitian(a: np.ndarray, tol: float = HERMITIAN_TOL) -> bool:
    return float(np.linalg.norm(a - a.conj().T)) <= tol * _scale(a)


def _spd_eigenvalues(p: np.ndarray) -> np.ndarray:
    """Eigenvalues of ``p``; raises unless ``p`` is usably positive definite."""
    if not _is_hermitian(p):
        raise ValueError("not positive definite")
    w = np.linalg.eigvalsh(p)
    if w[0] <= 0.0 or w[0] <= w[-1] / _MAX_CONDITION:
        raise ValueError("not positive definite")
    return w


def _combo(coeffs: Sequence[float], mats: Sequence[np.ndarray], n: int) -> np.ndarray:
    out = np.zeros((n, n), dtype=complex)
    for c, m in zip(coeffs, mats):
        if c:
            out += c * m
    return out


def _complex_combo(
    coeffs: Sequence[float], mats: Sequence[np.ndarray], n: int
) -> np.ndarray:
    """Real-coordinate chart of a complex span: pairs (re, im) per basis mat."""
    out = np.zeros((n, n), dtype=complex)
    for k, m in enumerate(mats):
        c = complex(coeffs[2 * k], coeffs[2 * k + 1])
        if c:
            out += c * m
    return out


# --------------------------------------------------------------------------
# points and distance
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class SpdPoint:
    """A positive definite Hermitian matrix of determinant one."""

    p: np.ndarray

    def __post_init__(self):
        arr = _as_matrix(self.p)
        w = _spd_eigenvalues(arr)
        if abs(float(np.sum(np.log(w)))) > DET_TOL:
            raise ValueError("determinant not one")
        object.__setattr__(self, "p", arr)

    @property
    def size(self) -> int:
        return self.p.shape[0]

    @staticmethod
    def identity(n: int) -> "SpdPoint":
        return SpdPoint(np.eye(n, dtype=complex))


def _point_matrix(p) -> np.ndarray:
    if isinstance(p, SpdPoint):
        return p.p
    arr = _as_matrix(p)
    _spd_eigenvalues(arr)
    return arr


def dist(p, q) -> float:
    """Geodesic distance ``(Σᵢ log²λᵢ(p⁻¹q))^{1/2}`` between positive points."""
    pm = _point_matrix(p)
    qm = _point_matrix(q)
    w = scipy.linalg.eigh(qm, pm, eigvals_only=True)
    return float(math.sqrt(np.sum(np.log(w) ** 2)))


def polar_decompose(z, det_one: bool = True) -> tuple[np.ndarray, np.ndarray]:
    """Factor ``z = u·exp(X)`` with ``u`` unitary and ``X`` Hermitian."""
    zm = _as_matrix(z)
    u_svd, s, vh = np.linalg.svd(zm)
    if s[-1] <= 1e-13 * s[0]:
        raise ValueError("singular input")
    u = u_svd @ vh
    x = vh.conj().T @ np.diag(np.log(s)) @ vh
    x = 0.5 * (x + x.conj().T)
    n = zm.shape[0]
    if det_one:
        x = x - (np.trace(x) / n) * np.eye(n)
    residual = np.linalg.norm(zm - u @ scipy.linalg.expm(x))
    if not residual <= 1e-8 * _scale(zm):
        raise ArithmeticError("polar reconstruction failed")
    if not np.linalg.norm(u.conj().T @ u - np.eye(n)) <= UNITARY_TOL:
        raise ArithmeticError("polar factor not unitary")
    return u, x


# --------------------------------------------------------------------------
# Jacobi fields along t ↦ exp(tH)
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class JacobiFieldSpec:
    """Data of the Jacobi field ``J(t) = θ_Z(t) + t·θ_T(t)`` along exp(tH),
    where ``θ_W(t) = W*·exp(tH) + exp(tH)·W``.

    ``H`` is traceless Hermitian (the geodesic direction), ``Z`` is any
    traceless matrix, and ``T`` is Hermitian and commutes with ``H``.
    """

    H: np.ndarray
    Z: np.ndarray
    T: np.ndarray

    def __post_init__(self):
        h = _as_matrix(self.H)
        z = _as_matrix(self.Z)
        t = _as_matrix(self.T)
        if not _is_hermitian(h):
            raise ValueError("H not hermitian")
        if abs(np.trace(h)) > HERMITIAN_TOL * _scale(h):
            raise ValueError("H not traceless")
        if abs(np.trace(z)) > HERMITIAN_TOL * _scale(z):
            raise ValueError("Z not traceless")
        if not _is_hermitian(t):
            raise ValueError("T not hermitian")
        if np.linalg.norm(h @ t - t @ h) > HERMITIAN_TOL * _scale(h) * _scale(t):
            raise ValueError("T does not commute with H")
        evals, evecs = np.linalg.eigh(h)
        object.__setattr__(self, "H", h)
        object.__setattr__(self, "Z", z)
        object.__setattr__(self, "T", t)
        object.__setattr__(self, "_evals", evals)
        object.__setattr__(self, "_evecs", evecs)
        blocks: list[list[int]] = []
        tol = 1e-9 * _scale(h)
        for i, lam in enumerate(evals):
            if blocks and lam - evals[blocks[-1][0]] <= tol:
                blocks[-1].append(i)
            else:
                blocks.append([i])
        object.__setattr__(self, "_blocks", tuple(tuple(b) for b in blocks))

    @property
    def size(self) -> int:
        return self.H.shape[0]

    def geodesic_point(self, t: float) -> np.ndarray:
        """exp(tH) through the cached eigendecomposition."""
        u = self._evecs
        return (u * np.exp(t * self._evals)) @ u.conj().T

    def _geodesic_inverse(self, t: float) -> np.ndarray:
        return self.geodesic_point(-t)


def _theta(w: np.ndarray, gamma: np.ndarray) -> np.ndarray:
    return w.conj().T @ gamma + gamma @ w


def _metric(gamma_inv: np.ndarray, a: np.ndarray, b: np.ndarray) -> float:
    return float(np.real(np.trace(gamma_inv @ a @ gamma_inv @ b)))


def jacobi_eval(spec: JacobiFieldSpec, t: float) -> tuple[np.ndarray, np.ndarray]:
    """Value and covariant derivative ``(J(t), J̇(t))`` of the field."""
    gamma = spec.geodesic_point(t)
    j = _theta(spec.Z, gamma) + 2.0 * t * (spec.T @ gamma)
    w = spec.H @ spec.Z - spec.Z @ spec.H + 2.0 * spec.T
    jdot = 0.5 * _theta(w, gamma)
    return j, jdot


def jacobi_norm_sq_forms(spec: JacobiFieldSpec, t: float) -> tuple[float, float]:
    """Both evaluations of ``g_{exp(tH)}(J(t), J(t))``: the direct metric
    pairing and the independent eigenbasis block formula, in that order."""
    gamma_inv = spec._geodesic_inverse(t)
    j, _ = jacobi_eval(spec, t)
    direct = _metric(gamma_inv, j, j)

    u = spec._evecs
    zp = u.conj().T @ spec.Z @ u
    tp = u.conj().T @ spec.T @ u
    evals = spec._evals
    blocks = spec._blocks
    closed = 0.0
    for bi in blocks:
        ii = np.ix_(bi, bi)
        diag_term = 2.0 * t * tp[ii] + zp[ii] + zp[ii].conj().T
        closed += float(np.sum(np.abs(diag_term) ** 2))
        for bj in blocks:
            if bi is bj:
                continue
            gap = evals[bi[0]] - evals[bj[0]]
            zij = zp[np.ix_(bi, bj)] * math.exp(t * gap / 2.0)
            zji = zp[np.ix_(bj, bi)] * math.exp(-t * gap / 2.0)
            closed += float(np.sum(np.abs(zij + zji.conj().T) ** 2))
    return direct, closed


def jacobi_norm_sq(spec: JacobiFieldSpec, t: float) -> float:
    """Squared metric norm ``g_{exp(tH)}(J(t), J(t))``, cross-checked against
    the eigenbasis block formula."""
    direct, closed = jacobi_norm_sq_forms(spec, t)
    scale = max(1.0, abs(direct))
    if abs(direct - closed) > CROSS_CHECK_TOL * scale:
        raise ArithmeticError("cross-check divergence")
    return direct


def jacobi_energy(spec: JacobiFieldSpec) -> float:
    """The quadratic form ``∫₀¹ (1−t)(‖J̇‖² + (J, J̈)) dt``.

    Nonnegative, and zero exactly on the parallel fields (those with
    ``[H, Z] + 2T`` in the kernel of ``W ↦ θ_W``).
    """
    import scipy.integrate

    h, z, tt = spec.H, spec.Z, spec.T
    w1 = h @ z - z @ h + 2.0 * tt
    ad2 = h @ (h @ z - z @ h) - (h @ z - z @ h) @ h

    def integrand(t: float) -> float:
        gamma = spec.geodesic_point(t)
        gamma_inv = spec._geodesic_inverse(t)
        j = _theta(z, gamma) + 2.0 * t * (tt @ gamma)
        jdot = 0.5 * _theta(w1, gamma)
        jdd = 0.25 * _theta(ad2, gamma)
        return (1.0 - t) * (_metric(gamma_inv, jdot, jdot) + _metric(gamma_inv, j, jdd))

    value, err = scipy.integrate.quad(
        integrand, 0.0, 1.0, epsabs=_QUAD_TARGET, epsrel=_QUAD_TARGET, limit=200
    )
    if err > 1e-7 * max(1.0, abs(value)):
        raise NonConvergenceError("quadrature non-convergence")
    return float(value)


def commuting_split(h: np.ndarray, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Split Hermitian ``x = [h, y] + t`` with ``y`` anti-Hermitian and ``t``
    Hermitian commuting with ``h`` (possible since ad_h is semisimple)."""
    h = _as_matrix(h)
    x = _as_matrix(x)
    evals, u = np.linalg.eigh(h)
    xp = u.conj().T @ x @ u
    n = h.shape[0]
    y = np.zeros((n, n), dtype=complex)
    t = np.zeros((n, n), dtype=complex)
    tol = 1e-9 * _scale(h)
    for i in range(n):
        for j in range(n):
            gap = evals[i] - evals[j]
            if abs(gap) <= tol:
                t[i, j] = xp[i, j]
            else:
                y[i, j] = xp[i, j] / gap
    return u @ y @ u.conj().T, u @ t @ u.conj().T


def geodesic_variation_spec(h: np.ndarray, x: np.ndarray) -> JacobiFieldSpec:
    """The field with ``J(0) = 0`` and ``J̇(0) = x`` along exp(tH)."""
    y, t = commuting_split(h, x)
    return JacobiFieldSpec(h, y, 0.5 * t)


# --------------------------------------------------------------------------
# structure bundle for the group decomposition
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class MostowStructure:
    """Float bases of all the subspaces the decomposition optimizers need.

    ``fiber_basis`` spans the Hermitian fiber factor (real basis), and
    ``complement_basis`` the nilpotent fiber factor (complex basis).
    ``nil_basis``/``herm_basis`` give the chart of the group factor
    ``v = expm(Y_n)·expm(Y_p)``; ``envelope_nil_basis``/``envelope_herm_basis``
    give the enlarged chart used by the foot-point stage.

    ``nil_index``, ``complement_index`` and ``envelope_nil_index`` are the
    nilpotency indices of the three nilpotent spans, certified over ℚ(i) by
    ``mostow_structure``: every product of that many members is zero.
    """

    size: int
    blocks: tuple[int, ...]
    horocyclic: bool
    strict_horocyclic: bool
    fiber_basis: tuple[np.ndarray, ...]
    complement_basis: tuple[np.ndarray, ...]
    nil_basis: tuple[np.ndarray, ...]
    herm_basis: tuple[np.ndarray, ...]
    envelope_nil_basis: tuple[np.ndarray, ...]
    envelope_herm_basis: tuple[np.ndarray, ...]
    compact_basis: tuple[np.ndarray, ...]
    group_basis: tuple[np.ndarray, ...]
    nil_index: int
    complement_index: int
    envelope_nil_index: int

    @property
    def fiber_dim(self) -> int:
        return len(self.fiber_basis)

    @property
    def complement_dim(self) -> int:
        return len(self.complement_basis)


def _numpy_basis(space: Subspace) -> tuple[np.ndarray, ...]:
    return tuple(m.to_numpy() for m in space.basis())


def _nilpotency_index(space: Subspace) -> int:
    """The least ``d`` with ``S_d = 0``, where ``S₁`` is the span and
    ``S_{j+1} = span{B·M : B in its basis, M in S_j}``; then every product of
    ``d`` members vanishes, so ``exp`` and its Fréchet derivative on the span
    are polynomials of degree below ``d``.  Exact over ℚ(i); raises
    ``ArithmeticError`` when ``S_n ≠ 0``, that is when the span is not
    nilpotent."""
    basis = space.basis()
    power, d = space, 1
    while power.dim:
        if d == space.side:
            raise ArithmeticError("span is not nilpotent")
        power = Subspace.span([b @ m for b in basis for m in power.basis()], space.side)
        d += 1
    return d


def mostow_structure(v: Subalgebra, q=None) -> MostowStructure:
    """Assemble the numeric structure bundle for a subalgebra (and optional
    envelope choice)."""
    fd: FiberData = fiber_data(v) if q is None else fiber_data(v, q)
    verdict = horocyclic_verdict(v)
    amb: AmbientAlgebra = v.ambient

    herm_part = subspace_intersect(v.space.realify(), amb.p0)
    envelope_nil = subspace_sum(v.nr, fd.envelope.nilradical)
    complement = fd.nilpotent_complement
    envelope_space = subspace_sum(v.space, fd.envelope.nilradical)
    envelope_herm = subspace_intersect(envelope_space.realify(), amb.p0)

    return MostowStructure(
        size=amb.n,
        blocks=amb.blocks,
        horocyclic=verdict.horocyclic,
        strict_horocyclic=verdict.strictly_horocyclic,
        fiber_basis=_numpy_basis(fd.hermitian_part),
        complement_basis=_numpy_basis(complement),
        nil_basis=_numpy_basis(v.nr),
        herm_basis=_numpy_basis(herm_part),
        envelope_nil_basis=_numpy_basis(envelope_nil),
        envelope_herm_basis=_numpy_basis(envelope_herm),
        compact_basis=_numpy_basis(amb.k0),
        group_basis=_numpy_basis(amb.space),
        nil_index=_nilpotency_index(v.nr),
        complement_index=_nilpotency_index(complement),
        envelope_nil_index=_nilpotency_index(envelope_nil),
    )


def _check_group_membership(zeta: np.ndarray, structure: MostowStructure) -> None:
    n = structure.size
    if zeta.shape != (n, n):
        raise ValueError("not in the group")
    det = np.linalg.det(zeta)
    if abs(det - 1.0) > 1e-6 * max(1.0, abs(det)):
        raise ValueError("not in the group")
    start = 0
    ranges = []
    for b in structure.blocks:
        ranges.append(range(start, start + b))
        start += b
    mask = np.zeros((n, n), dtype=bool)
    for r in ranges:
        mask[np.ix_(list(r), list(r))] = True
    if np.linalg.norm(zeta[~mask]) > 1e-8 * _scale(zeta):
        raise ValueError("not in the group")


def random_compact_element(
    structure: MostowStructure, rng: np.random.Generator, scale: float = 1.0
) -> np.ndarray:
    """A random element of the compact group factor."""
    coeffs = scale * rng.standard_normal(len(structure.compact_basis))
    return scipy.linalg.expm(_combo(coeffs, structure.compact_basis, structure.size))


def random_group_element(
    structure: MostowStructure, rng: np.random.Generator, scale: float = 0.5
) -> np.ndarray:
    """A random element of the full complex group."""
    k = len(structure.group_basis)
    coeffs = scale * (rng.standard_normal(2 * k))
    return scipy.linalg.expm(
        _complex_combo(coeffs, structure.group_basis, structure.size)
    )


# --------------------------------------------------------------------------
# product charts of exponentials, with exact derivatives
# --------------------------------------------------------------------------


def _expm_frechet(f: np.ndarray, s: np.ndarray) -> np.ndarray:
    """The Fréchet derivative ``L(F, S)`` of exp, read off the exponential of
    ``[[F, S], [0, F]]`` (the block method of ``scipy.linalg.expm_frechet``,
    without that function's per-call overhead on small matrices)."""
    n = f.shape[0]
    block = np.zeros((2 * n, 2 * n), dtype=complex)
    block[:n, :n] = f
    block[n:, n:] = f
    block[:n, n:] = s
    return scipy.linalg.expm(block)[:n, n:]


def _product(*mats: np.ndarray | None) -> np.ndarray | None:
    """The product from left to right, with ``None`` as the identity (and
    as the empty product)."""
    out = None
    for m in mats:
        if m is not None:
            out = m if out is None else out @ m
    return out


class _ChartFactor:
    """A factor ``exp(F)`` of a product chart.  ``F`` ranges over the real
    span of ``basis`` (one coordinate per matrix) or over its complex span
    (an (re, im) pair per matrix); its coordinates start at ``start``.

    On a nilpotent span of index ``d`` (every product of ``d`` members is
    zero) exp and its Fréchet derivative are finite sums (Najfeld & Havel,
    *Adv. Appl. Math.* 16, 1995): ``exp(N) = Σ_{j<d} N^j/j!`` and
    ``L(N, S) = Σ_{a,b<d} N^a·S·N^b/(a+b+1)!``.  A factor without an index
    takes both from the block exponential.
    """

    def __init__(
        self,
        basis: Sequence[np.ndarray],
        n: int,
        is_complex: bool,
        start: int,
        index: int | None,
    ):
        stack = np.array(basis, dtype=complex).reshape(len(basis), n, n)
        self.basis = stack
        self.is_complex = is_complex
        self.start = start
        self.dim = (2 if is_complex else 1) * len(stack)
        self.index = index
        self._flat = stack.reshape(len(stack), n * n)
        self._pairing = stack.transpose(0, 2, 1).reshape(len(stack), n * n)
        if index is not None:
            self._identity = np.eye(n)
            self._exp_weights = np.array([1.0 / math.factorial(j) for j in range(index)])
            # row b, column a: the weight 1/(a+b+1)! of N^a·S·N^b
            self._frechet_weights = np.array(
                [[1.0 / math.factorial(a + b + 1) for a in range(index)] for b in range(index)]
            )

    def exponent(self, y: np.ndarray) -> np.ndarray:
        c = y[self.start : self.start + self.dim]
        if self.is_complex:
            c = c[0::2] + 1j * c[1::2]
        n = self.basis.shape[1]
        return (c @ self._flat).reshape(n, n)

    def exp(self, f: np.ndarray) -> tuple[np.ndarray, np.ndarray | None]:
        """``exp(F)``, with the powers ``F⁰, …, F^{d−1}`` stacked on a
        nilpotent factor (``None`` otherwise) for ``frechet`` to reuse."""
        if self.index is None:
            return scipy.linalg.expm(f), None
        d, n = self.index, f.shape[0]
        powers = np.empty((d, n, n), dtype=complex)
        powers[0] = self._identity
        for j in range(1, d):
            powers[j] = powers[j - 1] @ f
        return (self._exp_weights @ powers.reshape(d, n * n)).reshape(n, n), powers

    def frechet(
        self, f: np.ndarray, powers: np.ndarray | None, s: np.ndarray
    ) -> np.ndarray:
        """``L(F, S)`` for one direction ``S`` or for a stack of them."""
        if powers is None:
            if s.ndim == 2:
                return _expm_frechet(f, s)
            return np.stack([_expm_frechet(f, b) for b in s])
        d, n = self.index, f.shape[0]
        batch = s.shape[:-2]
        # the a-th n rows of [F⁰; …; F^{d−1}]·S are F^a·S
        left = np.matmul(powers.reshape(d * n, n), s).reshape(*batch, d, n * n)
        # R_b = Σ_a F^a·S/(a+b+1)!, then Σ_b R_b·F^b = [R_0 … R_{d−1}]·[F⁰; …; F^{d−1}]
        mixed = (self._frechet_weights @ left).reshape(*batch, d, n, n)
        return mixed.swapaxes(-3, -2).reshape(*batch, n, d * n) @ powers.reshape(d * n, n)

    def pair(self, l: np.ndarray) -> np.ndarray:
        """``tr(L·B)`` for every basis matrix ``B``."""
        return self._pairing @ l.ravel()


class _ProductChart:
    """The chart ``y ↦ w(y) = exp(F₁(y))···exp(F_m(y))``.

    ``factors`` lists ``(basis, is_complex, start, index)`` in product order,
    with ``index`` the nilpotency index of a nilpotent span and ``None`` for
    a Hermitian one; the coordinate blocks may come in another order.  A
    factor with an empty basis is the identity and is left out of every
    product.  ``evaluate`` returns ``w`` with each factor's exponent,
    exponential and powers, which ``gradient`` and ``tangents`` take to
    differentiate at the same point.
    """

    def __init__(
        self,
        n: int,
        factors: Sequence[tuple[Sequence[np.ndarray], bool, int, int | None]],
    ):
        self.n = n
        self._declared = tuple(_ChartFactor(b, n, c, s, d) for b, c, s, d in factors)
        self.factors = tuple(f for f in self._declared if f.dim)
        self.dim = sum(f.dim for f in self.factors)

    def exponent(self, k: int, y: np.ndarray) -> np.ndarray:
        """The exponent of the ``k``-th declared factor (zero if it is empty)."""
        return self._declared[k].exponent(y)

    def evaluate(self, y: np.ndarray) -> tuple[np.ndarray, list]:
        parts = []
        for factor in self.factors:
            f = factor.exponent(y)
            e, powers = factor.exp(f)
            parts.append((f, e, powers))
        w = _product(*(e for _, e, _ in parts))
        return (np.eye(self.n, dtype=complex) if w is None else w), parts

    def _frames(self, parts: list) -> Iterable[tuple]:
        """Each factor with its part and ``(E₁···E_{j−1}, E_{j+1}···E_m)``,
        where ``None`` stands for an empty product."""
        suffixes = [None]
        for _, e, _ in reversed(parts[1:]):
            suffixes.append(_product(e, suffixes[-1]))
        prefix = None
        for factor, part, suffix in zip(self.factors, parts, reversed(suffixes)):
            yield factor, part, prefix, suffix
            prefix = _product(prefix, part[1])

    def gradient(self, parts: list, m: np.ndarray) -> np.ndarray:
        """Gradient of ``y ↦ 2 Re tr(M·w(y))``.

        ``L(F, ·)`` is self-adjoint for the trace pairing, so one Fréchet
        derivative per factor gives all of that factor's coordinates: with
        ``S = (E_{j+1}···E_m)·M·(E₁···E_{j−1})``, the coordinate of basis
        matrix ``B`` has derivative ``2 Re tr(L(F_j, S)·B)``, and the
        imaginary coordinate of a complex pair ``−2 Im tr(L(F_j, S)·B)``.
        """
        grad = np.empty(self.dim)
        for factor, (f, _, powers), prefix, suffix in self._frames(parts):
            s = _product(suffix, m, prefix)
            t = 2.0 * factor.pair(factor.frechet(f, powers, s))
            block = grad[factor.start : factor.start + factor.dim]
            if factor.is_complex:
                block[0::2] = t.real
                block[1::2] = -t.imag
            else:
                block[:] = t.real
        return grad

    def tangents(self, parts: list) -> np.ndarray:
        """``∂w/∂y_k`` for every coordinate, stacked along the first axis.
        ``L(F, ·)`` is complex-linear, so one Fréchet derivative per basis
        matrix gives both coordinates of a complex pair."""
        out = np.empty((self.dim, self.n, self.n), dtype=complex)
        for factor, (f, _, powers), prefix, suffix in self._frames(parts):
            d = _product(prefix, factor.frechet(f, powers, factor.basis), suffix)
            block = out[factor.start : factor.start + factor.dim]
            if factor.is_complex:
                block[0::2] = d
                block[1::2] = 1j * d
            else:
                block[:] = d
        return out


def _orbit_objective(
    a_mat: np.ndarray, chart: _ProductChart
) -> Callable[[np.ndarray], tuple[float, np.ndarray]]:
    """``y ↦ (f, ∇f)`` for ``f = Σᵢ log²λᵢ(A⁻¹B)``, ``B = w(y)*·w(y)``: the
    squared distance from ``A`` to ``B``.

    With ``B·wᵢ = λᵢ·A·wᵢ`` and ``wᵢ*·A·wⱼ = δᵢⱼ``, ``dλᵢ = wᵢ*·dB·wᵢ``, so
    ``df = Re tr(G·dB)`` for ``G = W·diag(2 log λ/λ)·W*``, which is
    ``2 Re tr(G·w*·dw)``.
    """

    def objective(y: np.ndarray) -> tuple[float, np.ndarray]:
        w, parts = chart.evaluate(y)
        lam, vecs = scipy.linalg.eigh(w.conj().T @ w, a_mat)
        lam = np.maximum(lam, 1e-300)
        logs = np.log(lam)
        g = (vecs * (2.0 * logs / lam)) @ vecs.conj().T
        return float(np.sum(logs**2)), chart.gradient(parts, g @ w.conj().T)

    return objective


def _group_chart(structure: MostowStructure) -> _ProductChart:
    """The group factor ``v = exp(Y_n)·exp(Y_p)``, coordinates (Y_n, Y_p)."""
    nn = 2 * len(structure.nil_basis)
    return _ProductChart(
        structure.size,
        [
            (structure.nil_basis, True, 0, structure.nil_index),
            (structure.herm_basis, False, nn, None),
        ],
    )


def _fiber_chart(structure: MostowStructure) -> _ProductChart:
    """``exp(X)·exp(Z)`` over the fiber factors, coordinates (X, Z)."""
    return _ProductChart(
        structure.size,
        [
            (structure.fiber_basis, False, 0, None),
            (
                structure.complement_basis,
                True,
                structure.fiber_dim,
                structure.complement_index,
            ),
        ],
    )


def _envelope_chart(structure: MostowStructure) -> _ProductChart:
    """``exp(X)·η`` with ``η = exp(N)·exp(P)`` on the enlarged chart of the
    foot-point stage, coordinates (X, P, N).  ``X`` is Hermitian, so
    ``(exp(X)·η)*·exp(X)·η = η*·exp(2X)·η``."""
    nf = structure.fiber_dim
    np_env = len(structure.envelope_herm_basis)
    return _ProductChart(
        structure.size,
        [
            (structure.fiber_basis, False, 0, None),
            (
                structure.envelope_nil_basis,
                True,
                nf + np_env,
                structure.envelope_nil_index,
            ),
            (structure.envelope_herm_basis, False, nf, None),
        ],
    )


def _chart_coordinates(
    basis: Sequence[np.ndarray],
    targets: Sequence[np.ndarray],
    n: int,
    is_complex: bool,
) -> np.ndarray:
    """The real matrix taking the chart coordinates of a member of the span
    of ``targets`` to those of its least-squares projection onto the span of
    ``basis``: one coordinate per matrix over the reals, an (re, im) pair per
    matrix over the complex numbers."""
    a = np.array(basis, dtype=complex).reshape(len(basis), n * n).T
    b = np.array(targets, dtype=complex).reshape(len(targets), n * n).T
    if not is_complex:
        a = np.concatenate([a.real, a.imag])
        b = np.concatenate([b.real, b.imag])
    coeffs = np.linalg.lstsq(a, b, rcond=None)[0]
    if not is_complex:
        return coeffs
    out = np.empty((2 * len(basis), 2 * len(targets)))
    out[0::2, 0::2] = coeffs.real
    out[0::2, 1::2] = -coeffs.imag
    out[1::2, 0::2] = coeffs.imag
    out[1::2, 1::2] = coeffs.real
    return out


def _stage_b_start(structure: MostowStructure) -> np.ndarray:
    """The linear map from stage-A coordinates ``(X, P, N)`` to stage-B
    coordinates ``(X, Z, Y_n, Y_p)``.

    ``N`` lies in nr ⊕ comp (the construction of ``fiber_data``) and splits
    into ``Z`` in comp and ``Y_n`` in nr; ``P`` is projected onto the span of
    ``herm_basis``, which ``envelope_herm_basis`` contains.  Where comp is
    zero the two charts coincide and the map is the identity.
    """
    n, nf = structure.size, structure.fiber_dim
    np_env = len(structure.envelope_herm_basis)
    nil = _chart_coordinates(
        structure.complement_basis + structure.nil_basis,
        structure.envelope_nil_basis,
        n,
        True,
    )
    herm = _chart_coordinates(
        structure.herm_basis, structure.envelope_herm_basis, n, False
    )
    rows, cols = nf + len(nil) + len(herm), nf + np_env + nil.shape[1]
    out = np.zeros((rows, cols))
    out[:nf, :nf] = np.eye(nf)
    out[nf : nf + len(nil), nf + np_env :] = nil
    out[nf + len(nil) :, nf : nf + np_env] = herm
    return out


def _stage_b_residual(
    a_mat: np.ndarray, fiber: _ProductChart, group: _ProductChart
) -> tuple[Callable, Callable]:
    """Residual ``exp(Z)*·exp(2X)·exp(Z) − (v⁻¹)*·A·v⁻¹`` over ``y = (X, Z,
    v)`` as real and imaginary parts, with its Jacobian.  A coordinate
    moving ``w = exp(X)·exp(Z)`` by ``dw`` moves the residual by ``q + q*``
    with ``q = w*·dw``; one moving ``v`` by ``dv`` moves it by ``q + q*``
    with ``q = (v⁻¹)*·A·v⁻¹·dv·v⁻¹``."""
    split = fiber.dim

    def residual(y: np.ndarray) -> np.ndarray:
        w, _ = fiber.evaluate(y[:split])
        v, _ = group.evaluate(y[split:])
        vinv = np.linalg.inv(v)
        diff = w.conj().T @ w - vinv.conj().T @ a_mat @ vinv
        return np.concatenate([diff.real.ravel(), diff.imag.ravel()])

    def jacobian(y: np.ndarray) -> np.ndarray:
        w, parts = fiber.evaluate(y[:split])
        dw = fiber.tangents(parts)
        v, parts = group.evaluate(y[split:])
        dv = group.tangents(parts)
        vinv = np.linalg.inv(v)
        rhs = vinv.conj().T @ a_mat @ vinv
        q = np.concatenate([w.conj().T @ dw, rhs @ dv @ vinv])
        d = (q + q.conj().transpose(0, 2, 1)).reshape(len(q), -1)
        return np.concatenate([d.real, d.imag], axis=1).T

    return residual, jacobian


# --------------------------------------------------------------------------
# two-stage group decomposition
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class MostowDecomposition:
    """Result of ``zeta = u · exp(X) · exp(Z) · v`` with ``u`` unitary,
    ``X`` in the Hermitian fiber factor, ``Z`` in the nilpotent fiber factor,
    and ``v`` in the group factor chart."""

    u: np.ndarray
    X: np.ndarray
    Z: np.ndarray
    v_params: np.ndarray
    residual: float
    restarts_agree: bool
    v_matrix: np.ndarray = field(repr=False, default=None)

    @property
    def fiber_norm(self) -> float:
        return float(np.linalg.norm(self.X))


def _check_restart_agreement(
    norms: Sequence[float], agree_tol: float, strict: bool
) -> bool:
    """True when all converged restarts found the same fiber norm; raises
    when they disagree although the decomposition is provably unique."""
    agree = (max(norms) - min(norms)) <= agree_tol if norms else False
    if norms and not agree and strict:
        raise RestartDisagreementError("restart disagreement")
    return agree


def mostow_decompose(
    zeta,
    structure: MostowStructure,
    tol: float = 1e-9,
    max_restarts: int = 8,
    seed: int = 0,
    agree_tol: float = 1e-6,
    require_unique: bool | None = None,
) -> MostowDecomposition:
    """Decompose a group element as ``u · exp(X) · exp(Z) · v``.

    Stage one drives the squared distance between ``ζ*ζ`` and
    ``η*·exp(2X)·η`` to zero over the enlarged chart ``η``; stage two solves
    ``exp(Z*)·exp(2X)·exp(Z) = (v*)⁻¹·ζ*ζ·v⁻¹`` for ``Z`` and the group
    factor.  Deterministic multi-start; restarts are compared through the
    fiber norm ``‖X‖``.

    ``require_unique`` controls whether disagreeing restarts raise (the
    decomposition is provably unique in the strictly-horocyclic case, so
    that is the default) or are merely reported via ``restarts_agree``.
    """
    import scipy.optimize

    if max_restarts < 1:
        raise ValueError(f"max_restarts must be at least 1, got {max_restarts}")
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"tol must be positive and finite, got {tol}")
    if require_unique is None:
        require_unique = structure.strict_horocyclic
    zm = _as_matrix(zeta)
    _check_group_membership(zm, structure)
    n = structure.size
    a_mat = zm.conj().T @ zm

    envelope = _envelope_chart(structure)
    stage_a_objective = _orbit_objective(a_mat, envelope)
    fiber = _fiber_chart(structure)
    group = _group_chart(structure)
    stage_b_residual, stage_b_jacobian = _stage_b_residual(a_mat, fiber, group)
    stage_b_start = _stage_b_start(structure)
    nn_v = 2 * len(structure.nil_basis)
    dim_b = fiber.dim + group.dim

    best = None
    converged_norms: list[float] = []
    for restart in range(max_restarts):
        rng = np.random.default_rng([seed, restart])
        if restart == 0:
            xa0 = np.zeros(envelope.dim)
        else:
            xa0 = 0.3 * rng.standard_normal(envelope.dim)
        res_a = scipy.optimize.minimize(
            stage_a_objective,
            xa0,
            method="L-BFGS-B",
            jac=True,
            options={"maxiter": 1000, "ftol": 1e-16, "gtol": 1e-12},
        )

        # Second stage refines the foot point together with the remaining
        # factors: the matrix equation pins the whole parameter vector, and
        # a least-squares solve, started from this restart's stage-A
        # estimate, polishes it to machine precision.
        res_b = scipy.optimize.least_squares(
            stage_b_residual,
            stage_b_start @ res_a.x,
            jac=stage_b_jacobian,
            method="lm" if dim_b <= 2 * n * n else "trf",
            xtol=1e-15,
            ftol=1e-15,
            gtol=1e-15,
            max_nfev=4000,
        )
        y = res_b.x
        w, _ = fiber.evaluate(y[: fiber.dim])
        x_mat, z_mat = fiber.exponent(0, y), fiber.exponent(1, y)
        v, _ = group.evaluate(y[fiber.dim :])
        try:
            u, _ = polar_decompose(zm @ np.linalg.inv(w @ v))
        except ValueError:
            continue
        residual = float(np.linalg.norm(zm - u @ w @ v))
        yv = y[fiber.dim :]
        v_params = np.concatenate([yv[nn_v:], yv[:nn_v]])
        candidate = (residual, restart, u, x_mat, z_mat, v_params, v)
        if residual <= tol * _scale(zm):
            converged_norms.append(float(np.linalg.norm(x_mat)))
        if best is None or residual < best[0]:
            best = candidate

    if best is None or best[0] > tol * _scale(zm):
        raise NonConvergenceError("non-convergent")

    agree = _check_restart_agreement(converged_norms, agree_tol, require_unique)
    residual, _, u, x_mat, z_mat, v_params, v = best
    return MostowDecomposition(
        u=u,
        X=x_mat,
        Z=z_mat,
        v_params=v_params,
        residual=residual,
        restarts_agree=agree,
        v_matrix=v,
    )


# --------------------------------------------------------------------------
# exhaustion function
# --------------------------------------------------------------------------


def _phi_minimize(
    a_mat: np.ndarray,
    structure: MostowStructure,
    restarts: int,
    seed: int,
    y0: np.ndarray | None = None,
) -> tuple[float, np.ndarray]:
    """min over the group-factor chart of dist²(ζ*ζ, v*v); returns (value, argmin)."""
    import scipy.optimize

    if restarts < 1:
        raise ValueError(f"restarts must be at least 1, got {restarts}")
    chart = _group_chart(structure)
    objective = _orbit_objective(a_mat, chart)
    if chart.dim == 0:
        return objective(np.zeros(0))[0], np.zeros(0)

    best_val = math.inf
    best_y = np.zeros(chart.dim)
    starts: list[np.ndarray] = []
    if y0 is not None:
        starts.append(np.array(y0, dtype=float))
    else:
        starts.append(np.zeros(chart.dim))
        for r in range(1, restarts):
            rng = np.random.default_rng([seed, r])
            starts.append(0.5 * rng.standard_normal(chart.dim))
    for start in starts:
        res = scipy.optimize.minimize(
            objective,
            start,
            method="L-BFGS-B",
            jac=True,
            options={"maxiter": 1000, "ftol": 1e-16, "gtol": 1e-12},
        )
        if res.fun < best_val:
            best_val = float(res.fun)
            best_y = res.x
    # L-BFGS-B's success flag is no certificate: it reports failure when its
    # line search stalls at a minimum already exact to rounding.  The exact
    # gradient at the best point is one.
    if not math.isfinite(best_val) or not (
        np.linalg.norm(objective(best_y)[1]) <= _STATIONARY_TOL
    ):
        raise NonConvergenceError("non-convergent")
    return best_val, best_y


def exhaustion_phi(
    zeta,
    structure: MostowStructure,
    restarts: int = 4,
    seed: int = 0,
    cross_check: bool = False,
) -> float:
    """Quarter of the squared distance from ``ζ*ζ`` to the orbit
    ``{v*v : v in the group factor}`` — the exhaustion value of the coset."""
    zm = _as_matrix(zeta)
    _check_group_membership(zm, structure)
    a_mat = zm.conj().T @ zm
    value, _ = _phi_minimize(a_mat, structure, restarts, seed)
    phi = 0.25 * value
    if cross_check and structure.horocyclic and structure.complement_dim == 0:
        md = mostow_decompose(zm, structure, seed=seed)
        expected = md.fiber_norm**2
        if abs(phi - expected) > max(1e-7, 1e-6 * expected):
            raise ArithmeticError("exhaustion cross-check failed")
    return phi


# --------------------------------------------------------------------------
# minor-determinant inequality
# --------------------------------------------------------------------------


def minor_log_inequality(h) -> tuple[float, float, bool]:
    """Compare ``Σ log²λ_ℓ(h)`` with ``Σ log²(D_ℓ/D_{ℓ−1})`` of the leading
    principal minors.  The first dominates, strictly unless ``h`` is diagonal."""
    hm = _point_matrix(h)
    w = np.linalg.eigvalsh(hm)
    lhs = float(np.sum(np.log(w) ** 2))
    chol = np.linalg.cholesky(hm)
    diag = np.real(np.diag(chol))
    rhs = float(np.sum((2.0 * np.log(diag)) ** 2))
    off = hm - np.diag(np.diag(hm))
    strict = bool(
        np.linalg.norm(off) > 1e-9 * _scale(hm) and (lhs - rhs) > 1e-12
    )
    return lhs, rhs, strict


# --------------------------------------------------------------------------
# vanishing-field search
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class CounterexampleReport:
    """A field ``θ_{Z+Y}`` that vanishes at ``t = 1`` but not at ``t = 0``,
    with ``Z`` nilpotent and ``[H, Y]`` trace-orthogonal to ``Z``."""

    lambda1: float
    lambda2: float
    a: float
    b: float
    c: float
    Y: np.ndarray
    Z: np.ndarray
    residuals: dict


def _counterexample_lhs(lam1: float, lam2: float, a: float, b: float, c: float) -> float:
    ab = a * b
    e1, e2 = math.exp(lam1), math.exp(lam2)
    e3 = math.exp(-lam1 - lam2)
    term1 = ((lam2 - lam1) / (e2 - e1)) * (
        a * a * e1 + ab * (e1 + e2) + b * b * e2
    )
    term2 = ((lam1 + 2.0 * lam2) / (e2 - e3)) * (
        c * c * e2 - ab * (e2 + e3) + (ab * ab) / (c * c) * e3
    )
    return term1 + term2


def counterexample_search(
    seed: int = 0, residual_tol: float = 1e-10
) -> CounterexampleReport:
    """Find real parameters ``(λ₁, λ₂, a, b, c)`` with ``ab > 0`` making the
    one-variable reduction vanish, and assemble the witnessing matrices."""
    import scipy.optimize

    rng = np.random.default_rng(seed)
    lam1 = 0.5 + 0.5 * float(rng.random())
    a = 3.0 + float(rng.random())
    b = 1.0
    c = 1.0

    f = lambda lam2: _counterexample_lhs(lam1, lam2, a, b, c)
    lo = -lam1 / 2.0 + 0.05
    hi = None
    prev = f(lo)
    step = 0.25
    x = lo
    while x < 60.0:
        x_next = x + step
        cur = f(x_next)
        if prev > 0.0 >= cur or prev >= 0.0 > cur:
            hi = x_next
            break
        x, prev = x_next, cur
    if hi is None or prev <= 0.0:
        raise NonConvergenceError("no root found")
    lam2 = float(scipy.optimize.brentq(f, x, hi, xtol=1e-15, rtol=8.9e-16))

    lam3 = -lam1 - lam2
    d = -(a * b) / c
    e1, e2, e3 = math.exp(lam1), math.exp(lam2), math.exp(lam3)
    alpha = (a * e1 + b * e2) / (e2 - e1)
    beta = (c * e2 + d * e3) / (e3 - e2)

    h = np.diag([lam1, lam2, lam3]).astype(complex)
    z = np.array([[0, a, 0], [b, 0, c], [0, d, 0]], dtype=complex)
    y = np.array(
        [[0, alpha, 0], [-alpha, 0, beta], [0, -beta, 0]], dtype=complex
    )

    gamma1 = scipy.linalg.expm(h)
    theta1 = _theta(z + y, gamma1)
    theta0 = (z + y) + (z + y).conj().T
    hy = h @ y - y @ h

    # The float entries are exact rationals, so cube the matrix in exact
    # arithmetic: the structural cancellations (a·b·c⁻¹ terms) are then
    # genuinely zero rather than FMA rounding residue.
    from fractions import Fraction

    zf = [[Fraction(float(np.real(z[i, j]))) for j in range(3)] for i in range(3)]
    z2 = [
        [sum(zf[i][k] * zf[k][j] for k in range(3)) for j in range(3)]
        for i in range(3)
    ]
    z3 = [
        [sum(z2[i][k] * zf[k][j] for k in range(3)) for j in range(3)]
        for i in range(3)
    ]
    nilpotency = math.sqrt(float(sum(val * val for row in z3 for val in row)))

    residuals = {
        "system": abs(f(lam2)),
        "theta_at_one": float(np.linalg.norm(theta1)),
        "theta_at_zero": float(np.linalg.norm(theta0)),
        "orthogonality": abs(complex(np.trace(hy @ z))),
        "nilpotency": nilpotency,
    }
    if residuals["system"] > residual_tol:
        raise NonConvergenceError("no root found")
    return CounterexampleReport(
        lambda1=lam1, lambda2=lam2, a=a, b=b, c=c, Y=y, Z=z, residuals=residuals
    )


# --------------------------------------------------------------------------
# finite-difference complex Hessian probe
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class HessianProbe:
    """Signs of second differences of the exhaustion along supplied
    holomorphic directions."""

    positive: int
    negative: int
    zero: int
    values: tuple[float, ...]
    step: float
    gap: float


def phi_levi_probe(
    zeta,
    structure: MostowStructure,
    directions: Iterable[np.ndarray],
    step: float = 1e-3,
    gap_tol: float = 1e-4,
    seed: int = 0,
    restarts: int = 4,
) -> HessianProbe:
    """Second-difference estimate of the complex Hessian of the exhaustion
    at ``[ζ]`` along each holomorphic direction ``s ↦ ζ·exp(sW)``."""
    if step * step * gap_tol < 1e-12:
        raise ArithmeticError("step too small / noise-dominated")
    zm = _as_matrix(zeta)
    _check_group_membership(zm, structure)
    a_mat = zm.conj().T @ zm
    base_val, base_y = _phi_minimize(a_mat, structure, restarts, seed)
    if 0.25 * base_val <= 1e-10:
        raise ValueError("exhaustion not positive at base point")

    def warm_phi(point: np.ndarray) -> float:
        val, _ = _phi_minimize(
            point.conj().T @ point, structure, 1, seed, y0=base_y
        )
        return 0.25 * val

    phi0 = 0.25 * base_val
    values: list[float] = []
    for w in directions:
        wm = _as_matrix(w)
        if np.linalg.norm(wm) == 0.0:
            values.append(0.0)
            continue
        total = 0.0
        for shift in (step, -step, 1j * step, -1j * step):
            total += warm_phi(zm @ scipy.linalg.expm(shift * wm))
        values.append((total - 4.0 * phi0) / (4.0 * step * step))

    pos = sum(1 for v in values if v > gap_tol)
    neg = sum(1 for v in values if v < -gap_tol)
    zero = len(values) - pos - neg
    return HessianProbe(
        positive=pos,
        negative=neg,
        zero=zero,
        values=tuple(values),
        step=step,
        gap=gap_tol,
    )
