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
import numbers
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Iterable, Sequence

import numpy as np
import scipy.linalg

# scipy.optimize and scipy.integrate are imported by the functions that run
# them, so a process that only uses the exact layer never loads them.

from .ambient import AmbientAlgebra
from .crinv import fiber_data
from .errors import NonConvergenceError, RestartDisagreementError
from .exact import QI, QI_I, QI_ONE, ExactMatrix, Subspace, kernel_space
from .parabolic import HorocyclicVerdict, horocyclic_verdict
from .structure import Subalgebra

__all__ = [
    "HERMITIAN_TOL",
    "UNITARY_TOL",
    "DET_TOL",
    "CROSS_CHECK_TOL",
    "SpdPoint",
    "JacobiFieldSpec",
    "LeviFrame",
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
# The orbit objective is a sum of squares, so a start that ends at or below
# this value leaves later starts less than a quarter of it to gain in phi.
_OBJECTIVE_FLOOR = 1e-14
# Stage A of the decomposition only has to land in the basin of stage B's
# least-squares solve, which then converges quadratically.
_HANDOFF_GTOL = 1e-3
_AGREE_TOL = 1e-6
_COUNTEREXAMPLE_TOL = 1e-10
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


def _finite(a: np.ndarray) -> np.ndarray:
    """``a`` itself; raises ``FloatingPointError`` when an entry overflowed.
    The optimizers count that as a failed start."""
    if not np.all(np.isfinite(a)):
        raise FloatingPointError("chart value not finite")
    return a


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
    """Factor ``z = u·exp(X)`` with ``u`` unitary and ``X`` Hermitian, and
    traceless under ``det_one``, which needs ``|det z| = 1`` (``ValueError``)."""
    zm = _as_matrix(z)
    u_svd, s, vh = np.linalg.svd(zm)
    if s[-1] <= 1e-13 * s[0]:
        raise ValueError("singular input")
    n = zm.shape[0]
    log_det = float(np.sum(np.log(s)))
    if det_one and abs(math.expm1(log_det / n)) > DET_TOL:
        raise ValueError(f"det_one needs |det z| = 1, got |det z| = {math.exp(log_det):.6g}")
    u = u_svd @ vh
    x = vh.conj().T @ np.diag(np.log(s)) @ vh
    x = 0.5 * (x + x.conj().T)
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
class LeviFrame:
    """Float data of the closed-form decomposition on a strictly horocyclic
    structure, certified by ``mostow_structure``.

    In the unitary ``frame`` (``None`` for the identity) the flag that the
    parabolic q = l ⋉ u with u = nr fixes is a coordinate flag, so u is block
    strictly upper triangular and l block diagonal.  ``blocks`` lists the
    Levi blocks as ``(size, split)``: the fiber part of the block is nothing
    (``split == 0``), its whole Hermitian part (``split == size``), or the
    off-diagonal Hermitian part of the two-way split after ``split``
    coordinates; the Hermitian factor spans the rest of l's Hermitian part.
    """

    frame: np.ndarray | None
    blocks: tuple[tuple[int, int], ...]


@dataclass(frozen=True)
class MostowStructure:
    """Float bases of all the subspaces the decomposition optimizers need.

    ``fiber_basis`` spans the Hermitian fiber factor (real basis), and
    ``complement_basis`` the nilpotent fiber factor (complex basis).
    ``nil_basis``/``herm_basis`` give the chart of the group factor
    ``v = expm(Y_n)·expm(Y_p)``.

    ``nil_index`` and ``complement_index`` are the nilpotency indices of the
    two nilpotent spans, certified over ℚ(i) by ``mostow_structure``: every
    product of that many members is zero.

    ``levi_frame`` is set when ``mostow_structure`` has certified that the
    decomposition, the exhaustion and the Levi probes have a closed form
    (see ``LeviFrame``), and ``None`` otherwise; the optimizers serve every
    structure without it.
    """

    size: int
    blocks: tuple[int, ...]
    horocyclic: bool
    strict_horocyclic: bool
    fiber_basis: tuple[np.ndarray, ...]
    complement_basis: tuple[np.ndarray, ...]
    nil_basis: tuple[np.ndarray, ...]
    herm_basis: tuple[np.ndarray, ...]
    compact_basis: tuple[np.ndarray, ...]
    group_basis: tuple[np.ndarray, ...]
    nil_index: int
    complement_index: int
    levi_frame: LeviFrame | None

    @property
    def fiber_dim(self) -> int:
        return len(self.fiber_basis)

    @property
    def complement_dim(self) -> int:
        return len(self.complement_basis)

    @property
    def cross_checkable(self) -> bool:
        """Whether ``exhaustion_phi(..., cross_check=True)`` recomputes φ
        independently: on horocyclic structures without a nilpotent fiber
        factor."""
        return self.horocyclic and self.complement_dim == 0


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


# --------------------------------------------------------------------------
# exact certificate of the closed form
# --------------------------------------------------------------------------


def _hermitian_span(a: ExactMatrix, b: ExactMatrix) -> Subspace:
    """The real span of ``a·H·b + b·H·a`` over the ``n²`` Hermitian unit
    matrices ``H``: for ``a = b`` an orthogonal projector, the Hermitian
    matrices on its range; for projectors onto orthogonal ranges, the
    Hermitian matrices exchanging the two ranges."""
    n = a.rows
    units = []
    for j in range(n):
        units.append(ExactMatrix.unit(n, j, j))
        for k in range(j + 1, n):
            jk, kj = ExactMatrix.unit(n, j, k), ExactMatrix.unit(n, k, j)
            units += [jk + kj, (jk - kj).scale(QI_I)]
    return Subspace.span([a @ h @ b + b @ h @ a for h in units], n, real=True)


def _rational_sqrt(c: QI) -> QI | None:
    """The positive square root of a positive rational, if it is rational."""
    if c.im or c.re <= 0:
        return None
    num, den = c.re.numerator, c.re.denominator
    rn, rd = math.isqrt(num), math.isqrt(den)
    return QI(Fraction(rn, rd)) if rn * rn == num and rd * rd == den else None


def _split_of_block(
    projector: ExactMatrix, whole: Subspace, fiber: list, herm: list
) -> tuple[ExactMatrix, ExactMatrix] | None:
    """The two-way split ``W = W₁ ⊕ W₂`` of a Levi block whose fiber part is
    its off-diagonal Hermitian part: ``J = √c·(P_{W₁} − P_{W₂})`` is the
    member of ``Herm(W)`` (``whole``) that anticommutes with the fiber part
    and commutes with the Hermitian factor's part, unique up to scale.
    Returns the projectors ``(√c·P_W ± J)/(2√c)`` onto ``W₁`` and ``W₂``, or
    ``None`` when ``J`` is not unique up to scale or not a rational multiple
    of an involution."""
    candidates = whole.basis()
    images = [[c @ x + x @ c for c in candidates] for x in fiber]
    images += [[c @ h - h @ c for c in candidates] for h in herm]
    kernel = kernel_space(candidates, images, whole.side, real=True)
    if kernel.dim != 1:
        return None
    (j0,) = kernel.basis()
    square = j0 @ j0
    root = _rational_sqrt(square.trace() / projector.trace())
    if root is None or square != projector.scale(root * root):
        return None
    half = QI_ONE / (root + root)
    halves = [(projector.scale(root) + j0.scale(sign)).scale(half) for sign in (1, -1)]
    if any(e.is_zero for e in halves):
        return None
    # the half meeting the earlier coordinate comes first, so that a
    # coordinate split keeps the identity frame
    lead = [min(i for i, row in enumerate(e.entries) if row[i]) for e in halves]
    return (halves[0], halves[1]) if lead[0] <= lead[1] else (halves[1], halves[0])


def _levi_frame(
    verdict: HorocyclicVerdict, fiber: Subspace, herm: Subspace, complement: Subspace
) -> LeviFrame | None:
    """Certify over ℚ(i) that the closed form applies, and assemble its data.

    The conditions: ``v`` is strictly horocyclic and the nilpotent fiber
    factor is zero; the blocks ``W_k`` are the orthogonal steps of the flag
    that the witness parabolic fixes, and the Hermitian part of its Levi
    factor is the traceless part of ``⊕ Herm(W_k)``; in each block the
    fiber's part is nothing, all of ``Herm(W_k)``, or the off-diagonal part
    of a split ``W_k = W_k1 ⊕ W_k2``; and the fiber and the Hermitian factor
    are exactly the traceless parts of the sums of their block parts.

    The blocks come from the exact projectors ``P_k = Π_k − Π_{k−1}``, with
    ``Π_k`` the k-th step of the witness's flag, which is held as its
    orthogonal projector.  The float
    frame is the eigenvector matrix of ``Σ k·E_k`` over the pieces ``E_k``
    (the projectors onto the blocks and split halves, in frame order); on a
    coordinate flag that matrix is diagonal and sorted, so the frame is the
    identity.
    """
    if not verdict.strictly_horocyclic or complement.dim:
        return None
    witness = verdict.strict_witness
    amb = witness.ambient
    n = amb.n
    levi_herm = witness.levi.realify().intersect(amb.p0)
    fiber_mats, herm_mats = fiber.basis(), herm.basis()

    every_part = fiber_parts = herm_parts = Subspace.zero(n, real=True)
    blocks: list[tuple[int, int]] = []
    pieces: list[ExactMatrix] = []
    below, lower_dim = ExactMatrix.zeros(n), 0
    for upto, dim in zip(witness.invariant_flag, witness.flag_dims):
        proj, size = upto - below, dim - lower_dim
        below, lower_dim = upto, dim
        whole = _hermitian_span(proj, proj)
        every_part = every_part.sum(whole)
        block_fiber = [proj @ x @ proj for x in fiber_mats]
        if all(x.is_zero for x in block_fiber):
            blocks.append((size, 0))
            pieces.append(proj)
            herm_parts = herm_parts.sum(whole)
            continue
        block_fiber_space = Subspace.span(block_fiber, n, real=True)
        if block_fiber_space == whole:
            blocks.append((size, size))
            pieces.append(proj)
            fiber_parts = fiber_parts.sum(whole)
            continue
        split = _split_of_block(
            proj, whole, block_fiber_space.basis(), [proj @ h @ proj for h in herm_mats]
        )
        if split is None:
            return None
        first, second = split
        blocks.append((size, int(first.trace().re)))
        pieces += [first, second]
        fiber_parts = fiber_parts.sum(_hermitian_span(first, second))
        herm_parts = herm_parts.sum(_hermitian_span(first, first)).sum(
            _hermitian_span(second, second)
        )

    if (
        every_part.intersect(amb.p0) != levi_herm
        or fiber_parts.intersect(amb.p0) != fiber
        or herm_parts.intersect(amb.p0) != herm
        or fiber.dim + herm.dim != levi_herm.dim
    ):
        return None

    order = ExactMatrix.zeros(n)
    for k, piece in enumerate(pieces, 1):
        order = order + piece.scale(k)
    frame = np.linalg.eigh(order.to_numpy())[1]
    return LeviFrame(None if np.array_equal(frame, np.eye(n)) else frame, tuple(blocks))


def mostow_structure(v: Subalgebra) -> MostowStructure:
    """Assemble the numeric structure bundle for a subalgebra, with the
    certified data of the closed form where it applies (see
    ``LeviFrame``)."""
    fd = fiber_data(v)
    verdict = horocyclic_verdict(v)
    amb: AmbientAlgebra = v.ambient

    herm_part = v.space.realify().intersect(amb.p0)
    complement = fd.nilpotent_complement

    return MostowStructure(
        size=amb.n,
        blocks=amb.blocks,
        horocyclic=verdict.horocyclic,
        strict_horocyclic=verdict.strictly_horocyclic,
        fiber_basis=_numpy_basis(fd.hermitian_part),
        complement_basis=_numpy_basis(complement),
        nil_basis=_numpy_basis(v.nr),
        herm_basis=_numpy_basis(herm_part),
        compact_basis=_numpy_basis(amb.k0),
        group_basis=_numpy_basis(amb.space),
        nil_index=_nilpotency_index(v.nr),
        complement_index=_nilpotency_index(complement),
        levi_frame=_levi_frame(verdict, fd.hermitian_part, herm_part, complement),
    )


def _check_group_membership(zeta: np.ndarray, structure: MostowStructure) -> None:
    n = structure.size
    if zeta.shape != (n, n) or not np.isfinite(zeta).all():
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
        lam, vecs = scipy.linalg.eigh(_finite(w.conj().T @ w), a_mat)
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


def _decomposition_chart(structure: MostowStructure) -> _ProductChart:
    """``exp(X)·exp(Z)·v`` with ``v = exp(Y_n)·exp(Y_p)``, the fiber factors
    followed by the group factor, coordinates (X, Z, Y_n, Y_p).  ``Z`` and
    ``Y_n`` together range over nr ⊕ comp, the sum of nr with the nilradical
    of ``fiber_data``'s envelope.  ``X`` is Hermitian, so
    ``(exp(X)·exp(Z)·v)*·exp(X)·exp(Z)·v = v*·exp(Z)*·exp(2X)·exp(Z)·v``."""
    nf = structure.fiber_dim
    nz = 2 * structure.complement_dim
    nn = 2 * len(structure.nil_basis)
    return _ProductChart(
        structure.size,
        [
            (structure.fiber_basis, False, 0, None),
            (structure.complement_basis, True, nf, structure.complement_index),
            (structure.nil_basis, True, nf + nz, structure.nil_index),
            (structure.herm_basis, False, nf + nz + nn, None),
        ],
    )


def _chart_coordinates(
    basis: Sequence[np.ndarray], target: np.ndarray, n: int, is_complex: bool
) -> np.ndarray:
    """The chart coordinates of the least-squares projection of ``target``
    onto the span of ``basis``: one coordinate per matrix over the reals, an
    (re, im) pair per matrix over the complex numbers."""
    a = np.array(basis, dtype=complex).reshape(len(basis), n * n).T
    b = np.asarray(target, dtype=complex).reshape(n * n)
    if not is_complex:
        a = np.concatenate([a.real, a.imag])
        b = np.concatenate([b.real, b.imag])
    coeffs = np.linalg.lstsq(a, b, rcond=None)[0]
    return np.stack([coeffs.real, coeffs.imag], axis=1).ravel() if is_complex else coeffs


def _stage_b_residual(
    a_mat: np.ndarray, chart: _ProductChart
) -> tuple[Callable, Callable]:
    """Residual ``w*·w − A`` over the chart's coordinates ``y`` as real and
    imaginary parts, with its Jacobian: a coordinate moving ``w`` by ``dw``
    moves the residual by ``q + q*`` with ``q = w*·dw``."""

    def residual(y: np.ndarray) -> np.ndarray:
        w, _ = chart.evaluate(y)
        diff = _finite(w.conj().T @ w) - a_mat
        return np.concatenate([diff.real.ravel(), diff.imag.ravel()])

    def jacobian(y: np.ndarray) -> np.ndarray:
        w, parts = chart.evaluate(y)
        q = w.conj().T @ chart.tangents(parts)
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
    require_unique: bool | None = None,
) -> MostowDecomposition:
    """Decompose a group element as ``u · exp(X) · exp(Z) · v``.

    On a structure with a ``levi_frame`` the decomposition is closed-form:
    the block LDL* of ``ζ*ζ`` along the flag, the principal angles of the
    split Levi block, a polar factor for ``P`` and a finite log series for
    ``N`` (``_levi_decompose``).  No optimizer runs, ``restarts_agree`` is
    true, and ``max_restarts`` and ``seed`` have no effect.

    Otherwise both stages run on the chart ``w = exp(X)·exp(Z)·v`` of
    ``_decomposition_chart``: stage one decreases the squared distance
    between ``ζ*ζ`` and ``w*·w`` only until its gradient falls to
    ``_HANDOFF_GTOL``, and so only hands over to stage two, whose
    least-squares solve of ``w*·w = ζ*ζ`` from stage one's coordinates
    gives the answer.  Deterministic multi-start; a start whose chart value
    overflows fails, and restarts are compared through the fiber norm
    ``‖X‖``.

    Either way the result carries the residual ``‖ζ − u·exp(X)·exp(Z)·v‖``,
    and ``NonConvergenceError`` is raised when it exceeds ``tol`` times the
    scale of ``ζ``.  ``require_unique`` controls whether disagreeing restarts
    raise (the decomposition is provably unique in the strictly-horocyclic
    case, so that is the default) or are merely reported via
    ``restarts_agree``.
    """
    if max_restarts < 1:
        raise ValueError(f"max_restarts must be at least 1, got {max_restarts}")
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"tol must be positive and finite, got {tol}")
    _check_seed(seed)
    if require_unique is None:
        require_unique = structure.strict_horocyclic
    zm = _as_matrix(zeta)
    _check_group_membership(zm, structure)
    if structure.levi_frame is not None:
        return _closed_form_decompose(zm, structure, tol)
    import scipy.optimize

    n = structure.size
    a_mat = zm.conj().T @ zm

    chart = _decomposition_chart(structure)
    group = _group_chart(structure)
    stage_a_objective = _orbit_objective(a_mat, chart)
    stage_b_residual, stage_b_jacobian = _stage_b_residual(a_mat, chart)
    split = chart.dim - group.dim
    nn_v = 2 * len(structure.nil_basis)

    best = None
    converged_norms: list[float] = []
    for restart in range(max_restarts):
        rng = np.random.default_rng([seed, restart])
        if restart == 0:
            xa0 = np.zeros(chart.dim)
        else:
            xa0 = 0.3 * rng.standard_normal(chart.dim)
        try:
            res_a = scipy.optimize.minimize(
                stage_a_objective,
                xa0,
                method="L-BFGS-B",
                jac=True,
                options={"maxiter": 1000, "ftol": 1e-16, "gtol": _HANDOFF_GTOL},
            )
            # The matrix equation pins the whole parameter vector, and a
            # least-squares solve from stage A's estimate polishes it to
            # machine precision.
            res_b = scipy.optimize.least_squares(
                stage_b_residual,
                res_a.x,
                jac=stage_b_jacobian,
                method="lm" if chart.dim <= 2 * n * n else "trf",
                xtol=1e-15,
                ftol=1e-15,
                gtol=1e-15,
                max_nfev=4000,
            )
        except FloatingPointError:
            continue
        y = res_b.x
        yv = y[split:]
        w, _ = chart.evaluate(y)
        x_mat, z_mat = chart.exponent(0, y), chart.exponent(1, y)
        v, _ = group.evaluate(yv)
        try:
            u, _ = polar_decompose(zm @ np.linalg.inv(w))
        except (ValueError, ArithmeticError):
            continue
        residual = float(np.linalg.norm(zm - u @ w))
        v_params = np.concatenate([yv[nn_v:], yv[:nn_v]])
        candidate = (residual, restart, u, x_mat, z_mat, v_params, v)
        if residual <= tol * _scale(zm):
            converged_norms.append(float(np.linalg.norm(x_mat)))
        if best is None or residual < best[0]:
            best = candidate

    if best is None or best[0] > tol * _scale(zm):
        raise NonConvergenceError("non-convergent")

    agree = _check_restart_agreement(converged_norms, _AGREE_TOL, require_unique)
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
# closed form on strictly horocyclic structures
# --------------------------------------------------------------------------


def _hermitian_function(h: np.ndarray, f: Callable[[np.ndarray], np.ndarray]) -> np.ndarray:
    """``f(H)`` for Hermitian ``H`` through its eigendecomposition."""
    w, q = np.linalg.eigh(h)
    return (q * f(w)) @ q.conj().T


def _unipotent_log(umat: np.ndarray, index: int) -> np.ndarray:
    """``log(U) = Σ_{1≤j<d} (−1)^{j+1} (U − I)^j/j`` when every product of
    ``d`` factors ``U − I`` vanishes."""
    step = umat - np.eye(len(umat))
    out = np.zeros_like(step)
    power = np.eye(len(umat), dtype=complex)
    for j in range(1, index):
        power = power @ step
        out = out + ((-1) ** (j + 1) / j) * power
    return out


def _expm_taylor(m: np.ndarray) -> np.ndarray:
    """``exp(M)`` of a general matrix: a Taylor series after scaling ``M`` to
    1-norm at most 1/2, then as many squarings."""
    norm = float(np.linalg.norm(m, 1))
    squarings = max(0, math.ceil(math.log2(norm / 0.5))) if norm > 0.5 else 0
    a = m / 2.0**squarings
    out = term = np.eye(len(m), dtype=complex)
    for j in range(1, 30):
        term = term @ a / j
        out = out + term
        if float(np.linalg.norm(term, 1)) <= 1e-17 * float(np.linalg.norm(out, 1)):
            break
    for _ in range(squarings):
        out = out @ out
    return out


def _positive_polar(b: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``b = M·W`` with ``M`` positive and ``W`` unitary; returns
    ``(M, W, log M)``."""
    left, sv, right = np.linalg.svd(b)
    return (left * sv) @ left.conj().T, left @ right, (left * np.log(sv)) @ left.conj().T


def _levi_block(g: np.ndarray, split: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, float]:
    """Factor one diagonal block ``D = g*·g`` of the block LDL* as
    ``D = M·exp(2X)·M`` with ``X`` in the block's fiber part and
    ``M = exp(P)`` in its Hermitian-factor part; returns ``(X, P, M, ‖X‖²)``.

    On a split block ``X = [[0, x*], [x, 0]]``, and the singular values σ of
    ``x`` are given by the canonical correlations ρ = tanh 2σ between the
    column spaces of ``g₁ = g[:, :a]`` and ``g₂ = g[:, a:]``: with
    ``gᵢ = Qᵢ·Rᵢ``, ``Q₁*·Q₂ = Y₁·diag(cos θ)·Y₂*`` and ``sin θ`` the column
    norms of ``Q₁⊥*·Q₂·Y₂`` (Björck & Golub, *Math. Comp.* 27, 1973), so
    ``2σ = log((1 + cos θ)/sin θ)``, accurate where ρ is close to 1.  Then
    ``Bᵢ = Rᵢ*·Yᵢ·diag(sin θ)^{1/2}`` have polar factors ``B₁ = M₁·V`` and
    ``B₂ = M₂·W``, and ``x = W·diag(σ)·V*`` on the paired columns.
    """
    m = len(g)
    zero = np.zeros((m, m), dtype=complex)
    if split in (0, m):
        _, sv, right = np.linalg.svd(g)
        half_log = (right.conj().T * np.log(sv)) @ right
        if split == 0:
            return zero, half_log, (right.conj().T * sv) @ right, 0.0
        return half_log, zero, np.eye(m, dtype=complex), float(np.sum(np.log(sv) ** 2))
    a, b = split, m - split
    q1, r1 = np.linalg.qr(g[:, :a], mode="complete")
    q2, r2 = np.linalg.qr(g[:, a:])
    y1, cos, y2h = np.linalg.svd(q1[:, :a].conj().T @ q2)
    y2 = y2h.conj().T
    paired = len(cos)
    sin = np.linalg.norm(q1[:, a:].conj().T @ q2 @ y2[:, :paired], axis=0)
    if not (np.all(cos < 1.0) and np.all(sin > 0.0)):
        raise NonConvergenceError("non-convergent")
    sigma = 0.5 * np.log((1.0 + cos) / sin)
    scale1, scale2 = np.ones(a), np.ones(b)
    scale1[:paired] = scale2[:paired] = np.sqrt(sin)
    m1, v1, log1 = _positive_polar((r1[:a].conj().T @ y1) * scale1)
    m2, w2, log2 = _positive_polar((r2.conj().T @ y2) * scale2)
    x = (w2[:, :paired] * sigma) @ v1[:, :paired].conj().T
    xmat, pmat, mmat = zero, zero.copy(), zero.copy()
    xmat[a:, :a] = x
    xmat[:a, a:] = x.conj().T
    pmat[:a, :a], pmat[a:, a:] = log1, log2
    mmat[:a, :a], mmat[a:, a:] = m1, m2
    return xmat, pmat, mmat, 2.0 * float(np.sum(sigma**2))


def _horospherical(zm: np.ndarray, frame: LeviFrame) -> tuple[np.ndarray, float, list]:
    """The block LDL* of ``ζ*ζ`` in the frame: ``ζ*ζ = R*·R`` with ``R``
    upper triangular, scaled to determinant one; the Schur complements are
    ``R_kk*·R_kk``.  Returns ``R``, ``log det ζ*ζ`` and the diagonal blocks
    ``R_kk``."""
    z = zm if frame.frame is None else frame.frame.conj().T @ zm @ frame.frame
    try:
        r = np.linalg.cholesky(z.conj().T @ z).conj().T
    except np.linalg.LinAlgError as exc:
        raise NonConvergenceError("non-convergent") from exc
    log_det = 2.0 * float(np.sum(np.log(np.real(np.diag(r)))))
    r = r * math.exp(-log_det / (2 * len(r)))
    ends = np.cumsum([size for size, _ in frame.blocks])
    diagonal = [r[e - size : e, e - size : e] for (size, _), e in zip(frame.blocks, ends)]
    return r, log_det, diagonal


def _closed_form_phi(zm: np.ndarray, structure: MostowStructure) -> float:
    """The exhaustion ``‖X‖²`` from the closed form.  A determinant off one
    adds the orbit's distance ``(log det ζ*ζ)²/4n`` in the scalar direction,
    as the minimization does."""
    frame = structure.levi_frame
    _, log_det, diagonal = _horospherical(zm, frame)
    fiber_sq = sum(_levi_block(g, split)[3] for g, (_, split) in zip(diagonal, frame.blocks))
    return fiber_sq + log_det**2 / (4 * structure.size)


def _levi_decompose(
    zm: np.ndarray, structure: MostowStructure
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(X, P, N)`` with ``ζ*ζ = v*·exp(2X)·v`` for ``v = exp(N)·exp(P)``.

    From ``ζ*ζ = R*·R``, ``R = D_R·U`` with ``D_R`` the diagonal blocks of
    ``R`` and ``U`` unipotent in exp(u); each block gives ``D_R*·D_R =
    M·exp(2X)·M`` with ``M = exp(P)``, so ``v = M·U`` and ``N = log(M·U·M⁻¹)``,
    a finite series of nilpotency index ``nil_index``."""
    frame = structure.levi_frame
    r, _, diagonal = _horospherical(zm, frame)
    parts = [_levi_block(g, split) for g, (_, split) in zip(diagonal, frame.blocks)]
    xmat, pmat, mmat = (scipy.linalg.block_diag(*mats) for mats in list(zip(*parts))[:3])
    unipotent = np.linalg.solve(scipy.linalg.block_diag(*diagonal), r)
    nmat = mmat @ _unipotent_log(unipotent, structure.nil_index) @ np.linalg.inv(mmat)
    if frame.frame is not None:
        f = frame.frame
        xmat, pmat, nmat = (f @ m @ f.conj().T for m in (xmat, pmat, nmat))
    return xmat, pmat, nmat


def _closed_form_decompose(zm: np.ndarray, structure: MostowStructure, tol: float) -> MostowDecomposition:
    """The decomposition from ``_levi_decompose``, certified by the residual
    ``‖ζ − u·exp(X)·v‖`` of the ``v`` rebuilt from the reported
    ``v_params``."""
    n = structure.size
    xmat, pmat, nmat = _levi_decompose(zm, structure)
    herm = _chart_coordinates(structure.herm_basis, pmat, n, False)
    nil_pairs = _chart_coordinates(structure.nil_basis, nmat, n, True)
    nil = _ChartFactor(structure.nil_basis, n, True, 0, structure.nil_index)
    v, _ = nil.exp(nil.exponent(nil_pairs))
    if structure.herm_basis:
        v = v @ _hermitian_function(_combo(herm, structure.herm_basis, n), np.exp)
    w = _hermitian_function(xmat, np.exp) @ v
    left, _, right = np.linalg.svd(zm @ np.linalg.inv(w))
    u = left @ right
    residual = float(np.linalg.norm(zm - u @ w))
    if not residual <= tol * _scale(zm):
        raise NonConvergenceError("non-convergent")
    return MostowDecomposition(
        u=u,
        X=xmat,
        Z=np.zeros((n, n), dtype=complex),
        v_params=np.concatenate([herm, nil_pairs]),
        residual=residual,
        restarts_agree=True,
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
    """min over the group-factor chart of dist²(ζ*ζ, v*v); returns (value,
    argmin).  Runs at most ``restarts`` starts (one from ``y0`` when given):
    the value is a sum of squares, so the starts stop once one ends at or
    below ``_OBJECTIVE_FLOOR``, where no later start can lower φ = value/4 by
    more than 2.5e-15.  A start whose chart value overflows fails, and
    ``NonConvergenceError`` is raised when every start fails or the gradient
    at the best point exceeds ``_STATIONARY_TOL``."""
    import scipy.optimize

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
        try:
            res = scipy.optimize.minimize(
                objective,
                start,
                method="L-BFGS-B",
                jac=True,
                options={"maxiter": 1000, "ftol": 1e-16, "gtol": 1e-12},
            )
        except FloatingPointError:
            continue
        if res.fun < best_val:
            best_val = float(res.fun)
            best_y = res.x
        if best_val <= _OBJECTIVE_FLOOR:
            break
    # L-BFGS-B's success flag is no certificate: it reports failure when its
    # line search stalls at a minimum already exact to rounding.  The exact
    # gradient at the best point is one.
    if not math.isfinite(best_val) or not (
        np.linalg.norm(objective(best_y)[1]) <= _STATIONARY_TOL
    ):
        raise NonConvergenceError("non-convergent")
    return best_val, best_y


def _check_restarts(restarts: int) -> None:
    if restarts < 1:
        raise ValueError(f"restarts must be at least 1, got {restarts}")


def _check_seed(seed: int) -> None:
    """Refuse on every path, the closed form included, the seeds that the
    optimizer path's ``default_rng([seed, r])`` refuses."""
    if not isinstance(seed, numbers.Integral) or seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed}")


def exhaustion_phi(
    zeta,
    structure: MostowStructure,
    restarts: int = 4,
    seed: int = 0,
    cross_check: bool = False,
) -> float:
    """Quarter of the squared distance from ``ζ*ζ`` to the orbit
    ``{v*v : v in the group factor}`` — the exhaustion value of the coset.

    On a structure with a ``levi_frame`` the value is the closed form
    ``‖X‖²`` of the block LDL* of ``ζ*ζ`` (``_closed_form_phi``), and
    ``restarts`` and ``seed`` have no effect on it; otherwise an L-BFGS-B
    minimization over the group-factor chart with at most ``restarts``
    starts gives it.  The starts stop once φ is within 2.5e-15 of its lower
    bound 0, so a point of the zero set runs one start.

    ``cross_check`` (on horocyclic structures without a nilpotent fiber
    factor) recomputes the value independently and raises
    ``ArithmeticError`` when the two disagree: the closed form against the
    minimization, and the minimization against ``‖X‖²`` of
    ``mostow_decompose``.
    """
    zm = _as_matrix(zeta)
    _check_group_membership(zm, structure)
    _check_restarts(restarts)
    _check_seed(seed)
    a_mat = zm.conj().T @ zm
    closed_form = structure.levi_frame is not None
    if closed_form:
        phi = _closed_form_phi(zm, structure)
    else:
        phi = 0.25 * _phi_minimize(a_mat, structure, restarts, seed)[0]
    if cross_check and structure.cross_checkable:
        if closed_form:
            expected = 0.25 * _phi_minimize(a_mat, structure, restarts, seed)[0]
        else:
            expected = mostow_decompose(zm, structure, seed=seed).fiber_norm ** 2
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


def counterexample_search(seed: int = 0) -> CounterexampleReport:
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
    z3 = ExactMatrix([[Fraction(float(np.real(x))) for x in row] for row in z]).power(3)
    nilpotency = math.sqrt(float((z3 @ z3.star()).trace().re))

    residuals = {
        "system": abs(f(lam2)),
        "theta_at_one": float(np.linalg.norm(theta1)),
        "theta_at_zero": float(np.linalg.norm(theta0)),
        "orthogonality": abs(complex(np.trace(hy @ z))),
        "nilpotency": nilpotency,
    }
    if residuals["system"] > _COUNTEREXAMPLE_TOL:
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
    at ``[ζ]`` along each holomorphic direction ``s ↦ ζ·exp(sW)``.

    On a structure with a ``levi_frame`` every value is the closed form of
    ``exhaustion_phi``, and ``restarts`` and ``seed`` have no effect;
    otherwise the base point is minimized with ``restarts`` starts and each
    shifted point from the base point's minimizer.

    ``step`` and ``gap_tol`` must be positive and finite, and every direction
    a finite matrix of the group's size (``ValueError``); ``step²·gap_tol``
    below 1e-12 leaves the second differences to rounding noise
    (``ArithmeticError``)."""
    for name, value in (("step", step), ("gap_tol", gap_tol)):
        if not (math.isfinite(value) and value > 0):
            raise ValueError(f"{name} must be positive and finite, got {value}")
    if step * step * gap_tol < 1e-12:
        raise ArithmeticError("step too small / noise-dominated")
    zm = _as_matrix(zeta)
    _check_group_membership(zm, structure)
    _check_restarts(restarts)
    _check_seed(seed)
    n = structure.size
    direction_mats = []
    for k, w in enumerate(directions):
        try:
            wm = _as_matrix(w)
        except ValueError:
            wm = None
        if wm is None or wm.shape != (n, n) or not np.isfinite(wm).all():
            raise ValueError(f"direction {k} must be a finite {n} x {n} matrix")
        direction_mats.append(wm)
    if structure.levi_frame is not None:
        phi0 = _closed_form_phi(zm, structure)

        def shifted_phi(point: np.ndarray) -> float:
            return _closed_form_phi(point, structure)

    else:
        base_val, base_y = _phi_minimize(zm.conj().T @ zm, structure, restarts, seed)
        phi0 = 0.25 * base_val

        def shifted_phi(point: np.ndarray) -> float:
            val, _ = _phi_minimize(point.conj().T @ point, structure, 1, seed, y0=base_y)
            return 0.25 * val

    if phi0 <= 1e-10:
        raise ValueError("exhaustion not positive at base point")

    values: list[float] = []
    for wm in direction_mats:
        if np.linalg.norm(wm) == 0.0:
            values.append(0.0)
            continue
        total = 0.0
        for shift in (step, -step, 1j * step, -1j * step):
            total += shifted_phi(zm @ _expm_taylor(shift * wm))
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
