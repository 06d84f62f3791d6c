"""CR invariants of the homogeneous pair (compact form, subalgebra).

Computes the CR type (dimension, codimension, dual complex-orbit dimension),
the Hermitian and nilpotent fiber factors of the equivariant fibration over
the compact orbit, scalar Levi-form signatures with an exact Witt-index
lower bound, and the arithmetic window of cohomology degrees where
finiteness transfers.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from itertools import combinations
import random

from .ambient import AmbientAlgebra
from .exact import (
    QI_I,
    ExactMatrix,
    Subspace,
    bracket,
    combine,
    hermitian_inertia,
    trace_annihilator,
    trace_pairing,
)
from .parabolic import (
    ParabolicSubalgebra,
    is_admissible_envelope,
    largest_intermediate,
    minimal_envelope,
)
from .structure import Subalgebra, sigma_image

__all__ = [
    "CRType",
    "FiberData",
    "LeviReport",
    "CohomologyRanges",
    "cr_type",
    "fiber_data",
    "levi_report",
    "cohomology_ranges",
]


# ---------------------------------------------------------------------------
# value objects
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CRType:
    """CR dimension, CR codimension, and the dual complex-orbit dimension.

    ``cr_dim`` is the complex dimension of the nilpotent radical of the
    subalgebra, ``cr_codim`` the real codimension of the analytic tangent
    inside the tangent of the compact orbit, and ``complex_orbit_dim`` the
    complex dimension of the dual open orbit; the three satisfy
    ``cr_dim + cr_codim = complex_orbit_dim`` (the embedding is generic).
    """

    cr_dim: int
    cr_codim: int
    complex_orbit_dim: int


@dataclass(frozen=True)
class FiberData:
    """The two fiber factors attached to an envelope choice.

    ``hermitian_part`` is the real space of traceless Hermitian matrices
    trace-orthogonal to the subalgebra plus the envelope's nilradical;
    ``nilpotent_complement`` is the invariant complement of the nilpotent
    radical inside its sum with the envelope's nilradical; ``envelope`` is
    the parabolic the construction used.
    """

    hermitian_part: Subspace
    nilpotent_complement: Subspace
    envelope: ParabolicSubalgebra


@dataclass(frozen=True)
class LeviReport:
    """Sampled scalar Levi-form signatures and the resulting Witt bound.

    ``covector_basis`` spans the characteristic directions (anti-Hermitian
    matrices trace-orthogonal to the subalgebra plus its conjugate); a
    sample with integer coordinates ``c`` denotes the real covector
    ``X ↦ Re tr((Σ c_r S_r) X)``.  ``vector_form`` holds the projections of
    the basic bracket values onto the fixed complement of the subalgebra
    plus its conjugate.  ``sampled_signatures`` pairs each sample with the
    exact ``(positives, negatives)`` of its Hermitian form, counted by
    Sylvester's law of inertia from a congruence.  ``witt_lower_bound`` is
    the minimum over samples of ``min(positives, negatives)``.
    """

    vector_form: tuple[tuple[ExactMatrix, ...], ...]
    sampled_signatures: tuple[tuple[tuple[int, ...], int, int], ...]
    witt_lower_bound: int
    covector_basis: tuple[ExactMatrix, ...]


@dataclass(frozen=True)
class CohomologyRanges:
    """Degree windows where cohomology finiteness transfers.

    Pure arithmetic from a concavity level, the CR dimension, and a sheaf
    depth parameter: finiteness holds below ``concavity − sheaf_depth`` and
    above ``cr_dim − concavity``.
    """

    concavity: int
    cr_dim: int
    sheaf_depth: int
    finite_low: range
    finite_high: range


# ---------------------------------------------------------------------------
# small helpers
# ---------------------------------------------------------------------------


def _trace_projection(amb: AmbientAlgebra, pair: Subspace, comp: Subspace,
                      ts: list[ExactMatrix]) -> list[ExactMatrix]:
    """The projections of the ``ts`` in k onto ``comp`` along ``pair``, for
    the trace-orthogonal complement ``comp`` of ``pair``.

    With w_k the basis of ``comp`` and G_lk = tr(w_k w_l), the ``comp``
    component of t is Σ g_k w_k where G g = (tr(t w_l))_l, since every
    member of ``pair`` is trace-orthogonal to every w_l; G is symmetric, so
    the rows g for all the ts are the rows of (tr(t w_l)) · G⁻¹.  The
    dimension count and an invertible G certify that k = pair ⊕ comp;
    otherwise ``ArithmeticError`` is raised.
    """
    if pair.dim + comp.dim != amb.space.dim:
        raise ArithmeticError("pair and its trace complement do not span k")
    w = comp.basis()
    try:
        g_inv = trace_pairing(w, w).inverse()
    except ValueError as exc:
        raise ArithmeticError("trace form is degenerate on the complement") from exc
    return combine(w, trace_pairing(ts, w) @ g_inv)


# ---------------------------------------------------------------------------
# CR type
# ---------------------------------------------------------------------------


def cr_type(v: Subalgebra) -> CRType:
    """CR dimension and codimension of the pair, with the dual dimension."""
    if not v.n_reductive_verdict.ok:
        raise ValueError("not n-reductive")
    amb = v.ambient
    nu = v.nr.dim
    dim_orbit = amb.k0.dim - v.compact_intersection.dim
    d = dim_orbit - 2 * nu
    dual = amb.dim - v.dim
    if nu + d != dual:
        raise ArithmeticError("genericity identity failed")
    return CRType(nu, d, dual)


# ---------------------------------------------------------------------------
# fiber data
# ---------------------------------------------------------------------------


def fiber_data(v: Subalgebra, q: ParabolicSubalgebra | None = None) -> FiberData:
    """Hermitian and nilpotent fiber factors for an admissible envelope.

    The envelope must admissibly contain the largest intermediate
    subalgebra; when omitted, its minimal envelope is used.
    """
    if not v.n_reductive_verdict.ok:
        raise ValueError("not n-reductive")
    w = largest_intermediate(v)
    if q is None:
        q = minimal_envelope(w)
    if not is_admissible_envelope(w, q):
        raise ValueError("q not in P0(w)")
    amb = v.ambient

    # Hermitian factor: trace-orthogonal to v + n(q) inside the Hermitian part
    vqn = v.space.sum(q.nilradical)
    f0 = trace_annihilator(amb.p0.basis(), vqn.basis(), amb.n, real=True)

    # nilpotent factor: invariant complement of nr(v) in nr(v) + n(q),
    # orthogonal under the conjugation-invariant product Re tr(X Y*)
    total = v.nr.sum(q.nilradical)
    comp = trace_annihilator(total.basis(), [y.star() for y in v.nr.basis()], amb.n)
    # dim(A + B) = dim A + dim B − dim(A ∩ B): beside the sum, the count decides A ∩ B = 0
    if comp.dim + v.nr.dim != total.dim or comp.sum(v.nr) != total:
        raise ArithmeticError("fiber complement construction failed")
    if comp.bracket_outside(v.compact_intersection.basis(), comp.basis()) is not None:
        raise ArithmeticError("fiber complement is not invariant")
    return FiberData(f0, comp, q)


# ---------------------------------------------------------------------------
# Levi forms
# ---------------------------------------------------------------------------


# rounds of coordinate steps from the best sample in ``levi_report``
REFINEMENT_STEPS = 2


def _covector_samples(dim: int, grid_density: int, seed: int) -> list[tuple[int, ...]]:
    """Deterministic integer sample coordinates: axes, pairs, seeded points."""
    if grid_density < 1:
        raise ValueError(f"grid density must be at least 1, got {grid_density}")
    samples: list[tuple[int, ...]] = []
    for r in range(dim):
        samples.append(tuple(1 if t == r else 0 for t in range(dim)))
    for r, s in combinations(range(dim), 2):
        for sign in (1, -1):
            samples.append(
                tuple(
                    1 if t == r else (sign if t == s else 0) for t in range(dim)
                )
            )
    rng = random.Random(seed)
    for _ in range(2 * dim * grid_density):
        vec = tuple(rng.randint(-2, 2) for _ in range(dim))
        if any(vec):
            samples.append(vec)
    seen = set()
    unique = []
    for s in samples:
        if s not in seen:
            seen.add(s)
            unique.append(s)
    return unique


def levi_report(
    v: Subalgebra,
    grid_density: int = 1,
    seed: int = 0,
) -> LeviReport:
    """Sampled scalar Levi-form signatures and a Witt-index lower bound.

    Characteristic covectors are parametrized by anti-Hermitian matrices
    trace-orthogonal to the subalgebra plus its conjugate; every sampled
    signature is exact (Sylvester's law of inertia, read from an exact
    congruence).
    Raises when the subalgebra plus its conjugate already fills the ambient
    algebra.
    """
    if not v.n_reductive_verdict.ok:
        raise ValueError("not n-reductive")
    amb = v.ambient
    pair = v.space.sum(sigma_image(amb, v.space))
    if pair == amb.space:
        raise ValueError("empty characteristic space")
    comp = trace_annihilator(amb.space.basis(), pair.basis(), amb.n)
    c0 = comp.realify().intersect(amb.k0)
    if c0.dim != cr_type(v).cr_codim:
        raise ArithmeticError("characteristic space dimension mismatch")

    zb = v.nr.basis()
    nu = len(zb)
    # the bracket values [z_a, σ(z_b)], row-major in (a, b)
    conj_zb = [amb.sigma(zc) for zc in zb]
    values = [bracket(za, zc) for za in zb for zc in conj_zb]

    # vector-valued form: component of each bracket value in the complement
    projected = _trace_projection(amb, pair, comp, values)
    vector_form = [tuple(projected[a * nu:(a + 1) * nu]) for a in range(nu)]

    # one exact Hermitian matrix per covector-basis direction:
    # h[a][b] = i * tr(s @ [z_a, σ(z_b)])
    s_basis = c0.basis()
    h_basis = []
    for s in s_basis:
        h = trace_pairing([s], values).reshape(nu, nu).scale(QI_I)
        if h != h.star():
            raise ArithmeticError("scalar Levi form is not Hermitian")
        h_basis.append(h)

    @cache  # refinement candidates repeat earlier samples
    def _signature_at(coords: tuple[int, ...]) -> tuple[int, int]:
        return hermitian_inertia(combine(h_basis, ExactMatrix([coords]))[0])

    samples = _covector_samples(c0.dim, grid_density, seed)
    recorded = []
    best = None
    for coords in samples:
        p, n = _signature_at(coords)
        recorded.append((coords, p, n))
        if best is None or min(p, n) < min(best[1], best[2]):
            best = (coords, p, n)
    for _ in range(REFINEMENT_STEPS):
        improved = False
        base = best[0]
        for r in range(c0.dim):
            for delta in (1, -1):
                cand = tuple(
                    c + (delta if t == r else 0) for t, c in enumerate(base)
                )
                if not any(cand):
                    continue
                p, n = _signature_at(cand)
                recorded.append((cand, p, n))
                if min(p, n) < min(best[1], best[2]):
                    best = (cand, p, n)
                    improved = True
        if not improved:
            break
    witt = min(min(p, n) for _, p, n in recorded)
    return LeviReport(
        tuple(vector_form), tuple(recorded), witt, tuple(s_basis)
    )


# ---------------------------------------------------------------------------
# cohomology windows
# ---------------------------------------------------------------------------


def cohomology_ranges(
    concavity: int, cr_dim: int, sheaf_depth: int = 0
) -> CohomologyRanges:
    """Arithmetic finiteness windows; no cohomology is computed."""
    if concavity > cr_dim:
        raise ValueError("concavity exceeds CR dimension")
    if sheaf_depth < 0:
        raise ValueError(f"sheaf depth must be nonnegative, got {sheaf_depth}")
    low = range(0, max(0, concavity - sheaf_depth))
    high = range(cr_dim - concavity + 1, cr_dim + 1)
    return CohomologyRanges(concavity, cr_dim, sheaf_depth, low, high)
