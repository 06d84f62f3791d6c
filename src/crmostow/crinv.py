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

    A sample with integer coordinates ``c`` denotes the real covector
    ``X ↦ Re tr((Σ c_r S_r) X)``, where the ``S_r`` are the canonical basis
    of the characteristic space c0 (anti-Hermitian matrices
    trace-orthogonal to the subalgebra plus its conjugate), so each
    coordinate tuple has length dim c0.  ``sampled_signatures`` pairs each
    sample with the exact ``(positives, negatives)`` of its Hermitian form,
    counted by Sylvester's law of inertia from a congruence.
    ``witt_lower_bound`` is the minimum over samples of
    ``min(positives, negatives)``.
    """

    sampled_signatures: tuple[tuple[tuple[int, ...], int, int], ...]
    witt_lower_bound: int


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
# CR type
# ---------------------------------------------------------------------------


def cr_type(v: Subalgebra) -> CRType:
    """CR dimension and codimension of the pair, with the dual dimension.

    Genericity, ν + cr_codim = dim k − dim v with ν = dim nr(v), holds by a
    count: v ∩ k0 = L ∩ k0 is a real form of the σ-stable L = v ∩ σ(v), so
    cr_codim = dim k − dim L − 2ν, and n-reductive means dim v = dim L + ν.
    """
    if not v.n_reductive_verdict.ok:
        raise ValueError("not n-reductive")
    amb = v.ambient
    nu = v.nr.dim
    d = amb.k0.dim - v.compact_intersection.dim - 2 * nu
    return CRType(nu, d, amb.dim - v.dim)


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

    # nilpotent factor: the orthogonal complement of nr(v) in nr(v) + n(q)
    # under the positive definite tr(x·y*), so a complement by construction.
    # It is invariant under k ∈ v ∩ k0: [k, ·] keeps nr(v) + n(q), as v ⊆ w ⊆ q,
    # and tr([k, x]·y*) = −tr(x·[k, y]*) = 0 for y ∈ nr(v), an ideal of v.
    total = v.nr.sum(q.nilradical)
    comp = trace_annihilator(total.basis(), [y.star() for y in v.nr.basis()], amb.n)
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

    Characteristic covectors are parametrized by c0, the anti-Hermitian
    matrices trace-orthogonal to the subalgebra plus its conjugate; the form
    of s ∈ c0 on the basis z of nr(v) is h_s = i·tr(s·[z_a, σ(z_b)]).  Every
    sampled signature is exact (Sylvester's law of inertia, read from an
    exact congruence).  Raises when the subalgebra plus its conjugate
    already fills the ambient algebra.
    """
    if not v.n_reductive_verdict.ok:
        raise ValueError("not n-reductive")
    amb = v.ambient
    pair = v.space.sum(sigma_image(amb, v.space))
    if pair == amb.space:
        raise ValueError("empty characteristic space")
    # pair is σ-stable and −tr(s·t) is positive definite on k0, so
    # dim c0 = dim k0 − dim_ℂ pair = dim k0 − dim L − 2ν: cr_type's codimension
    c0 = trace_annihilator(amb.k0.basis(), pair.basis(), amb.n, real=True)

    # h_s by trace duality, tr(s·[z_a, σz_b]) = tr([s, z_a]·σz_b): dim c0 · ν
    # commutators.  Hermitian, as s* = −s and [z_a, σz_b]* = [z_b, σz_a].
    zb = v.nr.basis()
    conj_zb = [amb.sigma(z) for z in zb]
    h_basis = [
        trace_pairing([bracket(s, z) for z in zb], conj_zb).scale(QI_I)
        for s in c0.basis()
    ]

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
    return LeviReport(tuple(recorded), witt)


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
