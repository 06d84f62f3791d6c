"""Release acceptance suite.

Nine end-to-end checks, each printing a single PASS/FAIL line with its
measured wall time.  A check fails when any of its assertions fails or when
it exceeds its stated time budget.  Run with ``python -m crmostow.acceptance``;
the exit status is the number of failing checks.

The checks are intentionally independent re-derivations: expected values are
computed from first principles (dimension counts, explicit spans, closed
formulas) rather than read back from the library.  The structural
expectations of checks 1 and 2 are the catalog's pins
(``catalog.ExpectedInvariants``, closed formulas in the block sizes), held
against each ``analyze`` report by ``catalog.comparisons``, the comparison
that ``analyze`` and ``verify`` run too; the checks derive by hand only what
the pins cannot hold.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from . import catalog, cli
from .crinv import levi_report
from .exact import ExactMatrix, Subspace
from .parabolic import (
    is_parabolic,
    largest_intermediate,
    maximal_envelope,
    minimal_envelope,
    parabolic_regularization,
)
from .structure import make_subalgebra, normalizer
from .symspace import (
    JacobiFieldSpec,
    _combo,
    _complex_combo,
    counterexample_search,
    exhaustion_phi,
    geodesic_variation_spec,
    jacobi_energy,
    jacobi_eval,
    jacobi_norm_sq_forms,
    minor_log_inequality,
    mostow_decompose,
    mostow_structure,
    phi_levi_probe,
    random_compact_element,
    random_group_element,
)


@dataclass
class CheckResult:
    index: int
    name: str
    detail: str
    elapsed: float
    budget: float | None
    failures: list[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.failures


def _finish(
    index: int,
    name: str,
    detail: str,
    started: float,
    budget: float | None,
    failures: list[str],
) -> CheckResult:
    elapsed = time.perf_counter() - started
    if budget is not None and elapsed > budget:
        failures.append(f"time budget exceeded: {elapsed:.2f}s > {budget:.0f}s")
    return CheckResult(index, name, detail, elapsed, budget, failures)


def _unit(n: int, i: int, j: int) -> np.ndarray:
    m = np.zeros((n, n), dtype=complex)
    m[i, j] = 1.0
    return m


def _reference_structure(name: str):
    entry = catalog.build(name, catalog.REFERENCE_PARAMS.get(name))
    return mostow_structure(entry.subalgebra)


def _nil_herm_factor(structure, rng, scale: float) -> np.ndarray:
    """``exp(N) · exp(P)`` with random N in the nilpotent span and P in the
    Hermitian span (each factor only when its basis is nonempty)."""
    size = structure.size
    v = np.eye(size, dtype=complex)
    if structure.nil_basis:
        coeffs = scale * rng.standard_normal(2 * len(structure.nil_basis))
        v = v @ scipy.linalg.expm(_complex_combo(coeffs, structure.nil_basis, size))
    if structure.herm_basis:
        coeffs = scale * rng.standard_normal(len(structure.herm_basis))
        v = v @ scipy.linalg.expm(_combo(coeffs, structure.herm_basis, size))
    return v


def _synthesize(structure, rng, scale: float = 0.35):
    """A group element ``u · exp(X) · v`` with known fiber displacement X."""
    u = random_compact_element(structure, rng, scale=1.0)
    x = _combo(
        scale * rng.standard_normal(structure.fiber_dim),
        structure.fiber_basis,
        structure.size,
    )
    v = _nil_herm_factor(structure, rng, scale)
    return u @ scipy.linalg.expm(x) @ v, x


# ---------------------------------------------------------------------------
# 1. structural invariants
# ---------------------------------------------------------------------------


def _pin_failures(label: str, entry: catalog.CatalogEntry, witt: bool) -> list[str]:
    """One line per pin of ``entry`` that its ``analyze`` report misses: the
    Witt level's pin alone when ``witt``, every other pin otherwise."""
    report = cli.build_analysis_report(entry.subalgebra, {})
    return [
        f"{label}: {field} {computed}, expected {wanted}"
        for field, computed, wanted in catalog.comparisons(report, entry.expected)
        if computed != wanted and (field == "witt") == witt
    ]


def check_structural_invariants() -> CheckResult:
    started = time.perf_counter()
    failures: list[str] = []

    # the catalog's pins on the four fixed configurations and on the full
    # two-flag family in ambient size up to 6; the Witt level is check 2's
    fixed = {
        name: catalog.build(name)
        for name in ("su22_f12", "su23_f13", "su23_f12", "so_n_symmetric")
    }
    for name, entry in fixed.items():
        failures += _pin_failures(name, entry, witt=False)
    grid = catalog.grassmann_parameter_grid(6)
    for params in grid:
        entry = catalog.build("grassmann_pair", params)
        failures += _pin_failures(f"grassmann {params}", entry, witt=False)

    # what the pins cannot hold, by explicit spans and dimension counts.
    # su22_f12, the coupled line pair in the (2,2)-block algebra: its largest
    # intermediate subalgebra is the diagonally embedded sl(2)
    v = fixed["su22_f12"].subalgebra
    amb = v.ambient
    e = ExactMatrix.unit
    n4 = amb.n
    diag_sl2 = make_subalgebra(
        amb,
        [
            e(n4, 0, 0) - e(n4, 1, 1) + e(n4, 2, 2) - e(n4, 3, 3),
            e(n4, 0, 1) + e(n4, 2, 3),
            e(n4, 1, 0) + e(n4, 3, 2),
        ],
        mode="require_closed",
    )
    w = largest_intermediate(v)
    if w.space != diag_sl2.space:
        failures.append(
            f"su22_f12: intermediate subalgebra (dim {w.dim}) is not the "
            "diagonally embedded rank-one simple subalgebra"
        )

    # su23_f13, the coupled line-in-plane configuration in the (2,3)-block
    # algebra.  The nilpotent part is n = span(E01 + E24, E34).  Its
    # normalizer N in s(gl2 x gl3) is the 7-dimensional span below, and it is
    # not parabolic: every parabolic contains a Borel subalgebra, of dimension
    # 3 + 6 - 1 = 8 > 7.  Only the iterated regularization reaches a
    # parabolic: N is the second term of the chain v -> N -> q_min, and the
    # envelopes are nested strictly above it, N < q_min < q_max (7 < 8 < 9).
    v = fixed["su23_f13"].subalgebra
    n5 = v.ambient.n
    nil_span = Subspace.span([e(n5, 0, 1) + e(n5, 2, 4), e(n5, 3, 4)], n5)
    normalizer_span = Subspace.span(
        [
            e(n5, 0, 0) - e(n5, 4, 4),
            e(n5, 0, 1),
            e(n5, 1, 1) - e(n5, 3, 3).scale(2) + e(n5, 4, 4),
            e(n5, 2, 2) - e(n5, 3, 3).scale(2) + e(n5, 4, 4),
            e(n5, 2, 4),
            e(n5, 3, 2),
            e(n5, 3, 4),
        ],
        n5,
    )
    if v.nr != nil_span:
        failures.append(
            f"su23_f13: nilpotent part (dim {v.nr.dim}) is not span(E01 + E24, E34)"
        )
    nv = normalizer(v.ambient, v.nr)
    if nv.space != normalizer_span:
        failures.append(
            f"su23_f13: normalizer of the nilpotent part (dim {nv.dim}) is not "
            "the expected 7-dimensional span"
        )
    if is_parabolic(nv)[0]:
        failures.append(
            f"su23_f13: normalizer of the nilpotent part (dim {nv.dim}) is "
            "parabolic, though a Borel subalgebra has dimension 8"
        )
    chain = parabolic_regularization(v).chain
    if len(chain) < 2 or chain[1].space != nv.space:
        failures.append(
            "su23_f13: normalizer of the nilpotent part is not the second "
            "term of the regularization chain"
        )
    q_min = minimal_envelope(v)
    q_max = maximal_envelope(v, q_min)
    dims = (nv.dim, q_min.dim, q_max.dim)
    nested = q_min.q.contains_space(nv.space) and q_max.q.contains_space(
        q_min.q.space
    )
    if dims != (7, 8, 9) or not nested:
        failures.append(
            "su23_f13: expected normalizer < minimal envelope < maximal "
            f"envelope with dimensions 7 < 8 < 9, got {dims}"
            + ("" if nested else ", not nested")
        )
    detail = f"4 fixed configurations + {len(grid)} two-flag instances"
    return _finish(1, "structural-invariants", detail, started, 10.0, failures)


# ---------------------------------------------------------------------------
# 2. Witt-index lower bounds
# ---------------------------------------------------------------------------


def check_witt_lower_bounds() -> CheckResult:
    started = time.perf_counter()
    failures: list[str] = []
    grid = catalog.grassmann_parameter_grid(6)
    n_formula = n_empty = 0
    for params in grid:
        entry = catalog.build("grassmann_pair", params)
        if entry.expected.witt is not None:
            failures += _pin_failures(f"grassmann {params}", entry, witt=True)
            n_formula += 1
        else:
            try:
                levi_report(entry.subalgebra)
                failures.append(
                    f"grassmann {params}: degenerate instance did not report "
                    "an empty characteristic space"
                )
            except ValueError:
                pass
            n_empty += 1
    detail = f"{n_formula} scalar-form instances exact, {n_empty} degenerate"
    return _finish(2, "witt-lower-bounds", detail, started, 60.0, failures)


# ---------------------------------------------------------------------------
# 3. parabolic regularization
# ---------------------------------------------------------------------------


def check_regularization() -> CheckResult:
    started = time.perf_counter()
    failures: list[str] = []
    for name in catalog.entry_names():
        entry = catalog.build(name, catalog.REFERENCE_PARAMS.get(name))
        v = entry.subalgebra
        trace = parabolic_regularization(v)
        if trace.steps > v.ambient.dim:
            failures.append(
                f"{name}: {trace.steps} steps exceeds ambient dimension "
                f"{v.ambient.dim}"
            )
        if trace.chain[-1].space != trace.fixed_point.space:
            failures.append(f"{name}: chain does not end at its fixed point")

    entry = catalog.build("upper_triangular_horocycle")
    amb = entry.ambient
    e = ExactMatrix.unit
    borel = make_subalgebra(
        amb,
        [
            e(3, 0, 1),
            e(3, 0, 2),
            e(3, 1, 2),
            e(3, 0, 0) - e(3, 1, 1),
            e(3, 1, 1) - e(3, 2, 2),
        ],
        mode="require_closed",
    )
    fixed = parabolic_regularization(entry.subalgebra).fixed_point
    if fixed.space != borel.space or fixed.dim != 5:
        failures.append(
            f"strictly-upper entry: fixed point (dim {fixed.dim}) is not the "
            "full upper-triangular subalgebra (dim 5)"
        )
    detail = "6 catalog entries; strictly-upper fixed point exact"
    return _finish(3, "parabolic-regularization", detail, started, None, failures)


# ---------------------------------------------------------------------------
# 4. variation-field identities
# ---------------------------------------------------------------------------


def _random_field_spec(rng, n: int, degenerate: bool) -> JacobiFieldSpec:
    if degenerate and n >= 3:
        vals = rng.standard_normal(n - 1)
        evals = np.concatenate([vals, vals[:1]])
        u, _ = np.linalg.qr(
            rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        )
        h = (u * evals) @ u.conj().T
        h = 0.5 * (h + h.conj().T)
    else:
        h = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        h = 0.5 * (h + h.conj().T)
    h -= np.trace(h) / n * np.eye(n)
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    z -= np.trace(z) / n * np.eye(n)
    _, u = np.linalg.eigh(h)
    t = (u * rng.standard_normal(n)) @ u.conj().T
    t = 0.5 * (t + t.conj().T)
    return JacobiFieldSpec(h, z, t)


def check_field_identities() -> CheckResult:
    started = time.perf_counter()
    failures: list[str] = []
    rng = np.random.default_rng(2024)

    worst_taylor = worst_forms = 0.0
    for i in range(100):
        spec = _random_field_spec(rng, 2 + i % 3, degenerate=(i % 4 == 0))
        j0, jd0 = jacobi_eval(spec, 0.0)
        norm_end = jacobi_norm_sq_forms(spec, 1.0)[0]
        expansion = (
            float(np.real(np.trace(j0 @ j0)))
            + 2.0 * float(np.real(np.trace(j0 @ jd0)))
            + 2.0 * jacobi_energy(spec)
        )
        worst_taylor = max(
            worst_taylor, abs(norm_end - expansion) / max(1.0, abs(norm_end))
        )
        for t in (-1.0, 0.37, 1.0):
            direct, closed = jacobi_norm_sq_forms(spec, t)
            worst_forms = max(
                worst_forms, abs(direct - closed) / max(1.0, abs(direct))
            )
    if worst_taylor > 1e-7:
        failures.append(
            f"second-order expansion off by {worst_taylor:.2e} rel (> 1e-7)"
        )
    if worst_forms > 1e-9:
        failures.append(
            f"direct and eigenbasis norms differ by {worst_forms:.2e} rel (> 1e-9)"
        )

    # fields from block-commuting data stay metrically orthogonal to fields
    # from off-block data along the whole geodesic
    worst_pairing = 0.0
    n = 4
    for split in (1, 2, 3):
        for _ in range(3):
            hvals = np.sort(rng.standard_normal(2))
            diag = np.array([hvals[0]] * split + [hvals[1]] * (n - split))
            h = np.diag(diag - diag.mean()).astype(complex)
            z0 = np.zeros((n, n), dtype=complex)
            z0[:split, :split] = rng.standard_normal(
                (split, split)
            ) + 1j * rng.standard_normal((split, split))
            z0[split:, split:] = rng.standard_normal(
                (n - split, n - split)
            ) + 1j * rng.standard_normal((n - split, n - split))
            z0 -= np.trace(z0) / n * np.eye(n)
            zn = np.zeros((n, n), dtype=complex)
            zn[:split, split:] = rng.standard_normal(
                (split, n - split)
            ) + 1j * rng.standard_normal((split, n - split))
            t_mat = np.diag(rng.standard_normal(n)).astype(complex)
            for t in np.linspace(-2.0, 2.0, 20):
                gamma = scipy.linalg.expm(t * h)
                ginv = scipy.linalg.expm(-t * h)
                j1 = (z0.conj().T @ gamma + gamma @ z0) + t * (
                    t_mat @ gamma + gamma @ t_mat
                )
                j2 = zn.conj().T @ gamma + gamma @ zn
                worst_pairing = max(
                    worst_pairing,
                    abs(float(np.real(np.trace(ginv @ j1 @ ginv @ j2)))),
                )
    if worst_pairing > 1e-9:
        failures.append(f"orthogonality pairing {worst_pairing:.2e} (> 1e-9)")

    # directional derivative of the exponential against central differences
    worst_dexp = 0.0
    for i in range(20):
        n = 2 + i % 3
        h = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        h = 0.5 * (h + h.conj().T)
        h -= np.trace(h) / n * np.eye(n)
        x = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        x = 0.5 * (x + x.conj().T)
        x -= np.trace(x) / n * np.eye(n)
        j1, _ = jacobi_eval(geodesic_variation_spec(h, x), 1.0)
        s = 1e-6
        fd = (scipy.linalg.expm(h + s * x) - scipy.linalg.expm(h - s * x)) / (2 * s)
        worst_dexp = max(
            worst_dexp,
            float(np.linalg.norm(fd - j1)) / max(1.0, float(np.linalg.norm(j1))),
        )
    if worst_dexp > 1e-5:
        failures.append(
            f"exponential derivative off by {worst_dexp:.2e} rel (> 1e-5)"
        )

    detail = (
        f"100 specs: expansion {worst_taylor:.1e}, forms {worst_forms:.1e}; "
        f"pairing {worst_pairing:.1e}; derivative {worst_dexp:.1e}"
    )
    return _finish(4, "field-identities", detail, started, 120.0, failures)


# ---------------------------------------------------------------------------
# 5. principal-minor determinant inequality
# ---------------------------------------------------------------------------


def check_minor_inequality() -> CheckResult:
    started = time.perf_counter()
    failures: list[str] = []
    rng = np.random.default_rng(5)

    lhs, rhs, strict = minor_log_inequality(
        np.array([[2.0, 1.0], [1.0, 1.0]], dtype=complex)
    )
    if abs(lhs - 1.8524) > 1e-3 or abs(rhs - 0.9609) > 1e-3 or not strict:
        failures.append(
            f"hand case: lhs {lhs:.4f} (want 1.8524), rhs {rhs:.4f} "
            f"(want 0.9609), strict {strict}"
        )

    non_strict = violations = 0
    for trial in range(200):
        n = 2 + trial % 4
        a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        p = a @ a.conj().T + 0.05 * np.eye(n)
        p = p / np.linalg.det(p).real ** (1.0 / n)
        p = 0.5 * (p + p.conj().T)
        lhs, rhs, strict = minor_log_inequality(p)
        if lhs < rhs - 1e-12:
            violations += 1
        if not strict or lhs - rhs <= 0.0:
            non_strict += 1
    if violations:
        failures.append(f"{violations}/200 random cases violate the inequality")
    if non_strict:
        failures.append(
            f"{non_strict}/200 random non-diagonal cases failed strictness"
        )

    for trial in range(20):
        w = np.exp(rng.standard_normal(3))
        w = w / np.prod(w) ** (1.0 / 3.0)
        lhs, rhs, strict = minor_log_inequality(np.diag(w).astype(complex))
        if strict or abs(lhs - rhs) > 1e-10:
            failures.append(
                f"diagonal case {trial}: expected equality, got "
                f"lhs-rhs {lhs - rhs:.2e}, strict {strict}"
            )
            break
    detail = "hand case + 200 random strict + 20 diagonal equality"
    return _finish(5, "minor-determinant-inequality", detail, started, None, failures)


# ---------------------------------------------------------------------------
# 6. vanishing-field counterexample
# ---------------------------------------------------------------------------


def check_counterexample() -> CheckResult:
    started = time.perf_counter()
    failures: list[str] = []
    rep = counterexample_search(seed=0)
    r = rep.residuals
    if r["theta_at_one"] >= 1e-8:
        failures.append(f"field norm at the far end {r['theta_at_one']:.2e} >= 1e-8")
    if r["theta_at_zero"] <= 0.1:
        failures.append(f"field norm at the base {r['theta_at_zero']:.2e} <= 0.1")
    if r["orthogonality"] >= 1e-10:
        failures.append(f"orthogonality residual {r['orthogonality']:.2e} >= 1e-10")
    if r["nilpotency"] != 0.0:
        failures.append(f"nilpotency residual {r['nilpotency']:.2e} != 0")
    detail = (
        f"field ({r['theta_at_zero']:.3f} -> {r['theta_at_one']:.1e}), "
        f"orthogonality {r['orthogonality']:.1e}, nilpotency exact"
    )
    return _finish(6, "vanishing-field-counterexample", detail, started, None, failures)


# ---------------------------------------------------------------------------
# 7. decomposition round-trip
# ---------------------------------------------------------------------------


def check_round_trip() -> CheckResult:
    started = time.perf_counter()
    failures: list[str] = []
    names = ("su22_f12", "su23_f12", "grassmann_pair", "upper_triangular_horocycle")
    structures = [(name, _reference_structure(name)) for name in names]
    worst = 0.0
    for seed in range(50):
        name, structure = structures[seed % len(structures)]
        rng = np.random.default_rng([97, seed])
        zeta, x0 = _synthesize(structure, rng)
        try:
            result = mostow_decompose(
                zeta, structure, tol=1e-9, max_restarts=2, seed=seed
            )
        except Exception as exc:  # noqa: BLE001 - report, do not abort the suite
            failures.append(f"trial {seed} ({name}): {exc}")
            continue
        err = abs(
            float(np.linalg.norm(result.X)) - float(np.linalg.norm(x0))
        )
        worst = max(worst, err)
        if err > 1e-6:
            failures.append(
                f"trial {seed} ({name}): fiber norm error {err:.2e} > 1e-6"
            )

    grassmann_structure = structures[2][1]
    for seed in (11, 23, 37, 51, 65):
        zeta = random_group_element(
            grassmann_structure, np.random.default_rng(seed), scale=0.4
        )
        result = mostow_decompose(
            zeta, grassmann_structure, tol=1e-9, max_restarts=3, seed=seed
        )
        if result.residual >= 1e-8:
            failures.append(
                f"random element seed {seed}: residual {result.residual:.2e} >= 1e-8"
            )
        if not result.restarts_agree:
            failures.append(f"random element seed {seed}: restarts disagree")
    detail = f"50 synthesized + 5 random trials, worst norm error {worst:.1e}"
    return _finish(7, "decomposition-round-trip", detail, started, None, failures)


# ---------------------------------------------------------------------------
# 8. exhaustion function
# ---------------------------------------------------------------------------


def check_exhaustion() -> CheckResult:
    started = time.perf_counter()
    failures: list[str] = []
    structure = _reference_structure("grassmann_pair")

    worst_base = 0.0
    for seed in range(10):
        rng = np.random.default_rng([301, seed])
        u = random_compact_element(structure, rng)
        v = _nil_herm_factor(structure, rng, 0.4)
        value = exhaustion_phi(u @ v, structure, restarts=4, seed=seed)
        worst_base = max(worst_base, abs(value))
    if worst_base > 1e-8:
        failures.append(f"nonzero on the zero level set: {worst_base:.2e} > 1e-8")

    worst_invariance = 0.0
    for seed in range(10):
        rng = np.random.default_rng([302, seed])
        zeta = random_group_element(structure, rng, scale=0.4)
        u = random_compact_element(structure, rng)
        base = exhaustion_phi(zeta, structure, restarts=3, seed=seed)
        moved = exhaustion_phi(u @ zeta, structure, restarts=3, seed=seed)
        rel = abs(moved - base) / max(1.0, abs(base))
        worst_invariance = max(worst_invariance, rel)
    if worst_invariance > 1e-7:
        failures.append(
            f"left compact invariance violated: {worst_invariance:.2e} > 1e-7 rel"
        )

    worst_gap = -np.inf
    for seed in range(100):
        rng = np.random.default_rng([303, seed])
        x = _combo(
            0.3 * rng.standard_normal(structure.fiber_dim),
            structure.fiber_basis,
            structure.size,
        )
        u = random_compact_element(structure, rng)
        value = exhaustion_phi(
            scipy.linalg.expm(x) @ u, structure, restarts=2, seed=seed
        )
        bound = float(np.linalg.norm(x)) ** 2
        worst_gap = max(worst_gap, value - bound)
        if value > bound + 1e-8:
            failures.append(
                f"seed {seed}: value {value:.6f} exceeds squared fiber norm "
                f"{bound:.6f} + 1e-8"
            )
    detail = (
        f"zero set {worst_base:.1e}; invariance {worst_invariance:.1e}; "
        f"100 tangency samples, max slack {worst_gap:.1e}"
    )
    return _finish(8, "exhaustion-function", detail, started, None, failures)


# ---------------------------------------------------------------------------
# 9. Levi signature probes
# ---------------------------------------------------------------------------


def check_levi_probes() -> CheckResult:
    started = time.perf_counter()
    failures: list[str] = []
    structure = _reference_structure("grassmann_pair")
    size = structure.size
    orbit_dirs = [-m.conj().T for m in structure.nil_basis]
    transverse_dirs = [
        _unit(size, 0, 1),
        _unit(size, 0, 2),
        _unit(size, 1, 0),
        _unit(size, 2, 0),
    ]
    for seed in range(10):
        rng = np.random.default_rng([404, seed])
        coeffs = 0.35 * rng.standard_normal(structure.fiber_dim)
        if float(np.linalg.norm(coeffs)) < 0.1:
            coeffs = coeffs + 0.2
        x = _combo(coeffs, structure.fiber_basis, size)
        u = random_compact_element(structure, rng)
        zeta = u @ scipy.linalg.expm(x)
        if exhaustion_phi(zeta, structure, restarts=2, seed=seed) <= 0.0:
            failures.append(f"seed {seed}: base value not positive")
            continue
        probe = phi_levi_probe(
            zeta,
            structure,
            orbit_dirs + transverse_dirs,
            step=1e-3,
            gap_tol=1e-4,
            seed=seed,
        )
        orbit_vals = probe.values[: len(orbit_dirs)]
        trans_vals = probe.values[len(orbit_dirs):]
        if sum(1 for val in orbit_vals if val < -probe.gap) < 1:
            failures.append(
                f"seed {seed}: no negative curvature along the translated "
                f"orbit directions (values {[f'{v:.3g}' for v in orbit_vals]})"
            )
        if sum(1 for val in trans_vals if val > probe.gap) < 1:
            failures.append(
                f"seed {seed}: no positive curvature along the transverse "
                f"directions (values {[f'{v:.3g}' for v in trans_vals]})"
            )
    detail = "10 fiber points, mixed signature confirmed at step 1e-3"
    return _finish(9, "levi-signature-probes", detail, started, None, failures)


ALL_CHECKS = (
    check_structural_invariants,
    check_witt_lower_bounds,
    check_regularization,
    check_field_identities,
    check_minor_inequality,
    check_counterexample,
    check_round_trip,
    check_exhaustion,
    check_levi_probes,
)


def main() -> int:
    results = []
    for check in ALL_CHECKS:
        result = check()
        results.append(result)
        status = "PASS" if result.passed else "FAIL"
        budget = f", budget {result.budget:.0f}s" if result.budget else ""
        sys.stdout.write(
            f"{status} {result.index} {result.name}: {result.detail} "
            f"[{result.elapsed:.2f}s{budget}]\n"
        )
        for line in result.failures:
            sys.stdout.write(f"     - {line}\n")
        sys.stdout.flush()
    failed = sum(1 for r in results if not r.passed)
    sys.stdout.write(
        f"{len(results) - failed}/{len(results)} acceptance checks passed\n"
    )
    return failed


if __name__ == "__main__":
    sys.exit(main())
