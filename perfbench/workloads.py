"""Seeded inputs, operations and output checks of the crmostow benchmark.

Everything here drives crmostow through its public functions: the catalog,
``structure.make_subalgebra``, ``cli.build_analysis_report`` and the
``symspace`` entry points.  Calls go through module attributes
(``cli.build_analysis_report``, not a name imported into this module), so
that the traced run's rebinding of those attributes is seen here too.

A workload is a list of operations.  One *pass* runs every operation once,
in order, in this process, each call starting after the previous one
returned.  Every pass of an exact workload builds its subalgebras in fresh
``AmbientAlgebra`` objects, so the per-ambient caches (``_subalgebras``, the
lazy ``space``/``k0``/``p0``) and the per-subalgebra ``_cache`` start empty,
as in a fresh ``crmostow analyze`` process, while the ambients are still
shared across the inputs of one pass.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from crmostow import catalog, cli, structure, symspace
from crmostow.ambient import AmbientAlgebra
from crmostow.exact import ExactMatrix

WORKLOADS = ("exact-grid", "exact-large", "symspace-mix")

FIXED_ENTRIES = (
    "su22_f12",
    "su23_f13",
    "su23_f12",
    "so_n_symmetric",
    "upper_triangular_horocycle",
)
GRID_BOUND = 5
LARGE_PARAMS = {"p": 2, "q": 5, "n": 7, "k": 1}
REFERENCE_PARAMS = {"p": 1, "q": 2, "n": 3, "k": 1}
SYMSPACE_SPECS = (
    ("su22_f12", None),
    ("su23_f12", None),
    ("grassmann_pair", REFERENCE_PARAMS),
    ("upper_triangular_horocycle", None),
)
# Calls of each kind per structure in one symspace-mix pass, and probes per
# pass (on the grassmann_pair structure, where acceptance check 9 pins the
# mixed signature).
DECOMPOSE_PER_STRUCTURE = 10
EXHAUST_PER_STRUCTURE = 10
PROBES_PER_PASS = 2


# --------------------------------------------------------------------------
# operations
# --------------------------------------------------------------------------


@dataclass
class AnalysisOp:
    """One ``crmostow analyze`` equivalent on a conjugated catalog input."""

    label: str
    params: dict | None
    blocks: tuple[int, ...]
    generators: tuple[ExactMatrix, ...]
    expected: catalog.ExpectedInvariants
    seed: int
    kind: str = "analyze"

    def run(self, ambients: dict) -> tuple[dict, int]:
        amb = ambients.get(self.blocks)
        if amb is None:
            amb = ambients[self.blocks] = AmbientAlgebra(self.blocks)
        v = structure.make_subalgebra(amb, self.generators)
        echo = {"catalog": self.label, "params": self.params, "conjugation_seed": self.seed}
        report = cli.build_analysis_report(v, echo, seed=self.seed, expected=self.expected)
        return report, amb.dim

    def check(self, result: tuple[dict, int]) -> list[str]:
        report, ambient_dim = result
        return check_analysis(self.label, self.params, report, ambient_dim)


def check_analysis(label: str, params: dict | None, report: dict, ambient_dim: int) -> list[str]:
    """Problems with one analysis report: catalog discrepancies, and the
    closed forms of acceptance checks 1 and 2."""
    problems = [
        f"{label} {params}: {d['field']} computed {d['computed']}, expected {d['expected']}"
        for d in report.get("discrepancies", [])
    ]
    if report.get("cr_type") is not None:
        cr_dim, codim = report["cr_type"]["value"]
        if cr_dim + codim != ambient_dim - report["dims"]["v"]:
            problems.append(
                f"{label} {params}: cr_dim + codim = {cr_dim + codim}, "
                f"dim k - dim v = {ambient_dim - report['dims']['v']}"
            )
    if label == "grassmann_pair":
        p, q, n, k = params["p"], params["q"], params["n"], params["k"]
        d = 2 * k * (n + 1 + k - p - q)
        codim = report["cr_type"]["value"][1] if report.get("cr_type") else None
        if codim != d:
            problems.append(f"{label} {params}: codim {codim}, expected 2*n2*n3 = {d}")
        if d > 0 and report["witt_lower_bound"]["value"] != p + q - 2 * k:
            problems.append(
                f"{label} {params}: witt bound {report['witt_lower_bound']['value']}, "
                f"expected p+q-2k = {p + q - 2 * k}"
            )
    return problems


@dataclass
class NumericOp:
    """One symmetric-space call with a synthesized input of known answer."""

    kind: str  # "decompose", "exhaust" or "probe"
    label: str
    mostow: symspace.MostowStructure
    zeta: np.ndarray
    seed: int
    bound: float  # see ``check``
    tangency: bool = False
    directions: tuple = ()
    n_orbit: int = 0

    def run(self, _ambients: dict):
        if self.kind == "decompose":
            return symspace.mostow_decompose(
                self.zeta, self.mostow, tol=1e-9, max_restarts=2, seed=self.seed
            )
        if self.kind == "exhaust":
            restarts = 2 if self.tangency else 4
            return symspace.exhaustion_phi(
                self.zeta, self.mostow, restarts=restarts, seed=self.seed
            )
        return symspace.phi_levi_probe(
            self.zeta, self.mostow, list(self.directions), step=1e-3, gap_tol=1e-4, seed=self.seed
        )

    def check(self, result) -> list[str]:
        """Identities of acceptance checks 7-9, at their tolerances.

        ``bound`` is the known fiber norm ‖X‖ for a decomposition, and the
        largest admissible exhaustion value for an exhaustion call
        (‖X‖² at a tangency point, 0 on the zero set).
        """
        where = f"{self.kind} {self.label} seed {self.seed}"
        if self.kind == "decompose":
            err = abs(result.fiber_norm - self.bound)
            return [] if err <= 1e-6 else [f"{where}: fiber norm error {err:.2e} > 1e-6"]
        if self.kind == "exhaust":
            return [] if result <= self.bound + 1e-8 else [
                f"{where}: value {result:.3e} > {self.bound:.3e} + 1e-8"
            ]
        orbit = result.values[: self.n_orbit]
        transverse = result.values[self.n_orbit :]
        problems = []
        if not any(val < -result.gap for val in orbit):
            problems.append(f"{where}: no negative orbit value")
        if not any(val > result.gap for val in transverse):
            problems.append(f"{where}: no positive transverse value")
        return problems


# --------------------------------------------------------------------------
# input generation
# --------------------------------------------------------------------------


def signed_block_permutation(blocks: tuple[int, ...], rng: np.random.Generator) -> ExactMatrix:
    """A signed permutation matrix that permutes indices within each block.

    It is unitary and preserves the block structure, so conjugating by it
    maps the ambient algebra and its compact form to themselves and leaves
    every invariant of a subalgebra unchanged.
    """
    n = sum(blocks)
    rows = [[0] * n for _ in range(n)]
    start = 0
    for b in blocks:
        for i, j in enumerate(rng.permutation(b)):
            rows[start + int(j)][start + i] = int(rng.choice((-1, 1)))
        start += b
    return ExactMatrix(rows)


def _analysis_op(name: str, params: dict | None, seed: int, index: int) -> AnalysisOp:
    entry = catalog.build(name, params)
    blocks = entry.ambient.blocks
    g = signed_block_permutation(blocks, np.random.default_rng([seed, index]))
    g_inv = g.transpose()
    generators = tuple(g @ m @ g_inv for m in entry.subalgebra.basis())
    return AnalysisOp(name, params, blocks, generators, entry.expected, seed)


def _exact_specs(workload: str, smoke: bool = False) -> list[tuple[str, dict | None]]:
    if workload == "exact-large":
        return [("grassmann_pair", REFERENCE_PARAMS if smoke else LARGE_PARAMS)]
    if smoke:
        return [("upper_triangular_horocycle", None), ("grassmann_pair", {"p": 1, "q": 2, "n": 2, "k": 1})]
    grid = catalog.grassmann_parameter_grid(GRID_BOUND)
    return [(name, None) for name in FIXED_ENTRIES] + [("grassmann_pair", p) for p in grid]


def _span(basis, coeffs) -> np.ndarray:
    out = np.zeros_like(basis[0])
    for c, m in zip(coeffs, basis):
        out = out + c * m
    return out


def _group_factor_element(mostow, rng: np.random.Generator, scale: float) -> np.ndarray:
    """exp(N)·exp(P) with N in the nilpotent part and P in the Hermitian part."""
    v = np.eye(mostow.size, dtype=complex)
    if mostow.nil_basis:
        c = scale * rng.standard_normal(2 * len(mostow.nil_basis))
        v = v @ scipy.linalg.expm(_span(mostow.nil_basis, c[0::2] + 1j * c[1::2]))
    if mostow.herm_basis:
        v = v @ scipy.linalg.expm(
            _span(mostow.herm_basis, scale * rng.standard_normal(len(mostow.herm_basis)))
        )
    return v


def _fiber_element(mostow, rng: np.random.Generator, scale: float) -> np.ndarray:
    return _span(mostow.fiber_basis, scale * rng.standard_normal(mostow.fiber_dim))


def _unit(n: int, i: int, j: int) -> np.ndarray:
    m = np.zeros((n, n), dtype=complex)
    m[i, j] = 1.0
    return m


def build_structures(smoke: bool = False) -> list[tuple[str, symspace.MostowStructure]]:
    specs = [SYMSPACE_SPECS[2]] if smoke else SYMSPACE_SPECS
    return [
        (name, symspace.mostow_structure(catalog.build(name, params).subalgebra))
        for name, params in specs
    ]


def numeric_ops(structures, seed: int, smoke: bool = False) -> list[NumericOp]:
    """One pass of symspace-mix calls, synthesized from ``seed``.

    Inputs are built as in acceptance checks 7-9, from
    ``random_compact_element`` and the structure's own bases, so the correct
    answer of every call is known.
    """
    n_dec = 1 if smoke else DECOMPOSE_PER_STRUCTURE
    n_exh = 2 if smoke else EXHAUST_PER_STRUCTURE
    ops: list[NumericOp] = []
    rng = np.random.default_rng([seed, 7])
    next_seed = iter(range(seed * 1000, seed * 1000 + 1000))
    for label, mostow in structures:
        for _ in range(n_dec):
            u = symspace.random_compact_element(mostow, rng, scale=1.0)
            x = _fiber_element(mostow, rng, 0.35)
            zeta = u @ scipy.linalg.expm(x) @ _group_factor_element(mostow, rng, 0.35)
            ops.append(NumericOp("decompose", label, mostow, zeta, next(next_seed), float(np.linalg.norm(x))))
        for k in range(n_exh):
            u = symspace.random_compact_element(mostow, rng, scale=1.0)
            if k % 2 == 0:  # zero set: φ(u·v) = 0
                zeta = u @ _group_factor_element(mostow, rng, 0.4)
                ops.append(NumericOp("exhaust", label, mostow, zeta, next(next_seed), 0.0))
            else:  # tangency: φ(exp(X)·u) <= ‖X‖²
                x = _fiber_element(mostow, rng, 0.3)
                zeta = scipy.linalg.expm(x) @ u
                ops.append(
                    NumericOp("exhaust", label, mostow, zeta, next(next_seed),
                              float(np.linalg.norm(x)) ** 2, tangency=True)
                )
    label, mostow = next(s for s in structures if s[0] == "grassmann_pair")
    size = mostow.size
    orbit = [-m.conj().T for m in mostow.nil_basis]
    transverse = [_unit(size, 0, 1), _unit(size, 0, 2), _unit(size, 1, 0), _unit(size, 2, 0)]
    for _ in range(PROBES_PER_PASS):
        coeffs = 0.35 * rng.standard_normal(mostow.fiber_dim)
        if float(np.linalg.norm(coeffs)) < 0.1:
            coeffs = coeffs + 0.2
        u = symspace.random_compact_element(mostow, rng, scale=1.0)
        zeta = u @ scipy.linalg.expm(_span(mostow.fiber_basis, coeffs))
        ops.append(
            NumericOp("probe", label, mostow, zeta, next(next_seed), 0.0,
                      directions=tuple(orbit + transverse), n_orbit=len(orbit))
        )
    return ops


def prepare(workload: str, seed: int, smoke: bool = False) -> list:
    """The operations of one pass of ``workload``; all set-up work happens here."""
    if workload in ("exact-grid", "exact-large"):
        return [_analysis_op(n, p, seed, i) for i, (n, p) in enumerate(_exact_specs(workload, smoke))]
    if workload == "symspace-mix":
        return numeric_ops(build_structures(smoke), seed, smoke)
    raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")


# --------------------------------------------------------------------------
# timing
# --------------------------------------------------------------------------


@dataclass
class PassResult:
    total_s: float = 0.0
    latencies: list[tuple[str, float]] = field(default_factory=list)
    problems: list[str] = field(default_factory=list)
    failed: int = 0


def _run_op(op, ambients: dict, out: PassResult) -> None:
    """Run and check one operation, adding its latency and verdict to ``out``.

    A failed operation (it raised, or its output broke a check) is still
    timed and is counted in ``out.failed``.
    """
    t0 = time.perf_counter()
    try:
        result = op.run(ambients)
        error = None
    except Exception as exc:  # noqa: BLE001 - a failure is a measured outcome
        error = exc
    latency = time.perf_counter() - t0
    out.latencies.append((op.kind, latency))
    out.total_s += latency
    problems = [f"{op.kind} {op.label}: {type(error).__name__}: {error}"] if error else op.check(result)
    if problems:
        out.failed += 1
        out.problems.extend(problems)


def run_pass(ops) -> PassResult:
    """Run every operation once, closed loop, and check each output."""
    ambients: dict = {}
    out = PassResult()
    for op in ops:
        _run_op(op, ambients, out)
    return out


def run_pass_alternating(ops, recorder) -> tuple[PassResult, PassResult]:
    """One pass with each operation run traced and then untraced; the two
    sides keep separate ambients, so each side sees cold caches."""
    traced, plain = PassResult(), PassResult()
    traced_ambients: dict = {}
    plain_ambients: dict = {}
    for i, op in enumerate(ops):
        recorder.op_id = i
        recorder.install()
        try:
            _run_op(op, traced_ambients, traced)
        finally:
            recorder.uninstall()
        _run_op(op, plain_ambients, plain)
    return traced, plain


def measure(ops, seconds: float) -> list[PassResult]:
    """One pass, then more while the next is expected to end within ``seconds``."""
    passes: list[PassResult] = []
    start = time.perf_counter()
    while True:
        passes.append(run_pass(ops))
        if time.perf_counter() - start + passes[-1].total_s > seconds:
            return passes
