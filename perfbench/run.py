"""crmostow benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload exact-grid --seed 1 --seconds 30 --trace 0

Run it from the root of a checkout; it imports crmostow from that
checkout's ``src/``.  With ``--trace 0`` it prints the end-to-end metrics,
with ``--trace 1`` the per-layer metrics of a traced run.  The last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"

WORKLOADS = ("exact-grid", "exact-large", "symspace-mix")
SETUP_SAMPLES = 3
CHILD_TIMEOUT_S = 120


class BenchError(Exception):
    """The benchmark cannot run here; nothing is printed on standard output."""


def use_checkout_source() -> None:
    """Import crmostow from this checkout's ``src/`` and nowhere else."""
    if not (SRC / "crmostow" / "__init__.py").is_file():
        raise BenchError(f"no crmostow sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def percentile(values, q: int) -> float:
    """The q-th percentile (q in 25, 50, 75), interpolated between samples."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=4, method="inclusive")[q // 25 - 1]


# --------------------------------------------------------------------------
# provenance
# --------------------------------------------------------------------------


def _version(dist: str) -> str:
    try:
        return importlib.metadata.version(dist)
    except importlib.metadata.PackageNotFoundError:
        return "absent"


def _git_commit() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown (not a git checkout)"


def provenance(seed: int) -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_commit": _git_commit(),
        "seed": seed,
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "sympy": _version("sympy"),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "MKL_NUM_THREADS": os.environ.get("MKL_NUM_THREADS"),
    }


# --------------------------------------------------------------------------
# runs
# --------------------------------------------------------------------------


def setup_samples(workload: str, seed: int, smoke: bool) -> list[float]:
    """Set-up time of fresh interpreters, one after another: interpreter
    start, imports and input generation, up to the first timed call."""
    cmd = [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)]
    if smoke:
        cmd.append("--smoke")
    samples = []
    for _ in range(SETUP_SAMPLES):
        started = time.monotonic()
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, cwd=ROOT)
        if proc.returncode != 0:
            raise BenchError(f"set-up probe failed:\n{proc.stderr}")
        samples.append(float(proc.stdout.split()[-1]) - started)
    return samples


def untraced_run(args, smoke: bool):
    setup = setup_samples(args.workload, args.seed, smoke)
    import workloads

    ops = workloads.prepare(args.workload, args.seed, smoke)
    passes = workloads.measure(ops, args.seconds)
    per_op = [statistics.median(p.latencies[i][1] for p in passes) for i in range(len(ops))]
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "work_s": (math.fsum(per_op), "s"),
        "op_geomean_ms": (1000 * statistics.geometric_mean(per_op), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    slowest = max(range(len(ops)), key=per_op.__getitem__)
    detail = [
        f"passes {len(passes)}, operations per pass {len(ops)}",
        f"slowest operation {1000 * per_op[slowest]:.1f} ms ({ops[slowest].kind} {ops[slowest].label})",
    ]
    if args.workload == "symspace-mix":
        by_kind: dict[str, list[float]] = {}
        for p in passes:
            for kind, lat in p.latencies:
                by_kind.setdefault(kind, []).append(lat)
        for kind, name, scale, unit in (("decompose", "decompose_ms", 1000, "ms"),
                                        ("exhaust", "exhaust_ms", 1000, "ms")):
            lat = by_kind[kind]
            detail.append(f"{name}_p50 {scale * percentile(lat, 50):.3f} {unit} (n={len(lat)})")
            detail.append(f"{name}_p75 {scale * percentile(lat, 75):.3f} {unit} (n={len(lat)})")
        lat = by_kind["probe"]
        detail.append(f"levi_probe_s_p50 {percentile(lat, 50):.4f} s (n={len(lat)})")
    else:
        detail.append(f"analyze_s {metrics['work_s'][0]:.4f} s (time of all analyses of one pass)")
    detail.append("setup samples " + " ".join(f"{s:.4f}" for s in setup) + " s")
    return passes, metrics, detail


def traced_run(args, smoke: bool, prov: dict):
    """Traced set-up, then one pass in which each operation runs once with
    every layer wrapped and once unwrapped, alternately, so that both sides
    of ``trace_overhead_frac`` see the same machine conditions."""
    import tracing
    import workloads

    rec = tracing.Recorder()
    rec.install()
    try:
        ops = workloads.prepare(args.workload, args.seed, smoke)
    finally:
        rec.uninstall()
    rec.phase = 1
    traced, plain = workloads.run_pass_alternating(ops, rec)
    metrics = rec.layer_metrics(traced.total_s)
    metrics["trace_overhead_frac"] = (traced.total_s / plain.total_s - 1.0, "ratio")
    OUT_DIR.mkdir(exist_ok=True)
    spans_path = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json.gz"
    rec.dump(spans_path, prov)
    detail = [
        f"traced operations {traced.total_s:.4f} s, the same untraced {plain.total_s:.4f} s",
        f"{len(rec.start)} spans written to {spans_path.relative_to(ROOT)}",
    ]
    return [traced, plain], metrics, detail


def main(argv=None, smoke: bool = False) -> int:
    """Run one workload and print its metrics.  ``smoke`` shrinks every
    workload to a few small inputs, for the benchmark's own tests."""
    args = parse_args(argv)
    try:
        use_checkout_source()
        prov = provenance(args.seed)
        if args.trace:
            passes, metrics, detail = traced_run(args, smoke, prov)
        else:
            passes, metrics, detail = untraced_run(args, smoke)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    attempted = sum(len(p.latencies) for p in passes)
    failed = sum(p.failed for p in passes)
    print("provenance " + json.dumps(prov, sort_keys=True))
    for line in detail:
        print(line)
    for p in passes:
        for problem in p.problems:
            print(f"FAILED {problem}")
    print(f"ops_failed_frac {failed / attempted:.4f} ratio (failed {failed} of {attempted})")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
