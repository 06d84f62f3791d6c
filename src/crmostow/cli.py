"""Command-line front end: JSON subalgebra specifications in, JSON or
TAP-style reports out.

Commands: ``analyze`` (full structure pipeline), ``decompose`` (group
factorization), ``exhaust`` (exhaustion-function evaluation), ``verify``
(self-check suites), ``catalog`` (list and export built-in entries).

``verify`` writes TAP and re-implements no check.  Its structural suite is
the ``analyze`` catalog comparison, one line per pinned field of each
entry; its numeric suite runs acceptance checks 4-7 from
``crmostow.acceptance``.  Those checks carry their own fixed seeds, so
``verify`` takes no ``--seed``.

Exit codes: 0 success; 1 verification failures; 2 malformed input or
bracket-closure failure (with the offending bracket as a certificate);
3 irrational weights in the exact pipeline; 4 numerical non-convergence;
5 restart disagreement without ``--allow-nonunique``.

Reports are schema-versioned and byte-identical for identical inputs and
seeds.  Values that mirror published expectations carry a ``source`` tag
("computed" vs "paper-expected") and discrepancies are listed, never
silently reconciled.
"""

from __future__ import annotations

import argparse
import cmath
import json
import sys
from typing import TYPE_CHECKING, Any, Sequence

from . import catalog
from .ambient import AmbientAlgebra, block_special_linear, special_linear
from .crinv import REFINEMENT_STEPS, cohomology_ranges, cr_type, fiber_data, levi_report
from .errors import (
    ClosureError,
    IrrationalWeightsError,
    NonConvergenceError,
    RestartDisagreementError,
)
from .exact import ExactMatrix
from .parabolic import (
    horocyclic_verdict,
    largest_intermediate,
    maximal_envelope,
    minimal_envelope,
    parabolic_regularization,
)
from .structure import Subalgebra, make_subalgebra

if TYPE_CHECKING:
    import numpy as np

# The floating-point layer (NumPy, ``symspace``, ``acceptance``) is imported
# by the commands that run it, so ``analyze``, ``catalog`` and the structural
# ``verify`` suite load neither NumPy nor SciPy.

SCHEMA = "crmostow/1"

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_BAD_INPUT = 2
EXIT_IRRATIONAL = 3
EXIT_NONCONVERGENT = 4
EXIT_DISAGREEMENT = 5


# --------------------------------------------------------------------------
# JSON <-> exact matrices
# --------------------------------------------------------------------------


def _matrix_from_json(rows: Any, n: int) -> ExactMatrix:
    if not isinstance(rows, list) or len(rows) != n:
        raise ValueError(f"matrix must have {n} rows")
    parsed = []
    for row in rows:
        if not isinstance(row, list) or len(row) != n:
            raise ValueError(f"matrix must have {n} columns per row")
        parsed.append([catalog.parse_gaussian(e) for e in row])
    return ExactMatrix(parsed)


def _matrix_to_json(m: ExactMatrix) -> list:
    return [
        [[str(e.re), str(e.im)] for e in row]
        for row in m.entries
    ]


def _float_matrix_to_json(a: np.ndarray) -> list:
    return [[[float(v.real), float(v.imag)] for v in row] for row in a]


def _float_entry_from_json(pair: Any) -> complex:
    if (
        not isinstance(pair, (list, tuple))
        or len(pair) != 2
        or any(isinstance(x, bool) or not isinstance(x, (int, float)) for x in pair)
    ):
        raise ValueError(
            f"matrix entry must be a [re, im] pair of real numbers, got {pair!r}"
        )
    try:
        value = complex(pair[0], pair[1])
    except OverflowError:  # an integer beyond the float range
        value = complex(cmath.inf)
    if not cmath.isfinite(value):
        raise ValueError(f"matrix entry must be finite, got {pair!r}")
    return value


def _float_matrix_from_json(rows: Any) -> np.ndarray:
    if (
        not isinstance(rows, list)
        or not rows
        or any(not isinstance(row, list) or len(row) != len(rows) for row in rows)
    ):
        raise ValueError("matrix must be a square list of rows")
    import numpy as np

    return np.array(
        [[_float_entry_from_json(e) for e in row] for row in rows], dtype=complex
    )


def parse_subalgebra_spec(doc: Any) -> tuple[AmbientAlgebra, Subalgebra, dict]:
    """Parse and validate a JSON subalgebra specification.

    Returns the ambient algebra, the bracket-closed subalgebra, and a
    canonical echo of the input.
    """
    if not isinstance(doc, dict):
        raise ValueError("specification must be a JSON object")
    unknown = set(doc) - {"n", "ambient", "basis", "name"}
    if unknown:
        raise ValueError(f"unknown specification fields: {sorted(unknown)}")
    n = doc.get("n")
    if not isinstance(n, int) or isinstance(n, bool) or n < 2:
        raise ValueError("'n' must be an integer >= 2")
    ambient_doc = doc.get("ambient", "sl")
    if ambient_doc == "sl":
        amb = special_linear(n)
    elif isinstance(ambient_doc, dict) and set(ambient_doc) == {"blocks"}:
        blocks = ambient_doc["blocks"]
        if (
            not isinstance(blocks, list)
            or not blocks
            or any(not isinstance(b, int) or isinstance(b, bool) or b < 1 for b in blocks)
        ):
            raise ValueError("'ambient.blocks' must be a list of positive integers")
        if sum(blocks) != n:
            raise ValueError("'ambient.blocks' must sum to n")
        amb = block_special_linear(tuple(blocks))
    else:
        raise ValueError("'ambient' must be \"sl\" or {\"blocks\": [...]}")
    basis_doc = doc.get("basis")
    if not isinstance(basis_doc, list) or not basis_doc:
        raise ValueError("'basis' must be a non-empty list of matrices")
    mats = [_matrix_from_json(rows, n) for rows in basis_doc]
    for k, m in enumerate(mats):
        if not amb.contains(m):
            raise ValueError(f"basis matrix {k} is not in the ambient algebra")
    sub = make_subalgebra(amb, mats, mode="require_closed")
    echo = {
        "n": n,
        "ambient": "sl" if len(amb.blocks) == 1 else {"blocks": list(amb.blocks)},
        "basis": [_matrix_to_json(m) for m in mats],
    }
    if "name" in doc:
        echo["name"] = str(doc["name"])
    return amb, sub, echo


def subalgebra_spec_from_entry(entry: catalog.CatalogEntry) -> dict:
    amb = entry.ambient
    spec: dict[str, Any] = {
        "name": entry.name,
        "n": amb.n,
        "ambient": "sl" if len(amb.blocks) == 1 else {"blocks": list(amb.blocks)},
        "basis": [_matrix_to_json(m) for m in entry.subalgebra.basis()],
    }
    if entry.params:
        spec["name"] = "{}[{}]".format(
            entry.name,
            ",".join(f"{k}={v}" for k, v in sorted(entry.params.items())),
        )
    return spec


def _emit(doc: dict, out_path: str | None) -> None:
    text = json.dumps(doc, indent=2, sort_keys=True)
    if out_path and out_path != "-":
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        sys.stdout.write(text + "\n")


def _load_json(path: str) -> Any:
    if path == "-":
        return json.load(sys.stdin)
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _parse_params(raw: str | None) -> dict | None:
    if raw is None:
        return None
    doc = json.loads(raw)
    if not isinstance(doc, dict):
        raise ValueError("--params must be a JSON object")
    return doc


def _resolve_input(args: argparse.Namespace) -> tuple[Subalgebra, dict, Any]:
    """Common input resolution: --catalog NAME or a spec file path.

    Returns (subalgebra, echo, expected-invariants-or-None).
    """
    if args.catalog:
        entry = catalog.build(args.catalog, _parse_params(args.params))
        echo = subalgebra_spec_from_entry(entry)
        return entry.subalgebra, echo, entry.expected
    if not args.input:
        raise ValueError("provide an input file or --catalog NAME")
    _, sub, echo = parse_subalgebra_spec(_load_json(args.input))
    return sub, echo, None


# --------------------------------------------------------------------------
# analyze
# --------------------------------------------------------------------------


def build_analysis_report(
    v: Subalgebra,
    echo: dict,
    sheaf_depth: int = 0,
    grid_density: int = 1,
    seed: int = 0,
    expected=None,
) -> dict:
    # checked here, not only where the Levi and cohomology steps use them,
    # so that inputs which never reach those steps reject them too
    if sheaf_depth < 0:
        raise ValueError(f"sheaf depth must be nonnegative, got {sheaf_depth}")
    if grid_density < 1:
        raise ValueError(f"grid density must be at least 1, got {grid_density}")
    warnings: list[str] = []
    report: dict[str, Any] = {
        "schema": SCHEMA,
        "command": "analyze",
        "input": echo,
        "seed": seed,
        "warnings": warnings,
    }

    verdict = v.n_reductive_verdict
    report["n_reductive"] = {"value": verdict.ok, "source": "computed"}
    report["dims"] = {
        "v": v.dim,
        "nr_v": v.nr.dim,
        "levi_v": v.levi_part.dim,
    }

    try:
        trace = parabolic_regularization(v)
        report["regularization"] = {
            "chain_dims": [s.dim for s in trace.chain],
            "steps": trace.steps,
            "fixed_point_dim": trace.fixed_point.dim,
        }
    except ValueError as exc:
        warnings.append(f"regularization unavailable: {exc}")
        report["regularization"] = None

    def _parabolic_summary(p) -> dict:
        return {
            "dim": p.q.dim,
            "nilradical_dim": p.nilradical.dim,
            "flag_dims": list(p.flag_dims),
        }

    if not verdict.ok:
        warnings.append("not n-reductive: envelope and fiber data unavailable")
        for key in (
            "envelopes",
            "intermediate",
            "hnr",
            "strict_hnr",
            "cr_type",
            "f0_dim",
            "l_dim",
            "witt_lower_bound",
            "cohomology_ranges",
        ):
            report[key] = None
        if expected is not None:
            report["expected"] = _expected_to_json(expected)
            report["discrepancies"] = _discrepancies(report, expected)
        return report

    q_min = minimal_envelope(v)
    q_max = maximal_envelope(v, q_min)
    report["envelopes"] = {
        "q_min": _parabolic_summary(q_min),
        "q_max": _parabolic_summary(q_max),
    }

    w = largest_intermediate(v)
    report["intermediate"] = {
        "dim": w.dim,
        "basis": [_matrix_to_json(m) for m in w.basis()],
    }

    hv = horocyclic_verdict(v)
    report["hnr"] = {"value": hv.horocyclic, "source": "computed"}
    report["strict_hnr"] = {"value": hv.strictly_horocyclic, "source": "computed"}

    ct = cr_type(v)
    report["cr_type"] = {
        "value": [ct.cr_dim, ct.cr_codim],
        "complex_orbit_dim": ct.complex_orbit_dim,
        "source": "computed",
    }

    fd = fiber_data(v)
    report["f0_dim"] = fd.hermitian_part.dim
    report["l_dim"] = fd.nilpotent_complement.dim

    witt = None
    signatures = None
    if ct.cr_codim == 0:
        # codimension 0: no characteristic covectors, so no scalar Levi form
        warnings.append("scalar form sampling unavailable: empty characteristic space")
    else:
        lr = levi_report(v, grid_density=grid_density, seed=seed)
        witt = lr.witt_lower_bound
        signatures = len(lr.sampled_signatures)
    report["witt_lower_bound"] = {
        "value": witt,
        "sampling": {
            "grid_density": grid_density,
            "refinement_steps": REFINEMENT_STEPS,
            "seed": seed,
            "signatures_sampled": signatures,
        },
        "source": "computed",
    }

    if witt is not None:
        cr = cohomology_ranges(witt, ct.cr_dim, sheaf_depth)
        report["cohomology_ranges"] = {
            "concavity": cr.concavity,
            "cr_dim": cr.cr_dim,
            "sheaf_depth": cr.sheaf_depth,
            "finite_low": list(cr.finite_low),
            "finite_high": list(cr.finite_high),
        }
    else:
        report["cohomology_ranges"] = None

    if expected is not None:
        report["expected"] = _expected_to_json(expected)
        report["discrepancies"] = _discrepancies(report, expected)
    return report


def _expected_to_json(expected: catalog.ExpectedInvariants) -> dict:
    return {
        "source": "paper-expected",
        "n_reductive": expected.n_reductive,
        "strict_hnr": expected.strict_hnr,
        "hnr": expected.hnr,
        "cr_type": list(expected.cr_type) if expected.cr_type else None,
        "witt": expected.witt,
        "f0_dim": expected.f0_dim,
        "notes": expected.notes,
    }


def _comparisons(report: dict, expected: catalog.ExpectedInvariants) -> list:
    """``(field, computed, expected)`` for every pinned field of ``expected``
    that the report computed."""
    found = []

    def compare(field: str, computed, wanted) -> None:
        if wanted is not None:
            found.append((field, computed, wanted))

    compare("n_reductive", report["n_reductive"]["value"], expected.n_reductive)
    if report.get("hnr") is not None:
        compare("hnr", report["hnr"]["value"], expected.hnr)
        compare("strict_hnr", report["strict_hnr"]["value"], expected.strict_hnr)
    if report.get("cr_type") is not None and expected.cr_type is not None:
        compare(
            "cr_type",
            tuple(report["cr_type"]["value"]),
            tuple(expected.cr_type),
        )
    if report.get("f0_dim") is not None:
        compare("f0_dim", report["f0_dim"], expected.f0_dim)
    if (
        report.get("witt_lower_bound") is not None
        and report["witt_lower_bound"]["value"] is not None
    ):
        compare("witt", report["witt_lower_bound"]["value"], expected.witt)
    return found


def _discrepancies(report: dict, expected: catalog.ExpectedInvariants) -> list:
    return [
        {"field": field, "computed": computed, "expected": wanted}
        for field, computed, wanted in _comparisons(report, expected)
        if computed != wanted
    ]


def cmd_analyze(args: argparse.Namespace) -> int:
    sub, echo, expected = _resolve_input(args)
    report = build_analysis_report(
        sub,
        echo,
        sheaf_depth=args.hd,
        grid_density=args.levi_grid,
        seed=args.seed,
        expected=expected,
    )
    _emit(report, args.out)
    return EXIT_OK


# --------------------------------------------------------------------------
# decompose / exhaust
# --------------------------------------------------------------------------


def _resolve_zeta(args: argparse.Namespace, structure) -> tuple[np.ndarray, dict]:
    import numpy as np

    from .symspace import random_group_element

    if not cmath.isfinite(args.scale):
        raise ValueError(f"--scale must be finite, got {args.scale}")
    if args.seed < 0:
        raise ValueError(f"--seed must be non-negative, got {args.seed}")
    if args.zeta:
        zeta = _float_matrix_from_json(_load_json(args.zeta))
        return zeta, {"source": "file", "path": args.zeta}
    if args.random:
        rng = np.random.default_rng(args.seed)
        zeta = random_group_element(structure, rng, scale=args.scale)
        return zeta, {"source": "random", "seed": args.seed, "scale": args.scale}
    return np.eye(structure.size, dtype=complex), {"source": "identity"}


def cmd_decompose(args: argparse.Namespace) -> int:
    from .symspace import mostow_decompose, mostow_structure

    sub, echo, _ = _resolve_input(args)
    structure = mostow_structure(sub)
    if not structure.horocyclic and not args.allow_nonunique:
        raise ValueError(
            "the decomposition is only canonically defined when the "
            "intermediate nilpotent part is horocyclic; pass "
            "--allow-nonunique to proceed anyway"
        )
    zeta, zeta_info = _resolve_zeta(args, structure)
    result = mostow_decompose(
        zeta,
        structure,
        tol=args.tol,
        max_restarts=args.max_restarts,
        seed=args.seed,
        require_unique=not args.allow_nonunique,
    )
    report = {
        "schema": SCHEMA,
        "command": "decompose",
        "input": echo,
        "zeta": dict(zeta_info, matrix=_float_matrix_to_json(zeta)),
        "options": {
            "tol": args.tol,
            "max_restarts": args.max_restarts,
            "seed": args.seed,
        },
        "result": {
            "u": _float_matrix_to_json(result.u),
            "X": _float_matrix_to_json(result.X),
            "Z": _float_matrix_to_json(result.Z),
            "v_params": [float(c) for c in result.v_params],
            "residual": result.residual,
            "restarts_agree": result.restarts_agree,
            "fiber_norm": result.fiber_norm,
        },
    }
    _emit(report, args.out)
    return EXIT_OK


def cmd_exhaust(args: argparse.Namespace) -> int:
    from .symspace import exhaustion_phi, mostow_structure

    sub, echo, _ = _resolve_input(args)
    structure = mostow_structure(sub)
    zeta, zeta_info = _resolve_zeta(args, structure)
    phi = exhaustion_phi(
        zeta,
        structure,
        restarts=args.restarts,
        seed=args.seed,
        cross_check=args.cross_check,
    )
    report = {
        "schema": SCHEMA,
        "command": "exhaust",
        "input": echo,
        "zeta": dict(zeta_info, matrix=_float_matrix_to_json(zeta)),
        "options": {"restarts": args.restarts, "seed": args.seed},
        "phi": phi,
        "cross_checked": args.cross_check and structure.cross_checkable,
    }
    _emit(report, args.out)
    return EXIT_OK


# --------------------------------------------------------------------------
# verify
# --------------------------------------------------------------------------


def _structural_checks() -> list[tuple[str, bool, str]]:
    """The ``analyze`` catalog comparison, one check per pinned field."""
    checks: list[tuple[str, bool, str]] = []
    for name in catalog.entry_names():
        entry = catalog.build(name, catalog.REFERENCE_PARAMS.get(name))
        report = build_analysis_report(
            entry.subalgebra, subalgebra_spec_from_entry(entry)
        )
        for field, computed, wanted in _comparisons(report, entry.expected):
            label = "witt_lower_bound" if field == "witt" else field
            detail = f"expected {wanted}, computed {computed}"
            checks.append((f"{name}: {label}", computed == wanted, detail))
    return checks


def _numeric_checks() -> list[tuple[str, bool, str]]:
    """Acceptance checks 4-7: field identities, the minor-determinant
    inequality, the vanishing-field counterexample and the decomposition
    round trip."""
    from . import acceptance

    results = [check() for check in acceptance.ALL_CHECKS[3:7]]
    return [(r.name, r.passed, "; ".join(r.failures)) for r in results]


def cmd_verify(args: argparse.Namespace) -> int:
    checks: list[tuple[str, bool, str]] = []
    if args.suite in ("structural", "all"):
        checks.extend(_structural_checks())
    if args.suite in ("numeric", "all"):
        checks.extend(_numeric_checks())
    sys.stdout.write(f"1..{len(checks)}\n")
    failures = 0
    for idx, (label, ok, detail) in enumerate(checks, start=1):
        if ok:
            sys.stdout.write(f"ok {idx} - {label}\n")
        else:
            failures += 1
            sys.stdout.write(f"not ok {idx} - {label}: {detail}\n")
    sys.stdout.write(f"# passed {len(checks) - failures}/{len(checks)}\n")
    return EXIT_OK if failures == 0 else EXIT_VERIFY_FAILED


# --------------------------------------------------------------------------
# catalog
# --------------------------------------------------------------------------


def cmd_catalog(args: argparse.Namespace) -> int:
    if args.action == "list":
        doc = {
            "schema": SCHEMA,
            "command": "catalog",
            "entries": list(catalog.entry_names()),
        }
        _emit(doc, args.out)
        return EXIT_OK
    entry = catalog.build(args.name, _parse_params(args.params))
    _emit(subalgebra_spec_from_entry(entry), args.out)
    return EXIT_OK


# --------------------------------------------------------------------------
# argument parsing and dispatch
# --------------------------------------------------------------------------


def _add_input_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("input", nargs="?", help="path to a subalgebra spec (JSON), or - for stdin")
    p.add_argument("--catalog", help="use a built-in catalog entry instead of a file")
    p.add_argument("--params", help="JSON parameters for a parametrized catalog entry")


def _add_zeta_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--zeta", help="path to a JSON matrix [[...[re,im]...]] (default: identity)")
    p.add_argument("--random", action="store_true", help="sample a random group element")
    p.add_argument("--scale", type=float, default=0.3, help="scale of the random sample")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="crmostow",
        description="Structure theory and symmetric-space numerics for "
        "matrix subalgebra pairs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="run the full structure pipeline")
    _add_input_options(p)
    p.add_argument("--hd", type=int, default=0, help="sheaf depth for finiteness ranges")
    p.add_argument("--levi-grid", type=int, default=1, help="signature sampling density")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", help="write the report here instead of stdout")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("decompose", help="factor a group element through the fiber")
    _add_input_options(p)
    _add_zeta_options(p)
    p.add_argument("--tol", type=float, default=1e-9)
    p.add_argument(
        "--max-restarts",
        type=int,
        default=8,
        help="optimizer starts, all of which run so that restarts_agree "
        "compares their fiber norms; no effect where the decomposition has "
        "a certified closed form (horocyclic structures whose group factor "
        "couples Levi blocks at most in pairs, strictly horocyclic ones "
        "among them), whose restarts_agree is always true",
    )
    p.add_argument(
        "--seed",
        type=int,
        default=0,
        help="seed of --random and of the optimizer restarts; the closed "
        "form uses no seed",
    )
    p.add_argument(
        "--allow-nonunique",
        action="store_true",
        help="proceed when the decomposition may not be unique",
    )
    p.add_argument("--out")
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("exhaust", help="evaluate the exhaustion function")
    _add_input_options(p)
    _add_zeta_options(p)
    p.add_argument(
        "--restarts",
        type=int,
        default=4,
        metavar="N",
        help="at most N minimization starts; stops once phi is within "
        "2.5e-15 of 0; no effect where the exhaustion has a certified closed "
        "form (horocyclic structures whose group factor couples Levi blocks "
        "at most in pairs, strictly horocyclic ones among them)",
    )
    p.add_argument(
        "--seed",
        type=int,
        default=0,
        help="seed of --random and of the minimization restarts; the closed "
        "form uses no seed",
    )
    p.add_argument(
        "--cross-check",
        action="store_true",
        help="cross-validate against the decomposition where applicable",
    )
    p.add_argument("--out")
    p.set_defaults(func=cmd_exhaust)

    p = sub.add_parser("verify", help="run the self-check suites")
    p.add_argument(
        "--suite",
        choices=("structural", "numeric", "all"),
        default="all",
    )
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("catalog", help="list or export built-in entries")
    cat_sub = p.add_subparsers(dest="action", required=True)
    pl = cat_sub.add_parser("list", help="list entry names")
    pl.add_argument("--out")
    pl.set_defaults(func=cmd_catalog)
    pe = cat_sub.add_parser("export", help="emit an entry as a subalgebra spec")
    pe.add_argument("name")
    pe.add_argument("--params", help="JSON parameters for parametrized entries")
    pe.add_argument("--out")
    pe.set_defaults(func=cmd_catalog)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ClosureError as exc:
        certificate: dict[str, Any] = {"error": "closure failure", "detail": str(exc)}
        if exc.left is not None and exc.right is not None:
            certificate["offending_bracket"] = {
                "left": _matrix_to_json(exc.left),
                "right": _matrix_to_json(exc.right),
            }
        sys.stderr.write(json.dumps(certificate, indent=2, sort_keys=True) + "\n")
        return EXIT_BAD_INPUT
    except IrrationalWeightsError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_IRRATIONAL
    except NonConvergenceError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_NONCONVERGENT
    except RestartDisagreementError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_DISAGREEMENT
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_BAD_INPUT


if __name__ == "__main__":
    sys.exit(main())
