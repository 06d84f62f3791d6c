"""End-to-end tests for the command-line interface.

Every test drives ``crmostow.cli.main`` with an argv list and inspects the
return code plus the JSON or TAP output, exactly as a shell user would see
them.
"""

from __future__ import annotations

import dataclasses
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
import scipy.optimize

import crmostow
from crmostow import acceptance, catalog, cli, symspace
from crmostow.cli import (
    EXIT_BAD_INPUT,
    EXIT_DISAGREEMENT,
    EXIT_IRRATIONAL,
    EXIT_NONCONVERGENT,
    EXIT_OK,
    EXIT_VERIFY_FAILED,
    main,
)

GRASSMANN_PARAMS = '{"p": 1, "q": 2, "n": 3, "k": 1}'


def _run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _run_json(capsys, *argv):
    code, out, err = _run(capsys, *argv)
    assert code == EXIT_OK, f"unexpected exit {code}: {err}"
    return json.loads(out)


def _complex_matrix(rows):
    return np.array([[complex(e[0], e[1]) for e in row] for row in rows])


def _basis_with_entry(entry):
    """A spec mutation: a one-matrix 4 x 4 basis with ``entry`` at (0, 0)."""
    zero = ["0", "0"]
    return {"basis": [[[entry] + [zero] * 3] + [[zero] * 4] * 3]}


def _python(*args):
    """Run ``python ARGS`` in a subprocess that imports this crmostow."""
    src = str(Path(crmostow.__file__).resolve().parent.parent)
    path = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
        timeout=300,
    )


# ``python -c`` with this script runs the CLI with every structure's
# closed-form data dropped, so that the optimizers serve it.
_WITHOUT_CLOSED_FORM = (
    "import sys\n"
    "from crmostow import cli, symspace\n"
    "symspace._levi_frame = lambda *args: None\n"
    "sys.exit(cli.main(sys.argv[1:]))\n"
)


def _stdout_with_and_without_optimize(*argv, closed_form=True):
    """Run ``python [-O] -m crmostow.cli ARGV`` in subprocesses, without the
    closed forms unless ``closed_form``; both must exit 0.  Returns the two
    stdouts."""
    outputs = []
    run = ["-m", "crmostow.cli"] if closed_form else ["-c", _WITHOUT_CLOSED_FORM]
    for flags in ([], ["-O"]):
        proc = _python(*flags, *run, *argv)
        assert proc.returncode == EXIT_OK, proc.stderr
        outputs.append(proc.stdout)
    return outputs


# sl(3) basis whose weights involve sqrt(2): the first matrix has
# eigenvalues +-sqrt(2)
_Z, _ONE, _TWO = ["0", "0"], ["1", "0"], ["2", "0"]
IRRATIONAL_SPEC = {
    "n": 3,
    "ambient": "sl",
    "basis": [
        [[_Z, _ONE, _Z], [_TWO, _Z, _Z], [_Z, _Z, _Z]],
        [[_Z, _Z, _ONE], [_Z, _Z, _Z], [_Z, _Z, _Z]],
        [[_Z, _Z, _Z], [_Z, _Z, _ONE], [_Z, _Z, _Z]],
    ],
}


# -----------------------------------------------------------------------
# catalog subcommand
# -----------------------------------------------------------------------


class TestCatalogCommand:
    def test_list_names(self, capsys):
        doc = _run_json(capsys, "catalog", "list")
        assert doc["schema"] == "crmostow/1"
        assert "su22_f12" in doc["entries"]
        assert "grassmann_pair" in doc["entries"]
        assert len(doc["entries"]) == 6

    def test_export_is_valid_spec(self, capsys):
        doc = _run_json(capsys, "catalog", "export", "su22_f12")
        amb, sub, echo = cli.parse_subalgebra_spec(doc)
        assert amb.n == 4
        assert sub.dim == 2

    def test_export_parametrized(self, capsys):
        doc = _run_json(
            capsys, "catalog", "export", "grassmann_pair", "--params", GRASSMANN_PARAMS
        )
        _, sub, _ = cli.parse_subalgebra_spec(doc)
        assert sub.dim == 8

    def test_unknown_entry_rejected(self, capsys):
        code, _, err = _run(capsys, "catalog", "export", "nonexistent")
        assert code == EXIT_BAD_INPUT
        assert "unknown" in err


# -----------------------------------------------------------------------
# analyze subcommand
# -----------------------------------------------------------------------


class TestAnalyze:
    def test_grassmann_export_then_analyze(self, capsys, tmp_path):
        spec_path = tmp_path / "gr.json"
        code, _, _ = _run(
            capsys,
            "catalog",
            "export",
            "grassmann_pair",
            "--params",
            GRASSMANN_PARAMS,
            "--out",
            str(spec_path),
        )
        assert code == EXIT_OK
        report = _run_json(capsys, "analyze", str(spec_path))
        assert report["n_reductive"]["value"] is True
        assert report["hnr"]["value"] is True
        assert report["strict_hnr"]["value"] is True
        assert report["cr_type"]["value"] == [3, 4]
        assert report["witt_lower_bound"]["value"] == 1
        assert report["cohomology_ranges"]["finite_low"] == [0]
        assert report["cohomology_ranges"]["finite_high"] == [3]

    def test_su22_catalog_expectations(self, capsys):
        report = _run_json(capsys, "analyze", "--catalog", "su22_f12")
        assert report["hnr"]["value"] is True
        assert report["strict_hnr"]["value"] is False
        assert report["witt_lower_bound"]["value"] == 0
        assert report["cr_type"]["value"] == [1, 4]
        assert report["expected"]["source"] == "paper-expected"
        assert report["discrepancies"] == []
        assert report["intermediate"]["dim"] == 3

    def test_every_computed_value_is_tagged(self, capsys):
        report = _run_json(capsys, "analyze", "--catalog", "su23_f12")
        for field in ("n_reductive", "hnr", "strict_hnr", "cr_type", "witt_lower_bound"):
            assert report[field]["source"] == "computed"

    def test_non_reductive_entry_reports_nulls(self, capsys):
        report = _run_json(capsys, "analyze", "--catalog", "so_n_symmetric")
        assert report["n_reductive"]["value"] is False
        for field in ("hnr", "cr_type", "witt_lower_bound", "cohomology_ranges"):
            assert report[field] is None
        assert any("not n-reductive" in w for w in report["warnings"])
        assert report["discrepancies"] == []

    def test_nonclosed_basis_exits_2_with_certificate(self, capsys, tmp_path):
        spec = {
            "n": 3,
            "ambient": "sl",
            "basis": [
                [["0", "1", "0"], ["0", "0", "0"], ["0", "0", "0"]],
                [["0", "0", "0"], ["0", "0", "1"], ["0", "0", "0"]],
            ],
        }
        # entries as [re, im] pairs
        spec["basis"] = [
            [[[e, "0"] for e in row] for row in mat] for mat in spec["basis"]
        ]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(spec))
        code, _, err = _run(capsys, "analyze", str(path))
        assert code == EXIT_BAD_INPUT
        certificate = json.loads(err)
        assert certificate["error"] == "closure failure"
        left = certificate["offending_bracket"]["left"]
        right = certificate["offending_bracket"]["right"]
        assert left[0][1] == ["1", "0"]
        assert right[1][2] == ["1", "0"]

    def test_irrational_weights_exit_3(self, capsys, tmp_path):
        path = tmp_path / "irr.json"
        path.write_text(json.dumps(IRRATIONAL_SPEC))
        code, _, err = _run(capsys, "analyze", str(path))
        assert code == EXIT_IRRATIONAL
        assert "irrational" in err

    def test_irrational_weights_exit_3_without_sympy(self, tmp_path):
        # no root modulo the prime lifts to a root in Q(i): that certifies
        # the weights irrational without factoring the polynomial
        path = tmp_path / "irr.json"
        path.write_text(json.dumps(IRRATIONAL_SPEC))
        script = (
            "import sys\n"
            "sys.modules['sympy'] = None\n"
            "from crmostow import cli\n"
            "sys.exit(cli.main(['analyze', sys.argv[1]]))\n"
        )
        # the check raises, it does not assert: -O leaves it in place
        for flags in ((), ("-O",)):
            proc = _python(*flags, "-c", script, str(path))
            assert proc.returncode == EXIT_IRRATIONAL, (flags, proc.stderr)
            assert proc.stdout == ""
            assert "irrational" in proc.stderr

    def test_stdin_input(self, capsys, monkeypatch):
        doc = _run_json(capsys, "catalog", "export", "su22_f12")
        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(doc)))
        report = _run_json(capsys, "analyze", "-")
        assert report["n_reductive"]["value"] is True

    def test_byte_identical_reports(self, capsys, tmp_path):
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        for p in (p1, p2):
            code, _, _ = _run(
                capsys, "analyze", "--catalog", "su23_f13", "--seed", "11", "--out", str(p)
            )
            assert code == EXIT_OK
        assert p1.read_bytes() == p2.read_bytes()

    def test_missing_input_exits_2(self, capsys):
        code, _, err = _run(capsys, "analyze")
        assert code == EXIT_BAD_INPUT
        assert "input" in err or "catalog" in err

    def test_missing_catalog_params_are_named(self, capsys):
        code, out, err = _run(capsys, "analyze", "--catalog", "grassmann_pair")
        assert code == EXIT_BAD_INPUT
        assert out == ""
        assert err == "error: invalid parameters: missing p, q, n, k\n"

    @pytest.mark.parametrize(
        "mutation, fragment",
        [
            ({"n": "four"}, "'n'"),
            ({"ambient": {"blocks": [2, 3]}}, "sum to n"),
            ({"ambient": "gl"}, "'ambient'"),
            ({"basis": []}, "'basis'"),
            ({"extra": 1}, "unknown"),
            (_basis_with_entry(["1/0", "0"]), "invalid rational entry"),
            (_basis_with_entry([True, 0]), "invalid rational entry"),
        ],
    )
    def test_malformed_specs_exit_2(self, capsys, tmp_path, mutation, fragment):
        doc = _run_json(capsys, "catalog", "export", "su22_f12")
        doc.update(mutation)
        path = tmp_path / "mut.json"
        path.write_text(json.dumps(doc))
        code, _, err = _run(capsys, "analyze", str(path))
        assert code == EXIT_BAD_INPUT
        assert fragment in err

    def test_invalid_json_exits_2(self, capsys, tmp_path):
        path = tmp_path / "garbage.json"
        path.write_text("{not json")
        code, _, _ = _run(capsys, "analyze", str(path))
        assert code == EXIT_BAD_INPUT

    def test_sheaf_depth_flag(self, capsys):
        report = _run_json(
            capsys,
            "analyze",
            "--catalog",
            "grassmann_pair",
            "--params",
            GRASSMANN_PARAMS,
            "--hd",
            "2",
        )
        assert report["cohomology_ranges"]["sheaf_depth"] == 2


# -----------------------------------------------------------------------
# decompose subcommand
# -----------------------------------------------------------------------


class TestDecompose:
    def test_identity_gives_zero_factors(self, capsys):
        report = _run_json(
            capsys,
            "decompose",
            "--catalog",
            "grassmann_pair",
            "--params",
            GRASSMANN_PARAMS,
        )
        X = _complex_matrix(report["result"]["X"])
        Z = _complex_matrix(report["result"]["Z"])
        assert np.linalg.norm(X) < 1e-8
        assert np.linalg.norm(Z) < 1e-8
        assert report["result"]["residual"] < 1e-8

    def test_random_seed_7_converges(self, capsys):
        report = _run_json(
            capsys,
            "decompose",
            "--catalog",
            "grassmann_pair",
            "--params",
            GRASSMANN_PARAMS,
            "--random",
            "--seed",
            "7",
        )
        assert report["result"]["residual"] < 1e-8
        assert report["result"]["restarts_agree"] is True
        u = _complex_matrix(report["result"]["u"])
        assert np.allclose(u @ u.conj().T, np.eye(4), atol=1e-8)

    def test_nonhorocyclic_requires_flag(self, capsys):
        code, _, err = _run(capsys, "decompose", "--catalog", "su23_f13")
        assert code == EXIT_BAD_INPUT
        assert "--allow-nonunique" in err

    def test_nonhorocyclic_with_flag_runs(self, capsys):
        report = _run_json(
            capsys,
            "decompose",
            "--catalog",
            "su23_f13",
            "--allow-nonunique",
            "--random",
            "--seed",
            "3",
        )
        assert report["result"]["residual"] < 1e-8

    def test_restart_disagreement_exits_5_unless_allowed(self, capsys, monkeypatch):
        # without its closed form su22_f12 runs the optimizer; a negative
        # tolerance makes any two converged restarts disagree
        monkeypatch.setattr(symspace, "_levi_frame", lambda *args: None)
        monkeypatch.setattr(symspace, "_AGREE_TOL", -1.0)
        argv = ["decompose", "--catalog", "su22_f12", "--random", "--seed", "7"]
        code, _, err = _run(capsys, *argv)
        assert code == EXIT_DISAGREEMENT
        assert "restart disagreement" in err
        report = _run_json(capsys, *argv, "--allow-nonunique")
        assert report["result"]["restarts_agree"] is False

    def test_zeta_from_file(self, capsys, tmp_path):
        theta = 0.4
        zeta = np.eye(4, dtype=complex)
        zeta[0, 0] = np.cos(theta) + 0j
        zeta[0, 1] = np.sin(theta) + 0j
        zeta[1, 0] = -np.sin(theta) + 0j
        zeta[1, 1] = np.cos(theta) + 0j
        path = tmp_path / "zeta.json"
        path.write_text(json.dumps(cli._float_matrix_to_json(zeta)))
        report = _run_json(
            capsys,
            "decompose",
            "--catalog",
            "grassmann_pair",
            "--params",
            GRASSMANN_PARAMS,
            "--zeta",
            str(path),
        )
        assert report["zeta"]["source"] == "file"
        assert report["result"]["residual"] < 1e-8
        # a block-diagonal unitary is compact: no fiber displacement
        assert report["result"]["fiber_norm"] < 1e-8

    def test_nongroup_zeta_exits_2(self, capsys, tmp_path):
        path = tmp_path / "zeta.json"
        path.write_text(json.dumps(cli._float_matrix_to_json(2.0 * np.eye(4))))
        code, _, err = _run(
            capsys,
            "decompose",
            "--catalog",
            "grassmann_pair",
            "--params",
            GRASSMANN_PARAMS,
            "--zeta",
            str(path),
        )
        assert code == EXIT_BAD_INPUT
        assert "not in the group" in err


# -----------------------------------------------------------------------
# exhaust subcommand
# -----------------------------------------------------------------------


class TestExhaust:
    def test_identity_is_zero(self, capsys):
        report = _run_json(
            capsys,
            "exhaust",
            "--catalog",
            "grassmann_pair",
            "--params",
            GRASSMANN_PARAMS,
        )
        assert abs(report["phi"]) < 1e-8

    def test_random_point_positive_with_cross_check(self, capsys):
        report = _run_json(
            capsys,
            "exhaust",
            "--catalog",
            "grassmann_pair",
            "--params",
            GRASSMANN_PARAMS,
            "--random",
            "--seed",
            "5",
            "--cross-check",
        )
        assert report["phi"] > 1e-3
        assert report["cross_checked"] is True

    def test_random_point_without_cross_check_on_su23_f13(self, capsys):
        # su23_f13 is not horocyclic and has a nilpotent fiber factor, so
        # --cross-check has nothing to compare
        report = _run_json(
            capsys,
            "exhaust",
            "--catalog",
            "su23_f13",
            "--random",
            "--seed",
            "5",
            "--restarts",
            "2",
            "--cross-check",
        )
        assert report["phi"] > 1e-3
        assert report["cross_checked"] is False

    def test_unconverged_minimization_exits_4(self, capsys, monkeypatch):
        def stalled(fun, x0, **kwargs):
            value, _ = fun(x0)
            return scipy.optimize.OptimizeResult(
                x=np.array(x0), fun=value, success=False, nfev=1, nit=0
            )

        monkeypatch.setattr(scipy.optimize, "minimize", stalled)
        monkeypatch.setattr(symspace, "_levi_frame", lambda *args: None)
        code, _, err = _run(
            capsys,
            "exhaust",
            "--catalog",
            "su22_f12",
            "--random",
            "--seed",
            "5",
        )
        assert code == EXIT_NONCONVERGENT
        assert "non-convergent" in err

    def test_wrong_closed_form_exits_4(self, capsys, monkeypatch):
        # a closed-form group factor off by exp(0.1·P) leaves a residual
        # that the certificate rejects
        levi_decompose = symspace._levi_decompose

        def wrong(zm, structure):
            x, p, n = levi_decompose(zm, structure)
            return x, p + 0.1 * structure.herm_basis[0], n

        monkeypatch.setattr(symspace, "_levi_decompose", wrong)
        code, _, err = _run(
            capsys,
            "decompose",
            "--catalog",
            "grassmann_pair",
            "--params",
            GRASSMANN_PARAMS,
            "--random",
            "--seed",
            "5",
        )
        assert code == EXIT_NONCONVERGENT
        assert "non-convergent" in err

    @pytest.mark.parametrize(
        "entry",
        [
            ["upper_triangular_horocycle"],
            ["grassmann_pair", "--params", GRASSMANN_PARAMS],
            ["su22_f12"],
            ["su23_f12"],
        ],
    )
    def test_closed_form_needs_no_optimizer(self, capsys, monkeypatch, tmp_path, entry):
        structure = symspace.mostow_structure(
            catalog.build(entry[0], json.loads(entry[2]) if len(entry) > 2 else None).subalgebra
        )
        zeta = symspace.random_group_element(structure, np.random.default_rng(5), 0.3)
        path = tmp_path / "zeta.json"
        path.write_text(json.dumps(cli._float_matrix_to_json(zeta)))

        def forbidden(*args, **kwargs):
            raise AssertionError("the closed form called a SciPy solver")

        monkeypatch.setattr(scipy.optimize, "minimize", forbidden)
        monkeypatch.setattr(scipy.optimize, "least_squares", forbidden)
        monkeypatch.setattr(scipy.linalg, "expm", forbidden)
        argv = ["--catalog", *entry, "--zeta", str(path)]
        decomposed = _run_json(capsys, "decompose", *argv)
        assert decomposed["result"]["restarts_agree"] is True
        assert decomposed["result"]["residual"] < 1e-9
        assert _run_json(capsys, "exhaust", *argv)["phi"] > 1e-3

    def test_output_does_not_depend_on_optimize_flag(self):
        plain, optimized = _stdout_with_and_without_optimize(
            "exhaust", "--catalog", "su22_f12", "--random", "--seed", "7", closed_form=False
        )
        assert plain == optimized


# -----------------------------------------------------------------------
# --zeta input files
# -----------------------------------------------------------------------


@pytest.mark.parametrize("command", ["decompose", "exhaust"])
@pytest.mark.parametrize(
    "zeta",
    [[[1]], {"a": 1}, [[["x", 0]]]],
    ids=["bare-number", "object", "string-part"],
)
def test_malformed_zeta_exits_2(capsys, tmp_path, command, zeta):
    path = tmp_path / "zeta.json"
    path.write_text(json.dumps(zeta))
    code, _, err = _run(capsys, command, "--catalog", "su22_f12", "--zeta", str(path))
    assert code == EXIT_BAD_INPUT
    assert err.startswith("error: ")


@pytest.mark.parametrize("command", ["decompose", "exhaust"])
@pytest.mark.parametrize(
    "value", [math.nan, math.inf, 10**400], ids=["nan", "infinity", "huge-integer"]
)
def test_nonfinite_zeta_entry_exits_2(capsys, tmp_path, command, value):
    # Python's json writes and reads NaN and Infinity, and integers of any
    # size; the entry is rejected before numpy or SciPy sees it, so nothing
    # else reaches stderr
    zeta = cli._float_matrix_to_json(np.eye(4))
    zeta[2][1] = [0.0, value]
    path = tmp_path / "zeta.json"
    path.write_text(json.dumps(zeta))
    code, out, err = _run(capsys, command, "--catalog", "su22_f12", "--zeta", str(path))
    assert code == EXIT_BAD_INPUT
    assert out == ""
    assert err == f"error: matrix entry must be finite, got [0.0, {value!r}]\n"


OUT_OF_RANGE = [
    (["decompose", "--max-restarts", "0"], "max_restarts must be at least 1, got 0"),
    (["decompose", "--tol", "-1"], "tol must be positive and finite, got -1.0"),
    (["decompose", "--tol", "0"], "tol must be positive and finite, got 0.0"),
    (["decompose", "--tol", "inf"], "tol must be positive and finite, got inf"),
    (["decompose", "--scale", "nan"], "--scale must be finite, got nan"),
    (["exhaust", "--scale", "inf"], "--scale must be finite, got inf"),
    (
        ["decompose", "--random", "--scale", "nan", "--catalog", "upper_triangular_horocycle"],
        "--scale must be finite, got nan",
    ),
    (
        ["exhaust", "--random", "--scale", "inf", "--catalog", "su22_f12"],
        "--scale must be finite, got inf",
    ),
    (["exhaust", "--restarts", "0"], "restarts must be at least 1, got 0"),
    (["exhaust", "--restarts", "-3"], "restarts must be at least 1, got -3"),
    (["analyze", "--levi-grid", "0"], "grid density must be at least 1, got 0"),
    (["analyze", "--levi-grid", "-2"], "grid density must be at least 1, got -2"),
    (["analyze", "--hd", "-1"], "sheaf depth must be nonnegative, got -1"),
    # the Levi-coupled (su22_f12) and the strict closed form alike; the check
    # comes before either runs
    (["decompose", "--seed", "-1", "--catalog", "su22_f12"], "--seed must be non-negative, got -1"),
    (["exhaust", "--seed", "-1", "--catalog", "su22_f12"], "--seed must be non-negative, got -1"),
    (
        ["decompose", "--seed", "-1", "--catalog", "upper_triangular_horocycle"],
        "--seed must be non-negative, got -1",
    ),
    (
        ["exhaust", "--seed", "-1", "--catalog", "upper_triangular_horocycle"],
        "--seed must be non-negative, got -1",
    ),
    # inputs that never reach the step using the option: so_n_symmetric is not
    # n-reductive, and this grassmann_pair has CR codimension 0
    (
        ["analyze", "--hd", "-1", "--catalog", "so_n_symmetric"],
        "sheaf depth must be nonnegative, got -1",
    ),
    (
        ["analyze", "--levi-grid", "0", "--catalog", "grassmann_pair",
         "--params", '{"p": 1, "q": 2, "n": 3, "k": 0}'],
        "grid density must be at least 1, got 0",
    ),
]


@pytest.mark.parametrize(
    "argv, message",
    OUT_OF_RANGE,
    ids=["_".join(a for a in argv if a != "--params" and not a.startswith("{"))
         for argv, _ in OUT_OF_RANGE],
)
def test_out_of_range_options_exit_2(capsys, argv, message):
    # each value is rejected, not raised to a default, also on an input that
    # never uses it; a negative sheaf depth would widen the finiteness window
    if "--catalog" not in argv:
        argv = [*argv, "--catalog", "grassmann_pair", "--params", GRASSMANN_PARAMS]
    code, out, err = _run(capsys, *argv)
    assert code == EXIT_BAD_INPUT
    assert out == ""
    assert err == f"error: {message}\n"


def test_analyze_accepts_a_negative_seed(capsys):
    # analyze's seed only picks the Witt bound's sample points, and
    # random.Random takes any integer
    report = _run_json(capsys, "analyze", "--catalog", "upper_triangular_horocycle", "--seed", "-1")
    assert report["seed"] == -1


# -----------------------------------------------------------------------
# verify subcommand
# -----------------------------------------------------------------------


STRUCTURAL_TAP = """\
1..29
ok 1 - su22_f12: n_reductive
ok 2 - su22_f12: hnr
ok 3 - su22_f12: strict_hnr
ok 4 - su22_f12: cr_type
ok 5 - su22_f12: f0_dim
ok 6 - su22_f12: witt_lower_bound
ok 7 - su23_f13: n_reductive
ok 8 - su23_f13: hnr
ok 9 - su23_f13: strict_hnr
ok 10 - su23_f13: cr_type
ok 11 - su23_f13: f0_dim
ok 12 - su23_f12: n_reductive
ok 13 - su23_f12: hnr
ok 14 - su23_f12: strict_hnr
ok 15 - su23_f12: cr_type
ok 16 - su23_f12: f0_dim
ok 17 - grassmann_pair: n_reductive
ok 18 - grassmann_pair: hnr
ok 19 - grassmann_pair: strict_hnr
ok 20 - grassmann_pair: cr_type
ok 21 - grassmann_pair: f0_dim
ok 22 - grassmann_pair: witt_lower_bound
ok 23 - so_n_symmetric: n_reductive
ok 24 - upper_triangular_horocycle: n_reductive
ok 25 - upper_triangular_horocycle: hnr
ok 26 - upper_triangular_horocycle: strict_hnr
ok 27 - upper_triangular_horocycle: cr_type
ok 28 - upper_triangular_horocycle: f0_dim
ok 29 - upper_triangular_horocycle: witt_lower_bound
# passed 29/29
"""


class TestVerify:
    def test_structural_suite_passes(self, capsys):
        code, out, _ = _run(capsys, "verify", "--suite", "structural")
        assert code == EXIT_OK
        lines = out.strip().splitlines()
        assert lines[0].startswith("1..")
        assert all(l.startswith("ok ") for l in lines[1:-1])
        assert "passed" in lines[-1]

    def test_numeric_suite_passes(self, capsys):
        code, out, _ = _run(capsys, "verify", "--suite", "numeric")
        assert code == EXIT_OK
        assert "not ok" not in out
        assert out.splitlines()[0] == "1..4"

    def test_structural_golden_output(self, capsys):
        code, out, _ = _run(capsys, "verify", "--suite", "structural")
        assert code == EXIT_OK
        assert out == STRUCTURAL_TAP

    def test_structural_output_does_not_depend_on_optimize_flag(self):
        plain, optimized = _stdout_with_and_without_optimize(
            "verify", "--suite", "structural"
        )
        assert plain == optimized == STRUCTURAL_TAP

    def test_structural_mismatch_exits_1(self, capsys, monkeypatch):
        build = catalog.build

        def build_with_wrong_cr_type(name, params=None):
            entry = build(name, params)
            if name != "su22_f12":
                return entry
            expected = dataclasses.replace(entry.expected, cr_type=(2, 3))
            return dataclasses.replace(entry, expected=expected)

        monkeypatch.setattr(catalog, "build", build_with_wrong_cr_type)
        code, out, _ = _run(capsys, "verify", "--suite", "structural")
        assert code == EXIT_VERIFY_FAILED
        lines = out.splitlines()
        assert lines[4] == "not ok 4 - su22_f12: cr_type: expected (2, 3), computed (1, 4)"
        assert lines[-1] == "# passed 28/29"

    def test_numeric_failure_exits_1(self, capsys, monkeypatch):
        def failing_check():
            failures = ["hand case: lhs 0.5", "3/200 random cases violate the inequality"]
            name = "minor-determinant-inequality"
            return acceptance.CheckResult(5, name, "", 0.0, None, failures)

        def passing_check(index, name):
            return lambda: acceptance.CheckResult(index, name, "", 0.0, None)

        checks = list(acceptance.ALL_CHECKS)
        checks[3:7] = [
            passing_check(4, "field-identities"),
            failing_check,
            passing_check(6, "vanishing-field-counterexample"),
            passing_check(7, "decomposition-round-trip"),
        ]
        monkeypatch.setattr(acceptance, "ALL_CHECKS", tuple(checks))
        code, out, _ = _run(capsys, "verify", "--suite", "numeric")
        assert code == EXIT_VERIFY_FAILED
        assert out == (
            "1..4\n"
            "ok 1 - field-identities\n"
            "not ok 2 - minor-determinant-inequality: hand case: lhs 0.5; "
            "3/200 random cases violate the inequality\n"
            "ok 3 - vanishing-field-counterexample\n"
            "ok 4 - decomposition-round-trip\n"
            "# passed 3/4\n"
        )

    def test_plan_line_counts_checks(self, capsys):
        code, out, _ = _run(capsys, "verify", "--suite", "structural")
        assert code == EXIT_OK
        lines = out.strip().splitlines()
        planned = int(lines[0].split("..")[1])
        results = [l for l in lines if l.startswith(("ok ", "not ok "))]
        assert len(results) == planned


# -----------------------------------------------------------------------
# miscellaneous contract points
# -----------------------------------------------------------------------


class TestContract:
    def test_catalog_runs_without_sympy(self):
        # the exact pipeline runs on the standard library: it finds its
        # roots without sympy, and loads neither NumPy nor SciPy, which the
        # floating-point layer imports where it runs
        script = (
            "import contextlib, io, sys\n"
            "from crmostow import catalog, cli\n"
            "params = {'grassmann_pair': ['--params', sys.argv[1]]}\n"
            "runs = [['verify', '--suite', 'structural']] + [\n"
            "    ['analyze', '--catalog', name, *params.get(name, [])]\n"
            "    for name in catalog.entry_names()\n"
            "]\n"
            "for argv in runs:\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        if cli.main(argv) != 0:\n"
            "            sys.exit(f'{argv} failed')\n"
            "print('sympy' in sys.modules)\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
            "print('numpy' in sys.modules)\n"
        )
        proc = _python("-c", script, GRASSMANN_PARAMS)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "False\n[]\nFalse\n"

    def test_symspace_import_leaves_out_optimizers(self):
        # scipy.optimize and scipy.integrate load on the first call that runs them
        script = (
            "import sys\n"
            "import crmostow.symspace\n"
            "print([m for m in ('scipy.optimize', 'scipy.integrate') if m in sys.modules])\n"
        )
        proc = _python("-c", script)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "[]\n"

    def test_exit_codes_are_distinct(self):
        codes = {
            EXIT_OK,
            cli.EXIT_VERIFY_FAILED,
            EXIT_BAD_INPUT,
            EXIT_IRRATIONAL,
            EXIT_NONCONVERGENT,
            EXIT_DISAGREEMENT,
        }
        assert codes == {0, 1, 2, 3, 4, 5}

    def test_rationals_survive_round_trip(self, capsys, tmp_path):
        zero = ["0", "0"]
        spec = {
            "n": 2,
            "ambient": "sl",
            "basis": [
                [[["1/3", "-2/7"], zero], [zero, ["-1/3", "2/7"]]],
            ],
        }
        path = tmp_path / "frac.json"
        path.write_text(json.dumps(spec))
        report = _run_json(capsys, "analyze", str(path))
        assert report["input"]["basis"][0][0][0] == ["1/3", "-2/7"]

    def test_block_ambient_round_trip(self, capsys):
        doc = _run_json(capsys, "catalog", "export", "su22_f12")
        assert doc["ambient"] == {"blocks": [2, 2]}
        amb, _, echo = cli.parse_subalgebra_spec(doc)
        assert echo["ambient"] == {"blocks": [2, 2]}
