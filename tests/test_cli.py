import csv
import json
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hmsolve import analysis, cli, problems, schemes
from hmsolve.analysis import DEFAULT_AUDIT_SLACK
from hmsolve.cli import (
    EXIT_INFEASIBLE,
    EXIT_NUMERICAL,
    EXIT_OK,
    EXIT_USAGE,
    UsageError,
    entry,
    main,
    parse_sequence,
    write_trace_csv,
)
from hmsolve.problems import gen_spd_linear
from hmsolve.schemes import run_fh


def _write_config(tmp_path, payload):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(payload))
    return str(path)


def read_trace_csv(path):
    """Round-trip reader for trace CSVs (residuals and errors bit-exact)."""
    with open(path, encoding="utf-8", newline="") as fh:
        return [{
            "n": int(row["n"]),
            "residual": float(row["residual"]),
            "error": None if row["error"] == "" else float(row["error"]),
            "wall_nanos": int(row["wall_nanos"]),
        } for row in csv.DictReader(fh)]


def _explicit(dim, a, constants=(1, 1, 1, 1, 1)):
    return {
        "kind": "explicit",
        "dim": dim,
        "h": {"kind": "scaled-identity", "scale": 1.0},
        "a": a,
        "m": {"kind": "scaled-identity", "scale": 1.0},
        "constants": dict(zip(("gamma", "tau", "r", "s", "eta"), constants)),
    }


class TestParseSequence:
    def test_const(self):
        assert parse_sequence("const:0.5").value(3) == 0.5

    def test_harmonic(self):
        assert parse_sequence("harmonic:1").value(1) == 0.5

    def test_table(self):
        seq = parse_sequence("table:0.1,0.2")
        assert seq.value(0) == 0.1 and seq.value(9) == 0.2

    def test_dict_form(self):
        assert parse_sequence({"family": "constant", "value": 0.25}).value(0) == 0.25

    def test_unknown_rejected(self):
        with pytest.raises(UsageError):
            parse_sequence("geometric:0.5")


class TestTraceCsv:
    def test_round_trip_bit_exact(self, tmp_path):
        p = gen_spd_linear(10, seed=1)
        trace = run_fh(p, np.zeros(10))
        path = tmp_path / "trace.csv"
        write_trace_csv(path, trace)
        rows = read_trace_csv(path)
        assert len(rows) == len(trace.residuals)
        for n, row in enumerate(rows):
            assert row["residual"] == trace.residuals[n]
            assert row["error"] == trace.errors[n]

    def test_lf_line_endings(self, tmp_path):
        p = gen_spd_linear(5, seed=0)
        path = tmp_path / "trace.csv"
        write_trace_csv(path, run_fh(p, np.zeros(5)))
        raw = path.read_bytes()
        assert b"\r" not in raw


class TestSolve:
    def test_scalar_affine_converges(self, tmp_path):
        code = main([
            "solve", "--problem", "scalar-affine", "--b", "2", "--lambda", "1",
            "--out", str(tmp_path),
        ])
        assert code == EXIT_OK
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["kappa"] == 0.0
        alg = summary["algorithms"]["fh"]
        assert alg["converged"]
        assert alg["final_error"] == 0.0
        assert (tmp_path / "trace_fh.csv").exists()

    def test_multiple_algorithms(self, tmp_path):
        code = main([
            "solve", "--problem", "spd-linear", "--dim", "10", "--seed", "3",
            "--alg", "fh,mann,new", "--out", str(tmp_path),
        ])
        assert code == EXIT_OK
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert set(summary["algorithms"]) == {"fh", "mann", "new"}
        for name in ("fh", "mann", "new"):
            assert (tmp_path / ("trace_%s.csv" % name)).exists()
            assert summary["algorithms"][name]["converged"]

    def test_lambda_auto(self, tmp_path):
        code = main([
            "solve", "--problem", "spd-linear", "--dim", "8", "--lambda", "auto",
            "--out", str(tmp_path),
        ])
        assert code == EXIT_OK
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["kappa"] < 1.0
        assert summary["problem"].get("lambda_auto")

    def test_config_file_with_flag_override(self, tmp_path):
        cfg = _write_config(tmp_path, {
            "problem": {"kind": "scalar-affine", "b": 2.0},
            "lambda": 0.5,
        })
        out = tmp_path / "out"
        code = main(["solve", "--config", cfg, "--b", "4", "--out", str(out)])
        assert code == EXIT_OK
        summary = json.loads((out / "summary.json").read_text())
        # b = 4 from the flag: solution 2, reached from x0 = 0
        assert summary["problem"]["b"] == 4.0

    @pytest.mark.parametrize("config_range, flag, expected", [
        ([1.5, 3.0], ["--eigen-lo", "2"], [2.0, 3.0]),
        ([1.5, 3.0], ["--eigen-hi", "2"], [1.5, 2.0]),
        (None, ["--eigen-hi", "1.5"], [1.0, 1.5]),
    ])
    def test_eigen_flag_overrides_only_its_endpoint(self, tmp_path, config_range, flag,
                                                    expected):
        problem = {"kind": "spd-linear", "dim": 10}
        if config_range is not None:
            problem["eigen_range"] = config_range
        cfg = _write_config(tmp_path, {"problem": problem})
        out = tmp_path / "out"
        assert main(["solve", "--config", cfg, *flag, "--out", str(out)]) == EXIT_OK
        summary = json.loads((out / "summary.json").read_text())
        assert summary["problem"]["eigen_range"] == expected

    def test_envelope_checked_for_all_four_schemes(self, tmp_path):
        code = main([
            "solve", "--problem", "spd-linear", "--dim", "20", "--alg", "fh,zgy,mann,new",
            "--xi", "const:0.3", "--mu", "const:0.5", "--out", str(tmp_path),
        ])
        assert code == EXIT_OK
        summary = json.loads((tmp_path / "summary.json").read_text())
        for name in ("fh", "zgy", "mann", "new"):
            env = summary["algorithms"][name]["envelope"]
            assert env["checked"] and env["passed"], name

    def test_diverged_run_writes_artifacts_and_exits_numerical(self, tmp_path, capsys):
        # kappa >= 1: the iterates overflow; every run stops at its first
        # non-finite iterate and still writes its trace
        code = main([
            "solve", "--problem", "spd-linear", "--dim", "20", "--c-a", "5",
            "--lambda", "50", "--alg", "fh,zgy,mann,new", "--out", str(tmp_path),
        ])
        assert code == EXIT_NUMERICAL
        assert "non-finite iterate" in capsys.readouterr().err
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["hypothesis_violated"]
        for name in ("fh", "zgy", "mann", "new"):
            alg = summary["algorithms"][name]
            assert not alg["converged"]
            rows = read_trace_csv(tmp_path / ("trace_%s.csv" % name))
            assert len(rows) == alg["steps"] + 1

    def test_determinism_identical_bytes(self, tmp_path):
        args = [
            "solve", "--problem", "spd-linear", "--dim", "12", "--seed", "7",
            "--alg", "fh,new", "--mu", "const:0.9",
        ]
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(args + ["--out", str(out1)]) == EXIT_OK
        assert main(args + ["--out", str(out2)]) == EXIT_OK
        assert (out1 / "summary.json").read_bytes() == (out2 / "summary.json").read_bytes()
        for name in ("fh", "new"):
            rows1 = read_trace_csv(out1 / ("trace_%s.csv" % name))
            rows2 = read_trace_csv(out2 / ("trace_%s.csv" % name))
            # all columns except wall-clock timing must agree exactly
            for r1, r2 in zip(rows1, rows2):
                assert (r1["n"], r1["residual"], r1["error"]) == (
                    r2["n"], r2["residual"], r2["error"]
                )


class TestCompare:
    def test_two_step_vs_one_step(self, tmp_path):
        code = main([
            "compare", "--problem", "spd-linear", "--dim", "20", "--seed", "3",
            "--alg", "new,fh", "--mu", "const:0.9", "--tol", "0",
            "--max-steps", "120", "--out", str(tmp_path),
        ])
        assert code == EXIT_OK
        report = json.loads((tmp_path / "rate_report.json").read_text())
        assert report["verdict"] == "a-faster"
        assert report["fitted_ratio"] < 1.0
        assert all(c["pass"] for c in report["envelope_checks"])
        assert (tmp_path / "compare.csv").exists()

    @pytest.mark.parametrize("pair", ["zgy,fh", "mann,fh", "fh,zgy", "new,mann"])
    def test_each_trace_under_its_own_envelope(self, tmp_path, pair):
        code = main([
            "compare", "--problem", "spd-linear", "--dim", "20", "--alg", pair,
            "--xi", "const:0.3", "--mu", "const:0.5", "--out", str(tmp_path),
        ])
        assert code == EXIT_OK
        report = json.loads((tmp_path / "rate_report.json").read_text())
        assert report["envelope_checks"]
        assert all(c["pass"] for c in report["envelope_checks"])
        with open(tmp_path / "compare.csv", encoding="utf-8", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert rows
        for row in rows:
            assert float(row["e_b"]) <= float(row["envelope_b"]) + DEFAULT_AUDIT_SLACK

    def test_envelopes_are_check_envelope_on_the_common_steps(self, tmp_path):
        # zgy needs more steps than new here, so its envelope is cut to new's length
        code = main([
            "compare", "--problem", "spd-linear", "--dim", "20", "--seed", "3", "--lambda", "0.6",
            "--alg", "zgy,new", "--xi", "const:0.3", "--mu", "const:0.5", "--out", str(tmp_path),
        ])
        assert code == EXIT_OK
        p = gen_spd_linear(dim=20, seed=3, lam=0.6)
        xi, mu = (schemes.make_step_sequence("constant", value=v) for v in (0.3, 0.5))
        traces = [schemes.run_scheme(name, p, [0.0], xi, mu, keep_iterates=False) for name in ("zgy", "new")]
        (bounds_a, passed_a), (bounds_b, _) = (
            analysis.check_envelope(t, p.contraction_factor(), xi, mu) for t in traces)
        n_common = len(traces[1].errors)
        assert len(traces[0].errors) > n_common
        report = json.loads((tmp_path / "rate_report.json").read_text())
        assert report["envelope_checks"] == [
            {"n": n, "bound": bounds_a[n], "measured": traces[0].errors[n], "pass": bool(passed_a[n])}
            for n in range(n_common)]
        with open(tmp_path / "compare.csv", encoding="utf-8", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [(row["envelope_a"], row["envelope_b"]) for row in rows] == [
            (repr(a), repr(b)) for a, b in zip(bounds_a[:n_common].tolist(), bounds_b.tolist())]

    def test_kappa_at_least_one_checks_no_envelope(self, tmp_path):
        # kappa(10) = 1.018 here, yet the runs converge: no envelope holds, so none is checked
        args = ["--problem", "spd-linear", "--dim", "5", "--lambda", "10", "--alg", "new,fh"]
        assert main(["compare", *args, "--out", str(tmp_path / "compare")]) == EXIT_OK
        report = json.loads((tmp_path / "compare" / "rate_report.json").read_text())
        assert report["kappa"] >= 1.0
        assert report["envelope_checks"] == []
        with open(tmp_path / "compare" / "compare.csv", encoding="utf-8", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert rows and all(row["envelope_a"] == row["envelope_b"] == "" for row in rows)
        assert main(["solve", *args, "--out", str(tmp_path / "solve")]) == EXIT_OK
        summary = json.loads((tmp_path / "solve" / "summary.json").read_text())
        assert [alg["envelope"] for alg in summary["algorithms"].values()] == [{"checked": False}] * 2

    def test_self_comparison_same_rate(self, tmp_path):
        code = main([
            "compare", "--problem", "spd-linear", "--dim", "10", "--seed", "1",
            "--alg", "fh,fh", "--out", str(tmp_path),
        ])
        assert code == EXIT_OK
        report = json.loads((tmp_path / "rate_report.json").read_text())
        assert report["verdict"] == "same-rate"

    def test_diverged_runs_get_no_fit(self, tmp_path):
        # kappa >= 1: both errors overflow; their ratios are censored, not 0 or NaN
        code = main([
            "compare", "--problem", "spd-linear", "--dim", "20", "--c-a", "5",
            "--lambda", "50", "--alg", "fh,new", "--out", str(tmp_path),
        ])
        assert code == EXIT_NUMERICAL
        report = json.loads((tmp_path / "rate_report.json").read_text())
        assert not any(p == 0.0 or np.isnan(p) for p in report["pi"] if p is not None)
        assert report["fitted_ratio"] is None
        assert report["verdict"] == "undecided"

    def test_requires_exactly_two(self, tmp_path):
        code = main([
            "compare", "--problem", "scalar-affine", "--alg", "fh",
            "--out", str(tmp_path),
        ])
        assert code == EXIT_USAGE


class TestSweep:
    def test_grid_and_summary(self, tmp_path):
        code = main([
            "sweep", "--problem", "scalar-affine", "--grid", "0.1:2.0:50",
            "--out", str(tmp_path),
        ])
        assert code == EXIT_OK
        summary = json.loads((tmp_path / "sweep_summary.json").read_text())
        assert summary["best_kappa"] < 1.0
        # kappa = |1 - lam|/(1 + lam) is minimized near lam = 1 on this grid
        assert abs(summary["best_lambda"] - 1.0) < 0.05
        lines = (tmp_path / "sweep.csv").read_text().splitlines()
        assert lines[0] == "lambda,kappa,in_feasible_interval"
        assert len(lines) == 51
        # kappa < 1 on every grid point, although s <= eta puts the
        # closed-form feasible interval out of scope here
        assert all(line.split(",")[2] == "1" for line in lines[1:])

    def test_invalid_grid(self, tmp_path):
        code = main([
            "sweep", "--problem", "scalar-affine", "--grid", "2:1:10",
            "--out", str(tmp_path),
        ])
        assert code == EXIT_USAGE


class TestSpdLinearStaysSpectral:
    """spd-linear's H and A are eigenpairs on reflectors: no subcommand reads an n x n matrix or Q."""

    @pytest.mark.parametrize("command", [
        ["solve", "--alg", "fh,zgy,mann,new"],
        ["solve", "--lambda", "auto", "--alg", "fh,new"],
        ["compare", "--alg", "new,fh"],
        ["audit", "--alg", "fh,zgy,mann,new"],
        ["sweep"],
    ])
    def test_no_dense_h_or_a(self, command, tmp_path, monkeypatch):
        made, orthogonalised = [], []
        gen, dorgqr = problems.gen_spd_linear, problems.lapack.dorgqr
        monkeypatch.setattr(problems, "gen_spd_linear", lambda **kw: made.append(gen(**kw)) or made[-1])
        monkeypatch.setattr(problems.lapack, "dorgqr",
                            lambda *args, **kw: orthogonalised.append(1) or dorgqr(*args, **kw))
        assert main([*command, "--problem", "spd-linear", "--dim", "30", "--out", str(tmp_path)]) == EXIT_OK
        assert len(made) == 1
        assert not ("matrix" in vars(made[0].h) or "matrix" in vars(made[0].a))
        assert orthogonalised == []  # Q stays its reflectors
        np.asarray(made[0].h.eigenpair[0])
        assert len(orthogonalised) == 2  # the dense Q's workspace query and its dorgqr

    def test_solve_maps_only_each_final_iterate_back(self, tmp_path, monkeypatch):
        products, traces = [], []
        dormqr = problems.lapack.dormqr
        monkeypatch.setattr(problems.lapack, "dormqr",
                            lambda *args, **kw: products.append(1) or dormqr(*args, **kw))
        for name in ("fh", "zgy", "mann", "new"):
            run = getattr(schemes, "run_" + name)
            monkeypatch.setattr(schemes, "run_" + name,
                                lambda *args, run=run, **kw: traces.append(run(*args, **kw)) or traces[-1])
        assert main(["solve", "--problem", "spd-linear", "--dim", "50", "--alg", "fh,zgy,mann,new",
                     "--out", str(tmp_path)]) == EXIT_OK
        # x* takes 2 products, H's probe 2 and F's c_hat 1; then y* = Q^T x* 1 and each run's x_N 1
        assert len(products) == 5 + 1 + 4
        assert [len(t.iterates) for t in traces] == [1] * 4
        assert all(t.steps_used > 0 and t.coordinates is None for t in traces)

    def test_audit_maps_only_each_final_iterate_back(self, tmp_path, monkeypatch):
        products, traces = [], []
        dormqr = problems.lapack.dormqr
        monkeypatch.setattr(problems.lapack, "dormqr",
                            lambda *args, **kw: products.append(1) or dormqr(*args, **kw))
        for name in ("fh", "zgy", "mann", "new"):
            run = getattr(schemes, "run_" + name)
            monkeypatch.setattr(schemes, "run_" + name,
                                lambda *args, run=run, **kw: traces.append(run(*args, **kw)) or traces[-1])
        assert main(["audit", "--problem", "spd-linear", "--dim", "50", "--alg", "fh,zgy,mann,new",
                     "--out", str(tmp_path)]) == EXIT_OK
        # the generator's 5 products and y* = Q^T x*'s 1; then one per run, probe or rerun, for
        # its x_N: the gaps are taken between the kept coordinates
        assert len(traces) > 4 and len(products) == 5 + 1 + len(traces)
        assert all(len(t.iterates) == 1 and len(t.coordinates) == t.steps_used + 1 for t in traces)


class TestAudit:
    def test_all_four_algorithms_pass(self, tmp_path):
        cfg = _write_config(tmp_path, {
            "problem": {"kind": "spd-linear", "dim": 20, "seed": 3},
            "algorithms": ["fh", "zgy", "mann", "new"],
            "sequences": {"xi": "const:0.5", "mu": "const:0.5"},
            "stopping": {"tol": 1e-12},
        })
        out = tmp_path / "out"
        code = main(["audit", "--config", cfg, "--out", str(out)])
        assert code == EXIT_OK
        report = json.loads((out / "audit.json").read_text())
        assert report["all_ok"]
        assert all(p["final_gap"] <= 1e-8 and p["cause"] is None for p in report["pairs"])
        assert all(p["violations"] == 0 for p in report["pairs"])
        checked = {(p["a"], p["b"]) for p in report["pairs"] if p["recursion_checked"]}
        assert ("fh", "mann") in checked
        assert ("zgy", "new") in checked

    def test_finished_probe_runs_once(self, tmp_path, monkeypatch):
        # a probe run that already has the common length is not run again
        runs = {}

        def counted(name, run):
            def wrapper(*args, **kwargs):
                runs.setdefault(name, []).append(run(*args, **kwargs))
                return runs[name][-1]
            return wrapper

        for name in ("fh", "zgy", "mann", "new"):
            monkeypatch.setattr(schemes, "run_" + name,
                                counted(name, getattr(schemes, "run_" + name)))
        code = main(["audit", "--problem", "soft-threshold", "--dim", "60", "--lambda", "auto",
                     "--alg", "fh,zgy,mann,new", "--out", str(tmp_path)])
        assert code == EXIT_OK
        common = max(traces[0].steps_used for traces in runs.values())
        for name, traces in runs.items():
            assert len(traces) <= (1 if traces[0].steps_used == common else 2), name

    def test_start_at_solution_gives_zero_length_recursion(self, tmp_path):
        # x0 = 1 is scalar-affine's solution b/2: every run stops at step 0, the
        # common length, so no run is repeated and each pair has one gap
        code = main(["audit", "--problem", "scalar-affine", "--x0", "1",
                     "--alg", "fh,zgy,mann,new", "--out", str(tmp_path)])
        assert code == EXIT_OK
        pairs = json.loads((tmp_path / "audit.json").read_text())["pairs"]
        assert len(pairs) == 6
        assert all(p["final_gap"] == 0.0 and p["violations"] == 0 for p in pairs)

    def test_single_algorithm_is_usage_error(self, tmp_path):
        code = main([
            "audit", "--problem", "scalar-affine", "--alg", "fh",
            "--out", str(tmp_path),
        ])
        assert code == EXIT_USAGE

    def test_unreachable_gap_tol_is_numerical_failure(self, tmp_path):
        cfg = _write_config(tmp_path, {
            "problem": {"kind": "spd-linear", "dim": 10, "seed": 1},
            "algorithms": ["fh", "mann"],
            "gap_tol": 1e-300,
        })
        out = tmp_path / "out"
        code = main(["audit", "--config", cfg, "--out", str(out)])
        assert code == EXIT_NUMERICAL


class TestAuditFailureCause:
    """A failing audit names, per failing pair, why it failed and the pair's gap."""

    @staticmethod
    def _audit(tmp_path, capsys, *flags):
        code = main(["audit", "--problem", "spd-linear", "--dim", "20", *flags,
                     "--out", str(tmp_path)])
        pairs = json.loads((tmp_path / "audit.json").read_text())["pairs"]
        err = capsys.readouterr().err.splitlines()
        # each pair's cause in audit.json is what stderr prints for it, null for a passing pair
        assert [line for line in err if line.startswith("audit failure")] == [
            "audit failure: %s,%s final gap %g: %s" % (p["a"], p["b"], p["final_gap"], p["cause"])
            for p in pairs if p["cause"] is not None]
        return code, err, pairs

    def test_step_cap(self, tmp_path, capsys):
        code, err, pairs = self._audit(tmp_path, capsys, "--alg", "fh,zgy,mann,new",
                                       "--max-steps", "5")
        assert code == EXIT_NUMERICAL
        assert err == ["audit failure: %s,%s final gap %g: %s hit the step cap 5, "
                       "%s hit the step cap 5" % (p["a"], p["b"], p["final_gap"], p["a"], p["b"])
                       for p in pairs]

    def test_gap_above_tolerance(self, tmp_path, capsys):
        code, err, (pair,) = self._audit(tmp_path, capsys, "--alg", "fh,mann", "--tol", "1e-6")
        assert code == EXIT_NUMERICAL
        assert pair["final_gap"] > 1e-8
        assert err == ["audit failure: fh,mann final gap %g: the gap stayed above gap_tol 1e-08"
                       % pair["final_gap"]]

    def test_recursion_violated(self, tmp_path, capsys, monkeypatch):
        audit = analysis.equivalence_audit

        def violated(*args, **kwargs):
            report = audit(*args, **kwargs)
            report.violations_forward, report.max_violation_forward = 3, 0.0025
            return report

        monkeypatch.setattr(analysis, "equivalence_audit", violated)
        code, err, (pair,) = self._audit(tmp_path, capsys, "--alg", "zgy,new", "--tol", "1e-12")
        assert code == EXIT_NUMERICAL
        assert pair["gap_converged"]
        assert err == ["audit failure: zgy,new final gap %g: the gap recursion was violated "
                       "3 times, largest excess 0.0025" % pair["final_gap"]]

    def test_diverged_runs(self, tmp_path, capsys):
        code, err, (pair,) = self._audit(tmp_path, capsys, "--c-a", "5", "--lambda", "50",
                                         "--alg", "fh,new")
        assert code == EXIT_NUMERICAL
        # the runs' last common y_n pass 1e154 but stay finite, and so does their gap
        assert err == ["audit failure: fh,new final gap 9.47917e+307: fh diverged, new diverged",
                       "numerical failure: non-finite iterate (fh at step 405, new at step 270)"]
        assert pair["cause"] == "fh diverged, new diverged"

    def test_diverged_runs_with_equal_iterates(self, tmp_path, capsys):
        # with xi = 1 MANN repeats FH's iterates: a zero gap, yet both runs diverge
        code, err, (pair,) = self._audit(tmp_path, capsys, "--c-a", "5", "--lambda", "50",
                                         "--alg", "fh,mann", "--xi", "const:1")
        assert pair["gap_converged"] and pair["cause"] is None
        assert code == EXIT_NUMERICAL
        assert err == ["numerical failure: non-finite iterate (fh at step 405, mann at step 405)"]


class TestParser:
    #: a valid argument for each flag that every subcommand takes
    SAMPLES = {
        "--problem": "spd-linear", "--dim": "3", "--b": "0.5", "--c": "2", "--m": "1.5",
        "--c-a": "0.8", "--b-scale": "4", "--eigen-lo": "1", "--eigen-hi": "2",
        "--lambda": "auto", "--alg": "fh,new", "--xi": "harmonic:1", "--mu": "const:0.9",
        "--tol": "1e-6", "--max-steps": "7", "--seed": "5", "--x0": "1,2,3",
    }

    @pytest.mark.parametrize("command", ["solve", "compare", "sweep", "audit"])
    def test_every_subcommand_takes_every_shared_flag(self, command, tmp_path, monkeypatch):
        seen = []
        monkeypatch.setitem(cli._COMMANDS, command, lambda cfg, out_dir: seen.append(cfg) or EXIT_OK)
        samples = {**self.SAMPLES, "--out": str(tmp_path / "out")}
        assert set(samples) == {flag for flag, *_ in cli._FLAGS}
        argv = [command, "--config", _write_config(tmp_path, {"gap_tol": 0.1})]
        assert main(argv + [v for item in samples.items() for v in item]) == EXIT_OK
        assert seen[0]["gap_tol"] == 0.1
        for flag, path, kind, _ in cli._FLAGS:
            node = seen[0]
            for key in path:
                node = node[key]
            assert node == kind(samples[flag])

    def test_grid_is_sweep_only(self, tmp_path):
        assert main(["solve", "--grid", "0.1:1:3", "--out", str(tmp_path)]) == EXIT_USAGE


class TestExitCodes:
    def test_missing_subcommand(self):
        assert main([]) == EXIT_USAGE

    def test_unknown_algorithm(self, tmp_path):
        code = main([
            "solve", "--problem", "scalar-affine", "--alg", "bogus",
            "--out", str(tmp_path),
        ])
        assert code == EXIT_USAGE

    def test_unknown_problem_kind(self, tmp_path):
        code = main(["solve", "--problem", "bogus", "--out", str(tmp_path)])
        assert code == EXIT_USAGE

    def test_malformed_config(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["solve", "--config", str(bad)]) == EXIT_USAGE

    def test_infeasible_constants_auto_lambda(self, tmp_path):
        # no lam gives kappa < 1 for these constants
        cfg = _write_config(tmp_path, {
            "problem": {
                "kind": "explicit",
                "dim": 1,
                "h": {"kind": "scaled-identity", "scale": 1.0},
                "a": {"kind": "scaled-identity", "scale": 1.0},
                "m": {"kind": "scaled-identity", "scale": 1.0},
                "constants": {"gamma": 1, "tau": 3, "r": 1, "s": 2, "eta": 1},
            },
            "lambda": "auto",
        })
        code = main(["solve", "--config", cfg, "--out", str(tmp_path)])
        assert code == EXIT_INFEASIBLE

    @pytest.mark.parametrize("command", ["solve", "compare", "audit"])
    def test_unknown_algorithm_stops_before_any_run(self, tmp_path, command):
        out = tmp_path / "out"
        code = main([
            command, "--problem", "spd-linear", "--dim", "10", "--alg", "fh,zgy,bogus",
            "--out", str(out),
        ])
        assert code == EXIT_USAGE
        assert not any(out.iterdir())

    @pytest.mark.parametrize("command", ["solve", "compare", "sweep", "audit"])
    def test_explicit_constants_falsified_by_sampling(self, tmp_path, command, capsys):
        # an identity H is 1-Lipschitz, not 0.5: the exact tau rejects the declared one before any run
        problem = _explicit(2, {"kind": "scaled-identity", "scale": 1.0}, (0.5, 0.5, 0.5, 1, 1))
        cfg = _write_config(tmp_path, {"problem": {**problem, "known_solution": [0.0, 0.0]},
                                       "algorithms": ["fh", "zgy"]})
        out = tmp_path / "out"
        assert main([command, "--config", cfg, "--out", str(out)]) == EXIT_INFEASIBLE
        assert not any(out.iterdir())
        assert "h_lipschitz" in capsys.readouterr().err

    def test_explicit_false_s_that_sampling_misses(self, tmp_path, capsys):
        # A = diag(1, ..., 1, 3) - 1 has s = 3. No one of 100 seeded random pairs at dim 50
        # is stretched by 1.5, so a sampled check let s = 1.5 through: solve exited 0 with
        # kappa 0.509 (1.26 with the exact s) and a failed envelope
        matrix = np.eye(50)
        matrix[-1, -1] = 3.0
        problem = _explicit(50, {"kind": "affine", "matrix": matrix.tolist(), "offset": [1.0] * 50},
                            (1, 1, 1, 1.5, 1))
        cfg = _write_config(tmp_path, {"problem": {**problem, "known_solution": [0.5] * 49 + [0.25]},
                                       "lambda": 0.8})
        out = tmp_path / "out"
        assert main(["solve", "--config", cfg, "--out", str(out)]) == EXIT_INFEASIBLE
        assert not any(out.iterdir())
        assert "a_lipschitz" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, config", [
        (["solve", "--max-steps", "-3"], {}),
        (["audit", "--alg", "fh,new", "--max-steps", "-3"], {}),
        (["solve", "--tol", "nan"], {}),
        (["audit", "--alg", "fh,new"], {"gap_tol": -1}),
        (["audit", "--alg", "fh,new"], {"gap_tol": float("nan")}),
    ])
    def test_meaningless_stopping_or_gap_tol(self, tmp_path, argv, config):
        # a negative cap makes 0-step runs, a NaN tol is never met and a
        # negative or NaN gap_tol fails every pair: inputs, not numerics
        out = tmp_path / "out"
        code = main([*argv, "--config", _write_config(tmp_path, config),
                     "--problem", "spd-linear", "--dim", "5", "--out", str(out)])
        assert code == EXIT_USAGE
        assert not any(out.iterdir())

    @pytest.mark.parametrize("lam", ["inf", "-inf", "nan", "0"])
    def test_lambda_not_finite_and_positive(self, tmp_path, lam):
        # an infinite lam once gave kappa NaN and exit 3: it is an input, not numerics
        out = tmp_path / "out"
        code = main(["solve", "--problem", "spd-linear", "--dim", "5", "--lambda=" + lam,
                     "--out", str(out)])
        assert code == EXIT_USAGE
        assert not any(out.iterdir())

    def test_operator_of_other_dimension(self, tmp_path):
        # a 2 x 2 A on a problem declared 3-dimensional
        cfg = _write_config(tmp_path, {
            "problem": _explicit(3, {"kind": "affine", "matrix": [[1, 0], [0, 1]]}),
        })
        out = tmp_path / "out"
        assert main(["solve", "--config", cfg, "--out", str(out)]) == EXIT_USAGE
        assert not any(out.iterdir())

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_operator_with_a_non_finite_entry(self, tmp_path, bad):
        # no constant bounds such an operator: an input error, before any run
        cfg = _write_config(tmp_path, {
            "problem": _explicit(2, {"kind": "affine", "matrix": [[1, bad], [0, 1]]}),
        })
        out = tmp_path / "out"
        assert main(["solve", "--config", cfg, "--out", str(out)]) == EXIT_USAGE
        assert not any(out.iterdir())

    @pytest.mark.parametrize("argv, code", [
        (["solve", "--problem", "scalar-affine"], EXIT_OK),
        (["solve", "--problem", "scalar-affine", "--dim", "two"], EXIT_USAGE),
        (["audit", "--problem", "spd-linear", "--alg", "fh"], EXIT_USAGE),
    ])
    def test_entry_exit_status(self, tmp_path, monkeypatch, argv, code):
        monkeypatch.setattr(sys, "argv", ["hmsolve", *argv, "--out", str(tmp_path)])
        with pytest.raises(SystemExit) as exc:
            entry()
        assert exc.value.code == code


#: config field -> (valid values, invalid values); scalar-affine ignores dim,
#: constants and a shape the explicit kind, lambda 40 breaks kappa < 1 and the
#: second constants admit no lambda
_FUZZ_POOLS = {
    "kind": (["scalar-affine", "spd-linear", "soft-threshold", "explicit"], ["bogus"]),
    "dim": ([1, 2, 6], [0, -1]),
    "constants": ([(1, 1, 1, 1, 1), (1, 3, 1, 2, 1)], []),
    "a": (["affine", "scaled-identity"], []),
    "lambda": (["auto", 0.3, 1.0, 40.0], [0, -1.0]),
    "xi": (["const:0.5", "harmonic:1", "one-minus-harmonic:2", "table:0.2,1"],
           ["const:1.5", "geometric:1"]),
    "mu": (["const:0", "const:0.9", "harmonic:2"], ["const:1.5", "geometric:1"]),
    "tol": ([1e-10, 1e-3, -1.0], [float("nan")]),
    "max_steps": ([0, 1, 30], [-1]),
    "x0": ([None, 0.5, -2.0], [float("nan"), [1.0] * 7]),
}
#: command -> (valid, invalid) algorithm lists; sweep runs none, so any list is valid
_FUZZ_ALGORITHMS = {
    "solve": ([["fh"], ["mann", "new"], ["fh", "zgy", "mann", "new"]], [["fh", "bogus"]]),
    "compare": ([["zgy", "fh"], ["mann", "new"]], [["fh", "bogus"], ["new"], ["fh", "zgy", "new"]]),
    "audit": ([["zgy", "fh"], ["fh", "zgy", "mann", "new"]], [["fh", "bogus"], ["new"]]),
    "sweep": ([["fh", "bogus"], []], []),
}


@st.composite
def _fuzzed_config(draw):
    """(command, config, whether every field came from its valid pool).

    At most one field is drawn from the invalid pools, so each invalid value
    is tried among valid ones.
    """
    command = draw(st.sampled_from(sorted(_FUZZ_ALGORITHMS)))
    pools = {**_FUZZ_POOLS, "algorithms": _FUZZ_ALGORITHMS[command]}
    broken = draw(st.none() | st.sampled_from([f for f, (_, bad) in pools.items() if bad]))
    pick = {field: draw(st.sampled_from(invalid if field == broken else valid))
            for field, (valid, invalid) in pools.items()}
    if pick["kind"] == "explicit":
        # A = I - 1 puts x* at 1/2, the dimension-agnostic A = I at 0
        n = max(pick["dim"], 1)
        a, xstar = {"kind": "affine", "matrix": np.eye(n).tolist(), "offset": [1.0] * n}, 0.5
        if pick["a"] == "scaled-identity":
            a, xstar = {"kind": "scaled-identity", "scale": 1.0}, 0.0
        problem = _explicit(pick["dim"], a, pick["constants"])
        if pick["dim"] >= 1:
            problem["known_solution"] = [xstar] * pick["dim"]
    else:
        problem = {"kind": pick["kind"], "dim": pick["dim"]}
    cfg = {
        "problem": problem,
        "lambda": pick["lambda"],
        "algorithms": pick["algorithms"],
        "sequences": {"xi": pick["xi"], "mu": pick["mu"]},
        "stopping": {"tol": pick["tol"], "max_steps": pick["max_steps"]},
        "x0": pick["x0"],
    }
    return command, cfg, broken is None


class TestExitCodeFuzz:
    @settings(max_examples=250, derandomize=True, deadline=None)
    @given(case=_fuzzed_config())
    def test_exit_code_matches_input_class(self, case):
        # main never raises; a usage error needs a field from an invalid pool
        command, cfg, all_valid = case
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "config.json"
            path.write_text(json.dumps(cfg))
            code = main([command, "--config", str(path), "--out", str(Path(tmp) / "out")])
        assert code in (EXIT_OK, EXIT_USAGE, EXIT_INFEASIBLE, EXIT_NUMERICAL)
        if all_valid:
            assert code != EXIT_USAGE, cfg
