import contextlib
import csv
import inspect
import json
import os
import subprocess
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
from hmsolve.operators import AffineLinear, ScaledIdentity, catalog_constants
from hmsolve.problems import gen_spd_linear
from hmsolve.schemes import ProblemInstance, run_fh
from oracles import recorded, tanh_h


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


def _strict_json(path):
    """The JSON in path, refusing NaN and Infinity, which strict JSON has no word for."""
    def reject(constant):
        raise ValueError("%s is not JSON" % constant)

    return json.loads(path.read_text(), parse_constant=reject)


def _explicit(dim, a, constants=(1, 1, 1, 1, 1), h_scale=1.0):
    return {
        "kind": "explicit",
        "dim": dim,
        "h": {"kind": "scaled-identity", "scale": h_scale},
        "a": a,
        "m": {"kind": "scaled-identity", "scale": 1.0},
        "constants": dict(zip(("gamma", "tau", "r", "s", "eta"), constants)),
    }


#: a symmetric positive definite H with off-diagonal entries: gamma 1 and tau 1.2
_DENSE_H = [[1.1, 0.1, 0.0], [0.1, 1.1, 0.0], [0.0, 0.0, 1.2]]

#: an s whose square underflows
_TINY_S = 2.2227587494850775e-162

#: (family, its parameter, a spec string for it, series properties, n-th term)
_SEQUENCES = [
    ("constant", 0.5, "const:0.5", (True, 0.5), lambda n: 0.5),
    ("constant", 0.0, "const:0", (False, 0.0), lambda n: 0.0),
    ("constant", 1.0, "constant:1", (True, 1.0), lambda n: 1.0),
    ("harmonic", 1, "harmonic:", (True, 0.0), lambda n: 1.0 / (n + 1)),
    ("harmonic", 3, "harmonic:3", (True, 0.0), lambda n: 1.0 / (n + 3)),
    ("one-minus-harmonic", 2, "one-minus-harmonic:2", (True, 0.5), lambda n: 1.0 - 1.0 / (n + 2)),
    ("one-minus-harmonic", 1, "one-minus-harmonic:1", (True, 0.0), lambda n: 1.0 - 1.0 / (n + 1)),
    ("custom-table", (0.1, 0.4), "table:0.1,0.4", (True, 0.1), lambda n: 0.1 if n == 0 else 0.4),
    ("custom-table", (0.3, 0.0), "table:0.3,0,", (False, 0.0), lambda n: 0.3 if n == 0 else 0.0),
]

#: spec strings and dicts, each with whether the CLI accepts it
_SPECS = [
    ("const:0.5", True), ("const:1.5", False), ("const:", False), ("const:x", False),
    ("harmonic:", True), ("harmonic:2", True), ("harmonic:0", False), ("harmonic:1.5", False),
    ("one-minus-harmonic:3", True), ("one-minus-harmonic:0", False), ("table:0.5,0.2", True),
    ("table:", False), ("table:0.1,2", False), ("geometric:0.5", False), ("custom-table:0.1", False),
    ({"family": "constant", "value": 0.5}, True), ({"family": "constant", "value": 1}, True),
    ({"family": "constant", "value": "0.5"}, False), ({"family": "constant"}, False),
    ({"family": "constant", "value": 2}, False), ({"family": "harmonic"}, True),
    ({"family": "harmonic", "offset": 2}, True), ({"family": "harmonic", "offset": 0}, False),
    ({"family": "one-minus-harmonic", "offset": 0.5}, False),
    ({"family": "custom-table", "table": [0.1, 0.2]}, True),
    ({"family": "custom-table", "table": "0.1,0.2"}, False),
    ({"family": "custom-table", "table": []}, False), ({"family": "custom-table", "table": [0.1, 2]}, False),
    ({"family": "geometric", "value": 0.5}, False), ({"family": "table", "table": [0.1]}, False),
    ({"family": "harmonic", "offset": 2.0}, True), ({"family": "harmonic", "offset": 1.5}, False),
    ({"family": "harmonic", "offset": "2"}, False), ({"family": "harmonic", "offset": True}, False),
    ({"family": "harmonic", "offset": float("inf")}, False), ({"family": "constant", "value": True}, False),
    ({"family": "custom-table", "table": [0, 1]}, True), ({"family": "custom-table", "table": "1"}, False),
    ({"family": "custom-table", "table": ["0.1"]}, False),
    # a parameter of another family, or a key of none, once ran harmonic:1 and const:0.5
    ({"family": "harmonic", "value": 0.5}, False), ({"family": "constant", "value": 0.5, "ofset": 3}, False),
]


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

    @pytest.mark.parametrize("family, param, spec, properties, term", _SEQUENCES,
                             ids=[row[2] for row in _SEQUENCES])
    def test_every_form_gives_one_sequence(self, family, param, spec, properties, term):
        name = schemes.STEP_FAMILIES[family].param
        forms = [schemes.StepSequence(family, param), schemes.make_step_sequence(family, **{name: param}),
                 parse_sequence(spec), parse_sequence({"family": family, name: param})]
        assert all(seq == forms[0] and hash(seq) == hash(forms[0]) for seq in forms)
        for seq in forms:
            assert [seq.value(n) for n in range(50)] == [term(n) for n in range(50)]
            assert (seq.sums_to_infinity, seq.lower_bound) == properties

    def test_unit_constants_are_one_and_zero(self):
        # the audit pairs runs by comparing their castings' sequences with ONE
        assert parse_sequence("const:1") == schemes.ONE and parse_sequence("const:0") == schemes.ZERO

    @pytest.mark.parametrize("spec, accepted", _SPECS)
    def test_accepts_and_rejects(self, spec, accepted):
        # spec strings are read as text; a dict takes numbers only: its value "0.5", offset 1.5
        # or "2", and table "0.1,0.2" or ["0.1"] are neither truncated nor converted
        with contextlib.nullcontext() if accepted else pytest.raises(UsageError):
            with cli._interpreting():
                assert isinstance(parse_sequence(spec), schemes.StepSequence)

    @pytest.mark.parametrize("spec", [{"family": "constant", "value": "0.5"},
                                      {"family": "custom-table", "table": "0.1,0.2"},
                                      {"family": "harmonic", "offset": 1.5},
                                      {"family": "harmonic", "offset": "2"},
                                      {"family": "custom-table", "table": "1"},
                                      {"family": "custom-table", "table": ["0.1"]}])
    def test_text_in_a_config_dict_is_a_usage_error(self, tmp_path, spec):
        cfg = _write_config(tmp_path, {"problem": {"kind": "scalar-affine"}, "sequences": {"xi": spec}})
        assert main(["solve", "--config", cfg, "--out", str(tmp_path / "out")]) == EXIT_USAGE
        assert not any((tmp_path / "out").iterdir())


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
        assert alg["final_error"] == alg["final_residual"] == 0.0
        assert (tmp_path / "trace_fh.csv").exists()

    def test_explicit_subdifferential_m(self, tmp_path):
        # 0 in (2x - b) + (x + d|x|) at x = soft(b, 1)/3: the soft-threshold resolvent
        problem = {**_explicit(3, {"kind": "affine", "matrix": (2 * np.eye(3)).tolist(),
                                   "offset": [3.0, 0.5, -4.0]}, (1, 1, 2, 2, 1)),
                   "m": {"kind": "shifted-subdifferential", "shift": 1.0},
                   "known_solution": [2 / 3, 0.0, -1.0]}
        cfg = _write_config(tmp_path, {"problem": problem, "lambda": "auto", "algorithms": ["fh", "new"]})
        assert main(["solve", "--config", cfg, "--out", str(tmp_path / "out")]) == EXIT_OK
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        for alg in summary["algorithms"].values():
            assert alg["converged"] and alg["final_error"] < 1e-8

    #: the forms no other CLI run solves with every scheme: a scalar problem; spd-linear at dim 1 and 2,
    #: where Q's reflectors are sign flips and reflections of the plane; spd-linear with c_a = 2 and lam = 1,
    #: where T = -H/(H + I) has every t negative; and, each with a scalar M, a scalar H with a matrix A,
    #: a dense H, the CLI's one run of K's LU, and s = eta = 2.2e-162, whose s^2 underflows: lam* = 1/(2s)
    #: = 2.25e161 and kappa(lam*) = 0
    ALL_FOUR = {
        "scalar-affine": ["--problem", "scalar-affine"],
        "spd-linear-dim-1": ["--problem", "spd-linear", "--dim", "1"],
        "spd-linear-dim-2": ["--problem", "spd-linear", "--dim", "2"],
        "spd-linear-negative-t": ["--problem", "spd-linear", "--dim", "300", "--c-a", "2", "--lambda", "1"],
        "explicit-matrix-a": _explicit(3, {"kind": "affine", "matrix": (2 * np.eye(3)).tolist(),
                                           "offset": [1, 2, 3]}, (1, 1, 2, 2, 1)),
        "explicit-dense-h": {**_explicit(3, {"kind": "affine", "matrix": _DENSE_H, "offset": [1, 2, 3]},
                                         (1, 1.2, 1, 1.2, 1)), "h": {"kind": "affine", "matrix": _DENSE_H}},
        "explicit-s-squared-underflows": {
            **_explicit(3, {"kind": "affine", "matrix": (_TINY_S * np.eye(3)).tolist(), "offset": [1, 2, 3]},
                        (0.5, 0.5, _TINY_S / 2, _TINY_S, _TINY_S), h_scale=0.5),
            "m": {"kind": "scaled-identity", "scale": _TINY_S}},
    }

    @pytest.mark.parametrize("case", sorted(ALL_FOUR))
    def test_all_four_schemes_converge(self, tmp_path, case):
        flags = self.ALL_FOUR[case]
        if isinstance(flags, dict):
            flags = ["--config", _write_config(tmp_path, {"problem": flags, "lambda": "auto"})]
        out = tmp_path / "out"
        assert main(["solve", *flags, "--alg", "fh,zgy,mann,new", "--out", str(out)]) == EXIT_OK
        summary = json.loads((out / "summary.json").read_text())
        assert [alg["converged"] for alg in summary["algorithms"].values()] == [True] * 4

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

    def test_summary_names_the_instance(self, tmp_path):
        # the generators once wrote some of their parameters by hand, and spd-linear's dim and b_scale were not
        argv = ["--problem", "spd-linear", "--dim", "200", "--seed", "1", "--b-scale", "1e8", "--tol", "-1"]
        assert main(["solve", *argv, "--max-steps", "80", "--out", str(tmp_path)]) == EXIT_OK
        problem = json.loads((tmp_path / "summary.json").read_text())["problem"]
        assert (problem["dim"], problem["b_scale"], problem["seed"]) == (200, 1e8, 1)

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
        (None, ["--eigen-lo", "1.1"], [1.1, 1.2]),
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

    def test_huge_lambda_writes_strict_json_and_checks_the_envelope(self, tmp_path):
        # lam*s = 1.2e200 overflows lam^2*s^2, yet kappa is finite: near its limit s/eta = 0.6
        code = main(["solve", "--problem", "spd-linear", "--dim", "20", "--m", "2", "--lambda", "1e200",
                     "--alg", "fh", "--out", str(tmp_path)])
        assert code == EXIT_OK
        summary = _strict_json(tmp_path / "summary.json")
        assert summary["kappa"] == pytest.approx(0.6, abs=1e-12)
        assert not summary["hypothesis_violated"]
        fh = summary["algorithms"]["fh"]
        assert fh["converged"] and fh["envelope"]["checked"] and fh["envelope"]["passed"]

    def test_seed_flag_overrides_the_config_seed(self, tmp_path):
        problem = {"kind": "spd-linear", "dim": 8, "seed": 3}
        file_cfg = tmp_path / "top-level-seed.json"
        file_cfg.write_text(json.dumps({"problem": problem, "seed": 5}))
        runs = {"both": ["--config", _write_config(tmp_path, {"problem": problem}), "--seed", "5"],
                "flag": ["--problem", "spd-linear", "--dim", "8", "--seed", "5"],
                "file": ["--config", str(file_cfg)]}
        for name, argv in runs.items():
            assert main(["solve", *argv, "--out", str(tmp_path / name)]) == EXIT_OK
        both, flag, file = ((tmp_path / name / "summary.json").read_bytes() for name in runs)
        assert both == flag and b'"seed": 5' in both
        # in the file alone, problem.seed wins over a top-level seed
        assert b'"seed": 3' in file and file != both

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
        (bounds_a, passed_a), (bounds_b, _) = (analysis.check_envelope(t, p.contraction_factor()) for t in traces)
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

    @pytest.mark.parametrize("b_scale", ["1e100", "1e160"])
    def test_huge_solution_keeps_its_verdict(self, tmp_path, b_scale):
        # ||x*|| ~ 1e161 squares past the largest float; the censoring threshold 10*eps*(1 + ||x*||)
        # stays finite, so the fit and the verdict are those at 1e100
        code = main(["compare", "--problem", "spd-linear", "--dim", "50", "--b-scale", b_scale,
                     "--alg", "new,fh", "--out", str(tmp_path)])
        assert code == EXIT_OK
        report = json.loads((tmp_path / "rate_report.json").read_text())
        assert report["verdict"] == "a-faster"
        assert report["fitted_ratio"] == pytest.approx(0.6316, abs=1e-4)
        assert sum(p is not None for p in report["pi"]) >= len(report["pi"]) // 2

    def test_self_comparison_same_rate(self, tmp_path):
        code = main([
            "compare", "--problem", "spd-linear", "--dim", "10", "--seed", "1",
            "--alg", "fh,fh", "--out", str(tmp_path),
        ])
        assert code == EXIT_OK
        report = json.loads((tmp_path / "rate_report.json").read_text())
        assert report["verdict"] == "same-rate"

    def test_diverged_runs_get_no_fit(self, tmp_path, capsys):
        # kappa >= 1: both errors overflow; their ratios are censored, not 0 or NaN
        code = main([
            "compare", "--problem", "spd-linear", "--dim", "20", "--c-a", "5",
            "--lambda", "50", "--alg", "fh,new", "--out", str(tmp_path),
        ])
        assert code == EXIT_NUMERICAL
        assert "non-finite iterate" in capsys.readouterr().err
        report = json.loads((tmp_path / "rate_report.json").read_text())
        assert not any(p == 0.0 or np.isnan(p) for p in report["pi"] if p is not None)
        assert report["fitted_ratio"] is None
        assert report["verdict"] == "undecided"

    def test_one_ratio_gives_no_verdict(self, tmp_path):
        # at lambda = 1 with c_a = 1 both runs reach x* in one step: pi keeps only pi_0 = 1, no rate
        code = main(["compare", "--problem", "spd-linear", "--dim", "20", "--lambda", "1",
                     "--alg", "new,fh", "--out", str(tmp_path)])
        assert code == EXIT_OK
        report = _strict_json(tmp_path / "rate_report.json")
        assert report["pi"] == [1.0, None]
        assert report["verdict"] == "undecided"
        assert report["fitted_ratio"] is None

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
        # a grid of one point is its lower end
        one = tmp_path / "one"
        assert main(["sweep", "--problem", "scalar-affine", "--grid", "0.7:3:1", "--out", str(one)]) == EXIT_OK
        assert [line.split(",")[0] for line in (one / "sweep.csv").read_text().splitlines()[1:]] == ["0.7"]
        assert json.loads((one / "sweep_summary.json").read_text())["best_lambda"] == 0.7

    def test_interval_past_the_overflow_is_strict_json(self, tmp_path):
        # tau^2 - gamma^2 = inf - inf made the interval's upper end NaN, which strict JSON has no word for
        a = {"kind": "affine", "matrix": (1e140 * np.eye(3)).tolist(), "offset": [1, 2, 3]}
        cfg = _write_config(tmp_path, {"problem": _explicit(3, a, (1e160, 1e160, 1e300, 1e140, 1), h_scale=1e160)})
        assert main(["sweep", "--config", cfg, "--grid", "1e19:2e20:3", "--out", str(tmp_path)]) == EXIT_OK
        summary = (tmp_path / "sweep_summary.json").read_text()
        assert "NaN" not in summary and json.loads(summary)["feasible_interval"] == [0.0, 2e20]

    def test_kappa_past_the_overflow_is_strict_json(self, tmp_path):
        # lam*s = 1e399 and 1e400 pass the largest float, yet kappa is finite: about s/eta = 1e200
        a = {"kind": "affine", "matrix": (2 * np.eye(3)).tolist(), "offset": [1, 2, 3]}
        cfg = _write_config(tmp_path, {"problem": _explicit(3, a, (1, 1e200, 1, 1e200, 1))})
        assert main(["sweep", "--config", cfg, "--grid", "1e199:1e200:2", "--out", str(tmp_path)]) == EXIT_OK
        assert _strict_json(tmp_path / "sweep_summary.json")["best_kappa"] == 1e200
        rows = (tmp_path / "sweep.csv").read_text().splitlines()[1:]
        assert len(rows) == 2 and np.isfinite([[float(v) for v in row.split(",")] for row in rows]).all()

    def test_open_interval_end_is_null(self, tmp_path):
        # kappa < 1 for every lam > 0, so the interval's upper end is past the floats. Each grid kappa
        # is below 1 by less than half an ulp: the rounded kappa, 1.0, decides the summary's flags
        a = {"kind": "affine", "matrix": (1e-250 * np.eye(3)).tolist(), "offset": [1, 2, 3]}
        problem = {**_explicit(3, a, (1e100, 1e100, 1e-150, 1e-250, 1e-251), h_scale=1e100),
                   "m": {"kind": "scaled-identity", "scale": 1e-251}}
        cfg = _write_config(tmp_path, {"problem": problem})
        assert main(["sweep", "--config", cfg, "--grid", "1e19:2e20:3", "--out", str(tmp_path)]) == EXIT_OK
        summary = _strict_json(tmp_path / "sweep_summary.json")
        assert summary["feasible_interval"] == [0.0, None]
        assert (summary["best_kappa"], summary["all_kappa_ge_one"]) == (1.0, True)

    def test_kappa_past_the_overflow_at_every_point_is_null(self, tmp_path):
        # tau = 1e308 over gamma + lam*eta = 1e-300 + lam*1e-300 puts kappa past the largest float
        a = {"kind": "affine", "matrix": [[1.0]], "offset": [1.0]}
        cfg = _write_config(tmp_path, {"problem": _explicit(1, a, (1e-300, 1e308, 1e-300, 1, 1e-300))})
        assert main(["sweep", "--config", cfg, "--grid", "1:2:2", "--out", str(tmp_path)]) == EXIT_OK
        summary = _strict_json(tmp_path / "sweep_summary.json")
        assert (summary["best_kappa"], summary["feasible_interval"], summary["all_kappa_ge_one"]) == (
            None, None, True)
        # summary.json keeps kappa as Infinity, as README states
        assert main(["solve", "--config", cfg, "--out", str(tmp_path)]) == EXIT_OK
        assert json.loads((tmp_path / "summary.json").read_text())["kappa"] == np.inf

    def test_default_grid(self, tmp_path):
        assert main(["sweep", "--problem", "scalar-affine", "--out", str(tmp_path)]) == EXIT_OK
        with open(tmp_path / "sweep.csv", encoding="utf-8", newline="") as fh:
            lambdas = [float(row["lambda"]) for row in csv.DictReader(fh)]
        assert lambdas == np.linspace(1e-3, 10.0, 100).tolist()

    def test_invalid_grid(self, tmp_path):
        code = main([
            "sweep", "--problem", "scalar-affine", "--grid", "2:1:10",
            "--out", str(tmp_path),
        ])
        assert code == EXIT_USAGE

    @pytest.mark.parametrize("grid", ["0.1:inf:3", "inf:inf:2", "nan:1:3", "0:1:3", "0.1:1:0"])
    def test_non_finite_or_empty_grid(self, tmp_path, capsys, grid):
        # an infinite end once made NaN grid points, and a traceback from contraction_factor
        out = tmp_path / "out"
        assert main(["sweep", "--problem", "scalar-affine", "--grid", grid, "--out", str(out)]) == EXIT_USAGE
        assert "invalid lambda grid" in capsys.readouterr().err
        assert not any(out.iterdir())


class TestSpdLinearStaysSpectral:
    """spd-linear's H and A are vectors in the coordinates of its reflector basis: no subcommand builds
    an n x n matrix, and each product with Q is counted."""

    @pytest.mark.parametrize("command", [
        ["solve", "--alg", "fh,zgy,mann,new"],
        ["solve", "--lambda", "auto", "--alg", "fh,new"],
        ["compare", "--alg", "new,fh"],
        ["audit", "--alg", "fh,zgy,mann,new"],
        ["sweep"],
    ])
    def test_no_dense_h_or_a(self, command, tmp_path, monkeypatch):
        made = recorded(monkeypatch, problems, "gen_spd_linear")
        assert main([*command, "--problem", "spd-linear", "--dim", "30", "--out", str(tmp_path)]) == EXIT_OK
        assert len(made) == 1
        assert all(np.ndim(value) < 2 for op in (made[0].h, made[0].a) for value in vars(op).values())
        assert made[0].basis._v.shape == (3, 30)  # Q stays its reflectors

    def test_solve_maps_only_each_final_iterate_back(self, tmp_path, monkeypatch):
        products = recorded(monkeypatch, problems.ReflectorBasis, "__matmul__")
        runs = [recorded(monkeypatch, schemes, "run_" + name) for name in ("fh", "zgy", "mann", "new")]
        assert main(["solve", "--problem", "spd-linear", "--dim", "50", "--alg", "fh,zgy,mann,new",
                     "--out", str(tmp_path)]) == EXIT_OK
        traces = sum(runs, [])
        # Q^T b and x* take 1 product each and the instance's probe of Q 2; then y* = Q^T x* 1
        # and each run's x_N 1
        assert len(products) == 4 + 1 + 4
        assert [len(t.iterates) for t in traces] == [1] * 4
        assert all(t.steps_used > 0 and t.coordinates is None for t in traces)

    def test_compare_maps_only_each_final_iterate_back(self, tmp_path, monkeypatch):
        # the benchmark's oracle reads compare's runs off the runners it wraps, looked up at call time
        made = recorded(monkeypatch, problems, "gen_spd_linear")
        products = recorded(monkeypatch, problems.ReflectorBasis, "__matmul__")
        runs = [recorded(monkeypatch, schemes, "run_" + name) for name in ("new", "fh")]
        assert main(["compare", "--problem", "spd-linear", "--dim", "50", "--alg", "new,fh",
                     "--out", str(tmp_path)]) == EXIT_OK
        assert [len(r) for r in runs] == [1, 1]
        # the generator's 4 products and y* = Q^T x*'s 1; then each run's x_N 1
        assert len(products) == 4 + 1 + 2
        half = schemes.make_step_sequence("constant", value=0.5)
        for (trace,) in runs:
            assert trace.coordinates is None and len(trace.iterates) == 1
            kept = schemes.run_scheme(trace.algorithm, made[0], np.zeros(50), half, half)
            assert np.array_equal(trace.iterates[0], made[0].basis @ kept.coordinates[-1])

    def test_audit_maps_only_each_final_iterate_back(self, tmp_path, monkeypatch):
        products = recorded(monkeypatch, problems.ReflectorBasis, "__matmul__")
        runs = [recorded(monkeypatch, schemes, "run_" + name) for name in ("fh", "zgy", "mann", "new")]
        assert main(["audit", "--problem", "spd-linear", "--dim", "50", "--alg", "fh,zgy,mann,new",
                     "--out", str(tmp_path)]) == EXIT_OK
        traces = sum(runs, [])
        # the generator's 4 products and y* = Q^T x*'s 1; then one per run, probe or rerun, for
        # its x_N: the gaps are taken between the kept coordinates
        assert len(traces) > 4 and len(products) == 4 + 1 + len(traces)
        assert all(len(t.iterates) == 1 and len(t.coordinates) == t.steps_used + 1 for t in traces)


#: a config of each problem kind on which every subcommand exits 0 with ``--alg new,fh``
_KIND_CONFIGS = {
    "scalar-affine": {"kind": "scalar-affine"},
    "spd-linear": {"kind": "spd-linear", "dim": 10},
    "soft-threshold": {"kind": "soft-threshold", "dim": 10},
    "explicit": {**_explicit(3, {"kind": "affine", "matrix": np.eye(3).tolist(), "offset": [1.0] * 3}),
                 "known_solution": [0.5] * 3},
}


class TestProblemKinds:
    """Each kind's ``problem`` keys are the parameters of its builder ``problems.gen_<kind>``."""

    @pytest.mark.parametrize("command", ["solve", "compare", "sweep", "audit"])
    @pytest.mark.parametrize("kind", sorted(_KIND_CONFIGS))
    def test_builder_is_looked_up_at_call_time(self, tmp_path, monkeypatch, kind, command):
        # a builder captured at import would miss a wrapper set later, such as the benchmark's tracing
        made = recorded(monkeypatch, problems, "gen_" + kind.replace("-", "_"))
        cfg = _write_config(tmp_path, {"problem": _KIND_CONFIGS[kind]})
        assert main([command, "--config", cfg, "--alg", "new,fh", "--out", str(tmp_path / "out")]) == EXIT_OK
        assert len(made) == 1

    @pytest.mark.parametrize("command", ["solve", "sweep"])
    @pytest.mark.parametrize("key", ["dimm", "lam", "tol"])
    def test_key_of_no_kind_is_a_usage_error(self, tmp_path, capsys, command, key):
        # a misspelt dim once ran spd-linear at its default dim 50 and exited 0
        cfg = _write_config(tmp_path, {"problem": {"kind": "spd-linear", key: 500}})
        out = tmp_path / "out"
        assert main([command, "--config", cfg, "--out", str(out)]) == EXIT_USAGE
        assert "unknown problem keys ['%s']" % key in capsys.readouterr().err
        assert not any(out.iterdir())

    def test_key_of_another_kind_is_ignored(self, tmp_path, monkeypatch):
        made = recorded(monkeypatch, problems, "gen_scalar_affine")
        assert main(["solve", "--problem", "scalar-affine", "--dim", "6", "--c-a", "2",
                     "--out", str(tmp_path)]) == EXIT_OK
        assert made[0].dim == 1

    @pytest.mark.parametrize("flags, lam", [([], 0.5), (["--lambda", "0.25"], 0.25)])
    def test_problem_lambda_is_taken_unless_given_at_the_top(self, tmp_path, flags, lam):
        cfg = _write_config(tmp_path, {"problem": {"kind": "scalar-affine", "lambda": 0.5}})
        assert main(["solve", "--config", cfg, *flags, "--out", str(tmp_path)]) == EXIT_OK
        assert json.loads((tmp_path / "summary.json").read_text())["lambda"] == lam

    @pytest.mark.parametrize("auto", [[], ["--lambda", "auto"]])
    @pytest.mark.parametrize("kind", sorted(_KIND_CONFIGS))
    def test_summary_names_each_parameter_of_the_builder(self, tmp_path, kind, auto):
        cfg = _write_config(tmp_path, {"problem": _KIND_CONFIGS[kind]})
        assert main(["solve", "--config", cfg, *auto, "--out", str(tmp_path / "out")]) == EXIT_OK
        problem = json.loads((tmp_path / "out" / "summary.json").read_text())["problem"]
        params = inspect.signature(getattr(problems, "gen_" + kind.replace("-", "_"))).parameters
        assert problem.keys() == {"kind", *params} - {"lam"} | ({"lambda_auto"} if auto else set())
        # each given value as given, each other one the builder's default
        assert problem == json.loads(json.dumps({**{k: p.default for k, p in params.items() if k != "lam"},
                                                 **_KIND_CONFIGS[kind], **({"lambda_auto": True} if auto else {})}))

    def test_help_names_every_kind(self):
        (text,) = [text for flag, _, _, text in cli._FLAGS if flag == "--problem"]
        assert text == "problem kind (scalar-affine, spd-linear, soft-threshold, explicit)"

    def test_operator_key_given_a_number_names_itself(self, tmp_path, capsys):
        # --m sets spd-linear's scale of M, yet explicit's m is an operator: a TypeError once named neither
        cfg = _write_config(tmp_path, {"problem": _KIND_CONFIGS["explicit"]})
        out = tmp_path / "out"
        assert main(["solve", "--config", cfg, "--m", "2", "--out", str(out)]) == EXIT_USAGE
        assert "explicit problem key 'm' must be an operator object, got 2.0" in capsys.readouterr().err
        assert not any(out.iterdir())


#: (command, config keys beside a problem, what the usage error names): a key outside ``cli._DEFAULTS``, or a
#: value that its flag's check refuses. Each once ran something other than what was written, and exited 0
_REFUSED = [
    ("solve", {"stopping": {"max_step": 3}}, "unknown config keys ['stopping.max_step']"),
    ("solve", {"stoping": {"max_steps": 3}}, "unknown config keys ['stoping']"),
    ("solve", {"sequence": {"mu": "const:0.9"}}, "unknown config keys ['sequence']"),
    ("audit", {"gaptol": 0.1}, "unknown config keys ['gaptol']"),
    ("sweep", {"grid": {"step": 0.1}}, "unknown config keys ['grid.step']"),
    ("solve", {"output": {"path": "elsewhere"}}, "unknown config keys ['output.path']"),
    ("solve", {"stoping": {}, "stopping": {"max_step": 3}}, "unknown config keys ['stoping', 'stopping.max_step']"),
    ("solve", {"stopping": {"max_steps": 2.7}}, "max_steps must be a whole number, got 2.7"),
    ("audit", {"stopping": {"max_steps": True}}, "max_steps must be a whole number, got True"),
    ("sweep", {"grid": {"points": 2.9}}, "grid.points must be a whole number, got 2.9"),
    ("compare", {"stopping": {"tol": "1e-3"}}, "tol must be a number, got '1e-3'"),
    ("audit", {"gap_tol": "0"}, "gap_tol must be a number >= 0, got '0'"),
    ("compare", {"decision_margin": False}, "decision_margin must be a number >= 0, got False"),
    ("solve", {"stopping": {"tol": float("inf")}}, "nor tol infinite, got StoppingRule(tol=inf,"),
    ("compare", {"stopping": {"tol": -float("inf")}}, "nor tol infinite, got StoppingRule(tol=-inf,"),
    ("audit", {"gap_tol": float("inf")}, "gap_tol must be a number >= 0, got inf"),
    ("compare", {"decision_margin": float("inf")}, "decision_margin must be a number >= 0, got inf"),
]


class TestConfigKeys:
    """``cli._DEFAULTS`` states every config key outside ``problem``; a file value gets its flag's check."""

    #: the effective config of no file and no flag: README's table of keys and defaults
    DEFAULTS = {"problem": None, "lambda": None, "seed": None, "algorithms": ["fh"], "x0": 0.0,
                "sequences": {"xi": "const:0.5", "mu": "const:0.5"}, "stopping": {"tol": 1e-10, "max_steps": 100000},
                "grid": {"lo": 1e-3, "hi": 10.0, "points": 100}, "decision_margin": 0.05, "gap_tol": 1e-8,
                "output": {"dir": "."}}

    @pytest.mark.parametrize("command", ["solve", "compare", "sweep", "audit"])
    def test_defaults_are_the_documented_ones(self, command):
        assert cli._load_config(cli._parser().parse_args([command])) == self.DEFAULTS

    @pytest.mark.parametrize("command, config, named", _REFUSED)
    def test_stray_key_or_malformed_value_is_a_usage_error(self, tmp_path, capsys, command, config, named):
        cfg = _write_config(tmp_path, {"problem": _KIND_CONFIGS["spd-linear"], **config})
        out = tmp_path / "out"
        assert main([command, "--config", cfg, "--alg", "new,fh", "--out", str(out)]) == EXIT_USAGE
        assert named in capsys.readouterr().err
        assert not any(out.glob("*"))  # the output directory is made, if at all, after the key check

    @pytest.mark.parametrize("argv, named", [
        (["solve", "--max-steps", "2.7"], "max_steps must be a whole number, got 2.7"),
        (["sweep", "--grid", "0.1:1:2.5"], "grid.points must be a whole number, got 2.5"),
        (["solve", "--tol", "inf"], "nor tol infinite, got StoppingRule(tol=inf,"),
    ])
    def test_flag_gets_the_check_of_its_file_value(self, tmp_path, capsys, argv, named):
        out = tmp_path / "out"
        assert main([*argv, "--problem", "scalar-affine", "--out", str(out)]) == EXIT_USAGE
        assert named in capsys.readouterr().err
        assert not any(out.glob("*"))

    def test_output_dir_must_be_text(self, tmp_path, monkeypatch, capsys):
        # a number once reached Path() and failed with a TypeError that named neither the key nor the value
        monkeypatch.chdir(tmp_path)
        cfg = _write_config(tmp_path, {"problem": {"kind": "scalar-affine"}, "output": {"dir": 5}})
        assert main(["solve", "--config", cfg]) == EXIT_USAGE
        assert "output.dir must be text, got 5" in capsys.readouterr().err
        assert [path.name for path in tmp_path.iterdir()] == ["config.json"]

    @pytest.mark.parametrize("command, config", [
        ("solve", {"gap_tol": "0"}), ("audit", {"grid": {"points": 2.9}}), ("sweep", {"stopping": {"tol": "1e-3"}}),
    ])
    def test_key_another_command_reads_is_ignored(self, tmp_path, command, config):
        cfg = _write_config(tmp_path, {"problem": _KIND_CONFIGS["spd-linear"], **config})
        assert main([command, "--config", cfg, "--alg", "new,fh", "--out", str(tmp_path / "out")]) == EXIT_OK

    def test_null_takes_the_default(self, tmp_path):
        cfg = _write_config(tmp_path, {"problem": {"kind": "scalar-affine"}, "stopping": None, "x0": None,
                                       "sequences": {"xi": None}, "lambda": None, "output": None})
        assert cli._load_config(cli._parser().parse_args(["solve", "--config", cfg])) == {
            **self.DEFAULTS, "problem": {"kind": "scalar-affine"}}

    @pytest.mark.parametrize("command", ["solve", "compare", "audit"])
    def test_grid_flag_is_sweep_only(self, tmp_path, capsys, command):
        out = tmp_path / "out"
        argv = [command, "--problem", "spd-linear", "--alg", "new,fh", "--grid", "0.1:1:3", "--out", str(out)]
        assert main(argv) == EXIT_USAGE
        assert "unrecognized arguments: --grid" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flag, value", [("--x0", "a,b"), ("--lambda", "x"), ("--grid", "0.1:1")])
    def test_malformed_flag_names_its_value(self, tmp_path, capsys, flag, value):
        # argparse names the refused value by its type function, which once read "<lambda>"
        out = tmp_path / "out"
        assert main(["sweep", "--problem", "scalar-affine", flag, value, "--out", str(out)]) == EXIT_USAGE
        assert "argument %s: invalid %s value: %r" % (flag, flag[2:], value) in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("grid", ["0.1:1", "0.1:1:3:4", "0.1:1:x"])
    def test_grid_flag_takes_three_numbers(self, tmp_path, grid):
        out = tmp_path / "out"
        assert main(["sweep", "--problem", "scalar-affine", "--grid", grid, "--out", str(out)]) == EXIT_USAGE
        assert not out.exists()

    @pytest.mark.parametrize("argv, code", [
        (["solve", "--problem", "spd-linear", "--dim", "20", "--alg", "fh,zgy,mann,new", "--mu", "harmonic:2",
          "--x0", "0.5"], EXIT_OK),
        (["compare", "--problem", "spd-linear", "--dim", "20", "--seed", "3", "--alg", "new,fh", "--mu", "const:0.9",
          "--tol", "0", "--max-steps", "120"], EXIT_OK),
        (["sweep", "--problem", "scalar-affine", "--grid", "0.1:2:50"], EXIT_OK),
        (["audit", "--problem", "soft-threshold", "--dim", "30", "--lambda", "auto", "--alg", "fh,zgy,mann,new"],
         EXIT_OK),
        (["solve", "--problem", "spd-linear", "--dim", "20", "--c-a", "5", "--lambda", "50", "--alg", "fh,new"],
         EXIT_NUMERICAL),
    ])
    def test_effective_config_replays_the_run(self, tmp_path, argv, code):
        # the effective config, as strict JSON, given back as --config with a fresh --out, writes the same
        # deterministic artifacts, and is its own effective config
        first, again = tmp_path / "first", tmp_path / "again"
        cfg = cli._load_config(cli._parser().parse_args([*argv, "--out", str(first)]))
        path = tmp_path / "effective.json"
        path.write_text(json.dumps(cfg, allow_nan=False))
        replay = [argv[0], "--config", str(path), "--out", str(again)]
        assert cli._load_config(cli._parser().parse_args(replay)) == {**cfg, "output": {"dir": str(again)}}
        assert main([*argv, "--out", str(first)]) == code
        assert main(replay) == code
        names = sorted(p.name for p in first.iterdir())
        assert names and names == sorted(p.name for p in again.iterdir())
        for name in names:
            if name.startswith("trace_"):
                rows = [[(r["n"], r["residual"], r["error"]) for r in read_trace_csv(d / name)] for d in (first, again)]
                assert rows[0] == rows[1], name
            else:
                assert (first / name).read_bytes() == (again / name).read_bytes(), name


class TestAudit:
    def test_runs_stop_calling_g_at_a_floating_point_fixed_point(self, tmp_path, monkeypatch):
        # at b_scale 1e8 tol 1e-10 lies below the rounding floor: ZGY and MANN spin to the cap, FH and NEW are
        # rerun to it, and each iterate soon repeats bit for bit. Run to the cap step by step, FH, ZGY, MANN
        # and NEW would call G 1 + 20,000 x (1, 2, 1 and 2) times
        calls, coordinates = [], ProblemInstance.coordinates

        def counting(problem):
            basis, g = coordinates(problem)
            return basis, lambda y: (calls.append(1), g(y))[1]

        monkeypatch.setattr(ProblemInstance, "coordinates", counting)
        assert main(["audit", "--problem", "spd-linear", "--dim", "200", "--seed", "1", "--b-scale", "1e8",
                     "--alg", "fh,zgy,mann,new", "--max-steps", "20000", "--out", str(tmp_path)]) == EXIT_NUMERICAL
        assert 0 < len(calls) < 0.01 * (4 + 20000 * (1 + 2 + 1 + 2))

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

    @pytest.mark.parametrize("problem, code, each_once", [
        (["soft-threshold", "--dim", "60", "--lambda", "auto"], EXIT_OK, False),
        # every run diverges: FH, ZGY and NEW after 404, 352 and 269 steps, MANN after 806
        (["spd-linear", "--dim", "20", "--seed", "0", "--c-a", "5", "--lambda", "50"], EXIT_NUMERICAL, True),
    ])
    def test_finished_probe_runs_once(self, tmp_path, monkeypatch, problem, code, each_once):
        # a probe run that already has the common length, or that diverged, is not run again
        runs = {name: recorded(monkeypatch, schemes, "run_" + name) for name in ("fh", "zgy", "mann", "new")}
        assert main(["audit", "--problem", *problem, "--alg", "fh,zgy,mann,new",
                     "--out", str(tmp_path)]) == code
        common = max(traces[0].steps_used for traces in runs.values())
        for name, traces in runs.items():
            finished = traces[0].steps_used == common or traces[0].diverged
            assert len(traces) == (1 if finished else 2), name
        assert each_once == all(len(traces) == 1 for traces in runs.values())

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
        assert err == ["audit failure: fh,new final gap 3.4702e+307: fh diverged, new diverged",
                       "numerical failure: non-finite iterate (fh at step 404, new at step 269)"]
        assert pair["cause"] == "fh diverged, new diverged"

    def test_diverged_runs_with_equal_iterates(self, tmp_path, capsys):
        # with xi = 1 MANN repeats FH's iterates: a zero gap, yet both runs diverge
        code, err, (pair,) = self._audit(tmp_path, capsys, "--c-a", "5", "--lambda", "50",
                                         "--alg", "fh,mann", "--xi", "const:1")
        assert pair["gap_converged"] and pair["cause"] is None
        assert code == EXIT_NUMERICAL
        assert err == ["numerical failure: non-finite iterate (fh at step 404, mann at step 404)"]


class TestRunRecord:
    """solve, compare and audit write each run's ``algorithms.<name>`` from one record."""

    @staticmethod
    def _run(tmp_path, command, *flags):
        """The exit code and the JSON artifact of ``command``."""
        out = tmp_path / command
        code = main([command, *flags, "--out", str(out)])
        artifact = {"solve": "summary.json", "compare": "rate_report.json", "audit": "audit.json"}[command]
        return code, json.loads((out / artifact).read_text())

    @pytest.mark.parametrize("problem, code", [
        (["spd-linear", "--dim", "50"], EXIT_OK),
        (["soft-threshold", "--dim", "60", "--lambda", "auto"], EXIT_OK),
        # both runs diverge
        (["spd-linear", "--dim", "20", "--c-a", "5", "--lambda", "50"], EXIT_NUMERICAL),
    ])
    def test_every_subcommand_writes_the_same_record(self, tmp_path, problem, code):
        results = [self._run(tmp_path, command, "--problem", *problem, "--alg", "new,fh")
                   for command in ("solve", "compare", "audit")]
        assert [c for c, _ in results] == [code] * 3
        solved, compared, audited = (artifact["algorithms"] for _, artifact in results)
        assert set(solved) == {"new", "fh"}
        assert solved == compared == audited

    @pytest.mark.parametrize("algorithms, a_passed", [("new,fh", False), ("mann,fh", True)])
    def test_compare_records_run_b_failed_envelope(self, tmp_path, algorithms, a_passed):
        # the rounding floor puts FH's error past its envelope (max_excess 1.4e-7); envelope_checks
        # hold run a's checks only, so the record is where run b's verdict shows
        code, report = self._run(tmp_path, "compare", "--problem", "spd-linear", "--dim", "200", "--seed", "1",
                                 "--b-scale", "1e8", "--tol", "-1", "--max-steps", "80", "--alg", algorithms)
        assert code == EXIT_OK
        records = report["algorithms"]
        assert records["fh"]["envelope"]["checked"]
        assert not records["fh"]["envelope"]["passed"]
        assert records["fh"]["envelope"]["max_excess"] > DEFAULT_AUDIT_SLACK
        assert records[algorithms.split(",")[0]]["envelope"]["passed"] == a_passed
        assert all(c["pass"] for c in report["envelope_checks"]) == a_passed

    def test_audit_records_each_run_convergence(self, tmp_path):
        # xi = (0.5, 0, 0, ...) stalls ZGY and MANN after one step; NEW takes no xi and converges
        _, report = self._run(tmp_path, "audit", "--problem", "spd-linear", "--dim", "20",
                              "--alg", "zgy,mann,new", "--xi", "table:0.5,0", "--max-steps", "200")
        records = report["algorithms"]
        assert [(records[name]["converged"], records[name]["steps"]) for name in ("zgy", "mann")] == [
            (False, 200)] * 2
        assert records["new"]["converged"]
        assert records["new"]["steps"] < 200

    def test_kappa_of_exactly_one_violates_the_hypothesis(self, tmp_path):
        # declared r = 1/2 and s = 2 bound A = I loosely: kappa(1) = sqrt(1 - 1 + 4)/(1 + 1) = 1
        problem = _explicit(3, {"kind": "affine", "matrix": np.eye(3).tolist(), "offset": [1, 2, 3]},
                            constants=(1, 1, 0.5, 2, 1))
        code, summary = self._run(tmp_path, "solve", "--config", _write_config(tmp_path, {"problem": problem}),
                                  "--lambda", "1", "--alg", "new,fh")
        assert code == EXIT_OK
        assert summary["kappa"] == 1.0
        assert summary["hypothesis_violated"]
        assert [(r["hypothesis_violated"], r["envelope"]) for r in summary["algorithms"].values()] == [
            (True, {"checked": False})] * 2


@pytest.mark.parametrize("problem", ["spd-linear", "soft-threshold"])
def test_small_runs_import_no_scipy(problem, tmp_path):
    # importing scipy.linalg outlasts a small run; only a matrix K's LU needs it
    script = ("import sys\n"
              "from hmsolve.cli import EXIT_OK, main\n"
              "assert 'scipy.linalg' not in sys.modules\n"
              "assert main(['solve', '--problem', sys.argv[1], '--dim', '10', '--alg', 'fh,zgy,mann,new',\n"
              "             '--out', sys.argv[2]]) == EXIT_OK\n"
              "assert 'scipy.linalg' not in sys.modules, 'scipy.linalg was imported'\n")
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
    subprocess.run([sys.executable, "-c", script, problem, str(tmp_path)], env=env, check=True)


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
        if command == "sweep":  # --grid is the sweep's alone
            samples["--grid"] = "0.1:2:5"
        assert set(samples) == {flag for flag, *_ in cli._FLAGS} - ({"--grid"} if command != "sweep" else set())
        argv = [command, "--config", _write_config(tmp_path, {"gap_tol": 0.1})]
        assert main(argv + [v for item in samples.items() for v in item]) == EXIT_OK
        assert seen[0]["gap_tol"] == 0.1
        for flag, path, kind, _ in (row for row in cli._FLAGS if row[0] in samples):
            node = seen[0]
            for key in path:
                node = node[key]
            assert node == kind(samples[flag])

    def test_one_parser_serves_every_call(self, tmp_path):
        # main builds the parser on its first call only; a usage error, raised by the parser's
        # own checks or by one of its subparsers, leaves it fit for the next call
        cli._parser.cache_clear()
        argv = ["solve", "--problem", "spd-linear", "--dim", "20", "--alg", "fh,zgy,mann,new"]
        assert main(argv[:-1] + ["fh,bogus", "--out", str(tmp_path / "usage")]) == EXIT_USAGE
        assert main(argv + ["--max-steps", "ten", "--out", str(tmp_path / "usage")]) == EXIT_USAGE
        assert main(argv + ["--out", str(tmp_path / "reused")]) == EXIT_OK
        assert cli._parser.cache_info().misses == 1
        env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
        subprocess.run([sys.executable, "-m", "hmsolve.cli", *argv, "--out", str(tmp_path / "fresh")],
                       env=env, check=True)
        summary = [(tmp_path / run / "summary.json").read_bytes() for run in ("reused", "fresh")]
        assert summary[0] == summary[1]

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

    @pytest.mark.parametrize("text", ["[]", '[{"problem": {"kind": "scalar-affine"}}]'])
    def test_config_that_is_an_array(self, tmp_path, text):
        bad = tmp_path / "bad.json"
        bad.write_text(text)
        out = tmp_path / "out"
        assert main(["solve", "--config", str(bad), "--out", str(out)]) == EXIT_USAGE
        assert not out.exists()

    def test_unreadable_config_or_output(self, tmp_path, capsys):
        # reading the config and making the output directory fail with an OSError
        blocker = tmp_path / "file"
        blocker.write_text("")
        for argv in (["--config", str(tmp_path / "missing.json"), "--out", str(tmp_path / "out")],
                     ["--problem", "scalar-affine", "--out", str(blocker / "out")]):
            assert main(["solve", *argv]) == EXIT_USAGE
            assert "usage error: " in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["file"]

    def test_unknown_operator_kind(self, tmp_path):
        cfg = _write_config(tmp_path, {"problem": _explicit(2, {"kind": "rotation", "angle": 1.0})})
        out = tmp_path / "out"
        assert main(["solve", "--config", cfg, "--out", str(out)]) == EXIT_USAGE
        assert not any(out.iterdir())

    def test_inner_solve_failure_exits_numerical(self, tmp_path, monkeypatch, capsys):
        # no generator builds a nonlinear H; one swapped in, whose inner solve may take a single
        # step, fails on the first F evaluation
        def gen_nonlinear(lam, **_):
            h = tanh_h(1.0)
            a, m = AffineLinear(1.0, np.full(3, 2.0)), ScaledIdentity(1.0)
            problem = ProblemInstance(h=h, a=a, m=m, constants=catalog_constants(h, a, m), lam=lam, dim=3)
            problem.engine.max_inner_steps = 1
            return problem

        monkeypatch.setattr(problems, "gen_spd_linear", gen_nonlinear)
        code = main(["solve", "--problem", "spd-linear", "--lambda", "0.5", "--out", str(tmp_path)])
        assert code == EXIT_NUMERICAL
        err = capsys.readouterr().err
        assert err.startswith("numerical failure: separable inner solve did not reach relative tolerance")
        assert "Traceback" not in err

    def test_compare_needs_a_known_solution(self, tmp_path, capsys):
        cfg = _write_config(tmp_path, {"problem": _explicit(2, {"kind": "scaled-identity", "scale": 1.0}),
                                       "algorithms": ["fh", "new"]})
        out = tmp_path / "out"
        assert main(["compare", "--config", cfg, "--out", str(out)]) == EXIT_USAGE
        assert "known solution" in capsys.readouterr().err
        assert not any(out.iterdir())

    @pytest.mark.parametrize("command", [["solve", "--lambda", "auto"], ["sweep", "--grid", "1e-201:1e-199:3"]])
    def test_lambda_squared_below_the_normal_floats(self, tmp_path, command):
        # lam* = 1e-200 here: lam*lam underflowed, and kappa raised "negative radicand -1e-200", exit 2
        a = {"kind": "affine", "matrix": (1e100 * np.eye(3)).tolist(), "offset": [1, 2, 3]}
        cfg = _write_config(tmp_path, {"problem": _explicit(3, a, (1e-100, 1e-100, 1, 1e100, 1), h_scale=1e-100)})
        assert main([*command, "--config", cfg, "--out", str(tmp_path / "out")]) == EXIT_OK

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
        (["compare", "--alg", "fh,mann", "--xi", "const:1"], {"decision_margin": -0.5}),
        (["compare", "--alg", "fh,mann"], {"decision_margin": float("nan")}),
    ])
    def test_meaningless_stopping_or_gap_tol(self, tmp_path, argv, config):
        # a negative cap makes 0-step runs, a NaN tol is never met, a negative
        # or NaN gap_tol fails every pair, and a decision_margin of -0.5 once
        # called two identical runs (fitted ratio 1) a-faster: inputs, not numerics
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
