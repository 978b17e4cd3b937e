"""Tests of the benchmark itself, on shrunken workloads.

    python3 -m pytest -q bench/test_bench.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import harness  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(name, tmp_path):
    invocations = workloads.make(name, 1, small=True)
    for i, inv in enumerate(invocations):
        inv.prepare(tmp_path / str(i))
    return harness.Run(invocations)


def _originals():
    return {(owner, attr): vars(owner)[attr] for owner, attr, *_ in tracing.targets(True)}


def test_untraced_run_measures_every_end_to_end_metric(tmp_path):
    assert {w["name"] for w in SPEC["workloads"]} <= set(workloads.NAMES)
    samples = harness._measure_untraced(_run("soft-audit-wide", tmp_path), seconds=0)
    metrics = harness._medians(SPEC["end_to_end"], samples)  # KeyError if one is missing
    assert all(m["value"] > 0 for m in metrics.values())


@pytest.mark.parametrize("name", workloads.NAMES)
def test_tracing_keeps_results_and_restores_attributes(name, tmp_path):
    originals = _originals()
    run = _run(name, tmp_path)
    plain = run.repeat(traced=False)
    traced = run.repeat(traced=True)
    # each repeat's deterministic artifacts are checked against the first
    # repeat's digest, so a traced run that changed any result fails here
    assert run.failures == []
    assert run.attempted == 2 * len(run.invocations)
    assert len(run.reference) == len(run.invocations)
    assert [t.residuals for t in traced["traces"]] == [t.residuals for t in plain["traces"]]
    assert all(vars(owner)[attr] is fn for (owner, attr), fn in originals.items())

    metrics = tracing.layer_metrics(traced["spans"], traced["traces"])
    metrics.update({k: traced[k] for k in ("cli.bytes_written", "analysis.envelope_checks",
                                           "analysis.envelope_pass_frac")})
    per_layer = {m["name"] for m in SPEC["per_layer"]}
    assert per_layer - set(metrics) == {"trace.wall_s", "trace.untraced_wall_s",
                                        "trace.overhead_s"}
    assert metrics["schemes.f_evals"] > 0 and metrics["resolvent.calls"] > 0


def test_attributes_restored_when_the_run_raises():
    originals = _originals()
    with pytest.raises(RuntimeError):
        with tracing.patched(tracing.Recorder(spans=True)):
            assert vars(tracing.schemes)["run_fh"] is not originals[(tracing.schemes, "run_fh")]
            raise RuntimeError("boom")
    assert all(vars(owner)[attr] is fn for (owner, attr), fn in originals.items())


def test_span_self_time_excludes_children():
    spans = [("cli.main", 0, 100, -1, None),
             ("cli.build_problem", 10, 40, 0, None),
             ("problems.gen_spd_linear", 15, 35, 1, None),
             ("cli._write_json", 50, 60, 0, None)]
    metrics = tracing.layer_metrics(spans, [])
    assert metrics["cli.self_s"] == pytest.approx((100 - 30 - 10) / 1e9)
    assert metrics["cli.write_s"] == pytest.approx(10 / 1e9)
    assert metrics["problems.gen_s"] == pytest.approx(20 / 1e9)


def _wrong_solution(inv):
    inv.xstar = inv.xstar + 1e-6


def _missing_artifact(inv):
    inv.artifacts.append("nonexistent.json")


def _failing_exit(inv):
    inv.config_path.write_text(json.dumps({**inv.cfg, "algorithms": ["no-such-scheme"]}))


@pytest.mark.parametrize("corrupt", [_wrong_solution, _missing_artifact, _failing_exit])
def test_oracle_counts_bad_invocations(corrupt, tmp_path):
    run = _run("spd-solve", tmp_path)
    corrupt(run.invocations[0])
    run.repeat(traced=False)
    assert len(run.failures) == 1 and run.attempted == len(run.invocations)


def test_known_envelope_defect_is_recorded_not_counted(tmp_path):
    run = _run("soft-compare-long", tmp_path)
    r = run.repeat(traced=False)
    assert run.failures == []
    assert r["analysis.envelope_pass_frac"] < 1.0
    assert run.known_defects


def test_exits_nonzero_without_source_tree(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    out = subprocess.run([sys.executable, "bench/run.py", "--workload", "spd-solve", "--seed",
                          "1", "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert out.returncode != 0
    assert out.stdout == ""
