"""End-to-end acceptance checks.

Each test exercises one headline guarantee of the library at its stated
tolerance and prints a single PASS/FAIL line so the suite doubles as a
human-readable report: run with ``pytest tests/test_acceptance.py -s``.
"""

import json
import time

import numpy as np
import pytest

from hmsolve.analysis import (
    contraction_factor,
    envelope,
    feasible_lambda,
)
from hmsolve.cli import main
from hmsolve.operators import OperatorConstants
from hmsolve.problems import gen_scalar_affine, gen_soft_threshold, gen_spd_linear
from hmsolve.schemes import (
    CASTINGS,
    StoppingRule,
    make_step_sequence,
    run_fh,
    run_mann,
    run_new,
    run_scheme,
    run_zgy,
)
from oracles import resolvent_lipschitz_bound


def _report(label, ok, elapsed, budget):
    status = "PASS" if ok and elapsed < budget else "FAIL"
    print("[%s] %s (%.2fs, budget %.0fs)" % (status, label, elapsed, budget))
    assert ok
    assert elapsed < budget


def test_01_scalar_exactness():
    t0 = time.perf_counter()
    p = gen_scalar_affine(b=2.0, lam=0.5)
    kappa = contraction_factor(p.constants, p.lam)
    # start far from the solution so all 30 error ratios stay >= 1 in
    # magnitude and are computed at full relative precision
    trace = run_fh(p, [1.0 + 3.0 ** 30], StoppingRule(tol=-1.0, max_steps=30))
    ok = kappa == pytest.approx(1 / 3, abs=1e-15)
    for n in range(30):
        ratio = trace.errors[n + 1] / trace.errors[n]
        ok = ok and abs(ratio - kappa) <= 1e-12
    _report("scalar error ratios equal contraction factor 1/3 +/- 1e-12", ok,
            time.perf_counter() - t0, 1.0)


def test_02_resolvent_lipschitz_audit():
    t0 = time.perf_counter()
    ok = True
    for p in (gen_spd_linear(dim=50), gen_soft_threshold(dim=50)):
        bound = resolvent_lipschitz_bound(p.constants, p.lam)
        rng = np.random.default_rng(0)
        for _ in range(1000):
            u = rng.standard_normal(50)
            v = rng.standard_normal(50)
            lhs = np.linalg.norm(p.engine.resolve(u) - p.engine.resolve(v))
            ok = ok and lhs <= bound * np.linalg.norm(u - v) + 1e-8
    _report("resolvent 1/(gamma + lam*eta) Lipschitz bound, 2x1000 pairs", ok,
            time.perf_counter() - t0, 5.0)


def test_03_f_contraction_audit():
    t0 = time.perf_counter()
    ok = True
    for p in (gen_spd_linear(dim=50), gen_soft_threshold(dim=50)):
        kappa = contraction_factor(p.constants, p.lam)
        rng = np.random.default_rng(1)
        for _ in range(1000):
            x = rng.standard_normal(50)
            y = rng.standard_normal(50)
            lhs = np.linalg.norm(p.f_map(x) - p.f_map(y))
            ok = ok and lhs <= kappa * np.linalg.norm(x - y) + 1e-8
    _report("F-contraction ||F(x)-F(y)|| <= kappa ||x-y|| + 1e-8, 2x1000 pairs",
            ok, time.perf_counter() - t0, 5.0)


def test_04_two_step_envelope():
    t0 = time.perf_counter()
    xi = make_step_sequence("constant", value=0.3)
    mu = make_step_sequence("constant", value=0.9)
    ok = True
    for p in (
        gen_scalar_affine(b=2.0, lam=0.5),
        gen_spd_linear(dim=50),
        gen_soft_threshold(dim=50),
    ):
        kappa = contraction_factor(p.constants, p.lam)
        ok = ok and kappa <= 0.8
        for name in CASTINGS:
            trace = run_scheme(name, p, np.full(p.dim, 2.5), xi, mu)
            bounds = envelope(name, kappa, xi, mu, trace.errors[0], trace.steps_used)
            ok = ok and all(e <= b + 1e-8 for e, b in zip(trace.errors, bounds))
    _report("all four schemes under their envelopes e0 prod[1 - xi(1 - kappa"
            "(1 - mu(1-kappa)))] on all three generators",
            ok, time.perf_counter() - t0, 5.0)


def test_05_rate_experiment(tmp_path):
    t0 = time.perf_counter()
    # scalar instance: pi_n = e_new/e_fh = (1 - 0.9*(1 - kappa))^n exactly
    p = gen_scalar_affine(b=2.0, lam=0.5)
    kappa = contraction_factor(p.constants, p.lam)
    mu = make_step_sequence("constant", value=0.9)
    x0 = [1.0 + 3.0 ** 30]
    stop = StoppingRule(tol=-1.0, max_steps=18)
    fast = run_new(p, x0, mu, stop)
    slow = run_fh(p, x0, stop)
    shrink = 1.0 - 0.9 * (1.0 - kappa)
    ok = True
    for n in range(19):
        pi = fast.errors[n] / slow.errors[n]
        ok = ok and abs(pi - shrink ** n) <= 1e-9 * shrink ** n

    # dim-50 instance through the CLI comparison
    out = tmp_path / "compare"
    code = main([
        "compare", "--problem", "spd-linear", "--dim", "50",
        "--alg", "new,fh", "--mu", "const:0.9", "--tol", "0",
        "--max-steps", "200", "--out", str(out),
    ])
    ok = ok and code == 0
    report = json.loads((out / "rate_report.json").read_text())
    ok = ok and report["verdict"] == "a-faster"
    pi = [v for v in report["pi"] if v is not None]
    crossed = [n for n, v in enumerate(pi) if v < 1e-6]
    ok = ok and bool(crossed) and crossed[0] < 200
    for n in range(crossed[0]):
        ok = ok and pi[n + 1] <= pi[n]
    _report("rate comparison: two-step a-faster, exact scalar pi, dim-50 "
            "pi decreasing below 1e-6", ok, time.perf_counter() - t0, 10.0)


def test_06_equivalence_audit(tmp_path):
    t0 = time.perf_counter()
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({
        "problem": {"kind": "spd-linear", "dim": 50, "seed": 3},
        "algorithms": ["fh", "zgy", "mann", "new"],
        "sequences": {"xi": "const:0.5", "mu": "const:0.5"},
        "stopping": {"tol": 1e-12, "max_steps": 10000},
    }))
    out = tmp_path / "audit"
    code = main(["audit", "--config", str(cfg), "--out", str(out)])
    report = json.loads((out / "audit.json").read_text())
    ok = code == 0 and report["all_ok"] and len(report["pairs"]) == 6
    for pair in report["pairs"]:
        ok = ok and pair["final_gap"] <= 1e-8 and pair["violations"] == 0
    _report("all six pairwise gaps below 1e-8 with zero recursion violations",
            ok, time.perf_counter() - t0, 10.0)


def test_07_interval_sharpness():
    t0 = time.perf_counter()
    c = OperatorConstants(gamma=1, tau=1, r=1, s=2, eta=1)
    interval = feasible_lambda(c)
    ok = interval is not None
    lo, hi = interval
    ok = ok and abs(lo - 0.0) <= 1e-12
    ok = ok and abs(hi - 4 / 3) <= 1e-12
    # at the clipped lower end kappa tends to tau/gamma; 1e-6 past hi it stays >= 1
    ok = ok and contraction_factor(c, 0.5 * (lo + hi)) < 1.0
    ok = ok and all(abs(k - 1.0) <= 1e-9 for k in (c.tau / c.gamma, contraction_factor(c, hi)))
    ok = ok and contraction_factor(c, hi + 1e-6) >= 1.0 - 1e-9
    for lam in np.linspace(1e-9, hi - 1e-9, 100):
        ok = ok and contraction_factor(c, float(lam)) < 1.0
    for lam in np.linspace(hi + 1e-9, hi + 2.0, 10):
        ok = ok and contraction_factor(c, float(lam)) >= 1.0 - 1e-12
    _report("feasible interval (0, 4/3) sharp: kappa < 1 inside, 1 at "
            "endpoints, >= 1 outside", ok, time.perf_counter() - t0, 1.0)


def test_08_collapse_identities():
    t0 = time.perf_counter()
    one = make_step_sequence("constant", value=1.0)
    zero = make_step_sequence("constant", value=0.0)
    stop = StoppingRule(tol=1e-10, max_steps=500)
    ok = True
    for p in (
        gen_scalar_affine(b=2.0, lam=0.5),
        gen_spd_linear(dim=12, seed=5),
        gen_soft_threshold(dim=12, seed=5),
    ):
        x0 = np.full(p.dim, 2.5)
        fh = run_fh(p, x0, stop)
        for trace in (
            run_zgy(p, x0, one, zero, stop),
            run_mann(p, x0, one, stop),
            run_new(p, x0, zero, stop),
        ):
            ok = ok and len(trace.iterates) == len(fh.iterates)
            ok = ok and all(
                np.array_equal(a, b) for a, b in zip(trace.iterates, fh.iterates)
            )
    _report("degenerate step choices reproduce the one-step iterates bitwise",
            ok, time.perf_counter() - t0, 2.0)


def test_09_multivalued_fixed_points():
    t0 = time.perf_counter()
    ok = True
    for seed in range(20):
        p = gen_soft_threshold(dim=100, seed=seed)
        ok = ok and np.linalg.norm(p.f_map(p.known_solution) - p.known_solution) <= 1e-10
    _report("soft-threshold known solutions are fixed points to 1e-10, "
            "20 seeds at dim 100", ok, time.perf_counter() - t0, 2.0)
