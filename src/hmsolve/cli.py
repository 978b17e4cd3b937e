"""Command-line surface: solve, compare, sweep and audit subcommands.

Configuration comes from an optional JSON file (``--config``) with top-level
keys ``problem``, ``algorithms``, ``sequences``, ``lambda``, ``stopping``,
``output``, ``seed``; CLI flags override file values. All emitted artifacts
are data-only (CSV/JSON); plotting is downstream.

Exit codes: 0 success, 1 usage error, 2 infeasible constants,
3 numerical failure.
"""

import argparse
import csv
import json
import sys
from pathlib import Path

import numpy as np

from . import analysis, problems, schemes
from .operators import (
    AffineLinear,
    InconsistentConstantsError,
    OperatorConstants,
    ScaledIdentity,
    ScaledIdentityMulti,
    ShiftedSubdifferential,
)
from .resolvent import ResolventDivergenceError
from .schemes import ProblemInstance, StoppingRule, make_step_sequence

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INFEASIBLE = 2
EXIT_NUMERICAL = 3


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on usage errors by default; the contract is 1
    def error(self, message):
        raise UsageError(message)


def parse_sequence(spec):
    """Parse a step-sequence spec string like ``const:0.5`` or ``harmonic:1``."""
    if isinstance(spec, dict):
        return make_step_sequence(
            spec["family"], value=spec.get("value"),
            offset=spec.get("offset"), table=spec.get("table"),
        )
    name, _, arg = str(spec).partition(":")
    if name in ("const", "constant"):
        return make_step_sequence("constant", value=float(arg))
    if name == "harmonic":
        return make_step_sequence("harmonic", offset=int(arg) if arg else 1)
    if name == "one-minus-harmonic":
        return make_step_sequence("one-minus-harmonic", offset=int(arg) if arg else 1)
    if name == "table":
        return make_step_sequence(
            "custom-table", table=[float(v) for v in arg.split(",") if v]
        )
    raise UsageError("unknown step sequence spec %r" % (spec,))


def _operator_from_dict(d, multivalued=False):
    kind = d["kind"]
    if multivalued:
        if kind == "scaled-identity":
            return ScaledIdentityMulti(d["scale"])
        if kind == "shifted-subdifferential":
            return ShiftedSubdifferential(d["shift"])
        raise UsageError("unknown multivalued operator kind %r" % (kind,))
    if kind == "scaled-identity":
        return ScaledIdentity(d["scale"])
    if kind == "affine":
        return AffineLinear(np.asarray(d["matrix"], float), d.get("offset"))
    raise UsageError("unknown operator kind %r" % (kind,))


def build_problem(cfg):
    """Build a ProblemInstance from the ``problem`` config section."""
    p = cfg.get("problem") or {}
    kind = p.get("kind")
    lam = cfg.get("lambda", p.get("lambda"))
    explicit_lam = lam not in (None, "auto")
    seed = cfg.get("seed", 0)
    if kind == "scalar-affine":
        inst = problems.gen_scalar_affine(
            b=p.get("b", 2.0), lam=lam if explicit_lam else 1.0
        )
    elif kind == "spd-linear":
        inst = problems.gen_spd_linear(
            dim=p.get("dim", 50),
            eigen_range=tuple(p.get("eigen_range", (1.0, 1.2))),
            seed=p.get("seed", seed),
            c_a=p.get("c_a", 1.0),
            m=p.get("m", 1.0),
            b_scale=p.get("b_scale", 1.0),
            lam=lam if explicit_lam else 0.6,
        )
    elif kind == "soft-threshold":
        inst = problems.gen_soft_threshold(
            dim=p.get("dim", 50),
            c=p.get("c", 1.0),
            b=p.get("b"),
            seed=p.get("seed", seed),
            lam=lam if explicit_lam else 0.5,
        )
    elif kind == "explicit":
        h = _operator_from_dict(p["h"])
        a = _operator_from_dict(p["a"])
        m = _operator_from_dict(p["m"], multivalued=True)
        constants = OperatorConstants(**p["constants"])
        inst = ProblemInstance(
            h=h, a=a, m=m, constants=constants,
            lam=float(lam) if explicit_lam else 1.0,
            dim=int(p["dim"]),
            known_solution=p.get("known_solution"),
            metadata={"kind": "explicit"},
        )
    else:
        raise UsageError("unknown or missing problem kind %r" % (kind,))

    if lam == "auto":
        inst = _with_auto_lambda(inst)
    return inst


def _with_auto_lambda(inst):
    """Replace lam with the closed-form kappa minimiser lam*.

    Fails with an infeasibility diagnostic when even kappa(lam*) >= 1.
    """
    best, best_kappa = analysis.optimal_lambda(inst.constants)
    if best_kappa >= 1.0:
        raise InconsistentConstantsError(
            "no lam with kappa < 1: constants are infeasible "
            "(minimal kappa %.6g at lam %.6g)" % (best_kappa, best)
        )
    return ProblemInstance(
        h=inst.h, a=inst.a, m=inst.m, constants=inst.constants,
        lam=best, dim=inst.dim, known_solution=inst.known_solution,
        inner_tolerance=inst.inner_tolerance,
        metadata={**inst.metadata, "lambda_auto": True},
    )


def _stopping(cfg):
    s = cfg.get("stopping") or {}
    return StoppingRule(
        tol=float(s.get("tol", 1e-10)), max_steps=int(s.get("max_steps", 100_000))
    )


def _start_vector(cfg, dim):
    x0 = cfg.get("x0")
    if x0 is None:
        return np.zeros(dim)
    arr = np.atleast_1d(np.asarray(x0, dtype=float))
    if arr.shape[0] == 1:
        return np.full(dim, arr[0])
    if arr.shape[0] != dim:
        raise UsageError("x0 dimension %d does not match problem dimension %d"
                         % (arr.shape[0], dim))
    return arr


_RUNNERS = {
    "fh": lambda p, x0, seqs, stop: schemes.run_fh(p, x0, stop),
    "zgy": lambda p, x0, seqs, stop: schemes.run_zgy(p, x0, seqs["xi"], seqs["mu"], stop),
    "mann": lambda p, x0, seqs, stop: schemes.run_mann(p, x0, seqs["xi"], stop),
    "new": lambda p, x0, seqs, stop: schemes.run_new(p, x0, seqs["mu"], stop),
}


def _sequences(cfg):
    s = cfg.get("sequences") or {}
    return {
        "xi": parse_sequence(s.get("xi", "const:0.5")),
        "mu": parse_sequence(s.get("mu", "const:0.5")),
    }


def _run_algorithm(name, problem, x0, seqs, stop):
    name = name.lower()
    if name not in _RUNNERS:
        raise UsageError("unknown algorithm %r (choose from fh, zgy, mann, new)" % name)
    return _RUNNERS[name](problem, x0, seqs, stop)


def write_trace_csv(path, trace):
    """Trace CSV: columns n, residual, error, wall_nanos; LF line endings."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["n", "residual", "error", "wall_nanos"])
        for n in range(len(trace.residuals)):
            err = "" if trace.errors is None else repr(trace.errors[n])
            writer.writerow([n, repr(trace.residuals[n]), err, trace.wall_nanos[n]])


def read_trace_csv(path):
    """Round-trip reader for trace CSVs (residuals and errors bit-exact)."""
    rows = []
    with open(path, encoding="utf-8", newline="") as fh:
        for row in csv.DictReader(fh):
            rows.append({
                "n": int(row["n"]),
                "residual": float(row["residual"]),
                "error": None if row["error"] == "" else float(row["error"]),
                "wall_nanos": int(row["wall_nanos"]),
            })
    return rows


def _envelope_summary(trace, seqs):
    """Max excess of measured errors over the scheme's theoretical envelope."""
    if trace.errors is None or trace.kappa >= 1.0:
        return {"checked": False}
    bounds = analysis.envelope(trace.algorithm, trace.kappa, seqs["xi"], seqs["mu"],
                               trace.errors[0], trace.steps_used)
    max_excess = float(np.max(np.asarray(trace.errors) - bounds))
    return {"checked": True, "max_excess": max_excess,
            "passed": max_excess <= analysis.DEFAULT_AUDIT_SLACK}


def _divergence_status(traces):
    """EXIT_NUMERICAL, naming each run that hit a non-finite iterate, else EXIT_OK."""
    diverged = ["%s at step %d" % (t.algorithm.lower(), t.steps_used + 1)
                for t in traces if t.diverged]
    if not diverged:
        return EXIT_OK
    print("numerical failure: non-finite iterate (%s)" % ", ".join(diverged), file=sys.stderr)
    return EXIT_NUMERICAL


def cmd_solve(cfg, out_dir):
    problem = build_problem(cfg)
    stop = _stopping(cfg)
    seqs = _sequences(cfg)
    x0 = _start_vector(cfg, problem.dim)
    algorithms = cfg.get("algorithms") or ["fh"]
    kappa = problem.contraction_factor()

    summary = {
        "kappa": kappa,
        "lambda": problem.lam,
        "hypothesis_violated": kappa >= 1.0,
        "problem": problem.metadata,
        "algorithms": {},
    }
    traces = []
    for name in algorithms:
        trace = _run_algorithm(name, problem, x0, seqs, stop)
        traces.append(trace)
        write_trace_csv(out_dir / ("trace_%s.csv" % name.lower()), trace)
        summary["algorithms"][name.lower()] = {
            "final_residual": trace.residuals[-1],
            "final_error": None if trace.errors is None else trace.errors[-1],
            "steps": trace.steps_used,
            "converged": trace.converged,
            "hypothesis_violated": trace.hypothesis_violated,
            "envelope": _envelope_summary(trace, seqs),
        }
    _write_json(out_dir / "summary.json", summary)
    return _divergence_status(traces)


def cmd_compare(cfg, out_dir):
    algorithms = cfg.get("algorithms") or []
    if len(algorithms) != 2:
        raise UsageError("compare requires exactly two algorithms")
    problem = build_problem(cfg)
    if problem.known_solution is None:
        raise UsageError("compare requires a problem with a known solution")
    stop = _stopping(cfg)
    seqs = _sequences(cfg)
    x0 = _start_vector(cfg, problem.dim)  # equal starts enforced
    kappa = problem.contraction_factor()

    trace_a = _run_algorithm(algorithms[0], problem, x0, seqs, stop)
    trace_b = _run_algorithm(algorithms[1], problem, x0, seqs, stop)
    report = analysis.rate_compare(
        trace_a, trace_b,
        kappa=kappa if kappa < 1.0 else None,
        xi=seqs["xi"],
        mu=seqs["mu"],
        decision_margin=float(cfg.get("decision_margin", 0.05)),
    )

    _write_json(out_dir / "rate_report.json", {
        "pi": report.pi,
        "verdict": report.verdict,
        "kappa": kappa,
        "lambda": problem.lam,
        "fitted_ratio": None if np.isnan(report.fitted_ratio) else report.fitted_ratio,
        "envelope_checks": [
            {"n": c.n, "bound": c.bound, "measured": c.measured, "pass": c.passed}
            for c in report.envelope_checks_a
        ],
    })

    n_common = min(len(trace_a.errors), len(trace_b.errors))
    with open(out_dir / "compare.csv", "w", encoding="utf-8", newline="\n") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["n", "e_a", "e_b", "pi_n", "envelope_a", "envelope_b"])
        for n in range(n_common):
            pi = report.pi[n]
            env_a = (report.envelope_checks_a[n].bound
                     if n < len(report.envelope_checks_a) else "")
            env_b = (report.envelope_checks_b[n].bound
                     if n < len(report.envelope_checks_b) else "")
            writer.writerow([
                n, repr(trace_a.errors[n]), repr(trace_b.errors[n]),
                "" if pi is None else repr(pi),
                "" if env_a == "" else repr(env_a),
                "" if env_b == "" else repr(env_b),
            ])
    return _divergence_status([trace_a, trace_b])


def cmd_sweep(cfg, out_dir):
    problem = build_problem(cfg)
    grid_cfg = cfg.get("grid") or {}
    lo = float(grid_cfg.get("lo", 1e-3))
    hi = float(grid_cfg.get("hi", 10.0))
    points = int(grid_cfg.get("points", 100))
    if not (0 < lo <= hi) or points < 1:
        raise UsageError("invalid lambda grid")
    grid = np.linspace(lo, hi, points) if points > 1 else np.array([lo])

    feas = analysis.feasible_lambda(problem.constants)
    rows = [(float(lam), analysis.contraction_factor(problem.constants, float(lam)))
            for lam in grid]
    best_lam, best_kappa = min(rows, key=lambda row: row[1])

    with open(out_dir / "sweep.csv", "w", encoding="utf-8", newline="\n") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["lambda", "kappa", "in_feasible_interval"])
        for lam, kappa in rows:
            writer.writerow([repr(lam), repr(kappa), int(kappa < 1.0)])
    _write_json(out_dir / "sweep_summary.json", {
        "best_lambda": best_lam,
        "best_kappa": best_kappa,
        "feasible_interval": feas.interval if feas.feasible else None,
        "all_kappa_ge_one": best_kappa >= 1.0,
    })
    if best_kappa >= 1.0:
        print("warning: no grid point with kappa < 1", file=sys.stderr)
    return EXIT_OK


def _recursion_params(name_a, name_b, seqs):
    """Pairing for the gap-recursion audit, when structurally applicable.

    Returns (q_name, s_name, xi, mu) with q the relaxed run and s an
    unrelaxed run (its casting's xi is the constant 1) sharing q's mu
    sequence, else None.
    """
    for q_name, s_name in ((name_a, name_b), (name_b, name_a)):
        xi_q, mu_q = schemes.casting(q_name, **seqs)
        xi_s, mu_s = schemes.casting(s_name, **seqs)
        if xi_s == schemes.ONE and mu_q == mu_s:
            return q_name, s_name, xi_q, mu_q
    return None


def cmd_audit(cfg, out_dir):
    algorithms = [a.lower() for a in (cfg.get("algorithms") or [])]
    if len(algorithms) < 2:
        raise UsageError("audit requires at least two algorithms")
    problem = build_problem(cfg)
    stop = _stopping(cfg)
    seqs = _sequences(cfg)
    x0 = _start_vector(cfg, problem.dim)
    kappa = problem.contraction_factor()
    gap_tol = float(cfg.get("gap_tol", 1e-8))

    # first pass finds how long the slowest algorithm needs, second pass runs
    # all algorithms for that common length so gaps are comparable per step
    probe = {name: _run_algorithm(name, problem, x0, seqs, stop) for name in algorithms}
    common = max(trace.steps_used for trace in probe.values())
    # negative tol disables the residual stop so every trace reaches the
    # common length; a run already at its exact fixed point just repeats it
    fixed_stop = StoppingRule(tol=-1.0, max_steps=common)
    traces = {
        name: _run_algorithm(name, problem, x0, seqs, fixed_stop) for name in algorithms
    }
    pairs = []
    all_ok = True
    for i, name_a in enumerate(algorithms):
        for name_b in algorithms[i + 1:]:
            params = _recursion_params(name_a, name_b, seqs)
            if params is not None:
                q_name, s_name, xi, mu = params
                report = analysis.equivalence_audit(
                    traces[q_name], traces[s_name], xi, mu,
                    kappa if kappa < 1.0 else None, gap_tol=gap_tol,
                )
            else:
                report = analysis.equivalence_audit(
                    traces[name_a], traces[name_b], schemes.ONE, schemes.ONE, None,
                    gap_tol=gap_tol,
                )
            ok = report.gap_converged and report.violations == 0
            all_ok = all_ok and ok
            pairs.append({
                "a": name_a,
                "b": name_b,
                "final_gap": report.final_gap,
                "gap_converged": report.gap_converged,
                "recursion_checked": report.recursion_checked,
                "violations": report.violations,
                "max_violation": max(
                    report.max_violation_forward, report.max_violation_symmetric
                ),
            })
    _write_json(out_dir / "audit.json", {
        "kappa": kappa,
        "lambda": problem.lam,
        "gap_tol": gap_tol,
        "pairs": pairs,
        "all_ok": all_ok,
    })
    return EXIT_OK if all_ok else EXIT_NUMERICAL


# ---------------------------------------------------------------------------
# config plumbing


def _write_json(path, payload):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _load_config(args):
    cfg = {}
    if args.config:
        with open(args.config, encoding="utf-8") as fh:
            cfg = json.load(fh)
    # flag overrides
    problem = dict(cfg.get("problem") or {})
    if args.problem:
        problem["kind"] = args.problem
    for key in ("dim", "b", "c", "m", "c_a", "b_scale"):
        value = getattr(args, key, None)
        if value is not None:
            problem[key] = value
    if args.eigen_lo is not None or args.eigen_hi is not None:
        lo = args.eigen_lo if args.eigen_lo is not None else 1.0
        hi = args.eigen_hi if args.eigen_hi is not None else 1.2
        problem["eigen_range"] = (lo, hi)
    if problem:
        cfg["problem"] = problem
    if args.lam is not None:
        cfg["lambda"] = args.lam if args.lam == "auto" else float(args.lam)
    if args.alg:
        cfg["algorithms"] = [a for a in args.alg.split(",") if a]
    sequences = dict(cfg.get("sequences") or {})
    if args.xi:
        sequences["xi"] = args.xi
    if args.mu:
        sequences["mu"] = args.mu
    if sequences:
        cfg["sequences"] = sequences
    stopping = dict(cfg.get("stopping") or {})
    if args.tol is not None:
        stopping["tol"] = args.tol
    if args.max_steps is not None:
        stopping["max_steps"] = args.max_steps
    if stopping:
        cfg["stopping"] = stopping
    if args.seed is not None:
        cfg["seed"] = args.seed
    if args.x0 is not None:
        cfg["x0"] = [float(v) for v in args.x0.split(",")]
    if getattr(args, "grid", None):
        lo, hi, points = args.grid.split(":")
        cfg["grid"] = {"lo": float(lo), "hi": float(hi), "points": int(points)}
    if args.out is not None:
        cfg.setdefault("output", {})["dir"] = args.out
    return cfg


def _add_common(sub):
    sub.add_argument("--config", help="JSON config file")
    sub.add_argument("--problem", help="problem kind (scalar-affine, spd-linear, soft-threshold, explicit)")
    sub.add_argument("--dim", type=int)
    sub.add_argument("--b", type=float, help="affine offset for scalar/soft problems")
    sub.add_argument("--c", type=float, help="shift of the subdifferential part")
    sub.add_argument("--m", type=float, help="scale of the identity-like M")
    sub.add_argument("--c-a", dest="c_a", type=float, help="coupling scale of A to H")
    sub.add_argument("--b-scale", dest="b_scale", type=float)
    sub.add_argument("--eigen-lo", type=float)
    sub.add_argument("--eigen-hi", type=float)
    sub.add_argument("--lambda", dest="lam", help="resolvent parameter, or 'auto'")
    sub.add_argument("--alg", help="comma-separated algorithms (fh,zgy,mann,new)")
    sub.add_argument("--xi", help="step sequence spec, e.g. const:0.5 or harmonic:1")
    sub.add_argument("--mu", help="step sequence spec")
    sub.add_argument("--tol", type=float)
    sub.add_argument("--max-steps", type=int)
    sub.add_argument("--seed", type=int)
    sub.add_argument("--x0", help="comma-separated start vector (scalar broadcasts)")
    sub.add_argument("--out", help="output directory")


def main(argv=None):
    parser = _Parser(prog="hmsolve", description=__doc__)
    subparsers = parser.add_subparsers(dest="command")
    for name in ("solve", "compare", "sweep", "audit"):
        sub = subparsers.add_parser(name)
        _add_common(sub)
        if name == "sweep":
            sub.add_argument("--grid", help="lambda grid lo:hi:points")

    try:
        args = parser.parse_args(argv)
        if not args.command:
            raise UsageError("a subcommand is required (solve, compare, sweep, audit)")
        cfg = _load_config(args)
        out_dir = Path((cfg.get("output") or {}).get("dir", "."))
        out_dir.mkdir(parents=True, exist_ok=True)
        handler = {
            "solve": cmd_solve,
            "compare": cmd_compare,
            "sweep": cmd_sweep,
            "audit": cmd_audit,
        }[args.command]
        return handler(cfg, out_dir)
    except UsageError as exc:
        print("usage error: %s" % exc, file=sys.stderr)
        return EXIT_USAGE
    except InconsistentConstantsError as exc:
        print("infeasible constants: %s" % exc, file=sys.stderr)
        return EXIT_INFEASIBLE
    except ResolventDivergenceError as exc:
        print("numerical failure: %s" % exc, file=sys.stderr)
        return EXIT_NUMERICAL
    except (KeyError, ValueError, OSError) as exc:
        print("usage error: %r" % exc, file=sys.stderr)
        return EXIT_USAGE


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
