"""Command-line surface: solve, compare, sweep and audit subcommands.

Configuration comes from an optional JSON file (``--config``) with top-level
keys ``problem``, ``algorithms``, ``sequences``, ``lambda``, ``stopping``,
``output``, ``seed``; CLI flags override file values. All emitted artifacts
are data-only (CSV/JSON); plotting is downstream.

Exit codes: 0 success, 1 usage error, 2 infeasible constants (or declared
constants that the exact ones contradict), 3 numerical failure.
"""

import argparse
import contextlib
import csv
import dataclasses
import inspect
import json
import sys
from pathlib import Path

import numpy as np

from . import analysis, problems, schemes
from .operators import (
    _CONSISTENCY_TOL,
    AffineLinear,
    InconsistentConstantsError,
    OperatorConstants,
    ScaledIdentity,
    ShiftedSubdifferential,
    catalog_constants,
)
from .resolvent import ResolventDivergenceError
from .schemes import ProblemInstance, StoppingRule, as_vector, make_step_sequence

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


@contextlib.contextmanager
def _interpreting():
    """Turn a LookupError, TypeError or ValueError into a UsageError: inputs only, never a run."""
    try:
        yield
    except InconsistentConstantsError:
        raise
    except (LookupError, TypeError, ValueError) as exc:
        raise UsageError(repr(exc)) from exc


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
    if name in ("harmonic", "one-minus-harmonic"):
        return make_step_sequence(name, offset=int(arg) if arg else None)
    if name == "table":
        return make_step_sequence(
            "custom-table", table=[float(v) for v in arg.split(",") if v]
        )
    raise UsageError("unknown step sequence spec %r" % (spec,))


def _operator_from_dict(d, multivalued=False):
    kind = d["kind"]
    if kind == "scaled-identity":
        return ScaledIdentity(d["scale"])
    if multivalued and kind == "shifted-subdifferential":
        return ShiftedSubdifferential(d["shift"])
    if not multivalued and kind == "affine":
        return AffineLinear(np.atleast_2d(np.asarray(d["matrix"], float)), d.get("offset"))
    raise UsageError("unknown %soperator kind %r" % ("multivalued " if multivalued else "", kind))


#: (constant, the inequality it states, +1 if it bounds from below, -1 if from above)
_INEQUALITIES = (("tau", "h_lipschitz", -1), ("gamma", "h_strong_monotone", 1),
                 ("s", "a_lipschitz", -1), ("r", "a_strong_monotone_wrt_h", 1),
                 ("eta", "m_strong_monotone", 1))


def _explicit(dim, h, a, m, constants, lam=1.0, known_solution=None):
    """A ProblemInstance from operators and constants given inline.

    Each declared constant is held against the exact one of ``catalog_constants``:
    gamma, r and eta may not exceed it and tau and s may not fall below it, to a
    relative ``_CONSISTENCY_TOL``; else the constants are inconsistent.
    """
    inst = ProblemInstance(
        h=_operator_from_dict(h), a=_operator_from_dict(a),
        m=_operator_from_dict(m, multivalued=True),
        constants=OperatorConstants(**constants), lam=float(lam), dim=int(dim),
        known_solution=known_solution, metadata={"kind": "explicit"},
    )
    exact = catalog_constants(inst.h, inst.a, inst.m)
    for name, inequality, side in _INEQUALITIES:
        declared, best = getattr(inst.constants, name), getattr(exact, name)
        if not side * (declared - best) <= _CONSISTENCY_TOL * best:
            raise InconsistentConstantsError("declared %s = %.6g fails %s: the exact %s is %.6g"
                                             % (name, declared, inequality, name, best))
    return inst


#: problem kind -> (builder, the ``problem`` keys it takes besides ``lam``). This
#: table and ``_RUNNERS`` look ``problems.gen_*`` and ``schemes.run_*`` up at call
#: time, so that a wrapped one is the one called.
_GENERATORS = {
    "scalar-affine": (lambda **kw: problems.gen_scalar_affine(**kw), ("b",)),
    "spd-linear": (lambda **kw: problems.gen_spd_linear(**kw),
                   ("dim", "eigen_range", "seed", "c_a", "m", "b_scale")),
    "soft-threshold": (lambda **kw: problems.gen_soft_threshold(**kw), ("dim", "c", "b", "seed")),
    "explicit": (_explicit, ("dim", "h", "a", "m", "constants", "known_solution")),
}
_RUNNERS = {
    "fh": lambda p, x0, seqs, stop, **kw: schemes.run_fh(p, x0, stop, **kw),
    "zgy": lambda p, x0, seqs, stop, **kw: schemes.run_zgy(p, x0, seqs["xi"], seqs["mu"], stop, **kw),
    "mann": lambda p, x0, seqs, stop, **kw: schemes.run_mann(p, x0, seqs["xi"], stop, **kw),
    "new": lambda p, x0, seqs, stop, **kw: schemes.run_new(p, x0, seqs["mu"], stop, **kw),
}

#: the spectrum that a lone --eigen-lo or --eigen-hi completes
_EIGEN_RANGE = inspect.signature(problems.gen_spd_linear).parameters["eigen_range"].default


def build_problem(cfg):
    """Build a ProblemInstance from the ``problem`` config section.

    Only the keys present are passed on, so the builders' signatures hold
    every default; a top-level ``lambda`` wins over ``problem.lambda``, and
    ``problem.seed`` over a top-level ``seed``. ``"auto"`` takes the
    closed-form kappa minimiser lam*, infeasible when even kappa(lam*) >= 1.
    """
    p = cfg.get("problem") or {}
    if p.get("kind") not in _GENERATORS:
        raise UsageError("unknown or missing problem kind %r" % (p.get("kind"),))
    make, keys = _GENERATORS[p["kind"]]
    lam = cfg.get("lambda", p.get("lambda"))
    given = {"seed": cfg.get("seed"), **p, "lam": None if lam == "auto" else lam}
    inst = make(**{k: given[k] for k in keys + ("lam",) if given.get(k) is not None})
    if lam != "auto":
        return inst
    best, best_kappa = analysis.optimal_lambda(inst.constants)
    if best_kappa >= 1.0:
        raise InconsistentConstantsError(
            "no lam with kappa < 1: constants are infeasible "
            "(minimal kappa %.6g at lam %.6g)" % (best_kappa, best)
        )
    return dataclasses.replace(inst, lam=best, metadata={**inst.metadata, "lambda_auto": True})


def _setup(cfg, fewest=1, most=float("inf")):
    """Interpret the inputs of a run: (problem, stop, seqs, x0, algorithms).

    The algorithm names and their number, ``fewest`` to ``most``, are checked
    first: a bad one stops the command before any run.
    """
    with _interpreting():
        algorithms = [str(a).lower() for a in cfg.get("algorithms") or ["fh"]]
        if not set(algorithms) <= set(_RUNNERS):
            raise UsageError("unknown algorithm in %s (choose from %s)" % (algorithms, ", ".join(_RUNNERS)))
        if not fewest <= len(algorithms) <= most:
            raise UsageError("this command needs %s algorithms, got %d" % (
                "exactly %d" % most if fewest == most else "at least %d" % fewest,
                len(algorithms)))
        problem = build_problem(cfg)
        stopping = cfg.get("stopping") or {}
        stop = StoppingRule(**{key: kind(stopping[key]) for key, kind in
                               (("tol", float), ("max_steps", int)) if key in stopping})
        sequences = cfg.get("sequences") or {}
        seqs = {key: parse_sequence(sequences.get(key, "const:0.5")) for key in ("xi", "mu")}
        x0 = cfg.get("x0")
        x0 = as_vector(0.0 if x0 is None else x0)  # one entry broadcasts
        if x0.shape[0] not in (1, problem.dim):
            raise UsageError("x0 dimension %d does not match problem dimension %d"
                             % (x0.shape[0], problem.dim))
    return problem, stop, seqs, x0, algorithms


def write_trace_csv(path, trace):
    """Trace CSV: columns n, residual, error, wall_nanos; LF line endings."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["n", "residual", "error", "wall_nanos"])
        for n in range(len(trace.residuals)):
            err = "" if trace.errors is None else repr(trace.errors[n])
            writer.writerow([n, repr(trace.residuals[n]), err, trace.wall_nanos[n]])


def _divergence_status(traces):
    """EXIT_NUMERICAL, naming each run that hit a non-finite iterate, else EXIT_OK."""
    diverged = ["%s at step %d" % (t.algorithm.lower(), t.steps_used + 1)
                for t in traces if t.diverged]
    if not diverged:
        return EXIT_OK
    print("numerical failure: non-finite iterate (%s)" % ", ".join(diverged), file=sys.stderr)
    return EXIT_NUMERICAL


def cmd_solve(cfg, out_dir):
    problem, stop, seqs, x0, algorithms = _setup(cfg)
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
        trace = _RUNNERS[name](problem, x0, seqs, stop, keep_iterates=False)
        traces.append(trace)
        write_trace_csv(out_dir / ("trace_%s.csv" % name), trace)
        checked = analysis.check_envelope(trace, trace.kappa, seqs["xi"], seqs["mu"])
        summary["algorithms"][name] = {
            "final_residual": trace.residuals[-1],
            "final_error": None if trace.errors is None else trace.errors[-1],
            "steps": trace.steps_used,
            "converged": trace.converged,
            "hypothesis_violated": trace.kappa >= 1.0,
            "envelope": {"checked": False} if checked is None else {
                "checked": True, "passed": bool(checked[1].all()),
                "max_excess": float(np.max(np.asarray(trace.errors) - checked[0]))},
        }
    _write_json(out_dir / "summary.json", summary)
    return _divergence_status(traces)


def cmd_compare(cfg, out_dir):
    problem, stop, seqs, x0, (name_a, name_b) = _setup(cfg, fewest=2, most=2)
    if problem.known_solution is None:
        raise UsageError("compare requires a problem with a known solution")
    with _interpreting():
        decision_margin = float(cfg.get("decision_margin", 0.05))
    kappa = problem.contraction_factor()

    # both runs start from the same x0; only errors are compared, so neither keeps its coordinates
    trace_a, trace_b = (_RUNNERS[name](problem, x0, seqs, stop, keep_iterates=False)
                        for name in (name_a, name_b))
    report = analysis.rate_compare(trace_a, trace_b, decision_margin=decision_margin)
    n_common = min(len(trace_a.errors), len(trace_b.errors))
    # kappa >= 1 checks neither run; an envelope's prefix is the envelope of the run's prefix
    checks = [analysis.check_envelope(t, kappa, seqs["xi"], seqs["mu"]) for t in (trace_a, trace_b)]
    bounds_a, bounds_b = ([None] * n_common if c is None else c[0][:n_common].tolist()
                          for c in checks)
    passed_a = [] if checks[0] is None else checks[0][1].tolist()

    _write_json(out_dir / "rate_report.json", {
        "pi": report.pi,
        "verdict": report.verdict,
        "kappa": kappa,
        "lambda": problem.lam,
        "fitted_ratio": None if np.isnan(report.fitted_ratio) else report.fitted_ratio,
        "envelope_checks": [{"n": n, "bound": bound, "measured": e, "pass": ok} for n, (bound, e, ok)
                            in enumerate(zip(bounds_a, trace_a.errors, passed_a))],
    })

    with open(out_dir / "compare.csv", "w", encoding="utf-8", newline="\n") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["n", "e_a", "e_b", "pi_n", "envelope_a", "envelope_b"])
        for n in range(n_common):
            writer.writerow([n] + ["" if v is None else repr(v) for v in (
                trace_a.errors[n], trace_b.errors[n], report.pi[n], bounds_a[n], bounds_b[n])])
    return _divergence_status([trace_a, trace_b])


def cmd_sweep(cfg, out_dir):
    with _interpreting():
        problem = build_problem(cfg)
        grid_cfg = cfg.get("grid") or {}
        lo = float(grid_cfg.get("lo", 1e-3))
        hi = float(grid_cfg.get("hi", 10.0))
        points = int(grid_cfg.get("points", 100))
    if not (0 < lo <= hi) or points < 1:
        raise UsageError("invalid lambda grid")
    grid = np.linspace(lo, hi, points) if points > 1 else np.array([lo])

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
        "feasible_interval": analysis.feasible_lambda(problem.constants),
        "all_kappa_ge_one": best_kappa >= 1.0,
    })
    if best_kappa >= 1.0:
        print("warning: no grid point with kappa < 1", file=sys.stderr)
    return EXIT_OK


def cmd_audit(cfg, out_dir):
    problem, stop, seqs, x0, algorithms = _setup(cfg, fewest=2)
    with _interpreting():
        gap_tol = float(cfg.get("gap_tol", 1e-8))
        if not gap_tol >= 0:
            raise ValueError("gap_tol must be nonnegative, got %r" % gap_tol)
    kappa = problem.contraction_factor()

    # first pass finds how long the slowest algorithm needs, second pass runs
    # the shorter ones for that common length so gaps are comparable per step
    probe = {name: _RUNNERS[name](problem, x0, seqs, stop) for name in algorithms}
    common = max(trace.steps_used for trace in probe.values())
    # why a probe run ended unconverged, for the failure messages
    unfinished = {name: "diverged" if trace.diverged else "hit the step cap %d" % stop.max_steps
                  for name, trace in probe.items() if not trace.converged}
    # negative tol disables the residual stop so every rerun reaches the common length; a run at
    # its exact fixed point just repeats it. A probe of that length is kept: a fixed-length run's
    # prefix equals the run stopped at tol, and a capped or diverged probe is the rerun itself
    fixed_stop = StoppingRule(tol=-1.0, max_steps=common)
    traces = {name: trace if trace.steps_used == common
              else _RUNNERS[name](problem, x0, seqs, fixed_stop) for name, trace in probe.items()}
    pairs = []
    all_ok = True
    for i, name_a in enumerate(algorithms):
        for name_b in algorithms[i + 1:]:
            report = analysis.equivalence_audit(traces[name_a], traces[name_b], seqs["xi"],
                                                seqs["mu"], kappa, gap_tol=gap_tol)
            max_violation = max(report.max_violation_forward, report.max_violation_symmetric)
            causes = [] if report.gap_converged else [
                ", ".join("%s %s" % (n, unfinished[n]) for n in (name_a, name_b) if n in unfinished)
                or "the gap stayed above gap_tol %g" % gap_tol]
            if report.violations:
                causes.append("the gap recursion was violated %d times, largest excess %g"
                              % (report.violations, max_violation))
            cause = "; ".join(causes) or None
            if cause:
                print("audit failure: %s,%s final gap %g: %s" % (
                    name_a, name_b, report.gaps[-1], cause), file=sys.stderr)
            all_ok = all_ok and not cause
            pairs.append({
                "a": name_a,
                "b": name_b,
                "cause": cause,
                "final_gap": report.gaps[-1],
                "gap_converged": report.gap_converged,
                "recursion_checked": report.recursion_checked,
                "violations": report.violations,
                "max_violation": max_violation,
            })
    _write_json(out_dir / "audit.json", {
        "kappa": kappa,
        "lambda": problem.lam,
        "gap_tol": gap_tol,
        "pairs": pairs,
        "all_ok": all_ok,
    })
    status = _divergence_status(probe.values())  # names diverged runs, even of passing pairs
    return status if all_ok else EXIT_NUMERICAL


# ---------------------------------------------------------------------------
# config plumbing


def _write_json(path, payload):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _lambda(text):
    return text if text == "auto" else float(text)


def _floats(text):
    return [float(v) for v in text.split(",")]


def _grid(text):
    lo, hi, points = text.split(":")
    return {"lo": float(lo), "hi": float(hi), "points": int(points)}


#: (flag, config path, type, help) for the flags every subcommand takes
_FLAGS = (
    ("--problem", ("problem", "kind"), str, "scalar-affine, spd-linear, soft-threshold or explicit"),
    ("--dim", ("problem", "dim"), int, "problem dimension"),
    ("--b", ("problem", "b"), float, "affine offset for scalar/soft problems"),
    ("--c", ("problem", "c"), float, "shift of the subdifferential part"),
    ("--m", ("problem", "m"), float, "scale of the identity-like M"),
    ("--c-a", ("problem", "c_a"), float, "coupling scale of A to H"),
    ("--b-scale", ("problem", "b_scale"), float, "scale of the spd-linear offset"),
    ("--eigen-lo", ("problem", "eigen_range", 0), float, "lowest eigenvalue of spd-linear H"),
    ("--eigen-hi", ("problem", "eigen_range", 1), float, "highest eigenvalue of spd-linear H"),
    ("--lambda", ("lambda",), _lambda, "resolvent parameter, or 'auto'"),
    ("--alg", ("algorithms",), lambda text: [a for a in text.split(",") if a],
     "comma-separated algorithms (%s)" % ",".join(_RUNNERS)),
    ("--xi", ("sequences", "xi"), str, "step sequence spec, e.g. const:0.5 or harmonic:1"),
    ("--mu", ("sequences", "mu"), str, "step sequence spec"),
    ("--tol", ("stopping", "tol"), float, "residual tolerance"),
    ("--max-steps", ("stopping", "max_steps"), int, "step cap"),
    ("--seed", ("seed",), int, "problem seed"),
    ("--x0", ("x0",), _floats, "comma-separated start vector (scalar broadcasts)"),
    ("--out", ("output", "dir"), str, "output directory"),
)
_SWEEP_FLAGS = (("--grid", ("grid",), _grid, "lambda grid lo:hi:points"),)
_SECTIONS = ("problem", "sequences", "stopping", "grid", "output")


def _load_config(args):
    """The config file with the given flags laid over it, and the output directory."""
    with _interpreting():
        cfg = {}
        if args.config:
            with open(args.config, encoding="utf-8") as fh:
                cfg = json.load(fh)
        if not (isinstance(cfg, dict)
                and all(isinstance(cfg.get(key) or {}, dict) for key in _SECTIONS)):
            raise TypeError("the config and its %s must be JSON objects" % ", ".join(_SECTIONS))
        for flag, path, _, _ in _FLAGS + _SWEEP_FLAGS:
            value = getattr(args, flag[2:].replace("-", "_"), None)
            if value is not None:
                node = cfg
                for key in path[:-1]:
                    # a flag for one end of eigen_range keeps the other end
                    node[key] = node.get(key) or (list(_EIGEN_RANGE) if key == "eigen_range" else {})
                    node = node[key]
                node[path[-1]] = value
        return cfg, Path((cfg.get("output") or {}).get("dir", "."))


_COMMANDS = {"solve": cmd_solve, "compare": cmd_compare, "sweep": cmd_sweep, "audit": cmd_audit}


def main(argv=None):
    # the shared flags are added once, to a parent that each subcommand copies
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="JSON config file")
    for flag, _, kind, help_text in _FLAGS:
        common.add_argument(flag, type=kind, help=help_text)
    parser = _Parser(prog="hmsolve", description=__doc__)
    subparsers = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        sub = subparsers.add_parser(name, parents=[common])
        for flag, _, kind, help_text in _SWEEP_FLAGS if name == "sweep" else ():
            sub.add_argument(flag, type=kind, help=help_text)

    try:
        args = parser.parse_args(argv)
        cfg, out_dir = _load_config(args)
        out_dir.mkdir(parents=True, exist_ok=True)
        # a run that overflows ends in a non-finite iterate or gap, which the
        # command reports with EXIT_NUMERICAL
        with np.errstate(over="ignore", invalid="ignore"):
            return _COMMANDS[args.command](cfg, out_dir)
    except UsageError as exc:
        print("usage error: %s" % exc, file=sys.stderr)
        return EXIT_USAGE
    except InconsistentConstantsError as exc:
        print("infeasible constants: %s" % exc, file=sys.stderr)
        return EXIT_INFEASIBLE
    except ResolventDivergenceError as exc:
        print("numerical failure: %s" % exc, file=sys.stderr)
        return EXIT_NUMERICAL
    except OSError as exc:  # reading the config, writing the output
        print("usage error: %r" % exc, file=sys.stderr)
        return EXIT_USAGE


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
