"""Command-line surface: solve, compare, sweep and audit subcommands.

Configuration comes from an optional JSON file (``--config``) with the flags laid
over it; ``_DEFAULTS`` states every key it may hold and its default. All emitted
artifacts are data-only (CSV/JSON); plotting is downstream.

Exit codes: 0 success, 1 usage error, 2 infeasible constants (or declared
constants that the exact ones contradict), 3 numerical failure.
"""

import argparse
import contextlib
import csv
import dataclasses
import functools
import inspect
import json
import sys
from pathlib import Path

import numpy as np

from . import analysis, problems, schemes
from .operators import InconsistentConstantsError
from .resolvent import ResolventDivergenceError
from .schemes import StepSequence, StoppingRule, as_number, as_vector, make_step_sequence

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


#: spec name -> family (custom-table is "table" only), and the text after it as each parameter
_SPEC_FAMILIES = {**{f: f for f in schemes.STEP_FAMILIES if f != "custom-table"},
                  "const": "constant", "table": "custom-table"}
_SPEC_PARAMS = {"value": float, "offset": int, "table": lambda text: [float(v) for v in text.split(",") if v]}


def parse_sequence(spec):
    """A StepSequence from a spec like ``const:0.5``, or from a dict of ``family`` and its one parameter."""
    if isinstance(spec, dict):
        return make_step_sequence(**spec)
    name, _, arg = str(spec).partition(":")
    if name not in _SPEC_FAMILIES:
        raise UsageError("unknown step sequence spec %r" % (spec,))
    family = _SPEC_FAMILIES[name]
    return StepSequence(family, _SPEC_PARAMS[schemes.STEP_FAMILIES[family].param](arg) if arg else None)


#: problem kind -> {key: default} for the ``problem`` keys but ``lam`` that its builder ``problems.gen_<kind>``
#: takes, read off the builder's signature once. The builder and each ``schemes.run_*`` are looked up at
#: call time, so that a wrapped one is the one called.
_KINDS = {name[4:].replace("_", "-"): {key: param.default for key, param in
                                       inspect.signature(getattr(problems, name)).parameters.items() if key != "lam"}
          for name in problems.__all__ if name.startswith("gen_")}
#: the keys a ``problem`` section may hold: one of another kind is ignored, one of no kind refused
_PROBLEM_KEYS = {"kind", "lambda"}.union(*_KINDS.values())
_RUNNERS = {
    "fh": lambda p, x0, seqs, stop, **kw: schemes.run_fh(p, x0, stop, **kw),
    "zgy": lambda p, x0, seqs, stop, **kw: schemes.run_zgy(p, x0, seqs["xi"], seqs["mu"], stop, **kw),
    "mann": lambda p, x0, seqs, stop, **kw: schemes.run_mann(p, x0, seqs["xi"], stop, **kw),
    "new": lambda p, x0, seqs, stop, **kw: schemes.run_new(p, x0, seqs["mu"], stop, **kw),
}


def build_problem(cfg):
    """Build a ProblemInstance from the ``problem`` config section.

    Only the keys present that the kind's builder takes are passed on, so its signature
    holds every default; a key of no kind is a usage error. A top-level ``lambda`` wins
    over ``problem.lambda``, and ``problem.seed`` over a top-level ``seed``. ``"auto"``
    takes the closed-form kappa minimiser lam*, infeasible when even kappa(lam*) >= 1.
    The instance's ``metadata`` is the kind and each builder parameter but ``lam``, as
    passed or else its default, with ``lambda_auto`` under ``"auto"``.
    """
    p = cfg.get("problem") or {}
    if not isinstance(p, dict) or (kind := p.get("kind")) not in _KINDS:
        raise UsageError("unknown or missing problem kind %r" % (p.get("kind") if isinstance(p, dict) else p,))
    if not p.keys() <= _PROBLEM_KEYS:
        raise UsageError("unknown problem keys %s" % sorted(p.keys() - _PROBLEM_KEYS))
    lam = p.get("lambda") if cfg.get("lambda") is None else cfg["lambda"]
    given = {"seed": cfg.get("seed"), **p, "lam": None if lam == "auto" else lam}
    args = {k: given[k] for k in (*_KINDS[kind], "lam") if given.get(k) is not None}
    inst = getattr(problems, "gen_" + kind.replace("-", "_"))(**args)
    inst.metadata = {"kind": kind, **{k: args.get(k, default) for k, default in _KINDS[kind].items()}}
    if lam != "auto":
        return inst
    best, best_kappa = analysis.optimal_lambda(inst.constants)
    if best_kappa >= 1.0:
        raise InconsistentConstantsError("no lam with kappa < 1: constants are infeasible "
                                         "(minimal kappa %.6g at lam %.6g)" % (best_kappa, best))
    return dataclasses.replace(inst, lam=best, metadata={**inst.metadata, "lambda_auto": True})


def _setup(cfg, fewest=1, most=float("inf")):
    """Interpret the inputs of a run: (problem, stop, seqs, x0, algorithms).

    The algorithm names and their number, ``fewest`` to ``most``, are checked
    first: a bad one stops the command before any run.
    """
    with _interpreting():
        algorithms = [str(a).lower() for a in cfg["algorithms"]]
        if not set(algorithms) <= set(_RUNNERS):
            raise UsageError("unknown algorithm in %s (choose from %s)" % (algorithms, ", ".join(_RUNNERS)))
        if not fewest <= len(algorithms) <= most:
            raise UsageError("this command needs %s algorithms, got %d" % (
                "exactly %d" % most if fewest == most else "at least %d" % fewest, len(algorithms)))
        problem = build_problem(cfg)
        stop = StoppingRule(**cfg["stopping"])
        seqs = {key: parse_sequence(spec) for key, spec in cfg["sequences"].items()}
        x0 = as_vector(cfg["x0"])  # one entry broadcasts
        if x0.shape[0] not in (1, problem.dim):
            raise UsageError("x0 dimension %d does not match problem dimension %d" % (x0.shape[0], problem.dim))
    return problem, stop, seqs, x0, algorithms


def write_trace_csv(path, trace):
    """Trace CSV: columns n, residual, error, wall_nanos."""
    _write_csv(path, ["n", "residual", "error", "wall_nanos"], zip(range(len(trace.residuals)),
               trace.residuals, trace.errors or [None] * len(trace.residuals), trace.wall_nanos))


def _divergence_status(traces):
    """EXIT_NUMERICAL, naming each run that hit a non-finite iterate, else EXIT_OK."""
    diverged = ["%s at step %d" % (t.algorithm.lower(), t.steps_used + 1) for t in traces if t.diverged]
    if not diverged:
        return EXIT_OK
    print("numerical failure: non-finite iterate (%s)" % ", ".join(diverged), file=sys.stderr)
    return EXIT_NUMERICAL


def _record(trace):
    """``check_envelope``'s (bounds, passed) or None, and the run's ``algorithms.<name>`` in every artifact."""
    checked = analysis.check_envelope(trace, trace.kappa)
    return checked, {
        "final_residual": trace.residuals[-1],
        "final_error": None if trace.errors is None else trace.errors[-1],
        "steps": trace.steps_used,
        "converged": trace.converged,
        "hypothesis_violated": trace.kappa >= 1.0,
        "envelope": {"checked": False} if checked is None else {
            "checked": True, "passed": bool(checked[1].all()),
            "max_excess": float(np.max(np.asarray(trace.errors) - checked[0]))},
    }


def cmd_solve(cfg, out_dir):
    problem, stop, seqs, x0, algorithms = _setup(cfg)
    kappa = problem.contraction_factor()
    traces = []
    for name in algorithms:
        traces.append(_RUNNERS[name](problem, x0, seqs, stop, keep_iterates=False))
        write_trace_csv(out_dir / ("trace_%s.csv" % name), traces[-1])
    _write_json(out_dir / "summary.json", {
        "kappa": kappa,
        "lambda": problem.lam,
        "hypothesis_violated": kappa >= 1.0,
        "problem": problem.metadata,
        "algorithms": {name: _record(trace)[1] for name, trace in zip(algorithms, traces)},
    })
    return _divergence_status(traces)


def cmd_compare(cfg, out_dir):
    problem, stop, seqs, x0, (name_a, name_b) = _setup(cfg, fewest=2, most=2)
    if problem.known_solution is None:
        raise UsageError("compare requires a problem with a known solution")
    with _interpreting():
        decision_margin = as_number(cfg["decision_margin"], "decision_margin", least=0)

    # both runs start from the same x0; only errors are compared, so neither keeps its coordinates
    trace_a, trace_b = (_RUNNERS[name](problem, x0, seqs, stop, keep_iterates=False)
                        for name in (name_a, name_b))
    report = analysis.rate_compare(trace_a, trace_b, decision_margin=decision_margin)
    n_common = min(len(trace_a.errors), len(trace_b.errors))
    checks, records = zip(*(_record(t) for t in (trace_a, trace_b)))
    # kappa >= 1 checks neither run; an envelope's prefix is the envelope of the run's prefix
    bounds_a, bounds_b = ([None] * n_common if c is None else c[0][:n_common].tolist() for c in checks)

    _write_json(out_dir / "rate_report.json", {
        "pi": report.pi,
        "verdict": report.verdict,
        "kappa": trace_a.kappa,
        "lambda": problem.lam,
        "fitted_ratio": None if np.isnan(report.fitted_ratio) else report.fitted_ratio,
        "envelope_checks": [] if checks[0] is None else [
            {"n": n, "bound": bound, "measured": e, "pass": ok} for n, (bound, e, ok)
            in enumerate(zip(bounds_a, trace_a.errors, checks[0][1].tolist()))],
        "algorithms": dict(zip((name_a, name_b), records)),
    })

    _write_csv(out_dir / "compare.csv", ["n", "e_a", "e_b", "pi_n", "envelope_a", "envelope_b"],
               zip(range(n_common), trace_a.errors, trace_b.errors, report.pi, bounds_a, bounds_b))
    return _divergence_status([trace_a, trace_b])


def cmd_sweep(cfg, out_dir):
    with _interpreting():
        problem = build_problem(cfg)
        lo, hi, points = (as_number(value, "grid." + key, whole=key == "points")
                          for key, value in cfg["grid"].items())
    if not (0 < lo <= hi < np.inf) or points < 1:
        raise UsageError("invalid lambda grid")
    grid = np.linspace(lo, hi, points)

    rows = [(lam, analysis.contraction_factor(problem.constants, lam)) for lam in grid.tolist()]
    best_lam, best_kappa = min(rows, key=lambda row: row[1])

    _write_csv(out_dir / "sweep.csv", ["lambda", "kappa", "in_feasible_interval"],
               ((lam, kappa, int(kappa < 1.0)) for lam, kappa in rows))
    interval = analysis.feasible_lambda(problem.constants)
    _write_json(out_dir / "sweep_summary.json", {  # strict JSON: a kappa or an end past the floats is null
        "best_lambda": best_lam,
        "best_kappa": best_kappa if best_kappa < np.inf else None,
        "feasible_interval": interval and [end if end < np.inf else None for end in interval],
        "all_kappa_ge_one": best_kappa >= 1.0,
    })
    if best_kappa >= 1.0:
        print("warning: no grid point with kappa < 1", file=sys.stderr)
    return EXIT_OK


def cmd_audit(cfg, out_dir):
    problem, stop, seqs, x0, algorithms = _setup(cfg, fewest=2)
    with _interpreting():
        gap_tol = as_number(cfg["gap_tol"], "gap_tol", least=0)
    kappa = problem.contraction_factor()

    # first pass finds how long the slowest algorithm needs, second pass runs
    # the shorter ones for that common length so gaps are comparable per step
    probe = {name: _RUNNERS[name](problem, x0, seqs, stop) for name in algorithms}
    common = max(trace.steps_used for trace in probe.values())
    # why a probe run ended unconverged, for the failure messages
    unfinished = {name: "diverged" if trace.diverged else "hit the step cap %d" % stop.max_steps
                  for name, trace in probe.items() if not trace.converged}
    # the rest rerun to the common length with the residual stop off (tol < 0): a probe of that length,
    # or a diverged one (it stops at a non-finite iterate whatever tol), is its own fixed-length rerun
    fixed_stop = StoppingRule(tol=-1.0, max_steps=common)
    traces = {name: trace if trace.steps_used == common or trace.diverged
              else _RUNNERS[name](problem, x0, seqs, fixed_stop) for name, trace in probe.items()}
    pairs = []
    all_ok = True
    for i, name_a in enumerate(algorithms):
        for name_b in algorithms[i + 1:]:
            report = analysis.equivalence_audit(traces[name_a], traces[name_b], kappa, gap_tol=gap_tol)
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
            pairs.append({"a": name_a, "b": name_b, "cause": cause, "final_gap": report.gaps[-1],
                          "gap_converged": report.gap_converged, "recursion_checked": report.recursion_checked,
                          "violations": report.violations, "max_violation": max_violation})
    _write_json(out_dir / "audit.json", {
        "kappa": kappa,
        "lambda": problem.lam,
        "gap_tol": gap_tol,
        "pairs": pairs,
        "all_ok": all_ok,
        # the tol-stopped probes, the runs that solve makes
        "algorithms": {name: _record(trace)[1] for name, trace in probe.items()},
    })
    status = _divergence_status(probe.values())  # names diverged runs, even of passing pairs
    return status if all_ok else EXIT_NUMERICAL


# ---------------------------------------------------------------------------
# config plumbing


def _write_json(path, payload):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_csv(path, header, rows):
    """A CSV with LF line endings; ``csv`` writes a float as its round-tripping repr and None empty."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        csv.writer(fh, lineterminator="\n").writerows([header, *rows])


#: every config key and its default, which a key left out or null takes; build_problem checks ``problem``'s
#: keys, and the defaults of stopping, decision_margin and gap_tol are those of the library calls that take them
_DEFAULTS = {
    "problem": None, "lambda": None, "seed": None, "algorithms": ["fh"], "x0": 0.0,
    "sequences": {"xi": "const:0.5", "mu": "const:0.5"},
    "stopping": {f.name: f.default for f in dataclasses.fields(StoppingRule)},
    "grid": {"lo": 1e-3, "hi": 10.0, "points": 100}, "output": {"dir": "."},
    "decision_margin": inspect.signature(analysis.rate_compare).parameters["decision_margin"].default,
    "gap_tol": inspect.signature(analysis.equivalence_audit).parameters["gap_tol"].default,
}


#: (flag, config path, type, help) for the flags every subcommand takes, but --grid, which is sweep's alone
_FLAGS = (
    ("--problem", ("problem", "kind"), str, "problem kind (%s)" % ", ".join(_KINDS)),
    ("--dim", ("problem", "dim"), int, "problem dimension"),
    ("--b", ("problem", "b"), float, "affine offset for scalar/soft problems"),
    ("--c", ("problem", "c"), float, "shift of the subdifferential part"),
    ("--m", ("problem", "m"), float, "scale of the identity-like M"),
    ("--c-a", ("problem", "c_a"), float, "coupling scale of A to H"),
    ("--b-scale", ("problem", "b_scale"), float, "scale of the spd-linear offset"),
    ("--eigen-lo", ("problem", "eigen_range", 0), float, "lowest eigenvalue of spd-linear H"),
    ("--eigen-hi", ("problem", "eigen_range", 1), float, "highest eigenvalue of spd-linear H"),
    ("--lambda", ("lambda",), lambda text: text if text == "auto" else float(text), "resolvent parameter, or 'auto'"),
    ("--alg", ("algorithms",), lambda text: [a for a in text.split(",") if a],
     "comma-separated algorithms (%s)" % ",".join(_RUNNERS)),
    ("--xi", ("sequences", "xi"), str, "step sequence spec, e.g. const:0.5 or harmonic:1"),
    ("--mu", ("sequences", "mu"), str, "step sequence spec"),
    ("--tol", ("stopping", "tol"), float, "residual tolerance"),
    ("--max-steps", ("stopping", "max_steps"), float, "step cap, a whole number"),
    ("--seed", ("problem", "seed"), int, "problem seed"),
    ("--x0", ("x0",), lambda text: [float(v) for v in text.split(",")],
     "comma-separated start vector (scalar broadcasts)"),
    ("--out", ("output", "dir"), str, "output directory"),
    ("--grid", ("grid",), lambda text: dict(zip(_DEFAULTS["grid"], map(float, text.split(":")), strict=True)),
     "lambda grid lo:hi:points"),
)


def _filled(given, defaults, unknown, path=""):
    """``given`` with the ``defaults`` of the keys it leaves out or null; each other key's path goes to ``unknown``."""
    if not isinstance(given, dict):
        raise TypeError("config %s must be a JSON object, got %r" % (path[:-1] or "file", given))
    unknown += [path + key for key in given.keys() - defaults.keys()]
    given = {key: default if given.get(key) is None else given[key] for key, default in defaults.items()}
    return {key: _filled(value, defaults[key], unknown, path + key + ".") if isinstance(defaults[key], dict)
            else value for key, value in given.items()}


def _load_config(args):
    """The effective config: the file, refused if it holds a key outside ``_DEFAULTS``, with their defaults
    filled in and the given flags laid over it. Each value is checked where a command reads it."""
    cfg = {}
    if args.config:
        with open(args.config, encoding="utf-8") as fh:
            cfg = json.load(fh)
    unknown = []
    cfg = _filled(cfg, _DEFAULTS, unknown)
    if unknown:
        raise UsageError("unknown config keys %s" % sorted(unknown))
    for flag, path, _, _ in _FLAGS:
        value = getattr(args, flag[2:].replace("-", "_"), None)
        if value is not None:
            node = cfg
            for key in path[:-1]:
                # a flag for one end of eigen_range keeps the other end, else spd-linear's default one
                node[key] = node.get(key) or (list(_KINDS["spd-linear"][key]) if key == "eigen_range" else {})
                node = node[key]
            node[path[-1]] = value
    return cfg


_COMMANDS = {"solve": cmd_solve, "compare": cmd_compare, "sweep": cmd_sweep, "audit": cmd_audit}


@functools.cache
def _parser():
    """The parser, built on the first call only: each subcommand takes --config and the shared flags."""
    parser = _Parser(prog="hmsolve", description=__doc__)  # its subparsers are _Parsers too
    subparsers = parser.add_subparsers(dest="command", required=True)
    for _, path, kind, _ in _FLAGS:  # argparse names a refused value by its type's __name__, and a lambda's says nothing
        if kind.__name__ == "<lambda>":
            kind.__name__ = path[-1]
    for name in _COMMANDS:
        sub = subparsers.add_parser(name)
        sub.add_argument("--config", help="JSON config file")
        for flag, path, kind, help_text in _FLAGS:
            if path != ("grid",) or name == "sweep":  # grid, which only sweep reads
                sub.add_argument(flag, type=kind, help=help_text)
    return parser


def main(argv=None):
    try:
        args = _parser().parse_args(argv)
        with _interpreting():
            cfg = _load_config(args)
            if not isinstance(out_dir := cfg["output"]["dir"], str):
                raise UsageError("output.dir must be text, got %r" % (out_dir,))
            out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        # a run that overflows ends in a non-finite iterate or gap, which the command reports with EXIT_NUMERICAL
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
