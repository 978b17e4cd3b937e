"""The benchmark's workloads and the oracle that checks every invocation.

A workload is a list of invocations; one repeat runs each once. The workload
seed only picks the inputs (problem seeds, the nonlinear workload's x*); the
program sees the generated inputs and nothing else.

Why these four (see BENCHMARK.json for the one-line reasons). Only
``spd-solve`` and ``soft-audit-wide`` are listed in BENCHMARK.json: the two
Python-bound workloads spread by up to 0.35 from run to run on a shared host
whose speed drifts, above the largest bound allowed, so they run by name only.

* ``spd-solve``: closed-form LU resolvent, dense matvecs and the SPD
  generator's QR dominate; post-processing sees few steps.
* ``soft-compare-long``: a cheap resolvent at dim 50, so the per-step Python
  loop, the quadratic ``envelope_new`` inside ``rate_compare`` and the long
  artifacts dominate. Harmonic xi keeps every ratio uncensored.
* ``soft-audit-wide``: short runs of wide vectors; every algorithm runs twice
  with all iterates kept, gap norms, and auto-lambda via ``kappa_scan``.
  Dim 2000 rather than 5000: the dense 5000 x 5000 identity in A made an
  invocation take 7-9 s single-threaded, bound by memory bandwidth that other
  tenants share, which left too few and too noisy repeats per run.
* ``nonlinear-resolve``: library calls that reach the two iterative resolvent
  strategies (separable Newton per coordinate, general Newton); no CLI path
  reaches them.
"""

import csv
import hashlib
import io
import json
import math
import random
import shutil

import numpy as np

from hmsolve import cli, operators, schemes

#: time_to_tol_s threshold: first step with error <= TOL_REL * max(1, ||x*||)
TOL_REL = 1e-8
#: absolute error slack on top of the a-posteriori bounds, for rounding in x*
#: and in the 1e-12 inner solves
SLACK_ABS = 1e-11
SLACK_REL = 1e-12

ARTIFACTS = {
    "solve": ["summary.json"],  # plus one trace_<alg>.csv per algorithm
    "compare": ["rate_report.json", "compare.csv"],
    "audit": ["audit.json"],
}


class OracleError(Exception):
    """An invocation's output is missing, wrong or not reproducible."""


def _problem_seeds(name, seed, count):
    rng = random.Random("%s/%d" % (name, seed))
    return [rng.randrange(1, 2 ** 31) for _ in range(count)]


def _strip_wall_nanos(raw):
    rows = list(csv.reader(io.StringIO(raw.decode("utf-8"), newline="")))
    keep = [i for i, col in enumerate(rows[0]) if col != "wall_nanos"]
    return "\n".join(",".join(row[i] for i in keep) for row in rows).encode("utf-8")


class CliInvocation:
    """One ``hmsolve <command> --config cfg.json --out out/`` call."""

    def __init__(self, label, command, cfg):
        self.label = label
        self.command = command
        self.cfg = cfg
        tol = float((cfg.get("stopping") or {}).get("tol", 1e-10))
        self.tol = tol if tol >= 0 else None
        self.artifacts = list(ARTIFACTS[command])
        if command == "solve":
            self.artifacts += ["trace_%s.csv" % a for a in cfg["algorithms"]]
        self.runs_min = len(cfg["algorithms"])

    def prepare(self, directory):
        """Write the config file; compute x* once for the oracle."""
        directory.mkdir(parents=True, exist_ok=True)
        self.config_path = directory / "config.json"
        self.config_path.write_text(json.dumps(self.cfg, sort_keys=True))
        self.out = directory / "out"
        self.xstar = cli.build_problem(self.cfg).known_solution

    def setup(self):
        return cli.build_problem(self.cfg)

    def reset(self):
        shutil.rmtree(self.out, ignore_errors=True)
        self.out.mkdir()

    def run(self):
        return cli.main([self.command, "--config", str(self.config_path),
                         "--out", str(self.out)])

    def digest(self, traces):
        """Hash of the deterministic artifacts (trace CSVs minus wall_nanos)."""
        h = hashlib.sha256()
        for name in self.artifacts:
            path = self.out / name
            if not path.is_file():
                raise OracleError("%s: artifact %s missing" % (self.label, name))
            raw = path.read_bytes()
            if name.startswith("trace_"):
                raw = _strip_wall_nanos(raw)
            h.update(name.encode() + b"\0" + raw + b"\0")
        return h.hexdigest()

    def bytes_written(self):
        return sum(p.stat().st_size for p in self.out.iterdir() if p.is_file())

    def envelope_checks(self):
        """(checks made, checks passed) as the artifacts report them."""
        if self.command == "solve":
            summary = json.loads((self.out / "summary.json").read_text())
            env = [a["envelope"] for a in summary["algorithms"].values()
                   if a["envelope"].get("checked")]
            return len(env), sum(bool(e["passed"]) for e in env)
        if self.command == "compare":
            report = json.loads((self.out / "rate_report.json").read_text())
            checks = report["envelope_checks"]
            return len(checks), sum(bool(c["pass"]) for c in checks)
        return 0, 0


def _tanh_h():
    # H(t) = t + tanh(t)/2 per coordinate: f' in (1, 1.5], so gamma = 1, tau = 1.5
    return operators.DiagonalNonlinear(
        lambda t: t + 0.5 * np.tanh(t),
        lambda t: 1.0 + 0.5 / np.cosh(t) ** 2,
        (1.0, 1.5),
    )


class LibraryInvocation:
    """``run_fh`` and ``run_new`` (mu = 0.5, tol 1e-10) on one nonlinear instance.

    A = AffineLinear(I, b) with b = x* + M(x*), so x* solves 0 in A(x) + M(x);
    r = s = 1, lambda = 1. ``resolvent`` is ``separable`` (M = I) or
    ``newton`` (M = I + 0.1 G G^T / n, eta = its smallest eigenvalue).
    """

    tol = 1e-10
    runs_min = 2

    def __init__(self, label, resolvent, dim, seed):
        self.label = label
        rng = np.random.default_rng(seed)
        self.xstar = rng.standard_normal(dim)
        self.g = rng.standard_normal((dim, dim)) if resolvent == "newton" else None

    def prepare(self, directory):
        pass

    def setup(self):
        dim = self.xstar.shape[0]
        if self.g is None:
            m, eta = operators.ScaledIdentityMulti(1.0), 1.0
        else:
            b_mat = np.eye(dim) + 0.1 * (self.g @ self.g.T) / dim
            b_mat = (b_mat + b_mat.T) / 2.0
            m, eta = operators.LinearMonotone(b_mat), float(np.linalg.eigvalsh(b_mat)[0])
        a = operators.AffineLinear(np.eye(dim), self.xstar + m.selection(self.xstar))
        return schemes.ProblemInstance(
            h=_tanh_h(), a=a, m=m,
            constants=operators.OperatorConstants(1.0, 1.5, 1.0, 1.0, eta),
            lam=1.0, dim=dim, known_solution=self.xstar,
        )

    def reset(self):
        pass

    def run(self):
        problem = self.setup()
        x0 = np.zeros(problem.dim)
        stop = schemes.StoppingRule(tol=self.tol)
        schemes.run_fh(problem, x0, stop)
        schemes.run_new(problem, x0, schemes.make_step_sequence("constant", value=0.5), stop)
        return 0

    def digest(self, traces):
        h = hashlib.sha256()
        for t in traces:
            h.update(repr((t.algorithm, t.steps_used, t.residuals, t.errors)).encode())
        return h.hexdigest()

    def bytes_written(self):
        return 0

    def envelope_checks(self):
        return 0, 0


def make(name, seed, small=False):
    """Invocations of workload ``name`` for ``seed``; ``small`` shrinks it for tests."""
    if name == "spd-solve":
        dim = 40 if small else 1000
        return [CliInvocation("solve spd-linear dim %d seed %d" % (dim, s), "solve", {
            "problem": {"kind": "spd-linear", "dim": dim, "seed": s},
            "lambda": 0.6,
            "algorithms": ["fh", "zgy", "mann", "new"],
        }) for s in _problem_seeds(name, seed, 3)]
    if name == "soft-compare-long":
        steps = 300 if small else 4000
        return [CliInvocation("compare soft-threshold dim 50 seed %d" % s, "compare", {
            "problem": {"kind": "soft-threshold", "dim": 50, "seed": s},
            "algorithms": ["zgy", "mann"],
            "sequences": {"xi": "harmonic:1", "mu": "const:0.5"},
            "stopping": {"tol": -1.0, "max_steps": steps},
        }) for s in _problem_seeds(name, seed, 1)]
    if name == "soft-audit-wide":
        dim = 60 if small else 2000
        return [CliInvocation("audit soft-threshold dim %d seed %d" % (dim, s), "audit", {
            "problem": {"kind": "soft-threshold", "dim": dim, "seed": s},
            "lambda": "auto",
            "algorithms": ["fh", "zgy", "mann", "new"],
        }) for s in _problem_seeds(name, seed, 1)]
    if name == "nonlinear-resolve":
        s_sep, s_newton = _problem_seeds(name, seed, 2)
        d_sep, d_newton = (30, 20) if small else (1000, 500)
        return [
            LibraryInvocation("separable dim %d" % d_sep, "separable", d_sep, s_sep),
            LibraryInvocation("newton dim %d" % d_newton, "newton", d_newton, s_newton),
        ]
    raise KeyError("unknown workload %r" % (name,))


NAMES = ("spd-solve", "soft-compare-long", "soft-audit-wide", "nonlinear-resolve")


def time_to_tol(traces):
    """Solver seconds to the first step with error <= TOL_REL*max(1, ||x*||),
    summed over the runs; a run that never gets there counts in full."""
    total = 0
    for t in traces:
        threshold = TOL_REL * max(1.0, t.solution_norm)
        hit = next((k for k, e in enumerate(t.errors) if e <= threshold), len(t.errors) - 1)
        total += t.wall_nanos[hit]
    return total / 1e9


def check(inv, rc, traces):
    """Raise OracleError unless the invocation exited 0 with correct results.

    Every algorithm must have run at least once. The error of every run's
    final iterate against the closed-form x* (recomputed when the run kept
    its iterates, else as reported) must obey the a-posteriori bound
    error <= residual/(1 - kappa) and, when the run had a residual
    tolerance, error <= tol/(1 - kappa) (errors of all four schemes are
    nonincreasing, so a longer run does no worse).
    """
    if rc != 0:
        raise OracleError("%s: exit code %r" % (inv.label, rc))
    if len(traces) < inv.runs_min:
        raise OracleError("%s: %d scheme runs, expected at least %d"
                          % (inv.label, len(traces), inv.runs_min))
    slack = SLACK_ABS + SLACK_REL * float(np.linalg.norm(inv.xstar))
    for t in traces:
        error = t.errors[-1]
        if t.iterates:
            error = float(np.linalg.norm(t.iterates[-1] - inv.xstar))
            if not math.isclose(error, t.errors[-1], rel_tol=1e-9, abs_tol=1e-15):
                raise OracleError("%s %s: reported error %r, recomputed %r"
                                  % (inv.label, t.algorithm, t.errors[-1], error))
        if not t.kappa < 1.0:
            raise OracleError("%s %s: kappa %r >= 1" % (inv.label, t.algorithm, t.kappa))
        bounds = [t.residuals[-1] / (1.0 - t.kappa)]
        if inv.tol is not None:
            bounds.append(inv.tol / (1.0 - t.kappa))
        if error > min(bounds) + slack:
            raise OracleError("%s %s: final error %r above bound %r"
                              % (inv.label, t.algorithm, error, min(bounds) + slack))
