"""Spans around hmsolve's public layer boundaries, recorded from outside.

``patched(recorder)`` replaces public functions and methods of the hmsolve
modules with wrappers and puts the originals back on exit. Without spans it
wraps only the scheme runners, to keep the IterationTrace objects they
return: the oracle and ``time_to_tol_s`` read them. With spans every layer
boundary records ``(name, start_ns, end_ns, parent_index, tag)`` in memory;
``layer_metrics`` reduces one repeat's spans to the per-layer metrics and
``write_spans`` writes them out at the end of a run.
"""

import contextlib
import functools
import inspect
import json
import time

from hmsolve import analysis, cli, operators, problems, resolvent, schemes

RUNNERS = ("run_fh", "run_zgy", "run_mann", "run_new")
ANALYSIS = ("rate_compare", "equivalence_audit", "feasible_lambda",
            "contraction_factor", "kappa_scan")
OPERATOR_METHODS = ("apply", "selection", "jacobian")

RUN = frozenset("schemes." + name for name in RUNNERS)
F_MAP = "schemes.ProblemInstance.f_map"
RESOLVE = "resolvent.ResolventEngine.resolve"
FACTOR = "resolvent.ResolventEngine.__init__"
LAMBDA_SELECT = frozenset(("analysis.feasible_lambda", "analysis.contraction_factor",
                           "analysis.kappa_scan"))
WRITES = frozenset(("cli.write_trace_csv", "cli._write_json"))
STRATEGY_METRIC = {
    resolvent.CLOSED_FORM: "resolvent.closed_form.resolve_us",
    resolvent.SEPARABLE: "resolvent.separable.resolve_us",
    resolvent.NEWTON: "resolvent.newton.resolve_us",
}


class Recorder:
    """What one repeat leaves behind: returned traces and, if on, spans."""

    def __init__(self, spans):
        self.spans = [] if spans else None
        self.traces = []
        self.stack = []


def _resolve_tag(args):
    return args[0].strategy, args[0].dim


def _dense_tag(args):
    # dense operators keep their matrix; the tag is its order n
    matrix = getattr(args[0], "matrix", None)
    return None if matrix is None else matrix.shape[0]


def _functions(module, names):
    return [name for name in names if inspect.isfunction(vars(module).get(name))]


def targets(spans):
    """(owner, attribute, span name, tag function, keep result) per wrapped call."""
    runners = [(schemes, name, "schemes." + name, None, True)
               for name in _functions(schemes, RUNNERS)]
    if not spans:
        return runners
    out = runners
    gens = sorted(n for n in vars(problems) if n.startswith("gen_"))
    out += [(problems, n, "problems." + n, None, False) for n in _functions(problems, gens)]
    out += [(cli, n, "cli." + n, None, False)
            for n in _functions(cli, ("main", "build_problem", "write_trace_csv", "_write_json"))]
    envelopes = sorted(n for n in vars(analysis) if n == "envelope" or n.startswith("envelope_"))
    out += [(analysis, n, "analysis." + n, None, False)
            for n in _functions(analysis, list(ANALYSIS) + envelopes)]
    out += [
        (schemes.ProblemInstance, "f_map", F_MAP, None, False),
        (resolvent.ResolventEngine, "__init__", FACTOR, None, False),
        (resolvent.ResolventEngine, "resolve", RESOLVE, _resolve_tag, False),
    ]
    for cls in vars(operators).values():
        if inspect.isclass(cls) and cls.__module__ == operators.__name__:
            for meth in OPERATOR_METHODS:
                if inspect.isfunction(vars(cls).get(meth)):
                    tag = _dense_tag if meth != "jacobian" else None
                    out.append((cls, meth, "operators.%s.%s" % (cls.__name__, meth), tag, False))
    return out


def _wrap(fn, name, tag, keep, rec):
    traces = rec.traces
    if rec.spans is None:
        @functools.wraps(fn)
        def keeping(*args, **kwargs):
            result = fn(*args, **kwargs)
            traces.append(result)
            return result
        return keeping

    spans, stack, clock = rec.spans, rec.stack, time.perf_counter_ns

    @functools.wraps(fn)
    def spanning(*args, **kwargs):
        index = len(spans)
        spans.append(None)
        parent = stack[-1] if stack else -1
        stack.append(index)
        start = clock()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = clock()
            stack.pop()
            spans[index] = (name, start, end, parent, tag(args) if tag else None)
        if keep:
            traces.append(result)
        return result
    return spanning


@contextlib.contextmanager
def patched(rec):
    """Install the wrappers for ``rec``; always restore the originals."""
    saved = []
    try:
        for owner, attr, name, tag, keep in targets(rec.spans is not None):
            original = vars(owner)[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, _wrap(original, name, tag, keep, rec))
        yield rec
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def layer_metrics(spans, traces):
    """Per-layer metrics of one traced repeat (times in s, counts exact).

    Self time is a span's duration minus the durations of its direct
    children; one thread makes children disjoint, so that is the covered
    part. Group totals count only a group's outermost spans. Flops and bytes
    are computed from array sizes (2n^2 flops and 8n^2 + 16n bytes per dense
    matvec or LU solve), not measured.
    """
    names = [s[0] for s in spans]
    parents = [s[3] for s in spans]
    dur = [s[2] - s[1] for s in spans]
    covered = [0] * len(spans)
    for i, p in enumerate(parents):
        if p >= 0:
            covered[p] += dur[i]

    def outermost(i, group):
        p = parents[i]
        while p >= 0:
            if names[p] in group:
                return False
            p = parents[p]
        return True

    def under(i, name):
        p = parents[i]
        while p >= 0:
            if names[p] == name:
                return True
            p = parents[p]
        return False

    def total(group, only=None):
        return sum(dur[i] for i, n in enumerate(names)
                   if n in group and outermost(i, group) and (only is None or only(i))) / 1e9

    def self_time(group):
        return sum(dur[i] - covered[i] for i, n in enumerate(names) if n in group) / 1e9

    resolve_ns = {key: 0 for key in STRATEGY_METRIC}
    resolve_calls = {key: 0 for key in STRATEGY_METRIC}
    r_flops = r_bytes = o_flops = o_bytes = op_calls = op_ns = f_evals = 0
    envelope_calls = 0
    for i, (name, _, _, parent, tag) in enumerate(spans):
        if name == RESOLVE:
            strategy, n = tag
            resolve_ns[strategy] += dur[i]
            resolve_calls[strategy] += 1
            if strategy == resolvent.CLOSED_FORM:
                r_flops += 2 * n * n
                r_bytes += 8 * n * n + 16 * n
        elif name.startswith("operators."):
            op_calls += 1
            op_ns += dur[i]
            if tag is not None:
                o_flops += 2 * tag * tag
                o_bytes += 8 * tag * tag + 16 * tag
        elif name == F_MAP and parent >= 0 and names[parent] in RUN:
            f_evals += 1
        elif name.startswith("analysis.envelope"):
            envelope_calls += 1

    metrics = {
        STRATEGY_METRIC[k]: resolve_ns[k] / resolve_calls[k] / 1e3 if resolve_calls[k] else 0.0
        for k in STRATEGY_METRIC
    }
    envelopes = frozenset(n for n in names if n.startswith("analysis.envelope"))
    metrics.update({
        "resolvent.calls": sum(resolve_calls.values()),
        "resolvent.factor_s": total({FACTOR}),
        "resolvent.flops_computed": r_flops,
        "resolvent.bytes_computed": r_bytes,
        "operators.apply_calls": op_calls,
        "operators.apply_s": op_ns / 1e9,
        "operators.flops_computed": o_flops,
        "operators.bytes_computed": o_bytes,
        "schemes.run_s": total(RUN),
        "schemes.self_s": self_time(RUN),
        "schemes.steps": sum(t.steps_used for t in traces),
        "schemes.f_evals": f_evals,
        "schemes.iterate_bytes": sum(x.nbytes for t in traces for x in t.iterates),
        "analysis.envelope_s": total(envelopes),
        "analysis.envelope_calls": envelope_calls,
        "analysis.rate_compare_self_s": self_time({"analysis.rate_compare"}),
        "analysis.audit_s": total({"analysis.equivalence_audit"}),
        "analysis.lambda_select_s": total(
            LAMBDA_SELECT, only=lambda i: under(i, "cli.build_problem")),
        "problems.gen_s": total(frozenset(n for n in names if n.startswith("problems.gen_"))),
        "cli.self_s": self_time({"cli.main"}),
        "cli.write_s": total(WRITES),
        "trace.spans": len(spans),
    })
    return metrics


def write_spans(path, spans):
    with open(path, "w", encoding="utf-8") as fh:
        for name, start, end, parent, tag in spans:
            fh.write(json.dumps({"name": name, "start_ns": start, "end_ns": end,
                                 "parent": parent, "tag": tag}) + "\n")
