"""Spread of one result set, or comparison of two, against BENCHMARK.json.

    python3 bench/compare.py BASE.jsonl            # run-to-run spread per metric
    python3 bench/compare.py BASE.jsonl NEW.jsonl  # verdict per workload and metric

Inputs are the JSON lines that ``bench/run.py --out FILE`` appends, one per
run of the end-to-end (``--trace 0``) benchmark. Spread is the distance
between the first and third quartile of a metric's per-run values, as a
share of their median. A comparison pairs runs of the same workload and
seed and gives, per workload and end-to-end metric:

* ``regressed``: NEW's median is worse than BASE's by more than the bound;
* ``unresolved``: BASE's own spread exceeds the bound, and not every NEW run
  beats every BASE run, so the bound cannot be resolved;
* ``improved``: NEW wins at least nine tenths of the pairs and the medians
  differ by more than BASE's quartile distance;
* ``unchanged``: none of the above.
"""

import json
import statistics
import sys
from pathlib import Path

SPEC = Path(__file__).resolve().parents[1] / "BENCHMARK.json"


def load(path):
    runs = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            record = json.loads(line)
            if record["trace"] == 0:
                runs.setdefault(record["workload"], []).append(record)
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def spread(values):
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / med if med else float("inf")


def values(records, metric):
    return [r["metrics"][metric]["value"] for r in records]


def verdict(base, new, pairs, better, bound):
    """Verdict for one workload and metric; ``better`` is 'lower' or 'higher'."""
    sign = 1.0 if better == "lower" else -1.0
    b_q1, b_med, b_q3 = quartiles(base)
    n_med = quartiles(new)[1]
    worse_by = sign * (n_med - b_med) / b_med
    wins = sum(1 for b, n in pairs if sign * (n - b) < 0)
    all_better = all(sign * (n - b) < 0 for n in new for b in base)
    if spread(base) > bound and not all_better:
        return "unresolved", wins
    if worse_by > bound:
        return "regressed", wins
    if pairs and wins >= 0.9 * len(pairs) and abs(n_med - b_med) > b_q3 - b_q1 and worse_by < 0:
        return "improved", wins
    return "unchanged", wins


def main(argv):
    if len(argv) not in (1, 2):
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads(SPEC.read_text())
    metrics = spec["end_to_end"]
    base = load(argv[0])
    if len(argv) == 1:
        print("%-18s %-14s %4s %12s %12s %12s %8s %6s  %s"
              % ("workload", "metric", "n", "q1", "median", "q3", "spread", "bound", "spread/bound"))
        for workload, records in sorted(base.items()):
            for m in metrics:
                v = values(records, m["name"])
                q1, med, q3 = quartiles(v)
                s = spread(v)
                print("%-18s %-14s %4d %12.6g %12.6g %12.6g %8.4f %6.3f  %.2f"
                      % (workload, m["name"], len(v), q1, med, q3, s, m["bound"], s / m["bound"]))
        return 0
    new = load(argv[1])
    print("%-18s %-14s %12s %12s %12s  %-10s %s"
          % ("workload", "metric", "base median", "new median", "new/base", "verdict", "wins/pairs"))
    for workload in sorted(set(base) & set(new)):
        by_seed = {r["seed"]: r for r in base[workload]}
        for m in metrics:
            name = m["name"]
            b, n = values(base[workload], name), values(new[workload], name)
            pairs = [(by_seed[r["seed"]]["metrics"][name]["value"], r["metrics"][name]["value"])
                     for r in new[workload] if r["seed"] in by_seed]
            word, wins = verdict(b, n, pairs, m["better"], m["bound"])
            b_med, n_med = quartiles(b)[1], quartiles(n)[1]
            print("%-18s %-14s %12.6g %12.6g %12.4f  %-10s %d/%d  (base q1-q3 %.6g-%.6g, "
                  "new q1-q3 %.6g-%.6g)"
                  % (workload, name, b_med, n_med, n_med / b_med, word, wins, len(pairs),
                     quartiles(b)[0], quartiles(b)[2], quartiles(n)[0], quartiles(n)[2]))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
