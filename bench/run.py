"""hmsolve benchmark entry point.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--out FILE]
    python3 bench/run.py --workload all --seed N --seconds S --trace 0|1 [--out FILE]

Run from a checkout's root: it imports hmsolve from ``src/`` and nowhere
else, and exits with code 2 when that is missing. One workload runs in one
process with one load thread; BLAS and OpenMP thread counts are pinned to 1
in this process's own environment (and so in its children) before numpy
loads. With ``--trace 0`` the last stdout line carries the end-to-end
metrics, with ``--trace 1`` the per-layer ones. ``--out`` appends the full
record (metrics, samples, environment, failures) as one JSON line, the input
of ``bench/compare.py``. ``--workload all`` runs every workload, each in its
own process, and prints one table. Workloads that ``BENCHMARK.json`` does
not list (``soft-compare-long``, ``nonlinear-resolve``) run by name only.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
BLAS_THREADS = "1"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def _report(record):
    metrics, samples = record["metrics"], record["samples"]
    print("# hmsolve benchmark: workload=%(workload)s seed=%(seed)d seconds=%(seconds)g "
          "trace=%(trace)d" % record)
    print("# env " + json.dumps(record["env"], sort_keys=True))
    for name, m in {**metrics, **record["unbounded"]}.items():
        values = sorted(samples[name])
        print("%-36s %14.6g %-5s n=%-4d min %.6g  max %.6g"
              % (name, m["value"], m["unit"], len(values), values[0], values[-1]))
    frac = record["failed"] / record["attempted"]
    print("%-36s %14.6g %-5s (%d failed of %d invocations)"
          % ("failed_frac", frac, "ratio", record["failed"], record["attempted"]))
    for failure in record["failures"]:
        print("FAILED: " + failure)
    for defect in record["known_defects"]:
        print("known defect, not counted: " + defect)


def _run_all(args):
    """Each workload of BENCHMARK.json in its own process; one table of every metric."""
    names = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]
    out = Path(args.out) if args.out else ROOT / "bench" / "out" / ("all-seed%d.jsonl" % args.seed)
    out.parent.mkdir(parents=True, exist_ok=True)
    ok = True
    for name in names:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--out", str(out)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            ok = False
            print("%-18s exited with code %d" % (name, proc.returncode))
            continue
        record = json.loads(out.read_text(encoding="utf-8").splitlines()[-1])
        ok = ok and record["correct"]
        for metric, m in {**record["metrics"], **record["unbounded"]}.items():
            print("%-18s %-36s %14.6g %-5s n=%d"
                  % (name, metric, m["value"], m["unit"], len(record["samples"][metric])))
        print("%-18s %-36s %14.6g %-5s %d failed of %d invocations"
              % (name, "failed_frac", record["failed"] / record["attempted"], "ratio",
                 record["failed"], record["attempted"]))
    return 0 if ok else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="append the full result record to this JSON-lines file")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "hmsolve" / "__init__.py").is_file():
        print("error: %s has no src/hmsolve; run from an hmsolve checkout" % ROOT,
              file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = BLAS_THREADS
    sys.path.insert(0, str(ROOT / "src"))

    if args.workload == "all":
        return _run_all(args)

    import harness  # noqa: E402  (numpy must load after the thread pins)

    if args.workload not in harness.workloads.NAMES:
        parser.error("unknown workload %r (choose from %s, all)"
                     % (args.workload, ", ".join(harness.workloads.NAMES)))
    record = harness.measure(args.workload, args.seed, args.seconds, args.trace)
    _report(record)
    if args.out:
        with open(args.out, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(record, sort_keys=True) + "\n")
    print(json.dumps({"correct": record["correct"], "attempted": record["attempted"],
                      "failed": record["failed"], "metrics": record["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
