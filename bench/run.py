"""jetvar benchmark: one run of one workload, or a comparison of two result sets.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --compare A.jsonl B.jsonl

An untraced run serves the workload in one worker process for
``--seconds / k``, then replays exactly the same requests in k - 1 further
fresh workers (``WORKERS``).  A request's latency is the median of all its
servings in the run: a shared machine changes speed from moment to moment,
and every serving runs in a fresh process, so no cache can carry from one
serving to the next.  ``gauge_cli`` starts a fresh CLI process for every
request, so its one worker serves the same request keys pass after pass
and each pass is a serving of its own.  Set-up is timed in
``SETUP_REPEATS`` fresh interpreters (these workers included) and reported
as the median.  A traced run (``--trace 1``) uses one worker; see
``worker.py``.

Each run prints a ``{"bench": ...}`` line with its context and work size,
then, as the last line, ``{"correct", "attempted", "failed", "metrics"}``.
Append the output of several runs to a file to make a result set for
``--compare``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from worker import quantiles

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("gauge_cli", "divergence_random", "theory_eval")
SETUP_REPEATS = 7
# workers serving the same requests in an untraced run; a request's latency
# is the median of its servings.  gauge_cli repeats its request keys in
# every pass of its one worker, each time in a fresh CLI process.
WORKERS = {"gauge_cli": 1, "divergence_random": 5, "theory_eval": 5}
# a whole run, all its workers together, ends within this many seconds
RUN_LIMIT_S = 170

# (metric, unit, better) of every untraced run
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("latency_p50_ms", "ms", "lower"),
    ("latency_p90_ms", "ms", "lower"),
    ("throughput_rps", "1/s", "higher"),
    ("peak_rss_mb", "MB", "lower"),
)


class BenchError(Exception):
    pass


def _worker(args, *extra):
    """Start one worker; returns (seconds until it was ready, its report or None)."""
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--trace", str(args.trace), *extra]
    if args.smoke:
        cmd.append("--smoke")
    start = perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        first = proc.stdout.readline()
        ready = perf_counter() - start
        out, _ = proc.communicate(timeout=max(1.0, args.deadline - perf_counter()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"run exceeded {RUN_LIMIT_S} s") from None
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if first.strip() != "ready" or proc.returncode != 0:
        raise BenchError(f"worker failed (exit {proc.returncode})")
    lines = out.strip().splitlines()
    return ready, json.loads(lines[-1]) if lines else None


def untraced(args):
    """``WORKERS`` workers serving the same requests, then the other set-up samples."""
    k = WORKERS[args.workload]
    ready, first = _worker(args, "--seconds", str(args.seconds / k))
    setup, reports = [ready], [first]
    for _ in range(k - 1):
        ready, report = _worker(args, "--replay", str(first["attempted"]))
        setup.append(ready)
        reports.append(report)
    setup += [_worker(args, "--setup-only")[0] for _ in range(SETUP_REPEATS - k)]
    servings = {}
    for report in reports:
        for request, latency in zip(report["requests"], report["latencies"]):
            servings.setdefault(request, []).append(latency)
    typical = {request: statistics.median(times) for request, times in servings.items()}
    values = dict(quantiles([typical[request] for request in first["requests"]]), setup_s=statistics.median(setup),
                  peak_rss_mb=max(r["peak_rss_mb"] for r in reports))
    metrics = {name: {"value": values[name], "unit": unit} for name, unit, _ in END_TO_END}
    figures = {"setup_samples_s": setup, "distinct_requests": len(servings),
               "per_worker": [quantiles(r["latencies"]) for r in reports],
               "repeated_share": first["repeated_share"]}
    errors = [e for r in reports for e in r["errors"]]
    return first, metrics, figures, sum(r["failed"] for r in reports), errors, \
        sum(r["attempted"] for r in reports)


def run(args) -> int:
    if not (ROOT / "src" / "jetvar" / "__init__.py").is_file():
        print("bench: no jetvar sources under src/ next to the benchmark", file=sys.stderr)
        return 2
    if args.trace:
        _, report = _worker(args, "--seconds", str(args.seconds))
        metrics, figures = report["metrics"], {}
        failed, errors, attempted = report["failed"], report["errors"], report["attempted"]
    else:
        report, metrics, figures, failed, errors, attempted = untraced(args)
    context = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "python": sys.version.split()[0],
        "figures": figures,
        "worksize": report["worksize"],
        "traced_sizes": report["traced_sizes"],
        "worksize_changed": report["worksize_changed"],
        "errors": errors,
    }
    for flag in report["worksize_changed"]:
        print(f"bench: work size changed: {flag}", file=sys.stderr)
    for error in errors:
        print(f"bench: failed request: {error}", file=sys.stderr)
    print(json.dumps({"bench": context}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="smallest inputs and one pass, for the self-test")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"),
                        help="compare two result sets (files of run output)")
    args = parser.parse_args(argv)
    if args.compare:
        import compare

        return compare.main(*args.compare)
    if args.workload is None:
        parser.error("--workload is required")
    args.deadline = perf_counter() + RUN_LIMIT_S
    try:
        return run(args)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
