"""Compare two benchmark result sets: ``python3 bench/run.py --compare A B``.

A result set is a file holding the output of any number of runs (their
``{"bench": ...}`` and result lines, as ``run.py`` prints them).  For each
workload the comparison prints, per end-to-end metric, both sides' median
and quartiles and the change of the median relative to A; per layer, the
medians of the traced runs and their change; and any work size that differs
between the two sides for the same seed, since a smaller workload or a new
normal form must not pass as a speed-up.
"""

from __future__ import annotations

import json
import statistics
import sys

from run import END_TO_END
from spans import PER_LAYER

BETTER = {name: better for name, _, better in END_TO_END + PER_LAYER}


def load(path: str) -> list:
    """(context, result) pairs of every run in a result-set file."""
    runs = []
    context = None
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line.startswith("{"):
                continue
            record = json.loads(line)
            if "bench" in record:
                context = record["bench"]
            elif "metrics" in record and context is not None:
                runs.append((context, record))
                context = None
    return runs


def _group(runs) -> dict:
    groups = {}
    for context, result in runs:
        groups.setdefault((context["workload"], context["trace"]), []).append((context, result))
    return groups


def _summary(values) -> tuple:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def _change(a: float, b: float, better: str) -> str:
    if a == 0:
        return "n/a" if b == 0 else "new"
    rel = b / a - 1
    tag = ""
    if rel:
        tag = " better" if (rel < 0) == (better == "lower") else " worse"
    return f"{rel:+.1%}{tag}"


def _metric_rows(side_a, side_b, names) -> list:
    rows = []
    for name in names:
        a = [r["metrics"][name]["value"] for _, r in side_a if name in r["metrics"]]
        b = [r["metrics"][name]["value"] for _, r in side_b if name in r["metrics"]]
        if not a or not b:
            continue
        unit = side_a[0][1]["metrics"][name]["unit"]
        qa, qb = _summary(a), _summary(b)
        rows.append((name, unit, qa, qb, _change(qa[1], qb[1], BETTER.get(name, "lower"))))
    return rows


def _print_rows(rows, quartiles: bool):
    for name, unit, qa, qb, change in rows:
        if quartiles:
            print(f"  {name:<42} {unit:<6} A {qa[1]:.6g} [{qa[0]:.6g}, {qa[2]:.6g}]"
                  f"  B {qb[1]:.6g} [{qb[0]:.6g}, {qb[2]:.6g}]  {change}")
        else:
            print(f"  {name:<42} {unit:<6} A {qa[1]:.6g}  B {qb[1]:.6g}  {change}")


def _worksize_changes(side_a, side_b) -> list:
    by_seed = {c["seed"]: c["worksize"] for c, _ in side_a}
    changes = []
    for context, _ in side_b:
        before = by_seed.get(context["seed"])
        if before is not None and before != context["worksize"]:
            kinds = sorted(k for k in set(before) | set(context["worksize"])
                           if before.get(k) != context["worksize"].get(k))
            changes.append(f"seed {context['seed']}: {', '.join(kinds)}")
    return changes


def main(path_a: str, path_b: str) -> int:
    groups_a = _group(load(path_a))
    groups_b = _group(load(path_b))
    workloads = sorted({w for w, _ in groups_a} | {w for w, _ in groups_b})
    if not workloads:
        print("no runs found in either result set", file=sys.stderr)
        return 1
    for workload in workloads:
        print(f"{workload}")
        for trace in (0, 1):
            side_a = groups_a.get((workload, trace), [])
            side_b = groups_b.get((workload, trace), [])
            if not side_a or not side_b:
                if side_a or side_b:
                    print(f"  ({'traced' if trace else 'untraced'} runs on one side only)")
                continue
            for label, side in (("A", side_a), ("B", side_b)):
                attempted = sum(r["attempted"] for _, r in side)
                failed = sum(r["failed"] for _, r in side)
                print(f"  {label}: {len(side)} {'traced' if trace else 'untraced'} runs, "
                      f"{failed}/{attempted} requests failed")
            if trace:
                names = [name for name, _, _ in PER_LAYER]
                _print_rows(_metric_rows(side_a, side_b, names), quartiles=False)
            else:
                names = [name for name, _, _ in END_TO_END]
                _print_rows(_metric_rows(side_a, side_b, names), quartiles=True)
                for change in _worksize_changes(side_a, side_b):
                    print(f"  work size differs: {change}")
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:3]))
