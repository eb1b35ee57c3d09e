"""One measuring process: set up a workload, then serve it in a closed loop.

Started by ``run.py``; prints ``ready`` once set-up is done (the parent
times set-up up to that line), then one JSON line with the run's figures.

Untraced (``--trace 0``): whole passes of requests while the next pass is
expected to end within ``--seconds``, and until at least ``MIN_SAMPLES``
requests were served, or, with
``--replay N``, exactly the first N requests of the seed's request stream.
The report carries every request latency and the fingerprint of its
request, from which ``run.py`` takes the median serving of each request.

Traced (``--trace 1``): a fixed number of requests, every second one with
span tracing on, so per-layer counts repeat exactly for a seed and the
throughput difference between the two halves is the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
from array import array
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".bench_build" / "jetvar-bench"

# at least this many latency samples per run, so p90 has ten above it
MIN_SAMPLES = 100
# work size and reference results cover the first PREFIX requests of a run
PREFIX = 100
# requests of a traced run, half of them traced; about 10-60 s at this commit
TRACE_REQUESTS = {"gauge_cli": 200, "divergence_random": 8000, "theory_eval": 1200}


def _add_size(total: dict, size: dict):
    total["requests"] = total.get("requests", 0) + 1
    for key, value in size.items():
        total[key] = total.get(key, 0) + value


def quantiles(latencies) -> dict:
    """p50 and p90 in ms and throughput (requests per busy second) of samples."""
    lat = sorted(latencies)
    return {
        "latency_p50_ms": statistics.median(lat) * 1e3,
        "latency_p90_ms": statistics.quantiles(lat, n=10)[8] * 1e3,
        "throughput_rps": len(lat) / sum(lat),
    }


class Loop:
    """Serves requests one at a time and keeps the figures of the run."""

    def __init__(self, workload, tracer=None):
        self.wl = workload
        self.tracer = tracer
        self.latencies = array("d")
        self.failed = 0
        self.worksize = {}
        self.results = []
        self.fingerprints = set()
        self.requests = []
        self.repeats = 0
        self.index = 0
        self.errors = []

    def serve(self, req, record: bool, traced: bool = False):
        wl = self.wl
        tracer = self.tracer if traced else None
        if tracer is not None:
            tracer.request = self.index
        start = perf_counter()
        try:
            result = wl.run(req, self.index, traced)
        except Exception as exc:  # a failed request counts against the error rate
            result = None
            self.errors.append(f"{wl.kind(req)}: {type(exc).__name__}: {exc}")
        elapsed = perf_counter() - start
        if tracer is not None:
            tracer.request = -1
        self.index += 1
        self.latencies.append(elapsed)
        fingerprint = wl.fingerprint(req)
        if fingerprint in self.fingerprints:
            self.repeats += 1
        self.fingerprints.add(fingerprint)
        self.requests.append(fingerprint)
        if result is None or not wl.check(req, result):
            self.failed += 1
            if result is not None:
                self.errors.append(f"{wl.kind(req)}: wrong output")
        if record and result is not None:
            _add_size(self.worksize.setdefault(wl.kind(req), {}), wl.size(req, result))
            if hasattr(wl, "result_text"):
                self.results.append(wl.result_text(req, result))
        return elapsed

    def serve_batch(self, batch, record_until: int) -> list:
        return [self.serve(req, self.index < record_until) for req in batch]


def _peak_rss_mb(workload) -> float:
    who = resource.RUSAGE_CHILDREN if workload.name == "gauge_cli" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def untraced_run(wl, first_batch, seconds, replay, min_samples, prefix) -> dict:
    """Whole passes while the next one fits in ``seconds`` (and at least
    ``min_samples`` requests), or exactly ``replay`` requests."""
    loop = Loop(wl)
    start = perf_counter()
    batch = first_batch
    while True:
        if replay is not None:
            batch = batch[: replay - loop.index]
        pass_start = perf_counter()
        loop.serve_batch(batch, prefix)
        now = perf_counter()
        if replay is not None:
            if loop.index >= replay:
                break
        elif loop.index >= min_samples and now + (now - pass_start) - start > seconds:
            break
        batch = wl.next_pass()
    return {"loop": loop, "latencies": list(loop.latencies), "requests": loop.requests,
            "peak_rss_mb": _peak_rss_mb(wl),
            "repeated_share": loop.repeats / loop.index}


def batches(wl, first_batch, count: int):
    """Whole passes holding at least ``count`` requests."""
    batches = [first_batch]
    total = len(first_batch)
    while total < count:
        batches.append(wl.next_pass())
        total += len(batches[-1])
    return batches


def child_sizes(child) -> dict:
    """Model and master-residual terms seen in one CLI child's spans."""
    sizes = {"model_terms": 0, "residual_terms": 0}
    for i in range(len(child)):
        name = child.names[child.name[i]]
        if name == "parser.parse_model" and not child.nested[i]:
            sizes["model_terms"] += child.n_out[i]
        elif name == "bv.check_master_equation":
            sizes["residual_terms"] += child.n_out[i]
    return sizes


def traced_run(wl, first_batch, requests: int, prefix: int) -> dict:
    """Alternate untraced and traced requests, so both halves meet the same machine."""
    import spans

    tracer = spans.Tracer()
    in_process = wl.name != "gauge_cli"
    patches = None
    if in_process:
        patches = spans.install(tracer)
        patches.off()
        loop = Loop(wl, tracer)
    else:
        loop = Loop(wl)
    agg = spans.Aggregate()
    startup = 0.0
    traced_sizes = {}
    plain, traced = [], []
    for batch in batches(wl, first_batch, requests):
        for req in batch:
            index = loop.index
            trace = index % 2 == 1
            if patches is not None and trace:
                patches.on()
            latency = loop.serve(req, index < prefix, trace)
            if patches is not None and trace:
                patches.off()
            (traced if trace else plain).append(latency)
            if in_process or not trace:
                continue
            child = spans.Tracer.load(wl.span_file(index))
            wl.span_file(index).unlink()
            agg.add(child)
            dispatch = sum(child.end[i] - child.start[i] for i in range(len(child))
                           if child.names[child.name[i]] == "cli.dispatch")
            startup += latency - dispatch
            _add_size(traced_sizes.setdefault(wl.kind(req), {}), child_sizes(child))
    if in_process:
        agg.add(tracer)
        WORKDIR.mkdir(parents=True, exist_ok=True)
        tracer.dump(WORKDIR / f"spans-{wl.name}.bin")
    metrics = spans.per_layer_values(agg, startup, quantiles(plain)["throughput_rps"],
                                     quantiles(traced)["throughput_rps"])
    return {"loop": loop, "metrics": metrics, "traced_sizes": traced_sizes}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--replay", type=int, default=None)
    args = parser.parse_args(argv)

    sys.path[:0] = [str(SRC), str(BENCH)]
    import workloads

    wl = workloads.WORKLOADS[args.workload](args.seed, args.smoke, WORKDIR / args.workload, SRC)
    first_batch = wl.next_pass()
    print("ready", flush=True)
    if args.setup_only:
        return 0

    prefix = len(first_batch) if args.smoke else PREFIX
    if args.trace:
        phase = len(first_batch) if args.smoke else TRACE_REQUESTS[args.workload]
        out = traced_run(wl, first_batch, phase, prefix)
    else:
        min_samples = len(first_batch) if args.smoke else MIN_SAMPLES
        out = untraced_run(wl, first_batch, args.seconds, args.replay, min_samples, prefix)
    loop = out["loop"]
    flags, failures = wl.compare_reference(args.seed, loop.worksize,
                                           out.get("traced_sizes", {}), loop.results)
    loop.failed += len(failures)
    loop.errors = failures + loop.errors
    report = {
        "attempted": loop.index,
        "failed": loop.failed,
        "metrics": out.get("metrics"),
        "latencies": out.get("latencies"),
        "requests": out.get("requests"),
        "peak_rss_mb": out.get("peak_rss_mb"),
        "repeated_share": out.get("repeated_share"),
        "worksize": loop.worksize,
        "traced_sizes": out.get("traced_sizes", {}),
        "worksize_changed": flags,
        "errors": loop.errors[:20],
    }
    print(json.dumps(report), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
