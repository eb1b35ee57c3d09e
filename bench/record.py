"""Record the benchmark's reference files under ``bench/reference/``.

    python3 bench/record.py

gauge_cli: exit code, stdout digest and work sizes of every request, run
once untraced and once through the traced shim.  divergence_random and
theory_eval: the work size of the first ``worker.PREFIX`` requests for seeds
``0..SEEDS-1``, and for theory_eval the exact results at the default seed.
Re-record only when a change is meant to alter outputs or work sizes, and say
so in that change.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import spans  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

SEEDS = 32
DEFAULT_SEED = 0


def _write(name: str, data: dict):
    path = workloads.REFERENCE_DIR / f"{name}.json"
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {path}")


def record_gauge():
    path = workloads.REFERENCE_DIR / "gauge_cli.json"
    if not path.exists():
        path.parent.mkdir(exist_ok=True)
        path.write_text("{}\n")
    wl = workloads.GaugeCli(DEFAULT_SEED, False, worker.WORKDIR / "gauge_cli", worker.SRC)
    table = {}
    for index, key in enumerate(wl.keys):
        code, stdout = wl.run(key, index, False)
        entry = {"exit": code, "sha256": hashlib.sha256(stdout).hexdigest()}
        entry.update(wl.size(key, (code, stdout)))
        table[key] = entry
    for index, key in enumerate(wl.keys):
        code, stdout = wl.run(key, index, True)
        if hashlib.sha256(stdout).hexdigest() != table[key]["sha256"]:
            raise SystemExit(f"{key}: traced output differs from the plain CLI")
        child = spans.Tracer.load(wl.span_file(index))
        wl.span_file(index).unlink()
        table[key].update(worker.child_sizes(child))
    _write("gauge_cli", table)


def record_in_process(name: str, keep_values: bool):
    sizes = {}
    values = None
    for seed in range(SEEDS):
        wl = workloads.WORKLOADS[name](seed, False, worker.WORKDIR / name, worker.SRC)
        loop = worker.Loop(wl)
        for batch in worker.batches(wl, wl.next_pass(), worker.PREFIX):
            loop.serve_batch(batch, worker.PREFIX)
        if loop.failed:
            raise SystemExit(f"{name} seed {seed}: {loop.errors}")
        sizes[str(seed)] = loop.worksize
        if seed == DEFAULT_SEED and keep_values:
            values = loop.results
    data = {"default_seed": DEFAULT_SEED, "worksize": sizes}
    if values is not None:
        data["values"] = values
    _write(name, data)


def main():
    record_gauge()
    record_in_process("divergence_random", keep_values=False)
    record_in_process("theory_eval", keep_values=True)


if __name__ == "__main__":
    main()
