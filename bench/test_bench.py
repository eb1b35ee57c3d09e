"""Self-test of the benchmark at smoke size.

Runs every workload once untraced and once traced with ``--smoke`` and
checks the result contract: the last line's keys, zero failures, every
metric of ``BENCHMARK.json`` emitted with its unit, and nonzero per-layer
figures for the layers each workload reaches.  Also checks that one seed
gives byte-identical inputs twice and that the comparison mode reads the
runs back.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

# layers each workload calls into, and a traced function of each it must reach
REACHED = {
    "gauge_cli": {
        "cli": "cli.dispatch.calls",
        "parser": "parser.parse_model.calls",
        "printer": "printer.format_expression.calls",
        "bv": "bv.antibracket_density.calls",
        "theory": "theory.euler_lagrange_system.calls",
        "jetcalc": "jetcalc.variational_derivative.calls",
        "core": "core.add.calls",
    },
    "divergence_random": {
        "jetcalc": "jetcalc.total_derivative.calls",
        "core": "core.partial_derivative.calls",
    },
    "theory_eval": {
        "theory": "theory.on_shell_reduce.calls",
        "jetcalc": "jetcalc.apply_multi_derivative.s",
        "core": "core.substitute.calls",
    },
}


def _bench_json():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)


@pytest.fixture(scope="module")
def smoke_runs():
    outputs = {}
    for workload in run.WORKLOADS:
        for trace in (0, 1):
            proc = _run("--workload", workload, "--seed", "1", "--seconds", "0.2",
                        "--trace", str(trace), "--smoke")
            assert proc.returncode == 0, proc.stderr
            outputs[workload, trace] = proc.stdout
    return outputs


def test_tables_match_benchmark_json():
    spec = _bench_json()
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == \
        list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == \
        list(spans.PER_LAYER)
    assert list(run.WORKLOADS) == list(workloads.WORKLOADS)
    assert {w["name"] for w in spec["workloads"]} <= set(run.WORKLOADS)


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_smoke_result_contract(smoke_runs, workload):
    spec = _bench_json()
    for trace, table in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
        result = json.loads(smoke_runs[workload, trace].strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True and result["failed"] == 0
        assert result["attempted"] >= 1
        assert {name: m["unit"] for name, m in result["metrics"].items()} == \
            {m["name"]: m["unit"] for m in table}
        values = {name: m["value"] for name, m in result["metrics"].items()}
        if trace == 0:
            assert all(v > 0 for v in values.values())
        else:
            for layer, metric in REACHED[workload].items():
                assert values.get(f"{layer}.self_s", 1) > 0, layer
                assert values[metric] > 0, metric
            assert values["trace.spans"] > 0
            assert values["trace.untraced_throughput_rps"] > 0


def test_compare_reads_runs(smoke_runs, tmp_path):
    side = tmp_path / "runs.jsonl"
    side.write_text("".join(smoke_runs.values()))
    proc = _run("--compare", str(side), str(side))
    assert proc.returncode == 0, proc.stderr
    for workload in run.WORKLOADS:
        assert workload in proc.stdout
    rows = [line.split()[0] for line in proc.stdout.splitlines() if line.startswith("  ")]
    for name, _, _ in run.END_TO_END + spans.PER_LAYER:
        assert rows.count(name) == len(run.WORKLOADS), name


def _inputs_text(name, seed, passes):
    wl = workloads.WORKLOADS[name](seed, False, ROOT / ".bench_build" / "selftest", ROOT / "src")
    text = []
    for _ in range(passes):
        for req in wl.next_pass():
            text.append(wl.describe(req))
    return "\n".join(text).encode()


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_one_seed_gives_identical_inputs(name):
    first = _inputs_text(name, 7, 3)
    assert first == _inputs_text(name, 7, 3)
    assert first != _inputs_text(name, 8, 3)


def test_fails_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _run("--workload", "divergence_random", "--seed", "0", "--seconds", "1",
                "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
