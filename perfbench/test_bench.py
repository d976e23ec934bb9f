"""The benchmark's own test: every workload at a tiny size, untraced and traced.

    python3 -m pytest perfbench/test_bench.py -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
PINNED = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

# Layers that do work in each workload.  anchor_os1 runs only the
# conventional transmitter, so `cell` and `surface` are absent there.
SWEEP_LAYERS = {"cli", "config", "harness", "baseband", "channel", "receiver"}
WORKING_LAYERS = {
    "power_gap": SWEEP_LAYERS | {"cell", "surface"},
    "tail_os32": SWEEP_LAYERS | {"cell", "surface"},
    "anchor_os1": SWEEP_LAYERS,
}


def run_bench(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "0",
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def result_line(workload: str, trace: int) -> dict:
    proc = run_bench(workload, trace)
    assert proc.returncode == 0, proc.stderr
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True
    assert line["failed"] == 0 and line["attempted"] >= 1
    return line


def run_dir(workload: str, trace: int) -> Path:
    return BENCH_DIR / "out" / f"{workload}-seed0-trace{trace}-tiny"


def test_workloads_match_the_benchmark_file():
    assert WORKLOADS == list(WORKING_LAYERS)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_prints_every_end_to_end_metric(workload):
    metrics = result_line(workload, 0)["metrics"]
    assert {k: v["unit"] for k, v in metrics.items()} == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(v["value"] > 0 for v in metrics.values())
    assert metrics["point_pass_ratio"]["value"] == 1.0
    env = json.loads((run_dir(workload, 0) / "environment.json").read_text())
    assert env["thread_env"] == PINNED
    assert env["nproc"] >= 1 and env["numpy"] and env["scipy"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_covers_the_working_layers(workload):
    metrics = result_line(workload, 1)["metrics"]
    assert {k: v["unit"] for k, v in metrics.items()} == {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert metrics["point_fail_ratio"]["value"] == 0.0
    assert 0.5 < metrics["trace.coverage"]["value"] <= 1.0

    trace = json.loads((run_dir(workload, 1) / "trace.json").read_text())
    columns = trace["columns"]
    spans = [dict(zip(columns, row)) for row in trace["spans"]]
    assert {s["name"].split(".")[0] for s in spans} == WORKING_LAYERS[workload]
    assert all(s["workload"] == workload and s["rep"] % 2 == 1 for s in spans)
    by_id = {s["id"]: s for s in spans}
    syncs = [s for s in spans if s["name"] == "receiver.synchronize"]
    assert syncs and all(by_id[s["parent"]]["name"] == "receiver.receive_frame" for s in syncs)
    for s in spans:
        if s["parent"] >= 0:
            parent = by_id[s["parent"]]
            assert parent["start_s"] <= s["start_s"] <= s["end_s"] <= parent["end_s"]


def test_fails_without_the_simulator_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__", ".pytest_cache"))
    proc = run_bench("power_gap", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
