"""Benchmark of seeded `metapsk sweep` runs; see perfbench/README.md.

    python3 perfbench/run.py --workload power_gap --seed 0 --seconds 20 --trace 0

Run from anywhere inside a checkout of the repository: the simulator is
imported from the checkout's `src/`.  The last line of standard output
is one JSON object with `correct`, `attempted`, `failed` and `metrics`;
with `--trace 0` the metrics are the end-to-end ones of BENCHMARK.json,
with `--trace 1` the per-layer ones.  Side files (environment, metrics,
spans, the sweep's own artifacts) go to perfbench/out/<run>/.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

from workloads import BENCH_DIR, INPUT_SETS, WORKLOADS

ROOT = BENCH_DIR.parent
WORKER = BENCH_DIR / "worker.py"
# Whole-run limit, under the 180 s a run may take.
RUN_LIMIT_S = 170.0
# Set-up samples per run: this many fresh probe processes, plus the
# workload process itself.
SETUP_PROBES = {"full": 4, "tiny": 1}
PINNED_THREADS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


class BenchError(RuntimeError):
    pass


def _worker(args: list[str], deadline: float) -> tuple[float, dict]:
    """Run the worker in a fresh process: (monotonic start time, its JSON line)."""
    env = {**os.environ, **PINNED_THREADS}
    started = time.perf_counter()
    try:
        proc = subprocess.run([sys.executable, str(WORKER), *args], env=env, cwd=ROOT,
                              stdout=subprocess.PIPE, text=True,
                              timeout=max(1.0, deadline - started))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker did not finish within the {RUN_LIMIT_S:.0f} s run limit") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker exited with code {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchError("worker printed no result")
    return started, json.loads(lines[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True,
                        help=f"selects input set seed mod {INPUT_SETS}")
    parser.add_argument("--seconds", type=float, required=True, help="measuring time of the run")
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True,
                        help="1: traced run that reports the per-layer metrics")
    parser.add_argument("--tiny", action="store_true",
                        help="tiny sweeps, for the benchmark's own test")
    args = parser.parse_args(argv)
    deadline = time.perf_counter() + RUN_LIMIT_S
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (ROOT / "src" / "metapsk" / "__init__.py").is_file():
        raise BenchError(f"no metapsk source under {ROOT / 'src'}; run inside a checkout")
    with open(ROOT / "BENCHMARK.json") as fh:
        declared = json.load(fh)["per_layer" if args.trace else "end_to_end"]

    size = "tiny" if args.tiny else "full"
    input_set = args.seed % INPUT_SETS
    out = BENCH_DIR / "out" / f"{args.workload}-seed{args.seed}-trace{args.trace}-{size}"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    common = ["--workload", args.workload, "--size", size, "--input-set", str(input_set),
              "--out", str(out)]

    setup_s = []
    if not args.trace:
        for _ in range(SETUP_PROBES[size]):
            started, probe = _worker([*common, "--setup-only"], deadline)
            setup_s.append(probe["setup_end"] - started)
    started, result = _worker([*common, "--seconds", str(args.seconds),
                               "--trace", str(args.trace)], deadline)
    setup_s.append(result["setup_end"] - started)

    measured = dict(result["metrics"], setup_s=statistics.median(setup_s))
    measured["point_pass_ratio"] = 1.0 - measured["point_fail_ratio"]
    missing = [m["name"] for m in declared if m["name"] not in measured]
    if missing:
        raise BenchError(f"declared metrics not measured: {missing}")
    line = {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]} for m in declared},
    }
    with open(out / "environment.json", "w") as fh:
        json.dump({**result["environment"], "workload": args.workload, "seed": args.seed,
                   "input_set": input_set, "size": size},
                  fh, indent=2, sort_keys=True)
        fh.write("\n")
    with open(out / "metrics.json", "w") as fh:
        json.dump({"setup_samples_s": setup_s, "sweep_walls_s": result["sweep_walls_s"],
                   "all_metrics": measured, "result": line},
                  fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    try:
        raise SystemExit(main())
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        raise SystemExit(1)
