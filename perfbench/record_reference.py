"""Record reference.json: per-point counts of every workload, size and input set.

    python3 perfbench/record_reference.py

Runs each sweep once, untraced, through the same path the benchmark
times.  Re-record only when a change is meant to alter the counts; the
benchmark fails every point whose counts differ from this file.
"""

from __future__ import annotations

import json

from worker import import_metapsk, read_counts, run_sweep
from workloads import BENCH_DIR, INPUT_SETS, REFERENCE_PATH, SIZES, WORKLOADS


def main() -> int:
    import_metapsk()
    from metapsk import cli

    out = BENCH_DIR / "out" / "record"
    reference = {}
    for workload in WORKLOADS.values():
        reference[workload.name] = {}
        for size in SIZES:
            sets = []
            for input_set in range(INPUT_SETS):
                _, _, ok = run_sweep(cli.main, workload.sweep_argv(size, input_set, out))
                if not ok:
                    raise SystemExit(f"{workload.name}/{size}/{input_set}: sweep failed")
                sets.append(read_counts((out / "results.csv").read_text()))
            reference[workload.name][size] = sets
            print(f"{workload.name} {size}: {sum(len(s) for s in sets)} points recorded")
    with open(REFERENCE_PATH, "w") as fh:
        json.dump(reference, fh, separators=(",", ":"))
        fh.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
