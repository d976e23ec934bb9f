"""One workload process: set up, run timed `metapsk sweep`s in-process, check them.

`run.py` starts this script in a fresh process per setup sample and per
workload run, with the BLAS/OpenMP thread counts pinned to 1.  The last
line of its standard output is one JSON object for `run.py`.

Set-up is what a user waits for before the first result: importing
`metapsk`, loading the workload's config file and running the first
trial.  The process prints the monotonic clock at the end of it, and
`run.py` subtracts the time at which it started the process.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

from workloads import BENCH_DIR, REFERENCE_PATH, SIZES, WORKLOADS

SRC_DIR = BENCH_DIR.parent / "src"
THREAD_ENV_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
COUNT_COLUMNS = ("bits", "bit_errors", "frames", "sync_failures")


def import_metapsk():
    """Import `metapsk` from this checkout's `src/`, never from an installed copy."""
    sys.path.insert(0, str(SRC_DIR))
    import metapsk
    import metapsk.cli

    if Path(metapsk.__file__).resolve().parent != SRC_DIR / "metapsk":
        raise ImportError(f"metapsk imported from {metapsk.__file__}, not from {SRC_DIR}")
    return metapsk


def read_counts(csv_text: str) -> list[list]:
    """Per-point `[mode, value, bits, bit_errors, frames, sync_failures]`, columns by name."""
    return [[row["mode"], float(row["value"]), *(int(row[c]) for c in COUNT_COLUMNS)]
            for row in csv.DictReader(io.StringIO(csv_text))]


def _cpu_s() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def run_sweep(main, argv: list[str], tracer=None, rep: int = 0) -> tuple[float, float, bool]:
    """One `metapsk sweep` through ``main``: (wall s, CPU s, exited 0)."""
    out = io.StringIO()  # main prints a JSON summary; keep it off our stdout
    cpu0 = _cpu_s()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out):
            if tracer is None:
                code = main(argv)
            else:
                with tracer.active(rep):
                    code = main(argv)
    except Exception:  # a raising sweep fails all of its points; keep measuring
        traceback.print_exc()
        code = None
    wall = time.perf_counter() - t0
    return wall, _cpu_s() - cpu0, code == 0


def environment(metapsk) -> dict:
    import numpy
    import scipy

    return {
        "host": platform.node(),
        "platform": platform.platform(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "metapsk": metapsk.__version__,
        "thread_env": {k: os.environ.get(k) for k in THREAD_ENV_VARS},
    }


class Checker:
    """Fails a point whose counts differ from the reference or whose row differs from rep 0."""

    def __init__(self, reference: list[list]):
        self.reference = reference
        self.first: tuple[list[str], bytes] | None = None

    def check(self, ok: bool, results: Path, manifest: Path) -> tuple[int, list[list]]:
        """(failed points, per-point counts) of one finished sweep."""
        n = len(self.reference)
        if not (ok and results.is_file() and manifest.is_file()):
            return n, []
        text = results.read_text()
        lines, manifest_bytes = text.splitlines()[1:], manifest.read_bytes()
        try:
            counts = read_counts(text)
        except (KeyError, ValueError):
            return n, []
        if self.first is None:
            self.first = (lines, manifest_bytes)
        first_lines, first_manifest = self.first
        if len(counts) != n or manifest_bytes != first_manifest or len(lines) != len(first_lines):
            return n, counts
        failed = sum(got != want or line != first_line
                     for got, want, line, first_line in zip(counts, self.reference, lines, first_lines))
        return failed, counts


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--size", choices=SIZES, required=True)
    parser.add_argument("--input-set", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]

    metapsk = import_metapsk()
    from metapsk import cli, config, harness
    from metapsk.baseband import TxMode

    cfg = config.load_config(workload.config_path)
    var = harness.SweepVar(workload.var)
    values = workload.values or harness.default_values(var, cfg)
    harness.run_point(TxMode(workload.modes[0]), var, values[0], cfg, args.input_set, trials=1)
    setup_end = time.perf_counter()
    if args.setup_only:
        print(json.dumps({"setup_end": setup_end}))
        return 0

    sweep_dir = args.out / "sweep"
    results, manifest = sweep_dir / "results.csv", sweep_dir / "manifest.json"
    sweep_argv = workload.sweep_argv(args.size, args.input_set, sweep_dir)
    with open(REFERENCE_PATH) as fh:
        reference = json.load(fh)[workload.name][args.size][args.input_set]
    checker = Checker(reference)
    tracer = None
    if args.trace:
        from spans import Tracer
        tracer = Tracer(workload.name)

    # Repeat whole sweeps until the time is up.  With tracing, odd
    # repetitions are traced and even ones are not, so both see the same
    # machine state and their ratio is the tracing overhead.
    reps = {False: [], True: []}  # traced -> [(wall, cpu, trials)]
    traced_counts = {}  # rep -> per-point counts of a traced sweep
    attempted = failed = 0
    deadline = time.perf_counter() + args.seconds
    rep = 0
    while rep < 1 + args.trace or time.perf_counter() < deadline:
        traced = bool(args.trace) and rep % 2 == 1
        results.unlink(missing_ok=True)
        manifest.unlink(missing_ok=True)
        wall, cpu, ok = run_sweep(cli.main, sweep_argv, tracer if traced else None, rep)
        bad, counts = checker.check(ok, results, manifest)
        attempted += len(reference)
        failed += bad
        reps[traced].append((wall, cpu, sum(c[4] + c[5] for c in counts)))
        if traced and counts:
            traced_counts[rep] = counts
        rep += 1

    plain = reps[False]
    sweep_s = statistics.median(w for w, _, _ in plain)
    metrics = {
        "sweep_s": sweep_s,
        "trials_per_s": statistics.median(t / w for w, _, t in plain),
        "sweep_cpu_s": statistics.median(c for _, c, _ in plain),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "point_fail_ratio": failed / attempted,
    }
    if tracer is not None:
        metrics.update(tracer.layer_metrics(traced_counts, workload.trials[args.size]))
        metrics["trace.overhead"] = statistics.median(w for w, _, _ in reps[True]) / sweep_s - 1.0
        tracer.write(args.out / "trace.json", args.input_set)

    print(json.dumps({
        "setup_end": setup_end,
        "sweep_walls_s": {"untraced": [w for w, _, _ in plain],
                          "traced": [w for w, _, _ in reps[True]]},
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "environment": environment(metapsk),
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
