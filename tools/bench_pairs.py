"""Alternating parent/change pairs of perfbench runs, summarized into a BENCH_<pr>.json.

    python3 tools/bench_pairs.py --parent <rev> --pr 16 --pairs 10 --seed-base 3000 \\
        --claim anchor_os1 trials_per_s 1.3 --change-note "..."

Each side runs from its own copy in a temporary directory: a git revision
is exported with `git archive`, and `--change .` (the default) copies
the working tree's tracked and untracked, not ignored, files.  Pair i
uses seed base+i; even pairs run the parent first, odd pairs the change.
Every run is `python3 perfbench/run.py --workload <w> --seed <s>
--seconds <S> --trace 0`.  Quartiles are
`statistics.quantiles(method="inclusive")`.  A `--claim` ratio is read in
the metric's `better` direction: `--claim anchor_os1 sweep_s 0.8` claims
a `sweep_s` median at most 0.8 times the parent's.

Before a workload's pairs, the byte gate: per side, one fresh process
runs every input set once, untimed, and records the sha256 of its
`results.csv` and `manifest.json`; a side whose run fails stops the tool
there, with the run's own stderr.  Each workload's entry gets `bytes`:
the number of sets compared and the sets whose files differ between the
sides.  Every difference is named on stderr, and the tool then exits 1.

Each workload's entry also gets `sweep_walls`: per side, the count, p50
and p90 of the per-sweep wall times (perfbench's untraced
`sweep_walls_s`) pooled over all that side's runs, so the tail of a
sweep shows next to the medians.

Each run also records `steal_share`: the share of the machine's CPU ticks
that the hypervisor took (`/proc/stat`'s `steal` over all ticks), read
before and after the run; nothing is recorded where `/proc/stat` cannot
be read.  Each workload's entry gets each side's median share
(`steal_share`), so a slow series can be told apart from a busy host.

After a workload's pairs, `SETUP_PROBES` fresh `perfbench/worker.py
--setup-only` processes per side, alternating sides, each timed as
`perfbench/run.py` times one: from just before the process starts to the
`setup_end` it prints.  Probe k of each side uses input set k.  The
workload's entry gets `setup_probes`: each side's count, quartiles and
samples, the median ratio and the probes the change won (was faster
in).  A run's own `setup_s` is the median of five samples from that
run alone, so the two sides' `setup_s` are taken at different times.

After the pairs, one untimed sweep per workload and side, in a fresh
process, reads `ru_maxrss` of `RUSAGE_SELF` and of `RUSAGE_CHILDREN`:
perfbench's `peak_rss_mb` does not see a sweep's child processes.

With `--merge-into FILE` the series is appended to FILE's `other_runs`
under `--note` instead of written as a new file.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shlex
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
THREADS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
RUN = "python3 perfbench/run.py --workload <w> --seed <s> --seconds {seconds} --trace 0"
PROTOCOL = ("pairs per workload, parent and change run from separate checkouts; even pairs run "
            "the parent first, odd pairs the change first; pair i uses seed base+i; quartiles by "
            "statistics.quantiles(method='inclusive')")
SETUP_PROBES = 20  # set-up probes per side and workload

# One sweep of a workload's full size in this process, then the peak RSS
# of this process and of its reaped children, in MB.
CHILD_RSS = """
import json, resource, sys
sys.path[:0] = ["perfbench", "src"]
from workloads import WORKLOADS
from metapsk.cli import main
import contextlib, io, tempfile
with tempfile.TemporaryDirectory() as out, contextlib.redirect_stdout(io.StringIO()):
    assert main(WORKLOADS[sys.argv[1]].sweep_argv("full", 0, out)) == 0
print(json.dumps({who: resource.getrusage(getattr(resource, who)).ru_maxrss / 1024.0
                  for who in ("RUSAGE_SELF", "RUSAGE_CHILDREN")}))
"""

# Every input set of a workload at full size, one after another in this
# process: the sha256 of each set's artifacts, in input-set order.
DIGESTS = """
import contextlib, hashlib, io, json, sys, tempfile
from pathlib import Path
sys.path[:0] = ["perfbench", "src"]
from workloads import INPUT_SETS, WORKLOADS
from metapsk.cli import main
digests = []
for input_set in range(INPUT_SETS):
    with tempfile.TemporaryDirectory() as out, contextlib.redirect_stdout(io.StringIO()):
        assert main(WORKLOADS[sys.argv[1]].sweep_argv("full", input_set, out)) == 0
        digests.append({name: hashlib.sha256((Path(out) / name).read_bytes()).hexdigest()
                        for name in ("results.csv", "manifest.json")})
print(json.dumps(digests))
"""


def checkout(rev: str, into: Path) -> Path:
    into.mkdir()
    if rev == ".":
        files = subprocess.run(["git", "ls-files", "-co", "--exclude-standard", "-z"], cwd=ROOT,
                               check=True, capture_output=True).stdout.split(b"\0")
        for name in filter(None, files):
            src, dst = ROOT / os.fsdecode(name), into / os.fsdecode(name)
            if src.is_file():
                dst.parent.mkdir(parents=True, exist_ok=True)
                dst.write_bytes(src.read_bytes())
    else:
        archive = subprocess.run(["git", "archive", rev], cwd=ROOT, check=True,
                                 capture_output=True).stdout
        subprocess.run(["tar", "-x", "-C", str(into)], input=archive, check=True)
    return into


def cpu_ticks(stat: str) -> tuple[int, int]:
    """(steal, total) ticks of the aggregate `cpu` line of a `/proc/stat` text.

    The total is the first eight fields, user through steal: the guest
    fields that follow are already counted in user and nice.
    """
    for line in stat.splitlines():
        fields = line.split()
        if fields[:1] == ["cpu"] and len(fields) >= 9:
            ticks = [int(f) for f in fields[1:9]]
            return ticks[7], sum(ticks)
    raise ValueError("no aggregate cpu line with a steal field")


def read_ticks() -> tuple[int, int] | None:
    """This machine's (steal, total) ticks so far, or None where they cannot be read."""
    try:
        with open("/proc/stat") as fh:
            return cpu_ticks(fh.read())
    except (OSError, ValueError):
        return None


def steal_share(before, after) -> float | None:
    """Stolen ticks over all ticks between two readings; None without both or with no ticks."""
    if before is None or after is None or after[1] <= before[1]:
        return None
    return (after[0] - before[0]) / (after[1] - before[1])


def run(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    before = read_ticks()
    proc = subprocess.run(argv, cwd=tree, capture_output=True, text=True)
    share = steal_share(before, read_ticks())
    steal = {} if share is None else {"steal_share": share}
    if proc.returncode != 0:
        return {"correct": False, "error": proc.stderr.strip().splitlines()[-1:], **steal}
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    side_files = tree / "perfbench" / "out" / f"{workload}-seed{seed}-trace0-full"
    walls = json.loads((side_files / "metrics.json").read_text())["sweep_walls_s"]["untraced"]
    return {"correct": result["correct"],
            **{name: m["value"] for name, m in result["metrics"].items()},
            "sweep_walls_s": walls, **steal}


def median_steal(pairs: list[dict]) -> dict:
    """Each side's median steal share over the runs that recorded one, or None."""
    medians = {}
    for side in ("parent", "change"):
        shares = [p[side]["steal_share"] for p in pairs if "steal_share" in p[side]]
        medians[side] = statistics.median(shares) if shares else None
    return medians


def children_rss(tree: Path, workload: str) -> dict:
    out = subprocess.run([sys.executable, "-c", CHILD_RSS, workload], cwd=tree, check=True,
                         capture_output=True, text=True, env={**os.environ, **THREADS}).stdout
    rss = json.loads(out)
    return {"self_maxrss_mb": rss["RUSAGE_SELF"], "children_maxrss_mb": rss["RUSAGE_CHILDREN"]}


def setup_probe(tree: Path, workload: str, input_set: int) -> float:
    """Seconds from the start of a fresh set-up-only worker to the end of its set-up."""
    argv = [sys.executable, "perfbench/worker.py", "--workload", workload, "--size", "full",
            "--input-set", str(input_set), "--out", str(tree / "perfbench" / "out"), "--setup-only"]
    started = time.perf_counter()
    out = subprocess.run(argv, cwd=tree, check=True, stdout=subprocess.PIPE, text=True,
                         env={**os.environ, **THREADS}).stdout
    return json.loads(out.strip().splitlines()[-1])["setup_end"] - started


def setup_probes(trees: dict, workload: str) -> dict:
    """``SETUP_PROBES`` probes per side, alternating which side goes first."""
    probes = {"parent": [], "change": []}
    for k in range(SETUP_PROBES):
        for side in ("parent", "change") if k % 2 == 0 else ("change", "parent"):
            probes[side].append(setup_probe(trees[side], workload, k))
    return probe_summary(probes["parent"], probes["change"])


def probe_summary(parent: list[float], change: list[float]) -> dict:
    """Each side's count, quartiles and samples; the median ratio; the probes the change won."""
    sides = {side: {"count": len(values), **quartiles(values), "samples_s": values}
             for side, values in (("parent", parent), ("change", change))}
    return {**sides, "median_ratio": sides["change"]["median"] / sides["parent"]["median"],
            "change_wins": sum(b < a for a, b in zip(parent, change))}


def byte_gate(trees: dict, workload: str) -> dict:
    """The input sets whose artifacts differ between parent and change."""
    parent, change = (
        json.loads(subprocess.run([sys.executable, "-c", DIGESTS, workload], cwd=trees[side],
                                  check=True, stdout=subprocess.PIPE, text=True,
                                  env={**os.environ, **THREADS}).stdout)
        for side in ("parent", "change"))
    differ = [i for i, (a, b) in enumerate(zip(parent, change)) if a != b]
    for i in differ:
        names = [name for name in parent[i] if parent[i][name] != change[i][name]]
        print(f"{workload} input set {i}: {' and '.join(names)} differ", file=sys.stderr)
    return {"input_sets": len(parent), "differ": differ}


def quartiles(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": q1, "median": median, "q3": q3}


def wall_tails(pairs: list[dict]) -> dict:
    """Count, p50 and p90 of each side's sweep walls, pooled over its runs."""
    tails = {}
    for side in ("parent", "change"):
        walls = [w for p in pairs for w in p[side].get("sweep_walls_s", [])]
        tails[side] = {"count": len(walls), "p50": None, "p90": None}
        if len(walls) >= 2:  # a failed run records none
            deciles = statistics.quantiles(walls, n=10, method="inclusive")
            tails[side].update(p50=deciles[4], p90=deciles[8])
    return tails


def summarize(pairs: list[dict], declared: list[dict]) -> dict:
    summary = {}
    for metric in declared:
        name, higher = metric["name"], metric["better"] == "higher"
        got = [(p["parent"].get(name), p["change"].get(name)) for p in pairs]
        got = [(a, b) for a, b in got if a is not None and b is not None]
        if not got:
            continue
        parent, change = quartiles([a for a, _ in got]), quartiles([b for _, b in got])
        summary[name] = {
            "better": metric["better"],
            "parent": parent,
            "change": change,
            "median_ratio": change["median"] / parent["median"] if parent["median"] else None,
            "change_wins": sum((b > a) if higher else (b < a) for a, b in got),
            "pairs": len(got),
            "median_gap_exceeds_parent_iqr":
                abs(change["median"] - parent["median"]) > parent["q3"] - parent["q1"],
        }
    return summary


def claim_met(s: dict, target: float) -> bool:
    """Whether a metric's summary meets a claimed change/parent median ratio.

    The ratio is met in the metric's ``better`` direction: at least
    ``target`` for a higher-is-better metric, at most ``target`` for a
    lower-is-better one.  The change must also win at least 9 in 10
    pairs, and its median must differ from the parent's by more than the
    parent's interquartile range.
    """
    ratio = s["median_ratio"]
    reached = ratio is not None and (ratio >= target if s["better"] == "higher" else ratio <= target)
    return reached and s["change_wins"] >= 0.9 * s["pairs"] and s["median_gap_exceeds_parent_iqr"]


def environment() -> dict:
    """The machine and library versions; scipy's only where it is installed."""
    import numpy

    cpu = next((line.split(":", 1)[1].strip() for line in open("/proc/cpuinfo")
                if line.startswith("model name")), platform.processor())
    env = {"host": platform.node(), "nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
           "platform": platform.platform(), "python": platform.python_version(),
           "numpy": numpy.__version__, "thread_env": THREADS}
    try:
        import scipy
    except ImportError:  # metapsk itself needs only numpy
        return env
    return {**env, "scipy": scipy.__version__}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="git revision of the parent")
    parser.add_argument("--change", default=".", help="git revision, or . for the working tree")
    parser.add_argument("--pr", type=int, required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed-base", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=8.0)
    parser.add_argument("--workloads", nargs="+")
    parser.add_argument("--claim", nargs=3, metavar=("WORKLOAD", "METRIC", "RATIO"))
    parser.add_argument("--change-note", default="")
    parser.add_argument("--merge-into", type=Path)
    parser.add_argument("--note", default="")
    parser.add_argument("--out", type=Path, help="default: BENCH_<pr>.json at the repository root")
    args = parser.parse_args(argv)

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = args.workloads or [w["name"] for w in declared["workloads"]]
    parent_commit = subprocess.run(["git", "rev-parse", args.parent], cwd=ROOT, check=True,
                                   capture_output=True, text=True).stdout.strip()
    env = environment()  # before the pairs, so a failure here loses none of them
    results = {}
    with tempfile.TemporaryDirectory() as tmp:
        trees = {"parent": checkout(args.parent, Path(tmp) / "parent"),
                 "change": checkout(args.change, Path(tmp) / "change")}
        for workload in workloads:
            gate = byte_gate(trees, workload)  # before the pairs, so a broken tree costs none
            pairs = []
            for i in range(args.pairs):
                seed = args.seed_base + i
                order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
                pair = {"seed": seed, "first": order[0]}
                for side in order:
                    pair[side] = run(trees[side], workload, seed, args.seconds)
                    print(workload, seed, side, json.dumps(pair[side]), file=sys.stderr)
                pairs.append(pair)
            results[workload] = {
                "all_runs_correct": all(p[s]["correct"] for p in pairs for s in ("parent", "change")),
                "summary": summarize(pairs, declared["end_to_end"]),
                "sweep_walls": wall_tails(pairs),
                "steal_share": median_steal(pairs),
                "setup_probes": setup_probes(trees, workload),
                "pairs": pairs,
                "memory": {side: children_rss(tree, workload) for side, tree in trees.items()},
                "bytes": gate,
            }

    code = int(any(r["bytes"]["differ"] for r in results.values()))  # the byte gate
    series = {"script": shlex.join(["python3", "tools/bench_pairs.py", *sys.argv[1:]]),
              "workloads": results}
    if args.merge_into:
        bench = json.loads(args.merge_into.read_text())
        bench["other_runs"].append({"note": args.note, **series})
        args.merge_into.write_text(json.dumps(bench, indent=1) + "\n")
        return code
    bench = {"change": args.change_note, "parent_commit": parent_commit,
             "command": RUN.format(seconds=args.seconds), "protocol": PROTOCOL,
             "environment": env}
    if args.claim:
        workload, metric, ratio = args.claim
        s = results[workload]["summary"][metric]
        bench["claim"] = {"workload": workload, "metric": metric, "target_ratio": float(ratio),
                          "median_ratio": s["median_ratio"], "change_wins": s["change_wins"],
                          "pairs": s["pairs"],
                          "median_gap_exceeds_parent_iqr": s["median_gap_exceeds_parent_iqr"]}
        bench["claim"]["met"] = claim_met(s, float(ratio))
    bench.update(series, other_runs=[])
    (args.out or ROOT / f"BENCH_{args.pr}.json").write_text(json.dumps(bench, indent=1) + "\n")
    return code


if __name__ == "__main__":
    raise SystemExit(main())
