"""The claim rule, the sweep-wall tails and the set-up probe summary of
``tools/bench_pairs.py``, loaded by path."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]


def _summary(parent, change):
    """Ten pairs in which ``change`` is the parent's value times its own factor."""
    pairs = [{"parent": {name: value * (1.0 + 0.001 * i) for name, value in parent.items()},
              "change": {name: value * (1.0 + 0.001 * i) for name, value in change.items()}}
             for i in range(10)]
    return bench_pairs.summarize(pairs, DECLARED)


@pytest.mark.parametrize("metric,change,target,met", [
    # higher is better: the median must reach the target from above
    ("trials_per_s", 2000.0, 1.3, True),
    ("trials_per_s", 2000.0, 2.5, False),
    ("trials_per_s", 500.0, 0.8, False),
    # lower is better: halving sweep_s meets a claimed 0.8, not a claimed 0.4
    ("sweep_s", 0.5, 0.8, True),
    ("sweep_s", 0.5, 0.4, False),
    ("sweep_s", 2.0, 0.8, False),
])
def test_claim_is_judged_in_the_metrics_better_direction(metric, change, target, met):
    parent = {"trials_per_s": 1000.0, "sweep_s": 1.0}
    summary = _summary(parent, {**parent, metric: change})[metric]
    assert bench_pairs.claim_met(summary, target) is met


def test_claim_needs_nine_in_ten_pairs():
    summary = dict(_summary({"sweep_s": 1.0}, {"sweep_s": 0.5})["sweep_s"], change_wins=8)
    assert bench_pairs.claim_met(summary, 0.8) is False


def test_sweep_wall_tails_pool_each_sides_runs():
    pairs = [{"parent": {"sweep_walls_s": [float(w) for w in range(1 + 5 * i, 6 + 5 * i)]},
              "change": {"sweep_walls_s": [0.5] * (i + 1)}}
             for i in range(2)]
    pairs.append({"parent": {"correct": False}, "change": {"sweep_walls_s": [2.5]}})
    tails = bench_pairs.wall_tails(pairs)
    # parent: walls 1..10; inclusive deciles put p50 at 5.5 and p90 at 9.1
    assert tails["parent"] == {"count": 10, "p50": 5.5, "p90": pytest.approx(9.1)}
    assert tails["change"] == {"count": 4, "p50": 0.5, "p90": pytest.approx(1.9)}


def test_sweep_wall_tails_need_two_walls():
    tails = bench_pairs.wall_tails([{"parent": {"sweep_walls_s": [1.0]}, "change": {}}])
    assert tails == {"parent": {"count": 1, "p50": None, "p90": None},
                     "change": {"count": 0, "p50": None, "p90": None}}


# /proc/stat as a 2-vCPU guest prints it: user nice system idle iowait irq
# softirq steal guest guest_nice
PROC_STAT = """\
cpu  4705 150 1120 1600239 1210 0 73 350 40 0
cpu0 2355 75 560 800100 605 0 40 175 20 0
cpu1 2350 75 560 800139 605 0 33 175 20 0
intr 1462898 0 9 0 0
ctxt 2950371
"""


def test_cpu_ticks_reads_steal_and_the_total_without_guest_time():
    # total: user through steal; guest (40) is already in user
    assert bench_pairs.cpu_ticks(PROC_STAT) == (350, 4705 + 150 + 1120 + 1600239 + 1210 + 73 + 350)


def test_cpu_ticks_needs_the_steal_field():
    with pytest.raises(ValueError):
        bench_pairs.cpu_ticks("cpu  4705 150 1120 1600239 1210 0 73\n")
    with pytest.raises(ValueError):
        bench_pairs.cpu_ticks("cpu0 1 2 3 4 5 6 7 8\n")


def test_steal_share_between_two_readings():
    assert bench_pairs.steal_share((100, 1000), (130, 1200)) == pytest.approx(0.15)
    assert bench_pairs.steal_share(None, (130, 1200)) is None
    assert bench_pairs.steal_share((100, 1000), (100, 1000)) is None


def test_median_steal_skips_runs_without_a_share():
    pairs = [{"parent": {"steal_share": s}, "change": {"correct": False}} for s in (0.1, 0.3, 0.2)]
    assert bench_pairs.median_steal(pairs) == {"parent": 0.2, "change": None}


def test_probe_summary_pairs_the_kth_probes():
    parent = [0.20, 0.10, 0.30, 0.40, 0.15]
    change = [0.10, 0.20, 0.25, 0.40, 0.30]
    summary = bench_pairs.probe_summary(parent, change)
    # sorted parent 0.10 0.15 0.20 0.30 0.40, change 0.10 0.20 0.25 0.30 0.40
    assert summary["parent"] == {"count": 5, "q1": 0.15, "median": 0.20, "q3": 0.30, "samples_s": parent}
    assert summary["change"] == {"count": 5, "q1": 0.20, "median": 0.25, "q3": 0.30, "samples_s": change}
    assert summary["median_ratio"] == pytest.approx(1.25)
    assert summary["change_wins"] == 2  # probes 0 and 2; probe 3 is a tie
