"""In-memory span tracer that wraps metapsk's layer boundaries from outside.

While a traced sweep runs, `Tracer.active` rebinds the module globals
through which one layer calls the next (e.g. `metapsk.harness.synthesize`,
`metapsk.receiver.synchronize`) to wrappers that record a span per call.
Nothing under `src/` changes, and the originals are restored afterwards,
so untraced sweeps in the same process run the plain code.

A span is `[name, start, end, parent, mode, rep]`.  Spans nest by a call
stack, so `receiver.receive_frame -> receiver.synchronize` gets the right
parent.  A layer's self time is its span's duration minus the durations
of its child spans; the process is single-threaded, so children never
overlap.
"""

from __future__ import annotations

import importlib
import json
import math
import statistics
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable

MODES = ("metasurface", "conventional")


def _admissible_lags(args, kwargs) -> dict:
    # synchronize(wave, sync_syms, threshold, phase_offset_deg, max_start=...)
    wave, sync_syms = args[0], args[1]
    valid = wave.samples.size - len(sync_syms) * wave.oversampling + 1
    max_start = kwargs.get("max_start", args[4] if len(args) > 4 else None)
    return {"lags_admissible": valid if max_start is None else max(0, min(valid, max_start + 1))}


@dataclass(frozen=True)
class Boundary:
    module: str  # metapsk module whose global is rebound: where the caller looks it up
    attr: str
    span: str | None  # None: count only, record no span
    sets_mode: bool = False  # first argument is the TxMode of everything below
    count_args: Callable | None = None  # (args, kwargs) -> {counter: n}, before the call
    count_result: Callable | None = None  # result -> {counter: n}, after a return


BOUNDARIES = (
    Boundary("cli", "load_config", "config.load_config"),
    Boundary("cli", "run_sweep", "harness.run_sweep"),
    Boundary("cli", "write_results_csv", "harness.write_results_csv"),
    Boundary("cli", "write_manifest", "harness.write_manifest"),
    Boundary("harness", "run_point", "harness.run_point", sets_mode=True),
    Boundary("harness", "run_trial", "harness.run_trial", sets_mode=True),
    Boundary("harness", "derive_seed", "harness.derive_seed"),
    Boundary("harness", "realized_snr_db", "channel.realized_snr_db"),
    Boundary("harness", "build_frame", "baseband.build_frame"),
    Boundary("harness", "synthesize", "baseband.synthesize",
             count_result=lambda w: {"samples": w.samples.size}),
    Boundary("harness", "apply_channel", "channel.apply_channel"),
    Boundary("harness", "receive_frame", "receiver.receive_frame"),
    Boundary("harness", "measure", "receiver.measure"),
    Boundary("receiver", "synchronize", "receiver.synchronize", count_args=_admissible_lags),
    Boundary("receiver", "fftconvolve", None, count_result=lambda c: {"lags_correlated": c.size}),
    Boundary("receiver", "estimate_channel", "receiver.estimate_channel"),
    Boundary("receiver", "demodulate", "receiver.demodulate"),
    Boundary("baseband", "bias_voltage_table", "cell.bias_voltage_table"),
    Boundary("baseband", "voltage_trajectory", "cell.voltage_trajectory"),
    Boundary("baseband", "uniform_reflection", "surface.uniform_reflection"),
)

SPAN_COLUMNS = ("id", "name", "start_s", "end_s", "parent", "mode", "workload", "rep")


class Tracer:
    def __init__(self, workload: str):
        self.workload = workload
        self.spans: list[list] = []
        self.counts: dict[int, dict[str, int]] = defaultdict(lambda: defaultdict(int))
        self.rep = -1
        self._stack: list[int] = []
        self._origin = time.perf_counter()

    def _open(self, name: str, mode: str | None) -> int:
        parent = self._stack[-1] if self._stack else -1
        if mode is None:
            mode = self.spans[parent][4] if parent >= 0 else ""
        sid = len(self.spans)
        self.spans.append([name, 0.0, 0.0, parent, mode, self.rep])
        self._stack.append(sid)
        self.spans[sid][1] = time.perf_counter()
        return sid

    def _close(self, sid: int) -> None:
        self.spans[sid][2] = time.perf_counter()
        self._stack.pop()

    def _count(self, increments: dict) -> None:
        counts = self.counts[self.rep]
        for key, n in increments.items():
            counts[key] += n

    def _wrap(self, fn, b: Boundary):
        def traced(*args, **kwargs):
            if b.count_args is not None:
                self._count(b.count_args(args, kwargs))
            if b.span is None:
                result = fn(*args, **kwargs)
            else:
                sid = self._open(b.span, args[0].value if b.sets_mode else None)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    self._close(sid)
            if b.count_result is not None:
                self._count(b.count_result(result))
            return result
        return traced

    @contextmanager
    def active(self, rep: int):
        """Trace one `cli.main` call as repetition ``rep``.

        A boundary whose global no longer exists is skipped with a note
        on stderr: its time then shows as its caller's self time.
        """
        self.rep = rep
        originals = []
        try:
            for b in BOUNDARIES:
                module = importlib.import_module(f"metapsk.{b.module}")
                fn = getattr(module, b.attr, None)
                if fn is None:
                    print(f"perfbench: metapsk.{b.module}.{b.attr} not found; not traced",
                          file=sys.stderr)
                    continue
                originals.append((module, b.attr, fn))
                setattr(module, b.attr, self._wrap(fn, b))
            sid = self._open("cli.main", None)
            try:
                yield
            finally:
                self._close(sid)
        finally:
            for module, attr, fn in reversed(originals):
                setattr(module, attr, fn)

    def write(self, path, input_set: int) -> None:
        rows = [[sid, name, round(start - self._origin, 9), round(end - self._origin, 9),
                 parent, mode, self.workload, rep]
                for sid, (name, start, end, parent, mode, rep) in enumerate(self.spans)]
        with open(path, "w") as fh:
            json.dump({"workload": self.workload, "input_set": input_set,
                       "columns": SPAN_COLUMNS, "spans": rows}, fh, separators=(",", ":"))
            fh.write("\n")

    def layer_metrics(self, sweeps: dict[int, list[list]], cap: int) -> dict[str, float]:
        """Per-layer metrics: the median over traced repetitions, per trial unless named.

        ``sweeps`` maps each traced repetition to its per-point
        `[mode, value, bits, bit_errors, frames, sync_failures]` from
        results.csv; trials and points are counted there, so a bypassed
        `run_trial` or `run_point` cannot empty the denominators.
        ``cap`` is the sweep's frame budget per point.
        """
        per_rep = [self._rep_metrics(rep, counts, cap) for rep, counts in sorted(sweeps.items())]
        if not per_rep:
            return {}
        metrics = {key: statistics.median(m[key] for m in per_rep) for key in per_rep[0]}
        trial_us = sorted((end - start) * 1e6 for name, start, end, _, _, _ in self.spans
                          if name == "harness.run_trial")
        metrics["harness.run_trial.p50_us"] = _percentile(trial_us, 0.50)
        metrics["harness.run_trial.p99_us"] = _percentile(trial_us, 0.99)
        return metrics

    def _rep_metrics(self, rep: int, points: list[list], cap: int) -> dict[str, float]:
        spans = [(sid, s) for sid, s in enumerate(self.spans) if s[5] == rep]
        child = defaultdict(float)
        for _, (_, start, end, parent, _, _) in spans:
            if parent >= 0:
                child[parent] += end - start
        total = defaultdict(float)  # (name, mode) -> inclusive seconds
        own = defaultdict(float)  # (name, mode) -> self seconds
        for sid, (name, start, end, _, mode, _) in spans:
            total[name, mode] += end - start
            own[name, mode] += end - start - child[sid]

        def summed(table, name):
            return sum(v for (n, _), v in table.items() if n == name)

        trials_by_mode = {m: sum(p[4] + p[5] for p in points if p[0] == m) for m in MODES}
        trials = sum(trials_by_mode.values())
        counts = self.counts[rep]
        per_trial_us = 1e6 / trials
        correlated = max(counts["lags_correlated"], counts["lags_admissible"])
        point_s = summed(total, "harness.run_point")
        harness_self_s = summed(own, "harness.run_point") + summed(own, "harness.run_trial")

        m = {
            "harness.run_trial.self_us": summed(own, "harness.run_trial") * per_trial_us,
            "harness.derive_seed_us": summed(total, "harness.derive_seed") * per_trial_us,
            "baseband.build_frame_us": summed(total, "baseband.build_frame") * per_trial_us,
            "receiver.receive_frame.self_us": summed(own, "receiver.receive_frame") * per_trial_us,
            "receiver.estimate_channel_us": summed(total, "receiver.estimate_channel") * per_trial_us,
            "receiver.demodulate_us": summed(total, "receiver.demodulate") * per_trial_us,
            "receiver.measure_us": summed(total, "receiver.measure") * per_trial_us,
            "receiver.synchronize_us": summed(total, "receiver.synchronize") * per_trial_us,
            "receiver.sync_lags_computed": correlated / trials,
            "receiver.sync_lag_useful_ratio": counts["lags_admissible"] / correlated if correlated else 0.0,
            "receiver.sync_fail_ratio": sum(p[5] for p in points) / trials,
            "channel.apply_channel_us": summed(total, "channel.apply_channel") * per_trial_us,
            "baseband.samples_per_trial": counts["samples"] / trials,
            "harness.trials": trials,
            "harness.trial_budget_used": trials / (len(points) * cap),
            "harness.run_point.self_ms": summed(own, "harness.run_point") * 1e3 / len(points),
            "harness.write_artifacts_ms": (summed(total, "harness.write_results_csv")
                                           + summed(total, "harness.write_manifest")) * 1e3,
            "cli.self_ms": summed(own, "cli.main") * 1e3,
            "config.load_config_ms": summed(total, "config.load_config") * 1e3,
            "trace.coverage": (point_s - harness_self_s) / point_s if point_s else 0.0,
        }
        for mode in MODES:
            n = trials_by_mode[mode]
            scale = 1e6 / n if n else 0.0
            m[f"baseband.synthesize.self_us.{mode}"] = own["baseband.synthesize", mode] * scale
            for name in ("cell.voltage_trajectory", "cell.bias_voltage_table",
                         "surface.uniform_reflection"):
                m[f"{name}_us.{mode}"] = total[name, mode] * scale
        return m


def _percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list; 0 when it is empty."""
    if not sorted_values:
        return 0.0
    return sorted_values[max(1, math.ceil(len(sorted_values) * q)) - 1]
