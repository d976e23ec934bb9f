"""Experiment drivers: seeded sweeps, result tables, architecture costs.

Sweeps walk one variable (symbol rate, SNR, or transmit power) across a
grid for one or both transmitter modes.  Every trial is a fresh frame
with its own derived seed, so any point of any sweep can be reproduced
in isolation and a rerun of the same spec is byte-identical.

A sweep of long frames on a machine with a second CPU draws each
trial's channel noise one trial ahead in a forked helper process
(:class:`_NoiseHelper`); the draw depends on the trial's seed alone, so
the results are the same bytes either way.

Otherwise a point runs its trials in blocks (:func:`run_trials`): 1, 2,
4, ... frames go through the chain together, up to ``_BLOCK_SAMPLES``
samples a block.  Short frames spend most of a trial on numpy's
per-call cost, which a block pays once; blocks start small so that a
point that stops after a frame or two computes few trials it drops.
Every frame of a block keeps its own seeds and its own per-frame steps,
so a trial's outcome, and with it every point, is the same whatever
block it runs in.
"""

from __future__ import annotations

import csv
import functools
import hashlib
import itertools
import json
import math
import mmap
import os
import select
from dataclasses import asdict, dataclass, replace
from enum import Enum
from typing import get_type_hints

import numpy as np

from .baseband import FrameLayout, TxMode, build_frame, synthesize
from .channel import ChannelConfig, apply_channel, draw_noise, realized_snr_db
from .config import SimConfig
from .receiver import SyncError, measure, receive_frame

SWEEP_RESULTS_NAME = "results.csv"
SWEEP_MANIFEST_NAME = "manifest.json"


class SweepVar(Enum):
    SYMBOL_RATE = "rate"
    SNR = "snr"
    TX_POWER = "power"


@dataclass(frozen=True)
class SweepSpec:
    var: SweepVar
    values: tuple[float, ...]
    trials: int  # frame budget per point; the CLI takes it from --trials or SimConfig.trials
    modes: tuple[TxMode, ...] = (TxMode.METASURFACE, TxMode.CONVENTIONAL)
    master_seed: int = 271828
    paired: bool = False

    def __post_init__(self) -> None:
        if len(self.values) == 0:
            raise ValueError("sweep needs at least one value")
        if len(self.modes) == 0 or len(set(self.modes)) != len(self.modes):
            raise ValueError("sweep modes must be non-empty and distinct")
        if not all(math.isfinite(v) for v in self.values):
            raise ValueError("sweep values must be finite")
        if self.var is SweepVar.SYMBOL_RATE and min(self.values) <= 0:
            raise ValueError("symbol rates must be positive")
        if any(b <= a for a, b in zip(self.values, self.values[1:])):
            raise ValueError("sweep values must be strictly increasing")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")


def default_values(var: SweepVar, cfg: SimConfig) -> tuple[float, ...]:
    grids = {
        SweepVar.SYMBOL_RATE: cfg.rate_grid_hz,
        SweepVar.SNR: cfg.snr_grid_db,
        SweepVar.TX_POWER: cfg.power_grid_dbm,
    }
    return tuple(grids[var])


def derive_seed(master: int, *parts) -> int:
    """Stable 64-bit seed from the master seed and any labels."""
    text = "|".join([str(master), *(str(p) for p in parts)])
    digest = hashlib.sha256(text.encode()).digest()
    return int.from_bytes(digest[:8], "little")


def _channel_for(var: SweepVar, value: float, cfg: SimConfig, mode: TxMode) -> ChannelConfig:
    """The channel of one sweep point; the surface transmitter's extra loss is charged here."""
    link_loss_db = cfg.link_loss_db
    if mode is TxMode.METASURFACE:
        link_loss_db += cfg.reflectivity_loss_db + cfg.modulation_excess_loss_db
    common = dict(link_loss_db=link_loss_db, noise_floor_dbm=cfg.noise_floor_dbm)
    if var is SweepVar.TX_POWER:
        return ChannelConfig(tx_power_dbm=value, **common)
    if var is SweepVar.SNR:
        return ChannelConfig(snr_db=value, **common)
    return ChannelConfig(snr_db=cfg.rate_sweep_snr_db, **common)


def _noise_seed(trial_seed: int) -> int:
    return derive_seed(trial_seed, "noise")


def run_trials(mode: TxMode, cfg: SimConfig, channel: ChannelConfig, seeds,
               draw=draw_noise) -> list:
    """A block of frames through the chain, one per trial seed, in order.

    Each trial's outcome is its (received frame, link metrics), or the
    :class:`SyncError` its frame raised.  Each frame gets the payload and
    the noise of its own seed, so a trial's outcome does not depend on
    the block it runs in.  Every setting, the symbol rate included, comes
    from ``cfg``.  ``draw`` gives the channel noise (see
    :func:`apply_channel`).
    """
    layout = cfg.layout()
    payload = np.empty((len(seeds), layout.payload_bits), dtype=np.uint8)
    for row, seed in zip(payload, seeds):
        row[:] = np.random.default_rng(derive_seed(seed, "payload")).integers(0, 2, size=row.size)
    frame = build_frame(payload, layout)
    wave = synthesize(
        frame, mode, cfg.curve(), cfg.rc(), cfg.oversampling,
        phase_offset_deg=cfg.phase_offset_deg, incident_amplitude=cfg.incident_amplitude,
    )
    rx = apply_channel(wave, channel, [_noise_seed(seed) for seed in seeds], draw)
    del wave  # a block's sample arrays are freed as soon as they are used: peak memory
    outcomes = receive_frame(rx, layout, cfg.sync_threshold)
    del rx
    passed = [i for i, received in enumerate(outcomes) if not isinstance(received, SyncError)]
    rows = passed if len(passed) < len(seeds) else slice(None)  # a slice copies nothing
    metrics = measure([outcomes[i] for i in passed], payload[rows], frame.data_symbols()[rows])
    for i, m in zip(passed, metrics):
        outcomes[i] = outcomes[i], m
    return outcomes


def run_trial(mode: TxMode, cfg: SimConfig, channel: ChannelConfig, seed: int,
              draw=draw_noise):
    """One frame through the chain: (received frame, link metrics).

    The block of :func:`run_trials` with ``seed`` alone.  Raises
    :class:`SyncError` when the receiver finds no frame.
    """
    (outcome,) = run_trials(mode, cfg, channel, [seed], draw)
    if isinstance(outcome, SyncError):
        raise outcome
    return outcome


@dataclass
class PointResult:
    """One sweep point; the fields are the columns of ``results.csv``, in order."""

    mode: TxMode
    sweep_var: SweepVar
    value: float
    symbol_rate_hz: float
    snr_db: float
    tx_power_dbm: float | None
    ber: float
    ser: float
    evm_rms_pct: float
    est_snr_db: float
    bits: int
    bit_errors: int
    frames: int
    sync_failures: int
    low_confidence: bool


# A block of trials holds at most this many samples: 8 frames of the
# default layout at oversampling 1.  Each row adds its arrays to the
# sweep's peak memory (~0.13 MB a row at oversampling 1), so longer
# frames get fewer rows, and frames of more samples run one at a time;
# 16 rows ran about 7 % faster than 8 for twice the memory.
_BLOCK_SAMPLES = 8 * FrameLayout().total_symbols


def _blocks(items, cap: int):
    """``items`` in consecutive lists of 1, 2, 4, ... up to ``cap`` items."""
    items, size = iter(items), 1
    while block := list(itertools.islice(items, size)):
        yield block
        size = min(2 * size, cap)


# Frames of at least this many samples draw their noise in a helper
# process.  Measured on a 2-vCPU VM: at 2,400 samples (oversampling 1 at
# the default frame) the helper gained 5-17 % trials/s for 6-22 % more
# CPU per trial; at 4,800 and up it gained 7-40 % or more.
_HELPER_MIN_SAMPLES = 4800


def _use_noise_helper(samples: int) -> bool:
    """Whether a sweep of ``samples``-sample frames draws its noise in a helper process."""
    if samples < _HELPER_MIN_SAMPLES or not (hasattr(os, "fork") and hasattr(os, "eventfd")):
        return False
    return len(os.sched_getaffinity(0)) >= 2


def _cpus_but_this_one() -> set[int]:
    """The CPUs this process may use, less the one it runs on now if that is known."""
    cpus = os.sched_getaffinity(0)
    try:
        with open("/proc/self/stat") as fh:
            cpus.discard(int(fh.read().rsplit(")", 1)[1].split()[36]))  # field 39, "processor"
    except OSError:
        pass
    return cpus


class _NoiseHelper:
    """A forked process that draws each trial's channel noise one trial ahead.

    Request r puts its noise seed in seat r % 2 of a shared anonymous
    mmap and counts up one eventfd; the helper draws the seed's noise
    with :func:`draw_noise` into slot r % 2 and counts up a second one.
    The parent makes request r only once it is done with request r - 2's
    slot, so the helper never writes a slot the parent reads.

    The two must not take turns on one CPU, which the scheduler's
    wake-up placement otherwise makes them do: the helper is kept off
    the CPU the parent runs on when it forks, and the two signal each
    other by eventfd, whose wake-ups, unlike a pipe's, do not ask to run
    the woken process on the waker's CPU.

    Each side watches a pipe the other holds open: the helper exits when
    its pipe to the parent closes, and the parent raises if the helper
    is gone.  :meth:`close` closes the parent's ends and waits for it.
    The helper runs numpy's generator alone, which takes no lock that a
    thread of the parent (an idle BLAS pool, say) could hold at the fork.
    """

    def __init__(self, samples: int):
        self._shared = mmap.mmap(-1, 8 * (2 + 2 * 2 * samples))
        self._seeds = np.frombuffer(self._shared, dtype=np.uint64, count=2)
        self._slots = np.frombuffer(self._shared, dtype=np.float64, offset=16).reshape(2, 2 * samples)
        self._sent = self._received = 0
        self._requests = os.eventfd(0, os.EFD_SEMAPHORE)
        self._answers = os.eventfd(0, os.EFD_SEMAPHORE)
        from_parent, self._to_helper = os.pipe()
        self._from_helper, to_parent = os.pipe()
        cpus = _cpus_but_this_one()
        try:
            self._pid = os.fork()
        except OSError:
            self._close_fds(from_parent, to_parent)
            raise
        if self._pid == 0:
            os.close(self._to_helper)
            os.close(self._from_helper)
            if cpus:
                os.sched_setaffinity(0, cpus)
            _serve_noise(self._requests, self._answers, from_parent, self._seeds, self._slots)
        os.close(from_parent)
        os.close(to_parent)

    def ahead(self, seeds):
        """``(seed, draw)`` for each trial seed, the next trial's noise drawn meanwhile.

        ``draw`` stands in for :func:`draw_noise` in that trial and may be
        called until the next pair is taken.
        """
        pending = None
        for seed in seeds:
            # drawn into the slot of the pair the caller has just finished with
            request = self._request(seed)
            if pending is not None:
                yield pending
            pending = seed, functools.partial(self._collect, request)
        if pending is not None:
            yield pending

    def _request(self, seed: int) -> int:
        request = self._sent
        self._seeds[request % 2] = _noise_seed(seed)
        os.eventfd_write(self._requests, 1)
        self._sent += 1
        return request

    def _collect(self, request: int, seed: int, samples: int) -> np.ndarray:
        """Request ``request``'s normals, once the helper has drawn them."""
        if seed != self._seeds[request % 2] or 2 * samples != self._slots.shape[1]:
            raise ValueError(f"request {request} drew another seed or frame size")
        while self._received <= request:
            ready, _, _ = select.select([self._answers, self._from_helper], [], [])
            if self._answers not in ready:
                raise RuntimeError("the noise helper process exited")
            os.eventfd_read(self._answers)
            self._received += 1
        return self._slots[request % 2]

    def _close_fds(self, *fds: int) -> None:
        for fd in (self._requests, self._answers, self._to_helper, self._from_helper, *fds):
            os.close(fd)

    def close(self) -> None:
        """Close the parent's ends and wait for the helper to exit."""
        self._close_fds()
        os.waitpid(self._pid, 0)


def _serve_noise(requests: int, answers: int, parent: int,
                 seeds: np.ndarray, slots: np.ndarray) -> None:
    """The helper's loop: draw each request's noise into its slot until ``parent`` closes."""
    code = 1
    try:
        for request in itertools.count():
            ready, _, _ = select.select([requests, parent], [], [])
            if parent in ready:
                break
            os.eventfd_read(requests)
            draw_noise(int(seeds[request % 2]), slots.shape[1] // 2, out=slots[request % 2])
            os.eventfd_write(answers, 1)
        code = 0
    finally:
        os._exit(code)


def _until_stop(outcomes, cfg: SimConfig) -> list:
    """``outcomes`` up to the first trial at which the point has ``cfg.min_errors``
    bit errors or ``cfg.max_bits`` bits, or all of them; none past it is taken."""
    taken, bits, bit_errors = [], 0, 0
    for metrics in outcomes:
        taken.append(metrics)
        if metrics is not None:
            bits += metrics.bits_compared
            bit_errors += metrics.bit_errors
        if bit_errors >= cfg.min_errors or bits >= cfg.max_bits:
            break
    return taken


def run_point(mode: TxMode, var: SweepVar, value: float, cfg: SimConfig,
              master_seed: int, trials: int, paired: bool = False,
              noise: _NoiseHelper | None = None) -> PointResult:
    """Measure one sweep point, stopping at the confidence floor.

    Four steps: a seed per trial; each trial's outcome, its block run
    when the trial is taken; :func:`_until_stop`; the row, from those
    outcomes alone, which is ``low_confidence`` below ``cfg.min_errors``
    errors and has NaN rates if no frame passed sync.  A symbol-rate
    point runs every trial at ``value``, any other point at
    ``cfg.symbol_rate_hz``.

    With ``paired=True`` the trial seeds do not include the mode, so runs
    of different modes at the same value see identical payloads and noise
    (common random numbers) and the stopping rule is disabled to keep the
    trial count aligned across modes.

    Trials run in blocks of 1, 2, 4, ... up to ``_BLOCK_SAMPLES``
    samples (see the module notes), and the stop rule replays each
    block's outcomes in trial order: the trials of a block past the stop
    are dropped.  ``noise``, when given, draws each trial's channel noise
    one trial ahead, so each block is one trial; the result is the same
    either way.
    """
    if var is SweepVar.SYMBOL_RATE:
        cfg = replace(cfg, symbol_rate_hz=value)
    channel = _channel_for(var, value, cfg, mode)
    labels = (var.value, repr(float(value))) if paired else (mode.value, var.value, repr(float(value)))
    seeds = (derive_seed(master_seed, *labels, trial) for trial in range(trials))

    if noise:  # one trial a block, so each block's noise is drawn during the one before
        blocks = (([seed], draw) for seed, draw in noise.ahead(seeds))
    else:
        samples = cfg.layout().total_symbols * cfg.oversampling
        blocks = ((block, draw_noise) for block in _blocks(seeds, max(1, _BLOCK_SAMPLES // samples)))

    def outcomes():  # each trial's LinkMetrics, or None where sync failed
        for block, draw in blocks:
            for outcome in run_trials(mode, cfg, channel, block, draw):
                yield None if isinstance(outcome, SyncError) else outcome[1]

    taken = list(outcomes()) if paired else _until_stop(outcomes(), cfg)

    frames = [m for m in taken if m is not None]
    bits = sum(m.bits_compared for m in frames)
    bit_errors = sum(m.bit_errors for m in frames)
    evm_sq_sum = snr_lin_sum = 0.0
    for m in frames:  # left to right: np.sum adds pairwise, and sum() compensates from 3.12
        evm_sq_sum += m.evm_rms_pct**2 * m.symbols_compared
        snr_lin_sum += 10.0 ** (m.est_snr_db / 10.0)
    ber = ser = evm = est_snr = math.nan
    if frames:
        symbols = sum(m.symbols_compared for m in frames)
        ber = bit_errors / bits
        ser = sum(m.symbol_errors for m in frames) / symbols
        evm = float(np.sqrt(evm_sq_sum / symbols))
        est_snr = float(10.0 * np.log10(snr_lin_sum / len(frames)))
    return PointResult(
        mode=mode, sweep_var=var, value=value, symbol_rate_hz=cfg.symbol_rate_hz,
        snr_db=realized_snr_db(channel), tx_power_dbm=value if var is SweepVar.TX_POWER else None,
        ber=ber, ser=ser, evm_rms_pct=evm, est_snr_db=est_snr,
        bits=bits, bit_errors=bit_errors, frames=len(frames), sync_failures=len(taken) - len(frames),
        low_confidence=bit_errors < cfg.min_errors,
    )


def run_sweep(spec: SweepSpec, cfg: SimConfig) -> list[PointResult]:
    """Every point of ``spec`` under ``cfg``, mode by mode.

    ``spec.paired`` is :func:`run_point`'s ``paired``: a paired sweep is
    the one way to run both modes over the same payloads and noise.
    Frames of at least ``_HELPER_MIN_SAMPLES`` samples, on a machine
    with a second CPU, draw their noise in a helper process, which has
    exited by the time this returns or raises.
    """
    samples = cfg.layout().total_symbols * cfg.oversampling
    noise = _NoiseHelper(samples) if _use_noise_helper(samples) else None
    try:
        return [
            run_point(mode, spec.var, value, cfg, spec.master_seed, spec.trials,
                      paired=spec.paired, noise=noise)
            for mode in spec.modes
            for value in spec.values
        ]
    finally:
        if noise is not None:
            noise.close()


# The parsers take only what the writer writes: Python's int() and
# float() would also take surrounding spaces and digit underscores.

def _parse_flag(text: str) -> bool:
    if text not in ("0", "1"):
        raise ValueError(f"{text!r} is not 0 or 1")
    return text == "1"


def _parse_count(text: str) -> int:
    if not (text.isascii() and text.isdigit()):
        raise ValueError(f"{text!r} is not a count (digits 0-9 only)")
    return int(text)


def _parse_float(text: str) -> float:
    if text != text.strip() or "_" in text:
        raise ValueError(f"{text!r} is not a float as written (no spaces or underscores)")
    return float(text)


def _parse_rate(text: str) -> float:
    rate = _parse_float(text)
    if not (math.isnan(rate) or 0.0 <= rate <= 1.0):  # NaN: no frame passed sync
        raise ValueError(f"{text!r} is not a rate in [0, 1] or nan")
    return rate


# (format, parse) for each field type of PointResult; every int field is a count.
_CSV_CODECS = {
    TxMode: (lambda x: x.value, TxMode),
    SweepVar: (lambda x: x.value, SweepVar),
    float: (lambda x: repr(float(x)), _parse_float),
    float | None: (lambda x: "" if x is None else repr(float(x)),
                   lambda s: _parse_float(s) if s else None),
    int: (str, _parse_count),
    bool: (lambda x: "1" if x else "0", _parse_flag),
}
# column name -> (format, parse), in PointResult's field order
_CSV_COLUMNS = {name: _CSV_CODECS[kind] for name, kind in get_type_hints(PointResult).items()}
_CSV_COLUMNS["ber"] = _CSV_COLUMNS["ser"] = (_CSV_CODECS[float][0], _parse_rate)


def write_results_csv(path, results: list[PointResult]) -> None:
    """Deterministic result table: same results, same bytes."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(_CSV_COLUMNS)
        for r in results:
            writer.writerow([fmt(getattr(r, name)) for name, (fmt, _) in _CSV_COLUMNS.items()])


def read_results_csv(path) -> list[PointResult]:
    """The rows of a ``results.csv``.

    A missing column, a short row or a field the writer would not have
    written (a negative count, spaces or digit underscores in a number,
    a ``ber`` or ``ser`` outside [0, 1] that is not NaN) raises
    :class:`ValueError` naming ``path:line`` and the column.
    """
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        missing = [name for name in _CSV_COLUMNS if name not in (reader.fieldnames or ())]
        if missing:
            raise ValueError(f"{path}:1: no column {missing[0]!r}")
        results = []
        for row in reader:
            fields = {}
            for name, (_, parse) in _CSV_COLUMNS.items():
                try:
                    if row[name] is None:
                        raise ValueError("the row ends before it")
                    fields[name] = parse(row[name])
                except ValueError as exc:
                    raise ValueError(f"{path}:{reader.line_num}: column {name!r}: {exc}") from None
            results.append(PointResult(**fields))
        return results


def write_manifest(path, spec: SweepSpec, cfg: SimConfig) -> None:
    from . import __version__

    manifest = {
        "package_version": __version__,
        "sweep": {
            "var": spec.var.value,
            "values": [float(v) for v in spec.values],
            "modes": [m.value for m in spec.modes],
            "trials": spec.trials,
            "master_seed": spec.master_seed,
        },
        "config": asdict(cfg),
    }
    if spec.paired:  # only when set, so unpaired manifests keep their bytes
        manifest["sweep"]["paired"] = True
    with open(path, "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


@dataclass(frozen=True)
class HardwareCounts:
    power_amplifiers: int
    mixers: int
    filters: int


def hardware_counts(channels: int, architecture: TxMode) -> HardwareCounts:
    """RF front-end component counts for ``channels`` radiating elements.

    The surface transmitter drives every cell from one amplified carrier
    and modulates in the reflection domain, so its counts do not grow
    with the aperture.  A conventional phased transmitter needs one PA
    per element plus I/Q mixer and filter pairs.
    """
    if channels < 1:
        raise ValueError("channels must be >= 1")
    if architecture is TxMode.METASURFACE:
        return HardwareCounts(power_amplifiers=1, mixers=0, filters=0)
    return HardwareCounts(power_amplifiers=channels, mixers=2 * channels, filters=2 * channels)


@dataclass(frozen=True)
class ModeGap:
    target_ber: float
    metasurface_value: float | None
    conventional_value: float | None
    gap_db: float | None
    note: str = ""


def _crossing(points: list[PointResult], target: float) -> float | None:
    """Sweep value where the BER curve crosses ``target``.

    Linear interpolation of log10(BER) against the sweep value; points
    with zero errors, or NaN BER (no frame through sync), carry no level
    information and are skipped.
    """
    usable = sorted((p for p in points if p.ber > 0.0), key=lambda p: p.value)
    for a, b in zip(usable, usable[1:]):
        lo, hi = sorted((a.ber, b.ber))
        if lo <= target <= hi:
            if a.ber == b.ber:
                return float(a.value)
            la, lb, lt = np.log10([a.ber, b.ber, target])
            return float(a.value + (b.value - a.value) * (lt - la) / (lb - la))
    return None


def compare_modes(results: list[PointResult], targets=(1e-2, 3e-3, 1e-3)) -> list[ModeGap]:
    """Horizontal dB gap (metasurface minus conventional) at target BERs.

    Takes the results of one SNR or one power sweep covering both modes;
    anything else has no gap in dB and raises :class:`ValueError`, as
    does a target outside (0, 1).
    """
    if not all(0.0 < t < 1.0 for t in targets):
        raise ValueError(f"target BERs must lie in (0, 1), got {list(targets)}")
    surf = [r for r in results if r.mode is TxMode.METASURFACE]
    conv = [r for r in results if r.mode is TxMode.CONVENTIONAL]
    if not surf or not conv:
        raise ValueError("need results for both modes")
    sweep_vars = {r.sweep_var for r in results}
    if sweep_vars not in ({SweepVar.SNR}, {SweepVar.TX_POWER}):
        got = ", ".join(sorted(v.value for v in sweep_vars))
        raise ValueError(f"gaps need the rows of one snr or power sweep, got sweep_var {got}")
    gaps = []
    for target in targets:
        xs = _crossing(surf, target)
        xc = _crossing(conv, target)
        if xs is None or xc is None:
            missing = " and ".join(
                name for name, x in (("metasurface", xs), ("conventional", xc)) if x is None
            )
            gaps.append(ModeGap(target, xs, xc, None, f"target outside measured {missing} curve"))
        else:
            gaps.append(ModeGap(target, xs, xc, xs - xc))
    return gaps
