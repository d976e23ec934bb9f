"""Experiment drivers: seeded sweeps, result tables, architecture costs.

Sweeps walk one variable (symbol rate, SNR, or transmit power) across a
grid for one or both transmitter modes.  Every trial is a fresh frame
with its own derived seed, so any point of any sweep can be reproduced
in isolation and a rerun of the same spec is byte-identical.

A point runs its trials in blocks (:func:`run_trials`) of as many
frames as fit in ``_BLOCK_SAMPLES`` samples: short frames spend most of
a trial on numpy's per-call cost, which a block pays once.  Every frame
of a block keeps its own seeds and its own per-frame steps, so a trial's
outcome, and with it every point, is the same whatever block it runs in.

On a machine with a second CPU a sweep forks one trial worker
(:class:`_TrialWorker`): the sweep's process and the worker run the
blocks of a point in turn, and the stop rule takes their outcomes in
trial order.  The results are the same bytes either way.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import itertools
import json
import math
import os
import pickle
import sys
from dataclasses import asdict, dataclass, replace
from enum import Enum
from typing import get_type_hints

import numpy as np

from .baseband import FrameLayout, TxMode, build_frame, synthesize
from .channel import ChannelConfig, apply_channel, realized_snr_db
from .config import SimConfig, open_utf8
from .receiver import measure, receive_frame
from .seeding import bit_generators

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
        if not all(abs(v) <= sys.float_info.max for v in self.values):  # ints too, unconverted
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


def _payload(generators, n: int) -> np.ndarray:
    """``n`` payload bits from each bit generator, one uint8 row per generator.

    A row is ``np.random.Generator(g).integers(0, 2, size=n)`` bit for
    bit, taken from the generator's raw words: for a range of two,
    numpy's bounded integers keep the top bit of each 32-bit half of a
    64-bit word, low half first (Lemire's method), so ``n`` bits use
    ``ceil(n / 2)`` words.
    """
    words = np.empty((len(generators), -(-n // 2)), dtype="<u8")  # little-endian: low half first
    for row, generator in zip(words, generators):
        row[:] = generator.random_raw(row.size)
    payload = np.empty((len(generators), n), dtype=np.uint8)
    np.right_shift(words.view("<u4")[:, :n], 31, out=payload, casting="unsafe")
    return payload


def run_trials(mode: TxMode, cfg: SimConfig, channel: ChannelConfig, seeds) -> tuple[list, list]:
    """A block of frames through the chain, one per trial seed, in order.

    Returns two lists aligned with ``seeds``: each trial's received
    frame, or the ``SyncError`` its frame raised, and its link metrics,
    or None where sync failed.  Each frame gets the payload and the noise
    of its own seed, so a trial's outcome does not depend on the block it
    runs in.  Every setting, the symbol rate included, comes from ``cfg``.
    """
    layout = cfg.layout()
    # each trial's payload and noise generators, as default_rng(derive_seed(seed, part)) seeds them
    streams = bit_generators([derive_seed(seed, part) for part in ("payload", "noise") for seed in seeds])
    payload = _payload(streams[: len(seeds)], layout.payload_bits)
    frame = build_frame(payload, layout)
    wave = synthesize(
        frame, mode, cfg.curve(), cfg.rc(), cfg.oversampling,
        phase_offset_deg=cfg.phase_offset_deg, incident_amplitude=cfg.incident_amplitude,
    )
    rx = apply_channel(wave, channel, streams[len(seeds) :])
    del wave  # a block's sample arrays are freed as soon as they are used: peak memory
    received = receive_frame(rx, layout, cfg.sync_threshold)
    del rx
    return received, measure(received, payload, frame.data_symbols())


def run_trial(mode: TxMode, cfg: SimConfig, channel: ChannelConfig, seed: int):
    """One frame through the chain: (received frame, link metrics).

    The block of :func:`run_trials` with ``seed`` alone.  Raises
    :class:`~metapsk.receiver.SyncError` when the receiver finds no frame.
    """
    (received,), (metrics,) = run_trials(mode, cfg, channel, [seed])
    if metrics is None:
        raise received
    return received, metrics


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


class _TrialWorker:
    """A forked process that runs whole blocks of trials for the sweep.

    Requests and replies are pickles on two pipes.  A point's ``(mode,
    cfg, channel)`` goes over once (:meth:`start_point`), then each
    request is a block's trial seeds.  Its reply is each trial's
    :class:`LinkMetrics`, or ``None`` where sync failed, or the exception
    the block raised, which :meth:`collect` raises.  Replies come back in
    request order; one that nobody collects (a block still in flight when
    its point stopped) is read and dropped before a later one is read.

    The worker exits when its pipe from the parent closes, and the parent
    raises :class:`RuntimeError` if the worker is gone.  :meth:`close`
    closes the parent's ends and waits for the worker, so its CPU time
    counts in the parent's ``RUSAGE_CHILDREN``.
    """

    def __init__(self):
        requests, to_worker = os.pipe()
        from_worker, replies = os.pipe()
        try:
            self.pid = os.fork()
        except OSError:
            for fd in (requests, to_worker, from_worker, replies):
                os.close(fd)
            raise
        if self.pid == 0:
            os.close(to_worker)
            os.close(from_worker)
            _serve_trials(requests, replies)
        os.close(requests)
        os.close(replies)
        self._requests = os.fdopen(to_worker, "wb")
        self._replies = os.fdopen(from_worker, "rb")
        self._sent = self._received = 0

    def _send(self, message) -> None:
        try:
            pickle.dump(message, self._requests, pickle.HIGHEST_PROTOCOL)
            self._requests.flush()
        except BrokenPipeError:
            raise RuntimeError("the trial worker exited") from None

    def start_point(self, mode: TxMode, cfg: SimConfig, channel: ChannelConfig) -> None:
        """Run the blocks of later requests at this point."""
        self._send((mode, cfg, channel))

    def submit(self, seeds: list) -> int:
        """Send a block's trial seeds; returns the request to collect its reply by."""
        self._send(seeds)
        self._sent += 1
        return self._sent - 1

    def collect(self, request: int) -> list:
        """The outcomes of ``request``, dropping the replies before it."""
        while self._received <= request:
            try:
                reply = pickle.load(self._replies)
            except (EOFError, pickle.UnpicklingError):
                raise RuntimeError("the trial worker exited") from None
            self._received += 1
        if isinstance(reply, Exception):
            raise reply
        return reply

    def close(self) -> None:
        """Close the parent's ends and wait for the worker to exit."""
        with contextlib.suppress(BrokenPipeError):  # a request left unsent to a dead worker
            self._requests.close()
        self._replies.close()
        os.waitpid(self.pid, 0)


def _serve_trials(requests: int, replies: int) -> None:
    """The worker's loop: run each block it is sent until ``requests`` closes."""
    code = 1
    try:
        with os.fdopen(requests, "rb") as rx, os.fdopen(replies, "wb") as tx:
            while True:
                try:
                    message = pickle.load(rx)
                except EOFError:
                    break
                if isinstance(message, tuple):
                    point = message
                    continue
                try:
                    reply = run_trials(*point, message)[1]
                except Exception as exc:  # raised again in the parent
                    reply = exc
                pickle.dump(reply, tx, pickle.HIGHEST_PROTOCOL)
                tx.flush()
        code = 0
    finally:
        os._exit(code)


def _until_stop(outcomes, min_errors: float, max_bits: float) -> tuple[list, int, int]:
    """The ``outcomes`` up to the first trial at which their bits reach ``max_bits`` or
    their bit errors ``min_errors`` (or all of them, none past it taken), and those totals."""
    taken, bits, bit_errors = [], 0, 0
    for metrics in outcomes:
        taken.append(metrics)
        if metrics is not None:
            bits += metrics.bits_compared
            bit_errors += metrics.bit_errors
        if bit_errors >= min_errors or bits >= max_bits:
            break
    return taken, bits, bit_errors


def run_point(mode: TxMode, var: SweepVar, value: float, cfg: SimConfig,
              master_seed: int, trials: int, paired: bool = False,
              worker: _TrialWorker | None = None) -> PointResult:
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

    Trials run in blocks of ``_BLOCK_SAMPLES`` samples, or of one frame
    if it is longer (see the module notes), and the stop rule drops the
    trials of a block past the stop.  A ``worker`` runs every second
    block while this process runs the one before it; a block still in
    flight at the stop is not waited for.  The result is the same either
    way.
    """
    if var is SweepVar.SYMBOL_RATE:
        cfg = replace(cfg, symbol_rate_hz=value)
    channel = _channel_for(var, value, cfg, mode)
    labels = (var.value, repr(float(value))) if paired else (mode.value, var.value, repr(float(value)))
    seeds = (derive_seed(master_seed, *labels, trial) for trial in range(trials))
    cap = max(1, _BLOCK_SAMPLES // (cfg.layout().total_symbols * cfg.oversampling))
    if worker:
        worker.start_point(mode, cfg, channel)

    def outcomes():  # each trial's LinkMetrics, or None where sync failed
        while block := list(itertools.islice(seeds, cap)):
            second = list(itertools.islice(seeds, cap)) if worker else None
            request = worker.submit(second) if second else None
            yield from run_trials(mode, cfg, channel, block)[1]
            if second:
                yield from worker.collect(request)

    floors = (math.inf, math.inf) if paired else (cfg.min_errors, cfg.max_bits)
    taken, bits, bit_errors = _until_stop(outcomes(), *floors)

    frames = [m for m in taken if m is not None]
    evm_sq_sum = snr_lin_sum = 0.0
    for m in frames:  # left to right: np.sum adds pairwise, and sum() compensates from 3.12
        evm_sq_sum += m.evm_rms_pct**2 * m.symbols_compared
        snr_lin_sum += 10.0 ** (m.est_snr_db / 10.0)
    ber = ser = evm = est_snr = math.nan
    if frames:
        symbols = sum(m.symbols_compared for m in frames)
        ber = bit_errors / bits
        ser = sum(m.symbol_errors for m in frames) / symbols
        evm = math.sqrt(evm_sq_sum / symbols)
        # math, not numpy, whose log10 rounds differently at different SIMD levels
        est_snr = 10.0 * math.log10(snr_lin_sum / len(frames))
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
    When this process may run on two or more CPUs
    (``os.sched_getaffinity``), a forked trial worker runs every other
    block of each point; it has exited by the time this returns or
    raises, so its CPU time is in this process's ``RUSAGE_CHILDREN``.
    """
    two_cpus = hasattr(os, "sched_getaffinity") and len(os.sched_getaffinity(0)) >= 2
    worker = _TrialWorker() if two_cpus else None
    try:
        return [
            run_point(mode, spec.var, value, cfg, spec.master_seed, spec.trials,
                      paired=spec.paired, worker=worker)
            for mode in spec.modes
            for value in spec.values
        ]
    finally:
        if worker is not None:
            worker.close()


# (format, parse) for each field type of PointResult.  A field is read
# only as the writer writes it: its parsed value must format back to its
# exact text, so spaces, digit underscores, signs and spellings the
# writer never writes are refused.
_CSV_CODECS = {
    TxMode: (lambda x: x.value, TxMode),
    SweepVar: (lambda x: x.value, SweepVar),
    float: (lambda x: repr(float(x)), float),
    float | None: (lambda x: "" if x is None else repr(float(x)),
                   lambda s: float(s) if s else None),
    int: (str, int),
    bool: (lambda x: "1" if x else "0", lambda s: s == "1"),
}
_FIELD_TYPES = get_type_hints(PointResult)
# column name -> (format, parse), in PointResult's field order
_CSV_COLUMNS = {name: _CSV_CODECS[kind] for name, kind in _FIELD_TYPES.items()}

_COUNT = ((lambda n: n >= 0), "a count")
_FINITE = (math.isfinite, "finite")
# NaN: no frame passed sync
_RATE = ((lambda x: math.isnan(x) or 0.0 <= x <= 1.0), "a rate in [0, 1] or nan")
# column name -> (check, what it asks), for what a column's type cannot
# state: every int field is a count; an empty tx_power_dbm (None) has
# nothing to check
_CSV_CHECKS = {name: _COUNT for name, kind in _FIELD_TYPES.items() if kind is int} | {
    "value": _FINITE, "symbol_rate_hz": ((lambda x: 0.0 < x < math.inf), "finite and positive"),
    "tx_power_dbm": _FINITE, "ber": _RATE, "ser": _RATE,
}


def write_results_csv(path, results: list[PointResult]) -> None:
    """Deterministic result table: same results, same bytes."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(_CSV_COLUMNS)
        for r in results:
            writer.writerow([fmt(getattr(r, name)) for name, (fmt, _) in _CSV_COLUMNS.items()])


def read_results_csv(path) -> list[PointResult]:
    """The rows of a ``results.csv``, taken only as :func:`write_results_csv` writes them.

    A file that is not UTF-8 raises :class:`ValueError` naming ``path``;
    a missing column, a short row, or a field that does not format back
    to its own text or fails its column's check raises one naming
    ``path:line`` and the column.
    """
    with open_utf8(path, newline="") as fh:
        reader = csv.DictReader(fh)
        missing = [name for name in _CSV_COLUMNS if name not in (reader.fieldnames or ())]
        if missing:
            raise ValueError(f"{path}:1: no column {missing[0]!r}")
        results = []
        for row in reader:
            fields = {}
            for name, (fmt, parse) in _CSV_COLUMNS.items():
                text = row[name]
                try:
                    if text is None:
                        raise ValueError("the row ends before it")
                    value = parse(text)
                    if fmt(value) != text:
                        raise ValueError(f"{text!r} is not as written")
                    check, what = _CSV_CHECKS.get(name, (None, None))
                    if check and value is not None and not check(value):
                        raise ValueError(f"{text!r} is not {what}")
                except ValueError as exc:
                    raise ValueError(f"{path}:{reader.line_num}: column {name!r}: {exc}") from None
                fields[name] = value
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
            la, lb, lt = math.log10(a.ber), math.log10(b.ber), math.log10(target)
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
