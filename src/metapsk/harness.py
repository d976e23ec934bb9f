"""Experiment drivers: seeded sweeps, result tables, architecture costs.

Sweeps walk one variable (symbol rate, SNR, or transmit power) across a
grid for one or both transmitter modes.  Every trial is a fresh frame
with its own derived seed, so any point of any sweep can be reproduced
in isolation and a rerun of the same spec is byte-identical.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from dataclasses import asdict, dataclass, replace
from enum import Enum
from typing import get_type_hints

import numpy as np

from .baseband import TxMode, build_frame, synthesize
from .channel import ChannelConfig, apply_channel, realized_snr_db
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


def run_trial(mode: TxMode, cfg: SimConfig, channel: ChannelConfig, seed: int):
    """One frame through the chain: (received frame, link metrics).

    Every setting, the symbol rate included, comes from ``cfg``.
    Raises :class:`SyncError` when the receiver finds no frame.
    """
    layout = cfg.layout()
    rng = np.random.default_rng(derive_seed(seed, "payload"))
    payload = rng.integers(0, 2, size=layout.payload_bits)
    frame = build_frame(payload, layout)
    wave = synthesize(
        frame, mode, cfg.curve(), cfg.rc(), cfg.oversampling,
        phase_offset_deg=cfg.phase_offset_deg, incident_amplitude=cfg.incident_amplitude,
    )
    rx = apply_channel(wave, channel, derive_seed(seed, "noise"))
    received = receive_frame(rx, layout, cfg.sync_threshold)
    return received, measure(received, payload, frame.data_symbols())


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


class _PointAccumulator:
    def __init__(self):
        self.bits = 0
        self.bit_errors = 0
        self.symbols = 0
        self.symbol_errors = 0
        self.evm_sq_sum = 0.0
        self.snr_lin_sum = 0.0
        self.frames = 0
        self.sync_failures = 0

    def add(self, metrics) -> None:
        self.frames += 1
        self.bits += metrics.bits_compared
        self.bit_errors += metrics.bit_errors
        self.symbols += metrics.symbols_compared
        self.symbol_errors += metrics.symbol_errors
        self.evm_sq_sum += metrics.evm_rms_pct**2 * metrics.symbols_compared
        self.snr_lin_sum += 10.0 ** (metrics.est_snr_db / 10.0)

    def result(self, mode, sweep_var, value, cfg, snr_db, tx_power_dbm) -> PointResult:
        """The point's row; a point where no frame passed sync has NaN rates."""
        if self.frames:
            ber = self.bit_errors / self.bits
            ser = self.symbol_errors / self.symbols
            evm = float(np.sqrt(self.evm_sq_sum / self.symbols))
            est_snr = float(10.0 * np.log10(self.snr_lin_sum / self.frames))
        else:
            ber = ser = evm = est_snr = math.nan
        return PointResult(
            mode=mode, sweep_var=sweep_var, value=value, symbol_rate_hz=cfg.symbol_rate_hz,
            snr_db=snr_db, tx_power_dbm=tx_power_dbm,
            ber=ber, ser=ser, evm_rms_pct=evm, est_snr_db=est_snr,
            bits=self.bits, bit_errors=self.bit_errors,
            frames=self.frames, sync_failures=self.sync_failures,
            low_confidence=self.bit_errors < cfg.min_errors,
        )


def run_point(mode: TxMode, var: SweepVar, value: float, cfg: SimConfig,
              master_seed: int, trials: int, paired: bool = False) -> PointResult:
    """Measure one sweep point, stopping at the confidence floor.

    The point stops once it has ``cfg.min_errors`` bit errors or
    ``cfg.max_bits`` bits, and is ``low_confidence`` below
    ``cfg.min_errors`` errors.  A symbol-rate point runs every trial at
    ``value``; any other point at ``cfg.symbol_rate_hz``.

    With ``paired=True`` the trial seeds do not include the mode, so runs
    of different modes at the same value see identical payloads and noise
    (common random numbers) and the stopping rule is disabled to keep the
    trial count aligned across modes.
    """
    if var is SweepVar.SYMBOL_RATE:
        cfg = replace(cfg, symbol_rate_hz=value)
    channel = _channel_for(var, value, cfg, mode)
    snr = realized_snr_db(channel)

    acc = _PointAccumulator()
    for trial in range(trials):
        if paired:
            seed = derive_seed(master_seed, var.value, repr(float(value)), trial)
        else:
            seed = derive_seed(master_seed, mode.value, var.value, repr(float(value)), trial)
        try:
            _, metrics = run_trial(mode, cfg, channel, seed)
        except SyncError:
            acc.sync_failures += 1
        else:
            acc.add(metrics)
        if not paired and (acc.bit_errors >= cfg.min_errors or acc.bits >= cfg.max_bits):
            break
    tx_power = value if var is SweepVar.TX_POWER else None
    return acc.result(mode, var, value, cfg, snr, tx_power)


def run_sweep(spec: SweepSpec, cfg: SimConfig) -> list[PointResult]:
    """Every point of ``spec`` under ``cfg``, mode by mode.

    ``spec.paired`` is :func:`run_point`'s ``paired``: a paired sweep is
    the one way to run both modes over the same payloads and noise.
    """
    return [
        run_point(mode, spec.var, value, cfg, spec.master_seed, spec.trials, paired=spec.paired)
        for mode in spec.modes
        for value in spec.values
    ]


# (format, parse) for each field type of PointResult.
_CSV_CODECS = {
    TxMode: (lambda x: x.value, TxMode),
    SweepVar: (lambda x: x.value, SweepVar),
    float: (lambda x: repr(float(x)), float),
    float | None: (lambda x: "" if x is None else repr(float(x)), lambda s: float(s) if s else None),
    int: (str, int),
    bool: (lambda x: "1" if x else "0", lambda s: s == "1"),
}
# column name -> (format, parse), in PointResult's field order
_CSV_COLUMNS = {name: _CSV_CODECS[kind] for name, kind in get_type_hints(PointResult).items()}


def write_results_csv(path, results: list[PointResult]) -> None:
    """Deterministic result table: same results, same bytes."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(_CSV_COLUMNS)
        for r in results:
            writer.writerow([fmt(getattr(r, name)) for name, (fmt, _) in _CSV_COLUMNS.items()])


def read_results_csv(path) -> list[PointResult]:
    with open(path, newline="") as fh:
        return [PointResult(**{name: parse(row[name]) for name, (_, parse) in _CSV_COLUMNS.items()})
                for row in csv.DictReader(fh)]


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
