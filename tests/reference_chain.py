"""A frozen reference of the trial path: one frame at a time, plain numpy.

This is the chain as it stood before trials ran in blocks, trimmed to
what one sweep trial runs, and it is not to be edited to follow
``src/``: a disagreement between it and :func:`metapsk.harness.run_trials`
is a finding about ``src/``.  It reads its settings from a
:class:`~metapsk.config.SimConfig` and a
:class:`~metapsk.channel.ChannelConfig`, which are plain records, and
uses nothing else of the package.  The bias lag is
:func:`helpers.lag_samples`, the recurrence one sample at a time.

:func:`run_trial` returns ``(received, metrics)`` as the package's
``run_trial`` does, or raises :class:`ReferenceSyncError` with the text
the package's ``SyncError`` carries.  :func:`run_point` runs one sweep
point on it, one trial at a time, and returns the row
:func:`metapsk.harness.run_point` writes, column by column.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, replace
from types import SimpleNamespace

import numpy as np

from helpers import lag_samples

BITS_PER_SYMBOL = 3
DATA_SUBFRAMES = 9
PSK_STEP_DEG = 45.0
SYNC_LFSR_TAPS = (6, 5)
SYNC_LFSR_SEED = 0b100101

_GRAY_FROM_INDEX = np.array([k ^ (k >> 1) for k in range(8)])
_INDEX_FROM_GRAY = np.argsort(_GRAY_FROM_INDEX)


class ReferenceSyncError(RuntimeError):
    """No credible frame start; the text is the package's SyncError text."""


def derive_seed(master: int, *parts) -> int:
    text = "|".join([str(master), *(str(p) for p in parts)])
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:8], "little")


# frame format


def constellation(phase_offset_deg: float = 0.0) -> np.ndarray:
    phases = np.deg2rad(phase_offset_deg + PSK_STEP_DEG * np.arange(8))
    return np.exp(1j * phases)


def pn_chips(length: int) -> np.ndarray:
    degree = max(SYNC_LFSR_TAPS)
    period = 2**degree - 1
    state = [(SYNC_LFSR_SEED >> i) & 1 for i in range(degree)]
    chips = []
    for _ in range(period):
        chips.append(state[0])
        fb = state[0]
        for t in SYNC_LFSR_TAPS:
            if t != degree:
                fb ^= state[t]
        state = state[1:] + [fb]
    reps = -(-length // period)
    return np.tile(np.array(chips, dtype=np.int64), reps)[:length]


def sync_symbols(length: int) -> np.ndarray:
    return pn_chips(length) * 4


def training_symbols(cfg) -> np.ndarray:
    return np.concatenate([sync_symbols(cfg.sync_len), np.arange(cfg.pilot_len, dtype=np.int64) % 8])


def bits_to_symbols(bits) -> np.ndarray:
    b = np.asarray(bits, dtype=int).ravel()
    words = (b[0::3] << 2) | (b[1::3] << 1) | b[2::3]
    return _INDEX_FROM_GRAY[words]


def symbols_to_bits(symbols) -> np.ndarray:
    s = np.asarray(symbols, dtype=int).ravel()
    words = _GRAY_FROM_INDEX[s]
    bits = np.empty(3 * s.size, dtype=np.int64)
    bits[0::3] = (words >> 2) & 1
    bits[1::3] = (words >> 1) & 1
    bits[2::3] = words & 1
    return bits


def total_symbols(cfg) -> int:
    return cfg.sync_len + cfg.pilot_len + DATA_SUBFRAMES * cfg.data_len


# transmitter


def _phase_deg(cfg, voltage):
    v = np.clip(voltage, cfg.v_min, cfg.v_max)
    frac = (v - cfg.v_min) / (cfg.v_max - cfg.v_min)
    return cfg.phase_at_vmin_deg + cfg.phase_span_deg * frac


def _voltage_for_phase(cfg, phase_deg: float) -> float:
    branch = (phase_deg - cfg.phase_at_vmin_deg) % 360.0
    frac = branch / cfg.phase_span_deg
    return cfg.v_min + frac * (cfg.v_max - cfg.v_min)


def synthesize(symbols: np.ndarray, conventional: bool, cfg) -> np.ndarray:
    ovs = cfg.oversampling
    if conventional:
        return np.repeat(constellation(cfg.phase_offset_deg)[symbols], ovs)
    volts = np.array([_voltage_for_phase(cfg, cfg.phase_offset_deg + k * PSK_STEP_DEG)
                      for k in range(8)])
    alpha = 0.0 if cfg.tau_s == 0.0 else math.exp(-(1.0 / (cfg.symbol_rate_hz * ovs)) / cfg.tau_s)
    trajectory = lag_samples(SimpleNamespace(alpha=alpha), volts, symbols, ovs)
    gamma = cfg.cell_amplitude * np.exp(1j * np.deg2rad(_phase_deg(cfg, trajectory)))
    return cfg.incident_amplitude * gamma


# channel


def _db_to_linear(db: float, what: str) -> float:
    try:
        linear = 10.0 ** (db / 10.0)
    except OverflowError:
        linear = math.inf
    if not 0.0 < linear < math.inf:
        raise ValueError(f"{what} of {db} dB is out of the float range")
    return linear


def apply_channel(x: np.ndarray, channel, seed: int) -> np.ndarray:
    p_in = float(np.mean(np.abs(x) ** 2))
    if p_in == 0.0:
        raise ValueError("input waveform has zero power")
    if channel.snr_db is not None:
        if channel.snr_db == math.inf:
            return x.copy()
        gain = 1.0
        noise_power = p_in / _db_to_linear(channel.snr_db, "SNR")
    else:
        p_rx = _db_to_linear(channel.tx_power_dbm - channel.link_loss_db, "received power")
        gain = math.sqrt(p_rx / p_in)
        noise_power = _db_to_linear(channel.noise_floor_dbm, "noise floor")
    if not (0.0 < gain < math.inf and 0.0 < noise_power < math.inf):
        raise ValueError(f"channel gain {gain} and noise power {noise_power} "
                         "must be finite and positive")
    normals = np.random.default_rng(seed).standard_normal(2 * x.size)
    normals *= math.sqrt(noise_power / 2.0)
    out = gain * x
    out.real += normals[: x.size]
    out.imag += normals[x.size:]
    return out


# receiver


@dataclass(frozen=True)
class ReceivedFrame:
    frame_start: int
    peak: float
    gain: complex
    eq_data: np.ndarray
    bits: np.ndarray
    symbols: np.ndarray
    est_snr_db: float


@dataclass(frozen=True)
class LinkMetrics:
    ber: float
    ser: float
    evm_rms_pct: float
    est_snr_db: float
    bits_compared: int
    bit_errors: int
    symbol_errors: int
    symbols_compared: int


def synchronize(r: np.ndarray, cfg) -> tuple[int, float]:
    """The one lag a trial admits (the frame starts at sample 0), scored by dot products."""
    ref = np.repeat(constellation()[sync_symbols(cfg.sync_len)], cfg.oversampling)
    r = r[: ref.size]
    ref_norm = float(np.linalg.norm(ref))
    energy = np.vdot(r, r).real
    best = abs(np.vdot(ref, r)) / (math.sqrt(energy) * ref_norm) if energy > 0.0 else 0.0
    best = float(best)
    if not best >= cfg.sync_threshold:
        raise ReferenceSyncError(f"correlation peak {best:.3f} below threshold {cfg.sync_threshold}")
    return 0, min(best, 1.0)


def receive_frame(samples: np.ndarray, cfg) -> ReceivedFrame:
    ovs = cfg.oversampling
    start, peak = synchronize(samples, cfg)
    centres = np.arange(total_symbols(cfg)) * ovs + ovs // 2
    y = samples[start:][centres]

    train_ref = constellation()[training_symbols(cfg)]
    pilot = slice(cfg.sync_len, cfg.sync_len + cfg.pilot_len)
    pilot_ref = train_ref[pilot]
    rx_train = y[: pilot.stop]
    denom = float(np.sum(np.abs(train_ref) ** 2))
    gain = complex(np.vdot(train_ref, rx_train) / denom)
    y_eq = y / gain

    resid_power = float(np.mean(np.abs(y_eq[pilot] - pilot_ref) ** 2))
    ref_power = float(np.mean(np.abs(pilot_ref) ** 2))
    est_snr_db = math.inf if resid_power == 0.0 else 10.0 * math.log10(ref_power / resid_power)

    eq_data = y_eq[pilot.stop:]
    theta = (np.degrees(np.angle(eq_data)) - 0.0) % 360.0
    symbols = np.floor((theta + 22.5) / 45.0).astype(np.int64) % 8
    return ReceivedFrame(start, peak, gain, eq_data, symbols_to_bits(symbols), symbols, est_snr_db)


def measure(received: ReceivedFrame, ref_bits: np.ndarray, ref_symbols: np.ndarray) -> LinkMetrics:
    bit_errors = int(np.sum(received.bits != ref_bits))
    symbol_errors = int(np.sum(received.symbols != ref_symbols))
    n_bits, n_syms = ref_bits.size, ref_symbols.size
    nearest = constellation()[received.symbols]
    evm = math.sqrt(float(np.mean(np.abs(received.eq_data - nearest) ** 2)) /
                    float(np.mean(np.abs(nearest) ** 2))) * 100.0
    return LinkMetrics(
        ber=bit_errors / n_bits,
        ser=symbol_errors / n_syms,
        evm_rms_pct=evm,
        est_snr_db=received.est_snr_db,
        bits_compared=n_bits,
        bit_errors=bit_errors,
        symbol_errors=symbol_errors,
        symbols_compared=n_syms,
    )


def run_trial(conventional: bool, cfg, channel, seed: int) -> tuple[ReceivedFrame, LinkMetrics]:
    """One frame of one trial seed: payload, frame, waveform, channel, receiver, metrics."""
    payload_bits = BITS_PER_SYMBOL * DATA_SUBFRAMES * cfg.data_len
    payload = np.random.default_rng(derive_seed(seed, "payload")).integers(0, 2, size=payload_bits)
    symbols = np.concatenate([training_symbols(cfg), bits_to_symbols(payload)])
    samples = synthesize(symbols, conventional, cfg)
    rx = apply_channel(samples, channel, derive_seed(seed, "noise"))
    received = receive_frame(rx, cfg)
    data = symbols[cfg.sync_len + cfg.pilot_len:]
    return received, measure(received, payload, data)


# sweep point


def _point_channel(mode: str, var: str, value: float, cfg) -> SimpleNamespace:
    link_loss_db = cfg.link_loss_db
    if mode == "metasurface":
        link_loss_db += cfg.reflectivity_loss_db + cfg.modulation_excess_loss_db
    snr_db = {"snr": value, "power": None, "rate": cfg.rate_sweep_snr_db}[var]
    return SimpleNamespace(snr_db=snr_db, tx_power_dbm=value if var == "power" else None,
                           link_loss_db=link_loss_db, noise_floor_dbm=cfg.noise_floor_dbm)


def run_point(mode: str, var: str, value: float, cfg, master_seed: int, trials: int,
              paired: bool = False) -> dict:
    """One sweep point as a dict of ``results.csv`` columns; ``mode`` and ``var`` by their values.

    Trial t runs the seed of (master seed, mode unless paired, var,
    repr(value), t).  Unless the point is paired, it stops after the
    first trial at which it has ``cfg.min_errors`` bit errors or
    ``cfg.max_bits`` bits.  A trial whose sync failed counts as a sync
    failure and adds nothing else.
    """
    if var == "rate":
        cfg = replace(cfg, symbol_rate_hz=value)
    channel = _point_channel(mode, var, value, cfg)
    labels = (var, repr(float(value))) if paired else (mode, var, repr(float(value)))
    frames, failures = [], 0
    for trial in range(trials):
        try:
            _, metrics = run_trial(mode == "conventional", cfg, channel,
                                   derive_seed(master_seed, *labels, trial))
        except ReferenceSyncError:
            failures += 1
        else:
            frames.append(metrics)
        bits = sum(m.bits_compared for m in frames)
        bit_errors = sum(m.bit_errors for m in frames)
        if not paired and (bit_errors >= cfg.min_errors or bits >= cfg.max_bits):
            break

    ber = ser = evm = est_snr = math.nan
    if frames:
        symbols = sum(m.symbols_compared for m in frames)
        evm_sq_sum = snr_lin_sum = 0.0
        for m in frames:  # left to right
            evm_sq_sum += m.evm_rms_pct**2 * m.symbols_compared
            snr_lin_sum += 10.0 ** (m.est_snr_db / 10.0)
        ber = bit_errors / bits
        ser = sum(m.symbol_errors for m in frames) / symbols
        evm = float(np.sqrt(evm_sq_sum / symbols))
        est_snr = 10.0 * math.log10(snr_lin_sum / len(frames))
    if channel.snr_db is not None:
        snr_db = channel.snr_db
    else:
        snr_db = channel.tx_power_dbm - channel.link_loss_db - channel.noise_floor_dbm
    return dict(mode=mode, sweep_var=var, value=value, symbol_rate_hz=cfg.symbol_rate_hz,
                snr_db=snr_db, tx_power_dbm=channel.tx_power_dbm, ber=ber, ser=ser,
                evm_rms_pct=evm, est_snr_db=est_snr, bits=bits, bit_errors=bit_errors,
                frames=len(frames), sync_failures=failures,
                low_confidence=bit_errors < cfg.min_errors)
