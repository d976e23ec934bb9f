"""AWGN channel with fixed-SNR and link-budget noise scaling.

SNR is defined per complex sample: mean received signal power over noise
variance.  Two ways to set it:

* fixed SNR: the waveform passes through at unit gain and the noise
  variance is scaled to the measured signal power;
* power budget: the waveform is scaled to an absolute received power
  (transmit power minus link loss, dBm) and the noise sits at a fixed
  floor.

The channel knows nothing about the transmitter: any loss a transmitter
is charged (the surface's reflectivity and modulation loss) is already
part of ``link_loss_db`` when the link is built.

The noise seed is an argument of :func:`apply_channel`, not part of the
channel: the same config and seed reproduce the output.  The noise
itself is :func:`draw_noise` of that seed, which a caller may draw ahead
of time and hand over.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .baseband import BITS_PER_SYMBOL, Waveform, mean_power


@dataclass(frozen=True)
class ChannelConfig:
    """Either ``snr_db`` (fixed SNR) or ``tx_power_dbm`` (power budget)."""

    snr_db: float | None = None
    tx_power_dbm: float | None = None
    link_loss_db: float = 50.0  # transmit to received power, dB, transmitter losses included
    noise_floor_dbm: float = -95.0

    def __post_init__(self) -> None:
        if (self.snr_db is None) == (self.tx_power_dbm is None):
            raise ValueError("set exactly one of snr_db and tx_power_dbm")
        if self.snr_db is not None and (math.isnan(self.snr_db) or self.snr_db == -math.inf):
            raise ValueError(f"snr_db must be finite or +inf (no noise), got {self.snr_db}")
        if self.tx_power_dbm is not None and not math.isfinite(self.tx_power_dbm):
            raise ValueError(f"tx_power_dbm must be finite, got {self.tx_power_dbm}")


def _db_to_linear(db: float, what: str) -> float:
    """10^(db/10), or ValueError when that is not a finite positive number."""
    try:
        linear = 10.0 ** (db / 10.0)
    except OverflowError:
        linear = math.inf
    if not 0.0 < linear < math.inf:
        raise ValueError(f"{what} of {db} dB is out of the float range")
    return linear


def realized_snr_db(cfg: ChannelConfig) -> float:
    """Per-sample SNR the channel will realize."""
    if cfg.snr_db is not None:
        return cfg.snr_db
    return cfg.tx_power_dbm - cfg.link_loss_db - cfg.noise_floor_dbm


def draw_noise(seed: int, samples: int, out: np.ndarray | None = None) -> np.ndarray:
    """The 2n standard normals of an n-sample frame's noise, written to ``out`` if given.

    The first n are the noise's real parts and the rest its imaginary
    parts, as two successive draws of n would give.
    """
    return np.random.default_rng(seed).standard_normal(2 * samples, out=out)


def apply_channel(wave: Waveform, cfg: ChannelConfig, seed: int, draw=draw_noise) -> Waveform:
    """Scale the waveform per the channel config and add complex AWGN.

    Noise is circularly symmetric and drawn from ``seed``: the same
    config and seed on the same waveform reproduce the output exactly.
    The normals are ``draw(seed, n)``, which is :func:`draw_noise` or
    hands over the same normals drawn ahead of time; they are scaled in
    place.  A config whose gain or noise power is not a finite positive
    number for this waveform raises :class:`ValueError`.
    """
    x = wave.samples
    p_in = mean_power(x)
    if p_in == 0.0:
        raise ValueError("input waveform has zero power")

    if cfg.snr_db is not None:
        if cfg.snr_db == math.inf:
            return Waveform(x.copy(), wave.oversampling)
        gain = 1.0
        noise_power = p_in / _db_to_linear(cfg.snr_db, "SNR")
    else:
        p_rx = _db_to_linear(cfg.tx_power_dbm - cfg.link_loss_db, "received power")
        gain = math.sqrt(p_rx / p_in)
        noise_power = _db_to_linear(cfg.noise_floor_dbm, "noise floor")
    if not (0.0 < gain < math.inf and 0.0 < noise_power < math.inf):
        raise ValueError(f"channel gain {gain} and noise power {noise_power} "
                         "must be finite and positive")

    normals = draw(seed, x.size)
    normals *= math.sqrt(noise_power / 2.0)
    out = gain * x
    out.real += normals[: x.size]
    out.imag += normals[x.size:]
    return Waveform(out, wave.oversampling)


def snr_from_eb_n0_db(eb_n0_db: float, oversampling: int) -> float:
    """Per-sample SNR that realizes a target Eb/N0 for rectangular pulses.

    Valid when the receiver collects the whole symbol energy; the
    oversampling term is the symbol-integration gain.
    """
    if oversampling < 1:
        raise ValueError("oversampling must be >= 1")
    return eb_n0_db - 10.0 * math.log10(oversampling) + 10.0 * math.log10(BITS_PER_SYMBOL)
