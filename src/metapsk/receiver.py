"""Frame-level coherent receiver: correlate, equalize, slice, count.

The receiver is a measurement stand-in, not a product design: it knows
the frame format, finds the frame with the sync preamble, estimates one
complex gain over all known training symbols (sync plus pilot, so the
estimate's own noise stays well below the data noise), and makes
nearest-point decisions on mid-symbol samples.  Mid-symbol sampling is
deliberate: it neither hides nor exaggerates the settling transients of
the surface transmitter.

The receiver knows nothing about the transmitter's settings.  It
compares against the unrotated constellation: a constellation rotation
at the transmitter is a common phase, which the correlation magnitude
ignores and the complex gain estimate takes up.

Synchronization has two paths.  When the search window admits exactly
one lag, as in every sweep (the channel adds no delay, so the frame can
only start at sample 0), the peak is that lag's normalized dot product.
A window of several lags is correlated at all lags at once by FFT
(``scipy.signal.fftconvolve``, imported on the first such window, so the
one-lag path loads numpy alone).  The frame constants the receiver
compares against (sync and pilot symbols, mid-symbol offsets) are built
once per frame format and shared.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .baseband import (
    FrameLayout,
    Waveform,
    constellation,
    symbol_centres,
    symbols_to_bits,
    sync_symbols,
    training_symbols,
)

SYNC_THRESHOLD_DEFAULT = 0.5


def fftconvolve(in1, in2, mode="full"):
    """``scipy.signal.fftconvolve``, imported on the first call."""
    from scipy.signal import fftconvolve as scipy_fftconvolve

    return scipy_fftconvolve(in1, in2, mode=mode)


class SyncError(RuntimeError):
    """Raised when no credible frame start is found."""


@dataclass(frozen=True)
class SyncResult:
    frame_start: int
    peak: float


def synchronize(
    wave: Waveform,
    sync_syms: np.ndarray,
    threshold: float = SYNC_THRESHOLD_DEFAULT,
    *,
    max_start: int | None = None,
) -> SyncResult:
    """Locate the frame start by normalized cross-correlation.

    The reference is the oversampled sync subframe on the unrotated
    constellation.  The peak is the correlation's magnitude normalized by
    the windowed signal energy, so it lies in [0, 1] and is insensitive to
    the channel gain and to any common phase rotation.  Only lags up to
    ``max_start`` (all lags when it is None) are searched.

    A window of one lag is scored by one dot product against the signal
    energy.  A longer window is correlated at every lag by FFT, and
    peaks equal within float resolution resolve to the earliest lag.  A
    best peak below ``threshold``, or a NaN peak (from a NaN or infinite
    sample in the window), raises :class:`SyncError`.
    """
    ovs = wave.oversampling
    ref = np.repeat(constellation()[np.asarray(sync_syms)], ovs)
    r = wave.samples
    if r.size < ref.size:
        raise SyncError("waveform shorter than the sync reference")
    if max_start is not None:
        if max_start < 0:
            raise SyncError("waveform shorter than a full frame")
        r = r[: max_start + ref.size]
    ref_norm = float(np.linalg.norm(ref))

    if r.size == ref.size:
        start = 0
        energy = np.vdot(r, r).real
        best = abs(np.vdot(ref, r)) / (math.sqrt(energy) * ref_norm) if energy > 0.0 else 0.0
    else:
        num = np.abs(fftconvolve(r, np.conj(ref[::-1]), mode="valid"))
        csum = np.concatenate([[0.0], np.cumsum(np.abs(r) ** 2)])
        window_energy = np.maximum(csum[ref.size:] - csum[: r.size - ref.size + 1], 0.0)
        with np.errstate(divide="ignore", invalid="ignore"):
            corr = np.where(window_energy > 0.0, num / (np.sqrt(window_energy) * ref_norm), 0.0)
        best = np.max(corr)
        start = int(np.argmax(corr >= best * (1.0 - 1e-12)))  # earliest lag at the peak

    best = float(best)
    if not best >= threshold:  # a NaN peak is a miss too
        raise SyncError(f"correlation peak {best:.3f} below threshold {threshold}")
    return SyncResult(frame_start=start, peak=min(best, 1.0))


@dataclass(frozen=True)
class ChannelEstimate:
    gain: complex

    def __post_init__(self) -> None:
        if not (math.isfinite(self.gain.real) and math.isfinite(self.gain.imag)):
            raise ValueError("channel gain must be finite")
        if self.gain == 0:
            raise ValueError("channel gain must be nonzero")


def estimate_channel(rx_pilot: np.ndarray, pilot_ref: np.ndarray) -> ChannelEstimate:
    """Single-tap least squares: gain = <ref, rx> / <ref, ref>."""
    rx_pilot = np.asarray(rx_pilot)
    pilot_ref = np.asarray(pilot_ref)
    if rx_pilot.shape != pilot_ref.shape or rx_pilot.size == 0:
        raise ValueError("pilot and reference must be equal-length, non-empty")
    denom = float(np.sum(np.abs(pilot_ref) ** 2))
    if denom == 0.0:
        raise ValueError("pilot reference has zero energy")
    return ChannelEstimate(gain=complex(np.vdot(pilot_ref, rx_pilot) / denom))


def demodulate(samples: np.ndarray, phase_offset_deg: float = 0.0) -> tuple[np.ndarray, np.ndarray]:
    """Nearest-point 8PSK decisions; returns (bits, symbol indices).

    Decision regions are 45 deg wedges centred on the constellation
    points; a sample on a boundary belongs to the higher index.
    """
    theta = (np.degrees(np.angle(samples)) - phase_offset_deg) % 360.0
    indices = np.floor((theta + 22.5) / 45.0).astype(np.int64) % 8
    return symbols_to_bits(indices), indices


@dataclass(frozen=True)
class ReceivedFrame:
    sync: SyncResult
    estimate: ChannelEstimate
    eq_data: np.ndarray  # equalized mid-symbol samples of the data section
    bits: np.ndarray
    symbols: np.ndarray
    est_snr_db: float


def receive_frame(
    wave: Waveform,
    layout: FrameLayout = FrameLayout(),
    threshold: float = SYNC_THRESHOLD_DEFAULT,
) -> ReceivedFrame:
    """Run the full chain on a waveform containing one frame.

    A constellation rotation at the transmitter ends up in
    ``estimate.gain``; ``eq_data`` lies on the unrotated constellation.
    """
    ovs = wave.oversampling
    max_start = wave.samples.size - layout.total_symbols * ovs
    sync = synchronize(wave, sync_symbols(layout.sync_len), threshold, max_start=max_start)
    y = wave.samples[sync.frame_start:][symbol_centres(layout, ovs)]

    # Estimate over sync + pilot: with only the 32 pilot symbols the
    # estimate's own noise (1/32 of the sample noise) visibly inflates
    # BER on the steep part of the waterfall.
    train_ref = constellation()[training_symbols(layout)]
    pilot_ref = train_ref[layout.pilot_slice]
    estimate = estimate_channel(y[: layout.pilot_slice.stop], train_ref)
    y_eq = y / estimate.gain

    resid_power = float(np.mean(np.abs(y_eq[layout.pilot_slice] - pilot_ref) ** 2))
    ref_power = float(np.mean(np.abs(pilot_ref) ** 2))
    est_snr_db = math.inf if resid_power == 0.0 else 10.0 * math.log10(ref_power / resid_power)

    eq_data = y_eq[layout.data_slice]
    bits, symbols = demodulate(eq_data)
    return ReceivedFrame(sync, estimate, eq_data, bits, symbols, est_snr_db)


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


def measure(received: ReceivedFrame, ref_bits: np.ndarray, ref_symbols: np.ndarray) -> LinkMetrics:
    """Error rates and EVM of one received frame against the truth."""
    ref_bits = np.asarray(ref_bits).ravel()
    ref_symbols = np.asarray(ref_symbols).ravel()
    if received.bits.size != ref_bits.size or received.symbols.size != ref_symbols.size:
        raise ValueError("reference length does not match the received frame")

    bit_errors = int(np.sum(received.bits != ref_bits))
    symbol_errors = int(np.sum(received.symbols != ref_symbols))
    n_bits = ref_bits.size
    n_syms = ref_symbols.size

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

