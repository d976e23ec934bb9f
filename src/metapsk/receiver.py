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
compares against (the sync reference and its norm, the training and
pilot references and their energies, the mid-symbol offsets) are built
once per frame format and shared.  Bit errors are counted from the
symbol decisions, each adding its Gray distance to the sent symbol.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache, wraps

import numpy as np

from .baseband import (
    GRAY_BITS,
    GRAY_DISTANCE,
    FrameLayout,
    Waveform,
    as_indices,
    constellation,
    mean_power,
    symbol_centres,
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


def _memo_by_value(fn):
    """Memoize ``fn(array, *args)`` on the array's contents.

    An array is not hashable, so the key is its dtype, shape and bytes: a
    frame format's reference, handed over afresh with every frame, is
    worked up once.  A process sees few frame formats, and the cache
    holds each key's bytes, so it keeps only the last 16.
    """
    @lru_cache(maxsize=16)
    def cached(dtype, shape, data, *args):
        return fn(np.frombuffer(data, dtype=dtype).reshape(shape), *args)

    @wraps(fn)
    def call(array, *args):
        array = np.asarray(array)
        return cached(array.dtype.str, array.shape, array.tobytes(), *args)
    return call


@_memo_by_value
def _sync_reference(sync_syms: np.ndarray, oversampling: int) -> tuple[np.ndarray, float]:
    """The oversampled sync subframe on the unrotated constellation, and its norm."""
    ref = np.repeat(constellation()[sync_syms], oversampling)
    ref.flags.writeable = False
    return ref, float(np.linalg.norm(ref))


@_memo_by_value
def _energy(ref: np.ndarray) -> float:
    """Sum of squared magnitudes: the denominator of the LS gain estimate."""
    return float(np.sum(np.abs(ref) ** 2))


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
    ref, ref_norm = _sync_reference(sync_syms, wave.oversampling)
    r = wave.samples
    if r.size < ref.size:
        raise SyncError("waveform shorter than the sync reference")
    if max_start is not None:
        if max_start < 0:
            raise SyncError("waveform shorter than a full frame")
        r = r[: max_start + ref.size]

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
    denom = _energy(pilot_ref)
    if denom == 0.0:
        raise ValueError("pilot reference has zero energy")
    return ChannelEstimate(gain=complex(np.vdot(pilot_ref, rx_pilot) / denom))


def demodulate(samples: np.ndarray, phase_offset_deg: float = 0.0) -> tuple[np.ndarray, np.ndarray]:
    """Nearest-point 8PSK decisions; returns (bits, symbol indices).

    Decision regions are 45 deg wedges centred on the constellation
    points; a sample on a boundary belongs to the higher index.
    """
    theta = np.angle(samples, deg=True)
    if phase_offset_deg:
        theta = (theta - phase_offset_deg) % 360.0
    else:
        # angle() lies in [-180, 180], where adding 360 to the negative
        # half gives the same float as % 360 (-0.0 stays -0.0, which
        # + 22.5 below turns into 22.5 all the same).
        np.add(theta, 360.0, out=theta, where=theta < 0.0)
    theta += 22.5
    theta /= 45.0
    # theta >= 0, so the cast truncates as floor would; & 7 is % 8.
    indices = theta.astype(np.int64)
    indices &= 7
    return GRAY_BITS.take(indices, axis=0).ravel(), indices


@dataclass(frozen=True)
class _FrameReference:
    """What the receiver compares one frame format against."""

    centres: np.ndarray | slice  # mid-symbol samples from the frame start
    train_ref: np.ndarray  # sync + pilot symbols on the unrotated constellation
    pilot_ref: np.ndarray
    pilot_power: float


@lru_cache(maxsize=64)
def _frame_reference(layout: FrameLayout, oversampling: int) -> _FrameReference:
    """The reference of a frame format, built once per format."""
    train_ref = constellation()[training_symbols(layout)]
    train_ref.flags.writeable = False
    pilot_ref = train_ref[layout.pilot_slice]
    centres = slice(0, layout.total_symbols) if oversampling == 1 else symbol_centres(layout, oversampling)
    return _FrameReference(centres, train_ref, pilot_ref, mean_power(pilot_ref))


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
    ref = _frame_reference(layout, ovs)
    max_start = wave.samples.size - layout.total_symbols * ovs
    sync = synchronize(wave, sync_symbols(layout.sync_len), threshold, max_start=max_start)
    y = wave.samples[sync.frame_start:][ref.centres]

    # Estimate over sync + pilot: with only the 32 pilot symbols the
    # estimate's own noise (1/32 of the sample noise) visibly inflates
    # BER on the steep part of the waterfall.
    estimate = estimate_channel(y[: layout.pilot_slice.stop], ref.train_ref)
    y_eq = y / estimate.gain

    resid_power = mean_power(y_eq[layout.pilot_slice] - ref.pilot_ref)
    est_snr_db = math.inf if resid_power == 0.0 else 10.0 * math.log10(ref.pilot_power / resid_power)

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
    """Error rates and EVM of one received frame against the truth.

    ``ref_bits`` are the Gray bits of ``ref_symbols`` (indices 0..7), as
    :func:`~metapsk.baseband.build_frame` pairs them.  Errors are counted
    from symbols: each decision adds its Gray distance to the sent
    symbol, which is the number of its bits that differ.
    """
    ref_symbols = as_indices(ref_symbols, 8, "reference symbols")
    if received.bits.size != np.size(ref_bits) or received.symbols.size != ref_symbols.size:
        raise ValueError("reference length does not match the received frame")

    distance = GRAY_DISTANCE[(received.symbols << 3) | ref_symbols]
    bit_errors = int(distance.sum())
    symbol_errors = int(np.count_nonzero(distance))
    n_bits = received.bits.size
    n_syms = ref_symbols.size

    nearest = constellation()[received.symbols]
    evm = math.sqrt(mean_power(received.eq_data - nearest) / mean_power(nearest)) * 100.0

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
