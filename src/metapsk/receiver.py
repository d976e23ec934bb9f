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

The sync search covers each lag a full frame fits behind, and has two
paths.  When that window admits exactly one lag, as in every sweep (the
channel adds no delay, so the frame can only start at sample 0), the
peak is that lag's normalized dot product.  A window of several lags is
correlated at all lags at once by FFT.  The frame constants the receiver
compares against (the sync reference and its norm, the training and
pilot references, the pilot power) are built once per frame format and
shared; the training energy, the gain estimate's denominator, is summed
per frame.
Bit errors are counted from the symbol decisions, each adding its Gray
distance to the sent symbol.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .baseband import (
    BITS_PER_SYMBOL,
    GRAY_BITS,
    GRAY_DISTANCE,
    FrameLayout,
    Waveform,
    _frozen,
    as_indices,
    constellation,
    mean_power,
    sync_symbols,
    training_symbols,
)

SYNC_THRESHOLD_DEFAULT = 0.5


def fftconvolve(in1, in2):
    """``np.convolve(in1, in2, "valid")`` for ``in2`` no longer than
    ``in1``, by FFT at the least power of two >= ``in1.size``.  The
    circular wrap reaches only the leading lags that "valid" drops."""
    n = 1 << (in1.size - 1).bit_length()
    return np.fft.ifft(np.fft.fft(in1, n) * np.fft.fft(in2, n))[in2.size - 1 : in1.size]


class SyncError(RuntimeError):
    """Raised when no credible frame start is found."""


@_frozen
def _sync_reference(sync_syms: bytes, oversampling: int) -> tuple[np.ndarray, float]:
    """The oversampled sync subframe on the unrotated constellation, and its
    norm; ``sync_syms`` are the symbol indices as uint8 bytes."""
    ref = np.repeat(constellation()[np.frombuffer(sync_syms, np.uint8)], oversampling)
    return ref, float(np.linalg.norm(ref))


@dataclass(frozen=True)
class SyncResult:
    frame_start: int
    peak: float


def synchronize(
    wave: Waveform,
    sync_syms: np.ndarray,
    threshold: float = SYNC_THRESHOLD_DEFAULT,
) -> SyncResult:
    """Locate the frame start by normalized cross-correlation.

    The reference is the oversampled sync subframe on the unrotated
    constellation.  The peak is the correlation's magnitude normalized by
    the windowed signal energy, so it lies in [0, 1] and is insensitive to
    the channel gain and to any common phase rotation.  Every lag at
    which the reference fits inside ``wave`` is searched.

    A window of one lag is scored by one dot product against the signal
    energy.  A longer window is correlated at every lag by FFT, and
    peaks equal within float resolution resolve to the earliest lag.  A
    best peak below ``threshold``, or a NaN peak (from a NaN or infinite
    sample in the window), raises :class:`SyncError`.  Sync symbols
    other than integers in 0..7 raise :class:`ValueError`.
    """
    ref, ref_norm = _sync_reference(as_indices(sync_syms, 8, "sync symbols").tobytes(), wave.oversampling)
    r = wave.samples
    if r.size < ref.size:
        raise SyncError("waveform shorter than the sync reference")

    if r.size == ref.size:
        start = 0
        energy = np.vdot(r, r).real
        best = abs(np.vdot(ref, r)) / (math.sqrt(energy) * ref_norm) if energy > 0.0 else 0.0
    else:
        num = np.abs(fftconvolve(r, np.conj(ref[::-1])))
        csum = np.concatenate([[0.0], np.cumsum(np.abs(r) ** 2)])
        window_energy = csum[ref.size:] - csum[: r.size - ref.size + 1]
        # may round below zero; the where below scores a negative or NaN energy 0.0
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


# an overflow makes the energy or the gain infinite, which is refused below, unwarned
@np.errstate(over="ignore")
def estimate_channel(rx_pilot: np.ndarray, pilot_ref: np.ndarray) -> ChannelEstimate:
    """Single-tap least squares: gain = <ref, rx> / <ref, ref>.

    A reference whose energy <ref, ref> is zero, NaN or infinite (also
    when it overflows) raises :class:`ValueError`, as does a gain that is
    not finite.
    """
    rx_pilot = np.asarray(rx_pilot)
    pilot_ref = np.asarray(pilot_ref)
    if rx_pilot.shape != pilot_ref.shape or rx_pilot.size == 0:
        raise ValueError("pilot and reference must be equal-length, non-empty")
    denom = np.add.reduce(np.square(np.abs(pilot_ref)), axis=None)  # np.sum(np.abs(ref) ** 2)
    if not 0.0 < denom < math.inf:
        raise ValueError("pilot reference must have finite, nonzero energy")
    return ChannelEstimate(gain=complex(np.vdot(pilot_ref, rx_pilot) / denom))


def demodulate(samples: np.ndarray, phase_offset_deg: float = 0.0) -> tuple[np.ndarray, np.ndarray]:
    """Nearest-point 8PSK decisions; returns (bits, symbol indices).

    Decision regions are 45 deg wedges centred on the constellation
    points; a sample on a boundary belongs to the higher index.  A 2-D
    block gives each row's bits and indices in its own row.
    """
    theta = np.angle(samples, deg=True)
    if phase_offset_deg:
        theta = (theta - phase_offset_deg) % 360.0
    else:
        # angle() lies in [-180, 180], where adding 360 to the negative
        # half gives the same float as % 360; the rest gains 0.0, which
        # turns -0.0 into 0.0, and + 22.5 below makes both 22.5.  (A
        # masked add, ``where=theta < 0``, gives the same floats at six
        # times the cost.)
        theta += (theta < 0.0) * 360.0
    theta += 22.5
    theta /= 45.0
    # theta >= 0, so the cast truncates as floor would; & 7 is % 8.
    indices = theta.astype(np.uint8)
    indices &= 7
    bits = GRAY_BITS.take(indices, axis=0)
    return bits.reshape(*indices.shape[:-1], BITS_PER_SYMBOL * indices.shape[-1]), indices


class _FrameReference(NamedTuple):
    """What the receiver compares one frame format against."""

    train_ref: np.ndarray  # sync + pilot symbols on the unrotated constellation
    pilot_ref: np.ndarray
    pilot_power: float


@_frozen
def _frame_reference(layout: FrameLayout) -> _FrameReference:
    """The reference of a frame format, built once per format."""
    train_ref = constellation()[training_symbols(layout)]
    pilot_ref = train_ref[layout.pilot_slice]
    return _FrameReference(train_ref, pilot_ref, mean_power(pilot_ref))


@_frozen
def _point_power() -> np.ndarray:
    """|c|^2 of each constellation point, as :func:`mean_power` squares it."""
    power = np.abs(constellation())
    np.square(power, out=power)
    return power


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
):
    """Run the full chain on a waveform containing one frame.

    The frame is sought at each lag it fits behind; a waveform shorter
    than a frame raises :class:`SyncError`.  A constellation rotation at
    the transmitter ends up in ``estimate.gain``; ``eq_data`` lies on
    the unrotated constellation.  A frame found with a NaN or infinite
    mid-symbol sample raises :class:`SyncError` naming the first such
    symbol: it would decode to arbitrary symbols.

    A block of frames (a 2-D waveform, one frame per row) gives a list
    with one entry per row: its :class:`ReceivedFrame`, or the
    :class:`SyncError` its row raised.  Each row is synchronized, checked
    and its gain estimated on its own; the rows that passed are then
    equalized, sliced and demodulated together, and their frames hold
    rows of the block's arrays.
    """
    ovs = wave.oversampling
    ref = _frame_reference(layout)
    n = wave.samples.shape[-1]
    rows = wave.samples.reshape(-1, n)
    window = n - (layout.total_symbols - layout.sync_len) * ovs
    sync_syms = sync_symbols(layout.sync_len)
    outcomes: list = [None] * rows.shape[0]
    passed = []  # (row, sync, estimate) of each row that passed sync
    # equalized pilot and data sections of those rows; nothing reads the sync section's
    y_eq = np.empty((rows.shape[0], layout.pilot_len + layout.data_symbols), dtype=complex)
    for i, row in enumerate(rows):
        try:
            if n < layout.total_symbols * ovs:
                raise SyncError("waveform shorter than a full frame")
            sync = synchronize(Waveform(row[:window], ovs), sync_syms, threshold)
        except SyncError as exc:
            outcomes[i] = exc
            continue
        start = sync.frame_start + ovs // 2
        # mid-symbol samples, contiguous: np.vdot sums a strided view in another order
        y = np.ascontiguousarray(row[start : start + layout.total_symbols * ovs : ovs])
        # one sum: not finite for a NaN or infinite sample, or when the energy overflows
        if not math.isfinite(np.vdot(y, y).real) and not (finite := np.isfinite(y)).all():
            outcomes[i] = SyncError(f"symbol {finite.argmin()} of the frame has a non-finite sample")
            continue
        # Estimate over sync + pilot: with only the 32 pilot symbols the
        # estimate's own noise (1/32 of the sample noise) visibly inflates
        # BER on the steep part of the waterfall.
        estimate = estimate_channel(y[: ref.train_ref.size], ref.train_ref)
        np.divide(y[layout.sync_len:], estimate.gain, out=y_eq[len(passed)])
        passed.append((i, sync, estimate))
    y_eq = y_eq[: len(passed)]

    resid_power = mean_power(y_eq[:, : layout.pilot_len] - ref.pilot_ref).tolist()
    eq_data = y_eq[:, layout.pilot_len:]
    bits, symbols = demodulate(eq_data)
    for k, ((i, sync, estimate), resid) in enumerate(zip(passed, resid_power)):
        est_snr_db = math.inf if resid == 0.0 else 10.0 * math.log10(ref.pilot_power / resid)
        outcomes[i] = ReceivedFrame(sync, estimate, eq_data[k], bits[k], symbols[k], est_snr_db)
    if wave.samples.ndim > 1:
        return outcomes
    if isinstance(outcomes[0], SyncError):
        raise outcomes[0]
    return outcomes[0]


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


def measure(received, ref_bits: np.ndarray, ref_symbols: np.ndarray):
    """Error rates and EVM of one received frame against the truth.

    ``ref_bits`` are the Gray bits of ``ref_symbols`` (indices 0..7), as
    :func:`~metapsk.baseband.build_frame` pairs them.  Errors are counted
    from symbols: each decision adds its Gray distance to the sent
    symbol, which is the number of its bits that differ.

    A block's list, as :func:`receive_frame` returns it (a
    :class:`SyncError` at each row that failed sync), and one row of the
    truth per entry give one entry per row: that frame's metrics, or
    None where sync failed.  The passing frames are measured all at once.
    """
    if isinstance(received, ReceivedFrame):
        return measure([received], ref_bits, ref_symbols)[0]
    passed = [not isinstance(f, SyncError) for f in received]
    frames = [f for f, ok in zip(received, passed) if ok]
    ref_symbols = as_indices(ref_symbols, 8, "reference symbols")
    if not frames:
        return [None] * len(received)
    n_bits, n_syms = frames[0].bits.size, frames[0].symbols.size
    if (any(f.bits.size != n_bits or f.symbols.size != n_syms for f in frames)
            or np.size(ref_bits) != n_bits * len(received) or ref_symbols.size != n_syms * len(received)):
        raise ValueError("reference length does not match the received frame")
    ref_symbols = ref_symbols.reshape(len(received), n_syms)
    if len(frames) < len(received):  # a copy only when some row failed
        ref_symbols = ref_symbols[passed]
    # intp indices: numpy's take converts any other index type first
    symbols = np.concatenate([f.symbols for f in frames]).astype(np.intp).reshape(len(frames), n_syms)

    distance = GRAY_DISTANCE.take((symbols << 3) | ref_symbols)
    error = constellation().take(symbols)
    for row, frame in zip(error, frames):
        np.subtract(frame.eq_data, row, out=row)
    # mean_power(constellation()[symbols]), from each point's power
    nearest = np.add.reduce(_point_power().take(symbols), axis=1) / n_syms
    rows = zip(frames, np.add.reduce(distance, axis=1).tolist(),
               np.add.reduce(distance != 0, axis=1).tolist(),
               mean_power(error).tolist(), nearest.tolist())
    metrics = (
        LinkMetrics(
            ber=errors / n_bits,
            ser=wrong / n_syms,
            evm_rms_pct=math.sqrt(error_power / nearest_power) * 100.0,
            est_snr_db=frame.est_snr_db,
            bits_compared=n_bits,
            bit_errors=errors,
            symbol_errors=wrong,
            symbols_compared=n_syms,
        )
        for frame, errors, wrong, error_power, nearest_power in rows
    )
    return [next(metrics) if ok else None for ok in passed]
