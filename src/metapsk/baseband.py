"""8PSK framing and complex-baseband waveform synthesis.

Two transmitter models share one frame format.  The conventional model
emits ideal unit-magnitude constellation points.  The surface model drives
a shared bias line through a first-order lag and reflects the carrier off
the cell grid, so its samples carry the cell amplitude and the finite
settling of the bias line.  Pulses are rectangular; each symbol is held
for ``oversampling`` samples and no shaping filter is applied.  The
symbol rate enters only through the bias lag's sample period
(:class:`RcDynamics`); the samples themselves carry no rate.

Symbols are plain integer indices 0..7; the transmitted phase of index k
is ``phase_offset_deg + k * 45 deg``.

The frame constants (constellation, sync and pilot symbols) are built
once per argument and shared: the functions that return them are
memoized on hashable arguments (an array goes in as its bytes) and
their arrays are read-only.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import lru_cache, wraps

import numpy as np

from .cell import PSK_STEP_DEG, RcDynamics, VoltagePhaseCurve, bias_voltage_table, voltage_trajectory
from .surface import uniform_reflection

BITS_PER_SYMBOL = 3
DATA_SUBFRAMES = 9


class TxMode(Enum):
    METASURFACE = "metasurface"
    CONVENTIONAL = "conventional"


# Gray labelling: bit triples of adjacent constellation points differ in
# exactly one position.  _GRAY_FROM_INDEX[k] is the bit word of symbol k
# and GRAY_BITS[k] its three bits, most significant first.  Bits and
# symbol indices are uint8 throughout: a block of frames holds several
# arrays of them at once.
_GRAY_FROM_INDEX = np.array([k ^ (k >> 1) for k in range(8)], dtype=np.uint8)
_INDEX_FROM_GRAY = np.argsort(_GRAY_FROM_INDEX).astype(np.uint8)
GRAY_BITS = (_GRAY_FROM_INDEX[:, None] >> np.array([2, 1, 0], dtype=np.uint8)) & 1
# GRAY_DISTANCE[8 * a + b]: how many bits of symbols a and b differ, so
# bit errors count from symbol decisions without expanding them to bits.
GRAY_DISTANCE = np.array([bin(int(_GRAY_FROM_INDEX[a] ^ _GRAY_FROM_INDEX[b])).count("1")
                          for a in range(8) for b in range(8)], dtype=np.uint8)
GRAY_BITS.flags.writeable = GRAY_DISTANCE.flags.writeable = False


def as_indices(values, n: int, what: str) -> np.ndarray:
    """``values`` as a flat uint8 array of indices below ``n``, a power of two up to 256.

    Raises :class:`ValueError` unless every value is an integer in
    0..n-1; nothing is rounded, so a float array is refused outright.
    The OR of all the values lies in 0..n-1 exactly when each value does,
    which checks them in one pass.
    """
    a = np.asarray(values).ravel()
    if a.size and (a.dtype.kind not in "biu" or not 0 <= np.bitwise_or.reduce(a) < n):
        raise ValueError(f"{what} must be integers in 0..{n - 1}")
    return a.astype(np.uint8, copy=False)


def bits_to_symbols(bits) -> np.ndarray:
    """Vectorized bit-triple to symbol-index mapping."""
    b = as_indices(bits, 2, "bits")
    if b.size % BITS_PER_SYMBOL != 0:
        raise ValueError("bit count must be a multiple of three")
    triples = b.reshape(-1, BITS_PER_SYMBOL)
    word = triples[:, 0] << 2
    word |= triples[:, 1] << 1
    word |= triples[:, 2]
    return _INDEX_FROM_GRAY.take(word)


def symbols_to_bits(symbols) -> np.ndarray:
    """Inverse of :func:`bits_to_symbols`; returns a flat bit array."""
    return GRAY_BITS.take(as_indices(symbols, 8, "symbol indices"), axis=0).ravel()


def mean_power(samples: np.ndarray):
    """Mean squared magnitude, ``float(np.mean(np.abs(samples) ** 2))``.

    The same sum and division np.mean makes for a float array, without
    its Python wrapper: this runs several times per frame.  A 2-D block
    gives an array with each row's mean, which equals the row's own call
    bit for bit: numpy sums each row along its contiguous last axis
    exactly as it sums a 1-D array.
    """
    power = np.abs(samples)
    np.square(power, out=power)
    means = np.add.reduce(power, axis=-1) / power.shape[-1]
    return float(means) if power.ndim == 1 else means


def _frozen(fn):
    """Memoize ``fn`` and make the arrays it returns, alone or in a tuple,
    read-only, so callers can share them.  The arguments are the cache
    keys, so they must be hashable values: an array goes in as its
    bytes, and one changed in place then gives a new key."""
    @lru_cache(maxsize=64)
    @wraps(fn)
    def cached(*args, **kwargs):
        out = fn(*args, **kwargs)
        for array in out if isinstance(out, tuple) else (out,):
            if isinstance(array, np.ndarray):
                array.flags.writeable = False
        return out
    return cached


@_frozen
def constellation(phase_offset_deg: float = 0.0) -> np.ndarray:
    """The eight ideal unit-magnitude constellation points, index order."""
    phases = np.deg2rad(phase_offset_deg + PSK_STEP_DEG * np.arange(8))
    return np.exp(1j * phases)


# Sync preamble: a fixed maximal-length PN sequence, BPSK inside the 8PSK
# alphabet (chip 0 -> symbol 0, chip 1 -> symbol 4).  The LFSR register
# load below is part of the frame format and must not change.
SYNC_LFSR_TAPS = (6, 5)  # x^6 + x^5 + 1, maximal length 63
SYNC_LFSR_SEED = 0b100101


@_frozen
def pn_chips(length: int) -> np.ndarray:
    """First ``length`` chips of the sync LFSR sequence, extended cyclically.

    ``SYNC_LFSR_TAPS`` are the nonzero exponents of the feedback polynomial
    besides the constant term, so (6, 5) realizes a(n+6) = a(n+5) xor a(n).
    """
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


@_frozen
def sync_symbols(length: int) -> np.ndarray:
    """Symbol indices of the sync subframe (antipodal pair 0 / 4)."""
    return pn_chips(length) * 4


@_frozen
def pilot_symbols(length: int) -> np.ndarray:
    """Symbol indices of the pilot subframe, cycling all eight points."""
    return np.arange(length, dtype=np.int64) % 8


@dataclass(frozen=True)
class FrameLayout:
    """Symbol counts of the fixed frame: sync, pilot, nine data subframes."""

    sync_len: int = 64
    pilot_len: int = 32
    data_len: int = 256

    def __post_init__(self) -> None:
        if min(self.sync_len, self.pilot_len, self.data_len) < 1:
            raise ValueError("subframe lengths must be positive")

    @property
    def data_symbols(self) -> int:
        return DATA_SUBFRAMES * self.data_len

    @property
    def total_symbols(self) -> int:
        return self.sync_len + self.pilot_len + self.data_symbols

    @property
    def payload_bits(self) -> int:
        return BITS_PER_SYMBOL * self.data_symbols

    @property
    def pilot_slice(self) -> slice:
        return slice(self.sync_len, self.sync_len + self.pilot_len)


@_frozen
def training_symbols(layout: FrameLayout) -> np.ndarray:
    """Symbol indices of the known head of every frame: sync, then pilot."""
    return np.concatenate([sync_symbols(layout.sync_len), pilot_symbols(layout.pilot_len)])


@dataclass(frozen=True)
class Frame:
    """One frame's symbol indices, or a block of frames' with a leading row axis."""

    layout: FrameLayout
    symbols: np.ndarray

    def data_symbols(self) -> np.ndarray:
        return self.symbols[..., -self.layout.data_symbols :]  # the frame's tail


def build_frame(payload_bits, layout: FrameLayout = FrameLayout()) -> Frame:
    """Assemble sync + pilot + payload into one frame of symbol indices.

    A ``(B, payload_bits)`` array is a block of B payloads, and gives a
    block of B frames, one per row.
    """
    payload_bits = np.asarray(payload_bits)
    if payload_bits.ndim not in (1, 2) or payload_bits.shape[-1] != layout.payload_bits:
        raise ValueError(f"payload must be exactly {layout.payload_bits} bits per frame, "
                         f"got shape {payload_bits.shape}")
    train = training_symbols(layout)
    symbols = np.empty((*payload_bits.shape[:-1], layout.total_symbols), dtype=np.uint8)
    symbols[..., :train.size] = train
    symbols[..., train.size:] = bits_to_symbols(payload_bits).reshape(symbols.shape[:-1] + (-1,))
    return Frame(layout, symbols)


@dataclass(frozen=True)
class Waveform:
    """Complex baseband samples, ``oversampling`` per symbol.

    A 2-D ``samples`` array is a block of frames, one per row.
    """

    samples: np.ndarray
    oversampling: int

    def __post_init__(self) -> None:
        if self.oversampling < 1:
            raise ValueError("oversampling must be >= 1")
        object.__setattr__(self, "samples", np.asarray(self.samples, dtype=complex))


def synthesize(
    frame: Frame,
    mode: TxMode,
    curve: VoltagePhaseCurve,
    rc: RcDynamics,
    oversampling: int,
    phase_offset_deg: float = 0.0,
    incident_amplitude: float = 1.0,
) -> Waveform:
    """Render a frame to baseband samples under the selected transmitter.

    The caller builds ``rc`` for the symbol rate, with a sample period
    of 1 / (symbol_rate * oversampling); the lag is the only place the
    symbol rate acts on the samples.  A block of frames gives a block of
    waveforms, one per row; the surface runs each row's lag on its own.
    """
    if oversampling < 1:
        raise ValueError("oversampling must be >= 1")
    if mode is TxMode.CONVENTIONAL:
        samples = constellation(phase_offset_deg).take(frame.symbols)
        if oversampling > 1:
            samples = np.repeat(samples, oversampling, axis=-1)
    elif mode is TxMode.METASURFACE:
        volts = bias_voltage_table(curve, phase_offset_deg)
        rows = [voltage_trajectory(rc, volts, row, oversampling)
                for row in frame.symbols.reshape(-1, frame.symbols.shape[-1])]
        # one row is reshaped, not copied: frames that long run one at a time
        trajectory = np.stack(rows) if len(rows) > 1 else rows[0].reshape(*frame.symbols.shape[:-1], -1)
        samples = uniform_reflection(curve, trajectory, incident_amplitude)
    else:
        raise ValueError(f"unknown mode {mode!r}")
    return Waveform(samples, oversampling)
