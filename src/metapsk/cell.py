"""Single reflecting-cell model: load impedance, bias curve, control lag.

A cell is a radiating patch terminated by a voltage-tunable load.  Moving
the bias voltage walks the load impedance around the Smith chart, which
rotates the phase of the reflection coefficient while its magnitude stays
roughly flat.  Over the usable bias range the phase response is close
enough to linear that a two-point calibration (phase at v_min, total span)
captures it, and that linear curve is what the rest of the simulator uses.

The bias-line lag is a first-order recurrence over the samples, run in
numpy alone.  Its state is looked up per symbol history in a table built
once per frame format, checked symbol by symbol and repaired where the
table is off, so the result is the plain sample-by-sample recurrence bit
for bit.

Conventions: voltages in volts, phases in degrees, times in seconds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

Z0_FREE_SPACE = 377.0  # ohm, wave impedance the cells are matched against

PSK_ORDER = 8
PSK_STEP_DEG = 360.0 / PSK_ORDER

# The lag table holds a symbol's entry and exit state for every history of
# this many earlier symbols: 8**5 = 32,768 keys, 512 KB.
_LAG_HISTORY = 4
# Vectorized repair rounds before the lag walks the rest of the frame one
# sample at a time; a line needs about one round per symbol it remembers
# to within a rounding, and a walk is cheaper than ~30 rounds, so a line
# that remembers more symbols than this is walked from the start.
_LAG_REPAIR_ROUNDS = 32


def reflection_coefficient(z_load: complex, z_ref: complex = Z0_FREE_SPACE) -> complex:
    """Reflection coefficient of a load against a reference impedance.

    Gamma = (z_load - z_ref) / (z_load + z_ref).  Passive loads
    (non-negative resistance) always give |Gamma| <= 1.
    """
    z_load = complex(z_load)
    z_ref = complex(z_ref)
    denom = z_load + z_ref
    if denom == 0:
        raise ValueError("degenerate pair: z_load + z_ref must be nonzero")
    return (z_load - z_ref) / denom


@dataclass(frozen=True)
class VoltagePhaseCurve:
    """Linear bias-voltage to reflection-phase calibration for one cell.

    The span must cover at least a full turn so that all eight PSK phases
    are reachable.  ``amplitude`` is the flat reflection magnitude, i.e.
    sqrt of the power reflectivity.
    """

    v_min: float = 0.0
    v_max: float = 20.0
    phase_at_vmin_deg: float = -180.0
    phase_span_deg: float = 360.0
    amplitude: float = math.sqrt(0.85)

    def __post_init__(self) -> None:
        if not self.v_min < self.v_max:
            raise ValueError("require v_min < v_max")
        if self.phase_span_deg < 360.0:
            raise ValueError("phase span must cover at least 360 deg")
        if not 0.0 < self.amplitude <= 1.0:
            raise ValueError("amplitude must lie in (0, 1]")

    def phase_deg(self, voltage):
        """Reflection phase for a bias voltage, clamped to the bias range.

        ``phase_at_vmin + span * (v - v_min) / (v_max - v_min)``, worked in
        place on the array ``np.clip`` returns.
        """
        phase = np.clip(np.asarray(voltage, dtype=float), self.v_min, self.v_max)
        phase -= self.v_min
        phase /= self.v_max - self.v_min
        phase *= self.phase_span_deg
        phase += self.phase_at_vmin_deg
        return phase

    def voltage_for_phase(self, phase_deg: float) -> float:
        """Bias voltage whose reflection phase equals ``phase_deg``.

        The target is reduced into the branch starting at
        ``phase_at_vmin_deg``, so the result always lands inside the
        bias range even when the span exceeds one turn.
        """
        branch = (phase_deg - self.phase_at_vmin_deg) % 360.0
        frac = branch / self.phase_span_deg
        return self.v_min + frac * (self.v_max - self.v_min)


def voltage_to_reflection(curve: VoltagePhaseCurve, voltage):
    """Complex reflection sample(s) for bias voltage(s) on ``curve``.

    Accepts scalars or arrays; out-of-range voltages are clamped.
    """
    phase = curve.phase_deg(np.atleast_1d(voltage))
    np.deg2rad(phase, out=phase)
    # cos + i sin written into one array and scaled in place: amplitude *
    # exp(1j * phase) bit for bit, without a complex exponential.  Over
    # flat views: numpy writes the strided real and imaginary parts of a
    # 2-D array (a block of frames) more slowly, with the same values.
    gamma = np.empty(phase.shape, dtype=complex)
    flat = gamma.reshape(-1)
    np.cos(phase.reshape(-1), out=flat.real)
    np.sin(phase.reshape(-1), out=flat.imag)
    gamma *= curve.amplitude
    if np.ndim(voltage) == 0:
        return complex(gamma[0])
    return gamma


def bias_voltage_table(curve: VoltagePhaseCurve, phase_offset_deg: float = 0.0) -> np.ndarray:
    """Index-ordered bias voltages hitting the PSK phases ``offset + k * 45 deg``."""
    return np.array([curve.voltage_for_phase(phase_offset_deg + k * PSK_STEP_DEG)
                     for k in range(PSK_ORDER)])


@dataclass(frozen=True)
class RcDynamics:
    """First-order lag of the bias line, stepped at a fixed sample period.

    ``tau_s == 0`` models an ideal driver that settles within one sample.
    """

    tau_s: float
    sample_period_s: float

    def __post_init__(self) -> None:
        if self.tau_s < 0:
            raise ValueError("tau_s must be non-negative")
        if self.sample_period_s <= 0:
            raise ValueError("sample_period_s must be positive")

    @property
    def alpha(self) -> float:
        """Per-sample residual factor exp(-Ts / tau); zero when tau == 0."""
        if self.tau_s == 0.0:
            return 0.0
        return math.exp(-self.sample_period_s / self.tau_s)


def _settle(state: np.ndarray, charge: np.ndarray, oversampling: int, a: float) -> np.ndarray:
    """Lag states after one symbol: ``oversampling`` samples of ``y = z + charge``, ``z = a * y``."""
    state = state.copy()
    for _ in range(oversampling):
        state += charge
        state *= a
    return state


def _walk(state: float, charge: np.ndarray, oversampling: int, a: float) -> list[float]:
    """Entry states of consecutive symbols from a known first entry, one sample at a time."""
    entries, state = [], float(state)
    for c in charge.tolist():
        entries.append(state)
        for _ in range(oversampling):
            state = a * (state + c)
    return entries


@lru_cache(maxsize=8)
def _lag_table(levels: bytes, oversampling: int, a: float) -> tuple[np.ndarray, np.ndarray]:
    """Entry and exit state of a symbol for every history of ``_LAG_HISTORY + 1`` symbols.

    The key is the history in base 8, oldest symbol first; the line
    starts settled at the oldest symbol's level.  Built once per (levels,
    oversampling, a), prefix by prefix.
    """
    levels = np.frombuffer(levels)
    charge = (1.0 - a) * levels
    exit_state = _settle(a * levels, charge, oversampling, a)
    for _ in range(_LAG_HISTORY):
        entry = np.repeat(exit_state, PSK_ORDER)
        exit_state = _settle(entry, np.tile(charge, exit_state.size), oversampling, a)
    entry.flags.writeable = exit_state.flags.writeable = False
    return entry, exit_state


def voltage_trajectory(rc: RcDynamics, levels, symbols, oversampling: int) -> np.ndarray:
    """Per-sample bias voltages driving ``symbols`` through the lag.

    ``levels`` is the 8-entry bias table; each symbol holds its level for
    ``oversampling`` samples, and the line starts settled at the first
    symbol's level.  Each sample is ``y = z + (1 - a) * target``, then
    ``z = a * y``, with ``a = rc.alpha``: the two roundings of
    ``lfilter([1 - a], [1, -a], targets, zi=[a * targets[0]])``, whose
    result this equals bit for bit.

    The state entering each symbol is looked up in the lag table by the
    symbol's history.  Where the first sample it gives differs from the
    one the previous symbol's exit state gives, the entry is replaced and
    the exit recomputed, in vectorized rounds; after
    ``_LAG_REPAIR_ROUNDS`` rounds the rest of the frame is walked one
    sample at a time.  A line that remembers more symbols than that (the
    smallest m with ``(a**oversampling)**m < 2**-53``) is walked from
    the first symbol.  A symbol's first sample fixes all its samples and
    its exit, so by induction from the first symbol every sample is
    exact, and one pass of ``oversampling`` steps over all symbols gives
    them.
    """
    a = rc.alpha
    levels = np.asarray(levels, dtype=float)
    if levels.shape != (PSK_ORDER,):
        raise ValueError(f"levels must hold {PSK_ORDER} voltages")
    symbols = np.asarray(symbols)
    n = symbols.size
    charge = ((1.0 - a) * levels).take(symbols)
    start = a * levels[symbols[0]]
    if (a**oversampling) ** _LAG_REPAIR_ROUNDS >= 2.0**-53:
        entry = np.array(_walk(start, charge, oversampling, a))
    else:
        entry = _table_entries(a, levels, symbols, charge, start, oversampling)
    out = np.empty((n, oversampling))
    for k in range(oversampling):
        np.add(entry, charge, out=out[:, k])
        np.multiply(out[:, k], a, out=entry)
    return out.ravel()


def _table_entries(a: float, levels: np.ndarray, symbols: np.ndarray, charge: np.ndarray,
                   start: float, oversampling: int) -> np.ndarray:
    """Each symbol's entry state, looked up by history in the lag table and repaired."""
    n = symbols.size
    # intp throughout: or-ing narrower indices into the keys casts them on every pass
    history = np.concatenate((np.full(_LAG_HISTORY, symbols[0]), symbols)).astype(np.intp, copy=False)
    keys = history[:n].copy()
    for shift in range(1, _LAG_HISTORY + 1):
        keys <<= 3
        keys |= history[shift:shift + n]
    table_entry, table_exit = _lag_table(levels.tobytes(), oversampling, a)
    entry, exit_state = table_entry[keys], table_exit[keys]
    for repair_round in range(_LAG_REPAIR_ROUNDS + 1):
        before = np.concatenate(([start], exit_state[:-1]))
        # A symbol whose first sample is right is right throughout.
        bad = np.flatnonzero((entry + charge).view(np.int64) != (before + charge).view(np.int64))
        if not bad.size:
            break
        if repair_round == _LAG_REPAIR_ROUNDS:
            entry[bad[0]:] = _walk(before[bad[0]], charge[bad[0]:], oversampling, a)
            break
        entry[bad] = before[bad]
        exit_state[bad] = _settle(entry[bad], charge[bad], oversampling, a)
    return entry
