"""Single reflecting-cell model: load impedance, bias curve, control lag.

A cell is a radiating patch terminated by a voltage-tunable load.  Moving
the bias voltage walks the load impedance around the Smith chart, which
rotates the phase of the reflection coefficient while its magnitude stays
roughly flat.  Over the usable bias range the phase response is close
enough to linear that a two-point calibration (phase at v_min, total span)
captures it, and that linear curve is what the rest of the simulator uses.

The bias-line lag runs as an IIR filter pass (``scipy.signal.lfilter``),
imported on the first call with a nonzero lag: an ideal driver, and a
process that never synthesizes a surface frame, load numpy alone.

Conventions: voltages in volts, phases in degrees, times in seconds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

Z0_FREE_SPACE = 377.0  # ohm, wave impedance the cells are matched against

PSK_ORDER = 8
PSK_STEP_DEG = 360.0 / PSK_ORDER


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
        """Reflection phase for a bias voltage, clamped to the bias range."""
        v = np.clip(voltage, self.v_min, self.v_max)
        frac = (v - self.v_min) / (self.v_max - self.v_min)
        return self.phase_at_vmin_deg + self.phase_span_deg * frac

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
    phase = np.deg2rad(curve.phase_deg(voltage))
    # i sin + cos, scaled in place: amplitude * exp(1j * phase) bit for
    # bit, without evaluating a complex exponential
    gamma = 1j * np.sin(phase)
    gamma += np.cos(phase)
    gamma *= curve.amplitude
    if np.ndim(voltage) == 0:
        return complex(gamma)
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


def voltage_trajectory(rc: RcDynamics, targets, v_init: float) -> np.ndarray:
    """Run the lag over a per-sample target sequence.

    Each sample moves the voltage toward its target,
    ``v = target + (v - target) * rc.alpha``, computed as a single IIR
    filter pass.
    """
    targets = np.asarray(targets, dtype=float)
    a = rc.alpha
    if a == 0.0:
        return targets.copy()
    from scipy.signal import lfilter  # loaded only by a lagging cell

    out, _ = lfilter([1.0 - a], [1.0, -a], targets, zi=np.array([a * v_init]))
    return out
