"""Cell grid: geometry, combined baseband reflection, far-field pattern.

The surface is a rows-by-cols grid of identical cells on a uniform pitch,
all driven by one bias line and fed by a plane wave at the carrier
frequency.  For the link simulation the quantity of interest is the
complex baseband sample the whole surface returns, which under
plane-wave feed is the mean of the per-cell reflections, i.e. the
single-cell reflection: :func:`uniform_reflection`, the one place a
bias voltage becomes a reflection.  The far-field array factor is
exposed separately for pattern checks; the link path never integrates
over angle.  The cell's reflection magnitude is flat over bias, so the
bias only turns the phase of the whole pattern: |AF| depends on the
geometry and the cell magnitude alone.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .cell import VoltagePhaseCurve

speed_of_light = 299_792_458.0  # m/s, exact by the SI definition of the metre
# array_factor sums blocks of this many angles at a time, so its
# (angles x cells) phase matrix stays a few MB however fine the theta grid.
_ANGLES_PER_BLOCK = 1024


@dataclass(frozen=True)
class SurfaceGeometry:
    rows: int = 8
    cols: int = 32
    cell_pitch_m: float = 0.012
    carrier_freq_hz: float = 4.25e9

    def __post_init__(self) -> None:
        if self.rows < 1 or self.cols < 1:
            raise ValueError("grid must have at least one cell")
        if self.cell_pitch_m <= 0:
            raise ValueError("cell_pitch_m must be positive")
        if self.carrier_freq_hz <= 0:
            raise ValueError("carrier_freq_hz must be positive")
        # a cell's |x| + |y| in metres and array_factor's phases are at most (rows + cols) spans
        span = self.cell_pitch_m * max(1.0, 2.0 * math.pi / speed_of_light * self.carrier_freq_hz)
        if not self.rows + self.cols <= sys.float_info.max / span:  # ints too, unconverted
            raise ValueError("the panel is too large: its cell positions or phases are not finite")

    @property
    def n_cells(self) -> int:
        return self.rows * self.cols

    @property
    def wavelength_m(self) -> float:
        return speed_of_light / self.carrier_freq_hz

    def cell_positions(self) -> tuple[np.ndarray, np.ndarray]:
        """Centre-referenced (x, y) coordinates of every cell, in metres.

        x runs along columns, y along rows; both arrays have shape
        (rows, cols).
        """
        x = (np.arange(self.cols) - (self.cols - 1) / 2.0) * self.cell_pitch_m
        y = (np.arange(self.rows) - (self.rows - 1) / 2.0) * self.cell_pitch_m
        return np.meshgrid(x, y)


def uniform_reflection(curve: VoltagePhaseCurve, voltages, incident_amplitude: float = 1.0) -> np.ndarray:
    """Reflected sample series when every cell shares one bias line.

    Under plane-wave feed the surface returns the mean of its cell
    reflections, and the mean of identical cells is the single-cell
    reflection, so this is that sample vectorized over a voltage array:
    ``incident_amplitude * curve.amplitude * exp(1j * curve.phase_deg(v))``
    (in radians), out-of-range voltages clamped.
    """
    phase = np.asarray(curve.phase_deg(voltages))  # an array for 0-d input too, to write into
    np.deg2rad(phase, out=phase)
    # cos + i sin written into one array and scaled in place: amplitude *
    # exp(1j * phase) bit for bit, without a complex exponential.  Over
    # flat views: numpy writes the strided real and imaginary parts of a
    # 2-D array (a block of frames) more slowly, with the same values.
    gamma = np.empty(phase.shape, dtype=complex)
    flat = gamma.reshape(-1)
    np.cos(phase.reshape(-1), out=flat.real)
    np.sin(phase.reshape(-1), out=flat.imag)
    # two multiplies, not one by their product, which rounds differently
    gamma *= curve.amplitude
    gamma *= incident_amplitude
    return gamma


def array_factor(geometry: SurfaceGeometry, amplitude: float, theta_deg, phi_deg: float) -> np.ndarray:
    """|AF| / cells along a constant-phi cut of the uniformly biased panel.

    theta is measured from broadside (0..90 deg), phi in the surface plane
    (0..360 deg).  Every cell shares one bias line, so the bias turns the
    whole pattern's phase and leaves |AF| to the geometry and the cell
    magnitude ``amplitude``; a unit-magnitude panel peaks at 1.
    """
    theta_deg = np.asarray(theta_deg, dtype=float)
    if not np.all((theta_deg >= 0.0) & (theta_deg <= 90.0)):
        raise ValueError("theta_deg must lie in [0, 90]")
    if not 0.0 <= phi_deg < 360.0:
        raise ValueError("phi_deg must lie in [0, 360)")
    x, y = geometry.cell_positions()
    phi = np.deg2rad(phi_deg)
    along_cut = (x * np.cos(phi) + y * np.sin(phi)).ravel()
    scale = 2.0 * np.pi / geometry.wavelength_m * np.sin(np.deg2rad(theta_deg))
    return np.concatenate([
        np.abs(np.sum(amplitude * np.exp(1j * (block[:, None] * along_cut)), axis=1) / geometry.n_cells)
        for block in np.split(scale, range(_ANGLES_PER_BLOCK, scale.size, _ANGLES_PER_BLOCK))
    ])
