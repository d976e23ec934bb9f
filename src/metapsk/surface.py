"""Cell grid: geometry, combined baseband reflection, far-field pattern.

The surface is a rows-by-cols grid of identical cells on a uniform pitch,
fed by a plane wave at the carrier frequency.  For the link simulation the
quantity of interest is the complex baseband sample the whole surface
returns, which under plane-wave feed is just the mean of the per-cell
reflections.  The far-field array factor is exposed separately for
pattern checks; the link path never integrates over angle.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .cell import VoltagePhaseCurve, voltage_to_reflection

speed_of_light = 299_792_458.0  # m/s, exact by the SI definition of the metre


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


@dataclass(frozen=True)
class SurfaceState:
    """A geometry plus the bias voltage currently applied to each cell."""

    geometry: SurfaceGeometry
    curve: VoltagePhaseCurve
    voltages: np.ndarray

    def __post_init__(self) -> None:
        v = np.asarray(self.voltages, dtype=float)
        if v.shape != (self.geometry.rows, self.geometry.cols):
            raise ValueError(
                f"voltage grid shape {v.shape} does not match "
                f"({self.geometry.rows}, {self.geometry.cols})"
            )
        object.__setattr__(self, "voltages", v)


def uniform_state(geometry: SurfaceGeometry, curve: VoltagePhaseCurve, voltage: float) -> SurfaceState:
    """All cells on one shared bias line, as in the modulation test setup."""
    grid = np.full((geometry.rows, geometry.cols), float(voltage))
    return SurfaceState(geometry, curve, grid)


def uniform_reflection(curve: VoltagePhaseCurve, voltages, incident_amplitude: float = 1.0) -> np.ndarray:
    """Reflected sample series when every cell shares one bias line.

    Under plane-wave feed the surface returns the mean of its cell
    reflections, and the mean of identical cells is the single-cell
    reflection, so this is that sample vectorized over a voltage time
    series.
    """
    gamma = voltage_to_reflection(curve, np.asarray(voltages, dtype=float))
    return incident_amplitude * gamma


def array_factor(state: SurfaceState, theta_deg: float, phi_deg: float, normalized: bool = False) -> complex:
    """Far-field array factor of the current surface state.

    theta is measured from broadside (0..90 deg), phi in the surface plane
    (0..360 deg).  ``normalized`` divides by the cell count so a uniform
    unit-magnitude state peaks at 1.
    """
    if not 0.0 <= theta_deg <= 90.0:
        raise ValueError("theta_deg must lie in [0, 90]")
    if not 0.0 <= phi_deg < 360.0:
        raise ValueError("phi_deg must lie in [0, 360)")
    x, y = state.geometry.cell_positions()
    gamma = voltage_to_reflection(state.curve, state.voltages)
    k = 2.0 * np.pi / state.geometry.wavelength_m
    theta = np.deg2rad(theta_deg)
    phi = np.deg2rad(phi_deg)
    phase = k * np.sin(theta) * (x * np.cos(phi) + y * np.sin(phi))
    af = np.sum(gamma * np.exp(1j * phase))
    if normalized:
        af = af / state.geometry.n_cells
    return complex(af)


def array_factor_cut(state: SurfaceState, theta_deg_values, phi_deg: float, normalized: bool = True) -> np.ndarray:
    """Magnitudes of the array factor along a constant-phi cut."""
    return np.array(
        [abs(array_factor(state, float(t), phi_deg, normalized=normalized)) for t in theta_deg_values]
    )


def write_array_factor_csv(path, state: SurfaceState, theta_deg_values, phi_deg_values, normalized: bool = True) -> None:
    """Export |AF| in dB over a (theta, phi) grid.

    Magnitudes are floored at 1e-12 before the log so nulls stay finite.
    """
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["theta_deg", "phi_deg", "magnitude_db"])
        for phi in phi_deg_values:
            for theta in theta_deg_values:
                mag = abs(array_factor(state, float(theta), float(phi), normalized=normalized))
                mag_db = 20.0 * np.log10(max(mag, 1e-12))
                writer.writerow([f"{theta:.6g}", f"{phi:.6g}", f"{mag_db:.6f}"])
