"""Unit tests for the surface grid and far-field combining."""

import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from metapsk.cell import VoltagePhaseCurve, bias_voltage_table
from metapsk.surface import SurfaceGeometry, array_factor, uniform_reflection

from helpers import reflect_sample


def uniform_grid(voltage):
    """Every cell of the default 8 x 32 panel on one bias line."""
    return np.full((8, 32), float(voltage))


@pytest.fixture
def geometry():
    return SurfaceGeometry()


@pytest.fixture
def unit_curve():
    return VoltagePhaseCurve(amplitude=1.0)


class TestGeometry:
    def test_default_cell_count(self, geometry):
        assert geometry.n_cells == 256

    def test_pitch_is_a_sixth_of_wavelength(self, geometry):
        """0.012 m pitch at 4.25 GHz is about 0.17 wavelengths."""
        assert round(geometry.cell_pitch_m / geometry.wavelength_m, 2) == 0.17
        assert geometry.wavelength_m == pytest.approx(0.0705, abs=5e-4)

    def test_positions_are_centred(self, geometry):
        x, y = geometry.cell_positions()
        assert x.shape == (8, 32)
        assert x.sum() == pytest.approx(0.0, abs=1e-12)
        assert y.sum() == pytest.approx(0.0, abs=1e-12)
        np.testing.assert_allclose(np.diff(x, axis=1), geometry.cell_pitch_m)

    def test_bad_grid_rejected(self):
        with pytest.raises(ValueError):
            SurfaceGeometry(rows=0)
        for pitch in (0.0, -0.01):  # zero is the bound
            with pytest.raises(ValueError, match="cell_pitch_m must be positive"):
                SurfaceGeometry(cell_pitch_m=pitch)
        for freq in (0.0, -4.25e9):
            with pytest.raises(ValueError, match="carrier_freq_hz must be positive"):
                SurfaceGeometry(carrier_freq_hz=freq)

    @pytest.mark.parametrize("fields", [
        dict(cell_pitch_m=sys.float_info.max),  # the positions overflow
        dict(cell_pitch_m=1e300, carrier_freq_hz=1e300),  # the phases overflow
        dict(rows=10**400),  # an int too large for a float
    ])
    def test_panel_too_large_for_finite_phases_rejected(self, fields):
        with pytest.raises(ValueError, match="^the panel is too large"):
            SurfaceGeometry(**fields)


class TestReflectSample:
    def test_uniform_grid_equals_single_cell(self):
        curve = VoltagePhaseCurve()
        for v in [0.0, 7.5, 20.0]:
            got = reflect_sample(curve, uniform_grid(v))
            np.testing.assert_allclose(got, uniform_reflection(curve, np.array([v]))[0], rtol=1e-12)

    def test_uniform_symbol_zero_magnitude(self):
        """All cells at the symbol-0 bias reflect with the cell magnitude."""
        curve = VoltagePhaseCurve()
        assert round(abs(reflect_sample(curve, uniform_grid(curve.voltage_for_phase(0.0)))), 4) == 0.9220

    def test_opposed_halves_cancel(self, unit_curve):
        grid = uniform_grid(unit_curve.voltage_for_phase(0.0))
        grid[:, 16:] = unit_curve.voltage_for_phase(180.0)
        assert abs(reflect_sample(unit_curve, grid)) < 1e-12

    def test_linear_in_incident_amplitude(self, unit_curve):
        a = reflect_sample(unit_curve, uniform_grid(5.0), incident_amplitude=1.0)
        b = reflect_sample(unit_curve, uniform_grid(5.0), incident_amplitude=2.5)
        np.testing.assert_allclose(b, 2.5 * a, rtol=1e-12)

    @settings(max_examples=25)
    @given(seed=st.integers(0, 2**31 - 1))
    def test_magnitude_bounded_by_cell_amplitude(self, seed):
        """|surface sample| <= incident * cell amplitude for any bias grid."""
        rng = np.random.default_rng(seed)
        curve = VoltagePhaseCurve()
        grid = rng.uniform(0.0, 20.0, size=(8, 32))
        assert abs(reflect_sample(curve, grid)) <= curve.amplitude + 1e-12

    @pytest.mark.parametrize("voltage", [10.0, np.array(20.0)], ids=["float", "0-d"])
    def test_uniform_reflection_of_one_voltage(self, voltage):
        """A 0-d voltage gives a 0-d sample, the one-element array's bytes."""
        curve = VoltagePhaseCurve()
        got = uniform_reflection(curve, voltage, incident_amplitude=0.7)
        assert got.shape == ()
        one = uniform_reflection(curve, np.array([voltage]), incident_amplitude=0.7)
        assert got.tobytes() == one.tobytes()

    def test_uniform_reflection_matches_reflect_sample(self):
        curve = VoltagePhaseCurve()
        volts = np.array([0.0, 2.5, 11.0, 20.0])
        series = uniform_reflection(curve, volts, incident_amplitude=0.7)
        for v, s in zip(volts, series):
            np.testing.assert_allclose(s, reflect_sample(curve, uniform_grid(v), incident_amplitude=0.7),
                                       rtol=1e-12)


class TestArrayFactor:
    def test_uniform_broadside_peak(self, geometry):
        """Broadside is the peak of every cut."""
        for phi in (0.0, 45.0, 90.0, 137.0):
            cut = array_factor(geometry, 1.0, np.arange(0.0, 90.5, 0.5), phi)
            assert cut.argmax() == 0
            assert cut[0] == pytest.approx(1.0, rel=1e-12)

    def test_broadside_peak_scales_with_cell_magnitude(self, geometry):
        curve = VoltagePhaseCurve()
        assert array_factor(geometry, curve.amplitude, [0.0], 0.0)[0] == pytest.approx(curve.amplitude, rel=1e-12)

    def test_normalized_peak_is_unity(self):
        """The cut is |AF| / cells, so a unit-magnitude panel of any size peaks at 1."""
        for rows, cols in ((1, 1), (3, 5), (16, 16)):
            panel = SurfaceGeometry(rows=rows, cols=cols)
            assert array_factor(panel, 1.0, [0.0], 90.0)[0] == pytest.approx(1.0, rel=1e-12)

    def test_off_broadside_below_peak(self, geometry):
        assert array_factor(geometry, 1.0, [30.0], 0.0)[0] < 1.0

    def test_against_direct_summation(self, geometry):
        """The cut equals a plain double loop over cells biased for any of the eight symbols.

        The shared bias turns every cell's phase alike, so |AF| is the
        same for each symbol.
        """
        curve = VoltagePhaseCurve()
        thetas = [0.0, 12.5, 30.0, 90.0]
        k = 2.0 * math.pi / geometry.wavelength_m
        for phi_deg in (0.0, 137.0):
            phi = math.radians(phi_deg)
            got = array_factor(geometry, curve.amplitude, thetas, phi_deg)
            for gamma in uniform_reflection(curve, bias_voltage_table(curve)):
                direct = []
                for theta in map(math.radians, thetas):
                    acc = 0.0 + 0.0j
                    for r in range(8):
                        for c in range(32):
                            x = (c - 31 / 2) * 0.012
                            y = (r - 7 / 2) * 0.012
                            acc += gamma * np.exp(1j * k * math.sin(theta) * (x * math.cos(phi) + y * math.sin(phi)))
                    direct.append(abs(acc) / 256)
                np.testing.assert_allclose(got, direct, rtol=1e-10)

    def test_long_grid_matches_single_angles(self, geometry):
        """A grid longer than one block of angles gives each angle's own value."""
        thetas = np.linspace(0.0, 90.0, 2500)
        cut = array_factor(geometry, 0.5, thetas, 30.0)
        assert cut.shape == thetas.shape
        for i in (0, 1023, 1024, 2047, 2048, 2499):
            assert cut[i] == array_factor(geometry, 0.5, thetas[i:i + 1], 30.0)[0]

    def test_angle_domain_validated(self, geometry):
        for thetas in ([0.0, 90.1], [-0.1], [math.nan]):
            with pytest.raises(ValueError, match="theta_deg"):
                array_factor(geometry, 1.0, thetas, 0.0)
        for phi in (360.0, -1.0, math.nan):
            with pytest.raises(ValueError, match="phi_deg"):
                array_factor(geometry, 1.0, [0.0], phi)
