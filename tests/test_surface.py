"""Unit tests for the surface grid and far-field combining."""

import csv
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from metapsk.cell import VoltagePhaseCurve, voltage_to_reflection
from metapsk.surface import (
    SurfaceGeometry,
    SurfaceState,
    array_factor,
    array_factor_cut,
    uniform_reflection,
    uniform_state,
    write_array_factor_csv,
)

from helpers import reflect_sample


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
        with pytest.raises(ValueError):
            SurfaceGeometry(cell_pitch_m=-0.01)

    def test_voltage_grid_shape_checked(self, geometry, unit_curve):
        with pytest.raises(ValueError):
            SurfaceState(geometry, unit_curve, np.zeros((4, 4)))


class TestReflectSample:
    def test_uniform_grid_equals_single_cell(self, geometry):
        curve = VoltagePhaseCurve()
        for v in [0.0, 7.5, 20.0]:
            state = uniform_state(geometry, curve, v)
            got = reflect_sample(state)
            np.testing.assert_allclose(got, voltage_to_reflection(curve, v), rtol=1e-12)

    def test_uniform_symbol_zero_magnitude(self, geometry):
        """All cells at the symbol-0 bias reflect with the cell magnitude."""
        curve = VoltagePhaseCurve()
        state = uniform_state(geometry, curve, curve.voltage_for_phase(0.0))
        assert round(abs(reflect_sample(state)), 4) == 0.9220

    def test_opposed_halves_cancel(self, geometry, unit_curve):
        v0 = unit_curve.voltage_for_phase(0.0)
        v180 = unit_curve.voltage_for_phase(180.0)
        grid = np.full((8, 32), v0)
        grid[:, 16:] = v180
        state = SurfaceState(geometry, unit_curve, grid)
        assert abs(reflect_sample(state)) < 1e-12

    def test_linear_in_incident_amplitude(self, geometry, unit_curve):
        state = uniform_state(geometry, unit_curve, 5.0)
        a = reflect_sample(state, incident_amplitude=1.0)
        b = reflect_sample(state, incident_amplitude=2.5)
        np.testing.assert_allclose(b, 2.5 * a, rtol=1e-12)

    @settings(max_examples=25)
    @given(seed=st.integers(0, 2**31 - 1))
    def test_magnitude_bounded_by_cell_amplitude(self, seed):
        """|surface sample| <= incident * cell amplitude for any state."""
        rng = np.random.default_rng(seed)
        geometry = SurfaceGeometry()
        curve = VoltagePhaseCurve()
        grid = rng.uniform(0.0, 20.0, size=(8, 32))
        state = SurfaceState(geometry, curve, grid)
        assert abs(reflect_sample(state)) <= curve.amplitude + 1e-12

    def test_uniform_reflection_matches_reflect_sample(self, geometry):
        curve = VoltagePhaseCurve()
        volts = np.array([0.0, 2.5, 11.0, 20.0])
        series = uniform_reflection(curve, volts, incident_amplitude=0.7)
        for v, s in zip(volts, series):
            state = uniform_state(geometry, curve, v)
            np.testing.assert_allclose(s, reflect_sample(state, incident_amplitude=0.7), rtol=1e-12)


class TestArrayFactor:
    def test_uniform_broadside_peak(self, geometry, unit_curve):
        state = uniform_state(geometry, unit_curve, 5.0)
        af = array_factor(state, 0.0, 0.0)
        assert abs(af) == pytest.approx(256.0, rel=1e-12)

    def test_broadside_peak_scales_with_cell_magnitude(self, geometry):
        curve = VoltagePhaseCurve()
        state = uniform_state(geometry, curve, 5.0)
        assert abs(array_factor(state, 0.0, 0.0)) == pytest.approx(256.0 * curve.amplitude, rel=1e-12)

    def test_normalized_peak_is_unity(self, geometry, unit_curve):
        state = uniform_state(geometry, unit_curve, 5.0)
        assert abs(array_factor(state, 0.0, 0.0, normalized=True)) == pytest.approx(1.0, rel=1e-12)

    def test_off_broadside_below_peak(self, geometry, unit_curve):
        state = uniform_state(geometry, unit_curve, 5.0)
        assert abs(array_factor(state, 30.0, 0.0)) < 256.0

    def test_against_direct_summation(self, geometry, unit_curve):
        """Vectorized AF equals a plain double loop over cells."""
        state = uniform_state(geometry, unit_curve, 5.0)
        theta, phi = math.radians(30.0), 0.0
        lam = geometry.wavelength_m
        k = 2.0 * math.pi / lam
        gamma = voltage_to_reflection(unit_curve, 5.0)
        acc = 0.0 + 0.0j
        for r in range(8):
            for c in range(32):
                x = (c - 31 / 2) * 0.012
                y = (r - 7 / 2) * 0.012
                acc += gamma * np.exp(1j * k * math.sin(theta) * (x * math.cos(phi) + y * math.sin(phi)))
        np.testing.assert_allclose(array_factor(state, 30.0, 0.0), acc, rtol=1e-10)

    @given(
        offset=st.floats(min_value=0.0, max_value=360.0, exclude_max=True),
        theta=st.floats(min_value=0.0, max_value=90.0),
    )
    def test_common_phase_leaves_magnitude(self, offset, theta):
        """Adding the same phase to every cell does not change |AF|."""
        geometry = SurfaceGeometry()
        curve = VoltagePhaseCurve(amplitude=1.0)
        base = uniform_state(geometry, curve, 0.0)
        shifted = uniform_state(geometry, curve, curve.voltage_for_phase(curve.phase_at_vmin_deg + offset))
        a = abs(array_factor(base, theta, 45.0))
        b = abs(array_factor(shifted, theta, 45.0))
        assert a == pytest.approx(b, abs=1e-9 * 256)

    def test_angle_domain_validated(self, geometry, unit_curve):
        state = uniform_state(geometry, unit_curve, 5.0)
        with pytest.raises(ValueError):
            array_factor(state, 90.1, 0.0)
        with pytest.raises(ValueError):
            array_factor(state, 0.0, 360.0)

    def test_cut_and_csv_export(self, geometry, unit_curve, tmp_path):
        state = uniform_state(geometry, unit_curve, 5.0)
        thetas = np.arange(0.0, 91.0, 15.0)
        mags = array_factor_cut(state, thetas, 0.0)
        assert mags[0] == pytest.approx(1.0, rel=1e-12)
        out = tmp_path / "pattern.csv"
        write_array_factor_csv(out, state, thetas, [0.0, 90.0])
        with open(out, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["theta_deg", "phi_deg", "magnitude_db"]
        assert len(rows) == 1 + 2 * len(thetas)
        assert float(rows[1][2]) == pytest.approx(0.0, abs=1e-9)
