"""Unit tests for the single-cell reflection model."""

import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.signal import lfilter

from metapsk.cell import (
    PSK_STEP_DEG,
    RcDynamics,
    VoltagePhaseCurve,
    Z0_FREE_SPACE,
    bias_voltage_table,
    reflection_coefficient,
    voltage_trajectory,
)
from metapsk.config import SimConfig
from metapsk.surface import uniform_reflection

from helpers import lag_samples, rc_step

finite_ohms = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)
passive_ohms = st.floats(min_value=0.0, max_value=1e6, allow_nan=False)


class TestReflectionCoefficient:
    def test_matched_load_reflects_nothing(self):
        assert reflection_coefficient(377.0 + 0.0j, 377.0 + 0.0j) == 0.0 + 0.0j

    def test_short_circuit_inverts(self):
        assert reflection_coefficient(0.0 + 0.0j, 377.0 + 0.0j) == -1.0 + 0.0j

    def test_reactive_load_gives_quarter_turn(self):
        gamma = reflection_coefficient(377.0j, 377.0 + 0.0j)
        np.testing.assert_allclose([gamma.real, gamma.imag], [0.0, 1.0], atol=1e-15)

    def test_default_reference_is_free_space(self):
        assert reflection_coefficient(Z0_FREE_SPACE) == 0.0 + 0.0j

    def test_degenerate_pair_rejected(self):
        with pytest.raises(ValueError):
            reflection_coefficient(-377.0 + 0.0j, 377.0 + 0.0j)

    @given(re=passive_ohms, im=finite_ohms)
    def test_passive_loads_never_amplify(self, re, im):
        """|Gamma| <= 1 whenever the load has non-negative resistance."""
        gamma = reflection_coefficient(complex(re, im))
        assert abs(gamma) <= 1.0 + 1e-12


class TestVoltagePhaseCurve:
    @pytest.fixture
    def curve(self):
        return VoltagePhaseCurve(amplitude=1.0)

    def test_default_amplitude_matches_power_reflectivity(self):
        curve = VoltagePhaseCurve()
        gamma = uniform_reflection(curve, np.array([10.0]))[0]
        assert round(abs(gamma), 4) == 0.9220
        np.testing.assert_allclose(abs(gamma) ** 2, 0.85, rtol=1e-12)

    def test_endpoints(self, curve):
        assert curve.phase_deg(0.0) == -180.0
        assert curve.phase_deg(20.0) == 180.0

    def test_out_of_range_voltages_clamp(self, curve):
        assert curve.phase_deg(-5.0) == curve.phase_deg(0.0)
        assert curve.phase_deg(25.0) == curve.phase_deg(20.0)

    def test_array_evaluation(self, curve):
        v = np.array([0.0, 5.0, 10.0, 15.0, 20.0])
        np.testing.assert_allclose(curve.phase_deg(v), [-180.0, -90.0, 0.0, 90.0, 180.0])

    def test_reflection_has_configured_magnitude(self):
        curve = VoltagePhaseCurve(amplitude=0.5)
        v = np.linspace(0.0, 20.0, 7)
        np.testing.assert_allclose(np.abs(uniform_reflection(curve, v)), 0.5, rtol=1e-12)

    def test_span_below_full_turn_rejected(self):
        for span in (300.0, np.nextafter(360.0, 0.0)):
            with pytest.raises(ValueError, match="phase span must cover at least 360 deg"):
                VoltagePhaseCurve(phase_span_deg=span)
        assert VoltagePhaseCurve(phase_span_deg=360.0).phase_span_deg == 360.0

    def test_bad_voltage_range_rejected(self):
        with pytest.raises(ValueError):
            VoltagePhaseCurve(v_min=5.0, v_max=5.0)

    def test_amplitude_above_unity_rejected(self):
        with pytest.raises(ValueError):
            VoltagePhaseCurve(amplitude=1.01)

    @given(v=st.floats(min_value=0.0, max_value=20.0))
    def test_phase_monotone_in_voltage(self, v):
        curve = VoltagePhaseCurve()
        dv = 0.125
        if v + dv <= curve.v_max:
            assert curve.phase_deg(v + dv) > curve.phase_deg(v)

    @given(phase=st.floats(min_value=-720.0, max_value=720.0))
    def test_inversion_is_exact(self, phase):
        """voltage_for_phase is the exact inverse of the linear model."""
        curve = VoltagePhaseCurve()
        v = curve.voltage_for_phase(phase)
        assert curve.v_min <= v <= curve.v_max
        err = (curve.phase_deg(v) - phase) % 360.0
        err = min(err, 360.0 - err)
        assert err < 1e-9

    @given(phase=st.floats(min_value=-720.0, max_value=720.0))
    def test_wide_span_inversion_stays_in_range(self, phase):
        curve = VoltagePhaseCurve(phase_span_deg=400.0)
        v = curve.voltage_for_phase(phase)
        assert curve.v_min <= v <= curve.v_max
        err = (curve.phase_deg(v) - phase) % 360.0
        err = min(err, 360.0 - err)
        assert err < 1e-9


class TestBiasTable:
    def test_default_table_is_uniform(self):
        curve = VoltagePhaseCurve()
        table = bias_voltage_table(curve, phase_offset_deg=-180.0)
        np.testing.assert_allclose(table, np.arange(8) * 2.5, atol=1e-12)

    def test_offset_shifts_table(self):
        curve = VoltagePhaseCurve()
        table = bias_voltage_table(curve, phase_offset_deg=-135.0)
        assert table[0] == pytest.approx(2.5, abs=1e-12)
        assert curve.phase_deg(table[0]) == pytest.approx(-135.0, abs=1e-12)

    def test_symbol_indices_cover_all_eight(self):
        """Index k of the table realizes phase offset + 45k, for all eight k."""
        curve = VoltagePhaseCurve()
        table = bias_voltage_table(curve, phase_offset_deg=-180.0)
        assert table.shape == (8,)
        np.testing.assert_allclose(curve.phase_deg(table), -180.0 + PSK_STEP_DEG * np.arange(8),
                                   atol=1e-12)

    @given(offset=st.floats(min_value=-360.0, max_value=360.0))
    def test_pairwise_phase_separation(self, offset):
        """Realized phases of adjacent table rows differ by 45 deg mod 360."""
        curve = VoltagePhaseCurve()
        phases = curve.phase_deg(bias_voltage_table(curve, phase_offset_deg=offset))
        diffs = (np.diff(phases) - PSK_STEP_DEG) % 360.0
        diffs = np.minimum(diffs, 360.0 - diffs)
        np.testing.assert_allclose(diffs, 0.0, atol=1e-9)

    @given(offset=st.floats(min_value=-360.0, max_value=360.0))
    def test_voltages_ordered_along_branch(self, offset):
        """Sorting targets by branch position sorts the voltages strictly."""
        curve = VoltagePhaseCurve()
        targets = offset + PSK_STEP_DEG * np.arange(8)
        branch = (targets - curve.phase_at_vmin_deg) % 360.0
        volts = bias_voltage_table(curve, phase_offset_deg=offset)[np.argsort(branch)]
        assert np.all(np.diff(volts) > 0.0)

    @given(offset=st.floats(min_value=-360.0, max_value=360.0), k=st.integers(0, 7))
    def test_composition_hits_ideal_constellation(self, offset, k):
        """Bias table + unit-amplitude curve reproduce exp(j(offset + 45k))."""
        curve = VoltagePhaseCurve(amplitude=1.0)
        voltage = bias_voltage_table(curve, phase_offset_deg=offset)[k:k + 1]
        got = uniform_reflection(curve, voltage)
        want = np.exp(1j * np.deg2rad(offset + k * PSK_STEP_DEG))
        np.testing.assert_allclose(got, want, atol=1e-12)


def test_reflection_is_the_complex_exponential_on_the_pinned_sweep(monkeypatch):
    """cos + i sin scaled by the amplitude equals amplitude * exp(1j * phase)
    bit for bit on every phase array of the pinned oversampling-32 sweep
    (test_cli's `sweep --var snr --trials 2 --seed 11`).  The identity rests
    on the math library, so this pins it where the artifacts depend on it."""
    from metapsk import baseband
    from metapsk.config import SimConfig
    from metapsk.harness import SweepSpec, SweepVar, run_sweep

    seen = []

    def recording(curve, voltage, incident_amplitude=1.0):
        seen.append((curve, np.array(voltage)))
        return uniform_reflection(curve, voltage, incident_amplitude)

    monkeypatch.setattr(baseband, "uniform_reflection", recording)
    cfg = SimConfig(oversampling=32)
    run_sweep(SweepSpec(SweepVar.SNR, cfg.snr_grid_db, trials=2, master_seed=11), cfg)
    assert len(seen) >= len(cfg.snr_grid_db)  # at least one surface frame per point
    for curve, voltage in seen:
        phase = np.deg2rad(curve.phase_deg(voltage))
        assert phase.size == 32 * cfg.layout().total_symbols
        old = curve.amplitude * np.exp(1j * phase)
        assert uniform_reflection(curve, voltage).tobytes() == old.tobytes()


class TestRcDynamics:
    def test_zero_tau_settles_immediately(self):
        rc = RcDynamics(tau_s=0.0, sample_period_s=1e-8)
        assert rc_step(rc, 0.0, 1.0) == 1.0

    def test_single_step_one_tau(self):
        rc = RcDynamics(tau_s=1e-8, sample_period_s=1e-8)
        assert rc_step(rc, 0.0, 1.0) == pytest.approx(1.0 - math.exp(-1.0), rel=1e-12)

    def test_ten_steps_match_closed_form(self):
        """Iterating the recurrence equals 1 - exp(-t/tau) for a step input."""
        rc = RcDynamics(tau_s=1e-7, sample_period_s=1e-8)
        v = 0.0
        for n in range(1, 11):
            v = rc_step(rc, v, 1.0)
            assert v == pytest.approx(1.0 - math.exp(-n * 1e-8 / 1e-7), rel=1e-12)

    def test_negative_tau_rejected(self):
        with pytest.raises(ValueError):
            RcDynamics(tau_s=-1.0, sample_period_s=1e-8)

    def test_zero_sample_period_rejected(self):
        with pytest.raises(ValueError):
            RcDynamics(tau_s=1e-8, sample_period_s=0.0)

    @given(
        tau=st.floats(min_value=1e-10, max_value=1e-5),
        v0=st.floats(min_value=-20.0, max_value=40.0),
        vt=st.floats(min_value=-20.0, max_value=40.0),
    )
    def test_error_decays_geometrically(self, tau, v0, vt):
        rc = RcDynamics(tau_s=tau, sample_period_s=1e-8)
        v1 = rc_step(rc, v0, vt)
        assert abs(v1 - vt) <= abs(v0 - vt) * rc.alpha + 1e-12

    @settings(max_examples=25)
    @given(seed=st.integers(0, 2**31 - 1))
    def test_trajectory_matches_iterated_steps(self, seed):
        rng = np.random.default_rng(seed)
        levels = rng.uniform(0.0, 20.0, size=8)
        symbols = rng.integers(0, 8, size=64)
        rc = RcDynamics(tau_s=4e-8, sample_period_s=1e-8)
        got = voltage_trajectory(rc, levels, symbols, 4)
        assert got.tobytes() == lag_samples(rc, levels, symbols, 4).tobytes()

    def test_trajectory_zero_tau_is_passthrough(self):
        rc = RcDynamics(tau_s=0.0, sample_period_s=1e-8)
        levels = np.array([1.0, 3.0, 2.0, 5.0, 4.0, 7.0, 6.0, 9.0])
        symbols = np.array([0, 2, 1, 1, 7])
        got = voltage_trajectory(rc, levels, symbols, 3)
        assert got.tobytes() == np.repeat(levels[symbols], 3).tobytes()

    def test_trajectory_needs_an_eight_level_table(self):
        rc = RcDynamics(tau_s=4e-8, sample_period_s=1e-8)
        with pytest.raises(ValueError, match="8 voltages"):
            voltage_trajectory(rc, np.arange(7.0), np.array([0, 1]), 4)


def lfilter_lag(rc, levels, symbols, oversampling):
    """The lag as scipy's IIR filter pass, from a line settled at the first target."""
    a = rc.alpha
    targets = np.repeat(np.asarray(levels)[symbols], oversampling)
    out, _ = lfilter([1.0 - a], [1.0, -a], targets, zi=np.array([a * targets[0]]))
    return out


class TestBiasLagIsExact:
    """voltage_trajectory equals lfilter and the sample-by-sample recurrence byte for byte."""

    @settings(max_examples=60, deadline=None)
    @given(
        # few distinct values, so tables repeat levels; 0 and -0 included
        levels=st.lists(st.sampled_from([0.0, -0.0, 2.5, 10.0, -5.0]) | st.floats(-20.0, 40.0),
                        min_size=8, max_size=8),
        symbols=st.lists(st.integers(0, 7), min_size=1, max_size=300),
        oversampling=st.integers(1, 32),
        tau=st.sampled_from([0.0, 40e-9, 1e-6, 1e-3]),
        rate=st.sampled_from([0.256e6, 2.048e6, 4.096e6]),
    )
    def test_random_tables_and_symbols(self, levels, symbols, oversampling, tau, rate):
        rc = RcDynamics(tau_s=tau, sample_period_s=1.0 / (rate * oversampling))
        levels, symbols = np.array(levels), np.array(symbols)
        got = voltage_trajectory(rc, levels, symbols, oversampling).tobytes()
        assert got == lfilter_lag(rc, levels, symbols, oversampling).tobytes()
        assert got == lag_samples(rc, levels, symbols, oversampling).tobytes()

    def test_pinned_sweep_frames_at_every_rate(self, monkeypatch):
        """The surface frames of the pinned `--seed 11` sweeps, at every grid
        rate and oversampling 1, 8 and 32."""
        from metapsk import baseband
        from metapsk.config import SimConfig
        from metapsk.harness import SweepSpec, SweepVar, default_values, run_sweep

        frames = {}

        def recording(rc, levels, symbols, oversampling):
            frames[np.asarray(symbols).tobytes()] = np.array(symbols)
            return voltage_trajectory(rc, levels, symbols, oversampling)

        monkeypatch.setattr(baseband, "voltage_trajectory", recording)
        cfg = SimConfig()
        for var in SweepVar:
            run_sweep(SweepSpec(var, default_values(var, cfg), trials=2, master_seed=11), cfg)
        assert len(frames) >= 20
        levels = bias_voltage_table(cfg.curve())
        for rate in cfg.rate_grid_hz:
            for oversampling in (1, 8, 32):
                rc = RcDynamics(cfg.tau_s, 1.0 / (rate * oversampling))
                for symbols in frames.values():
                    got = voltage_trajectory(rc, levels, symbols, oversampling)
                    assert got.tobytes() == lfilter_lag(rc, levels, symbols, oversampling).tobytes()

    @pytest.mark.parametrize("tau_s,rate,repairs", [
        (1e-6, 2.048e6, False),  # a**8 = 0.61: remembers ~75 symbols
        (1e-3, 2.048e6, False),
        (40e-9, 4.096e6, True),  # a**8 = 0.002: remembers ~6 symbols
    ])
    def test_slow_line_is_walked_without_repair_rounds(self, monkeypatch, tau_s, rate, repairs):
        """A line that remembers more symbols than the repair rounds settle
        goes straight to the walk; a faster one keeps its rounds."""
        from metapsk import cell

        rc = RcDynamics(tau_s=tau_s, sample_period_s=1.0 / (rate * 8))
        levels = bias_voltage_table(VoltagePhaseCurve())
        symbols = np.random.default_rng(3).integers(0, 8, 2400)
        voltage_trajectory(rc, levels, symbols, 8)  # caches the lag table
        settle, rounds = cell._settle, []
        monkeypatch.setattr(cell, "_settle", lambda *args: rounds.append(1) or settle(*args))
        got = voltage_trajectory(rc, levels, symbols, 8)
        assert bool(rounds) == repairs
        assert got.tobytes() == lag_samples(rc, levels, symbols, 8).tobytes()

    @pytest.mark.parametrize("seed", [0, 3])
    def test_line_just_below_the_walk_threshold_is_repaired_to_the_end(self, monkeypatch, seed):
        """At 417 ns, a**8 = 0.31: the lag table is used, and the repair
        rounds run past ``_LAG_REPAIR_ROUNDS`` until every symbol is
        exact, with no walk."""
        from metapsk import cell

        rc = RcDynamics(tau_s=417e-9, sample_period_s=1.0 / (2.048e6 * 8))
        levels = bias_voltage_table(VoltagePhaseCurve())
        symbols = np.random.default_rng(seed).integers(0, 8, 2400)
        voltage_trajectory(rc, levels, symbols, 8)  # caches the lag table
        settle, rounds, walked = cell._settle, [], []
        monkeypatch.setattr(cell, "_settle", lambda *args: rounds.append(1) or settle(*args))
        monkeypatch.setattr(cell, "_walk", lambda *args: walked.append(1))
        got = voltage_trajectory(rc, levels, symbols, 8)
        assert len(rounds) > cell._LAG_REPAIR_ROUNDS and not walked
        assert got.tobytes() == lag_samples(rc, levels, symbols, 8).tobytes()

    @pytest.mark.parametrize("tau_s", [40e-9, 1e-6])  # the lag table; the walk
    def test_frame_too_long_to_hold_fails_before_the_lag(self, monkeypatch, tau_s):
        """The lag's work grows with oversampling: 2**50 samples a symbol
        would take it ages, but cannot be held, so nothing is worked out."""
        from metapsk import cell

        def refuse(*args):
            raise AssertionError("the lag was worked out before the output was allocated")

        monkeypatch.setattr(cell, "_walk", refuse)
        monkeypatch.setattr(cell, "_table_entries", refuse)
        rc = RcDynamics(tau_s=tau_s, sample_period_s=1.0 / (2.048e6 * 2**50))
        with pytest.raises(MemoryError):
            voltage_trajectory(rc, bias_voltage_table(VoltagePhaseCurve()), np.arange(8), 2**50)

    @settings(max_examples=120, deadline=None)
    @given(
        rate=st.sampled_from(SimConfig().rate_grid_hz),
        oversampling=st.sampled_from([1, 2, 4, 8, 32]),
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 2400),
        tau=st.floats(0.0, 1e-6),
        # a**oversampling = exp(-1 / (rate * tau)); just below the walk
        # threshold (0.3174) the repair rounds run longest
        band=st.booleans(),
        memory=st.floats(0.25, 0.3168),
    )
    def test_lag_across_tau(self, rate, oversampling, seed, n, tau, band, memory):
        if band:
            tau = -1.0 / (rate * math.log(memory))
        rc = RcDynamics(tau_s=tau, sample_period_s=1.0 / (rate * oversampling))
        levels = bias_voltage_table(VoltagePhaseCurve())
        symbols = np.random.default_rng(seed).integers(0, 8, n)
        got = voltage_trajectory(rc, levels, symbols, oversampling)
        assert got.tobytes() == lag_samples(rc, levels, symbols, oversampling).tobytes()

    def test_slow_line_stays_fast(self):
        """A line that remembers the whole frame is walked sample by sample,
        and one just below the walk threshold (425 ns, a**32 = 0.317)
        settles in ~35 repair rounds; unbounded rounds on the first, or
        rounds that stop converging on the second, take well over 100 ms
        on a frame like this."""
        from metapsk.baseband import FrameLayout, TxMode, build_frame, synthesize

        layout = FrameLayout()
        frame = build_frame(np.random.default_rng(1).integers(0, 2, layout.payload_bits), layout)
        for tau_s in (1e-3, 425e-9):
            rc = RcDynamics(tau_s=tau_s, sample_period_s=1.0 / (2.048e6 * 32))
            start = time.perf_counter()
            synthesize(frame, TxMode.METASURFACE, VoltagePhaseCurve(), rc, 32)
            assert time.perf_counter() - start < 0.1, tau_s
