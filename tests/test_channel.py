"""Unit tests for the AWGN channel and SNR bookkeeping."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from metapsk.baseband import TxMode, Waveform
from metapsk.channel import (
    ChannelConfig,
    apply_channel,
    realized_snr_db,
    snr_from_eb_n0_db,
)
from metapsk.config import SimConfig
from metapsk.harness import SweepVar, _channel_for


def unit_wave(n=100_000):
    """Constant unit-power waveform; handy for noise statistics."""
    return Waveform(np.ones(n, dtype=complex), 1)


def power_channel(tx_power_dbm, mode, cfg=SimConfig()):
    """The power-budget channel a sweep builds for ``mode``."""
    return _channel_for(SweepVar.TX_POWER, tx_power_dbm, cfg, mode)


class TestConfig:
    def test_exactly_one_mode(self):
        with pytest.raises(ValueError):
            ChannelConfig()
        with pytest.raises(ValueError):
            ChannelConfig(snr_db=10.0, tx_power_dbm=-22.0)

    def test_budget_terms(self):
        cfg = SimConfig()
        assert cfg.reflectivity_loss_db == pytest.approx(0.70581, abs=5e-5)
        assert cfg.reflectivity_loss_db + cfg.modulation_excess_loss_db == pytest.approx(6.0, abs=1e-12)
        for key in ("reflectivity_loss_db", "modulation_excess_loss_db"):
            with pytest.raises(ValueError, match=f"{key} must be non-negative"):
                SimConfig(**{key: -0.1})

    def test_power_budget_snr_arithmetic(self):
        cfg = ChannelConfig(tx_power_dbm=-22.0, link_loss_db=50.0, noise_floor_dbm=-95.0)
        assert realized_snr_db(cfg) == pytest.approx(-22.0 - 50.0 + 95.0)

    def test_budget_charged_to_surface_mode_only(self):
        conv = realized_snr_db(power_channel(-22.0, TxMode.CONVENTIONAL))
        surf = realized_snr_db(power_channel(-22.0, TxMode.METASURFACE))
        assert conv == pytest.approx(-22.0 - 50.0 + 95.0, abs=1e-12)
        assert conv - surf == pytest.approx(6.0, abs=1e-12)
        # a fixed-SNR channel charges no mode anything
        for var, value in ((SweepVar.SNR, 12.0), (SweepVar.SYMBOL_RATE, 1e6)):
            snrs = {realized_snr_db(_channel_for(var, value, SimConfig(), mode)) for mode in TxMode}
            assert len(snrs) == 1

    def test_rejects_nan_and_minus_inf_snr_and_non_finite_power(self):
        for kwargs in ({"snr_db": math.nan}, {"snr_db": -math.inf},
                       {"tx_power_dbm": math.nan}, {"tx_power_dbm": math.inf},
                       {"tx_power_dbm": -math.inf}):
            with pytest.raises(ValueError):
                ChannelConfig(**kwargs)
        assert ChannelConfig(snr_db=math.inf).snr_db == math.inf  # noise off

    @given(delta=st.floats(min_value=0.0, max_value=40.0))
    def test_power_steps_move_snr_exactly(self, delta):
        for mode in TxMode:
            lo = power_channel(-40.0, mode)
            hi = power_channel(-40.0 + delta, mode)
            assert realized_snr_db(hi) - realized_snr_db(lo) == pytest.approx(delta, abs=1e-12)


class TestApplyChannel:
    def test_noise_disabled_passthrough(self):
        wave = unit_wave(1000)
        out = apply_channel(wave, ChannelConfig(snr_db=math.inf), 1)
        np.testing.assert_array_equal(out.samples, wave.samples)

    def test_zero_power_rejected(self):
        """Refused before a power budget's gain divides by the input power."""
        wave = Waveform(np.zeros(16, dtype=complex), 1)
        for cfg in (ChannelConfig(snr_db=10.0), power_channel(-22.0, TxMode.CONVENTIONAL)):
            with pytest.raises(ValueError, match="input waveform has zero power"):
                apply_channel(wave, cfg, 1)

    @pytest.mark.parametrize("cfg", [
        ChannelConfig(snr_db=1e300),  # noise power underflows to 0
        ChannelConfig(snr_db=-1e300),  # SNR underflows to 0
        ChannelConfig(tx_power_dbm=4000.0),  # received power overflows
        ChannelConfig(tx_power_dbm=-4000.0),  # received power underflows: zero gain
        ChannelConfig(tx_power_dbm=-30.0, noise_floor_dbm=1e300),
    ])
    def test_out_of_range_gain_or_noise_rejected(self, cfg):
        with pytest.raises(ValueError, match="dB|finite"):
            apply_channel(unit_wave(16), cfg, 1)

    def test_non_finite_waveform_rejected(self):
        samples = np.ones(16, dtype=complex)
        samples[3] = np.inf
        wave = Waveform(samples, 1)
        for cfg in (ChannelConfig(snr_db=10.0), ChannelConfig(tx_power_dbm=-30.0)):
            with pytest.raises(ValueError, match="finite"):
                apply_channel(wave, cfg, 1)

    def test_noise_is_two_successive_draws(self):
        """Real parts are the seed's first n normals, imaginary parts the next n."""
        wave = Waveform(np.exp(0.3j * np.arange(1000)), 8)
        sim = SimConfig()
        out = apply_channel(wave, power_channel(-40.0, TxMode.METASURFACE, sim), 11)
        rng = np.random.default_rng(11)
        budget_db = sim.reflectivity_loss_db + sim.modulation_excess_loss_db
        gain = math.sqrt(10.0 ** ((-40.0 - 50.0 - budget_db) / 10.0))
        scale = math.sqrt(10.0 ** (-95.0 / 10.0) / 2.0)
        expected = gain * wave.samples + scale * (rng.standard_normal(1000) + 1j * rng.standard_normal(1000))
        np.testing.assert_array_equal(out.samples, expected)

    def test_fixed_snr_noise_power(self):
        """At 0 dB SNR on a unit-power signal the noise variance is 1."""
        wave = unit_wave(1_000_000)
        out = apply_channel(wave, ChannelConfig(snr_db=0.0), 7)
        noise = out.samples - wave.samples
        assert np.mean(np.abs(noise) ** 2) == pytest.approx(1.0, rel=0.01)

    def test_noise_is_zero_mean_circular(self):
        wave = unit_wave(1_000_000)
        out = apply_channel(wave, ChannelConfig(snr_db=0.0), 3)
        noise = out.samples - wave.samples
        n = noise.size
        # mean and I/Q cross-correlation within 4 sigma of zero
        assert abs(np.mean(noise)) < 4.0 / math.sqrt(n)
        assert abs(np.mean(noise.real * noise.imag)) < 4.0 * 0.5 / math.sqrt(n)
        assert np.var(noise.real) == pytest.approx(np.var(noise.imag), rel=0.02)

    def test_seeded_noise_reproduces(self):
        wave = unit_wave(10_000)
        a = apply_channel(wave, ChannelConfig(snr_db=5.0), 42)
        b = apply_channel(wave, ChannelConfig(snr_db=5.0), 42)
        np.testing.assert_array_equal(a.samples, b.samples)
        c = apply_channel(wave, ChannelConfig(snr_db=5.0), 43)
        assert np.any(c.samples != a.samples)

    def test_power_budget_realizes_target_snr(self):
        wave = unit_wave(1_000_000)
        cfg = ChannelConfig(tx_power_dbm=-30.0, link_loss_db=50.0, noise_floor_dbm=-95.0)
        out = apply_channel(wave, cfg, 5)
        target = realized_snr_db(cfg)
        sig_power = np.abs(np.mean(out.samples)) ** 2  # constant signal survives averaging
        noise_power = np.var(out.samples)
        measured = 10.0 * np.log10(sig_power / noise_power)
        assert measured == pytest.approx(target, abs=0.1)

    def test_budget_costs_surface_waveform_6_db(self):
        n = 1_000_000
        conv = apply_channel(unit_wave(n), power_channel(-30.0, TxMode.CONVENTIONAL), 5)
        surf = apply_channel(unit_wave(n), power_channel(-30.0, TxMode.METASURFACE), 5)
        p_conv = np.abs(np.mean(conv.samples)) ** 2
        p_surf = np.abs(np.mean(surf.samples)) ** 2
        assert 10.0 * np.log10(p_conv / p_surf) == pytest.approx(6.0, abs=0.05)

    def test_metadata_preserved(self):
        wave = Waveform(np.ones(100, dtype=complex), 8)
        out = apply_channel(wave, ChannelConfig(snr_db=20.0), 0)
        assert out.oversampling == 8

    @pytest.mark.parametrize("snr_db", [math.inf, 10.0])
    @pytest.mark.parametrize("seeds", [[1], [1, 2, 3, 4]])
    def test_a_block_needs_one_seed_per_frame(self, snr_db, seeds):
        """With or without noise: the no-noise return comes after the count check."""
        block = Waveform(np.ones((3, 16), dtype=complex), 1)
        with pytest.raises(ValueError, match=f"3 frames need one noise seed each, got {len(seeds)} seeds"):
            apply_channel(block, ChannelConfig(snr_db=snr_db), seeds)

    def test_a_bit_generator_seeds_like_its_integer(self):
        wave = Waveform(np.exp(0.3j * np.arange(64)), 1)
        block = Waveform(np.stack([wave.samples, wave.samples[::-1]]), 1)
        cfg = ChannelConfig(snr_db=3.0)
        by_int = apply_channel(block, cfg, [5, 6])
        by_generator = apply_channel(block, cfg, [np.random.PCG64(5), np.random.PCG64(6)])
        assert by_int.samples.tobytes() == by_generator.samples.tobytes()


class TestSnrPerBit:
    def test_single_sample_per_symbol(self):
        assert snr_from_eb_n0_db(-4.771, 1) == pytest.approx(0.0, abs=5e-4)

    def test_oversampled(self):
        assert snr_from_eb_n0_db(14.260, 8) == pytest.approx(10.0, abs=5e-4)

    def test_zero_oversampling_rejected(self):
        with pytest.raises(ValueError, match="oversampling must be >= 1"):
            snr_from_eb_n0_db(10.0, 0)

    def test_inverse(self):
        """Symbol energy (ovs samples) spread over 3 bits gives back Eb/N0."""
        snr = snr_from_eb_n0_db(7.25, 8)
        assert 10.0 * math.log10(10.0 ** (snr / 10.0) * 8 / 3) == pytest.approx(7.25, abs=1e-12)

    @given(eb_n0=st.floats(-20.0, 40.0), ovs=st.integers(1, 64))
    def test_roundtrip_any_oversampling(self, eb_n0, ovs):
        snr = snr_from_eb_n0_db(eb_n0, ovs)
        assert 10.0 ** (snr / 10.0) * ovs / 3 == pytest.approx(10.0 ** (eb_n0 / 10.0), rel=1e-9)

    def test_reflectivity_loss_value(self):
        assert SimConfig().reflectivity_loss_db == pytest.approx(10.0 * math.log10(1.0 / 0.85), rel=1e-12)
