"""Unit tests for synchronization, equalization, decisions, and metrics."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import erfc

from helpers import frame_wave
from metapsk import receiver
from metapsk.baseband import (
    FrameLayout,
    TxMode,
    Waveform,
    constellation,
    pilot_symbols,
    symbols_to_bits,
    sync_symbols,
)
from metapsk.channel import ChannelConfig, apply_channel, snr_from_eb_n0_db
from metapsk.receiver import (
    ChannelEstimate,
    ReceivedFrame,
    SyncError,
    SyncResult,
    demodulate,
    estimate_channel,
    measure,
    receive_frame,
    synchronize,
)


def union_bound_ber(eb_n0_db):
    """Nearest-neighbour approximation for Gray 8PSK bit error rate."""
    eb_n0 = 10.0 ** (eb_n0_db / 10.0)
    arg = math.sqrt(6.0 * eb_n0) * math.sin(math.pi / 8.0)
    q = 0.5 * erfc(arg / math.sqrt(2.0))
    return 2.0 * q / 3.0


class TestSynchronize:
    def test_clean_frame_starts_at_zero(self):
        _, _, wave = frame_wave(0)
        result = synchronize(wave, sync_symbols(64))
        assert result.frame_start == 0
        assert result.peak == pytest.approx(1.0, abs=1e-9)

    def test_peak_normalized_even_with_gain(self):
        _, _, wave = frame_wave(1)
        scaled = replace(wave, samples=wave.samples * (3.7 * np.exp(1j * 0.9)))
        result = synchronize(scaled, sync_symbols(64))
        assert result.frame_start == 0
        assert 0.0 <= result.peak <= 1.0

    def test_known_offset_recovered(self):
        _, _, wave = frame_wave(2)
        padded = replace(wave, samples=np.concatenate([np.zeros(1000, dtype=complex), wave.samples]))
        noisy = apply_channel(padded, ChannelConfig(snr_db=20.0), 5)
        assert synchronize(noisy, sync_symbols(64)).frame_start == 1000

    def test_zero_energy_padding_handled(self):
        _, _, wave = frame_wave(3)
        padded = replace(wave, samples=np.concatenate([np.zeros(1000, dtype=complex), wave.samples]))
        assert synchronize(padded, sync_symbols(64)).frame_start == 1000

    def test_noise_only_raises(self):
        rng = np.random.default_rng(4)
        noise = rng.standard_normal(20000) + 1j * rng.standard_normal(20000)
        wave = Waveform(noise, 8)
        with pytest.raises(SyncError):
            synchronize(wave, sync_symbols(64))

    def test_tie_breaks_to_earliest(self):
        _, _, wave = frame_wave(5)
        doubled = replace(wave, samples=np.tile(wave.samples, 2))
        assert synchronize(doubled, sync_symbols(64)).frame_start == 0

    def test_max_start_restricts_search(self):
        _, _, wave = frame_wave(6)
        padded = replace(wave, samples=np.concatenate([np.zeros(500, dtype=complex), wave.samples]))
        with pytest.raises(SyncError):
            synchronize(padded, sync_symbols(64), max_start=-1)

    @pytest.mark.parametrize("lag", [1, 37, 500])
    def test_max_start_window_edge(self, lag):
        """A frame at ``lag`` is missed by a window ending at lag - 1 and found at its edge.

        One sample per symbol, so a lag one sample early is a whole
        symbol early and correlates far below the threshold.
        """
        _, _, wave = frame_wave(6, oversampling=1)
        padded = replace(wave, samples=np.concatenate([np.zeros(lag, dtype=complex), wave.samples]))
        with pytest.raises(SyncError):
            synchronize(padded, sync_symbols(64), max_start=lag - 1)
        assert synchronize(padded, sync_symbols(64), max_start=lag).frame_start == lag

    @pytest.mark.parametrize("lag", [1, 37, 500])
    def test_receiver_acquires_delayed_frame(self, lag):
        """receive_frame searches every lag a full frame fits behind."""
        payload, frame, wave = frame_wave(8)
        lead = 0.3 * np.exp(1j * np.arange(lag))  # leading samples that are not the frame
        delayed = replace(wave, samples=np.concatenate([lead, wave.samples]))
        received = receive_frame(delayed)
        assert received.sync.frame_start == lag
        assert measure(received, payload, frame.data_symbols()).bit_errors == 0

    def test_acquisition_rate_at_10_db(self):
        """At 10 dB per-sample SNR the frame is found in >= 99 % of trials."""
        _, _, wave = frame_wave(7)
        hits = 0
        trials = 1000
        for t in range(trials):
            noisy = apply_channel(wave, ChannelConfig(snr_db=10.0), 10_000 + t)
            if synchronize(noisy, sync_symbols(64)).frame_start == 0:
                hits += 1
        assert hits >= 990


class TestSyncPaths:
    """A one-lag window is scored by a dot product, a longer one by FFT; they must agree."""

    @staticmethod
    def both_paths(monkeypatch, wave, **kwargs):
        """Sync with a one-lag and a two-lag window; check which path each took."""
        calls = []

        def counted(*args, **kw):
            calls.append(1)
            return fftconvolve(*args, **kw)

        fftconvolve = receiver.fftconvolve
        monkeypatch.setattr(receiver, "fftconvolve", counted)
        results = []
        for max_start, ffts in ((0, 0), (1, 1)):
            calls.clear()
            try:
                results.append(synchronize(wave, sync_symbols(64), max_start=max_start, **kwargs))
            except SyncError as exc:
                results.append(exc)
            assert len(calls) == ffts
        return results

    @pytest.mark.parametrize("oversampling", [1, 8, 32])
    def test_same_start_and_peak(self, monkeypatch, oversampling):
        for seed, snr_db in ((1, 3.0), (2, 10.0), (3, 25.0)):
            _, _, wave = frame_wave(seed, oversampling=oversampling)
            noisy = apply_channel(wave, ChannelConfig(snr_db=snr_db), 100 + seed)
            direct, fft = self.both_paths(monkeypatch, noisy, threshold=0.0)
            assert direct.frame_start == fft.frame_start == 0
            assert direct.peak == pytest.approx(fft.peak, abs=1e-12)

    @pytest.mark.parametrize("oversampling", [1, 8, 32])
    def test_same_misses(self, monkeypatch, oversampling):
        _, _, wave = frame_wave(4, oversampling=oversampling)
        noisy = apply_channel(wave, ChannelConfig(snr_db=0.0), 7)
        peak = synchronize(noisy, sync_symbols(64), threshold=0.0, max_start=0).peak
        for samples in (noisy.samples, np.zeros_like(noisy.samples)):
            results = self.both_paths(monkeypatch, replace(noisy, samples=samples),
                                      threshold=peak + 1e-9)
            assert all(isinstance(r, SyncError) for r in results)

    @pytest.mark.parametrize("max_start", [0, 1])
    def test_nan_sample_is_a_miss(self, max_start):
        """A NaN in the window is no peak: SyncError, not an error from indexing.

        The NaN sits in the last sample of the window, so with two lags
        only the second lag's window holds it and the FFT spreads NaN
        into the first lag's otherwise finite correlation.
        """
        _, _, wave = frame_wave(5, oversampling=1)
        samples = wave.samples.copy()
        samples[63 + max_start] = np.nan
        with pytest.raises(SyncError):
            synchronize(replace(wave, samples=samples), sync_symbols(64), max_start=max_start)


class TestEstimateChannel:
    def test_identity(self):
        ref = constellation()[pilot_symbols(32)]
        est = estimate_channel(ref, ref)
        assert est.gain == pytest.approx(1.0 + 0.0j, abs=1e-12)

    def test_known_gain_recovered_exactly(self):
        ref = constellation()[pilot_symbols(32)]
        g = 0.5 * np.exp(1j * np.pi / 4)
        est = estimate_channel(g * ref, ref)
        assert est.gain == pytest.approx(g, abs=1e-12)

    def test_noisy_estimate_close(self):
        ref = constellation()[pilot_symbols(32)]
        rng = np.random.default_rng(12)
        # 20 dB SNR against the scaled pilot power of 4
        sigma = math.sqrt(4.0 / 100.0 / 2.0)
        noise = sigma * (rng.standard_normal(32) + 1j * rng.standard_normal(32))
        est = estimate_channel(2.0 * ref + noise, ref)
        assert abs(est.gain - 2.0) < 0.05

    def test_zero_reference_rejected(self):
        with pytest.raises(ValueError):
            estimate_channel(np.ones(4, dtype=complex), np.zeros(4, dtype=complex))

    def test_zero_gain_rejected(self):
        with pytest.raises(ValueError):
            ChannelEstimate(gain=0.0 + 0.0j)

    @given(mag=st.floats(0.1, 5.0), phase=st.floats(0.0, 2 * math.pi))
    def test_any_gain_recovered(self, mag, phase):
        ref = constellation()[pilot_symbols(32)]
        g = mag * np.exp(1j * phase)
        est = estimate_channel(g * ref, ref)
        np.testing.assert_allclose(est.gain, g, rtol=1e-9)


class TestFrameConstants:
    def test_built_once_and_read_only(self):
        layout = FrameLayout()
        ref = receiver._frame_reference(layout, 1)
        assert receiver._frame_reference(FrameLayout(), 1) is ref
        sync_ref, _ = receiver._sync_reference(sync_symbols(64), 8)
        assert receiver._sync_reference(sync_symbols(64).copy(), 8)[0] is sync_ref  # keyed by value
        for array in (ref.train_ref, ref.pilot_ref, sync_ref):
            assert not array.flags.writeable

    def test_reference_changed_in_place_is_not_served_stale(self):
        ref = constellation()[pilot_symbols(32)].copy()
        rx = 2.0 * ref
        assert estimate_channel(rx, ref).gain == pytest.approx(2.0, rel=1e-12)
        ref *= 2.0  # the same array object, new contents
        assert estimate_channel(rx, ref).gain == pytest.approx(1.0, rel=1e-12)


class TestDemodulate:
    def test_constellation_centres(self):
        bits, idx = demodulate(constellation())
        np.testing.assert_array_equal(idx, np.arange(8))
        np.testing.assert_array_equal(bits, symbols_to_bits(np.arange(8)))

    def test_first_point_maps_to_zero_bits(self):
        bits, idx = demodulate(np.array([1.0 + 0.0j]))
        np.testing.assert_array_equal(bits, [0, 0, 0])
        assert idx[0] == 0

    def test_off_centre_sample(self):
        z = np.exp(1j * np.deg2rad(43.0))
        bits, idx = demodulate(np.array([z]))
        assert idx[0] == 1
        np.testing.assert_array_equal(bits, [0, 0, 1])

    def test_boundary_belongs_to_higher_region(self):
        up = np.exp(1j * np.deg2rad(22.5))
        down = np.exp(1j * np.deg2rad(-22.5))
        assert demodulate(np.array([up]))[1][0] == 1
        assert demodulate(np.array([down]))[1][0] == 0

    def test_magnitude_does_not_matter(self):
        z = 0.01 * np.exp(1j * np.deg2rad(93.0))
        assert demodulate(np.array([z]))[1][0] == 2

    @given(k=st.integers(0, 7), jitter=st.floats(-20.0, 20.0), mag=st.floats(0.05, 10.0))
    def test_rotation_equivariance(self, k, jitter, mag):
        """Rotating a sample by 45 deg advances the decision by one index."""
        z = mag * np.exp(1j * np.deg2rad(10.0 + jitter))
        base = demodulate(np.array([z]))[1][0]
        rot = demodulate(np.array([z * np.exp(1j * np.deg2rad(45.0 * k))]))[1][0]
        assert rot == (base + k) % 8

    def test_offset_shifts_regions(self):
        z = np.exp(1j * np.deg2rad(30.0))
        assert demodulate(np.array([z]), phase_offset_deg=30.0)[1][0] == 0


def reference_decisions(samples, phase_offset_deg):
    """The decision formula demodulate once used, kept as its oracle."""
    theta = np.degrees(np.angle(samples))
    return np.floor(((theta - phase_offset_deg) % 360.0 + 22.5) / 45.0).astype(np.int64) % 8


def ulp_grid(z, n=8):
    """Every sample whose real and imaginary parts lie within n ulps of z's."""
    def steps(x):
        down, up = [x], [x]
        for _ in range(n):
            down.append(np.nextafter(down[-1], -np.inf))
            up.append(np.nextafter(up[-1], np.inf))
        return np.array(down[:0:-1] + up)
    return (steps(z.real)[:, None] + 1j * steps(z.imag)[None, :]).ravel()


OFFSETS_DEG = (0.0, 30.0, 133.7, -45.0)


class TestDecisionArithmetic:
    """demodulate's decisions equal the % 360 / floor / % 8 formula, bit for bit."""

    def assert_same_decisions(self, samples, offset):
        samples = np.asarray(samples, dtype=complex)
        with np.errstate(invalid="ignore"):  # NaN samples: both sides cast NaN to int
            bits, indices = demodulate(samples, offset)
            expected = reference_decisions(samples, offset)
            # a block of frames: each row decided as it would be alone
            block_bits, block_indices = demodulate(np.stack([samples, samples[::-1]]), offset)
        np.testing.assert_array_equal(indices, expected)
        np.testing.assert_array_equal(bits, symbols_to_bits(expected))
        np.testing.assert_array_equal(block_indices, [expected, expected[::-1]])
        np.testing.assert_array_equal(block_bits, [bits, symbols_to_bits(expected[::-1])])

    @pytest.mark.parametrize("offset", OFFSETS_DEG)
    def test_every_boundary_and_its_neighbours(self, offset):
        edges = offset + 22.5 + 45.0 * np.arange(-5, 5)
        samples = np.concatenate([ulp_grid(np.exp(1j * np.deg2rad(e))) for e in edges])
        if offset == 0.0:  # the grid reaches each boundary and both its float neighbours
            theta = set(np.degrees(np.angle(samples)))
            for edge in 22.5 + 45.0 * np.arange(-4, 4):
                assert {edge, np.nextafter(edge, -np.inf), np.nextafter(edge, np.inf)} <= theta
        self.assert_same_decisions(samples, offset)

    @pytest.mark.parametrize("offset", OFFSETS_DEG)
    def test_signed_zeros_half_turns_and_nan(self, offset):
        nan, inf = math.nan, math.inf
        samples = [complex(re, im) for re in (0.0, -0.0) for im in (0.0, -0.0)]
        samples += [complex(-1.0, 0.0), complex(-1.0, -0.0), complex(1.0, -0.0),
                    complex(-0.0, 1.0), complex(-0.0, -1.0), complex(-inf, 0.0), complex(-inf, -0.0),
                    complex(1.0, -5e-324), complex(1.0, -1e-300),  # just below 0 deg: wraps to 360
                    complex(nan, 0.0), complex(0.0, nan), complex(nan, nan)]
        self.assert_same_decisions(samples, offset)

    @given(parts=st.lists(st.tuples(st.floats(width=64), st.floats(width=64)), min_size=1, max_size=64),
           offset=st.sampled_from(OFFSETS_DEG))
    def test_any_samples(self, parts, offset):
        self.assert_same_decisions([complex(re, im) for re, im in parts], offset)


class TestReceiveFrame:
    @pytest.mark.parametrize("mode", [TxMode.CONVENTIONAL, TxMode.METASURFACE])
    @pytest.mark.parametrize("tau_s", [0.0, 40e-9])
    def test_noiseless_roundtrip_is_error_free(self, mode, tau_s):
        payload, frame, wave = frame_wave(21, mode=mode, tau_s=tau_s, amplitude=math.sqrt(0.85))
        received = receive_frame(wave)
        metrics = measure(received, payload, frame.data_symbols())
        assert metrics.ber == 0.0
        assert metrics.ser == 0.0

    def test_gain_and_rotation_equalized(self):
        payload, frame, wave = frame_wave(22)
        g = 0.5 * np.exp(1j * np.deg2rad(40.0))
        rotated = replace(wave, samples=wave.samples * g)
        received = receive_frame(rotated)
        np.testing.assert_allclose(received.estimate.gain, g, rtol=1e-9)
        assert measure(received, payload, frame.data_symbols()).ber == 0.0

    @pytest.mark.parametrize("phi_deg", [30.0, 133.7, -45.0, 180.0])
    def test_common_rotation_lands_in_the_gain(self, phi_deg):
        """Rotating a noisy frame leaves the decisions and the equalized data as they were."""
        _, _, wave = frame_wave(28)
        noisy = apply_channel(wave, ChannelConfig(snr_db=12.0), 28)
        rotation = np.exp(1j * np.deg2rad(phi_deg))
        base = receive_frame(noisy)
        rotated = receive_frame(replace(noisy, samples=noisy.samples * rotation))
        np.testing.assert_array_equal(rotated.bits, base.bits)
        np.testing.assert_array_equal(rotated.symbols, base.symbols)
        np.testing.assert_allclose(rotated.eq_data, base.eq_data, rtol=0.0, atol=1e-12)
        assert rotated.estimate.gain == pytest.approx(base.estimate.gain * rotation, rel=1e-12)

    def test_section_lengths_recovered(self):
        _, frame, wave = frame_wave(23)
        layout = frame.layout
        received = receive_frame(wave)
        assert received.symbols.size == layout.data_symbols
        assert received.bits.size == layout.payload_bits
        assert received.eq_data.size == 9 * 256

    def test_truncated_waveform_raises(self):
        _, _, wave = frame_wave(24)
        cut = replace(wave, samples=wave.samples[: wave.samples.size // 2])
        with pytest.raises(SyncError):
            receive_frame(cut)

    def test_est_snr_tracks_channel(self):
        _, _, wave = frame_wave(25)
        noisy = apply_channel(wave, ChannelConfig(snr_db=15.0), 99)
        received = receive_frame(noisy)
        assert received.est_snr_db == pytest.approx(15.0, abs=1.5)

    def test_est_snr_infinite_without_noise(self):
        _, _, wave = frame_wave(26)
        assert receive_frame(wave).est_snr_db == math.inf

    def test_gain_estimate_averages_all_training_symbols(self):
        # 64 sync + 32 pilot symbols feed the estimator, so its error
        # variance is noise_var / 96 (one complex sample per symbol).
        snr_db = 10.0
        errors = []
        for seed in range(200):
            _, _, wave = frame_wave(27 + seed, oversampling=1)
            noisy = apply_channel(wave, ChannelConfig(snr_db=snr_db), seed)
            errors.append(receive_frame(noisy).estimate.gain - 1.0)
        mse = float(np.mean(np.abs(errors) ** 2))
        expected = 10.0 ** (-snr_db / 10.0) / 96.0
        assert mse == pytest.approx(expected, rel=0.25)


def synthetic_received(decided, offset_deg=0.0, est_snr_db=math.inf):
    points = constellation(offset_deg)[np.asarray(decided)]
    return ReceivedFrame(
        sync=SyncResult(0, 1.0),
        estimate=ChannelEstimate(1.0 + 0.0j),
        eq_data=points,
        bits=symbols_to_bits(decided),
        symbols=np.asarray(decided),
        est_snr_db=est_snr_db,
    )


class TestMeasure:
    def test_perfect_frame(self):
        ref = np.arange(8).repeat(4)
        metrics = measure(synthetic_received(ref), symbols_to_bits(ref), ref)
        assert metrics.ber == 0.0
        assert metrics.ser == 0.0
        assert metrics.evm_rms_pct == 0.0
        assert metrics.bits_compared == ref.size * 3

    def test_rotated_by_one_position(self):
        """A one-step rotation hits every symbol but only one bit in three."""
        ref = np.arange(8).repeat(16)
        decided = (ref + 1) % 8
        metrics = measure(synthetic_received(decided), symbols_to_bits(ref), ref)
        assert metrics.ser == 1.0
        assert metrics.ber == pytest.approx(1.0 / 3.0, abs=1e-12)

    def test_length_mismatch_rejected(self):
        ref = np.arange(8)
        with pytest.raises(ValueError):
            measure(synthetic_received(ref), symbols_to_bits(ref)[:-3], ref)

    @settings(max_examples=50)
    @given(seed=st.integers(0, 2**31 - 1))
    def test_ber_never_exceeds_ser(self, seed):
        rng = np.random.default_rng(seed)
        ref = rng.integers(0, 8, size=128)
        decided = rng.integers(0, 8, size=128)
        metrics = measure(synthetic_received(decided), symbols_to_bits(ref), ref)
        assert metrics.ber <= metrics.ser <= 1.0

    @settings(max_examples=50)
    @given(seed=st.integers(0, 2**31 - 1))
    def test_bit_errors_are_the_bitwise_compare(self, seed):
        rng = np.random.default_rng(seed)
        ref = rng.integers(0, 8, size=96)
        decided = np.where(rng.random(96) < 0.3, rng.integers(0, 8, size=96), ref)
        metrics = measure(synthetic_received(decided), symbols_to_bits(ref), ref)
        assert metrics.bit_errors == np.count_nonzero(symbols_to_bits(decided) != symbols_to_bits(ref))
        assert metrics.symbol_errors == np.count_nonzero(decided != ref)

    @pytest.mark.parametrize("oversampling", [1, 8])
    def test_noisy_frame_counts_its_bit_errors(self, oversampling):
        payload, frame, wave = frame_wave(31, oversampling=oversampling)
        received = receive_frame(apply_channel(wave, ChannelConfig(snr_db=6.0), 31))
        metrics = measure(received, payload, frame.data_symbols())
        assert metrics.bit_errors > 0
        assert metrics.bit_errors == np.count_nonzero(received.bits != payload)
        assert metrics.symbol_errors == np.count_nonzero(received.symbols != frame.data_symbols())

    @pytest.mark.parametrize("ref", [[0, 8], [0, -1], [0.0, 1.0]])
    def test_reference_outside_the_alphabet_rejected(self, ref):
        with pytest.raises(ValueError, match="reference symbols must be integers in 0..7"):
            measure(synthetic_received([0, 1]), np.zeros(6, dtype=int), ref)

    def test_evm_scales_with_displacement(self):
        ref = np.zeros(64, dtype=int)
        received = synthetic_received(ref)
        shifted = replace(received, eq_data=received.eq_data + 0.1)
        metrics = measure(shifted, symbols_to_bits(ref), ref)
        assert metrics.evm_rms_pct == pytest.approx(10.0, rel=1e-9)


class TestBerAnchor:
    def test_ideal_8psk_matches_union_bound(self):
        """Symbol-level Monte Carlo at Eb/N0 = 10 dB vs the closed form."""
        eb_n0_db = 10.0
        snr_db = snr_from_eb_n0_db(eb_n0_db, 1)
        sigma = math.sqrt(10.0 ** (-snr_db / 10.0) / 2.0)
        points = constellation()
        rng = np.random.default_rng(2024)
        bit_errors = 0
        symbol_errors = 0
        n_symbols = 10_000_000
        chunk = 1_000_000
        for _ in range(n_symbols // chunk):
            syms = rng.integers(0, 8, size=chunk)
            rx = points[syms] + sigma * (rng.standard_normal(chunk) + 1j * rng.standard_normal(chunk))
            bits, decided = demodulate(rx)
            bit_errors += int(np.sum(bits != symbols_to_bits(syms)))
            symbol_errors += int(np.sum(decided != syms))
        ber = bit_errors / (3 * n_symbols)
        ser = symbol_errors / n_symbols
        expect = union_bound_ber(eb_n0_db)
        assert ber == pytest.approx(expect, rel=0.15)
        assert ber == pytest.approx(ser / 3.0, rel=0.20)
