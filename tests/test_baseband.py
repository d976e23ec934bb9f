"""Unit tests for framing, Gray mapping, and waveform synthesis."""

import inspect

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from metapsk.baseband import (
    DATA_SUBFRAMES,
    GRAY_DISTANCE,
    Frame,
    FrameLayout,
    TxMode,
    Waveform,
    as_indices,
    bits_to_symbols,
    build_frame,
    constellation,
    mean_power,
    pilot_symbols,
    pn_chips,
    symbols_to_bits,
    sync_symbols,
    synthesize,
    training_symbols,
)
from metapsk.cell import RcDynamics, VoltagePhaseCurve

# Fixed labelling of the constellation; changing it breaks interoperability.
GRAY_TABLE = {
    (0, 0, 0): 0,
    (0, 0, 1): 1,
    (0, 1, 1): 2,
    (0, 1, 0): 3,
    (1, 1, 0): 4,
    (1, 1, 1): 5,
    (1, 0, 1): 6,
    (1, 0, 0): 7,
}


def make_rc(tau_s, symbol_rate_hz, oversampling):
    return RcDynamics(tau_s=tau_s, sample_period_s=1.0 / (symbol_rate_hz * oversampling))


class TestGrayMapping:
    def test_full_table(self):
        for bits, index in GRAY_TABLE.items():
            np.testing.assert_array_equal(bits_to_symbols(bits), [index])

    def test_roundtrip_all_symbols(self):
        symbols = np.arange(8)
        np.testing.assert_array_equal(bits_to_symbols(symbols_to_bits(symbols)), symbols)

    def test_adjacent_symbols_differ_in_one_bit(self):
        for k in range(8):
            a = symbols_to_bits([k])
            b = symbols_to_bits([(k + 1) % 8])
            assert int(np.sum(a != b)) == 1

    def test_bad_inputs_rejected(self):
        with pytest.raises(ValueError):
            bits_to_symbols([0, 1])
        with pytest.raises(ValueError):
            bits_to_symbols([0, 1, 2])
        with pytest.raises(ValueError):
            bits_to_symbols([0, 1, 0, 1])
        with pytest.raises(ValueError):
            symbols_to_bits([8])

    @given(bits=st.lists(st.integers(0, 1), min_size=3, max_size=99).filter(lambda b: len(b) % 3 == 0))
    def test_bit_stream_roundtrip(self, bits):
        symbols = bits_to_symbols(bits)
        np.testing.assert_array_equal(symbols_to_bits(symbols), bits)

    @pytest.mark.parametrize("bits", [
        [0.5, 1.9, 1.0], [0.0, 1.0, 0.3], [0, 1, -1], [0, 1, np.nan], [np.inf, 0, 1],
    ])
    def test_non_binary_bits_rejected_not_truncated(self, bits):
        with pytest.raises(ValueError, match="bits must be integers in 0..1"):
            bits_to_symbols(bits)

    @pytest.mark.parametrize("symbols", [[2.5, 7.9], [0.1], [-1], [np.nan], [2**62]])
    def test_non_index_symbols_rejected_not_truncated(self, symbols):
        with pytest.raises(ValueError, match="symbol indices must be integers in 0..7"):
            symbols_to_bits(symbols)

    def test_integer_types_accepted_floats_refused(self):
        """Any integer or bool type is read as is; a float, even 2.0, is refused, not cast."""
        for kind in (np.int8, np.uint8, np.int32, np.uint64, bool):
            np.testing.assert_array_equal(bits_to_symbols(np.array([0, 1, 1], dtype=kind)), [2])
            np.testing.assert_array_equal(symbols_to_bits(np.array([1], dtype=kind)), [0, 0, 1])
        with pytest.raises(ValueError):
            bits_to_symbols([0.0, 1.0, 1.0])
        with pytest.raises(ValueError):
            symbols_to_bits([2.0])
        assert bits_to_symbols([]).size == symbols_to_bits([]).size == 0

    @given(values=st.lists(st.integers(-2**63, 2**63 - 1), max_size=20), k=st.integers(1, 6))
    def test_index_check_is_the_range_check(self, values, k):
        """One OR over the values decides exactly what 0 <= v < 2**k for all v decides."""
        n = 2**k
        if all(0 <= v < n for v in values):
            np.testing.assert_array_equal(as_indices(np.array(values, dtype=np.int64), n, "x"), values)
        else:
            with pytest.raises(ValueError):
                as_indices(np.array(values, dtype=np.int64), n, "x")


class TestGrayDistance:
    @given(pairs=st.lists(st.tuples(st.integers(0, 7), st.integers(0, 7)), min_size=1, max_size=300))
    def test_counts_the_bits_that_differ(self, pairs):
        """Summing the table over (decided, sent) pairs is the bitwise compare."""
        decided, sent = np.array(pairs).T
        expected = np.count_nonzero(symbols_to_bits(decided) != symbols_to_bits(sent))
        assert int(GRAY_DISTANCE[(decided << 3) | sent].sum()) == expected

    def test_zero_exactly_on_the_diagonal(self):
        table = GRAY_DISTANCE.reshape(8, 8)
        assert np.array_equal(table == 0, np.eye(8, dtype=bool))
        assert not GRAY_DISTANCE.flags.writeable


class TestMeanPower:
    @settings(max_examples=60)
    @given(parts=st.lists(st.tuples(st.floats(-1e6, 1e6), st.floats(-1e6, 1e6)), min_size=1, max_size=3000))
    def test_is_np_mean_bit_for_bit(self, parts):
        samples = np.array([complex(re, im) for re, im in parts])
        assert mean_power(samples).hex() == float(np.mean(np.abs(samples) ** 2)).hex()

    def test_frame_sized_input_and_views(self):
        """Lengths past numpy's pairwise blocks, and the strided views the receiver passes."""
        rng = np.random.default_rng(3)
        samples = rng.standard_normal(2400) + 1j * rng.standard_normal(2400)
        for x in (samples, samples[96:], samples[:32], samples[::8]):
            assert mean_power(x) == float(np.mean(np.abs(x) ** 2))

    @pytest.mark.parametrize("rows", [1, 2, 3, 8, 13, 64])
    @pytest.mark.parametrize("length", [7, 32, 129, 2304, 2400, 9600])
    def test_each_row_of_a_block_is_its_own_call(self, rows, length):
        """Up to the longest row a block of two holds: 19,200 samples over two rows."""
        rng = np.random.default_rng(rows * length)
        block = rng.standard_normal((rows, length + 96)) + 1j * rng.standard_normal((rows, length + 96))
        for x in (block[:, :length], block[:, 96:]):  # a block's rows are views, as in the receiver
            assert mean_power(x).tolist() == [mean_power(row) for row in x]


class TestTrainingSequences:
    def test_pn_is_maximal_length(self):
        """Cyclic autocorrelation of the +-1 chips is 63 at lag 0, else -1."""
        chips = 1 - 2 * pn_chips(63).astype(int)
        for lag in range(63):
            r = int(np.dot(chips, np.roll(chips, lag)))
            assert r == (63 if lag == 0 else -1)

    def test_pn_extends_cyclically(self):
        chips = pn_chips(130)
        np.testing.assert_array_equal(chips[63:126], chips[:63])

    def test_sync_uses_antipodal_pair(self):
        sync = sync_symbols(64)
        assert sync.shape == (64,)
        assert set(np.unique(sync)) <= {0, 4}

    def test_sync_is_fixed(self):
        np.testing.assert_array_equal(sync_symbols(64), sync_symbols(64))

    def test_pilot_cycles_every_point(self):
        pilot = pilot_symbols(32)
        np.testing.assert_array_equal(pilot, np.tile(np.arange(8), 4))
        assert np.sum(constellation()[pilot]) == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("fn, args", [
        (constellation, ()),
        (constellation, (22.5,)),
        (pn_chips, (63,)),
        (sync_symbols, (64,)),
        (pilot_symbols, (32,)),
        (training_symbols, (FrameLayout(),)),
    ])
    def test_frame_constants_are_shared_read_only(self, fn, args):
        """One array per argument, shared by every caller, so none may write to it."""
        shared = fn(*args)
        assert fn(*args) is shared
        assert not shared.flags.writeable
        with pytest.raises(ValueError):
            shared[0] = shared[1]
        np.testing.assert_array_equal(shared, inspect.unwrap(fn)(*args))

    def test_frame_constants_take_keyword_arguments(self):
        shared = constellation(phase_offset_deg=22.5)
        assert constellation(phase_offset_deg=22.5) is shared
        np.testing.assert_array_equal(shared, constellation(22.5))

    def test_training_symbols(self):
        layout = FrameLayout(sync_len=5, pilot_len=3, data_len=2)
        np.testing.assert_array_equal(
            training_symbols(layout), np.concatenate([sync_symbols(5), pilot_symbols(3)]))


class TestFrame:
    def test_layout_totals(self):
        layout = FrameLayout()
        assert layout.total_symbols == 64 + 32 + 9 * 256
        assert layout.data_symbols == 2304
        assert layout.payload_bits == 6912
        assert DATA_SUBFRAMES == 9

    def test_build_frame_places_sections(self):
        layout = FrameLayout()
        frame = build_frame(np.zeros(layout.payload_bits, dtype=int), layout)
        np.testing.assert_array_equal(frame.symbols[: layout.sync_len], sync_symbols(64))
        np.testing.assert_array_equal(frame.symbols[layout.pilot_slice], pilot_symbols(32))
        np.testing.assert_array_equal(frame.data_symbols(), np.zeros(2304, dtype=int))

    def test_wrong_payload_length_rejected(self):
        """A 0-d payload and one of three axes are neither a frame nor a block of frames."""
        for shape in [(100,), (), (2, 2, 6912)]:
            with pytest.raises(ValueError, match="payload must be exactly 6912 bits per frame"):
                build_frame(np.zeros(shape, dtype=int))

    def test_non_binary_payload_rejected(self):
        """A payload of 0.3s used to be cast to an all-zero frame."""
        with pytest.raises(ValueError, match="bits must be integers in 0..1"):
            build_frame(np.full(FrameLayout().payload_bits, 0.3))

    @pytest.mark.parametrize("lengths", [dict(sync_len=0), dict(pilot_len=-1), dict(data_len=0)])
    def test_non_positive_subframe_rejected(self, lengths):
        with pytest.raises(ValueError, match="subframe lengths must be positive"):
            FrameLayout(**lengths)

    def test_payload_survives_frame_roundtrip(self):
        rng = np.random.default_rng(7)
        layout = FrameLayout()
        payload = rng.integers(0, 2, size=layout.payload_bits)
        frame = build_frame(payload, layout)
        np.testing.assert_array_equal(symbols_to_bits(frame.data_symbols()), payload)


class TestSynthesize:
    @pytest.fixture
    def layout(self):
        return FrameLayout()

    @pytest.fixture
    def frame(self, layout):
        rng = np.random.default_rng(11)
        return build_frame(rng.integers(0, 2, size=layout.payload_bits), layout)

    def test_sample_count(self, frame, layout):
        rc = make_rc(0.0, 2.048e6, 8)
        wave = synthesize(frame, TxMode.CONVENTIONAL, VoltagePhaseCurve(), rc, 8)
        assert wave.samples.size == layout.total_symbols * 8
        assert wave.oversampling == 8

    def test_conventional_has_unit_magnitude(self, frame):
        rc = make_rc(0.0, 2.048e6, 8)
        wave = synthesize(frame, TxMode.CONVENTIONAL, VoltagePhaseCurve(), rc, 8)
        np.testing.assert_allclose(np.abs(wave.samples), 1.0, atol=1e-12)

    def test_constant_frame_gives_constant_samples(self, layout):
        frame = Frame(layout, np.full(layout.total_symbols, 3))
        rc = make_rc(0.0, 2.048e6, 8)
        wave = synthesize(frame, TxMode.CONVENTIONAL, VoltagePhaseCurve(), rc, 8)
        np.testing.assert_allclose(wave.samples, wave.samples[0], rtol=1e-15)

    def test_modes_agree_for_ideal_cells(self, frame):
        """tau = 0 and unit amplitude collapse the surface model to ideal PSK."""
        rc = make_rc(0.0, 2.048e6, 8)
        curve = VoltagePhaseCurve(amplitude=1.0)
        a = synthesize(frame, TxMode.METASURFACE, curve, rc, 8)
        b = synthesize(frame, TxMode.CONVENTIONAL, curve, rc, 8)
        assert np.max(np.abs(a.samples - b.samples)) < 1e-12

    def test_surface_mode_carries_cell_magnitude(self, frame):
        rc = make_rc(0.0, 2.048e6, 8)
        wave = synthesize(frame, TxMode.METASURFACE, VoltagePhaseCurve(), rc, 8)
        np.testing.assert_allclose(np.abs(wave.samples), np.sqrt(0.85), rtol=1e-12)

    def test_phase_offset_rotates_everything(self, frame):
        rc = make_rc(0.0, 2.048e6, 8)
        curve = VoltagePhaseCurve(amplitude=1.0)
        base = synthesize(frame, TxMode.CONVENTIONAL, curve, rc, 8)
        rot = synthesize(frame, TxMode.CONVENTIONAL, curve, rc, 8, phase_offset_deg=30.0)
        np.testing.assert_allclose(rot.samples, base.samples * np.exp(1j * np.deg2rad(30.0)), atol=1e-12)

    def test_lag_follows_analytic_settling(self, layout):
        """Mid-symbol phase error after a step equals the lag prediction."""
        symbol_rate, ovs = 2.048e6, 8
        tau = 0.5 / symbol_rate
        rc = make_rc(tau, symbol_rate, ovs)
        curve = VoltagePhaseCurve(amplitude=1.0)
        symbols = np.zeros(layout.total_symbols, dtype=int)
        symbols[-8:] = 1  # one 45 deg step late in the frame
        frame = Frame(layout, symbols)
        wave = synthesize(frame, TxMode.METASURFACE, curve, rc, ovs)

        step_at = (layout.total_symbols - 8) * ovs
        ts = 1.0 / (symbol_rate * ovs)
        alpha = np.exp(-ts / tau)
        # first symbol after the step, sampled at its midpoint
        mid = step_at + ovs // 2
        steps = mid - step_at + 1
        expect_err = 45.0 * alpha**steps
        got = np.rad2deg(np.angle(wave.samples[mid]))
        assert 45.0 - got == pytest.approx(expect_err, rel=1e-9)
        # by the second symbol's midpoint the 45 deg step has settled
        got2 = np.rad2deg(np.angle(wave.samples[mid + ovs]))
        assert abs(45.0 - got2) < 5.0
        assert abs(45.0 - got2) == pytest.approx(45.0 * alpha ** (steps + ovs), rel=1e-9)

    def test_waveform_requires_integer_oversampling(self):
        for oversampling in (0, -1):
            with pytest.raises(ValueError, match="oversampling"):
                Waveform(np.zeros(4, dtype=complex), oversampling)

    @pytest.mark.parametrize("mode", list(TxMode))
    def test_synthesize_refuses_zero_oversampling(self, frame, mode):
        """-1 too: the surface path would otherwise fail in numpy's allocation."""
        for oversampling in (0, -1):
            with pytest.raises(ValueError, match="oversampling must be >= 1"):
                synthesize(frame, mode, VoltagePhaseCurve(), make_rc(0.0, 2.048e6, 1), oversampling)

    def test_synthesize_refuses_an_unknown_mode(self, frame):
        with pytest.raises(ValueError, match="unknown mode"):
            synthesize(frame, "qpsk", VoltagePhaseCurve(), make_rc(0.0, 2.048e6, 8), 8)
