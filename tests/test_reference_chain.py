"""``run_trials`` against the frozen reference chain, outcome by outcome.

Each drawn case is a config, a channel, a mode and a block of 1, 3 or 8
trial seeds.  Every trial of the block must come out of
:func:`metapsk.harness.run_trials` as it comes out of
:func:`reference_chain.run_trial` alone: the same ``eq_data`` bytes,
decisions and bits, the same :class:`~metapsk.receiver.LinkMetrics`,
or a sync failure with the same text.
"""

import math
from dataclasses import astuple

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_chain
from metapsk.baseband import TxMode
from metapsk.channel import ChannelConfig
from metapsk.config import SimConfig
from metapsk.harness import run_trials

RATES = (0.256e6, 0.512e6, 1.024e6, 2.048e6, 4.096e6)

configs = st.builds(
    SimConfig,
    oversampling=st.integers(1, 8),
    tau_s=st.sampled_from([0.0, 40e-9, 200e-9, 1e-6]) | st.floats(0.0, 1e-6),
    symbol_rate_hz=st.sampled_from(RATES),
    phase_offset_deg=st.sampled_from([0.0, 13.0, 22.5, -90.0]) | st.floats(-360.0, 360.0),
    cell_amplitude=st.sampled_from([math.sqrt(0.85), 1.0]) | st.floats(0.05, 1.0),
    incident_amplitude=st.sampled_from([1.0, 0.3]) | st.floats(1e-3, 1e3),
    sync_threshold=st.sampled_from([0.5, 0.0, 0.8]) | st.floats(0.0, 1.0),
    sync_len=st.sampled_from([8, 31, 64]),
    pilot_len=st.integers(1, 32),
    # odd lengths give an odd number of payload bits; 255 is 6,885 bits
    data_len=st.integers(1, 40) | st.just(255),
)

channels = (
    st.builds(ChannelConfig, snr_db=st.floats(-3.0, 25.0) | st.just(math.inf))
    | st.builds(ChannelConfig, tx_power_dbm=st.floats(-60.0, -10.0),
                link_loss_db=st.floats(30.0, 60.0), noise_floor_dbm=st.floats(-100.0, -90.0))
)


@settings(max_examples=60, deadline=None)
@given(
    cfg=configs,
    channel=channels,
    mode=st.sampled_from(TxMode),
    seeds=st.sampled_from([8, 3, 1]).flatmap(
        lambda n: st.lists(st.integers(0, 2**64 - 1), min_size=n, max_size=n)),
)
def test_every_outcome_equals_the_reference(cfg, channel, mode, seeds):
    received, metrics = run_trials(mode, cfg, channel, seeds)
    assert len(received) == len(metrics) == len(seeds)
    for seed, frame, got in zip(seeds, received, metrics):
        try:
            ref_frame, ref_metrics = reference_chain.run_trial(
                mode is TxMode.CONVENTIONAL, cfg, channel, seed)
        except reference_chain.ReferenceSyncError as exc:
            assert got is None
            assert str(frame) == str(exc)
            continue
        assert got is not None, str(frame)
        assert astuple(got) == astuple(ref_metrics)
        assert frame.eq_data.tobytes() == ref_frame.eq_data.tobytes()
        assert np.array_equal(frame.symbols, ref_frame.symbols)
        assert np.array_equal(frame.bits, ref_frame.bits)
        assert (frame.sync.frame_start, frame.sync.peak) == (ref_frame.frame_start, ref_frame.peak)
        assert frame.estimate.gain == ref_frame.gain
