"""``run_trials`` against the frozen reference chain, outcome by outcome.

Each drawn case is a config, a channel, a mode and a block of 1, 3 or 8
trial seeds.  Every trial of the block must come out of
:func:`metapsk.harness.run_trials` as it comes out of
:func:`reference_chain.run_trial` alone: the same ``eq_data`` bytes,
decisions and bits, the same :class:`~metapsk.receiver.LinkMetrics`,
or a sync failure with the same text.

Each point case must come out of :func:`metapsk.harness.run_point` as
it comes out of :func:`reference_chain.run_point`, column by column,
with its blocks run in this process and with a forked trial worker.
"""

import math
from dataclasses import asdict, astuple, replace

import numpy as np
from hypothesis import given, settings
import pytest
from hypothesis import strategies as st

import reference_chain
from metapsk.baseband import TxMode
from metapsk.channel import ChannelConfig
from metapsk.config import SimConfig
from metapsk import harness
from metapsk.harness import SweepVar, run_point, run_trials

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


# 96 symbols, 216 payload bits: a block holds every trial of a point
SMALL = SimConfig(oversampling=1, sync_len=16, pilot_len=8, data_len=8)
# 600 symbols at oversampling 4, 1,728 payload bits: blocks of 8 trials
EIGHTS = SimConfig(oversampling=4, sync_len=16, pilot_len=8, data_len=64)

# (mode, var, value, cfg, trials, paired, what the reference row must show)
POINTS = {
    # stopped by min_errors, with sync failures among the trials taken
    "early-stopped": ("metasurface", "power", -42.0, replace(SMALL, min_errors=150, sync_threshold=0.6),
                      30, False, lambda r: r["bit_errors"] >= 150 and r["sync_failures"] > 0
                      and r["frames"] + r["sync_failures"] < 30),
    "capped by trials": ("conventional", "snr", 30.0, SMALL, 5, False,
                         lambda r: r["frames"] == 5 and r["low_confidence"]),
    "stopped by max_bits": ("conventional", "snr", 30.0, replace(SMALL, max_bits=500), 10, False,
                            lambda r: r["frames"] == 3 and r["bits"] == 648),
    # every trial runs, although the first frame's errors reach min_errors
    "paired": ("metasurface", "rate", 4.096e6, replace(SMALL, min_errors=1, rate_sweep_snr_db=6.0), 4,
               True, lambda r: r["frames"] + r["sync_failures"] == 4 and r["bit_errors"] > 1),
    # the stop in this process's first block, the worker's block still in flight
    "stop in the first block of 8": ("conventional", "snr", 20.0, replace(EIGHTS, max_bits=3 * 1728),
                                     32, False, lambda r: r["frames"] == 3),
    # the stop in the worker's block, trials 8-15
    "stop in the second block of 8": ("conventional", "snr", 20.0, replace(EIGHTS, max_bits=11 * 1728),
                                      32, False, lambda r: r["frames"] == 11),
    "every frame fails sync": ("conventional", "snr", -10.0, replace(SMALL, sync_threshold=0.95), 6,
                               False, lambda r: r["sync_failures"] == 6 and math.isnan(r["ber"])),
}


def _same(a, b):
    return a == b or (isinstance(a, float) and isinstance(b, float) and math.isnan(a) and math.isnan(b))


@pytest.fixture(scope="module")
def trial_worker():
    worker = harness._TrialWorker()
    yield worker
    worker.close()


@pytest.mark.parametrize("with_worker", [False, True], ids=["serial", "worker"])
@pytest.mark.parametrize("case", POINTS)
def test_every_point_column_equals_the_reference(case, with_worker, request):
    mode, var, value, cfg, trials, paired, shows = POINTS[case]
    want = reference_chain.run_point(mode, var, value, cfg, 5, trials, paired)
    assert shows(want)
    worker = request.getfixturevalue("trial_worker") if with_worker else None
    sent = worker._sent if worker else 0
    got = asdict(run_point(TxMode(mode), SweepVar(var), value, cfg, 5, trials, paired, worker=worker))
    if worker and cfg.oversampling == EIGHTS.oversampling:
        assert worker._sent > sent  # the worker ran the second block
    got.update(mode=got["mode"].value, sweep_var=got["sweep_var"].value)
    assert got.keys() == want.keys()
    assert [name for name in want if not _same(got[name], want[name])] == [], (got, want)
