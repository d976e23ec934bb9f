"""Sweep driver, result serialization, and mode comparison tests."""

import cmath
import errno
import itertools
import json
import math
import os
import resource
import signal
import tempfile
import time
from dataclasses import astuple, replace
from itertools import accumulate
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from metapsk import harness
from metapsk.baseband import TxMode
from metapsk.channel import ChannelConfig
from metapsk.cli import main
from metapsk.config import SimConfig
from metapsk.receiver import LinkMetrics, SyncError
from helpers import loglinear_curve, synthetic_point
from metapsk.harness import (
    HardwareCounts,
    PointResult,
    SweepSpec,
    SweepVar,
    compare_modes,
    default_values,
    derive_seed,
    hardware_counts,
    read_results_csv,
    run_point,
    run_sweep,
    run_trial,
    write_manifest,
    write_results_csv,
)


def fast_cfg(**overrides) -> SimConfig:
    return SimConfig(oversampling=1, **overrides)


class TestPayload:
    """``_payload`` takes a frame's bits from its generator's raw words."""

    # 6,912 bits: the default frame; 6,885: data_len 255, an odd count of bits
    @pytest.mark.parametrize("n", [6912, 6885])
    def test_raw_word_payload_equals_bounded_integers(self, n):
        """Bit for bit ``Generator.integers(0, 2, size=n)``, on 1,000 trial seeds.

        This rests on numpy's bounded integers for a range of two (the top
        bit of each 32-bit half of a raw word): a numpy that changes that
        path fails here.
        """
        seeds = [derive_seed(derive_seed(5, "snr", repr(12.0), i), "payload") for i in range(1000)]
        payload = harness._payload(harness.bit_generators(seeds), n)
        assert payload.shape == (1000, n) and payload.dtype == np.uint8
        for seed, row in zip(seeds, payload):
            expected = np.random.default_rng(seed).integers(0, 2, size=n)
            assert np.array_equal(row, expected), seed


class TestDeriveSeed:
    def test_frozen_value(self):
        # sha256("271828|metasurface|snr|10.0|0"), first 8 bytes little endian
        assert derive_seed(271828, "metasurface", "snr", repr(10.0), 0) == 6238646130403099597

    def test_depends_on_every_part(self):
        base = derive_seed(1, "a", 0)
        assert derive_seed(2, "a", 0) != base
        assert derive_seed(1, "b", 0) != base
        assert derive_seed(1, "a", 1) != base

    def test_order_sensitive(self):
        assert derive_seed(1, "a", "b") != derive_seed(1, "b", "a")

    @given(st.integers(min_value=0, max_value=2**32), st.text(max_size=20))
    def test_fits_in_64_bits(self, master, label):
        assert 0 <= derive_seed(master, label) < 2**64


class TestSweepSpec:
    def test_rejects_empty_values(self):
        with pytest.raises(ValueError):
            SweepSpec(SweepVar.SNR, values=(), trials=1)
        for modes in ((), (TxMode.CONVENTIONAL, TxMode.CONVENTIONAL)):
            with pytest.raises(ValueError, match="modes"):
                SweepSpec(SweepVar.SNR, values=(1.0,), trials=1, modes=modes)

    def test_rejects_non_finite_values_and_non_positive_rates(self):
        for values in ((1.0, math.nan, 2.0), (math.nan,), (1.0, math.inf), (-math.inf, 1.0),
                       (10**400,), (-10**400, 1.0)):  # ints too large for a float
            with pytest.raises(ValueError, match="finite"):
                SweepSpec(SweepVar.SNR, values=values, trials=1)
        with pytest.raises(ValueError, match="positive"):
            SweepSpec(SweepVar.SYMBOL_RATE, values=(0.0, 1e6), trials=1)

    def test_rejects_repeated_values(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            SweepSpec(SweepVar.SNR, values=(4.0, 4.0), trials=1)

    def test_rejects_zero_trials(self):
        with pytest.raises(ValueError):
            SweepSpec(SweepVar.SNR, values=(10.0,), trials=0)

    def test_trials_is_required(self):
        """A spec names its frame budget; there is no class default to fall back on."""
        with pytest.raises(TypeError, match="trials"):
            SweepSpec(SweepVar.SNR, values=(30.0,), modes=(TxMode.CONVENTIONAL,))

    def test_default_values_follow_config(self):
        cfg = SimConfig()
        assert default_values(SweepVar.SNR, cfg) == cfg.snr_grid_db
        assert default_values(SweepVar.SYMBOL_RATE, cfg) == cfg.rate_grid_hz
        assert default_values(SweepVar.TX_POWER, cfg) == cfg.power_grid_dbm


class TestRunPoint:
    def test_snr_sweep_ber_decreases(self):
        cfg = fast_cfg(min_errors=100)
        bers = []
        for snr in (0.0, 4.0, 8.0, 12.0):
            pt = run_point(TxMode.CONVENTIONAL, SweepVar.SNR, snr, cfg,
                           master_seed=11, trials=40)
            assert pt.bit_errors >= 100
            bers.append(pt.ber)
        assert bers == sorted(bers, reverse=True)

    def test_early_stop_at_error_floor(self):
        pt = run_point(TxMode.CONVENTIONAL, SweepVar.SNR, 0.0, fast_cfg(min_errors=100),
                       master_seed=12, trials=500)
        assert pt.frames == 1  # one frame at SNR 0 carries well over 100 errors
        assert not pt.low_confidence

    def test_max_bits_stop(self):
        pt = run_point(TxMode.CONVENTIONAL, SweepVar.SNR, 18.0,
                       fast_cfg(min_errors=10**9, max_bits=20000), master_seed=13, trials=500)
        assert pt.frames == 3  # 6912 payload bits per frame
        assert pt.low_confidence

    def test_low_confidence_flag_set_when_starved(self):
        pt = run_point(TxMode.CONVENTIONAL, SweepVar.SNR, 18.0, fast_cfg(min_errors=100),
                       master_seed=14, trials=1)
        assert pt.bits == 6912
        assert pt.low_confidence

    def test_sync_failures_counted(self):
        pt = run_point(TxMode.CONVENTIONAL, SweepVar.SNR, -25.0, fast_cfg(min_errors=1),
                       master_seed=15, trials=3)
        assert pt.sync_failures == 3
        assert pt.frames == 0
        assert pt.bits == 0
        for rate in (pt.ber, pt.ser, pt.evm_rms_pct, pt.est_snr_db):
            assert math.isnan(rate)
        assert pt.low_confidence

    def test_rate_sweep_holds_snr_constant(self):
        cfg = fast_cfg(min_errors=1)
        pt = run_point(TxMode.CONVENTIONAL, SweepVar.SYMBOL_RATE, 512e3, cfg,
                       master_seed=16, trials=2)
        assert pt.snr_db == cfg.rate_sweep_snr_db
        assert pt.symbol_rate_hz == 512e3

    def test_paired_runs_all_trials(self):
        pt = run_point(TxMode.CONVENTIONAL, SweepVar.SNR, 0.0, fast_cfg(min_errors=1),
                       master_seed=17, trials=4, paired=True)
        assert pt.frames == 4


def _metrics(bits=0, bit_errors=0, evm_rms_pct=0.0, est_snr_db=0.0):
    return LinkMetrics(ber=0.0, ser=0.0, evm_rms_pct=evm_rms_pct, est_snr_db=est_snr_db,
                       bits_compared=bits, bit_errors=bit_errors, symbol_errors=0, symbols_compared=1)


# a trial's outcome: its metrics, or None where sync failed
_outcome = st.none() | st.integers(0, 100).flatmap(
    lambda bits: st.integers(0, bits).map(lambda errors: _metrics(bits, errors)))


class TestStopRule:
    @settings(max_examples=300)
    @given(outcomes=st.lists(_outcome, max_size=30),
           min_errors=st.integers(1, 80), max_bits=st.integers(1, 600))
    def test_stops_at_the_first_trial_over_a_floor_and_runs_no_more(self, outcomes, min_errors,
                                                                     max_bits):
        totals = list(accumulate(((m.bits_compared, m.bit_errors) if m else (0, 0) for m in outcomes),
                                 lambda a, b: (a[0] + b[0], a[1] + b[1])))
        stop = next((trial + 1 for trial, (bits, errors) in enumerate(totals)
                     if errors >= min_errors or bits >= max_bits), len(outcomes))

        def run_until_the_stop():
            for trial, outcome in enumerate(outcomes):
                if trial == stop:
                    raise AssertionError(f"trial {trial} ran after the point stopped")
                yield outcome

        at_stop = totals[stop - 1] if stop else (0, 0)
        assert harness._until_stop(run_until_the_stop(), min_errors, max_bits) == \
            (outcomes[:stop], *at_stop)


class TestPointRow:
    def test_float_sums_run_trial_by_trial_left_to_right(self, monkeypatch):
        """One large term, then 16 small ones that each round away: a compensated
        or pairwise sum of either column prints another float."""
        frames = [_metrics(10, 1, 1e8, 0.0), *(_metrics(10, 1, 1.0, -160.0) for _ in range(16))]
        outcomes = iter([*frames[:5], None, *frames[5:]])

        def trials(mode, cfg, channel, seeds):
            metrics = list(itertools.islice(outcomes, len(seeds)))
            return [None] * len(metrics), metrics  # run_point reads the metrics alone

        monkeypatch.setattr(harness, "run_trials", trials)
        pt = run_point(TxMode.CONVENTIONAL, SweepVar.SNR, 10.0, fast_cfg(), master_seed=1, trials=18)
        assert (pt.frames, pt.sync_failures, pt.bits, pt.bit_errors, pt.ber) == (17, 1, 170, 17, 0.1)

        evm_sq = [m.evm_rms_pct**2 * m.symbols_compared for m in frames]
        snr_lin = [10.0 ** (m.est_snr_db / 10.0) for m in frames]

        def row_floats(total):
            return (float(np.sqrt(total(evm_sq) / len(frames))),
                    float(10.0 * np.log10(total(snr_lin) / len(frames))))

        def left_to_right(terms):
            acc = 0.0
            for term in terms:
                acc += term
            return acc

        assert (pt.evm_rms_pct, pt.est_snr_db) == row_floats(left_to_right)
        for other_order in (math.fsum, np.sum):
            other = row_floats(other_order)
            assert other[0] != pt.evm_rms_pct and other[1] != pt.est_snr_db

    def test_exactly_min_errors_is_confident(self, monkeypatch):
        frames = iter([_metrics(100, 10), _metrics(100, 10)])

        def trials(mode, cfg, channel, seeds):
            metrics = list(itertools.islice(frames, len(seeds)))
            return [None] * len(metrics), metrics

        monkeypatch.setattr(harness, "run_trials", trials)
        pt = run_point(TxMode.CONVENTIONAL, SweepVar.SNR, 10.0, fast_cfg(min_errors=20), master_seed=1,
                       trials=2)
        assert (pt.frames, pt.bit_errors, pt.low_confidence) == (2, 20, False)


def _point_at_each_block_cap(monkeypatch, snr_db, paired=False):
    """The conventional point at ``snr_db`` (seed 11, 40 trials) with the default
    block cap, then with caps of 1, 2 and 3 frames."""
    cfg = fast_cfg()
    frame_samples = cfg.layout().total_symbols * cfg.oversampling
    points = []
    for cap in (None, 1, 2, 3):
        if cap is not None:
            monkeypatch.setattr(harness, "_BLOCK_SAMPLES", cap * frame_samples)
        points.append(run_point(TxMode.CONVENTIONAL, SweepVar.SNR, snr_db, cfg, master_seed=11,
                                trials=40, paired=paired))
    return points


class TestTrialBlocks:
    """A point's row and a trial's outcome do not depend on the blocks trials run in."""

    def test_sync_failures_inside_blocks(self, monkeypatch):
        # trials 1, 7, 13, 21, 24, 27 and 30 fail sync: first, last and middle rows of blocks
        default, *capped = _point_at_each_block_cap(monkeypatch, -4.0, paired=True)
        assert (default.frames, default.sync_failures) == (33, 7)
        assert capped == [default] * 3

    def test_stop_inside_a_block(self, monkeypatch):
        # the stop at trial 6 falls inside the default first block, trials 0-7
        default, *capped = _point_at_each_block_cap(monkeypatch, 14.0)
        assert (default.frames, default.bit_errors) == (6, 106)
        assert capped == [default] * 3

    def test_paired_point_runs_every_block(self, monkeypatch):
        default, *capped = _point_at_each_block_cap(monkeypatch, 16.0, paired=True)
        assert default.frames == 40
        assert capped == [default] * 3

    @pytest.mark.parametrize("mode", list(TxMode))
    def test_run_trial_is_its_row_of_a_block(self, mode):
        cfg = fast_cfg()
        channel = harness._channel_for(SweepVar.SNR, -4.0, cfg, mode)
        seeds = [derive_seed(11, SweepVar.SNR.value, repr(-4.0), trial) for trial in range(9)]
        block = harness.run_trials(mode, cfg, channel, seeds)
        assert [len(outcomes) for outcomes in block] == [len(seeds)] * 2
        failed = 0
        for seed, row_received, row_metrics in zip(seeds, *block):
            try:
                received, metrics = run_trial(mode, cfg, channel, seed)
            except SyncError as exc:
                failed += 1
                assert isinstance(row_received, SyncError) and str(row_received) == str(exc)
                assert row_metrics is None
                continue
            assert row_received.eq_data.tobytes() == received.eq_data.tobytes()
            assert row_metrics == metrics
        assert 0 < failed < len(seeds)


class TestRateInvariance:
    """At a fixed SNR the sample count and noise draw do not depend on the
    symbol rate, so a trial with the same seed is rate for rate identical
    whenever the transmitter has no memory."""

    @pytest.mark.parametrize("mode,tau_s", [
        (TxMode.CONVENTIONAL, 40e-9),
        (TxMode.METASURFACE, 0.0),
    ])
    def test_trial_metrics_identical_across_rates(self, mode, tau_s):
        cfg = fast_cfg(tau_s=tau_s)
        channel = ChannelConfig(snr_db=8.0)
        _, a = run_trial(mode, replace(cfg, symbol_rate_hz=256e3), channel, seed=33)
        _, b = run_trial(mode, replace(cfg, symbol_rate_hz=4096e3), channel, seed=33)
        assert a.bit_errors == b.bit_errors
        assert a.symbol_errors == b.symbol_errors
        assert a.evm_rms_pct == pytest.approx(b.evm_rms_pct, rel=1e-9)


class TestConstellationRotation:
    @pytest.mark.parametrize("mode", list(TxMode))
    @pytest.mark.parametrize("offset_deg", [30.0, 133.7, -45.0])
    def test_rotated_transmitter_is_error_free_without_noise(self, mode, offset_deg):
        """The receiver is told nothing of the rotation; the gain estimate takes it up."""
        cfg = SimConfig(phase_offset_deg=offset_deg)
        received, metrics = run_trial(mode, cfg, ChannelConfig(snr_db=math.inf), seed=34)
        assert metrics.bit_errors == 0
        assert metrics.symbol_errors == 0
        if mode is TxMode.CONVENTIONAL:
            assert received.estimate.gain == pytest.approx(cmath.exp(1j * math.radians(offset_deg)))


class TestPairedSeeding:
    def test_modes_share_noise_when_transmitters_agree(self):
        # tau 0 and unit cell amplitude make both transmitters emit the
        # same waveform, so paired seeding must give identical counts.
        cfg = fast_cfg(tau_s=0.0, cell_amplitude=1.0)
        ms, conv = run_sweep(SweepSpec(SweepVar.SNR, (6.0,), trials=3, master_seed=18,
                                       paired=True), cfg)
        assert ms.bit_errors == conv.bit_errors
        assert ms.ser == conv.ser
        assert ms.bits == conv.bits

    def test_unpaired_seeds_differ_by_mode(self):
        cfg = fast_cfg(tau_s=0.0, cell_amplitude=1.0, min_errors=1)
        ms = run_point(TxMode.METASURFACE, SweepVar.SNR, 0.0, cfg,
                       master_seed=18, trials=1)
        conv = run_point(TxMode.CONVENTIONAL, SweepVar.SNR, 0.0, cfg,
                         master_seed=18, trials=1)
        assert ms.bit_errors != conv.bit_errors


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _exit_code(pid, timeout_s=10.0):
    """The exit code of child ``pid``, waited for at most ``timeout_s``."""
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        done, status = os.waitpid(pid, os.WNOHANG)
        if done:
            return os.waitstatus_to_exitcode(status)
        time.sleep(0.01)
    os.kill(pid, signal.SIGKILL)
    os.waitpid(pid, 0)
    pytest.fail(f"process {pid} still ran after {timeout_s} s")


def _timed_out(signum, frame):
    raise TimeoutError("the sweep hung")


def _cpus(monkeypatch, cpus):
    """Fake the CPUs this process may run on: two or more fork a trial worker."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(cpus))


class _SpiedWorker(harness._TrialWorker):
    """A trial worker that records itself and the requests it was sent."""

    made = []

    def __init__(self):
        super().__init__()
        self.made.append(self)

    def close(self):
        self.requests = self._sent
        super().close()


class _KilledWorker(_SpiedWorker):
    """A trial worker killed before its first request: that request finds no reader."""

    def __init__(self):
        super().__init__()
        os.kill(self.pid, signal.SIGKILL)
        os.waitid(os.P_PID, self.pid, os.WEXITED | os.WNOWAIT)  # dead, and left for close() to reap


@pytest.fixture
def spied_worker(monkeypatch):
    monkeypatch.setattr(_SpiedWorker, "made", [])
    monkeypatch.setattr(harness, "_TrialWorker", _SpiedWorker)
    return _SpiedWorker


def _failing_on(monkeypatch, seed):
    """``run_trials`` raises, naming the process, on a block holding trial ``seed``."""
    run_trials = harness.run_trials

    def trials(mode, cfg, channel, seeds):
        if seed in seeds:
            raise ValueError(f"trial {seed} failed in process {os.getpid()}")
        return run_trials(mode, cfg, channel, seeds)

    monkeypatch.setattr(harness, "run_trials", trials)


class TestTrialWorker:
    """Blocks run in a forked trial worker give the bytes of blocks run in-process."""

    # three conventional trials at 30 dB, none of which stops the point
    spec = SweepSpec(SweepVar.SNR, (30.0,), trials=3, modes=(TxMode.CONVENTIONAL,))

    def seed_of(self, trial):
        return derive_seed(self.spec.master_seed, TxMode.CONVENTIONAL.value, SweepVar.SNR.value,
                           repr(30.0), trial)

    @pytest.mark.parametrize("ovs,argv", [
        # low powers stop after a frame or two, high ones run the budget
        (8, ["--var", "power", "--values", "-40", "-36", "-24", "--trials", "4"]),
        (8, ["--var", "rate", "--values", "512000", "4096000", "--trials", "3", "--paired"]),
        (32, ["--var", "snr", "--values", "16", "--trials", "3"]),
        # BLOCKED_SHA256's sweep: points stop after 1, 2 or 6 frames, the rest run 40
        (1, ["--var", "snr", "--trials", "40", "--seed", "11"]),
        (2, ["--var", "power", "--trials", "12"]),
    ])
    def test_both_paths_write_the_same_bytes(self, capsys, monkeypatch, tmp_path, spied_worker,
                                             ovs, argv):
        cfg = tmp_path / "ovs.cfg"
        cfg.write_text(f"oversampling = {ovs}\n")
        artifacts = {}
        for cpus in ((0,), (0, 1)):
            _cpus(monkeypatch, cpus)
            out = tmp_path / str(len(cpus))
            assert main(["sweep", *argv, "--config", str(cfg), "--out", str(out)]) == 0
            artifacts[cpus] = [(out / name).read_bytes() for name in ("results.csv", "manifest.json")]
        capsys.readouterr()
        assert artifacts[(0, 1)] == artifacts[(0,)]
        (worker,) = spied_worker.made
        assert worker.requests > 0
        if argv[1] == "power" and ovs == 8:
            frames = [p.frames + p.sync_failures for p in read_results_csv(tmp_path / "2" / "results.csv")]
            assert min(frames) < 4 and max(frames) == 4  # early stops and full points both ran

    def test_a_worker_only_on_two_cpus(self, monkeypatch, spied_worker):
        _cpus(monkeypatch, {0})
        run_sweep(self.spec, fast_cfg())
        assert spied_worker.made == []
        _cpus(monkeypatch, {2, 5})
        run_sweep(self.spec, fast_cfg())
        assert len(spied_worker.made) == 1

    def one_frame_per_block(self, monkeypatch):
        """Blocks of one trial: this process runs the even trials, the worker the odd ones."""
        monkeypatch.setattr(harness, "_BLOCK_SAMPLES", fast_cfg().layout().total_symbols)

    @pytest.mark.parametrize("trial,where", [(0, "parent"), (1, "worker")])
    def test_no_process_outlives_the_sweep(self, monkeypatch, spied_worker, trial, where):
        _cpus(monkeypatch, {0, 1})
        run_sweep(self.spec, fast_cfg())
        _no_child_left()
        self.one_frame_per_block(monkeypatch)
        _failing_on(monkeypatch, self.seed_of(trial))
        with pytest.raises(ValueError, match=f"trial {self.seed_of(trial)} failed") as raised:
            run_sweep(self.spec, fast_cfg())
        pid = int(str(raised.value).rsplit(" ", 1)[1])
        assert pid == (os.getpid() if where == "parent" else spied_worker.made[-1].pid)
        _no_child_left()

    @pytest.mark.parametrize("when", ["before_its_first_block", "during_the_sweep"])
    def test_parent_raises_when_the_worker_is_killed(self, monkeypatch, spied_worker, when):
        parent, run_trials = os.getpid(), harness.run_trials

        def trials(mode, cfg, channel, seeds):
            if os.getpid() == parent and self.seed_of(0) in seeds:  # trial 0 runs in this process
                os.kill(spied_worker.made[-1].pid, signal.SIGKILL)
            return run_trials(mode, cfg, channel, seeds)

        if when == "before_its_first_block":
            monkeypatch.setattr(harness, "_TrialWorker", _KilledWorker)
        else:  # the worker is sent trial 1, then killed while this process runs trial 0
            self.one_frame_per_block(monkeypatch)
            monkeypatch.setattr(harness, "run_trials", trials)
        _cpus(monkeypatch, {0, 1})
        signal.signal(signal.SIGALRM, _timed_out)
        signal.alarm(30)
        try:
            with pytest.raises(RuntimeError, match="trial worker exited"):
                run_sweep(replace(self.spec, trials=6), fast_cfg())
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, signal.SIG_DFL)
        _no_child_left()

    def test_a_failed_fork_raises_and_leaks_nothing(self, capsys, monkeypatch, tmp_path):
        """No process to spare: the sweep raises the fork's error with the four pipe
        ends closed and no child made, and ``metapsk sweep`` prints one JSON line."""
        no_process = OSError(errno.EAGAIN, os.strerror(errno.EAGAIN))

        def fork():
            raise no_process

        _cpus(monkeypatch, {0, 1})
        monkeypatch.setattr(os, "fork", fork)
        fds = sorted(os.listdir("/proc/self/fd"))
        with pytest.raises(OSError) as raised:
            run_sweep(self.spec, fast_cfg())
        assert raised.value.errno == errno.EAGAIN
        assert sorted(os.listdir("/proc/self/fd")) == fds
        _no_child_left()
        code = main(["sweep", "--var", "snr", "--values", "30", "--trials", "3",
                     "--out", str(tmp_path / "out")])
        out, err = capsys.readouterr()
        assert (code, out) == (1, "")
        assert json.loads(err) == {"error": str(no_process)}
        assert sorted(os.listdir("/proc/self/fd")) == fds
        _no_child_left()

    def test_worker_exits_when_its_pipe_from_the_parent_closes(self):
        worker = harness._TrialWorker()
        worker._requests.close()
        assert _exit_code(worker.pid) == 0
        worker._replies.close()

    def test_worker_cpu_counts_as_the_sweeps_children(self, monkeypatch):
        _cpus(monkeypatch, {0, 1})
        before = resource.getrusage(resource.RUSAGE_CHILDREN)
        run_sweep(replace(self.spec, trials=200), fast_cfg())
        after = resource.getrusage(resource.RUSAGE_CHILDREN)
        assert after.ru_utime + after.ru_stime > before.ru_utime + before.ru_stime
        assert after.ru_maxrss > 0

    def test_a_dropped_reply_is_never_the_next_points(self):
        cfg = fast_cfg()

        def point(snr_db, worker=None):
            return run_point(TxMode.CONVENTIONAL, SweepVar.SNR, snr_db, cfg, master_seed=11,
                             trials=12, worker=worker)

        worker = harness._TrialWorker()
        try:
            early = point(4.0, worker)
            # stopped after trial 0, its own block, with trial 1 in flight in the worker
            assert (early.frames, worker._sent, worker._received) == (1, 1, 0)
            full = point(30.0, worker)
            assert (full.frames, worker._received) == (12, worker._sent)
        finally:
            worker.close()
        _no_child_left()
        assert (early, full) == (point(4.0), point(30.0))


# an error rate as a results.csv row holds it: in [0, 1], or NaN where no frame passed sync
_rate = st.just(math.nan) | st.floats(0.0, 1.0)
_finite = st.floats(allow_nan=False, allow_infinity=False)


class TestResultsTable:
    def _small_sweep(self):
        spec = SweepSpec(SweepVar.SNR, values=(4.0, 8.0), trials=3, master_seed=19)
        return spec, run_sweep(spec, fast_cfg(min_errors=50))

    def test_rerun_is_byte_identical(self, tmp_path):
        spec, results = self._small_sweep()
        _, again = self._small_sweep()
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_results_csv(p1, results)
        write_results_csv(p2, again)
        assert p1.read_bytes() == p2.read_bytes()

    def test_roundtrip_preserves_fields(self, tmp_path):
        _, results = self._small_sweep()
        nan = math.nan
        results.append(replace(results[0], ber=nan, ser=nan, evm_rms_pct=nan, est_snr_db=nan,
                               bits=0, bit_errors=0, frames=0, sync_failures=3))
        path = tmp_path / "results.csv"
        write_results_csv(path, results)
        back = read_results_csv(path)
        assert len(back) == len(results)
        for a, b in zip(results, back):
            assert a.mode is b.mode and a.sweep_var is b.sweep_var
            assert a.value == b.value
            assert a.tx_power_dbm is None and b.tx_power_dbm is None
            for x, y in ((a.ber, b.ber), (a.ser, b.ser), (a.evm_rms_pct, b.evm_rms_pct),
                         (a.est_snr_db, b.est_snr_db)):
                assert x == y or (math.isnan(x) and math.isnan(y))
            assert (a.bits, a.bit_errors, a.frames, a.sync_failures) == \
                   (b.bits, b.bit_errors, b.frames, b.sync_failures)
            assert a.low_confidence == b.low_confidence

    @given(results=st.lists(st.builds(
        PointResult,
        mode=st.sampled_from(TxMode), sweep_var=st.sampled_from(SweepVar),
        value=_finite, symbol_rate_hz=st.floats(0.0, exclude_min=True, allow_infinity=False),
        snr_db=st.floats(), tx_power_dbm=st.none() | _finite, ber=_rate, ser=_rate,
        evm_rms_pct=st.floats(), est_snr_db=st.floats(),
        bits=st.integers(0, 2**63), bit_errors=st.integers(0, 2**63),
        frames=st.integers(0, 2**31), sync_failures=st.integers(0, 2**31),
        low_confidence=st.booleans(),
    ), max_size=4))
    def test_any_rows_survive_write_and_read(self, results):
        def nan_aware(r):
            return tuple("nan" if isinstance(v, float) and math.isnan(v) else v for v in astuple(r))

        with tempfile.TemporaryDirectory() as tmp:
            first, second = Path(tmp) / "a.csv", Path(tmp) / "b.csv"
            write_results_csv(first, results)
            back = read_results_csv(first)
            assert [nan_aware(r) for r in back] == [nan_aware(r) for r in results]
            write_results_csv(second, back)
            assert second.read_bytes() == first.read_bytes()

    @pytest.mark.parametrize("column,text", [
        ("bits", " 1_000 "), ("bits", "1_000"), ("bits", " 6912"), ("bit_errors", "-3"),
        ("frames", "+1"), ("sync_failures", "1.0"), ("ber", "1_0"), ("ber", " 0.5"), ("ber", "1.5"),
        ("ser", "-0.25"), ("ser", "inf"), ("evm_rms_pct", "1_0.0"), ("snr_db", "12.0 "),
        ("tx_power_dbm", " -30.0"), ("value", "nan"), ("value", "inf"), ("value", "-inf"),
        ("symbol_rate_hz", "nan"), ("symbol_rate_hz", "inf"), ("symbol_rate_hz", "0.0"),
        ("symbol_rate_hz", "-2048000.0"), ("tx_power_dbm", "-inf"), ("tx_power_dbm", "nan"),
        ("ber", "5e-1"), ("ber", "0.50"), ("bits", "007"), ("evm_rms_pct", "NaN"), ("snr_db", "1E1"),
        ("est_snr_db", "Infinity"), ("value", "10"), ("tx_power_dbm", "-3e1"),
        ("symbol_rate_hz", "2.048e6"),
    ])
    def test_text_the_writer_never_writes_is_refused(self, tmp_path, column, text):
        """Python's int() and float() take spaces, digit underscores, other
        spellings of a number and non-finite numbers a sweep never writes;
        the reader does not."""
        path = tmp_path / "results.csv"
        write_results_csv(path, [synthetic_point(TxMode.CONVENTIONAL, 10.0, 0.01, SweepVar.TX_POWER)])
        header, row = path.read_text().splitlines()
        fields = dict(zip(header.split(","), row.split(",")))
        fields[column] = text
        path.write_text(header + "\n" + ",".join(fields.values()) + "\n")
        with pytest.raises(ValueError, match=f"^{path}:2: column '{column}': "):
            read_results_csv(path)

    @pytest.mark.parametrize("column,text,says", [
        *((name, "-1", "'-1' is not a count") for name, kind in
          harness._FIELD_TYPES.items() if kind is int),
        ("low_confidence", "2", "'2' is not as written"),
        ("low_confidence", "true", "'true' is not as written"),
        ("low_confidence", "", "'' is not as written"),
        ("bits", "1.0", "invalid literal"),
    ])
    def test_refusal_names_what_is_wrong(self, tmp_path, column, text, says):
        """Every int column is a count by its type alone, and a field that
        parses but does not format back is 'not as written'."""
        path = tmp_path / "results.csv"
        write_results_csv(path, [synthetic_point(TxMode.CONVENTIONAL, 10.0, 0.01, SweepVar.TX_POWER)])
        header, row = path.read_text().splitlines()
        fields = dict(zip(header.split(","), row.split(",")))
        fields[column] = text
        path.write_text(header + "\n" + ",".join(fields.values()) + "\n")
        with pytest.raises(ValueError, match=f"^{path}:2: column '{column}': {says}"):
            read_results_csv(path)

    def test_file_that_is_not_utf8_is_refused(self, tmp_path):
        path = tmp_path / "results.csv"
        write_results_csv(path, [synthetic_point(TxMode.CONVENTIONAL, 10.0, 0.01)])
        path.write_bytes(path.read_bytes().replace(b"conventional", b"conventional\xff"))
        with pytest.raises(ValueError, match=f"^{path}: byte [0-9]+ is not UTF-8"):
            read_results_csv(path)

    def test_power_sweep_records_tx_power(self, tmp_path):
        spec = SweepSpec(SweepVar.TX_POWER, values=(-22.0,),
                         modes=(TxMode.CONVENTIONAL,), trials=1, master_seed=20)
        results = run_sweep(spec, fast_cfg(min_errors=1))
        assert results[0].tx_power_dbm == -22.0
        assert results[0].snr_db == pytest.approx(23.0)  # -22 - 50 + 95
        path = tmp_path / "results.csv"
        write_results_csv(path, results)
        assert read_results_csv(path)[0].tx_power_dbm == -22.0


class TestManifest:
    def test_contents_and_determinism(self, tmp_path):
        spec = SweepSpec(SweepVar.SNR, values=(4.0, 8.0), trials=3, master_seed=19)
        cfg = fast_cfg()
        p1, p2 = tmp_path / "m1.json", tmp_path / "m2.json"
        write_manifest(p1, spec, cfg)
        write_manifest(p2, spec, cfg)
        assert p1.read_bytes() == p2.read_bytes()
        manifest = json.loads(p1.read_text())
        assert manifest["sweep"]["var"] == "snr"
        assert manifest["sweep"]["values"] == [4.0, 8.0]
        assert manifest["sweep"]["master_seed"] == 19
        assert "paired" not in manifest["sweep"]  # unpaired manifests keep their bytes
        assert manifest["config"]["oversampling"] == 1
        assert manifest["config"]["symbol_rate_hz"] == 2048000.0
        assert "package_version" in manifest


class TestHardwareCounts:
    def test_surface_needs_one_amplifier_and_no_mixers(self):
        assert hardware_counts(256, TxMode.METASURFACE) == \
            HardwareCounts(power_amplifiers=1, mixers=0, filters=0)

    def test_conventional_scales_with_elements(self):
        assert hardware_counts(256, TxMode.CONVENTIONAL) == \
            HardwareCounts(power_amplifiers=256, mixers=512, filters=512)
        assert hardware_counts(1, TxMode.CONVENTIONAL) == \
            HardwareCounts(power_amplifiers=1, mixers=2, filters=2)

    @given(st.integers(min_value=1, max_value=10**6))
    @settings(max_examples=30)
    def test_surface_counts_independent_of_aperture(self, channels):
        assert hardware_counts(channels, TxMode.METASURFACE) == \
            hardware_counts(1, TxMode.METASURFACE)

    def test_rejects_empty_aperture(self):
        with pytest.raises(ValueError):
            hardware_counts(0, TxMode.CONVENTIONAL)


class TestCompareModes:
    def test_identical_curves_have_zero_gap(self):
        results = loglinear_curve(TxMode.METASURFACE, 0.0) + \
            loglinear_curve(TxMode.CONVENTIONAL, 0.0)
        for gap in compare_modes(results):
            assert gap.gap_db == pytest.approx(0.0, abs=1e-9)

    def test_six_db_shift_is_recovered(self):
        grid = (0.0, 4.0, 8.0, 12.0, 16.0, 20.0)
        results = loglinear_curve(TxMode.METASURFACE, 6.0, values=grid) + \
            loglinear_curve(TxMode.CONVENTIONAL, 0.0, values=grid)
        gaps = compare_modes(results, targets=(1e-2, 1e-3))
        for gap in gaps:
            assert gap.gap_db == pytest.approx(6.0, abs=1e-9)
        assert gaps[0].metasurface_value == pytest.approx(14.0, abs=1e-9)
        assert gaps[0].conventional_value == pytest.approx(8.0, abs=1e-9)

    def test_target_outside_curve_reports_note(self):
        results = loglinear_curve(TxMode.METASURFACE, 0.0, values=(0.0, 4.0)) + \
            loglinear_curve(TxMode.CONVENTIONAL, 0.0)
        gaps = compare_modes(results, targets=(1e-3,))
        assert gaps[0].gap_db is None
        assert "metasurface" in gaps[0].note

    def test_zero_error_points_are_skipped(self):
        """Points with no errors, or no frame through sync (NaN), carry no BER level."""
        curve = loglinear_curve(TxMode.METASURFACE, 0.0)
        curve.append(synthetic_point(TxMode.METASURFACE, 20.0, 0.0))
        curve.append(replace(synthetic_point(TxMode.METASURFACE, 10.0, 0.0), ber=math.nan))
        results = curve + loglinear_curve(TxMode.CONVENTIONAL, 0.0)
        gaps = compare_modes(results, targets=(1e-3,))
        assert gaps[0].gap_db == pytest.approx(0.0, abs=1e-9)

    def test_flat_segment_at_the_target_crosses_at_its_start(self):
        results = [synthetic_point(mode, value, ber)
                   for mode, shift in ((TxMode.METASURFACE, 6.0), (TxMode.CONVENTIONAL, 0.0))
                   for value, ber in ((4.0 + shift, 1e-2), (6.0 + shift, 1e-2), (8.0 + shift, 1e-3))]
        (gap,) = compare_modes(results, targets=(1e-2,))
        assert (gap.metasurface_value, gap.conventional_value, gap.gap_db) == (10.0, 4.0, 6.0)

    def test_requires_both_modes(self):
        with pytest.raises(ValueError):
            compare_modes(loglinear_curve(TxMode.METASURFACE, 0.0))

    @given(st.floats(min_value=-8.0, max_value=8.0))
    @settings(max_examples=25, deadline=None)
    def test_any_shift_is_recovered(self, offset_db):
        results = loglinear_curve(TxMode.METASURFACE, offset_db,
                                  values=(-12.0, -6.0, 0.0, 6.0, 12.0, 18.0, 24.0)) + \
            loglinear_curve(TxMode.CONVENTIONAL, 0.0,
                            values=(-12.0, -6.0, 0.0, 6.0, 12.0, 18.0, 24.0))
        gaps = compare_modes(results, targets=(1e-2,))
        assert gaps[0].gap_db == pytest.approx(offset_db, abs=1e-9)
