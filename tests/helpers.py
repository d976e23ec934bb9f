"""Shared builders for the test suite."""

import numpy as np

from metapsk.baseband import FrameLayout, TxMode, build_frame, synthesize
from metapsk.cell import RcDynamics, VoltagePhaseCurve, voltage_to_reflection

DEFAULT_RATE = 2.048e6
DEFAULT_OVS = 8


def rc_step(rc: RcDynamics, v_now: float, v_target: float) -> float:
    """Advance the bias voltage one sample toward ``v_target``."""
    return v_target + (v_now - v_target) * rc.alpha


def lag_samples(rc: RcDynamics, levels, symbols, oversampling: int) -> np.ndarray:
    """The bias lag one sample at a time, from a line settled at the first symbol's level.

    Each sample rounds twice, as ``lfilter([1 - a], [1, -a], ...)`` does:
    ``y = z + (1 - a) * target``, then ``z = a * y``.
    """
    a = rc.alpha
    levels = [float(v) for v in levels]
    state = a * levels[symbols[0]]
    samples = []
    for s in symbols:
        charge = (1.0 - a) * levels[s]
        for _ in range(oversampling):
            samples.append(state + charge)
            state = a * samples[-1]
    return np.array(samples)


def reflect_sample(curve: VoltagePhaseCurve, voltages, incident_amplitude: float = 1.0) -> complex:
    """Complex baseband sample reflected under plane-wave feed by cells biased at ``voltages``."""
    gamma = voltage_to_reflection(curve, np.asarray(voltages, dtype=float))
    return complex(incident_amplitude * gamma.mean())


def rc_for(tau_s, symbol_rate_hz=DEFAULT_RATE, oversampling=DEFAULT_OVS):
    return RcDynamics(tau_s=tau_s, sample_period_s=1.0 / (symbol_rate_hz * oversampling))


def random_payload(seed, layout=FrameLayout()):
    rng = np.random.default_rng(seed)
    return rng.integers(0, 2, size=layout.payload_bits)


def frame_wave(
    seed,
    mode=TxMode.CONVENTIONAL,
    tau_s=0.0,
    amplitude=1.0,
    oversampling=DEFAULT_OVS,
    symbol_rate_hz=DEFAULT_RATE,
    layout=FrameLayout(),
):
    """Random payload -> (payload, frame, clean waveform)."""
    payload = random_payload(seed, layout)
    frame = build_frame(payload, layout)
    curve = VoltagePhaseCurve(amplitude=amplitude)
    rc = rc_for(tau_s, symbol_rate_hz, oversampling)
    wave = synthesize(frame, mode, curve, rc, oversampling)
    return payload, frame, wave


def synthetic_point(mode, value, ber, var=None):
    """Hand-built sweep point for exercising the comparison logic."""
    from metapsk.harness import PointResult, SweepVar

    return PointResult(
        mode=mode, sweep_var=SweepVar.SNR if var is None else var, value=value,
        symbol_rate_hz=2.048e6, snr_db=value, tx_power_dbm=None,
        ber=ber, ser=min(1.0, 3 * ber), evm_rms_pct=10.0, est_snr_db=value,
        bits=10**6, bit_errors=int(ber * 10**6), frames=100,
        sync_failures=0, low_confidence=False,
    )


def loglinear_curve(mode, offset_db, values=(0.0, 4.0, 8.0, 12.0, 16.0)):
    """BER falls one decade per 4 dB, shifted right by offset_db, from at most 0.5 (a coin toss)."""
    return [synthetic_point(mode, v, min(0.5, 10.0 ** (-(v - offset_db) / 4.0))) for v in values]
