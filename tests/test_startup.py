"""Process-level costs: every path runs with scipy unimportable, and
trials do not fault their arrays in anew.

numpy is the only runtime dependency; scipy is a test oracle alone.  The
probes run in fresh interpreters, since the test process itself has
scipy loaded; the first blocks scipy outright:
``sys.modules["scipy"] = None`` makes every scipy import raise.
"""

import json
import os
import platform
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest
import scipy.constants

from metapsk.surface import SurfaceGeometry, speed_of_light

SRC_DIR = Path(__file__).resolve().parent.parent / "src"

PROBE = textwrap.dedent("""
    import contextlib
    import io
    import json
    import sys
    import tempfile

    sys.modules["scipy"] = None  # every scipy import now raises ImportError

    import numpy as np

    import metapsk.cli
    from metapsk import harness, receiver, surface
    from metapsk.baseband import TxMode, Waveform, constellation, sync_symbols
    from metapsk.channel import ChannelConfig
    from metapsk.config import SimConfig
    from metapsk.harness import SweepSpec, SweepVar

    cfg = SimConfig()
    channel = ChannelConfig(snr_db=20.0)
    harness.run_trial(TxMode.CONVENTIONAL, cfg, channel, 1)
    harness.run_trial(TxMode.METASURFACE, cfg, channel, 1)
    harness.run_sweep(SweepSpec(SweepVar.SYMBOL_RATE, (4.096e6,), trials=1, paired=True), cfg)
    # a slow line; a frame that fails sync is counted, not raised
    harness.run_sweep(SweepSpec(SweepVar.SNR, (20.0,), trials=1, modes=(TxMode.METASURFACE,)),
                      SimConfig(tau_s=1e-6))
    harness.hardware_counts(256, TxMode.CONVENTIONAL)
    surface.array_factor(cfg.geometry(), cfg.cell_amplitude, [0.0, 10.0, 20.0], 0.0)
    with tempfile.TemporaryDirectory() as out, contextlib.redirect_stdout(io.StringIO()):
        for argv in (["sweep", "--var", "power", "--values", "-30", "-20", "--trials", "2",
                      "--out", out],
                     ["compare", f"{out}/results.csv"],
                     ["constellation", "--out", f"{out}/iq.csv"],
                     ["pattern", "--theta-step", "10", "--out", f"{out}/af.csv"],
                     ["hw-count"]):
            assert metapsk.cli.main(argv) == 0, argv

    sync = sync_symbols(cfg.sync_len)
    padded = Waveform(np.concatenate([np.zeros(5), constellation()[sync]]), 1)
    start = receiver.synchronize(padded, sync).frame_start
    scipy_modules = sorted(m for m, module in sys.modules.items()
                           if module is not None and m.partition(".")[0] == "scipy")
    print(json.dumps({"start": start, "scipy_modules": scipy_modules}))
""")


def test_numpy_only_paths_load_no_scipy():
    env = {**os.environ, "PYTHONPATH": str(SRC_DIR)}
    proc = subprocess.run([sys.executable, "-c", PROBE], env=env, capture_output=True,
                          text=True, timeout=300, check=True)
    loaded = json.loads(proc.stdout.splitlines()[-1])
    assert loaded["start"] == 5  # a multi-lag sync window
    assert loaded["scipy_modules"] == []


HEAP_PROBE = textwrap.dedent("""
    import resource

    from metapsk import harness
    from metapsk.baseband import TxMode
    from metapsk.channel import ChannelConfig
    from metapsk.config import SimConfig

    def faults():
        return resource.getrusage(resource.RUSAGE_SELF).ru_minflt

    cfg = SimConfig(oversampling=32)
    channel = ChannelConfig(snr_db=20.0)
    harness.run_trial(TxMode.METASURFACE, cfg, channel, 1)
    before = faults()
    for seed in range(2, 12):
        harness.run_trial(TxMode.METASURFACE, cfg, channel, seed)
    print((faults() - before) / 10)
""")


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="tunes glibc's malloc")
def test_trial_arrays_stay_on_the_heap():
    """An oversampling-32 trial's ~1.2 MB arrays are reused from the heap,
    not mapped and faulted in afresh (~1,000 page faults per trial)."""
    env = {**os.environ, "PYTHONPATH": str(SRC_DIR)}
    proc = subprocess.run([sys.executable, "-c", HEAP_PROBE], env=env, capture_output=True,
                          text=True, timeout=300, check=True)
    assert float(proc.stdout.splitlines()[-1]) < 100


def test_speed_of_light_is_the_si_value():
    assert speed_of_light == scipy.constants.speed_of_light
    assert SurfaceGeometry().wavelength_m == scipy.constants.speed_of_light / 4.25e9
