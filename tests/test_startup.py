"""Start-up cost: importing metapsk and running numpy-only paths loads no scipy.

Importing ``scipy.signal`` takes over a second, most of a short run's
start-up.  Only a lagging metasurface cell (``lfilter``) and a multi-lag
sync window (``fftconvolve``) need it, and they import it on first use.
Each check runs in a fresh interpreter, since the test process itself
has scipy loaded.
"""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import scipy.constants

from metapsk.surface import SurfaceGeometry, speed_of_light

SRC_DIR = Path(__file__).resolve().parent.parent / "src"

PROBE = textwrap.dedent("""
    import json
    import sys

    import metapsk.cli
    from metapsk import harness, surface
    from metapsk.baseband import TxMode
    from metapsk.channel import ChannelConfig
    from metapsk.config import SimConfig

    def scipy_modules():
        return sorted(m for m in sys.modules if m.partition(".")[0] == "scipy")

    cfg = SimConfig()
    channel = ChannelConfig(snr_db=20.0)
    harness.run_trial(TxMode.CONVENTIONAL, cfg, channel, 1)
    harness.hardware_counts(256, TxMode.CONVENTIONAL)
    surface.array_factor(cfg.geometry(), cfg.cell_amplitude, [0.0, 10.0, 20.0], 0.0)
    numpy_only = scipy_modules()
    harness.run_trial(TxMode.METASURFACE, cfg, channel, 1)
    print(json.dumps({"numpy_only": numpy_only, "after_metasurface": scipy_modules()}))
""")


def test_numpy_only_paths_load_no_scipy():
    env = {**os.environ, "PYTHONPATH": str(SRC_DIR)}
    proc = subprocess.run([sys.executable, "-c", PROBE], env=env, capture_output=True,
                          text=True, timeout=300, check=True)
    loaded = json.loads(proc.stdout.splitlines()[-1])
    assert loaded["numpy_only"] == []
    # A lagging cell is the one remaining user on the sweep path.
    assert "scipy.signal" in loaded["after_metasurface"]


def test_speed_of_light_is_the_si_value():
    assert speed_of_light == scipy.constants.speed_of_light
    assert SurfaceGeometry().wavelength_m == scipy.constants.speed_of_light / 4.25e9
