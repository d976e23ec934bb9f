"""The benchmark's workloads: which `metapsk sweep` each one runs.

Every workload is one `metapsk sweep` command line plus a config file
from `perfbench/configs/`.  `--seed` picks one of `INPUT_SETS` recorded
input sets (seed mod `INPUT_SETS`); the sweep's master seed is that
index, so every seed the benchmark is given has reference counts in
`reference.json`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
REFERENCE_PATH = BENCH_DIR / "reference.json"
INPUT_SETS = 32

# Sweep sizes.  "full" is what the benchmark measures; "tiny" is for the
# benchmark's own test and has its own reference counts.
SIZES = ("full", "tiny")


@dataclass(frozen=True)
class Workload:
    name: str
    var: str
    modes: tuple[str, ...]
    values: tuple[float, ...] | None  # None: the config's default grid for `var`
    trials: dict[str, int]  # frame budget per point, by size

    @property
    def config_path(self) -> Path:
        return BENCH_DIR / "configs" / f"{self.name}.cfg"

    def sweep_argv(self, size: str, input_set: int, out_dir: Path) -> list[str]:
        argv = ["sweep", "--var", self.var]
        if self.values is not None:
            argv += ["--values", *(repr(v) for v in self.values)]
        argv += ["--modes", *self.modes, "--trials", str(self.trials[size]),
                 "--seed", str(input_set), "--config", str(self.config_path),
                 "--out", str(out_dir)]
        return argv


BOTH_MODES = ("metasurface", "conventional")

# Criterion-1 Eb/N0 grid (6, 8, 10, 12 dB) as per-sample SNR at
# oversampling 1: SNR = Eb/N0 + 10 log10(3 bits per symbol).
_ANCHOR_SNR_DB = tuple(eb + 10.0 * math.log10(3) for eb in (6.0, 8.0, 10.0, 12.0))

WORKLOADS = {
    w.name: w for w in (
        # The headline power sweep: default 13-point grid, both modes.
        # About half the points stop early after 1-3 frames, the rest
        # run to the cap.
        Workload("power_gap", "power", BOTH_MODES, None, {"full": 40, "tiny": 2}),
        # SNRs high enough that no point reaches min_errors, so every
        # point runs to the cap and per-sample work dominates.
        Workload("tail_os32", "snr", BOTH_MODES, (16.0, 18.0, 20.0), {"full": 25, "tiny": 2}),
        # Conventional only at oversampling 1.  The 12 dB point needs
        # ~4,300 frames for 2,000 errors, so the cap bounds it and the
        # trial count barely moves between input sets.
        Workload("anchor_os1", "snr", ("conventional",), _ANCHOR_SNR_DB,
                 {"full": 2000, "tiny": 20}),
    )
}
