"""Baseband simulator for a reflecting-surface 8PSK transmitter.

The package models the two ends of a short radio link: a transmitter
that modulates by re-biasing a reflecting cell grid (plus an ideal
conventional reference), an AWGN channel with explicit link-budget
bookkeeping, and a frame-synchronized measurement receiver.
"""

__version__ = "0.1.0"

import numpy as _np

from .baseband import TxMode
from .config import SimConfig, load_config, save_config
from .harness import SweepSpec, SweepVar, compare_modes, hardware_counts, run_sweep

# glibc's malloc serves each block above a threshold (128 KiB at start)
# from a fresh mmap, and hands the top of its heap back to the system
# once more than twice the threshold lies free there.  A trial's sample
# arrays are 0.15-1.2 MB and all are freed by its end, so at the start-up
# threshold every trial faults its arrays in anew, which costs a sweep at
# oversampling 8 or 32 about a third of its time.  Freeing a mmapped
# block raises the threshold to the block's size, so this 16 MiB block,
# allocated and freed untouched (it never becomes resident), keeps the
# trials' arrays on the heap.  Other allocators just map and unmap it.
_np.empty(16 << 20, dtype=_np.uint8)

__all__ = [
    "SimConfig",
    "SweepSpec",
    "SweepVar",
    "TxMode",
    "compare_modes",
    "hardware_counts",
    "load_config",
    "run_sweep",
    "save_config",
    "__version__",
]
