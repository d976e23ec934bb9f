"""Simulation configuration: one flat dataclass, one key = value file.

Every tunable of the simulator is a field here so a single file can
reproduce a run.  A field's default comes from the class that uses the
value, so each default is written once.  The file format is deliberately
plain: one ``key = value`` pair per line, ``#`` starts a comment, lists
are comma-separated.  A key may appear once, and a list item may not be
empty.
"""

from __future__ import annotations

import io
import math
import sys
from dataclasses import dataclass, fields

from .baseband import FrameLayout
from .cell import RcDynamics, VoltagePhaseCurve
from .channel import ChannelConfig
from .receiver import SYNC_THRESHOLD_DEFAULT
from .surface import SurfaceGeometry


@dataclass
class SimConfig:
    # unit cell: bias range in volts, reflection phase at v_min and its
    # travel across the range in degrees, reflection magnitude
    # (sqrt of the power reflectivity)
    v_min: float = VoltagePhaseCurve.v_min
    v_max: float = VoltagePhaseCurve.v_max
    phase_at_vmin_deg: float = VoltagePhaseCurve.phase_at_vmin_deg
    phase_span_deg: float = VoltagePhaseCurve.phase_span_deg
    cell_amplitude: float = VoltagePhaseCurve.amplitude
    tau_s: float = 40e-9                    # bias-line settling time constant, seconds
    phase_offset_deg: float = 0.0           # transmitter constellation rotation

    # surface
    rows: int = SurfaceGeometry.rows
    cols: int = SurfaceGeometry.cols
    cell_pitch_m: float = SurfaceGeometry.cell_pitch_m
    carrier_freq_hz: float = SurfaceGeometry.carrier_freq_hz
    incident_amplitude: float = 1.0

    # framing and baseband
    sync_len: int = FrameLayout.sync_len
    pilot_len: int = FrameLayout.pilot_len
    data_len: int = FrameLayout.data_len
    oversampling: int = 8
    symbol_rate_hz: float = 2.048e6

    # channel and link budget
    link_loss_db: float = ChannelConfig.link_loss_db        # antenna-to-antenna loss, dB
    noise_floor_dbm: float = ChannelConfig.noise_floor_dbm  # receiver noise power in the sample bandwidth
    # extra loss charged to the surface transmitter: the cells' 85 % power
    # reflectivity, and the carrier power reflection modulation spends,
    # calibrated so the two total 6.0 dB
    reflectivity_loss_db: float = 10.0 * math.log10(1.0 / 0.85)
    modulation_excess_loss_db: float = 6.0 - 10.0 * math.log10(1.0 / 0.85)

    # receiver
    sync_threshold: float = SYNC_THRESHOLD_DEFAULT  # minimum normalized correlation peak
    min_errors: int = 100                   # confidence floor per reported BER point
    max_bits: int = 10_000_000              # bit budget per reported BER point

    # sweep defaults
    trials: int = 1500                      # frame budget per sweep point
    snr_grid_db: tuple = (0.0, 2.0, 4.0, 6.0, 8.0, 10.0, 12.0, 14.0, 16.0, 18.0)
    rate_grid_hz: tuple = (0.256e6, 0.512e6, 1.024e6, 2.048e6, 4.096e6)
    power_grid_dbm: tuple = (-40.0, -38.0, -36.0, -34.0, -32.0, -30.0,
                             -28.0, -26.0, -24.0, -22.0, -20.0, -18.0, -16.0)
    rate_sweep_snr_db: float = 14.0         # fixed channel SNR for symbol-rate sweeps

    def __post_init__(self) -> None:
        # By value, so an int too large for a float is refused without being
        # converted; an int field takes any int.
        for f in fields(self):
            value = getattr(self, f.name)
            entries = value if isinstance(value, tuple) else (value,)
            number = float if f.type == "int" else (int, float)
            if any(isinstance(v, number) and not abs(v) <= sys.float_info.max for v in entries):
                raise ValueError(f"{f.name} must be finite")
        for name in ("oversampling", "min_errors", "max_bits", "trials"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        for name in ("symbol_rate_hz", "incident_amplitude"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if not 0.0 <= self.sync_threshold <= 1.0:
            raise ValueError("sync_threshold must lie in [0, 1]")
        for name in ("reflectivity_loss_db", "modulation_excess_loss_db"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")
        # The per-module objects validate their own fields.
        for build in (self.curve, self.rc, self.geometry, self.layout):
            build()
        # a frame's power sums at most incident_amplitude**2 over its samples
        a, samples = self.incident_amplitude, self.layout().total_symbols * self.oversampling
        if not abs(a * a * samples) <= sys.float_info.max:
            raise ValueError("incident_amplitude is too large: a frame's power is not finite")

    # glue: build the per-module objects this config describes

    def curve(self) -> VoltagePhaseCurve:
        return VoltagePhaseCurve(self.v_min, self.v_max, self.phase_at_vmin_deg,
                                 self.phase_span_deg, self.cell_amplitude)

    def rc(self) -> RcDynamics:
        return RcDynamics(self.tau_s, 1.0 / (self.symbol_rate_hz * self.oversampling))

    def geometry(self) -> SurfaceGeometry:
        return SurfaceGeometry(self.rows, self.cols, self.cell_pitch_m, self.carrier_freq_hz)

    def layout(self) -> FrameLayout:
        return FrameLayout(self.sync_len, self.pilot_len, self.data_len)


def _parse_value(text: str, default):
    """Parse ``text`` as the type of the field's default value."""
    if isinstance(default, tuple):
        items = [item.strip() for item in text.split(",")] if text else []
        if "" in items:
            raise ValueError(f"empty list item in {text!r}")
        return tuple(float(item) for item in items)
    return type(default)(text)


def open_utf8(path, newline=None) -> io.StringIO:
    """The text of ``path`` as a stream that reads like ``open(path,
    newline=newline)``; bytes that are not UTF-8 raise :class:`ValueError`
    naming ``path``."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return io.StringIO(data.decode("utf-8"), newline=newline)
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: byte {exc.start} is not UTF-8 ({exc.reason})") from None


def load_config(path) -> SimConfig:
    """Parse a key = value file into a SimConfig.

    A file that is not UTF-8, an unknown or repeated key, an empty list
    item or a value of the wrong type raises :class:`ValueError` naming
    ``path`` (and the line, where there is one).
    """
    defaults = {f.name: f.default for f in fields(SimConfig)}
    values, first_line = {}, {}
    with open_utf8(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected 'key = value'")
            key, _, text = line.partition("=")
            key = key.strip()
            if key not in defaults:
                raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
            if key in first_line:
                raise ValueError(f"{path}:{lineno}: {key!r} already set on line {first_line[key]}")
            first_line[key] = lineno
            try:
                values[key] = _parse_value(text.strip(), defaults[key])
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {key}: {exc}") from exc
    return SimConfig(**values)


def _format_value(value) -> str:
    if isinstance(value, tuple):
        return ", ".join(_format_value(v) for v in value)
    if isinstance(value, float):
        return repr(value)
    return str(value)


def save_config(cfg: SimConfig, path) -> None:
    """Write the config as a commented key = value file."""
    lines = [
        "# Link simulator configuration.",
        "# One 'key = value' per line; '#' starts a comment; lists are comma-separated.",
        "",
    ]
    for f in fields(cfg):
        lines.append(f"{f.name} = {_format_value(getattr(cfg, f.name))}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
