"""The input boundary as one property: any config and command line either
runs or is refused at the boundary.

Each draw writes a config file holding any subset of the
:class:`~metapsk.config.SimConfig` fields, each set to a value near its
default or to an extreme (NaN, infinities, the float range's ends, zero,
negative or huge integers), and runs one subcommand on it with drawn
arguments.  The run must either exit 0, a sweep leaving a results.csv
that :func:`~metapsk.harness.read_results_csv` reads back, or exit 1 or
2 with exactly one JSON line on stderr and nothing on stdout.  Every
warning is an error here, so a warning fails the draw as a traceback
does.

Sizes stay small so that no draw holds more than a few MB: frame
lengths, oversampling, the panel's rows and columns and the pattern's
angle count are small, refused, or so large that any array they size
exceeds a 47-bit address space and cannot be allocated at all; a point
runs at most 3 trials.
"""

import json
import math
import sys
import tempfile
import warnings
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import fields
from io import StringIO
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import loglinear_curve
from metapsk.baseband import TxMode
from metapsk.cli import main
from metapsk.config import SimConfig, _format_value
from metapsk.harness import SweepVar, read_results_csv, write_results_csv

FLOAT_EXTREMES = st.sampled_from([
    0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, sys.float_info.max,
    -sys.float_info.max, math.inf, -math.inf, math.nan,
])
# too many bytes for a 47-bit address space, even at a byte an item
HUGE_INTS = st.integers(2**50, 2**70) | st.integers(-(2**70), -(2**50))


def near(default):
    """Values around a float field's default, and float extremes."""
    scale = abs(default) or 1.0
    return (st.just(default) | st.floats(-4.0 * scale, 4.0 * scale) | FLOAT_EXTREMES
            | st.floats(allow_nan=True, allow_infinity=True))


def size(largest):
    """A length that sizes arrays: small, not positive, or too large to allocate."""
    return st.integers(1, largest) | st.integers(-3, 0) | HUGE_INTS


def grid(default):
    return st.lists(near(default[0]), max_size=3).map(tuple)


_DEFAULTS = {f.name: f.default for f in fields(SimConfig)}
FIELDS = {name: near(default) for name, default in _DEFAULTS.items() if isinstance(default, float)}
FIELDS.update(
    sync_len=size(70), pilot_len=size(40), data_len=size(12), oversampling=size(4),
    rows=size(8), cols=size(8),
    # a sweep point stops at these or at its trials, which stay few
    min_errors=st.integers(-3, 300) | HUGE_INTS,
    max_bits=st.integers(-3, 10_000) | HUGE_INTS,
    trials=st.integers(-3, 3),
    snr_grid_db=grid(_DEFAULTS["snr_grid_db"]),
    rate_grid_hz=grid(_DEFAULTS["rate_grid_hz"]),
    power_grid_dbm=grid(_DEFAULTS["power_grid_dbm"]),
)


# a few fields at a time, so that most draws pass the config's own checks
configs = st.lists(st.sampled_from(sorted(FIELDS)), max_size=4, unique=True).flatmap(
    lambda names: st.fixed_dictionaries({name: FIELDS[name] for name in names}))
seeds = st.integers(0, 2**64) | st.integers(-3, -1) | HUGE_INTS
numbers = near(10.0)
modes = st.sampled_from([m.value for m in TxMode])


@st.composite
def commands(draw, tmp: Path, config: str):
    """A subcommand and its arguments; ``tmp`` is a directory to write in."""
    command = draw(st.sampled_from(["sweep", "constellation", "pattern", "hw-count", "compare"]))
    if command == "sweep":
        argv = ["sweep", "--var", draw(st.sampled_from([v.value for v in SweepVar])),
                "--modes", *draw(st.lists(modes, min_size=1, max_size=2, unique=True)),
                "--trials", str(draw(st.sampled_from([1, 2, 3, 0]))), "--seed", str(draw(seeds)),
                "--config", config, "--out", str(tmp / "out")]
        values = draw(st.lists(numbers, max_size=3, unique=True).map(sorted) | st.lists(numbers, max_size=3))
        argv += ["--values", *map(repr, values)] if values else []
        return argv + (["--paired"] if draw(st.booleans()) else [])
    if command == "constellation":
        power = draw(st.none() | numbers)
        level = ["--snr", repr(draw(numbers))] if power is None else ["--power", repr(power)]
        return ["constellation", "--mode", draw(modes), *level, "--seed", str(draw(seeds)),
                "--config", config, "--out", str(tmp / "iq.csv")]
    if command == "pattern":
        # a step of 0.5 degrees or more keeps the cut under 200 angles; the
        # steps below it are refused, or too fine for any array
        step = draw(st.floats(0.5, 90.0) | FLOAT_EXTREMES | st.floats(max_value=0.0)
                    | st.floats(min_value=90.0, exclude_min=True))
        return ["pattern", f"--theta-step={step!r}", f"--phi={draw(near(0.0))!r}",
                "--config", config, "--out", str(tmp / "af.csv")]
    if command == "hw-count":
        return ["hw-count", f"--channels={draw(st.integers(-3, 1024) | HUGE_INTS)}"]
    results = tmp / "curves.csv"
    write_results_csv(results, loglinear_curve(TxMode.METASURFACE, 6.0)
                      + loglinear_curve(TxMode.CONVENTIONAL, 0.0))
    targets = draw(st.lists(near(1e-3), max_size=3))
    return ["compare", str(results), *(["--targets", *map(repr, targets)] if targets else [])]


@settings(max_examples=250, deadline=None)
@given(values=configs, data=st.data())
def test_every_draw_runs_or_is_refused_at_the_boundary(values, data):
    with tempfile.TemporaryDirectory() as tmp:
        config = Path(tmp) / "drawn.cfg"
        config.write_text("".join(f"{name} = {_format_value(v)}\n" for name, v in values.items()))
        argv = data.draw(commands(Path(tmp), str(config)), label="argv")
        stdout, stderr = StringIO(), StringIO()
        with warnings.catch_warnings(), redirect_stdout(stdout), redirect_stderr(stderr):
            warnings.simplefilter("error")
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse's refusal
                code = exc.code
        if code == 0:
            assert stderr.getvalue() == ""
            summary = json.loads(stdout.getvalue())
            if argv[0] == "sweep":
                rows = read_results_csv(summary["results"])
                assert len(rows) == summary["rows"]
            return
        assert code in (1, 2)
        assert stdout.getvalue() == ""
        lines = stderr.getvalue().splitlines()
        assert len(lines) == 1, stderr.getvalue()
        assert set(json.loads(lines[0])) == {"error"}


def test_every_config_field_is_drawn():
    assert set(FIELDS) == set(_DEFAULTS)
