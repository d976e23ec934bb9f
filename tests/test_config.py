"""Configuration file round-trips and derived-object glue."""

import math
import sys
import tempfile
from dataclasses import fields, replace
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from metapsk.baseband import TxMode
from metapsk.config import SimConfig, load_config, save_config
from metapsk.harness import SweepVar, _channel_for

REPO_DEFAULT_CFG = Path(__file__).parent.parent / "configs" / "default.cfg"

_FINITE = st.floats(allow_nan=False, allow_infinity=False)
_POSITIVE = st.floats(min_value=1e-3, max_value=1e12)
# Fields whose owners accept less than any finite float.
_CONSTRAINED = {
    "v_min": st.floats(-1e3, 0.0),
    "v_max": st.floats(1e-3, 1e3),
    "phase_span_deg": st.floats(360.0, 1e4),
    "cell_amplitude": st.floats(0.0, 1.0, exclude_min=True),
    "tau_s": st.floats(0.0, 1.0),
    "cell_pitch_m": _POSITIVE,
    "carrier_freq_hz": _POSITIVE,
    "incident_amplitude": _POSITIVE,
    "symbol_rate_hz": _POSITIVE,
    "reflectivity_loss_db": st.floats(0.0, 100.0),
    "modulation_excess_loss_db": st.floats(0.0, 100.0),
    "sync_threshold": st.floats(0.0, 1.0),
}


def _field_values(f):
    if f.name in _CONSTRAINED:
        return _CONSTRAINED[f.name]
    if isinstance(f.default, int):
        return st.integers(1, 10**9)
    if isinstance(f.default, tuple):
        return st.lists(_FINITE, max_size=5).map(tuple)
    return _FINITE


sim_configs = st.fixed_dictionaries({f.name: _field_values(f) for f in fields(SimConfig)}).map(
    lambda values: SimConfig(**values))


class TestRoundTrip:
    def test_defaults_survive_save_and_load(self, tmp_path):
        path = tmp_path / "sim.cfg"
        save_config(SimConfig(), path)
        assert load_config(path) == SimConfig()

    def test_modified_fields_survive(self, tmp_path):
        cfg = replace(SimConfig(), tau_s=15e-9, oversampling=4,
                      snr_grid_db=(1.0, 2.5, 7.0), min_errors=250)
        path = tmp_path / "sim.cfg"
        save_config(cfg, path)
        back = load_config(path)
        assert back == cfg
        assert back.tau_s == 15e-9
        assert back.snr_grid_db == (1.0, 2.5, 7.0)

    def test_save_is_deterministic(self, tmp_path):
        p1, p2 = tmp_path / "a.cfg", tmp_path / "b.cfg"
        save_config(SimConfig(), p1)
        save_config(SimConfig(), p2)
        assert p1.read_bytes() == p2.read_bytes()

    @given(cfg=sim_configs)
    def test_any_valid_config_survives_save_and_load(self, cfg):
        with tempfile.TemporaryDirectory() as tmp:
            first, second = Path(tmp) / "a.cfg", Path(tmp) / "b.cfg"
            save_config(cfg, first)
            back = load_config(first)
            assert back == cfg
            save_config(back, second)
            assert second.read_bytes() == first.read_bytes()

    def test_shipped_default_file_matches_code_defaults(self, tmp_path):
        assert load_config(REPO_DEFAULT_CFG) == SimConfig()
        regenerated = tmp_path / "default.cfg"
        save_config(SimConfig(), regenerated)
        assert regenerated.read_text() == REPO_DEFAULT_CFG.read_text()


class TestParsing:
    def test_comments_and_blank_lines_ignored(self, tmp_path):
        path = tmp_path / "sim.cfg"
        path.write_text("# heading\n\ntau_s = 1e-08  # inline note\n")
        assert load_config(path).tau_s == 1e-8

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "sim.cfg"
        path.write_text("not_a_field = 3\n")
        with pytest.raises(ValueError, match="unknown key"):
            load_config(path)

    def test_malformed_line_rejected(self, tmp_path):
        path = tmp_path / "sim.cfg"
        for text, message in (
            ("tau_s 1e-08\n", "sim.cfg:1: expected"),
            ("# int field\noversampling = 8.5\n", "sim.cfg:2: oversampling: invalid literal"),
            ("snr_grid_db = 1, two\n", "sim.cfg:1: snr_grid_db: could not convert"),
        ):
            path.write_text(text)
            with pytest.raises(ValueError, match=message):
                load_config(path)

    def test_repeated_key_rejected(self, tmp_path):
        path = tmp_path / "sim.cfg"
        path.write_text("oversampling = 1\n# later\noversampling = 8\n")
        with pytest.raises(ValueError, match="sim.cfg:3: 'oversampling' already set on line 1"):
            load_config(path)

    @pytest.mark.parametrize("text", ["1, ,2", "1,,2", ", 1", "1, 2,", ","])
    def test_empty_list_item_rejected(self, tmp_path, text):
        path = tmp_path / "sim.cfg"
        path.write_text(f"snr_grid_db = {text}\n")
        with pytest.raises(ValueError, match="sim.cfg:1: snr_grid_db: empty list item"):
            load_config(path)

    def test_file_that_is_not_utf8_rejected(self, tmp_path):
        path = tmp_path / "sim.cfg"
        path.write_bytes("tau_s = 1e-08  # café\n".encode("latin-1"))
        with pytest.raises(ValueError, match=f"^{path}: byte 20 is not UTF-8"):
            load_config(path)

    def test_empty_list_is_an_empty_tuple(self, tmp_path):
        """What save_config writes for an empty grid."""
        path = tmp_path / "sim.cfg"
        path.write_text("snr_grid_db =\n")
        assert load_config(path).snr_grid_db == ()

    def test_partial_file_keeps_other_defaults(self, tmp_path):
        path = tmp_path / "sim.cfg"
        path.write_text("oversampling = 2\nsnr_grid_db = 3\n")
        cfg = load_config(path)
        assert cfg.oversampling == 2
        assert cfg.snr_grid_db == (3.0,) and type(cfg.snr_grid_db[0]) is float
        assert cfg.symbol_rate_hz == SimConfig().symbol_rate_hz


class TestValidation:
    def test_every_float_field_must_be_finite(self):
        for f in fields(SimConfig):
            if isinstance(f.default, tuple):
                bad = (1.0, math.nan)
            elif isinstance(f.default, float):
                bad = math.inf
            else:
                continue
            with pytest.raises(ValueError, match=f"^{f.name} must be finite$"):
                SimConfig(**{f.name: bad})

    def test_amplitude_whose_frame_power_overflows_rejected(self):
        for amplitude in (1e160, 10**200):  # an int's power is not converted to a float
            with pytest.raises(ValueError, match="^incident_amplitude is too large"):
                SimConfig(incident_amplitude=amplitude)

    @pytest.mark.parametrize("name", ["oversampling", "sync_len", "data_len"])
    def test_frame_too_long_for_an_array_rejected(self, name):
        with pytest.raises(ValueError, match="samples is more than an array can hold$"):
            SimConfig(**{name: 2**63})

    @pytest.mark.parametrize("name,bad", [
        ("symbol_rate_hz", 10**400),
        ("tau_s", 10**400),
        ("link_loss_db", 10**400),
        ("snr_grid_db", (0.0, 10**400)),
    ])
    def test_int_too_large_for_a_float_rejected(self, name, bad):
        with pytest.raises(ValueError, match=f"^{name} must be finite$"):
            SimConfig(**{name: bad})

    def test_sync_threshold_of_one_accepted(self):
        assert SimConfig(sync_threshold=1.0).sync_threshold == 1.0

    @pytest.mark.skipif(sys.maxsize % 49, reason="needs a 64-bit index")
    def test_frame_of_exactly_maxsize_samples_accepted(self):
        """2**63 - 1 is 49 times an int: a 49-symbol frame fills the index to the last sample."""
        cfg = SimConfig(sync_len=20, pilot_len=20, data_len=1, oversampling=sys.maxsize // 49)
        assert cfg.layout().total_symbols * cfg.oversampling == sys.maxsize

    def test_int_values_kept_as_given(self):
        cfg = SimConfig(tau_s=0, snr_grid_db=(0, 10**300), max_bits=10**400)
        assert (cfg.tau_s, cfg.snr_grid_db, cfg.max_bits) == (0, (0, 10**300), 10**400)
        assert type(cfg.tau_s) is int


class TestDerivedObjects:
    def test_curve_uses_cell_fields(self):
        curve = SimConfig().curve()
        assert curve.v_max == 20.0
        assert curve.amplitude == pytest.approx(math.sqrt(0.85))

    def test_rc_sample_period_matches_rate(self):
        cfg = SimConfig()
        rc = cfg.rc()
        assert rc.sample_period_s == pytest.approx(1.0 / (2.048e6 * 8))
        half_rate = replace(cfg, symbol_rate_hz=1.024e6)
        assert half_rate.rc().sample_period_s == pytest.approx(2 * rc.sample_period_s)

    def test_layout_totals(self):
        layout = SimConfig().layout()
        assert layout.total_symbols == 2400
        assert layout.payload_bits == 6912

    def test_budget_total_is_six_db(self):
        cfg = SimConfig()
        assert cfg.reflectivity_loss_db + cfg.modulation_excess_loss_db == pytest.approx(6.0)
        surf, conv = (_channel_for(SweepVar.TX_POWER, -30.0, cfg, mode)
                      for mode in (TxMode.METASURFACE, TxMode.CONVENTIONAL))
        assert conv.link_loss_db == cfg.link_loss_db
        assert surf.link_loss_db - conv.link_loss_db == pytest.approx(6.0)
