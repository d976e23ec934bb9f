"""Configuration file round-trips and derived-object glue."""

import math
from dataclasses import replace
from pathlib import Path

import pytest

from metapsk.config import SimConfig, load_config, save_config

REPO_DEFAULT_CFG = Path(__file__).parent.parent / "configs" / "default.cfg"


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
        path.write_text("tau_s 1e-08\n")
        with pytest.raises(ValueError, match="expected"):
            load_config(path)

    def test_partial_file_keeps_other_defaults(self, tmp_path):
        path = tmp_path / "sim.cfg"
        path.write_text("oversampling = 2\nsnr_grid_db = 3\n")
        cfg = load_config(path)
        assert cfg.oversampling == 2
        assert cfg.snr_grid_db == (3.0,) and type(cfg.snr_grid_db[0]) is float
        assert cfg.symbol_rate_hz == SimConfig().symbol_rate_hz


class TestDerivedObjects:
    def test_curve_uses_cell_fields(self):
        curve = SimConfig().curve()
        assert curve.v_max == 20.0
        assert curve.amplitude == pytest.approx(math.sqrt(0.85))

    def test_rc_sample_period_matches_rate(self):
        cfg = SimConfig()
        rc = cfg.rc()
        assert rc.sample_period_s == pytest.approx(1.0 / (2.048e6 * 8))
        assert cfg.rc(1.024e6).sample_period_s == pytest.approx(2 * rc.sample_period_s)

    def test_layout_totals(self):
        layout = SimConfig().layout()
        assert layout.total_symbols == 2400
        assert layout.payload_bits == 6912

    def test_budget_total_is_six_db(self):
        assert SimConfig().budget().total_db == pytest.approx(6.0)
