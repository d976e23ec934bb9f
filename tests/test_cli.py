"""End-to-end checks of the command line front end."""

import csv
import hashlib
import json
import math
from dataclasses import replace

import pytest

from metapsk.baseband import TxMode
from metapsk.cli import main
from metapsk.config import SimConfig
from metapsk.harness import (
    SweepSpec,
    SweepVar,
    read_results_csv,
    run_point,
    run_sweep,
    write_results_csv,
)

from helpers import loglinear_curve


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _reject_constant(name):
    raise ValueError(f"{name} is not standard JSON")


def stdout_json(capsys, *argv):
    """The command's stdout, parsed as standard JSON (no NaN or Infinity)."""
    code, out, err = run_cli(capsys, *argv)
    assert code == 0, err
    return json.loads(out, parse_constant=_reject_constant)


class TestHwCount:
    def test_reference_aperture(self, capsys):
        report = stdout_json(capsys, "hw-count", "--channels", "256")
        assert report["metasurface"] == {"power_amplifiers": 1, "mixers": 0, "filters": 0}
        assert report["conventional"] == {"power_amplifiers": 256, "mixers": 512, "filters": 512}

    def test_invalid_channels_fail_with_json_error(self, capsys):
        code, _, err = run_cli(capsys, "hw-count", "--channels", "0")
        assert code == 1
        assert "error" in json.loads(err)


class TestSweep:
    def test_writes_results_and_manifest(self, capsys, tmp_path):
        report = stdout_json(
            capsys, "sweep", "--var", "snr", "--values", "4", "8",
            "--trials", "2", "--seed", "5", "--out", str(tmp_path),
        )
        assert report["rows"] == 4  # 2 values x 2 modes
        results = tmp_path / "results.csv"
        manifest = tmp_path / "manifest.json"
        assert results.exists() and manifest.exists()
        with open(results, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 4
        assert {r["mode"] for r in rows} == {"metasurface", "conventional"}
        assert json.loads(manifest.read_text())["sweep"]["master_seed"] == 5

    def test_rerun_reproduces_bytes(self, capsys, tmp_path):
        argv = ("sweep", "--var", "snr", "--values", "6", "--modes", "conventional",
                "--trials", "2", "--seed", "9")
        a, b = tmp_path / "a", tmp_path / "b"
        assert main([*argv, "--out", str(a)]) == 0
        assert main([*argv, "--out", str(b)]) == 0
        capsys.readouterr()
        assert (a / "results.csv").read_bytes() == (b / "results.csv").read_bytes()

    def test_paired_rows_share_seeds_and_run_every_trial(self, capsys, tmp_path):
        values, trials, seed = (0.0, 9.0), 3, 4
        stdout_json(capsys, "sweep", "--var", "snr", "--values", *map(str, values), "--paired",
                    "--trials", str(trials), "--seed", str(seed), "--out", str(tmp_path))
        rows = read_results_csv(tmp_path / "results.csv")
        cfg = SimConfig()
        spec = SweepSpec(SweepVar.SNR, values, trials=trials, master_seed=seed, paired=True)
        assert rows == run_sweep(spec, cfg)
        ms, conv = rows[:len(values)], rows[len(values):]
        assert [p.bits for p in ms] == [p.bits for p in conv]
        assert all(r.frames == trials for r in rows)
        # at 0 dB the error floor would have stopped an unpaired point early
        early = run_point(TxMode.CONVENTIONAL, SweepVar.SNR, 0.0, cfg, seed, trials)
        assert early.frames < trials
        assert json.loads((tmp_path / "manifest.json").read_text())["sweep"]["paired"] is True

    def test_config_trials_is_the_default_budget(self, capsys, tmp_path):
        cfg = tmp_path / "sim.cfg"
        cfg.write_text("trials = 2\noversampling = 1\n")
        stdout_json(capsys, "sweep", "--var", "snr", "--values", "30", "--modes", "conventional",
                    "--config", str(cfg), "--out", str(tmp_path))
        assert [r.frames for r in read_results_csv(tmp_path / "results.csv")] == [2]
        assert json.loads((tmp_path / "manifest.json").read_text())["sweep"]["trials"] == 2

    def test_decreasing_values_rejected(self, capsys, tmp_path):
        for var, values, message in (
            ("snr", ["8", "4"], "increasing"),
            ("snr", ["nan"], "finite"),
            ("power", ["-30", "inf"], "finite"),
            ("rate", ["0", "1e6"], "positive"),
            ("snr", ["6", "--modes", "conventional", "conventional"], "distinct"),
        ):
            code, _, err = run_cli(capsys, "sweep", "--var", var, "--values", *values,
                                   "--trials", "1", "--out", str(tmp_path))
            assert code == 1
            assert message in json.loads(err)["error"]
        assert not (tmp_path / "results.csv").exists()

    def test_extreme_channel_values_reported(self, capsys, tmp_path):
        """Values the channel cannot turn into a float power fail with one JSON line."""
        for var, value in (("snr", "1e300"), ("power", "4000"), ("snr", "-1e300")):
            code, out, err = run_cli(capsys, "sweep", "--var", var, f"--values={value}",
                                     "--trials", "1", "--out", str(tmp_path))
            assert code == 1, value
            assert out == ""
            assert len(err.splitlines()) == 1
            assert "dB" in json.loads(err)["error"]
        assert not (tmp_path / "results.csv").exists()

    def test_missing_var_is_a_usage_error(self, capsys, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--out", str(tmp_path)])
        assert exc.value.code == 2
        assert "error" in json.loads(capsys.readouterr().err)

    def test_unknown_config_key_reported(self, capsys, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text("bogus = 1\n")
        code, _, err = run_cli(capsys, "sweep", "--var", "snr", "--values", "6",
                               "--trials", "1", "--config", str(bad), "--out", str(tmp_path))
        assert code == 1
        assert "unknown key" in json.loads(err)["error"]

    def test_bad_config_value_reported(self, capsys, tmp_path):
        bad = tmp_path / "bad.cfg"
        for line, message in (
            ("oversampling = 0", "oversampling"),
            ("symbol_rate_hz = 0", "symbol_rate_hz"),
            ("symbol_rate_hz = nan", "symbol_rate_hz"),
            ("tau_s = -1e-9", "tau_s"),
            ("rows = 0", "grid"),
            ("sync_threshold = 1.5", "sync_threshold"),
            ("sync_threshold = nan", "sync_threshold"),
            ("min_errors = 0", "min_errors"),
            ("max_bits = -5", "max_bits"),
            ("trials = 0", "trials"),
            ("cell_pitch_m = nan", "cell_pitch_m"),
            ("tau_s = nan", "tau_s"),
            ("phase_span_deg = nan", "phase_span_deg"),
            ("phase_offset_deg = nan", "phase_offset_deg"),
            ("incident_amplitude = nan", "incident_amplitude"),
            ("incident_amplitude = 0", "incident_amplitude must be positive"),
            ("incident_amplitude = -1", "incident_amplitude must be positive"),
            ("power_grid_dbm = -30, inf", "power_grid_dbm"),
            ("reflectivity_loss_db = -0.1", "reflectivity_loss_db must be non-negative"),
            ("modulation_excess_loss_db = -1", "modulation_excess_loss_db must be non-negative"),
            ("oversampling = 8.5", "bad.cfg:1: oversampling"),
        ):
            bad.write_text(line + "\n")
            code, out, err = run_cli(capsys, "sweep", "--var", "snr", "--values", "6",
                                     "--trials", "1", "--config", str(bad), "--out", str(tmp_path))
            assert code == 1, line
            assert out == "", line
            assert len(err.splitlines()) == 1, line
            assert message in json.loads(err)["error"], line


class TestCompare:
    def test_recovers_synthetic_shift(self, capsys, tmp_path):
        grid = (0.0, 4.0, 8.0, 12.0, 16.0, 20.0)
        ms = tmp_path / "ms.csv"
        conv = tmp_path / "conv.csv"
        write_results_csv(ms, loglinear_curve(TxMode.METASURFACE, 6.0, values=grid))
        write_results_csv(conv, loglinear_curve(TxMode.CONVENTIONAL, 0.0, values=grid))
        report = stdout_json(capsys, "compare", str(ms), str(conv), "--targets", "1e-2", "1e-3")
        assert [g["target_ber"] for g in report["gaps"]] == [1e-2, 1e-3]
        for gap in report["gaps"]:
            assert gap["gap_db"] == pytest.approx(6.0, abs=1e-9)

    def test_single_mode_input_fails(self, capsys, tmp_path):
        ms = tmp_path / "ms.csv"
        write_results_csv(ms, loglinear_curve(TxMode.METASURFACE, 0.0))
        code, _, err = run_cli(capsys, "compare", str(ms))
        assert code == 1
        assert "both modes" in json.loads(err)["error"]

    def test_gap_needs_one_snr_or_power_sweep(self, capsys, tmp_path):
        """A rate sweep, or SNR rows against power rows, has no gap in dB."""
        def write(var, mode):
            path = tmp_path / f"{var.value}_{mode.value}.csv"
            write_results_csv(path, [replace(p, sweep_var=var) for p in loglinear_curve(mode, 0.0)])
            return str(path)

        ms, conv = TxMode.METASURFACE, TxMode.CONVENTIONAL
        rate = (write(SweepVar.SYMBOL_RATE, ms), write(SweepVar.SYMBOL_RATE, conv))
        mixed = (write(SweepVar.SNR, ms), write(SweepVar.TX_POWER, conv))
        for paths in (rate, mixed):
            code, out, err = run_cli(capsys, "compare", *paths)
            assert code == 1
            assert out == ""
            assert len(err.splitlines()) == 1
            assert "one snr or power sweep" in json.loads(err)["error"]
        report = stdout_json(capsys, "compare", write(SweepVar.TX_POWER, ms), mixed[1])
        assert report["gaps"][0]["gap_db"] == pytest.approx(0.0, abs=1e-9)

    @pytest.mark.parametrize("target", ["nan", "0", "-1", "1"])
    def test_target_outside_unit_interval_rejected(self, capsys, tmp_path, target):
        ms, conv = tmp_path / "ms.csv", tmp_path / "conv.csv"
        write_results_csv(ms, loglinear_curve(TxMode.METASURFACE, 0.0))
        write_results_csv(conv, loglinear_curve(TxMode.CONVENTIONAL, 0.0))
        code, out, err = run_cli(capsys, "compare", str(ms), str(conv),
                                 "--targets", "1e-3", target)
        assert code == 1
        assert out == ""
        assert len(err.splitlines()) == 1
        assert "(0, 1)" in json.loads(err)["error"]


    def test_malformed_results_csv_is_a_json_error(self, capsys, tmp_path):
        """A missing column, a short row or a flag other than 0/1 names the file, line and column."""
        good = tmp_path / "good.csv"
        write_results_csv(good, loglinear_curve(TxMode.METASURFACE, 0.0))
        lines = good.read_text().splitlines()
        no_mode = tmp_path / "no_mode.csv"
        no_mode.write_text("\n".join(line.split(",", 1)[1] for line in lines) + "\n")
        short = tmp_path / "short.csv"
        short.write_text("\n".join([*lines[:2], ",".join(lines[2].split(",")[:6])]) + "\n")
        cases = [(no_mode, ":1: no column 'mode'"), (short, ":3: column 'ber'")]
        for flag in ("true", ""):  # low_confidence is the last column
            bad_flag = tmp_path / f"flag_{flag}.csv"
            bad_flag.write_text("\n".join([*lines[:2], lines[2].rsplit(",", 1)[0] + "," + flag]) + "\n")
            cases.append((bad_flag, ":3: column 'low_confidence'"))
        for path, where in cases:
            code, out, err = run_cli(capsys, "compare", str(path))
            assert code == 1
            assert out == ""
            assert len(err.splitlines()) == 1
            assert f"{path}{where}" in json.loads(err)["error"]


class TestConstellation:
    def test_emits_iq_table_and_metrics(self, capsys, tmp_path):
        out = tmp_path / "iq.csv"
        report = stdout_json(capsys, "constellation", "--mode", "conventional",
                             "--snr", "20", "--seed", "3", "--out", str(out))
        assert report["points"] == 2304
        assert report["ber"] == 0.0
        assert report["snr_db"] == 20.0
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 2304
        radii = [abs(complex(float(r["i"]), float(r["q"]))) for r in rows[:50]]
        assert all(0.5 < radius < 1.5 for radius in radii)

    def test_power_mode_uses_link_budget(self, capsys, tmp_path):
        out = tmp_path / "iq.csv"
        report = stdout_json(capsys, "constellation", "--mode", "metasurface",
                             "--power", "-30", "--seed", "3", "--out", str(out))
        assert report["snr_db"] == pytest.approx(9.0)  # -30 - 50 - 6 + 95
        assert report["tx_power_dbm"] == -30.0

    def test_same_seed_same_bytes(self, capsys, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        argv = ("constellation", "--mode", "metasurface", "--snr", "12", "--seed", "7")
        assert main([*argv, "--out", str(a)]) == 0
        assert main([*argv, "--out", str(b)]) == 0
        capsys.readouterr()
        assert a.read_bytes() == b.read_bytes()

    def test_sync_failure_reported(self, capsys, tmp_path):
        code, out, err = run_cli(capsys, "constellation", "--power", "-75",
                                 "--out", str(tmp_path / "iq.csv"))
        assert code == 1
        assert out == ""
        assert len(err.splitlines()) == 1
        assert "below threshold" in json.loads(err)["error"]

    @pytest.mark.parametrize("flag", ["--snr=inf", "--snr=-inf", "--snr=nan",
                                      "--power=inf", "--power=nan"])
    def test_non_finite_channel_reported(self, capsys, tmp_path, flag):
        code, out, err = run_cli(capsys, "constellation", flag, "--out", str(tmp_path / "iq.csv"))
        assert code == 1
        assert out == ""
        assert len(err.splitlines()) == 1
        assert "must be finite" in json.loads(err)["error"]
        assert not (tmp_path / "iq.csv").exists()

    def test_snr_and_power_are_exclusive(self, capsys, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["constellation", "--snr", "10", "--power", "-30",
                  "--out", str(tmp_path / "iq.csv")])
        assert exc.value.code == 2
        assert "error" in json.loads(capsys.readouterr().err)


class TestPattern:
    @pytest.mark.parametrize("phi, length_m", [(0.0, 32 * 0.012), (90.0, 8 * 0.012)])
    def test_half_power_beamwidth(self, capsys, tmp_path, phi, length_m):
        """Full -3 dB width of a uniform aperture of length L: 2 asin(0.443 wavelength / L)."""
        step = 0.25
        report = stdout_json(capsys, "pattern", f"--phi={phi}", f"--theta-step={step}",
                             "--out", str(tmp_path / "af.csv"))
        wavelength = 299_792_458.0 / SimConfig.carrier_freq_hz
        expect = 2.0 * math.degrees(math.asin(0.443 * wavelength / length_m))
        assert report["half_power_beamwidth_deg"] == pytest.approx(expect, abs=2 * step)
        assert report["aperture"] == [8, 32]
        assert report["broadside_af"] == pytest.approx(256 * math.sqrt(0.85), rel=1e-12)

    def test_csv_has_one_row_per_theta(self, capsys, tmp_path):
        out = tmp_path / "af.csv"
        stdout_json(capsys, "pattern", "--phi=90", "--theta-step=15", "--out", str(out))
        with open(out, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["theta_deg", "phi_deg", "magnitude_db"]
        assert [r[0] for r in rows[1:]] == ["0", "15", "30", "45", "60", "75", "90"]
        assert {r[1] for r in rows[1:]} == {"90"}
        assert float(rows[1][2]) == pytest.approx(20 * math.log10(math.sqrt(0.85)), abs=1e-6)

    def test_step_that_overshoots_90_in_floating_point(self, capsys, tmp_path):
        """arange(0, 90 + step / 2, step) ends at 90.00000000000001 for step 90 / 169."""
        out = tmp_path / "af.csv"
        stdout_json(capsys, "pattern", "--theta-step=0.5325443786982249", "--out", str(out))
        with open(out, newline="") as fh:
            rows = list(csv.reader(fh))
        assert len(rows) == 1 + 170
        assert rows[-1][:2] == ["90", "0"]

    @pytest.mark.parametrize("flag", ["--theta-step=0", "--theta-step=-1", "--theta-step=nan",
                                      "--theta-step=inf", "--theta-step=91", "--phi=360",
                                      "--phi=-1", "--phi=nan"])
    def test_bad_grid_rejected_before_writing(self, capsys, tmp_path, flag):
        out = tmp_path / "af" / "pattern.csv"
        code, stdout, err = run_cli(capsys, "pattern", flag, "--out", str(out))
        assert code == 1
        assert stdout == ""
        assert len(err.splitlines()) == 1
        assert "must lie in" in json.loads(err)["error"]
        assert not out.parent.exists()


# sha256 of the artifacts at --seed 11 (the pattern cuts take no seed).
# Any change to the numbers, the CSV/JSON formatting or the config
# defaults shows up here; update the digests only for a change that is
# meant to alter the artifacts.
ARTIFACT_SHA256 = {
    "snr/results.csv": "61e57e6cf7b97e3ff9ba5ac059449a18675f609ac484a198a244721af4efdab3",
    "snr/manifest.json": "702fc211449cbc99a0c691494f0d71e0a92d09c60690be3ec97a77d9091e9bcb",
    "rate/results.csv": "07e64ad42e34963a30bf1b3b4623212d94bc066f7192d603801c0d56e84f6866",
    "rate/manifest.json": "4551d49710ef53de29ae23f10af3103f41c099313f393b1cdb16eebc005851d2",
    "power/results.csv": "6d1826eed95e79f392d7e63a53df83db8bf0d56289642adf22fb81276d97288d",
    "power/manifest.json": "b994f1c2dd128a64d44ce8a4422256789ab260893e6b559287719ad6f10d06d5",
    "constellation_power.csv": "c5ec01a0d30a6813a58368ac67a0fd9077e100c35720f1860e53462f65bafd72",
    "constellation_snr.csv": "61f65bfa1f24e4f858c3b79dbfd1fa35c8327adfeb805d3abd7e5f465ecf4915",
    "pattern.csv": "1f4f66a26fbf50b738c90987d8dac435b07e65baa2cb8018ca6c929c4be47ad9",
    "pattern_phi90.csv": "97fd40a42d13a53f71e137e24a39d4113eeaf6666b7b41bbcef888b1f5fab7fd",
}


def test_artifacts_match_pinned_digests(capsys, tmp_path):
    for var in ("snr", "rate", "power"):
        assert main(["sweep", "--var", var, "--trials", "2", "--seed", "11",
                     "--out", str(tmp_path / var)]) == 0
    for name, flag, value in (("power", "--power", "-30"), ("snr", "--snr", "15")):
        assert main(["constellation", flag, value, "--seed", "11",
                     "--out", str(tmp_path / f"constellation_{name}.csv")]) == 0
    assert main(["pattern", "--out", str(tmp_path / "pattern.csv")]) == 0
    assert main(["pattern", "--phi", "90", "--theta-step", "1",
                 "--out", str(tmp_path / "pattern_phi90.csv")]) == 0
    capsys.readouterr()
    got = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
           for name in ARTIFACT_SHA256}
    assert got == ARTIFACT_SHA256


# sha256 of `sweep --var snr --trials 2 --seed 11` artifacts with only the
# oversampling changed: one sample per symbol (the shortest sync reference)
# and 32 (the longest the benchmark runs).
OVERSAMPLED_SHA256 = {
    1: {
        "results.csv": "0c225fe9a86320fbd6e7498b9170f92d712b50b87a868a35a295bad554a353b9",
        "manifest.json": "653109023ace3d401a87ebe38b688488f0010525433382de23ba0a8ed2d63dcf",
    },
    32: {
        "results.csv": "858ac52271b5adbfe601891bcbc64c7eebbb28efbbce4da2a910ee44963ec83e",
        "manifest.json": "8e8b4d570e9df9996628e9f82b7df5a1f064420f398acea3704cbb2a1c53d759",
    },
}


# sha256 of `sweep --var snr --trials 40 --seed 11` artifacts at oversampling
# 1, where trials run in blocks of 1, 2, 4 and then 8: the points that stop
# early stop inside a block (after 2 and 6 frames), and the rest run 40.
BLOCKED_SHA256 = {
    "results.csv": "0f8b055640442b853a6a88cafbb14045a640e95e76c8fb170795913a7245b0bb",
    "manifest.json": "c2533c6b478662366738b110253a2de9cea3eaef732f53cb417e64c25f5657eb",
}


def _snr_sweep_digests(capsys, tmp_path, oversampling, trials):
    cfg = tmp_path / "ovs.cfg"
    cfg.write_text(f"oversampling = {oversampling}\n")
    out = tmp_path / "out"
    assert main(["sweep", "--var", "snr", "--trials", str(trials), "--seed", "11",
                 "--config", str(cfg), "--out", str(out)]) == 0
    capsys.readouterr()
    return {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
            for name in ("results.csv", "manifest.json")}


@pytest.mark.parametrize("oversampling", sorted(OVERSAMPLED_SHA256))
def test_oversampled_artifacts_match_pinned_digests(capsys, tmp_path, oversampling):
    assert _snr_sweep_digests(capsys, tmp_path, oversampling, 2) == OVERSAMPLED_SHA256[oversampling]


def test_blocked_sweep_matches_pinned_digests(capsys, tmp_path):
    assert _snr_sweep_digests(capsys, tmp_path, 1, 40) == BLOCKED_SHA256
