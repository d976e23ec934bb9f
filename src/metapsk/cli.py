"""Command line front end: sweeps, mode comparison, hardware counts, IQ dumps, far-field cuts.

Every experiment is a subcommand.  Each prints a JSON summary on stdout
and writes any bulk data to files, so runs are easy to script.  Failures
exit nonzero with a single JSON error line on stderr.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from .baseband import TxMode
from .channel import realized_snr_db
from .config import SimConfig, load_config
from .harness import (
    SWEEP_MANIFEST_NAME,
    SWEEP_RESULTS_NAME,
    SweepSpec,
    SweepVar,
    _channel_for,
    compare_modes,
    default_values,
    hardware_counts,
    read_results_csv,
    run_sweep,
    run_trial,
    write_manifest,
    write_results_csv,
)
from .surface import SurfaceGeometry, array_factor


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        print(json.dumps({"error": message}), file=sys.stderr)
        raise SystemExit(2)


def _config(args) -> SimConfig:
    return load_config(args.config) if args.config else SimConfig()


def _emit(payload: dict) -> None:
    print(json.dumps(payload, indent=2, sort_keys=True, allow_nan=False))


def cmd_sweep(args) -> int:
    cfg = _config(args)
    var = SweepVar(args.var)
    values = tuple(args.values) if args.values else default_values(var, cfg)
    spec = SweepSpec(
        var=var,
        values=values,
        modes=tuple(TxMode(m) for m in args.modes),
        trials=args.trials if args.trials is not None else cfg.trials,
        master_seed=args.seed,
        paired=args.paired,
    )
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    results = run_sweep(spec, cfg)
    results_path = out / SWEEP_RESULTS_NAME
    manifest_path = out / SWEEP_MANIFEST_NAME
    write_results_csv(results_path, results)
    write_manifest(manifest_path, spec, cfg)
    _emit({
        "results": str(results_path),
        "manifest": str(manifest_path),
        "rows": len(results),
        "low_confidence_rows": sum(r.low_confidence for r in results),
    })
    return 0


def cmd_compare(args) -> int:
    rows = []
    for path in args.results:
        rows.extend(read_results_csv(path))
    targets = {} if args.targets is None else {"targets": tuple(args.targets)}
    gaps = compare_modes(rows, **targets)
    _emit({"gaps": [asdict(g) for g in gaps]})
    return 0


def cmd_hw_count(args) -> int:
    _emit({
        "channels": args.channels,
        "metasurface": asdict(hardware_counts(args.channels, TxMode.METASURFACE)),
        "conventional": asdict(hardware_counts(args.channels, TxMode.CONVENTIONAL)),
    })
    return 0


def cmd_constellation(args) -> int:
    cfg = _config(args)
    mode = TxMode(args.mode)
    if args.power is not None:
        channel = _channel_for(SweepVar.TX_POWER, args.power, cfg, mode)
    elif not math.isfinite(args.snr):  # the channel takes +inf as "no noise"; the CLI does not
        raise ValueError(f"--snr must be finite, got {args.snr}")
    else:
        channel = _channel_for(SweepVar.SNR, args.snr, cfg, mode)
    received, metrics = run_trial(mode, cfg, channel, args.seed)

    with open(args.out, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["i", "q"])
        for z in received.eq_data:
            writer.writerow([repr(float(z.real)), repr(float(z.imag))])

    _emit({
        "mode": mode.value,
        "snr_db": realized_snr_db(channel),
        "tx_power_dbm": args.power,
        "ber": metrics.ber,
        "ser": metrics.ser,
        "evm_rms_pct": metrics.evm_rms_pct,
        "est_snr_db": metrics.est_snr_db,
        "points": int(received.eq_data.size),
        "out": str(args.out),
    })
    return 0


def cmd_pattern(args) -> int:
    if not 0.0 < args.theta_step <= 90.0:
        raise ValueError("--theta-step must lie in (0, 90] degrees")
    cfg = _config(args)
    geometry = cfg.geometry()
    # arange can end a rounding error past 90 (e.g. step 90/169)
    theta = np.minimum(np.arange(0.0, 90.0 + args.theta_step / 2, args.theta_step), 90.0)
    cut = array_factor(geometry, cfg.cell_amplitude, theta, args.phi)

    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    with open(out, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["theta_deg", "phi_deg", "magnitude_db"])
        for t, mag in zip(theta, cut):
            # the floor keeps nulls finite in dB
            writer.writerow([f"{t:.6g}", f"{args.phi:.6g}", f"{20.0 * math.log10(max(mag, 1e-12)):.6f}"])

    # The panel peaks at broadside, and the cut covers one side of the
    # main lobe: its edge is the last theta before |AF| first drops below
    # half power.
    below = np.flatnonzero(cut < cut[0] / np.sqrt(2.0))
    edge = theta[below[0] - 1] if below.size else theta[-1]
    _emit({
        "aperture": [geometry.rows, geometry.cols],
        "pitch_wavelengths": geometry.cell_pitch_m / geometry.wavelength_m,
        "broadside_af": float(cut[0] * geometry.n_cells),
        "half_power_beamwidth_deg": float(2.0 * edge),
        "out": str(out),
    })
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="metapsk", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    modes = [m.value for m in TxMode]

    p = sub.add_parser("sweep", help="run a seeded sweep and write results.csv + manifest.json")
    p.add_argument("--var", choices=[v.value for v in SweepVar], required=True)
    p.add_argument("--values", type=float, nargs="+",
                   help="sweep grid; defaults to the config grid for --var")
    p.add_argument("--modes", nargs="+", choices=modes, default=[m.value for m in SweepSpec.modes])
    p.add_argument("--trials", type=int, help="frame budget per point")
    p.add_argument("--seed", type=int, default=SweepSpec.master_seed)
    p.add_argument("--paired", action="store_true",
                   help="both modes see the same payloads and noise at each value, "
                        "and every point runs all --trials frames")
    p.add_argument("--config", help="key = value config file")
    p.add_argument("--out", default=".", help="output directory")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("compare", help="dB gap between mode BER curves from result CSVs")
    p.add_argument("results", nargs="+", help="results.csv files covering both modes")
    p.add_argument("--targets", type=float, nargs="+")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("hw-count", help="RF component counts for both architectures")
    p.add_argument("--channels", type=int, default=SurfaceGeometry().n_cells)
    p.set_defaults(func=cmd_hw_count)

    p = sub.add_parser("constellation", help="single-frame run emitting equalized IQ points")
    p.add_argument("--mode", choices=modes, default=TxMode.METASURFACE.value)
    group = p.add_mutually_exclusive_group()
    group.add_argument("--snr", type=float, default=15.0, help="fixed per-sample SNR, dB")
    group.add_argument("--power", type=float, help="transmit power, dBm (uses the link budget)")
    p.add_argument("--seed", type=int, default=SweepSpec.master_seed)
    p.add_argument("--config", help="key = value config file")
    p.add_argument("--out", default="constellation.csv", help="IQ output CSV")
    p.set_defaults(func=cmd_constellation)

    p = sub.add_parser("pattern", help="far-field theta cut of the uniformly biased panel")
    p.add_argument("--phi", type=float, default=0.0, help="azimuth of the cut, degrees")
    p.add_argument("--theta-step", type=float, default=0.25, help="theta spacing, degrees")
    p.add_argument("--config", help="key = value config file")
    p.add_argument("--out", default="pattern.csv", help="|AF| CSV (theta, phi, dB)")
    p.set_defaults(func=cmd_pattern)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, RuntimeError, MemoryError) as exc:
        print(json.dumps({"error": str(exc) or type(exc).__name__}), file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
