"""BER versus symbol rate at a fixed channel SNR.

The surface transmitter's bias lines settle with a 40 ns time constant by
default, so mid-symbol samples drift off the target phase as the symbol
period shrinks; the conventional transmitter has no such memory.  Both
modes run on shared noise (paired seeding) so the curves are directly
comparable.
"""

import argparse
from pathlib import Path

from metapsk.baseband import TxMode, data_rate_bps
from metapsk.config import SimConfig, load_config
from metapsk.harness import SweepSpec, SweepVar, run_paired_point, write_results_csv


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", default="runs/rate_sweep")
    ap.add_argument("--trials", type=int, default=300)
    ap.add_argument("--seed", type=int, default=SweepSpec.master_seed)
    ap.add_argument("--config", help="key = value config file")
    args = ap.parse_args()

    cfg = load_config(args.config) if args.config else SimConfig()
    results = []
    for rate in cfg.rate_grid_hz:
        pair = run_paired_point(SweepVar.SYMBOL_RATE, rate, cfg,
                                master_seed=args.seed, trials=args.trials)
        results.extend(pair.values())
        surf, conv = pair[TxMode.METASURFACE], pair[TxMode.CONVENTIONAL]
        print(f"rate={rate / 1e6:6.3f} Msym/s ({data_rate_bps(rate) / 1e6:6.3f} Mbps)  "
              f"surface ber={surf.ber:.3e}  conventional ber={conv.ber:.3e}")

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_results_csv(out / "results.csv", results)
    print(f"snr {cfg.rate_sweep_snr_db} dB, tau {cfg.tau_s * 1e9:.0f} ns; "
          f"wrote {out / 'results.csv'}")


if __name__ == "__main__":
    main()
