#!/usr/bin/env python3
"""Write analytic secure-rate curves for both protocols.

Produces out/bb84_rate_curve.csv and out/dps_rate_curve.csv with columns
loss_db, sifted_rate_bps, qber, secure_rate_bps, for the links of
scripts/configs/bb84_sweep.cfg and dps_sweep.cfg.
"""

import argparse
import math
import pathlib

import numpy as np

from chirplink.config import load_config
from chirplink.experiments import write_table
from chirplink.keyrate import bb84_rate_points, dps_rate_points

CONFIGS = pathlib.Path(__file__).resolve().parent / "configs"
HEADER = "loss_db,sifted_rate_bps,qber,secure_rate_bps"


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--outdir", default="out", help="output directory")
    parser.add_argument("--max-loss-db", type=float, default=50.0)
    parser.add_argument("--step-db", type=float, default=0.5)
    args = parser.parse_args()
    if not (math.isfinite(args.max_loss_db) and args.max_loss_db >= 0):
        parser.error("--max-loss-db must be finite and >= 0")
    if not (math.isfinite(args.step_db) and args.step_db > 0):
        parser.error("--step-db must be finite and > 0")
    # two rate points per step: 10**5 steps take ~1.6 s and ~110 MiB on one x86_64 core
    if args.max_loss_db / args.step_db > 1e5:
        parser.error("--max-loss-db / --step-db must be at most 10**5 points")

    outdir = pathlib.Path(args.outdir)
    try:
        outdir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        parser.error(f"--outdir must name a directory: {exc}")
    losses = np.arange(0.0, args.max_loss_db + args.step_db / 2, args.step_db)

    for name, rate_points in (("bb84", bb84_rate_points), ("dps", dps_rate_points)):
        curve = rate_points(load_config(CONFIGS / f"{name}_sweep.cfg"), losses)
        path = outdir / f"{name}_rate_curve.csv"
        data = np.column_stack([curve.loss_db, curve.sifted_rate_bps, curve.qber, curve.secure_rate_bps])
        try:
            write_table(path, HEADER, data)
        except OSError as exc:
            parser.error(f"cannot write {path}: {exc}")
        secure = curve.loss_db[curve.secure_rate_bps > 0]
        cutoff = secure[-1].item() if len(secure) else None
        print(f"{path}: secure-rate cutoff at {cutoff} dB")


if __name__ == "__main__":
    main()
