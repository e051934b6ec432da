#!/usr/bin/env python3
"""Write example rate-equation traces for inspection.

Produces out/gain_switched_trace.csv (turn-on with relaxation
oscillations, spontaneous noise on) and out/injection_locked_trace.csv
(slave laser pulled onto a steady master).
"""

import argparse
import math
import pathlib
from dataclasses import replace

from chirplink import laser


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--outdir", default="out", help="output directory")
    parser.add_argument("--seed", type=int, default=12345)
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    outdir = pathlib.Path(args.outdir)
    try:
        outdir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        parser.error(f"--outdir must name a directory: {exc}")

    def export(trace, name):
        try:
            laser.export_trace_csv(trace, outdir / name)
        except OSError as exc:
            parser.error(f"cannot write {outdir / name}: {exc}")

    params = laser.LaserParams()
    gs_drive = laser.DriveWaveform.from_segments(
        [(0.5e-9, 0.2 * params.threshold_current), (3e-9, 3.0 * params.threshold_current)],
        1e-11,
    )
    trace = laser.integrate(params, gs_drive, noise_seed=args.seed)
    export(trace, "gain_switched_trace.csv")
    print(f"{outdir / 'gain_switched_trace.csv'}: peak intensity {trace.intensity.max():.2f}")

    quiet = replace(params, spontaneous_fraction=0.0)
    bias = 2.0 * quiet.threshold_current
    n0, s0 = laser.stationary_state(quiet, bias)
    steady = laser.DriveWaveform.constant(bias, 4e-9, 1e-11)
    master = laser.integrate(
        quiet, steady, initial_field=complex(math.sqrt(s0)), initial_carrier=n0
    )
    slave_params = replace(params, injection_coupling=5e10)
    slave = laser.integrate(
        slave_params,
        steady,
        injection=master,
        noise_seed=args.seed + 1,
        initial_field=1j * complex(math.sqrt(s0)),
        initial_carrier=n0,
    )
    export(slave, "injection_locked_trace.csv")
    offset = laser.locked_phase_offset(master, slave, (2e-9, 4e-9))
    print(f"{outdir / 'injection_locked_trace.csv'}: locked phase offset {offset:+.4f} rad")


if __name__ == "__main__":
    main()
