"""The benchmark's four workloads: their inputs, the timed call and the checks.

Each workload writes its inputs from the seed into a work directory
(`prepare`, not timed), makes one call into the program's public entry
points (`run`, timed; it returns the output files and whatever the checks
need), and checks the outputs of that call (`check`, not timed).

The inputs mirror the example configs in scripts/configs and the traces
of scripts/laser_traces.py; they are written out here so that editing an
example does not silently change the benchmark.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any, Callable

import numpy as np
from scipy import stats

from chirplink import cli, laser
from chirplink.config import load_config
from chirplink.optics import ChannelParams
from chirplink.protocols import BB84, DPS, expected_gain_qber

# One-sided tail of the 5-sigma bound of the Monte Carlo vs closed-form
# acceptance test; exact binomial tails keep the same level at the
# high-loss points, where a handful of sifted bits makes z non-normal.
TAIL_5_SIGMA = float(stats.norm.sf(5.0))

# Bounds of tests/test_experiments.py for the physical phase path.
PI_REL_TOL = 1e-3
TRACK_REL_TOL = 0.02

# Gain-switch overshoot bound of the laser acceptance test.
MIN_OVERSHOOT = 1.5
# Injection lock: std of slave - master phase over the 2-4 ns plateau.
# With Langevin noise on the slave it is 0.035-0.065 rad over seeds
# 0-59; an unlocked slave (coupling 0 or 1e9 /s) wanders by 0.16-0.25 rad.
MAX_PLATEAU_STD = 0.1

BB84_CFG = """\
experiment = bb84_sweep
rng_seed = {seed}
trials = 2000000
losses = 0 5 10 15 20 25 30 35 40
source.mean_photon_number = 0.25
mzi.visibility = 0.952
detector.efficiency = 0.14
detector.dark_rate = 150
keyrate.mu = 0.5
keyrate.nu = 0.1
keyrate.f_ec = 1.16
"""

DPS_CFG = """\
experiment = dps_sweep
rng_seed = {seed}
trials = 2000000
fiber_km = 0 25 50 75 100 125 150
loss_per_km = 0.2
source.mean_photon_number = 0.2
mzi.visibility = 0.962
"""

PHASE_VOLTAGE_CFG = """\
experiment = phase_voltage
rng_seed = {seed}
voltages = -0.5 -0.45 -0.4 -0.35 -0.3 -0.25 -0.2 -0.15 -0.1 -0.05 0 0.05 0.1 0.15 0.2 0.25 0.3 0.35 0.4 0.45 0.5
physical_mode = true
"""

Check = tuple[str, bool, str]


@dataclass(frozen=True)
class Workload:
    prepare: Callable[[Path, int], Any]
    run: Callable[[Any], tuple[list[Path], Any]]
    check: Callable[[Any, Any], list[Check]]


# ---------------------------------------------------------------------------
# CLI recipes


@dataclass(frozen=True)
class CliInputs:
    command: str
    config: Path
    out: Path


def _cli_workload(command: str, template: str, check) -> Workload:
    def prepare(workdir: Path, seed: int) -> CliInputs:
        config = workdir / "input.cfg"
        config.write_text(template.format(seed=seed))
        return CliInputs(command, config, workdir / "out.csv")

    def run(inputs: CliInputs):
        code = cli.main([inputs.command, "--config", str(inputs.config), "--out", str(inputs.out)])
        if code != 0:
            raise RuntimeError(f"chirplink {inputs.command} exited with {code}")
        outputs = [inputs.out]
        summary = inputs.out.with_name(inputs.out.name + ".json")
        if summary.exists():
            outputs.append(summary)
        return outputs, None

    return Workload(prepare, run, lambda inputs, _: check(inputs))


def _within_5_sigma(k: int, n: int, p: float) -> bool:
    """Both binomial tails at k are above the 5-sigma level."""
    return bool(min(stats.binom.cdf(k, n, p), stats.binom.sf(k - 1, n, p)) > TAIL_5_SIGMA)


def _z(observed: float, expected: float, sd: float) -> str:
    return f"{(observed - expected) / sd:+.2f}" if sd > 0 else "n/a"


def _check_sweep(protocol: str):
    def check(inputs: CliInputs) -> list[Check]:
        cfg = load_config(inputs.config)
        points = json.loads(inputs.out.with_name(inputs.out.name + ".json").read_text())["points"]
        checks = [("points", len(points) == len(cfg.losses), f"{len(points)} of {len(cfg.losses)} losses")]
        for point in points:
            channel = ChannelParams(loss_db=point["loss_db"], loss_per_km=cfg.loss_per_km)
            if protocol == BB84:
                mu, n = cfg.keyrate.mu, max(1, cfg.trials // 2)
            else:
                mu, n = cfg.source.mean_photon_number, max(2, cfg.trials) - 1
            gain, qber = expected_gain_qber(protocol, mu, channel, cfg.mzi, cfg.detector)
            p_sift = 0.5 * gain if protocol == BB84 else gain
            k, e = point["sifted_count"], point["error_count"]
            z_sift = _z(k, n * p_sift, math.sqrt(n * p_sift))
            z_qber = _z(e / k if k else 0.0, qber, math.sqrt(qber * (1 - qber) / k) if k else 0.0)
            loss = f"{point['loss_db']:g} dB"
            checks.append((f"sift {loss}", _within_5_sigma(k, n, p_sift), f"{k} sifted, z_sift {z_sift}"))
            checks.append((f"qber {loss}", _within_5_sigma(e, k, qber), f"{e} errors, z_qber {z_qber}"))
        return checks

    return check


def _check_phase_voltage(inputs: CliInputs) -> list[Check]:
    cfg = load_config(inputs.config)
    lines = [l for l in inputs.out.read_text().splitlines() if not l.startswith("#")]
    header_ok = lines[0] == "voltage_v,phase_rad,physical_phase_rad"
    rows = np.array([[float(x) for x in l.split(",")] for l in lines[1:]])
    checks = [("header", header_ok, lines[0]), ("rows", len(rows) == len(cfg.voltages), f"{len(rows)} rows")]
    v_pi = cfg.source.halfwave_voltage
    for sign in (1.0, -1.0):
        at = np.isclose(rows[:, 0], sign * v_pi)
        phys = float(rows[at, 2][0]) if at.any() else math.nan
        ok = abs(phys - sign * math.pi) <= PI_REL_TOL * math.pi
        checks.append((f"pi at {sign * v_pi:+g} V", ok, f"physical phase {phys:+.6f} rad"))
    err = np.abs(rows[:, 2] - rows[:, 1])
    ok = bool(np.all(err <= TRACK_REL_TOL * np.abs(rows[:, 1]) + 1e-12))
    worst = float(np.max(err / np.maximum(np.abs(rows[:, 1]), 1e-12)))
    checks.append(("tracks encoder", ok, f"worst relative deviation {worst:.2e}"))
    return checks


# ---------------------------------------------------------------------------
# laser traces of scripts/laser_traces.py


def _prepare_traces(workdir: Path, seed: int):
    return workdir, seed


def _run_traces(inputs):
    """The laser calls of scripts/laser_traces.py, with its inputs."""
    outdir, seed = inputs
    params = laser.LaserParams()
    gs_drive = laser.DriveWaveform.from_segments(
        [(0.5e-9, 0.2 * params.threshold_current), (3e-9, 3.0 * params.threshold_current)],
        1e-11,
    )
    gain_switched = laser.integrate(params, gs_drive, noise_seed=seed)
    laser.export_trace_csv(gain_switched, outdir / "gain_switched_trace.csv")

    quiet = replace(params, spontaneous_fraction=0.0)
    bias = 2.0 * quiet.threshold_current
    n0, s0 = laser.stationary_state(quiet, bias)
    steady = laser.DriveWaveform.constant(bias, 4e-9, 1e-11)
    master = laser.integrate(quiet, steady, initial_field=complex(math.sqrt(s0)), initial_carrier=n0)
    slave = laser.integrate(
        replace(params, injection_coupling=5e10),
        steady,
        injection=master,
        noise_seed=seed + 1,
        initial_field=1j * complex(math.sqrt(s0)),
        initial_carrier=n0,
    )
    laser.export_trace_csv(slave, outdir / "injection_locked_trace.csv")
    offset = laser.locked_phase_offset(master, slave, (2e-9, 4e-9))
    outputs = [outdir / "gain_switched_trace.csv", outdir / "injection_locked_trace.csv"]
    return outputs, (gain_switched, master, slave, offset)


def _check_traces(inputs, result) -> list[Check]:
    gain_switched, master, slave, offset = result
    overshoot = float(gain_switched.intensity.max() / gain_switched.intensity[-1])
    sel = slave.times >= 2e-9
    plateau_std = float(np.std(slave.phase[sel] - np.interp(slave.times[sel], master.times, master.phase)))
    return [
        ("gain-switch overshoot", overshoot > MIN_OVERSHOOT, f"peak/final intensity {overshoot:.3f}"),
        ("injection lock", plateau_std < MAX_PLATEAU_STD,
         f"plateau phase std {plateau_std:.4f} rad, offset {offset:+.4f} rad"),
    ]


WORKLOADS = {
    "bb84-link": _cli_workload("bb84-sweep", BB84_CFG, _check_sweep(BB84)),
    "dps-link": _cli_workload("dps-sweep", DPS_CFG, _check_sweep(DPS)),
    "laser-calibrate": _cli_workload("phase-voltage", PHASE_VOLTAGE_CFG, _check_phase_voltage),
    "laser-traces": Workload(_prepare_traces, _run_traces, _check_traces),
}

