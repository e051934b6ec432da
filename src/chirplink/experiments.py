"""The five experiment recipes behind the CLI.

Each run function returns its in-memory result and, when an output path
is set, writes plot-ready CSV (tables) and JSON (summaries).  Every
output embeds the fully resolved configuration and seed, so a rerun
reproduces the file byte for byte.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from . import laser
from .config import ExperimentConfig
from .errors import PreconditionError
from .keyrate import RateCurve, bb84_rate_points, dps_rate_points
from .optics import decoder_ports
from .protocols import BB84, DPS, SiftResult, simulate_links
from .source import SourceConfig, phase_from_voltage

TWO_PI = 2.0 * math.pi


def write_table(path, header: str, rows: np.ndarray, items=()) -> None:
    """Write `rows` as np.savetxt's CSV (fmt "%.18e", delimiter ",") under `header`,
    after one `# key = value` line per item; the rows are formatted with one %."""
    rows = np.atleast_2d(rows)
    row = ",".join(["%.18e"] * rows.shape[1]) + "\n"
    comments = "".join(f"# {key} = {value}\n" for key, value in items)
    with open(path, "w") as fh:
        fh.write(comments + header + "\n" + (row * len(rows)) % tuple(rows.ravel().tolist()))


def _write_outputs(cfg: ExperimentConfig, header: str, rows: np.ndarray, summary: dict | None = None) -> None:
    # the table, and any summary as output_path + ".json", each with the resolved config
    items = cfg.resolved_items()
    write_table(cfg.output_path, header, rows, items)
    if summary is not None:
        with open(cfg.output_path + ".json", "w") as fh:
            fh.write(json.dumps({**summary, "config": dict(items)}, indent=2) + "\n")


# ---------------------------------------------------------------------------
# phase vs voltage


# The physical path steps the rate equations at this interval, for a
# window of one sample of the bias, the perturbation, then _POST for the
# laser to settle.
_DT = 2e-13
_POST = 1.5e-9
# At most this many steps per run: the physical path keeps no trace and
# holds each pump as three segments, so the cap bounds the time, not the
# memory (30 voltages at the cap: ~0.2 s and ~40 MiB on one x86_64 core).
_MAX_STEPS = 1e6
def _phase_shift(duration: float, drive_steps) -> np.ndarray:
    """Net phase of a drive step of `duration`, for each height in `drive_steps`.

    The noiseless laser starts at its stationary state at the bias; the
    phase is taken relative to the unperturbed laser, the reference.  The
    reference and each distinct level are the runs of one kernel call, the
    reference first, each with a pump of three held segments: one sample
    of the bias, the level, the bias.  The bias sample is the pump of the
    step's first Heun predictor, so the trapezoidal steps hold the level
    for the step's count of samples, the t of the closed form in
    calibrate_physical_drive_scale.  The net phase is np.unwrap's over the
    whole window: the angle of the last sample plus 2 pi per turn the
    kernel counts, where np.unwrap adds a correction of about 2 pi.  A
    divergence raises and names the first diverging level in input order,
    the reference first, at its sample of the window.
    """
    quiet = laser.LaserParams(spontaneous_fraction=0.0)
    bias = 2.0 * quiet.threshold_current
    n0, s0 = laser.stationary_state(quiet, bias)
    # samples of the step and of the bias after it, as
    # DriveWaveform.from_segments counts them; the drive ends on one more
    n_step, n_post = (int(round(t / _DT)) for t in (duration, _POST))
    levels = bias + np.asarray(drive_steps, dtype=float)
    runs = list(dict.fromkeys([bias, *levels.ravel().tolist()]))
    ends = [bias] * len(runs)
    field, carrier, diverged, turns = laser.integrate_pumps(
        quiet, [ends, runs, ends], _DT, complex(math.sqrt(s0)), n0,
        trace=False, holds=[1, n_step, n_post + 1],
    )
    if diverged.any():
        j = np.flatnonzero(diverged)[0]
        raise laser.diverged_error(diverged[j], field[j], carrier[j])
    # sample 0 is real and positive, at angle 0
    nets = np.angle(field) + TWO_PI * turns
    column = dict(zip(runs, range(len(runs))))
    return (nets[[column[level] for level in levels.ravel().tolist()]] - nets[0]).reshape(levels.shape)


def calibrate_physical_drive_scale(source: SourceConfig) -> float:
    """Drive-step-per-volt scale making the rate-equation laser hit pi at V_pi.

    In closed form, from the integral of the adiabatic and transient chirp
    (Koch & Bowers, Electron. Lett. 20, 1038 (1984)): once the laser has
    settled, a step dJ held for t accrues (alpha eps / 2) dS t / tau_p of
    net phase, and the stationary dS is dJ tau_p / (1 + eps / (g tau_n)).
    So pi takes dJ = 2 pi (1 + eps / (g tau_n)) / (alpha eps t), where t is
    the step as _phase_shift integrates it: its count of _DT samples.
    A step whose window would take more than _MAX_STEPS steps per run, or
    less than one step of its own, is a config error.
    """
    duration = source.perturbation_duration
    steps = (duration + _POST) / _DT
    if not steps <= _MAX_STEPS:
        raise PreconditionError(
            f"physical_mode: source.perturbation_duration = {duration:g} s asks for {steps:.3g} "
            f"rate-equation steps of {_DT:g} s per run, more than {_MAX_STEPS:.0e}"
        )
    p = laser.LaserParams()
    n_step = round(duration / _DT)
    if n_step < 1:
        raise PreconditionError(
            f"physical_mode: source.perturbation_duration = {duration:g} s "
            f"must span at least one {_DT:g} s rate-equation step"
        )
    eps, t_m = p.gain_compression, n_step * _DT
    step = TWO_PI * (1.0 + eps / (p.gain_slope * p.carrier_lifetime)) / (p.linewidth_enhancement * eps * t_m)
    return step / source.halfwave_voltage


@dataclass(frozen=True)
class PhaseVoltageResult:
    voltages: np.ndarray
    encoder_phase: np.ndarray
    physical_phase: np.ndarray | None


def run_phase_voltage(cfg: ExperimentConfig) -> PhaseVoltageResult:
    voltages = np.asarray(cfg.voltages, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        encoder = phase_from_voltage(voltages, cfg.source)
    if not np.isfinite(encoder).all():
        raise PreconditionError("voltages: a voltage overflows the encoder phase")
    physical = None
    if cfg.physical_mode:
        scale = calibrate_physical_drive_scale(cfg.source)
        with np.errstate(over="ignore"):
            steps = scale * voltages
        if not np.isfinite(steps).all():
            raise PreconditionError("physical_mode: a voltage overflows the laser drive step")
        physical = _phase_shift(cfg.source.perturbation_duration, steps)
    if cfg.output_path:
        if physical is None:
            rows = np.column_stack([voltages, encoder])
            header = "voltage_v,phase_rad"
        else:
            rows = np.column_stack([voltages, encoder, physical])
            header = "voltage_v,phase_rad,physical_phase_rad"
        _write_outputs(cfg, header, rows)
    return PhaseVoltageResult(voltages, encoder, physical)


# ---------------------------------------------------------------------------
# phase randomization


@dataclass(frozen=True)
class RandomizationResult:
    intra_fraction: np.ndarray
    cross_fraction: np.ndarray
    intra_std_over_mean: float
    cross_ks_pvalue: float


def run_randomization(cfg: ExperimentConfig) -> RandomizationResult:
    """Interference statistics of same-block vs cross-block pulse pairs.

    Each block of two pulses carries one global phase, uniform when
    `randomize_blocks` is set and 0 otherwise.  The one-slot decoder pairs
    the two pulses of a block (phase difference 0, the same for every
    block) and the last pulse of a block with the first of the next.
    """
    if cfg.trials < 2:
        raise PreconditionError("randomization needs trials >= 2 for a cross-block pulse pair")
    # a run takes ~106 bytes of memory per trial: ~11 GB at 10**8
    if cfg.trials > 10**8:
        raise PreconditionError("randomization trials must be at most 10**8")
    visibility = cfg.mzi.visibility
    n_blocks = cfg.trials
    # 1/2 (1 + V cos dphi) takes ~V 2**53 distinct doubles; with fewer than
    # one per cross-block pair the ties alone reject the arcsine law
    if visibility * 2.0**53 < n_blocks - 1:
        raise PreconditionError(
            f"randomization: mzi.visibility = {visibility:g} must be >= (trials - 1) * 2**-53, "
            "or rounding leaves the port fractions too few values to resolve the arcsine law"
        )
    if cfg.randomize_blocks:
        phases = np.random.default_rng(cfg.rng_seed).uniform(0.0, TWO_PI, n_blocks)
    else:
        phases = np.zeros(n_blocks)
    mu = cfg.source.mean_photon_number
    # slot 0 is the intra-block pair, slots 1... the cross-block pairs
    port0, port1 = decoder_ports(mu, mu, np.append(0.0, np.diff(phases)), cfg.mzi)
    with np.errstate(invalid="ignore"):
        fraction = port0 / (port0 + port1)
        intra = np.full(n_blocks, fraction[0])
        intra_som = float(np.std(intra) / np.mean(intra))
    if not (np.isfinite(fraction).all() and math.isfinite(intra_som)):
        raise PreconditionError(
            "randomization: port fractions are undefined when no light reaches the decoder, "
            "and intra-block std/mean when none leaves port 0 (visibility 1, internal_phase pi)"
        )
    cross = fraction[1:]
    from scipy import stats  # here, so that importing chirplink loads no scipy

    # 1/2 (1 + V cos(uniform phase)) is arcsine-distributed on (1 -+ V)/2
    ks = stats.kstest(cross, stats.arcsine(loc=(1.0 - visibility) / 2.0, scale=visibility).cdf)
    res = RandomizationResult(intra, cross, intra_som, float(ks.pvalue))
    if cfg.output_path:
        edges = np.linspace(0.0, 1.0, 51)
        h_intra, _ = np.histogram(intra, bins=edges)
        h_cross, _ = np.histogram(cross, bins=edges)
        centers = 0.5 * (edges[:-1] + edges[1:])
        rows = np.column_stack([centers, h_intra, h_cross])
        _write_outputs(
            cfg,
            "port0_fraction,intra_count,cross_count",
            rows,
            {
                "intra_std_over_mean": intra_som,
                "cross_ks_pvalue": float(ks.pvalue),
                "n_blocks": n_blocks,
            },
        )
    return res


# ---------------------------------------------------------------------------
# rate sweeps


def run_sweep(cfg: ExperimentConfig, protocol: str) -> tuple[list[SiftResult], RateCurve]:
    """(sifts, curve): a Monte Carlo SiftResult per loss of cfg.losses and the
    analytic RateCurve over them.

    The curve evaluates the link law over the whole loss axis at once, and
    the Monte Carlo draws every loss's counts, from one generator seeded
    with cfg.rng_seed, from the curve's law at the signal.
    """
    if protocol == BB84:
        n, rate_points = max(1, cfg.trials // 2), bb84_rate_points
    elif protocol == DPS:
        n, rate_points = max(2, cfg.trials), dps_rate_points
    else:
        raise PreconditionError(f"unknown protocol {protocol!r}")
    curve = rate_points(cfg, cfg.losses)
    sifts = simulate_links(protocol, n, cfg.source.clock_rate, curve.law, cfg.rng_seed)
    if cfg.output_path:
        table = np.column_stack(
            [
                curve.loss_db,
                [mc.sifted_rate_bps for mc in sifts],
                [mc.qber for mc in sifts],
                curve.sifted_rate_bps,
                curve.qber,
                curve.secure_rate_bps,
            ]
        )
        header = "loss_db,mc_sifted_rate_bps,mc_qber,analytic_sifted_rate_bps,analytic_qber,secure_rate_bps"
        columns = zip(cfg.losses, sifts, curve.qber.tolist(), curve.secure_rate_bps.tolist())
        _write_outputs(
            cfg,
            header,
            table,
            {
                "protocol": protocol,
                "points": [
                    {
                        "loss_db": loss,
                        "sifted_count": mc.sifted_count,
                        "error_count": mc.error_count,
                        "mc_qber": mc.qber,
                        "analytic_qber": qber,
                        "secure_rate_bps": secure,
                    }
                    for loss, mc, qber, secure in columns
                ],
            },
        )
    return sifts, curve


# ---------------------------------------------------------------------------
# shot-noise stability


@dataclass(frozen=True)
class StabilityResult:
    qber_series: np.ndarray
    sample_mean: float
    sample_std: float
    n_sift_per_bin: int


def run_stability(cfg: ExperimentConfig) -> StabilityResult:
    """Shot-noise-limited QBER time series at fixed true error rate."""
    stab = cfg.stability
    n_sift = stab.sifted_per_bin
    rng = np.random.default_rng(cfg.rng_seed)
    errors = rng.binomial(n_sift, stab.true_qber, size=stab.n_bins)
    series = errors / n_sift
    mean = float(np.mean(series))
    std = float(np.std(series))
    if cfg.output_path:
        t = (np.arange(stab.n_bins) + 1) * stab.integration_time
        sigma_model = stab.model_std
        # 40 bins over [min, max]; numpy widens a constant series' range by 0.5
        hist, edges = np.histogram(series, bins=40, density=True)
        centers = 0.5 * (edges[:-1] + edges[1:])
        # the normal density in scipy.stats.norm.pdf's arithmetic; where z**2
        # overflows the density is 0, as scipy returns it
        z = (centers - stab.true_qber) / sigma_model
        with np.errstate(over="ignore"):
            overlay = np.exp(-(z**2) / 2.0) / math.sqrt(TWO_PI) / sigma_model
        _write_outputs(
            cfg,
            "time_s,qber",
            np.column_stack([t, series]),
            {
                "sample_mean": mean,
                "sample_std": std,
                "model_std": sigma_model,
                "n_sift_per_bin": n_sift,
                "histogram_centers": centers.tolist(),
                "histogram_density": hist.tolist(),
                "normal_overlay_density": overlay.tolist(),
            },
        )
    return StabilityResult(series, mean, std, n_sift)
