"""The five experiment recipes behind the CLI.

Each run function returns its in-memory result and, when an output path
is set, writes plot-ready CSV (tables) and JSON (summaries).  Every
output embeds the fully resolved configuration and seed, so a rerun
reproduces the file byte for byte.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass, replace

import numpy as np

from . import laser
from .config import ExperimentConfig
from .errors import PreconditionError
from .keyrate import LinkParams, bb84_rate_point, dps_rate_point
from .optics import ChannelParams, interfere
from .protocols import BB84, DPS, expected_gain_qber, simulate_bb84, simulate_dps
from .source import SourceConfig, emit_train, phase_from_voltage

TWO_PI = 2.0 * math.pi


def _write_table(path, cfg: ExperimentConfig, header: str, rows: np.ndarray) -> None:
    with open(path, "w") as fh:
        for key, value in cfg.resolved_items():
            fh.write(f"# {key} = {value}\n")
        fh.write(header + "\n")
        np.savetxt(fh, np.atleast_2d(rows), delimiter=",")


def _write_summary(path, cfg: ExperimentConfig, payload: dict) -> None:
    payload = dict(payload)
    payload["config"] = dict(cfg.resolved_items())
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")


# ---------------------------------------------------------------------------
# phase vs voltage


# The physical path steps the rate equations at this interval, for a
# window of _PRE, the perturbation, then _POST for the laser to settle.
_DT = 2e-13
_PRE, _POST = 0.2e-9, 1.5e-9


def _steady_laser(params: laser.LaserParams | None, bias_over_threshold: float):
    """Noiseless laser, its bias and the stationary (field, carrier) there."""
    params = params or laser.LaserParams()
    bias = bias_over_threshold * params.threshold_current
    n0, s0 = laser.stationary_state(params, bias)
    quiet = replace(params, spontaneous_fraction=0.0)
    return quiet, bias, complex(math.sqrt(s0), 0.0), n0


def _perturbation_drive(bias: float, drive_step, duration: float) -> laser.DriveWaveform:
    """Steady `bias` with a rectangular step of `duration`.

    `drive_step` is one height, or an array of heights giving one pump
    column per run of `laser.integrate_ensemble`.
    """
    window = laser.DriveWaveform.from_segments([(_PRE, 0.0), (duration, 1.0), (_POST, 0.0)], _DT)
    step = np.asarray(drive_step, dtype=float)
    on = window.current == 1.0
    current = np.where(on[:, None] if step.ndim else on, bias + step, bias)
    return laser.DriveWaveform(window.times, current)


def calibrate_physical_drive_scale(
    source: SourceConfig,
    params: laser.LaserParams | None = None,
    bias_over_threshold: float = 2.0,
) -> float:
    """Drive-step-per-volt scale making the rate-equation laser hit pi at V_pi.

    The net phase of a perturbed run is taken relative to the unperturbed
    laser, which is integrated once.  brentq asks for one scale at a
    time, so each evaluation is one scalar integration.
    """
    quiet, bias, e0, n0 = _steady_laser(params, bias_over_threshold)
    t_m = source.perturbation_duration
    v_pi = source.halfwave_voltage

    def net_phase(drive_step: float) -> float:
        drive = _perturbation_drive(bias, drive_step, t_m)
        trace = laser.integrate(quiet, drive, dt=_DT, initial_field=e0, initial_carrier=n0)
        return trace.phase[-1] - trace.phase[0]

    reference = net_phase(0.0)

    # cached: brentq evaluates the bracket ends again after the check below
    @functools.cache
    def objective(scale: float) -> float:
        return float(net_phase(scale * v_pi) - reference) - math.pi

    # small-signal adiabatic-chirp estimate as the starting bracket
    guess = TWO_PI / (quiet.linewidth_enhancement * quiet.gain_compression * t_m) / v_pi
    low, high = 0.2 * guess, 5.0 * guess
    if objective(low) * objective(high) > 0:
        raise PreconditionError(
            f"physical_mode: the laser phase at source.halfwave_voltage = {v_pi:g} V does not "
            f"cross pi for drive scales {low:.3g} to {high:.3g} per volt (phase "
            f"{objective(low) + math.pi:+.3g} to {objective(high) + math.pi:+.3g} rad); "
            f"source.perturbation_duration = {t_m:g} s must span several {_DT:g} s steps"
        )
    from scipy.optimize import brentq  # here, so that importing chirplink loads no scipy

    return float(brentq(objective, low, high, xtol=1e-4 * guess))


def physical_phase_from_voltages(
    voltages: np.ndarray | list[float],
    source: SourceConfig,
    drive_scale: float,
    params: laser.LaserParams | None = None,
    bias_over_threshold: float = 2.0,
) -> np.ndarray:
    """Rate-equation phase at each voltage, all voltages in one batched run.

    A last run with no perturbation is the reference; the batched stepper
    reproduces the scalar one bit for bit, so each phase equals what the
    calibration's scalar integrations give for that drive step.
    """
    quiet, bias, e0, n0 = _steady_laser(params, bias_over_threshold)
    with np.errstate(over="ignore"):
        steps = np.append(drive_scale * np.asarray(voltages, dtype=float), 0.0)
    if not np.isfinite(steps).all():
        raise PreconditionError("physical_mode: a voltage overflows the laser drive step")
    drive = _perturbation_drive(bias, steps, source.perturbation_duration)
    _, _, net = laser.integrate_ensemble(
        quiet, drive, len(steps), dt=_DT, initial_field=e0, initial_carrier=n0
    )
    return net[:-1] - net[-1]


@dataclass(frozen=True)
class PhaseVoltageResult:
    voltages: np.ndarray
    encoder_phase: np.ndarray
    physical_phase: np.ndarray | None


def run_phase_voltage(cfg: ExperimentConfig) -> PhaseVoltageResult:
    voltages = np.asarray(cfg.voltages, dtype=float)
    with np.errstate(over="ignore"):
        encoder = np.array([phase_from_voltage(v, cfg.source) for v in voltages])
    if not np.isfinite(encoder).all():
        raise PreconditionError("voltages: a voltage overflows the encoder phase")
    physical = None
    if cfg.physical_mode:
        scale = calibrate_physical_drive_scale(cfg.source)
        physical = physical_phase_from_voltages(voltages, cfg.source, scale)
    if cfg.output_path:
        if physical is None:
            rows = np.column_stack([voltages, encoder])
            header = "voltage_v,phase_rad"
        else:
            rows = np.column_stack([voltages, encoder, physical])
            header = "voltage_v,phase_rad,physical_phase_rad"
        _write_table(cfg.output_path, cfg, header, rows)
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
    """Interference statistics of same-seed vs different-seed pulse pairs."""
    if cfg.source.block_length != 2:
        raise PreconditionError("randomization experiment requires block_length = 2")
    if cfg.trials < 2:
        raise PreconditionError("randomization needs trials >= 2 for a cross-block pulse pair")
    n_blocks = cfg.trials
    symbols = np.zeros(2 * n_blocks)
    train = emit_train(cfg.source, symbols, cfg.randomize_blocks, cfg.rng_seed)
    result = interfere(train, cfg.mzi)
    total = result.port0 + result.port1
    fraction = result.port0 / total
    odd = (result.slots % 2) == 1
    intra = fraction[odd]
    cross = fraction[~odd]
    intra_som = float(np.std(intra) / np.mean(intra))
    from scipy import stats  # here, so that importing chirplink loads no scipy

    ks = stats.kstest(cross, stats.arcsine.cdf)
    res = RandomizationResult(intra, cross, intra_som, float(ks.pvalue))
    if cfg.output_path:
        edges = np.linspace(0.0, 1.0, 51)
        h_intra, _ = np.histogram(intra, bins=edges)
        h_cross, _ = np.histogram(cross, bins=edges)
        centers = 0.5 * (edges[:-1] + edges[1:])
        rows = np.column_stack([centers, h_intra, h_cross])
        _write_table(cfg.output_path, cfg, "port0_fraction,intra_count,cross_count", rows)
        _write_summary(
            cfg.output_path + ".json",
            cfg,
            {
                "intra_std_over_mean": intra_som,
                "cross_ks_pvalue": float(ks.pvalue),
                "n_blocks": n_blocks,
            },
        )
    return res


# ---------------------------------------------------------------------------
# rate sweeps


@dataclass(frozen=True)
class SweepRow:
    loss_db: float
    mc_sifted_rate_bps: float
    mc_qber: float
    mc_sifted_count: int
    mc_error_count: int
    analytic_gain: float
    analytic_qber: float
    analytic_sifted_rate_bps: float
    secure_rate_bps: float


def run_sweep(cfg: ExperimentConfig, protocol: str) -> list[SweepRow]:
    """Per-loss Monte Carlo sift plus analytic overlay and secure rate."""
    seeds = np.random.default_rng(cfg.rng_seed).integers(0, 2**63 - 1, size=len(cfg.losses))
    if protocol == BB84:
        source = replace(cfg.source, mean_photon_number=cfg.keyrate.mu / 2.0, block_length=2)
        mu_model = cfg.keyrate.mu
    elif protocol == DPS:
        source = cfg.source
        mu_model = cfg.source.mean_photon_number
    else:
        raise PreconditionError(f"unknown protocol {protocol!r}")
    link = LinkParams(
        source=source,
        mzi=cfg.mzi,
        detector=cfg.detector,
        signal_mu=cfg.keyrate.mu,
        decoy_nu=cfg.keyrate.nu,
        f_ec=cfg.keyrate.f_ec,
    )
    rows = []
    for loss, seed in zip(cfg.losses, seeds):
        channel = ChannelParams(loss_db=loss, loss_per_km=cfg.loss_per_km)
        if protocol == BB84:
            n_pairs = max(1, cfg.trials // 2)
            mc = simulate_bb84(n_pairs, source, channel, cfg.mzi, cfg.detector, int(seed))
            point = bb84_rate_point(link, loss)
        else:
            mc = simulate_dps(max(2, cfg.trials), source, channel, cfg.mzi, cfg.detector, int(seed))
            point = dps_rate_point(link, loss)
        gain, qber = expected_gain_qber(protocol, mu_model, channel, cfg.mzi, cfg.detector)
        rows.append(
            SweepRow(
                loss_db=loss,
                mc_sifted_rate_bps=mc.sifted_rate_bps,
                mc_qber=mc.qber,
                mc_sifted_count=mc.sifted_count,
                mc_error_count=mc.error_count,
                analytic_gain=gain,
                analytic_qber=qber,
                analytic_sifted_rate_bps=point.sifted_rate_bps,
                secure_rate_bps=point.secure_rate_bps,
            )
        )
    if cfg.output_path:
        table = np.array(
            [
                [
                    r.loss_db,
                    r.mc_sifted_rate_bps,
                    r.mc_qber,
                    r.analytic_sifted_rate_bps,
                    r.analytic_qber,
                    r.secure_rate_bps,
                ]
                for r in rows
            ]
        )
        _write_table(
            cfg.output_path,
            cfg,
            "loss_db,mc_sifted_rate_bps,mc_qber,analytic_sifted_rate_bps,analytic_qber,secure_rate_bps",
            table,
        )
        _write_summary(
            cfg.output_path + ".json",
            cfg,
            {
                "protocol": protocol,
                "loss_seeds": [int(s) for s in seeds],
                "points": [
                    {
                        "loss_db": r.loss_db,
                        "sifted_count": r.mc_sifted_count,
                        "error_count": r.mc_error_count,
                        "mc_qber": r.mc_qber,
                        "analytic_qber": r.analytic_qber,
                        "secure_rate_bps": r.secure_rate_bps,
                    }
                    for r in rows
                ],
            },
        )
    return rows


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
    n_bins = int(round(stab.duration / stab.integration_time))
    n_sift = stab.sifted_per_bin
    rng = np.random.default_rng(cfg.rng_seed)
    errors = rng.binomial(n_sift, stab.true_qber, size=n_bins)
    series = errors / n_sift
    mean = float(np.mean(series))
    std = float(np.std(series))
    if cfg.output_path:
        t = (np.arange(n_bins) + 1) * stab.integration_time
        _write_table(cfg.output_path, cfg, "time_s,qber", np.column_stack([t, series]))
        sigma_model = math.sqrt(stab.true_qber * (1.0 - stab.true_qber) / n_sift)
        # 40 bins over [min, max]; numpy widens a constant series' range by 0.5
        hist, edges = np.histogram(series, bins=40, density=True)
        centers = 0.5 * (edges[:-1] + edges[1:])
        # the normal density in scipy.stats.norm.pdf's arithmetic; where z**2
        # overflows the density is 0, as scipy returns it
        z = (centers - stab.true_qber) / sigma_model
        with np.errstate(over="ignore"):
            overlay = np.exp(-(z**2) / 2.0) / math.sqrt(TWO_PI) / sigma_model
        _write_summary(
            cfg.output_path + ".json",
            cfg,
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
