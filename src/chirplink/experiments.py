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

from .config import ExperimentConfig
from .errors import PreconditionError
from .keyrate import RateCurve, bb84_rate_points, dps_rate_points
from .optics import decoder_ports
from .protocols import BB84, DPS, SiftResult, simulate_links
from .source import phase_from_voltage


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
        from . import laser  # here, so that the other recipes load no laser
        physical = laser.physical_phase(cfg.source, voltages)
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
        phases = np.random.default_rng(cfg.rng_seed).uniform(0.0, math.tau, n_blocks)
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


def run_sweep(cfg: ExperimentConfig) -> tuple[list[SiftResult], RateCurve]:
    """(sifts, curve): a Monte Carlo SiftResult per loss of cfg.losses and the
    analytic RateCurve over them, of the protocol cfg.experiment names.

    The curve evaluates the link law over the whole loss axis at once, and
    the Monte Carlo draws every loss's counts, from one generator seeded
    with cfg.rng_seed, from the curve's law at the signal.
    """
    if cfg.experiment == "bb84_sweep":
        protocol, n, rate_points = BB84, max(1, cfg.trials // 2), bb84_rate_points
    elif cfg.experiment == "dps_sweep":
        protocol, n, rate_points = DPS, max(2, cfg.trials), dps_rate_points
    else:
        raise PreconditionError(f"experiment {cfg.experiment!r} is not a rate sweep")
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
            overlay = np.exp(-(z**2) / 2.0) / math.sqrt(math.tau) / sigma_model
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
