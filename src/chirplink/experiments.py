"""The five experiment recipes behind the CLI.

Each run function returns its in-memory result and, when an output path
is set, writes plot-ready CSV (tables) and JSON (summaries).  Every
output embeds the fully resolved configuration and seed, so a rerun
reproduces the file byte for byte.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass, replace

import numpy as np

from . import laser
from .config import ExperimentConfig
from .errors import IntegrationDivergedError, PreconditionError
from .keyrate import RatePoint, bb84_rate_point, dps_rate_point
from .optics import ChannelParams, decoder_ports
from .protocols import BB84, DPS, SiftResult, simulate_bb84, simulate_dps
from .source import SourceConfig, phase_from_voltage

TWO_PI = 2.0 * math.pi


def _write_table(path, cfg: ExperimentConfig, header: str, rows: np.ndarray) -> None:
    # np.savetxt's bytes (fmt "%.18e", delimiter ","), formatted with one %
    rows = np.atleast_2d(rows)
    row = ",".join(["%.18e"] * rows.shape[1]) + "\n"
    comments = "".join(f"# {key} = {value}\n" for key, value in cfg.resolved_items())
    with open(path, "w") as fh:
        fh.write(comments + header + "\n" + (row * len(rows)) % tuple(rows.ravel().tolist()))


def _write_summary(path, cfg: ExperimentConfig, payload: dict) -> None:
    payload = dict(payload)
    payload["config"] = dict(cfg.resolved_items())
    with open(path, "w") as fh:
        fh.write(json.dumps(payload, indent=2) + "\n")


# ---------------------------------------------------------------------------
# phase vs voltage


# The physical path steps the rate equations at this interval, for a
# window of _PRE, the perturbation, then _POST for the laser to settle.
_DT = 2e-13
_PRE, _POST = 0.2e-9, 1.5e-9
# At most this many steps per run: a 20-run kernel call holds its pump, 8
# bytes per run-step, ~150 MB and ~0.2 s at the cap on one x86_64 core.
_MAX_STEPS = 1e6
# The physical path integrates up to this many drive levels per kernel call.
# A call costs one run's chain of steps plus a little per AVX2 vector of 4
# runs, but 3 runs past the last vector cost more than a vector (8751 steps:
# 0.43 ms for 3 runs, 0.41 for 4), so such a call repeats its last level.
_BATCH_RUNS = 20


def _unwrap_corrections(flips, totals: np.ndarray) -> np.ndarray:
    """`totals` plus np.unwrap's corrections at the sign flips of Im E.

    `flips` is integrate_pumps' (index, before, after) of finite samples;
    totals[index % len(totals)] gets them.  A correction is nonzero only at
    a jump of more than pi (+0.0 at exactly pi, which leaves a sum as it
    is), and an angle is in [0, pi] when the sign bit of Im E is clear and
    in [-pi, -0] when it is set, so such a jump flips that bit.  They are
    added one at a time in sample order, as np.cumsum adds them.
    """
    index, before, after = flips
    dd = np.angle(after) - np.angle(before)
    corrected = np.abs(dd) >= math.pi
    dd, column = dd[corrected], index[corrected] % len(totals)
    ddmod = np.mod(dd + math.pi, TWO_PI) - math.pi
    np.copyto(ddmod, math.pi, where=(ddmod == -math.pi) & (dd > 0))
    np.add.at(totals, column, ddmod - dd)
    return totals


def _phase_shift(duration: float):
    """Net phase of a drive step of `duration`, as a function of its heights.

    The noiseless laser starts at its stationary state at the bias; the
    phase is taken relative to the unperturbed laser, the reference.  The
    returned function takes an array of drive steps, and steps `ahead` that
    a later call may ask for, and integrates the levels of both that it has
    not met before in one kernel call (_BATCH_RUNS at most).
    Up to sample k0 every run is the reference, as step k0 is the first to
    read the step's pump: the reference steps there alone, once, and every
    level, its own tail too, resumes from its state at k0.  The net phase,
    from the kernel's sign flips, is np.unwrap's over the whole window, bit
    for bit.  A divergence names the first such level in input order, the
    reference first, at the sample of the whole window; a level that
    diverges ahead raises only when a call asks for it.
    """
    steps = (_PRE + duration + _POST) / _DT
    if not steps <= _MAX_STEPS:
        raise PreconditionError(
            f"physical_mode: source.perturbation_duration = {duration:g} s asks for {steps:.3g} "
            f"rate-equation steps of {_DT:g} s per run, more than {_MAX_STEPS:.0e}"
        )
    quiet = replace(laser.LaserParams(), spontaneous_fraction=0.0)
    bias = 2.0 * quiet.threshold_current
    n0, s0 = laser.stationary_state(quiet, bias)
    # samples of the bias before, of the step and of the bias after it, as
    # DriveWaveform.from_segments counts them; the drive ends on one more
    n_pre, n_step, n_post = (int(round(t / _DT)) for t in (_PRE, duration, _POST))
    k0 = n_pre - 1
    start = head_sum = None  # the reference's state at sample k0 and its corrections to there
    raw = {}  # by drive level: the net phase before the reference's is subtracted, or the divergence

    def integrate(levels: list[float], origin: int, n_steps: int, start):
        """Last fields, flips and divergences (or None) of runs at `levels`, from sample `origin`."""
        levels = levels + levels[-1:] * (len(levels) % 4 == 3)
        pump = np.full((n_steps + 1, len(levels)), bias)
        pump[n_pre - origin : n_pre + n_step - origin] = levels
        field, carrier, diverged, flips = laser.integrate_pumps(
            quiet, pump, _DT, *start, trace=False, flips=True
        )
        errors = [  # each names the sample in the whole window
            laser.diverged_error(k + origin, e, n) if k else None
            for k, e, n in zip(diverged, field, carrier)
        ]
        return field, carrier, flips, errors

    def phase_shift(drive_steps, ahead=()) -> np.ndarray:
        nonlocal start, head_sum
        levels = bias + np.asarray(drive_steps, dtype=float)
        asked = [bias, *levels.ravel().tolist()]
        wanted = asked + (bias + np.asarray(ahead, dtype=float)).tolist()
        new = [level for level in dict.fromkeys(wanted) if level not in raw]
        if new and start is None:
            field, carrier, flips, (error,) = integrate([bias], 0, k0, (complex(math.sqrt(s0)), n0))
            if error:
                raise error
            start, (head_sum,) = (field[0], carrier[0]), _unwrap_corrections(flips, np.zeros(1))
        for i in range(0, len(new), _BATCH_RUNS):
            batch = new[i : i + _BATCH_RUNS]
            field, _, flips, errors = integrate(batch, k0, n_pre + n_step + n_post - k0, start)
            # sample 0 is real and positive, at angle 0; zip drops the copies
            nets = np.angle(field) + _unwrap_corrections(flips, np.full(len(field), head_sum))
            raw.update(zip(batch, [error or net for net, error in zip(nets.tolist(), errors)]))
        for level in asked:
            if isinstance(raw[level], IntegrationDivergedError):
                raise raw[level]
        return np.array([raw[level] - raw[bias] for level in asked[1:]]).reshape(levels.shape)

    return phase_shift


def _brentq(f, xa: float, xb: float, xtol: float) -> float:
    """scipy.optimize.brentq(f, xa, xb, xtol)'s root, the same double.

    A transcription of scipy/optimize/Zeros/brentq.c, with its rtol = 4 eps
    and maxiter = 100.  `f(x, ahead)` returns the function at x and may
    evaluate the points `ahead` with it: after an interpolated or bisected
    step to x, those are the two tolerance steps x +- (xtol + rtol |x|) / 2
    that Brent may take next.  A NaN value, the same sign at both ends, or
    no convergence in 100 iterations raises PreconditionError.
    """
    rtol = 4.0 * sys.float_info.epsilon

    def at(x: float, ahead=()) -> float:
        fx = f(x, ahead)
        if math.isnan(fx):
            raise PreconditionError(f"root search: the function is NaN at x = {x!r}")
        return fx

    xpre, xcur = xa, xb
    fpre = at(xpre)
    fcur = at(xcur)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if math.copysign(1.0, fpre) == math.copysign(1.0, fcur):
        raise PreconditionError(f"root search: the function has one sign at {xa!r} and {xb!r}")
    xblk = fblk = spre = scur = 0.0
    for _ in range(100):
        if fpre != 0 and fcur != 0 and math.copysign(1.0, fpre) != math.copysign(1.0, fcur):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur
        short = False
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # extrapolate; where C divides by 0, its infinite step bisects
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                den = dblk * dpre * (fblk - fpre)
                stry = -fcur * (fblk * dblk - fpre * dpre) / den if den else math.inf
            short = 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta)
        spre, scur = (scur, stry) if short else (sbis, sbis)
        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
            tol = (xtol + rtol * abs(xcur)) / 2
            fcur = at(xcur, (xcur + tol, xcur - tol))
        else:
            xcur += delta if sbis > 0 else -delta
            fcur = at(xcur)
    raise PreconditionError(f"root search: no convergence in 100 iterations, at x = {xcur!r}")


def calibrate_physical_drive_scale(source: SourceConfig, phase_shift) -> float:
    """Drive-step-per-volt scale making the rate-equation laser hit pi at V_pi.

    `phase_shift` is _phase_shift(source.perturbation_duration).  The
    bracket's ends are integrated together; Brent then asks for one scale
    at a time, each with the two tolerance steps it may take next, and
    `phase_shift` integrates each new one once.  The root is its last
    evaluation.
    """
    params = laser.LaserParams()
    t_m = source.perturbation_duration
    v_pi = source.halfwave_voltage

    def objective(scale: float, ahead) -> float:
        return float(phase_shift(scale * v_pi, np.multiply(ahead, v_pi))) - math.pi

    # small-signal adiabatic-chirp estimate as the starting bracket
    guess = TWO_PI / (params.linewidth_enhancement * params.gain_compression * t_m) / v_pi
    low, high = 0.2 * guess, 5.0 * guess
    at_low, at_high = phase_shift(np.array([low, high]) * v_pi) - math.pi
    if at_low * at_high > 0:
        raise PreconditionError(
            f"physical_mode: the laser phase at source.halfwave_voltage = {v_pi:g} V does not "
            f"cross pi for drive scales {low:.3g} to {high:.3g} per volt (phase "
            f"{at_low + math.pi:+.3g} to {at_high + math.pi:+.3g} rad); "
            f"source.perturbation_duration = {t_m:g} s must span several {_DT:g} s steps"
        )
    return _brentq(objective, low, high, xtol=1e-4 * guess)


@dataclass(frozen=True)
class PhaseVoltageResult:
    voltages: np.ndarray
    encoder_phase: np.ndarray
    physical_phase: np.ndarray | None


def run_phase_voltage(cfg: ExperimentConfig) -> PhaseVoltageResult:
    voltages = np.asarray(cfg.voltages, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        encoder = np.array([phase_from_voltage(v, cfg.source) for v in voltages])
    if not np.isfinite(encoder).all():
        raise PreconditionError("voltages: a voltage overflows the encoder phase")
    physical = None
    if cfg.physical_mode:
        # one reference and one memo: a step the calibration integrated costs none
        phase_shift = _phase_shift(cfg.source.perturbation_duration)
        scale = calibrate_physical_drive_scale(cfg.source, phase_shift)
        with np.errstate(over="ignore"):
            steps = scale * voltages
        if not np.isfinite(steps).all():
            raise PreconditionError("physical_mode: a voltage overflows the laser drive step")
        physical = phase_shift(steps)
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


def run_sweep(cfg: ExperimentConfig, protocol: str) -> list[tuple[SiftResult, RatePoint]]:
    """Per-loss Monte Carlo sift, paired with the analytic point and secure rate."""
    seeds = np.random.default_rng(cfg.rng_seed).integers(0, 2**63 - 1, size=len(cfg.losses))
    if protocol == BB84:
        source = replace(cfg.source, mean_photon_number=cfg.keyrate.mu / 2.0)
    elif protocol == DPS:
        source = cfg.source
    else:
        raise PreconditionError(f"unknown protocol {protocol!r}")
    rows = []
    for loss, seed in zip(cfg.losses, seeds):
        channel = ChannelParams(loss)
        if protocol == BB84:
            n_pairs = max(1, cfg.trials // 2)
            mc = simulate_bb84(n_pairs, source, channel, cfg.mzi, cfg.detector, int(seed))
            point = bb84_rate_point(cfg, loss)
        else:
            mc = simulate_dps(max(2, cfg.trials), source, channel, cfg.mzi, cfg.detector, int(seed))
            point = dps_rate_point(cfg, loss)
        rows.append((mc, point))
    if cfg.output_path:
        table = np.array(
            [
                [p.loss_db, mc.sifted_rate_bps, mc.qber, p.sifted_rate_bps, p.qber, p.secure_rate_bps]
                for mc, p in rows
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
                        "loss_db": p.loss_db,
                        "sifted_count": mc.sifted_count,
                        "error_count": mc.error_count,
                        "mc_qber": mc.qber,
                        "analytic_qber": p.qber,
                        "secure_rate_bps": p.secure_rate_bps,
                    }
                    for mc, p in rows
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
    n_sift = stab.sifted_per_bin
    rng = np.random.default_rng(cfg.rng_seed)
    errors = rng.binomial(n_sift, stab.true_qber, size=stab.n_bins)
    series = errors / n_sift
    mean = float(np.mean(series))
    std = float(np.std(series))
    if cfg.output_path:
        t = (np.arange(stab.n_bins) + 1) * stab.integration_time
        _write_table(cfg.output_path, cfg, "time_s,qber", np.column_stack([t, series]))
        sigma_model = stab.model_std
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
