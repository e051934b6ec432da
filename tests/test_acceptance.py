"""End-to-end acceptance suite.

One test per headline capability; each prints a single PASS/FAIL line
(visible with ``pytest -s`` or in failure output) in addition to its
assertions, so the suite doubles as a checklist.

Statistical criteria use fixed seeds.  Monte Carlo QBER checks at high
loss widen the target band by three binomial standard errors of the
realized sample size: the band itself is an ensemble-mean statement, and
no finite run can pin a ~50-count estimate to +/-0.3% absolute.
"""

import math
import time
from dataclasses import replace

import numpy as np
from scipy import stats

from chirplink import experiments, laser, protocols, source
from chirplink.config import ExperimentConfig, KeyRateConfig, StabilityConfig
from chirplink.keyrate import bb84_rate_points, decoy_bb84_rate
from chirplink.optics import ChannelParams, DetectorParams, InterferometerParams
from chirplink.source import SourceConfig

BB84_VISIBILITY = 0.952  # e_det = (1 - V)/2 = 2.4%
DPS_VISIBILITY = 0.962   # e_det = 1.9%


def _report(criterion: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {criterion}: {detail}")
    assert ok, f"{criterion}: {detail}"


def simulate_links(protocol, n, cfg, transmittance, mzi, det, rng_seed):
    """protocols.simulate_links over the link law of cfg's pulses."""
    law = protocols.link_law(cfg.mean_photon_number, transmittance, mzi, det)
    return protocols.simulate_links(protocol, n, cfg.clock_rate, law, rng_seed)


def test_criterion_1_halfwave_calibration():
    t0 = time.perf_counter()
    voltages = list(np.round(np.arange(-0.5, 0.501, 0.05), 10))
    cfg = ExperimentConfig(experiment="phase_voltage", voltages=voltages)
    res = experiments.run_phase_voltage(cfg)
    elapsed = time.perf_counter() - t0
    at_vpi = float(res.encoder_phase[list(np.round(voltages, 10)).index(0.35)])
    slope = math.pi / 0.35
    max_rel_dev = max(
        abs(p - slope * v) / (abs(slope * v) or 1.0)
        for v, p in zip(res.voltages, res.encoder_phase)
    )
    ok = (
        abs(at_vpi - math.pi) < 1e-9 * math.pi
        and max_rel_dev < 0.01
        and elapsed < 1.0
    )
    _report(
        "criterion 1 (halfwave calibration)",
        ok,
        f"phase(0.35 V) = {at_vpi:.9f}, max linearity deviation = {max_rel_dev:.2e}, "
        f"runtime = {elapsed:.2f} s (< 1 s)",
    )


def test_criterion_2_phase_chirp_relation():
    exact = source.chirp_to_phase(2e9, 250e-12)
    machine_ok = abs(exact - math.pi) <= 4 * np.finfo(float).eps * math.pi
    rng = np.random.default_rng(1)
    cfg = SourceConfig()
    pairs = rng.uniform(-1.0, 1.0, size=(1000, 2))
    additive_ok = all(
        math.isclose(
            source.phase_from_voltage(v1 + v2, cfg),
            source.phase_from_voltage(v1, cfg) + source.phase_from_voltage(v2, cfg),
            rel_tol=1e-9,
            abs_tol=1e-12,
        )
        for v1, v2 in pairs
    )
    ok = machine_ok and additive_ok
    _report(
        "criterion 2 (phase-chirp relation exactness)",
        ok,
        f"chirp_to_phase(2 GHz, 250 ps) - pi = {exact - math.pi:.2e}, "
        f"additivity over 1000 random pairs: {additive_ok}",
    )


def test_criterion_3_phase_randomization():
    t0 = time.perf_counter()
    cfg = ExperimentConfig(experiment="randomization", trials=10_000, rng_seed=2024)
    res = experiments.run_randomization(cfg)
    elapsed = time.perf_counter() - t0
    ok = res.cross_ks_pvalue > 0.01 and res.intra_std_over_mean < 0.02 and elapsed < 10.0
    _report(
        "criterion 3 (phase randomization)",
        ok,
        f"arcsine KS p = {res.cross_ks_pvalue:.3f} (> 0.01), intra std/mean = "
        f"{res.intra_std_over_mean:.2e} (< 0.02), runtime = {elapsed:.1f} s (< 10 s)",
    )


def test_criterion_4_bb84_sweep():
    mzi = InterferometerParams(visibility=BB84_VISIBILITY)
    cfg = replace(
        ExperimentConfig(experiment="bb84_sweep"),
        trials=10_000_000,
        losses=[0.0, 10.0, 20.0, 30.0],
        rng_seed=7,
        mzi=mzi,
    )
    sifts, sweep = experiments.run_sweep(cfg)
    details = []
    band_ok = True
    for mc, loss, qber in zip(sifts, sweep.loss_db, sweep.qber, strict=True):
        se = math.sqrt(qber * (1 - qber) / max(mc.sifted_count, 1))
        tol = 0.003 + 3 * se
        in_band = abs(mc.qber - 0.024) < tol and abs(qber - 0.024) < 0.003
        band_ok &= in_band
        details.append(
            f"{loss:.0f} dB: MC {100 * mc.qber:.2f}% "
            f"(n={mc.sifted_count}), analytic {100 * qber:.2f}%"
        )
    curve = bb84_rate_points(cfg, np.arange(0.0, 50.5, 0.5))
    qbers_beyond = curve.qber[curve.loss_db >= 30.0].tolist()
    rising = all(b > a for a, b in zip(qbers_beyond, qbers_beyond[1:]))
    secure_at_30 = curve.secure_rate_bps[curve.loss_db == 30.0][0]
    cutoff = curve.loss_db[curve.secure_rate_bps > 0].max()
    ok = band_ok and rising and secure_at_30 > 0 and 38.0 <= cutoff <= 45.0
    _report(
        "criterion 4 (BB84 sweep)",
        ok,
        "QBER " + "; ".join(details)
        + f"; monotone rise beyond 30 dB: {rising}; secure rate at 30 dB = "
        f"{secure_at_30:.0f} bps (> 0); cutoff = {cutoff:.1f} dB (in [38, 45])",
    )


def test_criterion_5_dps_sweep():
    mzi = InterferometerParams(visibility=DPS_VISIBILITY)
    det = DetectorParams()
    src = SourceConfig(mean_photon_number=0.2)
    _, base_qber = protocols.expected_gain_qber(
        protocols.DPS, 0.2, ChannelParams(0.0), mzi, det
    )
    at_0 = np.array([ChannelParams(0.0).transmittance])
    (mc,) = simulate_links(protocols.DPS, 2_000_000, src, at_0, mzi, det, rng_seed=3)
    se = math.sqrt(base_qber * (1 - base_qber) / mc.sifted_count)
    base_ok = abs(base_qber - 0.019) < 0.003 and abs(mc.qber - 0.019) < 0.003 + 3 * se
    km = ChannelParams(100.0 * 0.2)
    db = ChannelParams(20.0)
    (res_km,) = simulate_links(
        protocols.DPS, 500_000, src, np.array([km.transmittance]), mzi, det, rng_seed=5
    )
    (res_db,) = simulate_links(
        protocols.DPS, 500_000, src, np.array([db.transmittance]), mzi, det, rng_seed=5
    )
    bitwise_ok = res_km == res_db and km.transmittance == db.transmittance
    ok = base_ok and bitwise_ok
    _report(
        "criterion 5 (DPS sweep)",
        ok,
        f"base QBER analytic {100 * base_qber:.2f}%, MC {100 * mc.qber:.2f}% "
        f"(1.9% +/- 0.3%); 100 km @ 0.2 dB/km == 20 dB bit-for-bit: {bitwise_ok}",
    )


def test_criterion_6_stability():
    t0 = time.perf_counter()
    cfg = ExperimentConfig(
        experiment="stability",
        rng_seed=6,
        stability=StabilityConfig(
            duration=86400.0, integration_time=1.0, sifted_rate_bps=23500.0, true_qber=0.0241
        ),
    )
    res = experiments.run_stability(cfg)
    elapsed = time.perf_counter() - t0
    ok = (
        abs(res.sample_mean - 0.0241) < 1e-4
        and abs(res.sample_std - 0.0010) < 1e-4
        and elapsed < 30.0
    )
    _report(
        "criterion 6 (stability)",
        ok,
        f"mean = {100 * res.sample_mean:.3f}% (2.41% +/- 0.01%), std = "
        f"{100 * res.sample_std:.3f}% (0.10% +/- 0.01%), runtime = {elapsed:.1f} s (< 30 s)",
    )


def test_criterion_7_decoy_conservativeness():
    det = DetectorParams()
    mzi = InterferometerParams(visibility=BB84_VISIBILITY)
    y0 = protocols.vacuum_yield(det)
    e_det = 0.5 * (1 - BB84_VISIBILITY)
    mu, nu = 0.5, 0.1

    def poisson(mu_i, eta):
        q = sum(
            math.exp(-mu_i) * mu_i**n / math.factorial(n)
            * (1.0 - (1.0 - y0) * (1.0 - eta) ** n)
            for n in range(60)
        )
        eq = sum(
            math.exp(-mu_i) * mu_i**n / math.factorial(n)
            * (e_det * (1.0 - (1.0 - eta) ** n) + 0.5 * y0)
            for n in range(60)
        )
        return q, eq / q

    margins = []
    ok = True
    for loss in (0.0, 10.0, 20.0, 30.0):
        eta = ChannelParams(loss).transmittance * 0.5 * mzi.loss_factor * det.efficiency
        q_mu, e_mu = poisson(mu, eta)
        q_nu, e_nu = poisson(nu, eta)
        y1_true = 1.0 - (1.0 - y0) * (1.0 - eta)
        e1_true = (e_det * eta + 0.5 * y0) / y1_true
        _, y1, e1 = decoy_bb84_rate(KeyRateConfig(mu=mu, nu=nu, f_ec=1.16), q_mu, q_nu, e_mu, e_nu, y0)
        ok &= y1 > 0 and e1 <= 0.5
        ok &= y1 <= y1_true * (1 + 1e-9)
        ok &= e1 >= e1_true * (1 - 1e-9)
        margins.append(f"{loss:.0f} dB: Y1 {y1:.3e} <= {y1_true:.3e}, "
                       f"e1 {e1:.4f} >= {e1_true:.4f}")
    _report("criterion 7 (decoy bound conservativeness)", ok, "; ".join(margins))


def test_criterion_8_laser_dynamics():
    params = laser.LaserParams()
    quiet = replace(params, spontaneous_fraction=0.0)
    bias = 1.5 * quiet.threshold_current
    drive = laser.DriveWaveform.constant(bias, 10e-9, 1e-11)
    trace = laser.integrate(quiet, drive, dt=2e-13, initial_field=1e-3)
    n_ref, s_ref = laser.stationary_state(quiet, bias)
    fp_err = max(
        abs(trace.carrier[-1] - n_ref) / n_ref,
        abs(trace.intensity[-1] - s_ref) / s_ref,
    )

    step = laser.DriveWaveform.from_segments(
        [(1e-9, 0.5 * quiet.threshold_current), (3e-9, 2.0 * quiet.threshold_current)], 1e-11
    )
    tr_step = laser.integrate(quiet, step, dt=2e-13, initial_field=1e-3)
    overshoot = tr_step.intensity.max() / tr_step.intensity[-1]

    master = laser.integrate(
        quiet,
        laser.DriveWaveform.constant(2.0 * quiet.threshold_current, 4e-9, 1e-11),
        dt=2e-13,
        initial_field=complex(math.sqrt(laser.stationary_state(quiet, 2.0 * quiet.threshold_current)[1])),
        initial_carrier=laser.stationary_state(quiet, 2.0 * quiet.threshold_current)[0],
    )
    locked = replace(quiet, injection_coupling=5e10)
    slave = laser.integrate(
        locked,
        laser.DriveWaveform.constant(2.0 * quiet.threshold_current, 4e-9, 1e-11),
        injection=master,
        dt=2e-13,
        initial_field=1j * complex(math.sqrt(laser.stationary_state(quiet, 2.0 * quiet.threshold_current)[1])),
        initial_carrier=laser.stationary_state(quiet, 2.0 * quiet.threshold_current)[0],
    )
    sel = slave.times >= 2e-9
    plateau_std = float(
        np.std(slave.phase[sel] - np.interp(slave.times[sel], master.times, master.phase))
    )

    gs_drive = laser.DriveWaveform.from_segments(
        [(0.3e-9, 0.2 * params.threshold_current), (0.7e-9, 3.0 * params.threshold_current)],
        1e-11,
    )
    fields, _ = laser.integrate_ensemble(params, gs_drive, 1000, rng_seed=42, dt=2e-13)
    phases = np.mod(np.angle(fields), 2 * np.pi)
    counts, _ = np.histogram(phases, bins=16, range=(0.0, 2 * np.pi))
    chi2_p = float(stats.chisquare(counts).pvalue)

    ok = fp_err < 1e-3 and overshoot > 1.5 and plateau_std < 0.05 and chi2_p > 0.01
    _report(
        "criterion 8 (laser dynamics)",
        ok,
        f"fixed-point rel err = {fp_err:.1e} (< 1e-3), overshoot = {overshoot:.1f}x "
        f"(> 1.5x), locked phase std = {plateau_std:.2e} rad (< 0.05), "
        f"1000-seed phase uniformity chi2 p = {chi2_p:.3f} (> 0.01)",
    )


def test_criterion_9_monte_carlo_vs_analytic():
    det = DetectorParams()
    checks = []
    ok = True
    mzi_b = InterferometerParams(visibility=BB84_VISIBILITY)
    src_b = SourceConfig(mean_photon_number=0.25)
    for loss in (0.0, 10.0, 20.0):
        n_pairs = 1_000_000
        (res,) = simulate_links(
            protocols.BB84, n_pairs, src_b, np.array([ChannelParams(loss).transmittance]), mzi_b, det,
            rng_seed=7,
        )
        gain, qber = protocols.expected_gain_qber(
            protocols.BB84, 0.5, ChannelParams(loss), mzi_b, det
        )
        z_sift = (res.sifted_count - 0.5 * gain * n_pairs) / math.sqrt(0.5 * gain * n_pairs)
        z_qber = (res.qber - qber) / math.sqrt(qber * (1 - qber) / res.sifted_count)
        ok &= abs(z_sift) < 5 and abs(z_qber) < 5
        checks.append(f"bb84 {loss:.0f} dB: z_sift={z_sift:+.1f}, z_qber={z_qber:+.1f}")
    mzi_d = InterferometerParams(visibility=DPS_VISIBILITY)
    src_d = SourceConfig(mean_photon_number=0.2)
    for loss in (0.0, 10.0, 20.0):
        n_pulses = 1_000_000
        (res,) = simulate_links(
            protocols.DPS, n_pulses, src_d, np.array([ChannelParams(loss).transmittance]), mzi_d, det,
            rng_seed=3,
        )
        gain, qber = protocols.expected_gain_qber(
            protocols.DPS, 0.2, ChannelParams(loss), mzi_d, det
        )
        expect = gain * (n_pulses - 1)
        z_sift = (res.sifted_count - expect) / math.sqrt(expect)
        z_qber = (res.qber - qber) / math.sqrt(qber * (1 - qber) / res.sifted_count)
        ok &= abs(z_sift) < 5 and abs(z_qber) < 5
        checks.append(f"dps {loss:.0f} dB: z_sift={z_sift:+.1f}, z_qber={z_qber:+.1f}")
    _report("criterion 9 (Monte Carlo vs analytic)", ok, "; ".join(checks))
