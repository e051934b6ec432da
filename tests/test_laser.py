import hashlib
import math
import os
import subprocess
import sys
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import optimize

from chirplink import laser
from chirplink.errors import IntegrationDivergedError, PreconditionError

DT = 2e-13
SRC_DIR = Path(__file__).resolve().parent.parent / "src"


def per_sample(pump):
    """The holds of a pump with one row per sample: each row held once."""
    return np.ones(len(pump), dtype=int)


@pytest.fixture(scope="module")
def params():
    return laser.LaserParams()


@pytest.fixture(scope="module")
def quiet(params):
    return replace(params, spontaneous_fraction=0.0)


def fixed_point_oracle(p, drive_level):
    """Root-find the raw stationary equations, independent of the integrator
    and of the closed-form elimination in laser.stationary_state."""

    def residuals(x):
        n, s = x
        gc = p.gain_slope * (n - p.transparency_carrier) / (1.0 + p.gain_compression * s)
        return [
            gc - 1.0 / p.photon_lifetime,
            drive_level - n / p.carrier_lifetime - gc * s,
        ]

    sol = optimize.fsolve(residuals, [p.threshold_carrier, 1.0], full_output=True)
    assert sol[2] == 1
    return sol[0]


class TestIntegrate:
    def test_constant_drive_reaches_fixed_point(self, quiet):
        drive_level = 1.5 * quiet.threshold_current
        drive = laser.DriveWaveform.constant(drive_level, 10e-9, 1e-11)
        trace = laser.integrate(quiet, drive, dt=DT, initial_field=1e-3)
        n_ref, s_ref = fixed_point_oracle(quiet, drive_level)
        # frozen values from the oracle at the default parameters
        assert n_ref == pytest.approx(2019.6078431, rel=1e-6)
        assert s_ref == pytest.approx(1.9607843137, rel=1e-6)
        assert trace.carrier[-1] == pytest.approx(n_ref, rel=1e-3)
        assert trace.intensity[-1] == pytest.approx(s_ref, rel=1e-3)

    def test_below_threshold_fixed_point_is_dark(self, quiet):
        # [DERIVED] below threshold the lasing branch's photon number is
        # negative, so the fixed point is |E|^2 = 0 with dN/dt = J - N / tau_n
        # = 0, that is N = J tau_n
        drive_level = 0.5 * quiet.threshold_current
        n0, s0 = laser.stationary_state(quiet, drive_level)
        assert (n0, s0) == (drive_level * quiet.carrier_lifetime, 0.0)
        drive = laser.DriveWaveform.constant(drive_level, 1e-9, 1e-11)
        trace = laser.integrate(quiet, drive, dt=DT, initial_field=0j, initial_carrier=n0)
        assert not trace.intensity.any()
        assert trace.carrier == pytest.approx(np.full(len(trace), n0), rel=1e-13)

    def test_zero_drive_decays_to_spontaneous_floor(self, params):
        drive = laser.DriveWaveform.constant(0.0, 5e-9, 1e-11)
        trace = laser.integrate(params, drive, noise_seed=2, dt=DT, initial_field=0.5)
        _, s_lasing = laser.stationary_state(params, 1.5 * params.threshold_current)
        assert trace.intensity[-1] < 1e-3 * s_lasing

    def test_threshold_step_shows_relaxation_overshoot(self, quiet):
        drive = laser.DriveWaveform.from_segments(
            [(1e-9, 0.5 * quiet.threshold_current), (3e-9, 2.0 * quiet.threshold_current)],
            1e-11,
        )
        trace = laser.integrate(quiet, drive, dt=DT, initial_field=1e-3)
        assert trace.intensity.max() > 1.5 * trace.intensity[-1]

    def test_seed_determinism_bit_identical(self, params):
        drive = laser.DriveWaveform.constant(1.5 * params.threshold_current, 2e-9, 1e-11)
        a = laser.integrate(params, drive, noise_seed=11, dt=DT)
        b = laser.integrate(params, drive, noise_seed=11, dt=DT)
        assert np.array_equal(a.field, b.field)
        assert np.array_equal(a.carrier, b.carrier)
        c = laser.integrate(params, drive, noise_seed=12, dt=DT)
        assert not np.array_equal(a.field, c.field)

    def test_intensity_nonnegative(self, params):
        drive = laser.DriveWaveform.from_segments(
            [(0.5e-9, 0.0), (1e-9, 3.0 * params.threshold_current)], 1e-11
        )
        for seed in range(3):
            trace = laser.integrate(params, drive, noise_seed=seed, dt=DT)
            assert np.all(trace.intensity >= 0.0)

    def test_convergence_order_at_least_two(self, quiet):
        drive = laser.DriveWaveform.from_segments(
            [(0.5e-9, 0.8 * quiet.threshold_current), (1.5e-9, 2.0 * quiet.threshold_current)],
            1e-11,
        )

        def final_state(dt):
            t = laser.integrate(quiet, drive, dt=dt, initial_field=1e-3)
            return np.array([t.field[-1].real, t.field[-1].imag, t.carrier[-1]])

        err_coarse = np.linalg.norm(final_state(2e-13) - final_state(1e-13))
        err_fine = np.linalg.norm(final_state(1e-13) - final_state(0.5e-13))
        assert err_coarse / err_fine >= 3.5

    def test_dt_too_large_rejected(self, params):
        drive = laser.DriveWaveform.constant(params.threshold_current, 1e-9, 1e-11)
        with pytest.raises(PreconditionError):
            laser.integrate(params, drive, dt=params.photon_lifetime)

    @pytest.mark.parametrize("dt", [0.0, -1e-13, math.nan])
    def test_dt_not_positive_rejected(self, params, dt):
        drive = laser.DriveWaveform.constant(params.threshold_current, 1e-9, 1e-11)
        with pytest.raises(PreconditionError):
            laser.integrate(params, drive, dt=dt)
        with pytest.raises(PreconditionError):
            laser.integrate_ensemble(params, drive, 2, dt=dt)

    def test_divergence_reports_sample_index(self, params):
        drive = laser.DriveWaveform.constant(1e30, 1e-10, 1e-12)
        with pytest.raises(IntegrationDivergedError) as exc:
            laser.integrate(params, drive, dt=1e-13, initial_field=1e-3)
        assert exc.value.step_index > 0


def identity_residual(p, segments, dt):
    """Net phase of a noiseless run from the bias's stationary state, and its
    miss from the phase identity, with the integral by the trapezoid rule."""
    drive = laser.DriveWaveform.from_segments(segments, dt)
    n0, s0 = laser.stationary_state(p, 2.0 * p.threshold_current)
    trace = laser.integrate(p, drive, dt=dt, initial_field=complex(math.sqrt(s0)), initial_carrier=n0)
    s, n = trace.intensity, trace.carrier
    rate = np.interp(trace.times, drive.times, drive.current) - n / p.carrier_lifetime
    integral = float(np.sum(rate[1:] + rate[:-1]) / 2.0 * dt)
    alpha, eps = p.linewidth_enhancement, p.gain_compression
    identity = alpha / 2.0 * math.log(s[-1] / s[0]) + alpha * eps / 2.0 * (integral - (n[-1] - n[0]))
    net = float(trace.phase[-1] - trace.phase[0])
    return net, net - identity


class TestPhaseIdentity:
    """[DERIVED] Without noise or injection, d ln S/dt = Gc - 1/tau_p and
    dphi/dt = (alpha/2)(Gu - 1/tau_p) with Gu = Gc (1 + eps S), and the
    carrier equation gives Gc S = J - N/tau_n - dN/dt.  So over [0, T]

        phi(T) - phi(0) = (alpha/2) ln(S(T)/S(0))
                          + (alpha eps/2) [int (J - N/tau_n) dt - (N(T) - N(0))],

    the integral of the transient and adiabatic chirp (Koch & Bowers,
    Electron. Lett. 20, 1038 (1984)).  The Heun steps meet it to second
    order in dt."""

    @staticmethod
    def halfwave_step(p, t_m):
        # the drive step whose adiabatic chirp accrues pi over t_m
        eps = p.gain_compression
        return 2.0 * math.pi * (1.0 + eps / (p.gain_slope * p.carrier_lifetime)) / (
            p.linewidth_enhancement * eps * t_m
        )

    @pytest.mark.parametrize("drive", ["step", "four segments", "sub-threshold", "+V_pi", "-V_pi"])
    def test_heun_meets_identity_to_second_order(self, quiet, drive):
        th = quiet.threshold_current
        bias = 2.0 * th
        level = {"+V_pi": 1.0, "-V_pi": -1.0}.get(drive, 0.0) * self.halfwave_step(quiet, 250e-12)
        segments = {
            "step": [(0.2e-9, bias), (2e-9, 2.5 * th)],
            "four segments": [(0.5e-9, bias), (1e-9, 3.5 * th), (0.5e-9, 0.8 * th), (1e-9, bias)],
            "sub-threshold": [(0.5e-9, 0.8 * th), (0.5e-9, 0.5 * th)],
        }.get(drive, [(0.2e-9, bias), (250e-12, bias + level), (1.5e-9, bias)])
        (net, coarse), (_, mid), (_, fine) = (
            identity_residual(quiet, segments, dt) for dt in (2e-13, 1e-13, 0.5e-13)
        )
        assert abs(net) > 50.0  # tens of wraps of the phase
        assert 3.5 < coarse / mid < 4.5 and 3.5 < mid / fine < 4.5
        assert abs(fine) < 1e-4 * abs(net)


class TestFMResponse:
    """[DERIVED] The small-signal FM response (Koch & Bowers, Electron. Lett.
    20, 1038 (1984)).  About the stationary state, x = (dS, dN) follows
    dx/dt = A x + (0, dJ), where A is the Jacobian of
    ((Gc - 1/tau_p) S, J - N/tau_n - Gc S) in (S, N), and the chirp is
    dphi/dt = (alpha/2) g dN.  So a drive dJ = Re(D e^{2 pi i f t}) gives
    the chirp Re(H(f) D e^{2 pi i f t}), with

        H(f) = (alpha g / 2) [(2 pi i f - A)^{-1}]_{N,N},

    A's eigenvalues are the relaxation oscillation, and H(0) t_m is the net
    phase of a settled drive step of length t_m per unit of step."""

    FREQS = [0.1e9, 0.5e9, 1e9, 2e9, 5e9, 10e9]
    BIASES = [1.5, 2.0]  # times J_th
    DRIVE = 1e-3  # the sinusoid's amplitude, times the bias

    @staticmethod
    def jacobian(p, bias):
        """A at the fixed point of the raw equations, from LaserParams' fields."""
        n, s = fixed_point_oracle(p, bias * p.threshold_current)
        g, eps = p.gain_slope, p.gain_compression
        d = 1.0 + eps * s
        gc = g * (n - p.transparency_carrier) / d
        dgc_ds, dgc_dn = -eps * gc / d, g / d
        return np.array([
            [gc - 1.0 / p.photon_lifetime + s * dgc_ds, s * dgc_dn],
            [-(gc + s * dgc_ds), -1.0 / p.carrier_lifetime - s * dgc_dn],
        ])

    @staticmethod
    def transfer(p, a, f):
        resolvent = np.linalg.inv(2j * math.pi * f * np.eye(2) - a)
        return p.linewidth_enhancement * p.gain_slope / 2.0 * resolvent[1, 1]

    def response(self, p, dt):
        """{(bias, f): the chirp's complex amplitude over the drive's}, fitted
        over whole periods after 2 ns from the stationary state: one kernel
        call for 0.1 GHz, fitted over its 10 ns period, and one for the rest,
        over 2 ns."""
        out = {}
        for freqs, fit in (([0.1e9], 10e-9), (self.FREQS[1:], 2e-9)):
            k0, n_fit = round(2e-9 / dt), round(fit / dt)
            t = dt * np.arange(k0 + n_fit + 1)
            runs = [(b, f) for b in self.BIASES for f in freqs]
            biases = np.array([b * p.threshold_current for b, _ in runs])
            pump = biases + self.DRIVE * biases * np.sin(2 * math.pi * np.outer(t, [f for _, f in runs]))
            states = np.array([laser.stationary_state(p, bias) for bias in biases])
            field, _, diverged, _ = laser.integrate_pumps(
                p, pump, dt, np.sqrt(states[:, 1]) + 0j, states[:, 0], holds=per_sample(pump)
            )
            assert not diverged.any()
            # each step's mean chirp, from the field's turn over the step; a
            # step's mean of a sinusoid at f is sinc(f dt) times its midpoint value
            chirp = np.angle(field[k0 + 1 :] * field[k0:-1].conj()) / dt
            mid = t[k0:-1] + dt / 2.0
            for j, ((b, f), bias) in enumerate(zip(runs, biases)):
                amplitude = 2.0 / n_fit * np.sum(chirp[:, j] * np.exp(-2j * math.pi * f * mid)) / np.sinc(f * dt)
                out[b, f] = amplitude / (-1j * self.DRIVE * bias)  # d sin(w t) = Re(-i d e^{i w t})
        return out

    def test_chirp_follows_the_transfer_function(self, quiet):
        # Tolerance: 1e-4 of |H| at dt = 2e-13, on amplitude and phase at
        # once.  The discretisation part dominates it (up to 7.8e-5 here, at
        # 5 GHz and 2 J_th); the drive's nonlinearity and the 2 ns of
        # transient leave ~1e-6.  So the misses at dt, dt/2 and dt/4 differ
        # by about 4x from one halving to the next.
        coarse, mid, fine = (self.response(quiet, dt) for dt in (2e-13, 1e-13, 0.5e-13))
        for b in self.BIASES:
            a = self.jacobian(quiet, b)
            for f in self.FREQS:
                h = self.transfer(quiet, a, f)
                assert abs(coarse[b, f] / h - 1.0) < 1e-4, (b, f)
                assert 3.5 < abs(coarse[b, f] - mid[b, f]) / abs(mid[b, f] - fine[b, f]) < 4.5, (b, f)

    def test_zero_frequency_is_the_drive_calibration(self, quiet, kernel_pumps):
        from chirplink.source import SourceConfig

        cfg = SourceConfig()
        laser.physical_phase(cfg, [cfg.halfwave_voltage])
        ((pump, _),) = kernel_pumps
        # dJ(V_pi), the level less the bias: within 6e-16 of the closed form, relative
        per_unit_drive = math.pi / (pump[1, 1] - pump[1, 0])
        t_m = round(cfg.perturbation_duration / DT) * DT  # the step as the physical path integrates it
        for b in self.BIASES:
            h0 = self.transfer(quiet, self.jacobian(quiet, b), 0.0)
            assert h0.imag == 0.0
            assert h0.real * t_m == pytest.approx(per_unit_drive, rel=1e-12)

    @pytest.mark.parametrize(
        "bias, frequency, damping", [(2.0, "4.62 GHz", "10.9 /ns"), (1.5, "3.40 GHz", "5.79 /ns")]
    )
    def test_docstring_states_the_relaxation_oscillation(self, quiet, bias, frequency, damping):
        # A's eigenvalues are -damping +- 2 pi i f_R
        eigenvalue = max(np.linalg.eigvals(self.jacobian(quiet, bias)), key=lambda z: z.imag)
        assert f"{eigenvalue.imag / (2.0 * math.pi) / 1e9:.2f} GHz" == frequency
        assert f"{-eigenvalue.real / 1e9:.3g} /ns" == damping
        doc = " ".join(laser.__doc__.split())
        assert frequency in doc and damping in doc


@pytest.fixture(scope="module")
def steady():
    quiet = replace(laser.LaserParams(), spontaneous_fraction=0.0)
    bias = 2.0 * quiet.threshold_current
    drive = laser.DriveWaveform.constant(bias, 4e-9, 1e-11)
    n0, s0 = laser.stationary_state(quiet, bias)
    return laser.integrate(
        quiet, drive, dt=DT, initial_field=complex(math.sqrt(s0)), initial_carrier=n0
    )


class TestLockedPhaseOffset:
    def test_identical_traces_give_zero(self, steady):
        assert laser.locked_phase_offset(steady, steady, (1e-9, 3e-9)) == pytest.approx(0.0, abs=1e-12)

    def test_constant_offset_recovered(self, steady):
        shifted = laser.FieldTrace(steady.times, steady.field * np.exp(1j * np.pi / 2), steady.carrier)
        off = laser.locked_phase_offset(steady, shifted, (1e-9, 3e-9))
        assert off == pytest.approx(np.pi / 2, abs=1e-9)

    def test_empty_window_rejected(self, steady):
        with pytest.raises(PreconditionError):
            laser.locked_phase_offset(steady, steady, (2e-9, 1e-9))

    @staticmethod
    def hand_trace(field):
        """A FieldTrace of `field` sampled every 1 ns from 0."""
        field = np.asarray(field, dtype=complex)
        return laser.FieldTrace(1e-9 * np.arange(len(field)), field, np.zeros(len(field)))

    def test_window_between_samples_rejected(self):
        lit = self.hand_trace([1.0, 1.0, 1.0])
        with pytest.raises(PreconditionError, match="window contains no samples"):
            laser.locked_phase_offset(lit, lit, (0.2e-9, 0.8e-9))

    def test_offset_of_minus_pi_wraps_to_pi(self):
        # the slave at (-1, -0) has angle exactly -pi, so the circular mean's
        # phase is -pi, outside (-pi, pi]
        master, slave = self.hand_trace([1.0] * 3), self.hand_trace([complex(-1.0, -0.0)] * 3)
        assert laser.locked_phase_offset(master, slave, (0.0, 2e-9)) == math.pi

    @pytest.mark.parametrize("dark_one", ["slave", "master"])
    def test_extinguished_field_in_window_is_undefined(self, dark_one):
        # at 2 ns the intensity is 1e-4 of the peak, under the floor of 1e-3
        lit, dark = self.hand_trace([1.0] * 5), self.hand_trace([1.0, 1.0, 1e-2, 1.0, 1.0])
        master, slave = (lit, dark) if dark_one == "slave" else (dark, lit)
        with pytest.raises(PreconditionError, match=f"{dark_one} extinguished inside window"):
            laser.locked_phase_offset(master, slave, (1e-9, 3e-9))
        # a window that leaves out the dip reads a defined phase
        assert laser.locked_phase_offset(master, slave, (3e-9, 4e-9)) == 0.0

    def test_injection_locked_offset_plateau(self, steady):
        quiet = replace(
            laser.LaserParams(), spontaneous_fraction=0.0, injection_coupling=5e10
        )
        bias = 2.0 * quiet.threshold_current
        drive = laser.DriveWaveform.constant(bias, 4e-9, 1e-11)
        n0, s0 = laser.stationary_state(quiet, bias)
        slave = laser.integrate(
            quiet,
            drive,
            injection=steady,
            dt=DT,
            initial_field=complex(math.sqrt(s0)) * 1j,
            initial_carrier=n0,
        )
        sel = slave.times >= 2e-9
        diff = slave.phase[sel] - np.interp(slave.times[sel], steady.times, steady.phase)
        assert np.std(diff) < 0.05
        off = laser.locked_phase_offset(steady, slave, (2e-9, 4e-9))
        assert abs(off) < np.pi


def sha256(array):
    return hashlib.sha256(array.tobytes()).hexdigest()


class TestBitPins:
    """Frozen digests of the traces of scripts/laser_traces.py (seed 12345)
    pin the Langevin-noise and injection branches of `integrate` bit for bit;
    oracle_integrate gives the same digests."""

    def test_gain_switched_noisy_trace(self, params):
        th = params.threshold_current
        drive = laser.DriveWaveform.from_segments([(0.5e-9, 0.2 * th), (3e-9, 3.0 * th)], 1e-11)
        trace = laser.integrate(params, drive, noise_seed=12345, dt=DT)
        assert sha256(trace.field) == "055f0e9a74ee74ae1cf18311ae4201db40e49c16afe2e9d5002752ffcd9cb47d"
        assert sha256(trace.carrier) == "c4a61c956b8854a03f8080a5bae8abfed82012d97eed1960e5c0db0f254c512a"

    def test_injection_locked_noisy_slave(self, params, steady):
        assert sha256(steady.field) == "f10db547000e53439842237fb428899e29e6fad6fec456affb2453de7654edf7"
        n0, s0 = laser.stationary_state(params, 2.0 * params.threshold_current)
        drive = laser.DriveWaveform.constant(2.0 * params.threshold_current, 4e-9, 1e-11)
        slave = laser.integrate(
            replace(params, injection_coupling=5e10),
            drive,
            injection=steady,
            noise_seed=12346,
            dt=DT,
            initial_field=1j * complex(math.sqrt(s0)),
            initial_carrier=n0,
        )
        assert sha256(slave.field) == "7b8b39442f000bf8d57e1478f99eedf769f5a3553529d917d130b38ec97de538"
        assert sha256(slave.carrier) == "976f46e6ee2458f01d78934e414b9c8b6b8195e61e4bc4649cf7f07b878f22c7"


def noise_words(rng, n_steps, n_runs):
    """The words of Langevin bits integrate_pumps takes, as laser._run draws them from `rng`."""
    return rng.bit_generator.random_raw(-(-2 * n_steps * n_runs // 64))


def increments(words, n_steps, n_runs):
    """The (n_steps, 2, n_runs) increments of packed noise words: bit
    (2 k + c) n_runs + j, bit i being bit i % 64 of word i // 64, is
    [k, c, j], +1.0 where it is set and -1.0 where clear."""
    bits = (words[:, None] >> np.arange(64, dtype=np.uint64)) & np.uint64(1)
    return np.where(bits.ravel()[: 2 * n_steps * n_runs] == 1, 1.0, -1.0).reshape(n_steps, 2, n_runs)


def pack(xi):
    """The noise words of (n_steps, 2, n_runs) increments of +-1.0: the inverse of increments()."""
    bits = np.append(np.ravel(xi) > 0, np.zeros(-np.size(xi) % 64, bool)).reshape(-1, 64)
    return (bits.astype(np.uint64) << np.arange(64, dtype=np.uint64)).sum(axis=1, dtype=np.uint64)


def seeded_increments(seed, n_steps, n_runs=1):
    """The increments of integrate_ensemble(rng_seed=seed), or integrate(noise_seed=seed)'s for one run."""
    return increments(noise_words(np.random.default_rng(seed), n_steps, n_runs), n_steps, n_runs)


def oracle_integrate(params, drive, injection=None, noise_seed=0, dt=DT,
                     initial_field=1e-6 + 0j, initial_carrier=0.0, xi=None):
    """The stochastic Heun step of the rate equations in laser's docstring,
    in real components, step by step.

    The scheme is Kloeden & Platen's (Numerical Solution of SDEs, ch. 14):
    with cr = (Gc - 1/tau_p) / 2 and ci = (alpha / 2) (Gu - 1/tau_p), the
    drift is dE = (cr Re E - ci Im E, cr Im E + ci Re E) + kappa E_inj and
    dN = J - N (1/tau_n) - Gc |E|^2; the predictor is E + dE1 dt, the
    corrector E + (dE1 + dE2) (dt/2), and the Langevin kick, amplitude
    sqrt(max(N, 0) c) with c = beta (1/tau_n) (dt/2), is added to both
    only where beta > 0.  The compiled kernel must give the same bits.
    `xi`, an (n_steps, 2) array of increments of +-1.0, replaces the
    increments drawn from `noise_seed`.
    """
    t0 = float(drive.times[0])
    n_steps = int(math.floor(drive.duration / dt + 1e-9))
    times = t0 + dt * np.arange(n_steps + 1)
    pump = np.interp(times, drive.times, drive.current).tolist()

    kappa = params.injection_coupling
    inj = None
    if injection is not None and kappa > 0.0:
        inj = np.interp(times, injection.times, injection.field.real) + 1j * np.interp(
            times, injection.times, injection.field.imag
        )
        inj = inj * np.exp(1j * 2.0 * math.pi * params.detuning * (times - t0))
        inj_re, inj_im = inj.real.tolist(), inj.imag.tolist()

    inv_tau_n = 1.0 / params.carrier_lifetime
    inv_tau_p = 1.0 / params.photon_lifetime
    g = params.gain_slope
    n_tr = params.transparency_carrier
    eps = params.gain_compression
    half_alpha = 0.5 * params.linewidth_enhancement
    beta = params.spontaneous_fraction
    h = 0.5 * dt
    c = beta * inv_tau_n * h
    if beta > 0.0 and xi is None:
        xi = seeded_increments(noise_seed, n_steps)[:, :, 0]
    if beta > 0.0:
        xi_re, xi_im = xi[:, 0].tolist(), xi[:, 1].tolist()

    def rates(er, ei, n, k):
        s = er * er + ei * ei
        gu = g * (n - n_tr)
        gc = gu / (1.0 + eps * s)
        cr = 0.5 * (gc - inv_tau_p)
        ci = half_alpha * (gu - inv_tau_p)
        der = cr * er - ci * ei
        dei = cr * ei + ci * er
        if inj is not None:
            der = der + kappa * inj_re[k]
            dei = dei + kappa * inj_im[k]
        return der, dei, pump[k] - n * inv_tau_n - gc * s

    er, ei = complex(initial_field).real, complex(initial_field).imag
    n = float(initial_carrier)
    field = [complex(initial_field)] * (n_steps + 1)
    carrier = [n] * (n_steps + 1)
    for k in range(n_steps):
        der1, dei1, dn1 = rates(er, ei, n, k)
        epr = er + der1 * dt
        epi = ei + dei1 * dt
        np_ = n + dn1 * dt
        if beta > 0.0:
            amp = math.sqrt(max(n, 0.0) * c)
            noise_re, noise_im = amp * xi_re[k], amp * xi_im[k]
            epr, epi = epr + noise_re, epi + noise_im

        der2, dei2, dn2 = rates(epr, epi, np_, k + 1)
        er = er + (der1 + der2) * h
        ei = ei + (dei1 + dei2) * h
        n = n + (dn1 + dn2) * h
        if beta > 0.0:
            er, ei = er + noise_re, ei + noise_im

        s_new = er * er + ei * ei
        if not (math.isfinite(s_new) and math.isfinite(n)) or s_new > 1e12:
            raise IntegrationDivergedError(k + 1, complex(er, ei), n)
        field[k + 1] = complex(er, ei)
        carrier[k + 1] = n
    return laser.FieldTrace(times, np.array(field), np.array(carrier))


def assert_same_bits(trace, oracle):
    for name in ("times", "field", "carrier", "phase"):
        assert getattr(trace, name).tobytes() == getattr(oracle, name).tobytes(), name


class TestKernelMatchesOracle:
    """The compiled kernel and the Python step give the same bits."""

    def test_noisy_gain_switched(self, params):
        th = params.threshold_current
        drive = laser.DriveWaveform.from_segments([(0.3e-9, 0.2 * th), (1.2e-9, 3.0 * th)], 1e-11)
        for seed in (1, 2):
            assert_same_bits(
                laser.integrate(params, drive, noise_seed=seed),
                oracle_integrate(params, drive, noise_seed=seed),
            )

    @pytest.mark.parametrize("detuning", [0.0, 1.5e9, -4e9])
    def test_noisy_injection_locked(self, params, steady, detuning):
        slave = replace(params, injection_coupling=5e10, detuning=detuning)
        n0, s0 = laser.stationary_state(slave, 2.0 * slave.threshold_current)
        drive = laser.DriveWaveform.constant(2.0 * slave.threshold_current, 1.5e-9, 1e-11)
        kwargs = dict(injection=steady, noise_seed=7, initial_field=1j * math.sqrt(s0), initial_carrier=n0)
        assert_same_bits(laser.integrate(slave, drive, **kwargs), oracle_integrate(slave, drive, **kwargs))

    def test_drive_step(self, quiet):
        bias = 2.0 * quiet.threshold_current
        n0, s0 = laser.stationary_state(quiet, bias)
        drive = laser.DriveWaveform.from_segments([(0.2e-9, bias), (250e-12, 1.4 * bias), (1e-9, bias)], 1e-11)
        kwargs = dict(initial_field=complex(math.sqrt(s0)), initial_carrier=n0)
        assert_same_bits(laser.integrate(quiet, drive, **kwargs), oracle_integrate(quiet, drive, **kwargs))

    @pytest.mark.parametrize("level, initial_field", [(1e30, 1e-3), (0.0, complex(math.inf, 0.0))])
    def test_divergence_message(self, params, level, initial_field):
        drive = laser.DriveWaveform(np.arange(101) * 1e-12, np.full(101, level))
        with pytest.raises(IntegrationDivergedError) as kernel:
            laser.integrate(params, drive, dt=1e-13, initial_field=initial_field)
        with pytest.raises(IntegrationDivergedError) as oracle:
            oracle_integrate(params, drive, dt=1e-13, initial_field=initial_field)
        assert str(kernel.value) == str(oracle.value)
        assert kernel.value.step_index == oracle.value.step_index > 0

    def test_noisy_ensemble_run(self, params):
        th = params.threshold_current
        drive = laser.DriveWaveform.from_segments([(0.3e-9, 0.2 * th), (0.4e-9, 3.0 * th)], 1e-11)
        n_runs = 5
        fields, carriers = laser.integrate_ensemble(params, drive, n_runs, rng_seed=3)
        n_steps = int(math.floor(drive.duration / DT + 1e-9))
        xi = seeded_increments(3, n_steps, n_runs)
        for run in (0, 3):
            trace = oracle_integrate(params, drive, initial_field=0j, xi=xi[:, :, run])
            assert fields[run].tobytes() == trace.field[-1].tobytes()
            assert carriers[run].tobytes() == trace.carrier[-1].tobytes()

    @pytest.mark.parametrize("n_runs", [5, 24, 30])  # a short block of 24 lanes, a full one, both
    def test_ensemble_runs_equal_one_run_calls(self, params, n_runs):
        # run j of an ensemble is a one-run call fed run j's increments: no
        # bit depends on the block of lanes the kernel steps it in
        th = params.threshold_current
        drive = laser.DriveWaveform.from_segments([(0.3e-9, 0.2 * th), (0.1e-9, 3.0 * th)], 1e-11)
        fields, carriers = laser.integrate_ensemble(params, drive, n_runs, rng_seed=3)
        n_steps = int(math.floor(drive.duration / DT + 1e-9))
        pump = np.interp(DT * np.arange(n_steps + 1), drive.times, drive.current)[:, None]
        xi = seeded_increments(3, n_steps, n_runs)
        for j in range(n_runs):
            alone = laser.integrate_pumps(
                params, pump, DT, 0j, 0.0, pack(xi[:, :, j : j + 1]), trace=False, holds=per_sample(pump)
            )
            assert [a.tobytes() for a in alone[:3]] == [fields[j : j + 1].tobytes(), carriers[j : j + 1].tobytes(),
                                                         np.zeros(1, alone[2].dtype).tobytes()]

    def test_ensemble_divergence_names_earliest_run(self, params):
        # at this carrier the first increments decide the step at which a run
        # crosses the intensity cap: run 0's (-1, -1) all but cancels this
        # field, so it crosses it a step later than another run
        drive = laser.DriveWaveform(np.arange(11) * 1e-13, np.zeros(11))
        kwargs = dict(dt=1e-13, initial_field=6e-4 - 3e-4j, initial_carrier=4e6)
        xi = seeded_increments(5, 10, 6)
        alone = []
        for run in range(6):
            with pytest.raises(IntegrationDivergedError) as exc:
                oracle_integrate(params, drive, xi=xi[:, :, run], **kwargs)
            alone.append(exc.value)
        first = min(range(6), key=lambda run: alone[run].step_index)  # lowest run on a tie
        assert alone[0].step_index > alone[first].step_index
        with pytest.raises(IntegrationDivergedError) as batch:
            laser.integrate_ensemble(params, drive, 6, rng_seed=5, **kwargs)
        assert batch.value.run_index == first
        assert str(batch.value) == str(alone[first]).replace(":", f" in run {first}:", 1)


WIDTHS = [1, 3, 4, 5, 8, 13]  # one run, the vector body alone and with a scalar epilogue
# the kernel steps runs in blocks of 24 lanes, a last block of at most 8 in
# 8 lanes and a lone run alone: widths about each edge
BLOCK_WIDTHS = [1, 7, 8, 9, 23, 24, 25, 31, 48, 49]


def unwrap_turns(field):
    """np.unwrap's signed count of its 2 pi corrections, down each column of `field`."""
    angle = np.angle(field)
    return np.rint((np.unwrap(angle, axis=0) - angle)[-1] / (2.0 * math.pi)).astype(int)


def batch_inputs(params, width, runaway=None):
    """Drives sampled at DT, one per run, each with its own level, initial
    field and noise seed; run `runaway` steps to a pump of 1e30 mid-window."""
    th = params.threshold_current
    drives = []
    for j in range(width):
        level = 1e30 if j == runaway else (1.0 + 0.3 * j) * th
        drives.append(laser.DriveWaveform.from_segments([(0.1e-9, 0.2 * th), (0.2e-9, level)], DT))
    initial = [complex(1e-3 * (j + 1), -1e-4 * j) for j in range(width)]
    return drives, initial, [100 + j for j in range(width)]


class TestBatchedKernel:
    """integrate_pumps steps its runs together, each as it steps alone."""

    @pytest.mark.parametrize("width", WIDTHS)
    @pytest.mark.parametrize("noisy", [False, True])
    @pytest.mark.parametrize("injected", [False, True])
    def test_columns_equal_integrate_and_oracle(self, params, steady, width, noisy, injected):
        p = replace(params, spontaneous_fraction=params.spontaneous_fraction if noisy else 0.0)
        if injected:
            p = replace(p, injection_coupling=5e10, detuning=1.5e9)
        drives, initial, seeds = batch_inputs(p, width)
        n_steps = len(drives[0].times) - 1
        times = DT * np.arange(n_steps + 1)
        noise = inj = injection = None
        if noisy:
            noise = pack(np.concatenate([seeded_increments(seed, n_steps) for seed in seeds], -1))
        if injected:  # the samples integrate() takes from the master's trace
            injection = steady
            inj = np.interp(times, steady.times, steady.field.real) + 1j * np.interp(
                times, steady.times, steady.field.imag
            )
            inj = np.repeat((inj * np.exp(1j * 2.0 * math.pi * p.detuning * times))[:, None], width, 1)
        pump = np.column_stack([drive.current for drive in drives])
        field, carrier, diverged, _ = laser.integrate_pumps(
            p, pump, DT, np.array(initial), 900.0, noise, inj, holds=per_sample(pump)
        )
        assert not diverged.any()
        for j, drive in enumerate(drives):
            kwargs = dict(injection=injection, noise_seed=seeds[j], dt=DT, initial_field=initial[j],
                          initial_carrier=900.0)
            alone = laser.integrate(p, drive, **kwargs)
            column = laser.FieldTrace(times, field[:, j].copy(), carrier[:, j].copy())
            assert_same_bits(column, alone)
            assert_same_bits(column, oracle_integrate(p, drive, **kwargs))
        # without the traces, the last samples
        last_field, last_carrier, _, _ = laser.integrate_pumps(
            p, pump, DT, np.array(initial), 900.0, noise, inj, trace=False, holds=per_sample(pump)
        )
        assert last_field.tobytes() == field[-1].tobytes()
        assert last_carrier.tobytes() == carrier[-1].tobytes()

    @pytest.mark.parametrize("width", WIDTHS)
    def test_one_run_diverges_mid_window(self, params, width):
        runaway = width // 2
        drives, initial, seeds = batch_inputs(params, width, runaway)
        n_steps = len(drives[0].times) - 1
        noise = pack(np.concatenate([seeded_increments(seed, n_steps) for seed in seeds], -1))
        pump = np.column_stack([drive.current for drive in drives])
        field, carrier, diverged, _ = laser.integrate_pumps(
            params, pump, DT, np.array(initial), 900.0, noise, holds=per_sample(pump)
        )
        last_field, last_carrier, _, _ = laser.integrate_pumps(
            params, pump, DT, np.array(initial), 900.0, noise, trace=False, holds=per_sample(pump)
        )
        for j, drive in enumerate(drives):
            kwargs = dict(noise_seed=seeds[j], dt=DT, initial_field=initial[j], initial_carrier=900.0)
            if j != runaway:
                assert diverged[j] == 0
                alone = laser.integrate(params, drive, **kwargs)
                assert field[:, j].tobytes() == alone.field.tobytes()
                assert carrier[:, j].tobytes() == alone.carrier.tobytes()
                continue
            with pytest.raises(IntegrationDivergedError) as alone:
                laser.integrate(params, drive, **kwargs)
            with pytest.raises(IntegrationDivergedError) as oracle:
                oracle_integrate(params, drive, **kwargs)
            k = diverged[j]
            assert k == alone.value.step_index == oracle.value.step_index > 500
            assert k < n_steps  # mid-window
            error = IntegrationDivergedError(k, field[k, j], carrier[k, j])
            assert str(error) == str(alone.value) == str(oracle.value)
            # the run keeps the state it diverged at, to the last sample
            assert (field[k:, j] == field[k, j]).all() and (carrier[k:, j] == carrier[k, j]).all()
            assert last_field[-1, j] == field[k, j] and last_carrier[-1, j] == carrier[k, j]

    @pytest.mark.parametrize("width", [*range(1, 10), *BLOCK_WIDTHS[4:]])
    @pytest.mark.parametrize("copy", ["plain", "noisy", "injected"])
    def test_flips_are_the_sign_changes_of_the_trace(self, params, width, copy):
        p = replace(params, spontaneous_fraction=params.spontaneous_fraction if copy == "noisy" else 0.0)
        if copy == "injected":
            p = replace(p, injection_coupling=5e10)
        th, n_steps = p.threshold_current, 3000
        # run 0 has no pump and no carrier, so its phase spins fast; the
        # last of three or more runs steps to a pump of 1e30 and diverges
        levels = [0.0] + [(0.5 + 0.3 * j) * th for j in range(1, width)]
        if width >= 3:
            levels[-1] = 1e30
        pump = np.full((n_steps + 1, width), 0.2 * th)
        pump[500:] = levels
        initial = np.array([complex(1e-3 * (j + 1), -1e-4 * j) for j in range(width)])
        carrier = np.where(np.arange(width) == 0, 0.0, 900.0)
        rng = np.random.default_rng(width)
        noise = noise_words(rng, n_steps, width) if copy == "noisy" else None
        # an injection that turns 0.3 rad per step, so that it spins run 0 too
        inj = np.repeat(0.3 * np.exp(0.3j * np.arange(n_steps + 1))[:, None], width, 1)
        inj = inj if copy == "injected" else None
        # each run's turns, with the trace and without, are np.unwrap's
        # corrections of the traced angles, counted at the sign changes of Im E
        field, _, diverged, traced_turns = laser.integrate_pumps(
            p, pump, DT, initial, carrier, noise, inj, holds=per_sample(pump)
        )
        last_field, _, last_diverged, turns = laser.integrate_pumps(
            p, pump, DT, initial, carrier, noise, inj, trace=False, holds=per_sample(pump)
        )
        assert last_field.tobytes() == field[-1].tobytes()
        assert last_diverged.tobytes() == diverged.tobytes()
        assert np.array_equal(turns, unwrap_turns(field)) and np.array_equal(traced_turns, turns)
        assert abs(turns[0]) > 100
        if width >= 3:
            d = diverged[-1]
            assert 500 < d < n_steps  # mid-call
            assert turns[-1] == unwrap_turns(field[: d + 1, -1:])[0]  # no turn after its divergence sample
            assert not diverged[:-1].any()
        else:
            assert not diverged.any()

    def test_turn_of_a_signed_zero_on_the_negative_real_axis(self, quiet):
        # without alpha E stays on the real axis, and the first step takes
        # its Im from -0 to +0: at Re < 0 its angle goes from -pi to pi, which
        # np.unwrap corrects by -2 pi; at Re > 0 from -0 to 0, which it does not
        p = replace(quiet, linewidth_enhancement=0.0)
        pump = np.full((200, 2), p.threshold_current)
        initial = np.array([complex(-1e-3, -0.0), complex(1e-3, -0.0)])
        field, _, _, turns = laser.integrate_pumps(p, pump, DT, initial, 900.0, holds=per_sample(pump))
        assert (field[1:].imag == 0.0).all() and not np.signbit(field[1:].imag).any()
        assert turns.tolist() == unwrap_turns(field).tolist() == [-1, 0]

    @pytest.mark.parametrize("width", BLOCK_WIDTHS)
    @pytest.mark.parametrize("copy", ["plain", "noisy", "injected"])
    def test_runs_equal_one_run_calls(self, params, width, copy):
        # each run of a call of several blocks, one of them diverging, as a call of it alone
        p = replace(params, spontaneous_fraction=params.spontaneous_fraction if copy == "noisy" else 0.0)
        p = replace(p, injection_coupling=5e10 if copy == "injected" else 0.0)
        th, n_steps = p.threshold_current, 400
        levels = [0.0] + [(0.5 + 0.1 * j) * th for j in range(1, width)]
        if width >= 3:
            levels[width // 2] = 1e30
        pump = np.full((n_steps + 1, width), 0.2 * th)
        pump[100:] = levels
        initial = np.array([complex(1e-3 * (j + 1), -1e-4 * j) for j in range(width)])
        carrier = np.where(np.arange(width) == 0, 0.0, 900.0)
        rng = np.random.default_rng(width)
        noise = noise_words(rng, n_steps, width) if copy == "noisy" else None
        inj = 0.3 * np.exp(1j * rng.uniform(0.0, 2 * math.pi, (n_steps + 1, width))) if copy == "injected" else None
        field, last_carrier, diverged, turns = laser.integrate_pumps(
            p, pump, DT, initial, carrier, noise, inj, trace=False, holds=per_sample(pump)
        )
        assert (diverged > 0).sum() == (width >= 3)
        for j in range(width):
            alone = laser.integrate_pumps(
                p, pump[:, j : j + 1], DT, initial[j], carrier[j],
                None if noise is None else pack(increments(noise, n_steps, width)[:, :, j : j + 1]),
                None if inj is None else inj[:, j : j + 1],
                trace=False,
                holds=per_sample(pump),
            )
            assert [a.tobytes() for a in alone] == [
                a[..., j : j + 1].tobytes() for a in (field, last_carrier, diverged, turns)
            ]

    @pytest.mark.parametrize("width", BLOCK_WIDTHS)
    def test_shared_head_equals_whole_window_runs(self, quiet, width):
        # every run starts at no carrier under no pump, so its phase spins and
        # Im E flips in the shared first segment, then takes its own level.
        # The traced and the untraced call give each run its bits alone.
        th, holds = quiet.threshold_current, [150, 200, 151]
        levels = np.array([[0.0] * width, [(0.3 + 0.2 * j) * th for j in range(width)], [th] * width])
        field, carrier, diverged, _ = laser.integrate_pumps(quiet, levels, DT, 1e-3 + 2e-4j, 0.0, holds=holds)
        *last, turns = laser.integrate_pumps(quiet, levels, DT, 1e-3 + 2e-4j, 0.0, holds=holds, trace=False)
        assert not diverged.any()
        for j in range(width):
            drive = laser.DriveWaveform.from_segments(
                [(holds[0] * DT, levels[0, j]), (holds[1] * DT, levels[1, j]), ((holds[2] - 1) * DT, th)], DT
            )
            alone = laser.integrate(quiet, drive, dt=DT, initial_field=1e-3 + 2e-4j, initial_carrier=0.0)
            column = laser.FieldTrace(alone.times, field[:, j].copy(), carrier[:, j].copy())
            assert_same_bits(column, alone)
        assert (unwrap_turns(field[: holds[0]]) != 0).all()  # every run turns in the shared first segment
        assert np.array_equal(turns, unwrap_turns(field))
        assert [a.tobytes() for a in last] == [a.tobytes() for a in (field[-1], carrier[-1], diverged)]

    @pytest.mark.parametrize("width", BLOCK_WIDTHS)
    def test_diverging_head_names_its_sample_in_every_run(self, quiet, width):
        th, holds = quiet.threshold_current, [150, 200, 151]
        levels = np.array([[1e30] * width, [(0.3 + 0.2 * j) * th for j in range(width)], [th] * width])
        field, carrier, diverged, _ = laser.integrate_pumps(
            quiet, levels, DT, 1e-3, 900.0, holds=holds, trace=False
        )
        drive = laser.DriveWaveform.from_segments([(holds[0] * DT, 1e30), (holds[1] * DT, th)], DT)
        with pytest.raises(IntegrationDivergedError) as alone:
            laser.integrate(quiet, drive, dt=DT, initial_field=1e-3, initial_carrier=900.0)
        assert 0 < alone.value.step_index < holds[0]
        assert (diverged == alone.value.step_index).all()
        for e, n in zip(field[-1], carrier[-1]):
            assert str(IntegrationDivergedError(diverged[0], e, n)) == str(alone.value)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_pump_rejected(self, quiet, bad):
        pump = np.full((11, 3), quiet.threshold_current)
        pump[5, 1] = bad
        with pytest.raises(PreconditionError, match="finite"):
            laser.integrate_pumps(quiet, pump, DT, 1e-3, 0.0, holds=per_sample(pump))

    @pytest.mark.parametrize("pump", [np.ones(3), np.ones((0, 3)), np.ones((3, 0))], ids=["1-d", "no-rows", "no-runs"])
    def test_pump_not_a_matrix_rejected(self, quiet, pump):
        with pytest.raises(PreconditionError, match=r"pump must be an \(n_segments, n_runs\) array"):
            laser.integrate_pumps(quiet, pump, DT, 1e-3, 0.0, holds=per_sample(pump))

    @pytest.mark.parametrize("dt", [0.0, -1e-13, math.nan, 1e-12])
    def test_bad_dt_rejected(self, quiet, dt):
        with pytest.raises(PreconditionError, match="dt"):
            laser.integrate_pumps(quiet, np.ones((11, 3)), dt, 1e-3, 0.0, holds=per_sample(range(11)))


# pump levels as multiples of the threshold current: none, which with no
# carrier spins the phase, so that Im E flips; below, at and above
# threshold; and one that diverges
LEVELS = st.sampled_from([0.0, 0.2, 1.0, 2.5, 1e30])


@st.composite
def held_pumps(draw):
    """(levels, holds) of 1 to 49 runs, each row of levels held >= 1 samples:
    one to three blocks of the kernel, the last of them full or short."""
    width = draw(st.integers(1, 49))
    holds = draw(st.lists(st.integers(1, 60), min_size=1, max_size=6))
    levels = draw(st.lists(st.lists(LEVELS, min_size=width, max_size=width), min_size=len(holds),
                           max_size=len(holds)))
    return np.array(levels) * laser.LaserParams().threshold_current, holds


class TestHeldPumps:
    """A pump of held levels steps as np.repeat(levels, holds, axis=0) does."""

    @settings(max_examples=150, deadline=None)
    @given(pump=held_pumps(), noisy=st.booleans(), injected=st.booleans(), seed=st.integers(0, 2**32 - 1))
    # a run at no pump whose Im E flips, and one that diverges in its second segment
    @example(
        pump=(np.array([[0.0, 1.0], [0.0, 1e30], [2.5, 0.2]]) * laser.LaserParams().threshold_current,
              [50, 40, 30]),
        noisy=False, injected=False, seed=0,
    )
    # 33 runs, 24 then 9 in a block of 24 whose spare lanes copy the last run,
    # which starts at no pump and (at seed 2) no carrier, so its phase spins
    @example(
        pump=(np.array([[1.0] * 32 + [0.0], [0.2] * 32 + [2.5], [2.5] * 32 + [1.0]])
              * laser.LaserParams().threshold_current, [50, 40, 30]),
        noisy=False, injected=False, seed=2,
    )
    def test_equals_one_row_per_sample(self, params, pump, noisy, injected, seed):
        levels, holds = pump
        width, n_steps = levels.shape[1], sum(holds) - 1
        p = replace(params, spontaneous_fraction=params.spontaneous_fraction if noisy else 0.0)
        p = replace(p, injection_coupling=5e10 if injected else 0.0)
        rng = np.random.default_rng(seed)
        initial = 1e-3 * (rng.standard_normal(width) + 1j * rng.standard_normal(width))
        carrier = np.where(rng.random(width) < 0.5, 0.0, 900.0)
        noise = noise_words(rng, n_steps, width) if noisy else None
        inj = 0.3 * np.exp(1j * rng.uniform(0.0, 2 * math.pi, (n_steps + 1, width))) if injected else None
        for trace in (True, False):
            held = laser.integrate_pumps(p, levels, DT, initial, carrier, noise, inj, trace=trace, holds=holds)
            dense = laser.integrate_pumps(
                p, np.repeat(levels, holds, axis=0), DT, initial, carrier, noise, inj, trace=trace,
                holds=per_sample(range(n_steps + 1)),
            )
            for a, b in zip(held, dense):
                assert a.shape == b.shape and a.tobytes() == b.tobytes()

    @pytest.mark.parametrize(
        "holds", [[0, 3], [2, -1], [2], [2, 3, 4], [1.0, 2.0], [[1, 2]]],
        ids=["zero", "negative", "too-few", "too-many", "float", "2-d"],
    )
    def test_bad_holds_rejected(self, quiet, holds):
        with pytest.raises(PreconditionError, match="holds"):
            laser.integrate_pumps(quiet, np.ones((2, 3)), DT, 1e-3, 0.0, holds=holds)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_level_rejected(self, quiet, bad):
        levels = np.full((2, 3), quiet.threshold_current)
        levels[1, 2] = bad
        with pytest.raises(PreconditionError, match="finite"):
            laser.integrate_pumps(quiet, levels, DT, 1e-3, 0.0, holds=[4, 5])

    @pytest.mark.parametrize("samples", [8, 10])  # one short of sum(holds) = 9, one past
    def test_noise_and_injection_follow_the_holds(self, params, samples):
        # 40 runs: 2 n_steps n_runs bits fill 9, 10 and 12 words at 7, 8 and 9 steps
        levels = np.full((2, 40), params.threshold_current)
        with pytest.raises(PreconditionError, match="noise"):
            laser.integrate_pumps(params, levels, DT, 1e-3, 0.0, np.zeros({8: 9, 10: 12}[samples], np.uint64),
                                  holds=[4, 5])
        with pytest.raises(PreconditionError, match="injection"):
            laser.integrate_pumps(params, levels, DT, 1e-3, 0.0, None, np.zeros((samples, 40)), holds=[4, 5])
        # the shapes of sum(holds) samples pass, and noise must be words
        inputs = np.zeros(10, np.uint64), np.zeros((9, 40))
        laser.integrate_pumps(params, levels, DT, 1e-3, 0.0, *inputs, holds=[4, 5])
        with pytest.raises(PreconditionError, match="noise"):
            laser.integrate_pumps(params, levels, DT, 1e-3, 0.0, np.zeros(10), holds=[4, 5])


def knots(drive):
    """The samples of a drive of held levels that np.interp needs: the first
    and the last, and both samples at each level change."""
    change = np.flatnonzero(drive.current[1:] != drive.current[:-1])
    keep = np.unique(np.r_[0, change, change + 1, drive.times.size - 1])
    return laser.DriveWaveform(drive.times[keep], drive.current[keep])


@st.composite
def held_drives(draw):
    """A from_segments drive of 1 to 5 segments of 0 to 40 samples each.

    Its levels are +0.0 or multiples of the threshold current, never -0.0:
    np.interp returns a sample's own value where a step time lands on it,
    and between two knots of one level 0 * (t - t_k) + level, which is +0.0
    for a level of -0.0, so a dense drive and its knots would give the kernel
    pumps of different signs there.
    """
    interval = draw(st.sampled_from([1e-11, 3e-12, 2e-13]))
    counts = draw(st.lists(st.integers(0, 40), min_size=1, max_size=5).filter(any))
    levels = draw(st.lists(st.floats(0.0, 4.0), min_size=len(counts), max_size=len(counts)))
    th = laser.LaserParams().threshold_current
    return laser.DriveWaveform.from_segments([(n * interval, k * th) for n, k in zip(counts, levels)], interval)


class TestDriveKnots:
    """[DERIVED] np.interp is linear between adjacent samples, so between two
    knots of one level it is that level, and a ramp is the same two samples
    in both drives: a drive of held levels and its knots alone give the
    kernel the same pump, and every run the same bytes."""

    @settings(max_examples=100, deadline=None)
    @given(drive=held_drives(), seed=st.integers(0, 2**32 - 1))
    def test_knots_integrate_as_the_dense_drive(self, params, steady, drive, seed):
        sparse = knots(drive)
        assert not np.signbit(drive.current).any()
        quiet = replace(params, spontaneous_fraction=0.0)
        injected = replace(params, injection_coupling=5e10, detuning=1.5e9)
        for p, kwargs in ((quiet, {}), (params, {"noise_seed": seed}), (injected, {"injection": steady})):
            dense, alone = (laser.integrate(p, d, dt=DT, **kwargs) for d in (drive, sparse))
            assert [a.tobytes() for a in (dense.times, dense.field, dense.carrier)] == [
                a.tobytes() for a in (alone.times, alone.field, alone.carrier)
            ]
        dense, alone = (laser.integrate_ensemble(params, d, 25, seed, DT) for d in (drive, sparse))
        assert [a.tobytes() for a in dense] == [a.tobytes() for a in alone]


# the field's parts: signed zeros, subnormals, tiny values whose squares
# underflow, 1, and values whose squares pass the cap
EDGES = [0.0, -0.0, 5e-324, -5e-324, 1e-310, -1e-310, 1e-300, -1e-300, 1.0, -1.0, 1e150, -1e150]
EDGE = st.sampled_from(EDGES)
SIGN = st.sampled_from([1.0, -1.0])
ZERO = st.sampled_from([0.0, -0.0])
CARRIER = st.sampled_from([0.0, -0.0, -5.0, 1e3, 1e300])
# a run's (Re E, Im E, N, pump level in J_th, first step's two increments):
# from the edges, or in about half of the runs from E = (+-0, +-0) at the
# threshold carrier, where Gc = Gu = 1/tau_p; and calls of a lone run, of
# 2 to 8 runs and of 9 to 24
EDGE_RUN = st.one_of(
    st.tuples(EDGE, EDGE, CARRIER, LEVELS, SIGN, SIGN), st.tuples(ZERO, ZERO, st.just(2000.0), LEVELS, SIGN, SIGN)
)
EDGE_CALLS = st.one_of(*(st.lists(EDGE_RUN, min_size=a, max_size=b) for a, b in ((1, 1), (2, 8), (9, 24))))


def rule_turns(field):
    """The turns of a traced column as _heun.c's header defines them, in IEEE doubles."""
    turns = 0
    with np.errstate(all="ignore"):
        for b, e in zip(field[:-1], field[1:]):
            if np.signbit(b.imag) != np.signbit(e.imag):
                turn = b.real < 0 and e.real < 0
                if not turn and not (b.real >= 0 and e.real >= 0):
                    turn = (b.real * e.imag - e.real * b.imag) / (e.imag - b.imag) < 0
                turns += (1 if np.signbit(e.imag) else -1) if turn else 0
    return turns


# Each zero term of CPython's complex promotion that the kernel repeated
# before it took the real-form step, and a run at which that term gave a
# sample a zero of the other sign.  Neither the kernel nor
# oracle_integrate has these terms now, and the runs stay as edge states
# on which the two must agree.  Three of the terms no longer show at their
# own run, so the last two runs, named "real form", are ones at which they
# would change a sample of the real-form step.  (term, LaserParams fields,
# dt, E, N, pump at each sample, the increments of each step, the master's
# samples or None.)  A Langevin kick is a signed zero where its amplitude
# is a zero, at a carrier <= 0 or where a spontaneous_fraction of 5e-324
# makes the amplitude's square underflow; the increment gives it its sign.
# The carrier max's sign is the @example of test_runs_equal_the_oracle.
# N = 2000 is the threshold carrier, where Gc = Gu = 1/tau_p at E = 0, and
# a kappa of 5e-324 rounds kappa times a master's part to a signed zero.
ZERO_TERMS = [
    ("cr: + 0.0 * x", dict(photon_lifetime=1.7e308, transparency_carrier=0.0, gain_slope=1.0, linewidth_enhancement=0.0,
                           spontaneous_fraction=5e-324), DT, (-0.0, 2e-7), 1 / 1.7e308, [1.0, 1.0], [(-1.0, 1.0)], None),
    ("ci: 0.0 +", dict(linewidth_enhancement=0.0, injection_coupling=5e-324, spontaneous_fraction=5e-324), DT,
     (-1e-300, -0.0), 2000.0, [0.0, 0.0], [(1.0, -1.0)], [(-1e-310, -1e-310), (-1e300, -1e-310)]),
    ("predictor: - d1.ei * 0.0", dict(photon_lifetime=1.7e308, transparency_carrier=0.0, gain_compression=1e300,
                                     linewidth_enhancement=1e-150, spontaneous_fraction=5e-324), 2e-163, (-0.0, 2.4e-17),
     6.6e-51, [0.0, 0.0], [(-1.0, 1.0)], None),
    ("predictor: d1.er * 0.0 +", dict(photon_lifetime=1.7e308, transparency_carrier=0.0, linewidth_enhancement=0.0,
                                     spontaneous_fraction=5e-324), DT, (-5e-324, -0.0), 6.6e-51, [2e12, 4e12],
     [(1.0, -1.0)], None),
    ("corrector: - 0.0 * si", dict(injection_coupling=5e-324), DT, (0.0, -0.0), 0.0, [0.0, 0.0], [(1.0, -1.0)],
     [(-1.0, 0.0), (0.0, -1.0)]),
    ("corrector: - ai * 0.0", dict(linewidth_enhancement=0.0, injection_coupling=5e10), DT, (-0.0, 1.0), 0.0, [0.0, 0.0],
     [(-1.0, 1.0)], [(0.0, 0.0), (-5e-324, 0.0)]),
    ("corrector: ar * 0.0 +", dict(spontaneous_fraction=5e-324), DT, (-0.0, -0.0), 2000.0, [0.0, 0.0], [(1.0, -1.0)],
     None),
    ("injection: - 0.0 * inj[1]", dict(injection_coupling=5e-324, spontaneous_fraction=5e-324), DT, (-0.0, 0.0), 2000.0,
     [2e12, 2e12, 0.0], [(-1.0, 1.0), (-1.0, 1.0)], [(-1.0, 0.0), (-1e-5, 0.0), (-1e-310, -1e-310)]),
    ("injection: + 0.0 * inj[0]", dict(linewidth_enhancement=0.0, injection_coupling=5e-324, spontaneous_fraction=5e-324),
     DT, (-1.0, -0.0), 4000.0, [0.0, 0.0], [(1.0, -1.0)], [(0.0, -1e-5), (0.0, -0.3)]),
    ("real form: predictor - d1.ei * 0.0, corrector - 0.0 * si", dict(injection_coupling=5e-324,
                                                                       spontaneous_fraction=5e-324),
     DT, (-0.0, 0.0), 2000.0, [2e12, 2e12], [(-1.0, 1.0)], [(-1e-5, -1.0), (-1e-5, 0.0)]),
    ("real form: corrector ar * 0.0 +", dict(injection_coupling=5e-324, spontaneous_fraction=5e-324), DT, (-0.0, -0.0),
     2000.0, [2e12, 2e12], [(-1.0, -1.0)], [(-1.0, -1e-5), (1.0, -1e-5)]),
]


class TestEdgeStates:
    """integrate_pumps and oracle_integrate agree run by run from states at
    the edges of the doubles, where many runs diverge at their first step."""

    @settings(max_examples=500, deadline=None)
    @given(
        runs=EDGE_CALLS,
        n_steps=st.integers(1, 40),
        alpha=st.sampled_from([0.0, 3.0]),  # 0 makes ci a signed zero
        # (spontaneous_fraction, injection_coupling): quiet, noisy, injected,
        # both, and both at 5e-324, which rounds every Langevin kick and kappa
        # times every master part to a signed zero
        scales=st.sampled_from([(0.0, 0.0), (1e-4, 0.0), (0.0, 5e10), (1e-4, 5e10), (5e-324, 5e-324)]),
        seed=st.integers(0, 2**32 - 1),
    )
    # a carrier of -0.0 makes the noise amplitude sqrt(-0.0) = -0.0, whose
    # sign a zero part of E takes
    @example(runs=[(-0.0, -5e-324, -0.0, 0.0, 1.0, 1.0)], n_steps=1, alpha=3.0, scales=(1e-4, 0.0), seed=0)
    # E = (-0, +0) at the threshold carrier and pump, a -1 first Re
    # increment, both scales at 5e-324 and, at seed 9, a master whose second
    # sample is in the third quadrant: the state at which a kernel without
    # the zero terms ZERO_TERMS lists differed in a signed zero from the
    # complex-arithmetic loop, kept at every --hypothesis-seed
    @example(runs=[(-0.0, 0.0, 2000.0, 1.0, -1.0, 1.0)], n_steps=1, alpha=0.0, scales=(5e-324, 5e-324), seed=9)
    def test_runs_equal_the_oracle(self, params, runs, n_steps, alpha, scales, seed):
        beta, kappa = scales
        p = replace(params, linewidth_enhancement=alpha, spontaneous_fraction=beta, injection_coupling=kappa)
        noisy, injected = beta > 0.0, kappa > 0.0
        runs, width = np.array(runs), len(runs)
        initial = runs[:, :2].copy().view(complex)[:, 0]  # keeps the sign of every zero part
        carriers, levels = runs[:, 2], runs[:, 3] * p.threshold_current
        rng = np.random.default_rng(seed)
        xi = noise = None
        if noisy:
            xi = rng.choice([1.0, -1.0], (n_steps, 2, width))
            xi[0] = runs[:, 4:].T
            noise = pack(xi)
        times = DT * np.arange(n_steps + 1)
        masters = [laser.FieldTrace(times, 0.3 * np.exp(1j * rng.uniform(0.0, 2 * math.pi, n_steps + 1)), 0.0 * times)
                   for _ in range(width)] if injected else [None] * width
        inj = None
        if injected:  # the samples oracle_integrate takes from each master
            inj = np.column_stack([
                (np.interp(times, m.times, m.field.real) + 1j * np.interp(times, m.times, m.field.imag))
                * np.exp(1j * 2.0 * math.pi * p.detuning * times) for m in masters
            ])
        pump = np.repeat(levels[None], n_steps + 1, 0)
        field, carrier, diverged, turns = laser.integrate_pumps(
            p, pump, DT, initial, carriers, noise, inj, holds=per_sample(pump)
        )
        # without the trace, and with the pump held
        last = laser.integrate_pumps(p, levels[None], DT, initial, carriers, noise, inj, trace=False,
                                     holds=[n_steps + 1])
        assert [a.tobytes() for a in last] == [a.tobytes() for a in (field[-1], carrier[-1], diverged, turns)]

        def oracle(j, steps):
            drive = laser.DriveWaveform(times[: steps + 1], pump[: steps + 1, j])
            return oracle_integrate(p, drive, masters[j], dt=DT, initial_field=complex(initial[j]),
                                    initial_carrier=float(carriers[j]), xi=None if xi is None else xi[:steps, :, j])

        for j in range(width):
            try:
                trace = oracle(j, n_steps)
            except IntegrationDivergedError as exc:
                k = exc.step_index
                assert diverged[j] == k
                before = (initial[j : j + 1], carriers[j : j + 1])  # samples 0 to k - 1
                if k > 1:
                    trace = oracle(j, k - 1)
                    before = (trace.field, trace.carrier)
                assert (field[:k, j].tobytes(), carrier[:k, j].tobytes()) == tuple(a.tobytes() for a in before)
                # the run keeps the state it diverged at, whose |E|^2 and N the error names
                assert (field[k:, j].tobytes(), carrier[k:, j].tobytes()) == (
                    np.repeat(field[k, j], n_steps + 1 - k).tobytes(),
                    np.repeat(carrier[k, j], n_steps + 1 - k).tobytes(),
                )
                error = IntegrationDivergedError(k, field[k, j], carrier[k, j])
                assert np.array([error.intensity, error.carrier]).tobytes() == np.array(
                    [exc.intensity, exc.carrier]).tobytes()
                assert turns[j] == rule_turns(np.append(before[0], field[k, j]))
            else:
                assert diverged[j] == 0
                assert field[:, j].tobytes() == trace.field.tobytes()
                assert carrier[:, j].tobytes() == trace.carrier.tobytes()
                assert turns[j] == rule_turns(trace.field)

    @pytest.mark.parametrize("term, fields, dt, e0, n0, pump, xi, master", ZERO_TERMS, ids=[c[0] for c in ZERO_TERMS])
    def test_zero_terms_that_stay(self, params, term, fields, dt, e0, n0, pump, xi, master):
        # each ZERO_TERMS state stays a case, named by its term: the kernel
        # and the real-form oracle agree there bit for bit
        p = replace(params, **fields)
        times, pump = dt * np.arange(len(pump)), np.array(pump)
        initial = np.array(e0).view(complex)  # keeps the sign of each zero part
        xi = np.array(xi)
        inj = None
        if master is not None:  # the samples oracle_integrate takes from the master
            master = laser.FieldTrace(times, np.array(master).view(complex)[:, 0], 0.0 * times)
            inj = ((np.interp(times, times, master.field.real) + 1j * np.interp(times, times, master.field.imag))
                   * np.exp(1j * 2.0 * math.pi * p.detuning * times))[:, None]
        field, carrier, diverged, _ = laser.integrate_pumps(
            p, pump[:, None], dt, initial, n0, pack(xi), inj, holds=per_sample(pump)
        )
        trace = oracle_integrate(p, laser.DriveWaveform(times, pump), master, dt=dt, initial_field=complex(initial[0]),
                                 initial_carrier=n0, xi=xi)
        assert diverged[0] == 0
        assert field[:, 0].tobytes() == trace.field.tobytes()
        assert carrier[:, 0].tobytes() == trace.carrier.tobytes()


def run_fresh(script, cache, cwd=None, **env_vars):
    """Run `script` in a new interpreter with XDG_CACHE_HOME set to `cache`."""
    env = dict(os.environ, XDG_CACHE_HOME=str(cache), **env_vars)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC_DIR), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-c", script], cwd=cwd, env=env, capture_output=True, text=True
    )


INTEGRATE_ONCE = """
import sys
from chirplink import laser
p = laser.LaserParams()
laser.integrate(p, laser.DriveWaveform.constant(p.threshold_current, 1e-11, 1e-12))
print("subprocess" in sys.modules)
"""


def kernel_paths(params):
    """The bits of each stepping path of the kernel: a lone quiet, noisy and
    injected run, an 8-lane block (6 runs, one diverging), a noisy 24-lane
    block, and blocks of 24 and 6 runs that share a first segment, in which
    each turns."""
    th, n_steps, rng = params.threshold_current, 400, np.random.default_rng(5)
    quiet = replace(params, spontaneous_fraction=0.0)
    one = np.full((n_steps + 1, 1), 1.5 * th)
    inj = 0.3 * np.exp(1j * rng.uniform(0.0, 2 * math.pi, (n_steps + 1, 1)))
    six = np.full((n_steps + 1, 6), [0.0, 0.5 * th, th, 1e30 * th, 2.0 * th, 3.0 * th])
    calls = [
        (quiet, one, None, None),
        (params, one, noise_words(rng, n_steps, 1), None),
        (replace(quiet, injection_coupling=5e10), one, None, inj),
        (quiet, six, None, None),
        (params, np.full((n_steps + 1, 24), 1.5 * th), noise_words(rng, n_steps, 24), None),
    ]
    runs = [laser.integrate_pumps(p, pump, DT, 1e-3 + 2e-4j, 900.0, noise, injection, holds=per_sample(pump))
            for p, pump, noise, injection in calls]
    levels = np.array([[0.0] * 30, [(0.3 + 0.1 * j) * th for j in range(30)], [th] * 30])
    runs.append(laser.integrate_pumps(quiet, levels, DT, 1e-3 + 2e-4j, 0.0, trace=False, holds=[150, 200, 151]))
    assert (runs[-1][3] != 0).all()  # every run turns
    return [a.tobytes() for run in runs for a in run]


@pytest.fixture(scope="class")
def builds(tmp_path_factory):
    """({target flags: kernel}, cache) of this CPU's build and a build with
    no target flag, compiled into one new cache."""
    cache, kernels = tmp_path_factory.mktemp("cache"), {}
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("XDG_CACHE_HOME", str(cache))
        for target in (laser._target(), ()):
            mp.setattr(laser, "_target", lambda target=target: target)
            kernels[target] = laser._heun.__wrapped__()
    return kernels, cache / "chirplink"


class TestKernelBuild:
    def test_library_name_follows_target_flag(self, builds):
        kernels, cache = builds
        if len(kernels) == 1:
            pytest.skip("this CPU's build has no target flag")
        assert len(list(cache.iterdir())) == 2  # one library per target flag

    def test_untargeted_build_gives_the_same_bits(self, params, builds, monkeypatch):
        paths = []
        for kernel in builds[0].values():
            monkeypatch.setattr(laser, "_heun", lambda kernel=kernel: kernel)
            paths.append(kernel_paths(params))
        assert paths[0] == paths[-1]

    def test_import_compiles_nothing(self, tmp_path):
        script = (
            "import sys; import chirplink.cli; "
            "print(sorted({'subprocess', 'hashlib'} & set(sys.modules)))"
        )
        proc = run_fresh(script, tmp_path)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"
        assert list(tmp_path.iterdir()) == []

    def test_first_integration_compiles_into_cache_once(self, tmp_path):
        first = run_fresh(INTEGRATE_ONCE, tmp_path)
        assert first.returncode == 0, first.stderr
        assert first.stdout.strip() == "True"
        (lib,) = (tmp_path / "chirplink").iterdir()
        assert lib.name.startswith("heun-") and lib.suffix == ".so"
        second = run_fresh(INTEGRATE_ONCE, tmp_path)
        assert second.returncode == 0, second.stderr
        assert second.stdout.strip() == "False"  # loaded, not compiled

    def test_build_keeps_other_keys_libraries(self, tmp_path):
        # the cache keeps one library per key and is never swept: another
        # key's library unused for 40 days stays, its mtime untouched
        cache = tmp_path / "chirplink"
        cache.mkdir()
        other = cache / "heun-0000000000000000.so"
        other.write_bytes(b"another checkout's kernel")
        forty_days_ago = other.stat().st_mtime_ns - 40 * 86400 * 10**9
        os.utime(other, ns=(forty_days_ago, forty_days_ago))
        proc = run_fresh(INTEGRATE_ONCE, tmp_path)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "True"  # compiled
        names = sorted(lib.name for lib in cache.iterdir())
        assert other.name in names and len(names) == 2
        assert other.stat().st_mtime_ns == forty_days_ago

    def test_load_writes_nothing_into_cache(self, builds, monkeypatch):
        kernels, cache = builds
        # backdated, so that a write at load time cannot leave the same mtime
        ten_days_ago = min(lib.stat().st_mtime_ns for lib in cache.iterdir()) - 10 * 86400 * 10**9
        for lib in cache.iterdir():
            os.utime(lib, ns=(ten_days_ago, ten_days_ago))

        def mtimes():  # the directory's own moves with any file made or removed in it
            return cache.stat().st_mtime_ns, {lib.name: lib.stat().st_mtime_ns for lib in cache.iterdir()}

        before = mtimes()
        monkeypatch.setenv("XDG_CACHE_HOME", str(cache.parent))
        laser._heun.__wrapped__()  # this CPU's build, loaded from the cache
        assert len(before[1]) == len(kernels)
        assert mtimes() == before

    def test_unwritable_cache_builds_in_private_directory(self, tmp_path):
        (tmp_path / "cache").write_text("a file, not a directory")
        (tmp_path / "tmp").mkdir()
        proc = run_fresh(INTEGRATE_ONCE, tmp_path / "cache", TMPDIR=str(tmp_path / "tmp"))
        assert proc.returncode == 0, proc.stderr
        assert list((tmp_path / "tmp").iterdir()) == []

    def test_without_gcc_exit_code(self, tmp_path):
        (tmp_path / "cache").mkdir()
        (tmp_path / "bin").mkdir()
        (tmp_path / "pv.cfg").write_text("experiment = phase_voltage\nphysical_mode = true\n")
        script = "import chirplink.cli; raise SystemExit(chirplink.cli.main(['phase-voltage', '--config', 'pv.cfg']))"
        proc = run_fresh(script, tmp_path / "cache", cwd=tmp_path, PATH=str(tmp_path / "bin"))
        assert proc.returncode == 2
        assert "needs gcc" in proc.stderr and "Traceback" not in proc.stderr


class TestIncrements:
    """[DERIVED] The Langevin increments laser._run draws are +-1.0 with
    equal odds, independent across steps, runs and quadratures: the mean 0,
    variance 1 and zero correlations of the unit normals they stand in for
    (Kloeden & Platen, Numerical Solution of SDEs, ch. 14)."""

    def test_moments_of_the_drawn_increments(self, params, monkeypatch):
        drawn, integrate_pumps = [], laser.integrate_pumps

        def recording(*args, **kwargs):
            drawn.append(args[5])  # the noise words
            return integrate_pumps(*args, **kwargs)

        monkeypatch.setattr(laser, "integrate_pumps", recording)
        n_steps, n_runs = 2048, 1024  # 2^22 increments
        drive = laser.DriveWaveform.constant(2.0 * params.threshold_current, n_steps * DT, DT)
        laser.integrate_ensemble(params, drive, n_runs, rng_seed=2024)
        (words,) = drawn
        assert words.dtype == np.uint64 and words.shape == (2**22 // 64,)
        xi = increments(words, n_steps, n_runs)
        assert np.array_equal(np.unique(xi), [-1.0, 1.0])  # so every square is 1

        def within_5_sigma(products):  # the mean of n independent +-1 values has sd 1/sqrt(n)
            return abs(products.mean()) < 5.0 / math.sqrt(products.size)

        assert within_5_sigma(xi[:, 0]) and within_5_sigma(xi[:, 1])  # Re and Im
        assert within_5_sigma(xi[:, 0] * xi[:, 1])
        assert within_5_sigma(xi[1:] * xi[:-1])  # lag 1 in steps
        assert within_5_sigma(xi[:, :, 1:] * xi[:, :, :-1])  # neighbouring runs, neighbouring bits


def gaussian_ensemble(params, drive, n_runs, seed, dt, initial_field, initial_carrier):
    """oracle_integrate's real-form step without injection, vectorized over
    runs and fed unit normals: the Gaussian-increment reference of the
    two-point increments.  Returns each run's last field and carrier."""
    n_steps = int(math.floor(drive.duration / dt + 1e-9))
    pump = np.interp(float(drive.times[0]) + dt * np.arange(n_steps + 1), drive.times, drive.current)
    inv_tau_n, inv_tau_p, g = 1.0 / params.carrier_lifetime, 1.0 / params.photon_lifetime, params.gain_slope
    n_tr, eps, half_alpha = params.transparency_carrier, params.gain_compression, 0.5 * params.linewidth_enhancement
    h = 0.5 * dt
    c = params.spontaneous_fraction * inv_tau_n * h
    rng = np.random.default_rng(seed)

    def rates(er, ei, n, k):
        s = er * er + ei * ei
        gu = g * (n - n_tr)
        gc = gu / (1.0 + eps * s)
        cr, ci = 0.5 * (gc - inv_tau_p), half_alpha * (gu - inv_tau_p)
        return cr * er - ci * ei, cr * ei + ci * er, pump[k] - n * inv_tau_n - gc * s

    er, ei = np.full(n_runs, complex(initial_field).real), np.full(n_runs, complex(initial_field).imag)
    n = np.full(n_runs, float(initial_carrier))
    for k in range(n_steps):
        amp = np.sqrt(np.maximum(n, 0.0) * c)
        noise_re, noise_im = amp * rng.standard_normal((2, n_runs))
        der1, dei1, dn1 = rates(er, ei, n, k)
        der2, dei2, dn2 = rates(er + der1 * dt + noise_re, ei + dei1 * dt + noise_im, n + dn1 * dt, k + 1)
        er = er + (der1 + der2) * h + noise_re
        ei = ei + (dei1 + dei2) * h + noise_im
        n = n + (dn1 + dn2) * h
    return er + 1j * ei, n


class TestGaussianReference:
    """Two-point increments keep the ensemble statistics of Gaussian ones.
    4000 runs from the stationary state at 2 J_th diffuse for 1 ns, to a
    phase variance near 0.24 rad^2 about a mean phase that drifts by about
    -2 rad.  At held-out seeds, the kernel's runs and gaussian_ensemble's
    agree in mean intensity, phase variance and |<exp(i phi)>|, each
    difference within 4 of its standard errors."""

    def test_ensemble_statistics(self, params):
        bias = 2.0 * params.threshold_current
        n0, s0 = laser.stationary_state(params, bias)
        drive = laser.DriveWaveform.constant(bias, 1e-9, 1e-11)
        kwargs = dict(dt=DT, initial_field=complex(math.sqrt(s0)), initial_carrier=n0)
        n_runs = 4000
        two_point, _ = laser.integrate_ensemble(params, drive, n_runs, rng_seed=1605, **kwargs)
        gaussian, _ = gaussian_ensemble(params, drive, n_runs, 4594, **kwargs)

        def statistics(field):
            """(value, standard error) of <S>, var phi and |<exp(i phi)>|."""
            s, mean = np.abs(field) ** 2, np.mean(field / np.abs(field))
            phi = np.angle(field * np.conj(mean))  # about the circular mean, so that none wraps
            dev = phi - phi.mean()
            return [
                (s.mean(), s.std() / math.sqrt(n_runs)),
                (dev.var(), math.sqrt((np.mean(dev**4) - dev.var() ** 2) / n_runs)),
                (abs(mean), np.cos(phi).std() / math.sqrt(n_runs)),
            ]

        for (a, se_a), (b, se_b) in zip(statistics(two_point), statistics(gaussian)):
            assert abs(a - b) < 4.0 * math.hypot(se_a, se_b), (a, b)
        assert statistics(two_point)[1][0] > 0.1  # the phases have diffused


class TestEnsemble:
    def test_unseeded_phases_spread(self):
        params = laser.LaserParams()
        drive = laser.DriveWaveform.from_segments(
            [(0.3e-9, 0.2 * params.threshold_current), (0.7e-9, 3.0 * params.threshold_current)],
            1e-11,
        )
        fields, _ = laser.integrate_ensemble(params, drive, 200, rng_seed=9, dt=DT)
        phases = np.mod(np.angle(fields), 2 * np.pi)
        # crude spread check; the full chi-square test runs in acceptance
        assert np.std(phases) > 1.0
        assert np.all(np.abs(fields) ** 2 > 0.0)

    def test_noiseless_runs_equal_scalar_integrate(self, quiet):
        th = quiet.threshold_current
        for a, b in [(0.2, 3.0), (0.8, 2.0), (1.0, 1.5), (0.1, 4.0)]:
            drive = laser.DriveWaveform.from_segments([(0.3e-9, a * th), (0.4e-9, b * th)], 1e-11)
            fields, carriers = laser.integrate_ensemble(
                quiet, drive, 2, dt=DT, initial_field=1e-6 + 0j
            )
            trace = laser.integrate(quiet, drive, dt=DT, initial_field=1e-6 + 0j)
            assert np.array_equal(fields, np.full(2, trace.field[-1]))
            assert np.array_equal(carriers, np.full(2, trace.carrier[-1]))

    def test_shared_drive_runs_alike_without_noise(self, quiet):
        drive = laser.DriveWaveform.constant(2.0 * quiet.threshold_current, 0.2e-9, 1e-11)
        fields, carriers = laser.integrate_ensemble(
            quiet, drive, 3, dt=DT, initial_field=1e-3 + 0j
        )
        trace = laser.integrate(quiet, drive, dt=DT, initial_field=1e-3 + 0j)
        assert np.array_equal(fields, np.full(3, trace.field[-1]))
        assert np.array_equal(carriers, np.full(3, trace.carrier[-1]))

    @pytest.mark.parametrize("n_runs", [0, -1])
    def test_no_runs_rejected(self, quiet, n_runs):
        drive = laser.DriveWaveform.constant(2.0 * quiet.threshold_current, 0.2e-9, 1e-11)
        with pytest.raises(PreconditionError, match="n_runs must be >= 1"):
            laser.integrate_ensemble(quiet, drive, n_runs, dt=DT)

    def test_drive_rejects_2d_current(self):
        with pytest.raises(PreconditionError):
            laser.DriveWaveform(np.arange(3) * 1e-11, np.ones((3, 2)))

    def test_divergence_names_first_diverging_run(self, quiet):
        runaway = laser.DriveWaveform(np.arange(101) * 1e-12, np.full(101, 1e30))
        with pytest.raises(IntegrationDivergedError) as batch:
            laser.integrate_ensemble(quiet, runaway, 4, dt=1e-13, initial_field=1e-3)
        with pytest.raises(IntegrationDivergedError) as alone:
            laser.integrate(quiet, runaway, dt=1e-13, initial_field=1e-3)
        # all runs share the pump and diverge together; the first is named
        assert batch.value.run_index == 0
        assert alone.value.run_index is None
        assert batch.value.step_index == alone.value.step_index > 0
        assert "in run 0" in str(batch.value)
        assert "|E|^2 = " in str(alone.value) and ", N = " in str(alone.value)

    @pytest.mark.parametrize("seed", [0, 7, 12345])
    def test_noisy_one_run_ends_as_integrate(self, params, seed):
        th = params.threshold_current
        drive = laser.DriveWaveform.from_segments([(0.3e-9, 0.2 * th), (0.4e-9, 3.0 * th)], 1e-11)
        kwargs = dict(dt=DT, initial_field=1e-3 + 2e-4j, initial_carrier=900.0)
        (field,), (carrier,) = laser.integrate_ensemble(params, drive, 1, rng_seed=seed, **kwargs)
        trace = laser.integrate(params, drive, noise_seed=seed, **kwargs)
        assert field.tobytes() == trace.field[-1].tobytes()
        assert carrier.tobytes() == trace.carrier[-1].tobytes()

    @pytest.mark.parametrize("noisy", [False, True])
    def test_one_run_divergence_reads_as_integrate(self, params, noisy):
        p = params if noisy else replace(params, spontaneous_fraction=0.0)
        runaway = laser.DriveWaveform(np.arange(101) * 1e-12, np.full(101, 1e30))
        kwargs = dict(dt=1e-13, initial_field=1e-3)
        with pytest.raises(IntegrationDivergedError) as one:
            laser.integrate_ensemble(p, runaway, 1, rng_seed=4, **kwargs)
        with pytest.raises(IntegrationDivergedError) as alone:
            laser.integrate(p, runaway, noise_seed=4, **kwargs)
        assert one.value.run_index is None
        assert str(one.value) == str(alone.value)
        assert (one.value.step_index, one.value.intensity, one.value.carrier) == (
            alone.value.step_index, alone.value.intensity, alone.value.carrier
        )

    @pytest.mark.parametrize("noisy", [False, True])
    def test_drive_shorter_than_one_step(self, params, noisy):
        # 0.1 ps of drive holds no 0.2 ps step: the trace is sample 0, the
        # ensemble's state the initial one
        p = params if noisy else replace(params, spontaneous_fraction=0.0)
        short = laser.DriveWaveform(np.array([5e-12, 5.1e-12]), np.full(2, p.threshold_current))
        trace = laser.integrate(p, short, dt=DT, initial_field=1e-3j, initial_carrier=900.0)
        assert trace.times.tolist() == [5e-12]
        assert trace.field.tolist() == [1e-3j] and trace.carrier.tolist() == [900.0]
        fields, carriers = laser.integrate_ensemble(p, short, 3, dt=DT, initial_field=1e-3j, initial_carrier=900.0)
        assert fields.tolist() == [1e-3j] * 3 and carriers.tolist() == [900.0] * 3


class TestValidationAndExport:
    def test_invalid_params_rejected(self):
        with pytest.raises(PreconditionError):
            laser.LaserParams(carrier_lifetime=-1.0)
        with pytest.raises(PreconditionError):
            laser.LaserParams(spontaneous_fraction=2.0)
        with pytest.raises(PreconditionError):
            laser.LaserParams(detuning=1e12)
        for name, value, message in [
            ("gain_slope", 0.0, "gain_slope must be strictly positive"),
            ("gain_slope", -1e-9, "gain_slope must be strictly positive"),
            ("gain_compression", -1e-9, "gain_compression must be non-negative"),
            ("linewidth_enhancement", -0.5, "linewidth_enhancement must be >= 0"),
            ("injection_coupling", -1.0, "injection_coupling must be >= 0"),
        ]:
            with pytest.raises(PreconditionError, match=f"^{message}$"):
                laser.LaserParams(**{name: value})

    @pytest.mark.parametrize("name", [f.name for f in fields(laser.LaserParams)])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_params_rejected(self, name, bad):
        # NaN passes every range check, and photon_lifetime = nan surfaced
        # later as a bad dt; each field is named at construction
        with pytest.raises(PreconditionError, match=f"^{name} must be finite"):
            laser.LaserParams(**{name: bad})

    def test_threshold_current_follows_carrier_lifetime(self):
        params = replace(laser.LaserParams(), carrier_lifetime=2e-9)
        assert params.threshold_current == params.threshold_carrier / params.carrier_lifetime
        # [DERIVED] N_th = 1000 + 1 / (5e8 * 2e-12) = 2000 carriers over 2 ns
        assert params.threshold_current == pytest.approx(1.0e12, rel=1e-12)

    def test_drive_validation(self):
        with pytest.raises(PreconditionError):
            laser.DriveWaveform(np.array([1.0, 0.0]), np.array([1.0, 1.0]))
        for times, current in (([0.0, 1.0, 2.0], [1.0, math.nan, 1.0]), ([0.0, math.inf], [1.0, 1.0])):
            with pytest.raises(PreconditionError, match="drive samples must be finite"):
                laser.DriveWaveform(np.array(times), np.array(current))

    def test_off_grid_drive_steps_its_interpolant(self, params, kernel_pumps):
        # a ramp whose ends lie on no uniform grid: the kernel's held pump is
        # the drive's piecewise-linear interpolant at every step time
        th = params.threshold_current
        drive = laser.DriveWaveform(np.array([0.0, 0.3712e-9, 0.3859e-9, 1.0e-9]), np.array([0.2, 0.2, 3.0, 3.0]) * th)
        trace = laser.integrate(params, drive, dt=DT)
        ((levels, holds),) = kernel_pumps
        assert len(holds) > 2  # the ramp's own levels, between the two held ones
        pump = np.repeat(levels[:, 0], holds)
        assert pump.tobytes() == np.interp(trace.times, drive.times, drive.current).tobytes()

    @pytest.mark.parametrize(
        "segments",
        [
            [(0.5e-9, 0.2), (3e-9, 3.0)],
            [(0.2e-9, 1.0), (250e-12, 1.4), (1e-9, 1.0)],
            [(1.234e-11, 1.0), (0.0, 2.0), (2.345e-11, 3.0), (0.4e-12, 4.0), (7.77e-12, 5.0)],
            [(2e-13, 7.0), (1.95e-9, 1.4e17), (1.5e-9, 7.0)],
        ],
    )
    @pytest.mark.parametrize("sample_interval", [1e-11, 2e-13, 3e-12])
    def test_from_segments_equals_list_construction(self, segments, sample_interval):
        # the levels as a list of one float per sample, as they were once built
        levels = []
        for duration, level in segments:
            levels.extend([float(level)] * int(round(duration / sample_interval)))
        levels.append(levels[-1])
        drive = laser.DriveWaveform.from_segments(segments, sample_interval)
        assert drive.current.tobytes() == np.asarray(levels).tobytes()
        assert drive.times.tobytes() == (np.arange(len(levels)) * sample_interval).tobytes()

    @pytest.mark.parametrize("duration", [-1e-11, -1e-30, math.nan, math.inf])
    def test_from_segments_rejects_bad_duration(self, duration):
        with pytest.raises(PreconditionError, match="duration"):
            laser.DriveWaveform.from_segments([(1e-10, 1.0), (duration, 2.0)], 1e-11)

    @pytest.mark.parametrize("segments", [[], [(0.0, 1.0)], [(1e-13, 1.0), (4e-12, 2.0)]])
    def test_from_segments_rejects_no_samples(self, segments):
        with pytest.raises(PreconditionError, match="at least one sample"):
            laser.DriveWaveform.from_segments(segments, 1e-11)

    @pytest.mark.parametrize("sample_interval", [0.0, -1e-11, math.nan])
    def test_from_segments_rejects_bad_interval(self, sample_interval):
        with pytest.raises(PreconditionError, match="sample_interval"):
            laser.DriveWaveform.from_segments([(1e-10, 1.0)], sample_interval)

    @pytest.mark.parametrize(
        "duration, sample_interval",
        [(-1.0, 1e-11), (math.inf, 1e-11), (math.nan, 1e-11), (1e-9, 0.0), (4e-12, 1e-11)],
    )
    def test_constant_rejects_bad_span(self, duration, sample_interval):
        with pytest.raises(PreconditionError):
            laser.DriveWaveform.constant(1.0, duration, sample_interval)

    def test_trace_csv_export(self, tmp_path, params):
        drive = laser.DriveWaveform.constant(1.5 * params.threshold_current, 0.5e-9, 1e-11)
        trace = laser.integrate(params, drive, dt=DT)
        path = tmp_path / "trace.csv"
        laser.export_trace_csv(trace, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "time_s,intensity,carrier,phase_rad"
        assert len(lines) == len(trace) + 1
        reference = tmp_path / "savetxt.csv"
        data = np.column_stack([trace.times, trace.intensity, trace.carrier, trace.phase])
        np.savetxt(reference, data, delimiter=",", header="time_s,intensity,carrier,phase_rad", comments="")
        assert path.read_bytes() == reference.read_bytes()


class TestLaserTracesScript:
    def run(self, *args):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC_DIR), env.get("PYTHONPATH")]))
        script = SRC_DIR.parent / "scripts" / "laser_traces.py"
        return subprocess.run([sys.executable, str(script), *args], env=env, capture_output=True, text=True)

    def test_negative_seed_exit_code(self, tmp_path):
        outdir = tmp_path / "out"
        proc = self.run("--outdir", str(outdir), "--seed", "-1")
        assert proc.returncode == 2
        assert "--seed must be >= 0" in proc.stderr and "Traceback" not in proc.stderr
        assert not outdir.exists()

    @pytest.mark.parametrize("below", ["", "sub"])
    def test_outdir_on_a_file_exit_code(self, tmp_path, below):
        taken = tmp_path / "taken"
        taken.write_text("kept\n")
        proc = self.run("--outdir", str(taken / below))
        assert proc.returncode == 2
        assert "--outdir must name a directory" in proc.stderr and "Traceback" not in proc.stderr
        assert taken.read_text() == "kept\n"

    @pytest.mark.parametrize("name", ["gain_switched_trace.csv", "injection_locked_trace.csv"])
    def test_directory_at_an_output_path_exit_code(self, tmp_path, name):
        outdir = tmp_path / "out"
        (outdir / name).mkdir(parents=True)
        proc = self.run("--outdir", str(outdir))
        assert proc.returncode == 2
        assert f"cannot write {outdir / name}" in proc.stderr and "Traceback" not in proc.stderr
