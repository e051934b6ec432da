import hashlib
import math
from dataclasses import replace

import numpy as np
import pytest
from scipy import optimize

from chirplink import laser
from chirplink.errors import (
    IntegrationDivergedError,
    PreconditionError,
    UndefinedPhaseError,
)

DT = 2e-13


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

    def test_divergence_reports_sample_index(self, params):
        drive = laser.DriveWaveform.constant(1e30, 1e-10, 1e-12)
        with pytest.raises(IntegrationDivergedError) as exc:
            laser.integrate(params, drive, dt=1e-13, initial_field=1e-3)
        assert exc.value.step_index > 0


class TestInstantaneousFrequency:
    def test_linear_phase_gives_constant_chirp(self):
        times = np.arange(0.0, 1e-9, 1e-12)
        field = np.exp(1j * 2 * np.pi * 1e9 * times)
        trace = laser.FieldTrace.from_field(times, field, np.zeros_like(times))
        _, chirp = laser.instantaneous_frequency(trace)
        assert len(chirp) == len(trace) - 2
        assert np.allclose(chirp, 1e9, rtol=1e-6)

    def test_steady_state_chirp_is_zero(self, quiet):
        drive = laser.DriveWaveform.constant(2.0 * quiet.threshold_current, 2e-9, 1e-11)
        n0, s0 = laser.stationary_state(quiet, 2.0 * quiet.threshold_current)
        trace = laser.integrate(
            quiet, drive, dt=DT, initial_field=complex(math.sqrt(s0)), initial_carrier=n0
        )
        _, chirp = laser.instantaneous_frequency(trace)
        # solitary-laser offset from gain compression is a constant frequency
        assert np.std(chirp) < 1e-3 * abs(np.mean(chirp)) + 1e3

    def test_perturbation_chirp_integrates_to_phase_step(self, quiet):
        bias = 2.0 * quiet.threshold_current
        n0, s0 = laser.stationary_state(quiet, bias)
        drive = laser.DriveWaveform.from_segments(
            [(0.5e-9, bias), (250e-12, 1.4 * bias), (1e-9, bias)], 1e-11
        )
        trace = laser.integrate(
            quiet, drive, dt=DT, initial_field=complex(math.sqrt(s0)), initial_carrier=n0
        )
        times, chirp = laser.instantaneous_frequency(trace)
        dt = times[1] - times[0]
        integral = np.sum(chirp) * dt
        endpoints = (trace.phase[-1] - trace.phase[0]) / (2 * np.pi)
        assert integral == pytest.approx(endpoints, rel=0.02)

    def test_extinguished_span_raises(self, params):
        drive = laser.DriveWaveform.from_segments(
            [(0.5e-9, 0.0), (1e-9, 2.0 * params.threshold_current)], 1e-11
        )
        trace = laser.integrate(params, drive, noise_seed=1, dt=DT)
        with pytest.raises(UndefinedPhaseError):
            laser.instantaneous_frequency(trace)


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
        shifted = laser.FieldTrace.from_field(
            steady.times, steady.field * np.exp(1j * np.pi / 2), steady.carrier
        )
        off = laser.locked_phase_offset(steady, shifted, (1e-9, 3e-9))
        assert off == pytest.approx(np.pi / 2, abs=1e-9)

    def test_empty_window_rejected(self, steady):
        with pytest.raises(PreconditionError):
            laser.locked_phase_offset(steady, steady, (2e-9, 1e-9))

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
    pin the Langevin-noise and injection branches of `integrate` bit for bit."""

    def test_gain_switched_noisy_trace(self, params):
        th = params.threshold_current
        drive = laser.DriveWaveform.from_segments([(0.5e-9, 0.2 * th), (3e-9, 3.0 * th)], 1e-11)
        trace = laser.integrate(params, drive, noise_seed=12345, dt=DT)
        assert sha256(trace.field) == "0205ce88769d2c66baff6e31196412fef40f8f7ae72449c57f99d7d1e9e10f2d"
        assert sha256(trace.carrier) == "80d33eb9845533e0150da10c6975fbad84783419d5259b4ca848d3d876fec195"

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
        assert sha256(slave.field) == "cdd5038820ad7e15b9957536ce730354616cb070cc9557f90b82579d28ff635b"
        assert sha256(slave.carrier) == "4e42df0736e1a8b1edadc8a514739b5d8ad08fd67fc84b25bfa521a7ce65fe8c"


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


class TestValidationAndExport:
    def test_invalid_params_rejected(self):
        with pytest.raises(PreconditionError):
            laser.LaserParams(carrier_lifetime=-1.0)
        with pytest.raises(PreconditionError):
            laser.LaserParams(spontaneous_fraction=2.0)
        with pytest.raises(PreconditionError):
            laser.LaserParams(detuning=1e12)

    def test_drive_validation(self):
        with pytest.raises(PreconditionError):
            laser.DriveWaveform(np.array([0.0, 1.0, 1.5]), np.array([1.0, 1.0, 1.0]))
        with pytest.raises(PreconditionError):
            laser.DriveWaveform(np.array([1.0, 0.0]), np.array([1.0, 1.0]))

    def test_trace_csv_export(self, tmp_path, params):
        drive = laser.DriveWaveform.constant(1.5 * params.threshold_current, 0.5e-9, 1e-11)
        trace = laser.integrate(params, drive, dt=DT)
        path = tmp_path / "trace.csv"
        laser.export_trace_csv(trace, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "time_s,intensity,carrier,phase_rad"
        assert len(lines) == len(trace) + 1
