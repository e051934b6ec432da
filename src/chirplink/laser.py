"""Stochastic rate-equation model of a single-mode semiconductor laser.

Normalization
-------------
The cavity field E is dimensionless, with |E|^2 the intracavity photon
number S in normalized units; the carrier number N is dimensionless.
The model integrated here is

    dE/dt = [ (1/2)(Gc - 1/tau_p) + (i alpha/2)(Gu - 1/tau_p) ] E
            + kappa * E_inj(t) * exp(i 2 pi detuning t) + F(t)
    dN/dt = J(t) - N/tau_n - Gc |E|^2

with the uncompressed gain Gu = g (N - N_tr) driving the phase (the
carrier-induced refractive-index change) and the compressed gain
Gc = Gu / (1 + eps |E|^2) driving the amplitude.  Keeping the phase
coupled to the carrier density rather than to the clamped gain is what
produces a nonzero net frequency shift under a drive perturbation held
at steady state (adiabatic chirp); with the fully clamped form the net
phase over any return-to-steady excursion integrates to exactly zero.

F(t) is a complex circular Gaussian Langevin term with per-step
variance beta * N / tau_n * dt, modelling spontaneous emission into the
lasing mode.  The drive J is a pump rate in carriers per second; the
lasing threshold is J_th = N_th / tau_n with N_th = N_tr + 1/(g tau_p).

Default parameters give a relaxation-oscillation frequency of a few GHz,
typical for a telecom DFB diode; they are illustrative, not fitted to a
particular device.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import IntegrationDivergedError, PreconditionError, UndefinedPhaseError

TWO_PI = 2.0 * math.pi

# Injection detuning beyond this is outside the validity window of the
# single-mode locking model.
MAX_DETUNING_HZ = 20e9

# Below this fraction of the peak intensity the optical phase is
# noise-dominated and treated as undefined.
EXTINCTION_FLOOR_FRACTION = 1e-3

# Hard cap on the photon number used to detect runaway integrations.
_DIVERGENCE_INTENSITY = 1e12


@dataclass(frozen=True)
class LaserParams:
    """Normalized single-mode rate-equation parameters."""

    carrier_lifetime: float = 1e-9
    photon_lifetime: float = 2e-12
    gain_slope: float = 5e8
    transparency_carrier: float = 1000.0
    gain_compression: float = 1e-2
    linewidth_enhancement: float = 3.0
    spontaneous_fraction: float = 1e-4
    injection_coupling: float = 0.0
    threshold_current: float = 0.0
    detuning: float = 0.0

    def __post_init__(self):
        if self.carrier_lifetime <= 0 or self.photon_lifetime <= 0:
            raise PreconditionError("lifetimes must be strictly positive")
        if self.gain_slope <= 0:
            raise PreconditionError("gain_slope must be strictly positive")
        if self.gain_compression < 0:
            raise PreconditionError("gain_compression must be non-negative")
        if self.linewidth_enhancement < 0:
            raise PreconditionError("linewidth_enhancement must be >= 0")
        if not 0.0 <= self.spontaneous_fraction <= 1.0:
            raise PreconditionError("spontaneous_fraction must be in [0, 1]")
        if self.injection_coupling < 0:
            raise PreconditionError("injection_coupling must be >= 0")
        if not math.isfinite(self.detuning) or abs(self.detuning) > MAX_DETUNING_HZ:
            raise PreconditionError(
                f"detuning must be finite and within +/-{MAX_DETUNING_HZ:.0e} Hz"
            )
        if self.threshold_current == 0.0:
            object.__setattr__(
                self, "threshold_current", self.threshold_carrier / self.carrier_lifetime
            )

    @property
    def threshold_carrier(self) -> float:
        return self.transparency_carrier + 1.0 / (self.gain_slope * self.photon_lifetime)


@dataclass(frozen=True)
class DriveWaveform:
    """Uniformly sampled pump-rate waveform, in carriers per second."""

    times: np.ndarray
    current: np.ndarray

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
        current = np.asarray(self.current, dtype=float)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "current", current)
        if times.ndim != 1 or times.size < 2 or current.shape != times.shape:
            raise PreconditionError("drive needs 1-d time and current arrays of one length")
        if not (np.all(np.isfinite(times)) and np.all(np.isfinite(current))):
            raise PreconditionError("drive samples must be finite")
        dt = np.diff(times)
        if np.any(dt <= 0):
            raise PreconditionError("drive times must be strictly increasing")
        if not np.allclose(dt, dt[0], rtol=1e-9, atol=0.0):
            raise PreconditionError("drive sampling must be uniform")

    @property
    def sample_interval(self) -> float:
        return float(self.times[1] - self.times[0])

    @property
    def duration(self) -> float:
        return float(self.times[-1] - self.times[0])

    @classmethod
    def constant(cls, level: float, duration: float, sample_interval: float) -> "DriveWaveform":
        n = max(2, int(round(duration / sample_interval)) + 1)
        t = np.arange(n) * sample_interval
        return cls(t, np.full(n, float(level)))

    @classmethod
    def from_segments(cls, segments, sample_interval: float) -> "DriveWaveform":
        """Build a piecewise-constant drive from (duration, level) pairs."""
        levels = []
        for duration, level in segments:
            n = int(round(duration / sample_interval))
            levels.extend([float(level)] * n)
        levels.append(levels[-1])
        t = np.arange(len(levels)) * sample_interval
        return cls(t, np.asarray(levels))


@dataclass(frozen=True)
class FieldTrace:
    """Sampled complex field, carrier number and unwrapped phase."""

    times: np.ndarray
    field: np.ndarray
    carrier: np.ndarray
    phase: np.ndarray

    @classmethod
    def from_field(cls, times, field, carrier) -> "FieldTrace":
        times = np.asarray(times, dtype=float)
        field = np.asarray(field, dtype=complex)
        carrier = np.asarray(carrier, dtype=float)
        phase = np.unwrap(np.angle(field))
        return cls(times, field, carrier, phase)

    @property
    def intensity(self) -> np.ndarray:
        return np.abs(self.field) ** 2

    @property
    def extinction_floor(self) -> float:
        return EXTINCTION_FLOOR_FRACTION * float(np.max(self.intensity))

    def __len__(self) -> int:
        return len(self.times)


def stationary_state(params: LaserParams, drive_level: float) -> tuple[float, float]:
    """Noiseless fixed point (carrier, intensity) for a constant drive.

    On the lasing branch the compressed gain clamps to 1/tau_p, which
    makes the stationary photon number linear in the drive.
    """
    tau_n = params.carrier_lifetime
    tau_p = params.photon_lifetime
    g = params.gain_slope
    eps = params.gain_compression
    n_th = params.threshold_carrier
    s = (drive_level - n_th / tau_n) / (1.0 / tau_p + eps / (g * tau_p * tau_n))
    if s <= 0.0:
        return drive_level * tau_n, 0.0
    n = params.transparency_carrier + (1.0 + eps * s) / (g * tau_p)
    return n, s


def integrate(
    params: LaserParams,
    drive: DriveWaveform,
    injection: FieldTrace | None = None,
    noise_seed: int = 0,
    dt: float = 2e-13,
    initial_field: complex = 1e-6 + 0j,
    initial_carrier: float = 0.0,
) -> FieldTrace:
    """Integrate the stochastic rate equations over the drive window.

    Fixed-step stochastic Heun scheme; deterministic for a fixed
    (params, drive, noise_seed, dt).  The Langevin term is applied to
    the field only.
    """
    if dt > params.photon_lifetime / 10.0:
        raise PreconditionError("dt must be <= photon_lifetime / 10")

    t0 = float(drive.times[0])
    n_steps = int(math.floor(drive.duration / dt + 1e-9))
    times = t0 + dt * np.arange(n_steps + 1)
    # The loop reads Python floats and complexes: a numpy scalar indexed
    # from an array would turn every operation of the step into a numpy
    # scalar operation, ~4x slower, for the same IEEE arithmetic.
    pump = np.interp(times, drive.times, drive.current).tolist()

    kappa = params.injection_coupling
    if injection is not None and kappa > 0.0:
        inj = np.interp(times, injection.times, injection.field.real) + 1j * np.interp(
            times, injection.times, injection.field.imag
        )
        inj = (inj * np.exp(1j * TWO_PI * params.detuning * (times - t0))).tolist()
    else:
        inj = None

    tau_n = params.carrier_lifetime
    inv_tau_p = 1.0 / params.photon_lifetime
    g = params.gain_slope
    n_tr = params.transparency_carrier
    eps = params.gain_compression
    half_alpha_j = 0.5j * params.linewidth_enhancement
    beta = params.spontaneous_fraction

    if beta > 0.0:
        rng = np.random.default_rng(noise_seed)
        xi = rng.standard_normal((n_steps, 2))
        xi_re, xi_im = xi[:, 0].tolist(), xi[:, 1].tolist()
    else:
        xi = None

    e = complex(initial_field)
    n = float(initial_carrier)
    # stored in lists for the same reason: a numpy store per step costs more
    field = [e] * (n_steps + 1)
    carrier = [n] * (n_steps + 1)

    for k in range(n_steps):
        s = (e.real * e.real + e.imag * e.imag)
        gu = g * (n - n_tr)
        gc = gu / (1.0 + eps * s)
        de1 = (0.5 * (gc - inv_tau_p) + half_alpha_j * (gu - inv_tau_p)) * e
        dn1 = pump[k] - n / tau_n - gc * s
        if inj is not None:
            de1 += kappa * inj[k]

        if xi is not None:
            amp = math.sqrt(max(n, 0.0) * beta / tau_n * dt * 0.5)
            noise = complex(amp * xi_re[k], amp * xi_im[k])
        else:
            noise = 0j

        ep = e + de1 * dt + noise
        np_ = n + dn1 * dt
        sp = (ep.real * ep.real + ep.imag * ep.imag)
        gup = g * (np_ - n_tr)
        gcp = gup / (1.0 + eps * sp)
        de2 = (0.5 * (gcp - inv_tau_p) + half_alpha_j * (gup - inv_tau_p)) * ep
        dn2 = pump[k + 1] - np_ / tau_n - gcp * sp
        if inj is not None:
            de2 += kappa * inj[k + 1]

        e = e + 0.5 * (de1 + de2) * dt + noise
        n = n + 0.5 * (dn1 + dn2) * dt

        s_new = e.real * e.real + e.imag * e.imag
        if not (math.isfinite(s_new) and math.isfinite(n)) or s_new > _DIVERGENCE_INTENSITY:
            raise IntegrationDivergedError(k + 1, s_new, n)
        field[k + 1] = e
        carrier[k + 1] = n

    return FieldTrace.from_field(times, field, carrier)


def integrate_ensemble(
    params: LaserParams,
    drive: DriveWaveform,
    n_runs: int,
    rng_seed: int = 0,
    dt: float = 2e-13,
    initial_field: complex = 0j,
    initial_carrier: float = 0.0,
) -> tuple[np.ndarray, np.ndarray]:
    """Integrate `n_runs` copies of the rate equations at once, without injection.

    All runs share the pump; with spontaneous_fraction > 0 each run draws
    its own Langevin noise from one generator.  Returns the final field
    and the final carrier of each run, keeping only the current state.
    The step is that of :func:`integrate` in real arithmetic, in the order
    of Python's complex operations, so a noiseless run equals
    :func:`integrate` bit for bit.
    """
    if dt > params.photon_lifetime / 10.0:
        raise PreconditionError("dt must be <= photon_lifetime / 10")
    if n_runs < 1:
        raise PreconditionError("n_runs must be >= 1")

    t0 = float(drive.times[0])
    n_steps = int(math.floor(drive.duration / dt + 1e-9))
    times = t0 + dt * np.arange(n_steps + 1)
    pump = np.interp(times, drive.times, drive.current)

    tau_n = params.carrier_lifetime
    inv_tau_p = 1.0 / params.photon_lifetime
    g = params.gain_slope
    n_tr = params.transparency_carrier
    eps = params.gain_compression
    half_alpha = 0.5 * params.linewidth_enhancement
    beta = params.spontaneous_fraction
    rng = np.random.default_rng(rng_seed)

    def derivatives(er, ei, n, pump_k):
        # (0.5 (gc - 1/tau_p) + 0.5j alpha (gu - 1/tau_p)) * E as Python
        # multiplies complex numbers: (ar br - ai bi) + (ar bi + ai br) i
        s = er * er + ei * ei
        gu = g * (n - n_tr)
        gc = gu / (1.0 + eps * s)
        ar = 0.5 * (gc - inv_tau_p)
        ai = half_alpha * (gu - inv_tau_p)
        return ar * er - ai * ei, ar * ei + ai * er, pump_k - n / tau_n - gc * s

    e0 = complex(initial_field)
    er = np.full(n_runs, e0.real)
    ei = np.full(n_runs, e0.imag)
    n = np.full(n_runs, float(initial_carrier))

    for k in range(n_steps):
        der1, dei1, dn1 = derivatives(er, ei, n, pump[k])
        epr = er + der1 * dt
        epi = ei + dei1 * dt
        if beta > 0.0:
            amp = np.sqrt(np.maximum(n, 0.0) * (beta / tau_n * dt * 0.5))
            z = rng.standard_normal((2, n_runs))
            nr, ni = amp * z[0], amp * z[1]
            epr += nr
            epi += ni
        der2, dei2, dn2 = derivatives(epr, epi, n + dn1 * dt, pump[k + 1])

        er = er + 0.5 * (der1 + der2) * dt
        ei = ei + 0.5 * (dei1 + dei2) * dt
        if beta > 0.0:
            er += nr
            ei += ni
        n = n + 0.5 * (dn1 + dn2) * dt

        s = er * er + ei * ei
        if not (s.max() <= _DIVERGENCE_INTENSITY and np.isfinite(n).all()):
            bad = ~(np.isfinite(s) & np.isfinite(n)) | (s > _DIVERGENCE_INTENSITY)
            run = int(np.argmax(bad))
            raise IntegrationDivergedError(k + 1, s[run], n[run], run)

    field = np.empty(n_runs, dtype=complex)
    field.real, field.imag = er, ei
    return field, n


def instantaneous_frequency(trace: FieldTrace) -> tuple[np.ndarray, np.ndarray]:
    """Chirp Delta-nu(t) from central differences of the unwrapped phase.

    Returns (times, chirp) of length len(trace) - 2.  The whole trace
    must sit above the extinction floor for the phase to be meaningful.
    """
    if len(trace) < 3:
        raise PreconditionError("trace too short for central differences")
    floor = trace.extinction_floor
    if np.any(trace.intensity < floor):
        raise UndefinedPhaseError("span includes extinguished samples")
    dt = np.diff(trace.times)
    chirp = (trace.phase[2:] - trace.phase[:-2]) / (dt[1:] + dt[:-1]) / TWO_PI
    return trace.times[1:-1], chirp


def locked_phase_offset(master: FieldTrace, slave: FieldTrace, window: tuple[float, float]) -> float:
    """Circular mean of slave - master phase over a time window, in (-pi, pi]."""
    t0, t1 = window
    if not t1 > t0:
        raise PreconditionError("window must have positive duration")
    sel = (slave.times >= t0) & (slave.times <= t1)
    if not np.any(sel):
        raise PreconditionError("window contains no samples")
    times = slave.times[sel]
    if np.min(slave.intensity[sel]) < slave.extinction_floor:
        raise UndefinedPhaseError("slave extinguished inside window")
    m_int = np.interp(times, master.times, master.intensity)
    if np.min(m_int) < master.extinction_floor:
        raise UndefinedPhaseError("master extinguished inside window")
    m_phase = np.interp(times, master.times, master.phase)
    diff = slave.phase[sel] - m_phase
    mean = np.mean(np.exp(1j * diff))
    offset = cmath.phase(complex(mean))
    if offset <= -math.pi:
        offset += TWO_PI
    return offset


def export_trace_csv(trace: FieldTrace, path) -> None:
    """Write a trace as CSV with columns time_s, intensity, carrier, phase_rad."""
    data = np.column_stack([trace.times, trace.intensity, trace.carrier, trace.phase])
    np.savetxt(path, data, delimiter=",", header="time_s,intensity,carrier,phase_rad", comments="")
