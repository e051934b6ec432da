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

F(t), spontaneous emission into the lasing mode, has per-step variance
beta * N / tau_n * dt from two-point increments: +1 or -1 with equal odds
(mean 0, variance 1) in each quadrature, the raw bits of a PCG64
generator, a quarter of a byte per run-step.  They keep the scheme's weak
order 1 (Kloeden & Platen, Numerical Solution of SDEs, ch. 14), and no
host's floating-point library changes them.  The drive J is a pump rate
in carriers per second; the lasing threshold is J_th = N_th / tau_n with
N_th = N_tr + 1/(g tau_p).

Default parameters give a relaxation-oscillation frequency of 4.62 GHz,
damped at 10.9 /ns, at twice the threshold current (3.40 GHz and 5.79 /ns
at 1.5 times), typical for a telecom DFB diode; they are illustrative, not
fitted to a particular device.
"""

from __future__ import annotations

import cmath
import ctypes
import functools
import math
import os
import tempfile
from dataclasses import dataclass

import numpy as np

from .errors import IntegrationDivergedError, PreconditionError, require_finite
from .source import SourceConfig

# Injection detuning beyond this is outside the validity window of the
# single-mode locking model.
MAX_DETUNING_HZ = 20e9

# Below this fraction of the peak intensity the optical phase is
# noise-dominated and treated as undefined.
EXTINCTION_FLOOR_FRACTION = 1e-3

# The Heun kernel: its source, compiled on first use, and the gcc flags.
# -ffp-contract=off keeps gcc from fusing a multiply and an add (its
# default on aarch64), which would change the last bits of a step.
# -ftree-vectorize steps several runs at once (-O2 alone leaves the loop
# over runs scalar), and -fno-math-errno lets sqrt vectorize; it changes no
# value, only whether a negative argument would set errno.
_KERNEL_SOURCE = os.path.join(os.path.dirname(__file__), "_heun.c")
_CFLAGS = ("-O2", "-ftree-vectorize", "-fno-math-errno", "-shared", "-fPIC", "-ffp-contract=off")

# The kernel's integer type, converted from ctypes once.
_LONG = np.dtype(ctypes.c_long)

# The rate-equation step: physical_phase's, and integrate's and
# integrate_ensemble's default.  physical_phase steps a window of one
# sample of the bias, the perturbation, then _POST for the laser to settle.
_DT = 2e-13
_POST = 1.5e-9
# At most this many steps in each run's window, not a bound on the number
# of runs; with no trace and three pump segments a run, it bounds the time,
# not the memory (30 voltages at the cap: ~0.2 s, ~40 MiB on one x86_64 core).
_MAX_STEPS = 1e6


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
    detuning: float = 0.0

    def __post_init__(self):
        require_finite(self)
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
        if abs(self.detuning) > MAX_DETUNING_HZ:
            raise PreconditionError(f"detuning must be within +/-{MAX_DETUNING_HZ:.0e} Hz")

    @property
    def threshold_carrier(self) -> float:
        return self.transparency_carrier + 1.0 / (self.gain_slope * self.photon_lifetime)

    @property
    def threshold_current(self) -> float:
        return self.threshold_carrier / self.carrier_lifetime


@dataclass(frozen=True)
class DriveWaveform:
    """Pump rate in carriers per second, piecewise linear through its samples
    at any strictly increasing, finite times, as np.interp reads them."""

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
        if np.any(np.diff(times) <= 0):
            raise PreconditionError("drive times must be strictly increasing")

    @property
    def duration(self) -> float:
        return float(self.times[-1] - self.times[0])

    @classmethod
    def constant(cls, level: float, duration: float, sample_interval: float) -> "DriveWaveform":
        return cls.from_segments([(duration, level)], sample_interval)

    @classmethod
    def from_segments(cls, segments, sample_interval: float) -> "DriveWaveform":
        """Build a drive of held levels from (duration, level) pairs, joined by one-sample ramps.

        Each segment holds its level for round(duration / sample_interval)
        samples, and the drive ends on one more sample of the last level.
        """
        if not sample_interval > 0.0:
            raise PreconditionError("drive sample_interval must be > 0")
        counts, levels = [], []
        for duration, level in segments:
            if not 0.0 <= duration < math.inf:
                raise PreconditionError(f"drive segment duration {duration!r} must be finite and >= 0")
            counts.append(int(round(duration / sample_interval)))
            levels.append(float(level))
        if sum(counts) == 0:
            raise PreconditionError("drive segments must span at least one sample")
        current = np.repeat(levels, counts)
        current = np.append(current, current[-1])
        return cls(np.arange(current.size) * sample_interval, current)


@dataclass(frozen=True)
class FieldTrace:
    """Sampled complex field and carrier number, with the unwrapped phase."""

    times: np.ndarray
    field: np.ndarray
    carrier: np.ndarray

    @functools.cached_property
    def phase(self) -> np.ndarray:
        return np.unwrap(np.angle(self.field))

    @property
    def intensity(self) -> np.ndarray:
        return np.abs(self.field) ** 2

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


def _target() -> tuple[str, ...]:
    """gcc's target flag for this CPU, from /proc/cpuinfo, as _heun.c's top describes."""
    try:
        with open("/proc/cpuinfo") as fh:
            flags = next((line.split() for line in fh if line.startswith("flags")), [])
    except OSError:  # no /proc, so no flags
        flags = []
    return next(((f"-m{isa}",) for isa in ("avx512f", "avx2") if isa in flags), ())


@functools.cache
def _heun():
    """The kernel of _heun.c, compiled by gcc on first use, once per machine.

    It is built for this CPU, with _target()'s flag.  The library is cached
    under $XDG_CACHE_HOME/chirplink (default ~/.cache/chirplink), named by
    the sha256 of the source, the gcc command with its target flag and the
    machine architecture; the cache is never swept, and a load writes
    nothing.  A build writes under a temporary name and moves the library
    into place, so runs that compile at once do not clash.  Where the cache
    cannot be written, it is built in a private temporary directory.
    """
    import hashlib  # here, so that importing chirplink loads no hashlib

    with open(_KERNEL_SOURCE, "rb") as fh:
        source = fh.read()
    command = ["gcc", *_CFLAGS, *_target(), "-x", "c", "-", "-lm"]
    # a cache shared between machines of two architectures or targets keeps one of each
    key = hashlib.sha256(source + " ".join([*command, os.uname().machine]).encode()).hexdigest()[:16]
    cache = os.path.join(os.environ.get("XDG_CACHE_HOME") or os.path.expanduser("~/.cache"), "chirplink")
    lib = os.path.join(cache, f"heun-{key}.so")
    private = None
    if not os.path.exists(lib):
        import subprocess  # only to compile

        try:
            os.makedirs(cache, exist_ok=True)
            fd, tmp = tempfile.mkstemp(suffix=".so", dir=cache)
        except OSError:  # an unwritable cache
            private = tempfile.mkdtemp(prefix="chirplink-")
            lib = os.path.join(private, "heun.so")
            fd, tmp = tempfile.mkstemp(suffix=".so", dir=private)
        os.close(fd)
        try:
            proc = subprocess.run([*command, "-o", tmp], input=source, capture_output=True)
            if proc.returncode:
                raise OSError(proc.stderr.decode(errors="replace").strip())
            os.replace(tmp, lib)
        except OSError as exc:
            raise OSError(f"the laser integrator needs gcc to compile {_KERNEL_SOURCE}: {exc}") from exc
        finally:
            if os.path.exists(tmp):
                os.remove(tmp)
    kernel = ctypes.CDLL(lib).chirplink_heun
    if private:  # the loaded library stays mapped
        os.remove(lib)
        os.rmdir(private)
    kernel.restype = None
    args = [ctypes.c_long] * 2 + [ctypes.c_double] * 9 + [ctypes.c_void_p] * 6
    kernel.argtypes = args + [ctypes.c_int] + [ctypes.c_void_p] * 2
    return kernel


def _check_dt(params: LaserParams, dt: float) -> None:
    if not 0.0 < dt <= params.photon_lifetime / 10.0:
        raise PreconditionError("dt must be > 0 and <= photon_lifetime / 10")


def integrate_pumps(
    params: LaserParams,
    pump: np.ndarray,
    dt: float,
    initial_field,
    initial_carrier,
    noise: np.ndarray | None = None,
    injection: np.ndarray | None = None,
    trace: bool = True,
    *,
    holds,
):
    """Integrate one run of the rate equations per column of `pump`.

    `pump` holds each run's pump rate as an (n_segments, n_runs) array of
    levels, and `holds` how many samples, `dt` apart, each row is held for:
    the pump at the n_steps + 1 sample times is np.repeat(pump, holds,
    axis=0).  The compiled kernel steps the runs in blocks, each with the
    arithmetic of a run alone.
    `initial_field` and `initial_carrier` are each run's state at sample 0,
    or one state for all.  `noise`, ceil(2 n_steps n_runs / 64) uint64
    words, packs the Langevin term's increments, scaled as in
    :func:`integrate`: bit i % 64 of word i // 64 is +1.0 where set, -1.0
    where clear, and i = (2 k + c) n_runs + j is run j's at step k, of Re E
    (c = 0) or Im E (c = 1).  `injection`, (n_steps + 1, n_runs) complex
    samples, is added with the coupling.

    Returns (field, carrier, diverged, turns).  field and carrier are
    (rows, n_runs) arrays: with `trace`, row k is sample k; without it, the
    one row is the last sample.  Either way row -1 is each run's last
    state.  diverged[j] is 0, or the sample index at which run j diverged;
    the run keeps that state in every later sample, so it is also its last
    state.  turns[j] is run j's signed count of the steps at which E
    crosses the negative real axis, as _heun.c counts them: its unwrapped
    phase at the last sample is np.angle(field[-1, j]) + 2 pi turns[j].
    """
    _check_dt(params, dt)
    pump = np.ascontiguousarray(pump, dtype=float)
    if pump.ndim != 2 or pump.size == 0:
        raise PreconditionError("pump must be an (n_segments, n_runs) array")
    if not np.isfinite(pump).all():
        raise PreconditionError("pump levels must be finite")
    holds = np.asarray(holds)
    if holds.shape != pump.shape[:1] or holds.dtype.kind not in "iu" or (holds < 1).any():
        raise PreconditionError("holds must be one integer >= 1 per row of pump")
    seg_end = holds.cumsum(dtype=_LONG)
    n_steps, n_runs = int(seg_end[-1]) - 1, pump.shape[1]
    if noise is not None:
        noise = np.ascontiguousarray(noise)
        if noise.dtype != np.uint64 or noise.shape != (-(-2 * n_steps * n_runs // 64),):
            raise PreconditionError("noise must be ceil(2 n_steps n_runs / 64) uint64 words")
    if injection is not None:
        injection = np.ascontiguousarray(injection, dtype=complex)
        if injection.shape != (n_steps + 1, n_runs):
            raise PreconditionError("injection must be an (n_steps + 1, n_runs) array")

    # every sample, or only row 0: the first sample in, the last out
    rows = n_steps + 1 if trace else 1
    field, carrier = np.empty((rows, n_runs), dtype=complex), np.empty((rows, n_runs))
    field[0], carrier[0] = initial_field, initial_carrier
    diverged = np.zeros(n_runs, dtype=_LONG)
    coefficients = (
        1.0 / params.carrier_lifetime,
        1.0 / params.photon_lifetime,
        params.gain_slope,
        params.transparency_carrier,
        params.gain_compression,
        0.5 * params.linewidth_enhancement,
        params.spontaneous_fraction,
        params.injection_coupling,
        dt,
    )
    counts = np.zeros(n_runs, dtype=_LONG)
    inputs = [None if a is None else a.ctypes.data for a in (pump, seg_end, injection, noise)]
    _heun()(
        n_steps, n_runs, *coefficients, *inputs, field.ctypes.data, carrier.ctypes.data, trace,
        diverged.ctypes.data, counts.ctypes.data,
    )
    return field, carrier, diverged, counts


def physical_phase(source: SourceConfig, voltages) -> np.ndarray:
    """Net phase of the noiseless rate-equation laser for a drive step of each voltage.

    The step per volt makes +V_pi give pi, in closed form from the integral
    of the adiabatic and transient chirp (Koch & Bowers, Electron. Lett. 20,
    1038 (1984)): a settled step dJ held for t accrues (alpha eps / 2) dS t
    / tau_p, with the stationary dS = dJ tau_p / (1 + eps / (g tau_n)), so
    pi takes dJ = 2 pi (1 + eps / (g tau_n)) / (alpha eps t), with t the
    step's count of _DT samples.

    The reference, the unperturbed laser, and each voltage are the runs of
    one kernel call, the reference first, each from the bias's stationary
    state with a pump of three held segments: one sample of the bias (the
    pump of the step's first Heun predictor, so the trapezoidal steps hold
    the level for t), the level, the bias.  A phase is its run's net phase,
    np.unwrap's over the whole window (the angle of the last sample plus
    2 pi per turn the kernel counts), minus the reference's.  A divergence
    raises and names the first diverging run in input order, the reference
    first, at its sample of the window.  Nothing refuses a step that leaves
    the model: at the defaults the bias is 2 J_th = 4e12 /s and the drive
    step 2.44e12 /s per volt, so its pump is under threshold below -0.819 V
    and negative below -1.638 V, integrated and written with no flag (the
    rule is left to ROADMAP item 10).
    """
    duration = source.perturbation_duration
    if not (duration / _DT > 0.5 and (duration + _POST) / _DT <= _MAX_STEPS):
        raise PreconditionError(
            f"physical_mode: source.perturbation_duration = {duration:g} s must span "
            f"1 to {_MAX_STEPS - _POST / _DT:,.0f} rate-equation steps of {_DT * 1e12:g} ps"
        )
    # samples of the step and of the bias after it, as
    # DriveWaveform.from_segments counts them; the drive ends on one more
    n_step, n_post = (int(round(t / _DT)) for t in (duration, _POST))
    quiet = LaserParams(spontaneous_fraction=0.0)
    eps, alpha, t_m = quiet.gain_compression, quiet.linewidth_enhancement, n_step * _DT
    step = math.tau * (1.0 + eps / (quiet.gain_slope * quiet.carrier_lifetime)) / (alpha * eps * t_m)
    with np.errstate(over="ignore"):
        drive_steps = (step / source.halfwave_voltage) * np.asarray(voltages, dtype=float)
    if not np.isfinite(drive_steps).all():
        raise PreconditionError("physical_mode: a voltage overflows the laser drive step")
    bias = 2.0 * quiet.threshold_current
    n0, s0 = stationary_state(quiet, bias)
    runs = np.append(bias, bias + drive_steps)
    ends = [bias] * len(runs)
    field, carrier, diverged, turns = integrate_pumps(
        quiet, [ends, runs, ends], _DT, complex(math.sqrt(s0)), n0,
        trace=False, holds=[1, n_step, n_post + 1],
    )
    if diverged.any():
        j = np.flatnonzero(diverged)[0]
        raise IntegrationDivergedError(diverged[j], field[-1, j], carrier[-1, j])
    # sample 0 is real and positive, at angle 0
    nets = np.angle(field[-1]) + math.tau * turns
    return (nets[1:] - nets[0]).reshape(drive_steps.shape)


def _run(params, drive, n_runs, seed, dt, initial_field, initial_carrier, injection=None, trace=False):
    """Step `n_runs` runs from one state under the pump of `drive`, every `dt`.

    The pump and the injection are np.interp of their samples at the step
    times, the injection turned by the detuning; the kernel holds each
    level of the pump for its stretch of equal samples.  With
    spontaneous_fraction > 0 the noise is the first ceil(2 n_steps n_runs
    / 64) raw words of a PCG64 generator seeded with `seed`.  Returns the
    step times and integrate_pumps' field and carrier rows.  A divergence
    raises for the run that diverges at the earliest sample, the
    lowest-numbered on a tie, naming it only among several runs.
    """
    _check_dt(params, dt)
    n_steps = int(math.floor(drive.duration / dt + 1e-9))
    times = float(drive.times[0]) + dt * np.arange(n_steps + 1)
    pump = np.interp(times, drive.times, drive.current)
    # a segment starts at each sample whose bits differ from the last one's
    bits = pump.view(np.uint64)
    starts = np.flatnonzero(np.r_[True, bits[1:] != bits[:-1]])
    pumps = np.broadcast_to(pump[starts, None], (len(starts), n_runs))
    inj = None
    if injection is not None and params.injection_coupling > 0.0:
        re, im = (np.interp(times, injection.times, x) for x in (injection.field.real, injection.field.imag))
        inj = ((re + 1j * im) * np.exp(1j * math.tau * params.detuning * (times - times[0])))[:, None]
    words = -(-2 * n_steps * n_runs // 64)
    xi = np.random.default_rng(seed).bit_generator.random_raw(words) if params.spontaneous_fraction else None
    field, carrier, diverged, _ = integrate_pumps(
        params, pumps, dt, initial_field, initial_carrier, xi, inj, trace,
        holds=np.diff(starts, append=len(pump)),
    )
    if diverged.any():
        run = int(np.argmin(np.where(diverged > 0, diverged, n_steps + 1)))
        raise IntegrationDivergedError(
            diverged[run], field[-1, run], carrier[-1, run], run if n_runs > 1 else None
        )
    return times, field, carrier


def integrate(
    params: LaserParams,
    drive: DriveWaveform,
    injection: FieldTrace | None = None,
    noise_seed: int = 0,
    dt: float = _DT,
    initial_field: complex = 1e-6 + 0j,
    initial_carrier: float = 0.0,
) -> FieldTrace:
    """Integrate the stochastic rate equations over the drive window.

    Fixed-step stochastic Heun scheme, run by the compiled kernel;
    deterministic for a fixed (params, drive, noise_seed, dt).  The
    Langevin term is applied to the field only.
    """
    times, field, carrier = _run(
        params, drive, 1, noise_seed, dt, initial_field, initial_carrier, injection, trace=True
    )
    return FieldTrace(times, field[:, 0], carrier[:, 0])


def integrate_ensemble(
    params: LaserParams,
    drive: DriveWaveform,
    n_runs: int,
    rng_seed: int = 0,
    dt: float = _DT,
    initial_field: complex = 0j,
    initial_carrier: float = 0.0,
) -> tuple[np.ndarray, np.ndarray]:
    """Integrate `n_runs` copies of the rate equations, without injection.

    All runs share the pump, and each draws its own Langevin noise, as
    :func:`_run` describes.  Returns the final field and the final carrier
    of each run.  Run j with `rng_seed` s is bit for bit :func:`integrate`
    fed run j's noise, so one run is integrate(noise_seed=s)'s last sample.
    """
    if n_runs < 1:
        raise PreconditionError("n_runs must be >= 1")
    _, field, carrier = _run(params, drive, n_runs, rng_seed, dt, initial_field, initial_carrier)
    return field[-1], carrier[-1]


def locked_phase_offset(master: FieldTrace, slave: FieldTrace, window: tuple[float, float]) -> float:
    """Circular mean of slave - master phase over a time window, in (-pi, pi].

    A window without samples, or one where the master or the slave is
    extinguished, is refused with a PreconditionError.
    """
    t0, t1 = window
    if not t1 > t0:
        raise PreconditionError("window must have positive duration")
    sel = (slave.times >= t0) & (slave.times <= t1)
    if not np.any(sel):
        raise PreconditionError("window contains no samples")
    times = slave.times[sel]
    if np.min(slave.intensity[sel]) < EXTINCTION_FLOOR_FRACTION * float(np.max(slave.intensity)):
        raise PreconditionError("slave extinguished inside window")
    m_int = np.interp(times, master.times, master.intensity)
    if np.min(m_int) < EXTINCTION_FLOOR_FRACTION * float(np.max(master.intensity)):
        raise PreconditionError("master extinguished inside window")
    m_phase = np.interp(times, master.times, master.phase)
    diff = slave.phase[sel] - m_phase
    mean = np.mean(np.exp(1j * diff))
    offset = cmath.phase(complex(mean))
    if offset <= -math.pi:
        offset += math.tau
    return offset


def export_trace_csv(trace: FieldTrace, path) -> None:
    """Write a trace as CSV with columns time_s, intensity, carrier, phase_rad."""
    from .experiments import write_table  # here, so that importing laser loads no recipes

    data = np.column_stack([trace.times, trace.intensity, trace.carrier, trace.phase])
    write_table(path, "time_s,intensity,carrier,phase_rad", data)
