"""Phenomenological model of the chirp-phase-modulated pulse source.

A drive-voltage perturbation of duration t_m detunes the seed laser by a
chirp dnu, which accrues a phase step dphi = 2*pi*dnu*t_m between the
short pulses seeded before and after the perturbation.  The voltage to
chirp map is linear and calibrated through the halfwave voltage: at
V = V_pi the accumulated phase is exactly pi.

This is the fast path used for Monte Carlo link simulations (millions of
pulses); the laser module provides the slow physical path, and agreement
between the two is checked by tests, not at runtime.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import PreconditionError

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class SourceConfig:
    clock_rate: float = 2e9
    pulse_width: float = 70e-12
    halfwave_voltage: float = 0.35
    perturbation_duration: float = 250e-12
    mean_photon_number: float = 0.25

    def __post_init__(self):
        if self.clock_rate <= 0:
            raise PreconditionError("clock_rate must be positive")
        if not 0 < self.pulse_width < 1.0 / self.clock_rate:
            raise PreconditionError("pulse_width must fit inside one clock period")
        if self.halfwave_voltage <= 0:
            raise PreconditionError("halfwave_voltage must be positive")
        if self.perturbation_duration <= 0:
            raise PreconditionError("perturbation_duration must be positive")
        if 2.0 * self.halfwave_voltage * self.perturbation_duration == 0.0:
            raise PreconditionError("halfwave_voltage * perturbation_duration underflows to 0")
        if self.mean_photon_number < 0:
            raise PreconditionError("mean_photon_number must be >= 0")


@dataclass(frozen=True)
class PulseTrain:
    """Array-backed pulse sequence; slot i is pulses[i] of the source clock."""

    phases: np.ndarray
    mean_photons: np.ndarray
    block_ids: np.ndarray
    global_phases: np.ndarray
    config: SourceConfig

    def __post_init__(self):
        n = len(self.phases)
        if not (len(self.mean_photons) == len(self.block_ids) == len(self.global_phases) == n):
            raise PreconditionError("pulse train arrays must have equal length")
        if np.any(np.diff(self.block_ids) < 0):
            raise PreconditionError("block ids must be non-decreasing")

    def __len__(self) -> int:
        return len(self.phases)


def chirp_to_phase(delta_nu: float, t_m: float) -> float:
    """Signed phase step accrued by a chirp delta_nu held for t_m seconds."""
    if t_m <= 0:
        raise PreconditionError("t_m must be positive")
    return TWO_PI * delta_nu * t_m


def voltage_to_chirp(voltage: float, config: SourceConfig) -> float:
    """Linear drive-voltage to chirp map calibrated by the halfwave voltage."""
    kappa = 1.0 / (2.0 * config.halfwave_voltage * config.perturbation_duration)
    return kappa * voltage


def phase_from_voltage(voltage: float, config: SourceConfig) -> float:
    """Signed output phase for a voltage perturbation of the default duration."""
    return chirp_to_phase(voltage_to_chirp(voltage, config), config.perturbation_duration)


def emit_train(
    config: SourceConfig,
    phase_symbols,
    randomize_blocks: bool,
    rng_seed: int,
) -> PulseTrain:
    """Assemble the emitted pulse train from per-slot phase symbols.

    Pulses are grouped into coherence blocks of two, the pulse pairs that
    BB84 encodes on; with randomization on, each block gets an independent
    uniform global phase (cavity depletion between seed pulses), added to
    both pulses of the block.  All pulses carry the same mean photon
    number, since every short pulse is seeded by the unmodulated part of
    the injected light.
    """
    symbols = np.asarray(phase_symbols, dtype=float)
    if symbols.size == 0:
        raise PreconditionError("phase_symbols must be non-empty")
    n = symbols.size
    block_ids = np.arange(n) // 2
    n_blocks = int(block_ids[-1]) + 1
    if randomize_blocks:
        rng = np.random.default_rng(rng_seed)
        block_phases = rng.uniform(0.0, TWO_PI, n_blocks)
    else:
        block_phases = np.zeros(n_blocks)
    global_phases = block_phases[block_ids]
    phases = np.mod(symbols + global_phases, TWO_PI)
    mean_photons = np.full(n, config.mean_photon_number)
    return PulseTrain(phases, mean_photons, block_ids, global_phases, config)

