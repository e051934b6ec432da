"""Phenomenological model of the chirp-phase-modulated pulse source.

A drive-voltage perturbation of duration t_m detunes the seed laser by a
chirp dnu, which accrues a phase step dphi = 2*pi*dnu*t_m between the
short pulses seeded before and after the perturbation.  The voltage to
chirp map is linear and calibrated through the halfwave voltage: at
V = V_pi the accumulated phase is exactly pi.

These closed-form maps are the fast path; the laser module provides the
slow physical path, and agreement between the two is checked by tests,
not at runtime.  `SourceConfig` also carries the clock rate and mean
photon number that the link models read.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import PreconditionError, require_finite


@dataclass(frozen=True)
class SourceConfig:
    clock_rate: float = 2e9
    halfwave_voltage: float = 0.35
    perturbation_duration: float = 250e-12
    mean_photon_number: float = 0.25

    def __post_init__(self):
        require_finite(self)
        if not 0 < self.clock_rate * 2.0**63 < math.inf:
            raise PreconditionError("clock_rate must be positive, and finite times 2**63 counts")
        if self.halfwave_voltage <= 0:
            raise PreconditionError("halfwave_voltage must be positive")
        if self.perturbation_duration <= 0:
            raise PreconditionError("perturbation_duration must be positive")
        # phase_from_voltage's 1 / product: a subnormal product is not 0, but its reciprocal is inf
        product = 2.0 * self.halfwave_voltage * self.perturbation_duration
        if product == 0.0 or math.isinf(1.0 / product):
            raise PreconditionError("1 / (2 halfwave_voltage * perturbation_duration) overflows")
        if self.mean_photon_number < 0:
            raise PreconditionError("mean_photon_number must be >= 0")


def chirp_to_phase(delta_nu: float, t_m: float) -> float:
    """Signed phase step accrued by a chirp delta_nu held for t_m seconds."""
    if t_m <= 0:
        raise PreconditionError("t_m must be positive")
    return math.tau * delta_nu * t_m


def phase_from_voltage(voltage: float, config: SourceConfig) -> float:
    """Signed output phase for a voltage perturbation of the default duration (elementwise on an array)."""
    t_m = config.perturbation_duration
    return chirp_to_phase((1.0 / (2.0 * config.halfwave_voltage * t_m)) * voltage, t_m)
