"""Channel attenuation, asymmetric Mach-Zehnder decoding and gated detection.

Pulses are delta-like slots; only per-slot phases and mean photon
numbers propagate.  The interferometer's delay is one slot, the pulse
separation, by construction: it combines each pulse with the one before
it.  The effective visibility folds source seeding fidelity and decoder
imperfection into one number.
Detection is a threshold model with Poisson click statistics and a dark
count probability per gate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import PreconditionError, require_finite


@dataclass(frozen=True)
class ChannelParams:
    loss_db: float = 0.0
    loss_per_km: float = 0.2

    def __post_init__(self):
        require_finite(self)
        if self.loss_db < 0:
            raise PreconditionError("loss_db must be >= 0")
        if self.loss_per_km < 0:
            raise PreconditionError("loss_per_km must be >= 0")

    @property
    def transmittance(self) -> float:
        return float(transmittances([self.loss_db])[0])


def transmittances(losses_db) -> np.ndarray:
    """Power transmittance 10 ** (-loss / 10) of each loss in dB, as an array."""
    if any(loss < 0 for loss in losses_db):
        raise PreconditionError("loss_db must be >= 0")
    return np.array([10.0 ** (-loss / 10.0) for loss in losses_db])


@dataclass(frozen=True)
class InterferometerParams:
    internal_phase: float = 0.0
    insertion_loss_db: float = 3.0
    visibility: float = 1.0

    def __post_init__(self):
        require_finite(self)
        if self.insertion_loss_db < 0:
            raise PreconditionError("insertion_loss_db must be >= 0")
        if not 0.0 <= self.visibility <= 1.0:
            raise PreconditionError("visibility must be in [0, 1]")

    @property
    def loss_factor(self) -> float:
        return 10.0 ** (-self.insertion_loss_db / 10.0)


@dataclass(frozen=True)
class DetectorParams:
    efficiency: float = 0.14
    dark_rate: float = 150.0
    gate_width: float = 0.25e-9

    def __post_init__(self):
        require_finite(self)
        if not 0.0 <= self.efficiency <= 1.0:
            raise PreconditionError("efficiency must be in [0, 1]")
        if self.dark_rate < 0:
            raise PreconditionError("dark_rate must be >= 0")
        if not self.gate_width > 0:
            raise PreconditionError("gate_width must be positive")
        if self.dark_probability > 1.0:
            raise PreconditionError(
                "dark_rate * gate_width is the dark click probability per gate and must be <= 1"
            )

    @property
    def dark_probability(self) -> float:
        """Dark click probability within one detection gate."""
        return self.dark_rate * self.gate_width


def decoder_ports(mu_late, mu_early, dphi, mzi: InterferometerParams):
    """Mean photon numbers at the two decoder ports for interfering pulses.

    `dphi` is the late pulse's phase minus the early pulse's.  Port 0 is
    the constructive port at zero phase difference.  Port intensities
    sum to loss_factor times the mean of the two pulses' photon numbers
    (exact energy conservation by construction).
    """
    total = mzi.loss_factor * (0.5 * mu_late + 0.5 * mu_early)
    # capped, as half of a subnormal total can round up and leave port 1 < 0
    port0 = np.minimum(0.5 * total * (1.0 + mzi.visibility * np.cos(dphi + mzi.internal_phase)), total)
    return port0, total - port0


def click_probability(mean_photons, det: DetectorParams):
    """Threshold-detector click probability of each slot of given mean photons, as an array."""
    mean_photons = np.asarray(mean_photons, dtype=float)
    if (mean_photons < 0).any():
        raise PreconditionError("mean_photons must be >= 0")
    # math.exp, element by element: np.exp's bits depend on the SIMD level numpy dispatches to
    from math import exp

    no_dark, efficiency = 1.0 - det.dark_probability, det.efficiency
    clicks = [1.0 - no_dark * exp(-x * efficiency) for x in mean_photons.ravel().tolist()]
    return np.array(clicks).reshape(mean_photons.shape)
