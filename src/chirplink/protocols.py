"""BB84 and differential-phase-shift encoding, sifting and link statistics.

BB84 encodes each symbol on a pulse pair (coherence block of two) as a
differential phase from {0, pi/2, pi, 3pi/2}; the receiver's basis is a
fair coin per pair (passive 50/50 choice) and only the central
interference slot of matched-basis pairs is sifted.  DPS encodes one bit
per pulse as a 0/pi phase step relative to the preceding pulse, and
every interference slot is sifted.

The Monte Carlo draws counts, not slots, and is exact in distribution:
after basis matching (Bob's X decoder cancels the basis phase) each
sifted slot interferes two equal pulses with phase difference bit * pi,
so its clicks depend only on its bit, and each slot is independently
sifted with an error, sifted without one, or not sifted (a fair coin
settles a double click).  A link's counts are one multinomial draw over
those three outcomes.  An effect that correlates slots (afterpulsing,
dead time, a drifting phase) would need per-slot draws again.

The draw and the analytic curve read one law: link_law gives, at each
channel transmittance, the chance that a matched-basis slot is sifted
with an error (p_error), sifted without one (p_correct) or not sifted,
from the decoder's port intensities and the detectors' click
probabilities.  simulate_links draws every loss's counts from it, scaled
by the chance that the bases match (1/2 for BB84, 1 for DPS), in one
multinomial call; the gain is Q = p_error + p_correct and the QBER
E = p_error / Q.  For BB84, mu is the pulse pair's mean photon number,
so each pulse carries mu/2 and half of the pair's energy interferes in
the discarded satellite slots; for DPS, mu is per pulse.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import PreconditionError
from .optics import (
    ChannelParams,
    DetectorParams,
    InterferometerParams,
    click_probability,
    decoder_ports,
)

BB84 = "bb84"
DPS = "dps"


@dataclass(frozen=True)
class SiftResult:
    sifted_count: int
    error_count: int
    qber: float
    sifted_rate_bps: float

    def __post_init__(self):
        if not 0 <= self.error_count <= self.sifted_count:
            raise PreconditionError("error_count must be within [0, sifted_count]")


def vacuum_yield(det: DetectorParams) -> float:
    """Probability of a dark click on either detector within one gate."""
    return 1.0 - (1.0 - det.dark_probability) ** 2


def link_law(
    mean_photon_number: float | np.ndarray,
    transmittance: np.ndarray,
    mzi: InterferometerParams,
    det: DetectorParams,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(p_error, p_correct, rest): the chance that a matched-basis slot is
    sifted with an error, sifted without one, or not sifted, one element
    per channel transmittance (and one row per mean photon number, if
    given as a column).

    Both pulses of the slot carry mean_photon_number times the
    transmittance and differ in phase by bit * pi.  Per bit, the right
    and the wrong port click with probability r and w, and a fair coin
    breaks a tie.
    """
    mu = mean_photon_number * np.asarray(transmittance, dtype=float)
    (r0, w0), (w1, r1) = decoder_ports(mu, mu, 0.0, mzi), decoder_ports(mu, mu, math.pi, mzi)
    clicks = click_probability(np.stack([r0, r1, w0, w1]), det)
    r, w = clicks[:2], clicks[2:]
    # summed over the two bits; rest >= 0 by construction, where
    # 1 - p_error - p_correct is -1e-16 at some certain clicks
    error, correct, rest = w * (1.0 - r / 2.0), r * (1.0 - w / 2.0), (1.0 - r) * (1.0 - w)
    return 0.5 * (error[0] + error[1]), 0.5 * (correct[0] + correct[1]), 0.5 * (rest[0] + rest[1])


def gain_qber(law) -> tuple[np.ndarray, np.ndarray]:
    """Gain and QBER of a matched-basis slot under a link_law; the QBER is 0
    where the gain is 0."""
    p_error, p_correct, _ = law
    gain = p_error + p_correct
    # p_error is 0 where the gain is
    return gain, p_error / np.where(gain > 0, gain, 1.0)


def expected_gain_qber_axis(
    protocol: str,
    mu: float,
    transmittance: np.ndarray,
    mzi: InterferometerParams,
    det: DetectorParams,
) -> tuple[np.ndarray, np.ndarray]:
    """gain_qber of the link_law at each channel transmittance: for BB84, mu is
    the pulse pair's mean photon number and the gain is per matched-basis
    pair; for DPS, mu is per pulse and the gain is per interference slot."""
    if mu < 0:
        raise PreconditionError("mu must be >= 0")
    if protocol == BB84:
        mu = mu / 2.0
    elif protocol != DPS:
        raise PreconditionError(f"unknown protocol {protocol!r}")
    return gain_qber(link_law(mu, transmittance, mzi, det))


def expected_gain_qber(
    protocol: str,
    mu: float,
    channel: ChannelParams,
    mzi: InterferometerParams,
    det: DetectorParams,
) -> tuple[float, float]:
    """expected_gain_qber_axis at one channel."""
    gain, qber = expected_gain_qber_axis(protocol, mu, np.array([channel.transmittance]), mzi, det)
    return float(gain[0]), float(qber[0])


def simulate_links(protocol: str, n: int, clock_rate: float, law, rng_seed: int) -> list[SiftResult]:
    """Monte Carlo link at each transmittance of a link_law, all in one
    multinomial draw from one generator.

    BB84 sifts the central slots of n pulse pairs' matched-basis pairs, DPS
    the n - 1 slots of one coherence block of n pulses.
    """
    if protocol == BB84:
        if n < 1:
            raise PreconditionError("n_pairs must be >= 1")
        n_slots, n_pulses, match = n, 2 * n, 0.5
    elif protocol == DPS:
        if n < 2:
            raise PreconditionError("n_pulses must be >= 2")
        n_slots, n_pulses, match = n - 1, n, 1.0
    else:
        raise PreconditionError(f"unknown protocol {protocol!r}")
    p_error, p_correct, rest = law
    p = np.stack([match * p_error, match * p_correct, (1.0 - match) + match * rest], axis=-1)
    draws = np.random.default_rng(rng_seed).multinomial(n_slots, p)
    sifted = draws[:, 0] + draws[:, 1]
    return [
        SiftResult(k, e, e / k if k else 0.0, k * clock_rate / n_pulses)
        for k, e in zip(sifted.tolist(), draws[:, 0].tolist())
    ]
