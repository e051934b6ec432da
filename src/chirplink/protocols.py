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

The analytic gain/QBER model mirrors the Monte Carlo path:

    Q = 1 - (1 - Y0) exp(-mu * eta_tot)
    E = [e_det (1 - exp(-mu * eta_tot)) + Y0/2] / Q

with e_det = (1 - V cos theta)/2 for the decoder's internal phase theta,
Y0 = 1 - (1 - p_dark)^2 (two detectors), and

    BB84: mu = mean photons per pair,  eta_tot = T_ch * 1/2 * L_mzi * eta_det
    DPS:  mu = mean photons per pulse, eta_tot = T_ch * L_mzi * eta_det

The BB84 factor 1/2 is the pair-geometry duty factor: half of the
pair's energy interferes in the discarded satellite slots.  The passive
basis choice is a bookkeeping coin, not an extra optical loss; its
factor 1/2 enters the sifted rate and the key-rate sift factor, not Q.
The closed form matches the Monte Carlo's click model up to O((mu eta)^3).

A sweep evaluates both over its whole loss axis at once, one element per
channel transmittance: the closed form in expected_gain_qber_axis and
the click model in click_model; simulate_links draws every loss's
counts in one multinomial call from one generator.  One channel is the
one-element case of the same functions (expected_gain_qber wraps it for
the closed form).
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
from .source import SourceConfig

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


def expected_gain_qber_axis(
    protocol: str,
    mu: float,
    transmittance: np.ndarray,
    mzi: InterferometerParams,
    det: DetectorParams,
) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form gain and QBER of the threshold-detector link model, one
    element per channel transmittance; the QBER is 0 where the gain is 0.

    For BB84, mu is the mean photon number of the pulse pair and the
    gain is per matched-basis pair; for DPS, mu is per pulse and the
    gain is per interference slot.
    """
    if mu < 0:
        raise PreconditionError("mu must be >= 0")
    if protocol == BB84:
        duty = 0.5
    elif protocol == DPS:
        duty = 1.0
    else:
        raise PreconditionError(f"unknown protocol {protocol!r}")
    eta_tot = np.asarray(transmittance, dtype=float) * duty * mzi.loss_factor * det.efficiency
    y0 = vacuum_yield(det)
    e_det = 0.5 * (1.0 - mzi.visibility * math.cos(mzi.internal_phase))
    # math.exp, element by element: np.exp rounds some doubles differently,
    # and the rate curves are recorded with these bits
    exp = np.array([math.exp(x) for x in (-mu * eta_tot).tolist()])
    signal = 1.0 - exp
    gain = 1.0 - (1.0 - y0) * exp
    with np.errstate(divide="ignore", invalid="ignore"):
        qber = np.where(gain > 0, (e_det * signal + 0.5 * y0) / gain, 0.0)
    return gain, qber


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


def click_model(
    mean_photon_number: float,
    transmittance: np.ndarray,
    mzi: InterferometerParams,
    det: DetectorParams,
) -> np.ndarray:
    """Click probabilities of a sifted slot, indexed (transmittance, bit, port).

    Both pulses of the slot carry mean_photon_number times the
    transmittance and differ in phase by bit * pi.
    """
    mu = mean_photon_number * np.asarray(transmittance, dtype=float)[:, None]
    port0, port1 = decoder_ports(mu, mu, np.array([0.0, math.pi]), mzi)
    return click_probability(np.stack([port0, port1], axis=-1), det)


def simulate_links(
    protocol: str,
    n: int,
    config: SourceConfig,
    transmittance: np.ndarray,
    mzi: InterferometerParams,
    det: DetectorParams,
    rng_seed: int,
) -> list[SiftResult]:
    """Monte Carlo link at each transmittance, all in one multinomial draw
    from one generator.

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
    clicks = click_model(config.mean_photon_number, transmittance, mzi, det)
    # a slot errs, is sifted without error, or is not; per bit, the right and the
    # wrong port click with probability r and w, and a fair coin breaks a tie
    right, wrong = clicks[:, [0, 1], [0, 1]], clicks[:, [0, 1], [1, 0]]
    p_error = match * 0.5 * (wrong * (1.0 - right / 2.0)).sum(axis=1)
    p_correct = match * 0.5 * (right * (1.0 - wrong / 2.0)).sum(axis=1)
    # >= 0 by construction: 1 - p_error - p_correct is -1e-16 at some certain clicks
    rest = (1.0 - match) + match * 0.5 * ((1.0 - right) * (1.0 - wrong)).sum(axis=1)
    p = np.stack([p_error, p_correct, rest], axis=-1)
    draws = np.random.default_rng(rng_seed).multinomial(n_slots, p)
    sifted = draws[:, 0] + draws[:, 1]
    return [
        SiftResult(k, e, e / k if k else 0.0, k * config.clock_rate / n_pulses)
        for k, e in zip(sifted.tolist(), draws[:, 0].tolist())
    ]
