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
so within a bit class its outcome (no click, port 0 only, port 1 only,
both) is i.i.d. categorical, their sums are multinomial, and the fair
double-click coin makes the errors binomial.  An effect that correlates
slots (afterpulsing, dead time, a drifting phase) would need per-slot
draws again.

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
the click model in click_model.  Only the Monte Carlo draws run per
loss, each from its own generator.  One channel is the one-element case
of the same functions (expected_gain_qber wraps it for the closed form).
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


def _sample_link(
    protocol: str, n_slots: int, n_pulses: int, clicks: list, clock_rate: float, rng_seed: int
) -> SiftResult:
    """Sift counts of n_slots slots, drawn class by class from one generator:
    BB84's matched pairs (a fair basis coin per pair), the bit-1 slots, per
    bit the (none, port 0 only, port 1 only, both) split, and the errors
    among the double clicks (a fair tie coin).  clicks[bit][port] is a row
    of click_model.
    """
    rng = np.random.default_rng(rng_seed)
    if protocol == BB84:
        n_slots = rng.binomial(n_slots, 0.5)
    ones = rng.binomial(n_slots, 0.5)
    sifted = errors = doubles = 0
    for bit, n in ((0, n_slots - ones), (1, ones)):
        a, b = clicks[bit]
        _, only0, only1, both = rng.multinomial(
            n, [(1 - a) * (1 - b), a * (1 - b), (1 - a) * b, a * b]
        )
        sifted += int(only0 + only1 + both)
        errors += int(only0 if bit else only1)
        doubles += int(both)
    errors += int(rng.binomial(doubles, 0.5))
    qber = errors / sifted if sifted else 0.0
    return SiftResult(sifted, errors, qber, sifted * clock_rate / n_pulses)


def simulate_links(
    protocol: str,
    n: int,
    config: SourceConfig,
    transmittance: np.ndarray,
    mzi: InterferometerParams,
    det: DetectorParams,
    rng_seeds: list[int],
) -> list[SiftResult]:
    """Monte Carlo link at each transmittance, each drawn from its own seed.

    BB84 sifts the central slots of n pulse pairs' matched-basis pairs, DPS
    the n - 1 slots of one coherence block of n pulses.  The click model is
    built once over all transmittances; only the draws run per link.
    """
    if protocol == BB84:
        if n < 1:
            raise PreconditionError("n_pairs must be >= 1")
        n_slots, n_pulses = n, 2 * n
    elif protocol == DPS:
        if n < 2:
            raise PreconditionError("n_pulses must be >= 2")
        n_slots, n_pulses = n - 1, n
    else:
        raise PreconditionError(f"unknown protocol {protocol!r}")
    model = click_model(config.mean_photon_number, transmittance, mzi, det).tolist()
    return [
        _sample_link(protocol, n_slots, n_pulses, clicks, config.clock_rate, seed)
        for clicks, seed in zip(model, rng_seeds, strict=True)
    ]
