"""Secure key rates: vacuum+weak decoy BB84 bound and a DPS bound.

The BB84 bound is the standard two-decoy (vacuum + weak) result:

    Y1 >= mu/(mu*nu - nu^2) * (Q_nu e^nu - Q_mu e^mu nu^2/mu^2
                               - (mu^2 - nu^2)/mu^2 * Y0)
    e1 <= (E_nu Q_nu e^nu - Y0/2) / (Y1 * nu)
    Q1  = Y1 * mu * exp(-mu)
    R   = 1/2 * max(0, -Q_mu f_ec H2(E_mu) + Q1 (1 - H2(e1)))

The DPS secure fraction transcribes the individual-attack bound with a
photon-number-splitting penalty,

    R = Q * max(0, -f_ec H2(e) + (1 - 2 mu) (1 - log2(1 + 4 e (1 - e))))

which is positive at e = 0, strictly decreasing in e, and zero at and
beyond its error threshold.

Both bounds take one link's numbers as Python floats, so bb84_rate_points
and dps_rate_points call them once per loss.  math.exp and math.log2 run
one number at a time, whatever SIMD level numpy dispatches to.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import ExperimentConfig, KeyRateConfig
from .errors import PreconditionError
from .optics import transmittances
from .protocols import gain_qber, link_law, vacuum_yield


def binary_entropy(x: float) -> float:
    """H2(x) in bits, with H2(0) = H2(1) = 0 (and 0 for NaN)."""
    if x < 0.0 or x > 1.0:
        raise PreconditionError("binary_entropy argument must be in [0, 1]")
    if not 0.0 < x < 1.0:
        return 0.0
    return -x * math.log2(x) - (1.0 - x) * math.log2(1.0 - x)


def decoy_bb84_rate(keyrate: KeyRateConfig, q_mu: float, q_nu: float, e_mu: float, e_nu: float, y0: float):
    """(rate, y1, e1): the vacuum + weak decoy lower bound on the secure
    fraction per signal and the single-photon yield and error bounds of one
    link.  Where Y1 <= 0 the rate is 0 and e1 is 1; where e1 > 1/2 the rate
    is 0.  KeyRateConfig has checked mu, nu and f_ec.
    """
    mu, nu = keyrate.mu, keyrate.nu
    for name, v in zip(("q_mu", "q_nu", "e_mu", "e_nu", "y0"), (q_mu, q_nu, e_mu, e_nu, y0)):
        if not 0.0 <= v <= 1.0:
            raise PreconditionError(f"{name} must be in [0, 1]")
    y1 = (mu / (mu * nu - nu * nu)) * (
        q_nu * math.exp(nu)
        - q_mu * math.exp(mu) * nu * nu / (mu * mu)
        - (mu * mu - nu * nu) / (mu * mu) * y0
    )
    if y1 <= 0.0:
        return 0.0, y1, 1.0
    num, den = e_nu * q_nu * math.exp(nu) - 0.5 * y0, y1 * nu
    # IEEE division where y1 * nu underflows to 0: +-inf, or NaN for 0 / 0
    e1 = num / den if den else math.copysign(math.inf, num) if num else math.nan
    if e1 < 0.0:
        e1 = 0.0
    if e1 > 0.5:
        return 0.0, y1, e1
    raw = -q_mu * keyrate.f_ec * binary_entropy(e_mu) + y1 * mu * math.exp(-mu) * (1.0 - binary_entropy(e1))
    # the bases agree in half of the signals
    return (0.5 * raw if raw > 0.0 else 0.0), y1, e1


def dps_rate(gain: float, qber: float, mu: float, f_ec: float) -> float:
    """Individual-attack DPS secure fraction per pulse of one link."""
    if not 0.0 <= gain <= 1.0:
        raise PreconditionError("gain must be in [0, 1]")
    if qber > 0.5 or qber < 0.0:
        raise PreconditionError("qber must be in [0, 1/2]")
    if mu < 0.0:
        raise PreconditionError("mu must be >= 0")
    pns = 1.0 - 2.0 * mu
    if pns <= 0.0:
        return 0.0
    fraction = -f_ec * binary_entropy(qber) + pns * (1.0 - math.log2(1.0 + 4.0 * qber * (1.0 - qber)))
    return gain * (fraction if fraction > 0.0 else 0.0)


@dataclass(frozen=True)
class RateCurve:
    """Analytic rates over a loss axis, one element per loss, and the link
    law at the signal, (p_error, p_correct, rest), they were computed from."""

    loss_db: np.ndarray
    sifted_rate_bps: np.ndarray
    qber: np.ndarray
    secure_rate_bps: np.ndarray
    law: tuple[np.ndarray, np.ndarray, np.ndarray]

    def __post_init__(self):
        if np.any(self.secure_rate_bps < 0):
            raise PreconditionError("secure_rate_bps must be clamped at 0")


def bb84_rate_points(cfg: ExperimentConfig, losses) -> RateCurve:
    """Analytic BB84 curve at keyrate.mu (signal) and keyrate.nu (decoy) per
    pair, each pulse carrying half of its pair's photons; one link_law call
    gives the signal's row and the decoy's."""
    keyrate = cfg.keyrate
    laws = link_law(
        np.array([[keyrate.mu / 2.0], [keyrate.nu / 2.0]]), transmittances(losses), cfg.mzi, cfg.detector
    )
    (q_mu, q_nu), (e_mu, e_nu) = gain_qber(laws)
    y0 = vacuum_yield(cfg.detector)
    links = np.array([q_mu, q_nu, e_mu, e_nu]).T.tolist()
    rate = np.array([decoy_bb84_rate(keyrate, *link, y0)[0] for link in links])
    pair_rate = cfg.source.clock_rate / 2.0
    sifted = 0.5 * q_mu * pair_rate
    return RateCurve(np.asarray(losses, dtype=float), sifted, e_mu, rate * pair_rate, tuple(p[0] for p in laws))


def dps_rate_points(cfg: ExperimentConfig, losses) -> RateCurve:
    """Analytic DPS curve at source.mean_photon_number per pulse."""
    mu = cfg.source.mean_photon_number
    law = link_law(mu, transmittances(losses), cfg.mzi, cfg.detector)
    q, e = gain_qber(law)
    f_ec = cfg.keyrate.f_ec
    fraction = np.array([dps_rate(g, min(qber, 0.5), mu, f_ec) for g, qber in zip(q.tolist(), e.tolist())])
    clock = cfg.source.clock_rate
    return RateCurve(np.asarray(losses, dtype=float), q * clock, e, fraction * clock, law)
