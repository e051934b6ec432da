"""Secure key rates: vacuum+weak decoy BB84 bound and a DPS bound.

The BB84 bound is the standard two-decoy (vacuum + weak) result:

    Y1 >= mu/(mu*nu - nu^2) * (Q_nu e^nu - Q_mu e^mu nu^2/mu^2
                               - (mu^2 - nu^2)/mu^2 * Y0)
    e1 <= (E_nu Q_nu e^nu - Y0/2) / (Y1 * nu)
    Q1  = Y1 * mu * exp(-mu)
    R   = 1/2 * max(0, -Q_mu f_ec H2(E_mu) + Q1 (1 - H2(e1)))

The DPS secure fraction is pluggable; the default transcribes the
individual-attack bound with a photon-number-splitting penalty,

    R = Q * max(0, -f_ec H2(e) + (1 - 2 mu) (1 - log2(1 + 4 e (1 - e))))

which is positive at e = 0, strictly decreasing in e, and zero at and
beyond its error threshold.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import ExperimentConfig
from .errors import PreconditionError
from .optics import ChannelParams
from .protocols import BB84, DPS, expected_gain_qber, vacuum_yield


def binary_entropy(x):
    """H2(x) in bits, with H2(0) = H2(1) = 0."""
    arr = np.asarray(x, dtype=float)
    if np.any((arr < 0.0) | (arr > 1.0)):
        raise PreconditionError("binary_entropy argument must be in [0, 1]")
    interior = (arr > 0.0) & (arr < 1.0)
    out = np.zeros_like(arr)
    xv = arr[interior]
    out[interior] = -xv * np.log2(xv) - (1.0 - xv) * np.log2(1.0 - xv)
    if out.ndim == 0:
        return float(out)
    return out


@dataclass(frozen=True)
class DecoyInputs:
    mu: float
    nu: float
    q_mu: float
    q_nu: float
    e_mu: float
    e_nu: float
    y0: float
    f_ec: float

    def __post_init__(self):
        if not 0.0 < self.nu < self.mu:
            raise PreconditionError("decoy intensities must satisfy 0 < nu < mu")
        if not self.mu * self.nu - self.nu * self.nu > 0.0:
            raise PreconditionError("decoy intensities: mu * nu - nu^2 rounds to 0")
        for name in ("q_mu", "q_nu", "e_mu", "e_nu", "y0"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise PreconditionError(f"{name} must be in [0, 1]")
        if self.f_ec < 1.0:
            raise PreconditionError("f_ec must be >= 1")


@dataclass(frozen=True)
class DecoyRateResult:
    rate: float
    y1_bound: float
    e1_bound: float


def decoy_bb84_rate(inputs: DecoyInputs) -> DecoyRateResult:
    """Vacuum + weak decoy lower bound on the secure fraction per signal."""
    mu, nu = inputs.mu, inputs.nu
    y1 = (mu / (mu * nu - nu * nu)) * (
        inputs.q_nu * math.exp(nu)
        - inputs.q_mu * math.exp(mu) * nu * nu / (mu * mu)
        - (mu * mu - nu * nu) / (mu * mu) * inputs.y0
    )
    if y1 <= 0.0:
        return DecoyRateResult(0.0, y1, 1.0)
    e1 = (inputs.e_nu * inputs.q_nu * math.exp(nu) - 0.5 * inputs.y0) / (y1 * nu)
    e1 = max(e1, 0.0)
    if e1 > 0.5:
        return DecoyRateResult(0.0, y1, e1)
    q1 = y1 * mu * math.exp(-mu)
    raw = -inputs.q_mu * inputs.f_ec * binary_entropy(inputs.e_mu) + q1 * (
        1.0 - binary_entropy(e1)
    )
    # the bases agree in half of the signals
    return DecoyRateResult(0.5 * max(0.0, raw), y1, e1)


def dps_rate(gain: float, qber: float, mu: float, f_ec: float) -> float:
    """Individual-attack DPS secure fraction per pulse."""
    if not 0.0 <= gain <= 1.0:
        raise PreconditionError("gain must be in [0, 1]")
    if qber > 0.5 or qber < 0.0:
        raise PreconditionError("qber must be in [0, 1/2]")
    if mu < 0.0:
        raise PreconditionError("mu must be >= 0")
    pns = 1.0 - 2.0 * mu
    if pns <= 0.0:
        return 0.0
    fraction = -f_ec * binary_entropy(qber) + pns * (
        1.0 - math.log2(1.0 + 4.0 * qber * (1.0 - qber))
    )
    return gain * max(0.0, fraction)


@dataclass(frozen=True)
class RatePoint:
    loss_db: float
    sifted_rate_bps: float
    qber: float
    secure_rate_bps: float

    def __post_init__(self):
        if self.secure_rate_bps < 0:
            raise PreconditionError("secure_rate_bps must be clamped at 0")


def bb84_rate_point(cfg: ExperimentConfig, loss_db: float) -> RatePoint:
    """Analytic BB84 point at keyrate.mu (signal) and keyrate.nu (decoy) per pair."""
    channel = ChannelParams(loss_db)
    mu, nu = cfg.keyrate.mu, cfg.keyrate.nu
    q_mu, e_mu = expected_gain_qber(BB84, mu, channel, cfg.mzi, cfg.detector)
    q_nu, e_nu = expected_gain_qber(BB84, nu, channel, cfg.mzi, cfg.detector)
    y0 = vacuum_yield(cfg.detector)
    res = decoy_bb84_rate(
        DecoyInputs(mu=mu, nu=nu, q_mu=q_mu, q_nu=q_nu, e_mu=e_mu, e_nu=e_nu, y0=y0, f_ec=cfg.keyrate.f_ec)
    )
    pair_rate = cfg.source.clock_rate / 2.0
    sifted = 0.5 * q_mu * pair_rate
    return RatePoint(loss_db, sifted, e_mu, res.rate * pair_rate)


def dps_rate_point(cfg: ExperimentConfig, loss_db: float) -> RatePoint:
    """Analytic DPS point at source.mean_photon_number per pulse."""
    channel = ChannelParams(loss_db)
    mu = cfg.source.mean_photon_number
    q, e = expected_gain_qber(DPS, mu, channel, cfg.mzi, cfg.detector)
    secure_fraction = dps_rate(q, min(e, 0.5), mu, cfg.keyrate.f_ec)
    clock = cfg.source.clock_rate
    return RatePoint(loss_db, q * clock, e, secure_fraction * clock)
