"""BB84 and differential-phase-shift encoding, sifting and link statistics.

BB84 encodes each symbol on a pulse pair (coherence block of two) as a
differential phase from {0, pi/2, pi, 3pi/2}; the receiver's basis is a
fair coin per pair (passive 50/50 choice) and only the central
interference slot of matched-basis pairs is sifted.  DPS encodes one bit
per pulse as a 0/pi phase step relative to the preceding pulse, and
every interference slot is sifted.

The analytic gain/QBER model mirrors the Monte Carlo path exactly:

    Q = 1 - (1 - Y0) exp(-mu * eta_tot)
    E = [e_det (1 - exp(-mu * eta_tot)) + Y0/2] / Q

with e_det = (1 - V)/2, Y0 = 1 - (1 - p_dark)^2 (two detectors), and

    BB84: mu = mean photons per pair,  eta_tot = T_ch * 1/2 * L_mzi * eta_det
    DPS:  mu = mean photons per pulse, eta_tot = T_ch * L_mzi * eta_det

The BB84 factor 1/2 is the pair-geometry duty factor: half of the
pair's energy interferes in the discarded satellite slots.  The passive
basis choice is a bookkeeping coin, not an extra optical loss; its
factor 1/2 enters the sifted rate and the key-rate sift factor, not Q.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import PreconditionError
from .optics import (
    ChannelParams,
    ClickRecord,
    DetectorParams,
    InterferometerParams,
    click_probability,
    decoder_ports,
)
from .source import SourceConfig

BB84 = "bb84"
DPS = "dps"

# Symbols per Monte Carlo block (BB84 pairs, DPS interference slots).
_BLOCK = 1 << 16


@dataclass(frozen=True)
class Bb84Symbols:
    bases: np.ndarray
    bits: np.ndarray

    def __post_init__(self):
        if len(self.bases) != len(self.bits):
            raise PreconditionError("bases and bits must have equal length")

    def __len__(self) -> int:
        return len(self.bases)

    @property
    def phase_deltas(self) -> np.ndarray:
        return self.bases * (math.pi / 2.0) + self.bits * math.pi


@dataclass(frozen=True)
class DpsSymbols:
    bits: np.ndarray

    def __len__(self) -> int:
        return len(self.bits)

    @property
    def phase_deltas(self) -> np.ndarray:
        return self.bits * math.pi


@dataclass(frozen=True)
class SiftResult:
    sifted_count: int
    error_count: int
    qber: float
    sifted_rate_bps: float

    def __post_init__(self):
        if not 0 <= self.error_count <= self.sifted_count:
            raise PreconditionError("error_count must be within [0, sifted_count]")


def generate_symbols(protocol: str, count: int, rng_seed: int | np.random.Generator):
    """Independent uniform symbols for either protocol, deterministic per seed."""
    if count < 1:
        raise PreconditionError("count must be >= 1")
    rng = np.random.default_rng(rng_seed)
    if protocol == BB84:
        bases = rng.integers(0, 2, count, dtype=np.int8)
        bits = rng.integers(0, 2, count, dtype=np.int8)
        return Bb84Symbols(bases, bits)
    if protocol == DPS:
        return DpsSymbols(rng.integers(0, 2, count, dtype=np.int8))
    raise PreconditionError(f"unknown protocol {protocol!r}")


def _resolve_bits(c0: np.ndarray, c1: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Port identity gives the bit; double clicks get a fair coin."""
    bits = c1.astype(np.int8)
    double = c0 & c1
    n_double = int(np.count_nonzero(double))
    if n_double:
        bits[double] = rng.integers(0, 2, n_double, dtype=np.int8)
    return bits


def bb84_sift(
    symbols: Bb84Symbols,
    bob_basis_choices: np.ndarray,
    clicks: ClickRecord,
    rng_seed: int | np.random.Generator = 0,
    clock_rate: float = 2e9,
) -> SiftResult:
    """Sift matched-basis central-slot clicks against Alice's bits."""
    n_pairs = len(symbols)
    if len(bob_basis_choices) != n_pairs:
        raise PreconditionError("bob_basis_choices length must match symbols")
    if np.any(clicks.slots >= 2 * n_pairs):
        raise PreconditionError("click record extends beyond the symbol sequence")
    central = (clicks.slots % 2) == 1
    c0 = clicks.port0[central]
    c1 = clicks.port1[central]
    pair = clicks.slots[central] // 2
    matched = symbols.bases[pair] == bob_basis_choices[pair]
    clicked = c0 | c1
    keep = matched & clicked
    rng = np.random.default_rng(rng_seed)
    bob_bits = _resolve_bits(c0[keep], c1[keep], rng)
    errors = int(np.count_nonzero(bob_bits != symbols.bits[pair[keep]]))
    sifted = int(np.count_nonzero(keep))
    qber = errors / sifted if sifted else 0.0
    rate = sifted * clock_rate / (2.0 * n_pairs)
    return SiftResult(sifted, errors, qber, rate)


def dps_sift(
    symbols: DpsSymbols,
    clicks: ClickRecord,
    rng_seed: int | np.random.Generator = 0,
    clock_rate: float = 2e9,
) -> SiftResult:
    """Sift every clicked interference slot; bit from the port identity."""
    n_pulses = len(symbols) + 1
    if np.any(clicks.slots < 1) or np.any(clicks.slots >= n_pulses):
        raise PreconditionError("click record does not match the symbol sequence")
    clicked = clicks.port0 | clicks.port1
    c0 = clicks.port0[clicked]
    c1 = clicks.port1[clicked]
    rng = np.random.default_rng(rng_seed)
    bob_bits = _resolve_bits(c0, c1, rng)
    expected = symbols.bits[clicks.slots[clicked] - 1]
    errors = int(np.count_nonzero(bob_bits != expected))
    sifted = int(np.count_nonzero(clicked))
    qber = errors / sifted if sifted else 0.0
    rate = sifted * clock_rate / n_pulses
    return SiftResult(sifted, errors, qber, rate)


def vacuum_yield(det: DetectorParams) -> float:
    """Probability of a dark click on either detector within one gate."""
    return 1.0 - (1.0 - det.dark_probability) ** 2


def expected_gain_qber(
    protocol: str,
    mu: float,
    channel: ChannelParams,
    mzi: InterferometerParams,
    det: DetectorParams,
) -> tuple[float, float]:
    """Closed-form gain and QBER of the threshold-detector link model.

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
    eta_tot = channel.transmittance * duty * mzi.loss_factor * det.efficiency
    y0 = vacuum_yield(det)
    e_det = 0.5 * (1.0 - mzi.visibility)
    signal = 1.0 - math.exp(-mu * eta_tot)
    gain = 1.0 - (1.0 - y0) * math.exp(-mu * eta_tot)
    qber = (e_det * signal + 0.5 * y0) / gain if gain > 0 else 0.0
    return gain, qber


def simulate_bb84(
    n_pairs: int,
    config: SourceConfig,
    channel: ChannelParams,
    mzi: InterferometerParams,
    det: DetectorParams,
    rng_seed: int,
) -> SiftResult:
    """Monte Carlo BB84 link over the slots that can become key.

    Only the central (intra-pair) slot of a matched-basis pair is sifted,
    so only those slots are interfered and detected.  The per-pair global
    phase adds to both pulses of a pair and cancels in that slot, so none
    is drawn.  One generator is consumed in blocks of _BLOCK pairs:
    Alice's bases and bits, Bob's basis coin, then the port clicks and
    double-click ties of the matched pairs.
    """
    if n_pairs < 1:
        raise PreconditionError("n_pairs must be >= 1")
    if config.block_length != 2:
        raise PreconditionError("BB84 requires block_length = 2")
    if mzi.delay_slots(config.clock_rate) != 1:
        raise PreconditionError("BB84 requires a one-slot interferometer delay")
    rng = np.random.default_rng(rng_seed)
    mu = config.mean_photon_number * channel.transmittance
    sifted = errors = 0
    for done in range(0, n_pairs, _BLOCK):
        m = min(_BLOCK, n_pairs - done)
        symbols = generate_symbols(BB84, m, rng)
        bob = rng.integers(0, 2, m, dtype=np.int8)
        pairs = np.flatnonzero(symbols.bases == bob)
        # Bob's X decoder shifts the internal phase by -pi/2, cancelling the basis phase.
        dphi = symbols.phase_deltas[pairs] - bob[pairs] * (math.pi / 2.0)
        port0, port1 = decoder_ports(mu, mu, dphi, mzi)
        c0 = rng.random(len(pairs)) < click_probability(port0, det)
        c1 = rng.random(len(pairs)) < click_probability(port1, det)
        res = bb84_sift(symbols, bob, ClickRecord(2 * pairs + 1, c0, c1), rng, config.clock_rate)
        sifted += res.sifted_count
        errors += res.error_count
    qber = errors / sifted if sifted else 0.0
    rate = sifted * config.clock_rate / (2.0 * n_pairs)
    return SiftResult(sifted, errors, qber, rate)


def simulate_dps(
    n_pulses: int,
    config: SourceConfig,
    channel: ChannelParams,
    mzi: InterferometerParams,
    det: DetectorParams,
    rng_seed: int,
) -> SiftResult:
    """Monte Carlo DPS link over a single coherence block.

    Every pulse carries the same mean photon number and slot i interferes
    pulses i-1 and i with phase step bit_i * pi, so a slot's port means
    depend only on its bit and are computed once.  One generator is
    consumed in blocks of _BLOCK slots: the bits, the port clicks, then
    the double-click ties.
    """
    if n_pulses < 2:
        raise PreconditionError("n_pulses must be >= 2")
    if mzi.delay_slots(config.clock_rate) != 1:
        raise PreconditionError("DPS requires a one-slot interferometer delay")
    rng = np.random.default_rng(rng_seed)
    mu = config.mean_photon_number * channel.transmittance
    port0, port1 = decoder_ports(mu, mu, np.array([0.0, math.pi]), mzi)
    p0 = click_probability(port0, det)
    p1 = click_probability(port1, det)
    n_bits = n_pulses - 1
    sifted = errors = 0
    for done in range(0, n_bits, _BLOCK):
        m = min(_BLOCK, n_bits - done)
        symbols = generate_symbols(DPS, m, rng)
        c0 = rng.random(m) < p0[symbols.bits]
        c1 = rng.random(m) < p1[symbols.bits]
        res = dps_sift(symbols, ClickRecord(np.arange(1, m + 1), c0, c1), rng, config.clock_rate)
        sifted += res.sifted_count
        errors += res.error_count
    qber = errors / sifted if sifted else 0.0
    rate = sifted * config.clock_rate / n_pulses
    return SiftResult(sifted, errors, qber, rate)
