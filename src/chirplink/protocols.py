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

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import PreconditionError
from .optics import (
    ChannelParams,
    ClickRecord,
    DetectorParams,
    InterferometerParams,
    attenuate,
    click_probability,
    decoder_ports,
    detect,
    interfere,
)
from .source import SourceConfig, emit_train

TWO_PI = 2.0 * math.pi

BASIS_Z = 0
BASIS_X = 1

BB84 = "bb84"
DPS = "dps"

_BLOCK_PAIRS = 1 << 16


@dataclass(frozen=True)
class Bb84Symbol:
    basis: int
    bit: int

    def __post_init__(self):
        if self.basis not in (BASIS_Z, BASIS_X) or self.bit not in (0, 1):
            raise PreconditionError("basis must be Z/X and bit 0/1")

    @property
    def phase_delta(self) -> float:
        return self.basis * (math.pi / 2.0) + self.bit * math.pi


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

    def __getitem__(self, i: int) -> Bb84Symbol:
        return Bb84Symbol(int(self.bases[i]), int(self.bits[i]))


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


def dps_encode(symbols: DpsSymbols, start_phase: float = 0.0) -> np.ndarray:
    """Cumulative phases for len(symbols) + 1 pulses; step i is bit i times pi."""
    phases = np.empty(len(symbols) + 1)
    phases[0] = start_phase
    np.cumsum(symbols.phase_deltas, out=phases[1:])
    phases[1:] += start_phase
    return phases


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
    rng_seed: int = 0,
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


def _chunk_seeds(rng_seed: int, n: int) -> np.ndarray:
    return np.random.default_rng(rng_seed).integers(0, 2**63 - 1, size=n)


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
    is drawn.  One generator is consumed in blocks of _BLOCK_PAIRS pairs:
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
    for done in range(0, n_pairs, _BLOCK_PAIRS):
        m = min(_BLOCK_PAIRS, n_pairs - done)
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
    chunk_pulses: int = 1 << 20,
) -> SiftResult:
    """Monte Carlo DPS link over a single coherence block.

    Chunks overlap by one pulse so no interference slot is lost.
    """
    if n_pulses < 2:
        raise PreconditionError("n_pulses must be >= 2")
    n_bits = n_pulses - 1
    n_chunks = (n_bits + chunk_pulses - 1) // chunk_pulses
    seeds = _chunk_seeds(rng_seed, 3 * n_chunks).reshape(n_chunks, 3)
    sifted = errors = 0
    done = 0
    start_phase = 0.0
    for i in range(n_chunks):
        m = min(chunk_pulses, n_bits - done)
        s_sym, s_det, s_sift = seeds[i]
        symbols = generate_symbols(DPS, m, s_sym)
        phases = np.mod(dps_encode(symbols, start_phase), TWO_PI)
        start_phase = float(phases[-1])
        train = attenuate(emit_train(config, phases, False, 0), channel)
        clicks = detect(interfere(train, mzi), det, s_det)
        res = dps_sift(symbols, clicks, s_sift, config.clock_rate)
        sifted += res.sifted_count
        errors += res.error_count
        done += m
    qber = errors / sifted if sifted else 0.0
    rate = sifted * config.clock_rate / n_pulses
    return SiftResult(sifted, errors, qber, rate)


def export_sift_json(
    result: SiftResult, protocol: str, loss_db: float, path
) -> None:
    payload = {
        "protocol": protocol,
        "loss_db": loss_db,
        "sifted_count": result.sifted_count,
        "error_count": result.error_count,
        "qber": result.qber,
        "sifted_rate_bps": result.sifted_rate_bps,
    }
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")
