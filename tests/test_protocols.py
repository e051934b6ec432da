import math
import tracemalloc
from dataclasses import dataclass
from fractions import Fraction
from itertools import product

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats

from chirplink import protocols, source
from chirplink.errors import PreconditionError
from chirplink.optics import (
    ChannelParams,
    DetectorParams,
    InterferometerParams,
    click_probability,
    decoder_ports,
    transmittances,
)

# Both tails of an exact binomial test at the level of a normal 5-sigma test.
TAIL_5_SIGMA = stats.norm.sf(5.0)


def within_5_sigma(k, n, p):
    return min(stats.binom.cdf(k, n, p), stats.binom.sf(k - 1, n, p)) > TAIL_5_SIGMA


def simulate_links(protocol, n, cfg, transmittance, mzi, det, rng_seed):
    """protocols.simulate_links over the link law of cfg's pulses."""
    law = protocols.link_law(cfg.mean_photon_number, transmittance, mzi, det)
    return protocols.simulate_links(protocol, n, cfg.clock_rate, law, rng_seed)


@pytest.fixture(scope="module")
def det():
    return DetectorParams()


@pytest.fixture(scope="module")
def mzi():
    return InterferometerParams(visibility=0.952)


def poisson_gain_qber(mu, eta, y0, e_det):
    """Independent Poisson photon-number expansion of the link statistics.

    Sum over photon numbers n of P(n|mu) * [1 - (1 - Y0)(1 - eta)^n] and
    the matching error-weighted sum; truncated when the Poisson tail is
    negligible.
    """
    gain = 0.0
    err = 0.0
    for n in range(0, 60):
        p_n = math.exp(-mu) * mu**n / math.factorial(n)
        y_n = 1.0 - (1.0 - y0) * (1.0 - eta) ** n
        e_n = e_det * (1.0 - (1.0 - eta) ** n) + 0.5 * y0
        gain += p_n * y_n
        err += p_n * e_n
    return gain, err / gain


# ---------------------------------------------------------------------------
# Per-slot oracle: the link simulated pair by pair (BB84) or slot by slot
# (DPS), with explicit symbols, port clicks and sifting.  The program draws
# the same statistics as counts; TestSamplerMatchesOracle compares the two
# in distribution.


@dataclass(frozen=True)
class Bb84Symbols:
    bases: np.ndarray
    bits: np.ndarray

    @property
    def phase_deltas(self):
        return self.bases * (math.pi / 2.0) + self.bits * math.pi


@dataclass(frozen=True)
class DpsSymbols:
    bits: np.ndarray


@dataclass(frozen=True)
class ClickRecord:
    """Detector outcomes per interference slot and port."""

    slots: np.ndarray
    port0: np.ndarray
    port1: np.ndarray


def generate_symbols(protocol, count, rng_seed):
    rng = np.random.default_rng(rng_seed)
    if protocol == protocols.BB84:
        bases = rng.integers(0, 2, count, dtype=np.int8)
        return Bb84Symbols(bases, rng.integers(0, 2, count, dtype=np.int8))
    if protocol == protocols.DPS:
        return DpsSymbols(rng.integers(0, 2, count, dtype=np.int8))
    raise PreconditionError(f"unknown protocol {protocol!r}")


def resolve_bits(c0, c1, rng):
    """Port identity gives the bit; double clicks get a fair coin."""
    bits = c1.astype(np.int8)
    double = c0 & c1
    bits[double] = rng.integers(0, 2, int(np.count_nonzero(double)), dtype=np.int8)
    return bits


def bb84_sift(symbols, bob_bases, clicks, rng_seed=0):
    """(sifted, errors) of matched-basis central-slot clicks."""
    central = (clicks.slots % 2) == 1
    c0, c1 = clicks.port0[central], clicks.port1[central]
    pair = clicks.slots[central] // 2
    keep = (symbols.bases[pair] == bob_bases[pair]) & (c0 | c1)
    bob_bits = resolve_bits(c0[keep], c1[keep], np.random.default_rng(rng_seed))
    return int(np.count_nonzero(keep)), int(np.count_nonzero(bob_bits != symbols.bits[pair[keep]]))


def dps_sift(symbols, clicks, rng_seed=0):
    """(sifted, errors) of every clicked slot; slot i carries bit i - 1."""
    if np.any(clicks.slots < 1) or np.any(clicks.slots > len(symbols.bits)):
        raise PreconditionError("click record does not match the symbol sequence")
    clicked = clicks.port0 | clicks.port1
    bob_bits = resolve_bits(
        clicks.port0[clicked], clicks.port1[clicked], np.random.default_rng(rng_seed)
    )
    errors = np.count_nonzero(bob_bits != symbols.bits[clicks.slots[clicked] - 1])
    return int(np.count_nonzero(clicked)), int(errors)


def clicks(mu, dphi, mzi, det, rng):
    port0, port1 = decoder_ports(mu, mu, dphi, mzi)
    c0 = rng.random(len(dphi)) < click_probability(port0, det)
    c1 = rng.random(len(dphi)) < click_probability(port1, det)
    return c0, c1


def oracle_bb84(n_pairs, mu, mzi, det, rng):
    symbols = generate_symbols(protocols.BB84, n_pairs, rng)
    bob = rng.integers(0, 2, n_pairs, dtype=np.int8)
    pairs = np.flatnonzero(symbols.bases == bob)
    # Bob's X decoder shifts the internal phase by -pi/2
    c0, c1 = clicks(mu, symbols.phase_deltas[pairs] - bob[pairs] * (math.pi / 2.0), mzi, det, rng)
    return bb84_sift(symbols, bob, ClickRecord(2 * pairs + 1, c0, c1), rng)


def oracle_dps(n_pulses, mu, mzi, det, rng):
    symbols = generate_symbols(protocols.DPS, n_pulses - 1, rng)
    c0, c1 = clicks(mu, symbols.bits * math.pi, mzi, det, rng)
    return dps_sift(symbols, ClickRecord(np.arange(1, n_pulses), c0, c1), rng)


class TestEncoding:
    def test_bb84_phase_alphabet(self):
        # (basis, bit) = (Z, 0), (X, 0), (Z, 1), (X, 1)
        symbols = Bb84Symbols(np.array([0, 1, 0, 1]), np.array([0, 0, 1, 1]))
        assert symbols.phase_deltas == pytest.approx([0.0, math.pi / 2, math.pi, 3 * math.pi / 2])

    def test_generate_symbols_uniform(self):
        symbols = generate_symbols(protocols.BB84, 40_000, 3)
        assert abs(np.mean(symbols.bases) - 0.5) < 0.01
        assert abs(np.mean(symbols.bits) - 0.5) < 0.01

    def test_generate_symbols_deterministic(self):
        a = generate_symbols(protocols.DPS, 100, 7)
        b = generate_symbols(protocols.DPS, 100, 7)
        assert np.array_equal(a.bits, b.bits)

    def test_unknown_protocol_rejected(self):
        with pytest.raises(PreconditionError):
            generate_symbols("b92", 10, 0)


class TestSifting:
    def test_bb84_sift_noiseless_clicks(self):
        # two pairs, matched bases, deterministic single clicks
        symbols = Bb84Symbols(np.array([0, 0]), np.array([0, 1]))
        bob = np.array([0, 0])
        slots = np.array([1, 2, 3])
        record = ClickRecord(
            slots,
            np.array([True, False, False]),   # port0 click on slot 1 -> bit 0
            np.array([False, False, True]),   # port1 click on slot 3 -> bit 1
        )
        assert bb84_sift(symbols, bob, record) == (2, 0)

    def test_bb84_sift_counts_errors(self):
        symbols = Bb84Symbols(np.array([0]), np.array([0]))
        record = ClickRecord(np.array([1]), np.array([False]), np.array([True]))
        assert bb84_sift(symbols, np.array([0]), record) == (1, 1)

    def test_bb84_sift_discards_basis_mismatch(self):
        symbols = Bb84Symbols(np.array([0]), np.array([0]))
        record = ClickRecord(np.array([1]), np.array([True]), np.array([False]))
        assert bb84_sift(symbols, np.array([1]), record) == (0, 0)

    def test_bb84_sift_ignores_satellite_slots(self):
        symbols = Bb84Symbols(np.array([0, 0]), np.array([0, 0]))
        record = ClickRecord(np.array([2]), np.array([True]), np.array([False]))
        assert bb84_sift(symbols, np.array([0, 0]), record) == (0, 0)

    def test_bb84_double_click_fair_coin(self):
        n = 20_000
        symbols = Bb84Symbols(np.zeros(n, dtype=np.int8), np.zeros(n, dtype=np.int8))
        slots = 2 * np.arange(n) + 1
        record = ClickRecord(slots, np.ones(n, bool), np.ones(n, bool))
        sifted, errors = bb84_sift(symbols, np.zeros(n, dtype=np.int8), record, rng_seed=5)
        assert sifted == n
        assert abs(errors / n - 0.5) < 0.02

    def test_dps_sift_noiseless(self):
        symbols = DpsSymbols(np.array([0, 1, 1]))
        record = ClickRecord(
            np.array([1, 2, 3]),
            np.array([True, False, False]),
            np.array([False, True, True]),
        )
        assert dps_sift(symbols, record) == (3, 0)

    @pytest.mark.parametrize("sifted, errors", [(3, 4), (0, 1), (3, -1)])
    def test_sift_result_errors_within_sifted(self, sifted, errors):
        with pytest.raises(PreconditionError, match=r"error_count must be within \[0, sifted_count\]"):
            protocols.SiftResult(sifted, errors, 0.0, 0.0)

    def test_dps_sift_slot_bounds(self):
        symbols = DpsSymbols(np.array([0]))
        record = ClickRecord(np.array([2]), np.array([True]), np.array([False]))
        with pytest.raises(PreconditionError):
            dps_sift(symbols, record)


class TestAnalyticModel:
    def test_vacuum_yield_two_detectors(self, det):
        # [DERIVED] 1 - (1 - 3.75e-8)^2 = 7.4999...e-8
        assert protocols.vacuum_yield(det) == pytest.approx(7.49999986e-8, rel=1e-6)

    def test_gain_qber_against_poisson_oracle(self, det, mzi):
        # The Poisson expansion is the textbook closed form (Ma, Qi, Zhao & Lo,
        # PRA 72, 012326 (2005)), an approximation of the law.  [DERIVED] With
        # x = mu eta, x_r = (1 - e) x and x_w = e x on the right and the wrong
        # port, dark probability d and d' = 1 - d, both gains are
        # 1 - d'^2 exp(-x), and the law's error numerator
        # (1 - d' exp(-x_w)) (1 + d' exp(-x_r)) / 2 exceeds the textbook's
        # e (1 - exp(-x)) + Y0/2 by D = D0 - d (exp(-x_r) - exp(-x_w)) / 2
        # - d (2 - d) (1 - exp(-x)) / 2.  D0, the d = 0 part, and its first
        # two derivatives are 0 at x = 0, its third is e (1 - e) (1 - 2e) / 2
        # there, and its fourth is within [-1, 1] for x >= 0.  So
        # |D| <= e (1 - e) |1 - 2e| x^3 / 12 + x^4 / 24 + 3 d x / 2, and the
        # QBERs differ by at most |D| / Q.
        d = det.dark_probability
        e = 0.5 * (1 - mzi.visibility)
        for protocol, mu, duty in ((protocols.BB84, 0.5, 0.5), (protocols.DPS, 0.2, 1.0)):
            for loss in (0.0, 10.0, 20.0, 30.0):
                ch = ChannelParams(loss)
                gain, qber = protocols.expected_gain_qber(protocol, mu, ch, mzi, det)
                eta = ch.transmittance * duty * mzi.loss_factor * det.efficiency
                g_ref, e_ref = poisson_gain_qber(mu, eta, protocols.vacuum_yield(det), e)
                x = mu * eta
                bound = (e * (1 - e) * abs(1 - 2 * e) * x**3 / 12 + x**4 / 24 + 1.5 * d * x) / g_ref
                # 1e-9 relative covers rounding: a click probability near
                # 1 - exp(-x) cancels to ~1e-16 / x relative
                assert gain == pytest.approx(g_ref, rel=1e-9)
                assert abs(qber - e_ref) <= bound + 1e-9 * e_ref
                if loss == 0.0:  # the bound is tight enough to see the third-order gap
                    assert abs(qber - e_ref) > bound / 4

    def test_qber_limits(self, det, mzi):
        # at zero loss the dark-count term is negligible: QBER -> (1-V)/2 * signal/gain
        _, q_low = protocols.expected_gain_qber(protocols.BB84, 0.5, ChannelParams(0.0), mzi, det)
        assert q_low == pytest.approx(0.5 * (1 - mzi.visibility), rel=1e-2)
        # at extreme loss dark counts dominate: QBER -> 1/2
        _, q_high = protocols.expected_gain_qber(protocols.BB84, 0.5, ChannelParams(90.0), mzi, det)
        assert q_high == pytest.approx(0.5, rel=1e-2)

    @given(loss=st.floats(0.0, 60.0), mu=st.floats(1e-3, 1.0))
    def test_gain_qber_bounds(self, loss, mu):
        det = DetectorParams()
        mzi = InterferometerParams(visibility=0.952)
        gain, qber = protocols.expected_gain_qber(
            protocols.BB84, mu, ChannelParams(loss), mzi, det
        )
        assert 0.0 < gain <= 1.0
        assert 0.0 <= qber <= 0.5 + 1e-12

    @pytest.mark.parametrize(
        "protocol, mu, message",
        [(protocols.BB84, -0.1, "mu must be >= 0"), (protocols.DPS, -1e-300, "mu must be >= 0"),
         ("b92", 0.5, "unknown protocol 'b92'")],
    )
    def test_bad_inputs_rejected(self, det, mzi, protocol, mu, message):
        with pytest.raises(PreconditionError, match=message):
            protocols.expected_gain_qber(protocol, mu, ChannelParams(10.0), mzi, det)

    def test_gain_monotone_in_loss(self, det, mzi):
        gains = [
            protocols.expected_gain_qber(protocols.DPS, 0.2, ChannelParams(l), mzi, det)[0]
            for l in np.linspace(0.0, 50.0, 26)
        ]
        assert all(b < a for a, b in zip(gains, gains[1:]))


class TestMonteCarloAgreement:
    def test_bb84_matches_analytic(self, det, mzi):
        cfg = source.SourceConfig(mean_photon_number=0.25)
        n_pairs = 400_000
        for loss in (0.0, 10.0):
            (res,) = simulate_links(
                protocols.BB84, n_pairs, cfg, np.array([ChannelParams(loss).transmittance]), mzi, det,
                rng_seed=7,
            )
            gain, qber = protocols.expected_gain_qber(
                protocols.BB84, 0.5, ChannelParams(loss), mzi, det
            )
            expect_sift = 0.5 * gain * n_pairs
            se_sift = math.sqrt(expect_sift)
            assert abs(res.sifted_count - expect_sift) < 5 * se_sift
            se_q = math.sqrt(qber * (1 - qber) / res.sifted_count)
            assert abs(res.qber - qber) < 5 * se_q
            assert res.sifted_rate_bps == pytest.approx(
                res.sifted_count * cfg.clock_rate / (2 * n_pairs)
            )

    def test_dps_matches_analytic(self, det, mzi):
        cfg = source.SourceConfig(mean_photon_number=0.2)
        n_pulses = 400_000
        (res,) = simulate_links(
            protocols.DPS, n_pulses, cfg, np.array([ChannelParams(10.0).transmittance]), mzi, det, rng_seed=3
        )
        gain, qber = protocols.expected_gain_qber(
            protocols.DPS, 0.2, ChannelParams(10.0), mzi, det
        )
        expect_sift = gain * (n_pulses - 1)
        assert abs(res.sifted_count - expect_sift) < 5 * math.sqrt(expect_sift)
        se_q = math.sqrt(qber * (1 - qber) / res.sifted_count)
        assert abs(res.qber - qber) < 5 * se_q
        # the rate counts every pulse of the block, not only the n_pulses - 1 slots
        assert res.sifted_rate_bps == pytest.approx(
            res.sifted_count * cfg.clock_rate / n_pulses
        )

    def test_bb84_memory_bounded_by_block(self, det, mzi):
        cfg = source.SourceConfig(mean_photon_number=0.25)
        tracemalloc.start()
        try:
            (res,) = simulate_links(
                protocols.BB84, 10**14, cfg, np.array([ChannelParams(0.0).transmittance]), mzi, det, rng_seed=9
            )
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20
        assert res.sifted_count > 10**11

    def test_dps_memory_bounded_by_block(self, det, mzi):
        cfg = source.SourceConfig(mean_photon_number=0.2)
        tracemalloc.start()
        try:
            (res,) = simulate_links(
                protocols.DPS, 10**14, cfg, np.array([ChannelParams(0.0).transmittance]), mzi, det, rng_seed=9
            )
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20
        assert res.sifted_count > 10**11

    def test_dps_seed_determinism(self, det, mzi):
        cfg = source.SourceConfig(mean_photon_number=0.2)

        def run(seed):
            (res,) = simulate_links(
                protocols.DPS, 100_000, cfg, np.array([ChannelParams(0.0).transmittance]), mzi, det,
                rng_seed=seed,
            )
            return res

        assert run(4) == run(4)
        assert run(4) != run(5)

    def test_dps_chunking_phase_continuity(self, det):
        # perfect visibility: only a rare dark click in the dark port can err
        cfg = source.SourceConfig(mean_photon_number=0.5)
        mzi = InterferometerParams(visibility=1.0)
        (res,) = simulate_links(
            protocols.DPS, 200_000, cfg, np.array([ChannelParams(0.0).transmittance]), mzi, det, rng_seed=11
        )
        assert res.sifted_count > 0
        assert res.error_count == 0


class TestSamplerMatchesOracle:
    """The count-level sampler and the per-slot oracle agree in distribution.

    Every click class is common here: high mu, dark click probability 0.05,
    V < 1 and theta != 0 put 8 %, 51 %, 6 % and 35 % of the bit-0 slots in
    no click, port 0 only, port 1 only and both.  With that many double
    clicks the tie coin carries half of the error variance, so even a
    mean-preserving deterministic tie changes the error distribution.
    """

    RUNS = 1500
    SLOTS = 400

    cfg = source.SourceConfig(mean_photon_number=4.0)
    mzi = InterferometerParams(internal_phase=0.7, insertion_loss_db=0.0, visibility=0.8)
    det = DetectorParams(efficiency=0.6, dark_rate=2e8)

    @pytest.mark.parametrize(
        "protocol, oracle",
        [(protocols.BB84, oracle_bb84), (protocols.DPS, oracle_dps)],
        ids=[protocols.BB84, protocols.DPS],
    )
    def test_same_distribution(self, protocol, oracle):
        transmittance = np.array([ChannelParams(0.0).transmittance])
        results = [
            res
            for seed in range(self.RUNS)
            for res in simulate_links(
                protocol, self.SLOTS, self.cfg, transmittance, self.mzi, self.det, seed
            )
        ]
        ours = np.array([(r.sifted_count, r.error_count) for r in results])
        mu = self.cfg.mean_photon_number
        ref = np.array([
            oracle(self.SLOTS, mu, self.mzi, self.det, np.random.default_rng(seed))
            for seed in range(self.RUNS, 2 * self.RUNS)
        ])
        for column, name in ((0, "sifted"), (1, "errors")):
            p = stats.ks_2samp(ours[:, column], ref[:, column]).pvalue
            assert p > 1e-3, f"{name}: two-sample KS p = {p:.2e}"


# Pulses in a day at a 2 GHz clock.
DAY_OF_PULSES = 86_400 * 2 * 10**9


class TestClosedFormProperty:
    # The analytic gain and QBER are read off the law the Monte Carlo draws
    # from, so the two agree within 5 sigma at every accepted input, up to a
    # day of pulses.
    @settings(deadline=None)
    @given(
        protocol=st.sampled_from([protocols.BB84, protocols.DPS]),
        n=st.integers(1, DAY_OF_PULSES),
        mu=st.floats(0.0, 10.0),
        visibility=st.floats(0.0, 1.0),
        internal_phase=st.floats(-math.pi, math.pi),
        dark_rate=st.floats(0.0, 4e9),
        efficiency=st.floats(0.0, 1.0),
        insertion_loss_db=st.floats(0.0, 30.0),
        loss_db=st.floats(0.0, 60.0),
        seed=st.integers(0, 2**32),
    )
    @example(  # the textbook closed form's QBER is 1.2e-3 relative low here: z ~ 430
        protocol=protocols.BB84, n=DAY_OF_PULSES // 2, mu=0.25, visibility=0.952, internal_phase=0.0,
        dark_rate=150.0, efficiency=0.5, insertion_loss_db=0.0, loss_db=0.0, seed=0,
    )
    def test_monte_carlo_matches_closed_form(
        self, protocol, n, mu, visibility, internal_phase, dark_rate, efficiency,
        insertion_loss_db, loss_db, seed,
    ):
        cfg = source.SourceConfig(mean_photon_number=mu)
        channel = ChannelParams(loss_db)
        mzi = InterferometerParams(
            internal_phase=internal_phase,
            insertion_loss_db=insertion_loss_db,
            visibility=visibility,
        )
        det = DetectorParams(efficiency=efficiency, dark_rate=dark_rate)
        transmittance = np.array([channel.transmittance])
        if protocol == protocols.BB84:
            (res,) = simulate_links(protocol, n, cfg, transmittance, mzi, det, seed)
            gain, qber = protocols.expected_gain_qber(protocol, 2 * mu, channel, mzi, det)
            p_sift = 0.5 * gain
        else:
            (res,) = simulate_links(protocol, n + 1, cfg, transmittance, mzi, det, seed)
            gain, qber = protocols.expected_gain_qber(protocol, mu, channel, mzi, det)
            p_sift = gain
        assert within_5_sigma(res.sifted_count, n, p_sift)
        assert within_5_sigma(res.error_count, res.sifted_count, qber)


def slot_clicks(mu, transmittance, mzi, det):
    """clicks[bit][port]: the click probabilities of a slot whose two pulses
    carry mu times the transmittance and differ in phase by bit * pi."""
    m = mu * transmittance
    return [click_probability(decoder_ports(m, m, dphi, mzi), det).tolist() for dphi in (0.0, math.pi)]


def slot_law(clicks):
    """[DERIVED] (P(sifted), P(sifted with an error)) of a matched-basis slot,
    summed exactly over its bit, its port-0 and port-1 clicks and the tie
    coin.  clicks[bit][port] are taken as exact fractions; port 1 reads bit 1."""
    half = Fraction(1, 2)
    sift = error = Fraction(0)
    for bit, (p0, p1) in enumerate(clicks):
        p0, p1 = Fraction(p0), Fraction(p1)
        for c0, c1, coin in product((0, 1), repeat=3):
            if c0 or c1:
                p = half * (p0 if c0 else 1 - p0) * (p1 if c1 else 1 - p1) * half
                sift += p
                error += p * ((coin if c0 and c1 else c1) != bit)
    return sift, error


class TestOneDraw:
    SLOTS = 10**15

    # (mean photons per pulse, decoder, detector, losses): TestSamplerMatchesOracle's
    # link, where double clicks are common, and the example sweeps' links
    LINKS = {
        "double-clicks": (
            4.0,
            InterferometerParams(internal_phase=0.7, insertion_loss_db=0.0, visibility=0.8),
            DetectorParams(efficiency=0.6, dark_rate=2e8),
            [0.0, 3.0],
        ),
        "bb84-example": (0.25, InterferometerParams(visibility=0.952), DetectorParams(), [0.0, 10.0, 20.0]),
        "dps-example": (0.2, InterferometerParams(visibility=0.962), DetectorParams(), [0.0, 10.0, 30.0]),
    }

    @pytest.mark.parametrize("link", list(LINKS))
    @pytest.mark.parametrize("protocol", [protocols.BB84, protocols.DPS])
    def test_draw_follows_the_enumerated_law(self, protocol, link):
        # at 10**15 slots the standard error of the QBER is ~1e-6 relative,
        # far below the textbook closed form's error at the double-click link
        mu, mzi, det, losses = self.LINKS[link]
        cfg = source.SourceConfig(mean_photon_number=mu)
        n = self.SLOTS if protocol == protocols.BB84 else self.SLOTS + 1
        results = simulate_links(protocol, n, cfg, transmittances(losses), mzi, det, 21)
        # BB84 sifts the half of the slots whose bases match
        match = Fraction(1, 2) if protocol == protocols.BB84 else 1
        for res, t in zip(results, transmittances(losses).tolist(), strict=True):
            p_sift, p_error = slot_law(slot_clicks(mu, t, mzi, det))
            assert within_5_sigma(res.sifted_count, self.SLOTS, float(match * p_sift))
            assert within_5_sigma(res.error_count, res.sifted_count, float(p_error / p_sift))

    @settings(deadline=None, max_examples=200)
    @given(
        protocol=st.sampled_from([protocols.BB84, protocols.DPS]),
        mu=st.one_of(st.sampled_from([0.0, 1e6]), st.floats(0.0, 1e6)),
        visibility=st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)),
        internal_phase=st.floats(-math.pi, math.pi),
        # 0, or a dark click probability from 2.5e-13 up to 1: the law's
        # arithmetic then stays clear of subnormal products
        dark_rate=st.one_of(st.just(0.0), st.floats(1e-3, 4e9)),
        efficiency=st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)),
        insertion_loss_db=st.floats(0.0, 30.0),
        losses=st.lists(st.one_of(st.just(3500.0), st.floats(0.0, 3500.0)), min_size=1, max_size=6),
    )
    @example(  # the efficiency-0.5 link, where the textbook QBER is 1.2e-3 relative low
        protocol=protocols.BB84, mu=0.5, visibility=0.952, internal_phase=0.0, dark_rate=150.0,
        efficiency=0.5, insertion_loss_db=0.0, losses=[0.0, 10.0, 20.0],
    )
    def test_axis_is_the_enumerated_law(
        self, protocol, mu, visibility, internal_phase, dark_rate, efficiency, insertion_loss_db, losses
    ):
        # the analytic gain and QBER are the exact sums over the clicks the
        # law reads, up to its roundings, each within u = 2**-53 relative and
        # so within one ulp: 4 on the way to the gain and 8 to the QBER, and
        # one ulp to spare for the second-order terms
        mzi = InterferometerParams(
            internal_phase=internal_phase, insertion_loss_db=insertion_loss_db, visibility=visibility
        )
        det = DetectorParams(efficiency=efficiency, dark_rate=dark_rate)
        transmittance = transmittances(losses)
        pulse_mu = mu / 2.0 if protocol == protocols.BB84 else mu
        gain, qber = protocols.gain_qber(protocols.link_law(pulse_mu, transmittance, mzi, det))
        for g, e, t in zip(gain.tolist(), qber.tolist(), transmittance.tolist(), strict=True):
            p_sift, p_error = slot_law(slot_clicks(pulse_mu, t, mzi, det))
            want_e = p_error / p_sift if p_sift else Fraction(0)
            assert abs(Fraction(g) - p_sift) <= 5 * Fraction(math.ulp(float(p_sift)))
            assert abs(Fraction(e) - want_e) <= 9 * Fraction(math.ulp(float(want_e)))

    @pytest.mark.parametrize(
        "protocol, n, message",
        [(protocols.BB84, 0, "n_pairs must be >= 1"), (protocols.DPS, 1, "n_pulses must be >= 2"),
         ("b92", 10, "unknown protocol 'b92'")],
    )
    def test_bad_link_rejected(self, det, mzi, protocol, n, message):
        cfg = source.SourceConfig()
        with pytest.raises(PreconditionError, match=message):
            simulate_links(protocol, n, cfg, transmittances([0.0]), mzi, det, 0)

    @settings(deadline=None, max_examples=200)
    @given(
        protocol=st.sampled_from([protocols.BB84, protocols.DPS]),
        n=st.integers(2, 2**63 - 1),
        mu=st.one_of(st.sampled_from([0.0, 1e6]), st.floats(0.0, 1e6)),
        visibility=st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)),
        internal_phase=st.one_of(st.sampled_from([-math.pi, math.pi]), st.floats(-math.pi, math.pi)),
        dark_rate=st.one_of(st.just(0.0), st.floats(0.0, 4e9)),
        efficiency=st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)),
        losses=st.lists(st.one_of(st.just(3500.0), st.floats(0.0, 3500.0)), min_size=1, max_size=6),
        seed=st.integers(0, 2**32),
    )
    @example(  # one click certain per bit: 1 - p_error - p_correct is -5.6e-17 here
        protocol=protocols.DPS, n=10**6, mu=1e6, visibility=1.0, internal_phase=math.pi,
        dark_rate=1e5, efficiency=1.0, losses=[0.0], seed=0,
    )
    def test_counts_stay_in_bounds(
        self, protocol, n, mu, visibility, internal_phase, dark_rate, efficiency, losses, seed
    ):
        # never raises: with a click certain (mu up to 1e6), the not-sifted
        # rest written as 1 - p_error - p_correct can be -1e-16, and
        # multinomial refuses a negative probability with a ValueError
        cfg = source.SourceConfig(mean_photon_number=mu)
        mzi = InterferometerParams(internal_phase=internal_phase, visibility=visibility)
        det = DetectorParams(efficiency=efficiency, dark_rate=dark_rate)
        transmittance = transmittances(losses)
        results = simulate_links(protocol, n, cfg, transmittance, mzi, det, seed)
        slots = n if protocol == protocols.BB84 else n - 1
        for res, t in zip(results, transmittance.tolist(), strict=True):
            assert 0 <= res.error_count <= res.sifted_count <= slots
            if dark_rate == 0.0 and mu * t * efficiency == 0.0:
                assert res.sifted_count == 0
