import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from chirplink import protocols, source
from chirplink.errors import PreconditionError
from chirplink.optics import ChannelParams, ClickRecord, DetectorParams, InterferometerParams


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


class TestEncoding:
    def test_bb84_phase_alphabet(self):
        # (basis, bit) = (Z, 0), (X, 0), (Z, 1), (X, 1)
        symbols = protocols.Bb84Symbols(np.array([0, 1, 0, 1]), np.array([0, 0, 1, 1]))
        assert symbols.phase_deltas == pytest.approx([0.0, math.pi / 2, math.pi, 3 * math.pi / 2])

    def test_generate_symbols_uniform(self):
        symbols = protocols.generate_symbols(protocols.BB84, 40_000, 3)
        assert abs(np.mean(symbols.bases) - 0.5) < 0.01
        assert abs(np.mean(symbols.bits) - 0.5) < 0.01

    def test_generate_symbols_deterministic(self):
        a = protocols.generate_symbols(protocols.DPS, 100, 7)
        b = protocols.generate_symbols(protocols.DPS, 100, 7)
        assert np.array_equal(a.bits, b.bits)

    def test_unknown_protocol_rejected(self):
        with pytest.raises(PreconditionError):
            protocols.generate_symbols("b92", 10, 0)


class TestSifting:
    def test_bb84_sift_noiseless_clicks(self):
        # two pairs, matched bases, deterministic single clicks
        symbols = protocols.Bb84Symbols(np.array([0, 0]), np.array([0, 1]))
        bob = np.array([0, 0])
        slots = np.array([1, 2, 3])
        clicks = ClickRecord(
            slots,
            np.array([True, False, False]),   # port0 click on slot 1 -> bit 0
            np.array([False, False, True]),   # port1 click on slot 3 -> bit 1
        )
        res = protocols.bb84_sift(symbols, bob, clicks)
        assert res.sifted_count == 2
        assert res.error_count == 0
        assert res.qber == 0.0

    def test_bb84_sift_counts_errors(self):
        symbols = protocols.Bb84Symbols(np.array([0]), np.array([0]))
        clicks = ClickRecord(np.array([1]), np.array([False]), np.array([True]))
        res = protocols.bb84_sift(symbols, np.array([0]), clicks)
        assert res.sifted_count == 1
        assert res.error_count == 1

    def test_bb84_sift_discards_basis_mismatch(self):
        symbols = protocols.Bb84Symbols(np.array([0]), np.array([0]))
        clicks = ClickRecord(np.array([1]), np.array([True]), np.array([False]))
        res = protocols.bb84_sift(symbols, np.array([1]), clicks)
        assert res.sifted_count == 0

    def test_bb84_sift_ignores_satellite_slots(self):
        symbols = protocols.Bb84Symbols(np.array([0, 0]), np.array([0, 0]))
        clicks = ClickRecord(np.array([2]), np.array([True]), np.array([False]))
        res = protocols.bb84_sift(symbols, np.array([0, 0]), clicks)
        assert res.sifted_count == 0

    def test_bb84_double_click_fair_coin(self):
        n = 20_000
        symbols = protocols.Bb84Symbols(np.zeros(n, dtype=np.int8), np.zeros(n, dtype=np.int8))
        slots = 2 * np.arange(n) + 1
        clicks = ClickRecord(slots, np.ones(n, bool), np.ones(n, bool))
        res = protocols.bb84_sift(symbols, np.zeros(n, dtype=np.int8), clicks, rng_seed=5)
        assert res.sifted_count == n
        assert abs(res.qber - 0.5) < 0.02

    def test_dps_sift_noiseless(self):
        symbols = protocols.DpsSymbols(np.array([0, 1, 1]))
        clicks = ClickRecord(
            np.array([1, 2, 3]),
            np.array([True, False, False]),
            np.array([False, True, True]),
        )
        res = protocols.dps_sift(symbols, clicks)
        assert res.sifted_count == 3
        assert res.error_count == 0
        assert res.sifted_rate_bps == pytest.approx(3 * 2e9 / 4)

    def test_dps_sift_slot_bounds(self):
        symbols = protocols.DpsSymbols(np.array([0]))
        clicks = ClickRecord(np.array([2]), np.array([True]), np.array([False]))
        with pytest.raises(PreconditionError):
            protocols.dps_sift(symbols, clicks)


class TestAnalyticModel:
    def test_vacuum_yield_two_detectors(self, det):
        # [DERIVED] 1 - (1 - 3.75e-8)^2 = 7.4999...e-8
        assert protocols.vacuum_yield(det) == pytest.approx(7.49999986e-8, rel=1e-6)

    def test_gain_qber_against_poisson_oracle(self, det, mzi):
        for protocol, mu, duty in ((protocols.BB84, 0.5, 0.5), (protocols.DPS, 0.2, 1.0)):
            for loss in (0.0, 10.0, 20.0, 30.0):
                ch = ChannelParams(loss)
                gain, qber = protocols.expected_gain_qber(protocol, mu, ch, mzi, det)
                eta = ch.transmittance * duty * mzi.loss_factor * det.efficiency
                g_ref, e_ref = poisson_gain_qber(
                    mu, eta, protocols.vacuum_yield(det), 0.5 * (1 - mzi.visibility)
                )
                assert gain == pytest.approx(g_ref, rel=1e-9)
                assert qber == pytest.approx(e_ref, rel=1e-9)

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
            res = protocols.simulate_bb84(
                n_pairs, cfg, ChannelParams(loss), mzi, det, rng_seed=7
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
        res = protocols.simulate_dps(n_pulses, cfg, ChannelParams(10.0), mzi, det, rng_seed=3)
        gain, qber = protocols.expected_gain_qber(
            protocols.DPS, 0.2, ChannelParams(10.0), mzi, det
        )
        expect_sift = gain * (n_pulses - 1)
        assert abs(res.sifted_count - expect_sift) < 5 * math.sqrt(expect_sift)
        se_q = math.sqrt(qber * (1 - qber) / res.sifted_count)
        assert abs(res.qber - qber) < 5 * se_q

    def test_bb84_memory_bounded_by_block(self, det, mzi):
        cfg = source.SourceConfig(mean_photon_number=0.25)
        tracemalloc.start()
        try:
            protocols.simulate_bb84(2_000_000, cfg, ChannelParams(0.0), mzi, det, rng_seed=9)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20

    def test_dps_memory_bounded_by_block(self, det, mzi):
        cfg = source.SourceConfig(mean_photon_number=0.2)
        tracemalloc.start()
        try:
            protocols.simulate_dps(2_000_000, cfg, ChannelParams(0.0), mzi, det, rng_seed=9)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20

    def test_dps_seed_determinism(self, det, mzi):
        cfg = source.SourceConfig(mean_photon_number=0.2)

        def run(seed):
            return protocols.simulate_dps(100_000, cfg, ChannelParams(0.0), mzi, det, rng_seed=seed)

        assert run(4) == run(4)
        assert run(4) != run(5)

    def test_dps_chunking_phase_continuity(self, det):
        # perfect visibility, no loss: QBER must vanish across block joins too
        cfg = source.SourceConfig(mean_photon_number=0.5)
        mzi = InterferometerParams(visibility=1.0)
        res = protocols.simulate_dps(200_000, cfg, ChannelParams(0.0), mzi, det, rng_seed=11)
        assert res.sifted_count > 0
        assert res.error_count == 0
