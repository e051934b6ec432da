import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from chirplink import optics
from chirplink.errors import PreconditionError


class TestChannel:
    def test_transmittance_values(self):
        # [DERIVED] 10 dB -> 0.1, 30 dB -> 1e-3
        assert optics.ChannelParams(10.0).transmittance == pytest.approx(0.1, rel=1e-12)
        assert optics.ChannelParams(30.0).transmittance == pytest.approx(1e-3, rel=1e-12)

    @given(a=st.floats(0.0, 40.0), b=st.floats(0.0, 40.0))
    def test_attenuation_composes_in_db(self, a, b):
        once = optics.ChannelParams(a + b).transmittance
        twice = optics.ChannelParams(a).transmittance * optics.ChannelParams(b).transmittance
        assert once == pytest.approx(twice, rel=1e-12)

    def test_negative_loss_rejected(self):
        with pytest.raises(PreconditionError):
            optics.ChannelParams(-1.0)
        with pytest.raises(PreconditionError, match="loss_per_km must be >= 0"):
            optics.ChannelParams(1.0, loss_per_km=-0.2)
        with pytest.raises(PreconditionError, match="loss_db must be >= 0"):
            optics.transmittances([0.0, 10.0, -1e-9])


class TestInterferometer:
    def test_equal_phases_all_light_in_port0(self):
        mzi = optics.InterferometerParams(insertion_loss_db=0.0, visibility=1.0)
        port0, port1 = optics.decoder_ports(0.25, 0.25, np.zeros(5), mzi)
        assert np.allclose(port0, 0.25, rtol=1e-12)
        assert np.allclose(port1, 0.0, atol=1e-15)

    def test_pi_phase_flips_port(self):
        mzi = optics.InterferometerParams(insertion_loss_db=0.0)
        port0, port1 = optics.decoder_ports(0.25, 0.25, np.array([math.pi, -math.pi]), mzi)
        assert np.allclose(port0, 0.0, atol=1e-12)
        assert np.allclose(port1, 0.25, rtol=1e-9)

    def test_quadrature_phase_splits_evenly(self):
        mzi = optics.InterferometerParams(insertion_loss_db=0.0)
        port0, port1 = optics.decoder_ports(0.25, 0.25, math.pi / 2, mzi)
        assert port0 == pytest.approx(0.125, rel=1e-9)
        assert port1 == pytest.approx(0.125, rel=1e-9)

    def test_internal_phase_shifts_fringe(self):
        mzi = optics.InterferometerParams(insertion_loss_db=0.0, internal_phase=-math.pi / 2)
        port0, _ = optics.decoder_ports(0.25, 0.25, math.pi / 2, mzi)
        assert port0 == pytest.approx(0.25, rel=1e-9)

    def test_subnormal_pulses_leave_both_ports_non_negative(self):
        # 3 dB of loss leaves a total of 3 units of the least subnormal; half
        # of it rounds up to 2, so port 0 at full visibility would take 4
        mzi = optics.InterferometerParams(visibility=1.0)
        port0, port1 = optics.decoder_ports(3e-323, 3e-323, 0.0, mzi)
        assert (port0, port1) == (1.5e-323, 0.0)

    @given(
        phases=st.lists(st.floats(0.0, 2 * math.pi - 1e-9), min_size=2, max_size=8),
        mu=st.floats(0.0, 10.0),
        vis=st.floats(0.0, 1.0),
        loss=st.floats(0.0, 6.0),
    )
    def test_energy_conservation(self, phases, mu, vis, loss):
        mu_late = np.full(len(phases) - 1, mu)
        mu_early = np.linspace(0.0, 1.0, len(phases) - 1)
        mzi = optics.InterferometerParams(insertion_loss_db=loss, visibility=vis)
        port0, port1 = optics.decoder_ports(mu_late, mu_early, np.diff(phases), mzi)
        expected = mzi.loss_factor * 0.5 * (mu_late + mu_early)
        assert np.allclose(port0 + port1, expected, rtol=1e-12)
        assert np.all(port0 >= 0.0)
        assert np.all(port1 >= 0.0)

    def test_reduced_visibility_leaks_light(self):
        mzi = optics.InterferometerParams(insertion_loss_db=0.0, visibility=0.952)
        port0, port1 = optics.decoder_ports(0.25, 0.25, np.zeros(3), mzi)
        # [DERIVED] wrong-port fraction (1 - V)/2 = 0.024
        frac = port1 / (port0 + port1)
        assert np.allclose(frac, 0.024, rtol=1e-9)


class TestDetector:
    def test_dark_probability(self):
        det = optics.DetectorParams()
        # [DERIVED] 150 Hz * 0.25 ns = 3.75e-8
        assert det.dark_probability == pytest.approx(3.75e-8, rel=1e-12)

    def test_click_probability_zero_photons(self):
        det = optics.DetectorParams()
        assert optics.click_probability(0.0, det) == pytest.approx(det.dark_probability, rel=1e-9)

    def test_click_probability_formula(self):
        det = optics.DetectorParams()
        mu = 0.3
        expected = 1.0 - (1.0 - det.dark_probability) * math.exp(-mu * det.efficiency)
        assert optics.click_probability(mu, det) == pytest.approx(expected, rel=1e-14)

    @given(mu=st.floats(0.0, 100.0))
    def test_click_probability_in_unit_interval(self, mu):
        det = optics.DetectorParams()
        p = optics.click_probability(mu, det)
        assert 0.0 <= p <= 1.0

    def test_click_probability_monotone(self):
        det = optics.DetectorParams()
        mus = np.linspace(0.0, 5.0, 30)
        p = optics.click_probability(mus, det)
        assert np.all(np.diff(p) > 0)

    def test_negative_photons_rejected(self):
        with pytest.raises(PreconditionError):
            optics.click_probability(-0.1, optics.DetectorParams())

    def test_bad_detector_params_rejected(self):
        with pytest.raises(PreconditionError):
            optics.DetectorParams(efficiency=1.5)
        with pytest.raises(PreconditionError):
            optics.DetectorParams(gate_width=0.0)
