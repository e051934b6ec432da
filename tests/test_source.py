import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from chirplink import source
from chirplink.errors import PreconditionError


@pytest.fixture(scope="module")
def cfg():
    return source.SourceConfig()


class TestPhaseMaps:
    def test_chirp_to_phase_exact(self):
        # [DERIVED] 2*pi * 2e9 * 250e-12 = pi, exact in float64
        assert source.chirp_to_phase(2e9, 250e-12) == pytest.approx(math.pi, rel=1e-15)
        assert source.chirp_to_phase(1e9, 250e-12) == pytest.approx(math.pi / 2, rel=1e-15)
        assert source.chirp_to_phase(-2e9, 250e-12) == pytest.approx(-math.pi, rel=1e-15)

    def test_halfwave_voltage_gives_pi(self, cfg):
        assert source.phase_from_voltage(cfg.halfwave_voltage, cfg) == pytest.approx(
            math.pi, rel=1e-12
        )

    def test_voltage_to_chirp_at_halfwave(self, cfg):
        # [DERIVED] dnu(V_pi) = 1/(2 t_m) = 2 GHz for t_m = 250 ps
        assert source.phase_from_voltage(cfg.halfwave_voltage, cfg) == pytest.approx(
            source.chirp_to_phase(2e9, cfg.perturbation_duration), rel=1e-12
        )

    @given(
        v1=st.floats(-2.0, 2.0, allow_nan=False),
        v2=st.floats(-2.0, 2.0, allow_nan=False),
    )
    def test_phase_additive_in_voltage(self, v1, v2):
        cfg = source.SourceConfig()
        lhs = source.phase_from_voltage(v1 + v2, cfg)
        rhs = source.phase_from_voltage(v1, cfg) + source.phase_from_voltage(v2, cfg)
        assert lhs == pytest.approx(rhs, abs=1e-9)

    @given(
        scale=st.floats(0.1, 10.0, allow_nan=False),
        v=st.floats(-1.0, 1.0, allow_nan=False),
    )
    def test_phase_homogeneous_in_voltage(self, scale, v):
        cfg = source.SourceConfig()
        assert source.phase_from_voltage(scale * v, cfg) == pytest.approx(
            scale * source.phase_from_voltage(v, cfg), rel=1e-12, abs=1e-12
        )

    def test_invalid_duration_rejected(self):
        with pytest.raises(PreconditionError):
            source.chirp_to_phase(1e9, 0.0)


class TestValidationAndExport:
    def test_bad_config_rejected(self):
        with pytest.raises(PreconditionError):
            source.SourceConfig(clock_rate=0.0)
        with pytest.raises(PreconditionError):
            source.SourceConfig(mean_photon_number=-0.1)

