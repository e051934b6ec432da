import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from chirplink import source
from chirplink.errors import PreconditionError

TWO_PI = 2.0 * math.pi


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
        assert source.voltage_to_chirp(cfg.halfwave_voltage, cfg) == pytest.approx(
            2e9, rel=1e-12
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


class TestEmitTrain:
    def test_symbols_preserved_without_randomization(self, cfg):
        symbols = np.array([0.0, math.pi / 2, math.pi, 3 * math.pi / 2])
        train = source.emit_train(cfg, symbols, randomize_blocks=False, rng_seed=0)
        assert np.allclose(train.phases, symbols)
        assert np.all(train.global_phases == 0.0)
        assert np.all(train.mean_photons == cfg.mean_photon_number)

    def test_block_ids_follow_block_length(self, cfg):
        train = source.emit_train(cfg, np.zeros(6), randomize_blocks=False, rng_seed=0)
        assert list(train.block_ids) == [0, 0, 1, 1, 2, 2]

    def test_global_phase_constant_within_block(self, cfg):
        train = source.emit_train(cfg, np.zeros(100), randomize_blocks=True, rng_seed=5)
        g = train.global_phases
        assert np.array_equal(g[0::2], g[1::2])
        # distinct blocks should essentially never collide
        assert len(np.unique(g[0::2])) == 50

    def test_intra_block_phase_difference_invariant(self, cfg):
        symbols = np.tile([0.0, math.pi / 2], 40)
        train = source.emit_train(cfg, symbols, randomize_blocks=True, rng_seed=1)
        dphi = np.mod(train.phases[1::2] - train.phases[0::2], TWO_PI)
        assert np.allclose(dphi, math.pi / 2, atol=1e-12)

    def test_randomized_phases_cover_full_circle(self, cfg):
        train = source.emit_train(cfg, np.zeros(4000), randomize_blocks=True, rng_seed=3)
        hist, _ = np.histogram(train.global_phases[0::2], bins=8, range=(0.0, TWO_PI))
        assert np.all(hist > 0)

    def test_seed_determinism(self, cfg):
        a = source.emit_train(cfg, np.zeros(64), True, rng_seed=17)
        b = source.emit_train(cfg, np.zeros(64), True, rng_seed=17)
        assert np.array_equal(a.phases, b.phases)
        c = source.emit_train(cfg, np.zeros(64), True, rng_seed=18)
        assert not np.array_equal(a.phases, c.phases)

    def test_empty_symbols_rejected(self, cfg):
        with pytest.raises(PreconditionError):
            source.emit_train(cfg, [], False, 0)


class TestValidationAndExport:
    def test_bad_config_rejected(self):
        with pytest.raises(PreconditionError):
            source.SourceConfig(clock_rate=0.0)
        with pytest.raises(PreconditionError):
            source.SourceConfig(pulse_width=1e-9)  # wider than the 500 ps slot
        with pytest.raises(PreconditionError):
            source.SourceConfig(mean_photon_number=-0.1)

