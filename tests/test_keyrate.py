import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from chirplink import protocols
from chirplink.config import ExperimentConfig
from chirplink.errors import PreconditionError
from chirplink.keyrate import (
    DecoyInputs,
    bb84_rate_point,
    binary_entropy,
    decoy_bb84_rate,
    dps_rate,
    dps_rate_point,
)
from chirplink.optics import ChannelParams, DetectorParams, InterferometerParams
from chirplink.source import SourceConfig

ROOT = Path(__file__).resolve().parent.parent


def poisson_link(mu, eta, y0, e_det):
    """Independent Poisson photon-number model of gain, QBER and the true
    single-photon yield/error used to check decoy-bound conservativeness."""
    q = 0.0
    eq = 0.0
    for n in range(60):
        p_n = math.exp(-mu) * mu**n / math.factorial(n)
        y_n = 1.0 - (1.0 - y0) * (1.0 - eta) ** n
        e_n = (e_det * (1.0 - (1.0 - eta) ** n) + 0.5 * y0) / y_n if y_n else 0.0
        q += p_n * y_n
        eq += p_n * y_n * e_n
    y1 = 1.0 - (1.0 - y0) * (1.0 - eta)
    e1 = (e_det * eta + 0.5 * y0) / y1
    return q, eq / q, y1, e1


class TestBinaryEntropy:
    def test_known_values(self):
        assert binary_entropy(0.5) == 1.0
        assert binary_entropy(0.0) == 0.0
        assert binary_entropy(1.0) == 0.0
        # [DERIVED] H2(0.11) = -0.11 log2 0.11 - 0.89 log2 0.89
        assert binary_entropy(0.11) == pytest.approx(0.4999159582, rel=1e-9)

    def test_array_input(self):
        out = binary_entropy(np.array([0.0, 0.25, 0.5]))
        assert out == pytest.approx([0.0, 0.8112781245, 1.0], rel=1e-9)

    def test_domain_enforced(self):
        with pytest.raises(PreconditionError):
            binary_entropy(1.2)
        with pytest.raises(PreconditionError):
            binary_entropy(-0.1)

    @given(x=st.floats(0.001, 0.999), y=st.floats(0.001, 0.999))
    def test_concavity(self, x, y):
        mid = binary_entropy(0.5 * (x + y))
        assert mid >= 0.5 * (binary_entropy(x) + binary_entropy(y)) - 1e-12

    def test_symmetry(self):
        for x in np.linspace(0.01, 0.49, 20):
            assert binary_entropy(x) == pytest.approx(binary_entropy(1 - x), rel=1e-12)


class TestDecoyBound:
    @staticmethod
    def inputs_for(eta, y0=7.5e-8, e_det=0.024, mu=0.5, nu=0.1):
        q_mu, e_mu, _, _ = poisson_link(mu, eta, y0, e_det)
        q_nu, e_nu, _, _ = poisson_link(nu, eta, y0, e_det)
        return DecoyInputs(
            mu=mu, nu=nu, q_mu=q_mu, q_nu=q_nu, e_mu=e_mu, e_nu=e_nu, y0=y0, f_ec=1.16
        )

    def test_bounds_are_conservative(self):
        # the estimated single-photon yield must never exceed the true one,
        # and the error estimate must never fall below it
        for eta in (0.05, 0.01, 1e-3, 1e-4):
            inp = self.inputs_for(eta)
            _, _, y1_true, e1_true = poisson_link(0.5, eta, 7.5e-8, 0.024)
            res = decoy_bb84_rate(inp)
            assert res.y1_bound > 0 and res.e1_bound <= 0.5
            assert res.y1_bound <= y1_true * (1 + 1e-9)
            assert res.e1_bound >= e1_true * (1 - 1e-9)

    def test_bounds_are_tight_for_ideal_channel(self):
        # [DERIVED] eta = 1, y0 = 0, e_det = 0 gives Q_m = 1 - e^{-m}, so
        # Y1 >= (mu/(mu nu - nu^2)) ((1-e^-nu) e^nu - (1-e^-mu) e^mu nu^2/mu^2)
        #     = 0.99027584...
        inp = self.inputs_for(1.0, y0=0.0, e_det=0.0)
        res = decoy_bb84_rate(inp)
        assert res.y1_bound > 0 and res.e1_bound <= 0.5
        assert res.y1_bound == pytest.approx(0.9902758406, rel=1e-6)
        assert res.e1_bound == pytest.approx(0.0, abs=1e-9)

    def test_rate_positive_at_low_loss(self):
        res = decoy_bb84_rate(self.inputs_for(0.03))
        assert res.y1_bound > 0 and res.e1_bound <= 0.5 and res.rate > 0.0

    def test_rate_zero_when_noise_dominates(self):
        inp = self.inputs_for(1e-8, y0=1e-4)
        res = decoy_bb84_rate(inp)
        assert res.rate == 0.0
        assert not (res.y1_bound > 0 and res.e1_bound <= 0.5)

    def test_invalid_inputs_rejected(self):
        with pytest.raises(PreconditionError):
            DecoyInputs(mu=0.1, nu=0.5, q_mu=0.1, q_nu=0.1, e_mu=0.01, e_nu=0.01, y0=0.0, f_ec=1.16)
        with pytest.raises(PreconditionError):
            DecoyInputs(mu=0.5, nu=0.1, q_mu=1.5, q_nu=0.1, e_mu=0.01, e_nu=0.01, y0=0.0, f_ec=1.16)
        with pytest.raises(PreconditionError):
            DecoyInputs(mu=0.5, nu=0.1, q_mu=0.1, q_nu=0.1, e_mu=0.01, e_nu=0.01, y0=0.0, f_ec=0.9)


class TestDpsBound:
    def test_zero_error_rate(self):
        # [DERIVED] R/Q at e=0, mu=0.2: 1 - 2*0.2 = 0.6
        assert dps_rate(1.0, 0.0, 0.2, f_ec=1.16) == pytest.approx(0.6, rel=1e-12)

    def test_monotone_decreasing_in_qber(self):
        rates = [dps_rate(1.0, e, 0.2, f_ec=1.16) for e in np.linspace(0.0, 0.12, 40)]
        positive = [r for r in rates if r > 0]
        assert all(b < a for a, b in zip(positive, positive[1:]))

    def test_threshold_error_rate(self):
        # [DERIVED] secure fraction crosses zero between 6% and 7% at mu = 0.2
        assert dps_rate(1.0, 0.06, 0.2, f_ec=1.16) > 0.0
        assert dps_rate(1.0, 0.07, 0.2, f_ec=1.16) == 0.0

    def test_pns_penalty_kills_rate_at_half_photon(self):
        assert dps_rate(1.0, 0.0, 0.5, f_ec=1.16) == 0.0

    def test_scales_with_gain(self):
        full = dps_rate(1.0, 0.02, 0.2, f_ec=1.16)
        assert dps_rate(0.25, 0.02, 0.2, f_ec=1.16) == pytest.approx(0.25 * full, rel=1e-12)

    def test_invalid_inputs_rejected(self):
        with pytest.raises(PreconditionError):
            dps_rate(1.5, 0.0, 0.2, f_ec=1.16)
        with pytest.raises(PreconditionError):
            dps_rate(0.5, 0.6, 0.2, f_ec=1.16)


@pytest.fixture(scope="module")
def bb84_cfg():
    return ExperimentConfig(
        source=SourceConfig(mean_photon_number=0.25),
        mzi=InterferometerParams(visibility=0.952),
    )


@pytest.fixture(scope="module")
def dps_cfg():
    return ExperimentConfig(
        source=SourceConfig(mean_photon_number=0.2),
        mzi=InterferometerParams(visibility=0.962),
    )


class TestRatePoints:
    def test_bb84_point_consistent_with_parts(self, bb84_cfg):
        point = bb84_rate_point(bb84_cfg, 20.0)
        q_mu, e_mu = protocols.expected_gain_qber(
            protocols.BB84, 0.5, ChannelParams(20.0), bb84_cfg.mzi, bb84_cfg.detector
        )
        assert point.qber == pytest.approx(e_mu, rel=1e-12)
        assert point.sifted_rate_bps == pytest.approx(0.5 * q_mu * 1e9, rel=1e-12)
        assert point.secure_rate_bps > 0.0

    def test_dps_point_consistent_with_parts(self, dps_cfg):
        point = dps_rate_point(dps_cfg, 20.0)
        q, e = protocols.expected_gain_qber(
            protocols.DPS, 0.2, ChannelParams(20.0), dps_cfg.mzi, dps_cfg.detector
        )
        assert point.qber == pytest.approx(e, rel=1e-12)
        assert point.sifted_rate_bps == pytest.approx(q * 2e9, rel=1e-12)

    def test_bb84_curve_monotone_and_cutoff(self, bb84_cfg):
        losses = list(np.arange(0.0, 60.5, 0.5))
        points = [bb84_rate_point(bb84_cfg, l) for l in losses]
        secure = [p.secure_rate_bps for p in points]
        positive = [s for s in secure if s > 0]
        assert all(b < a for a, b in zip(positive, positive[1:]))
        cutoff = max(p.loss_db for p in points if p.secure_rate_bps > 0)
        assert 38.0 <= cutoff <= 45.0

    def test_dps_curve_cutoff(self, dps_cfg):
        losses = list(np.arange(0.0, 60.5, 0.5))
        points = [dps_rate_point(dps_cfg, l) for l in losses]
        cutoff = max(p.loss_db for p in points if p.secure_rate_bps > 0)
        assert 38.0 <= cutoff <= 45.0


class TestRateCurvesScript:
    @pytest.mark.parametrize(
        "args, message",
        [
            (["--step-db", "0"], "--step-db must be finite and > 0"),
            (["--step-db", "nan"], "--step-db must be finite and > 0"),
            (["--max-loss-db", "inf"], "--max-loss-db must be finite and >= 0"),
            (["--max-loss-db", "-5"], "--max-loss-db must be finite and >= 0"),
            (["--max-loss-db", "1e9", "--step-db", "1e-12"], "at most 10**5 points"),
        ],
    )
    def test_bad_option_exit_code(self, tmp_path, args, message):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
        outdir = tmp_path / "out"
        proc = subprocess.run(
            [sys.executable, str(ROOT / "scripts" / "rate_curves.py"), "--outdir", str(outdir), *args],
            env=env,
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 2
        assert message in proc.stderr
        assert "Traceback" not in proc.stderr
        assert not outdir.exists()
