import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chirplink import protocols
from chirplink.config import ExperimentConfig, KeyRateConfig, load_config
from chirplink.errors import PreconditionError
from chirplink.experiments import write_table
from chirplink.keyrate import (
    RateCurve,
    bb84_rate_points,
    binary_entropy,
    decoy_bb84_rate,
    dps_rate,
    dps_rate_points,
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

    def test_three_values(self):
        assert binary_entropy(0.0) == 0.0
        assert binary_entropy(0.25) == pytest.approx(0.8112781245, rel=1e-9)
        assert binary_entropy(0.5) == 1.0

    def test_domain_enforced(self):
        with pytest.raises(PreconditionError):
            binary_entropy(1.2)
        with pytest.raises(PreconditionError):
            binary_entropy(-0.1)
        assert binary_entropy(math.nan) == 0.0

    # numpy's AVX-512 log2 gives another last bit than glibc's at x (the first
    # two) or at 1 - x (the last two)
    @given(x=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
    @example(x=0.5071901193159289)
    @example(x=0.8982504451781438)
    @example(x=0.048569289846958075)
    @example(x=0.27406759869572184)
    def test_bits_of_math_log2(self, x):
        # H2 > 0 on (0, 1), so == is equality of the bits
        assert binary_entropy(x) == -x * math.log2(x) - (1.0 - x) * math.log2(1.0 - x)

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
        return KeyRateConfig(mu=mu, nu=nu, f_ec=1.16), q_mu, q_nu, e_mu, e_nu, y0

    def test_bounds_are_conservative(self):
        # the estimated single-photon yield must never exceed the true one,
        # and the error estimate must never fall below it
        for eta in (0.05, 0.01, 1e-3, 1e-4):
            inp = self.inputs_for(eta)
            _, _, y1_true, e1_true = poisson_link(0.5, eta, 7.5e-8, 0.024)
            _, y1, e1 = decoy_bb84_rate(*inp)
            assert y1 > 0 and e1 <= 0.5
            assert y1 <= y1_true * (1 + 1e-9)
            assert e1 >= e1_true * (1 - 1e-9)

    def test_bounds_are_tight_for_ideal_channel(self):
        # [DERIVED] eta = 1, y0 = 0, e_det = 0 gives Q_m = 1 - e^{-m}, so
        # Y1 >= (mu/(mu nu - nu^2)) ((1-e^-nu) e^nu - (1-e^-mu) e^mu nu^2/mu^2)
        #     = 0.99027584...
        inp = self.inputs_for(1.0, y0=0.0, e_det=0.0)
        _, y1, e1 = decoy_bb84_rate(*inp)
        assert y1 > 0 and e1 <= 0.5
        assert y1 == pytest.approx(0.9902758406, rel=1e-6)
        assert e1 == pytest.approx(0.0, abs=1e-9)

    def test_rate_positive_at_low_loss(self):
        rate, y1, e1 = decoy_bb84_rate(*self.inputs_for(0.03))
        assert y1 > 0 and e1 <= 0.5 and rate > 0.0

    def test_rate_zero_when_noise_dominates(self):
        inp = self.inputs_for(1e-8, y0=1e-4)
        rate, y1, e1 = decoy_bb84_rate(*inp)
        assert rate == 0.0
        assert not (y1 > 0 and e1 <= 0.5)

    def test_invalid_inputs_rejected(self):
        with pytest.raises(PreconditionError):
            decoy_bb84_rate(KeyRateConfig(mu=0.1, nu=0.5, f_ec=1.16), 0.1, 0.1, 0.01, 0.01, 0.0)
        with pytest.raises(PreconditionError):
            decoy_bb84_rate(KeyRateConfig(mu=0.5, nu=0.1, f_ec=1.16), 1.5, 0.1, 0.01, 0.01, 0.0)
        with pytest.raises(PreconditionError):
            decoy_bb84_rate(KeyRateConfig(mu=0.5, nu=0.1, f_ec=0.9), 0.1, 0.1, 0.01, 0.01, 0.0)
        # exp(mu) overflows past 709
        with pytest.raises(PreconditionError):
            decoy_bb84_rate(KeyRateConfig(mu=800.0, nu=0.1, f_ec=1.16), 0.1, 0.1, 0.01, 0.01, 0.0)
        # 0 < nu < mu holds, but mu * nu - nu^2 underflows to 0: the config refuses it
        with pytest.raises(PreconditionError, match="rounds to 0"):
            KeyRateConfig(mu=1e-323, nu=5e-324)


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
        with pytest.raises(PreconditionError, match="mu must be >= 0"):
            dps_rate(0.5, 0.0, -0.1, f_ec=1.16)


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
        curve = bb84_rate_points(bb84_cfg, [20.0])
        (qber,), (sifted,), (secure,) = curve.qber, curve.sifted_rate_bps, curve.secure_rate_bps
        q_mu, e_mu = protocols.expected_gain_qber(
            protocols.BB84, 0.5, ChannelParams(20.0), bb84_cfg.mzi, bb84_cfg.detector
        )
        assert qber == pytest.approx(e_mu, rel=1e-12)
        assert sifted == pytest.approx(0.5 * q_mu * 1e9, rel=1e-12)
        assert secure > 0.0

    def test_dps_point_consistent_with_parts(self, dps_cfg):
        curve = dps_rate_points(dps_cfg, [20.0])
        (qber,), (sifted,) = curve.qber, curve.sifted_rate_bps
        q, e = protocols.expected_gain_qber(
            protocols.DPS, 0.2, ChannelParams(20.0), dps_cfg.mzi, dps_cfg.detector
        )
        assert qber == pytest.approx(e, rel=1e-12)
        assert sifted == pytest.approx(q * 2e9, rel=1e-12)

    def test_bb84_curve_monotone_and_cutoff(self, bb84_cfg):
        losses = list(np.arange(0.0, 60.5, 0.5))
        curve = bb84_rate_points(bb84_cfg, losses)
        positive = curve.secure_rate_bps[curve.secure_rate_bps > 0]
        assert all(b < a for a, b in zip(positive, positive[1:]))
        cutoff = curve.loss_db[curve.secure_rate_bps > 0].max()
        assert 38.0 <= cutoff <= 45.0

    def test_dps_curve_cutoff(self, dps_cfg):
        losses = list(np.arange(0.0, 60.5, 0.5))
        curve = dps_rate_points(dps_cfg, losses)
        cutoff = curve.loss_db[curve.secure_rate_bps > 0].max()
        assert 38.0 <= cutoff <= 45.0

    def test_negative_secure_rate_rejected(self, dps_cfg):
        curve = dps_rate_points(dps_cfg, [0.0, 10.0])
        with pytest.raises(PreconditionError, match="secure_rate_bps must be clamped at 0"):
            RateCurve(curve.loss_db, curve.sifted_rate_bps, curve.qber, np.array([1.0, -1e-300]), curve.law)


class TestRateCurvesScript:
    def run(self, *args):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
        script = ROOT / "scripts" / "rate_curves.py"
        return subprocess.run([sys.executable, str(script), *args], env=env, capture_output=True, text=True)

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
        outdir = tmp_path / "out"
        proc = self.run("--outdir", str(outdir), *args)
        assert proc.returncode == 2
        assert message in proc.stderr
        assert "Traceback" not in proc.stderr
        assert not outdir.exists()

    @pytest.mark.parametrize("below", ["", "sub"])
    def test_outdir_on_a_file_exit_code(self, tmp_path, below):
        taken = tmp_path / "taken"
        taken.write_text("kept\n")
        proc = self.run("--outdir", str(taken / below))
        assert proc.returncode == 2
        assert "--outdir must name a directory" in proc.stderr and "Traceback" not in proc.stderr
        assert taken.read_text() == "kept\n"

    @pytest.mark.parametrize("name", ["bb84_rate_curve.csv", "dps_rate_curve.csv"])
    def test_directory_at_an_output_path_exit_code(self, tmp_path, name):
        outdir = tmp_path / "out"
        (outdir / name).mkdir(parents=True)
        proc = self.run("--outdir", str(outdir))
        assert proc.returncode == 2
        assert f"cannot write {outdir / name}" in proc.stderr and "Traceback" not in proc.stderr

    def test_writes_the_curves_of_the_example_links(self, tmp_path):
        outdir = tmp_path / "out"
        proc = self.run("--outdir", str(outdir), "--max-loss-db", "1", "--step-db", "0.5")
        assert proc.returncode == 0, proc.stderr
        losses = np.array([0.0, 0.5, 1.0])
        for name, rate_points in (("bb84", bb84_rate_points), ("dps", dps_rate_points)):
            curve = rate_points(load_config(ROOT / "scripts" / "configs" / f"{name}_sweep.cfg"), losses)
            expected = tmp_path / f"{name}.csv"
            write_table(
                expected,
                "loss_db,sifted_rate_bps,qber,secure_rate_bps",
                np.column_stack([curve.loss_db, curve.sifted_rate_bps, curve.qber, curve.secure_rate_bps]),
            )
            assert (outdir / f"{name}_rate_curve.csv").read_bytes() == expected.read_bytes()


# ---------------------------------------------------------------------------
# The axis forms against a Python-float transcription of the per-loss model:
# math.exp, math.log2 and np.cos on one number at a time, binary_entropy of
# one number, and the branches as ifs.


def ieee_div(a, b):
    """a / b with IEEE semantics at b == +0.0, where Python raises."""
    if b:
        return a / b
    return math.copysign(math.inf, a) if a else math.nan


def oracle_gain_qber(duty, mu, loss, mzi, det):
    """The link law's gain and QBER at mu * duty photons per pulse, one number at a time."""
    m = mu * duty * ChannelParams(loss).transmittance
    total = mzi.loss_factor * (0.5 * m + 0.5 * m)
    clicks = []
    for dphi in (0.0, math.pi):
        # np.cos of one number, as optics.decoder_ports takes it
        port0 = min(0.5 * total * (1.0 + mzi.visibility * np.cos(dphi + mzi.internal_phase)), total)
        for port in (port0, total - port0):
            clicks.append(1.0 - (1.0 - det.dark_probability) * math.exp(-port * det.efficiency))
    r0, w0, w1, r1 = clicks
    p_error = 0.5 * (w0 * (1.0 - r0 / 2.0) + w1 * (1.0 - r1 / 2.0))
    p_correct = 0.5 * (r0 * (1.0 - w0 / 2.0) + r1 * (1.0 - w1 / 2.0))
    gain = p_error + p_correct
    return gain, p_error / gain if gain > 0 else 0.0


def oracle_decoy(mu, nu, q_mu, q_nu, e_mu, e_nu, y0, f_ec):
    """(rate, y1 bound, e1 bound, the branch taken)."""
    if not all(0.0 <= v <= 1.0 for v in (q_mu, q_nu, e_mu, e_nu, y0)):
        raise PreconditionError("decoy inputs must be in [0, 1]")
    y1 = (mu / (mu * nu - nu * nu)) * (
        q_nu * math.exp(nu)
        - q_mu * math.exp(mu) * nu * nu / (mu * mu)
        - (mu * mu - nu * nu) / (mu * mu) * y0
    )
    if y1 <= 0.0:
        return 0.0, y1, 1.0, "y1 <= 0"
    e1 = ieee_div(e_nu * q_nu * math.exp(nu) - 0.5 * y0, y1 * nu)
    branch = "e1 < 0" if e1 < 0.0 else "e1 in [0, 1/2]"
    e1 = max(e1, 0.0)
    if e1 > 0.5:
        return 0.0, y1, e1, "e1 > 1/2"
    q1 = y1 * mu * math.exp(-mu)
    raw = -q_mu * f_ec * binary_entropy(e_mu) + q1 * (1.0 - binary_entropy(e1))
    return 0.5 * max(0.0, raw), y1, e1, branch


def oracle_bb84_point(cfg, loss):
    mu, nu = cfg.keyrate.mu, cfg.keyrate.nu
    q_mu, e_mu = oracle_gain_qber(0.5, mu, loss, cfg.mzi, cfg.detector)
    q_nu, e_nu = oracle_gain_qber(0.5, nu, loss, cfg.mzi, cfg.detector)
    y0 = 1.0 - (1.0 - cfg.detector.dark_probability) ** 2
    rate = oracle_decoy(mu, nu, q_mu, q_nu, e_mu, e_nu, y0, cfg.keyrate.f_ec)[0]
    pair_rate = cfg.source.clock_rate / 2.0
    return 0.5 * q_mu * pair_rate, e_mu, rate * pair_rate


def oracle_dps_point(cfg, loss):
    mu, clock = cfg.source.mean_photon_number, cfg.source.clock_rate
    q, e = oracle_gain_qber(1.0, mu, loss, cfg.mzi, cfg.detector)
    pns = 1.0 - 2.0 * mu
    secure = 0.0
    if pns > 0.0:
        qber = min(e, 0.5)
        fraction = -cfg.keyrate.f_ec * binary_entropy(qber) + pns * (
            1.0 - math.log2(1.0 + 4.0 * qber * (1.0 - qber))
        )
        secure = q * max(0.0, fraction)
    return q * clock, e, secure * clock


def link_cfg(mu, nu_frac, f_ec, dps_mu, visibility, internal_phase, dark_rate, efficiency):
    return ExperimentConfig(
        source=SourceConfig(mean_photon_number=dps_mu),
        mzi=InterferometerParams(internal_phase=internal_phase, visibility=visibility),
        detector=DetectorParams(efficiency=efficiency, dark_rate=dark_rate),
        keyrate=KeyRateConfig(mu=mu, nu=nu_frac * mu, f_ec=f_ec),
    )


# Each reaches branches that random draws reach only now and then: a dense
# axis (np.exp would round a few percent of its exps differently); dark_rate 0
# with a transmittance that underflows to 0 (gain 0, QBER 0, Y1 = 0); dark
# counts far past the cutoff (e1 > 1/2); 0.5 photons per DPS pulse (no PNS
# margin).  The e1 < 0 clamp needs e_nu Q_nu e^nu < Y0/2, which the link law
# allows only at a visibility near 1, where 40,000 random links found Y1 <= 0
# first; test_decoy_bound_bit_equal_oracle reaches it.
LINK_EXAMPLES = [
    dict(losses=np.arange(0.0, 60.0, 0.25).tolist(), mu=0.5, nu_frac=0.2, f_ec=1.16, dps_mu=0.2,
         visibility=0.952, internal_phase=0.0, dark_rate=150.0, efficiency=0.14),
    dict(losses=[0.0, 40.0, 3500.0, 4000.0], mu=0.5, nu_frac=0.2, f_ec=1.16, dps_mu=0.2,
         visibility=0.952, internal_phase=0.0, dark_rate=0.0, efficiency=0.14),
    dict(losses=[40.0, 60.0, 80.0, 3500.0], mu=0.5, nu_frac=0.2, f_ec=1.16, dps_mu=0.5,
         visibility=1.0, internal_phase=0.3, dark_rate=1e5, efficiency=0.14),
]

# (q_mu, q_nu, e_mu, e_nu, y0) reaching y1 <= 0; e1 < 0, clamped; e1 > 1/2; a
# positive rate
DECOY_EXAMPLE_ROWS = [
    (0.5, 0.01, 0.1, 0.1, 0.0),
    (0.2, 0.1, 0.05, 0.0, 0.05),
    (1e-3, 2e-4, 0.3, 0.6, 1e-4),
    (0.02, 4e-3, 0.03, 0.03, 1e-6),
]


def curve_rows(curve):
    return np.column_stack([curve.sifted_rate_bps, curve.qber, curve.secure_rate_bps])


class TestAxisBits:
    @settings(deadline=None, max_examples=150)
    @given(
        losses=st.lists(st.floats(0.0, 80.0) | st.floats(3000.0, 4000.0), min_size=1, max_size=20),
        mu=st.floats(0.01, 2.0),
        nu_frac=st.floats(0.01, 0.99),
        f_ec=st.floats(1.0, 2.0),
        dps_mu=st.floats(0.0, 1.0),
        visibility=st.just(1.0) | st.floats(0.0, 1.0),
        internal_phase=st.floats(-math.pi, math.pi),
        dark_rate=st.just(0.0) | st.floats(0.0, 1e7),
        efficiency=st.floats(0.0, 1.0),
    )
    @example(**LINK_EXAMPLES[0])
    @example(**LINK_EXAMPLES[1])
    @example(**LINK_EXAMPLES[2])
    def test_rate_points_bit_equal_oracle(self, losses, **params):
        cfg = link_cfg(**params)
        got = dps_rate_points(cfg, losses)
        want = np.array([oracle_dps_point(cfg, loss) for loss in losses])
        assert curve_rows(got).tobytes() == want.tobytes()
        try:
            want = np.array([oracle_bb84_point(cfg, loss) for loss in losses])
        # the decoy bound's [0, 1] check of the gains: the QBER is
        # p_error / (p_error + p_correct) <= 1 by construction, so only a gain
        # that rounds above 1 could trip it
        except PreconditionError:
            with pytest.raises(PreconditionError):
                bb84_rate_points(cfg, losses)
            return
        got = bb84_rate_points(cfg, losses)
        assert curve_rows(got).tobytes() == want.tobytes()
        assert got.loss_db.tolist() == [float(loss) for loss in losses]

    def test_link_examples_reach_their_branches(self):
        reached = set()
        for params in LINK_EXAMPLES:
            losses = params["losses"]
            cfg = link_cfg(**{k: v for k, v in params.items() if k != "losses"})
            mu, nu, f_ec = cfg.keyrate.mu, cfg.keyrate.nu, cfg.keyrate.f_ec
            y0 = 1.0 - (1.0 - cfg.detector.dark_probability) ** 2
            for loss in losses:
                if ChannelParams(loss).transmittance == 0.0:
                    reached.add("transmittance 0")
                q_mu, e_mu = oracle_gain_qber(0.5, mu, loss, cfg.mzi, cfg.detector)
                q_nu, e_nu = oracle_gain_qber(0.5, nu, loss, cfg.mzi, cfg.detector)
                if q_mu == 0.0:
                    reached.add("gain 0")
                reached.add(oracle_decoy(mu, nu, q_mu, q_nu, e_mu, e_nu, y0, f_ec)[3])
            if cfg.source.mean_photon_number >= 0.5:
                reached.add("no PNS margin")
        assert reached == {
            "transmittance 0", "gain 0", "y1 <= 0", "e1 > 1/2", "e1 in [0, 1/2]", "no PNS margin"
        }


    @settings(deadline=None, max_examples=150)
    @given(
        mu=st.floats(0.01, 5.0),
        nu_frac=st.floats(0.001, 0.999),
        f_ec=st.floats(1.0, 2.0),
        rows=st.lists(st.tuples(*[st.floats(0.0, 1.0)] * 5), min_size=1, max_size=17),
    )
    @example(mu=0.5, nu_frac=0.2, f_ec=1.16, rows=DECOY_EXAMPLE_ROWS)
    def test_decoy_bound_bit_equal_oracle(self, mu, nu_frac, f_ec, rows):
        nu = nu_frac * mu
        got = np.array([decoy_bb84_rate(KeyRateConfig(mu, nu, f_ec), *row) for row in rows])
        want = np.array([oracle_decoy(mu, nu, *row, f_ec)[:3] for row in rows])
        assert got.tobytes() == want.tobytes()

    def test_decoy_example_reaches_every_branch(self):
        reached = [oracle_decoy(0.5, 0.1, *row, 1.16) for row in DECOY_EXAMPLE_ROWS]
        assert [r[3] for r in reached] == ["y1 <= 0", "e1 < 0", "e1 > 1/2", "e1 in [0, 1/2]"]
        assert reached[3][0] > 0.0

    @settings(deadline=None, max_examples=100)
    @given(data=st.data())
    @pytest.mark.parametrize("ufunc, domain", [(np.cos, st.floats(-1e6, 1e6))], ids=["cos"])
    def test_ufunc_bits_independent_of_position(self, ufunc, domain, data):
        # decoder_ports' np.cos rests on this: a value gets the same bits
        # alone (0-d) and at any offset of an array, whatever the SIMD lanes
        # and tails; no link output reads np.exp or np.log2
        values = np.array(data.draw(st.lists(domain, min_size=17, max_size=17)))
        alone = np.array([ufunc(np.array(v)) for v in values])
        for n in range(1, 18):
            for shift in range(n):
                assert ufunc(np.roll(values[:n], shift)).tobytes() == np.roll(alone[:n], shift).tobytes()
