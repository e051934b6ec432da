import json
import math
from pathlib import Path

import numpy as np
import pytest
from dataclasses import replace

from chirplink import experiments, laser
from chirplink.config import ExperimentConfig, StabilityConfig, load_config
from chirplink.errors import PreconditionError
from chirplink.source import SourceConfig, phase_from_voltage

CONFIG_DIR = Path(__file__).resolve().parent.parent / "scripts" / "configs"


class TestPhaseVoltage:
    def test_encoder_phases_linear(self, tmp_path):
        out = tmp_path / "pv.csv"
        cfg = ExperimentConfig(
            experiment="phase_voltage",
            voltages=[-0.35, 0.0, 0.175, 0.35],
            output_path=str(out),
        )
        res = experiments.run_phase_voltage(cfg)
        assert res.physical_phase is None
        assert res.encoder_phase == pytest.approx(
            [-math.pi, 0.0, math.pi / 2, math.pi], rel=1e-12
        )
        body = [l for l in out.read_text().splitlines() if not l.startswith("#")]
        assert body[0] == "voltage_v,phase_rad"
        assert len(body) == 5

    def test_output_embeds_resolved_config(self, tmp_path):
        out = tmp_path / "pv.csv"
        cfg = ExperimentConfig(
            experiment="phase_voltage", voltages=[0.0, 0.35], output_path=str(out)
        )
        experiments.run_phase_voltage(cfg)
        text = out.read_text()
        assert "# experiment = phase_voltage" in text
        assert "# source.halfwave_voltage = 0.35" in text
        assert "# rng_seed = 12345" in text

    def test_physical_mode_tracks_encoder(self, tmp_path):
        cfg = ExperimentConfig(
            experiment="phase_voltage",
            voltages=[0.175, 0.35],
            physical_mode=True,
            output_path=str(tmp_path / "pv.csv"),
        )
        res = experiments.run_phase_voltage(cfg)
        assert res.physical_phase is not None
        for enc, phys in zip(res.encoder_phase, res.physical_phase):
            assert phys == pytest.approx(enc, rel=0.02)
        header = [
            l for l in (tmp_path / "pv.csv").read_text().splitlines()
            if not l.startswith("#")
        ][0]
        assert header == "voltage_v,phase_rad,physical_phase_rad"


class TestCalibration:
    def test_calibrated_scale_hits_pi_at_halfwave(self):
        src = SourceConfig()
        scale = experiments.calibrate_physical_drive_scale(src)
        (phi,) = experiments.physical_phase_from_voltages([src.halfwave_voltage], src, scale)
        assert phi == pytest.approx(math.pi, rel=1e-3)

    def test_physical_phase_odd_in_voltage(self):
        src = SourceConfig()
        scale = experiments.calibrate_physical_drive_scale(src)
        up, down = experiments.physical_phase_from_voltages([0.2, -0.2], src, scale)
        assert down == pytest.approx(-up, rel=0.05)

    def test_physical_mode_integrates_reference_once(self, monkeypatch):
        calls = []
        scalar = laser.integrate

        def counting(*args, **kwargs):
            calls.append(args[1].duration)
            return scalar(*args, **kwargs)

        monkeypatch.setattr(laser, "integrate", counting)
        cfg = ExperimentConfig(
            experiment="phase_voltage", voltages=[-0.35, 0.0, 0.175, 0.35], physical_mode=True
        )
        res = experiments.run_phase_voltage(cfg)
        # one reference plus the brentq evaluations; the voltages run batched
        assert 1 < len(calls) <= 6
        assert res.physical_phase[0] == pytest.approx(-math.pi, rel=1e-3)


class TestRandomization:
    def test_statistics(self, tmp_path):
        out = tmp_path / "rand.csv"
        cfg = ExperimentConfig(
            experiment="randomization",
            trials=4000,
            rng_seed=2024,
            output_path=str(out),
        )
        res = experiments.run_randomization(cfg)
        # same-block pairs interfere deterministically
        assert res.intra_std_over_mean < 1e-6
        # cross-block port fractions follow the arcsine law
        assert res.cross_ks_pvalue > 0.01
        assert len(res.intra_fraction) == 4000
        assert len(res.cross_fraction) == 3999
        summary = json.loads((tmp_path / "rand.csv.json").read_text())
        assert summary["n_blocks"] == 4000

    def test_requires_two_blocks(self):
        cfg = ExperimentConfig(experiment="randomization", trials=1)
        with pytest.raises(PreconditionError, match="trials >= 2"):
            experiments.run_randomization(cfg)

    def test_requires_pair_blocks(self):
        cfg = ExperimentConfig(
            experiment="randomization",
            trials=100,
            source=SourceConfig(block_length=4),
        )
        with pytest.raises(PreconditionError):
            experiments.run_randomization(cfg)

    def test_without_randomization_cross_pairs_collapse(self):
        cfg = ExperimentConfig(
            experiment="randomization", trials=500, randomize_blocks=False
        )
        res = experiments.run_randomization(cfg)
        assert np.allclose(res.cross_fraction, 1.0, rtol=1e-9)


class TestSweeps:
    def test_bb84_rows_consistent(self, tmp_path):
        out = tmp_path / "bb84.csv"
        cfg = replace(
            ExperimentConfig(experiment="bb84_sweep"),
            trials=100_000,
            losses=[0.0, 10.0],
            rng_seed=7,
            mzi=replace(ExperimentConfig().mzi, visibility=0.952),
            output_path=str(out),
        )
        rows = experiments.run_sweep(cfg, "bb84")
        assert [r.loss_db for r in rows] == [0.0, 10.0]
        for r in rows:
            se = math.sqrt(r.analytic_qber * (1 - r.analytic_qber) / max(r.mc_sifted_count, 1))
            assert abs(r.mc_qber - r.analytic_qber) < 5 * se + 1e-9
            assert r.secure_rate_bps >= 0.0
        summary = json.loads((tmp_path / "bb84.csv.json").read_text())
        assert summary["protocol"] == "bb84"
        assert len(summary["points"]) == 2
        assert len(summary["loss_seeds"]) == 2

    def test_dps_rows_consistent(self):
        cfg = replace(
            ExperimentConfig(experiment="dps_sweep"),
            trials=100_000,
            losses=[10.0],
            rng_seed=3,
            source=SourceConfig(mean_photon_number=0.2),
            mzi=replace(ExperimentConfig().mzi, visibility=0.962),
        )
        rows = experiments.run_sweep(cfg, "dps")
        r = rows[0]
        se = math.sqrt(r.analytic_qber * (1 - r.analytic_qber) / max(r.mc_sifted_count, 1))
        assert abs(r.mc_qber - r.analytic_qber) < 5 * se

    def test_unknown_protocol_rejected(self):
        cfg = ExperimentConfig(experiment="bb84_sweep", trials=10)
        with pytest.raises(PreconditionError):
            experiments.run_sweep(cfg, "cow")

    def test_per_loss_seeds_differ(self):
        cfg = replace(
            ExperimentConfig(experiment="bb84_sweep"),
            trials=20_000,
            losses=[0.0, 5.0],
            rng_seed=1,
        )
        rows = experiments.run_sweep(cfg, "bb84")
        # identical loss would give identical counts only by coincidence;
        # here losses differ, just check both produced clicks
        assert all(r.mc_sifted_count > 0 for r in rows)


class TestStability:
    def test_moments_match_binomial_model(self, tmp_path):
        out = tmp_path / "stab.csv"
        cfg = ExperimentConfig(
            experiment="stability",
            rng_seed=6,
            stability=StabilityConfig(duration=86400.0),
            output_path=str(out),
        )
        res = experiments.run_stability(cfg)
        stab = cfg.stability
        assert len(res.qber_series) == 86400
        assert res.n_sift_per_bin == 23500
        sigma = math.sqrt(stab.true_qber * (1 - stab.true_qber) / res.n_sift_per_bin)
        assert res.sample_mean == pytest.approx(stab.true_qber, abs=4 * sigma / math.sqrt(86400))
        assert res.sample_std == pytest.approx(sigma, rel=0.05)
        summary = json.loads((tmp_path / "stab.csv.json").read_text())
        assert summary["model_std"] == pytest.approx(sigma, rel=1e-9)
        assert len(summary["histogram_centers"]) == 40

    @staticmethod
    def _assert_overlay_matches_scipy(cfg, tmp_path):
        from scipy import stats  # the oracle; run_stability does not import scipy

        cfg = replace(cfg, output_path=str(tmp_path / "stab.csv"))
        experiments.run_stability(cfg)
        summary = json.loads((tmp_path / "stab.csv.json").read_text())
        centers = np.array(summary["histogram_centers"])
        expected = stats.norm.pdf(centers, loc=cfg.stability.true_qber, scale=summary["model_std"])
        assert np.array_equal(np.array(summary["normal_overlay_density"]), expected)

    def test_example_config_overlay_matches_scipy(self, tmp_path):
        self._assert_overlay_matches_scipy(load_config(CONFIG_DIR / "stability.cfg"), tmp_path)

    @pytest.mark.parametrize(
        "seed, true_qber, sifted_rate_bps",
        [(1, 0.001, 500.0), (2, 0.3, 40.0), (3, 0.97, 2000.0), (4, 0.5, 7.0)],
    )
    def test_normal_overlay_matches_scipy(self, tmp_path, seed, true_qber, sifted_rate_bps):
        stab = StabilityConfig(duration=3600.0, sifted_rate_bps=sifted_rate_bps, true_qber=true_qber)
        cfg = ExperimentConfig(experiment="stability", rng_seed=seed, stability=stab)
        self._assert_overlay_matches_scipy(cfg, tmp_path)

    def test_short_run(self):
        cfg = ExperimentConfig(
            experiment="stability",
            rng_seed=1,
            stability=StabilityConfig(duration=10.0),
        )
        res = experiments.run_stability(cfg)
        assert len(res.qber_series) == 10
