import argparse
import json
import os
import subprocess
import sys
import tempfile
import textwrap
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chirplink import cli
from chirplink.config import ExperimentConfig, load_config, parse_config_text
from chirplink.errors import PreconditionError
from chirplink.optics import DetectorParams, InterferometerParams
from chirplink.source import SourceConfig

ROOT = Path(__file__).resolve().parent.parent
CONFIG_DIR = ROOT / "scripts" / "configs"
SRC_DIR = ROOT / "src"

# Values that fail the sweep-axis checks: not finite or not strictly increasing.
BAD_AXES = ["0, 10, 10", "10, 5", "0, inf", "nan", "0, nan"]

# A small config per subcommand for the input fuzz.
FUZZ_BASES = {
    "phase-voltage": "experiment = phase_voltage\nvoltages = -0.35, 0, 0.35\n",
    "randomization": "experiment = randomization\ntrials = 1000\n",
    "bb84-sweep": "experiment = bb84_sweep\nlosses = 0, 20\nmzi.visibility = 0.952\n",
    "dps-sweep": "experiment = dps_sweep\nfiber_km = 0, 50\nmzi.visibility = 0.962\n",
    "stability": "experiment = stability\nstability.duration = 1000\n",
}
FUZZ_KEYS = [key for key, _ in ExperimentConfig().resolved_items()] + ["fiber_km", "output_path"]
# Finite, huge, negative, zero, nan and inf numbers.
FUZZ_VALUES = [
    "0.3", "1", "2", "700", "1000", "1e-9", "5e-10", "1e-300", "5e-324",
    "1e19", "4e19", "1e300", "1.7976931348623157e308",
    "-1", "-1e-300", "-1e300", "0", "-0", "nan", "inf", "-inf",
]


class TestParse:
    def test_defaults(self):
        cfg = parse_config_text("experiment = stability\n")
        assert cfg.experiment == "stability"
        assert cfg.rng_seed == 12345
        assert cfg.source.clock_rate == 2e9
        assert cfg.detector.efficiency == 0.14

    def test_full_file(self):
        text = """
        # comment
        experiment = bb84_sweep
        rng_seed = 7
        trials = 200000        # inline comment
        losses = 0, 10, 20, 30
        randomize_blocks = yes
        source.mean_photon_number = 0.25
        mzi.visibility = 0.952
        detector.efficiency = 0.14
        keyrate.mu = 0.5
        keyrate.nu = 0.1
        stability.duration = 3600
        """
        cfg = parse_config_text(text)
        assert cfg.rng_seed == 7
        assert cfg.trials == 200_000
        assert cfg.losses == [0.0, 10.0, 20.0, 30.0]
        assert cfg.randomize_blocks is True
        assert cfg.mzi.visibility == 0.952
        assert cfg.keyrate.nu == 0.1
        assert cfg.stability.duration == 3600.0

    def test_unknown_key_rejected(self):
        with pytest.raises(PreconditionError):
            parse_config_text("experiment = stability\nbogus = 1\n")
        with pytest.raises(PreconditionError):
            parse_config_text("experiment = stability\nmzi.bogus = 1\n")
        with pytest.raises(PreconditionError):
            parse_config_text("experiment = stability\nbogus.visibility = 1\n")

    def test_malformed_line_rejected(self):
        with pytest.raises(PreconditionError):
            parse_config_text("just words\n")

    def test_bad_number_rejected(self):
        with pytest.raises(PreconditionError):
            parse_config_text("experiment = stability\nmzi.visibility = abc\n")

    def test_invariant_violation_becomes_config_error(self):
        with pytest.raises(PreconditionError):
            parse_config_text("experiment = stability\ndetector.efficiency = 1.5\n")
        with pytest.raises(PreconditionError):
            parse_config_text("experiment = bb84_sweep\nlosses = 10, 5\n")

    def test_unknown_experiment_rejected(self):
        with pytest.raises(PreconditionError):
            parse_config_text("experiment = b92\n")

    def test_experiment_mismatch_rejected(self):
        with pytest.raises(PreconditionError):
            parse_config_text("experiment = stability\n", experiment="bb84_sweep")

    def test_fiber_km_converts_to_losses(self):
        cfg = parse_config_text(
            "experiment = dps_sweep\nfiber_km = 0, 50, 100\nloss_per_km = 0.2\n"
        )
        assert cfg.losses == [0.0, 10.0, 20.0]

    def test_fiber_km_and_losses_conflict(self):
        with pytest.raises(PreconditionError):
            parse_config_text(
                "experiment = dps_sweep\nlosses = 0, 10\nfiber_km = 0, 50\n"
            )

    def test_negative_seed_rejected(self):
        with pytest.raises(PreconditionError):
            parse_config_text("experiment = stability\nrng_seed = -1\n")
        with pytest.raises(PreconditionError):
            replace(ExperimentConfig(experiment="stability"), rng_seed=-1)

    def test_stability_without_sifted_bits_rejected(self):
        with pytest.raises(PreconditionError):
            parse_config_text(
                "experiment = stability\n"
                "stability.sifted_rate_bps = 1\n"
                "stability.integration_time = 0.1\n"
            )

    def test_hash_inside_value_is_not_a_comment(self):
        cfg = parse_config_text(
            "experiment = stability\n"
            "output_path = out#1.csv\n"
            "rng_seed = 4\t# tab before the comment\n"
        )
        assert cfg.output_path == "out#1.csv"
        assert cfg.rng_seed == 4

    @pytest.mark.parametrize("key", ["losses", "fiber_km"])
    @pytest.mark.parametrize("axis", BAD_AXES)
    def test_bad_sweep_axis_rejected(self, key, axis):
        with pytest.raises(PreconditionError, match=key):
            parse_config_text(f"experiment = dps_sweep\n{key} = {axis}\n")

    @pytest.mark.parametrize("qber", ["0", "1", "0.0", "1.5"])
    def test_true_qber_must_be_inside_unit_interval(self, qber):
        with pytest.raises(PreconditionError, match=r"true_qber must be in \(0, 1\)"):
            parse_config_text(f"experiment = stability\nstability.true_qber = {qber}\n")

    @pytest.mark.parametrize("voltages", ["nan", "0, inf", "-inf, 0.1", "0.1, nan, 0.2"])
    def test_voltages_must_be_finite(self, voltages):
        with pytest.raises(PreconditionError, match="voltages must be finite"):
            parse_config_text(f"experiment = phase_voltage\nvoltages = {voltages}\n")

    def test_voltages_need_not_be_ordered(self):
        cfg = parse_config_text("experiment = phase_voltage\nvoltages = 0.5, -0.5, 0.5\n")
        assert cfg.voltages == [0.5, -0.5, 0.5]

    def test_trials_parsed_exactly(self, tmp_path):
        # 2**53 + 1 has no float; it is neither rounded nor embedded rounded
        cfg = tmp_path / "run.cfg"
        cfg.write_text("trials = 9007199254740993\n")
        assert load_config(cfg).trials == 9007199254740993
        out = tmp_path / "run.csv"
        assert cli.main(["phase-voltage", "--config", str(cfg), "--out", str(out)]) == 0
        assert "# trials = 9007199254740993\n" in out.read_text().splitlines(keepends=True)

    def test_rng_seed_read_like_trials(self, tmp_path):
        assert parse_config_text("experiment = stability\nrng_seed = 7e0\n").rng_seed == 7
        cfg = tmp_path / "run.cfg"
        cfg.write_text("experiment = stability\nrng_seed = 7.5\n")
        out = tmp_path / "run.csv"
        assert cli.main(["stability", "--config", str(cfg), "--out", str(out)]) == 2
        assert list(tmp_path.iterdir()) == [cfg]

    def test_trials_must_be_integral(self):
        assert parse_config_text("experiment = stability\ntrials = 2e6\n").trials == 2_000_000
        for raw in ("1.9", "inf", "nan"):
            with pytest.raises(PreconditionError, match="trials"):
                parse_config_text(f"experiment = stability\ntrials = {raw}\n")

    @given(
        seed=st.integers(0, 2**63 - 1),
        trials=st.integers(1, 10**12),
        losses=st.lists(st.floats(0.0, 100.0), min_size=1, max_size=6, unique=True).map(sorted),
        voltages=st.lists(st.floats(-5.0, 5.0), min_size=1, max_size=6),
        physical_mode=st.booleans(),
        mu=st.floats(0.0, 10.0),
        visibility=st.floats(0.0, 1.0),
        internal_phase=st.floats(-10.0, 10.0),
        dark_rate=st.floats(0.0, 1e6),
    )
    def test_resolved_items_parse_back(
        self, seed, trials, losses, voltages, physical_mode, mu, visibility, internal_phase,
        dark_rate,
    ):
        cfg = ExperimentConfig(
            experiment="bb84_sweep",
            rng_seed=seed,
            trials=trials,
            physical_mode=physical_mode,
            voltages=voltages,
            losses=losses,
            source=SourceConfig(mean_photon_number=mu),
            mzi=InterferometerParams(visibility=visibility, internal_phase=internal_phase),
            detector=DetectorParams(dark_rate=dark_rate),
        )
        text = "".join(f"{key} = {value}\n" for key, value in cfg.resolved_items())
        assert parse_config_text(text) == cfg

    @pytest.mark.parametrize("path", sorted(CONFIG_DIR.glob("*.cfg")), ids=lambda p: p.name)
    def test_example_configs_load(self, path):
        cfg = load_config(path)
        assert cfg.experiment == path.stem

    def test_seed_and_out_flags_override_the_file(self, tmp_path):
        cfg = tmp_path / "stab.cfg"
        in_file = tmp_path / "file.csv"
        cfg.write_text(f"stability.duration = 10\nrng_seed = 3\noutput_path = {in_file}\n")
        assert cli.main(["stability", "--config", str(cfg)]) == 0
        flagged = tmp_path / "flag.csv"
        assert cli.main(["stability", "--config", str(cfg), "--seed", "99", "--out", str(flagged)]) == 0
        assert "# rng_seed = 3\n" in in_file.read_text().splitlines(keepends=True)
        assert "# rng_seed = 99\n" in flagged.read_text().splitlines(keepends=True)
        assert json.loads(flagged.with_name("flag.csv.json").read_text())["config"]["rng_seed"] == "99"

    def test_resolved_items_are_the_embedded_header(self):
        # every line, in order and in the bytes the outputs embed
        assert ExperimentConfig(experiment="bb84_sweep").resolved_items() == [
            ("experiment", "bb84_sweep"),
            ("rng_seed", "12345"),
            ("trials", "1000000"),
            ("physical_mode", "False"),
            ("randomize_blocks", "True"),
            (
                "voltages",
                "-0.5, -0.45, -0.4, -0.35, -0.3, -0.25, -0.2, -0.15, -0.1, -0.05, 0.0, "
                "0.05, 0.1, 0.15, 0.2, 0.25, 0.3, 0.35, 0.4, 0.45, 0.5",
            ),
            ("losses", "0.0, 5.0, 10.0, 15.0, 20.0, 25.0, 30.0, 35.0, 40.0, 45.0"),
            ("loss_per_km", "0.2"),
            ("source.clock_rate", "2000000000.0"),
            ("source.halfwave_voltage", "0.35"),
            ("source.perturbation_duration", "2.5e-10"),
            ("source.mean_photon_number", "0.25"),
            ("mzi.internal_phase", "0.0"),
            ("mzi.insertion_loss_db", "3.0"),
            ("mzi.visibility", "1.0"),
            ("detector.efficiency", "0.14"),
            ("detector.dark_rate", "150.0"),
            ("detector.gate_width", "2.5e-10"),
            ("keyrate.mu", "0.5"),
            ("keyrate.nu", "0.1"),
            ("keyrate.f_ec", "1.16"),
            ("stability.duration", "86400.0"),
            ("stability.integration_time", "1.0"),
            ("stability.sifted_rate_bps", "23500.0"),
            ("stability.true_qber", "0.0241"),
        ]

    def test_load_config(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("experiment = stability\nrng_seed = 3\n")
        cfg = load_config(path, "stability")
        assert cfg.rng_seed == 3

    def test_byte_order_mark_is_dropped(self, tmp_path):
        # as a Windows editor saves the file
        path = tmp_path / "bb84_sweep.cfg"
        path.write_bytes(b"\xef\xbb\xbf" + (CONFIG_DIR / "bb84_sweep.cfg").read_bytes())
        assert load_config(path) == load_config(CONFIG_DIR / "bb84_sweep.cfg")


class TestCli:
    def test_diverged_run_exit_code(self, tmp_path, capsys):
        cfg = tmp_path / "pv.cfg"
        cfg.write_text("experiment = phase_voltage\nphysical_mode = true\nvoltages = 0, 1e6\n")
        out = tmp_path / "pv.csv"
        assert cli.main(["phase-voltage", "--config", str(cfg), "--out", str(out)]) == 3
        assert "integration diverged" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [cfg]

    def test_non_utf8_config_exit_code(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_bytes(b"trials = 10\xff\n")
        with pytest.raises(PreconditionError, match="bad.cfg: not UTF-8"):
            load_config(cfg)
        out = tmp_path / "stab.csv"
        assert cli.main(["stability", "--config", str(cfg), "--out", str(out)]) == 2
        assert "bad.cfg: not UTF-8" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [cfg]

    def test_stability_run_writes_outputs(self, tmp_path):
        cfg = tmp_path / "stab.cfg"
        cfg.write_text(
            "experiment = stability\n"
            "stability.duration = 100\n"
            "stability.integration_time = 1\n"
        )
        out = tmp_path / "stab.csv"
        code = cli.main(["stability", "--config", str(cfg), "--seed", "5", "--out", str(out)])
        assert code == 0
        assert out.exists()
        summary = json.loads((tmp_path / "stab.csv.json").read_text())
        assert summary["n_sift_per_bin"] == 23500
        assert summary["config"]["rng_seed"] == "5"

    def test_rerun_is_byte_identical(self, tmp_path):
        cfg = tmp_path / "stab.cfg"
        cfg.write_text("experiment = stability\nstability.duration = 50\n")
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        assert cli.main(["stability", "--config", str(cfg), "--out", str(out1)]) == 0
        assert cli.main(["stability", "--config", str(cfg), "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_options_before_the_recipe_name(self, tmp_path):
        cfg = tmp_path / "stab.cfg"
        cfg.write_text("experiment = stability\nstability.duration = 50\n")
        after, before = tmp_path / "after.csv", tmp_path / "before.csv"
        assert cli.main(["stability", "--config", str(cfg), "--out", str(after)]) == 0
        assert cli.main(["--config", str(cfg), "--out", str(before), "stability"]) == 0
        assert before.read_bytes() == after.read_bytes()

    def test_seed_changes_output(self, tmp_path):
        cfg = tmp_path / "stab.cfg"
        cfg.write_text("experiment = stability\nstability.duration = 50\n")
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        cli.main(["stability", "--config", str(cfg), "--seed", "1", "--out", str(out1)])
        cli.main(["stability", "--config", str(cfg), "--seed", "2", "--out", str(out2)])
        assert out1.read_bytes() != out2.read_bytes()

    def test_config_error_exit_code(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("experiment = stability\nbogus = 1\n")
        code = cli.main(["stability", "--config", str(cfg)])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_missing_config_file_exit_code(self, tmp_path):
        code = cli.main(["stability", "--config", str(tmp_path / "absent.cfg")])
        assert code == 2

    def test_experiment_mismatch_exit_code(self, tmp_path):
        cfg = tmp_path / "mismatch.cfg"
        cfg.write_text("experiment = dps_sweep\n")
        assert cli.main(["stability", "--config", str(cfg)]) == 2

    def test_parser_is_built_once(self, tmp_path, monkeypatch):
        progs = []
        init = argparse.ArgumentParser.__init__

        def counting(self, *args, **kwargs):
            progs.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
        cli.build_parser.cache_clear()
        cfg = tmp_path / "stab.cfg"
        cfg.write_text("experiment = stability\nstability.duration = 10\n")
        for out in ("a.csv", "b.csv"):
            assert cli.main(["stability", "--config", str(cfg), "--out", str(tmp_path / out)]) == 0
        assert progs.count("chirplink") == 1

    def test_bad_subcommand_exits_2_with_cached_parser(self, capsys):
        for _ in range(2):
            with pytest.raises(SystemExit) as exc:
                cli.main(["no-such-recipe"])
            assert exc.value.code == 2
            assert "invalid choice: 'no-such-recipe'" in capsys.readouterr().err

    def test_sweep_subcommand_smoke(self, tmp_path):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text(
            "experiment = bb84_sweep\n"
            "trials = 20000\n"
            "losses = 0, 10\n"
            "mzi.visibility = 0.952\n"
        )
        out = tmp_path / "sweep.csv"
        code = cli.main(["bb84-sweep", "--config", str(cfg), "--out", str(out)])
        assert code == 0
        lines = [l for l in out.read_text().splitlines() if not l.startswith("#")]
        assert lines[0].startswith("loss_db,")
        assert len(lines) == 3

    def test_overflowing_decoy_bound_runs_without_warnings(self, tmp_path):
        # q_mu e^mu nu^2 overflows to inf at mu = 700: no single-photon
        # yield, so a secure rate of 0
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text(
            "experiment = bb84_sweep\ntrials = 20000\nlosses = 0\nmzi.visibility = 0.952\n"
            "keyrate.mu = 700\nkeyrate.nu = 600\n"
        )
        out = tmp_path / "sweep.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.main(["bb84-sweep", "--config", str(cfg), "--out", str(out)]) == 0
        lines = [l for l in out.read_text().splitlines() if not l.startswith("#")]
        assert lines[0].endswith(",secure_rate_bps") and float(lines[1].split(",")[-1]) == 0.0

    def test_negative_seed_exit_code(self, tmp_path):
        cfg = tmp_path / "neg.cfg"
        cfg.write_text("experiment = stability\nrng_seed = -1\n")
        assert cli.main(["stability", "--config", str(cfg)]) == 2
        assert cli.main(["stability", "--seed", "-1"]) == 2

    def test_stability_without_sifted_bits_exit_code(self, tmp_path):
        cfg = tmp_path / "stab.cfg"
        cfg.write_text(
            "experiment = stability\n"
            "stability.sifted_rate_bps = 1\n"
            "stability.integration_time = 0.1\n"
        )
        out = tmp_path / "stab.csv"
        assert cli.main(["stability", "--config", str(cfg), "--out", str(out)]) == 2
        assert not out.exists()

    @pytest.mark.parametrize("lines", ["stability.true_qber = 0", "stability.true_qber = 1"])
    def test_stability_degenerate_qber_exit_code(self, tmp_path, capsys, lines):
        cfg = tmp_path / "stab.cfg"
        cfg.write_text(f"experiment = stability\n{lines}\n")
        out = tmp_path / "stab.csv"
        assert cli.main(["stability", "--config", str(cfg), "--out", str(out)]) == 2
        assert "true_qber must be in (0, 1)" in capsys.readouterr().err
        assert not out.exists()
        assert not out.with_name("stab.csv.json").exists()

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "lines",
        [
            # one bin
            "stability.duration = 1\nstability.integration_time = 1",
            # one sifted bit per bin: every bin is almost surely error-free
            "stability.sifted_rate_bps = 1\nstability.true_qber = 0.001\nstability.duration = 10",
            # the overlay's z**2 overflows 40 bins away from the model mean
            "stability.sifted_rate_bps = 1e18\nstability.true_qber = 1e-300\nstability.duration = 10",
        ],
        ids=["one-bin", "one-bit-per-bin", "overlay-underflow"],
    )
    def test_constant_stability_series_writes_finite_json(self, tmp_path, lines):
        cfg = tmp_path / "stab.cfg"
        cfg.write_text(f"experiment = stability\n{lines}\n")
        out = tmp_path / "stab.csv"
        assert cli.main(["stability", "--config", str(cfg), "--out", str(out)]) == 0
        assert "nan" not in out.read_text().lower()
        summary = json.loads(out.with_name("stab.csv.json").read_text(), parse_constant=pytest.fail)
        assert summary["sample_std"] == 0.0
        for key in ("histogram_centers", "histogram_density", "normal_overlay_density"):
            assert len(summary[key]) == 40
            assert np.isfinite(summary[key]).all()
        width = summary["histogram_centers"][1] - summary["histogram_centers"][0]
        assert sum(summary["histogram_density"]) * width == pytest.approx(1.0)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "lines, message",
        [
            ("voltages = nan", "voltages must be finite"),
            ("voltages = 0, inf", "voltages must be finite"),
            ("voltages = nan\nphysical_mode = true", "voltages must be finite"),
            ("voltages = 1e300", "overflows the encoder phase"),
            ("voltages = 0, 1e300\nphysical_mode = true", "overflows the encoder phase"),
            ("voltages = 1e297\nphysical_mode = true", "overflows the laser drive step"),
        ],
        ids=["nan", "inf", "nan-physical", "1e300", "1e300-physical", "1e297-physical"],
    )
    def test_bad_voltage_exit_code(self, tmp_path, capsys, lines, message):
        cfg = tmp_path / "pv.cfg"
        cfg.write_text(f"experiment = phase_voltage\n{lines}\n")
        out = tmp_path / "pv.csv"
        assert cli.main(["phase-voltage", "--config", str(cfg), "--out", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("path", sorted(CONFIG_DIR.glob("*.cfg")), ids=lambda p: p.name)
    def test_example_config_runs(self, tmp_path, path):
        # as scripts/run_all_experiments.sh runs it
        command = path.stem.replace("_", "-")
        out = tmp_path / f"{path.stem}.csv"
        assert cli.main([command, "--config", str(path), "--out", str(out)]) == 0
        assert out.exists()
        for summary in tmp_path.glob("*.json"):
            json.loads(summary.read_text(), parse_constant=pytest.fail)

    @pytest.mark.parametrize(
        "name, swap",
        [pytest.param(path.stem, None, id=path.stem) for path in sorted(CONFIG_DIR.glob("*.cfg"))]
        + [
            pytest.param("phase_voltage", ("physical_mode = false", "physical_mode = true"), id="physical"),
            pytest.param("randomization", ("randomize_blocks = true", "randomize_blocks = false"), id="fixed"),
        ],
    )
    def test_output_reruns_from_its_header(self, tmp_path, name, swap):
        # each output scripts/run_all_experiments.sh writes from a recipe:
        # its "# key = value" lines, run as a config by the command its
        # experiment line names, write the same bytes again
        text = (CONFIG_DIR / f"{name}.cfg").read_text()
        if swap:
            assert swap[0] in text
            text = text.replace(*swap)
        cfg = tmp_path / "run.cfg"
        cfg.write_text(text)
        first, again = tmp_path / "first", tmp_path / "again"
        first.mkdir()
        again.mkdir()
        assert cli.main([name.replace("_", "-"), "--config", str(cfg), "--out", str(first / "out.csv")]) == 0
        header = [line[2:] for line in (first / "out.csv").read_text().splitlines() if line.startswith("# ")]
        cfg.write_text("".join(line + "\n" for line in header))
        command = dict(line.split(" = ", 1) for line in header)["experiment"].replace("_", "-")
        assert cli.main([command, "--config", str(cfg), "--out", str(again / "out.csv")]) == 0
        written = {p.name: p.read_bytes() for p in first.iterdir()}
        assert {p.name: p.read_bytes() for p in again.iterdir()} == written
        assert set(written) == ({"out.csv"} if name == "phase_voltage" else {"out.csv", "out.csv.json"})

    def test_cli_runs_without_scipy(self, tmp_path):
        # only randomization (the KS test) imports scipy
        (tmp_path / "stab.cfg").write_text("experiment = stability\nstability.duration = 100\n")
        (tmp_path / "sweep.cfg").write_text("trials = 20000\nlosses = 0, 10\n")
        (tmp_path / "pv.cfg").write_text("experiment = phase_voltage\n")
        (tmp_path / "pvp.cfg").write_text("experiment = phase_voltage\nphysical_mode = true\n")
        script = textwrap.dedent(
            """
            import sys

            def scipy_modules():
                return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

            import chirplink.cli
            assert not scipy_modules(), scipy_modules()
            for command, cfg in [
                ("stability", "stab.cfg"),
                ("bb84-sweep", "sweep.cfg"),
                ("dps-sweep", "sweep.cfg"),
                ("phase-voltage", "pv.cfg"),
                ("phase-voltage", "pvp.cfg"),
            ]:
                out = command + ".csv"
                assert chirplink.cli.main([command, "--config", cfg, "--out", out]) == 0
                assert not scipy_modules(), (command, scipy_modules())
            """
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC_DIR), env.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-c", script], cwd=tmp_path, env=env, capture_output=True, text=True
        )
        assert proc.returncode == 0, proc.stderr
        assert (tmp_path / "bb84-sweep.csv").exists()
        assert "physical_phase_rad" in (tmp_path / "phase-voltage.csv").read_text()

    def test_only_a_physical_run_loads_the_laser(self, tmp_path):
        # the laser, with its ctypes kernel types and its dataclasses, loads
        # for phase-voltage with physical_mode alone: not with the CLI, nor
        # for any other recipe's example config
        physical = (CONFIG_DIR / "phase_voltage.cfg").read_text()
        (tmp_path / "physical.cfg").write_text(physical.replace("physical_mode = false", "physical_mode = true"))
        names = ["bb84_sweep", "dps_sweep", "stability", "phase_voltage", "randomization"]
        runs = [(name.replace("_", "-"), str(CONFIG_DIR / f"{name}.cfg")) for name in names]
        runs.append(("phase-voltage", "physical.cfg"))
        script = textwrap.dedent(
            f"""
            import json, sys

            import chirplink.cli
            loaded = [["import", "chirplink.laser" in sys.modules]]
            for i, (command, cfg) in enumerate({runs!r}):
                code = chirplink.cli.main([command, "--config", cfg, "--out", f"{{i}}.csv"])
                loaded.append([command, code, "chirplink.laser" in sys.modules])
            print(json.dumps(loaded))
            """
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC_DIR), env.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-c", script], cwd=tmp_path, env=env, capture_output=True, text=True
        )
        assert proc.returncode == 0, proc.stderr
        loaded = json.loads(proc.stdout.splitlines()[-1])
        expected = [["import", False]] + [[command, 0, False] for command, _ in runs[:-1]]
        assert loaded == expected + [["phase-voltage", 0, True]]

    @pytest.mark.parametrize("command", sorted(FUZZ_BASES))
    @pytest.mark.parametrize("key", ["source.pulse_width", "detector.gate_period", "mzi.delay"])
    def test_deleted_key_exit_code(self, tmp_path, command, key, capsys):
        # no computation reads these, so they are rejected, not ignored; the
        # decoder delay is one slot by construction
        cfg = tmp_path / "old.cfg"
        cfg.write_text(f"{key} = 5e-10\n")
        out = tmp_path / "run.csv"
        assert cli.main([command, "--config", str(cfg), "--out", str(out)]) == 2
        assert f"unknown key {key!r}" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [cfg]

    @pytest.mark.parametrize("line", [f"losses = {axis}" for axis in BAD_AXES] + ["trials = 1.9"])
    def test_bad_sweep_input_exit_code(self, tmp_path, line):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text(line + "\n")
        out = tmp_path / "sweep.csv"
        assert cli.main(["dps-sweep", "--config", str(cfg), "--out", str(out)]) == 2
        assert not out.exists()
        assert not out.with_name("sweep.csv.json").exists()

    @pytest.mark.parametrize("duration", ["1e-15", "1e-13"])
    def test_perturbation_under_one_step_exit_code(self, tmp_path, capsys, duration):
        # a perturbation under half an integration step spans no sample
        cfg = tmp_path / "pv.cfg"
        cfg.write_text(
            "experiment = phase_voltage\n"
            "voltages = 0, 0.35\n"
            "physical_mode = true\n"
            f"source.perturbation_duration = {duration}\n"
        )
        out = tmp_path / "pv.csv"
        assert cli.main(["phase-voltage", "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"perturbation_duration = {duration} s must span 1 to 992,500 rate-equation steps" in err
        assert list(tmp_path.iterdir()) == [cfg]

    def test_randomization_needs_two_trials_exit_code(self, tmp_path):
        cfg = tmp_path / "rand.cfg"
        cfg.write_text("experiment = randomization\ntrials = 1\n")
        out = tmp_path / "rand.csv"
        assert cli.main(["randomization", "--config", str(cfg), "--out", str(out)]) == 2
        assert not out.with_name("rand.csv.json").exists()
        cfg.write_text("experiment = randomization\ntrials = 2\n")
        assert cli.main(["randomization", "--config", str(cfg), "--out", str(out)]) == 0
        text = out.with_name("rand.csv.json").read_text()
        assert json.loads(text, parse_constant=pytest.fail)["n_blocks"] == 2


class TestInputBounds:
    """Inputs the count sampler or the analytic curve cannot take exit with code 2."""

    @pytest.mark.parametrize(
        "command, lines, message",
        [
            ("bb84-sweep", "detector.dark_rate = 8e9", "dark_rate * gate_width"),
            ("bb84-sweep", "detector.dark_rate = -1", "dark_rate must be >= 0"),
            ("bb84-sweep", "mzi.insertion_loss_db = nan", "mzi.insertion_loss_db must be finite"),
            ("dps-sweep", "source.mean_photon_number = inf", "mean_photon_number must be finite"),
            ("bb84-sweep", "source.clock_rate = 1e300", "clock_rate must be positive, and finite"),
            ("bb84-sweep", "keyrate.f_ec = nan", "keyrate.f_ec must be finite"),
            ("bb84-sweep", "trials = 4e19", "trials must be in"),
            ("dps-sweep", "trials = 1e19", "trials must be in"),
            ("bb84-sweep", "keyrate.mu = 1000\nkeyrate.nu = 1", "keyrate.mu must be <="),
            ("bb84-sweep", "keyrate.mu = 1e-323\nkeyrate.nu = 5e-324", "rounds to 0"),
            ("stability", "stability.sifted_rate_bps = 1e19", "sifted bits"),
            # the product bound also refuses a rate that is not positive
            ("stability", "stability.sifted_rate_bps = -1", "sifted_rate_bps * integration_time must round to 1"),
            ("stability", "stability.sifted_rate_bps = 0", "sifted_rate_bps * integration_time must round to 1"),
            (
                "stability",
                "stability.integration_time = 1e-5\nstability.sifted_rate_bps = 1e6",
                "bins",
            ),
            (
                "stability",
                "stability.duration = 1.7976931348623157e308\nstability.integration_time = 0.5",
                "bins",
            ),
            (
                "stability",
                "stability.sifted_rate_bps = 1e308\n"
                "stability.integration_time = 2\nstability.duration = 2",
                "sifted bits",
            ),
            (
                "stability",
                "stability.true_qber = 5e-324\nstability.sifted_rate_bps = 2",
                "model std is 0",
            ),
            ("stability", "trials = abc", "invalid integer"),
            ("bb84-sweep", "losses = 1, x", "expected comma-separated numbers"),
            ("randomization", "source.mean_photon_number = 0", "no light reaches the decoder"),
            ("randomization", "trials = 1e18", "trials must be at most"),
            ("randomization", "mzi.visibility = 0", "mzi.visibility"),
            ("randomization", "mzi.visibility = 1e-300", "mzi.visibility"),
            ("randomization", "trials = 10000\nmzi.visibility = 1e-14", "mzi.visibility"),
            ("bb84-sweep", "losses =", "losses must have at least one value"),
            ("dps-sweep", "losses =", "losses must have at least one value"),
            ("dps-sweep", "fiber_km =", "fiber_km must have at least one value"),
            ("dps-sweep", "fiber_km = 0 1\nloss_per_km = -1", "loss_per_km must be finite"),
            ("dps-sweep", "fiber_km = 0 1\nloss_per_km = nan", "loss_per_km must be finite"),
            ("dps-sweep", "fiber_km = 0 1\nloss_per_km = 0", "fiber_km * loss_per_km must be strictly"),
            ("dps-sweep", "fiber_km = 0 1e308\nloss_per_km = 10", "fiber_km * loss_per_km must be finite"),
            ("dps-sweep", "fiber_km = -1 0", "fiber_km must be non-negative"),
            ("phase-voltage", "voltages =\nphysical_mode = true", "voltages must have at least one"),
            # 2 * 0.35 * 1e-310 is subnormal, so not 0, and its reciprocal
            # overflows: the source is rejected, not the voltage 0
            (
                "phase-voltage",
                "voltages = 0.0\nsource.perturbation_duration = 1e-310",
                "1 / (2 halfwave_voltage * perturbation_duration) overflows",
            ),
            (
                "phase-voltage",
                "physical_mode = true\nsource.perturbation_duration = 1e-3",
                "source.perturbation_duration = 0.001 s must span 1 to 992,500 rate-equation steps",
            ),
            (
                "phase-voltage",
                "physical_mode = true\nsource.perturbation_duration = 2e-7",
                "source.perturbation_duration",
            ),
        ],
    )
    def test_exit_code(self, tmp_path, capsys, command, lines, message):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{lines}\n")
        out = tmp_path / "run.csv"
        assert cli.main([command, "--config", str(cfg), "--out", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_year_of_one_second_bins_accepted(self):
        cfg = parse_config_text("experiment = stability\nstability.duration = 3.2e7\n")
        assert cfg.stability.n_bins == 32_000_000

    def test_largest_trials_run(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("trials = 9e18\nlosses = 0, 40\n")
        for command in ("bb84-sweep", "dps-sweep"):
            out = tmp_path / f"{command}.csv"
            assert cli.main([command, "--config", str(cfg), "--out", str(out)]) == 0
            points = json.loads(out.with_name(out.name + ".json").read_text())["points"]
            assert points[0]["sifted_count"] > 10**16

    @settings(deadline=None, max_examples=400)
    @given(
        command=st.sampled_from(sorted(FUZZ_BASES)),
        key=st.sampled_from(FUZZ_KEYS),
        value=st.sampled_from(FUZZ_VALUES),
    )
    def test_fuzz_one_key(self, command, key, value):
        lines = [
            line for line in FUZZ_BASES[command].splitlines()
            if line.partition("=")[0].strip() != key
        ]
        with tempfile.TemporaryDirectory() as tmp:
            cfg = Path(tmp) / "run.cfg"
            cfg.write_text("\n".join(lines + [f"{key} = {value}"]) + "\n")
            out = Path(tmp) / "run.csv"
            code = cli.main([command, "--config", str(cfg), "--out", str(out)])
            assert code in (0, 2, 3)
            if code == 0:
                rows = [l for l in out.read_text().splitlines() if not l.startswith("#")][1:]
                assert np.isfinite([[float(x) for x in row.split(",")] for row in rows]).all()
                summary = out.with_name("run.csv.json")
                if summary.exists():
                    json.loads(summary.read_text(), parse_constant=pytest.fail)

    @pytest.mark.parametrize("key", [key for key in FUZZ_KEYS if key.startswith("source.")])
    def test_fuzz_physical_mode_source_values(self, tmp_path, key):
        # the one-key fuzz runs phase-voltage without the rate-equation laser
        for value in FUZZ_VALUES:
            cfg = tmp_path / "run.cfg"
            cfg.write_text(f"{FUZZ_BASES['phase-voltage']}physical_mode = true\n{key} = {value}\n")
            out = tmp_path / f"run{value}.csv"
            code = cli.main(["phase-voltage", "--config", str(cfg), "--out", str(out)])
            assert code in (0, 2, 3), value
            if code == 0:
                rows = [l for l in out.read_text().splitlines() if not l.startswith("#")][1:]
                assert np.isfinite([[float(x) for x in row.split(",")] for row in rows]).all(), value
