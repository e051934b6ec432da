import hashlib
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from dataclasses import replace
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from chirplink import experiments, laser, protocols
from chirplink.config import ExperimentConfig, StabilityConfig, load_config
from chirplink.errors import IntegrationDivergedError, PreconditionError
from chirplink.optics import ChannelParams, InterferometerParams, transmittances
from chirplink.protocols import expected_gain_qber
from chirplink.source import SourceConfig, phase_from_voltage

CONFIG_DIR = Path(__file__).resolve().parent.parent / "scripts" / "configs"
SRC_DIR = Path(__file__).resolve().parent.parent / "src"


# values whose %.18e text is easy to get wrong: NaN, the infinities, both
# zeros, the smallest and a large subnormal, and doubles near the top
SPECIAL_VALUES = [math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, -5e-324, 2.2e-308, 1.7e308, -1.7e308]
ASCII_TEXT = st.text(st.characters(min_codepoint=32, max_codepoint=126), max_size=12)


class TestWriteTable:
    @settings(deadline=None)
    @given(
        rows=arrays(
            np.float64,
            st.tuples(st.integers(1, 300), st.integers(1, 6)),
            elements=st.one_of(st.sampled_from(SPECIAL_VALUES), st.floats()),
        ),
        # every table names its columns; np.savetxt writes no line for an empty header
        header=ASCII_TEXT.filter(bool),
        items=st.lists(st.tuples(ASCII_TEXT, ASCII_TEXT), max_size=4),
    )
    def test_savetxt_bytes_after_the_items(self, tmp_path_factory, rows, header, items):
        directory = tmp_path_factory.mktemp("table")
        path, reference = directory / "table.csv", directory / "savetxt.csv"
        experiments.write_table(path, header, rows, items)
        np.savetxt(reference, rows, delimiter=",", header=header, comments="")
        comments = "".join(f"# {key} = {value}\n" for key, value in items)
        assert path.read_bytes() == comments.encode() + reference.read_bytes()


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
    @pytest.mark.parametrize("halfwave_voltage", [0.1, 0.35, 2.0])
    @pytest.mark.parametrize(
        "duration", [0.2e-12, 0.3e-12, 0.5e-12, 1.1e-12, 25.1e-12, 250.09e-12, 1e-9, 19e-9]
    )
    def test_calibrated_scale_hits_pi_at_halfwave(self, halfwave_voltage, duration):
        # on and off the step grid: a step is integrated over its count of
        # samples, round(duration / _DT), which is 1 at 0.3 ps and 126 at 25.1 ps
        src = SourceConfig(halfwave_voltage=halfwave_voltage, perturbation_duration=duration)
        up, down = laser.physical_phase(src, [halfwave_voltage, -halfwave_voltage])
        assert up == pytest.approx(math.pi, rel=1e-3)
        assert down == pytest.approx(-math.pi, rel=1e-3)

    def test_physical_phase_error_is_second_order(self, monkeypatch):
        # [DERIVED] Heun's method is second order: each halving of the step
        # quarters the error against the closed-form phase pi V / V_pi, and
        # Richardson's (4 phi(dt / 2) - phi(dt)) / 3 cancels that error's
        # leading term
        cfg = ExperimentConfig(experiment="phase_voltage", physical_mode=True)
        volts = np.array([v for v in cfg.voltages if v != 0.0])
        exact = math.pi * volts / cfg.source.halfwave_voltage
        phases = []
        for dt in (2e-13, 1e-13, 5e-14):
            monkeypatch.setattr(laser, "_DT", dt)
            phases.append(experiments.run_phase_voltage(replace(cfg, voltages=volts.tolist())).physical_phase)
        errors = [phase - exact for phase in phases]
        for coarse, fine in zip(errors, errors[1:]):
            assert np.all(np.abs(coarse / fine - 4.0) <= 0.3)
        assert np.abs((4.0 * phases[2] - phases[1]) / 3.0 - exact).max() <= 1e-6

    def test_physical_phase_odd_in_voltage(self):
        up, down = laser.physical_phase(SourceConfig(), [0.2, -0.2])
        assert down == pytest.approx(-up, rel=0.05)

    def test_physical_mode_integrates_reference_once(self, kernel_pumps):
        voltages = [-0.35, 0.0, 0.175, 0.35]
        cfg = ExperimentConfig(experiment="phase_voltage", voltages=voltages, physical_mode=True)
        res = experiments.run_phase_voltage(cfg)
        # one call in all, over the whole window: the constant-pump reference
        # first, then one run per voltage, 0 V a copy of the reference; the
        # calibration is a closed form and integrates nothing
        ((pump, holds),) = kernel_pumps
        n_step = round(cfg.source.perturbation_duration / laser._DT)
        n_post = round(laser._POST / laser._DT)
        assert holds == [1, n_step, n_post + 1]
        bias = pump[0, 0]
        # every run holds the bias, its level for the step's samples, then the bias again
        assert (pump[0] == bias).all() and (pump[2] == bias).all()
        assert pump.shape == (3, 5) and pump[1, 0] == bias and pump[1, 2] == bias
        # the level is linear in the voltage
        down, _, half, up = pump[1, 1:] - bias
        assert down == pytest.approx(-up, rel=1e-12) and half == pytest.approx(up / 2.0, rel=1e-12)
        assert res.physical_phase[1] == 0.0
        assert res.physical_phase[0] == pytest.approx(-math.pi, rel=1e-3)
        assert res.physical_phase[3] == pytest.approx(math.pi, rel=1e-3)
        # nothing is carried over to the next run: it makes the same call again
        again = experiments.run_phase_voltage(cfg)
        assert len(kernel_pumps) == 2
        assert kernel_pumps[1][0].tobytes() == pump.tobytes() and kernel_pumps[1][1] == holds
        assert again.physical_phase.tobytes() == res.physical_phase.tobytes()

    def test_default_physical_run_makes_one_call(self, kernel_pumps):
        # the reference and each of the 21 voltages, 0 V among them, in one call
        cfg = load_config(CONFIG_DIR / "phase_voltage.cfg")
        experiments.run_phase_voltage(replace(cfg, physical_mode=True, output_path=None))
        ((pump, holds),) = kernel_pumps
        assert pump.shape == (3, 22) and len(set(pump[1].tolist())) == 21
        assert holds == [1, 1250, 7501]
        assert 22 * (sum(holds) - 1) == 192_522

    def test_net_phase_equals_whole_window_run(self, kernel_pumps):
        # the net phase from one integration over the whole window per drive
        # level: the angle of its last sample plus 2 pi per correction of
        # np.unwrap, bit for bit, and np.unwrap's own sum of the corrections,
        # each 2 pi to rounding, within 2e-14 rad per turn of the two runs
        source = SourceConfig()
        duration = source.perturbation_duration

        def whole_window(level):
            """(net phase from the turns, np.unwrap's net phase, turns)"""
            trace = whole_window_trace(level, duration)
            angle, two_pi = np.angle(trace.field), 2.0 * math.pi
            turns = round((trace.phase[-1] - angle[-1]) / two_pi)
            return angle[-1] + two_pi * turns - angle[0], trace.phase[-1] - trace.phase[0], turns

        phases = laser.physical_phase(source, [-0.5, -0.35, -0.1, 0.1, 0.35, 0.5, -3.0])
        ((pump, _),) = kernel_pumps
        reference = whole_window(pump[1, 0])
        for phase, level in zip(phases, pump[1, 1:]):
            net, unwrapped, turns = whole_window(level)
            assert phase == net - reference[0]
            tolerance = (abs(turns) + abs(reference[2])) * 2e-14
            assert abs(phase - (unwrapped - reference[1])) <= tolerance
        # ~200 sign changes of Im E, and 4 turns at -3 V, against the reference's 8
        assert whole_window(pump[1, -1])[2] == 4 and reference[2] == 8
        # a diverging run names the sample of the whole window, at the same state
        with pytest.raises(IntegrationDivergedError) as resumed:
            laser.physical_phase(source, [1e6])
        with pytest.raises(IntegrationDivergedError) as whole:
            whole_window(kernel_pumps[-1][0][1, 1])
        assert str(resumed.value) == str(whole.value)

    def test_default_physical_phases_bit_pin(self):
        # recorded with one whole-window run of tests/test_laser.py's
        # real-form oracle_integrate per drive step: its np.unwrap net phase,
        # as test_net_phase_equals_whole_window_run takes it, less the
        # reference's
        cfg = load_config(CONFIG_DIR / "phase_voltage.cfg")
        cfg = replace(cfg, physical_mode=True, output_path=None)
        phases = experiments.run_phase_voltage(cfg).physical_phase
        assert len(phases) == 21
        assert (
            hashlib.sha256(phases.tobytes()).hexdigest()
            == "8098e3408f0f14f4d05ddbae0bd00a6e8685d29a5a227e81ca6f7d03da248b01"
        )

    def test_fresh_divergence_names_whole_window_sample(self, kernel_pumps):
        # the first request steps the reference and its levels from sample 0
        source = SourceConfig()
        with pytest.raises(IntegrationDivergedError) as fresh:
            laser.physical_phase(source, [0.1, 1e6, 2e6])
        ((pump, _),) = kernel_pumps
        with pytest.raises(IntegrationDivergedError) as whole:
            whole_window_trace(pump[1, 2], source.perturbation_duration)
        assert str(fresh.value) == str(whole.value)
        assert (fresh.value.step_index, fresh.value.intensity, fresh.value.carrier) == (
            whole.value.step_index, whole.value.intensity, whole.value.carrier
        )

    @pytest.mark.parametrize("duration", [0.3e-12, SourceConfig().perturbation_duration])
    def test_net_phases_do_not_depend_on_grouping(self, duration):
        # more voltages than one 24-run block of the kernel, with a repeat and 0 V
        source = replace(SourceConfig(), perturbation_duration=duration)
        volts = [0.35, -0.2, 0.0, 0.1, -0.5, 0.2, 0.35, 0.05, -0.05, 0.3, -0.35, 0.15]
        volts += [0.025 * i for i in range(-11, 12, 2)] + [0.4, -0.4, 0.45, -0.45]
        assert len(set(volts)) > 24
        # all at once, one at a time, and in two calls
        phases = [laser.physical_phase(source, volts)]
        phases.append(np.array([float(laser.physical_phase(source, v)) for v in volts]))
        phases.append(np.concatenate([laser.physical_phase(source, volts[:2]),
                                      laser.physical_phase(source, volts[2:])]))
        assert all(phase.tobytes() == phases[0].tobytes() for phase in phases)
        assert phases[0][2] == 0.0 and phases[0][0] == phases[0][6]

    def test_step_cap_peak_memory(self, tmp_path):
        # 30 voltages at a step of 190 ns, 958,500 steps per run, in one call
        # of 31 runs: the kernel call holds no field traces and each pump is
        # three held levels per run.  ~38 MiB measured, the interpreter and
        # numpy; field traces would add ~300 MB, and a pump of one row per
        # sample, 8 bytes per run-step, peaked at ~197 MiB
        volts = " ".join(f"{v:.4f}" for v in np.linspace(-0.5, 0.5, 30))
        (tmp_path / "cap.cfg").write_text(
            "experiment = phase_voltage\nphysical_mode = true\n"
            f"source.perturbation_duration = 190e-9\nvoltages = {volts}\n"
        )
        # the peak is VmHWM, this process's own: Linux starts ru_maxrss of a
        # spawned process at the peak of the one that spawned it
        script = (
            "import re, chirplink.cli; "
            "code = chirplink.cli.main(['phase-voltage', '--config', 'cap.cfg']); "
            "print(code, re.search(r'VmHWM:\\s*(\\d+) kB', open('/proc/self/status').read())[1])"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC_DIR), env.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-c", script], cwd=tmp_path, env=env, capture_output=True, text=True
        )
        assert proc.returncode == 0, proc.stderr
        code, peak_kib = proc.stdout.split()
        assert code == "0"
        assert int(peak_kib) / 1024 < 80

    def test_many_voltages_exit_code(self, tmp_path):
        # 10,300 voltages at the default step, 10,301 runs of 9750 steps:
        # 1.004e8 run-steps, in one kernel call that keeps a turn count per
        # run, so that the memory grows with the runs, not with the steps
        volts = " ".join(repr(v) for v in np.linspace(-0.5, 0.5, 10_300).tolist())
        (tmp_path / "many.cfg").write_text(
            f"experiment = phase_voltage\nphysical_mode = true\nvoltages = {volts}\n"
        )
        # the peak is VmHWM, this process's own (see test_step_cap_peak_memory)
        script = (
            "import re, chirplink.cli; "
            "code = chirplink.cli.main(['phase-voltage', '--config', 'many.cfg', '--out', 'many.csv']); "
            "print(code, re.search(r'VmHWM:\\s*(\\d+) kB', open('/proc/self/status').read())[1])"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC_DIR), env.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-c", script], cwd=tmp_path, env=env, capture_output=True, text=True
        )
        assert proc.returncode == 0, proc.stderr
        assert "Traceback" not in proc.stderr
        code, peak_kib = proc.stdout.split()[-2:]
        assert code == "0"
        rows = [line for line in (tmp_path / "many.csv").read_text().splitlines() if not line.startswith("#")]
        assert len(rows) == 1 + 10_300  # the header and one row per voltage
        # ~38 MiB measured: the interpreter, numpy and arrays of one value per run
        assert int(peak_kib) / 1024 < 80


def whole_window_trace(level, duration):
    """One integration of the noiseless laser over the whole window of a drive level."""
    dt, post = laser._DT, laser._POST
    quiet = replace(laser.LaserParams(), spontaneous_fraction=0.0)
    bias = 2.0 * quiet.threshold_current
    n0, s0 = laser.stationary_state(quiet, bias)
    segments = [(dt, bias), (duration, level), (post, bias)]
    drive = laser.DriveWaveform.from_segments(segments, dt)
    return laser.integrate(
        quiet, drive, dt=dt, initial_field=complex(math.sqrt(s0), 0.0), initial_carrier=n0
    )


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

    def test_cross_fractions_follow_arcsine_below_unit_visibility(self):
        # 1/2 (1 + V cos phi) spans [(1 - V)/2, (1 + V)/2], not [0, 1]
        base = ExperimentConfig(experiment="randomization")
        cfg = replace(
            base, trials=10_000, rng_seed=2024, mzi=replace(base.mzi, visibility=0.952)
        )
        assert experiments.run_randomization(cfg).cross_ks_pvalue > 0.01

    def test_visibility_must_resolve_one_fraction_per_cross_pair(self):
        # 1/2 (1 + V cos dphi) takes ~V 2**53 values: at the bound the KS
        # p-value is that of V = 1, one ulp below it the run is refused
        base = ExperimentConfig(experiment="randomization", trials=10_001, rng_seed=2024)
        bound = 10_000 * 2.0**-53
        at_bound = replace(base, mzi=replace(base.mzi, visibility=bound))
        assert experiments.run_randomization(at_bound).cross_ks_pvalue == pytest.approx(
            experiments.run_randomization(base).cross_ks_pvalue, abs=0.01
        )
        below = replace(base, mzi=replace(base.mzi, visibility=math.nextafter(bound, 0.0)))
        with pytest.raises(PreconditionError, match="mzi.visibility"):
            experiments.run_randomization(below)

    def test_requires_two_blocks(self):
        cfg = ExperimentConfig(experiment="randomization", trials=1)
        with pytest.raises(PreconditionError, match="trials >= 2"):
            experiments.run_randomization(cfg)

    def test_without_randomization_cross_pairs_collapse(self):
        cfg = ExperimentConfig(
            experiment="randomization", trials=500, randomize_blocks=False
        )
        res = experiments.run_randomization(cfg)
        assert np.allclose(res.cross_fraction, 1.0, rtol=1e-9)

    def test_seed_determinism(self):
        cfg = ExperimentConfig(experiment="randomization", trials=64, rng_seed=17)
        a = experiments.run_randomization(cfg)
        b = experiments.run_randomization(cfg)
        assert np.array_equal(a.cross_fraction, b.cross_fraction)
        c = experiments.run_randomization(replace(cfg, rng_seed=18))
        assert not np.array_equal(a.cross_fraction, c.cross_fraction)

    def test_one_phase_per_block(self):
        cfg = ExperimentConfig(experiment="randomization", trials=50, rng_seed=5)
        res = experiments.run_randomization(cfg)
        # both pulses of a block share its phase; distinct blocks never collide
        assert len(np.unique(res.intra_fraction)) == 1
        assert len(np.unique(res.cross_fraction)) == 49

    # Frozen digests of intra_fraction/cross_fraction and both statistics,
    # 1000 blocks at seed 2024: (randomize_blocks, V, theta, insertion loss).
    @pytest.mark.parametrize(
        "randomize, vis, theta, loss, intra, cross, intra_som, ks_p",
        [
            (True, 1.0, 0.0, 0.0,
             "e4190bf93e24bcf8e8861a8901d31a4f22c435c951faa399ade31357df139aec",
             "2f7157d19bce04f49f325cad8a0be3d7e9efeee54aa0155470b563e69b5a7e00",
             0.0, 0.3182737531745221),
            (False, 1.0, 0.0, 0.0,
             "e4190bf93e24bcf8e8861a8901d31a4f22c435c951faa399ade31357df139aec",
             "f1e1bbfcbe225458a5a800272390da213ab584336a2848d7ef0a3b259329c014",
             0.0, 0.0),
            (True, 0.952, 0.5, 0.0,
             "d3d5840f861538534587fbf95a9a3322f2bf841f3d062af19c0865126d74196a",
             "0d986be78605e6ab73a1247fe3cee11eaf932d9ec811da10d6eb76716e1b535e",
             4.839000020065359e-16, 0.3032975729866758),
            (False, 0.952, 0.5, 3.0,
             "d3d5840f861538534587fbf95a9a3322f2bf841f3d062af19c0865126d74196a",
             "38ad689b664a6ed30157255cf0912c24c3bc521ddcf70bb9ceb3c79413885d6a",
             4.839000020065359e-16, 0.0),
            (True, 0.952, 0.5, 3.0,
             "d3d5840f861538534587fbf95a9a3322f2bf841f3d062af19c0865126d74196a",
             "4f7a90134f165486f3523cae8795ca3bb72ec982c04329f602d72ae0c0ecfcbf",
             4.839000020065359e-16, 0.3032975729866758),
        ],
    )
    def test_bit_pins(self, randomize, vis, theta, loss, intra, cross, intra_som, ks_p):
        base = ExperimentConfig(experiment="randomization")
        cfg = replace(
            base,
            trials=1000,
            rng_seed=2024,
            randomize_blocks=randomize,
            mzi=replace(base.mzi, visibility=vis, internal_phase=theta, insertion_loss_db=loss),
        )
        res = experiments.run_randomization(cfg)
        assert hashlib.sha256(res.intra_fraction.tobytes()).hexdigest() == intra
        assert hashlib.sha256(res.cross_fraction.tobytes()).hexdigest() == cross
        assert res.intra_std_over_mean == intra_som
        assert res.cross_ks_pvalue == ks_p


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
        sifts, curve = experiments.run_sweep(cfg)
        assert curve.loss_db.tolist() == [0.0, 10.0]
        for mc, qber, secure in zip(sifts, curve.qber, curve.secure_rate_bps, strict=True):
            se = math.sqrt(qber * (1 - qber) / max(mc.sifted_count, 1))
            assert abs(mc.qber - qber) < 5 * se + 1e-9
            assert secure >= 0.0
        summary = json.loads((tmp_path / "bb84.csv.json").read_text())
        assert summary["protocol"] == "bb84"
        assert len(summary["points"]) == 2
        assert list(summary) == ["protocol", "points", "config"]

    def test_dps_rows_consistent(self):
        cfg = replace(
            ExperimentConfig(experiment="dps_sweep"),
            trials=100_000,
            losses=[10.0],
            rng_seed=3,
            source=SourceConfig(mean_photon_number=0.2),
            mzi=replace(ExperimentConfig().mzi, visibility=0.962),
        )
        sifts, curve = experiments.run_sweep(cfg)
        mc, qber = sifts[0], curve.qber[0]
        se = math.sqrt(qber * (1 - qber) / max(mc.sifted_count, 1))
        assert abs(mc.qber - qber) < 5 * se

    @pytest.mark.parametrize("protocol", ["bb84", "dps"])
    def test_closed_form_honours_internal_phase(self, protocol):
        # theta = 0.5 moves the error floor from (1 - V)/2 = 2.4 % to ~7.8 %
        mzi = InterferometerParams(internal_phase=0.5, visibility=0.952)
        cfg = replace(
            ExperimentConfig(experiment=f"{protocol}_sweep"),
            trials=2_000_000,
            losses=[0.0],
            rng_seed=7,
            mzi=mzi,
        )
        (mc,), curve = experiments.run_sweep(cfg)
        (qber,) = curve.qber
        e_det = 0.5 * (1 - 0.952 * math.cos(0.5))
        assert qber == pytest.approx(e_det, rel=0.02)
        se = math.sqrt(qber * (1 - qber) / mc.sifted_count)
        assert abs(mc.qber - qber) < 5 * se

    @pytest.mark.parametrize("protocol", ["bb84", "dps"])
    def test_analytic_qber_is_the_closed_form(self, protocol):
        # bit for bit, at keyrate.mu per BB84 pair and at
        # source.mean_photon_number per DPS pulse
        cfg = replace(load_config(CONFIG_DIR / f"{protocol}_sweep.cfg"), output_path=None)
        mu = cfg.keyrate.mu if protocol == "bb84" else cfg.source.mean_photon_number
        _, curve = experiments.run_sweep(cfg)
        assert curve.loss_db.tolist() == list(cfg.losses)
        for loss_db, curve_qber in zip(curve.loss_db.tolist(), curve.qber.tolist(), strict=True):
            channel = ChannelParams(loss_db)
            _, qber = expected_gain_qber(protocol, mu, channel, cfg.mzi, cfg.detector)
            assert curve_qber == qber

    def test_other_experiment_rejected(self):
        # the protocol follows from cfg.experiment, and only a sweep names one
        for experiment in ("phase_voltage", "randomization", "stability"):
            cfg = ExperimentConfig(experiment=experiment, trials=10)
            with pytest.raises(PreconditionError, match=f"'{experiment}' is not a rate sweep"):
                experiments.run_sweep(cfg)

    @pytest.mark.parametrize("protocol", ["bb84", "dps"])
    @pytest.mark.parametrize(
        "losses, trials", [([10.0], 1), ([10.0], 100_000), ([0.0, 5.0, 20.0, 3500.0], 100_001)]
    )
    def test_draws_are_the_per_loss_simulations(self, protocol, losses, trials):
        # the sweep draws what one simulation over the whole loss axis draws
        # from the config's seed
        cfg = replace(
            ExperimentConfig(experiment=f"{protocol}_sweep"), trials=trials, losses=losses, rng_seed=5
        )
        sifts, _ = experiments.run_sweep(cfg)
        if protocol == "bb84":
            mu, n = cfg.keyrate.mu / 2.0, max(1, trials // 2)
        else:
            mu, n = cfg.source.mean_photon_number, max(2, trials)
        law = protocols.link_law(mu, transmittances(losses), cfg.mzi, cfg.detector)
        expected = protocols.simulate_links(protocol, n, cfg.source.clock_rate, law, cfg.rng_seed)
        assert sifts == expected

    @pytest.mark.parametrize("protocol", ["bb84", "dps"])
    @pytest.mark.parametrize("dark_rate, mu", [(0.0, 0.5), (150.0, 0.2), (1e5, 0.6)])
    def test_no_stray_warnings(self, tmp_path, protocol, dark_rate, mu):
        # a transmittance that underflows to 0, dark_rate 0 (gain 0, Y1 0),
        # e1 > 1/2 and no DPS PNS margin, with every warning an error
        cfg = replace(
            ExperimentConfig(experiment=f"{protocol}_sweep"),
            trials=10_000,
            losses=[0.0, 40.0, 80.0, 3500.0],
            source=SourceConfig(mean_photon_number=mu),
            detector=replace(ExperimentConfig().detector, dark_rate=dark_rate),
            output_path=str(tmp_path / "sweep.csv"),
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _, curve = experiments.run_sweep(cfg)
        if dark_rate == 0.0:
            assert (curve.sifted_rate_bps[-1], curve.qber[-1]) == (0.0, 0.0)
        assert all(secure >= 0.0 for secure in curve.secure_rate_bps)

    def test_rate_curves_script_no_stray_warnings(self, tmp_path):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC_DIR), env.get("PYTHONPATH")]))
        script = SRC_DIR.parent / "scripts" / "rate_curves.py"
        proc = subprocess.run(
            [sys.executable, "-W", "error", str(script), "--outdir", str(tmp_path),
             "--max-loss-db", "4000", "--step-db", "50"],
            env=env, capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == ""
        assert len((tmp_path / "bb84_rate_curve.csv").read_text().splitlines()) == 1 + 81

    def test_every_loss_draws_clicks(self):
        cfg = replace(
            ExperimentConfig(experiment="bb84_sweep"),
            trials=20_000,
            losses=[0.0, 5.0],
            rng_seed=1,
        )
        sifts, _ = experiments.run_sweep(cfg)
        # one draw covers the whole loss axis: every loss gets clicks
        assert all(mc.sifted_count > 0 for mc in sifts)


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
