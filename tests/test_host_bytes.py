"""The link outputs and the physical phase-voltage table are one set of
bytes on every x86-64 host.

The sweeps and the rate curves take math.exp, math.log2 and 10.0 ** one
number at a time, plus np.cos, so the SIMD level numpy dispatches to
cannot move a bit of them: np.cos is glibc's cos and gave the same bits
at every numpy level (none of 400,000 arguments differed).  glibc's
CPU-specific variants do move a last bit of these functions on some
arguments (np.cos on 305 of those 400,000 with AVX2 and FMA off), but on
none that these links read.  The physical phase-voltage table, the
example config with physical_mode = true as scripts/run_all_experiments.sh
writes it, is the compiled Heun kernel's arithmetic, built for the CPU
whatever numpy dispatches to, plus np.angle of each run's last sample.
Each setting below runs both sweeps with the example configs, the BB84
sweep also at LINK, the physical phase-voltage run and
scripts/rate_curves.py in a fresh process and must write the bytes of a
run without it.  A setting whose features the host already lacks is
skipped: numpy refuses to disable X86_V2, its baseline, so no setting
goes below it.
"""

import os
import pathlib
import subprocess
import sys

import pytest
from numpy._core._multiarray_umath import __cpu_features__

ROOT = pathlib.Path(__file__).resolve().parents[1]

# name: (environment, the CPU features it takes away)
SETTINGS = {
    "numpy-below-X86_V4": ({"NPY_DISABLE_CPU_FEATURES": "X86_V4 AVX512_ICL AVX512_SPR"}, ("X86_V4",)),
    "numpy-below-X86_V3": ({"NPY_DISABLE_CPU_FEATURES": "X86_V4 AVX512_ICL AVX512_SPR X86_V3"}, ("X86_V3",)),
    "glibc-without-AVX2-FMA": ({"GLIBC_TUNABLES": "glibc.cpu.hwcaps=-AVX2,-FMA"}, ("AVX2", "FMA3")),
}

OUTPUTS = (
    "bb84_sweep.csv", "bb84_sweep.csv.json", "dps_sweep.csv", "dps_sweep.csv.json",
    "bb84_link.csv", "bb84_link.csv.json", "bb84_rate_curve.csv", "dps_rate_curve.csv",
    "phase_voltage_physical.csv",
)

# bb84_sweep.cfg at a link whose 5 dB secure_rate_bps took another last bit
# below X86_V4 while binary_entropy took numpy's log2
LINK = """
mzi.visibility = 0.9043223583492934
detector.efficiency = 0.24195728925293025
detector.dark_rate = 84.19215930651093
"""

SCRIPT = """
import runpy, sys
from chirplink import cli
root = sys.argv[1]
for command, config, out in (
    ("bb84-sweep", f"{root}/scripts/configs/bb84_sweep.cfg", "bb84_sweep.csv"),
    ("dps-sweep", f"{root}/scripts/configs/dps_sweep.cfg", "dps_sweep.csv"),
    ("bb84-sweep", "bb84_link.cfg", "bb84_link.csv"),
    ("phase-voltage", "phase_voltage_physical.cfg", "phase_voltage_physical.csv"),
):
    if cli.main([command, "--config", config, "--out", out]):
        sys.exit(f"{command} --config {config} failed")
sys.argv = ["rate_curves.py", "--outdir", "."]
runpy.run_path(f"{root}/scripts/rate_curves.py", run_name="__main__")
"""


def fresh_outputs(outdir, setting=None):
    """The bytes of OUTPUTS, written in a fresh process under `setting`."""
    outdir.mkdir()
    configs = ROOT / "scripts" / "configs"
    (outdir / "bb84_link.cfg").write_text((configs / "bb84_sweep.cfg").read_text() + LINK)
    physical = (configs / "phase_voltage.cfg").read_text().replace("physical_mode = false", "physical_mode = true")
    (outdir / "phase_voltage_physical.cfg").write_text(physical)
    env = {k: v for k, v in os.environ.items() if k not in ("NPY_DISABLE_CPU_FEATURES", "GLIBC_TUNABLES")}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    env.update(setting or {})
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(ROOT)], cwd=outdir, env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    return {name: (outdir / name).read_bytes() for name in OUTPUTS}


@pytest.fixture(scope="module")
def unconstrained(tmp_path_factory):
    return fresh_outputs(tmp_path_factory.mktemp("host-bytes") / "unconstrained")


@pytest.mark.parametrize("name", list(SETTINGS))
def test_link_outputs_hold_under(name, unconstrained, tmp_path):
    setting, features = SETTINGS[name]
    lacking = [f for f in features if not __cpu_features__.get(f)]
    if lacking:
        pytest.skip(f"{name}: this host already lacks {', '.join(lacking)}")
    assert fresh_outputs(tmp_path / name, setting) == unconstrained
