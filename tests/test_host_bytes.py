"""The link outputs are one set of bytes on every x86-64 host.

The sweeps and the rate curves take their exponentials with math.exp one
number at a time, so neither the SIMD level numpy dispatches to nor
glibc's CPU-specific variants of its functions can move a bit of them.
Each setting below runs both sweeps and scripts/rate_curves.py in a fresh
process with the example configs and must write the bytes of a run
without it.  A setting whose features the host already lacks is skipped:
numpy refuses to disable X86_V2, its baseline, so no setting goes below it.
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
    "bb84_rate_curve.csv", "dps_rate_curve.csv",
)

SCRIPT = """
import runpy, sys
from chirplink import cli
root = sys.argv[1]
for name in ("bb84_sweep", "dps_sweep"):
    command = name.replace("_", "-")
    if cli.main([command, "--config", f"{root}/scripts/configs/{name}.cfg", "--out", f"{name}.csv"]):
        sys.exit(f"{command} failed")
sys.argv = ["rate_curves.py", "--outdir", "."]
runpy.run_path(f"{root}/scripts/rate_curves.py", run_name="__main__")
"""


def link_outputs(outdir, setting=None):
    """The six link outputs' bytes, written in a fresh process under `setting`."""
    outdir.mkdir()
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
    return link_outputs(tmp_path_factory.mktemp("host-bytes") / "unconstrained")


@pytest.mark.parametrize("name", list(SETTINGS))
def test_link_outputs_hold_under(name, unconstrained, tmp_path):
    setting, features = SETTINGS[name]
    lacking = [f for f in features if not __cpu_features__.get(f)]
    if lacking:
        pytest.skip(f"{name}: this host already lacks {', '.join(lacking)}")
    assert link_outputs(tmp_path / name, setting) == unconstrained
