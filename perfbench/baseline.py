#!/usr/bin/env python3
"""Run every workload once untraced and once traced, print a table, write a record.

    python3 perfbench/baseline.py [--seconds N] [--out PATH]

Each workload runs at the seed of its example config.  The record holds
the end-to-end and per-layer metrics, the checks, the output digests and
counts, the machine (CPU model, nproc, python/numpy/scipy versions) and
the git commit, and the figures of the ROADMAP baseline table next to the
measured ones.  When perfbench/baseline.json exists, the digests of this
run are compared with it: equal digests at equal seeds mean byte-identical
outputs.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
from run import RUNS, WORKLOADS, child_env  # noqa: E402

SEEDS = {"bb84-link": 7, "dps-link": 3, "laser-calibrate": 12345, "laser-traces": 12345}

# The ROADMAP baseline table: (what it lists, workload, metric, figure).
ROADMAP = [
    ("bb84_sweep", "bb84-link", "run_s", 4.6),
    ("dps_sweep", "dps-link", "run_s", 2.0),
    ("phase_voltage with physical_mode = true", "laser-calibrate", "run_s", 5.7),
    ("peak RSS, all recipes in one process (MB)", "bb84-link", "peak_rss_mb", 282.0),
    ("laser integrate (us/step)", "laser-calibrate", "laser.us_per_step", 14.0),
]

ENSEMBLE_PROBE = """
import json, time
from chirplink import laser
p = laser.LaserParams()
out = {}
for name, drive in (
    ("1000 runs x 200 steps", laser.DriveWaveform.constant(2 * p.threshold_current, 200 * 2e-13, 1e-13)),
    ("1000 runs x 5000 steps (laser acceptance test)", laser.DriveWaveform.from_segments(
        [(0.3e-9, 0.2 * p.threshold_current), (0.7e-9, 3.0 * p.threshold_current)], 1e-11)),
):
    t = time.perf_counter()
    laser.integrate_ensemble(p, drive, 1000, rng_seed=42, dt=2e-13)
    out[name] = time.perf_counter() - t
print(json.dumps(out))
"""


def _machine() -> dict:
    import numpy
    import scipy

    cpu = "unknown"
    cpuinfo = Path("/proc/cpuinfo")
    if cpuinfo.exists():
        for line in cpuinfo.read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown"
    return {
        "git_commit": commit,
        "cpu_model": cpu,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
    }


def _run(workload: str, seconds: int, trace: int) -> dict:
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(SEEDS[workload]),
            "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=200)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} trace {trace}: run.py exited with {proc.returncode}")
    return json.loads((RUNS / f"{workload}-seed{SEEDS[workload]}-trace{trace}.json").read_text())


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--seconds", type=int, default=json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"])
    parser.add_argument("--out", type=Path, default=RUNS / "baseline.json")
    args = parser.parse_args()

    record = {"machine": _machine(), "run_seconds": args.seconds, "workloads": {}}
    for workload in WORKLOADS:
        plain, traced = _run(workload, args.seconds, 0), _run(workload, args.seconds, 1)
        checks = plain["checks"] + traced["checks"]
        failed = [name for name, ok, _ in checks if not ok]
        record["workloads"][workload] = {
            "seed": SEEDS[workload],
            "end_to_end": {k: v["value"] for k, v in plain["result"]["metrics"].items()},
            "fail_frac": f"{len(failed)}/{len(checks)}",
            "failed_checks": failed,
            "per_layer": {k: v["value"] for k, v in traced["result"]["metrics"].items()},
            "self_time_sum_s": traced["self_time_sum_s"],
            "traced_run_s": traced["traced_run_s"],
            "digests": plain["digests"],
            "counts": traced["counts"],
        }

    proc = subprocess.run([sys.executable, "-c", ENSEMBLE_PROBE], env=child_env(), cwd=ROOT,
                          capture_output=True, text=True, check=True)
    record["integrate_ensemble_s"] = json.loads(proc.stdout)
    record["roadmap_comparison"] = []
    for what, workload, metric, figure in ROADMAP:
        w = record["workloads"][workload]
        measured = w["end_to_end"].get(metric, w["per_layer"].get(metric))
        record["roadmap_comparison"].append(
            {"roadmap": what, "roadmap_figure": figure, "workload": workload, "metric": metric, "measured": measured}
        )
    record["roadmap_comparison"].append(
        {"roadmap": "integrate_ensemble, 1000 runs x 200 steps (s)", "roadmap_figure": 1.8,
         "measured": record["integrate_ensemble_s"]}
    )

    print(f"commit {record['machine']['git_commit']}, {record['machine']['cpu_model']}, "
          f"nproc {record['machine']['nproc']}, python {record['machine']['python']}, "
          f"numpy {record['machine']['numpy']}, scipy {record['machine']['scipy']}")
    committed = HERE / "baseline.json"
    reference = json.loads(committed.read_text())["workloads"] if committed.exists() else {}
    for workload, w in record["workloads"].items():
        e2e = ", ".join(f"{k} {v:.4g}" for k, v in w["end_to_end"].items())
        print(f"{workload} (seed {w['seed']}): {e2e}, fail_frac {w['fail_frac']}")
        print(f"  layer self times {w['self_time_sum_s']:.4g} s of traced run_s {w['traced_run_s']:.4g} s; "
              + ", ".join(f"{k} {v:.4g}" for k, v in w["per_layer"].items() if v))
        ref = reference.get(workload)
        if ref and ref["seed"] == w["seed"]:
            same = ref["digests"] == w["digests"]
            print(f"  outputs {'byte-identical to' if same else 'DIFFER from'} perfbench/baseline.json")
    for row in record["roadmap_comparison"]:
        print(f"ROADMAP {row['roadmap']}: {row['roadmap_figure']} listed, measured {row['measured']}")
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
