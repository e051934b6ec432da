#!/usr/bin/env python3
"""Benchmark of the chirplink simulator: one workload run, one JSON line.

    python3 perfbench/run.py --workload bb84-link --seed 1 --seconds 10 --trace 0

Run from a checkout of the repository; the program is imported from its
src/ directory.  With --trace 0 the run reports the end-to-end metrics:

  run_s        median wall time of the workload's call into the program,
               after import, over the repetitions that fit in --seconds
  setup_s      median over fresh interpreters of the time to import
               chirplink.cli with its numpy/scipy dependencies
  peak_rss_mb  peak resident set of the process that ran the workload

With --trace 1 it reports the per-layer metrics of tracer.py instead.
Every run checks the outputs of the program (see workloads.py) and that
repetitions with the same seed write byte-identical files.  The last line
of standard output is the JSON result; the lines before it repeat the
metrics, checks, output digests and counts for people.  A record of the
run, and the spans of a traced run, are kept under .perfbench_runs/.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS = ROOT / ".perfbench_runs"
# The names of workloads.WORKLOADS; this process does not import the program.
WORKLOADS = ("bb84-link", "dps-link", "laser-calibrate", "laser-traces")

SETUP_SAMPLES = 3
SETUP_PROBE = (
    "import time; t = time.perf_counter(); import chirplink.cli; "
    "print(time.perf_counter() - t)"
)
# Each run must end within 180 s; the worker gets what set-up leaves of this.
RUN_DEADLINE_S = 170.0


def child_env() -> dict[str, str]:
    """Environment of every child: the checkout's program, one thread."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        env[var] = "1"
    return env


def _run_child(argv: list[str], env: dict[str, str], timeout: float) -> str:
    proc = subprocess.run(argv, env=env, cwd=ROOT, stdout=subprocess.PIPE, timeout=timeout, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{argv[1]} exited with {proc.returncode}")
    return lines[-1]


def measure_setup(env: dict[str, str]) -> list[float]:
    """Import time of chirplink.cli in fresh interpreters, after one warm-up."""
    samples = []
    for i in range(SETUP_SAMPLES + 1):
        value = float(_run_child([sys.executable, "-c", SETUP_PROBE], env, 60))
        if i:
            samples.append(value)
    return samples


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "chirplink" / "__init__.py").is_file():
        print(f"no program to measure: {ROOT / 'src' / 'chirplink'} is missing", file=sys.stderr)
        return 2

    started = time.perf_counter()
    env = child_env()
    seed = args.seed % 2**32
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    RUNS.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=tag + "-", dir=RUNS))
    try:
        setup = [] if args.trace else measure_setup(env)
        worker = [
            sys.executable, str(HERE / "worker.py"),
            "--workload", args.workload, "--seed", str(seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace), "--workdir", str(workdir),
            "--spans", str(RUNS / f"{tag}.spans.json"),
        ]
        budget = RUN_DEADLINE_S - (time.perf_counter() - started)
        report = json.loads(_run_child(worker, env, budget))
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if args.trace:
        metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in report["layers"].items()}
    else:
        metrics = {
            "run_s": {"value": report["run_s"], "unit": "s"},
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "peak_rss_mb": {"value": report["peak_rss_mb"], "unit": "MiB"},
        }
    checks = report["checks"]
    failed = sum(1 for _, ok, _ in checks if not ok)
    result = {"correct": failed == 0, "attempted": len(checks), "failed": failed, "metrics": metrics}
    (RUNS / f"{tag}.json").write_text(json.dumps({"result": result, "setup_s_all": setup, **report}, indent=1))

    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}, "
          f"repetitions {len(report['run_s_all'])}")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    if args.trace:
        print(f"  layer self times sum to {report['self_time_sum_s']:.6g} s of traced run_s {report['traced_run_s']:.6g} s "
              f"(untraced {report['run_s']:.6g} s, unattributed {report['unattributed_s']:.3g} s)")
        if report["missing_probes"]:
            print(f"  probes not found: {', '.join(report['missing_probes'])}")
    print(f"  fail_frac = {failed}/{len(checks)}")
    for name, ok, detail in checks:
        print(f"    {'ok  ' if ok else 'FAIL'} {name}: {detail}")
    for name, digest in report["digests"].items():
        print(f"  sha256 {name} {digest}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
