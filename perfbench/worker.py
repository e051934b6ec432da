"""One workload run in a fresh interpreter; started by run.py.

Imports the program from the checkout's src/, writes the workload's
inputs, then repeats the timed call until the time budget is used.
Without tracing every repetition is timed plain.  With tracing, two of
every three repetitions run under the tracer and the rest plain, so the
tracing overhead is measured in the same process.  Prints one JSON line.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--spans", type=Path, help="where a traced run writes its spans")
    args = parser.parse_args()

    t0 = time.perf_counter()
    import chirplink.cli  # noqa: F401  (the import that set-up time measures)

    import_s = time.perf_counter() - t0
    src = (ROOT / "src").resolve()
    if src not in Path(chirplink.cli.__file__).resolve().parents:
        print(f"chirplink was imported from {chirplink.cli.__file__}, not from {src}", file=sys.stderr)
        return 1

    import tracer as tracing
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    inputs = workload.prepare(args.workdir, args.seed)

    reps = []  # (run_s, traced, digests, tracer or None)
    checks = []
    min_reps = 3 if args.trace else 2
    started = time.perf_counter()
    while True:
        traced = bool(args.trace) and len(reps) % 3 != 0
        for stale in args.workdir.glob("*.csv*"):
            stale.unlink()
        tracer = tracing.Tracer() if traced else None
        with tracer.installed() if tracer else contextlib.nullcontext():
            t = time.perf_counter()
            outputs, result = workload.run(inputs)
            run_s = time.perf_counter() - t
        digests = {p.name: _sha256(p) for p in outputs}
        if not reps:
            checks = workload.check(inputs, result)
        reps.append((run_s, traced, digests, tracer))
        elapsed = time.perf_counter() - started
        if len(reps) >= min_reps and elapsed + run_s > args.seconds:
            break

    digests = reps[0][2]
    checks.append(("same digests", all(r[2] == digests for r in reps), f"{len(reps)} repetitions"))
    plain = [r[0] for r in reps if not r[1]]
    report = {
        "import_s": import_s,
        "run_s": statistics.median(plain),
        "run_s_all": [r[0] for r in reps],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "digests": digests,
    }
    tracers = [r[3] for r in reps if r[1]]
    if tracers:
        counts = dict(tracers[0].counts)
        checks.append(("same counts", all(dict(t.counts) == counts for t in tracers),
                       f"{len(tracers)} traced repetitions"))
        per_rep = [tracing.layer_metrics(t) for t in tracers]
        layers = {
            name: (statistics.median(m[name][0] for m in per_rep), unit)
            for name, (_, unit) in per_rep[0].items()
        }
        traced_s = statistics.median(r[0] for r in reps if r[1])
        layers["trace.overhead_s"] = (traced_s - report["run_s"], "s")
        report.update(
            layers=layers,
            counts=counts,
            traced_run_s=traced_s,
            self_time_sum_s=sum(layers[f"{layer}.self_s"][0] for layer in tracing.LAYERS),
            unattributed_s=statistics.median(tracing.unattributed_s(t) for t in tracers),
            missing_probes=tracers[0].missing,
        )
        if args.spans:
            args.spans.write_text(json.dumps(
                {"fields": ["name", "start", "end", "parent"], "repetitions": [t.spans for t in tracers]}
            ))
    report["checks"] = checks
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
