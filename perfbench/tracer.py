"""In-memory span tracer for the benchmark's traced runs.

The tracer replaces public functions of the program, under the module
attribute each caller looks them up by, with wrappers that record one
span (name, start, end, parent) per call and update counters from the
call's arguments and result.  The program's source is not edited; the
wrappers are removed again after each traced repetition.

Span names are ``<layer>.<what>``, where the layer is the package module
the work belongs to.  A span's self time is its duration minus the time
covered by its child spans, so the self times of all spans of one call
tree add up to the duration of its root span.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import time
from collections import Counter, defaultdict

import numpy as np

LAYERS = ("laser", "source", "optics", "protocols", "keyrate", "experiments")


def _count_integrate(counts, args, result):
    counts["laser.integrate.steps"] += len(result) - 1


def _count_pulses(counts, args, result):
    counts["source.pulses"] += len(result)


def _count_detect(counts, args, result):
    counts["optics.slots_detected"] += len(result)
    counts["optics.clicks"] += int(np.count_nonzero(result.port0) + np.count_nonzero(result.port1))


def _count_sift(counts, args, result):
    # The first argument holds Alice's symbols: one key-eligible slot each
    # (the central slot of a BB84 pair, every interference slot for DPS).
    counts["protocols.key_slots"] += len(args[0])


def _count_sifted(counts, args, result):
    counts["protocols.sifted_bits"] += result.sifted_count


# (module, attribute the callers look up, span name, counter or None)
PROBES = (
    ("chirplink.cli", "main", "experiments.cli", None),
    ("chirplink.experiments", "calibrate_physical_drive_scale", "experiments.calibrate", None),
    ("chirplink.experiments", "simulate_bb84", "protocols.simulate", _count_sifted),
    ("chirplink.experiments", "simulate_dps", "protocols.simulate", _count_sifted),
    ("chirplink.experiments", "expected_gain_qber", "protocols.expected_gain_qber", None),
    ("chirplink.experiments", "bb84_rate_point", "keyrate.rate_point", None),
    ("chirplink.experiments", "dps_rate_point", "keyrate.rate_point", None),
    ("chirplink.protocols", "generate_symbols", "protocols.symbols", None),
    ("chirplink.protocols", "generate_bob_bases", "protocols.symbols", None),
    ("chirplink.protocols", "emit_train", "source.emit_train", _count_pulses),
    ("chirplink.protocols", "attenuate", "optics.attenuate", None),
    ("chirplink.protocols", "interfere", "optics.interfere", None),
    ("chirplink.protocols", "detect", "optics.detect", _count_detect),
    ("chirplink.protocols", "passive_basis_clicks", "protocols.passive_basis", None),
    ("chirplink.protocols", "bb84_sift", "protocols.sift", _count_sift),
    ("chirplink.protocols", "dps_sift", "protocols.sift", _count_sift),
    ("chirplink.laser", "integrate", "laser.integrate", _count_integrate),
    ("chirplink.laser", "stationary_state", "laser.stationary_state", None),
    ("chirplink.laser", "locked_phase_offset", "laser.locked_phase_offset", None),
    ("chirplink.laser", "export_trace_csv", "laser.export_trace_csv", None),
)


class Tracer:
    """Spans and counts of one traced repetition, kept in memory."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counts: Counter = Counter()
        self.missing: list[str] = []
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        self.spans.append([name, 0.0, 0.0, self._stack[-1] if self._stack else -1])
        self._stack.append(idx)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[idx][1:3] = start, end
            self.counts[name + ".calls"] += 1

    def _wrap(self, fn, name, counter):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if counter is not None:
                counter(self.counts, args, result)
            return result

        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Wrap every probe and open the root span `bench.run` for the block.

        A probe whose attribute the program no longer has is listed in
        `missing`.  The original functions are restored on exit.
        """
        patches = []
        for module_name, attr, name, counter in PROBES:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr, None)
            if fn is None:
                self.missing.append(f"{module_name}.{attr}")
                continue
            patches.append((module, attr, fn))
            setattr(module, attr, self._wrap(fn, name, counter))
        try:
            with self.span("bench.run"):
                yield
        finally:
            for module, attr, fn in reversed(patches):
                setattr(module, attr, fn)


def self_times(spans: list[list]) -> list[float]:
    own = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def _calibration_integrations(spans: list[list]) -> float:
    """Laser integrations per call of the drive-scale calibration."""
    calibrations = sum(1 for s in spans if s[0] == "experiments.calibrate")
    if not calibrations:
        return 0
    inside = 0
    for name, _, _, parent in spans:
        if name != "laser.integrate":
            continue
        while parent >= 0 and spans[parent][0] != "experiments.calibrate":
            parent = spans[parent][3]
        inside += parent >= 0
    return inside / calibrations


def _ratio(num: float, den: float, scale: float = 1.0) -> float:
    return num / den * scale if den else 0.0


def layer_metrics(tracer: Tracer) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced repetition, as name -> (value, unit)."""
    spans, counts = tracer.spans, tracer.counts
    total: dict[str, float] = defaultdict(float)
    own: dict[str, float] = defaultdict(float)
    layer_self: dict[str, float] = defaultdict(float)
    for (name, start, end, _), self_s in zip(spans, self_times(spans)):
        total[name] += end - start
        own[name] += self_s
        layer_self[name.split(".", 1)[0]] += self_s
    steps = counts["laser.integrate.steps"]
    slots = counts["optics.slots_detected"]
    metrics = {
        "laser.integrate.calls": (counts["laser.integrate.calls"], "count"),
        "laser.integrate.steps": (steps, "count"),
        "laser.integrate.s": (total["laser.integrate"], "s"),
        "laser.us_per_step": (_ratio(total["laser.integrate"], steps, 1e6), "us"),
        "experiments.calibrate.integrations": (_calibration_integrations(spans), "count"),
        "source.emit_train.s": (total["source.emit_train"], "s"),
        "source.pulses": (counts["source.pulses"], "count"),
        "source.ns_per_pulse": (_ratio(total["source.emit_train"], counts["source.pulses"], 1e9), "ns"),
        "optics.attenuate.s": (total["optics.attenuate"], "s"),
        "optics.interfere.s": (total["optics.interfere"], "s"),
        "optics.detect.s": (total["optics.detect"], "s"),
        "optics.slots_detected": (slots, "count"),
        "optics.clicks": (counts["optics.clicks"], "count"),
        "optics.ns_per_slot": (_ratio(layer_self["optics"], slots, 1e9), "ns"),
        "protocols.symbols.s": (total["protocols.symbols"], "s"),
        "protocols.passive_basis.s": (total["protocols.passive_basis"], "s"),
        "protocols.sift.s": (total["protocols.sift"], "s"),
        "protocols.simulate.self_s": (own["protocols.simulate"], "s"),
        "protocols.chunks": (counts["protocols.sift.calls"], "count"),
        "protocols.sifted_bits": (counts["protocols.sifted_bits"], "count"),
        "protocols.useful_slot_share": (_ratio(counts["protocols.key_slots"], slots), "fraction"),
        "keyrate.rate_point.calls": (counts["keyrate.rate_point.calls"], "count"),
        "keyrate.rate_point.s": (total["keyrate.rate_point"], "s"),
    }
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = (layer_self[layer], "s")
    return metrics


def unattributed_s(tracer: Tracer) -> float:
    """Time of root spans not covered by any layer's spans (benchmark glue)."""
    return sum(
        s for span, s in zip(tracer.spans, self_times(tracer.spans))
        if span[0].split(".", 1)[0] not in LAYERS
    )
