"""Flat key-value experiment configuration with dotted group prefixes.

One file per run, e.g.::

    experiment = bb84_sweep
    rng_seed = 7
    trials = 10000000
    losses = 0, 10, 20, 30
    mzi.visibility = 0.952
    detector.efficiency = 0.14

Unknown keys are errors; every out-of-invariant value is rejected with a
message naming the offending field.  The fully resolved configuration is
embedded in every output file for bit-exact reproducibility.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field, fields, replace

from .errors import ConfigError, PreconditionError
from .optics import DetectorParams, InterferometerParams
from .source import SourceConfig

EXPERIMENTS = ("phase_voltage", "randomization", "bb84_sweep", "dps_sweep", "stability")

DEFAULT_VOLTAGES = [round(-0.5 + 0.05 * i, 10) for i in range(21)]
DEFAULT_LOSSES = [float(l) for l in range(0, 50, 5)]


@dataclass(frozen=True)
class KeyRateConfig:
    mu: float = 0.5
    nu: float = 0.1
    f_ec: float = 1.16

    def __post_init__(self):
        if not 0.0 < self.nu < self.mu:
            raise PreconditionError("keyrate intensities must satisfy 0 < nu < mu")
        if self.f_ec < 1.0:
            raise PreconditionError("f_ec must be >= 1")


@dataclass(frozen=True)
class StabilityConfig:
    duration: float = 86400.0
    integration_time: float = 1.0
    sifted_rate_bps: float = 23500.0
    true_qber: float = 0.0241

    def __post_init__(self):
        if self.duration <= 0 or self.integration_time <= 0:
            raise PreconditionError("duration and integration_time must be positive")
        if self.integration_time > self.duration:
            raise PreconditionError("integration_time must be <= duration")
        # 0 and 1 give a zero model std, so the normal overlay is undefined
        if not 0.0 < self.true_qber < 1.0:
            raise PreconditionError("true_qber must be in (0, 1)")
        if self.sifted_rate_bps <= 0:
            raise PreconditionError("sifted_rate_bps must be positive")
        if self.sifted_per_bin < 1:
            raise PreconditionError(
                "sifted_rate_bps * integration_time must round to at least one sifted bit"
            )

    @property
    def sifted_per_bin(self) -> int:
        return int(round(self.sifted_rate_bps * self.integration_time))


@dataclass(frozen=True)
class ExperimentConfig:
    experiment: str = "phase_voltage"
    rng_seed: int = 12345
    trials: int = 1_000_000
    output_path: str | None = None
    physical_mode: bool = False
    randomize_blocks: bool = True
    voltages: list[float] = field(default_factory=lambda: list(DEFAULT_VOLTAGES))
    losses: list[float] = field(default_factory=lambda: list(DEFAULT_LOSSES))
    loss_per_km: float = 0.2
    source: SourceConfig = SourceConfig()
    mzi: InterferometerParams = InterferometerParams()
    detector: DetectorParams = DetectorParams()
    keyrate: KeyRateConfig = KeyRateConfig()
    stability: StabilityConfig = StabilityConfig()

    def __post_init__(self):
        if self.experiment not in EXPERIMENTS:
            raise PreconditionError(
                f"experiment must be one of {', '.join(EXPERIMENTS)}"
            )
        if self.rng_seed < 0:
            raise PreconditionError("rng_seed must be >= 0")
        if self.trials < 1:
            raise PreconditionError("trials must be >= 1")
        if not all(math.isfinite(v) for v in self.voltages):
            raise PreconditionError("voltages must be finite")
        _check_axis(self.losses, "losses")
        if any(l < 0 for l in self.losses):
            raise PreconditionError("losses must be non-negative")

    def resolved_items(self) -> list[tuple[str, str]]:
        """Flat (key, value) view of the full configuration for embedding."""
        items: list[tuple[str, str]] = []
        for name in ("experiment", "rng_seed", "trials", "physical_mode", "randomize_blocks"):
            items.append((name, str(getattr(self, name))))
        items.append(("voltages", ", ".join(repr(v) for v in self.voltages)))
        items.append(("losses", ", ".join(repr(v) for v in self.losses)))
        items.append(("loss_per_km", repr(self.loss_per_km)))
        for group in ("source", "mzi", "detector", "keyrate", "stability"):
            obj = getattr(self, group)
            for f in fields(obj):
                items.append((f"{group}.{f.name}", repr(getattr(obj, f.name))))
        return items


def _check_axis(values: list[float], key: str) -> None:
    if not all(math.isfinite(v) for v in values):
        raise PreconditionError(f"{key} must be finite")
    if any(b <= a for a, b in zip(values, values[1:])):
        raise PreconditionError(f"{key} must be strictly increasing")


_GROUPS = {
    "source": SourceConfig,
    "mzi": InterferometerParams,
    "detector": DetectorParams,
    "keyrate": KeyRateConfig,
    "stability": StabilityConfig,
}

# A '#' starts a comment at the start of a line or after whitespace only.
_COMMENT = re.compile(r"(^|\s)#.*")

_BOOL_VALUES = {"true": True, "false": False, "1": True, "0": False, "yes": True, "no": False}


def _parse_bool(raw: str, key: str) -> bool:
    try:
        return _BOOL_VALUES[raw.strip().lower()]
    except KeyError:
        raise ConfigError(f"{key}: expected a boolean, got {raw!r}") from None


def _parse_float_list(raw: str, key: str) -> list[float]:
    try:
        return [float(tok) for tok in raw.replace(",", " ").split()]
    except ValueError:
        raise ConfigError(f"{key}: expected comma-separated numbers, got {raw!r}") from None


def parse_config_text(text: str, experiment: str | None = None) -> ExperimentConfig:
    """Parse flat key-value text into a validated ExperimentConfig.

    `experiment`, when given (e.g. from a CLI subcommand), must agree
    with any experiment key present in the file.
    """
    top: dict[str, object] = {}
    groups: dict[str, dict[str, object]] = {name: {} for name in _GROUPS}
    fiber_km: list[float] | None = None

    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = _COMMENT.sub("", line, count=1).strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected 'key = value'")
        key, raw = (part.strip() for part in stripped.split("=", 1))
        if "." in key:
            group, _, name = key.partition(".")
            if group not in _GROUPS:
                raise ConfigError(f"unknown key {key!r}")
            cls = _GROUPS[group]
            valid = {f.name: f for f in fields(cls)}
            if name not in valid:
                raise ConfigError(f"unknown key {key!r}")
            ftype = valid[name].type
            try:
                if ftype == "int":
                    groups[group][name] = int(raw)
                else:
                    groups[group][name] = float(raw)
            except ValueError:
                raise ConfigError(f"{key}: invalid number {raw!r}") from None
        elif key == "experiment":
            top[key] = raw
        elif key == "rng_seed":
            try:
                top[key] = int(raw)
            except ValueError:
                raise ConfigError(f"rng_seed: invalid integer {raw!r}") from None
        elif key == "trials":
            try:
                trials = float(raw)
            except ValueError:
                raise ConfigError(f"trials: invalid integer {raw!r}") from None
            if not trials.is_integer():
                raise ConfigError(f"trials: expected an integer, got {raw!r}")
            top[key] = int(trials)
        elif key == "output_path":
            top[key] = raw
        elif key in ("physical_mode", "randomize_blocks"):
            top[key] = _parse_bool(raw, key)
        elif key == "voltages":
            top[key] = _parse_float_list(raw, key)
        elif key == "losses":
            top[key] = _parse_float_list(raw, key)
        elif key == "fiber_km":
            fiber_km = _parse_float_list(raw, key)
        elif key == "loss_per_km":
            try:
                top[key] = float(raw)
            except ValueError:
                raise ConfigError(f"loss_per_km: invalid number {raw!r}") from None
        else:
            raise ConfigError(f"unknown key {key!r}")

    if experiment is not None:
        if "experiment" in top and top["experiment"] != experiment:
            raise ConfigError(
                f"experiment: file says {top['experiment']!r} but {experiment!r} was requested"
            )
        top["experiment"] = experiment

    if fiber_km is not None:
        if "losses" in top:
            raise ConfigError("losses: give either losses or fiber_km, not both")
        lpk = top.get("loss_per_km", 0.2)
        top["losses"] = [km * lpk for km in fiber_km]

    kwargs = dict(top)
    try:
        if fiber_km is not None:
            _check_axis(fiber_km, "fiber_km")
        for group, values in groups.items():
            if values:
                kwargs[group] = _GROUPS[group](**values)
        return ExperimentConfig(**kwargs)
    except PreconditionError as exc:
        raise ConfigError(str(exc)) from exc


def load_config(path, experiment: str | None = None) -> ExperimentConfig:
    with open(path) as fh:
        return parse_config_text(fh.read(), experiment)


def with_overrides(cfg: ExperimentConfig, seed: int | None = None, out: str | None = None) -> ExperimentConfig:
    updates = {}
    if seed is not None:
        updates["rng_seed"] = seed
    if out is not None:
        updates["output_path"] = out
    if not updates:
        return cfg
    try:
        return replace(cfg, **updates)
    except PreconditionError as exc:
        raise ConfigError(str(exc)) from exc
