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
from dataclasses import dataclass, field, fields, is_dataclass, replace

from .errors import PreconditionError, require_finite
from .optics import DetectorParams, InterferometerParams
from .source import SourceConfig

EXPERIMENTS = ("phase_voltage", "randomization", "bb84_sweep", "dps_sweep", "stability")

# numpy's binomial draws take counts up to the int64 maximum.
MAX_COUNT = 2**63 - 1

DEFAULT_VOLTAGES = [round(-0.5 + 0.05 * i, 10) for i in range(21)]
DEFAULT_LOSSES = [float(l) for l in range(0, 50, 5)]


@dataclass(frozen=True)
class KeyRateConfig:
    mu: float = 0.5
    nu: float = 0.1
    f_ec: float = 1.16

    def __post_init__(self):
        require_finite(self)
        if not 0.0 < self.nu < self.mu:
            raise PreconditionError("keyrate intensities must satisfy 0 < nu < mu")
        if self.mu > 709.0:
            raise PreconditionError("keyrate.mu must be <= 709: the decoy bound takes exp(mu)")
        if not self.mu * self.nu - self.nu * self.nu > 0.0:
            raise PreconditionError("decoy intensities: mu * nu - nu^2 rounds to 0")
        if self.f_ec < 1.0:
            raise PreconditionError("f_ec must be >= 1")


@dataclass(frozen=True)
class StabilityConfig:
    duration: float = 86400.0
    integration_time: float = 1.0
    sifted_rate_bps: float = 23500.0
    true_qber: float = 0.0241

    def __post_init__(self):
        require_finite(self)
        if self.duration <= 0 or self.integration_time <= 0:
            raise PreconditionError("duration and integration_time must be positive")
        if self.integration_time > self.duration:
            raise PreconditionError("integration_time must be <= duration")
        # 0 and 1 give a zero model std, so the normal overlay is undefined
        if not 0.0 < self.true_qber < 1.0:
            raise PreconditionError("true_qber must be in (0, 1)")
        # bounded as floats, which may be inf, before the properties round them
        if not 0.5 < self.sifted_rate_bps * self.integration_time < 2.0**63:
            raise PreconditionError(
                f"sifted_rate_bps * integration_time must round to 1 to {MAX_COUNT} sifted bits"
            )
        # with --out a run takes ~46 bytes of memory per bin: ~46 GB at 10**9 bins
        if not self.duration / self.integration_time <= 1e9:
            raise PreconditionError("duration / integration_time must be at most 10**9 bins")
        if not self.model_std > 0.0:
            raise PreconditionError("true_qber is so close to 0 or 1 that the model std is 0")

    @property
    def sifted_per_bin(self) -> int:
        return int(round(self.sifted_rate_bps * self.integration_time))

    @property
    def model_std(self) -> float:
        """Binomial std of one bin's QBER."""
        return math.sqrt(self.true_qber * (1.0 - self.true_qber) / self.sifted_per_bin)

    @property
    def n_bins(self) -> int:
        return int(round(self.duration / self.integration_time))


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
            raise PreconditionError(f"experiment must be one of {', '.join(EXPERIMENTS)}")
        if self.rng_seed < 0:
            raise PreconditionError("rng_seed must be >= 0")
        if not 1 <= self.trials <= MAX_COUNT:
            raise PreconditionError(f"trials must be in [1, {MAX_COUNT}]")
        if not self.voltages:
            raise PreconditionError("voltages must have at least one value")
        if not all(math.isfinite(v) for v in self.voltages):
            raise PreconditionError("voltages must be finite")
        if not (math.isfinite(self.loss_per_km) and self.loss_per_km >= 0):
            raise PreconditionError("loss_per_km must be finite and >= 0")
        _check_axis(self.losses, "losses")

    def resolved_items(self) -> list[tuple[str, str]]:
        """Flat (key, value) view of the full configuration for embedding."""
        items: list[tuple[str, str]] = []
        for f in fields(self):
            if f.name == "output_path":
                continue
            value = getattr(self, f.name)
            if is_dataclass(value):
                items += [(f"{f.name}.{g.name}", repr(getattr(value, g.name))) for g in fields(value)]
            elif isinstance(value, list):
                items.append((f.name, ", ".join(repr(v) for v in value)))
            else:
                items.append((f.name, str(value)))
        return items


def _check_axis(values: list[float], key: str) -> None:
    if not values:
        raise PreconditionError(f"{key} must have at least one value")
    if not all(math.isfinite(v) for v in values):
        raise PreconditionError(f"{key} must be finite")
    if any(b <= a for a, b in zip(values, values[1:])):
        raise PreconditionError(f"{key} must be strictly increasing")
    if values[0] < 0:  # the smallest value of an increasing axis
        raise PreconditionError(f"{key} must be non-negative")


# A '#' starts a comment at the start of a line or after whitespace only.
_COMMENT = re.compile(r"(^|\s)#.*")

_BOOL_VALUES = {"true": True, "false": False, "1": True, "0": False, "yes": True, "no": False}


def _parse_text(raw: str, key: str) -> str:
    return raw


def _parse_bool(raw: str, key: str) -> bool:
    try:
        return _BOOL_VALUES[raw.strip().lower()]
    except KeyError:
        raise PreconditionError(f"{key}: expected a boolean, got {raw!r}") from None


def _parse_float(raw: str, key: str) -> float:
    try:
        value = float(raw)
    except ValueError:
        raise PreconditionError(f"{key}: invalid number {raw!r}") from None
    if not math.isfinite(value):
        raise PreconditionError(f"{key} must be finite, got {raw!r}")
    return value


def _parse_float_list(raw: str, key: str) -> list[float]:
    try:
        return [float(tok) for tok in raw.replace(",", " ").split()]
    except ValueError:
        raise PreconditionError(f"{key}: expected comma-separated numbers, got {raw!r}") from None


def _parse_count(raw: str, key: str) -> int:
    """An integer, exactly, or an integral float such as 2e6."""
    try:
        return int(raw)
    except ValueError:
        pass
    try:
        value = float(raw)
    except ValueError:
        raise PreconditionError(f"{key}: invalid integer {raw!r}") from None
    if not value.is_integer():
        raise PreconditionError(f"{key}: expected an integer, got {raw!r}")
    return int(value)


# One reader per field annotation; the annotations are strings.
_READERS = {
    "str": _parse_text,
    "str | None": _parse_text,
    "int": _parse_count,
    "bool": _parse_bool,
    "float": _parse_float,
    "list[float]": _parse_float_list,
}

# The dataclass-valued fields are the dotted groups.
_GROUPS = {f.name: type(f.default) for f in fields(ExperimentConfig) if is_dataclass(f.default)}

# Every key and its reader: the top-level fields, each group's fields as
# group.field, and fiber_km, which parse_config_text turns into losses.
_KEY_READERS = {
    **{f.name: _READERS[f.type] for f in fields(ExperimentConfig) if f.name not in _GROUPS},
    **{f"{group}.{f.name}": _READERS[f.type] for group, cls in _GROUPS.items() for f in fields(cls)},
    "fiber_km": _parse_float_list,
}


def parse_config_text(text: str, experiment: str | None = None) -> ExperimentConfig:
    """Parse flat key-value text into a validated ExperimentConfig.

    `experiment`, when given (e.g. from the CLI's command), must agree
    with any experiment key present in the file.  Every refusal, of the
    text or of a value's range, is a PreconditionError.
    """
    top: dict[str, object] = {}
    groups: dict[str, dict[str, object]] = {name: {} for name in _GROUPS}

    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = _COMMENT.sub("", line, count=1).strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise PreconditionError(f"line {lineno}: expected 'key = value'")
        key, raw = (part.strip() for part in stripped.split("=", 1))
        if key not in _KEY_READERS:
            raise PreconditionError(f"unknown key {key!r}")
        value = _KEY_READERS[key](raw, key)
        group, _, name = key.rpartition(".")
        if group:
            groups[group][name] = value
        else:
            top[key] = value

    if experiment is not None:
        if "experiment" in top and top["experiment"] != experiment:
            raise PreconditionError(
                f"experiment: file says {top['experiment']!r} but {experiment!r} was requested"
            )
        top["experiment"] = experiment

    fiber_km = top.pop("fiber_km", None)
    if fiber_km is not None and "losses" in top:
        raise PreconditionError("losses: give either losses or fiber_km, not both")

    for group, values in groups.items():
        if values:
            top[group] = _GROUPS[group](**values)
    cfg = ExperimentConfig(**top)
    if fiber_km is None:
        return cfg
    # the axis in km, then in dB at the loss_per_km the config has checked
    _check_axis(fiber_km, "fiber_km")
    losses = [km * cfg.loss_per_km for km in fiber_km]
    _check_axis(losses, "fiber_km * loss_per_km")
    return replace(cfg, losses=losses)


def load_config(path, experiment: str | None = None) -> ExperimentConfig:
    try:
        with open(path, encoding="utf-8-sig") as fh:  # drops a Windows editor's byte-order mark
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise PreconditionError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None
    return parse_config_text(text, experiment)
