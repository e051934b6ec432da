"""Exception types, one per failure exit code of the CLI (2 for a refusal,
3 for a runaway integration), and the finiteness check every parameter record makes first."""

import math


class PreconditionError(ValueError):
    """An operation or a configuration was given input outside its contract."""


def require_finite(record) -> None:
    """Refuse a record with a non-finite field, named: NaN passes every range check."""
    for name, value in vars(record).items():
        if not math.isfinite(value):
            raise PreconditionError(f"{name} must be finite, got {value!r}")


class IntegrationDivergedError(RuntimeError):
    """The rate-equation integrator produced a non-finite or runaway state.

    Built from the run's state at `step_index`, its complex field E and its
    carrier N: `intensity` is |E|^2 = re re + im im, the kernel's own sum,
    and `carrier` is N.  An ensemble of two or more runs also names the
    first diverging run.
    """

    def __init__(self, step_index: int, field: complex, carrier: float, run_index: int | None = None):
        e = complex(field)
        self.step_index = int(step_index)
        self.intensity = e.real * e.real + e.imag * e.imag
        self.carrier = float(carrier)
        self.run_index = run_index
        where = "" if run_index is None else f" in run {run_index}"
        super().__init__(
            f"integration diverged at sample index {self.step_index}{where}: "
            f"|E|^2 = {self.intensity:.6g}, N = {self.carrier:.6g}"
        )
