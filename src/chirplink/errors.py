"""Exception types shared across the simulator: one per failure exit code
of the CLI, 2 for a refusal and 3 for a runaway integration."""


class PreconditionError(ValueError):
    """An operation or a configuration was given input outside its contract."""


class IntegrationDivergedError(RuntimeError):
    """The rate-equation integrator produced a non-finite or runaway state.

    `intensity` and `carrier` are |E|^2 and N at `step_index`; an ensemble
    of two or more runs also names the first diverging run.
    """

    def __init__(
        self,
        step_index: int,
        intensity: float = float("nan"),
        carrier: float = float("nan"),
        run_index: int | None = None,
    ):
        self.step_index = step_index
        self.intensity = float(intensity)
        self.carrier = float(carrier)
        self.run_index = run_index
        where = "" if run_index is None else f" in run {run_index}"
        super().__init__(
            f"integration diverged at sample index {step_index}{where}: "
            f"|E|^2 = {self.intensity:.6g}, N = {self.carrier:.6g}"
        )
