import numpy as np
import pytest

from chirplink import laser


@pytest.fixture
def kernel_pumps(monkeypatch):
    """The (pump, holds) of each laser.integrate_pumps call, in call order.

    Each pump is recorded before the kernel runs it, so a call whose runs
    diverge leaves its pump too: row 1 of laser.physical_phase's pump
    holds the exact drive level of each voltage, after the reference's bias.
    """
    calls, batched = [], laser.integrate_pumps

    def recording(params, pump, *args, holds, **kwargs):
        calls.append((np.array(pump), list(holds)))
        return batched(params, pump, *args, holds=holds, **kwargs)

    monkeypatch.setattr(laser, "integrate_pumps", recording)
    return calls
