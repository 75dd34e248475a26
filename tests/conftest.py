import math
import sys

import pytest


@pytest.fixture
def solves(monkeypatch):
    """The step points of each side of a classical flow that stepped while
    the test runs, one growing list per side (``Flow.at`` makes the
    package's only solve_ivp call; a side that is never read past t = 0
    takes no step and is not listed)."""
    from quadham import characteristic

    sides, current = [], {}
    solve = characteristic.solve_ivp

    def counting(coefficients, t_singular, t, y, h, *work):
        steps = solve(coefficients, t_singular, t, y, h, *work)
        # a side's first call starts from t = 0
        key = id(coefficients), math.copysign(1.0, h)
        if t == 0.0:
            current[key] = []
            sides.append(current[key])
        current[key] += steps[0]
        return steps

    monkeypatch.setattr(characteristic, "solve_ivp", counting)
    return sides


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    # grab the executed module, not a fresh import with an empty list
    mod = next((m for name, m in sys.modules.items()
                if name.rpartition(".")[2] == "test_acceptance"), None)
    lines = getattr(mod, "REPORT_LINES", [])
    if not lines:
        return
    terminalreporter.section("acceptance criteria")
    for line in lines:
        terminalreporter.write_line(line)
