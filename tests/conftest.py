import sys

import pytest


@pytest.fixture
def solves(monkeypatch):
    """The side records (``quadham.ode.Side``) of the classical flows that
    stepped while the test runs, each listed once, in the order of their
    first solve (``Flow.at`` makes the package's only solve_ivp call; a side
    that is never read past t = 0 takes no step and is not listed).  The
    list holds each record, so that no two sides are confused."""
    from quadham import characteristic

    sides = []
    solve = characteristic.solve_ivp

    def counting(side, *args):
        solve(side, *args)
        if not any(seen is side for seen in sides):
            sides.append(side)

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
