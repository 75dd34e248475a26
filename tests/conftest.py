import sys

import pytest


@pytest.fixture
def solves(monkeypatch):
    """The spans of every classical-flow solve made while the test runs
    (``classical_flow``'s ``solve_ivp`` call is the package's only one)."""
    from quadham import characteristic

    spans = []
    solve = characteristic.solve_ivp

    def counting(fun, t_end):
        spans.append((0.0, t_end))
        return solve(fun, t_end)

    monkeypatch.setattr(characteristic, "solve_ivp", counting)
    return spans


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
