import importlib
import pkgutil
import sys

import pytest

import quadham

# Hypothesis draws about 5% of its floats from the literals of the local
# non-test modules loaded at each draw, so a seeded, derandomized test
# would draw inputs that depend on which package modules the tests
# selected before it loaded.  Loading every submodule first makes a
# test's draws the same in every selection (a run from the root, which
# also loads quadbench/, draws differently from one of tests/ alone).
for _module in pkgutil.iter_modules(quadham.__path__):
    importlib.import_module(f"quadham.{_module.name}")


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
