"""Checks of the test suite itself."""

import ast
import pathlib


def _decorators(node):
    """The decorator calls of a function by the called name (``given``,
    ``settings``, ``seed``, ``parametrize``)."""
    return {getattr(d.func, "id", None) or getattr(d.func, "attr", None): d
            for d in node.decorator_list if isinstance(d, ast.Call)}


def test_every_hypothesis_test_draws_fixed_inputs():
    # a @given test is derandomized (no example database, no fresh draws)
    # and seeded, so that every run draws the same inputs and an edit of
    # its body moves none; a parametrized test seeds each case on an inner
    # @given, since one seed would give every case the same stream
    found = []
    for path in sorted(pathlib.Path(__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.FunctionDef):
                continue
            calls = _decorators(node)
            if "given" not in calls:
                continue
            settings = calls.get("settings")
            derandomized = settings is not None and any(
                k.arg == "derandomize" and getattr(k.value, "value", None)
                is True for k in settings.keywords)
            if not (derandomized and "seed" in calls) or (
                    "parametrize" in calls):
                found.append((path.name, node.name))
    assert found == []
