import ast
import dataclasses
import math
import pathlib
import re

import pytest

from quadham import coefficients as coeff
from quadham import errors
from quadham.errors import InvalidModelParams


def test_model_catalog_size():
    assert len(coeff.MODEL_IDS) == 10


def test_invalid_overdamped():
    with pytest.raises(InvalidModelParams):
        coeff.ModelSpec(coeff.CALDIROLA_KANAI, omega0=0.1, lam=5.0)
    with pytest.raises(InvalidModelParams):
        coeff.ModelSpec(coeff.UNITED, omega0=0.5, lam=2.0, mu_param=0.1)


def test_parametric_needs_nonzero_shift():
    with pytest.raises(InvalidModelParams):
        coeff.ModelSpec(coeff.MODIFIED_PARAMETRIC, omega0=1.0, lam=0.3,
                        delta=0.0)


@pytest.mark.parametrize("args", [
    ("nosuch",), (coeff.SIMPLE_HARMONIC, math.nan),
    (coeff.CALDIROLA_KANAI, 1.0, math.inf)], ids=["unknown", "nan", "inf"])
def test_a_spec_is_checked_when_it_is_built(args):
    # a spec that exists is valid: no entry checks it again
    with pytest.raises(InvalidModelParams):
        coeff.ModelSpec(*args)


def test_an_unknown_convention_is_refused():
    tc = coeff.builtin_coefficients(coeff.ModelSpec(coeff.SIMPLE_HARMONIC))
    with pytest.raises(errors.ConventionMismatch):
        coeff.convert_convention(tc, "x")


def test_united_effective_frequency():
    spec = coeff.ModelSpec(coeff.UNITED, omega0=1.0, lam=0.4, mu_param=0.1)
    assert spec.model.omega == pytest.approx(math.sqrt(1.0 - 0.09), rel=1e-14)


def test_a_record_takes_no_tag():
    # a record holds H's coefficients and nothing that names their form;
    # the fields after d are keyword-only, so a tag passed fifth is refused
    # when the record is built, not taken for a'
    half = lambda t: 0.5
    with pytest.raises(TypeError):
        coeff.TimeCoefficients(half, half, half, half, "hamiltonian")
    with pytest.raises(TypeError):
        coeff.TimeCoefficients(half, half, half, half, convention="equation")
    assert "convention" not in {f.name for f in dataclasses.fields(
        coeff.TimeCoefficients)}
    assert not hasattr(coeff.TimeCoefficients, "__post_init__")


def test_convention_mapping_exact():
    # builtin_coefficients gives H's record for either tag
    spec = coeff.ModelSpec(coeff.MODIFIED_CK, omega0=1.2, lam=0.3)
    h = coeff.builtin_coefficients(spec, coeff.HAMILTONIAN)
    tagged = coeff.builtin_coefficients(spec, coeff.EQUATION)
    assert tagged == h
    assert coeff.convert_convention(h, coeff.EQUATION) is h


# H with c != d, both varying
VARYING = coeff.TimeCoefficients(
    a=lambda t: 0.5 + 0.1 * math.sin(t), b=lambda t: 0.6 + 0.2 * t,
    c=lambda t: 0.3 * math.cos(t), d=lambda t: -0.2 + 0.1 * t,
    da=lambda t: 0.1 * math.cos(t), db=lambda t: 0.2,
    dc=lambda t: -0.3 * math.sin(t), dd=lambda t: 0.1)


def test_replace_keeps_the_mapped_record():
    # the benchmark's tracer rebuilds every record a traced call returns
    # with dataclasses.replace, each coefficient function mapped to a
    # counting wrapper: the rebuilt record holds the wrappers and the limits
    names = ("a", "b", "c", "d", "da", "db", "dc", "dd")
    wrapped = {name: (lambda f: lambda t: f(t))(getattr(VARYING, name))
               for name in names}
    r = dataclasses.replace(VARYING, **wrapped)
    for name in names:
        assert getattr(r, name) is wrapped[name]
        assert getattr(r, name)(0.7) == getattr(VARYING, name)(0.7)
    assert r.t_max == VARYING.t_max
    assert math.isnan(r.t_singular)
    assert dataclasses.replace(VARYING) == VARYING


def test_convention_stays_in_coefficients():
    # a record holds H's own coefficients and the numerical layers read
    # them as they are: outside quadham.coefficients no
    # module names a tag or convert_convention, or checks a tag with require
    root = pathlib.Path(coeff.__file__).parent
    names = {"EQUATION", "HAMILTONIAN", "convert_convention"}
    values = {coeff.EQUATION, coeff.HAMILTONIAN}
    found = []
    for path in sorted(root.rglob("*.py")):
        name = path.relative_to(root).as_posix()
        if name == "coefficients.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Name) and node.id in names
                    or isinstance(node, ast.Attribute)
                    and node.attr in names
                    or isinstance(node, ast.alias) and node.name in names
                    or isinstance(node, ast.Constant)
                    and node.value in values
                    or isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "require"):
                found.append((name, node.lineno))
    assert found == []


def test_benchmark_only_api_stays_in_its_contract_tests():
    # src keeps the tag API, solve_characteristic, the field db,
    # gaussian_sweep and gridsim.COMPILED only because the benchmark
    # (quadbench/) calls or reads them: outside quadbench/ only their
    # homes and contract tests name them, so that deleting them edits
    # src, quadbench/ and these tests alone
    repo = pathlib.Path(__file__).resolve().parents[1]
    tag = re.compile(r"\b(EQUATION|HAMILTONIAN|convert_convention"
                     r"|ConventionMismatch)\b")
    solve = re.compile(r"\bsolve_characteristic\b")
    # the keyword and the attribute; models' local db is not the field
    field = re.compile(r"\bdb=|\.db\b")
    sweep = re.compile(r"\bgaussian_sweep\b")
    compiled = re.compile(r"\bCOMPILED\b")
    guards = {"test_convention_stays_in_coefficients",
              "test_benchmark_only_api_stays_in_its_contract_tests"}
    # (pattern, file): the functions that may name it, None for any line
    allowed = {
        (tag, "src/quadham/coefficients.py"): None,
        (tag, "src/quadham/errors.py"): None,
        (tag, "tests/test_coefficients.py"): guards | {
            "test_an_unknown_convention_is_refused",
            "test_convention_mapping_exact"},
        (solve, "src/quadham/characteristic.py"): None,
        (solve, "src/quadham/cli.py"): None,
        (solve, "tests/test_coefficients.py"): guards,
        (solve, "tests/test_characteristic.py"): {
            "test_solve_characteristic_refuses_what_the_cli_refuses"},
        (field, "src/quadham/coefficients.py"): None,
        (field, "tests/test_coefficients.py"): guards | {
            "VARYING", "test_replace_keeps_the_mapped_record",
            "test_analytic_derivatives_match_fd"},
        (sweep, "src/quadham/propagator.py"): None,
        (sweep, "tests/test_coefficients.py"): guards,
        (sweep, "tests/test_propagator.py"): {
            "test_branch_phase_continuity", "test_sweep_conserves_norm"},
        (compiled, "src/quadham/gridsim.py"): None,
        (compiled, "tests/test_coefficients.py"): guards}
    found = []
    for path in [*sorted((repo / "src" / "quadham").glob("*.py")),
                 *sorted((repo / "tests").glob("*.py")),
                 repo / "benchmarks" / "run.py"]:
        name = path.relative_to(repo).as_posix()
        text = path.read_text()
        # the top-level functions and assigned names
        spans = [(node.lineno, node.end_lineno, node.name
                  if isinstance(node, ast.FunctionDef)
                  else ast.unparse(node.targets[0]))
                 for node in ast.parse(text).body
                 if isinstance(node, (ast.FunctionDef, ast.Assign))]
        for lineno, line in enumerate(text.splitlines(), 1):
            owner = next((fn for lo, hi, fn in spans if lo <= lineno <= hi),
                         None)
            for pattern in (tag, solve, field, sweep, compiled):
                ok = allowed.get((pattern, name), set())
                if pattern.search(line) and not (ok is None or owner in ok):
                    found.append((name, lineno))
    assert found == []


def test_analytic_derivatives_match_fd():
    # the records hold a', c' and d', the derivatives the invariants read;
    # the hyperbolically damped pair shares one a' and b'
    cj = coeff.ModelSpec(coeff.CJ_COORDINATE, 1.2, 0.5)
    tcs = [coeff.builtin_coefficients(spec) for spec in (
        coeff.ModelSpec(coeff.CALDIROLA_KANAI, 1.3, 0.4),
        coeff.ModelSpec(coeff.MODIFIED_OSCILLATOR),
        coeff.ModelSpec(coeff.MODIFIED_PARAMETRIC, 1.1, 0.4, delta=0.5),
        coeff.ModelSpec(coeff.PARAMETRIC_SECH2, 1.2, 0.5), cj,
        coeff.ModelSpec(coeff.CJ_MOMENTUM, 1.2, 0.5))]
    for tc in tcs + [coeff.catalog_coefficients(cj)]:
        assert tc.db is None
        eps = 1e-6
        for t in (0.2, 0.8):
            for f, df in ((tc.a, tc.da), (tc.c, tc.dc), (tc.d, tc.dd)):
                fd = (f(t + eps) - f(t - eps)) / (2.0 * eps)
                assert df(t) == pytest.approx(fd, rel=1e-6, abs=1e-7)


def test_cj_scaled_form():
    # the catalog Hamiltonian of the hyperbolically damped models is the
    # frequency-rescaled one, and its momentum representation
    spec = coeff.ModelSpec(coeff.CJ_COORDINATE, omega0=1.3, lam=0.45)
    tc = coeff.catalog_coefficients(spec)
    t = 0.7
    ch2 = math.cosh(0.45 * t) ** 2
    assert tc.a(t) == pytest.approx(0.5 * 1.3 / ch2, rel=1e-14)
    assert tc.b(t) == pytest.approx(0.5 * 1.3 * ch2, rel=1e-14)
    spec_p = coeff.ModelSpec(coeff.CJ_MOMENTUM, omega0=1.3, lam=0.45)
    tp = coeff.catalog_coefficients(spec_p)
    assert tp.a(t) == pytest.approx(tc.b(t), rel=1e-14)
    assert tp.b(t) == pytest.approx(tc.a(t), rel=1e-14)
