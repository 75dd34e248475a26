import ast
import math
import pathlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quadham import characteristic as chr_mod
from quadham import coefficients as coeff
from quadham import gridsim
from quadham import invariants as inv
from quadham import propagator as prop
from quadham.errors import ConventionMismatch, InvalidModelParams


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
    half = lambda t: 0.5
    with pytest.raises(ConventionMismatch):
        coeff.TimeCoefficients(half, half, half, half, convention="x")
    tc = coeff.builtin_coefficients(coeff.ModelSpec(coeff.SIMPLE_HARMONIC))
    with pytest.raises(ConventionMismatch):
        coeff.convert_convention(tc, "x")


def test_united_effective_frequency():
    spec = coeff.ModelSpec(coeff.UNITED, omega0=1.0, lam=0.4, mu_param=0.1)
    assert spec.model.omega == pytest.approx(math.sqrt(1.0 - 0.09), rel=1e-14)


def test_convention_mapping_exact():
    # hamiltonian (c, d) -> equation (c + d, c) and back
    spec = coeff.ModelSpec(coeff.MODIFIED_CK, omega0=1.2, lam=0.3)
    h = coeff.builtin_coefficients(spec, coeff.HAMILTONIAN)
    e = coeff.convert_convention(h, coeff.EQUATION)
    for t in (0.0, 0.4, 1.1):
        assert e.c(t) == pytest.approx(h.c(t) + h.d(t), abs=1e-15)
        assert e.d(t) == pytest.approx(h.c(t), abs=1e-15)
    back = coeff.convert_convention(e, coeff.HAMILTONIAN)
    for t in (0.0, 0.4, 1.1):
        assert back.c(t) == pytest.approx(h.c(t), abs=1e-15)
        assert back.d(t) == pytest.approx(h.d(t), abs=1e-15)


# H with c != d, both varying, so that the equation tag's c + d, and the d
# mapped back from it, can round
VARYING = coeff.TimeCoefficients(
    a=lambda t: 0.5 + 0.1 * math.sin(t), b=lambda t: 0.6 + 0.2 * t,
    c=lambda t: 0.3 * math.cos(t), d=lambda t: -0.2 + 0.1 * t,
    da=lambda t: 0.1 * math.cos(t), db=lambda t: 0.2,
    dc=lambda t: -0.3 * math.sin(t), dd=lambda t: 0.1)


def _entries(tc, kernel_of):
    """What each entry that takes raw coefficients gives for ``tc``: the
    kernel, a grid run, the Schrodinger residual of ``kernel_of`` and the
    superposed auxiliary solution with its residual."""
    flow = chr_mod.solve_characteristic(tc, 1.0)
    kp = chr_mod.kernel_parameters(tc, flow, 0.6)
    x = np.linspace(-6.0, 6.0, 64)
    psi0 = prop.GridState(-6.0, x[1] - x[0], np.exp(-0.5 * x * x + 0.3j * x))
    grid = gridsim.evolve_grid(tc, psi0, 1e-2, 20)
    u = inv.solve_linear_auxiliary(flow, (1.0, 0.0))
    v = inv.solve_linear_auxiliary(flow, (0.0, 1.0))
    mu_fn, C0 = inv.superpose_linear_solutions(tc, u, v, 1.2, 0.3, 0.9)
    return [*(getattr(kp, f) for f in ("mu", "mu_prime", "h", "alpha",
                                       "beta", "gamma")),
            *grid.final().values.real, *grid.final().values.imag,
            prop.schrodinger_residual(tc, kernel_of, 0.3, -0.2, 0.6),
            *mu_fn(0.6), C0, inv.auxiliary_residual(tc, mu_fn, C0, 0.6)]


@pytest.mark.parametrize("tc", [
    coeff.builtin_coefficients(
        coeff.ModelSpec(coeff.UNITED, 1.0, 0.3, 0.1)), VARYING],
    ids=["united", "varying"])
def test_entries_accept_either_tag(tc):
    # every entry maps its input to H's own coefficients once, so the
    # equation tag of the same H gives the same answer
    eq = coeff.convert_convention(tc, coeff.EQUATION)
    flow = chr_mod.solve_characteristic(tc, 1.0)
    kernel_of = lambda t: chr_mod.kernel_parameters(tc, flow, t)
    got, want = _entries(eq, kernel_of), _entries(tc, kernel_of)
    assert len(got) == len(want) == 6 + 128 + 1 + 3 + 2
    for g, w in zip(got, want):
        assert abs(g - w) <= 1e-14 * max(1.0, abs(w))


def test_convention_stays_in_coefficients():
    # the numerical layers read H's own coefficients: outside
    # quadham.coefficients (and the package's export table) no module
    # names the equation tag or checks a tag with require
    root = pathlib.Path(coeff.__file__).parent
    found = []
    for path in sorted(root.rglob("*.py")):
        name = path.relative_to(root).as_posix()
        if name in ("coefficients.py", "__init__.py"):
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Name) and node.id == "EQUATION"
                    or isinstance(node, ast.Attribute)
                    and node.attr == "EQUATION"
                    or isinstance(node, ast.alias)
                    and node.name == "EQUATION"
                    or isinstance(node, ast.Constant)
                    and node.value == coeff.EQUATION
                    or isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "require"):
                found.append((name, node.lineno))
    assert found == []


def test_analytic_derivatives_match_fd():
    # the records hold a', c' and d', the derivatives the invariants read;
    # the hyperbolically damped pair shares one a' and b'
    cj = coeff.ModelSpec(coeff.CJ_COORDINATE, 1.2, 0.5)
    tcs = [coeff.builtin_coefficients(spec, coeff.HAMILTONIAN) for spec in (
        coeff.ModelSpec(coeff.CALDIROLA_KANAI, 1.3, 0.4),
        coeff.ModelSpec(coeff.MODIFIED_OSCILLATOR),
        coeff.ModelSpec(coeff.MODIFIED_PARAMETRIC, 1.1, 0.4, delta=0.5),
        coeff.ModelSpec(coeff.PARAMETRIC_SECH2, 1.2, 0.5), cj,
        coeff.ModelSpec(coeff.CJ_MOMENTUM, 1.2, 0.5))]
    for tc in tcs + [inv.catalog_coefficients(cj)]:
        assert tc.db is None
        eps = 1e-6
        for t in (0.2, 0.8):
            for f, df in ((tc.a, tc.da), (tc.c, tc.dc), (tc.d, tc.dd)):
                fd = (f(t + eps) - f(t - eps)) / (2.0 * eps)
                assert df(t) == pytest.approx(fd, rel=1e-6, abs=1e-7)


@settings(max_examples=30, deadline=None)
@given(c0=st.floats(-1.5, 1.5), d0=st.floats(-1.5, 1.5),
       t=st.floats(0.05, 1.5))
def test_convention_round_trip_any_linear(c0, d0, t):
    tc = coeff.TimeCoefficients(
        a=lambda s: 0.5, b=lambda s: 0.5 + 0.1 * s,
        c=lambda s: c0 * s, d=lambda s: d0,
        convention=coeff.HAMILTONIAN)
    rt = coeff.convert_convention(
        coeff.convert_convention(tc, coeff.EQUATION), coeff.HAMILTONIAN)
    assert rt.c(t) == pytest.approx(tc.c(t), abs=1e-14)
    assert rt.d(t) == pytest.approx(tc.d(t), abs=1e-14)


def test_cj_scaled_form():
    # the catalog Hamiltonian of the hyperbolically damped models is the
    # frequency-rescaled one, and its momentum representation
    spec = coeff.ModelSpec(coeff.CJ_COORDINATE, omega0=1.3, lam=0.45)
    tc = inv.catalog_coefficients(spec)
    t = 0.7
    ch2 = math.cosh(0.45 * t) ** 2
    assert tc.a(t) == pytest.approx(0.5 * 1.3 / ch2, rel=1e-14)
    assert tc.b(t) == pytest.approx(0.5 * 1.3 * ch2, rel=1e-14)
    spec_p = coeff.ModelSpec(coeff.CJ_MOMENTUM, omega0=1.3, lam=0.45)
    tp = inv.catalog_coefficients(spec_p)
    assert tp.a(t) == pytest.approx(tc.b(t), rel=1e-14)
    assert tp.b(t) == pytest.approx(tc.a(t), rel=1e-14)
