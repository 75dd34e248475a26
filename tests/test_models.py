"""The model table against the numerical path, across its parameter box."""

import ast
import inspect

import numpy as np
import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from quadham import characteristic as chr_mod
from quadham import coefficients as coeff
from quadham import dynamics as dyn
from quadham import invariants as inv
from quadham import models
from quadham.characteristic import classical_flow
from quadham.errors import InvalidModelParams, NoClosedForm

# the benchmark's tolerances (quadbench/oracles.py KERNEL_TOL, DRIFT_TOL)
KERNEL_TOL = 1e-7
DRIFT_TOL = 1e-8


def _close(got, ref, tol=KERNEL_TOL):
    return abs(got - ref) <= tol * max(1.0, abs(ref))


def test_model_ids_name_their_builders():
    assert models.MODEL_IDS == (
        models.CALDIROLA_KANAI, models.MODIFIED_CK, models.UNITED,
        models.MODIFIED_OSCILLATOR, models.CJ_COORDINATE, models.CJ_MOMENTUM,
        models.MODIFIED_PARAMETRIC, models.PARAMETRIC_SECH2,
        models.SIMPLE_HARMONIC, models.FREE_PARTICLE)


def test_models_is_a_leaf():
    # the record module imports math and the error types, nothing else
    tree = ast.parse(inspect.getsource(models))
    imports = [(n.level, n.module) if isinstance(n, ast.ImportFrom)
               else (0, n.names[0].name) for n in ast.walk(tree)
               if isinstance(n, (ast.Import, ast.ImportFrom))]
    assert sorted(imports) == [(0, "math"), (1, "errors")]


@pytest.mark.parametrize("model_id", coeff.MODEL_IDS)
@settings(max_examples=20, deadline=None, derandomize=True)
@given(omega0=st.floats(0.5, 2.0), lam=st.floats(0.0, 0.6),
       mu_param=st.floats(0.0, 0.3), delta=st.floats(0.2, 1.5),
       t_end=st.floats(0.1, 1.2))
def test_closed_forms_match_numerical_path(model_id, omega0, lam, mu_param,
                                           delta, t_end):
    spec = coeff.ModelSpec(model_id, omega0, lam, mu_param, delta)
    try:
        spec.validate()
    except InvalidModelParams:
        reject()
    tc = coeff.builtin_coefficients(spec, coeff.EQUATION)
    path = chr_mod.solve_characteristic(tc, t_end)
    for t in np.linspace(t_end / 5, t_end, 5):
        mu, mup = chr_mod.closed_form_mu(spec, float(t))
        assert _close(path.mu(float(t)), mu)
        assert _close(path.mu_prime(float(t)), mup)

    caustic = path.first_caustic
    hi = t_end if caustic is None else min(t_end, 0.9 * caustic[0])
    for t in np.linspace(hi / 5, hi, 5):
        kp = chr_mod.kernel_parameters(tc, path, float(t))
        ref = chr_mod.closed_form_kernel(spec, float(t))
        for name in ("mu", "mu_prime", "h", "alpha", "beta", "gamma"):
            assert _close(getattr(kp, name), getattr(ref, name)), name

    try:
        form = inv.energy_operator_catalog(spec, 0.0)
    except NoClosedForm:
        return
    m0 = dyn.SecondMoments(p2=1.1, x2=0.9, pxxp=0.2)
    moments = dyn.evolve_second_moments(
        classical_flow(inv.catalog_coefficients(spec), t_end), m0)
    ref = form.expectation(m0.p2, m0.x2, m0.pxxp)
    for t in np.linspace(t_end / 5, t_end, 5):
        m = moments(float(t))
        got = inv.energy_operator_catalog(spec, float(t)).expectation(
            m.p2, m.x2, m.pxxp)
        assert abs(got - ref) <= DRIFT_TOL * max(abs(ref), 1e-30)
