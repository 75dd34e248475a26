import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quadham import coefficients as coeff
from quadham import invariants as inv
from quadham.errors import ConventionMismatch, InvalidModelParams


def test_model_catalog_size():
    assert len(coeff.MODEL_IDS) == 10


def test_invalid_overdamped():
    with pytest.raises(InvalidModelParams):
        coeff.ModelSpec(coeff.CALDIROLA_KANAI, omega0=0.1, lam=5.0).validate()
    with pytest.raises(InvalidModelParams):
        coeff.ModelSpec(coeff.UNITED, omega0=0.5, lam=2.0,
                        mu_param=0.1).validate()


def test_parametric_needs_nonzero_shift():
    with pytest.raises(InvalidModelParams):
        coeff.ModelSpec(coeff.MODIFIED_PARAMETRIC, omega0=1.0, lam=0.3,
                        delta=0.0).validate()


def test_united_effective_frequency():
    spec = coeff.ModelSpec(coeff.UNITED, omega0=1.0, lam=0.4, mu_param=0.1)
    assert spec.omega == pytest.approx(math.sqrt(1.0 - 0.09), rel=1e-14)


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


def test_require_convention():
    spec = coeff.ModelSpec(coeff.SIMPLE_HARMONIC)
    h = coeff.builtin_coefficients(spec, coeff.HAMILTONIAN)
    with pytest.raises(ConventionMismatch):
        h.require(coeff.EQUATION)


def test_analytic_derivatives_match_fd():
    for spec in [coeff.ModelSpec(coeff.CALDIROLA_KANAI, 1.3, 0.4),
                 coeff.ModelSpec(coeff.MODIFIED_OSCILLATOR),
                 coeff.ModelSpec(coeff.MODIFIED_PARAMETRIC, 1.1, 0.4,
                                 delta=0.5),
                 coeff.ModelSpec(coeff.PARAMETRIC_SECH2, 1.2, 0.5)]:
        tc = coeff.builtin_coefficients(spec, coeff.HAMILTONIAN)
        eps = 1e-6
        for t in (0.2, 0.8):
            for f, df in ((tc.a, tc.deriv_a), (tc.b, tc.deriv_b),
                          (tc.c, tc.deriv_c), (tc.d, tc.deriv_d)):
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
