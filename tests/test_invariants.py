import math
import sys

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from quadham import coefficients as coeff
from quadham import invariants as inv
from quadham.characteristic import (Flow, FlowPoint, classical_flow,
                                    kernel_parameters)
from quadham.errors import (AuxiliaryResidualTooLarge, InvalidC0,
                            MuVanishes, NoClosedForm, NonPositiveForm,
                            NumericalError, QuadhamError, SingularCoefficient,
                            ValidationError)
from quadham.ode import FLOW_TOL

import twin
from auxiliary import auxiliary_residual
from helpers import ermakov, oscillator

CATALOG_SPECS = [
    coeff.ModelSpec(coeff.CALDIROLA_KANAI, 1.0, 0.1),
    coeff.ModelSpec(coeff.MODIFIED_CK, 1.0, 0.1),
    coeff.ModelSpec(coeff.UNITED, 1.0, 0.3, 0.1),
    coeff.ModelSpec(coeff.MODIFIED_OSCILLATOR),
    coeff.ModelSpec(coeff.CJ_COORDINATE, 1.0, 0.2),
    coeff.ModelSpec(coeff.CJ_MOMENTUM, 1.0, 0.2),
    coeff.ModelSpec(coeff.MODIFIED_PARAMETRIC, 1.0, 0.2, delta=0.5),
    coeff.ModelSpec(coeff.PARAMETRIC_SECH2, 1.0, 0.2),
    coeff.ModelSpec(coeff.SIMPLE_HARMONIC, 1.0),
    coeff.ModelSpec(coeff.FREE_PARTICLE),
]

UNITED = coeff.ModelSpec(coeff.UNITED, 1.0, 0.3, 0.1)


def _xp_oscillator():
    """H = (p^2 + x^2) / 2 - 300 xp, with I = 300 t: A = e^{rt},
    r = 300 - sqrt(300^2 - 1), solves the paper's linear-invariant
    equation A'' - 600 A' + A = 0."""
    zero, half = lambda t: 0.0, lambda t: 0.5
    return coeff.TimeCoefficients(half, half, zero, lambda t: -300.0,
                                  da=zero, dc=zero, dd=zero)


def _united_invariant_mu():
    """united's elementary solution of the auxiliary equation and its C0."""
    return (UNITED.closed_form("invariant_mu"),
            UNITED.closed_form("invariant_c0"))


@pytest.mark.parametrize("spec", CATALOG_SPECS, ids=lambda s: s.model_id)
def test_catalog_entry_solves_conservation_system(spec):
    # propagating the t=0 entry through the conservation ODE must land on
    # the closed-form entry at every later time
    tc = coeff.catalog_coefficients(spec)
    q0 = inv.energy_operator_catalog(spec, 0.0)
    path = inv.solve_energy_system(classical_flow(tc),
                                   (q0.A, q0.B, q0.C, q0.D))
    for t in np.linspace(0.25, 2.0, 8):
        got = path(float(t))
        ref = inv.energy_operator_catalog(spec, float(t))
        scale = max(1.0, abs(ref.A), abs(ref.B), abs(ref.C))
        for g, r in ((got.A, ref.A), (got.B, ref.B),
                     (got.C, ref.C), (got.D, ref.D)):
            assert abs(g - r) <= 1e-8 * scale


def test_united_elementary_mu_residual():
    mu_fn, C0 = _united_invariant_mu()
    tc = coeff.builtin_coefficients(UNITED)
    assert C0 == pytest.approx(0.25 * UNITED.model.omega ** 2, rel=1e-14)
    for t in np.linspace(0.0, 3.0, 13):
        assert auxiliary_residual(tc, mu_fn, C0, float(t)) <= 1e-10


def test_united_general_invariant_reproduces_catalog():
    mu_fn, C0 = _united_invariant_mu()
    flow = classical_flow(coeff.builtin_coefficients(UNITED))
    for t in (0.0, 0.7, 1.9):
        got = inv.general_invariant(flow, mu_fn, C0, t)
        ref = inv.energy_operator_catalog(UNITED, t)
        scale = max(abs(ref.A), abs(ref.B), 1.0)
        for g, r in ((got.A, ref.A), (got.B, ref.B),
                     (got.C, ref.C), (got.D, ref.D)):
            assert abs(g - r) <= 1e-10 * scale


def test_united_invariant_mu_only_for_united():
    with pytest.raises(NoClosedForm):
        coeff.ModelSpec(coeff.SIMPLE_HARMONIC, 1.0).closed_form(
            "invariant_mu")


def test_general_invariant_rejects_bad_mu():
    flow = classical_flow(coeff.builtin_coefficients(UNITED))
    bad = lambda t: (1.0 + t, 1.0, 0.0)
    with pytest.raises(AuxiliaryResidualTooLarge):
        inv.general_invariant(flow, bad, 0.25, 1.0)


def test_superposed_mu_solves_auxiliary_equation():
    tc = coeff.builtin_coefficients(UNITED)
    flow = classical_flow(tc)
    mu_fn, C0 = inv.superpose_linear_solutions(flow, 1.2, 0.3, 0.9)
    for t in np.linspace(0.0, 2.0, 9):
        assert auxiliary_residual(tc, mu_fn, C0, float(t)) <= 1e-9


@pytest.mark.parametrize("spec", [
    coeff.ModelSpec(coeff.MODIFIED_OSCILLATOR),
    coeff.ModelSpec(coeff.MODIFIED_PARAMETRIC, 1.0, 0.2, delta=0.5),
], ids=lambda s: s.model_id)
def test_superposed_mu_solves_the_equation_where_c_plus_d_varies(spec):
    # c' + d' is not 0 on these two models, as it is on united and
    # Caldirola-Kanai: the judge reads that term of Q itself, so a wrong
    # one in the package's Q, which the superposed mu'' is built from,
    # shows here (a flipped sign read 11.3 and 0.39)
    tc = coeff.builtin_coefficients(spec)
    flow = classical_flow(tc)
    mu_fn, C0 = inv.superpose_linear_solutions(flow, 1.2, 0.3, 0.9)
    for t in np.linspace(0.0, 1.4, 8):
        assert auxiliary_residual(tc, mu_fn, C0, float(t)) <= 1e-9


@seed(18007391977996491405311385996762510238731534574760373146268145898231727227147204191502240348289374441815095467894515)
@settings(max_examples=12, deadline=None, derandomize=True)
@given(A=st.floats(0.5, 2.0), C=st.floats(0.5, 2.0),
       frac=st.floats(-0.9, 0.9))
def test_superposition_property_random_coefficients(A, C, frac):
    B = frac * math.sqrt(A * C)
    spec = coeff.ModelSpec(coeff.CALDIROLA_KANAI, 1.0, 0.1)
    tc = coeff.builtin_coefficients(spec)
    flow = classical_flow(tc)
    mu_fn, C0 = inv.superpose_linear_solutions(flow, A, B, C)
    for t in (0.0, 0.6, 1.4):
        assert auxiliary_residual(tc, mu_fn, C0, t) <= 1e-9


def test_pinney_matches_the_closed_form_on_sho():
    # on SHO (a = b = 1/2) the linear solutions are u = cos t, v = sin t,
    # so mu^2 = A cos^2 t + 2B cos t sin t + C sin^2 t and C0 = AC - B^2.
    # The flow's u and v are each within FLOW_TOL a step, so mu^2 is within
    # twice that of |A| + 2|B| + |C|, and mu within that over 2 mu
    A, B, C = 2.0, 0.3, 1.0
    flow = classical_flow(oscillator(lambda t: 1.0))
    mu_fn, C0 = inv.superpose_linear_solutions(flow, A, B, C)
    assert C0 == A * C - B * B
    flow.at(12.0)  # n_steps of the whole window
    for t in np.linspace(0.0, 12.0, 25):
        c, s = math.cos(t), math.sin(t)
        want = math.sqrt(A * c * c + 2.0 * B * c * s + C * s * s)
        bound = FLOW_TOL * flow.n_steps * (abs(A) + 2.0 * abs(B)
                                           + abs(C)) / want
        assert abs(mu_fn(float(t))[0] - want) <= bound, t


def test_pinney_nonpositive_form():
    # an indefinite form, B^2 > AC: on SHO mu^2 = 1 + 2 sin 2t is -1 at
    # t = 3 pi / 4
    mu_fn, _ = inv.superpose_linear_solutions(
        classical_flow(oscillator(lambda t: 1.0)), A=1.0, B=2.0, C=1.0)
    with pytest.raises(NonPositiveForm):
        mu_fn(0.75 * math.pi)


@seed(17576708527379597108981712300698836528432069015576139225029068876887963154685149787915036614061780509071160199590509)
@settings(max_examples=30, deadline=None, derandomize=True)
@given(eps=st.floats(-0.5, 0.5), c0=st.floats(0.05, 1.0),
       kappa0=st.floats(0.5, 2.0), kappa0p=st.floats(-1.0, 1.0),
       t=st.floats(0.0, 2.0))
def test_ermakov_solves_the_auxiliary_equation(eps, c0, kappa0, kappa0p, t):
    # the Ermakov pair is a solution of the auxiliary equation of
    # H = (p^2 + omega^2 x^2) / 2, with kappa'' exact, not differenced
    omega_sq = lambda s: 1.0 + eps * math.sin(s)
    kappa_fn, C0, flow = ermakov(omega_sq, c0, (kappa0, kappa0p))
    kappa = kappa_fn(t)[0]
    res = auxiliary_residual(flow.tc, kappa_fn, C0, t)
    assert res <= 1e-9 * max(1.0, abs(c0 / kappa ** 3))


def test_lewis_riesenfeld_equals_general_route():
    # at a = 1/2 and c = d = 0 the general invariant of the Ermakov pair
    # is Lewis and Riesenfeld's (kappa p - kappa' x)^2 + c0 x^2/kappa^2
    omega_sq = lambda t: 1.0 + 0.3 * math.sin(t)
    kappa_fn, c0, flow = ermakov(omega_sq, 0.7, (1.0, 0.2))
    for t in (0.3, 1.1, 1.9):
        kappa, kappa_p, _ = kappa_fn(t)
        gen = inv.general_invariant(flow, kappa_fn, c0, t)
        assert gen.A == pytest.approx(kappa ** 2, rel=1e-9)
        assert gen.B == pytest.approx(kappa_p ** 2 + c0 / kappa ** 2,
                                      rel=1e-9)
        assert gen.C == pytest.approx(-kappa * kappa_p, rel=1e-9)
        assert gen.D == pytest.approx(-kappa * kappa_p, rel=1e-9)


def test_invariant_expectation_is_constant_under_moment_flow():
    # contract the catalogued operator with moments evolved by the moment
    # ODE; the expectation must stay flat
    from quadham import dynamics as dyn

    spec = coeff.ModelSpec(coeff.UNITED, 1.0, 0.3, 0.1)
    tc = coeff.builtin_coefficients(spec)
    m0 = dyn.SecondMoments(p2=0.8, x2=0.7, pxxp=0.1, norm=1.0)
    flow = classical_flow(tc)
    path = dyn.evolve_second_moments(flow, m0)
    e0 = inv.energy_operator_catalog(spec, 0.0).expectation(
        m0.p2, m0.x2, m0.pxxp)
    for t in np.linspace(0.2, 2.0, 7):
        m, raw = path(float(t))
        m = dyn.SecondMoments(*map(raw, m))
        e = inv.energy_operator_catalog(spec, float(t)).expectation(
            m.p2, m.x2, m.pxxp)
        assert e == pytest.approx(e0, rel=1e-8)


def test_ladder_commutator_and_reconstruction():
    flow = classical_flow(coeff.builtin_coefficients(UNITED))
    mu_fn, C0 = _united_invariant_mu()
    for t in (0.0, 0.8, 1.6):
        pair = inv.ladder_factorization(flow, mu_fn, C0, t)
        assert pair.commutator() == pytest.approx(1.0, abs=1e-12)
        rec = pair.reconstruct()
        ref = inv.general_invariant(flow, mu_fn, C0, t)
        scale = max(abs(ref.A), abs(ref.B), 1.0)
        assert abs(rec.A - ref.A) <= 1e-10 * scale
        assert abs(rec.B - ref.B) <= 1e-10 * scale
        assert abs(rec.C - ref.C) <= 1e-10 * scale


def test_ladder_requires_positive_c0():
    flow = classical_flow(coeff.builtin_coefficients(UNITED))
    mu_fn = UNITED.closed_form("invariant_mu")
    with pytest.raises(InvalidC0):
        inv.ladder_factorization(flow, mu_fn, -1.0, 0.5)


def test_ladder_refuses_a_mu_off_the_auxiliary_equation():
    # on SHO mu = 1 + t leaves a residual of 1.2 at t = 0.5; the pair built
    # from it still had commutator 1, as every pair has by construction
    tc = coeff.builtin_coefficients(coeff.ModelSpec(coeff.SIMPLE_HARMONIC))
    flow = classical_flow(tc)
    with pytest.raises(AuxiliaryResidualTooLarge) as err:
        inv.ladder_factorization(flow, lambda t: (1.0 + t, 1.0, 0.0), 1.0,
                                 0.5)
    assert err.value.info["residual"] == pytest.approx(1.5 - 1.5 ** -3,
                                                       rel=1e-12)


def test_a_vanishing_mu_is_refused_where_a_value_needs_it():
    # on SHO mu = sin t solves the linear equation (C0 = 0) and vanishes
    # at t = 0: its residual is defined there, the invariant is not
    tc = coeff.builtin_coefficients(coeff.ModelSpec(coeff.SIMPLE_HARMONIC))
    flow = classical_flow(tc)
    mu = lambda t: (math.sin(t), math.cos(t), -math.sin(t))
    assert auxiliary_residual(tc, mu, 0.0, 0.0) == 0.0
    for call, args in ((inv.general_invariant, (flow, mu, 0.0)),
                       (inv.ladder_factorization, (flow, mu, 1.0))):
        with pytest.raises(MuVanishes):
            call(*args, 0.0)


def test_invariants_read_mu_once(monkeypatch):
    # the Ermakov kappa_fn reads one flow point and I is read once, so
    # general_invariant makes 2 Flow.at calls (3 when kappa_fn read the
    # flow's two columns apart, 5 when the residual check called mu_fn a
    # second time), and ladder_factorization as many
    omega_sq = lambda t: 1.0 + 0.3 * math.sin(t)
    kappa_fn, c0, flow = ermakov(omega_sq, 0.7, (1.0, 0.2))
    calls = []
    at = Flow.at

    def counted_mu(t):
        calls.append("mu")
        return kappa_fn(t)

    def counted_at(self, t):
        calls.append("at")
        return at(self, t)

    monkeypatch.setattr(Flow, "at", counted_at)
    for call in (inv.general_invariant, inv.ladder_factorization):
        calls.clear()
        call(flow, counted_mu, c0, 1.0)
        assert calls.count("mu") == 1
        assert calls.count("at") <= 2


def test_linear_invariant_is_conserved():
    # <P> = A <p> + B <x> + C <1> of the raw first moments stays constant;
    # on united I = int (c - d) is not 0, so each term carries e^I
    from quadham import dynamics as dyn

    for spec in (coeff.ModelSpec(coeff.SIMPLE_HARMONIC, 1.0), UNITED):
        flow = classical_flow(coeff.builtin_coefficients(spec))
        form = inv.linear_invariant(flow, (1.0, -0.4, 0.2))
        fm_path = dyn.evolve_first_moments(flow, dyn.FirstMoments(0.4, -0.3))
        vals = []
        for t in (0.0, 0.5, 1.0, 2.0):
            lin, (fm, raw) = form(t), fm_path(t)
            vals.append(lin.A * raw(fm.p) + lin.B * raw(fm.x)
                        + lin.C * raw(1.0))
        assert max(vals) - min(vals) <= 1e-9, spec.model_id


@pytest.mark.parametrize("extra", [-1, 1], ids=["two", "four"])
@pytest.mark.parametrize("call", ["general_invariant",
                                  "ladder_factorization"])
def test_callables_must_return_three_values(call, extra):
    # on SHO mu = 1 (C0 = 1) solves the auxiliary equation; a tuple of two
    # or four values is refused, never differenced or cut
    tc = coeff.builtin_coefficients(coeff.ModelSpec(coeff.SIMPLE_HARMONIC))
    flow = classical_flow(tc)
    mu = lambda t: (1.0, 0.0, 0.0, 0.0)[:3 + extra]
    with pytest.raises(ValidationError) as err:
        getattr(inv, call)(flow, mu, 1.0, 0.5)
    assert type(err.value) is ValidationError
    assert err.value.info == {"t": 0.5, "length": 3 + extra}


@pytest.mark.parametrize("call", ["general_invariant"])
def test_coefficients_without_a_derivative_are_refused(call):
    # SHO without a': mu = 1 (C0 = 1) solves the auxiliary equation, but
    # the check takes no finite difference of a
    zero = lambda t: 0.0
    half = lambda t: 0.5
    tc = coeff.TimeCoefficients(half, half, zero, zero, dc=zero, dd=zero)
    flow = classical_flow(tc)
    mu = lambda t: (1.0, 0.0, 0.0)
    with pytest.raises(ValidationError) as err:
        getattr(inv, call)(flow, mu, 1.0, 0.5)
    assert type(err.value) is ValidationError
    assert err.value.info == {"missing": ["da"]}


def test_invariants_read_the_integral_off_one_flow(solves):
    # on SHO mu = 1 solves mu'' + mu = C0 / mu^3 with C0 = 1; I = 0, so
    # E = p^2 + x^2 and the constant of a linear invariant stays C0
    tc = coeff.builtin_coefficients(coeff.ModelSpec(coeff.SIMPLE_HARMONIC))
    flow = classical_flow(tc)
    assert solves == []  # nothing is solved until the flow is read
    mu_fn = lambda t: (1.0, 0.0, 0.0)
    linear = inv.linear_invariant(flow, (1.0, 0.0, 0.2))
    for t in np.linspace(0.1, 2.0, 20):
        form = inv.general_invariant(flow, mu_fn, 1.0, float(t))
        assert (form.A, form.B, form.C, form.D) == (1.0, 1.0, 0.0, 0.0)
        assert linear(float(t)).C == 0.2
        pair = inv.ladder_factorization(flow, mu_fn, 1.0, float(t))
        assert pair.omega_t == 2.0
    assert len(solves) == 1


def test_no_weighted_reader_returns_a_number_past_the_float_range():
    # united at omega0 400, mu_param 300 has I = 300 t: e^I is finite at
    # t = 2.355 and 2.36 (I = 706.5 and 708), but mu' and the invariants
    # times it are not.  Each read returned +-inf, and kernel_parameters
    # refused mu' = inf as inside the caustic guard band
    spec = coeff.ModelSpec(coeff.UNITED, 400.0, 0.3, 300.0)
    tc = coeff.builtin_coefficients(spec)
    flow = classical_flow(tc)
    mu_fn, c0 = spec.closed_form("invariant_mu"), spec.closed_form(
        "invariant_c0")
    # H = (p^2 + x^2) / 2 - 300 xp: I = 300 t, and the constant of a
    # linear invariant is C0 e^I
    oscillator = classical_flow(_xp_oscillator())
    served = inv.linear_invariant(oscillator, (0.0, 0.0, 0.2))(2.36)
    assert served.C == pytest.approx(0.2 * math.exp(708.0), rel=1e-9)
    reads = [
        (2.355, lambda: flow.mu(2.355)),
        (2.355, lambda: kernel_parameters(tc, flow, 2.355)),
        (2.36, lambda: inv.solve_energy_system(flow, (1e10, 1e10, 0.0,
                                                      0.0))(2.36)),
        (2.36, lambda: inv.general_invariant(flow, mu_fn, c0, 2.36)),
        (2.36, lambda: inv.ladder_factorization(flow, mu_fn, c0, 2.36)),
        (2.36, lambda: inv.linear_invariant(oscillator,
                                            (0.0, 0.0, 1e10))(2.36))]
    for t, read in reads:
        with pytest.raises(NumericalError) as err:
            read()
        assert set(err.value.info) == {"t", "I"}
        assert err.value.info["t"] == t
        assert err.value.info["I"] == pytest.approx(300.0 * t)


def test_linear_invariant_matches_the_closed_form_a():
    # the paper's route took A from its second-order equation and
    # B = (2cA - A') / (2a): A = cos t, B = sin t on SHO from (1, 0), and
    # A = e^{rt}, B = -r e^{rt} on the -300 xp oscillator from (1, -r).
    # Each matches the flow's e^I (B0, A0) M^{-1} within the reference-flow
    # bound, FLOW_TOL a step, times the size of the terms e^I |(B0, A0)|
    # |M|.  On the oscillator that size grows as e^{600 t} while A stays
    # near 1: M^{-1} loses the decaying mode, so only t <= 0.02 holds A
    # to 1e-8
    r = 300.0 - math.sqrt(300.0 ** 2 - 1.0)
    sho = coeff.builtin_coefficients(coeff.ModelSpec(coeff.SIMPLE_HARMONIC))
    for tc, (A0, B0), closed, times in (
            (sho, (1.0, 0.0), lambda t: (math.cos(t), math.sin(t)),
             (0.3, 1.0, 2.0, 3.0, 5.0, 10.0)),
            (_xp_oscillator(), (1.0, -r),
             lambda t: (math.exp(r * t), -r * math.exp(r * t)),
             (0.001, 0.005, 0.01, 0.02))):
        flow = classical_flow(tc)
        path = inv.linear_invariant(flow, (A0, B0, 0.2))
        for t in times:
            got, want, p = path(t), closed(t), flow.at(t)
            size = math.exp(p.i) * (abs(A0) + abs(B0)) * max(map(abs, p[:4]))
            bound = FLOW_TOL * flow.n_steps * size
            assert abs(got.A - want[0]) <= bound, (t, got, want)
            assert abs(got.B - want[1]) <= bound, (t, got, want)


@pytest.mark.parametrize("bad", [math.nan, math.inf], ids=["nan", "inf"])
@pytest.mark.parametrize("call", ["general_invariant",
                                  "ladder_factorization"])
def test_a_residual_that_is_not_a_number_is_refused(call, bad):
    # a nan residual is not above 1e-8, and an all-inf triplet's residual
    # reads inf - inf: both were served, as nan forms and pairs
    tc = coeff.builtin_coefficients(coeff.ModelSpec(coeff.CALDIROLA_KANAI))
    flow = classical_flow(tc)
    with pytest.raises(AuxiliaryResidualTooLarge) as err:
        getattr(inv, call)(flow, lambda t: (bad, bad, bad), 1.0, 1.0)
    assert set(err.value.info) == {"residual", "t"}
    assert err.value.info["t"] == 1.0


def _sho_flow():
    return classical_flow(oscillator(lambda t: 1.0))


def test_pinney_refuses_coefficients_that_are_not_finite():
    with pytest.raises(ValidationError):
        inv.superpose_linear_solutions(_sho_flow(), math.nan, 0.0, 1.0)


def test_pinney_refuses_a_c0_past_the_float_range():
    # A C - B^2 = 1e616
    with pytest.raises(NumericalError) as err:
        inv.superpose_linear_solutions(_sho_flow(), 1e308, 0.0, 1e308)
    assert err.value.info == {"t": 0.0}


def test_pinney_refuses_a_value_past_the_float_range():
    # C0 = 1.7e8 and s are finite at t = 0.3, but s'' = 2A (sin^2 - cos^2)
    # is -inf, and so was mu''
    mu_fn, C0 = inv.superpose_linear_solutions(_sho_flow(), 1.7e308, 0.0,
                                               1e-300)
    assert C0 == pytest.approx(1.7e8)
    with pytest.raises(NumericalError) as err:
        mu_fn(0.3)
    assert err.value.info == {"t": 0.3}


def test_pinney_refuses_a_form_that_is_not_a_number():
    # a flow point that overflows makes s = M S0 M^T's inf^2 + inf 0 = nan,
    # which is not <= 0 and was served as mu = nan
    stub = twin.FlowStub(FlowPoint(math.inf, 0.0, 0.0, 1.0, 0.0),
                          oscillator(lambda t: 1.0))
    mu_fn, _ = inv.superpose_linear_solutions(stub, 1.0, 0.5, 1.0)
    with pytest.raises(NonPositiveForm):
        mu_fn(1.0)


def test_pinney_refuses_an_a_that_vanishes_at_t_0():
    # a = t: the linear solutions' p = (mu' - (c + d) mu) / 2a at t = 0
    # divided by zero, a bare ZeroDivisionError
    zero = lambda t: 0.0
    tc = coeff.TimeCoefficients(lambda t: t, lambda t: 0.5, zero, zero,
                                da=lambda t: 1.0, dc=zero, dd=zero)
    with pytest.raises(SingularCoefficient) as err:
        inv.superpose_linear_solutions(classical_flow(tc), 1.0, 0.0, 1.0)
    assert err.value.info == {"t": 0.0}


def test_pinney_serves_an_a_whose_square_overflows():
    # a = 1e160, b = 2.5e-161 (4ab = 1): C0 = (AC - B^2) / (2a)^2 raised
    # OverflowError from (2a) ** 2.  The linear solutions are u = cos t
    # and v = M12 / 2a = sin t, so mu is SHO's within the bound of the
    # closed-form test, and the invariants are served
    zero = lambda t: 0.0
    tc = coeff.TimeCoefficients(lambda t: 1e160, lambda t: 2.5e-161, zero,
                                zero, da=zero, dc=zero, dd=zero)
    A, B, C = 1e10, 3e9, 1e10
    flow = classical_flow(tc)
    mu_fn, C0 = inv.superpose_linear_solutions(flow, A, B, C)
    assert C0 == pytest.approx((A * C - B * B) / 4.0 / 1e160 / 1e160,
                               rel=1e-15)
    flow.at(1.4)
    for t in (0.3, 0.7, 1.4):
        c, s = math.cos(t), math.sin(t)
        want = math.sqrt(A * c * c + 2.0 * B * c * s + C * s * s)
        bound = FLOW_TOL * flow.n_steps * (A + 2.0 * B + C) / want
        assert abs(mu_fn(t)[0] - want) <= bound, t
        assert inv.general_invariant(flow, mu_fn, C0, t).A == pytest.approx(
            want * want, rel=1e-12)
        assert inv.ladder_factorization(
            flow, mu_fn, C0, t).commutator() == pytest.approx(1.0, rel=1e-12)


@pytest.mark.parametrize("call", ["general_invariant",
                                  "ladder_factorization"])
def test_an_a_that_vanishes_at_t_is_refused(call):
    # a = 1/2 - t is 0 at t = 1/2, where a'/a and q divide by it: a bare
    # ZeroDivisionError
    zero = lambda t: 0.0
    tc = coeff.TimeCoefficients(lambda t: 0.5 - t, lambda t: 0.5, zero, zero,
                                da=lambda t: -1.0, dc=zero, dd=zero)
    with pytest.raises(SingularCoefficient) as err:
        getattr(inv, call)(classical_flow(tc), lambda t: (1.0, 0.0, 0.0),
                           1.0, 0.5)
    assert err.value.info == {"t": 0.5}


# nan, +-inf, 0 and values within a factor of 2 of the float range's limits,
# beside ordinary ones
_MAX, _MIN = sys.float_info.max, sys.float_info.min
_SIGNS = st.sampled_from([-1.0, 1.0])
NASTY = st.one_of(
    st.sampled_from([math.nan, math.inf, -math.inf, 5e-324, 0.0]),
    st.builds(lambda u, s: s * u * _MAX, st.floats(0.5, 1.0), _SIGNS),
    st.builds(lambda u, s: s * u * _MIN, st.floats(1.0, 2.0), _SIGNS),
    st.floats(-2.0, 2.0))
SHO = coeff.builtin_coefficients(coeff.ModelSpec(coeff.SIMPLE_HARMONIC))


@st.composite
def _triplets(draw):
    """(mu, mu', mu'') of NASTY values, or one whose mu'' solves SHO's
    auxiliary equation mu'' + mu = C0 / mu^3 for a drawn C0, so that the
    values behind the residual check are formed too; and that C0."""
    mu, mup, C0 = draw(NASTY), draw(NASTY), draw(NASTY)
    if draw(st.booleans()) and mu != 0.0:
        return (mu, mup, C0 / mu / mu / mu - mu), C0
    return (mu, mup, draw(NASTY)), C0


def _numbers(value):
    """The floats of a reader's result: its fields, a complex's parts."""
    if isinstance(value, complex):
        return [value.real, value.imag]
    if isinstance(value, (tuple, list)):
        return [x for v in value for x in _numbers(v)]
    if isinstance(value, dict):
        return _numbers(list(value.values()))
    return [value]


@seed(20261053)
@settings(max_examples=120, deadline=None, derandomize=True)
@given(point=st.builds(twin.draw_point, st.floats(-math.pi, math.pi),
                       st.floats(-40.0, 40.0), st.floats(-10.0, 10.0),
                       st.floats(-745.0, 745.0)),
       values=st.lists(NASTY, min_size=6, max_size=6),
       triplet=_triplets())
def test_no_reader_returns_a_non_finite_number_for_non_finite_inputs(
        point, values, triplet):
    # every public reader of the invariants and the moment paths, fed nan,
    # +-inf and values near the float range's limits on a drawn flow point
    # of SHO's coefficients: each returns finite numbers or raises a
    # QuadhamError, never nan or inf and never a bare exception
    from quadham import dynamics as dyn

    flow = twin.FlowStub(point, SHO)
    (mu_fn_values, C0), (v1, v2, v3, v4, v5, v6) = triplet, values
    mu_fn = lambda t: mu_fn_values
    second = lambda: dyn.evolve_second_moments(
        flow, dyn.SecondMoments(v1, v2, v3, v4))(1.0)
    first = lambda: dyn.evolve_first_moments(flow,
                                             dyn.FirstMoments(v5, v6))(1.0)

    def superposed():
        mu, c0 = inv.superpose_linear_solutions(flow, v5, v6, C0)
        return mu(1.0), c0

    reads = [
        lambda: inv.energy_operator_catalog(
            coeff.ModelSpec(coeff.CALDIROLA_KANAI), v1),
        lambda: inv.solve_energy_system(flow, (v1, v2, v3, v4))(1.0),
        lambda: inv.linear_invariant(flow, (v1, v2, v3))(1.0),
        superposed,
        lambda: inv.general_invariant(flow, mu_fn, C0, 1.0),
        lambda: inv.ladder_factorization(flow, mu_fn, C0, 1.0),
        lambda: second()[0], lambda: second()[1](v5),
        lambda: first()[0], lambda: first()[1](v6),
        lambda: dyn.damped_energy_equation_solve(
            coeff.ModelSpec(coeff.SIMPLE_HARMONIC),
            dyn.SecondMoments(v1, v2, v3, v4), flow)(1.0),
        lambda: dyn.uncertainty_check(dyn.SecondMoments(v1, v2, v3, v4))]
    for k, read in enumerate(reads):
        try:
            got = read()
        except QuadhamError:
            continue
        assert all(map(math.isfinite, _numbers(got))), (k, got)
