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
from quadham.errors import (NoClosedForm, NonPositiveForm, NumericalError,
                            QuadhamError, SingularCoefficient,
                            ValidationError)
from quadham.ode import FLOW_TOL

import oracle40
import twin
from auxiliary import auxiliary_residual
from helpers import case_seed, ermakov, oscillator, pinney

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
    tc = oracle40.coefficients(UNITED)
    assert C0 == pytest.approx(0.25 * UNITED.model.omega ** 2, rel=1e-14)
    for t in np.linspace(0.0, 3.0, 13):
        assert auxiliary_residual(tc, mu_fn, C0, float(t)) <= 1e-10


def test_united_general_invariant_reproduces_catalog():
    flow = classical_flow(coeff.builtin_coefficients(UNITED))
    form = inv.general_invariant(flow,
                                 *UNITED.closed_form("invariant_data"))
    for t in (0.0, 0.7, 1.9):
        got = form(t)
        ref = inv.energy_operator_catalog(UNITED, t)
        scale = max(abs(ref.A), abs(ref.B), 1.0)
        for g, r in ((got.A, ref.A), (got.B, ref.B),
                     (got.C, ref.C), (got.D, ref.D)):
            assert abs(g - r) <= 1e-10 * scale


def test_united_invariant_mu_only_for_united():
    with pytest.raises(NoClosedForm):
        coeff.ModelSpec(coeff.SIMPLE_HARMONIC, 1.0).closed_form(
            "invariant_mu")


@pytest.mark.parametrize("spec", [
    coeff.ModelSpec(coeff.UNITED, 1.0, 0.3, 0.1),
    coeff.ModelSpec(coeff.UNITED, 400.0, 0.3, 300.0),
], ids=["unit", "steep"])
def test_united_invariant_mu_is_pinneys_from_its_data(request, spec):
    # the record's printed mu at t > 0 is Pinney's sqrt(s11) from its
    # values at t = 0, read off the ladder's R = mu / sqrt(omega) at
    # omega = 2 sqrt(C0) e^0, within the flow's FLOW_TOL a step, for
    # t up to 3 where the weighted values stay in the float range
    @seed(case_seed(request))
    @settings(max_examples=20, deadline=None, derandomize=True)
    @given(t=st.floats(0.0, 3.0))
    def case(t):
        try:
            pair = ladder(t)
        except NumericalError:
            assert spec.omega0 == 400.0  # e^I past the float range
            return
        got = pair.ddx_coeff * math.sqrt(omega)
        want = spec.closed_form("invariant_mu")(t)[0]
        assert abs(got - want) <= FLOW_TOL * flow.n_steps * want, t

    flow = classical_flow(coeff.builtin_coefficients(spec))
    flow.at(3.0)  # n_steps of the whole window
    ladder = inv.ladder_factorization(flow,
                                      *spec.closed_form("invariant_data"))
    omega = 2.0 * math.sqrt(spec.closed_form("invariant_c0"))
    case()


def _pinney_mu(flow, A, B, C):
    """Pinney's mu at t as the package's ladder reads it, R sqrt(omega),
    omega = 2 sqrt(C0) the ladder's omega_t at I = 0."""
    ladder = inv.ladder_factorization(flow, A, B, C)
    omega = 2.0 * math.sqrt(pinney(flow, A, B, C)[1])
    return lambda t: ladder(t).ddx_coeff * math.sqrt(omega)


def test_superposed_mu_solves_auxiliary_equation():
    # the judge reads mu, mu' and mu'' of helpers.pinney, whose mu is the
    # package's to rounding
    tc = oracle40.coefficients(UNITED)
    flow = classical_flow(tc)
    mu_fn, C0 = pinney(flow, 1.2, 0.3, 0.9)
    package_mu = _pinney_mu(flow, 1.2, 0.3, 0.9)
    for t in np.linspace(0.0, 2.0, 9):
        assert auxiliary_residual(tc, mu_fn, C0, float(t)) <= 1e-9
        assert package_mu(float(t)) == pytest.approx(mu_fn(float(t))[0],
                                                     rel=1e-13)


@pytest.mark.parametrize("spec", [
    coeff.ModelSpec(coeff.MODIFIED_OSCILLATOR),
    coeff.ModelSpec(coeff.MODIFIED_PARAMETRIC, 1.0, 0.2, delta=0.5),
], ids=lambda s: s.model_id)
def test_superposed_mu_solves_the_equation_where_c_plus_d_varies(spec):
    # c' + d' is not 0 on these two models, as it is on united and
    # Caldirola-Kanai: the judge reads that term of Q itself, so a wrong
    # transform T = [[1, 0], [-(c + d) k, k]] of Pinney's data, which the
    # package and helpers.pinney share, shows here
    tc = oracle40.coefficients(spec)
    flow = classical_flow(tc)
    mu_fn, C0 = pinney(flow, 1.2, 0.3, 0.9)
    package_mu = _pinney_mu(flow, 1.2, 0.3, 0.9)
    for t in np.linspace(0.0, 1.4, 8):
        assert auxiliary_residual(tc, mu_fn, C0, float(t)) <= 1e-9
        assert package_mu(float(t)) == pytest.approx(mu_fn(float(t))[0],
                                                     rel=1e-13)


@seed(18007391977996491405311385996762510238731534574760373146268145898231727227147204191502240348289374441815095467894515)
@settings(max_examples=12, deadline=None, derandomize=True)
@given(A=st.floats(0.5, 2.0), C=st.floats(0.5, 2.0),
       frac=st.floats(-0.9, 0.9))
def test_superposition_property_random_coefficients(A, C, frac):
    B = frac * math.sqrt(A * C)
    spec = coeff.ModelSpec(coeff.CALDIROLA_KANAI, 1.0, 0.1)
    tc = oracle40.coefficients(spec)
    flow = classical_flow(tc)
    mu_fn, C0 = pinney(flow, A, B, C)
    for t in (0.0, 0.6, 1.4):
        assert auxiliary_residual(tc, mu_fn, C0, t) <= 1e-9


def test_pinney_matches_the_closed_form_on_sho():
    # on SHO (a = b = 1/2) the linear solutions are u = cos t, v = sin t,
    # so mu^2 = A cos^2 t + 2B cos t sin t + C sin^2 t and C0 = AC - B^2.
    # The flow's u and v are each within FLOW_TOL a step, so mu^2 is within
    # twice that of |A| + 2|B| + |C|, and mu within that over 2 mu.  The
    # ladder's omega_t is 2 sqrt(C0) at I = 0
    A, B, C = 2.0, 0.3, 1.0
    flow = classical_flow(oscillator(lambda t: 1.0))
    ladder = inv.ladder_factorization(flow, A, B, C)
    omega = ladder(0.0).omega_t
    assert omega == 2.0 * math.sqrt(A * C - B * B)
    flow.at(12.0)  # n_steps of the whole window
    for t in np.linspace(0.0, 12.0, 25):
        c, s = math.cos(t), math.sin(t)
        want = math.sqrt(A * c * c + 2.0 * B * c * s + C * s * s)
        bound = FLOW_TOL * flow.n_steps * (abs(A) + 2.0 * abs(B)
                                           + abs(C)) / want
        got = ladder(float(t)).ddx_coeff * math.sqrt(omega)
        assert abs(got - want) <= bound, t


def test_pinney_nonpositive_form():
    # an indefinite form, B^2 > AC: on SHO mu^2 = 1 + 2 sin 2t is -1 at
    # t = 3 pi / 4, and a semidefinite one's mu^2 = (cos t - sin t)^2 is 0
    # at pi / 4; each is refused by both readers when the path is built,
    # before a t
    flow = classical_flow(oscillator(lambda t: 1.0))
    for call in (inv.general_invariant, inv.ladder_factorization):
        for A, B, C in ((1.0, 2.0, 1.0), (1.0, -1.0, 1.0),
                        (-1.0, 0.0, -1.0)):
            with pytest.raises(NonPositiveForm) as err:
                call(flow, A, B, C)
            assert err.value.info == {"A": A, "B": B, "C": C}


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
    form = inv.general_invariant(flow, 1.0, 0.2, 0.2 ** 2 + 0.7)
    for t in (0.3, 1.1, 1.9):
        kappa, kappa_p, _ = kappa_fn(t)
        gen = form(t)
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
    data = UNITED.closed_form("invariant_data")
    ladder = inv.ladder_factorization(flow, *data)
    form = inv.general_invariant(flow, *data)
    for t in (0.0, 0.8, 1.6):
        pair = ladder(t)
        assert pair.commutator() == pytest.approx(1.0, abs=1e-12)
        rec = pair.reconstruct()
        ref = form(t)
        scale = max(abs(ref.A), abs(ref.B), 1.0)
        assert abs(rec.A - ref.A) <= 1e-10 * scale
        assert abs(rec.B - ref.B) <= 1e-10 * scale
        assert abs(rec.C - ref.C) <= 1e-10 * scale


def test_ladder_requires_positive_c0():
    # C0 = (AC - B^2) k^2 is 0 and -3 here: omega = 2 sqrt(C0) is not a
    # frequency, and the path is refused when built
    flow = classical_flow(coeff.builtin_coefficients(UNITED))
    for B in (1.0, 2.0):
        with pytest.raises(NonPositiveForm):
            inv.ladder_factorization(flow, 1.0, B, 1.0)


def test_a_vanishing_mu_is_refused_where_a_value_needs_it():
    # on SHO mu = sin t, Pinney's from (0, 0, 1), solves the linear
    # equation (C0 = 0) and vanishes at t = 0: its residual is defined
    # there, the invariant is not, and neither reader builds a path
    tc = oracle40.coefficients(coeff.ModelSpec(coeff.SIMPLE_HARMONIC))
    flow = classical_flow(tc)
    mu = lambda t: (math.sin(t), math.cos(t), -math.sin(t))
    assert auxiliary_residual(tc, mu, 0.0, 0.0) == 0.0
    for call in (inv.general_invariant, inv.ladder_factorization):
        with pytest.raises(NonPositiveForm):
            call(flow, 0.0, 0.0, 1.0)


def test_invariants_read_mu_once(monkeypatch):
    # each path reads one Flow.at point per t: general_invariant's through
    # the energy path, the ladder's for its congruence and I (2 when the
    # mu callable and I read the flow apart, 3 when mu read the flow's two
    # columns apart)
    omega_sq = lambda t: 1.0 + 0.3 * math.sin(t)
    flow = classical_flow(oscillator(omega_sq))
    calls = []
    at = Flow.at

    def counted_at(self, t):
        calls.append(t)
        return at(self, t)

    monkeypatch.setattr(Flow, "at", counted_at)
    for call in (inv.general_invariant, inv.ladder_factorization):
        path = call(flow, 1.0, 0.2, 0.74)
        for t in (1.0, 0.4):
            calls.clear()
            path(t)
            assert calls == [t]


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


@seed(20261054)
@settings(max_examples=10, deadline=None, derandomize=True)
@given(m0=st.tuples(st.floats(0.5, 2.0), st.floats(0.5, 2.0),
                    st.floats(-0.5, 0.5)))
def test_coefficients_without_derivatives_serve_both_readers(m0):
    # a drawn H = (1 + 0.3 sin t) p^2 + x^2 / 2 + 0.2 cos t (px + xp)
    # with no a', c' or d': both readers serve it, reading H at t = 0 and
    # the flow alone, and <E> of the drawn moments flowed to t stays
    # E(0) within the flow bound, FLOW_TOL a step times its terms
    from quadham import dynamics as dyn

    cd = lambda t: 0.2 * math.cos(t)
    tc = coeff.TimeCoefficients(lambda t: 0.5 + 0.3 * math.sin(t),
                                lambda t: 0.5, cd, cd)
    flow = classical_flow(tc)
    form = inv.general_invariant(flow, 1.2, 0.3, 0.9)
    ladder = inv.ladder_factorization(flow, 1.2, 0.3, 0.9)
    path = dyn.evolve_second_moments(flow, dyn.SecondMoments(*m0))
    e0 = form(0.0).expectation(*m0)
    flow.at(2.0)
    for t in (0.5, 1.2, 2.0):
        m, raw = path(t)
        moments = [raw(v) for v in m[:3]]
        for q in (form(t), ladder(t).reconstruct()):
            bound = FLOW_TOL * flow.n_steps * q.magnitude(*moments)
            assert abs(q.expectation(*moments) - e0) <= bound, (t, q)


def test_invariants_read_the_integral_off_one_flow(solves):
    # on SHO Pinney's mu from (1, 0, 1) is 1 and C0 = 1; I = 0, so
    # E = p^2 + x^2 to the flow's rounding, omega_t = 2 exactly, and the
    # constant of a linear invariant stays C0
    tc = coeff.builtin_coefficients(coeff.ModelSpec(coeff.SIMPLE_HARMONIC))
    flow = classical_flow(tc)
    assert solves == []  # nothing is solved until the flow is read
    linear = inv.linear_invariant(flow, (1.0, 0.0, 0.2))
    form = inv.general_invariant(flow, 1.0, 0.0, 1.0)
    ladder = inv.ladder_factorization(flow, 1.0, 0.0, 1.0)
    assert solves == []  # nor when a path is built
    for t in np.linspace(0.1, 2.0, 20):
        got = form(float(t))
        bound = 4.0 * FLOW_TOL * flow.n_steps
        assert all(abs(g - w) <= bound for g, w in zip(
            got[:4], (1.0, 1.0, 0.0, 0.0))), got
        assert linear(float(t)).C == 0.2
        assert ladder(float(t)).omega_t == 2.0
    assert len(solves) == 1


def test_no_weighted_reader_returns_a_number_past_the_float_range():
    # united at omega0 400, mu_param 300 has I = 300 t: e^I is finite at
    # t = 2.355 and 2.36 (I = 706.5 and 708), but mu' and the invariants
    # times it are not.  Each read returned +-inf, and kernel_parameters
    # refused mu' = inf as inside the caustic guard band
    spec = coeff.ModelSpec(coeff.UNITED, 400.0, 0.3, 300.0)
    tc = coeff.builtin_coefficients(spec)
    flow = classical_flow(tc)
    data = spec.closed_form("invariant_data")
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
        (2.36, lambda: inv.general_invariant(flow, *data)(2.36)),
        (2.36, lambda: inv.ladder_factorization(flow, *data)(2.36)),
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


def _sho_flow():
    return classical_flow(oscillator(lambda t: 1.0))


def test_pinney_refuses_coefficients_that_are_not_finite():
    for call in (inv.general_invariant, inv.ladder_factorization):
        for data in ((math.nan, 0.0, 1.0), (1.0, math.inf, 1.0)):
            with pytest.raises(ValidationError):
                call(_sho_flow(), *data)


def test_pinney_refuses_a_c0_past_the_float_range():
    # A C - B^2 = 1e616
    for call in (inv.general_invariant, inv.ladder_factorization):
        with pytest.raises(NumericalError) as err:
            call(_sho_flow(), 1e308, 0.0, 1e308)
        assert err.value.info == {"t": 0.0}


def test_pinney_refuses_a_value_past_the_float_range():
    # on H = (p^2 - x^2) / 2 the linear solutions are cosh t and sinh t, so
    # from (1e300, 0, 1) mu^2 = 1e300 cosh^2 t + sinh^2 t is finite at t = 5
    # and past the float range at t = 12: each reader refuses it, naming t
    # and I, where it read inf or nan
    zero = lambda t: 0.0
    flow = classical_flow(coeff.TimeCoefficients(
        lambda t: 0.5, lambda t: -0.5, zero, zero))
    for call in (inv.general_invariant, inv.ladder_factorization):
        path = call(flow, 1e300, 0.0, 1.0)
        path(5.0)
        with pytest.raises(NumericalError) as err:
            path(12.0)
        assert err.value.info == {"t": 12.0, "I": 0.0}


def test_pinney_refuses_a_form_that_is_not_a_number():
    # a flow point that overflows makes s = M S0 M^T's inf^2 + inf 0 = nan,
    # which was served as mu = nan
    stub = twin.FlowStub(FlowPoint(math.inf, 0.0, 0.0, 1.0, 0.0),
                         oscillator(lambda t: 1.0))
    for call in (inv.general_invariant, inv.ladder_factorization):
        with pytest.raises(NumericalError) as err:
            call(stub, 1.0, 0.5, 1.0)(1.0)
        assert err.value.info == {"t": 1.0, "I": 0.0}


def test_pinney_refuses_an_a_that_vanishes_at_t_0():
    # a = t: the linear solutions' p = (mu' - (c + d) mu) / 2a at t = 0
    # divided by zero, a bare ZeroDivisionError
    zero = lambda t: 0.0
    tc = coeff.TimeCoefficients(lambda t: t, lambda t: 0.5, zero, zero)
    for call in (inv.general_invariant, inv.ladder_factorization):
        with pytest.raises(SingularCoefficient) as err:
            call(classical_flow(tc), 1.0, 0.0, 1.0)
        assert err.value.info == {"t": 0.0}


def _sho_form(A, B, C, t):
    """SHO's invariant from (A, B, C) at t, adj of S = M S0 M^T with M the
    rotation by t: (s11, s22, -s12)."""
    c, s = math.cos(t), math.sin(t)
    return (A * c * c + 2.0 * B * c * s + C * s * s,
            A * s * s - 2.0 * B * c * s + C * c * c,
            -((C - A) * c * s + B * (c * c - s * s)))


def _overflowing_a_flow():
    """a = 1e160, b = 2.5e-161 (4ab = 1), read to t = 1.4: the linear
    solutions are u = cos t and v = M12 / 2a = sin t."""
    zero = lambda t: 0.0
    flow = classical_flow(coeff.TimeCoefficients(
        lambda t: 1e160, lambda t: 2.5e-161, zero, zero))
    flow.at(1.4)
    return flow


def test_pinney_serves_an_a_whose_square_overflows():
    # C0 = (AC - B^2) / (2a)^2 raised OverflowError from (2a) ** 2.  mu is
    # SHO's within the bound of the closed-form test, and the invariants
    # are served
    A, B, C = 1e10, 3e9, 1e10
    flow = _overflowing_a_flow()
    form = inv.general_invariant(flow, A, B, C)
    ladder = inv.ladder_factorization(flow, A, B, C)
    assert ladder(0.0).omega_t == pytest.approx(
        2.0 * math.sqrt((A * C - B * B) / 4.0 / 1e160 / 1e160), rel=1e-15)
    for t in (0.3, 0.7, 1.4):
        c, s = math.cos(t), math.sin(t)
        want = math.sqrt(A * c * c + 2.0 * B * c * s + C * s * s)
        bound = FLOW_TOL * flow.n_steps * (A + 2.0 * B + C) / want
        pair = ladder(t)
        assert abs(pair.ddx_coeff * math.sqrt(pair.omega_t) - want) <= bound
        assert form(t).A == pytest.approx(want * want, rel=1e-12)
        assert pair.commutator() == pytest.approx(1.0, rel=1e-12)


def test_pinney_keeps_the_digits_of_a_subnormal_c0():
    # at a = 1e160, (A, B, C) = (1, 0.5, 1) has C0 = 0.75 / (2a)^2 =
    # 1.9e-321, subnormal, which the residual check refused; where S0 =
    # T [[A, B], [B, C]] T^T was formed in floats its s22 = C / (2a)^2 was
    # subnormal too, and the invariant's A read 1.2823203 against 1.2823212
    # at t = 0.3.  A and C are SHO's from the same (A, B, C), C scaled by
    # 1 / 2a, within the flow bound of the closed-form test; B, SHO's
    # scaled by 1 / (2a)^2, is itself subnormal
    flow = _overflowing_a_flow()
    form = inv.general_invariant(flow, 1.0, 0.5, 1.0)
    ladder = inv.ladder_factorization(flow, 1.0, 0.5, 1.0)
    assert ladder(0.0).omega_t == pytest.approx(
        2.0 * math.sqrt(0.75) / 2e160, rel=1e-15)
    bound = 2.0 * FLOW_TOL * flow.n_steps * 4.0
    for t in (0.3, 0.7, 1.4):
        got, want = form(t), _sho_form(1.0, 0.5, 1.0, t)
        assert abs(got.A - want[0]) <= bound, (t, got)
        assert abs(got.C * 2e160 - want[2]) <= bound, (t, got)
        assert 0.0 < got.B < sys.float_info.min, (t, got)
        pair = ladder(t)
        assert abs(pair.ddx_coeff * math.sqrt(pair.omega_t)
                   - math.sqrt(want[0])) <= bound, (t, pair)
        assert pair.commutator() == pytest.approx(1.0, rel=1e-12)
        assert pair.reconstruct().A == pytest.approx(got.A, rel=1e-12)


def test_a_scaled_form_is_served_scaled():
    # on SHO the invariant of s (2, 0.3, 1) is s times that of (2, 0.3, 1)
    # to a few ulp of the form's size: the residual check judged mu''
    # absolutely and refused s = 1e20 (mu ~ 1.4e10, residuals ~ 3e-6)
    scale = 1e20
    flow = _sho_flow()
    unit = inv.general_invariant(flow, 2.0, 0.3, 1.0)
    form = inv.general_invariant(flow, 2.0 * scale, 0.3 * scale, scale)
    ladder = inv.ladder_factorization(flow, 2.0 * scale, 0.3 * scale, scale)
    for t in (0.3, 1.0, 2.5):
        want = unit(t)
        got = form(t)
        ulp = sys.float_info.epsilon * scale * max(abs(want.A), abs(want.B))
        assert all(abs(g - scale * w) <= 4.0 * ulp
                   for g, w in zip(got[:4], want[:4])), (t, got, want)
        rec, size = ladder(t).reconstruct(), max(abs(got.A), abs(got.B))
        assert all(abs(r - g) <= 1e-10 * size
                   for r, g in zip(rec[:4], got[:4])), (t, rec, got)


def test_the_invariant_near_a_zero_of_a_is_conserved():
    # modified_oscillator's a = cos^2 t is 3.7e-33 at t = pi/2: the route
    # through q = (mu' - (c + d) mu) / 2a served (9.504, 43.26, 20.27) for
    # (1.2, 0.3, 0.9) there, whose <E> on the flowed moments read 160.7
    # against the conserved 1.4925.  Both readers conserve <E> at pi/2, to
    # the flow bound, and are continuous from t = 1.5707
    from quadham import dynamics as dyn

    flow = classical_flow(coeff.builtin_coefficients(
        coeff.ModelSpec(coeff.MODIFIED_OSCILLATOR)))
    form = inv.general_invariant(flow, 1.2, 0.3, 0.9)
    ladder = inv.ladder_factorization(flow, 1.2, 0.3, 0.9)
    path = dyn.evolve_second_moments(flow, dyn.SecondMoments(1.1, 0.9, 0.2))
    e0 = form(0.0).expectation(1.1, 0.9, 0.2)
    half_pi = 0.5 * math.pi
    flow.at(half_pi)
    for q in (form, lambda t: ladder(t).reconstruct()):
        m, raw = path(half_pi)
        moments = [raw(v) for v in m[:3]]
        end = q(half_pi)
        bound = FLOW_TOL * flow.n_steps * end.magnitude(*moments)
        assert abs(end.expectation(*moments) - e0) <= bound
        near = q(1.5707)
        # d/dt of the form is below 50 here, and pi/2 - 1.5707 < 1e-4
        for g, w in zip(near[:4], end[:4]):
            assert abs(g - w) <= 5e-3, (near, end)


@pytest.mark.parametrize("call", ["general_invariant",
                                  "ladder_factorization"])
def test_an_a_that_vanishes_at_t_is_served(call):
    # a = (1 - t) / 2 is 0 at t = 1, where a'/a and q divided by it (the
    # readers refused it with SingularCoefficient): no value reads a at
    # t, so each reader is served there and its <E> on the flowed moments
    # is conserved to the flow bound; the ladder also reconstructs the
    # form and keeps [A, A^dagger] = 1
    from quadham import dynamics as dyn

    zero = lambda t: 0.0
    tc = coeff.TimeCoefficients(lambda t: 0.5 * (1.0 - t), lambda t: 0.5,
                                zero, zero)
    flow = classical_flow(tc)
    form = inv.general_invariant(flow, 1.2, 0.3, 0.9)
    reader = getattr(inv, call)(flow, 1.2, 0.3, 0.9)
    q = reader if call == "general_invariant" else (
        lambda t: reader(t).reconstruct())
    path = dyn.evolve_second_moments(flow, dyn.SecondMoments(1.1, 0.9, 0.2))
    e0 = q(0.0).expectation(1.1, 0.9, 0.2)
    flow.at(1.5)
    for t in (0.5, 1.0, 1.5):
        m, raw = path(t)
        moments = [raw(v) for v in m[:3]]
        got = q(t)
        bound = FLOW_TOL * flow.n_steps * got.magnitude(*moments)
        assert abs(got.expectation(*moments) - e0) <= bound, (t, got)
        if call == "ladder_factorization":
            want = form(t)
            scale = max(abs(want.A), abs(want.B), 1.0)
            assert all(abs(r - g) <= 1e-10 * scale
                       for r, g in zip(got[:4], want[:4])), (t, got, want)
            assert reader(t).commutator() == pytest.approx(1.0, rel=1e-12)


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
       pinney_data=st.tuples(NASTY, NASTY, NASTY))
def test_no_reader_returns_a_non_finite_number_for_non_finite_inputs(
        point, values, pinney_data):
    # every public reader of the invariants and the moment paths, fed nan,
    # +-inf and values near the float range's limits on a drawn flow point
    # of SHO's coefficients: each returns finite numbers or raises a
    # QuadhamError, never nan or inf and never a bare exception
    from quadham import dynamics as dyn

    flow = twin.FlowStub(point, SHO)
    v1, v2, v3, v4, v5, v6 = values
    second = lambda: dyn.evolve_second_moments(
        flow, dyn.SecondMoments(v1, v2, v3, v4))(1.0)
    first = lambda: dyn.evolve_first_moments(flow,
                                             dyn.FirstMoments(v5, v6))(1.0)

    reads = [
        lambda: inv.energy_operator_catalog(
            coeff.ModelSpec(coeff.CALDIROLA_KANAI), v1),
        lambda: inv.solve_energy_system(flow, (v1, v2, v3, v4))(1.0),
        lambda: inv.linear_invariant(flow, (v1, v2, v3))(1.0),
        lambda: inv.general_invariant(flow, *pinney_data)(1.0),
        lambda: inv.ladder_factorization(flow, *pinney_data)(1.0),
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
