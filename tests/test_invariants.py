import math

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp as scipy_solve_ivp

from quadham import coefficients as coeff
from quadham import invariants as inv
from quadham.characteristic import Flow, classical_flow
from quadham.errors import (AuxiliaryResidualTooLarge, InvalidC0,
                            KappaCollapse, MuVanishes, NoClosedForm,
                            NonPositiveForm, ResidualTooLarge,
                            ValidationError)

from auxiliary import auxiliary_residual

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
    u = inv.solve_linear_auxiliary(flow, (1.0, 0.0))
    v = inv.solve_linear_auxiliary(flow, (0.0, 1.0))
    mu_fn, C0 = inv.superpose_linear_solutions(tc, u, v, 1.2, 0.3, 0.9)
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
    u = inv.solve_linear_auxiliary(flow, (1.0, 0.0))
    v = inv.solve_linear_auxiliary(flow, (0.0, 1.0))
    mu_fn, C0 = inv.superpose_linear_solutions(tc, u, v, 1.2, 0.3, 0.9)
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
    u = inv.solve_linear_auxiliary(flow, (1.0, 0.0))
    v = inv.solve_linear_auxiliary(flow, (0.0, 1.0))
    mu_fn, C0 = inv.superpose_linear_solutions(tc, u, v, A, B, C)
    for t in (0.0, 0.6, 1.4):
        assert auxiliary_residual(tc, mu_fn, C0, t) <= 1e-9


def _oscillator(omega_sq, domega_sq=lambda t: 0.0):
    """H = (p^2 + omega^2(t) x^2) / 2 with its derivatives."""
    zero = lambda t: 0.0
    return coeff.TimeCoefficients(lambda t: 0.5, lambda t: 0.5 * omega_sq(t),
                                  zero, zero, da=zero, dc=zero, dd=zero)


def test_pinney_matches_direct_ermakov():
    # constant frequency: u = cos, v = sin, W = 1
    u = lambda t: (math.cos(t), -math.sin(t))
    v = lambda t: (math.sin(t), math.cos(t))
    mu_fn, C0 = inv.superpose_linear_solutions(_oscillator(lambda t: 1.0),
                                               u, v, A=2.0, B=0.3, C=1.0)
    kappa_fn, _ = inv.solve_ermakov(lambda t: 1.0, C0, mu_fn(0.0)[:2], 3.0)
    for t in np.linspace(0.0, 3.0, 13):
        assert kappa_fn(float(t))[0] == pytest.approx(mu_fn(float(t))[0],
                                                      rel=1e-8)


def test_pinney_and_linear_superposition_agree():
    # a = 1/2, b = omega^2 / 2, c = d = 0: the linear auxiliary equation is
    # u'' + omega^2 u = 0, and solve_ermakov's kappa from the columns of
    # the flow is the superposed mu of the same u, v, A, B, C
    omega_sq = lambda t: 1.0 + 0.3 * math.sin(t)
    tc = _oscillator(omega_sq, lambda t: 0.3 * math.cos(t))
    flow = classical_flow(tc)
    u = inv.solve_linear_auxiliary(flow, (1.0, 0.0))
    v = inv.solve_linear_auxiliary(flow, (0.0, 1.0))
    kappa0, kappa0p, c0 = 1.0, 0.2, 0.7
    A, B, C = kappa0 ** 2, kappa0 * kappa0p, kappa0p ** 2 + c0 / kappa0 ** 2
    mu_fn, C0 = inv.superpose_linear_solutions(tc, u, v, A, B, C)
    kappa_fn, c0_out = inv.solve_ermakov(omega_sq, c0, (kappa0, kappa0p),
                                         2.0)
    assert c0_out == c0
    assert C0 == pytest.approx(c0, rel=1e-15)
    for t in np.linspace(0.0, 2.0, 9):
        t = float(t)
        for k, m in zip(kappa_fn(t), mu_fn(t)):
            assert k == pytest.approx(m, rel=1e-15)


def test_pinney_nonpositive_form():
    u = lambda t: (math.cos(t), -math.sin(t))
    v = lambda t: (math.sin(t), math.cos(t))
    mu_fn, _ = inv.superpose_linear_solutions(_oscillator(lambda t: 1.0),
                                              u, v, A=1.0, B=-1.0, C=1.0)
    with pytest.raises(NonPositiveForm):
        mu_fn(math.pi / 4)


@seed(17576708527379597108981712300698836528432069015576139225029068876887963154685149787915036614061780509071160199590509)
@settings(max_examples=30, deadline=None, derandomize=True)
@given(eps=st.floats(-0.5, 0.5), c0=st.floats(0.05, 1.0),
       kappa0=st.floats(0.5, 2.0), kappa0p=st.floats(-1.0, 1.0),
       t=st.floats(0.0, 2.0))
def test_ermakov_solves_the_auxiliary_equation(eps, c0, kappa0, kappa0p, t):
    # solve_ermakov's pair is a solution of the auxiliary equation of
    # H = (p^2 + omega^2 x^2) / 2, with kappa'' exact, not differenced
    omega_sq = lambda s: 1.0 + eps * math.sin(s)
    kappa_fn, C0 = inv.solve_ermakov(omega_sq, c0, (kappa0, kappa0p), 2.0)
    tc = _oscillator(omega_sq, lambda s: eps * math.cos(s))
    kappa = kappa_fn(t)[0]
    res = auxiliary_residual(tc, kappa_fn, C0, t)
    assert res <= 1e-9 * max(1.0, abs(c0 / kappa ** 3))


def test_kappa_collapse_detected():
    with pytest.raises(KappaCollapse):
        inv.solve_ermakov(lambda t: 0.0, 0.0, (1.0, -1.0), 3.0)


def test_kappa_collapse_event_matches_scipy():
    # kappa'' = -kappa from (1, 0) is cos t; the guard kappa = 1e-8 is
    # crossed just before pi/2
    def rhs(t, y):
        return [y[1], -y[0]]

    def collapse(t, y):
        return y[0] - 1e-8

    collapse.terminal = True
    collapse.direction = -1
    ref = scipy_solve_ivp(rhs, (0.0, 3.0), [1.0, 0.0], method="DOP853",
                          rtol=1e-10, atol=1e-12, events=collapse)
    t_ref = ref.t_events[0][0]
    with pytest.raises(KappaCollapse) as exc:
        inv.solve_ermakov(lambda t: 1.0, 0.0, (1.0, 0.0), 3.0)
    assert abs(exc.value.info["t"] - t_ref) <= 1e-10
    assert exc.value.info["t"] == pytest.approx(math.acos(1e-8), abs=1e-8)


def test_ermakov_keeps_c0_past_the_rounding_of_its_constants():
    # kappa0 = kappa0' = 100: Pinney's A C - B^2 = 1e8 + 0.3 - 1e8 rounds
    # to 0.29999999702, so solve_ermakov returns the given c0, not the C0
    # that superpose_linear_solutions computes from A, B and C
    kappa_fn, C0 = inv.solve_ermakov(lambda t: 1.0, 0.3, (100.0, 100.0), 1.0)
    assert C0 == 0.3
    for t in (0.3, 1.0):
        ell = 100.0 * (math.cos(t) + math.sin(t))
        ref = math.sqrt(ell * ell + 0.3e-4 * math.sin(t) ** 2)
        assert kappa_fn(t)[0] == pytest.approx(ref, rel=1e-12)


def test_kappa_collapse_with_negative_c0():
    # omega = 1, c0 = -0.3: kappa^2 = (cos t + 0.2 sin t)^2 - 0.3 sin^2 t
    # has its first zero where tan t = 1 / (sqrt(0.3) - 0.2), and kappa
    # falls through the guard just before it
    with pytest.raises(KappaCollapse) as exc:
        inv.solve_ermakov(lambda t: 1.0, -0.3, (1.0, 0.2), 3.0)
    t_zero = math.atan(1.0 / (math.sqrt(0.3) - 0.2))
    assert t_zero == pytest.approx(1.2361518483971, abs=1e-12)
    assert exc.value.info["t"] == pytest.approx(t_zero, abs=1e-9)


def test_kappa_collapse_keeps_its_bits():
    # the case above: the solve, the dense output and the scan together fix
    # the collapse time to the bit
    with pytest.raises(KappaCollapse) as exc:
        inv.solve_ermakov(lambda t: 1.0, -0.3, (1.0, 0.2), 3.0)
    assert exc.value.info["t"].hex() == "0x1.3c747291c1705p+0"


def test_kappa_collapse_past_t_end_is_not_reported():
    # kappa = |cos t + sin t / 2| falls to 0 at t0 = pi - atan 2; the flow
    # read to a t_end just before t0 takes a step past it, and only a
    # collapse on [0, t_end] is reported
    t0 = math.pi - math.atan(2.0)
    inv.solve_ermakov(lambda t: 1.0, 0.0, (1.0, 0.5), t0 - 1e-3)
    with pytest.raises(KappaCollapse) as exc:
        inv.solve_ermakov(lambda t: 1.0, 0.0, (1.0, 0.5), t0 + 1e-3)
    assert exc.value.info["t"] == pytest.approx(t0, abs=1e-7)


@pytest.mark.parametrize("kappa0", [0.0, -1.0, math.nan])
def test_ermakov_refuses_a_non_positive_kappa0(kappa0):
    with pytest.raises(ValidationError):
        inv.solve_ermakov(lambda t: 1.0, 0.3, (kappa0, 0.0), 1.0)


def test_kappa_collapse_at_the_start():
    # kappa(0) inside the guard has collapsed before the first step
    with pytest.raises(KappaCollapse) as exc:
        inv.solve_ermakov(lambda t: 1.0, 0.0, (1e-9, 0.0), 1.0)
    assert exc.value.info["t"] == 0.0


def test_lewis_riesenfeld_equals_general_route():
    # at a = 1/2 and c = d = 0 the general invariant of solve_ermakov's
    # pair is Lewis and Riesenfeld's (kappa p - kappa' x)^2 + c0 x^2/kappa^2
    omega_sq = lambda t: 1.0 + 0.3 * math.sin(t)
    tc = _oscillator(omega_sq, lambda t: 0.3 * math.cos(t))
    kappa_fn, c0 = inv.solve_ermakov(omega_sq, 0.7, (1.0, 0.2), 2.0)
    flow = classical_flow(tc)
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
    # solve_ermakov's mu_fn reads its flow's two columns; with I read once,
    # general_invariant makes 3 Flow.at calls (5 when the residual check
    # called mu_fn a second time), and ladder_factorization as many
    omega_sq = lambda t: 1.0 + 0.3 * math.sin(t)
    tc = _oscillator(omega_sq, lambda t: 0.3 * math.cos(t))
    kappa_fn, c0 = inv.solve_ermakov(omega_sq, 0.7, (1.0, 0.2), 2.0)
    flow = classical_flow(tc)
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
        assert calls.count("at") <= 3


def test_linear_invariant_is_conserved():
    # no-drift oscillator: A = cos(t) solves the linear-invariant equation
    # and <P> = A <p> + B <x> stays constant along the first-moment flow
    from quadham import dynamics as dyn

    spec = coeff.ModelSpec(coeff.SIMPLE_HARMONIC, 1.0)
    tc = coeff.builtin_coefficients(spec)
    A_fn = lambda t: (math.cos(t), -math.sin(t), -math.cos(t))
    flow = classical_flow(tc)
    fm_path = dyn.evolve_first_moments(flow, dyn.FirstMoments(0.4, -0.3))
    vals = []
    for t in (0.0, 0.5, 1.0, 2.0):
        form = inv.linear_invariant(flow, A_fn, 0.2, t)
        fm = fm_path(t)[0]
        vals.append(form.A * fm.p + form.B * fm.x + form.C)
    assert max(vals) - min(vals) <= 1e-9


def test_linear_invariant_rejects_bad_solution():
    spec = coeff.ModelSpec(coeff.SIMPLE_HARMONIC, 1.0)
    flow = classical_flow(coeff.builtin_coefficients(spec))
    bad = lambda t: (1.0 + t * t, 2.0 * t, 2.0)
    with pytest.raises(ResidualTooLarge):
        inv.linear_invariant(flow, bad, 0.0, 1.0)


@pytest.mark.parametrize("extra", [-1, 1], ids=["two", "four"])
@pytest.mark.parametrize("call", ["general_invariant", "linear_invariant",
                                  "ladder_factorization"])
def test_callables_must_return_three_values(call, extra):
    # on SHO mu = 1 (C0 = 1) and A = cos t solve their equations; a tuple
    # of two or four values is refused, never differenced or cut
    tc = coeff.builtin_coefficients(coeff.ModelSpec(coeff.SIMPLE_HARMONIC))
    flow = classical_flow(tc)
    mu = lambda t: (1.0, 0.0, 0.0, 0.0)[:3 + extra]
    A = lambda t: (math.cos(t), -math.sin(t), -math.cos(t),
                   math.sin(t))[:3 + extra]
    args = {"general_invariant": (flow, mu, 1.0),
            "linear_invariant": (flow, A, 0.2),
            "ladder_factorization": (flow, mu, 1.0)}[call]
    with pytest.raises(ValidationError) as err:
        getattr(inv, call)(*args, 0.5)
    assert type(err.value) is ValidationError
    assert err.value.info == {"t": 0.5, "length": 3 + extra}


@pytest.mark.parametrize("call", ["general_invariant", "linear_invariant"])
def test_coefficients_without_a_derivative_are_refused(call):
    # SHO without a': mu = 1 (C0 = 1) and A = cos t solve their equations,
    # but the invariants take no finite difference of a
    zero = lambda t: 0.0
    half = lambda t: 0.5
    tc = coeff.TimeCoefficients(half, half, zero, zero, dc=zero, dd=zero)
    flow = classical_flow(tc)
    mu = lambda t: (1.0, 0.0, 0.0)
    A = lambda t: (math.cos(t), -math.sin(t), -math.cos(t))
    args = {"general_invariant": (flow, mu, 1.0),
            "linear_invariant": (flow, A, 0.2)}[call]
    with pytest.raises(ValidationError) as err:
        getattr(inv, call)(*args, 0.5)
    assert type(err.value) is ValidationError
    assert err.value.info == {"missing": ["da"]}


def test_invariants_read_the_integral_off_one_flow(solves):
    # on SHO mu = 1 solves mu'' + mu = C0 / mu^3 with C0 = 1, and A = cos t
    # the linear-invariant equation; I = 0, so E = p^2 + x^2
    tc = coeff.builtin_coefficients(coeff.ModelSpec(coeff.SIMPLE_HARMONIC))
    flow = classical_flow(tc)
    assert solves == []  # nothing is solved until the flow is read
    mu_fn = lambda t: (1.0, 0.0, 0.0)
    A_fn = lambda t: (math.cos(t), -math.sin(t), -math.cos(t))
    for t in np.linspace(0.1, 2.0, 20):
        form = inv.general_invariant(flow, mu_fn, 1.0, float(t))
        assert (form.A, form.B, form.C, form.D) == (1.0, 1.0, 0.0, 0.0)
        lin = inv.linear_invariant(flow, A_fn, 0.2, float(t))
        assert lin.C == 0.2
        pair = inv.ladder_factorization(flow, mu_fn, 1.0, float(t))
        assert pair.omega_t == 2.0
    assert len(solves) == 1
