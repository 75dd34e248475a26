import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, reject, seed, settings
from hypothesis import strategies as st

from quadham import characteristic as chr_mod
from quadham import coefficients as coeff
from quadham import dynamics as dyn
from quadham import invariants as inv
from quadham import propagator as prop
from quadham.errors import (CausticEncountered, InvalidModelParams,
                            NumericalError, QuadhamError,
                            SingularCoefficient, ValidationError)
from helpers import first_zero

ALL_MODELS = [
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


def test_ck_mu_closed_form():
    # damped oscillator: mu = (omega0/omega) e^{-lambda t} sin(omega t)
    spec = coeff.ModelSpec(coeff.CALDIROLA_KANAI, omega0=1.0, lam=0.1)
    path = chr_mod.classical_flow(coeff.builtin_coefficients(spec))
    w = math.sqrt(0.99)
    expected = (1.0 / w) * math.exp(-0.1) * math.sin(w)
    assert path.mu(1.0)[0] == pytest.approx(expected, rel=1e-8)


def test_cj_mu_closed_form():
    # mu = sin(omega t) / (omega cosh(lambda t))
    spec = coeff.ModelSpec(coeff.CJ_COORDINATE, omega0=1.0, lam=0.2)
    w = math.sqrt(1.0 - 0.04)
    path = chr_mod.classical_flow(coeff.builtin_coefficients(spec))
    t = 0.8
    assert path.mu(t)[0] == pytest.approx(
        math.sin(w * t) / (w * math.cosh(0.2 * t)), rel=1e-8)


def test_cj_momentum_mu_closed_form():
    spec = coeff.ModelSpec(coeff.CJ_MOMENTUM, omega0=1.0, lam=0.2)
    w = math.sqrt(0.96)
    t = 0.6
    mu, mup = chr_mod.closed_form_mu(spec, t)
    expected = (0.2 * math.cos(w * t) * math.sinh(0.2 * t)
                + w * math.sin(w * t) * math.cosh(0.2 * t)) / 1.0
    assert mu == pytest.approx(expected, rel=1e-12)
    path = chr_mod.classical_flow(coeff.builtin_coefficients(spec))
    assert path.mu(t)[0] == pytest.approx(expected, rel=1e-8)


def test_parametric_mu_large_time_limit():
    # mu -> sin(omega t) tanh(delta) as t grows
    spec = coeff.ModelSpec(coeff.MODIFIED_PARAMETRIC, omega0=1.0, lam=0.6,
                           delta=0.4)
    t = 30.0
    mu, _ = chr_mod.closed_form_mu(spec, t)
    assert mu == pytest.approx(math.sin(t) * math.tanh(0.4), abs=1e-12)


def test_sech2_initial_data():
    spec = coeff.ModelSpec(coeff.PARAMETRIC_SECH2, omega0=1.0, lam=0.2)
    mu, mup = chr_mod.closed_form_mu(spec, 0.0)
    assert mu == 0.0
    assert mup == pytest.approx(1.0, rel=1e-14)


@pytest.mark.parametrize("spec", ALL_MODELS, ids=lambda s: s.model_id)
def test_initial_slope_is_2a0(spec):
    tc = coeff.builtin_coefficients(spec)
    path = chr_mod.classical_flow(tc)
    # mu(eps)/eps carries an O(eps) term; one Richardson step removes it
    eps = 1e-4
    f1 = path.mu(eps)[0] / eps
    f2 = path.mu(2 * eps)[0] / (2 * eps)
    assert 2 * f1 - f2 == pytest.approx(2.0 * tc.a(0.0), abs=1e-6)


def test_mu_and_the_kernel_read_one_flow_point(monkeypatch):
    # Flow.mu and kernel_parameters read (mu, mu') off one flow point with
    # one e^I, the pair that closed_form_mu returns
    tc = coeff.builtin_coefficients(coeff.ModelSpec(coeff.UNITED, 1.0, 0.3,
                                                    0.1))
    flow = chr_mod.classical_flow(tc)
    flow.at(1.0)
    assert flow.first_caustic is None
    calls = {"at": 0, "weight": 0}

    def counted(name, fn):
        def read(*args):
            calls[name] += 1
            return fn(*args)
        return read

    monkeypatch.setattr(flow, "at", counted("at", flow.at))
    monkeypatch.setattr(chr_mod, "_weight",
                        counted("weight", chr_mod._weight))
    mu = flow.mu(0.7)
    assert calls == {"at": 1, "weight": 1}
    kp = chr_mod.kernel_parameters(tc, flow, 0.7)
    assert calls == {"at": 2, "weight": 2}
    assert (kp.mu, kp.mu_prime) == mu


@pytest.mark.parametrize("spec", ALL_MODELS, ids=lambda s: s.model_id)
def test_mu_matches_closed_form_on_window(spec):
    tc = coeff.builtin_coefficients(spec)
    path = chr_mod.classical_flow(tc)
    for t in np.linspace(0.05, 1.3, 15):
        mu_ref, mup_ref = chr_mod.closed_form_mu(spec, float(t))
        mu, mup = path.mu(float(t))
        assert abs(mu - mu_ref) <= 1e-8 * max(1.0, abs(mu_ref))
        assert abs(mup - mup_ref) <= 1e-7 * max(1.0, abs(mup_ref))


@pytest.mark.parametrize("spec", ALL_MODELS, ids=lambda s: s.model_id)
def test_kernel_identities(spec):
    # beta mu + h = 0 and h(0+) -> 1
    tc = coeff.builtin_coefficients(spec)
    path = chr_mod.classical_flow(tc)
    for t in (0.3, 0.9):
        kp = chr_mod.kernel_parameters(tc, path, t)
        assert abs(kp.beta * kp.mu + kp.h) <= 1e-12 * max(1.0, abs(kp.h))
    # h = 1 + O(t) (united: e^{mu_param t}); one Richardson step removes it
    h1 = chr_mod.kernel_parameters(tc, path, 1e-6).h
    h2 = chr_mod.kernel_parameters(tc, path, 2e-6).h
    assert 2 * h1 - h2 == pytest.approx(1.0, abs=1e-10)


def test_simple_harmonic_quarter_period():
    spec = coeff.ModelSpec(coeff.SIMPLE_HARMONIC, omega0=1.0)
    tc = coeff.builtin_coefficients(spec)
    path = chr_mod.classical_flow(tc)
    kp = chr_mod.kernel_parameters(tc, path, math.pi / 4)
    assert kp.alpha == pytest.approx(0.5 / math.tan(math.pi / 4), rel=1e-8)
    assert kp.gamma == pytest.approx(kp.alpha, rel=1e-8)
    assert kp.beta == pytest.approx(-1.0 / math.sin(math.pi / 4), rel=1e-8)


def test_ck_kernel_vs_printed_forms():
    # alpha = e^{2 lambda t}(omega cos - lambda sin)/(2 omega0 sin), etc.
    w0, lam = 1.0, 0.1
    w = math.sqrt(w0 * w0 - lam * lam)
    spec = coeff.ModelSpec(coeff.CALDIROLA_KANAI, w0, lam)
    tc = coeff.builtin_coefficients(spec)
    path = chr_mod.classical_flow(tc)
    t = 0.5
    kp = chr_mod.kernel_parameters(tc, path, t)
    s, c = math.sin(w * t), math.cos(w * t)
    assert kp.alpha == pytest.approx(
        math.exp(2 * lam * t) * (w * c - lam * s) / (2 * w0 * s), rel=1e-8)
    assert kp.beta == pytest.approx(
        -w * math.exp(lam * t) / (w0 * s), rel=1e-8)
    assert kp.gamma == pytest.approx(
        (w * c + lam * s) / (2 * w0 * s), rel=1e-8)


def test_united_kernel_vs_printed_forms():
    w0, lam, mu_p = 1.0, 0.3, 0.1
    w = math.sqrt(w0 * w0 - (lam - mu_p) ** 2)
    spec = coeff.ModelSpec(coeff.UNITED, w0, lam, mu_p)
    tc = coeff.builtin_coefficients(spec)
    path = chr_mod.classical_flow(tc)
    t = 0.4
    kp = chr_mod.kernel_parameters(tc, path, t)
    ref = chr_mod.closed_form_kernel(spec, t)
    s, c = math.sin(w * t), math.cos(w * t)
    # independent check of the printed alpha
    alpha = math.exp(2 * lam * t) * (w * c + (mu_p - lam) * s) / (2 * w0 * s)
    assert ref.alpha == pytest.approx(alpha, rel=1e-13)
    for got, exp in ((kp.alpha, ref.alpha), (kp.beta, ref.beta),
                     (kp.gamma, ref.gamma)):
        assert got == pytest.approx(exp, rel=1e-8)


@pytest.mark.parametrize("spec", ALL_MODELS, ids=lambda s: s.model_id)
def test_assembled_kernel_matches_closed_form(spec):
    tc = coeff.builtin_coefficients(spec)
    path = chr_mod.classical_flow(tc)
    path.at(1.3)
    zero = first_zero(path)
    hi = 1.3 if zero is None else min(1.3, 0.9 * zero)
    for t in np.linspace(hi / 12, hi, 12):
        kp = chr_mod.kernel_parameters(tc, path, float(t))
        ref = chr_mod.closed_form_kernel(spec, float(t))
        for got, exp in ((kp.alpha, ref.alpha), (kp.beta, ref.beta),
                         (kp.gamma, ref.gamma), (kp.h, ref.h)):
            assert abs(got - exp) <= 1e-7 * max(1.0, abs(exp))


@pytest.mark.parametrize("spec", [
    coeff.ModelSpec(coeff.MODIFIED_OSCILLATOR),
    coeff.ModelSpec(coeff.MODIFIED_PARAMETRIC, 1.0, 0.2, delta=0.5)],
    ids=lambda s: s.model_id)
def test_equal_cross_terms_give_no_integral(spec):
    # c = d: I' = c - d vanishes at every node, so I is exactly 0 and
    # h = e^I exactly 1
    tc = coeff.builtin_coefficients(spec)
    flow = chr_mod.classical_flow(tc)
    flow.at(1.5)
    assert len(flow.steps) > 10
    assert all(p.i == 0.0 for p in flow.steps)
    for t in flow.t[1:]:
        assert chr_mod.kernel_parameters(tc, flow, t).h == 1.0


def test_gamma_internal_consistency():
    # gamma - d0/(2 a0) - a h^2/(mu mu') equals the quadrature tail
    spec = coeff.ModelSpec(coeff.MODIFIED_CK, 1.2, 0.3)
    tc = coeff.builtin_coefficients(spec)
    path = chr_mod.classical_flow(tc)
    t = 0.7
    kp = chr_mod.kernel_parameters(tc, path, t)
    lead = tc.a(t) * kp.h ** 2 / (kp.mu * kp.mu_prime) \
        + tc.d(0.0) / (2.0 * tc.a(0.0))
    ref = chr_mod.closed_form_kernel(spec, t)
    assert kp.gamma - lead == pytest.approx(ref.gamma - lead, rel=1e-7)


@pytest.mark.parametrize("spec, window, t", [
    # mu' = cos t vanishes at pi/2 < t < caustic at pi
    (coeff.ModelSpec(coeff.SIMPLE_HARMONIC, 1.0), 2.8, 2.5),
    # just before the first zero of mu'
    (coeff.ModelSpec(coeff.MODIFIED_CK, 1.0213919810479364,
                     0.24377316384078287),
     2.31139985098099, 0.58 * 2.31139985098099),
], ids=["simple_harmonic", "modified_ck_turning_band"])
def test_gamma_continues_past_mu_prime_zero(spec, window, t):
    # gamma must match the closed form past a zero of mu' and just before
    # one, where a form of gamma weighted by 1/mu'^2 loses its accuracy
    tc = coeff.builtin_coefficients(spec)
    path = chr_mod.classical_flow(tc)
    kp = chr_mod.kernel_parameters(tc, path, t)
    ref = chr_mod.closed_form_kernel(spec, t)
    # gamma is 4e-5 in the second case: an absolute floor at the solver
    # tolerance (1e-10) keeps the test to what a 1e-10 solve can resolve
    assert kp.gamma == pytest.approx(ref.gamma, rel=1e-7, abs=1e-10)
    assert kp.alpha == pytest.approx(ref.alpha, rel=1e-7, abs=1e-10)


def test_caustic_is_detected():
    # mu = sin t: the first caustic is the flow step that holds pi, and a
    # kernel past pi is refused with that step as its bracket, also at 7,
    # where mu has its sign before pi again
    spec = coeff.ModelSpec(coeff.SIMPLE_HARMONIC, 1.0)
    tc = coeff.builtin_coefficients(spec)
    path = chr_mod.classical_flow(tc)
    path.at(4.0)
    lo, hi = path.first_caustic
    assert lo < math.pi < hi
    assert path.t[path.t.index(lo) + 1] == hi
    for t in (3.5, 7.0):
        with pytest.raises(CausticEncountered) as exc:
            chr_mod.kernel_parameters(tc, path, t)
        assert exc.value.info == {"bracket": (lo, hi)}
    # the zero at -pi of a flow read backwards is not the kernel's caustic
    backward = chr_mod.classical_flow(tc)
    backward.at(-5.0)
    assert backward.first_caustic is None


def test_a_zero_m12_before_it_takes_a_sign_is_no_caustic():
    # SHO in the length unit s = 1e-85: a = s^2 / 2, b = 1 / (2 s^2).  The
    # first steps are about 1e-170 long, so M12 = s^2 sin t underflows to
    # 0 at their ends; that zero reported the step (1e-170, 1.1e-169) and
    # refused t = 3.  The kernel is the unit-scaled one, alpha, beta and
    # gamma times 1 / s^2, and a t past pi is refused with the step that
    # holds it: the signs of M12 are compared, since the product of two
    # values near 1e-170 underflows to 0
    s = 1e-85
    tc = coeff.TimeCoefficients(lambda t: 0.5 * s * s,
                                lambda t: 0.5 / (s * s),
                                lambda t: 0.0, lambda t: 0.0)
    flow = chr_mod.classical_flow(tc)
    assert flow.at(1e-169).m12 == 0.0
    got = chr_mod.kernel_parameters(tc, flow, 3.0)
    want = chr_mod.closed_form_kernel(
        coeff.ModelSpec(coeff.SIMPLE_HARMONIC, 1.0), 3.0)
    pairs = ((got.alpha * s * s, want.alpha), (got.beta * s * s, want.beta),
             (got.gamma * s * s, want.gamma), (got.mu / (s * s), want.mu),
             (got.mu_prime / (s * s), want.mu_prime), (got.h, want.h))
    for g, w in pairs:
        assert abs(g - w) <= 1e-7 * abs(w)
    with pytest.raises(CausticEncountered) as exc:
        chr_mod.kernel_parameters(tc, flow, 3.5)
    lo, hi = exc.value.info["bracket"]
    assert lo < math.pi < hi
    assert flow.first_caustic == (lo, hi)


def _forward_count(tc, t_end):
    """The forward step points of H's flow read to t_end, their counts of
    zeros of M12 and their angles phi."""
    flow = chr_mod.classical_flow(tc)
    flow.at(t_end)
    side = flow._sides[1.0]
    return side.t, side.count(), side.phi


def _zeros_before(omega, times):
    """floor(omega t / pi) at each t, at 30 digits: the count of zeros of
    sin(omega t) on (0, t)."""
    with mpmath.workdps(30):
        w = mpmath.mpf(omega)
        return [int(mpmath.floor(w * mpmath.mpf(t) / mpmath.pi))
                for t in times]


@pytest.mark.parametrize("omega0, lam, t_end, zeros", [
    (30.0, 0.0, 40.0, 381), (1.3, 0.35, 20.0, 7)],
    ids=["simple_harmonic", "caldirola_kanai"])
def test_the_count_of_zeros_matches_the_closed_form(omega0, lam, t_end,
                                                    zeros):
    # mu = sin(omega0 t) and e^{-lam t} sin(omega t) omega0 / omega, whose
    # zeros are j pi / omega: the count is floor(omega t / pi) at every
    # step point, 381 of them to t = 40 over more than 800 steps
    model = coeff.SIMPLE_HARMONIC if lam == 0.0 else coeff.CALDIROLA_KANAI
    tc = coeff.builtin_coefficients(coeff.ModelSpec(model, omega0, lam))
    t, n, _ = _forward_count(tc, t_end)
    with mpmath.workdps(30):
        omega = mpmath.sqrt(mpmath.mpf(omega0) ** 2 - mpmath.mpf(lam) ** 2)
        assert n == _zeros_before(omega, t)
    assert n[-1] >= zeros


@pytest.mark.parametrize("s", [1e40, 1e-40, 1e85, 1e-85])
def test_the_count_of_zeros_does_not_depend_on_the_length_unit(s):
    # the oscillator in the length unit s, a = s^2 / 2 and b = 1 / (2 s^2),
    # counts floor(t / pi) at every step point, 3 to t = 10, with each
    # step's turn of phi below pi; at s = 1e-85 M12 underflows to 0 on the
    # first steps, before k is fixed
    zero = lambda t: 0.0
    tc = coeff.TimeCoefficients(lambda t: 0.5 * s * s, lambda t: 0.5 / (s * s),
                                zero, zero)
    t, n, phi = _forward_count(tc, 10.0)
    assert n == _zeros_before(1, t)
    assert n[-1] == 3
    assert max(abs(b - a) for a, b in zip(phi, phi[1:])) < math.pi


def test_the_count_is_signed_where_the_angle_turns_back():
    # a = cos(t / 3) / 2 changes sign at 3 pi / 2, and the angle of the
    # flow turns back across pi: its sector m goes 0 -> 1 -> 0 over the 316
    # steps to t = 12, where an unsigned count of zeros read 2.  The kernel
    # is served before the first caustic and refused past it with that
    # step as the bracket, also where m is 0 again
    zero = lambda t: 0.0
    tc = coeff.TimeCoefficients(lambda t: 0.5 * math.cos(t / 3.0),
                                lambda t: 0.5, zero, zero)
    flow = chr_mod.classical_flow(tc)
    flow.at(12.0)
    m = flow._sides[1.0].count()
    assert len(m) == 317
    assert [b for a, b in zip(m, m[1:]) if b != a] == [1, 0]
    assert chr_mod.kernel_parameters(tc, flow, 3.0).mu == 0.40354985056611364
    for t in (3.9, 6.0, 12.0):
        with pytest.raises(CausticEncountered) as exc:
            chr_mod.kernel_parameters(tc, flow, t)
        assert exc.value.info == {
            "bracket": (3.780009967739317, 3.820213185202105)}


def test_a_subnormal_a_keeps_the_count_finite():
    # a = 1e-320 and b = 1: M12 ~ 2a t is subnormal, so |t| / M12
    # overflows; k is capped, so that k times the zero M12 at t = 0 stays
    # 0, the count reads no zero and the kernel is served
    zero = lambda t: 0.0
    tc = coeff.TimeCoefficients(lambda t: 1e-320, lambda t: 1.0, zero, zero)
    flow = chr_mod.classical_flow(tc)
    assert chr_mod.kernel_parameters(tc, flow, 3.0).mu == pytest.approx(
        6e-320, rel=1e-3)
    assert flow.first_caustic is None
    assert set(flow._sides[1.0].count()) == {0}


@pytest.mark.parametrize("t", [0.0, -0.5, math.pi],
                         ids=["zero", "negative", "caustic"])
@pytest.mark.parametrize("numerical", [True, False],
                         ids=["flow", "closed_form"])
def test_kernels_refuse_t_at_zero_before_it_and_at_a_caustic(numerical, t):
    # the kernel is singular at t = 0, is not served before it, and mu of
    # SHO is inside the guard band at pi
    spec = coeff.ModelSpec(coeff.SIMPLE_HARMONIC, 1.0)
    tc = coeff.builtin_coefficients(spec)
    path = chr_mod.classical_flow(tc)
    with pytest.raises(CausticEncountered):
        if numerical:
            chr_mod.kernel_parameters(tc, path, t)
        else:
            chr_mod.closed_form_kernel(spec, t)


@pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf],
                         ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("numerical", [True, False],
                         ids=["flow", "closed_form"])
def test_kernels_refuse_a_time_that_is_not_finite(numerical, t, solves):
    # a t that is not finite is invalid, not a caustic at t <= 0, and is
    # refused before any solve
    spec = coeff.ModelSpec(coeff.SIMPLE_HARMONIC, 1.0)
    tc = coeff.builtin_coefficients(spec)
    with pytest.raises(ValidationError) as exc:
        if numerical:
            chr_mod.kernel_parameters(tc, chr_mod.classical_flow(tc), t)
        else:
            chr_mod.closed_form_kernel(spec, t)
    assert list(exc.value.info) == ["t"]
    assert solves == []


def _closed_form_zero(spec):
    """The first zero of closed_form_mu, from a scan by 0.01 on (0, 10]
    bisected to the ulp: the first float past it."""
    sign = math.copysign(1.0, chr_mod.closed_form_mu(spec, 1e-3)[0])

    def before(t):
        return sign * chr_mod.closed_form_mu(spec, t)[0] > 0.0

    lo = 1e-3
    while before(lo + 0.01):
        lo += 0.01
        assert lo <= 10.0
    hi = lo + 0.01
    while lo < 0.5 * (lo + hi) < hi:
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if before(mid) else (lo, mid)
    return hi


@pytest.mark.parametrize("spec", ALL_MODELS[:-1], ids=lambda s: s.model_id)
def test_no_kernel_is_served_past_the_first_zero(spec):
    # at z (1 -+ 10^-k), k = 6 ... 9, about the first zero z of the printed
    # mu (every model but the free particle has one before t = 10):
    # nothing past z is served, and what is served is the closed form's to
    # criterion 1's 1e-7, on a flow read first to t and on one read first
    # to 2 z
    zero = _closed_form_zero(spec)
    tc = coeff.builtin_coefficients(spec)
    served = 0
    for k in range(6, 10):
        for t in (zero * (1.0 - 10.0 ** -k), zero * (1.0 + 10.0 ** -k)):
            for first in (t, 2.0 * zero):
                flow = chr_mod.classical_flow(tc)
                flow.at(first)
                try:
                    kp = chr_mod.kernel_parameters(tc, flow, t)
                except CausticEncountered:
                    continue
                assert t < zero, (k, first)
                ref = chr_mod.closed_form_kernel(spec, t)
                for got, want in zip(kp, ref):
                    assert abs(got - want) <= 1e-7 * max(1.0, abs(want))
                served += 1
    assert served >= 2


def test_kernel_past_solved_window_is_refused():
    # a flow solved to 2 would extrapolate to mu(3.5) = -0.3117 (exact
    # sin 3.5 = -0.3508) without seeing the caustic at pi; the read
    # continues the solve instead, and the caustic refuses it
    tc = coeff.builtin_coefficients(coeff.ModelSpec(coeff.SIMPLE_HARMONIC,
                                                    1.0))
    path = chr_mod.classical_flow(tc)
    path.at(2.0)
    with pytest.raises(CausticEncountered) as exc:
        chr_mod.kernel_parameters(tc, path, 3.5)
    assert set(exc.value.info) == {"bracket"}
    kp = chr_mod.kernel_parameters(tc, path, 2.0)
    assert kp.mu == pytest.approx(math.sin(2.0), rel=1e-8)


@pytest.mark.parametrize("spec, t_end, error", [
    (coeff.ModelSpec(coeff.SIMPLE_HARMONIC, 1.0), 0.0, ValidationError),
    (coeff.ModelSpec(coeff.SIMPLE_HARMONIC, 1.0), -0.5, ValidationError),
    (coeff.ModelSpec(coeff.MODIFIED_OSCILLATOR), math.pi / 2,
     SingularCoefficient),
    (coeff.ModelSpec(coeff.MODIFIED_OSCILLATOR), 2.0, SingularCoefficient),
], ids=["zero", "negative", "t_max", "past_t_max"])
def test_solve_characteristic_refuses_what_the_cli_refuses(spec, t_end,
                                                           error, solves):
    # the CLI's solve: a window that is not positive, or that reaches the
    # record's stated limit t_max (pi/2 for the modified oscillator), is
    # refused before any flow is solved
    with pytest.raises(error):
        chr_mod.solve_characteristic(coeff.builtin_coefficients(spec), t_end)
    assert solves == []


def test_first_caustic_keeps_its_bits():
    # the solve, the dense output and the scan together fix these floats;
    # a change to any of them that moves a caustic shows here
    tc = coeff.builtin_coefficients(coeff.ModelSpec(coeff.SIMPLE_HARMONIC,
                                                    1.2))
    flow = chr_mod.classical_flow(tc)
    flow.at(5.0)
    caustic = flow.first_caustic
    assert [t.hex() for t in caustic] == ["0x1.f3307325a1b5cp+0",
                                          "0x1.90641d8c69e97p+1"]


def _scan_first_caustic(grid, mu):
    # reference: the first index i >= 1 with mu[i] == 0 or a sign change
    # to mu[i + 1]
    for i in range(1, len(mu) - 1):
        if mu[i] == 0.0 or mu[i] * mu[i + 1] < 0.0:
            return (float(grid[i]), float(grid[i + 1]))
    return None


class _StubFlow(chr_mod.Flow):
    """Rows (1, mu, 0, 1, 0), of det M = 1, at the step points 0, 1, 2,
    ..., linear in between, in place of a solve."""

    def __init__(self, mu):
        super().__init__(coeff.builtin_coefficients(ALL_MODELS[8]))
        forward = self._sides[1.0]
        forward.t = [float(k) for k in range(len(mu))]
        forward.steps = [chr_mod.FlowPoint(1.0, float(m), 0.0, 1.0, 0.0)
                         for m in mu]
        self.mu = mu

    def at(self, t):
        return chr_mod.FlowPoint(1.0, float(np.interp(t, self.t, self.mu)),
                                 0.0, 1.0, 0.0)


@pytest.mark.parametrize("mu", [
    [0.0, 1.0, 0.0, -1.0, 2.0],
    [0.0, -1.0, -2.0, 3.0, 1.0],
    [0.0, 1.0, 2.0, 3.0, -1.0],
    [0.0, 1.0, 2.0, 3.0, 0.0],
    [1.0, -1.0, -2.0, -3.0, -4.0],
])
def test_first_caustic_matches_scan(mu):
    # exactly the scan's step, on every prefix of the steps: the search
    # resumes where the last read of a shorter flow stopped
    flow = _StubFlow(mu)
    forward = flow._sides[1.0]
    t, steps = forward.t, forward.steps
    for n in range(1, len(mu) + 1):
        forward.t, forward.steps = t[:n], steps[:n]
        assert flow.first_caustic == _scan_first_caustic(t[:n], mu[:n])


@pytest.mark.parametrize("mu", [
    [0.0, -1.0, -2.0, 3.0, 1.0],
    [0.0, 1.0, 2.0, 3.0, -1.0],
    # mu regains its sign at the last step point: refused past the step
    [0.0, -1.0, -2.0, 3.0, -2.0],
])
def test_kernel_refuses_past_the_zero_inside_its_step(mu):
    # on the step that holds the first caustic, a t before the zero of the
    # interpolated mu is served and a t after it is refused, as is every t
    # past the step, with the step as the bracket
    flow = _StubFlow(mu)
    lo, hi = flow.first_caustic
    k = int(lo)
    zero = k + mu[k] / (mu[k] - mu[k + 1])
    assert lo < zero < hi
    for t in (0.5 * (lo + zero), zero - 1e-6):
        kp = chr_mod.kernel_parameters(flow.tc, flow, t)
        assert kp.mu == np.interp(t, flow.t, mu)
    for t in (zero + 1e-6, 0.5 * (zero + hi), hi, hi + 0.8):
        with pytest.raises(CausticEncountered) as exc:
            chr_mod.kernel_parameters(flow.tc, flow, t)
        assert exc.value.info == {"bracket": (lo, hi)}


def test_cj_pure_damping_limit():
    # vanishing restoring force leaves a damped free particle whose
    # characteristic is tanh(lambda t)/lambda, not an oscillatory form
    lam, t = 0.4, 0.7
    zero = lambda s: 0.0
    tc = coeff.TimeCoefficients(
        a=lambda s: 0.5 / math.cosh(lam * s) ** 2,
        b=zero, c=zero, d=zero,
        da=lambda s: -lam * math.tanh(lam * s) / math.cosh(lam * s) ** 2,
        dc=zero, dd=zero)
    path = chr_mod.classical_flow(tc)
    kp = chr_mod.kernel_parameters(tc, path, t)
    mu_pure = math.tanh(lam * t) / lam
    assert kp.mu == pytest.approx(mu_pure, rel=1e-8)
    assert kp.beta == pytest.approx(-1.0 / mu_pure, rel=1e-8)


@pytest.mark.parametrize("mu_param", [300.0, -300.0])
def test_an_overflowing_flow_weight_is_typed(mu_param):
    # united has I = mu_param t, so e^{+I} (mu, mu', the energy path) or
    # e^{-I} (<1>) overflows at t = 3; each was a bare OverflowError.  The
    # moment paths work per unit <1> and serve there
    spec = coeff.ModelSpec(coeff.UNITED, 400.0, 0.3, mu_param)
    flow = chr_mod.classical_flow(coeff.builtin_coefficients(spec))
    paths = (dyn.evolve_first_moments(flow, dyn.FirstMoments(1.0, 0.0)),
             dyn.evolve_second_moments(flow, dyn.SecondMoments(1.0, 1.0)))
    # <1> through the second-moment path's raw
    reads = ([flow.mu,
              inv.solve_energy_system(flow, (1.0, 1.0, 0.0, 0.0))]
             if mu_param > 0 else [lambda t: paths[1](t)[1](1.0)])
    for path in paths:
        assert all(map(math.isfinite, path(3.0)[0]))
    for read in reads:
        read(0.1)  # served where |I| = 30
        with pytest.raises(NumericalError) as err:
            read(3.0)
        assert err.value.info["t"] == 3.0
        assert err.value.info["I"] == pytest.approx(3.0 * mu_param)


def test_the_caustic_band_does_not_depend_on_the_window():
    # united at omega0 = 400, mu_param = 300: |mu| grows as e^I, I = 300 t.
    # The band of kernel_parameters was scaled by the largest |mu| of the
    # solved window, so at t = 0.005 a flow to t = 3 raised the weight's
    # NumericalError (at t = 2.37, I = 709.8) where a flow to t = 0.01
    # served the kernel; every reader now refuses by t, mu and mu' alone
    spec = coeff.ModelSpec(coeff.UNITED, 400.0, 0.3, 300.0)
    tc = coeff.builtin_coefficients(spec)
    ref = chr_mod.closed_form_kernel(spec, 0.005)
    for t_end in (0.01, 3.0):
        flow = chr_mod.classical_flow(tc)
        flow.at(t_end)
        kp = chr_mod.kernel_parameters(tc, flow, 0.005)
        for got, want in zip(kp, ref):
            assert abs(got - want) <= 1e-7 * max(1.0, abs(want)), t_end


@pytest.mark.parametrize("t_end", [4.0, 20.0])
def test_a_kernel_by_a_caustic_does_not_depend_on_the_window(t_end):
    # SHO 1e-6 before its caustic at pi: the bracket's pad was
    # sqrt(FLOW_TOL) |t_end|, 4e-7 on a flow to 4 and 2e-6 on one to 20,
    # so the one served the kernel and the other refused it
    spec = coeff.ModelSpec(coeff.SIMPLE_HARMONIC, 1.0)
    tc = coeff.builtin_coefficients(spec)
    t = math.pi - 1e-6
    flow = chr_mod.classical_flow(tc)
    flow.at(t_end)
    kp = chr_mod.kernel_parameters(tc, flow, t)
    ref = chr_mod.closed_form_kernel(spec, t)
    for got, want in zip(kp[4:], ref[4:]):
        assert abs(got - want) <= 1e-7 * max(1.0, abs(want))


@pytest.mark.parametrize("first", [None, 5.0], ids=["to_t", "to_5"])
def test_a_kernel_in_the_band_before_a_caustic_gets_the_band_record(first):
    # SHO at pi (1 - 5e-8), inside the band before the zero of mu: a flow
    # read to 5 first found the caustic, whose bracket, padded by
    # sqrt(FLOW_TOL) t, covers t, and refused it as a sign change before t
    tc = coeff.builtin_coefficients(coeff.ModelSpec(coeff.SIMPLE_HARMONIC,
                                                    1.0))
    t = math.pi * (1.0 - 5e-8)
    flow = chr_mod.classical_flow(tc)
    if first is not None:
        flow.at(first)
        assert flow.first_caustic[0] < t
    with pytest.raises(CausticEncountered) as exc:
        chr_mod.kernel_parameters(tc, flow, t)
    assert set(exc.value.info) == {"t", "mu", "mu_prime"}


def test_a_kernel_in_small_units_is_served():
    # a free particle with a = 5e-13 (a = 1/2 in a length unit 1e-6 times
    # as long) has no caustic, but mu = 2 a t = 1e-11 fell inside the
    # absolute band |mu| < 1e-10 at t = 10
    zero = lambda t: 0.0
    tc = coeff.TimeCoefficients(lambda t: 5e-13, zero, zero, zero)
    kp = chr_mod.kernel_parameters(tc, chr_mod.classical_flow(tc), 10.0)
    assert kp.mu == pytest.approx(1e-11, rel=1e-14)
    assert kp.beta == pytest.approx(-1e11, rel=1e-14)


def _rescaled(tc, s, tau):
    """H's record in a length unit 1/s and a time unit 1/tau times the old:
    (s^2 a, b / s^2, c, d) read at t / tau and divided by tau."""
    def stretched(f, k):
        return lambda t: k * f(t / tau)

    return coeff.TimeCoefficients(
        stretched(tc.a, s * s / tau), stretched(tc.b, 1.0 / (s * s * tau)),
        stretched(tc.c, 1.0 / tau), stretched(tc.d, 1.0 / tau),
        t_singular=tau * tc.t_singular)


def _reads(tc, t_end, times, s):
    """At each t, kernel_parameters on H's flow to t_end, and green_eval,
    propagate_gaussian and propagate_grid on the flow's kernel assembled
    without that reader's guard, for points, states and grids of length
    scale s: each reader's result, or the type of the QuadhamError it
    raises."""
    def outcome(read, *args):
        try:
            return read(*args)
        except QuadhamError as exc:
            return type(exc)

    flow = chr_mod.classical_flow(tc)
    state = prop.GaussianState(complex(0.1, 0.6) / s ** 2,
                               complex(0.2, -0.1) / s)
    x = np.linspace(-4.0, 4.0, 256)
    grid = prop.GridState(-4.0 * s, 8.0 * s / 255, np.exp(-2.0 * x * x))
    readers = (lambda kp: prop.green_eval(kp, 0.3 * s, -0.2 * s),
               lambda kp: prop.propagate_gaussian(kp, state),
               lambda kp: prop.propagate_grid(kp, grid))
    out = []
    for t in times:
        p = flow.at(t)
        # h = 1: no reader reads it
        bare = chr_mod.KernelParameters(
            t, *flow.mu(t), 1.0, p.m22 / (2.0 * p.m12),
            -1.0 / p.m12, p.m11 / (2.0 * p.m12))
        out.append([outcome(chr_mod.kernel_parameters, tc, flow, t),
                    *(outcome(read, bare) for read in readers)])
    return out


@seed(41)
@settings(max_examples=40, deadline=None, derandomize=True)
@given(model_id=st.sampled_from(coeff.MODEL_IDS),
       omega0=st.floats(0.5, 2.0), lam=st.floats(0.0, 0.6),
       mu_param=st.floats(0.0, 0.3), delta=st.floats(0.2, 1.5),
       t_end=st.floats(0.5, 5.0),
       fractions=st.lists(st.floats(0.02, 1.0), min_size=3, max_size=3),
       k=st.integers(-20, 20), j=st.integers(-6, 6))
def test_the_kernel_readers_do_not_depend_on_the_units(
        model_id, omega0, lam, mu_param, delta, t_end, fractions, k, j):
    # under x -> s x and t -> tau t every reader refuses alike at
    # corresponding times, and a served kernel maps by formula: mu -> s^2
    # mu, mu' -> s^2 mu' / tau, alpha, beta, gamma -> (.) / s^2, h -> h.
    # The bits differ, since the step controller's |M| mixes the scales.
    # The absolute band |mu| < 1e-10 refused Caldirola-Kanai at s = 2^-20
    try:
        spec = coeff.ModelSpec(model_id, omega0, lam, mu_param, delta)
    except InvalidModelParams:
        reject()
    tc = coeff.builtin_coefficients(spec)
    if math.isfinite(tc.t_singular):
        t_end = min(t_end, 0.9 * tc.t_singular)
    s, tau = 2.0 ** k, 2.0 ** j
    times = [u * t_end for u in fractions]
    flow = chr_mod.classical_flow(tc)
    flow.at(t_end)
    zero = first_zero(flow)
    if zero is not None:
        # inside the band, where mu is not yet 0
        times.append(zero * (1.0 - 1e-9))
    plain = _reads(tc, t_end, times, 1.0)
    scaled = _reads(_rescaled(tc, s, tau), tau * t_end,
                    [tau * t for t in times], s)
    def refusals(row):
        return [r if isinstance(r, type) else None for r in row]

    for t, got, want in zip(times, scaled, plain):
        assert refusals(got) == refusals(want), t
        kp, ref = got[0], want[0]
        near = zero is not None and t > 0.9 * zero
        if isinstance(ref, type) or near:
            continue
        # mu' against |mu'| + |mu / t|, as it may pass through 0, and the
        # kernel's three coefficients against the largest of them
        scale = max(map(abs, ref[4:]))
        for got_v, want_v, unit, size in (
                (kp.mu, ref.mu, s * s, abs(ref.mu)),
                (kp.mu_prime, ref.mu_prime, s * s / tau,
                 abs(ref.mu_prime) + abs(ref.mu / t)),
                (kp.h, ref.h, 1.0, ref.h),
                (kp.alpha, ref.alpha, 1 / (s * s), scale),
                (kp.beta, ref.beta, 1 / (s * s), scale),
                (kp.gamma, ref.gamma, 1 / (s * s), scale)):
            assert abs(got_v / unit - want_v) <= 1e-12 * size, t
