"""The moment layer, the energy path, the weighted forms of
``solve_energy_system``, ``general_invariant`` and ``linear_invariant``,
``kernel_parameters``, and ``green_eval`` and ``propagate_gaussian`` on
the kernel it returns, against their 40-digit twin (``twin.py``), over
drawn flow points M in Sp(2) with squeezes up to e^{+-40}, I in
[-745, 745], and states of two kinds: log-uniform widths and means up to
1e+-150, and exact states, dyadic covariances about integer means up to
2^22 whose raw moments are floats.  Every returned number is within the
twin's bound, or a typed refusal that the twin allows: an overflow where
the evaluation may overflow, a negative variance where the float one may
fall below the floor, the caustic band where the float band test may
hold.  The exact states have an exact centring, so the uncertainty
columns are judged to the rounding of their covariance alone:
subtracting the means at t, which rounds at the scale of the means
squared, fails there."""

import contextlib
import csv
import io
import json
import math

import pytest
from hypothesis import assume, example, given, reject, seed, settings
from hypothesis import strategies as st

import quadham
import twin
from quadham import dynamics as dyn, invariants as inv
from quadham.characteristic import MU_GUARD, FlowPoint, kernel_parameters
from quadham.cli import main
from quadham.coefficients import CALDIROLA_KANAI, ModelSpec, TimeCoefficients
from quadham.errors import (CausticEncountered, DegenerateWidth,
                            InvalidMoments, NumericalError, QuadhamError,
                            UnderResolved, ValidationError)
from quadham.propagator import (WIDTH_GUARD, GaussianState, green_eval,
                                propagate_gaussian)
from helpers import dyadic_states


def points(i_low, i_high=745.0):
    """Drawn flow points with I in [i_low, i_high]."""
    return st.builds(twin.draw_point, st.floats(-math.pi, math.pi),
                     st.floats(-40.0, 40.0), st.floats(-10.0, 10.0),
                     st.floats(i_low, i_high))


POINTS = points(-745.0)
WIDTHS = st.floats(-30.0, 30.0).map(lambda u: 10.0 ** u)
MEANS = st.one_of(st.just(0.0), st.builds(
    lambda u, sign: sign * 10.0 ** u, st.floats(-150.0, 150.0),
    st.sampled_from([-1.0, 1.0])))
STATES = st.one_of(
    st.builds(lambda sx, sp, corr, xm, pm: (
        sp * sp + pm * pm, sx * sx + xm * xm,
        2.0 * (corr * sx * sp + xm * pm), xm, pm),
        WIDTHS, WIDTHS, st.floats(-0.99, 0.99), MEANS, MEANS),
    dyadic_states(2 ** 22))
CK = ModelSpec(CALDIROLA_KANAI, 1.0, 0.3)


def raw_state(norm0, p2, x2, pxxp, xm, pm):
    """Raw (SecondMoments, FirstMoments) at <1>_0 = norm0 of the state
    with these moments at <1> = 1."""
    return (dyn.SecondMoments(norm0 * p2, norm0 * x2, norm0 * pxxp, norm0),
            dyn.FirstMoments(norm0 * xm, norm0 * pm))


def judge(read, twins, variances=()):
    """read()'s numbers against their twins; None where read refuses,
    which it may only with an overflow that the twin allows, or where the
    twin allows one of ``variances`` (per unit <1>) below -1e-12."""
    try:
        got = read()
    except InvalidMoments:
        assert min(w.v - twin.BOUND * w.e for w in variances) < -1e-12
        return None
    except NumericalError:
        assert twin.may_overflow(*twins)
        return None
    for g, w in zip(got, twins):
        w.check(g)
    return got


@seed(20261020)
@settings(max_examples=120, deadline=None, derandomize=True)
@given(point=st.one_of(POINTS, points(708.0)), state=STATES,
       k=st.integers(-200, 200))
@twin.at_40_digits
def test_moment_readers_match_their_twin(point, state, k):
    # a subnormal e^{-I} multiplies as two halves e^{-I/2}; few draws of I
    # over [-745, 745] come near it, so half draw I from [708, 745]
    norm0 = math.ldexp(1.0, k)
    m0, f0 = raw_state(norm0, *state)
    assume(all(map(math.isfinite, (*m0, *f0))))
    flow = twin.FlowStub(point)
    path = dyn.evolve_second_moments(flow, m0)
    judge(lambda: path(1.0)[0][:3], twin.second_moments(point, m0))
    fm0 = dyn.FirstMoments(*state[3:])
    judge(lambda: dyn.evolve_first_moments(flow, fm0)(1.0)[0],
          twin.first_moments(point, fm0))
    # <1> = raw(<1>_0) of the path's flow point
    judge(lambda: [path(1.0)[1](norm0)], [twin.norm(point, norm0)])
    centred = twin.second_moments(point, twin.centred(m0, f0))
    c = judge(lambda: dyn.evolve_second_moments(
        flow, m0.centred(f0))(1.0)[0][:3], centred)
    if c is None:
        return
    keys = ("dp2", "dx2", "margin", "excess")
    u = twin.uncertainty(centred)
    judge(lambda: [dyn.uncertainty_check(dyn.SecondMoments(*c))[key]
                   for key in keys],
          [u[key] for key in keys], variances=(u["dp2"], u["dx2"]))


@twin.at_40_digits
def test_a_raw_value_past_the_float_range_is_typed():
    # e^{-I} = e^600 is finite but <1>_0 e^{-I} = 2^200 e^600 is not: the
    # path's raw refuses it with the t it was read at, not returning inf
    point = twin.draw_point(0.0, 0.0, 0.0, -600.0)
    assert twin.may_overflow(twin.norm(point, 2.0 ** 200))
    raw = dyn.evolve_second_moments(
        twin.FlowStub(point), dyn.SecondMoments(1.0, 1.0))(1.0)[1]
    twin.norm(point, 2.0 ** -200).check(raw(2.0 ** -200))
    with pytest.raises(NumericalError) as err:
        raw(2.0 ** 200)
    assert err.value.info["t"] == 1.0


@seed(20261022)
@settings(max_examples=120, deadline=None, derandomize=True)
@given(point=st.one_of(POINTS, points(708.0)), state=STATES,
       k=st.integers(-200, 200))
@twin.at_40_digits
def test_energy_path_matches_its_twin(point, state, k):
    # a <1> = e^{-I} <1>_0 rounded into the subnormal range before it
    # meets moments up to 1e300 is off by up to 2^-1075 / <1>; few draws
    # of I over [-745, 745] come near it, so half draw I from [708, 745].
    # An E that overflows is refused, not returned as inf
    m0, _ = raw_state(math.ldexp(1.0, k), *state)
    assume(all(map(math.isfinite, m0)))
    energy = dyn.damped_energy_equation_solve(CK, m0, twin.FlowStub(point))
    judge(lambda: [energy(1.0)],
          [twin.energy(point, m0, dyn.reference_operator(CK, 1.0))])


@seed(20261023)
@settings(max_examples=150, deadline=None, derandomize=True)
@given(point=st.one_of(POINTS, points(-745.0, -705.0), points(705.0)),
       init=st.tuples(*[st.one_of(st.just(0.0), MEANS)] * 4))
@example(point=FlowPoint(1.5816407103081669, 1.4434652100397183,
                         -1.3209986508034899, -0.5733385521972055,
                         0.9419282717557427),
         init=(-6.059295515513293e307, -1.1948623671075607e306,
               -9.385291433926273e307, 1.859077474790154e307))
@twin.at_40_digits
def test_weighted_form_matches_its_twin(point, init):
    # e^I M^{-T} Q_0 M^{-1} of solve_energy_system, weighed as every value
    # times e^{+-I} is: a subnormal e^I multiplied in one step reads A up
    # to 100% off near I = -729, so a third of the draws take I within 40
    # of each edge.  A form past the float range is refused, naming t and
    # I; in the example e^I (M^{-T} Q_0 M^{-1})_12 and e^I (C0 - D0)/2 are
    # each finite, but C, their sum, is not, and the path returned -inf
    path = inv.solve_energy_system(twin.FlowStub(point), init)

    def read():
        try:
            return path(1.0)[:4]
        except NumericalError as err:
            assert err.info == {"t": 1.0, "I": point.i}
            raise

    judge(read, twin.energy_form(point, init))


@seed(20261055)
@settings(max_examples=150, deadline=None, derandomize=True)
@given(point=st.one_of(POINTS, points(-745.0, -705.0), points(705.0)),
       a=st.builds(lambda u, sign: sign * 10.0 ** u, st.one_of(
           st.floats(-160.0, 160.0), st.floats(154.0, 160.0)),
           st.sampled_from([-1.0, 1.0])),
       c=st.floats(-5.0, 5.0), d=st.floats(-5.0, 5.0),
       form=st.builds(lambda sa, sc, corr: (sa * sa, corr * sa * sc, sc * sc),
                      WIDTHS, WIDTHS, st.floats(-0.99, 0.99)))
@twin.at_40_digits
def test_lewis_riesenfeld_form_matches_its_twin(point, a, c, d, form):
    # e^I (s11, s22, -s12) of S = M S0 M^T, read off general_invariant's
    # one congruence and weighed as every value times e^{+-I} is, with a
    # third of the draws of I within 40 of each edge.  a(0) is drawn
    # log-uniformly up to 1e+-160, and half the draws past 1e154, where
    # k = 1 / 2a(0) has a subnormal square, which no value may pass
    # through.  A field past the float range is refused, naming t and I
    zero = lambda s: 0.0
    tc = TimeCoefficients(lambda s: a, zero, lambda s: c, lambda s: d)
    path = inv.general_invariant(twin.FlowStub(point, tc), *form)

    def read():
        try:
            return path(1.0)[:4]
        except NumericalError as err:
            assert err.info == {"t": 1.0, "I": point.i}
            raise

    judge(read, twin.lewis_riesenfeld_form(point, a, c, d, form))


@seed(20261052)
@settings(max_examples=150, deadline=None, derandomize=True)
@given(point=st.one_of(POINTS, points(-745.0, -705.0), points(705.0)),
       init=st.tuples(*[st.one_of(st.just(0.0), MEANS)] * 3))
@twin.at_40_digits
def test_linear_invariant_matches_its_twin(point, init):
    # (B, A) = e^I (B0, A0) M^{-1} and C = e^I C0 of linear_invariant,
    # weighed as every value times e^{+-I} is, with a third of the draws
    # of I within 40 of each edge, where e^I is subnormal or overflows.
    # A field past the float range is refused, naming t and I
    path = inv.linear_invariant(twin.FlowStub(point), init)

    def read():
        try:
            return path(1.0)[:3]
        except NumericalError as err:
            assert err.info == {"t": 1.0, "I": point.i}
            raise

    judge(read, twin.linear_form(point, init))


@seed(20261024)
@settings(max_examples=150, deadline=None, derandomize=True)
@given(point=st.one_of(POINTS, points(-745.0, -705.0), points(705.0)),
       a=st.builds(lambda u, sign: sign * 10.0 ** u, st.floats(-3.0, 3.0),
                   st.sampled_from([-1.0, 1.0])),
       c=st.floats(-5.0, 5.0), t=st.floats(1e-3, 10.0))
@example(point=FlowPoint(-7812620482.636647, -42250519715.56078,
                         7886011292.185185, 42647415974.97373,
                         680.0260926727374),
         a=96.96909696249828, c=3.554073270411509, t=4.0913317145717985)
@twin.at_40_digits
def test_kernel_parameters_match_their_twin(point, a, c, t):
    # a third of the draws take I within 40 of each edge, where e^I is
    # subnormal or overflows; kernel_parameters reads mu, mu' and h by one
    # weight and the quotients off M, or refuses the weight or the band.
    # A refusal must be one the twin allows: in the example mu' = 1.7e308
    # is finite, but t mu' overflowed and refused mu = 1.1e306 as caustic
    zero = lambda s: 0.0
    tc = TimeCoefficients(lambda s: a, zero, lambda s: c, zero)
    weighted = twin.kernel_weighted(point, a, c)
    try:
        got = kernel_parameters(tc, twin.FlowStub(point, tc), t)
    except CausticEncountered:
        assert twin.may_be_caustic(t, *weighted[:2], MU_GUARD)
        return
    except NumericalError as err:
        assert err.info == {"t": t, "I": point.i}
        assert twin.may_overflow(*weighted)
        return
    assert got.t == t
    for g, w in zip(got[1:], (*weighted, *twin.kernel_quotients(point))):
        w.check(g)


def _kernel(point, a, t):
    """kernel_parameters at t on a flow that is the drawn point, for
    H = a p^2 + px / 2; a draw it refuses is rejected."""
    zero = lambda s: 0.0
    tc = TimeCoefficients(lambda s: a, zero, lambda s: 0.5, zero)
    try:
        return kernel_parameters(tc, twin.FlowStub(point, tc), t)
    except QuadhamError:
        reject()


def _signed_log(low, high):
    """Floats sign * 10^u, u uniform on [low, high], or 0."""
    return st.one_of(st.just(0.0), st.builds(
        lambda u, sign: sign * 10.0 ** u, st.floats(low, high),
        st.sampled_from([-1.0, 1.0])))


KERNEL_POINTS = dict(point=POINTS, a=_signed_log(-3.0, 3.0).filter(bool),
                     t=st.floats(1e-3, 10.0))


@seed(20261057)
@settings(max_examples=150, deadline=None, derandomize=True)
@given(**KERNEL_POINTS, x=st.one_of(st.floats(-10.0, 10.0),
                                    _signed_log(-150.0, 150.0)),
       y=st.one_of(st.floats(-10.0, 10.0), _signed_log(-150.0, 150.0)))
@twin.at_40_digits
def test_green_eval_matches_its_twin(point, a, t, x, y):
    # G(x, y) within the twin's bound, or refused where the twin allows:
    # a phase of 2^29 rad and more, whose ulp is past 1e-7, or one that
    # may overflow
    kp = _kernel(point, a, t)
    g, e, phase, size = twin.green(kp, x, y)
    try:
        got = green_eval(kp, x, y)
    except UnderResolved:
        assert size * (1 + 8 * twin.EPS) >= 2 ** 29
        return
    except NumericalError:
        assert twin.may_overflow(phase)
        return
    assert abs(got - g) <= twin.BOUND * e, (got, g, e)


@seed(20261058)
@settings(max_examples=150, deadline=None, derandomize=True)
@given(**KERNEL_POINTS, width=st.floats(-75.0, 75.0).map(lambda u: 10.0 ** u),
       x0=_signed_log(-150.0, 150.0), p0=_signed_log(-150.0, 150.0),
       chirp=_signed_log(-150.0, 150.0), phi=st.complex_numbers(
           max_magnitude=10.0, allow_nan=False, allow_infinity=False))
@twin.at_40_digits
def test_propagate_gaussian_matches_its_twin(point, a, t, width, x0, p0,
                                             chirp, phi):
    # the Gaussian of width and means up to 1e+-150 propagated by the
    # kernel: each part of Lambda', Theta' and Phi' within the twin's
    # bound, or refused where the twin allows a width that cancels, an
    # overflow, or an Im Lambda' that may round to 0 or below
    kp = _kernel(point, a, t)
    li = 0.25 / (width * width)
    try:
        s = GaussianState(complex(chirp, li), complex(p0, -2.0 * li * x0),
                          phi)
    except ValidationError:
        reject()
    lam, theta, phi_out, A = twin.propagated(kp, s)
    try:
        out = propagate_gaussian(kp, s)
    except DegenerateWidth:
        assert abs(A.v) - A.e <= WIDTH_GUARD * abs(kp.gamma) * (
            1 + 4 * twin.EPS) + 4 * twin.EPS * abs(A.v)
        return
    except NumericalError:
        parts = (*lam.parts(), *theta.parts(), *phi_out.parts())
        assert (twin.may_overflow(*parts)
                or lam.im.v - twin.BOUND * lam.im.e <= 0)
        return
    for w, g in zip((*lam.parts(), *theta.parts(), *phi_out.parts()),
                    (out.Lambda.real, out.Lambda.imag, out.Theta.real,
                     out.Theta.imag, out.Phi.real, out.Phi.imag)):
        w.check(g)


def _cli_row(argv):
    """The numbers of the one row a CLI call prints; the typed error its
    record names where it exits 2 or 3."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    if code:
        kind = json.loads(err.getvalue())["type"]
        raise {"NumericalError": NumericalError,
               "InvalidMoments": InvalidMoments,
               "ValidationError": ValidationError}[kind](kind)
    return [float(v) for v in list(csv.reader(io.StringIO(
        out.getvalue())))[1][1:]]


@seed(20261021)
@settings(max_examples=60, deadline=None, derandomize=True)
@given(point=POINTS, state=STATES)
@twin.at_40_digits
def test_printed_moment_columns_match_their_twin(point, state):
    # <1>_0 = 1 on the command line, and the flow is the drawn point
    m0, f0 = raw_state(1.0, *state)
    assume(all(map(math.isfinite, (*m0, *f0))))
    flags = ["--model", "simple_harmonic", "--t-end", "1", "--samples", "1",
             "--p2", repr(m0.p2), "--x2", repr(m0.x2),
             "--pxxp", repr(m0.pxxp)]
    means = ["--x-mean", repr(f0.x), "--p-mean", repr(f0.p)]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(quadham.characteristic, "classical_flow",
                   lambda tc: twin.FlowStub(point))
        try:
            judge(lambda: _cli_row(["moments", *flags]),
                  twin.moments_row(point, m0))
            u = twin.uncertainty(twin.second_moments(
                point, twin.centred(m0, f0)))
            judge(lambda: _cli_row(["uncertainty", *flags, *means]),
                  twin.uncertainty_row(point, m0, f0),
                  variances=(u["dp2"], u["dx2"]))
        except ValidationError:
            # the command line refuses the rounded moments as no state's
            pass
