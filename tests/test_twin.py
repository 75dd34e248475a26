"""The moment layer and the energy path against their 40-digit twin
(``twin.py``), over drawn flow points M in Sp(2) with squeezes up to
e^{+-40}, I in [-745, 745], and states of two kinds: log-uniform widths
and means up to 1e+-150, and exact states, dyadic covariances about
integer means up to 2^22 whose raw moments are floats.  Every returned
number is within the twin's bound, or a typed refusal that the twin
allows: an overflow where the evaluation may overflow, a negative
variance where the float one may fall below the floor.  The exact states
have an exact centring, so the uncertainty columns are judged to the
rounding of their covariance alone: subtracting the means at t, which
rounds at the scale of the means squared, fails there."""

import contextlib
import csv
import io
import json
import math

import pytest
from hypothesis import assume, given, seed, settings
from hypothesis import strategies as st

import quadham
import twin
from quadham import dynamics as dyn
from quadham.coefficients import CALDIROLA_KANAI, ModelSpec
from quadham.cli import main
from quadham.errors import InvalidMoments, NumericalError, ValidationError
from helpers import dyadic_states


def points(i_low):
    """Drawn flow points with I in [i_low, 745]."""
    return st.builds(twin.draw_point, st.floats(-math.pi, math.pi),
                     st.floats(-40.0, 40.0), st.floats(-10.0, 10.0),
                     st.floats(i_low, 745.0))


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
