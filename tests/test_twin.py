"""The moment layer against its 40-digit twin (``twin.py``), over drawn
flow points M in Sp(2) with squeezes up to e^{+-40}, I in [-745, 745],
log-uniform widths and means up to 1e+-150.  Every returned number is
within the twin's bound, or a typed refusal that the twin allows: an
overflow where the evaluation may overflow, a negative variance where the
float one may fall below the floor."""

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
from quadham.cli import main
from quadham.errors import InvalidMoments, NumericalError, ValidationError

POINTS = st.builds(twin.draw_point, st.floats(-math.pi, math.pi),
                   st.floats(-40.0, 40.0), st.floats(-10.0, 10.0),
                   st.floats(-745.0, 745.0))
WIDTHS = st.floats(-30.0, 30.0).map(lambda u: 10.0 ** u)
MEANS = st.one_of(st.just(0.0), st.builds(
    lambda u, sign: sign * 10.0 ** u, st.floats(-150.0, 150.0),
    st.sampled_from([-1.0, 1.0])))
STATES = st.tuples(WIDTHS, WIDTHS, st.floats(-0.99, 0.99), MEANS, MEANS)


def raw_state(norm0, sx, sp, corr, xm, pm):
    """Raw (SecondMoments, FirstMoments) of centred widths sx, sp, their
    correlation and the means, at <1>_0 = norm0."""
    return (dyn.SecondMoments(norm0 * (sp * sp + pm * pm),
                              norm0 * (sx * sx + xm * xm),
                              2.0 * norm0 * (corr * sx * sp + xm * pm),
                              norm0),
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
@given(point=POINTS, state=STATES, k=st.integers(-200, 200))
def test_moment_readers_match_their_twin(point, state, k):
    norm0 = math.ldexp(1.0, k)
    m0, f0 = raw_state(norm0, *state)
    assume(all(map(math.isfinite, (*m0, *f0))))
    flow = twin.FlowStub(point)
    second = twin.second_moments(point, m0)
    first = twin.first_moments(point, f0, norm0)
    m = judge(lambda: dyn.evolve_second_moments(flow, m0)(1.0)[:3], second)
    fm = judge(lambda: dyn.evolve_first_moments(flow, f0, norm0)(1.0),
               first)
    judge(lambda: [dyn.evolve_norm(flow, norm0)(1.0)],
          [twin.norm(point, norm0)])
    if m is None or fm is None:
        return
    keys = ("dp2", "dx2", "margin", "excess")
    u = twin.uncertainty(second, first)
    judge(lambda: [dyn.uncertainty_check(dyn.SecondMoments(*m),
                                         dyn.FirstMoments(*fm))[key]
                   for key in keys],
          [u[key] for key in keys], variances=(u["dp2"], u["dx2"]))


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
                   lambda tc, t_end: twin.FlowStub(point))
        try:
            judge(lambda: _cli_row(["moments", *flags]),
                  twin.moments_row(point, m0))
            u = twin.uncertainty(twin.second_moments(point, m0),
                                 twin.first_moments(point, f0, 1.0))
            judge(lambda: _cli_row(["uncertainty", *flags, *means]),
                  twin.uncertainty_row(point, m0, f0),
                  variances=(u["dp2"], u["dx2"]))
        except ValidationError:
            # the command line refuses the rounded moments as no state's
            pass
