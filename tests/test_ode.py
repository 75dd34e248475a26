import dataclasses
import math
import time

import numpy as np
import pytest
from scipy.integrate import solve_ivp as scipy_solve_ivp

from quadham import coefficients as coeff
from quadham import dynamics as dyn
from quadham.characteristic import classical_flow
from quadham.errors import SingularCoefficient, ToleranceNotMet
from quadham.ode import FLOW_TOL, MAX_STEPS, FlowPoint, Side, solve_ivp

# the reference: scipy's DOP853 far below the flow's own error
REF_OPTS = dict(method="DOP853", rtol=1e-13, atol=1e-15, dense_output=True)


def _flow_rhs(tc):
    a, b, c, d = tc.a, tc.b, tc.c, tc.d

    def rhs(t, y):
        # M' = [[s, 2a], [-2b, -s]] M and I' = 2 c - s, s = c + d: the
        # equation form's (c_eq, d_eq) = (c + d, c)
        two_a, two_b, c_t = 2 * a(t), 2 * b(t), c(t)
        s = c_t + d(t)
        return [two_a * y[2] + s * y[0], two_a * y[3] + s * y[1],
                -two_b * y[0] - s * y[2], -two_b * y[1] - s * y[3],
                2 * c_t - s]

    return rhs


def _second_moments():
    spec = coeff.ModelSpec(coeff.MODIFIED_CK, 1.1, 0.3)
    tc = coeff.builtin_coefficients(spec)

    def rhs(t, y):
        # the raw second moments <p^2>, <x^2>, <px+xp> and the norm <1>
        a, b, c, d = tc.a(t), tc.b(t), tc.c(t), tc.d(t)
        p2, x2, pxxp, norm = y
        return [(-3.0 * c - d) * p2 - 2.0 * b * pxxp,
                (c + 3.0 * d) * x2 + 2.0 * a * pxxp,
                4.0 * a * p2 - 4.0 * b * x2 + (d - c) * pxxp,
                (d - c) * norm]

    y0 = [0.8, 0.7, 0.1, 1.0]
    flow = classical_flow(tc)
    flow.at(3.0)
    path = dyn.evolve_second_moments(flow, dyn.SecondMoments(*y0))

    def got(t):
        m = path(t)[0]
        return [m.p2, m.x2, m.pxxp, m.norm]

    return flow, got, scipy_solve_ivp(rhs, (0.0, 3.0), y0, **REF_OPTS)


def _characteristic():
    spec = coeff.ModelSpec(coeff.UNITED, 1.3, 0.35, 0.1)
    tc = coeff.builtin_coefficients(spec)
    flow = classical_flow(tc)
    flow.at(4.0)
    return flow, flow.at, scipy_solve_ivp(
        _flow_rhs(tc), (0.0, 4.0), [1.0, 0.0, 0.0, 1.0, 0.0], **REF_OPTS)


SYSTEMS = pytest.mark.parametrize(
    "system", [_second_moments, _characteristic],
    ids=["modified_ck_moments", "united_characteristic"])


@SYSTEMS
def test_dense_output_matches_scipy_dop853(system):
    flow, got, ref = system()
    assert ref.success, ref.message
    # the step points in the reference's window, and times between them
    inner = np.linspace(0.0, ref.t[-1], 52)[1:-1]
    for ts in ([t for t in flow.t if t <= ref.t[-1]], inner):
        for t in ts:
            want = ref.sol(t)
            assert np.all(np.abs(np.array(got(t)) - want)
                          <= 1e-12 * np.maximum(1.0, np.abs(want)))


@SYSTEMS
def test_work_counts(system):
    flow = system()[0]
    assert flow.n_steps == len(flow.t) - 1 == len(flow.steps) - 1
    # an attempted step reads (a, b, c, d) at 3 Gauss nodes for the whole
    # step and at 3 for each half, and the side read them once at t = 0 to
    # size its first try; the dense output is not counted
    assert flow.nfev == 9 * (flow.n_steps + flow.n_rejected) + 1
    flow.at(0.5 * flow.t[-1])
    assert flow.nfev == 9 * (flow.n_steps + flow.n_rejected) + 1


@pytest.mark.parametrize("spec", [
    coeff.ModelSpec(coeff.CALDIROLA_KANAI, 1.0, 0.2),
    coeff.ModelSpec(coeff.UNITED, 1.3, 0.35, 0.1),
    coeff.ModelSpec(coeff.CJ_MOMENTUM, 1.0, 0.2),
    coeff.ModelSpec(coeff.PARAMETRIC_SECH2, 1.0, 0.2)],
    ids=lambda s: s.model_id)
def test_flow_keeps_det_one(spec):
    # each step multiplies M by the exact exponential of a traceless
    # matrix, so det M = 1 holds to rounding, between step points too
    flow = classical_flow(coeff.builtin_coefficients(spec))
    flow.at(3.0)
    points = flow.steps + [flow.at(t) for t in np.linspace(0.0, 3.0, 41)]
    for p in points:
        assert abs(p.m11 * p.m22 - p.m12 * p.m21 - 1.0) <= 1e-14


def test_quadrature_error_of_i_is_controlled():
    # constant A (a = b = 1/2 and the drift c + d = 0: M rotates at unit
    # rate) while I' = c - d = 2 cos 5t varies fast: the flow of M alone is
    # exact in one step, so only the error estimate of I keeps the steps
    # short enough for its Gauss quadrature
    half = lambda t: 0.5
    flow = classical_flow(coeff.TimeCoefficients(
        half, half, lambda t: math.cos(5.0 * t),
        lambda t: -math.cos(5.0 * t)))
    flow.at(3.0)
    assert flow.n_steps > 3
    for t in np.linspace(0.0, 3.0, 31):
        m11, m12, m21, m22, i = flow.at(t)
        assert i == pytest.approx(0.4 * math.sin(5.0 * t), abs=1e-13)
        assert [m11, m12, m21, m22] == pytest.approx(
            [math.cos(t), math.sin(t), -math.sin(t), math.cos(t)], abs=1e-13)


def test_step_budget_stops_a_crawl():
    # d = -c = 1/(2(1 - t)) is singular at t = 1, but finite at every node
    # of the steps towards 2.1 (no node lands on t = 1): the rounding of t
    # there is noise the controller cannot get under, and it would take
    # 10^5 or more tiny steps before the step size underflows
    zero = lambda t: 0.0
    d = lambda t: 1.0 / (2.0 * (1.0 - t))
    tc = coeff.TimeCoefficients(zero, zero, lambda t: -d(t), d)
    start = time.perf_counter()
    with pytest.raises(ToleranceNotMet) as exc:
        classical_flow(tc).at(2.1)
    assert time.perf_counter() - start < 2.0
    info = exc.value.info
    assert info["steps"] + info["rejected"] == MAX_STEPS
    assert info["t"] == pytest.approx(1.0, abs=1e-6)


def test_blow_up_raises_singular_coefficient():
    # M' = diag(c, -c) M with c = 1 that divides by zero from t = 1 on: the
    # first node of a try past 1 raises it.  (c = 1/(1 - t), finite past 1,
    # crawls towards its blow-up instead: test_step_budget_stops_a_crawl)
    zero = lambda t: 0.0
    c = lambda t: 1.0 if t < 1.0 else 1.0 / 0.0
    with pytest.raises(SingularCoefficient) as exc:
        solve_ivp(Side(1.0), (zero, zero, c, zero), math.nan, 2.0)
    assert exc.value.info["t"].hex() == "0x1.244f53d0a66c5p+0"
    assert "ZeroDivisionError" in exc.value.info["error"]


def test_a_failed_read_leaves_its_side_as_it_was():
    # the coefficient of test_blow_up_raises_singular_coefficient: a read
    # at 0.5 grows the side, one at 2 fails past t = 1 and must leave the
    # side, its counts and its next try as they were, so that it fails
    # again alike and 0.5 keeps its bits
    zero = lambda t: 0.0
    c = lambda t: 1.0 if t < 1.0 else 1.0 / 0.0
    flow = classical_flow(coeff.TimeCoefficients(zero, zero, c, zero))
    bits = [v.hex() for v in flow.at(0.5)]
    state = flow.t, flow.steps, flow.n_steps, flow.n_rejected, flow.nfev
    assert flow.n_steps > 0
    infos = []
    for _ in range(2):
        with pytest.raises(SingularCoefficient) as exc:
            flow.at(2.0)
        infos.append(exc.value.info)
        assert (flow.t, flow.steps, flow.n_steps, flow.n_rejected,
                flow.nfev) == state
    assert infos[0] == infos[1]
    assert [v.hex() for v in flow.at(0.5)] == bits


@pytest.mark.parametrize("b", [
    # cosh overflows past t = 0.7098, where b is 0 to rounding
    lambda t: 0.5 / math.cosh(1000.0 * t),
    lambda t: 0.5 + math.sqrt(0.5 - t),
    lambda t: math.nan if t > 0.5 else 0.5,
], ids=["overflow", "value_error", "not_finite"])
@pytest.mark.parametrize("reader", ["classical_flow", "evolve_grid",
                                    "superposed_mu"])
def test_failing_coefficient_is_refused_where_it_is_read(b, reader):
    # each b fails inside the window [0, 1]: every reader of H refuses it
    # with the time, through the one reader quadham.ode.read
    from quadham import gridsim, invariants as inv, propagator as prop

    half, zero = lambda t: 0.5, lambda t: 0.0
    tc = coeff.TimeCoefficients(half, b, zero, zero, da=zero, dc=zero,
                                dd=zero)
    x = np.linspace(-8.0, 8.0, 128)
    run = {"classical_flow": lambda: classical_flow(tc).at(1.0),
           "evolve_grid": lambda: gridsim.evolve_grid(
               tc, prop.GridState(-8.0, x[1] - x[0], np.exp(-x * x)),
               1e-3, 1000),
           # the ladder's superposed mu reads the flow, and so b, to t
           "superposed_mu": lambda: inv.ladder_factorization(
               classical_flow(tc), 1.0, 0.0, 1.0)(0.9)}[reader]
    with pytest.raises(SingularCoefficient) as exc:
        run()
    assert 0.5 < exc.value.info["t"] < 1.0


@pytest.mark.parametrize("b", [
    lambda t: -1e6, lambda t: 1e300,
    lambda t: 0.5 if t < 0.5 else -1e12], ids=["cosh", "turn", "jump"])
def test_exponent_that_overflows_on_finite_coefficients_is_refused(b):
    # a solve whose M grows as cosh past the float range (b = -1e6, near
    # t = 0.5, its steps sized from A(0) so that no exponent nears the
    # cap), a step the power of whose turn overflows (b = 1e300: 1e150 rad
    # take more steps than the budget) and a step sized on b = 0.5 whose
    # exponent meets b = -1e12 past t = 0.5, so that |q^2| reaches the cap
    # short of cosh's overflow and the row is nan, are rejected steps,
    # and each solve ends typed
    tc = coeff.TimeCoefficients(lambda t: 0.5, b, lambda t: 0.0,
                                lambda t: 0.0)
    with pytest.raises(ToleranceNotMet):
        classical_flow(tc).at(1.0)


def test_a_trial_step_past_t_singular_is_clipped_to_it():
    # SHO with a singularity declared at t = 1, read at 0.9: the step that
    # would pass 1 ends on it, no step point passes it, and M is the
    # rotation within the flow's FLOW_TOL a step
    tc = dataclasses.replace(coeff.builtin_coefficients(
        coeff.ModelSpec(coeff.SIMPLE_HARMONIC, 1.0)), t_singular=1.0)
    flow = classical_flow(tc)
    flow.at(0.9)
    assert flow.t[-1] == 1.0 and max(flow.t) == 1.0
    for t, p in zip(flow.t, flow.steps):
        want = (math.cos(t), math.sin(t), -math.sin(t), math.cos(t))
        assert max(abs(g - w) for g, w in zip(p, want)) <= (
            FLOW_TOL * flow.n_steps), t


def test_scalar_and_array_times():
    sho = coeff.builtin_coefficients(
        coeff.ModelSpec(coeff.SIMPLE_HARMONIC, 1.0))
    flow = classical_flow(sho)
    flow.at(np.float64(2.0))
    assert all(type(t) is float for t in flow.t)
    one = flow.at(0.7)
    assert len(one) == 5 and all(type(v) is float for v in one)
    assert list(one) == pytest.approx(
        [math.cos(0.7), math.sin(0.7), -math.sin(0.7), math.cos(0.7), 0.0],
        abs=1e-14)
    assert flow.at(np.float64(0.7)) == one


@pytest.mark.parametrize("t_end", [3.0, -3.0], ids=["forward", "backward"])
def test_at_a_step_point_returns_its_row(t_end):
    tc = coeff.builtin_coefficients(
        coeff.ModelSpec(coeff.CALDIROLA_KANAI, 1.0, 0.2))
    flow = classical_flow(tc)
    flow.at(t_end)
    assert flow.n_steps > 10
    for t, row in zip(flow.t, flow.steps):
        for s in (t, np.float64(t)):
            assert [v.hex() for v in flow.at(s)] == [v.hex() for v in row]


def test_zero_span_and_backward_solve():
    tc = coeff.builtin_coefficients(
        coeff.ModelSpec(coeff.CALDIROLA_KANAI, 1.0, 0.2))
    still = classical_flow(tc)
    assert tuple(still.at(0.0)) == (1.0, 0.0, 0.0, 1.0, 0.0)
    assert tuple(still.at(-0.0)) == (1.0, 0.0, 0.0, 1.0, 0.0)
    assert still.n_steps == 0 == still.nfev
    back = classical_flow(tc)
    back.at(-1.0)
    # the backward side alone, one step past -1 and no further
    assert back.t[0] < -1.0 < back.t[1] and back.t[-1] == 0.0
    ref = scipy_solve_ivp(_flow_rhs(tc), (0.0, -1.0),
                          [1.0, 0.0, 0.0, 1.0, 0.0], **REF_OPTS)
    for t in (-1.0, -0.4, *back.t[1:]):
        assert list(back.at(t)) == pytest.approx(list(ref.sol(t)),
                                                 rel=1e-12, abs=1e-13)


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_a_zero_at_a_step_point_counts_from_the_next(sign):
    # rotations by 3pi/4, pi and 5pi/4, backwards for sign -1: M12 is
    # exactly 0 at the second step point, reached from inside the sector
    # before it; the count reads that zero at the third step point, where
    # M12 has changed sign, as the scan of Flow.first_caustic's stubs does
    side = Side(1.0)
    for t, theta in ((1.0, 0.75), (2.0, 1.0), (3.0, 1.25)):
        c, s = math.cos(theta * math.pi), math.sin(theta * math.pi)
        s = 0.0 if theta == 1.0 else sign * s
        side.t.append(t)
        side.steps.append(FlowPoint(c, s, -s, c, 0.0))
    assert side.count() == [0, 0, 0, 1]
