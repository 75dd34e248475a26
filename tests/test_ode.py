import math
import time

import numpy as np
import pytest
from scipy.integrate import solve_ivp as scipy_solve_ivp

from quadham import coefficients as coeff
from quadham.characteristic import classical_flow
from quadham.errors import ToleranceNotMet
from quadham.ode import MAX_STEPS, solve_ivp


def _second_moments_rhs():
    spec = coeff.ModelSpec(coeff.MODIFIED_CK, 1.1, 0.3)
    tc = coeff.builtin_coefficients(spec, coeff.HAMILTONIAN)

    def rhs(t, y):
        # the raw second moments <p^2>, <x^2>, <px+xp> and the norm <1>
        a, b, c, d = tc.a(t), tc.b(t), tc.c(t), tc.d(t)
        p2, x2, pxxp, norm = y
        return [(-3.0 * c - d) * p2 - 2.0 * b * pxxp,
                (c + 3.0 * d) * x2 + 2.0 * a * pxxp,
                4.0 * a * p2 - 4.0 * b * x2 + (d - c) * pxxp,
                (d - c) * norm]

    # the tolerances of the moment paths
    return rhs, (0.0, 3.0), [0.8, 0.7, 0.1, 1.0], dict(rtol=1e-12,
                                                        atol=1e-14)


def _characteristic_rhs():
    spec = coeff.ModelSpec(coeff.UNITED, 1.3, 0.35, 0.1)
    tc = coeff.builtin_coefficients(spec, coeff.EQUATION)

    def rhs(t, y):
        # the classical flow (M11, M12, M21, M22) and I = int (c_H - d_H);
        # in the equation convention the drift c_H + d_H is c and c_H is d
        a, b, s = tc.a(t), tc.b(t), tc.c(t)
        return [2 * a * y[2] + s * y[0], 2 * a * y[3] + s * y[1],
                -2 * b * y[0] - s * y[2], -2 * b * y[1] - s * y[3],
                2 * tc.d(t) - s]

    # the tolerances and step limit of solve_characteristic
    t_end = 4.0
    return rhs, (0.0, t_end), [1.0, 0.0, 0.0, 1.0, 0.0], dict(
        rtol=1e-10, atol=1e-12, max_step=t_end / 16)


@pytest.mark.parametrize("system", [_second_moments_rhs, _characteristic_rhs],
                         ids=["modified_ck_moments", "united_characteristic"])
def test_dense_output_matches_scipy_dop853(system):
    rhs, span, y0, opts = system()
    ref = scipy_solve_ivp(rhs, span, y0, method="DOP853", dense_output=True,
                          **opts)
    sol = solve_ivp(rhs, span, y0, **opts)
    # the same controller takes as many steps; where they fall moves with
    # the rounding of the stage sums, which the error estimate amplifies
    assert len(sol.t) == len(ref.t)
    for t, y in zip(sol.t, sol.y):
        np.testing.assert_allclose(y, ref.sol(t), rtol=1e-12, atol=1e-12)
    inner = np.linspace(span[0], span[1], 52)[1:-1]
    for ts in (ref.t, inner):
        want = ref.sol(ts)
        got = np.array([sol(t) for t in ts]).T
        assert got.shape == want.shape
        assert np.all(np.abs(got - want) <= 1e-12 * np.maximum(1.0,
                                                               np.abs(want)))


@pytest.mark.parametrize("system", [_second_moments_rhs, _characteristic_rhs],
                         ids=["modified_ck_moments", "united_characteristic"])
def test_work_counts(system):
    rhs, span, y0, opts = system()
    ref = scipy_solve_ivp(rhs, span, y0, method="DOP853", **opts)
    sol = solve_ivp(rhs, span, y0, **opts)
    assert sol.n_steps == len(sol.t) - 1 == len(ref.t) - 1
    # two evaluations choose the first step; an accepted step takes 12
    # stages plus 3 for the dense output, a rejected one 12
    assert sol.nfev == 2 + 15 * sol.n_steps + 12 * sol.n_rejected


def test_step_budget_stops_a_crawl():
    # d = -c = 1/(2(1 - t)) is singular at t = 1: the rounding of t there
    # is noise the controller cannot get under, and it would take 10^5 or
    # more tiny steps before the step size underflows
    zero = lambda t: 0.0
    d = lambda t: 1.0 / (2.0 * (1.0 - t))
    tc = coeff.TimeCoefficients(zero, zero, lambda t: -d(t), d,
                                coeff.HAMILTONIAN)
    start = time.perf_counter()
    with pytest.raises(ToleranceNotMet) as exc:
        classical_flow(tc, 2.0)
    assert time.perf_counter() - start < 2.0
    info = exc.value.info
    assert info["steps"] + info["rejected"] == MAX_STEPS
    assert info["t"] == pytest.approx(1.0, abs=1e-6)


def test_blow_up_raises_tolerance_not_met():
    # y' = y^2, y(0) = 1 is 1/(1 - t)
    with pytest.raises(ToleranceNotMet) as exc:
        solve_ivp(lambda t, y: [y[0] ** 2], (0.0, 2.0), [1.0], rtol=1e-10,
                  atol=1e-12)
    assert exc.value.info["t"] == pytest.approx(1.0, abs=1e-6)


def test_scalar_and_array_times():
    sol = solve_ivp(lambda t, y: [y[1], -y[0]], (0.0, 2.0), [0.0, 1.0],
                    rtol=1e-12, atol=1e-14)
    one = sol(0.7)
    assert len(one) == 2
    assert one == pytest.approx([math.sin(0.7), math.cos(0.7)], rel=1e-11)
    assert sol(np.float64(0.7)) == one


def test_zero_span_and_backward_solve():
    still = solve_ivp(lambda t, y: [1.0], (0.5, 0.5), [2.0], rtol=1e-10,
                      atol=1e-12)
    assert still(0.5) == pytest.approx([2.0])
    back = solve_ivp(lambda t, y: [y[0]], (0.0, -1.0), [1.0], rtol=1e-12,
                     atol=1e-14)
    assert back(-1.0)[0] == pytest.approx(math.exp(-1.0), rel=1e-11)
    assert back(-0.4)[0] == pytest.approx(math.exp(-0.4), rel=1e-11)
