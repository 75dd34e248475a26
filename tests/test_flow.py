"""The classical flow against the paper's own equations.

The moments, the conservation system of a quadratic invariant, the linear
and the nonlinear (Ermakov) auxiliary equations and the damped
oscillator's energy equation are algebra on one flow
(``characteristic.classical_flow``).  Here each equation is written out as
the paper states it and solved with scipy's DOP853, the oracle the
flow-derived paths must reproduce.  The flow itself, on any H, is judged
by a 20-digit Taylor-series reference (``mpmath.odefun``), which shares
no code with the package's Magnus steps, and the kernel, the Gaussian
propagator and the moment paths on it by identities that hold for every H.
"""

import ast
import bisect
import math
import pathlib

# the reference flow's judge: where it is missing the tests fail
import mpmath
import numpy as np
import pytest
from hypothesis import Phase, given, reject, seed, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp as scipy_solve_ivp

import quadham
from quadham import coefficients as coeff
from quadham import dynamics as dyn
from quadham import invariants as inv
from quadham.characteristic import classical_flow, kernel_parameters
from quadham.coefficients import TimeCoefficients
from quadham.errors import InvalidModelParams, QuadhamError
from quadham.ode import FLOW_TOL
from quadham.propagator import (GaussianState, propagate_gaussian,
                                propagate_grid)
import oracle40
from helpers import ermakov, first_zero, grid_gaussian

SPECS = [
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
# every model forwards to 1.2 (below modified_oscillator's pi/2, where
# a'/a of the auxiliary equation is singular), and one backward window
CASES = [(spec, 1.2) for spec in SPECS] + [(SPECS[2], -1.2)]

M0 = dyn.SecondMoments(p2=0.8, x2=0.7, pxxp=0.1, norm=1.0)
F0 = dyn.FirstMoments(x=0.4, p=-0.3)
# a non-self-adjoint form (C != D) and a generic auxiliary start
Q0 = (1.1, 0.9, 0.3, -0.2)
AUX0 = (1.0, 0.5)
TOL = 1e-9


def _paper_rhs(tc):
    """The second moments, first moments, conservation system and linear
    auxiliary equation as one system of 12 components."""

    def rhs(t, y):
        a, b, c, d = tc.a(t), tc.b(t), tc.c(t), tc.d(t)
        p2, x2, pxxp, norm, x, p, A, B, C, D, mu, mup = y
        cross = 2.0 * (a * B - b * A)
        ra = tc.da(t) / a
        Q = 4.0 * a * b + (ra - c - d) * (c + d) - tc.dc(t) - tc.dd(t)
        return [(-3.0 * c - d) * p2 - 2.0 * b * pxxp,
                (c + 3.0 * d) * x2 + 2.0 * a * pxxp,
                4.0 * a * p2 - 4.0 * b * x2 + (d - c) * pxxp,
                (d - c) * norm,
                2.0 * a * p + 2.0 * d * x,
                -2.0 * b * x - 2.0 * c * p,
                -2.0 * a * (C + D) + (3.0 * c + d) * A,
                2.0 * b * (C + D) - (c + 3.0 * d) * B,
                -cross + (c - d) * C,
                -cross + (c - d) * D,
                mup,
                ra * mup - Q * mu]

    return rhs


def _flow_values(tc, t_end):
    flow = classical_flow(tc)
    second = dyn.evolve_second_moments(flow, M0)
    first = dyn.evolve_first_moments(flow, F0)
    form = inv.solve_energy_system(flow, Q0)
    # a solution of the linear auxiliary equation is the first-moment
    # path per unit <1> read as (mu, mu'), mu' = 2a p + (c + d) mu, from
    # p = (mu' - (c + d) mu) / 2a at t = 0
    mu0, mup0 = AUX0
    aux = dyn.evolve_first_moments(flow, dyn.FirstMoments(
        mu0, (mup0 - (tc.c(0.0) + tc.d(0.0)) * mu0) / (2.0 * tc.a(0.0))))

    def values(t):
        # the paper's systems move raw moments: per unit <1> times <1>,
        # here <1>_0 = 1
        q, (m, raw), (fm, _) = form(t), second(t), first(t)
        mu, p = aux(t)[0]
        mup = 2.0 * tc.a(t) * p + (tc.c(t) + tc.d(t)) * mu
        return [*map(raw, [*m, *fm]), q.A, q.B, q.C, q.D, mu, mup]

    return values


def test_flow_paths_match_the_paper_systems():
    worst = {}
    for spec, t_end in CASES:
        tc = oracle40.coefficients(spec)
        y0 = [M0.p2, M0.x2, M0.pxxp, M0.norm, F0.x, F0.p, *Q0, *AUX0]
        ref = scipy_solve_ivp(_paper_rhs(tc), (0.0, t_end), y0,
                              method="DOP853", rtol=1e-12, atol=1e-14,
                              dense_output=True)
        assert ref.success, ref.message
        values = _flow_values(tc, t_end)
        err = 0.0
        for t in np.linspace(0.0, t_end, 13):
            want = ref.sol(t)
            got = np.array(values(float(t)))
            err = max(err, float(np.max(np.abs(got - want)
                                        / np.maximum(1.0, np.abs(want)))))
        worst[f"{spec.model_id}[{t_end}]"] = err
    name = max(worst, key=worst.get)
    print(f"\nworst flow-vs-paper error {worst[name]:.2e} ({name}, "
          f"tol {TOL:.0e})")
    assert all(err <= TOL for err in worst.values()), worst


def _rel_err(got, want):
    return float(np.max(np.abs(np.subtract(got, want))
                        / np.maximum(1.0, np.abs(want))))


@pytest.mark.parametrize("omega_sq, c0, init", [
    (lambda t: 1.0 + 0.3 * math.sin(t), 0.7, (1.0, 0.2)),
    (lambda t: 1.0, 0.0, (1.0, 0.5)),
    (lambda t: 1.0 + 0.2 * t, -0.05, (1.0, 0.3)),
], ids=["positive_c0", "zero_c0", "negative_c0"])
def test_ermakov_matches_the_paper_equation(omega_sq, c0, init):
    # kappa'' + omega^2(t) kappa = c0 / kappa^3
    def rhs(t, y):
        return [y[1], c0 / y[0] ** 3 - omega_sq(t) * y[0]]

    t_end = 1.5
    ref = scipy_solve_ivp(rhs, (0.0, t_end), list(init), method="DOP853",
                          rtol=1e-12, atol=1e-14, dense_output=True)
    assert ref.success, ref.message
    kappa_fn, C0, _ = ermakov(omega_sq, c0, init)
    assert abs(C0 - c0) <= 1e-15
    for t in np.linspace(0.0, t_end, 13):
        got = kappa_fn(float(t))[:2]
        assert _rel_err(got, ref.sol(t)) <= TOL


def _energy_equation(spec, m0, t_end):
    """The damped oscillator's energy equation

        y'' - (4 lambda / sinh(2 lambda t)) y' +
            2(2 omega^2 + lambda^2 / cosh^2(lambda t)) y = 8 omega0 <E>_0,

    started at eps = 1e-3 from the quartic Taylor polynomial of the even
    branch (<px+xp>_0 = 0): the t^3 homogeneous mode amplifies a startup
    error by eps^-3."""
    w0, lam, w = spec.omega0, spec.lam, spec.model.omega
    h00, l0 = m0.p2 + m0.x2, m0.p2 - m0.x2
    e0 = (0.5 * w0 * (1.0 - 0.5 * lam ** 2 / w0 ** 2) * h00
          + 0.25 * lam ** 2 / w0 * l0)
    alpha = -lam * lam * l0
    beta = 0.25 * (2.0 * lam ** 4 * h00
                   - alpha * (8.0 * lam ** 2 / 3.0
                              + 4.0 * w * w + 2.0 * lam ** 2))

    def rhs(t, y):
        fric = 4.0 * lam / math.sinh(2.0 * lam * t)
        stiff = 2.0 * (2.0 * w * w + lam ** 2 / math.cosh(lam * t) ** 2)
        return [y[1], fric * y[1] - stiff * y[0] + 8.0 * w0 * e0]

    eps = 1e-3
    y_eps = [h00 + alpha * eps ** 2 + beta * eps ** 4,
             2.0 * alpha * eps + 4.0 * beta * eps ** 3]
    ref = scipy_solve_ivp(rhs, (eps, t_end), y_eps, method="DOP853",
                          rtol=1e-12, atol=1e-14, dense_output=True)
    assert ref.success, ref.message
    return lambda t: ref.sol(t)[0]


@pytest.mark.parametrize("omega0, lam, m0", [
    (1.0, 0.2, dyn.SecondMoments(p2=0.8, x2=0.7)),
    (1.3, 0.35, dyn.SecondMoments(p2=0.5, x2=1.1)),
    (0.8, 0.1, dyn.SecondMoments(p2=1.0, x2=1.0)),
])
def test_damped_energy_matches_the_paper_equation(omega0, lam, m0):
    spec = coeff.ModelSpec(coeff.CJ_COORDINATE, omega0, lam)
    t_end = 5.0
    ref = _energy_equation(spec, m0, t_end)
    y = dyn.damped_energy_equation_solve(
        spec, m0, classical_flow(coeff.catalog_coefficients(spec)))
    for t in np.linspace(0.05, t_end, 13):
        assert _rel_err(y(float(t)), ref(float(t))) <= TOL


def test_damped_energy_keeps_the_odd_branch():
    # <px+xp>_0 != 0 selects the t^3 branch of the energy equation; the
    # second moments of the paper's moment system, contracted with the
    # reference operator, are its oracle
    spec = coeff.ModelSpec(coeff.CJ_COORDINATE, 1.0, 0.2)
    m0 = dyn.SecondMoments(p2=0.8, x2=0.7, pxxp=0.3)
    t_end = 5.0
    tc = oracle40.coefficients(spec, catalog=True)
    y0 = [m0.p2, m0.x2, m0.pxxp, m0.norm, 0.0, 0.0, *Q0, *AUX0]
    ref = scipy_solve_ivp(_paper_rhs(tc), (0.0, t_end), y0, method="DOP853",
                          rtol=1e-12, atol=1e-14, dense_output=True)
    assert ref.success, ref.message
    y = dyn.damped_energy_equation_solve(spec, m0, classical_flow(tc))
    for t in np.linspace(0.0, t_end, 13):
        p2, x2, pxxp = ref.sol(t)[:3]
        A, B, C = dyn.reference_operator(spec, float(t))
        want = A * p2 + B * x2 + 0.5 * C * pxxp
        assert _rel_err(y(float(t)), want) <= TOL


def _is_solve(node):
    return isinstance(node, ast.Call) and "solve_ivp" in (
        getattr(node.func, "id", None), getattr(node.func, "attr", None))


def test_one_linear_system_in_the_package():
    # every linear and nonlinear solve of the package is algebra on the
    # classical flow: it is the only solve_ivp call
    sites = set()
    root = pathlib.Path(quadham.__file__).parent
    for path in sorted(root.rglob("*.py")):
        tree = ast.parse(path.read_text())
        # each call belongs to its innermost function; ast.walk visits
        # outer functions first, so inner ones overwrite them
        owner = {node: None for node in ast.walk(tree) if _is_solve(node)}
        for fn in ast.walk(tree):
            if isinstance(fn, ast.FunctionDef):
                owner.update((node, fn.name) for node in ast.walk(fn)
                             if _is_solve(node))
        sites |= {(path.stem, name) for name in owner.values()}
    assert sites == {("characteristic", "at")}


def _reference_rows(coefficients, times):
    """(M11, M12, M21, M22, I) of H's flow at each of ``times``, by
    mpmath.odefun at 20 digits; ``coefficients`` maps an mpf t to H's
    (a, b, c, d) as mpfs.  M' = A M with A = [[s, 2a], [-2b, -s]],
    s = c + d, and I' = c - d."""

    def rhs(t, y):
        a, b, c, d = coefficients(t)
        s = c + d
        m11, m12, m21, m22, _ = y
        return [s * m11 + 2 * a * m21, s * m12 + 2 * a * m22,
                -2 * b * m11 - s * m21, -2 * b * m12 - s * m22, c - d]

    with mpmath.workdps(20):
        path = mpmath.odefun(rhs, 0, [1, 0, 0, 1, 0])
        return [[float(v) for v in path(t)] for t in times]


def _flow_error(flow, times, rows):
    """max over ``times`` of the error in M of ``flow`` relative to the
    largest entry of the reference M, plus the error in I."""
    err = 0.0
    for t, ref in zip(times, rows):
        p = flow.at(t)
        scale = max(abs(v) for v in ref[:4])
        err = max(err, max(abs(g - r) for g, r in zip(p[:4], ref[:4]))
                  / scale + abs(p.i - ref[4]))
    return err


def test_reference_flow_judges_caldirola_kanai():
    # 14 times to t = 1.4 at lambda = 0.2: about 6e-15 over 54 steps
    w0, lam = 1.0, 0.2
    flow = classical_flow(coeff.builtin_coefficients(
        coeff.ModelSpec(coeff.CALDIROLA_KANAI, w0, lam)))
    times = [float(t) for t in np.linspace(0.1, 1.4, 14)]
    rows = _reference_rows(lambda t: (0.5 * w0 * mpmath.exp(-2 * lam * t),
                                      0.5 * w0 * mpmath.exp(2 * lam * t),
                                      0, 0), times)
    err = _flow_error(flow, times, rows)
    print(f"\nCaldirola-Kanai flow error {err:.2e} over {flow.n_steps} "
          f"steps")
    assert err <= FLOW_TOL * flow.n_steps


_COEFF = st.floats(-0.3, 0.3)


# each example takes about 0.3 s of mpmath, so a failing one is reported
# as drawn, not shrunk
@seed(20110271129244015592385291825785740759169596758253873835123151692262257581224353638035833807532022382066268289929068)
@settings(max_examples=6, deadline=None, derandomize=True,
          phases=(Phase.explicit, Phase.generate))
@given(a0=st.floats(0.3, 1.0), b0=st.floats(0.2, 1.5), a1=_COEFF,
       b1=_COEFF, c0=_COEFF, c1=_COEFF, d0=_COEFF, d1=_COEFF,
       rate=st.floats(-0.5, 0.5), omega=st.floats(0.5, 3.0),
       phase=st.floats(0.0, 3.0), t_end=st.floats(0.5, 2.0))
def test_reference_flow_judges_drawn_hamiltonians(a0, b0, a1, b1, c0, c1, d0,
                                                  d1, rate, omega, phase,
                                                  t_end):
    # a smooth family with c != d, one exponential and one sine shared by
    # the coefficients; the flow's error is held to FLOW_TOL per step
    def family(lib):
        def coefficients(t):
            e, s = lib.exp(rate * t), lib.sin(omega * t + phase)
            return a0 * e + a1 * s, b0 / e + b1 * s, c0 + c1 * s, d0 + d1 * t

        return coefficients

    h = family(math)
    flow = classical_flow(TimeCoefficients(
        *(lambda t, k=k: h(t)[k] for k in range(4))))
    times = [float(t) for t in np.linspace(t_end / 10, t_end, 10)]
    err = _flow_error(flow, times, _reference_rows(family(mpmath), times))
    assert err <= FLOW_TOL * flow.n_steps


S0 = GaussianState(0.5j, 0.3 - 0.2j)


@seed(13157053987429361564854205505074532931342001149939716990666519317363139653964789458165589325908141337808462846037786)
@settings(max_examples=100, deadline=None, derandomize=True)
@given(a0=st.floats(0.3, 1.0), b0=st.floats(0.2, 1.5),
       a1=st.floats(-0.1, 0.1), b1=_COEFF, c0=_COEFF, c1=_COEFF, d0=_COEFF,
       d1=_COEFF,
       rate=st.floats(-0.5, 0.5), omega=st.floats(0.5, 3.0),
       phase=st.floats(0.0, 3.0), t_end=st.floats(0.5, 2.0))
def test_drawn_hamiltonians_keep_the_identities_of_every_h(
        a0, b0, a1, b1, c0, c1, d0, d1, rate, omega, phase, t_end):
    # oracles that need no closed form, on the family of the reference
    # sweep before its first caustic: det M = 1; the Gaussian propagated in
    # closed form against the chirp-z quadrature of its samples; and the
    # moment path against the propagated Gaussian's moments, normalised,
    # with the norm law <1>(t) = e^{-I} <1>(0) for c != d.  a > 0 up to
    # t_end, so M12 changes sign at each zero, and the flow runs to
    # 2 t_end, so that a caustic just past t_end bounds the times too
    def h(t):
        e, s = math.exp(rate * t), math.sin(omega * t + phase)
        return a0 * e + a1 * s, b0 / e + b1 * s, c0 + c1 * s, d0 + d1 * t

    tc = TimeCoefficients(*(lambda t, k=k: h(t)[k] for k in range(4)))
    flow = classical_flow(tc)
    flow.at(2.0 * t_end)
    zero = first_zero(flow)
    hi = t_end if zero is None else min(t_end, 0.9 * zero)
    times = [float(t) for t in np.linspace(hi / 3, hi, 3)]
    for p in flow.steps + [flow.at(t) for t in times]:
        assert abs(p.m11 * p.m22 - p.m12 * p.m21 - 1.0) <= 1e-14
    m0 = S0.moments()
    path = dyn.evolve_second_moments(flow, dyn.SecondMoments(
        m0["p2"], m0["x2"], m0["pxxp"], m0["norm"]))
    for t in times:
        kp = kernel_parameters(tc, flow, t)
        s = propagate_gaussian(kp, S0)
        # on [-8, 8] the tails are below 1e-13 of the peak, and the grid
        # keeps the kernel's phase to pi/8 a source step, half the guard
        # of propagate_grid: |beta| dx 8 <= pi/8
        n = max(1024, 1 + math.ceil(1024.0 * abs(kp.beta) / math.pi))
        phi = grid_gaussian(S0, 8.0, n)
        exact = s.eval(phi.x)
        quad = propagate_grid(kp, phi).values
        assert np.max(np.abs(quad - exact)) <= 1e-10 * np.max(np.abs(exact))
        got, want = path(t)[0], s.moments()
        assert _rel_err([got.p2 / got.norm, got.x2 / got.norm,
                         got.pxxp / got.norm],
                        [want[k] / want["norm"]
                         for k in ("p2", "x2", "pxxp")]) <= 1e-10
        assert want["norm"] == pytest.approx(
            math.exp(-flow.at(t).i) * m0["norm"], rel=1e-10)


def _of_largest(got, want):
    """max |got - want| relative to the largest |want|."""
    return max(abs(g - w) for g, w in zip(got, want)) / max(map(abs, want))


@seed(20261048)
@settings(max_examples=40, deadline=None, derandomize=True)
@given(a0=st.floats(0.3, 1.0), b0=st.floats(0.2, 1.5), a1=_COEFF,
       b1=_COEFF, c0=_COEFF, c1=_COEFF, d0=_COEFF, d1=_COEFF,
       rate=st.floats(-0.5, 0.5), omega=st.floats(0.5, 3.0),
       phase=st.floats(0.0, 3.0), t_end=st.floats(0.5, 2.0))
def test_the_fourier_dual_flows_the_swapped_moments(a0, b0, a1, b1, c0, c1,
                                                     d0, d1, rate, omega,
                                                     phase, t_end):
    # the dual map x -> p, p -> -x takes H = (a, b, c, d) to
    # H' = (b, a, -d, -c) and keeps I.  So H' flows (x2, p2, -pxxp) of H's
    # start to those of H at t and (<p>_0, -<x>_0) to (<p>, -<x>), with
    # the same weight e^{-I}; each to FLOW_TOL a step of both flows,
    # relative to the largest moment
    def h(t):
        e, s = math.exp(rate * t), math.sin(omega * t + phase)
        return a0 * e + a1 * s, b0 / e + b1 * s, c0 + c1 * s, d0 + d1 * t

    def dual(t):
        a, b, c, d = h(t)
        return b, a, -d, -c

    flows = [classical_flow(TimeCoefficients(
        *(lambda t, k=k, f=f: f(t)[k] for k in range(4))))
        for f in (h, dual)]
    second = [dyn.evolve_second_moments(flows[0], M0),
              dyn.evolve_second_moments(flows[1], dyn.SecondMoments(
                  M0.x2, M0.p2, -M0.pxxp))]
    first = [dyn.evolve_first_moments(flows[0], F0),
             dyn.evolve_first_moments(flows[1], dyn.FirstMoments(F0.p,
                                                                 -F0.x))]
    err = 0.0
    for t in (t_end / 3, 2.0 * t_end / 3, t_end, -0.5 * t_end):
        (m, raw), (m_dual, raw_dual) = (path(t) for path in second)
        (f, _), (f_dual, _) = (path(t) for path in first)
        err = max(err, _of_largest([m_dual.x2, m_dual.p2, -m_dual.pxxp],
                                   [m.p2, m.x2, m.pxxp]),
                  _of_largest([-f_dual.p, f_dual.x], [f.x, f.p]),
                  _of_largest([raw_dual(1.0)], [raw(1.0)]))
    assert err <= FLOW_TOL * sum(flow.n_steps for flow in flows)


@st.composite
def _family(draw):
    """H's record, with a', c' and d', of a member of the drawn family of
    the reference sweeps above."""
    a0, b0 = draw(st.floats(0.3, 1.0)), draw(st.floats(0.2, 1.5))
    a1, b1, c0, c1, d0, d1 = (draw(_COEFF) for _ in range(6))
    rate, omega = draw(st.floats(-0.5, 0.5)), draw(st.floats(0.5, 3.0))
    phase = draw(st.floats(0.0, 3.0))

    def h(t):
        e, s = math.exp(rate * t), math.sin(omega * t + phase)
        ds = omega * math.cos(omega * t + phase)
        return (a0 * e + a1 * s, b0 / e + b1 * s, c0 + c1 * s, d0 + d1 * t,
                rate * a0 * e + a1 * ds, c1 * ds, d1)

    da, dc, dd = (lambda t, k=k: h(t)[k] for k in range(4, 7))
    return TimeCoefficients(*(lambda t, k=k: h(t)[k] for k in range(4)),
                            da=da, dc=dc, dd=dd)


@st.composite
def _hamiltonians_with_derivatives(draw):
    """H's record with a', c' and d': one of the ten models, whose
    derivatives are the 40-digit oracle's, or a member of the drawn
    family."""
    if draw(st.booleans()):
        return oracle40.coefficients(draw(st.sampled_from(SPECS)))
    return draw(_family())


# the step of the 5-point differences below, and the bounds it gives.  A
# step point inside the stencil is a jump of A by at most FLOW_TOL S, the
# one-step error that the step control holds, with S = e^I |(B0, A0)| |M|
# the size of the terms; within a step the read values solve the
# equations to rounding.  The jump moves A' by at most 7/12 FLOW_TOL S / H
# and A'' by 5/4 FLOW_TOL S / H^2; a half-ulp rounding of each value adds
# 3/2 eps S / H and 16/3 eps S / H^2, under FLOW_TOL S / H and
# 2 FLOW_TOL S / H^2 with the jump.  The truncation, H^4 A^(5) / 30 and
# H^4 A^(6) / 90, is below 1e-9 of the terms for rates of A up to about 10
H = 2.0 ** -10
TRUNCATION = 1e-9


@seed(20261052)
@settings(max_examples=60, deadline=None, derandomize=True)
@given(tc=_hamiltonians_with_derivatives(),
       t=st.integers(256, 1228).map(lambda k: k * H),
       A0=st.floats(-1.0, 1.0), B0=st.floats(-1.0, 1.0))
def test_the_linear_invariant_keeps_the_paper_relations(tc, t, A0, B0):
    # the flow's linear invariant solves the paper's two relations, read
    # by 5-point differences of A on the flow: B = (2cA - A') / (2a) and
    # A'' - (a'/a + 2c - 2d) A' + 4(ab - cd + c a'/(2a) - c'/2) A = 0, on
    # the windows of CASES, before modified_oscillator's pi/2
    flow = classical_flow(tc)
    path = inv.linear_invariant(flow, (A0, B0, 0.2))
    forms = [path(t + k * H) for k in (-2, -1, 0, 1, 2)]
    A = [f.A for f in forms]
    A1 = (A[0] - 8.0 * A[1] + 8.0 * A[3] - A[4]) / (12.0 * H)
    A2 = (-A[0] + 16.0 * (A[1] + A[3]) - 30.0 * A[2] - A[4]) / (12.0 * H * H)
    a, b, c, d = (f(t) for f in (tc.a, tc.b, tc.c, tc.d))
    da, dc = tc.da(t), tc.dc(t)
    p = flow.at(t)
    size = math.exp(p.i) * (abs(A0) + abs(B0)) * max(map(abs, p[:4]))
    B = forms[2].B
    terms = abs(B) + abs(c * A[2] / a) + abs(A1 / (2.0 * a))
    assert abs(B - (2.0 * c * A[2] - A1) / (2.0 * a)) <= (
        TRUNCATION * terms + FLOW_TOL * size / (H * 2.0 * a))
    k1 = da / a + 2.0 * c - 2.0 * d
    k0 = 4.0 * (a * b - c * d + c * da / (2.0 * a) - 0.5 * dc)
    terms = abs(A2) + abs(k1 * A1) + abs(k0 * A[2])
    assert abs(A2 - k1 * A1 + k0 * A[2]) <= (
        TRUNCATION * terms + 2.0 * FLOW_TOL * size / (H * H))


@st.composite
def _hamiltonians(draw):
    """H's record: a catalogued model at drawn parameters, or a member of
    the drawn family of the reference sweeps above."""
    if draw(st.booleans()):
        try:
            return coeff.builtin_coefficients(coeff.ModelSpec(
                draw(st.sampled_from(coeff.MODEL_IDS)),
                draw(st.floats(0.5, 2.0)), draw(st.floats(0.0, 0.6)),
                draw(st.floats(0.0, 0.3)), draw(st.floats(0.2, 1.5))))
        except InvalidModelParams:
            reject()
    return draw(_family())


def _readings(tc, flow, t):
    """Every value read off ``flow`` at t, each float as its hex, or the
    type and info of the QuadhamError that refuses it."""
    def outcome(read):
        try:
            return [v.hex() for v in read()]
        except QuadhamError as exc:
            return type(exc).__name__, repr(exc.info)

    path = dyn.evolve_second_moments(flow, M0)
    first = dyn.evolve_first_moments(flow, F0)
    return [outcome(lambda: flow.at(t)), outcome(lambda: flow.mu(t)),
            outcome(lambda: kernel_parameters(tc, flow, t)),
            outcome(lambda: path(t)[0]), outcome(lambda: first(t)[0]),
            outcome(lambda: [path(t)[1](1.0)])]


@seed(20261046)
@settings(max_examples=40, deadline=None, derandomize=True)
@given(tc=_hamiltonians(), t=st.floats(0.05, 1.2), backward=st.booleans(),
       far=st.floats(2.5, 4.0))
def test_a_value_does_not_depend_on_what_was_read_first(tc, t, backward,
                                                        far):
    # the step points depend on H alone: every reader's value at t, and
    # its refusal, has the same bits on a fresh flow whether the flow was
    # first read at t, at 2t, at a farther time or on the other side
    t = -t if backward else t
    values = []
    for first in (None, 2.0 * t, far * t, -t):
        flow = classical_flow(tc)
        if first is not None:
            try:
                flow.at(first)
            except QuadhamError:
                pass
        values.append(_readings(tc, flow, t))
    assert values[1:] == values[:1] * 3


def _sign_changes(values):
    """The running count of sign changes over ``values``, zeros skipped."""
    counts, last, n = [], 0.0, 0
    for v in values:
        if v:
            n += last != 0.0 and (v > 0.0) != (last > 0.0)
            last = v
        counts.append(n)
    return counts


@seed(20261057)
@settings(max_examples=25, deadline=None, derandomize=True)
@given(tc=_family(), t_end=st.floats(2.0, 12.0))
def test_the_count_of_zeros_is_the_sign_changes_of_m12(tc, t_end):
    # on both sides of the flow of a drawn H (c != d, and a that may change
    # sign backwards), the count of zeros of M12 at every step point is the
    # number of sign changes of M12 over the step points up to it
    flow = classical_flow(tc)
    for t in (t_end, -t_end):
        try:
            flow.at(t)
        except QuadhamError:
            pass
        side = flow._sides[math.copysign(1.0, t)]
        assert side.count() == _sign_changes([p.m12 for p in side.steps])


@seed(20261059)
@settings(max_examples=25, deadline=None, derandomize=True)
@given(tc=_family(), t_end=st.floats(2.0, 12.0))
def test_the_angle_turns_at_the_rate_of_its_identity(tc, t_end):
    # phi' = 2 a k / (M11^2 + k^2 M12^2) for det M = 1: phi at dense
    # points (one turn from the step point before each) against the
    # identity by 4th-order central differences, h = 1e-3
    flow = classical_flow(tc)
    try:
        flow.at(t_end)
    except QuadhamError:
        reject()
    side = flow._sides[1.0]
    side.count()

    def phi(t):
        return side.turn(bisect.bisect_right(side.t, t) - 1, flow.at(t))[0]

    h, k = 1e-3, side.k
    for t in (0.3 * t_end, 0.6 * t_end, 0.9 * t_end):
        rate = (8.0 * (phi(t + h) - phi(t - h))
                - (phi(t + 2 * h) - phi(t - 2 * h))) / (12.0 * h)
        p = flow.at(t)
        want = 2.0 * tc.a(t) * k / (p.m11 ** 2 + (k * p.m12) ** 2)
        assert rate == pytest.approx(want, rel=1e-7, abs=1e-9)
