import math
import os
import random
import subprocess
import sys

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, seed, settings
from hypothesis import strategies as st

import twin

from quadham import coefficients as coeff
from quadham import dynamics as dyn
from quadham import invariants as inv
from quadham.characteristic import FlowPoint, classical_flow
from quadham.errors import (InvalidModelParams, InvalidMoments, NoClosedForm,
                            NumericalError, SingularCoefficient,
                            ValidationError)
from quadham.ode import FLOW_TOL

M0 = dyn.SecondMoments(p2=0.8, x2=0.7, pxxp=0.1, norm=1.0)
M0_EVEN = dyn.SecondMoments(p2=0.8, x2=0.7, pxxp=0.0, norm=1.0)

CLOSED_FORM_SPECS = [
    coeff.ModelSpec(coeff.CALDIROLA_KANAI, 1.0, 0.1),
    coeff.ModelSpec(coeff.MODIFIED_CK, 1.0, 0.1),
    coeff.ModelSpec(coeff.UNITED, 1.0, 0.3, 0.1),
    coeff.ModelSpec(coeff.MODIFIED_OSCILLATOR),
]


def _tc_for(spec):
    return coeff.catalog_coefficients(spec)


@pytest.mark.parametrize("spec", CLOSED_FORM_SPECS, ids=lambda s: s.model_id)
def test_closed_form_expectation_vs_moment_ode(spec):
    flow = classical_flow(_tc_for(spec))
    path = dyn.evolve_second_moments(flow, M0)
    for t in np.linspace(0.2, 3.0, 11):
        m, raw = path(float(t))
        m = dyn.SecondMoments(*map(raw, m))
        A, B, C = dyn.reference_operator(spec, float(t))
        got = A * m.p2 + B * m.x2 + 0.5 * C * m.pxxp
        ref = dyn.closed_form_expectation(spec, M0, float(t))
        assert abs(got - ref) <= 1e-8 * max(1.0, abs(ref))


def test_cj_closed_form_vs_moment_ode():
    spec = coeff.ModelSpec(coeff.CJ_COORDINATE, 1.0, 0.2)
    tc = _tc_for(spec)
    path = dyn.evolve_second_moments(classical_flow(tc), M0_EVEN)
    for t in np.linspace(0.2, 5.0, 13):
        m = path(float(t))[0]
        A, B, C = dyn.reference_operator(spec, float(t))
        got = A * m.p2 + B * m.x2 + 0.5 * C * m.pxxp
        ref = dyn.closed_form_expectation(spec, M0_EVEN, float(t))
        assert abs(got - ref) <= 1e-6 * max(1.0, abs(ref))


def test_cj_closed_form_requires_even_branch():
    spec = coeff.ModelSpec(coeff.CJ_COORDINATE, 1.0, 0.2)
    with pytest.raises(InvalidMoments):
        dyn.closed_form_expectation(spec, M0, 0.5)


def test_cj_energy_equation_vs_closed_form():
    spec = coeff.ModelSpec(coeff.CJ_COORDINATE, 1.0, 0.2)
    y = dyn.damped_energy_equation_solve(
        spec, M0_EVEN, classical_flow(_tc_for(spec)))
    for t in np.concatenate(([0.01, 0.05], np.linspace(0.2, 5.0, 25))):
        ref = dyn.closed_form_expectation(spec, M0_EVEN, float(t))
        assert abs(y(float(t)) - ref) <= 1e-6 * max(1.0, abs(ref))


REFERENCE_SPECS = {s.model_id: s for s in CLOSED_FORM_SPECS + [
    coeff.ModelSpec(coeff.CJ_COORDINATE, 1.0, 0.2)]}


def test_energy_path_serves_every_reference_operator(solves):
    # the numeric energy path of each of the five records with a reference
    # operator matches its closed form at criterion 5's tolerance (the
    # cj_coordinate curve is the even branch); the other five are refused.
    # The path contracts on the flow it is given and solves none itself
    assert len(REFERENCE_SPECS) == 5
    for model_id in coeff.MODEL_IDS:
        m0 = M0_EVEN if model_id == coeff.CJ_COORDINATE else M0
        spec = REFERENCE_SPECS.get(model_id) or coeff.ModelSpec(
            model_id, 1.0, 0.2, delta=0.5)
        flow = classical_flow(_tc_for(spec))
        n_solves = len(solves)
        if model_id not in REFERENCE_SPECS:
            with pytest.raises(NoClosedForm):
                dyn.damped_energy_equation_solve(spec, m0, flow)
            assert len(solves) == n_solves, model_id
            continue
        y = dyn.damped_energy_equation_solve(spec, m0, flow)
        assert len(solves) == n_solves, model_id
        for t in np.linspace(0.1, 3.0, 11):
            ref = dyn.closed_form_expectation(spec, m0, float(t))
            assert abs(y(float(t)) - ref) <= 1e-8 * max(1.0, abs(ref)), \
                (model_id, t)


def test_dynamics_loads_no_invariants():
    src = os.path.dirname(os.path.dirname(dyn.__file__))
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, quadham.dynamics; "
         "print('quadham.invariants' in sys.modules)"],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True,
        text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


@pytest.mark.parametrize("spec", [
    coeff.ModelSpec(coeff.UNITED, 1.0, 0.3, 0.1),
    coeff.ModelSpec(coeff.CJ_COORDINATE, 1.0, 0.2),
], ids=lambda s: s.model_id)
def test_mean_position_closed_form_vs_ode(spec):
    tc = coeff.builtin_coefficients(spec)
    amp, phase = 0.9, 0.4
    fm0 = dyn.FirstMoments(*spec.closed_form("mean_start")(amp, phase))
    flow = classical_flow(tc)
    path = dyn.evolve_first_moments(flow, fm0)
    for t in np.linspace(0.0, 4.0, 17):
        ref = spec.closed_form("mean_position")(amp, phase, float(t))
        fm, raw = path(float(t))
        assert abs(raw(fm.x) - ref) <= 1e-8


def test_norm_rate_matches_drift_asymmetry():
    # d<1>/dt = (d - c)<1>; for the united model d - c = -mu_param is
    # constant, so the integrated norm decays exponentially at that rate
    spec = coeff.ModelSpec(coeff.UNITED, 1.0, 0.3, 0.1)
    tc = coeff.builtin_coefficients(spec)
    flow = classical_flow(tc)
    path = dyn.evolve_second_moments(flow, M0)
    norm = lambda t: path(t)[1](M0.norm)
    rate = tc.d(0.7) - tc.c(0.7)
    assert norm(0.7) == pytest.approx(math.exp(rate * 0.7) * M0.norm,
                                      rel=1e-10)
    assert norm(2.0) == pytest.approx(math.exp(-0.1 * 2.0), rel=1e-10)
    # the moment paths carry no weight
    assert path(2.0)[0].norm == 1.0


def test_uncertainty_coherent_initial_data():
    m = dyn.SecondMoments(p2=0.54, x2=0.51, pxxp=0.04, norm=1.0)
    fm = dyn.FirstMoments(x=0.1, p=0.2)
    out = dyn.uncertainty_check(m.centred(fm))
    assert abs(out["margin"]) <= 1e-12
    assert out["product"] == pytest.approx(0.5, abs=1e-12)


def test_uncertainty_margin_stays_nonnegative_along_flow():
    spec = coeff.ModelSpec(coeff.CALDIROLA_KANAI, 1.0, 0.1)
    tc = coeff.builtin_coefficients(spec)
    m0 = dyn.SecondMoments(p2=0.54, x2=0.51, pxxp=0.04, norm=1.0)
    fm0 = dyn.FirstMoments(x=0.1, p=0.2)
    flow = classical_flow(tc)
    path = dyn.evolve_second_moments(flow, m0.centred(fm0))
    for t in np.linspace(0.0, 3.0, 13):
        out = dyn.uncertainty_check(path(float(t))[0])
        assert out["margin"] >= -1e-10


def test_uncertainty_rejects_nonpositive_norm():
    with pytest.raises(InvalidMoments):
        dyn.uncertainty_check(dyn.SecondMoments(p2=1.0, x2=1.0, norm=0.0))


def test_uncertainty_rejects_negative_variance():
    with pytest.raises(InvalidMoments):
        dyn.uncertainty_check(dyn.SecondMoments(
            p2=0.1, x2=1.0, norm=1.0).centred(dyn.FirstMoments(0.0, 1.0)))


def test_uncertainty_refuses_a_variance_that_overflows():
    # finite moments whose means overflow when squared: the variances read
    # -inf and were refused as negative (InvalidMoments)
    with pytest.raises(NumericalError) as err:
        dyn.uncertainty_check(dyn.SecondMoments(1e308, 1e308, 0.0, 1.0)
                              .centred(dyn.FirstMoments(1e200, 1e200)))
    assert err.value.info == {"dp2": -math.inf, "dx2": -math.inf,
                              "norm": 1.0}
    assert type(err.value) is NumericalError


def test_uncertainty_refuses_a_product_that_overflows():
    # finite variances and margin whose product delta_p delta_x, in units
    # of a subnormal <1>, overflows
    with pytest.raises(NumericalError) as err:
        dyn.uncertainty_check(dyn.SecondMoments(1e150, 1e150, 0.0, 1e-310))
    assert str(err.value) == "the product delta_p delta_x is not finite"
    assert err.value.info == {"dp2": 1e150, "dx2": 1e150, "norm": 1e-310}
    assert type(err.value) is NumericalError


@seed(36397032687576784568146524156464960145094795763996494280403724795452014768257896721386797702541584032205230202805878)
@settings(max_examples=30, deadline=None, derandomize=True)
@given(dp=st.floats(0.5, 2.0), dx=st.floats(0.5, 2.0),
       xm=st.floats(-1.0, 1.0), pm=st.floats(-1.0, 1.0),
       r=st.floats(-0.8, 0.8))
def test_uncertainty_margin_sign_property(dp, dx, xm, pm, r):
    # build raw moments from centered variances scaled to the admissible
    # region, then check the margin formula reproduces the construction
    cov = r * math.sqrt(dp * dx)
    dp2 = dp + 0.25 / dx + cov * cov / dx
    m = dyn.SecondMoments(p2=dp2 + pm * pm,
                          x2=dx + xm * xm,
                          pxxp=2.0 * (cov + xm * pm), norm=1.0)
    fm = dyn.FirstMoments(x=xm, p=pm)
    out = dyn.uncertainty_check(m.centred(fm))
    assert out["margin"] >= -1e-12
    assert out["dp2"] == pytest.approx(dp2, rel=1e-10)
    assert out["dx2"] == pytest.approx(dx, rel=1e-10)


# means n/16, whose squares are exact, so that a centred variance of
# -2^-41 (above the floor -1e-12) or -2^-38 (below it) survives p2 - p^2
_MEANS = st.builds(lambda n, sign: sign * n / 16.0, st.integers(1, 256),
                   st.sampled_from([-1.0, 1.0]))
_VARIANCES = st.one_of(st.sampled_from([0.0, -2.0 ** -41, -2.0 ** -38]),
                       st.floats(2.0 ** -6, 2.0 ** 6))


def _outcome(flow, m0, f0):
    """The moments and the centred moments per unit <1>, the excess and
    the verdicts of the variance floor and of verify_all's margin floor,
    as reprs."""
    m = dyn.evolve_second_moments(flow, m0)(1.0)[0]
    c = dyn.evolve_second_moments(flow, m0.centred(f0))(1.0)[0]
    try:
        u = dyn.uncertainty_check(c)
    except InvalidMoments:
        return repr((m, c, "below the variance floor"))
    return repr((m, c, u["excess"], u["margin"] >= -1e-10))


@seed(4219)
@settings(max_examples=80, deadline=None, derandomize=True)
@given(point=st.one_of(st.builds(twin.draw_point, st.floats(-3.0, 3.0),
                                 st.floats(-3.0, 3.0), st.floats(-2.0, 2.0),
                                 st.floats(-745.0, 745.0)),
                       st.builds(lambda i: FlowPoint(1.0, 0.0, 0.0, 1.0, i),
                                 st.floats(-745.0, 745.0))),
       vx=_VARIANCES, vp=_VARIANCES, corr=st.floats(-0.9, 0.9),
       xm=_MEANS, pm=_MEANS, k=st.integers(-1000, 1000))
def test_moments_per_unit_do_not_see_the_norm(point, vx, vp, corr, xm, pm,
                                               k):
    # a state of <1>_0 = 2^k has its raw moments 2^k times those of <1>_0
    # = 1: the paths, the excess and both floors read them per unit <1>,
    # so nothing may move by a bit, where absolute floors and a margin
    # in units of <1>^2 moved with k
    cov = corr * math.sqrt(max(vx, 0.0) * max(vp, 0.0))
    unit = (vp + pm * pm, vx + xm * xm, 2.0 * (cov + xm * pm), 1.0, xm, pm)
    # every raw value stays a normal float at |k| <= 1000
    assume(all(v == 0.0 or 2.0 ** -20 <= abs(v) <= 2.0 ** 20 for v in unit))
    flow = twin.FlowStub(point)
    raw = [math.ldexp(v, k) for v in unit]
    assert _outcome(flow, dyn.SecondMoments(*raw[:4]),
                    dyn.FirstMoments(*raw[4:])) == _outcome(
        flow, dyn.SecondMoments(*unit[:4]), dyn.FirstMoments(*unit[4:]))


BASES = [dyn.HyperbolicBasis(lam=0.2, omega=1.0),
         dyn.HyperbolicBasis(lam=0.35, omega=1.4, gamma=0.3)]


@pytest.mark.parametrize("basis", BASES, ids=["plain", "shifted"])
def test_hyperbolic_basis_residuals(basis):
    # avoid the t=0 singularity of the friction coefficient when gamma=0
    for t in np.linspace(0.05, 5.0, 100):
        t = float(t)
        assert basis.y_residual(1, t) <= 1e-9
        assert basis.y_residual(2, t) <= 1e-9
        assert basis.y_particular_residual(t) <= 1e-9
        assert basis.z_residual(1, t) <= 1e-9
        assert basis.z_residual(2, t) <= 1e-9


@pytest.mark.parametrize("basis", BASES, ids=["plain", "shifted"])
def test_hyperbolic_basis_wronskians(basis):
    for t in np.linspace(0.05, 5.0, 100):
        t = float(t)
        assert basis.y_wronskian_residual(t) <= 1e-10
        assert basis.z_wronskian_residual(t) <= 1e-10


@pytest.mark.parametrize("basis", BASES, ids=["plain", "shifted"])
def test_hyperbolic_basis_values(basis):
    # the printed Appendix-D functions, u = lambda t + gamma
    w, lam = basis.omega, basis.lam
    for t in (0.05, 0.4, 1.3, 2.7, 5.0):
        u = lam * t + basis.gamma
        T, ch = math.tanh(u), math.cosh(u)
        c, s = math.cos(w * t), math.sin(w * t)
        expected = {
            "y1": w * T * c - lam * (1.0 + T * T) * s,
            "y2": w * T * s + lam * (1.0 + T * T) * c,
            "y_particular": (1.0 - 2.0 * lam * lam
                             / ((w * w + 4.0 * lam * lam) * ch * ch)) / (w * w),
            "z1": w * c - lam * s / T,
            "z2": w * s + lam * c / T,
        }
        for name, value in expected.items():
            assert getattr(basis, name)(t) == pytest.approx(value,
                                                            rel=1e-14), name


def test_hyperbolic_particular_solution_values():
    basis = dyn.HyperbolicBasis(lam=0.2, omega=1.0)
    w, lam = 1.0, 0.2
    t = 0.9
    ch = math.cosh(lam * t)
    expected = (1.0 - 2.0 * lam * lam
                / ((w * w + 4.0 * lam * lam) * ch * ch)) / (w * w)
    assert basis.y_particular(t) == pytest.approx(expected, rel=1e-14)


def test_hyperbolic_basis_refuses_zero_omega():
    # at omega = 0, y1, z1 and both Wronskians read 0 and Y divides by zero
    basis = dyn.HyperbolicBasis(lam=0.2, omega=0.0)
    calls = [(name, (1.0,)) for name in (
        "y1", "y2", "y_particular", "z1", "z2", "y_wronskian",
        "y_particular_residual", "y_wronskian_residual",
        "z_wronskian_residual")]
    calls += [("z_wronskian", ()), ("y_residual", (1, 1.0)),
              ("y_residual", (2, 1.0)), ("z_residual", (1, 1.0)),
              ("z_residual", (2, 1.0))]
    for name, args in calls:
        with pytest.raises(ValidationError) as exc:
            getattr(basis, name)(*args)
        assert exc.value.info == {"omega": 0.0}, name


def test_hyperbolic_basis_refuses_an_overflowing_cosh():
    # u = lambda t + gamma = 1600: cosh u and sinh 2u overflow, and Y and
    # every residual that reads them ended in a bare OverflowError; the
    # values that read tanh u alone keep serving
    basis = dyn.HyperbolicBasis(lam=800.0, omega=1.0)
    for name, args in (("y_particular", (2.0,)),
                       ("y_particular_residual", (2.0,)),
                       ("y_residual", (1, 2.0)), ("y_residual", (2, 2.0)),
                       ("z_residual", (1, 2.0)), ("z_residual", (2, 2.0))):
        with pytest.raises(NumericalError) as exc:
            getattr(basis, name)(*args)
        assert exc.value.info == {"t": 2.0}, name
    for name in ("y1", "y2", "z1", "z2", "y_wronskian"):
        assert math.isfinite(getattr(basis, name)(2.0)), name
    # below the overflow, sech^2 u rounds to 0 and Y is 1/w^2
    assert dyn.HyperbolicBasis(lam=1.0, omega=2.0).y_particular(400.0) == 0.25


def _appendix_d_pairs(lam, w, gamma):
    """(printed f, basis read, a, b) of each Appendix D pair: the printed
    f = y1 + i y2 = (w T + i lambda (1 + T^2)) e^{i w t}, T = tanh u, and
    f = z1 + i z2 = (w + i lambda coth u) e^{i w t} of mpmath t, the
    basis's complex read, and the a and b of the H with c = d = 0 whose
    x-row equation f solves, u = lambda t + gamma."""
    u = lambda t: lam * t + gamma
    basis = dyn.HyperbolicBasis(lam, w, gamma)
    y = lambda t: (w * mpmath.tanh(u(t)) + 1j * lam * (
        1 + mpmath.tanh(u(t)) ** 2)) * mpmath.expj(w * t)
    z = lambda t: (w + 1j * lam / mpmath.tanh(u(t))) * mpmath.expj(w * t)
    return [(y, lambda t: complex(basis.y1(t), basis.y2(t)),
             lambda t: 0.5 * w * math.tanh(u(t)) ** 2,
             lambda t: (w * w + 2.0 * lam * lam / math.cosh(u(t)) ** 2)
             / (2.0 * w * math.tanh(u(t)) ** 2)),
            (z, lambda t: complex(basis.z1(t), basis.z2(t)),
             lambda t: 0.5,
             lambda t: 0.5 * (w * w - 2.0 * lam * lam / math.sinh(u(t)) ** 2))]


@seed(20261057)
@settings(max_examples=25, deadline=None, derandomize=True)
@given(lam=st.floats(0.05, 1.0), omega=st.floats(0.3, 3.0),
       gamma=st.floats(0.2, 1.5), t_end=st.floats(1.0, 6.0))
def test_appendix_d_pairs_ride_the_flows_of_their_hamiltonians(
        lam, omega, gamma, t_end):
    # each pair is the x row of its H's flow from f(0) and f'(0), the
    # printed pair's at 40 digits: f(t) = f(0) M11 + f'(0) M12 / 2a(0),
    # held to the flow's error, FLOW_TOL per step of |M|; u >= gamma > 0
    zero = lambda t: 0.0
    for printed, read, a, b in _appendix_d_pairs(lam, omega, gamma):
        with mpmath.workdps(40):
            t0 = mpmath.mpf(0)
            f0, df0 = complex(printed(t0)), complex(mpmath.diff(printed, t0))
        g = df0 / (2.0 * a(0.0))
        flow = classical_flow(coeff.TimeCoefficients(a, b, zero, zero))
        flow.at(t_end)
        for t in np.linspace(t_end / 10, t_end, 10):
            p = flow.at(float(t))
            err = abs(read(float(t)) - (f0 * p.m11 + g * p.m12))
            assert err <= FLOW_TOL * flow.n_steps * max(map(abs, p[:4])) * (
                abs(f0) + abs(g)), (float(t), err)


def _anywhere(rng):
    """A float of either sign, log-uniform over the whole float range from
    the subnormals up, or 0 one time in 50."""
    if rng.random() < 0.02:
        return 0.0
    return rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-322.0, 308.0)


def test_every_hyperbolic_read_is_finite_or_typed():
    # one public read per seeded draw of (lambda, omega, gamma, t) over
    # the whole float range returns a finite float or raises a typed
    # error; past an overflow on the way, NumericalError names t.  At
    # lambda = 2, omega = gamma = 1e-320, z2(0) read inf, and at
    # lambda = 1e308 y1 and y2 read nan
    for basis, name in ((dyn.HyperbolicBasis(2.0, 1e-320, 1e-320), "z2"),
                        (dyn.HyperbolicBasis(1e308, 1.0), "y1"),
                        (dyn.HyperbolicBasis(1e308, 1.0), "y2")):
        with pytest.raises(NumericalError) as exc:
            getattr(basis, name)(0.0 if name == "z2" else 1.0)
        assert exc.value.info == {"t": 0.0 if name == "z2" else 1.0}
    rng = random.Random(20261056)
    names = [name for name in vars(dyn.HyperbolicBasis) if name[0] in "yz"]
    for _ in range(40_000):
        basis = dyn.HyperbolicBasis(*(_anywhere(rng) for _ in range(3)))
        name, t = rng.choice(names), _anywhere(rng)
        args = {"z_wronskian": (), "y_residual": (rng.choice((1, 2)), t),
                "z_residual": (rng.choice((1, 2)), t)}.get(name, (t,))
        try:
            value = getattr(basis, name)(*args)
        except (ValidationError, SingularCoefficient):
            # omega = 0, or lambda t + gamma = 0
            pass
        except NumericalError as exc:
            # the z Wronskian has no t: where it overflows, omega is named
            allowed = [{"t": t}] if args else []
            if name.startswith("z_wronskian"):
                allowed.append({"omega": basis.omega})
            assert exc.info in allowed, (basis, name, args)
        else:
            assert math.isfinite(value), (basis, name, args, value)


def test_variances_require_positive_norm():
    m = dyn.SecondMoments(p2=1.0, x2=1.0, norm=-1.0)
    with pytest.raises(InvalidMoments):
        m.centred(dyn.FirstMoments(0.1, 0.1))


@pytest.mark.parametrize("delta, t_end", [(-0.5, 1.0), (0.5, -1.0)])
def test_window_across_parametric_singularity_is_refused(delta, t_end):
    # tanh(lam t + delta) vanishes at t = -delta / lam inside the window;
    # the moment solve used to crawl towards it for about a minute.  No
    # step crosses it, so the same flow serves a time before it
    spec = coeff.ModelSpec(coeff.MODIFIED_PARAMETRIC, 1.0, 1.0, delta=delta)
    tc = coeff.builtin_coefficients(spec)
    flow = classical_flow(tc)
    with pytest.raises(SingularCoefficient) as exc:
        flow.at(t_end)
    assert exc.value.info["t_singular"] == tc.t_singular == -delta
    path = dyn.evolve_second_moments(flow, M0)
    assert math.isfinite(path(0.4 * t_end)[0].x2)
    assert all(abs(t) < abs(tc.t_singular) for t in flow.t)


def test_reference_operator_validates_the_spec():
    # lambda > omega0 is overdamped: the spec is refused when it is built,
    # so there is no spec to ask for a reference operator or a curve
    with pytest.raises(InvalidModelParams):
        coeff.ModelSpec(coeff.CALDIROLA_KANAI, 1.0, 2.0)


@pytest.mark.parametrize("model_id", [m for m in coeff.MODEL_IDS if m not in (
    coeff.UNITED, coeff.CJ_COORDINATE)])
def test_mean_position_only_for_damped_models(model_id):
    spec = coeff.ModelSpec(model_id, 1.0, 0.2, delta=0.5)
    with pytest.raises(NoClosedForm):
        spec.closed_form("mean_position")
    with pytest.raises(NoClosedForm):
        spec.closed_form("mean_start")


def test_long_window_second_moments():
    # about 64 periods of the oscillator: x -> x cos t + p sin t,
    # p -> p cos t - x sin t.  A moment ODE at tol 1e-12 ran out of steps
    # at t ~ 330; the flow is served
    spec = coeff.ModelSpec(coeff.SIMPLE_HARMONIC, 1.0)
    tc = coeff.builtin_coefficients(spec)
    path = dyn.evolve_second_moments(classical_flow(tc), M0)
    for t in np.linspace(0.0, 400.0, 41):
        c, s = math.cos(t), math.sin(t)
        m = path(float(t))[0]
        ref = (M0.p2 * c * c + M0.x2 * s * s - M0.pxxp * s * c,
               M0.x2 * c * c + M0.p2 * s * s + M0.pxxp * s * c,
               M0.pxxp * (c * c - s * s) + 2.0 * s * c * (M0.p2 - M0.x2))
        for got, want in zip((m.p2, m.x2, m.pxxp), ref):
            assert abs(got - want) <= 1e-8 * max(1.0, abs(want))
    assert path(400.0)[0].norm == 1.0


def test_paths_read_past_the_solved_steps():
    # a flow solved to 1 extrapolated: SHO p2 read 152.6 at t = 6, where
    # the exact value is 1.  A read past the last step point on either side
    # continues the solve; a t that is not finite is refused
    tc = coeff.builtin_coefficients(coeff.ModelSpec(coeff.SIMPLE_HARMONIC))
    m0 = dyn.SecondMoments(p2=1.0, x2=1.0)
    flow = classical_flow(tc)
    paths = [dyn.evolve_second_moments(flow, m0),
             dyn.evolve_first_moments(flow, dyn.FirstMoments(0.1, 0.2)),
             inv.solve_energy_system(flow, (1.0, 1.0, 0.0, 0.0)),
             inv.general_invariant(flow, 1.0, 0.0, 1.0),
             inv.ladder_factorization(flow, 1.0, 0.0, 1.0)]
    for path in paths:
        path(0.0)
        path(1.0)
        for t in (6.0, 1.0 + 1e-9, -0.1):
            path(t)
        for t in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValidationError):
                path(t)
    for t in (1.0, 6.0, -0.1, -1.0):
        assert paths[0](t)[0].p2 == pytest.approx(1.0, rel=1e-10)
