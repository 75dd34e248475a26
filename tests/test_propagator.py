import cmath
import math

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from quadham import characteristic as chr_mod
from quadham import coefficients as coeff
from quadham import propagator as prop
from quadham.errors import (CausticEncountered, DegenerateWidth,
                            NonNormalizable, NumericalError, UnderResolved,
                            ValidationError)
from helpers import grid_gaussian, solve_kernel
from schrodinger import schrodinger_residual


SHO = coeff.ModelSpec(coeff.SIMPLE_HARMONIC, 1.0)
CK = coeff.ModelSpec(coeff.CALDIROLA_KANAI, 1.0, 0.1)


def _dense_grid_sum(kp, phi):
    """Small-N oracle: the trapezoid sum through the full N x N kernel."""
    x = y = phi.x
    weights = np.full(y.size, phi.dx)
    weights[0] *= 0.5
    weights[-1] *= 0.5
    kernel = np.exp(1j * (kp.alpha * x[:, None] ** 2
                          + kp.beta * np.outer(x, y)
                          + kp.gamma * y[None, :] ** 2))
    pref = 1.0 / cmath.sqrt(2.0 * math.pi * 1j * kp.mu)
    return pref * kernel @ (weights * phi.values)


def test_sho_quarter_period_green():
    # at t = pi/2: alpha = gamma = 0, beta = -1, prefactor (2 pi i)^(-1/2)
    _, _, kernel_of = solve_kernel(SHO, 2.0)
    kp = kernel_of(math.pi / 2)
    g = prop.green_eval(kp, 0.7, -0.4)
    expected = cmath.exp(-1j * 0.7 * (-0.4)) / cmath.sqrt(2j * math.pi)
    assert abs(g - expected) <= 1e-8 * abs(expected)


def test_green_symmetric_when_alpha_equals_gamma():
    _, _, kernel_of = solve_kernel(SHO, 1.0)
    kp = kernel_of(0.6)
    ga = prop.green_eval(kp, 0.3, 1.1)
    gb = prop.green_eval(kp, 1.1, 0.3)
    # alpha and gamma come from different components of the ODE solution;
    # agreement is limited by the solver tolerance, not machine epsilon
    assert abs(ga - gb) < 1e-8 * abs(ga)


def test_free_particle_width_spread():
    # unit Gaussian Lambda = i/2 spreads as Im Lambda = 1/(2(1 + t^2))
    spec = coeff.ModelSpec(coeff.FREE_PARTICLE)
    _, _, kernel_of = solve_kernel(spec, 3.0)
    s0 = prop.GaussianState(Lambda=0.5j)
    for t in (0.4, 1.0, 2.5):
        out = prop.propagate_gaussian(kernel_of(t), s0)
        assert out.Lambda.imag == pytest.approx(
            1.0 / (2.0 * (1.0 + t * t)), rel=1e-9)


def test_sho_coherent_center_oscillates():
    # coherent state centered at x0 follows x0 cos(t)
    _, _, kernel_of = solve_kernel(SHO, 3.0)
    x0 = 0.8
    s0 = prop.GaussianState(Lambda=0.5j, Theta=-1j * x0)
    n0 = s0.norm_sq()
    for t in (0.3, 1.0, 2.2):
        out = prop.propagate_gaussian(kernel_of(t), s0)
        m = out.moments()
        assert m["x"] / m["norm"] == pytest.approx(x0 * math.cos(t),
                                                   abs=1e-9)
        # unitary evolution preserves the norm
        assert m["norm"] == pytest.approx(n0, rel=1e-9)


@pytest.mark.parametrize("state", [
    prop.GaussianState(Lambda=0.5j, Theta=50j),
    prop.GaussianState(Lambda=0.5j, Phi=-400j),
    # exp stays finite and the product with the width factor overflows
    prop.GaussianState(Lambda=1e-300j, Phi=-250j)],
    ids=["theta", "phi", "width"])
def test_an_overflowing_norm_is_a_numerical_error(state):
    # exp(Im Theta^2 / (2 Im Lambda) - 2 Im Phi) beyond the float range
    # ended in a bare OverflowError, or in an infinite norm
    for read in (state.norm_sq, state.moments):
        with pytest.raises(NumericalError) as exc:
            read()
        assert exc.value.info == {"Lambda": state.Lambda,
                                  "Theta": state.Theta, "Phi": state.Phi}


def test_a_moment_that_overflows_is_a_numerical_error():
    # the norm is finite (6.5e171) and <x> and <x^2> times it are not: they
    # read -inf and inf, and <p^2> -6.4e-127 from an underflowed Lambda^2
    state = prop.GaussianState(1e-300j, 1e-149j)
    assert math.isfinite(state.norm_sq())
    with pytest.raises(NumericalError) as exc:
        state.moments()
    assert exc.value.info == {"Lambda": state.Lambda, "Theta": state.Theta,
                              "Phi": state.Phi}


@pytest.mark.parametrize("state", [
    prop.GaussianState(Lambda=0.5j),
    prop.GaussianState(Lambda=0.3 + 0.7j, Theta=0.4 - 0.2j, Phi=0.1 + 0.2j),
    prop.GaussianState(Lambda=-1.5 + 0.2j, Theta=-2.0 + 1.5j)])
def test_p2_is_the_mean_square_of_psi_prime(state):
    # <p^2> = int |psi'|^2 with psi' = i (2 Lambda x + Theta) psi, by
    # trapezoid quadrature over 12 widths each side of <x>
    m = state.moments()
    width = 0.5 / math.sqrt(state.Lambda.imag)
    x, dx = np.linspace(-12.0, 12.0, 20001, retstep=True)
    x = m["x"] / m["norm"] + width * x
    f = np.abs(1j * (2.0 * state.Lambda * x + state.Theta)
               * state.eval(x)) ** 2
    p2 = width * dx * (f.sum() - 0.5 * (f[0] + f[-1]))
    assert m["p2"] == pytest.approx(p2, rel=1e-10)


def test_p2_is_exact_where_lambda_squared_underflows():
    # Lambda^2 = -1e-320 is subnormal: the expanded form read <p^2> / <1>
    # 1.00002e-160, where it is |Lambda|^2 / Im Lambda = 1e-160
    state = prop.GaussianState(1e-160j, 1e-80j)
    m = state.moments()
    assert m["p2"] / m["norm"] == pytest.approx(1e-160, rel=1e-14, abs=0.0)


@pytest.mark.parametrize("theta", [1e200, 1e155j])
def test_a_propagated_gaussian_that_overflows_is_a_numerical_error(theta):
    # Theta^2 overflows: a bare OverflowError from complex exponentiation
    _, _, kernel_of = solve_kernel(SHO, 1.0)
    with pytest.raises(NumericalError) as exc:
        prop.propagate_gaussian(kernel_of(0.25),
                                prop.GaussianState(0.5j, theta))
    assert exc.value.info == {"t": 0.25}


def test_a_propagated_width_that_underflows_is_a_numerical_error():
    # Im Lambda' = beta^2 Im A / (4 |A|^2) underflows to 0 from a valid,
    # very narrow start state: a numerical failure naming t, not the
    # NonNormalizable of a bad input
    _, _, kernel_of = solve_kernel(SHO, 1.0)
    with pytest.raises(NumericalError) as exc:
        prop.propagate_gaussian(kernel_of(0.25), prop.GaussianState(1e308j))
    assert exc.value.info["t"] == 0.25
    assert exc.value.info["Lambda"].imag == 0.0


def test_norm_law_self_adjoint_gaussian():
    # norm conserved to 1e-8 when the drift terms are symmetric
    _, _, kernel_of = solve_kernel(SHO, 2.0)
    s0 = prop.GaussianState(Lambda=0.2 + 0.7j, Theta=0.3 - 0.2j, Phi=0.1)
    n0 = s0.norm_sq()
    for t in np.linspace(0.1, 2.0, 8):
        out = prop.propagate_gaussian(kernel_of(float(t)), s0)
        assert abs(out.norm_sq() - n0) <= 1e-8 * n0


def test_norm_law_united_gaussian():
    # norm decays exactly like exp(-mu_param t) for the united model
    spec = coeff.ModelSpec(coeff.UNITED, 1.0, 0.3, 0.1)
    _, _, kernel_of = solve_kernel(spec, 1.5)
    s0 = prop.GaussianState(Lambda=0.6j, Theta=0.2)
    n0 = s0.norm_sq()
    for t in (0.4, 0.9, 1.4):
        out = prop.propagate_gaussian(kernel_of(t), s0)
        assert out.norm_sq() / n0 == pytest.approx(math.exp(-0.1 * t),
                                                   rel=1e-8)


def test_branch_phase_continuity():
    # sweep close to the focal point at pi from below: for this oscillator
    # and width 2 mu A = e^{it}, so Phi = (i/2) log(2 mu A) is -t/2 on the
    # principal branch, with no jump
    _, _, kernel_of = solve_kernel(SHO, 7.0)
    times = [float(t) for t in np.arange(0.05, 3.05, 0.01)]
    s0 = prop.GaussianState(Lambda=0.5j)
    states = prop.gaussian_sweep(kernel_of, times, s0)
    phis = np.array([s.Phi for s in states])
    assert np.allclose(phis, -0.5 * np.array(times), rtol=0.0, atol=1e-7)
    # the sweep is the plain map over times, bit for bit
    assert [repr(s) for s in states] == [
        repr(prop.propagate_gaussian(kernel_of(t), s0)) for t in times]


def test_sweep_conserves_norm():
    _, _, kernel_of = solve_kernel(SHO, 7.0)
    times = [2.6, 2.8, 3.0, 3.1]
    s0 = prop.GaussianState(Lambda=0.5j, Theta=0.4)
    states = prop.gaussian_sweep(kernel_of, times, s0)
    n0 = s0.norm_sq()
    for s in states:
        assert s.norm_sq() == pytest.approx(n0, rel=1e-7)


def test_grid_matches_gaussian_closed_form():
    # quadrature superposition against the exact Gaussian update
    _, _, kernel_of = solve_kernel(SHO, 1.0)
    kp = kernel_of(0.7)
    n = 2048
    x0, x1 = -12.0, 12.0
    dx = (x1 - x0) / (n - 1)
    x = x0 + dx * np.arange(n)
    s0 = prop.GaussianState(Lambda=0.5j, Theta=0.3 - 0.5j)
    phi = prop.GridState(x0, dx, s0.eval(x))
    out_grid = prop.propagate_grid(kp, phi)
    out_exact = prop.propagate_gaussian(kp, s0).eval(x)
    assert np.max(np.abs(out_grid.values - out_exact)) <= 1e-6


def test_grid_matches_gaussian_closed_form_large_n():
    # the dense kernel of this size would take 4 GB
    _, _, kernel_of = solve_kernel(SHO, 1.0)
    kp = kernel_of(0.7)
    s0 = prop.GaussianState(Lambda=0.5j, Theta=0.3 - 0.5j)
    phi = grid_gaussian(s0, 12.0, 16384)
    out_grid = prop.propagate_grid(kp, phi)
    out_exact = prop.propagate_gaussian(kp, s0).eval(phi.x)
    assert np.max(np.abs(out_grid.values - out_exact)) <= 1e-6


@pytest.mark.parametrize("spec", [
    CK, SHO,
    coeff.ModelSpec(coeff.UNITED, 1.0, 0.3, 0.1),
    coeff.ModelSpec(coeff.MODIFIED_OSCILLATOR),
    coeff.ModelSpec(coeff.CJ_MOMENTUM, 1.0, 0.2),
    coeff.ModelSpec(coeff.FREE_PARTICLE),
], ids=lambda s: s.model_id)
def test_grid_transform_matches_dense_sum(spec):
    # N = 1000 is not a power of two
    _, _, kernel_of = solve_kernel(spec, 1.0)
    kp = kernel_of(0.6)
    phi = grid_gaussian(prop.GaussianState(0.2 + 0.5j, 0.3 - 0.2j), 8.0,
                        1000)
    got = prop.propagate_grid(kp, phi).values
    ref = _dense_grid_sum(kp, phi)
    assert np.max(np.abs(got - ref)) <= 1e-10 * np.max(np.abs(ref))


def test_grid_zero_state_stays_zero():
    _, _, kernel_of = solve_kernel(SHO, 1.0)
    phi = prop.GridState(-5.0, 0.1, np.zeros(101, dtype=complex))
    out = prop.propagate_grid(kernel_of(0.5), phi)
    assert np.all(out.values == 0)


def test_grid_rejects_non_decaying_source():
    _, _, kernel_of = solve_kernel(SHO, 1.0)
    x = -2.0 + 0.1 * np.arange(41)
    phi = prop.GridState(-2.0, 0.1, np.exp(-x ** 2 / 2))
    with pytest.raises(UnderResolved):
        prop.propagate_grid(kernel_of(0.5), phi)


def test_grid_rejects_coarse_sampling():
    _, _, kernel_of = solve_kernel(SHO, 1.0)
    x = -30.0 + 2.0 * np.arange(31)
    phi = prop.GridState(-30.0, 2.0, np.exp(-x ** 2 / 2))
    with pytest.raises(UnderResolved):
        prop.propagate_grid(kernel_of(0.5), phi)


def test_nonnormalizable_and_degenerate_guards():
    with pytest.raises(NonNormalizable):
        prop.GaussianState(Lambda=0.5 - 0.1j)
    _, _, kernel_of = solve_kernel(SHO, 1.0)
    kp = kernel_of(0.4)
    # a state engineered so gamma + Lambda ~ 0 is rejected
    with pytest.raises((DegenerateWidth, NonNormalizable)):
        prop.propagate_gaussian(kp, prop.GaussianState(
            Lambda=complex(-kp.gamma, 1e-13)))


@pytest.mark.parametrize("params", [
    {"Lambda": complex(math.nan, 0.5)},
    {"Lambda": complex(0.1, math.inf)},
    {"Lambda": 0.5j, "Theta": complex(0.2, math.nan)},
    {"Lambda": 0.5j, "Phi": math.inf},
])
def test_gaussian_state_refuses_non_finite_parameters(params):
    # unchecked, a nan Lambda reaches propagate_gaussian and is refused there
    # as not normalizable, and an infinite Im(Lambda) gives nan momentum
    # moments
    with pytest.raises(ValidationError):
        prop.GaussianState(**params)


@pytest.mark.parametrize("x0, dx, values", [
    (0.0, 0.0, np.ones(16)),
    (0.0, -0.1, np.ones(16)),
    (0.0, math.nan, np.ones(16)),
    (0.0, math.inf, np.ones(16)),
    (math.nan, 0.1, np.ones(16)),
    (0.0, 0.1, np.ones(7)),
    (0.0, 0.1, np.r_[np.ones(15), math.nan]),
    (0.0, 0.1, np.r_[np.ones(15), complex(0.0, math.inf)]),
])
def test_grid_state_refuses_bad_grids_and_non_finite_samples(x0, dx, values):
    # unchecked, one nan sample evolves to nan and gives nan moments
    with pytest.raises(ValidationError):
        prop.GridState(x0, dx, values)


def test_grid_state_refuses_values_that_are_not_1d():
    # unrefused, a (4, 4) array passes the size check, and measure_moments,
    # evolve_grid and propagate_grid each end in numpy's ValueError
    with pytest.raises(ValidationError) as err:
        prop.GridState(0.0, 0.1, np.ones((4, 4)))
    assert err.value.info["shape"] == (4, 4)


@pytest.mark.parametrize("reader", [
    lambda kp: prop.green_eval(kp, 0.3, -0.2),
    lambda kp: prop.propagate_gaussian(kp, prop.GaussianState(0.5j, 0.2)),
    lambda kp: prop.propagate_grid(
        kp, grid_gaussian(prop.GaussianState(0.5j), 8.0, 256)),
], ids=["green_eval", "propagate_gaussian", "propagate_grid"])
def test_caustic_guard_in_green_eval(reader):
    _, _, kernel_of = solve_kernel(SHO, 4.0)
    with pytest.raises(CausticEncountered):
        kernel_of(math.pi - 1e-13)
    # kernel_parameters refuses first; a hand-built kernel meets the guard
    # of each kernel reader itself
    kp = chr_mod.KernelParameters(t=1.0, mu=0.0, mu_prime=1.0, h=1.0,
                                  alpha=0.5, beta=-1.0, gamma=0.5)
    with pytest.raises(CausticEncountered) as err:
        reader(kp)
    assert err.value.info["t"] == 1.0


def test_residual_sho():
    tc, _, kernel_of = solve_kernel(SHO, 1.0)
    assert schrodinger_residual(tc, kernel_of, 0.6, -0.3, 0.5,
                                fd_step=1e-4) <= 1e-6


def test_residual_mpo():
    # mu(0.4) ~ 0.094 is small here, so the O(h^2) truncation needs a
    # finer step than the default to reach the tolerance; the clean 4x
    # scaling below confirms the kernel itself satisfies the equation
    spec = coeff.ModelSpec(coeff.MODIFIED_PARAMETRIC, 1.0, 0.2, delta=0.5)
    tc, _, kernel_of = solve_kernel(spec, 1.0)
    r_fine = schrodinger_residual(tc, kernel_of, 0.3, -0.2, 0.4,
                                  fd_step=2.5e-4)
    assert r_fine <= 1e-5
    r_coarse = schrodinger_residual(tc, kernel_of, 0.3, -0.2, 0.4,
                                    fd_step=5e-4)
    assert 3.5 <= r_coarse / r_fine <= 4.5


def test_residual_fd_halving_is_second_order():
    tc, _, kernel_of = solve_kernel(CK, 1.0)
    r1 = schrodinger_residual(tc, kernel_of, 0.5, 0.2, 0.6,
                              fd_step=2e-3)
    r2 = schrodinger_residual(tc, kernel_of, 0.5, 0.2, 0.6,
                              fd_step=1e-3)
    assert 3.5 <= r1 / r2 <= 4.5


def test_delta_like_source_spreads_linearly():
    # narrow free-particle Gaussian: width^2 grows ~ t^2 / (4 li0)
    spec = coeff.ModelSpec(coeff.FREE_PARTICLE)
    _, _, kernel_of = solve_kernel(spec, 2.0)
    li0 = 200.0
    s0 = prop.GaussianState(Lambda=1j * li0)
    for t in (0.5, 1.0, 2.0):
        out = prop.propagate_gaussian(kernel_of(t), s0)
        width_sq = 1.0 / (4.0 * out.Lambda.imag)
        assert width_sq == pytest.approx(
            1.0 / (4 * li0) + li0 * t * t, rel=1e-9)


@seed(18097941866195524649892026862655422347937936947125260658927008065523049290010848592821830547311232581530748482096031)
@settings(max_examples=25, deadline=None, derandomize=True)
@given(lr=st.floats(-1.0, 1.0), li=st.floats(0.1, 2.0),
       tr=st.floats(-1.0, 1.0), ti=st.floats(-1.0, 1.0),
       t=st.floats(0.1, 2.0))
def test_gaussian_norm_is_conserved_property(lr, li, tr, ti, t):
    _, _, kernel_of = solve_kernel(SHO, 2.1)
    s0 = prop.GaussianState(Lambda=complex(lr, li), Theta=complex(tr, ti))
    out = prop.propagate_gaussian(kernel_of(t), s0)
    assert out.norm_sq() == pytest.approx(s0.norm_sq(), rel=1e-7)


@seed(32384353742886974724920283478466496930616889166555070106590436423480868476743082270762804882094207405662191472595116)
@settings(max_examples=25, deadline=None, derandomize=True)
@given(x=st.floats(-0.6, 0.6), y=st.floats(-0.6, 0.6),
       t=st.floats(0.7, 1.3))
def test_residual_property_random_triples(x, y, t):
    # the fd truncation grows like (phase rate)^3 h^2; small t and large
    # |x|, |y| push it past the tolerance, so sample a moderate window
    tc, _, kernel_of = solve_kernel(CK, 1.5)
    assert schrodinger_residual(tc, kernel_of, x, y, t) <= 1e-5
