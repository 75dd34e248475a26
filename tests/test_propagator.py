import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quadham import characteristic as chr_mod
from quadham import coefficients as coeff
from quadham import propagator as prop
from quadham.errors import (CausticEncountered, DegenerateWidth,
                            NonNormalizable, UnderResolved, ValidationError)


def _kernel_of(spec, horizon):
    tc = coeff.builtin_coefficients(spec, coeff.EQUATION)
    path = chr_mod.solve_characteristic(tc, horizon)
    return tc, path, lambda t: chr_mod.kernel_parameters(tc, path, t)


SHO = coeff.ModelSpec(coeff.SIMPLE_HARMONIC, 1.0)
CK = coeff.ModelSpec(coeff.CALDIROLA_KANAI, 1.0, 0.1)


def _dense_grid_sum(kp, phi, target_grid=None):
    """Small-N oracle: the trapezoid sum through the full N x N kernel."""
    x0, dx, n = target_grid or (phi.x0, phi.dx, phi.values.size)
    x = x0 + dx * np.arange(n)
    y = phi.x
    weights = np.full(y.size, phi.dx)
    weights[0] *= 0.5
    weights[-1] *= 0.5
    kernel = np.exp(1j * (kp.alpha * x[:, None] ** 2
                          + kp.beta * np.outer(x, y)
                          + kp.gamma * y[None, :] ** 2))
    pref = 1.0 / cmath.sqrt(2.0 * math.pi * 1j * kp.mu)
    return pref * kernel @ (weights * phi.values)


def _grid_gaussian(state, half_width, n):
    dx = 2.0 * half_width / (n - 1)
    return prop.GridState(-half_width, dx,
                          state.eval(-half_width + dx * np.arange(n)))


def test_sho_quarter_period_green():
    # at t = pi/2: alpha = gamma = 0, beta = -1, prefactor (2 pi i)^(-1/2)
    _, _, kernel_of = _kernel_of(SHO, 2.0)
    kp = kernel_of(math.pi / 2)
    g = prop.green_eval(kp, 0.7, -0.4)
    expected = cmath.exp(-1j * 0.7 * (-0.4)) / cmath.sqrt(2j * math.pi)
    assert abs(g - expected) <= 1e-8 * abs(expected)


def test_green_symmetric_when_alpha_equals_gamma():
    _, _, kernel_of = _kernel_of(SHO, 1.0)
    kp = kernel_of(0.6)
    ga = prop.green_eval(kp, 0.3, 1.1)
    gb = prop.green_eval(kp, 1.1, 0.3)
    # alpha and gamma come from different components of the ODE solution;
    # agreement is limited by the solver tolerance, not machine epsilon
    assert abs(ga - gb) < 1e-8 * abs(ga)


def test_free_particle_width_spread():
    # unit Gaussian Lambda = i/2 spreads as Im Lambda = 1/(2(1 + t^2))
    spec = coeff.ModelSpec(coeff.FREE_PARTICLE)
    _, _, kernel_of = _kernel_of(spec, 3.0)
    s0 = prop.GaussianState(Lambda=0.5j)
    for t in (0.4, 1.0, 2.5):
        out = prop.propagate_gaussian(kernel_of(t), s0)
        assert out.Lambda.imag == pytest.approx(
            1.0 / (2.0 * (1.0 + t * t)), rel=1e-9)


def test_sho_coherent_center_oscillates():
    # coherent state centered at x0 follows x0 cos(t)
    _, _, kernel_of = _kernel_of(SHO, 3.0)
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


def test_norm_law_self_adjoint_gaussian():
    # norm conserved to 1e-8 when the drift terms are symmetric
    _, _, kernel_of = _kernel_of(SHO, 2.0)
    s0 = prop.GaussianState(Lambda=0.2 + 0.7j, Theta=0.3 - 0.2j, Phi=0.1)
    n0 = s0.norm_sq()
    for t in np.linspace(0.1, 2.0, 8):
        out = prop.propagate_gaussian(kernel_of(float(t)), s0)
        assert abs(out.norm_sq() - n0) <= 1e-8 * n0


def test_norm_law_united_gaussian():
    # norm decays exactly like exp(-mu_param t) for the united model
    spec = coeff.ModelSpec(coeff.UNITED, 1.0, 0.3, 0.1)
    _, _, kernel_of = _kernel_of(spec, 1.5)
    s0 = prop.GaussianState(Lambda=0.6j, Theta=0.2)
    n0 = s0.norm_sq()
    for t in (0.4, 0.9, 1.4):
        out = prop.propagate_gaussian(kernel_of(t), s0)
        assert out.norm_sq() / n0 == pytest.approx(math.exp(-0.1 * t),
                                                   rel=1e-8)


def test_branch_phase_continuity():
    # sweep close to the focal point from below: the principal-branch cut
    # of the prefactor is crossed, but the tracked phase moves smoothly
    _, _, kernel_of = _kernel_of(SHO, 7.0)
    times = np.arange(0.05, 3.05, 0.01)
    s0 = prop.GaussianState(Lambda=0.5j)
    states = prop.gaussian_sweep(kernel_of, times, s0)
    phases = np.array([s.branch_phase for s in states])
    assert np.max(np.abs(np.diff(phases))) <= math.pi / 2
    # for this oscillator and width 2 mu A = e^{it}, so the tracked
    # phase equals t itself
    assert np.allclose(phases, times, atol=1e-7)


def test_sweep_conserves_norm():
    _, _, kernel_of = _kernel_of(SHO, 7.0)
    times = [2.6, 2.8, 3.0, 3.1]
    s0 = prop.GaussianState(Lambda=0.5j, Theta=0.4)
    states = prop.gaussian_sweep(kernel_of, times, s0)
    n0 = s0.norm_sq()
    for s in states:
        assert s.norm_sq() == pytest.approx(n0, rel=1e-7)


def test_grid_matches_gaussian_closed_form():
    # quadrature superposition against the exact Gaussian update
    _, _, kernel_of = _kernel_of(SHO, 1.0)
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
    _, _, kernel_of = _kernel_of(SHO, 1.0)
    kp = kernel_of(0.7)
    s0 = prop.GaussianState(Lambda=0.5j, Theta=0.3 - 0.5j)
    phi = _grid_gaussian(s0, 12.0, 16384)
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
    _, _, kernel_of = _kernel_of(spec, 1.0)
    kp = kernel_of(0.6)
    phi = _grid_gaussian(prop.GaussianState(0.2 + 0.5j, 0.3 - 0.2j), 8.0,
                         1000)
    got = prop.propagate_grid(kp, phi).values
    ref = _dense_grid_sum(kp, phi)
    assert np.max(np.abs(got - ref)) <= 1e-10 * np.max(np.abs(ref))


def test_grid_transform_on_target_grid():
    # output grid with its own origin, spacing and size
    _, _, kernel_of = _kernel_of(CK, 1.0)
    kp = kernel_of(0.5)
    phi = _grid_gaussian(prop.GaussianState(0.5j, 0.4), 10.0, 900)
    target = (-4.3, 0.0137, 701)
    out = prop.propagate_grid(kp, phi, target_grid=target)
    assert (out.x0, out.dx, out.values.size) == target
    ref = _dense_grid_sum(kp, phi, target)
    assert np.max(np.abs(out.values - ref)) <= 1e-10 * np.max(np.abs(ref))


def test_grid_zero_state_stays_zero():
    _, _, kernel_of = _kernel_of(SHO, 1.0)
    phi = prop.GridState(-5.0, 0.1, np.zeros(101, dtype=complex))
    out = prop.propagate_grid(kernel_of(0.5), phi)
    assert np.all(out.values == 0)


def test_grid_rejects_non_decaying_source():
    _, _, kernel_of = _kernel_of(SHO, 1.0)
    x = -2.0 + 0.1 * np.arange(41)
    phi = prop.GridState(-2.0, 0.1, np.exp(-x ** 2 / 2))
    with pytest.raises(UnderResolved):
        prop.propagate_grid(kernel_of(0.5), phi)


def test_grid_rejects_coarse_sampling():
    _, _, kernel_of = _kernel_of(SHO, 1.0)
    x = -30.0 + 2.0 * np.arange(31)
    phi = prop.GridState(-30.0, 2.0, np.exp(-x ** 2 / 2))
    with pytest.raises(UnderResolved):
        prop.propagate_grid(kernel_of(0.5), phi)


def test_nonnormalizable_and_degenerate_guards():
    with pytest.raises(NonNormalizable):
        prop.GaussianState(Lambda=0.5 - 0.1j)
    _, _, kernel_of = _kernel_of(SHO, 1.0)
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
    # unchecked, a nan Lambda fails in propagate_gaussian's round() with a
    # bare ValueError, and an infinite Im(Lambda) gives nan momentum moments
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


def test_caustic_guard_in_green_eval():
    _, _, kernel_of = _kernel_of(SHO, 4.0)
    with pytest.raises(CausticEncountered):
        kernel_of(math.pi - 1e-13)
    # kernel_parameters refuses first; a hand-built kernel meets the guard
    # of green_eval itself
    kp = chr_mod.KernelParameters(t=1.0, mu=0.0, mu_prime=1.0, h=1.0,
                                  alpha=0.5, beta=-1.0, gamma=0.5)
    with pytest.raises(CausticEncountered):
        prop.green_eval(kp, 0.3, -0.2)


def test_residual_sho():
    tc, _, kernel_of = _kernel_of(SHO, 1.0)
    assert prop.schrodinger_residual(tc, kernel_of, 0.6, -0.3, 0.5,
                                     fd_step=1e-4) <= 1e-6


def test_residual_mpo():
    # mu(0.4) ~ 0.094 is small here, so the O(h^2) truncation needs a
    # finer step than the default to reach the tolerance; the clean 4x
    # scaling below confirms the kernel itself satisfies the equation
    spec = coeff.ModelSpec(coeff.MODIFIED_PARAMETRIC, 1.0, 0.2, delta=0.5)
    tc, _, kernel_of = _kernel_of(spec, 1.0)
    r_fine = prop.schrodinger_residual(tc, kernel_of, 0.3, -0.2, 0.4,
                                       fd_step=2.5e-4)
    assert r_fine <= 1e-5
    r_coarse = prop.schrodinger_residual(tc, kernel_of, 0.3, -0.2, 0.4,
                                         fd_step=5e-4)
    assert 3.5 <= r_coarse / r_fine <= 4.5


def test_residual_fd_halving_is_second_order():
    tc, _, kernel_of = _kernel_of(CK, 1.0)
    r1 = prop.schrodinger_residual(tc, kernel_of, 0.5, 0.2, 0.6,
                                   fd_step=2e-3)
    r2 = prop.schrodinger_residual(tc, kernel_of, 0.5, 0.2, 0.6,
                                   fd_step=1e-3)
    assert 3.5 <= r1 / r2 <= 4.5


def test_delta_like_source_spreads_linearly():
    # narrow free-particle Gaussian: width^2 grows ~ t^2 / (4 li0)
    spec = coeff.ModelSpec(coeff.FREE_PARTICLE)
    _, _, kernel_of = _kernel_of(spec, 2.0)
    li0 = 200.0
    s0 = prop.GaussianState(Lambda=1j * li0)
    for t in (0.5, 1.0, 2.0):
        out = prop.propagate_gaussian(kernel_of(t), s0)
        width_sq = 1.0 / (4.0 * out.Lambda.imag)
        assert width_sq == pytest.approx(
            1.0 / (4 * li0) + li0 * t * t, rel=1e-9)


@settings(max_examples=25, deadline=None)
@given(lr=st.floats(-1.0, 1.0), li=st.floats(0.1, 2.0),
       tr=st.floats(-1.0, 1.0), ti=st.floats(-1.0, 1.0),
       t=st.floats(0.1, 2.0))
def test_gaussian_norm_is_conserved_property(lr, li, tr, ti, t):
    _, _, kernel_of = _kernel_of(SHO, 2.1)
    s0 = prop.GaussianState(Lambda=complex(lr, li), Theta=complex(tr, ti))
    out = prop.propagate_gaussian(kernel_of(t), s0)
    assert out.norm_sq() == pytest.approx(s0.norm_sq(), rel=1e-7)


@settings(max_examples=25, deadline=None)
@given(x=st.floats(-0.6, 0.6), y=st.floats(-0.6, 0.6),
       t=st.floats(0.7, 1.3))
def test_residual_property_random_triples(x, y, t):
    # the fd truncation grows like (phase rate)^3 h^2; small t and large
    # |x|, |y| push it past the tolerance, so sample a moderate window
    tc, _, kernel_of = _kernel_of(CK, 1.5)
    assert prop.schrodinger_residual(tc, kernel_of, x, y, t) <= 1e-5
