import math

import numpy as np
import pytest

from quadham import characteristic as chr_mod
from quadham import coefficients as coeff
from quadham import dynamics as dyn
from quadham import gridsim
from quadham import invariants as inv
from quadham import propagator as prop
from quadham.errors import BoundaryLeak, NumericalError, ValidationError

SHO = coeff.ModelSpec(coeff.SIMPLE_HARMONIC, 1.0)
CK = coeff.ModelSpec(coeff.CALDIROLA_KANAI, 1.0, 0.1)


def _grid_gaussian(state: prop.GaussianState, half_width=10.0, n=2048):
    dx = 2.0 * half_width / (n - 1)
    x = -half_width + dx * np.arange(n)
    return prop.GridState(-half_width, dx, state.eval(x))


def _ham(spec):
    return coeff.builtin_coefficients(spec, coeff.HAMILTONIAN)


def test_sho_period_return_with_maslov_sign():
    # after one full period the wavefunction returns to minus itself
    tc = _ham(SHO)
    psi0 = _grid_gaussian(prop.GaussianState(Lambda=0.5j))
    steps = 6284
    dt = 2.0 * math.pi / steps
    ev = gridsim.evolve_grid(tc, psi0, dt, steps)
    diff = np.max(np.abs(ev.final().values - (-psi0.values)))
    assert diff <= 1e-4


def test_norm_conservation_self_adjoint():
    tc = _ham(SHO)
    psi0 = _grid_gaussian(prop.GaussianState(Lambda=0.5j))
    ev = gridsim.evolve_grid(tc, psi0, 1e-3, 1000)
    n0 = psi0.norm_sq()
    for s in ev.states:
        assert abs(s.norm_sq() - n0) <= 1e-8 * n0


def test_united_norm_decay_rate():
    spec = coeff.ModelSpec(coeff.UNITED, 1.0, 0.3, 0.1)
    tc = _ham(spec)
    psi0 = _grid_gaussian(prop.GaussianState(Lambda=0.5j))
    ev = gridsim.evolve_grid(tc, psi0, 1e-3, 1000)
    n0 = psi0.norm_sq()
    for t, s in zip(ev.times[1:], ev.states[1:]):
        assert abs(s.norm_sq() / n0 - math.exp(-0.1 * t)) <= 1e-4


def test_unit_gaussian_moments():
    psi0 = _grid_gaussian(prop.GaussianState(Lambda=0.5j))
    fm, m = gridsim.measure_moments(psi0)
    assert m.p2 / m.norm == pytest.approx(0.5, abs=1e-8)
    assert m.x2 / m.norm == pytest.approx(0.5, abs=1e-8)
    assert m.pxxp == pytest.approx(0.0, abs=1e-10)
    assert fm.x == pytest.approx(0.0, abs=1e-12)
    assert fm.p == pytest.approx(0.0, abs=1e-10)


def test_translated_gaussian_mean_position():
    x0 = 0.35
    psi0 = _grid_gaussian(prop.GaussianState(Lambda=0.5j, Theta=-1j * x0))
    fm, m = gridsim.measure_moments(psi0)
    assert fm.x / m.norm == pytest.approx(x0, abs=1e-10)


def test_grid_moments_track_moment_ode():
    tc = _ham(CK)
    psi0 = _grid_gaussian(prop.GaussianState(Lambda=0.5j, Theta=0.2))
    _, m0 = gridsim.measure_moments(psi0)
    path = dyn.evolve_second_moments(tc, m0, 1.0)
    ev = gridsim.evolve_grid(tc, psi0, 1e-3, 1000)
    for t, s in zip(ev.times[1:], ev.states[1:]):
        _, m = gridsim.measure_moments(s)
        ref = path(t)
        for got, exp in ((m.p2, ref.p2), (m.x2, ref.x2),
                         (m.pxxp, ref.pxxp)):
            assert abs(got - exp) <= 1e-4 * max(1.0, abs(exp))


def test_invariant_drift_zero_form():
    tc = _ham(SHO)
    psi0 = _grid_gaussian(prop.GaussianState(Lambda=0.5j))
    ev = gridsim.evolve_grid(tc, psi0, 1e-3, 64)
    zero = lambda t: inv.QuadraticForm(0.0, 0.0, 0.0, 0.0, t)
    assert gridsim.invariant_drift(tc, ev, zero) == 0.0


def test_invariant_drift_sho_energy():
    tc = _ham(SHO)
    psi0 = _grid_gaussian(prop.GaussianState(Lambda=0.5j, Theta=0.3))
    ev = gridsim.evolve_grid(tc, psi0, 1e-3, 1000)
    form = lambda t: inv.energy_operator_catalog(SHO, t)
    assert gridsim.invariant_drift(tc, ev, form) <= 1e-4


def test_grid_cross_check_with_kernel_propagation():
    # Crank-Nicolson vs quadrature of the exact kernel at t = 0.5
    tc_h = _ham(CK)
    tc_e = coeff.convert_convention(tc_h, coeff.EQUATION)
    path = chr_mod.solve_characteristic(tc_e, 1.0)
    kp = chr_mod.kernel_parameters(tc_e, path, 0.5)
    s0 = prop.GaussianState(Lambda=0.5j, Theta=0.2)
    psi0 = _grid_gaussian(s0, half_width=12.0)
    out_quad = prop.propagate_grid(kp, psi0)
    ev = gridsim.evolve_grid(tc_h, psi0, 5e-4, 1000)
    assert np.max(np.abs(ev.final().values - out_quad.values)) <= 1e-4


def test_time_halving_is_second_order():
    # compare against a same-grid reference with much smaller dt so the
    # spatial discretization error cancels exactly
    tc = _ham(SHO)
    psi0 = _grid_gaussian(prop.GaussianState(Lambda=0.5j), n=512)
    t_end = 0.4

    def run(dt):
        return gridsim.evolve_grid(tc, psi0, dt, int(round(t_end / dt)),
                                   record_every=10 ** 9).final().values

    ref = run(t_end / 512)
    err_coarse = np.max(np.abs(run(t_end / 32) - ref))
    err_fine = np.max(np.abs(run(t_end / 64) - ref))
    assert 3.5 <= err_coarse / err_fine <= 4.5


def _dense_cn_step(psi, x, dx, dt, a, b, c, d):
    # one Crank-Nicolson step with dense matrices: K = i a D2 - i b x^2
    # - c (x D1 + D1 x)/2 + c/2 - d, identity rows at both edges
    n = x.size
    eye = np.eye(n)
    d1 = (np.eye(n, k=1) - np.eye(n, k=-1)) / (2.0 * dx)
    d2 = (np.eye(n, k=1) - 2.0 * eye + np.eye(n, k=-1)) / (dx * dx)
    xm = np.diag(x)
    k = (1j * a * d2 - 1j * b * xm @ xm - 0.5 * c * (xm @ d1 + d1 @ xm)
         + (0.5 * c - d) * eye)
    lhs = eye - 0.5 * dt * k
    rhs = (eye + 0.5 * dt * k) @ psi
    lhs[[0, -1]] = eye[[0, -1]]
    rhs[[0, -1]] = 0.0
    return np.linalg.solve(lhs, rhs)


def test_evolve_grid_matches_dense_cn_reference():
    # the modified Caldirola-Kanai model has c != 0 and d != 0 (plain
    # Caldirola-Kanai has c = d = 0)
    tc = _ham(coeff.ModelSpec(coeff.MODIFIED_CK, 1.0, 0.1))
    eq = coeff.convert_convention(tc, coeff.EQUATION)
    t0, dt, steps = 0.2, 1e-2, 30
    assert eq.c(t0) != 0.0 and eq.d(t0) != 0.0
    psi0 = _grid_gaussian(prop.GaussianState(Lambda=0.5j, Theta=0.3),
                          half_width=6.0, n=64)
    ref = psi0.values.astype(complex)
    for k in range(steps):
        t = t0 + (k + 0.5) * dt
        ref = _dense_cn_step(ref, psi0.x, psi0.dx, dt,
                             eq.a(t), eq.b(t), eq.c(t), eq.d(t))
    ev = gridsim.evolve_grid(tc, psi0, dt, steps, t0=t0, record_every=7,
                             check_boundary=False)
    assert np.max(np.abs(ev.final().values - ref)) <= 1e-12


def test_singular_cn_system_raises():
    # d = -2/dt makes 1 + dt/2 d vanish on every interior row
    dt, n = 0.5, 8
    x = np.linspace(-1.0, 1.0, n)
    zero = np.zeros(3)
    with pytest.raises(NumericalError) as err:
        gridsim._cn_run(np.ones(n), x, x[1] - x[0], dt, zero, zero, zero,
                        np.full(3, -2.0 / dt))
    assert err.value.info == {"step": 0, "info": 2}


def test_boundary_leak_detected():
    # a fast free packet reaches the edge of a narrow box
    spec = coeff.ModelSpec(coeff.FREE_PARTICLE)
    tc = _ham(spec)
    psi0 = _grid_gaussian(prop.GaussianState(Lambda=2.0j, Theta=6.0),
                          half_width=3.0, n=512)
    with pytest.raises(BoundaryLeak):
        gridsim.evolve_grid(tc, psi0, 1e-3, 2000)


def test_evolve_grid_validation():
    tc = _ham(SHO)
    psi0 = _grid_gaussian(prop.GaussianState(Lambda=0.5j), n=64)
    with pytest.raises(ValidationError):
        gridsim.evolve_grid(tc, psi0, -1e-3, 10)
    with pytest.raises(ValidationError):
        gridsim.evolve_grid(tc, psi0, 1e-3, 0)


def test_snapshot_count_default():
    tc = _ham(SHO)
    psi0 = _grid_gaussian(prop.GaussianState(Lambda=0.5j), n=64)
    ev = gridsim.evolve_grid(tc, psi0, 1e-3, 160)
    assert 16 <= len(ev.states) <= 18
    assert ev.times[0] == 0.0
    assert ev.times[-1] == pytest.approx(0.16)
