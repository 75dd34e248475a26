import hashlib
import math
import types
import warnings

import numpy as np
import pytest

from quadham import characteristic as chr_mod
from quadham import coefficients as coeff
from quadham import dynamics as dyn
from quadham import gridsim
from quadham import invariants as inv
from quadham import propagator as prop
from quadham.characteristic import classical_flow
from quadham.errors import (BoundaryLeak, NumericalError,
                            SingularCoefficient, ValidationError)
from helpers import grid_gaussian, run_fresh

SHO = coeff.ModelSpec(coeff.SIMPLE_HARMONIC, 1.0)
CK = coeff.ModelSpec(coeff.CALDIROLA_KANAI, 1.0, 0.1)


def test_sho_period_return_with_maslov_sign():
    # after one full period the wavefunction returns to minus itself
    tc = coeff.builtin_coefficients(SHO)
    psi0 = grid_gaussian(prop.GaussianState(Lambda=0.5j))
    steps = 6284
    dt = 2.0 * math.pi / steps
    ev = gridsim.evolve_grid(tc, psi0, dt, steps)
    diff = np.max(np.abs(ev.final().values - (-psi0.values)))
    assert diff <= 1e-4


def test_norm_conservation_self_adjoint():
    tc = coeff.builtin_coefficients(SHO)
    psi0 = grid_gaussian(prop.GaussianState(Lambda=0.5j))
    ev = gridsim.evolve_grid(tc, psi0, 1e-3, 1000)
    n0 = psi0.norm_sq()
    for s in ev.states:
        assert abs(s.norm_sq() - n0) <= 1e-8 * n0


def test_united_norm_decay_rate():
    spec = coeff.ModelSpec(coeff.UNITED, 1.0, 0.3, 0.1)
    tc = coeff.builtin_coefficients(spec)
    psi0 = grid_gaussian(prop.GaussianState(Lambda=0.5j))
    ev = gridsim.evolve_grid(tc, psi0, 1e-3, 1000)
    n0 = psi0.norm_sq()
    for t, s in zip(ev.times[1:], ev.states[1:]):
        assert abs(s.norm_sq() / n0 - math.exp(-0.1 * t)) <= 1e-4


def test_unit_gaussian_moments():
    psi0 = grid_gaussian(prop.GaussianState(Lambda=0.5j))
    fm, m = gridsim.measure_moments(psi0)
    assert m.p2 / m.norm == pytest.approx(0.5, abs=1e-8)
    assert m.x2 / m.norm == pytest.approx(0.5, abs=1e-8)
    assert m.pxxp == pytest.approx(0.0, abs=1e-10)
    assert fm.x == pytest.approx(0.0, abs=1e-12)
    assert fm.p == pytest.approx(0.0, abs=1e-10)


def test_translated_gaussian_mean_position():
    x0 = 0.35
    psi0 = grid_gaussian(prop.GaussianState(Lambda=0.5j, Theta=-1j * x0))
    fm, m = gridsim.measure_moments(psi0)
    assert fm.x / m.norm == pytest.approx(x0, abs=1e-10)


def test_grid_moments_track_moment_ode():
    tc = coeff.builtin_coefficients(CK)
    psi0 = grid_gaussian(prop.GaussianState(Lambda=0.5j, Theta=0.2))
    _, m0 = gridsim.measure_moments(psi0)
    flow = classical_flow(tc, 1.0)
    path, raw = dyn.evolve_second_moments(flow, m0), dyn.evolve_raw(flow)
    ev = gridsim.evolve_grid(tc, psi0, 1e-3, 1000)
    for t, s in zip(ev.times[1:], ev.states[1:]):
        _, m = gridsim.measure_moments(s)
        # the grid's raw moments: per unit <1> times <1> = <1>_0 e^{-I}
        ref = [raw(t)(v) * m0.norm for v in path(t)]
        for got, exp in zip(m[:3], ref):
            assert abs(got - exp) <= 1e-4 * max(1.0, abs(exp))


def test_invariant_drift_zero_form():
    # E = 0 has no relative drift: refused, not reported as 0
    tc = coeff.builtin_coefficients(SHO)
    psi0 = grid_gaussian(prop.GaussianState(Lambda=0.5j))
    ev = gridsim.evolve_grid(tc, psi0, 1e-3, 64)
    zero = lambda t: inv.QuadraticForm(0.0, 0.0, 0.0, 0.0, t)
    with pytest.raises(ValidationError):
        gridsim.invariant_drift(ev, zero)


def test_invariant_drift_refuses_a_cancelled_reference():
    # the modified oscillator's catalogued E(0) vanishes exactly on the
    # Gaussian Lambda = i/2, so the grid's E(0) is noise (-1.6e-8 against
    # terms summing to 0.89); relative to it, the drift read 1648
    spec = coeff.ModelSpec(coeff.MODIFIED_OSCILLATOR)
    psi0 = grid_gaussian(prop.GaussianState(Lambda=0.5j), n=1024)
    ev = gridsim.evolve_grid(coeff.catalog_coefficients(spec), psi0, 1e-3,
                             500)
    form = lambda t: inv.energy_operator_catalog(spec, t)
    with pytest.raises(ValidationError) as exc:
        gridsim.invariant_drift(ev, form)
    info = exc.value.info
    assert abs(info["reference"]) <= 1e-7 * info["terms"]


def test_invariant_drift_sho_energy():
    tc = coeff.builtin_coefficients(SHO)
    psi0 = grid_gaussian(prop.GaussianState(Lambda=0.5j, Theta=0.3))
    ev = gridsim.evolve_grid(tc, psi0, 1e-3, 1000)
    form = lambda t: inv.energy_operator_catalog(SHO, t)
    assert gridsim.invariant_drift(ev, form) <= 1e-4


def test_grid_cross_check_with_kernel_propagation():
    # Crank-Nicolson vs quadrature of the exact kernel at t = 0.5
    tc = coeff.builtin_coefficients(CK)
    path = classical_flow(tc, 1.0)
    kp = chr_mod.kernel_parameters(tc, path, 0.5)
    s0 = prop.GaussianState(Lambda=0.5j, Theta=0.2)
    psi0 = grid_gaussian(s0, half_width=12.0)
    out_quad = prop.propagate_grid(kp, psi0)
    ev = gridsim.evolve_grid(tc, psi0, 5e-4, 1000)
    assert np.max(np.abs(ev.final().values - out_quad.values)) <= 1e-4


def test_time_halving_is_second_order():
    # compare against a same-grid reference with much smaller dt so the
    # spatial discretization error cancels exactly
    tc = coeff.builtin_coefficients(SHO)
    psi0 = grid_gaussian(prop.GaussianState(Lambda=0.5j), n=512)
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
    tc = coeff.builtin_coefficients(
        coeff.ModelSpec(coeff.MODIFIED_CK, 1.0, 0.1))
    t0, dt, steps = 0.2, 1e-2, 30
    assert tc.c(t0) != 0.0 and tc.d(t0) != 0.0
    psi0 = grid_gaussian(prop.GaussianState(Lambda=0.5j, Theta=0.3),
                         half_width=6.0, n=64)
    ref = psi0.values.astype(complex)
    for k in range(steps):
        t = t0 + (k + 0.5) * dt
        # the dense step reads the equation form's (c + d, c)
        ref = _dense_cn_step(ref, psi0.x, psi0.dx, dt, tc.a(t), tc.b(t),
                             tc.c(t) + tc.d(t), tc.c(t))
    ev = gridsim.evolve_grid(tc, psi0, dt, steps, t0=t0, record_every=7)
    assert np.max(np.abs(ev.final().values - ref)) <= 1e-12


def test_singular_cn_system_raises():
    # c = -2/dt and d = +2/dt for t > 3 make 1 + dt/2 c vanish on every
    # interior row with no drift: step 6 (midpoint 3.25) of the run, however
    # the run is recorded
    dt = 0.5
    zero = lambda t: 0.0
    tc = coeff.TimeCoefficients(zero, zero,
                                lambda t: -2.0 / dt if t > 3.0 else 0.0,
                                lambda t: 2.0 / dt if t > 3.0 else 0.0)
    psi0 = grid_gaussian(prop.GaussianState(Lambda=0.5j), half_width=6.0,
                         n=64)
    for record_every in (1, 4, 100):
        with pytest.raises(NumericalError) as err:
            gridsim.evolve_grid(tc, psi0, dt, 10, record_every=record_every)
        assert err.value.info == {"step": 6, "t": 3.25, "info": 2}


def _counting(monkeypatch):
    """Calls of gridsim's three LAPACK routines while the test runs."""
    calls = dict.fromkeys(("zgtsv", "zgttrf", "zgttrs"), 0)
    for name in calls:
        def counted(*args, _name=name, _routine=getattr(gridsim, name),
                    **kw):
            calls[_name] += 1
            return _routine(*args, **kw)
        monkeypatch.setattr(gridsim, name, counted)
    return calls


def test_singular_constant_cn_system_is_refused_at_step_0(monkeypatch):
    # test_singular_cn_system_raises's system at every t: zgttrf finds the
    # zero pivot when it factors, and nothing is solved on it
    dt = 0.5
    zero = lambda t: 0.0
    tc = coeff.TimeCoefficients(zero, zero, lambda t: -2.0 / dt,
                                lambda t: 2.0 / dt)
    psi0 = grid_gaussian(prop.GaussianState(Lambda=0.5j), half_width=6.0,
                         n=64)
    calls = _counting(monkeypatch)
    for record_every in (1, 4, 100):
        with pytest.raises(NumericalError) as err:
            gridsim.evolve_grid(tc, psi0, dt, 10, record_every=record_every)
        assert err.value.info == {"step": 0, "t": 0.25, "info": 2}
    assert calls == {"zgtsv": 0, "zgttrf": 3, "zgttrs": 0}


def test_a_constant_run_factors_once_and_a_varying_one_never(monkeypatch):
    psi0 = grid_gaussian(prop.GaussianState(Lambda=0.5j), n=256)
    calls = _counting(monkeypatch)
    gridsim.evolve_grid(coeff.builtin_coefficients(SHO), psi0, 1e-3, 50)
    assert calls == {"zgtsv": 0, "zgttrf": 1, "zgttrs": 50}
    calls.update(zgttrs=0, zgttrf=0)
    gridsim.evolve_grid(coeff.builtin_coefficients(CK), psi0, 1e-3, 50)
    assert calls == {"zgtsv": 50, "zgttrf": 0, "zgttrs": 0}


@pytest.mark.parametrize("spec, digests", [
    (SHO,
     ["0d14ffebc31ff694fc083fff605345380e3ea458344e38fe5e0ba03ebaf5f15c",
      "91880ee1f6441078d56d1cab764461dd533b1b460cb295e3e0eb0bba2cbb9104",
      "8147341ae037de8df487dc7a0cb2476f16170de78cddd27cb914ffb2e93c80f9"]),
    (coeff.ModelSpec(coeff.FREE_PARTICLE),
     ["fc4f55cc3e2278e6cb355884f5c28a8528ffd1206e847f228c79c6d5ac7661a3",
      "5d09603655db09ac99cdd03a6c00e2407410eaea158602c78ae581c2b06ab1ac",
      "4edcc15612d15ee0473a2a4d6f192fb71ea02745059f60226108b91b1696d39d"]),
], ids=["simple_harmonic", "free_particle"])
def test_a_constant_run_keeps_its_bits(spec, digests):
    # the bits of zgtsv's per-step solves: one zgttrf and a zgttrs a step
    # do the same arithmetic
    psi0 = grid_gaussian(prop.GaussianState(Lambda=0.5j, Theta=0.3), n=256)
    ev = gridsim.evolve_grid(coeff.builtin_coefficients(spec), psi0, 1e-3,
                             300, record_every=100)
    assert [hashlib.sha256(s.values.tobytes()).hexdigest()
            for s in ev.states[1:]] == digests


@pytest.mark.parametrize("spec, digests", [
    (CK,
     ["4d774fe2cd4fffd11eeb59824e8a2d44c74a10398b484812e27d7d1a68c9ca89",
      "8da09958a75861a7ed9e8fc764adf718b25fd7632807b90cd93fbf7a80ddedc6",
      "5d8bea13dd0740127e1817474aef848edad454f2576ced0b5e4ad554faee7b4c"]),
    (coeff.ModelSpec(coeff.MODIFIED_CK, 1.2, 0.3),
     ["c791a7c5c5d913db06c0e90e8d820f33e0209c69b7496ea151b8d6006df0129e",
      "6c2af126bec78718d355e94d9887362cbc12807592db373b2bad8a894ee955e3",
      "2d062567e902d513ceea32c90539b4426e6c1cf5755d57ac31dca90b8e402736"]),
], ids=["caldirola_kanai", "modified_ck"])
def test_a_varying_run_keeps_its_bits(spec, digests):
    # the bits of the per-step band assembly and zgtsv solve, which the
    # dense reference checks only to 1e-12; modified_ck has c + d != 0
    psi0 = grid_gaussian(prop.GaussianState(Lambda=0.5j, Theta=0.3), n=256)
    ev = gridsim.evolve_grid(coeff.builtin_coefficients(spec), psi0, 1e-3,
                             300, record_every=100)
    assert [hashlib.sha256(s.values.tobytes()).hexdigest()
            for s in ev.states[1:]] == digests


@pytest.mark.parametrize("a, b", [(0.5, 1e308), (1e308, 0.5)])
def test_a_state_that_stops_being_finite_is_a_numerical_error(a, b):
    # the huge coefficient overflows the bands at the first step; the run
    # is refused at the end of that step however it is recorded, with no
    # numpy warning on the way
    tc = coeff.TimeCoefficients(lambda t: a, lambda t: b, lambda t: 0.0,
                                lambda t: 0.0)
    for n, steps, record_every in ((64, 5, None), (64, 5, 2),
                                   (64, 5, 10 ** 9), (2048, 5000, 10 ** 9)):
        psi0 = grid_gaussian(prop.GaussianState(Lambda=0.5j),
                             half_width=6.0, n=n)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalError) as err:
                gridsim.evolve_grid(tc, psi0, 1.0, steps,
                                    record_every=record_every)
        assert err.value.info == {"t": 1.0}


def test_a_state_that_overflows_on_finite_bands_is_refused_at_its_record():
    # c = -(2/dt)(1 - 1e-10), d = -c: finite bands that grow psi by 2e10 a
    # step, so |psi|^2 overflows in step 15 (t = 7.5); the run is refused
    # at the first record from there on
    dt, c = 0.5, -4.0 * (1.0 - 1e-10)
    tc = coeff.TimeCoefficients(lambda t: 0.0, lambda t: 0.0,
                                lambda t: c, lambda t: -c)
    psi0 = grid_gaussian(prop.GaussianState(Lambda=0.5j), half_width=6.0,
                         n=64)
    for record_every, t in ((1, 7.5), (5, 7.5), (None, 8.0), (10 ** 9, 20.0)):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalError) as err:
                gridsim.evolve_grid(tc, psi0, dt, 40,
                                    record_every=record_every)
        assert err.value.info == {"t": t}


def test_a_run_does_not_depend_on_how_it_is_recorded():
    # modified Caldirola-Kanai has c != 0 and d != 0
    tc = coeff.builtin_coefficients(
        coeff.ModelSpec(coeff.MODIFIED_CK, 1.0, 0.1))
    psi0 = grid_gaussian(prop.GaussianState(Lambda=0.5j, Theta=0.3),
                         half_width=6.0, n=64)
    t0, dt, steps = 0.2, 1e-2, 30
    finals = set()
    for record_every in (1, 3, 7, steps, 10 ** 9):
        ev = gridsim.evolve_grid(tc, psi0, dt, steps, t0=t0,
                                 record_every=record_every)
        marks = [*range(0, steps, record_every), steps]
        assert ev.times == tuple(t0 + k * dt for k in marks)
        assert len(ev.states) == len(marks)
        finals.add(ev.final().values.tobytes())
    assert len(finals) == 1


def test_boundary_leak_detected():
    # a fast free packet reaches the edge of a narrow box
    spec = coeff.ModelSpec(coeff.FREE_PARTICLE)
    tc = coeff.builtin_coefficients(spec)
    psi0 = grid_gaussian(prop.GaussianState(Lambda=2.0j, Theta=6.0),
                         half_width=3.0, n=512)
    with pytest.raises(BoundaryLeak):
        gridsim.evolve_grid(tc, psi0, 1e-3, 2000)


def test_evolve_grid_validation():
    tc = coeff.builtin_coefficients(SHO)
    psi0 = grid_gaussian(prop.GaussianState(Lambda=0.5j), n=64)
    with pytest.raises(ValidationError):
        gridsim.evolve_grid(tc, psi0, -1e-3, 10)
    with pytest.raises(ValidationError):
        gridsim.evolve_grid(tc, psi0, 1e-3, 0)


@pytest.mark.parametrize("bad", [
    {"dt": math.nan}, {"dt": math.inf}, {"steps": 2.5},
    {"record_every": 0}, {"record_every": -1}, {"record_every": 2.5},
    {"steps": True}, {"record_every": True},
])
def test_evolve_grid_refuses_bad_dt_steps_and_record_every(bad):
    # unchecked, a nan or inf dt runs to non-finite states, a fractional
    # steps or record_every runs more steps than it records, a record_every
    # below 1 never ends, and a bool is no count
    tc = coeff.builtin_coefficients(
        coeff.ModelSpec(coeff.CALDIROLA_KANAI, 1.0, 0.2))
    psi0 = grid_gaussian(prop.GaussianState(Lambda=0.5j), n=256)
    args = {"dt": 1e-3, "steps": 3, **bad}
    with pytest.raises(ValidationError):
        gridsim.evolve_grid(tc, psi0, **args)


def test_evolve_grid_takes_numpy_integer_counts():
    tc = coeff.builtin_coefficients(
        coeff.ModelSpec(coeff.CALDIROLA_KANAI, 1.0, 0.2))
    psi0 = grid_gaussian(prop.GaussianState(Lambda=0.5j), n=256)
    ref = gridsim.evolve_grid(tc, psi0, 1e-3, 4, record_every=2)
    got = gridsim.evolve_grid(tc, psi0, 1e-3, np.int64(4),
                              record_every=np.int32(2))
    assert got.times == ref.times
    assert all(type(t) is float for t in got.times)
    assert np.array_equal(got.final().values, ref.final().values)


@pytest.mark.parametrize("t0", [math.nan, math.inf])
def test_evolve_grid_refuses_a_non_finite_t0(t0):
    tc = coeff.builtin_coefficients(
        coeff.ModelSpec(coeff.CALDIROLA_KANAI, 1.0, 0.2))
    psi0 = grid_gaussian(prop.GaussianState(Lambda=0.5j), n=256)
    with pytest.raises(ValidationError) as err:
        gridsim.evolve_grid(tc, psi0, 1e-3, 3, t0=t0)
    assert "t0" in err.value.info


def test_coefficient_overflow_is_a_singular_coefficient():
    # Caldirola-Kanai's e^{2 lambda t} overflows math.exp at t0 = 1e6
    tc = coeff.builtin_coefficients(
        coeff.ModelSpec(coeff.CALDIROLA_KANAI, 1.0, 0.2))
    psi0 = grid_gaussian(prop.GaussianState(Lambda=0.5j), n=256)
    with pytest.raises(SingularCoefficient) as err:
        gridsim.evolve_grid(tc, psi0, 1e-3, 3, t0=1e6)
    assert err.value.info["t"] == pytest.approx(1e6 + 5e-4)


@pytest.mark.parametrize("b", [
    lambda t: math.nan if t > 0.01 else 0.5,
    lambda t: 0.5 + math.sqrt(0.01 - t),
], ids=["non_finite", "value_error"])
def test_failing_coefficient_names_its_midpoint(b):
    # b fails for t > 0.01: at the first midpoint, 0.0105, of the second
    # chunk of ten steps of 1e-3
    half = lambda t: 0.5
    zero = lambda t: 0.0
    tc = coeff.TimeCoefficients(half, b, zero, zero)
    psi0 = grid_gaussian(prop.GaussianState(Lambda=0.5j), n=64)
    with pytest.raises(SingularCoefficient) as err:
        gridsim.evolve_grid(tc, psi0, 1e-3, 30, record_every=10)
    assert err.value.info["t"] == pytest.approx(0.0105)


def test_window_reaching_the_singularity_is_refused():
    # tanh(lam t + delta) vanishes at t = 2.5: stepped across it, successive
    # dt gave a normalised <x^2> of 0.022, 0.0038 and 0.028 at t = 3
    spec = coeff.ModelSpec(coeff.MODIFIED_PARAMETRIC, 1.0, 0.2, delta=-0.5)
    tc = coeff.builtin_coefficients(spec)
    psi0 = grid_gaussian(prop.GaussianState(Lambda=0.5j), n=128)
    with pytest.raises(SingularCoefficient) as err:
        gridsim.evolve_grid(tc, psi0, 1e-3, 3000)
    assert err.value.info["t_singular"] == pytest.approx(2.5)
    with pytest.raises(SingularCoefficient):
        gridsim.evolve_grid(tc, psi0, 1e-3, 10, t0=2.495)
    # windows that end before it or start after it are served
    for t0 in (2.4, 2.6):
        ev = gridsim.evolve_grid(tc, psi0, 1e-3, 10, t0=t0)
        assert np.isfinite(ev.final().values).all()


def test_an_empty_state_has_no_moments_and_evolves_to_zeros():
    psi0 = prop.GridState(-4.0, 0.125, np.zeros(65, dtype=complex))
    with pytest.raises(ValidationError):
        gridsim.measure_moments(psi0)
    # its leak fraction is 0, not 0/0
    ev = gridsim.evolve_grid(coeff.builtin_coefficients(SHO), psi0, 1e-3, 10)
    assert not ev.final().values.any()


def _unit_gaussian_64(scale):
    x = np.linspace(-8.0, 8.0, 64)
    return prop.GridState(-8.0, x[1] - x[0], scale * np.exp(-0.5 * x * x)
                          + 0j)


def test_valid_states_get_finite_moments():
    # both were refused as a negative variance: the width-1e-4 Gaussian near
    # x = 1e6 reads var_x = -2.98e-8, inside the rounding of <x^2> = 1.77e8,
    # and for the 1e150 Gaussian <x>^2 overflows though no moment does
    sigma, c = 1e-4, 1e6
    dx = 16.0 * sigma / 255
    x = c - 8.0 * sigma + dx * np.arange(256)
    narrow = prop.GridState(c - 8.0 * sigma, dx,
                            np.exp(-(x - c) ** 2 / (2.0 * sigma * sigma)) + 0j)
    for state in (narrow, _unit_gaussian_64(1e150)):
        fm, m = gridsim.measure_moments(state)
        assert all(map(math.isfinite, (*fm, *m)))
    assert m.norm == pytest.approx(math.sqrt(math.pi) * 1e300, rel=1e-6)
    assert m.x2 / m.norm == pytest.approx(0.5, rel=1e-6)


def test_a_moment_that_overflows_is_refused_without_warnings():
    # |psi|^2 of the 1e160 Gaussian overflows: the moments were returned as
    # norm = inf and x = p = nan, with NumPy RuntimeWarnings
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericalError) as err:
            gridsim.measure_moments(_unit_gaussian_64(1e160))
    assert err.value.info["norm"] == math.inf


def test_snapshot_count_default():
    tc = coeff.builtin_coefficients(SHO)
    psi0 = grid_gaussian(prop.GaussianState(Lambda=0.5j), n=64)
    ev = gridsim.evolve_grid(tc, psi0, 1e-3, 160)
    assert 16 <= len(ev.states) <= 18
    assert ev.times[0] == 0.0
    assert ev.times[-1] == pytest.approx(0.16)


def test_grid_setup_import_leaves_scipy_linalg_unloaded():
    # scipy.linalg's __init__ would be more than half of the import of
    # gridsim, which calls one routine of its LAPACK extension
    loaded = run_fresh(
        "import json, sys; import quadham.characteristic, "
        "quadham.propagator, quadham.gridsim; "
        "print(json.dumps(sorted(sys.modules)))")
    assert "scipy.linalg" not in loaded


_CN_RUN = """
import json
{first}
import numpy as np
from quadham import coefficients as coeff, gridsim, propagator as prop
{second}
import scipy.linalg.lapack
tc = coeff.builtin_coefficients(
    coeff.ModelSpec(coeff.CALDIROLA_KANAI, 1.0, 0.2))
x = np.linspace(-6.0, 6.0, 64)
psi0 = prop.GridState(-6.0, x[1] - x[0], np.exp(-x * x / 2 + 0.3j * x))
run = lambda: gridsim.evolve_grid(tc, psi0, 1e-2, 20).final().values
own = run()
gridsim.zgtsv = scipy.linalg.lapack.zgtsv
print(json.dumps([own.tobytes().hex(), run().tobytes().hex()]))
"""


def test_cn_steps_bitwise_equal_to_scipy_linalg_zgtsv():
    # gridsim loads scipy's LAPACK extension itself: whether scipy.linalg
    # came before or after it, the steps equal those of scipy's own zgtsv
    before = run_fresh(_CN_RUN.format(first="import scipy.linalg",
                                      second=""))
    after = run_fresh(_CN_RUN.format(first="",
                                     second="import scipy.linalg"))
    assert before[0] == before[1] == after[0] == after[1]


def test_gridsim_shares_a_loaded_lapack_extension():
    # after scipy.linalg, gridsim binds scipy's own module object of the
    # extension instead of loading a second copy
    same = run_fresh(
        "import json, scipy.linalg, scipy.linalg._flapack as f; "
        "from quadham import gridsim; "
        "print(json.dumps(gridsim.zgtsv is f.zgtsv))")
    assert same is True


def test_missing_lapack_extension_is_an_import_error(monkeypatch, tmp_path):
    fake = types.SimpleNamespace(__file__=str(tmp_path / "__init__.py"))
    monkeypatch.setattr(gridsim, "scipy", fake)
    with pytest.raises(ImportError, match="_flapack"):
        gridsim._load_flapack()
