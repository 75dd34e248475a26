import json
import math
import os
import subprocess
import sys
import types

import numpy as np
import pytest

import quadham
from quadham import characteristic as chr_mod
from quadham import coefficients as coeff
from quadham import dynamics as dyn
from quadham import gridsim
from quadham import invariants as inv
from quadham import propagator as prop
from quadham.characteristic import classical_flow
from quadham.errors import (BoundaryLeak, NumericalError,
                            SingularCoefficient, ValidationError)

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
    path = dyn.evolve_second_moments(classical_flow(tc, 1.0), m0)
    ev = gridsim.evolve_grid(tc, psi0, 1e-3, 1000)
    for t, s in zip(ev.times[1:], ev.states[1:]):
        _, m = gridsim.measure_moments(s)
        ref = path(t)
        for got, exp in ((m.p2, ref.p2), (m.x2, ref.x2),
                         (m.pxxp, ref.pxxp)):
            assert abs(got - exp) <= 1e-4 * max(1.0, abs(exp))


def test_invariant_drift_zero_form():
    # E = 0 has no relative drift: refused, not reported as 0
    tc = _ham(SHO)
    psi0 = _grid_gaussian(prop.GaussianState(Lambda=0.5j))
    ev = gridsim.evolve_grid(tc, psi0, 1e-3, 64)
    zero = lambda t: inv.QuadraticForm(0.0, 0.0, 0.0, 0.0, t)
    with pytest.raises(ValidationError):
        gridsim.invariant_drift(ev, zero)


def test_invariant_drift_refuses_a_cancelled_reference():
    # the modified oscillator's catalogued E(0) vanishes exactly on the
    # Gaussian Lambda = i/2, so the grid's E(0) is noise (-1.6e-8 against
    # terms summing to 0.89); relative to it, the drift read 1648
    spec = coeff.ModelSpec(coeff.MODIFIED_OSCILLATOR)
    psi0 = _grid_gaussian(prop.GaussianState(Lambda=0.5j), n=1024)
    ev = gridsim.evolve_grid(inv.catalog_coefficients(spec), psi0, 1e-3,
                             500)
    form = lambda t: inv.energy_operator_catalog(spec, t)
    with pytest.raises(ValidationError) as exc:
        gridsim.invariant_drift(ev, form)
    info = exc.value.info
    assert abs(info["reference"]) <= 1e-7 * info["terms"]


def test_invariant_drift_sho_energy():
    tc = _ham(SHO)
    psi0 = _grid_gaussian(prop.GaussianState(Lambda=0.5j, Theta=0.3))
    ev = gridsim.evolve_grid(tc, psi0, 1e-3, 1000)
    form = lambda t: inv.energy_operator_catalog(SHO, t)
    assert gridsim.invariant_drift(ev, form) <= 1e-4


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
    ev = gridsim.evolve_grid(tc, psi0, dt, steps, t0=t0, record_every=7)
    assert np.max(np.abs(ev.final().values - ref)) <= 1e-12


def test_singular_cn_system_raises():
    # c = -2/dt and no drift make 1 + dt/2 c vanish on every interior row
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


@pytest.mark.parametrize("bad", [
    {"dt": math.nan}, {"dt": math.inf}, {"steps": 2.5},
    {"record_every": 0}, {"record_every": -1}, {"record_every": 2.5},
    {"steps": True}, {"record_every": True},
])
def test_evolve_grid_refuses_bad_dt_steps_and_record_every(bad):
    # unchecked, a nan or inf dt runs to non-finite states, a fractional
    # steps or record_every runs more steps than it records, a record_every
    # below 1 never ends, and a bool is no count
    tc = _ham(coeff.ModelSpec(coeff.CALDIROLA_KANAI, 1.0, 0.2))
    psi0 = _grid_gaussian(prop.GaussianState(Lambda=0.5j), n=256)
    args = {"dt": 1e-3, "steps": 3, **bad}
    with pytest.raises(ValidationError):
        gridsim.evolve_grid(tc, psi0, **args)


def test_evolve_grid_takes_numpy_integer_counts():
    tc = _ham(coeff.ModelSpec(coeff.CALDIROLA_KANAI, 1.0, 0.2))
    psi0 = _grid_gaussian(prop.GaussianState(Lambda=0.5j), n=256)
    ref = gridsim.evolve_grid(tc, psi0, 1e-3, 4, record_every=2)
    got = gridsim.evolve_grid(tc, psi0, 1e-3, np.int64(4),
                              record_every=np.int32(2))
    assert got.times == ref.times
    assert all(type(t) is float for t in got.times)
    assert np.array_equal(got.final().values, ref.final().values)


@pytest.mark.parametrize("t0", [math.nan, math.inf])
def test_evolve_grid_refuses_a_non_finite_t0(t0):
    tc = _ham(coeff.ModelSpec(coeff.CALDIROLA_KANAI, 1.0, 0.2))
    psi0 = _grid_gaussian(prop.GaussianState(Lambda=0.5j), n=256)
    with pytest.raises(ValidationError) as err:
        gridsim.evolve_grid(tc, psi0, 1e-3, 3, t0=t0)
    assert "t0" in err.value.info


def test_coefficient_overflow_is_a_singular_coefficient():
    # Caldirola-Kanai's e^{2 lambda t} overflows math.exp at t0 = 1e6
    tc = _ham(coeff.ModelSpec(coeff.CALDIROLA_KANAI, 1.0, 0.2))
    psi0 = _grid_gaussian(prop.GaussianState(Lambda=0.5j), n=256)
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
    psi0 = _grid_gaussian(prop.GaussianState(Lambda=0.5j), n=64)
    with pytest.raises(SingularCoefficient) as err:
        gridsim.evolve_grid(tc, psi0, 1e-3, 30, record_every=10)
    assert err.value.info["t"] == pytest.approx(0.0105)


def test_an_empty_state_has_no_moments_and_evolves_to_zeros():
    psi0 = prop.GridState(-4.0, 0.125, np.zeros(65, dtype=complex))
    with pytest.raises(ValidationError):
        gridsim.measure_moments(psi0)
    # its leak fraction is 0, not 0/0
    ev = gridsim.evolve_grid(_ham(SHO), psi0, 1e-3, 10)
    assert not ev.final().values.any()


def test_snapshot_count_default():
    tc = _ham(SHO)
    psi0 = _grid_gaussian(prop.GaussianState(Lambda=0.5j), n=64)
    ev = gridsim.evolve_grid(tc, psi0, 1e-3, 160)
    assert 16 <= len(ev.states) <= 18
    assert ev.times[0] == 0.0
    assert ev.times[-1] == pytest.approx(0.16)


def _run_fresh(code):
    """Run ``code`` in a fresh interpreter; returns its stdout as JSON."""
    src = os.path.dirname(os.path.dirname(quadham.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_grid_setup_import_leaves_scipy_linalg_unloaded():
    # scipy.linalg's __init__ would be more than half of the import of
    # gridsim, which calls one routine of its LAPACK extension
    loaded = _run_fresh(
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
tc = coeff.builtin_coefficients(coeff.ModelSpec(coeff.CALDIROLA_KANAI, 1.0,
                                                0.2), coeff.HAMILTONIAN)
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
    before = _run_fresh(_CN_RUN.format(first="import scipy.linalg",
                                       second=""))
    after = _run_fresh(_CN_RUN.format(first="",
                                      second="import scipy.linalg"))
    assert before[0] == before[1] == after[0] == after[1]


def test_gridsim_shares_a_loaded_lapack_extension():
    # after scipy.linalg, gridsim binds scipy's own module object of the
    # extension instead of loading a second copy
    same = _run_fresh(
        "import json, scipy.linalg, scipy.linalg._flapack as f; "
        "from quadham import gridsim; "
        "print(json.dumps(gridsim.zgtsv is f.zgtsv))")
    assert same is True


def test_missing_lapack_extension_is_an_import_error(monkeypatch, tmp_path):
    fake = types.SimpleNamespace(__file__=str(tmp_path / "__init__.py"))
    monkeypatch.setattr(gridsim, "scipy", fake)
    with pytest.raises(ImportError, match="_flapack"):
        gridsim._load_flapack()
