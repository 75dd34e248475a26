"""Acceptance suite: ten end-to-end checks, one printed pass/fail line each.

Report lines are printed as each check runs and collected in REPORT_LINES,
which conftest.py echoes in the terminal summary after a captured run.
"""

import math

import numpy as np
import pytest

REPORT_LINES = []

from quadham import characteristic as chr_mod
from quadham import coefficients as coeff
from quadham import dynamics as dyn
from quadham import gridsim
from quadham import invariants as inv
from quadham import propagator as prop
from quadham.characteristic import classical_flow
from auxiliary import auxiliary_residual
from helpers import grid_gaussian, solve_kernel
from schrodinger import schrodinger_residual

KERNEL_SPECS = [
    coeff.ModelSpec(coeff.CALDIROLA_KANAI, 1.0, 0.1),
    coeff.ModelSpec(coeff.MODIFIED_CK, 1.0, 0.1),
    coeff.ModelSpec(coeff.UNITED, 1.0, 0.3, 0.1),
    coeff.ModelSpec(coeff.MODIFIED_OSCILLATOR),
    coeff.ModelSpec(coeff.CJ_COORDINATE, 1.0, 0.2),
    coeff.ModelSpec(coeff.CJ_MOMENTUM, 1.0, 0.2),
    coeff.ModelSpec(coeff.MODIFIED_PARAMETRIC, 1.0, 0.2, delta=0.5),
    coeff.ModelSpec(coeff.PARAMETRIC_SECH2, 1.0, 0.2),
]

CATALOG_SPECS = KERNEL_SPECS  # the same eight carry conserved operators

UNITED = coeff.ModelSpec(coeff.UNITED, 1.0, 0.3, 0.1)
CJ = coeff.ModelSpec(coeff.CJ_COORDINATE, 1.0, 0.2)
CK = coeff.ModelSpec(coeff.CALDIROLA_KANAI, 1.0, 0.1)
SHO = coeff.ModelSpec(coeff.SIMPLE_HARMONIC, 1.0)


def _report(num: int, name: str, ok: bool, detail: str):
    line = f"[criterion {num:2d}] {'PASS' if ok else 'FAIL'} {name}: {detail}"
    REPORT_LINES.append(line)
    print(line)


def test_criterion_01_kernel_consistency():
    worst = 0.0
    for spec in KERNEL_SPECS:
        tc, path, kernel_of = solve_kernel(spec, 1.4)
        caustic = path.first_caustic
        hi = 1.4 if caustic is None else min(1.4, 0.9 * caustic[0])
        for t in np.linspace(hi / 20, hi, 20):
            kp = kernel_of(float(t))
            ref = chr_mod.closed_form_kernel(spec, float(t))
            for got, exp in ((kp.alpha, ref.alpha), (kp.beta, ref.beta),
                             (kp.gamma, ref.gamma)):
                worst = max(worst, abs(got - exp) / max(1.0, abs(exp)))
    ok = worst <= 1e-7
    _report(1, "kernel consistency (8 closed forms, 20 times each)", ok,
            f"max rel err {worst:.2e} (tol 1e-7)")
    assert ok


def test_criterion_02_pde_residual():
    rng = np.random.default_rng(20260826)
    worst = 0.0
    for spec in KERNEL_SPECS:
        # the fd truncation grows like (phase rate)^3 h^2, so the sample
        # window keeps |x|, |y| moderate and stays where mu is O(1)
        lo, hi = ((1.3, 2.0) if spec.model_id == coeff.MODIFIED_PARAMETRIC
                  else (0.7, 1.3))
        tc, _, kernel_of = solve_kernel(spec, hi + 0.1)
        for _ in range(10):
            x, y = rng.uniform(-0.6, 0.6, size=2)
            t = rng.uniform(lo, hi)
            worst = max(worst, schrodinger_residual(
                tc, kernel_of, float(x), float(y), float(t), fd_step=1e-3))
    ok = worst <= 1e-5
    _report(2, "PDE residual (10 random triples per model, fd_step 1e-3)",
            ok, f"max residual {worst:.2e} (tol 1e-5)")
    assert ok


def test_criterion_03_invariant_conservation():
    # grid evolutions: one period at N=2048, dt=1e-3; half-width 10 keeps
    # the O(dx^2) moment error below 1e-4, and the trigonometric
    # squeezing model runs on [0, 1] at half-width 12 since its packet
    # width grows like e^{2t} (a full pi period is not resolvable at this
    # grid size)
    worst_grid = 0.0
    worst_ode = 0.0
    for spec in CATALOG_SPECS:
        tc = coeff.catalog_coefficients(spec)
        form = lambda t, s=spec: inv.energy_operator_catalog(s, t)

        lam0, half, n = 0.5j, 10.0, 2048
        t_end = 2.0 * math.pi / spec.model.omega
        if spec.model_id == coeff.MODIFIED_OSCILLATOR:
            lam0, half, t_end = 1.0j, 12.0, 1.0
        elif spec.model_id == coeff.MODIFIED_PARAMETRIC:
            # the packet squeezes hard mid-period, so the O(dx^2) moment
            # error needs the finer grid
            n = 4096
        psi0 = grid_gaussian(prop.GaussianState(Lambda=lam0), half, n)
        steps = int(round(t_end / 1e-3))
        ev = gridsim.evolve_grid(tc, psi0, 1e-3, steps)
        worst_grid = max(worst_grid, gridsim.invariant_drift(ev, form))

        m0 = dyn.SecondMoments(p2=0.8, x2=0.7, pxxp=0.1)
        flow = classical_flow(tc, 2.0)
        path, raw = dyn.evolve_second_moments(flow, m0), dyn.evolve_raw(flow)
        ref = form(0.0).expectation(m0.p2, m0.x2, m0.pxxp)
        # the raw moments: per unit <1> times <1>
        drift = max(abs(form(float(t)).expectation(
            *map(raw(float(t)), path(float(t))[:3])) - ref)
            for t in np.linspace(0.1, 2.0, 16)) / max(abs(ref), 1e-30)
        worst_ode = max(worst_ode, drift)
    ok = worst_grid <= 1e-4 and worst_ode <= 1e-8
    _report(3, "invariant conservation (grid + moment ODE)", ok,
            f"max grid drift {worst_grid:.2e} (tol 1e-4), "
            f"max ODE drift {worst_ode:.2e} (tol 1e-8)")
    assert ok


def test_criterion_04_elementary_and_superposed_invariants():
    tc = coeff.builtin_coefficients(UNITED)
    mu_fn, C0 = (UNITED.closed_form("invariant_mu"),
                 UNITED.closed_form("invariant_c0"))
    res = max(auxiliary_residual(tc, mu_fn, C0, float(t))
              for t in np.linspace(0.0, 3.0, 13))
    coeff_err = 0.0
    flow = classical_flow(tc, 2.1)
    for t in (0.0, 0.9, 2.1):
        got = inv.general_invariant(flow, mu_fn, C0, t)
        ref = inv.energy_operator_catalog(UNITED, t)
        scale = max(abs(ref.A), abs(ref.B), 1.0)
        coeff_err = max(coeff_err, *(abs(g - r) / scale for g, r in
                                     ((got.A, ref.A), (got.B, ref.B),
                                      (got.C, ref.C), (got.D, ref.D))))
    rng = np.random.default_rng(42)
    u = inv.solve_linear_auxiliary(flow, (1.0, 0.0))
    v = inv.solve_linear_auxiliary(flow, (0.0, 1.0))
    sup_res = 0.0
    for _ in range(5):
        A, C = rng.uniform(0.5, 2.0, size=2)
        B = rng.uniform(-0.9, 0.9) * math.sqrt(A * C)
        m_fn, c0 = inv.superpose_linear_solutions(tc, u, v, A, B, C)
        sup_res = max(sup_res, max(
            auxiliary_residual(tc, m_fn, c0, float(t))
            for t in np.linspace(0.0, 2.0, 9)))
    ok = res <= 1e-10 and coeff_err <= 1e-10 and sup_res <= 1e-9
    _report(4, "elementary invariant + superposed auxiliary solutions", ok,
            f"aux residual {res:.2e} (tol 1e-10), coeff err {coeff_err:.2e} "
            f"(tol 1e-10), superposed residual {sup_res:.2e} (tol 1e-9)")
    assert ok


def test_criterion_05_energy_expectation_closed_forms():
    m0 = dyn.SecondMoments(p2=0.8, x2=0.7, pxxp=0.1)
    m0_even = dyn.SecondMoments(p2=0.8, x2=0.7, pxxp=0.0)
    worst = 0.0
    for spec in (CK, coeff.ModelSpec(coeff.MODIFIED_CK, 1.0, 0.1),
                 UNITED, coeff.ModelSpec(coeff.MODIFIED_OSCILLATOR)):
        flow = classical_flow(coeff.catalog_coefficients(spec), 3.0)
        path, raw = dyn.evolve_second_moments(flow, m0), dyn.evolve_raw(flow)
        for t in np.linspace(0.2, 3.0, 11):
            m = dyn.SecondMoments(*map(raw(float(t)), path(float(t))))
            A, B, C = dyn.reference_operator(spec, float(t))
            got = A * m.p2 + B * m.x2 + 0.5 * C * m.pxxp
            ref = dyn.closed_form_expectation(spec, m0, float(t))
            worst = max(worst, abs(got - ref) / max(1.0, abs(ref)))
    tc = coeff.catalog_coefficients(CJ)
    y = dyn.damped_energy_equation_solve(CJ, m0_even, classical_flow(tc, 5.0))
    worst_cj = 0.0
    for t in np.concatenate(([0.01, 0.05], np.linspace(0.2, 5.0, 25))):
        ref = dyn.closed_form_expectation(CJ, m0_even, float(t))
        worst_cj = max(worst_cj, abs(y(float(t)) - ref) / max(1.0, abs(ref)))
    ok = worst <= 1e-8 and worst_cj <= 1e-6
    _report(5, "energy expectation closed forms", ok,
            f"oscillator family err {worst:.2e} (tol 1e-8), "
            f"damped-equation err {worst_cj:.2e} (tol 1e-6)")
    assert ok


def test_criterion_06_hyperbolic_basis():
    worst_res = 0.0
    worst_w = 0.0
    for basis in (dyn.HyperbolicBasis(lam=0.2, omega=1.0),
                  dyn.HyperbolicBasis(lam=0.35, omega=1.4, gamma=0.3)):
        for t in np.linspace(0.05, 5.0, 100):
            t = float(t)
            worst_res = max(worst_res, basis.y_residual(1, t),
                            basis.y_residual(2, t),
                            basis.y_particular_residual(t),
                            basis.z_residual(1, t), basis.z_residual(2, t))
            worst_w = max(worst_w, basis.y_wronskian_residual(t),
                          basis.z_wronskian_residual(t))
    ok = worst_res <= 1e-9 and worst_w <= 1e-10
    _report(6, "hyperbolic basis residuals and Wronskians", ok,
            f"max ODE residual {worst_res:.2e} (tol 1e-9), "
            f"max Wronskian err {worst_w:.2e} (tol 1e-10)")
    assert ok


def test_criterion_07_first_moments_norm_and_uncertainty():
    worst_x = 0.0
    for spec in (UNITED, CJ):
        tc = coeff.builtin_coefficients(spec)
        fm0 = dyn.FirstMoments(*spec.closed_form("mean_start")(0.9, 0.4))
        flow = classical_flow(tc, 4.0)
        path, raw = dyn.evolve_first_moments(flow, fm0), dyn.evolve_raw(flow)
        for t in np.linspace(0.0, 4.0, 17):
            ref = spec.closed_form("mean_position")(0.9, 0.4, float(t))
            worst_x = max(worst_x,
                          abs(raw(float(t))(path(float(t)).x) - ref))

    tc = coeff.builtin_coefficients(UNITED)
    psi0 = grid_gaussian(prop.GaussianState(Lambda=0.5j), 10.0)
    ev = gridsim.evolve_grid(tc, psi0, 1e-3, 1000)
    n0 = psi0.norm_sq()
    worst_norm = max(abs(s.norm_sq() / n0 - math.exp(-0.1 * t))
                     for t, s in zip(ev.times[1:], ev.states[1:]))

    c0 = dyn.SecondMoments(p2=0.54, x2=0.51, pxxp=0.04).centred(
        dyn.FirstMoments(0.1, 0.2))
    margin0 = dyn.uncertainty_check(c0)["margin"]
    worst_margin = 0.0
    for spec in (CK, UNITED, CJ):
        tc = coeff.builtin_coefficients(spec)
        path = dyn.evolve_second_moments(classical_flow(tc, 3.0), c0)
        worst_margin = min(worst_margin, min(
            dyn.uncertainty_check(path(float(t)))["margin"]
            for t in np.linspace(0.0, 3.0, 13)))
    ok = (worst_x <= 1e-8 and worst_norm <= 1e-4
          and worst_margin >= -1e-10 and abs(margin0) <= 1e-12)
    _report(7, "mean position, grid norm law, uncertainty margin", ok,
            f"<x> err {worst_x:.2e} (tol 1e-8), norm err {worst_norm:.2e} "
            f"(tol 1e-4), min margin {worst_margin:.2e} (floor -1e-10), "
            f"t=0 margin {margin0:.2e} (tol 1e-12)")
    assert ok


def test_criterion_08_ladder_algebra():
    worst_c = 0.0
    worst_rec = 0.0
    cases = []
    flow_u = classical_flow(coeff.builtin_coefficients(UNITED), 2.5)
    cases.append((flow_u, UNITED.closed_form("invariant_mu"),
                  UNITED.closed_form("invariant_c0")))
    for spec in (CK, SHO):
        tc = coeff.builtin_coefficients(spec)
        flow = classical_flow(tc, 2.5)
        u = inv.solve_linear_auxiliary(flow, (1.0, 0.0))
        v = inv.solve_linear_auxiliary(flow, (0.0, 1.0))
        mu_fn, c0 = inv.superpose_linear_solutions(tc, u, v, 1.2, 0.3, 0.9)
        cases.append((flow, mu_fn, c0))
    for flow, mu_fn, c0 in cases:
        for t in (0.0, 0.8, 1.9):
            pair = inv.ladder_factorization(flow, mu_fn, c0, t)
            worst_c = max(worst_c, abs(pair.commutator() - 1.0))
            rec = pair.reconstruct()
            ref = inv.general_invariant(flow, mu_fn, c0, t)
            scale = max(abs(ref.A), abs(ref.B), 1.0)
            worst_rec = max(worst_rec, *(abs(g - r) / scale for g, r in
                                         ((rec.A, ref.A), (rec.B, ref.B),
                                          (rec.C, ref.C), (rec.D, ref.D))))
    ok = worst_c <= 1e-12 and worst_rec <= 1e-10
    _report(8, "ladder commutator and reconstruction (3 models)", ok,
            f"commutator err {worst_c:.2e} (tol 1e-12), "
            f"reconstruction err {worst_rec:.2e} (tol 1e-10)")
    assert ok


def test_criterion_09_three_way_oracle_cross_check():
    worst = 0.0
    for spec in (CK, SHO):
        tc = coeff.builtin_coefficients(spec)
        path = classical_flow(tc, 0.7)
        kp = chr_mod.kernel_parameters(tc, path, 0.5)
        s0 = prop.GaussianState(Lambda=0.5j, Theta=0.2)
        psi0 = grid_gaussian(s0, 12.0)
        exact = prop.propagate_gaussian(kp, s0).eval(psi0.x)
        quad_vals = prop.propagate_grid(kp, psi0).values
        cn_vals = gridsim.evolve_grid(tc, psi0, 5e-4, 1000).final().values
        worst = max(worst,
                    float(np.max(np.abs(exact - quad_vals))),
                    float(np.max(np.abs(exact - cn_vals))),
                    float(np.max(np.abs(quad_vals - cn_vals))))
    ok = worst <= 1e-4
    _report(9, "kernel quadrature vs Gaussian closed form vs grid scheme",
            ok, f"max pairwise sup-norm {worst:.2e} (tol 1e-4)")
    assert ok


def test_criterion_10_convergence_orders():
    # time order: same spatial grid, reference at much smaller dt so the
    # spatial error cancels in the differences
    tc = coeff.builtin_coefficients(SHO)
    psi0 = grid_gaussian(prop.GaussianState(Lambda=0.5j), 10.0, n=512)
    t_end = 0.4

    def run(dt):
        return gridsim.evolve_grid(tc, psi0, dt, int(round(t_end / dt)),
                                   record_every=10 ** 9).final().values

    ref = run(t_end / 512)
    e1 = float(np.max(np.abs(run(t_end / 32) - ref)))
    e2 = float(np.max(np.abs(run(t_end / 64) - ref)))
    time_ratio = e1 / e2

    tc_ck, _, kernel_of = solve_kernel(CK, 1.0)
    r1 = schrodinger_residual(tc_ck, kernel_of, 0.5, 0.2, 0.6,
                              fd_step=2e-3)
    r2 = schrodinger_residual(tc_ck, kernel_of, 0.5, 0.2, 0.6,
                              fd_step=1e-3)
    fd_ratio = r1 / r2
    ok = 3.5 <= time_ratio <= 4.5 and 3.5 <= fd_ratio <= 4.5
    _report(10, "convergence orders (time halving, fd halving)", ok,
            f"time ratio {time_ratio:.3f}, fd ratio {fd_ratio:.3f} "
            f"(both in [3.5, 4.5])")
    assert ok
