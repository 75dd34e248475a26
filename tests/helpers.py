"""Builders the test modules share: H's flow and kernel reader for a model,
the oscillator (p^2 + omega^2 x^2) / 2 and its Ermakov kappa, a sampled
Gaussian, a fresh interpreter on this checkout's source, the
hypothesis seed of one case of a parametrized test, and initial moments
whose centring is exact."""

import hashlib
import json
import math
import os
import subprocess
import sys

import numpy as np
from hypothesis import strategies as st

import quadham
from quadham import invariants as inv, propagator as prop
from quadham.characteristic import classical_flow, kernel_parameters
from quadham.coefficients import TimeCoefficients, builtin_coefficients


def solve_kernel(spec, horizon):
    """H's record, its flow read to horizon and the map from t to the
    kernel parameters on that flow."""
    tc = builtin_coefficients(spec)
    flow = classical_flow(tc)
    flow.at(horizon)
    return tc, flow, lambda t: kernel_parameters(tc, flow, t)


def oscillator(omega_sq):
    """H = (p^2 + omega^2(t) x^2) / 2, with the derivatives of a, c, d."""
    zero = lambda t: 0.0
    return TimeCoefficients(lambda t: 0.5, lambda t: 0.5 * omega_sq(t),
                            zero, zero, da=zero, dc=zero, dd=zero)


def ermakov(omega_sq, c0, init):
    """kappa'' + omega^2(t) kappa = c0 / kappa^3 from init = (kappa0,
    kappa0'), as Pinney's superposition of the columns (M11, M12) of the
    flow of ``oscillator(omega_sq)`` with (A, B, C) = (kappa0^2,
    kappa0 kappa0', kappa0'^2 + c0 / kappa0^2).  Returns (kappa_fn, C0,
    flow), C0 computed from A, B and C."""
    kappa0, kappa0p = init
    flow = classical_flow(oscillator(omega_sq))
    u = inv.solve_linear_auxiliary(flow, (1.0, 0.0))
    v = inv.solve_linear_auxiliary(flow, (0.0, 1.0))
    kappa_fn, C0 = inv.superpose_linear_solutions(
        flow.tc, u, v, kappa0 ** 2, kappa0 * kappa0p,
        kappa0p ** 2 + c0 / kappa0 ** 2)
    return kappa_fn, C0, flow


def grid_gaussian(state, half_width=10.0, n=2048):
    """``state`` sampled at n points on [-half_width, half_width]."""
    dx = 2.0 * half_width / (n - 1)
    x = -half_width + dx * np.arange(n)
    return prop.GridState(-half_width, dx, state.eval(x))


def run_fresh(code):
    """Run ``code`` in a fresh interpreter; returns its stdout as JSON."""
    src = os.path.dirname(os.path.dirname(quadham.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def case_seed(request) -> int:
    """The hypothesis seed of the running case of a parametrized test, a
    hash of its name (``test_x[united]``): one ``@seed`` on the test would
    give every case the same stream, and ``derandomize`` alone seeds from
    the test's source, which any edit moves."""
    return int.from_bytes(
        hashlib.sha256(request.node.name.encode()).digest(), "big")


# a covariance (var_x, var_p, cov) on the 2^-6 grid: variances in [1/8, 4]
# and |cov| < 0.99 sqrt(var_x var_p), truncated to the grid
DYADIC_COVARIANCES = st.builds(
    lambda i, j, corr: (i / 64.0, j / 64.0,
                        math.trunc(corr * math.sqrt(i * j)) / 64.0),
    st.integers(8, 256), st.integers(8, 256), st.floats(-0.99, 0.99))


def shifted_moments(var_x, var_p, cov, x_mean, p_mean):
    """(<p^2>, <x^2>, <px+xp>, <x>, <p>) at <1> = 1 of a covariance about
    the means.  For a grid covariance and integer means up to 2^22 every
    value is exact in binary64, and so is the centring that recovers the
    covariance."""
    return (p_mean * p_mean + var_p, x_mean * x_mean + var_x,
            2.0 * (x_mean * p_mean + cov), x_mean, p_mean)


def dyadic_states(mean_bound):
    """Strategy of shifted_moments on a grid covariance and integer means
    of magnitude up to mean_bound."""
    mean = st.integers(-mean_bound, mean_bound).map(float)
    return st.builds(lambda c, x, p: shifted_moments(*c, x, p),
                     DYADIC_COVARIANCES, mean, mean)
