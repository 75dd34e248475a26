"""Builders the test modules share: H's flow and kernel reader for a model,
a sampled Gaussian, a fresh interpreter on this checkout's source, and the
hypothesis seed of one case of a parametrized test."""

import hashlib
import json
import os
import subprocess
import sys

import numpy as np

import quadham
from quadham import propagator as prop
from quadham.characteristic import classical_flow, kernel_parameters
from quadham.coefficients import builtin_coefficients


def solve_kernel(spec, horizon):
    """H's record, its flow on [0, horizon] and the map from t to the
    kernel parameters on that flow."""
    tc = builtin_coefficients(spec)
    flow = classical_flow(tc, horizon)
    return tc, flow, lambda t: kernel_parameters(tc, flow, t)


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
