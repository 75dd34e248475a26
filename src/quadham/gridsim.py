"""Finite-difference simulation of the evolution on a spatial grid.

Crank-Nicolson with centered differences, coefficients frozen at step
midpoints, second-order in time and space.  The non-self-adjoint drift
term (c + d) x d/dx is discretized symmetrically as (x D1 + D1 x)/2 - 1/2
so the discrete norm obeys the continuum norm law up to O(dx^2).  Each
step is one tridiagonal solve with LAPACK's ``zgtsv``, or with ``zgttrs``
on one ``zgttrf`` factorisation where H is the same at every midpoint;
this is the only module of the package that imports scipy.  It takes
scipy's LAPACK extension ``scipy.linalg._flapack`` from ``sys.modules``,
or else loads it by itself: importing ``scipy.linalg`` for three
routines would more than double the import time of this module.
"""

import math
import numbers
import os
import sys
from importlib.machinery import PathFinder
from importlib.util import module_from_spec
from typing import NamedTuple, Sequence

import numpy as np
import scipy

from .coefficients import TimeCoefficients
from .dynamics import FirstMoments, SecondMoments
from .errors import (BoundaryLeak, NegativeVariance, NumericalError,
                      ValidationError)
from .invariants import _expectation_drift
from .ode import read
from .propagator import GridState


def _load_flapack():
    """scipy's ``_flapack`` extension module, loaded from scipy's install
    without running ``scipy/linalg/__init__.py``."""
    spec = PathFinder.find_spec(
        "_flapack", [os.path.join(os.path.dirname(scipy.__file__), "linalg")])
    if spec is None:
        raise ImportError("scipy's LAPACK extension scipy.linalg._flapack "
                          "is not installed", name="scipy.linalg._flapack")
    mod = module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


_flapack = sys.modules.get("scipy.linalg._flapack") or _load_flapack()
zgtsv, zgttrf, zgttrs = _flapack.zgtsv, _flapack.zgttrf, _flapack.zgttrs

# Kept only because the benchmark's run record (quadbench/run.py,
# environment()) reads it; there is one stepper and nothing compiled.
COMPILED = False

_EDGE_CELLS = 5
_LEAK_TOL = 1e-8
# the relative accuracy of the grid moments (O(dx^2)) the package checks
_CANCEL = 1e-4


class GridEvolution(NamedTuple):
    """Recorded states of one Crank-Nicolson run at a subset of step times."""

    times: Sequence[float]
    states: Sequence[GridState]

    def final(self) -> GridState:
        return self.states[-1]


def _count(name: str, n) -> int:
    """``n`` as an int; ValidationError unless an integer >= 1, not a bool."""
    if isinstance(n, bool) or not isinstance(n, numbers.Integral) or n < 1:
        raise ValidationError(f"{name} must be an int >= 1", **{name: n})
    return int(n)


def evolve_grid(tc: TimeCoefficients, psi0: GridState, dt: float,
                steps: int, t0: float = 0.0,
                record_every: int = None) -> GridEvolution:
    """Run `steps` Crank-Nicolson steps of size dt from t0.

    The generator is K = i a D2 - i b x^2 - s (x D1 + D1 x)/2 + s/2 - c,
    with H's c and drift s = c + d, centered D1, frozen at the step
    midpoints and Dirichlet boundaries (identity rows at both edges).  Each
    step solves (I - dt/2 K) psi_new = (I + dt/2 K) psi in the form
    (I - dt/2 K) y = 2 psi, psi_new = y - psi, with psi itself on the right
    of the edge rows so that psi_new vanishes there.  Each step calls
    ``zgtsv``, unless (a, b, c, d) is the same at every midpoint: then the
    system is built and factored once (``zgttrf``) and each step calls
    ``zgttrs``.

    States are recorded every ``record_every`` steps (default about 16
    snapshots) plus the initial and final ones.  Raises ValidationError
    unless t0 and dt are finite, dt > 0 and steps and record_every are
    integers >= 1 (no bool); SingularCoefficient, before any step, where
    the window [t0, t0 + steps dt] reaches ``tc.t_singular`` and where a
    coefficient fails at a step midpoint (see quadham.ode.read);
    NumericalError where a step's system is singular (info: the step,
    counted from 0 at t0, its midpoint t and LAPACK's info from ``zgtsv``
    or ``zgttrf``; a constant system is refused at step 0), at the first
    step whose bands are not finite, and at the first recorded state whose
    |psi|^2 does not sum to a finite number (info: t, the end of that step
    or that record);
    BoundaryLeak where a non-negligible probability fraction reaches the
    Dirichlet edges of a recorded state.
    """
    if not math.isfinite(t0):
        raise ValidationError("t0 must be finite", t0=t0)
    if not (0.0 < dt < math.inf):
        raise ValidationError("dt must be finite and positive", dt=dt)
    steps = _count("steps", steps)
    record_every = _count("record_every", max(1, steps // 16)
                          if record_every is None else record_every)
    tc.require_window(t0, t0 + steps * dt)
    t_mid = t0 + (np.arange(steps) + 0.5) * dt
    midpoints = [read((tc.a, tc.b, tc.c, tc.d), t) for t in t_mid]
    # the same bands at every step: factor them once
    constant = all(m == midpoints[0] for m in midpoints)
    x, dx, half = psi0.x, psi0.dx, 0.5 * dt
    x2 = x * x
    # (x_j + x_{j+1}) / (4 dx): the drift weight of the bond j, j+1
    bond = (x[1:] + x[:-1]) / (4.0 * dx)
    x2_max, bond_max = float(x2.max()), float(np.abs(bond).max())
    times, states = [t0], [psi0]
    psi = np.array(psi0.values, dtype=np.complex128)
    # a band that overflows is refused at its step, at O(1) cost; a state
    # that overflows on finite bands is refused at its record
    with np.errstate(over="ignore", invalid="ignore"):
        for step, (t, (a, b, c, d)) in enumerate(zip(t_mid, midpoints)):
            if step == 0 or not constant:
                s = c + d
                # lo, dg, up: the sub-, main and super-band of I - dt/2 K
                ho = 1j * half * a / (dx * dx)
                diag = 1.0 + 2.0 * ho + half * c - 0.25 * dt * s
                if not math.isfinite(abs(diag.real) + abs(diag.imag) + half * (
                        abs(s) * bond_max + abs(b) * x2_max)):
                    raise NumericalError("Crank-Nicolson state is not finite",
                                         t=t0 + (step + 1) * dt)
                drift = (half * s) * bond
                lo = -ho - drift
                up = drift - ho
                dg = diag + (1j * half * b) * x2
                dg[0] = dg[-1] = 1.0
                lo[-1] = 0.0
                up[0] = 0.0
            rhs = 2.0 * psi
            rhs[0], rhs[-1] = psi[0], psi[-1]
            if not constant:
                _, _, _, y, info = zgtsv(lo, dg, up, rhs, overwrite_dl=1,
                                         overwrite_d=1, overwrite_du=1,
                                         overwrite_b=1)
            elif step == 0:
                *lu, info = zgttrf(lo, dg, up, overwrite_dl=1,
                                   overwrite_d=1, overwrite_du=1)
            if info != 0:
                raise NumericalError("Crank-Nicolson system is singular",
                                     step=step, t=float(t), info=int(info))
            if constant:
                y, _ = zgttrs(*lu, rhs, overwrite_b=1)
            psi = y - psi
            done = step + 1
            if done % record_every and done < steps:
                continue
            times.append(t0 + done * dt)
            prob = np.abs(psi) ** 2
            total = prob.sum()
            if not math.isfinite(total):
                raise NumericalError("Crank-Nicolson state is not finite",
                                     t=times[-1])
            states.append(GridState(x0=psi0.x0, dx=dx, values=psi))
            edge = prob[:_EDGE_CELLS].sum() + prob[-_EDGE_CELLS:].sum()
            leak = float(edge / total) if total else 0.0
            if leak > _LEAK_TOL:
                raise BoundaryLeak("probability reached the grid edges",
                                   fraction=leak, t=times[-1])
    return GridEvolution(times=tuple(times), states=tuple(states))


def _derivative(values: np.ndarray, dx: float) -> np.ndarray:
    """Fourth-order central first derivative, one-sided at the edges."""
    d = np.empty_like(values)
    d[2:-2] = (8.0 * (values[3:-1] - values[1:-3])
               - (values[4:] - values[:-4])) / (12.0 * dx)
    d[0] = (values[1] - values[0]) / dx
    d[1] = (values[2] - values[0]) / (2.0 * dx)
    d[-2] = (values[-1] - values[-3]) / (2.0 * dx)
    d[-1] = (values[-1] - values[-2]) / dx
    return d


def measure_moments(state: GridState):
    """Raw first and second moments of a grid state by trapezoid quadrature.

    Momentum moments use a fourth-order finite-difference derivative;
    <px+xp> is the contraction -i integral psi* (x psi' + (x psi)') dx.
    """
    x = state.x
    psi = state.values
    w = np.full(x.size, state.dx)
    w[0] *= 0.5
    w[-1] *= 0.5
    prob = np.abs(psi) ** 2
    norm = float(np.sum(w * prob))
    if norm <= 0.0:
        raise ValidationError("empty state")
    mean_x = float(np.sum(w * x * prob))
    x2 = float(np.sum(w * x * x * prob))
    dpsi = _derivative(psi, state.dx)
    mean_p = float(np.sum(w * (np.conj(psi) * (-1j) * dpsi)).real)
    p2 = float(np.sum(w * np.abs(dpsi) ** 2))
    # -i(x psi' + (x psi)') = -i(2x psi' + psi); its psi-contraction has
    # real part 2 Re <x p>
    pxxp = float(np.sum(w * (np.conj(psi)
                             * (-1j) * (2.0 * x * dpsi + psi))).real)
    second = SecondMoments(p2=p2, x2=x2, pxxp=pxxp, norm=norm)
    first = FirstMoments(x=mean_x, p=mean_p)
    var_p, var_x = second.variances(first)
    if var_p < -1e-10 or var_x < -1e-10:
        raise NegativeVariance("grid moments produced a negative variance",
                               var_p=var_p, var_x=var_x)
    return first, second


def invariant_drift(ev: GridEvolution, form_of) -> float:
    """max_t |<E>(t) - <E>(0)| / |<E>(0)| over the recorded states, with
    ``form_of`` mapping t to a ``QuadraticForm``: criterion 3's grid drift,
    whose refusal reads |<E>(0)| <= _CANCEL times its terms as grid noise."""
    pairs = ((form_of(t), measure_moments(s)[1])
             for t, s in zip(ev.times, ev.states))
    return _expectation_drift(pairs, _CANCEL)[1]
