"""Finite-difference simulation of the evolution on a spatial grid.

Crank-Nicolson with centered differences, coefficients frozen at step
midpoints, second-order in time and space.  The non-self-adjoint drift
term c x d/dx is discretized symmetrically as (x D1 + D1 x)/2 - 1/2 so the
discrete norm obeys the continuum norm law up to O(dx^2).  Each step builds
the explicit half with numpy and solves the implicit tridiagonal system
with LAPACK's ``zgtsv``.
"""

from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.linalg.lapack import zgtsv

from ..coefficients import EQUATION, TimeCoefficients, convert_convention
from ..dynamics import FirstMoments, SecondMoments
from ..errors import (BoundaryLeak, NegativeVariance, NumericalError,
                      ValidationError)
from ..propagator import GridState

# Kept only because the benchmark's run record (quadbench/run.py,
# environment()) reads it; there is one stepper and nothing compiled.
COMPILED = False

_EDGE_CELLS = 5
_LEAK_TOL = 1e-8


@dataclass(frozen=True)
class GridEvolution:
    """Recorded states of one Crank-Nicolson run at a subset of step times."""

    times: Sequence[float]
    states: Sequence[GridState]
    dt: float

    def final(self) -> GridState:
        return self.states[-1]


def _leak_fraction(state: GridState) -> float:
    prob = np.abs(state.values) ** 2
    total = prob.sum()
    if total == 0.0:
        return 0.0
    edge = prob[:_EDGE_CELLS].sum() + prob[-_EDGE_CELLS:].sum()
    return float(edge / total)


def _cn_run(psi, x, dx, dt, a_mid, b_mid, c_mid, d_mid):
    """Advance psi through len(a_mid) Crank-Nicolson steps of size dt.

    The generator is K = i a D2 - i b x^2 - c (x D1 + D1 x)/2 + c/2 - d
    with centered D1, coefficients frozen at the step midpoints and
    Dirichlet boundaries (identity rows at both edges).  Each step solves
    (I - dt/2 K) psi_new = (I + dt/2 K) psi.
    """
    psi = np.array(psi, dtype=np.complex128)
    x2 = x * x
    # (x_j + x_{j+1}) / (4 dx): the drift weight of the bond j, j+1
    bond = (x[1:] + x[:-1]) / (4.0 * dx)
    half = 0.5 * dt
    for k, (a, b, c, d) in enumerate(zip(a_mid, b_mid, c_mid, d_mid)):
        # lo, up: minus dt/2 times the sub- and super-band of K;
        # ex: the diagonal of I + dt/2 K
        ho = 1j * half * a / (dx * dx)
        drift = (half * c) * bond
        lo = -ho - drift
        up = drift - ho
        ex = ((1.0 - 2.0 * ho - half * d + 0.25 * dt * c)
              - (1j * half * b) * x2)
        rhs = ex * psi
        rhs[1:-1] -= lo[:-1] * psi[:-2] + up[1:] * psi[2:]
        rhs[0] = rhs[-1] = 0.0
        dg = 2.0 - ex
        dg[0] = dg[-1] = 1.0
        lo[-1] = 0.0
        up[0] = 0.0
        _, _, _, psi, info = zgtsv(lo, dg, up, rhs, overwrite_dl=1,
                                   overwrite_d=1, overwrite_du=1,
                                   overwrite_b=1)
        if info != 0:
            raise NumericalError("Crank-Nicolson system is singular",
                                 step=k, info=int(info))
    return psi


def evolve_grid(tc: TimeCoefficients, psi0: GridState, dt: float,
                steps: int, t0: float = 0.0, record_every: int = None,
                check_boundary: bool = True) -> GridEvolution:
    """Run `steps` Crank-Nicolson steps of size dt from t0.

    States are recorded every ``record_every`` steps (default about 16
    snapshots) plus the initial and final ones.  Raises BoundaryLeak when a
    non-negligible probability fraction reaches the Dirichlet edges of any
    recorded state.
    """
    if dt <= 0.0:
        raise ValidationError("dt must be positive")
    if steps < 1:
        raise ValidationError("steps must be >= 1")
    if record_every is None:
        record_every = max(1, steps // 16)
    eq = convert_convention(tc, EQUATION)
    x = psi0.x
    times = [t0]
    states = [psi0]
    cur = psi0
    done = 0
    while done < steps:
        chunk = min(record_every, steps - done)
        t_mid = t0 + (done + np.arange(chunk) + 0.5) * dt
        a_mid = np.array([eq.a(t) for t in t_mid])
        b_mid = np.array([eq.b(t) for t in t_mid])
        c_mid = np.array([eq.c(t) for t in t_mid])
        d_mid = np.array([eq.d(t) for t in t_mid])
        psi = _cn_run(cur.values, x, psi0.dx, dt, a_mid, b_mid, c_mid, d_mid)
        done += chunk
        cur = GridState(x0=psi0.x0, dx=psi0.dx, values=psi)
        if check_boundary:
            leak = _leak_fraction(cur)
            if leak > _LEAK_TOL:
                raise BoundaryLeak("probability reached the grid edges",
                                   fraction=leak, t=t0 + done * dt)
        times.append(t0 + done * dt)
        states.append(cur)
    return GridEvolution(times=tuple(times), states=tuple(states), dt=dt)


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


def invariant_drift(tc: TimeCoefficients, ev: GridEvolution,
                    form_of, eps: float = 1e-30) -> float:
    """max_t |<E>(t) - <E>(0)| / max(|<E>(0)|, eps) over the recorded
    states.  ``form_of`` maps t to an object with A, B, C, D attributes.
    """

    def value(s, t):
        _, m = measure_moments(s)
        f = form_of(t)
        return (f.A * m.p2 + f.B * m.x2 + 0.5 * (f.C + f.D) * m.pxxp)

    ref = value(ev.states[0], ev.times[0])
    scale = max(abs(ref), eps)
    return max(abs(value(s, t) - ref)
               for t, s in zip(ev.times[1:], ev.states[1:])) / scale \
        if len(ev.states) > 1 else 0.0
