"""The classical flow, the characteristic function mu and the kernel.

The linear dynamics of ``H = a p^2 + b x^2 + c px + d xp`` is the classical
2x2 flow M (det M = 1) of ``x' = 2 a p + (c + d) x``,
``p' = -2 b x - (c + d) p`` from M(0) = 1, with ``I = int_0^t (c - d)``
(Moshinsky & Quesne, J. Math. Phys. 12 (1971) 1772).  :func:`classical_flow`
is the package's one solve; the moments, the invariants and the
auxiliary equations are algebra on it.  The kernel ``G = (2 pi i mu)^(-1/2)
exp(i(alpha x^2 + beta x y + gamma y^2))`` is its generating function:

    h = e^I,  mu = M12 h,  mu' = (2 a M22 + 2 c M12) h,
    alpha = M22 / (2 M12),  beta = -1 / M12,  gamma = M11 / (2 M12).

mu solves the characteristic equation with ``mu(0) = 0``,
``mu'(0) = 2 a(0)``.  The flow needs no derivative of the coefficients and
no division by a(t); it is integrated with ``quadham.ode``.  The printed
mu and kernel of each built-in model live in its record in
:mod:`quadham.models`; ``closed_form_mu`` and ``closed_form_kernel`` look
them up.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .coefficients import (EQUATION, ModelSpec, TimeCoefficients,
                           convert_convention)
from .errors import CausticEncountered, SingularCoefficient, ValidationError
from .ode import bracket_sign_change, solve_ivp

MU_GUARD = 1e-10
# the flow's tolerance on the kernel path
_TOL = 1e-10


@dataclass(frozen=True)
class KernelParameters:
    """Green-function data at a single time."""

    t: float
    mu: float
    mu_prime: float
    h: float
    alpha: float
    beta: float
    gamma: float


def _mu_prime(tc: TimeCoefficients, t: float, y) -> float:
    # (2 a M22 + 2 c_H M12) e^I, where c_H is the equation-convention d
    return 2.0 * (tc.a(t) * y[3] + tc.d(t) * y[1]) * math.exp(y[-1])


class MuPath:
    """Dense-output flow (M11, M12, M21, M22, I) on [0, t_end]; ``tc``
    (equation convention) serves :meth:`mu_prime`."""

    def __init__(self, grid, flow, tc: TimeCoefficients | None = None):
        self.grid = np.asarray(grid, dtype=float)
        if self.grid.size < 2 or self.grid[0] != 0.0:
            raise ValueError("grid must start at 0 and contain >= 2 points")
        if np.any(np.diff(self.grid) <= 0):
            raise ValueError("grid must be strictly increasing")
        self._flow = flow
        self._tc = tc
        rows = flow(self.grid)
        m12 = rows[1]
        # mu = M12 e^I; I is the last row
        self.mu_values = m12 * np.exp(rows[-1])
        # first interior sign change of M12, or an exact zero, from index
        # 1; mu = M12 h has the sign of M12 because h > 0
        hit = np.flatnonzero((m12[1:-1] == 0.0) | (m12[1:-1] * m12[2:] < 0.0))
        self._caustic = None if hit.size == 0 else (
            float(self.grid[hit[0] + 1]), float(self.grid[hit[0] + 2]))

    @property
    def t_end(self) -> float:
        return float(self.grid[-1])

    def flow(self, t: float) -> tuple[float, float, float, float, float]:
        """(M11, M12, M21, M22, I) at t."""
        return tuple(self._flow(t).tolist())

    def mu(self, t: float) -> float:
        y = self._flow(t)
        return float(y[1] * math.exp(y[-1]))

    def mu_prime(self, t: float) -> float:
        return float(_mu_prime(self._tc, t, self._flow(t)))

    def mu_scale(self) -> float:
        return max(1.0, float(np.max(np.abs(self.mu_values))))

    def first_caustic(self):
        """Bracketing interval of the first interior zero of mu, or None."""
        return self._caustic


def classical_flow(tc: TimeCoefficients, t_end: float, tol: float):
    """Integrate (M11, M12, M21, M22, I) on [0, t_end] (either direction)
    with dense output; ``tc`` may be in either convention."""
    if not math.isfinite(t_end):
        raise ValidationError("the window must be finite", t_end=t_end)
    tc.require_window(t_end)
    eq = convert_convention(tc, EQUATION)
    a, b, c, d = eq.a, eq.b, eq.c, eq.d

    def rhs(t, y):
        # equation convention: c = c_H + d_H and d = c_H, so the drift is
        # c and I' = c_H - d_H = 2 d - c
        m11, m12, m21, m22, _ = y
        two_a, two_b, s = 2.0 * a(t), 2.0 * b(t), c(t)
        return [two_a * m21 + s * m11, two_a * m22 + s * m12,
                -two_b * m11 - s * m21, -two_b * m12 - s * m22,
                2.0 * d(t) - s]

    return solve_ivp(rhs, (0.0, t_end), [1.0, 0.0, 0.0, 1.0, 0.0],
                     rtol=tol, atol=tol * 1e-2, max_step=abs(t_end) / 16)


def solve_characteristic(tc: TimeCoefficients, t_end: float) -> MuPath:
    """The classical flow on [0, t_end] as a :class:`MuPath`, with grid
    points either side of the first zero of mu."""
    tc.require(EQUATION)
    if not 0 < t_end < math.inf:
        raise ValidationError("t_end must be positive and finite",
                              t_end=t_end)
    if t_end >= tc.t_max:
        raise SingularCoefficient("t_end reaches the coefficient limit t_max",
                                  t_end=t_end, t_max=tc.t_max)
    sol = classical_flow(tc, t_end, _TOL)
    path = MuPath(sol.t, sol, tc)
    caustic = path.first_caustic()
    if caustic is None:
        return path
    # the step points bracket the first zero of mu only to a step: locate
    # it on the dense output and add grid points a margin either side, wide
    # enough to hold the exact zero too (the numerical one is within about
    # tol * t_end of it)
    lo, hi = bracket_sign_change(lambda t: sol(t)[1], *caustic)
    pad = math.sqrt(_TOL) * t_end
    return MuPath(np.union1d(sol.t, (max(caustic[0], lo - pad),
                                     min(caustic[1], hi + pad))), sol, tc)


def closed_form_mu(spec: ModelSpec, t: float) -> tuple[float, float]:
    """The printed solution (mu, mu') of the characteristic equation."""
    return spec.closed_form("mu")(t)


def kernel_parameters(tc: TimeCoefficients, mu_path: MuPath,
                      t: float) -> KernelParameters:
    """Assemble (mu, mu', h, alpha, beta, gamma) at time t from the flow
    matrix of ``mu_path``.

    Raises CausticEncountered when mu vanishes at t or changes sign before
    it, and ValidationError when t lies past the solved window, where the
    dense output would extrapolate and no caustic scan has been made.
    """
    tc.require(EQUATION)
    if not (t > 0):
        raise CausticEncountered("kernel is singular at t = 0", t=t)
    if t > mu_path.t_end:
        raise ValidationError("t lies past the solved window",
                              t=t, t_end=mu_path.t_end)
    caustic = mu_path.first_caustic()
    if caustic is not None and caustic[0] < t:
        raise CausticEncountered(
            "mu changes sign before the requested time", bracket=caustic)

    y = mu_path.flow(t)
    m11, m12, _, m22, log_h = y
    h = math.exp(log_h)
    mu = m12 * h
    if abs(mu) < MU_GUARD * mu_path.mu_scale():
        raise CausticEncountered("mu is inside the caustic guard band",
                                 t=t, mu=mu)
    return KernelParameters(t=t, mu=mu, mu_prime=_mu_prime(tc, t, y), h=h,
                            alpha=m22 / (2.0 * m12), beta=-1.0 / m12,
                            gamma=m11 / (2.0 * m12))


def closed_form_kernel(spec: ModelSpec, t: float) -> KernelParameters:
    """The printed elementary kernel parameters of the built-in models."""
    kernel = spec.closed_form("kernel")
    if not (t > 0):
        raise CausticEncountered("kernel is singular at t = 0", t=t)
    mu, mup = closed_form_mu(spec, t)
    alpha, beta, gamma, h = kernel(t)
    if abs(mu) < MU_GUARD:
        raise CausticEncountered("mu is inside the caustic guard band", t=t)
    return KernelParameters(t=t, mu=mu, mu_prime=mup, h=h,
                            alpha=alpha, beta=beta, gamma=gamma)
