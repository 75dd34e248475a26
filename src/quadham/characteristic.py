"""The classical flow, the characteristic function mu and the kernel.

The linear dynamics of ``H = a p^2 + b x^2 + c px + d xp`` is the classical
2x2 flow M (det M = 1) of ``x' = 2 a p + (c + d) x``,
``p' = -2 b x - (c + d) p`` from M(0) = 1, with ``I = int_0^t (c - d)``
(Moshinsky & Quesne, J. Math. Phys. 12 (1971) 1772).  :func:`classical_flow`
is the package's one solve; the moments, the invariants and the auxiliary
equations are algebra on the :class:`Flow` it returns, whose ``tc`` is
always H's own.  The kernel ``G = (2 pi i mu)^(-1/2)
exp(i(alpha x^2 + beta x y + gamma y^2))`` is its generating function:

    h = e^I,  mu = M12 h,  mu' = (2 a M22 + 2 c M12) h,
    alpha = M22 / (2 M12),  beta = -1 / M12,  gamma = M11 / (2 M12).

mu solves the characteristic equation with ``mu(0) = 0``,
``mu'(0) = 2 a(0)``.  The flow needs no derivative of the coefficients and
no division by a(t).  ``quadham.ode`` integrates it by 6th-order Magnus
steps, which keep det M = 1 to rounding, with one tolerance on every path,
FLOW_TOL; the Flow holds the rows and the work counts of the solve and
gives the dense output by one sub-step from a step point.  Every kernel
reader refuses the caustic band |mu| <= MU_GUARD |t mu'|, in any units.
The printed mu and kernel of each built-in model live in its record in
:mod:`quadham.models`; ``closed_form_mu`` and ``closed_form_kernel`` look
them up.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from functools import cached_property
from typing import NamedTuple

from .coefficients import ModelSpec, TimeCoefficients
from .errors import (CausticEncountered, NumericalError, SingularCoefficient,
                     ValidationError)
from .ode import (EVALS_PER_STEP, FLOW_TOL, bracket_sign_change,
                  magnus_step, read, solve_ivp)

# beta = -1/M12 is off by M12's error over |M12|, which shrinks as the time
# |mu / mu'| to the zero of mu.  Over the ten models at omega0 0.7, 1, 1.5,
# lambda 0.2 and 0.35, flows solved to t within 1e-3 before the first
# caustic, 1e-7 is the least power of ten serving no kernel past criterion
# 1's 1e-7; at 1e-8 modified_ck (omega0 0.7, lambda 0.35) is 1.4e-7 off.
MU_GUARD = 1e-7


class KernelParameters(NamedTuple):
    """Green-function data at a single time."""

    t: float
    mu: float
    mu_prime: float
    h: float
    alpha: float
    beta: float
    gamma: float


class FlowPoint(NamedTuple):
    """M = [[m11, m12], [m21, m22]] and I at a time."""

    m11: float
    m12: float
    m21: float
    m22: float
    i: float


def _congruence(m11: float, m12: float, m21: float, m22: float, s):
    """M S M^T for M = [[m11, m12], [m21, m22]] and the symmetric
    S = [[s11, s12], [s12, s22]] given as (s11, s12, s22); returns the same
    three entries of the product, summed in the order of (M S) M^T.

    Private, though the moment and energy paths use it, so that a traced
    run counts its time in their layer."""
    s11, s12, s22 = s
    r11, r12 = m11 * s11 + m12 * s12, m11 * s12 + m12 * s22
    r21, r22 = m21 * s11 + m22 * s12, m21 * s12 + m22 * s22
    return r11 * m11 + r12 * m12, r11 * m21 + r12 * m22, r21 * m21 + r22 * m22


def _served(t: float, mu: float, mu_prime: float) -> None:
    """Refuse the caustic band |mu| <= MU_GUARD |t mu'|: the one check of
    every kernel reader, private so that a trace gives it no span."""
    if not abs(mu) > MU_GUARD * abs(t * mu_prime):
        raise CausticEncountered("mu is inside the caustic guard band",
                                 t=t, mu=mu, mu_prime=mu_prime)


def _weight(t: float, i: float, sign: float = 1.0) -> float:
    """e^(sign I) for the flow's I = i at t; NumericalError where it
    overflows, private so that a trace gives it no span."""
    try:
        return math.exp(sign * i)
    except OverflowError as exc:
        raise NumericalError("the flow's weight e^(+-I) overflows",
                             t=t, I=i) from exc


def _mu(tc: TimeCoefficients, t: float, p: FlowPoint):
    """(mu, mu', h) at t from the flow point p, with one h = e^I."""
    h = _weight(t, p.i)
    a, c = read((tc.a, tc.c), t)
    return p.m12 * h, 2.0 * (a * p.m22 + c * p.m12) * h, h


class Flow:
    """The classical flow of the Hamiltonian coefficients ``tc`` between 0
    and ``t_end``, the result of one solve: ``steps`` holds the
    :class:`FlowPoint` at each step point ``t``, and ``nfev``, ``n_steps``
    and ``n_rejected`` count the solve's work (evaluations of (a, b, c, d)
    and accepted and rejected steps).  :meth:`at` refuses a time outside
    the window, and :meth:`mu` reads (mu, mu') off one point of it, the
    pair ``closed_form_mu`` returns.  The first caustic is found once."""

    def __init__(self, tc: TimeCoefficients, ts, ys, n_rejected: int):
        self.tc, self.t = tc, ts
        self.steps = [FlowPoint._make(y) for y in ys]
        self.t_end = float(ts[-1])
        self.n_steps, self.n_rejected = len(ts) - 1, n_rejected
        self.nfev = EVALS_PER_STEP * (self.n_steps + n_rejected)
        self._coefficients = (tc.a, tc.b, tc.c, tc.d)
        # the step points keep the window's sign: |t| orders them
        self._keys = [abs(t) for t in ts]

    def at(self, t: float) -> FlowPoint:
        """The flow at t, one sub-step from the step point before t."""
        if not min(0.0, self.t_end) <= t <= max(0.0, self.t_end):
            raise ValidationError("t lies outside the solved window",
                                  t=t, t_end=self.t_end)
        t = float(t)
        k = bisect_right(self._keys, abs(t)) - 1
        t_k = self.t[k]
        if t == t_k:
            return self.steps[k]
        return FlowPoint._make(
            magnus_step(self._coefficients, t_k, self.steps[k], t - t_k))

    def mu(self, t: float) -> tuple[float, float]:
        return _mu(self.tc, t, self.at(t))[:2]

    def _first_zero(self, g, start: int):
        """The first step interval, from step ``start`` on, at whose first
        point g of the FlowPoint is zero or over which it changes sign, and
        the zero's bracket in it narrowed on the dense output; the two as
        ([t0, t1], [lo, hi]) in increasing time order, or None."""
        g_k = [g(p) for p in self.steps]
        k = next((k for k in range(start, len(g_k) - 1)
                  if g_k[k] == 0.0 or g_k[k] * g_k[k + 1] < 0.0), None)
        if k is None:
            return None
        ends = self.t[k], self.t[k + 1]
        bracket = bracket_sign_change(lambda t: g(self.at(t)), *ends)
        return sorted(ends), sorted(bracket)

    @cached_property
    def first_caustic(self):
        """The bracket of the first zero of mu on the window after t = 0,
        in increasing time order, or None."""
        # M12 has the sign of mu and vanishes at step 0
        hit = self._first_zero(lambda p: p.m12, 1)
        if hit is None:
            return None
        # widen the zero of the dense output by a margin that holds the
        # exact zero too, on the zero's own time scale
        (c0, c1), (lo, hi) = hit
        pad = math.sqrt(FLOW_TOL) * max(abs(lo), abs(hi))
        return max(c0, lo - pad), min(c1, hi + pad)


def classical_flow(tc: TimeCoefficients, t_end: float) -> Flow:
    """Integrate (M11, M12, M21, M22, I) on [0, t_end] (either direction)
    with dense output."""
    if not math.isfinite(t_end):
        raise ValidationError("the window must be finite", t_end=t_end)
    tc.require_window(0.0, t_end)
    return Flow(tc, *solve_ivp((tc.a, tc.b, tc.c, tc.d), t_end))


def solve_characteristic(tc: TimeCoefficients, t_end: float) -> Flow:
    """The classical flow of the kernel on [0, t_end]."""
    if not 0 < t_end < math.inf:
        raise ValidationError("t_end must be positive and finite", t_end=t_end)
    if t_end >= tc.t_max:
        raise SingularCoefficient("t_end reaches the coefficient limit t_max",
                                  t_end=t_end, t_max=tc.t_max)
    return classical_flow(tc, t_end)


def closed_form_mu(spec: ModelSpec, t: float) -> tuple[float, float]:
    """The printed solution (mu, mu') of the characteristic equation."""
    return spec.closed_form("mu")(t)


def kernel_parameters(tc: TimeCoefficients, flow: Flow,
                      t: float) -> KernelParameters:
    """Assemble (mu, mu', h, alpha, beta, gamma) at time t from the flow
    matrix of ``flow`` and its coefficients (``tc`` is not read).

    Raises CausticEncountered inside the caustic band at t or where mu
    changes sign before it, and ValidationError past the solved window.
    """
    if not (t > 0):
        raise CausticEncountered("kernel is singular at t = 0", t=t)
    p = flow.at(t)
    caustic = flow.first_caustic
    if caustic is not None and caustic[0] < t:
        raise CausticEncountered(
            "mu changes sign before the requested time", bracket=caustic)
    mu, mu_prime, h = _mu(flow.tc, t, p)
    _served(t, mu, mu_prime)
    return KernelParameters(t=t, mu=mu, mu_prime=mu_prime, h=h,
                            alpha=p.m22 / (2.0 * p.m12), beta=-1.0 / p.m12,
                            gamma=p.m11 / (2.0 * p.m12))


def closed_form_kernel(spec: ModelSpec, t: float) -> KernelParameters:
    """The printed elementary kernel parameters of the built-in models."""
    kernel = spec.closed_form("kernel")
    if not (t > 0):
        raise CausticEncountered("kernel is singular at t = 0", t=t)
    mu, mup = closed_form_mu(spec, t)
    _served(t, mu, mup)
    alpha, beta, gamma, h = kernel(t)
    return KernelParameters(t=t, mu=mu, mu_prime=mup, h=h,
                            alpha=alpha, beta=beta, gamma=gamma)
