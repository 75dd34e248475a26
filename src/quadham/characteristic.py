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
FLOW_TOL; a Flow grows its two ``quadham.ode.Side`` records, one per
direction of t, on demand and gives the dense output by one sub-step
from a step point.  Every kernel reader refuses the caustic band
|mu| <= MU_GUARD |t mu'|, in any units.  ``kernel_parameters`` refuses a t
past the first zero of mu by the signs of M12 on the step that holds it;
a step turns by at most a quarter, so it holds no other zero of M12 and
the signs place t exactly.
The printed mu and kernel of each built-in model live in its record in
:mod:`quadham.models`; ``closed_form_mu`` and ``closed_form_kernel`` look
them up.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from typing import NamedTuple

from .coefficients import ModelSpec, TimeCoefficients
from .errors import (CausticEncountered, NumericalError, SingularCoefficient,
                     ValidationError)
from .ode import FlowPoint, Side, magnus_step, read, solve_ivp

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
    every kernel reader, private so that a trace gives it no span.  The
    guard multiplies first, so that a finite mu' does not overflow t mu'."""
    if not abs(mu) > MU_GUARD * abs(t) * abs(mu_prime):
        raise CausticEncountered("mu is inside the caustic guard band",
                                 t=t, mu=mu, mu_prime=mu_prime)


def _require_time(t: float) -> None:
    """The kernel readers' first check: ValidationError for a t that is not
    finite, then CausticEncountered at t <= 0."""
    if not math.isfinite(t):
        raise ValidationError("t must be finite", t=t)
    if not t > 0:
        raise CausticEncountered("kernel is singular at t = 0", t=t)


def _weight(t: float, i: float, sign: float, *values: float) -> tuple:
    """values times e^(sign I), I = i the flow's at t: the one place a value
    meets the weight, private so that a trace gives it no span.  A subnormal
    or zero weight multiplies as two halves e^(sign I / 2); NumericalError
    naming t and I where it overflows or a product is not finite."""
    try:
        w = math.exp(sign * i)
    except OverflowError:
        w = math.inf
    if w < 2.0 ** -1022:
        w = math.exp(0.5 * sign * i)
        values = [v * w for v in values]
    out = tuple(v * w for v in values)
    if not all(map(math.isfinite, out)):
        raise NumericalError("the flow's weight e^(+-I) or a value times "
                             "it is not finite", t=t, I=i)
    return out


def _sign(x: float) -> int:
    """-1, 0 or 1 as x is negative, zero or positive: the sign rule's
    comparison, which a product of two small M12 would lose to underflow."""
    return (x > 0.0) - (x < 0.0)


def _mu(tc: TimeCoefficients, t: float, p: FlowPoint):
    """(mu, mu', h) at t from the flow point p by one h = e^I."""
    a, c = read((tc.a, tc.c), t)
    return _weight(t, p.i, 1.0, p.m12, 2.0 * (a * p.m22 + c * p.m12), 1.0)


class Flow:
    """The classical flow of the Hamiltonian coefficients ``tc`` from t = 0,
    solved on demand: :meth:`at` past the last step point on the side of t
    continues that side's solve, whose step points depend on H alone, so no
    value depends on what was read before.  ``t`` and ``steps`` list the
    step points reached and the :class:`FlowPoint` at each in increasing
    time order; ``nfev``, ``n_steps`` and ``n_rejected`` count the work
    (evaluations of (a, b, c, d), accepted and rejected steps).  :meth:`mu`
    reads (mu, mu') off one point, the pair ``closed_form_mu`` returns.  A
    read may extend a Flow, so it is mutable and not for sharing between
    threads."""

    def __init__(self, tc: TimeCoefficients):
        self.tc = tc
        self._coefficients = (tc.a, tc.b, tc.c, tc.d)
        self._sides = {d: Side(d) for d in (1.0, -1.0)}
        # the first caustic once found, the first step not yet searched and
        # whether M12 has taken a sign on the steps searched
        self._caustic, self._caustic_from, self._signed = None, 1, False

    @property
    def t(self) -> list:
        return self._sides[-1.0].t[:0:-1] + self._sides[1.0].t

    @property
    def steps(self) -> list:
        return self._sides[-1.0].steps[:0:-1] + self._sides[1.0].steps

    @property
    def n_steps(self) -> int:
        return sum(len(side.t) - 1 for side in self._sides.values())

    @property
    def n_rejected(self) -> int:
        return sum(side.n_rejected for side in self._sides.values())

    @property
    def nfev(self) -> int:
        return sum(side.nfev for side in self._sides.values())

    def at(self, t: float) -> FlowPoint:
        """The flow at t, one sub-step from the step point before t, which a
        t past the side's last step point solves for first; ValidationError
        for a t that is not finite, SingularCoefficient where [0, t] reaches
        t_singular."""
        t = float(t)
        if not math.isfinite(t):
            raise ValidationError("t must be finite", t=t)
        self.tc.require_window(0.0, t)
        side = self._sides[math.copysign(1.0, t)]
        if abs(side.t[-1]) < abs(t):
            solve_ivp(side, self._coefficients, self.tc.t_singular, t)
        k = bisect_right(side.t, abs(t), key=abs) - 1
        t_k = side.t[k]
        if t == t_k:
            return side.steps[k]
        return magnus_step(self._coefficients, t_k, side.steps[k], t - t_k)

    def mu(self, t: float) -> tuple[float, float]:
        return _mu(self.tc, t, self.at(t))[:2]

    @property
    def first_caustic(self):
        """The first forward step (t_k, t_{k+1}), k >= 1, over which M12
        changes sign, or at whose start it is zero after it has taken a
        sign, among the step points reached so far, or None: the step that
        holds the first caustic.  A zero before M12 takes a sign is none:
        M12 ~ 2a t underflows there on steps far shorter than H's time."""
        side = self._sides[1.0]
        while self._caustic is None and self._caustic_from < len(side.t) - 1:
            k = self._caustic_from
            m0, m1 = side.steps[k].m12, side.steps[k + 1].m12
            if _sign(m0) * _sign(m1) < 0 or m0 == 0.0 and self._signed:
                self._caustic = side.t[k], side.t[k + 1]
            self._signed = self._signed or m0 != 0.0
            self._caustic_from = k + 1
        return self._caustic


def classical_flow(tc: TimeCoefficients) -> Flow:
    """The classical flow (M11, M12, M21, M22, I) of ``tc`` from t = 0, with
    dense output; nothing is solved until it is read."""
    return Flow(tc)


def solve_characteristic(tc: TimeCoefficients, t_end: float) -> Flow:
    """The classical flow of the kernel, refused on a window (0, t_end]
    that is empty, not finite, or reaches t_max or t_singular."""
    if not 0 < t_end < math.inf:
        raise ValidationError("t_end must be positive and finite", t_end=t_end)
    if t_end >= tc.t_max:
        raise SingularCoefficient("t_end reaches the coefficient limit t_max",
                                  t_end=t_end, t_max=tc.t_max)
    tc.require_window(0.0, t_end)
    return classical_flow(tc)


def closed_form_mu(spec: ModelSpec, t: float) -> tuple[float, float]:
    """The printed solution (mu, mu') of the characteristic equation."""
    return spec.closed_form("mu")(t)


def kernel_parameters(tc: TimeCoefficients, flow: Flow,
                      t: float) -> KernelParameters:
    """Assemble (mu, mu', h, alpha, beta, gamma) at time t from the flow
    matrix of ``flow`` and its coefficients (``tc`` is not read).

    Raises ValidationError for a t that is not finite, CausticEncountered
    at t <= 0, inside the caustic band at t, and past the first zero of mu
    (``bracket``: the step :attr:`Flow.first_caustic`), and the refusals of
    :meth:`Flow.at`.  Past the zero is past its step, or in it where M12
    lacks its sign at the step's start: exact, as the step holds no other.
    """
    _require_time(t)
    p = flow.at(t)
    mu, mu_prime, h = _mu(flow.tc, t, p)
    _served(t, mu, mu_prime)
    caustic = flow.first_caustic
    if caustic is not None and t > caustic[0] and (
            t > caustic[1]
            or not _sign(p.m12) * _sign(flow.at(caustic[0]).m12) > 0):
        raise CausticEncountered(
            "mu changes sign before the requested time", bracket=caustic)
    return KernelParameters(t=t, mu=mu, mu_prime=mu_prime, h=h,
                            alpha=p.m22 / (2.0 * p.m12), beta=-1.0 / p.m12,
                            gamma=p.m11 / (2.0 * p.m12))


def closed_form_kernel(spec: ModelSpec, t: float) -> KernelParameters:
    """The printed elementary kernel parameters of the built-in models."""
    kernel = spec.closed_form("kernel")
    _require_time(t)
    mu, mup = closed_form_mu(spec, t)
    _served(t, mu, mup)
    alpha, beta, gamma, h = kernel(t)
    return KernelParameters(t=t, mu=mu, mu_prime=mup, h=h,
                            alpha=alpha, beta=beta, gamma=gamma)
