"""Characteristic function mu and Green-function kernel parameters.

The kernel ``G = (2 pi i mu)^(-1/2) exp(i(alpha x^2 + beta x y + gamma
y^2))`` is the generating function of the linear canonical transform given
by the classical 2x2 flow M of the Hamiltonian (Moshinsky & Quesne,
J. Math. Phys. 12 (1971) 1772).  In the hamiltonian convention both columns
of M obey ``x' = 2 a p + (c + d) x``, ``p' = -2 b x - (c + d) p`` from
M(0) = 1, and with ``I = int_0^t (c - d)``:

    h = e^I,  mu = M12 h,  mu' = (2 a M22 + 2 c M12) h,
    alpha = M22 / (2 M12),  beta = -1 / M12,  gamma = M11 / (2 M12).

mu solves the characteristic equation with ``mu(0) = 0``,
``mu'(0) = 2 a(0)``.  The flow needs no derivative of the coefficients and
no division by a(t); it is integrated with ``quadham.ode``.  The module also
holds the elementary mu and kernels of the built-in models.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import coefficients as coeff
from .coefficients import EQUATION, ModelSpec, TimeCoefficients
from .errors import (CausticEncountered, NoClosedForm, SingularCoefficient,
                     ValidationError)
from .ode import bracket_sign_change, solve_ivp

MU_GUARD = 1e-10


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


def solve_characteristic(tc: TimeCoefficients, t_end: float,
                         tol: float = 1e-10) -> MuPath:
    """Integrate the classical flow matrix and I on [0, t_end] with dense
    output."""
    tc.require(EQUATION)
    if not (t_end > 0):
        raise ValueError("t_end must be positive")
    if t_end >= tc.t_max:
        raise SingularCoefficient("t_end reaches the coefficient limit t_max",
                                  t_end=t_end, t_max=tc.t_max)
    tc.require_window(t_end)
    a, b, c, d = tc.a, tc.b, tc.c, tc.d

    def rhs(t, y):
        # equation convention: c = c_H + d_H and d = c_H, so the drift is
        # c and I' = c_H - d_H = 2 d - c
        m11, m12, m21, m22, _ = y
        two_a, two_b, s = 2.0 * a(t), 2.0 * b(t), c(t)
        return [two_a * m21 + s * m11, two_a * m22 + s * m12,
                -two_b * m11 - s * m21, -two_b * m12 - s * m22,
                2.0 * d(t) - s]

    sol = solve_ivp(rhs, (0.0, t_end), [1.0, 0.0, 0.0, 1.0, 0.0],
                    rtol=tol, atol=tol * 1e-2, max_step=t_end / 16)
    path = MuPath(sol.t, sol, tc)
    caustic = path.first_caustic()
    if caustic is None:
        return path
    # the step points bracket the first zero of mu only to a step: locate
    # it on the dense output and add grid points a margin either side, wide
    # enough to hold the exact zero too (the numerical one is within about
    # tol * t_end of it)
    lo, hi = bracket_sign_change(lambda t: sol(t)[1], *caustic)
    pad = math.sqrt(tol) * t_end
    return MuPath(np.union1d(sol.t, (max(caustic[0], lo - pad),
                                     min(caustic[1], hi + pad))), sol, tc)


def closed_form_mu(spec: ModelSpec, t: float) -> tuple[float, float]:
    """Elementary solution (mu, mu') of the characteristic equation."""
    spec.validate()
    w0, lam, mu_p = spec.omega0, spec.lam, spec.mu_param
    w = spec.omega
    m = spec.model_id

    if m in (coeff.CALDIROLA_KANAI, coeff.MODIFIED_CK):
        e = math.exp(-lam * t)
        mu = (w0 / w) * e * math.sin(w * t)
        mup = (w0 / w) * e * (w * math.cos(w * t) - lam * math.sin(w * t))
        return mu, mup

    if m == coeff.UNITED:
        e = math.exp((mu_p - lam) * t)
        mu = (w0 / w) * e * math.sin(w * t)
        mup = (w0 / w) * e * (w * math.cos(w * t) + (mu_p - lam) * math.sin(w * t))
        return mu, mup

    if m == coeff.MODIFIED_OSCILLATOR:
        mu = math.cos(t) * math.sinh(t) + math.sin(t) * math.cosh(t)
        mup = 2.0 * math.cos(t) * math.cosh(t)
        return mu, mup

    if m == coeff.CJ_COORDINATE:
        ch = math.cosh(lam * t)
        mu = math.sin(w * t) / (w * ch)
        mup = (math.cos(w * t) / ch
               - (lam / w) * math.sin(w * t) * math.sinh(lam * t) / ch ** 2)
        return mu, mup

    if m == coeff.CJ_MOMENTUM:
        mu = (lam * math.cos(w * t) * math.sinh(lam * t)
              + w * math.sin(w * t) * math.cosh(lam * t)) / w0
        mup = w0 * math.cos(w * t) * math.cosh(lam * t)
        return mu, mup

    if m == coeff.MODIFIED_PARAMETRIC:
        u = lam * t + spec.delta
        td = math.tanh(spec.delta)
        mu = math.sin(w * t) * math.tanh(u) * td
        mup = td * (w * math.cos(w * t) * math.tanh(u)
                    + lam * math.sin(w * t) / math.cosh(u) ** 2)
        return mu, mup

    if m == coeff.PARAMETRIC_SECH2:
        ch = math.cosh(lam * t)
        mu = (lam * math.cos(w * t) * math.sinh(lam * t)
              + w * math.sin(w * t) * ch) / ((w ** 2 + lam ** 2) * ch)
        mup = math.cos(w * t) - lam * math.tanh(lam * t) * mu
        return mu, mup

    if m == coeff.SIMPLE_HARMONIC:
        return math.sin(w0 * t), w0 * math.cos(w0 * t)

    if m == coeff.FREE_PARTICLE:
        return t, 1.0

    raise NoClosedForm(f"no catalogued mu for {m!r}")


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
    spec.validate()
    if not (t > 0):
        raise CausticEncountered("kernel is singular at t = 0", t=t)
    w0, lam, mu_p, dlt = spec.omega0, spec.lam, spec.mu_param, spec.delta
    w = spec.omega
    m = spec.model_id
    mu, mup = closed_form_mu(spec, t)

    if m == coeff.CALDIROLA_KANAI:
        s, c = math.sin(w * t), math.cos(w * t)
        alpha = (w * c - lam * s) / (2.0 * w0 * s) * math.exp(2.0 * lam * t)
        beta = -w / (w0 * s) * math.exp(lam * t)
        gamma = (w * c + lam * s) / (2.0 * w0 * s)
        h = 1.0
    elif m == coeff.MODIFIED_CK:
        s, c = math.sin(w * t), math.cos(w * t)
        alpha = (w * c + lam * s) / (2.0 * w0 * s) * math.exp(2.0 * lam * t)
        beta = -w / (w0 * s) * math.exp(lam * t)
        gamma = (w * c - lam * s) / (2.0 * w0 * s)
        h = 1.0
    elif m == coeff.UNITED:
        s, c = math.sin(w * t), math.cos(w * t)
        alpha = (w * c + (mu_p - lam) * s) / (2.0 * w0 * s) * math.exp(2.0 * lam * t)
        beta = -w / (w0 * s) * math.exp(lam * t)
        gamma = (w * c + (lam - mu_p) * s) / (2.0 * w0 * s)
        h = math.exp(mu_p * t)
    elif m == coeff.MODIFIED_OSCILLATOR:
        S = math.sin(t) * math.sinh(t)
        C = math.cos(t) * math.cosh(t)
        alpha = (C - S) / (2.0 * mu)
        beta = -1.0 / mu
        gamma = (C + S) / (2.0 * mu)
        h = 1.0
    elif m == coeff.CJ_COORDINATE:
        s = math.sin(w * t)
        ch, sh = math.cosh(lam * t), math.sinh(lam * t)
        alpha = ch / (2.0 * s) * (w * math.cos(w * t) * ch - lam * s * sh)
        # the factor-2 in the printed beta is a typo; -h/mu requires this form
        beta = -w * ch / s
        gamma = w * math.cos(w * t) / (2.0 * s)
        h = 1.0
    elif m == coeff.CJ_MOMENTUM:
        s, c = math.sin(w * t), math.cos(w * t)
        ch, sh = math.cosh(lam * t), math.sinh(lam * t)
        den = lam * c * sh + w * s * ch
        alpha = w0 * c / (2.0 * ch * den)
        beta = -w0 / den
        gamma = w0 * (w * c * ch - lam * s * sh) / (2.0 * w * den)
        h = 1.0
    elif m == coeff.MODIFIED_PARAMETRIC:
        u = lam * t + dlt
        alpha = 0.5 / math.tan(w * t) / math.tanh(u) ** 2
        beta = -1.0 / (math.tanh(dlt) * math.sin(w * t) * math.tanh(u))
        gamma = 0.5 / (math.tan(w * t) * math.tanh(dlt) ** 2)
        h = 1.0
    elif m == coeff.PARAMETRIC_SECH2:
        s, c = math.sin(w * t), math.cos(w * t)
        th = math.tanh(lam * t)
        den = w * s + lam * th * c
        alpha = ((w ** 2 + lam ** 2 / math.cosh(lam * t) ** 2) * c
                 - lam * w * th * s) / (2.0 * den)
        beta = -(w ** 2 + lam ** 2) / den
        gamma = (w ** 2 + lam ** 2) * (w * c - lam * th * s) / (2.0 * w * den)
        h = 1.0
    elif m == coeff.SIMPLE_HARMONIC:
        s, c = math.sin(w0 * t), math.cos(w0 * t)
        alpha = gamma = c / (2.0 * s)
        beta = -1.0 / s
        h = 1.0
    elif m == coeff.FREE_PARTICLE:
        alpha = gamma = 0.5 / t
        beta = -1.0 / t
        h = 1.0
    else:
        raise NoClosedForm(f"no catalogued kernel for {m!r}")

    if abs(mu) < MU_GUARD:
        raise CausticEncountered("mu is inside the caustic guard band", t=t)
    return KernelParameters(t=t, mu=mu, mu_prime=mup, h=h,
                            alpha=alpha, beta=beta, gamma=gamma)
