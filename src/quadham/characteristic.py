"""Characteristic function mu and Green-function kernel parameters.

The quadratic-exponent kernel ``G = (2 pi i mu)^(-1/2) exp(i(alpha x^2 +
beta x y + gamma y^2))`` is determined by a solution of the characteristic
equation ``mu'' - tau mu' + 4 sigma mu = 0`` with ``mu(0) = 0`` and
``mu'(0) = 2 a(0)``.  This module solves that equation numerically together
with a second solution nu (``nu(0) = 1``, ``nu'(0) = 0``), provides the
catalog of elementary mu for the built-in models, and assembles
(alpha, beta, gamma, h) algebraically from the fundamental pair.  By Abel's
identity the Wronskian ``W = mu nu' - mu' nu`` obeys ``W' = tau W``, which
gives ``a h^2 = -W / 2`` and so
``d(gamma)/dt = -a h^2 / mu^2 = d(nu/mu)/dt / 2``.  The pair is integrated
with the package's DOP853 integrator (``quadham.ode``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import coefficients as coeff
from .coefficients import EQUATION, ModelSpec, TimeCoefficients, tau_sigma
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


class MuPath:
    """Dense-output solution of the characteristic equation on [0, t_end],
    carried together with the second solution nu."""

    def __init__(self, grid, dense_sol):
        self.grid = np.asarray(grid, dtype=float)
        if self.grid.size < 2 or self.grid[0] != 0.0:
            raise ValueError("grid must start at 0 and contain >= 2 points")
        if np.any(np.diff(self.grid) <= 0):
            raise ValueError("grid must be strictly increasing")
        self._sol = dense_sol
        self.mu_values = dense_sol(self.grid)[0]
        # first interior sign change of mu, or an exact zero, from index 1
        mu = self.mu_values
        hit = np.flatnonzero((mu[1:-1] == 0.0) | (mu[1:-1] * mu[2:] < 0.0))
        self._caustic = None if hit.size == 0 else (
            float(self.grid[hit[0] + 1]), float(self.grid[hit[0] + 2]))

    @property
    def t_end(self) -> float:
        return float(self.grid[-1])

    def mu(self, t: float) -> float:
        return float(self._sol(t)[0])

    def mu_prime(self, t: float) -> float:
        return float(self._sol(t)[1])

    def pair(self, t: float) -> tuple[float, float, float, float]:
        """(mu, mu', nu, nu') at t."""
        mu, mup, nu, nup = self._sol(t)
        return float(mu), float(mup), float(nu), float(nup)

    def mu_scale(self) -> float:
        return max(1.0, float(np.max(np.abs(self.mu_values))))

    def first_caustic(self):
        """Bracketing interval of the first interior zero of mu, or None."""
        return self._caustic


def solve_characteristic(tc: TimeCoefficients, t_end: float,
                         tol: float = 1e-10) -> MuPath:
    """Integrate the characteristic equation for mu and nu on [0, t_end]
    with dense output."""
    tc.require(EQUATION)
    if not (t_end > 0):
        raise ValueError("t_end must be positive")
    if t_end >= tc.t_max:
        raise SingularCoefficient("t_end reaches the coefficient limit t_max",
                                  t_end=t_end, t_max=tc.t_max)
    tc.require_window(t_end)
    # reject spans containing coefficient singularities up front; the
    # Wronskian form of h needs a(t) of one sign
    a0 = tc.a(0.0)
    for t in np.linspace(0.0, t_end, 65):
        try:
            tau, sigma = tau_sigma(tc, min(t, t_end * (1 - 1e-12)))
        except Exception as exc:
            raise SingularCoefficient(f"tau/sigma not finite at t={t}", t=t) from exc
        if not (math.isfinite(tau) and math.isfinite(sigma)):
            raise SingularCoefficient("tau/sigma not finite", t=t)
        if not (tc.a(t) / a0 > 0):
            raise SingularCoefficient("a(t) vanishes or changes sign", t=t)

    def rhs(t, y):
        tau, sigma = tau_sigma(tc, t)
        return [y[1], tau * y[1] - 4.0 * sigma * y[0],
                y[3], tau * y[3] - 4.0 * sigma * y[2]]

    sol = solve_ivp(rhs, (0.0, t_end), [0.0, 2.0 * a0, 1.0, 0.0],
                    rtol=tol, atol=tol * 1e-2, max_step=t_end / 16)
    path = MuPath(sol.t, sol)
    caustic = path.first_caustic()
    if caustic is None:
        return path
    # the step points bracket the first zero of mu only to a step: locate
    # it on the dense output and add grid points a margin either side, wide
    # enough to hold the exact zero too (the numerical one is within about
    # tol * t_end of it)
    lo, hi = bracket_sign_change(lambda t: sol(t)[0], *caustic)
    pad = math.sqrt(tol) * t_end
    return MuPath(np.union1d(sol.t, (max(caustic[0], lo - pad),
                                     min(caustic[1], hi + pad))), sol)


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
    """Assemble (mu, mu', h, alpha, beta, gamma) at time t from the
    fundamental pair (mu, nu) of ``mu_path``.

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

    mu, mup, nu, nup = mu_path.pair(t)
    if abs(mu) < MU_GUARD * mu_path.mu_scale():
        raise CausticEncountered("mu is inside the caustic guard band",
                                 t=t, mu=mu)

    a0, a_t = tc.a(0.0), tc.a(t)
    # a h^2 = a(0) W / W(0) with W(0) = -2 a(0)
    h_t = math.sqrt(-0.5 * (mu * nup - mup * nu) / a_t)
    alpha = mup / (4.0 * a_t * mu) - tc.d(t) / (2.0 * a_t)
    beta = -h_t / mu
    gamma = nu / (2.0 * mu) + tc.d(0.0) / (2.0 * a0)
    return KernelParameters(t=t, mu=mu, mu_prime=mup, h=h_t,
                            alpha=alpha, beta=beta, gamma=gamma)


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
