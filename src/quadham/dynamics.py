"""Expectation-value dynamics: moment systems, closed-form energy curves,
Ehrenfest motion, uncertainty bounds, and the hyperbolic basis functions
used to solve the damped-oscillator energy equation.  The moment and
energy equations are integrated with the package's DOP853 integrator
(``quadham.ode``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import coefficients as coeff
from .coefficients import HAMILTONIAN, ModelSpec, TimeCoefficients
from .errors import InvalidMoments, NoClosedForm
from .ode import solve_ivp


@dataclass(frozen=True)
class SecondMoments:
    """Raw (unnormalized) expectation values <p^2>, <x^2>, <px+xp>, <1>."""

    p2: float
    x2: float
    pxxp: float = 0.0
    norm: float = 1.0

    def variances(self, fm: "FirstMoments" = None):
        """(<(Delta p)^2>, <(Delta x)^2>) as raw expectations."""
        if fm is None:
            return self.p2, self.x2
        if self.norm <= 0.0:
            raise InvalidMoments("norm must be positive", norm=self.norm)
        return (self.p2 - fm.p * fm.p / self.norm,
                self.x2 - fm.x * fm.x / self.norm)


@dataclass(frozen=True)
class FirstMoments:
    """Raw expectation values <x> and <p>."""

    x: float
    p: float


def moment_derivative(tc: TimeCoefficients, m: SecondMoments,
                      t: float) -> SecondMoments:
    """Instantaneous rates of the raw second moments and the norm:

        d<p^2>/dt    = (-3c - d)<p^2> - 2b <px+xp>,
        d<x^2>/dt    = (c + 3d)<x^2> + 2a <px+xp>,
        d<px+xp>/dt  = 4a <p^2> - 4b <x^2> + (d - c)<px+xp>,
        d<1>/dt      = (d - c)<1>.
    """
    tc.require(HAMILTONIAN)
    a, b = tc.a(t), tc.b(t)
    c, d = tc.c(t), tc.d(t)
    return SecondMoments(
        p2=(-3.0 * c - d) * m.p2 - 2.0 * b * m.pxxp,
        x2=(c + 3.0 * d) * m.x2 + 2.0 * a * m.pxxp,
        pxxp=4.0 * a * m.p2 - 4.0 * b * m.x2 + (d - c) * m.pxxp,
        norm=(d - c) * m.norm)


def evolve_second_moments(tc: TimeCoefficients, m0: SecondMoments,
                          t_end: float, tol: float = 1e-12):
    """Integrate the second-moment system; returns t -> SecondMoments."""
    tc.require(HAMILTONIAN)
    tc.require_window(t_end)

    def rhs(t, y):
        d = moment_derivative(tc, SecondMoments(*y), t)
        return [d.p2, d.x2, d.pxxp, d.norm]

    sol = solve_ivp(rhs, (0.0, t_end), [m0.p2, m0.x2, m0.pxxp, m0.norm],
                    rtol=tol, atol=tol * 1e-2)

    def path(t: float) -> SecondMoments:
        y = sol(t)
        return SecondMoments(float(y[0]), float(y[1]), float(y[2]),
                             float(y[3]))

    return path


def evolve_first_moments(tc: TimeCoefficients, fm0: FirstMoments,
                         t_end: float, tol: float = 1e-12):
    """Integrate d<x>/dt = 2a<p> + 2d<x>, d<p>/dt = -2b<x> - 2c<p>."""
    tc.require(HAMILTONIAN)
    tc.require_window(t_end)

    def rhs(t, y):
        a, b = tc.a(t), tc.b(t)
        c, d = tc.c(t), tc.d(t)
        return [2.0 * a * y[1] + 2.0 * d * y[0],
                -2.0 * b * y[0] - 2.0 * c * y[1]]

    sol = solve_ivp(rhs, (0.0, t_end), [fm0.x, fm0.p], rtol=tol,
                    atol=tol * 1e-2)

    def path(t: float) -> FirstMoments:
        y = sol(t)
        return FirstMoments(float(y[0]), float(y[1]))

    return path


def closed_form_expectation(spec: ModelSpec, m0: SecondMoments,
                            t: float) -> float:
    """Exact expectation value of the model's positive reference operator
    at time t from the initial second moments (norm taken as <1>_0 = 1).

    The reference operator is H itself for the exponentially damped model,
    H_0 = (omega0/2)(e^{-2 lambda t} p^2 + e^{2 lambda t} x^2) for its
    modified variant, the e^{mu t}-weighted analogue for the united model,
    (p^2 + x^2)/2 for the trigonometric oscillator, and
    p^2/cosh^2 + cosh^2 x^2 for the hyperbolically damped oscillator in the
    frequency-rescaled form.  The last curve is the even-in-time branch and
    requires <px+xp>_0 = 0.
    """
    spec.validate()
    w0, lam, mu_p = spec.omega0, spec.lam, spec.mu_param
    m = spec.model_id

    if m == coeff.CALDIROLA_KANAI:
        w = spec.omega
        h00 = 0.5 * w0 * (m0.p2 + m0.x2)
        e0 = h00 + 0.5 * lam * m0.pxxp
        l0 = lam * w0 * (m0.x2 - m0.p2)
        return ((w * w * h00 - w0 * w0 * e0) / (w * w) * math.cos(2 * w * t)
                + l0 / (2.0 * w) * math.sin(2 * w * t)
                + w0 * w0 / (w * w) * e0)
    if m == coeff.MODIFIED_CK:
        w = spec.omega
        h00 = 0.5 * w0 * (m0.p2 + m0.x2)
        e0 = h00 - 0.5 * lam * m0.pxxp
        l0 = lam * w0 * (m0.x2 - m0.p2)
        return ((w * w * h00 - w0 * w0 * e0) / (w * w) * math.cos(2 * w * t)
                - l0 / (2.0 * w) * math.sin(2 * w * t)
                + w0 * w0 / (w * w) * e0)
    if m == coeff.UNITED:
        w = spec.omega
        h00 = 0.5 * w0 * (m0.p2 + m0.x2)
        e0 = h00 + 0.5 * (lam - mu_p) * m0.pxxp
        l0 = m0.x2 - m0.p2
        return ((w * w * h00 - w0 * w0 * e0) / (w * w) * math.cos(2 * w * t)
                + 0.5 * (lam - mu_p) * (w0 / w) * l0 * math.sin(2 * w * t)
                + w0 * w0 / (w * w) * e0)
    if m == coeff.MODIFIED_OSCILLATOR:
        h00 = 0.5 * (m0.p2 + m0.x2)
        l0 = m0.pxxp
        return h00 * math.cosh(2.0 * t) + 0.5 * l0 * math.sinh(2.0 * t)
    if m == coeff.CJ_COORDINATE:
        if abs(m0.pxxp) > 1e-12:
            raise InvalidMoments(
                "the closed-form curve is the even-in-time branch and "
                "requires <px+xp>_0 = 0", pxxp=m0.pxxp)
        w = spec.omega
        h00 = m0.p2 + m0.x2
        l0 = m0.p2 - m0.x2
        e0 = (0.5 * w0 * (1.0 - 0.5 * lam ** 2 / w0 ** 2) * h00
              + 0.25 * lam ** 2 / w0 * l0)
        th = math.tanh(lam * t)
        ch = math.cosh(lam * t)
        osc = (2.0 * w * th * math.sin(2 * w * t)
               + lam * (1.0 + th * th) * math.cos(2 * w * t))
        amp = -lam * (lam ** 2 * e0 + w0 * w * w * l0) / (
            w0 * w * w * (2.0 * w * w + lam ** 2))
        return (amp * osc
                + 2.0 * e0 * (w0 / (w * w))
                * (1.0 - 0.5 * lam ** 2 / (w0 ** 2 * ch * ch)))
    raise NoClosedForm(f"no closed-form expectation curve for {m!r}")


def reference_operator(spec: ModelSpec, t: float):
    """(A, B, C) of the positive reference operator A p^2 + B x^2
    + (C/2)(px+xp) whose expectation closed_form_expectation returns."""
    w0, lam, mu_p = spec.omega0, spec.lam, spec.mu_param
    m = spec.model_id
    if m in (coeff.CALDIROLA_KANAI, coeff.MODIFIED_CK):
        return (0.5 * w0 * math.exp(-2 * lam * t),
                0.5 * w0 * math.exp(2 * lam * t), 0.0)
    if m == coeff.UNITED:
        e = math.exp(mu_p * t)
        return (0.5 * w0 * e * math.exp(-2 * lam * t),
                0.5 * w0 * e * math.exp(2 * lam * t), 0.0)
    if m == coeff.MODIFIED_OSCILLATOR:
        return (0.5, 0.5, 0.0)
    if m == coeff.CJ_COORDINATE:
        ch2 = math.cosh(lam * t) ** 2
        return (1.0 / ch2, ch2, 0.0)
    raise NoClosedForm(f"no reference operator for {m!r}")


def damped_energy_equation_solve(spec: ModelSpec, m0: SecondMoments,
                                 t_end: float, eps: float = 1e-3,
                                 tol: float = 1e-12):
    """Integrate the second-order equation satisfied by the rescaled damped
    oscillator's <H_0>:

        y'' - (4 lambda / sinh(2 lambda t)) y' +
            2(2 omega^2 + lambda^2 / cosh^2(lambda t)) y = 8 omega0 <E>_0.

    The friction coefficient is singular at t = 0 (indicial roots 0, 3),
    so the integration starts from a Taylor expansion at eps:
    y(eps) = y0 + alpha eps^2, y'(eps) = 2 alpha eps with
    alpha = -lambda^2 <L>_0, the even-branch choice.  Returns t -> y(t).
    """
    spec.validate()
    if spec.model_id != coeff.CJ_COORDINATE:
        raise NoClosedForm("the energy equation is catalogued for the "
                           "hyperbolically damped model only")
    w0, lam, w = spec.omega0, spec.lam, spec.omega
    h00 = m0.p2 + m0.x2
    l0 = m0.p2 - m0.x2
    e0 = (0.5 * w0 * (1.0 - 0.5 * lam ** 2 / w0 ** 2) * h00
          + 0.25 * lam ** 2 / w0 * l0)
    alpha = -lam * lam * l0
    # quartic Taylor coefficient of the even branch; the t^3 homogeneous
    # mode amplifies startup truncation by eps^-3, so a quadratic start is
    # not accurate enough
    beta = 0.25 * (2.0 * lam ** 4 * h00
                   - alpha * (8.0 * lam ** 2 / 3.0
                              + 4.0 * w * w + 2.0 * lam ** 2))

    def rhs(t, y):
        fric = 4.0 * lam / math.sinh(2.0 * lam * t)
        stiff = 2.0 * (2.0 * w * w + lam ** 2 / math.cosh(lam * t) ** 2)
        return [y[1], fric * y[1] - stiff * y[0] + 8.0 * w0 * e0]

    y_eps = [h00 + alpha * eps ** 2 + beta * eps ** 4,
             2.0 * alpha * eps + 4.0 * beta * eps ** 3]
    sol = solve_ivp(rhs, (eps, t_end), y_eps, rtol=tol, atol=tol * 1e-2)

    def path(t: float) -> float:
        if t < eps:
            return h00 + alpha * t * t + beta * t ** 4
        return float(sol(t)[0])

    return path


def closed_form_mean_position(spec: ModelSpec, amplitude: float,
                              phase: float, t: float) -> float:
    """Exact <x>(t) for the damped models:

    united:  A e^{-(lambda + mu) t} sin(omega t + delta),
    coordinate-damped:  A sin(omega t + delta) / cosh(lambda t).
    """
    spec.validate()
    w = spec.omega
    if spec.model_id == coeff.UNITED:
        return (amplitude * math.exp(-(spec.lam + spec.mu_param) * t)
                * math.sin(w * t + phase))
    if spec.model_id == coeff.CJ_COORDINATE:
        return (amplitude * math.sin(w * t + phase)
                / math.cosh(spec.lam * t))
    raise NoClosedForm(
        f"no closed-form mean position for {spec.model_id!r}")


def mean_position_initial_conditions(spec: ModelSpec, amplitude: float,
                                     phase: float) -> FirstMoments:
    """FirstMoments at t = 0 matching the closed-form <x>(t) family, using
    <p> = (<x>' - 2d <x>) / (2a)."""
    spec.validate()
    w = spec.omega
    x0 = amplitude * math.sin(phase)
    if spec.model_id == coeff.UNITED:
        dx0 = amplitude * (w * math.cos(phase)
                           - (spec.lam + spec.mu_param) * math.sin(phase))
        # a(0) = omega0/2, d(0) = -mu
        return FirstMoments(x=x0, p=(dx0 + 2.0 * spec.mu_param * x0)
                            / spec.omega0)
    if spec.model_id == coeff.CJ_COORDINATE:
        dx0 = amplitude * w * math.cos(phase)
        # a(0) = 1/2, d(0) = 0
        return FirstMoments(x=x0, p=dx0)
    raise NoClosedForm(
        f"no closed-form mean position for {spec.model_id!r}")


def uncertainty_check(m: SecondMoments, fm: FirstMoments) -> dict:
    """Heisenberg bound diagnostics from raw moments.

    Returns the raw margin <(Dp)^2><(Dx)^2> - <1>^2/4 (nonnegative for any
    admissible state) and the normalized product delta_p delta_x - 1/2.
    """
    if m.norm <= 0.0:
        raise InvalidMoments("norm must be positive", norm=m.norm)
    dp2, dx2 = m.variances(fm)
    if dp2 < -1e-12 or dx2 < -1e-12:
        raise InvalidMoments("negative variance", dp2=dp2, dx2=dx2)
    margin = dp2 * dx2 - 0.25 * m.norm * m.norm
    prod = math.sqrt(max(dp2, 0.0) * max(dx2, 0.0)) / m.norm
    return {"margin": margin, "product": prod, "excess": prod - 0.5,
            "dp2": dp2, "dx2": dx2}


@dataclass(frozen=True)
class HyperbolicBasis:
    """Fundamental pair for the friction equation

        y'' - (4 lambda / sinh(2 lambda t + 2 gamma)) y'
            + (omega^2 + 2 lambda^2 / cosh^2(lambda t + gamma)) y = 1

    together with the particular solution, plus the coth pair solving
    z'' + (omega^2 - 2 lambda^2 / sinh^2(lambda t + gamma)) z = 0.
    """

    lam: float
    omega: float
    gamma: float = 0.0

    def _u(self, t):
        return self.lam * t + self.gamma

    def y1(self, t: float) -> float:
        w, lam = self.omega, self.lam
        T = math.tanh(self._u(t))
        return (w * T * math.cos(w * t)
                - lam * (1.0 + T * T) * math.sin(w * t))

    def y2(self, t: float) -> float:
        w, lam = self.omega, self.lam
        T = math.tanh(self._u(t))
        return (w * T * math.sin(w * t)
                + lam * (1.0 + T * T) * math.cos(w * t))

    def y_wronskian(self, t: float) -> float:
        w, lam = self.omega, self.lam
        return w * (w * w + 4.0 * lam * lam) * math.tanh(self._u(t)) ** 2

    def y_particular(self, t: float) -> float:
        w, lam = self.omega, self.lam
        ch = math.cosh(self._u(t))
        return (1.0 - 2.0 * lam * lam / ((w * w + 4.0 * lam * lam) * ch * ch)) / (w * w)

    def z1(self, t: float) -> float:
        w, lam = self.omega, self.lam
        return (w * math.cos(w * t)
                - lam * math.sin(w * t) / math.tanh(self._u(t)))

    def z2(self, t: float) -> float:
        w, lam = self.omega, self.lam
        return (w * math.sin(w * t)
                + lam * math.cos(w * t) / math.tanh(self._u(t)))

    def z_wronskian(self) -> float:
        w, lam = self.omega, self.lam
        return w * (w * w + lam * lam)

    def _y_derivs(self, f, t):
        T = math.tanh(self._u(t))
        lam, w = self.lam, self.omega
        sech2 = 1.0 - T * T
        dT = lam * sech2
        d2T = -2.0 * lam * lam * T * sech2
        c, s = math.cos(w * t), math.sin(w * t)
        if f == 1:
            g, trig, dtrig = w * T, c, -w * s
            h, trig2, dtrig2 = -lam * (1.0 + T * T), s, w * c
        else:
            g, trig, dtrig = w * T, s, w * c
            h, trig2, dtrig2 = lam * (1.0 + T * T), c, -w * s
        dg, d2g = w * dT, w * d2T
        sgn = -lam if f == 1 else lam
        dh = sgn * 2.0 * T * dT
        d2h = sgn * 2.0 * (dT * dT + T * d2T)
        y = g * trig + h * trig2
        dy = dg * trig + g * dtrig + dh * trig2 + h * dtrig2
        d2y = (d2g * trig + 2.0 * dg * dtrig - w * w * g * trig
               + d2h * trig2 + 2.0 * dh * dtrig2 - w * w * h * trig2)
        return y, dy, d2y

    def y_residual(self, which: int, t: float) -> float:
        """Absolute residual of the homogeneous friction equation for y1/y2
        using analytic derivatives."""
        y, dy, d2y = self._y_derivs(which, t)
        lam, w = self.lam, self.omega
        fric = 4.0 * lam / math.sinh(2.0 * self._u(t))
        stiff = w * w + 2.0 * lam * lam / math.cosh(self._u(t)) ** 2
        return abs(d2y - fric * dy + stiff * y)

    def y_particular_residual(self, t: float) -> float:
        """Absolute residual of the nonhomogeneous equation for Y."""
        lam, w = self.lam, self.omega
        u = self._u(t)
        ch, sh = math.cosh(u), math.sinh(u)
        k = 2.0 * lam * lam / ((w * w + 4.0 * lam * lam) * w * w)
        Y = 1.0 / (w * w) - k / (ch * ch)
        dY = 2.0 * k * lam * sh / ch ** 3
        d2Y = 2.0 * k * lam * lam * (1.0 - 3.0 * sh * sh / (ch * ch)) / (ch * ch)
        fric = 4.0 * lam / math.sinh(2.0 * u)
        stiff = w * w + 2.0 * lam * lam / (ch * ch)
        return abs(d2Y - fric * dY + stiff * Y - 1.0)

    def z_residual(self, which: int, t: float) -> float:
        """Absolute residual of the coth-potential equation for z1/z2."""
        lam, w = self.lam, self.omega
        u = self._u(t)
        cothu = 1.0 / math.tanh(u)
        dco = -lam * (cothu * cothu - 1.0)
        d2co = 2.0 * lam * lam * cothu * (cothu * cothu - 1.0)
        c, s = math.cos(w * t), math.sin(w * t)
        if which == 1:
            z = w * c - lam * cothu * s
            d2z = (-w ** 3 * c - lam * (d2co * s + 2.0 * dco * w * c
                                        - cothu * w * w * s))
        else:
            z = w * s + lam * cothu * c
            d2z = (-w ** 3 * s + lam * (d2co * c - 2.0 * dco * w * s
                                        - cothu * w * w * c))
        stiff = w * w - 2.0 * lam * lam / math.sinh(u) ** 2
        return abs(d2z + stiff * z)

    def y_wronskian_residual(self, t: float) -> float:
        """|y1 y2' - y1' y2 - W(t)| with analytic derivatives."""
        y1, dy1, _ = self._y_derivs(1, t)
        y2, dy2, _ = self._y_derivs(2, t)
        return abs(y1 * dy2 - dy1 * y2 - self.y_wronskian(t))

    def z_wronskian_residual(self, t: float) -> float:
        lam, w = self.lam, self.omega
        u = self._u(t)
        cothu = 1.0 / math.tanh(u)
        dco = -lam * (cothu * cothu - 1.0)
        c, s = math.cos(w * t), math.sin(w * t)
        z1 = w * c - lam * cothu * s
        dz1 = -w * w * s - lam * (dco * s + cothu * w * c)
        z2 = w * s + lam * cothu * c
        dz2 = w * w * c + lam * (dco * c - cothu * w * s)
        return abs(z1 * dz2 - dz1 * z2 - self.z_wronskian())
