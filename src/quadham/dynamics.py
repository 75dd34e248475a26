"""Expectation-value dynamics: moments, closed-form energy curves,
Ehrenfest motion, uncertainty bounds and Appendix D's hyperbolic basis.

The first and second moments are algebra on the classical flow M and
``I = int_0^t (c - d)`` of :func:`quadham.characteristic.classical_flow`.
Their paths work per unit ``<1>``, with no weight: ``<(x, p)>/<1> =
M <(x, p)>_0 / <1>_0`` and ``S/<1> = M S_0 M^T / <1>_0`` for
``S = [[<x^2>, <px+xp>/2], [<px+xp>/2, <p^2>]]``; the centred ``S``
moves alike, as ``W_t(z) = e^{-I} W_0(M^{-1} z)``, so a state is centred
once, at t = 0.  Each path returns the ``raw`` of its flow point beside
the moments (:func:`_raw`): a raw number is a value per unit ``<1>``
times ``e^{-I}`` by ``quadham.characteristic._weight``, which the paths
reach through the package root when called, loading it on first use, so
that ``appendix_d`` does not.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import quadham
from .errors import (InvalidMoments, NumericalError, SingularCoefficient,
                     ValidationError)
# unused here: the benchmark's tracer counts the solves through this name
from .ode import solve_ivp  # noqa: F401


class SecondMoments(NamedTuple):
    """Raw (unnormalized) expectation values <p^2>, <x^2>, <px+xp>, <1>."""

    p2: float
    x2: float
    pxxp: float = 0.0
    norm: float = 1.0

    def centred(self, fm: FirstMoments) -> SecondMoments:
        """The moments about the means fm at <1> = norm: <p^2> - <p>^2/<1>,
        <x^2> - <x>^2/<1>, <px+xp> - 2<x><p>/<1>; InvalidMoments unless
        <1> is positive."""
        p, x = _per_unit(self.norm, fm.p, fm.x)
        return SecondMoments(self.p2 - fm.p * p, self.x2 - fm.x * x,
                             self.pxxp - 2.0 * fm.x * p, self.norm)


class FirstMoments(NamedTuple):
    """Raw expectation values <x> and <p>."""

    x: float
    p: float


def _per_unit(norm: float, *values: float):
    """values / norm; InvalidMoments unless the norm <1> is positive."""
    if not norm > 0.0:
        raise InvalidMoments("norm must be positive", norm=norm)
    return [v / norm for v in values]


def _finite(t: float, *values: float):
    """values; NumericalError naming t where one is not finite."""
    if not all(map(math.isfinite, values)):
        raise NumericalError("a moment is not finite", t=t, values=values)
    return values


def _raw(t: float, i: float):
    """v -> v e^{-I} for v per unit <1> at t, I = i, by
    :func:`quadham.characteristic._weight` when called, so a per-unit read
    serves where e^{-I} overflows."""
    weight = quadham.characteristic._weight
    return lambda v: weight(t, i, -1.0, v)[0]


def evolve_second_moments(flow: quadham.characteristic.Flow,
                          m0: SecondMoments):
    """Second moments per unit <1> on ``flow``; returns t -> (SecondMoments
    with norm 1, raw), both read off one flow point (see :func:`_raw`)."""
    congruence = quadham.characteristic._congruence
    s0 = _per_unit(m0.norm, m0.x2, 0.5 * m0.pxxp, m0.p2)

    def path(t: float):
        p = flow.at(t)
        x2, half_pxxp, p2 = congruence(p.m11, p.m12, p.m21, p.m22, s0)
        moments = SecondMoments(*_finite(t, p2, x2, 2.0 * half_pxxp))
        return moments, _raw(t, p.i)

    return path


def evolve_first_moments(flow: quadham.characteristic.Flow,
                         fm0: FirstMoments):
    """<x> and <p> per unit <1> on ``flow`` from fm0 per unit <1>_0;
    returns t -> (FirstMoments, raw), both read off one flow point (see
    :func:`_raw`).  The raw means solve d<x>/dt = 2a<p> + 2d<x>,
    d<p>/dt = -2b<x> - 2c<p>."""
    x0, p0 = fm0

    def path(t: float):
        p = flow.at(t)
        return FirstMoments(*_finite(t, p.m11 * x0 + p.m12 * p0,
                                     p.m21 * x0 + p.m22 * p0)), _raw(t, p.i)

    return path


def closed_form_expectation(spec: quadham.coefficients.ModelSpec,
                            m0: SecondMoments, t: float) -> float:
    """Exact expectation value of the model's positive reference operator
    (``reference_operator``) at time t from the initial second moments
    (norm taken as <1>_0 = 1).  Each model's record in
    :mod:`quadham.models` says which operator that is; the
    hyperbolically damped curve is the even-in-time branch and requires
    <px+xp>_0 = 0.
    """
    return spec.closed_form("expectation")(m0.p2, m0.x2, m0.pxxp, t)


def reference_operator(spec: quadham.coefficients.ModelSpec, t: float):
    """(A, B, C) of the positive reference operator A p^2 + B x^2
    + (C/2)(px+xp) whose expectation closed_form_expectation returns."""
    return spec.closed_form("reference")(t)


def damped_energy_equation_solve(spec: quadham.coefficients.ModelSpec,
                                 m0: SecondMoments,
                                 flow: quadham.characteristic.Flow):
    """E(t) of the model's reference operator A p^2 + B x^2 + (C/2)(px+xp)
    on ``flow``, the flow of ``catalog_coefficients(spec)``, from the
    moments flowed from m0 on it, each weighed by the ``raw`` of their flow
    point (:func:`_raw`); NoClosedForm for a model without one and
    NumericalError where E is not finite.  For ``cj_coordinate`` E solves

        y'' - (4 lambda / sinh(2 lambda t)) y' +
            2(2 omega^2 + lambda^2 / cosh^2(lambda t)) y = 8 omega0 <E>_0,

    whose friction coefficient is singular at t = 0 (indicial roots 0, 3);
    <px+xp>_0 selects the t^3 branch.  Returns t -> E(t).
    """
    reference = spec.closed_form("reference")
    path = evolve_second_moments(flow, m0)

    def energy(t: float) -> float:
        (p2, x2, pxxp, _), weigh = path(t)
        A, B, C = reference(t)
        e = A * weigh(p2) + B * weigh(x2) + 0.5 * C * weigh(pxxp)
        return _finite(t, e * m0.norm)[0]

    return energy


def uncertainty_check(c: SecondMoments) -> dict:
    """Heisenberg bound diagnostics of centred moments c (see
    :meth:`SecondMoments.centred`) in units of <1> = c.norm, which is 1 on
    the moment paths, so that nothing underflows with e^{-I}.

    Returns the variances, the margin <(Dp)^2><(Dx)^2> - <1>^2/4
    (nonnegative for any admissible state) and the normalized product
    delta_p delta_x - 1/2.  Raises NumericalError where a variance, the
    margin or the product is not finite and InvalidMoments where a
    variance is below -1e-12 <1> or <1> is not positive.
    """
    dp2, dx2, _, norm = c
    margin = dp2 * dx2 - 0.25 * norm * norm
    # a squared mean that overflows reads as -inf, not as a negative variance
    if not math.isfinite(margin):
        raise NumericalError("a variance or the margin is not finite",
                             dp2=dp2, dx2=dx2, norm=norm)
    if min(dp2, dx2) < -1e-12 * norm:
        raise InvalidMoments("negative variance", dp2=dp2, dx2=dx2)
    (prod,) = _per_unit(norm, math.sqrt(max(dp2, 0.0) * max(dx2, 0.0)))
    if not math.isfinite(prod):
        raise NumericalError("the product delta_p delta_x is not finite",
                             dp2=dp2, dx2=dx2, norm=norm)
    return {"margin": margin, "product": prod, "excess": prod - 0.5,
            "dp2": dp2, "dx2": dx2}


class HyperbolicBasis(NamedTuple):
    """Fundamental pair for the friction equation

        y'' - (4 lambda / sinh(2 lambda t + 2 gamma)) y'
            + (omega^2 + 2 lambda^2 / cosh^2(lambda t + gamma)) y = 1

    together with the particular solution, plus the coth pair solving
    z'' + (omega^2 - 2 lambda^2 / sinh^2(lambda t + gamma)) z = 0.

    The values, residuals and Wronskians read one table of (f, f', f'')
    per family, u = lambda t + gamma: y1, y2 and z1, z2 are g(u) C - h(u) S
    (see :meth:`_cs`) and Y is 1/w^2 - k sech^2(u).
    """

    lam: float
    omega: float
    gamma: float = 0.0

    def _params(self):
        """(lambda, omega) for every method; ValidationError at omega = 0,
        where y1, z1 and both Wronskians vanish and Y divides by zero."""
        if self.omega == 0.0:
            raise ValidationError("omega must be nonzero", omega=self.omega)
        return self.lam, self.omega

    def _u(self, t):
        # coth(u) and 1/sinh(2u) of the z pair and the friction term
        if (u := self.lam * t + self.gamma) == 0.0:
            raise SingularCoefficient("lambda t + gamma is zero", t=t)
        return u

    @staticmethod
    def _hyp(f, u, t, power=1):
        """f(u) ** power; NumericalError naming t where it overflows."""
        try:
            return f(u) ** power
        except OverflowError as exc:
            raise NumericalError("cosh or sinh of lambda t + gamma overflows",
                                 t=t) from exc

    def _cs(self, which, t):
        """(C, S) = (cos wt, sin wt) for which = 1 and (sin wt, -cos wt) for
        which = 2: in both, C' = -w S and S' = w C."""
        c, s = math.cos(self.omega * t), math.sin(self.omega * t)
        return (c, s) if which == 1 else (s, -c)

    def _trig(self, C, S, g, h):
        """(f, f', f'') of f = g C - h S from (C, S) of :meth:`_cs` and g, h
        as (value, first, second derivative)."""
        w = self.omega
        return (g[0] * C - h[0] * S,
                (g[1] - w * h[0]) * C - (h[1] + w * g[0]) * S,
                (g[2] - 2.0 * w * h[1] - w * w * g[0]) * C
                - (h[2] + 2.0 * w * g[1] - w * w * h[0]) * S)

    def _y_derivs(self, which, t):
        """(y, y', y'') of y1 or y2: g = w T, h = lambda (1 + T^2),
        T = tanh(u)."""
        lam, w = self._params()
        T = math.tanh(self._u(t))
        dT = lam * (1.0 - T * T)
        d2T = -2.0 * lam * T * dT
        return self._trig(*self._cs(which, t), (w * T, w * dT, w * d2T),
                          (lam * (1.0 + T * T), 2.0 * lam * T * dT,
                           2.0 * lam * (dT * dT + T * d2T)))

    def _z_derivs(self, which, t):
        """(z, z', z'') of z1 or z2: g = w, h = lambda coth(u)."""
        lam, w = self._params()
        T = math.tanh(self._u(t))
        co = 1.0 / T
        dco = -lam * (co * co - 1.0)
        h = (lam * co, lam * dco, -2.0 * lam * lam * co * dco)
        C, S = self._cs(which, t)
        _, dz, d2z = self._trig(C, S, (w, 0.0, 0.0), h)
        # the printed value: lambda S / T rounds apart from (lambda coth) S
        return w * C - lam * S / T, dz, d2z

    def _yp_derivs(self, t):
        """(Y, Y', Y'') of the particular solution Y = 1/w^2 - k sech^2(u),
        k = 2 lambda^2 / ((w^2 + 4 lambda^2) w^2)."""
        lam, w = self._params()
        u = self._u(t)
        ch, T = self._hyp(math.cosh, u, t), math.tanh(u)
        k = 2.0 * lam * lam / ((w * w + 4.0 * lam * lam) * w * w)
        sech2 = 1.0 / (ch * ch)
        # the printed value, which rounds apart from 1/w^2 - k sech^2
        Y = (1.0 - 2.0 * lam * lam / ((w * w + 4.0 * lam * lam) * ch * ch)) / (w * w)
        return (Y, 2.0 * k * lam * T * sech2,
                2.0 * k * lam * lam * (1.0 - 3.0 * T * T) * sech2)

    def _friction(self, f, t):
        """f'' - (4 lambda / sinh(2u)) f' + (w^2 + 2 lambda^2 / cosh^2 u) f
        from (f, f', f'')."""
        (lam, w), u = self._params(), self._u(t)
        # cosh(u)^2 is finite wherever sinh(2u) is
        return (f[2] - 4.0 * lam / self._hyp(math.sinh, 2.0 * u, t) * f[1]
                + (w * w + 2.0 * lam * lam / math.cosh(u) ** 2) * f[0])

    def y1(self, t: float) -> float:
        return self._y_derivs(1, t)[0]

    def y2(self, t: float) -> float:
        return self._y_derivs(2, t)[0]

    def y_wronskian(self, t: float) -> float:
        lam, w = self._params()
        return w * (w * w + 4.0 * lam * lam) * math.tanh(self._u(t)) ** 2

    def y_particular(self, t: float) -> float:
        return self._yp_derivs(t)[0]

    def z1(self, t: float) -> float:
        return self._z_derivs(1, t)[0]

    def z2(self, t: float) -> float:
        return self._z_derivs(2, t)[0]

    def z_wronskian(self) -> float:
        lam, w = self._params()
        return w * (w * w + lam * lam)

    def y_residual(self, which: int, t: float) -> float:
        """Absolute residual of the homogeneous friction equation for y1/y2
        using analytic derivatives."""
        return abs(self._friction(self._y_derivs(which, t), t))

    def y_particular_residual(self, t: float) -> float:
        """Absolute residual of the nonhomogeneous equation for Y."""
        return abs(self._friction(self._yp_derivs(t), t) - 1.0)

    def z_residual(self, which: int, t: float) -> float:
        """Absolute residual of the coth-potential equation for z1/z2."""
        z, _, d2z = self._z_derivs(which, t)
        lam, w = self._params()
        sh2 = self._hyp(math.sinh, self._u(t), t, 2)
        return abs(d2z + (w * w - 2.0 * lam * lam / sh2) * z)

    def y_wronskian_residual(self, t: float) -> float:
        """|y1 y2' - y1' y2 - W(t)| with analytic derivatives."""
        y1, dy1, _ = self._y_derivs(1, t)
        y2, dy2, _ = self._y_derivs(2, t)
        return abs(y1 * dy2 - dy1 * y2 - self.y_wronskian(t))

    def z_wronskian_residual(self, t: float) -> float:
        """|z1 z2' - z1' z2 - W| with analytic derivatives."""
        z1, dz1, _ = self._z_derivs(1, t)
        z2, dz2, _ = self._z_derivs(2, t)
        return abs(z1 * dz2 - dz1 * z2 - self.z_wronskian())
