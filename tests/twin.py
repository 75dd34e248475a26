"""A 40-digit twin of the moment layer: the test-side judge of the float
arithmetic between a flow point (M, I) and the numbers that the moment
paths, their weight ``raw`` (<1> = raw(<1>_0)), ``SecondMoments.centred``,
the energy path, ``uncertainty_check`` and the CLI's ``moments`` and
``uncertainty`` columns return.

Each twin value is the formula's value at 40 digits together with a
running bound on the rounding error of the float evaluation of the same
formula, in the same order: every operation adds half an ulp of its
result, or 2^-1075 where that result is subnormal, to the errors its
inputs carry forward.  An operation on exact inputs whose result is a
float adds nothing, since IEEE arithmetic returns that float.  That
bound is the unit roundoff times |value| times the formula's condition
number, so a returned number within BOUND of it is within BOUND ulps
times that condition number.  The formulas are written from the paper's
moment law, S/<1> = M S_0 M^T / <1>_0 and <z>/<1> = M <z>_0 / <1>_0 with
<1> = e^{-I} <1>_0, and share no code with the package.  The centred
covariance follows the same congruence, so the uncertainty columns are
the centred formula: centre once at t = 0, flow, and read the variances
with no means at t.  Its bound carries the rounding of the centring at
t = 0 alone, which is none for a state whose centring is exact, however
large its means.  ``FlowStub`` feeds the paths a drawn flow point.
"""

import math
import sys

import mpmath

from quadham.characteristic import FlowPoint

mpmath.mp.dps = 40
EPS = mpmath.mpf(2) ** -53
TINY = mpmath.mpf(2) ** -1075
# a float returned is within BOUND running error bounds of its twin; the
# bound is first order, and libm's exp is within one ulp, not half
BOUND = 2
FLOAT_MAX = mpmath.mpf(1.7976931348623157e308)


class Twin:
    """A value ``v`` at 40 digits, the bound ``e`` on the absolute rounding
    error of its float evaluation, and ``peak``, the largest magnitude the
    evaluation met on its way, plus that bound."""

    __slots__ = ("v", "e", "peak")

    def __init__(self, v, e=0, peak=0):
        self.v, self.e = mpmath.mpf(v), mpmath.mpf(e)
        self.peak = max(mpmath.mpf(peak), abs(self.v) + self.e)

    @staticmethod
    def of(x):
        return x if isinstance(x, Twin) else Twin(x)

    def _round(self, other, v, e):
        peak = max(self.peak, other.peak)
        if e == 0 and mpmath.mpf(float(v)) == v:
            return Twin(v, 0, peak)
        return Twin(v, e + EPS * abs(v) + TINY, peak)

    def __add__(self, other):
        other = Twin.of(other)
        return self._round(other, self.v + other.v, self.e + other.e)

    def __sub__(self, other):
        return self + (-Twin.of(other))

    def __neg__(self):
        return Twin(-self.v, self.e, self.peak)

    def __mul__(self, other):
        other = Twin.of(other)
        return self._round(other, self.v * other.v,
                           self.e * abs(other.v) + abs(self.v) * other.e
                           + self.e * other.e)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = Twin.of(other)
        low = abs(other.v) - other.e
        e = ((self.e + abs(self.v / other.v) * other.e) / low if low > 0
             else mpmath.inf)
        return self._round(other, self.v / other.v, e)

    def clamp(self):
        """max(v, 0), which moves no error."""
        return Twin(max(self.v, 0), self.e, self.peak)

    def sqrt(self):
        hi = mpmath.sqrt(self.v + self.e)
        lo = mpmath.sqrt(max(self.v - self.e, 0))
        v = mpmath.sqrt(self.v)
        return Twin(v, hi - lo + EPS * v, self.peak)

    def check(self, got: float) -> None:
        """Assert got is finite and within BOUND error bounds of v."""
        assert math.isfinite(got), got
        err = abs(mpmath.mpf(got) - self.v)
        assert err <= BOUND * self.e, (got, self.v, err, self.e)


def exp_neg(i: float) -> Twin:
    """e^{-I} for a float I; libm's exp is within one ulp."""
    v = mpmath.exp(-mpmath.mpf(i))
    return Twin(v, 2 * EPS * v + TINY)


class FlowStub:
    """A flow whose ``at`` gives one drawn point (M, I) at every t."""

    def __init__(self, point: FlowPoint):
        self.point = point

    def at(self, t: float) -> FlowPoint:
        return self.point


def draw_point(theta: float, r: float, shear: float, i: float) -> FlowPoint:
    """M = rotation(theta) x diag(e^r, e^-r) x [[1, shear], [0, 1]] in
    Sp(2), rounded to floats, and I."""
    c, s, g = math.cos(theta), math.sin(theta), math.exp(r)
    # rotation x squeeze, then the shear on the second column
    a11, a12, a21, a22 = c * g, -s / g, s * g, c / g
    return FlowPoint(a11, a11 * shear + a12, a21, a21 * shear + a22, i)


def centred(m0, f0):
    """(p2, x2, pxxp, norm) of the centred moments of raw (m0, f0):
    <p^2> - <p> (<p>/<1>), <x^2> - <x> (<x>/<1>), <px+xp> - 2<x> (<p>/<1>)."""
    n, x, p = Twin(m0.norm), Twin(f0.x), Twin(f0.p)
    p_unit = p / n
    return (Twin(m0.p2) - p * p_unit, Twin(m0.x2) - x * (x / n),
            Twin(m0.pxxp) - (2.0 * x) * p_unit, n)


def second_moments(point: FlowPoint, m0):
    """(p2, x2, pxxp) per unit <1> at the point, from raw m0, whose values
    are floats or twins."""
    p2, x2, pxxp, n = map(Twin.of, m0)
    s11, s12, s22 = x2 / n, (0.5 * pxxp) / n, p2 / n
    m11, m12, m21, m22 = map(Twin, point[:4])
    r11, r12 = m11 * s11 + m12 * s12, m11 * s12 + m12 * s22
    r21, r22 = m21 * s11 + m22 * s12, m21 * s12 + m22 * s22
    return (r21 * m21 + r22 * m22, r11 * m11 + r12 * m12,
            2.0 * (r11 * m21 + r12 * m22))


def first_moments(point: FlowPoint, f0):
    """(<x>, <p>) per unit <1> at the point, from f0 per unit <1>_0."""
    x0, p0 = Twin(f0.x), Twin(f0.p)
    m11, m12, m21, m22 = map(Twin, point[:4])
    return m11 * x0 + m12 * p0, m21 * x0 + m22 * p0


def norm(point: FlowPoint, norm0: float) -> Twin:
    """<1> = <1>_0 e^{-I} at the point."""
    return Twin(norm0) * exp_neg(point.i)


def raw(point: FlowPoint, v):
    """v <1> at the point for <1>_0 = 1, as the CLI forms a raw column:
    v e^{-I}, or (v e^{-I/2}) e^{-I/2} where the float e^{-I} is
    subnormal."""
    if math.exp(-point.i) >= sys.float_info.min:
        return v * exp_neg(point.i)
    half = exp_neg(0.5 * point.i)
    return v * half * half


def energy(point: FlowPoint, m0, reference) -> Twin:
    """E = (A raw(p2) + B raw(x2) + (C/2) raw(pxxp)) <1>_0 at the point,
    the energy path's value for the reference operator (A, B, C) read as
    exact floats: the moments per unit <1> flowed from raw m0, each
    weighed as a raw column, the sum times <1>_0."""
    A, B, C = map(Twin, reference)
    p2, x2, pxxp = second_moments(point, m0)
    return (A * raw(point, p2) + B * raw(point, x2)
            + (0.5 * C) * raw(point, pxxp)) * Twin(m0.norm)


def uncertainty(second):
    """dp2, dx2, margin and excess of centred moments per unit <1>, whose
    norm is 1 as the paths return them."""
    (dp2, dx2, _), one = second, Twin(1.0)
    margin = dp2 * dx2 - (0.25 * one) * one
    prod = (dp2.clamp() * dx2.clamp()).sqrt() / one
    return {"dp2": dp2, "dx2": dx2, "margin": margin, "excess": prod - 0.5}


def moments_row(point: FlowPoint, m0):
    """The ``moments`` columns p2, x2, pxxp, norm: per unit times <1>,
    for a state with <1>_0 = 1."""
    return [raw(point, v) for v in (*second_moments(point, m0), Twin(1.0))]


def uncertainty_row(point: FlowPoint, m0, f0):
    """The ``uncertainty`` columns dp2, dx2, margin, excess: variances
    times <1>, the margin times <1>^2, for a state with <1>_0 = 1, from
    the centred moments flowed."""
    u = uncertainty(second_moments(point, centred(m0, f0)))
    return [raw(point, u["dp2"]), raw(point, u["dx2"]),
            raw(point, raw(point, u["margin"])), u["excess"]]


def may_overflow(*twins) -> bool:
    """Whether a float evaluation of any of these may overflow on its way."""
    return any(t.peak > FLOAT_MAX for t in twins)
