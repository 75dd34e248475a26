"""A 40-digit twin of the moment layer, the weighted form and the kernel:
the test-side judge of the float arithmetic between a flow point (M, I)
and the numbers that the moment paths, their weight ``raw`` (<1> =
raw(<1>_0)), ``SecondMoments.centred``, the energy path,
``uncertainty_check``, the CLI's ``moments`` and ``uncertainty`` columns,
``solve_energy_system``, ``general_invariant``, ``linear_invariant`` and
``kernel_parameters`` return.

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
<1> = e^{-I} <1>_0, its conserved forms, Q = e^I M^{-T} Q_0 M^{-1},
e^I adj(M S_0 M^T) and (B, A) = e^I (B0, A0) M^{-1}, and its kernel,
mu = M12 e^I, alpha = M22 / (2 M12), and share no code with the package.  The centred covariance
follows the same congruence, so the uncertainty columns are the centred
formula: centre once at t = 0, flow, and read the variances with no
means at t.  Its bound carries the rounding of the centring at t = 0
alone, which is none for a state whose centring is exact, however large
its means.
``green`` and ``propagated`` are the twins of ``green_eval`` and
``propagate_gaussian`` on the floats of a ``KernelParameters``: the
complex arithmetic as ``CTwin``, CPython's own operations on the twins
of the real and imaginary parts, and each cmath or libm function as its
40-digit value with its input's error carried to first order, plus the
ulps that function is within.
``FlowStub`` feeds the paths a drawn flow point.  Twins are formed at 40
digits inside a call that ``at_40_digits`` wraps, so that importing this
module leaves mpmath's global precision alone.
"""

import math
import sys

import mpmath

from quadham.characteristic import FlowPoint

# the decorator of every test that forms twins: 40 digits for the call
at_40_digits = mpmath.workdps(40)
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
    """A flow whose ``at`` gives one drawn point (M, I) at every t, with
    the coefficients ``tc`` and no caustic found."""

    first_caustic = None

    def __init__(self, point: FlowPoint, tc=None):
        self.point, self.tc = point, tc

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


def congruence(m11, m12, m21, m22, s11, s12, s22):
    """(11, 12, 22) entries of M S M^T for M = [[m11, m12], [m21, m22]]
    and the symmetric S = [[s11, s12], [s12, s22]], as (M S) M^T."""
    m11, m12, m21, m22 = map(Twin.of, (m11, m12, m21, m22))
    r11, r12 = m11 * s11 + m12 * s12, m11 * s12 + m12 * s22
    r21, r22 = m21 * s11 + m22 * s12, m21 * s12 + m22 * s22
    return r11 * m11 + r12 * m12, r11 * m21 + r12 * m22, r21 * m21 + r22 * m22


def second_moments(point: FlowPoint, m0):
    """(p2, x2, pxxp) per unit <1> at the point, from raw m0, whose values
    are floats or twins."""
    p2, x2, pxxp, n = map(Twin.of, m0)
    x2, half_pxxp, p2 = congruence(*point[:4], x2 / n, (0.5 * pxxp) / n,
                                   p2 / n)
    return p2, x2, 2.0 * half_pxxp


def first_moments(point: FlowPoint, f0):
    """(<x>, <p>) per unit <1> at the point, from f0 per unit <1>_0."""
    x0, p0 = Twin(f0.x), Twin(f0.p)
    m11, m12, m21, m22 = map(Twin, point[:4])
    return m11 * x0 + m12 * p0, m21 * x0 + m22 * p0


def norm(point: FlowPoint, norm0: float) -> Twin:
    """<1> = <1>_0 e^{-I} at the point."""
    return Twin(norm0) * exp_neg(point.i)


def weigh(i: float, v):
    """v e^{i} for a float i, as the package weighs a value: v e^{i}, or
    (v e^{i/2}) e^{i/2} where the float e^{i} is subnormal or zero."""
    if i > 0.0 or math.exp(i) >= sys.float_info.min:
        return v * exp_neg(-i)
    half = exp_neg(-0.5 * i)
    return v * half * half


def raw(point: FlowPoint, v):
    """v <1> at the point for <1>_0 = 1, as the CLI forms a raw column:
    v e^{-I}."""
    return weigh(-point.i, v)


def energy_form(point: FlowPoint, init):
    """(A, B, C, D) of the conserved form at the point from init = (A0,
    B0, C0, D0) read as exact floats, as solve_energy_system returns it:
    [[B, (C + D)/2], [(C + D)/2, A]] = e^I M^{-T} Q_0 M^{-1} for Q_0 of
    init, and C - D = e^I (C0 - D0)."""
    A0, B0, C0, D0 = map(Twin, init)
    m11, m12, m21, m22 = point[:4]
    # M^{-T} of det M = 1
    B, half_cd, A = congruence(m22, -m21, -m12, m11, B0, 0.5 * (C0 + D0), A0)
    A, B, half_cd, half = (weigh(point.i, v)
                           for v in (A, B, half_cd, 0.5 * (C0 - D0)))
    return A, B, half_cd + half, half_cd - half


def lewis_riesenfeld_form(point: FlowPoint, a: float, c: float, d: float,
                          form):
    """(A, B, C, D) of the Lewis-Riesenfeld form at the point from a, c
    and d at t = 0 and Pinney's form = (A, B, C), read as exact floats, as
    general_invariant returns it: S1 = L [[A, B], [B, C]] L^T for
    L = [[1, 0], [-(c + d), 1]], k = 1 / 2a, S = N S1 N^T for
    N = M diag(1, k), and (A, B, C = D) = e^I (s11, s22, -s12)."""
    A, B, C = map(Twin, form)
    s1 = congruence(1.0, 0.0, -(Twin(c) + Twin(d)), 1.0, A, B, C)
    k = Twin(0.5) / Twin(a)
    m11, m12, m21, m22 = map(Twin, point[:4])
    s11, s12, s22 = congruence(m11, m12 * k, m21, m22 * k, *s1)
    A, B, C = (weigh(point.i, v) for v in (s11, s22, -s12))
    return A, B, C, C


def linear_form(point: FlowPoint, init):
    """(A, B, C) of the linear invariant at the point from init = (A0, B0,
    C0) read as exact floats, as linear_invariant returns it:
    (B, A) = e^I (B0, A0) M^{-1} for det M = 1, and C = e^I C0."""
    A0, B0, C0 = map(Twin, init)
    m11, m12, m21, m22 = point[:4]
    B, A = B0 * m22 - A0 * m21, A0 * m11 - B0 * m12
    return tuple(weigh(point.i, v) for v in (A, B, C0))


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


def kernel_weighted(point: FlowPoint, a: float, c: float):
    """(mu, mu', h) of the kernel at the point for a and c at t, each
    weighed: mu = M12 e^I, mu' = 2(a M22 + c M12) e^I and h = e^I."""
    m12, m22 = Twin(point.m12), Twin(point.m22)
    return (weigh(point.i, m12),
            weigh(point.i, 2.0 * (Twin(a) * m22 + Twin(c) * m12)),
            weigh(point.i, Twin(1.0)))


def kernel_quotients(point: FlowPoint):
    """(alpha, beta, gamma) of the kernel at the point, M12 != 0:
    M22 / (2 M12), -1 / M12 and M11 / (2 M12)."""
    m11, m12, m22 = Twin(point.m11), Twin(point.m12), Twin(point.m22)
    return m22 / (2.0 * m12), Twin(-1.0) / m12, m11 / (2.0 * m12)


def may_be_caustic(t: float, mu: Twin, mu_prime: Twin, guard: float) -> bool:
    """Whether the float band test |mu| <= guard |t mu'| may hold on the
    float mu and mu', each within BOUND error bounds of its twin, with the
    two roundings of the right side."""
    low = abs(mu.v) - BOUND * mu.e
    high = (mpmath.mpf(guard) * abs(t) * (abs(mu_prime.v)
                                          + BOUND * mu_prime.e))
    return low <= high * (1 + 4 * EPS) + 2 * TINY


def may_overflow(*twins) -> bool:
    """Whether a float evaluation of any of these may overflow on its way."""
    return any(t.peak > FLOAT_MAX for t in twins)


class CTwin:
    """A complex value as the twins ``re`` and ``im`` of its parts, under
    CPython's complex arithmetic: a float operand is (x, 0), a product is
    (ac - bd, ad + bc), and a quotient is Smith's, branched on the larger
    part of the divisor."""

    __slots__ = ("re", "im")

    def __init__(self, re, im=0.0):
        self.re, self.im = Twin.of(re), Twin.of(im)

    @staticmethod
    def of(z):
        if isinstance(z, CTwin):
            return z
        z = complex(z)
        return CTwin(z.real, z.imag)

    def __add__(self, other):
        other = CTwin.of(other)
        return CTwin(self.re + other.re, self.im + other.im)

    def __sub__(self, other):
        other = CTwin.of(other)
        return CTwin(self.re - other.re, self.im - other.im)

    def __mul__(self, other):
        other = CTwin.of(other)
        a, b, c, d = self.re, self.im, other.re, other.im
        return CTwin(a * c - b * d, a * d + b * c)

    def __truediv__(self, other):
        other = CTwin.of(other)
        a, b, c, d = self.re, self.im, other.re, other.im
        if abs(float(c.v)) >= abs(float(d.v)):
            ratio = d / c
            denom = c + d * ratio
            return CTwin((a + b * ratio) / denom, (b - a * ratio) / denom)
        ratio = c / d
        denom = c * ratio + d
        return CTwin((a * ratio + b) / denom, (b * ratio - a) / denom)

    @property
    def v(self):
        return mpmath.mpc(self.re.v, self.im.v)

    @property
    def e(self):
        """A bound on the modulus of the error."""
        return self.re.e + self.im.e

    def parts(self):
        return self.re, self.im


def log(w: CTwin) -> CTwin:
    """log w as ``complex(math.log(abs(w)), cmath.phase(w))`` takes it:
    w's error carried to first order, plus one ulp each for hypot, log
    and atan2, whose branch cut w does not reach while its imaginary part
    keeps an exact sign.  Its peak is |w|, which abs() refuses past the
    largest float."""
    z, dz = w.v, w.e
    r = abs(z)
    low = r - dz - 2 * EPS * r
    peak = max(w.re.peak, w.im.peak, r)
    log_r, arg = mpmath.log(r), mpmath.arg(z)
    if not low > 0:
        return CTwin(Twin(log_r, mpmath.inf, peak), Twin(arg, mpmath.inf))
    return CTwin(Twin(log_r, (dz + 2 * EPS * r) / low
                      + 2 * EPS * abs(log_r) + TINY, peak),
                 Twin(arg, dz / low + 2 * EPS * abs(arg) + TINY))


def green(kp, x: float, y: float):
    """(g, e, phase, size) of green_eval at x and y from the floats of kp:
    g = (2 pi i mu)^(-1/2) e^{i phase} at 40 digits, the bound e on the
    error of its float evaluation, the twin of the phase alpha x^2 +
    beta x y + gamma y^2 in its order, and the phase's scale, the sum of
    its terms' magnitudes.  e is |g| times the phase's bound plus 10 unit
    roundoffs for the complex prefactor, exponential and product."""
    x, y = Twin(x), Twin(y)
    phase = kp.alpha * (x * x) + kp.beta * x * y + kp.gamma * (y * y)
    g = (mpmath.expj(phase.v)
         / mpmath.sqrt(mpmath.mpc(0, 2 * mpmath.pi * mpmath.mpf(kp.mu))))
    size = (abs(mpmath.mpf(kp.alpha)) * x.v ** 2 + abs(kp.beta * x.v * y.v)
            + abs(mpmath.mpf(kp.gamma)) * y.v ** 2)
    return g, abs(g) * (phase.e + 10 * EPS), phase, size


def propagated(kp, s):
    """(Lambda', Theta', Phi', A) of propagate_gaussian from the floats of
    kp and the state s, each a CTwin formed in its order: A = gamma +
    Lambda, Lambda' = alpha - beta^2 / 4A, Theta' = -beta Theta / 2A and
    Phi' = Phi - Theta^2 / 4A + (i/2) log(2 mu A)."""
    A = CTwin(kp.gamma) + s.Lambda
    four_a = CTwin(4.0) * A
    lam = CTwin(kp.alpha) - CTwin(Twin(kp.beta) * kp.beta) / four_a
    theta = CTwin(-kp.beta) * s.Theta / (CTwin(2.0) * A)
    log_w = log(CTwin(2.0 * kp.mu) * A)
    phi = (CTwin.of(s.Phi) - CTwin.of(s.Theta) * s.Theta / four_a
           + CTwin(0.0, 0.5) * log_w)
    return lam, theta, phi, A
