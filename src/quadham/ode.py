"""Sixth-order Magnus integration of the classical flow, in plain floats.

The flow of ``H = a p^2 + b x^2 + c px + d xp`` solves ``M' = A M`` from
M = 1 with the traceless ``A = [[c + d, 2a], [-2b, -(c + d)]]``, and
``I' = c - d`` from I = 0.  A step of size h reads A at the
Gauss-Legendre nodes ``t + h/2 + (-1, 0, 1) sqrt(15) h / 10`` (A1, A2, A3)
and takes (Blanes, Casas, Oteo & Ros, Phys. Rep. 470 (2009) 151; Iserles
& Norsett, Phil. Trans. R. Soc. A 357 (1999) 983)

    alpha1 = h A2,  alpha2 = sqrt(15) h (A3 - A1) / 3,
    alpha3 = 10 h (A3 - 2 A2 + A1) / 3,
    C1 = [alpha1, alpha2],  C2 = -[alpha1, 2 alpha3 + C1] / 60,
    Omega = alpha1 + alpha3 / 12
            + [-20 alpha1 - alpha3 + C1, alpha2 + C2] / 240,

M -> exp(Omega) M, exact as ``cosh q + (sinh q / q) Omega`` with
``q^2 = -det Omega`` (cos and sin when q^2 < 0), so det M = 1 holds to
rounding; I adds the Gauss quadrature of c - d on the same nodes.

Step doubling estimates the error: the one-step result against two half
steps, which are kept; M relative to |M|, and I absolutely, since e^I
scales mu.  (An embedded 4th-order estimate differs from Omega only by
commutators, so it misses the quadrature error when A(t) commutes with
itself.)  The one-step error is held to the tolerance, because the dense
output at t (``Flow.at``) is one :func:`magnus_step` from the step point
before t.  A step is refused when it turns by more than a quarter,
|det Omega| > (pi/2)^2: it then turns the angle of (M11, k M12) by less
than pi, which makes exact the signed count of zeros of M12, its sector.
Each node is read by :func:`read`, which refuses a coefficient that fails.

Each side of a flow from t = 0 is one :class:`Side` record, which
:func:`solve_ivp` grows in place and changes only when a solve succeeds.
"""

from __future__ import annotations

import math
from math import isfinite
from typing import NamedTuple

from .errors import SingularCoefficient, ToleranceNotMet

_SAFETY = 0.9
_MIN_FACTOR = 0.2
_MAX_FACTOR = 10.0
# the one-step error is of order 7
_EXPONENT = -1.0 / 7.0
_QUARTER_TURN = (0.5 * math.pi) ** 2
_NODE = math.sqrt(15.0) / 10.0
_ALPHA2 = math.sqrt(15.0) / 3.0
# 3 nodes for the whole step and 3 for each half
EVALS_PER_STEP = 9
# every solve's tolerance: one step's error in M relative to |M|, plus in I
FLOW_TOL = 1e-14
# attempted steps (accepted and rejected) one solve may take.  The damped
# models take 34-42 per unit of t, so this serves them past t = 700; a
# solve towards a singular time, which would otherwise crawl on for tens
# of thousands of steps a few ulp of t long, stops in about 0.5 s
MAX_STEPS = 30_000


class FlowPoint(NamedTuple):
    """M = [[m11, m12], [m21, m22]] and I at a time."""

    m11: float
    m12: float
    m21: float
    m22: float
    i: float


class Side:
    """One side of a flow from t = 0: its step points ``t``, ordered by
    |t|, the :class:`FlowPoint` at each, the signed size ``h`` of its next
    try (a zero of the side's sign before it steps), its count of rejected
    tries and ``nfev``, its count of reads of (a, b, c, d); ``phi`` and
    ``m``, as far as :meth:`count` reached, the angle of (M11, k M12) from
    0 and its sector (m pi, (m + 1) pi) at each step point, and ``first``,
    the first step point whose m is not 0, or None.  k = |t| / M12 where
    M12 is first nonzero, so phi leaves 0 upwards and m is the signed
    count of zeros of M12 on (0, t), the Maslov index."""

    def __init__(self, direction: float):
        self.t, self.steps = [0.0], [FlowPoint(1.0, 0.0, 0.0, 1.0, 0.0)]
        self.h, self.n_rejected, self.nfev = 0.0 * direction, 0, 0
        self.phi, self.m, self.k, self.first = [0.0], [0], 0.0, None

    def count(self) -> list:
        """``m``, extended over every step point reached."""
        for j in range(len(self.m), len(self.t)):
            p = self.steps[j]
            if not self.k and p.m12:
                # capped, so that k times a zero M12 stays 0
                self.k = math.copysign(min(abs(self.t[j] / p.m12), 1e300),
                                       p.m12)
            phi, m = self.turn(j - 1, p)
            self.phi.append(phi)
            self.m.append(m)
            if m and self.first is None:
                self.first = j
        return self.m

    def turn(self, j: int, p: FlowPoint) -> tuple:
        """(phi, m) at the point p that step point j turns to by less than
        pi: p's angle nearest phi_j, and the sector of y = k M12's parity
        nearest it; where y is 0, on a multiple of pi, step point j's m."""
        y = self.k * p.m12
        phi = math.atan2(y, p.m11)
        phi += math.tau * round((self.phi[j] - phi) / math.tau)
        if not y:
            return phi, self.m[j]
        m = 2 * round(phi / math.tau - math.copysign(0.25, y)) - (y < 0)
        return phi, m


def read(fns, t):
    """[f(t) for f in fns], the one read of H's coefficients: raises
    SingularCoefficient (info: t, and the failure's repr as ``error``) where
    an f raises ArithmeticError or ValueError or returns a value not finite."""
    values = []
    for f in fns:
        try:
            value = f(t)
            if not isfinite(value):
                raise ValueError(f"{value!r} is not finite")
        except (ArithmeticError, ValueError) as exc:
            raise SingularCoefficient("a coefficient fails at t", t=float(t),
                                      error=repr(exc)) from exc
        values.append(value)
    return values


def _exponent(coefficients, t, h):
    """(w1, w2, w3, dI): the Magnus exponent
    Omega = [[w1, w2], [w3, -w1]] of the step of size h from t, and the
    step's increment of I."""
    mid, off = t + 0.5 * h, _NODE * h
    t1, t3 = mid - off, mid + off
    # (a, b, c, d) at the three nodes, c as u and d as v
    a1, b1, u1, v1 = read(coefficients, t1)
    a2, b2, u2, v2 = read(coefficients, mid)
    a3, b3, u3, v3 = read(coefficients, t3)
    # A = [[s, 2a], [-2b, -s]] there, with the drift s = c + d
    s1, s2, s3 = u1 + v1, u2 + v2, u3 + v3
    di = h * (5.0 * ((u1 - v1) + (u3 - v3)) + 8.0 * (u2 - v2)) / 18.0
    # alpha1 = (x1, x2, x3), alpha2 = (y1, y2, y3), alpha3 = (z1, z2, z3),
    # each the (1,1), (1,2) and (2,1) entries of a traceless matrix
    k1, k2, k3 = 2.0 * h, _ALPHA2 * h, 10.0 / 3.0 * h
    x1, x2, x3 = h * s2, k1 * a2, -k1 * b2
    y1, y2, y3 = k2 * (s3 - s1), 2.0 * k2 * (a3 - a1), 2.0 * k2 * (b1 - b3)
    z1 = k3 * (s3 + s1 - 2.0 * s2)
    z2 = 2.0 * k3 * (a3 + a1 - 2.0 * a2)
    z3 = 2.0 * k3 * (2.0 * b2 - b3 - b1)
    # C1 = [alpha1, alpha2]: the commutator of traceless X and Y is
    # (x2 y3 - x3 y2, 2 (x1 y2 - x2 y1), 2 (x3 y1 - x1 y3))
    c1 = x2 * y3 - x3 * y2
    c2 = 2.0 * (x1 * y2 - x2 * y1)
    c3 = 2.0 * (x3 * y1 - x1 * y3)
    # 2 alpha3 + C1, then the right factor alpha2 + C2
    e1, e2, e3 = 2.0 * z1 + c1, 2.0 * z2 + c2, 2.0 * z3 + c3
    g1 = y1 - (x2 * e3 - x3 * e2) / 60.0
    g2 = y2 - (x1 * e2 - x2 * e1) / 30.0
    g3 = y3 - (x3 * e1 - x1 * e3) / 30.0
    # the left factor -20 alpha1 - alpha3 + C1
    l1, l2, l3 = c1 - 20.0 * x1 - z1, c2 - 20.0 * x2 - z2, c3 - 20.0 * x3 - z3
    return (x1 + z1 / 12.0 + (l2 * g3 - l3 * g2) / 240.0,
            x2 + z2 / 12.0 + (l1 * g2 - l2 * g1) / 120.0,
            x3 + z3 / 12.0 + (l3 * g1 - l1 * g3) / 120.0, di)


def _advance(w, y):
    """The row (M11, M12, M21, M22, I) of y moved by the exponent w."""
    w1, w2, w3, di = w
    q2 = w1 * w1 + w2 * w3  # -det Omega
    if not abs(q2) < 5e5:  # short of cosh's overflow: a nan row, refused
        ch = sh = math.nan
    elif q2 > 0.0:
        q = math.sqrt(q2)
        ch, sh = math.cosh(q), math.sinh(q) / q
    elif q2 < 0.0:
        q = math.sqrt(-q2)
        ch, sh = math.cos(q), math.sin(q) / q
    else:
        ch = sh = 1.0
    e11, e12, e21, e22 = ch + sh * w1, sh * w2, sh * w3, ch - sh * w1
    m11, m12, m21, m22, i = y
    return [e11 * m11 + e12 * m21, e11 * m12 + e12 * m22,
            e21 * m11 + e22 * m21, e21 * m12 + e22 * m22, i + di]


def magnus_step(coefficients, t, y, h):
    """The FlowPoint y at t moved by a step of size h."""
    return FlowPoint._make(_advance(_exponent(coefficients, t, h), y))


def solve_ivp(side, coefficients, t_singular, t_bound):
    """Grow the :class:`Side` ``side`` of the flow (M, I) of the
    coefficients (a, b, c, d) of H from M = 1, I = 0 at t = 0 from its last
    step point until a step point reaches |t_bound|; a side that has not
    stepped sizes its first try from A(0).  Each step's error is held to
    FLOW_TOL, no step is clipped to t_bound, and none crosses t_singular
    (nan for none), so the step points depend on H alone.  The side is
    changed only when the solve succeeds: one that raises leaves it as it
    was.

    Raises SingularCoefficient where a coefficient fails at a node (see
    :func:`read`), and ToleranceNotMet when the step size falls below ten
    ulp of t or after MAX_STEPS tries of the side.
    """
    t, y = side.t[-1], side.steps[-1]
    direction, h_abs = math.copysign(1.0, side.h), abs(side.h)
    n_steps, n_rejected, nfev = len(side.t) - 1, side.n_rejected, side.nfev
    if h_abs == 0.0:
        # as in Hairer, Norsett & Wanner, Solving ODEs I, sec. II.4, without
        # their second read of A: f is the largest entry of A(0) and of I'
        a, b, c, d = read(coefficients, t)
        nfev += 1
        f = max(abs(c + d), 2.0 * abs(a), 2.0 * abs(b), abs(c - d))
        h_abs = (min(1.0 / f, (0.01 * FLOW_TOL / f) ** (1.0 / 7.0)) if f
                 else 1e-6)
    ts, ys = [], []
    while abs(t) < abs(t_bound):
        min_step = 10.0 * abs(math.nextafter(t, direction * math.inf) - t)
        h_abs = max(h_abs, min_step)
        rejected = False
        while True:
            if h_abs < min_step:
                raise ToleranceNotMet(
                    "required step size is below the spacing of "
                    "floating-point numbers", t=t, h=float(h_abs))
            if n_steps + n_rejected >= MAX_STEPS:
                raise ToleranceNotMet(
                    "the solve used up its step budget", t=t,
                    steps=n_steps, rejected=n_rejected, nfev=nfev)
            t_new = t + h_abs * direction
            if 0.0 < direction * t_singular < direction * t_new:
                t_new = t_singular
            h = t_new - t
            h_abs = abs(h)
            t_half = t + 0.5 * h
            w = _exponent(coefficients, t, h)
            first = _exponent(coefficients, t, t_half - t)
            second = _exponent(coefficients, t_half, t_new - t_half)
            nfev += EVALS_PER_STEP
            one = _advance(w, y)
            y_new = _advance(second, _advance(first, y))
            m11, m12, m21, m22, _ = y_new
            # the one-step error against FLOW_TOL, then the turn, capped
            # short of overflow, against a quarter turn on the same scale;
            # sums, so that an exponent that overflows makes the ratio nan
            err = ((abs(one[0] - m11) + abs(one[1] - m12)
                    + abs(one[2] - m21) + abs(one[3] - m22))
                   / (abs(m11) + abs(m12) + abs(m21) + abs(m22))
                   + abs(w[3] - first[3] - second[3])) / FLOW_TOL
            turn = min(abs(w[0] * w[0] + w[1] * w[2]) / _QUARTER_TURN, 1e80)
            ratio = max(err, turn ** 3.5)
            if ratio <= 1.0:
                factor = _MAX_FACTOR if ratio == 0.0 else min(
                    _MAX_FACTOR, _SAFETY * ratio ** _EXPONENT)
                h_abs *= min(1.0, factor) if rejected else factor
                break
            # max keeps the smallest factor when the ratio is nan
            h_abs *= max(_MIN_FACTOR, _SAFETY * ratio ** _EXPONENT)
            rejected = True
            n_rejected += 1
        t, y = t_new, y_new
        n_steps += 1
        ts.append(t)
        ys.append(y)
    side.t += ts
    side.steps += map(FlowPoint._make, ys)
    side.h, side.n_rejected, side.nfev = direction * h_abs, n_rejected, nfev
