"""Dormand-Prince 8(5,3) integration with dense output, in plain floats.

The explicit Runge-Kutta pair of order 8 with the combined 5th/3rd-order
error estimate and the 7th-order continuous extension of Hairer, Norsett &
Wanner, *Solving Ordinary Differential Equations I*, 2nd ed., Sec. II.10
(their DOP853 code).  The step-size controller and the initial-step rule
are the ones scipy's ``DOP853`` uses.  A solve takes the steps of
``scipy.integrate.solve_ivp(method="DOP853")`` up to rounding, which the
error estimate amplifies: it cancels down to about the tolerance, so a
one-ulp change in a stage sum moves the step points by far more than an
ulp.  The state is a list of Python floats; for the five components of
the classical flow of :func:`quadham.characteristic.classical_flow`, the
package's one ODE, that is cheaper than numpy's per-call cost, and it
keeps numpy out of everything built on the flow.
"""

from __future__ import annotations

import math
import sys
from bisect import bisect_left
from operator import mul

from .errors import ToleranceNotMet

_EPS = sys.float_info.epsilon
_SAFETY = 0.9
_MIN_FACTOR = 0.2
_MAX_FACTOR = 10.0
# the controlled error estimate is of order 7
_EXPONENT = -1.0 / 8.0
# attempted steps (accepted and rejected) one solve may take, as DOP853's
# NMAX: five times the most (673) any tier-1 or benchmark solve takes.  A
# solve towards a singular time would otherwise crawl on for minutes
MAX_STEPS = 3_500

# The tables below are those of the DOP853 code, each 30-digit constant
# written as the shortest decimal that reads back as the same double.

# nodes: 12 stages, f(t + h, y_new), then the 3 extra stages of the dense
# output
_C = (
    0.0, 0.05260015195876773, 0.0789002279381516, 0.1183503419072274,
    0.2816496580927726, 0.3333333333333333, 0.25, 0.3076923076923077,
    0.6512820512820513, 0.6, 0.8571428571428571, 1.0, 1.0, 0.1, 0.2,
    0.7777777777777778)

# nonzero entries {j: a_ij} of the rows of the Butcher matrix; row 12 holds
# the weights b_j of the 8th-order solution, so stage 12 is f(t + h, y_new)
_A_ROWS = (
    {},
    {0: 0.05260015195876773},
    {0: 0.0197250569845379, 1: 0.0591751709536137},
    {0: 0.02958758547680685, 2: 0.08876275643042054},
    {0: 0.2413651341592667, 2: -0.8845494793282861, 3: 0.924834003261792},
    {0: 0.037037037037037035, 3: 0.17082860872947386, 4: 0.12546768756682242},
    {0: 0.037109375, 3: 0.17025221101954405, 4: 0.06021653898045596,
     5: -0.017578125},
    {0: 0.03709200011850479, 3: 0.17038392571223998, 4: 0.10726203044637328,
     5: -0.015319437748624402, 6: 0.008273789163814023},
    {0: 0.6241109587160757, 3: -3.3608926294469414, 4: -0.868219346841726,
     5: 27.59209969944671, 6: 20.154067550477894, 7: -43.48988418106996},
    {0: 0.47766253643826434, 3: -2.4881146199716677, 4: -0.590290826836843,
     5: 21.230051448181193, 6: 15.279233632882423, 7: -33.28821096898486,
     8: -0.020331201708508627},
    {0: -0.9371424300859873, 3: 5.186372428844064, 4: 1.0914373489967295,
     5: -8.149787010746927, 6: -18.52006565999696, 7: 22.739487099350505,
     8: 2.4936055526796523, 9: -3.0467644718982196},
    {0: 2.273310147516538, 3: -10.53449546673725, 4: -2.0008720582248625,
     5: -17.9589318631188, 6: 27.94888452941996, 7: -2.8589982771350235,
     8: -8.87285693353063, 9: 12.360567175794303, 10: 0.6433927460157636},
    {0: 0.054293734116568765, 5: 4.450312892752409, 6: 1.8915178993145003,
     7: -5.801203960010585, 8: 0.3111643669578199, 9: -0.1521609496625161,
     10: 0.20136540080403034, 11: 0.04471061572777259},
    {0: 0.056167502283047954, 6: 0.25350021021662483, 7: -0.2462390374708025,
     8: -0.12419142326381637, 9: 0.15329179827876568, 10: 0.00820105229563469,
     11: 0.007567897660545699, 12: -0.008298},
    {0: 0.03183464816350214, 5: 0.028300909672366776, 6: 0.053541988307438566,
     7: -0.05492374857139099, 10: -0.00010834732869724932,
     11: 0.0003825710908356584, 12: -0.00034046500868740456,
     13: 0.1413124436746325},
    {0: -0.42889630158379194, 5: -4.697621415361164, 6: 7.683421196062599,
     7: 4.06898981839711, 8: 0.3567271874552811, 12: -0.0013990241651590145,
     13: 2.9475147891527724, 14: -9.15095847217987},
)
# the rows as dense tuples, a_sj for j < s
_A = [tuple(row.get(j, 0.0) for j in range(s))
      for s, row in enumerate(_A_ROWS)]

# error weights of the 3rd- and 5th-order embedded solutions on stages
# 0..11; neither weighs f(t + h, y_new)
_E3_SHIFT = {0: 0.2440944881889764, 8: 0.7338466882816118,
             11: 0.022058823529411766}
_E3 = tuple(b - _E3_SHIFT.get(j, 0.0) for j, b in enumerate(_A[12]))
_E5 = (0.01312004499419488, 0.0, 0.0, 0.0, 0.0, -1.2251564463762044,
       -0.4957589496572502, 1.6643771824549864, -0.35032884874997366,
       0.3341791187130175, 0.08192320648511571, -0.022355307863886294)

# coefficients of the dense-output polynomial terms 3..6 on stages 0 and
# 5..15; stages 1..4 have none
_D = [(row[0], 0.0, 0.0, 0.0, 0.0, *row[1:]) for row in (
    (-8.428938276109013, 0.5667149535193777, -3.0689499459498917,
     2.38466765651207, 2.117034582445028, -0.871391583777973,
     2.2404374302607883, 0.6315787787694688, -0.08899033645133331,
     18.148505520854727, -9.194632392478356, -4.436036387594894),
    (10.427508642579134, 242.28349177525817, 165.20045171727028,
     -374.5467547226902, -22.113666853125306, 7.733432668472264,
     -30.674084731089398, -9.332130526430229, 15.697238121770845,
     -31.139403219565178, -9.35292435884448, 35.81684148639408),
    (19.985053242002433, -387.0373087493518, -189.17813819516758,
     527.8081592054236, -11.57390253995963, 6.8812326946963,
     -1.0006050966910838, 0.7777137798053443, -2.778205752353508,
     -60.19669523126412, 84.32040550667716, 11.99229113618279),
    (-25.69393346270375, -154.18974869023643, -231.5293791760455,
     357.6391179106141, 93.40532418362432, -37.45832313645163,
     104.0996495089623, 29.8402934266605, -43.53345659001114,
     96.32455395918828, -39.17726167561544, -149.72683625798564),
)]


def _rms(v) -> float:
    return math.hypot(*v) / math.sqrt(len(v))


def _stage(y, h, K, s):
    """y + h sum_j a_sj K_j, the state at which stage s is evaluated; K
    holds one list of the 16 stage slopes per component."""
    row = _A[s]
    return [u + h * sum(map(mul, row, k)) for u, k in zip(y, K)]


def _initial_step(f, t0, y0, f0, span, direction, max_step, rtol, atol):
    """Hairer, Norsett & Wanner's starting step, Sec. II.4."""
    scale = [atol + abs(u) * rtol for u in y0]
    d0 = _rms([u / s for u, s in zip(y0, scale)])
    d1 = _rms([v / s for v, s in zip(f0, scale)])
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, span)
    step = h0 * direction
    f1 = f(t0 + step, [u + step * v for u, v in zip(y0, f0)])
    d2 = _rms([(v1 - v0) / s for v1, v0, s in zip(f1, f0, scale)]) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1.0 / 8.0)
    return min(100.0 * h0, h1, span, max_step)


def _error_norm(K, h, scale):
    # squared norms, as scipy's DOP853 takes them
    e5 = e3 = 0.0
    for k, s in zip(K, scale):
        err5 = sum(map(mul, _E5, k)) / s
        err3 = sum(map(mul, _E3, k)) / s
        e5 += err5 * err5
        e3 += err3 * err3
    if e5 == 0.0 and e3 == 0.0:
        return 0.0
    return abs(h) * e5 / math.sqrt((e5 + 0.01 * e3) * len(scale))


def bracket_sign_change(g, lo, hi):
    """Shrink [lo, hi] by bisection until its ends are a few ulp apart.

    g(lo) must be nonzero and g(hi) zero or of the other sign; the
    returned ends keep that property.  When g(lo) is zero, (lo, lo) is
    returned.
    """
    g_lo = g(lo)
    if g_lo == 0.0:
        return lo, lo
    positive = g_lo > 0.0
    while abs(hi - lo) > 4.0 * _EPS * (1.0 + abs(hi)):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        g_mid = g(mid)
        if g_mid != 0.0 and (g_mid > 0.0) == positive:
            lo = mid
        else:
            hi = mid
    return lo, hi


class Solution:
    """The result of one :func:`solve_ivp` call.

    ``t`` lists the accepted step points and ``y`` the solution there, one
    list of floats per step point; calling the object evaluates the
    7th-order dense output at a time t (a list of floats).  Times outside
    the span extrapolate the nearest step's polynomial.  ``nfev`` counts
    the right-hand-side evaluations, ``n_steps`` the accepted steps and
    ``n_rejected`` the rejected ones.
    """

    def __init__(self, ts, ys, segments, direction, nfev=0, n_rejected=0):
        self.t, self.y = ts, ys
        self.nfev = nfev
        self.n_steps = len(segments)
        self.n_rejected = n_rejected
        self._sign = direction
        # the step ending at a step point serves it, as in scipy's
        # OdeSolution
        self._keys = [direction * t for t in ts]
        # (t_old, h, y_old, F): F holds, for each component, the
        # coefficients of the 7 basis polynomials below
        self._segments = segments

    def __call__(self, t):
        t = float(t)
        if not self._segments:
            return list(self.y[0])
        k = min(max(bisect_left(self._keys, self._sign * t) - 1, 0),
                len(self._segments) - 1)
        t_old, h, y_old, F = self._segments[k]
        x = (t - t_old) / h
        u = 1.0 - x
        x2u = x * x * u
        x3u2 = x2u * x * u
        p = (x, x * u, x2u, x2u * u, x3u2, x3u2 * u, x3u2 * u * x)
        return [v + sum(map(mul, p, c)) for v, c in zip(y_old, F)]


def solve_ivp(fun, t_span, y0, rtol, atol, max_step=math.inf):
    """Integrate y' = fun(t, y) from t_span[0] to t_span[1] (either
    direction) with DOP853 and dense output; ``fun`` returns a sequence of
    floats.

    Raises ToleranceNotMet when the step size falls below ten ulp of t or
    after MAX_STEPS attempted steps.
    """
    t0, t_bound = float(t_span[0]), float(t_span[1])
    y = [float(v) for v in y0]

    nfev = n_rejected = 0

    def f(t, y):
        nonlocal nfev
        nfev += 1
        return fun(t, y)

    direction = 1.0 if t_bound >= t0 else -1.0
    ts, ys, segments = [t0], [y], []
    if t_bound == t0:
        return Solution(ts, ys, segments, direction)
    fy = f(t0, y)
    h_abs = _initial_step(f, t0, y, fy, abs(t_bound - t0), direction,
                          max_step, rtol, atol)
    # the stage slopes, one list per component
    K = [[0.0] * 16 for _ in y]
    t = t0
    while direction * (t - t_bound) < 0:
        min_step = 10.0 * abs(math.nextafter(t, direction * math.inf) - t)
        h_abs = min(max(h_abs, min_step), max_step)
        rejected = False
        while True:
            if h_abs < min_step:
                raise ToleranceNotMet(
                    "required step size is below the spacing of "
                    "floating-point numbers", t=t, h=float(h_abs))
            if len(segments) + n_rejected >= MAX_STEPS:
                raise ToleranceNotMet(
                    "the solve used up its step budget", t=t,
                    steps=len(segments), rejected=n_rejected, nfev=nfev)
            t_new = t + h_abs * direction
            if direction * (t_new - t_bound) > 0:
                t_new = t_bound
            h = t_new - t
            h_abs = abs(h)
            for k, v in zip(K, fy):
                k[0] = v
            # stage 12 is the 8th-order solution, its slope f(t + h, y_new)
            for s in range(1, 13):
                y_new = _stage(y, h, K, s)
                for k, v in zip(K, f(t + _C[s] * h, y_new)):
                    k[s] = v
            scale = [atol + max(abs(u), abs(v)) * rtol
                     for u, v in zip(y, y_new)]
            err = _error_norm(K, h, scale)
            if err < 1.0:
                factor = _MAX_FACTOR if err == 0.0 else min(
                    _MAX_FACTOR, _SAFETY * err ** _EXPONENT)
                h_abs *= min(1.0, factor) if rejected else factor
                break
            h_abs *= max(_MIN_FACTOR, _SAFETY * err ** _EXPONENT)
            rejected = True
            n_rejected += 1

        for s in range(13, 16):
            for k, v in zip(K, f(t + _C[s] * h, _stage(y, h, K, s))):
                k[s] = v
        f_new = [k[12] for k in K]
        F = []
        for u, v, f0, f1, k in zip(y, y_new, fy, f_new, K):
            dy = v - u
            F.append((dy, h * f0 - dy, 2.0 * dy - h * (f1 + f0),
                      *[h * sum(map(mul, row, k)) for row in _D]))
        segments.append((t, h, y, F))
        t, y, fy = t_new, y_new, f_new
        ts.append(t)
        ys.append(y)
    return Solution(ts, ys, segments, direction, nfev, n_rejected)
