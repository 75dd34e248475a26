"""The built-in models, one record per model.

Each model is one function of (omega0, lam, mu_param, delta) returning a
:class:`Model`.  The closed forms in it are the package's oracle: they are
written as printed and never derived from the numerical path.  This module
is a leaf of plain floats, tuples and callables; the public entry points in
``coefficients``, ``characteristic``, ``invariants`` and ``dynamics`` pack
them.  Adding a model is one function here named by its id, a constant for
the id, its place in ``MODELS``, and tests.
"""

import math

from .errors import InvalidMoments

CALDIROLA_KANAI = "caldirola_kanai"
MODIFIED_CK = "modified_ck"
UNITED = "united"
MODIFIED_OSCILLATOR = "modified_oscillator"
CJ_COORDINATE = "cj_coordinate"
CJ_MOMENTUM = "cj_momentum"
MODIFIED_PARAMETRIC = "modified_parametric"
PARAMETRIC_SECH2 = "parametric_sech2"
SIMPLE_HARMONIC = "simple_harmonic"
FREE_PARTICLE = "free_particle"

_UNDERDAMPED = ("underdamped regime required: effective frequency must "
                "satisfy omega > 0")
_NONPOSITIVE = "omega0 must be > 0"


class Model:
    """One built-in model at given parameters.

    ``parameters`` and ``constraint`` are the text ``list-models`` prints;
    ``problem`` says what is wrong with the parameters (None when nothing
    is).  ``hamiltonian`` is (a, b, c, d, da, dc, dd) of
    ``H = a p^2 + b x^2 + c px + d xp``, with a', c' and d' as the tests'
    oracle data for the paper's equations (no module here reads them),
    served for t < ``t_max`` and infinite at ``t_singular`` (nan when it
    is nowhere).  The closed forms, each None where the model has none:

    - ``mu(t)``: (mu, mu') of the characteristic equation;
    - ``kernel(t)``: (alpha, beta, gamma, h) of the Green function;
    - ``invariant(t)``: (A, B, C) of A p^2 + B x^2 + C (px + xp), conserved
      under ``invariant_hamiltonian`` (the model's own unless given);
    - ``reference(t)``: (A, B, C) of A p^2 + B x^2 + (C/2)(px + xp), and
      ``expectation(p2, x2, pxxp, t)``: its expectation value at t from the
      raw second moments at 0;
    - ``mean_position(A, delta, t)``: <x>(t) of a family of amplitude A and
      phase delta, and ``mean_start(A, delta)``: its (<x>, <p>) at 0;
    - ``invariant_mu(t)``: (mu, mu', mu'') of an elementary solution of the
      nonlinear auxiliary equation with constant ``invariant_c0``, and
      ``invariant_data``: that mu's (A, B, C) of ``general_invariant``.
    """

    def __init__(self, parameters, constraint, omega, hamiltonian, *,
                 problem=None, t_max=math.inf, t_singular=math.nan,
                 mu=None, kernel=None, invariant=None,
                 invariant_hamiltonian=None, expectation=None,
                 reference=None, mean_position=None, mean_start=None,
                 invariant_mu=None, invariant_c0=None, invariant_data=None):
        self.parameters, self.constraint = parameters, constraint
        self.omega, self.problem = omega, problem
        self.hamiltonian = hamiltonian
        self.t_max, self.t_singular = t_max, t_singular
        self.mu, self.kernel, self.invariant = mu, kernel, invariant
        self.invariant_hamiltonian = invariant_hamiltonian or hamiltonian
        self.expectation, self.reference = expectation, reference
        self.mean_position, self.mean_start = mean_position, mean_start
        self.invariant_mu, self.invariant_c0 = invariant_mu, invariant_c0
        self.invariant_data = invariant_data


def _zero(t):
    return 0.0


def _root(arg):
    return math.sqrt(arg) if arg > 0 else math.nan


def _exponential(w0, lam, w, c, d, rate, k, h_rate):
    """The exponentially damped family: the coefficients of
    H = (omega0/2)(e^{-2 lam t} p^2 + e^{2 lam t} x^2) + c px + d xp with
    constant c and d, mu = (omega0/omega) e^{rate t} sin(omega t), and the
    kernel alpha, gamma = (omega cos(omega t) +- k sin(omega t)) /
    (2 omega0 sin(omega t)) (alpha times e^{2 lam t}),
    beta = -omega e^{lam t} / (omega0 sin(omega t)), h = e^{h_rate t}."""
    a = lambda t: 0.5 * w0 * math.exp(-2.0 * lam * t)
    b = lambda t: 0.5 * w0 * math.exp(2.0 * lam * t)
    da = lambda t: -lam * w0 * math.exp(-2.0 * lam * t)

    def mu(t):
        e = math.exp(rate * t)
        return ((w0 / w) * e * math.sin(w * t),
                (w0 / w) * e * (w * math.cos(w * t) + rate * math.sin(w * t)))

    def kernel(t):
        s, c = math.sin(w * t), math.cos(w * t)
        return ((w * c + k * s) / (2.0 * w0 * s) * math.exp(2.0 * lam * t),
                -w / (w0 * s) * math.exp(lam * t),
                (w * c - k * s) / (2.0 * w0 * s), math.exp(h_rate * t))

    return (a, b, c, d, da, _zero, _zero), mu, kernel


def _energy_curve(w0, w, p2, x2, de, k, t):
    """<H_0>(t) of the exponentially damped family from E_0 = H_0(0) + de:
    (omega^2 H_0 - omega0^2 E_0)/omega^2 cos(2 omega t) + k sin(2 omega t)
    + omega0^2 E_0 / omega^2, with H_0(0) = (omega0/2)(<p^2> + <x^2>)."""
    h00 = 0.5 * w0 * (p2 + x2)
    e0 = h00 + de
    return ((w * w * h00 - w0 * w0 * e0) / (w * w) * math.cos(2 * w * t)
            + k * math.sin(2 * w * t) + w0 * w0 / (w * w) * e0)


def caldirola_kanai(w0, lam, mu_p, dlt):
    w = _root(w0 ** 2 - lam ** 2)
    h, mu, kernel = _exponential(w0, lam, w, _zero, _zero, -lam, -lam, 0.0)
    a, b = h[:2]
    # the reference operator is H itself
    return Model("omega0, lambda", "omega0^2 > lambda^2", w, h,
                 problem=None if w > 0 else _UNDERDAMPED, mu=mu,
                 kernel=kernel, invariant=lambda t: (a(t), b(t), 0.5 * lam),
                 expectation=lambda p2, x2, pxxp, t: _energy_curve(
                     w0, w, p2, x2, 0.5 * lam * pxxp,
                     lam * w0 * (x2 - p2) / (2.0 * w), t),
                 reference=lambda t: (a(t), b(t), 0.0))


def modified_ck(w0, lam, mu_p, dlt):
    w = _root(w0 ** 2 - lam ** 2)
    cd = lambda t: -lam
    h, mu, kernel = _exponential(w0, lam, w, cd, cd, -lam, lam, 0.0)
    a, b = h[:2]
    # the reference operator is H_0, which is H without its c and d terms
    return Model("omega0, lambda", "omega0^2 > lambda^2", w, h,
                 problem=None if w > 0 else _UNDERDAMPED, mu=mu,
                 kernel=kernel, invariant=lambda t: (a(t), b(t), -0.5 * lam),
                 expectation=lambda p2, x2, pxxp, t: _energy_curve(
                     w0, w, p2, x2, -0.5 * lam * pxxp,
                     -lam * w0 * (x2 - p2) / (2.0 * w), t),
                 reference=lambda t: (a(t), b(t), 0.0))


def united(w0, lam, mu_p, dlt):
    w = _root(w0 ** 2 - (lam - mu_p) ** 2)
    h, mu, kernel = _exponential(w0, lam, w, _zero, lambda t: -mu_p,
                                 mu_p - lam, mu_p - lam, mu_p)

    def invariant(t):
        e = math.exp(mu_p * t)
        return (0.5 * w0 * e * math.exp(-2 * lam * t),
                0.5 * w0 * e * math.exp(2 * lam * t), 0.5 * (lam - mu_p) * e)

    def mean_start(amplitude, phase):
        x0 = amplitude * math.sin(phase)
        dx0 = amplitude * (w * math.cos(phase)
                           - (lam + mu_p) * math.sin(phase))
        # <p> = (<x>' - 2d <x>) / (2a) with a(0) = omega0/2, d(0) = -mu
        return x0, (dx0 + 2.0 * mu_p * x0) / w0

    # mu = sqrt(omega0/2) e^{(mu_param - lambda) t} up to the kappa
    # substitution
    rate, amp = -lam, math.sqrt(0.5 * w0)

    def invariant_mu(t):
        e = amp * math.exp(rate * t)
        return e, rate * e, rate * rate * e

    # its Pinney data at 0: (mu^2, mu mu', mu'^2 + c0 (2a / mu)^2), 2a = w0
    c0, dmu, r = 0.25 * w ** 2, rate * amp, w0 / amp

    # the reference operator is the e^{mu t}-weighted H_0
    return Model("omega0, lambda, mu_param",
                 "omega0^2 > (lambda - mu_param)^2", w, h,
                 problem=None if w > 0 else _UNDERDAMPED,
                 mu=mu, kernel=kernel, invariant=invariant,
                 expectation=lambda p2, x2, pxxp, t: _energy_curve(
                     w0, w, p2, x2, 0.5 * (lam - mu_p) * pxxp,
                     0.5 * (lam - mu_p) * (w0 / w) * (x2 - p2), t),
                 reference=lambda t: (*invariant(t)[:2], 0.0),
                 mean_position=lambda amplitude, phase, t: (
                     amplitude * math.exp(-(lam + mu_p) * t)
                     * math.sin(w * t + phase)),
                 mean_start=mean_start,
                 invariant_mu=invariant_mu, invariant_c0=c0,
                 invariant_data=(amp * amp, amp * dmu,
                                 dmu * dmu + c0 * r * r))


def modified_oscillator(w0, lam, mu_p, dlt):
    cd = lambda t: math.sin(t) * math.cos(t)
    dcd = lambda t: math.cos(2.0 * t)
    mu = lambda t: (math.cos(t) * math.sinh(t) + math.sin(t) * math.cosh(t),
                    2.0 * math.cos(t) * math.cosh(t))

    def kernel(t):
        m = mu(t)[0]
        S = math.sin(t) * math.sinh(t)
        C = math.cos(t) * math.cosh(t)
        return (C - S) / (2.0 * m), -1.0 / m, (C + S) / (2.0 * m), 1.0

    def invariant(t):
        c2, s2 = math.cos(2 * t), math.sin(2 * t)
        return 0.5 * c2, -0.5 * c2, 0.5 * s2

    # a(t) vanishes at t = pi/2; the reference operator is (p^2 + x^2)/2
    return Model("none", "t < pi/2", w0,
                 (lambda t: math.cos(t) ** 2, lambda t: math.sin(t) ** 2,
                  cd, cd, lambda t: -math.sin(2.0 * t), dcd, dcd),
                 t_max=0.5 * math.pi, mu=mu, kernel=kernel,
                 invariant=invariant,
                 expectation=lambda p2, x2, pxxp, t: (
                     0.5 * (p2 + x2) * math.cosh(2.0 * t)
                     + 0.5 * pxxp * math.sinh(2.0 * t)),
                 reference=lambda t: (0.5, 0.5, 0.0))


def _cj_rescaled(w0, lam, w):
    """(a, b, a', b') of the frequency-rescaled hyperbolically damped
    oscillator H = (omega0/2)(sech^2(lam t) p^2 + cosh^2(lam t) x^2), the
    plain one at omega0 = 1, and its conserved (A, B, C); swapping p and x
    gives the momentum form, whose a' is this b'."""
    a = lambda t: 0.5 * w0 / math.cosh(lam * t) ** 2
    b = lambda t: 0.5 * w0 * math.cosh(lam * t) ** 2
    da = lambda t: -w0 * lam * math.tanh(lam * t) / math.cosh(lam * t) ** 2
    db = lambda t: 0.5 * w0 * lam * math.sinh(2.0 * lam * t)

    def invariant(t):
        ch = math.cosh(lam * t)
        return (0.5 * w0 / ch ** 2,
                (w0 ** 2 * math.sinh(lam * t) ** 2 + w ** 2) / (2.0 * w0),
                0.5 * lam * math.tanh(lam * t))

    return (a, b, da, db), invariant


def cj_coordinate(w0, lam, mu_p, dlt):
    w = _root(w0 ** 2 - lam ** 2)
    (a, b, da, _), invariant = _cj_rescaled(w0, lam, w)

    def mu(t):
        ch = math.cosh(lam * t)
        return (math.sin(w * t) / (w * ch),
                math.cos(w * t) / ch
                - (lam / w) * math.sin(w * t) * math.sinh(lam * t) / ch ** 2)

    def kernel(t):
        s = math.sin(w * t)
        ch, sh = math.cosh(lam * t), math.sinh(lam * t)
        return (ch / (2.0 * s) * (w * math.cos(w * t) * ch - lam * s * sh),
                # the factor-2 in the printed beta is a typo; -h/mu
                # requires this form
                -w * ch / s,
                w * math.cos(w * t) / (2.0 * s), 1.0)

    def expectation(p2, x2, pxxp, t):
        if abs(pxxp) > 1e-12:
            raise InvalidMoments(
                "the closed-form curve is the even-in-time branch and "
                "requires <px+xp>_0 = 0", pxxp=pxxp)
        h00 = p2 + x2
        l0 = p2 - x2
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

    # the invariant and the expectation curve belong to the rescaled form;
    # the reference operator is p^2/cosh^2 + cosh^2 x^2
    return Model(
        "omega0, lambda", "omega0^2 > lambda^2", w,
        (lambda t: 0.5 / math.cosh(lam * t) ** 2,
         lambda t: 0.5 * w0 ** 2 * math.cosh(lam * t) ** 2, _zero, _zero,
         lambda t: -lam * math.tanh(lam * t) / math.cosh(lam * t) ** 2,
         _zero, _zero),
        problem=None if w > 0 else _UNDERDAMPED, mu=mu, kernel=kernel,
        invariant=invariant,
        invariant_hamiltonian=(a, b, _zero, _zero, da, _zero, _zero),
        expectation=expectation,
        reference=lambda t: (1.0 / math.cosh(lam * t) ** 2,
                             math.cosh(lam * t) ** 2, 0.0),
        mean_position=lambda amplitude, phase, t: (
            amplitude * math.sin(w * t + phase) / math.cosh(lam * t)),
        # <p> = <x>'(0) with a(0) = 1/2, d(0) = 0
        mean_start=lambda amplitude, phase: (
            amplitude * math.sin(phase), amplitude * w * math.cos(phase)))


def cj_momentum(w0, lam, mu_p, dlt):
    w = _root(w0 ** 2 - lam ** 2)
    # this H is the momentum form of the rescaled one, which conserves the
    # swapped invariant
    (a, b, _, db), rescaled = _cj_rescaled(w0, lam, w)
    mu = lambda t: ((lam * math.cos(w * t) * math.sinh(lam * t)
                     + w * math.sin(w * t) * math.cosh(lam * t)) / w0,
                    w0 * math.cos(w * t) * math.cosh(lam * t))

    def kernel(t):
        s, c = math.sin(w * t), math.cos(w * t)
        ch, sh = math.cosh(lam * t), math.sinh(lam * t)
        den = lam * c * sh + w * s * ch
        return (w0 * c / (2.0 * ch * den), -w0 / den,
                w0 * (w * c * ch - lam * s * sh) / (2.0 * w * den), 1.0)

    def invariant(t):
        A, B, C = rescaled(t)
        return B, A, -C

    return Model("omega0, lambda", "omega0^2 > lambda^2", w,
                 (b, a, _zero, _zero, db, _zero, _zero),
                 problem=None if w > 0 else _UNDERDAMPED, mu=mu,
                 kernel=kernel, invariant=invariant)


def modified_parametric(w0, lam, mu_p, dlt):
    w = w0
    a = lambda t: 0.5 * w * math.tanh(lam * t + dlt) ** 2
    b = lambda t: 0.5 * w / math.tanh(lam * t + dlt) ** 2
    cd = lambda t: lam / math.sinh(2.0 * (lam * t + dlt))
    da = lambda t: (w * lam * math.tanh(lam * t + dlt)
                    / math.cosh(lam * t + dlt) ** 2)

    def dcd(t):
        u = 2.0 * (lam * t + dlt)
        return -2.0 * lam ** 2 * math.cosh(u) / math.sinh(u) ** 2

    def mu(t):
        u = lam * t + dlt
        td = math.tanh(dlt)
        return (math.sin(w * t) * math.tanh(u) * td,
                td * (w * math.cos(w * t) * math.tanh(u)
                      + lam * math.sin(w * t) / math.cosh(u) ** 2))

    def kernel(t):
        u = lam * t + dlt
        return (0.5 / math.tan(w * t) / math.tanh(u) ** 2,
                -1.0 / (math.tanh(dlt) * math.sin(w * t) * math.tanh(u)),
                0.5 / (math.tan(w * t) * math.tanh(dlt) ** 2), 1.0)

    def invariant(t):
        u = lam * t + dlt
        return math.tanh(u) ** 2, 1.0 / math.tanh(u) ** 2, 0.0

    # tanh(lam t + delta) vanishes at t = -delta / lam
    return Model("omega0, lambda, delta", "delta != 0", w0,
                 (a, b, cd, cd, da, dcd, dcd),
                 problem=(None if w0 > 0 else _NONPOSITIVE) or (
                     "delta must be nonzero" if dlt == 0.0 else None),
                 t_singular=-dlt / lam if lam else math.nan,
                 mu=mu, kernel=kernel, invariant=invariant)


def parametric_sech2(w0, lam, mu_p, dlt):
    w = w0
    b = lambda t: 0.5 * (w ** 2 + 2.0 * lam ** 2 / math.cosh(lam * t) ** 2)

    def mu(t):
        ch = math.cosh(lam * t)
        m = (lam * math.cos(w * t) * math.sinh(lam * t)
             + w * math.sin(w * t) * ch) / ((w ** 2 + lam ** 2) * ch)
        return m, math.cos(w * t) - lam * math.tanh(lam * t) * m

    def kernel(t):
        s, c = math.sin(w * t), math.cos(w * t)
        th = math.tanh(lam * t)
        den = w * s + lam * th * c
        return (((w ** 2 + lam ** 2 / math.cosh(lam * t) ** 2) * c
                 - lam * w * th * s) / (2.0 * den),
                -(w ** 2 + lam ** 2) / den,
                (w ** 2 + lam ** 2) * (w * c - lam * th * s) / (2.0 * w * den),
                1.0)

    def invariant(t):
        th = math.tanh(lam * t)
        ch = math.cosh(lam * t)
        A = w ** 2 + lam ** 2 * th ** 2
        B = (lam ** 6 * math.sinh(lam * t) ** 2
             + w ** 2 * (lam ** 2 + w ** 2) ** 2 * ch ** 6) / (ch ** 6 * A)
        # the cross term is -kappa kappa'; the printed plus sign does not
        # conserve the expectation value
        return A, B, -lam ** 3 * math.sinh(lam * t) / ch ** 3

    return Model("omega0, lambda", "none", w0,
                 (lambda t: 0.5, b, _zero, _zero, _zero, _zero, _zero),
                 problem=None if w0 > 0 else _NONPOSITIVE, mu=mu,
                 kernel=kernel, invariant=invariant)


def simple_harmonic(w0, lam, mu_p, dlt):
    half_w0 = 0.5 * w0
    half = lambda t: half_w0

    def kernel(t):
        s, c = math.sin(w0 * t), math.cos(w0 * t)
        alpha = c / (2.0 * s)
        return alpha, -1.0 / s, alpha, 1.0

    return Model("omega0", "none", w0,
                 (half, half, _zero, _zero, _zero, _zero, _zero),
                 problem=None if w0 > 0 else _NONPOSITIVE,
                 mu=lambda t: (math.sin(w0 * t), w0 * math.cos(w0 * t)),
                 kernel=kernel,
                 invariant=lambda t: (0.5 * w0, 0.5 * w0, 0.0))


def free_particle(w0, lam, mu_p, dlt):
    return Model("none", "none", 0.0,
                 (lambda t: 0.5, _zero, _zero, _zero, _zero, _zero, _zero),
                 mu=lambda t: (t, 1.0),
                 kernel=lambda t: (0.5 / t, -1.0 / t, 0.5 / t, 1.0),
                 invariant=lambda t: (0.5, 0.0, 0.0))


# each builder is named by its model id; MODEL_IDS keeps this order
MODELS = {build.__name__: build for build in (
    caldirola_kanai, modified_ck, united, modified_oscillator, cj_coordinate,
    cj_momentum, modified_parametric, parametric_sech2, simple_harmonic,
    free_particle)}
MODEL_IDS = tuple(MODELS)
