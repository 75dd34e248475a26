"""Quadratic and linear dynamical invariants.

Covers the per-model catalog of conserved quadratic operators, the
general symmetric-form invariant [(mu p - q x)^2 + C0 x^2 / mu^2] e^I of
any quadratic Hamiltonian, linear invariants and the ladder factorization.
A Weyl polynomial in M^{-1} z times e^I is conserved, so the energy form
and the linear invariant are read off the flow from their data at t = 0.
mu solves the nonlinear auxiliary equation, as the square root of Pinney's
superposition A u^2 + 2 B u v + C v^2 of two linear solutions.  At
a = 1/2, c = d = 0 that is the Ermakov equation, kappa from (kappa0,
kappa0') the superposition of the flow's columns with (A, B, C) =
(kappa0^2, kappa0 kappa0', kappa0'^2 + c0 / kappa0^2), and the form of it
the Lewis-Riesenfeld invariant.  A mu callable returns (f, f', f'') at t;
an invariant calls it once and refuses a mu whose residual is not within
1e-8.  All of it is algebra on the flow M and I = int_0^t (c - d) of
:func:`quadham.characteristic.classical_flow`, whose ``_weight`` forms
each value times e^I.  The CLI and the grid take the drift of an
invariant's expectation here.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .characteristic import Flow, _congruence, _weight
from .coefficients import ModelSpec, TimeCoefficients
from .errors import (AuxiliaryResidualTooLarge, InvalidC0, MuVanishes,
                     NonPositiveForm, NumericalError, ValidationError)
from .ode import read

# the residual of the auxiliary equation that is refused
_RESIDUAL_TOL = 1e-8


class QuadraticForm(NamedTuple):
    """Coefficients of A p^2 + B x^2 + C px + D xp at time t."""

    A: float
    B: float
    C: float
    D: float
    t: float = 0.0

    def expectation(self, p2: float, x2: float, pxxp: float) -> float:
        """A<p^2> + B<x^2> + (C+D)/2 <px+xp> from raw moments."""
        return (self.A * p2 + self.B * x2 + 0.5 * (self.C + self.D) * pxxp)

    def magnitude(self, p2: float, x2: float, pxxp: float) -> float:
        """The summed magnitudes of the terms of :meth:`expectation`."""
        return (abs(self.A * p2) + abs(self.B * x2)
                + abs(0.5 * (self.C + self.D) * pxxp))


class LinearForm(NamedTuple):
    """Coefficients of A p + B x + C (constant term) at time t."""

    A: float
    B: float
    C: float
    t: float = 0.0


class LadderPair(NamedTuple):
    """Annihilation/creation pair a = P x + R d/dx, a^dagger = conj(P) x - R d/dx."""

    x_coeff: complex
    ddx_coeff: float
    omega_t: float
    t: float = 0.0

    def commutator(self) -> float:
        return 2.0 * self.x_coeff.real * self.ddx_coeff

    def reconstruct(self) -> QuadraticForm:
        """(omega/2)(a a^dagger + a^dagger a) expanded as a quadratic form."""
        P, R, w = self.x_coeff, self.ddx_coeff, self.omega_t
        return QuadraticForm(A=w * R * R, B=w * abs(P) ** 2,
                             C=w * P.imag * R, D=w * P.imag * R, t=self.t)


def solve_energy_system(flow: Flow, init):
    """Solve the conservation conditions for a quadratic form
    A p^2 + B x^2 + C px + D xp under H = a p^2 + b x^2 + c px + d xp:

        A' + 2a(C + D) - (3c + d) A = 0,
        B' - 2b(C + D) + (c + 3d) B = 0,
        C' + 2(a B - b A) - (c - d) C = 0,
        D' + 2(a B - b A) - (c - d) D = 0.

    On the classical flow, Q = [[B, (C + D)/2], [(C + D)/2, A]] is
    e^I M^{-T} Q_0 M^{-1} and C - D = e^I (C_0 - D_0).  For self-adjoint
    data (c = d, C = D) this is the familiar three-component system.
    ``init`` is (A0, B0, C0, D0).  Returns a callable t -> QuadraticForm on
    ``flow``.
    """
    A0, B0, C0, D0 = init
    q0 = (B0, 0.5 * (C0 + D0), A0)

    def path(t: float) -> QuadraticForm:
        p = flow.at(t)
        # M^{-T} of a flow with det M = 1
        B, half_cd, A = _congruence(p.m22, -p.m21, -p.m12, p.m11, q0)
        A, B, half_cd, half = _weight(t, p.i, 1.0, A, B, half_cd,
                                      0.5 * (C0 - D0))
        C, D = _finite(half_cd + half, half_cd - half, t=t, I=p.i)
        return QuadraticForm(A=A, B=B, C=C, D=D, t=t)

    return path


def energy_operator_catalog(spec: ModelSpec, t: float) -> QuadraticForm:
    """Closed-form conserved quadratic operator for a built-in model,
    conserved under ``catalog_coefficients(spec)``.

    For the hyperbolically damped models that is the frequency-rescaled
    Hamiltonian, with the momentum representation obtained by swapping A
    and B and negating the cross term.  ValidationError for a t that is
    not finite.
    """
    if not math.isfinite(t):
        raise ValidationError("t must be finite", t=t)
    A, B, C = spec.closed_form("invariant")(t)
    return QuadraticForm(A, B, C, C, t)


def _expectation_drift(pairs, cancel: float):
    """(E(0), max |E(t) - E(0)| / |E(0)|) over the iterator ``pairs`` of
    (QuadraticForm, SecondMoments), the first at t = 0; ValidationError
    unless |E(0)| > ``cancel`` times its summed terms, since a drift
    relative to a cancelled E(0) measures rounding.  Private, as is
    ``_congruence`` and for its reason."""
    q0, m0 = next(pairs)
    ref = q0.expectation(m0.p2, m0.x2, m0.pxxp)
    terms = q0.magnitude(m0.p2, m0.x2, m0.pxxp)
    if not abs(ref) > cancel * terms:
        raise ValidationError("the invariant of the initial moments "
                              "vanishes against its terms", reference=ref,
                              terms=terms)
    return ref, max(abs(q.expectation(m.p2, m.x2, m.pxxp) - ref)
                    for q, m in pairs) / abs(ref)


def _finite(*values: float, **info):
    """values; NumericalError with ``info`` (t, and I where a value is
    weighted) where one is not finite."""
    if not all(map(math.isfinite, values)):
        raise NumericalError("a value of the invariant is not finite", **info)
    return values


def _auxiliary_coefficients(tc: TimeCoefficients, t: float):
    """a, a'/a, Q = 4ab + (a'/a - c - d)(c + d) - c' - d' and c + d at t,
    for the linear auxiliary equation mu'' - (a'/a) mu' + Q mu and for q;
    ValidationError when a', c' or d' is missing."""
    a, b, c, d = read((tc.a, tc.b, tc.c, tc.d), t)
    missing = [n for n in ("da", "dc", "dd") if getattr(tc, n) is None]
    if missing:
        raise ValidationError("the invariants need the derivatives a', c' "
                              "and d' of the coefficients", missing=missing)
    da, dc, dd = read((tc.da, tc.dc, tc.dd), t)
    ra = da / a
    return a, ra, (4.0 * a * b + (ra - c - d) * (c + d) - dc - dd), c + d


def _auxiliary_solution(tc: TimeCoefficients, mu_fn, C0: float, t: float):
    """(mu, q) at t from one call of ``mu_fn``, q = (mu' - (c + d) mu) /
    (2a); refuses a mu whose square is 0 and a residual of the nonlinear
    auxiliary equation mu'' - (a'/a) mu' + Q mu = C0 (2a)^2 / mu^3 that is
    not within 1e-8, as a nan one is not."""
    vals = mu_fn(t)
    if len(vals) != 3:
        raise ValidationError("mu_fn must return (mu, mu', mu'')",
                              t=t, length=len(vals))
    mu, mup, mupp = vals
    a, ra, q, cd = _auxiliary_coefficients(tc, t)
    if mu * mu == 0.0:
        raise MuVanishes("mu vanishes", t=t)
    # C0 (2a)^2 / mu^3 by products and quotients, which do not raise
    w = 2.0 * a / mu
    rhs = C0 * w * w / mu if C0 != 0.0 else 0.0
    res = abs(mupp - ra * mup + q * mu - rhs)
    if not res <= _RESIDUAL_TOL:
        raise AuxiliaryResidualTooLarge(
            "mu does not solve the auxiliary equation at t",
            residual=res, t=t)
    return mu, (mup - cd * mu) / (2.0 * a)


def superpose_linear_solutions(tc: TimeCoefficients, u, v,
                               A: float, B: float, C: float):
    """Combine two solutions of the linear auxiliary equation into a solution
    of the nonlinear one: mu = sqrt(A u^2 + 2 B u v + C v^2) (Pinney, Proc.
    AMS 1 (1950) 681); NonPositiveForm where the form is not positive.

    ``u`` and ``v`` map t to (value, derivative).  Their Wronskian equals
    const * 2a(t); the combined solution has C0 = (A C - B^2) W^2 / (2a)^2,
    a constant.  Returns (mu_fn, C0) with mu_fn yielding (mu, mu', mu'').
    ValidationError for an A, B or C that is not finite, NumericalError
    naming t for a C0 or a value that is not.
    """
    if not all(map(math.isfinite, (A, B, C))):
        raise ValidationError("A, B and C must be finite", A=A, B=B, C=C)
    u0, u1 = u(0.0)[:2]
    v0, v1 = v(0.0)[:2]
    W0 = u0 * v1 - u1 * v0
    (C0,) = _finite((A * C - B * B) * W0 * W0
                    / (2.0 * read((tc.a,), 0.0)[0]) ** 2, t=0.0)

    def mu_fn(t):
        u0, u1 = u(t)[:2]
        v0, v1 = v(t)[:2]
        s = A * u0 * u0 + 2.0 * B * u0 * v0 + C * v0 * v0
        if not s > 0.0:
            raise NonPositiveForm("quadratic form is not positive", t=t)
        ds = 2.0 * (A * u0 * u1 + B * (u1 * v0 + u0 * v1) + C * v0 * v1)
        _, p, q, _ = _auxiliary_coefficients(tc, t)
        # second derivatives of u, v from the linear equation itself
        u2 = p * u1 - q * u0
        v2 = p * v1 - q * v0
        d2s = 2.0 * (A * (u1 * u1 + u0 * u2)
                     + B * (u2 * v0 + 2.0 * u1 * v1 + u0 * v2)
                     + C * (v1 * v1 + v0 * v2))
        mu = math.sqrt(s)
        mup = 0.5 * ds / mu
        mupp = 0.5 * d2s / mu - mup * mup / mu
        return _finite(mu, mup, mupp, t=t)

    return mu_fn, C0


def solve_linear_auxiliary(flow: Flow, init):
    """Solve the linear auxiliary equation mu'' = (a'/a) mu' - Q mu,

        Q = 4ab + (a'/a - c - d)(c + d) - c' - d',

    from init = (mu(0), mu'(0)) and return a callable t -> (mu, mu') on
    ``flow``.  mu is the position row of the flow applied to
    (mu_0, p_0), p_0 = (mu_0' - (c + d) mu_0) / (2a), and
    mu' = 2a p + (c + d) mu.  ValidationError for an init that is not
    finite, NumericalError naming t for a value that is not.
    """
    acd = (flow.tc.a, flow.tc.c, flow.tc.d)
    mu0, mup0 = init
    if not (math.isfinite(mu0) and math.isfinite(mup0)):
        raise ValidationError("init must be finite", init=init)
    a, c, d = read(acd, 0.0)
    p0 = (mup0 - (c + d) * mu0) / (2.0 * a)

    def path(t):
        m = flow.at(t)
        mu = m.m11 * mu0 + m.m12 * p0
        p = m.m21 * mu0 + m.m22 * p0
        a, c, d = read(acd, t)
        return _finite(mu, 2.0 * a * p + (c + d) * mu, t=t)

    return path


def general_invariant(flow: Flow, mu_fn, C0: float, t: float) -> QuadraticForm:
    """Symmetric-form invariant for a general quadratic Hamiltonian:

        E = [(mu p - q x)^2 + C0 x^2 / mu^2] exp(int_0^t (c - d)),
        q = (mu' - (c + d) mu) / (2a),

    where mu solves the nonlinear auxiliary equation to 1e-8 and the
    integral is the I of ``flow``.
    """
    mu, q = _auxiliary_solution(flow.tc, mu_fn, C0, t)
    A, B, C = _weight(t, flow.at(t).i, 1.0, mu * mu,
                      q * q + C0 / (mu * mu), -mu * q)
    return QuadraticForm(A=A, B=B, C=C, D=C, t=t)


def linear_invariant(flow: Flow, init):
    """The linear invariant A p + B x + C of H from init = (A0, B0, C0) at
    t = 0: (B, A) = e^I (B0, A0) M^{-1} and C = e^I C0 on ``flow``, which
    reads no derivative of the coefficients.  It is the paper's
    A p + ((2cA - A') / 2a) x + C0 e^I, whose A solves
    A'' - (a'/a + 2c - 2d) A' + 4(ab - cd + c a'/(2a) - c'/2) A = 0.
    Returns a callable t -> LinearForm on ``flow``."""
    A0, B0, C0 = init

    def path(t: float) -> LinearForm:
        p = flow.at(t)
        # (B0, A0) M^{-1} of a flow with det M = 1
        B, A, C = _weight(t, p.i, 1.0, B0 * p.m22 - A0 * p.m21,
                          A0 * p.m11 - B0 * p.m12, C0)
        return LinearForm(A=A, B=B, C=C, t=t)

    return path


def ladder_factorization(flow: Flow, mu_fn, C0: float, t: float) -> LadderPair:
    """Time-dependent annihilation/creation pair factorizing the invariant as
    (omega(t)/2)(a a^dagger + a^dagger a) with omega(t) = 2 sqrt(C0)
    exp(int (c - d)), the integral the I of ``flow``; mu must solve the
    nonlinear auxiliary equation to 1e-8.  NumericalError naming t where
    P or R is past the float range."""
    if not (C0 > 0):
        raise InvalidC0("C0 must be positive for the factorization", C0=C0)
    mu, q = _auxiliary_solution(flow.tc, mu_fn, C0, t)
    w0 = 2.0 * math.sqrt(C0)
    P_re, P_im, R = _finite(math.sqrt(w0) / (2.0 * mu), -q / math.sqrt(w0),
                            mu / math.sqrt(w0), t=t)
    (omega_t,) = _weight(t, flow.at(t).i, 1.0, w0)
    return LadderPair(x_coeff=complex(P_re, P_im), ddx_coeff=R,
                      omega_t=omega_t, t=t)

