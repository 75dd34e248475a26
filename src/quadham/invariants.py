"""Quadratic and linear dynamical invariants.

Covers the per-model catalog of conserved quadratic operators, the
general symmetric-form invariant [(mu p - q x)^2 + C0 x^2 / mu^2] e^I of
any quadratic Hamiltonian, linear invariants and the ladder factorization.
A Weyl polynomial in M^{-1} z times e^I is conserved, so every invariant
here is read off the flow from its data at t = 0: the energy form, the
linear invariant and the Lewis-Riesenfeld form.  The last one's mu solves
the nonlinear auxiliary equation as Pinney's superposition of two linear
solutions, whose mu^2 is the position moment s11 of S = M S0 M^T; the
form is e^I adj(S), so no value needs mu' or mu'', a derivative of the
coefficients or a division by a(t).  At a = 1/2, c = d = 0 mu is the
Ermakov kappa, with (A, B, C) = (kappa0^2, kappa0 kappa0', kappa0'^2 +
c0 / kappa0^2).  All of it is algebra on the flow M and
I = int_0^t (c - d) of :func:`quadham.characteristic.classical_flow`,
whose ``_weight`` forms each value times e^I.  The CLI and the grid take
the drift of an invariant's expectation here.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .characteristic import Flow, _congruence, _weight
from .coefficients import ModelSpec
from .errors import (NonPositiveForm, NumericalError, SingularCoefficient,
                     ValidationError)
from .ode import read


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
    ``init`` is (A0, B0, C0, D0).  Returns a callable t -> QuadraticForm
    on ``flow``.
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


def _pinney(flow: Flow, A: float, B: float, C: float):
    """(s11, s12, s22) of S1 = L [[A, B], [B, C]] L^T, L = [[1, 0],
    [-(c + d), 1]], k = 1 / 2a(0) and sqrt(C0).  The linear solutions
    u, v from (mu, mu') = (1, 0) and (0, 1) at t = 0 are paths of the
    flow, so Pinney's mu^2 = A u^2 + 2 B u v + C v^2 (Proc. AMS 1 (1950)
    681) is s11 of S = M S0 M^T, S0 = D S1 D with D = diag(1, k), and
    solves the nonlinear auxiliary equation with C0 = det S0 =
    (A C - B^2) k^2.  The readers apply D to M, and sqrt(C0) is
    |k| sqrt(A C - B^2), so that no value passes through a subnormal k^2.
    Reads H at t = 0 only.  ValidationError for an A, B or C that is not
    finite, SingularCoefficient where a(0) = 0, NonPositiveForm where the
    form is not positive definite, NumericalError naming t = 0 for a
    value past the float range."""
    if not all(map(math.isfinite, (A, B, C))):
        raise ValidationError("A, B and C must be finite", A=A, B=B, C=C)
    a, c, d = read((flow.tc.a, flow.tc.c, flow.tc.d), 0.0)
    if a == 0.0:
        raise SingularCoefficient("a vanishes at t = 0", t=0.0)
    (det,) = _finite(A * C - B * B, t=0.0)
    if not (A > 0.0 and det > 0.0):
        raise NonPositiveForm("the form is not positive definite",
                              A=A, B=B, C=C)
    k = 0.5 / a
    return _finite(*_congruence(1.0, 0.0, -(c + d), 1.0, (A, B, C)), k,
                   abs(k) * math.sqrt(det), t=0.0)


def general_invariant(flow: Flow, A: float, B: float, C: float):
    """The Lewis-Riesenfeld invariant (J. Math. Phys. 10 (1969) 1458) of
    Pinney's mu from (A, B, C), a general quadratic Hamiltonian's

        E = [(mu p - q x)^2 + C0 x^2 / mu^2] exp(int_0^t (c - d)),

    with mu^2 = s11, q = s12 / mu and C0 = det S of S = M S0 M^T (see
    ``_pinney``), the integral the I of ``flow``: E is e^I adj(S), so
    (A, B, C = D) is e^I (s11, s22, -s12) of ``ladder_factorization``'s
    congruence.  Returns a callable t -> QuadraticForm on ``flow``;
    refuses as ``_pinney`` when built and as ``_weight`` when read."""
    *s1, k, _ = _pinney(flow, A, B, C)

    def path(t: float) -> QuadraticForm:
        p = flow.at(t)
        s11, s12, s22 = _congruence(p.m11, p.m12 * k, p.m21, p.m22 * k, s1)
        A, B, C = _weight(t, p.i, 1.0, s11, s22, -s12)
        return QuadraticForm(A=A, B=B, C=C, D=C, t=t)

    return path


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


def ladder_factorization(flow: Flow, A: float, B: float, C: float):
    """Time-dependent annihilation/creation pair factorizing
    ``general_invariant(flow, A, B, C)`` as (omega_t/2)(a a^dagger +
    a^dagger a).  With S = M S0 M^T (see ``_pinney``), mu = sqrt(s11),
    q = s12 / mu and omega = 2 sqrt(C0): P = sqrt(omega) / (2 mu) -
    i q / sqrt(omega), R = mu / sqrt(omega) and omega_t = omega e^I, the
    integral the I of ``flow``.  Returns a callable t -> LadderPair on
    ``flow``; refuses as ``_pinney`` when built, and NumericalError naming
    t and I where a value is past the float range."""
    *s1, k, root = _pinney(flow, A, B, C)
    w0 = 2.0 * root
    sw = math.sqrt(w0)

    def path(t: float) -> LadderPair:
        p = flow.at(t)
        s11, s12, _ = _congruence(p.m11, p.m12 * k, p.m21, p.m22 * k, s1)
        # s11 > 0 on a definite form; nan where the float range lost it
        mu = math.sqrt(s11) if s11 > 0.0 else math.nan
        P_re, P_im, R = _finite(sw / (2.0 * mu), -s12 / mu / sw, mu / sw,
                                t=t, I=p.i)
        (omega_t,) = _weight(t, p.i, 1.0, w0)
        return LadderPair(x_coeff=complex(P_re, P_im), ddx_coeff=R,
                          omega_t=omega_t, t=t)

    return path
