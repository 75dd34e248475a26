"""Coefficient functions of quadratic Hamiltonians and the built-in models.

Two coefficient conventions are used throughout the package.  In the
"hamiltonian" convention the operator is ``H = a p^2 + b x^2 + c px + d xp``.
In the "equation" convention (a, b, c, d) are the coefficients as they
appear in the Schrodinger equation
``i psi_t = -a psi_xx + b x^2 psi - i (c x psi_x + d psi)``.
The two are related by ``c_eq = c + d`` and ``d_eq = c``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Optional

from .errors import ConventionMismatch, InvalidModelParams, SingularCoefficient

EQUATION = "equation"
HAMILTONIAN = "hamiltonian"

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

MODEL_IDS = (
    CALDIROLA_KANAI,
    MODIFIED_CK,
    UNITED,
    MODIFIED_OSCILLATOR,
    CJ_COORDINATE,
    CJ_MOMENTUM,
    MODIFIED_PARAMETRIC,
    PARAMETRIC_SECH2,
    SIMPLE_HARMONIC,
    FREE_PARTICLE,
)


def _fd_derivative(f: Callable[[float], float], t: float) -> float:
    h = max(1e-6, 1e-8 * abs(t))
    return (f(t + h) - f(t - h)) / (2.0 * h)


@dataclass(frozen=True)
class TimeCoefficients:
    """The four real coefficient functions of a quadratic Hamiltonian.

    Derivative callbacks are optional; central finite differences with step
    ``max(1e-6, 1e-8 |t|)`` are used when they are absent.  Instances are
    immutable and safe to share between threads.
    """

    a: Callable[[float], float]
    b: Callable[[float], float]
    c: Callable[[float], float]
    d: Callable[[float], float]
    convention: str = HAMILTONIAN
    da: Optional[Callable[[float], float]] = None
    db: Optional[Callable[[float], float]] = None
    dc: Optional[Callable[[float], float]] = None
    dd: Optional[Callable[[float], float]] = None
    t_max: float = math.inf
    # a time where the coefficients are infinite; nan when there is none
    t_singular: float = math.nan

    def __post_init__(self):
        if self.convention not in (EQUATION, HAMILTONIAN):
            raise ConventionMismatch(f"unknown convention {self.convention!r}")

    def deriv_a(self, t: float) -> float:
        return self.da(t) if self.da is not None else _fd_derivative(self.a, t)

    def deriv_b(self, t: float) -> float:
        return self.db(t) if self.db is not None else _fd_derivative(self.b, t)

    def deriv_c(self, t: float) -> float:
        return self.dc(t) if self.dc is not None else _fd_derivative(self.c, t)

    def deriv_d(self, t: float) -> float:
        return self.dd(t) if self.dd is not None else _fd_derivative(self.d, t)

    def require_window(self, t_end: float) -> None:
        """Refuse an integration from 0 to t_end that reaches t_singular;
        the solver would crawl towards it for minutes before giving up."""
        if min(0.0, t_end) <= self.t_singular <= max(0.0, t_end):
            raise SingularCoefficient(
                "the window reaches a singularity of the coefficients",
                t_end=t_end, t_singular=self.t_singular)

    def require(self, convention: str) -> None:
        if self.convention != convention:
            raise ConventionMismatch(
                f"expected {convention!r} coefficients, got {self.convention!r}"
            )

    def is_self_adjoint(self, t: float = 0.0, atol: float = 1e-12) -> bool:
        # c = d in the hamiltonian convention, c = 2 d in the equation one
        if self.convention == HAMILTONIAN:
            return abs(self.c(t) - self.d(t)) <= atol
        return abs(self.c(t) - 2.0 * self.d(t)) <= atol


@dataclass(frozen=True)
class ModelSpec:
    """Parameters selecting one of the built-in models.

    ``omega0`` is the frequency parameter of the model (for the modified
    parametric and sech^2 parametric oscillators it is the plain frequency
    appearing in the Hamiltonian).  ``mu_param`` is the dissipation rate of
    the united model, distinct from the characteristic function mu.
    """

    model_id: str
    omega0: float = 1.0
    lam: float = 0.0
    mu_param: float = 0.0
    delta: float = 0.0

    @property
    def omega(self) -> float:
        if self.model_id in (CALDIROLA_KANAI, MODIFIED_CK, CJ_COORDINATE, CJ_MOMENTUM):
            arg = self.omega0 ** 2 - self.lam ** 2
        elif self.model_id == UNITED:
            arg = self.omega0 ** 2 - (self.lam - self.mu_param) ** 2
        elif self.model_id == FREE_PARTICLE:
            return 0.0
        else:
            return self.omega0
        return math.sqrt(arg) if arg > 0 else math.nan

    def validate(self) -> None:
        if self.model_id not in MODEL_IDS:
            raise InvalidModelParams(f"unknown model {self.model_id!r}")
        needs_omega = (
            CALDIROLA_KANAI,
            MODIFIED_CK,
            UNITED,
            CJ_COORDINATE,
            CJ_MOMENTUM,
        )
        if self.model_id in needs_omega and not (self.omega > 0):
            raise InvalidModelParams(
                "underdamped regime required: effective frequency must satisfy "
                "omega > 0",
                model=self.model_id,
            )
        if self.model_id in (SIMPLE_HARMONIC, MODIFIED_PARAMETRIC, PARAMETRIC_SECH2):
            if not (self.omega0 > 0):
                raise InvalidModelParams("omega0 must be > 0", model=self.model_id)
        if self.model_id == MODIFIED_PARAMETRIC and self.delta == 0.0:
            raise InvalidModelParams("delta must be nonzero", model=self.model_id)


def _hamiltonian_form(spec: ModelSpec) -> TimeCoefficients:
    w0, lam, mu, dlt = spec.omega0, spec.lam, spec.mu_param, spec.delta
    zero = lambda t: 0.0

    if spec.model_id in (CALDIROLA_KANAI, MODIFIED_CK, UNITED):
        a = lambda t: 0.5 * w0 * math.exp(-2.0 * lam * t)
        b = lambda t: 0.5 * w0 * math.exp(2.0 * lam * t)
        da = lambda t: -lam * w0 * math.exp(-2.0 * lam * t)
        db = lambda t: lam * w0 * math.exp(2.0 * lam * t)
        if spec.model_id == CALDIROLA_KANAI:
            c, d = zero, zero
        elif spec.model_id == MODIFIED_CK:
            c = d = lambda t: -lam
        else:
            c, d = zero, (lambda t: -mu)
        return TimeCoefficients(a, b, c, d, HAMILTONIAN, da, db, zero, zero)

    if spec.model_id == MODIFIED_OSCILLATOR:
        a = lambda t: math.cos(t) ** 2
        b = lambda t: math.sin(t) ** 2
        cd = lambda t: math.sin(t) * math.cos(t)
        da = lambda t: -math.sin(2.0 * t)
        db = lambda t: math.sin(2.0 * t)
        dcd = lambda t: math.cos(2.0 * t)
        # a(t) vanishes at t = pi/2
        return TimeCoefficients(a, b, cd, cd, HAMILTONIAN, da, db, dcd, dcd,
                                t_max=0.5 * math.pi)

    if spec.model_id == CJ_COORDINATE:
        a = lambda t: 0.5 / math.cosh(lam * t) ** 2
        b = lambda t: 0.5 * w0 ** 2 * math.cosh(lam * t) ** 2
        da = lambda t: -lam * math.tanh(lam * t) / math.cosh(lam * t) ** 2
        db = lambda t: 0.5 * w0 ** 2 * lam * math.sinh(2.0 * lam * t)
        return TimeCoefficients(a, b, zero, zero, HAMILTONIAN, da, db, zero, zero)

    if spec.model_id == CJ_MOMENTUM:
        a = lambda t: 0.5 * w0 * math.cosh(lam * t) ** 2
        b = lambda t: 0.5 * w0 / math.cosh(lam * t) ** 2
        da = lambda t: 0.5 * w0 * lam * math.sinh(2.0 * lam * t)
        db = lambda t: -w0 * lam * math.tanh(lam * t) / math.cosh(lam * t) ** 2
        return TimeCoefficients(a, b, zero, zero, HAMILTONIAN, da, db, zero, zero)

    if spec.model_id == MODIFIED_PARAMETRIC:
        w = w0

        def a(t):
            return 0.5 * w * math.tanh(lam * t + dlt) ** 2

        def b(t):
            return 0.5 * w / math.tanh(lam * t + dlt) ** 2

        def cd(t):
            return lam / math.sinh(2.0 * (lam * t + dlt))

        def da(t):
            u = lam * t + dlt
            return w * lam * math.tanh(u) / math.cosh(u) ** 2

        def db(t):
            u = lam * t + dlt
            return -w * lam / (math.tanh(u) ** 3 * math.cosh(u) ** 2)

        def dcd(t):
            u = 2.0 * (lam * t + dlt)
            return -2.0 * lam ** 2 * math.cosh(u) / math.sinh(u) ** 2

        # tanh(lam t + delta) vanishes at t = -delta / lam
        return TimeCoefficients(a, b, cd, cd, HAMILTONIAN, da, db, dcd, dcd,
                                t_singular=-dlt / lam if lam else math.nan)

    if spec.model_id == PARAMETRIC_SECH2:
        w = w0

        def b(t):
            return 0.5 * (w ** 2 + 2.0 * lam ** 2 / math.cosh(lam * t) ** 2)

        def db(t):
            return -2.0 * lam ** 3 * math.tanh(lam * t) / math.cosh(lam * t) ** 2

        return TimeCoefficients(lambda t: 0.5, b, zero, zero, HAMILTONIAN,
                                zero, db, zero, zero)

    if spec.model_id == SIMPLE_HARMONIC:
        half_w0 = 0.5 * w0
        return TimeCoefficients(lambda t: half_w0, lambda t: half_w0, zero, zero,
                                HAMILTONIAN, zero, zero, zero, zero)

    if spec.model_id == FREE_PARTICLE:
        return TimeCoefficients(lambda t: 0.5, zero, zero, zero, HAMILTONIAN,
                                zero, zero, zero, zero)

    raise InvalidModelParams(f"unknown model {spec.model_id!r}")


def builtin_coefficients(spec: ModelSpec,
                         convention: str = HAMILTONIAN) -> TimeCoefficients:
    """Coefficient functions of a built-in model in the requested convention."""
    spec.validate()
    tc = _hamiltonian_form(spec)
    return convert_convention(tc, convention)


def cj_scaled_coefficients(spec: ModelSpec) -> TimeCoefficients:
    """Frequency-rescaled variant of the hyperbolically damped oscillator,
    ``H = (omega0/2)(sech^2(lam t) p^2 + cosh^2(lam t) x^2)``.

    This scaling (rather than the plain unit-mass form of the catalog entry)
    is the one whose closed-form invariant and second-moment solution are
    implemented in :mod:`quadham.invariants` and :mod:`quadham.dynamics`.
    The two coincide when ``omega0 = 1``.
    """
    if spec.model_id not in (CJ_COORDINATE, CJ_MOMENTUM):
        raise InvalidModelParams("frequency-rescaled form exists only for the "
                                 "hyperbolically damped models",
                                 model=spec.model_id)
    spec.validate()
    w0, lam = spec.omega0, spec.lam
    zero = lambda t: 0.0
    a = lambda t: 0.5 * w0 / math.cosh(lam * t) ** 2
    b = lambda t: 0.5 * w0 * math.cosh(lam * t) ** 2
    da = lambda t: -w0 * lam * math.tanh(lam * t) / math.cosh(lam * t) ** 2
    db = lambda t: 0.5 * w0 * lam * math.sinh(2.0 * lam * t)
    if spec.model_id == CJ_MOMENTUM:
        a, b, da, db = b, a, db, da
    return TimeCoefficients(a, b, zero, zero, HAMILTONIAN, da, db, zero, zero)


def convert_convention(tc: TimeCoefficients, target: str) -> TimeCoefficients:
    """Map coefficients between the two conventions; a round trip is exact."""
    if target not in (EQUATION, HAMILTONIAN):
        raise ConventionMismatch(f"unknown convention {target!r}")
    if tc.convention == target:
        return tc
    c, d, dc, dd = tc.c, tc.d, tc.dc, tc.dd
    if target == EQUATION:
        new_c = lambda t: c(t) + d(t)
        new_d = c
        new_dc = (lambda t: dc(t) + dd(t)) if (dc and dd) else None
        new_dd = dc
    else:
        new_c = d
        new_d = lambda t: c(t) - d(t)
        new_dc = dd
        new_dd = (lambda t: dc(t) - dd(t)) if (dc and dd) else None
    return replace(tc, c=new_c, d=new_d, convention=target, dc=new_dc, dd=new_dd)

