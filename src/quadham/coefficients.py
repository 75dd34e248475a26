"""Coefficient functions of quadratic Hamiltonians, and ``ModelSpec``, which
selects a built-in model, checks its parameters once, when it is built, and
looks up its record in :mod:`quadham.models`.

Every numerical layer reads H's own coefficients, ``H = a p^2 + b x^2 +
c px + d xp``.  The "equation" tag is an input form only: its (a, b, c, d)
are those of ``i psi_t = -a psi_xx + b x^2 psi - i (c x psi_x + d psi)``,
``c_eq = c + d`` and ``d_eq = c``.  Each entry that takes raw coefficients
maps them once with ``convert_convention(tc, HAMILTONIAN)``, the identity
on H's own, so either tag gives the same answer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Callable, Optional

from .errors import (ConventionMismatch, InvalidModelParams, NoClosedForm,
                     SingularCoefficient)
# the model ids are re-exported for the callers of this module
from .models import (CALDIROLA_KANAI, CJ_COORDINATE, CJ_MOMENTUM,  # noqa: F401
                     FREE_PARTICLE, MODEL_IDS, MODELS, MODIFIED_CK,
                     MODIFIED_OSCILLATOR, MODIFIED_PARAMETRIC,
                     PARAMETRIC_SECH2, SIMPLE_HARMONIC, UNITED, Model)

EQUATION = "equation"
HAMILTONIAN = "hamiltonian"


@dataclass(frozen=True)
class TimeCoefficients:
    """The four real coefficient functions of a quadratic Hamiltonian and
    the derivatives a', c' and d'.  Only the invariants read the
    derivatives, and they refuse coefficients without them; nothing takes a
    finite difference.  Instances are immutable and safe to share between
    threads.
    """

    a: Callable[[float], float]
    b: Callable[[float], float]
    c: Callable[[float], float]
    d: Callable[[float], float]
    convention: str = HAMILTONIAN
    da: Optional[Callable[[float], float]] = None
    # Kept only because the benchmark's tracer (quadbench/tracing.py,
    # _CALLBACKS) reads it; no record sets a b' and nothing here reads one.
    db: Optional[Callable[[float], float]] = None
    dc: Optional[Callable[[float], float]] = None
    dd: Optional[Callable[[float], float]] = None
    t_max: float = math.inf
    # a time where the coefficients are infinite; nan when there is none
    t_singular: float = math.nan

    def __post_init__(self):
        if self.convention not in (EQUATION, HAMILTONIAN):
            raise ConventionMismatch(f"unknown convention {self.convention!r}")

    def require_window(self, t_end: float) -> None:
        """Refuse a window from 0 to t_end that reaches t_singular, at once;
        a solve into it ends in ToleranceNotMet after its step budget."""
        if min(0.0, t_end) <= self.t_singular <= max(0.0, t_end):
            raise SingularCoefficient(
                "the window reaches a singularity of the coefficients",
                t_end=t_end, t_singular=self.t_singular)


@dataclass(frozen=True)
class ModelSpec:
    """Parameters selecting one of the built-in models, checked once, when
    the spec is built: an unknown id, a parameter that is not finite and
    the record's ``problem`` raise InvalidModelParams, so a spec that exists
    is valid.

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

    @cached_property
    def model(self) -> Model:
        """The model's record at these parameters (see quadham.models)."""
        build = MODELS.get(self.model_id)
        if build is None:
            raise InvalidModelParams(f"unknown model {self.model_id!r}")
        return build(self.omega0, self.lam, self.mu_param, self.delta)

    def __post_init__(self):
        model = self.model  # refuses an unknown id
        if not all(math.isfinite(v) for v in
                   (self.omega0, self.lam, self.mu_param, self.delta)):
            raise InvalidModelParams("model parameters must be finite",
                                     model=self.model_id)
        if model.problem is not None:
            raise InvalidModelParams(model.problem, model=self.model_id)

    def closed_form(self, name: str):
        """The printed closed form ``name`` of the model (an attribute of
        :class:`quadham.models.Model`)."""
        form = getattr(self.model, name)
        if form is None:
            raise NoClosedForm(f"no closed-form {name} for {self.model_id!r}")
        return form


def model_coefficients(model: Model, hamiltonian) -> TimeCoefficients:
    """Hamiltonian-convention coefficients from a record's
    (a, b, c, d, da, dc, dd) and its limits."""
    a, b, c, d, da, dc, dd = hamiltonian
    return TimeCoefficients(a, b, c, d, da=da, dc=dc, dd=dd,
                            t_max=model.t_max, t_singular=model.t_singular)


def builtin_coefficients(spec: ModelSpec,
                         convention: str = HAMILTONIAN) -> TimeCoefficients:
    """Coefficient functions of a built-in model in the requested convention."""
    return convert_convention(
        model_coefficients(spec.model, spec.model.hamiltonian), convention)


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

