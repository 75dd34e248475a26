"""Coefficient functions of quadratic Hamiltonians, and ``ModelSpec``, which
selects a built-in model, checks its parameters once, when it is built, and
looks up its record in :mod:`quadham.models`.

A record holds H's own coefficients, ``H = a p^2 + b x^2 + c px + d xp``,
and every numerical layer reads them as they are.  The paper writes the
evolution equation as
``i psi_t = -a psi_xx + b x^2 psi - i (c_eq x psi_x + d_eq psi)``; a caller
holding that form's coefficients passes ``c = d_eq`` and
``d = c_eq - d_eq`` (and likewise for the derivatives).
"""

from __future__ import annotations

import math
from dataclasses import KW_ONLY, dataclass
from functools import cached_property
from typing import Callable, Optional

from .errors import (ConventionMismatch, InvalidModelParams, NoClosedForm,
                     NumericalError, SingularCoefficient)
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
    _: KW_ONLY
    da: Optional[Callable[[float], float]] = None
    # Kept only because the benchmark's tracer (quadbench/tracing.py,
    # _CALLBACKS) reads it; no record sets a b' and nothing here reads one.
    db: Optional[Callable[[float], float]] = None
    dc: Optional[Callable[[float], float]] = None
    dd: Optional[Callable[[float], float]] = None
    t_max: float = math.inf
    # a time where the coefficients are infinite; nan when there is none
    t_singular: float = math.nan

    def require_window(self, t0: float, t_end: float) -> None:
        """Refuse a window from t0 to t_end that reaches t_singular, at once;
        a flow into it would crawl, a CN run would step across it."""
        if min(t0, t_end) <= self.t_singular <= max(t0, t_end):
            raise SingularCoefficient(
                "the window reaches a singularity of the coefficients",
                t_end=t_end, t_singular=self.t_singular)


@dataclass(frozen=True)
class ModelSpec:
    """Parameters selecting one of the built-in models, checked once, when
    the spec is built: an unknown id, a parameter that is not finite, a
    record whose formulas raise ArithmeticError or ValueError at the
    parameters (an overflow, a square root of a negative number) and the
    record's ``problem`` raise InvalidModelParams, so a spec that exists
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
        try:
            return build(self.omega0, self.lam, self.mu_param, self.delta)
        except (ArithmeticError, ValueError) as exc:
            raise InvalidModelParams("the model's formulas fail at these "
                                     "parameters", model=self.model_id,
                                     error=repr(exc)) from exc

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
        :class:`quadham.models.Model`).  A form that is a function raises
        NumericalError, naming the model and t, where its formula raises
        ArithmeticError or ValueError; t is its last argument, and 0 for
        ``mean_start``.  A constant (``invariant_c0``) is returned as is."""
        form = getattr(self.model, name)
        if form is None:
            raise NoClosedForm(f"no closed-form {name} for {self.model_id!r}")
        if not callable(form):
            return form

        def checked(*args):
            try:
                return form(*args)
            except (ArithmeticError, ValueError) as exc:
                t = 0.0 if name == "mean_start" else args[-1]
                raise NumericalError(f"the closed-form {name} fails at t",
                                     model=self.model_id, t=t,
                                     error=repr(exc)) from exc

        return checked


def model_coefficients(model: Model, hamiltonian) -> TimeCoefficients:
    """H's record from a model's (a, b, c, d, da, dc, dd) and its limits."""
    a, b, c, d, da, dc, dd = hamiltonian
    return TimeCoefficients(a, b, c, d, da=da, dc=dc, dd=dd,
                            t_max=model.t_max, t_singular=model.t_singular)


def builtin_coefficients(spec: ModelSpec,
                         convention: str = HAMILTONIAN) -> TimeCoefficients:
    """H's own coefficient functions of a built-in model, for either tag."""
    return convert_convention(
        model_coefficients(spec.model, spec.model.hamiltonian), convention)


def catalog_coefficients(spec: ModelSpec) -> TimeCoefficients:
    """Hamiltonian of the catalogued invariant and the expectation curve."""
    return model_coefficients(spec.model, spec.model.invariant_hamiltonian)


def convert_convention(tc: TimeCoefficients, target: str) -> TimeCoefficients:
    """``tc`` itself; ConventionMismatch for an unknown ``target``."""
    if target not in (EQUATION, HAMILTONIAN):
        raise ConventionMismatch(f"unknown convention {target!r}")
    return tc
