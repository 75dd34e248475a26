"""Numerical toolkit for time-dependent quadratic quantum Hamiltonians.

Closed-form propagator kernels, dynamical invariants, expectation-value
dynamics, and a Crank-Nicolson grid oracle for one-dimensional variable
quadratic Hamiltonians H = a(t) p^2 + b(t) x^2 + c(t) px + d(t) xp.

The public names below are loaded on first use (PEP 562), so that
``import quadham`` or a CLI subcommand pays only for the submodules it
touches; ``quadham.errors`` is always loaded.
"""

from importlib import import_module

from . import errors

__version__ = "0.1.0"

# submodule -> the public names it provides at the package level
_EXPORTS = {
    "coefficients": ("EQUATION", "HAMILTONIAN", "MODEL_IDS", "ModelSpec",
                     "TimeCoefficients", "builtin_coefficients",
                     "convert_convention"),
    "models": (),
    "ode": (),
    "characteristic": ("Flow", "KernelParameters", "classical_flow",
                       "closed_form_kernel", "closed_form_mu",
                       "kernel_parameters", "solve_characteristic"),
    "propagator": ("GaussianState", "GridState", "gaussian_sweep",
                   "green_eval", "propagate_gaussian", "propagate_grid",
                   "schrodinger_residual"),
    "invariants": ("LadderPair", "LinearForm", "QuadraticForm",
                   "energy_operator_catalog", "general_invariant",
                   "ladder_factorization", "linear_invariant",
                   "solve_energy_system", "solve_ermakov"),
    "dynamics": ("FirstMoments", "HyperbolicBasis", "SecondMoments",
                 "closed_form_expectation", "evolve_first_moments",
                 "evolve_second_moments", "uncertainty_check"),
}
_HOME = {name: module for module, names in _EXPORTS.items()
         for name in names}

__all__ = ["errors", *_EXPORTS, *_HOME]


def __getattr__(name):
    if name in _EXPORTS:
        return import_module(f".{name}", __name__)
    if name in _HOME:
        return getattr(import_module(f".{_HOME[name]}", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__})
