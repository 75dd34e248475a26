"""Numerical toolkit for time-dependent quadratic quantum Hamiltonians.

Closed-form propagator kernels, dynamical invariants, expectation-value
dynamics, and a Crank-Nicolson grid oracle for one-dimensional variable
quadratic Hamiltonians H = a(t) p^2 + b(t) x^2 + c(t) px + d(t) xp.

Each public name lives in one submodule and is read from there, as in
``from quadham import characteristic`` and
``characteristic.classical_flow``.  The submodules are loaded on first use
(PEP 562), so that ``import quadham`` or a CLI subcommand pays only for
the ones it touches; ``quadham.errors`` is always loaded.  This is the
package's one lazy loader: ``quadham.cli`` and ``quadham.dynamics`` read
the other submodules through it (``quadham.coefficients.ModelSpec``) at
call time and import none of them inside a function.
"""

import importlib

from . import errors

__version__ = "0.1.0"

__all__ = ["errors", "coefficients", "models", "ode", "characteristic",
           "propagator", "invariants", "dynamics"]


def __getattr__(name):
    if name in __all__:
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__})
