"""The built-in models' records at 40 digits: the tests' oracle of the
closed forms, and their source of a', c' and d', which the records do not
carry.

``MODELS`` holds the builders of ``quadham/models.py`` run from the
module's own source, unchanged, with ``math`` bound to the mpmath
functions and constants of the names the module reads (``MATH_NAMES``;
an AST test pins the list) and ``InvalidMoments`` stubbed.  They run in a
private mpmath context, ``ctx``, at 40 digits, so that importing or using
this module neither reads nor sets the precision of ``mpmath.mp``.  A
record built from exact mpmath parameters takes and returns mpmath
numbers, and ``ctx.diff`` of one of its callables is the derivative of
the printed formula to 40 digits.
"""

import builtins
import dataclasses
import types

import mpmath

import quadham.models
from quadham.coefficients import builtin_coefficients, catalog_coefficients

ctx = mpmath.MPContext()
ctx.dps = 40
# every name of math that models.py reads
MATH_NAMES = ("cos", "cosh", "exp", "sin", "sinh", "sqrt", "tan", "tanh",
              "pi", "inf", "nan")


class InvalidMoments(Exception):
    """The stand-in for ``quadham.errors.InvalidMoments``, raised with the
    same message and keywords."""

    def __init__(self, message, **info):
        super().__init__(message)
        self.info = info


def _load():
    """The model builders of models.py's source, whose imports of math and
    of .errors are answered by the shim and the stub."""
    shim = types.SimpleNamespace(**{name: getattr(ctx, name)
                                    for name in MATH_NAMES})
    modules = {("math", 0): shim,
               ("errors", 1): types.SimpleNamespace(
                   InvalidMoments=InvalidMoments)}

    def answer(name, globals=None, locals=None, fromlist=(), level=0):
        return modules[name, level]

    path = quadham.models.__file__
    with open(path) as f:
        code = compile(f.read(), path, "exec")
    namespace = {"__name__": "oracle40.models",
                 "__builtins__": {**vars(builtins), "__import__": answer}}
    exec(code, namespace)
    return namespace["MODELS"]


MODELS = _load()


def record(spec):
    """The 40-digit record of ``spec``'s model at its parameters, each
    read as the exact value of its float."""
    return MODELS[spec.model_id](*map(ctx.mpf, (
        spec.omega0, spec.lam, spec.mu_param, spec.delta)))


def coefficients(spec, catalog=False):
    """H's record of ``spec`` as the package builds it, or with
    ``catalog`` the record of its invariant's H, with a', c' and d' the
    40-digit derivatives of the printed a, c and d, rounded to floats."""
    rec = record(spec)
    a, _, c, d = rec.invariant_hamiltonian if catalog else rec.hamiltonian
    da, dc, dd = (lambda t, f=f: float(ctx.diff(f, ctx.mpf(t)))
                  for f in (a, c, d))
    build = catalog_coefficients if catalog else builtin_coefficients
    return dataclasses.replace(build(spec), da=da, dc=dc, dd=dd)
