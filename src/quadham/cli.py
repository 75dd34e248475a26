"""Command-line front end: model selection, sweeps, verification, export.

Exit codes: 0 success, 2 validation error, 3 numerical failure.  Failures
emit a one-line JSON record naming the originating module and error code;
a malformed command line is a validation error too.  An option's value may
be a negative number in any form ``float`` reads (``--pxxp -1e-05``).

The import loads ``argparse``, ``quadham.io`` and ``quadham.errors`` and
builds no parser.  Each subcommand imports the modules it runs inside its
own function, so that a call pays only for what it uses: ``list-models``
reads ``quadham.models`` alone, the model subcommands load
``quadham.coefficients`` (and with it ``dataclasses``), and ``mu`` and
``kernel`` load no moment dynamics.  A call builds the parser of its own
subcommand only; ``--help``, no command or an unknown one gets all ten, so
the usage and the error records read the same.  The classical flow,
everything built on it and the Gaussian propagator are plain float
arithmetic, so no subcommand loads numpy; only the grid functions of the
propagator and ``gridsim`` do.  The standard library goes the same way:
``json`` loads for ``green``, ``invariant``, ``list-models --json`` and an
error record, ``csv`` for the subcommands that write a table, and
``traceback`` only for an error record.

``main`` flushes stdout in ``quadham.io`` as the last step of a call, so
that a closed pipe, met by a long write or by that flush, ends in one
error record naming ``quadham.io``, with exit 2.  Run as ``python -m
quadham.cli``, the process then ends with ``os._exit``, which skips the
interpreter's teardown.  That is safe while every output is flushed,
every ``--out`` file is closed by its ``with`` block, and nothing in the
package registers an ``atexit`` handler or starts a thread.  Callers of
``main`` in-process keep the normal exit.
"""

import argparse
import functools
import math
import os
import sys

from . import io as qio
from .errors import QuadhamError, ValidationError

def _add_model_args(p):
    p.add_argument("--model", help="model id (see list-models)")
    p.add_argument("--omega0", type=float, default=None)
    p.add_argument("--lambda", dest="lam", type=float, default=None)
    p.add_argument("--mu-param", type=float, default=None)
    p.add_argument("--delta", type=float, default=None)
    p.add_argument("--config", help="key=value config file; flags override")


def _spec_from(args):
    from .coefficients import ModelSpec

    cfg = {}
    if getattr(args, "config", None):
        cfg = qio.read_config(args.config).get("model", {})

    def pick(flag, key, default):
        if flag is not None:
            return flag
        if key in cfg:
            return float(cfg[key])
        return default

    model = args.model or cfg.get("model")
    if not model:
        raise ValidationError("no model given (use --model or a config "
                              "[model] section)")
    return ModelSpec(
        model_id=model,
        omega0=pick(args.omega0, "omega0", 1.0),
        lam=pick(args.lam, "lambda", 0.0),
        mu_param=pick(args.mu_param, "mu_param", 0.0),
        delta=pick(args.delta, "delta", 0.0))


def _linspace(start, stop, num):
    """``num`` evenly spaced floats from start to stop, both included; the
    values of ``numpy.linspace`` without loading numpy."""
    if num == 1:
        return [start]
    step = (stop - start) / (num - 1)
    return [start + i * step for i in range(num - 1)] + [stop]


def _sample_times(flow, t_end, samples):
    """Sample times in (0, t_end] short of the first caustic of ``flow``."""
    caustic = flow.first_caustic
    hi = t_end if caustic is None else min(t_end, 0.9 * caustic[0])
    return _linspace(hi / samples, hi, samples)


def cmd_list_models(args):
    from .models import MODELS

    # each record at the default parameters of ModelSpec
    records = ((m, build(1.0, 0.0, 0.0, 0.0)) for m, build in MODELS.items())
    rows = [(m, r.parameters, r.constraint) for m, r in records]
    if args.json:
        qio.write_json(args.out, [
            {"model": m, "parameters": p, "constraint": c}
            for m, p, c in rows])
    else:
        qio.write_csv(args.out, ["model", "parameters", "constraint"], rows)
    return 0


def cmd_mu(args):
    from . import characteristic as chr_mod, coefficients as coeff

    spec = _spec_from(args)
    tc = coeff.builtin_coefficients(spec)
    path = chr_mod.solve_characteristic(tc, args.t_end)
    ts = _linspace(args.t_end / args.samples, args.t_end, args.samples)
    rows = [(t, path.mu(t), path.mu_prime(t)) for t in ts]
    qio.write_csv(args.out, ["t", "mu", "mu_prime"], rows)
    return 0


def cmd_kernel(args):
    from . import characteristic as chr_mod, coefficients as coeff

    spec = _spec_from(args)
    tc = coeff.builtin_coefficients(spec)
    path = chr_mod.solve_characteristic(tc, args.t_end)
    ts = _sample_times(path, args.t_end, args.samples)
    # one column per field: t, mu, mu_prime, h, alpha, beta, gamma
    rows = [chr_mod.kernel_parameters(tc, path, t) for t in ts]
    qio.write_csv(args.out, chr_mod.KernelParameters._fields, rows)
    return 0


def cmd_green(args):
    from . import (characteristic as chr_mod, coefficients as coeff,
                   propagator as prop)

    spec = _spec_from(args)
    tc = coeff.builtin_coefficients(spec)
    path = chr_mod.solve_characteristic(tc, args.t)
    kp = chr_mod.kernel_parameters(tc, path, args.t)
    g = prop.green_eval(kp, args.x, args.y)
    qio.write_json(args.out, {"model": spec.model_id, "t": args.t,
                              "x": args.x, "y": args.y,
                              "re": g.real, "im": g.imag})
    return 0


def cmd_propagate(args):
    from . import (characteristic as chr_mod, coefficients as coeff,
                   propagator as prop)

    spec = _spec_from(args)
    tc = coeff.builtin_coefficients(spec)
    s0 = prop.GaussianState(
        Lambda=complex(args.lambda_re, args.lambda_im),
        Theta=complex(args.theta_re, args.theta_im))
    path = chr_mod.solve_characteristic(tc, args.t_end)
    ts = _sample_times(path, args.t_end, args.samples)
    rows = []
    for t, s in zip(ts, prop.gaussian_sweep(
            lambda t: chr_mod.kernel_parameters(tc, path, t), ts, s0)):
        m = s.moments()
        rows.append((t, s.Lambda.real, s.Lambda.imag, s.Theta.real,
                     s.Theta.imag, s.Phi.real, s.Phi.imag,
                     m["norm"], m["x"], m["p"]))
    qio.write_csv(args.out, ["t", "lambda_re", "lambda_im", "theta_re",
                             "theta_im", "phi_re", "phi_im",
                             "norm", "x_mean", "p_mean"], rows)
    return 0


def cmd_moments(args):
    from . import (characteristic as chr_mod, coefficients as coeff,
                   dynamics as dyn)

    spec = _spec_from(args)
    tc = coeff.builtin_coefficients(spec)
    m0 = dyn.SecondMoments(p2=args.p2, x2=args.x2, pxxp=args.pxxp)
    path = dyn.evolve_second_moments(
        chr_mod.classical_flow(tc, args.t_end), m0)
    rows = [(t, *((m := path(t)).p2, m.x2, m.pxxp, m.norm))
            for t in _linspace(0.0, args.t_end, args.samples)]
    qio.write_csv(args.out, ["t", "p2", "x2", "pxxp", "norm"], rows)
    return 0


def _invariant_drift(spec, m0, t_end, t_start, samples):
    """E(0) of the catalogued invariant E and max |E(t) - E(0)| / |E(0)|
    over t in linspace(t_start, t_end, samples), E(t) from the second
    moments flowed from m0."""
    from . import characteristic as chr_mod, dynamics as dyn, invariants as inv

    def pairs():
        yield inv.energy_operator_catalog(spec, 0.0), m0
        # solved only once E(0) has passed the cancellation check
        path = dyn.evolve_second_moments(
            chr_mod.classical_flow(inv.catalog_coefficients(spec), t_end), m0)
        for t in _linspace(t_start, t_end, samples):
            yield inv.energy_operator_catalog(spec, t), path(t)

    return inv._expectation_drift(pairs(), 1e-8)


def cmd_invariant(args):
    from . import dynamics as dyn

    spec = _spec_from(args)
    m0 = dyn.SecondMoments(p2=args.p2, x2=args.x2, pxxp=args.pxxp)
    ref, drift = _invariant_drift(spec, m0, args.t_end,
                                  args.t_end / args.samples, args.samples)
    qio.write_json(args.out, {"model": spec.model_id, "t_end": args.t_end,
                              "reference": ref, "drift": drift})
    return 0


def cmd_appendix_d(args):
    from . import dynamics as dyn

    hb = dyn.HyperbolicBasis(lam=args.lam_d, omega=args.omega_d,
                             gamma=args.gamma_shift)
    rows = [(t, hb.y1(t), hb.y2(t), hb.y_particular(t), hb.z1(t), hb.z2(t))
            for t in _linspace(args.t_start, args.t_end, args.samples)]
    qio.write_csv(args.out, ["t", "y1", "y2", "y_particular", "z1", "z2"],
                  rows)
    return 0


def _uncertainty(flow, m0, f0, t_end, samples):
    """(t, uncertainty_check) of the moments flowed on ``flow`` from
    (m0, f0) at each t in linspace(0, t_end, samples)."""
    from . import dynamics as dyn

    mpath = dyn.evolve_second_moments(flow, m0)
    fpath = dyn.evolve_first_moments(flow, f0)
    return [(t, dyn.uncertainty_check(mpath(t), fpath(t)))
            for t in _linspace(0.0, t_end, samples)]


def cmd_uncertainty(args):
    from . import (characteristic as chr_mod, coefficients as coeff,
                   dynamics as dyn)

    spec = _spec_from(args)
    m0 = dyn.SecondMoments(p2=args.p2, x2=args.x2, pxxp=args.pxxp)
    f0 = dyn.FirstMoments(x=args.x_mean, p=args.p_mean)
    flow = chr_mod.classical_flow(coeff.builtin_coefficients(spec),
                                  args.t_end)
    rows = [(t, u["dp2"], u["dx2"], u["margin"], u["excess"])
            for t, u in _uncertainty(flow, m0, f0, args.t_end, args.samples)]
    qio.write_csv(args.out, ["t", "dp2", "dx2", "margin", "excess"], rows)
    return 0


def _verify_one(model_id: str, budget: str):
    """Quick per-model verification; returns (name, passed, detail)."""
    from . import (characteristic as chr_mod, coefficients as coeff,
                   dynamics as dyn)

    spec = coeff.ModelSpec(model_id, omega0=1.3, lam=0.35, mu_param=0.1,
                           delta=0.6)
    checks = []
    tc = coeff.builtin_coefficients(spec)
    # one flow for the kernel on (0, 1.2] and the moments on [0, 1.5]
    flow = chr_mod.solve_characteristic(tc, 1.5)
    n_kernel = 5 if budget == "quick" else 20
    worst = 0.0
    for t in _sample_times(flow, 1.2, n_kernel):
        kp = chr_mod.kernel_parameters(tc, flow, t)
        ref = chr_mod.closed_form_kernel(spec, t)
        for got, exp in ((kp.alpha, ref.alpha), (kp.beta, ref.beta),
                         (kp.gamma, ref.gamma)):
            worst = max(worst, abs(got - exp) / max(1.0, abs(exp)))
    checks.append(("kernel", worst <= 1e-7, f"max rel err {worst:.2e}"))

    _, drift = _invariant_drift(
        spec, dyn.SecondMoments(p2=1.1, x2=0.9, pxxp=0.2), 1.5, 0.1, 8)
    checks.append(("invariant", drift <= 1e-8, f"drift {drift:.2e}"))

    # coherent initial data: variances 1/2, zero covariance
    worst_m = min(u["margin"] for _, u in _uncertainty(
        flow, dyn.SecondMoments(p2=0.54, x2=0.51, pxxp=0.04),
        dyn.FirstMoments(0.1, 0.2), 1.5, 10))
    checks.append(("uncertainty", worst_m >= -1e-10,
                   f"min margin {worst_m:.2e}"))
    return [(f"{name} {model_id}", ok, detail) for name, ok, detail in checks]


def cmd_verify_all(args):
    from .models import MODEL_IDS

    models = MODEL_IDS if args.model in (None, "all") else [args.model]
    results = [r for m in models for r in _verify_one(m, args.budget)]
    for name, ok, detail in results:
        print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
    return 0 if all(ok for _, ok, _ in results) else 3


class _Parser(argparse.ArgumentParser):
    """An argument error is a ValidationError, so that it ends in the JSON
    record and exit 2 like any other refused input."""

    def error(self, message):
        raise ValidationError(f"{self.prog}: {message}")


def _is_float(text) -> bool:
    try:
        float(text)
    except ValueError:
        return False
    return True


def _join_negatives(argv):
    """argv with each option followed by a negative number joined to it as
    ``--flag=value``: argparse takes "-1e-05" or "-inf" for an option."""
    out = []
    for arg in argv:
        if (out and out[-1].startswith("--") and "=" not in out[-1]
                and arg.startswith("-") and _is_float(arg)):
            out[-1] = f"{out[-1]}={arg}"
        else:
            out.append(arg)
    return out


def _number(p, flag, **kw):
    """A float option that _check_args requires finite."""
    p.get_default("finite")[flag] = p.add_argument(
        flag, type=float, **kw).dest


def _window_options(p, samples):
    _add_model_args(p)
    p.add_argument("--t-end", type=float, required=True)
    p.add_argument("--samples", type=int, default=samples)


def _green_options(p):
    _add_model_args(p)
    p.add_argument("--t", type=float, required=True)
    _number(p, "--x", required=True)
    _number(p, "--y", required=True)


def _propagate_options(p):
    _window_options(p, 20)
    for flag, default in (("--lambda-re", 0.0), ("--lambda-im", 0.5),
                          ("--theta-re", 0.0), ("--theta-im", 0.0)):
        _number(p, flag, default=default)


def _moment_options(p):
    _window_options(p, 50)
    for flag, default in (("--p2", 1.0), ("--x2", 1.0), ("--pxxp", 0.0)):
        _number(p, flag, default=default)


def _uncertainty_options(p):
    _moment_options(p)
    _number(p, "--x-mean", default=0.0)
    _number(p, "--p-mean", default=0.0)


def _appendix_d_options(p):
    _number(p, "--lambda", dest="lam_d", required=True)
    _number(p, "--omega", dest="omega_d", required=True)
    _number(p, "--gamma-shift", default=0.0)
    _number(p, "--t-start", default=0.05)
    _number(p, "--t-end", required=True)
    p.add_argument("--samples", type=int, default=50)


def _verify_all_options(p):
    p.add_argument("--model", default="all")
    p.add_argument("--budget", choices=("quick", "full"), default="quick")


# each subcommand's options, in the order the usage lists them; the
# subcommand runs cmd_<name>, "-" read as "_"
_SUBCOMMANDS = {
    "list-models": lambda p: p.add_argument("--json", action="store_true"),
    "mu": lambda p: _window_options(p, 50),
    "kernel": lambda p: _window_options(p, 20),
    "green": _green_options, "propagate": _propagate_options,
    "moments": _moment_options, "invariant": _moment_options,
    "uncertainty": _uncertainty_options, "appendix_d": _appendix_d_options,
    "verify_all": _verify_all_options}


@functools.cache
def _build_parser(command=None):
    """The parser with the subparser of ``command`` alone, or of all ten
    when it is None; built once per process for each ``command``."""
    ap = _Parser(
        prog="quadham",
        description="Numerical toolkit for variable quadratic quantum "
                    "Hamiltonians")
    sub = ap.add_subparsers(dest="command", required=True)
    for name in (command,) if command else _SUBCOMMANDS:
        p = sub.add_parser(name)
        # the function is looked up now, not at import, so that a wrapper
        # set on this module in between is the one that runs
        p.set_defaults(fn=globals()["cmd_" + name.replace("-", "_")],
                       finite={})
        p.add_argument("--out", default=None,
                       help="output path (default: stdout)")
        _SUBCOMMANDS[name](p)
    return ap


def _check_args(args):
    """Argument ranges argparse cannot express; refused before any work."""
    if getattr(args, "samples", 1) < 1:
        raise ValidationError("--samples must be at least 1",
                              samples=args.samples)
    if not (getattr(args, "t_start", 1.0) > 0):
        raise ValidationError("--t-start must be positive",
                              t_start=args.t_start)
    for flag, dest in args.finite.items():
        if not math.isfinite(value := getattr(args, dest)):
            raise ValidationError(f"{flag} must be finite", option=flag,
                                  value=value)


def _jsonable(value):
    """Strict JSON form of an error-info value: a non-finite number as
    "nan", "inf" or "-inf", a complex one as [re, im], and what json cannot
    write as its repr."""
    if isinstance(value, complex):
        value = [value.real, value.imag]
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, float) and not math.isfinite(value):
        return str(float(value))
    if value is None or isinstance(value, (str, int, float)):
        return value
    return repr(value)


def _failing_module(exc) -> str:
    import traceback

    mod = "quadham"
    for frame, _ in traceback.walk_tb(exc.__traceback__):
        # under `python -m quadham.cli` the CLI's __name__ is __main__;
        # its __spec__ still carries the module's real name
        spec = frame.f_globals.get("__spec__")
        name = spec.name if spec else frame.f_globals.get("__name__", "")
        if name.startswith("quadham"):
            mod = name
    return mod


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        argv = _join_negatives(argv)
        try:
            named = argv[0] if argv and argv[0] in _SUBCOMMANDS else None
            args = _build_parser(named).parse_args(argv)
        except SystemExit:
            # --help has written the usage: flush it here too, as below
            qio.flush_stdout()
            raise
        _check_args(args)
        code = args.fn(args)
        # a failed flush (a closed pipe) is a failed write: it ends in the
        # record below, not at interpreter exit
        qio.flush_stdout()
    except (QuadhamError, ValueError, OSError, ArithmeticError) as exc:
        import json

        # overflow or a division by zero in the model's formulas is a
        # numerical failure of the inputs, not a crash
        typed = isinstance(exc, QuadhamError)
        validation = isinstance(exc, (ValidationError, ValueError, OSError))
        record = {"error": exc.code if typed else
                  "validation" if validation else "numerical",
                  "type": type(exc).__name__,
                  "module": _failing_module(exc), "message": str(exc),
                  "info": {k: _jsonable(v)
                           for k, v in (exc.info if typed else {}).items()}}
        print(json.dumps(record, allow_nan=False), file=sys.stderr)
        return 2 if validation else 3
    return code


if __name__ == "__main__":
    code = main()
    sys.stderr.flush()
    # End without interpreter teardown.  Safe because main has flushed
    # stdout, stderr is flushed above, every --out file is closed by its
    # ``with`` block, and nothing in the package registers ``atexit``
    # handlers or starts a thread.  An uncaught exception, and argparse's
    # SystemExit for --help (after main's flush), leave through the normal
    # teardown.
    os._exit(code)
