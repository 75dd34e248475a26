"""Command-line front end: model selection, sweeps, verification, export.

Exit codes: 0 success, 2 validation error, 3 numerical failure.  Failures
emit a one-line JSON record naming the originating module and error code;
a malformed command line is a validation error too.  An option's value may
be a negative number in any form ``float`` reads (``--pxxp -1e-05``).

The import loads ``argparse``, ``quadham.io`` and ``quadham.errors`` and
builds no parser.  Each subcommand reads the modules it runs as attributes
of the package root (``quadham.characteristic.kernel_parameters``) when it
runs, and the root's lazy loader imports a submodule on its first read, so
that a call pays only for what it uses: ``list-models`` reads
``quadham.models`` alone, the model subcommands load
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

import quadham
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
    cfg = {}
    if getattr(args, "config", None):
        cfg = qio.read_config(args.config).get("model", {})

    model = args.model or cfg.get("model")
    if not model:
        raise ValidationError("no model given (use --model or a config "
                              "[model] section)")
    # a flag overrides the file; what neither gives is ModelSpec's default
    given = {}
    for dest, key in (("omega0", "omega0"), ("lam", "lambda"),
                      ("mu_param", "mu_param"), ("delta", "delta")):
        if getattr(args, dest) is not None:
            given[dest] = getattr(args, dest)
        elif key in cfg:
            if not _is_float(cfg[key]):
                raise ValidationError("a config value is not a number",
                                      key=key, value=cfg[key])
            given[dest] = float(cfg[key])
    return quadham.coefficients.ModelSpec(model, **given)


def _kernel_flow(spec, t_end):
    """The classical flow of the kernel of ``spec``, refused by
    ``solve_characteristic`` where its window (0, t_end] is."""
    return quadham.characteristic.solve_characteristic(
        quadham.coefficients.builtin_coefficients(spec), t_end)


def _moment_start(args):
    """The second moments ``args`` gives at t = 0 about the means it gives:
    centred for ``uncertainty``, raw where a subcommand takes no means."""
    dyn = quadham.dynamics
    return dyn.SecondMoments(args.p2, args.x2, args.pxxp).centred(
        dyn.FirstMoments(getattr(args, "x_mean", 0.0),
                         getattr(args, "p_mean", 0.0)))


def _linspace(start, stop, num):
    """``num`` evenly spaced floats from start to stop, both included; the
    values of ``numpy.linspace`` without loading numpy."""
    if num == 1:
        return [start]
    step = (stop - start) / (num - 1)
    return [start + i * step for i in range(num - 1)] + [stop]


def cmd_list_models(args):
    # each record at the default parameters of ModelSpec
    records = ((m, build(1.0, 0.0, 0.0, 0.0))
               for m, build in quadham.models.MODELS.items())
    rows = [(m, r.parameters, r.constraint) for m, r in records]
    if args.json:
        qio.write_json(args.out, [
            {"model": m, "parameters": p, "constraint": c}
            for m, p, c in rows])
    else:
        qio.write_csv(args.out, ["model", "parameters", "constraint"], rows)
    return 0


def cmd_mu(args):
    path = _kernel_flow(_spec_from(args), args.t_end)
    ts = _linspace(args.t_end / args.samples, args.t_end, args.samples)
    rows = [(t, *path.mu(t)) for t in ts]
    qio.write_csv(args.out, ["t", "mu", "mu_prime"], rows)
    return 0


def cmd_kernel(args):
    chr_mod = quadham.characteristic
    path = _kernel_flow(_spec_from(args), args.t_end)
    ts = _linspace(args.t_end / args.samples, args.t_end, args.samples)
    # one column per field: t, mu, mu_prime, h, alpha, beta, gamma
    rows = [chr_mod.kernel_parameters(path.tc, path, t) for t in ts]
    qio.write_csv(args.out, chr_mod.KernelParameters._fields, rows)
    return 0


def cmd_green(args):
    spec = _spec_from(args)
    path = _kernel_flow(spec, args.t)
    kp = quadham.characteristic.kernel_parameters(path.tc, path, args.t)
    g = quadham.propagator.green_eval(kp, args.x, args.y)
    qio.write_json(args.out, {"model": spec.model_id, "t": args.t,
                              "x": args.x, "y": args.y,
                              "re": g.real, "im": g.imag})
    return 0


def cmd_propagate(args):
    chr_mod, prop = quadham.characteristic, quadham.propagator
    spec = _spec_from(args)
    s0 = prop.GaussianState(
        Lambda=complex(args.lambda_re, args.lambda_im),
        Theta=complex(args.theta_re, args.theta_im))
    path = _kernel_flow(spec, args.t_end)
    rows = []
    for t in _linspace(args.t_end / args.samples, args.t_end, args.samples):
        s = prop.propagate_gaussian(
            chr_mod.kernel_parameters(path.tc, path, t), s0)
        m = s.moments()
        rows.append((t, s.Lambda.real, s.Lambda.imag, s.Theta.real,
                     s.Theta.imag, s.Phi.real, s.Phi.imag,
                     m["norm"], m["x"], m["p"]))
    qio.write_csv(args.out, ["t", "lambda_re", "lambda_im", "theta_re",
                             "theta_im", "phi_re", "phi_im",
                             "norm", "x_mean", "p_mean"], rows)
    return 0


def cmd_moments(args):
    dyn = quadham.dynamics
    spec, m0 = _spec_from(args), _moment_start(args)
    flow = quadham.characteristic.classical_flow(
        quadham.coefficients.builtin_coefficients(spec))
    path = dyn.evolve_second_moments(flow, m0)
    ts = _linspace(0.0, args.t_end, args.samples)
    # p2, x2, pxxp and the norm 1 per unit <1>, each times <1>
    rows = [(t, *map(raw, m)) for t, (m, raw) in zip(ts, map(path, ts))]
    qio.write_csv(args.out, ["t", "p2", "x2", "pxxp", "norm"], rows)
    return 0


def _invariant_drift(spec, m0, flow, t_end, t_start, samples):
    """E(0) of the catalogued invariant E and max |E(t) - E(0)| / |E(0)|
    over t in linspace(t_start, t_end, samples), E(t) from the second
    moments flowed from m0 at <1>_0 = 1 on ``flow``, the flow of the
    invariant's H, which is read only once E(0) has passed the
    cancellation check."""
    inv, dyn = quadham.invariants, quadham.dynamics

    def pairs():
        yield inv.energy_operator_catalog(spec, 0.0), m0
        path = dyn.evolve_second_moments(flow, m0)
        for t in _linspace(t_start, t_end, samples):
            form, (m, raw) = inv.energy_operator_catalog(spec, t), path(t)
            yield form, dyn.SecondMoments(*map(raw, m))

    return inv._expectation_drift(pairs(), 1e-8)


def cmd_invariant(args):
    spec, m0 = _spec_from(args), _moment_start(args)
    flow = quadham.characteristic.classical_flow(
        quadham.coefficients.catalog_coefficients(spec))
    ref, drift = _invariant_drift(spec, m0, flow, args.t_end,
                                  args.t_end / args.samples, args.samples)
    qio.write_json(args.out, {"model": spec.model_id, "t_end": args.t_end,
                              "reference": ref, "drift": drift})
    return 0


def cmd_appendix_d(args):
    hb = quadham.dynamics.HyperbolicBasis(lam=args.lam_d, omega=args.omega_d,
                                          gamma=args.gamma_shift)
    rows = [(t, hb.y1(t), hb.y2(t), hb.y_particular(t), hb.z1(t), hb.z2(t))
            for t in _linspace(args.t_start, args.t_end, args.samples)]
    qio.write_csv(args.out, ["t", "y1", "y2", "y_particular", "z1", "z2"],
                  rows)
    return 0


def _uncertainty(flow, c0, t_end, samples):
    """(t, raw, uncertainty_check) at each t in linspace(0, t_end, samples)
    of the centred moments c0 at <1>_0 = 1 flowed on ``flow``, with no
    means; ``raw`` is the path's weight at t."""
    dyn = quadham.dynamics
    path = dyn.evolve_second_moments(flow, c0)
    ts = _linspace(0.0, t_end, samples)
    return [(t, raw, dyn.uncertainty_check(c))
            for t, (c, raw) in zip(ts, map(path, ts))]


def cmd_uncertainty(args):
    spec = _spec_from(args)
    flow = quadham.characteristic.classical_flow(
        quadham.coefficients.builtin_coefficients(spec))
    # the raw columns: variances times <1>, the margin times <1>^2
    rows = [(t, raw(u["dp2"]), raw(u["dx2"]), raw(raw(u["margin"])),
             u["excess"])
            for t, raw, u in _uncertainty(flow, _moment_start(args),
                                          args.t_end, args.samples)]
    qio.write_csv(args.out, ["t", "dp2", "dx2", "margin", "excess"], rows)
    return 0


def _max_rel_err(pairs) -> float:
    """max |got - want| / max(1, |want|) over the (got, want) pairs."""
    return max(abs(g - w) / max(1.0, abs(w)) for g, w in pairs)


def _verify_one(model_id: str, budget: str):
    """Per-model verification on H's flow and, where its H is another, the
    catalogued invariant's; yields (name, passed, detail)."""
    chr_mod, dyn, inv = (quadham.characteristic, quadham.dynamics,
                         quadham.invariants)
    spec = quadham.coefficients.ModelSpec(model_id, omega0=1.3, lam=0.35,
                                          mu_param=0.1, delta=0.6)
    # one flow for the kernel on (0, 1.2] and the moments on [0, 1.5]
    flow = chr_mod.classical_flow(
        quadham.coefficients.builtin_coefficients(spec))
    n_kernel = 5 if budget == "quick" else 20
    # alpha, beta and gamma, the last three fields
    err = _max_rel_err(z for t in _linspace(1.2 / n_kernel, 1.2, n_kernel)
                       for z in zip(chr_mod.kernel_parameters(
                           flow.tc, flow, t)[4:],
                           chr_mod.closed_form_kernel(spec, t)[4:]))
    yield f"kernel {model_id}", err <= 1e-7, f"max rel err {err:.2e}"

    cat_h = spec.model.invariant_hamiltonian  # H's own but in cj_coordinate
    cat = flow if cat_h == spec.model.hamiltonian else chr_mod.classical_flow(
        quadham.coefficients.catalog_coefficients(spec))
    _, drift = _invariant_drift(
        spec, dyn.SecondMoments(p2=1.1, x2=0.9, pxxp=0.2), cat, 1.5, 0.1, 8)
    yield f"invariant {model_id}", drift <= 1e-8, f"drift {drift:.2e}"

    # coherent initial data, centred: variances 1/2, zero covariance
    worst_m = min(u["margin"] for _, _, u in _uncertainty(
        flow, dyn.SecondMoments(p2=0.5, x2=0.5), 1.5, 10))
    yield (f"uncertainty {model_id}", worst_m >= -1e-10,
           f"min margin {worst_m:.2e}")
    if budget == "quick":
        return

    ts = _linspace(0.3, 1.5, 5)
    catalog = functools.partial(inv.energy_operator_catalog, spec)
    form = inv.solve_energy_system(cat, catalog(0.0)[:4])
    err = _max_rel_err(z for t in ts for z in zip(form(t)[:4], catalog(t)[:4]))
    yield f"energy-system {model_id}", err <= 1e-8, f"max rel err {err:.2e}"

    # the ladder of criterion 8's Pinney data against its invariant
    ladder = [*map(inv.ladder_factorization(flow, 1.2, 0.3, 0.9), ts)]
    form = inv.general_invariant(flow, 1.2, 0.3, 0.9)
    comm = _max_rel_err((p.commutator(), 1.0) for p in ladder)
    rec = _max_rel_err(z for p in ladder
                       for z in zip(p.reconstruct()[:4], form(p.t)[:4]))
    yield (f"ladder {model_id}", comm <= 1e-12 and rec <= 1e-10,
           f"commutator err {comm:.2e}, reconstruction err {rec:.2e}")

    if spec.model.expectation is not None:
        # the even branch, which cj_coordinate's curve requires
        m0 = dyn.SecondMoments(p2=1.1, x2=0.9)
        energy = dyn.damped_energy_equation_solve(spec, m0, cat)
        err = _max_rel_err((energy(t), dyn.closed_form_expectation(
            spec, m0, t)) for t in ts)
        yield f"energy {model_id}", err <= 1e-6, f"max rel err {err:.2e}"

    if spec.model.mean_position is not None:
        # Ehrenfest: <x> on H's flow against the record's family
        mean = functools.partial(spec.closed_form("mean_position"), 0.9, 0.4)
        path = dyn.evolve_first_moments(flow, dyn.FirstMoments(
            *spec.closed_form("mean_start")(0.9, 0.4)))
        err = max(abs(raw(m.x) - mean(t))
                  for t, (m, raw) in zip(ts, map(path, ts)))
        yield f"ehrenfest {model_id}", err <= 1e-8, f"max err {err:.2e}"

    if spec.model.invariant_mu is not None:
        # the invariant of the record's elementary mu against the
        # catalogue, from the record's Pinney data
        form = inv.general_invariant(flow, *spec.closed_form("invariant_data"))

        def rel_err(t):
            got, want = form(t), catalog(t)
            return max(abs(g - w) for g, w in zip(got[:4], want[:4])) / max(
                abs(want.A), abs(want.B), 1.0)

        err = max(map(rel_err, ts))
        yield f"auxiliary {model_id}", err <= 1e-10, f"max rel err {err:.2e}"


def cmd_verify_all(args):
    models = (quadham.models.MODEL_IDS if args.model in (None, "all")
              else [args.model])
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
    if getattr(args, "omega_d", 1.0) == 0:
        raise ValidationError("--omega must be nonzero", option="--omega",
                              value=args.omega_d)
    for flag, dest in args.finite.items():
        if not math.isfinite(value := getattr(args, dest)):
            raise ValidationError(f"{flag} must be finite", option=flag,
                                  value=value)
    # an initial <p^2> or <x^2> of a state is positive
    for flag in ("--p2", "--x2"):
        if (value := getattr(args, flag[2:], 1.0)) <= 0:
            raise ValidationError(f"{flag} must be positive", option=flag,
                                  value=value)
    if not hasattr(args, "pxxp"):
        return
    c = _moment_start(args)
    # ... its variances <x^2> - <x>^2 and <p^2> - <p>^2 are not negative
    for flag, variance in (("--x-mean", c.x2), ("--p-mean", c.p2)):
        if variance < 0:
            raise ValidationError(f"the square of {flag} exceeds its second "
                                  "moment", option=flag, variance=variance)
    # ... and its covariance has det >= 0, read as |cov| <= sqrt(dx2 dp2)
    # in a form that cannot overflow
    if not abs(0.5 * c.pxxp) <= math.sqrt(c.x2) * math.sqrt(c.p2):
        raise ValidationError("no state has these initial moments: their "
                              "covariance has a negative determinant",
                              p2=args.p2, x2=args.x2, pxxp=args.pxxp,
                              x_mean=getattr(args, "x_mean", 0.0),
                              p_mean=getattr(args, "p_mean", 0.0))
    # the flows of these three meet a window that is not finite only at a
    # read, as a nan time where the window is infinite
    if not math.isfinite(args.t_end):
        raise ValidationError("the window must be finite", t_end=args.t_end)


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
