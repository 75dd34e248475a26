"""Command-line front end: model selection, sweeps, verification, export.

Exit codes: 0 success, 2 validation error, 3 numerical failure.  Failures
emit a one-line JSON record naming the originating module and error code.
"""

import argparse
import json
import math
import sys
import traceback

import numpy as np

from . import characteristic as chr_mod
from . import coefficients as coeff
from . import dynamics as dyn
from . import invariants as inv
from . import io as qio
from . import propagator as prop
from .errors import NoClosedForm, QuadhamError, ValidationError

_MODEL_INFO = {
    coeff.CALDIROLA_KANAI: ("omega0, lambda", "omega0^2 > lambda^2"),
    coeff.MODIFIED_CK: ("omega0, lambda", "omega0^2 > lambda^2"),
    coeff.MODIFIED_OSCILLATOR: ("none", "t < pi/2"),
    coeff.UNITED: ("omega0, lambda, mu_param",
                   "omega0^2 > (lambda - mu_param)^2"),
    coeff.CJ_COORDINATE: ("omega0, lambda", "omega0^2 > lambda^2"),
    coeff.CJ_MOMENTUM: ("omega0, lambda", "omega0^2 > lambda^2"),
    coeff.MODIFIED_PARAMETRIC: ("omega0, lambda, delta", "delta != 0"),
    coeff.PARAMETRIC_SECH2: ("omega0, lambda", "none"),
    coeff.SIMPLE_HARMONIC: ("omega0", "none"),
    coeff.FREE_PARTICLE: ("none", "none"),
}


def _add_model_args(p):
    p.add_argument("--model", help="model id (see list-models)")
    p.add_argument("--omega0", type=float, default=None)
    p.add_argument("--lambda", dest="lam", type=float, default=None)
    p.add_argument("--mu-param", type=float, default=None)
    p.add_argument("--delta", type=float, default=None)
    p.add_argument("--config", help="key=value config file; flags override")


def _spec_from(args) -> coeff.ModelSpec:
    cfg = {}
    if getattr(args, "config", None):
        cfg = qio.read_config(args.config).get("model", {})

    def pick(flag, key, default):
        if flag is not None:
            return flag
        if key in cfg:
            return float(cfg[key]) if key != "model" else cfg[key]
        return default

    model = args.model or cfg.get("model")
    if not model:
        raise ValidationError("no model given (use --model or a config "
                              "[model] section)")
    spec = coeff.ModelSpec(
        model_id=model,
        omega0=pick(args.omega0, "omega0", 1.0),
        lam=pick(args.lam, "lambda", 0.0),
        mu_param=pick(args.mu_param, "mu_param", 0.0),
        delta=pick(args.delta, "delta", 0.0))
    spec.validate()
    return spec


def _sample_times(tc, t_end, samples):
    """Caustic-free sample times in (0, t_end]."""
    path = chr_mod.solve_characteristic(tc, t_end)
    caustic = path.first_caustic()
    hi = t_end if caustic is None else min(t_end, 0.9 * caustic[0])
    return path, np.linspace(hi / samples, hi, samples)


def cmd_list_models(args):
    rows = [(m, _MODEL_INFO[m][0], _MODEL_INFO[m][1])
            for m in coeff.MODEL_IDS]
    if args.json:
        qio.write_json(args.out, [
            {"model": m, "parameters": p, "constraint": c}
            for m, p, c in rows])
    else:
        qio.write_csv(args.out, ["model", "parameters", "constraint"], rows)
    return 0


def cmd_mu(args):
    spec = _spec_from(args)
    tc = coeff.builtin_coefficients(spec, coeff.EQUATION)
    path = chr_mod.solve_characteristic(tc, args.t_end)
    ts = np.linspace(args.t_end / args.samples, args.t_end, args.samples)
    rows = [(t, path.mu(t), path.mu_prime(t)) for t in ts]
    qio.write_csv(args.out, ["t", "mu", "mu_prime"], rows)
    return 0


def cmd_kernel(args):
    spec = _spec_from(args)
    tc = coeff.builtin_coefficients(spec, coeff.EQUATION)
    path, ts = _sample_times(tc, args.t_end, args.samples)
    rows = []
    for t in ts:
        kp = chr_mod.kernel_parameters(tc, path, float(t))
        rows.append((kp.t, kp.mu, kp.mu_prime, kp.h,
                     kp.alpha, kp.beta, kp.gamma))
    qio.write_csv(args.out, ["t", "mu", "mu_prime", "h",
                             "alpha", "beta", "gamma"], rows)
    return 0


def cmd_green(args):
    spec = _spec_from(args)
    tc = coeff.builtin_coefficients(spec, coeff.EQUATION)
    path = chr_mod.solve_characteristic(tc, args.t)
    kp = chr_mod.kernel_parameters(tc, path, args.t)
    g = prop.green_eval(kp, args.x, args.y)
    qio.write_json(args.out, {"model": spec.model_id, "t": args.t,
                              "x": args.x, "y": args.y,
                              "re": g.real, "im": g.imag})
    return 0


def cmd_propagate(args):
    spec = _spec_from(args)
    tc = coeff.builtin_coefficients(spec, coeff.EQUATION)
    s0 = prop.GaussianState(
        Lambda=complex(args.lambda_re, args.lambda_im),
        Theta=complex(args.theta_re, args.theta_im))
    path, ts = _sample_times(tc, args.t_end, args.samples)

    def kernel_of(t):
        return chr_mod.kernel_parameters(tc, path, t)

    rows = []
    for t, s in zip(ts, prop.gaussian_sweep(kernel_of, ts, s0)):
        m = s.moments()
        rows.append((t, s.Lambda.real, s.Lambda.imag, s.Theta.real,
                     s.Theta.imag, s.Phi.real, s.Phi.imag,
                     m["norm"], m["x"], m["p"]))
    qio.write_csv(args.out, ["t", "lambda_re", "lambda_im", "theta_re",
                             "theta_im", "phi_re", "phi_im",
                             "norm", "x_mean", "p_mean"], rows)
    return 0


def cmd_moments(args):
    spec = _spec_from(args)
    tc = coeff.builtin_coefficients(spec, coeff.HAMILTONIAN)
    m0 = dyn.SecondMoments(p2=args.p2, x2=args.x2, pxxp=args.pxxp)
    path = dyn.evolve_second_moments(tc, m0, args.t_end)
    ts = np.linspace(0.0, args.t_end, args.samples)
    rows = [(t, *((m := path(float(t))).p2, m.x2, m.pxxp, m.norm))
            for t in ts]
    qio.write_csv(args.out, ["t", "p2", "x2", "pxxp", "norm"], rows)
    return 0


def cmd_invariant(args):
    spec = _spec_from(args)
    tc = inv.catalog_coefficients(spec)
    m0 = dyn.SecondMoments(p2=args.p2, x2=args.x2, pxxp=args.pxxp)
    path = dyn.evolve_second_moments(tc, m0, args.t_end)

    def value(t):
        q = inv.energy_operator_catalog(spec, t)
        m = path(t)
        return q.expectation(m.p2, m.x2, m.pxxp)

    ref = value(0.0)
    ts = np.linspace(args.t_end / args.samples, args.t_end, args.samples)
    drift = max(abs(value(float(t)) - ref) for t in ts) / max(abs(ref), 1e-30)
    qio.write_json(args.out, {"model": spec.model_id, "t_end": args.t_end,
                              "reference": ref, "drift": drift})
    return 0


def cmd_appendix_d(args):
    hb = dyn.HyperbolicBasis(lam=args.lam_d, omega=args.omega_d,
                             gamma=args.gamma_shift)
    ts = np.linspace(args.t_start, args.t_end, args.samples)
    rows = [(t, hb.y1(t), hb.y2(t), hb.y_particular(t), hb.z1(t), hb.z2(t))
            for t in ts]
    qio.write_csv(args.out, ["t", "y1", "y2", "y_particular", "z1", "z2"],
                  rows)
    return 0


def cmd_uncertainty(args):
    spec = _spec_from(args)
    tc = coeff.builtin_coefficients(spec, coeff.HAMILTONIAN)
    m0 = dyn.SecondMoments(p2=args.p2, x2=args.x2, pxxp=args.pxxp)
    f0 = dyn.FirstMoments(x=args.x_mean, p=args.p_mean)
    mpath = dyn.evolve_second_moments(tc, m0, args.t_end)
    fpath = dyn.evolve_first_moments(tc, f0, args.t_end)
    ts = np.linspace(0.0, args.t_end, args.samples)
    rows = []
    for t in ts:
        u = dyn.uncertainty_check(mpath(float(t)), fpath(float(t)))
        rows.append((t, u["dp2"], u["dx2"], u["margin"], u["excess"]))
    qio.write_csv(args.out, ["t", "dp2", "dx2", "margin", "excess"], rows)
    return 0


def _verify_one(model_id: str, budget: str):
    """Quick per-model verification; returns (name, passed, detail)."""
    spec = coeff.ModelSpec(model_id, omega0=1.3, lam=0.35, mu_param=0.1,
                           delta=0.6)
    checks = []
    tc_eq = coeff.builtin_coefficients(spec, coeff.EQUATION)
    n_kernel = 5 if budget == "quick" else 20
    path, ts = _sample_times(tc_eq, 1.2, n_kernel)
    worst = 0.0
    for t in ts:
        kp = chr_mod.kernel_parameters(tc_eq, path, float(t))
        ref = chr_mod.closed_form_kernel(spec, float(t))
        for got, exp in ((kp.alpha, ref.alpha), (kp.beta, ref.beta),
                         (kp.gamma, ref.gamma)):
            worst = max(worst, abs(got - exp) / max(1.0, abs(exp)))
    checks.append(("kernel", worst <= 1e-7, f"max rel err {worst:.2e}"))

    try:
        q0 = inv.energy_operator_catalog(spec, 0.0)
        tc_cat = inv.catalog_coefficients(spec)
        m0 = dyn.SecondMoments(p2=1.1, x2=0.9, pxxp=0.2)
        mp = dyn.evolve_second_moments(tc_cat, m0, 1.5)
        ref = q0.expectation(m0.p2, m0.x2, m0.pxxp)
        drift = max(abs(inv.energy_operator_catalog(spec, float(t)).expectation(
            *((m := mp(float(t))).p2, m.x2, m.pxxp)) - ref)
            for t in np.linspace(0.1, 1.5, 8)) / max(abs(ref), 1e-30)
        checks.append(("invariant", drift <= 1e-8, f"drift {drift:.2e}"))
    except NoClosedForm:
        pass

    # coherent initial data: variances 1/2, zero covariance
    tc_h = coeff.builtin_coefficients(spec, coeff.HAMILTONIAN)
    mpath = dyn.evolve_second_moments(
        tc_h, dyn.SecondMoments(p2=0.54, x2=0.51, pxxp=0.04), 1.5)
    fpath = dyn.evolve_first_moments(tc_h, dyn.FirstMoments(0.1, 0.2), 1.5)
    worst_m = min(dyn.uncertainty_check(mpath(float(t)), fpath(float(t)))
                  ["margin"] for t in np.linspace(0.0, 1.5, 10))
    checks.append(("uncertainty", worst_m >= -1e-10,
                   f"min margin {worst_m:.2e}"))
    return [(f"{name} {model_id}", ok, detail) for name, ok, detail in checks]


def cmd_verify_all(args):
    if args.model in (None, "all"):
        models = [m for m in coeff.MODEL_IDS]
    else:
        models = [args.model]
    results = [r for m in models for r in _verify_one(m, args.budget)]
    all_ok = True
    for name, ok, detail in results:
        print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
        all_ok = all_ok and ok
    return 0 if all_ok else 3


def _build_parser():
    ap = argparse.ArgumentParser(
        prog="quadham",
        description="Numerical toolkit for variable quadratic quantum "
                    "Hamiltonians")
    sub = ap.add_subparsers(dest="command", required=True)

    def new(name, fn, **kw):
        p = sub.add_parser(name, **kw)
        p.set_defaults(fn=fn)
        p.add_argument("--out", default=None,
                       help="output path (default: stdout)")
        return p

    p = new("list-models", cmd_list_models)
    p.add_argument("--json", action="store_true")

    p = new("mu", cmd_mu)
    _add_model_args(p)
    p.add_argument("--t-end", type=float, required=True)
    p.add_argument("--samples", type=int, default=50)

    p = new("kernel", cmd_kernel)
    _add_model_args(p)
    p.add_argument("--t-end", type=float, required=True)
    p.add_argument("--samples", type=int, default=20)

    p = new("green", cmd_green)
    _add_model_args(p)
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--x", type=float, required=True)
    p.add_argument("--y", type=float, required=True)

    p = new("propagate", cmd_propagate)
    _add_model_args(p)
    p.add_argument("--t-end", type=float, required=True)
    p.add_argument("--samples", type=int, default=20)
    p.add_argument("--lambda-re", type=float, default=0.0)
    p.add_argument("--lambda-im", type=float, default=0.5)
    p.add_argument("--theta-re", type=float, default=0.0)
    p.add_argument("--theta-im", type=float, default=0.0)

    for name, fn in (("moments", cmd_moments), ("invariant", cmd_invariant),
                     ("uncertainty", cmd_uncertainty)):
        p = new(name, fn)
        _add_model_args(p)
        p.add_argument("--t-end", type=float, required=True)
        p.add_argument("--samples", type=int, default=50)
        p.add_argument("--p2", type=float, default=1.0)
        p.add_argument("--x2", type=float, default=1.0)
        p.add_argument("--pxxp", type=float, default=0.0)
        if name == "uncertainty":
            p.add_argument("--x-mean", type=float, default=0.0)
            p.add_argument("--p-mean", type=float, default=0.0)

    p = new("appendix_d", cmd_appendix_d)
    p.add_argument("--lambda", dest="lam_d", type=float, required=True)
    p.add_argument("--omega", dest="omega_d", type=float, required=True)
    p.add_argument("--gamma-shift", type=float, default=0.0)
    p.add_argument("--t-start", type=float, default=0.05)
    p.add_argument("--t-end", type=float, required=True)
    p.add_argument("--samples", type=int, default=50)

    p = new("verify_all", cmd_verify_all)
    p.add_argument("--model", default="all")
    p.add_argument("--budget", choices=("quick", "full"), default="quick")

    return ap


def _check_args(args):
    """Argument ranges argparse cannot express; refused before any work."""
    if getattr(args, "samples", 1) < 1:
        raise ValidationError("--samples must be at least 1",
                              samples=args.samples)
    if not (getattr(args, "t_start", 1.0) > 0):
        raise ValidationError("--t-start must be positive",
                              t_start=args.t_start)


def _jsonable(value):
    """JSON form of the error-info values json cannot write itself."""
    if isinstance(value, complex):
        return [value.real, value.imag]
    return repr(value)


def _failing_module(exc) -> str:
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
    args = _build_parser().parse_args(argv)
    try:
        _check_args(args)
        return args.fn(args)
    except QuadhamError as exc:
        record = {"error": exc.code, "type": type(exc).__name__,
                  "module": _failing_module(exc), "message": str(exc),
                  "info": exc.info}
        print(json.dumps(record, default=_jsonable), file=sys.stderr)
        return 2 if isinstance(exc, ValidationError) else 3
    except (ValueError, OSError) as exc:
        record = {"error": "validation", "type": type(exc).__name__,
                  "module": _failing_module(exc), "message": str(exc),
                  "info": {}}
        print(json.dumps(record), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
