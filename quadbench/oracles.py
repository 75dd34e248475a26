"""Closed-form oracles for every task the benchmark runs.

Each check returns ``None`` when the result agrees with the oracle and a
one-line reason otherwise.  Tolerances are the acceptance suite's:
kernel parameters 1e-7 (criterion 1), moments and invariant drift 1e-8
(criteria 3 and 5), hyperbolic-basis residuals 1e-9 and Wronskians 1e-10
(criterion 6), grid sup-norm 1e-4 (criterion 9).
"""

import csv
import functools
import io
import json
import math

import numpy as np

from quadham import characteristic as chm
from quadham import coefficients as coeff
from quadham import dynamics as dyn
from quadham import invariants as inv
from quadham import propagator as prop
from quadham.errors import CausticEncountered

KERNEL_TOL = 1e-7
# Gaussian parameters after propagation inherit the kernel's error times
# the conditioning of Lambda' = alpha - beta^2 / (4 (gamma + Lambda)); a
# decade above the kernel's tolerance
PROPAGATE_TOL = 1e-6
MOMENT_TOL = 1e-8
DRIFT_TOL = 1e-8
RESIDUAL_TOL = 1e-9
WRONSKIAN_TOL = 1e-10
GRID_TOL = 1e-4
# a(t) = cos^2 t vanishes at pi/2; list-models states the model for t < pi/2
T_MAX = {coeff.MODIFIED_OSCILLATOR: 0.5 * math.pi}
# models whose closed-form energy curve is stated for the builtin
# Hamiltonian (the hyperbolic entry is for the frequency-rescaled one)
_EXPECTATION_MODELS = (coeff.CALDIROLA_KANAI, coeff.MODIFIED_CK, coeff.UNITED,
                       coeff.MODIFIED_OSCILLATOR)


def rel_err(got, ref):
    return abs(got - ref) / max(1.0, abs(ref))


def _first_mismatch(label, t, pairs, tol):
    for name, got, ref in pairs:
        if not (rel_err(got, ref) <= tol):
            return (f"{label} {name} at t={t:.6g}: got {got!r}, "
                    f"expected {ref!r} (tol {tol:g})")
    return None


@functools.lru_cache(maxsize=2048)
def _first_zero(spec, index, horizon=40.0, points=4001):
    """First t > 0 where component ``index`` of the closed-form (mu, mu')
    vanishes (inf if none)."""
    def f(t):
        return chm.closed_form_mu(spec, t)[index]

    ts = np.linspace(0.0, horizon, points)[1:]
    vals = [f(float(t)) for t in ts]
    for i in range(len(ts) - 1):
        if vals[i] * vals[i + 1] <= 0.0:
            lo, hi = float(ts[i]), float(ts[i + 1])
            for _ in range(60):
                mid = 0.5 * (lo + hi)
                if f(lo) * f(mid) <= 0.0:
                    hi = mid
                else:
                    lo = mid
            return 0.5 * (lo + hi)
    return math.inf


def first_caustic(spec):
    """First t > 0 where the closed-form mu vanishes (inf if none)."""
    return _first_zero(spec, 0)


def first_turning(spec):
    """First t > 0 where the closed-form mu' vanishes (inf if none)."""
    return _first_zero(spec, 1)


def t_max(spec):
    return T_MAX.get(spec.model_id, math.inf)


def kernel_limit(spec):
    """End of the window where the library's kernel is defined."""
    return min(first_caustic(spec), t_max(spec))


def gaussian_moments(spec, s0, t):
    """Exact raw moments at t of the Gaussian s0, normalised by its initial
    norm: propagate_gaussian on closed_form_kernel.  None inside the
    caustic guard band, where the closed form is refused."""
    n0 = s0.norm_sq()
    if t == 0.0:
        m = s0.moments()
    else:
        try:
            kp = chm.closed_form_kernel(spec, t)
        except CausticEncountered:
            return None
        m = prop.propagate_gaussian(kp, s0).moments()
    return {k: v / n0 for k, v in m.items()}


def initial_moments(s0):
    """(SecondMoments, FirstMoments) of s0 with unit norm."""
    m = gaussian_moments(None, s0, 0.0)
    return (dyn.SecondMoments(m["p2"], m["x2"], m["pxxp"], 1.0),
            dyn.FirstMoments(m["x"], m["p"]))


# -- library results ---------------------------------------------------------

def check_kernel(spec, kp):
    ref = chm.closed_form_kernel(spec, kp.t)
    return _first_mismatch("kernel", kp.t, (
        ("mu", kp.mu, ref.mu), ("mu_prime", kp.mu_prime, ref.mu_prime),
        ("h", kp.h, ref.h), ("alpha", kp.alpha, ref.alpha),
        ("beta", kp.beta, ref.beta), ("gamma", kp.gamma, ref.gamma)),
        KERNEL_TOL)


def check_grid(label, values, exact):
    err = float(np.max(np.abs(np.asarray(values) - exact)))
    if not (err <= GRID_TOL):
        return f"{label} sup-norm error {err:.3e} (tol {GRID_TOL:g})"
    return None


def check_moments(spec, s0, t, second, first=None, tol=MOMENT_TOL,
                  label="moments"):
    ref = gaussian_moments(spec, s0, t)
    if ref is None:
        return None
    pairs = [("p2", second.p2, ref["p2"]), ("x2", second.x2, ref["x2"]),
             ("pxxp", second.pxxp, ref["pxxp"]),
             ("norm", second.norm, ref["norm"])]
    if first is not None:
        pairs += [("x", first.x, ref["x"]), ("p", first.p, ref["p"])]
    return _first_mismatch(label, t, pairs, tol)


def check_uncertainty(spec, s0, t, u):
    ref = gaussian_moments(spec, s0, t)
    if ref is None:
        return None
    dp2 = ref["p2"] - ref["p"] ** 2 / ref["norm"]
    dx2 = ref["x2"] - ref["x"] ** 2 / ref["norm"]
    margin = dp2 * dx2 - 0.25 * ref["norm"] ** 2
    return _first_mismatch("uncertainty", t, (
        ("dp2", u["dp2"], dp2), ("dx2", u["dx2"], dx2),
        ("margin", u["margin"], margin)), MOMENT_TOL)


def contract(q, p2, x2, pxxp):
    """(value, magnitude) of a quadratic form contracted with second
    moments; the magnitude sums the absolute terms."""
    terms = (q.A * p2, q.B * x2, 0.5 * (q.C + q.D) * pxxp)
    return sum(terms), sum(abs(v) for v in terms)


def drift_scale(value0, magnitude0):
    """Denominator of a relative drift: |E(0)| as in criterion 3, but no
    less than the size of the terms that cancel in E(0), where rounding and
    solver errors live."""
    return max(abs(value0), magnitude0, 1e-30)


# -- CLI outputs -------------------------------------------------------------

def parse_csv(text):
    rows = list(csv.reader(io.StringIO(text)))
    if not rows:
        raise ValueError("empty CSV")
    header, body = rows[0], rows[1:]
    return header, [[float(v) for v in row] for row in body]


def _rows(text, header):
    got, rows = parse_csv(text)
    if got != header:
        raise ValueError(f"unexpected CSV header {got}")
    if not rows:
        raise ValueError("no rows")
    return rows


def _window_problem(t, limit, what):
    if t >= limit:
        return f"row at t={t:.6g} lies past the {what} at {limit:.6g}"
    return None


def cli_mu(task, text):
    spec = task.spec
    for t, mu, mup in _rows(text, ["t", "mu", "mu_prime"]):
        ref_mu, ref_mup = chm.closed_form_mu(spec, t)
        bad = (_window_problem(t, t_max(spec), "stated limit")
               or _first_mismatch("mu", t, (("mu", mu, ref_mu),
                                            ("mu_prime", mup, ref_mup)),
                                  KERNEL_TOL))
        if bad:
            return bad
    return None


def cli_kernel(task, text):
    spec = task.spec
    limit = kernel_limit(spec)
    rows = _rows(text, ["t", "mu", "mu_prime", "h", "alpha", "beta", "gamma"])
    for t, mu, mup, h, alpha, beta, gamma in rows:
        bad = (_window_problem(t, limit, "first caustic or stated limit")
               or check_kernel(spec, chm.KernelParameters(
                   t, mu, mup, h, alpha, beta, gamma)))
        if bad:
            return bad
    return None


def cli_green(task, text):
    spec = task.spec
    out = json.loads(text)
    t, x, y = task.extra["t"], task.extra["x"], task.extra["y"]
    if t >= kernel_limit(spec):
        return f"value returned at t={t:.6g}, past the kernel window"
    ref = prop.green_eval(chm.closed_form_kernel(spec, t), x, y)
    return _first_mismatch("green", t, (("re", out["re"], ref.real),
                                        ("im", out["im"], ref.imag)),
                           KERNEL_TOL)


def cli_propagate(task, text):
    spec = task.spec
    limit = kernel_limit(spec)
    rows = _rows(text, ["t", "lambda_re", "lambda_im", "theta_re", "theta_im",
                        "phi_re", "phi_im", "norm", "x_mean", "p_mean"])
    ts = [r[0] for r in rows]
    for t in ts:
        bad = _window_problem(t, limit, "first caustic or stated limit")
        if bad:
            return bad
    s0 = task.extra["state"]
    sweep = prop.gaussian_sweep(lambda t: chm.closed_form_kernel(spec, t),
                                ts, s0)
    for row, s in zip(rows, sweep):
        m = s.moments()
        bad = _first_mismatch("propagate", row[0], (
            ("lambda_re", row[1], s.Lambda.real),
            ("lambda_im", row[2], s.Lambda.imag),
            ("theta_re", row[3], s.Theta.real),
            ("theta_im", row[4], s.Theta.imag),
            ("phi_re", row[5], s.Phi.real), ("phi_im", row[6], s.Phi.imag),
            ("norm", row[7], m["norm"]), ("x_mean", row[8], m["x"]),
            ("p_mean", row[9], m["p"])), PROPAGATE_TOL)
        if bad:
            return bad
    return None


def cli_moments(task, text):
    spec, s0 = task.spec, task.extra["state"]
    m0, _ = initial_moments(s0)
    for t, p2, x2, pxxp, norm in _rows(text, ["t", "p2", "x2", "pxxp",
                                              "norm"]):
        got = dyn.SecondMoments(p2, x2, pxxp, norm)
        bad = check_moments(spec, s0, t, got)
        if bad:
            return bad
        if spec.model_id in _EXPECTATION_MODELS:
            A, B, C = dyn.reference_operator(spec, t)
            bad = _first_mismatch("energy expectation", t, (
                ("E", A * p2 + B * x2 + 0.5 * C * pxxp,
                 dyn.closed_form_expectation(spec, m0, t)),), MOMENT_TOL)
            if bad:
                return bad
    return None


def cli_invariant(task, text):
    spec, s0 = task.spec, task.extra["state"]
    out = json.loads(text)
    m0, _ = initial_moments(s0)
    ref, mag = contract(inv.energy_operator_catalog(spec, 0.0), m0.p2, m0.x2,
                        m0.pxxp)
    bad = _first_mismatch("invariant", 0.0, (("reference", out["reference"],
                                              ref),), MOMENT_TOL)
    if bad:
        return bad
    # the CLI reports max |E(t) - E(0)| / |E(0)|
    drift = out["drift"] * max(abs(ref), 1e-30) / drift_scale(ref, mag)
    if not (drift <= DRIFT_TOL):
        return f"invariant drift {drift:.3e} (tol {DRIFT_TOL:g})"
    return None


def cli_uncertainty(task, text):
    spec, s0 = task.spec, task.extra["state"]
    for t, dp2, dx2, margin, _ in _rows(text, ["t", "dp2", "dx2", "margin",
                                               "excess"]):
        bad = check_uncertainty(spec, s0, t, {"dp2": dp2, "dx2": dx2,
                                              "margin": margin})
        if bad:
            return bad
    return None


def cli_appendix_d(task, text):
    hb = dyn.HyperbolicBasis(lam=task.extra["lam"], omega=task.extra["omega"],
                             gamma=task.extra["gamma"])
    for t, y1, y2, yp, z1, z2 in _rows(text, ["t", "y1", "y2", "y_particular",
                                              "z1", "z2"]):
        bad = _first_mismatch("appendix_d", t, (
            ("y1", y1, hb.y1(t)), ("y2", y2, hb.y2(t)),
            ("y_particular", yp, hb.y_particular(t)), ("z1", z1, hb.z1(t)),
            ("z2", z2, hb.z2(t))), 1e-12)
        if bad:
            return bad
        res = max(hb.y_residual(1, t), hb.y_residual(2, t),
                  hb.y_particular_residual(t), hb.z_residual(1, t),
                  hb.z_residual(2, t))
        wr = max(hb.y_wronskian_residual(t), hb.z_wronskian_residual(t))
        if not (res <= RESIDUAL_TOL and wr <= WRONSKIAN_TOL):
            return (f"appendix_d residual {res:.2e} / Wronskian {wr:.2e} at "
                    f"t={t:.6g} (tol {RESIDUAL_TOL:g} / {WRONSKIAN_TOL:g})")
    return None


def cli_verify_all(task, text):
    lines = [ln for ln in text.splitlines() if ln.strip()]
    for ln in lines:
        if not ln.startswith("PASS "):
            return f"verify_all: {ln}"
    seen = {ln.split(":")[0].split()[-1] for ln in lines}
    missing = sorted(set(task.extra["models"]) - seen)
    if missing:
        return f"verify_all printed no check for {missing}"
    return None


def cli_list_models(task, text):
    if task.extra["json"]:
        entries = json.loads(text)
        names = [e["model"] for e in entries]
        complete = all(e["parameters"] and e["constraint"] for e in entries)
    else:
        rows = list(csv.reader(io.StringIO(text)))
        if rows[0] != ["model", "parameters", "constraint"]:
            return f"unexpected CSV header {rows[0]}"
        names = [r[0] for r in rows[1:]]
        complete = all(len(r) == 3 and r[1] and r[2] for r in rows[1:])
    if sorted(names) != sorted(coeff.MODEL_IDS) or not complete:
        return f"list-models listed {names}"
    return None


CLI_CHECKS = {
    "list-models": cli_list_models, "mu": cli_mu, "kernel": cli_kernel,
    "green": cli_green, "propagate": cli_propagate, "moments": cli_moments,
    "invariant": cli_invariant, "uncertainty": cli_uncertainty,
    "appendix_d": cli_appendix_d, "verify_all": cli_verify_all,
}


def check_cli(task, returncode, stdout, stderr):
    """Classify one CLI run.  Exit 0 must carry output that matches the
    oracle; exit 2 or 3 must carry a JSON error record and is accepted only
    where the input lies outside the documented domain (task.valid False);
    anything else fails."""
    if "Traceback (most recent call last)" in stderr:
        last = stderr.strip().splitlines()[-1] if stderr.strip() else ""
        return f"exit {returncode} with a traceback: {last[:200]}"
    if returncode == 0:
        try:
            return CLI_CHECKS[task.command](task, stdout)
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            return f"unparsable output: {type(exc).__name__}: {exc}"
    if returncode in (2, 3):
        if task.command == "verify_all" and returncode == 3:
            return "verify_all reported a failing self-check"
        try:
            record = json.loads(stderr.strip().splitlines()[-1])
            code = record["error"]
        except (ValueError, KeyError, TypeError, IndexError):
            return f"exit {returncode} without a JSON error record"
        if task.valid:
            return f"typed error {code!r} on valid input (exit {returncode})"
        return None
    return f"exit {returncode}"
