"""Seeded task generators for the two workloads.

Every workload is an endless sequence of blocks, and a run executes a
fixed number of whole blocks (see run.py), so every run holds the same mix
of task kinds:

* ``cli_session``: a block is one round of ten CLI calls, one per
  subcommand.  Model-taking subcommands get the models in a fixed rotation
  and alternate between windows inside the kernel's domain and windows that
  reach past the first caustic or the stated ``t < pi/2`` limit; the seed
  draws parameters, windows, states and the order within the round.
  A drawn call whose input falls in a class of known defects (see
  ``known_defect``) stays in the round as a probe, marked with the defect,
  and the round gains a call of the same subcommand and model outside the
  defect in its place: run.py times and gates that call and runs the probe,
  checked by the same oracle, once the timed tasks are done.
* ``grid_oracle``: a block is four grid cross-checks, at N = 1024, 2048
  and twice 4096, plus one batch of Gaussian states stepped by
  Crank-Nicolson at N = 256, where per-step overhead sets the cost.
"""

import functools
import math
import re
from dataclasses import dataclass, field, replace

import numpy as np
from scipy.optimize import brentq

from quadham import characteristic as chm
from quadham import coefficients as coeff
from quadham import dynamics as dyn
from quadham import gridsim
from quadham import propagator as prop

import oracles

WORKLOADS = ("cli_session", "grid_oracle")
MODELS = coeff.MODEL_IDS
MODEL_COMMANDS = ("mu", "kernel", "green", "propagate", "moments",
                  "invariant", "uncertainty", "verify_all")
# window validity per subcommand: "kernel" needs a caustic-free window
# inside the stated limit, "limit" only the stated limit
_DOMAIN = {"mu": "limit", "kernel": "kernel", "green": "kernel",
           "propagate": "kernel", "moments": "limit", "invariant": "limit",
           "uncertainty": "limit"}
KERNEL_SAMPLES = 100
GRID_SIZES = (1024, 2048, 4096, 4096)
GRID_HALF_WIDTH = {1024: 6.0, 2048: 9.0, 4096: 12.0}
GRID_STEPS = 1000
SMALL_STATES = 4
SMALL_N = 256
SMALL_HALF_WIDTH = 10.0
SMALL_STEPS = 200
# grid moments carry an O(dx^2) error: up to 1e-2 relative for squeezing
# models at N=256 (dx = 0.078) and 1e-4 at N=1024.  These checks catch a
# broken stepper; second-order accuracy is criterion 3's business.
SMALL_GRID_TOL = 2e-2
GRID_MOMENT_TOL = 1e-3
# nominal horizon for the free particle, whose mu never vanishes
_FREE_HORIZON = 4.0
# Before the first zero of mu', characteristic._gamma_integral takes gamma
# as the difference of two terms that grow like 1/mu'.  Where |mu'| falls
# below 1e-2 of its largest value before the zero, the error reaches 1e-7
# (criterion 1's tolerance) for some models and grows as the zero nears; at
# 2e-2 it stayed below 3e-8 in 16 draws per model from draw_spec.
TURNING_GUARD = 2e-2
TURNING_DEFECT = ("kernel time just before the first zero of mu' (gamma by "
                  "quadrature, characteristic._gamma_integral)")
# what argparse takes for a negative number rather than for an option
_ARGPARSE_NEGATIVE = re.compile(r"^-\d+$|^-\d*\.\d+$")


def _f(x):
    return repr(float(x))


def draw_spec(rng, model):
    """Parameters inside the model's stated range; returns (spec, flags)."""
    w0 = rng.uniform(0.6, 1.6)
    if model in (coeff.CALDIROLA_KANAI, coeff.MODIFIED_CK,
                 coeff.CJ_COORDINATE, coeff.CJ_MOMENTUM):
        lam = rng.uniform(0.05, 0.6) * w0
        spec = coeff.ModelSpec(model, omega0=w0, lam=lam)
        flags = ["--omega0", _f(w0), "--lambda", _f(lam)]
    elif model == coeff.UNITED:
        lam, mu = rng.uniform(0.05, 0.5), rng.uniform(0.0, 0.3)
        spec = coeff.ModelSpec(model, omega0=w0, lam=lam, mu_param=mu)
        flags = ["--omega0", _f(w0), "--lambda", _f(lam),
                 "--mu-param", _f(mu)]
    elif model == coeff.MODIFIED_PARAMETRIC:
        lam, delta = rng.uniform(0.05, 0.5), rng.uniform(0.4, 1.2)
        spec = coeff.ModelSpec(model, omega0=w0, lam=lam, delta=delta)
        flags = ["--omega0", _f(w0), "--lambda", _f(lam),
                 "--delta", _f(delta)]
    elif model == coeff.PARAMETRIC_SECH2:
        lam = rng.uniform(0.05, 0.6)
        spec = coeff.ModelSpec(model, omega0=w0, lam=lam)
        flags = ["--omega0", _f(w0), "--lambda", _f(lam)]
    elif model == coeff.SIMPLE_HARMONIC:
        spec = coeff.ModelSpec(model, omega0=w0)
        flags = ["--omega0", _f(w0)]
    else:
        spec = coeff.ModelSpec(model)
        flags = []
    return spec, ["--model", model] + flags


def draw_state(rng):
    return prop.GaussianState(
        Lambda=complex(rng.uniform(-0.2, 0.2), rng.uniform(0.5, 0.9)),
        Theta=complex(rng.uniform(-0.5, 0.5), rng.uniform(-0.3, 0.3)))


def _horizon(spec):
    limit = oracles.kernel_limit(spec)
    return _FREE_HORIZON if math.isinf(limit) else limit


# -- cli_session --------------------------------------------------------------

@dataclass
class CliTask:
    command: str
    argv: list
    spec: object = None
    valid: bool = True
    extra: dict = field(default_factory=dict)
    # set on a probe: the known defect its input falls in
    defect: str = None

    def describe(self):
        return " ".join(self.argv)


def _window_valid(command, spec, t_end):
    if _DOMAIN[command] == "kernel":
        return t_end < oracles.kernel_limit(spec)
    return t_end < oracles.t_max(spec)


@functools.lru_cache(maxsize=1024)
def turning_band(spec):
    """(b, z): z is the first zero of mu', and |mu'| < TURNING_GUARD times
    its largest value before z on (b, z)."""
    z = oracles.first_turning(spec)
    if math.isinf(z):
        return z, z

    def mup(t):
        return abs(chm.closed_form_mu(spec, float(t))[1])

    ts = np.linspace(0.0, z, 257)
    vals = [mup(t) for t in ts]
    level = TURNING_GUARD * max(vals)
    i = max(k for k, v in enumerate(vals) if v >= level)
    return brentq(lambda t: mup(t) - level, ts[i], z), z


def known_defect(command, spec, t_end):
    """The known defect an input falls in, decided from the input alone,
    or None.  From ROADMAP item 2: kernel and propagate windows that contain
    a caustic crash in ``cli._sample_times``, and windows of the modified
    oscillator past its stated limit pi/2 return values there, because
    ``t_max`` is never enforced.  Besides: gamma at kernel times just before
    the first zero of mu' can miss criterion 1's 1e-7 (``green`` evaluates
    the kernel at ``t_end``, ``kernel`` and ``propagate`` on the CLI's
    sample grid)."""
    if command in ("mu", "kernel", "green", "propagate") and \
            t_end >= oracles.t_max(spec):
        return "values returned past the stated limit t_max"
    if command in ("kernel", "propagate") and \
            t_end >= oracles.first_caustic(spec):
        return "caustic window crashes (TypeError in cli._sample_times)"
    if command in ("kernel", "propagate"):
        ts = np.linspace(t_end / KERNEL_SAMPLES, t_end, KERNEL_SAMPLES)
    elif command == "green":
        ts = [t_end]
    else:
        return None
    b, z = turning_band(spec)
    if any(b < t < z for t in ts):
        return TURNING_DEFECT
    return None


def joined_negatives(argv):
    """argv with every value argparse would take for an option (a negative
    number in exponent form, such as -1.5e-05) joined to its flag as
    ``--flag=value``."""
    out = []
    for arg in argv:
        if out and out[-1].startswith("--") and arg.startswith("-") and \
                not arg.startswith("--") and not _ARGPARSE_NEGATIVE.match(arg):
            out[-1] = f"{out[-1]}={arg}"
        else:
            out.append(arg)
    return out


def _model_task(rng, command, model, beyond, rnd):
    if command == "verify_all":
        if rnd % 2 == 0:
            return CliTask(command, [command, "--model", "all", "--budget",
                                     "quick"], extra={"models": MODELS})
        return CliTask(command, [command, "--model", model, "--budget",
                                 "full"], extra={"models": (model,)})
    spec, flags = draw_spec(rng, model)
    h = _horizon(spec)
    t_end = h * (rng.uniform(1.1, 1.6) if beyond else rng.uniform(0.3, 0.85))
    valid = _window_valid(command, spec, t_end)
    s0 = draw_state(rng)
    m0, f0 = oracles.initial_moments(s0)
    if command == "green":
        x, y = rng.uniform(-1.0, 1.0, size=2)
        argv = [command] + flags + ["--t", _f(t_end), "--x", _f(x),
                                    "--y", _f(y)]
        return CliTask(command, argv, spec, valid,
                       {"t": float(t_end), "x": float(x), "y": float(y)})
    argv = [command] + flags + ["--t-end", _f(t_end)]
    if command in ("kernel", "propagate"):
        # quadrature cost grows with the sample count; a fixed count keeps
        # the work per round the same for every seed
        argv += ["--samples", str(KERNEL_SAMPLES)]
    if command == "propagate":
        argv += ["--lambda-re", _f(s0.Lambda.real),
                 "--lambda-im", _f(s0.Lambda.imag),
                 "--theta-re", _f(s0.Theta.real),
                 "--theta-im", _f(s0.Theta.imag)]
    elif command in ("moments", "invariant", "uncertainty"):
        argv += ["--p2", _f(m0.p2), "--x2", _f(m0.x2), "--pxxp", _f(m0.pxxp)]
        if command == "uncertainty":
            argv += ["--x-mean", _f(f0.x), "--p-mean", _f(f0.p)]
    return CliTask(command, argv, spec, valid,
                   {"state": s0, "t_end": float(t_end)})


def _with_window(task, t_end):
    """The task with its window end (the time, for green) moved to t_end."""
    flag, key = ("--t", "t") if task.command == "green" else ("--t-end",
                                                              "t_end")
    argv = list(task.argv)
    argv[argv.index(flag) + 1] = _f(t_end)
    return replace(task, argv=argv, extra={**task.extra, key: float(t_end)},
                   valid=_window_valid(task.command, task.spec, t_end))


def _timed_and_probes(rng, command, model, beyond, rnd):
    """The drawn call, or, when its input falls in a known defect, a call
    in its place followed by the drawn one as a probe.  The call in place of
    a window past a caustic or t_max is a fresh in-domain draw; in place of
    a window with a time just before the first zero of mu' it is the same
    call with the window ending before that stretch."""
    task = _model_task(rng, command, model, beyond, rnd)
    t_end = task.extra.get("t", task.extra.get("t_end"))
    defect = None if t_end is None else known_defect(command, task.spec,
                                                     t_end)
    if defect is not None:
        task.argv = joined_negatives(task.argv)
        if defect == TURNING_DEFECT:
            timed = [_with_window(task,
                                  0.999 * turning_band(task.spec)[0])]
        else:
            timed = _timed_and_probes(rng, command, model, False, rnd)
        task.defect = defect
        return timed + [task]
    joined = joined_negatives(task.argv)
    if joined == task.argv:
        return [task]
    probe = replace(task, defect="argparse takes a negative value in "
                                 "exponent form for an option (exit 2)")
    task.argv = joined
    return [task, probe]


def cli_round(rng, rnd):
    as_json = rnd % 2 == 1
    tasks = [CliTask("list-models",
                     ["list-models"] + (["--json"] if as_json else []),
                     extra={"json": as_json})]
    lam, omega = rng.uniform(0.15, 0.4), rng.uniform(0.8, 1.5)
    gamma, t0 = rng.uniform(0.0, 0.3), rng.uniform(0.05, 0.3)
    tasks.append(CliTask(
        "appendix_d",
        ["appendix_d", "--lambda", _f(lam), "--omega", _f(omega),
         "--gamma-shift", _f(gamma), "--t-start", _f(t0),
         "--t-end", _f(t0 + rng.uniform(2.0, 4.5))],
        extra={"lam": float(lam), "omega": float(omega),
               "gamma": float(gamma)}))
    for k, command in enumerate(MODEL_COMMANDS):
        model = MODELS[(k + 3 * rnd) % len(MODELS)]
        tasks += _timed_and_probes(rng, command, model, (k + rnd) % 2 == 1,
                                   rnd)
    return [tasks[i] for i in rng.permutation(len(tasks))]


# -- grid_oracle --------------------------------------------------------------

@dataclass
class GridTask:
    spec: object
    state: object
    n: int
    t: float

    def describe(self):
        return (f"grid {self.spec} N={self.n} t={self.t!r} "
                f"Lambda={self.state.Lambda!r} Theta={self.state.Theta!r}")

    def inputs(self):
        half = GRID_HALF_WIDTH[self.n]
        dx = 2.0 * half / (self.n - 1)
        return prop.GridState(-half, dx, self.state.eval(
            -half + dx * np.arange(self.n)))

    def run(self, psi0):
        tc_h = coeff.builtin_coefficients(self.spec, coeff.HAMILTONIAN)
        tc_e = coeff.convert_convention(tc_h, coeff.EQUATION)
        path = chm.solve_characteristic(tc_e, self.t)
        kp = chm.kernel_parameters(tc_e, path, self.t)
        dense = prop.propagate_grid(kp, psi0)
        cn = gridsim.evolve_grid(tc_h, psi0, self.t / GRID_STEPS,
                                 GRID_STEPS).final()
        first, second = gridsim.measure_moments(cn)
        return kp, dense, cn, first, second

    def check(self, psi0, out):
        kp, dense, cn, first, second = out
        exact = prop.propagate_gaussian(
            chm.closed_form_kernel(self.spec, self.t), self.state).eval(
                psi0.x)
        n0 = self.state.norm_sq()
        scaled = dyn.SecondMoments(second.p2 / n0, second.x2 / n0,
                                   second.pxxp / n0, second.norm / n0)
        return (oracles.check_kernel(self.spec, kp)
                or oracles.check_grid("dense", dense.values, exact)
                or oracles.check_grid("cn", cn.values, exact)
                or oracles.check_grid("dense-cn", dense.values, cn.values)
                or oracles.check_moments(
                    self.spec, self.state, self.t, scaled,
                    dyn.FirstMoments(first.x / n0, first.p / n0),
                    tol=GRID_MOMENT_TOL, label="grid moments"))


def _sigma(m, mean, second):
    return math.sqrt(max(m[second] - m[mean] ** 2, 0.0))


def _grid_task(rng, n):
    """Draw until the inputs meet the preconditions of the library and of
    criterion 9's 1e-4: a caustic-free time, a kernel phase resolved by the
    grid, a packet that has decayed at the grid edges at 0 and t, and
    wavenumbers the grid resolves (CN errors stay below 4e-5 with
    (|<p>| + 6 sigma_p) dx <= 0.1)."""
    half = GRID_HALF_WIDTH[n]
    dx = 2.0 * half / (n - 1)
    while True:
        spec, _ = draw_spec(rng, MODELS[int(rng.integers(len(MODELS)))])
        t = float(rng.uniform(0.3, 0.5))
        state = draw_state(rng)
        if t >= 0.9 * oracles.kernel_limit(spec):
            continue
        if abs(chm.closed_form_kernel(spec, t).beta) * dx * half > \
                0.8 * 0.25 * math.pi:
            continue
        m0, m1 = (oracles.gaussian_moments(spec, state, s) for s in (0.0, t))
        # |psi| falls to 1e-10 of its peak ten widths out, |psi|^2 to
        # 1e-10 seven widths out
        reach = max(abs(m0["x"]) + 10.0 * _sigma(m0, "x", "x2"),
                    abs(m1["x"]) + 7.0 * _sigma(m1, "x", "x2"))
        wavenumber = max(abs(m["p"]) + 6.0 * _sigma(m, "p", "p2")
                         for m in (m0, m1))
        if reach <= half and wavenumber * dx <= 0.1:
            return GridTask(spec, state, n, t)


@dataclass
class SmallGridTask:
    spec: object
    states: list
    t: float

    def describe(self):
        return (f"small grid {self.spec} N={SMALL_N} t={self.t!r} "
                f"states={[(s.Lambda, s.Theta) for s in self.states]}")

    def inputs(self):
        dx = 2.0 * SMALL_HALF_WIDTH / (SMALL_N - 1)
        x = -SMALL_HALF_WIDTH + dx * np.arange(SMALL_N)
        return [prop.GridState(-SMALL_HALF_WIDTH, dx, s.eval(x))
                for s in self.states]

    def run(self, grids):
        tc = coeff.builtin_coefficients(self.spec, coeff.HAMILTONIAN)
        return [gridsim.measure_moments(gridsim.evolve_grid(
            tc, psi0, self.t / SMALL_STEPS, SMALL_STEPS).final())
            for psi0 in grids]

    def check(self, _grids, out):
        for s0, (first, second) in zip(self.states, out):
            n0 = s0.norm_sq()
            bad = oracles.check_moments(
                self.spec, s0, self.t,
                dyn.SecondMoments(second.p2 / n0, second.x2 / n0,
                                  second.pxxp / n0, second.norm / n0),
                dyn.FirstMoments(first.x / n0, first.p / n0),
                tol=SMALL_GRID_TOL, label=f"N={SMALL_N} grid moments")
            if bad:
                return bad
        return None


def _small_grid_task(rng):
    spec, _ = draw_spec(rng, MODELS[int(rng.integers(len(MODELS)))])
    return SmallGridTask(spec, [draw_state(rng) for _ in range(SMALL_STATES)],
                         float(rng.uniform(0.3, 0.6)))


def grid_block(rng, _rnd):
    tasks = [_grid_task(rng, n) for n in GRID_SIZES]
    tasks.append(_small_grid_task(rng))
    return [tasks[i] for i in rng.permutation(len(tasks))]


BLOCKS = {"cli_session": cli_round, "grid_oracle": grid_block}


def blocks(workload, seed):
    """Endless, deterministic sequence of task blocks for (workload, seed)."""
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    rnd = 0
    while True:
        yield BLOCKS[workload](rng, rnd)
        rnd += 1
