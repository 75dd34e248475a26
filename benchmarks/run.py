"""End-to-end timings of a quadham checkout: each CLI subcommand and each
package import as a fresh subprocess, the classical flow, the kernel, the
Gaussian propagator and the grid layers in-process, and the wall time of
the tier-1 suite.

Usage: python3 benchmarks/run.py --tag TAG [--root CHECKOUT]
                                 [--against OTHER]

Writes ``benchmarks/BENCH_<yyyymmdd>_<TAG>.json`` beside this script.
Every subprocess timing is the median of 7 runs after one untimed run,
measured with ``perf_counter`` from spawn to exit; one more untimed run
under ``-X importtime`` records whether the subcommand loaded numpy and
its ``import_s``, the summed cumulative time of the top-level imports.
The layers are timed in child interpreters on the measured checkout's
source, one child per sample: one evaluation of the coefficients
(a, b, c, d) the flow reads (H's own), ``classical_flow`` solved to the
Caldirola-Kanai window of the subcommands and to the window of the tier-1
moment check (criterion 3: the catalogued Caldirola-Kanai invariant,
t_end 2), one ``Flow.at`` point, one point of the second-moment path and
of the energy path (``solve_energy_system``) on that flow, one point of
the first-moment path on the first flow, one ``general_invariant`` of
the Ermakov pair, Pinney's superposition of the oscillator flow's columns
(omega^2 = 1 + 0.3 sin t, kappa from (1, 0.2), c0 = 0.7, t = 1), one
``kernel_parameters`` point, ``classical_flow`` solved towards t = 1 on
a coefficient that overflows inside that window (b = e^(1000 t)), the
refusal caught inside the timed call, the Gaussian propagation layer (one
``green_eval`` point and one ``propagate_gaussian`` call) and the grid
layers (a Crank-Nicolson step, per step of a 64-step ``evolve_grid`` run,
at N = 256, 2048 and 4096 on the Caldirola-Kanai window, and at N = 2048
on the simple harmonic oscillator, whose constant system is factored once;
and one ``propagate_grid`` at N = 4096), each the median and the best of 7
samples and ``fast_samples``, the number of samples within 25% of the
best, with the solver's counts for each solve, and ``steal_s``, the host's
steal time (from /proc/stat) during each sample's child, null where that
file cannot be read.  Each child imports numpy and every package module it
times before it builds any input, so that every row is timed after one
import order.  The children run with
``PYTHONDONTWRITEBYTECODE=1``, so that each call compiles the package and
the measured checkout is left as it was.  The ``quadbench`` children copy
the benchmark's own environment and add ``PYTHONPATH`` (``child_env`` in
``quadbench/run.py``), so they read cached bytecode from their second call
on only where ``PYTHONDONTWRITEBYTECODE`` is unset; where it is set, every
``cli_session`` call compiles the modules it loads (``mu``: medians of
49–51 ms against 39–40 ms with cached bytecode, in two sets of 25
alternated calls on a 2-CPU Xeon).
``--root`` measures another checkout (for example the parent commit) with
this same script.  ``--against OTHER`` measures ``--root`` and OTHER
together, alternating the two sample by sample in every subprocess and
layer timing, so that a change in machine load falls on both alike; it
writes OTHER's record as ``BENCH_<yyyymmdd>_<TAG>_against.json``.  A
record names the measured code twice: by ``git describe`` and by a sha256
of the package source, which stays exact for uncommitted changes; beside
them, ``source_lines`` counts the lines of that source.  Two more keys
name what moves a checkout's timings besides its source, so that a pair
shows where the two differ: ``path_chars``, the length of its path, which
moves the layer rows by a few percent, and ``cached_bytecode``, whether
its ``src/quadham/__pycache__`` held bytecode when the run started, which
the ``quadbench`` children read.
"""

import argparse
import datetime
import hashlib
import json
import os
import pathlib
import platform
import statistics
import subprocess
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
REPEATS = 7
_CK = ["--model", "caldirola_kanai", "--lambda", "0.2"]
# one call of each subcommand, with a window and sample count of the size
# the ROADMAP baseline used
COMMANDS = {
    "list-models": ["list-models"],
    "mu": ["mu", *_CK, "--t-end", "1.4"],
    "kernel": ["kernel", *_CK, "--t-end", "1.4", "--samples", "200"],
    "green": ["green", *_CK, "--t", "1.0", "--x", "0.3", "--y", "-0.2"],
    "propagate": ["propagate", *_CK, "--t-end", "1.4", "--samples", "200"],
    "moments": ["moments", *_CK, "--t-end", "3"],
    "invariant": ["invariant", *_CK, "--t-end", "3"],
    "uncertainty": ["uncertainty", *_CK, "--t-end", "3"],
    "appendix_d": ["appendix_d", "--lambda", "0.2", "--omega", "1",
                   "--t-end", "3"],
    "verify_all": ["verify_all", "--budget", "full"],
}
# the interpreter and numpy alone, for scale, then the package's roots:
# the CLI, the moment dynamics on the classical flow, and the grid stepper
IMPORTS = {"python": "pass", "numpy": "import numpy",
           "quadham.cli": "import quadham.cli",
           "quadham.dynamics": "import quadham.dynamics",
           "quadham.gridsim": "import quadham.gridsim"}
# the in-process layer timings, one sample per child on the measured
# source: {row: per-call seconds}, plus the flow solver's counts
LAYERS = """
import json, math, timeit
import numpy as np
from quadham import characteristic as chm, coefficients as coeff
from quadham import dynamics as dyn, gridsim, invariants as inv
from quadham import propagator as prop
from quadham.errors import NumericalError

# the flow of tc read to t_end, which solves it to there
def solve(tc, t_end):
    flow = chm.classical_flow(tc)
    flow.at(t_end)
    return flow

spec = coeff.ModelSpec("caldirola_kanai", lam=0.2)
tc = coeff.builtin_coefficients(spec)
flow = solve(tc, 1.4)
# criterion 3's moment check on the catalogued Caldirola-Kanai invariant
tc_inv = coeff.catalog_coefficients(coeff.ModelSpec("caldirola_kanai", 1.0,
                                                    0.1))
moment_flow = solve(tc_inv, 2.0)
moments = dyn.evolve_second_moments(moment_flow,
                                    dyn.SecondMoments(0.8, 0.7, 0.1))
first_moments = dyn.evolve_first_moments(flow, dyn.FirstMoments(0.1, 0.2))
q0 = inv.energy_operator_catalog(coeff.ModelSpec("caldirola_kanai", 1.0,
                                                 0.1), 0.0)
energy = inv.solve_energy_system(moment_flow, (q0.A, q0.B, q0.C, q0.D))
# the Lewis-Riesenfeld invariant of H = (p^2 + omega^2 x^2) / 2,
# omega^2 = 1 + 0.3 sin t: general_invariant of the Ermakov pair, kappa
# from (1, 0.2) at c0 = 0.7 superposed from the columns of the flow
omega_sq = lambda t: 1.0 + 0.3 * math.sin(t)
zero = lambda t: 0.0
tc_osc = coeff.TimeCoefficients(lambda t: 0.5, lambda t: 0.5 * omega_sq(t),
                                zero, zero, da=zero, dc=zero, dd=zero)
osc_flow = solve(tc_osc, 2.0)
u = inv.solve_linear_auxiliary(osc_flow, (1.0, 0.0))
v = inv.solve_linear_auxiliary(osc_flow, (0.0, 1.0))
kappa_fn, c0 = inv.superpose_linear_solutions(tc_osc, u, v, 1.0, 0.2, 0.74)
kp = chm.kernel_parameters(tc, flow, 0.7)
s0 = prop.GaussianState(0.5j)
# b = e^(1000 t) overflows math.exp from t = 0.71 on
tc_exp = coeff.TimeCoefficients(lambda t: 0.5, lambda t: math.exp(1000.0 * t),
                                zero, zero)

def refused_flow():
    try:
        solve(tc_exp, 1.0)
    except NumericalError:
        pass

def per_call(fn, number):
    fn()
    return timeit.timeit(fn, number=number) / number

# the grid layers: a Gaussian on [-8, 8], its tails below 1e-13
def grid(n):
    x = np.linspace(-8.0, 8.0, n)
    return prop.GridState(-8.0, x[1] - x[0], np.exp(-0.5 * x * x + 0j))

def cn_step(n, tc=tc):
    psi0 = grid(n)
    return lambda: gridsim.evolve_grid(tc, psi0, 1e-3, 64, record_every=64)

sho = coeff.builtin_coefficients(coeff.ModelSpec("simple_harmonic"))

def counts(f):
    return {"nfev": f.nfev, "n_steps": f.n_steps, "n_rejected": f.n_rejected}

grid_4096 = grid(4096)
print(json.dumps({
    "coefficients": per_call(
        lambda: (tc.a(0.7), tc.b(0.7), tc.c(0.7), tc.d(0.7)),
        20000),
    "classical_flow": per_call(lambda: solve(tc, 1.4), 50),
    "moment_flow": per_call(lambda: solve(tc_inv, 2.0), 50),
    "flow_at": per_call(lambda: flow.at(0.7), 5000),
    "moment_point": per_call(lambda: moments(0.7), 5000),
    "first_moment_point": per_call(lambda: first_moments(0.7), 5000),
    "energy_point": per_call(lambda: energy(0.7), 5000),
    "invariant_point": per_call(
        lambda: inv.general_invariant(osc_flow, kappa_fn, c0, 1.0), 5000),
    "kernel_parameters": per_call(
        lambda: chm.kernel_parameters(tc, flow, 0.7), 5000),
    "refused_flow": per_call(refused_flow, 2),
    "green_eval": per_call(lambda: prop.green_eval(kp, 0.3, -0.2), 20000),
    "propagate_gaussian": per_call(lambda: prop.propagate_gaussian(kp, s0),
                                   20000),
    "cn_step_256": per_call(cn_step(256), 20) / 64,
    "cn_step_2048": per_call(cn_step(2048), 5) / 64,
    "cn_step_4096": per_call(cn_step(4096), 5) / 64,
    "cn_step_2048_constant": per_call(cn_step(2048, sho), 5) / 64,
    "propagate_grid": per_call(lambda: prop.propagate_grid(kp, grid_4096),
                               50),
    "counts": {"classical_flow": counts(flow),
               "moment_flow": counts(moment_flow)}}))
"""
# what each layer row measured, beside its timings in the record
LAYER_INPUTS = {"coefficients": {"t": 0.7},
                "classical_flow": {"t_end": 1.4},
                "moment_flow": {"model": "caldirola_kanai", "lambda": 0.1,
                                "t_end": 2.0},
                "flow_at": {"t": 0.7}, "moment_point": {"t": 0.7},
                "first_moment_point": {"t": 0.7},
                "energy_point": {"model": "caldirola_kanai", "lambda": 0.1,
                                 "t": 0.7},
                "invariant_point": {"omega_sq": "1 + 0.3 sin t", "c0": 0.7,
                                    "kappa0": 1.0, "kappa0_prime": 0.2,
                                    "t": 1.0},
                "kernel_parameters": {"t": 0.7},
                "refused_flow": {"b": "exp(1000 t)", "t_end": 1.0},
                "green_eval": {"t": 0.7, "x": 0.3, "y": -0.2},
                "propagate_gaussian": {"t": 0.7, "Lambda": "0.5j"},
                "cn_step_256": {"n": 256, "dt": 1e-3, "steps": 64},
                "cn_step_2048": {"n": 2048, "dt": 1e-3, "steps": 64},
                "cn_step_4096": {"n": 4096, "dt": 1e-3, "steps": 64},
                "cn_step_2048_constant": {"model": "simple_harmonic",
                                          "n": 2048, "dt": 1e-3,
                                          "steps": 64},
                "propagate_grid": {"t": 0.7, "n": 4096}}
TIER1 = ["-m", "pytest", "-q", "--continue-on-collection-errors",
         "-p", "no:cacheprovider"]


def _env(root):
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(root, "src"), os.environ.get("PYTHONPATH"))
        if p)
    return env


def _time(args, root):
    """Seconds from spawn to exit of one ``python ARGS`` run; refuses a
    failing run, whose time would measure the wrong thing."""
    t0 = perf_counter()
    proc = subprocess.run([sys.executable, *args], cwd=root, env=_env(root),
                          stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
    elapsed = perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"{args} exited {proc.returncode}: "
                           f"{proc.stderr.decode()[-500:]}")
    return elapsed


def _medians(args, roots):
    """The median of REPEATS timings of ``python ARGS`` in each checkout,
    after one untimed run in each; the checkouts alternate run by run."""
    for root in roots:
        _time(args, root)
    samples = [[] for _ in roots]
    for _ in range(REPEATS):
        for root, out in zip(roots, samples):
            out.append(_time(args, root))
    return [{"median_s": statistics.median(s), "samples_s": s}
            for s in samples]


def _importtime(args, root):
    """From one ``python -X importtime ARGS`` run: whether it imported
    numpy, and ``import_s``, the summed cumulative time of its top-level
    imports (the interpreter's own start-up imports included)."""
    proc = subprocess.run([sys.executable, "-X", "importtime", *args],
                          cwd=root, env=_env(root), stdout=subprocess.DEVNULL,
                          stderr=subprocess.PIPE, text=True, check=True)
    names, top_us = set(), 0
    for line in proc.stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        _, cumulative, name = line.split("|")
        if not cumulative.strip().isdigit():  # the header line
            continue
        names.add(name.strip())
        # a nested import is indented two spaces per level
        if not name.startswith("  "):
            top_us += int(cumulative)
    return {"loads_numpy": "numpy" in names, "import_s": top_us * 1e-6}


def _commands(argv, roots):
    args = ["-m", "quadham.cli", *argv]
    return [dict(timing, argv=argv, **_importtime(args, root))
            for root, timing in zip(roots, _medians(args, roots))]


def _steal_ticks():
    """The host's steal time so far, in clock ticks summed over its CPUs,
    from the ``cpu`` line of /proc/stat (read only); None where it cannot
    be read."""
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            return int(fh.readline().split()[8])
    except (OSError, IndexError, ValueError):
        return None


def _layer_sample(root):
    """One layer child's timings, with ``steal_s``, the seconds of steal
    time that passed while it ran (None where /proc/stat cannot be read)."""
    before = _steal_ticks()
    proc = subprocess.run([sys.executable, "-c", LAYERS], cwd=root,
                          env=_env(root), capture_output=True, text=True,
                          check=True)
    after = _steal_ticks()
    run = json.loads(proc.stdout)
    run["steal_s"] = (None if None in (before, after)
                      else (after - before) / os.sysconf("SC_CLK_TCK"))
    return run


def _layers(roots):
    """The ``flow`` section of each checkout's record: REPEATS samples of
    every layer row, one child per sample, the checkouts alternating."""
    samples = [[] for _ in roots]
    for _ in range(REPEATS):
        for root, out in zip(roots, samples):
            out.append(_layer_sample(root))
    records = []
    for runs in samples:
        record = {}
        steal = [run["steal_s"] for run in runs]
        for row, inputs in LAYER_INPUTS.items():
            per_call = [run[row] for run in runs]
            best = min(per_call)
            fast = sum(s <= 1.25 * best for s in per_call)
            record[row] = dict(median_s=statistics.median(per_call),
                               best_s=best, fast_samples=fast,
                               samples_s=per_call, steal_s=steal,
                               **inputs)
        for row, counts in runs[0]["counts"].items():
            record[row].update(counts)
        records.append(record)
    return records


def _tier1(root):
    t0 = perf_counter()
    proc = subprocess.run([sys.executable, *TIER1], cwd=root, env=_env(root),
                          capture_output=True, text=True)
    wall = perf_counter() - t0
    lines = proc.stdout.strip().splitlines()
    return {"wall_s": wall, "returncode": proc.returncode,
            "summary": lines[-1] if lines else ""}


def _revision(root):
    proc = subprocess.run(["git", "describe", "--always", "--dirty",
                           "--abbrev=40"], cwd=root, capture_output=True,
                          text=True)
    return proc.stdout.strip() or None


def _source_sha256(root):
    """sha256 over the sorted paths and bytes of ``src/**/*.py``: names the
    measured code also when the checkout has uncommitted changes."""
    src = pathlib.Path(root, "src")
    digest = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        digest.update(path.relative_to(src).as_posix().encode() + b"\0")
        digest.update(path.read_bytes() + b"\0")
    return digest.hexdigest()


def _source_split(root):
    """{module: lines} over ``src/**/*.py``, each module named by its path
    under ``root``."""
    return {path.relative_to(root).as_posix():
            len(path.read_bytes().splitlines())
            for path in pathlib.Path(root, "src").rglob("*.py")}


def _source_lines(root):
    """The number of lines of ``src/**/*.py``, the tracked source size."""
    return sum(_source_split(root).values())


def _confounds(root):
    """The length of ``root``'s path and whether its
    ``src/quadham/__pycache__`` holds bytecode now."""
    cache = pathlib.Path(root, "src", "quadham", "__pycache__")
    return {"path_chars": len(os.path.abspath(root)),
            "cached_bytecode": any(cache.glob("*.pyc"))}


def _cpu():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--tag", required=True,
                    help="suffix of the record's file name")
    ap.add_argument("--root", default=os.path.dirname(HERE),
                    help="checkout to measure (default: this one)")
    ap.add_argument("--against", default=None,
                    help="second checkout to measure alternately with "
                         "--root; its record gets the suffix TAG_against")
    args = ap.parse_args(argv)
    roots = [os.path.abspath(args.root)]
    tags = [args.tag]
    if args.against:
        roots.append(os.path.abspath(args.against))
        tags.append(f"{args.tag}_against")

    # named before the runs, so that the bytecode state is the one they met
    names = [{"revision": _revision(root),
              "source_sha256": _source_sha256(root),
              "source_lines": _source_lines(root), **_confounds(root)}
             for root in roots]
    import numpy
    import scipy
    imports = {name: _medians(["-c", code], roots)
               for name, code in IMPORTS.items()}
    commands = {name: _commands(cli, roots)
                for name, cli in COMMANDS.items()}
    layers = _layers(roots)
    day = datetime.date.today().strftime("%Y%m%d")
    for i, (root, tag) in enumerate(zip(roots, tags)):
        record = {
            **names[i],
            "cpu": _cpu(), "cpus": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "repeats": REPEATS,
            "imports": {name: t[i] for name, t in imports.items()},
            "commands": {name: t[i] for name, t in commands.items()},
            "flow": layers[i],
            "tier1": _tier1(root),
        }
        if len(roots) == 2:
            record["alternated_with"] = names[1 - i]
        path = os.path.join(HERE, f"BENCH_{day}_{tag}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(record, fh, indent=2)
            fh.write("\n")
        print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
