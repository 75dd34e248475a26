"""quadham benchmark.

    python3 quadbench/run.py --workload W --seed N --seconds S --trace 0|1

Runs one seeded workload (cli_session or grid_oracle; see workloads.py and
BENCHMARK.json) against the package in ``src/`` of the
checkout it sits in, checks every task against the closed-form oracles in
oracles.py, and prints two JSON lines: a record of the run (environment,
tail percentile and sample count, every failed task with its reason, the
outcome of every known-defect probe) and, last, ``{"correct", "attempted",
"failed", "metrics"}``.  ``correct`` is false when any timed task failed.

With ``--trace 0`` the metrics are BENCHMARK.json's end-to-end metrics;
with ``--trace 1`` the run is traced (spans around each module's public
functions, see tracing.py) and the metrics are its per-layer metrics.
Spans of a traced run are written to ``.quadbench/``.  Exits 2 without a
result when the package is missing.

CLI calls whose input falls in a known defect of the package (see
workloads.known_defect) are probes: each runs once after the timed tasks,
untraced, untimed and in this process, is checked by the same oracle, and
is listed under ``known_defects`` with its argv and outcome.  The record's
``fail_ratio`` counts probes and timed tasks alike.  The timed tasks, which
``correct``, ``attempted`` and ``failed`` describe, hold a call outside
the defect in each probe's place.

Every workload is a closed loop with one client: a task starts when the
previous one has finished, in one benchmark process with no thread pool of
its own.
"""

import argparse
import contextlib
import ctypes
import glob
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import traceback
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".quadbench")
SETUP_REPEATS = 5
IMPORT_REPEATS = 3
TASK_TIMEOUT_S = 60
# Seconds one block of tasks took when this benchmark was written (numpy CN
# backend, 2-CPU Intel Xeon).  A run executes round(--seconds /
# BLOCK_SECONDS) whole blocks, so every commit does the same work for a
# given seed and length and the tail percentile rests on the same sample
# count.
BLOCK_SECONDS = {"cli_session": 12.0, "grid_oracle": 4.0}
# what each workload imports before its first task
SETUP_MODULES = {
    "cli_session": "quadham.cli",
    "grid_oracle": "quadham.characteristic, quadham.propagator, "
                   "quadham.gridsim",
}


def tail_latency(samples):
    """(value, percentile, count) at the highest percentile that has at
    least ten samples beyond it: the eleventh largest sample.  With ten or
    fewer samples no percentile qualifies and the maximum is returned."""
    xs = sorted(samples)
    n = len(xs)
    if n <= 10:
        return xs[-1], 100.0, n
    return xs[n - 11], 100.0 * (n - 10) / n, n


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p)
    return env


def build():
    """Build the optional compiled extension in place, once per checkout.
    The package falls back to numpy when nothing is built."""
    log = os.path.join(OUT, "build.json")
    if os.path.exists(log):
        with open(log, encoding="utf-8") as fh:
            return json.load(fh)
    status = {"ran": False}
    if os.path.exists(os.path.join(ROOT, "setup.py")):
        proc = subprocess.run(
            [sys.executable, "setup.py", "-q", "build_ext", "--inplace"],
            cwd=ROOT, env=child_env(), capture_output=True, text=True,
            timeout=840)
        status = {"ran": True, "returncode": proc.returncode,
                  "stderr_tail": proc.stderr[-500:]}
    with open(log, "w", encoding="utf-8") as fh:
        json.dump(status, fh)
    return status


def measure_setup(workload):
    """Median time from starting a fresh interpreter to the workload's
    modules being imported."""
    code = (f"import {SETUP_MODULES[workload]}; import sys; "
            "sys.stdout.write('ready\\n'); sys.stdout.flush()")
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = perf_counter()
        with subprocess.Popen([sys.executable, "-c", code], cwd=ROOT,
                              env=child_env(), stdout=subprocess.PIPE) as p:
            line = p.stdout.readline()
            times.append(perf_counter() - t0)
            p.stdout.read()
            p.wait(timeout=TASK_TIMEOUT_S)
        if line.strip() != b"ready":
            raise RuntimeError(f"importing {SETUP_MODULES[workload]} failed")
    return statistics.median(times)


def parse_importtime(text):
    """(quadham import s, scipy share s) from ``-X importtime`` output: the
    cumulative time of the top-level quadham entries, and of every scipy
    entry not nested in another scipy entry."""
    rows = []
    for line in text.splitlines():
        if not line.startswith("import time:") or "cumulative" in line:
            continue
        _, cumulative, name = line.split(":", 1)[1].split("|")
        depth = (len(name) - len(name.lstrip()) - 1) // 2
        rows.append((depth, name.strip(), int(cumulative) * 1e-6))
    total = scipy = 0.0
    stack = []
    # entries are printed after their children; reversed, parents come first
    for depth, name, cumulative in reversed(rows):
        del stack[depth:]
        if depth == 0 and (name == "quadham" or name.startswith("quadham.")):
            total += cumulative
        if name.split(".")[0] == "scipy" and not any(
                a.split(".")[0] == "scipy" for a in stack):
            scipy += cumulative
        stack.append(name)
    return total, scipy


def import_times(workload):
    totals, scipys = [], []
    for _ in range(IMPORT_REPEATS):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c",
             f"import {SETUP_MODULES[workload]}"],
            cwd=ROOT, env=child_env(), capture_output=True, text=True,
            timeout=TASK_TIMEOUT_S)
        total, scipy = parse_importtime(proc.stderr)
        totals.append(total)
        scipys.append(scipy)
    return statistics.median(totals), statistics.median(scipys)


def _openblas_threads():
    out = {}
    for pkg in ("numpy", "scipy"):
        mod = sys.modules.get(pkg)
        if mod is None:
            continue
        libdir = os.path.join(os.path.dirname(os.path.dirname(mod.__file__)),
                              f"{pkg}.libs")
        for lib in glob.glob(os.path.join(libdir, "*openblas*")):
            handle = ctypes.CDLL(lib)
            for sym in ("scipy_openblas_get_num_threads64_",
                        "scipy_openblas_get_num_threads",
                        "openblas_get_num_threads64_",
                        "openblas_get_num_threads"):
                if hasattr(handle, sym):
                    out[pkg] = int(getattr(handle, sym)())
                    break
    return out


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _commit():
    if shutil.which("git") is None or not os.path.exists(
            os.path.join(ROOT, ".git")):
        return None
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                          capture_output=True, text=True)
    return proc.stdout.strip() or None


def _src_digest():
    h = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(SRC, "**", "*"),
                                 recursive=True)):
        if os.path.isfile(path) and "__pycache__" not in path:
            h.update(os.path.relpath(path, SRC).encode())
            with open(path, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def environment(args, build_status):
    import numpy
    import scipy
    from quadham import gridsim
    return {
        "commit": _commit(), "src_sha256": _src_digest(),
        "cn_backend": "compiled" if gridsim.COMPILED else "numpy",
        "build": build_status, "python": platform.python_version(),
        "numpy": numpy.__version__, "scipy": scipy.__version__,
        "cpu_model": _cpu_model(), "nproc": len(os.sched_getaffinity(0)),
        "openblas_threads": _openblas_threads(),
        "env": {k: os.environ.get(k) for k in (
            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "QUADHAM_THREADS",
            "QUADHAM_PURE_PYTHON")},
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
    }


# -- task execution -----------------------------------------------------------

class Outcome:
    __slots__ = ("task", "latency", "problem", "rss_mb")

    def __init__(self, task, latency, problem, rss_mb=0.0):
        self.task, self.latency = task, latency
        self.problem, self.rss_mb = problem, rss_mb


def run_cli(task, index, traced):
    """One CLI call as a fresh subprocess; latency is spawn to exit."""
    tmp = os.path.join(OUT, "tmp")
    tag = f"{os.getpid()}-{index}"
    out_path = os.path.join(tmp, f"stdout-{tag}")
    err_path = os.path.join(tmp, f"stderr-{tag}")
    spans_path = os.path.join(tmp, f"spans-{tag}.json")
    if traced:
        prefix = [sys.executable, os.path.join(HERE, "launcher.py"),
                  spans_path, str(index), "--"]
    else:
        prefix = [sys.executable, "-m", "quadham.cli"]
    with open(out_path, "w+b") as fo, open(err_path, "w+b") as fe:
        t0 = perf_counter()
        proc = subprocess.Popen(prefix + task.argv, cwd=ROOT,
                                env=child_env(), stdout=fo, stderr=fe)
        timer = threading.Timer(TASK_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        latency = perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        fo.seek(0)
        fe.seek(0)
        stdout = fo.read().decode("utf-8", "replace")
        stderr = fe.read().decode("utf-8", "replace")
    os.remove(out_path)
    os.remove(err_path)
    import oracles
    problem = oracles.check_cli(task, proc.returncode, stdout, stderr)
    spans = None
    if traced and os.path.exists(spans_path):
        with open(spans_path, encoding="utf-8") as fh:
            spans = json.load(fh)
        os.remove(spans_path)
    return Outcome(task, latency, problem, usage.ru_maxrss / 1024.0), spans


def run_probe(task):
    """One known-defect CLI call, untimed, through ``quadham.cli.main`` in
    this process; an exception that leaves it ends the call as it would end
    the interpreter: exit 1 with a traceback on stderr."""
    from quadham import cli
    import oracles
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(task.argv))
        except SystemExit as exc:  # argparse rejected the arguments
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # noqa: BLE001 - the crash is the outcome
            traceback.print_exc()
            code = 1
    return Outcome(task, 0.0, oracles.check_cli(task, code, out.getvalue(),
                                                err.getvalue()))


def run_inprocess(task, tracer):
    from quadham.errors import QuadhamError
    inputs = task.inputs()
    if tracer is not None:
        tracer.enabled = True
    t0 = perf_counter()
    try:
        out = task.run(inputs)
        problem = None
    except QuadhamError as exc:
        problem = f"typed error {exc.code!r} on valid input: {exc}"
    except Exception as exc:  # a crash is a failed task; keep measuring
        problem = f"{type(exc).__name__}: {exc}"
    latency = perf_counter() - t0
    if tracer is not None:
        tracer.enabled = False
    if problem is None:
        problem = task.check(inputs, out)
    return Outcome(task, latency, problem)


def block_count(workload, seconds):
    return max(1, round(seconds / BLOCK_SECONDS[workload]))


def run_tasks(workload, seed, blocks, tracer=None):
    """Execute the first ``blocks`` blocks of the seeded sequence, drawn
    before the clock starts.

    With a ``tracer`` every task runs twice in a row, traced (in-process
    tasks under the tracer, CLI calls through the launcher) and then plain,
    so that the tracing overhead compares runs made under the same machine
    conditions.  Known-defect probes run after the timed tasks.  Returns
    (outcomes, plain outcomes, wall seconds, span exports of traced CLI
    calls, probe outcomes)."""
    import workloads
    outcomes, plain, exports, probes = [], [], [], []

    def execute(task, traced):
        index = len(outcomes)
        if workload != "cli_session":
            if traced:
                tracer.task = index
            return run_inprocess(task, tracer if traced else None)
        outcome, spans = run_cli(task, index, traced)
        if spans is not None:
            exports.append(spans)
        return outcome

    gen = workloads.blocks(workload, seed)
    tasks = [task for _ in range(blocks) for task in next(gen)]
    t_start = perf_counter()
    for task in tasks:
        if getattr(task, "defect", None):
            probes.append(task)
            continue
        outcomes.append(execute(task, tracer is not None))
        if tracer is not None:
            plain.append(execute(task, False))
    wall = perf_counter() - t_start
    return outcomes, plain, wall, exports, [run_probe(t) for t in probes]


# -- metrics ------------------------------------------------------------------

def end_to_end(workload, outcomes, wall, setup_s):
    lat = [o.latency for o in outcomes]
    passed = sum(1 for o in outcomes if o.problem is None)
    tail, pct, n = tail_latency(lat)
    if workload == "cli_session":
        rss = max(o.rss_mb for o in outcomes)
    else:
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {"setup_s": setup_s, "tasks_per_s": passed / wall,
               "task_p50_s": statistics.median(lat), "task_tail_s": tail,
               "peak_rss_mb": rss}
    return metrics, {"tail_percentile": pct, "tail_samples": n}


def traced_metrics(workload, seed, seconds):
    import tracing
    tracer = tracing.Tracer()
    if workload != "cli_session":
        tracer.install()
        tracer.enabled = False
    traced, plain, _, exports, probes = run_tasks(
        workload, seed, block_count(workload, seconds / 2), tracer)
    tracer.uninstall()
    if workload != "cli_session":
        exports = [tracer.export()]
    export = tracing.merge(exports)
    traced_s = sum(o.latency for o in traced)
    metrics = tracing.layer_metrics(export, traced_s)
    metrics["trace.overhead_ratio"] = (
        traced_s / sum(o.latency for o in plain) - 1.0)
    metrics["import.s"], metrics["import.scipy_s"] = import_times(workload)
    with open(os.path.join(OUT, f"spans-{workload}-{seed}.json"), "w",
              encoding="utf-8") as fh:
        json.dump(export, fh)
    return metrics, traced + plain, probes, {"traced_s": traced_s}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=tuple(SETUP_MODULES))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "quadham", "__init__.py")):
        print(f"quadham package not found under {SRC}", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    os.makedirs(os.path.join(OUT, "tmp"), exist_ok=True)
    build_status = build()
    sys.path.insert(0, SRC)
    sys.path.insert(1, HERE)
    # the traced run reports no set-up time
    setup_s = None if args.trace else measure_setup(args.workload)
    import workloads
    if args.workload != "cli_session":
        # let lazy set-up finish before timing: one untimed task
        run_inprocess(next(workloads.blocks(args.workload, args.seed))[0],
                      None)

    if args.trace:
        metrics, outcomes, probes, extra = traced_metrics(args.workload, args.seed,
                                                  args.seconds)
        wanted = spec["per_layer"]
    else:
        outcomes, _, wall, _, probes = run_tasks(args.workload, args.seed,
                                         block_count(args.workload,
                                                     args.seconds))
        metrics, extra = end_to_end(args.workload, outcomes, wall, setup_s)
        extra["wall_s"] = wall
        wanted = spec["end_to_end"]

    failures = [{"task": o.task.describe(), "reason": o.problem}
                for o in outcomes if o.problem is not None]
    known = [{"task": o.task.describe(), "defect": o.task.defect,
              "reason": o.problem} for o in probes]
    failed_probes = sum(1 for o in probes if o.problem is not None)
    record = {"environment": environment(args, build_status),
              "fail_ratio": (len(failures) + failed_probes)
              / (len(outcomes) + len(probes)),
              "failures": failures, "known_defects": known, **extra}
    print(json.dumps(record))
    print(json.dumps({
        "correct": not failures, "attempted": len(outcomes),
        "failed": len(failures),
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in wanted}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
