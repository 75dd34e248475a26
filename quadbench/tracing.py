"""Spans around the calls into each quadham module, installed from outside
the package.

``Tracer.install`` replaces every public function of the traced modules,
and every public method of their public classes, with a wrapper; the
references other quadham modules hold to them are replaced too.  Each call
of a wrapped function records a span ``[name, layer, start, end, parent,
task, coeff_s, error, info]``.  The coefficients layer is different: its
functions and the coefficient callbacks run millions of times, so they are
timed and counted without spans, and their time is charged to the
innermost open span as ``coeff_s``.  Every ``TimeCoefficients`` a wrapped
function returns gets counting callbacks, which gives
``coefficients.evals``.  Spans stay in memory; the caller writes them out.
"""

import dataclasses
import functools
import inspect
import statistics
import sys
from time import perf_counter

import numpy as np

LAYERS = ("coefficients", "characteristic", "propagator", "gridsim",
          "dynamics", "invariants", "cli")
MODULE_LAYER = {"quadham.coefficients": "coefficients",
                "quadham.characteristic": "characteristic",
                "quadham.propagator": "propagator",
                "quadham.gridsim": "gridsim",
                "quadham.dynamics": "dynamics",
                "quadham.invariants": "invariants",
                "quadham.cli": "cli", "quadham.io": "cli"}
SUBCOMMANDS = ("list-models", "mu", "kernel", "green", "propagate", "moments",
               "invariant", "uncertainty", "appendix_d", "verify_all")
NAME, LAYER, START, END, PARENT, TASK, COEFF_S, ERROR, INFO = range(9)
_CALLBACKS = ("a", "b", "c", "d", "da", "db", "dc", "dd")


def self_times(spans):
    """Self time of each span: its duration minus the coefficient time
    charged to it and the time its child spans cover.  Spans come from one
    thread, so the children of a span never overlap."""
    out = [s[END] - s[START] - s[COEFF_S] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            out[s[PARENT]] -= s[END] - s[START]
    return out


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.task = None
        self.enabled = False
        self.counters = {"coefficients.calls": 0, "coefficients.errors": 0,
                         "coefficients.evals": 0, "coefficients.self_s": 0.0,
                         "dynamics.ode_solves": 0}
        self._coeff_depth = 0
        self._callback_depth = 0
        self._undo = []

    # -- bookkeeping ---------------------------------------------------------

    def _charge_coeff(self, elapsed):
        self.counters["coefficients.self_s"] += elapsed
        if self.stack:
            self.spans[self.stack[-1]][COEFF_S] += elapsed

    def _counted(self, fn):
        if fn is None or getattr(fn, "_quadbench_counted", False):
            return fn
        tracer = self

        def callback(t):
            if not tracer.enabled or tracer._callback_depth:
                # composed callbacks count once, at the outermost one
                return fn(t)
            tracer.counters["coefficients.evals"] += 1
            tracer._callback_depth += 1
            if tracer._coeff_depth:
                # already timed by the coefficient function that called it
                try:
                    return fn(t)
                finally:
                    tracer._callback_depth -= 1
            tracer._coeff_depth += 1
            t0 = perf_counter()
            try:
                return fn(t)
            finally:
                tracer._callback_depth -= 1
                tracer._coeff_depth -= 1
                tracer._charge_coeff(perf_counter() - t0)

        callback._quadbench_counted = True
        return callback

    def _wrap_result(self, result):
        from quadham.coefficients import TimeCoefficients
        if not isinstance(result, TimeCoefficients):
            return result
        counted = {k: self._counted(getattr(result, k)) for k in _CALLBACKS}
        if all(counted[k] is getattr(result, k) for k in _CALLBACKS):
            return result
        return dataclasses.replace(result, **counted)

    # -- wrappers ------------------------------------------------------------

    def _coeff_wrapper(self, fn):
        from quadham.errors import QuadhamError
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            tracer.counters["coefficients.calls"] += 1
            if tracer._coeff_depth:
                return tracer._wrap_result(fn(*args, **kwargs))
            tracer._coeff_depth += 1
            t0 = perf_counter()
            try:
                return tracer._wrap_result(fn(*args, **kwargs))
            except QuadhamError:
                tracer.counters["coefficients.errors"] += 1
                raise
            finally:
                tracer._coeff_depth -= 1
                tracer._charge_coeff(perf_counter() - t0)

        return wrapper

    def _span_wrapper(self, fn, layer, name):
        from quadham.errors import QuadhamError
        tracer = self
        info_of = _INFO.get(name)
        sig = inspect.signature(fn) if info_of else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.enabled or tracer._coeff_depth:
                return fn(*args, **kwargs)
            spans, stack = tracer.spans, tracer.stack
            parent = stack[-1] if stack else -1
            info = None
            if info_of:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                info = info_of(bound.arguments)
            rec = [name, layer, 0.0, 0.0, parent, tracer.task, 0.0, False,
                   info]
            stack.append(len(spans))
            spans.append(rec)
            rec[START] = perf_counter()
            try:
                return tracer._wrap_result(fn(*args, **kwargs))
            except QuadhamError:
                # count the error where it leaves the module
                rec[ERROR] = parent < 0 or spans[parent][LAYER] != layer
                raise
            finally:
                rec[END] = perf_counter()
                stack.pop()

        return wrapper

    def _count_solves(self, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.enabled:
                tracer.counters["dynamics.ode_solves"] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- install / uninstall -------------------------------------------------

    def _set(self, obj, attr, value):
        self._undo.append((obj, attr, getattr(obj, attr)))
        setattr(obj, attr, value)

    def install(self):
        """Wrap the public functions and methods of the traced modules."""
        import quadham.cli  # noqa: F401  (loads every traced module)
        import quadham.gridsim  # noqa: F401

        replaced = {}
        for modname, layer in MODULE_LAYER.items():
            mod = sys.modules[modname]

            def make(fn, label, layer=layer):
                if layer == "coefficients":
                    return self._coeff_wrapper(fn)
                return self._span_wrapper(fn, layer, label)

            for name, obj in list(vars(mod).items()):
                if name.startswith("_") or getattr(obj, "__module__",
                                                   None) != modname:
                    continue
                if inspect.isfunction(obj):
                    replaced[id(obj)] = (obj, make(obj, f"{layer}.{name}"))
                elif inspect.isclass(obj):
                    for mname, meth in list(vars(obj).items()):
                        if not mname.startswith("_") and inspect.isfunction(
                                meth):
                            self._set(obj, mname, make(
                                meth, f"{layer}.{obj.__name__}.{mname}"))
        for modname, mod in list(sys.modules.items()):
            if not (modname == "quadham" or modname.startswith("quadham.")):
                continue
            for name, obj in list(vars(mod).items()):
                hit = replaced.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._set(mod, name, hit[1])
        dyn = sys.modules["quadham.dynamics"]
        self._set(dyn, "solve_ivp", self._count_solves(dyn.solve_ivp))
        self.enabled = True

    def uninstall(self):
        self.enabled = False
        for obj, attr, value in reversed(self._undo):
            setattr(obj, attr, value)
        self._undo.clear()

    def export(self):
        return {"spans": self.spans, "counters": self.counters}


def _kernel_points(a):
    return int(np.size(a["t"]))


def _grid_shape(a):
    n_in = int(np.size(a["phi"].values))
    target = a.get("target_grid")
    return (int(target[2]) if target is not None else n_in, n_in)


def _point_steps(a):
    return (int(np.size(a["psi0"].values)), int(a["steps"]))


_INFO = {"characteristic.kernel_parameters": _kernel_points,
         "propagator.propagate_grid": _grid_shape,
         "gridsim.evolve_grid": _point_steps}


def merge(exports):
    """Concatenate the exports of several processes, fixing parent links."""
    spans, counters = [], {}
    for ex in exports:
        base = len(spans)
        for s in ex["spans"]:
            s = list(s)
            if s[PARENT] >= 0:
                s[PARENT] += base
            spans.append(s)
        for k, v in ex["counters"].items():
            counters[k] = counters.get(k, 0) + v
    return {"spans": spans, "counters": counters}


def layer_metrics(export, wall_s):
    """Per-layer metrics of one traced run (see BENCHMARK.json)."""
    spans, counters = export["spans"], export["counters"]
    selfs = self_times(spans)
    out = {}
    for layer in LAYERS:
        picked = [i for i, s in enumerate(spans) if s[LAYER] == layer]
        out[f"{layer}.self_s"] = sum(selfs[i] for i in picked)
        out[f"{layer}.calls"] = len(picked)
        out[f"{layer}.errors"] = sum(1 for i in picked if spans[i][ERROR])
    for key in ("self_s", "calls", "errors"):
        out[f"coefficients.{key}"] = counters.get(f"coefficients.{key}", 0)
    out["coefficients.evals"] = counters.get("coefficients.evals", 0)
    out["dynamics.ode_solves"] = counters.get("dynamics.ode_solves", 0)

    def duration(s):
        return s[END] - s[START]

    def top_level(layer):
        # spans of the layer not nested in another span of the same layer
        return [s for s in spans if s[LAYER] == layer and (
            s[PARENT] < 0 or spans[s[PARENT]][LAYER] != layer)]

    kernel = [s for s in spans if s[NAME] == "characteristic.kernel_parameters"]
    points = sum(s[INFO] for s in kernel)
    out["characteristic.kernel_points"] = points
    out["characteristic.s_per_kernel_point"] = (
        sum(duration(s) for s in top_level("characteristic")) / points
        if points else 0.0)
    out["propagator.grid_bytes"] = sum(
        16 * s[INFO][0] * s[INFO][1] for s in spans
        if s[NAME] == "propagator.propagate_grid")
    evolve = [s for s in spans if s[NAME] == "gridsim.evolve_grid"]
    steps = sum(s[INFO][0] * s[INFO][1] for s in evolve)
    busy = sum(duration(s) for s in evolve)
    out["gridsim.point_steps"] = steps
    out["gridsim.point_steps_per_s"] = steps / busy if busy else 0.0
    for n in (4096, 256):
        sel = [s for s in evolve if s[INFO][0] == n]
        busy_n = sum(duration(s) for s in sel)
        out[f"gridsim.point_steps_per_s.n{n}"] = (
            sum(s[INFO][0] * s[INFO][1] for s in sel) / busy_n
            if busy_n else 0.0)
    for sub in SUBCOMMANDS:
        name = "cli.cmd_" + sub.replace("-", "_")
        times = [duration(s) for s in spans if s[NAME] == name]
        out[f"cli.command_s.{sub}"] = statistics.median(times) if times else 0.0
    total_self = sum(selfs) + out["coefficients.self_s"]
    out["trace.self_share"] = total_self / wall_s if wall_s > 0 else 0.0
    return out
