"""Self-tests of the benchmark: seeded inputs, oracle checks, the tail
percentile rule, span arithmetic and the tracer.

Run: PYTHONPATH=src python -m pytest -q quadbench
"""

import json
import math
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import oracles  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from quadham import characteristic as chm  # noqa: E402
from quadham import coefficients as coeff  # noqa: E402
from quadham import propagator as prop  # noqa: E402

SHO = coeff.ModelSpec(coeff.SIMPLE_HARMONIC, omega0=1.2)


def _first_blocks(workload, seed, count=2):
    gen = workloads.blocks(workload, seed)
    return [t.describe() for _ in range(count) for t in next(gen)]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generator_is_deterministic(workload):
    assert _first_blocks(workload, 7) == _first_blocks(workload, 7)
    assert _first_blocks(workload, 7) != _first_blocks(workload, 8)


def test_cli_round_covers_every_subcommand():
    gen = workloads.blocks("cli_session", 3)
    rounds = [[t for t in next(gen) if t.defect is None] for _ in range(2)]
    assert all(sorted(t.command for t in r) == sorted(tracing.SUBCOMMANDS)
               for r in rounds)
    models = {t.spec.model_id for r in rounds for t in r if t.spec}
    models |= {m for r in rounds for t in r if t.command == "verify_all"
               for m in t.extra["models"]}
    assert models == set(coeff.MODEL_IDS)


def test_known_defects_become_probes():
    caustic = oracles.first_caustic(SHO)  # pi / 1.2
    assert workloads.known_defect("kernel", SHO, 1.1 * caustic)
    assert workloads.known_defect("propagate", SHO, 1.1 * caustic)
    assert workloads.known_defect("mu", SHO, 1.1 * caustic) is None
    assert workloads.known_defect("kernel", SHO, 0.45 * caustic) is None
    turning = oracles.first_turning(SHO)  # pi / 2.4
    assert workloads.known_defect("green", SHO, turning - 1e-4)
    assert workloads.known_defect("green", SHO, turning + 1e-3) is None
    assert workloads.known_defect("green", SHO, turning - 0.05) is None
    mo = coeff.ModelSpec(coeff.MODIFIED_OSCILLATOR)
    assert workloads.known_defect("mu", mo, 1.6)
    assert workloads.known_defect("moments", mo, 1.6) is None
    assert workloads.joined_negatives(
        ["moments", "--pxxp", "-1.5e-05", "--x2", "-0.5"]) == \
        ["moments", "--pxxp=-1.5e-05", "--x2", "-0.5"]
    gen = workloads.blocks("cli_session", 3)
    tasks = [t for _ in range(4) for t in next(gen)]
    probes = [t for t in tasks if t.defect]
    assert probes
    for probe in probes:
        if probe.argv == workloads.joined_negatives(probe.argv):
            assert workloads.known_defect(
                probe.command, probe.spec,
                probe.extra.get("t", probe.extra.get("t_end")))
    for task in tasks:
        if task.defect is None and task.spec is not None:
            assert task.argv == workloads.joined_negatives(task.argv)
            assert workloads.known_defect(
                task.command, task.spec,
                task.extra.get("t", task.extra.get("t_end"))) is None


def _numeric_kernel(spec, t):
    tc = coeff.builtin_coefficients(spec, coeff.EQUATION)
    return chm.kernel_parameters(tc, chm.solve_characteristic(tc, t), t)


def test_kernel_oracle_flags_perturbed_beta():
    kp = _numeric_kernel(SHO, 0.6)
    assert oracles.check_kernel(SHO, kp) is None
    bad = chm.KernelParameters(kp.t, kp.mu, kp.mu_prime, kp.h, kp.alpha,
                               kp.beta * (1 + 1e-6), kp.gamma)
    assert "beta" in oracles.check_kernel(SHO, bad)


def test_grid_oracle_flags_offset_values():
    n, half, t = 1024, 6.0, 0.4
    dx = 2 * half / (n - 1)
    s0 = prop.GaussianState(Lambda=0.8j, Theta=0.2)
    psi0 = prop.GridState(-half, dx, s0.eval(-half + dx * np.arange(n)))
    dense = prop.propagate_grid(_numeric_kernel(SHO, t), psi0).values
    exact = prop.propagate_gaussian(chm.closed_form_kernel(SHO, t),
                                    s0).eval(psi0.x)
    assert oracles.check_grid("dense", dense, exact) is None
    assert oracles.check_grid("dense", dense + 1e-3, exact) is not None


def _kernel_task(t_end):
    return workloads.CliTask("kernel", ["kernel"], SHO,
                             t_end < oracles.kernel_limit(SHO))


def _kernel_csv(ts, scale_beta=1.0):
    lines = ["t,mu,mu_prime,h,alpha,beta,gamma"]
    for t in ts:
        kp = chm.closed_form_kernel(SHO, t)
        lines.append(",".join(repr(v) for v in (
            t, kp.mu, kp.mu_prime, kp.h, kp.alpha, kp.beta * scale_beta,
            kp.gamma)))
    return "\r\n".join(lines) + "\r\n"


def test_cli_classification():
    ok = _kernel_task(1.0)
    text = _kernel_csv([0.5, 1.0])
    assert oracles.check_cli(ok, 0, text, "") is None
    assert oracles.check_cli(ok, 0, _kernel_csv([0.5, 1.0], 1 + 1e-6), "")
    assert oracles.check_cli(ok, 1, "", "")
    assert oracles.check_cli(ok, 1, "", "Traceback (most recent call "
                                        "last):\nTypeError: x\n")
    record = json.dumps({"error": "caustic_encountered"})
    assert oracles.check_cli(ok, 3, "", record)  # typed error, valid input
    beyond = _kernel_task(4.0)  # past the first caustic at pi / 1.2
    assert oracles.check_cli(beyond, 3, "", record) is None
    assert oracles.check_cli(beyond, 3, "", "not json")
    assert oracles.check_cli(beyond, 0, text, "") is None  # clipped window
    assert oracles.check_cli(beyond, 0, _kernel_csv([1.0, 3.0]), "")


@pytest.mark.parametrize("n, index, pct", [(20, 9, 50.0), (100, 89, 90.0),
                                           (1000, 989, 99.0),
                                           (40, 29, 75.0)])
def test_tail_percentile_rule(n, index, pct):
    samples = [float(i) for i in range(n)][::-1]
    value, got_pct, count = run.tail_latency(samples)
    assert (value, got_pct, count) == (float(index), pct, n)
    assert sum(1 for s in samples if s > value) == 10


def test_tail_percentile_with_few_samples():
    assert run.tail_latency([3.0, 1.0, 2.0]) == (3.0, 100.0, 3)


def _span(name, start, end, parent, coeff_s=0.0):
    layer = name.split(".")[0]
    return [name, layer, start, end, parent, 0, coeff_s, False, None]


def test_span_self_times():
    spans = [_span("cli.main", 0.0, 10.0, -1, coeff_s=1.0),
             _span("characteristic.a", 1.0, 3.0, 0),
             _span("characteristic.b", 4.0, 8.0, 0, coeff_s=0.5),
             _span("propagator.c", 5.0, 6.0, 2)]
    assert tracing.self_times(spans) == [3.0, 2.0, 2.5, 1.0]
    export = {"spans": spans, "counters": {"coefficients.self_s": 1.5}}
    m = tracing.layer_metrics(export, 10.0)
    assert m["cli.self_s"] == 3.0
    assert m["characteristic.self_s"] == 4.5
    assert m["propagator.self_s"] == 1.0
    assert m["trace.self_share"] == 1.0


def test_merge_offsets_parents():
    a = {"spans": [_span("cli.main", 0, 2, -1), _span("cli.x", 0, 1, 0)],
         "counters": {"coefficients.evals": 3}}
    merged = tracing.merge([a, a])
    assert [s[tracing.PARENT] for s in merged["spans"]] == [-1, 0, -1, 2]
    assert merged["counters"]["coefficients.evals"] == 6


def test_parse_importtime():
    text = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |     scipy._lib",
        "import time:       200 |        300 |   scipy",
        "import time:        50 |         50 |     scipy.integrate._ode",
        "import time:       400 |        450 |   scipy.integrate",
        "import time:      1000 |       1750 | quadham",
        "import time:        10 |         10 | quadham.cli",
    ])
    total, scipy = run.parse_importtime(text)
    assert math.isclose(total, 1760e-6)
    assert math.isclose(scipy, 750e-6)


def test_tracer_records_and_uninstalls():
    original = chm.kernel_parameters
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert chm.kernel_parameters is not original
        kp = _numeric_kernel(SHO, 0.6)
    finally:
        tracer.uninstall()
    assert chm.kernel_parameters is original
    assert oracles.check_kernel(SHO, kp) is None
    m = tracing.layer_metrics(tracer.export(), 1e9)
    assert m["characteristic.kernel_points"] == 1
    assert m["characteristic.calls"] >= 2
    assert m["coefficients.evals"] > 0 and m["coefficients.calls"] > 0


def test_benchmark_json_names_every_metric():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"),
              encoding="utf-8") as fh:
        spec = json.load(fh)
    e2e = {m["name"] for m in spec["end_to_end"]}
    layers = {m["name"] for m in spec["per_layer"]}
    names = {w["name"] for w in spec["workloads"]}
    assert names == set(workloads.WORKLOADS)
    with open(os.path.join(HERE, "expectations.json"),
              encoding="utf-8") as fh:
        for row in json.load(fh):
            assert set(row["per_layer"]) <= layers
            assert set(row["moves"]) <= e2e
            assert set(row["on"]) | set(row["not_on"]) <= names
    computed = tracing.layer_metrics({"spans": [], "counters": {}}, 1.0)
    extra = {"trace.overhead_ratio", "import.s", "import.scipy_s"}
    assert set(computed) | extra == layers
