"""The model table against the numerical path, across its parameter box."""

import ast
import contextlib
import csv
import inspect
import io
import json
import math
import pathlib

import numpy as np
import pytest
from hypothesis import (Phase, example, given, reject, seed,
                        settings)
from hypothesis import strategies as st

from quadham import characteristic as chr_mod
from quadham import coefficients as coeff
from quadham import dynamics as dyn
from quadham import invariants as inv
from quadham import models
from quadham import propagator as prop
from quadham.characteristic import classical_flow
from quadham.cli import main
from quadham.errors import (CausticEncountered, InvalidModelParams,
                            NoClosedForm, NumericalError, QuadhamError)

import oracle40
from helpers import case_seed, first_zero

# the benchmark's tolerances (quadbench/oracles.py KERNEL_TOL,
# PROPAGATE_TOL, MOMENT_TOL, DRIFT_TOL)
KERNEL_TOL = 1e-7
PROPAGATE_TOL = 1e-6
MOMENT_TOL = 1e-8
DRIFT_TOL = 1e-8


def _close(got, ref, tol=KERNEL_TOL):
    return abs(got - ref) <= tol * max(1.0, abs(ref))


def test_model_ids_name_their_builders():
    assert models.MODEL_IDS == (
        models.CALDIROLA_KANAI, models.MODIFIED_CK, models.UNITED,
        models.MODIFIED_OSCILLATOR, models.CJ_COORDINATE, models.CJ_MOMENTUM,
        models.MODIFIED_PARAMETRIC, models.PARAMETRIC_SECH2,
        models.SIMPLE_HARMONIC, models.FREE_PARTICLE)
    # verify_all checks every record's catalogued invariant
    assert all(models.MODELS[m](1.0, 0.2, 0.1, 0.5).invariant is not None
               for m in models.MODEL_IDS)


def test_no_module_but_the_records_names_a_model_id():
    # a model is described in one place: no other module branches on its
    # id or names its constant, except coefficients' re-export line
    constants = {name for name, value in vars(models).items()
                 if isinstance(value, str) and value in models.MODEL_IDS}
    root = pathlib.Path(models.__file__).parent
    found = []
    for path in sorted(root.glob("*.py")):
        if path.name == "models.py":
            continue
        tree = ast.parse(path.read_text())
        reexport = {id(alias) for node in ast.walk(tree)
                    if path.name == "coefficients.py"
                    and isinstance(node, ast.ImportFrom)
                    and node.module == "models" for alias in node.names}
        for node in ast.walk(tree):
            if isinstance(node, ast.Constant):
                named = node.value in models.MODEL_IDS
            elif isinstance(node, ast.alias):
                named = node.name in constants and id(node) not in reexport
            else:
                named = getattr(node, "id", getattr(node, "attr", None)) \
                    in constants
            if named:
                found.append((path.name, node.lineno))
    assert found == []


def _owners(picked):
    """(module, function) of each node of the package that ``picked``
    takes, with the innermost function around it (None at module level)."""
    found = []
    for path in sorted(pathlib.Path(models.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        parent = {child: node for node in ast.walk(tree)
                  for child in ast.iter_child_nodes(node)}
        for node in filter(picked, ast.walk(tree)):
            while node in parent and not isinstance(node, ast.FunctionDef):
                node = parent[node]
            found.append((path.stem, getattr(node, "name", None)))
    return found


def test_one_caustic_guard_for_every_kernel_reader():
    # MU_GUARD is read, and the guard band's refusal raised, in one
    # function, which every kernel reader calls
    def reads_guard(node):
        # a name or attribute that is not assigned, or an import of it
        names = [getattr(node, key, None) for key in ("id", "attr", "name")]
        return "MU_GUARD" in names and not isinstance(
            getattr(node, "ctx", None), ast.Store)

    def raises_band(node):
        return isinstance(node, ast.Raise) and any(
            getattr(n, "value", None) == "mu is inside the caustic guard band"
            for n in ast.walk(node))

    guard = [("characteristic", "_served")]
    assert _owners(reads_guard) == guard
    assert _owners(raises_band) == guard
    readers = {"kernel_parameters", "closed_form_kernel", "green_eval",
               "propagate_gaussian", "propagate_grid"}
    assert {fn for _, fn in _owners(
        lambda n: getattr(getattr(n, "func", None), "id", None) == "_served"
    )} == readers


def test_one_reader_of_the_coefficients():
    # no code but quadham.ode.read calls a coefficient of a TimeCoefficients
    # (a, b, c, d, a', c', d'), so each refuses a failing one alike
    coefficient = {"a", "b", "c", "d", "da", "dc", "dd"}
    assert _owners(lambda n: isinstance(n, ast.Call) and getattr(
        n.func, "attr", None) in coefficient) == []
    assert set(_owners(
        lambda n: getattr(getattr(n, "func", None), "id", None) == "read"
    )) == {("ode", "_exponent"), ("ode", "solve_ivp"),
           ("gridsim", "evolve_grid"),
           ("characteristic", "_mu"),
           ("invariants", "_pinney")}


def test_no_module_reads_a_coefficient_derivative():
    # nothing in the package reads a', c' or d' of a TimeCoefficients, by
    # attribute or by name, and the invariants read H at t = 0 alone: the
    # data of Pinney's superposition; every later value is the flow's
    def reads_derivative(node):
        if isinstance(node, ast.Attribute):
            return node.attr in {"da", "dc", "dd"} and isinstance(
                node.ctx, ast.Load)
        return isinstance(node, ast.Constant) and node.value in {
            "da", "dc", "dd"}

    assert _owners(reads_derivative) == []
    reads = [n for n in ast.walk(ast.parse(inspect.getsource(inv)))
             if isinstance(n, ast.Call) and getattr(n.func, "id", None)
             == "read"]
    assert len(reads) == 1
    assert [ast.literal_eval(n.args[1]) for n in reads] == [0.0]


def test_models_is_a_leaf():
    # the record module imports math and the error types, nothing else,
    # and reads only the names of math that the 40-digit oracle binds
    tree = ast.parse(inspect.getsource(models))
    imports = [(n.level, n.module) if isinstance(n, ast.ImportFrom)
               else (0, n.names[0].name) for n in ast.walk(tree)
               if isinstance(n, (ast.Import, ast.ImportFrom))]
    assert sorted(imports) == [(0, "math"), (1, "errors")]
    names = {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)
             and getattr(n.value, "id", None) == "math"}
    assert names == set(oracle40.MATH_NAMES)


@pytest.mark.parametrize("model_id", coeff.MODEL_IDS)
def test_closed_forms_match_numerical_path(request, model_id):
    @seed(case_seed(request))
    @settings(max_examples=20, deadline=None, derandomize=True)
    @given(omega0=st.floats(0.5, 2.0), lam=st.floats(0.0, 0.6),
           mu_param=st.floats(0.0, 0.3), delta=st.floats(0.2, 1.5),
           t_end=st.floats(0.1, 1.2))
    def case(omega0, lam, mu_param, delta, t_end):
        try:
            spec = coeff.ModelSpec(model_id, omega0, lam, mu_param, delta)
        except InvalidModelParams:
            reject()
        tc = coeff.builtin_coefficients(spec)
        path = chr_mod.classical_flow(tc)
        for t in np.linspace(t_end / 5, t_end, 5):
            for got, want in zip(path.mu(float(t)),
                                 chr_mod.closed_form_mu(spec, float(t))):
                assert _close(got, want)

        zero = first_zero(path)
        hi = t_end if zero is None else min(t_end, 0.9 * zero)
        for t in np.linspace(hi / 5, hi, 5):
            kp = chr_mod.kernel_parameters(tc, path, float(t))
            ref = chr_mod.closed_form_kernel(spec, float(t))
            for name in ("mu", "mu_prime", "h", "alpha", "beta", "gamma"):
                assert _close(getattr(kp, name), getattr(ref, name)), name

        try:
            form = inv.energy_operator_catalog(spec, 0.0)
        except NoClosedForm:
            return
        m0 = dyn.SecondMoments(p2=1.1, x2=0.9, pxxp=0.2)
        flow = classical_flow(coeff.catalog_coefficients(spec))
        moments = dyn.evolve_second_moments(flow, m0)
        ref = form.expectation(m0.p2, m0.x2, m0.pxxp)
        for t in np.linspace(t_end / 5, t_end, 5):
            m, raw = moments(float(t))
            m = dyn.SecondMoments(*map(raw, m))
            got = inv.energy_operator_catalog(spec, float(t)).expectation(
                m.p2, m.x2, m.pxxp)
            assert abs(got - ref) <= DRIFT_TOL * max(abs(ref), 1e-30)

    case()


def _error_types():
    found, todo = set(), [QuadhamError]
    while todo:
        cls = todo.pop()
        found.add(cls.__name__)
        todo.extend(cls.__subclasses__())
    return found


def _cli_stdout(argv):
    """The stdout of a CLI call, or None when the call exits 2 or 3 with a
    strict-JSON record of a typed error."""
    def refuse(constant):
        raise ValueError(f"{constant} is not JSON")

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    if code == 0:
        return out.getvalue()
    assert code in (2, 3), err.getvalue()
    assert out.getvalue() == ""
    assert json.loads(err.getvalue(), parse_constant=refuse)["type"] in \
        _error_types()
    return None


def _cli_rows(argv, header):
    """The CSV rows of a CLI call as floats, or None when the call exits 2
    or 3 with a strict-JSON record of a typed error."""
    text = _cli_stdout(argv)
    if text is None:
        return None
    rows = list(csv.reader(io.StringIO(text)))
    assert rows[0] == header
    return [[float(v) for v in row] for row in rows[1:]]


def _gaussian_moments(spec, s0, t):
    """Raw moments at t of the Gaussian s0 over its initial norm, from the
    closed-form kernel (quadbench/oracles.py gaussian_moments); None in the
    caustic guard band, where the closed form is refused."""
    if t == 0.0:
        m = s0.moments()
    else:
        try:
            kp = chr_mod.closed_form_kernel(spec, t)
        except CausticEncountered:
            return None
        m = prop.propagate_gaussian(kp, s0).moments()
    return {k: v / s0.norm_sq() for k, v in m.items()}


# no explain phase: it reruns a failing example about 500 times, a minute
# per model here
@pytest.mark.parametrize("model_id", coeff.MODEL_IDS)
def test_cli_mu_and_moments_match_closed_forms(request, model_id):
    @seed(case_seed(request))
    @settings(max_examples=10, deadline=None, derandomize=True,
              phases=[Phase.explicit, Phase.reuse, Phase.generate,
                      Phase.shrink])
    @given(omega0=st.floats(0.5, 2.0), lam=st.floats(0.0, 0.6),
           mu_param=st.floats(0.0, 0.3), delta=st.floats(0.2, 1.5),
           t_end=st.floats(0.1, 3.0), samples=st.integers(1, 12),
           width=st.tuples(st.floats(-0.2, 0.2), st.floats(0.3, 1.0)),
           shift=st.tuples(st.floats(-0.5, 0.5), st.floats(-0.3, 0.3)))
    def case(omega0, lam, mu_param, delta, t_end, samples, width, shift):
        # each row as quadbench/oracles.py cli_mu and cli_moments check it, on
        # windows inside the model's stated limit
        try:
            spec = coeff.ModelSpec(model_id, omega0, lam, mu_param, delta)
        except InvalidModelParams:
            reject()
        t_end = min(t_end, 0.98 * spec.model.t_max)
        # --flag=value, because argparse reads "-1e-05" as an option
        flags = ["--model", model_id, f"--omega0={omega0!r}",
                 f"--lambda={lam!r}", f"--mu-param={mu_param!r}",
                 f"--delta={delta!r}",
                 f"--t-end={t_end!r}", f"--samples={samples}"]

        rows = _cli_rows(["mu", *flags], ["t", "mu", "mu_prime"])
        for t, mu, mup in rows or ():
            ref_mu, ref_mup = chr_mod.closed_form_mu(spec, t)
            assert 0.0 < t <= t_end
            assert _close(mu, ref_mu) and _close(mup, ref_mup), t

        s0 = prop.GaussianState(Lambda=complex(*width), Theta=complex(*shift))
        m0 = _gaussian_moments(spec, s0, 0.0)
        rows = _cli_rows(["moments", *flags, *(f"--{k}={m0[k]!r}"
                                               for k in ("p2", "x2", "pxxp"))],
                         ["t", "p2", "x2", "pxxp", "norm"])
        record = spec.model
        energy = (record.expectation is not None
                  and record.invariant_hamiltonian is record.hamiltonian)
        for t, p2, x2, pxxp, norm in rows or ():
            ref = _gaussian_moments(spec, s0, t)
            if ref is not None:
                for got, key in ((p2, "p2"), (x2, "x2"), (pxxp, "pxxp"),
                                 (norm, "norm")):
                    assert _close(got, ref[key], MOMENT_TOL), (key, t)
            if energy:
                A, B, C = dyn.reference_operator(spec, t)
                want = dyn.closed_form_expectation(
                    spec, dyn.SecondMoments(m0["p2"], m0["x2"], m0["pxxp"]), t)
                assert _close(A * p2 + B * x2 + 0.5 * C * pxxp, want,
                              MOMENT_TOL), t

    case()


def _before_caustic(spec, horizon, points=100):
    """A time before the first zero of the closed-form mu in (0, horizon]:
    the last point of a uniform grid before mu changes sign, or inf."""
    ts = [horizon * (i + 1) / points for i in range(points)]
    mus = [chr_mod.closed_form_mu(spec, t)[0] for t in ts]
    for i in range(points - 1):
        if mus[i] * mus[i + 1] <= 0.0:
            return ts[i]
    return math.inf


@pytest.mark.parametrize("model_id", coeff.MODEL_IDS)
def test_cli_green_and_propagate_match_closed_forms(request, model_id):
    @seed(case_seed(request))
    @settings(max_examples=10, deadline=None, derandomize=True,
              phases=[Phase.explicit, Phase.reuse, Phase.generate,
                      Phase.shrink])
    @given(omega0=st.floats(0.5, 2.0), lam=st.floats(0.0, 0.6),
           mu_param=st.floats(0.0, 0.3), delta=st.floats(0.2, 1.5),
           t_end=st.floats(0.1, 3.0), samples=st.integers(1, 12),
           width=st.tuples(st.floats(-0.2, 0.2), st.floats(0.3, 1.0)),
           shift=st.tuples(st.floats(-0.5, 0.5), st.floats(-0.3, 0.3)),
           point=st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)))
    def case(omega0, lam, mu_param, delta, t_end, samples, width, shift,
             point):
        # as quadbench/oracles.py cli_green and cli_propagate check them, on
        # windows before 0.9 x the first caustic and inside the stated limit
        try:
            spec = coeff.ModelSpec(model_id, omega0, lam, mu_param, delta)
        except InvalidModelParams:
            reject()
        t_end = min(t_end, 0.98 * spec.model.t_max,
                    0.89 * _before_caustic(spec, t_end))
        model = ["--model", model_id, f"--omega0={omega0!r}",
                 f"--lambda={lam!r}", f"--mu-param={mu_param!r}",
                 f"--delta={delta!r}"]

        x, y = point
        text = _cli_stdout(["green", *model, f"--t={t_end!r}", f"--x={x!r}",
                            f"--y={y!r}"])
        if text is not None:
            out = json.loads(text)
            ref = prop.green_eval(chr_mod.closed_form_kernel(spec, t_end),
                                  x, y)
            assert _close(out["re"], ref.real) and _close(out["im"], ref.imag)

        text = _cli_stdout(["propagate", *model, f"--t-end={t_end!r}",
                            f"--samples={samples}",
                            f"--lambda-re={width[0]!r}",
                            f"--lambda-im={width[1]!r}",
                            f"--theta-re={shift[0]!r}",
                            f"--theta-im={shift[1]!r}"])
        if text is None:
            return
        rows = list(csv.reader(io.StringIO(text)))
        assert rows[0] == ["t", "lambda_re", "lambda_im", "theta_re",
                           "theta_im",
                           "phi_re", "phi_im", "norm", "x_mean", "p_mean"]
        rows = [[float(v) for v in row] for row in rows[1:]]
        ts = [row[0] for row in rows]
        assert len(ts) == samples and 0.0 < ts[0] and ts[-1] <= t_end
        s0 = prop.GaussianState(Lambda=complex(*width), Theta=complex(*shift))
        for row in rows:
            s = prop.propagate_gaussian(
                chr_mod.closed_form_kernel(spec, row[0]), s0)
            m = s.moments()
            want = (s.Lambda.real, s.Lambda.imag, s.Theta.real, s.Theta.imag,
                    s.Phi.real, s.Phi.imag, m["norm"], m["x"], m["p"])
            for got, ref in zip(row[1:], want):
                assert _close(got, ref, PROPAGATE_TOL), row[0]

    case()


@pytest.mark.parametrize("model_id", coeff.MODEL_IDS)
def test_cli_kernel_and_uncertainty_match_closed_forms(request, model_id):
    @seed(case_seed(request))
    @settings(max_examples=10, deadline=None, derandomize=True,
              phases=[Phase.explicit, Phase.reuse, Phase.generate,
                      Phase.shrink])
    @given(omega0=st.floats(0.5, 2.0), lam=st.floats(0.0, 0.6),
           mu_param=st.floats(0.0, 0.3), delta=st.floats(0.2, 1.5),
           t_end=st.floats(0.1, 3.0), samples=st.integers(1, 12),
           width=st.tuples(st.floats(-0.2, 0.2), st.floats(0.3, 1.0)),
           shift=st.tuples(st.floats(-0.5, 0.5), st.floats(-0.3, 0.3)))
    def case(omega0, lam, mu_param, delta, t_end, samples, width, shift):
        # the windows of the green/propagate sweep; kernel rows against the
        # closed-form kernel, the uncertainty variances against those of the
        # closed-form Gaussian moments
        try:
            spec = coeff.ModelSpec(model_id, omega0, lam, mu_param, delta)
        except InvalidModelParams:
            reject()
        t_end = min(t_end, 0.98 * spec.model.t_max,
                    0.89 * _before_caustic(spec, t_end))
        flags = ["--model", model_id, f"--omega0={omega0!r}",
                 f"--lambda={lam!r}", f"--mu-param={mu_param!r}",
                 f"--delta={delta!r}",
                 f"--t-end={t_end!r}", f"--samples={samples}"]

        fields = ["t", "mu", "mu_prime", "h", "alpha", "beta", "gamma"]
        rows = _cli_rows(["kernel", *flags], fields)
        for t, *values in rows or ():
            assert 0.0 < t <= t_end
            ref = chr_mod.closed_form_kernel(spec, t)
            for name, got in zip(fields[1:], values):
                assert _close(got, getattr(ref, name)), (name, t)

        s0 = prop.GaussianState(Lambda=complex(*width), Theta=complex(*shift))
        m0 = _gaussian_moments(spec, s0, 0.0)
        rows = _cli_rows(["uncertainty", *flags,
                          *(f"--{k}={m0[k]!r}" for k in ("p2", "x2", "pxxp")),
                          f"--x-mean={m0['x']!r}", f"--p-mean={m0['p']!r}"],
                         ["t", "dp2", "dx2", "margin", "excess"])
        for t, dp2, dx2, _, _ in rows or ():
            ref = _gaussian_moments(spec, s0, t)
            if ref is None:
                continue
            assert _close(dp2, ref["p2"] - ref["p"] ** 2 / ref["norm"],
                          MOMENT_TOL), t
            assert _close(dx2, ref["x2"] - ref["x"] ** 2 / ref["norm"],
                          MOMENT_TOL), t

    case()


@pytest.mark.parametrize("model_id", coeff.MODEL_IDS)
def test_cli_invariant_matches_closed_forms(request, model_id):
    @seed(case_seed(request))
    @settings(max_examples=10, deadline=None, derandomize=True,
              phases=[Phase.explicit, Phase.reuse, Phase.generate,
                      Phase.shrink])
    @given(omega0=st.floats(0.5, 2.0), lam=st.floats(0.0, 0.6),
           mu_param=st.floats(0.0, 0.3), delta=st.floats(0.2, 1.5),
           t_end=st.floats(0.1, 3.0), samples=st.integers(1, 12),
           width=st.tuples(st.floats(-0.2, 0.2), st.floats(0.3, 1.0)),
           shift=st.tuples(st.floats(-0.5, 0.5), st.floats(-0.3, 0.3)))
    def case(omega0, lam, mu_param, delta, t_end, samples, width, shift):
        # the record as quadbench/oracles.py cli_invariant checks it, on
        # windows inside the model's stated limit; a model without a catalogued
        # invariant exits 2
        try:
            spec = coeff.ModelSpec(model_id, omega0, lam, mu_param, delta)
        except InvalidModelParams:
            reject()
        t_end = min(t_end, 0.98 * spec.model.t_max)
        s0 = prop.GaussianState(Lambda=complex(*width), Theta=complex(*shift))
        m0 = _gaussian_moments(spec, s0, 0.0)
        text = _cli_stdout(
            ["invariant", "--model", model_id, f"--omega0={omega0!r}",
             f"--lambda={lam!r}", f"--mu-param={mu_param!r}",
             f"--delta={delta!r}", f"--t-end={t_end!r}",
             f"--samples={samples}",
             *(f"--{k}={m0[k]!r}" for k in ("p2", "x2", "pxxp"))])
        if text is None:
            return

        def refuse(constant):
            raise ValueError(f"{constant} is not JSON")

        record = json.loads(text, parse_constant=refuse)
        assert (record["model"], record["t_end"]) == (model_id, t_end)
        ref = inv.energy_operator_catalog(spec, 0.0).expectation(
            m0["p2"], m0["x2"], m0["pxxp"])
        assert record["reference"] == pytest.approx(ref, rel=1e-12)
        assert 0.0 <= record["drift"] <= DRIFT_TOL

    case()


@pytest.mark.parametrize("model_id, params", [
    # OverflowError from omega0 ** 2 and ValueError from sqrt(omega0 / 2)
    (coeff.CALDIROLA_KANAI, {"omega0": 1e300}),
    (coeff.UNITED, {"omega0": -1.0}),
])
def test_record_formulas_that_fail_are_invalid_params(model_id, params):
    with pytest.raises(InvalidModelParams) as err:
        coeff.ModelSpec(model_id, **params)
    assert err.value.info["model"] == model_id


@pytest.mark.parametrize("model_id, params", [
    # 1 / tanh(delta)^2 divides by zero, omega0 ** 2 overflows
    (coeff.MODIFIED_PARAMETRIC, {"delta": 1e-300}),
    (coeff.PARAMETRIC_SECH2, {"omega0": 1e300}),
])
def test_closed_forms_that_fail_are_numerical_errors(model_id, params):
    spec = coeff.ModelSpec(model_id, **params)
    with pytest.raises(NumericalError) as err:
        inv.energy_operator_catalog(spec, 0.0)
    assert (err.value.info["model"], err.value.info["t"]) == (model_id, 0.0)


def test_united_invariant_mu_that_fails_is_a_numerical_error():
    # e^{-lambda t} overflows at lambda = -400, t = 2
    mu_fn = coeff.ModelSpec(coeff.UNITED, 1.0, -400.0, -400.0).closed_form(
        "invariant_mu")
    with pytest.raises(NumericalError) as err:
        mu_fn(2.0)
    assert (err.value.info["model"], err.value.info["t"]) == \
        (coeff.UNITED, 2.0)


# a parameter drawn log-uniformly over 1e-300 .. 1e300 with either sign, or
# one of the extremes
_PARAMETER = st.one_of(
    st.sampled_from((-1.0, 0.0, -0.0, 1e-300, -1e-300, 1e300, -1e300, 50.0,
                     0.5)),
    st.builds(lambda sign, exponent: sign * 10.0 ** exponent,
              st.sampled_from((1.0, -1.0)), st.floats(-300.0, 300.0)))


@seed(13167440463525080503500152682768889198263523456642731575259423420693791360550893371741254149994207490018967735269122)
@settings(max_examples=200, deadline=None, derandomize=True)
@given(command=st.sampled_from(("mu", "kernel", "green", "propagate",
                                "moments", "invariant", "uncertainty")),
       model_id=st.sampled_from(coeff.MODEL_IDS),
       flag=st.sampled_from(("--omega0", "--lambda", "--mu-param",
                             "--delta")),
       value=_PARAMETER)
@example(command="mu", model_id="caldirola_kanai", flag="--omega0",
         value=1e300)
@example(command="mu", model_id="united", flag="--omega0", value=-1.0)
@example(command="invariant", model_id="modified_parametric",
         flag="--delta", value=1e-300)
@example(command="invariant", model_id="parametric_sech2", flag="--omega0",
         value=1e300)
@example(command="moments", model_id="modified_parametric", flag="--delta",
         value=1e-150)
@example(command="uncertainty", model_id="modified_parametric",
         flag="--delta", value=1e-150)
@example(command="invariant", model_id="modified_parametric",
         flag="--delta", value=1e-150)
def test_model_layer_failures_are_typed(command, model_id, flag, value):
    # every refusal of a model parameter at its extremes names a class of
    # quadham.errors (_cli_stdout asserts it), and a served table holds
    # finite numbers only (the JSON writer is strict)
    window = (["--t", "1", "--x", "0.3", "--y", "0.2"] if command == "green"
              else ["--t-end", "1"])
    text = _cli_stdout([command, "--model", model_id, f"{flag}={value!r}",
                        *window])
    if text is not None and command not in ("green", "invariant"):
        rows = list(csv.reader(io.StringIO(text)))[1:]
        assert all(math.isfinite(float(v)) for row in rows for v in row)


@pytest.mark.parametrize("t", [0.3, 1.1])
def test_cj_momentum_catalogue_is_the_fourier_dual_of_cj_coordinate(t):
    # x -> p, p -> -x takes H's (a, b, c, d) to (b, a, -d, -c) and an
    # invariant's (A, B, C, D) to (B, A, -D, -C): the two records' catalogued
    # H and invariant agree to the bit under it (+ 0.0 reads -0.0 as 0.0,
    # since a vanishing c or d has no sign)
    def bits(values):
        return [(v + 0.0).hex() for v in values]

    coord, mom = (coeff.ModelSpec(m, 1.3, 0.35)
                  for m in (coeff.CJ_COORDINATE, coeff.CJ_MOMENTUM))
    h, dual = (coeff.catalog_coefficients(s) for s in (coord, mom))
    a, b, c, d = (f(t) for f in (h.a, h.b, h.c, h.d))
    assert bits(f(t) for f in (dual.a, dual.b, dual.c, dual.d)) == bits(
        (b, a, -d, -c))
    A, B, C, D, _ = inv.energy_operator_catalog(coord, t)
    assert bits(inv.energy_operator_catalog(mom, t)[:4]) == bits(
        (B, A, -D, -C))
