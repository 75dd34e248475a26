import contextlib
import csv
import io
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import quadham
from quadham import characteristic as chr_mod
from quadham import coefficients as coeff
from quadham import dynamics as dyn
from quadham import invariants as inv
from quadham import io as qio
from quadham import propagator as prop
from quadham.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_format_value_round_trip():
    for v in (0.6, 1e-17, -3.25, math.pi, np.float64(0.6)):
        s = qio.format_value(v)
        assert float(s) == float(v)
        assert "np." not in s
    assert qio.format_value(True) == "true"
    assert qio.format_value("abc") == "abc"


def test_csv_round_trip(tmp_path):
    p = tmp_path / "t.csv"
    rows = [(0.1, "a,b", 2), (np.float64(0.3), "he said \"hi\"", -1)]
    qio.write_csv(str(p), ["x", "s", "n"], rows)
    header, got = qio.read_csv(str(p))
    assert header == ["x", "s", "n"]
    assert got[0] == ["0.1", "a,b", "2"]
    assert float(got[1][0]) == 0.3
    assert got[1][1] == 'he said "hi"'
    # RFC-4180 line endings
    assert b"\r\n" in p.read_bytes()


def test_config_round_trip(tmp_path):
    p = tmp_path / "model.ini"
    p.write_text("[model]\nmodel = caldirola_kanai\nomega0 = 1.5\n"
                 "lambda = 0.2\n")
    cfg = qio.read_config(str(p))
    assert cfg["model"]["model"] == "caldirola_kanai"
    assert float(cfg["model"]["omega0"]) == 1.5


def test_list_models(capsys):
    code, out, err = run(capsys, "list-models")
    assert code == 0
    lines = [ln for ln in out.splitlines() if ln.strip()]
    assert lines[0].startswith("model,")
    assert len(lines) == 11  # header + 10 models
    assert any("modified_parametric" in ln and "delta != 0" in ln
               for ln in lines)


def test_list_models_json(capsys):
    code, out, err = run(capsys, "list-models", "--json")
    assert code == 0
    data = json.loads(out)
    assert len(data) == 10
    assert {"model", "parameters", "constraint"} <= set(data[0])


def test_green_json(capsys):
    code, out, err = run(capsys, "green", "--model", "simple_harmonic",
                         "--omega0", "1.0", "--t", str(math.pi / 2),
                         "--x", "0.7", "--y", "-0.4")
    assert code == 0
    data = json.loads(out)
    expected = (math.cos(0.28) + 1j * math.sin(0.28)) / (2j * math.pi) ** 0.5
    g = complex(data["re"], data["im"])
    assert abs(g - complex(expected)) <= 1e-7


def test_mu_csv_deterministic(capsys, tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for p in (a, b):
        code = main(["mu", "--model", "caldirola_kanai", "--omega0", "1.0",
                     "--lambda", "0.1", "--t-end", "1.0", "--out", str(p)])
        assert code == 0
    assert a.read_bytes() == b.read_bytes()
    header, rows = qio.read_csv(str(a))
    assert header == ["t", "mu", "mu_prime"]
    assert len(rows) == 50


def test_kernel_csv(capsys):
    code, out, err = run(capsys, "kernel", "--model", "simple_harmonic",
                         "--omega0", "1.0", "--t-end", "2.0",
                         "--samples", "5")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].split(",") == ["t", "mu", "mu_prime", "h",
                                   "alpha", "beta", "gamma"]
    assert len([ln for ln in lines if ln.strip()]) == 6


def test_propagate_sweep(capsys):
    code, out, err = run(capsys, "propagate", "--model", "free_particle",
                         "--t-end", "1.0", "--samples", "4")
    assert code == 0
    header, *rows = [ln.split(",") for ln in out.splitlines() if ln.strip()]
    i = header.index("lambda_im")
    t_i = header.index("t")
    for row in rows:
        t = float(row[t_i])
        assert float(row[i]) == pytest.approx(1.0 / (2.0 * (1.0 + t * t)),
                                              rel=1e-8)


def _csv(out):
    header, *rows = [ln.split(",") for ln in out.splitlines() if ln.strip()]
    return [dict(zip(header, map(float, row))) for row in rows]


def _close(got, exp, tol=1e-7):
    return abs(got - exp) <= tol * max(1.0, abs(exp))


def test_kernel_window_past_caustic(capsys):
    # the window holds caustics at pi, 2 pi, ...; samples stop before the first
    code, out, err = run(capsys, "kernel", "--model", "simple_harmonic",
                         "--t-end", "20")
    assert code == 0
    spec = coeff.ModelSpec(coeff.SIMPLE_HARMONIC, 1.0)
    rows = _csv(out)
    assert len(rows) == 20
    for row in rows:
        assert row["t"] < math.pi
        ref = chr_mod.closed_form_kernel(spec, row["t"])
        for name in ("mu", "mu_prime", "h", "alpha", "beta", "gamma"):
            assert _close(row[name], getattr(ref, name))


def test_propagate_window_past_caustic(capsys):
    code, out, err = run(capsys, "propagate", "--model", "simple_harmonic",
                         "--t-end", "20")
    assert code == 0
    spec = coeff.ModelSpec(coeff.SIMPLE_HARMONIC, 1.0)
    rows = _csv(out)
    ts = [row["t"] for row in rows]
    assert len(ts) == 20 and max(ts) < math.pi
    states = prop.gaussian_sweep(
        lambda t: chr_mod.closed_form_kernel(spec, t), ts,
        prop.GaussianState(Lambda=0.5j, Theta=0j))
    for row, s in zip(rows, states):
        assert _close(row["lambda_re"], s.Lambda.real)
        assert _close(row["lambda_im"], s.Lambda.imag)


@pytest.mark.parametrize("argv", [
    ["mu", "--t-end", "3"],
    ["green", "--t", "3", "--x", "0.3", "--y", "-0.2"],
])
def test_past_stated_limit_is_refused(capsys, argv):
    # a(t) = cos^2 t of the modified oscillator vanishes at t_max = pi/2
    code, out, err = run(capsys, argv[0], "--model", "modified_oscillator",
                         *argv[1:])
    assert code == 3
    rec = json.loads(err.strip())
    assert rec["type"] == "SingularCoefficient"
    assert rec["module"] == "quadham.characteristic"


def test_inside_stated_limit_is_served(capsys):
    # a(t) = cos^2 t is 9.3e-9 at t = 1.5707: the kernel must not divide
    # by it
    spec = coeff.ModelSpec(coeff.MODIFIED_OSCILLATOR)
    code, out, err = run(capsys, "mu", "--model", "modified_oscillator",
                         "--t-end", "1.5")
    assert code == 0
    for row in _csv(out):
        mu, mup = chr_mod.closed_form_mu(spec, row["t"])
        assert _close(row["mu"], mu) and _close(row["mu_prime"], mup)
    code, out, err = run(capsys, "kernel", "--model", "modified_oscillator",
                         "--t-end", "1.5707", "--samples", "50")
    assert code == 0
    rows = _csv(out)
    assert len(rows) == 50
    for row in rows:
        ref = chr_mod.closed_form_kernel(spec, row["t"])
        for name in ("mu", "mu_prime", "h", "alpha", "beta", "gamma"):
            assert _close(row[name], getattr(ref, name))
    for t in (1.5, 1.5707):
        code, out, err = run(capsys, "green", "--model",
                             "modified_oscillator", "--t", str(t),
                             "--x", "0.3", "--y", "-0.2")
        assert code == 0
        data = json.loads(out)
        ref = prop.green_eval(chr_mod.closed_form_kernel(spec, t), 0.3, -0.2)
        assert _close(data["re"], ref.real) and _close(data["im"], ref.imag)


def test_moments_cmd(capsys):
    code, out, err = run(capsys, "moments", "--model", "simple_harmonic",
                         "--omega0", "1.0", "--t-end", "1.0",
                         "--samples", "5")
    assert code == 0
    header, *rows = [ln.split(",") for ln in out.splitlines() if ln.strip()]
    # norm column stays exactly 1 for a self-adjoint model
    n_i = header.index("norm")
    assert all(abs(float(r[n_i]) - 1.0) < 1e-10 for r in rows)


def test_invariant_cmd(capsys):
    code, out, err = run(capsys, "invariant", "--model", "caldirola_kanai",
                         "--omega0", "1.0", "--lambda", "0.1",
                         "--t-end", "2.0")
    assert code == 0
    data = json.loads(out)
    assert data["drift"] <= 1e-8


def test_invariant_drift_taken_over_samples(capsys, monkeypatch):
    # the drift is sampled at --samples times, not at a fixed count
    asked = []
    catalog = inv.energy_operator_catalog

    def spy(spec, t):
        asked.append(t)
        return catalog(spec, t)

    monkeypatch.setattr(inv, "energy_operator_catalog", spy)
    code, out, err = run(capsys, "invariant", "--model", "simple_harmonic",
                         "--t-end", "2.0", "--samples", "5")
    assert code == 0
    assert asked == pytest.approx([0.0, 0.4, 0.8, 1.2, 1.6, 2.0])
    assert json.loads(out)["drift"] <= 1e-8


def test_uncertainty_cmd(capsys):
    code, out, err = run(capsys, "uncertainty", "--model", "caldirola_kanai",
                         "--omega0", "1.0", "--lambda", "0.1",
                         "--t-end", "1.0", "--p2", "0.54", "--x2", "0.51",
                         "--pxxp", "0.04", "--x-mean", "0.1",
                         "--p-mean", "0.2")
    assert code == 0
    header, *rows = [ln.split(",") for ln in out.splitlines() if ln.strip()]
    m_i = header.index("margin")
    assert all(float(r[m_i]) >= -1e-10 for r in rows)


def test_appendix_d_cmd(capsys):
    code, out, err = run(capsys, "appendix_d", "--lambda", "0.2",
                         "--omega", "1.0", "--t-end", "3.0", "--samples", "7")
    assert code == 0
    header, *rows = [ln.split(",") for ln in out.splitlines() if ln.strip()]
    assert header == ["t", "y1", "y2", "y_particular", "z1", "z2"]
    assert len(rows) == 7


def test_config_file_with_flag_override(capsys, tmp_path):
    p = tmp_path / "m.ini"
    p.write_text("[model]\nmodel = caldirola_kanai\nomega0 = 1.0\n"
                 "lambda = 0.9\n")
    # lambda 0.9 would be rejected against omega0 1.0? no: 0.81 < 1, fine;
    # override with a flag and check the flag wins via the effective mu
    code, out, err = run(capsys, "mu", "--config", str(p),
                         "--lambda", "0.1", "--t-end", "1.0",
                         "--samples", "2")
    assert code == 0
    rows = [ln.split(",") for ln in out.splitlines() if ln.strip()][1:]
    w = math.sqrt(0.99)
    mu1 = (1.0 / w) * math.exp(-0.1) * math.sin(w)
    assert float(rows[-1][1]) == pytest.approx(mu1, rel=1e-7)


def test_validation_error_record(capsys):
    code, out, err = run(capsys, "mu", "--model", "caldirola_kanai",
                         "--omega0", "1.0", "--lambda", "2.0",
                         "--t-end", "1.0")
    assert code == 2
    rec = json.loads(err.strip())
    assert rec["type"] == "InvalidModelParams"
    assert rec["module"] == "quadham.coefficients"
    assert rec["info"].get("model") == "caldirola_kanai"


def test_numerical_error_exit_code(capsys):
    # asking for the kernel inside the caustic guard band fails numerically
    code, out, err = run(capsys, "green", "--model", "simple_harmonic",
                         "--omega0", "1.0", "--t", str(math.pi),
                         "--x", "0.0", "--y", "0.0")
    assert code == 3
    rec = json.loads(err.strip())
    assert rec["type"] == "CausticEncountered"
    assert rec["module"] == "quadham.characteristic"


@pytest.mark.parametrize("argv, error_type, info", [
    # complex info is written as [re, im]
    (["propagate", "--model", "simple_harmonic", "--t-end", "1",
      "--lambda-im", "-1"], "NonNormalizable", {"Lambda": [0.0, -1.0]}),
    (["mu", "--model", "simple_harmonic", "--t-end", "1", "--samples", "0"],
     "ValidationError", {"samples": 0}),
    (["kernel", "--model", "simple_harmonic", "--t-end", "1",
      "--samples", "0"], "ValidationError", {"samples": 0}),
    (["appendix_d", "--lambda", "0.2", "--omega", "1", "--t-start", "0",
      "--t-end", "2"], "ValidationError", {"t_start": 0.0}),
], ids=["complex_info", "mu_samples", "kernel_samples", "t_start"])
def test_bad_arguments_give_json_record(capsys, argv, error_type, info):
    code, out, err = run(capsys, *argv)
    assert code == 2
    rec = json.loads(err.strip())
    assert rec["type"] == error_type
    assert rec["info"] == info


@pytest.mark.parametrize("modules", [
    "quadham.cli",
    "quadham.characteristic, quadham.propagator, quadham.gridsim",
])
def test_import_leaves_scipy_signal_unloaded(modules):
    # scipy.signal takes over a second to import; no module may pull it in
    src = os.path.dirname(os.path.dirname(quadham.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    code = (f"import sys; import {modules}; "
            f"sys.exit('scipy.signal' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("module", ["quadham", "quadham.cli"])
def test_import_leaves_scipy_unloaded(module):
    # importing scipy.integrate cost most of a CLI call; only gridsim's
    # LAPACK stepper may load scipy, and neither module imports gridsim
    src = os.path.dirname(os.path.dirname(quadham.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    code = (f"import sys; import {module}; "
            "print(sorted(m for m in sys.modules "
            "if m.split('.')[0] == 'scipy'))")
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_tolerance_not_met_gives_json_record(capsys, monkeypatch):
    # every moment obeys y' = y^2 with y(0) = 1 (pxxp stays 0), which blows
    # up at t = 1: the step size underflows short of t_end
    def squared(tc, m, t):
        return dyn.SecondMoments(m.p2 ** 2, m.x2 ** 2, m.pxxp ** 2,
                                 m.norm ** 2)

    monkeypatch.setattr(dyn, "moment_derivative", squared)
    code, out, err = run(capsys, "moments", "--model", "simple_harmonic",
                         "--t-end", "2")
    assert code == 3
    assert out == ""
    rec = json.loads(err.strip())
    assert rec["type"] == "ToleranceNotMet"
    assert rec["module"] == "quadham.ode"
    assert rec["info"]["t"] == pytest.approx(1.0, abs=1e-6)


def test_error_module_under_python_m():
    # run as `python -m quadham.cli` the CLI module's __name__ is __main__
    src = os.path.dirname(os.path.dirname(quadham.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run(
        [sys.executable, "-m", "quadham.cli", "mu", "--model",
         "simple_harmonic", "--t-end", "1", "--samples", "0"],
        env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2
    assert json.loads(proc.stderr.strip())["module"] == "quadham.cli"


def test_missing_model_is_validation_error(capsys):
    code, out, err = run(capsys, "mu", "--t-end", "1.0")
    assert code == 2
    rec = json.loads(err.strip())
    assert rec["error"] == "validation"


def test_verify_all_quick_single_model(capsys):
    code, out, err = run(capsys, "verify_all", "--model",
                         "caldirola_kanai", "--budget", "quick")
    assert code == 0
    lines = [ln for ln in out.splitlines() if ln.strip()]
    assert lines and all(ln.startswith("PASS") for ln in lines)


# -- property test: every subcommand exits 0, 2 or 3 ------------------------

_VALUE = st.one_of(st.sampled_from([0.0, -1.0, 1e-9, 0.5, 1.0, 3.0]),
                   st.floats(-3.0, 3.0))
_T_END = st.one_of(st.sampled_from([0.0, -1.0, 1e-6, math.pi, 20.0]),
                   st.floats(-2.0, 12.0))
_SAMPLES = st.integers(-1, 40)
_MODEL_FLAGS = {"--model": st.sampled_from(coeff.MODEL_IDS),
                "--omega0": _VALUE, "--lambda": _VALUE,
                "--mu-param": _VALUE, "--delta": _VALUE}
_MOMENT_FLAGS = {**_MODEL_FLAGS, "--t-end": _T_END, "--samples": _SAMPLES,
                 "--p2": _VALUE, "--x2": _VALUE, "--pxxp": _VALUE}
_COMMANDS = {
    "list-models": {"--json": st.booleans()},
    "mu": {**_MODEL_FLAGS, "--t-end": _T_END, "--samples": _SAMPLES},
    "kernel": {**_MODEL_FLAGS, "--t-end": _T_END, "--samples": _SAMPLES},
    "green": {**_MODEL_FLAGS, "--t": _T_END, "--x": _VALUE, "--y": _VALUE},
    "propagate": {**_MODEL_FLAGS, "--t-end": _T_END, "--samples": _SAMPLES,
                  "--lambda-re": _VALUE, "--lambda-im": _VALUE,
                  "--theta-re": _VALUE, "--theta-im": _VALUE},
    "moments": _MOMENT_FLAGS,
    "invariant": _MOMENT_FLAGS,
    "uncertainty": {**_MOMENT_FLAGS, "--x-mean": _VALUE, "--p-mean": _VALUE},
    "appendix_d": {"--lambda": _VALUE, "--omega": _VALUE,
                   "--gamma-shift": _VALUE, "--t-start": _VALUE,
                   "--t-end": _T_END, "--samples": _SAMPLES},
    "verify_all": {"--model": st.sampled_from(("all",) + coeff.MODEL_IDS),
                   "--budget": st.just("quick")},
}
_JSON_OUT = ("green", "invariant")


@st.composite
def _argv(draw, command):
    argv = [command]
    for flag, values in _COMMANDS[command].items():
        value = draw(values)
        if value is True:
            argv.append(flag)
        elif value is not False:
            # --flag=value keeps a negative value from reading as a flag
            argv.append(f"{flag}={value!r}" if isinstance(value, float)
                        else f"{flag}={value}")
    return argv


def _parses(command, argv, out):
    if command in _JSON_OUT or "--json" in argv:
        json.loads(out)
    elif command == "verify_all":
        assert out and all(ln.startswith("PASS ")
                           for ln in out.splitlines())
    else:
        header, *rows = csv.reader(io.StringIO(out))
        assert all(len(row) == len(header) for row in rows)
        if command != "list-models":
            assert all(math.isfinite(float(v)) for row in rows for v in row)


@pytest.mark.parametrize("command", list(_COMMANDS))
@settings(max_examples=20, deadline=None, derandomize=True)
@given(data=st.data())
def test_every_subcommand_exits_0_2_or_3(command, data):
    argv = data.draw(_argv(command))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 2, 3), (argv, err.getvalue())
    if code == 0:
        _parses(command, argv, out.getvalue())
    else:
        lines = err.getvalue().splitlines()
        assert len(lines) == 1, (argv, err.getvalue())
        record = json.loads(lines[0])
        assert {"error", "type", "module", "message", "info"} <= set(record)
