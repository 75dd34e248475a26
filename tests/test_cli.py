import ast
import contextlib
import csv
import hashlib
import importlib
import io
import json
import math
import os
import pathlib
import subprocess
import sys

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, seed, settings
from hypothesis import strategies as st

import quadham
from quadham import characteristic as chr_mod
from quadham import coefficients as coeff
from quadham import dynamics as dyn
from quadham import invariants as inv
from quadham import io as qio
from quadham import models
from quadham import propagator as prop
from quadham.cli import main
from quadham.errors import NumericalError, ValidationError
from quadham.ode import MAX_STEPS
from helpers import (DYADIC_COVARIANCES, case_seed, run_fresh,
                     shifted_moments)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_csv_round_trip(tmp_path):
    p = tmp_path / "t.csv"
    floats = (1e-17, -3.25, math.pi, np.float64(0.6))
    rows = [(0.1, "a,b", 2), (np.float64(0.3), "he said \"hi\"", -1),
            *((v, "f", 0) for v in floats)]
    qio.write_csv(str(p), ["x", "s", "n"], rows)
    with open(p, newline="") as fh:
        header, *got = csv.reader(fh)
    assert header == ["x", "s", "n"]
    assert got[0] == ["0.1", "a,b", "2"]
    assert float(got[1][0]) == 0.3
    assert got[1][1] == 'he said "hi"'
    # each float is written as its shortest round-trip repr
    for row, v in zip(got[2:], floats):
        assert row == [repr(float(v)), "f", "0"]
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
    with open(a, newline="") as fh:
        header, *rows = csv.reader(fh)
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


def _caustic_refusal(capsys, command):
    # the window holds caustics at pi, 2 pi, ...; the samples of (0, 20]
    # reach them, and no row is written
    code, out, err = run(capsys, command, "--model", "simple_harmonic",
                         "--t-end", "20")
    assert code == 3
    assert out == ""
    assert len(err.splitlines()) == 1
    rec = json.loads(err)
    assert rec["type"] == "CausticEncountered"
    assert rec["module"] == "quadham.characteristic"


def test_kernel_window_past_caustic(capsys):
    _caustic_refusal(capsys, "kernel")


def test_propagate_window_past_caustic(capsys):
    _caustic_refusal(capsys, "propagate")


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


def test_sho_moments_on_a_long_window(capsys):
    # the oscillator's flow takes a step per quarter turn or so; the step
    # budget of the generic solver ran out at t = 639
    code, out, err = run(capsys, "moments", "--model", "simple_harmonic",
                         "--p2", "2", "--x2", "0.5", "--t-end", "1000")
    assert code == 0, err
    header, *rows = [ln.split(",") for ln in out.splitlines() if ln.strip()]
    assert header == ["t", "p2", "x2", "pxxp", "norm"]
    assert len(rows) == 50
    for row in rows:
        t, p2, x2, pxxp, norm = map(float, row)
        # x(t) = x cos t + p sin t, p(t) = p cos t - x sin t
        c, s = math.cos(t), math.sin(t)
        want = (2.0 * c * c + 0.5 * s * s, 0.5 * c * c + 2.0 * s * s,
                3.0 * s * c, 1.0)
        assert (p2, x2, pxxp, norm) == pytest.approx(want, abs=1e-8)


def test_damped_moments_on_a_long_window(capsys):
    # about 34 steps per unit of t: past the 3,500 steps the budget held
    # before the flow took Magnus steps
    code, out, err = run(capsys, "moments", "--model", "caldirola_kanai",
                         "--lambda", "0.1", "--t-end", "400")
    assert code == 0, err
    rows = [ln.split(",") for ln in out.splitlines()[1:] if ln.strip()]
    assert len(rows) == 50
    assert all(math.isfinite(float(v)) for row in rows for v in row)


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


@pytest.mark.parametrize("argv, t", [
    (["--lambda", "0", "--omega", "1", "--t-end", "1", "--samples", "3"],
     0.05),
    (["--lambda", "-0.2", "--omega", "1", "--gamma-shift", "0.1",
      "--t-start", "0.5", "--t-end", "1", "--samples", "2"], 0.5),
], ids=["lambda_zero", "u_zero_at_t_start"])
def test_appendix_d_singular_time_is_refused(capsys, argv, t):
    # lambda t + gamma = 0 at a sampled t, where coth(u) and 1/sinh(2u) are
    # singular; it ended in a bare ZeroDivisionError record with empty info
    code, out, err = run(capsys, "appendix_d", *argv)
    assert code == 3
    assert out == ""
    rec = json.loads(err)
    assert rec["type"] == "SingularCoefficient"
    assert (rec["module"], rec["info"]) == ("quadham.dynamics", {"t": t})


@pytest.mark.parametrize("argv, module, keys", [
    (["propagate", "--model", "caldirola_kanai", "--lambda", "0.3",
      "--t-end", "1.2", "--theta-im", "50"], "quadham.propagator",
     {"Lambda", "Theta", "Phi"}),
    (["appendix_d", "--lambda", "800", "--omega", "1", "--t-end", "2"],
     "quadham.dynamics", {"t"}),
    *[(["propagate", "--model", "simple_harmonic", "--t-end", "0.5",
        "--samples", "2", flag, value],
       "quadham.propagator", {"t"})
      for flag, value in (("--theta-re", "1e200"), ("--theta-im", "1e155"))],
    (["propagate", "--model", "simple_harmonic", "--t-end", "0.5",
      "--samples", "2", "--lambda-im", "1e-300", "--theta-im", "1e-149"],
     "quadham.propagator", {"Lambda", "Theta", "Phi"}),
    (["propagate", "--model", "simple_harmonic", "--t-end", "0.5",
      "--samples", "2", "--lambda-im", "1e308"],
     "quadham.propagator", {"t", "Lambda"}),
    # the flow's weight e^{+-I} at |I| = 900 ended in the backstop too.
    # uncertainty's margin times <1>^2 = e^{900} at t = 1.5, where
    # e^{-I} = e^{450}, is refused first, by the raw of its row
    *[([cmd, "--model", "united", "--lambda", "0.3", "--mu-param", mu_param,
        "--omega0", "400", "--t-end", "3", "--samples", "3"], module, keys)
      for cmd, mu_param, module, keys in (
          ("mu", "300", "quadham.characteristic", {"t", "I"}),
          ("moments", "-300", "quadham.characteristic", {"t", "I"}),
          ("uncertainty", "-300", "quadham.characteristic", {"t", "I"}),
          ("invariant", "-300", "quadham.characteristic", {"t", "I"}))],
    # mu' = inf at I = 706.5, where e^I is finite, ended in quadham.io's
    # record, which names only the value
    (["mu", "--model", "united", "--lambda", "0.3", "--mu-param", "300",
      "--omega0", "400", "--t-end", "2.355", "--samples", "1"],
     "quadham.characteristic", {"t", "I"}),
], ids=["propagate_norm", "appendix_d_cosh", "propagate_theta_re",
        "propagate_theta_im", "propagate_moments", "propagate_width",
        "mu_weight", "moments_weight", "uncertainty_weight",
        "invariant_weight", "mu_product"])
def test_an_overflow_gives_a_typed_record(capsys, argv, module, keys):
    # the norm of the propagated Gaussian, cosh(lambda t) and Theta^2
    # overflow: each ended in the backstop's OverflowError record with empty
    # info; <x> and <x^2> times a finite norm overflow too, which ended in
    # quadham.io's record, naming no state.  A start state 1e308 wide in
    # Im Lambda is valid, and Im Lambda' underflows to 0: that was refused
    # as a bad input (NonNormalizable, exit 2) with no t
    code, out, err = run(capsys, *argv)
    assert code == 3 and out == ""
    rec = json.loads(err)
    assert (rec["type"], rec["module"]) == ("NumericalError", module)
    assert set(rec["info"]) == keys


_UNDERFLOW = ["uncertainty", "--model", "united", "--lambda", "0.3",
              "--mu-param", "300", "--omega0", "400"]


def test_a_small_weight_keeps_the_excess(capsys):
    # <1> = e^{-300 t}: dp2 dx2 of the raw moments underflowed, and the
    # excess read -0.5 at t = 1.47, 1.96 and 2.45, a state below the
    # Heisenberg bound, at exit 0
    code, out, err = run(capsys, *_UNDERFLOW, "--t-end", "2.45",
                         "--samples", "6")
    assert (code, err) == (0, "")
    excess = [float(r["excess"]) for r in csv.DictReader(io.StringIO(out))]
    assert excess[3:] == pytest.approx(
        [0.50177992637373, 1.73366011886980, 2.76955496474444], abs=1e-12)
    assert min(excess) >= 0.0


def test_a_weight_that_underflows_serves_zero_raw_columns(capsys):
    # from t = 2.49 on, <1> = e^{-300 t} rounds to 0; that was refused as a
    # NumericalError naming t and I.  The check reads the moments per unit
    # <1>, so the raw columns round to 0 and the excess stays finite
    code, out, err = run(capsys, *_UNDERFLOW, "--t-end", "3")
    assert (code, err) == (0, "")
    rows = list(csv.DictReader(io.StringIO(out)))
    zero = [r for r in rows if 300.0 * float(r["t"]) > 746.0]
    assert len(zero) == 9
    for r in zero:
        assert [float(r[k]) for k in ("dp2", "dx2", "margin")] == [0.0] * 3
    for r in rows:
        assert math.isfinite(float(r["excess"]))
        assert float(r["excess"]) >= 0.0


def test_raw_columns_keep_their_digits_where_the_norm_is_subnormal(capsys):
    # <1> = e^{-300 t} is subnormal from t = 2.37 on and was rounded before
    # it multiplied a moment: p2 read 3.4200679170944414e-12 at t = 2.4,
    # 1.6e-12 off the product, and 0.0 at t = 2.6, where it is 2.85e-38
    flags = ["--model", "united", "--lambda", "0.3", "--mu-param", "300",
             "--omega0", "400", "--t-end", "2.6", "--samples", "14",
             "--p2", "1e300", "--x2", "1e300"]
    code, out, err = run(capsys, "moments", *flags)
    assert (code, err) == (0, "")
    spec = coeff.ModelSpec("united", 400.0, 0.3, 300.0)
    flow = chr_mod.classical_flow(coeff.builtin_coefficients(spec))
    path = dyn.evolve_second_moments(flow, dyn.SecondMoments(1e300, 1e300))
    rows = list(csv.DictReader(io.StringIO(out)))
    assert float(rows[-1]["p2"]) > 0.0
    for r in rows:
        t = float(r["t"])
        weight = mpmath.exp(-mpmath.mpf(flow.at(t).i))
        for key, v in zip(("p2", "x2", "pxxp", "norm"), path(t)[0]):
            want = weight * v
            assert abs(float(r[key]) - want) <= (
                4.0 * 2.0 ** -53 * abs(want) + 2.0 ** -1074), (t, key)


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


@pytest.mark.parametrize("text, info", [
    ("model = caldirola_kanai\n", "path"),
    ("[model]\nmodel = caldirola_kanai\nomega0 = 1\nomega0 = 2\n", "path"),
    ("[model]\nmodel = caldirola_kanai\nlambda = fast\n", "key"),
], ids=["no_section_header", "duplicate_key", "not_a_number"])
def test_malformed_config_is_a_validation_error(capsys, tmp_path, text,
                                                info):
    # unrefused, configparser's errors end the CLI in a traceback with exit
    # 1, and a value float cannot read in an untyped ValueError record
    p = tmp_path / "m.ini"
    p.write_text(text)
    code, out, err = run(capsys, "mu", "--config", str(p), "--t-end", "1")
    assert (code, out) == (2, "")
    rec = json.loads(err.strip())
    assert rec["type"] == "ValidationError"
    assert rec["info"][info] == {"path": str(p), "key": "lambda"}[info]


def test_validation_error_record(capsys):
    code, out, err = run(capsys, "mu", "--model", "caldirola_kanai",
                         "--omega0", "1.0", "--lambda", "2.0",
                         "--t-end", "1.0")
    assert code == 2
    rec = json.loads(err.strip())
    assert rec["type"] == "InvalidModelParams"
    assert rec["module"] == "quadham.coefficients"
    assert rec["info"].get("model") == "caldirola_kanai"


def test_a_kernel_by_a_caustic_is_refused(capsys):
    # SHO 1e-10 before its caustic at pi: the absolute band |mu| < 1e-10
    # served beta = -5000001667.97, 1.0e-6 from the closed form, at exit 0
    code, out, err = run(capsys, "kernel", "--model", "simple_harmonic",
                         "--t-end", "3.1415926533897933", "--samples", "1")
    assert (code, out) == (3, "")
    rec = json.loads(err)
    assert rec["type"] == "CausticEncountered"
    assert set(rec["info"]) == {"t", "mu", "mu_prime"}


def test_a_kernel_with_a_small_weight_is_served(capsys):
    # united at mu_param = -300 has e^I = 1.9e-12 at t = 0.09, so mu =
    # 4.5e-12 fell inside the absolute band, though M12 = 2.38 there
    code, out, err = run(capsys, "kernel", "--model", "united", "--lambda",
                         "0.3", "--mu-param", "-300", "--omega0", "302",
                         "--t-end", "0.09", "--samples", "1")
    assert (code, err) == (0, "")
    row = list(csv.DictReader(io.StringIO(out)))[-1]
    ref = chr_mod.closed_form_kernel(
        coeff.ModelSpec(coeff.UNITED, 302.0, 0.3, -300.0), 0.09)
    for name in ("alpha", "beta", "gamma"):
        want = getattr(ref, name)
        assert abs(float(row[name]) - want) <= 1e-7 * max(1.0, abs(want))


def test_numerical_error_exit_code(capsys):
    # asking for the kernel inside the caustic guard band fails numerically
    code, out, err = run(capsys, "green", "--model", "simple_harmonic",
                         "--omega0", "1.0", "--t", str(math.pi),
                         "--x", "0.0", "--y", "0.0")
    assert code == 3
    rec = json.loads(err.strip())
    assert rec["type"] == "CausticEncountered"
    assert rec["module"] == "quadham.characteristic"


NONFINITE_WINDOWS = [(cmd, t_end)
                     for cmd in ("moments", "uncertainty", "invariant", "mu",
                                 "kernel", "propagate", "green")
                     for t_end in ("nan", "inf")]


def _window_argv(cmd, t_end):
    if cmd == "green":
        return [cmd, "--model", "simple_harmonic", "--t", t_end,
                "--x", "0", "--y", "0"]
    return [cmd, "--model", "simple_harmonic", "--t-end", t_end,
            "--samples", "3"]


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
    # omega = 0 divides by omega^2; it ended in a bare ZeroDivisionError
    (["appendix_d", "--lambda", "0.2", "--omega", "0", "--t-end", "1",
      "--samples", "2"], "ValidationError", {"option": "--omega",
                                             "value": 0.0}),
    # a non-finite model parameter is refused before any solve
    (["mu", "--model", "parametric_sech2", "--lambda", "nan", "--t-end", "1"],
     "InvalidModelParams", {"model": "parametric_sech2"}),
    (["mu", "--model", "modified_parametric", "--lambda", "0.3", "--delta",
      "nan", "--t-end", "1"],
     "InvalidModelParams", {"model": "modified_parametric"}),
    (["mu", "--model", "simple_harmonic", "--omega0", "inf", "--t-end", "1"],
     "InvalidModelParams", {"model": "simple_harmonic"}),
    (["moments", "--model", "caldirola_kanai", "--omega0", "inf",
      "--lambda", "0.1", "--t-end", "1"],
     "InvalidModelParams", {"model": "caldirola_kanai"}),
    # a non-finite window is refused before the flow is solved; the record
    # writes it as the string "nan" or "inf"
    *[(_window_argv(cmd, t_end), "ValidationError", {"t_end": t_end})
      for cmd, t_end in NONFINITE_WINDOWS],
], ids=["complex_info", "mu_samples", "kernel_samples", "t_start",
        "omega_zero",
        "nan_lambda", "nan_delta", "inf_omega0", "inf_omega0_moments",
        *[f"{t_end}_t_end_{cmd}" for cmd, t_end in NONFINITE_WINDOWS]])
def test_bad_arguments_give_json_record(capsys, argv, error_type, info):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert len(err.splitlines()) == 1
    rec = json.loads(err)
    assert rec["type"] == error_type
    assert rec["info"] == info


@pytest.mark.parametrize("command, t_end", [
    ("moments", "nan"), ("kernel", "inf"), ("kernel", "-inf")])
def test_error_records_are_strict_json(capsys, command, t_end):
    def refuse(constant):
        raise ValueError(f"{constant} is not JSON")

    code, out, err = run(capsys, command, "--model", "simple_harmonic",
                         f"--t-end={t_end}")
    assert code == 2
    rec = json.loads(err, parse_constant=refuse)
    assert rec["info"] == {"t_end": t_end}


_SHO = ["--model", "simple_harmonic"]
# the options no later guard reads: a nan in any of them used to exit 0 and
# print nan as the answer; --t-start refused a nan already, not an infinity.
# A nan or an infinity in --lambda-re or --lambda-im ended in an untyped
# ValueError record from the propagator's branch choice, or in
# NonNormalizable, neither naming the option
_NAN_OPTIONS = [
    *[(["green", *_SHO, "--t", "0.7", "--x", "0.3", "--y", "0.2"], flag)
      for flag in ("--x", "--y")],
    *[(["propagate", *_SHO, "--t-end", "1"], flag)
      for flag in ("--lambda-re", "--lambda-im", "--theta-re", "--theta-im")],
    *[([cmd, *_SHO, "--t-end", "1"], flag)
      for cmd in ("moments", "uncertainty")
      for flag in ("--p2", "--x2", "--pxxp")],
    *[(["uncertainty", *_SHO, "--t-end", "1"], flag)
      for flag in ("--x-mean", "--p-mean")],
    *[(["appendix_d", "--lambda", "0.2", "--omega", "1", "--t-end", "2"],
       flag) for flag in ("--lambda", "--omega", "--gamma-shift", "--t-end")],
]
NONFINITE_OPTIONS = [(*case, "nan") for case in _NAN_OPTIONS] + [
    (["appendix_d", "--lambda", "0.2", "--omega", "1", "--t-end", "3"],
     "--t-start", "inf"),
    *[(["propagate", *_SHO, "--t-end", "1"], flag, "inf")
      for flag in ("--lambda-re", "--lambda-im")]]


@pytest.mark.parametrize("argv, flag, value", NONFINITE_OPTIONS,
                         ids=[f"{argv[0]}{flag}={value}"
                              for argv, flag, value in NONFINITE_OPTIONS])
def test_nonfinite_options_are_refused(capsys, argv, flag, value):
    # given last, the value overrides one given before it
    code, out, err = run(capsys, *argv, f"{flag}={value}")
    assert code == 2 and out == ""
    rec = json.loads(err)
    assert rec["type"] == "ValidationError"
    assert rec["info"] == {"option": flag, "value": value}


@pytest.mark.parametrize("command", ["moments", "invariant", "uncertainty"])
@pytest.mark.parametrize("flag, value", [("--p2", -1.0), ("--x2", 0.0)])
def test_a_second_moment_that_is_not_positive_is_refused(capsys, command,
                                                          flag, value):
    # moments and uncertainty exited 0 with a wrong answer or ended in
    # InvalidMoments (exit 3), and invariant in a refusal naming no option
    code, out, err = run(capsys, command, *_SHO, "--t-end", "1",
                         "--samples", "2", f"{flag}={value}")
    assert code == 2 and out == ""
    rec = json.loads(err)
    assert rec["type"] == "ValidationError"
    assert rec["module"] == "quadham.cli"
    assert rec["info"] == {"option": flag, "value": value}


@pytest.mark.parametrize("flag, value, variance", [
    ("--x-mean", "5", -24.0), ("--p-mean", "2", -3.0),
    ("--x-mean", "1e200", "-inf")])
def test_a_mean_past_its_second_moment_is_refused(capsys, flag, value,
                                                  variance):
    # <x^2> = <p^2> = 1 by default; the first two ended in InvalidMoments
    # from quadham.dynamics (exit 3), a numerical failure for a bad input
    code, out, err = run(capsys, "uncertainty", *_SHO, "--t-end", "1",
                         "--samples", "2", flag, value)
    assert code == 2 and out == ""
    rec = json.loads(err)
    assert rec["type"] == "ValidationError"
    assert rec["module"] == "quadham.cli"
    assert rec["info"] == {"option": flag, "variance": variance}


@pytest.mark.parametrize("argv, info", [
    (["moments", "--t-end", "3", "--samples", "4", "--p2", "1", "--x2", "1",
      "--pxxp", "5"],
     {"p2": 1.0, "x2": 1.0, "pxxp": 5.0, "x_mean": 0.0, "p_mean": 0.0}),
    (["invariant", "--t-end", "1", "--pxxp", "-2.5"],
     {"p2": 1.0, "x2": 1.0, "pxxp": -2.5, "x_mean": 0.0, "p_mean": 0.0}),
    (["uncertainty", "--t-end", "1", "--samples", "3", "--p2", "1",
      "--p-mean", "1", "--x2", "1", "--x-mean", "1"],
     {"p2": 1.0, "x2": 1.0, "pxxp": 0.0, "x_mean": 1.0, "p_mean": 1.0}),
], ids=["moments", "invariant", "uncertainty"])
def test_initial_moments_of_no_state_are_refused(capsys, argv, info):
    # the centred covariance has det < 0: moments exited 0 with <p^2> =
    # -1.27 at t = 1, and uncertainty ended in InvalidMoments (exit 3)
    code, out, err = run(capsys, argv[0], *_SHO, *argv[1:])
    assert code == 2 and out == ""
    rec = json.loads(err)
    assert (rec["type"], rec["module"]) == ("ValidationError", "quadham.cli")
    assert rec["info"] == info


@pytest.mark.parametrize("command", ["moments", "invariant", "uncertainty"])
def test_a_determinant_past_the_float_range_is_refused(capsys, command):
    # (x2 - <x>^2)(p2 - <p>^2) - cov^2 read inf - inf = nan, and nan < 0
    # is false: moments and invariant exited 0, moments with <p^2> =
    # -2.6e199 at t = 0.5, and uncertainty ended in exit 3
    code, out, err = run(capsys, command, *_SHO, "--t-end", "1",
                         "--samples", "3", "--p2", "1e200", "--x2", "1e200",
                         "--pxxp", "3e200")
    assert code == 2 and out == ""
    rec = json.loads(err)
    assert (rec["type"], rec["module"]) == ("ValidationError", "quadham.cli")
    assert rec["info"] == {"p2": 1e200, "x2": 1e200, "pxxp": 3e200,
                           "x_mean": 0.0, "p_mean": 0.0}


def _uncertainty_rows(*argv):
    """The rows ``uncertainty`` prints, as dicts of strings."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["uncertainty", *argv]) == 0
    return list(csv.DictReader(io.StringIO(out.getvalue())))


@pytest.mark.parametrize("x_mean, x2", [("1e6", "1000000000000.5"),
                                        ("1e7", "100000000000000.5")])
def test_a_coherent_state_far_out_stays_on_the_bound(x_mean, x2):
    # the exact excess is 0 at every t; with the means subtracted at t it
    # read 3.05e-5, -1.53e-5 and 6.10e-5 at x_mean 1e6, a state below the
    # bound at exit 0, and 9.7e-3 at t = 1 at 1e7
    rows = _uncertainty_rows(*_SHO, "--omega0", "1", "--t-end", "3",
                             "--samples", "4", "--x-mean", x_mean,
                             "--p-mean", "0", "--x2", x2, "--p2", "0.5",
                             "--pxxp", "0")
    assert len(rows) == 4
    for r in rows:
        assert abs(float(r["excess"])) <= 1e-15
        assert abs(float(r["margin"])) <= 1e-15
        assert abs(float(r["dp2"]) - 0.5) <= 1e-15
        assert abs(float(r["dx2"]) - 0.5) <= 1e-15


@seed(20261044)
@settings(max_examples=40, deadline=None, derandomize=True)
@given(model=st.sampled_from([
    ["--model", "simple_harmonic"],
    ["--model", "caldirola_kanai", "--lambda", "0.3"],
    ["--model", "united", "--lambda", "0.3", "--mu-param", "0.2"]]),
    cov=DYADIC_COVARIANCES, x_mean=st.integers(-2 ** 22, 2 ** 22),
    p_mean=st.integers(-2 ** 22, 2 ** 22))
def test_uncertainty_does_not_see_a_shift_of_the_means(model, cov, x_mean,
                                                       p_mean):
    # integer means on a grid covariance keep every moment and the
    # centring exact, so no printed bit may move; with the means
    # subtracted at t, a shift of 1e6 moved the excess by 3e-5
    def columns(x, p):
        p2, x2, pxxp, _, _ = shifted_moments(*cov, x, p)
        rows = _uncertainty_rows(
            *model, "--t-end", "2", "--samples", "5", f"--p2={p2!r}",
            f"--x2={x2!r}", f"--pxxp={pxxp!r}", f"--x-mean={x!r}",
            f"--p-mean={p!r}")
        return [[r[k] for k in ("dp2", "dx2", "margin", "excess")]
                for r in rows]

    assert columns(float(x_mean), float(p_mean)) == columns(0.0, 0.0)


def test_a_state_below_the_uncertainty_bound_is_reported(capsys):
    # det = 1/16 of the covariance is not negative, so the input is served,
    # with the broken bound as a negative margin from t = 0 on
    code, out, err = run(capsys, "uncertainty", *_SHO, "--t-end", "1",
                         "--samples", "2", "--p2", "0.25", "--x2", "0.25")
    assert code == 0 and err == ""
    rows = list(csv.DictReader(io.StringIO(out)))
    assert [float(r["margin"]) for r in rows] == [-0.1875, -0.1875]


def test_green_refuses_a_value_that_is_not_finite(capsys):
    # x^2 overflows, so the phase and the value are nan; the output was
    # a JSON success record with "re": NaN
    code, out, err = run(capsys, "green", *_SHO, "--t", "0.7",
                         "--x", "1e160", "--y", "0.2")
    assert code == 3 and out == ""
    rec = json.loads(err)
    assert rec["type"] == "NumericalError"
    assert rec["module"] == "quadham.propagator"


@pytest.mark.parametrize("x", ["1e9", "1000000000.0000001"])
def test_green_refuses_an_unresolved_phase(capsys, x):
    # alpha x^2 is about 5.9e17 rad, whose ulp is 128 rad: the two adjacent
    # floats printed (-0.2746, 0.4143) and (-0.1085, -0.4851), both exit 0
    code, out, err = run(capsys, "green", *_SHO, "--t", "0.7", "--x", x,
                         "--y", "0")
    assert code == 3 and out == ""
    rec = json.loads(err)
    assert (rec["type"], rec["module"]) == ("UnderResolved",
                                            "quadham.propagator")
    assert rec["info"]["phase_magnitude"] == pytest.approx(5.936e17,
                                                           rel=1e-3)


def test_green_serves_a_resolved_phase_far_out(capsys):
    spec = coeff.ModelSpec("simple_harmonic")
    for x, y in ((1e3, -1e3), (-1e3, 0.5), (0.0, 1e3)):
        code, out, err = run(capsys, "green", *_SHO, "--t", "0.7",
                             "--x", repr(x), "--y", repr(y))
        assert (code, err) == (0, "")
        data = json.loads(out)
        ref = prop.green_eval(chr_mod.closed_form_kernel(spec, 0.7), x, y)
        # the phase, about 2.7e6 rad, carries the kernel's rounding
        assert abs(complex(data["re"], data["im"]) - ref) <= 1e-6 * abs(ref)


def test_write_json_refuses_nan(capsys):
    with pytest.raises(NumericalError):
        qio.write_json(None, {"re": math.nan})
    assert capsys.readouterr().out == ""


def test_negative_values_in_any_float_form(capsys):
    # argparse alone reads "-1e-05" and "-inf" as options, not values
    base = ["moments", "--model", "simple_harmonic", "--t-end", "1",
            "--samples", "3"]
    joined = run(capsys, *base, "--pxxp=-1e-05")
    assert joined[0] == 0
    assert run(capsys, *base, "--pxxp", "-1e-05") == joined
    code, out, err = run(capsys, "kernel", "--model", "simple_harmonic",
                         "--t-end", "-inf")
    assert code == 2
    assert json.loads(err)["info"] == {"t_end": "-inf"}


@pytest.mark.parametrize("argv", [
    ["mu", "--model", "simple_harmonic", "--t-end", "abc"],
    ["mu", "--model", "simple_harmonic", "--t-end", "1", "--no-such-flag"],
    ["mu", "--model", "simple_harmonic"],
    ["no-such-command"], []],
    ids=["bad_float", "unknown_flag", "missing_flag", "bad_command",
         "no_command"])
def test_argument_errors_give_json_record(capsys, argv):
    def refuse(constant):
        raise ValueError(f"{constant} is not JSON")

    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert len(err.splitlines()) == 1
    rec = json.loads(err, parse_constant=refuse)
    assert (rec["error"], rec["type"]) == ("validation", "ValidationError")
    assert rec["module"] == "quadham.cli"


SUBCOMMANDS = ("list-models", "mu", "kernel", "green", "propagate", "moments",
               "invariant", "uncertainty", "appendix_d", "verify_all")
# a float option of each subcommand that has one
_FLOAT_OPTION = {"mu": "--t-end", "kernel": "--t-end", "green": "--x",
                 "propagate": "--lambda-re", "moments": "--p2",
                 "invariant": "--x2", "uncertainty": "--p-mean",
                 "appendix_d": "--omega"}
PARSER_CASES = [*[[cmd, "--help"] for cmd in SUBCOMMANDS],
                *[[cmd, flag, "abc"] for cmd, flag in _FLOAT_OPTION.items()],
                ["--help"], [], ["no-such-command"]]


@pytest.mark.parametrize("argv", PARSER_CASES,
                         ids=[" ".join(argv) or "none"
                              for argv in PARSER_CASES])
def test_one_subcommand_parser_reads_as_the_full_one(capsys, argv):
    # a call builds the parser of its own subcommand only; its usage and
    # error records must be those of the parser of all ten
    from quadham.cli import _build_parser

    try:
        _build_parser().parse_args(argv)
    except SystemExit as exc:
        want = (exc.code, capsys.readouterr().out, None)
    except ValidationError as exc:
        want = (2, capsys.readouterr().out, str(exc))
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    assert (code, out, json.loads(err)["message"] if err else None) == want
    if argv[:1] in (["--help"], ["no-such-command"]):
        # the usage and the error of a top-level argument list every one
        assert all(cmd in out + err for cmd in SUBCOMMANDS)


def test_help_still_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["mu", "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: quadham mu")


def test_jsonable_writes_non_finite_values_as_strings():
    from quadham.cli import _jsonable

    value = (1.5, float("nan"), complex(0.0, math.inf),
             [np.float64("-inf"), None, "x", 3])
    assert _jsonable(value) == [1.5, "nan", [0.0, "inf"],
                                ["-inf", None, "x", 3]]


def test_invariant_refuses_a_vanishing_reference():
    # modified_oscillator's invariant is (p2 - x2)/2 + ... at t = 0, which
    # the default moments p2 = x2 = 1 cancel: the relative drift read
    # 4.4e16 with exit 0
    src = os.path.dirname(os.path.dirname(quadham.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    argv = [sys.executable, "-m", "quadham.cli", "invariant", "--model",
            "modified_oscillator", "--t-end", "1.2"]
    proc = subprocess.run(argv, env=env, capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode == 2
    assert proc.stdout == ""
    rec = json.loads(proc.stderr)
    assert rec["type"] == "ValidationError"
    # the drift and its refusal live in quadham.invariants, shared with
    # gridsim.invariant_drift
    assert rec["module"] == "quadham.invariants"
    assert rec["info"] == {"reference": 0.0, "terms": 1.0}
    proc = subprocess.run(argv + ["--p2", "1.1"], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["drift"] <= 1e-8


def test_cancelled_reference_is_refused_before_any_solve(capsys, solves):
    # the drift reads its pairs lazily: E(0) = (p2 - x2)/2 = 0 is refused
    # before the flow that the later pairs need is solved
    code, out, err = run(capsys, "invariant", "--model",
                         "modified_oscillator", "--t-end", "1", "--p2", "1",
                         "--x2", "1")
    assert (code, out) == (2, "")
    assert set(json.loads(err)["info"]) == {"reference", "terms"}
    assert solves == []


def test_uncertainty_solves_one_flow(capsys, solves):
    code, out, err = run(capsys, "uncertainty", "--model", "caldirola_kanai",
                         "--lambda", "0.1", "--t-end", "3.0")
    assert code == 0
    # one side of one flow, solved one step past the window and no further
    assert [side.t[-2] < 3.0 <= side.t[-1] for side in solves] == [True]


@pytest.mark.parametrize("budget", ["quick", "full"])
@pytest.mark.parametrize("model_id, n_solves", [
    ("all", len(coeff.MODEL_IDS) + 1), (coeff.CJ_COORDINATE, 2),
    (coeff.CALDIROLA_KANAI, 1)])
def test_verify_all_one_flow_per_hamiltonian(capsys, solves, budget,
                                             model_id, n_solves):
    # H's flow serves the kernel, the moments and every check; only
    # cj_coordinate's catalogued invariant belongs to another H
    code, out, err = run(capsys, "verify_all", "--model", model_id,
                         "--budget", budget)
    assert code == 0
    assert len(solves) == n_solves


def _flow_reads(monkeypatch):
    """The times of every ``Flow.at`` call while the test runs."""
    reads, at = [], chr_mod.Flow.at

    def counting(flow, t):
        reads.append(t)
        return at(flow, t)

    monkeypatch.setattr(chr_mod.Flow, "at", counting)
    return reads


_CK = ["--model", "caldirola_kanai", "--lambda", "0.2", "--t-end", "3"]


@pytest.mark.parametrize("argv, n_reads", [
    (["moments", *_CK], 50), (["invariant", *_CK], 50),
    (["uncertainty", *_CK], 50), (["verify_all", "--budget", "full"], 790)],
    ids=["moments", "invariant", "uncertainty", "verify_all"])
def test_a_moment_row_reads_one_flow_point(capsys, monkeypatch, argv,
                                           n_reads):
    # a moment path returns its row's weight e^{-I} with the moments, so
    # each row reads the flow once: the 50 rows of a moment command, and
    # verify_all's invariant, uncertainty, energy and Ehrenfest rows.  A
    # weight read apart from its moments read each twice: 100 and 1,005
    reads = _flow_reads(monkeypatch)
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    assert len(reads) == n_reads


def test_moment_commands_serve_a_backward_window(capsys):
    # moments, invariant and uncertainty read the flow's backward side,
    # each row bitwise the library path's at its t; mu, kernel, green and
    # propagate refuse a window that is not positive
    flags = ["--model", "caldirola_kanai", "--lambda", "0.2"]
    window = ["--t-end", "-1.5", "--samples", "4"]
    spec = coeff.ModelSpec("caldirola_kanai", lam=0.2)
    flow = chr_mod.classical_flow(coeff.builtin_coefficients(spec))
    m0 = dyn.SecondMoments(1.0, 1.0)
    path = dyn.evolve_second_moments(flow, m0)
    for command in ("moments", "uncertainty"):
        code, out, err = run(capsys, command, *flags, *window)
        assert (code, err) == (0, "")
        rows = list(csv.DictReader(io.StringIO(out)))
        assert [float(r["t"]) for r in rows] == [0.0, -0.5, -1.0, -1.5]
        for r in rows:
            m, raw = path(float(r["t"]))
            u = dyn.uncertainty_check(m)
            want = ({"p2": raw(m.p2), "x2": raw(m.x2), "pxxp": raw(m.pxxp),
                     "norm": raw(m.norm)} if command == "moments" else
                    {"dp2": raw(u["dp2"]), "dx2": raw(u["dx2"]),
                     "margin": raw(raw(u["margin"])),
                     "excess": u["excess"]})
            assert {k: float(r[k]) for k in want} == want
    code, out, err = run(capsys, "invariant", *flags, *window)
    assert (code, err) == (0, "")
    data = json.loads(out)
    assert data["t_end"] == -1.5 and data["drift"] <= 1e-8
    for command, args in (("mu", window), ("kernel", window),
                          ("propagate", window),
                          ("green", ["--t", "-1.5", "--x", "0.1",
                                     "--y", "0.2"])):
        code, out, err = run(capsys, command, *flags, *args)
        assert (code, out) == (2, "")
        record = json.loads(err)
        assert record["message"] == "t_end must be positive and finite"
        assert record["info"] == {"t_end": -1.5}


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


@pytest.mark.parametrize("module",
                         ["quadham", "quadham.cli", "quadham.models"])
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


def test_cli_and_gridsim_load_every_traced_module():
    # quadbench/tracing.py Tracer.install imports quadham.cli and
    # quadham.gridsim, then reads the traced modules from sys.modules and
    # wraps quadham.dynamics.solve_ivp; the CLI imports its solvers lazily,
    # so gridsim's imports must load them
    loaded, has_solve_ivp = run_fresh(
        "import json, sys, quadham.cli, quadham.gridsim; "
        "print(json.dumps([sorted(sys.modules), "
        "hasattr(sys.modules['quadham.dynamics'], 'solve_ivp')]))")
    traced = {f"quadham.{m}" for m in (
        "coefficients", "characteristic", "propagator", "gridsim",
        "dynamics", "invariants", "cli", "io")}
    assert traced <= set(loaded)
    assert has_solve_ivp


def test_subcommands_import_only_what_they_run():
    # a top-level import of numpy or of a solver module would make every
    # CLI call pay for it; list-models needs no numpy, mu only the
    # characteristic solve, and no subcommand loads numpy: the flow and the
    # Gaussian propagator are plain float arithmetic
    stages = run_fresh("""
import contextlib, io, json, sys
import quadham.cli
stages = [["import", 0, sorted(sys.modules)]]
model = ["--model", "caldirola_kanai", "--lambda", "0.2"]
for argv in (["list-models"], ["mu", *model, "--t-end", "1"],
             ["kernel", *model, "--t-end", "1.4"],
             ["moments", *model, "--t-end", "3"],
             ["invariant", *model, "--t-end", "3"],
             ["uncertainty", *model, "--t-end", "3"],
             ["appendix_d", "--lambda", "0.2", "--omega", "1",
              "--t-end", "3"],
             ["verify_all", "--model", "united"],
             ["green", *model, "--t", "1", "--x", "0.3", "--y", "-0.2"],
             ["propagate", *model, "--t-end", "1.4"]):
    with contextlib.redirect_stdout(io.StringIO()):
        code = quadham.cli.main(argv)
    stages.append([argv[0], code, sorted(sys.modules)])
print(json.dumps(stages))
""")
    loaded = {name: set(modules) for name, _, modules in stages}
    assert [code for _, code, _ in stages] == [0] * 11
    # the import reads no model and makes no dataclass, which loads inspect;
    # list-models reads the model records alone
    assert not loaded["import"] & {"quadham.coefficients", "quadham.models",
                                   "dataclasses", "inspect"}
    assert not loaded["list-models"] & {"dataclasses", "quadham.coefficients"}
    assert not loaded["mu"] & {"quadham.invariants", "quadham.dynamics",
                               "quadham.propagator"}
    for name, _, _ in stages:
        assert "numpy" not in loaded[name], name
    assert "quadham.propagator" in loaded["green"]
    assert run_fresh("import json, sys, quadham.propagator; "
                     "print(json.dumps('numpy' in sys.modules))") is False
    # appendix_d, run first, reads the hyperbolic basis alone: no model
    # record, no flow and no dataclass
    code, modules = run_fresh("""
import contextlib, io, json, sys
import quadham.cli
with contextlib.redirect_stdout(io.StringIO()):
    code = quadham.cli.main(["appendix_d", "--lambda", "0.2", "--omega", "1",
                             "--t-end", "3"])
print(json.dumps([code, sorted(sys.modules)]))
""")
    assert code == 0
    assert not set(modules) & {"quadham.coefficients", "quadham.models",
                               "quadham.characteristic", "dataclasses"}


@example(0.0, 1.0, 1)
@example(0.7, 0.7, 1)
@example(0.7, 0.7, 5)
@example(2.0, -1.0, 4)
@example(1.2 / 20, 1.2, 20)
@seed(27449996717184319532736018838272688794174345872259125420637724851965935067447605319942292476149826106857058050281362)
@settings(max_examples=300, deadline=None, derandomize=True)
@given(start=st.floats(-1e3, 1e3), stop=st.floats(-1e3, 1e3),
       num=st.integers(1, 300))
def test_linspace_equals_numpy(start, stop, num):
    from quadham.cli import _linspace
    got = _linspace(start, stop, num)
    assert got == np.linspace(start, stop, num).tolist()
    assert all(type(t) is float for t in got)


SUBMODULES = ("coefficients", "models", "ode", "characteristic",
              "propagator", "invariants", "dynamics")


def test_the_package_root_binds_only_its_submodules():
    # a public name is read from its home submodule: the root serves
    # errors, the version and the submodules, and no function or class
    for sub in SUBMODULES:
        assert getattr(quadham, sub) is importlib.import_module(
            f"quadham.{sub}")
    assert quadham.errors is importlib.import_module("quadham.errors")
    assert quadham.__version__ == "0.1.0"
    star = {}
    exec("from quadham import *", star)
    assert set(star) - {"__builtins__"} == {"errors", *SUBMODULES}
    for name in ("classical_flow", "ModelSpec", "GridState",
                 "catalog_coefficients", "solve_ermakov"):
        assert not hasattr(quadham, name), name
    public = {name: value for name, value in vars(quadham).items()
              if not name.startswith("_")}
    assert all(isinstance(value, type(quadham))
               for value in public.values()), sorted(public)
    # catalog_coefficients lives in coefficients alone
    assert not hasattr(inv, "catalog_coefficients")


def test_the_package_root_is_the_one_lazy_loader():
    # a function reads a sibling module as an attribute of the package
    # root, whose __getattr__ imports it; no function imports one itself,
    # and no module keeps TYPE_CHECKING imports beside that loader
    root = pathlib.Path(quadham.__file__).parent
    found = []
    for path in sorted(root.rglob("*.py")):
        tree = ast.parse(path.read_text())
        for fn in ast.walk(tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for node in ast.walk(fn):
                if isinstance(node, ast.ImportFrom) and (
                        node.level or node.module.startswith("quadham")):
                    found.append(f"{path.name}:{node.lineno}")
                elif isinstance(node, ast.Import) and any(
                        a.name.startswith("quadham") for a in node.names):
                    found.append(f"{path.name}:{node.lineno}")
        found += [f"{path.name}:{node.lineno} TYPE_CHECKING"
                  for node in ast.walk(tree)
                  if "TYPE_CHECKING" in (getattr(node, "name", None),
                                         getattr(node, "id", None),
                                         getattr(node, "attr", None))]
    assert found == []


def test_every_error_class_is_named_outside_errors():
    # the error-code table holds no code that no module can raise
    root = pathlib.Path(quadham.__file__).parent
    defined = {node.name for node in ast.parse(
        (root / "errors.py").read_text()).body
        if isinstance(node, ast.ClassDef)}
    named = set()
    for path in root.rglob("*.py"):
        if path.name == "errors.py" and path.parent == root:
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
            elif isinstance(node, ast.alias):
                named.add(node.name)
    assert len(defined) == 18
    assert sorted(defined - named) == []


def test_bare_import_loads_submodules_on_first_use():
    before, names = run_fresh(
        "import json, sys, quadham; "
        "before = sorted(m for m in sys.modules if m.startswith('quadham')); "
        f"names = [getattr(quadham, m).__name__ for m in {SUBMODULES!r}]; "
        "print(json.dumps([before, names]))")
    assert before == ["quadham", "quadham.errors"]
    assert names == [f"quadham.{m}" for m in SUBMODULES]


def test_tolerance_not_met_gives_json_record(capsys):
    # finite coefficients of a frequency of 1e6: the window to t = 1 needs
    # more steps than the solve's budget
    code, out, err = run(capsys, "mu", "--model", "simple_harmonic",
                         "--omega0=1e6", "--t-end", "1")
    assert code == 3
    assert out == ""
    rec = json.loads(err.strip())
    assert rec["type"] == "ToleranceNotMet"
    assert rec["module"] == "quadham.ode"
    assert rec["info"]["steps"] + rec["info"]["rejected"] == MAX_STEPS


def test_singular_coefficient_gives_json_record(capsys, monkeypatch):
    # c = d = 1/2 divide by zero from t = 1 on, where the first node of a
    # try past 1 reads them
    zero = lambda t: 0.0
    rate = lambda t: 0.5 if t < 1.0 else 0.5 / 0.0
    monkeypatch.setitem(models.MODELS, coeff.SIMPLE_HARMONIC,
                        lambda *params: models.Model(
                            "omega0", "none", 1.0,
                            (zero, zero, rate, rate) + (zero,) * 3))
    code, out, err = run(capsys, "moments", "--model", "simple_harmonic",
                         "--t-end", "2")
    assert code == 3
    assert out == ""
    rec = json.loads(err.strip())
    assert rec["type"] == "SingularCoefficient"
    assert rec["module"] == "quadham.ode"
    assert rec["info"]["t"] == float.fromhex("0x1.02e475f15acbfp+0")


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


def _child_env():
    """The environment of a ``python -m quadham.cli`` child: the package on
    its path and PYTHONUNBUFFERED unset, so that a lost flush shows."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(quadham.__file__))
    return env


GREEN_ARGV = ["green", "--model", "simple_harmonic", "--t", "0.5", "--x",
              "0.1", "--y", "0.2"]


def test_closed_stdout_gives_the_record():
    # the flush of a short output into a pipe whose reader has gone failed
    # at interpreter exit: "Exception ignored ... BrokenPipeError", exit
    # 120.  A short output meets the closed pipe in the final flush, a long
    # one (past the pipe's buffer) in a write: both give one record
    def refuse(constant):
        raise ValueError(f"{constant} is not JSON")

    records = []
    for argv in (GREEN_ARGV, ["kernel", "--model", "caldirola_kanai",
                              "--lambda", "0.2", "--t-end", "1.4",
                              "--samples", "5000"]):
        read, write = os.pipe()
        os.close(read)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "quadham.cli", *argv], stdout=write,
                stderr=subprocess.PIPE, env=_child_env(), text=True,
                timeout=60)
        finally:
            os.close(write)
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert "Exception ignored" not in proc.stderr
        assert len(proc.stderr.splitlines()) == 1
        records.append(json.loads(proc.stderr, parse_constant=refuse))
    for rec in records:
        assert (rec["error"], rec["type"], rec["module"]) == (
            "validation", "BrokenPipeError", "quadham.io")
    assert records[0] == records[1]


@pytest.mark.parametrize("argv", [["mu", "--help"], ["--help"]],
                         ids=["subcommand", "top"])
def test_help_into_a_closed_stdout_gives_the_record(argv):
    # argparse writes the usage and raises SystemExit out of main; its
    # flush at interpreter exit failed: "Exception ignored", exit 120
    def refuse(constant):
        raise ValueError(f"{constant} is not JSON")

    read, write = os.pipe()
    os.close(read)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "quadham.cli", *argv], stdout=write,
            stderr=subprocess.PIPE, env=_child_env(), text=True, timeout=60)
    finally:
        os.close(write)
    assert proc.returncode == 2
    assert "Exception ignored" not in proc.stderr
    assert len(proc.stderr.splitlines()) == 1
    rec = json.loads(proc.stderr, parse_constant=refuse)
    assert (rec["error"], rec["type"]) == ("validation", "BrokenPipeError")


def test_help_into_an_open_pipe():
    proc = subprocess.run(
        [sys.executable, "-m", "quadham.cli", "mu", "--help"],
        capture_output=True, env=_child_env(), text=True, timeout=60)
    assert proc.returncode == 0
    assert proc.stdout.startswith("usage: quadham mu")
    assert proc.stderr == ""


def test_subprocess_output_is_complete(capsys, tmp_path):
    # more than a pipe's buffer, so that the output leaves in several
    # writes and the exit must not drop what is still buffered
    argv = ["kernel", "--model", "caldirola_kanai", "--lambda", "0.2",
            "--t-end", "1.4", "--samples", "5000"]
    code, want, _ = run(capsys, *argv)
    assert code == 0
    cli = [sys.executable, "-m", "quadham.cli", *argv]
    proc = subprocess.run(cli, env=_child_env(), capture_output=True,
                          timeout=60)
    assert (proc.returncode, proc.stderr) == (0, b"")
    assert proc.stdout == want.encode()
    path = tmp_path / "kernel.csv"
    proc = subprocess.run(cli + ["--out", str(path)], env=_child_env(),
                          capture_output=True, timeout=60)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, b"", b"")
    assert path.read_bytes() == want.encode()


@pytest.mark.parametrize("argv", [
    GREEN_ARGV, ["invariant", *_SHO, "--t-end", "1", "--samples", "3"],
    ["list-models", "--json"]], ids=lambda argv: argv[0])
def test_json_out_file_holds_what_stdout_would(capsys, tmp_path, argv):
    code, want, _ = run(capsys, *argv)
    assert code == 0 and json.loads(want)
    path = tmp_path / "out.json"
    assert run(capsys, *argv, "--out", str(path)) == (0, "", "")
    assert path.read_bytes() == want.encode()


def test_json_csv_and_traceback_load_only_where_used():
    def imported(argv):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-m", "quadham.cli", *argv],
            env=_child_env(), capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        return {line.rsplit("|", 1)[-1].strip()
                for line in proc.stderr.splitlines()
                if line.startswith("import time:")}

    mu = imported(["mu", "--model", "simple_harmonic", "--t-end", "1"])
    assert "csv" in mu
    assert not mu & {"json", "traceback"}
    green = imported(GREEN_ARGV)
    assert "json" in green
    assert "csv" not in green


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


def test_verify_all_quick_keeps_its_bytes(capsys):
    # the quick budget's stdout for all ten models, digest taken once the
    # flow's step points depended on H alone; each model alone prints its
    # own three lines of it
    code, out, _ = run(capsys, "verify_all")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "3985ae80a65413205ca3142afee478591b7eb254bb81c848e101325073ea957f")
    lines = out.splitlines()
    assert len(lines) == 3 * len(coeff.MODEL_IDS)
    for k, model_id in enumerate(coeff.MODEL_IDS):
        code, one, _ = run(capsys, "verify_all", "--model", model_id)
        assert code == 0
        assert one.splitlines() == lines[3 * k:3 * k + 3]


def test_verify_all_full_keeps_its_bytes(capsys):
    # the full budget's stdout for all ten models, with and without the
    # ehrenfest and auxiliary lines, digests taken once the flow's step
    # points depended on H alone; each model alone prints its own lines
    # of it
    code, out, _ = run(capsys, "verify_all", "--budget", "full")
    assert code == 0
    lines = out.splitlines()
    older = "".join(f"{ln}\n" for ln in lines
                    if ln.split()[1] not in ("ehrenfest", "auxiliary"))
    assert hashlib.sha256(older.encode()).hexdigest() == (
        "c0e2132f2dc4a19c1179e39fdf64ea0373f76aa51cf48642f535aac39bbdfb17")
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "02336b3157164518ceddb8a5a3d9ecc67ec28d958aabd3110660c16d092e1e4d")
    assert len(lines) == 58
    for model_id in coeff.MODEL_IDS:
        code, one, _ = run(capsys, "verify_all", "--model", model_id,
                           "--budget", "full")
        assert code == 0
        assert one.splitlines() == [
            ln for ln in lines if ln.split(":")[0].endswith(f" {model_id}")]


# the models whose records carry an expectation curve, a mean position
# and an elementary solution of the auxiliary equation
_ENERGY_MODELS = {coeff.CALDIROLA_KANAI, coeff.MODIFIED_CK, coeff.UNITED,
                  coeff.MODIFIED_OSCILLATOR, coeff.CJ_COORDINATE}
_MEAN_MODELS = {coeff.UNITED, coeff.CJ_COORDINATE}
_AUXILIARY_MODELS = {coeff.UNITED}


@pytest.mark.parametrize("model_id", coeff.MODEL_IDS)
def test_verify_all_full_checks_the_paper_constructions(capsys, model_id):
    # the full budget adds the energy system and the ladder for every
    # model, the energy curve for five, the mean position for two and the
    # auxiliary equation's invariant for one; each line reads
    # "PASS name model_id: detail", the form the benchmark's oracle reads
    code, out, err = run(capsys, "verify_all", "--model", model_id,
                         "--budget", "full")
    assert (code, err) == (0, "")
    names = ["kernel", "invariant", "uncertainty", "energy-system", "ladder"]
    names += ["energy"] if model_id in _ENERGY_MODELS else []
    names += ["ehrenfest"] if model_id in _MEAN_MODELS else []
    names += ["auxiliary"] if model_id in _AUXILIARY_MODELS else []
    lines = out.splitlines()
    assert [ln.split(":")[0] for ln in lines] == [
        f"PASS {name} {model_id}" for name in names]
    assert all(ln.split(": ", 1)[1] for ln in lines)


def test_verify_all_full_fails_a_wrong_energy_system(capsys, monkeypatch):
    # a conservation system that returns the wrong form is a FAIL line and
    # exit 3; the other checks still pass
    def wrong(flow, init):
        return lambda t: inv.QuadraticForm(*init[:2], 0.0, 0.0, t)

    monkeypatch.setattr(inv, "solve_energy_system", wrong)
    code, out, err = run(capsys, "verify_all", "--model", "caldirola_kanai",
                         "--budget", "full")
    assert (code, err) == (3, "")
    failed = [ln for ln in out.splitlines() if not ln.startswith("PASS ")]
    assert [ln.split(":")[0] for ln in failed] == [
        "FAIL energy-system caldirola_kanai"]


@pytest.mark.parametrize("check", ["ehrenfest", "auxiliary"])
def test_verify_all_full_fails_a_wrong_closed_form_check(capsys, monkeypatch,
                                                         check):
    # a mean position off by 1e-7, or an invariant off by 1e-9 of its A,
    # is a FAIL line of its check and exit 3
    if check == "ehrenfest":
        real = dyn.evolve_first_moments

        def wrong(flow, f0):
            path = real(flow, f0)

            def shifted(t):
                fm, raw = path(t)
                return fm._replace(x=fm.x + 1e-7), raw

            return shifted

        monkeypatch.setattr(dyn, "evolve_first_moments", wrong)
    else:
        real = inv.general_invariant

        def wrong(*args):
            form = real(*args)
            return form._replace(A=form.A * (1.0 + 1e-9))

        monkeypatch.setattr(inv, "general_invariant", wrong)
    code, out, err = run(capsys, "verify_all", "--model", "united",
                         "--budget", "full")
    assert (code, err) == (3, "")
    assert f"FAIL {check} united" in [ln.split(":")[0]
                                     for ln in out.splitlines()]


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
def test_every_subcommand_exits_0_2_or_3(request, command):
    @seed(case_seed(request))
    @settings(max_examples=20, deadline=None, derandomize=True)
    @given(argv=_argv(command))
    def case(argv):
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
            assert {"error", "type", "module", "message",
                    "info"} <= set(record)

    case()
