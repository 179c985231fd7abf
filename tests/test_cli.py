import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import switchkit
from switchkit import GridFunction, make_gamma, simulate_switch
from switchkit.cli import run
from switchkit.grid import write_rows


@pytest.fixture(autouse=True)
def _no_env_seed(monkeypatch):
    monkeypatch.delenv("SWITCHKIT_SEED", raising=False)


def run_json(capsys, argv):
    code = run(argv)
    out = capsys.readouterr().out
    assert code == 0, out
    return json.loads(out)


def test_unknown_flag_is_usage_error(capsys):
    assert run(["expected-value", "--dist", "exp(rate=1)", "--frobnicate"]) == 64
    assert "usage" in capsys.readouterr().err


def test_unknown_verb_is_usage_error(capsys):
    assert run(["transmogrify"]) == 64


def test_validation_failure_exits_one(capsys, tmp_path):
    code = run(["expected-value", "--dist", "exp(rate=-1)",
                "--out", str(tmp_path / "x.csv")])
    assert code == 1
    assert "error" in capsys.readouterr().err


def test_numeric_failure_exits_two(capsys, tmp_path):
    # oscillating E fails the monotone-shape screen inside recovery
    t = np.arange(0, 8, 1e-3)
    E = GridFunction(h=1e-3,
                     values=np.sqrt(2) * np.sin((2 * t + np.pi) / 4) * np.exp(-t / 2))
    src = tmp_path / "E.csv"
    E.to_csv(src)
    code = run(["recover", "--from", "expected", "--input", str(src),
                "--out-prefix", str(tmp_path / "rec")])
    assert code == 2
    assert "numeric failure" in capsys.readouterr().err


def test_expected_value_verb(capsys, tmp_path):
    out = tmp_path / "E.csv"
    summary = run_json(capsys, [
        "expected-value", "--dist", "exp(rate=1)",
        "--t-end", "5", "--h", "0.001", "--out", str(out),
    ])
    assert summary["verb"] == "expected-value"
    E = GridFunction.from_csv(out)
    assert np.max(np.abs(E.values - np.exp(-2 * E.times()))) < 1e-4


def test_covariance_verb(capsys, tmp_path):
    out = tmp_path / "C.csv"
    run_json(capsys, [
        "covariance", "--dist", "gamma(shape=2,scale=2)",
        "--t-end", "8", "--h", "0.001", "--out", str(out),
    ])
    C = GridFunction.from_csv(out)
    t = C.times()
    assert np.max(np.abs(C.values - np.cos(t / 2) * np.exp(-t / 2))) < 1e-3


def test_gd_check_verb_failing_law_still_exits_zero(capsys):
    summary = run_json(capsys, ["gd-check", "--dist", "gamma(shape=2,scale=2)", "--r", "2"])
    assert summary["passed"] is False
    summary2 = run_json(capsys, ["gd-check", "--dist", "exp(rate=1)", "--r", "2"])
    assert summary2["passed"] is True


def test_gd_check_verb_reports_the_time_domain_refutation(capsys):
    # the complete-monotonicity screen passes gamma(2, 1) at r = 1.5; its
    # divisor density is negative on (pi sqrt2, 2 pi sqrt2)
    summary = run_json(capsys, ["gd-check", "--dist", "gamma(shape=2,scale=1)", "--r", "1.5"])
    assert summary["cm_report"]["passed"] is True
    assert summary["time_domain"]["refuted"] is True
    assert summary["passed"] is False


def test_simulate_verb(capsys, tmp_path):
    out = tmp_path / "epochs.csv"
    svg = tmp_path / "path.svg"
    summary = run_json(capsys, [
        "simulate", "--dist", "exp(rate=1)", "--horizon", "10",
        "--seed", "3", "--out", str(out), "--plot", str(svg),
    ])
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "epoch"
    assert len(lines) - 1 == summary["n_epochs"]
    epochs = np.array([float(x) for x in lines[1:]])
    assert np.all(np.diff(epochs) > 0)
    assert svg.read_text().startswith("<svg")


def test_estimate_verb_round_trips(capsys, tmp_path):
    out = tmp_path / "est.csv"
    run_json(capsys, [
        "estimate", "--dist", "exp(rate=1)", "--target", "expected",
        "--t-end", "2", "--h", "0.5", "--n-paths", "2000",
        "--seed", "5", "--out", str(out),
    ])
    header = out.read_text().splitlines()[0]
    assert header == "t,value,stderr"
    # the producing module's parser accepts its own output
    g = GridFunction.from_csv(out)
    assert g.values[0] == 1.0


def test_estimate_plot(capsys, tmp_path):
    svg = tmp_path / "est.svg"
    summary = run_json(capsys, [
        "estimate", "--dist", "gamma(shape=2,scale=2)", "--target", "covariance",
        "--t-end", "4", "--h", "0.5", "--n-paths", "500", "--seed", "3",
        "--out", str(tmp_path / "est.csv"), "--plot", str(svg),
    ])
    assert summary["outputs"] == [str(tmp_path / "est.csv"), str(svg)]
    text = svg.read_text()
    assert text.startswith("<svg") and text.count("<polyline") == 3  # estimate and band


def test_recover_verb_covariance_route(capsys, tmp_path):
    t = np.arange(0, 40 + 5e-4, 1e-3)
    C = GridFunction(h=1e-3, values=(2 / np.pi) * np.arcsin(1 / np.cosh(t / 2)))
    src = tmp_path / "C.csv"
    C.to_csv(src)
    summary = run_json(capsys, [
        "recover", "--from", "covariance", "--input", str(src),
        "--out-prefix", str(tmp_path / "rec"),
    ])
    assert math.isclose(summary["mu"], 2 * np.pi, rel_tol=1e-3)
    cdf = GridFunction.from_csv(tmp_path / "rec_divisor_cdf.csv")
    assert np.max(np.abs(cdf.values - (1 - 1 / np.cosh(t / 2)))) < 1e-4


def test_iia_verb_builtin(capsys, tmp_path):
    summary = run_json(capsys, [
        "iia", "--r", "diffusion2d", "--t-end", "40", "--h", "0.001",
        "--out-prefix", str(tmp_path / "iia"),
        "--plot", str(tmp_path / "iia.svg"),
    ])
    assert summary["admissible"] is True
    assert math.isclose(summary["mu"], 2 * np.pi, rel_tol=1e-3)
    svg = (tmp_path / "iia.svg").read_text()
    assert svg.startswith("<svg")


def test_iia_verb_rejection(capsys, tmp_path):
    summary = run_json(capsys, [
        "iia", "--r", "damped-cosine", "--t-end", "10", "--h", "0.001",
        "--out-prefix", str(tmp_path / "iia"),
    ])
    assert summary["admissible"] is False
    assert summary["outputs"] == []


def test_iia_verb_tabulated_correlation(capsys, tmp_path):
    t = np.arange(0, 40 + 1e-3, 2e-3)
    table = GridFunction(h=2e-3, values=1 / np.cosh(t / 2))
    src = tmp_path / "r.csv"
    table.to_csv(src)
    summary = run_json(capsys, [
        "iia", "--r", str(src), "--t-end", "40", "--h", "0.002",
        "--out-prefix", str(tmp_path / "tab"),
    ])
    assert summary["admissible"] is True
    assert math.isclose(summary["mu"], 2 * np.pi, rel_tol=1e-3)
    assert any("finite differences" in n for n in summary["screen"]["notes"])


def test_figure1_verb(capsys, tmp_path):
    out = tmp_path / "fig.svg"
    run_json(capsys, [
        "figure1", "--dist", "gamma(shape=2,scale=2)", "--seed", "7",
        "--t-end", "20", "--h", "0.01", "--out", str(out),
    ])
    svg = out.read_text()
    assert svg.startswith("<svg") and svg.count("<polyline") >= 3


def test_identical_invocations_are_byte_identical(capsys, tmp_path):
    argv_a = ["estimate", "--dist", "exp(rate=1)", "--t-end", "2", "--h", "0.5",
              "--n-paths", "500", "--seed", "9", "--out", str(tmp_path / "a.csv")]
    argv_b = ["estimate", "--dist", "exp(rate=1)", "--t-end", "2", "--h", "0.5",
              "--n-paths", "500", "--seed", "9", "--out", str(tmp_path / "b.csv")]
    out_a = json.dumps(run_json(capsys, argv_a), sort_keys=True)
    out_b = json.dumps(run_json(capsys, argv_b), sort_keys=True)
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
    assert out_a.replace("a.csv", "") == out_b.replace("b.csv", "")


def test_env_seed_overrides_flag(capsys, tmp_path, monkeypatch):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    run_json(capsys, ["simulate", "--dist", "exp(rate=1)", "--seed", "1", "--out", str(a)])
    monkeypatch.setenv("SWITCHKIT_SEED", "1")
    run_json(capsys, ["simulate", "--dist", "exp(rate=1)", "--seed", "999", "--out", str(b)])
    assert a.read_bytes() == b.read_bytes()


def _arcsine_table(tmp_path):
    t = np.arange(0, 40 + 5e-4, 1e-3)
    C = GridFunction(h=1e-3, values=(2 / np.pi) * np.arcsin(1 / np.cosh(t / 2)))
    src = tmp_path / "C.csv"
    C.to_csv(src)
    return src


def _compound_reference(h=0.01, t_end=40.0):
    """x = f/2 + (x * f)/2 by forward substitution with the closed-form
    divisor density f = sech(t/2) tanh(t/2) / 2 (f(0) = 0, so each step is
    explicit)."""
    n = int(round(t_end / h)) + 1
    t = np.arange(n) * h
    f = 0.5 * np.tanh(t / 2) / np.cosh(t / 2)
    x = np.zeros(n)
    for k in range(1, n):
        x[k] = 0.5 * f[k] + 0.5 * h * np.dot(f[k - 1:0:-1], x[1:k])
    return h, x


def test_recover_compound_pdf_out(capsys, tmp_path):
    src = _arcsine_table(tmp_path)
    out = tmp_path / "compound.csv"
    summary = run_json(capsys, [
        "recover", "--from", "covariance", "--input", str(src),
        "--out-prefix", str(tmp_path / "rec"), "--compound-pdf-out", str(out),
    ])
    assert summary["compound_pdf"] == {"path": str(out), "approximate": False}
    assert str(out) in summary["outputs"]
    got = GridFunction.from_csv(out)
    table = GridFunction.from_csv(src)
    assert got.same_grid(table)
    h_ref, ref = _compound_reference()
    stride = int(round(h_ref / got.h))
    sampled = got.values[::stride]
    assert len(sampled) == len(ref)
    assert np.sum(np.abs(sampled - ref)) / np.sum(np.abs(ref)) <= 1e-2


def test_talbot_nodes_flag_is_gone(capsys, tmp_path):
    src = _arcsine_table(tmp_path)
    code = run(["recover", "--from", "covariance", "--input", str(src),
                "--compound-pdf-out", str(tmp_path / "c.csv"), "--talbot-nodes", "32"])
    assert code == 64


@pytest.mark.parametrize("row", ["0.1,abc", "0.1"])
def test_malformed_input_row_exits_one(capsys, tmp_path, row):
    src = tmp_path / "bad.csv"
    src.write_text(f"t,value\n0.0,1.0\n{row}\n0.2,0.5\n")
    code = run(["recover", "--from", "expected", "--input", str(src),
                "--out-prefix", str(tmp_path / "rec")])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: ") and str(src) in err
    assert len(err.strip().splitlines()) == 1


def test_gd_check_reports_the_tolerances_it_judged_with(capsys):
    summary = run_json(capsys, ["gd-check", "--dist", "exp(rate=1)", "--r", "2"])
    assert summary["cm_report"]["max_order_checked"] == 6
    assert summary["cm_report"]["tolerance"] == 1e-7
    assert summary["zero_tolerance"] == 1e-6


@pytest.mark.parametrize("argv", [
    ["expected-value", "--dist", "exp(rate=1)", "--tol", "1e-6"],
    ["covariance", "--dist", "exp(rate=1)", "--tol", "1e-6"],
    ["gd-check", "--dist", "exp(rate=1)", "--r", "2", "--cm-max-order", "4"],
    ["gd-check", "--dist", "exp(rate=1)", "--r", "2", "--cm-tol", "1e-6"],
], ids=["expected-value-tol", "covariance-tol", "cm-max-order", "cm-tol"])
def test_removed_tolerance_flags_are_usage_errors(capsys, argv):
    assert run(argv) == 64
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("source", ["expected", "covariance", "table", "iia"])
def test_recover_refuses_a_table_off_the_origin(capsys, tmp_path, source):
    # E(0) = 1, mu = -2/C'(0), a density's support and r(0) = 1 are all
    # statements about t = 0, so every table input is read from there
    src = tmp_path / "shifted.csv"
    t = 0.5 + 1e-3 * np.arange(20_000)
    with open(src, "w", newline="") as fh:
        fh.write("t,value\r\n")
        write_rows(fh, np.column_stack([t, np.exp(-2 * t)]))
    prefix = str(tmp_path / "rec")
    argv = {
        "table": ["expected-value", "--dist", f"table({src})", "--out", prefix + ".csv"],
        "iia": ["iia", "--r", str(src), "--out-prefix", prefix],
    }.get(source, ["recover", "--from", source, "--input", str(src), "--out-prefix", prefix])
    code = run(argv)
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: ") and "t = 0" in err
    assert len(err.strip().splitlines()) == 1
    assert not list(tmp_path.glob("rec*"))


def test_recover_expected_route_reports_the_given_mu(capsys, tmp_path):
    # unit-rate exponential switching has E = exp(-2t) and divisor exp(rate=2)
    t = np.arange(0, 20 + 5e-4, 1e-3)
    src = tmp_path / "E.csv"
    GridFunction(h=1e-3, values=np.exp(-2 * t)).to_csv(src)
    summary = run_json(capsys, ["recover", "--from", "expected", "--input", str(src),
                                "--mu", "1.0", "--out-prefix", str(tmp_path / "rec")])
    assert summary["mu"] == 1.0
    cdf = GridFunction.from_csv(tmp_path / "rec_divisor_cdf.csv")
    np.testing.assert_allclose(cdf.values, -np.expm1(-2 * t), atol=1e-12)


def test_estimate_workers_leave_the_bytes_unchanged(capsys, tmp_path):
    outputs = []
    for workers in ("1", "2"):
        out = tmp_path / f"w{workers}.csv"
        run_json(capsys, ["estimate", "--dist", "gamma(shape=2,scale=2)", "--target",
                          "covariance", "--t-end", "4", "--h", "0.5", "--n-paths", "3000",
                          "--seed", "11", "--workers", workers, "--out", str(out)])
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]


def test_simulate_writes_one_full_precision_epoch_per_line(capsys, tmp_path):
    out = tmp_path / "epochs.csv"
    run_json(capsys, ["simulate", "--dist", "gamma(shape=2,scale=2)", "--horizon", "200",
                      "--seed", "4", "--out", str(out)])
    epochs = simulate_switch(make_gamma(2.0, 2.0), 200.0, 4).epochs
    assert out.read_bytes() == ("epoch\n" + "".join(f"{e:.17e}\n" for e in epochs)).encode()


def test_cli_import_leaves_scipy_signal_unloaded():
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(switchkit.__file__))}
    code = "import sys, switchkit.cli; print('scipy.signal' in sys.modules)"
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True)
    assert done.stdout.strip() == "False"


@pytest.mark.parametrize("argv", [
    ["expected-value", "--dist", "exp(rate=1)", "--h", "0"],
    ["estimate", "--dist", "exp(rate=1)", "--h", "0"],
    ["iia", "--r", "exp", "--h", "nan"],
    ["expected-value", "--dist", "exp(rate=1)", "--t-end", "nan"],
    ["expected-value", "--dist", "exp(rate=1)", "--t-end", "inf"],
    ["expected-value", "--dist", "exp(rate=1)", "--t-end", "-1"],
    ["simulate", "--dist", "exp(rate=1)", "--horizon", "inf"],
], ids=["h-zero", "estimate-h-zero", "h-nan", "t-end-nan", "t-end-inf", "t-end-negative",
        "horizon-inf"])
def test_bad_grid_arguments_exit_one_with_one_error_line(capsys, tmp_path, argv):
    out = ["--out-prefix" if argv[0] == "iia" else "--out", str(tmp_path / "x.csv")]
    code = run(argv + out)
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: ") and len(err.strip().splitlines()) == 1
    assert "Traceback" not in err
    assert not list(tmp_path.iterdir())
