import ctypes
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import switchkit
from switchkit import GridFunction, make_gamma, mean_from_expected, simulate_switch
from switchkit import simulation
from switchkit.cli import build_parser, run
from switchkit.grid import _write_rows


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
    # oscillating E fails the shape screen inside recovery, which names the
    # failed condition
    t = np.arange(0, 8, 1e-3)
    E = GridFunction(h=1e-3,
                     values=np.sqrt(2) * np.sin((2 * t + np.pi) / 4) * np.exp(-t / 2))
    src = tmp_path / "E.csv"
    E.to_csv(src)
    code = run(["recover", "--from", "expected", "--input", str(src),
                "--out-prefix", str(tmp_path / "rec")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("numeric failure: expected value fails the shape screen")
    assert "nonincreasing violated by" in err and "(tolerance 1e-06)" in err


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
    # gamma(2, 1) at r = 1.5: its divisor density is negative on
    # (pi sqrt2, 2 pi sqrt2)
    summary = run_json(capsys, ["gd-check", "--dist", "gamma(shape=2,scale=1)", "--r", "1.5"])
    assert summary["time_domain"]["refuted"] is True
    assert summary["time_domain"]["reason"] is None
    assert summary["passed"] is False


def test_simulate_verb(capsys, tmp_path):
    out = tmp_path / "epochs.csv"
    summary = run_json(capsys, [
        "simulate", "--dist", "exp(rate=1)", "--horizon", "10",
        "--seed", "3", "--out", str(out),
    ])
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "epoch"
    assert len(lines) - 1 == summary["n_epochs"]
    assert summary["initial_sign"] == 1 and summary["outputs"] == [str(out)]
    epochs = np.array([float(x) for x in lines[1:]])
    assert np.all(np.diff(epochs) > 0)


@pytest.mark.parametrize("horizon", ["100", "1e4"])
@pytest.mark.parametrize("shape", ["0.01", "0.1", "0.2"])
def test_simulate_writes_the_repeated_epochs_of_a_singular_law(capsys, tmp_path, shape,
                                                               horizon):
    # a draw below half an ulp of the running epoch repeats it (most draws
    # at shape 0.01): two switches at one representable time
    out = tmp_path / "epochs.csv"
    summary = run_json(capsys, ["simulate", "--dist", f"gamma(shape={shape},scale=1)",
                                "--horizon", horizon, "--seed", "1", "--out", str(out)])
    epochs = np.array(out.read_text().splitlines()[1:], dtype=float)
    assert len(epochs) == summary["n_epochs"] and np.all(np.diff(epochs) >= 0)


def test_figure1_plots_a_path_with_repeated_epochs(capsys, tmp_path):
    out = tmp_path / "fig.svg"
    run_json(capsys, ["figure1", "--dist", "gamma(shape=0.01,scale=1)", "--out", str(out)])
    assert out.read_text().count("<polyline") >= 3


def test_simulate_plot_flag_is_gone(capsys, tmp_path):
    # figure1 --t-end H draws the same path and plots it with E and C
    code = run(["simulate", "--dist", "exp(rate=1)", "--out", str(tmp_path / "e.csv"),
                "--plot", str(tmp_path / "p.svg")])
    assert code == 64
    assert not list(tmp_path.iterdir())


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
    assert summary["screen"]["passed"] is True and "admissible" not in summary
    assert math.isclose(summary["mu"], 2 * np.pi, rel_tol=1e-3)
    svg = (tmp_path / "iia.svg").read_text()
    assert svg.startswith("<svg")


@pytest.mark.parametrize("verb", ["recover", "iia", "estimate"])
def test_verbs_refuse_outputs_that_are_one_file(capsys, tmp_path, verb):
    # a second output at the path of another would overwrite it, or
    # interleave with it in the one-pass write: refused before any work,
    # whether the paths are spelled alike or one is a symbolic link
    src = tmp_path / "C.csv"
    GridFunction(h=1e-3, values=np.exp(-2e-3 * np.arange(20_001))).to_csv(src)
    prefix = str(tmp_path / "rec")
    link = tmp_path / "link.svg"
    link.symlink_to(tmp_path / "rec_divisor_pdf.csv")
    argv = {
        "recover": ["recover", "--from", "covariance", "--input", str(src),
                    "--out-prefix", prefix, "--compound-pdf-out", prefix + "_divisor_cdf.csv"],
        "iia": ["iia", "--r", "diffusion2d", "--out-prefix", prefix, "--plot", str(link)],
        "estimate": ["estimate", "--dist", "exp(rate=1)", "--n-paths", "200",
                     "--out", prefix + ".svg", "--plot", f"{tmp_path}/./rec.svg"],
    }[verb]
    code = run(argv)
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err.startswith("error: outputs ") and "are one file" in captured.err
    assert not list(tmp_path.glob("rec*"))


def test_iia_verb_long_grid_prints_nothing_on_stderr(capsys, tmp_path):
    # cosh(t/2) overflows past t ~ 1420; sech is 0 there, with no warning
    code = run(["iia", "--r", "diffusion2d", "--t-end", "1500", "--h", "0.05",
                "--out-prefix", str(tmp_path / "iia")])
    assert code == 0 and capsys.readouterr().err == ""


def test_iia_verb_rejection(capsys, tmp_path):
    # refused like recover: exit 2, one line naming the failed condition
    code = run(["iia", "--r", "damped-cosine", "--t-end", "10", "--h", "0.001",
                "--out-prefix", str(tmp_path / "iia")])
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert err.startswith("numeric failure: covariance fails the shape screen")
    assert "nonnegative violated by" in err and len(err.strip().splitlines()) == 1
    assert not list(tmp_path.iterdir())


def test_iia_verb_tabulated_correlation(capsys, tmp_path):
    t = np.arange(0, 40 + 1e-3, 2e-3)
    table = GridFunction(h=2e-3, values=1 / np.cosh(t / 2))
    src = tmp_path / "r.csv"
    table.to_csv(src)
    summary = run_json(capsys, [
        "iia", "--r", str(src), "--t-end", "40", "--h", "0.002",
        "--out-prefix", str(tmp_path / "tab"),
    ])
    assert summary["screen"]["passed"] is True
    assert math.isclose(summary["mu"], 2 * np.pi, rel_tol=1e-3)


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


def test_env_seed_is_ignored(capsys, tmp_path, monkeypatch):
    # --seed is the only seed: the same argv writes the same bytes
    outs = {}
    for name, env in (("plain", None), ("env", "1")):
        if env is not None:
            monkeypatch.setenv("SWITCHKIT_SEED", env)
        outs[name] = tmp_path / f"{name}.csv"
        run_json(capsys, ["simulate", "--dist", "exp(rate=1)", "--seed", "999",
                          "--out", str(outs[name])])
    run_json(capsys, ["simulate", "--dist", "exp(rate=1)", "--seed", "1",
                      "--out", str(tmp_path / "one.csv")])
    assert outs["plain"].read_bytes() == outs["env"].read_bytes()
    assert outs["env"].read_bytes() != (tmp_path / "one.csv").read_bytes()


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
    assert summary["zero_tolerance"] == 1e-6
    # the span it judged: 40 / s*, psi(s*) = 1/(1 + s*) = 1/2
    td = summary["time_domain"]
    assert math.isclose(td["s_star"], 1.0, rel_tol=1e-9)
    assert math.isclose(td["t_end"], 40.0, rel_tol=1e-9)
    assert td["h"] == [40.0 / td["s_star"] / 4000, 40.0 / td["s_star"] / 8000]


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
    with open(src, "wb") as fh:
        fh.write(b"t,value\r\n")
        _write_rows([(fh, [0, 1])], [t, np.exp(-2 * t)])
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


def test_recover_expected_route_reports_the_tables_mu(capsys, tmp_path):
    # unit-rate exponential switching has E = exp(-2t) and divisor exp(rate=2)
    t = np.arange(0, 20 + 5e-4, 1e-3)
    src = tmp_path / "E.csv"
    GridFunction(h=1e-3, values=np.exp(-2 * t)).to_csv(src)
    summary = run_json(capsys, ["recover", "--from", "expected", "--input", str(src),
                                "--mu", "1.0", "--out-prefix", str(tmp_path / "rec")])
    assert summary["mu"] == mean_from_expected(GridFunction.from_csv(src))
    assert math.isclose(summary["mu"], 1.0, rel_tol=1e-6)
    cdf = GridFunction.from_csv(tmp_path / "rec_divisor_cdf.csv")
    np.testing.assert_allclose(cdf.values, -np.expm1(-2 * t), atol=1e-12)


def test_recover_expected_route_takes_an_E_that_vanishes_early(capsys, tmp_path):
    # E = (1 - t)_+ is that of compound(2, uniform[0, 1]): zero over most of the grid
    src = tmp_path / "E.csv"
    E = GridFunction(h=1e-3, values=np.clip(1 - np.arange(20_001) * 1e-3, 0, None))
    E.to_csv(src)
    summary = run_json(capsys, ["recover", "--from", "expected", "--input", str(src),
                                "--out-prefix", str(tmp_path / "rec")])
    assert math.isclose(summary["mu"], 1.0, rel_tol=1e-9)
    pdf = GridFunction.from_csv(tmp_path / "rec_divisor_pdf.csv").values
    np.testing.assert_allclose(pdf[1:1000], 1.0, rtol=1e-12)


def test_recover_covariance_route_accepts_its_own_mu(capsys, tmp_path):
    summary = run_json(capsys, ["recover", "--from", "covariance",
                                "--input", str(_arcsine_table(tmp_path)), "--mu", "6.283185",
                                "--out-prefix", str(tmp_path / "rec")])
    assert math.isclose(summary["mu"], 2 * np.pi, rel_tol=1e-3)


@pytest.mark.parametrize("verb", ["expected-value", "recover"])
def test_a_table_on_a_pipe_reads_as_the_file(tmp_path, verb):
    # /dev/stdin on a pipe can be read only once
    t = np.arange(20_001) * 5e-5
    if verb == "recover":
        table = GridFunction(h=1e-3, values=np.exp(-2 * np.arange(20_001) * 1e-3))
        argv = ["recover", "--from", "expected", "--input", "{}", "--out-prefix", "out"]
    else:
        table = GridFunction(h=5e-5, values=50.0 * np.exp(-50.0 * t))
        argv = ["expected-value", "--dist", "table({})", "--t-end", "1", "--out", "out.csv"]
    table.to_csv(tmp_path / "in.csv")
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(switchkit.__file__))}
    outputs = []
    for name, stdin in (("file", None), ("pipe", (tmp_path / "in.csv").read_bytes())):
        (tmp_path / name).mkdir()
        path = tmp_path / "in.csv" if stdin is None else "/dev/stdin"
        subprocess.run([sys.executable, "-m", "switchkit.cli",
                        *[a.format(path) for a in argv]], cwd=tmp_path / name, env=env,
                       input=stdin, capture_output=True, check=True)
        outputs.append({p.name: p.read_bytes() for p in sorted((tmp_path / name).iterdir())})
    assert outputs[0] == outputs[1] and outputs[0]


def test_estimate_workers_leave_the_bytes_unchanged(capsys, tmp_path):
    outputs = []
    for workers in ("1", "2"):
        out = tmp_path / f"w{workers}.csv"
        run_json(capsys, ["estimate", "--dist", "gamma(shape=2,scale=2)", "--target",
                          "covariance", "--t-end", "4", "--h", "0.5", "--n-paths", "3000",
                          "--seed", "11", "--workers", workers, "--out", str(out)])
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("workers", ["0", "-1"])
def test_estimate_refuses_fewer_than_one_worker(capsys, tmp_path, workers):
    out = tmp_path / "e.csv"
    assert run(["estimate", "--dist", "exp(rate=1)", "--n-paths", "200", "--workers", workers,
                "--out", str(out)]) == 1
    assert "workers must be at least 1" in capsys.readouterr().err and not out.exists()


def test_simulate_writes_one_full_precision_epoch_per_line(capsys, tmp_path):
    out = tmp_path / "epochs.csv"
    run_json(capsys, ["simulate", "--dist", "gamma(shape=2,scale=2)", "--horizon", "200",
                      "--seed", "4", "--out", str(out)])
    epochs = simulate_switch(make_gamma(2.0, 2.0), 200.0, 4).epochs
    assert out.read_bytes() == ("epoch\n" + "".join(f"{e:.17e}\n" for e in epochs)).encode()


@pytest.mark.parametrize("target", ["expected", "covariance"])
def test_estimate_refuses_a_horizon_past_max_points_means(capsys, tmp_path, monkeypatch, target):
    # 1e9 means of 200 paths would take hours; nothing may be drawn
    def no_draws(*args):
        raise AssertionError("drew switches")

    monkeypatch.setattr(simulation, "_rounds", no_draws)
    out = tmp_path / "e.csv"
    assert run(["estimate", "--dist", "exp(rate=1)", "--target", target, "--n-paths", "200",
                "--t-end", "1e9", "--h", "1e3", "--out", str(out)]) == 2
    assert "t_end / mean exceeds MAX_POINTS" in capsys.readouterr().err and not out.exists()


def test_estimate_at_max_points_means_still_runs(capsys, tmp_path, monkeypatch):
    # the cap itself is allowed: t_end / mean = 8 runs under a cap of 8, 8.5 does not
    monkeypatch.setattr(simulation, "MAX_POINTS", 8)
    argv = ["estimate", "--dist", "exp(rate=2)", "--n-paths", "200", "--h", "0.25",
            "--out", str(tmp_path / "e.csv")]
    assert run_json(capsys, argv + ["--t-end", "4"])["outputs"] == [str(tmp_path / "e.csv")]
    assert run(argv + ["--t-end", "4.25"]) == 2


# Every verb, run in this order in one process, loads no scipy module: the
# renewal solves run on numpy.fft and gamma laws on switchkit's own P(a, x)
_IMPORT_PROBE = """
import json, sys
from switchkit.cli import run
from switchkit.grid import GridFunction
import numpy as np

def loaded():  # Monte Carlo runs on the calling thread: no concurrent.* either
    return sorted(m for m in sys.modules if m.startswith(("scipy", "concurrent")))

seen = [["import", loaded()]]
t = np.arange(4001) * 1e-2
GridFunction(h=1e-2, values=np.exp(-2.0 * t)).to_csv("C.csv")  # E and C of exp(rate=1)
GridFunction(h=1e-2, values=np.exp(-t)).to_csv("f.csv")
for argv in (["simulate", "--dist", "exp(rate=1)"],
             ["estimate", "--dist", "exp(rate=1)", "--n-paths", "100"],
             ["estimate", "--dist", "exp(rate=1)", "--n-paths", "100", "--target", "covariance"],
             ["estimate", "--dist", "table(f.csv)", "--n-paths", "100",
              "--target", "covariance"],
             ["recover", "--from", "covariance", "--input", "C.csv"],
             ["iia", "--r", "diffusion2d", "--h", "0.01"],
             ["expected-value", "--dist", "exp(rate=1)"],
             ["gd-check", "--dist", "exp(rate=1)", "--r", "2"],
             ["recover", "--from", "expected", "--input", "C.csv",
              "--compound-pdf-out", "pdf.csv"],
             ["expected-value", "--dist", "gamma(shape=2.5,scale=1)"],
             ["covariance", "--dist", "gamma(shape=2.5,scale=1)"],
             ["expected-value", "--dist", "gamma(shape=0.5,scale=1)"],
             ["covariance", "--dist", "gamma(shape=0.5,scale=1)"],
             ["gd-check", "--dist", "gamma(shape=2,scale=1)", "--r", "1.5"],
             ["estimate", "--dist", "gamma(shape=2,scale=1)", "--n-paths", "100"],
             ["estimate", "--dist", "gamma(shape=2,scale=1)", "--n-paths", "100",
              "--target", "covariance"]):
    assert run(argv) == 0, argv
    seen.append([" ".join(argv), loaded()])
print(json.dumps(seen))
"""


def _probe(code, cwd):
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(switchkit.__file__))}
    done = subprocess.run([sys.executable, "-c", code], env=env, cwd=cwd, capture_output=True,
                          text=True, check=True)
    return json.loads(done.stdout.splitlines()[-1])


def test_no_verb_loads_scipy(tmp_path):
    seen = _probe(_IMPORT_PROBE, tmp_path)
    assert seen[0] == ["import", []] and len(seen) == 17
    for step, modules in seen[1:]:
        assert modules == [], step


def _has_mallopt():
    try:
        return hasattr(ctypes.CDLL(None), "mallopt")
    except TypeError:  # no process-wide C library to open
        return False


_FAULT_PROBE = """
import json, resource
from switchkit.cli import run
faults = []
for _ in range(3):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    assert run(["expected-value", "--dist", "exp(rate=1)", "--t-end", "60", "--h", "5e-4"]) == 0
    faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
print(json.dumps(faults))
"""


@pytest.mark.skipif(not _has_mallopt(), reason="the C library has no mallopt")
def test_repeated_solves_reuse_the_heap(tmp_path):
    # minor page faults of the 2nd and 3rd identical solve of 120 001 points:
    # 1 and 0 measured; 5 300-6 300 when glibc trims the heap after each run
    first, *again = _probe(_FAULT_PROBE, tmp_path)
    assert all(faults <= 500 for faults in again), (first, again)


@pytest.mark.parametrize("argv", [
    ["expected-value", "--dist", "exp(rate=1)", "--h", "0"],
    ["estimate", "--dist", "exp(rate=1)", "--h", "0"],
    ["iia", "--r", "exp", "--h", "nan"],
    ["expected-value", "--dist", "exp(rate=1)", "--t-end", "nan"],
    ["expected-value", "--dist", "exp(rate=1)", "--t-end", "inf"],
    ["expected-value", "--dist", "exp(rate=1)", "--t-end", "-1"],
    ["simulate", "--dist", "exp(rate=1)", "--horizon", "inf"],
    ["expected-value", "--dist", "exp(rate=1)", "--t-end", "4", "--h", "10"],
    ["estimate", "--dist", "exp(rate=1)", "--t-end", "4", "--h", "10"],
], ids=["h-zero", "estimate-h-zero", "h-nan", "t-end-nan", "t-end-inf", "t-end-negative",
        "horizon-inf", "t-end-under-half-step", "estimate-t-end-under-half-step"])
def test_bad_grid_arguments_exit_one_with_one_error_line(capsys, tmp_path, argv):
    out = ["--out-prefix" if argv[0] == "iia" else "--out", str(tmp_path / "x.csv")]
    code = run(argv + out)
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: ") and len(err.strip().splitlines()) == 1
    assert "Traceback" not in err
    assert not list(tmp_path.iterdir())


def _one_line_failure(capsys, argv, code, prefix):
    assert run(argv) == code
    err = capsys.readouterr().err
    assert err.startswith(prefix) and len(err.strip().splitlines()) == 1
    assert "Traceback" not in err


@pytest.mark.parametrize("source,mu", [
    ("expected", "nan"), ("expected", "inf"), ("expected", "-3"), ("expected", "0"),
    ("covariance", "7"),
])
def test_recover_refuses_a_bad_or_unused_mu(capsys, tmp_path, source, mu):
    argv = ["recover", "--from", source, "--input", str(_arcsine_table(tmp_path)),
            "--mu", mu, "--out-prefix", str(tmp_path / "rec")]
    _one_line_failure(capsys, argv, 1, "error: ")
    assert not list(tmp_path.glob("rec*"))


@pytest.mark.parametrize("argv", [
    ["simulate", "--dist", "exp(rate=1)"],
    ["estimate", "--dist", "exp(rate=1)", "--n-paths", "200"],
    ["figure1", "--dist", "exp(rate=1)", "--t-end", "2", "--h", "0.1"],
], ids=["simulate", "estimate", "figure1"])
def test_negative_seed_exits_one_with_one_error_line(capsys, tmp_path, argv):
    _one_line_failure(capsys, argv + ["--seed", "-1", "--out", str(tmp_path / "x")], 1,
                      "error: ")
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("argv", [
    ["expected-value", "--dist", "exp(rate=1)", "--t-end", "1e300", "--h", "1e-300"],
    ["covariance", "--dist", "exp(rate=1)", "--t-end", "1e9", "--h", "1e-9"],
    ["estimate", "--dist", "exp(rate=1)", "--t-end", "1e8", "--h", "1e-1"],
    ["simulate", "--dist", "exp(rate=1)", "--horizon", "1e12"],
], ids=["overflow", "huge-grid", "estimate-grid", "simulate-horizon"])
def test_oversized_runs_exit_two_before_allocating(capsys, tmp_path, argv):
    _one_line_failure(capsys, argv + ["--out", str(tmp_path / "x")], 2,
                      "numeric failure: ")
    assert not list(tmp_path.iterdir())


def test_one_parser_serves_every_run(capsys, tmp_path, monkeypatch):
    # two verbs back to back in one process give the bytes of two processes
    assert build_parser() is build_parser()
    argvs = [["expected-value", "--dist", "gamma(shape=2,scale=2)", "--t-end", "3",
              "--h", "0.01", "--out", "ev.csv"],
             ["estimate", "--dist", "exp(rate=1)", "--t-end", "2", "--h", "0.5",
              "--n-paths", "500", "--seed", "9", "--out", "est.csv"]]
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(switchkit.__file__))}
    apart, together = tmp_path / "apart", tmp_path / "together"
    apart.mkdir()
    together.mkdir()
    monkeypatch.chdir(together)
    for argv in argvs:
        want = subprocess.run([sys.executable, "-m", "switchkit.cli", *argv], cwd=apart,
                              env=env, capture_output=True, text=True, check=True).stdout
        assert run(argv) == 0
        assert capsys.readouterr().out == want
    for name in ("ev.csv", "est.csv"):
        assert (together / name).read_bytes() == (apart / name).read_bytes()


def test_table_inputs_give_the_same_bytes_through_either_layout(capsys, tmp_path, monkeypatch):
    # one set of tables written CRLF by to_csv and LF by np.savetxt, and the
    # CRLF files read again by np.loadtxt alone (the reader kernel declined)
    h, t = 4e-3, np.arange(10_001) * 4e-3
    tables = {"C.csv": (2 / np.pi) * np.arcsin(1 / np.cosh(t / 2)),
              "density.csv": 2.0 * np.exp(-2.0 * t), "r.csv": 1 / np.cosh(t / 2)}
    argvs = [["recover", "--from", "covariance", "--input", "C.csv", "--out-prefix", "rec"],
             ["gd-check", "--dist", "table(density.csv)", "--r", "2"],
             ["iia", "--r", "r.csv", "--t-end", "40", "--h", repr(h), "--out-prefix", "iia"]]
    seen = {}
    for layout in ("crlf", "lf", "loadtxt"):
        (tmp_path / layout).mkdir()
        monkeypatch.chdir(tmp_path / layout)
        for name, values in tables.items():
            if layout == "lf":
                np.savetxt(name, np.column_stack([t, values]), fmt="%.17e", delimiter=",",
                           header="t,value", comments="")
            else:
                GridFunction(h=h, values=values).to_csv(name)
        with monkeypatch.context() as m:
            if layout == "loadtxt":
                m.setattr(switchkit.grid, "_read_rows", lambda raw, start: None)
            summaries = [run_json(capsys, argv) for argv in argvs]
        outputs = {p.name: p.read_bytes() for p in sorted((tmp_path / layout).iterdir())
                   if p.name not in tables}
        seen[layout] = (summaries, outputs)
        assert len(outputs) == 5
    assert seen["crlf"] == seen["lf"] == seen["loadtxt"]
    assert (tmp_path / "crlf" / "C.csv").read_bytes().replace(b"\r\n", b"\n") == (
        tmp_path / "lf" / "C.csv").read_bytes()
