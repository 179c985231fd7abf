"""Tests of the benchmark itself, at tiny sizes.

    python3 -m pytest perfbench -q
"""

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import run
import worker
import workloads
from tracer import METHODS, Tracer, public_functions

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.path.insert(0, str(ROOT / "src"))

import switchkit  # noqa: E402
import switchkit.cli  # noqa: E402


@pytest.mark.parametrize("trace,declared", [(0, "end_to_end"), (1, "per_layer")])
def test_every_declared_metric_is_emitted_with_its_unit(trace, declared, tmp_path,
                                                         monkeypatch):
    monkeypatch.chdir(tmp_path)
    wl = workloads.build("oracle", 1, scale=0.02)  # tiny grids and path counts
    cli = worker.setup(str(ROOT / "src"), wl)
    result = worker.measure(cli, wl, 0, trace, worker.Speedometer())
    result["peak_rss_mb"] = 1.0
    line = run.summarize(result, [{"setup_s": 1.0}], trace)
    assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1
    got = {name: m["unit"] for name, m in line["metrics"].items()}
    assert got == {m["name"]: m["unit"] for m in SPEC[declared]}
    assert all(isinstance(m["value"], float) for m in line["metrics"].values())


def test_benchmark_refuses_a_directory_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "tabulate",
                          "--seed", "1", "--seconds", "1", "--trace", "0"],
                         capture_output=True, text=True, timeout=60, cwd=tmp_path)
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout


def _bindings():
    """Every name a switchkit namespace binds to a public function, plus the
    wrapped class attributes, mapped to the bound object."""
    found = {}
    targets = public_functions()
    for mod in [m for n, m in sys.modules.items() if n.startswith("switchkit")]:
        for name, obj in vars(mod).items():
            if id(obj) in targets:
                found[(mod.__name__, name)] = obj
    for mod_name, cls, meth in METHODS:
        found[(cls, meth)] = getattr(sys.modules[mod_name], cls).__dict__[meth]
    return found


def test_tracer_wraps_by_identity_and_restores_every_original():
    before = _bindings()
    assert ("switchkit.recovery", "convolve") in before  # from .grid import convolve
    original = switchkit.grid.convolve
    with pytest.raises(RuntimeError):
        with Tracer():
            assert switchkit.grid.convolve is not original
            assert switchkit.recovery.convolve is switchkit.grid.convolve
            assert switchkit.convolve is switchkit.grid.convolve
            raise RuntimeError("restore must survive an exception")
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_self_times_sum_to_no_more_than_the_traced_wall(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    argvs = [
        ["covariance", "--dist", "compound(r=2,divisor=exp(rate=2))", "--t-end", "5",
         "--h", "0.001", "--out", "c.csv"],
        ["recover", "--from", "covariance", "--input", "c.csv", "--out-prefix", "r"],
        ["estimate", "--dist", "gamma(shape=2,scale=2)", "--target", "covariance",
         "--n-paths", "400", "--workers", "2", "--out", "e.csv"],
        ["gd-check", "--dist", "exp(rate=1)", "--r", "2"],
    ]
    tracer = Tracer()
    start = time.perf_counter()
    with tracer:
        for argv in argvs:
            switchkit.cli.run(argv)
    wall = time.perf_counter() - start
    assert 0 < tracer.self_total() <= wall
    layers = tracer.layer_metrics(passes=1)
    assert layers["cli.run.self_s"][0] > 0
    assert layers["simulation.paths"][0] == 400
    assert layers["distributions.path_rng.calls"][0] == 400  # pool-thread calls count
    assert layers["grid.convolve.calls"][0] > 0


def test_wrong_output_and_known_defects_are_counted(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    ok = workloads._series_task(
        "good", "expected-value", "exp(rate=1)", 5.0, 1e-3,
        lambda out: workloads.curve_check(out, lambda t: np.exp(-2 * t), 1e-4))
    wrong = workloads._series_task(  # deliberately wrong reference: exp(-t)
        "wrong", "expected-value", "exp(rate=1)", 5.0, 1e-3,
        lambda out: workloads.curve_check(out, lambda t: np.exp(-t), 1e-4))
    refused = workloads.Task(
        "refused", ("iia", "--r", "diffusion2d", "--t-end", "40", "--h", "0.0005"),
        lambda res: None, known_defect=workloads.shape_refusal)
    false_pass = workloads.Task(
        "false_pass", ("gd-check", "--dist", "gamma(shape=2,scale=1)", "--r", "1.5"),
        workloads._gd_check(False), known_defect=workloads.cm_false_pass)
    tasks = [ok, wrong, refused, false_pass]
    digests, speed = [], worker.Speedometer()
    passes = [worker.run_pass(switchkit.cli, tasks, digests, speed) for _ in range(3)]
    assert [r["outcome"] for r in passes[0]] == ["ok", "failed", "known_defect", "known_defect"]
    line = run.summarize({"passes": passes, "peak_rss_mb": 1.0}, [{"setup_s": 1.0}], trace=0)
    assert line["attempted"] == 12 and line["failed"] == 3 and line["correct"] is False


def test_paths_per_s_is_the_throughput_of_untraced_passes():
    def one_pass(traced, mc_wall):
        return [{"task": name, "wall_s": wall, "outcome": "ok", "reason": "", "paths": paths,
                 "traced": traced, "kernel_s": [run.KERNEL_REFERENCE_S] * 2}
                for name, wall, paths in (("mc", mc_wall, 1000), ("table", 1.0, 0))]

    # cold first pass, then traced passes slower than the untraced one
    passes = [one_pass(False, 4.0), one_pass(True, 3.0), one_pass(False, 2.0),
              one_pass(True, 3.0)]
    line = run.summarize({"passes": passes, "layers": {}}, [], trace=1)
    assert line["metrics"]["paths_per_s"]["value"] == pytest.approx(1000 / 2.0)


def test_changed_output_fails_the_byte_identity_contract(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    task = workloads._series_task("e", "expected-value", "exp(rate=1)", 5.0, 1e-3,
                                  lambda out: lambda res: None)
    digests, speed = [], worker.Speedometer()
    first = worker.run_pass(switchkit.cli, [task], digests, speed)
    digests[0] = "0" * 64  # as if the first run had written other bytes
    second = worker.run_pass(switchkit.cli, [task], digests, speed)
    assert first[0]["outcome"] == "ok"
    assert second[0]["outcome"] == "failed" and "byte-identical" in second[0]["reason"]


def test_task_lists_are_seeded_and_keep_the_known_defects_fixed():
    for name in workloads.WORKLOADS:
        a, b = workloads.build(name, 7), workloads.build(name, 7)
        assert [t.argv for t in a.tasks] == [t.argv for t in b.tasks]
        assert [t.argv for t in a.tasks] != [t.argv for t in workloads.build(name, 8).tasks]
    defects = {s: [t.argv for t in workloads.build("invert", s).tasks if t.known_defect]
               for s in range(5)}
    assert defects[0] == [("iia", "--r", "diffusion2d", "--t-end", "40", "--h", "0.0005",
                           "--out-prefix", "i5_iia_fine"),
                          ("recover", "--from", "covariance", "--input", "i6_cov_exp.csv",
                           "--out-prefix", "i7"),
                          ("gd-check", "--dist", "gamma(shape=2,scale=1)", "--r", "1.5")]
    assert all(d == defects[0] for d in defects.values())


def test_quantile_is_an_order_statistic():
    assert run.quantile([3.0, 1.0, 2.0], 0.5) == 2.0
    assert run.quantile([float(i) for i in range(1, 10)], 0.9) == 9.0
    assert run.quantile([float(i) for i in range(1, 11)], 0.9) == 10.0
    assert run.quantile([float(i) for i in range(1, 11)], 0.5) == 6.0
    assert run.quantile([float(i) for i in range(1, 12)], 0.9) == 10.0
