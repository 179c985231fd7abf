"""switchkit benchmark: seeded batches of CLI tasks, timed end to end, with a
separate traced run for the per-layer breakdown.

    python3 perfbench/run.py --workload tabulate|invert|oracle --seed N \
        --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from ``src``.

Each workload is a fixed, seeded list of tasks, each one call of the public
entry point ``switchkit.cli.run(argv)`` in one process on one thread (a
closed loop with one client).  A run repeats whole passes of the list until
``--seconds`` have gone by, at least three, and checks every output: each
task against a reference that does not use the layer being timed, and from
the second pass on against its own first run, byte for byte.  Timings are
per-task medians over the passes.

``--trace 0`` reports the end-to-end metrics.  ``setup_s`` is the median of
five set-ups (import of switchkit, writing the input tables, one warm-up
task), each in a fresh process.  ``--trace 1`` alternates untraced and
traced passes, at least two of each, and reports the per-layer metrics of
the traced ones, per pass, the tracing overhead against the untraced ones
after the first, and ``paths_per_s`` of those untraced passes.

The speed of a shared host drifts by up to +-25% over tens of seconds,
which would swamp any change worth measuring.  So a fixed calibration
kernel is timed around every task, and task times are reported in seconds
at the reference speed, the speed at which the kernel takes
``KERNEL_REFERENCE_S``.  The readable report also gives each task's time as
measured.  ``setup_s`` and per-layer self times are as measured: set-up
time, mostly imports, does not follow the kernel.

Every line but the last is a readable report; the last line is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
``failed`` counts unexpected failures.  Three tasks of ``invert`` reproduce
known defects (two shape-screen refusals, exit 2 where success is expected,
and a gd-check that passes a law that is not divisible): they count in
``failed_share`` and ``known_defect_share``, not in ``failed``.  Any other
exit code or a wrong output fails the task.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 5
TIME_LIMIT_S = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
# Times are reported at the speed at which the calibration kernel
# (worker.Speedometer) takes this long.  Task times move as the kernel's
# time to this power: the pooled elasticity measured on a 2-vCPU host was
# 0.66-0.79 by workload (the kernel reacts more to host load than tasks do).
KERNEL_REFERENCE_S = 0.0022
KERNEL_ELASTICITY = 0.75


def quantile(values, q: float) -> float:
    """The order statistic at rank ceil(q (n - 1)), counting from 0 (numpy's
    "higher" method): never an interpolation between two tasks, and on the
    short task lists here p90 is the slowest task."""
    xs = sorted(values)
    return xs[math.ceil(q * (len(xs) - 1))]


def to_reference(seconds: float, kernel_s: float) -> float:
    """A time measured while the kernel took ``kernel_s``, at the reference
    speed."""
    return seconds * (KERNEL_REFERENCE_S / kernel_s) ** KERNEL_ELASTICITY


def at_reference_speed(one_pass) -> list[float]:
    """Each task's wall time scaled by the median of the four kernel timings
    around it (two before, two after)."""
    kernel = [one_pass[0]["kernel_s"][0]] + [r["kernel_s"][1] for r in one_pass]
    return [to_reference(r["wall_s"], statistics.median(kernel[max(i - 1, 0):i + 3]))
            for i, r in enumerate(one_pass)]


def task_medians(passes, scaled=True) -> list[float]:
    """Median time of each task over the given passes, at the reference
    speed or as measured."""
    times = [at_reference_speed(p) if scaled else [r["wall_s"] for r in p] for p in passes]
    return [statistics.median(t[i] for t in times) for i in range(len(passes[0]))]


def _paths_per_s(passes) -> float:
    walls = task_medians(passes)
    mc = [(r["paths"], w) for r, w in zip(passes[0], walls) if r["paths"]]
    return sum(n for n, _ in mc) / sum(w for _, w in mc) if mc else 0.0


def summarize(result: dict, setups: list[dict], trace: int) -> dict:
    """The result line: counts and the metrics of this run mode.

    Task timings are per-task medians over the passes at the reference
    speed, so one slow pass (a cold first pass, a noisy neighbour) barely
    moves a metric.  Throughput is always that of untraced passes.
    """
    passes = result["passes"]
    records = [r for p in passes for r in p]
    failed = sum(r["outcome"] == "failed" for r in records)
    known = sum(r["outcome"] == "known_defect" for r in records)
    metrics: dict[str, tuple[float, str]] = {}
    if not trace:
        walls = task_medians(passes)
        metrics["setup_s"] = (statistics.median(s["setup_s"] for s in setups), "s")
        metrics["tasks_per_s"] = (len(walls) / sum(walls), "1/s")
        metrics["task_s_p50"] = (quantile(walls, 0.5), "s")
        metrics["task_s_p90"] = (quantile(walls, 0.9), "s")
        metrics["peak_rss_mb"] = (result["peak_rss_mb"], "MB")
    else:
        traced = [p for p in passes if p[0]["traced"]]
        plain = [p for p in passes[1:] if not p[0]["traced"]]  # the first pass is cold
        metrics.update({k: tuple(v) for k, v in result["layers"].items()})
        metrics["trace.overhead_share"] = (
            sum(task_medians(traced)) / sum(task_medians(plain)) - 1.0, "ratio")
        metrics["failed_share"] = ((failed + known) / len(records), "ratio")
        metrics["known_defect_share"] = (known / len(records), "ratio")
        metrics["paths_per_s"] = (_paths_per_s(plain), "1/s")
        probes: dict[str, list[float]] = {
            "tabulate.singular_probe_err": [], "recover.compound_pdf_l1_err": []}
        for r in records:
            if "probe" in r:
                probes[r["probe"][0]].append(r["probe"][1])
        for name, values in probes.items():
            metrics[name] = (statistics.median(values) if values else 0.0,
                             "abs" if name.endswith("probe_err") else "ratio")
    return {
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def report(args, result: dict, line: dict) -> None:
    """Readable report: environment, the end-to-end figures that the result
    line cannot carry (failed_share is 0 on two workloads, paths_per_s exists
    only where paths run), every metric, each task's median time, and every
    task that did not succeed."""
    records = [r for p in result["passes"] for r in p]
    known = sum(r["outcome"] == "known_defect" for r in records)
    env = result["env"]
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"passes {len(result['passes'])} x {len(result['passes'][0])} tasks  "
          f"elapsed {result['elapsed_s']:.1f} s")
    print(f"python {env['python']}  numpy {env['numpy']}  scipy {env['scipy']}  "
          f"nproc {env['nproc']}  threads pinned to 1 ({', '.join(THREAD_VARS)})")
    print(f"  {'failed_share':32s} {(line['failed'] + known) / len(records):.6g} ratio"
          f"  ({line['failed']} failed + {known} known-defect of {len(records)})")
    if not args.trace and any(r["paths"] for r in records):
        print(f"  {'paths_per_s':32s} {_paths_per_s(result['passes']):.6g} 1/s")
    for name, m in line["metrics"].items():
        print(f"  {name:32s} {m['value']:.6g} {m['unit']}")
    passes = result["passes"]
    for r, norm, wall in zip(passes[0], task_medians(passes), task_medians(passes, False)):
        print(f"  task {r['task']:28s} median {norm:.4f} s at reference speed, "
              f"{wall:.4f} s as measured")
    for r in records:
        if r["outcome"] != "ok":
            print(f"  {r['outcome']}: {r['task']}: {r['reason']}")


def _worker(args, extra, deadline, env) -> dict:
    """Run the workload in a fresh process and a fresh temp dir."""
    base = ROOT / ".perfbench_tmp"
    base.mkdir(exist_ok=True)
    tmp = tempfile.mkdtemp(dir=base)
    try:
        out = os.path.join(tmp, "result.json")
        cmd = [sys.executable, str(HERE / "worker.py"), "--src", str(ROOT / "src"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--result", out, *extra]
        # the CLI's own output is captured in-process; anything else the
        # worker prints goes to stderr so the result stays the last line
        subprocess.run(cmd, cwd=tmp, env=env, stdout=sys.stderr, check=True,
                       timeout=max(deadline - time.monotonic(), 1.0))
        with open(out) as fh:
            return json.load(fh)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            base.rmdir()
        except OSError:
            pass


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    deadline = time.monotonic() + TIME_LIMIT_S

    if not (ROOT / "src" / "switchkit" / "__init__.py").is_file():
        print(f"error: no switchkit sources under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    env = {k: v for k, v in os.environ.items() if k != "SWITCHKIT_SEED"}
    env.update({k: "1" for k in THREAD_VARS})
    env.pop("PYTHONPATH", None)

    try:
        setups = []
        if not args.trace:
            for _ in range(SETUP_REPEATS - 1):
                setups.append(_worker(args, ["--setup-only"], deadline, env))
        result = _worker(args, [], deadline, env)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as exc:
        print(f"error: workload process failed: {exc}", file=sys.stderr)
        return 1
    setups.append(result)
    line = summarize(result, setups, args.trace)
    report(args, result, line)
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
