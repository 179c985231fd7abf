"""One workload in one process: set up, run passes of the task list, check
every output, and write the raw records as JSON.

Started by ``run.py``; not meant to be run by hand.  The process imports
``switchkit`` from the checkout's ``src`` and runs with the temp directory as
its working directory, where the CLI reads its inputs and writes its outputs.
"""

from __future__ import annotations

import time

_START = time.perf_counter()  # setup is timed from before any import

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

import numpy as np  # noqa: E402

import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import Result  # noqa: E402


class Speedometer:
    """Times a fixed calibration kernel: an FFT, an extended-precision exp
    and an interpreter loop that formats and parses floats, the three kinds
    of work the program does.  The kernel allocates nothing, so the state
    the previous task left in the allocator does not move it; the minimum of
    a few back-to-back repeats is the machine's speed at that moment."""

    REPEATS = 3

    def __init__(self):
        rng = np.random.default_rng(0)
        a, fa = rng.random(1 << 15), np.empty((1 << 14) + 1, complex)
        z = (1.0 + 5.0 * rng.random(4000) + 1j * rng.random(4000)).astype(np.clongdouble)
        z_out = np.empty_like(z)
        xs = rng.random(1000).tolist()

        def kernel():
            for _ in range(3):
                np.fft.rfft(a, out=fa)
            np.exp(z, out=z_out)
            acc = 0.0
            for x in xs:
                acc += float("%.17e" % x)
            return acc

        self._kernel = kernel

    def sample(self) -> float:
        best = float("inf")
        for _ in range(self.REPEATS):
            start = time.perf_counter()
            self._kernel()
            best = min(best, time.perf_counter() - start)
        return best


def invoke(run, task):
    """Run one task through the CLI entry point; return (Result, seconds)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            rc = run(list(task.argv))
        except Exception:  # an escaped exception is a failed task, not a crash
            rc = None
            traceback.print_exc()
        wall = time.perf_counter() - start
    return Result(rc, out.getvalue(), err.getvalue()), wall


def judge(task, res) -> tuple[str, str]:
    """(outcome, reason): outcome is ok, failed or known_defect."""
    try:
        defect = task.known_defect(res) if task.known_defect else None
        reason = task.check(res) if res.rc == 0 and not defect else None
    except Exception as exc:  # unreadable output fails its check
        return "failed", f"check raised {type(exc).__name__}: {exc}"
    if defect:
        return "known_defect", defect
    if res.rc == 0:
        return ("failed", reason) if reason else ("ok", "")
    tail = res.stderr.strip().splitlines()[-1:] or [""]
    return "failed", f"exit {res.rc}, expected 0: {tail[0]}"


def digest(task, res) -> str:
    h = hashlib.sha256(res.stdout.encode())
    for path in task.outputs:
        if os.path.exists(path):
            with open(path, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def run_pass(cli, tasks, first_digests, speed, tracer=None) -> list[dict]:
    """Run every task once.  From the second pass on, each task's stdout and
    output files must be byte-identical to its first run.  The calibration
    kernel is timed before the first task and after every task."""
    records = []
    kernel = [speed.sample()]
    with tracer if tracer is not None else contextlib.nullcontext():
        for i, task in enumerate(tasks):
            res, wall = invoke(cli.run, task)
            kernel.append(speed.sample())
            outcome, reason = judge(task, res)
            d = digest(task, res)
            if i >= len(first_digests):
                first_digests.append(d)
            elif d != first_digests[i] and outcome != "failed":
                outcome, reason = "failed", "not byte-identical to the same invocation earlier"
            rec = {"task": task.name, "wall_s": wall, "outcome": outcome, "reason": reason,
                   "paths": task.paths, "traced": tracer is not None,
                   "kernel_s": kernel[-2:]}
            if task.probe is not None and res.rc == 0:
                rec["probe"] = [task.probe[0], float(task.probe[1](res))]
            records.append(rec)
    return records


def setup(src: str, wl: workloads.Workload):
    """Import switchkit, write the input tables, run the warm-up task; return
    the CLI module."""
    sys.path.insert(0, src)
    import switchkit.cli as cli

    if not os.path.abspath(cli.__file__).startswith(os.path.abspath(src) + os.sep):
        raise RuntimeError(f"switchkit was imported from {cli.__file__}, not {src}")
    for path, (t, v) in wl.tables.items():
        workloads.write_table(path, t, v)
    res, _ = invoke(cli.run, wl.warmup)
    outcome, reason = judge(wl.warmup, res)
    if outcome != "ok":
        raise RuntimeError(f"warm-up task failed: {reason}")
    return cli


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--src", required=True)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--result", required=True)
    args = p.parse_args(argv)

    wl = workloads.build(args.workload, args.seed)
    cli = setup(args.src, wl)
    result = {"setup_s": time.perf_counter() - _START}
    if not args.setup_only:
        speed = Speedometer()
        result.update(measure(cli, wl, args.seconds, args.trace, speed))
        import scipy

        result["env"] = {"python": platform.python_version(), "numpy": np.__version__,
                         "scipy": scipy.__version__, "nproc": len(os.sched_getaffinity(0))}
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(args.result, "w") as fh:
        json.dump(result, fh)
    return 0


def measure(cli, wl, seconds: float, trace: int, speed: Speedometer) -> dict:
    """Closed loop: whole passes of the task list until ``seconds`` have gone
    by, at least three.  With tracing, untraced and traced passes alternate,
    at least four in all, and the loop stops only after a traced pass."""
    tracer = Tracer() if trace else None
    digests: list[str] = []
    passes: list[list[dict]] = []
    start = time.perf_counter()
    while (len(passes) < 3 + trace or time.perf_counter() - start < seconds
           or (trace and len(passes) % 2)):
        traced = trace and len(passes) % 2 == 1
        passes.append(run_pass(cli, wl.tasks, digests, speed, tracer if traced else None))
    out = {"passes": passes, "elapsed_s": time.perf_counter() - start}
    if tracer is not None:
        n_traced = sum(1 for p in passes if p[0]["traced"])
        out["layers"] = tracer.layer_metrics(n_traced)
        out["self_total_s"] = tracer.self_total()
    return out


if __name__ == "__main__":
    sys.exit(main())
