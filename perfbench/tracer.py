"""Per-layer spans recorded from outside the program.

While a :class:`Tracer` is installed, every public function of the
``switchkit`` modules is replaced by a timing wrapper in every
``switchkit.*`` namespace that binds it (found by identity, so
``from .grid import convolve`` is covered), and four public methods are
wrapped on their class.  Uninstalling puts every original object back.

Self time is a span's duration minus the durations of its child spans.
Spans are kept on the thread that installed the tracer; calls made on pool
threads (``estimate --workers 2``) are counted, and their time stays in the
enclosing span on the installing thread, so self times never add up to more
than the wall time.
"""

from __future__ import annotations

import functools
import inspect
import sys
import threading
import time
from collections import Counter, defaultdict

import numpy as np

METHODS = (
    ("switchkit.distributions", "SwitchingDistribution", "sample"),
    ("switchkit.distributions", "SwitchingDistribution", "sample_size_biased"),
    ("switchkit.grid", "GridFunction", "to_csv"),
    ("switchkit.grid", "GridFunction", "from_csv"),
)

# span key (module.function) -> layer group it is reported under
GROUPS = {
    "recovery.expected_value_series": "recovery.series",
    "recovery.expected_derivative_series": "recovery.series",
    "distributions.tabulate_pdf": "distributions.tabulate",
    "distributions.tabulate_cdf": "distributions.tabulate",
    "simulation.estimate_expected_value": "simulation.estimate",
    "simulation.estimate_covariance": "simulation.estimate",
    "iia.check_iia_conditions": "iia.screen",
    "recovery.check_expected_shape": "recovery.shape",
    "recovery.check_covariance_shape": "recovery.shape",
    "recovery.divisor_from_expected": "recovery.divisor",
    "recovery.divisor_from_covariance": "recovery.divisor",
    "recovery.switching_law_from_divisor": "recovery.divisor",
    "recovery.covariance_from_expected": "recovery.bridges",
    "recovery.expected_from_covariance": "recovery.bridges",
    "recovery.covariance_delay_route": "recovery.bridges",
    "recovery.mean_from_expected": "recovery.bridges",
    "grid.cumulative_integral": "grid.calculus",
    "grid.integral": "grid.calculus",
    "grid.derivative": "grid.calculus",
    "grid.second_derivative": "grid.calculus",
}
# groups reported on their own; every other span is summed into trace.other
REPORTED = (
    "grid.convolve", "recovery.series", "distributions.tabulate", "laplace.invert_laplace",
    "grid.to_csv", "grid.from_csv", "distributions.path_rng", "distributions.make_rng",
    "distributions.sample",
    "simulation.estimate", "distributions.sample_size_biased", "distributions.make_tabulated",
    "iia.screen", "iia.clip_covariance", "iia.iia_pipeline", "recovery.shape",
    "recovery.divisor", "recovery.bridges", "grid.calculus", "laplace.cm_check",
    "divisibility.gd_check", "cli.run", "svgplot.render_panels", "simulation.simulate_switch",
)
# a call of the first group made while the second is open is counted
NESTED = {"grid.convolve": "recovery.series", "distributions.sample": "simulation.estimate"}


def _arg(args, kwargs, pos, name, default=None):
    return args[pos] if len(args) > pos else kwargs.get(name, default)


def _draws(args, kwargs, result):
    size = _arg(args, kwargs, 2, "size")
    return {"draws": 1 if size is None else int(size)}


def _inversion(args, kwargs, result):
    nodes = int(_arg(args, kwargs, 2, "nodes", 64))
    return {"evals": _arg(args, kwargs, 1, "grid").n * nodes,
            "nan_points": int(np.isnan(result.values).sum())}


# per-call work counts, taken from arguments and results
COUNTERS = {
    "grid.convolve": lambda a, k, r: {"points": len(a[0])},
    "grid.to_csv": lambda a, k, r: {"rows": len(a[0])},
    "grid.from_csv": lambda a, k, r: {"rows": len(r)},
    "distributions.sample": _draws,
    "laplace.invert_laplace": _inversion,
    "simulation.estimate_expected_value": lambda a, k, r: {"paths": _arg(a, k, 2, "n_paths")},
    "simulation.estimate_covariance": lambda a, k, r: {"paths": _arg(a, k, 2, "n_paths")},
}


def _key(fn) -> str:
    return f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"


def _modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "switchkit" or name.startswith("switchkit."))]


def public_functions() -> dict[int, object]:
    """Every public function defined in a loaded switchkit module, by id."""
    found = {}
    for mod in _modules():
        for obj in vars(mod).values():
            if (inspect.isfunction(obj) and not obj.__name__.startswith("_")
                    and obj.__module__.startswith("switchkit")):
                found[id(obj)] = obj
    return found


class Tracer:
    """Aggregated spans: per key, calls, self seconds and work counts."""

    def __init__(self):
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.counts: Counter = Counter()  # (key, counter name) -> total
        self._stack: list[list[float]] = []
        self._open: Counter = Counter()  # group -> open spans
        self._lock = threading.Lock()
        self._owner = None
        self._saved: list[tuple[object, str, object]] = []

    # -- install / uninstall -------------------------------------------------

    def __enter__(self):
        try:
            self.install()
        except BaseException:
            self.uninstall()  # put back whatever was wrapped before the failure
            raise
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        self._owner = threading.get_ident()
        wrappers = {i: self._wrap(fn, _key(fn)) for i, fn in public_functions().items()}
        for mod in _modules():
            for name, obj in list(vars(mod).items()):
                if id(obj) in wrappers:
                    self._saved.append((mod, name, obj))
                    setattr(mod, name, wrappers[id(obj)])
        for mod_name, cls_name, meth in METHODS:
            owner = getattr(sys.modules[mod_name], cls_name)
            raw = owner.__dict__[meth]
            key = f"{mod_name.rsplit('.', 1)[-1]}.{meth}"
            if isinstance(raw, classmethod):
                new = classmethod(self._wrap(raw.__func__, key))
            else:
                new = self._wrap(raw, key)
            self._saved.append((owner, meth, raw))
            setattr(owner, meth, new)

    def uninstall(self) -> None:
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)

    # -- spans -----------------------------------------------------------------

    def _wrap(self, fn, key):
        group = GROUPS.get(key, key)
        counter = COUNTERS.get(key)
        outer = NESTED.get(group)
        stack, open_, lock = self._stack, self._open, self._lock
        perf_counter = time.perf_counter

        def record(dur, ok, args, kwargs, result):
            with lock:
                self.calls[key] += 1
                self.self_s[key] += dur
                if outer and open_[outer]:
                    self.counts[(key, "in:" + outer)] += 1
                if counter and ok:
                    for name, value in counter(args, kwargs, result).items():
                        self.counts[(key, name)] += value

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if threading.get_ident() != self._owner:
                result = fn(*args, **kwargs)
                record(0.0, True, args, kwargs, result)
                return result
            frame = [0.0]
            stack.append(frame)
            open_[group] += 1
            ok, result = False, None
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                dur = perf_counter() - start
                stack.pop()
                open_[group] -= 1
                if stack:
                    stack[-1][0] += dur
                record(dur - frame[0], ok, args, kwargs, result)

        return wrapper

    # -- layer metrics -------------------------------------------------------------

    def layer_metrics(self, passes: int) -> dict[str, tuple[float, str]]:
        """Per-layer metrics per traced pass of the task list, as
        name -> (value, unit)."""
        calls, self_s, counts = Counter(), defaultdict(float), Counter()
        for key in set(self.calls) | set(self.self_s):
            group = GROUPS.get(key, key)
            group = group if group in REPORTED else "trace.other"
            calls[group] += self.calls[key]
            self_s[group] += self.self_s[key]
        for (key, name), value in self.counts.items():
            counts[(GROUPS.get(key, key), name)] += value

        def per(x):
            return x / passes

        out = {}
        for group in REPORTED + ("trace.other",):
            out[f"{group}.self_s"] = (per(self_s[group]), "s")
        for group in ("grid.convolve", "recovery.series", "distributions.tabulate",
                      "laplace.invert_laplace", "distributions.path_rng",
                      "distributions.make_rng", "distributions.sample",
                      "simulation.estimate", "distributions.sample_size_biased",
                      "laplace.cm_check"):
            out[f"{group}.calls"] = (per(calls[group]), "count")
        for group, name in (("grid.convolve", "points"), ("grid.to_csv", "rows"),
                            ("grid.from_csv", "rows"), ("laplace.invert_laplace", "evals"),
                            ("laplace.invert_laplace", "nan_points"),
                            ("distributions.sample", "draws")):
            out[f"{group}.{name}"] = (per(counts[(group, name)]), "count")
        paths = counts[("simulation.estimate", "paths")]
        out["simulation.paths"] = (per(paths), "count")
        series = calls["recovery.series"]
        out["recovery.convolutions_per_series"] = (
            counts[("grid.convolve", "in:recovery.series")] / series if series else 0.0, "ratio")
        out["simulation.sample_calls_per_path"] = (
            counts[("distributions.sample", "in:simulation.estimate")] / paths if paths else 0.0,
            "ratio")
        return out

    def self_total(self) -> float:
        return float(sum(self.self_s.values()))
