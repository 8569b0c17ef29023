"""Spans around the calls into each obsthermo layer, and what they add up to.

The traced run wraps each layer's public function from outside the package,
at every place the package holds a reference to it: a function that another
module took in with `from .x import f` is called through that module's own
name, so patching only the defining module would miss those calls.  Each
call records a span (layer, start, end, parent span); a layer's self time is
its spans' duration minus the part of it that wrapped child spans cover.
"""

import functools
import importlib
import inspect
import sys
import time
from dataclasses import dataclass


@dataclass(frozen=True)
class Layer:
    """One wrapped public function and the workloads it must be seen on."""

    name: str  # metric prefix, "<module>.<function>"
    module: str  # defining module
    attr: str  # function, or "Class.method"
    workloads: tuple  # a traced run of one of these fails if the layer records no call
    count: object = None  # (args, kwargs, result) -> units of work in one call


def _arg(func, args, kwargs, name):
    return inspect.signature(func).bind_partial(*args, **kwargs).arguments[name]


def _steps(func, args, kwargs, result):
    return len(result)


def _entries(func, args, kwargs, result):
    return result.table.size


def _iterations(func, args, kwargs, result):
    return sum(p.iterations for p in result)


def _maps(func, args, kwargs, result):
    hf = _arg(func, args, kwargs, "hf")
    return _arg(func, args, kwargs, "memory_size") ** hf.num_histories


def _leaves(func, args, kwargs, result):
    questions = tuple(_arg(func, args, kwargs, "questions"))
    return (2 * len(questions)) ** result[1]


def _windows(func, args, kwargs, result):
    return _arg(func, args, kwargs, "n")


LAYERS = (
    Layer("cli.main", "obsthermo.cli", "main", ("bundled",)),
    Layer("config.load_scenario", "obsthermo.config", "load_scenario", ("bundled",)),
    Layer("process.sample_questions", "obsthermo.process", "sample_questions", ("bundled",)),
    Layer("chain.sample_trajectory", "obsthermo.chain", "sample_trajectory", ("bundled",), _steps),
    Layer(
        "chain.long_run_distribution",
        "obsthermo.chain",
        "long_run_distribution",
        ("bundled", "monte_carlo"),
    ),
    Layer("chain.window_joint", "obsthermo.chain", "window_joint", ("wide_window",), _entries),
    Layer(
        "strategy.apply_strategy",
        "obsthermo.strategy",
        "apply_strategy",
        ("wide_window", "monte_carlo"),
        _entries,
    ),
    Layer(
        "joint.marginal",
        "obsthermo.joint",
        "JointDistribution.marginal",
        ("wide_window", "monte_carlo"),
    ),
    Layer(
        "info.mutual_information",
        "obsthermo.info",
        "mutual_information",
        ("wide_window", "monte_carlo"),
    ),
    Layer("bound.evaluate", "obsthermo.bound", "evaluate", ("wide_window", "monte_carlo")),
    Layer(
        "optimize.history_future_joint",
        "obsthermo.optimize",
        "history_future_joint",
        ("exhaustive",),
    ),
    Layer(
        "optimize.sweep_beta",
        "obsthermo.optimize",
        "sweep_beta",
        ("bundled", "exhaustive"),
        _iterations,
    ),
    Layer("optimize.exhaustive_best", "obsthermo.optimize", "exhaustive_best", ("exhaustive",), _maps),
    Layer(
        "optimize.degeneracy_report", "obsthermo.optimize", "degeneracy_report", ("exhaustive",), _maps
    ),
    Layer(
        "oracle.converged_tail",
        "obsthermo.oracle",
        "converged_tail",
        ("bundled", "monte_carlo"),
        _leaves,
    ),
    Layer("oracle.sample_windows", "obsthermo.oracle", "sample_windows", ("monte_carlo",), _windows),
    Layer("oracle.monte_carlo_check", "obsthermo.oracle", "monte_carlo_check", ("monte_carlo",)),
)

#: Per-layer metrics of a traced run: name -> (unit, better).  Self times and
#: counts are per operation; rates divide a layer's work by its inclusive time.
PER_LAYER_METRICS = {
    "import.scipy_s": ("s", "lower"),
    **{f"{layer.name}.self_s": ("s", "lower") for layer in LAYERS},
    "chain.sample_trajectory.steps_per_s": ("1/s", "higher"),
    "chain.window_joint.entries": ("count", "lower"),
    "strategy.apply_strategy.entries": ("count", "lower"),
    "optimize.sweep_beta.iterations": ("count", "lower"),
    "optimize.maps_per_s": ("1/s", "higher"),
    "oracle.converged_tail.leaves": ("count", "lower"),
    "oracle.sample_windows.windows_per_s": ("1/s", "higher"),
    "trace.spans_per_op": ("count", "lower"),
    "trace.overhead_share": ("ratio", "lower"),
}


def _resolve(layer: Layer):
    """(owner object, attribute name) of the layer's defining site.

    importlib is used because the package namespace shadows a submodule:
    `obsthermo.optimize` is the workflow function, not the module.
    """
    owner = importlib.import_module(layer.module)
    *path, attr = layer.attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, attr


def self_times(spans) -> dict:
    """name -> [self seconds, inclusive seconds, calls] from (name, start, end, parent) spans.

    Self time is a span's duration minus the union of its children's
    intervals within it.  Inclusive time counts only the outermost span of a
    name, so a layer that calls itself is not counted twice.
    """
    children = {}
    for name, start, end, parent in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    out = {}
    for i, (name, start, end, parent) in enumerate(spans):
        covered = 0.0
        reach = start
        for c_start, c_end in sorted(children.get(i, ())):
            lo, hi = max(c_start, reach), min(c_end, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        agg = out.setdefault(name, [0.0, 0.0, 0])
        agg[0] += (end - start) - covered
        agg[2] += 1
        ancestor = parent
        while ancestor >= 0 and spans[ancestor][0] != name:
            ancestor = spans[ancestor][3]
        if ancestor < 0:
            agg[1] += end - start
    return out


class Tracer:
    """Installs span-recording wrappers on the layers and removes them again."""

    def __init__(self):
        self.spans = []  # (name, start, end, parent); None while the call is open
        self.counts = {}
        self._stack = []
        self._patches = []  # (owner, attribute, original)

    def _wrap(self, layer: Layer, func):
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter
        name, count = layer.name, layer.count

        @functools.wraps(func)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = func(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent)
            if count is not None:
                counts[name] = counts.get(name, 0) + count(func, args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [
            mod
            for key, mod in list(sys.modules.items())
            if mod is not None and (key == "obsthermo" or key.startswith("obsthermo."))
        ]
        for layer in LAYERS:
            owner, attr = _resolve(layer)
            original = owner.__dict__[attr]
            wrapper = self._wrap(layer, original)
            sites = [(owner, attr)]
            if not isinstance(owner, type):
                sites += [
                    (mod, key)
                    for mod in modules
                    for key, value in list(vars(mod).items())
                    if value is original and (mod, key) != (owner, attr)
                ]
            for site_owner, key in sites:
                setattr(site_owner, key, wrapper)
                self._patches.append((site_owner, key, original))

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches = []

    def sites(self) -> list:
        """'module.attribute' of every patched reference, package prefix dropped."""
        out = []
        for owner, key, _ in self._patches:
            where = owner.__name__ if not isinstance(owner, type) else (
                f"{owner.__module__}.{owner.__qualname__}"
            )
            out.append(f"{where.removeprefix('obsthermo.')}.{key}")
        return out

    def summary(self) -> dict:
        open_spans = sum(1 for s in self.spans if s is None)
        if open_spans:
            raise RuntimeError(f"{open_spans} spans still open")
        return self_times(self.spans)


def missing_layers(summary: dict, workload: str) -> list:
    """Layers mapped to this workload that recorded no call."""
    return [
        layer.name
        for layer in LAYERS
        if workload in layer.workloads and summary.get(layer.name, [0, 0, 0])[2] == 0
    ]


def layer_metrics(summary: dict, counts: dict, ops: int, spans: int) -> dict:
    """Per-operation self times and counts, and per-second rates, by metric name."""

    def rate(work, names):
        seconds = sum(summary.get(n, [0.0, 0.0, 0])[1] for n in names)
        return work / seconds if seconds > 0 else 0.0

    out = {f"{layer.name}.self_s": summary.get(layer.name, [0.0])[0] / ops for layer in LAYERS}
    out["chain.sample_trajectory.steps_per_s"] = rate(
        counts.get("chain.sample_trajectory", 0), ["chain.sample_trajectory"]
    )
    out["chain.window_joint.entries"] = counts.get("chain.window_joint", 0) / ops
    out["strategy.apply_strategy.entries"] = counts.get("strategy.apply_strategy", 0) / ops
    out["optimize.sweep_beta.iterations"] = counts.get("optimize.sweep_beta", 0) / ops
    enumerators = ["optimize.exhaustive_best", "optimize.degeneracy_report"]
    out["optimize.maps_per_s"] = rate(sum(counts.get(n, 0) for n in enumerators), enumerators)
    out["oracle.converged_tail.leaves"] = counts.get("oracle.converged_tail", 0) / ops
    out["oracle.sample_windows.windows_per_s"] = rate(
        counts.get("oracle.sample_windows", 0), ["oracle.sample_windows"]
    )
    out["trace.spans_per_op"] = spans / ops
    return out
