"""Per-layer trace of grperiod, taken from outside the package.

`Tracer.install()` replaces each traced function by a wrapper at every
module attribute of the package that refers to it, so names bound by
`from .ring import poly_mul` are wrapped as well as the home module's;
`uninstall()` puts the originals back.  An untraced run never installs a
wrapper.  Spans are (id, parent, name, start, end) lists kept in memory and
written out when the benchmark ends.  A function that a later version of
the package no longer has is left out and its metrics read zero.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import time
from pathlib import Path

LAYERS = ("ring", "summands", "targets", "assembler", "cli")

# Functions that get a span, by the layer that defines them.
SPANNED = {
    "ring": ("poly_mul", "unit_inverse", "vandermonde_divide"),
    "summands": (
        "oh_summand",
        "base_j_factor",
        "flag_factor",
        "weyl_block",
        "twist_factor",
        "factor_ratio",
    ),
    "targets": ("class_enumeration",),
    "assembler": (
        "period_series",
        "estimate_points",
        "correction_C",
        "unit_coefficient",
        "degree_numerator",
        "class_numerator",
        "unit_from_numerator",
    ),
    "cli": ("main", "build_model", "render_series"),
}

# Per-layer metrics: name -> (unit, better).  The same list, in the same
# order, is `per_layer` in BENCHMARK.json.
PER_LAYER = {
    "ring.poly_mul.calls": ("count", "lower"),
    "ring.poly_mul.s": ("s", "lower"),
    "ring.poly_mul.term_pairs": ("count", "lower"),
    "ring.unit_inverse.calls": ("count", "lower"),
    "ring.unit_inverse.s": ("s", "lower"),
    "ring.vandermonde_divide.s": ("s", "lower"),
    "ring.numerator_terms_max": ("count", "lower"),
    "summands.oh_summand.calls": ("count", "lower"),
    "summands.oh_summand.s": ("s", "lower"),
    "summands.oh_summand.self_s": ("s", "lower"),
    "summands.points_per_s": ("1/s", "higher"),
    "summands.base_j_factor.s": ("s", "lower"),
    "summands.flag_factor.s": ("s", "lower"),
    "summands.weyl_block.s": ("s", "lower"),
    "summands.twist_factor.s": ("s", "lower"),
    "summands.factor_ratio.calls": ("count", "lower"),
    "summands.factor_ratio.s": ("s", "lower"),
    "targets.class_enumeration.calls": ("count", "lower"),
    "targets.class_enumeration.s": ("s", "lower"),
    "targets.classes": ("count", "lower"),
    "targets.lattice_points": ("count", "lower"),
    "assembler.points_evaluated": ("count", "lower"),
    "assembler.points_skipped": ("count", "lower"),
    "assembler.eval_ratio": ("ratio", "higher"),
    "assembler.class_numerator.self_s": ("s", "lower"),
    "assembler.unit_from_numerator.s": ("s", "lower"),
    "assembler.correction_C.s": ("s", "lower"),
    "assembler.estimate_points.s": ("s", "lower"),
    "assembler.period_series.self_s": ("s", "lower"),
    "cli.build_model.s": ("s", "lower"),
    "cli.render_series.s": ("s", "lower"),
    "cli.output_bytes": ("bytes", "lower"),
    "series.max_bits": ("bits", "lower"),
    "trace.overhead_ratio": ("ratio", "lower"),
}

# Counters kept by observers, beside the span counts.
COUNTERS = (
    "ring.poly_mul.term_pairs",
    "ring.numerator_terms_max",
    "targets.classes",
    "targets.lattice_points",
    "assembler.skipped_forced_nilpotent",
    "assembler.skipped_nonconvex",
    "cli.output_bytes",
    "series.max_bits",
)

# Metrics that are exact counts: two traced runs of one workload must agree.
COUNTS = tuple(name for name, (unit, _) in PER_LAYER.items() if unit in ("count", "bytes", "bits"))


def _modules():
    return [importlib.import_module(f"grperiod.{layer}") for layer in LAYERS]


def _bits(value) -> int:
    return max(value.numerator.bit_length(), value.denominator.bit_length())


class Tracer:
    """Spans and counters of one traced call; reset() before each call."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, int] = {}
        self.missing: list[str] = []
        self._stack: list[list] = []
        self._undo: list[tuple] = []

    def reset(self) -> None:
        self.spans.clear()
        self._stack.clear()
        for key in COUNTERS:
            self.counts[key] = 0

    # -- installing wrappers ----------------------------------------------

    def install(self) -> None:
        if self._undo:
            raise RuntimeError("tracer already installed")
        self.reset()
        self.missing = []
        modules = _modules()
        observers = {
            "poly_mul": self._observe_poly_mul,
            "vandermonde_divide": self._observe_divide,
            "class_enumeration": self._observe_classes,
            "render_series": self._observe_render,
            "period_series": self._observe_series,
        }
        for layer, names in SPANNED.items():
            home = importlib.import_module(f"grperiod.{layer}")
            for name in names:
                fn = getattr(home, name, None)
                if fn is None:
                    self.missing.append(f"{layer}.{name}")
                    continue
                wrapper = self._spanned(f"{layer}.{name}", fn, observers.get(name))
                self._patch(modules, name, fn, wrapper)
        targets = importlib.import_module("grperiod.targets")
        assembler = importlib.import_module("grperiod.assembler")
        if hasattr(targets, "lattice_range"):
            fn = targets.lattice_range
            self._patch(modules, "lattice_range", fn, self._counted_generator(fn))
        else:
            self.missing.append("targets.lattice_range")
        # Skip reasons, counted where class_numerator looks the filters up.
        for name, check in (
            ("_forced_nilpotent_degree", self._observe_forced),
            ("twist_uppers", self._observe_uppers),
        ):
            fn = getattr(assembler, name, None)
            if fn is None:
                self.missing.append(f"assembler.{name}")
                continue
            self._patch([assembler], name, fn, self._observed(fn, check))

    def uninstall(self) -> None:
        for module, name, original in reversed(self._undo):
            setattr(module, name, original)
        self._undo.clear()

    def _patch(self, modules, name, original, wrapper) -> None:
        for module in modules:
            if getattr(module, name, None) is original:
                setattr(module, name, wrapper)
                self._undo.append((module, name, original))

    def _spanned(self, name, fn, observe):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [len(spans), stack[-1][0] if stack else -1, name, 0.0, 0.0]
            spans.append(span)
            stack.append(span)
            span[3] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[4] = clock()
                stack.pop()
            if observe is not None:
                self._observe(observe, args, result)
            return result

        return wrapper

    def _observe(self, observe, args, result) -> None:
        """Run an observer; one that no longer fits the package is noted, not fatal."""
        try:
            observe(args, result)
        except (AttributeError, TypeError, IndexError) as exc:
            note = f"{observe.__name__}: {type(exc).__name__}: {exc}"
            if note not in self.missing:
                self.missing.append(note)

    def _counted_generator(self, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            for item in fn(*args, **kwargs):
                counts["targets.lattice_points"] += 1
                yield item

        return wrapper

    def _observed(self, fn, observe):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            self._observe(observe, args, result)
            return result

        return wrapper

    # -- observers: counts taken from arguments and results -----------------

    def _observe_poly_mul(self, args, result) -> None:
        a, b = args[0], args[1]
        self.counts["ring.poly_mul.term_pairs"] += len(a.terms) * len(b.terms)

    def _observe_divide(self, args, result) -> None:
        key = "ring.numerator_terms_max"
        self.counts[key] = max(self.counts[key], len(args[0].terms))

    def _observe_classes(self, args, result) -> None:
        self.counts["targets.classes"] += len(result)

    def _observe_render(self, args, result) -> None:
        self.counts["cli.output_bytes"] += len(result.encode("utf-8"))

    def _observe_series(self, args, result) -> None:
        values = (*result.coefficients, *result.regularised)
        self.counts["series.max_bits"] = max(_bits(v) for v in values)

    def _observe_forced(self, args, result) -> None:
        target = args[0]
        if result > target.omega_degree:
            self.counts["assembler.skipped_forced_nilpotent"] += 1

    def _observe_uppers(self, args, result) -> None:
        if any(u < 0 for u in result):
            self.counts["assembler.skipped_nonconvex"] += 1

    # -- reading the spans ------------------------------------------------

    def self_times(self) -> list[float]:
        """Per span: its duration minus the time its child spans cover."""
        child = [0.0] * len(self.spans)
        for _, parent, _, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [end - start - child[i] for i, (_, _, _, start, end) in enumerate(self.spans)]

    def check(self) -> list[str]:
        """Problems with the trace.

        A child span outside its parent, a negative self time, or lattice
        points that were neither evaluated nor skipped by a filter.
        """
        problems = []
        c = self.counts
        evaluated = sum(1 for span in self.spans if span[2] == "summands.oh_summand")
        skipped = c["assembler.skipped_forced_nilpotent"] + c["assembler.skipped_nonconvex"]
        if evaluated + skipped != c["targets.lattice_points"]:
            problems.append(
                f"points evaluated {evaluated} + skipped {skipped} != "
                f"lattice points {c['targets.lattice_points']}"
            )
        for sid, parent, name, start, end in self.spans:
            if end < start:
                problems.append(f"span {sid} {name} ends before it starts")
            if parent >= 0:
                p = self.spans[parent]
                if not (p[3] <= start and end <= p[4]):
                    problems.append(f"span {sid} {name} lies outside its parent {p[2]}")
        for sid, value in enumerate(self.self_times()):
            if value < 0:
                problems.append(f"span {sid} {self.spans[sid][2]} has self time {value}")
        return problems

    def layer_metrics(self) -> dict[str, float]:
        """Every per-layer metric except trace.overhead_ratio."""
        calls: dict[str, int] = {}
        total: dict[str, float] = {}
        own: dict[str, float] = {}
        for span, self_s in zip(self.spans, self.self_times()):
            name, duration = span[2], span[4] - span[3]
            calls[name] = calls.get(name, 0) + 1
            total[name] = total.get(name, 0.0) + duration
            own[name] = own.get(name, 0.0) + self_s
        c = self.counts
        evaluated = calls.get("summands.oh_summand", 0)
        skipped = c["assembler.skipped_forced_nilpotent"] + c["assembler.skipped_nonconvex"]
        out: dict[str, float] = {}
        for metric in PER_LAYER:
            base, _, kind = metric.rpartition(".")
            if metric in c:
                out[metric] = c[metric]
            elif kind == "calls":
                out[metric] = calls.get(base, 0)
            elif kind == "s":
                out[metric] = total.get(base, 0.0)
            elif kind == "self_s":
                out[metric] = own.get(base, 0.0)
        oh_s = total.get("summands.oh_summand", 0.0)
        lattice = c["targets.lattice_points"]
        out["summands.points_per_s"] = evaluated / oh_s if oh_s else 0.0
        out["assembler.points_evaluated"] = evaluated
        out["assembler.points_skipped"] = skipped
        out["assembler.eval_ratio"] = evaluated / lattice if lattice else 0.0
        return {metric: out[metric] for metric in PER_LAYER if metric in out}

    def write_spans(self, path: Path) -> None:
        """Write the spans as CSV, times in seconds from the first span's start."""
        t0 = self.spans[0][3] if self.spans else 0.0
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id,parent,name,start_s,end_s\n")
            for sid, parent, name, start, end in self.spans:
                fh.write(f"{sid},{parent},{name},{start - t0:.9f},{end - t0:.9f}\n")


def scale_times(metrics: dict[str, float], factor: float) -> dict[str, float]:
    """Metrics with every time multiplied, and every rate divided, by factor."""
    out = {}
    for name, value in metrics.items():
        unit = PER_LAYER[name][0]
        out[name] = value * factor if unit == "s" else value / factor if unit == "1/s" else value
    return out


def median_metrics(runs: list[dict[str, float]]) -> dict[str, float]:
    """Median of each metric over traced runs; counts, which agree, from the first."""
    return {
        name: value if name in COUNTS else statistics.median(run[name] for run in runs)
        for name, value in runs[0].items()
    }
