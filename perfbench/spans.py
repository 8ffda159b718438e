"""Span recorder for the traced benchmark run.

Timing wrappers are installed at run time on the public names where the
program looks them up (``spotvol.estimator.increments`` is the name
``estimate_path`` calls, not ``spotvol.market_data.increments``), so nothing
under ``src/`` changes. Each call made while a pass is armed records a span:
layer name, start, end, parent span and pass id. Spans stay in memory and
are written out when the run ends. A wrapped name that no longer exists is
reported as absent, not as an error.

Spans are named after the module that defines the function, so
``spotvol.estimator.make_measure`` records ``kernels.make_measure``.
"""

from __future__ import annotations

import functools
import importlib
import math
import os
import statistics
import time
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Callable

MIB = float(1 << 20)
COMPLEX_BYTES = 16


def _method_label(obs, config, *rest, **kwargs) -> str:
    return str(config.method)


def _rows(args, kwargs, result) -> dict:
    return {"market_data.rows": sum(int(s.times.size) for s in result.series)}


def _fourier_sizes(args, kwargs, result) -> dict:
    inc, order = args[0], args[1]
    counts = [int(a.times.size) for a in inc.assets]
    return {
        "estimator.fourier_terms": (order + 1) * sum(counts),
        "estimator.fourier_table_mb": (order + 1) * max(counts) * COMPLEX_BYTES / MIB,
    }


def _vol_csv_bytes(args, kwargs, result) -> dict:
    return {"estimator.vol_csv_bytes": os.path.getsize(args[1])}


def _atoms(args, kwargs, result) -> dict:
    return {"kernels.atoms": len(result)}


def _normals(args, kwargs, result) -> dict:
    # one stream of fine_steps normals per asset, plus one per factor
    model, fine_steps = args[0], args[1]
    return {"simulation.normals": (model.d + getattr(model, "r", 0)) * fine_steps}


@dataclass(frozen=True)
class Target:
    """One wrapped name: where it is looked up and the layer it is reported as."""

    module: str
    attr: str
    layer: str
    label: Callable | None = None   # suffix for the span name, from the call's arguments
    counts: Callable | None = None  # counts derived from (args, kwargs, result)


TARGETS = (
    Target("spotvol.estimator", "increments", "market_data.increments"),
    Target("spotvol.estimator", "fourier_coefficients", "estimator.fourier_coefficients",
           counts=_fourier_sizes),
    Target("spotvol.estimator", "make_measure", "kernels.make_measure", counts=_atoms),
    Target("spotvol.estimator", "c_from_measure", "kernels.c_from_measure"),
    Target("spotvol.estimator", "estimate_path", "estimator.estimate_path", label=_method_label),
    Target("spotvol.estimator", "write_vol_csv", "estimator.write_vol_csv", counts=_vol_csv_bytes),
    Target("spotvol.estimator", "read_vol_csv", "estimator.read_vol_csv"),
    Target("spotvol.market_data", "load_csv", "market_data.load_csv", counts=_rows),
    Target("spotvol.market_data", "write_csv", "market_data.write_csv"),
    Target("spotvol.spectral", "pca_ratios", "spectral.pca_ratios"),
    Target("spotvol.spectral", "symm_eigen", "spectral.symm_eigen"),
    Target("spotvol.spectral", "write_pca_csv", "spectral.write_pca_csv"),
    Target("spotvol.kernels", "symm_eigen", "spectral.symm_eigen"),
    Target("spotvol.simulation", "simulate", "simulation.simulate", counts=_normals),
    Target("spotvol.simulation", "sample", "simulation.sample"),
    Target("spotvol.simulation", "score", "simulation.score"),
    Target("spotvol.cli", "render_pca_svg", "cli.render_pca_svg"),
)

# how each count is obtained: read off the program's data, or worked out from sizes
COUNT_KINDS = {
    "market_data.rows": "counted",
    "estimator.fourier_terms": "computed",
    "estimator.fourier_table_mb": "computed",
    "estimator.vol_csv_bytes": "counted",
    "simulation.normals": "computed",
    "spectral.symm_eigen_calls": "counted",
    "kernels.atoms": "counted",
}

# counts that describe the largest single object rather than a total per pass
MAX_COUNTS = ("estimator.fourier_table_mb", "kernels.atoms")


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index of the enclosing span in the recorder, None at top level
    pass_id: int
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class SpanRecorder:
    """Records spans of wrapped calls made while ``pass_id`` is set."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.pass_id: int | None = None
        self.count_errors: dict[str, str] = {}
        self._stack: list[int] = []

    def wrap(self, fn: Callable, target: Target) -> Callable:
        recorder = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if recorder.pass_id is None:
                return fn(*args, **kwargs)
            name = target.layer
            if target.label is not None:
                name = f"{name}.{target.label(*args, **kwargs)}"
            parent = recorder._stack[-1] if recorder._stack else None
            span = Span(name, recorder.clock(), math.nan, parent, recorder.pass_id)
            recorder._stack.append(len(recorder.spans))
            recorder.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = recorder.clock()
                recorder._stack.pop()
            if target.counts is not None:
                try:
                    span.counts = target.counts(args, kwargs, result)
                except (AttributeError, IndexError, TypeError, ValueError, OSError) as exc:
                    recorder.count_errors[name] = f"{type(exc).__name__}: {exc}"
            return result

        return traced

    def to_json(self) -> list[dict]:
        return [
            {"name": s.name, "start": s.start, "end": s.end, "parent": s.parent,
             "pass": s.pass_id, "counts": s.counts}
            for s in self.spans
        ]


class Installed:
    """Wrappers in place; ``restore`` puts the original functions back."""

    def __init__(self) -> None:
        self.originals: list[tuple[object, str, Callable]] = []
        self.absent: list[str] = []

    def restore(self) -> None:
        for module, attr, fn in reversed(self.originals):
            setattr(module, attr, fn)
        self.originals.clear()


def install(recorder: SpanRecorder, targets=TARGETS) -> Installed:
    installed = Installed()
    for target in targets:
        where = f"{target.module}.{target.attr}"
        try:
            module = importlib.import_module(target.module)
        except ImportError:
            installed.absent.append(where)
            continue
        fn = getattr(module, target.attr, None)
        if not callable(fn):
            installed.absent.append(where)
            continue
        installed.originals.append((module, target.attr, fn))
        setattr(module, target.attr, recorder.wrap(fn, target))
    return installed


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of closed intervals."""
    total = 0.0
    reach = -math.inf
    for lo, hi in sorted(intervals):
        lo = max(lo, reach)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of its interval its children cover."""
    children: dict[int, list[Span]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append(span)
    out = []
    for i, span in enumerate(spans):
        inside = [(max(c.start, span.start), min(c.end, span.end)) for c in children[i]]
        out.append(span.duration - _covered(inside))
    return out


def pass_breakdown(spans: list[Span], pass_seconds: dict[int, float]) -> dict[int, dict]:
    """Per traced pass: total and self time by layer, counts, and top-level coverage."""
    selfs = self_times(spans)
    out = {
        p: {"total": defaultdict(float), "self": defaultdict(float), "calls": defaultdict(int),
            "counts": defaultdict(float), "top_level": 0.0, "pass_s": seconds}
        for p, seconds in pass_seconds.items()
    }
    for span, own in zip(spans, selfs):
        row = out.get(span.pass_id)
        if row is None:
            continue
        row["total"][span.name] += span.duration
        row["self"][span.name] += own
        row["calls"][span.name] += 1
        if span.parent is None:
            row["top_level"] += span.duration
        for key, value in span.counts.items():
            if key in MAX_COUNTS:
                row["counts"][key] = max(row["counts"][key], value)
            else:
                row["counts"][key] += value
    return out


def layer_metrics(spans: list[Span], pass_seconds: dict[int, float], untraced_p50: float,
                  grid_points: int) -> dict[str, float]:
    """Per-layer metrics: medians over traced passes of per-pass sums.

    ``<layer>_s`` is the time inside a layer's spans, ``estimator.eval_s.<method>``
    is the self time of ``estimate_path`` (its increments, Fourier and measure
    children removed), and counts are per pass. Layers that did not run are
    left out.
    """
    rows = list(pass_breakdown(spans, pass_seconds).values())
    if not rows:
        return {}

    def med(fn) -> float:
        return statistics.median(fn(r) for r in rows)

    names = sorted({name for r in rows for name in r["total"]})
    metrics: dict[str, float] = {}
    for name in names:
        metrics[f"{name}_s"] = med(lambda r, n=name: r["total"][n])
        if name.startswith("estimator.estimate_path."):
            method = name.rsplit(".", 1)[1]
            metrics[f"estimator.estimate_path_s.{method}"] = metrics.pop(f"{name}_s")
            metrics[f"estimator.eval_s.{method}"] = med(lambda r, n=name: r["self"][n])
            metrics[f"estimator.eval_us_per_point.{method}"] = med(
                lambda r, n=name: 1e6 * r["self"][n] / (grid_points * r["calls"][n]))
    paths = [n for n in names if n.startswith("estimator.estimate_path.")]
    metrics["estimator.eval_s.all_forms"] = med(lambda r: sum(r["self"][n] for n in paths))
    metrics["spectral.symm_eigen_calls"] = med(lambda r: r["calls"]["spectral.symm_eigen"])
    for key in sorted({k for r in rows for k in r["counts"]}):
        metrics[key] = med(lambda r, k=key: r["counts"][k])
    if "market_data.rows" in metrics and "market_data.load_csv_s" in metrics:
        metrics["market_data.rows_per_s"] = med(
            lambda r: r["counts"]["market_data.rows"] / r["total"]["market_data.load_csv"])
    traced_p50 = med(lambda r: r["pass_s"])
    metrics["trace.pass_s"] = traced_p50
    metrics["trace.top_level_coverage"] = med(lambda r: r["top_level"] / r["pass_s"])
    metrics["trace.overhead_s"] = traced_p50 - untraced_p50
    return metrics


def layer_shares(spans: list[Span], pass_seconds: dict[int, float]) -> dict[str, float]:
    """Median share of the traced pass spent in each layer's own code (self time)."""
    rows = list(pass_breakdown(spans, pass_seconds).values())
    names = sorted({name for r in rows for name in r["self"]})
    return {n: statistics.median(r["self"][n] / r["pass_s"] for r in rows) for n in names}
