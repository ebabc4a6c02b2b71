"""In-memory span tracer installed around the package's public functions.

A traced pass replaces selected module attributes with wrappers, at the
place where the *calling* module looks them up (``kerrmich.sweep.derive``,
not ``kerrmich.core.derive``), so the program itself is not edited. Each
wrapper records one span: name, start, end (``perf_counter_ns``) and the
index of the enclosing span. Spans stay in compact arrays until the run
ends, when `Tracer.save` writes them out. Every attribute is put back when
the ``installed`` block exits, even on error.

Self time of a span is its duration minus the durations of its direct
children; the per-module numbers in `pass_metrics` are built from that.
"""

from __future__ import annotations

import importlib
import statistics
import time
from array import array
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Iterator

import numpy as np


def _observe_product_input(args, kwargs, result, counters) -> None:
    counters["fock.dim_sum"] += result.dims[0]
    counters["fock.bytes_computed"] += result.coeffs.nbytes  # written


def _observe_apply_kerr(args, kwargs, result, counters) -> None:
    counters["fock.bytes_computed"] += args[0].coeffs.nbytes + result.coeffs.nbytes


def _observe_moments(args, kwargs, result, counters) -> None:
    counters["fock.bytes_computed"] += args[0].coeffs.nbytes  # read


def _observe_run_sweep(args, kwargs, result, counters) -> None:
    counters["sweep.rows"] += len(result)


def _observe_run_crosscheck(args, kwargs, result, counters) -> None:
    counters["crosscheck.cases"] += len(result.cases)


# (module looked up by the caller, attribute, span name, observer)
TARGETS: tuple[tuple[str, str, str, Callable | None], ...] = (
    ("kerrmich.cli", "main", "cli.main", None),
    ("kerrmich.cli", "run_sweep", "sweep.run_sweep", _observe_run_sweep),
    ("kerrmich.cli", "run_crosscheck", "crosscheck.run_crosscheck", _observe_run_crosscheck),
    ("kerrmich.sweep", "evaluate", "sweep.evaluate", None),
    ("kerrmich.sweep", "derive", "core.derive", None),
    ("kerrmich.sweep", "sensitivity_report", "analytic.sensitivity_report", None),
    ("kerrmich.crosscheck", "product_input", "fock.product_input", _observe_product_input),
    ("kerrmich.crosscheck", "apply_kerr", "fock.apply_kerr", _observe_apply_kerr),
    ("kerrmich.crosscheck", "moments", "fock.moments", _observe_moments),
    ("kerrmich.crosscheck", "monte_carlo_phase", "fock.monte_carlo_phase", None),
    ("kerrmich.crosscheck", "signal_mean_exact", "analytic.signal_mean_exact", None),
)
SPAN_NAMES = tuple(t[2] for t in TARGETS)
FOCK_SPANS = tuple(n for n in SPAN_NAMES if n.startswith("fock."))


class Tracer:
    """Span store plus counters for one traced run."""

    def __init__(self) -> None:
        self.name = array("B")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.counters: defaultdict[str, float] = defaultdict(float)
        self._stack: list[int] = []

    def __len__(self) -> int:
        return len(self.start)

    def pop_counters(self) -> dict[str, float]:
        """Counters accumulated since the last call, then reset."""
        out = dict(self.counters)
        self.counters.clear()
        return out

    def _wrap(self, fn: Callable, name_id: int, observe: Callable | None) -> Callable:
        names, starts, ends, parents = self.name, self.start, self.end, self.parent
        stack, counters, clock = self._stack, self.counters, time.perf_counter_ns

        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(name_id)
            parents.append(stack[-1] if stack else -1)
            ends.append(0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if observe is not None:
                observe(args, kwargs, result, counters)
            return result

        traced.__wrapped__ = fn  # type: ignore[attr-defined]
        return traced

    @contextmanager
    def installed(self) -> Iterator["Tracer"]:
        """Swap every target for its wrapper; restore all on exit."""
        saved: list[tuple[object, str, object]] = []
        try:
            for name_id, (module_name, attr, _, observe) in enumerate(TARGETS):
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self._wrap(original, name_id, observe))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name, dtype=np.uint8),
            "start_ns": np.frombuffer(self.start, dtype=np.int64),
            "end_ns": np.frombuffer(self.end, dtype=np.int64),
            "parent": np.frombuffer(self.parent, dtype=np.int64),
        }

    def save(self, path: Path) -> None:
        """Write every span recorded in this run (uncompressed .npz)."""
        np.savez(path, names=np.array(SPAN_NAMES), **self.arrays())


def self_times_ns(a: dict[str, np.ndarray]) -> np.ndarray:
    """Duration of each span minus the durations of its direct children."""
    dur = (a["end_ns"] - a["start_ns"]).astype(np.float64)
    has_parent = a["parent"] >= 0
    child = np.bincount(
        a["parent"][has_parent], weights=dur[has_parent], minlength=len(dur)
    )
    return dur - child


def pass_totals(a: dict[str, np.ndarray], self_ns: np.ndarray, lo: int, hi: int):
    """Per span name: (calls, self ns, inclusive ns) over spans [lo, hi)."""
    names = a["name"][lo:hi]
    k = len(SPAN_NAMES)
    dur = (a["end_ns"][lo:hi] - a["start_ns"][lo:hi]).astype(np.float64)
    calls = np.bincount(names, minlength=k)
    self_total = np.bincount(names, weights=self_ns[lo:hi], minlength=k)
    incl_total = np.bincount(names, weights=dur, minlength=k)
    return (
        dict(zip(SPAN_NAMES, calls.tolist())),
        dict(zip(SPAN_NAMES, self_total.tolist())),
        dict(zip(SPAN_NAMES, incl_total.tolist())),
    )


# Every per-layer metric, in report order, with its unit.
LAYER_UNITS = {
    "core.derive.calls": "count",
    "core.derive.self_us": "us",
    "analytic.sensitivity_report.calls": "count",
    "analytic.sensitivity_report.self_us": "us",
    "sweep.evaluate.calls": "count",
    "sweep.evaluate.self_us": "us",
    "sweep.evaluate.us": "us",
    "sweep.evaluate.plumbing_frac": "ratio",
    "sweep.run_sweep.calls": "count",
    "sweep.run_sweep.self_s": "s",
    "sweep.rows": "count",
    "cli.main.self_s": "s",
    "cli.output_bytes": "B",
    "cli.csv_us_per_row": "us",
    "fock.product_input.calls": "count",
    "fock.product_input.self_us": "us",
    "fock.apply_kerr.calls": "count",
    "fock.apply_kerr.self_us": "us",
    "fock.moments.calls": "count",
    "fock.moments.self_us": "us",
    "fock.monte_carlo_phase.self_s": "s",
    "fock.mean_dim": "count",
    "fock.bytes_computed": "B",
    "fock.self_frac": "ratio",
    "crosscheck.run_crosscheck.self_s": "s",
    "crosscheck.cases": "count",
    "analytic.signal_mean_exact.calls": "count",
    "crosscheck.mean_yield": "ratio",
    "trace.overhead_frac": "ratio",
}


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def pass_metrics(
    calls: dict, self_ns: dict, incl_ns: dict, counters: dict, wall_s: float
) -> dict[str, float]:
    """Per-layer metrics of one traced pass (one workload iteration).

    ``*.self_us`` is mean self time per call; ``*.self_s`` is self time per
    pass; ``sweep.evaluate.us`` is inclusive time per call, and
    ``plumbing_frac`` the share of it spent outside `derive` and
    `sensitivity_report`. ``fock.bytes_computed`` is coefficient-matrix
    bytes read plus written, computed from array shapes, not measured.
    ``crosscheck.mean_yield`` is checks made per `signal_mean_exact` call.
    """
    m: dict[str, float] = {}
    for name in ("core.derive", "analytic.sensitivity_report", "sweep.evaluate"):
        m[f"{name}.calls"] = float(calls[name])
        m[f"{name}.self_us"] = _ratio(self_ns[name], calls[name]) / 1e3
    m["sweep.evaluate.us"] = _ratio(incl_ns["sweep.evaluate"], calls["sweep.evaluate"]) / 1e3
    m["sweep.evaluate.plumbing_frac"] = _ratio(self_ns["sweep.evaluate"], incl_ns["sweep.evaluate"])
    m["sweep.run_sweep.calls"] = float(calls["sweep.run_sweep"])
    m["sweep.run_sweep.self_s"] = self_ns["sweep.run_sweep"] / 1e9
    rows = counters.get("sweep.rows", 0.0)
    m["sweep.rows"] = rows
    m["cli.main.self_s"] = self_ns["cli.main"] / 1e9
    m["cli.output_bytes"] = counters.get("cli.output_bytes", 0.0)
    m["cli.csv_us_per_row"] = _ratio(self_ns["cli.main"], rows) / 1e3
    for name in ("fock.product_input", "fock.apply_kerr", "fock.moments"):
        m[f"{name}.calls"] = float(calls[name])
        m[f"{name}.self_us"] = _ratio(self_ns[name], calls[name]) / 1e3
    m["fock.monte_carlo_phase.self_s"] = self_ns["fock.monte_carlo_phase"] / 1e9
    m["fock.mean_dim"] = _ratio(counters.get("fock.dim_sum", 0.0), calls["fock.product_input"])
    m["fock.bytes_computed"] = counters.get("fock.bytes_computed", 0.0)
    m["fock.self_frac"] = sum(self_ns[n] for n in FOCK_SPANS) / 1e9 / wall_s
    m["crosscheck.run_crosscheck.self_s"] = self_ns["crosscheck.run_crosscheck"] / 1e9
    cases = counters.get("crosscheck.cases", 0.0)
    m["crosscheck.cases"] = cases
    m["analytic.signal_mean_exact.calls"] = float(calls["analytic.signal_mean_exact"])
    m["crosscheck.mean_yield"] = _ratio(cases, calls["analytic.signal_mean_exact"])
    return m


def median_metrics(passes: list[dict[str, float]]) -> dict[str, float]:
    return {k: statistics.median(p[k] for p in passes) for k in passes[0]}
