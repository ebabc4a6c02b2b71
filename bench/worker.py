"""Child process of the benchmark: one workload, one seed, one JSON result.

    python3 bench/worker.py --workload NAME --seed N --seconds T --trace 0|1 \
        --workdir DIR

`bench/run.py` starts it in a fresh interpreter with ``src`` on the path
and one BLAS thread. It builds the workload's inputs, then repeats timed
passes while the next one is expected to end within ``--seconds``. With
``--trace 1`` passes alternate untraced / traced, so the run yields both
per-layer numbers and the tracing overhead. Outputs are checked after each
pass, outside the timed region. The last stdout line is the result as JSON.

The host's speed drifts by up to ~30% over minutes on a shared machine.
So while an untraced pass runs, a wall-clock timer interrupts it every
0.05 s to time one block of a fixed reference kernel (~1 ms). ``wall_s`` is
the pass time minus those blocks; ``wall_ref`` divides it by the mean
block time of the same pass, so the host's speed during the pass cancels,
while a change to the package shows in full: the kernel calls none of it.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import signal
import statistics
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator

import numpy as np

import spans
from workloads import WORKLOADS


@dataclass(frozen=True)
class _Probe:
    x: float
    y: float


def _reference_block() -> float:
    """A fixed mix of the kinds of work the package does, about half each:
    frozen-dataclass construction, attribute reads and float math; and
    NumPy calls on 48 x 48 complex matrices, the oracle's array size."""
    acc = 0.0
    c = np.exp(1j * np.arange(48 * 48.0)).reshape(48, 48)
    for i in range(400):
        p = _Probe(i * 1.000001, math.sqrt(i + 1.0))
        acc += p.x / p.y
        if i % 8 == 0:
            acc += float((np.abs(c * p.y) ** 2).sum())
    return acc


def reference_seconds(blocks: int) -> float:
    """Mean time of one reference block over `blocks` consecutive ones."""
    t0 = time.perf_counter()
    for _ in range(blocks):
        _reference_block()
    return (time.perf_counter() - t0) / blocks


class HostSpeed:
    """Times reference blocks on a SIGALRM timer while a pass runs."""

    INTERVAL_S = 0.05

    def __init__(self) -> None:
        self.samples: list[float] = []

    def _sample(self, signum=None, frame=None) -> None:
        self.samples.append(reference_seconds(1))

    @contextmanager
    def sampling(self) -> Iterator["HostSpeed"]:
        self.samples = []
        previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.INTERVAL_S, self.INTERVAL_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)

    def correct(self, wall_s: float) -> tuple[float, float]:
        """(pass time without the blocks, that time in mean block times)."""
        busy = sum(self.samples)
        if not self.samples:  # a pass shorter than the interval
            self._sample()
        wall = wall_s - busy
        return wall, wall / statistics.fmean(self.samples)


def run(name: str, seed: int, seconds: float, trace: bool, workdir: Path,
        scale: float = 1.0) -> dict:
    """Run one workload in this process and return its raw result."""
    workload = WORKLOADS[name](seed, workdir, scale)
    tracer = spans.Tracer() if trace else None
    attempted, failed = workload.check_once()
    walls: list[float] = []
    wall_refs: list[float] = []
    traced_walls: list[float] = []
    latency: list[tuple[float, float]] = []
    layer_passes: list[dict] = []
    ops = 0
    host = HostSpeed()
    start = time.perf_counter()
    while True:
        traced = tracer is not None and len(walls) > len(traced_walls)
        if traced:
            lo = len(tracer)
            with tracer.installed():
                result = workload.run_once()
            traced_walls.append(result["wall_s"])
            counters = tracer.pop_counters()
            counters["cli.output_bytes"] = result.get("output_bytes", 0)
            layer_passes.append({"span_range": (lo, len(tracer)), "counters": counters,
                                 "wall_s": result["wall_s"]})
        else:
            with host.sampling():
                result = workload.run_once()
            wall, wall_ref = host.correct(result["wall_s"])
            walls.append(wall)
            wall_refs.append(wall_ref)
            ops = result["ops"]
            if "latency_ns" in result:
                latency.append(_percentiles(result["latency_ns"]))
        n, bad = workload.check(result)
        attempted += n
        failed += bad
        elapsed = time.perf_counter() - start
        next_pass = statistics.median(walls + traced_walls)
        if elapsed + next_pass > seconds and (tracer is None or traced_walls):
            break

    out = {
        "workload": name,
        "seed": seed,
        "op": workload.op,
        "numpy": np.__version__,
        "ops_per_pass": ops,
        "walls": walls,
        "wall_refs": wall_refs,
        "attempted": attempted,
        "failed": failed,
        "mc_fail_verdicts": getattr(workload, "mc_fail_verdicts", 0),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if latency:
        out["latency_us"] = {
            "calls_per_pass": ops,
            "p50": statistics.median(p[0] for p in latency),
            "p99": statistics.median(p[1] for p in latency),
        }
    if tracer is not None:
        out["traced_walls"] = traced_walls
        out["layers"] = layer_metrics(tracer, layer_passes)
        out["spans"] = len(tracer)
        tracer.save(workdir / "spans.npz")
    return out


def _percentiles(latency_ns) -> tuple[float, float]:
    """p50 and p99 of one pass's per-call latencies, in microseconds."""
    s = sorted(latency_ns)
    return s[len(s) // 2] / 1e3, s[int(len(s) * 0.99)] / 1e3


def layer_metrics(tracer: spans.Tracer, layer_passes: list[dict]) -> dict[str, float]:
    arrays = tracer.arrays()
    self_ns = spans.self_times_ns(arrays)
    per_pass = []
    for p in layer_passes:
        calls, self_total, incl_total = spans.pass_totals(arrays, self_ns, *p["span_range"])
        per_pass.append(spans.pass_metrics(calls, self_total, incl_total, p["counters"], p["wall_s"]))
    return spans.median_metrics(per_pass)


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workdir", type=Path, required=True)
    args = ap.parse_args(argv)
    result = run(args.workload, args.seed, args.seconds, bool(args.trace), args.workdir)
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
