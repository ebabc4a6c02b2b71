"""Benchmark of the kerrmich package: end-to-end and per-module metrics.

    python3 bench/run.py --workload sweep-csv|design-points|verify-oracle|all \
        --seed N --seconds T --trace 0|1

Run from anywhere inside a source checkout; the package is imported from
the checkout's ``src`` directory, never from an installed copy. Each
workload runs in a fresh child interpreter (`worker.py`) with one BLAS
thread and no further processes; set-up time is the median over several
more fresh interpreters that only import the package.

With ``--trace 0`` the result carries the end-to-end metrics, with
``--trace 1`` the per-module metrics from a traced run (see `spans.py`).
A table with units and the run's provenance is printed first; the last
stdout line is one JSON object with keys correct, attempted, failed and
metrics. Results and spans are also written under ``.bench_out/``.
Exit status is non-zero, with no result line, when the checkout has no
``src/kerrmich`` or a run fails.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import spans

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
WORKLOADS = ("sweep-csv", "design-points", "verify-oracle")
# Set-up probes run half before and half after the workload, so the
# median spans the run rather than one moment of a drifting host.
SETUP_PROBES = 8
# A whole run must end within 180 s; a probe takes well under a second.
PROBE_TIMEOUT_S = 20.0
WORKER_TIMEOUT_S = 150.0

# Prints the import time and the reference-block time of the same fresh
# interpreter (see worker.py); only the import is set-up.
IMPORT_PROBE = """\
import time
t0 = time.perf_counter()
import kerrmich
t1 = time.perf_counter()
import sys, pathlib
want = pathlib.Path(sys.argv[1]).resolve()
assert pathlib.Path(kerrmich.__file__).resolve().parent.parent == want, kerrmich.__file__
sys.path.insert(0, sys.argv[2])
from worker import reference_seconds
reference_seconds(1)
print(t1 - t0, reference_seconds(100))
"""
# setup_s is import seconds rescaled to a host whose reference block takes
# exactly this long, so host drift between runs cancels as in wall_ref.
REF_BLOCK_S = 1e-3

# Each workload's own name for its throughput in the printed table.
OPS_NAME = {
    "sweep-csv": "rows_per_s",
    "design-points": "evals_per_s",
    "verify-oracle": "checks_per_s",
}

# Metrics of the JSON result, as declared in BENCHMARK.json. Plain pass
# seconds and throughput are printed and recorded but not declared: host
# drift moves them by up to ~25% from run to run, more than a regression
# bound can allow, while wall_ref cancels it (see worker.py).
END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_ref": "ref",
    "peak_rss_mb": "MB",
}


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def _run_child(cmd: list[str], timeout: float) -> str:
    try:
        proc = subprocess.run(
            cmd, env=child_env(), cwd=ROOT, capture_output=True, text=True,
            timeout=timeout,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"timed out after {exc.timeout:.0f} s: {cmd[1]}") from None
    if proc.returncode != 0:
        raise BenchError(f"{cmd[1]} exited {proc.returncode}:\n{proc.stderr.strip()}")
    return proc.stdout.strip().splitlines()[-1]


def setup_probes(probes: int) -> list[tuple[float, float]]:
    """(import seconds, reference-block seconds) in fresh interpreters."""
    cmd = [sys.executable, "-c", IMPORT_PROBE, str(SRC), str(BENCH_DIR)]
    return [
        tuple(map(float, _run_child(cmd, PROBE_TIMEOUT_S).split()))
        for _ in range(probes)
    ]


def run_worker(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    workdir = OUT_DIR / f"{workload}-seed{seed}-trace{int(trace)}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    line = _run_child([
        sys.executable, str(BENCH_DIR / "worker.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace)),
        "--workdir", str(workdir),
    ], WORKER_TIMEOUT_S)
    for scratch in workdir.glob("*"):
        if scratch.name != "spans.npz":
            scratch.unlink()
    if not any(workdir.iterdir()):
        workdir.rmdir()
    return json.loads(line)


def provenance(seed: int, worker: dict) -> dict:
    sources = sorted(SRC.rglob("*.py"))
    digest = hashlib.sha256()
    lines = 0
    for path in sources:
        data = path.read_bytes()
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + data)
        lines += data.count(b"\n")
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": worker["numpy"],
        "git_sha": git_sha(),
        "src_sha256": digest.hexdigest(),
        "src_lines": lines,
        "seed": seed,
    }


def git_sha() -> str | None:
    """HEAD of the checkout, or None when it is not a git work tree."""
    try:
        top = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    out = top.stdout.split()
    if top.returncode != 0 or len(out) != 2 or Path(out[0]).resolve() != ROOT:
        return None
    return out[1]


def end_to_end(setup: list[tuple[float, float]], w: dict) -> dict[str, float]:
    return {
        "setup_s": statistics.median(imp / ref * REF_BLOCK_S for imp, ref in setup),
        "wall_ref": statistics.median(w["wall_refs"]),
        "peak_rss_mb": w["peak_rss_mb"],
    }


def table(workload: str, e2e: dict, setup: list, w: dict) -> list[tuple[str, float, str]]:
    """Every end-to-end figure, under the names the workload is known by."""
    wall = statistics.median(w["walls"])
    rows = [
        ("setup_s", e2e["setup_s"], "s"),
        ("import_s", statistics.median(imp for imp, _ in setup), "s"),
        ("wall_s", wall, "s"),
        ("wall_ref", e2e["wall_ref"], "ref"),
        ("peak_rss_mb", e2e["peak_rss_mb"], "MB"),
        ("failed_frac", w["failed"] / w["attempted"], "1"),
        (OPS_NAME[workload], w["ops_per_pass"] / wall, "1/s"),
    ]
    if "latency_us" in w:
        rows.append(("eval_p50_us", w["latency_us"]["p50"], "us"))
        rows.append(("eval_p99_us", w["latency_us"]["p99"], "us"))
    return rows


def run_one(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    probes = 0 if trace else SETUP_PROBES // 2
    setup = setup_probes(probes)
    w = run_worker(workload, seed, seconds, trace)
    setup += setup_probes(probes)
    prov = provenance(seed, w)
    print(f"== {workload} seed={seed} seconds={seconds:g} trace={int(trace)} "
          f"passes={len(w['walls'])}+{len(w.get('traced_walls', []))} "
          f"op={w['op']!r} ops/pass={w['ops_per_pass']}")
    print("provenance " + json.dumps(prov))
    if trace:
        layers = dict(w["layers"])
        layers["trace.overhead_frac"] = (
            statistics.median(w["traced_walls"]) / statistics.median(w["walls"]) - 1.0
        )
        metrics = {k: {"value": layers[k], "unit": u} for k, u in spans.LAYER_UNITS.items()}
        for k, m in metrics.items():
            print(f"  {k:36s} {m['value']:14.6g} {m['unit']}")
    else:
        e2e = end_to_end(setup, w)
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in e2e.items()}
        for k, v, unit in table(workload, e2e, setup, w):
            print(f"  {k:36s} {v:14.6g} {unit}")
        if "latency_us" in w:
            print(f"  (latency percentiles: median over passes of {w['ops_per_pass']} calls each)")
    print(f"  attempted {w['attempted']}  failed {w['failed']}")
    if w["mc_fail_verdicts"]:
        print(f"  Monte Carlo 3-sigma FAIL verdicts, each equal to its recomputation "
              f"and not counted as failed: {w['mc_fail_verdicts']}")
    result = {
        "correct": w["failed"] == 0,
        "attempted": w["attempted"],
        "failed": w["failed"],
        "metrics": metrics,
    }
    record = dict(result, provenance=prov, setup_s=setup, walls=w["walls"],
                  wall_refs=w["wall_refs"], traced_walls=w.get("traced_walls"),
                  latency_us=w.get("latency_us"), mc_fail_verdicts=w["mc_fail_verdicts"])
    path = OUT_DIR / f"result-{workload}-seed{seed}-trace{int(trace)}.json"
    path.write_text(json.dumps(record, indent=2) + "\n")
    return result


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    if not (SRC / "kerrmich" / "__init__.py").is_file():
        print(f"bench: no package source at {SRC / 'kerrmich'}", file=sys.stderr)
        return 2
    OUT_DIR.mkdir(exist_ok=True)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        results = {n: run_one(n, args.seed, args.seconds, bool(args.trace)) for n in names}
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{k}": m for n, r in results.items() for k, m in r["metrics"].items()},
        }
    sys.stdout.write(json.dumps(final) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
