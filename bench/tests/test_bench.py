"""Tests of the benchmark itself: seeded inputs, output checks, tracing.

Run with ``python -m pytest bench/tests``. Workloads run here at a tiny
scale so the whole file takes a few seconds.
"""

from __future__ import annotations

import dataclasses
import importlib
import json
import math
import shutil
import subprocess
import sys

import numpy as np
import pytest

import run
import spans
import worker
from workloads import DesignPoints, SweepCsv, VerifyOracle

TINY = 1e-3
MODULES = ("kerrmich.cli", "kerrmich.sweep", "kerrmich.crosscheck", "kerrmich.core",
           "kerrmich.analytic", "kerrmich.fock")


@pytest.mark.parametrize("cls", [SweepCsv, DesignPoints, VerifyOracle])
def test_same_seed_same_inputs_other_seed_other_inputs(cls, tmp_path):
    a = cls(7, tmp_path, TINY).inputs()
    assert a == cls(7, tmp_path, TINY).inputs()
    b = cls(8, tmp_path, TINY).inputs()
    assert a != b
    assert {k: len(v) for k, v in a.items()} == {k: len(v) for k, v in b.items()}


def test_sweep_seed_moves_bounds_not_size(tmp_path):
    a, b = SweepCsv(1, tmp_path), SweepCsv(2, tmp_path)
    assert a.rows == b.rows == 100_000
    assert a.bounds != b.bounds


def test_sweep_check_passes_then_flags_doctored_row(tmp_path):
    w = SweepCsv(3, tmp_path, TINY)
    result = w.run_once()
    assert w.check(result) == (w.rows, 0)
    assert w.check_once() == (1, 0)

    lines = w.output.read_text().splitlines()
    target = w.sample[0] + 1  # +1 for the header
    fields = lines[target].split(",")
    col = 11  # delta_x_m
    fields[col] = repr(math.nextafter(float(fields[col]), math.inf))
    lines[target] = ",".join(fields)
    w.output.write_text("\n".join(lines) + "\n")
    assert w.check(result) == (w.rows, 1)

    w.output.write_text("\n".join(["x", *lines[1:]]) + "\n")
    assert w.check(result) == (w.rows, w.rows)
    assert w.check(dict(result, rc=1))[1] == w.rows


def test_design_points_check_flags_one_bit_change(tmp_path, monkeypatch):
    w = DesignPoints(4, tmp_path, TINY)
    assert w.check(w.run_once()) == (len(w.designs), 0)
    sweep = importlib.import_module("kerrmich.sweep")
    evaluate, target = sweep.evaluate, w.parameter_sets(3, 4)[0]

    def doctored(params, *args):
        row = evaluate(params, *args)
        if params == target:
            row = dataclasses.replace(row, improvement=math.nextafter(row.improvement, 0.0))
        return row

    monkeypatch.setattr(sweep, "evaluate", doctored)
    assert w.check(w.run_once()) == (len(w.designs), 1)


def test_verify_check_counts_fail_lines(tmp_path):
    w = VerifyOracle(5, tmp_path, TINY)
    result = w.run_once()
    assert result["rc"] == 0
    assert w.check(result) == (w.checks, 0)

    text = w.output.read_text().replace("PASS [mean]", "FAIL [mean]", 1)
    w.output.write_text(text)
    assert w.check(dict(result, rc=2)) == (w.checks, 1)
    # a FAIL line with exit 0, or a missing line, makes the report untrustworthy
    assert w.check(result) == (w.checks, w.checks)
    w.output.write_text("\n".join(text.splitlines()[1:]) + "\n")
    assert w.check(dict(result, rc=2)) == (w.checks, w.checks)


# A seed on which verify's "mc cos2 sigma=0.3" estimate lands 3.04 standard
# errors from the exact average, so the 3-sigma band reports FAIL.
MC_OUTLIER_SEED = 1828106889


def test_verify_check_accepts_recomputed_mc_verdict(tmp_path):
    w = VerifyOracle(MC_OUTLIER_SEED, tmp_path, TINY)
    result = w.run_once()
    assert result["rc"] == 2
    assert "FAIL [gaussian-mc] mc cos2 sigma=0.3: error 3.037e+00" in w.output.read_text()
    assert w.check(result) == (w.checks, 0)
    assert w.mc_fail_verdicts == 1


def test_verify_check_flags_changed_mc_line(tmp_path):
    w = VerifyOracle(5, tmp_path, TINY)
    result = w.run_once()
    text = w.output.read_text()
    line = w.mc_lines["mc sin sigma=0.1"]
    assert line in text
    z = float(line.split("error ")[1].split()[0])
    w.output.write_text(text.replace(line, line.replace(f"{z:.3e}", f"{z * 1.01:.3e}")))
    assert w.check(result) == (w.checks, 1)
    assert w.mc_fail_verdicts == 0


def _attributes():
    return {name: dict(vars(importlib.import_module(name))) for name in MODULES}


def test_traced_run_restores_every_attribute(tmp_path):
    before = _attributes()
    for cls in (SweepCsv, DesignPoints, VerifyOracle):
        worker.run(cls.name, 1, 0.0, True, tmp_path, scale=TINY)
    after = _attributes()
    for name in MODULES:
        assert before[name].keys() == after[name].keys()
        changed = [k for k, v in before[name].items() if after[name][k] is not v]
        assert changed == [], name


def test_tracer_restores_on_error():
    before = _attributes()
    with pytest.raises(RuntimeError):
        with spans.Tracer().installed():
            assert importlib.import_module("kerrmich.sweep").evaluate.__wrapped__
            raise RuntimeError("boom")
    assert all(
        _attributes()[m][k] is v for m in MODULES for k, v in before[m].items()
    )


def test_self_time_subtracts_children():
    a = {
        "name": np.array([0, 1, 1], dtype=np.uint8),
        "start_ns": np.array([0, 10, 50]),
        "end_ns": np.array([100, 30, 60]),
        "parent": np.array([-1, 0, 0]),
    }
    assert spans.self_times_ns(a).tolist() == [70.0, 20.0, 10.0]


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("cls", [SweepCsv, DesignPoints, VerifyOracle])
def test_tiny_smoke_run(cls, trace, tmp_path):
    out = worker.run(cls.name, 2, 0.0, trace, tmp_path, scale=TINY)
    assert out["failed"] == 0 and out["attempted"] > 0
    assert out["walls"] and out["peak_rss_mb"] > 0
    if not trace:
        return
    layers = out["layers"]
    assert set(layers) == set(spans.LAYER_UNITS) - {"trace.overhead_frac"}
    assert (tmp_path / "spans.npz").is_file()
    fock_calls = sum(layers[f"fock.{n}.calls"] for n in ("product_input", "apply_kerr", "moments"))
    if cls is VerifyOracle:
        assert fock_calls > 0 and layers["crosscheck.cases"] == out["ops_per_pass"]
        assert layers["sweep.evaluate.calls"] == 0
    else:
        assert fock_calls == 0
        assert layers["sweep.evaluate.calls"] > 0
    if cls is DesignPoints:
        assert layers["sweep.run_sweep.calls"] == 0 and layers["sweep.rows"] == 0
    if cls is SweepCsv:
        assert layers["sweep.rows"] == out["ops_per_pass"] == layers["sweep.evaluate.calls"]


def test_benchmark_json_matches_metrics():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == spans.LAYER_UNITS
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])


def test_fails_without_package_source(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.BENCH_DIR, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "sweep-csv", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
    assert not (tmp_path / ".bench_out").exists()
