import contextlib
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import kerrmich
import kerrmich.crosscheck
import kerrmich.fock
from kerrmich.cli import DESIGN_FLAGS, CliError, main, parse_grid, parse_n2
from kerrmich.crosscheck import MAX_CASES, MAX_DIM_MARGIN
from kerrmich.core import HBAR, C_LIGHT
from kerrmich.sweep import CSV_HEADER


def order_band(value, decade, factor=5.0):
    return decade / factor <= value <= decade * factor


def run_cli(capsys, *args):
    code = main(list(args))
    out, err = capsys.readouterr()
    return code, out, err


class TestFlagParsing:
    def test_n2_defaults_to_cm2(self):
        assert parse_n2("1e-17") == 1e-17 * 1e-4

    @pytest.mark.parametrize(
        "text,expected",
        [
            ("1e-17cm2", 1e-17 * 1e-4),
            ("1e-17cm^2/W", 1e-17 * 1e-4),
            ("1e-21m2", 1e-21),
            ("1e-21 m2/W", 1e-21),
            ("0", 0.0),
        ],
    )
    def test_n2_suffixes(self, text, expected):
        assert parse_n2(text) == expected

    def test_n2_garbage(self):
        with pytest.raises(CliError):
            parse_n2("fast")

    def test_grid_parsing(self):
        g = parse_grid("tau=1e-13:1e-10:50:log")
        assert (g.parameter, g.lo, g.hi, g.points, g.spacing) == (
            "tau",
            1e-13,
            1e-10,
            50,
            "log",
        )
        assert parse_grid("eta=0.5:1:3").spacing == "linear"

    def test_grid_n2_values_carry_units(self):
        g = parse_grid("n2=1e-18:1e-16:3:log")
        assert g.lo == 1e-18 * 1e-4
        assert g.hi == 1e-16 * 1e-4

    @pytest.mark.parametrize("text", ["tau", "tau=1:2", "tau=1:2:3:4:5", "tau=a:b:3"])
    def test_grid_garbage(self, text):
        with pytest.raises(CliError):
            parse_grid(text)


class TestEstimate:
    def test_giant_regime(self, capsys):
        code, out, _ = run_cli(capsys, "estimate", "--regime", "giant-eit")
        assert code == 0
        got = json.loads(out)
        assert order_band(got["improvement"], 1e-6)
        assert order_band(got["delta_x_m"], 1e-20)
        assert order_band(got["n_photons"], 1e14)
        assert set(got) == {
            "n_photons",
            "chi",
            "k",
            "delta_x_m",
            "delta_x_linear_m",
            "improvement",
            "validity",
        }
        assert got["validity"]["small_signal"] is True

    def test_natural_regime(self, capsys):
        code, out, _ = run_cli(capsys, "estimate", "--regime", "natural")
        assert code == 0
        assert order_band(json.loads(out)["delta_x_m"], 1e-21)

    def test_explicit_linear_medium(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "estimate",
            "--wavelength", "500e-9",
            "--tau", "1e-10",
            "--area", "1e-6",
            "--power", "1e6",
            "--n2", "0",
        )
        assert code == 0
        assert json.loads(out)["improvement"] == 1.0

    def test_missing_flags(self, capsys):
        code, out, err = run_cli(capsys, "estimate", "--tau", "1e-12")
        assert code == 1
        assert out == ""
        assert err.count("\n") == 1
        assert "--wavelength" in err

    def test_invalid_value(self, capsys):
        code, _, err = run_cli(
            capsys,
            "estimate",
            "--wavelength", "500e-9",
            "--tau=-1e-12",
            "--area", "1e-6",
            "--power", "1e6",
            "--n2", "1e-2",
        )
        assert code == 1
        assert "duration" in err

    def test_regime_with_override(self, capsys):
        code, out, _ = run_cli(
            capsys, "estimate", "--regime", "giant-eit", "--eta", "0.25"
        )
        assert code == 0
        got = json.loads(out)
        # quarter efficiency doubles both resolutions, ratio unchanged
        assert order_band(got["improvement"], 1e-6)
        assert order_band(got["delta_x_m"], 2e-20)

    def test_agrees_with_one_point_sweep(self, capsys):
        code, est_out, _ = run_cli(capsys, "estimate", "--regime", "giant-eit")
        assert code == 0
        est = json.loads(est_out)
        code, sweep_out, _ = run_cli(capsys, "sweep", "--regime", "giant-eit")
        assert code == 0
        header, row = sweep_out.strip().split("\n")
        cols = dict(zip(header.split(","), [float(v) for v in row.split(",")]))
        assert cols["n_photons"] == est["n_photons"]
        assert cols["chi"] == est["chi"]
        assert cols["k_per_m"] == est["k"]
        assert cols["delta_x_m"] == est["delta_x_m"]
        assert cols["delta_x_linear_m"] == est["delta_x_linear_m"]
        assert cols["improvement"] == est["improvement"]
        for margin in (
            "margin_small_signal",
            "margin_thermal",
            "margin_dephasing",
            "margin_operating_point",
            "margin_nl_dominant",
        ):
            assert cols[margin] == est["validity"][margin]


class TestSweep:
    def test_log_grid_endpoints_echoed_exactly(self, capsys):
        code, out, _ = run_cli(
            capsys, "sweep", "--regime", "giant-eit", "--grid", "tau=1e-13:1e-10:5:log"
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert len(lines) == 6
        assert lines[1].split(",")[0] == repr(1e-13)
        assert lines[-1].split(",")[0] == repr(1e-10)

    def test_malformed_grid(self, capsys):
        code, _, err = run_cli(
            capsys, "sweep", "--regime", "giant-eit", "--grid", "tau=oops"
        )
        assert code == 1
        assert "malformed grid" in err

    @pytest.mark.parametrize("unit", ["cm2", "cm2/W", "cm^2/W"])
    def test_grid_n2_takes_the_units_of_the_n2_flag(self, capsys, unit):
        sweep = ("sweep", "--regime", "giant-eit", "--grid")
        bare = run_cli(capsys, *sweep, "n2=1e-3:1e-2:5:log")
        assert bare[0] == 0
        assert run_cli(capsys, *sweep, f"n2=1e-3{unit}:1e-2{unit}:5:log") == bare

    def test_grid_n2_in_si_echoes_its_endpoints_exactly(self, capsys):
        code, out, _ = run_cli(
            capsys, "sweep", "--regime", "giant-eit", "--grid", "n2=1e-21m2:1e-20m2:3"
        )
        assert code == 0
        rows = [line.split(",") for line in out.strip().split("\n")]
        n2 = rows[0].index("n2_m2_per_w")
        assert [rows[1][n2], rows[-1][n2]] == [repr(1e-21), repr(1e-20)]

    def test_unparsable_grid_n2_is_one_clean_error(self, capsys):
        assert run_cli(
            capsys, "sweep", "--regime", "giant-eit", "--grid", "n2=abc:1:3"
        ) == (1, "", "kerrmich: error: cannot parse Kerr coefficient 'abc'\n")

    def test_row_cap(self, capsys):
        code, _, err = run_cli(
            capsys,
            "sweep",
            "--regime", "giant-eit",
            "--grid", "eta=0.1:1:11",
            "--max-rows", "10",
        )
        assert code == 1
        assert "cap" in err

    @pytest.mark.parametrize("value", ["0", "-5"])
    def test_row_cap_below_one_is_one_clean_error(self, capsys, value):
        assert run_cli(
            capsys, "sweep", "--regime", "giant-eit", "--max-rows", value
        ) == (1, "", "kerrmich: error: --max-rows must be >= 1\n")

    def test_huge_axis_under_a_raised_row_cap_is_one_clean_error(self, capsys):
        assert run_cli(
            capsys,
            "sweep",
            "--regime", "giant-eit",
            "--max-rows", str(10**20),
            "--grid", f"tau=1e-12:1e-10:{10**17}",
        ) == (1, "", f"kerrmich: error: a grid has {10**17} points, cap is 1000000 per axis\n")

    def test_deterministic_output(self, capsys):
        args = ("sweep", "--regime", "giant-eit", "--grid", "sigma=0:0.1:9")
        code_a, out_a, _ = run_cli(capsys, *args)
        code_b, out_b, _ = run_cli(capsys, *args)
        assert code_a == code_b == 0
        assert out_a == out_b

    def test_improvement_monotone_in_tau_at_fixed_photons(self, capsys):
        # 50 taus around the giant preset, power co-varied to pin the
        # photon number; the nonlinear advantage strengthens as tau shrinks
        taus = [1e-11 * (1e-9 / 1e-11) ** (i / 49) for i in range(50)]
        omega = 2.0 * math.pi * C_LIGHT / 500e-9
        photons = 1e6 * 1e-10 / (HBAR * omega)
        improvements = []
        for tau in taus:
            code, out, _ = run_cli(
                capsys,
                "estimate",
                "--regime", "giant-eit",
                "--tau", repr(tau),
                "--power", repr(photons * HBAR * omega / tau),
            )
            assert code == 0
            improvements.append(json.loads(out)["improvement"])
        assert all(b > a for a, b in zip(improvements, improvements[1:]))

    def test_json_format(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "sweep",
            "--regime", "giant-eit",
            "--grid", "eta=0.5:1:2",
            "--format", "json",
        )
        assert code == 0
        got = json.loads(out)
        assert len(got["rows"]) == 2
        assert got["rows"][0]["eta"] == 0.5


class TestVerify:
    def test_small_run_passes(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--max-photons", "4")
        assert code == 0
        assert "PASS" in out
        assert "FAIL" not in out

    def test_impossible_tolerance(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--max-photons", "4", "--tolerance", "0"
        )
        assert code == 2
        assert "FAIL" in out

    def test_vacuum_only(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--max-photons", "0")
        assert code == 0

    def test_photon_cap(self, capsys):
        code, _, err = run_cli(capsys, "verify", "--max-photons", "31")
        assert code == 1
        assert "cap" in err

    def test_deterministic_for_seed(self, capsys):
        args = ("verify", "--max-photons", "9", "--seed", "42", "--cases", "3")
        _, out_a, _ = run_cli(capsys, *args)
        _, out_b, _ = run_cli(capsys, *args)
        assert out_a == out_b

    def test_default_run_passes(self, capsys):
        code, out, _ = run_cli(capsys, "verify")
        assert code == 0
        assert "0 failed" in out

    def test_extra_cases_are_run(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--max-photons", "4", "--cases", "2")
        assert code == 0
        assert out.count("random[") == 2

    def test_dim_margin_accepted(self, capsys):
        code, _, _ = run_cli(
            capsys, "verify", "--max-photons", "4", "--dim-margin", "10"
        )
        assert code == 0


class TestRegimes:
    def test_lists_both_presets(self, capsys):
        code, out, _ = run_cli(capsys, "regimes")
        assert code == 0
        got = json.loads(out)
        names = [r["name"] for r in got["regimes"]]
        assert sorted(names) == ["giant-eit", "natural"]

    def test_giant_operating_length(self, capsys):
        _, out, _ = run_cli(capsys, "regimes")
        giant = [r for r in json.loads(out)["regimes"] if r["name"] == "giant-eit"][0]
        assert order_band(giant["report"]["arm_length_m"], 100.0)
        assert giant["report"]["notes"] == []

    def test_natural_signal_bound_and_note(self, capsys):
        _, out, _ = run_cli(capsys, "regimes")
        natural = [r for r in json.loads(out)["regimes"] if r["name"] == "natural"][0]
        assert order_band(natural["report"]["x_max_m"], 1e-10)
        assert order_band(natural["report"]["sigma_max"], 1e-8)
        assert order_band(natural["report"]["nt_max"], 1e6)
        assert len(natural["report"]["notes"]) == 1


class TestOutputFiles:
    def test_json_output_embeds_manifest(self, capsys, tmp_path):
        target = tmp_path / "estimate.json"
        code, out, _ = run_cli(
            capsys, "estimate", "--regime", "giant-eit", "--output", str(target)
        )
        assert code == 0
        assert out == ""
        got = json.loads(target.read_text())
        assert got["manifest"]["tool"] == "kerrmich"
        assert got["manifest"]["parameters"]["tau"] == 1e-10
        assert "estimate" in got["manifest"]["command"]

    def test_csv_output_gets_manifest_sidecar(self, capsys, tmp_path):
        target = tmp_path / "rows.csv"
        code, _, _ = run_cli(
            capsys,
            "sweep",
            "--regime", "giant-eit",
            "--grid", "eta=0.5:1:3",
            "--output", str(target),
        )
        assert code == 0
        manifest = json.loads((tmp_path / "rows.csv.manifest.json").read_text())
        assert "seed" not in manifest
        assert manifest["grids"][0]["parameter"] == "eta"
        assert target.read_text().startswith("tau_s,")

    def test_rerun_reproduces_output_bytes(self, capsys, tmp_path):
        target = tmp_path / "rows.csv"
        sidecar = tmp_path / "rows.csv.manifest.json"
        args = (
            "sweep",
            "--regime", "natural",
            "--grid", "nt=0:10:5",
            "--output", str(target),
        )
        run_cli(capsys, *args)
        first, manifest_a = target.read_bytes(), json.loads(sidecar.read_text())
        run_cli(capsys, *args)
        second, manifest_b = target.read_bytes(), json.loads(sidecar.read_text())
        assert first == second
        # the timestamp and the stage seconds differ from run to run
        stages_a, stages_b = manifest_a.pop("stages"), manifest_b.pop("stages")
        assert stages_a["fallback_rows"] == stages_b["fallback_rows"]
        manifest_a.pop("timestamp")
        manifest_b.pop("timestamp")
        assert manifest_a == manifest_b


def test_no_command(capsys):
    code, _, err = run_cli(capsys)
    assert code == 1
    assert "command" in err


def test_unknown_flag(capsys):
    code, _, err = run_cli(capsys, "estimate", "--regime", "giant-eit", "--bogus")
    assert code == 1
    assert "bogus" in err


@pytest.mark.parametrize("grid", ["arm_length=100:150:3", "signal_x=-1e-13:1e-13:3"])
def test_csv_rejects_grid_over_a_column_it_lacks(capsys, grid):
    # arm_length_m and signal_x_m are in the JSON rows but not in the CSV
    code, out, err = run_cli(capsys, "sweep", "--regime", "giant-eit", "--grid", grid)
    assert code == 1
    assert out == ""
    assert "--format json" in err
    code, out, _ = run_cli(
        capsys, "sweep", "--regime", "giant-eit", "--grid", grid, "--format", "json"
    )
    assert code == 0
    assert len(json.loads(out)["rows"]) == 3


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_manifest_counts_rows_and_validity_failures(capsys, tmp_path, fmt):
    # the sigma grid of test_dominance_flag_flips_at_the_margin_crossing:
    # sigma >= 0.01 at 21 of the 41 points, the dominance margin fails at 28
    target = tmp_path / f"rows.{fmt}"
    code, _, _ = run_cli(
        capsys,
        "sweep",
        "--regime", "giant-eit",
        "--grid", "sigma=0:0.02:41",
        "--format", fmt,
        "--output", str(target),
    )
    assert code == 0
    if fmt == "csv":
        manifest = json.loads((tmp_path / "rows.csv.manifest.json").read_text())
    else:
        manifest = json.loads(target.read_text())["manifest"]
    assert manifest["rows"] == 41
    assert manifest["validity_failures"] == {
        "small_signal": 0,
        "weak_thermal": 0,
        "weak_dephasing": 21,
        "on_operating_point": 0,
        "nonlinearity_dominant": 28,
    }


@pytest.mark.parametrize(
    "args",
    [
        ("verify", "--max-photons", "4", "--format", "json"),
        ("verify", "--max-photons", "4", "--threshold", "0.1"),
        ("regimes", "--format", "json"),
        ("regimes", "--threshold", "0.02"),
    ],
)
def test_flags_a_command_would_ignore_are_rejected(capsys, args):
    code, out, err = run_cli(capsys, *args)
    assert code == 1
    assert out == ""
    assert f"unrecognized arguments: {args[-2]}" in err


@pytest.mark.parametrize("value", ["nan", "inf", "0", "-1"])
@pytest.mark.parametrize(
    "command",
    [("estimate", "--regime", "giant-eit"), ("sweep", "--regime", "giant-eit")],
)
def test_threshold_must_be_finite_and_positive(capsys, command, value):
    code, out, err = run_cli(capsys, *command, "--threshold", value)
    assert code == 1
    assert out == ""
    assert "threshold must be finite and > 0" in err


def test_seed_stays_as_provenance_on_verify_and_regimes(capsys):
    # only verify draws random numbers; the other commands have no --seed
    assert run_cli(capsys, "verify", "--max-photons", "0", "--seed", "3")[0] == 0
    for command in (("regimes",), ("estimate", "--regime", "giant-eit"),
                    ("sweep", "--regime", "giant-eit")):
        code, out, err = run_cli(capsys, *command, "--seed", "3")
        assert code == 1
        assert out == ""
        assert "unrecognized arguments: --seed 3" in err


@pytest.mark.parametrize("value", ["nan", "inf", "-1"])
def test_verify_tolerance_must_be_finite_and_non_negative(capsys, value):
    # nan would fail every deterministic check, inf would pass every one
    code, out, err = run_cli(capsys, "verify", "--max-photons", "4", "--tolerance", value)
    assert code == 1
    assert out == ""
    assert "--tolerance must be >= 0 and finite" in err


@pytest.mark.parametrize("flag", ["--dim-margin", "--cases"])
def test_verify_rejects_negative_counts(capsys, flag):
    code, out, err = run_cli(capsys, "verify", "--max-photons", "2", flag, "-1")
    assert code == 1
    assert out == ""
    assert f"{flag} must be >= 0" in err


@pytest.mark.parametrize("value", [MAX_DIM_MARGIN + 1, 10**9])
def test_verify_dim_margin_above_the_cap_is_one_clean_error(capsys, monkeypatch, value):
    # every section builds arrays of the basis size, so an unbounded margin
    # would try to allocate them; the CLI stops before any is built
    def refuse(*args, **kwargs):
        raise AssertionError("a basis was built")

    monkeypatch.setattr(kerrmich.crosscheck, "coherent_amplitudes", refuse)
    monkeypatch.setattr(kerrmich.fock, "coherent_amplitudes", refuse)
    assert run_cli(capsys, "verify", "--max-photons", "2", "--dim-margin", str(value)) == (
        1, "", f"kerrmich: error: --dim-margin {value} exceeds the cap of {MAX_DIM_MARGIN}\n"
    )


def test_verify_cases_above_the_cap_is_one_clean_error(capsys, monkeypatch):
    # the report keeps one error per case; the CLI stops before any is drawn
    def refuse(*args, **kwargs):
        raise AssertionError("the suite was run")

    monkeypatch.setattr(kerrmich.cli, "run_crosscheck", refuse)
    value = MAX_CASES + 1
    assert run_cli(capsys, "verify", "--max-photons", "2", "--cases", str(value)) == (
        1, "", f"kerrmich: error: --cases {value} exceeds the cap of {MAX_CASES}\n"
    )


def test_verify_rejects_negative_seed(capsys):
    # numpy's default_rng raises on a negative seed; the CLI stops first
    assert run_cli(capsys, "verify", "--max-photons", "2", "--seed", "-1") == (
        1, "", "kerrmich: error: --seed must be >= 0\n"
    )


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_estimate_manifest_counts_its_row_and_validity_failures(capsys, tmp_path, fmt):
    # sigma = 0.05 fails the dephasing and the dominance conditions
    target = tmp_path / f"point.{fmt}"
    code, out, _ = run_cli(
        capsys,
        "estimate",
        "--regime", "giant-eit",
        "--sigma", "0.05",
        "--format", fmt,
        "--output", str(target),
    )
    assert code == 0
    assert out == ""
    if fmt == "csv":
        manifest = json.loads((tmp_path / "point.csv.manifest.json").read_text())
    else:
        manifest = json.loads(target.read_text())["manifest"]
    assert manifest["rows"] == 1
    assert manifest["validity_failures"] == {
        "small_signal": 0,
        "weak_thermal": 0,
        "weak_dephasing": 1,
        "on_operating_point": 0,
        "nonlinearity_dominant": 1,
    }


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_estimate_warns_on_stderr_when_validity_fails(capsys, fmt):
    args = ("estimate", "--regime", "giant-eit", "--format", fmt)
    code, clean_out, err = run_cli(capsys, *args)
    assert code == 0
    assert err == ""
    code, out, err = run_cli(capsys, *args, "--sigma", "0.05", "--nt", "1e20")
    assert code == 0
    assert err == (
        "kerrmich: warning: validity conditions failed: "
        "weak_thermal, weak_dephasing, nonlinearity_dominant\n"
    )
    # stdout carries the same fields as for a clean design
    assert out.splitlines()[0] == clean_out.splitlines()[0]
    if fmt == "json":
        validity = json.loads(out)["validity"]
        assert [k for k, v in validity.items() if v is False] == [
            "weak_thermal", "weak_dephasing", "nonlinearity_dominant",
        ]


def test_overflowing_variance_square_still_prints_finite_rows(capsys):
    # (eta * N * sigma) ** 2 passes the largest double at these sigmas, but
    # no printed field carries that variance
    code, out, err = run_cli(capsys, "estimate", "--regime", "giant-eit", "--sigma", "1e140")
    assert code == 0
    assert "NaN" not in out and "Infinity" not in out
    assert json.loads(out)["validity"]["margin_dephasing"] == 1e140
    assert err == (
        "kerrmich: warning: validity conditions failed: "
        "weak_dephasing, nonlinearity_dominant\n"
    )
    code, out, _ = run_cli(
        capsys, "sweep", "--regime", "giant-eit", "--grid", "sigma=1e139:1e141:3:log"
    )
    assert code == 0
    rows = [[float(v) for v in line.split(",")] for line in out.splitlines()[1:]]
    assert [row[6] for row in rows] == [1e139, 1e140, 1e141]
    assert all(math.isfinite(v) for row in rows for v in row)


@pytest.mark.parametrize("flag", [("--sigma", "1e155"), ("--power", "1e160")])
def test_overflowing_validity_squares_still_exit_zero(capsys, flag):
    # sigma ** 2 and (chi * N) ** 2 pass the largest double here
    code, out, err = run_cli(capsys, "estimate", "--regime", "giant-eit", *flag)
    assert code == 0
    assert "Traceback" not in err
    assert json.loads(out)["chi"] == 3.972891711863591e-09


def _reject_constant(name):
    raise ValueError(f"not strict JSON: {name}")


@pytest.mark.parametrize(
    "flags, nulls",
    [
        # the dephasing variance overflows: infinite resolution and margin
        (("--sigma", "1e155"), ["delta_x_m", "improvement", "margin_nl_dominant"]),
        # inf photons: NaN resolutions and margins, inf photon number
        (("--tau", "1e200", "--power", "1e200"),
         ["n_photons", "delta_x_m", "improvement", "margin_small_signal", "margin_nl_dominant"]),
    ],
)
def test_non_finite_values_are_strict_json_null(capsys, tmp_path, flags, nulls):
    code, out, _ = run_cli(capsys, "estimate", "--regime", "giant-eit", *flags)
    assert code == 0
    payload = json.loads(out, parse_constant=_reject_constant)
    values = {**payload, **payload["validity"]}
    assert sorted(k for k, v in values.items() if v is None) == sorted(nulls)
    # the same row as a one-point JSON sweep, and with its manifest
    target = tmp_path / "point.json"
    code, out, _ = run_cli(
        capsys, "sweep", "--regime", "giant-eit", *flags, "--format", "json",
        "--output", str(target),
    )
    assert code == 0
    (row,) = json.loads(target.read_text(), parse_constant=_reject_constant)["rows"]
    assert sorted(k for k, v in row.items() if v is None) == sorted(nulls)
    # CSV keeps repr: inf and nan
    code, out, _ = run_cli(capsys, "estimate", "--regime", "giant-eit", *flags, "--format", "csv")
    header, line = out.splitlines()
    cells = dict(zip(header.split(","), line.split(",")))
    assert all(cells[name] in ("inf", "nan") for name in nulls)


def test_arithmetic_failure_is_a_one_line_error(capsys):
    # area * tau underflows to 0, the divisor of the Kerr phase per photon
    code, out, err = run_cli(
        capsys, "estimate", "--regime", "giant-eit",
        "--tau", "1e-300", "--area", "1e-300", "--power", "1e300",
    )
    assert code == 1
    assert out == ""
    assert err == (
        "kerrmich: error: design cannot be evaluated: "
        "ZeroDivisionError: float division by zero\n"
    )


# Every physical flag, and the validity threshold.
VALUE_FLAGS = (*(flag for flag, _, _ in DESIGN_FLAGS.values()), "--threshold")


@settings(max_examples=150, deadline=None)
@given(
    command=st.sampled_from(["estimate", "sweep"]),
    fmt=st.sampled_from(["json", "csv"]),
    regime=st.sampled_from([None, "natural", "giant-eit"]),
    values=st.dictionaries(st.sampled_from(VALUE_FLAGS), st.floats(), max_size=4),
)
def test_any_float_input_ends_in_one_error_line_or_strict_output(command, fmt, regime, values):
    # a sweep with no --grid is one point; --flag=value lets argparse take
    # values such as -inf and -1e+300 that look like flags
    argv = [command, "--format", fmt, *(f"{flag}={value!r}" for flag, value in values.items())]
    if regime is not None:
        argv += ["--regime", regime]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    out, err = out.getvalue(), err.getvalue()
    if code == 1:
        assert out == ""
        assert err.endswith("\n") and err.count("\n") == 1, err
        assert err.startswith("kerrmich: error: "), err
        return
    assert code == 0, (code, err)
    assert all(line.startswith("kerrmich: warning: ") for line in err.splitlines()), err
    if fmt == "json":
        json.loads(out, parse_constant=_reject_constant)
    else:
        header, row = out.split("\n", 1)
        assert header + "\n" == CSV_HEADER and row.endswith("\n")
        assert all(field == repr(float(field)) for field in row[:-1].split(","))


SWEEP_FAILURES = {
    # the first row: area * tau underflows to a zero divisor
    "underflow": (
        ("--tau", "1e-300", "--grid", "area=1e-300:1e-10:3:log"),
        "kerrmich: error: design cannot be evaluated: "
        "ZeroDivisionError: float division by zero\n",
    ),
    # row 6 of 11 has eta = 1.1
    "eta": (
        ("--grid", "eta=0.5:1.5:11"),
        "kerrmich: error: efficiency must be in (0, 1], got 1.1\n",
    ),
    # only the last row: its arm is shorter than half the base signal
    "arm": (
        ("--signal", "1.0", "--grid", "n2=0.01:10:5:log"),
        "kerrmich: error: signal 1.0 makes an arm non-positive "
        "(arm_length 0.1258529142656802)\n",
    ),
}


@pytest.mark.parametrize("to_file", [False, True], ids=["stdout", "output"])
@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("case", sorted(SWEEP_FAILURES))
def test_failing_sweep_writes_nothing(capsys, tmp_path, case, fmt, to_file):
    args, message = SWEEP_FAILURES[case]
    target = tmp_path / f"rows.{fmt}"
    output = ("--output", str(target)) if to_file else ()
    code, out, err = run_cli(
        capsys, "sweep", "--regime", "giant-eit", *args, "--format", fmt, *output
    )
    assert code == 1
    assert err == message
    assert out == ""
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_sweep_manifest_records_stage_timings(capsys, tmp_path, fmt):
    # power = 0 is a dark input, the one row of five the kernel leaves to
    # the fallback
    target = tmp_path / f"rows.{fmt}"
    args = ("sweep", "--regime", "giant-eit", "--grid", "power=0:2e6:5", "--format", fmt)
    code, stdout, _ = run_cli(capsys, *args)
    assert code == 0
    assert "stages" not in stdout
    code, _, _ = run_cli(capsys, *args, "--output", str(target))
    assert code == 0
    if fmt == "csv":
        manifest = json.loads((tmp_path / "rows.csv.manifest.json").read_text())
        assert target.read_text() == stdout
    else:
        payload = json.loads(target.read_text())
        manifest = payload.pop("manifest")
        assert payload == json.loads(stdout)
    stages = manifest["stages"]
    assert list(stages) == ["check_s", "kernel_s", "fallback_s", "fallback_rows", "format_write_s"]
    assert stages["fallback_rows"] == 1
    assert all(v >= 0.0 for v in stages.values())


def _sweep_max_rss_mb(tmp_path, fmt, *grids):
    """Max RSS in MiB of a fresh interpreter that runs one sweep to a file."""
    script = (
        "import resource, sys\n"
        "from kerrmich.cli import main\n"
        "assert main(sys.argv[1:]) == 0\n"
        "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)\n"
    )
    argv = ["sweep", "--regime", "giant-eit", *grids, "--format", fmt]
    argv += ["--output", str(tmp_path / f"rows.{fmt}")]
    env = dict(os.environ, PYTHONPATH=str(Path(kerrmich.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-c", script, *argv],
        env=env, capture_output=True, text=True, check=True, timeout=300,
    )
    return int(proc.stdout) / 1024  # ru_maxrss is in KiB on Linux


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="ru_maxrss unit")
@pytest.mark.parametrize("fmt, rows", [("csv", 200_000), ("json", 100_000)])
def test_sweep_memory_does_not_grow_with_rows(tmp_path, fmt, rows):
    # the rows are held as columns and texts one block at a time; holding
    # them all took ~0.3 kB per CSV row and ~7 kB per JSON row
    grids = ("--grid", "tau=1e-11:1e-9:50:log", "--grid", "power=1e5:1e7:50:log")
    grids += ("--grid", f"sigma=0:1e-3:{rows // 2500}")
    one_row = _sweep_max_rss_mb(tmp_path, fmt)
    assert _sweep_max_rss_mb(tmp_path, fmt, *grids) - one_row < 25.0


@pytest.mark.parametrize("target", ["dir", "missing/x"])
@pytest.mark.parametrize(
    "argv",
    [["estimate", "--regime", "giant-eit"], ["sweep", "--regime", "giant-eit"],
     ["regimes"], ["verify", "--max-photons", "0"]],
    ids=lambda argv: argv[0],
)
def test_unwritable_output_is_one_clean_error(capsys, tmp_path, argv, target):
    (tmp_path / "dir").mkdir()
    code, out, err = run_cli(capsys, *argv, "--output", str(tmp_path / target))
    assert (code, out) == (1, "")
    assert len(err.splitlines()) == 1
    assert err.startswith("kerrmich: error: [Errno ")
    assert [p.name for p in tmp_path.rglob("*")] == ["dir"]


@pytest.mark.parametrize(
    "argv, lines",
    [(["verify", "--max-photons", "30", "--cases", "20000"], 1),
     (["estimate", "--regime", "giant-eit"], 0)],
)
def test_closed_stdout_pipe_is_one_clean_error(argv, lines):
    # the reader takes `lines` lines and closes the pipe (with 0, before the
    # run starts); the run reports it on one stderr line, and the
    # interpreter's last flush of the text stdout still holds prints nothing
    env = dict(os.environ, PYTHONPATH=str(Path(kerrmich.__file__).parents[1]))
    env.pop("PYTHONUNBUFFERED", None)  # buffered, as stdout to a pipe is
    read_end, write_end = os.pipe()
    reader = os.fdopen(read_end)
    if not lines:
        reader.close()
    with subprocess.Popen(
        [sys.executable, "-m", "kerrmich.cli", *argv],
        env=env, stdout=write_end, stderr=subprocess.PIPE, text=True,
    ) as proc:
        os.close(write_end)
        head = [reader.readline() for _ in range(lines)]
        reader.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=300) == 1
    assert all(line.startswith("PASS [mean] ") for line in head)
    assert len(err.splitlines()) == 1
    assert err.startswith("kerrmich: error: ")
    assert "Traceback" not in err
