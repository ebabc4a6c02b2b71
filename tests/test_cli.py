import contextlib
import dataclasses
import errno
import io
import itertools
import json
import math
import os
import stat
import subprocess
import sys
import threading
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import kerrmich
import kerrmich.crosscheck
import kerrmich.fock
import kerrmich.sweep
from kerrmich.cli import DESIGN_FLAGS, CliError, main, parse_grid, parse_n2
from kerrmich.crosscheck import MAX_CASES, MAX_PHOTONS, CrossCheckReport, run_crosscheck
from kerrmich.core import HBAR, C_LIGHT, PRESETS, ParameterError, get_preset
from kerrmich.sweep import (
    CSV_HEADER, FLAG_FIELDS, GridSpec, SweepTable, regime_report, sweep_blocks,
)


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
        ) == (1, "", f"kerrmich: error: max_rows must be >= 1, got {value}\n")

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


def test_regimes_prints_the_library_entries(capsys, monkeypatch):
    code, out, _ = run_cli(capsys, "regimes")
    assert code == 0
    got = json.loads(out, parse_constant=_reject_constant)["regimes"]
    want = [regime_report(name) for name in PRESETS]
    assert got == want
    assert json.dumps(got) == json.dumps(want)  # keys in the same order too
    monkeypatch.setitem(PRESETS, "third", dataclasses.replace(PRESETS["giant-eit"], tau=2e-10))
    _, out, _ = run_cli(capsys, "regimes")
    got = json.loads(out, parse_constant=_reject_constant)["regimes"]
    assert [entry["name"] for entry in got] == ["natural", "giant-eit", "third"]
    assert got[2] == regime_report("third")


def test_regime_help_and_missing_flag_error_name_every_preset(capsys, monkeypatch):
    def texts():
        with pytest.raises(SystemExit):
            main(["estimate", "--help"])
        help_text = " ".join(capsys.readouterr().out.split())
        code, _, err = run_cli(capsys, "estimate", "--tau", "1e-12")
        assert code == 1
        return help_text, err

    help_text, err = texts()
    assert "start from a built-in preset (natural, giant-eit)" in help_text
    assert err.endswith("(or use --regime natural|giant-eit)\n")
    monkeypatch.setitem(PRESETS, "third", dataclasses.replace(PRESETS["giant-eit"], tau=2e-10))
    help_text, err = texts()
    assert "start from a built-in preset (natural, giant-eit, third)" in help_text
    assert err.endswith("(or use --regime natural|giant-eit|third)\n")


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
        assert list(stages_a) == list(stages_b) == ["check_s", "kernel_s", "format_write_s"]
        manifest_a.pop("timestamp")
        manifest_b.pop("timestamp")
        assert manifest_a == manifest_b


# A sweep of more than one block, the same as JSON, estimate in CSV and
# JSON, regimes and verify; True where a JSON --output file closes with
# the run's manifest, which stdout does not carry.
STREAM_COMMANDS = [
    (["sweep", "--regime", "giant-eit", "--grid", "tau=1e-11:1e-9:25:log",
      "--grid", "sigma=0:1e-3:400"], False),
    (["sweep", "--regime", "giant-eit", "--grid", "tau=1e-11:1e-9:25:log",
      "--grid", "sigma=0:1e-3:400", "--format", "json"], True),
    (["estimate", "--regime", "giant-eit", "--format", "csv"], False),
    (["estimate", "--regime", "giant-eit"], True),
    (["regimes"], True),
    (["verify", "--max-photons", "4", "--cases", "50"], False),
]


@pytest.mark.parametrize(
    "argv, manifest_last", STREAM_COMMANDS,
    ids=["sweep-csv", "sweep-json", "estimate-csv", "estimate-json", "regimes", "verify"],
)
def test_text_stdout_gets_the_bytes_of_the_output_file(tmp_path, argv, manifest_last):
    # an io.StringIO has no byte buffer, so the commands' bytes are decoded
    # into it; a text stdout over a byte buffer gets them as they are
    text, binary = io.StringIO(), io.TextIOWrapper(io.BytesIO(), encoding="ascii")
    for stdout in (text, binary):
        with contextlib.redirect_stdout(stdout):
            assert main(argv) == 0
    binary.flush()
    target = tmp_path / "out"
    assert main([*argv, "--output", str(target)]) == 0
    data = target.read_bytes()
    if manifest_last:
        data = data[: data.index(b',\n  "manifest": ')] + b"\n}\n"
    assert text.getvalue().encode() == binary.buffer.getvalue() == data
    assert len(data) > 100


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
        # verify takes no basis size: fock_dim sizes each basis
        ("verify", "--dim-margin", "7"),
    ],
)
def test_flags_a_command_would_ignore_are_rejected(capsys, args):
    code, out, err = run_cli(capsys, *args)
    assert code == 1
    assert out == ""
    assert f"unrecognized arguments: {args[-2]}" in err and err.count("\n") == 1


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


# Every limit `run_crosscheck` enforces, as verify's flags and its keywords
VERIFY_LIMITS = [
    (["--max-photons", "-1"], dict(max_photons=-1)),
    (["--max-photons", str(MAX_PHOTONS + 1)], dict(max_photons=MAX_PHOTONS + 1)),
    (["--tolerance", "nan"], dict(tolerance=math.nan)),
    (["--tolerance", "inf"], dict(tolerance=math.inf)),
    (["--tolerance", "-1"], dict(tolerance=-1.0)),
    (["--cases", "-1"], dict(extra_cases=-1)),
    (["--cases", str(MAX_CASES + 1)], dict(extra_cases=MAX_CASES + 1)),
    (["--seed", "-1"], dict(seed=-1)),
]


@pytest.mark.parametrize(
    "flags, kwargs", VERIFY_LIMITS, ids=[" ".join(flags) for flags, _ in VERIFY_LIMITS]
)
def test_verify_limit_is_the_library_error(capsys, monkeypatch, flags, kwargs):
    # the CLI prints run_crosscheck's own error, raised before any basis or
    # mean table is built
    def refuse(*args, **kwargs):
        raise AssertionError("a table was built")

    monkeypatch.setattr(kerrmich.crosscheck, "coherent_amplitudes", refuse)
    monkeypatch.setattr(kerrmich.crosscheck, "kerr_means", refuse)
    with pytest.raises(ParameterError) as raised:
        run_crosscheck(**kwargs)
    assert run_cli(capsys, "verify", *flags) == (1, "", f"kerrmich: error: {raised.value}\n")


@pytest.mark.parametrize(
    "args",
    [("estimate", "--regime", "giant-eit", "--n2", "1e308m2"),
     ("sweep", "--regime", "giant-eit", "--grid", "n2=1e300m2:1e308m2:3")],
)
def test_unformable_operating_arm_is_named(capsys, args):
    # k*chi overflows, so the operating arm 2*pi/(k*chi) rounds to 0
    code, out, err = run_cli(capsys, *args)
    assert (code, out) == (1, "")
    assert err == (
        "kerrmich: error: operating arm 2*pi/(k*chi) must be positive and finite, "
        "got 0.0 (k*chi = inf)\n"
    )


def test_explicit_zero_arm_blames_the_flag(capsys):
    assert run_cli(capsys, "estimate", "--regime", "giant-eit", "--arm-length", "0") == (
        1, "", "kerrmich: error: arm_length must be positive and finite, got 0.0\n"
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
    # power = 0 is a dark input, which the kernel computes with the rest
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
    assert list(stages) == ["check_s", "kernel_s", "format_write_s"]
    assert all(v >= 0.0 for v in stages.values())


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_sweep_manifest_sums_its_blocks(capsys, tmp_path, monkeypatch, fmt):
    # blocks of 5 rows over a dark edge: power = 0 makes one block's rows
    # dark, and sigma >= 0.01 fails the dephasing condition
    monkeypatch.setattr(kerrmich.sweep, "CSV_CHUNK_ROWS", 5)
    target = tmp_path / f"rows.{fmt}"
    code, _, _ = run_cli(
        capsys, "sweep", "--regime", "giant-eit", "--grid", "power=0:1e6:3",
        "--grid", "sigma=0:0.02:5", "--format", fmt, "--output", str(target),
    )
    assert code == 0
    if fmt == "csv":
        manifest = json.loads((tmp_path / "rows.csv.manifest.json").read_text())
    else:
        manifest = json.loads(target.read_text())["manifest"]
    grids = [GridSpec("power", 0.0, 1e6, 3), GridSpec("sigma", 0.0, 0.02, 5)]
    blocks = list(sweep_blocks(get_preset("giant-eit"), grids))
    assert len(blocks) == 3
    assert manifest["rows"] == sum(len(b) for b in blocks) == 15
    assert manifest["validity_failures"] == {
        name: sum(b.validity_failures()[name] for b in blocks) for name in FLAG_FIELDS
    }
    assert manifest["validity_failures"]["weak_dephasing"] == 9
    stages = manifest["stages"]
    assert list(stages) == ["check_s", "kernel_s", "format_write_s"]
    assert all(list(b.stages) == ["kernel_s"] for b in blocks)
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


# Runs in-process sweeps of bench/'s sweep-csv grid (1e5 rows) to a null
# stdout, CSV and JSON in turn, and prints each format's minor page faults
# in its second run, once the first has built the formatter's tables.
FAULTS_SCRIPT = """\
import contextlib, os, resource
from kerrmich.cli import main
grids = ["--grid", "tau=1e-11:1e-9:50:log", "--grid", "power=1e5:1e7:50:log",
         "--grid", "sigma=0:1e-3:40"]
faults = {}
with open(os.devnull, "w") as null, contextlib.redirect_stdout(null):
    for fmt in ("csv", "json") * 2:
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        assert main(["sweep", "--regime", "giant-eit", *grids, "--format", fmt]) == 0
        faults[fmt] = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
print(faults["csv"], faults["json"])
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="ru_minflt")
def test_json_sweep_faults_about_the_pages_of_a_csv_sweep():
    # a JSON row is ~0.9 kB, four times a CSV row; a writer that copied
    # each piece of 512 JSON rows four times on its way out made ~0.48 MB
    # of temporaries per piece, above glibc's mmap threshold, and faulted
    # ~7 times the pages of the CSV sweep
    env = dict(os.environ, PYTHONPATH=str(Path(kerrmich.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-c", FAULTS_SCRIPT],
        env=env, capture_output=True, text=True, check=True, timeout=300,
    )
    csv, json_ = map(int, proc.stdout.split())
    assert json_ <= 2.5 * csv, (csv, json_)


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
    "argv",
    [["estimate", "--regime", "giant-eit", "--format", "csv"], ["sweep", "--regime", "giant-eit"],
     ["verify", "--max-photons", "0"]],
    ids=lambda argv: argv[0],
)
def test_unwritable_sidecar_leaves_no_data_file(capsys, tmp_path, argv):
    (tmp_path / "x.csv.manifest.json").mkdir()
    code, out, err = run_cli(capsys, *argv, "--output", str(tmp_path / "x.csv"))
    assert (code, out) == (1, "")
    assert len(err.splitlines()) == 1
    assert err.startswith("kerrmich: error: [Errno ")
    assert [p.name for p in tmp_path.rglob("*")] == ["x.csv.manifest.json"]


def test_output_to_the_working_directory_is_one_clean_error(capsys, tmp_path, monkeypatch):
    # "." has no file name to put a sidecar name beside
    monkeypatch.chdir(tmp_path)
    code, out, err = run_cli(capsys, "verify", "--max-photons", "0", "--output", ".")
    assert (code, out) == (1, "")
    assert err.startswith("kerrmich: error: [Errno ") and len(err.splitlines()) == 1
    assert list(tmp_path.iterdir()) == []


NO_SPACE = "kerrmich: error: [Errno 28] No space left on device\n"


def _no_space():
    return OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_failed_sweep_write_leaves_no_partial_file(capsys, tmp_path, monkeypatch, fmt):
    # the second of three blocks fails after the first reached the file
    name = f"write_{fmt}_rows"
    write, calls, written = getattr(SweepTable, name), itertools.count(1), []

    def failing(self, out):
        if next(calls) == 2:
            written.append(out.tell())
            raise _no_space()
        return write(self, out)

    monkeypatch.setattr(SweepTable, name, failing)
    code, out, err = run_cli(
        capsys, "sweep", "--regime", "giant-eit", "--grid", "sigma=0:0.1:20000",
        "--format", fmt, "--output", str(tmp_path / f"part.{fmt}"),
    )
    assert (code, out, err) == (1, "", NO_SPACE)
    assert written[0] > 1_000_000
    assert list(tmp_path.iterdir()) == []


def test_failed_sweep_write_through_a_symlink_empties_its_target(
    capsys, tmp_path, monkeypatch
):
    # the link stays, and the regular file behind it keeps none of the
    # first block, which reached it before the second block failed
    write, calls, written = SweepTable.write_csv_rows, itertools.count(1), []

    def failing(self, out):
        if next(calls) == 2:
            written.append(out.tell())
            raise _no_space()
        return write(self, out)

    monkeypatch.setattr(SweepTable, "write_csv_rows", failing)
    real, link = tmp_path / "real.csv", tmp_path / "link.csv"
    real.write_text("old\n")
    link.symlink_to(real)
    code, out, err = run_cli(
        capsys, "sweep", "--regime", "giant-eit", "--grid", "sigma=0:0.1:20000",
        "--output", str(link),
    )
    assert (code, out, err) == (1, "", NO_SPACE)
    assert written[0] > 1_000_000
    assert sorted(p.name for p in tmp_path.iterdir()) == ["link.csv", "real.csv"]
    assert link.is_symlink() and real.read_bytes() == b""


def test_failed_verify_write_leaves_no_partial_file(capsys, tmp_path, monkeypatch):
    texts = CrossCheckReport.texts

    def failing(self):
        # the disk fills after three blocks of check lines
        yield from itertools.islice(texts(self), 3)
        raise _no_space()

    monkeypatch.setattr(CrossCheckReport, "texts", failing)
    code, out, err = run_cli(
        capsys, "verify", "--max-photons", "4", "--output", str(tmp_path / "v.txt")
    )
    assert (code, out, err) == (1, "", NO_SPACE)
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "argv",
    [["estimate", "--regime", "giant-eit", "--format", "csv"], ["sweep", "--regime", "giant-eit"],
     ["verify", "--max-photons", "0"]],
    ids=lambda argv: argv[0],
)
def test_failed_sidecar_write_leaves_neither_file(capsys, tmp_path, monkeypatch, argv):
    # the sidecar is created and half written, then the disk is full
    open_output = kerrmich.cli._open_output

    def open_(path):
        f = open_output(path)
        if path.name.endswith(".manifest.json"):
            def write(text):
                type(f).write(f, text[: len(text) // 2])
                raise _no_space()

            f.write = write
        return f

    monkeypatch.setattr(kerrmich.cli, "_open_output", open_)
    code, out, err = run_cli(capsys, *argv, "--output", str(tmp_path / "x.csv"))
    assert (code, out, err) == (1, "", NO_SPACE)
    assert list(tmp_path.iterdir()) == []


def _data_part(path):
    """An output file's bytes before the manifest a JSON file closes with,
    checking that the whole file is one JSON document (so no stale byte
    follows it); the whole file if it is not JSON."""
    data = path.read_bytes()
    if b',\n  "manifest": ' not in data:
        return data
    json.loads(data)
    return data[: data.index(b',\n  "manifest": ')]


@pytest.mark.parametrize(
    "argv, manifest_last", STREAM_COMMANDS,
    ids=["sweep-csv", "sweep-json", "estimate-csv", "estimate-json", "regimes", "verify"],
)
def test_rewrite_over_a_longer_file_gives_the_fresh_bytes(capsys, tmp_path, argv, manifest_last):
    # the data file and its sidecar are rewritten in place over junk 1 MB
    # longer than the fresh run's, and end where the fresh run's do
    fresh, stale = tmp_path / "fresh", tmp_path / "stale"
    assert run_cli(capsys, *argv, "--output", str(fresh)) == (0, "", "")
    junk = b"junk" * (fresh.stat().st_size // 4 + 2**18)
    for target in (stale, stale.with_name("stale.manifest.json")):
        target.write_bytes(junk)
    assert run_cli(capsys, *argv, "--output", str(stale)) == (0, "", "")
    assert _data_part(stale) == _data_part(fresh)
    sidecars = [target.with_name(target.name + ".manifest.json") for target in (fresh, stale)]
    if manifest_last:
        assert not sidecars[0].exists()
    else:
        fresh_manifest, stale_manifest = (json.loads(p.read_bytes()) for p in sidecars)
        assert stale_manifest.keys() == fresh_manifest.keys()
        assert stale_manifest["parameters"] == fresh_manifest["parameters"]


SWEEP_20000 = ["sweep", "--regime", "giant-eit", "--grid", "sigma=0:0.1:20000"]


def test_interrupted_rewrite_ends_at_the_last_byte_written(capsys, tmp_path, monkeypatch):
    # a KeyboardInterrupt in the second of three blocks, over a stale file
    # twice as long as the whole output: the file ends at the last byte
    # written, and its first byte is NUL, as the run never finished
    fresh, target = tmp_path / "fresh.csv", tmp_path / "rows.csv"
    assert run_cli(capsys, *SWEEP_20000, "--output", str(fresh))[0] == 0
    target.write_bytes(b"stale," * (2 * fresh.stat().st_size // 6))
    write, calls, written = SweepTable.write_csv_rows, itertools.count(1), []

    def interrupted(self, out):
        if next(calls) == 2:
            written.append(out.tell())
            raise KeyboardInterrupt
        return write(self, out)

    monkeypatch.setattr(SweepTable, "write_csv_rows", interrupted)
    with pytest.raises(KeyboardInterrupt):
        main([*SWEEP_20000, "--output", str(target)])
    data = target.read_bytes()
    assert len(data) == written[0] > 1_000_000
    assert data[:1] == b"\0" and data[1:] == fresh.read_bytes()[1 : len(data)]
    assert not (tmp_path / "rows.csv.manifest.json").exists()


KILL_SCRIPT = """
import os, sys
from kerrmich.cli import main
from kerrmich.sweep import SweepTable

write, calls = SweepTable.write_csv_rows, []

def killed(self, out):
    # the second block gets half its rows to the file, then the process dies
    calls.append(self)
    if len(calls) < 2:
        return write(self, out)
    out.write(b"x" * 100_000)
    out.flush()
    os._exit(9)

SweepTable.write_csv_rows = killed
main(sys.argv[1:])
"""


def test_killed_rewrite_is_marked_unfinished(capsys, tmp_path):
    # a process killed mid-write leaves new rows over a stale tail: its
    # first byte, NUL, marks it unfinished, and a re-run restores it
    fresh, target = tmp_path / "fresh.csv", tmp_path / "rows.csv"
    assert run_cli(capsys, *SWEEP_20000, "--output", str(fresh))[0] == 0
    stale = b"stale," * (2 * fresh.stat().st_size // 6)
    target.write_bytes(stale)
    env = dict(os.environ, PYTHONPATH=str(Path(kerrmich.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-c", KILL_SCRIPT, *SWEEP_20000, "--output", str(target)],
        env=env, capture_output=True, timeout=300,
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (9, b"", b"")
    data = target.read_bytes()
    assert data[:1] == b"\0" and len(data) == len(stale)
    written = data.index(b"x" * 100_000)
    assert written > 1_000_000
    assert data[1:written] == fresh.read_bytes()[1:written]
    assert not (tmp_path / "rows.csv.manifest.json").exists()
    assert run_cli(capsys, *SWEEP_20000, "--output", str(target)) == (0, "", "")
    assert target.read_bytes() == fresh.read_bytes()


@pytest.mark.parametrize(
    "argv", [["sweep", "--regime", "giant-eit", "--format", "json"], ["estimate", "--regime", "giant-eit"]],
    ids=lambda argv: argv[0],
)
def test_output_to_dev_null(capsys, argv):
    # a device is written straight through; these commands write no sidecar
    assert run_cli(capsys, *argv, "--output", os.devnull) == (0, "", "")


def test_output_through_a_symlink_to_dev_null(capsys, tmp_path):
    link = tmp_path / "rows.csv"
    link.symlink_to(os.devnull)
    assert run_cli(capsys, *SWEEP_20000, "--output", str(link)) == (0, "", "")
    assert link.is_symlink() and Path(os.devnull).is_char_device()
    assert json.loads((tmp_path / "rows.csv.manifest.json").read_text())["rows"] == 20000


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
def test_output_to_a_fifo_gets_the_file_bytes(capsys, tmp_path):
    fresh, fifo = tmp_path / "fresh.csv", tmp_path / "rows.csv"
    assert run_cli(capsys, *SWEEP_20000, "--output", str(fresh))[0] == 0
    os.mkfifo(fifo)
    got = []
    reader = threading.Thread(target=lambda: got.append(fifo.read_bytes()), daemon=True)
    reader.start()
    try:
        assert run_cli(capsys, *SWEEP_20000, "--output", str(fifo)) == (0, "", "")
    finally:
        reader.join(timeout=60)
    assert got == [fresh.read_bytes()]
    assert (tmp_path / "rows.csv.manifest.json").is_file()


def test_new_output_gets_the_mode_open_gives(capsys, tmp_path):
    umask = os.umask(0o027)
    try:
        code, _, _ = run_cli(
            capsys, "estimate", "--regime", "giant-eit", "--format", "csv",
            "--output", str(tmp_path / "x.csv"),
        )
        with open(tmp_path / "by-open", "wb"):
            pass
    finally:
        os.umask(umask)
    assert code == 0
    modes = {p.name: stat.S_IMODE(p.stat().st_mode) for p in tmp_path.iterdir()}
    assert modes == dict.fromkeys(["x.csv", "x.csv.manifest.json", "by-open"], 0o640)


def test_rewrite_keeps_the_file_so_a_hard_link_sees_the_new_bytes(capsys, tmp_path):
    # the file keeps its inode and mode, as it does when open truncates it
    fresh, target, link = tmp_path / "fresh.csv", tmp_path / "rows.csv", tmp_path / "link.csv"
    assert run_cli(capsys, *SWEEP_20000, "--output", str(fresh))[0] == 0
    target.write_bytes(b"old\n" * 2**20)
    target.chmod(0o600)
    os.link(target, link)
    inode = target.stat().st_ino
    assert run_cli(capsys, *SWEEP_20000, "--output", str(target)) == (0, "", "")
    assert link.read_bytes() == target.read_bytes() == fresh.read_bytes()
    assert target.stat().st_ino == inode
    assert stat.S_IMODE(target.stat().st_mode) == 0o600


@pytest.mark.parametrize(
    "argv",
    [["--regime", "giant-eit", "--tau", "5e-10", "--grid", "tau=1e-11:1e-9:3"],
     ["--wavelength", "500e-9", "--tau", "1e-10", "--area", "1e-6", "--power", "1e6",
      "--n2", "1e-2", "--grid", "n2=1e-3:1e-2:3"]],
    ids=["tau-with-regime", "n2-without"],
)
def test_flag_and_grid_over_one_field_is_an_error(capsys, argv):
    code, out, err = run_cli(capsys, "sweep", *argv)
    flag = argv[argv.index("--grid") + 1].split("=")[0]
    assert (code, out) == (1, "")
    assert err == f"kerrmich: error: give --{flag} or --grid {flag}, not both\n"


def test_swept_field_needs_no_flag(capsys, tmp_path):
    # the golden file is the --regime giant-eit sweep; without a preset the
    # base design takes the grid's lo
    flags = ("--wavelength", "500e-9", "--area", "1e-6", "--power", "1e6", "--n2", "1e-2")
    out = tmp_path / "rows.csv"
    code, _, err = run_cli(
        capsys, "sweep", *flags, "--grid", "tau=1e-13:1e-10:7:log", "--output", str(out)
    )
    assert (code, err) == (0, "")
    golden = Path(__file__).parent / "data" / "golden" / "giant_tau_log.csv"
    assert out.read_bytes() == golden.read_bytes()
    manifest = json.loads((tmp_path / "rows.csv.manifest.json").read_text())
    assert manifest["parameters"]["tau"] == 1e-13


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
