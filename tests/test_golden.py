"""CLI output bytes against files captured before the columnar sweep engine.

Each file under tests/data/golden/ is the stdout of one command below, as
printed by the per-row engine (`kerrmich.sweep.evaluate` over every grid
point). Output goes to stdout, so no manifest is involved. Together the
cases cover both presets, log and linear grids, a dark input (power = 0,
infinite resolution), a linear medium (n2 = 0, 1 m arm fallback and an
infinite dominance margin), -0.0 next to 0.0, a 3-axis grid, and grids
over the two JSON-only coordinates. The `regimes` file pins
`regime_report`. `estimate`, `sweep` and `regimes` read `sweep_blocks`,
and both presets are clean points, so the column kernel `_kernel`
computes their rows and `analytic.validity` is never called; the file was
captured before `validity` computed the operating-point detuning inline.
"""

from pathlib import Path

import pytest

import kerrmich.sweep
from kerrmich.cli import main

GOLDEN = Path(__file__).parent / "data" / "golden"

CASES = {
    "giant_tau_log.csv": ["sweep", "--regime", "giant-eit", "--grid", "tau=1e-13:1e-10:7:log"],
    "natural_nt_linear.csv": ["sweep", "--regime", "natural", "--grid", "nt=0:10:5"],
    "giant_power_dark.csv": [
        "sweep", "--regime", "giant-eit", "--sigma", "-0.0", "--grid", "power=0:2e6:5",
    ],
    "giant_power_dark.json": [
        "sweep", "--regime", "giant-eit", "--sigma", "-0.0", "--grid", "power=0:2e6:5",
        "--format", "json",
    ],
    "linear_medium.csv": ["sweep", "--regime", "giant-eit", "--n2", "0", "--grid", "sigma=0:0.1:3"],
    "linear_medium.json": [
        "sweep", "--regime", "giant-eit", "--n2", "0", "--grid", "sigma=0:0.1:3",
        "--format", "json",
    ],
    "natural_3axis.csv": [
        "sweep", "--regime", "natural", "--grid", "tau=1e-13:1e-11:3:log",
        "--grid", "eta=0.5:1:2", "--grid", "sigma=0:1e-8:3",
    ],
    "natural_3axis.json": [
        "sweep", "--regime", "natural", "--grid", "tau=1e-13:1e-11:3:log",
        "--grid", "eta=0.5:1:2", "--grid", "sigma=0:1e-8:3", "--format", "json",
    ],
    "signal_x.json": [
        "sweep", "--regime", "giant-eit", "--grid", "signal_x=-1e-13:1e-13:5", "--format", "json",
    ],
    "arm_length.json": [
        "sweep", "--regime", "giant-eit", "--grid", "arm_length=100:150:3", "--format", "json",
    ],
    "estimate_giant.csv": ["estimate", "--regime", "giant-eit", "--format", "csv"],
    "estimate_natural.json": ["estimate", "--regime", "natural", "--sigma", "1e-9"],
    "regimes.json": ["regimes"],
}


def _stdout(capsys, argv):
    assert main(argv) == 0
    out, err = capsys.readouterr()
    assert err == ""
    return out.encode()


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_bytes_match_golden(name, capsys):
    assert _stdout(capsys, CASES[name]) == (GOLDEN / name).read_bytes()


@pytest.mark.parametrize("name", [n for n in sorted(CASES) if n.endswith(".csv")])
def test_chunk_boundaries_do_not_change_bytes(name, capsys, monkeypatch):
    monkeypatch.setattr(kerrmich.sweep, "CSV_CHUNK_ROWS", 4)
    assert _stdout(capsys, CASES[name]) == (GOLDEN / name).read_bytes()


@pytest.mark.parametrize("name", [n for n in sorted(CASES) if n.endswith(".json")])
def test_chunk_boundaries_do_not_change_json_bytes(name, capsys, monkeypatch):
    monkeypatch.setattr(kerrmich.sweep, "CSV_CHUNK_ROWS", 4)
    assert _stdout(capsys, CASES[name]) == (GOLDEN / name).read_bytes()


@pytest.mark.parametrize("name", sorted(CASES))
def test_write_pieces_do_not_change_bytes(name, capsys, monkeypatch):
    # pieces of 3 rows inside blocks of 7, the last of each block shorter
    monkeypatch.setattr(kerrmich.sweep, "CSV_CHUNK_ROWS", 7)
    monkeypatch.setattr(kerrmich.sweep, "WRITE_ROWS", 3)
    assert _stdout(capsys, CASES[name]) == (GOLDEN / name).read_bytes()
