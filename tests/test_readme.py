"""The examples in README.md run as written."""

import contextlib
import io
import re
import shlex
from pathlib import Path

import pytest

from kerrmich.cli import main
from kerrmich.sweep import CSV_COLUMNS

README = (Path(__file__).parent.parent / "README.md").read_text()


def _block(heading: str, language: str = "") -> str:
    """The first fenced block of the given language after a heading."""
    section = README.split(f"## {heading}\n", 1)[1]
    return re.search(rf"```{language}\n(.*?)```", section, re.S).group(1)


COMMANDS = [
    shlex.split(line)[1:]
    for line in _block("Command line").replace("\\\n", " ").splitlines()
    if line.startswith("kerrmich ")
]


def test_command_block_is_found():
    assert [argv[0] for argv in COMMANDS] == ["estimate", "estimate", "sweep", "verify", "regimes"]


@pytest.mark.parametrize("argv", COMMANDS, ids=[" ".join(a) for a in COMMANDS])
def test_command_line_example_runs(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 0, capsys.readouterr().err


def test_csv_column_order_is_the_one_in_the_code():
    listed = re.search(r"with a fixed column order \(`(.*?)`\)", README, re.S).group(1)
    assert listed.replace(",", " ").split() == list(CSV_COLUMNS)


def test_library_sketch_runs():
    # a text stdout over a byte buffer, as a script's, since the sketch
    # writes the sweep's rows to sys.stdout.buffer
    out = io.TextIOWrapper(io.BytesIO(), encoding="utf-8")
    with contextlib.redirect_stdout(out):
        exec(_block("Library sketch", "python"), {})
    out.flush()
    lines = out.buffer.getvalue().decode().splitlines()
    # the 10_000 CSV rows come after the lines printed before them
    rows = [i for i, line in enumerate(lines) if line.count(",") == len(CSV_COLUMNS) - 1]
    assert len(rows) == 10_000 and rows[0] > 0 and rows == list(range(rows[0], rows[0] + 10_000))
