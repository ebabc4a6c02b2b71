"""The examples in README.md run as written."""

import contextlib
import io
import re
import shlex
from pathlib import Path

import pytest

from kerrmich.cli import main

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


def test_library_sketch_runs():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(_block("Library sketch", "python"), {})
    assert out.getvalue()
