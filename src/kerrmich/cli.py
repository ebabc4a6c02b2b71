"""Command-line front end: estimate, sweep, verify, regimes.

Output is machine-readable (JSON or the fixed-column CSV) with floats
serialized at full round-trip precision. JSON is strict: inf and NaN are
null, where the CSV keeps Python's inf and nan. Every command writes
bytes, to the --output file or to stdout's byte buffer (decoded into a
stdout that has none, such as an io.StringIO). Exit codes: 0 success,
1 input error or unwritable output (a closed pipe too), 2 verification failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import io
import json
import os
import shlex
import stat
import sys
import time
from collections import Counter
from datetime import datetime, timezone
from pathlib import Path
from typing import BinaryIO, Callable, Sequence, TextIO

from . import __version__
from .core import (
    MAX_CASES,
    MAX_PHOTONS,
    PRESETS,
    ParameterError,
    ParameterSet,
    get_preset,
    kerr_cm2,
)
from .sweep import (
    CSV_COLUMNS,
    CSV_HEADER,
    FLAG_FIELDS,
    GRID_COLUMNS,
    MARGIN_FIELDS,
    MAX_ROWS,
    GridSpec,
    SweepRow,
    regime_report,
    run_sweep,  # not called here: bench/spans.py looks it up on this module
    sweep_blocks,
)

PROG = "kerrmich"


class CliError(Exception):
    """Bad command line; maps to exit code 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # type: ignore[override]
        raise CliError(message)


def parse_n2(text: str) -> float:
    """Kerr coefficient with an optional unit suffix.

    A bare number is read in cm^2/W, the unit the nonlinear-optics
    literature quotes; append m2 (or m2/w) for SI, cm2 to be explicit.
    Returns m^2/W.
    """
    t = text.strip().lower().replace("^", "")
    if t.endswith("/w"):
        t = t[: -len("/w")]
    if t.endswith("cm2"):
        to_si, t = kerr_cm2, t[: -len("cm2")]
    elif t.endswith("m2"):
        to_si, t = float, t[: -len("m2")]
    else:
        to_si = kerr_cm2
    try:
        value = float(t)
    except ValueError:
        raise CliError(f"cannot parse Kerr coefficient {text!r}") from None
    return to_si(value)


def parse_grid(text: str) -> GridSpec:
    """Grid flag name=lo:hi:points[:spacing]; lo and hi read as name's flag does."""
    try:
        name, rest = text.split("=", 1)
        parts = rest.split(":")
        if len(parts) not in (3, 4):
            raise ValueError
        parse = DESIGN_FLAGS[name][1] if name in DESIGN_FLAGS else float
        lo, hi = parse(parts[0]), parse(parts[1])
        points = int(parts[2])
        spacing = parts[3] if len(parts) == 4 else "linear"
    except ValueError:
        raise CliError(
            f"malformed grid {text!r}; expected name=lo:hi:points[:linear|log]"
        ) from None
    return GridSpec(parameter=name, lo=lo, hi=hi, points=points, spacing=spacing)


# Each ParameterSet field's flag, type and help. The fields without a
# default are required unless --regime or a --grid over them supplies them.
DESIGN_FLAGS = {
    "wavelength": ("--wavelength", float, "vacuum wavelength (m)"),
    "tau": ("--tau", float, "pulse duration (s)"),
    "area": ("--area", float, "beam cross section (m^2)"),
    "power": ("--power", float, "pulse power (W)"),
    "n2": ("--n2", parse_n2,
           "Kerr coefficient; bare numbers are cm^2/W, suffix m2 or cm2 to choose"),
    "n0": ("--n0", float, "linear refractive index (default 1)"),
    "eta": ("--eta", float, "detector efficiency in (0,1] (default 1)"),
    "sigma": ("--sigma", float, "random-phase std deviation (default 0)"),
    "nt": ("--nt", float, "mean thermal photon number (default 0)"),
    "arm_length": ("--arm-length", float,
                   "arm length (m); default is the m=1 operating point, 1 m if n2=0"),
    "signal_x": ("--signal", float, "arm-length signal x (m, default 0)"),
}
REQUIRED_FIELDS = tuple(
    f.name for f in dataclasses.fields(ParameterSet) if f.default is dataclasses.MISSING
)


def _add_output_flag(p: argparse.ArgumentParser) -> None:
    p.add_argument("--output", type=Path, help="write to this file instead of stdout")


def _add_design_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--regime", help=f"start from a built-in preset ({', '.join(PRESETS)})")
    for name, (flag, kind, text) in DESIGN_FLAGS.items():
        metavar = flag[2:].replace("-", "_").upper()
        p.add_argument(flag, dest=name, type=kind, metavar=metavar, help=text)
    _add_output_flag(p)
    p.add_argument(
        "--threshold",
        type=float,
        default=1e-2,
        help="validity margin threshold (default 1e-2)",
    )
    p.add_argument("--format", choices=("json", "csv"), help="output format")


def build_parser() -> _Parser:
    parser = _Parser(
        prog=PROG,
        description=(
            "Displacement sensitivity of a Kerr-nonlinear Michelson "
            "interferometer probed with classical pulses, with an exact "
            "Fock-space cross-check."
        ),
    )
    parser.add_argument("--version", action="version", version=f"{PROG} {__version__}")
    sub = parser.add_subparsers(dest="command", metavar="command")

    est = sub.add_parser(
        "estimate", help="resolution and validity for one design, as JSON"
    )
    _add_design_flags(est)

    sw = sub.add_parser("sweep", help="grid sweep over up to 3 parameters, as CSV")
    _add_design_flags(sw)
    sw.add_argument(
        "--grid",
        action="append",
        default=[],
        metavar="NAME=LO:HI:POINTS[:SPACING]",
        help="sweep axis (repeatable, up to 3), e.g. tau=1e-13:1e-10:50:log",
    )
    sw.add_argument(
        "--max-rows", type=int, default=MAX_ROWS, help="row cap, at least 1 (default 1e6)"
    )

    ver = sub.add_parser(
        "verify", help="run the brute-force cross-check suite against the oracle"
    )
    ver.add_argument(
        "--max-photons",
        type=int,
        default=25,
        help=f"largest photon number simulated (default 25, cap {MAX_PHOTONS})",
    )
    ver.add_argument(
        "--tolerance",
        type=float,
        default=1e-9,
        help=(
            "tolerance for deterministic checks: on the relative error, and on "
            "the absolute residual of the identity checks (default 1e-9)"
        ),
    )
    ver.add_argument(
        "--cases",
        type=int,
        default=0,
        help=f"extra random mean cases (default 0, cap {MAX_CASES})",
    )
    _add_output_flag(ver)
    ver.add_argument("--seed", type=int, default=42, help="random seed (default 42)")

    reg = sub.add_parser("regimes", help="built-in presets and their reports, as JSON")
    _add_output_flag(reg)

    return parser


def _params_from_args(args: argparse.Namespace) -> ParameterSet:
    overrides = {
        name: value for name in DESIGN_FLAGS if (value := getattr(args, name)) is not None
    }
    if args.regime:
        return dataclasses.replace(get_preset(args.regime), **overrides)
    missing = [DESIGN_FLAGS[name][0] for name in REQUIRED_FIELDS if name not in overrides]
    if missing:
        raise CliError(
            f"missing {', '.join(missing)} (or use --regime {'|'.join(PRESETS)})"
        )
    return ParameterSet(**overrides)


def _manifest(argv: Sequence[str], params: dict, **provenance) -> dict:
    return {
        "tool": PROG,
        "version": __version__,
        "command": shlex.join([PROG, *argv]),
        "timestamp": datetime.now(timezone.utc).isoformat(),
        **provenance,
        "parameters": params,
    }


def _json_text(obj) -> str:
    """`json.dumps(obj, indent=2)` as strict JSON: inf and NaN are null.
    The round trip through `json.loads` keeps every float bit for bit."""
    finite = json.loads(json.dumps(obj), parse_constant=lambda _: None)
    return json.dumps(finite, indent=2, allow_nan=False)


class _Decoding:
    """A binary stream's `write` into a text stream that has no byte
    buffer beneath it, such as an io.StringIO that stdout is redirected
    to: each write is whole lines, so it decodes on its own."""

    def __init__(self, text: TextIO) -> None:
        self.text = text

    def write(self, data: bytes) -> int:
        return self.text.write(data.decode())


class _HeldFirstByte(io.FileIO):
    """A regular output file's raw stream that writes NUL in place of the
    output's first byte and keeps that byte in `head`, for `_write_output`
    to put in once the output is whole: a process that dies mid-run
    leaves a file that starts with NUL, which no output format does.
    Nothing is synced, so a machine that crashes may not."""

    head = b""

    def write(self, data) -> int:
        if self.head or not len(data):
            return super().write(data)
        # one byte written, so the buffered writer hands over the rest
        written = super().write(b"\0")
        self.head = bytes(data[:1])
        return written


def _open_output(path: Path) -> io.BufferedWriter:
    """path opened for writing from its first byte, created with mode
    0o666 less the umask as `open(path, "wb")` does, but not truncated:
    a regular file's raw stream is a `_HeldFirstByte`, and anything else
    (a device, a pipe) is written straight through."""
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    if not stat.S_ISREG(os.fstat(fd).st_mode):
        return open(fd, "wb")
    return io.BufferedWriter(_HeldFirstByte(fd, "w"))


def _write_output(
    path: Path, write: Callable[[BinaryIO], None], opened: list[Path]
) -> None:
    """Write path through write(file), appending path to opened once it is
    open. An existing regular file is rewritten in place, its pages and
    blocks reused, and on every exit ends at the last byte written; its
    first byte goes in last, so until the output is whole it starts with
    NUL (in the page cache: nothing is synced to disk)."""
    with _open_output(path) as f:
        opened.append(path)
        raw = f.raw
        if not isinstance(raw, _HeldFirstByte):
            write(f)
            return
        try:
            write(f)
            f.flush()
        finally:
            # what is still buffered on an early exit lands at this end
            os.ftruncate(raw.fileno(), raw.tell())
        if raw.head:
            os.pwrite(raw.fileno(), raw.head, 0)


def _sidecar(output: Path) -> Path:
    return output.with_name(output.name + ".manifest.json")


def _emit_stream(
    write: Callable[[BinaryIO], None], output: Path | None, manifest: dict | None
) -> None:
    """Stream bytes through write(file), so memory does not grow with
    them: to the --output file (`_write_output`), or to stdout's byte
    buffer, after what was printed before it."""
    if output is None:
        stdout = getattr(sys.stdout, "buffer", None)
        if stdout is None:
            write(_Decoding(sys.stdout))
        else:
            sys.stdout.flush()
            write(stdout)
        return
    opened: list[Path] = []
    try:
        _write_output(output, write, opened)
        if manifest is not None:
            data = (_json_text(manifest) + "\n").encode()
            _write_output(_sidecar(output), lambda f: f.write(data), opened)
    except OSError:
        # a run that exits 1 leaves no partial output, nor an earlier
        # run's sidecar beside data that is gone: a regular file is
        # removed, one reached through a symlink is emptied, and a link, a
        # device or a pipe is left alone
        if opened and manifest is not None:
            opened = [output, _sidecar(output)]
        for path in opened:
            if path.is_symlink():
                if path.is_file():
                    os.truncate(path, 0)
            elif path.is_file():
                path.unlink()
        raise


def _emit_json(obj: dict, output: Path | None, manifest: dict | None) -> None:
    """A file embeds the manifest in the object instead of a sidecar."""
    if output is not None and manifest is not None:
        obj = {**obj, "manifest": manifest}
    data = (_json_text(obj) + "\n").encode()
    _emit_stream(lambda f: f.write(data), output, None)


def _estimate_payload(row: SweepRow) -> dict:
    return {
        "n_photons": row.n_photons,
        "chi": row.chi,
        "k": row.k_per_m,
        "delta_x_m": row.delta_x_m,
        "delta_x_linear_m": row.delta_x_linear_m,
        "improvement": row.improvement,
        "validity": {name: getattr(row, name) for name in (*MARGIN_FIELDS, *FLAG_FIELDS)},
    }


def cmd_estimate(args: argparse.Namespace, argv: Sequence[str]) -> int:
    params = _params_from_args(args)
    # a one-point sweep, so `estimate` equals it by construction
    table = next(sweep_blocks(params, (), args.threshold))
    (row,) = table
    manifest = _manifest(argv, dataclasses.asdict(params))
    manifest["rows"] = len(table)
    manifest["validity_failures"] = table.validity_failures()
    failed = [name for name, count in manifest["validity_failures"].items() if count]
    if failed:
        print(
            f"{PROG}: warning: validity conditions failed: {', '.join(failed)}",
            file=sys.stderr,
        )
    if args.format == "csv":
        def write(out: BinaryIO) -> None:
            out.write(CSV_HEADER.encode())
            table.write_csv_rows(out)

        _emit_stream(write, args.output, manifest)
    else:
        _emit_json(_estimate_payload(row), args.output, manifest)
    return 0


def cmd_sweep(args: argparse.Namespace, argv: Sequence[str]) -> int:
    grids = [parse_grid(g) for g in args.grid]
    for g in grids:
        if getattr(args, g.parameter) is not None:
            raise CliError(f"give {DESIGN_FLAGS[g.parameter][0]} or --grid {g.parameter}, not both")
    if not args.regime:
        # a swept field needs no flag: the base design takes the grid's lo
        vars(args).update({g.parameter: g.lo for g in grids})
    params = _params_from_args(args)
    if args.format != "json":
        for g in grids:
            column = GRID_COLUMNS[g.parameter]
            if column not in CSV_COLUMNS:
                raise CliError(
                    f"--grid {g.parameter} varies {column}, which the CSV does "
                    f"not carry; use --format json, whose rows include it"
                )

    def blocks():
        return sweep_blocks(params, grids, args.threshold, args.max_rows)

    # A first pass that formats nothing: a row that raises does so here,
    # before anything is written, so a failing sweep leaves no output.
    start = time.perf_counter()
    for _ in blocks():
        pass
    check_s = time.perf_counter() - start

    manifest = _manifest(argv, dataclasses.asdict(params))
    manifest["grids"] = [dataclasses.asdict(g) for g in grids]
    frame = {"columns": list(CSV_COLUMNS), "rows": [None]}
    as_json = args.format == "json"

    def write(out: BinaryIO) -> None:
        # sums over the blocks, keyed in the order of a block's own keys
        rows, failures, stages, format_write_s = 0, Counter(), Counter(check_s=check_s), 0.0
        out.write((_json_frame(frame)[0] + "\n" if as_json else CSV_HEADER).encode())
        for i, block in enumerate(blocks()):
            start = time.perf_counter()
            if as_json:
                out.write(b",\n" if i else b"")
                block.write_json_rows(out)
            else:
                block.write_csv_rows(out)
            format_write_s += time.perf_counter() - start
            rows += len(block)
            failures.update(block.validity_failures())
            stages.update(block.stages)
        manifest["rows"] = rows
        manifest["validity_failures"] = dict(failures)
        manifest["stages"] = {**stages, "format_write_s": format_write_s}
        if as_json:
            if args.output is not None:
                frame["manifest"] = manifest
            out.write(("\n" + _json_frame(frame)[1] + "\n").encode())

    _emit_stream(write, args.output, None if as_json else manifest)
    return 0


def _json_frame(payload: dict) -> list[str]:
    """`_json_text(payload)` before and after the items of
    payload["rows"], which holds the single item None."""
    return _json_text(payload).split("\n    null\n", 1)


def run_crosscheck(**kwargs):
    """`crosscheck.run_crosscheck`, with its TruncationError as a CliError.

    The Fock oracle loads on the first call, since only `verify` needs it;
    `verify` calls this name, which bench/spans.py traces on this module.
    """
    from . import crosscheck, fock

    try:
        return crosscheck.run_crosscheck(**kwargs)
    except fock.TruncationError as exc:
        raise CliError(str(exc)) from None


def cmd_verify(args: argparse.Namespace, argv: Sequence[str]) -> int:
    report = run_crosscheck(
        max_photons=args.max_photons,
        tolerance=args.tolerance,
        seed=args.seed,
        extra_cases=args.cases,
    )
    manifest = _manifest(
        argv,
        {
            "max_photons": args.max_photons,
            "tolerance": args.tolerance,
            "cases": args.cases,
        },
        seed=args.seed,
    )
    manifest["checks"] = report.checks
    manifest["failed"] = report.failed
    manifest["stages"] = stages = {f"{section}_s": s for section, s in report.stages.items()}

    def write(out: BinaryIO) -> None:
        start = time.perf_counter()
        for text in report.texts():
            out.write(text.encode())
        stages["format_write_s"] = time.perf_counter() - start

    _emit_stream(write, args.output, manifest)
    return 0 if report.ok else 2


def cmd_regimes(args: argparse.Namespace, argv: Sequence[str]) -> int:
    payload = {"regimes": [regime_report(name) for name in PRESETS]}
    _emit_json(payload, args.output, _manifest(argv, {}))
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command is None:
            raise CliError("a command is required: estimate, sweep, verify, regimes")
        handler = {
            "estimate": cmd_estimate,
            "sweep": cmd_sweep,
            "verify": cmd_verify,
            "regimes": cmd_regimes,
        }[args.command]
        code = handler(args, list(argv))
        # a reader that closed the pipe early is reported here, not at exit
        sys.stdout.flush()
        return code
    except (CliError, ParameterError, OSError) as exc:
        print(f"{PROG}: error: {exc}", file=sys.stderr)
        return 1


def run() -> None:
    code = main()
    try:
        sys.stdout.flush()
    except BrokenPipeError:
        # what a closed pipe left buffered goes nowhere, so exit is silent
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    raise SystemExit(code)


if __name__ == "__main__":
    run()
