"""Command-line front end: estimate, sweep, verify, regimes.

Output is machine-readable (JSON or the fixed-column CSV) with floats
serialized at full round-trip precision. JSON is strict: inf and NaN are
null, where the CSV keeps Python's inf and nan. Exit codes: 0 success,
1 input error, 2 verification failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import shlex
import sys
import time
from datetime import datetime, timezone
from pathlib import Path
from typing import Callable, Sequence, TextIO

from . import __version__
from .core import ParameterError, get_preset
from .crosscheck import MAX_CASES, MAX_DIM_MARGIN, run_crosscheck
from .fock import TruncationError
from .sweep import (
    CSV_COLUMNS,
    CSV_HEADER,
    FLAG_FIELDS,
    GRID_COLUMNS,
    MARGIN_FIELDS,
    MAX_ROWS,
    GridSpec,
    ParameterSet,
    RegimeReport,
    SweepRow,
    SweepStats,
    SweepTable,
    evaluate,
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
        scale, t = 1e-4, t[: -len("cm2")]
    elif t.endswith("m2"):
        scale, t = 1.0, t[: -len("m2")]
    else:
        scale = 1e-4
    try:
        value = float(t)
    except ValueError:
        raise CliError(f"cannot parse Kerr coefficient {text!r}") from None
    return value * scale


def parse_grid(text: str) -> GridSpec:
    """Grid flag of the form name=lo:hi:points[:spacing]."""
    try:
        name, rest = text.split("=", 1)
        parts = rest.split(":")
        if len(parts) not in (3, 4):
            raise ValueError
        lo, hi = float(parts[0]), float(parts[1])
        points = int(parts[2])
        spacing = parts[3] if len(parts) == 4 else "linear"
    except ValueError:
        raise CliError(
            f"malformed grid {text!r}; expected name=lo:hi:points[:linear|log]"
        ) from None
    if name == "n2":
        lo, hi = parse_n2(parts[0]), parse_n2(parts[1])
    return GridSpec(parameter=name, lo=lo, hi=hi, points=points, spacing=spacing)


# Each ParameterSet field's flag, type and help. The fields without a
# default are required unless --regime supplies them.
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
    p.add_argument("--regime", help="start from a built-in preset (natural, giant-eit)")
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
        help="largest photon number simulated (default 25, cap 30)",
    )
    ver.add_argument(
        "--dim-margin",
        type=int,
        default=0,
        help=(
            "extra Fock dimensions on top of the default truncation rule "
            f"(default 0, cap {MAX_DIM_MARGIN})"
        ),
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
        return dataclasses.replace(ParameterSet.from_preset(args.regime), **overrides)
    missing = [DESIGN_FLAGS[name][0] for name in REQUIRED_FIELDS if name not in overrides]
    if missing:
        raise CliError(
            f"missing {', '.join(missing)} (or use --regime natural|giant-eit)"
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


def _write_sidecar(output: Path, manifest: dict | None) -> None:
    if manifest is not None:
        sidecar = output.with_name(output.name + ".manifest.json")
        sidecar.write_text(_json_text(manifest) + "\n")


def _emit_stream(
    write: Callable[[TextIO], None], output: Path | None, manifest: dict | None
) -> None:
    """Stream text through write(file), so memory does not grow with it."""
    if output is None:
        write(sys.stdout)
        return
    with output.open("w") as f:
        write(f)
    _write_sidecar(output, manifest)


def _emit_json(obj: dict, output: Path | None, manifest: dict | None) -> None:
    if output is None:
        sys.stdout.write(_json_text(obj) + "\n")
        return
    embedded = dict(obj)
    if manifest is not None:
        embedded["manifest"] = manifest
    output.write_text(_json_text(embedded) + "\n")


def _estimate_payload(row: SweepRow, validity: dict) -> dict:
    return {
        "n_photons": row.n_photons,
        "chi": row.chi,
        "k": row.k_per_m,
        "delta_x_m": row.delta_x_m,
        "delta_x_linear_m": row.delta_x_linear_m,
        "improvement": row.improvement,
        "validity": validity,
    }


def _row_validity(row: SweepRow) -> dict:
    return {name: getattr(row, name) for name in (*MARGIN_FIELDS, *FLAG_FIELDS)}


def cmd_estimate(args: argparse.Namespace, argv: Sequence[str]) -> int:
    params = _params_from_args(args)
    row = evaluate(params, args.threshold)
    table = SweepTable.from_rows([row])
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
        def write(out: TextIO) -> None:
            out.write(CSV_HEADER)
            table.write_csv_rows(out)

        _emit_stream(write, args.output, manifest)
    else:
        _emit_json(_estimate_payload(row, _row_validity(row)), args.output, manifest)
    return 0


def cmd_sweep(args: argparse.Namespace, argv: Sequence[str]) -> int:
    if args.max_rows < 1:
        raise CliError("--max-rows must be >= 1")
    params = _params_from_args(args)
    grids = [parse_grid(g) for g in args.grid]
    if args.format != "json":
        for g in grids:
            column = GRID_COLUMNS[g.parameter]
            if column not in CSV_COLUMNS:
                raise CliError(
                    f"--grid {g.parameter} varies {column}, which the CSV does "
                    f"not carry; use --format json, whose rows include it"
                )

    def blocks(stats: SweepStats | None = None):
        return sweep_blocks(params, grids, args.threshold, args.max_rows, stats)

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

    def write(out: TextIO) -> None:
        stats = SweepStats()
        format_write_s = 0.0
        out.write(_json_frame(frame)[0] + "\n" if as_json else CSV_HEADER)
        for i, block in enumerate(blocks(stats)):
            start = time.perf_counter()
            if as_json:
                out.write(",\n" if i else "")
                block.write_json_rows(out)
            else:
                block.write_csv_rows(out)
            format_write_s += time.perf_counter() - start
        manifest["rows"] = stats.rows
        manifest["validity_failures"] = stats.validity_failures
        manifest["stages"] = {
            "check_s": check_s,
            "kernel_s": stats.kernel_s,
            "fallback_s": stats.fallback_s,
            "fallback_rows": stats.fallback_rows,
            "format_write_s": format_write_s,
        }
        if as_json:
            if args.output is not None:
                frame["manifest"] = manifest
            out.write("\n" + _json_frame(frame)[1] + "\n")

    _emit_stream(write, args.output, None if as_json else manifest)
    return 0


def _json_frame(payload: dict) -> list[str]:
    """`_json_text(payload)` before and after the items of
    payload["rows"], which holds the single item None."""
    return _json_text(payload).split("\n    null\n", 1)


def cmd_verify(args: argparse.Namespace, argv: Sequence[str]) -> int:
    if args.max_photons > 30:
        raise CliError(
            f"--max-photons {args.max_photons} exceeds the desk-scale cap of 30"
        )
    if args.max_photons < 0:
        raise CliError("--max-photons must be >= 0")
    if not 0.0 <= args.tolerance < math.inf:
        raise CliError("--tolerance must be >= 0 and finite")
    if args.dim_margin < 0:
        raise CliError("--dim-margin must be >= 0")
    if args.dim_margin > MAX_DIM_MARGIN:
        raise CliError(
            f"--dim-margin {args.dim_margin} exceeds the cap of {MAX_DIM_MARGIN}"
        )
    if args.cases < 0:
        raise CliError("--cases must be >= 0")
    if args.cases > MAX_CASES:
        raise CliError(f"--cases {args.cases} exceeds the cap of {MAX_CASES}")
    if args.seed < 0:
        raise CliError("--seed must be >= 0")
    report = run_crosscheck(
        max_photons=args.max_photons,
        tolerance=args.tolerance,
        seed=args.seed,
        extra_cases=args.cases,
        dim_margin=args.dim_margin,
    )
    manifest = _manifest(
        argv,
        {
            "max_photons": args.max_photons,
            "tolerance": args.tolerance,
            "cases": args.cases,
            "dim_margin": args.dim_margin,
        },
        seed=args.seed,
    )
    manifest["checks"] = report.checks
    manifest["failed"] = report.failed
    manifest["stages"] = {f"{section}_s": s for section, s in report.stages.items()}
    _emit_stream(
        lambda f: f.writelines(line + "\n" for line in report.lines()),
        args.output,
        manifest,
    )
    return 0 if report.ok else 2


def _report_payload(report: RegimeReport) -> dict:
    preset = get_preset(report.name)
    return {
        "name": report.name,
        "inputs": {
            "wavelength_m": preset.pulse.wavelength,
            "tau_s": preset.pulse.duration,
            "area_m2": preset.pulse.cross_section,
            "power_w": preset.pulse.power,
            "n2_m2_per_w": preset.medium.kerr_coefficient,
            "n0": preset.medium.linear_index,
            "eta": preset.noise.efficiency,
            "sigma": preset.noise.phase_sigma,
            "nt": preset.noise.thermal_photons,
        },
        "derived": {
            "n_photons": report.row.n_photons,
            "chi": report.row.chi,
            "k": report.row.k_per_m,
        },
        "report": {
            "arm_length_m": report.row.arm_length_m,
            "x_min_m": report.row.delta_x_m,
            "x_max_m": report.x_max_m,
            "sigma_max": report.sigma_max,
            "nt_max": report.nt_max,
            "delta_x_m": report.row.delta_x_m,
            "delta_x_linear_m": report.row.delta_x_linear_m,
            "improvement": report.row.improvement,
            "notes": list(report.notes),
        },
    }


def cmd_regimes(args: argparse.Namespace, argv: Sequence[str]) -> int:
    payload = {
        "regimes": [
            _report_payload(regime_report(name))
            for name in ("natural", "giant-eit")
        ]
    }
    manifest = _manifest(argv, {})
    _emit_json(payload, args.output, manifest)
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
        return handler(args, list(argv))
    except (CliError, ParameterError, TruncationError) as exc:
        print(f"{PROG}: error: {exc}", file=sys.stderr)
        return 1


def run() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    run()
