"""Deterministic grid sweeps over the design space.

A sweep is the Cartesian product of up to three one-parameter grids laid
over a fully-specified base design, a `core.ParameterSet` such as a
built-in preset. Rows come out in lexicographic order of the grid
indices (first grid slowest), each row is a pure function of its own
inputs, and grid endpoints are echoed exactly as given, so a sweep is
reproducible byte for byte.

`sweep_blocks` computes a grid as NumPy columns (`_kernel`), one block
of at most CSV_CHUNK_ROWS rows at a time so that memory does not grow
with the row count, and `evaluate` one design point as plain floats, both
with the operations of `derive` and `sensitivity_report` in the same
order. A row is a `SweepRow`, a NamedTuple of the ROW_FIELDS: `evaluate`
builds it as one tuple, and a block, a `SweepTable`, keeps its rows as
columns and builds them only when it is iterated. A block is a box of
the grid in C order, and each of its columns is computed and stored at
the shape of the grid axes it depends on. On a tau x power x sigma grid
that is a constant once, chi once per tau, N once per (tau, power), and
only delta_x, the improvement and the dominance margin once per row.
`_evaluate_reference` composes `derive` and `sensitivity_report`
themselves on the design's specs (`ParameterSet.pulse`, `.medium`,
`.noise`) and raises what they raise, with an arithmetic failure
reported as a `ParameterError`. `_kernel` computes every row on which
that path returns and rejects exactly the rows on which it raises, and
`sweep_blocks` runs the first rejected row through it to raise its
error. `evaluate` takes every point it does not vouch for through it.
So every row is bit for bit the row of the composed path, which the
tests use as the reference.

`SweepTable.write_csv_rows` and `write_json_rows` share one byte writer,
`_write_rows`, which writes ASCII bytes to a binary stream: each stored
value of a block is formatted once, floats by `rowtext.float_texts`
(byte for byte `repr`), and the rows are laid out by `rowtext.row_table`,
the layout of `verify`'s report lines too. A block's fixed texts are laid
out once, in one table of WRITE_ROWS rows held in a bytearray, and each
piece of rows copies only its column texts into that table; the NULs are
deleted in the one copy of its bytes that goes to the stream.
"""

from __future__ import annotations

import dataclasses
import math
import time
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass
from typing import BinaryIO, NamedTuple

import numpy as np

from .analytic import ValidityFlags, sensitivity_report
from .core import (
    C_LIGHT,
    HBAR,
    GeometrySpec,
    ParameterError,
    ParameterSet,
    derive,
    get_preset,
    operating_arm_length,
)

# Each sweepable ParameterSet field and the SweepRow column that echoes it.
GRID_COLUMNS = {
    "tau": "tau_s",
    "area": "area_m2",
    "power": "power_w",
    "n2": "n2_m2_per_w",
    "wavelength": "wavelength_m",
    "eta": "eta",
    "sigma": "sigma",
    "nt": "nt",
    "arm_length": "arm_length_m",
    "signal_x": "signal_x_m",
}
GRID_PARAMETERS = tuple(GRID_COLUMNS)

MAX_ROWS = 1_000_000

# Rows per block, at most: a sweep is evaluated, formatted and written one
# box of the grid at a time (see `_boxes`), and a block's columns and
# texts stay at a few MB. A block's float texts are its largest array,
# and glibc's malloc hands free heap at the top back to the system once it
# exceeds twice the largest array freed from mmap so far, so smaller
# blocks give back heap after each block and fault it in again: on a
# 50 x 50 x 40 CSV sweep, boxes of 4000 rows faulted ~26k pages per CLI
# run against ~3.4k for boxes of 8000, and ran ~30% slower (`ru_minflt`
# and medians of seven in-process runs on a 2-core Linux VM, with the
# writer that holds one row table per block). A box holds more than half a
# block: trailing axes of just over half, as on a 100 x 50 x 82 grid, give
# boxes of 4100 rows, which an older writer swept as fast as runs of 4096
# rows cut from the flat grid (1.23 s against 1.25 s, medians of 24 runs).
CSV_CHUNK_ROWS = 8192


@dataclass(frozen=True)
class GridSpec:
    """One sweep axis: parameter name, closed range, point count, spacing."""

    parameter: str
    lo: float
    hi: float
    points: int
    spacing: str = "linear"

    def __post_init__(self) -> None:
        if self.parameter not in GRID_PARAMETERS:
            raise ParameterError(
                f"unknown sweep parameter {self.parameter!r} "
                f"(known: {', '.join(GRID_PARAMETERS)})"
            )
        if self.spacing not in ("linear", "log"):
            raise ParameterError(f"spacing must be 'linear' or 'log', got {self.spacing!r}")
        if not (math.isfinite(self.lo) and math.isfinite(self.hi) and self.lo < self.hi):
            raise ParameterError(f"grid needs lo < hi, got {self.lo!r}..{self.hi!r}")
        if self.points < 2:
            raise ParameterError(f"grid needs at least 2 points, got {self.points}")
        if self.spacing == "log" and self.lo <= 0.0:
            raise ParameterError("log spacing requires lo > 0")

    def values(self) -> list[float]:
        """Grid points; endpoints are exactly lo and hi."""
        if self.spacing == "log":
            arr = np.geomspace(self.lo, self.hi, self.points)
        else:
            arr = np.linspace(self.lo, self.hi, self.points)
        return [float(v) for v in arr]


class SweepRow(NamedTuple):
    """All inputs of one design point plus everything derived from them.

    A NamedTuple: immutable, hashable and equal field by field, with
    `row._asdict()` for a dict of its fields and `row._replace(...)` for
    a copy with some of them changed.
    """

    tau_s: float
    area_m2: float
    power_w: float
    n2_m2_per_w: float
    wavelength_m: float
    eta: float
    sigma: float
    nt: float
    arm_length_m: float
    signal_x_m: float
    n_photons: float
    chi: float
    k_per_m: float
    delta_x_m: float
    delta_x_linear_m: float
    improvement: float
    margin_small_signal: float
    margin_thermal: float
    margin_dephasing: float
    margin_operating_point: float
    margin_nl_dominant: float
    small_signal: bool
    weak_thermal: bool
    weak_dephasing: bool
    on_operating_point: bool
    nonlinearity_dominant: bool


# `evaluate`'s constants. Python folds `2.0 * math.pi * C_LIGHT / wl` left
# to right, so dividing the folded product keeps the quotient's bits.
_TWO_PI_C = 2.0 * math.pi * C_LIGHT
_TWO_PI = 2.0 * math.pi
_PI = math.pi
_INF = math.inf
_sqrt = math.sqrt
_isfinite = math.isfinite
_new_tuple = tuple.__new__


def evaluate(params: ParameterSet, threshold: float = 1e-2) -> SweepRow:
    """One design point through the closed-form engine, as one SweepRow.
    The library's scalar entry: no CLI command calls it, as `estimate` and
    `regimes` take their row from a one-point `sweep_blocks`.

    The scalar twin of `_kernel`: straight-line float arithmetic that
    repeats `derive`, `operating_arm_length` and `sensitivity_report` term
    for term, so a clean point is bit for bit what `_evaluate_reference`
    returns. A point is clean when it passes every spec check and one
    finiteness test holds: the sum of its numeric inputs but eta (which
    its range check bounds), its derived values and its resolutions is
    finite. An inf or NaN term makes that sum inf or NaN; a point whose
    terms are all finite but whose sum overflows is merely not vouched
    for. Any other point, and any point on which this arithmetic raises,
    such as a square past the largest double, goes to
    `_evaluate_reference`, which returns or raises exactly what the
    composed path does.
    """
    if not 0.0 < threshold < _INF:
        _check_threshold(threshold)
    p = params
    wl, tau, area, power = p.wavelength, p.tau, p.area, p.power
    n0, n2, eta, sigma, nt = p.n0, p.n2, p.eta, p.sigma, p.nt
    arm, signal = p.arm_length, p.signal_x
    try:
        omega = _TWO_PI_C / wl
        n = power * tau / (HBAR * omega)
        chi = (n2 / n0) * HBAR * omega / (area * tau)
        k = n0 * omega / C_LIGHT
        if arm is None:
            arm = _TWO_PI / (k * chi) if chi > 0.0 else 1.0

        # only products the composed path computes as such are shared:
        # gain is (0.5 * chi) * n, not 0.5 * (chi * n)
        eta_n = eta * n
        chi_n = chi * n
        thermal = 1.0 + nt
        # zero for a dark input (n = 0): its resolution is infinite, which
        # is not clean, so dividing by it raises and goes to the reference
        ekkn = eta * k * k * n
        noise = 1.0 + eta_n * sigma * sigma + nt
        gain = 1.0 + 0.5 * chi * n
        delta_x = _sqrt(noise / ekkn) / gain
        delta_x_linear = _sqrt(thermal / ekkn)
        improvement = _sqrt(noise / thermal) / gain

        z0 = k * arm * chi / 2.0
        detuning = z0 - round(z0 / _PI) * _PI
        gain_sq = chi_n ** 2
        nl_noise = eta_n * sigma**2 + nt
        # the quotients of `analytic._ratio`; n is not zero here, or ekkn
        # would have raised
        margin_small_signal = chi_n * k * abs(signal)
        margin_thermal = 0.0 if nt == 0.0 else nt / n
        margin_operating_point = abs(detuning) / _PI
        margin_nl_dominant = 0.0 if nl_noise == 0.0 else nl_noise / gain_sq if gain_sq else _INF

        clean = (
            wl > 0.0 and tau > 0.0 and area > 0.0 and power >= 0.0
            and n0 > 0.0 and n2 >= 0.0 and 0.0 < eta <= 1.0
            and sigma >= 0.0 and nt >= 0.0
            and arm > 0.0 and arm - 0.5 * signal > 0.0 and arm + 0.5 * signal > 0.0
            and _isfinite(
                wl + tau + area + power + n0 + n2 + sigma + nt + arm + signal
                + omega + n + chi + k + delta_x + delta_x_linear + improvement
            )
        )
    except (ArithmeticError, ValueError, TypeError):
        clean = False
    if not clean:
        return _evaluate_reference(params, threshold)
    # `SweepRow._make` less its classmethod call and length check
    return _new_tuple(SweepRow, (
        tau, area, power, n2, wl, eta, sigma, nt, arm, signal,
        n, chi, k, delta_x, delta_x_linear, improvement,
        margin_small_signal, margin_thermal, sigma,
        margin_operating_point, margin_nl_dominant,
        margin_small_signal < threshold, margin_thermal < threshold,
        sigma < threshold, margin_operating_point < threshold,
        margin_nl_dominant < threshold,
    ))


def _evaluate_reference(params: ParameterSet, threshold: float = 1e-2) -> SweepRow:
    """`evaluate` composed from the spec types, `derive` and
    `sensitivity_report`: the fallback for points `evaluate` does not
    vouch for, the error of a row `_kernel` rejects, and the reference
    both are tested against.

    A failure of the arithmetic itself, such as a product that underflows
    to a zero divisor or `round(nan)`, is raised as a `ParameterError`.
    """
    _check_threshold(threshold)
    p = params
    try:
        derived = derive(p.pulse, p.medium)
        arm = p.arm_length
        if arm is None:
            arm = operating_arm_length(derived) if derived.chi > 0.0 else 1.0
        geometry = GeometrySpec(arm_length=arm, signal=p.signal_x)
        report = sensitivity_report(derived, geometry, p.noise, threshold)
    except ParameterError:
        raise
    except (ArithmeticError, ValueError) as exc:
        raise ParameterError(f"design cannot be evaluated: {type(exc).__name__}: {exc}") from exc
    checks = [getattr(report.validity, name) for name in FLAG_FIELDS]
    return SweepRow._make((
        p.tau, p.area, p.power, p.n2, p.wavelength, p.eta, p.sigma, p.nt, arm, p.signal_x,
        derived.photons, derived.chi, derived.wavenumber,
        report.delta_x, report.delta_x_linear, report.improvement,
        *(c.margin for c in checks), *(c.ok for c in checks),
    ))


ROW_FIELDS = SweepRow._fields
MARGIN_FIELDS = tuple(name for name in ROW_FIELDS if name.startswith("margin_"))
FLAG_FIELDS = tuple(f.name for f in dataclasses.fields(ValidityFlags))
# Column order is a compatibility contract with the CLI CSV output: the
# row fields less the flags and the geometry echoes.
CSV_COLUMNS = tuple(
    name for name in ROW_FIELDS if name not in (*FLAG_FIELDS, "arm_length_m", "signal_x_m")
)
CSV_HEADER = ",".join(CSV_COLUMNS) + "\n"


def _check_threshold(threshold: float) -> None:
    if not 0.0 < threshold < math.inf:
        raise ParameterError(f"threshold must be finite and > 0, got {threshold!r}")


class SweepTable:
    """The rows of a sweep, one column per SweepRow field.

    The rows lie in C order over `shape`. Each column is an array that
    broadcasts to `shape`, so it holds one value per point of the grid
    axes it depends on. A table of 1-D columns has the shape (rows,).
    Iterating a table is the one way to get its rows: `__iter__` builds
    each SweepRow, one tuple, from the columns, WRITE_ROWS rows at a time.
    `write_csv_rows` and `write_json_rows` read the columns as they are
    stored. A block of `sweep_blocks` carries the `stages` that computed
    it; any other table has none.
    """

    def __init__(self, columns: dict[str, np.ndarray], shape: tuple[int, ...] | None = None,
                 stages: dict[str, float] | None = None) -> None:
        self.columns = columns
        self.shape = (len(columns["tau_s"]),) if shape is None else tuple(shape)
        self.stages = {} if stages is None else stages

    @classmethod
    def concat(cls, tables: Iterable["SweepTable"]) -> "SweepTable":
        """The rows of the tables, one after another."""
        tables = list(tables)
        return cls({
            name: np.concatenate([t.column(name) for t in tables]) for name in ROW_FIELDS
        })

    def column(self, name: str) -> np.ndarray:
        """The values of one field, one per row."""
        return np.broadcast_to(self.columns[name], self.shape).reshape(-1)

    def __len__(self) -> int:
        return math.prod(self.shape)

    def __iter__(self) -> Iterator[SweepRow]:
        """The rows in order, as Python floats and bools; only WRITE_ROWS
        of them are held at a time."""
        columns = [self.column(name) for name in ROW_FIELDS]
        for lo in range(0, len(self), WRITE_ROWS):
            values = (c[lo : lo + WRITE_ROWS].tolist() for c in columns)
            yield from map(SweepRow._make, zip(*values))

    def validity_failures(self) -> dict[str, int]:
        """Number of rows failing each of the five validity conditions."""
        return {
            name: len(self) - int(np.count_nonzero(self.column(name))) for name in FLAG_FIELDS
        }

    def write_csv_rows(self, out: BinaryIO) -> None:
        """One CSV line per row, each value as `repr` of its float, as
        ASCII bytes to the binary stream out."""
        _write_rows(out, self, CSV_COLUMNS, _CSV_TEXTS)

    def write_json_rows(self, out: BinaryIO) -> None:
        """The rows as `json.dumps(..., indent=2)` lays out the items of a
        list held by a top-level key, such as the "rows" of a sweep: one
        object per row, joined by ",\n", with no newline at either end,
        as ASCII bytes to the binary stream out.

        Floats are `float.__repr__`, or null where not finite, and flags
        are true and false: strict JSON. A table with no rows writes
        nothing.
        """
        _write_rows(out, self, ROW_FIELDS, _JSON_TEXTS, nonfinite=b"null", drop_end=b",\n")


# The fixed texts of a CSV row and of a JSON row (see `_write_rows`).
_CSV_TEXTS = [b"", *[b","] * (len(CSV_COLUMNS) - 1), b"\n"]
_JSON_KEYS = [b'      "%s": ' % name.encode() for name in ROW_FIELDS]
_JSON_TEXTS = [b"    {\n" + _JSON_KEYS[0], *(b",\n" + key for key in _JSON_KEYS[1:]), b"\n    },\n"]
# The words of a flag, NUL-padded to one width.
_FLAG_TEXTS = np.frombuffer(b"false" b"true\0", dtype=np.uint8).reshape(2, 5)

# Rows of text laid out and written at once. A block's row table holds
# this many rows, ~166 kB of CSV or ~497 kB of JSON on a 50 x 50 x 40
# sweep, and each piece's NUL-free copy, the bytes written, is ~144 kB or
# ~472 kB. On that sweep (`ru_minflt` and medians of five in-process CLI
# runs, each size in three fresh interpreters, on a 2-core Linux VM),
# pieces of 1024 rows faulted ~39% more pages per CSV run than pieces of
# 512 (5.5k against 4.0k) and ~12% more per JSON run, and wrote no
# faster; pieces of 256 faulted ~5% more per CSV run and ~40% fewer per
# JSON run (4.2k against 6.9k), at the same speed within the runs'
# spread. A table's iterator builds its rows in pieces of the same size.
WRITE_ROWS = 512


def _write_rows(
    out: BinaryIO,
    table: SweepTable,
    names: Sequence[str],
    fixed: list[bytes],
    nonfinite: bytes | None = None,
    drop_end: bytes = b"",
) -> None:
    """Write the named columns of the table row by row between the fixed
    texts, fixed[0] before the first column and fixed[i + 1] after column
    i, with drop_end, a suffix of fixed[-1], cut from the end of the last
    row.

    A float is written as `repr`, or as nonfinite if given and the float
    is inf or NaN, and a flag as false or true. Values are told apart by
    their bits, so -0.0 is not 0.0. A column that holds one value is
    formatted once and folds into the fixed texts; the floats of the
    others are formatted in one `float_texts` call. `rowtext.row_table`
    lays the fixed texts out once, in a bytearray of WRITE_ROWS rows held
    for the block, and each piece of rows copies only its column texts
    into the table's slots: a column with one value per row as a slice,
    any other gathered by the row positions of its values, one array per
    stored shape, into a contiguous array of its text width and then into
    its slot. A float text is 24 bytes wide, so NULs are dense (~15% of a
    CSV row's bytes, ~6% of a JSON row's), and `bytearray.translate`
    deletes them in one pass over the array (over its first rows for a
    shorter last piece), making the one copy of the bytes that is written
    to out, a binary stream.
    """
    from .rowtext import float_texts, items, row_table  # only the writers load the formatter

    n = len(table)
    if not n:
        return
    parts, positions = [], {}
    for name in names:
        values = np.asarray(table.columns[name])
        bits = values.reshape(-1).view(f"u{values.itemsize}")
        if (bits == bits[0]).all():
            parts.append((bits[:1], None))
        elif len(bits) == n:
            parts.append((bits, None))
        else:
            if values.shape not in positions:
                positions[values.shape] = _positions(values.shape, table.shape)
            parts.append((bits, positions[values.shape]))
    floats = np.concatenate([bits for bits, _ in parts if bits.dtype == np.uint64])
    floats = floats.view(np.float64)
    texts = float_texts(floats)
    if nonfinite is not None:
        texts.view("S24")[~np.isfinite(floats)] = nonfinite

    layout, columns, lo = [fixed[0]], [], 0  # the row's pieces; each column's items and positions
    for (bits, index), after in zip(parts, fixed[1:]):
        if bits.dtype == np.uint64:
            words = texts[lo : lo + len(bits)]
            lo += len(bits)
        else:
            words = _FLAG_TEXTS[bits]
        if len(bits) == 1:
            layout[-1] += words[0].tobytes().rstrip(b"\0") + after
            continue
        # `take` below does not check the positions, so they are checked here
        if index is not None and not 0 <= index.min() <= index.max() < len(bits):
            raise IndexError(f"row positions out of range for {len(bits)} values")
        layout += [words.shape[1], after]
        columns.append((items(words), index))
    buffer, rows, slots = row_table(layout, min(n, WRITE_ROWS))
    # `take` into a strided slot copies the slot to a temporary and back,
    # so a gathered column goes through one contiguous array per width
    gathered = {words.dtype: np.empty(len(rows), words.dtype) for words, index in columns
                if index is not None}
    for lo in range(0, n, WRITE_ROWS):
        m = min(n - lo, WRITE_ROWS)
        for slot, (words, index) in zip(slots, columns):
            if index is None:
                slot[:m] = words[lo : lo + m]
            else:
                gather = gathered[words.dtype][:m]
                np.take(words, index[lo : lo + m], out=gather, mode="clip")
                slot[:m] = gather
        data = (buffer if m == len(rows) else buffer[: m * rows.shape[1]]).translate(None, b"\0")
        if lo + m == n:
            del data[len(data) - len(drop_end) :]
        out.write(data)


def _positions(shape: tuple[int, ...], box: tuple[int, ...]) -> np.ndarray:
    """For each row of a box, in C order, the position of its value among
    values stored at the shape, which broadcasts to the box, laid out
    flat as int32."""
    size = math.prod(shape)
    return np.broadcast_to(np.arange(size, dtype=np.int32).reshape(shape), box).flatten()


def run_sweep(
    base: ParameterSet,
    grids: Sequence[GridSpec] = (),
    threshold: float = 1e-2,
    max_rows: int = MAX_ROWS,
) -> SweepTable:
    """Evaluate the Cartesian product of the grids over the base design:
    every block of `sweep_blocks` in one table."""
    return SweepTable.concat(sweep_blocks(base, grids, threshold, max_rows))


def sweep_blocks(
    base: ParameterSet,
    grids: Sequence[GridSpec] = (),
    threshold: float = 1e-2,
    max_rows: int = MAX_ROWS,
) -> Iterator[SweepTable]:
    """The rows of the sweep as blocks of at most CSV_CHUNK_ROWS rows, so
    memory does not grow with the row count.

    Row order is lexicographic in the grid indices with the first grid
    varying slowest. No grids means a single row at the base point. Each
    block is a box of the grid (see `_boxes`), and its columns are
    computed by `_kernel` on the shapes of the axes they depend on.

    At the first row the kernel rejects, `_evaluate_reference` raises
    exactly what a row-by-row loop of `evaluate` would, once the blocks
    before its own have been yielded. Each block's `stages` hold the
    seconds its kernel took (`kernel_s`).
    """
    _check_threshold(threshold)
    if len(grids) > 3:
        raise ParameterError(f"at most 3 simultaneous grids, got {len(grids)}")
    names = [g.parameter for g in grids]
    if len(set(names)) != len(names):
        raise ParameterError(f"duplicate sweep parameter in {names}")
    if max_rows < 1:
        raise ParameterError(f"max_rows must be >= 1, got {max_rows}")
    shape = tuple(g.points for g in grids)
    total = math.prod(shape)
    if total > max_rows:
        raise ParameterError(f"sweep would emit {total} rows, cap is {max_rows}")
    # an axis is built whole, so it is capped even when max_rows is raised
    if max(shape, default=0) > MAX_ROWS:
        raise ParameterError(f"a grid has {max(shape)} points, cap is {MAX_ROWS} per axis")
    axes = [np.array(g.values()) for g in grids]

    constants = {
        name: np.float64(value)
        for name, value in dataclasses.asdict(base).items()
        if value is not None and name not in names
    }
    lo = 0
    for box in _boxes(axes):
        start = time.perf_counter()
        columns, ok = _kernel({**constants, **dict(zip(names, box))}, threshold)
        if not ok.all():
            # Python floats, as the composed path divides np.float64 by zero
            # without raising
            at = np.unravel_index(lo + int(np.argmin(ok)), shape)
            swept = {name: axis[j].item() for name, axis, j in zip(names, axes, at)}
            _evaluate_reference(dataclasses.replace(base, **swept), threshold)
            raise AssertionError(f"sweep row {swept} evaluates, but the kernel rejected it")
        block = SweepTable(columns, ok.shape, {"kernel_s": time.perf_counter() - start})
        lo += len(block)
        yield block


def _boxes(axes: list[np.ndarray]) -> Iterator[list[np.ndarray]]:
    """The grid of the axes in C order, as boxes of at most CSV_CHUNK_ROWS
    rows: the values of each axis in a box, shaped to broadcast against
    the others. A box fixes the leading axes, each to one value, takes a
    range of the split axis, the first whose trailing axes fit in a block,
    and takes every trailing axis whole. No axes make one box of one row.
    """
    if not axes:
        yield []
        return
    shape = [len(axis) for axis in axes]
    split = next(a for a in range(len(axes)) if math.prod(shape[a + 1 :]) <= CSV_CHUNK_ROWS)
    step = CSV_CHUNK_ROWS // math.prod(shape[split + 1 :])
    # axis j varies along dimension j - split of a box
    shaped = [axis.reshape(-1, *[1] * (len(axes) - 1 - j)) for j, axis in enumerate(axes)]
    for lead in np.ndindex(*shape[:split]):
        fixed = [axis[i] for axis, i in zip(axes, lead)]
        for start in range(0, shape[split], step):
            yield [*fixed, shaped[split][start : start + step], *shaped[split + 1 :]]


def _kernel(
    p: dict[str, np.ndarray], threshold: float
) -> tuple[dict[str, np.ndarray], np.ndarray]:
    """SweepRow columns for the ParameterSet values p, and the mask of
    the rows on which the composed path returns.

    The values in p broadcast against each other: a constant is 0-d and
    each swept axis lies along its own dimension, so every column comes
    out at the shape of the axes it depends on, and the mask at the shape
    of them all.

    Each expression repeats the one in `derive`, `operating_arm_length`
    and `sensitivity_report` term for term: + - * / and sqrt are correctly
    rounded, `round` is `np.rint`, and squares are `np.float_power(x, 2.0)`,
    which calls the C library's `pow` as Python's float `**` does (`x * x`
    rounds differently for about one input in a thousand), and gives inf
    where `**` raises, as `analytic._square` does; its branches, a dark
    input's resolutions and `_ratio`, are `np.where`. So a row on which the
    composed path returns is bit for bit its row, inf and NaN included.
    The mask rejects exactly the rows on which that path raises: an input
    out of its spec, an arm that is not positive and finite or that the
    signal makes non-positive, a zero divisor (hbar omega or area tau in
    `derive`, eta k^2 N for N > 0) and a `round` of inf or NaN. The values
    of rejected rows are left as they fall.
    """
    wl, tau, area, power = p["wavelength"], p["tau"], p["area"], p["power"]
    n0, n2, eta, sigma, nt = p["n0"], p["n2"], p["eta"], p["sigma"], p["nt"]
    signal = p["signal_x"]
    with np.errstate(all="ignore"):
        omega = 2.0 * math.pi * C_LIGHT / wl
        hbar_omega = HBAR * omega
        n = power * tau / hbar_omega
        chi = (n2 / n0) * HBAR * omega / (area * tau)
        k = n0 * omega / C_LIGHT
        if "arm_length" in p:
            arm = p["arm_length"]
        else:
            arm = np.where(chi > 0.0, 2.0 * math.pi / (k * chi), 1.0)

        # a dark input has infinite resolutions and an improvement of 1
        dark = n <= 0.0
        ekkn = eta * k * k * n
        noise = 1.0 + eta * n * sigma * sigma + nt
        gain = 1.0 + 0.5 * chi * n
        delta_x = np.where(dark, math.inf, np.sqrt(noise / ekkn) / gain)
        delta_x_linear = np.where(dark, math.inf, np.sqrt((1.0 + nt) / ekkn))
        improvement = np.where(dark, 1.0, np.sqrt(noise / (1.0 + nt)) / gain)

        z0 = k * arm * chi / 2.0
        turns = z0 / math.pi
        detuning = z0 - np.rint(turns) * math.pi
        sigma_sq = np.float_power(sigma, 2.0)
        gain_sq = np.float_power(chi * n, 2.0)
        nl_noise = eta * n * sigma_sq + nt
        margins = (
            chi * n * k * np.abs(signal),
            np.where(nt == 0.0, 0.0, np.where(n == 0.0, math.inf, nt / n)),
            sigma,
            np.abs(detuning) / math.pi,
            np.where(nl_noise == 0.0, 0.0, np.where(gain_sq == 0.0, math.inf, nl_noise / gain_sq)),
        )

        ok = (
            (wl > 0.0) & (tau > 0.0) & (area > 0.0) & (power >= 0.0)
            & (n0 > 0.0) & (n2 >= 0.0) & (eta > 0.0) & (eta <= 1.0)
            & (sigma >= 0.0) & (nt >= 0.0)
            & (arm > 0.0) & (arm - 0.5 * signal > 0.0) & (arm + 0.5 * signal > 0.0)
            & (hbar_omega != 0.0) & (area * tau != 0.0)
            & (dark | (ekkn != 0.0))
        )
        for col in (*p.values(), arm, turns):
            ok = ok & np.isfinite(col)

    columns = (
        tau, area, power, n2, wl, eta, sigma, nt, arm, signal,
        n, chi, k, delta_x, delta_x_linear, improvement,
        *margins, *(m < threshold for m in margins),
    )
    return dict(zip(ROW_FIELDS, columns)), ok


# Beyond this the required interferometer stops being buildable on Earth.
PRACTICAL_ARM_LIMIT = 1e6  # m


def regime_report(name: str) -> dict:
    """The `regimes` entry of a built-in regime at its first operating
    point, as a fresh dict: its inputs, derived values and report.

    x_min_m..x_max_m is the detectable-signal window (resolution up to the
    small-signal bound 1/(chi N k)); sigma_max and nt_max are the
    dephasing and thermal levels at which the added noise would reach the
    square of the nonlinear gain, eroding its advantage.
    """
    params = get_preset(name)
    (row,) = next(sweep_blocks(params))
    arm, n, chi, k = row.arm_length_m, row.n_photons, row.chi, row.k_per_m
    gain = chi * n

    notes: list[str] = []
    if arm > PRACTICAL_ARM_LIMIT:
        notes.append(
            f"operating arm length {arm:.3g} m is impractical; driving the "
            "fixed-length Kerr phase to zero (m = 0) with a compensating "
            "medium of opposite sign would be needed instead"
        )
    return {
        "name": name,
        "inputs": {
            GRID_COLUMNS.get(field, field): value
            for field, value in dataclasses.asdict(params).items()
            if field not in ("arm_length", "signal_x")
        },
        "derived": {"n_photons": n, "chi": chi, "k": k},
        "report": {
            "arm_length_m": arm,
            "x_min_m": row.delta_x_m,
            "x_max_m": 1.0 / (gain * k) if gain > 0.0 else math.inf,
            "sigma_max": chi * math.sqrt(n / row.eta),
            "nt_max": gain * gain,
            "delta_x_m": row.delta_x_m,
            "delta_x_linear_m": row.delta_x_linear_m,
            "improvement": row.improvement,
            "notes": notes,
        },
    }
