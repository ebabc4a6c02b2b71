"""Deterministic grid sweeps over the design space.

A sweep is the Cartesian product of up to three one-parameter grids laid
over a fully-specified base design. Rows come out in lexicographic order
of the grid indices (first grid slowest), each row is a pure function of
its own inputs, and grid endpoints are echoed exactly as given, so a sweep
is reproducible byte for byte.

`sweep_blocks` computes a grid as NumPy columns (`_kernel`), one block
of CSV_CHUNK_ROWS rows at a time so that memory does not grow with the
row count, and `evaluate` one design point as plain floats, both with
the operations of `derive` and `sensitivity_report` in the same order.
Each computes only the points it can vouch for: those that pass every
spec check with finite inputs, derived values and resolutions, where the
composed path cannot raise; a validity margin may come out inf or NaN,
as it does there. Every other point goes through `_evaluate_reference`,
which composes `derive` and `sensitivity_report` themselves and raises
what they raise, with an arithmetic failure reported as a
`ParameterError`. So every row is bit for bit the row of the composed
path, which the tests use as the reference.

`SweepTable.write_csv_rows` and `write_json_rows` share one byte writer,
`_write_rows`, which formats each distinct value of a block once, the
floats with `floattext.float_texts`: shortest round-trip digits computed
in NumPy, byte for byte `repr`.
"""

from __future__ import annotations

import dataclasses
import math
import time
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass
from typing import TextIO

import numpy as np

from .analytic import ValidityFlags, sensitivity_report
from .core import (
    C_LIGHT,
    HBAR,
    GeometrySpec,
    MediumSpec,
    NoiseSpec,
    ParameterError,
    PulseSpec,
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

# Column order is a compatibility contract with the CLI CSV output.
CSV_COLUMNS = (
    "tau_s",
    "area_m2",
    "power_w",
    "n2_m2_per_w",
    "wavelength_m",
    "eta",
    "sigma",
    "nt",
    "n_photons",
    "chi",
    "k_per_m",
    "delta_x_m",
    "delta_x_linear_m",
    "improvement",
    "margin_small_signal",
    "margin_thermal",
    "margin_dephasing",
    "margin_operating_point",
    "margin_nl_dominant",
)
CSV_HEADER = ",".join(CSV_COLUMNS) + "\n"

# Rows per block: a sweep is evaluated, formatted and written this many
# rows at a time. Blocks of 4096 rows were as fast as larger ones and keep
# a block's columns and texts to a few MB.
CSV_CHUNK_ROWS = 4096


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


@dataclass(frozen=True)
class ParameterSet:
    """A complete design, flat and in SI units.

    arm_length None means "the shortest arm length on the operating point
    for m = 1", falling back to 1 m when the medium is linear and the
    operating condition holds for any length.
    """

    wavelength: float
    tau: float
    area: float
    power: float
    n2: float
    n0: float = 1.0
    eta: float = 1.0
    sigma: float = 0.0
    nt: float = 0.0
    arm_length: float | None = None
    signal_x: float = 0.0

    @classmethod
    def from_preset(cls, name: str) -> "ParameterSet":
        p = get_preset(name)
        return cls(
            wavelength=p.pulse.wavelength,
            tau=p.pulse.duration,
            area=p.pulse.cross_section,
            power=p.pulse.power,
            n2=p.medium.kerr_coefficient,
            n0=p.medium.linear_index,
            eta=p.noise.efficiency,
            sigma=p.noise.phase_sigma,
            nt=p.noise.thermal_photons,
        )


@dataclass(frozen=True)
class SweepRow:
    """All inputs of one design point plus everything derived from them."""

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


def evaluate(params: ParameterSet, threshold: float = 1e-2) -> SweepRow:
    """One design point through the closed-form engine.

    The scalar twin of `_kernel`: straight-line float arithmetic that
    repeats `derive`, `operating_arm_length` and `sensitivity_report` term
    for term, so a clean point (the rule of `_kernel`) is bit for bit what
    `_evaluate_reference` returns. Any other point, and any point on which
    this arithmetic raises, such as a square past the largest double, goes
    to `_evaluate_reference`, which raises exactly what the composed path
    raises.
    """
    _check_threshold(threshold)
    p = params
    wl, tau, area, power = p.wavelength, p.tau, p.area, p.power
    n0, n2, eta, sigma, nt = p.n0, p.n2, p.eta, p.sigma, p.nt
    arm, signal = p.arm_length, p.signal_x
    isfinite = math.isfinite
    try:
        omega = 2.0 * math.pi * C_LIGHT / wl
        n = power * tau / (HBAR * omega)
        chi = (n2 / n0) * HBAR * omega / (area * tau)
        k = n0 * omega / C_LIGHT
        if arm is None:
            arm = 2.0 * math.pi / (k * chi) if chi > 0.0 else 1.0

        # zero for a dark input (n = 0): its resolution is infinite, which
        # is not clean, so dividing by it raises and goes to the reference
        ekkn = eta * k * k * n
        noise = 1.0 + eta * n * sigma * sigma + nt
        gain = 1.0 + 0.5 * chi * n
        delta_x = math.sqrt(noise / ekkn) / gain
        delta_x_linear = math.sqrt((1.0 + nt) / ekkn)
        improvement = math.sqrt(noise / (1.0 + nt)) / gain

        z0 = k * arm * chi / 2.0
        detuning = z0 - round(z0 / math.pi) * math.pi
        gain_sq = (chi * n) ** 2
        nl_noise = eta * n * sigma**2 + nt
        # the quotients of `analytic._ratio`; n is not zero here, or ekkn
        # would have raised
        margin_small_signal = chi * n * k * abs(signal)
        margin_thermal = 0.0 if nt == 0.0 else nt / n
        margin_operating_point = abs(detuning) / math.pi
        margin_nl_dominant = 0.0 if nl_noise == 0.0 else nl_noise / gain_sq if gain_sq else math.inf

        clean = (
            wl > 0.0 and tau > 0.0 and area > 0.0 and power >= 0.0
            and n0 > 0.0 and n2 >= 0.0 and 0.0 < eta <= 1.0
            and sigma >= 0.0 and nt >= 0.0
            and arm > 0.0 and arm - 0.5 * signal > 0.0 and arm + 0.5 * signal > 0.0
            and isfinite(wl) and isfinite(tau) and isfinite(area) and isfinite(power)
            and isfinite(n0) and isfinite(n2) and isfinite(eta) and isfinite(sigma)
            and isfinite(nt) and isfinite(arm) and isfinite(signal)
            and isfinite(omega) and isfinite(n) and isfinite(chi) and isfinite(k)
            and isfinite(delta_x) and isfinite(delta_x_linear) and isfinite(improvement)
        )
    except (ArithmeticError, ValueError, TypeError):
        clean = False
    if not clean:
        return _evaluate_reference(params, threshold)
    return _make_row((
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
    `sensitivity_report`: the fallback for points the straight-line path
    does not vouch for, and the reference it is tested against.

    A failure of the arithmetic itself, such as a product that underflows
    to a zero divisor or `round(nan)`, is raised as a `ParameterError`.
    """
    _check_threshold(threshold)
    p = params
    try:
        derived = derive(PulseSpec(p.wavelength, p.tau, p.area, p.power), MediumSpec(p.n0, p.n2))
        arm = p.arm_length
        if arm is None:
            arm = operating_arm_length(derived) if derived.chi > 0.0 else 1.0
        geometry = GeometrySpec(arm_length=arm, signal=p.signal_x)
        report = sensitivity_report(derived, geometry, NoiseSpec(p.eta, p.sigma, p.nt), threshold)
    except ParameterError:
        raise
    except (ArithmeticError, ValueError) as exc:
        raise ParameterError(f"design cannot be evaluated: {type(exc).__name__}: {exc}") from exc
    checks = [getattr(report.validity, name) for name in FLAG_FIELDS]
    return _make_row((
        p.tau, p.area, p.power, p.n2, p.wavelength, p.eta, p.sigma, p.nt, arm, p.signal_x,
        derived.photons, derived.chi, derived.wavenumber,
        report.delta_x, report.delta_x_linear, report.improvement,
        *(c.margin for c in checks), *(c.ok for c in checks),
    ))


ROW_FIELDS = tuple(f.name for f in dataclasses.fields(SweepRow))
MARGIN_FIELDS = tuple(name for name in ROW_FIELDS if name.startswith("margin_"))
FLAG_FIELDS = tuple(f.name for f in dataclasses.fields(ValidityFlags))


def _check_threshold(threshold: float) -> None:
    if not 0.0 < threshold < math.inf:
        raise ParameterError(f"threshold must be finite and > 0, got {threshold!r}")


def _make_row(values: Iterable) -> SweepRow:
    """A SweepRow of the field values in ROW_FIELDS order. Filling the
    instance dict directly skips the frozen `__init__`, which sets every
    field through `object.__setattr__`; the row is the same frozen value."""
    row = object.__new__(SweepRow)
    row.__dict__.update(zip(ROW_FIELDS, values))
    return row


class SweepTable(Sequence[SweepRow]):
    """The rows of a sweep, stored as one NumPy column per SweepRow field.

    A SweepRow is built only when a row is indexed; `write_csv_rows`,
    `write_json_rows` and `validity_failures` read the columns directly.
    """

    def __init__(self, columns: dict[str, np.ndarray]) -> None:
        self.columns = columns

    @classmethod
    def from_rows(cls, rows: Iterable[SweepRow]) -> "SweepTable":
        rows = list(rows)
        return cls({
            name: np.array(
                [getattr(r, name) for r in rows],
                dtype=bool if name in FLAG_FIELDS else np.float64,
            )
            for name in ROW_FIELDS
        })

    @classmethod
    def concat(cls, tables: Iterable["SweepTable"]) -> "SweepTable":
        """The rows of the tables, one after another."""
        tables = list(tables)
        return cls({
            name: np.concatenate([t.columns[name] for t in tables]) for name in ROW_FIELDS
        })

    def __len__(self) -> int:
        return len(self.columns["tau_s"])

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(len(self)))]
        i = range(len(self))[index]
        return _make_row([self.columns[name][i].item() for name in ROW_FIELDS])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, (SweepTable, list)):
            return NotImplemented
        return list(self) == list(other)

    def validity_failures(self) -> dict[str, int]:
        """Number of rows failing each of the five validity conditions."""
        return {name: len(self) - int(self.columns[name].sum()) for name in FLAG_FIELDS}

    def write_csv_rows(self, out: TextIO) -> None:
        """One CSV line per row, each value as `repr` of its float."""
        afters = [","] * (len(CSV_COLUMNS) - 1) + ["\n"]
        columns = [self.columns[name] for name in CSV_COLUMNS]
        _write_rows(out, columns, [""] * len(afters), afters)

    def write_json_rows(self, out: TextIO) -> None:
        """The rows as `json.dumps(..., indent=2)` lays out the items of a
        list held by a top-level key, such as the "rows" of a sweep: one
        object per row, joined by ",\n", with no newline at either end.

        Floats are `float.__repr__`, or null where not finite, and flags
        are true and false: strict JSON. A table with no rows writes
        nothing.
        """
        befores = [f'      "{name}": ' for name in ROW_FIELDS]
        befores[0] = "    {\n" + befores[0]
        afters = [",\n"] * (len(ROW_FIELDS) - 1) + ["\n    },\n"]
        columns = [self.columns[name] for name in ROW_FIELDS]
        _write_rows(out, columns, befores, afters, nonfinite="null", drop_end=",\n")


# The words of a flag, NUL-padded to one width.
_FLAG_TEXTS = np.frombuffer(b"false" b"true\0", dtype=np.uint8).reshape(2, 5)

# Rows of text gathered and written at once, a quarter of a block, so a
# piece's buffers stay near 1 MB even for JSON rows. Writing whole blocks
# at once made glibc's malloc hand a few MB of heap back to the system
# after each block and fault it in again for the next (measured with an
# earlier str-joining writer on a 2-core Linux VM: 16k page faults per 1e5
# CSV rows against 3k in pieces of 1024, and ~5% of the run time).
WRITE_ROWS = 1024


def _write_rows(
    out: TextIO,
    columns: list[np.ndarray],
    befores: list[str],
    afters: list[str],
    nonfinite: str | None = None,
    drop_end: str = "",
) -> None:
    """Write before + text + after for every value of equal-length
    columns, row by row, with drop_end cut from the end of the last row.

    A float is written as `repr`, or as nonfinite if given and the float
    is inf or NaN, and a flag as false or true. Values are told apart by
    their bits, so -0.0 is not 0.0. A column of one value is formatted
    once and joins the fixed text between the other columns. Each other
    column becomes a table with one byte row per distinct value: the
    fixed text before it, the text NUL-padded to one width, then its
    after. The distinct floats of all columns are formatted in one
    `float_texts` call. WRITE_ROWS rows at a time are gathered from the
    tables into one buffer, which is written with its NULs deleted.
    """
    from .floattext import float_texts  # only the writers load the formatter

    n = len(columns[0])
    if not n:
        return
    distinct = []
    for col in columns:
        bits = col.view(f"u{col.itemsize}")
        if (bits == bits[0]).all():
            distinct.append((bits[:1], None))
        else:
            distinct.append(np.unique(bits, return_inverse=True))
    floats = np.concatenate([bits for bits, _ in distinct if bits.dtype == np.uint64])
    floats = floats.view(np.float64)
    texts = float_texts(floats)
    if nonfinite is not None:
        texts.view("S24")[~np.isfinite(floats)] = nonfinite

    tables, inverses, fixed, lo = [], [], b"", 0
    for (bits, inverse), before, after in zip(distinct, befores, afters):
        if bits.dtype == np.uint64:
            words = texts[lo : lo + len(bits)]
            lo += len(bits)
        else:
            words = _FLAG_TEXTS[bits]
        head, tail = fixed + before.encode(), after.encode()
        if inverse is None:
            fixed = head + words[0].tobytes().rstrip(b"\0") + tail
            continue
        start, end = len(head), len(head) + words.shape[1]
        table = np.empty((len(words), end + len(tail)), dtype=np.uint8)
        table[:, :start] = np.frombuffer(head, dtype=np.uint8)
        table[:, start:end] = words
        table[:, end:] = np.frombuffer(tail, dtype=np.uint8)
        tables.append(table.view(f"V{table.shape[1]}")[:, 0])
        inverses.append(inverse)
        fixed = b""

    width = sum(table.itemsize for table in tables) + len(fixed)
    buffer = np.empty((min(n, WRITE_ROWS), width), dtype=np.uint8)
    buffer[:, width - len(fixed) :] = np.frombuffer(fixed, dtype=np.uint8)
    slots, start = [], 0
    for table in tables:
        slots.append(buffer[:, start : start + table.itemsize].view(table.dtype)[:, 0])
        start += table.itemsize
    for lo in range(0, n, WRITE_ROWS):
        piece = buffer[: n - lo]
        for table, inverse, slot in zip(tables, inverses, slots):
            # mode="clip" writes straight into out, where "raise" would
            # buffer; every inverse index is in range
            np.take(table, inverse[lo : lo + len(piece)], out=slot[: len(piece)], mode="clip")
        text = piece.tobytes().translate(None, b"\0").decode("ascii")
        out.write(text if lo + len(piece) < n else text.removesuffix(drop_end))


class SweepStats:
    """Sums over the blocks of one pass of `sweep_blocks`: rows, rows
    failing each validity condition, rows recomputed by the fallback, and
    seconds spent in the column kernel and in the fallback."""

    def __init__(self) -> None:
        self.rows = 0
        self.validity_failures = dict.fromkeys(FLAG_FIELDS, 0)
        self.fallback_rows = 0
        self.kernel_s = 0.0
        self.fallback_s = 0.0

    def add(self, block: SweepTable, fallback_rows: int, kernel_s: float, fallback_s: float) -> None:
        self.rows += len(block)
        for name, count in block.validity_failures().items():
            self.validity_failures[name] += count
        self.fallback_rows += fallback_rows
        self.kernel_s += kernel_s
        self.fallback_s += fallback_s


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
    stats: SweepStats | None = None,
) -> Iterator[SweepTable]:
    """The rows of the sweep, CSV_CHUNK_ROWS at a time (the last block may
    be shorter), so memory does not grow with the row count.

    Row order is lexicographic in the grid indices with the first grid
    varying slowest. No grids means a single row at the base point.

    Rows the column kernel cannot vouch for (see `_kernel`) are recomputed
    by `_evaluate_reference` in row order, so the first one that raises
    raises exactly what a row-by-row loop of `evaluate` would, once the
    blocks before its own have been yielded. Each block is added to
    stats, when given, before it is yielded.
    """
    _check_threshold(threshold)
    if len(grids) > 3:
        raise ParameterError(f"at most 3 simultaneous grids, got {len(grids)}")
    names = [g.parameter for g in grids]
    if len(set(names)) != len(names):
        raise ParameterError(f"duplicate sweep parameter in {names}")
    shape = tuple(g.points for g in grids)
    total = math.prod(shape)
    if total > max_rows:
        raise ParameterError(f"sweep would emit {total} rows, cap is {max_rows}")
    # an axis is built whole, so it is capped even when max_rows is raised
    if max(shape, default=0) > MAX_ROWS:
        raise ParameterError(f"a grid has {max(shape)} points, cap is {MAX_ROWS} per axis")
    axes = [np.array(g.values()) for g in grids]

    fields = dataclasses.asdict(base)
    for lo in range(0, total, CSV_CHUNK_ROWS):
        hi = min(lo + CSV_CHUNK_ROWS, total)
        index = np.unravel_index(np.arange(lo, hi), shape) if shape else ()
        swept = {name: axis[i] for name, axis, i in zip(names, axes, index)}
        inputs = {
            name: swept[name] if name in swept else np.full(hi - lo, value, dtype=np.float64)
            for name, value in fields.items()
            if value is not None or name in swept
        }
        start = time.perf_counter()
        columns, clean = _kernel(inputs, threshold)
        kernel_end = time.perf_counter()
        unclean = np.flatnonzero(~clean).tolist()
        for i in unclean:
            point = dataclasses.replace(base, **{name: float(swept[name][i]) for name in names})
            row = _evaluate_reference(point, threshold)
            for name, col in columns.items():
                col[i] = getattr(row, name)
        block = SweepTable(columns)
        if stats is not None:
            stats.add(block, len(unclean), kernel_end - start, time.perf_counter() - kernel_end)
        yield block


def _kernel(
    p: dict[str, np.ndarray], threshold: float
) -> tuple[dict[str, np.ndarray], np.ndarray]:
    """SweepRow columns for the ParameterSet columns p, and the mask of
    clean rows.

    Each expression repeats the one in `derive`, `operating_arm_length`
    and `sensitivity_report` term for term: + - * / and sqrt are correctly
    rounded, `round` is `np.rint`, and squares are `np.float_power(x, 2.0)`,
    which calls the C library's `pow` as Python's float `**` does (`x * x`
    rounds differently for about one input in a thousand), and gives inf
    where `**` raises, as `analytic._square` does. So a clean row is bit
    for bit what `_evaluate_reference` returns. A row is clean when its
    inputs pass every spec check and its inputs, derived values, resolutions
    and `round` argument are finite; a zero divisor shows up as an infinite
    resolution. These are the values on which the composed path can raise
    or branch. The margins are left out: there they come from the same
    finite values by `*`, `abs`, `/ pi`, `_square` and `_ratio`, none of
    which raises, so an inf or NaN margin is the composed path's own value.
    Only clean rows are vouched for; the values of the others are left as
    they fall. `evaluate` applies the same rule to one point.
    """
    wl, tau, area, power = p["wavelength"], p["tau"], p["area"], p["power"]
    n0, n2, eta, sigma, nt = p["n0"], p["n2"], p["eta"], p["sigma"], p["nt"]
    signal = p["signal_x"]
    with np.errstate(all="ignore"):
        omega = 2.0 * math.pi * C_LIGHT / wl
        n = power * tau / (HBAR * omega)
        chi = (n2 / n0) * HBAR * omega / (area * tau)
        k = n0 * omega / C_LIGHT
        if "arm_length" in p:
            arm = p["arm_length"]
        else:
            arm = np.where(chi > 0.0, 2.0 * math.pi / (k * chi), 1.0)

        ekkn = eta * k * k * n
        noise = 1.0 + eta * n * sigma * sigma + nt
        gain = 1.0 + 0.5 * chi * n
        delta_x = np.sqrt(noise / ekkn) / gain
        delta_x_linear = np.sqrt((1.0 + nt) / ekkn)
        improvement = np.sqrt(noise / (1.0 + nt)) / gain

        z0 = k * arm * chi / 2.0
        turns = z0 / math.pi
        detuning = z0 - np.rint(turns) * math.pi
        sigma_sq = np.float_power(sigma, 2.0)
        gain_sq = np.float_power(chi * n, 2.0)
        nl_noise = eta * n * sigma_sq + nt
        margins = (
            chi * n * k * np.abs(signal),
            np.where(nt == 0.0, 0.0, nt / n),
            sigma.copy(),
            np.abs(detuning) / math.pi,
            np.where(nl_noise == 0.0, 0.0, np.where(gain_sq == 0.0, math.inf, nl_noise / gain_sq)),
        )

        clean = (
            (wl > 0.0) & (tau > 0.0) & (area > 0.0) & (power >= 0.0)
            & (n0 > 0.0) & (n2 >= 0.0) & (eta > 0.0) & (eta <= 1.0)
            & (sigma >= 0.0) & (nt >= 0.0)
            & (arm > 0.0) & (arm - 0.5 * signal > 0.0) & (arm + 0.5 * signal > 0.0)
        )
        for col in (*p.values(), arm, omega, n, chi, k, turns,
                    delta_x, delta_x_linear, improvement):
            clean &= np.isfinite(col)

    columns = (
        tau, area, power, n2, wl, eta, sigma, nt, arm, signal,
        n, chi, k, delta_x, delta_x_linear, improvement,
        *margins, *(m < threshold for m in margins),
    )
    return dict(zip(ROW_FIELDS, columns)), clean


@dataclass(frozen=True)
class RegimeReport:
    """Operating-point solution and working window for a named regime.

    row.delta_x_m..x_max_m is the detectable-signal window (resolution up
    to the small-signal bound 1/(chi N k)); sigma_max and nt_max are the
    dephasing and thermal levels at which the added noise would reach the
    square of the nonlinear gain, eroding its advantage.
    """

    name: str
    row: SweepRow
    x_max_m: float
    sigma_max: float
    nt_max: float
    notes: tuple[str, ...]


# Beyond this the required interferometer stops being buildable on Earth.
PRACTICAL_ARM_LIMIT = 1e6  # m


def regime_report(name: str) -> RegimeReport:
    """Evaluate a built-in regime at its first operating point."""
    row = evaluate(ParameterSet.from_preset(name))
    arm, n, chi, k = row.arm_length_m, row.n_photons, row.chi, row.k_per_m
    gain = chi * n
    x_max = 1.0 / (gain * k) if gain > 0.0 else math.inf
    sigma_max = chi * math.sqrt(n / row.eta)
    nt_max = gain * gain

    notes: list[str] = []
    if arm > PRACTICAL_ARM_LIMIT:
        notes.append(
            f"operating arm length {arm:.3g} m is impractical; driving the "
            "fixed-length Kerr phase to zero (m = 0) with a compensating "
            "medium of opposite sign would be needed instead"
        )
    return RegimeReport(
        name=name,
        row=row,
        x_max_m=x_max,
        sigma_max=sigma_max,
        nt_max=nt_max,
        notes=tuple(notes),
    )
