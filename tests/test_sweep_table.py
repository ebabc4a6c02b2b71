"""The column engine of `run_sweep` against `evaluate` as the reference.

`evaluate` computes one point at a time through `derive` and
`sensitivity_report`; every row of `run_sweep` must equal it bit for bit
(NaN matching NaN), and where `evaluate` raises on some grid point,
`run_sweep` must raise the same exception with the same message.
"""

import collections
import dataclasses
import io
import itertools
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

import kerrmich.rowtext
import kerrmich.sweep
from kerrmich.core import get_preset
from kerrmich.sweep import (
    CSV_COLUMNS,
    FLAG_FIELDS,
    GRID_PARAMETERS,
    ROW_FIELDS,
    WRITE_ROWS,
    GridSpec,
    SweepRow,
    SweepTable,
    _evaluate_reference,
    evaluate,
    run_sweep,
    sweep_blocks,
)

GIANT_BASE = get_preset("giant-eit")
NATURAL_BASE = get_preset("natural")


def bits(row):
    """Type and repr of every field: repr tells every pair of floats apart
    by their bits, -0.0 from 0.0 included, and prints every NaN as nan."""
    return [(type(v), repr(v)) for v in tuple(row)]


def reference(base, grids, threshold):
    names = [g.parameter for g in grids]
    return [
        evaluate(dataclasses.replace(base, **dict(zip(names, combo))), threshold)
        for combo in itertools.product(*(g.values() for g in grids))
    ]


def table_of(rows):
    """A SweepTable of the rows, through its constructor: one 1-D column
    per field."""
    return SweepTable({
        name: np.array([getattr(row, name) for row in rows],
                       dtype=bool if name in FLAG_FIELDS else np.float64)
        for name in ROW_FIELDS
    })


def csv_of(rows):
    """The CSV lines of the rows, each value its `repr`."""
    return "".join(",".join(repr(getattr(row, c)) for c in CSV_COLUMNS) + "\n" for row in rows)


def assert_same_as_evaluate(base, grids, threshold=1e-2):
    try:
        want = reference(base, grids, threshold)
    except (ArithmeticError, ValueError) as exc:
        with pytest.raises(type(exc)) as info:
            run_sweep(base, grids, threshold)
        assert type(info.value) is type(exc)
        assert str(info.value) == str(exc)
        return
    got = run_sweep(base, grids, threshold)
    assert len(got) == len(want)
    for i, (g, w) in enumerate(zip(got, want)):
        assert bits(g) == bits(w), i


# Edge values of a base design; a grid's ends must be finite.
EDGES = [math.inf, -math.inf, math.nan, 0.0, -0.0, 5e-324, 1.7e308]


@st.composite
def number(draw, typical, edges=False):
    """Mostly typical * 10**[-2, 2]; else a zero of either sign, or any
    float of either sign with a decimal exponent up to +-300, or with
    edges one of the EDGES."""
    kind = draw(st.integers(0, 8 if edges else 7))
    if kind == 0:
        return draw(st.sampled_from([0.0, -0.0]))
    if kind == 8:
        return draw(st.sampled_from(EDGES))
    if kind == 1:
        sign = draw(st.sampled_from([1.0, -1.0]))
        return sign * draw(st.floats(1.0, 9.99)) * 10.0 ** draw(st.integers(-300, 300))
    return typical * 10.0 ** draw(st.floats(-2.0, 2.0))


TYPICAL = {
    "tau": 1e-11,
    "area": 1e-7,
    "power": 1e8,
    "n2": 1e-12,
    "wavelength": 5e-7,
    "eta": 0.3,
    "sigma": 1e-4,
    "nt": 1.0,
    "arm_length": 1e2,
    "signal_x": 1e-16,
}


@st.composite
def designs(draw):
    base = draw(st.sampled_from([GIANT_BASE, NATURAL_BASE]))
    changes = {}
    for name in draw(st.lists(st.sampled_from(GRID_PARAMETERS), unique=True)):
        changes[name] = draw(number(TYPICAL[name], edges=True))
    grids = []
    for name in draw(st.lists(st.sampled_from(GRID_PARAMETERS), max_size=3, unique=True)):
        lo, hi = sorted((draw(number(TYPICAL[name])), draw(number(TYPICAL[name]))))
        assume(lo < hi)
        spacing = draw(st.sampled_from(["linear", "log"])) if lo > 0.0 else "linear"
        grids.append(GridSpec(name, lo, hi, draw(st.integers(2, 3)), spacing))
    threshold = draw(st.sampled_from([1e-2, 1e-9, 0.5]))
    return dataclasses.replace(base, **changes), grids, threshold


@settings(max_examples=300, deadline=None)
@given(designs())
def test_run_sweep_equals_evaluate(design):
    assert_same_as_evaluate(*design)


@pytest.mark.parametrize(
    "base, sigma", [(GIANT_BASE, 1e-3), (NATURAL_BASE, 1e-8)], ids=["giant", "natural"]
)
@pytest.mark.parametrize("parameter", ["sigma", "power"])
def test_squares_round_like_python_power(base, sigma, parameter):
    # The dominance margin squares sigma and chi * N. Python's x ** 2
    # (libm pow) and x * x differ in the last bit for a few of these
    # points, and so would the margin of up to 5 rows per grid.
    base = dataclasses.replace(base, sigma=sigma)
    lo, hi = (1e-4, 1e-1) if parameter == "sigma" else (base.power / 100, base.power)
    assert_same_as_evaluate(base, [GridSpec(parameter, lo, hi, 3000, "log")])


@pytest.mark.parametrize(
    "changes, grid",
    [
        # dark input: infinite resolution, no exception
        (dict(), GridSpec("power", 0.0, 1e6, 3)),
        # linear medium: 1 m arm fallback, infinite dominance margin
        (dict(n2=0.0), GridSpec("sigma", 0.0, 0.1, 3)),
        # the first bad point raises what evaluate raises there
        (dict(), GridSpec("eta", 0.5, 1.5, 3)),
        (dict(), GridSpec("signal_x", -1e3, 1e3, 3)),
        # zero divisor: area * tau underflows to 0
        (dict(tau=1e-300), GridSpec("area", 1e-300, 1e-10, 3, "log")),
        # zero divisor: N > 0, but eta * k**2 * N underflows to 0
        (dict(eta=1e-200), GridSpec("power", 1e-200, 1e-199, 2, "log")),
        # overflowing squares: eta * N * sigma, then sigma, then chi * N
        (dict(), GridSpec("sigma", 1e100, 1e200, 3, "log")),
        (dict(power=1e-20), GridSpec("sigma", 1e150, 1e160, 3, "log")),
        (dict(), GridSpec("power", 1e150, 1e170, 3, "log")),
        # round(inf) and round(nan) on the operating point
        (dict(arm_length=1e300, n2=1e10), GridSpec("eta", 0.5, 1.0, 2)),
        (dict(arm_length=1e302, n2=0.0), GridSpec("eta", 0.5, 1.0, 2)),
        # NaN results, no exception
        (dict(n2=1e300), GridSpec("power", 1e300, 1e301, 2)),
        # a finite resolution, but eta * N underflows to 0 and sigma ** 2
        # overflows: the dominance margin is 0 * inf = NaN over a zero
        # square, which `analytic._ratio` makes inf
        (dict(wavelength=1e-7, n2=0.0, eta=1e-200, power=4e-132),
         GridSpec("sigma", 1e160, 1e170, 2, "log")),
        # a dark input of power -0.0: the resolutions take the dark branch,
        # and nt / -0.0 is -inf where `analytic._ratio` gives inf
        (dict(power=-0.0), GridSpec("nt", 0.0, 10.0, 3)),
    ],
)
def test_edge_rows_match_evaluate(changes, grid):
    assert_same_as_evaluate(dataclasses.replace(GIANT_BASE, **changes), [grid])


class TestSweepTable:
    GRIDS = [GridSpec("eta", 0.5, 1.0, 2), GridSpec("sigma", 0.0, 0.02, 3)]

    def test_iterating_builds_rows(self):
        table = run_sweep(GIANT_BASE, self.GRIDS)
        assert isinstance(table, SweepTable)
        assert [type(row) for row in table] == [SweepRow] * len(table)
        assert list(table) == reference(GIANT_BASE, self.GRIDS, 1e-2)
        # 20000 rows: three blocks, and forty pieces of WRITE_ROWS rows
        # for the iterator; the dark rows' thermal and dominance margins
        # are inf, as nt > 0
        base = dataclasses.replace(GIANT_BASE, nt=1.0)
        grids = [GridSpec("tau", 1e-11, 1e-9, 5, "log"), GridSpec("power", 0.0, 1e7, 4),
                 GridSpec("sigma", 0.0, 1e-3, 1000)]
        assert [len(b) for b in sweep_blocks(base, grids)] == [8000, 8000, 4000]
        table = run_sweep(base, grids)
        for name in ("margin_thermal", "margin_nl_dominant"):
            assert np.count_nonzero(table.column(name) == math.inf) == 5000, name
        assert_same_as_evaluate(base, grids)

    def test_iterating_holds_one_piece_of_rows(self):
        grids = [GridSpec("tau", 1e-11, 1e-9, 50, "log"), GridSpec("power", 0.0, 1e7, 50),
                 GridSpec("sigma", 0.0, 1e-3, 40)]
        table = run_sweep(GIANT_BASE, grids)
        assert len(table) == 100_000
        tracemalloc.start()
        try:
            collections.deque(table, maxlen=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # every row at once is ~70 MB of tuples and floats
        assert peak < 5e6, peak

    def test_validity_failures_count_false_flags(self):
        # the sigma grid of test_dominance_flag_flips_at_the_margin_crossing
        table = run_sweep(GIANT_BASE, [GridSpec("sigma", 0.0, 0.02, 41)])
        failures = table.validity_failures()
        assert failures == {
            name: sum(not getattr(row, name) for row in table)
            for name in ("small_signal", "weak_thermal", "weak_dephasing",
                         "on_operating_point", "nonlinearity_dominant")
        }
        # sigma >= 0.01 at points 20..40; the dominance margin fails from
        # just past sigma* ~ 0.0063 (see that test) on
        assert failures == {
            "small_signal": 0,
            "weak_thermal": 0,
            "weak_dephasing": 21,
            "on_operating_point": 0,
            "nonlinearity_dominant": 28,
        }

    def test_csv_keeps_negative_zero_apart(self):
        rows = [evaluate(dataclasses.replace(GIANT_BASE, sigma=s)) for s in (0.0, -0.0, 0.0)]
        out = io.BytesIO()
        table_of(rows).write_csv_rows(out)
        assert out.getvalue() == csv_of(rows).encode()
        lines = out.getvalue().decode().splitlines()
        assert [line.split(",")[6] for line in lines] == ["0.0", "-0.0", "0.0"]


@pytest.mark.parametrize("rows_per_block", [1, 4, 7])
@pytest.mark.parametrize(
    "changes, grids",
    [
        # a dark row and failing validity flags across a 3-axis grid
        (dict(), [GridSpec("power", 0.0, 1e6, 3), GridSpec("eta", 0.5, 1.0, 2),
                  GridSpec("sigma", 0.0, 0.02, 3)]),
        # the first bad row, 6 of 11, sits in a later block
        (dict(), [GridSpec("eta", 0.5, 1.5, 11)]),
        # only the last row raises: its arm is shorter than half the signal
        (dict(signal_x=1.0), [GridSpec("n2", 1e-6, 1e-3, 5, "log")]),
    ],
)
def test_block_boundaries_do_not_change_rows(monkeypatch, rows_per_block, changes, grids):
    monkeypatch.setattr(kerrmich.sweep, "CSV_CHUNK_ROWS", rows_per_block)
    assert_same_as_evaluate(dataclasses.replace(GIANT_BASE, **changes), grids)


def test_blocks_and_their_stats(monkeypatch):
    monkeypatch.setattr(kerrmich.sweep, "CSV_CHUNK_ROWS", 4)
    grids = [GridSpec("power", 0.0, 1e6, 3), GridSpec("sigma", 0.0, 0.02, 3)]
    blocks = list(sweep_blocks(GIANT_BASE, grids))
    # a block is a box: one power at a time, since two would make 6 rows
    assert [len(b) for b in blocks] == [3, 3, 3]
    table = run_sweep(GIANT_BASE, grids)
    assert list(SweepTable.concat(blocks)) == list(table)
    assert sum(len(b) for b in blocks) == 9
    failures = [b.validity_failures() for b in blocks]
    assert {name: sum(f[name] for f in failures) for name in FLAG_FIELDS} == (
        table.validity_failures()
    )
    # the dark input's block, the first, is the kernel's own
    assert blocks[0].column("delta_x_m").tolist() == [math.inf] * 3
    for b in blocks:
        assert list(b.stages) == ["kernel_s"]
        assert b.stages["kernel_s"] >= 0.0
    # a table that no kernel computed has no stages
    assert table.stages == {} and table_of(list(table)).stages == {}


def test_interleaved_sweeps_share_nothing():
    # two passes over one dark-edge grid, a block of each in turn
    grids = [GridSpec("tau", 1e-11, 1e-9, 5, "log"), GridSpec("power", 0.0, 1e7, 4),
             GridSpec("sigma", 0.0, 1e-3, 3000)]
    pairs = list(zip(sweep_blocks(GIANT_BASE, grids), sweep_blocks(GIANT_BASE, grids),
                     strict=True))
    assert len(pairs) > 1
    for first, second in pairs:
        assert list(first.stages) == list(second.stages) == ["kernel_s"]
        assert first.shape == second.shape
        for name in ROW_FIELDS:
            a, b = np.asarray(first.columns[name]), np.asarray(second.columns[name])
            assert a.shape == b.shape and a.tobytes() == b.tobytes(), name


@st.composite
def boxed_sweeps(draw):
    """Up to three grids over power (from 0, so some rows are dark), sigma
    and tau, and a block size of 1..64 rows. Half the draws put the block
    size one below, at, or one above the length of the trailing axes from
    some axis on, the last axis alone included.
    """
    names = draw(st.permutations(["power", "sigma", "tau"]))
    shape = draw(st.lists(st.integers(2, 9), max_size=3))
    trailing = [math.prod(shape[j:]) for j in range(len(shape))]
    if trailing and draw(st.booleans()):
        rows = draw(st.sampled_from(trailing)) + draw(st.integers(-1, 1))
        rows = min(max(rows, 1), 64)
    else:
        rows = draw(st.integers(1, 64))
    bounds = {"power": (0.0, 1e7), "sigma": (0.0, 1e-3), "tau": (1e-11, 1e-9)}
    grids = [GridSpec(name, *bounds[name], points) for name, points in zip(names, shape)]
    return grids, rows


@settings(max_examples=100, deadline=None)
@given(boxed_sweeps())
# an axis longer than a block, then trailing axes of 15 rows just above,
# at and just below the block size
@example(([GridSpec("sigma", 0.0, 1e-3, 9)], 4))
@example(([GridSpec("power", 0.0, 1e7, 3), GridSpec("sigma", 0.0, 1e-3, 3),
           GridSpec("tau", 1e-11, 1e-9, 5)], 14))
@example(([GridSpec("power", 0.0, 1e7, 3), GridSpec("sigma", 0.0, 1e-3, 3),
           GridSpec("tau", 1e-11, 1e-9, 5)], 15))
@example(([GridSpec("power", 0.0, 1e7, 3), GridSpec("sigma", 0.0, 1e-3, 3),
           GridSpec("tau", 1e-11, 1e-9, 5)], 16))
def test_blocks_are_boxes_of_the_grid(sweep):
    grids, rows = sweep
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(kerrmich.sweep, "CSV_CHUNK_ROWS", rows)
        blocks = list(sweep_blocks(GIANT_BASE, grids))
    assert all(0 < len(block) <= rows for block in blocks)
    # every row once, in row order
    got = SweepTable.concat(blocks)
    points = list(itertools.product(*(g.values() for g in grids)))
    assert len(got) == len(points)
    for g, column in zip(grids, zip(*points)):
        swept = got.column(kerrmich.sweep.GRID_COLUMNS[g.parameter])
        assert swept.tolist() == list(column)
    want = reference(GIANT_BASE, grids, 1e-2)
    for i, (g, w) in enumerate(zip(got, want)):
        assert bits(g) == bits(w), i
    out = io.BytesIO()
    for block in blocks:
        block.write_csv_rows(out)
    assert out.getvalue() == csv_of(want).encode()


# The sweep axes each CSV column depends on, on giant-eit with the arm on
# its operating point and no signal.
CSV_AXES = {
    "tau_s": "t", "area_m2": "", "power_w": "p", "n2_m2_per_w": "", "wavelength_m": "",
    "eta": "", "sigma": "s", "nt": "", "n_photons": "tp", "chi": "t", "k_per_m": "",
    "delta_x_m": "tps", "delta_x_linear_m": "tp", "improvement": "tps",
    "margin_small_signal": "tp", "margin_thermal": "tp", "margin_dephasing": "s",
    "margin_operating_point": "t", "margin_nl_dominant": "tps",
}


def test_fallback_rows_keep_dedupe(monkeypatch):
    # power 0 on the middle axis: every block holds dark rows, which keep
    # their columns at the shapes of the axes they depend on
    grids = [GridSpec("tau", 1e-11, 1e-9, 50, "log"), GridSpec("power", 0.0, 1e7, 50),
             GridSpec("sigma", 0.0, 1e-3, 40)]
    formatted = []
    float_texts = kerrmich.rowtext.float_texts

    def counting(values):
        formatted.append(len(values))
        return float_texts(values)

    monkeypatch.setattr(kerrmich.rowtext, "float_texts", counting)
    assert list(CSV_AXES) == list(CSV_COLUMNS)
    rows = dark_rows = 0
    for block in sweep_blocks(GIANT_BASE, grids):
        dark = int(np.count_nonzero(block.column("power_w") == 0.0))
        rows += len(block)
        dark_rows += dark
        assert dark > 0
        extent = {
            axis: len(np.unique(block.column(name)))
            for axis, name in (("t", "tau_s"), ("p", "power_w"), ("s", "sigma"))
        }
        own = {name: math.prod(extent[axis] for axis in axes) for name, axes in CSV_AXES.items()}
        block.write_csv_rows(io.BytesIO())
        assert formatted.pop() <= sum(own.values())
        assert not formatted
    assert rows == 100_000
    assert dark_rows == 2000


def test_sweeps_call_the_composed_path_only_to_raise(monkeypatch):
    calls = []

    def spy(params, threshold=1e-2):
        calls.append(params)
        return _evaluate_reference(params, threshold)

    monkeypatch.setattr(kerrmich.sweep, "_evaluate_reference", spy)
    # a dark edge, and a linear medium under dephasing or thermal noise,
    # whose infinite dominance margin is the composed path's own value
    dark = [GridSpec("tau", 1e-11, 1e-9, 5, "log"), GridSpec("power", 0.0, 1e7, 4),
            GridSpec("sigma", 0.0, 1e-3, 300)]
    assert len(run_sweep(GIANT_BASE, dark)) == 6000
    linear = dataclasses.replace(GIANT_BASE, n2=0.0)
    grids = [GridSpec("sigma", 0.0, 0.1, 5), GridSpec("nt", 0.0, 10.0, 4)]
    table = run_sweep(linear, grids)
    assert calls == []
    points = itertools.product(*(g.values() for g in grids))
    for row, (sigma, nt) in zip(table, points, strict=True):
        want = _evaluate_reference(dataclasses.replace(linear, sigma=sigma, nt=nt))
        assert bits(row) == bits(want), (sigma, nt)
    # eta > 1 from the 7th of 11 rows on, in the second block of 4: one
    # call, on the first of them, raises
    monkeypatch.setattr(kerrmich.sweep, "CSV_CHUNK_ROWS", 4)
    calls.clear()
    grid = GridSpec("eta", 0.5, 1.5, 11)
    with pytest.raises(ValueError, match="efficiency must be in"):
        run_sweep(GIANT_BASE, [grid])
    assert calls == [dataclasses.replace(GIANT_BASE, eta=grid.values()[6])]


def test_json_rows_are_the_json_module_layout():
    rows = reference(
        dataclasses.replace(GIANT_BASE, sigma=-0.0), [GridSpec("power", 0.0, 2e6, 3)], 1e-2
    )
    out = io.BytesIO()
    table_of(rows).write_json_rows(out)
    text = out.getvalue().decode()
    # strict JSON: the infinite resolutions of the dark input are null
    items = [
        {
            k: None if isinstance(v, float) and not math.isfinite(v) else v
            for k, v in row._asdict().items()
        }
        for row in rows
    ]
    want = json.dumps({"rows": items}, indent=2, allow_nan=False)
    assert want == '{\n  "rows": [\n' + text + "\n  ]\n}"
    assert "null" in text and "-0.0" in text and "true" in text
    # a table with no rows writes nothing, in JSON as in CSV
    for write in (SweepTable.write_json_rows, SweepTable.write_csv_rows):
        out = io.BytesIO()
        write(table_of([]), out)
        assert out.getvalue() == b""


# Floats whose texts stress the writer: both zeros, the non-finite values,
# subnormals and the widest texts, 24 bytes of repr.
SPECIAL_FLOATS = [
    0.0, -0.0, math.inf, -math.inf, math.nan, -math.nan, 5e-324, -2.225073858507201e-308,
    -1.2345678901234567e-308, 1.7976931348623157e308, 1e16, 1e-05, 0.1, -1.0,
]


@st.composite
def tables(draw):
    """A SweepTable of 0, 1, 2, WRITE_ROWS or WRITE_ROWS + 1 rows of 1-D
    columns, or a box of 2 or 3 axes and more than WRITE_ROWS rows whose
    columns broadcast to its shape, each stored at the shape of the axes it
    depends on, as `_kernel` stores them. All columns may be constant.
    Otherwise each float column is constant, or draws its values from a
    few values, from both zeros, or from random float64 bit patterns, and
    each flag column is constant or not."""
    if draw(st.booleans()):
        shape = [draw(st.sampled_from([0, 1, 2, WRITE_ROWS, WRITE_ROWS + 1]))]
    else:
        shape = draw(st.lists(st.integers(2, 12), min_size=2, max_size=3))
        shape[-1] = max(shape[-1], WRITE_ROWS // math.prod(shape[:-1]) + 1)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kinds = draw(st.lists(st.integers(0, 3), min_size=len(ROW_FIELDS), max_size=len(ROW_FIELDS)))
    if draw(st.booleans()):
        kinds = [0] * len(ROW_FIELDS)
    columns = {}
    for name, kind in zip(ROW_FIELDS, kinds):
        at = shape
        if len(shape) > 1:  # a box column depends on each axis or not
            at = [n if depends else 1 for n, depends in zip(shape, rng.random(len(shape)) < 0.5)]
            at = list(itertools.dropwhile(lambda n: n == 1, at))
        size = math.prod(at)
        if name in FLAG_FIELDS:
            pool = rng.permutation([False, True])
        elif kind == 3:
            columns[name] = rng.integers(0, 2**64, size, dtype=np.uint64).view(np.float64).reshape(at)
            continue
        elif kind == 2:
            pool = np.array([0.0, -0.0])
        else:
            random_bits = rng.integers(0, 2**64, 4, dtype=np.uint64).view(np.float64)
            pool = np.where(rng.random(4) < 0.5, rng.choice(SPECIAL_FLOATS, 4), random_bits)
        if kind == 0:
            pool = pool[:1]
        columns[name] = pool[rng.integers(0, len(pool), size)].reshape(at)
    return SweepTable(columns, shape)


def repr_lines(table):
    """The CSV lines of a table, each value its `repr`."""
    columns = [table.column(name).tolist() for name in CSV_COLUMNS]
    return "".join(",".join(map(repr, row)) + "\n" for row in zip(*columns))


def json_items(table):
    """The JSON rows of a table as `json.dumps` lays out a sweep's "rows",
    between that key's brackets."""
    columns = [table.column(name).tolist() for name in ROW_FIELDS]
    items = [
        {k: None if isinstance(v, float) and not math.isfinite(v) else v
         for k, v in zip(ROW_FIELDS, row)}
        for row in zip(*columns)
    ]
    if not items:
        return ""
    text = json.dumps({"rows": items}, indent=2, allow_nan=False)
    return text.removeprefix('{\n  "rows": [\n').removesuffix("\n  ]\n}")


def written(table, write, write_rows=WRITE_ROWS):
    """What the writer writes of the table with pieces of write_rows rows:
    WRITE_ROWS rows or more fill whole pieces of the block's row table,
    and a shorter last piece is sliced from it."""
    out = io.BytesIO()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(kerrmich.sweep, "WRITE_ROWS", write_rows)
        write(table, out)
    return out.getvalue()


@settings(max_examples=100, deadline=None)
@given(tables(), st.sampled_from([WRITE_ROWS, 3, 7]))
def test_csv_rows_are_repr_joined(table, write_rows):
    assert written(table, SweepTable.write_csv_rows, write_rows) == repr_lines(table).encode()


@settings(max_examples=60, deadline=None)
@given(tables(), st.sampled_from([WRITE_ROWS, 3, 7]))
def test_json_rows_are_the_json_module_layout_for_any_table(table, write_rows):
    assert written(table, SweepTable.write_json_rows, write_rows) == json_items(table).encode()


def box_table(shape, at, seed=5):
    """A box table of the shape whose column i is stored at the shape
    at[i % len(at)], with random floats and flags."""
    rng = np.random.default_rng(seed)
    columns = {}
    for i, name in enumerate(ROW_FIELDS):
        stored = at[i % len(at)]
        if name in FLAG_FIELDS:
            columns[name] = rng.random(stored) < 0.5
        else:
            columns[name] = rng.normal(size=stored) * 10.0 ** rng.integers(-20, 20, stored)
    return SweepTable(columns, shape)


@pytest.mark.parametrize("write_rows", [3, 7])
@pytest.mark.parametrize(
    "table",
    [
        # a short last piece, and a JSON row list that ends mid-piece
        box_table((10,), [(10,), (), (10,)]),
        # one row
        box_table((1,), [(1,)]),
        # every column one value: each row is one fixed text
        box_table((10,), [()]),
        # per-axis columns gathered by their row positions
        box_table((2, 3, 4), [(2, 3, 4), (2, 1, 1), (3, 1), (4,), (2, 3, 1), ()]),
    ],
    ids=["short-last-piece", "one-row", "all-folded", "gathered"],
)
def test_rows_across_piece_boundaries(table, write_rows):
    assert written(table, SweepTable.write_csv_rows, write_rows) == repr_lines(table).encode()
    assert written(table, SweepTable.write_json_rows, write_rows) == json_items(table).encode()


def test_writing_a_block_holds_one_piece_of_text():
    # one box of 2 x 64 x 64 = 8192 rows, the most a block holds
    grids = [GridSpec("tau", 1e-11, 1e-9, 2, "log"), GridSpec("power", 1e5, 1e7, 64, "log"),
             GridSpec("sigma", 0.0, 1e-3, 64)]
    (block,) = sweep_blocks(GIANT_BASE, grids)
    assert len(block) == 8192

    class Null(io.BufferedIOBase):
        def write(self, data):
            return len(data)

    def peak(write, write_rows):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(kerrmich.sweep, "WRITE_ROWS", write_rows)
            write(block, Null())  # builds the formatter's tables first
            tracemalloc.start()
            try:
                write(block, Null())
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

    for write in (SweepTable.write_csv_rows, SweepTable.write_json_rows):
        # the block's rows at once are 2.2 MB of CSV text or 7.5 MB of JSON,
        # held two or three times over on their way out
        assert peak(write, WRITE_ROWS) < 3.5e6
        # more pieces, no more memory: nothing piles up per piece
        assert peak(write, 64) <= peak(write, WRITE_ROWS)
