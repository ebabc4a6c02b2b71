"""The text layer against Python's own formatting, byte for byte.

`float_texts` against `repr` over every float64 class. `repr` is the
reference: shortest round-trip digits (the closest on a tie of length,
then the even one), laid out positionally for decimal-point positions
-3..16 and in scientific form outside them.

`digit_texts`, `scaled_texts` and `text_table` against `%` over every
float64 class at every precision and every uint64, and `join_texts`
laying out a row's pieces in order.

`%.Ne` and `%.Nf` round the exact binary value half to even; the NumPy
digits must do the same on exact ties and carry 9.9995-like values into
the next decade, and hand every value they cannot prove, and every
negative value, to `%`.
"""

import hashlib
import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import kerrmich.rowtext
from kerrmich.rowtext import (
    CHUNK,
    digit_texts,
    float_texts,
    items,
    join_texts,
    row_table,
    scaled_texts,
    text_table,
)


def texts(values):
    return float_texts(np.asarray(values, dtype=np.float64)).view("S24").ravel().tolist()


def reprs(values):
    return [repr(v).encode() for v in np.asarray(values, dtype=np.float64).tolist()]


def from_bits(bits):
    return np.asarray(bits, dtype=np.uint64).view(np.float64)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=64))
def test_any_bit_pattern(bits):
    values = from_bits(bits)
    assert texts(values) == reprs(values)


def test_a_million_random_bit_patterns():
    rng = np.random.default_rng(20201)
    values = rng.integers(0, 2**64, size=1_000_000, dtype=np.uint64).view(np.float64)
    got = float_texts(values).view("S24").ravel()
    wrong = np.flatnonzero(got != np.array(reprs(values), dtype="S24"))
    assert [(values[i], got[i]) for i in wrong[:5]] == []


def edge_values():
    subnormals = [i * 5e-324 for i in range(1, 200)] + [
        from_bits([(1 << 52) - i]).item() for i in range(1, 50)
    ]
    powers_of_two = [2.0**e for e in range(-1074, 1024)]  # c = 2**52: irregular spacing
    near_2_53 = [float(2**53 + k) for k in range(-20, 21)]
    powers_of_ten = [10.0**e for e in range(-323, 309)]
    layout_edges = [
        9999999999999998.0, 1e16, 1e15, 123456789012345678.0, 1234567890123456.7,
        1e-5, 1e-4, 1.5e-5, 0.00012345, 0.001, 0.1, 0.5, 1.0, 10.0, 1e22, 1e23,
        2.2250738585072014e-308, 2.225073858507201e-308, 1.7976931348623157e308,
        1e100, 1.5e-300, 1e-100, 4.9406564584124654e-324, 0.3, 2 / 3, math.pi,
    ]
    specials = [0.0, math.inf, math.nan]
    values = subnormals + powers_of_two + near_2_53 + powers_of_ten + layout_edges + specials
    return values + [-v for v in values]


def test_edge_classes():
    values = edge_values()
    assert texts(values) == reprs(values)
    # one at a time too, each a chunk of its own
    for v in values[-60:]:
        assert texts([v]) == reprs([v])


def test_negative_zero_and_signed_nan():
    negative_nan = struct.unpack("<d", struct.pack("<Q", 0xFFF8_0000_0000_0001))[0]
    assert math.isnan(negative_nan) and math.copysign(1.0, negative_nan) < 0
    assert texts([-0.0, negative_nan, -math.inf]) == [b"-0.0", b"nan", b"-inf"]


def test_shortest_digits_not_two():
    # Java's Double.toString keeps a second digit; Python does not
    values = [5e-324, 1e-323, 1e23, 2.0, 0.5]
    assert texts(values) == [b"5e-324", b"1e-323", b"1e+23", b"2.0", b"0.5"]


def test_shape_and_chunks():
    values = np.linspace(-1e-3, 1e3, 2 * CHUNK + 3)
    raw = float_texts(values)
    assert raw.shape == (len(values), 24) and raw.dtype == np.uint8
    assert texts(values) == reprs(values)
    assert float_texts(np.array([])).shape == (0, 24)


@pytest.mark.parametrize("chunk, gather_rows", [(5, 3), (5, 512), (2048, 7), (2048, 512)])
def test_chunk_and_gather_boundaries(monkeypatch, chunk, gather_rows):
    monkeypatch.setattr(kerrmich.rowtext, "CHUNK", chunk)
    monkeypatch.setattr(kerrmich.rowtext, "GATHER_ROWS", gather_rows)
    rng = np.random.default_rng(chunk + gather_rows)
    pool = np.array(edge_values())
    for n in (1, chunk - 1, chunk + 1, 3 * chunk + 2, 2 * gather_rows + 1):
        bits = rng.integers(0, 2**64, n, dtype=np.uint64).view(np.float64)
        values = np.where(rng.random(n) < 0.5, bits, rng.choice(pool, n))
        assert texts(values) == reprs(values), n


# SHA-256 of each table of `float_texts`, as big-integer arithmetic and a
# loop over the layouts build them: the multipliers [5, 617] uint64, the
# trailing zeros uint8, the suffixes uint64 and the patterns as int16,
# little-endian.
FLOAT_TABLE_SHA256 = [
    "b99aef57446fdc9e0790b01c2c4a774fcb0ff96a0a74ab46533cb5638bf2b49f",
    "64ffb3ce08203703986d1229ccd898fe10e57015a879448d34578e7f420467d9",
    "9fa946307682741378eecee11719a56d5053bf60a47150cd97b6be2c1268faec",
    "e163a65f93d83fa7e8df14f5e088ebcd9e61aeacc5d559134f3a322c70992582",
]


def test_float_tables_are_pinned():
    g, zeros, suffixes, patterns = kerrmich.rowtext._float_tables()
    assert g.shape == (5, 617) and patterns.shape == (750, 24)
    tables = [g.astype("<u8"), zeros, suffixes.astype("<u8"), patterns.astype("<i2")]
    assert [hashlib.sha256(t.tobytes()).hexdigest() for t in tables] == FLOAT_TABLE_SHA256


# %.Ne and %.Nf for every precision N that `scaled_texts` takes
CONVERSIONS = [f"%.{n}{kind}" for n in range(1, 9) for kind in "ef"]


def rows(table):
    """A NUL-padded table of texts as one bytes string per row."""
    return [row.tobytes().replace(b"\0", b"") for row in table]


def scaled(conversion, values):
    """`scaled_texts` for the conversion "%.Ne" or "%.Nf", one bytes
    string per value."""
    precision, scientific = int(conversion[2:-1]), conversion[-1] == "e"
    return rows(scaled_texts(np.asarray(values, dtype=np.float64), precision, scientific))


def percent(conversion, values):
    values = values.tolist() if isinstance(values, np.ndarray) else values
    return [(conversion % (v,)).encode() for v in values]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=64))
def test_float_conversions_of_any_bit_pattern(bits):
    values = from_bits(bits)
    for conversion in CONVERSIONS:
        assert scaled(conversion, values) == percent(conversion, values)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(allow_nan=True, allow_infinity=True), min_size=1, max_size=64))
def test_float_conversions_of_any_float(values):
    values = np.array(values, dtype=np.float64)
    for conversion in CONVERSIONS:
        assert scaled(conversion, values) == percent(conversion, values)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=64))
def test_digit_texts_of_any_uint64(ints):
    assert rows(digit_texts(np.array(ints, dtype=np.uint64))) == percent("%d", ints)


def test_random_values_per_conversion():
    # any bits, errors of the size verify prints, and its random chi values
    rng = np.random.default_rng(29)
    bits = rng.integers(0, 2**64, size=100_000, dtype=np.uint64).view(np.float64)
    errors = np.abs(rng.normal(size=100_000)) * 10.0 ** rng.integers(-18, 0, 100_000)
    chis = rng.uniform(0.0, 0.12, 100_000)
    for conversion, values in [("%.3e", bits), ("%.3e", errors), ("%.4f", chis), ("%.4f", bits)]:
        got = scaled(conversion, values)
        want = percent(conversion, values)
        wrong = [i for i, (a, b) in enumerate(zip(got, want)) if a != b]
        assert [(values[i], got[i], want[i]) for i in wrong[:5]] == []


@pytest.mark.parametrize(
    "conversion, value, text",
    [
        # exact ties round half to even
        ("%.3e", 1.0625, "1.062e+00"),
        ("%.3e", 1.1875, "1.188e+00"),
        ("%.4f", 0.03125, "0.0312"),
        ("%.4f", 0.09375, "0.0938"),
        ("%.1f", 0.25, "0.2"),
        ("%.1e", 2.25, "2.2e+00"),
        # decade carries
        ("%.3e", 9999.5, "1.000e+04"),
        ("%.3e", 9.99951, "1.000e+01"),
        ("%.3e", 9.9994, "9.999e+00"),
        ("%.4f", 9.99995, "10.0000"),
        ("%.1e", 9.96, "1.0e+01"),
        # zeros, subnormals, NaN and infinities
        ("%.3e", 0.0, "0.000e+00"),
        ("%.3e", -0.0, "-0.000e+00"),
        ("%.4f", -0.0, "-0.0000"),
        ("%.4f", -1e-9, "-0.0000"),
        ("%.3e", 5e-324, "4.941e-324"),
        ("%.3e", 2.2250738585072014e-308, "2.225e-308"),
        ("%.4f", 5e-324, "0.0000"),
        ("%.3e", math.nan, "nan"),
        ("%.4f", math.inf, "inf"),
        ("%.3e", -math.inf, "-inf"),
        ("%.3e", 1e100, "1.000e+100"),
        ("%.4f", 1e20, "100000000000000000000.0000"),
        # negative values, each formatted by `%`
        ("%.3e", -1.5e-10, "-1.500e-10"),
        ("%.3e", -9.99951, "-1.000e+01"),
        ("%.4f", -0.03125, "-0.0312"),
        ("%.4f", -12345.678, "-12345.6780"),
        ("%.8e", -5e-324, "-4.94065646e-324"),
        ("%.8f", -0.0, "-0.00000000"),
    ],
)
def test_conversion_edges(conversion, value, text):
    assert (conversion % value) == text
    column = np.array([value, 1.0, value])
    assert scaled(conversion, column) == percent(conversion, column)
    assert scaled(conversion, column)[0] == text.encode()


def test_edge_classes_per_conversion():
    values = np.array(edge_values())  # each value and its negative
    ties = np.arange(-20_000, 20_000) / 16.0  # every value an exact tie or exact
    for conversion in ("%.3e", "%.4f", "%.1e", "%.1f", "%.8e", "%.8f"):
        for column in (values, ties, ties / 1e4):
            assert scaled(conversion, column) == percent(conversion, column)


def test_scaled_texts_takes_precisions_1_to_8():
    for precision in (0, 9, -1):
        for scientific in (True, False):
            with pytest.raises(ValueError, match="precision must be 1 to 8"):
                scaled_texts(np.ones(2), precision, scientific)
    assert scaled_texts(np.zeros(0), 3, True).shape[0] == 0


def test_integer_columns():
    extremes = [0, 1, 9, 10, 9999, 10_000, 99_999_999, 10**8, 2**63 - 1, 2**64 - 1]
    for column in (extremes, list(range(0, 10**6, 9973))):
        assert rows(digit_texts(np.array(column, dtype=np.uint64))) == percent("%d", column)
    # the last `count` digits, zero-padded
    values = np.array([0, 7, 12345, 2**64 - 1], dtype=np.uint64)
    assert rows(digit_texts(values, 4)) == [b"0000", b"0007", b"2345", b"1615"]
    assert digit_texts(np.zeros(0, dtype=np.uint64)).shape[0] == 0


def test_text_table():
    texts = ["plain", "ä", "x" * 40, "", "100% sure"]
    assert rows(text_table(texts)) == [text.encode() for text in texts]
    assert text_table([]).shape[0] == 0
    with pytest.raises(ValueError, match="^a text in a table of texts must not hold a NUL$"):
        text_table(["a", "b\0c"])


def test_join_texts_lays_out_tables_between_fixed_texts():
    settings_ = [(3, "ä", 0.05, -2.0), (12345, "bc", 0.11999, 1.0625)]
    index, names, chi, error = zip(*settings_)
    table = join_texts([
        b"r[", digit_texts(np.array(index, dtype=np.uint64)),
        b"] ", text_table(names),
        b" chi=", scaled_texts(np.array(chi), 4, False),
        b" e=", scaled_texts(np.array(error), 3, True),
        b"|",
    ])
    assert rows(table) == [("r[%d] %s chi=%.4f e=%.3e|" % s).encode() for s in settings_]
    # tables side by side, fixed texts side by side, and a table alone
    names_chi = join_texts([text_table(names), scaled_texts(np.array(chi), 4, False)])
    assert rows(names_chi) == [("%s%.4f" % (n, c)).encode() for n, c in zip(names, chi)]
    assert rows(join_texts([b"a", b"", b"b", text_table(names)])) == [b"ab\xc3\xa4", b"abbc"]
    assert join_texts([text_table([])]).shape[0] == 0
    assert rows(join_texts([b"x", digit_texts(np.zeros(2, dtype=np.uint64), 0), b"y"])) == [b"xy"] * 2


def test_row_table_is_filled_a_part_at_a_time():
    names = text_table(["a", "bcd", "", "ef", "g"])
    digits = digit_texts(np.arange(5, dtype=np.uint64) * 7)
    buffer, table, slots = row_table([b"<", names.shape[1], b"|", digits.shape[1], b">\n"], 2)
    assert table.shape == (2, 1 + names.shape[1] + 1 + digits.shape[1] + 2)
    assert rows(table) == [b"<|>\n"] * 2
    lines, text = [], b""
    for lo in range(0, 5, 2):
        m = min(2, 5 - lo)
        slots[0][:m] = items(names)[lo : lo + m]
        slots[1][:m] = items(digits)[lo : lo + m]
        lines += rows(table[:m])
        # the table lies in the bytearray, row after row
        text += buffer[: table[:m].size].translate(None, b"\0")
    want = [b"<%s|%d>\n" % (name.encode(), 7 * i) for i, name in enumerate(["a", "bcd", "", "ef", "g"])]
    assert lines == want
    assert text == b"".join(want)
    assert row_table([b"x", 3], 0)[1].shape == (0, 4)
