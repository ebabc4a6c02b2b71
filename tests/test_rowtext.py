"""`conversion_texts` against `%`, byte for byte, over every float64 class
and every int64, and `split_format` and the errors of both.

`%.Ne` and `%.Nf` round the exact binary value half to even; the NumPy
digits must do the same on exact ties and carry 9.9995-like values into
the next decade, and hand every value they cannot prove to `%`.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from kerrmich.rowtext import conversion_texts, split_format
from test_floattext import edge_values, from_bits


def converted(conversion, column):
    """`conversion_texts` as one bytes string per value."""
    table = conversion_texts(conversion, column)
    return [row.tobytes().replace(b"\0", b"") for row in table]


def percent(conversion, values):
    values = values.tolist() if isinstance(values, np.ndarray) else values
    return [(conversion % (v,)).encode() for v in values]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=64))
def test_float_conversions_of_any_bit_pattern(bits):
    values = from_bits(bits)
    for conversion in ("%.3e", "%.4f", "%s"):
        assert converted(conversion, values) == percent(conversion, values)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(allow_nan=True, allow_infinity=True), min_size=1, max_size=64))
def test_float_conversions_of_any_float(values):
    values = np.array(values, dtype=np.float64)
    for conversion in ("%.3e", "%.4f", "%s", "%.0e", "%.8e", "%.0f", "%.12f"):
        assert converted(conversion, values) == percent(conversion, values)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(-(2**63), 2**63 - 1), min_size=1, max_size=64))
def test_int_conversions_of_any_int64(ints):
    values = np.array(ints, dtype=np.int64)
    for conversion in ("%d", "%s"):
        assert converted(conversion, values) == percent(conversion, values)
        assert converted(conversion, ints) == percent(conversion, ints)


def test_random_values_per_conversion():
    # any bits, errors of the size verify prints, and its random chi values
    rng = np.random.default_rng(29)
    bits = rng.integers(0, 2**64, size=100_000, dtype=np.uint64).view(np.float64)
    errors = np.abs(rng.normal(size=100_000)) * 10.0 ** rng.integers(-18, 0, 100_000)
    chis = rng.uniform(0.0, 0.12, 100_000)
    for conversion, values in [("%.3e", bits), ("%.3e", errors), ("%.4f", chis), ("%.4f", bits)]:
        got = converted(conversion, values)
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
        ("%.0f", 2.5, "2"),
        ("%.0e", 2.5, "2e+00"),
        # decade carries
        ("%.3e", 9999.5, "1.000e+04"),
        ("%.3e", 9.99951, "1.000e+01"),
        ("%.3e", 9.9994, "9.999e+00"),
        ("%.4f", 9.99995, "10.0000"),
        ("%.0e", 9.6, "1e+01"),
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
    ],
)
def test_conversion_edges(conversion, value, text):
    assert (conversion % value) == text
    column = np.array([value, 1.0, value])
    assert converted(conversion, column) == percent(conversion, column)
    assert converted(conversion, column)[0] == text.encode()


def test_edge_classes_per_conversion():
    values = np.array(edge_values())
    ties = np.arange(-20_000, 20_000) / 16.0  # every value an exact tie or exact
    for conversion in ("%.3e", "%.4f", "%.0e", "%.1f", "%s"):
        for column in (values, ties, ties / 1e4):
            assert converted(conversion, column) == percent(conversion, column)


def test_integer_columns():
    extremes = [0, 1, -1, 9, 10, 9999, 10_000, -10_000, 2**63 - 1, -(2**63)]
    for column in (np.array(extremes), extremes, range(-12, 10**6, 9973)):
        assert converted("%d", column) == percent("%d", column)
    unsigned = np.array([0, 2**64 - 1, 10**19, 7], dtype=np.uint64)
    assert converted("%s", unsigned) == percent("%s", unsigned)
    small = np.array([3, -4], dtype=np.int8)
    assert converted("%d", small) == [b"3", b"-4"]


def test_other_columns_go_through_percent():
    columns = [
        ("%s", ["plain", "ä", "x" * 40]),
        ("%s", [True, None, 1.5, 2, (1, 2)]),
        ("%d", np.array([2.7, -2.7])),
        ("%r", ["a"]),
        ("%5.1f", np.array([1.25, -3.0])),
        ("%.3e", np.array([1, 2])),
        ("%s", [10**30, -(10**30)]),
        ("%d", range(2**70, 2**70 + 3)),
        ("%s", np.array([[1, 2], [3, 4]])),
        ("%s", np.array([1 + 2j])),
    ]
    for conversion, column in columns:
        assert converted(conversion, column) == percent(conversion, column)
    assert conversion_texts("%s", []).shape[0] == 0
    assert conversion_texts("%.3e", np.zeros(0)).shape[0] == 0


def test_split_format():
    assert split_format("a %d b %%%.3e c\n") == ([b"a ", b" b %", b" c\n"], ["%d", "%.3e"])
    assert split_format("ä %s") == (["ä ".encode(), b""], ["%s"])
    with pytest.raises(ValueError, match="incomplete format"):
        split_format("a %s %")
    with pytest.raises(ValueError, match="NUL"):
        split_format("a\0 %s")
    with pytest.raises(ValueError, match="NUL"):
        conversion_texts("%s", ["a\0"])
