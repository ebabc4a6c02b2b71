"""`float_texts` against `repr`, byte for byte, over every float64 class.

`repr` is the reference: shortest round-trip digits (the closest on a tie
of length, then the even one), laid out positionally for decimal-point
positions -3..16 and in scientific form outside them.
"""

import math
import struct

import numpy as np
from hypothesis import given, settings, strategies as st

from kerrmich.rowtext import CHUNK, float_texts


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
