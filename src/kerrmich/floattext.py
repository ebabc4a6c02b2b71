"""`repr` of float64 arrays, byte for byte, in NumPy.

`float_texts` finds each value's shortest round-trip digits with the
Schubfach algorithm (R. Giulietti, "The Schubfach way to render doubles",
2020) in uint64 arithmetic, and lays them out as `float.__repr__` does:
scientific when the decimal point is at or before the fourth zero after
it, or past the 16th digit, with at least two exponent digits; otherwise
positional, with ".0" on integral values. Java's `Double.toString`, which
Schubfach was written for, keeps at least two digits; this keeps the plain
shortest, as Python does ("5e-324"). The tables are built on first use.
"""

import functools

import numpy as np

_U = np.uint64
_M32, _FRACTION = _U(2**32 - 1), _U(2**52 - 1)
_POW10 = np.array([10**i for i in range(18)], dtype=_U)

# Values formatted at once: a chunk's work arrays stay near 1 MB.
CHUNK = 2048

# A value's source row of 28 bytes: "-.0" and the first significant digit,
# the other 16 digits, then the 8-byte suffix: a scientific layout's
# exponent part, the word of inf, nan or 0.0, or NULs.
_MINUS, _DOT, _ZERO, _SUFFIX, _NUL = 0, 1, 2, 20, 27


def _flog2pow10(e):
    """floor(log2(10**e))."""
    return (e * 913_124_641_741) >> 38


@functools.cache
def _tables():
    """g = g1 2**63 + g0 for k = -324..292, as g1 and the 32-bit limbs of
    g1 and g0; 4-digit groups, then "-.0" and a digit; each group's
    trailing zeros; suffixes by decimal-point position -324..310, then the
    words; and the patterns, byte offsets into a source row for each
    (sign, decimal-point class, significant digits - 1), then word, -word."""
    limbs = []
    for k in range(-324, 293):
        # floor(10**-k / 2**r) + 1 in [2**125, 2**126)
        num, den, r = 10 ** max(-k, 0), 10 ** max(k, 0), _flog2pow10(-k) - 125
        g = (num << -r) // den + 1 if r < 0 else num // (den << r) + 1
        g1, g0 = g >> 63, g & (2**63 - 1)
        limbs.append((g1, g1 >> 32, g1 & (2**32 - 1), g0 >> 32, g0 & (2**32 - 1)))
    digits = np.empty((10_010, 4), dtype=np.uint8)
    i = np.arange(10_000, dtype=np.uint16)
    for j in range(4):
        digits[:10_000, j] = i // 10 ** (3 - j) % 10 + ord("0")
    digits[10_000:] = np.frombuffer(b"-.0%d" * 10 % tuple(range(10)), np.uint8).reshape(10, 4)
    zeros = np.argmax(digits[:10_000, ::-1] != ord("0"), axis=1).astype(np.uint8)
    zeros[0] = 4
    suffixes = [b"e%+03d" % (p - 1) if not -4 < p <= 16 else b"" for p in range(-324, 311)]
    suffixes = b"".join(s.ljust(8, b"\0") for s in suffixes + [b"inf", b"nan", b"0.0"])

    patterns = np.full((2 * 22 * 17 + 2, 24), _NUL, dtype=np.int16)
    for key, (sign, dclass, n) in enumerate(np.ndindex(2, 22, 17)):
        d, point = list(range(3, n + 4)), dclass - 4  # n + 1 digits
        if dclass in (0, 21):
            body = d[:1] + [_DOT] * (n > 0) + d[1:] + list(range(_SUFFIX, _SUFFIX + 5))
        elif point <= 0:
            body = [_ZERO, _DOT] + [_ZERO] * -point + d
        elif point <= n:
            body = d[:point] + [_DOT] + d[point:]
        else:
            body = d + [_ZERO] * (point - n - 1) + [_DOT, _ZERO]
        body = [_MINUS] * sign + body
        patterns[key, : len(body)] = body
    patterns[-2, :3] = patterns[-1, 1:4] = range(_SUFFIX, _SUFFIX + 3)
    patterns[-1, 0] = _MINUS
    g_limbs = [np.array(column, dtype=_U) for column in zip(*limbs)]
    return g_limbs, digits.view(np.uint32).ravel(), zeros, np.frombuffer(suffixes, _U), patterns


def _rop(g: list[np.ndarray], cp: np.ndarray) -> np.ndarray:
    """Schubfach's r_o(g cp 2**-127), for cp < 2**60: the high 64 bits of
    g1 cp and g0 cp each come from four 32x32-bit products, whose sums
    cannot carry out of 64 bits at these sizes."""
    g1, g1h, g1l, g0h, g0l = g
    ch, cl = cp >> _U(32), cp & _M32
    x1 = g0h * ch + ((((g0l * cl) >> _U(32)) + g0l * ch + g0h * cl) >> _U(32))
    y1 = g1h * ch + ((((g1l * cl) >> _U(32)) + g1l * ch + g1h * cl) >> _U(32))
    z = ((g1 * cp) >> _U(1)) + x1
    return (y1 + (z >> _U(63))) | ((z << _U(1)) != _U(0))  # odd if any lower bit is set


def _shortest(bits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The decimal f 10**k with the fewest digits that reads back as each
    finite nonzero float64 whose bits are given, the closest to it on a
    tie of length, and of those the one with even f."""
    t = bits & _FRACTION
    bq = (bits >> _U(52)).astype(np.int64) & 0x7FF
    c = t | (bq != 0).astype(_U) << _U(52)
    q = np.maximum(bq, 1) - 1075
    irregular = (t == _U(0)) & (bq > 1)  # the interval below v is half as wide
    # floor(log10(2**q)), or of 3/4 2**q where irregular
    k = (q * 661_971_961_083 - irregular * 274_743_187_321) >> 41
    h = (q + _flog2pow10(-k) + 2).astype(_U)
    g = [limb[k + 324] for limb in _tables()[0]]
    out = c & _U(1)  # odd c: the interval's ends do not read back as v
    cb = c << _U(2)
    vb = _rop(g, cb << h)
    vbl = _rop(g, (cb - _U(2) + irregular) << h) + out
    vbr = _rop(g, (cb + _U(2)) << h) - out
    s = vb >> _U(2)
    # u' = 10 floor(s/10) or w' = u' + 10, one digit shorter, when exactly
    # one is in the interval; else u = s or w = s + 1, whichever is in it,
    # or the closer, or the even one
    sp10 = s // _U(10) * _U(10)
    upin = vbl <= sp10 << _U(2)
    wpin = (sp10 + _U(10)) << _U(2) <= vbr
    uin = vbl <= s << _U(2)
    win = (s + _U(1)) << _U(2) <= vbr
    mid = (s << _U(2)) + _U(2)
    pick_w = win & (~uin | (vb > mid) | ((vb == mid) & (s & _U(1) == _U(1))))
    return np.where(upin != wpin, sp10 + _U(10) * wpin, s + pick_w), k


def float_texts(values: np.ndarray) -> np.ndarray:
    """`repr` of each float64 value as ASCII in a NUL-padded [n, 24]
    uint8 array; view it as "S24" for one bytes string per value."""
    values = np.ascontiguousarray(values, dtype=np.float64).ravel()
    result = np.empty((len(values), 24), dtype=np.uint8)
    for lo in range(0, len(values), CHUNK):
        result[lo : lo + CHUNK] = _format_chunk(values[lo : lo + CHUNK].view(_U))
    return result


def _format_chunk(bits: np.ndarray) -> np.ndarray:
    _, groups, zeros, suffixes, patterns = _tables()
    sign = (bits >> _U(63)).astype(np.intp)
    top = (bits >> _U(52)).astype(np.intp) & 0x7FF
    # -1 for a finite nonzero value, else 0, 1 or 2 for inf, nan or 0.0,
    # which take the digits of 1.0 and print their word
    word = np.where(top == 0x7FF, (bits & _FRACTION) != _U(0), np.where(bits << _U(1), -1, 2))
    f, k = _shortest(np.where(word < 0, bits, _U(0x3FF0_0000_0000_0000)))
    length = np.searchsorted(_POW10, f, side="right")
    f = (f * _POW10[17 - length]).astype(np.int64)  # 17 digits
    high, low = f % 10**16 // 10**8, f % 10**8
    quads = [f // 10**16 + 10_000, high // 10**4, high % 10**4, low // 10**4, low % 10**4]
    src = np.empty((len(bits), 7), dtype=np.uint32)
    for i, quad in enumerate(quads):
        src[:, i] = groups[quad]
    point = k + length
    src[:, 5:].view(_U)[:, 0] = suffixes[np.where(word < 0, point + 324, 635 + word)]
    tz = [zeros[quad] for quad in quads[1:]]
    tz = tz[3] + (quads[4] == 0) * (tz[2] + (quads[3] == 0) * (tz[1] + (quads[2] == 0) * tz[0]))
    # decimal-point classes 0 and 21 are scientific, 1..20 positional
    key = (sign * 22 + np.clip(point, -4, 17) + 4) * 17 + 16 - tz
    key = np.where(word < 0, key, 748 + sign * (word != 1))
    index = patterns[key] + (np.arange(len(bits)) * 28)[:, None]
    return src.view(np.uint8).ravel().take(index)
