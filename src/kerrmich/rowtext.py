"""Rows of text as NUL-padded byte tables, byte for byte what `%` and
`repr` give.

Three formatters read one table of 4-digit groups and one of exponent
texts: `digit_texts` writes `%d` of unsigned integers, `scaled_texts`
`%.Ne` and `%.Nf` of floats from scaled digits wherever those are provably
`%`'s (handing every other value to `%`), and `float_texts` `repr` of
floats. `text_table` holds any texts, and `join_texts` lays such tables
out between fixed texts as one NUL-padded byte table: the one row layout,
of `verify`'s labels and check lines and of sweep CSV and JSON rows,
whose callers delete the NULs. Every table is built on first use.

`float_texts` finds each value's shortest round-trip digits with the
Schubfach algorithm (R. Giulietti, "The Schubfach way to render doubles",
2020) in uint64 arithmetic, and lays them out as `float.__repr__` does:
scientific when the decimal point is at or before the fourth zero after
it, or past the 16th digit, with at least two exponent digits; otherwise
positional, with ".0" on integral values. Java's `Double.toString`, which
Schubfach was written for, keeps at least two digits; this keeps the plain
shortest, as Python does ("5e-324"). Its own tables are cached apart from
the shared ones, so a process that formats no `repr` never builds them.
"""

import functools

import numpy as np

_U = np.uint64
_M32, _FRACTION = _U(2**32 - 1), _U(2**52 - 1)
_POW10 = np.array([10**i for i in range(18)], dtype=_U)

# Values `float_texts` formats at once: a chunk's work arrays stay near 1 MB.
CHUNK = 2048

# A value's source row of 28 bytes in `float_texts`: "-.0" and the first
# significant digit, the other 16 digits, then the 8-byte suffix: a
# scientific layout's exponent text, the word of inf, nan or 0.0.
_MINUS, _DOT, _ZERO, _SUFFIX, _NUL = 0, 1, 2, 20, 27

# A value scaled by at most two exact powers of ten is off by less than
# 3 2**-53 of itself, so below _SCALED_MAX and at least _EDGE from half an
# integer it rounds to the integer its exact value rounds to.
_SCALED_MAX, _EDGE = 1e9, 1e-6
# 10**k for k = -22..22 as _UP[k + 22] / _DOWN[k + 22], one of them 1.
_UP = np.array([10.0 ** max(k, 0) for k in range(-22, 23)])
_DOWN = _UP[::-1].copy()


def join_texts(pieces: list[bytes | np.ndarray]) -> np.ndarray:
    """The pieces of a row side by side, in order, as one NUL-padded
    [rows, width] uint8 table: each piece a bytes string repeated on every
    row, or a NUL-padded [rows, w] uint8 table of texts whose rows are
    contiguous; at least one is a table. The caller deletes the NULs, in
    the way that suits how many there are. The bytes strings are laid out
    in one template row, copied to every row at once; each table is then
    copied as one column of w-byte items, faster than w columns of bytes."""
    rows = next(len(p) for p in pieces if not isinstance(p, bytes))
    widths = [len(p) if isinstance(p, bytes) else p.shape[1] for p in pieces]
    template = b"".join(p if isinstance(p, bytes) else bytes(w) for p, w in zip(pieces, widths))
    table = np.empty((rows, len(template)), dtype=np.uint8)
    table[:] = np.frombuffer(template, dtype=np.uint8)
    start = 0
    for piece, width in zip(pieces, widths):
        if width and not isinstance(piece, bytes):
            slot = table[:, start : start + width].view(f"V{width}")[:, 0]
            slot[:] = piece.view(f"V{width}")[:, 0]
        start += width
    return table


@functools.cache
def _group_tables() -> tuple[np.ndarray, np.ndarray]:
    """The zero-padded 4-digit groups 0..9999, then "-.0" and a digit d
    for d = 0..9 (the head of a `float_texts` source row), as ASCII, one
    uint32 each; and the exponent texts e-325..e+309, NUL-padded to 8
    bytes, one uint64 each. Every array stays below glibc's 128 KiB mmap
    threshold: freeing a larger one raises the threshold, and later
    arrays below it then grow the heap, which keeps the pages."""
    groups = np.empty((10_010, 4), dtype=np.uint8)
    i = np.arange(10_000, dtype=np.uint16)
    for j in range(4):
        groups[:10_000, j] = i // 10 ** (3 - j) % 10 + ord("0")
    groups[10_000:] = np.frombuffer(b"-.0%d" * 10 % tuple(range(10)), np.uint8).reshape(10, 4)
    exponents = b"".join((b"e%+03d" % e).ljust(8, b"\0") for e in range(-325, 310))
    return groups.view(np.uint32).ravel(), np.frombuffer(exponents, dtype=_U)


def digit_texts(values: np.ndarray, count: int | None = None) -> np.ndarray:
    """The decimal digits of each uint64 value (`%d`) as ASCII in an
    [n, width] uint8 array: the last `count` digits, zero-padded, or if
    count is None all of them, right-aligned after NULs."""
    groups = _group_tables()[0]
    top = int(values.max(initial=0))
    width = len(str(top)) if count is None else count
    if top >= 10**width:
        values = values % _U(10**width)
    quads = -(-width // 4)
    table = np.empty((len(values), quads), dtype=np.uint32)
    for j in range(quads):
        quad = values // _U(10 ** (4 * (quads - 1 - j)))
        table[:, j] = groups[(quad % _U(10_000) if j else quad).astype(np.intp)]
    digits = table.view(np.uint8)[:, 4 * quads - width :]
    if count is None:  # zeros before the first digit as NULs
        for c in range(width - 1):
            digits[:, c] *= values >= _U(10 ** (width - 1 - c))
    return digits


def text_table(texts) -> np.ndarray:
    """The texts, UTF-8 encoded, in a NUL-padded [n, width] uint8 array. A
    text that holds a NUL raises ValueError."""
    encoded = [text.encode() for text in texts]
    if b"\0" in b"".join(encoded):
        raise ValueError("a text in a table of texts holds no NUL")
    table = np.array(encoded, dtype=bytes)
    return table.view(np.uint8).reshape(len(encoded), table.itemsize)


def scaled_texts(values: np.ndarray, precision: int, scientific: bool) -> np.ndarray:
    """`%.Ne` if scientific, else `%.Nf`, of each float64 value as ASCII in
    a NUL-padded [n, width] uint8 array, where N is the precision, 1 to 8
    (any other raises ValueError).

    A value >= 0 is scaled by 10**k, k = N for %f and N - e for %e (e
    the exponent of its leading digit, from log10), in at most two
    float64 roundings by exact powers of ten, to a value s whose nearest
    integer gives the digits. Where s is below _SCALED_MAX and at least
    _EDGE from half an integer, its error cannot move its rounding, so
    the digits are those of the exact value, rounded as `%` rounds them.
    A rounding up to 10**(N+1) carries into the exponent, and a wrong
    log10 exponent leaves too few or too many digits. Those values,
    negative values (-0.0 too), NaN, inf, values with |k| > 44 and values
    near a rounding edge are formatted by `%`."""
    if not 1 <= precision <= 8:
        raise ValueError(f"precision must be 1 to 8, got {precision}")
    one = _UP[22 + precision]
    if scientific:
        zero = values == 0
        usable = np.where((values > 0) & (values < np.inf), values, 1.0)
        e = np.floor(np.log10(usable)).astype(np.int64)
        k = precision - e
        s = _scale(usable, k)
        m = np.rint(s)
        ok = np.abs(s - m) <= 0.5 - _EDGE
        carry = m == 10.0 * one  # 9.9996 is 1.000e+01
        e += carry
        m = np.where(carry, one, m)
        ok &= (np.abs(k) <= 44) & (m >= one) & (m < 10.0 * one) & (usable == values)
        ok |= zero
        m[zero] = 0.0
    else:
        small = np.where((values >= 0) & (values < _SCALED_MAX), values, 0.0)  # NaN and < 0 too
        s = small * one
        m = np.rint(s)
        ok = (np.abs(s - m) <= 0.5 - _EDGE) & (small == values) & (s < _SCALED_MAX)
    ok &= ~np.signbit(values)
    m = np.where(ok, m, 0.0).astype(_U)
    if scientific:
        digits = digit_texts(m, precision + 1)
        # e is in -324..309, and in -43..53 (4 bytes of text) where `%` is unused
        exponents = _group_tables()[1][e + 325].view(np.uint8).reshape(-1, 8)[:, :4]
        pieces = [digits[:, :1], b".", digits[:, 1:], exponents]
    else:
        pieces = [digit_texts(m // _U(10**precision)), b".", digit_texts(m, precision)]
    table = join_texts(pieces)
    bad = np.flatnonzero(~ok)
    if not len(bad):
        return table
    conversion = f"%.{precision}{'e' if scientific else 'f'}"
    texts = text_table([conversion % (value,) for value in values[bad].tolist()])
    if texts.shape[1] > table.shape[1]:
        table = np.pad(table, ((0, 0), (0, texts.shape[1] - table.shape[1])))
    table[bad] = 0
    table[bad, : texts.shape[1]] = texts
    return table


def _scale(values: np.ndarray, k: np.ndarray) -> np.ndarray:
    """values * 10**k, k clipped to -44..44, in at most two roundings by
    exact powers of ten."""
    k = np.minimum(np.maximum(k, -44), 44)
    step = np.minimum(np.maximum(k, -22), 22)
    values = values * _UP[step + 22] / _DOWN[step + 22]
    rest = k - step
    return values * _UP[rest + 22] / _DOWN[rest + 22] if rest.any() else values


def _flog2pow10(e):
    """floor(log2(10**e))."""
    return (e * 913_124_641_741) >> 38


@functools.cache
def _float_tables():
    """The tables of `float_texts` alone: g = g1 2**63 + g0 for
    k = -324..292, as g1 and the 32-bit limbs of g1 and g0; each 4-digit
    group's trailing zeros; suffixes by decimal-point position -324..310
    (the exponent texts), then the words; and the patterns, byte offsets
    into a source row for each (sign, decimal-point class, significant
    digits - 1), then word, -word."""
    limbs = []
    for k in range(-324, 293):
        # floor(10**-k / 2**r) + 1 in [2**125, 2**126)
        num, den, r = 10 ** max(-k, 0), 10 ** max(k, 0), _flog2pow10(-k) - 125
        g = (num << -r) // den + 1 if r < 0 else num // (den << r) + 1
        g1, g0 = g >> 63, g & (2**63 - 1)
        limbs.append((g1, g1 >> 32, g1 & (2**32 - 1), g0 >> 32, g0 & (2**32 - 1)))
    groups, exponents = _group_tables()
    digits = groups[:10_000].view(np.uint8).reshape(10_000, 4)
    zeros = np.argmax(digits[:, ::-1] != ord("0"), axis=1).astype(np.uint8)
    zeros[0] = 4
    words = b"".join(word.ljust(8, b"\0") for word in (b"inf", b"nan", b"0.0"))
    suffixes = np.concatenate([exponents, np.frombuffer(words, dtype=_U)])

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
    return g_limbs, zeros, suffixes, patterns


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
    g = [limb[k + 324] for limb in _float_tables()[0]]
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
    groups = _group_tables()[0]
    _, zeros, suffixes, patterns = _float_tables()
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
