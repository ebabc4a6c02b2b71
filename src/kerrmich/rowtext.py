"""Rows of text as NUL-padded byte tables, byte for byte what `%` and
`repr` give.

Three formatters read one table of 4-digit groups and one of exponent
texts: `digit_texts` writes `%d` of unsigned integers, `scaled_texts`
`%.Ne` and `%.Nf` of floats from scaled digits wherever those are provably
`%`'s (handing every other value to `%`), and `float_texts` `repr` of
floats. `text_table` holds any texts. `row_table` is the one row layout,
of `verify`'s labels and check lines and of sweep CSV and JSON rows: it
lays a row's fixed texts out once, in every row of a NUL-padded byte
table held in a bytearray, and gives a slot for each column of texts,
which its caller fills whole or a piece of rows at a time; `join_texts`
fills every slot at once. The callers delete the NULs: the sweep writer
from the bytearray itself, on the bytes' one copy to the file. Every
table is built on first use.

`float_texts` finds each value's shortest round-trip digits with the
Schubfach algorithm (R. Giulietti, "The Schubfach way to render doubles",
2020) in uint64 arithmetic, and lays them out as `float.__repr__` does:
scientific when the decimal point is at or before the fourth zero after
it, or past the 16th digit, with at least two exponent digits; otherwise
positional, with ".0" on integral values. Java's `Double.toString`, which
Schubfach was written for, keeps at least two digits; this keeps the plain
shortest, as Python does ("5e-324"). It formats CHUNK values at a time:
each value's digits and suffix make a 28-byte source row, and its text
is gathered from that row by the byte offsets of its layout, straight
into the result. Its own tables are cached apart from the shared ones,
so a process that formats no `repr` never builds them.
"""

import functools
import itertools
import operator

import numpy as np

_U = np.uint64
_M32, _FRACTION = _U(2**32 - 1), _U(2**52 - 1)
_POW10 = np.array([10**i for i in range(18)], dtype=_U)

# Values `float_texts` formats at once, and rows of texts it gathers at
# once. A chunk's ~20 live work arrays of 32 kB stay below glibc's 128 KiB
# mmap threshold; 2048 values took ~20% longer per value, and 8192 (or
# one [3, 4096] array for the three Schubfach products) let the heap top
# outgrow glibc's trim threshold, so that a 1e5-row CSV sweep faulted in
# ~20k more pages (~2.5 us each on a 2-core Linux VM). The gather's
# [GATHER_ROWS, 24] byte index is 96 kB.
CHUNK = 4096
GATHER_ROWS = 512

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


def row_table(
    pieces: list[bytes | int], rows: int
) -> tuple[bytearray, np.ndarray, list[np.ndarray]]:
    """The row layout: a new bytearray holding a [rows, width] uint8
    table, row after row, whose every row holds the pieces side by side,
    in order, each a bytes string laid out in every row or the width
    w > 0 of a column of texts, left NUL; that table, a view of the
    array; and the slot of each column, a [rows] view of the table's
    w-byte items there, into which the caller writes the column's
    `items`, in one go or a part at a time. The fixed texts are laid out
    in one template row, repeated to every row, and a caller that refills
    the slots reuses them. A writer deletes the NULs of the array
    itself with `bytearray.translate`, which makes the one copy of the
    bytes on their way out."""
    template = b"".join(p if isinstance(p, bytes) else bytes(p) for p in pieces)
    buffer = bytearray(template) * rows
    table = np.frombuffer(buffer, dtype=np.uint8).reshape(rows, len(template))
    slots, start = [], 0
    for piece in pieces:
        if isinstance(piece, bytes):
            start += len(piece)
        else:
            slots.append(table[:, start : start + piece].view(f"V{piece}")[:, 0])
            start += piece
    return buffer, table, slots


def items(texts: np.ndarray) -> np.ndarray:
    """A NUL-padded [n, w] uint8 table of texts whose rows are contiguous,
    w > 0, as n w-byte items: copied as one column of items, faster than w
    columns of bytes."""
    return texts.view(f"V{texts.shape[1]}")[:, 0]


def join_texts(pieces: list[bytes | np.ndarray]) -> np.ndarray:
    """The pieces of a row side by side, in order, as one NUL-padded
    [rows, width] uint8 table laid out by `row_table`: each piece a bytes
    string repeated on every row, or a NUL-padded [rows, w] uint8 table of
    texts whose rows are contiguous; at least one is a table. The caller
    deletes the NULs, in the way that suits how many there are."""
    rows = next(len(p) for p in pieces if not isinstance(p, bytes))
    # a table of no width adds nothing
    pieces = [p if isinstance(p, bytes) or p.shape[1] else b"" for p in pieces]
    _, table, slots = row_table([p if isinstance(p, bytes) else p.shape[1] for p in pieces], rows)
    for slot, texts in zip(slots, (p for p in pieces if not isinstance(p, bytes))):
        slot[:] = items(texts)
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
        raise ValueError("a text in a table of texts must not hold a NUL")
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
    k = -324..292, as one [5, 617] array of g1 and the 32-bit limbs of g1
    and g0; each 4-digit group's trailing zeros; suffixes by decimal-point
    position -324..310 (the exponent texts), then the words; and the
    patterns, byte offsets into a source row for each (sign, decimal-point
    class, significant digits - 1), then word, -word."""
    # g = floor(10**-k / 2**r) + 1 in [2**125, 2**126), r = flog2pow10(-k) - 125
    shifts = (_flog2pow10(np.arange(324, -293, -1)) - 125).tolist()
    tens = list(itertools.accumulate(itertools.repeat(10, 324), operator.mul, initial=1))
    gs = [(tens[e] >> r if r >= 0 else tens[e] << -r) + 1 for e, r in zip(range(324, -1, -1), shifts)]
    gs += [(1 << -r) // tens[k] + 1 for k, r in zip(range(1, 293), shifts[325:])]
    low, high = np.frombuffer(b"".join(g.to_bytes(16, "little") for g in gs), "<u8").reshape(-1, 2).T
    g1, g0 = high << _U(1) | low >> _U(63), low & _U(2**63 - 1)
    g = np.stack([g1, g1 >> _U(32), g1 & _M32, g0 >> _U(32), g0 & _M32])
    zeros = np.zeros(10_000, dtype=np.uint8)
    for step in (10, 100, 1000, 10_000):  # 0 has four
        zeros[::step] += 1
    words = b"".join(word.ljust(8, b"\0") for word in (b"inf", b"nan", b"0.0"))
    suffixes = np.concatenate([_group_tables()[1], np.frombuffer(words, dtype=_U)])
    return g, zeros, suffixes, _patterns()


def _patterns() -> np.ndarray:
    """The [750, 24] source-row offsets of each layout (see `_float_tables`)."""
    j = np.arange(24)
    n = np.arange(17)[:, None]  # significant digits - 1
    point = np.arange(-4, 18)[:, None, None]  # decimal-point class - 4
    # positional: the digits, zero-padded, with the dot after max(point, 1) texts
    before = np.maximum(point, 1)
    i = j - before + point - (j > before)  # the digit at text position j
    text = np.where((i >= 0) & (i <= n), 3 + i, _ZERO)
    text = np.where(j == before, _DOT, text)
    text = np.where(j > np.maximum(n + before - point, before) + 1, _NUL, text)
    # scientific (classes 0 and 21): a digit, a dot if more follow, the suffix
    dot = n > 0
    end = n + 1 + dot
    digits = np.where((j == 1) & dot, _DOT, 3 + j - (j >= 1) * dot)
    text[[0, 21]] = np.where(j < end, digits, np.where(j < end + 5, _SUFFIX + j - end, _NUL))
    patterns = np.full((2 * 22 * 17 + 2, 24), _NUL, dtype=np.intp)
    signed = patterns[:-2].reshape(2, 22 * 17, 24)
    signed[0] = text.reshape(-1, 24)
    signed[1, :, 0] = _MINUS
    signed[1, :, 1:] = signed[0, :, :-1]
    patterns[-2, :3] = patterns[-1, 1:4] = range(_SUFFIX, _SUFFIX + 3)
    patterns[-1, 0] = _MINUS
    return patterns


def _rop(g: np.ndarray, cp: np.ndarray) -> np.ndarray:
    """Schubfach's r_o(g cp 2**-127), for cp < 2**60, g the five rows of
    `_float_tables`'s multipliers taken at each value's k: the high 64
    bits of g1 cp and g0 cp each come from four 32x32-bit products, whose
    sums cannot carry out of 64 bits at these sizes."""
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
    g = _float_tables()[0].take(k + 324, axis=1)
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
    uint8 array; view it as "S24" for one bytes string per value. Each
    chunk's texts are gathered straight into the result by one byte
    index, held for the call."""
    values = np.ascontiguousarray(values, dtype=np.float64).ravel()
    result = np.empty((len(values), 24), dtype=np.uint8)
    index = np.empty((min(len(values), GATHER_ROWS), 24), dtype=np.intp)
    for lo in range(0, len(values), CHUNK):
        _format_chunk(values[lo : lo + CHUNK].view(_U), index, result[lo : lo + CHUNK])
    return result


@functools.cache
def _row_starts(rows: int) -> np.ndarray:
    """The first byte of each of rows source rows, as a [rows, 1] column:
    built once for GATHER_ROWS rows and sliced for fewer."""
    return (np.arange(rows, dtype=np.intp) * 28)[:, None]


def _format_chunk(bits: np.ndarray, index: np.ndarray, out: np.ndarray) -> None:
    """Write `repr` of the floats of the bits into out, [n, 24], gathering
    len(index) rows at a time by way of index, an [m, 24] intp array."""
    groups = _group_tables()[0]
    _, zeros, suffixes, patterns = _float_tables()
    n = len(bits)
    sign = (bits >> _U(63)).astype(np.intp)
    top = (bits >> _U(52)).astype(np.intp) & 0x7FF
    # -1 for a finite nonzero value, else 0, 1 or 2 for inf, nan or 0.0,
    # which take the digits of 1.0 and print their word
    word = np.where(top == 0x7FF, (bits & _FRACTION) != _U(0), np.where(bits << _U(1), -1, 2))
    f, k = _shortest(np.where(word < 0, bits, _U(0x3FF0_0000_0000_0000)))
    length = np.searchsorted(_POW10, f, side="right")
    f = (f * _POW10[17 - length]).astype(np.int64)  # 17 digits
    head, rest = np.divmod(f, 10**16)
    high, low = np.divmod(rest, 10**8)
    quads = [head + 10_000, *np.divmod(high, 10**4), *np.divmod(low, 10**4)]
    src = np.empty((n, 7), dtype=np.uint32)
    for i, quad in enumerate(quads):
        src[:, i] = groups.take(quad)
    point = k + length
    src[:, 5:].view(_U)[:, 0] = suffixes.take(np.where(word < 0, point + 324, 635 + word))
    tz = [zeros.take(quad) for quad in quads[1:]]
    tz = tz[3] + (quads[4] == 0) * (tz[2] + (quads[3] == 0) * (tz[1] + (quads[2] == 0) * tz[0]))
    # decimal-point classes 0 and 21 are scientific, 1..20 positional
    key = (sign * 22 + np.clip(point, -4, 17) + 4) * 17 + 16 - tz
    key = np.where(word < 0, key, 748 + sign * (word != 1))
    # every key and byte offset is in range by construction, so "clip"
    # changes nothing and lets `take` write into its out without a copy
    src = src.view(np.uint8).ravel()
    starts = _row_starts(GATHER_ROWS)
    for lo in range(0, n, len(index)):
        rows = index[: min(len(index), n - lo)]
        np.take(patterns, key[lo : lo + len(rows)], axis=0, out=rows, mode="clip")
        rows += starts[: len(rows)]
        np.take(src[28 * lo :], rows, out=out[lo : lo + len(rows)], mode="clip")
