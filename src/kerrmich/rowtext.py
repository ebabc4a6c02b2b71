"""Rows of text as NUL-padded byte tables, byte for byte what `%` gives.

`digit_texts` writes the decimal digits of unsigned integers from tables
of 4-digit groups, `scaled_texts` writes `%.Ne` and `%.Nf` of floats from
scaled digits wherever those are provably `%`'s (and hands every other
value to `%`), and `text_table` holds any texts. `join_texts` lays such
tables out between fixed texts as one NUL-padded byte table: the one row
layout, of `verify`'s labels and check lines and of sweep CSV and JSON
rows, whose callers delete the NULs. The digit tables are built on first
use.
"""

import functools

import numpy as np

_U = np.uint64

# A value scaled by at most two exact powers of ten is off by less than
# 3 2**-53 of itself, so below _SCALED_MAX and at least _EDGE from half an
# integer it rounds to the integer its exact value rounds to.
_SCALED_MAX, _EDGE = 1e9, 1e-6
# 10**k for k = -22..22 as _UP[k + 22] / _DOWN[k + 22], one of them 1.
_UP = np.array([10.0 ** max(k, 0) for k in range(-22, 23)])
_DOWN = _UP[::-1].copy()


def join_texts(fixed: list[bytes], tables: list[np.ndarray]) -> np.ndarray:
    """fixed[0] + tables[0][i] + fixed[1] + ... + fixed[-1] as row i of a
    NUL-padded [rows, width] uint8 table, for each row i of the NUL-padded
    text tables. The caller deletes the NULs, in the way that suits how
    many there are."""
    pieces = [fixed[0]]
    for table, text in zip(tables, fixed[1:]):
        pieces += [table, text]
    return _side_by_side(len(tables[0]), pieces)


@functools.cache
def _group_tables() -> tuple[np.ndarray, np.ndarray]:
    """The 4-digit groups 0..9999 as ASCII, one uint32 each, three ways:
    zero-padded, then with leading zeros as NULs, then the same but with
    0 as "0"; and the exponent texts e-99..e+99, one uint32 each. Every
    array stays below glibc's 128 KiB mmap threshold: freeing a larger
    one raises the threshold, and later arrays below it then grow the
    heap, which keeps the pages."""
    padded = np.empty((10_000, 4), dtype=np.uint8)
    i = np.arange(10_000, dtype=np.uint16)
    for j in range(4):
        padded[:, j] = i // 10 ** (3 - j) % 10 + ord("0")
    blank = np.where(np.logical_and.accumulate(padded == ord("0"), axis=1), np.uint8(0), padded)
    units = blank.copy()
    units[0, 3] = ord("0")
    groups = np.concatenate([padded, blank, units]).view(np.uint32).ravel()
    exponents = b"".join(b"e%+03d" % e for e in range(-99, 100))
    return groups, np.frombuffer(exponents, dtype=np.uint32)


def digit_texts(values: np.ndarray, count: int | None = None) -> np.ndarray:
    """The decimal digits of each uint64 value (`%d`) as ASCII in an
    [n, width] uint8 array: the last `count` digits, zero-padded, or if
    count is None all of them, right-aligned after NULs."""
    groups = _group_tables()[0]
    top = int(values.max(initial=0))
    blank = count is None
    if blank:
        count = len(str(top))
    elif top >= 10**count:
        values = values % _U(10**count)
    quads = -(-count // 4)
    table = np.empty((len(values), quads), dtype=np.uint32)
    leading = blank  # no digit yet in the groups above: NULs, not zeros
    for j in reversed(range(quads)):
        quad = values // _U(10 ** (4 * j)) if j else values
        quad = (quad % _U(10_000) if j < quads - 1 else quad).astype(np.intp)
        if leading is False:
            table[:, quads - 1 - j] = groups[quad]
        else:
            table[:, quads - 1 - j] = groups[quad + leading * (20_000 if j == 0 else 10_000)]
            leading = leading & (quad == 0)
    return table.view(np.uint8)[:, 4 * quads - count :]


def text_table(texts) -> np.ndarray:
    """The texts, UTF-8 encoded, in a NUL-padded [n, width] uint8 array. A
    text that holds a NUL raises ValueError."""
    encoded = [text.encode() for text in texts]
    if b"\0" in b"".join(encoded):
        raise ValueError("a text in a table of texts holds no NUL")
    table = np.array(encoded, dtype=bytes)
    return table.view(np.uint8).reshape(len(encoded), table.itemsize)


def _side_by_side(rows: int, pieces: list) -> np.ndarray:
    """A [rows, width] uint8 array of the pieces side by side: a bytes
    string repeated on every row, or an [rows, w] uint8 array whose rows
    are contiguous. The bytes strings are laid out in one template row,
    copied to every row at once; each array is then copied as one column
    of w-byte items, which is faster than w columns of bytes."""
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
        exponents = np.take(_group_tables()[1], e + 99, mode="clip")
        pieces = [digits[:, :1], b".", digits[:, 1:], exponents.view(np.uint8).reshape(-1, 4)]
    else:
        pieces = [digit_texts(m // _U(10**precision)), b".", digit_texts(m, precision)]
    table = _side_by_side(len(values), pieces)
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
