"""Text of float64 arrays, each cell byte-identical to ``repr(float(cell))``, in numpy.

``repr`` prints the shortest decimal that reads back as the same double,
the closest such decimal to it, ties to an even last digit.  Schubfach
(R. Giulietti, "The Schubfach way to render doubles", 2020, the
algorithm behind Java 19's ``Double.toString``) finds that decimal with
a few integer products per value: for v = c 2^q it scales v and the two
ends of its rounding interval by a 126-bit approximation g of 10^-k,
where 10^k is about the spacing of the doubles next to v, and reads the
candidate digits off the products.  Here that runs on uint64 arrays,
with the 64x64 -> 128-bit high products formed from 32-bit limbs.  Every
uint64 expression combines only uint64 arrays and ``np.uint64`` scalars:
mixing in a signed array promotes to float64.

k, the shift h and g(k) depend only on the biased exponent and on
whether the fraction is zero (a power of two), so one table row per
pair holds them for either sign; only the decimal exponent's index,
which carries the sign, has a row per sign.  For a normal double the
digits have 16 or 17 digits; they are padded to seventeen and split
into a first digit and four groups of four, which give both the text
and, through a 10^4-entry table, the count of digits before the
trailing zeros.  A zero's row has g = 0, so the same search gives it
the digits 0, at decimal exponent 0.

Each cell is then laid out as ``repr`` does (positional iff the decimal
exponent lies in [-4, 16), with ``.0`` on integers, otherwise
``d[.ddd]e±XX``) in a fixed row of 48 byte slots.  A mask per layout
zeroes the slots ``repr`` does not print, the cell's one separator byte
fills the slot after the exponent, and one ``bytes.translate`` per block
of rows deletes the zero bytes.  A subnormal or non-finite cell prints
the marker byte 1 instead, and the block's text is split at the markers
to put ``repr`` of those cells in their place.

The tables, g(k) for all 617 values of k included, are constants: the
module reads them at import from ``_shortest_tables.bin`` beside it
(379 KB), as read-only views of one buffer, and ``_LAYOUT`` gives each
one's place, dtype and shape.  ``tests/shortest_tables.py`` derives
every table from its definition, the tests hold the file to it byte for
byte, and ``python tests/shortest_tables.py`` writes the file anew.
"""

from __future__ import annotations

import math
import os

import numpy as np

__all__ = ["cells_text"]

_U = np.uint64
_BLOCK_CELLS = 8192  # cells per block: ran faster than 4096 or 16384 on the trajectory tables
_M32 = _U(0xFFFFFFFF)
_M63 = _U((1 << 63) - 1)
_FRACTION = _U((1 << 52) - 1)
_HIDDEN = _U(1 << 52)
_TEN = _U(10)
_TEN4, _TEN8, _TEN16 = _U(10**4), _U(10**8), _U(10**16)


# The decimal exponent e of a normal double's first digit lies in [-308, 308]; the
# tables over e index it, with the sign, as _E_SPAN * sign + e - _E_MIN.
_E_MIN, _E_SPAN = -309, 620
_SIGN_FREE = (1 << 12) - 1  # a table row's bits below its sign bit
# The tables in the file's order, each C-ordered: name -> (little-endian dtype, shape).
#
# The first six are the columns of the kernel's table, _ROWS.  A cell's row is
# 2 (bits >> 52) + (fraction == 0), and e, the index over the sign and exponent
# tables of k + 16 (the decimal exponent of the first of 17 digits; 16 digits
# take one less), has all 8192 rows, since it carries the sign.  The other five
# are the same for either sign, so they keep only the row without its sign bit,
# row & _SIGN_FREE: the shift h; the left end's distance from v in units of the
# half step (1 at a power of two, where the double below is half as far as the
# one above, otherwise 2); g(k) as (g >> 63, g mod 2^63); and whether the row is
# a subnormal, infinite or NaN one.  Those rows, and the zero rows, repeat the
# nearest normal row, so the kernel runs on every cell, but a zero row has
# g = 0 and decimal exponent 0 (its digits, 0, count as 16), and the others'
# output is replaced.
#
# A cell is laid out in byte slots, little-endian uint64 words, in output order:
#   word 0: '-', '0', '.', '0', '0', '0', d1, '.'
#   words 1-4: d2 '.' d3 '.' ... d17 '.', four digits to a word
#   word 5: 'e', exponent sign, three exponent digits, the separator, two zeros
# where d1..d17 are the digits padded with zeros to seventeen.  The tables give
# the words by value, and the mask of the slots repr prints, as 0xFF bytes, by
# layout code (negative * 22 + class) * 18 + n for n digits: exponents -4..15
# are classes 0..19, and scientific ones 20 or 21, with two or three exponent
# digits.  The mask's last row prints slot 0 only.
_LAYOUT = {
    "e": ("<i8", (1 << 13,)),
    "h": ("<u8", (1 << 12,)),
    "left": ("<u8", (1 << 12,)),
    "g1": ("<u8", (1 << 12,)),
    "g0": ("<u8", (1 << 12,)),
    "outside": ("|b1", (1 << 12,)),
    "lead": ("<u8", (10,)),  # word 0, by first digit
    "groups": ("<u8", (10**4,)),  # words 1-4, by the value of a group of four digits
    "exponent": ("<u8", (2 * _E_SPAN,)),  # word 5, by sign and e
    "e_code": ("<i8", (2 * _E_SPAN,)),  # the layout code with n = 0, by sign and e
    "mask": ("<u8", (2 * 22 * 18 + 1, 6)),
    # The digit count up to the last nonzero digit of group j = 0..3, or 1 if the group is zero.
    "digit_count": ("|u1", (4, 10**4)),
}


def _load(path: str) -> dict[str, np.ndarray]:
    """The tables of the file at path, as read-only views of one buffer.

    A file whose size is not the layout's raises ValueError.
    """
    sizes = [np.dtype(dtype).itemsize * math.prod(shape) for dtype, shape in _LAYOUT.values()]
    raw = np.fromfile(path, dtype=np.uint8)
    if raw.size != sum(sizes):
        raise ValueError(f"{path}: {raw.size} bytes, but the formatter's table layout "
                         f"needs {sum(sizes)}")
    raw.flags.writeable = False
    tables, start = {}, 0
    for (name, (dtype, shape)), size in zip(_LAYOUT.items(), sizes):
        tables[name] = raw[start : start + size].view(dtype).reshape(shape)
        start += size
    return tables


_TABLES = _load(os.path.join(os.path.dirname(__file__), "_shortest_tables.bin"))
_ROWS = {name: _TABLES[name] for name in ("e", "h", "left", "g1", "g0", "outside")}
_LEAD, _GROUPS, _EXPONENT, _E_CODE, _MASK, _DIGIT_COUNT = (
    _TABLES[name] for name in ("lead", "groups", "exponent", "e_code", "mask", "digit_count"))
_MARK = len(_MASK) - 1  # the layout of a cell that repr prints: the marker byte 1 in slot 0


def _mul_high(a_lo: np.ndarray, a_hi: np.ndarray, b_lo: np.ndarray, b_hi: np.ndarray) -> np.ndarray:
    """The high 64 bits of the 128-bit product a b, from the 32-bit limbs of a < 2^63 and b < 2^60.

    Under those bounds the three middle terms add up below 2^64, so no carry is lost.
    The kernel's b is at most (4c + 2) 2^h < 2^(55 + h), so the bound rests on
    every table row having h <= 5.
    """
    mid = a_hi * b_lo + a_lo * b_hi + ((a_lo * b_lo) >> _U(32))
    return a_hi * b_hi + (mid >> _U(32))


def _round_to_odd(g: tuple[np.ndarray, ...], cp: np.ndarray) -> np.ndarray:
    """g cp / 2^127 for g = g1 2^63 + g0, truncated with a sticky last bit (Schubfach's rop)."""
    g1, g1_lo, g1_hi, g0_lo, g0_hi = g
    cp_lo, cp_hi = cp & _M32, cp >> _U(32)
    z = ((g1 * cp) >> _U(1)) + _mul_high(g0_lo, g0_hi, cp_lo, cp_hi)
    y1 = _mul_high(g1_lo, g1_hi, cp_lo, cp_hi)
    return (y1 + (z >> _U(63))) | (((z & _M63) + _M63) >> _U(63))


def _shortest(bits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The digits that repr prints, 16 or 17 of them with trailing zeros, and each cell's table row.

    Exact for normal doubles, and 0 for zeros; for the others the digits are
    those of a normal double with the same fraction.
    """
    row = ((bits >> _U(52) << _U(1)) | (bits << _U(12) == _U(0))).view(np.int64)
    sign_free = row & _SIGN_FREE
    g1, g0 = _ROWS["g1"][sign_free], _ROWS["g0"][sign_free]
    g = (g1, g1 & _M32, g1 >> _U(32), g0 & _M32, g0 >> _U(32))
    h = _ROWS["h"][sign_free]
    c = (bits & _FRACTION) | _HIDDEN

    # v, and the ends of its rounding interval, scaled by 4 10^-k.
    cb = c << _U(2)
    vb = _round_to_odd(g, cb << h)
    vbl = _round_to_odd(g, (cb - _ROWS["left"][sign_free]) << h)
    vbr = _round_to_odd(g, (cb + _U(2)) << h)
    odd = c & _U(1)  # an odd c excludes the ends of the interval
    vbl += odd
    vbr -= odd

    # One digit fewer: at most one of u' = 10 floor(s/10) and w' = u' + 10 lies in the interval.
    s = vb >> _U(2)
    sp10 = s // _TEN * _TEN
    upin = vbl <= sp10 << _U(2)
    wpin = (sp10 << _U(2)) + _U(40) <= vbr
    # Otherwise s or t = s + 1: the one in the interval, or if both are, the closer, ties to even.
    uin = vbl <= vb & ~_U(3)
    win = (vb | _U(3)) + _U(1) <= vbr
    t_closer = (vb & _U(3)) + (s & _U(1)) > _U(2)
    longer = s + ((win & ~uin) | (t_closer & (uin == win)))
    shorter = sp10 + wpin * _TEN
    return longer + (upin != wpin) * (shorter - longer), row


def _block(x: np.ndarray, sep: np.ndarray) -> bytes:
    """The cells of x in order, each as repr prints it and followed by its separator byte.

    sep holds each cell's separator byte at its slot of word 5, for at least len(x) cells.
    """
    bits = x.view(np.uint64)
    digits, row = _shortest(bits)
    sixteen = digits < _TEN16
    padded = digits + sixteen * (digits * _U(9))
    first = padded // _TEN16
    rest = padded - first * _TEN16
    hi = rest // _TEN8
    lo = rest - hi * _TEN8
    g1, g3 = hi // _TEN4, lo // _TEN4
    groups = [g.view(np.int64) for g in (g1, hi - g1 * _TEN4, g3, lo - g3 * _TEN4)]
    n = np.maximum(np.maximum(_DIGIT_COUNT[0][groups[0]], _DIGIT_COUNT[1][groups[1]]),
                   np.maximum(_DIGIT_COUNT[2][groups[2]], _DIGIT_COUNT[3][groups[3]]))
    e = _ROWS["e"][row] - sixteen
    code = _E_CODE[e] + n

    text, sep = np.empty((len(x), 6), dtype="<u8"), sep[: len(x)]
    text[:, 0] = _LEAD[first]
    for j, grp in enumerate(groups, 1):
        text[:, j] = _GROUPS[grp]
    text[:, 5] = _EXPONENT[e]

    outside = _ROWS["outside"][row & _SIGN_FREE]
    text[outside, 0] = 1
    code[outside] = _MARK

    text &= np.take(_MASK, code, axis=0)
    text[:, 5] |= sep
    out = text.tobytes().translate(None, b"\0")
    if not outside.any():  # bytes.split scans byte by byte, and most blocks hold no marker
        return out
    parts = out.split(b"\1")
    cells = [repr(v).encode("ascii") for v in x[outside].tolist()]
    return b"".join([piece for pair in zip(parts, cells) for piece in pair] + parts[-1:])


def cells_text(cells: np.ndarray, seps: bytes) -> bytes:
    """The cells of a 2-D float array in row order, each as ``repr(float(cell))``.

    Cell j of each row, the final cell of the array included, is followed by
    the separator byte ``seps[j]``, which may be neither 0 nor 1.
    """
    cells = np.ascontiguousarray(cells, dtype=np.float64)
    rows, cols = cells.shape
    if len(seps) != cols or b"\0" in seps or b"\1" in seps:
        raise ValueError("cells_text: one separator byte per column, neither 0 nor 1")
    if cells.size == 0:
        return b""
    step = max(1, _BLOCK_CELLS // cols)
    # Each separator byte goes to slot 45, byte 5 of word 5.
    sep = np.tile(np.frombuffer(seps, dtype=np.uint8).astype(np.uint64) << _U(40), min(step, rows))
    return b"".join([_block(cells[i : i + step].ravel(), sep) for i in range(0, rows, step)])
