"""CSV text of float64 arrays, each cell byte-identical to ``repr(float(cell))``, in numpy.

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

Each cell is then laid out as ``repr`` does (positional iff the decimal
exponent lies in [-4, 16), with ``.0`` on integers, otherwise
``d[.ddd]e±XX``) in a fixed row of character slots with a keep-mask, so
one boolean compress per block of rows gives the text, separators
included.  Subnormal and non-finite cells are not run through the
kernel: they take ``repr`` itself.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

__all__ = ["csv_rows"]

_U = np.uint64
_BLOCK_CELLS = 16384  # cells per compress, to keep the slot rows small
_M32 = _U(0xFFFFFFFF)
_M63 = _U((1 << 63) - 1)
_FRACTION = _U((1 << 52) - 1)
_HIDDEN = _U(1 << 52)
_POW10 = np.array([10**i for i in range(18)], dtype=np.uint64)
_TEN = _U(10)

# A cell is laid out in 48 byte slots, six little-endian uint64 words, in output order:
#   word 0: '-', '0', '.', '0', '0', '0', d1, '.'
#   words 1-4: d2 '.' d3 '.' ... d17 '.', four digits to a word
#   word 5: 'e', exponent sign, three exponent digits, separator, two unused slots
# where d1..d17 are the digits padded with zeros to seventeen.  A keep-mask per
# cell picks the slots that repr prints.  The tables give the words by value.
_WIDTH = 48
_LEAD = np.frombuffer(b"".join(b"-0.000%d." % d for d in range(10)), dtype="<u8")
_EXPONENT = np.frombuffer(b"".join(b"e+%03d\0\0\0" % e for e in range(1000)), dtype="<u8")
_MINUS = _U((ord("-") - ord("+")) << 8)
_GROUPS = np.full((10**4, 8), ord("."), dtype=np.uint8)
_GROUPS[:, ::2] = np.arange(10**4)[:, None] // np.array([1000, 100, 10, 1]) % 10 + ord("0")
_GROUPS = _GROUPS.view("<u8")[:, 0]


def _floor_log10_pow2(e):
    return (e * 661_971_961_083) >> 41


def _floor_log10_three_quarters_pow2(e):
    return (e * 661_971_961_083 - 274_743_187_321) >> 41


def _floor_log2_pow10(e):
    return (e * 913_124_641_741) >> 38


@lru_cache(maxsize=None)
def _multiplier(k: int) -> tuple[int, int]:
    """g(k) = floor(10^-k 2^(125 - floor(log2 10^-k))) + 1 in [2^125, 2^126), as (g >> 63, g mod 2^63)."""
    e2 = 125 - _floor_log2_pow10(-k)
    if k > 0:
        g = (1 << e2) // 10**k
    elif e2 >= 0:
        g = 10**-k << e2
    else:
        g = 10**-k >> -e2
    g += 1
    return g >> 63, g & ((1 << 63) - 1)


def _multipliers(k: np.ndarray) -> tuple[np.ndarray, ...]:
    """g at each k as g1 and the 32-bit limbs of g1 and g0, from a table over the block's k."""
    lo = int(k.min())
    halves = [_multiplier(j) for j in range(lo, int(k.max()) + 1)]
    g1, g0 = np.array(halves, dtype=np.uint64).reshape(-1, 2).T[:, k - lo]
    return g1, g1 & _M32, g1 >> _U(32), g0 & _M32, g0 >> _U(32)


def _mul_high(a_lo: np.ndarray, a_hi: np.ndarray, b_lo: np.ndarray, b_hi: np.ndarray) -> np.ndarray:
    """The high 64 bits of the 128-bit product a b, from the 32-bit limbs of a < 2^63 and b < 2^60.

    Under those bounds the three middle terms add up below 2^64, so no carry is lost.
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
    """Digits and exponent k of the decimal digits 10^k that repr prints, for normal doubles."""
    biased = ((bits >> _U(52)) & _U(0x7FF)).astype(np.int64)
    fraction = bits & _FRACTION
    q = biased - 1075
    c = fraction | _HIDDEN
    # At a power of two the double below is half as far as the one above.
    irregular = (fraction == _U(0)) & (biased > 1)
    k = np.where(irregular, _floor_log10_three_quarters_pow2(q), _floor_log10_pow2(q))
    h = (q + _floor_log2_pow10(-k) + 2).astype(np.uint64)
    g = _multipliers(k)

    # v, and the ends of its rounding interval, scaled by 4 10^-k.
    cb = c << _U(2)
    vb = _round_to_odd(g, cb << h)
    vbl = _round_to_odd(g, (cb - np.where(irregular, _U(1), _U(2))) << h)
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
    return np.where(upin != wpin, sp10 + np.where(upin, _U(0), _TEN),
                    s + np.where(uin != win, win, t_closer)), k


def _strip_zeros(digits: np.ndarray, k: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Move trailing decimal zeros of the digits into the exponent k, 16, 8, 4, 2 and 1 at a time."""
    at = np.flatnonzero(digits % _TEN == _U(0))
    d, e = digits[at], k[at]
    for p in (16, 8, 4, 2, 1):
        quot = d // _POW10[p]
        exact = quot * _POW10[p] == d
        d = np.where(exact, quot, d)
        e = e + np.where(exact, p, 0)
    digits[at], k[at] = d, e
    return digits, k


def _layout_code(negative: np.ndarray, e: np.ndarray, n: np.ndarray) -> np.ndarray:
    """The row of _KEEP for a cell's sign, decimal exponent e and digit count n.

    Exponents -4..15 each have their own layout; scientific ones differ only
    in having two or three exponent digits.
    """
    exponent_class = np.where((e < -4) | (e >= 16), 20 + (np.abs(e) >= 100), e + 4)
    return (negative * 22 + exponent_class) * 18 + n


def _keep_table() -> np.ndarray:
    """The slots each layout prints; the last row prints only the separator."""
    grid = np.meshgrid([0, 1], np.r_[-4:17, 100], np.arange(18), indexing="ij")
    negative, e, n = (a.ravel() for a in grid)
    small = (e < 0) & (e >= -4)
    scientific = (e < -4) | (e >= 16)
    keep = np.zeros((len(e), _WIDTH), dtype=bool)
    keep[:, 0] = negative == 1
    keep[:, 1] = keep[:, 2] = small
    keep[:, 3:6] = np.arange(1, 4) <= np.where(small, -e - 1, 0)[:, None]
    # Positional from 10^0 up: the digits to the point, then at least one after it.
    shown = np.where(small | scientific, n, np.maximum(n, e + 2))
    keep[:, 6:40:2] = np.arange(1, 18) <= shown[:, None]
    point = np.where(scientific, n > 1, np.where(small, 0, e + 1))
    keep[:, 7:40:2] = np.arange(1, 18) == point[:, None]
    keep[:, 40:45] = scientific[:, None]
    keep[:, 42] &= np.abs(e) >= 100
    keep[:, 45] = True
    table = np.zeros((len(e) + 1, _WIDTH), dtype=bool)
    table[_layout_code(negative, e, n)] = keep
    table[-1, 45] = True
    return table


_KEEP = _keep_table()


def _block(x: np.ndarray, sep: np.ndarray) -> bytes:
    """The cells of x in order, each followed by its separator byte, as repr prints them."""
    bits = x.view(np.uint64)
    biased = (bits >> _U(52)) & _U(0x7FF)
    zero = (bits << _U(1)) == _U(0)
    special = ((biased == _U(0)) | (biased == _U(0x7FF))) & ~zero
    # Zeros, subnormals and non-finite cells go through the kernel as 1.0.
    one = np.float64(1.0).view(np.uint64)
    digits, k = _shortest(np.where(zero | special, one, bits))
    digits, k = _strip_zeros(digits, k)
    n = np.searchsorted(_POW10, digits, side="right")  # digit count
    e = k + n - 1  # decimal exponent of the first digit

    # The digits padded to seventeen: d1, then four groups of four.
    padded = np.where(zero, _U(0), digits * _POW10[17 - n])
    first = padded // _POW10[16]
    rest = padded - first * _POW10[16]
    hi = rest // _POW10[8]
    lo = rest - hi * _POW10[8]
    text = np.empty((len(x), _WIDTH // 8), dtype="<u8")
    text[:, 0] = _LEAD[first]
    text[:, 1] = _GROUPS[hi // _POW10[4]]
    text[:, 2] = _GROUPS[hi % _POW10[4]]
    text[:, 3] = _GROUPS[lo // _POW10[4]]
    text[:, 4] = _GROUPS[lo % _POW10[4]]
    text[:, 5] = (_EXPONENT[np.abs(e)] + np.where(e < 0, _MINUS, _U(0))
                  + (sep.astype(np.uint64) << _U(40)))

    code = _layout_code((bits >> _U(63)).astype(np.intp), e, n)
    code[special] = len(_KEEP) - 1  # only the separator; repr fills the cell in below
    keep = np.take(_KEEP, code, axis=0)
    out = np.compress(keep.ravel(), text.view(np.uint8).ravel()).tobytes()
    if not special.any():
        return out

    ends = np.cumsum(keep.sum(axis=1))
    pieces, start = [], 0
    for i in np.flatnonzero(special).tolist():
        at = int(ends[i]) - 1  # the cell's separator
        pieces += [out[start:at], repr(float(x[i])).encode("ascii")]
        start = at
    pieces.append(out[start:])
    return b"".join(pieces)


def csv_rows(cells: np.ndarray) -> str:
    """The rows of a 2-D float array as CSV lines, each cell as ``repr(float(cell))``.

    Cells in a row are separated by ``,`` and every row ends in ``\\n``.
    """
    cells = np.ascontiguousarray(cells, dtype=np.float64)
    rows, cols = cells.shape
    if cells.size == 0:
        return ""
    sep = np.full(cols, ord(","), dtype=np.uint8)
    sep[-1] = ord("\n")
    step = max(1, _BLOCK_CELLS // cols)
    blocks = [_block(cells[i : i + step].ravel(), np.tile(sep, min(step, rows - i)))
              for i in range(0, rows, step)]
    return b"".join(blocks).decode("ascii")
