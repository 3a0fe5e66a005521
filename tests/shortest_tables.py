"""The CSV formatter's constant tables, derived: the reference for its table file.

``spherefall._shortest`` reads its tables from ``_shortest_tables.bin``
beside it, as its ``_LAYOUT`` lists them.  This module builds each table
from its definition, without importing spherefall, and the tier-1 tests
hold the file to :func:`table_bytes` byte for byte and ``_LAYOUT`` to the
names, dtypes and shapes of :func:`tables`.  After a change to either,
regenerate the file with

    python tests/shortest_tables.py
"""

from __future__ import annotations

import os

import numpy as np

PATH = os.path.join(os.path.dirname(__file__), "..", "src", "spherefall", "_shortest_tables.bin")

# The decimal exponent e of a normal double's first digit lies in [-308, 308]; the
# tables over e index it, with the sign, as _E_SPAN * sign + e - _E_MIN.
_E_MIN, _E_SPAN = -309, 620


def floor_log10_pow2(e):
    return (e * 661_971_961_083) >> 41


def floor_log10_three_quarters_pow2(e):
    return (e * 661_971_961_083 - 274_743_187_321) >> 41


def floor_log2_pow10(e):
    return (e * 913_124_641_741) >> 38


def multiplier(k: int) -> tuple[int, int]:
    """g(k) = floor(10^-k 2^(125 - floor(log2 10^-k))) + 1 in [2^125, 2^126), as (g >> 63, g mod 2^63)."""
    e2 = 125 - floor_log2_pow10(-k)
    if k > 0:
        g = (1 << e2) // 10**k
    elif e2 >= 0:
        g = 10**-k << e2
    else:
        g = 10**-k >> -e2
    g += 1
    return g >> 63, g & ((1 << 63) - 1)


def exponent_table() -> dict[str, np.ndarray]:
    """The kernel's per-cell constants, by row 2 (bits >> 52) + (fraction == 0).

    Only e carries the sign, so only e has a row per sign; the other columns
    hold the 4096 rows without the sign bit.  A subnormal, infinite or NaN
    row, and the zero row, repeat the nearest normal row; a zero row then
    takes g = 0 and decimal exponent 0.
    """
    row = np.arange(1 << 12)
    biased = row >> 1
    nearest = np.clip(biased, 1, 0x7FE)
    zero = (biased == 0) & (row & 1 == 1)
    # The smallest normal exponent has subnormals below it, as evenly spaced.
    power_of_two = (row & 1 == 1) & (nearest > 1)
    q = nearest - 1075
    k = np.where(power_of_two, floor_log10_three_quarters_pow2(q), floor_log10_pow2(q))
    g = np.array([multiplier(j) for j in range(k.min(), k.max() + 1)], dtype=np.uint64)
    g = g[k - k.min()]
    g[zero] = 0
    # A zero's digits, 0, count as 16 digits, so its 1 gives decimal exponent 0.
    e = np.where(zero, 1, k + 16) - _E_MIN
    return {
        "e": np.concatenate([e, e + _E_SPAN]).astype(np.intp),  # positive, then negative
        "h": (q + floor_log2_pow10(-k) + 2).astype(np.uint64),
        "left": np.where(power_of_two, 1, 2).astype(np.uint64),
        "g1": g[:, 0],
        "g0": g[:, 1],
        "outside": (nearest != biased) & ~zero,
    }


def layout_code(negative: np.ndarray, e: np.ndarray, n: np.ndarray) -> np.ndarray:
    """The row of the mask table for a cell's sign, decimal exponent e and digit count n.

    Exponents -4..15 each have their own layout; scientific ones differ only
    in having two or three exponent digits.
    """
    exponent_class = np.where((e < -4) | (e >= 16), 20 + (np.abs(e) >= 100), e + 4)
    return (negative * 22 + exponent_class) * 18 + n


def mask_table() -> np.ndarray:
    """The slots each layout prints, as 0xFF bytes of six words; the last row prints slot 0 only."""
    grid = np.meshgrid([0, 1], np.r_[-4:17, 100], np.arange(18), indexing="ij")
    negative, e, n = (a.ravel() for a in grid)
    small = (e < 0) & (e >= -4)
    scientific = (e < -4) | (e >= 16)
    keep = np.zeros((len(e), 48), dtype=bool)
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
    table = np.zeros((len(e) + 1, 48), dtype=np.uint8)
    table[layout_code(negative, e, n)] = keep * 0xFF
    table[-1, 0] = 0xFF
    return table.view("<u8")


def tables() -> dict[str, np.ndarray]:
    """Every table of the file, in its order, by its name in ``_shortest._LAYOUT``."""
    group_digits = np.indices((10,) * 4).reshape(4, -1)  # the digits of 0..9999, by place
    groups = np.full((10**4, 8), ord("."), dtype=np.uint8)
    groups[:, ::2] = group_digits.T + ord("0")
    # The digit count up to the last nonzero digit of group j = 0..3, or 1 if the group is zero.
    last_nonzero = np.max((group_digits != 0) * np.arange(1, 5)[:, None], axis=0)
    digit_count = np.where(last_nonzero > 0, last_nonzero + 4 * np.arange(4)[:, None] + 1, 1)
    e = np.tile(np.arange(_E_SPAN) + _E_MIN, 2)
    exponent = np.zeros((2 * _E_SPAN, 8), dtype=np.uint8)  # 'e', sign, three digits, by sign and e
    exponent[:, 0] = ord("e")
    exponent[:, 1] = np.where(e < 0, ord("-"), ord("+"))
    exponent[:, 2:5] = np.abs(e)[:, None] // np.array([100, 10, 1]) % 10 + ord("0")
    return {
        **exponent_table(),
        "lead": np.frombuffer(b"".join(b"-0.000%d." % d for d in range(10)), dtype="<u8"),
        "groups": groups.view("<u8")[:, 0],
        "exponent": exponent.view("<u8")[:, 0],
        "e_code": layout_code(np.repeat([0, 1], _E_SPAN), e, 0),  # with n = 0
        "mask": mask_table(),
        "digit_count": digit_count.astype(np.uint8),
    }


def table_bytes() -> bytes:
    """The file's bytes: the tables in order, each C-ordered in its little-endian dtype."""
    return b"".join(np.ascontiguousarray(table).tobytes() for table in tables().values())


if __name__ == "__main__":
    with open(PATH, "wb") as f:
        f.write(table_bytes())
    print(f"wrote {os.path.normpath(PATH)}")
