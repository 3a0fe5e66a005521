"""The CLI's CSV cells against the per-cell ``repr`` oracle, byte for byte."""

import os
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import shortest_tables
from csv_oracle import csv_text_loop
from fresh_interpreter import fresh_python
from spherefall import _shortest, cli


def _check_against_oracle(values: np.ndarray, ncols: int) -> None:
    cells = np.resize(values, -(-len(values) // ncols) * ncols).reshape(-1, ncols)
    header = [f"c{j}" for j in range(ncols)]
    columns = list(cells.T)
    assert cli._csv_text(header, columns) == csv_text_loop(header, columns).encode("ascii")


@given(st.lists(st.integers(0, 2**64 - 1), max_size=64),
       st.lists(st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True), max_size=64),
       st.integers(1, 8))
@settings(max_examples=300, deadline=None)
def test_every_cell_prints_as_repr(bit_patterns, floats, ncols):
    # Raw 64-bit patterns reach every exponent, NaN payloads and subnormals included.
    values = np.concatenate([np.array(bit_patterns, dtype=np.uint64).view(np.float64),
                             np.array(floats, dtype=np.float64), [-0.0]])
    _check_against_oracle(values, ncols)


def test_one_call_over_many_blocks_prints_as_repr():
    rng = np.random.default_rng(20201)
    random_bits = rng.integers(0, 2**64, 200_000, dtype=np.uint64).view(np.float64)
    powers = np.array([2.0**j for j in range(-1074, 1024)] + [float(f"1e{j}") for j in range(-323, 309)])
    near = np.concatenate([powers, np.nextafter(powers, 0.0), np.nextafter(powers, np.inf)])
    # Above 2^53 the doubles are the even integers, and repr switches to exponent form at 1e16.
    big = 2.0**53 + 2.0 * np.arange(-64, 65)
    values = np.concatenate([random_bits, near, -near, big, -big])
    assert len(values) > 10 * _shortest._BLOCK_CELLS
    _check_against_oracle(values, 5)
    _check_against_oracle(np.empty(0), 3)


def test_multipliers_bracket_the_powers_of_ten():
    # (g - 1) 2^r <= 10^-k < g 2^r with 2^125 <= g < 2^126, over every k a normal double needs.
    for k in range(-324, 293):
        g1, g0 = shortest_tables.multiplier(k)
        g = g1 << 63 | g0
        scale = Fraction(2) ** (shortest_tables.floor_log2_pow10(-k) - 125)
        assert 1 << 125 <= g < 1 << 126
        assert (g - 1) * scale <= Fraction(10) ** -k < g * scale


@pytest.mark.parametrize("argv", [
    ["trajectory", "--kappa", "2.5", "--solver", "ide", "--T", "2", "--h", "0.001"],
    ["trajectory", "--b", "-1", "--A", "1", "--t0", "1", "--solver", "ode", "--T", "5",
     "--h", "0.01"],
    ["compare", "--kappa", "3", "--eps", "0.5", "--T", "1", "--h", "0.01"],
    ["sweep", "--solver", "closed-form", "--kappas", "0.5,3.95", "--T", "20", "--h", "0.005"],
    ["drag", "--rho-s", "1190", "--rho", "1000", "--mu", "0.1", "--radius", "0.001",
     "--g", "9.8", "--T", "0.005", "--h", "0.0001"],
    # u and du are all -0.0 and 0.0: the formatter's zero rows.
    ["trajectory", "--b", "0", "--A", "0", "--T", "1", "--h", "0.1"],
], ids=["trajectory", "oscillator", "compare", "sweep", "drag", "zeros"])
def test_cli_csv_files_equal_the_oracle_text(tmp_path, monkeypatch, argv):
    expected = []
    write = cli._csv_text

    def recording(header, columns):
        expected.append(csv_text_loop(header, columns))
        return write(header, columns)

    monkeypatch.setattr(cli, "_csv_text", recording)
    out = tmp_path / "out"
    assert cli.main([*argv, "--out", str(out)]) == 0
    paths = sorted(out.glob("trajectory_*.csv")) if out.is_dir() else [out]
    assert len(expected) == len(paths) >= 1
    assert sorted(p.read_text() for p in paths) == sorted(expected)


def test_importing_the_cli_loads_no_formatter():
    done = fresh_python("import sys, spherefall.cli; print('spherefall._shortest' in sys.modules)")
    assert done.stdout.strip() == "False", done.stderr


_TABLE_AT_IMPORT = """
import sys
import numpy as np
from spherefall import _shortest as s
sys.path.insert(0, sys.argv[1])
from shortest_tables import multiplier

rows = s._ROWS
before = {name: column.copy() for name, column in rows.items()}
at = np.arange(1 << 13)
k = rows["e"] - 16 + s._E_MIN - (at >> 12) * s._E_SPAN
zero = at & 0xFFF == 1
# e has a row per sign; the other columns hold only the row without its sign bit.
for r in at.tolist():
    g = (0, 0) if zero[r] else multiplier(int(k[r]))
    assert (int(rows["g1"][r & 0xFFF]), int(rows["g0"][r & 0xFFF])) == g, r
# One cell per row: every sign and biased exponent, with a zero and a nonzero fraction.
bits = (at.astype(np.uint64) >> np.uint64(1) << np.uint64(52)) | (~at & 1).astype(np.uint64)
values = bits.view(np.float64)
assert s.cells_text(values[:, None], b" ").decode().split() == [repr(v) for v in values.tolist()]
assert rows.keys() == before.keys()
for name, column in rows.items():
    assert column.dtype == before[name].dtype and np.array_equal(column, before[name]), name
print("ok")
"""


def test_exponent_table_is_whole_at_import_and_formatting_leaves_it_unchanged():
    # A new interpreter, so no earlier formatting in this process can have touched the table.
    done = fresh_python(_TABLE_AT_IMPORT, os.path.dirname(__file__))
    assert done.stdout.strip() == "ok", done.stderr


def _table_rows():
    """Every normal (biased exponent, power-of-two flag) pair with its row of the kernel's table."""
    biased, flag = np.meshgrid(np.arange(1, 2047), [0, 1], indexing="ij")
    biased, flag = biased.ravel(), flag.ravel()
    return biased, flag, 2 * biased + flag


def test_exponent_table_rows_follow_the_floor_logs_and_multipliers():
    rows = _shortest._ROWS
    for b, f, r in zip(*_table_rows()):
        q, irregular = int(b) - 1075, bool(f) and b > 1
        k = (shortest_tables.floor_log10_three_quarters_pow2(q) if irregular
             else shortest_tables.floor_log10_pow2(q))
        h = q + shortest_tables.floor_log2_pow10(-k) + 2
        # e has a row per sign; the other columns hold only the row without its sign bit.
        for sign in (0, 1):
            at = r + sign * 4096
            assert rows["e"][at] - 16 + _shortest._E_MIN - sign * _shortest._E_SPAN == k
        assert rows["h"][r] == h
        # The carry-free _mul_high bound needs h <= 5.
        assert 2 <= h <= 5
        assert rows["left"][r] == (1 if irregular else 2)
        assert (int(rows["g1"][r]), int(rows["g0"][r])) == shortest_tables.multiplier(k)
        assert not rows["outside"][r]
    assert len(rows["e"]) == 8192 and all(len(rows[name]) == 4096 for name in
                                          ("h", "left", "g1", "g0", "outside"))
    subnormal_and_top = np.array([0, 4094, 4095])
    assert rows["outside"][subnormal_and_top].all()
    # A zero row has g = 0, so its digits are 0; they count as 16 digits, which take e - 1.
    assert not rows["outside"][1] and rows["g1"][1] == rows["g0"][1] == 0
    assert 2 <= rows["h"][1] <= 5
    for at in (1, 1 + 4096):
        assert rows["e"][at] - 1 + _shortest._E_MIN - (at >> 12) * _shortest._E_SPAN == 0


_TABLE_FILE = os.path.join(os.path.dirname(_shortest.__file__), "_shortest_tables.bin")


def test_table_file_holds_the_reference_tables_byte_for_byte():
    # `python tests/shortest_tables.py` writes the file; this fails until it is run after a change.
    built = shortest_tables.tables()
    assert [(name, (t.dtype.str, t.shape)) for name, t in built.items()] == list(
        _shortest._LAYOUT.items())
    with open(_TABLE_FILE, "rb") as f:
        assert f.read() == shortest_tables.table_bytes()
    for name, table in _shortest._TABLES.items():
        assert not table.flags.writeable, name
    with pytest.raises(ValueError, match="read-only"):
        _shortest._ROWS["g1"][0] = 0


def test_a_table_file_of_the_wrong_size_fails_loudly(tmp_path):
    size = os.path.getsize(_TABLE_FILE)
    short = tmp_path / "short.bin"
    with open(_TABLE_FILE, "rb") as f:
        short.write_bytes(f.read(size - 8))
    with pytest.raises(ValueError, match=f"short.bin: {size - 8} bytes, .* needs {size}$"):
        _shortest._load(str(short))


def test_kernel_digits_have_sixteen_or_seventeen_digits():
    # The digit layout pads to seventeen digits and relies on this, at every exponent.
    biased, flag, _ = _table_rows()
    rng = np.random.default_rng(16)
    fractions = [np.zeros(len(biased), dtype=np.uint64), np.full(len(biased), 1, dtype=np.uint64),
                 np.full(len(biased), (1 << 52) - 1, dtype=np.uint64),
                 rng.integers(1, 1 << 52, len(biased), dtype=np.uint64)]
    for fraction in fractions:
        fraction = np.where(flag == 1, 0, fraction).astype(np.uint64)
        bits = (biased.astype(np.uint64) << np.uint64(52)) | fraction
        digits, _ = _shortest._shortest(bits)
        assert (digits >= 10**15).all() and (digits < 10**17).all()
        text = _shortest.cells_text(bits.view(np.float64)[:, None], b"\n")
        assert text.decode().split() == [repr(v) for v in bits.view(np.float64).tolist()]


def test_cells_text_rejects_a_bad_separator_layout():
    cells = np.zeros((2, 2))
    with pytest.raises(ValueError):
        _shortest.cells_text(cells, b",")
    with pytest.raises(ValueError):  # one byte per column: a longer separator is a bad layout
        _shortest.cells_text(cells, b",\n\n")
    with pytest.raises(ValueError):
        _shortest.cells_text(cells, b",\0")
    with pytest.raises(ValueError):  # byte 1 marks the cells that repr prints
        _shortest.cells_text(cells, b",\1")


# Cells the kernel does not lay out itself (subnormal, NaN, infinite) and the zeros.
RARE = [5e-324, np.nan, -np.inf, 0.0, -0.0]


def edge_positions(ncols: int) -> list[list[int]]:
    """Flat cell indices: the first cell, each side of the first block boundary, the final cell,
    and all four at once."""
    boundary = max(1, _shortest._BLOCK_CELLS // ncols) * ncols  # the second block's first cell
    return [[0], [boundary - 1], [boundary], [-1], [0, boundary - 1, boundary, -1]]


@pytest.mark.parametrize("ncols", [1, 3, 8])
@pytest.mark.parametrize("rare", RARE, ids=repr)
def test_rare_cells_at_the_edges_print_as_repr(rare, ncols):
    values = np.random.default_rng(17).standard_normal(2 * _shortest._BLOCK_CELLS + 5 * ncols)
    for at in edge_positions(ncols):
        placed = values.copy()
        placed[at] = rare
        _check_against_oracle(placed, ncols)
