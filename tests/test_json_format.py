"""The CLI's JSON documents against ``json.dumps(..., indent=1)`` as the oracle, byte for byte."""

import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fresh_interpreter import fresh_python
from spherefall import _shortest, cli
from test_csv_format import RARE, edge_positions


def _json_oracle(**fields) -> bytes:
    """The document as json.dumps writes it, with every array as its list, in ASCII."""
    fields = {k: v.tolist() if isinstance(v, np.ndarray) else v for k, v in fields.items()}
    return (json.dumps({"schema": cli.SCHEMA_VERSION, **fields}, indent=1) + "\n").encode("ascii")


_floats = st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True)
_meta = st.dictionaries(st.text(max_size=5),
                        st.one_of(_floats, st.text(max_size=5), st.booleans()), max_size=3)


@given(st.lists(st.integers(0, 2**64 - 1), max_size=40), st.lists(_floats, max_size=40),
       st.integers(1, 6), _meta)
@settings(max_examples=300, deadline=None)
def test_every_document_prints_as_json_dumps(bit_patterns, floats, ncols, meta):
    # Raw bit patterns reach every exponent; NaN and inf cells go through the kernel too.
    values = np.concatenate([np.array(bit_patterns, dtype=np.uint64).view(np.float64),
                             np.array(floats, dtype=np.float64), [-0.0]])
    finite = values[np.isfinite(values)]
    rows = np.resize(values, -(-len(values) // ncols) * ncols).reshape(-1, ncols)
    fields = dict(meta=meta, column=values, finite=finite, rows=rows, empty=np.empty(0),
                  no_columns=np.empty((3, 0)), label="x", n=3)
    assert cli._json_text(**fields) == _json_oracle(**fields)


def test_arrays_over_many_blocks_print_as_json_dumps():
    rng = np.random.default_rng(16)
    column = rng.integers(0, 2**64, 3 * _shortest._BLOCK_CELLS, dtype=np.uint64).view(np.float64)
    column = column[np.isfinite(column)]
    rows = column[: 8 * (len(column) // 8)].reshape(-1, 8)
    assert cli._json_text(t=column, rows=rows) == _json_oracle(t=column, rows=rows)
    column[12345] = np.inf
    rows[-1, 3] = np.nan
    assert cli._json_text(t=column, rows=rows) == _json_oracle(t=column, rows=rows)


@pytest.mark.parametrize("rare", [*RARE, -2.5e-310], ids=repr)
def test_rare_cells_at_the_edges_print_as_json_dumps(rare):
    # A finite rare cell goes through the kernel, a subnormal final cell included, where the
    # cut of the final separator follows a cell that repr printed; NaN and inf alike.
    rng = np.random.default_rng(17)
    column = rng.standard_normal(2 * _shortest._BLOCK_CELLS + 5)
    rows = rng.standard_normal((2 * _shortest._BLOCK_CELLS // 8 + 5, 8))
    for at_column, at_rows in zip(edge_positions(1), edge_positions(8)):
        t, r = column.copy(), rows.copy()
        t[at_column] = rare
        r.reshape(-1)[at_rows] = rare
        assert cli._json_text(t=t, rows=r) == _json_oracle(t=t, rows=r)


_DRAG = ["drag", "--rho-s", "1190", "--rho", "1000", "--mu", "0.1", "--radius", "0.001",
         "--g", "9.8", "--T", "0.005", "--h", "0.0001"]


@pytest.mark.parametrize("argv", [
    ["trajectory", "--kappa", "2.5", "--solver", "ide", "--T", "2", "--h", "0.001"],
    ["trajectory", "--b", "-1", "--A", "1", "--t0", "1", "--solver", "ode", "--T", "5",
     "--h", "0.01"],
    ["compare", "--kappa", "3", "--eps", "0.5", "--T", "1", "--h", "0.01"],
    ["sweep", "--solver", "closed-form", "--kappas", "0.5,3.95", "--T", "20", "--h", "0.005"],
    ["verify", "--h", "0.01", "--points", "20"],
    _DRAG,
    # Columns and a drag table longer than one formatter block (8192 cells).
    ["trajectory", "--kappa", "2.5", "--T", "20", "--h", "0.001"],
    ["compare", "--kappa", "3", "--eps", "0.5", "--T", "20", "--h", "0.001"],
    ["sweep", "--solver", "closed-form", "--kappas", "0.5,3.95", "--T", "100", "--h", "0.005"],
    ["drag", "--rho-s", "1190", "--rho", "1000", "--mu", "0.1", "--radius", "0.001",
     "--g", "9.8", "--T", "0.05", "--h", "0.00001"],
], ids=["trajectory", "oscillator", "compare", "sweep", "verify", "drag", "trajectory-blocks",
        "compare-blocks", "sweep-blocks", "drag-blocks"])
def test_cli_json_files_equal_the_oracle_text(tmp_path, monkeypatch, argv):
    expected = []
    write = cli._json_text

    def recording(**fields):
        expected.append(_json_oracle(**fields))
        return write(**fields)

    monkeypatch.setattr(cli, "_json_text", recording)
    out = tmp_path / "out"
    argv = [*argv, "--out", str(out)] + ([] if argv[0] == "verify" else ["--output", "json"])
    assert cli.main(argv) == 0
    paths = sorted(out.glob("*.json")) if out.is_dir() else [out]
    assert len(expected) == len(paths) >= 1
    assert sorted(p.read_bytes() for p in paths) == sorted(expected)


def test_a_document_without_a_float_array_loads_no_formatter():
    # Nor numpy.polynomial, unless numpy loads it itself (numpy before 2.0 does).
    code = ("import sys, numpy as np; by_numpy = 'numpy.polynomial' in sys.modules; "
            "import spherefall.cli as c; c._json_text(sweep=[{'kappa': 1.0}], y=np.empty(0)); "
            "print('spherefall._shortest' in sys.modules, "
            "'numpy.polynomial' in sys.modules and not by_numpy)")
    done = fresh_python(code)
    assert (done.stdout.strip(), done.stderr) == ("False False", "")
    code = ("import sys, numpy as np, spherefall.cli as c; c._json_text(x=np.array([1.0])); "
            "print('spherefall._shortest' in sys.modules)")
    done = fresh_python(code)
    assert (done.stdout.strip(), done.stderr) == ("True", "")
