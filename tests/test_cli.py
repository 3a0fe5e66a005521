"""Tests for the command-line interface."""

import contextlib
import ctypes
import io
import json
import math
import os
import re
import stat
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from direct_oracle import abel_history_direct
from fresh_interpreter import fresh_python
from spherefall import analytic, cli, ide, ode
from spherefall.cli import main
from spherefall.physical import PhysicalParams
from spherefall.trajectory import Trajectory


def _read_csv(path):
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    rows = [[float(x) for x in line.split(",")] for line in lines[1:]]
    return header, np.array(rows)


def test_trajectory_closed_form_monotone_and_near_terminal(tmp_path):
    out = tmp_path / "traj.csv"
    code = main([
        "trajectory", "--kappa", "2.5", "--solver", "closed-form",
        "--T", "50", "--h", "0.01", "--out", str(out),
    ])
    assert code == 0
    header, rows = _read_csv(out)
    assert header == ["t", "u", "du"]
    u = rows[:, 1]
    assert np.max(u[:-1] - u[1:]) <= 1e-12
    assert abs(u[-1] - 1.0) <= 0.2


def test_trajectory_at_subnormal_times(tmp_path):
    # kappa = 0.2: alpha t rounds onto the negative real axis at t = 5e-324.
    out = tmp_path / "sub.csv"
    assert main(["trajectory", "--kappa", "0.2", "--h", "5e-324", "--T", "1e-323",
                 "--out", str(out)]) == 0
    header, rows = _read_csv(out)
    assert rows.shape == (3, 3) and np.all(np.isfinite(rows))


def test_trajectory_is_byte_identical_across_runs(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["trajectory", "--kappa", "1.5", "--solver", "ide",
            "--T", "2", "--h", "0.01"]
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_trajectory_json_schema(tmp_path):
    out = tmp_path / "traj.json"
    code = main([
        "trajectory", "--kappa", "1.0", "--solver", "ide", "--T", "1",
        "--h", "0.01", "--output", "json", "--out", str(out),
    ])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["schema"] == 1
    assert len(payload["t"]) == len(payload["u"]) == len(payload["du"]) == 101


def test_trajectory_oscillator_mode(tmp_path):
    out = tmp_path / "osc.csv"
    code = main([
        "trajectory", "--b", "-1", "--A", "1", "--t0", "1",
        "--solver", "ode", "--T", "5", "--h", "0.001", "--out", str(out),
    ])
    assert code == 0
    _, rows = _read_csv(out)
    # monotone trajectory: v = A M(t + t0), negative and increasing to 0
    v = rows[:, 1]
    assert v[0] < 0.0
    assert np.max(v[:-1] - v[1:]) <= 1e-9
    # A negative value in exponent notation follows its flag after a space, as after "=":
    # argparse alone takes "-1e-3" for an option ("expected one argument").
    spaced, joined = tmp_path / "spaced.csv", tmp_path / "joined.csv"
    flags = ["trajectory", "--t0", "1", "--T", "1", "--h", "0.5"]
    assert main([*flags, "--b", "-1e-3", "--A", "-2e3", "--out", str(spaced)]) == 0
    assert main([*flags, "--b=-1e-3", "--A=-2e3", "--out", str(joined)]) == 0
    assert spaced.read_bytes() == joined.read_bytes()


def test_float_alone_judges_a_negative_flag_value(tmp_path, monkeypatch, capsys):
    # A single-dash token that names no option is a value, so each spelling reaches the flag's
    # type after a space as after "=", and gets its message there, not argparse's "expected
    # one argument".
    flags = ["trajectory", "--t0", "1", "--T", "1", "--h", "0.5"]
    for text in ("-inf", "-nan", "-Infinity"):
        for value in (["--b", text], [f"--b={text}"]):
            assert main([*flags, *value]) == 1
            assert capsys.readouterr().err == (
                f"error: argument --b: must be a finite number, got {text!r}\n")
    assert main([*flags, "--b", "-1", "--A", "-x"]) == 1
    assert capsys.readouterr().err == "error: argument --A: invalid float value: '-x'\n"
    # A path may start with "-" too; "-" alone is stdout.
    monkeypatch.chdir(tmp_path)
    assert main([*flags, "--b", "-.5", "--out", "-x"]) == 0
    assert main([*flags, "--b=-.5", "--out=-y"]) == 0
    assert (tmp_path / "-x").read_bytes() == (tmp_path / "-y").read_bytes()
    # -h is still an option, help.
    with pytest.raises(SystemExit):
        main([*flags, "--b", "-1", "-h"])
    assert "--b B" in capsys.readouterr().out


def test_sweep_writes_files_and_summary(tmp_path):
    out = tmp_path / "sweep"
    code = main([
        "sweep", "--kappas", "2.0,0.5", "--solver", "closed-form",
        "--T", "5", "--h", "0.01", "--out", str(out),
    ])
    assert code == 0
    assert (out / "trajectory_kappa_0.5.csv").exists()
    assert (out / "trajectory_kappa_2.csv").exists()
    summary = (out / "sweep_summary.csv").read_text().splitlines()
    assert summary[0] == "kappa,terminal_error,monotone,file"
    assert len(summary) == 3
    assert [line.split(",")[0] for line in summary[1:]] == ["0.5", "2.0"]
    for line in summary[1:]:
        fields = line.split(",")
        assert fields[2] == "true"
        assert float(fields[1]) < 0.5


@pytest.mark.parametrize("solver", ["closed-form", "ide", "ode"])
def test_sweep_from_above_terminal_velocity_is_monotone(tmp_path, solver):
    # u(0) = eps = 3 > 1: every solver's u falls to 1 (largest rise -1.6e-5 at h = 1e-3).
    out = tmp_path / "sweep"
    assert main(["sweep", "--kappas", "0.5,2.5,3.9", "--eps", "3", "--solver", solver,
                 "--T", "10", "--out", str(out)]) == 0
    summary = (out / "sweep_summary.csv").read_text().splitlines()[1:]
    assert [line.split(",")[2] for line in summary] == ["true"] * 3


def test_compare_acceptance_grade_deviation(tmp_path):
    out = tmp_path / "cmp.csv"
    code = main([
        "compare", "--kappa", "2", "--h", "0.001", "--T", "10", "--out", str(out),
    ])
    assert code == 0
    header, rows = _read_csv(out)
    assert header == ["t", "u_closed", "u_ide", "u_ode", "dev_ide", "dev_ode"]
    assert np.max(rows[:, 4]) <= 1e-4
    summary = json.loads((tmp_path / "cmp.csv.summary.json").read_text())
    assert summary["sup_norm"]["ide"] <= 1e-4
    assert summary["sup_norm"]["ode"] <= 1e-5


@pytest.mark.parametrize("kappa, eps", [(1.0, 0.5), (3.0, 0.5), (3.9, -0.5)])
def test_compare_rk4_sphere_honours_initial_velocity(tmp_path, kappa, eps):
    # The RK4 sphere forcing amplitude is (1 - eps) sqrt(kappa), not sqrt(kappa).
    out = tmp_path / "cmp.csv"
    code = main([
        "compare", "--kappa", str(kappa), "--eps", str(eps), "--T", "10",
        "--h", "0.001", "--out", str(out),
    ])
    assert code == 0
    summary = json.loads((tmp_path / "cmp.csv.summary.json").read_text())
    assert summary["sup_norm"]["ode"] <= 1e-5


def test_verify_passes_and_writes_reports(tmp_path):
    out = tmp_path / "verify.json"
    code = main(["verify", "--h", "0.005", "--points", "80", "--out", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["schema"] == 1
    assert payload["passed"] is True
    assert all(r["passed"] for r in payload["reports"])
    assert {r["check_id"] for r in payload["reports"]} >= {
        "closed_form_monotone", "root_identities", "naive_villat_blowup",
    }


def test_drag_force_decomposition(tmp_path):
    out = tmp_path / "drag.csv"
    code = main([
        "drag", "--rho-s", "1190", "--rho", "1000", "--mu", "0.1",
        "--radius", "0.001", "--g", "9.8", "--T", "0.02", "--h", "0.0005",
        "--out", str(out),
    ])
    assert code == 0
    header, rows = _read_csv(out)
    assert header == ["t", "U", "dU", "F_stokes", "F_added_mass", "F_basset",
                      "F_buoyancy", "residual"]
    f_buoy = rows[0, 6]
    assert np.max(np.abs(rows[:, 7])) <= 1e-9 * f_buoy


def test_drag_columns_match_per_row_history(tmp_path):
    # The table reads the Basset history back with one FFT convolution;
    # per-row direct sums over the printed trajectory must agree with it.
    out = tmp_path / "drag.csv"
    p = PhysicalParams(rho_s=2500.0, rho=1000.0, mu=0.1, R=1e-3, g=9.8)
    code = main([
        "drag", "--rho-s", "2500", "--rho", "1000", "--mu", "0.1",
        "--radius", "0.001", "--g", "9.8", "--T", "0.004", "--h", "0.00002",
        "--out", str(out),
    ])
    assert code == 0
    _, rows = _read_csv(out)
    t, U, dU, f_st, f_am, f_ba, f_b, resid = rows.T
    assert len(t) == 201
    traj = Trajectory(times=t, values=U, derivatives=dU)
    coef = 6.0 * math.pi * p.rho * p.R**2 * math.sqrt(p.nu / math.pi)
    direct = coef * abel_history_direct(dU, traj.step())
    assert f_ba[0] == 0.0
    assert np.all(np.abs(f_ba - direct) <= 1e-12 * np.abs(direct))
    assert np.max(np.abs(resid)) <= 1e-9 * abs(f_b[0])


@pytest.mark.parametrize("argv, keys", [
    (["drag", "--rho-s", "1190", "--rho", "1000", "--mu", "0.1", "--radius", "0.001",
      "--g", "9.8", "--T", "0.005", "--h", "0.0001", "--eps", "0.25"],
     ["schema", "columns", "rows"]),
    (["compare", "--kappa", "3", "--eps", "0.5", "--T", "1", "--h", "0.01"],
     ["schema", "kappa", "h", "T", "sup_norm", "t", "u_closed", "u_ide", "u_ode",
      "dev_ide", "dev_ode"]),
], ids=["drag", "compare"])
def test_json_and_csv_outputs_carry_the_same_numbers(tmp_path, argv, keys):
    csv_path, json_path = tmp_path / "out.csv", tmp_path / "out.json"
    assert main(argv + ["--out", str(csv_path)]) == 0
    assert main(argv + ["--output", "json", "--out", str(json_path)]) == 0
    header, rows = _read_csv(csv_path)
    payload = json.loads(json_path.read_text())
    assert list(payload) == keys
    assert payload["schema"] == 1
    if "rows" in payload:
        assert payload["columns"] == header
        got = np.array(payload["rows"])
    else:
        got = np.column_stack([payload[name] for name in header])
        summary = json.loads((tmp_path / "out.csv.summary.json").read_text())
        assert payload["sup_norm"] == summary["sup_norm"]
    assert got.shape == rows.shape
    assert np.array_equal(got, rows)
    # Equal values are not enough: each cell has the shortest digits, those of repr.
    cells = [line.split(",") for line in csv_path.read_text().splitlines()[1:]]
    assert cells == [[repr(v) for v in row] for row in got.tolist()]


def test_cli_runs_without_scipy(tmp_path):
    # Neither the import nor a verify run (which calls both quadrature oracles) loads scipy.
    report = tmp_path / "verify.json"
    code = ("import sys\n"
            "from spherefall.cli import main\n"
            "loaded = lambda: sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
            "at_import = loaded()\n"
            f"main(['verify', '--h', '0.01', '--points', '20', '--out', {str(report)!r}])\n"
            "print(at_import, loaded())\n")
    done = fresh_python(code)
    assert done.stdout.splitlines()[-1] == "[] []", done.stderr
    assert json.loads(report.read_text())["schema"] == 1


def _has_mallopt() -> bool:
    try:
        return hasattr(ctypes.CDLL(None), "mallopt")
    except (OSError, TypeError):
        return False


@pytest.mark.skipif(not _has_mallopt(), reason="the C library has no mallopt")
def test_a_second_command_reuses_the_freed_heap(tmp_path):
    # glibc's default thresholds unmap or trim the freed numpy temporaries, and the second
    # run faults them back in: about 300 minor faults here without main's allocator setting.
    code = ("import resource, sys\n"
            "from spherefall.cli import main\n"
            "argv = ['verify', '--h', '0.01', '--points', '20', '--out', sys.argv[1]]\n"
            "assert main(argv) == 0\n"
            "before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
            "assert main(argv) == 0\n"
            "print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)\n")
    done = fresh_python(code, str(tmp_path / "verify.json"))
    assert done.returncode == 0, done.stderr
    assert int(done.stdout.splitlines()[-1]) < 64


def test_only_main_sets_the_allocator(tmp_path):
    # Every C library lookup is recorded: importing the package makes none, main makes one.
    code = ("import ctypes, sys\n"
            "import numpy\n"
            "calls = []\n"
            "class Recording(ctypes.CDLL):\n"
            "    def __init__(self, name, *args, **kwargs):\n"
            "        calls.append(name)\n"
            "        super().__init__(name, *args, **kwargs)\n"
            "ctypes.CDLL = Recording\n"
            "import spherefall, spherefall.cli\n"
            "at_import = list(calls)\n"
            "argv = ['trajectory', '--kappa', '2', '--T', '0.1', '--h', '0.01',\n"
            "        '--out', sys.argv[1]]\n"
            "assert spherefall.cli.main(argv) == 0\n"
            "assert spherefall.cli.main(argv) == 0\n"
            "print(at_import, calls)\n")
    done = fresh_python(code, str(tmp_path / "traj.csv"))
    assert done.stdout.splitlines()[-1] == "[] [None]", done.stderr


def test_a_c_library_without_mallopt_changes_no_output(tmp_path, monkeypatch):
    argv = ["trajectory", "--kappa", "2.5", "--solver", "ide", "--T", "2", "--h", "0.01",
            "--out"]
    assert main([*argv, str(tmp_path / "a.csv")]) == 0
    lookups = []

    def no_library(name, *args, **kwargs):
        lookups.append(name)
        raise OSError(f"{name}: cannot open shared object file")

    monkeypatch.setattr(ctypes, "CDLL", no_library)
    cli._keep_freed_heap.cache_clear()  # so this process looks the library up again
    try:
        assert main([*argv, str(tmp_path / "b.csv")]) == 0
    finally:
        cli._keep_freed_heap.cache_clear()
    assert lookups == [None]
    assert (tmp_path / "b.csv").read_bytes() == (tmp_path / "a.csv").read_bytes()


def test_usage_errors_exit_one(tmp_path, capsys):
    def refused(argv):
        """Run argv: exit 1, nothing on stdout, one "error: " line on stderr, which is returned."""
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and re.fullmatch(r"error: .*\n", captured.err), captured
        return captured.err

    refused(["trajectory"])  # neither --kappa nor --b
    err = refused(["trajectory", "--kappa", "1", "--b", "1"])
    assert err == "error: trajectory: --kappa and --b are mutually exclusive\n"
    err = refused(["sweep", "--kappas", ",", "--out", str(tmp_path / "empty")])
    assert err == "error: sweep: --kappas list is empty\n"
    refused(["trajectory", "--kappa", "12", "--T", "1", "--h", "0.01"])
    refused(["sweep", "--kappas", "abc"])
    # A kappa out of the solver's domain stops the sweep before any file is written.
    sweep_dir = tmp_path / "d"
    refused(["sweep", "--kappas", "1,5", "--T", "1", "--h", "0.01", "--out", str(sweep_dir)])
    assert not sweep_dir.exists()
    # Two kappas whose file names round alike would overwrite one another.
    refused(["sweep", "--kappas", "0.1234567,0.1234568", "--T", "1", "--h", "0.01",
             "--out", str(sweep_dir)])
    assert not sweep_dir.exists()
    refused(["nosuchcommand"])
    # A step past the memory equation's horizon T = 10 is refused; any step up to it runs
    # the suite, which at h = 1 fails and writes its report.
    verify_out = tmp_path / "verify.json"
    err = refused(["verify", "--h", "10.5", "--out", str(verify_out)])
    assert err == "error: horizon T=10.0 must be at least one step h=10.5\n"
    assert not verify_out.exists()
    assert main(["verify", "--h", "1", "--out", str(verify_out)]) == 2
    assert json.loads(verify_out.read_text())["passed"] is False
    capsys.readouterr()
    # The closed form checks its grid like the ide and ode solvers do, to a file or to stdout.
    out = tmp_path / "traj.csv"
    for solver in ("closed-form", "ide", "ode"):
        for to in (["--out", str(out)], []):
            base = ["trajectory", "--kappa", "2", "--solver", solver, *to]
            refused(base + ["--h", "0"])
            refused(base + ["--T", "-1", "--h", "0.1"])
            # An infinite horizon is a usage error, not a numerical failure, and
            # so is a finite one that is an infinite number of steps.
            refused(base + ["--T", "inf"])
            refused(base + ["--T", "1e300", "--h", "1e-300"])
    assert not out.exists()
    # drag's h and T are seconds, and h B and T B viscous times in the solve (B = 266.3 per
    # second here); a bad grid is named by the values typed.
    drag = ["drag", "--rho-s", "1190", "--rho", "1000", "--mu", "0.1", "--radius", "0.001"]
    err = refused(drag + ["--T", "0.01", "--h", "-0.001"])
    assert err == "error: h must be > 0, got -0.001\n"
    err = refused(drag + ["--T", "0.0005", "--h", "0.001"])
    assert err == "error: horizon T=0.0005 must be at least one step h=0.001\n"
    # A grid in seconds whose step h B underflows or whose horizon T B overflows is named by
    # the values typed and B, not by the scaled values alone.
    err = refused(["drag", "--rho-s", "1190", "--rho", "1000", "--mu", "1.0", "--radius", "100",
                   "--h", "5e-324", "--T", "5e-321"])
    assert err == ("error: drag: h=5e-324 s and T=5e-321 s, times B=2.66272e-07 per second, "
                   "make no grid in viscous times (h must be > 0, got 0.0)\n")
    err = refused(drag + ["--h", "1e303", "--T", "1e306"])
    assert err == ("error: drag: h=1e+303 s and T=1e+306 s, times B=266.272 per second, make "
                   "no grid in viscous times (h and T must be finite, got "
                   "h=2.6627218934911245e+305, T=inf)\n")
    # Every real-valued flag is finite, not only the grid.
    nan_eps = ["trajectory", "--kappa", "2", "--solver", "ide", "--eps", "nan", "--T", "1",
               "--h", "0.01"]
    refused(nan_eps + ["--out", str(out)])
    refused(nan_eps)
    refused(["compare", "--kappa", "2", "--eps", "inf", "--T", "1", "--h", "0.01",
             "--out", str(out)])
    refused(["drag", "--rho-s", "1190", *_DRAG_ARGS, "--g", "nan", "--out", str(out)])
    assert not out.exists()
    # An output that cannot be written is reported, not raised.
    missing = tmp_path / "nodir" / "x.csv"
    err = refused(["trajectory", "--kappa", "2", "--T", "1", "--h", "0.01", "--out", str(missing)])
    assert err == f"error: [Errno 2] No such file or directory: {str(missing)!r}\n"
    existing = tmp_path / "file.txt"
    existing.write_text("kept\n")
    err = refused(["sweep", "--kappas", "1", "--T", "1", "--h", "0.01", "--out", str(existing)])
    assert err.startswith("error: [Errno 17] File exists: ")
    assert existing.read_text() == "kept\n"
    # A failed replace leaves no temporary file behind (it is made next to the target).
    (tmp_path / "outdir").mkdir()
    err = refused(["trajectory", "--kappa", "2", "--T", "1", "--h", "0.01",
                   "--out", str(tmp_path / "outdir")])
    assert err.startswith("error: [Errno 21] Is a directory: ")
    assert not list(tmp_path.glob("*.tmp"))


@pytest.mark.parametrize("output", ["csv", "json"])
def test_sweep_to_stdout_is_a_usage_error(tmp_path, monkeypatch, capsys, output):
    # '-' is stdout for the other commands; a sweep writes a directory, and made one named '-'.
    monkeypatch.chdir(tmp_path)
    assert main(["sweep", "--kappas", "1", "--T", "1", "--h", "0.1", "--output", output,
                 "--out", "-"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: sweep: --out names the output directory; '-' (stdout) is not one\n")
    assert os.listdir(tmp_path) == []
    with pytest.raises(SystemExit):
        main(["sweep", "--help"])
    assert "output directory (default sweep_out)" in " ".join(capsys.readouterr().out.split())


_DRAG_ARGS = ["--rho", "1000", "--mu", "0.1", "--radius", "0.001", "--g", "9.8",
              "--T", "0.005", "--h", "0.0001"]


def test_drag_bad_physical_parameter_is_a_usage_error(capsys):
    code = main(["drag", "--rho-s", "1000", "--rho", "-1", "--mu", "0.1", "--radius", "0.001"])
    assert code == 1
    assert capsys.readouterr().err.startswith("error: PhysicalParams: ")


@pytest.mark.parametrize("flags, quantity", [
    (["--rho-s", "0", "--rho", "1e-300", "--mu", "1e300", "--radius", "1e-300"], "B"),
    (["--rho-s", "1190", "--rho", "1000", "--mu", "0.1", "--radius", "1e-160"], "B"),
    (["--rho-s", "1190", "--rho", "1000", "--mu", "0.1", "--radius", "1e120"], "the volume"),
    (["--rho-s", "1190", "--rho", "1000", "--mu", "0.1", "--radius", "1e200"], "B"),
    (["--rho-s", "1e300", "--rho", "1e-300", "--mu", "1", "--radius", "1"], "Q"),
    (["--rho-s", "1190", "--rho", "1000", "--mu", "1e-320", "--radius", "1"], "B"),
    (["--rho-s", "1190", "--rho", "1000", "--mu", "1e-305", "--radius", "1", "--g", "100"],
     "U0"),
    (["--rho-s", "1e300", "--rho", "1e-15", "--mu", "1", "--radius", "1e-100"], "kappa"),
], ids=["R^2-underflows", "B-overflows", "volume-overflows", "R^2-overflows", "Q-underflows",
        "B-subnormal", "U0-overflows", "kappa-subnormal"])
def test_drag_scale_outside_the_double_range_is_one_usage_error(tmp_path, capsys, monkeypatch,
                                                                flags, quantity):
    # Every flag is finite and passes PhysicalParams' own checks; the scale formed from
    # them is what leaves the double range, so the one error line must name it, and
    # before the solve.
    def no_solve(*args):
        raise AssertionError("solve_ide ran before the scales were checked")

    monkeypatch.setattr(ide, "solve_ide", no_solve)
    out = tmp_path / "drag.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["drag", *flags, "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert re.fullmatch(f"error: PhysicalParams: {quantity} .* is outside the double range\n",
                        captured.err)
    assert os.listdir(tmp_path) == []


def test_drag_massless_sphere_closes_the_force_balance(tmp_path):
    # rho_s = 0 is kappa = 9, the edge of the physical domain.
    out = tmp_path / "drag.csv"
    assert main(["drag", "--rho-s", "0", *_DRAG_ARGS, "--out", str(out)]) == 0
    _, rows = _read_csv(out)
    assert len(rows) == 51
    f_buoy = rows[0, 6]
    assert np.max(np.abs(rows[:, 7])) <= 1e-9 * abs(f_buoy)


_SOLVERS = [(ide, "solve_ide"), (ode, "solve_oscillator"), (analytic, "monotone_kernel_samples")]
_SHORT = ["--T", "0.1", "--h", "0.01"]


@pytest.mark.parametrize("argv, entries", [
    (["trajectory", "--kappa", "2.5", "--solver", "closed-form", *_SHORT], ["sphere closed-form"]),
    (["trajectory", "--kappa", "2.5", "--solver", "ide", *_SHORT], ["sphere ide"]),
    (["trajectory", "--kappa", "2.5", "--solver", "ode", *_SHORT], ["sphere ode"]),
    (["trajectory", "--b", "-1", "--solver", "closed-form", *_SHORT], ["monotone closed-form"]),
    (["trajectory", "--b", "-1", "--solver", "ode", *_SHORT], ["monotone ode"]),
    (["sweep", "--kappas", "1,2", "--solver", "ode", *_SHORT], ["sphere ode"] * 2),
    (["compare", "--kappa", "2", *_SHORT], ["sphere closed-form", "sphere ide", "sphere ode"]),
    (["drag", "--rho-s", "1190", *_DRAG_ARGS], ["sphere ide"]),
    (["verify", "--h", "0.01", "--points", "20"], ["sphere ide", "monotone ode"]),
], ids=["sphere-closed-form", "sphere-ide", "sphere-ode", "oscillator-closed-form",
        "oscillator-ode", "sweep", "compare", "drag", "verify"])
def test_every_command_reaches_the_solvers_only_through_the_entry_points(
        tmp_path, monkeypatch, argv, entries):
    calls, inside = [], []

    def entry(name):
        real = getattr(ode, f"{name}_trajectory")

        def wrapped(solver, *args):
            calls.append(f"{name} {solver}")
            inside.append(solver)
            try:
                return real(solver, *args)
            finally:
                inside.pop()
        return wrapped

    def guarded(real):
        def wrapped(*args):
            assert inside, f"{real.__name__} called outside the entry points"
            return real(*args)
        return wrapped

    for name in ("sphere", "monotone"):
        monkeypatch.setattr(ode, f"{name}_trajectory", entry(name))
    # verify's closed-form referee samples the kernel itself; its solvers still go through them.
    for module, name in _SOLVERS[:2] if argv[0] == "verify" else _SOLVERS:
        monkeypatch.setattr(module, name, guarded(getattr(module, name)))
    assert main([*argv, "--out", str(tmp_path / "out")]) == 0
    assert calls == entries


@pytest.mark.parametrize("points", ["0", "1"])
def test_verify_needs_two_points(tmp_path, capsys, points):
    out = tmp_path / "verify.json"
    assert main(["verify", "--points", points, "--out", str(out)]) == 1
    assert "points" in capsys.readouterr().err
    assert not out.exists()


_NUM = r"-?\d+(\.\d+)?(e[-+]\d+)?"
_T = rf"t={_NUM}"
_VERIFY_LOCATIONS = {
    # A passing sign or monotonicity check has nothing above the floor, so no location.
    "closed_form_monotone": "--",
    "closed_form_derivative_positive": "--",
    "closed_form_derivative_decreasing": "--",
    "terminal_approach": rf"kappa={_NUM}",
    "root_identities": rf"kappa={_NUM}",
    "decoupling_v0": rf"kappa={_NUM}",
    "proof_integral_negative": rf"t={_NUM}, theta={_NUM}",
    "imag_sqrt_alpha_positive": "--",
    "ide_vs_closed_form": re.escape("kappa=2.5, [0,10]"),
    "ide_monotone": "--",
    "ode_residual": _T,
    "abel_identity": _T,
    "oscillator_monotone_ic": re.escape("b=-1, A=1, t0=1"),
    "oscillator_monotone": "--",
    "faddeeva_vs_quadrature": rf"x={_NUM}, y={_NUM}",
    "villat_derivative_identity": rf"z=\({_NUM}[-+]{_NUM}j\)",
    "villat_asymptotic_match": rf"\|z\|={_NUM}, arg={_NUM}",
    "naive_villat_blowup": rf"rel_disagreement={_NUM}|rel_disagreement=inf",
}


def test_verify_report_pins_check_order_and_location_formats(tmp_path, capsys):
    out = tmp_path / "verify.json"
    assert main(["verify", "--h", "0.01", "--points", "20", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["schema"] == 1 and payload["passed"] is True
    reports = payload["reports"]
    assert [r["check_id"] for r in reports] == list(_VERIFY_LOCATIONS)
    assert all(r["passed"] for r in reports)
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == len(reports)
    for rep, line in zip(reports, lines):
        assert re.fullmatch(_VERIFY_LOCATIONS[rep["check_id"]], rep["location"]), rep
        assert line == (f"PASS {rep['check_id']}: worst={rep['worst_violation']:.3e} "
                        f"tol={rep['tolerance']:.3e} at {rep['location']}")


@pytest.mark.parametrize("argv, bad", [
    (["trajectory", "--kappa", "4.5", "--solver", "closed-form"], "4.5"),
    (["trajectory", "--kappa", "4.5", "--solver", "ode"], "4.5"),
    (["compare", "--kappa", "9", "--T", "1", "--h", "0.1"], "9.0"),
    (["sweep", "--kappas", "1,4.5"], "4.5"),
    (["trajectory", "--kappa", "4.5", "--solver", "ode", "--T", "1", "--h", "0.01", "--out", "-"],
     "4.5"),
])
def test_sphere_commands_share_one_domain_message_and_write_nothing(tmp_path, capsys, argv, bad):
    # Without its own --out a command writes to a file in tmp_path.
    if "--out" not in argv:
        argv = [*argv, "--out", str(tmp_path / "out")]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: kappa must lie in (0, 4), got {bad}\n"
    assert os.listdir(tmp_path) == []


_OSCILLATOR_ONLY = "error: trajectory: --A and --t0 apply to the oscillator (--b) only\n"
_SPHERE_ONLY = "error: trajectory: --eps applies to the sphere (--kappa) only\n"


@pytest.mark.parametrize("argv, message", [
    (["--kappa", "2", "--A", "5"], _OSCILLATOR_ONLY),
    (["--kappa", "2", "--t0", "3"], _OSCILLATOR_ONLY),
    (["--kappa", "2", "--A", "1", "--t0", "0"], _OSCILLATOR_ONLY),
    (["--b", "-1", "--eps", "0.5"], _SPHERE_ONLY),
    (["--b", "-1", "--eps", "0"], _SPHERE_ONLY),
])
def test_trajectory_rejects_the_other_modes_flags(tmp_path, capsys, argv, message):
    # These used to be ignored: the sphere or oscillator was written without them.
    for output in ("csv", "json"):
        out = tmp_path / f"out.{output}"
        assert main(["trajectory", *argv, "--T", "1", "--h", "0.1", "--output", output,
                     "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == message
    assert os.listdir(tmp_path) == []


def test_numerical_failure_exit_three(tmp_path, capsys):
    # A diverging RK4 trajectory, sphere or oscillator, writes its rows up to the divergence,
    # as compare and sweep write theirs, and names that time on stderr.
    out = tmp_path / "div.csv"
    for argv, rows_written in ((["--kappa", "3.9"], 13946),
                               (["--b", "-1.9", "--A", "1", "--t0", "1"], 13940)):
        assert main(["trajectory", *argv, "--solver", "ode", "--T", "800", "--h", "0.05",
                     "--out", str(out)]) == 3
        _, rows = _read_csv(out)
        assert len(rows) == rows_written and np.all(np.isfinite(rows))
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"numerical failure: RK4 diverged after t={rows[-1, 0]:g}\n"


def test_an_rk4_step_past_its_stability_interval_exits_three_at_t_zero(tmp_path, capsys):
    # At kappa = 2 (b = 0) the step h = 5 amplifies 21.5-fold per step; h = 2.5 is inside.
    # At h = 100 the series start is past its reach as well.  Nothing warns.
    out = tmp_path / "t.csv"
    argv = ["trajectory", "--kappa", "2", "--solver", "ode", "--out", str(out)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for h, T in (("5", "50"), ("100", "200")):
            assert main([*argv, "--h", h, "--T", T]) == 3
            assert out.read_text() == "t,u,du\n0.0,0.0,1.0\n"
            assert capsys.readouterr().err == "numerical failure: RK4 diverged after t=0\n"
        assert main([*argv, "--h", "2.5", "--T", "50"]) == 0
    _, rows = _read_csv(out)
    assert len(rows) == 21 and abs(rows[-1, 1] - 0.887) < 1e-3


@pytest.mark.parametrize("argv, line", [
    # A step past any grid: u = 9.7e83 at t = 1e100.
    (["trajectory", "--kappa", "2", "--solver", "ide", "--h", "1e100", "--T", "5e100"],
     "IDE at kappa=2 leaves the monotone approach at t=1e+100"),
    # RK4's growing modes (b = -0.5) end at u = -4.05e75, short of the overflow guard.
    (["trajectory", "--kappa", "2.5", "--solver", "ode", "--h", "0.01", "--T", "800"],
     "RK4 at kappa=2.5 leaves the monotone approach at t=75.99"),
    (["compare", "--kappa", "2.5", "--h", "0.01", "--T", "800"],
     "RK4 at kappa=2.5 leaves the monotone approach at t=75.99"),
    # Both unstable kappas break it; the first one given is named.
    (["sweep", "--solver", "ode", "--kappas", "1,2.6,2.5", "--h", "0.01", "--T", "800"],
     "RK4 at kappa=2.6 leaves the monotone approach at t=64.11"),
    # The oscillator's band runs from v0 = A M(t0) to 0.
    (["trajectory", "--b", "-1.9", "--A", "1", "--t0", "1", "--solver", "ode", "--h", "0.05",
      "--T", "100"], "RK4 at b=-1.9 leaves the monotone approach at t=16.55"),
    # kappa = 6 at h B = 3 viscous times: u falls by 2.5e-3, yet the force balance closes.
    (["drag", "--rho-s", "250", "--rho", "1000", "--mu", "0.1", "--radius", "0.001",
      "--h", "0.005", "--T", "0.1"], "IDE at kappa=6 leaves the monotone approach at t=6"),
], ids=["ide", "ode", "compare", "sweep", "oscillator", "drag"])
def test_a_run_that_breaks_the_monotone_approach_exits_three_and_writes_nothing(
        tmp_path, capsys, argv, line):
    # The paper's theorem: u moves from eps to 1 and never back.  A run that leaves the
    # band between them, or steps back, by more than 1e-12 is wrong, whatever it is
    # compared with.
    for output in ("csv", "json"):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main([*argv, "--output", output, "--out", str(tmp_path / "out")]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"numerical failure: {line}\n"
        assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("solver, kappas, broken, h, T", [
    ("ide", "0.5,6", "6", "3", "60"),
    ("ode", "0.5,2,3.9", "3.9", "0.05", "20"),
    ("closed-form", "0.5,2,3.9", None, "0.05", "20"),
])
def test_the_sweep_holds_every_solver_to_one_monotone_bound(tmp_path, capsys, solver, kappas,
                                                          broken, h, T):
    # No step of u may fall by more than 1e-12, whatever the solver and h.  The IDE at
    # h = 3 falls by 2.5e-3 at kappa 6 (and is monotone at kappa 0.5), and RK4 at
    # kappa 3.9, h = 0.05 by 0.06; a bound of 10 h wrote true for both.  Such a run breaks
    # the paper's theorem: the sweep exits 3 and writes nothing.  Without it the sweep
    # writes true for every kappa.
    out = tmp_path / "sweep"
    argv = ["sweep", "--solver", solver, "--h", h, "--T", T, "--out", str(out)]
    if broken is not None:
        run = ode.sphere_trajectory(solver, float(broken), 0.0, float(h), float(T))
        assert np.max(run.values[:-1] - run.values[1:]) > (2e-3 if solver == "ide" else 0.05)
        assert main([*argv, "--kappas", kappas]) == 3
        assert capsys.readouterr().err == (
            f"numerical failure: {run.meta['solver'].upper()} at kappa={broken} leaves the "
            f"monotone approach at t={run.meta['monotone_break_t']:g}\n")
        assert os.listdir(tmp_path) == []
        kappas = kappas.replace("," + broken, "")
    assert main([*argv, "--kappas", kappas]) == 0
    summary = (out / "sweep_summary.csv").read_text().splitlines()[1:]
    assert [line.split(",")[2] for line in summary] == ["true"] * len(kappas.split(","))
    for line in summary:
        _, rows = _read_csv(out / line.split(",")[3])
        assert np.max(rows[:-1, 1] - rows[1:, 1]) <= 0.0, line


def test_compare_reports_an_rk4_divergence_with_exit_three(tmp_path, capsys):
    # The columns stop where RK4 did, and are written all the same.
    out = tmp_path / "cmp.csv"
    code = main(["compare", "--kappa", "3.9", "--T", "800", "--h", "0.05", "--out", str(out)])
    assert code == 3
    _, rows = _read_csv(out)
    assert 1 < len(rows) < 16001
    err = capsys.readouterr().err.splitlines()
    assert err[-1] == f"numerical failure: RK4 diverged after t={rows[-1, 0]:g}"


def test_sweep_reports_an_rk4_divergence_with_exit_three(tmp_path, capsys):
    # Every file is written; each diverged kappa is named once, in the order given.
    out = tmp_path / "sweep"
    code = main(["sweep", "--solver", "ode", "--kappas", "3.9,1,3.8", "--T", "800", "--h", "0.05",
                 "--out", str(out)])
    assert code == 3
    _, rows = _read_csv(out / "trajectory_kappa_3.9.csv")
    _, rows_38 = _read_csv(out / "trajectory_kappa_3.8.csv")
    assert 1 < len(rows) < len(rows_38) < 16001
    assert (len(rows), len(rows_38)) == (13946, 14730)  # after t = 697.25 and 736.45
    _, full = _read_csv(out / "trajectory_kappa_1.csv")
    assert len(full) == 16001
    assert len((out / "sweep_summary.csv").read_text().splitlines()) == 4
    err = capsys.readouterr().err.splitlines()
    assert err == [f"numerical failure: RK4 diverged at kappa=3.9 after t={rows[-1, 0]:g}",
                   f"numerical failure: RK4 diverged at kappa=3.8 after t={rows_38[-1, 0]:g}"]


@pytest.mark.parametrize("argv", [
    ["trajectory", "--kappa", "2", "--solver", "ide", "--eps", "1e308", "--T", "1", "--h", "0.01"],
    ["sweep", "--solver", "ide", "--kappas", "1,2", "--eps", "1e308", "--T", "1", "--h", "0.01"],
    ["drag", "--rho-s", "1190", *_DRAG_ARGS, "--eps", "1e308"],
    # The dimensionless step h B overflows the Abel weights themselves.
    ["drag", "--rho-s", "-0.0", "--rho", "1e-300", "--mu", "9.0000001", "--radius", "100",
     "--g", "2.5", "--h", "0.1", "--T", "0.5"],
], ids=["trajectory", "sweep", "drag", "drag-weights"])
def test_an_overflowing_ide_solve_exits_three_and_writes_nothing(tmp_path, capsys, argv):
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main([*argv, "--out", str(out)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert re.fullmatch(r"numerical failure: solve_ide: the solution is not finite at kappa=\S+\n",
                        captured.err), captured.err
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("argv", [
    ["trajectory", "--kappa", "3.9", "--solver", "ide", "--T", "1", "--h", "0.01"],
    ["sweep", "--solver", "ide", "--kappas", "2,3.9", "--T", "1", "--h", "0.01"],
    ["drag", "--rho-s", "1190", *_DRAG_ARGS],
    ["trajectory", "--kappa", "3.9", "--solver", "closed-form"],
    ["trajectory", "--kappa", "3.9", "--solver", "ode"],
], ids=["trajectory", "sweep", "drag", "closed-form", "ode"])
def test_the_ide_rejects_an_amplitude_outside_the_double_range(tmp_path, capsys, argv):
    # (1 - eps) sqrt(kappa) overflows: the closed form's and RK4's usage error, not a
    # numerical failure of the solve.
    out = tmp_path / "out"
    # Both forms: after a space, argparse alone would read -1.7e308 as an option.
    for eps in (["--eps=-1.7e308"], ["--eps", "-1.7e308"]):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main([*argv, *eps, "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert re.fullmatch(r"error: eps=-1\.7e\+308 puts the amplitude \(1 - eps\) sqrt\(kappa\) "
                            r"outside the double range at kappa=\S+\n", captured.err), captured.err
    assert os.listdir(tmp_path) == []


def test_drag_refuses_a_force_balance_that_does_not_close(tmp_path, capsys):
    # At R = 1e-7 the default step is h B = 2.7e6 viscous times: U flips sign every
    # row and the residual is 0.4 of the buoyancy.  Nothing may be written.
    out = tmp_path / "drag.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["drag", "--rho-s", "1190", "--rho", "1000", "--mu", "0.1",
                     "--radius", "1e-7", "--out", str(out)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert re.fullmatch(r"numerical failure: drag: max\|residual\| = \S+ N > 1e-9 \|F_buoyancy\| "
                        r"= \S+ N at the step h B = 2\.66e\+06 viscous times\n", captured.err), \
        captured.err
    assert os.listdir(tmp_path) == []
    # A Basset history past the double range fails in the read-back, before the balance.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["drag", "--rho-s", "1190", "--rho", "1000", "--mu", "1e-300", "--radius", "1",
                     "--g", "9.8", "--h", "1e290", "--T", "1e291", "--out", str(out)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert re.fullmatch(r"numerical failure: abel_history: the history is not finite at h=\S+\n",
                        captured.err), captured.err
    assert os.listdir(tmp_path) == []


def _numbers(doc):
    """Every number in a parsed JSON document, depth first, as floats (flags excluded)."""
    if isinstance(doc, dict):
        doc = list(doc.values())
    if isinstance(doc, list):
        return [c for value in doc for c in _numbers(value)]
    return [float(doc)] if isinstance(doc, (int, float)) and not isinstance(doc, bool) else []


def _parsed_cells(name, text):
    """Every number an output file holds, as floats."""
    if name.endswith(".json"):
        return _numbers(json.loads(text))
    header, *rows = text.splitlines()
    # A sweep summary ends in a flag and a file name.
    width = 2 if header.endswith(",file") else header.count(",") + 1
    return [float(c) for row in rows for c in row.split(",")[:width]]


def _last_time(name, text):
    """The final time of a trajectory or compare file, CSV or JSON."""
    if name.endswith(".json"):
        return json.loads(text)["t"][-1]
    return float(text.splitlines()[-1].split(",")[0])


def _run_in_a_fresh_directory(argv, out):
    """Run argv with --out in a fresh directory, every warning raised as an error.

    Returns the exit code, stdout, the stderr lines and the text of each written file,
    keyed by its path in the directory.
    """
    with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings():
        warnings.simplefilter("error")
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main([*argv, "--out", os.path.join(tmp, out)])
        written = {}
        for root, _, files in os.walk(tmp):
            for f in files:
                with open(os.path.join(root, f)) as fh:
                    written[os.path.relpath(fh.name, tmp)] = fh.read()
    return code, stdout.getvalue(), stderr.getvalue().splitlines(), written


_RK4_DIVERGED = re.compile(r"numerical failure: RK4 diverged (?:at kappa=(\S+) )?after t=(\S+)")


def _keeps_the_cli_contract(argv, out, kept=()):
    """Run argv with --out in a fresh directory and hold the run to the CLI contract.

    Nothing warns.  Exit 0 writes finite cells that parse; exit 1 writes nothing and says
    one error line.  Exit 3 says one numerical failure line and writes nothing, unless RK4
    diverged: then it says one line per diverged run (in a sweep, per diverged kappa),
    writes exactly the files kept, with finite cells, and each diverged run's file ends
    at the time its line names.
    """
    code, stdout, err, written = _run_in_a_fresh_directory(argv, out)
    assert stdout == ""
    assert code in (0, 1, 3), err
    if code == 1:
        assert written == {} and len(err) == 1 and err[0].startswith("error: "), err
        return
    cells = [c for name, text in written.items() for c in _parsed_cells(name, text)]
    assert all(math.isfinite(c) for c in cells)  # also the rows a diverged RK4 run keeps
    if code == 0:
        assert written and cells
        return
    failures = [line for line in err if line.startswith("numerical failure: ")]
    assert failures and len(err) <= len(failures) + 1, err  # compare adds its sup-norm line
    diverged = [_RK4_DIVERGED.fullmatch(line) for line in failures]
    if not any(diverged):  # an IDE overflow, drag's balance check, the Abel read-back
        assert written == {} and len(failures) == 1, (err, list(written))
        return
    assert all(diverged) and sorted(written) == sorted(kept), (err, list(written))
    for match in diverged:
        kappa, t = match.groups()
        name = out if kappa is None else next(
            n for n in written if os.path.basename(n).startswith(f"trajectory_kappa_{kappa}."))
        assert f"{_last_time(name, written[name]):g}" == t, (name, err)


# The extremes of the CLI grammar; every grid has at most 2000 steps.
_EPS = st.sampled_from([0.0, -0.0, 5e-324, 1e308, -1e308, 1.7e308, -1.7e308])
_GRIDS = st.sampled_from([(0.1, 1.0), (0.01, 20.0), (0.05, 100.0), (0.5, 800.0), (1e180, 5e180),
                          (5e-324, 5e-321)])
_OUTPUTS = st.sampled_from(["csv", "json"])


@given(command=st.sampled_from(["trajectory", "compare"]),
       kappa=st.sampled_from([1e-300, 1e-16, 0.2, 2.0, 3.9, 3.999999, 4.0, 9.0, 9.0000001]),
       eps=_EPS, solver=st.sampled_from(["closed-form", "ode", "ide"]), output=_OUTPUTS,
       grid=_GRIDS)
@example(command="trajectory", kappa=3.9, eps=-1.7e308, solver="closed-form", output="csv",
         grid=(0.1, 1.0))  # wrote -inf cells and exited 0
@example(command="trajectory", kappa=3.9, eps=0.0, solver="ode", output="csv",
         grid=(0.05, 800.0))  # exited 3 with nothing on stderr
@example(command="compare", kappa=3.9, eps=0.0, solver="ode", output="csv",
         grid=(0.05, 800.0))  # RK4 diverges: the columns and the summary are kept
@settings(max_examples=60, deadline=None)
def test_the_sphere_keeps_the_cli_contract(command, kappa, eps, solver, output, grid):
    h, T = grid
    argv = [command, "--kappa", repr(kappa), "--eps=" + repr(eps), "--h", repr(h), "--T", repr(T),
            "--output", output]
    out, kept = "out." + output, ["out." + output]
    if command == "trajectory":
        argv += ["--solver", solver]
    elif output == "csv":
        kept.append(out + ".summary.json")
    _keeps_the_cli_contract(argv, out, kept)


@given(kappas=st.lists(st.sampled_from([1e-16, 0.2, 2.0, 3.9, 3.999999, 4.0, 9.0, 9.0000001]),
                       min_size=1, max_size=2),
       eps=_EPS, solver=st.sampled_from(["closed-form", "ode", "ide"]), output=_OUTPUTS,
       grid=_GRIDS)
@example(kappas=[3.9, 2.0], eps=0.0, solver="ode", output="json",
         grid=(0.05, 800.0))  # RK4 diverges at 3.9: every file and the summary are kept
@settings(max_examples=40, deadline=None)
def test_sweep_keeps_the_cli_contract(kappas, eps, solver, output, grid):
    h, T = grid
    kept = [os.path.join("sweep", name) for name in
            [cli._sweep_file(k, output) for k in kappas] + [f"sweep_summary.{output}"]]
    _keeps_the_cli_contract(["sweep", "--kappas", ",".join(map(repr, kappas)), "--eps=" + repr(eps),
                             "--solver", solver, "--h", repr(h), "--T", repr(T),
                             "--output", output], "sweep", kept)


@given(b=st.sampled_from([-2.0, -1.9999999, -1.0, -0.0, 1.5695228564229238, 1.9999999, 2.0]),
       A=st.sampled_from([0.0, -0.0, 5e-324, 1e-300, 1.0, -1e308, 1.7e308]),
       t0=st.sampled_from([0.0, 5e-324, 1e-300, 1.0, 1.7e308]),
       solver=st.sampled_from(["closed-form", "ode"]), output=_OUTPUTS, grid=_GRIDS)
@example(b=-0.0, A=1.0, t0=0.0, solver="ode", output="csv",
         grid=(1e180, 5e180))  # the RK4 constants overflowed with a warning
@example(b=-1.9999999, A=0.0, t0=0.0, solver="ode", output="csv",
         grid=(5e-324, 5e-321))  # 0 / 0: the midpoint times (k + 1/2) h rounded to 0
@example(b=-1.9999999, A=1.7e308, t0=0.0, solver="ode", output="csv",
         grid=(5e-324, 5e-321))  # A / 0 warned, then the forcing overflowed with a warning
@example(b=0.0, A=1.0, t0=8.98846567431158e307, solver="closed-form", output="csv",
         grid=(8.988465674311579e307, 8.988465674311579e307))  # t + t0 overflowed with a warning
@settings(max_examples=60, deadline=None)
def test_the_oscillator_keeps_the_cli_contract(b, A, t0, solver, output, grid):
    h, T = grid
    _keeps_the_cli_contract(["trajectory", "--b", repr(b), "--A", repr(A), "--t0", repr(t0),
                             "--solver", solver, "--h", repr(h), "--T", repr(T),
                             "--output", output], "out." + output, ["out." + output])


@given(rho_s=st.sampled_from([0.0, -0.0, 5e-324, 1000.0, 1190.0, 1e300]),
       rho=st.sampled_from([1000.0, 1e-300, 1e-180, 5e-324, 1.7e308]),
       mu=st.sampled_from([0.1, 1e-300, 1.0, 9.0000001, 1.7e308]),
       radius=st.sampled_from([1e-3, 1e-5, 1e-6, 1e-7, 1.0, 100.0, 1e-300]),
       g=st.sampled_from([9.8, 5e-324, 1.7e308]), eps=_EPS, output=_OUTPUTS,
       grid=st.sampled_from([(1e-4, 0.1), (1e-5, 0.01), (0.1, 0.5), (1e-3, 2.0), (10.0, 100.0),
                             (1e290, 1e291), (5e-324, 5e-321)]))
@example(rho_s=1190.0, rho=1000.0, mu=1e-300, radius=1.0, g=9.8, eps=0.0, output="csv",
         grid=(1e290, 1e291))  # the Basset column overflowed with warnings, then exit 0 with NaN
@settings(max_examples=60, deadline=None)
def test_drag_keeps_the_cli_contract(rho_s, rho, mu, radius, g, eps, output, grid):
    h, T = grid
    _keeps_the_cli_contract(["drag", "--rho-s", repr(rho_s), "--rho", repr(rho), "--mu", repr(mu),
                             "--radius", repr(radius), "--g", repr(g), "--eps=" + repr(eps),
                             "--h", repr(h), "--T", repr(T), "--output", output],
                            "out." + output)


@given(h=st.sampled_from([1e-3, 0.01, 0.1, 0.5, 1.0, 10.0, 1e180, 5e-324, 0.0, -1.0]),
       points=st.sampled_from([-1, 0, 1, 2, 20]))
@example(h=-1.0, points=2)  # a TypeError traceback: the tolerance took a complex power of h
@settings(max_examples=30, deadline=None)
def test_verify_keeps_the_cli_contract(h, points):
    # Exit 2 writes its report as exit 0 does; both print one PASS or FAIL line per report.
    code, stdout, err, written = _run_in_a_fresh_directory(
        ["verify", "--h=" + repr(h), "--points=" + repr(points)], "verify.json")
    assert code in (0, 1, 2), err
    if code == 1:
        assert (stdout, written, len(err)) == ("", {}, 1) and err[0].startswith("error: "), err
        return
    assert err == [] and list(written) == ["verify.json"]
    report = json.loads(written["verify.json"])
    assert report["passed"] is (code == 0)
    verdicts = ["PASS" if r["passed"] else "FAIL" for r in report["reports"]]
    assert [line.split(" ", 1)[0] for line in stdout.splitlines()] == verdicts
    assert code == 0 or "FAIL" in verdicts


@pytest.mark.parametrize("solver", ["closed-form", "ide", "ode"])
@pytest.mark.parametrize("to_file", [True, False], ids=["file", "stdout"])
def test_a_grid_too_large_to_allocate_is_one_usage_error(tmp_path, monkeypatch, capsys, solver,
                                                          to_file):
    # What numpy raises for --h 1e-15; the solvers raise it here without allocating.
    message = "Unable to allocate 7.11 PiB for an array with shape (1000000000000001,)"

    def no_memory(*args):
        raise MemoryError(message)

    monkeypatch.setattr(ode, "uniform_grid", no_memory)
    monkeypatch.setattr(ide, "solve_ide", no_memory)
    monkeypatch.setattr(ode, "solve_oscillator", no_memory)
    out = ["--out", str(tmp_path / "traj.csv")] if to_file else []
    assert main(["trajectory", "--kappa", "2", "--T", "1", "--h", "1e-15", "--solver", solver,
                 *out]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"
    assert os.listdir(tmp_path) == []


def test_every_json_document_opens_with_the_schema(tmp_path):
    # The five JSON documents share one envelope: the schema first, one-space
    # indent, one trailing newline.
    runs = [
        (["trajectory", "--kappa", "1", "--T", "0.1", "--h", "0.01", "--output", "json"],
         "traj.json", "traj.json"),
        (["sweep", "--kappas", "1", "--T", "0.1", "--h", "0.01", "--output", "json"],
         "sw", "sw/sweep_summary.json"),
        (["compare", "--kappa", "1", "--T", "0.1", "--h", "0.01"],
         "cmp.csv", "cmp.csv.summary.json"),
        (["verify", "--h", "0.01", "--points", "20"], "verify.json", "verify.json"),
        (["drag", "--rho-s", "1190", *_DRAG_ARGS, "--output", "json"], "drag.json", "drag.json"),
    ]
    for argv, out, doc in runs:
        assert main([*argv, "--out", str(tmp_path / out)]) == 0
        text = (tmp_path / doc).read_text()
        assert text.startswith('{\n "schema": 1,\n "'), (doc, text[:40])
        assert text.endswith("\n}\n"), doc
        assert json.loads(text)["schema"] == 1


@pytest.mark.parametrize("umask", [0o022, 0o027, 0o077])
@pytest.mark.parametrize("output", ["csv", "json"])
def test_output_files_take_the_mode_open_gives_under_the_umask(tmp_path, umask, output):
    # The atomic write goes through a 0o600 temporary file; the result must not keep that mode.
    path = tmp_path / f"a.{output}"
    old = os.umask(umask)
    try:
        code = main(["trajectory", "--kappa", "2", "--T", "1", "--h", "0.1", "--output", output,
                     "--out", str(path)])
        with open(tmp_path / "plain", "w"):
            pass
    finally:
        os.umask(old)
    assert code == 0
    assert stat.S_IMODE(path.stat().st_mode) == 0o666 & ~umask
    assert stat.S_IMODE(path.stat().st_mode) == stat.S_IMODE((tmp_path / "plain").stat().st_mode)


def test_an_output_file_is_written_without_setting_the_umask_or_a_mode(tmp_path, monkeypatch):
    # Reading the umask means setting it, and while it is 0 a file that another thread
    # creates is world-writable.
    def forbidden(*args):
        raise AssertionError("the atomic write set the umask or a mode")

    monkeypatch.setattr(os, "umask", forbidden)
    monkeypatch.setattr(os, "chmod", forbidden)
    out = tmp_path / "a.csv"
    assert main(["trajectory", "--kappa", "2", "--T", "1", "--h", "0.1", "--out", str(out)]) == 0
    assert out.read_text().startswith("t,u,du\n")
    assert os.listdir(tmp_path) == ["a.csv"]


def test_main_builds_its_parser_once(monkeypatch):
    parsers = []
    parse_args = cli._Parser.parse_args

    def recording(self, *args, **kwargs):
        parsers.append(self)
        return parse_args(self, *args, **kwargs)

    monkeypatch.setattr(cli._Parser, "parse_args", recording)
    assert main(["trajectory"]) == main(["trajectory"]) == 1
    assert len(parsers) == 2 and parsers[0] is parsers[1]
