"""Tests for the command-line interface."""

import json
import math
import os
import re
import subprocess
import sys

import numpy as np
import pytest

import spherefall
from direct_oracle import abel_history_direct
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


def test_cli_runs_without_scipy(tmp_path):
    # Neither the import nor a verify run (which calls both quadrature oracles) loads scipy.
    report = tmp_path / "verify.json"
    code = ("import sys\n"
            "from spherefall.cli import main\n"
            "loaded = lambda: sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
            "at_import = loaded()\n"
            f"main(['verify', '--h', '0.01', '--points', '20', '--out', {str(report)!r}])\n"
            "print(at_import, loaded())\n")
    src = os.path.dirname(os.path.dirname(spherefall.__file__))
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src})
    assert done.stdout.splitlines()[-1] == "[] []", done.stderr
    assert json.loads(report.read_text())["schema"] == 1


def test_usage_errors_exit_one(tmp_path, capsys):
    assert main(["trajectory"]) == 1  # neither --kappa nor --b
    assert main(["trajectory", "--kappa", "12", "--T", "1", "--h", "0.01"]) == 1
    assert main(["sweep", "--kappas", "abc"]) == 1
    # A kappa out of the solver's domain stops the sweep before any file is written.
    sweep_dir = tmp_path / "d"
    assert main(["sweep", "--kappas", "1,5", "--T", "1", "--h", "0.01",
                 "--out", str(sweep_dir)]) == 1
    assert not sweep_dir.exists()
    assert main(["nosuchcommand"]) == 1
    # The closed form checks its grid like the ide and ode solvers do.
    out = tmp_path / "traj.csv"
    for solver in ("closed-form", "ide", "ode"):
        base = ["trajectory", "--kappa", "2", "--solver", solver, "--out", str(out)]
        assert main(base + ["--h", "0"]) == 1
        assert main(base + ["--T", "-1", "--h", "0.1"]) == 1
        # An infinite horizon is a usage error, not a numerical failure.
        assert main(base + ["--T", "inf"]) == 1
    assert not out.exists()
    # Every real-valued flag is finite, not only the grid.
    assert main(["trajectory", "--kappa", "2", "--solver", "ide", "--eps", "nan",
                 "--T", "1", "--h", "0.01", "--out", str(out)]) == 1
    assert main(["compare", "--kappa", "2", "--eps", "inf", "--T", "1", "--h", "0.01",
                 "--out", str(out)]) == 1
    assert main(["drag", "--rho-s", "1190", *_DRAG_ARGS, "--g", "nan", "--out", str(out)]) == 1
    assert not out.exists()
    # An output that cannot be written is reported, not raised.
    capsys.readouterr()
    missing = tmp_path / "nodir" / "x.csv"
    assert main(["trajectory", "--kappa", "2", "--T", "1", "--h", "0.01",
                 "--out", str(missing)]) == 1
    err = capsys.readouterr().err
    assert err == f"error: [Errno 2] No such file or directory: {str(missing)!r}\n"
    existing = tmp_path / "file.txt"
    existing.write_text("kept\n")
    assert main(["sweep", "--kappas", "1", "--T", "1", "--h", "0.01",
                 "--out", str(existing)]) == 1
    assert capsys.readouterr().err.startswith("error: [Errno 17] File exists: ")
    assert existing.read_text() == "kept\n"
    # A failed replace leaves no temporary file behind (it is made next to the target).
    (tmp_path / "outdir").mkdir()
    assert main(["trajectory", "--kappa", "2", "--T", "1", "--h", "0.01",
                 "--out", str(tmp_path / "outdir")]) == 1
    assert capsys.readouterr().err.startswith("error: [Errno 21] Is a directory: ")
    assert not list(tmp_path.glob("*.tmp"))


_DRAG_ARGS = ["--rho", "1000", "--mu", "0.1", "--radius", "0.001", "--g", "9.8",
              "--T", "0.005", "--h", "0.0001"]


def test_drag_bad_physical_parameter_is_a_usage_error(capsys):
    code = main(["drag", "--rho-s", "1000", "--rho", "-1", "--mu", "0.1", "--radius", "0.001"])
    assert code == 1
    assert capsys.readouterr().err.startswith("error: PhysicalParams: ")


def test_drag_massless_sphere_closes_the_force_balance(tmp_path):
    # rho_s = 0 is kappa = 9, the edge of the physical domain.
    out = tmp_path / "drag.csv"
    assert main(["drag", "--rho-s", "0", *_DRAG_ARGS, "--out", str(out)]) == 0
    _, rows = _read_csv(out)
    assert len(rows) == 51
    f_buoy = rows[0, 6]
    assert np.max(np.abs(rows[:, 7])) <= 1e-9 * abs(f_buoy)


@pytest.mark.parametrize("points", ["0", "1"])
def test_verify_needs_two_points(tmp_path, capsys, points):
    out = tmp_path / "verify.json"
    assert main(["verify", "--points", points, "--out", str(out)]) == 1
    assert "points" in capsys.readouterr().err
    assert not out.exists()


_NUM = r"-?\d+(\.\d+)?(e[-+]\d+)?"
_T = rf"t={_NUM}"
_VERIFY_LOCATIONS = {
    # A passing sign check has nothing above the floor, so no location.
    "closed_form_monotone": "--",
    "closed_form_derivative_positive": "--",
    "terminal_approach": rf"kappa={_NUM}",
    "root_identities": rf"kappa={_NUM}",
    "decoupling_v0": rf"kappa={_NUM}",
    "proof_integral_negative": rf"t={_NUM}, theta={_NUM}",
    "imag_sqrt_alpha_positive": "--",
    "ide_vs_closed_form": re.escape("kappa=2, [0,10]"),
    "ide_monotone": _T,
    "ode_residual": _T,
    "abel_identity": _T,
    "oscillator_monotone_ic": re.escape("b=-1, A=1, t0=1"),
    "oscillator_monotone": _T,
    "faddeeva_vs_quadrature": rf"x={_NUM}, y={_NUM}",
    "villat_derivative_identity": rf"z=\({_NUM}[-+]{_NUM}j\)",
    "villat_asymptotic_match": rf"\|z\|={_NUM}, arg={_NUM}",
    "naive_villat_blowup": rf"rel_disagreement={_NUM}|rel_disagreement=inf",
}


def test_verify_report_pins_check_order_and_location_formats(tmp_path, capsys):
    out = tmp_path / "verify.json"
    assert main(["verify", "--h", "0.01", "--points", "20", "--out", str(out)]) == 0
    reports = json.loads(out.read_text())["reports"]
    assert [r["check_id"] for r in reports] == list(_VERIFY_LOCATIONS)
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == len(reports)
    for rep, line in zip(reports, lines):
        assert re.fullmatch(_VERIFY_LOCATIONS[rep["check_id"]], rep["location"]), rep
        assert line == (f"PASS {rep['check_id']}: worst={rep['worst_violation']:.3e} "
                        f"tol={rep['tolerance']:.3e} at {rep['location']}")


def test_sphere_ode_rejects_kappa_outside_oscillator_range(capsys):
    code = main(["trajectory", "--kappa", "4.5", "--solver", "ode", "--T", "1", "--h", "0.01"])
    assert code == 1
    assert "kappa" in capsys.readouterr().err


def test_numerical_failure_exit_three(tmp_path):
    out = tmp_path / "div.csv"
    code = main([
        "trajectory", "--b", "-1.9", "--A", "1", "--t0", "1",
        "--solver", "ode", "--T", "800", "--h", "0.05", "--out", str(out),
    ])
    assert code == 3
