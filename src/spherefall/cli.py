"""Command-line front end: trajectories, sweeps, solver comparisons, verification, drag.

Outputs are machine-readable (CSV with an `t,u,du` header or versioned
JSON), floats are written in shortest round-trip form, and files are
replaced atomically, so identical configurations produce byte-identical
results.  Exit codes: 0 success (and, for `verify`, all checks passed), 1 usage
error (a non-finite flag, an unwritable output, a grid too large to allocate),
2 verification failure (reports still written), 3 numerical failure (overflow/divergence).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
import tempfile

import numpy as np

from . import analysis, analytic, ide, ode, physical
from .trajectory import Trajectory, uniform_grid

__all__ = ["main"]

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VERIFICATION = 2
EXIT_NUMERICAL = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # argparse default exits with code 2
        raise ValueError(message)


def _finite_float(text: str) -> float:
    """The argument type of every real-valued flag: NaN and infinities are usage errors."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be a finite number, got {text!r}")
    return value


# ----------------------------------------------------------------------
# Output helpers
# ----------------------------------------------------------------------

def _json_text(**fields) -> bytes:
    """A JSON document: the schema version, then the given fields in order.

    The bytes are ``json.dumps({"schema": 1, **fields}, indent=1) + "\\n"``
    in ASCII.  A non-empty float array field (a column, or drag's rows
    as a 2-D array) is written by the shortest-digit kernel, which prints
    each cell as json does, with ``float.__repr__``, and a non-finite cell
    as ``NaN``, ``Infinity`` or ``-Infinity``; every other value goes
    through ``json.dumps``.
    """
    parts = [b'{\n "schema": %d' % SCHEMA_VERSION]
    for name, value in fields.items():
        parts.append(b",\n %s: " % json.dumps(name).encode("ascii"))
        if (isinstance(value, np.ndarray) and value.dtype == np.float64 and value.ndim in (1, 2)
                and value.size):
            parts.append(_json_array(value))
        else:
            value = value.tolist() if isinstance(value, np.ndarray) else value
            parts.append(json.dumps(value, indent=1).replace("\n", "\n ").encode("ascii"))
    parts.append(b"\n}\n")
    return b"".join(parts)


def _json_array(cells: np.ndarray) -> bytes:
    """A non-empty 1-D or 2-D float array as ``json.dumps(cells.tolist(), indent=1)`` writes it
    one level deep: the kernel puts ``,`` between the cells of a row and ``;`` after it, and
    those become json's line breaks and indentation, ``,`` first (a row break holds one).
    A non-finite cell's ``repr`` ``nan``/``inf`` becomes ``NaN``/``Infinity``, as in json."""
    from . import _shortest  # on first use, so a document without arrays loads no formatter

    cell = b"\n" + b" " * (cells.ndim + 1)  # each cell on its own line, indented
    if cells.ndim == 1:
        head, row_break, tail = b"[" + cell, b"," + cell, b"\n ]"
    else:
        head, row_break, tail = b"[\n  [" + cell, b"\n  ],\n  [" + cell, b"\n  ]\n ]"
    rows = cells.reshape(len(cells), -1)
    text = _shortest.cells_text(rows, b"," * (rows.shape[1] - 1) + b";")[:-1]
    if not np.isfinite(cells).all():
        text = text.replace(b"nan", b"NaN").replace(b"inf", b"Infinity")
    return head + text.replace(b",", b"," + cell).replace(b";", row_break) + tail


def _atomic_write(path: str, data: bytes) -> None:
    """Write data to path through a temporary file in its directory, then rename it into place.

    The file gets the mode ``open`` gives a new file, 0o666 less the umask,
    not the 0o600 of the temporary file.
    """
    tmp = None
    try:
        fd, tmp = tempfile.mkstemp(dir=os.path.dirname(os.path.abspath(path)), suffix=".tmp")
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        umask = os.umask(0)  # reading the umask means setting it; put it straight back
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)
        os.replace(tmp, path)
    except OSError as exc:  # name the requested path, not the temporary file
        raise OSError(exc.errno, exc.strerror, path) from None
    finally:
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)


def _csv_text(header: list[str], columns: list[np.ndarray]) -> bytes:
    """CSV of equal-length float columns, each value as ``repr`` prints it (shortest round trip)."""
    from . import _shortest  # on first use, so importing the CLI loads no formatter

    rows = _shortest.cells_text(np.column_stack(columns), b"," * (len(columns) - 1) + b"\n")
    return ",".join(header).encode("ascii") + b"\n" + rows


def _emit(path: str, data: bytes) -> None:
    if path == "-":
        sys.stdout.write(data.decode("ascii"))  # text: a redirected stdout may have no buffer
    else:
        _atomic_write(path, data)


def _emit_columns(output: str, path: str, columns: dict[str, np.ndarray], **fields) -> None:
    """Named columns as CSV, or as JSON lists after the schema and the given fields."""
    if output == "json":
        _emit(path, _json_text(**fields, **columns))
    else:
        _emit(path, _csv_text(list(columns), list(columns.values())))


def _write_trajectory(output: str, traj: Trajectory, path: str) -> None:
    columns = {"t": traj.times, "u": traj.values, "du": traj.derivatives}
    _emit_columns(output, path, columns, meta=dict(traj.meta))


# ----------------------------------------------------------------------
# Solvers behind the `trajectory`/`compare` commands
# ----------------------------------------------------------------------

def _solve_oscillator(solver: str, prob: ode.OscillatorProblem, h: float, T: float) -> Trajectory:
    """The monotone trajectory of prob in closed form, or prob integrated by RK4."""
    if solver == "ode":
        return ode.solve_oscillator(prob, h, T)
    times = uniform_grid(h, T)
    values, derivs = analytic.monotone_kernel_samples(times, prob.b, prob.A, prob.t0)
    meta = {"solver": "closed-form", "b": prob.b, "A": prob.A, "t0": prob.t0,
            "h": h, "T": (len(times) - 1) * h, "variable": "v"}
    return Trajectory(times=times, values=values, derivatives=derivs, meta=meta)


def _sphere_trajectory(solver: str, kappa: float, eps: float, h: float, T: float) -> Trajectory:
    """The sphere released with u(0) = eps: solve_ide, or its oscillator v = u - 1 shifted to u."""
    if solver == "ide":
        return ide.solve_ide(kappa, eps, h, T)
    traj = _solve_oscillator(solver, ode.OscillatorProblem.sphere(kappa, eps), h, T)
    traj.values += 1.0
    traj.meta.update(kappa=kappa, eps=eps, variable="u")
    return traj


# ----------------------------------------------------------------------
# Commands: each reads its parsed arguments and returns 0 (or verify's 2); failures raise
# ----------------------------------------------------------------------

def _cmd_trajectory(args: argparse.Namespace) -> int:
    if args.b is None and args.kappa is None:
        raise ValueError("trajectory: provide --kappa (sphere) or --b (oscillator)")
    if args.b is not None and args.kappa is not None:
        raise ValueError("trajectory: --kappa and --b are mutually exclusive")
    if args.b is None:
        if args.A is not None or args.t0 is not None:
            raise ValueError("trajectory: --A and --t0 apply to the oscillator (--b) only")
        eps = 0.0 if args.eps is None else args.eps
        traj = _sphere_trajectory(args.solver, args.kappa, eps, args.h, args.T)
    elif args.eps is not None:
        raise ValueError("trajectory: --eps applies to the sphere (--kappa) only")
    elif args.solver == "ide":
        raise ValueError("the ide solver applies to the sphere problem only")
    else:
        A, t0 = 1.0 if args.A is None else args.A, 0.0 if args.t0 is None else args.t0
        ic = analytic.monotone_initial_conditions(args.b, A, t0)
        prob = ode.OscillatorProblem(b=args.b, A=A, t0=t0, v0=ic.v0, v0_prime=ic.v0_prime)
        traj = _solve_oscillator(args.solver, prob, args.h, args.T)
    _write_trajectory(args.output, traj, args.out)
    if traj.meta.get("diverged"):
        raise ArithmeticError(f"RK4 diverged after t={traj.meta['T']:g}")
    return EXIT_OK


def _sweep_file(kappa: float, output: str) -> str:
    return f"trajectory_kappa_{kappa:g}.{output}"


def _sweep_one(args: argparse.Namespace, kappa: float, traj: Trajectory) -> dict:
    tol = 1e-12 if args.solver == "closed-form" else 10.0 * args.h
    mono = analysis.check_monotone(traj, tol=tol)
    path = os.path.join(args.out, _sweep_file(kappa, args.output))
    _write_trajectory(args.output, traj, path)
    return {
        "kappa": kappa,
        "terminal_error": abs(float(traj.values[-1]) - 1.0),
        "monotone": mono.passed,
        "file": os.path.basename(path),
    }


def _cmd_sweep(args: argparse.Namespace) -> int:
    if args.out == "-":
        raise ValueError("sweep: --out names the output directory; '-' (stdout) is not one")
    try:
        kappas = [float(s) for s in args.kappas.split(",") if s.strip()]
    except ValueError as exc:
        raise ValueError(f"sweep: bad --kappas list: {exc}") from exc
    if not kappas:
        raise ValueError("sweep: --kappas list is empty")
    files = [_sweep_file(k, args.output) for k in kappas]
    clash = next((f for f in files if files.count(f) > 1), None)
    if clash is not None:
        raise ValueError(f"sweep: two kappas share the output file {clash}")
    # Every kappa is solved before the directory is made, so a bad one leaves no output.
    solved = [(k, _sphere_trajectory(args.solver, k, args.eps, args.h, args.T)) for k in kappas]
    os.makedirs(args.out, exist_ok=True)
    results = sorted((_sweep_one(args, k, traj) for k, traj in solved), key=lambda r: r["kappa"])
    summary_path = os.path.join(args.out, f"sweep_summary.{args.output}")
    if args.output == "json":
        _atomic_write(summary_path, _json_text(sweep=results))
    else:
        lines = ["kappa,terminal_error,monotone,file"] + [
            f"{r['kappa']!r},{r['terminal_error']!r},{str(r['monotone']).lower()},{r['file']}"
            for r in results]
        _atomic_write(summary_path, ("\n".join(lines) + "\n").encode("ascii"))
    diverged = [f"RK4 diverged at kappa={k:g} after t={traj.meta['T']:g}"
                for k, traj in solved if traj.meta.get("diverged")]
    if diverged:
        raise ArithmeticError("\n".join(diverged))
    return EXIT_OK


def _cmd_compare(args: argparse.Namespace) -> int:
    closed, ide_traj, ode_traj = (_sphere_trajectory(s, args.kappa, args.eps, args.h, args.T)
                                  for s in ("closed-form", "ide", "ode"))
    n = min(len(closed), len(ide_traj), len(ode_traj))
    u_closed, u_ide, u_ode = closed.values[:n], ide_traj.values[:n], ode_traj.values[:n]
    columns = {"t": closed.times[:n], "u_closed": u_closed, "u_ide": u_ide, "u_ode": u_ode,
               "dev_ide": np.abs(u_ide - u_closed), "dev_ode": np.abs(u_ode - u_closed)}
    sup = {"ide": float(np.max(columns["dev_ide"])), "ode": float(np.max(columns["dev_ode"]))}
    _emit_columns(args.output, args.out, columns, kappa=args.kappa, h=args.h, T=args.T,
                  sup_norm=sup)
    if args.output == "csv" and args.out != "-":
        _atomic_write(args.out + ".summary.json", _json_text(sup_norm=sup))
    print(f"sup-norm ide={sup['ide']:.6g} ode={sup['ode']:.6g}", file=sys.stderr)
    if ode_traj.meta["diverged"]:
        raise ArithmeticError(f"RK4 diverged after t={ode_traj.meta['T']:g}")
    return EXIT_OK


def _cmd_verify(args: argparse.Namespace) -> int:
    reports = analysis.run_default_suite(h=args.h, points=args.points)
    for rep in reports:
        print(f"{'PASS' if rep.passed else 'FAIL'} {rep.check_id}: "
              f"worst={rep.worst_violation:.3e} tol={rep.tolerance:.3e} at {rep.location}")
    passed = all(r.passed for r in reports)
    if args.out != "-":
        _atomic_write(args.out, _json_text(passed=passed,
                                           reports=[dataclasses.asdict(r) for r in reports]))
    return EXIT_OK if passed else EXIT_VERIFICATION


def _cmd_drag(args: argparse.Namespace) -> int:
    p = physical.PhysicalParams(rho_s=args.rho_s, rho=args.rho, mu=args.mu, R=args.radius,
                                g=args.g)
    group = physical.nondimensionalize(p)
    # h and T arrive in seconds; the solver works in viscous-time units.
    traj = ide.solve_ide(group.kappa, args.eps, args.h * group.B, args.T * group.B)
    dim = physical.dimensional_trajectory(group, traj)
    with np.errstate(over="ignore", invalid="ignore"):  # a force past the double range fails below
        forces = physical.drag_forces(p, dim)
    worst, bound = np.max(np.abs(forces.residual)), 1e-9 * abs(forces.buoyancy[0])
    if not worst <= bound:  # the balance of a solve closes to rounding; a NaN fails too
        raise ArithmeticError(f"drag: max|residual| = {worst:.3g} N > 1e-9 |F_buoyancy| = "
                              f"{bound:.3g} N at the step h B = {traj.meta['h']:.3g} viscous times")
    columns = [dim.times, dim.values, dim.derivatives, *forces]
    header = ["t", "U", "dU", "F_stokes", "F_added_mass", "F_basset", "F_buoyancy",
              "residual"]
    if args.output == "json":
        _emit(args.out, _json_text(columns=header, rows=np.column_stack(columns)))
    else:
        _emit(args.out, _csv_text(header, columns))
    return EXIT_OK


# ----------------------------------------------------------------------
# Argument parsing
# ----------------------------------------------------------------------

def _build_parser() -> _Parser:
    parser = _Parser(
        prog="spherefall",
        description="Transient sedimentation of a sphere in creeping Newtonian flow.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(sp, with_solver=True, out_help="output path ('-' = stdout)"):
        sp.add_argument("--h", type=_finite_float, default=1e-3, help="step size")
        sp.add_argument("--T", type=_finite_float, default=10.0, help="horizon")
        sp.add_argument("--output", choices=("csv", "json"), default="csv")
        sp.add_argument("--out", default="-", help=out_help)
        if with_solver:
            sp.add_argument(
                "--solver", choices=("closed-form", "ide", "ode"), default="closed-form"
            )

    sp = sub.add_parser("trajectory", help="one trajectory (sphere or forced oscillator)")
    sp.add_argument("--kappa", type=_finite_float, help="density parameter of the sphere problem")
    sp.add_argument("--eps", type=_finite_float, help="sphere's initial velocity u(0) (default 0)")
    sp.add_argument("--b", type=_finite_float, help="oscillator damping (enables oscillator mode)")
    sp.add_argument("--A", type=_finite_float, help="oscillator forcing amplitude (default 1)")
    sp.add_argument("--t0", type=_finite_float, help="oscillator forcing offset (default 0)")
    add_common(sp)
    sp.set_defaults(handler=_cmd_trajectory)

    sp = sub.add_parser("sweep", help="sphere trajectories over a list of kappa values")
    sp.add_argument("--kappas", required=True,
                    help="comma-separated kappa list, e.g. 0.5,1,2.5")
    sp.add_argument("--eps", type=_finite_float, default=0.0)
    add_common(sp, out_help="output directory (default sweep_out)")
    sp.set_defaults(handler=_cmd_sweep, out="sweep_out")

    sp = sub.add_parser("compare", help="closed-form vs IDE vs ODE on one grid")
    sp.add_argument("--kappa", type=_finite_float, required=True)
    sp.add_argument("--eps", type=_finite_float, default=0.0)
    add_common(sp, with_solver=False)
    sp.set_defaults(handler=_cmd_compare)

    sp = sub.add_parser("verify", help="run the verification suite")
    sp.add_argument("--h", type=_finite_float, default=1e-3)
    sp.add_argument("--points", type=int, default=400, help="closed-form grid density")
    sp.add_argument("--out", default="-", help="JSON report path")
    sp.set_defaults(handler=_cmd_verify)

    sp = sub.add_parser("drag", help="dimensional force decomposition along a solve")
    sp.add_argument("--rho-s", type=_finite_float, required=True, dest="rho_s")
    sp.add_argument("--rho", type=_finite_float, required=True)
    sp.add_argument("--mu", type=_finite_float, required=True)
    sp.add_argument("--radius", type=_finite_float, required=True)
    sp.add_argument("--g", type=_finite_float, default=9.81)
    sp.add_argument("--eps", type=_finite_float, default=0.0, help="initial velocity / U0")
    sp.add_argument("--h", type=_finite_float, default=1e-4, help="step size in seconds")
    sp.add_argument("--T", type=_finite_float, default=0.1, help="horizon in seconds")
    sp.add_argument("--output", choices=("csv", "json"), default="csv")
    sp.add_argument("--out", default="-")
    sp.set_defaults(handler=_cmd_drag)
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        return args.handler(args)
    except (ValueError, OSError, MemoryError) as exc:  # unwritable; unallocatable
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ArithmeticError as exc:  # includes OverflowError and AccuracyError
        for line in str(exc).split("\n"):  # a sweep names each diverged kappa on its own line
            print(f"numerical failure: {line}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
