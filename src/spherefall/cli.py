"""Command-line front end: trajectories, sweeps, solver comparisons, verification, drag.

Outputs are machine-readable (CSV with an `t,u,du` header or versioned
JSON), floats are written in shortest round-trip form, and files are
replaced atomically, so identical configurations produce byte-identical
results.  Exit codes: 0 success (and, for `verify`, all checks passed),
1 usage error (a non-finite flag, an unwritable output), 2 verification
failure (reports still written), 3 numerical failure (overflow/divergence).
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


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # argparse default exits with code 2
        raise _UsageError(message)


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

def _fmt(x: float) -> str:
    return repr(float(x))


def _atomic_write(path: str, text: str) -> None:
    tmp = None
    try:
        fd, tmp = tempfile.mkstemp(dir=os.path.dirname(os.path.abspath(path)), suffix=".tmp")
        with os.fdopen(fd, "w", newline="\n") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except OSError as exc:  # name the requested path, not the temporary file
        raise OSError(exc.errno, exc.strerror, path) from None
    finally:
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)


def _csv_text(header: list[str], columns: list[np.ndarray]) -> str:
    """CSV of equal-length float columns, each value in shortest round-trip form."""
    cells = [map(repr, np.asarray(c, dtype=float).tolist()) for c in columns]
    lines = [",".join(header), *map(",".join, zip(*cells))]
    return "\n".join(lines) + "\n"


def _emit(path: str, text: str) -> None:
    if path == "-":
        sys.stdout.write(text)
    else:
        _atomic_write(path, text)


def _emit_columns(output: str, path: str, columns: dict[str, np.ndarray], **fields) -> None:
    """Named columns as CSV, or as JSON lists after the schema and the given fields."""
    if output == "json":
        payload = {"schema": SCHEMA_VERSION, **fields,
                   **{name: col.tolist() for name, col in columns.items()}}
        _emit(path, json.dumps(payload, indent=1) + "\n")
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
    if solver == "ide":
        return ide.solve_ide(kappa, eps, h, T)
    v = _solve_oscillator(solver, ode.OscillatorProblem.sphere(kappa, eps), h, T)
    if solver == "closed-form":
        meta = {"solver": solver, "kappa": kappa, "eps": eps, "h": h, "T": v.meta["T"]}
    else:
        meta = {**v.meta, "kappa": kappa, "eps": eps, "variable": "u"}
    return dataclasses.replace(v, values=v.values + 1.0, meta=meta)


# ----------------------------------------------------------------------
# Commands: each reads its parsed arguments and returns the exit status
# ----------------------------------------------------------------------

def _cmd_trajectory(args: argparse.Namespace) -> int:
    if args.b is None and args.kappa is None:
        raise _UsageError("trajectory: provide --kappa (sphere) or --b (oscillator)")
    if args.b is not None and args.kappa is not None:
        raise _UsageError("trajectory: --kappa and --b are mutually exclusive")
    if args.b is None:
        traj = _sphere_trajectory(args.solver, args.kappa, args.eps, args.h, args.T)
    elif args.solver == "ide":
        raise _UsageError("the ide solver applies to the sphere problem only")
    else:
        ic = analytic.monotone_initial_conditions(args.b, args.A, args.t0)
        prob = ode.OscillatorProblem(b=args.b, A=args.A, t0=args.t0, v0=ic.v0,
                                     v0_prime=ic.v0_prime)
        traj = _solve_oscillator(args.solver, prob, args.h, args.T)
    _write_trajectory(args.output, traj, args.out)
    if traj.meta.get("diverged"):
        return EXIT_NUMERICAL
    return EXIT_OK


def _sweep_one(args: argparse.Namespace, kappa: float, traj: Trajectory) -> dict:
    tol = 1e-12 if args.solver == "closed-form" else 10.0 * args.h
    mono = analysis.check_monotone(traj, tol=tol)
    path = os.path.join(args.out, f"trajectory_kappa_{kappa:g}.{args.output}")
    _write_trajectory(args.output, traj, path)
    return {
        "kappa": kappa,
        "terminal_error": abs(float(traj.values[-1]) - 1.0),
        "monotone": mono.passed,
        "file": os.path.basename(path),
    }


def _cmd_sweep(args: argparse.Namespace) -> int:
    try:
        kappas = [float(s) for s in args.kappas.split(",") if s.strip()]
    except ValueError as exc:
        raise _UsageError(f"sweep: bad --kappas list: {exc}") from exc
    if not kappas:
        raise _UsageError("sweep: --kappas list is empty")
    # Every kappa is solved before the directory is made, so a bad one leaves no output.
    solved = [(k, _sphere_trajectory(args.solver, k, args.eps, args.h, args.T)) for k in kappas]
    os.makedirs(args.out, exist_ok=True)
    results = sorted((_sweep_one(args, k, traj) for k, traj in solved), key=lambda r: r["kappa"])
    summary_path = os.path.join(args.out, f"sweep_summary.{args.output}")
    if args.output == "json":
        _atomic_write(
            summary_path,
            json.dumps({"schema": SCHEMA_VERSION, "sweep": results}, indent=1) + "\n",
        )
    else:
        lines = ["kappa,terminal_error,monotone,file"]
        for r in results:
            lines.append(
                f"{_fmt(r['kappa'])},{_fmt(r['terminal_error'])},"
                f"{str(r['monotone']).lower()},{r['file']}"
            )
        _atomic_write(summary_path, "\n".join(lines) + "\n")
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
        _atomic_write(
            args.out + ".summary.json",
            json.dumps({"schema": SCHEMA_VERSION, "sup_norm": sup}, indent=1) + "\n",
        )
    print(f"sup-norm ide={sup['ide']:.6g} ode={sup['ode']:.6g}", file=sys.stderr)
    return EXIT_OK


def _cmd_verify(args: argparse.Namespace) -> int:
    reports = analysis.run_default_suite(h=args.h, points=args.points)
    for rep in reports:
        status = "PASS" if rep.passed else "FAIL"
        print(
            f"{status} {rep.check_id}: worst={rep.worst_violation:.3e} "
            f"tol={rep.tolerance:.3e} at {rep.location}"
        )
    payload = {
        "schema": SCHEMA_VERSION,
        "passed": all(r.passed for r in reports),
        "reports": [dataclasses.asdict(r) for r in reports],
    }
    if args.out != "-":
        _atomic_write(args.out, json.dumps(payload, indent=1) + "\n")
    return EXIT_OK if payload["passed"] else EXIT_VERIFICATION


def _cmd_drag(args: argparse.Namespace) -> int:
    p = physical.PhysicalParams(rho_s=args.rho_s, rho=args.rho, mu=args.mu, R=args.radius,
                                g=args.g)
    group = physical.nondimensionalize(p)
    # h and T arrive in seconds; the solver works in viscous-time units.
    traj = ide.solve_ide(group.kappa, args.eps, args.h * group.B, args.T * group.B)
    dim = physical.dimensional_trajectory(group, traj)
    columns = [dim.times, dim.values, dim.derivatives, *physical.drag_forces(p, dim)]
    header = ["t", "U", "dU", "F_stokes", "F_added_mass", "F_basset", "F_buoyancy",
              "residual"]
    if args.output == "json":
        payload = {
            "schema": SCHEMA_VERSION,
            "columns": header,
            "rows": np.column_stack(columns).tolist(),
        }
        _emit(args.out, json.dumps(payload, indent=1) + "\n")
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

    def add_common(sp, with_solver=True):
        sp.add_argument("--h", type=_finite_float, default=1e-3, help="step size")
        sp.add_argument("--T", type=_finite_float, default=10.0, help="horizon")
        sp.add_argument("--output", choices=("csv", "json"), default="csv")
        sp.add_argument("--out", default="-", help="output path ('-' = stdout)")
        if with_solver:
            sp.add_argument(
                "--solver", choices=("closed-form", "ide", "ode"), default="closed-form"
            )

    sp = sub.add_parser("trajectory", help="one trajectory (sphere or forced oscillator)")
    sp.add_argument("--kappa", type=_finite_float, help="density parameter of the sphere problem")
    sp.add_argument("--eps", type=_finite_float, default=0.0, help="initial velocity u(0)")
    sp.add_argument("--b", type=_finite_float, help="oscillator damping (enables oscillator mode)")
    sp.add_argument("--A", type=_finite_float, default=1.0, help="oscillator forcing amplitude")
    sp.add_argument("--t0", type=_finite_float, default=0.0, help="oscillator forcing offset")
    add_common(sp)
    sp.set_defaults(handler=_cmd_trajectory)

    sp = sub.add_parser("sweep", help="sphere trajectories over a list of kappa values")
    sp.add_argument("--kappas", required=True,
                    help="comma-separated kappa list, e.g. 0.5,1,2.5")
    sp.add_argument("--eps", type=_finite_float, default=0.0)
    add_common(sp)
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
    except (_UsageError, ValueError, OSError) as exc:  # OSError: an unwritable output
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ArithmeticError as exc:  # includes OverflowError and AccuracyError
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
