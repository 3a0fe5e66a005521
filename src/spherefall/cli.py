"""Command-line front end: trajectories, sweeps, solver comparisons, verification, drag.

Outputs are machine-readable (CSV with an `t,u,du` header or versioned
JSON), floats are written in shortest round-trip form, and files are
replaced atomically, so identical configurations produce byte-identical
results.  Exit codes: 0 success (and, for `verify`, all checks passed), 1 usage
error (a non-finite flag, an unwritable output, a grid too large to allocate),
2 verification failure (reports still written), 3 numerical failure (overflow, divergence, or
a solver run that breaks the monotone approach from eps to 1).
"""

from __future__ import annotations

import argparse
import ctypes
import dataclasses
import functools
import json
import math
import os
import re
import sys

import numpy as np

from . import analysis, ode, physical
from .trajectory import Trajectory

__all__ = ["main"]

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VERIFICATION = 2
EXIT_NUMERICAL = 3

# glibc's mallopt parameter numbers (malloc.h)
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # argparse takes a single-dash token that names no option for an unknown option
        # unless it reads as a negative number, by a pattern that changes between Python
        # versions and misses -1e-3 and -inf.  Here every such token is a value, and the
        # flag's type, float(), alone judges it.
        self._negative_number_matcher = re.compile(r"^-[^-]")

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

    ``open`` creates the temporary file, so the file takes the mode ``open`` gives a new
    file, 0o666 less the umask, with neither the umask nor the mode set here.
    """
    tmp = None
    try:
        name = os.path.join(os.path.dirname(os.path.abspath(path)), f"{os.urandom(8).hex()}.tmp")
        with open(name, "xb") as fh:
            tmp = name
            fh.write(data)
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


def _run_failures(runs: list[Trajectory], in_sweep: bool = False) -> str | None:
    """The ``numerical failure:`` lines of solver runs, checked before anything is written.

    RK4's overflow guard speaks first: if a run diverged, its rows up to the divergence
    are written, and the lines returned here, one per diverged run (naming its kappa in
    a sweep), are raised after.  Otherwise the first run that breaks the monotone
    approach (``meta["monotone_break_t"]``) raises here, so nothing is written; its line
    names the solver, kappa (b for the oscillator) and the first t that breaks it.
    """
    metas = [traj.meta for traj in runs]
    diverged = ["RK4 diverged" + (f" at kappa={meta['kappa']:g}" if in_sweep else "")
                + f" after t={meta['T']:g}" for meta in metas if meta.get("diverged")]
    if diverged:
        return "\n".join(diverged)
    for meta in metas:
        if "monotone_break_t" in meta:
            name = "kappa" if "kappa" in meta else "b"
            raise ArithmeticError(f"{meta['solver'].upper()} at {name}={meta[name]:g} leaves the "
                                  f"monotone approach at t={meta['monotone_break_t']:g}")
    return None


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
        traj = ode.sphere_trajectory(args.solver, args.kappa, eps, args.h, args.T)
    elif args.eps is not None:
        raise ValueError("trajectory: --eps applies to the sphere (--kappa) only")
    else:
        A, t0 = 1.0 if args.A is None else args.A, 0.0 if args.t0 is None else args.t0
        traj = ode.monotone_trajectory(args.solver, args.b, A, t0, args.h, args.T)
    diverged = _run_failures([traj])
    _write_trajectory(args.output, traj, args.out)
    if diverged:
        raise ArithmeticError(diverged)
    return EXIT_OK


def _sweep_file(kappa: float, output: str) -> str:
    return f"trajectory_kappa_{kappa:g}.{output}"


def _sweep_one(args: argparse.Namespace, kappa: float, traj: Trajectory) -> dict:
    path = os.path.join(args.out, _sweep_file(kappa, args.output))
    _write_trajectory(args.output, traj, path)
    return {
        "kappa": kappa,
        "terminal_error": abs(float(traj.values[-1]) - 1.0),
        "monotone": "monotone_break_t" not in traj.meta,
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
    solved = [(k, ode.sphere_trajectory(args.solver, k, args.eps, args.h, args.T)) for k in kappas]
    diverged = _run_failures([traj for _, traj in solved], in_sweep=True)
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
    if diverged:
        raise ArithmeticError(diverged)
    return EXIT_OK


def _cmd_compare(args: argparse.Namespace) -> int:
    closed, ide_traj, ode_traj = (ode.sphere_trajectory(s, args.kappa, args.eps, args.h, args.T)
                                  for s in ode._SOLVERS)
    diverged = _run_failures([ide_traj, ode_traj])
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
    if diverged:
        raise ArithmeticError(diverged)
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
    traj, table = physical._drag_table(p, args.eps, args.h, args.T)
    _run_failures([traj])  # after the balance, which names a step far too coarse
    header, columns = list(table), list(table.values())
    if args.output == "json":
        _emit(args.out, _json_text(columns=header, rows=np.column_stack(columns)))
    else:
        _emit(args.out, _csv_text(header, columns))
    return EXIT_OK


# ----------------------------------------------------------------------
# Argument parsing
# ----------------------------------------------------------------------

@functools.cache  # built on the first main call, then reused: parse_args keeps no state
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
            sp.add_argument("--solver", choices=ode._SOLVERS, default="closed-form")

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


@functools.cache  # once per process: the settings outlast every later call
def _keep_freed_heap() -> None:
    """Have glibc's malloc keep freed memory mapped, so the next pass reuses it unfaulted.

    glibc's dynamic thresholds unmap or trim numpy's freed temporaries of 128 KiB
    and up, and the kernel faults them back in, zeroed, on the next pass: 500 to
    1,650 minor faults per steady command.  With the mmap threshold at its 64-bit
    maximum and the trim threshold above any heap a command reaches, 0 to 1 are
    left.  Setting either one fixes the other's dynamic value, which alone faults
    more, so both are set.  Only the short-lived CLI process does this, not an
    import.  Where the C library has no mallopt (macOS, Windows), nothing changes.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError, TypeError):  # TypeError: CDLL(None) on Windows
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    mallopt(_M_TRIM_THRESHOLD, 1 << 30)
    mallopt(_M_MMAP_THRESHOLD, 32 << 20)


def main(argv: list[str] | None = None) -> int:
    _keep_freed_heap()
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
