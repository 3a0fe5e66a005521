"""The four benchmark workloads: seeded inputs, CLI argv, and output checks.

Every check compares the CLI's files against a reference that does not
use ``spherefall.special``: the closed form is evaluated through
``scipy.special.wofz`` with Vi(z) = wofz(i sqrt(z)), and the drag
columns are recomputed from the SI formulas.  A check returns the
workload's ``max_err`` or raises :class:`CheckFailed`.

Grid sizes are fixed per workload; the seed draws only density ratios,
so the work per invocation does not depend on the seed.  The ``tiny``
sizes run the same code path in a fraction of a second for the
self-test.
"""

from __future__ import annotations

import json
import math
import os
import random
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.special import wofz

# Budget of the IDE solver against the closed form at h = 1e-3 (the
# verification suite's ``ide_vs_closed_form`` check); larger steps scale
# it by the observed order 1.5 of the product-integration scheme.
IDE_TOL = 1e-4
# Two independent closed-form evaluations in double precision; the
# measured disagreement is below 1e-12 on every workload input.
CLOSED_FORM_TOL = 1e-10
# Force-balance residual of the drag table, relative to the buoyancy force.
DRAG_RESIDUAL_TOL = 1e-9


class CheckFailed(Exception):
    """The CLI's output disagrees with the benchmark's reference."""


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


# ----------------------------------------------------------------------
# Reference closed form (independent of spherefall.special)
# ----------------------------------------------------------------------

def _villat(z: np.ndarray) -> np.ndarray:
    return wofz(1j * np.sqrt(z))


def reference_u(tau: np.ndarray, kappa: float) -> tuple[np.ndarray, np.ndarray]:
    """u(tau) and u'(tau) of the sphere released from rest, for kappa in (0, 4)."""
    disc = np.sqrt(complex((kappa - 2.0) ** 2 - 4.0))
    alpha = ((kappa - 2.0) + disc) / 2.0
    beta = ((kappa - 2.0) - disc) / 2.0
    sa, sb = np.sqrt(alpha), np.sqrt(beta)
    va, vb = _villat(alpha * tau), _villat(beta * tau)
    scale = math.sqrt(kappa) / (alpha - beta)
    u = 1.0 + scale * (va / sa - vb / sb)
    # d/dz Vi(z) = Vi(z) - 1/sqrt(pi z); the 1/sqrt(pi tau) parts of the
    # two terms cancel because sqrt(alpha)/sqrt(alpha) = 1.
    du = scale * (sa * va - sb * vb)
    return u.real, du.real


def _read_csv(path: str, header: list[str]) -> np.ndarray:
    with open(path) as fh:
        first = fh.readline().rstrip("\n")
        _require(first == ",".join(header), f"{os.path.basename(path)}: header {first!r}")
        rows = np.loadtxt(fh, delimiter=",", ndmin=2)
    _require(rows.shape[1] == len(header), f"{os.path.basename(path)}: column count")
    _require(bool(np.all(np.isfinite(rows))), f"{os.path.basename(path)}: non-finite value")
    return rows


def _check_grid(t: np.ndarray, h: float, n: int, name: str) -> None:
    _require(len(t) == n + 1, f"{name}: {len(t)} rows, expected {n + 1}")
    grid = np.arange(n + 1) * h
    _require(bool(np.all(np.abs(t - grid) <= 1e-12 * max(grid[-1], 1.0))), f"{name}: grid")


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    sizes: dict[str, dict[str, float]]
    draw: Callable[[random.Random], dict]
    argv: Callable[[dict, dict, str], list[str]]
    check: Callable[[dict, dict, str], float]
    out_is_dir: bool = False


def _kappa(rng: random.Random, lo: float, hi: float) -> float:
    # Six significant digits, so the value, its CLI text and the sweep's
    # ``trajectory_kappa_{kappa:g}`` file name all agree exactly.
    return float(f"{rng.uniform(lo, hi):.6g}")


def _steps(size: dict) -> int:
    return max(1, int(round(size["T"] / size["h"])))


# closed_form_sweep ------------------------------------------------------

def _sweep_draw(rng: random.Random) -> dict:
    return {"kappas": [_kappa(rng, 0.2, 2.0), _kappa(rng, 2.0, 3.95)]}


def _sweep_argv(inputs: dict, size: dict, out: str) -> list[str]:
    return ["sweep", "--solver", "closed-form", "--T", repr(size["T"]), "--h", repr(size["h"]),
            "--kappas", ",".join(f"{k:g}" for k in inputs["kappas"]), "--out", out]


def _sweep_check(inputs: dict, size: dict, out: str) -> float:
    n, h = _steps(size), size["h"]
    summary = _read_summary(os.path.join(out, "sweep_summary.csv"))
    kappas = sorted(inputs["kappas"])
    _require([r["kappa"] for r in summary] == kappas, "summary: kappa column")
    _require(sorted(os.listdir(out)) == sorted(
        ["sweep_summary.csv"] + [f"trajectory_kappa_{k:g}.csv" for k in kappas]),
        "sweep: unexpected file set")
    worst = 0.0
    for row in summary:
        kappa = row["kappa"]
        _require(row["file"] == f"trajectory_kappa_{kappa:g}.csv", "summary: file column")
        _require(row["monotone"] == "true", f"summary: kappa={kappa} not monotone")
        rows = _read_csv(os.path.join(out, row["file"]), ["t", "u", "du"])
        _check_grid(rows[:, 0], h, n, row["file"])
        u, du = reference_u(rows[:, 0], kappa)
        err_u = float(np.max(np.abs(rows[:, 1] - u)))
        err_du = float(np.max(np.abs(rows[:, 2] - du)))
        _require(err_u <= CLOSED_FORM_TOL, f"kappa={kappa}: sup |u - ref| = {err_u:.3e}")
        _require(err_du <= CLOSED_FORM_TOL, f"kappa={kappa}: sup |du - ref| = {err_du:.3e}")
        term = abs(float(u[-1]) - 1.0)
        _require(abs(row["terminal_error"] - term) <= CLOSED_FORM_TOL,
                 f"kappa={kappa}: terminal_error")
        worst = max(worst, err_u)
    return worst


def _read_summary(path: str) -> list[dict]:
    with open(path) as fh:
        lines = fh.read().splitlines()
    _require(lines[0] == "kappa,terminal_error,monotone,file", "summary: header")
    out = []
    for line in lines[1:]:
        kappa, term, mono, name = line.split(",")
        out.append({"kappa": float(kappa), "terminal_error": float(term),
                    "monotone": mono, "file": name})
    return out


# ide_trajectory ---------------------------------------------------------

def _ide_draw(rng: random.Random) -> dict:
    return {"kappa": _kappa(rng, 2.0, 3.95)}


def _ide_argv(inputs: dict, size: dict, out: str) -> list[str]:
    return ["trajectory", "--solver", "ide", "--kappa", f"{inputs['kappa']:g}",
            "--T", repr(size["T"]), "--h", repr(size["h"]), "--out", out]


def _ide_check(inputs: dict, size: dict, out: str) -> float:
    n, h = _steps(size), size["h"]
    rows = _read_csv(out, ["t", "u", "du"])
    _check_grid(rows[:, 0], h, n, "trajectory")
    u = rows[:, 1]
    _require(u[0] == 0.0 and rows[0, 2] == 1.0, "trajectory: initial state")
    # Same allowance as the CLI's own monotone check for discrete solvers.
    drop = float(np.max(u[:-1] - u[1:]))
    _require(drop <= 10.0 * h, f"trajectory: u decreases by {drop:.3e}")
    err = float(np.max(np.abs(u - reference_u(rows[:, 0], inputs["kappa"])[0])))
    tol = IDE_TOL * max(1.0, (h / 1e-3) ** 1.5)
    _require(err <= tol, f"trajectory: sup |u - ref| = {err:.3e} > {tol:.1e}")
    return err


# drag_forces ------------------------------------------------------------

_FLUID = {"rho": 1000.0, "mu": 0.1, "radius": 1e-3, "g": 9.8}


def _drag_draw(rng: random.Random) -> dict:
    return {"rho_s": float(f"{rng.uniform(1100.0, 3000.0):.6g}")}


def _drag_argv(inputs: dict, size: dict, out: str) -> list[str]:
    argv = ["drag", "--rho-s", f"{inputs['rho_s']:g}"]
    for key, value in _FLUID.items():
        argv += [f"--{key}", f"{value:g}"]
    return argv + ["--T", repr(size["T"]), "--h", repr(size["h"]), "--out", out]


def _drag_check(inputs: dict, size: dict, out: str) -> float:
    n, h = _steps(size), size["h"]
    rho_s, rho, mu, R, g = (inputs["rho_s"], _FLUID["rho"], _FLUID["mu"],
                            _FLUID["radius"], _FLUID["g"])
    rows = _read_csv(out, ["t", "U", "dU", "F_stokes", "F_added_mass", "F_basset",
                           "F_buoyancy", "residual"])
    t, U, dU, f_st, f_am, _, f_b, resid = rows.T
    _check_grid(t, h, n, "drag")
    volume = 4.0 * math.pi * R**3 / 3.0
    buoy = (rho_s - rho) * volume * g
    _require(bool(np.all(np.abs(f_b - buoy) <= 1e-12 * abs(buoy))), "drag: F_buoyancy column")
    stokes = 6.0 * math.pi * mu * R * U
    added = 0.5 * rho * volume * dU
    _require(bool(np.all(np.abs(f_st - stokes) <= 1e-12 * np.max(np.abs(stokes)))),
             "drag: F_stokes column")
    _require(bool(np.all(np.abs(f_am - added) <= 1e-12 * np.max(np.abs(added)))),
             "drag: F_added_mass column")
    worst_resid = float(np.max(np.abs(resid)))
    _require(worst_resid <= DRAG_RESIDUAL_TOL * abs(buoy),
             f"drag: force-balance residual {worst_resid:.3e} N")
    # Rescaled problem: kappa = 9 rho/(2 rho_s + rho), tau = B t, u = U/U0.
    denom = 2.0 * rho_s + rho
    kappa = 9.0 * rho / denom
    B = 9.0 * mu / (R**2 * denom)
    U0 = 2.0 * (rho_s - rho) * g * R**2 / (9.0 * mu)
    err = float(np.max(np.abs(U / U0 - reference_u(t * B, kappa)[0])))
    tol = IDE_TOL * max(1.0, (h * B / 1e-3) ** 1.5)
    _require(err <= tol, f"drag: sup |U/U0 - ref| = {err:.3e} > {tol:.1e}")
    return err


# verify_suite -----------------------------------------------------------

def _verify_argv(inputs: dict, size: dict, out: str) -> list[str]:
    argv = ["verify", "--out", out]
    if size:
        argv += ["--h", repr(size["h"]), "--points", str(int(size["points"]))]
    return argv


def _verify_check(inputs: dict, size: dict, out: str) -> float:
    with open(out) as fh:
        payload = json.load(fh)
    _require(payload.get("schema") == 1, "verify: schema")
    _require(payload.get("passed") is True, "verify: passed is not true")
    reports = payload["reports"]
    _require(len(reports) > 0 and all(r["passed"] for r in reports), "verify: failing report")
    return max(r["worst_violation"] / r["tolerance"] for r in reports if r["tolerance"] > 0)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="closed_form_sweep",
            why="closed-form sweep over a damped and an unstable kappa: special and analytic "
                "do the work, per-point Faddeeva calls in all three regions, ide unused",
            sizes={"full": {"T": 100.0, "h": 0.005}, "tiny": {"T": 1.0, "h": 0.05}},
            draw=_sweep_draw, argv=_sweep_argv, check=_sweep_check, out_is_dir=True,
        ),
        Workload(
            name="ide_trajectory",
            why="IDE trajectory of 30001 steps: the O(n^2) causal history sum in solve_ide "
                "dominates and special is never called",
            sizes={"full": {"T": 30.0, "h": 1e-3}, "tiny": {"T": 0.5, "h": 1e-3}},
            draw=_ide_draw, argv=_ide_argv, check=_ide_check,
        ),
        Workload(
            name="drag_forces",
            why="drag table of 5001 rows: the Abel history is read back per row through "
                "basset_integral, the solve is small, physical is used only here",
            sizes={"full": {"T": 0.05, "h": 1e-5}, "tiny": {"T": 0.001, "h": 1e-5}},
            draw=_drag_draw, argv=_drag_argv, check=_drag_check,
        ),
        Workload(
            name="verify_suite",
            why="default verification suite: the only workload where analysis checks and the "
                "ode RK4 loop do real work, mixing all layers",
            sizes={"full": {}, "tiny": {"h": 0.01, "points": 20}},
            draw=lambda rng: {}, argv=_verify_argv, check=_verify_check,
        ),
    )
}
