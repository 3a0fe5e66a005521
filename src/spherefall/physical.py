"""Dimensional drag model, force balance, and the bridge to the rescaled problem.

SI units throughout.  A sphere of radius R and density rho_s falls
through an unbounded Newtonian fluid (density rho, viscosity mu) at
zero Reynolds number.  The drag on the sphere splits into the steady
Stokes term, the added-mass term, and the Basset history integral; the
balance against buoyancy reduces to the memory equation solved by
:mod:`spherefall.ide` once velocities are scaled by the Stokes terminal
velocity U0 and times by the viscous time 1/B.  This module is the only
owner of the force formulas: :func:`drag_forces` evaluates the whole
balance along a trajectory, and ``_drag_table`` the CLI's whole drag
table: both grids, the solve, the SI mapping, the balance, its 1e-9
|F_buoyancy| closure check and the column names.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import ide, ode
from .analytic import _check_kappa
from .trajectory import Trajectory, _step_count

__all__ = [
    "PhysicalParams",
    "DimensionlessGroup",
    "nondimensionalize",
    "DragForces",
    "drag_forces",
    "dimensional_trajectory",
]


@dataclass(frozen=True)
class PhysicalParams:
    """Sphere/fluid description: densities (kg/m^3), viscosity (Pa s), radius (m), gravity (m/s^2)."""

    rho_s: float
    rho: float
    mu: float
    R: float
    g: float

    def __post_init__(self) -> None:
        for name, value in vars(self).items():
            if not math.isfinite(value):
                raise ValueError(f"PhysicalParams: {name} must be finite, got {value}")
        if not (self.rho > 0.0 and self.mu > 0.0 and self.R > 0.0 and self.g > 0.0):
            raise ValueError("PhysicalParams: rho, mu, R, g must all be > 0")
        if not self.rho_s >= 0.0:
            raise ValueError("PhysicalParams: rho_s must be >= 0")

    @property
    def nu(self) -> float:
        """Kinematic viscosity mu/rho (m^2/s)."""
        return self.mu / self.rho

    @property
    def volume(self) -> float:
        """Sphere volume 4 pi R^3 / 3 (m^3)."""
        return _normal("the volume 4 pi R^3 / 3", lambda: 4.0 * math.pi * self.R**3 / 3.0)


def _normal(name: str, formula) -> float:
    """The positive scale formula() if it is a normal double, else a ValueError naming it."""
    try:
        value = formula()
    except (OverflowError, ZeroDivisionError):  # a power of R; a denominator underflowed to 0
        value = math.nan
    if not sys.float_info.min <= value <= sys.float_info.max:
        raise ValueError(f"PhysicalParams: {name} is outside the double range")
    return value


@dataclass(frozen=True)
class DimensionlessGroup:
    """Derived constants tying the laboratory and rescaled descriptions.

    B is the inverse viscous time (1/s), Q the memory coefficient
    (1/sqrt(s)), M the reduced buoyancy (m/s^2), kappa = pi Q^2 / B the
    density-ratio parameter, and U0 = M/B the Stokes terminal velocity.
    """

    B: float
    Q: float
    M: float
    kappa: float
    U0: float

    def __post_init__(self) -> None:
        if not (self.B > 0.0 and self.Q > 0.0):
            raise ValueError("DimensionlessGroup: B and Q must be > 0")
        _check_kappa(self.kappa, "DimensionlessGroup: ")
        if not abs(self.kappa - math.pi * self.Q**2 / self.B) <= 1e-12 * self.kappa:
            raise ValueError("DimensionlessGroup: kappa must equal pi Q^2 / B")
        if not abs(self.U0 - self.M / self.B) <= 1e-12 * max(abs(self.U0), 1e-300):
            raise ValueError("DimensionlessGroup: U0 must equal M / B")


def nondimensionalize(p: PhysicalParams) -> DimensionlessGroup:
    """Constants of the rescaled equation of motion for the given sphere/fluid pair."""
    denom = 2.0 * p.rho_s + p.rho
    B = _normal("B = 9 mu / (R^2 (2 rho_s + rho))", lambda: 9.0 * p.mu / (p.R**2 * denom))
    Q = _normal("Q = 9 rho sqrt(mu / (pi rho)) / (R (2 rho_s + rho))",
                lambda: 9.0 * p.rho / (p.R * denom) * math.sqrt(p.mu / (p.rho * math.pi)))
    p.volume  # the drag table needs it: a volume outside the double range fails before the solve
    M = 2.0 * p.g * (p.rho_s - p.rho) / denom
    # kappa = pi Q^2 / B reduces to the pure density ratio; the reduced
    # form is exact at the rho_s = 0 boundary where kappa = 9.
    kappa = _normal("kappa = 9 rho / (2 rho_s + rho)", lambda: 9.0 * p.rho / denom)
    if M != 0.0:  # the neutrally buoyant sphere has U0 = 0
        _normal("U0 = M / B", lambda: abs(M / B))
    return DimensionlessGroup(B=B, Q=Q, M=M, kappa=kappa, U0=M / B)


class DragForces(NamedTuple):
    """Force columns (N) of the balance at every grid point of a trajectory."""

    stokes: np.ndarray
    added_mass: np.ndarray
    basset: np.ndarray
    buoyancy: np.ndarray
    residual: np.ndarray


# The drag table's columns: t, U and U' in SI units, then DragForces' columns in order.
_TABLE_COLUMNS = ("t", "U", "dU", "F_stokes", "F_added_mass", "F_basset", "F_buoyancy",
                  "residual")


def drag_forces(p: PhysicalParams, traj: Trajectory) -> DragForces:
    """The force balance on a sphere along a laboratory-unit trajectory (from rest).

    F_stokes = 6 pi mu R U, F_added_mass = (1/2) rho V U',
    F_basset = 6 pi rho R^2 sqrt(nu/pi) * integral_0^t U'(s)/sqrt(t-s) ds,
    F_buoyancy = (rho_s - rho) V g, and the residual
    rho_s V U' + (F_stokes + F_added_mass + F_basset) - F_buoyancy of
    Newton's law, which a solve of the memory equation closes to
    rounding.  The history integral is read back at every grid point at
    once by :func:`spherefall.ide.abel_history`; the grid must be
    uniform.
    """
    U, dU = traj.values, traj.derivatives
    history = ide.abel_history(dU, traj.step())
    stokes = 6.0 * math.pi * p.mu * p.R * U
    added_mass = 0.5 * p.rho * p.volume * dU
    basset = 6.0 * math.pi * p.rho * p.R**2 * math.sqrt(p.nu / math.pi) * history
    buoyancy = (p.rho_s - p.rho) * p.volume * p.g
    residual = p.rho_s * p.volume * dU + (stokes + added_mass + basset) - buoyancy
    return DragForces(stokes, added_mass, basset, np.full(len(traj), buoyancy), residual)


def dimensional_trajectory(g: DimensionlessGroup, traj: Trajectory) -> Trajectory:
    """Map a rescaled trajectory (tau, u, u') to laboratory units (t, U, U').

    t = tau / B, U = u * U0, U' = u' * U0 * B, and the meta's step h and
    horizon T in seconds too.  Rejected for the neutrally buoyant sphere
    (U0 = 0), whose rescaling is undefined.
    """
    if g.U0 == 0.0:
        raise ValueError("dimensional_trajectory: U0 = 0 (neutrally buoyant sphere)")
    meta = dict(traj.meta, units="SI", B=g.B, U0=g.U0)
    meta.update({key: meta[key] / g.B for key in ("h", "T") if key in meta})
    return Trajectory(
        times=traj.times / g.B,
        values=traj.values * g.U0,
        derivatives=traj.derivatives * (g.U0 * g.B),
        meta=meta,
    )


def _drag_table(p: PhysicalParams, eps: float, h: float,
                T: float) -> tuple[Trajectory, dict[str, np.ndarray]]:
    """The drag table of p released with U(0) = eps U0, on the grid of step h to T seconds.

    Returns the solve, in viscous times, for the caller's monotone check, and the
    columns by name.  A bad grid is a ValueError; a force balance that does not
    close to 1e-9 |F_buoyancy| an ArithmeticError.
    """
    group = nondimensionalize(p)
    # h and T arrive in seconds, and a bad grid is named as typed; the solver works in
    # viscous-time units, where h B can underflow and T B overflow.
    _step_count(h, T)
    h_B, T_B = h * group.B, T * group.B
    try:
        _step_count(h_B, T_B)
    except ValueError as exc:
        raise ValueError(f"drag: h={h} s and T={T} s, times B={group.B:.6g} per "
                         f"second, make no grid in viscous times ({exc})") from None
    traj = ode.sphere_trajectory("ide", group.kappa, eps, h_B, T_B)
    dim = dimensional_trajectory(group, traj)
    with np.errstate(over="ignore", invalid="ignore"):  # a force past the double range fails below
        forces = drag_forces(p, dim)
    worst, bound = np.max(np.abs(forces.residual)), 1e-9 * abs(forces.buoyancy[0])
    if not worst <= bound:  # the balance of a solve closes to rounding; a NaN fails too
        raise ArithmeticError(f"drag: max|residual| = {worst:.3g} N > 1e-9 |F_buoyancy| = "
                              f"{bound:.3g} N at the step h B = {traj.meta['h']:.3g} viscous times")
    columns = [dim.times, dim.values, dim.derivatives, *forces]
    return traj, dict(zip(_TABLE_COLUMNS, columns))
