"""Tests for the dimensional drag model and nondimensionalization."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from spherefall import ide
from spherefall.physical import (
    DimensionlessGroup,
    PhysicalParams,
    dimensional_trajectory,
    drag_forces,
    nondimensionalize,
)
from spherefall.trajectory import Trajectory

# Teflon-like sphere in a viscous liquid; hand-evaluated references
# (30-digit arithmetic): U0 = 2*190*9.8*1e-6/0.9.
P_REF = PhysicalParams(rho_s=1190.0, rho=1000.0, mu=0.1, R=0.001, g=9.8)
U0_REF = 4.1377777777777778e-3
F_BUOY_REF = 7.7995273613122600e-6


def stokes_terminal_velocity(p: PhysicalParams) -> float:
    # Oracle: 2 (rho_s - rho) g R^2 / (9 mu), negative for a rising sphere.
    return 2.0 * (p.rho_s - p.rho) * p.g * p.R**2 / (9.0 * p.mu)


def buoyancy_force(p: PhysicalParams) -> float:
    # Oracle: the net driving force (rho_s - rho) V g.
    return (p.rho_s - p.rho) * p.volume * p.g


densities = st.floats(min_value=1.0, max_value=5e4, allow_nan=False)
positives = st.floats(min_value=1e-6, max_value=1e4, allow_nan=False)


def test_params_validation():
    with pytest.raises(ValueError):
        PhysicalParams(rho_s=1.0, rho=0.0, mu=0.1, R=0.01, g=9.8)
    with pytest.raises(ValueError):
        PhysicalParams(rho_s=-1.0, rho=1000.0, mu=0.1, R=0.01, g=9.8)
    with pytest.raises(ValueError):
        PhysicalParams(rho_s=1.0, rho=1000.0, mu=0.1, R=-0.01, g=9.8)


@pytest.mark.parametrize("field", ["rho_s", "rho", "mu", "R", "g"])
def test_params_validation_rejects_nan(field):
    # A NaN used to pass, and nondimensionalize then built an all-NaN group.
    fields = {**dict(rho_s=1190.0, rho=1000.0, mu=0.1, R=0.001, g=9.8), field: math.nan}
    with pytest.raises(ValueError, match="^PhysicalParams: "):
        nondimensionalize(PhysicalParams(**fields))


@pytest.mark.parametrize("field", ["rho_s", "rho", "mu", "R", "g"])
def test_params_validation_rejects_infinity_by_name(field):
    # g = inf used to give an infinite buoyancy and residual; rho_s, rho or R = inf a
    # ZeroDivisionError in nondimensionalize.
    fields = {**dict(rho_s=1190.0, rho=1000.0, mu=0.1, R=0.001, g=9.8), field: math.inf}
    with pytest.raises(ValueError, match=f"^PhysicalParams: {field} must be finite"):
        PhysicalParams(**fields)


def test_stokes_velocity_zero_for_neutral_buoyancy():
    p = PhysicalParams(rho_s=1000.0, rho=1000.0, mu=0.1, R=0.001, g=9.8)
    assert stokes_terminal_velocity(p) == 0.0
    assert nondimensionalize(p).U0 == 0.0


def test_stokes_velocity_hand_value():
    assert abs(stokes_terminal_velocity(P_REF) - U0_REF) <= 1e-15
    # The rescaling's velocity unit U0 = M / B is the Stokes terminal velocity.
    assert abs(nondimensionalize(P_REF).U0 - U0_REF) <= 1e-15


def test_stokes_velocity_quadratic_in_radius():
    p2 = PhysicalParams(rho_s=1190.0, rho=1000.0, mu=0.1, R=0.002, g=9.8)
    assert abs(stokes_terminal_velocity(p2) - 4.0 * stokes_terminal_velocity(P_REF)) <= 1e-15
    assert abs(nondimensionalize(p2).U0 - 4.0 * nondimensionalize(P_REF).U0) <= 1e-15


def test_nondimensionalize_neutral_sphere():
    p = PhysicalParams(rho_s=1000.0, rho=1000.0, mu=0.1, R=0.001, g=9.8)
    group = nondimensionalize(p)
    assert abs(group.kappa - 3.0) <= 1e-14
    assert group.U0 == 0.0


def test_nondimensionalize_density_limits():
    heavy = nondimensionalize(
        PhysicalParams(rho_s=1e12, rho=1000.0, mu=0.1, R=0.001, g=9.8)
    )
    assert heavy.kappa < 1e-5
    massless = nondimensionalize(
        PhysicalParams(rho_s=0.0, rho=1000.0, mu=0.1, R=0.001, g=9.8)
    )
    assert massless.kappa == 9.0


@given(densities, densities, positives, positives)
@settings(max_examples=100, deadline=None)
def test_nondimensional_group_invariants(rho_s, rho, mu, R):
    p = PhysicalParams(rho_s=rho_s, rho=rho, mu=mu, R=R, g=9.81)
    g = nondimensionalize(p)
    assert 0.0 < g.kappa <= 9.0
    assert abs(g.kappa - math.pi * g.Q**2 / g.B) <= 1e-14 * g.kappa
    assert abs(g.U0 - g.M / g.B) <= 1e-12 * max(abs(g.U0), 1e-300)
    # falling spheres are exactly the kappa < 3 range (away from the
    # neutrally buoyant boundary, where rounding can flip the comparison)
    if abs(rho_s - rho) > 1e-9 * rho:
        assert (g.kappa < 3.0) == (rho_s > rho)


def test_group_validation_rejects_inconsistent_fields():
    with pytest.raises(ValueError):
        DimensionlessGroup(B=1.0, Q=1.0, M=1.0, kappa=1.0, U0=1.0)  # kappa != pi Q^2/B


def test_group_refuses_a_self_consistent_kappa_past_the_massless_sphere():
    kappa = math.nextafter(9.0, 10.0)
    with pytest.raises(ValueError, match=r"^DimensionlessGroup: kappa must lie in \(0, 9\], got "):
        DimensionlessGroup(B=1.0, Q=math.sqrt(kappa / math.pi), M=1.0, kappa=kappa, U0=1.0)
    massless = DimensionlessGroup(B=1.0, Q=math.sqrt(9.0 / math.pi), M=1.0, kappa=9.0, U0=1.0)
    assert massless.kappa == 9.0


@pytest.mark.parametrize("field", ["B", "Q", "M", "kappa", "U0"])
def test_group_validation_rejects_nan(field):
    g = nondimensionalize(P_REF)
    fields = {**dict(B=g.B, Q=g.Q, M=g.M, kappa=g.kappa, U0=g.U0), field: math.nan}
    with pytest.raises(ValueError, match="^DimensionlessGroup: "):
        DimensionlessGroup(**fields)


def _constant_history(value: float, n: int = 200, h: float = 1e-3) -> Trajectory:
    times = np.arange(n + 1) * h
    return Trajectory(
        times=times,
        values=np.full(n + 1, value),
        derivatives=np.zeros(n + 1),
    )


def _total_drag(f) -> np.ndarray:
    return f.stokes + f.added_mass + f.basset


def test_unsteady_drag_constant_history_is_stokes_drag():
    traj = _constant_history(U0_REF)
    F = _total_drag(drag_forces(P_REF, traj))[-1]
    stokes = 6.0 * math.pi * P_REF.mu * P_REF.R * U0_REF
    assert abs(F - stokes) <= 1e-14 * stokes
    # ... which balances buoyancy at terminal velocity.
    assert abs(F - buoyancy_force(P_REF)) <= 1e-10 * buoyancy_force(P_REF)
    assert abs(buoyancy_force(P_REF) - F_BUOY_REF) <= 1e-12 * F_BUOY_REF


def test_unsteady_drag_linear_ramp_history():
    n, h = 400, 1e-3
    times = np.arange(n + 1) * h
    traj = Trajectory(times=times, values=times.copy(), derivatives=np.ones(n + 1))
    t = times[-1]
    F = _total_drag(drag_forces(P_REF, traj))[-1]
    stokes = 6.0 * math.pi * P_REF.mu * P_REF.R * t
    added = 0.5 * P_REF.rho * P_REF.volume
    basset = (
        6.0 * math.pi * P_REF.rho * P_REF.R**2 * math.sqrt(P_REF.nu / math.pi)
    ) * 2.0 * math.sqrt(t)
    assert abs(F - (stokes + added + basset)) <= 1e-12 * abs(F)


def test_unsteady_drag_range_errors():
    # The history read-back needs a uniform grid of at least two points.
    with pytest.raises(ValueError):
        drag_forces(P_REF, _constant_history(1.0, n=0))
    times = np.array([0.0, 1e-3, 3e-3])
    traj = Trajectory(times=times, values=np.ones(3), derivatives=np.zeros(3))
    with pytest.raises(ValueError, match="not uniform"):
        drag_forces(P_REF, traj)


def test_force_balance_closes_on_solver_output():
    group = nondimensionalize(P_REF)
    traj = ide.solve_ide(group.kappa, 0.0, 1e-3, 5.0)
    dim = dimensional_trajectory(group, traj)
    f_buoy = buoyancy_force(P_REF)
    inertia = P_REF.rho_s * P_REF.volume
    drag = _total_drag(drag_forces(P_REF, dim))
    for i in (1, 100, 1000, len(dim) - 1):
        resid = inertia * dim.derivatives[i] - (f_buoy - drag[i])
        assert abs(resid) <= 1e-10 * f_buoy


def test_drag_forces_columns_close_the_balance_on_solver_output():
    group = nondimensionalize(P_REF)
    dim = dimensional_trajectory(group, ide.solve_ide(group.kappa, 0.0, 1e-3, 5.0))
    f = drag_forces(P_REF, dim)
    assert all(len(col) == len(dim) for col in f)
    assert f.basset[0] == 0.0
    assert np.all(f.buoyancy == buoyancy_force(P_REF))
    assert np.max(np.abs(f.residual)) <= 1e-10 * buoyancy_force(P_REF)


def test_dimensional_trajectory_identity_group():
    group = DimensionlessGroup(
        B=1.0, Q=math.sqrt(2.0 / math.pi), M=1.0, kappa=2.0, U0=1.0
    )
    traj = ide.solve_ide(2.0, 0.0, 1e-2, 1.0)
    out = dimensional_trajectory(group, traj)
    assert np.array_equal(out.times, traj.times)
    assert np.array_equal(out.values, traj.values)
    assert np.array_equal(out.derivatives, traj.derivatives)


def test_dimensional_trajectory_round_trip():
    group = nondimensionalize(P_REF)
    traj = ide.solve_ide(group.kappa, 0.0, 1e-2, 1.0)
    dim = dimensional_trajectory(group, traj)
    back_times = dim.times * group.B
    back_values = dim.values / group.U0
    back_derivs = dim.derivatives / (group.U0 * group.B)
    assert np.max(np.abs(back_times - traj.times)) <= 1e-12
    assert np.max(np.abs(back_values - traj.values)) <= 1e-12
    assert np.max(np.abs(back_derivs - traj.derivatives)) <= 1e-12


def test_dimensional_trajectory_reports_its_step_and_horizon_in_seconds():
    # Solved with h = 1e-4 s to T = 0.01 s, as drag does: the SI meta must say so,
    # not hold the viscous-time values h B and T B.
    group = nondimensionalize(P_REF)
    dim = dimensional_trajectory(group, ide.solve_ide(group.kappa, 0.0, 1e-4 * group.B,
                                                      0.01 * group.B))
    assert dim.meta["units"] == "SI"
    assert abs(dim.meta["h"] - dim.step()) <= 1e-12 * dim.step()
    assert abs(dim.meta["h"] - 1e-4) <= 1e-12 * 1e-4
    assert abs(dim.meta["T"] - dim.times[-1]) <= 1e-12 * dim.times[-1]
    assert abs(dim.meta["T"] - 0.01) <= 1e-12 * 0.01


def test_dimensional_trajectory_approaches_terminal_velocity():
    group = nondimensionalize(P_REF)
    traj = ide.solve_ide(group.kappa, 0.0, 1e-2, 50.0)
    dim = dimensional_trajectory(group, traj)
    assert abs(dim.values[-1] - group.U0) <= 0.2 * abs(group.U0)


def test_dimensional_trajectory_rejects_neutral_buoyancy():
    p = PhysicalParams(rho_s=1000.0, rho=1000.0, mu=0.1, R=0.001, g=9.8)
    group = nondimensionalize(p)
    traj = ide.solve_ide(3.0, 0.0, 1e-2, 1.0)
    with pytest.raises(ValueError):
        dimensional_trajectory(group, traj)
