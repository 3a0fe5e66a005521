"""Tests for the product-integration solver of the memory equation."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from direct_oracle import abel_history_direct, solve_ide_direct
from spherefall import analytic
from spherefall.ide import (
    _LEAF,
    Trajectory,
    abel_history,
    abel_weights,
    basset_integral,
    solve_ide,
)

# Grid lengths around the leaf size of the blocked solve, plus ones that
# are not powers of two and span several FFT levels.
_EDGE_STEPS = [1, _LEAF - 1, _LEAF, _LEAF + 1, 5 * _LEAF + 17, 3001]
_steps = st.one_of(st.sampled_from(_EDGE_STEPS), st.integers(min_value=1, max_value=8 * _LEAF))
_kappas = st.floats(min_value=0.0, max_value=9.0, exclude_min=True, exclude_max=True)
_hs = st.floats(min_value=1e-3, max_value=5e-2)


# ----------------------------------------------------------------------
# Trajectory container
# ----------------------------------------------------------------------

def test_trajectory_validates_grid():
    with pytest.raises(ValueError):
        Trajectory(times=[1.0, 2.0], values=[0.0, 0.0], derivatives=[0.0, 0.0])
    with pytest.raises(ValueError):
        Trajectory(times=[0.0, 2.0, 1.0], values=[0.0] * 3, derivatives=[0.0] * 3)
    with pytest.raises(ValueError):
        Trajectory(times=[0.0, 1.0], values=[0.0], derivatives=[0.0, 0.0])


def test_trajectory_step_detects_nonuniform_grid():
    tr = Trajectory(times=[0.0, 1.0, 3.0], values=[0.0] * 3, derivatives=[0.0] * 3)
    with pytest.raises(ValueError):
        tr.step()


# ----------------------------------------------------------------------
# Abel weights
# ----------------------------------------------------------------------

def test_weights_constant_integrand_single_cell():
    w = abel_weights(1, 0.25)
    assert abs(w.sum() - 2.0 * math.sqrt(0.25)) < 1e-15


@given(st.integers(min_value=1, max_value=300), st.floats(min_value=1e-6, max_value=10.0))
@settings(max_examples=60, deadline=None)
def test_weights_exact_for_constants(n, h):
    # integral of 1/sqrt(t_n - s) over [0, t_n] is 2 sqrt(t_n).
    w = abel_weights(n, h)
    t_n = n * h
    assert abs(w.sum() - 2.0 * math.sqrt(t_n)) <= 1e-12 * 2.0 * math.sqrt(t_n)


def test_weights_exact_for_linear_integrand():
    n, h = 57, 0.01
    w = abel_weights(n, h)
    f = np.arange(n + 1) * h
    exact = (4.0 / 3.0) * (n * h) ** 1.5
    assert abs(w @ f - exact) <= 1e-13 * exact


def test_weights_second_order_for_quadratic():
    # f = s^2: halving h cuts the error by ~4.
    def err(h):
        n = int(round(1.0 / h))
        w = abel_weights(n, h)
        s = np.arange(n + 1) * h
        exact = (16.0 / 15.0)  # integral_0^1 s^2/sqrt(1-s) ds
        return abs(w @ s**2 - exact)

    e1, e2 = err(1e-2), err(5e-3)
    assert 3.0 <= e1 / e2 <= 5.0


def test_weights_argument_validation():
    with pytest.raises(ValueError):
        abel_weights(0, 0.1)
    with pytest.raises(ValueError):
        abel_weights(5, 0.0)


# ----------------------------------------------------------------------
# IDE solver
# ----------------------------------------------------------------------

def test_steady_state_is_exact():
    traj = solve_ide(2.0, 1.0, 1e-2, 5.0)
    assert np.max(np.abs(traj.values - 1.0)) <= 1e-12
    assert np.max(np.abs(traj.derivatives)) <= 1e-12


def test_initial_derivative_prescribed_by_initial_value():
    for u0 in (0.0, 0.25, 1.0):
        traj = solve_ide(1.5, u0, 1e-2, 1.0)
        assert abs(traj.derivatives[0] - (1.0 - u0)) <= 1e-12


def test_converges_to_closed_form_and_improves_with_h():
    traj = solve_ide(2.0, 0.0, 1e-3, 2.0)
    ref = np.array([analytic.u_rest(t, 2.0) for t in traj.times])
    sup1 = np.max(np.abs(traj.values - ref))
    assert sup1 <= 1e-4

    traj2 = solve_ide(2.0, 0.0, 5e-4, 2.0)
    ref2 = np.array([analytic.u_rest(t, 2.0) for t in traj2.times])
    sup2 = np.max(np.abs(traj2.values - ref2))
    assert sup1 / sup2 >= 1.8


def test_discrete_solution_monotone_at_unstable_kappa():
    traj = solve_ide(2.9, 0.0, 1e-3, 10.0)
    assert np.max(traj.values[:-1] - traj.values[1:]) <= 1e-12


@pytest.mark.parametrize("kappa", [0.5, 1.0, 2.0, 2.5, 2.9, 3.5])
def test_discrete_monotonicity_preserved_at_coarse_step(kappa):
    traj = solve_ide(kappa, 0.0, 1e-2, 20.0)
    assert np.max(traj.values[:-1] - traj.values[1:]) <= 1e-12


def test_discrete_residual_closes_at_every_grid_point():
    kappa, h = 1.5, 1e-2
    traj = solve_ide(kappa, 0.0, h, 5.0)
    c = math.sqrt(kappa / math.pi)
    for i in range(1, len(traj)):
        resid = (
            traj.derivatives[i]
            + traj.values[i]
            + c * basset_integral(traj, i)
            - 1.0
        )
        assert abs(resid) <= 10.0 * h


@given(_kappas, st.floats(min_value=0.0, max_value=1.0), _hs, _steps)
@settings(max_examples=40, deadline=None)
def test_solver_matches_direct_step_loop(kappa, u0, h, n):
    traj = solve_ide(kappa, u0, h, n * h)
    u, d = solve_ide_direct(kappa, u0, h, n * h)
    assert len(traj) == n + 1
    assert np.max(np.abs(traj.values - u)) <= 1e-12
    assert np.max(np.abs(traj.derivatives - d)) <= 1e-12


def test_solver_argument_validation():
    with pytest.raises(ValueError):
        solve_ide(0.0, 0.0, 1e-2, 1.0)
    with pytest.raises(ValueError):
        solve_ide(9.0, 0.0, 1e-2, 1.0)
    with pytest.raises(ValueError):
        solve_ide(2.0, 0.0, -1e-2, 1.0)
    with pytest.raises(ValueError):
        solve_ide(2.0, 0.0, 1e-2, 1e-3)


# ----------------------------------------------------------------------
# Abel history at every grid point
# ----------------------------------------------------------------------

@given(_kappas, _hs, _steps)
@settings(max_examples=40, deadline=None)
def test_abel_history_matches_direct_sums(kappa, h, n):
    d = solve_ide(kappa, 0.0, h, n * h).derivatives
    fast = abel_history(d, h)
    ref = abel_history_direct(d, h)
    assert fast[0] == 0.0
    assert np.all(np.abs(fast - ref) <= 1e-12 * np.abs(ref))


def test_abel_history_single_sample_and_validation():
    assert np.array_equal(abel_history(np.array([3.0]), 0.1), [0.0])
    with pytest.raises(ValueError):
        abel_history(np.array([]), 0.1)
    with pytest.raises(ValueError):
        abel_history(np.ones((2, 2)), 0.1)
    with pytest.raises(ValueError):
        abel_history(np.ones(4), 0.0)


# ----------------------------------------------------------------------
# Basset integral
# ----------------------------------------------------------------------

def test_basset_zero_history():
    n = 50
    traj = Trajectory(
        times=np.arange(n + 1) * 0.1,
        values=np.ones(n + 1),
        derivatives=np.zeros(n + 1),
    )
    assert basset_integral(traj, n) == 0.0


def test_basset_constant_derivative():
    n, h = 64, 0.05
    traj = Trajectory(
        times=np.arange(n + 1) * h,
        values=np.arange(n + 1) * h,
        derivatives=np.ones(n + 1),
    )
    for i in (1, 13, n):
        exact = 2.0 * math.sqrt(i * h)
        assert abs(basset_integral(traj, i) - exact) <= 1e-13 * exact


def test_basset_matches_closed_form_identity():
    # integral_0^t u'/sqrt(t-s) ds = sqrt(pi/kappa) (1 - u - u') for the
    # rest-start solution.
    kappa, h = 2.0, 1e-3
    n = 1000
    times = np.arange(n + 1) * h
    traj = Trajectory(
        times=times,
        values=np.array([analytic.u_rest(t, kappa) for t in times]),
        derivatives=np.array([analytic.u_rest_derivative(t, kappa) for t in times]),
    )
    t = 1.0
    expected = math.sqrt(math.pi / kappa) * (
        1.0 - analytic.u_rest(t, kappa) - analytic.u_rest_derivative(t, kappa)
    )
    assert abs(basset_integral(traj, n) - expected) <= 1e-3


def test_basset_index_out_of_range():
    traj = Trajectory(times=[0.0, 0.1], values=[0.0, 0.1], derivatives=[1.0, 1.0])
    with pytest.raises(IndexError):
        basset_integral(traj, 2)
    with pytest.raises(IndexError):
        basset_integral(traj, -1)
