"""Tests for the product-integration solver of the memory equation."""

import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from direct_oracle import abel_history_direct, solve_ide_direct
from mp_oracle import abel_cell_mp
from spherefall import analytic
from spherefall.ide import _abel_kernel, _causal_product, _reciprocal, abel_history, solve_ide
from spherefall.trajectory import Trajectory, uniform_grid

# Grid lengths at and next to powers of two, where the last Newton pass of
# the reciprocal is full or partial, plus ones that are not powers of two
# and span several doublings.
_EDGE_STEPS = [1, 2, 3, 4, 5, 63, 64, 65, 337, 1024, 1025, 2049, 3001]
_steps = st.one_of(st.sampled_from(_EDGE_STEPS), st.integers(min_value=1, max_value=512))
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


def test_uniform_grid_rounds_the_horizon_to_whole_steps():
    assert np.array_equal(uniform_grid(0.5, 2.0), [0.0, 0.5, 1.0, 1.5, 2.0])
    assert len(uniform_grid(0.1, 1.04)) == 11  # round(10.4) = 10 steps
    assert len(uniform_grid(0.1, 1.06)) == 12  # round(10.6) = 11 steps
    assert len(uniform_grid(0.1, 0.1)) == 2
    with pytest.raises(ValueError, match="h must be > 0"):
        uniform_grid(0.0, 1.0)
    with pytest.raises(ValueError, match="at least one step"):
        uniform_grid(0.1, -1.0)
    # In the last pair h and T are finite but T/h is not: no finite number of steps.
    for h, T in ((0.1, math.inf), (0.1, math.nan), (math.nan, 1.0), (math.inf, 1.0),
                 (1e-300, 1e300)):
        with pytest.raises(ValueError, match="finite"):
            uniform_grid(h, T)


# ----------------------------------------------------------------------
# Abel quadrature weights, applied through the history read-back
# ----------------------------------------------------------------------

# Every lag to 100, then about 60 more spread geometrically up to 1e5.
_KERNEL_LAGS = sorted(set(range(101)) | set(np.geomspace(100, 1e5, 60).astype(int)))


@pytest.mark.parametrize("h", [1e-5, 1e-3, 0.05, 10.0])
def test_kernel_coefficients_hold_a_few_ulps_at_every_lag(h):
    # a[m] = far weight of cell m + near weight of cell m + 1, first[m] = far weight of
    # cell m.  A difference of square roots would lose about log10(m) digits here.
    n = _KERNEL_LAGS[-1]
    a, first = _abel_kernel(n, h)
    for m in _KERNEL_LAGS:
        far = abel_cell_mp(m, h)[0] if m else 0
        exact = far + abel_cell_mp(m + 1, h)[1]
        assert abs(a[m] - exact) <= 2e-15 * exact, (m, a[m], exact)
        assert abs(first[m] - far) <= 2e-15 * far, (m, first[m], far)


def test_weights_constant_integrand_single_cell():
    hist = abel_history(np.ones(2), 0.25)
    assert abs(hist[1] - 2.0 * math.sqrt(0.25)) < 1e-15


@given(st.integers(min_value=1, max_value=300), st.floats(min_value=1e-6, max_value=10.0))
@settings(max_examples=60, deadline=None)
def test_weights_exact_for_constants(n, h):
    # integral of 1/sqrt(t_k - s) over [0, t_k] is 2 sqrt(t_k), at every k.
    hist = abel_history(np.ones(n + 1), h)
    exact = 2.0 * np.sqrt(np.arange(n + 1) * h)
    assert np.all(np.abs(hist - exact) <= 1e-12 * exact)


def test_weights_exact_for_linear_integrand():
    n, h = 57, 0.01
    f = np.arange(n + 1) * h
    exact = (4.0 / 3.0) * f**1.5
    assert np.all(np.abs(abel_history(f, h) - exact) <= 1e-13 * exact)


def test_weights_second_order_for_quadratic():
    # f = s^2: halving h cuts the error by ~4.
    def err(h):
        n = int(round(1.0 / h))
        s = np.arange(n + 1) * h
        exact = (16.0 / 15.0)  # integral_0^1 s^2/sqrt(1-s) ds
        return abs(abel_history(s**2, h)[n] - exact)

    e1, e2 = err(1e-2), err(5e-3)
    assert 3.0 <= e1 / e2 <= 5.0


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
    history = abel_history(traj.derivatives, h)
    resid = traj.derivatives + traj.values + c * history - 1.0
    assert np.max(np.abs(resid[1:])) <= 10.0 * h


@given(_kappas, st.floats(min_value=0.0, max_value=1.0), _hs, _steps)
@example(kappa=9.0, u0=0.0, h=1e-3, n=3001)  # the massless sphere, the edge of the domain
@settings(max_examples=40, deadline=None)
def test_solver_matches_direct_step_loop(kappa, u0, h, n):
    traj = solve_ide(kappa, u0, h, n * h)
    u, d = solve_ide_direct(kappa, u0, h, n * h)
    assert len(traj) == n + 1
    assert np.max(np.abs(traj.values - u)) <= 1e-12
    assert np.max(np.abs(traj.derivatives - d)) <= 1e-12


@pytest.mark.parametrize("kappa", [0.5, 2.9, 9.0])
@pytest.mark.parametrize("n", [1, 1024, 1025])
def test_reciprocal_inverts_the_solver_column(kappa, n):
    # The Toeplitz column t of solve_ide; t * (1/t) must be e_0.
    h = 1e-3
    a, _ = _abel_kernel(n, h)
    c = math.sqrt(kappa / math.pi)
    t = c * a + h
    t[0] = 1.0 + 0.5 * h + c * a[0]
    e0 = np.zeros(n)
    e0[0] = 1.0
    assert np.max(np.abs(_causal_product(t[:n], _reciprocal(t, n), n) - e0)) <= 1e-14


def test_solver_argument_validation():
    with pytest.raises(ValueError):
        solve_ide(0.0, 0.0, 1e-2, 1.0)
    with pytest.raises(ValueError):
        solve_ide(math.nextafter(9.0, 10.0), 0.0, 1e-2, 1.0)
    with pytest.raises(ValueError):
        solve_ide(2.0, 0.0, -1e-2, 1.0)
    with pytest.raises(ValueError):
        solve_ide(2.0, 0.0, 1e-2, 1e-3)
    # u0 is the sphere's eps: a non-finite one, or an amplitude (1 - u0) sqrt(kappa)
    # past the largest double, fails as it does for the other sphere solvers.
    for u0, kappa in ((math.nan, 2.0), (math.inf, 2.0), (-math.inf, 2.0), (-1.7e308, 3.9),
                      (-1e308, 9.0)):
        message = rf"^eps={re.escape(str(u0))} puts the amplitude .* at kappa={kappa}$"
        with pytest.raises(ValueError, match=message):
            solve_ide(kappa, u0, 1e-2, 0.1)


def test_solve_ide_raises_where_the_solution_overflows():
    # u0 = 1e308 is finite, but the history sum of u' = 1 - u0 overflows at
    # the first step.  That is an ArithmeticError, not NaN cells and warnings.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ArithmeticError, match=r"^solve_ide: .* not finite at kappa=2$"):
            solve_ide(2.0, 1e308, 1e-2, 1.0)
    assert np.isfinite(solve_ide(2.0, 1e300, 1e-2, 1.0).values).all()


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
    for h in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="h must be finite"):
            abel_history(np.ones(5), h)


def test_abel_history_raises_where_the_history_is_not_finite():
    # The weights overflow at h = 1e300 and the products at samples of 1e308: an
    # ArithmeticError naming h, as an overflowing solve raises, and no numpy warning.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for samples, h in ((np.ones(5), 1e300), (np.full(5, 1e308), 1.0)):
            with pytest.raises(ArithmeticError,
                               match=re.escape(f"abel_history: the history is not finite at h={h:g}")):
                abel_history(samples, h)
        # A step whose history stays finite reads back as before, bit for bit.
        assert abel_history(np.ones(5), 1e200).tolist() == [
            0.0, 2.0000000000000004e+100, 2.82842712474619e+100, 3.4641016151377543e+100,
            3.999999999999999e+100]


# ----------------------------------------------------------------------
# Basset history integral of a velocity record
# ----------------------------------------------------------------------

def test_basset_zero_history():
    assert np.array_equal(abel_history(np.zeros(51), 0.1), np.zeros(51))


def test_basset_constant_derivative():
    n, h = 64, 0.05
    hist = abel_history(np.ones(n + 1), h)
    for i in (1, 13, n):
        exact = 2.0 * math.sqrt(i * h)
        assert abs(hist[i] - exact) <= 1e-13 * exact


def test_basset_matches_closed_form_identity():
    # integral_0^t u'/sqrt(t-s) ds = sqrt(pi/kappa) (1 - u - u') for the
    # rest-start solution.
    kappa, h = 2.0, 1e-3
    n = 1000
    times = np.arange(n + 1) * h
    derivatives = np.array([analytic.u_rest_derivative(t, kappa) for t in times])
    t = 1.0
    expected = math.sqrt(math.pi / kappa) * (
        1.0 - analytic.u_rest(t, kappa) - analytic.u_rest_derivative(t, kappa)
    )
    assert abs(abel_history(derivatives, h)[n] - expected) <= 1e-3
