"""Tests for the product-integration solver of the memory equation."""

import math
import re
import tracemalloc
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from direct_oracle import abel_history_direct, solve_ide_direct
from mp_oracle import abel_cell_mp, sqrt_errors_mp, u_laplace_mp
from spherefall import analytic, ide
from spherefall.ide import _abel_kernel, _fft_size, _quotient, _sqrt_errors, abel_history, solve_ide
from spherefall.trajectory import Trajectory, uniform_grid

# Grid lengths at and next to powers of two, where the last Newton pass of
# the half-length reciprocal is full or partial, plus ones that are not
# powers of two and span several doublings.
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


@pytest.mark.parametrize("times", [[], [[0.0, 1.0]]], ids=["empty", "2-d"])
def test_trajectory_needs_a_nonempty_1d_grid(times):
    with pytest.raises(ValueError, match="^Trajectory: times must be a nonempty 1-d grid$"):
        Trajectory(times=times, values=[], derivatives=[])


def test_trajectory_step_detects_nonuniform_grid():
    tr = Trajectory(times=[0.0, 1.0, 3.0], values=[0.0] * 3, derivatives=[0.0] * 3)
    with pytest.raises(ValueError):
        tr.step()


def test_trajectory_step_takes_the_rounding_of_a_long_grid():
    # t_k = k h rounds node by node: these grids read max|dt - h| = 1.1e-9 h and 1.6e-9 h,
    # within one spacing of the last time.  A node moved by 1e-7 h still fails.
    for h, T in ((1.25e-6, 10.0), (1e-3, 1e4)):
        times = uniform_grid(h, T)
        still = np.broadcast_to(0.0, times.shape)
        assert Trajectory(times=times, values=still, derivatives=still).step() == h
    times[5000] += 1e-7 * h
    with pytest.raises(ValueError, match="^Trajectory: grid is not uniform$"):
        Trajectory(times=times, values=still, derivatives=still).step()


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
# The sqrt(t) starting correction
# ----------------------------------------------------------------------

_SQRT_ERROR_KS = list(range(200)) + [255, 1000, 3001]


def test_sqrt_errors_match_40_digit_sums():
    # Below k = 128 they are summed, and round with the sums they are differences
    # of, which grow like k and k^(3/2); from there on the expansions hold 3e-17.
    eps, tau = _sqrt_errors(3001)
    ref_eps, ref_tau = sqrt_errors_mp(_SQRT_ERROR_KS, 3001)
    for k, e, t in zip(_SQRT_ERROR_KS, ref_eps, ref_tau):
        summed = k < ide._TAIL_FROM
        assert abs(eps[k] - e) <= (1e-15 * k if summed else 5e-17), (k, eps[k], e)
        assert abs(tau[k] - t) <= (1e-15 * k**1.5 if summed else 5e-17), (k, tau[k], t)


def test_sqrt_error_expansions_are_their_zeta_values():
    # Abel: K_i M_i + f_{i+1} N_{i+1} (see ide._ABEL_TAIL); trapezoid: the Euler-Maclaurin
    # terms f_p (-zeta(-p)) of the sum of sqrt(j), and the limit -zeta(-1/2).
    half = mpmath.mpf(1) / 2
    binom = mpmath.binomial

    def M(i):
        return -mpmath.fsum(2 * binom(i + 2, 2 * r + 2) / ((i + 1) * (i + 2))
                            * mpmath.zeta(2 * r - i - half) for r in range(i // 2 + 1))

    def N(p):
        return -mpmath.mpf(4) / 3 * mpmath.fsum(2 * binom(p, r) * mpmath.zeta(r - p - 3 * half)
                                                for r in range(2, p + 1, 2))

    def f(p):  # the Taylor coefficient of sqrt(k - y) at y = 0, over k^(1/2 - p)
        return (-1) ** p * binom(half, p)

    abel = [(-1) ** i * binom(-half, i) * M(i) + (f(i + 1) * N(i + 1) if i else 0)
            for i in range(len(ide._ABEL_TAIL))]
    trap = [-f(2 * i + 1) * mpmath.zeta(-(2 * i + 1)) for i in range(len(ide._TRAP_TAIL))]
    assert np.allclose(ide._ABEL_TAIL, [float(x) for x in abel], rtol=1e-15, atol=0.0)
    assert np.allclose(ide._TRAP_TAIL, [float(x) for x in trap], rtol=1e-15, atol=0.0)
    assert ide._TRAP_LIMIT == float(-mpmath.zeta(-half))


@given(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0), st.floats(-1.0, 1.0), _hs,
       _steps.filter(lambda n: n >= 2))
@settings(max_examples=40, deadline=None)
def test_abel_history_is_exact_on_a_line_plus_a_square_root(a, b, c, h, n):
    # The plain rule is off by 2.4e-4 on sqrt(t) at h = 1e-3.  An FFT product rounds
    # relative to its largest entry, so the bound is too.  Below the normal floats an
    # operation rounds to the absolute spacing 2**-1074 instead, and the error grows
    # with the steps (0.7 spacings a step at most over 6000 tiny draws): four a step.
    t = np.arange(n + 1) * h
    root = np.sqrt(t)
    parts = np.array([2.0 * a * root, (4.0 / 3.0) * b * t * root, c * (math.pi / 2.0) * t])
    hist = abel_history(a + b * t + c * root, h)
    bound = 1e-13 * np.abs(parts).sum(axis=0).max() + 4 * n * 2.0**-1074
    assert np.max(np.abs(hist - parts.sum(axis=0))) <= bound


def test_laplace_oracle_matches_the_closed_form_below_kappa_4():
    for t in (0.02, 0.4, 5.0):
        assert abs(u_laplace_mp(t, 2.5) - analytic.u_rest(t, 2.5)) <= 1e-15


@pytest.mark.parametrize("kappa", [0.5, 2.5, 6.0, 9.0])
def test_the_solver_converges_at_order_1_7_or_more(kappa):
    # The error peaks near t = 0.1-0.5, and the 40 nodes t = 0.02 j common to both
    # grids span it.  The reference is the closed form below kappa = 4 and the Laplace
    # integral above it.  Measured orders: 1.90, 1.94, 1.82 and 1.77.
    times = 0.02 * np.arange(1, 41)
    if kappa < 4.0:
        ref = np.array([analytic.u_rest(t, kappa) for t in times])
    else:
        ref = np.array([u_laplace_mp(t, kappa) for t in times])
    sups = [np.max(np.abs(solve_ide(kappa, 0.0, h, 0.8).values[np.rint(times / h).astype(int)]
                          - ref)) for h in (2e-3, 1e-3)]
    assert sups[1] <= 1.2e-7
    assert math.log2(sups[0] / sups[1]) >= 1.7, sups


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


def test_discrete_solution_monotone_at_unstable_kappa():
    traj = solve_ide(2.9, 0.0, 1e-3, 10.0)
    assert np.max(traj.values[:-1] - traj.values[1:]) <= 1e-12


@pytest.mark.parametrize("kappa", [0.5, 1.0, 2.0, 2.5, 2.9, 3.5])
def test_discrete_monotonicity_preserved_at_coarse_step(kappa):
    traj = solve_ide(kappa, 0.0, 1e-2, 20.0)
    assert np.max(traj.values[:-1] - traj.values[1:]) <= 1e-12


@pytest.mark.parametrize("kappa", [0.01, 1.5, 3.9, 9.0])
def test_discrete_residual_closes_at_every_grid_point(kappa):
    # The solve and the read-back share one quadrature, so the discrete
    # equation closes to rounding: about 1e-15 here, about 1e-14 at n = 30000.
    h = 1e-2
    traj = solve_ide(kappa, 0.0, h, 5.0)
    c = math.sqrt(kappa / math.pi)
    history = abel_history(traj.derivatives, h)
    resid = traj.derivatives + traj.values + c * history - 1.0
    assert np.max(np.abs(resid[1:])) <= 1e-13


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
@pytest.mark.parametrize("n", [1, 2, 3, 1024, 1025, 10001])
def test_quotient_solves_the_solver_system(kappa, n):
    # The Toeplitz column t and right-hand side of solve_ide: the product
    # t * d, summed directly, gives rhs back to rounding.
    h = 1e-3
    a, first = _abel_kernel(n, h)
    c = math.sqrt(kappa / math.pi)
    t = c * a + h
    t[0] = 1.0 + 0.5 * h + c * a[0]
    rhs = 1.0 - 0.5 * h - c * first[1:]
    d = _quotient(t, rhs)
    assert len(d) == n
    assert np.max(np.abs(np.convolve(t[:n], d)[:n] - rhs)) <= 1e-14 * np.max(np.abs(rhs))


def test_the_solve_builds_its_system_in_place():
    # _sqrt_errors and _system scale and combine their n-long arrays in place: at n = 2e5
    # the system's traced peak is 2.67 times the three arrays it returns (t, rhs and u's
    # correction), and with the trajectory's grid it sets solve_ide's peak, 3.00 times
    # the trajectory's arrays.  Either function written out of place peaks at 3.0 times
    # (3.33 for the solve), with the same bits.  The division's FFT buffers, which differ
    # between numpy versions, come after the system and are not traced here.
    c = math.sqrt(2.5 / math.pi)
    ide._system(c, 1.0, 5e-3, 2000)
    tracemalloc.start()
    try:
        arrays = ide._system(c, 1.0, 5e-5, 200000)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert [len(a) for a in arrays] == [200001, 200000, 200001]
    assert peak <= 2.8 * sum(a.nbytes for a in arrays)


def test_fft_size_is_the_smallest_5_smooth_length():
    def smooth(m):
        for p in (2, 3, 5):
            while m % p == 0:
                m //= p
        return m == 1

    for m in range(1, 5001):
        size = m
        while not smooth(size):
            size += 1
        assert _fft_size(m) == size


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
# Abel history of a velocity record
# ----------------------------------------------------------------------

def test_abel_history_of_zero_is_zero():
    assert np.array_equal(abel_history(np.zeros(51), 0.1), np.zeros(51))


def test_abel_history_of_a_constant_at_three_rows():
    n, h = 64, 0.05
    hist = abel_history(np.ones(n + 1), h)
    for i in (1, 13, n):
        exact = 2.0 * math.sqrt(i * h)
        assert abs(hist[i] - exact) <= 1e-13 * exact


def test_abel_history_of_the_rest_start_matches_its_closed_form():
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
