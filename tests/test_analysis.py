"""Tests for the verification engine."""

import math

import numpy as np
import pytest

from spherefall import analytic, ide
from spherefall.analysis import (
    VerificationReport,
    _reduce,
    abel_identity_residual,
    check_monotone,
    imag_sqrt_alpha_villat,
    ode_residual,
    proof_integral,
    proof_integrand_F,
    run_default_suite,
)
from spherefall.special import _window_quadrature
from spherefall.trajectory import Trajectory

# 50-digit oracle value (mp_oracle.py / mpmath.quad)
PROOF_INTEGRAL_1_HALFPI = -0.58203755646459861509


def _uniform_traj(values, h=1e-2, derivatives=None):
    values = np.asarray(values, dtype=float)
    n = len(values) - 1
    times = np.arange(n + 1) * h
    if derivatives is None:
        derivatives = np.gradient(values, h)
    return Trajectory(times=times, values=values, derivatives=derivatives)


# ----------------------------------------------------------------------
# Monotonicity check
# ----------------------------------------------------------------------

def test_check_monotone_constant_passes():
    rep = check_monotone(_uniform_traj(np.ones(20)))
    assert rep.passed and rep.worst_violation == 0.0


def test_check_monotone_closed_form_at_high_kappa():
    taus = np.concatenate(([0.0], np.logspace(-3, 3, 500)))
    vals = [analytic.u_rest(t, 2.9) for t in taus]
    traj = Trajectory(
        times=np.arange(len(taus)),  # index grid; only ordering matters here
        values=vals,
        derivatives=np.zeros(len(taus)),
    )
    rep = check_monotone(traj, tol=1e-12)
    assert rep.passed


def test_check_monotone_flags_decreasing_step():
    vals = np.sin(np.linspace(0.0, 3.0 * math.pi, 100))
    rep = check_monotone(_uniform_traj(vals), tol=1e-12)
    assert not rep.passed
    assert rep.worst_violation > 0.01


def test_check_monotone_reports_the_first_largest_drop():
    rep = check_monotone(_uniform_traj([0.0, 1.0, 0.5, 1.0, 0.5]), tol=0.1)
    assert (rep.worst_violation, rep.location) == (0.5, "t=0.02")
    rep = check_monotone(_uniform_traj([1.0], derivatives=[0.0]))
    assert (rep.passed, rep.worst_violation, rep.location) == (True, 0.0, "t=--")


def test_suite_reducer_rules():
    # The first strict maximum wins, and its location comes with it.
    rep = _reduce("c", 1.0, [(0.5, "a"), (2.0, "b"), (2.0, "c"), (1.0, "d")])
    assert (rep.worst_violation, rep.location, rep.passed) == (2.0, "b", False)
    # Nothing above the floor of 0: the floor itself, at no location.
    rep = _reduce("c", 0.0, [(0.0, "a"), (-1.0, "b"), (math.nan, "c")])
    assert (rep.worst_violation, rep.location, rep.passed) == (0.0, "--", True)
    assert _reduce("c", 0.0, []).location == "--"
    # A floor of -inf keeps the largest value even when every value is negative.
    rep = _reduce("c", 0.0, [(-3.0, "a"), (-1.0, "b"), (-2.0, "c")], floor=-math.inf)
    assert (rep.worst_violation, rep.location, rep.passed) == (-1.0, "b", True)


def test_report_invariant_passed_iff_within_tolerance():
    rep = VerificationReport.from_violation("x", 2.0, 1.0, "--")
    assert not rep.passed
    rep2 = VerificationReport.from_violation("x", 0.5, 1.0, "--")
    assert rep2.passed


# ----------------------------------------------------------------------
# Proof integrand and integral
# ----------------------------------------------------------------------

def test_integrand_zero_at_origin():
    assert proof_integrand_F(0.0, 1.0, math.pi / 2.0) == 0.0


@pytest.mark.parametrize("s", [0.5, 1.0, 2.0])
def test_integrand_negative_side_dominates(s):
    t, theta = 1.0, math.pi / 2.0
    assert abs(proof_integrand_F(-s, t, theta)) > proof_integrand_F(s, t, theta)


def test_integrand_near_theta_pi_is_finite():
    val = proof_integrand_F(1.0, 1.0, 0.999 * math.pi)
    assert math.isfinite(val)


def test_integrand_domain_errors():
    with pytest.raises(ValueError):
        proof_integrand_F(0.0, -1.0, 1.0)
    with pytest.raises(ValueError):
        proof_integrand_F(0.0, 1.0, 3.5)


def test_proof_integral_reference_point():
    val = proof_integral(1.0, math.pi / 2.0)
    assert val < 0.0
    assert abs(val - PROOF_INTEGRAL_1_HALFPI) <= 1e-9


def test_proof_integral_odd_integrand_vanishes():
    # with the denominator replaced by an even function the integrand is
    # odd and the integral is zero; sanity check of the quadrature setup
    val, _ = _window_quadrature(lambda s: s * np.exp(-s * s) / (s * s + 1.0), 0.0, 1.0)
    assert abs(val) <= 1e-15


@pytest.mark.parametrize("t", [0.1, 1.0, 10.0, 100.0])
@pytest.mark.parametrize("theta", [math.pi / 6.0, math.pi / 2.0, 5.0 * math.pi / 6.0])
def test_proof_integral_negative_on_grid(t, theta):
    assert proof_integral(t, theta) < 0.0


# ----------------------------------------------------------------------
# Sign of u' through the Villat function
# ----------------------------------------------------------------------

def test_imag_sqrt_alpha_positive_and_consistent_with_derivative():
    for t in np.logspace(-2, 3, 8):
        for kappa in np.linspace(0.3, 3.7, 8):
            val = imag_sqrt_alpha_villat(float(t), float(kappa))
            assert val > 0.0
            roots = analytic.char_roots(float(kappa))
            up = math.sqrt(kappa) * val / roots.alpha.imag
            assert abs(up - analytic.u_rest_derivative(float(t), float(kappa))) <= 1e-12


def test_decomposition_cancellation_identity():
    # x cos(theta/2) + y sin(theta/2) = 0 for the substitution used in the
    # Re/Im split.
    for kappa in (0.5, 2.0, 3.5):
        theta = math.acos((kappa - 2.0) / 2.0)
        for t in (0.1, 1.0, 100.0):
            x = -math.sqrt(t) * math.sin(theta / 2.0)
            y = math.sqrt(t) * math.cos(theta / 2.0)
            assert abs(x * math.cos(theta / 2.0) + y * math.sin(theta / 2.0)) <= 1e-14 * math.sqrt(t)


# ----------------------------------------------------------------------
# Cross-formulation residuals
# ----------------------------------------------------------------------

def test_abel_identity_exact_for_linear_velocity():
    n, h = 2000, 1e-3
    times = np.arange(n + 1) * h
    traj = Trajectory(times=times, values=times.copy(), derivatives=np.ones(n + 1))
    rep = abel_identity_residual(traj)
    assert rep.passed


def test_abel_identity_trivial_for_constant():
    n, h = 500, 1e-3
    times = np.arange(n + 1) * h
    traj = Trajectory(times=times, values=np.ones(n + 1), derivatives=np.zeros(n + 1))
    rep = abel_identity_residual(traj)
    assert rep.passed and rep.worst_violation == 0.0


def test_abel_identity_on_solver_output():
    traj = ide.solve_ide(2.0, 0.0, 1e-3, 5.0)
    assert abel_identity_residual(traj).passed


def test_ode_residual_closed_form():
    h = 1e-3
    times = np.arange(0, 3001) * h
    traj = Trajectory(
        times=times,
        values=np.array([analytic.u_rest(t, 1.0) for t in times]),
        derivatives=np.array([analytic.u_rest_derivative(t, 1.0) for t in times]),
    )
    assert ode_residual(traj, 1.0, 0.0).passed


def test_ode_residual_steady_state_is_zero():
    h = 1e-2
    times = np.arange(0, 301) * h
    traj = Trajectory(times=times, values=np.ones(301), derivatives=np.zeros(301))
    rep = ode_residual(traj, 2.0, 1.0)
    assert rep.passed and rep.worst_violation <= 1e-14


def test_ode_residual_on_solver_output():
    traj = ide.solve_ide(2.5, 0.0, 1e-3, 5.0)
    rep = ode_residual(traj, 2.5, 0.0)
    assert rep.passed


def test_residuals_skip_the_startup_window():
    # A spike inside the startup window is not the solution's fault.
    h = 1e-2
    times = np.arange(0, 101) * h
    spiked = np.zeros(101)
    spiked[3] = 1e3
    traj = Trajectory(times=times, values=np.ones(101), derivatives=spiked)
    rep = ode_residual(traj, 2.0, 1.0)
    assert rep.worst_violation <= 1e-14 and rep.location == "t=0.1"
    traj = Trajectory(times=times, values=times + spiked, derivatives=np.ones(101))
    rep = abel_identity_residual(traj)
    assert rep.passed and rep.location != "t=0.03"


@pytest.mark.parametrize("check, name", [
    (lambda tr: ode_residual(tr, 2.0, 1.0), "ode_residual"),
    (abel_identity_residual, "abel_identity_residual"),
])
def test_residuals_reject_trajectories_inside_the_startup_window(check, name):
    times = np.arange(0, 6) * 1e-2
    traj = Trajectory(times=times, values=np.ones(6), derivatives=np.zeros(6))
    with pytest.raises(ValueError, match=f"^{name}: trajectory shorter than the startup window"):
        check(traj)


# ----------------------------------------------------------------------
# Full suite
# ----------------------------------------------------------------------

def test_default_suite_all_green():
    reports = run_default_suite(h=2e-3, points=150)
    failed = [r for r in reports if not r.passed]
    assert not failed, failed
    ids = {r.check_id for r in reports}
    assert {"closed_form_monotone", "proof_integral_negative", "ide_vs_closed_form",
            "abel_identity", "faddeeva_vs_quadrature"} <= ids
