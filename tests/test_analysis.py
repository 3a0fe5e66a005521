"""Tests for the verification engine."""

import math
import re
import warnings

import numpy as np
import pytest

from spherefall import analysis, analytic, ide, trajectory
from spherefall.analysis import (
    VerificationReport,
    _proof_peak,
    _reduce,
    abel_identity_residual,
    check_monotone,
    imag_sqrt_alpha_villat,
    ode_residual,
    proof_integral,
    run_default_suite,
)
from spherefall.special import (
    AccuracyError,
    _window_quadrature,
    faddeeva_im_quadrature,
    faddeeva_re_quadrature,
    villat,
)
from spherefall.trajectory import Trajectory

# 50-digit oracle value (mp_oracle.py / mpmath.quad)
PROOF_INTEGRAL_1_HALFPI = -0.58203755646459861509


def _F(s, t, theta):
    # F(s) = s exp(-s^2) / P(s), the proof integrand, with P(s) = (s - peak)^2 + width^2.
    peak, width = _proof_peak(t, theta)
    return s * np.exp(-s * s) / ((s - peak) ** 2 + width * width)


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
    # The rule's one tolerance, owned by the trajectory module and read here too.
    assert analysis.MONOTONE_TOL is trajectory.MONOTONE_TOL == 1e-12


def test_check_monotone_closed_form_at_high_kappa():
    taus = np.concatenate(([0.0], np.logspace(-3, 3, 500)))
    vals = [analytic.u_rest(t, 2.9) for t in taus]
    traj = Trajectory(
        times=np.arange(len(taus)),  # index grid; only ordering matters here
        values=vals,
        derivatives=np.zeros(len(taus)),
    )
    rep = check_monotone(traj)
    assert rep.passed


def test_check_monotone_flags_decreasing_step():
    vals = np.sin(np.linspace(0.0, 3.0 * math.pi, 100))
    rep = check_monotone(_uniform_traj(vals))
    assert not rep.passed
    assert rep.worst_violation > 0.01


def test_check_monotone_reports_the_first_largest_drop():
    rep = check_monotone(_uniform_traj([0.0, 1.0, 0.5, 1.0, 0.5]))
    assert (rep.passed, rep.worst_violation, rep.location) == (False, 0.5, "t=0.02")
    rep = check_monotone(_uniform_traj([1.0], derivatives=[0.0]))
    assert (rep.passed, rep.worst_violation, rep.location) == (True, 0.0, "--")
    # Nothing decreases: the floor of 0 at no location, as in the suite's reducer.
    for values in ([0.0, 1.0, 1.0, 2.0], np.ones(20)):
        rep = check_monotone(_uniform_traj(values))
        assert (rep.passed, rep.worst_violation, rep.location) == (True, 0.0, "--")


@pytest.mark.parametrize("meta, values", [
    ({"A": 1.0}, [0.0, -0.5, -1.0]),  # closed form or RK4, v = A M rises
    ({"A": -1.0}, [0.0, 0.5, 1.0]),  # falls
    ({"u0": 0.5}, [0.5, 0.0, -0.5]),  # the memory equation from below: rises
    ({"u0": 3.0}, [3.0, 3.5, 4.0]),  # from above: falls
    ({}, [1.0, 0.5, 0.0]),  # no problem in meta: rises
], ids=["A>0", "A<0", "u0<1", "u0>1", "no-meta"])
def test_check_monotone_reads_the_direction_from_the_problem_not_the_data(meta, values):
    wrong_way = _uniform_traj(values)
    wrong_way.meta.update(meta)
    rep = check_monotone(wrong_way)
    assert (rep.passed, rep.worst_violation, rep.location) == (False, 0.5, "t=0.01")
    right_way = _uniform_traj(values[::-1])
    right_way.meta.update(meta)
    assert check_monotone(right_way).passed


def test_the_default_suite_solves_the_memory_equation_once(monkeypatch):
    # One solve at kappa = 2.5 feeds ide_vs_closed_form, ide_monotone, ode_residual
    # and abel_identity.
    calls = []
    solve = ide.solve_ide
    monkeypatch.setattr(ide, "solve_ide", lambda *args: calls.append(args) or solve(*args))
    reports = {r.check_id: r for r in run_default_suite(h=0.01, points=20)}
    assert calls == [(2.5, 0.0, 0.01, 10.0)]
    assert reports["ide_vs_closed_form"].location == "kappa=2.5, [0,10]"
    for check_id in ("ide_vs_closed_form", "ide_monotone", "ode_residual", "abel_identity"):
        assert reports[check_id].passed, reports[check_id]
    assert reports["ide_monotone"].tolerance == reports["oscillator_monotone"].tolerance == 1e-12


def test_suite_reducer_rules():
    def where(*index):
        return "abcd"[index[-1]]

    # The first largest entry wins, and its location comes with it.
    rep = _reduce("c", 1.0, np.array([0.5, 2.0, 2.0, 1.0]), where)
    assert (rep.worst_violation, rep.location, rep.passed) == (2.0, "b", False)
    # Row-major order over a 2-d array, and where receives the whole index.
    rep = _reduce("c", 5.0, np.array([[0.0, 3.0], [3.0, 1.0]]), lambda i, j: f"{i},{j}")
    assert (rep.worst_violation, rep.location, rep.passed) == (3.0, "0,1", True)
    # Nothing above the floor of 0: the floor itself, at no location.
    rep = _reduce("c", 0.0, np.array([0.0, -1.0]), where)
    assert (rep.worst_violation, rep.location, rep.passed) == (0.0, "--", True)
    assert _reduce("c", 0.0, np.array([]), where).location == "--"
    # A NaN is never below the floor: it is reported, and fails the check.
    rep = _reduce("c", 0.0, np.array([0.0, -1.0, math.nan]), where)
    assert math.isnan(rep.worst_violation)
    assert (rep.location, rep.passed) == ("c", False)
    # A floor of -inf keeps the largest value even when every value is negative.
    rep = _reduce("c", 0.0, np.array([-3.0, -1.0, -2.0]), where, floor=-math.inf)
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
    assert _F(0.0, 1.0, math.pi / 2.0) == 0.0


@pytest.mark.parametrize("s", [0.5, 1.0, 2.0])
def test_integrand_negative_side_dominates(s):
    t, theta = 1.0, math.pi / 2.0
    assert abs(_F(-s, t, theta)) > _F(s, t, theta)


def test_integrand_near_theta_pi_is_finite():
    val = _F(1.0, 1.0, 0.999 * math.pi)
    assert math.isfinite(val)


def test_integrand_domain_errors():
    for t in (-1.0, 0.0, math.nan):  # a NaN t is no sign question: it fails the domain
        with pytest.raises(ValueError, match="^t must be > 0, got "):
            proof_integral(t, 1.0)
    with pytest.raises(ValueError):
        proof_integral(1.0, 3.5)
    # An array names its first element outside the domain, in row-major order.
    with pytest.raises(ValueError, match=r"^t must be > 0, got -2\.0$"):
        proof_integral(np.array([[1.0, 2.0], [-2.0, -3.0]]), 1.0)
    with pytest.raises(ValueError, match=r"^theta must lie in \(0, pi\), got 3\.5$"):
        proof_integral(np.array([[1.0], [2.0]]), np.array([1.0, 3.5, 0.0]))


def test_proof_integral_reference_point():
    val = proof_integral(1.0, math.pi / 2.0)
    assert val < 0.0
    assert abs(val - PROOF_INTEGRAL_1_HALFPI) <= 1e-9


def test_proof_integral_odd_integrand_vanishes():
    # with the peak at s = 0 the denominator s^2 + 1 is even, the integrand
    # s exp(-s^2) / (s^2 + 1) odd and the integral zero; sanity check of the
    # quadrature setup
    val, _ = _window_quadrature(lambda d, s, width: s, 0.0, 1.0)
    assert abs(val) <= 1e-15


def test_window_quadrature_pads_a_row_with_empty_panels_only():
    # The numerator cancels the Lorentzian, so the integrand is |d| exp(-s^2),
    # whose kink at the peak a width-30 point's own panels do not resolve: an
    # edge added there would change its value, an empty panel not.
    def kink(d, s, width):
        return np.abs(d) * (d * d + width * width)

    batch, _ = _window_quadrature(kink, np.array([0.5, 0.5]), np.array([1e-10, 30.0]))
    alone, _ = _window_quadrature(kink, 0.5, 30.0)
    assert abs(batch[1] - alone) <= 1e-13 * alone
    # The narrow row's graded edges close in on the kink: the integral of
    # |s - a| exp(-s^2), exp(-a^2) + a sqrt(pi) erf(a) at a = 1/2, to rounding.
    assert abs(batch[0] - math.exp(-0.25) - 0.5 * math.sqrt(math.pi) * math.erf(0.5)) <= 1e-12


@pytest.mark.parametrize("t", [1e30, 1e300, [1.0, 1e300], np.array([[1.0, 1e30], [1e300, 2.0]])])
def test_proof_integral_raises_where_its_sign_is_unresolved(t):
    # The peak lies far outside |s| <= 9: what is left is rounding noise
    # (1e30) or exactly 0 (1e300), neither of which has a sign to report.
    # An array raises when any element does, and names the first of them.
    first = re.escape(repr(float(next(v for v in np.ravel(t) if v > 1.0))))
    with pytest.raises(AccuracyError, match=rf"sign unresolved .* at t={first}, theta=1\.0$"):
        proof_integral(t, 1.0)


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


def test_proof_integral_referees_imag_sqrt_alpha_without_the_faddeeva_kernel():
    # With alpha = e^{i theta}, that is kappa = 2 + 2 cos(theta), the proof integral is
    # -pi Im{sqrt(alpha) Vi(alpha t)} / cos(theta/2).  Its quadrature runs no Faddeeva kernel,
    # while both paths of imag_sqrt_alpha_villat's own cross-check run that one kernel at one
    # point.  On verify's 6x6 grid the two sides agree to 2.2e-12 relative; with a 16-term
    # kernel in place of 48, 7.7e-4.
    t = np.logspace(-2, 3, 6)[:, None]
    theta = np.linspace(math.pi / 12.0, math.pi * 11.0 / 12.0, 6)
    want = proof_integral(t, theta)
    got = -math.pi * imag_sqrt_alpha_villat(t, 2.0 + 2.0 * np.cos(theta)) / np.cos(theta / 2.0)
    assert np.all(np.abs(got - want) <= 1e-10 * np.abs(want))


def test_imag_sqrt_alpha_at_a_subnormal_time():
    # alpha t rounds onto the negative real axis (+0j): villat takes that side of its cut.
    value = imag_sqrt_alpha_villat(5e-324, 0.2)
    assert abs(value - imag_sqrt_alpha_villat(1e-300, 0.2)) <= 1e-15


@pytest.mark.parametrize("t", [-1.0, 0.0, math.nan, np.array([1.0, math.nan, -1.0])])
def test_imag_sqrt_alpha_rejects_every_t_outside_its_domain(t):
    with pytest.raises(ValueError, match="^t must be > 0, got nan$" if np.ndim(t) else
                       "^t must be > 0, got "):
        imag_sqrt_alpha_villat(t, 1.0)


@pytest.mark.parametrize("oracle", [proof_integral, imag_sqrt_alpha_villat])
@pytest.mark.parametrize("t", [math.inf, np.array([[1.0, math.inf], [2.0, math.inf]])],
                         ids=["scalar", "array"])
def test_an_infinite_time_is_a_domain_error(oracle, t):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="^t must be finite, got inf$"):
            oracle(t, 1.0)


@pytest.mark.parametrize("kappa", [0.0, -1.0, 4.0, 5.0, math.nan, math.inf,
                                   np.array([[1.0], [4.0], [0.0]])])
def test_imag_sqrt_alpha_rejects_every_kappa_outside_its_domain(kappa):
    with pytest.raises(ValueError, match=r"^kappa must lie in \(0, 4\), got "
                       + ("4.0$" if np.ndim(kappa) else "")):
        imag_sqrt_alpha_villat(np.array([1.0, 2.0]), kappa)


# ----------------------------------------------------------------------
# The oracles over arrays
# ----------------------------------------------------------------------

_ORACLES = {
    "faddeeva_re_quadrature": (faddeeva_re_quadrature, np.linspace(-3.0, 2.5, 5),
                               np.logspace(-6.0, 0.5, 4)),
    "faddeeva_im_quadrature": (faddeeva_im_quadrature, np.linspace(-3.0, 2.5, 5),
                               np.logspace(-6.0, 0.5, 4)),
    "proof_integral": (proof_integral, np.logspace(-2.0, 3.0, 5), np.linspace(0.2, 3.0, 4)),
    "imag_sqrt_alpha_villat": (imag_sqrt_alpha_villat, np.logspace(-2.0, 3.0, 5),
                               np.linspace(0.3, 3.7, 4)),
}


@pytest.mark.parametrize("name", list(_ORACLES))
def test_array_oracle_equals_the_scalar_calls(name):
    oracle, a, b = _ORACLES[name]
    batch = oracle(a[:, None], b)
    scalar = np.array([[oracle(x, y) for y in b.tolist()] for x in a.tolist()])
    assert batch.shape == (len(a), len(b))
    assert type(oracle(float(a[0]), float(b[0]))) in (float, np.float64)
    scale = np.abs(scalar)
    if oracle is imag_sqrt_alpha_villat:
        # The imaginary part of a value of modulus |Vi(alpha t)| cancels as t grows
        # (1.6e-13 of itself at t = 1e3), so the paths are compared on that modulus.
        alpha = np.array([analytic.char_roots(k).alpha for k in b.tolist()])
        scale = np.abs(villat(alpha * a[:, None]))
    assert np.all(np.abs(batch - scalar) <= 1e-13 * scale)


@pytest.mark.parametrize("oracle", [faddeeva_re_quadrature, faddeeva_im_quadrature,
                                    proof_integral])
def test_one_batch_of_narrow_and_wide_peaks_equals_two_calls(oracle):
    # The width-30 rows need no graded edge: theirs are padded onto the window
    # ends as empty panels, to match the 1e-10 rows' count.
    if oracle is proof_integral:  # width = sqrt(t) cos(theta/2) = 1e-10 and 30
        a, b = np.array([1e-18, 3600.0]), 2.0 * np.arccos([0.1, 0.5])
    else:
        a, b = np.array([2.0, -0.5]), np.array([1e-10, 30.0])
    batch = oracle(a, b)
    apart = np.array([oracle(a[:1], b[:1])[0], oracle(a[1:], b[1:])[0]])
    assert np.all(np.abs(batch - apart) <= 1e-13 * np.abs(apart))


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


def test_the_abel_identity_builds_its_operator_once(monkeypatch):
    # Both layers read one operator, so its work on (n, h) alone is done once a check.  Each
    # build of it, or of abel_history, runs _sqrt_errors once; _abel_kernel runs inside
    # _sqrt_errors as well, so its calls do not count builds.
    traj = ide.solve_ide(2.5, 0.0, 1e-2, 5.0)
    builds, sqrt_errors = [], ide._sqrt_errors
    monkeypatch.setattr(ide, "_sqrt_errors", lambda n: builds.append(n) or sqrt_errors(n))
    for _ in range(2):
        assert abel_identity_residual(traj).passed
    assert builds == [len(traj) - 1] * 2


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


def test_residuals_hold_from_t_zero():
    # No step is skipped: a fault at the third step is reported there.
    h = 1e-2
    times = np.arange(0, 101) * h
    spiked = np.zeros(101)
    spiked[3] = 1e3
    traj = Trajectory(times=times, values=np.ones(101), derivatives=spiked)
    rep = ode_residual(traj, 2.0, 1.0)
    assert (rep.passed, rep.worst_violation, rep.location) == (False, 1e3, "t=0.03")
    traj = Trajectory(times=times, values=times + spiked, derivatives=np.ones(101))
    rep = abel_identity_residual(traj)
    assert (rep.passed, rep.location) == (False, "t=0.03")
    # A memory-equation solve deviates most from the Abel identity at its first step.
    rep = abel_identity_residual(ide.solve_ide(2.5, 0.0, h, 10.0))
    assert (rep.passed, rep.location) == (True, "t=0.01")


@pytest.mark.parametrize("check, values, derivatives", [
    (lambda tr: ode_residual(tr, 2.0, 1.0), [1.0, 1.0], [0.0, 1.0]),
    (abel_identity_residual, [0.0, 1.0], [0.0, 0.0]),
], ids=["ode_residual", "abel_identity"])
def test_residuals_check_a_one_step_trajectory(check, values, derivatives):
    # u' jumps by 1 with u at rest, and u rises by 1 with u' at rest: a deviation of 1 at
    # the one step (relative to pi max|u - u0| for the Abel identity).
    times = np.array([0.0, 1e-2])
    rep = check(Trajectory(times=times, values=values, derivatives=derivatives))
    assert (rep.passed, rep.worst_violation, rep.location) == (False, 1.0, "t=0.01")
    rep = check(Trajectory(times=times, values=np.ones(2), derivatives=np.zeros(2)))
    assert (rep.passed, rep.worst_violation, rep.location) == (True, 0.0, "--")


@pytest.mark.parametrize("h", [1e-3, 1e-2])
def test_residuals_fail_without_the_sqrt_start(monkeypatch, h):
    # Without the starting correction a rule converges at order ~1.5 only: in the solve,
    # both residuals fail; in the read-back alone, the Abel identity does.
    def no_correction(n):
        return np.zeros(n + 1), np.zeros(n + 1)

    with monkeypatch.context() as patched:
        patched.setattr(ide, "_sqrt_errors", no_correction)
        traj = ide.solve_ide(2.5, 0.0, h, 10.0)
    assert not ode_residual(traj, 2.5, 0.0).passed
    assert not abel_identity_residual(traj).passed
    traj = ide.solve_ide(2.5, 0.0, h, 10.0)
    monkeypatch.setattr(ide, "_sqrt_errors", no_correction)
    assert not abel_identity_residual(traj).passed


# ----------------------------------------------------------------------
# Full suite
# ----------------------------------------------------------------------

@pytest.mark.parametrize("h, ide_tol, ode_tol, abel_tol, osc_tol", [
    (1e-4, 1e-9, 2e-8, 2e-8, 1e-9), (1e-3, 1e-7, 2e-6, 2e-6, 1e-9),
    (0.01, 1e-5, 2e-4, 2e-4, 1e-6), (0.5, 0.025, 0.5, 1e-2, 1e-6)])
def test_the_default_suite_pins_every_tolerance(h, ide_tol, ode_tol, abel_tol, osc_tol):
    # The verify report carries these, each following its scheme's order: the IDE budget
    # is 0.1 h^2, floored at 1e-12, ode_residual allows 2 h^2, abel_identity min(1e-2, 2 h^2)
    # and oscillator_monotone_ic min(1e-6, max(1e-9, 100 h^4)).
    assert [(r.check_id, r.tolerance) for r in run_default_suite(h=h, points=20)] == [
        ("closed_form_monotone", 1e-12), ("closed_form_derivative_positive", 0.0),
        ("closed_form_derivative_decreasing", 0.0), ("terminal_approach", 0.05), ("root_identities", 1e-13), ("decoupling_v0", 1e-12),
        ("proof_integral_negative", 0.0), ("imag_sqrt_alpha_positive", 0.0),
        ("ide_vs_closed_form", ide_tol), ("ide_monotone", 1e-12), ("ode_residual", ode_tol),
        ("abel_identity", abel_tol), ("oscillator_monotone_ic", osc_tol),
        ("oscillator_monotone", 1e-12),
        ("faddeeva_vs_quadrature", 1e-10), ("villat_derivative_identity", 1e-6),
        ("villat_asymptotic_match", 1e-6), ("naive_villat_blowup", 0.0)]


@pytest.mark.parametrize("h, points", [(2e-3, 150), (2e-4, 20), (1e-4, 20)])
def test_default_suite_all_green(h, points):
    # Each discrete budget shrinks with h at its scheme's order, and so do the readings.
    reports = run_default_suite(h=h, points=points)
    failed = [r for r in reports if not r.passed]
    assert not failed, failed
    ids = {r.check_id for r in reports}
    assert {"closed_form_monotone", "proof_integral_negative", "ide_vs_closed_form",
            "abel_identity", "faddeeva_vs_quadrature"} <= ids


def test_a_naive_villat_that_overflows_passes_the_blowup_check(monkeypatch):
    # The textbook series fails either by a wrong value or by overflowing; both are the
    # blow-up the check asks to see, and an overflow reads as an infinite disagreement.
    def overflowing(z):
        raise OverflowError("naive_villat: the series overflows")

    monkeypatch.setattr(analysis, "naive_villat", overflowing)
    blowup = {r.check_id: r for r in run_default_suite(h=0.01, points=20)}["naive_villat_blowup"]
    assert blowup.passed and blowup.worst_violation == 0.0
    assert blowup.location == "rel_disagreement=inf"
