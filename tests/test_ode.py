"""Tests for the oscillator integrator and stability classifier."""

import math
import tracemalloc
import warnings
from dataclasses import replace

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from spherefall import analytic, ode, special
from spherefall.trajectory import Trajectory, guard_monotone
from spherefall.ode import (
    _POWER_BOUND,
    _SCAN_STEPS,
    OscillatorProblem,
    _step_powers,
    classify_homogeneous,
    monotone_trajectory,
    solve_oscillator,
    sphere_trajectory,
)
from mp_oracle import u_laplace_mp, vp_mp
from rk4_oracle import solve_oscillator_loop

# 50-digit oracle values of the run from rest at b = -1, A = 1, t0 = 1 (mp_oracle.py)
VP_2 = -1.3552014844887057794
VP_HALF = -0.076492140232478052569


def _monotone_problem(b, A, t0):
    ic = analytic.monotone_initial_conditions(b, A, t0)
    return OscillatorProblem(b=b, A=A, t0=t0, v0=ic.v0, v0_prime=ic.v0_prime)


def _run(b, A, t0, v0, v0p, T, h=1e-3):
    return solve_oscillator(OscillatorProblem(b=b, A=A, t0=t0, v0=v0, v0_prime=v0p), h, T)


def _vp(t, b, A, t0):
    # The oscillator started at rest is the variation-of-parameters solution;
    # RK4 at h = 1e-3 holds it within 6e-15 of the erfc-difference oracle.
    k = round(t / 1e-3)
    return _run(b, A, t0, 0.0, 0.0, max(k, 1) * 1e-3).values[k]


def test_classify_stable_falling_sphere():
    cls = classify_homogeneous(2.0 - 1.0)  # kappa = 1
    assert cls.root_kind == "complex-conjugate"
    assert cls.re_sign == "negative"


def test_classify_unstable_complex_range():
    cls = classify_homogeneous(2.0 - 2.5)  # kappa = 2.5
    assert cls.root_kind == "complex-conjugate"
    assert cls.re_sign == "positive"


def test_classify_real_roots_beyond_four():
    cls = classify_homogeneous(2.0 - 4.5)  # kappa = 4.5
    assert cls.root_kind == "real-distinct"


def test_classify_rejects_nan():
    with pytest.raises(ValueError, match="^b must not be NaN"):
        classify_homogeneous(math.nan)


def test_classify_boundaries():
    assert classify_homogeneous(2.0).root_kind == "real-double"  # kappa = 0
    assert classify_homogeneous(-2.0).root_kind == "real-double"  # kappa = 4
    assert classify_homogeneous(0.0).re_sign == "zero"  # kappa = 2


def test_zero_problem_stays_zero():
    # The scan alone, over 500 and 7000 steps; a series node past its reach.
    for t0, h, T in ((1.0, 1e-2, 5.0), (1.0, 1e-3, 7.0), (0.0, 100.0, 5e4)):
        traj = _run(-1.0, 0.0, t0, 0.0, 0.0, T, h)
        assert np.max(np.abs(traj.values)) == 0.0 and not traj.meta["diverged"]
        assert np.max(np.abs(traj.derivatives)) == 0.0


def test_zero_problem_over_7_time_units_is_zero():
    assert np.all(_run(-1.0, 0.0, 1.0, 0.0, 0.0, 7.0).values == 0.0)


def test_monotone_ic_trajectory_matches_kernel_translate():
    b, A, t0 = -1.0, 1.0, 1.0
    traj = solve_oscillator(_monotone_problem(b, A, t0), 1e-3, 20.0)
    ref = np.array([A * analytic.monotone_kernel_M(t + t0, b) for t in traj.times])
    assert np.max(np.abs(traj.values - ref)) <= 1e-6


def test_monotone_run_is_the_kernel_translate_at_every_1000th_node():
    b, A, t0 = -1.0, 1.0, 1.0
    traj = solve_oscillator(_monotone_problem(b, A, t0), 1e-3, 20.0)
    ref = np.array([A * analytic.monotone_kernel_M(float(t) + t0, b) for t in traj.times[::1000]])
    assert np.max(np.abs(traj.values[::1000] - ref)) <= 1e-9


def test_monotone_ic_trajectory_holds_the_increment_form_accuracy():
    # Stepping with P = I + E instead of adding the increment rounds E to
    # eps absolute and lands at 1.7e-10 at t0 = 1; the increment form at 1.4e-11.
    # From t0 = 1e-9 the series start holds 1.2e-13 to T = 10 (the CLI's default
    # grid); ending it at t + t0 = 0.1 instead of 1 gives 1.5e-10.
    b, A = -1.0, 1.0
    for t0, T in ((1.0, 20.0), (1e-9, 10.0)):
        traj = solve_oscillator(_monotone_problem(b, A, t0), 1e-3, T)
        ref, _ = analytic.monotone_kernel_samples(traj.times, b, A, t0)
        assert np.max(np.abs(traj.values - ref)) <= 1e-10, t0


def test_sphere_case_matches_closed_form():
    kappa = 2.5
    prob = OscillatorProblem(
        b=2.0 - kappa, A=math.sqrt(kappa), t0=0.0, v0=-1.0, v0_prime=1.0
    )
    traj = solve_oscillator(prob, 1e-3, 10.0)
    ref = np.array([analytic.u_rest(t, kappa) - 1.0 for t in traj.times])
    assert np.max(np.abs(traj.values[1:] - ref[1:])) <= 1e-5


@pytest.mark.parametrize("solver, kappa, bound", [
    *[("closed-form", kappa, 1e-10) for kappa in (1e-12, 1e-10, 1e-8, 1e-6, 1e-4)],
    ("ode", 1e-12, 1e-9),
    ("ode", 1e-8, 1e-9),
])
def test_heavy_sphere_on_the_grid_holds_the_laplace_form(solver, kappa, bound):
    # The relative error of 1 - u at h = 0.01, against the 25-digit Laplace form.  Measured:
    # the closed form reads at most 1.9e-11 (kappa 1e-8), one ulp of u near 1, and RK4
    # 3.4e-10, its own error at this step.  With the roots and RK4's amplitude taken
    # through b = 2 - kappa, they read 4.4e-5 at kappa 1e-12 and 3.1e-9 at 1e-8.
    traj = sphere_trajectory(solver, kappa, 0.0, 0.01, 100.0)
    for t in (0.05, 0.5, 1.0, 5.0, 20.0, 100.0):
        i = round(t / 0.01)
        ref = u_laplace_mp(traj.times[i], kappa)
        assert abs(traj.values[i] - ref) <= bound * (1.0 - ref), t


def test_run_from_rest_starts_at_zero():
    assert abs(_vp(0.0, -1.0, 1.0, 1.0)) < 1e-14


def test_run_from_rest_is_zero_at_zero_amplitude():
    assert _vp(1.3, -1.0, 0.0, 1.0) == 0.0


def test_run_from_rest_matches_the_erfc_difference_oracle():
    assert abs(_vp(2.0, -1.0, 1.0, 1.0) - VP_2) < 1e-12
    assert abs(_vp(0.5, -1.0, 1.0, 1.0) - VP_HALF) < 1e-13
    for t, b, a, t0 in ((1.0, 0.5, 2.0, 0.5), (3.0, -0.3, 0.7, 2.0)):
        assert abs(_vp(t, b, a, t0) - vp_mp(t, b, a, t0)) < 1e-11


def test_run_from_rest_satisfies_the_oscillator_equation():
    b, A, t0 = -1.0, 1.0, 1.0
    h = 1e-4
    v = _run(b, A, t0, 0.0, 0.0, 4.0 + h, h).values
    for t in (0.5, 1.0, 4.0):
        k = round(t / h)
        vm, v0, vp_ = v[k - 1 : k + 2]
        second = (vp_ - 2.0 * v0 + vm) / (h * h)
        first = (vp_ - vm) / (2.0 * h)
        resid = second + b * first + v0 + A / math.sqrt(math.pi * (t + t0))
        assert abs(resid) <= 1e-6


def test_a_first_step_of_1e_12_keeps_the_initial_state():
    traj = _run(0.5, 2.0, 3.0, 0.7, -0.2, 1e-12, 1e-12)
    assert abs(traj.values[1] - 0.7) < 1e-10
    assert abs(traj.derivatives[1] + 0.2) < 1e-10


def test_series_start_keeps_the_zero_state():
    traj = _run(0.3, 0.0, 0.0, 0.0, 0.0, 2.0, 0.5)  # two series nodes, then the scan
    assert traj.meta["series_steps"] == 2
    assert np.all(traj.values == 0.0) and np.all(traj.derivatives == 0.0)


def test_series_start_gives_cos_t_without_damping_or_forcing():
    # b = 0, A = 0: v = cos t from v(0) = 1, v'(0) = 0; t = 1 is the series node t + t0 = 1.
    traj = _run(0.0, 0.0, 0.0, 1.0, 0.0, 1.0, 1.0)
    assert traj.meta["series_steps"] == 1
    assert abs(traj.values[1] - math.cos(1.0)) < 1e-15
    assert abs(traj.derivatives[1] + math.sin(1.0)) < 1e-15


@given(
    st.floats(min_value=-1.9, max_value=1.9, allow_nan=False),
    st.floats(min_value=-10, max_value=10, allow_nan=False),
    st.floats(min_value=-10, max_value=10, allow_nan=False),
)
@settings(max_examples=100, deadline=None)
def test_series_start_reproduces_the_initial_state(b, w0, w0p):
    # The series start reproduces the initial state as t -> 0: v' moves like sqrt(t) there.
    traj = _run(b, 0.5, 0.0, w0, w0p, 1e-30, 1e-30)
    assert abs(traj.values[1] - w0) <= 1e-12 * (1.0 + abs(w0))
    assert abs(traj.derivatives[1] - w0p) <= 1e-12 * (1.0 + abs(w0p))


def test_series_start_covers_the_nodes_up_to_t_plus_t0_of_one():
    # The nodes with t + t0 <= 1 (node 1 at least, none from t0 = 1 on) are summed
    # from the series in sqrt(t + t0); the scan takes over from there.
    for t0, T, h, steps in ((0.0, 2.0, 1e-3, 1000), (0.0, 0.01, 1e-3, 10), (0.25, 2.0, 1e-3, 750),
                            (0.999, 1.0, 0.01, 1), (0.5, 15.0, 2.5, 1), (1.0, 1.0, 1e-3, 0),
                            (2.0, 1.0, 1e-3, 0)):
        prob = OscillatorProblem(b=0.5, A=1.0, t0=t0, v0=-1.0, v0_prime=1.0)
        traj = solve_oscillator(prob, h, T)
        assert traj.meta["series_steps"] == steps and not traj.meta["diverged"]


@pytest.mark.parametrize("t0", [0.0, 5e-324, 1e-9, 0.5])
def test_series_states_match_the_closed_form_up_to_t_plus_t0_of_one(t0):
    # The series is summed to half an ulp of its largest term: at every series
    # node it lies within 1e-14 of the scale of the monotone closed form (5.2e-15 seen).
    for b in np.linspace(-1.99, 1.99, 21):
        for A in (1.0, -0.7):
            prob = _monotone_problem(b, A, t0)
            for h in (1e-3, 0.05, 0.3, 1.0):
                traj = solve_oscillator(prob, h, 1.0)
                m = traj.meta["series_steps"]
                assert m == max(1, int((1.0 - t0) / h + 1e-9))
                ref, dref = analytic.monotone_kernel_samples(traj.times, b, A, t0)
                scale = max(np.max(np.abs(ref)), np.max(np.abs(dref)))
                assert np.max(np.abs(traj.values[: m + 1] - ref[: m + 1])) <= 1e-14 * scale
                assert np.max(np.abs(traj.derivatives[: m + 1] - dref[: m + 1])) <= 1e-14 * scale


@pytest.mark.parametrize("make", [
    lambda: OscillatorProblem.sphere(0.5, 0.0),
    lambda: OscillatorProblem.sphere(2.0, 0.0),
    lambda: OscillatorProblem.sphere(3.9, 0.0),
    lambda: _monotone_problem(0.5, 1.0, 1e-2),
], ids=["kappa 0.5", "kappa 2", "kappa 3.9", "t0 1e-2"])
def test_rk4_converges_at_order_four_from_the_singular_start(make):
    # A start that ends after a fixed number of steps, not at a fixed time,
    # leaves the order at 0.5; the series start to t + t0 = 1 restores 4
    # (3.97 to 4.01 seen).  Below h = 2.5e-3 the kappa 0.5 error nears rounding.
    prob, errors = make(), []
    for h in (2e-2, 1e-2, 5e-3, 2.5e-3):
        traj = solve_oscillator(prob, h, 10.0)
        ref, _ = analytic.monotone_kernel_samples(traj.times, prob.b, prob.A, prob.t0)
        errors.append(np.max(np.abs(traj.values - ref)))
    orders = np.log2(np.array(errors[:-1]) / np.array(errors[1:]))
    assert np.all(orders >= 3.5), orders


@pytest.mark.parametrize("t0", [0.0, 1e-2, 1.0])
def test_rk4_reads_no_closed_form(monkeypatch, t0):
    def closed_form(*args):
        raise AssertionError("RK4 called the closed form")
    for name in ("faddeeva", "villat"):
        monkeypatch.setattr(special, name, closed_form)
        monkeypatch.setattr(analytic, name, closed_form, raising=False)
    monkeypatch.setattr(analytic, "monotone_kernel_samples", closed_form)
    prob = OscillatorProblem(b=-0.5, A=1.0, t0=t0, v0=-1.0, v0_prime=1.0)
    traj = solve_oscillator(prob, 1e-2, 5.0)
    assert len(traj.values) == 501 and np.all(np.isfinite(traj.values))


@pytest.mark.parametrize("b, v0, h", [(0.0, -1.0, 100.0), (0.0, -1.0, 1e180), (1.99, 0.0, 17.0)])
def test_a_series_start_past_its_reach_flags_the_run_at_t_zero(b, v0, h):
    # At h = 100 the series needs more terms than its cap, and at 1e180 its terms
    # overflow.  From rest at b = 1.99, h = 17 it converges, but its largest term is
    # 1.6e8 times the states, past 2^26 (at h = 16, 5.9e7, it runs and keeps 6.5e-9
    # relative against a 60-digit sum).  Nothing is written past t = 0, and nothing warns.
    prob = OscillatorProblem(b=b, A=1.0, t0=0.0, v0=v0, v0_prime=-v0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        traj = solve_oscillator(prob, h, 2 * h)
    assert traj.meta["diverged"] is True and traj.meta["T"] == 0.0
    assert traj.values.tolist() == [v0] and traj.derivatives.tolist() == [-v0]


@pytest.mark.parametrize("b, h_max", [(0.0, 2.8), (0.5, 2.85), (1.0, 2.6), (1.5, 2.7), (1.99, 2.75)])
def test_a_step_inside_the_rk4_stability_interval_is_not_flagged(b, h_max):
    # For b >= 0, |R(h m)| <= 1 below h* = 2.83, 2.90, 2.62, 2.74 and 2.79 at these b.  At
    # b = 0, |R(i h)|^2 = 1 - h^6/72 + h^8/576 < 1 below h = sqrt(8), but rounded, |R| - 1
    # (3 of the 400 log-spaced h) and tr E + det E (50 of them, h < 1e-3) come out positive.
    prob = OscillatorProblem(b=b, A=1.0, t0=0.0, v0=-1.0, v0_prime=1.0)
    for h in np.union1d(np.geomspace(1e-6, h_max, 400), [1e-3, 0.1, 1.0, 2.5]):
        traj = solve_oscillator(prob, h, 3 * h)
        assert not traj.meta["diverged"] and len(traj.times) == 4, h


@pytest.mark.parametrize("b, t0, h", [(0.0, 0.0, 5.0), (1.0, 0.0, 2.7), (0.0, 1.0, 1e180)])
def test_a_step_past_the_rk4_stability_interval_flags_the_run_at_t_zero(b, t0, h):
    # Where b >= 0 the problem does not grow, so a step with |R(h m)| > 1 (21.5 at
    # b = 0, h = 5) only amplifies the step's error.  From t0 = 1 on there is no series
    # start, so at h = 1e180 the inf step matrix alone flags the run.  Nothing warns.
    prob = OscillatorProblem(b=b, A=1.0, t0=t0, v0=-1.0, v0_prime=1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        traj = solve_oscillator(prob, h, 10 * h)
    assert traj.meta["diverged"] is True and traj.meta["T"] == 0.0
    assert traj.values.tolist() == [-1.0] and traj.derivatives.tolist() == [1.0]


@settings(max_examples=40, deadline=None)
@given(
    b=st.floats(-1.9, 1.9),
    A=st.floats(-2.0, 2.0, allow_subnormal=False),  # subnormal: one rounding, 5e-324, tops 1e-6 A
    t0=st.just(0.0) | st.floats(-12.0, 1.0).map(lambda e: 10.0**e),  # log-spaced near 0
    h=st.floats(1e-3, 1e-2),
)
def test_monotone_run_matches_the_closed_form_at_every_t0(b, A, t0, h):
    # Forcing derivatives grow like (t + t0)^(-9/2) for small t + t0, so a
    # bare RK4 start there is off by up to 1e4; the series start keeps the
    # run within 3.6e-9 of the scale over this domain (the worst of a dense
    # scan, at b = -1.9, t0 = 1, h = 1e-2, where the scan starts at node 0),
    # and this bound leaves a factor 2.8.
    traj = solve_oscillator(_monotone_problem(b, A, t0), h, 5.0)
    ref, _ = analytic.monotone_kernel_samples(traj.times, b, A, t0)
    assert not traj.meta["diverged"]
    assert np.max(np.abs(traj.values - ref)) <= 1e-8 * (abs(A) + np.max(np.abs(traj.values)))


def test_monotone_run_follows_the_kernel_over_a_sweep():
    # The kernel M(t; -1) is negative and rises, call by call on the scalar path, to t = 60.
    vals = [analytic.monotone_kernel_M(float(t), -1.0) for t in np.linspace(0.0, 60.0, 241)]
    assert all(v < 0.0 for v in vals)
    assert all(b > a for a, b in zip(vals, vals[1:]))
    # The monotone trajectory A M(t + t0) rises over the sweep, and RK4 from the monotone
    # state follows it: a leftover homogeneous mode C e^{-b t/2} would show above
    # |C| = 1e-10 (the worst seen is 2.4e-12).
    for b in (-1.5, -1.0, -0.5, 0.5, 1.5):
        for A in (0.5, 1.0, 2.0):
            for t0 in (0.1, 1.0, 10.0):
                traj = solve_oscillator(_monotone_problem(b, A, t0), 5e-3, 50.0)
                ref = analytic.monotone_kernel_samples(traj.times, b, A, t0)[0]
                assert np.max(ref[:-1] - ref[1:]) <= 1e-12, (b, A, t0)
                growth = np.maximum(1.0, np.exp(-b / 2.0 * traj.times))
                assert np.max(np.abs(traj.values - ref) / growth) <= 1e-10, (b, A, t0)


def test_forcing_near_the_largest_double_does_not_overflow():
    # pi (t + t0) overflows past t + t0 of about 5.7e307; sqrt(pi) sqrt(t + t0) does not.
    b, A, t0 = 1.5695228564229238, 1e-12, 1.7e308
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        traj = solve_oscillator(_monotone_problem(b, A, t0), 1.0, 20200.0)
    ref, _ = analytic.monotone_kernel_samples(traj.times, b, A, t0)
    assert len(traj.times) == 20201 and not traj.meta["diverged"]
    assert np.all(np.abs(traj.values - ref) <= 1e-12 * np.abs(ref))


def test_fourth_order_convergence_on_smooth_problem():
    monotone = _monotone_problem(0.5, 1.0, 1.0)
    prob = replace(monotone, v0=monotone.v0 + 0.2)  # a generic start
    runs = [solve_oscillator(prob, h, 5.0).values for h in (2e-2, 1e-2, 5e-3)]

    def sup_step_halving(coarse, fine):
        # The gap between a run and one at half the step, on the coarse grid:
        # 15/16 of the coarse run's error for a fourth-order method.
        return np.max(np.abs(coarse - fine[::2]))

    e1, e2 = sup_step_halving(*runs[:2]), sup_step_halving(*runs[1:])
    assert 10.0 <= e1 / e2 <= 30.0  # ~16 for a fourth-order method


def test_unstable_damping_contrast_bounded_vs_perturbed():
    prob, h, T = _monotone_problem(-1.0, 1.0, 1.0), 1e-3, 50.0
    bounded = solve_oscillator(prob, h, T)
    assert np.max(np.abs(bounded.values)) <= abs(prob.v0) + abs(prob.A)

    for sign in (+1.0, -1.0):
        perturbed = solve_oscillator(replace(prob, v0=prob.v0 + sign * 1e-3), h, T)
        assert np.max(np.abs(perturbed.values)) > 10.0 * abs(prob.v0)
        # By t = 40 (node 40000) e^{0.5 t} has amplified the 1e-3 perturbation past 1e4.
        assert abs(perturbed.values[40000]) > 1e4


def test_perturbed_monotone_run_grows_past_1e4_by_t_40():
    prob = _monotone_problem(-1.0, 1.0, 1.0)
    v40 = solve_oscillator(replace(prob, v0=prob.v0 + 1e-3), 1e-3, 40.0).values[-1]
    assert abs(v40) > 10.0 * abs(prob.v0)
    # growth-factor scale: e^{0.5 t} amplification of the 1e-3 perturbation
    assert abs(v40) > 1e4


def test_positive_damping_converges():
    # forcing already decayed (large t0): every start collapses to ~0
    prob = OscillatorProblem(b=1.0, A=1.0, t0=1e4, v0=0.5, v0_prime=0.0)
    traj = solve_oscillator(prob, 1e-2, 50.0)
    assert abs(traj.values[-1]) <= 1e-2 * (1.0 + abs(prob.v0))


def test_divergent_trajectory_flagged_not_raised():
    prob = OscillatorProblem(b=-1.9, A=0.0, t0=1.0, v0=1.0, v0_prime=0.0)
    traj = solve_oscillator(prob, 0.05, 800.0)
    assert traj.meta["diverged"] is True
    assert traj.times[-1] < 800.0
    assert np.all(np.isfinite(traj.values))


@settings(max_examples=25, deadline=None)
@given(
    b=st.floats(0.0, 2.0, exclude_min=True, exclude_max=True),
    A=st.floats(-2.0, 2.0),
    t0=st.floats(0.1, 10.0),
    h=st.floats(1e-3, 0.1),
    v0=st.floats(-1.0, 1.0),
    v0_prime=st.floats(-1.0, 1.0),
)
def test_fused_step_matches_the_four_stage_loop(b, A, t0, h, v0, v0_prime):
    # The fused update and the four-stage loop take the same steps with the
    # operations grouped differently.  With stable damping the rounding
    # differences (a few ulps of the state per step) grow at most linearly,
    # so 2000 steps stay within 2000 * 2 eps ~ 1e-12 of the state's scale.
    prob = OscillatorProblem(b=b, A=A, t0=t0, v0=v0, v0_prime=v0_prime)
    traj = solve_oscillator(prob, h, 2000 * h)
    v, dv = solve_oscillator_loop(prob, h, 2000 * h)
    assert len(traj.values) == len(v) == 2001
    scale = 1.0 + max(np.max(np.abs(v)), np.max(np.abs(dv)))
    assert np.max(np.abs(traj.values - v)) <= 1e-12 * scale
    assert np.max(np.abs(traj.derivatives - dv)) <= 1e-12 * scale


def test_diverging_sphere_stops_at_the_same_row_as_the_loop():
    prob = OscillatorProblem.sphere(3.9, 0.0)
    traj = solve_oscillator(prob, 0.05, 800.0)
    v, _ = solve_oscillator_loop(prob, 0.05, 800.0)
    assert traj.meta["diverged"] is True
    assert len(traj.values) == len(v) == 13946  # of 16001 grid points
    assert np.all(np.isfinite(traj.values))


def test_zero_problem_stays_zero_where_the_step_powers_grow_fast():
    # |P| is 2e3 here and |P^8| 5e22: a scan block whose powers overflow would
    # turn the zero state into inf * 0 = NaN and flag a false divergence.  The
    # block length stops where the powers pass their bound.
    prob = OscillatorProblem(b=-1.9, A=0.0, t0=1.0, v0=0.0, v0_prime=0.0)
    traj = solve_oscillator(prob, 10.0, 20000.0)
    assert traj.meta["diverged"] is False
    assert len(traj.values) == 2001
    assert np.all(traj.values == 0.0) and np.all(traj.derivatives == 0.0)


def _rk4_increment(b, h):
    Z = h * np.array([[0.0, 1.0], [-1.0, -b]])
    Z2 = Z @ Z
    return Z + Z2 / 2.0 + Z2 @ Z / 6.0 + Z2 @ Z2 / 24.0


@pytest.mark.parametrize("b, h, reach", [(-1.0, 1e-3, 2048), (-1.0, 1e-2, 128),
                                         (0.5, 0.1, math.inf), (-2.0, 0.05, 16),
                                         (-1.9, 10.0, 1)])
def test_step_powers_stay_within_their_bound_and_match_the_exact_powers(b, h, reach):
    # E_j = P^j - I, P = I + E, doubled in increment form: within a few ulps
    # of |P^j| of the exact powers of the double E, at every j up to L.  The
    # doubling stops at _SCAN_STEPS, or before the first power of two past reach,
    # where a power leaves _POWER_BOUND (a stable b never does).
    E = _rk4_increment(b, h)
    powers = _step_powers(E)
    L = min(reach, _SCAN_STEPS)
    assert len(powers) == L
    assert L == 1 or np.max(np.abs(powers)) <= _POWER_BOUND
    with mpmath.workdps(40):
        P = mpmath.eye(2) + mpmath.matrix(E.tolist())
        Pj = mpmath.eye(2)
        for j in range(L):
            Pj = Pj * P
            exact = np.array((Pj - mpmath.eye(2)).tolist(), dtype=float)
            scale = max(1.0, float(max(abs(x) for x in Pj)))
            assert np.max(np.abs(powers[j] - exact)) <= 8 * np.finfo(float).eps * scale


def test_unstable_sphere_matches_the_four_stage_loop():
    # kappa = 2.5 grows like exp(t/4): the scan and the loop group their
    # roundings differently, and the increment-form powers keep them 8e-14
    # apart over 20000 steps.  Powers formed from a rounded P = I + E drift
    # by eps/h relative per step instead.
    prob = OscillatorProblem.sphere(2.5, 0.0)
    traj = solve_oscillator(prob, 1e-3, 20.0)
    v, dv = solve_oscillator_loop(prob, 1e-3, 20.0)
    assert len(traj.values) == len(v) == 20001 and not traj.meta["diverged"]
    assert np.max(np.abs(traj.values - v)) <= 5e-13
    assert np.max(np.abs(traj.derivatives - dv)) <= 5e-13


@settings(max_examples=40, deadline=None)
@given(
    b=st.floats(-1.99, -0.1),
    A=st.floats(-2.0, 2.0),
    t0=st.floats(0.1, 10.0),
    h=st.floats(1e-2, 3.0),
    v0=st.floats(-1.0, 1.0),
    v0_prime=st.floats(-1.0, 1.0),
)
def test_unstable_run_stops_at_the_same_row_as_the_loop(b, A, t0, h, v0, v0_prime):
    # The run is cut before the first state past the overflow guard, or NaN:
    # the scan and the four-stage loop agree on that row, and on whether it exists.
    prob = OscillatorProblem(b=b, A=A, t0=t0, v0=v0, v0_prime=v0_prime)
    traj = solve_oscillator(prob, h, 3000 * h)
    v, _ = solve_oscillator_loop(prob, h, 3000 * h)
    assert len(traj.values) == len(v)
    assert traj.meta["diverged"] is (len(v) < 3001)
    assert np.all(np.isfinite(traj.values)) and np.all(np.isfinite(traj.derivatives))


@pytest.mark.skipif(np.finfo(np.longdouble).nmant < 63, reason="needs an 80-bit long double")
@pytest.mark.parametrize("b, h", [(-1.9, 0.1), (-0.102, 0.388), (-1.0, 0.01), (-0.332, 0.041),
                                  (0.5, 0.3), (0.9, 0.02)])
def test_scan_matches_a_long_double_run_of_the_same_fused_steps(monkeypatch, b, h):
    # The scan's own rounding, measured against the recursion x_{k+1} = x_k + (E x_k + g_k)
    # run step by step in 80-bit arithmetic on the very E and g_k the scan received.  Read
    # here: 6.6e-13, 1.8e-13, 4.8e-15, 1.2e-14 (growing) and 4.6e-16, 3.4e-16 (stable).
    # Relative to the running maximum, a growing run accumulates rounding like n eps, and a
    # stable one stays within a few ulps of its largest state.
    bound = (4 * 3000 if b < 0 else 8) * np.finfo(float).eps
    seen, scan = [], ode._scan

    def spy(gx, gy, x, y, powers):
        seen.append((gx, gy, x, y, powers[0]))
        return scan(gx, gy, x, y, powers)

    monkeypatch.setattr(ode, "_scan", spy)
    prob = OscillatorProblem(b=b, A=1.0, t0=1.0, v0=0.3, v0_prime=-0.7)  # t0 = 1: no series start
    traj = solve_oscillator(prob, h, 3000 * h)
    (gx, gy, x, y, E), = seen
    (e00, e01), (e10, e11) = E.astype(np.longdouble)
    x, y = np.longdouble(x), np.longdouble(y)
    ref = np.empty((2, len(gx)), np.longdouble)
    for k, (cx, cy) in enumerate(zip(gx.astype(np.longdouble), gy.astype(np.longdouble))):
        x, y = x + (e00 * x + e01 * y + cx), y + (e10 * x + e11 * y + cy)
        ref[:, k] = x, y
    got = np.array([traj.values[1:], traj.derivatives[1:]], np.longdouble)
    running_max = np.maximum.accumulate(np.max(np.abs(ref), axis=0))
    assert not traj.meta["diverged"] and len(traj.values) == 3001
    assert np.max(np.max(np.abs(got - ref), axis=0) / running_max) <= bound


def test_memory_stays_flat_at_large_n():
    # The forcing and the scan's temporaries live one segment of
    # _BLOCK_STEPS steps at a time: at n = 2e5 the peak is 1.4 times the
    # returned arrays (times, v, v'), which the grid's own construction sets.
    # A scan over the whole grid at once peaks at 4.7 times.  Where the series
    # start covers the grid (h = 1e-6, T = 1), it forms sigma in place and sums
    # into the states: the peak is 1.375 times, and 1.67 with sigma out of place.
    prob = OscillatorProblem.sphere(2.5, 0.0)
    solve_oscillator(prob, 1e-3, 1.0)
    for h, T, bound in ((1e-3, 200.0, 2.0), (1e-6, 1.0, 1.5)):
        tracemalloc.start()
        try:
            traj = solve_oscillator(prob, h, T)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(traj.times) == round(T / h) + 1
        out = traj.times.nbytes + traj.values.nbytes + traj.derivatives.nbytes
        assert peak <= bound * out, (h, T)
    assert traj.meta["series_steps"] == 1000000


def test_solver_argument_validation():
    prob = OscillatorProblem(b=0.0, A=1.0, t0=1.0, v0=0.0, v0_prime=0.0)
    with pytest.raises(ValueError):
        solve_oscillator(prob, 0.0, 1.0)
    with pytest.raises(ValueError):
        solve_oscillator(prob, 1e-2, 1e-3)
    for b in (2.0, -2.0, 2.5):  # the series start and the scan hold for any b; the domain is (-2, 2)
        bad_b = OscillatorProblem(b=b, A=1.0, t0=1.0, v0=0.0, v0_prime=0.0)
        with pytest.raises(ValueError, match=rf"^damping coefficient must lie in \(-2, 2\), got {b}$"):
            solve_oscillator(bad_b, 1e-2, 1.0)
    for t0 in (-1.0, math.nan):  # a NaN t0 is rejected, not run as an RK4 divergence
        with pytest.raises(ValueError, match="^t0 must be >= 0, got "):
            OscillatorProblem(b=0.0, A=1.0, t0=t0, v0=0.0, v0_prime=0.0)
    # Every other non-finite field is rejected by name, not run as an RK4 divergence at T = 0.
    finite = {"b": 0.0, "A": 1.0, "t0": 1.0, "v0": 0.0, "v0_prime": 0.0}
    for name in ("b", "A", "t0", "v0", "v0_prime"):
        for bad in (math.nan, math.inf, -math.inf):
            if name == "t0" and not bad > 0.0:
                continue  # the check above
            with pytest.raises(ValueError, match=f"^{name} must be finite, got "):
                OscillatorProblem(**{**finite, name: bad})
    # The entry points name a solver they do not know, as a domain error.
    for solver in ("rk4", "Closed-Form", ""):
        with pytest.raises(ValueError, match=f"^unknown solver {solver!r}$"):
            sphere_trajectory(solver, 2.0, 0.0, 1e-2, 1.0)
        with pytest.raises(ValueError, match=f"^unknown solver {solver!r}$"):
            monotone_trajectory(solver, 0.0, 1.0, 1.0, 1e-2, 1.0)
    with pytest.raises(ValueError, match="^the ide solver applies to the sphere problem only$"):
        monotone_trajectory("ide", 0.0, 1.0, 1.0, 1e-2, 1.0)


@pytest.mark.parametrize("start, end, values, broken_at", [
    (0.0, 1.0, [0.0, 0.5, 1.0 + 5e-13], None),  # within the tolerance
    (0.0, 1.0, [0.0, 0.5, 1.0 + 3e-12], 2.0),  # past the band
    (0.0, 1.0, [0.0, -3e-12, 0.5], 1.0),
    (0.0, 1.0, [0.0, 0.7, 0.7 - 3e-12, 0.8], 2.0),  # a step back inside the band
    (3.0, 1.0, [3.0, 2.0, 2.5, 1.0], 2.0),  # falling from above
    (3.0, 1.0, [3.0, 2.0, 1.0], None),
    (1.0, 1.0, [1.0, 1.0], None),  # a constant run from eps = 1
    (-0.5, 0.0, [-0.5, -0.2, 2e-12], 2.0),  # the oscillator's band from v0 to 0
])
def test_the_guard_records_the_first_t_that_breaks_the_monotone_approach(start, end, values,
                                                                         broken_at):
    times = np.arange(len(values), dtype=float)
    traj = guard_monotone(Trajectory(times, values, np.zeros(len(values)), meta={"h": 1.0}),
                          start, end)
    assert traj.meta == ({"h": 1.0} if broken_at is None
                         else {"h": 1.0, "monotone_break_t": broken_at})


def test_a_run_that_keeps_the_theorem_gains_no_meta_key():
    # The JSON of a passing run is unchanged.
    keys = {"solver", "b", "A", "t0", "h", "T", "series_steps", "diverged", "kappa", "eps",
            "variable"}
    assert set(sphere_trajectory("ode", 2.5, 0.0, 1e-2, 10.0).meta) == keys
    assert set(sphere_trajectory("ide", 2.5, 0.0, 1e-2, 10.0).meta) == {
        "solver", "kappa", "u0", "h", "T"}
    assert "monotone_break_t" not in monotone_trajectory("ode", -1.0, 1.0, 1.0, 1e-2, 5.0).meta


def _rk4_spheres(count=300, seed=2026):
    """A fixed draw of RK4 spheres: kappa uniform in (0.05, 3.95), eps in {0, 0.5, 3},
    h log-uniform in [1e-3, 0.5] and T log-uniform in [1, 800]."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        kappa, eps = rng.uniform(0.05, 3.95), float(rng.choice([0.0, 0.5, 3.0]))
        yield kappa, eps, 10.0 ** rng.uniform(-3.0, math.log10(0.5)), \
            10.0 ** rng.uniform(0.0, math.log10(800.0))


# The wrong runs that keep the theorem, (kappa, eps, h, T): 3.1e-2 and 1.0e-2 of |1 - eps| off.
_KEEPS_THE_THEOREM = [(3.2349, 0.5, 0.2398, 14.37), (2.8728, 0.0, 0.0483, 32.45)]


def test_the_guard_flags_every_wrong_rk4_sphere_of_a_random_draw():
    # About 1.8e4 steps a run.  71 of these 300 runs end more than 1e-2 |1 - eps| off the
    # closed form at exit 0 without the guard; it flags all of them but the two above, and
    # no run within 1e-3 |1 - eps|.
    missed, false_alarms = [], []
    for kappa, eps, h, T in _rk4_spheres():
        traj = sphere_trajectory("ode", kappa, eps, h, T)
        flagged = traj.meta["diverged"] or "monotone_break_t" in traj.meta
        err = np.max(np.abs(traj.values - analytic._sphere_samples(traj.times, kappa, eps)[0]))
        err /= abs(1.0 - eps)
        if err > 1e-2 and not flagged:
            missed.append((kappa, eps, h, T))
        if err <= 1e-3 and flagged:
            false_alarms.append((kappa, eps, h, T, err))
    named = [run for run in missed
             if any(np.allclose(run, known, rtol=1e-3) for known in _KEEPS_THE_THEOREM)]
    assert named == missed and not false_alarms, (missed, false_alarms)
