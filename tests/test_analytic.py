"""Tests for the closed-form machinery."""

import cmath
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from spherefall import analytic, ide, special
from spherefall.analysis import imag_sqrt_alpha_villat
from spherefall.special import villat
from spherefall.analytic import (
    CharRoots,
    _sphere,
    _sphere_samples,
    char_roots,
    monotone_initial_conditions,
    monotone_kernel_M,
    monotone_kernel_samples,
    u_rest,
    u_rest_derivative,
)

from closed_form_oracle import u_rest_derivative_reference, u_rest_reference
from mp_oracle import _roots_mp, kernel_M_mp, u_laplace_mp, u_rest_mp
from spherefall.ode import OscillatorProblem, solve_oscillator, sphere_trajectory

# 50-digit oracle values (mp_oracle.py)
U_REST_1_1 = 0.40676120086217601189
U_REST_100_3 = 0.90276792330343871134
M_1_NEG1 = -0.39141572894080029095

FD_STEP = 2.2e-16 ** (1.0 / 3.0)

# The grid sampler evaluates Villat on arrays, which round differently from
# the scalar calls in the last bits; A M and A M' agree with the scalar
# kernel and the sphere's reference forms to this absolute tolerance (worst
# seen 2.1e-15, against the reference forms).
ARRAY_ATOL = 2e-14

kappas = st.floats(min_value=0.01, max_value=3.99, allow_nan=False)


def _kernel_derivative(t, b):
    # M'(t) on the scalar path: the second half of the (M, M') evaluator.
    return monotone_kernel_samples(t, b, 1.0, 0.0)[1]


# ----------------------------------------------------------------------
# Characteristic roots
# ----------------------------------------------------------------------

def test_char_roots_kappa_two_gives_pure_imaginary():
    r = char_roots(2.0)
    assert abs(r.alpha - 1j) < 1e-15
    assert abs(r.beta + 1j) < 1e-15
    assert r.b == 0.0


def test_char_roots_kappa_one():
    r = char_roots(1.0)
    assert abs(r.alpha - complex(-0.5, math.sqrt(3.0) / 2.0)) < 1e-15


def test_char_roots_unstable_range_has_positive_real_part():
    assert char_roots(2.5).alpha.real > 0.0


def test_char_roots_real_regime():
    r = char_roots(6.0)
    assert r.alpha.imag == 0.0 and r.beta.imag == 0.0
    assert r.alpha.real > r.beta.real
    assert abs(r.alpha * r.beta - 1.0) < 1e-14


def test_char_roots_domain_errors():
    with pytest.raises(ValueError):
        char_roots(4.0)
    # The one message of the physical bound, which solve_ide and DimensionlessGroup share.
    for kappa in (0.0, math.nextafter(9.0, 10.0), 9.5, math.nan):
        with pytest.raises(ValueError, match=rf"^kappa must lie in \(0, 9\], got {kappa}$"):
            char_roots(kappa)


def test_char_roots_checks_the_root_product_and_sum():
    alpha = char_roots(2.5).alpha
    with pytest.raises(ValueError, match="^CharRoots: root product must be 1$"):
        CharRoots(alpha=2.0 * alpha, beta=alpha.conjugate(), b=-0.5)
    with pytest.raises(ValueError, match="^CharRoots: root sum must be -b$"):
        CharRoots(alpha=alpha, beta=alpha.conjugate(), b=0.5)


def test_char_roots_at_the_massless_sphere():
    # kappa = 9 (rho_s = 0) ends the domain of solve_ide and drag; the
    # roots of m^2 - 7m + 1 are phi^4 and phi^-4, phi the golden ratio.
    r = char_roots(9.0)
    sa, sb = cmath.sqrt(r.alpha), cmath.sqrt(r.beta)
    assert r.b == -7.0 and r.alpha.imag == 0.0 and r.beta.imag == 0.0
    assert abs(r.alpha - ((1.0 + math.sqrt(5.0)) / 2.0) ** 4) <= 1e-14 * r.alpha.real
    assert abs(r.alpha * r.beta - 1.0) <= 1e-14
    assert abs(r.alpha + r.beta - (9.0 - 2.0)) <= 1e-14
    assert abs((sa + sb) ** 2 - 9.0) <= 1e-13


@given(kappas)
@settings(max_examples=100, deadline=None)
def test_root_identities(kappa):
    r = char_roots(kappa)
    sa, sb = cmath.sqrt(r.alpha), cmath.sqrt(r.beta)
    assert abs(r.alpha * r.beta - 1.0) <= 1e-14
    assert abs(r.alpha + r.beta - (kappa - 2.0)) <= 1e-14
    assert abs((sa + sb) ** 2 - kappa) <= 1e-13
    assert abs(abs(r.alpha) - 1.0) <= 1e-14
    assert r.alpha.imag > 0.0


# ----------------------------------------------------------------------
# Rest-start solution
# ----------------------------------------------------------------------

@pytest.mark.parametrize("kappa", [0.5, 1.0, 2.0, 2.9, 3.9])
def test_u_rest_starts_at_zero(kappa):
    assert abs(u_rest(0.0, kappa)) < 1e-15


def test_u_rest_against_multiprecision_oracle():
    assert abs(u_rest(1.0, 1.0) - U_REST_1_1) < 1e-13
    assert 0.0 < U_REST_1_1 < 1.0
    traj = ide.solve_ide(1.0, 0.0, 1e-3, 1.0)
    assert abs(traj.values[-1] - U_REST_1_1) < 1e-4


def test_u_rest_asymptotic_tail_at_kappa_three():
    lead = 1.0 - math.sqrt(3.0 / (100.0 * math.pi))
    assert abs(u_rest(100.0, 3.0) - lead) <= 0.01
    assert abs(u_rest(100.0, 3.0) - U_REST_100_3) < 1e-14


def test_u_rest_live_oracle_spot_checks():
    for tau, kappa in ((0.25, 0.5), (3.0, 2.5), (40.0, 3.5)):
        assert abs(u_rest(tau, kappa) - u_rest_mp(tau, kappa)) < 1e-13


@pytest.mark.parametrize("kappa", [0.5, 1.0, 2.0, 2.9])
def test_u_rest_derivative_is_one_at_zero(kappa):
    assert abs(u_rest_derivative(0.0, kappa) - 1.0) < 1e-13


def test_u_rest_derivative_positive_everywhere_sampled():
    taus = np.logspace(-3, 3, 200)
    for kappa in (0.3, 0.5, 1.0, 2.0, 2.5, 3.0, 3.5, 3.9):
        assert all(u_rest_derivative(float(t), kappa) > 0.0 for t in taus)


def test_u_rest_derivative_matches_finite_difference():
    h = FD_STEP
    fd = (u_rest(1.0 + h, 1.0) - u_rest(1.0 - h, 1.0)) / (2.0 * h)
    exact = u_rest_derivative(1.0, 1.0)
    assert abs(fd - exact) <= 1e-6 * abs(exact)


def test_u_rest_limit_envelope():
    for kappa in (0.5, 2.0, 3.9):
        for tau in (10.0, 100.0, 1e3, 1e5):
            assert abs(u_rest(tau, kappa) - 1.0) <= 2.0 * math.sqrt(kappa / (math.pi * tau))


def test_u_rest_domain_errors():
    with pytest.raises(ValueError):
        u_rest(-1.0, 2.0)
    with pytest.raises(ValueError, match="kappa"):
        u_rest(1.0, 4.5)
    with pytest.raises(ValueError, match="kappa"):
        u_rest_derivative(1.0, 0.0)


@pytest.mark.parametrize("kappa", [1e-15, 1e-12, 1e-10, 1e-8, 1e-5])
def test_small_kappa_sphere_keeps_its_initial_state(kappa):
    # The roots and the amplitude both come from kappa, so the closed form starts where
    # the sphere does; RK4 takes the same amplitude, with b = 2 - kappa as its damping only.
    assert abs(u_rest(0.0, kappa)) <= 1e-15
    assert abs(u_rest_derivative(0.0, kappa) - 1.0) <= 1e-15
    u, du = _sphere_samples(np.array([0.0]), kappa, 0.3)
    assert abs(u[0] - 0.3) <= 1e-15 and abs(du[0] - 0.7) <= 1e-15
    prob = OscillatorProblem.sphere(kappa, 0.3)
    assert (prob.b, prob.A) == (2.0 - kappa, (1.0 - 0.3) * math.sqrt(kappa))
    assert (prob.v0, prob.v0_prime) == (0.3 - 1.0, 1.0 - 0.3)


def _heavy_sphere_bound(kappa):
    """The relative bound on 1 - u in kappa's decade, 10^d <= kappa < 10^(d + 1).

    For t <= 100, 1 - u >= 0.056 sqrt(kappa), so one ulp of u near 1 (1.1e-16) is up to
    2e-15 / sqrt(kappa) of 1 - u: the bound allows two at the decade's lower end, plus 1e-14.
    Measured worst over 43 draws a decade: 1.4e-9 (d = -12), 6.7e-11 (-10), 2.0e-11 (-8),
    2.0e-12 (-6), 1.1e-13 (-4), 4.6e-15 (-2) and 1.6e-15 (0), and 1.2e-15 for kappa from
    3.9 to 4 - 1e-15.  Roots and amplitude both taken through b = 2 - kappa read 4.4e-5,
    3.5e-7, 3.4e-9, 5.1e-11, 3.8e-13 and 1.2e-14 in the first six of these decades.
    """
    return 1e-14 + 4e-15 / math.sqrt(10.0 ** math.floor(math.log10(kappa)))


@given(
    kappa=st.floats(math.log(1e-12), math.log(4.0)).map(math.exp).filter(lambda k: k < 4.0),
    t=st.floats(0.05, 100.0),
)
@example(kappa=1e-12, t=0.05)
@example(kappa=1e-12, t=100.0)
@example(kappa=1e-10, t=0.05)
@example(kappa=1e-10, t=100.0)
@example(kappa=1e-8, t=0.05)
@example(kappa=1e-8, t=100.0)
@example(kappa=1e-6, t=0.05)
@example(kappa=1e-6, t=100.0)
@settings(max_examples=20, deadline=None)
def test_heavy_sphere_keeps_its_digits(kappa, t):
    # 1 - u against the 25-digit Laplace form (about 30 ms a call, 1 s for the test), from
    # u_rest and from the closed-form trajectory on the grid {0, t}.  Roots from 2 - kappa
    # with A = sqrt(kappa) fail at small t; roots and A both from 2 - kappa, at large t.
    ref = u_laplace_mp(t, kappa)
    bound = _heavy_sphere_bound(kappa) * (1.0 - ref)
    assert abs(u_rest(t, kappa) - ref) <= bound
    assert abs(sphere_trajectory("closed-form", kappa, 0.0, t, t).values[-1] - ref) <= bound


def test_sphere_initial_state_is_exact_down_to_the_resolution_of_b():
    # Im alpha = sqrt((2 - b)(2 + b))/2 keeps the kappa^2 term that 4 - b*b drops.
    kappas = [1e-15, 1e-12, 1e-10, 1e-8, 1e-5, 0.5, 1.0, 2.0, 2.9, 3.5, 3.9]
    for kappa in np.logspace(math.log10(1.3e-16), math.log10(3.999), 4000).tolist() + kappas:
        assert abs(u_rest(0.0, kappa)) <= 1e-15, kappa
        assert abs(u_rest_derivative(0.0, kappa) - 1.0) <= 1e-15, kappa


def test_kappa_below_the_resolution_of_b_is_rejected_by_name():
    # 2 - 1e-17 rounds to 2, the double root.
    for fn in (lambda: u_rest(0.0, 1e-17), lambda: char_roots(1e-17),
               lambda: OscillatorProblem.sphere(1e-17, 0.0)):
        with pytest.raises(ValueError, match="kappa=1e-17"):
            fn()


_SPHERE_ENTRY_POINTS = {
    "u_rest": lambda kappa: u_rest(1.0, kappa),
    "u_rest_derivative": lambda kappa: u_rest_derivative(1.0, kappa),
    "_sphere_samples": lambda kappa: _sphere_samples(np.array([0.0, 1.0]), kappa, 0.3),
    "OscillatorProblem.sphere": lambda kappa: OscillatorProblem.sphere(kappa, 0.3),
    "imag_sqrt_alpha_villat": lambda kappa: imag_sqrt_alpha_villat(1.0, kappa),
}


@pytest.mark.parametrize("entry", sorted(_SPHERE_ENTRY_POINTS))
@pytest.mark.parametrize("kappa", [0.0, -1.0, 4.0, 4.5, 9.0, math.nan, math.inf, 1e-17])
def test_every_sphere_entry_point_rejects_kappa_outside_the_closed_form_domain(entry, kappa):
    # One domain, (0, 4), and one message for it, wherever the sphere enters.
    if kappa == 1e-17:
        message = r"^kappa=1e-17 is too small: b = 2 - kappa rounds to 2$"
    else:
        message = rf"^kappa must lie in \(0, 4\), got {re.escape(str(kappa))}$"
    with pytest.raises(ValueError, match=message):
        _SPHERE_ENTRY_POINTS[entry](kappa)


def test_sphere_map_of_a_column_is_the_scalar_map_per_row():
    kappa = np.array([[1e-10], [0.5], [2.0], [3.9]])
    (alpha, sqrt_alpha), A = _sphere(kappa, 0.3)
    assert alpha.shape == sqrt_alpha.shape == A.shape == (4, 1)
    for row, k in enumerate(kappa[:, 0].tolist()):
        (a, s), amp = _sphere(k, 0.3)
        assert (alpha[row, 0], sqrt_alpha[row, 0], A[row, 0]) == (a, s, amp)
        # The kappa route: sqrt(alpha) = (sqrt(kappa) + i sqrt(4 - kappa))/2, A = 0.7 sqrt(kappa).
        assert s == complex(math.sqrt(k), math.sqrt(4.0 - k)) / 2.0
        assert amp == (1.0 - 0.3) * math.sqrt(k)
        assert abs(a - complex(_roots_mp(k)[0])) <= 4e-16
    u, du = _sphere_samples(np.array([0.0, 1.0, 10.0]), kappa, 0.3)
    assert u.shape == du.shape == (4, 3)
    for row, k in enumerate(kappa[:, 0].tolist()):
        ref_u, ref_du = _sphere_samples(np.array([0.0, 1.0, 10.0]), k, 0.3)
        assert np.all(np.abs(u[row] - ref_u) <= ARRAY_ATOL)
        assert np.all(np.abs(du[row] - ref_du) <= ARRAY_ATOL)


@pytest.mark.parametrize("bad, message", [
    (4.5, r"^kappa must lie in \(0, 4\), got 4.5$"),
    (1e-17, r"^kappa=1e-17 is too small: b = 2 - kappa rounds to 2$"),
])
def test_sphere_map_of_a_column_names_the_first_bad_kappa(bad, message):
    with pytest.raises(ValueError, match=message):
        _sphere(np.array([[1.0], [bad], [2.0], [bad + 1.0]]))


@pytest.mark.parametrize("kappa, eps, at", [
    (3.9, -1.7e308, 3.9),
    (3.9, 1e308, 3.9),
    (1.0, math.nan, 1.0),
    (np.array([[1.0], [3.9], [3.999999]]), 1e308, 3.9),
])
def test_sphere_map_rejects_an_amplitude_outside_the_double_range(kappa, eps, at):
    # One message naming eps, not the oscillator's "A must be finite" for a flag never passed.
    message = (rf"^eps={re.escape(str(eps))} puts the amplitude \(1 - eps\) sqrt\(kappa\) "
               rf"outside the double range at kappa={at}$")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=message):
            _sphere(kappa, eps)
    assert np.all(np.isfinite(_sphere(kappa, -1e307)[1]))  # just inside the range


# ----------------------------------------------------------------------
# General initial velocity
# ----------------------------------------------------------------------

def test_eps_closed_form_at_eps_one_is_constant():
    u, du = _sphere_samples(np.array([0.0, 0.5, 3.0, 20.0]), 2.0, 1.0)
    assert np.all(u == 1.0) and np.all(du == 0.0)


def test_eps_closed_form_at_eps_zero_is_u_rest():
    times = [0.0, 0.7, 5.0]
    u, _ = _sphere_samples(np.array(times), 1.5, 0.0)
    assert np.all(np.abs(u - [u_rest(t, 1.5) for t in times]) <= ARRAY_ATOL)


def test_eps_closed_form_matches_the_ide_solver():
    traj = ide.solve_ide(2.0, 0.5, 1e-3, 10.0)
    ref, _ = _sphere_samples(traj.times, 2.0, 0.5)
    assert np.max(np.abs(traj.values - ref)) <= 1e-4


# ----------------------------------------------------------------------
# Monotone kernel
# ----------------------------------------------------------------------

def test_kernel_M_at_zero_equals_minus_inverse_root_sum():
    for b in (-1.5, -0.5, 0.0, 1.0):
        alpha = complex(-b / 2.0, math.sqrt(4.0 - b * b) / 2.0)
        expected = -1.0 / (cmath.sqrt(alpha) + cmath.sqrt(alpha.conjugate())).real
        assert abs(monotone_kernel_M(0.0, b) - expected) < 1e-14


@pytest.mark.parametrize("kappa", np.linspace(0.1, 3.9, 20).tolist())
def test_sphere_decoupling_identity(kappa):
    assert abs(math.sqrt(kappa) * monotone_kernel_M(0.0, 2.0 - kappa) + 1.0) <= 1e-12


def test_kernel_M_against_multiprecision():
    assert abs(monotone_kernel_M(1.0, -1.0) - M_1_NEG1) < 1e-14
    for t, b in ((0.3, -1.5), (5.0, 0.8), (40.0, -0.2)):
        assert abs(monotone_kernel_M(t, b) - kernel_M_mp(t, b)) < 1e-13


def test_kernel_M_increases_to_zero():
    ts = np.linspace(0.0, 60.0, 241)
    vals = [monotone_kernel_M(float(t), -1.0) for t in ts]
    assert all(v < 0.0 for v in vals)
    assert all(b > a for a, b in zip(vals, vals[1:]))
    # The monotone trajectory A M(t + t0) rises over a sweep of (b, A, t0).
    ts = np.linspace(0.0, 50.0, 101)
    for b in (-1.5, -1.0, -0.5, 0.5, 1.5):
        for A in (0.5, 1.0, 2.0):
            for t0 in (0.1, 1.0, 10.0):
                vals = monotone_kernel_samples(ts, b, A, t0)[0]
                assert np.max(vals[:-1] - vals[1:]) <= 1e-12, (b, A, t0)


def test_kernel_M_derivative_positive_and_matches_fd():
    for t in (0.25, 1.0, 8.0):
        d = _kernel_derivative(t, -1.0)
        assert d > 0.0
        h = FD_STEP * max(1.0, t)
        fd = (monotone_kernel_M(t + h, -1.0) - monotone_kernel_M(t - h, -1.0)) / (2.0 * h)
        assert abs(fd - d) <= 1e-6 * abs(d)


def test_kernel_M_derivative_finite_at_zero():
    # M'(0) = 1/(sqrt(alpha)+sqrt(beta)); in the sphere configuration
    # A*M'(0) = 1, matching u'(0) = 1.
    for kappa in (0.5, 2.0, 3.5):
        v = math.sqrt(kappa) * _kernel_derivative(0.0, 2.0 - kappa)
        assert abs(v - 1.0) < 1e-13


def test_bridge_between_formulations():
    # u(tau) - 1 = sqrt(kappa) M(tau) with b = 2 - kappa.
    for kappa in (0.5, 1.0, 2.5, 3.9):
        for tau in (0.0, 0.2, 1.0, 10.0, 200.0):
            lhs = u_rest(tau, kappa) - 1.0
            rhs = math.sqrt(kappa) * monotone_kernel_M(tau, 2.0 - kappa)
            assert abs(lhs - rhs) <= 1e-12


@given(
    st.floats(min_value=0.0, max_value=4.0, exclude_min=True, exclude_max=True),
    st.one_of(st.just(0.0), st.floats(min_value=1e-4, max_value=1e3)),
    st.floats(min_value=-1.0, max_value=1.0),
)
@settings(max_examples=300, deadline=None)
def test_sphere_kernel_form_matches_reference_forms(kappa, tau, eps):
    # u = 1 + (1 - eps) sqrt(kappa) M(tau; 2 - kappa) against the sphere's own forms.
    if 2.0 - kappa == 2.0:
        # b = 2 - kappa rounds to the double root; both forms reject it.
        with pytest.raises(ValueError):
            u_rest_reference(tau, kappa)
        with pytest.raises(ValueError):
            u_rest(tau, kappa)
        return
    u_ref = u_rest_reference(tau, kappa)
    du_ref = u_rest_derivative_reference(tau, kappa)
    assert abs(u_rest(tau, kappa) - u_ref) <= 1e-14
    du = u_rest_derivative(tau, kappa)
    assert abs(du - du_ref) <= 1e-14
    assert du > 0.0
    u, du = _sphere_samples(np.array([tau]), kappa, eps)
    assert abs(u[0] - ((1.0 - eps) * u_ref + eps)) <= ARRAY_ATOL
    assert abs(du[0] - (1.0 - eps) * du_ref) <= ARRAY_ATOL


def test_kernel_samples_match_scalar_kernel():
    times = np.linspace(0.0, 30.0, 61)
    for b, A, t0 in ((-1.0, 1.3, 1.0), (0.5, -2.0, 0.0), (1.9, 0.7, 3.5),
                     (2.0 - 3.95, math.sqrt(3.95), 0.0)):
        v, dv = monotone_kernel_samples(times, b, A, t0)
        for t, vi, dvi in zip(times.tolist(), v, dv):
            assert abs(vi - A * monotone_kernel_M(t + t0, b)) <= ARRAY_ATOL
            assert abs(dvi - A * _kernel_derivative(t + t0, b)) <= ARRAY_ATOL
    # A 0-d damping value is the float, bit for bit, at a time and on the grid.
    for t in (1.0, times):
        for got, want in zip(monotone_kernel_samples(t, np.array(0.5), 1.3, 1.0),
                             monotone_kernel_samples(t, 0.5, 1.3, 1.0)):
            assert type(got) is type(want) and np.array_equal(got, want)
    # A column of damping values broadcasts against the row of times.
    bs = np.array([[-1.0], [0.5], [1.9], [2.0 - 3.95]])
    amps = np.array([[1.3], [-2.0], [0.7], [math.sqrt(3.95)]])
    v, dv = monotone_kernel_samples(times, bs, amps, 0.5)
    assert v.shape == dv.shape == (4, len(times))
    for row, (b, A) in enumerate(zip(bs[:, 0].tolist(), amps[:, 0].tolist())):
        for col, t in enumerate(times.tolist()):
            assert abs(v[row, col] - A * monotone_kernel_M(t + 0.5, b)) <= ARRAY_ATOL
            assert abs(dv[row, col] - A * _kernel_derivative(t + 0.5, b)) <= ARRAY_ATOL


@pytest.mark.parametrize("shape", [(0,), (3, 5)])
def test_kernel_samples_keep_the_grid_shape(shape):
    times = np.full(shape, 2.0)
    v, dv = monotone_kernel_samples(times, 0.5, 1.0, 0.0)
    assert np.shape(v) == np.shape(dv) == shape
    assert np.all(np.abs(v - monotone_kernel_M(2.0, 0.5)) <= ARRAY_ATOL)


def test_kernel_samples_reject_a_negative_time():
    with pytest.raises(ValueError, match="t must be >= 0"):
        monotone_kernel_samples(np.array([0.0, 1.0, -0.5]), 0.5, 1.0, 0.0)
    # A NaN time fails the same check, named as the first bad element.
    with pytest.raises(ValueError, match="^t must be >= 0, got nan$"):
        monotone_kernel_samples(np.array([0.0, math.nan, -0.5]), 0.5, 1.0, 0.0)
    with pytest.raises(ValueError, match="^t must be >= 0, got nan$"):
        u_rest(math.nan, 1.0)
    with pytest.raises(ValueError, match=r"^t must be >= 0, got -1\.0$"):
        u_rest(-1.0, 2.0)


def _two_call_samples(times, b, A, t0):
    """(A M, A M') from the quotient over alpha - beta with two Villat calls: the kernel's reference."""
    t = np.add(times, t0)
    alpha = analytic._roots_from_damping(b)[0]
    beta = alpha.conjugate()
    va, vb = villat(alpha * t), villat(beta * t)
    sqrt = np.sqrt if isinstance(alpha, np.ndarray) else cmath.sqrt
    sa, sb = sqrt(alpha), sqrt(beta)
    m = (sb * va - sa * vb) / (alpha - beta)
    dm = (alpha * sb * va - beta * sa * vb) / (alpha - beta)
    assert np.all(m.imag == 0.0) and np.all(dm.imag == 0.0)
    return A * m.real, A * dm.real


def _quotient_tolerance(want, b):
    """4e-15 max(1, |want|) / Im alpha: both forms divide an O(1) rounding by Im alpha.

    Measured: 1.5e-15 / Im alpha at worst over 802 b (near +-2 included)
    by 801 t in arrays, 5.6e-16 / Im alpha over 40000 scalar points.
    """
    return 4e-15 * np.maximum(1.0, np.abs(want)) / analytic._roots_from_damping(b)[0].imag


_EDGE_DAMPING = [-2.0 + 1e-15, -1.999999, -1.0, -0.0, 0.0, 1e-300, 1.0, 1.999999, 2.0 - 1e-15]
_EDGE_TIMES = [0.0, 1e-300, 1e-200, 1e-100, 1e-12, 1e-6, 0.5, 1.0, 7.0, 40.0, 1e3, 1e6, 1e12,
               1e100, 1e200, 1e300]


@pytest.mark.parametrize("t0", [0.0, 1.0])
def test_kernel_quotient_matches_the_two_call_form(t0):
    # Measured here, relative to max(1, |M|): at most 2.3e-16 for |b| <= 1, 7.5e-14 at
    # b = 1.999999 (Im alpha = 1e-3), 1.5e-15 at b = 2 - 1e-15 (Im alpha = 3e-8) and
    # 1.2e-16 on the b -> -2 side; the bound is 4e-15 / Im alpha.
    column = np.array(_EDGE_DAMPING)[:, None]
    amps = np.linspace(-0.7, 1.0, len(_EDGE_DAMPING))[:, None]
    times = np.array(_EDGE_TIMES)
    for got, want in zip(monotone_kernel_samples(times, column, amps, t0),
                         _two_call_samples(times, column, amps, t0)):
        assert got.shape == want.shape == (len(_EDGE_DAMPING), len(_EDGE_TIMES))
        assert np.all(np.abs(got - want) <= _quotient_tolerance(want, column))
    for b, A in zip(_EDGE_DAMPING, amps[:, 0].tolist()):
        for t in _EDGE_TIMES:
            for got, want in zip(monotone_kernel_samples(t, b, A, t0),
                                 _two_call_samples(t, b, A, t0)):
                assert type(got) is float, (b, t)
                assert abs(got - want) <= _quotient_tolerance(want, b), (b, t)


@given(
    b=st.floats(-2.0, 2.0, exclude_min=True, exclude_max=True),
    t=st.just(0.0) | st.floats(1e-300, 1e300),
    t0=st.sampled_from([0.0, 1.0]),
)
@settings(max_examples=300, deadline=None)
def test_kernel_quotient_matches_the_two_call_form_everywhere(b, t, t0):
    for got, want in zip(monotone_kernel_samples(t, b, 1.0, t0), _two_call_samples(t, b, 1.0, t0)):
        assert abs(got - want) <= _quotient_tolerance(want, b)


@pytest.mark.parametrize("times, b", [
    (2.0, 0.5),
    (np.linspace(0.0, 9.0, 10), np.array([[0.5], [-1.0], [1.9]])),
], ids=["scalar", "array"])
def test_kernel_samples_call_faddeeva_once(monkeypatch, times, b):
    # Once through the Faddeeva kernel itself: its argument never needs the reflection.
    shapes, kernel = [], analytic._w_rational

    def counting(z):
        assert np.all(np.imag(z) >= 0.0)  # never reflected
        shapes.append(np.shape(z))
        return kernel(z)

    def refused(z):
        raise AssertionError("villat called")

    monkeypatch.setattr(analytic, "_w_rational", counting)
    monkeypatch.setattr(special, "villat", refused)
    assert not hasattr(analytic, "villat")
    monotone_kernel_samples(times, b, 1.0, 0.0)
    assert shapes == [np.broadcast_shapes(np.shape(times), np.shape(b))]


@pytest.mark.parametrize("b", [1.8, 2.0 - 1e-6])
@pytest.mark.parametrize("t", [5e-324, 1e-323])
def test_kernel_at_subnormal_times_is_its_start(b, t):
    # alpha t rounds onto the negative real axis here; i sqrt(alpha) sqrt(t) stays off any cut.
    for got, start in zip(monotone_kernel_samples(t, b, 1.0, 0.0),
                          monotone_kernel_samples(0.0, b, 1.0, 0.0)):
        assert math.isfinite(got)
        assert abs(got - start) <= 1e-15 * abs(start)


def test_kernel_derivative_bridges_to_u_rest_derivative():
    got = math.sqrt(2.0) * _kernel_derivative(1.0, 0.0)
    assert abs(got - u_rest_derivative(1.0, 2.0)) <= 1e-10


def test_array_roots_are_the_scalar_roots_bit_for_bit():
    # The broadcast kernel must see the same alpha (Im > 0) and sqrt(alpha) as a scalar call.
    b = np.concatenate((np.linspace(-1.999, 1.999, 401), [0.0, 2.0 - 1e-15, 2.0 - 3.95]))
    alpha, sqrt_alpha = analytic._roots_from_damping(b[:, None])
    assert alpha.shape == sqrt_alpha.shape == (len(b), 1)
    scalar = [analytic._roots_from_damping(x) for x in b.tolist()]
    assert all(isinstance(v, complex) and not isinstance(v, np.generic) for pair in scalar for v in pair)
    assert alpha[:, 0].tobytes() == np.array([a for a, _ in scalar]).tobytes()
    assert sqrt_alpha[:, 0].tobytes() == np.array([s for _, s in scalar]).tobytes()
    assert np.all(alpha.imag > 0.0) and np.all(sqrt_alpha.real > 0.0)
    # The principal root, built from real square roots only.
    assert np.all(np.abs(sqrt_alpha * sqrt_alpha - alpha) <= 4e-16)
    assert np.all(np.abs(sqrt_alpha - np.sqrt(alpha)) <= 4e-16)


def test_kernel_domain_errors():
    with pytest.raises(ValueError):
        monotone_kernel_M(1.0, 2.5)
    with pytest.raises(ValueError):
        _kernel_derivative(-0.1, 0.0)
    # An array of damping values is checked element by element.
    with pytest.raises(ValueError, match=r"damping coefficient must lie in \(-2, 2\), got 2\.0"):
        monotone_kernel_samples(np.ones(3), np.array([[0.5], [2.0], [-1.0]]), 1.0, 0.0)


@pytest.mark.parametrize("call", [
    lambda t: u_rest(t, 2.0),
    lambda t: u_rest_derivative(t, 2.0),
    lambda t: monotone_kernel_samples(t, -1.0, 1.0, 0.0),
    lambda t: monotone_kernel_samples(np.zeros_like(t), -1.0, 1.0, t),
], ids=["u_rest", "u_rest_derivative", "samples", "samples_t0"])
@pytest.mark.parametrize("t", [math.inf, np.array([0.0, 1.0, math.inf])], ids=["scalar", "array"])
def test_an_infinite_time_is_a_domain_error(call, t):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="^t must be finite, got inf$"):
            call(t)


# ----------------------------------------------------------------------
# Initial-condition maps
# ----------------------------------------------------------------------

def test_monotone_ic_rejects_a_negative_or_nan_t0():
    for bad in (-1.0, math.nan):
        with pytest.raises(ValueError, match=r"^t0 must be >= 0, got "):
            monotone_initial_conditions(-1.0, 1.0, bad)


def test_an_infinite_forcing_offset_is_a_domain_error():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for bad in (-1.0, math.nan):
            with pytest.raises(ValueError, match=r"^t0 must be >= 0, got "):
                monotone_initial_conditions(-1.0, 1.0, bad)
        with pytest.raises(ValueError, match="^t0 must be finite, got inf$"):
            monotone_initial_conditions(-1.0, 1.0, math.inf)


@pytest.mark.parametrize("kappa", np.linspace(0.1, 3.9, 20).tolist())
def test_monotone_ic_sphere_case_value_is_minus_one(kappa):
    ic = monotone_initial_conditions(2.0 - kappa, math.sqrt(kappa), 0.0)
    assert abs(ic.v0 + 1.0) <= 1e-12


def test_monotone_ic_scales_linearly_to_zero():
    for b, t0 in ((-1.0, 2.0), (-0.5, 1.0)):
        ic1 = monotone_initial_conditions(b, 1.0, t0)
        for A in (0.5, 2.0):
            ic = monotone_initial_conditions(b, A, t0)
            assert (ic.v0, ic.v0_prime) == (A * ic1.v0, A * ic1.v0_prime), (b, t0, A)
        ic0 = monotone_initial_conditions(b, 0.0, t0)
        assert ic0.v0 == 0.0 and ic0.v0_prime == 0.0


def test_monotone_ic_map_linear_in_amplitude():
    ic1 = monotone_initial_conditions(-0.5, 2.0, 1.0)
    ic2 = monotone_initial_conditions(-0.5, 1.0, 1.0)
    assert ic1.v0 == 2.0 * ic2.v0
    assert ic1.v0_prime == 2.0 * ic2.v0_prime


def test_monotone_ic_zeroes_homogeneous_modes_against_kernel():
    # A homogeneous mode C e^{alpha t} left over grows like e^{t/2} at b = -1;
    # at t = 40 any |C| > 1e-10 would show.
    b, A, t0, t = -1.0, 1.0, 1.0, 40.0
    ic = monotone_initial_conditions(b, A, t0)
    traj = solve_oscillator(OscillatorProblem(b=b, A=A, t0=t0, v0=ic.v0, v0_prime=ic.v0_prime),
                            1e-3, t)
    v, dv = traj.values[-1], traj.derivatives[-1]
    growth = math.exp(0.5 * t)
    assert abs(v - A * monotone_kernel_M(t + t0, b)) <= 1e-10 * growth
    assert abs(dv - A * _kernel_derivative(t + t0, b)) <= 1e-10 * growth
