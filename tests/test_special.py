"""Tests for the complex error function family."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from spherefall.special import (
    AccuracyError,
    faddeeva,
    faddeeva_im_quadrature,
    faddeeva_re_quadrature,
    naive_villat,
    villat,
    villat_asymptotic,
)

from mp_oracle import erfc_taylor, faddeeva_mp, villat_abs_mp, villat_mp

SQRT_PI = math.sqrt(math.pi)

# e * erfc(1), 50-digit oracle (mp_oracle.py)
RE_W_0_1 = 0.42758357615580700441
# Vi(10^4) on the real axis, 50-digit oracle
VILLAT_1E4 = 0.0056416137829894329036


def test_faddeeva_at_zero_is_one():
    assert faddeeva(0.0) == 1.0 + 0.0j


def test_faddeeva_matches_quadrature_oracles_at_sample_point():
    w = faddeeva(complex(-0.5, 0.8))
    assert abs(w.real - faddeeva_re_quadrature(-0.5, 0.8)) < 1e-10
    assert abs(w.imag - faddeeva_im_quadrature(-0.5, 0.8)) < 1e-10


def test_faddeeva_vs_quadrature_oracles_on_grid():
    for x in np.linspace(-2.0, 2.0, 5):
        for y in np.linspace(0.4, 2.0, 5):
            w = faddeeva(complex(x, y))
            assert abs(w.real - faddeeva_re_quadrature(float(x), float(y))) < 1e-10
            assert abs(w.imag - faddeeva_im_quadrature(float(x), float(y))) < 1e-10


@pytest.mark.parametrize("x, y", [(0.0, 1e-6), (2.0, 1e-5), (-3.0, 1e-7)])
def test_quadrature_oracles_resolve_a_narrow_peak(x, y):
    w = faddeeva(complex(x, y))
    assert abs(w.real - faddeeva_re_quadrature(x, y)) <= 1e-10
    assert abs(w.imag - faddeeva_im_quadrature(x, y)) <= 1e-10


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("quadrature", [faddeeva_re_quadrature, faddeeva_im_quadrature])
@pytest.mark.parametrize("y", [1e-10, 1e-200])
def test_quadrature_oracles_raise_where_the_peak_is_unresolved(quadrature, y):
    # At y = 1e-200, y * y underflows and a node lands on the peak: the
    # integrand is y/0 or 0/0 there, and an infinite or NaN estimate raises too.
    with pytest.raises(AccuracyError):
        quadrature(2.0, y)


def test_faddeeva_on_imaginary_axis_real_positive_decreasing():
    ys = np.linspace(0.1, 6.0, 25)
    vals = []
    for y in ys:
        w = faddeeva(complex(0.0, y))
        assert abs(w.imag) < 1e-15
        assert w.real > 0.0
        vals.append(w.real)
    assert all(a > b for a, b in zip(vals, vals[1:]))


@pytest.mark.parametrize("r", [0.05, 0.5, 1.9, 2.1, 5.0, 7.9, 8.1, 30.0, 1e3, 1e6])
def test_faddeeva_vs_multiprecision_upper_half_plane(r):
    # Covers all three evaluation regions, including the seams.
    for phi in np.linspace(0.0, math.pi, 9):
        z = r * cmath.exp(1j * phi)
        z = complex(z.real, abs(z.imag))
        ref = faddeeva_mp(z)
        assert abs(faddeeva(z) - ref) <= 1e-12 * abs(ref)


def test_faddeeva_reflection_into_lower_half_plane():
    for z in (1.0 - 0.5j, -2.5 - 1.0j, 4.0 - 2.0j, 0.3 - 3.0j):
        ref = faddeeva_mp(z)
        assert abs(faddeeva(z) - ref) <= 1e-12 * abs(ref)


def test_faddeeva_rejects_nonfinite():
    with pytest.raises(ValueError):
        faddeeva(complex(math.nan, 0.0))
    with pytest.raises(ValueError):
        faddeeva(complex(1.0, math.inf))


def test_villat_at_zero_is_one():
    assert villat(0.0) == 1.0 + 0.0j


@given(
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
    st.floats(min_value=1e-12, max_value=1e6, allow_nan=False),
)
@settings(max_examples=80, deadline=None)
def test_villat_conjugate_symmetry(re, im):
    z = complex(re, im)
    assert villat(z.conjugate()) == villat(z).conjugate()


def test_villat_rejects_branch_cut():
    with pytest.raises(ValueError):
        villat(-3.0)


def test_villat_matches_multiprecision_on_rays():
    for t in (0.3, 2.0, 50.0, 1e4):
        for theta in (0.2, 1.0, 2.0, 2.8):
            z = t * cmath.exp(1j * theta)
            ref = villat_mp(z)
            assert abs(villat(z) - ref) <= 1e-12 * abs(ref)


def test_villat_bounded_on_large_ray_where_naive_fails():
    z = 1e4 * cmath.exp(2j * math.pi / 3.0)
    v = villat(z)
    assert abs(v) < 1.0
    assert abs(v - villat_mp(z)) <= 1e-12 * abs(villat_mp(z))
    with pytest.raises(OverflowError):
        naive_villat(z)


def test_villat_boundedness_envelope():
    # |Vi(e^{i theta} t)| <= 1 + 1/sqrt(pi t |cos(theta/2)|) on the
    # evaluation rays of the solution formula.
    for t in np.logspace(-3, 6, 10):
        for theta in np.linspace(0.1, math.pi - 0.1, 9):
            z = t * cmath.exp(1j * theta)
            bound = 1.0 + 1.0 / math.sqrt(math.pi * t * abs(math.cos(theta / 2.0)))
            assert abs(villat(z)) <= bound


def test_villat_derivative_identity_finite_differences():
    # d/dz Vi = Vi - 1/sqrt(pi z); central step at the cube root of eps.
    for z in (0.7, 4.0 + 1.5j, 25.0 + 40.0j, 2.0 - 3.0j, 100.0):
        z = complex(z)
        h = 2.2e-16 ** (1.0 / 3.0) * max(1.0, abs(z))
        fd = (villat(z + h) - villat(z - h)) / (2.0 * h)
        exact = villat(z) - 1.0 / cmath.sqrt(math.pi * z)
        assert abs(fd - exact) <= 1e-6 * abs(exact)


def test_asymptotic_leading_order_at_1e4():
    lead = villat_asymptotic(1e4, 0)
    assert abs(lead.value - 1.0 / (100.0 * SQRT_PI)) < 1e-15
    refined = villat_asymptotic(1e4, 3)
    assert abs(refined.value - VILLAT_1E4) <= 1e-6 * VILLAT_1E4
    assert abs(refined.value - villat(1e4)) <= 1e-6 * abs(villat(1e4))


def test_asymptotic_error_estimate_is_honest():
    approx = villat_asymptotic(100.0, 0)
    assert abs(villat(100.0) - approx.value) <= approx.error_estimate


def test_asymptotic_rejects_divergent_truncation():
    with pytest.raises(AccuracyError):
        villat_asymptotic(3.0, 10)


def test_asymptotic_rejects_arg_boundary():
    with pytest.raises(AccuracyError):
        villat_asymptotic(50.0 * cmath.exp(0.75j * math.pi), 2)
    # Just inside the sector it works.
    inside = villat_asymptotic(50.0 * cmath.exp(0.7j * math.pi), 2)
    assert abs(inside.value - villat(50.0 * cmath.exp(0.7j * math.pi))) < 1e-3


def test_naive_villat_agrees_in_benign_regime():
    v = naive_villat(0.1)
    ref = villat(0.1)
    assert abs(v - ref) <= 1e-10 * abs(ref)


def test_naive_villat_loses_digits_on_moderate_ray():
    z = 400.0 * cmath.exp(1j * math.pi / 3.0)
    stable = villat(z)
    try:
        rel = abs(naive_villat(z) - stable) / abs(stable)
    except OverflowError:
        rel = math.inf
    assert rel > 1e-3


def test_naive_villat_overflow_reported():
    with pytest.raises(OverflowError):
        naive_villat(800.0)


def test_quadrature_im_part_odd_symmetry_at_x_zero():
    assert abs(faddeeva_im_quadrature(0.0, 1.3)) < 1e-12


def test_quadrature_re_part_against_frozen_value():
    assert abs(faddeeva_re_quadrature(0.0, 1.0) - RE_W_0_1) < 1e-11


def test_quadrature_rejects_nonpositive_y():
    with pytest.raises(ValueError):
        faddeeva_re_quadrature(0.0, 0.0)
    with pytest.raises(ValueError):
        faddeeva_im_quadrature(1.0, -0.5)


def test_multiprecision_oracle_self_consistency():
    # mpmath's erfc against the independent 50-digit Taylor route.
    for z in (0.5, 2.0 + 1.0j, -1.0 + 3.0j, 5.0):
        a = erfc_taylor(z)
        import mpmath

        b = mpmath.erfc(mpmath.mpc(z))
        assert abs(a - b) < mpmath.mpf(10) ** -45
