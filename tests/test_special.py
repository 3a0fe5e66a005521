"""Tests for the complex error function family."""

import cmath
import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from spherefall import special
from spherefall.special import (
    AccuracyError,
    faddeeva,
    faddeeva_im_quadrature,
    faddeeva_re_quadrature,
    naive_villat,
    villat,
    villat_asymptotic,
)

from mp_oracle import erfc_taylor, faddeeva_mp, villat_mp

SQRT_PI = math.sqrt(math.pi)

# e * erfc(1), 50-digit oracle (mp_oracle.py)
RE_W_0_1 = 0.42758357615580700441
# Vi(10^4) on the real axis, 50-digit oracle
VILLAT_1E4 = 0.0056416137829894329036


def _scalar_map(f, z: np.ndarray) -> np.ndarray:
    values = [f(complex(v)) for v in z.ravel().tolist()]
    return np.array(values, dtype=complex).reshape(z.shape)


def test_faddeeva_at_zero_is_one():
    assert faddeeva(0.0) == 1.0 + 0.0j


def test_array_faddeeva_at_zero_is_two_ulps_above_one():
    # The array kernel takes Z = 2L inv - 1 from the rounded inv = 1/L and sums the polynomial
    # in blocks; the scalar one runs Horner's rule, whose constant makes w(0) = 1 exactly.
    w = faddeeva(np.zeros(3, complex))
    assert np.all(w == 1.0 + 2.0**-51)


# Points on the closed upper half plane, |z| log-uniform over [1e-3, 1e4], three chunks
# of the array kernel long, and the value of each computed alone in a 1-element array.
_CHUNK = special._W_CHUNK
_RNG = np.random.default_rng(42)
_POOL = 10.0 ** _RNG.uniform(-3.0, 4.0, 3 * _CHUNK)
_POOL = _POOL * np.exp(1j * _RNG.uniform(0.0, math.pi, 3 * _CHUNK))
_ALONE = np.array([faddeeva(_POOL[i : i + 1])[0] for i in range(len(_POOL))])


@settings(max_examples=40, deadline=None)
@given(length=st.sampled_from([1, 2, 3, _CHUNK - 1, _CHUNK, _CHUNK + 1, 2 * _CHUNK - 1,
                                2 * _CHUNK, 2 * _CHUNK + 1]) | st.integers(1, 2 * _CHUNK + 8),
       offset=st.integers(0, _CHUNK + 8))
def test_array_faddeeva_of_an_element_does_not_depend_on_its_place(length, offset):
    # The kernel runs in chunks of _W_CHUNK points through one matrix product each, and
    # no step of it writes in place: every element has the bits it has alone.
    got = faddeeva(_POOL[offset : offset + length])
    assert got.tobytes() == _ALONE[offset : offset + length].tobytes()


@pytest.mark.parametrize("shape", [(), (0,), (2, 0)])
def test_array_faddeeva_keeps_an_empty_or_0d_shape(shape):
    z = np.full(shape, 0.5 + 0.25j)
    for f in (faddeeva, villat):
        w = f(z)
        assert isinstance(w, np.ndarray) and w.shape == shape and w.dtype == complex
    if shape == ():
        assert abs(faddeeva(z) - faddeeva_mp(0.5 + 0.25j)) <= 1e-15


def test_array_kernel_memory_stays_flat():
    # One (8, _W_CHUNK) power table, filled in place, and a few chunk-long temporaries live
    # at a time: the kernel's peak stays within 1.9 MB of the array it returns (1.64 MB
    # here; 2.16 with the powers formed out of place and stacked), where one table for all
    # 2e5 points would take 25.6 MB.  faddeeva copies no input above the real axis, so its
    # peak stays within 1.25 times the kernel's (1.04 here; 2.4 with the copies).
    z = _POOL[:1000].repeat(200)
    special._w_blocks(z[:10])
    peaks = []
    for f in (special._w_blocks, faddeeva):
        tracemalloc.start()
        try:
            w = f(z)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[0] <= w.nbytes + 1.9e6
    assert peaks[1] <= 1.25 * peaks[0]


def test_faddeeva_matches_quadrature_oracles_at_sample_point():
    w = faddeeva(complex(-0.5, 0.8))
    assert abs(w.real - faddeeva_re_quadrature(-0.5, 0.8)) < 1e-10
    assert abs(w.imag - faddeeva_im_quadrature(-0.5, 0.8)) < 1e-10


@pytest.mark.parametrize("x, y", [(0.0, 1e-6), (2.0, 1e-5), (-3.0, 1e-7),
                                  (np.array([[0.0], [2.0], [-3.0]]), np.array([1e-7, 1e-5, 1.0]))])
def test_quadrature_oracles_resolve_a_narrow_peak(x, y):
    w = faddeeva(x + 1j * y)
    assert np.all(np.abs(w.real - faddeeva_re_quadrature(x, y)) <= 1e-10)
    assert np.all(np.abs(w.imag - faddeeva_im_quadrature(x, y)) <= 1e-10)


@pytest.mark.parametrize("quadrature, part", [(faddeeva_re_quadrature, "real"),
                                              (faddeeva_im_quadrature, "imag")])
def test_quadrature_oracles_resolve_a_peak_at_y_1e_10(quadrature, part):
    ref = getattr(faddeeva_mp(complex(2.0, 1e-10)), part)
    assert abs(quadrature(2.0, 1e-10) - ref) <= 1e-10


def test_quadrature_oracles_resolve_narrow_peaks_on_a_seeded_sweep():
    # Nodes placed by their offset from the peak stay exact however narrow it is.
    rng = np.random.default_rng(20261018)
    xs = rng.uniform(-6.0, 6.0, 300)
    ys = 10.0 ** rng.uniform(-11.0, -5.0, 300)
    for x, y in zip(xs.tolist(), ys.tolist()):
        ref = faddeeva_mp(complex(x, y))
        assert abs(faddeeva_re_quadrature(x, y) - ref.real) <= 1e-10, (x, y)
        assert abs(faddeeva_im_quadrature(x, y) - ref.imag) <= 1e-10, (x, y)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("quadrature", [faddeeva_re_quadrature, faddeeva_im_quadrature])
@pytest.mark.parametrize("y", [1e-200, np.array([[1.0, 1e-200], [1e-210, 0.5]])])
def test_quadrature_oracles_raise_where_the_peak_is_unresolved(quadrature, y):
    # At y = 1e-200, y * y underflows and a node lands on the peak: the
    # integrand is y/0 or 0/0 there, and an infinite or NaN estimate raises too.
    # An array raises when any element does, and names the first of them.
    with pytest.raises(AccuracyError, match=r"did not converge .* at x=2\.0, y=1e-200$"):
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
    for phi in np.linspace(0.0, math.pi, 9):
        z = r * cmath.exp(1j * phi)
        z = complex(z.real, abs(z.imag))
        ref = faddeeva_mp(z)
        assert abs(faddeeva(z) - ref) <= 1e-14 * abs(ref)


def test_faddeeva_vs_multiprecision_on_a_log_uniform_sweep():
    # |z| log-uniform over [1e-12, 1e7] on the closed upper half plane, both
    # axes included; the worst seen is 1.6e-15.
    rng = np.random.default_rng(20261019)
    r = 10.0 ** rng.uniform(-12.0, 7.0, 3000)
    phi = rng.uniform(0.0, math.pi, 2700)
    z = np.concatenate([r[:2700] * np.exp(1j * phi), r[2700:2800], -r[2800:2900], 1j * r[2900:]])
    z = z.real + 1j * np.abs(z.imag)
    ref = np.array([faddeeva_mp(v) for v in z.tolist()])
    for got in (faddeeva(z), _scalar_map(faddeeva, z)):
        assert np.all(np.abs(got - ref) <= 1e-14 * np.abs(ref))


@pytest.mark.parametrize("r", [1e150, 1e155, 1e200, 1e250, 1e300])
def test_faddeeva_is_finite_far_off_the_axes(r):
    # w(z) ~ i/(sqrt(pi) z) there, and the square of the kernel's
    # denominator L - iz overflows past |z| of about 1e154.
    z = r * np.exp(1j * np.linspace(0.1, math.pi - 0.1, 7))
    asym = 1j / (SQRT_PI * z)
    for got in (faddeeva(z), _scalar_map(faddeeva, z)):
        assert np.all(np.abs(got - asym) <= 1e-15 * np.abs(asym))


def test_faddeeva_reflection_into_lower_half_plane():
    for z in (1.0 - 0.5j, -2.5 - 1.0j, 4.0 - 2.0j, 0.3 - 3.0j):
        ref = faddeeva_mp(z)
        assert abs(faddeeva(z) - ref) <= 1e-14 * abs(ref)


def test_faddeeva_rejects_nonfinite():
    with pytest.raises(ValueError):
        faddeeva(complex(math.nan, 0.0))
    with pytest.raises(ValueError):
        faddeeva(complex(1.0, math.inf))


# ----------------------------------------------------------------------
# Array arguments
# ----------------------------------------------------------------------

# Array and scalar calls agree to this relative tolerance, not bit for bit:
# numpy's complex arithmetic rounds differently from CPython's in the last
# bits (worst seen 1.0e-15 on the closed upper half plane).
ARRAY_RTOL = 1e-14
# Below the real axis both add 2 exp(-z^2), and numpy's exp and CPython's
# differ by up to 2.9e-14 of it where |Im z^2| is in the hundreds.
REFLECTION_RTOL = 5e-13


_ON_THE_AXES = [complex(r * c, r * s) for r in (2.0, 8.0) for c, s in ((1, 0), (0, 1), (-1, 0), (0, -1))]
_points = st.one_of(
    st.sampled_from(_ON_THE_AXES),
    st.builds(lambda r, phi: complex(r * math.cos(phi), r * math.sin(phi)),
              st.one_of(st.floats(0.0, 30.0), st.sampled_from([2.0, 8.0])),
              st.floats(-math.pi, math.pi)),
).filter(lambda z: z.imag >= -20.0)  # exp(-z^2) stays finite below the real axis


@given(st.lists(_points, min_size=1, max_size=40))
@settings(max_examples=150, deadline=None)
def test_array_faddeeva_matches_scalar_elementwise(zs):
    z = np.array(zs, dtype=complex)
    got = faddeeva(z)
    ref = _scalar_map(faddeeva, z)
    # The reflection term, evaluated only below the real axis, where the filter keeps it finite.
    below = z.imag < 0.0
    reflected = np.zeros(z.shape)
    reflected[below] = np.abs(2.0 * np.exp(-z[below] * z[below]))
    assert np.all(np.abs(got - ref) <= ARRAY_RTOL * np.abs(ref) + REFLECTION_RTOL * reflected)


@pytest.mark.parametrize("shape", [(), (7,), (3, 4), (0,), (2, 0)])
def test_array_faddeeva_and_villat_keep_the_shape(shape):
    rng = np.random.default_rng(8)
    z = np.asarray(rng.uniform(-12.0, 12.0, shape) + 1j * rng.uniform(0.0, 12.0, shape))
    for f in (faddeeva, villat):
        got = f(z)
        assert isinstance(got, np.ndarray) and got.shape == shape and got.dtype == complex
        ref = _scalar_map(f, z)
        assert np.all(np.abs(got - ref) <= ARRAY_RTOL * np.abs(ref))


@pytest.mark.parametrize("bad", [math.nan, math.inf, complex(0.5, -math.inf)])
def test_array_with_one_nonfinite_element_raises(bad):
    z = np.array([0.5 + 0.5j, bad, 3.0j])
    for f in (faddeeva, villat):
        with pytest.raises(ValueError, match="must be finite"):
            f(z)


# Points -x of the negative real axis: each decade from 1e-300 to 1e4, and a few between.
_ON_THE_CUT = [10.0**k for k in range(-300, 5)] + [0.3, 2.5, 7.0, 55.0, 700.0]


def test_villat_on_the_cut_takes_the_side_of_the_imaginary_zero():
    # As cmath.sqrt and np.sqrt do (Kahan 1987): -x + 0j is the upper side, mpmath's
    # principal value, and -x - 0j the lower side, its conjugate.
    for x in _ON_THE_CUT:
        upper = villat_mp(-x)
        for z, ref in ((complex(-x, 0.0), upper), (complex(-x, -0.0), upper.conjugate())):
            got = villat(z)
            assert abs(got - ref) <= 1e-15 * abs(ref), (z, got, ref)


def test_villat_array_on_the_cut_is_the_scalar_value():
    z = np.array([[complex(-x, 0.0), complex(-x, -0.0)] for x in _ON_THE_CUT])
    got = villat(z)
    ref = _scalar_map(villat, z)
    assert np.all(np.abs(got - ref) <= ARRAY_RTOL * np.abs(ref))
    assert np.all(got[:, 1] == got[:, 0].conj())


def test_array_faddeeva_overflow_below_the_real_axis_raises_like_the_scalar():
    with pytest.raises(OverflowError):
        faddeeva(-30.0j)
    with pytest.raises(OverflowError):
        faddeeva(np.array([1.0j, -30.0j]))


# The positive real axis, the imaginary axis, and points just above and below the cut.
_AROUND_THE_CUT = [0.0, 1e-300, 0.5, 7.0, 1e4, 1e300, 3j, -3j, 1e-8j, -2.5e6j, -4.0 + 1e-300j,
                   -4.0 - 1e-300j, -4.0 + 1e-12j, -1e10 - 1e-6j, 2.0 + 1.5j, -0.3 - 40j]


def _bits(w) -> bytes:
    return np.asarray(w, dtype=complex).tobytes()


def test_villat_is_faddeeva_at_i_sqrt_z_bit_for_bit():
    z = np.array(_AROUND_THE_CUT)
    for v in z.tolist():
        assert _bits(villat(v)) == _bits(faddeeva(1j * cmath.sqrt(v)))
        zero_d = np.array(v)
        got = villat(zero_d)
        assert isinstance(got, np.ndarray) and got.shape == ()
        assert _bits(got) == _bits(faddeeva(np.asarray(1j * np.sqrt(zero_d))))
    grid = z.reshape(4, 4)
    assert _bits(villat(grid)) == _bits(faddeeva(1j * np.sqrt(grid)))


@pytest.mark.parametrize("z", [0.5 - 0.5j, -3.0 - 1e-300j, 2.0 - 4.0j, complex(-0.0, -7.5),
                               12.0 - 1e-3j, -1.5 - 2.5j])
def test_scalar_faddeeva_below_the_axis_is_the_array_reflection(z):
    w = faddeeva(z)
    assert type(w) is complex
    assert _bits(w) == _bits(faddeeva(np.array(z)))
    assert abs(w - faddeeva_mp(z)) <= 1e-14 * abs(faddeeva_mp(z))


def test_scalar_faddeeva_overflow_below_the_axis_names_z():
    with pytest.raises(OverflowError, match=re.escape("exp(-z^2) overflows at z=(1-30j)")):
        faddeeva(complex(1.0, -30.0))


def test_villat_at_zero_is_one():
    assert villat(0.0) == 1.0 + 0.0j


@given(
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
    st.floats(min_value=1e-12, max_value=1e6, allow_nan=False),
)
@example(re=-2522.5, im=1e-12)  # Re Vi cancels to a zero whose sign the scalar kernel's side set
@settings(max_examples=80, deadline=None)
def test_villat_conjugate_symmetry(re, im):
    # Bit for bit off the real axis, scalar and array: the closed form takes Vi(beta t) as
    # conj(Vi(alpha t)).  (On the real axis Vi is real and its imaginary zero is +0 either way.)
    z = complex(re, im)
    assert _bits(villat(z.conjugate())) == _bits(villat(z).conjugate())
    zs = np.array([z, z / 3.0, z * 1e-6, z * 1e300])
    assert _bits(villat(zs.conj())) == _bits(villat(zs).conj())


def test_naive_villat_on_the_cut_takes_the_same_side():
    for x in (0.3, 2.5, 7.0):
        for z in (complex(-x, 0.0), complex(-x, -0.0)):
            assert abs(naive_villat(z) - villat(z)) <= 1e-14 * abs(villat(z))


def test_villat_matches_multiprecision_on_rays():
    for t in (0.3, 2.0, 50.0, 1e4):
        for theta in (0.2, 1.0, 2.0, 2.8):
            z = t * cmath.exp(1j * theta)
            ref = villat_mp(z)
            assert abs(villat(z) - ref) <= 1e-14 * abs(ref)


def test_villat_bounded_on_large_ray_where_naive_fails():
    z = 1e4 * cmath.exp(2j * math.pi / 3.0)
    v = villat(z)
    assert abs(v) < 1.0
    assert abs(v - villat_mp(z)) <= 1e-14 * abs(villat_mp(z))
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
    with pytest.raises(ValueError, match="^villat_asymptotic: m_max must be >= 0$"):
        villat_asymptotic(10.0, -1)


def test_asymptotic_rejects_arg_boundary():
    with pytest.raises(AccuracyError):
        villat_asymptotic(50.0 * cmath.exp(0.75j * math.pi), 2)
    # Just inside the sector it works.
    inside = villat_asymptotic(50.0 * cmath.exp(0.7j * math.pi), 2)
    assert abs(inside.value - villat(50.0 * cmath.exp(0.7j * math.pi))) < 1e-3


def test_array_asymptotic_equals_the_scalar_calls():
    z = np.array([[1e3, 1e4 * cmath.exp(0.5j), 60.0 * cmath.exp(-1.0j)],
                  [2e5 * cmath.exp(-2.0j), 40.0 * cmath.exp(2.3j), 1e8 * 1j]])
    for m_max in (0, 3, 5):
        got = villat_asymptotic(z, m_max)
        assert got.value.shape == got.error_estimate.shape == z.shape
        for index in np.ndindex(z.shape):
            ref = villat_asymptotic(complex(z[index]), m_max)
            assert abs(got.value[index] - ref.value) <= 1e-15 * abs(ref.value)
            assert abs(got.error_estimate[index] - ref.error_estimate) <= 1e-15 * ref.error_estimate


@pytest.mark.parametrize("z", [6e307, 1e308 + 1e308j])
def test_asymptotic_near_the_largest_double_matches_villat_without_warnings(z):
    # pi z and 2 z overflow here; the expansion is formed without either.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ref = villat(z)
        scalar = villat_asymptotic(z, 5)
        array = villat_asymptotic(np.array([z, 100.0]), 5)
    assert abs(ref) > 1e-155
    assert abs(scalar.value - ref) <= 2e-16 * abs(ref)
    assert abs(array.value[0] - ref) <= 2e-16 * abs(ref)
    assert scalar.error_estimate == array.error_estimate[0] == 0.0  # underflows: ~1e-1800
    assert abs(array.value[1] - villat_asymptotic(100.0, 5).value) <= 1e-15 * abs(array.value[1])


@pytest.mark.parametrize("z, m_max, error, message", [
    (np.array([1e3, 0.0, 0j]), 2, ValueError, r"z must be nonzero, got 0j$"),
    (np.array([[100.0, -100.0 + 1.0j], [-50.0, 7.0]]), 2, AccuracyError,
     r"\|arg z\| >= 3\*pi/4, got z=\(-100\+1j\)$"),
    (np.array([100.0, 3.0, 2.0]), 5, AccuracyError,
     r"divergent regime \(m_max=5, \|z\|=3\)$"),
], ids=["zero", "sector", "divergent"])
def test_array_asymptotic_names_the_first_bad_element(z, m_max, error, message):
    with pytest.raises(error, match=message):
        villat_asymptotic(z, m_max)


@pytest.mark.parametrize("x", [1e200, -1e200, 1e308, -1e308])
def test_quadrature_oracles_far_outside_the_window_are_zero_without_warnings(x):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert faddeeva_re_quadrature(x, 1.0) == 0.0
        assert faddeeva_im_quadrature(x, 1.0) == 0.0


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


def test_gauss_legendre_constants_are_numpys_rule():
    # Written out so that no import loads numpy.polynomial; another numpy may round
    # leggauss(32) differently in the last bit.
    nodes, weights = np.polynomial.legendre.leggauss(32)
    assert np.all(np.abs(special._GL_NODES - nodes) <= 4 * np.spacing(np.abs(nodes)))
    assert np.all(np.abs(special._GL_WEIGHTS - weights) <= 4 * np.spacing(weights))


def test_quadrature_im_part_odd_symmetry_at_x_zero():
    assert abs(faddeeva_im_quadrature(0.0, 1.3)) < 1e-12


def test_quadrature_re_part_against_frozen_value():
    assert abs(faddeeva_re_quadrature(0.0, 1.0) - RE_W_0_1) < 1e-11


def test_quadrature_rejects_nonpositive_y():
    with pytest.raises(ValueError):
        faddeeva_re_quadrature(0.0, 0.0)
    with pytest.raises(ValueError):
        faddeeva_im_quadrature(1.0, -0.5)
    # An array names its first element outside the domain.
    with pytest.raises(ValueError, match=r"^faddeeva_re_quadrature: requires y > 0, got -0\.5$"):
        faddeeva_re_quadrature(np.array([0.0, 1.0]), np.array([[1.0], [-0.5], [0.0]]))
    with pytest.raises(ValueError, match=r"^faddeeva_im_quadrature: arguments must be finite, "
                                         r"got x=inf, y=1\.0$"):
        faddeeva_im_quadrature(np.array([0.0, np.inf, np.nan]), 1.0)


def test_multiprecision_oracle_self_consistency():
    # mpmath's erfc against the independent 50-digit Taylor route.
    for z in (0.5, 2.0 + 1.0j, -1.0 + 3.0j, 5.0):
        a = erfc_taylor(z)
        import mpmath

        b = mpmath.erfc(mpmath.mpc(z))
        assert abs(a - b) < mpmath.mpf(10) ** -45
