"""Cancellation-safe evaluation of the complex error function family.

The central object is the Villat function Vi(z) = exp(z) * erfc(sqrt(z)),
the combination in which exponential growth and error-function decay
cancel.  Forming the product literally in double precision loses all
significant digits once Re z is moderately large, and overflows soon
after; ``naive_villat`` keeps that textbook evaluation around as the
unstable reference.  The stable route goes through the Faddeeva (plasma
dispersion) function w(z) = exp(-z^2) erfc(-iz) via the identity

    Vi(z) = w(i * sqrt(z)),

which, with the principal square root, always lands in the closed upper
half plane where w is bounded by 1.

``faddeeva`` is a region-split scheme:

* |z| <= 2      -- Maclaurin-type series
                   w(z) = exp(-z^2) + (2iz/sqrt(pi)) * sum_m (-2z^2)^m / (2m+1)!!
* 2 < |z| <= 8  -- Weideman's rational approximation (48 terms, coefficients
                   precomputed once from an FFT of the sampled Gaussian)
* |z| > 8       -- Laplace continued fraction, fixed depth 14, evaluated
                   backward

Each region was tuned against a 50-digit reference so that the relative
error (in modulus) stays below ~1e-13 on the closed upper half plane;
the lower half plane is reached through the reflection
w(z) = 2 exp(-z^2) - conj(w(conj(z))).  The two integral-representation
quadratures are independent oracles used by the verification suite to
referee the fast path: 32-point Gauss-Legendre panels graded
geometrically away from the Lorentzian peak, whose error estimate (the
change when every panel is split in two) raises AccuracyError when it
is too large.
"""

from __future__ import annotations

import cmath
import math
from typing import NamedTuple

import numpy as np

__all__ = [
    "AccuracyError",
    "AsymptoticValue",
    "faddeeva",
    "villat",
    "villat_asymptotic",
    "faddeeva_re_quadrature",
    "faddeeva_im_quadrature",
    "naive_villat",
]

SQRT_PI = math.sqrt(math.pi)

_SERIES_RADIUS = 2.0
_RATIONAL_RADIUS = 8.0
_CF_DEPTH = 14
_WEIDEMAN_TERMS = 48


class AccuracyError(ArithmeticError):
    """The requested accuracy cannot be achieved for the given input."""


class AsymptoticValue(NamedTuple):
    """Truncated asymptotic expansion plus its first omitted term."""

    value: complex
    error_estimate: float


def _check_finite(z: complex, name: str) -> complex:
    z = complex(z)
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise ValueError(f"{name}: argument must be finite, got {z!r}")
    return z


# ----------------------------------------------------------------------
# Faddeeva function
# ----------------------------------------------------------------------

def _w_series(z: complex) -> complex:
    # w(z) = exp(-z^2) + (2iz/sqrt(pi)) sum_m (-2z^2)^m / (2m+1)!!
    zz = z * z
    term = 1.0 + 0.0j
    total = term
    m = 0
    while True:
        m += 1
        term *= (-2.0 * zz) / (2 * m + 1)
        total += term
        if abs(term) <= 1e-18 * abs(total) or m > 120:
            break
    return cmath.exp(-zz) + (2.0j * z / SQRT_PI) * total


def _weideman_coefficients(n: int) -> tuple[float, np.ndarray]:
    # Real polynomial coefficients of the rational approximation on the
    # upper half plane, obtained from an FFT of the Gaussian sampled at
    # Chebyshev-like points mapped by t = L tan(theta/2).
    m = 2 * n
    k = np.arange(-m + 1, m)
    ell = math.sqrt(n / math.sqrt(2.0))
    t = ell * np.tan(k * math.pi / (2 * m))
    f = np.exp(-t * t) * (ell * ell + t * t)
    f = np.concatenate(([0.0], f))
    a = np.real(np.fft.fft(np.fft.fftshift(f))) / (2 * m)
    return ell, a[1 : n + 1][::-1].copy()


_W_L, _W_COEF = _weideman_coefficients(_WEIDEMAN_TERMS)


def _w_rational(z: complex) -> complex:
    iz = 1j * z
    den = _W_L - iz
    big_z = (_W_L + iz) / den
    p = 0.0j
    for a in _W_COEF:
        p = p * big_z + a
    return 2.0 * p / (den * den) + (1.0 / SQRT_PI) / den


def _w_continued_fraction(z: complex) -> complex:
    # Laplace continued fraction with partial numerators k/2, evaluated
    # backward at fixed depth.
    r = 0.0j
    for k in range(_CF_DEPTH, 0, -1):
        r = (0.5 * k) / (z - r)
    return (1j / SQRT_PI) / (z - r)


def faddeeva(z: complex) -> complex:
    """Faddeeva function w(z) = exp(-z^2) erfc(-iz).

    Relative accuracy (in modulus) is ~1e-13 or better for Im z >= 0.
    The lower half plane uses w(z) = 2 exp(-z^2) - conj(w(conj(z))),
    where the exp(-z^2) growth is genuine and may overflow.
    """
    z = _check_finite(z, "faddeeva")
    if z.imag < 0.0:
        return 2.0 * cmath.exp(-z * z) - faddeeva(z.conjugate()).conjugate()
    r = abs(z)
    if r <= _SERIES_RADIUS:
        return _w_series(z)
    if r <= _RATIONAL_RADIUS:
        return _w_rational(z)
    return _w_continued_fraction(z)


# ----------------------------------------------------------------------
# Villat function
# ----------------------------------------------------------------------

def villat(z: complex) -> complex:
    """Villat function Vi(z) = exp(z) erfc(sqrt(z)), principal branch.

    Computed as faddeeva(i*sqrt(z)), never as a product of exp and erfc:
    i*sqrt(z) lies in the closed upper half plane for every z off the
    branch cut, so the result stays bounded along all rays |arg z| < pi
    even where exp(z) would overflow.
    """
    z = _check_finite(z, "villat")
    if z.imag == 0.0 and z.real < 0.0:
        raise ValueError("villat: branch cut (z on the negative real axis)")
    return faddeeva(1j * cmath.sqrt(z))


def villat_asymptotic(z: complex, m_max: int) -> AsymptoticValue:
    """Large-|z| expansion Vi(z) ~ (pi z)^{-1/2} [1 + sum_m (-1)^m (2m-1)!!/(2z)^m].

    Returns the truncated value together with the magnitude of the first
    omitted term; the series is divergent, so that magnitude is the
    accuracy floor.  Raises AccuracyError when |arg z| >= 3*pi/4 or when
    the requested truncation is already in the divergent regime (first
    omitted term no smaller than the last kept one).
    """
    z = _check_finite(z, "villat_asymptotic")
    if m_max < 0:
        raise ValueError("villat_asymptotic: m_max must be >= 0")
    if z == 0:
        raise ValueError("villat_asymptotic: z must be nonzero")
    if abs(cmath.phase(z)) >= 0.75 * math.pi:
        raise AccuracyError(
            "villat_asymptotic: expansion not valid for |arg z| >= 3*pi/4"
        )
    # |t_{m+1}/t_m| = (2m+1)/(2|z|) must still be < 1 at the truncation point.
    if 2 * m_max + 1 >= 2.0 * abs(z):
        raise AccuracyError(
            "villat_asymptotic: truncation order lies in the divergent regime "
            f"(m_max={m_max}, |z|={abs(z):.3g})"
        )
    prefactor = 1.0 / cmath.sqrt(math.pi * z)
    term = 1.0 + 0.0j
    total = term
    for m in range(1, m_max + 1):
        term *= -(2 * m - 1) / (2.0 * z)
        total += term
    first_omitted = abs(term) * (2 * m_max + 1) / (2.0 * abs(z))
    return AsymptoticValue(prefactor * total, abs(prefactor) * first_omitted)


# ----------------------------------------------------------------------
# Integral-representation oracles (independent of the fast path)
# ----------------------------------------------------------------------

_WINDOW = 9.0  # tail beyond |s| = 9 is below exp(-81) ~ 6e-36
_GRADING = 4.0  # ratio of successive panel edges away from the peak
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(32)


def _panel_sum(f, edges: np.ndarray) -> float:
    mid = 0.5 * (edges[1:] + edges[:-1])
    half = 0.5 * (edges[1:] - edges[:-1])
    return float(half @ (f(mid[:, None] + half[:, None] * _GL_NODES) @ _GL_WEIGHTS))


def _window_quadrature(f, peak: float, width: float) -> tuple[float, float]:
    """(value, error estimate) of the integral of f over |s| <= 9, for array-valued f.

    f carries an exp(-s^2) factor and a peak at s = peak of half-width
    width > 0.  32-point Gauss-Legendre panels have edges at
    peak +- width * 4^j, 0 and +-9, so they grade geometrically away from
    the peak.  The value is the sum over every panel split in two; the
    estimate is its distance from the sum over the undivided panels.
    """
    edges = {-_WINDOW, 0.0, _WINDOW}
    step = width
    while step < 2.0 * _WINDOW:
        edges.update(e for e in (peak - step, peak + step) if -_WINDOW < e < _WINDOW)
        step *= _GRADING
    edges = np.array(sorted(edges))
    halves = np.sort(np.concatenate([edges, 0.5 * (edges[:-1] + edges[1:])]))
    value = _panel_sum(f, halves)
    return value, abs(value - _panel_sum(f, edges))


def _poisson_quadrature(x: float, y: float, numerator, name: str) -> float:
    if y <= 0.0:
        raise ValueError(f"{name}: requires y > 0")
    if not (math.isfinite(x) and math.isfinite(y)):
        raise ValueError(f"{name}: arguments must be finite")

    def integrand(s: np.ndarray) -> np.ndarray:
        dx = x - s
        return numerator(dx) * np.exp(-s * s) / (dx * dx + y * y)

    # The Lorentzian factor peaks at s = x with half-width y.
    val, est = _window_quadrature(integrand, x, y)
    if not est <= 1e-10:  # a NaN estimate is a failure too
        raise AccuracyError(f"{name}: quadrature did not converge (est={est:.2e})")
    return val / math.pi


def faddeeva_re_quadrature(x: float, y: float) -> float:
    """Re w(x+iy) from (1/pi) * integral of y exp(-s^2) / ((x-s)^2 + y^2), y > 0.

    Reference oracle used to referee ``faddeeva``: graded Gauss-Legendre
    panels over |s| <= 9 (see ``_window_quadrature``).  Raises AccuracyError
    when the doubled-panel error estimate exceeds 1e-10, as it does once y
    is too small (about 1e-8 and below) for double-precision nodes to
    resolve the peak at x != 0.
    """
    return _poisson_quadrature(x, y, lambda dx: y, "faddeeva_re_quadrature")


def faddeeva_im_quadrature(x: float, y: float) -> float:
    """Im w(x+iy) from (1/pi) * integral of (x-s) exp(-s^2) / ((x-s)^2 + y^2), y > 0."""
    return _poisson_quadrature(x, y, lambda dx: dx, "faddeeva_im_quadrature")


# ----------------------------------------------------------------------
# Deliberately unstable reference
# ----------------------------------------------------------------------

_NAIVE_MAX_TERMS = 4000


def _erf_maclaurin(s: complex) -> complex:
    # erf(s) = (2/sqrt(pi)) sum_n (-1)^n s^(2n+1) / (n! (2n+1)), summed in
    # working precision.  The terms grow like exp(|s|^2) before decaying,
    # which is exactly the cancellation failure this function preserves.
    ss = s * s
    coef = 1.0 + 0.0j
    total = 1.0 + 0.0j
    for n in range(1, _NAIVE_MAX_TERMS):
        coef *= -ss / n
        term = coef / (2 * n + 1)
        total += term
        if abs(term) <= 1e-17 * abs(total):
            break
    return (2.0 / SQRT_PI) * s * total


def naive_villat(z: complex) -> complex:
    """Textbook evaluation exp(z) * erfc(sqrt(z)), both factors in double precision.

    erfc comes from the Maclaurin series of erf, so for large |z| the
    alternating terms overwhelm the result and the returned value is
    numerically unreliable (documented, not masked).  Overflow of either
    factor raises OverflowError.
    """
    z = _check_finite(z, "naive_villat")
    if z.imag == 0.0 and z.real < 0.0:
        raise ValueError("naive_villat: branch cut (z on the negative real axis)")
    growth = cmath.exp(z)  # OverflowError for Re z > ~709: reported, not masked
    erfc_value = 1.0 - _erf_maclaurin(cmath.sqrt(z))
    result = growth * erfc_value
    if not (math.isfinite(result.real) and math.isfinite(result.imag)):
        raise OverflowError(
            "naive_villat: intermediate overflow in the series/product evaluation"
        )
    return result
