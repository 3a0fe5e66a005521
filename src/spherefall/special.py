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
half plane where w is bounded by 1; on the negative real axis the sign of
z's imaginary zero picks the side of the cut, as in ``cmath.sqrt``.

``faddeeva`` is one formula on the closed upper half plane, Weideman's
48-term rational approximation (SIAM J. Numer. Anal. 31, 1994, 1497; the
coefficients come once from an FFT of the sampled Gaussian), with a
relative error (in modulus) below 2e-15 against a 50-digit reference for
|z| from 1e-12 to 1e7; the lower half plane is reached through the
reflection w(z) = 2 exp(-z^2) - conj(w(conj(z))).

``faddeeva``, ``villat`` and ``villat_asymptotic`` take a scalar or a
numpy array, and an array returns an array of its shape.  The kernel
evaluates the same rational function two ways.  A scalar runs Horner's
rule on Python complex arithmetic.  An array (0-d included) runs
Paterson and Stockmeyer's baby and giant steps in chunks of a few
thousand points: the powers Z^0..Z^7 in one table, the polynomial's six
blocks of eight coefficients as one real matrix product with it, and
Horner's rule in Z^8 over the six sums.  Every element of an array gets
the bits it would get alone.  The reflection is written once, for
arrays: a scalar below the real axis goes through it as a 0-d array.  The
checks are element-wise: one non-finite element raises ValueError for
the whole array.  The two evaluations round differently, so an array
result agrees with the scalar calls to about 1e-15 relative, not bit for
bit: w(0) is 1 exactly as a scalar and 1 + 2^-51 in an array.

The two integral-representation quadratures are independent oracles used
by the verification suite to referee the fast path.  They integrate
against exp(-s^2) / ((s - x)^2 + y^2), one rule with
``analysis.proof_integral``: 32-point Gauss-Legendre panels graded
geometrically away from the Lorentzian peak, whose error estimate (the
change when every panel is split in two) raises AccuracyError when it is
too large.  They take floats or arrays; over an array each point keeps
its own panels, padded with empty ones.  The suite reads both parts of
w(x+iy) from one pass over those panels (``_faddeeva_quadrature``).
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

_WEIDEMAN_TERMS = 48


class AccuracyError(ArithmeticError):
    """The requested accuracy cannot be achieved for the given input."""


class AsymptoticValue(NamedTuple):
    """Truncated asymptotic expansion plus its first omitted term."""

    value: complex
    error_estimate: float


def _check_finite(z, name: str):
    """z as a complex, or a complex array (not copied if it is one), after checking it is finite."""
    z = z.astype(complex, copy=False) if isinstance(z, np.ndarray) else complex(z)
    _require(np.isfinite(z), z, name + ": argument must be finite, got {}")
    return z


def _require(ok, x, message: str, error: type = ValueError) -> None:
    """Raise error(message.format(*x_i)) for the first i (row-major) where ok fails, if any.

    x is a value or a tuple of values broadcasting against ok; x_i holds their elements at i.
    """
    if ok.all() if isinstance(ok, np.ndarray) else ok:
        return
    bad = np.logical_not(ok)
    fields = x if isinstance(x, tuple) else (x,)
    raise error(message.format(*(np.extract(*np.broadcast_arrays(bad, v))[0] for v in fields)))


# ----------------------------------------------------------------------
# Faddeeva function
# ----------------------------------------------------------------------
# One kernel on the closed upper half plane, plain arithmetic, so it serves
# a Python complex and a complex array alike.

def _weideman_coefficients(n: int) -> tuple[float, list[float]]:
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
    coef = a[1 : n + 1][::-1].tolist()
    # At z = 0 the kernel has Z = 1, where Horner's rule is the running sum
    # of the coefficients; set the constant one so that a scalar w(0) = 1 exactly.
    head = 0.0
    for c in coef[:-1]:
        head += c
    coef[-1] = (ell - 1.0 / SQRT_PI) * ell / 2.0 - head
    return ell, coef


_W_L, _W_COEF = _weideman_coefficients(_WEIDEMAN_TERMS)
# The polynomial's coefficients in ascending order as six blocks of eight, so that
# p(Z) = sum_j (_W_BLOCKS[j] . (Z^0, ..., Z^7)) (Z^8)^j.
_W_BLOCKS = np.array(_W_COEF[::-1]).reshape(-1, 8)
_W_CHUNK = 4096  # points per pass of the array kernel; its (8, chunk) power table stays small


def _w_rational(z):
    """w(z) for Im z >= 0: 2 p(Z)/(L - iz)^2 + 1/(sqrt(pi) (L - iz)), Z = (L + iz)/(L - iz).

    Both quotients are taken one factor of L - iz at a time, so nothing
    overflows before |z| reaches the largest double.  A scalar runs Horner's
    rule; an array (0-d included) runs :func:`_w_blocks`.
    """
    if isinstance(z, np.ndarray):
        return _w_blocks(z)
    den = _W_L - 1j * z
    big_z = 2.0 * _W_L / den - 1.0
    p = 0.0j * big_z + _W_COEF[0]
    for a in _W_COEF[1:]:
        p *= big_z
        p += a
    return (2.0 * p / den + 1.0 / SQRT_PI) / den


def _w_blocks(z: np.ndarray) -> np.ndarray:
    """The array kernel: p(Z) by Paterson and Stockmeyer's baby and giant steps.

    Per chunk of ``_W_CHUNK`` points: inv = 1/(L - iz) once, the powers
    Z^0..Z^7 in one (8, m) complex table, the six block sums as one real
    matrix product of ``_W_BLOCKS`` with the table's float view, and Horner's
    rule in Z^8 over the six sums (SIAM J. Comput. 2, 1973, 60).  |Z| <= 1,
    so no power grows.  No operation writes in place: numpy rounds an
    in-place complex product on a 1-element array differently, and every
    element's bits are those it has alone.
    """
    flat = z.ravel()
    w = np.empty(flat.shape, complex)
    for k in range(0, len(flat), _W_CHUNK):
        inv = 1.0 / (_W_L - 1j * flat[k : k + _W_CHUNK])
        powers = np.empty((8, len(inv)), complex)
        powers[0] = 1.0
        np.subtract(2.0 * _W_L * inv, 1.0, out=powers[1])
        np.multiply(powers[1], powers[1], out=powers[2])
        np.multiply(powers[2], powers[1], out=powers[3])
        np.multiply(powers[2], powers[2], out=powers[4])
        np.multiply(powers[4], powers[1], out=powers[5])
        np.multiply(powers[3], powers[3], out=powers[6])
        np.multiply(powers[4], powers[3], out=powers[7])
        giant = powers[4] * powers[4]
        sums = (_W_BLOCKS @ powers.view(float)).view(complex)
        p = sums[-1]
        for block in sums[-2::-1]:
            p = p * giant + block
        w[k : k + _W_CHUNK] = (p * (2.0 * inv) + 1.0 / SQRT_PI) * inv
    return w.reshape(z.shape)


def _faddeeva_array(z: np.ndarray) -> np.ndarray:
    """w over a finite complex array: the kernel on the reflected points, then the reflection.

    Without a point below the real axis the kernel reads the array itself, and nothing is copied.
    """
    flat = z.ravel()
    lower = flat.imag < 0.0
    if not lower.any():
        return _w_rational(flat).reshape(z.shape)
    w = _w_rational(np.where(lower, flat.conj(), flat))
    zl = flat[lower]
    with np.errstate(over="ignore", invalid="ignore"):
        wl = 2.0 * np.exp(-zl * zl) - w[lower].conj()
    _require(np.isfinite(wl), zl, "faddeeva: exp(-z^2) overflows at z={}", OverflowError)
    w[lower] = wl
    return w.reshape(z.shape)


def faddeeva(z):
    """Faddeeva function w(z) = exp(-z^2) erfc(-iz), of a complex or a complex array.

    One formula, Weideman's 48-term rational approximation, on the closed
    upper half plane: relative error (in modulus) below 2e-15 against a
    50-digit reference for |z| from 1e-12 to 1e7, finite up to |z| of about
    1.7e308.  The lower half plane uses w(z) = 2 exp(-z^2) - conj(w(conj(z))),
    where the exp(-z^2) growth is genuine and may overflow.  An array returns
    an array of its shape; it agrees with the element-wise scalar calls to
    about 1e-15 relative, not bit for bit.  A scalar sums the polynomial by
    Horner's rule, and w(0) is 1 exactly; an array sums it in blocks of eight
    coefficients as one matrix product (``_w_blocks``), and w(0) is 1 + 2^-51.
    """
    z = _check_finite(z, "faddeeva")
    if isinstance(z, np.ndarray):
        return _faddeeva_array(z)
    return _w_rational(z) if z.imag >= 0.0 else complex(_faddeeva_array(np.array(z)))


# ----------------------------------------------------------------------
# Villat function
# ----------------------------------------------------------------------

def villat(z):
    """Villat function Vi(z) = exp(z) erfc(sqrt(z)), principal branch, of a complex or an array.

    Computed as w(i*sqrt(z)) by the Faddeeva kernel, never as a product of
    exp and erfc: i*sqrt(z) lies in the closed upper half plane, where the
    kernel needs no reflection, so the result stays bounded along all rays
    |arg z| < pi even where exp(z) would overflow.  On the negative real axis
    the sign of the imaginary zero picks the side of the cut (W. Kahan, 1987):
    Vi(-x + 0j) = exp(-x) erfc(i sqrt(x)) and Vi(-x - 0j) is its conjugate.
    A scalar below the axis, or on it with a negative zero, is taken as the
    conjugate of its mirror image, so that Vi(conj z) = conj(Vi(z)) bit for
    bit: Python's complex division rounds an exactly cancelled real part to a
    zero whose sign depends on the side (-0.0 at -2522.5 - 1e-12j, +0.0 at its mirror).
    """
    z = _check_finite(z, "villat")
    if isinstance(z, np.ndarray):
        return _w_rational(np.asarray(1j * np.sqrt(z)))  # numpy makes 0-d a scalar
    if math.copysign(1.0, z.imag) < 0.0:
        return _w_rational(1j * cmath.sqrt(z.conjugate())).conjugate()
    return _w_rational(1j * cmath.sqrt(z))


def villat_asymptotic(z, m_max: int) -> AsymptoticValue:
    """Large-|z| expansion Vi(z) ~ (pi z)^{-1/2} [1 + sum_m (-1)^m (2m-1)!!/(2z)^m].

    Returns the truncated value together with the magnitude of the first
    omitted term; the series is divergent, so that magnitude is the
    accuracy floor.  Raises AccuracyError when |arg z| >= 3*pi/4 or when
    the requested truncation is already in the divergent regime (first
    omitted term no smaller than the last kept one).  z is a complex or an
    array, and an error names its first offending element.
    """
    z = _check_finite(z, "villat_asymptotic")
    if m_max < 0:
        raise ValueError("villat_asymptotic: m_max must be >= 0")
    sqrt, phase = (np.sqrt, np.angle) if isinstance(z, np.ndarray) else (cmath.sqrt, cmath.phase)
    _require(z != 0, z, "villat_asymptotic: z must be nonzero, got {}")
    _require(abs(phase(z)) < 0.75 * math.pi, z,
             "villat_asymptotic: expansion not valid for |arg z| >= 3*pi/4, got z={}",
             AccuracyError)
    # |t_{m+1}/t_m| = (m+1/2)/|z| must still be < 1 at the truncation point.  The
    # ratios are written over z, not 2z, and the prefactor splits sqrt(pi z), so
    # nothing overflows for |z| up to the largest double.
    radius = abs(z)
    _require(m_max + 0.5 < radius, radius,
             "villat_asymptotic: truncation order lies in the divergent regime "
             f"(m_max={m_max}, |z|={{:.3g}})", AccuracyError)
    prefactor = 1.0 / (SQRT_PI * sqrt(z))
    term = 1.0 + 0.0j
    total = term
    # Each quotient forms |z|^2 / max(|Re z|, |Im z|), which overflows only where a part
    # of z passes 9e307; the quotient is then below 1e-307, and its rounded 0 is right.
    with np.errstate(over="ignore"):
        for m in range(1, m_max + 1):
            term *= -(m - 0.5) / z
            total += term
    first_omitted = abs(term) * (m_max + 0.5) / radius
    return AsymptoticValue(prefactor * total, abs(prefactor) * first_omitted)


# ----------------------------------------------------------------------
# Integral-representation oracles (independent of the fast path)
# ----------------------------------------------------------------------

_WINDOW = 9.0  # tail beyond |s| = 9 is below exp(-81) ~ 6e-36
_GRADING = 4.0  # ratio of successive panel edges away from the peak
# The 32-point Gauss-Legendre rule on [-1, 1], as numpy.polynomial.legendre.leggauss(32)
# gives it under numpy 2.4.6, so that no import loads numpy.polynomial.  The rule is
# symmetric, bit for bit in that output: the 16 non-negative nodes and their weights,
# mirrored onto the negative half.
_GL_HALF_NODES = np.array([
    0.048307665687738324, 0.1444719615827965, 0.23928736225213706, 0.33186860228212767,
    0.42135127613063533, 0.5068999089322294, 0.5877157572407623, 0.6630442669302152,
    0.7321821187402897, 0.7944837959679424, 0.84936761373257, 0.8963211557660521,
    0.9349060759377397, 0.9647622555875064, 0.9856115115452684, 0.9972638618494816,
])
_GL_HALF_WEIGHTS = np.array([
    0.09654008851472766, 0.09563872007927471, 0.09384439908080451, 0.09117387869576378,
    0.08765209300440378, 0.08331192422694671, 0.07819389578707023, 0.07234579410884834,
    0.06582222277636168, 0.058684093478535565, 0.05099805926237609, 0.042835898022226836,
    0.034273862913021765, 0.025392065309262024, 0.016274394730905743, 0.007018610009470506,
])
_GL_NODES = np.concatenate((-_GL_HALF_NODES[::-1], _GL_HALF_NODES))
_GL_WEIGHTS = np.concatenate((_GL_HALF_WEIGHTS[::-1], _GL_HALF_WEIGHTS))


def _panel_sum(f, edges: np.ndarray) -> np.ndarray:
    """The 32-point Gauss-Legendre sum over the panels between each row's sorted edges."""
    mid = 0.5 * edges[..., 1:] + 0.5 * edges[..., :-1]  # no overflow where edges collapse at 1e308
    half = 0.5 * (edges[..., 1:] - edges[..., :-1])
    sums = f(mid[..., None] + half[..., None] * _GL_NODES) @ _GL_WEIGHTS
    return (half[..., None, :] @ sums[..., None])[..., 0, 0]


def _window_quadrature(numerator, peak, width):
    """(value, change) of the integral over |s| <= 9 of N exp(-s^2) / (d^2 + width^2).

    N = numerator(d, s, width) at the offset d = s - peak from the
    Lorentzian's peak, of half-width width > 0.  Working in d places the
    nodes near the peak exactly, however narrow it is.  32-point
    Gauss-Legendre panels have edges at d = +-width * 4^j below 18 and at
    s = 0 and +-9, so they grade geometrically away from the peak.  The
    value is the sum over every panel split in two; its error estimate is
    its distance from the sum over the undivided panels.  peak and width
    broadcast: numerator gets d and s of shape peak.shape + (panels, 32)
    and width of shape peak.shape + (1, 1), and the value and change
    have the shape of peak (floats for floats).  The change is the value
    less the undivided sum, signed, so that a complex numerator gives each
    part its own estimate.  The narrowest width sets the count of graded
    edges; a point that needs fewer has the rest clipped onto the window
    ends, where they bound empty panels.
    """
    peak, width = np.broadcast_arrays(peak, width)
    count, step = 0, np.min(width, initial=np.inf)
    while step < 2.0 * _WINDOW:
        count += 1
        step *= _GRADING
    graded = np.ldexp(width[..., None], 2 * np.arange(count))  # width * 4^j (_GRADING), exactly
    graded[graded >= 2.0 * _WINDOW] = np.inf  # past the grading: clipped onto a window end
    lo, hi = -_WINDOW - peak[..., None], _WINDOW - peak[..., None]
    edges = np.sort(np.concatenate(
        [lo, -peak[..., None], hi, np.clip(-graded, lo, hi), np.clip(graded, lo, hi)], -1))
    halves = np.sort(np.concatenate([edges, 0.5 * edges[..., :-1] + 0.5 * edges[..., 1:]], -1))
    pd, wd = peak[..., None, None], width[..., None, None]

    def integrand(d: np.ndarray) -> np.ndarray:
        s = pd + d
        with np.errstate(over="ignore"):  # past |peak| ~ 1e154 at d ~ -peak, where the weight is 0
            top = numerator(d, s, wd)
            if np.iscomplexobj(top):  # one real quotient: a complex one costs more than two parts
                return top * (np.exp(-s * s) / (d * d + wd * wd))
            return top * np.exp(-s * s) / (d * d + wd * wd)

    value = _panel_sum(integrand, halves)[()]  # [()] turns 0-d into a float
    return value, value - _panel_sum(integrand, edges)


def _poisson_quadrature(x, y, numerator, names: tuple):
    """(1/pi) times the integral of N exp(-s^2) / ((x-s)^2 + y^2) over |s| <= 9, y > 0.

    N = numerator(d, s, y) at d = s - x.  A real N gives one part of w(x+iy), checked
    under names[0]; a complex one both parts at once, the real part checked first,
    under names[0], and the imaginary part under names[1].  Each part raises
    AccuracyError where its own error estimate exceeds 1e-10.
    """
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    _require(~(y <= 0.0), y, names[0] + ": requires y > 0, got {}")
    _require(np.isfinite(x) & np.isfinite(y), (x, y),
             names[0] + ": arguments must be finite, got x={}, y={}")
    val, change = _window_quadrature(numerator, x, y)  # the Lorentzian peaks at s = x
    for part, name in zip((change.real, change.imag), names):
        est = np.abs(part)
        _require(est <= 1e-10, (est, x, y),  # a NaN estimate is a failure too
                 name + ": quadrature did not converge (est={:.2e}) at x={}, y={}",
                 AccuracyError)
    return val / math.pi


def faddeeva_re_quadrature(x, y):
    """Re w(x+iy) from (1/pi) * integral of y exp(-s^2) / ((x-s)^2 + y^2), y > 0.

    Reference oracle used to referee ``faddeeva``: graded Gauss-Legendre
    panels over |s| <= 9, placed by their offset from the peak at s = x
    (see ``_window_quadrature``), so a narrow peak is resolved down to
    y of about 1e-155.  x and y are floats or arrays that broadcast.
    Raises AccuracyError, naming the first such element, when the
    doubled-panel error estimate exceeds 1e-10, as it does once y is
    small enough for y * y to underflow.
    """
    return _poisson_quadrature(x, y, lambda d, s, y: y, ("faddeeva_re_quadrature",))


def faddeeva_im_quadrature(x, y):
    """Im w(x+iy) from (1/pi) * integral of (x-s) exp(-s^2) / ((x-s)^2 + y^2), y > 0."""
    return _poisson_quadrature(x, y, lambda d, s, y: -d, ("faddeeva_im_quadrature",))


def _faddeeva_quadrature(x, y):
    """w(x+iy), both parts of the two oracles above from one quadrature pass, y > 0.

    The numerator y - i(s - x) shares the panels, exp(-s^2) and the Lorentzian
    between the parts, which agree with ``faddeeva_re_quadrature`` and
    ``faddeeva_im_quadrature`` to rounding and raise their errors.  The weight
    exp(-s^2) / ((x-s)^2 + y^2) is formed before the numerator multiplies it,
    so peaks are resolved down to y of about 1e-154, where it overflows.
    """
    return _poisson_quadrature(x, y, lambda d, s, y: y - 1j * d,
                               ("faddeeva_re_quadrature", "faddeeva_im_quadrature"))


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
    factor raises OverflowError.  On the cut, ``cmath.sqrt`` takes villat's side.
    """
    z = _check_finite(z, "naive_villat")
    growth = cmath.exp(z)  # OverflowError for Re z > ~709: reported, not masked
    erfc_value = 1.0 - _erf_maclaurin(cmath.sqrt(z))
    result = growth * erfc_value
    if not (math.isfinite(result.real) and math.isfinite(result.imag)):
        raise OverflowError(
            "naive_villat: intermediate overflow in the series/product evaluation"
        )
    return result
