"""Memory-equation solver and the Abel history read-back.

The rescaled equation for the sphere velocity u(tau) is

    u'(tau) + u(tau) + sqrt(kappa/pi) * I[u'](tau) = 1,
    I[f](tau) = integral_0^tau f(s) / sqrt(tau - s) ds,

with u'(0) = 1 - u(0) forced by the equation itself at tau = 0.

The weakly singular memory integral is discretized by product
integration on a uniform grid: u' is reconstructed piecewise linearly
and the Abel kernel (tau - s)^{-1/2} is integrated exactly against that
basis, cell by cell.  The diagonal weight (4/3) sqrt(h) multiplies the
unknown u'(t_n), so each step solves one scalar linear equation
(implicit treatment; an explicit one is unstable near tau = 0).

The weights depend only on the lag n - j, so the history sum is a
Toeplitz convolution built from one lag kernel, :func:`_abel_kernel`,
whose weights hold a few ulps at every lag.  Reading the history
back at every grid point is one FFT convolution, O(n log n)
(:func:`abel_history`).  The causal solve is a power-series quotient:
the lower-triangular Toeplitz system t(z) d(z) = rhs(z) gives
d = rhs * (1/t), and 1/t comes from Newton's iteration (Kung, Numer.
Math. 22, 1974, 341) on the same causal FFT product, O(n log n) time
and O(n) memory.  Both match the direct sums to rounding.
"""

from __future__ import annotations

import math

import numpy as np

from .analytic import _amplitude
from .trajectory import Trajectory, uniform_grid

__all__ = ["abel_history", "solve_ide"]


def _abel_kernel(n: int, h: float) -> tuple[np.ndarray, np.ndarray]:
    """Lag coefficients of the Abel quadrature on the uniform grid, lags 0..n.

    The quadrature at t_k is sum_{j=1..k} a[k-j] f_j + first[k] f_0.  The cell m
    steps back spans the distances r^2 = (m-1)h to s^2 = mh; its far and near nodes
    weigh (2h/3)(s + 2r)/(s + r)^2 and (2h/3)(2s + r)/(s + r)^2, the integrals of
    their hat functions against the kernel with the differences of square roots
    divided out: sums of positive terms, accurate to a few ulps at any lag.  A step
    too large for a double overflows (2/3) h (...) to inf before the division.  A
    node m >= 1 steps back is the near node of cell m+1 and the far node of cell m,
    so a[m] = far_m + near_{m+1} and a[0] = near_1; the grid's first node only
    closes cell k, first[k] = far_k (first[0] = 0).
    """
    root = np.sqrt(np.arange(n + 2) * h)
    s, r = root[1:], root[:-1]  # the cells 1..n+1
    square = (s + r) ** 2
    far = (2.0 / 3.0) * h * (s + 2.0 * r) / square
    near = (2.0 / 3.0) * h * (2.0 * s + r) / square
    first = np.concatenate(([0.0], far[:n]))
    return near + first, first


def _causal_product(a: np.ndarray, f: np.ndarray, m: int, size: int | None = None) -> np.ndarray:
    """First m coefficients of the power-series product a(z) f(z).

    One rfft/irfft product of the given size.  The default is the power of
    two above the top degree len(a) + len(f) - 2, so no coefficient wraps
    around; a smaller size adds each coefficient j >= size onto j - size.
    """
    if size is None:
        size = 1 << (len(a) + len(f) - 2).bit_length()
    spectrum = np.fft.rfft(a, size)
    spectrum *= np.fft.rfft(f, size)
    return np.fft.irfft(spectrum, size)[:m]


def abel_history(samples: np.ndarray, h: float) -> np.ndarray:
    """Abel quadrature integral_0^{t_k} f(s)/sqrt(t_k - s) ds at every grid point t_k = k h.

    The product-integration rule, exact for piecewise-linear f on the
    uniform grid, applied at every k at once as one causal FFT
    convolution: O(n log n) for n + 1 samples.  Entry 0 is 0.  This is
    the library's only read-back of the memory integral: the Basset
    force and the Abel inversion check both go through it.  A history
    that is not finite raises ArithmeticError, as an overflowing solve does.
    """
    f = np.asarray(samples, dtype=float)
    if f.ndim != 1 or len(f) == 0:
        raise ValueError("abel_history: samples must be a nonempty 1-d array")
    if not 0.0 < h < math.inf:
        raise ValueError(f"abel_history: h must be finite and > 0, got {h}")
    n = len(f) - 1
    out = np.zeros(n + 1)
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is raised below
        a, first = _abel_kernel(n, h)
        out[1:] = _causal_product(a[:n], f[1:], n) + first[1:] * f[0]
    if not np.isfinite(out).all():
        raise ArithmeticError(f"abel_history: the history is not finite at h={h:g}")
    return out


def _reciprocal(t: np.ndarray, n: int) -> np.ndarray:
    """First n coefficients of the power series 1/t(z), t[0] != 0.

    Newton's iteration g <- g + g (1 - t g) (Kung, Numer. Math. 22, 1974,
    341).  When g holds the first k coefficients, t g = 1 + z^k r(z), so
    one pass needs only the coefficients k..m-1 of t g and appends those
    of -g r, doubling the length up to m = min(2k, n): O(n log n).  A cyclic
    product of size >= m gives them exactly, as every wrapped term lands below k.
    """
    g = np.array([1.0 / t[0]])
    k = 1
    while k < n:
        m = min(2 * k, n)
        r = _causal_product(t[:m], g, m, 1 << (m - 1).bit_length())[k:]
        g = np.concatenate((g, -_causal_product(g, r, m - k)))
        k = m
    return g


def solve_ide(kappa: float, u0: float, h: float, T: float) -> Trajectory:
    """March the memory equation from u(0) = u0 to the horizon T with step h.

    kappa lies in (0, 9], the domain of the physical layer; kappa = 9 is
    the massless sphere (rho_s = 0).  Each step n is the scalar linear
    equation for u'(t_n) that the product-integration discretization
    produces (trapezoidal update for u, implicit diagonal Abel weight for
    the memory term).  All n steps together form one lower-triangular
    Toeplitz system, solved as the power-series quotient rhs * (1/t)
    through :func:`_reciprocal` in O(n log n) time and O(n) memory.  The
    empirical convergence against the closed form is order ~1.5 in sup norm.
    An amplitude (1 - u0) sqrt(kappa) outside the double range is the
    ValueError of the other sphere solvers, which names u0 as eps; a solve
    that overflows raises ArithmeticError.
    """
    if not 0.0 < kappa <= 9.0:
        raise ValueError(f"kappa must lie in (0, 9], got {kappa}")
    _amplitude((1.0 - u0) * math.sqrt(kappa), u0, kappa)
    times = uniform_grid(h, T)
    n = len(times) - 1
    c = math.sqrt(kappa / math.pi)
    d0 = 1.0 - u0  # prescribed by the equation at tau = 0
    # Step k reads d_k + u_k + c * history_k = 1 with the trapezoidal
    # u_k = u0 + h d0/2 + h (d_1 + .. + d_{k-1}) + h d_k/2.  Moving the
    # known d_0 to the right-hand side leaves the Toeplitz system
    # t[0] d_k + sum_{j<k} t[k-j] d_j = rhs_k in d_1..d_n.
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is raised below
        a, first = _abel_kernel(n, h)  # a large h overflows the weights themselves
        t = c * a + h
        t[0] = 1.0 + 0.5 * h + c * a[0]
        rhs = d0 * (1.0 - 0.5 * h - c * first[1:])
        d = np.concatenate(([d0], _causal_product(_reciprocal(t, n), rhs, n)))
        u = np.cumsum(np.concatenate(([u0], 0.5 * h * (d[:-1] + d[1:]))))
    if not np.isfinite(u).all():  # u_k is not finite where d_k is not
        raise ArithmeticError(f"solve_ide: the solution is not finite at kappa={kappa:g}")

    meta = {"solver": "ide", "kappa": kappa, "u0": u0, "h": h, "T": n * h}
    return Trajectory(times=times, values=u, derivatives=d, meta=meta)

