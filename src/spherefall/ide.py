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

u'(tau) has a sqrt(tau) term at release, which neither the piecewise-linear
Abel rule nor the trapezoidal u resolves: alone they converge at order
~1.5.  One starting correction (Lubich, SIAM J. Math. Anal. 17, 1986,
704) makes both exact on sqrt(tau).  The sqrt(tau) coefficient is read off
the second difference of the first three values, and each rule adds that
coefficient times its own error on sqrt(tau) (:func:`_sqrt_errors`).  The
rules are then exact on a + b tau + c sqrt(tau), and the scheme converges
at order ~2 at the same cost.

The weights depend only on the lag n - j, so the history sum is a
Toeplitz convolution built from one lag kernel, :func:`_abel_kernel`,
whose weights hold a few ulps at every lag.  Reading the history
back at every grid point is one causal product (:func:`abel_history`),
and the causal solve divides the lower-triangular Toeplitz system
t(z) d(z) = rhs(z) once, as a power series (:func:`_quotient`): both
take O(n log n) time and O(n) memory, and both match the direct sums to
rounding.  Every series product goes through one rule, :func:`_product`:
direct up to a measured crossover (:data:`_DIRECT_UP_TO`) and by FFT
above it, on lengths of the form 2^a 3^b 5^c (:func:`_fft_size`).  The
rules' errors on sqrt(t) below k = 128 are summed once, at import.
"""

from __future__ import annotations

import math

import numpy as np

from .analytic import _amplitude, _check_kappa
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


def _fft_size(m: int) -> int:
    """Smallest 2^a 3^b 5^c >= m (1 for m <= 1): a length numpy's FFT transforms fast."""
    best = 1 << max(m - 1, 0).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            # p35 times the smallest power of two >= ceil(m / p35)
            best = min(best, p35 << (-(-m // p35) - 1).bit_length())
            p35 *= 3
        p5 *= 5
    return best


# Products of up to this many coefficients are summed directly, and longer ones taken
# by FFT.  At n = 2500 the reciprocal took 0.40 ms with the crossover at 512, against
# 0.42 ms at 256, 0.45 ms at 1024 and 0.63 ms by FFT alone.  On one Xeon core (medians
# of 9 x 50 runs) the quotient's three products took 60 us directly against 70 us by FFT
# at 512, and the Abel operator's two applications 24 us against 42 us at 511; the
# quotient crosses over between 640 and 768 coefficients, the Abel operator above 767.
_DIRECT_UP_TO = 512


def _product(a: np.ndarray, size: int):
    """f -> the first size coefficients of the power series a(z) f(z), the one product rule.

    A term of degree j >= size may wrap onto j - size, so a caller reads only the
    coefficients that no wrapped term reaches.  Up to _DIRECT_UP_TO coefficients the
    product is direct, in O(size^2) time that costs less than the FFTs' fixed work at
    these lengths; above it a's spectrum on the cyclic length _fft_size(size) is taken
    once, and each f costs one rfft/irfft pair.  An empty factor is the zero series.
    """
    if size > _DIRECT_UP_TO:
        cyclic = _fft_size(size)
        spectrum = np.fft.rfft(a, cyclic)
        return lambda f: np.fft.irfft(spectrum * np.fft.rfft(f, cyclic), cyclic)[:size]
    return lambda f: np.convolve(a, f)[:size] if len(a) and len(f) else np.zeros(max(size, 0))


# The second difference sqrt(0) - 2 sqrt(1) + sqrt(2) of sqrt(k): times sqrt(h), that of
# sqrt(t) on the first three grid nodes.
_ROOT_SECOND_DIFFERENCE = math.sqrt(2.0) - 2.0
# The rules' errors on sqrt(t) at t_k = k (see _sqrt_errors) are summed directly below
# this k, and from there on read from their expansions in powers of k^(-1/2).
_TAIL_FROM = 128
# Coefficients of k^(-1/2-i), i = 0..5, in the Abel rule's error: -zeta(-1/2),
# -zeta(-3/2)/6, ...  Each is K_i M_i + f_{i+1} N_{i+1}, with K_i and f_p the Taylor
# coefficients of the kernel (k - s)^(-1/2) at s = 0 and of sqrt(s) at s = k, and
# M_i = -sum_r 2 C(i+2, 2r+2) / ((i+1)(i+2)) zeta(2r - i - 1/2),
# N_p = -(4/3) sum_{even r >= 2} 2 C(p, r) zeta(r - p - 3/2): the generalized
# Euler-Maclaurin expansion for the singularities at the two ends of the integral.
_ABEL_TAIL = (0.20788622497735457, 0.004247533648305506, 0.01405750515831595,
              0.0027151703074327935, 0.003156911364071543, 0.0009843682598788496)
# The trapezoidal rule's error is -zeta(-1/2) less the Euler-Maclaurin terms of the
# sum of sqrt(j): -zeta(-1/2) + k^(-1/2) (-1/24 + k^-2/1920 - k^-4/9216).
_TRAP_LIMIT = 0.20788622497735457
_TRAP_TAIL = (-1.0 / 24.0, 1.0 / 1920.0, -1.0 / 9216.0)


def _horner(coefficients: tuple, x: np.ndarray, out: np.ndarray) -> np.ndarray:
    """out = sum_i coefficients[i] x^i, evaluated in place by Horner's rule."""
    out.fill(coefficients[-1])
    for c in coefficients[-2::-1]:
        out *= x
        out += c
    return out


def _sqrt_error_head() -> tuple[np.ndarray, np.ndarray]:
    """eps_k and tau_k of :func:`_sqrt_errors` for k below _TAIL_FROM, summed directly."""
    k = np.arange(_TAIL_FROM, dtype=float)
    root = np.sqrt(k)
    eps = 0.5 * math.pi * k - _product(_abel_kernel(_TAIL_FROM - 1, 1.0)[0], _TAIL_FROM)(root)
    tau = (2.0 / 3.0) * k * root - (np.cumsum(root) - 0.5 * root)
    return eps, tau


_EPS_HEAD, _TAU_HEAD = _sqrt_error_head()


def _sqrt_errors(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The Abel and trapezoidal rules' errors on sqrt(t) at t_k = k, k = 0..n.

    eps_k = (pi/2) k - sum_j a[k-j] sqrt(j) and tau_k = (2/3) k^(3/2) - (sum_{j<=k}
    sqrt(j) - sqrt(k)/2): the exact integrals of sqrt(t) less the rules, with
    :func:`_abel_kernel` at h = 1.  On the grid t_k = k h they scale to h eps_k and
    h^(3/2) tau_k.  Both are small (eps_k ~ 0.208/sqrt(k), tau_k -> 0.208), while the
    sums that they are differences of grow like k and k^(3/2); so below _TAIL_FROM they
    are summed, once at import, and every n reads the same bits there; from there on
    they come from their expansions in k^(-1/2), which hold them to 3e-17.
    """
    head = min(n + 1, _TAIL_FROM)
    eps, tau = np.empty(n + 1), np.empty(n + 1)
    eps[:head] = _EPS_HEAD[:head]
    tau[:head] = _TAU_HEAD[:head]
    r = np.arange(head, n + 1, dtype=float)
    np.sqrt(r, out=r)
    np.divide(1.0, r, out=r)  # k^(-1/2)
    x = r * r
    _horner(_ABEL_TAIL, x, eps[head:])
    eps[head:] *= r
    x *= x
    _horner(_TRAP_TAIL, x, tau[head:])
    tau[head:] *= r
    tau[head:] += _TRAP_LIMIT
    return eps, tau


def abel_history(samples: np.ndarray, h: float) -> np.ndarray:
    """Abel quadrature integral_0^{t_k} f(s)/sqrt(t_k - s) ds at every grid point t_k = k h.

    The product-integration rule, exact for piecewise-linear f, with one
    starting correction: f's sqrt(t) coefficient beta, the second difference
    of f_0, f_1, f_2 over that of sqrt(t), times the rule's error on sqrt(t),
    h eps_k (:func:`_sqrt_errors`).  The sum is the rule on f - beta sqrt(t)
    plus beta's exact (pi/2) t_k, so it is exact on a + b t + c sqrt(t), the
    start of every solution of the memory equation; below three samples it is
    the plain rule.  One causal product at every k at once (:func:`_product`):
    O(n log n) for n + 1 samples.  Entry 0 is 0.  This is the library's only read-back of
    the memory integral: the Basset force goes through it, and the Abel
    inversion check through its operator (:func:`_abel_operator`), built once
    for both of its layers.  A history that is not finite raises
    ArithmeticError, as an overflowing solve does.
    """
    f = np.asarray(samples, dtype=float)
    if f.ndim != 1 or len(f) == 0:
        raise ValueError("abel_history: samples must be a nonempty 1-d array")
    if not 0.0 < h < math.inf:
        raise ValueError(f"abel_history: h must be finite and > 0, got {h}")
    return _abel_operator(len(f) - 1, h)(f)


def _abel_operator(n: int, h: float):
    """:func:`abel_history` on n + 1 samples at step h, as a function of the samples.

    What depends on (n, h) alone is built once: the first node's weights,
    the lag weights' product on the full 2n - 1 coefficients, so that
    nothing wraps, and the rule's errors on sqrt(t).  Each application is
    then one product and the starting correction.
    """
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is raised when applied
        a, first = _abel_kernel(n, h)
        times_a = _product(a[:n], 2 * n - 1)
        first = first[1:]
        eps = _sqrt_errors(n)[0][1:] if n >= 2 else None

    def apply(f: np.ndarray) -> np.ndarray:
        out = np.zeros(n + 1)
        with np.errstate(over="ignore", invalid="ignore"):
            out[1:] = times_a(f[1:])[:n] + first * f[0]
            if n >= 2:
                beta = (f[0] - 2.0 * f[1] + f[2]) / (math.sqrt(h) * _ROOT_SECOND_DIFFERENCE)
                out[1:] += beta * h * eps
        if not np.isfinite(out).all():
            raise ArithmeticError(f"abel_history: the history is not finite at h={h:g}")
        return out

    return apply


def _reciprocal(t: np.ndarray, n: int) -> np.ndarray:
    """First n coefficients of the power series 1/t(z), t[0] != 0.

    Newton's iteration g <- g + g (1 - t g) (Kung, Numer. Math. 22, 1974,
    341).  When g holds the first k coefficients, t g = 1 + z^k r(z), so
    one pass needs only the coefficients k..m-1 of t g and appends those
    of -g r, doubling the length up to m = min(2k, n): O(n log n).  Both
    products of a pass are g's on m coefficients: every wrapped term of
    t g lands below k, and g r has degree below m.
    """
    g = np.array([1.0 / t[0]])
    k = 1
    while k < n:
        m = min(2 * k, n)
        times_g = _product(g, m)
        r = times_g(t[:m])[k:m]
        g = np.concatenate((g, -times_g(r)[:m - k]))
        k = m
    return g


def _quotient(t: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """First n = len(rhs) coefficients of the power series rhs(z) / t(z), t[0] != 0.

    Newton's reciprocal g = 1/t only to k = ceil(n/2) coefficients, then one
    step of Karp and Markstein (ACM TOMS 23, 1997, 561): q = g rhs mod z^k
    solves the first k equations, the remaining ones leave the residual
    rhs - t q = z^k e + O(z^n), and since n - k <= k, d = q + z^k (g e) mod z^n.
    Every product is on n coefficients, so each wrapped term of t q lands below k.
    """
    n = len(rhs)
    k = (n + 1) // 2
    times_g = _product(_reciprocal(t, k), n)
    q = times_g(rhs[:k])[:k]
    e = rhs[k:] - _product(t[:n], n)(q)[k:n]
    return np.concatenate((q, times_g(e)[:n - k]))


def _system(c: float, d0: float, h: float, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The solve's n steps as t(z) d(z) = rhs(z) in d_1..d_n, and the starting correction of u.

    Step k reads d_k + u_k + c * history_k = 1 with the trapezoidal
    u_k = u0 + h d0/2 + h (d_1 + .. + d_{k-1}) + h d_k/2.  Moving the known
    d_0 to the right-hand side leaves the Toeplitz system
    t[0] d_k + sum_{j<k} t[k-j] d_j = rhs_k.  The starting correction adds
    b F_k to row k and b h^(3/2) tau_k to u_k, where b = (d0 - 2 d_1 + d_2) / sigma
    is u''s sqrt(t) coefficient and F_k = h^(3/2) tau_k + c h eps_k the two
    rules' errors on sqrt(t).  Rows 1 and 2 give b in closed form, and rhs
    takes -b F.  Returns t, rhs and b h^(3/2) tau; the weights and errors are
    freed on return, and the division's buffers reuse their memory.
    """
    a, first = _abel_kernel(n, h)  # a large h overflows the weights themselves
    t = c * a + h
    t[0] = 1.0 + 0.5 * h + c * a[0]
    rhs = d0 * (1.0 - 0.5 * h - c * first[1:])
    eps, trap = _sqrt_errors(n)
    trap *= h * math.sqrt(h)  # in place, as below: each array is n long
    F = eps[1:]
    F *= c * h
    F += trap[1:]
    b = 0.0
    if n >= 2:  # rows 1 and 2 over t[0], in (d_1, b), with d_2 = b sigma - d0 + 2 d_1
        sigma = math.sqrt(h) * _ROOT_SECOND_DIFFERENCE
        m = t[1] / t[0] + 2.0
        r1 = rhs[0] / t[0]
        b = (rhs[1] / t[0] + d0 - m * r1) / (sigma + (F[1] - m * F[0]) / t[0])
    F *= b
    rhs -= F
    trap *= b
    return t, rhs, trap


def solve_ide(kappa: float, u0: float, h: float, T: float) -> Trajectory:
    """March the memory equation from u(0) = u0 to the horizon T with step h.

    kappa lies in (0, 9], the domain of the physical layer; kappa = 9 is
    the massless sphere (rho_s = 0).  Each step n is the scalar linear
    equation for u'(t_n) that the product-integration discretization
    produces (trapezoidal update for u, implicit diagonal Abel weight for
    the memory term).  All n steps together are one lower-triangular
    Toeplitz system, solved by :func:`_quotient` in O(n log n) time and
    O(n) memory.  Both rules carry the sqrt(t) starting correction: its
    coefficient b comes from steps 1 and 2 in closed form, so the division
    stays one.  Against the closed form the sup error is 1.7e-8 at h = 1e-3
    (kappa = 2.5), and the observed order is 1.77-1.94 in sup norm.
    An amplitude (1 - u0) sqrt(kappa) outside the double range is the
    ValueError of the other sphere solvers, which names u0 as eps; a solve
    that overflows raises ArithmeticError.
    """
    _check_kappa(kappa)
    _amplitude(kappa, u0)
    times = uniform_grid(h, T)
    n = len(times) - 1
    c = math.sqrt(kappa / math.pi)
    d0 = 1.0 - u0  # prescribed by the equation at tau = 0
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):  # raised below
        t, rhs, correction = _system(c, d0, h, n)
        d = np.concatenate(([d0], _quotient(t, rhs)))
        u = np.cumsum(np.concatenate(([u0], 0.5 * h * (d[:-1] + d[1:]))))
        u[1:] += correction[1:]
    if not np.isfinite(u).all():  # u_k is not finite where d_k is not
        raise ArithmeticError(f"solve_ide: the solution is not finite at kappa={kappa:g}")

    meta = {"solver": "ide", "kappa": kappa, "u0": u0, "h": h, "T": n * h}
    return Trajectory(times=times, values=u, derivatives=d, meta=meta)

