"""Direct-sum reference implementations of the Abel layer for the test suite.

These are the straightforward O(n^2) loops: the step-by-step march of
the memory equation and the per-index history sum, both with the
sqrt(t) starting correction written out row by row, and the power
series reciprocal by forward substitution.  They read the
rules' errors on sqrt(t) from ``ide._sqrt_errors``, as they read the
weights from ``ide._abel_kernel``; the tests pin both against 40-digit
sums.  The library evaluates the same quadrature with FFT convolutions,
which reorders the floating-point sums, so the tests compare the two to
a tolerance.
"""

from __future__ import annotations

import math

import numpy as np

from spherefall.ide import _abel_kernel, _sqrt_errors


def _left_right(n: int, h: float) -> tuple[np.ndarray, np.ndarray]:
    """Far (left) and near (right) node weights of the cells 1..n steps back, from the kernel.

    a[m] = left_m + right_{m+1} and first[m] = left_m, so left = first[1:] and
    right = a[:-1] - first[:-1].
    """
    a, first = _abel_kernel(n, h)
    return first[1:], a[:-1] - first[:-1]


def _sqrt_coefficient(f: np.ndarray, h: float) -> float:
    """beta = (f_0 - 2 f_1 + f_2) / (sqrt(2h) - 2 sqrt(h)): f's sqrt(t) coefficient, 0 below 3 samples."""
    return (f[0] - 2.0 * f[1] + f[2]) / (math.sqrt(2.0 * h) - 2.0 * math.sqrt(h)) if len(f) > 2 else 0.0


def solve_ide_direct(kappa: float, u0: float, h: float, T: float) -> tuple[np.ndarray, np.ndarray]:
    """u and u' on the grid, one scalar implicit step at a time.

    Row k reads d_k + u_k + c H_k = 1, where the trapezoidal u_k and the Abel
    sum H_k each add b times their rule's error on sqrt(t), and
    b = (d_0 - 2 d_1 + d_2) / sigma.  Rows 1 and 2 are one 3x3 solve in
    (d_1, d_2, b); every later row is one scalar step.  With one step, b = 0.
    """
    n = max(1, int(round(T / h)))
    c = math.sqrt(kappa / math.pi)
    left, right = _left_right(n, h)
    eps, tau = _sqrt_errors(n)
    trap = h**1.5 * tau
    F = trap + c * h * eps
    d = np.empty(n + 1)
    d[0] = 1.0 - u0
    denom = 1.0 + 0.5 * h + c * right[0]

    def known(k: int) -> float:
        """Row k's plain terms in d_0 .. d_{k-1}."""
        hist = left[0:k] @ d[k - 1 :: -1] + right[1:k] @ d[k - 1 : 0 : -1]
        return u0 + h * (0.5 * d[0] + d[1:k].sum()) + c * hist

    b = 0.0
    if n >= 2:
        # Row 2 reads d_1 through h + c (left_0 + right_1): known(2) at d_1 = 0, plus that.
        d[1] = 0.0
        sigma = math.sqrt(2.0 * h) - 2.0 * math.sqrt(h)
        system = [[denom, 0.0, F[1]],
                  [h + c * (left[0] + right[1]), denom, F[2]],
                  [-2.0, 1.0, -sigma]]
        d[1], d[2], b = np.linalg.solve(system, [1.0 - known(1), 1.0 - known(2), -d[0]])
    for k in range(3 if n >= 2 else 1, n + 1):
        d[k] = (1.0 - known(k) - b * F[k]) / denom
    u = u0 + np.concatenate(([0.0], np.cumsum(0.5 * h * (d[:-1] + d[1:])))) + b * trap
    return u, d


def abel_history_direct(samples: np.ndarray, h: float) -> np.ndarray:
    """Abel quadrature of the samples at every grid point, one dot product per point.

    Each sum adds beta h eps_k, beta times the rule's error on sqrt(t).
    """
    n = len(samples) - 1
    left, right = _left_right(max(n, 1), h)
    beta = _sqrt_coefficient(samples, h)
    eps = _sqrt_errors(n)[0]
    out = np.zeros(n + 1)
    for k in range(1, n + 1):
        out[k] = right[0:k] @ samples[k:0:-1] + left[0:k] @ samples[k - 1 :: -1] + beta * h * eps[k]
    return out


def reciprocal_direct(t: np.ndarray, n: int) -> np.ndarray:
    """First n coefficients of the power series 1/t(z), one dot product per coefficient.

    g_0 = 1/t_0 and g_k = -(t_1 g_{k-1} + ... + t_k g_0) / t_0: the coefficient k of t g is 0.
    """
    g = np.empty(n)
    g[0] = 1.0 / t[0]
    for k in range(1, n):
        g[k] = -(t[1 : k + 1] @ g[k - 1 :: -1]) / t[0]
    return g
