"""Direct-sum reference implementations of the Abel layer for the test suite.

These are the straightforward O(n^2) loops: the step-by-step march of
the memory equation and the per-index history sum.  The library
evaluates the same quadrature with FFT convolutions, which reorders the
floating-point sums, so the tests compare the two to a tolerance.
"""

from __future__ import annotations

import math

import numpy as np

from spherefall.ide import _abel_kernel


def _left_right(n: int, h: float) -> tuple[np.ndarray, np.ndarray]:
    """Far (left) and near (right) node weights of the cells 1..n steps back, from the kernel.

    a[m] = left_m + right_{m+1} and first[m] = left_m, so left = first[1:] and
    right = a[:-1] - first[:-1].
    """
    a, first = _abel_kernel(n, h)
    return first[1:], a[:-1] - first[:-1]


def solve_ide_direct(kappa: float, u0: float, h: float, T: float) -> tuple[np.ndarray, np.ndarray]:
    """u and u' on the grid, one scalar implicit step at a time."""
    n = max(1, int(round(T / h)))
    c = math.sqrt(kappa / math.pi)
    left, right = _left_right(n, h)
    u = np.empty(n + 1)
    d = np.empty(n + 1)
    u[0] = u0
    d[0] = 1.0 - u0
    denom = 1.0 + 0.5 * h + c * right[0]
    for k in range(1, n + 1):
        # History sum over known derivatives d_0 .. d_{k-1}.
        hist = left[0:k] @ d[k - 1 :: -1]
        if k >= 2:
            hist += right[1:k] @ d[k - 1 : 0 : -1]
        rhs = 1.0 - u[k - 1] - 0.5 * h * d[k - 1] - c * hist
        d[k] = rhs / denom
        u[k] = u[k - 1] + 0.5 * h * (d[k - 1] + d[k])
    return u, d


def abel_history_direct(samples: np.ndarray, h: float) -> np.ndarray:
    """Abel quadrature of the samples at every grid point, one dot product per point."""
    n = len(samples) - 1
    left, right = _left_right(max(n, 1), h)
    out = np.zeros(n + 1)
    for k in range(1, n + 1):
        out[k] = right[0:k] @ samples[k:0:-1] + left[0:k] @ samples[k - 1 :: -1]
    return out
