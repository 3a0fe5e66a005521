"""Textbook four-stage RK4 reference for the oscillator integrator in the test suite.

This is the straightforward loop: four right-hand-side evaluations per
step on the first-order system x' = y, y' = -x - b y - G(t).  The
library takes the same steps as a blocked prefix scan of the fused
affine step x_{k+1} = P x_k + g_k: doubling passes within blocks of up
to 64 steps, a carry of each block's start state, and the powers
P^j - I doubled in increment form.  That groups the floating-point
operations differently, so the tests compare the two to a tolerance,
and the row where a diverging run is cut exactly.  The series start
(the states up to t + t0 = 1, summed from a Taylor series in
sqrt(t + t0)) and the overflow guard are the library's own.
"""

from __future__ import annotations

import math

import numpy as np

from spherefall.ode import _OVERFLOW_GUARD, OscillatorProblem, _series_start


def _rhs(t: float, x: float, y: float, b: float, A: float, t0: float) -> tuple[float, float]:
    return y, -x - b * y - A / math.sqrt(math.pi * (t + t0))


def solve_oscillator_loop(prob: OscillatorProblem, h: float, T: float) -> tuple[np.ndarray, np.ndarray]:
    """v and v' on the grid t_k = k h, one four-stage step at a time, cut before the first overflow."""
    n = max(1, int(round(T / h)))
    b, A, t0 = prob.b, prob.A, prob.t0
    states = np.empty((2, n + 1))
    states[:, 0] = prob.v0, prob.v0_prime
    v, dv = states
    with np.errstate(over="ignore", invalid="ignore"):
        start, started = _series_start(prob, np.arange(n + 1) * h, states)
    if not started:
        return v[:1], dv[:1]
    for k in range(start, n):
        t = k * h
        x, y = v[k], dv[k]
        k1x, k1y = _rhs(t, x, y, b, A, t0)
        k2x, k2y = _rhs(t + 0.5 * h, x + 0.5 * h * k1x, y + 0.5 * h * k1y, b, A, t0)
        k3x, k3y = _rhs(t + 0.5 * h, x + 0.5 * h * k2x, y + 0.5 * h * k2y, b, A, t0)
        k4x, k4y = _rhs(t + h, x + h * k3x, y + h * k3y, b, A, t0)
        xn = x + (h / 6.0) * (k1x + 2.0 * k2x + 2.0 * k3x + k4x)
        yn = y + (h / 6.0) * (k1y + 2.0 * k2y + 2.0 * k3y + k4y)
        if not (math.isfinite(xn) and math.isfinite(yn)) or max(abs(xn), abs(yn)) > _OVERFLOW_GUARD:
            return v[: k + 1], dv[: k + 1]
        v[k + 1], dv[k + 1] = xn, yn
    return v, dv
