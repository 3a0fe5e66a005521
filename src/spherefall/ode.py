"""Fixed-step integrator and stability classifier for the forced oscillator family.

The initial value problem is

    v'' + b v' + v = -A / sqrt(pi (t + t0)),    t >= 0,

integrated as the first-order system x' = y, y' = -x - b y - G(t) with
classical fourth-order Runge-Kutta at a fixed step.  For t0 = 0 the
forcing is singular at the start, so the first few grid states are
taken from the closed-form solution (the library owns it) before the
integrator takes over; see ``solve_oscillator``.  The sphere is one
member of the family; see ``OscillatorProblem.sphere``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import analytic
from .trajectory import Trajectory, uniform_grid

__all__ = [
    "OscillatorProblem",
    "StabilityClass",
    "classify_homogeneous",
    "solve_oscillator",
]

_OVERFLOW_GUARD = 1e280
_BOOTSTRAP_STEPS = 32  # closed-form grid states that start a singular (t0 = 0) run


@dataclass(frozen=True)
class OscillatorProblem:
    """Damping b, forcing amplitude A, forcing offset t0 >= 0, and initial state."""

    b: float
    A: float
    t0: float
    v0: float
    v0_prime: float

    def __post_init__(self) -> None:
        if self.t0 < 0.0:
            raise ValueError(f"t0 must be >= 0, got {self.t0}")

    @classmethod
    def sphere(cls, kappa: float, eps: float) -> "OscillatorProblem":
        """The sphere released with u(0) = eps, as the oscillator for v = u - 1.

        b = 2 - kappa, A = (1 - eps) sqrt(kappa), t0 = 0, v0 = eps - 1 and
        v0' = 1 - eps, for kappa in (0, 4).  The initial state is the
        monotone one, v = A M(t).
        """
        roots, amplitude = analytic._sphere(kappa)
        return cls(b=roots.b, A=(1.0 - eps) * amplitude, t0=0.0, v0=eps - 1.0,
                   v0_prime=1.0 - eps)


@dataclass(frozen=True)
class StabilityClass:
    """Root kind and real-part sign of the homogeneous problem m^2 + b m + 1 = 0."""

    root_kind: str  # "complex-conjugate" | "real-distinct" | "real-double"
    re_sign: str  # "negative" | "zero" | "positive"


def classify_homogeneous(b: float) -> StabilityClass:
    """Classify the homogeneous roots: complex pair iff |b| < 2, sign of Re = sign(-b/2)."""
    if abs(b) < 2.0:
        kind = "complex-conjugate"
    elif abs(b) == 2.0:
        kind = "real-double"
    else:
        kind = "real-distinct"
    if b > 0.0:
        sign = "negative"
    elif b < 0.0:
        sign = "positive"
    else:
        sign = "zero"
    return StabilityClass(root_kind=kind, re_sign=sign)


def _rhs(t: float, x: float, y: float, b: float, A: float, t0: float) -> tuple[float, float]:
    return y, -x - b * y - A / math.sqrt(math.pi * (t + t0))


def solve_oscillator(prob: OscillatorProblem, h: float, T: float) -> Trajectory:
    """Integrate the forced oscillator to the horizon T with fixed step h.

    With t0 = 0 the forcing derivatives are unbounded at the start and a
    one-step method cannot hold its order there, so the first
    ``_BOOTSTRAP_STEPS`` grid states come from the closed form
    (:func:`spherefall.analytic.general_state`).  A diverging trajectory
    is truncated and flagged in ``meta['diverged']`` rather than raised:
    the divergence is the object under study.
    """
    times = uniform_grid(h, T)
    n = len(times) - 1
    b, A, t0 = prob.b, prob.A, prob.t0

    v = np.empty(n + 1)
    dv = np.empty(n + 1)
    v[0], dv[0] = prob.v0, prob.v0_prime
    start = 0
    if t0 == 0.0:
        start = min(_BOOTSTRAP_STEPS, n)
        for i in range(1, start + 1):
            v[i], dv[i] = analytic.general_state(i * h, b, A, 0.0, prob.v0, prob.v0_prime)

    diverged = False
    last = n
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
            diverged = True
            last = k
            break
        v[k + 1], dv[k + 1] = xn, yn

    meta = {
        "solver": "rk4",
        "b": b,
        "A": A,
        "t0": t0,
        "h": h,
        "T": last * h,
        "bootstrap_steps": start,
        "diverged": diverged,
    }
    return Trajectory(times=times[: last + 1], values=v[: last + 1], derivatives=dv[: last + 1], meta=meta)
