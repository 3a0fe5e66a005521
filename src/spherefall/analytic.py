"""Closed-form transient solutions built on the Villat function.

Covers the characteristic roots of m^2 + (2-kappa)m + 1, the monotone kernel M(t) of the
damped oscillator with 1/sqrt(pi(t+t0)) forcing, the sphere released with u(0) = eps,
which is that oscillator: u(tau) = 1 + (1 - eps) sqrt(kappa) M(tau; b = 2 - kappa)
(``_sphere`` alone maps kappa, never the rounded b, to the roots and A and checks kappa
in (0, 4) and a finite A), and the unique initial conditions whose trajectory stays
monotone despite an unstable homogeneous problem.  Every closed-form value comes from one
evaluator of (M, M'), one Faddeeva evaluation: the roots are a conjugate pair, so M and
M' are imaginary parts over Im alpha.  ``_check_kappa`` and ``_check_damping`` own the
physical kappa bound (0, 9] and the damping bound (-2, 2), for every solver and layer.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .special import _require, _w_rational

__all__ = [
    "CharRoots",
    "MonotoneIC",
    "char_roots",
    "u_rest",
    "u_rest_derivative",
    "monotone_kernel_M",
    "monotone_kernel_samples",
    "monotone_initial_conditions",
]


@dataclass(frozen=True)
class CharRoots:
    """Roots of m^2 + (2-kappa)m + 1 = 0 with alpha the Im >= 0 (or larger) root."""

    alpha: complex
    beta: complex
    b: float  # damping coefficient, b = 2 - kappa

    def __post_init__(self) -> None:
        if abs(self.alpha * self.beta - 1.0) > 1e-12:
            raise ValueError("CharRoots: root product must be 1")
        if abs(self.alpha + self.beta + self.b) > 1e-12:
            raise ValueError("CharRoots: root sum must be -b")


@dataclass(frozen=True)
class MonotoneIC:
    """Initial state (v0, v0') of the monotone trajectory."""

    v0: float
    v0_prime: float


def _check_kappa(kappa: float, owner: str = "") -> None:
    """The one error, after owner, of a kappa outside (0, 9]; 9 is the massless sphere."""
    if not 0.0 < kappa <= 9.0:  # a NaN fails too
        raise ValueError(f"{owner}kappa must lie in (0, 9], got {kappa}")


def _check_damping(b) -> None:
    """The one error of a damping b outside (-2, 2), named at its first such element, NaN too."""
    _require((-2.0 < b) & (b < 2.0), b, "damping coefficient must lie in (-2, 2), got {}")


def _roots(p, q):
    """(alpha, sqrt(alpha)) of m^2 + b m + 1 from the factors p = 2 - b, q = 2 + b of 4 - b^2.

    alpha = (p - 2)/2 + i sqrt(p q)/2 (p + q = 4), and sqrt(alpha) = (sqrt(p) + i sqrt(q))/2
    takes real square roots only; the other root is conj(alpha).  Factors of one or more
    dimensions give complex arrays of their shape, each element the bits of the scalar
    values (Python complex, as for a float or 0-d factor).
    """
    re, im = (p - 2.0) / 2.0, np.sqrt(p * q) / 2.0
    sre, sim = np.sqrt(p) / 2.0, np.sqrt(q) / 2.0
    if np.ndim(p) == 0:
        return complex(re, im), complex(sre, sim)
    return re + 1j * im, sre + 1j * sim


def _roots_from_damping(b):
    """``_roots`` of the damping b in (-2, 2) (``_check_damping``): the factors 2 - b and 2 + b."""
    _check_damping(b)
    return _roots(2.0 - b, 2.0 + b)


def char_roots(kappa: float) -> CharRoots:
    """Characteristic roots for density parameter kappa in (0, 9], kappa != 4.

    alpha, beta = (kappa - 2 +- sqrt(kappa (kappa - 4)))/2: a complex conjugate pair for
    kappa < 4 (alpha with Im > 0, |alpha| = 1), real distinct roots for kappa > 4 (alpha
    the larger).  The double roots at kappa = 4 and where b rounds to 2 are rejected.
    """
    _check_kappa(kappa)
    if kappa == 4.0:
        raise ValueError("kappa = 4 is the degenerate double-root case")
    if kappa < 4.0:
        _sphere(kappa)  # the sphere's floor: b = 2 - kappa must not round to 2
    disc = cmath.sqrt(kappa * (kappa - 4.0))
    return CharRoots((kappa - 2.0 + disc) / 2.0, (kappa - 2.0 - disc) / 2.0, 2.0 - kappa)


def _sphere(kappa, eps=0.0):
    """(roots, A) of the sphere from u(0) = eps: v'' + b v' + v = -A/sqrt(pi t) for v = u - 1.

    Both come from kappa, not the rounded b = 2 - kappa: ``_roots`` of the factors kappa and
    4 - kappa of 4 - b^2, and ``_amplitude``.  kappa, a float or a (k, 1) column, lies in
    (0, 4) and above b's floor, since RK4 integrates with b (``OscillatorProblem.sphere``).
    """
    _require((0.0 < kappa) & (kappa < 4.0), kappa, "kappa must lie in (0, 4), got {}")
    _require(2.0 - kappa != 2.0, kappa, "kappa={} is too small: b = 2 - kappa rounds to 2")
    return _roots(kappa, 4.0 - kappa), _amplitude(kappa, eps)


def _amplitude(kappa, eps):
    """A = (1 - eps) sqrt(kappa), the amplitude of every sphere solver, if it is a double."""
    if isinstance(kappa, np.ndarray):
        with np.errstate(over="ignore"):  # an amplitude past the largest double is named below
            A = (1.0 - eps) * np.sqrt(kappa)
    else:
        A = (1.0 - eps) * math.sqrt(kappa)
    _require(abs(A) < math.inf, (eps, kappa),  # a NaN fails too
             "eps={} puts the amplitude (1 - eps) sqrt(kappa) outside the double range at kappa={}")
    return A


def _sphere_samples(t, kappa, eps=0.0):
    """(u, u') = (1 + A M(t), A M'(t)) of the sphere from u(0) = eps; (k, 1) kappas give (k, n)."""
    am, adm = _kernel_samples(t, *_sphere(kappa, eps), 0.0)
    return 1.0 + am, adm


def u_rest(tau: float, kappa: float) -> float:
    """Velocity of a sphere released from rest, in units of terminal velocity.

    u(tau) = 1 + sqrt(kappa) M(tau; 2 - kappa), the eps = 0 case of ``_sphere_samples``:
    u(0) = 0 and u -> 1.
    """
    return _sphere_samples(tau, kappa)[0]


def u_rest_derivative(tau: float, kappa: float) -> float:
    """du/dtau for the rest-start solution: u'(tau) = sqrt(kappa) M'(tau; 2 - kappa).

    u' = sqrt(kappa) Im{sqrt(alpha) Vi(alpha tau)} / Im{alpha} > 0, continuous at tau = 0
    with u'(0) = 1; with eps != 0 the derivative scales by (1 - eps).
    """
    return _sphere_samples(tau, kappa)[1]


def monotone_kernel_M(t: float, b: float) -> float:
    """Monotone kernel M(t) = (1/(alpha-beta)) [sqrt(beta) Vi(alpha t) - sqrt(alpha) Vi(beta t)].

    For b in (-2, 2) this is negative and increases monotonically to 0.
    """
    return monotone_kernel_samples(t, b, 1.0, 0.0)[0]


def monotone_kernel_samples(times, b, A, t0: float):
    """(A M(t + t0), A M'(t + t0)) of the damping b at a time or times, by ``_kernel_samples``."""
    return _kernel_samples(times, _roots_from_damping(b), A, t0)


def _kernel_samples(times, roots, A, t0: float):
    """(A M(t + t0), A M'(t + t0)) for roots = (alpha, sqrt(alpha)): the one evaluator of (M, M').

    M = [sqrt(beta) Vi(alpha t) - sqrt(alpha) Vi(beta t)] / (alpha - beta) and
    M' = [alpha sqrt(beta) Vi(alpha t) - beta sqrt(alpha) Vi(beta t)] / (alpha - beta)
    are, for beta = conj(alpha) and |alpha| = 1, the quotients
    M = Im{conj(sqrt(alpha)) Vi} / Im alpha and M' = Im{sqrt(alpha) Vi} / Im alpha
    of Vi = Vi(alpha t) = w(i sqrt(alpha) sqrt(t)): one call of the Faddeeva kernel, as in
    ``villat``, at an argument of imaginary part Re sqrt(alpha) sqrt(t) >= 0, so no
    reflection and no branch cut for any t >= 0.  Roots of a float take the Python complex
    path; array times broadcast against (k, 1) columns of roots and A, each entry the
    scalar value up to the last bits.
    """
    with np.errstate(over="ignore"):  # a t + t0 past the largest double is named below
        t = np.add(times, t0)
    _require(t >= 0.0, t, "t must be >= 0, got {}")
    _require(t < math.inf, t, "t must be finite, got {}")
    alpha, sqrt_alpha = roots
    # sqrt(alpha) of a float is a Python complex, and so is its product with numpy's sqrt(t).
    va = _w_rational(1j * sqrt_alpha * np.sqrt(t))
    return (A * ((sqrt_alpha.conjugate() * va).imag / alpha.imag),
            A * ((sqrt_alpha * va).imag / alpha.imag))


def monotone_initial_conditions(b: float, A: float, t0: float) -> MonotoneIC:
    """The unique initial state whose trajectory is the monotone one, v(t) = A M(t+t0).

    Returns (A M(t0), A M'(t0)), the start that leaves no growing homogeneous mode.
    For the sphere (b = 2 - kappa, A = sqrt(kappa), t0 = 0), v0 = -1 and v0' = 1.
    """
    _require(t0 >= 0.0, t0, "t0 must be >= 0, got {}")
    _require(t0 < math.inf, t0, "t0 must be finite, got {}")
    return MonotoneIC(*monotone_kernel_samples(0.0, b, A, t0))
