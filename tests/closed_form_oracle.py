"""Reference forms of the rest-start sphere solution for the test suite.

These are the sphere's own closed forms, written with the conjugate
roots alpha, beta of m^2 + (2-kappa)m + 1:

    u(tau)  = 1 + (sqrt(kappa)/(alpha-beta)) [Vi(alpha tau)/sqrt(alpha)
                                              - Vi(beta tau)/sqrt(beta)],
    u'(tau) = sqrt(kappa) Im{sqrt(alpha) Vi(alpha tau)} / Im{alpha}.

The library evaluates the same functions as u = 1 + sqrt(kappa) M(tau)
through the oscillator kernel, with one Villat call, which rounds
differently, so the tests compare the two to a tolerance.  The bracket
here evaluates Vi(beta tau) itself, an independent reference for the
conjugate symmetry the kernel relies on.  Both take the roots of ``char_roots`` and
sqrt(kappa) from kappa itself, never through the rounded b = 2 - kappa.
"""

from __future__ import annotations

import cmath
import math

from spherefall.analytic import char_roots
from spherefall.special import villat


def u_rest_reference(tau: float, kappa: float) -> float:
    """u(tau) from the 1/sqrt(alpha), 1/sqrt(beta) bracket."""
    roots = char_roots(kappa)
    a, b = roots.alpha, roots.beta
    bracket = villat(a * tau) / cmath.sqrt(a) - villat(b * tau) / cmath.sqrt(b)
    u = 1.0 + math.sqrt(kappa) / (a - b) * bracket
    assert abs(u.imag) <= 1e-13 * (1.0 + abs(u)), f"imaginary residue {u.imag!r} on {u!r}"
    return u.real


def u_rest_derivative_reference(tau: float, kappa: float) -> float:
    """u'(tau) from the guaranteed-real Im form; one Villat evaluation."""
    roots = char_roots(kappa)
    a = roots.alpha
    return math.sqrt(kappa) * (cmath.sqrt(a) * villat(a * tau)).imag / a.imag
