"""Verification engine: the model's guarantees as executable checks.

Everything here produces floating-point evidence, not proofs: the
monotone approach to terminal velocity, the negativity of the proof
integral that drives it, the equivalence of the memory-integral,
second-order-ODE and closed-form formulations, and the residuals of
discrete trajectories against the equations they claim to solve.  The
oracles take arrays, so the suite evaluates each oracle grid in one
call.  Results are reported as :class:`VerificationReport` values that
the CLI serializes to JSON.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, replace

import numpy as np

from . import analytic, ide, ode
from .analytic import _sphere, _sphere_samples
from .trajectory import MONOTONE_TOL, Trajectory, steps_against
from .special import (
    _require,
    _window_quadrature,
    AccuracyError,
    faddeeva,
    faddeeva_im_quadrature,
    faddeeva_re_quadrature,
    naive_villat,
    villat,
    villat_asymptotic,
)

__all__ = [
    "VerificationReport",
    "check_monotone",
    "proof_integral",
    "imag_sqrt_alpha_villat",
    "abel_identity_residual",
    "ode_residual",
    "run_default_suite",
]


@dataclass(frozen=True)
class VerificationReport:
    """Pass/fail record of one check: passed iff worst_violation <= tolerance."""

    check_id: str
    passed: bool
    worst_violation: float
    location: str
    tolerance: float

    @staticmethod
    def from_violation(
        check_id: str, worst: float, tolerance: float, location: str
    ) -> "VerificationReport":
        return VerificationReport(
            check_id=check_id,
            passed=bool(worst <= tolerance),
            worst_violation=float(worst),
            location=location,
            tolerance=float(tolerance),
        )


def _reduce(
    check_id: str, tolerance: float, violations, where, floor: float = 0.0
) -> VerificationReport:
    """Report the first largest entry (row-major) of the violation array, located by where(*index).

    When no entry beats the floor, the report carries the floor and the
    location "--".  A NaN entry is never below the floor: it is reported,
    and fails the check.
    """
    violations = np.asarray(violations, dtype=float)
    if violations.size:
        index = np.unravel_index(np.argmax(violations), violations.shape)
        if not violations[index] <= floor:
            return VerificationReport.from_violation(
                check_id, violations[index], tolerance, where(*index))
    return VerificationReport.from_violation(check_id, floor, tolerance, "--")


def _monotone(check_id: str, values, rises: bool, where) -> VerificationReport:
    """Report the steps of values, along the last axis, against an approach that rises or falls."""
    return _reduce(check_id, MONOTONE_TOL, steps_against(values, rises), where)


def check_monotone(traj: Trajectory) -> VerificationReport:
    """Pass iff no step moves against the approach by more than MONOTONE_TOL.

    The direction comes from the problem, never from the data: v = A M(t + t0) rises iff
    A >= 0 (meta "A", closed form and RK4, sphere or oscillator), and the memory-equation
    sphere rises iff u0 <= 1 (meta "u0"); with neither key the trajectory must rise.
    """
    t = traj.times
    rises = not traj.meta.get("A", 1.0 - traj.meta.get("u0", 0.0)) < 0.0
    return _monotone("monotone", traj.values, rises, lambda i: f"t={t[i + 1]:.6g}")


# ----------------------------------------------------------------------
# The sign integral behind the monotonicity result
# ----------------------------------------------------------------------

def _proof_peak(t, theta):
    """(-sqrt(t) sin(theta/2), sqrt(t) cos(theta/2)), after checking the domain.

    These are the peak and half-width of the Lorentzian factor 1/P of F,
    and the real and imaginary parts of the Faddeeva argument behind it.
    t and theta are floats or arrays that broadcast; an error names the
    first element outside the domain.
    """
    _require(t > 0.0, t, "t must be > 0, got {}")  # a NaN t fails too
    _require(t < math.inf, t, "t must be finite, got {}")
    _require((0.0 < theta) & (theta < math.pi), theta, "theta must lie in (0, pi), got {}")
    root = np.sqrt(t)
    return -root * np.sin(theta / 2.0), root * np.cos(theta / 2.0)


def proof_integral(t, theta):
    """Integral of F(s) = s exp(-s^2) / P(s) over |s| <= 9; strictly negative.

    With :func:`_proof_peak`, P(s) = (s + sqrt(t) sin(theta/2))^2 + t cos^2(theta/2):
    F is smooth, merely sharply peaked as theta -> pi.  A float, or arrays
    of t and theta that broadcast, take one call of ``_window_quadrature``
    with the numerator s.  An error estimate not below 1e-7 |I| leaves the
    sign unresolved (as does I = 0, which has none) and raises
    AccuracyError, naming the first such element, instead of returning an
    unverified number.
    """
    t, theta = np.asarray(t, dtype=float), np.asarray(theta, dtype=float)
    peak, width = _proof_peak(t, theta)
    value, est = _window_quadrature(lambda d, s, width: s, peak, width)
    _require(est < 1e-7 * np.abs(value), (value, est, t, theta),  # a NaN estimate fails too
             "proof_integral: sign unresolved (value={:.2e}, est={:.2e}) at t={}, theta={}",
             AccuracyError)
    return value


def imag_sqrt_alpha_villat(t, kappa):
    """Im{sqrt(alpha) Vi(alpha t)}, the quantity whose positivity makes u' > 0.

    Computed directly through the Villat function and cross-checked
    against the decomposition cos(theta/2) Im w + sin(theta/2) Re w at
    w(x + iy) with x = -sqrt(t) sin(theta/2), y = sqrt(t) cos(theta/2);
    disagreement beyond 1e-10 is an internal-consistency error, named at its
    first element.  Floats take the Python complex path, arrays broadcast.

    Both paths run the one Faddeeva kernel, at i sqrt(alpha t) and at
    x + iy, which are the same point: on verify's 6x6 grid the arguments
    agree to 2.5e-16 relative and the two w values to 5.4e-16.  So the check
    catches a fault in the decomposition, not in the kernel.  The kernel's
    independent referees are the quadrature oracles and ``proof_integral``,
    which equals -pi Im{sqrt(alpha) Vi(alpha t)} / cos(theta/2) for
    alpha = e^{i theta} (1.8e-12 relative on verify's proof grid).
    """
    alpha, sqrt_alpha = _sphere(kappa)[0]
    theta = np.angle(alpha)
    x, y = _proof_peak(t, theta)  # checks t before villat sees it
    direct = (sqrt_alpha * villat(alpha * t)).imag
    w = faddeeva(x + 1j * y)
    decomposed = np.cos(theta / 2.0) * w.imag + np.sin(theta / 2.0) * w.real
    _require(np.abs(direct - decomposed) <= 1e-10, (direct, decomposed, t, kappa),
             "imag_sqrt_alpha_villat: computation paths disagree ({} vs {} at t={}, kappa={})",
             ArithmeticError)
    return direct


# ----------------------------------------------------------------------
# Cross-formulation residuals
# ----------------------------------------------------------------------

def abel_identity_residual(traj: Trajectory) -> VerificationReport:
    """Check the inversion identity: the Abel transform of F(t) = I[u'](t) is pi (u - u(0)).

    Both layers are :func:`spherefall.ide.abel_history`, whose starting
    correction is exact on the sqrt-type growth of u' and of I[u'], so the
    identity holds from t = 0 on.  The deviation is measured on the
    trajectory's own scale, pi max|u - u(0)|, not pointwise against
    pi (u - u(0)), which vanishes at t = 0; a constant u reads its absolute
    deviation.  A memory-equation solve reads about 0.15 h^2 (1.54e-7 at
    kappa = 2.5, h = 1e-3) against the budget min(1e-2, 2 h^2).
    """
    h, t = traj.step(), traj.times
    read_back = ide._abel_operator(len(t) - 1, h)  # abel_history, built once for both layers
    outer = read_back(read_back(traj.derivatives))
    rise = math.pi * (traj.values - traj.values[0])
    scale = float(np.max(np.abs(rise))) or 1.0
    return _reduce("abel_identity", min(1e-2, 2.0 * h * h), np.abs(outer - rise) / scale,
                   lambda i: f"t={t[i]:.6g}")


def ode_residual(traj: Trajectory, kappa: float, u0: float) -> VerificationReport:
    """Residual of u'' + (2-kappa) u' + u = 1 + sqrt(kappa/(pi t)) (u0 - 1), integrated once from 0.

    u'(t) - u'(0) + (2 - kappa)(u - u0) + integral_0^t (u - 1) ds - 2 (u0 - 1) sqrt(kappa t/pi)
    vanishes from t = 0 on: nothing is differenced, and the singular forcing
    is integrated exactly.  The integral is the trapezoidal cumulative sum of
    u - 1, so a steady state reads exactly 0.  A memory-equation solve reads
    about 0.15 h^2 (1.45e-7 at kappa = 2.5, h = 1e-3) against the budget 2 h^2.
    """
    h, t, u, du = traj.step(), traj.times, traj.values, traj.derivatives
    excess = u - 1.0
    integral = np.cumsum(np.concatenate(([0.0], 0.5 * h * (excess[:-1] + excess[1:]))))
    resid = np.abs(du - du[0] + (2.0 - kappa) * (u - u0) + integral
                   - 2.0 * (u0 - 1.0) * np.sqrt(kappa * t / math.pi))
    return _reduce("ode_residual", 2.0 * h * h, resid, lambda i: f"t={t[i]:.6g}")


# ----------------------------------------------------------------------
# Default suite (used by the CLI `verify` command)
# ----------------------------------------------------------------------

_KAPPA_SET = (0.5, 1.0, 2.0, 2.5, 2.9, 3.5, 3.9)


def run_default_suite(h: float = 1e-3, points: int = 400) -> list[VerificationReport]:
    """Run every identity/monotonicity/residual check at desk scale.

    Returns one report per check; the CLI turns a failing report into
    exit status 2.  ``h`` controls the discrete-solver checks, whose
    budgets follow each scheme's order, and ``points`` (at least 2) the
    sampling density of the closed-form grids.  Any h from the solvers'
    domain (0 < h <= 10, the memory equation's horizon) runs every check;
    above about 0.016, ``oscillator_monotone_ic`` fails.  Memory grows as
    1/h: the oscillator's closed-form reference over its 20/h steps is formed
    while both trajectories (24 bytes a step, 10/h and 20/h steps) are held,
    and the traced peak is about 1,840/h bytes (18.4 MB at h = 1e-4 and 184 MB
    at 1e-5, with 20 points).
    """
    if points < 2:
        raise ValueError(f"points must be >= 2, got {points}")
    times = np.concatenate(([0.0], np.logspace(-3, 3, points)))
    kappas = np.array(_KAPPA_SET)[:, None]
    u, du = _sphere_samples(times, kappas)
    lead = np.sqrt(kappas / (100.0 * math.pi))
    grid = np.linspace(0.05, 3.95, 20)
    alpha, sqrt_alpha = _sphere(grid)[0]
    beta = alpha.conj()
    root_sum = np.sqrt(alpha) + np.sqrt(beta)  # numpy's complex square roots, a second route
    t_grid = np.logspace(-2, 3, 6)[:, None]
    thetas = np.linspace(math.pi / 12.0, math.pi * 11.0 / 12.0, 6)
    imag_kappas = np.linspace(0.3, 3.7, 6)

    reports = [
        # Monotone approach of the closed form; u' positive and falling.
        _monotone("closed_form_monotone", u, True,
                  lambda i, j: f"kappa={_KAPPA_SET[i]}, t={times[j + 1]:.6g}"),
        _reduce("closed_form_derivative_positive", 0.0, -du,
                lambda i, j: f"kappa={_KAPPA_SET[i]}, t={times[j]:.6g}"),
        _reduce("closed_form_derivative_decreasing", 0.0, du[:, 1:] - du[:, :-1],
                lambda i, j: f"kappa={_KAPPA_SET[i]}, t={times[j + 1]:.6g}"),
        # Leading-order terminal approach: u(100) - 1 ~ -sqrt(kappa/(100 pi)).
        _reduce("terminal_approach", 0.05,
                np.abs(_sphere_samples(np.array([100.0]), kappas)[0] - 1.0 + lead) / lead,
                lambda i, j: f"kappa={_KAPPA_SET[i]}"),
        # Characteristic-root identities.
        _reduce("root_identities", 1e-13,
                np.abs([alpha * beta - 1.0, alpha + beta - (grid - 2.0),
                        root_sum * root_sum - grid, np.abs(alpha) - 1.0,
                        sqrt_alpha * sqrt_alpha - alpha]).max(axis=0),
                lambda i: f"kappa={grid[i]:.4g}"),
        # Decoupling: u(0) = 1 + sqrt(kappa) M(0) = 0 for every kappa.
        _reduce("decoupling_v0", 1e-12,
                np.abs(_sphere_samples(np.zeros(1), grid[:, None])[0]),
                lambda i, j: f"kappa={grid[i]:.4g}"),
        # Sign integral of the monotonicity argument: strictly negative everywhere.
        _reduce("proof_integral_negative", 0.0, proof_integral(t_grid, thetas),
                lambda i, j: f"t={t_grid[i, 0]:.4g}, theta={thetas[j]:.4g}", floor=-math.inf),
        # Positivity of Im{sqrt(alpha) Vi(alpha t)}; its two paths share the Faddeeva kernel.
        _reduce("imag_sqrt_alpha_positive", 0.0, -imag_sqrt_alpha_villat(t_grid, imag_kappas),
                lambda i, j: f"t={t_grid[i, 0]:.4g}, kappa={imag_kappas[j]:.4g}"),
    ]

    # One memory-equation solve at kappa = 2.5 (the oscillator form is unstable, u monotone)
    # against the closed form and its own residuals.  The budget 0.1 h^2 follows the
    # scheme's order 2: the sup error reads 0.013-0.020 h^2 for h from 2.5e-6 to 0.9
    # (1.68e-8 at h = 1e-3, 1.83e-12 at 1e-5), and without the sqrt(t) start 9.7e-6 at
    # h = 1e-3 and 1.1e-8 at 1e-5, which fail it.  Its floor of 1e-12 sits above the
    # rounding, which first shows at h = 1.25e-6 (7.7e-14 at t = 9.8, n = 8e6).  Both
    # residuals hold from t = 0, so any h up to the horizon runs them.
    # h > 0 and h <= T are checked by the solve.
    traj = ode.sphere_trajectory("ide", 2.5, 0.0, h, 10.0)
    ide_tol = max(1e-12, h * h / 10)
    sup = float(np.max(np.abs(traj.values - _sphere_samples(traj.times, 2.5)[0])))
    reports.append(VerificationReport.from_violation(
        "ide_vs_closed_form", sup, ide_tol, "kappa=2.5, [0,10]"))
    reports.append(replace(check_monotone(traj), check_id="ide_monotone"))
    reports.append(ode_residual(traj, 2.5, 0.0))
    reports.append(abel_identity_residual(traj))

    # Unique monotone oscillator trajectory.  The budget follows RK4's order 4, capped at
    # 1e-6 and floored at 1e-9: the sup error reads 1.43e-11 at h = 1e-3 and 1.44e-7 at 1e-2.
    osc = ode.monotone_trajectory("ode", -1.0, 1.0, 1.0, h, 20.0)
    target, _ = analytic.monotone_kernel_samples(osc.times, -1.0, 1.0, 1.0)
    sup = float(np.max(np.abs(osc.values - target)))
    reports.append(VerificationReport.from_violation(
        "oscillator_monotone_ic", sup, min(1e-6, max(1e-9, 100.0 * h ** 4)), "b=-1, A=1, t0=1"))
    reports.append(replace(check_monotone(osc), check_id="oscillator_monotone"))

    # Fast special-function path against the integral-representation oracles.
    xs, ys = np.linspace(-2.0, 2.0, 5)[:, None], np.linspace(0.4, 2.0, 5)
    w = faddeeva(xs + 1j * ys)
    reports.append(_reduce("faddeeva_vs_quadrature", 1e-10,
                           np.maximum(np.abs(w.real - faddeeva_re_quadrature(xs, ys)),
                                      np.abs(w.imag - faddeeva_im_quadrature(xs, ys))),
                           lambda i, j: f"x={xs[i, 0]:.3g}, y={ys[j]:.3g}"))

    # Derivative identity d/dz Vi = Vi - 1/sqrt(pi z), by central differences with
    # the step at the cube root of machine epsilon, the central-difference optimum.
    zs = (0.7 + 0j, 4.0 + 1.5j, 25.0 + 40.0j, 2.0 - 3.0j, 100.0 + 0j)
    z = np.array(zs)
    step = 2.2e-16 ** (1.0 / 3.0) * np.maximum(1.0, np.abs(z))
    exact = villat(z) - 1.0 / np.sqrt(math.pi * z)
    fd = (villat(z + step) - villat(z - step)) / (2.0 * step)
    reports.append(_reduce("villat_derivative_identity", 1e-6, np.abs(fd - exact) / np.abs(exact),
                           lambda i: f"z={zs[i]}"))

    # Divergent-series tail against the stable evaluation at large |z|.
    radii, phases = np.array([1e3, 1e4, 1e5])[:, None], np.array([0.0, 0.5, 1.5, 2.0])
    z = radii * np.exp(1j * phases)
    stable = villat(z)
    reports.append(_reduce("villat_asymptotic_match", 1e-6,
                           np.abs(villat_asymptotic(z, 5).value - stable) / np.abs(stable),
                           lambda i, j: f"|z|={radii[i, 0]:.2g}, arg={phases[j]}"))

    # The unstable textbook evaluation must visibly fail where the stable one holds.
    z_blow = 400.0 * cmath.exp(1j * math.pi / 3.0)
    try:
        rel = abs(naive_villat(z_blow) - villat(z_blow)) / abs(villat(z_blow))
    except OverflowError:
        rel = math.inf
    reports.append(VerificationReport.from_violation(
        "naive_villat_blowup", max(0.0, 1e-3 - min(rel, 1.0)), 0.0,
        f"rel_disagreement={rel:.3g}"))

    return reports
