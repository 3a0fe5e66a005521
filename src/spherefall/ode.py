"""Fixed-step integrator and stability classifier for the forced oscillator family.

The initial value problem is

    v'' + b v' + v = -A / sqrt(pi (t + t0)),    t >= 0,

integrated as the first-order system x' = y, y' = -x - b y - G(t) with
classical fourth-order Runge-Kutta at a fixed step, started across the
forcing's singularity by its own Taylor series in sqrt(t + t0); see
``solve_oscillator``.  The sphere is one member of the family (``OscillatorProblem.sphere``);
``sphere_trajectory`` and ``monotone_trajectory`` are the one entry point to every solver,
and ``_SOLVERS`` the one list of their names.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import analytic, ide
from .special import SQRT_PI
from .trajectory import Trajectory, guard_monotone, uniform_grid

__all__ = [
    "OscillatorProblem",
    "StabilityClass",
    "classify_homogeneous",
    "monotone_trajectory",
    "solve_oscillator",
    "sphere_trajectory",
]

# Every solver's name, in the order compare runs them.
_SOLVERS = ("closed-form", "ide", "ode")
_OVERFLOW_GUARD = 1e280
_SERIES_END = 1.0  # the series start covers the nodes with t + t0 <= _SERIES_END
_SERIES_TERMS = 128  # most Taylor terms of the series start; one that needs more flags the run
_BLOCK_STEPS = 16384  # steps per segment of forcing samples and scan temporaries, to keep memory flat
# Most steps in one block of the prefix scan; divides _BLOCK_STEPS.  A block of L steps
# costs log2 L doubling passes, and a segment n/L Python carries: 64 was the fastest of
# 16 to 1024 at n = 2e4, 1e5 and 1e6, for stable and unstable b.
_SCAN_STEPS = 64
_POWER_BOUND = 4.0  # largest entry of P^j - I that a scan block may use; see _step_powers
_STABLE_STEP = 2.6  # RK4 is stable below it for all b >= 0 (the least bound is 2.616, at b = 1.06)


@dataclass(frozen=True)
class OscillatorProblem:
    """Damping b, forcing amplitude A, forcing offset t0 >= 0, and initial state, all finite."""

    b: float
    A: float
    t0: float
    v0: float
    v0_prime: float

    def __post_init__(self) -> None:
        if not self.t0 >= 0.0:  # a NaN t0 fails too
            raise ValueError(f"t0 must be >= 0, got {self.t0}")
        # A non-finite field is a domain error, not a trajectory that diverges at T = 0.
        for name in ("b", "A", "t0", "v0", "v0_prime"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")

    @classmethod
    def sphere(cls, kappa: float, eps: float) -> "OscillatorProblem":
        """The sphere released with u(0) = eps, as the oscillator for v = u - 1 that RK4 integrates.

        RK4's damping b = 2 - kappa, and A = (1 - eps) sqrt(kappa) and the kappa checks of
        :func:`spherefall.analytic._sphere`; t0 = 0, v0 = eps - 1 and v0' = 1 - eps (monotone).
        """
        A = analytic._sphere(kappa, eps)[1]
        return cls(b=2.0 - kappa, A=A, t0=0.0, v0=eps - 1.0, v0_prime=1.0 - eps)


@dataclass(frozen=True)
class StabilityClass:
    """Root kind and real-part sign of the homogeneous problem m^2 + b m + 1 = 0."""

    root_kind: str  # "complex-conjugate" | "real-distinct" | "real-double"
    re_sign: str  # "negative" | "zero" | "positive"


def classify_homogeneous(b: float) -> StabilityClass:
    """Classify the homogeneous roots: complex pair iff |b| < 2, sign of Re = sign(-b/2)."""
    if np.isnan(b):
        raise ValueError(f"b must not be NaN, got {b}")
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


def _step_powers(E: np.ndarray) -> np.ndarray:
    """E_j = P^j - I for j = 1, ..., L as an (L, 2, 2) array, P = I + E.

    Doubled in increment form, E_{m+j} = (E_m + E_j) + E_m E_j: a rounded
    P = I + E would lose E's low bits.  L is the largest power of two up to
    ``_SCAN_STEPS`` whose powers all stay within ``_POWER_BOUND`` (1 if E
    itself does not).  The bound keeps a block's start state s from
    cancelling in s + E_j s by more than a few ulps of s (the bounded run of
    an unstable oscillator is such a cancellation), and every power far from
    overflow, where a power times a zero state would give inf * 0 = NaN.
    """
    powers = E[None]
    while len(powers) < _SCAN_STEPS:
        more = (powers[-1] + powers) + powers[-1] @ powers
        if not np.max(np.abs(more)) <= _POWER_BOUND:  # a NaN power stops too
            break
        powers = np.concatenate([powers, more])
    return powers


def _scan(gx: np.ndarray, gy: np.ndarray, x: float, y: float, powers: np.ndarray) -> np.ndarray:
    """The states x_1, ..., x_m of x_{k+1} = P x_k + g_k from x_0 = (x, y), as a (2, m) array.

    A blocked prefix scan over blocks of L = len(powers) steps.  Within all
    blocks at once, log2 L doubling passes u[d:] += P^d u[:-d] turn the
    forcing into each block's response from rest, u_j = sum_i P^(j-i) g_i
    (each term meets at most log2 L rounded P^d, so these need no increment
    form).  One 2x2 step per block carries its start state s, and the
    states are x = s + (E_j s + u_j).  L = 1 is the fused step itself.
    """
    L, m = len(powers), len(gx)
    blocks = -(-m // L)
    u, w = np.zeros((2, blocks * L))
    u[:m], w[:m] = gx, gy
    u, w = u.reshape(blocks, L), w.reshape(blocks, L)
    d = 1
    while d < L:
        (e00, e01), (e10, e11) = powers[d - 1].tolist()
        pu, pw = u[:, :-d], w[:, :-d]
        du, dw = (1.0 + e00) * pu + e01 * pw, e10 * pu + (1.0 + e11) * pw
        u[:, d:] += du
        w[:, d:] += dw
        d *= 2
    (e00, e01), (e10, e11) = powers[-1].tolist()
    starts = []
    for cu, cw in zip(u[:, -1].tolist(), w[:, -1].tolist()):
        starts.append((x, y))
        x, y = x + (e00 * x + e01 * y + cu), y + (e10 * x + e11 * y + cw)
    sx, sy = np.array(starts).T[:, :, None]
    (e00, e01), (e10, e11) = powers.transpose(1, 2, 0)
    states = np.array([sx + (e00 * sx + e01 * sy + u), sy + (e10 * sx + e11 * sy + w)])
    return states.reshape(2, -1)[:, :m]


def _series_start(prob: OscillatorProblem, times: np.ndarray, x: np.ndarray) -> tuple[int, bool]:
    """(m, ok): fill x[:, 1 : m + 1] from x[:, 0] at the m nodes with t + t0 <= ``_SERIES_END``.

    In s = sqrt(t + t0), dv/ds = 2 s v' and dv'/ds = -2 s (v + b v') - 2A/sqrt(pi): v and v'
    are entire in s.  Their Taylor coefficients in sigma = s - s0, s0 = sqrt(t0), follow from
    j c_j = 2 (s0 y_{j-1} + y_{j-2}), j y_j = -2 (s0 (c_{j-1} + b y_{j-1}) + c_{j-2} + b y_{j-2}),
    less 2A/sqrt(pi) at j = 1.  Horner in sigma_k = t_k / (s_k + s0) (no cancellation) sums
    them until two terms in a row, at the last node, are below half an ulp of the largest.
    Node 1 is a series node at least; none is from t0 on.  ok is False past ``_SERIES_TERMS``
    terms, where a term or a state overflows, or where the terms outgrow the states 2^26-fold.
    """
    b, t0 = prob.b, prob.t0
    if not t0 < _SERIES_END:
        return 0, True
    m = min(len(times) - 1, max(1, int(np.searchsorted(times, _SERIES_END - t0, "right")) - 1))
    s0, t = math.sqrt(t0), times[1 : m + 1]
    sigma = t + t0
    np.sqrt(sigma, out=sigma)
    sigma += s0
    np.divide(t, sigma, out=sigma)
    c, y = [0.0, prob.v0], [0.0, prob.v0_prime]  # from j = -1, whose coefficients are zero
    force, reach, power = 2.0 * prob.A / SQRT_PI, float(sigma[-1]), 1.0
    term = largest = max(abs(prob.v0), abs(prob.v0_prime))
    for j in range(1, _SERIES_TERMS):
        c.append(2.0 * (s0 * y[j] + y[j - 1]) / j)
        y.append(-(2.0 * (s0 * (c[j] + b * y[j]) + c[j - 1] + b * y[j - 1]) + force) / j)
        force, power = 0.0, power * reach
        previous, term = term, max(abs(c[-1]), abs(y[-1])) * power
        largest = max(largest, term)
        if max(previous, term) <= 2.0**-53 * largest:
            break
    else:
        return m, False
    states = x[:, 1 : m + 1]
    states[:] = [[c[-1]], [y[-1]]]
    for cj, yj in zip(c[-2:0:-1], y[-2:0:-1]):
        states *= sigma
        states += [[cj], [yj]]
    bound = max(np.max(x[:, : m + 1]), -np.min(x[:, : m + 1]))  # NaN from a NaN term or state
    return m, bound <= _OVERFLOW_GUARD and largest <= 2.0**26 * bound


def solve_oscillator(prob: OscillatorProblem, h: float, T: float) -> Trajectory:
    """Integrate the forced oscillator to the horizon T with fixed step h.

    RK4 on x' = Mx + F(t), M = [[0, 1], [-1, -b]], F = (0, -G), is exactly
    x_{k+1} = x_k + (E x_k + g_k), g_k = Q0 F(t_k) + Qh F(t_k + h/2) + Q1 F(t_{k+1}),
    with Z = hM, E = Z + Z^2/2 + Z^3/6 + Z^4/24 (the stability function minus I),
    Q0 = (h/6)(I + Z + Z^2/2 + Z^3/4), Qh = (h/6)(4I + 2Z + Z^2/2), Q1 = (h/6)I.
    The forcing is sampled in numpy segments of ``_BLOCK_STEPS`` steps, and
    each segment is one blocked prefix scan (``_scan``) of the affine step
    x_{k+1} = P x_k + g_k, P = I + E, with no Python loop per step; its
    powers P^j - I and block length come from ``_step_powers``.

    The k-th forcing derivative grows like (t + t0)^(-k-1/2), too fast near
    t + t0 = 0 for a one-step method to hold its order, so the states up to
    t + t0 = 1 (``meta['series_steps']``) come from ``_series_start``: the
    run converges at order 4 in h at every t0 >= 0, for b in (-2, 2).
    A diverging trajectory is truncated and flagged in ``meta['diverged']``
    rather than raised: the divergence is the object under study; a failed
    series start (a step h far past 1) flags it at t = 0, as does a step past RK4's stability
    interval where b >= 0: |R(h m)| > 1 at a root m of m^2 + b m + 1 (Hairer-Wanner II, IV.2).
    """
    times = uniform_grid(h, T)
    n = len(times) - 1
    b, A, t0 = prob.b, prob.A, prob.t0
    analytic._check_damping(b)

    x = np.empty((2, n + 1))
    x[:, 0] = prob.v0, prob.v0_prime
    with np.errstate(over="ignore", invalid="ignore"):  # inf and NaN states fail the guard
        start, started = _series_start(prob, times, x)
        Z = h * np.array([[0.0, 1.0], [-1.0, -b]])
        Z2 = Z @ Z
        E = Z + Z2 / 2.0 + Z2 @ Z / 6.0 + Z2 @ Z2 / 24.0
        # tr E + det E = |R(h m)|^2 - 1; it can round up past 0 at b = 0 for h < 1, not past 2.6.
        (e00, e01), (e10, e11) = E.tolist()
        stable = b < 0.0 or h <= _STABLE_STEP or e00 + e11 + e00 * e11 - e01 * e10 <= 0.0
        last = n if started and stable else 0
        powers = _step_powers(E)
        q0 = (h / 6.0) * (np.eye(2) + Z + Z2 / 2.0 + Z2 @ Z / 4.0)[:, 1]
        qh = (h / 6.0) * (4.0 * np.eye(2) + 2.0 * Z + Z2 / 2.0)[:, 1]
        for k0 in range(start, last, _BLOCK_STEPS):
            k1 = min(k0 + _BLOCK_STEPS, n)
            # t_k and t_k + h/2, rounded once: (k + 1/2) h > 0 for a subnormal h too.
            f = -A / (SQRT_PI * np.sqrt(np.arange(2 * k0, 2 * k1 + 1) / 2 * h + t0))
            gx = q0[0] * f[:-1:2] + qh[0] * f[1::2]
            gy = q0[1] * f[:-1:2] + qh[1] * f[1::2] + (h / 6.0) * f[2::2]
            block = _scan(gx, gy, float(x[0, k0]), float(x[1, k0]), powers)
            x[:, k0 + 1 : k1 + 1] = block
            ok = np.max(np.abs(block), axis=0) <= _OVERFLOW_GUARD  # NaN and inf fail too
            if not ok.all():
                last = k0 + int(np.argmin(ok))
                break

    meta = {"solver": "rk4", "b": b, "A": A, "t0": t0, "h": h, "T": last * h,
            "series_steps": start, "diverged": last < n}
    return Trajectory(times[: last + 1], *x[:, : last + 1], meta=meta)  # x's rows are v and v'


def _solve(solver: str, prob: OscillatorProblem, h: float, T: float, samples) -> Trajectory:
    """prob integrated by RK4, or its monotone trajectory in closed form: samples(times)."""
    if solver == "ode":
        return solve_oscillator(prob, h, T)
    if solver != "closed-form":
        raise ValueError(f"unknown solver {solver!r}")
    times = uniform_grid(h, T)
    values, derivs = samples(times)
    meta = {"solver": "closed-form", "b": prob.b, "A": prob.A, "t0": prob.t0,
            "h": h, "T": (len(times) - 1) * h, "variable": "v"}
    return Trajectory(times=times, values=values, derivatives=derivs, meta=meta)


def monotone_trajectory(solver: str, b: float, A: float, t0: float, h: float,
                        T: float) -> Trajectory:
    """v = A M(t + t0) on the grid of step h to T: "closed-form", or "ode" (RK4) from its start.

    An RK4 run is held to the monotone approach from v0 to 0 (``guard_monotone``).
    """
    if solver == "ide":
        raise ValueError("the ide solver applies to the sphere problem only")
    ic = analytic.monotone_initial_conditions(b, A, t0)
    traj = _solve(solver, OscillatorProblem(b=b, A=A, t0=t0, v0=ic.v0, v0_prime=ic.v0_prime), h, T,
                  lambda t: analytic.monotone_kernel_samples(t, b, A, t0))
    return traj if solver == "closed-form" else guard_monotone(traj, ic.v0, 0.0)


def sphere_trajectory(solver: str, kappa: float, eps: float, h: float, T: float) -> Trajectory:
    """The sphere released with u(0) = eps: solve_ide, u in closed form, or RK4's v = u - 1 shifted.

    An IDE or RK4 run is held to the paper's theorem, the monotone approach from eps to 1
    (``guard_monotone``); the closed form is not, since ``verify`` checks it.
    """
    if solver == "ide":
        return guard_monotone(ide.solve_ide(kappa, eps, h, T), eps, 1.0)
    traj = _solve(solver, OscillatorProblem.sphere(kappa, eps), h, T,
                  lambda t: analytic._sphere_samples(t, kappa, eps))
    if solver == "ode":
        traj.values += 1.0
    traj.meta.update(kappa=kappa, eps=eps, variable="u")
    return traj if solver == "closed-form" else guard_monotone(traj, eps, 1.0)
