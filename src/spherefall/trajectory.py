"""The sampled trajectory that every solver returns and every check reads, its grid, and the
monotone rule that every solver run and every check holds it to."""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field

import numpy as np

__all__ = ["MONOTONE_TOL", "Trajectory", "guard_monotone", "steps_against", "uniform_grid"]

MONOTONE_TOL = 1e-12  # the most a run may step against its approach, or leave its band


@dataclass
class Trajectory:
    """Sampled solution: grid times, values and derivatives, plus solver metadata."""

    times: np.ndarray
    values: np.ndarray
    derivatives: np.ndarray
    meta: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.times = np.asarray(self.times, dtype=float)
        self.values = np.asarray(self.values, dtype=float)
        self.derivatives = np.asarray(self.derivatives, dtype=float)
        if self.times.ndim != 1 or len(self.times) == 0:
            raise ValueError("Trajectory: times must be a nonempty 1-d grid")
        if self.times[0] != 0.0:
            raise ValueError("Trajectory: grid must start at 0")
        if len(self.times) > 1 and not np.all(np.diff(self.times) > 0.0):
            raise ValueError("Trajectory: times must be strictly increasing")
        if len(self.values) != len(self.times) or len(self.derivatives) != len(self.times):
            raise ValueError("Trajectory: values/derivatives must match the grid length")

    def __len__(self) -> int:
        return len(self.times)

    def step(self) -> float:
        """Uniform grid spacing, the first step h; raises if the grid is not uniform.

        Every step lies within 1e-9 h plus four spacings of the last time of h.
        The grid t_k = k h rounds each node by at most half a spacing of the
        last time, so a step by at most one spacing: 1.6e-9 h at h = 1e-3 over
        1e7 steps.  A grid divided by B, as in ``dimensional_trajectory``,
        carries that rounding, at most one spacing of its own last time, and
        rounds each node once more by half of one: a step moves by up to three
        spacings and h itself by half of one, 3.5 in all.
        """
        if len(self.times) < 2:
            raise ValueError("Trajectory: need at least two points for a step size")
        steps = np.diff(self.times)
        h = steps[0]
        slack = 1e-9 * h + 4.0 * np.spacing(self.times[-1])
        if not max(steps.max() - h, h - steps.min()) <= slack:  # a NaN slack fails too
            raise ValueError("Trajectory: grid is not uniform")
        return float(h)


def _step_count(h: float, T: float) -> int:
    """n = max(1, round(T / h)) steps to the horizon T, after checking that h and T make a grid.

    A grid of n + 1 doubles must also fit in sys.maxsize bytes, the most numpy can size.
    """
    if not (math.isfinite(h) and math.isfinite(T)):
        raise ValueError(f"h and T must be finite, got h={h}, T={T}")
    if h <= 0.0:
        raise ValueError(f"h must be > 0, got {h}")
    if T < h:
        raise ValueError(f"horizon T={T} must be at least one step h={h}")
    if T / h == math.inf:
        raise ValueError(f"T/h must be a finite step count, got T={T}, h={h}")
    n = max(1, int(round(T / h)))
    if 8 * (n + 1) > sys.maxsize:
        raise ValueError(f"T/h must be a step count whose grid numpy can size, got {n:.6g} steps "
                         f"from T={T}, h={h}")
    return n


def uniform_grid(h: float, T: float) -> np.ndarray:
    """The grid t_k = k h, k = 0..n, with n = max(1, round(T / h)) steps to the horizon T."""
    return np.arange(_step_count(h, T) + 1) * h


def steps_against(values: np.ndarray, rises: bool) -> np.ndarray:
    """How far each step of values (along the last axis) moves against a rising or falling run."""
    steps = values[..., :-1] - values[..., 1:]
    return steps if rises else -steps


def guard_monotone(traj: Trajectory, start: float, end: float) -> Trajectory:
    """Hold a solver run to the monotone approach from start to end: the paper's theorem.

    The first t where the values leave the band between start and end, or step against
    the approach, by more than ``MONOTONE_TOL`` goes into ``meta["monotone_break_t"]``;
    a run that keeps the theorem gains no key.  Returns traj.
    """
    v = traj.values
    with np.errstate(over="ignore"):  # a difference past the largest double breaks the band too
        breaks = np.maximum(min(start, end) - v, v - max(start, end))
        np.maximum(breaks[1:], steps_against(v, start <= end), out=breaks[1:])
    broken = breaks > MONOTONE_TOL
    if broken.any():
        traj.meta["monotone_break_t"] = float(traj.times[np.argmax(broken)])
    return traj
