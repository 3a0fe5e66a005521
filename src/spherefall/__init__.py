"""Transient motion of a sphere sedimenting in a Newtonian fluid at zero Reynolds number.

The package provides the dimensional drag/force-balance model
(:mod:`spherefall.physical`), the sampled :class:`Trajectory` that every
solver returns (:mod:`spherefall.trajectory`), cancellation-safe
evaluation of the Villat and Faddeeva functions
(:mod:`spherefall.special`), the closed-form transient solution and
oscillator machinery (:mod:`spherefall.analytic`), a product-integration
solver for the memory equation and its Abel history read-back
(:mod:`spherefall.ide`), a fixed-step integrator for the forced
oscillator and the one entry point to every solver, :func:`sphere_trajectory` and
:func:`monotone_trajectory` (:mod:`spherefall.ode`), a verification engine
(:mod:`spherefall.analysis`), and a CLI (:mod:`spherefall.cli`).
"""

from .analytic import (
    CharRoots,
    MonotoneIC,
    char_roots,
    monotone_initial_conditions,
    monotone_kernel_M,
    u_rest,
    u_rest_derivative,
)
from .analysis import (
    VerificationReport,
    abel_identity_residual,
    check_monotone,
    imag_sqrt_alpha_villat,
    ode_residual,
    proof_integral,
    run_default_suite,
)
from .ide import abel_history, solve_ide
from .ode import (
    OscillatorProblem,
    StabilityClass,
    classify_homogeneous,
    monotone_trajectory,
    solve_oscillator,
    sphere_trajectory,
)
from .physical import (
    DimensionlessGroup,
    DragForces,
    PhysicalParams,
    dimensional_trajectory,
    drag_forces,
    nondimensionalize,
)
from .special import (
    AccuracyError,
    faddeeva,
    naive_villat,
    villat,
    villat_asymptotic,
)
from .trajectory import Trajectory

__version__ = "0.1.0"
