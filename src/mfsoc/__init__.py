"""Decentralized LQ mean-field social control with multiplicative noise.

Synthesis, verification, and Monte Carlo validation of decentralized
control laws for weakly coupled agent populations with possibly indefinite
quadratic weights.
"""

__version__ = "0.1.0"

from .linalg import DEFAULT_TOL, BlowUpError, Tolerance
from .model import ProblemSpec, Signal, derive_weights, validate
from .riccati import (
    RiccatiFiniteSolution,
    RiccatiInfiniteSolution,
    SolverError,
    check_ranges,
    solve_are,
    solve_finite_N,
    solve_finite_limit,
)
from .simulator import SimConfig, SimulationOutput, simulate_meanfield_type, simulate_population
from .social import (
    asymptotic_value,
    centralized_cost,
    expected_social_cost,
    gap_curve,
    gap_curve_exact,
)
from .stability import check_ms_stable, check_stabilizable, stability_report
from .synthesis import ControlLaw, build_law
