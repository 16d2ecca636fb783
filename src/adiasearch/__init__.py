"""Adiabatic-search schedule simulator.

Three schedules for the two-level search Hamiltonian (linear ramps, the
locally adiabatic schedule, and the constant-gap parallel transport
schedule), an exact-step propagator with a full-space cross-check, and
closed-form loss/cost analytics.
"""

from .analytics import (
    AdiabaticityReport,
    LossPrediction,
    adiabaticity_check,
    linear_cost_bound,
    local_loss_asymptotic,
    local_loss_envelope,
    local_loss_exact,
    loss_prediction,
    parallel_loss_asymptotic,
    parallel_loss_gamma,
    resonant_epsilon,
)
from .cli import RunConfig, main
from .errors import (
    AdiabaticSearchError,
    DegeneratePoint,
    ExactDegenerateN,
    InvalidParameter,
    NonUnit,
    OracleSizeExceeded,
)
from .model import (
    DEFAULT_ORACLE_CAP,
    SearchInstance,
    coupling_rate,
    eigenvalues,
    energy_gap,
    full_hamiltonian,
    mixing_angle,
    reduced_terms,
)
from .propagate import (
    TRAJECTORY_COLUMNS,
    RunResult,
    Trajectory,
    local_analytic_state,
    propagate,
    propagate_full,
    write_trajectory_csv,
)
from .schedules import (
    CostReport,
    Schedule,
    Shape,
    Strategy,
    cost,
    equal_cost_gamma,
    equal_cost_parallel_time,
    linear_schedule,
    local_schedule,
    parallel_peak_reference,
    parallel_schedule,
)

__version__ = "0.1.0"

__all__ = [
    "AdiabaticSearchError",
    "AdiabaticityReport",
    "CostReport",
    "DEFAULT_ORACLE_CAP",
    "DegeneratePoint",
    "ExactDegenerateN",
    "InvalidParameter",
    "LossPrediction",
    "NonUnit",
    "OracleSizeExceeded",
    "RunConfig",
    "RunResult",
    "Schedule",
    "SearchInstance",
    "Shape",
    "Strategy",
    "TRAJECTORY_COLUMNS",
    "Trajectory",
    "adiabaticity_check",
    "cost",
    "coupling_rate",
    "eigenvalues",
    "energy_gap",
    "equal_cost_gamma",
    "equal_cost_parallel_time",
    "full_hamiltonian",
    "linear_cost_bound",
    "linear_schedule",
    "local_analytic_state",
    "local_loss_asymptotic",
    "local_loss_envelope",
    "local_loss_exact",
    "local_schedule",
    "loss_prediction",
    "main",
    "mixing_angle",
    "parallel_loss_asymptotic",
    "parallel_loss_gamma",
    "parallel_peak_reference",
    "parallel_schedule",
    "propagate",
    "propagate_full",
    "reduced_terms",
    "resonant_epsilon",
    "write_trajectory_csv",
]
