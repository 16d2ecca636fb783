"""Adiabatic-search schedule simulator.

Three schedules for the two-level search Hamiltonian (linear ramps, the
locally adiabatic schedule, and the constant-gap parallel transport
schedule), an exact-step propagator with a full-space cross-check, and
closed-form loss/cost analytics.  The top level holds the names the
README documents; everything else is imported from its submodule.
"""

from .analytics import adiabaticity_check, loss_prediction
from .cli import RunConfig, main
from .errors import AdiabaticSearchError
from .model import SearchInstance
from .propagate import RunResult, propagate, propagate_full
from .schedules import (
    cost,
    linear_schedule,
    local_schedule,
    parallel_peak_reference,
    parallel_schedule,
)

__version__ = "0.1.0"

__all__ = [
    "AdiabaticSearchError",
    "RunConfig",
    "RunResult",
    "SearchInstance",
    "adiabaticity_check",
    "cost",
    "linear_schedule",
    "local_schedule",
    "loss_prediction",
    "main",
    "parallel_peak_reference",
    "parallel_schedule",
    "propagate",
    "propagate_full",
]
