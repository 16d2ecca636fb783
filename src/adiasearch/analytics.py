"""Closed-form loss estimates and adiabaticity diagnostics.

For the local strategy the two-level problem is exactly solvable in the
adiabatic frame: with kappa = sqrt(1 + eps^2) the final loss is

    P_loss = eps^2/(1+eps^2) * sin^2( kappa/eps * arctan(sqrt(n-1)) ),

which for large n and small eps tends to eps^2 * sin^2(pi/(2 eps)) with
upper envelope eps^2.  The sin^2 factor vanishes on a measure-zero family
(eps = 1/(2p) in the asymptotic form); such a zero does not survive a
small change of eps.

For the parallel strategy with a tanh ramp the untruncated problem maps
onto an exactly solvable constant-gap crossing, giving

    P_loss ~ sech^2(pi * T_par * beta / sqrt(n)) = sech^2(pi/gamma),

with gamma = sqrt(n)/T_par (beta = 1 units).  Window truncation adds an
exponentially small floor on top, visible in sweeps at large 1/gamma.
The erf ramp does not follow this law, so it gets no prediction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import InvalidParameter
from .model import require_positive
from .schedules import Schedule, Shape, Strategy


@dataclass(frozen=True)
class LossPrediction:
    """Analytic loss references for one schedule."""

    exact: float | None
    asymptotic: float


@dataclass(frozen=True)
class AdiabaticityReport:
    """Global adiabaticity check: max theta_dot vs eps * min gap / 2."""

    holds: bool
    ratio: float
    max_theta_dot: float
    min_gap: float


def _sech2(x: float) -> float:
    # overflow-safe: sech^2(x) = (2 e^{-|x|} / (1 + e^{-2|x|}))^2
    e = math.exp(-abs(x))
    s = 2.0 * e / (1.0 + e * e)
    return s * s


def local_loss_exact(epsilon: float, n: float) -> float:
    """Exact final loss of the local strategy.

    `n` may be non-integral (> 1): the formula is analytic in n and the
    zero family n = 1 + tan^2(x) is useful in studies.
    """
    epsilon, n = require_positive("epsilon", epsilon), require_positive("n", n)
    if n <= 1:
        raise InvalidParameter(f"n must exceed 1, got {n!r}")
    kappa2 = 1.0 + epsilon * epsilon
    phase = math.sqrt(kappa2) / epsilon * math.atan(math.sqrt(n - 1.0))
    return epsilon * epsilon / kappa2 * math.sin(phase) ** 2


def local_loss_asymptotic(epsilon: float) -> float:
    """Large-n, small-eps form eps^2 * sin^2(pi/(2 eps))."""
    epsilon = require_positive("epsilon", epsilon)
    return epsilon * epsilon * math.sin(0.5 * math.pi / epsilon) ** 2


def parallel_loss_asymptotic(beta: float, t_par: float, n: float) -> float:
    """Constant-gap asymptote sech^2(pi * t_par * beta / sqrt(n))."""
    beta, t_par = require_positive("beta", beta), require_positive("t_par", t_par)
    n = require_positive("n", n)
    if n <= 1:
        raise InvalidParameter(f"n must exceed 1, got {n!r}")
    return _sech2(math.pi * t_par * beta / math.sqrt(n))


def loss_prediction(schedule: Schedule) -> LossPrediction | None:
    """Analytic references for a schedule; None for linear and the erf ramp."""
    if schedule.kind is Strategy.LOCAL:
        return LossPrediction(
            exact=local_loss_exact(schedule.epsilon, schedule.n),
            asymptotic=local_loss_asymptotic(schedule.epsilon),
        )
    if schedule.kind is Strategy.PARALLEL and schedule.shape is Shape.TANH:
        return LossPrediction(
            exact=None,
            asymptotic=parallel_loss_asymptotic(
                schedule.alpha_or_beta, schedule.t_char, schedule.n
            ),
        )
    return None


def adiabaticity_check(
    schedule: Schedule, epsilon: float | None = None
) -> AdiabaticityReport:
    """Check max theta_dot < eps * min gap / 2 over the window.

    `epsilon` defaults to the local schedule's own.  Both extremes are
    closed forms of the schedule's parameters:

    * linear: a*b_dot - a_dot*b = alpha^2/T, and the gap alpha/sqrt(n) is
      smallest mid-window, so max theta_dot = sqrt(n-1)/T;
    * local: 2*theta_dot = eps_s*gap, with the gap alpha/sqrt(n) at s = 0
      and alpha at the window ends, so max theta_dot = eps_s*alpha/2;
    * parallel: the gap is 2*beta/sqrt(n) throughout, and
      theta_dot = sqrt(n-1)*F_dot / (2*sqrt(n)*sqrt(1 - F^2 (n-1)/n))
      peaks at F = 0, mid-window, where F_dot = F'(0)/T_par (F'(0) = 1 for
      tanh, 2/sqrt(pi) for erf).

    The returned ratio is max_theta_dot / (eps * min_gap / 2); the
    criterion holds when it is below 1.
    """
    epsilon = require_positive("epsilon", schedule.epsilon if epsilon is None else epsilon)

    n = schedule.n
    amp = schedule.alpha_or_beta
    if schedule.kind is Strategy.LINEAR:
        min_gap = amp / math.sqrt(n)
        max_rate = math.sqrt(n - 1.0) / schedule.t_char
    elif schedule.kind is Strategy.LOCAL:
        min_gap = amp / math.sqrt(n)
        max_rate = 0.5 * schedule.epsilon * amp
    else:
        min_gap = 2.0 * amp / math.sqrt(n)
        slope = 1.0 if schedule.shape is Shape.TANH else 2.0 / math.sqrt(math.pi)
        max_rate = math.sqrt(n - 1.0) / (2.0 * math.sqrt(n)) * slope / schedule.t_char
    bound = 0.5 * epsilon * min_gap
    ratio = max_rate / bound
    return AdiabaticityReport(
        holds=bool(max_rate < bound),
        ratio=float(ratio),
        max_theta_dot=float(max_rate),
        min_gap=float(min_gap),
    )
