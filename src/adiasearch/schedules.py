"""Coupling schedules: linear, local (gap-adapted), and parallel (constant gap).

All three interpolate between the boundary conditions b(t_i) = 0 (ground
state |w>, trivially preparable) and a(t_f) = 0 (ground state |m>, the
solution).  They differ in how the path crosses the avoided crossing:

* linear: a and b are straight ramps with a + b = alpha.  The gap dips to
  alpha/sqrt(n) at the midpoint, so the global adiabaticity budget scales
  as alpha*T > 2n/eps.
* local: a + b = alpha with the crossing rate adapted so the local
  adiabaticity ratio is pinned, 2*d(theta)/dt = eps*gap at every instant.
  Closed form, with s = (2t - t_i - t_f)/T and T = 2*sqrt(n-1)/(alpha*eps):

      a(t) = alpha/2 * (1 - s / (sqrt(n) * sqrt(1 - s^2 (n-1)/n)))
      gap(t) = alpha/sqrt(n) / sqrt(1 - s^2 (n-1)/n)

* parallel: both couplings vary along the constant-gap level line
  gap = 2*beta/sqrt(n), an ellipse in the (a+b, b-a) plane:

      a, b = beta * (sqrt(1 - F^2 (n-1)/n) -/+ F/sqrt(n)),

  with F(t) = tanh(t/T_par) or erf(t/T_par), truncated to the window
  [-r*T_par/2, +r*T_par/2].  F is evaluated as-is at the window edges, so
  the boundary conditions hold only up to an exponentially small residual.

Cost accounting: cost = a_peak * t_eff, with a_peak the largest value of
a(t) over the window and t_eff the window length (r*T_par for parallel).
For the parallel strategy the numeric maximum is beta*sqrt(n/(n-1)) at
F = -1/sqrt(n-1); `parallel_peak_reference` exposes the alternative closed
form beta*(n-2)/sqrt(n(n-1)) that the equal-cost bookkeeping
(`equal_cost_parallel_time`) is built on, and reports surface both.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import ExactDegenerateN, InvalidParameter
from .model import SearchInstance


class Strategy(str, enum.Enum):
    LINEAR = "linear"
    LOCAL = "local"
    PARALLEL = "parallel"


class Shape(str, enum.Enum):
    """Ramp profile F(t) for the parallel strategy."""

    TANH = "tanh"
    ERF = "erf"


@dataclass(frozen=True)
class CostReport:
    """Peak coupling, effective duration, and their product."""

    a_peak: float
    t_eff: float
    cost: float


@dataclass(frozen=True)
class Schedule:
    """One concrete coupling schedule over a finite time window.

    `t_char` is the characteristic time of the kind: the total duration for
    linear and local, the ramp time T_par for parallel (whose window is
    r*T_par long).  `epsilon` is the defining adiabaticity parameter of a
    local schedule and None for the other kinds.
    """

    kind: Strategy
    n: int
    alpha_or_beta: float
    t_char: float
    window: tuple[float, float]
    epsilon: float | None = None
    r: float | None = None
    shape: Shape | None = None

    def couplings(self, t):
        """Vectorized (a, b, a_dot, b_dot) at times t (scalar or array)."""
        t = np.asarray(t, dtype=float)
        t_i, t_f = self.window
        if self.kind is Strategy.LINEAR:
            span = t_f - t_i
            amp = self.alpha_or_beta
            a = amp * (t_f - t) / span
            b = amp * (t - t_i) / span
            a_dot = np.full_like(t, -amp / span)
            b_dot = np.full_like(t, amp / span)
            return a, b, a_dot, b_dot
        if self.kind is Strategy.LOCAL:
            alpha = self.alpha_or_beta
            span = t_f - t_i
            sqrt_n = math.sqrt(self.n)
            k = (self.n - 1.0) / self.n
            s = (2.0 * t - t_i - t_f) / span
            root = np.sqrt(1.0 - k * s * s)
            a = 0.5 * alpha * (1.0 - s / (sqrt_n * root))
            # exact boundary values, not left to rounding
            a = np.where(s == 1.0, 0.0, a)
            a = np.where(s == -1.0, alpha, a)
            a_dot = -(alpha / (sqrt_n * span)) / root**3
            return a, alpha - a, a_dot, -a_dot
        beta = self.alpha_or_beta
        sqrt_n = math.sqrt(self.n)
        k = (self.n - 1.0) / self.n
        x = t / self.t_char
        if self.shape is Shape.TANH:
            f = np.tanh(x)
            f_dot = (1.0 - f * f) / self.t_char
        else:
            # deferred: ~0.27 s of import that only the erf profile needs
            from scipy.special import erf

            f = erf(x)
            f_dot = (2.0 / math.sqrt(math.pi)) * np.exp(-x * x) / self.t_char
        root = np.sqrt(1.0 - k * f * f)
        root_dot = -k * f * f_dot / root
        a = beta * (root - f / sqrt_n)
        b = beta * (root + f / sqrt_n)
        a_dot = beta * (root_dot - f_dot / sqrt_n)
        b_dot = beta * (root_dot + f_dot / sqrt_n)
        return a, b, a_dot, b_dot


def _require_positive(**kwargs) -> None:
    for name, value in kwargs.items():
        if not (isinstance(value, (int, float)) and math.isfinite(value) and value > 0):
            raise InvalidParameter(f"{name} must be a positive finite number, got {value!r}")


def linear_schedule(alpha: float, t_total: float, inst: SearchInstance) -> Schedule:
    """Straight ramps a = alpha*(t_f - t)/T, b = alpha*(t - t_i)/T on [0, T]."""
    _require_positive(alpha=alpha, t_total=t_total)
    return Schedule(Strategy.LINEAR, inst.n, float(alpha), float(t_total),
                    (0.0, float(t_total)))


def local_schedule(alpha: float, epsilon: float, inst: SearchInstance) -> Schedule:
    """Gap-adapted schedule with 2*d(theta)/dt = eps*gap, on [0, 2*sqrt(n-1)/(alpha*eps)]."""
    _require_positive(alpha=alpha, epsilon=epsilon)
    t_total = 2.0 * math.sqrt(inst.n - 1.0) / (alpha * epsilon)
    return Schedule(Strategy.LOCAL, inst.n, float(alpha), t_total, (0.0, t_total),
                    epsilon=float(epsilon))


def parallel_schedule(
    beta: float,
    t_par: float,
    inst: SearchInstance,
    r: float = 8.0,
    shape: Shape = Shape.TANH,
) -> Schedule:
    """Constant-gap schedule on the truncated window [-r*T_par/2, +r*T_par/2]."""
    _require_positive(beta=beta, t_par=t_par, r=r)
    try:
        shape = Shape(shape)
    except ValueError as exc:
        raise InvalidParameter(f"shape must be 'tanh' or 'erf', got {shape!r}") from exc
    if not math.isfinite(r * t_par):
        raise InvalidParameter(f"the window r*T overflows: T={t_par!r}, r={r!r}")
    half = 0.5 * r * t_par
    return Schedule(Strategy.PARALLEL, inst.n, float(beta), float(t_par),
                    (-half, half), r=float(r), shape=shape)


_ZOOM_GRID = np.linspace(0.0, 1.0, 65)


def extremum(fn, window: tuple[float, float], samples: int, sign: float) -> float:
    """Minimum (sign = 1) or maximum (sign = -1) of fn over the window.

    `fn` maps an array of times to values.  The extremum is located by
    sampling `samples` uniform points and, when it falls inside, by
    zooming in: the bracket between the best sample's neighbours is
    re-sampled at 65 uniform points, and again around the new best one,
    until it is at most 1e-10 of the window length (about five rounds).
    The result is the best value seen.
    """
    t_i, t_f = window
    ts = np.linspace(t_i, t_f, samples)
    values = sign * fn(ts)
    i = int(np.argmin(values))
    best = float(values[i])
    if 0 < i < len(ts) - 1:
        lo, hi = ts[i - 1], ts[i + 1]
        # each round narrows the bracket 32-fold; a fixed count always ends
        rounds = math.ceil(math.log((hi - lo) / (1e-10 * (t_f - t_i)), 32))
        for _ in range(rounds):
            ts = lo + (hi - lo) * _ZOOM_GRID
            values = sign * fn(ts)
            i = int(np.argmin(values))
            best = min(best, float(values[i]))
            i = min(max(i, 1), len(ts) - 2)
            lo, hi = ts[i - 1], ts[i + 1]
    return sign * best


def cost(schedule: Schedule) -> CostReport:
    """Peak coupling times effective duration.

    a_peak is located by `extremum` over 4097 samples, accurate to 1e-10
    relative; t_eff is the window length (r*T_par for the parallel
    strategy).
    """
    t_i, t_f = schedule.window
    a_peak = extremum(lambda t: schedule.couplings(t)[0], schedule.window, 4097, -1.0)
    t_eff = t_f - t_i
    return CostReport(a_peak=a_peak, t_eff=t_eff, cost=a_peak * t_eff)


def equal_cost_gamma(epsilon: float, r: float) -> float:
    """Sweep rate gamma = sqrt(n)/T_par matching the local cost at large n."""
    _require_positive(epsilon=epsilon, r=r)
    return 0.5 * epsilon * r


def parallel_peak_reference(beta: float, n: int) -> float:
    """Closed-form peak coupling beta*(n-2)/sqrt(n(n-1)) used by the equal-cost bookkeeping.

    Direct maximization of a(t) instead gives beta*sqrt(n/(n-1)); cost()
    reports that numeric maximum and comparisons surface both values.
    """
    _require_positive(beta=beta)
    if n < 2:
        raise InvalidParameter(f"database size must be >= 2, got n={n}")
    return beta * (n - 2.0) / math.sqrt(n * (n - 1.0))


def equal_cost_parallel_time(epsilon: float, r: float, n: int, beta: float = 1.0) -> float:
    """Ramp time T_par = 2(n-1)sqrt(n) / ((n-2) eps beta r) matching the local cost.

    The matching uses the closed-form peak `parallel_peak_reference`, so
    peak_reference * r * T_par = 2*sqrt(n-1)/eps exactly.  Undefined at
    n = 2, where the reference peak vanishes.
    """
    _require_positive(epsilon=epsilon, r=r, beta=beta)
    if n < 2:
        raise InvalidParameter(f"database size must be >= 2, got n={n}")
    if n == 2:
        raise ExactDegenerateN("equal-cost matching is undefined at n = 2")
    return 2.0 * (n - 1.0) * math.sqrt(n) / ((n - 2.0) * epsilon * beta * r)
