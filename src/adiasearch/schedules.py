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
For the parallel strategy a is concave in F, and its maximum is
beta*sqrt(n/(n-1)) at F = -1/sqrt(n-1) whenever the window reaches that F;
`parallel_peak_reference` exposes the alternative closed form
beta*(n-2)/sqrt(n(n-1)) that the equal-cost bookkeeping
(`equal_cost_parallel_time`) is built on, and reports surface both.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import ExactDegenerateN, InvalidParameter
from .model import SearchInstance, require_choice, require_positive


# the parallel window's default length in units of T_par
DEFAULT_R = 8.0


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

    `n` and `marked` are those of the instance it was built for; only the
    full-space oracle reads `marked`.  `t_char` is the characteristic time
    of the kind: the total duration for linear and local, the ramp time
    T_par for parallel (whose window is r*T_par long).  `epsilon` is the
    defining adiabaticity parameter of a local schedule and None for the
    other kinds.
    """

    kind: Strategy
    n: int
    marked: int
    alpha_or_beta: float
    t_char: float
    window: tuple[float, float]
    epsilon: float | None = None
    r: float | None = None
    shape: Shape | None = None

    def levels(self, t):
        """Vectorized (a, b) at times t (scalar or array), without the rates."""
        return self._sample(t, False)

    def couplings(self, t):
        """Vectorized (a, b, a_dot, b_dot) at times t: `levels` plus the rates."""
        return self._sample(t, True)

    def _ramp(self, x):
        """The parallel ramp profile F at x = t / T_par: tanh(x) or erf(x)."""
        return np.tanh(x) if self.shape is Shape.TANH else _erf(x)

    def _sample(self, t, rates):
        """(a, b) at times t, then (a_dot, b_dot) if `rates`: one block per kind."""
        t = np.asarray(t, dtype=float)
        t_i, t_f = self.window
        amp = self.alpha_or_beta
        if self.kind is Strategy.LINEAR:
            span = t_f - t_i
            a, b = amp * (t_f - t) / span, amp * (t - t_i) / span
            if not rates:
                return a, b
            return a, b, np.full_like(t, -amp / span), np.full_like(t, amp / span)
        sqrt_n = math.sqrt(self.n)
        if self.kind is Strategy.LOCAL:
            u = (2.0 * t - t_i - t_f) / (t_f - t_i)
            root = np.sqrt(1.0 - (self.n - 1.0) / self.n * u * u)
            a = 0.5 * amp * (1.0 - u / (sqrt_n * root))
            # exact boundary values, not left to rounding; only samples at
            # the window's ends have |u| = 1
            if (np.abs(u) == 1.0).any():
                a = np.where(u == 1.0, 0.0, np.where(u == -1.0, amp, a))
            if not rates:
                return a, amp - a
            a_dot = -(amp / (sqrt_n * (t_f - t_i))) / root**3
            return a, amp - a, a_dot, -a_dot
        x = t / self.t_char
        u = self._ramp(x)
        root = np.sqrt(1.0 - (self.n - 1.0) / self.n * u * u)
        a, b = amp * (root - u / sqrt_n), amp * (root + u / sqrt_n)
        if not rates:
            return a, b
        if self.shape is Shape.TANH:
            f_dot = (1.0 - u * u) / self.t_char
        else:
            f_dot = (2.0 / math.sqrt(math.pi)) * np.exp(-x * x) / self.t_char
        root_dot = -(self.n - 1.0) / self.n * u * f_dot / root
        return a, b, amp * (root_dot - f_dot / sqrt_n), amp * (root_dot + f_dot / sqrt_n)


# Cephes ndtr.c (S. L. Moshier) coefficients, the ones scipy.special.erf
# runs: erf(x) = x T(x^2)/U(x^2) for |x| <= 1, and 1 - erfc(|x|) with
# erfc(x) = exp(-x^2) P(x)/Q(x) for 1 < |x| < 8.  U and Q are monic (their
# leading 1 is left out).
_ERF_T = (9.60497373987051638749e0, 9.00260197203842689217e1, 2.23200534594684319226e3,
          7.00332514112805075473e3, 5.55923013010394962768e4)
_ERF_U = (3.35617141647503099647e1, 5.21357949780152679795e2, 4.59432382970980127987e3,
          2.26290000613890934246e4, 4.92673942608635921086e4)
_ERFC_P = (2.46196981473530512524e-10, 5.64189564831068821977e-1, 7.46321056442269912687e0,
           4.86371970985681366614e1, 1.96520832956077098242e2, 5.26445194995477358631e2,
           9.34528527171957607540e2, 1.02755188689515710272e3, 5.57535335369399327526e2)
_ERFC_Q = (1.32281951154744992508e1, 8.67072140885989742329e1, 3.54937778887819891062e2,
           9.75708501743205489753e2, 1.82390916687909736289e3, 2.24633760818710981792e3,
           1.65666309194161350182e3, 5.57535340817727675546e2)
# 1 - erfc(x) rounds to 1 from x = 5.92 on (erfc(6) = 2.2e-17 is below half
# an ulp of 1), so erf is exactly +-1 from 6 on and Cephes' R/S branch for
# x >= 8 is never needed
_ERF_SATURATED = 6.0


def _horner(x, coef, monic=False):
    """Cephes polevl (monic=False) or p1evl (monic=True), in place on one array."""
    acc = x + coef[0] if monic else np.full_like(x, coef[0])
    for c in coef[1:]:
        acc *= x
        acc += c
    return acc


def _erf(x):
    """erf(x) elementwise, Cephes' algorithm and order of operations.

    Each branch is evaluated on its own points only.  Within 1 ulp of
    scipy.special.erf (bit-equal for |x| <= 1 and |x| >= 6): NumPy's exp
    may differ from libm's by 1 ulp in 1 < |x| < 6.
    """
    x = np.asarray(x, dtype=float)
    ax = np.abs(x)
    out = np.sign(x, out=np.empty_like(x))  # +-1 at saturation; keeps +-0 and NaN
    small = ax <= 1.0
    if small.any():
        xs = x[small]
        z = xs * xs
        out[small] = (xs * _horner(z, _ERF_T)) / _horner(z, _ERF_U, monic=True)
    mid = (ax > 1.0) & (ax < _ERF_SATURATED)
    if mid.any():
        xm = ax[mid]
        erfc = np.exp(-xm * xm)
        erfc *= _horner(xm, _ERFC_P)
        erfc /= _horner(xm, _ERFC_Q, monic=True)
        out[mid] = np.copysign(1.0 - erfc, x[mid])
    return out[()]


# The kernels square a coupling (gap**2 in model.coupling_rate), a coupling
# times a rate (a*b_dot there) and a step's phase (z*z in
# propagate._magnus_steps), each at most ~2x the scale, its rate or its phase
# over the window.  Bounding those keeps every square, and the Magnus sum of
# three, finite.
_KERNEL_BOUND = math.sqrt(np.finfo(float).max) / 4.0
# model.coupling_rate divides by gap**2: a minimum gap whose square falls
# below the smallest normal float leaves 0/0 there
_GAP_SQUARE_FLOOR = float(np.finfo(float).tiny)


def _require_gap(min_gap: float, form: str, inputs: str) -> None:
    if not min_gap * min_gap >= _GAP_SQUARE_FLOOR:
        raise InvalidParameter(
            f"the minimum gap {form} = {min_gap:.3g} squares below the smallest normal "
            f"float {_GAP_SQUARE_FLOOR:.3g}: {inputs}")


def linear_schedule(alpha: float, t_total: float, inst: SearchInstance) -> Schedule:
    """Straight ramps a = alpha*(t_f - t)/T, b = alpha*(t - t_i)/T on [0, T]."""
    alpha, t_total = require_positive("alpha", alpha), require_positive("t_total", t_total)
    # a_dot = -alpha/T, and the phase grows to about alpha*T
    if not max(alpha, alpha * t_total, alpha / t_total) <= _KERNEL_BOUND:
        raise InvalidParameter(
            f"alpha, the phase alpha*T or the rate alpha/T exceeds {_KERNEL_BOUND:.3g}: "
            f"alpha={alpha!r}, T={t_total!r}")
    _require_gap(alpha / math.sqrt(inst.n), "alpha/sqrt(n)", f"alpha={alpha!r}, n={inst.n}")
    return Schedule(Strategy.LINEAR, inst.n, inst.marked, alpha, t_total, (0.0, t_total))


def local_schedule(alpha: float, epsilon: float, inst: SearchInstance) -> Schedule:
    """Gap-adapted schedule with 2*d(theta)/dt = eps*gap, on [0, 2*sqrt(n-1)/(alpha*eps)]."""
    alpha, epsilon = require_positive("alpha", alpha), require_positive("epsilon", epsilon)
    product = alpha * epsilon  # may underflow to 0 or overflow to inf
    t_total = 2.0 * math.sqrt(inst.n - 1.0) / product if 0.0 < product < math.inf else 0.0
    # a_dot peaks at alpha*n/T, at the window ends; the phase is alpha*T
    phase = 2.0 * math.sqrt(inst.n - 1.0) / epsilon
    if not (0.0 < t_total < math.inf
            and max(alpha, phase, alpha * inst.n / t_total) <= _KERNEL_BOUND):
        raise InvalidParameter(
            f"the window 2*sqrt(n-1)/(alpha*epsilon) overflows, or alpha, the phase "
            f"2*sqrt(n-1)/epsilon or the rate alpha*n/T exceeds {_KERNEL_BOUND:.3g}: "
            f"alpha={alpha!r}, epsilon={epsilon!r}")
    _require_gap(alpha / math.sqrt(inst.n), "alpha/sqrt(n)", f"alpha={alpha!r}, n={inst.n}")
    return Schedule(Strategy.LOCAL, inst.n, inst.marked, alpha, t_total, (0.0, t_total),
                    epsilon=epsilon)


def parallel_schedule(
    beta: float,
    t_par: float,
    inst: SearchInstance,
    r: float = DEFAULT_R,
    shape: Shape = Shape.TANH,
) -> Schedule:
    """Constant-gap schedule on the truncated window [-r*T_par/2, +r*T_par/2]."""
    beta, t_par, r = (require_positive("beta", beta), require_positive("t_par", t_par),
                      require_positive("r", r))
    shape = require_choice("shape", Shape, shape)
    if not math.isfinite(r * t_par):
        raise InvalidParameter(f"the window r*T overflows: T={t_par!r}, r={r!r}")
    # f_dot carries 1/T, a_dot and b_dot beta/T, and the phase stays below beta*r*T
    if not max(1.0 / t_par, beta, beta / t_par, beta * r * t_par) <= _KERNEL_BOUND:
        raise InvalidParameter(
            f"1/T, beta, the rate beta/T or the phase bound beta*r*T exceeds "
            f"{_KERNEL_BOUND:.3g}: beta={beta!r}, T={t_par!r}, r={r!r}")
    _require_gap(2.0 * beta / math.sqrt(inst.n), "2*beta/sqrt(n)", f"beta={beta!r}, n={inst.n}")
    half = 0.5 * r * t_par
    return Schedule(Strategy.PARALLEL, inst.n, inst.marked, beta, t_par, (-half, half),
                    r=r, shape=shape)


def cost(schedule: Schedule) -> CostReport:
    """Peak coupling times effective duration.

    a_peak is the largest a(t) over the window, in closed form.  Linear and
    local a(t) fall monotonically, so it is a(t_i) = alpha.  Parallel a is
    concave in F: beta*sqrt(n/(n-1)) when the window's F range holds
    F* = -1/sqrt(n-1), else the larger end value (n = 2, or n = 3 at r = 1).
    t_eff is the window length (r*T_par for the parallel strategy).
    """
    t_i, t_f = schedule.window
    a, b = schedule.levels(np.array([t_i, t_f]))
    a_peak = float(a.max())
    if schedule.kind is Strategy.PARALLEL:
        n, beta = schedule.n, schedule.alpha_or_beta
        # the symmetric window holds F* when F(t_i) = (b - a)*sqrt(n)/(2 beta)
        # <= F*.  Not decided from the slope of a at the ends: at large r
        # tanh(r/2) rounds to 1 and a_dot is 0 at both ends.
        if (a[0] - b[0]) * math.sqrt(n * (n - 1.0)) >= 2.0 * beta:
            a_peak = beta * math.sqrt(n / (n - 1.0))
    t_eff = t_f - t_i
    return CostReport(a_peak=a_peak, t_eff=t_eff, cost=a_peak * t_eff)


def equal_cost_gamma(epsilon: float, r: float) -> float:
    """Sweep rate gamma = sqrt(n)/T_par matching the local cost at large n."""
    return 0.5 * require_positive("epsilon", epsilon) * require_positive("r", r)


def parallel_peak_reference(beta: float, n: int) -> float:
    """Closed-form peak coupling beta*(n-2)/sqrt(n(n-1)) used by the equal-cost bookkeeping.

    The maximum of a(t) is instead beta*sqrt(n/(n-1)); cost() reports
    that peak and comparisons surface both values.
    """
    beta, n = require_positive("beta", beta), SearchInstance(n).n
    return beta * (n - 2.0) / math.sqrt(n * (n - 1.0))


def equal_cost_parallel_time(epsilon: float, r: float, n: int) -> float:
    """Ramp time T_par = 2(n-1)sqrt(n) / ((n-2) eps r) matching the local cost at beta = 1.

    The matching uses the closed-form peak `parallel_peak_reference`, so
    peak_reference * r * T_par = 2*sqrt(n-1)/eps exactly.  Undefined at
    n = 2, where the reference peak vanishes.
    """
    epsilon, r = require_positive("epsilon", epsilon), require_positive("r", r)
    n = SearchInstance(n).n
    if n == 2:
        raise ExactDegenerateN("equal-cost matching is undefined at n = 2")
    return 2.0 * (n - 1.0) * math.sqrt(n) / ((n - 2.0) * epsilon * r)
