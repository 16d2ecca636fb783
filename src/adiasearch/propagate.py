"""Time evolution of the search dynamics.

Reduced propagation uses the fourth-order Magnus integrator with two
Gauss points per step.  In the two-level basis H = delta sigma_z +
omega sigma_x (the global phase (a+b)/2 is dropped; no population sees
it), and one step of length h applies the exact SU(2) exponential

    U_k = exp(-i [h/2 (H_1 + H_2) - i sqrt(3)/12 h^2 [H_2, H_1]]),

with H_1, H_2 at the Gauss points and the commutator along sigma_y.
Every step is unitary, so the norm is conserved to rounding.  The steps
of each ~2000 sampled trajectory chunk are multiplied by pairwise
halving, and the chunk products by a log-depth prefix scan, both in
NumPy.

Steps and grid cells are sampled in blocks of `_BLOCK` = 4096, so no
Gauss-point sample or step-pair array exceeds 64 KiB at either
resolution: below glibc's default 128 KiB mmap threshold, such
temporaries are reused from the heap instead of being faulted in again
on every run.  The only Python loops left run over these blocks, a
handful per run; none runs over steps or chunks.  `_magnus_steps` steps
both runs and returns the product of every `every` steps: the main
run's trajectory chunks, and the half run's whole blocks, which one
`_compose` then multiplies.  `_BLOCK` is a power of two, so pairwise
halving over aligned blocks is a subtree of halving over the whole
array; identity pads multiply exactly, and the cdf is one cumsum over
the blocks' cell masses (a parallel run's is pointwise), so the blocks
change no output bit.  The internal samples read a and b only
(`Schedule.levels`; a parallel grid reads the ramp F alone); only the
~2001 trajectory rows call `Schedule.couplings` for the rates.  `Trajectory`
builds its nine deferred columns on the first read of any of them: its
`__getattr__`, reached only for a name missing from the instance's
`__dict__`, stores all nine there, so later reads never reach it.  The
result reads the last row's mixing angle from the last node alone, so a
run whose trajectory nobody reads samples no rates.

The nodes are not uniform in t: they sit at equal increments of phase,
rotation and relative gap change (`_phase_grid`), so a crossing of width
~1/sqrt(n) gets as many steps as it needs.  Linear and local runs sample
that mass, in three coarse passes of ~2000 cells and one of 2*steps
cells.  A parallel run's gap is constant and its rotation closed form, so
its mass is evaluated at each point of one uniform pass of 2*steps cells:
its density g + 2 |psi'| is smooth on the scale of T_par, with no narrow
feature for a coarse pass to find.  The same nodes taken every other one
give a half-resolution run, and the difference, divided by 2^4 - 1,
estimates the discretization error (`RunResult.error_estimate`).
The half run is stepped only when the estimate is first read
(`_half_run_estimate`), so a run whose estimate nobody reads skips it.

`propagate_full` is an independent cross-check that never builds the
two-level reduction: it integrates the full n-dimensional Schrodinger
equation with classic RK4, applying H through its rank-two factors
(H psi = a <w|psi> |w> + b psi_m e_m, O(n) per product), with the
marked index each schedule keeps from its instance.  It takes a batch of
schedules, one row each, concatenates their states into one flat vector
and advances all of them in one loop over the steps, each row with its
own window and dt; the guards are per row.  A stage derivative takes two
values per row, one for the row's unmarked entries and one for its
marked entry, so each stage is held as a source of two entries per row.
All a source needs of a state, each row's marked entry and slice sum,
is linear in it: one `np.add.reduceat` reads them at the step's start,
and each stage's reads are those plus a fixed map of the previous
source.  One gather index spreads the step's update over the flat
vector, so a step reads the full state once and writes it once, and no
stage state is built at full length.  Agreement of p_m between the two
paths validates the reduction end to end.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, partial

import numpy as np

from . import model
from .errors import (
    DegeneratePoint,
    InvalidParameter,
    NonUnit,
    OracleSizeExceeded,
)
from .schedules import Schedule, Strategy

DEFAULT_STEPS = 16_000
# fewest steps any propagation or command accepts
MIN_STEPS = 1000
# most steps any propagation accepts: a reduced run's traced peak is ~48
# bytes per step, almost all of it the phase grid's (2*steps + 1)-point fine
# pass, so ~192 MiB at this cap
MAX_STEPS = 2**22
# cells of each coarse pass of `_phase_grid`; never more than the last
# pass's 2*steps, since steps >= MIN_STEPS
_COARSE_CELLS = 2 * MIN_STEPS
# steps (or grid cells) sampled at once, and trajectory.csv cells formatted
# at once: the Gauss-point samples and the step pairs of a block stay at or
# below 64 KiB, under glibc's default 128 KiB mmap threshold, so they are not
# faulted in afresh on every run
_BLOCK = 4096

# Gauss-Legendre points of a step sit at its midpoint -/+ sqrt(3)/6 of its
# length; the Magnus-4 commutator term is sqrt(3)/12 h^2 [A_2, A_1], and
# [H_2, H_1] = 2i (delta_2 omega_1 - delta_1 omega_2) sigma_y.
_GAUSS_OFFSET = math.sqrt(3.0) / 6.0
_COMMUTATOR = math.sqrt(3.0) / 6.0
_EPS = float(np.finfo(float).eps)

# steps of `propagate_full` whose couplings are sampled at once; keeps the
# coefficient arrays small whatever `steps` is
_FULL_BLOCK = 1000


# the trajectory.csv header, and the names of the trajectory's columns
TRAJECTORY_COLUMNS = ("t", "a", "b", "lambda_plus", "lambda_minus", "theta", "theta_dot",
                      "p_u", "p_m", "p_plus", "p_minus", "norm")


@dataclass(frozen=True)
class Trajectory:
    """Sampled run history; column arrays share one length and t increases.

    `propagate` computes `p_u`, `p_m` and `norm`, which its result and its
    norm guard read.  The other columns of `TRAJECTORY_COLUMNS` (the sample
    times, the couplings, eigenvalues, mixing angle and rate there, and the
    adiabatic populations) are built from the schedule, the nodes and the
    sampled amplitudes when one of them is first read, and kept: a caller
    that reads only the RunResult never samples the rates.
    """

    p_u: np.ndarray
    p_m: np.ndarray
    norm: np.ndarray
    _schedule: Schedule
    _nodes: np.ndarray
    _every: int
    _amp_u: np.ndarray
    _amp_m: np.ndarray

    def __len__(self) -> int:
        return len(self.p_u)

    def __getattr__(self, name):
        # reached only for a name missing from the instance `__dict__`: a
        # column's first read stores them all there, so later reads are
        # plain attribute reads
        if name not in TRAJECTORY_COLUMNS:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        self.__dict__.update(self._rows())
        return self.__dict__[name]

    def _rows(self) -> dict:
        """The deferred columns, sampled every `_every` nodes and at the last."""
        schedule, n = self._schedule, self._schedule.n
        steps = len(self._nodes) - 1
        t = self._nodes[np.r_[0:steps:self._every, steps]]
        a, b, a_dot, b_dot = schedule.couplings(t)
        lambda_plus, lambda_minus = model.eigenvalues(a, b, n)
        theta = model.mixing_angle(a, b, n)
        p_plus, p_minus = model.adiabatic_populations(theta, self._amp_u, self._amp_m)
        return dict(t=t, a=a, b=b, lambda_plus=lambda_plus, lambda_minus=lambda_minus,
                    theta=theta, theta_dot=model.coupling_rate(a, b, a_dot, b_dot, n),
                    p_plus=p_plus, p_minus=p_minus)


@dataclass(frozen=True)
class RunResult:
    """What one propagation measured at the end of the window.

    `error_estimate` is the reduced run's discretization error estimate
    (None for `propagate_full`).  Its half-resolution run costs about a
    quarter of the main run, so it is computed on first read and kept; no
    command reads it.  Equality compares the measured fields only.

    Figures of the schedule alone, such as its cost and predicted loss,
    come from `schedules.cost` and `analytics.loss_prediction`.
    """

    p_m_final: float
    p_loss: float
    norm_drift: float
    # a partial of a module-level function, so results stay picklable
    _estimate: partial | None = field(default=None, compare=False, repr=False)

    @cached_property
    def error_estimate(self) -> float | None:
        """Bound on the discretization error of p_m_final and p_loss."""
        return None if self._estimate is None else self._estimate()


def _cumulative_mass(schedule: Schedule, t: np.ndarray) -> np.ndarray:
    """Grid mass from t[0] to each point of t: the cdf `_phase_grid` inverts.

    A cell's mass is its dynamical phase int gap dt (trapezoid), plus four
    times the eigenbasis rotation |d theta| = |d atan2(omega, delta)| / 2,
    plus the relative change of the gap |d ln gap|.  The masses are computed
    `_BLOCK` cells at a time; one cumsum over all of them makes the cdf.
    """
    mass = np.empty(len(t))
    mass[0] = 0.0
    for first in range(0, len(t) - 1, _BLOCK):
        points = t[first:first + _BLOCK + 1]
        a, b = schedule.levels(points)
        delta, omega = model.reduced_terms(a, b, schedule.n)
        gap = 2.0 * np.hypot(delta, omega)
        if not gap.min() > 0.0:  # a NaN gap fails too
            raise DegeneratePoint("schedule passes through a = b = 0")
        angle = np.arctan2(omega, delta)
        log_gap = np.log(gap)
        mass[first + 1:first + len(points)] = (
            0.5 * (gap[1:] + gap[:-1]) * (points[1:] - points[:-1])
            + 2.0 * np.abs(angle[1:] - angle[:-1])
            + np.abs(log_gap[1:] - log_gap[:-1]))
    return np.cumsum(mass, out=mass)


def _parallel_mass(schedule: Schedule, t: np.ndarray) -> np.ndarray:
    """`_cumulative_mass` of a parallel schedule, in closed form at each point.

    The gap is constant, g = 2 beta / sqrt(n), so the phase is
    g (t - t[0]) and the relative gap change is 0.  The rotation is closed
    form too: atan2(omega, delta) = pi + chi - psi with sin chi = 1/sqrt(n)
    and cos psi = sqrt(1 - 1/n) F(t / T_par), and psi falls as F rises.  So
    the mass is g (t - t[0]) + 2 (psi(t[0]) - psi(t)), evaluated `_BLOCK`
    points at a time with no sum over cells.
    """
    gap = 2.0 * schedule.alpha_or_beta / math.sqrt(schedule.n)
    if not gap > 0.0:  # a NaN gap fails too
        raise DegeneratePoint("schedule passes through a = b = 0")
    scale = math.sqrt(1.0 - 1.0 / schedule.n)
    mass = np.empty(len(t))
    for first in range(0, len(t), _BLOCK):
        points = t[first:first + _BLOCK]
        psi = np.arccos(scale * schedule._ramp(points / schedule.t_char))
        mass[first:first + len(points)] = gap * (points - t[0]) - 2.0 * psi
    mass -= mass[0]  # adds 2 psi(t[0]), so the first point's mass is exactly 0
    return mass


def _phase_grid(schedule: Schedule, steps: int) -> np.ndarray:
    """Nodes t_i = t_0 < ... < t_steps = t_f at equal steps of the grid mass.

    Each pass sums the mass over a subdivision of the previous pass's nodes
    into cells and places new nodes at equal increments of it, by linear
    interpolation.  For linear and local schedules the mass is sampled
    (`_cumulative_mass`), and three coarse passes of `_COARSE_CELLS` cells,
    each placing half as many nodes, come first: the first on a uniform
    grid, the others over the previous pass's nodes.  A feature narrower
    than a cell still adds its whole mass to the cell that straddles it,
    so each pass crowds nodes around it and the next one resolves it
    further.  The last pass takes 2*steps cells over the coarse nodes and
    places the `steps` steps.  A parallel schedule's mass is closed form
    (`_parallel_mass`) and its density g + 2 |psi'| is smooth on the scale
    of T_par, with no feature for a coarse pass to find, so it takes that
    last pass alone, on a uniform grid.
    """
    fine_pass = (2 * steps, steps)
    if schedule.kind is Strategy.PARALLEL:
        mass, passes = _parallel_mass, (fine_pass,)
    else:
        coarse = (_COARSE_CELLS, _COARSE_CELLS // 2)
        mass, passes = _cumulative_mass, (coarse, coarse, coarse, fine_pass)
    nodes = np.array(schedule.window)
    for cells, count in passes:
        fine = np.interp(np.linspace(0.0, len(nodes) - 1.0, cells + 1),
                         np.arange(len(nodes)), nodes)
        cdf = mass(schedule, fine)
        nodes = np.interp(np.linspace(0.0, cdf[-1], count + 1), cdf, fine)
    return nodes


def _magnus_steps(schedule: Schedule, nodes: np.ndarray, every: int):
    """Pairs (alpha, beta) of the Magnus-4 steps between consecutive nodes,
    multiplied in runs of `every` steps: one pair per run.

    The step exponentiates -i (z sigma_z + x sigma_x + y sigma_y): z and x
    are the step integrals of delta and omega by two-point Gauss, y is the
    commutator term.  U = [[alpha, -conj(beta)], [beta, conj(alpha)]].
    Steps are sampled and stepped `_BLOCK` at a time, in whole runs (one
    run per block if a run is longer), and a short last run is padded with
    identity pairs, which multiply exactly.
    """
    per_block = max(1, _BLOCK // every) * every
    runs_alpha, runs_beta = [], []
    for first in range(0, len(nodes) - 1, per_block):
        block = nodes[first:first + per_block + 1]
        h = block[1:] - block[:-1]
        half, offset = 0.5 * h, _GAUSS_OFFSET * h
        mid = block[:-1] + half
        a, b = schedule.levels(np.concatenate((mid - offset, mid + offset)))
        delta, omega = model.reduced_terms(a, b, schedule.n)
        d1, d2 = delta[:len(h)], delta[len(h):]
        w1, w2 = omega[:len(h)], omega[len(h):]
        z = half * (d1 + d2)
        x = half * (w1 + w2)
        y = _COMMUTATOR * h * h * (d2 * w1 - d1 * w2)
        r = np.sqrt(z * z + x * x + y * y)
        sinc = np.sinc(r / np.pi)
        alpha = np.cos(r) - 1j * sinc * z
        beta = sinc * (y - 1j * x)
        pad = -len(h) % every
        if pad:
            alpha = np.concatenate((alpha, np.ones(pad)))
            beta = np.concatenate((beta, np.zeros(pad)))
        alpha, beta = _compose(alpha.reshape(-1, every), beta.reshape(-1, every))
        runs_alpha.append(alpha)
        runs_beta.append(beta)
    return np.concatenate(runs_alpha), np.concatenate(runs_beta)


def _product(alpha2, beta2, alpha1, beta1):
    """Pair of U_2 U_1, each U = [[alpha, -conj(beta)], [beta, conj(alpha)]].

    (alpha1, beta1) is also U_1's first column, so a unit state (c_u, c_m)
    passed in its place comes out as U_2 applied to it.
    """
    return (alpha2 * alpha1 - np.conj(beta2) * beta1,
            beta2 * alpha1 + np.conj(alpha2) * beta1)


def _compose(alpha: np.ndarray, beta: np.ndarray):
    """Product of the pairs along the last axis, later steps to the left.

    Pairwise halving: log2(width) elementwise passes, no loop over steps.
    """
    while alpha.shape[-1] > 1:
        even = alpha.shape[-1] // 2 * 2
        prod_a, prod_b = _product(alpha[..., 1:even:2], beta[..., 1:even:2],
                                  alpha[..., 0:even:2], beta[..., 0:even:2])
        if even < alpha.shape[-1]:
            prod_a = np.concatenate((prod_a, alpha[..., even:]), axis=-1)
            prod_b = np.concatenate((prod_b, beta[..., even:]), axis=-1)
        alpha, beta = prod_a, prod_b
    return alpha[..., 0], beta[..., 0]


def _running_products(alpha: np.ndarray, beta: np.ndarray):
    """Pairs of U_k ... U_1 U_0 for every k: an inclusive prefix scan.

    Hillis-Steele: after the pass with shift d, entry k holds the product
    of the entries k-2d+1 ... k, so ceil(log2(len)) elementwise passes
    cover everything; no loop over the entries.  The scan overwrites
    `alpha` and `beta` and returns them: `propagate` builds both arrays
    for it and nothing else holds them.
    """
    shift = 1
    while shift < len(alpha):
        alpha[shift:], beta[shift:] = _product(alpha[shift:], beta[shift:],
                                               alpha[:-shift], beta[:-shift])
        shift *= 2
    return alpha, beta


def _require_steps(steps, name: str) -> int:
    """`steps` as an int in [MIN_STEPS, MAX_STEPS], or InvalidParameter naming
    it `name` ("steps" in the library, the flag in the CLI)."""
    steps = model.require_integer(name, steps)
    if steps < MIN_STEPS:
        raise InvalidParameter(f"{name} must be at least {MIN_STEPS}, got {steps}")
    if steps > MAX_STEPS:
        raise InvalidParameter(f"{name} must be at most {MAX_STEPS}, got {steps}")
    return steps


def propagate(schedule: Schedule, steps: int = DEFAULT_STEPS) -> tuple[Trajectory, RunResult]:
    """Evolve |w> through the schedule window; return (Trajectory, RunResult).

    `steps` Magnus-4 steps (`MIN_STEPS` to `MAX_STEPS`) on the phase grid, at the
    schedule's own n; the trajectory is sampled every max(1, steps // 2000)
    steps (about 2000 samples) and always includes both endpoints.  Its
    p_u, p_m and norm columns are computed here; the others on first read.
    """
    steps = _require_steps(steps, "steps")
    every = max(1, steps // 2000)

    n = schedule.n
    nodes = _phase_grid(schedule, steps)
    # the initial state |w> leads the scan as the first column of a pair, so
    # entry k of the scan is the state after chunk k (entry 0: the start)
    c_u0 = complex(math.sqrt((n - 1.0) / n))
    c_m0 = complex(1.0 / math.sqrt(n))
    alpha, beta = _magnus_steps(schedule, nodes, every)
    amp_u, amp_m = _running_products(np.concatenate(([c_u0], alpha)),
                                     np.concatenate(([c_m0], beta)))

    p_u = np.abs(amp_u) ** 2
    p_m = np.abs(amp_m) ** 2
    norm = np.sqrt(p_u + p_m)

    drift = float(np.max(np.abs(norm - 1.0)))
    if not drift <= 1e-9:  # a NaN norm fails too
        raise NonUnit(f"norm drifted by {drift:.3e} during propagation")

    # the last row's mixing angle and p_minus, by the operations that build
    # that row of the trajectory's columns, so the result reads their bits
    # without the rows being built
    theta = model.mixing_angle(*schedule.levels(nodes[-1:]), n)
    _, p_minus = model.adiabatic_populations(theta, amp_u[-1:], amp_m[-1:])
    trajectory = Trajectory(p_u, p_m, norm, schedule, nodes, every, amp_u, amp_m)
    estimate = partial(_half_run_estimate, schedule, nodes, c_u0, c_m0,
                       theta[0], p_m[-1], p_minus[0])
    result = RunResult(min(1.0, float(p_m[-1])), min(1.0, float(p_minus[0])), drift, estimate)
    return trajectory, result


def _half_run_estimate(schedule: Schedule, nodes: np.ndarray, c_u0: complex, c_m0: complex,
                       theta, p_m, p_minus) -> float:
    """`RunResult.error_estimate` of a run on `nodes` from |w> = (c_u0, c_m0)
    that ended at mixing angle `theta` with populations `p_m` and `p_minus`.

    Richardson estimate from every other node, half the steps (order 4: the
    N-step error is about 1/15 of the difference), plus rounding.  The half
    run is composed per block, then over the block products.
    """
    steps = len(nodes) - 1
    half_nodes = nodes[np.r_[0:steps:2, steps]]
    half_alpha, half_beta = _compose(*_magnus_steps(schedule, half_nodes, _BLOCK))
    half_u, half_m = _product(half_alpha, half_beta, c_u0, c_m0)
    _, half_minus = model.adiabatic_populations(theta, half_u, half_m)
    return float(max(abs(abs(half_m) ** 2 - p_m), abs(half_minus - p_minus)) / 15.0
                 + steps * _EPS)


# RK4 steps of `propagate_full`, and `check`'s default (echoed in check.json)
DEFAULT_FULL_STEPS = 30_000
# largest n `propagate_full` accepts: its RK4 work grows as n * steps, and
# the cross-check needs only small n to validate the reduction
ORACLE_CAP = 512


def propagate_full(schedules: list[Schedule], steps: int = DEFAULT_FULL_STEPS) -> list[RunResult]:
    """Full n-dimensional RK4 cross-check of a batch of schedules; one RunResult each.

    Row i propagates schedules[i] at its own n and marked index, over its
    own window with its own dt = window / steps.  The rows' states are
    concatenated into one flat vector, and one loop over the steps
    advances them all.  H is applied through its rank-two factors on each
    row's own slice, never through the two-level reduction:
    H psi = a <w|psi> |w> + b psi_m e_m, where <w|psi> |w> puts the
    slice's sum divided by n on every entry.

    So a stage derivative k = -i H u is, per row, a head -i a/n <sum of the
    slice> on every entry and a tail -i b u_m that the marked entry also
    gets.  A stage keeps these 2R values of R rows, times dt/2 (the third's
    times dt), as its source g: the tails, last row first, then the heads.
    One `np.add.reduceat(psi, reads)` with `reads` = (marked[::-1], starts)
    reads each row's marked entry and slice sum in the same layout: a mark
    is followed by a lower index (the next mark down, or starts[0] = 0), so
    it is read alone.  A stage state psi + h k is never built: its reads are
    psi_m + g_tail + g_head and sum psi + n g_head + g_tail, with g the
    previous stage's source, i.e. reads + weight g + g[::-1] (weight 1 on
    tails, n on heads), as the layout mirrors each row's tail and head.  A
    row of coefficients per node, (-i b reversed, -i a/n) times dt/2 (each
    schedule writes its columns from its own `levels`), turns reads into a
    source.  The update dt/6 (k1 + 2 (k2 + k3) + k4) is then ((g1 + g2) +
    (g2 + g3) + g4) / 3; each tail adds its head, and `gather` (R + row on a
    row's entries, R - 1 - row at its mark) spreads it into psi.  A step
    makes 22 NumPy calls: the read, the gather and the add run over the full
    state, the other 19 on 2R values into buffers made once per call, each
    entry from its own row's values.

    Every guard is checked before any stepping: an empty batch or `steps`
    outside [`MIN_STEPS`, `MAX_STEPS`] (InvalidParameter), and a row with n above
    `ORACLE_CAP` (OracleSizeExceeded).  After stepping, NonUnit names the
    first row whose own norm the (non-symplectic) integrator drifted
    beyond 1e-7.
    """
    if not schedules:
        raise InvalidParameter("batch must hold at least one row")
    steps = _require_steps(steps, "steps")
    for row, schedule in enumerate(schedules):
        if schedule.n > ORACLE_CAP:
            raise OracleSizeExceeded(
                f"row {row}: n={schedule.n} exceeds the full-propagation cap {ORACLE_CAP}")

    rows = len(schedules)
    sizes = np.array([schedule.n for schedule in schedules])
    starts = np.concatenate(([0], np.cumsum(sizes)[:-1]))
    marked = starts + [schedule.marked for schedule in schedules]
    reads = np.concatenate((marked[::-1], starts))
    psi = np.repeat(1.0 / np.sqrt(sizes), sizes).astype(complex)
    gather = np.repeat(np.arange(rows, 2 * rows), sizes)
    gather[marked] = np.arange(rows - 1, -1, -1)

    windows = np.array([schedule.window for schedule in schedules])
    dt = (windows[:, 1] - windows[:, 0]) / steps
    # complex arrays of 2R entries: the products promote their operands to
    # complex anyway, and a Python scalar operand costs a ufunc call more
    # than the whole product
    weight = np.concatenate((np.ones(rows), sizes)).astype(complex)
    third = np.full(2 * rows, 1.0 / 3.0, dtype=complex)
    # the four scaled stage sources, their mirrors, the first's tails and
    # reversed heads, and the reads of a stage state
    g1, g2, g3, g4 = np.empty((4, 2 * rows), dtype=complex)
    m1, m2, m3 = g1[::-1], g2[::-1], g3[::-1]
    tails, heads = g1[:rows], g1[rows:][::-1]
    x = np.empty(2 * rows, dtype=complex)
    add, multiply, reduceat = np.add, np.multiply, np.add.reduceat

    # per node, dt/2 times the coefficients of the reads: -i b, last row
    # first, then -i a / n
    coef = np.empty((2 * _FULL_BLOCK + 1, 2 * rows), dtype=complex)
    for first in range(0, steps, _FULL_BLOCK):
        block = min(_FULL_BLOCK, steps - first)
        nodes = np.arange(2 * first, 2 * (first + block) + 1)
        for row, schedule in enumerate(schedules):
            grid = windows[row, 0] + nodes * (0.5 * dt[row])
            if first + block == steps:
                grid[-1] = windows[row, 1]
            a, b = schedule.levels(grid)
            h = -0.5j * dt[row]
            coef[:len(nodes), rows - 1 - row] = h * b
            coef[:len(nodes), rows + row] = h * a / schedule.n
        c = coef[:len(nodes)]
        # each stage: the scaled source from the reads (the third's at dt, by
        # coefficients doubled as x + x, which is exact as 2 x is), then the
        # next stage's reads; `out` is passed positionally, as the keyword
        # costs more per call than the allocation it saves
        for c1, c2, c3, c4 in zip(c[:-1:2], c[1::2], c[1::2] + c[1::2], c[2::2]):
            r = reduceat(psi, reads)
            multiply(c1, r, g1)
            add(r, add(multiply(weight, g1, x), m1, x), x)
            multiply(c2, x, g2)
            add(r, add(multiply(weight, g2, x), m2, x), x)
            multiply(c3, x, g3)
            add(r, add(multiply(weight, g3, x), m3, x), x)
            multiply(c4, x, g4)
            # ((g1 + g2) + (g2 + g3) + g4) / 3, in that order
            add(g1, g2, g1)
            add(g2, g3, g2)
            add(g1, g2, g1)
            add(g1, g4, g1)
            multiply(third, g1, g1)
            add(tails, heads, tails)
            add(psi, g1[gather], psi)

    results = []
    for row, schedule in enumerate(schedules):
        n = schedule.n
        state = psi[starts[row]:starts[row] + n]
        drift = abs(float(np.linalg.norm(state)) - 1.0)
        if not drift <= 1e-7:  # a NaN norm fails too
            raise NonUnit(f"row {row} (n={n}, {schedule.kind.value}): norm drifted "
                          f"by {drift:.3e} during full propagation")
        c_m = state[schedule.marked]
        c_u = (state.sum() - c_m) / math.sqrt(n - 1.0)
        a_f, b_f = schedule.levels(schedule.window[1])
        _, p_minus = model.adiabatic_populations(model.mixing_angle(a_f, b_f, n), c_u, c_m)
        results.append(RunResult(min(1.0, float(abs(c_m) ** 2)), min(1.0, float(p_minus)), drift))
    return results


def write_trajectory_csv(trajectory: Trajectory, path) -> None:
    """Write the trajectory with the fixed column contract, 12 significant digits."""
    # one format over a flat tuple of floats per block of at most `_BLOCK`
    # cells: no per-row Python objects, and every temporary stays under the
    # mmap threshold whatever the row count.  `bytes %` renders each float by
    # the same PyOS_double_to_string call as `str %`, so the bytes are those
    # of the str, which is never built or encoded
    columns = [getattr(trajectory, name) for name in TRAJECTORY_COLUMNS]
    line = b",".join([b"%.12g"] * len(columns)) + b"\n"
    rows = _BLOCK // len(columns)
    with open(path, "wb") as fh:
        fh.write(",".join(TRAJECTORY_COLUMNS).encode("ascii") + b"\n")
        for first in range(0, len(trajectory), rows):
            cells = np.column_stack([column[first:first + rows] for column in columns])
            fh.write(line * len(cells) % tuple(cells.ravel().tolist()))
