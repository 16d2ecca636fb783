"""Time evolution of the search dynamics.

Reduced propagation uses the fourth-order Magnus integrator with two
Gauss points per step.  In the two-level basis H = delta sigma_z +
omega sigma_x (the global phase (a+b)/2 is dropped; no population sees
it), and one step of length h applies the exact SU(2) exponential

    U_k = exp(-i [h/2 (H_1 + H_2) - i sqrt(3)/12 h^2 [H_2, H_1]]),

with H_1, H_2 at the Gauss points and the commutator along sigma_y.
Every step is unitary, so the norm is conserved to rounding.  The steps
are multiplied by pairwise halving in NumPy; the only Python loop runs
over the ~2000 sampled trajectory chunks, never over steps.

The nodes are not uniform in t: they sit at equal increments of phase,
rotation and relative gap change (`_phase_grid`), so a crossing of width
~1/sqrt(n) gets as many steps as it needs.  The same nodes taken every
other one give a half-resolution run, and the difference, divided by
2^4 - 1, estimates the discretization error (`RunResult.error_estimate`).

`propagate_full` is an independent cross-check that never builds the
two-level reduction: it integrates the full n-dimensional Schrodinger
equation with classic RK4, applying H through its rank-two factors
(H psi = a <w|psi> |w> + b psi_m e_m, O(n) per product).  It takes a
batch of (schedule, instance) rows, concatenates their states into one
flat vector and advances all of them in one loop over the steps, each
row with its own window and dt; the guards are per row.  Agreement of
p_m between the two paths validates the reduction end to end.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import model
from .errors import (
    DegeneratePoint,
    InvalidParameter,
    NonUnit,
    OracleSizeExceeded,
)
from .model import SearchInstance
from .schedules import Schedule

DEFAULT_STEPS = 16_000
# fewest steps any propagation or command accepts
MIN_STEPS = 1000

# Gauss-Legendre points of a step sit at its midpoint -/+ sqrt(3)/6 of its
# length; the Magnus-4 commutator term is sqrt(3)/12 h^2 [A_2, A_1], and
# [H_2, H_1] = 2i (delta_2 omega_1 - delta_1 omega_2) sigma_y.
_GAUSS_OFFSET = math.sqrt(3.0) / 6.0
_COMMUTATOR = math.sqrt(3.0) / 6.0
_EPS = float(np.finfo(float).eps)

# steps of `propagate_full` whose couplings are sampled at once; keeps the
# coefficient arrays small whatever `steps` is
_FULL_BLOCK = 1000

TRAJECTORY_COLUMNS = (
    "t", "a", "b", "lambda_plus", "lambda_minus", "theta", "theta_dot",
    "p_u", "p_m", "p_plus", "p_minus", "norm",
)


@dataclass(frozen=True)
class Trajectory:
    """Sampled run history; column arrays share one length and t increases."""

    t: np.ndarray
    a: np.ndarray
    b: np.ndarray
    lambda_plus: np.ndarray
    lambda_minus: np.ndarray
    theta: np.ndarray
    theta_dot: np.ndarray
    p_u: np.ndarray
    p_m: np.ndarray
    p_plus: np.ndarray
    p_minus: np.ndarray
    norm: np.ndarray

    def __len__(self) -> int:
        return len(self.t)


@dataclass(frozen=True)
class RunResult:
    """What one propagation measured at the end of the window.

    Figures of the schedule alone, such as its cost and predicted loss,
    come from `schedules.cost` and `analytics.loss_prediction`.
    """

    p_m_final: float
    p_loss: float
    norm_drift: float
    error_estimate: float | None = None


def _phase_grid(schedule: Schedule, n: int, steps: int) -> np.ndarray:
    """Nodes t_i = t_0 < ... < t_steps = t_f at equal steps of the grid mass.

    The mass of a stretch of the window is its dynamical phase int gap dt,
    plus four times the eigenbasis rotation |d theta|, plus the relative
    change of the gap |d ln gap|.  It is summed cell by cell on a grid of
    2*steps cells and inverted by linear interpolation.  The first pass
    uses a uniform grid; the second subdivides the first pass's nodes, so
    that features narrower than a uniform cell are resolved as well.
    """
    t_i, t_f = schedule.window
    nodes = np.linspace(t_i, t_f, steps + 1)
    index = np.arange(steps + 1)
    halves = np.arange(2 * steps + 1) / 2.0
    for _ in range(2):
        fine = np.interp(halves, index, nodes)
        a, b, _, _ = schedule.couplings(fine)
        gap = model.energy_gap(a, b, n)
        if not np.all(gap > 0.0):
            raise DegeneratePoint("schedule passes through a = b = 0")
        mass = (0.5 * (gap[1:] + gap[:-1]) * np.diff(fine)
                + 4.0 * np.abs(np.diff(model.mixing_angle(a, b, n)))
                + np.abs(np.diff(np.log(gap))))
        cdf = np.concatenate(([0.0], np.cumsum(mass)))
        nodes = np.interp(np.linspace(0.0, cdf[-1], steps + 1), cdf, fine)
    return nodes


def _magnus_steps(schedule: Schedule, n: int, nodes: np.ndarray):
    """SU(2) pairs (alpha, beta) of the Magnus-4 step between consecutive nodes.

    The step exponentiates -i (z sigma_z + x sigma_x + y sigma_y): z and x
    are the step integrals of delta and omega by two-point Gauss, y is the
    commutator term.  U = [[alpha, -conj(beta)], [beta, conj(alpha)]].
    """
    h = np.diff(nodes)
    mid = nodes[:-1] + 0.5 * h
    a, b, _, _ = schedule.couplings(
        np.concatenate((mid - _GAUSS_OFFSET * h, mid + _GAUSS_OFFSET * h)))
    _, delta, omega = model.reduced_terms(a, b, n)
    d1, d2 = np.split(delta, 2)
    w1, w2 = np.split(omega, 2)
    z = 0.5 * h * (d1 + d2)
    x = 0.5 * h * (w1 + w2)
    y = _COMMUTATOR * h * h * (d2 * w1 - d1 * w2)
    r = np.sqrt(z * z + x * x + y * y)
    sinc = np.sinc(r / np.pi)
    return np.cos(r) - 1j * sinc * z, sinc * (y - 1j * x)


def _compose(alpha: np.ndarray, beta: np.ndarray):
    """Product of the pairs along the last axis, later steps to the left.

    Pairwise halving: log2(width) elementwise passes, no loop over steps.
    """
    while alpha.shape[-1] > 1:
        even = alpha.shape[-1] // 2 * 2
        a1, b1 = alpha[..., 0:even:2], beta[..., 0:even:2]
        a2, b2 = alpha[..., 1:even:2], beta[..., 1:even:2]
        prod_a = a2 * a1 - np.conj(b2) * b1
        prod_b = b2 * a1 + np.conj(a2) * b1
        if even < alpha.shape[-1]:
            prod_a = np.concatenate((prod_a, alpha[..., even:]), axis=-1)
            prod_b = np.concatenate((prod_b, beta[..., even:]), axis=-1)
        alpha, beta = prod_a, prod_b
    return alpha[..., 0], beta[..., 0]


def propagate(
    schedule: Schedule,
    inst: SearchInstance,
    steps: int = DEFAULT_STEPS,
) -> tuple[Trajectory, RunResult]:
    """Evolve |w> through the schedule window; return (Trajectory, RunResult).

    `steps` Magnus-4 steps (at least `MIN_STEPS`) on the phase grid; the
    trajectory is sampled every max(1, steps // 2000) steps (about 2000
    samples) and always includes both endpoints.
    """
    if schedule.n != inst.n:
        raise InvalidParameter(f"schedule built for n={schedule.n}, instance has n={inst.n}")
    if steps < MIN_STEPS:
        raise InvalidParameter(f"steps must be >= {MIN_STEPS}, got {steps}")
    every = max(1, steps // 2000)

    n = inst.n
    nodes = _phase_grid(schedule, n, steps)
    alpha, beta = _magnus_steps(schedule, n, nodes)
    chunks = -(-steps // every)
    pad = chunks * every - steps
    alpha = np.concatenate((alpha, np.ones(pad))).reshape(chunks, every)
    beta = np.concatenate((beta, np.zeros(pad))).reshape(chunks, every)
    chunk_alpha, chunk_beta = _compose(alpha, beta)

    c_u0 = complex(math.sqrt((n - 1.0) / n))
    c_m0 = complex(1.0 / math.sqrt(n))
    c_u, c_m = c_u0, c_m0
    amp_u, amp_m = [c_u], [c_m]
    for al, be in zip(chunk_alpha.tolist(), chunk_beta.tolist()):
        c_u, c_m = al * c_u - be.conjugate() * c_m, be * c_u + al.conjugate() * c_m
        amp_u.append(c_u)
        amp_m.append(c_m)

    ts = nodes[np.r_[0:steps:every, steps]]
    amp_u = np.asarray(amp_u)
    amp_m = np.asarray(amp_m)
    a, b, a_dot, b_dot = schedule.couplings(ts)
    lam_p, lam_m = model.eigenvalues(a, b, n)
    theta = model.mixing_angle(a, b, n)
    rate = model.coupling_rate(a, b, a_dot, b_dot, n)
    p_u = np.abs(amp_u) ** 2
    p_m = np.abs(amp_m) ** 2
    norm = np.sqrt(p_u + p_m)
    p_plus, p_minus = model.adiabatic_populations(theta, amp_u, amp_m)

    drift = float(np.max(np.abs(norm - 1.0)))
    if not drift <= 1e-9:  # a NaN norm fails too
        raise NonUnit(f"norm drifted by {drift:.3e} during propagation")

    # Richardson estimate from the same nodes at half the steps (order 4:
    # the N-step error is about 1/15 of the difference), plus rounding
    half_alpha, half_beta = _compose(*_magnus_steps(
        schedule, n, nodes[np.r_[0:steps:2, steps]]))
    half_u = half_alpha * c_u0 - np.conj(half_beta) * c_m0
    half_m = half_beta * c_u0 + np.conj(half_alpha) * c_m0
    _, half_minus = model.adiabatic_populations(theta[-1], half_u, half_m)
    estimate = (max(abs(abs(half_m) ** 2 - p_m[-1]), abs(half_minus - p_minus[-1])) / 15.0
                + steps * _EPS)

    trajectory = Trajectory(
        t=ts, a=np.asarray(a, float), b=np.asarray(b, float),
        lambda_plus=lam_p, lambda_minus=lam_m, theta=theta, theta_dot=rate,
        p_u=p_u, p_m=p_m, p_plus=p_plus, p_minus=p_minus, norm=norm,
    )
    result = RunResult(float(p_m[-1]), min(1.0, float(p_minus[-1])), drift, float(estimate))
    return trajectory, result


# RK4 steps of `propagate_full`, and `check`'s default (echoed in check.json)
DEFAULT_FULL_STEPS = 30_000
# largest n `propagate_full` accepts: its RK4 work grows as n * steps, and
# the cross-check needs only small n to validate the reduction
ORACLE_CAP = 512


def propagate_full(
    schedules: list[Schedule],
    insts: list[SearchInstance],
    steps: int = DEFAULT_FULL_STEPS,
) -> list[RunResult]:
    """Full n-dimensional RK4 cross-check of a batch of rows; one RunResult each.

    Row i propagates schedules[i] on insts[i] over its own window with its
    own dt = window / steps.  The rows' states are concatenated into one
    flat vector, and one loop over the steps advances them all.  H is
    applied through its rank-two factors on each row's own slice, never
    through the two-level reduction: H psi = a <w|psi> |w> + b psi_m e_m,
    where <w|psi> |w> puts the slice's sum divided by n on every entry.

    Every guard is checked before any stepping: a batch that is empty or
    whose lists differ in length, `steps` below `MIN_STEPS`, and, per row, a
    schedule built for another n (InvalidParameter) or n above `ORACLE_CAP`
    (OracleSizeExceeded).  After stepping, NonUnit names the first row
    whose own norm the (non-symplectic) integrator drifted beyond 1e-7.
    """
    if len(schedules) != len(insts):
        raise InvalidParameter(
            f"batch has {len(schedules)} schedules but {len(insts)} instances")
    if not schedules:
        raise InvalidParameter("batch must hold at least one row")
    if steps < MIN_STEPS:
        raise InvalidParameter(f"steps must be >= {MIN_STEPS}, got {steps}")
    for row, (schedule, inst) in enumerate(zip(schedules, insts)):
        if schedule.n != inst.n:
            raise InvalidParameter(
                f"row {row}: schedule built for n={schedule.n}, instance has n={inst.n}")
        if inst.n > ORACLE_CAP:
            raise OracleSizeExceeded(
                f"row {row}: n={inst.n} exceeds the full-propagation cap {ORACLE_CAP}")

    sizes = np.array([inst.n for inst in insts])
    starts = np.concatenate(([0], np.cumsum(sizes)[:-1]))
    row_of = np.repeat(np.arange(len(insts)), sizes)
    marked = starts + [inst.marked for inst in insts]
    psi = np.repeat(1.0 / np.sqrt(sizes), sizes).astype(complex)

    windows = np.array([schedule.window for schedule in schedules])
    dt = (windows[:, 1] - windows[:, 0]) / steps
    full_dt = np.repeat(dt, sizes)
    half_dt = 0.5 * full_dt
    sixth_dt = full_dt / 6.0

    def rhs(wa, mb, state):
        # -i H state per row, with wa = -i a / n and mb = -i b
        out = (wa * np.add.reduceat(state, starts))[row_of]
        out[marked] += mb * state[marked]
        return out

    a = np.empty((2 * _FULL_BLOCK + 1, len(insts)))
    b = np.empty_like(a)
    for first in range(0, steps, _FULL_BLOCK):
        block = min(_FULL_BLOCK, steps - first)
        nodes = np.arange(2 * first, 2 * (first + block) + 1)
        for row, schedule in enumerate(schedules):
            grid = windows[row, 0] + nodes * (0.5 * dt[row])
            if first + block == steps:
                grid[-1] = windows[row, 1]
            a[:len(nodes), row], b[:len(nodes), row], _, _ = schedule.couplings(grid)
        wa = -1j * a / sizes
        mb = -1j * b
        for j in range(0, 2 * block, 2):
            k1 = rhs(wa[j], mb[j], psi)
            k2 = rhs(wa[j + 1], mb[j + 1], psi + half_dt * k1)
            k3 = rhs(wa[j + 1], mb[j + 1], psi + half_dt * k2)
            k4 = rhs(wa[j + 2], mb[j + 2], psi + full_dt * k3)
            psi = psi + sixth_dt * (k1 + 2.0 * (k2 + k3) + k4)

    results = []
    for row, (schedule, inst) in enumerate(zip(schedules, insts)):
        n = inst.n
        state = psi[starts[row]:starts[row] + n]
        drift = abs(float(np.linalg.norm(state)) - 1.0)
        if not drift <= 1e-7:  # a NaN norm fails too
            raise NonUnit(f"row {row} (n={n}, {schedule.kind.value}): norm drifted "
                          f"by {drift:.3e} during full propagation")
        c_m = state[inst.marked]
        c_u = (state.sum() - c_m) / math.sqrt(n - 1.0)
        a_f, b_f, _, _ = schedule.couplings(schedule.window[1])
        _, p_minus = model.adiabatic_populations(model.mixing_angle(a_f, b_f, n), c_u, c_m)
        results.append(RunResult(float(abs(c_m) ** 2), min(1.0, float(p_minus)), drift))
    return results


def write_trajectory_csv(trajectory: Trajectory, path) -> None:
    """Write the trajectory with the fixed column contract, 12 significant digits."""
    # one format over one flat tuple of floats: no per-row Python objects
    cells = np.column_stack([getattr(trajectory, name) for name in TRAJECTORY_COLUMNS])
    line = ",".join(["%.12g"] * len(TRAJECTORY_COLUMNS)) + "\n"
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(",".join(TRAJECTORY_COLUMNS) + "\n")
        fh.write(line * len(cells) % tuple(cells.ravel().tolist()))
