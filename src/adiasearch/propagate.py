"""Time evolution of the search dynamics.

Reduced propagation uses the exponential midpoint rule: each step applies
the exact unitary of the Hamiltonian frozen at the step midpoint,

    U_k = exp(-i H(t_k + dt/2) dt)
        = e^{-i mean dt} [cos(R dt) 1 - i sin(R dt)/R (delta sigma_z + omega sigma_x)],

with R = sqrt(delta^2 + omega^2).  Every step is exactly unitary, so the
norm is conserved to rounding over any number of steps, and the scheme is
second order in dt for time-dependent couplings.

`propagate_full` is an independent cross-check that never builds the
two-level reduction: it integrates the full n-dimensional Schrodinger
equation with classic RK4, applying H through its rank-two structure
(H psi = a <w|psi> |w> + b psi_m e_m, O(n) per product).  Agreement of
p_m between the two paths validates the reduction end to end.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import analytics, model, schedules
from .errors import (
    DegeneratePoint,
    InvalidParameter,
    NonUnit,
    OracleSizeExceeded,
)
from .model import DEFAULT_ORACLE_CAP, SearchInstance
from .schedules import Schedule

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
    """Final-state summary of one propagation."""

    p_m_final: float
    p_loss: float
    cost: float
    t_eff: float
    boundary_residual: float
    analytic_loss: float | None
    norm_drift: float


def local_analytic_state(tau: float, epsilon: float) -> float:
    """Exact adiabatic-frame loss of the local strategy at rescaled time tau.

    tau is the accumulated half-gap phase, tau(t) = int_{t_i}^t gap/2 dt'.
    Returns p_minus(tau) = eps^2/(1+eps^2) * sin^2(sqrt(1+eps^2) tau),
    which hits the exact final loss at tau(t_f) = arctan(sqrt(n-1))/eps.
    """
    if not epsilon > 0:
        raise InvalidParameter(f"epsilon must be positive, got {epsilon!r}")
    kappa_sq = 1.0 + epsilon * epsilon
    s = math.sin(math.sqrt(kappa_sq) * tau)
    return (epsilon * epsilon / kappa_sq) * (s * s)


def _run_summary(schedule: Schedule, p_m_final: float, p_loss: float,
                 norm_drift: float) -> RunResult:
    report = schedules.cost(schedule)
    t_i, t_f = schedule.window
    _, b_i, _, _ = schedule.couplings(t_i)
    a_f, _, _, _ = schedule.couplings(t_f)
    residual = (abs(float(b_i)) + abs(float(a_f))) / schedule.alpha_or_beta
    prediction = analytics.loss_prediction(schedule)
    if prediction is None:
        analytic = None
    elif prediction.exact is not None:
        analytic = prediction.exact
    else:
        analytic = prediction.asymptotic
    return RunResult(
        p_m_final=p_m_final,
        p_loss=p_loss,
        cost=report.cost,
        t_eff=report.t_eff,
        boundary_residual=residual,
        analytic_loss=analytic,
        norm_drift=norm_drift,
    )


def propagate(
    schedule: Schedule,
    inst: SearchInstance,
    steps: int = 200_000,
    stride: int | None = None,
) -> tuple[Trajectory, RunResult]:
    """Evolve |w> through the schedule window; return (Trajectory, RunResult).

    `steps` uniform midpoint steps (at least 1000); the trajectory is
    sampled every `stride` steps (default about 2000 samples) and always
    includes both endpoints.
    """
    if schedule.n != inst.n:
        raise InvalidParameter(f"schedule built for n={schedule.n}, instance has n={inst.n}")
    if steps < 1000:
        raise InvalidParameter(f"steps must be >= 1000, got {steps}")
    if stride is None:
        stride = max(1, steps // 2000)
    stride = int(stride)
    if stride < 1:
        raise InvalidParameter(f"stride must be >= 1, got {stride}")

    n = inst.n
    t_i, t_f = schedule.window
    dt = (t_f - t_i) / steps

    mids = t_i + (np.arange(steps) + 0.5) * dt
    a_m, b_m, _, _ = schedule.couplings(mids)
    mean, delta, omega = model.reduced_terms(a_m, b_m, n)
    r = np.hypot(delta, omega)
    if not np.all(r > 0.0):
        raise DegeneratePoint("schedule passes through a = b = 0")
    ang = r * dt
    sinc = np.sin(ang) / r
    phase = np.exp(-1j * mean * dt)
    uu = (phase * (np.cos(ang) - 1j * sinc * delta)).tolist()
    um = (phase * (-1j * sinc * omega)).tolist()
    mm = (phase * (np.cos(ang) + 1j * sinc * delta)).tolist()

    sample_ks = list(range(0, steps + 1, stride))
    if sample_ks[-1] != steps:
        sample_ks.append(steps)

    c_u = complex(math.sqrt((n - 1.0) / n))
    c_m = complex(1.0 / math.sqrt(n))
    states = [(c_u, c_m)]
    k_prev = 0
    for k_stop in sample_ks[1:]:
        for k in range(k_prev, k_stop):
            c_u, c_m = uu[k] * c_u + um[k] * c_m, um[k] * c_u + mm[k] * c_m
        states.append((c_u, c_m))
        k_prev = k_stop

    ts = t_i + np.asarray(sample_ks, dtype=float) * dt
    ts[-1] = t_f
    amps = np.asarray(states, dtype=complex)
    a, b, a_dot, b_dot = schedule.couplings(ts)
    lam_p, lam_m = model.eigenvalues(a, b, n)
    theta = model.mixing_angle(a, b, n)
    rate = model.coupling_rate(a, b, a_dot, b_dot, n)
    p_u = np.abs(amps[:, 0]) ** 2
    p_m = np.abs(amps[:, 1]) ** 2
    norm = np.sqrt(p_u + p_m)
    p_plus, p_minus = model.adiabatic_populations(theta, amps[:, 0], amps[:, 1])

    drift = float(np.max(np.abs(norm - 1.0)))
    if drift > 1e-9:
        raise NonUnit(f"norm drifted by {drift:.3e} during propagation")

    trajectory = Trajectory(
        t=ts, a=np.asarray(a, float), b=np.asarray(b, float),
        lambda_plus=lam_p, lambda_minus=lam_m, theta=theta, theta_dot=rate,
        p_u=p_u, p_m=p_m, p_plus=p_plus, p_minus=p_minus, norm=norm,
    )
    p_loss = min(1.0, max(0.0, float(1.0 - p_plus[-1])))
    result = _run_summary(schedule, float(p_m[-1]), p_loss, drift)
    return trajectory, result


def propagate_full(
    schedule: Schedule,
    inst: SearchInstance,
    steps: int = 200_000,
    cap: int = DEFAULT_ORACLE_CAP,
) -> RunResult:
    """Full n-dimensional RK4 cross-check; never forms the two-level reduction.

    Refuses with OracleSizeExceeded above `cap`; raises NonUnit when the
    (non-symplectic) integrator drifts the norm beyond 1e-7.
    """
    if schedule.n != inst.n:
        raise InvalidParameter(f"schedule built for n={schedule.n}, instance has n={inst.n}")
    if inst.n > cap:
        raise OracleSizeExceeded(f"n={inst.n} exceeds the dense-propagation cap {cap}")
    if steps < 1000:
        raise InvalidParameter(f"steps must be >= 1000, got {steps}")

    n = inst.n
    m = inst.marked
    t_i, t_f = schedule.window
    dt = (t_f - t_i) / steps

    half_grid = t_i + np.arange(2 * steps + 1) * (0.5 * dt)
    half_grid[-1] = t_f
    a_g, b_g, _, _ = schedule.couplings(half_grid)
    a_g = a_g.tolist()
    b_g = b_g.tolist()

    w = np.full(n, 1.0 / math.sqrt(n))
    psi = w.astype(complex)

    def rhs(a_val: float, b_val: float, state: np.ndarray) -> np.ndarray:
        out = (a_val * np.dot(w, state)) * w
        out[m] += b_val * state[m]
        return -1j * out

    half_dt = 0.5 * dt
    sixth_dt = dt / 6.0
    for k in range(steps):
        j = 2 * k
        a0, b0 = a_g[j], b_g[j]
        a1, b1 = a_g[j + 1], b_g[j + 1]
        a2, b2 = a_g[j + 2], b_g[j + 2]
        k1 = rhs(a0, b0, psi)
        k2 = rhs(a1, b1, psi + half_dt * k1)
        k3 = rhs(a1, b1, psi + half_dt * k2)
        k4 = rhs(a2, b2, psi + dt * k3)
        psi = psi + sixth_dt * (k1 + 2.0 * (k2 + k3) + k4)

    norm = float(np.linalg.norm(psi))
    drift = abs(norm - 1.0)
    if drift > 1e-7:
        raise NonUnit(f"norm drifted by {drift:.3e} during full propagation")

    c_m = psi[m]
    c_u = (psi.sum() - c_m) / math.sqrt(n - 1.0)
    p_m_final = float(abs(c_m) ** 2)
    a_f, b_f, _, _ = schedule.couplings(t_f)
    p_plus, _ = model.adiabatic_populations(model.mixing_angle(a_f, b_f, n), c_u, c_m)
    p_loss = min(1.0, max(0.0, float(1.0 - p_plus)))
    return _run_summary(schedule, p_m_final, p_loss, drift)


def write_trajectory_csv(trajectory: Trajectory, path) -> None:
    """Write the trajectory with the fixed column contract, 12 significant digits."""
    columns = [getattr(trajectory, name) for name in TRAJECTORY_COLUMNS]
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(",".join(TRAJECTORY_COLUMNS) + "\n")
        for row in zip(*columns):
            fh.write(",".join(f"{value:.12g}" for value in row) + "\n")
