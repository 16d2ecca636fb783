import math

import numpy as np
import pytest

from adiasearch.model import SearchInstance, mixing_angle

EPS_REF = 1 / 11


def local_profile(epsilon, n, theta):
    """Closed-form p_minus of a local run at mixing angle `theta`.

    The local schedule pins theta_dot = eps * gap/2, so in the phase
    (theta - theta0)/eps the eigenframe generator is the constant
    sigma_z + eps sigma_y.  From |+> at theta0 = atan(1/sqrt(n-1)):
    p_minus = eps^2/(1+eps^2) * sin^2(sqrt(1+eps^2) (theta - theta0)/eps),
    which is `local_loss_exact` at theta = pi/2.
    """
    theta0 = math.atan(1.0 / math.sqrt(n - 1.0))
    kappa2 = 1.0 + epsilon * epsilon
    phase = math.sqrt(kappa2) * (np.asarray(theta) - theta0) / epsilon
    return epsilon * epsilon / kappa2 * np.sin(phase) ** 2


def dense_rk4(schedule, steps):
    """(p_m, p_minus) at the window's end by classic RK4 on the dense n x n
    H = a/n J + b e_m e_m^T (J all ones), from |w>.

    The reference for `propagate_full`: the same stage times (nodes every
    dt/2, the last one pinned to the window's end) and the same
    `Schedule.levels` samples, but every product is a full matrix-vector
    product, with no rank-two factors and no per-row slices.
    """
    n, m = schedule.n, schedule.marked
    t0, t1 = schedule.window
    dt = (t1 - t0) / steps
    nodes = t0 + np.arange(2 * steps + 1) * (0.5 * dt)
    nodes[-1] = t1
    a, b = schedule.levels(nodes)
    oracle = np.zeros((n, n))
    oracle[m, m] = 1.0
    generators = -1j * (a[:, None, None] * np.full((n, n), 1.0 / n)
                        + b[:, None, None] * oracle)
    psi = np.full(n, 1.0 / math.sqrt(n), dtype=complex)
    for j in range(0, 2 * steps, 2):
        k1 = generators[j] @ psi
        k2 = generators[j + 1] @ (psi + 0.5 * dt * k1)
        k3 = generators[j + 1] @ (psi + 0.5 * dt * k2)
        k4 = generators[j + 2] @ (psi + dt * k3)
        psi = psi + dt / 6.0 * (k1 + 2.0 * (k2 + k3) + k4)
    # |-> = sin(theta)|u> - cos(theta)|m> at the end, |u> uniform off the mark
    theta = mixing_angle(a[-1], b[-1], n)
    lower = np.full(n, math.sin(theta) / math.sqrt(n - 1.0))
    lower[m] = -math.cos(theta)
    return abs(psi[m]) ** 2, abs(np.vdot(lower, psi)) ** 2


@pytest.fixture(scope="session")
def inst4():
    return SearchInstance(4)


@pytest.fixture(scope="session")
def inst20():
    return SearchInstance(20)
