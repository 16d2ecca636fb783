import math

import numpy as np
import pytest

from adiasearch.model import SearchInstance

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


@pytest.fixture(scope="session")
def inst4():
    return SearchInstance(4)


@pytest.fixture(scope="session")
def inst20():
    return SearchInstance(20)
