"""Two-level reduction of the rank-two search Hamiltonian.

The control problem lives in an n-dimensional space with

    H(t) = a(t) |w><w| + b(t) |m><m|,

where |w> is the uniform superposition of all n basis states and |m> is the
marked basis state.  The dynamics never leaves span{|w>, |m>}, so everything
reduces to a two-level problem on the orthonormal pair {|u>, |m>}, with |u>
the uniform superposition of the n-1 unmarked states.  In that basis

    H = (a+b)/2 * 1  +  delta * sigma_z  +  omega * sigma_x,
    delta = (a-b)/2 - a/n,      omega = a*sqrt(n-1)/n,

with sigma_z = |u><u| - |m><m|.  Eigenvalues are (a+b)/2 +/- R with
R = sqrt(delta^2 + omega^2); the upper eigenvector is
|+> = cos(theta)|u> + sin(theta)|m> with 2*theta = atan2(omega, delta), which
keeps theta continuous in [0, pi/2] along any path with omega >= 0.  The
non-adiabatic coupling between the instantaneous eigenvectors is

    d(theta)/dt = sqrt(n-1)/n * (a*db/dt - da/dt*b) / gap^2.

Units: hbar = 1 throughout, couplings are angular frequencies.

The kernel functions (`reduced_terms`, `eigenvalues`, `energy_gap`,
`mixing_angle`, `coupling_rate`) and `adiabatic_populations` accept
scalars or numpy arrays and broadcast.  `reduced_terms` gives (delta,
omega) only: the mean (a+b)/2 shifts both levels alike, so only
`eigenvalues` computes it.
"""

from __future__ import annotations

import enum
import math
import operator
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameter

# largest database size: every integer up to 2**53 is exact as a float, and
# the kernels take n as a float
MAX_N = 2**53


def require_integer(name: str, value) -> int:
    """`value` as an int: an int, a NumPy int or an integral float such as 20.0.

    Anything else (20.7, NaN, inf, a string) raises InvalidParameter naming `name`.
    """
    if isinstance(value, (float, np.floating)) and float(value).is_integer():
        return int(value)
    try:
        return operator.index(value)
    except TypeError:
        raise InvalidParameter(f"{name} must be an integer, got {value!r}") from None


def require_positive(name: str, value) -> float:
    """`value` as a float: a positive finite int, float or NumPy real scalar.

    Anything else (a string, None, NaN, +-inf, 0 or a negative number)
    raises InvalidParameter naming `name`.  Callers take the returned
    float, so later arithmetic runs in float64 whatever the scalar type.
    """
    if isinstance(value, (int, float, np.integer, np.floating)):
        try:
            number = float(value)
        except OverflowError:  # an int beyond the float range
            number = math.inf
        if math.isfinite(number) and number > 0:
            return number
    raise InvalidParameter(f"{name} must be a positive finite number, got {value!r}")


def require_choice(name: str, choices: type[enum.Enum], value):
    """The member of the str enum `choices` named by a member, or by its value in any case.

    Anything else (another enum's member, None, 3) raises InvalidParameter
    naming `name` and listing the values.
    """
    if isinstance(value, str) and not isinstance(value, enum.Enum):
        value = next((member for member in choices if member.value == value.lower()), value)
    if isinstance(value, choices):
        return value
    values = tuple(member.value for member in choices)
    raise InvalidParameter(f"{name} must be one of {values}, got {value!r}")


@dataclass(frozen=True)
class SearchInstance:
    """Database size and marked index.

    The reduced dynamics depends on n only; `marked` matters solely for
    full-space (oracle) operations.
    """

    n: int
    marked: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "n", require_integer("n", self.n))
        object.__setattr__(self, "marked", require_integer("marked", self.marked))
        if self.n < 2:
            raise InvalidParameter(f"database size must be >= 2, got n={self.n}")
        if self.n > MAX_N:
            raise InvalidParameter(f"database size must be <= {MAX_N}, got n={self.n}")
        if not 0 <= self.marked < self.n:
            raise InvalidParameter(
                f"marked index must lie in [0, {self.n}), got {self.marked}"
            )


def reduced_terms(a, b, n):
    """Return (delta, omega) for couplings a, b at database size n."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    n = np.asarray(n, dtype=float)
    delta = 0.5 * (a - b) - a / n
    omega = a * np.sqrt(n - 1.0) / n
    return delta, omega


def eigenvalues(a, b, n):
    """Return (lambda_plus, lambda_minus) = (a+b)/2 +/- sqrt(delta^2 + omega^2)."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    mean = 0.5 * (a + b)
    delta, omega = reduced_terms(a, b, n)
    r = np.hypot(delta, omega)
    return mean + r, mean - r


def energy_gap(a, b, n):
    """Return lambda_plus - lambda_minus = sqrt(a^2 + b^2 - 2ab(1 - 2/n))."""
    delta, omega = reduced_terms(a, b, n)
    return 2.0 * np.hypot(delta, omega)


def mixing_angle(a, b, n):
    """Return theta with 2*theta = atan2(omega, delta).

    omega >= 0 for non-negative couplings, so theta is continuous in
    [0, pi/2]; theta = pi/2 is reached exactly when a = 0 (|+> = |m>).
    """
    delta, omega = reduced_terms(a, b, n)
    return 0.5 * np.arctan2(omega, delta)


def coupling_rate(a, b, a_dot, b_dot, n):
    """Return d(theta)/dt = sqrt(n-1)/n * (a*b_dot - a_dot*b) / gap^2."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    nf = np.asarray(n, dtype=float)
    gap = energy_gap(a, b, nf)
    num = np.sqrt(nf - 1.0) / nf * (a * np.asarray(b_dot, float) - np.asarray(a_dot, float) * b)
    return num / gap**2


def adiabatic_populations(theta, c_u, c_m):
    """Return (p_plus, p_minus) of amplitudes (c_u, c_m) on the eigenbasis at theta.

    Broadcasts like the kernels: |+> = cos(theta)|u> + sin(theta)|m>,
    |-> = sin(theta)|u> - cos(theta)|m>.
    """
    c, s = np.cos(theta), np.sin(theta)
    return np.abs(c * c_u + s * c_m) ** 2, np.abs(s * c_u - c * c_m) ** 2
