import math

import numpy as np
import pytest

from adiasearch.errors import InvalidParameter
from adiasearch.model import (
    MAX_N,
    SearchInstance,
    adiabatic_populations,
    coupling_rate,
    eigenvalues,
    energy_gap,
    mixing_angle,
    reduced_terms,
)


class TestSearchInstance:
    def test_accepts_valid(self):
        inst = SearchInstance(20, 7)
        assert inst.n == 20 and inst.marked == 7

    def test_defaults_marked_zero(self):
        assert SearchInstance(2).marked == 0

    def test_largest_size(self):
        assert MAX_N == 2**53
        assert SearchInstance(MAX_N, MAX_N - 1).n == MAX_N

    @pytest.mark.parametrize("n,marked", [(1, 0), (0, 0), (4, 4), (4, -1), (MAX_N + 1, 0)])
    def test_rejects_bad(self, n, marked):
        with pytest.raises(InvalidParameter):
            SearchInstance(n, marked)


class TestReducedTerms:
    def test_projector_point_n4(self):
        mean, delta, omega = reduced_terms(1.0, 0.0, 4)
        assert mean == pytest.approx(0.5, abs=0)
        assert delta == pytest.approx(0.25, abs=0)
        assert omega == pytest.approx(0.4330127018922193, rel=1e-15)

    def test_marked_only_kills_omega(self):
        for n in (2, 5, 1000):
            mean, delta, omega = reduced_terms(0.0, 1.0, n)
            assert (mean, delta, omega) == (0.5, -0.5, 0.0)

    def test_symmetric_point_n20(self):
        _, delta, omega = reduced_terms(0.5, 0.5, 20)
        assert delta == pytest.approx(-0.025, rel=1e-15)
        assert omega == pytest.approx(0.10897247358851685, rel=1e-15)


class TestEigensystem:
    def test_projector_spectrum(self):
        for n in (2, 4, 20, 1000):
            lam_p, lam_m = eigenvalues(1.0, 0.0, n)
            assert lam_p == pytest.approx(1.0, abs=1e-14)
            assert lam_m == pytest.approx(0.0, abs=1e-14)

    def test_symmetric_point_n4(self):
        lam_p, lam_m = eigenvalues(0.5, 0.5, 4)
        assert lam_p == pytest.approx(0.75, rel=1e-14)
        assert lam_m == pytest.approx(0.25, rel=1e-14)
        assert energy_gap(0.5, 0.5, 4) == pytest.approx(0.5, rel=1e-14)

    def test_final_point_theta_is_half_pi(self):
        assert mixing_angle(0.0, 1.0, 20) == pytest.approx(math.pi / 2, rel=1e-15)

    def test_initial_point_theta(self):
        # |+> must equal |w>: cos(theta) = sqrt(19/20), sin(theta) = 1/sqrt(20)
        theta = mixing_angle(1.0, 0.0, 20)
        assert theta == pytest.approx(math.atan(1 / math.sqrt(19)), rel=1e-14)
        assert math.cos(theta) == pytest.approx(math.sqrt(19 / 20), rel=1e-14)


class TestCouplingRate:
    def test_linear_midpoint_value(self):
        # a = b = 0.5, da/dt = -1, db/dt = +1 over unit total time: sqrt(n-1)
        rate = coupling_rate(0.5, 0.5, -1.0, 1.0, 20)
        assert rate == pytest.approx(4.358898943540674, rel=1e-13)

    def test_static_point_rate_zero(self):
        assert coupling_rate(0.7, 0.2, 0.0, 0.0, 20) == 0.0

    def test_kernel_broadcasts(self):
        rate = coupling_rate(
            np.array([0.5, 1.0]), np.array([0.5, 0.0]),
            np.array([-1.0, -1.0]), np.array([1.0, 1.0]), 20)
        assert rate.shape == (2,)
        assert rate[0] == pytest.approx(math.sqrt(19), rel=1e-13)


class TestAdiabaticProjection:
    def test_unmarked_basis_state(self):
        theta = mixing_angle(1.0, 0.0, 20)
        p_plus, p_minus = adiabatic_populations(theta, 1.0, 0.0)
        assert p_plus == pytest.approx(math.cos(theta) ** 2, rel=1e-13)
        assert p_plus + p_minus == pytest.approx(1.0, abs=1e-15)

    def test_plus_state_projects_to_itself(self):
        theta = mixing_angle(0.9, 0.4, 20)
        p_plus, p_minus = adiabatic_populations(theta, math.cos(theta), math.sin(theta))
        assert p_plus == pytest.approx(1.0, abs=1e-12)
        assert p_minus == pytest.approx(0.0, abs=1e-12)

    def test_equal_weight_at_quarter_angle(self):
        # b = a(1 - 2/n) makes delta vanish, so theta = pi/4
        theta = mixing_angle(1.0, 0.5, 4)
        assert theta == pytest.approx(math.pi / 4, rel=1e-14)
        s = 1 / math.sqrt(2)
        p_plus, _ = adiabatic_populations(theta, s, 1j * s)
        assert p_plus == pytest.approx(0.5, abs=1e-13)


class TestFullHamiltonian:
    """The dense n x n matrix a |w><w| + b |m><m| against the reduction."""

    def test_dense_spectrum_matches_reduction(self):
        h = np.full((4, 4), 1.0 / 4)
        h[0, 0] += 1.0
        dense = np.linalg.eigvalsh(h)
        lam_p, lam_m = eigenvalues(1.0, 1.0, 4)
        assert dense[-1] == pytest.approx(lam_p, abs=1e-12)
        assert dense[-2] == pytest.approx(lam_m, abs=1e-12)

    def test_spectral_equivalence_random(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            n = int(rng.integers(2, 65))
            marked = int(rng.integers(0, n))
            a, b = rng.uniform(0.1, 2.0, size=2)
            h = np.full((n, n), a / n)
            h[marked, marked] += b
            dense = np.linalg.eigvalsh(h)
            lam_p, lam_m = eigenvalues(a, b, n)
            assert abs(dense[-1] - lam_p) < 1e-10
            assert abs(dense[-2] - lam_m) < 1e-10


@pytest.fixture(scope="module")
def samples():
    rng = np.random.default_rng(20260819)
    m = 1_000_000
    a = rng.uniform(0.0, 2.0, m)
    b = rng.uniform(0.0, 2.0, m)
    n = rng.integers(2, 1025, m).astype(float)
    return a, b, n


class TestSpectralIdentities:
    """Million-sample invariants of the closed-form eigenvalues."""

    def test_trace_identity(self, samples):
        a, b, n = samples
        lam_p, lam_m = eigenvalues(a, b, n)
        err = np.abs(lam_p + lam_m - (a + b))
        assert np.all(err <= 1e-12 * np.maximum(a + b, 1e-300))

    def test_determinant_identity(self, samples):
        a, b, n = samples
        lam_p, lam_m = eigenvalues(a, b, n)
        target = a * b * (n - 1.0) / n
        # the product's rounding floor scales with lambda_plus^2
        err = np.abs(lam_p * lam_m - target)
        assert np.all(err <= 1e-12 * np.maximum(lam_p**2, 1e-300))

    def test_gap_coupling_consistency(self, samples):
        a, b, n = samples
        lam_p, lam_m = eigenvalues(a, b, n)
        _, delta, omega = reduced_terms(a, b, n)
        lhs = (lam_p - lam_m) ** 2
        rhs = 4.0 * (delta**2 + omega**2)
        assert np.all(np.abs(lhs - rhs) <= 1e-12 * rhs)

    def test_gap_kernel_matches_eigenvalues(self, samples):
        a, b, n = samples
        lam_p, lam_m = eigenvalues(a, b, n)
        gap = energy_gap(a, b, n)
        assert np.all(np.abs(gap - (lam_p - lam_m)) <= 1e-12 * np.maximum(gap, 1e-300))

    def test_theta_range(self, samples):
        a, b, n = samples
        theta = mixing_angle(a, b, n)
        assert np.all(theta >= 0.0)
        assert np.all(theta <= math.pi / 2)
