import math

import numpy as np
import pytest

from adiasearch.errors import ExactDegenerateN, InvalidParameter
from adiasearch.model import SearchInstance, coupling_rate, energy_gap, mixing_angle
from adiasearch.schedules import (
    Shape,
    cost,
    equal_cost_gamma,
    equal_cost_parallel_time,
    extremum,
    linear_schedule,
    local_schedule,
    parallel_peak_reference,
    parallel_schedule,
)

from conftest import EPS_REF


def sample_times(schedule, m=1000, trim=0.0):
    t_i, t_f = schedule.window
    pad = trim * (t_f - t_i)
    return np.linspace(t_i + pad, t_f - pad, m)


class TestLinearSchedule:
    def test_boundaries_exact(self, inst20):
        sched = linear_schedule(1.0, 1.0, inst20)
        a, b, _, _ = sched.couplings([0.0, 0.5, 1.0])
        assert list(a) == [1.0, 0.5, 0.0]
        assert list(b) == [0.0, 0.5, 1.0]

    def test_constant_derivatives(self, inst20):
        sched = linear_schedule(2.0, 4.0, inst20)
        _, _, a_dot, b_dot = sched.couplings(sample_times(sched))
        assert np.all(a_dot == -0.5)
        assert np.all(b_dot == 0.5)

    def test_rejects_nonpositive(self, inst20):
        for bad in [dict(alpha=0.0, t_total=1.0), dict(alpha=1.0, t_total=-2.0)]:
            with pytest.raises(InvalidParameter):
                linear_schedule(bad["alpha"], bad["t_total"], inst20)


class TestLocalSchedule:
    def test_duration(self, inst20):
        sched = local_schedule(1.0, EPS_REF, inst20)
        assert sched.t_char == pytest.approx(95.89577675789482, rel=1e-15)
        assert sched.window == (0.0, sched.t_char)

    def test_duration_scales_with_alpha(self, inst20):
        assert local_schedule(2.0, EPS_REF, inst20).t_char == pytest.approx(
            95.89577675789482 / 2, rel=1e-15)

    def test_boundaries_exact(self, inst20):
        sched = local_schedule(1.3, 0.17, inst20)
        a_start, b_start, _, _ = sched.couplings(0.0)
        a_end, b_end, _, _ = sched.couplings(sched.t_char)
        assert a_start == 1.3 and b_start == 0.0
        assert a_end == 0.0 and b_end == 1.3

    def test_midpoint_symmetric(self, inst20):
        sched = local_schedule(1.0, 0.1, inst20)
        a, b, _, _ = sched.couplings(0.5 * sched.t_char)
        assert a == pytest.approx(0.5, rel=1e-14)
        assert b == pytest.approx(0.5, rel=1e-14)

    def test_sum_rule(self, inst20):
        sched = local_schedule(1.7, 0.08, inst20)
        a, b, _, _ = sched.couplings(sample_times(sched))
        assert np.max(np.abs(a + b - 1.7)) <= 1e-14

    def test_saturation_everywhere(self, inst20):
        # defining property: theta_dot = eps * gap / 2 at every instant
        eps = EPS_REF
        sched = local_schedule(1.0, eps, inst20)
        a, b, a_dot, b_dot = sched.couplings(sample_times(sched))
        rate = coupling_rate(a, b, a_dot, b_dot, 20)
        bound = 0.5 * eps * energy_gap(a, b, 20)
        assert np.max(np.abs(rate - bound) / bound) <= 1e-9

    def test_gap_closed_form_and_minimum(self, inst20):
        sched = local_schedule(1.0, 0.1, inst20)
        ts = sample_times(sched)
        a, b, _, _ = sched.couplings(ts)
        gap = energy_gap(a, b, 20)
        s = (2 * ts - sum(sched.window)) / sched.t_char
        expected = (1 / math.sqrt(20)) / np.sqrt(1 - (19 / 20) * s * s)
        assert np.max(np.abs(gap - expected) / expected) <= 1e-12
        assert np.min(gap) >= 1 / math.sqrt(20) - 1e-12
        mid_gap = float(energy_gap(*sched.couplings(0.5 * sched.t_char)[:2], 20))
        assert mid_gap == pytest.approx(1 / math.sqrt(20), rel=1e-13)

    def test_implicit_time_solution(self, inst20):
        # alpha*(t - t_i) = (sqrt(n-1)/eps) * (1 + (alpha - 2a)/gap)
        for alpha in (1.0, 1.9):
            eps = 0.13
            sched = local_schedule(alpha, eps, inst20)
            ts = sample_times(sched)
            a, b, _, _ = sched.couplings(ts)
            gap = energy_gap(a, b, 20)
            rhs = (math.sqrt(19) / eps) * (1 + (alpha - 2 * a) / gap)
            scale = alpha * sched.t_char
            assert np.max(np.abs(alpha * ts - rhs)) <= 1e-9 * scale


class TestParallelSchedule:
    def test_window_symmetric(self, inst20):
        sched = parallel_schedule(1.0, 4.7, inst20, r=8.0)
        assert sched.window == (-18.8, 18.8)

    def test_apex_couplings(self, inst20):
        a, b, _, _ = parallel_schedule(2.0, 1.0, inst20).couplings(0.0)
        assert a == pytest.approx(2.0, rel=1e-15)
        assert b == pytest.approx(2.0, rel=1e-15)
        gap = float(energy_gap(a, b, 20))
        assert gap == pytest.approx(2 * 2.0 / math.sqrt(20), rel=1e-13)

    def test_untruncated_limit_boundaries(self, inst20):
        # r large enough that tanh saturates to +-1 in float arithmetic
        sched = parallel_schedule(1.0, 1.0, inst20, r=100.0)
        a_start, b_start, _, _ = sched.couplings(sched.window[0])
        a_end = sched.couplings(sched.window[1])[0]
        assert a_start == pytest.approx(2 / math.sqrt(20), rel=1e-14)
        assert b_start == pytest.approx(0.0, abs=1e-15)
        assert a_end == pytest.approx(0.0, abs=1e-15)

    def test_truncation_residual_r8(self, inst20):
        b_start = parallel_schedule(1.0, 1.0, inst20, r=8.0).couplings(-4.0)[1]
        assert b_start == pytest.approx(0.005961181821849737 / 2, rel=1e-12)

    @pytest.mark.parametrize("shape", [Shape.TANH, Shape.ERF])
    def test_gap_constant(self, inst20, shape):
        beta = 1.4
        sched = parallel_schedule(beta, 2.0, inst20, r=12.0, shape=shape)
        a, b, _, _ = sched.couplings(sample_times(sched))
        gap = energy_gap(a, b, 20)
        level = 2 * beta / math.sqrt(20)
        assert np.max(np.abs(gap - level) / level) <= 1e-12

    @pytest.mark.parametrize("shape", [Shape.TANH, Shape.ERF])
    def test_ellipse_identity(self, inst20, shape):
        beta = 0.8
        sched = parallel_schedule(beta, 3.0, inst20, r=10.0, shape=shape)
        a, b, _, _ = sched.couplings(sample_times(sched))
        lhs = (a + b) ** 2 / (4 * beta**2) + (b - a) ** 2 * 19 / (4 * beta**2)
        assert np.max(np.abs(lhs - 1.0)) <= 1e-12

    def test_sum_rule(self, inst20):
        sched = parallel_schedule(1.0, 2.0, inst20, r=8.0)
        ts = sample_times(sched)
        a, b, _, _ = sched.couplings(ts)
        f = np.tanh(ts / 2.0)
        assert np.max(np.abs(a + b - 2 * np.sqrt(1 - (19 / 20) * f * f))) <= 1e-12

    def test_rejects_bad_shape(self, inst20):
        with pytest.raises(InvalidParameter):
            parallel_schedule(1.0, 1.0, inst20, shape="cubic")

    def test_rejects_overflowing_window(self, inst20):
        # r*T/2 = 4e308 is inf; the message names both inputs
        with pytest.raises(InvalidParameter, match=r"T=1e\+308, r=8\.0"):
            parallel_schedule(1.0, 1e308, inst20, r=8.0)


class TestDerivativeConsistency:
    @pytest.mark.parametrize("build", [
        lambda inst: linear_schedule(1.0, 10.0, inst),
        lambda inst: local_schedule(1.0, 0.12, inst),
        lambda inst: parallel_schedule(1.0, 2.5, inst, r=8.0),
        lambda inst: parallel_schedule(1.0, 2.5, inst, r=8.0, shape=Shape.ERF),
    ])
    def test_matches_finite_differences(self, inst20, build):
        sched = build(inst20)
        t_i, t_f = sched.window
        h = 1e-6 * (t_f - t_i)
        ts = sample_times(sched, trim=1e-3)
        _, _, a_dot, b_dot = sched.couplings(ts)
        a_hi, b_hi, _, _ = sched.couplings(ts + h)
        a_lo, b_lo, _, _ = sched.couplings(ts - h)
        fd_a = (a_hi - a_lo) / (2 * h)
        fd_b = (b_hi - b_lo) / (2 * h)
        # normalize by the overall derivative magnitude: near the window
        # edges the erf ramp is exponentially flat and pointwise relative
        # comparison would only measure finite-difference noise
        scale = max(np.max(np.abs(a_dot)), np.max(np.abs(b_dot)))
        assert np.max(np.abs(fd_a - a_dot)) <= 1e-6 * scale
        assert np.max(np.abs(fd_b - b_dot)) <= 1e-6 * scale


class TestThetaAlongSchedules:
    @pytest.mark.parametrize("build", [
        lambda inst: linear_schedule(1.0, 5.0, inst),
        lambda inst: local_schedule(1.0, 0.2, inst),
        lambda inst: parallel_schedule(1.0, 1.5, inst, r=12.0),
    ])
    def test_monotone_nondecreasing(self, inst20, build):
        sched = build(inst20)
        a, b, _, _ = sched.couplings(sample_times(sched, m=2000))
        theta = mixing_angle(a, b, 20)
        assert np.all(np.diff(theta) >= -1e-12)

    def test_initial_angle_matches_w_state(self, inst20):
        # untruncated starts have |+>(t_i) = |w>
        target = math.atan(1 / math.sqrt(19))
        for sched in (local_schedule(1.0, 0.1, inst20),
                      parallel_schedule(1.0, 1.0, inst20, r=100.0)):
            a, b, _, _ = sched.couplings(sched.window[0])
            assert abs(float(mixing_angle(a, b, 20)) - target) <= 1e-10


class TestCost:
    def test_linear_cost_exact(self, inst20):
        report = cost(linear_schedule(1.0, 10.0, inst20))
        assert report.a_peak == 1.0
        assert report.cost == 10.0

    def test_local_cost_exact(self, inst20):
        report = cost(local_schedule(1.0, EPS_REF, inst20))
        assert report.a_peak == 1.0
        assert report.cost == pytest.approx(95.89577675789482, rel=1e-14)
        assert report.cost == report.a_peak * report.t_eff

    def test_parallel_peak_numeric(self, inst20):
        report = cost(parallel_schedule(1.0, 7.99, inst20, r=12.0))
        assert report.a_peak == pytest.approx(1.025978352085154, rel=1e-10)
        assert report.t_eff == pytest.approx(12 * 7.99, rel=1e-15)
        assert report.cost == pytest.approx(98.37080439792456, rel=1e-9)
        assert abs(report.cost - 98.4) < 0.1

    def test_parallel_peak_scales(self):
        for n in (10, 100, 1000):
            report = cost(parallel_schedule(2.0, 1.0, SearchInstance(n), r=30.0))
            assert report.a_peak == pytest.approx(2 * math.sqrt(n / (n - 1)), rel=1e-10)


    @pytest.mark.parametrize("n", [4, 20, 1000, 10**6])
    def test_extremum_refines_parallel_peak(self, n):
        # the interior maximum of a(t) sits between samples; the zoom must
        # close in on beta*sqrt(n/(n-1)) to rounding
        sched = parallel_schedule(1.3, 2.0, SearchInstance(n), r=8.0)
        peak = extremum(lambda t: sched.couplings(t)[0], sched.window, 4097, -1.0)
        assert peak == pytest.approx(1.3 * math.sqrt(n / (n - 1)), rel=1e-15, abs=0.0)

class TestEqualCostBookkeeping:
    def test_gamma_values(self):
        assert equal_cost_gamma(EPS_REF, 12.0) == pytest.approx(6 / 11, rel=1e-15)
        assert equal_cost_gamma(EPS_REF, 8.0) == pytest.approx(4 / 11, rel=1e-15)
        assert equal_cost_gamma(2 / 7, 7.0) == pytest.approx(1.0, rel=1e-15)

    def test_parallel_time_value(self):
        assert equal_cost_parallel_time(EPS_REF, 12.0, 20) == pytest.approx(
            8.654411246249188, rel=1e-14)

    def test_reference_cost_identity(self):
        # peak_reference * r * T_par = 2 sqrt(n-1)/eps by construction
        for n in (3, 10, 20, 137):
            for eps, r, beta in [(0.1, 8.0, 1.0), (0.03, 12.0, 2.5)]:
                t_par = equal_cost_parallel_time(eps, r, n, beta=beta)
                lhs = parallel_peak_reference(beta, n) * r * t_par
                assert lhs == pytest.approx(2 * math.sqrt(n - 1) / eps, rel=1e-12)

    def test_peak_reference_value(self):
        assert parallel_peak_reference(1.0, 20) == pytest.approx(
            0.9233805168766388, rel=1e-15)
        assert parallel_peak_reference(1.0, 2) == 0.0

    def test_degenerate_n2_refused(self):
        with pytest.raises(ExactDegenerateN):
            equal_cost_parallel_time(0.1, 8.0, 2)
