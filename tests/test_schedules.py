import hashlib
import math
import re

import numpy as np
import pytest

from adiasearch.errors import ExactDegenerateN, InvalidParameter
from adiasearch.model import MAX_N, SearchInstance, coupling_rate, energy_gap, mixing_angle
from adiasearch.schedules import (
    Shape,
    _erf,
    cost,
    equal_cost_gamma,
    equal_cost_parallel_time,
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

    @pytest.mark.parametrize("alpha, t_total", [(1e308, 440.0), (1.0, 1e-320)])
    def test_rejects_overflowing_couplings(self, inst20, alpha, t_total):
        # alpha*T (inside a) or alpha/T (a_dot) is inf; both inputs are named
        with pytest.raises(InvalidParameter, match=re.escape(f"alpha={alpha!r}, T={t_total!r}")):
            linear_schedule(alpha, t_total, inst20)


class TestLocalSchedule:
    @pytest.mark.parametrize("alpha, epsilon", [
        (1.0, 1e-310),     # T is inf
        (1e300, 1e10),     # alpha*epsilon is inf, so T is 0
        (1e-200, 1e-200),  # alpha*epsilon underflows to 0
        (1e200, 0.1),      # T is finite, alpha/T is inf
    ])
    def test_rejects_overflowing_window(self, inst20, alpha, epsilon):
        with pytest.raises(InvalidParameter, match=re.escape(f"alpha={alpha!r}, epsilon={epsilon!r}")):
            local_schedule(alpha, epsilon, inst20)

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

    @pytest.mark.parametrize("order", [[0, 1], [1, 0], [2, 0, 1, 3], [3, 1, 0, 2]],
                             ids=["sorted", "reversed", "ends-inside", "unsorted"])
    def test_levels_exact_at_ends_of_any_array(self, inst20, order):
        sched = local_schedule(1.3, 0.17, inst20)
        t_i, t_f = sched.window
        times = np.array([t_i, t_f, 0.3 * t_f, 0.8 * t_f])[order]
        a, b = sched.levels(times)
        for k, t in enumerate(times):
            if t == t_i:
                assert (a[k], b[k]) == (1.3, 0.0)
            elif t == t_f:
                assert (a[k], b[k]) == (0.0, 1.3)
            else:
                assert (a[k], b[k]) == tuple(float(x) for x in sched.levels(float(t)))

    @pytest.mark.parametrize("wrap", [float, np.float64, np.asarray], ids=["float", "numpy", "0-d"])
    def test_levels_exact_at_scalar_ends(self, inst20, wrap):
        sched = local_schedule(1.3, 0.17, inst20)
        t_i, t_f = sched.window
        assert tuple(map(float, sched.levels(wrap(t_i)))) == (1.3, 0.0)
        assert tuple(map(float, sched.levels(wrap(t_f)))) == (0.0, 1.3)

    def test_levels_nan_beside_an_end(self, inst20):
        sched = local_schedule(1.3, 0.17, inst20)
        t_i, t_f = sched.window
        a, b = sched.levels([math.nan, t_f, t_i, math.nan])
        assert np.isnan(a[[0, 3]]).all() and np.isnan(b[[0, 3]]).all()
        assert (a[1], b[1], a[2], b[2]) == (0.0, 1.3, 1.3, 0.0)

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
        with pytest.raises(InvalidParameter) as info:
            parallel_schedule(1.0, 1.0, inst20, shape="cubic")
        assert str(info.value) == "shape must be one of ('tanh', 'erf'), got 'cubic'"

    @pytest.mark.parametrize("shape", ["ERF", Shape.ERF])
    def test_shape_by_member_or_any_case(self, shape):
        inst = SearchInstance(20)
        assert (parallel_schedule(1.0, 3.0, inst, shape=shape)
                == parallel_schedule(1.0, 3.0, inst, shape="erf"))

    def test_rejects_overflowing_window(self, inst20):
        # r*T/2 = 4e308 is inf; the message names both inputs
        with pytest.raises(InvalidParameter, match=r"T=1e\+308, r=8\.0"):
            parallel_schedule(1.0, 1e308, inst20, r=8.0)

    @pytest.mark.parametrize("beta, t_par", [(1.0, 1e-310), (1e-100, 1e-310), (1e10, 1e-300)])
    def test_rejects_overflowing_rate(self, inst20, beta, t_par):
        # 1/T (in f_dot) or beta/T (in a_dot, b_dot) is inf
        with pytest.raises(InvalidParameter, match=re.escape(f"beta={beta!r}, T={t_par!r}")):
            parallel_schedule(beta, t_par, inst20, r=8.0)


class TestNumpyScalarInputs:
    # each input given as a NumPy scalar gives what its float value gives,
    # computed in float64 (a float32 product would differ, or warn on overflow)
    @pytest.mark.parametrize("scalar", [np.int64, np.float32, np.float64])
    @pytest.mark.parametrize("build", [
        lambda x, y, z: linear_schedule(x, y, SearchInstance(20)),
        lambda x, y, z: local_schedule(x, y, SearchInstance(20)),
        lambda x, y, z: parallel_schedule(x, y, SearchInstance(20), r=z),
        lambda x, y, z: parallel_schedule(x, y, SearchInstance(20), r=z, shape="erf"),
        lambda x, y, z: equal_cost_gamma(y, z),
        lambda x, y, z: equal_cost_parallel_time(y, z, 20),
        lambda x, y, z: parallel_peak_reference(x, 20),
    ], ids=["linear", "local", "tanh", "erf", "gamma", "t_par", "peak"])
    def test_same_as_float(self, scalar, build):
        values = [scalar(v) for v in (1.3, 4.7, 6.5)]
        got = build(*values)
        assert got == build(*[float(v) for v in values])
        numbers = [got] if isinstance(got, float) else [
            got.alpha_or_beta, got.t_char, *got.window, got.epsilon or 0.0, got.r or 0.0]
        assert all(type(v) is float for v in numbers)


# sha256 of the bytes of `levels` and of all four `couplings` arrays on the
# 1,001-point grid and at both scalar window ends, per kind, written with
# this NumPy version
_SAMPLE_DIGESTS_NUMPY = "2.4.6"
_SAMPLE_DIGESTS = {
    "linear": "b37e586319632bbb8077d7d1d2bb160205701c8e9ba7f2dec9ecd3a95a9e4956",
    "local": "90eee79fb183e2302c7fb5cc7a894766c425158978598e1c9dda01c430869d83",
    "tanh": "8476cb0b43fcfde9292d2b246b2071ffd070f1ec3bdfec9b107c74e8ba4f88e8",
    "erf": "28fe20dd5aa154637153e1e506ebce709c078b01b0efa59dc8de6091143a91e1",
}


class TestLevels:
    @pytest.mark.parametrize("kind, build", [
        ("linear", lambda inst: linear_schedule(1.3, 440.0, inst)),
        ("local", lambda inst: local_schedule(0.7, EPS_REF, inst)),
        ("tanh", lambda inst: parallel_schedule(1.1, 4.7, inst, r=8.0)),
        ("erf", lambda inst: parallel_schedule(0.9, 3.1, inst, r=6.5, shape="erf")),
    ], ids=["linear", "local", "tanh", "erf"])
    def test_levels_are_the_couplings_without_rates(self, kind, build):
        sched = build(SearchInstance(1000))
        t_i, t_f = sched.window
        for t in (np.linspace(t_i, t_f, 1001), t_i, t_f, 0.3 * t_i + 0.7 * t_f):
            levels = sched.levels(t)
            couplings = sched.couplings(t)[:2]
            for got, want in zip(levels, couplings):
                assert np.shape(got) == np.shape(t)
                assert np.asarray(got).tobytes() == np.asarray(want).tobytes()
        # the sampled bits themselves, rates at full precision included
        digest = hashlib.sha256()
        for t in (np.linspace(t_i, t_f, 1001), t_i, t_f):
            for values in (*sched.levels(t), *sched.couplings(t)):
                digest.update(np.asarray(values).tobytes())
        found = digest.hexdigest()
        if found != _SAMPLE_DIGESTS[kind]:
            message = f"{kind} samples changed: sha256 {found}"
            if _SAMPLE_DIGESTS_NUMPY != np.__version__:
                message += (f" (digests written with NumPy {_SAMPLE_DIGESTS_NUMPY},"
                            f" this run uses NumPy {np.__version__})")
            pytest.fail(message, pytrace=False)


class TestErfKernel:
    def test_ulp_error_against_mpmath_no_worse_than_scipy(self):
        mpmath = pytest.importorskip("mpmath")
        special = pytest.importorskip("scipy.special")
        rng = np.random.default_rng(2018)
        x = np.concatenate([np.linspace(-8.0, 8.0, 2001), rng.uniform(-8.0, 8.0, 2000)])
        with mpmath.workdps(40):
            exact = [mpmath.erf(mpmath.mpf(float(v))) for v in x]
            # in ulps of the float nearest the exact value
            ulp = np.spacing(np.abs([float(e) for e in exact]))

            def max_ulps(values):
                return max(abs(float(mpmath.mpf(float(v)) - e)) / u
                           for v, e, u in zip(values, exact, ulp))

            assert max_ulps(_erf(x)) <= max_ulps(special.erf(x))

    def test_matches_scipy_bits_where_no_exp_is_taken(self):
        special = pytest.importorskip("scipy.special")
        # T/U on |x| <= 1 and the saturated +-1 from 6 on: bit for bit,
        # the edges 1 and 6 included
        for grid in (np.linspace(0.0, 1.0, 20001), np.linspace(6.0, 40.0, 20001)):
            x = np.concatenate([grid, -grid])
            assert _erf(x).tobytes() == special.erf(x).tobytes()
        # 1 < |x| < 6 takes exp(-x^2): NumPy's exp and libm's may differ by 1 ulp
        grid = np.linspace(1.0, 6.0, 20001)[1:-1]
        x = np.concatenate([grid, -grid, [np.nextafter(1.0, 2.0), np.nextafter(6.0, 0.0)]])
        want = special.erf(x)
        assert np.all(np.abs(_erf(x) - want) <= np.spacing(np.abs(want)))

    def test_special_inputs(self):
        # a scalar or 0-d array gives a NumPy float, as a ufunc does
        for x in (0.5, np.asarray(2.0)):
            got = _erf(x)
            assert isinstance(got, float)
            assert got == pytest.approx(math.erf(float(x)), rel=1e-15)
        grid = np.linspace(-7.0, 7.0, 12).reshape(3, 4)
        got = _erf(grid)
        assert got.shape == (3, 4)
        assert np.allclose(got.ravel(), [math.erf(v) for v in grid.ravel()], rtol=1e-15, atol=0)
        assert _erf(np.array([])).shape == (0,)
        signed = _erf(np.array([0.0, -0.0]))
        assert list(signed) == [0.0, 0.0]
        assert list(np.signbit(signed)) == [False, True]
        # without a RuntimeWarning, which pyproject.toml turns into a failure
        nan, pos, neg = _erf(np.array([np.nan, np.inf, -np.inf]))
        assert math.isnan(nan)
        assert (pos, neg) == (1.0, -1.0)


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
        # the interior maximum of a(t) is beta*sqrt(n/(n-1)) to rounding
        sched = parallel_schedule(1.3, 2.0, SearchInstance(n), r=8.0)
        peak = cost(sched).a_peak
        assert peak == pytest.approx(1.3 * math.sqrt(n / (n - 1)), rel=1e-15, abs=0.0)

    @pytest.mark.parametrize("n", [10**6, 10**12])
    def test_parallel_peak_with_flat_window_ends(self, n):
        # tanh(+-20) rounds to +-1, so a_dot is 0 at both ends; the peak is
        # still the interior one, not a(t_i)
        sched = parallel_schedule(1.3, 2.0, SearchInstance(n), r=40.0)
        assert np.all(sched.couplings(np.array(sched.window))[2] == 0.0)
        peak = cost(sched).a_peak
        assert peak == pytest.approx(1.3 * math.sqrt(n / (n - 1)), rel=1e-15, abs=0.0)

    @pytest.mark.parametrize("shape", [Shape.TANH, Shape.ERF])
    @pytest.mark.parametrize("n, r", [(2, 8.0), (3, 1.0)])
    def test_parallel_peak_at_window_edge(self, n, r, shape):
        # the window's F range misses F* = -1/sqrt(n-1): a(t) rises to t_i
        sched = parallel_schedule(1.3, 2.0, SearchInstance(n), r=r, shape=shape)
        assert cost(sched).a_peak == float(sched.couplings(sched.window[0])[0])

    @pytest.mark.parametrize("shape", [Shape.TANH, Shape.ERF])
    @pytest.mark.parametrize("r", [1.0, 8.0, 40.0])
    @pytest.mark.parametrize("n", [2, 3, 20, 10**6])
    def test_parallel_peak_against_dense_sample(self, n, r, shape):
        sched = parallel_schedule(1.3, 2.0, SearchInstance(n), r=r, shape=shape)
        a = sched.couplings(sample_times(sched, m=40001))[0]
        assert cost(sched).a_peak == pytest.approx(a.max(), rel=1e-6)


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
            for eps, r in [(0.1, 8.0), (0.03, 12.0)]:
                t_par = equal_cost_parallel_time(eps, r, n)
                lhs = parallel_peak_reference(1.0, n) * r * t_par
                assert lhs == pytest.approx(2 * math.sqrt(n - 1) / eps, rel=1e-12)

    def test_peak_reference_value(self):
        assert parallel_peak_reference(1.0, 20) == pytest.approx(
            0.9233805168766388, rel=1e-15)
        assert parallel_peak_reference(1.0, 2) == 0.0

    def test_degenerate_n2_refused(self):
        with pytest.raises(ExactDegenerateN):
            equal_cost_parallel_time(0.1, 8.0, 2)

    @pytest.mark.parametrize("n", [20.5, "20", None, math.nan, math.inf])
    @pytest.mark.parametrize("call", [
        lambda n: equal_cost_parallel_time(0.1, 12.0, n),
        lambda n: parallel_peak_reference(1.0, n),
    ], ids=["t_par", "peak"])
    def test_size_refused_by_name(self, call, n):
        with pytest.raises(InvalidParameter) as info:
            call(n)
        assert str(info.value) == f"n must be an integer, got {n!r}"

    @pytest.mark.parametrize("call", [
        lambda n: equal_cost_parallel_time(0.1, 12.0, n),
        lambda n: parallel_peak_reference(1.0, n),
    ], ids=["t_par", "peak"])
    def test_size_above_max_n_refused(self, call):
        with pytest.raises(InvalidParameter) as info:
            call(MAX_N + 1)
        assert str(info.value) == f"database size must be <= 9007199254740992, got n={MAX_N + 1}"

    @pytest.mark.parametrize("call", [
        lambda n: equal_cost_parallel_time(0.1, 12.0, n),
        lambda n: parallel_peak_reference(1.0, n),
    ], ids=["t_par", "peak"])
    def test_integral_sizes_agree(self, call):
        assert call(20.0) == call(np.int64(20)) == call(20)
