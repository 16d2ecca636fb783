import functools
import math

import numpy as np
import pytest

from adiasearch.analytics import (
    adiabaticity_check,
    local_loss_asymptotic,
    local_loss_exact,
    loss_prediction,
    parallel_loss_asymptotic,
)
from adiasearch.errors import InvalidParameter
from adiasearch.model import SearchInstance, coupling_rate, energy_gap
from adiasearch.propagate import propagate
from adiasearch.schedules import Shape, linear_schedule, local_schedule, parallel_schedule

from conftest import EPS_REF


class TestLocalLossExact:
    def test_reference_values(self):
        assert local_loss_exact(EPS_REF, 20) == pytest.approx(
            0.004616881791654995, rel=1e-12)
        assert local_loss_exact(EPS_REF, 50) == pytest.approx(
            4.570841098212914e-05, rel=1e-12)

    def test_interference_zero_family(self):
        # the sine vanishes when sqrt(1+eps^2)/eps * arctan(sqrt(n-1)) = pi,
        # i.e. n = 1 + tan^2(pi*eps/sqrt(1+eps^2))
        eps = 0.3
        x = math.pi * eps / math.sqrt(1 + eps * eps)
        n_zero = 1 + math.tan(x) ** 2
        assert local_loss_exact(eps, n_zero) < 1e-20

    def test_accepts_non_integral_n(self):
        assert local_loss_exact(0.1, 45.6) >= 0.0

    @pytest.mark.parametrize("eps,n", [(0.0, 20), (-0.1, 20), (0.1, 1.0), (0.1, 0.5)])
    def test_rejects_bad_domain(self, eps, n):
        with pytest.raises(InvalidParameter):
            local_loss_exact(eps, n)

    def test_large_n_limit(self):
        # arctan(sqrt(n-1)) -> pi/2, so the loss tends to
        # eps^2/(1+eps^2) * sin^2(sqrt(1+eps^2) pi / (2 eps))
        eps = 0.08
        kappa = math.sqrt(1 + eps * eps)
        limit = (eps / kappa) ** 2 * math.sin(kappa * math.pi / (2 * eps)) ** 2
        assert local_loss_exact(eps, 1e12) == pytest.approx(limit, rel=1e-4)


class TestLocalLossAsymptotic:
    def test_reference_value(self):
        assert local_loss_asymptotic(EPS_REF) == pytest.approx(1 / 121, rel=1e-12)

    def test_resonance_zero(self):
        # sin(pi/(2*eps)) vanishes at eps = 1/(2p)
        assert local_loss_asymptotic(0.5) < 1e-30
        assert local_loss_asymptotic(0.25) < 1e-30


def sech2_at_gamma(gamma):
    # gamma = sqrt(n) / T_par; sqrt(100) = 10 is exact
    return parallel_loss_asymptotic(1.0, 10.0 / gamma, 100)


class TestParallelLoss:
    def test_asymptotic_from_schedule_params(self):
        assert parallel_loss_asymptotic(1.0, 4.7, 20) == pytest.approx(
            0.005408727903601989, rel=1e-12)

    def test_gamma_forms_reference(self):
        exact = sech2_at_gamma(1.0)
        assert exact == pytest.approx(0.007441950142796217, rel=1e-12)
        # within 1% of the large-argument form 4 exp(-2 pi / gamma)
        assert abs(exact - 4 * math.exp(-2 * math.pi)) / exact < 0.01

    def test_gamma_small_regime(self):
        assert sech2_at_gamma(6 / 11) == pytest.approx(3.975008504451859e-05, rel=1e-12)

    def test_forms_agree_for_small_gamma(self):
        for gamma in (0.2, 0.5, 1.0):
            large = 4 * math.exp(-2 * math.pi / gamma)
            assert large == pytest.approx(sech2_at_gamma(gamma), rel=large)

    def test_monotone_in_gamma(self):
        gammas = np.linspace(0.2, 3.0, 40)
        losses = [sech2_at_gamma(g) for g in gammas]
        assert all(x < y for x, y in zip(losses, losses[1:]))

    def test_rejects_bad_domain(self):
        with pytest.raises(InvalidParameter):
            parallel_loss_asymptotic(0.0, 2.0, 20)
        with pytest.raises(InvalidParameter):
            parallel_loss_asymptotic(1.0, -2.0, 20)


class TestInputsRefusedByName:
    @pytest.mark.parametrize("value", [math.inf, "0.2", 0.0])
    @pytest.mark.parametrize("call, name", [
        (lambda v: local_loss_exact(v, 20), "epsilon"),
        (lambda v: local_loss_asymptotic(v), "epsilon"),
        (lambda v: parallel_loss_asymptotic(v, 1.0, 20), "beta"),
        (lambda v: parallel_loss_asymptotic(1.0, v, 20), "t_par"),
        (lambda v: adiabaticity_check(linear_schedule(1.0, 10.0, SearchInstance(20)), v),
         "epsilon"),
    ], ids=["exact", "asymptotic", "parallel-beta", "parallel-t_par", "adiabaticity"])
    def test_positive_inputs(self, call, name, value):
        with pytest.raises(InvalidParameter) as info:
            call(value)
        assert str(info.value) == f"{name} must be a positive finite number, got {value!r}"

    def test_parallel_size_named(self):
        with pytest.raises(InvalidParameter, match=r"^n must exceed 1, got 1\.0$"):
            parallel_loss_asymptotic(1.0, 1.0, 1.0)

    @pytest.mark.parametrize("n", ["20", None, math.nan, math.inf, 0])
    @pytest.mark.parametrize("call", [
        lambda n: local_loss_exact(0.1, n),
        lambda n: parallel_loss_asymptotic(1.0, 1.0, n),
    ], ids=["exact", "parallel"])
    def test_size_refused_by_name(self, call, n):
        with pytest.raises(InvalidParameter) as info:
            call(n)
        assert str(info.value) == f"n must be a positive finite number, got {n!r}"

    @pytest.mark.parametrize("call", [
        lambda n: local_loss_exact(0.1, n),
        lambda n: parallel_loss_asymptotic(1.0, 1.0, n),
    ], ids=["exact", "parallel"])
    def test_study_sizes_need_not_be_integral(self, call):
        assert call(45.6) >= 0.0
        assert call(np.float32(20.0)) == call(np.int64(20)) == call(20)


class TestLossPrediction:
    def test_local_prediction(self, inst20):
        pred = loss_prediction(local_schedule(1.0, EPS_REF, inst20))
        assert pred.exact == pytest.approx(0.004616881791654995, rel=1e-12)
        assert pred.asymptotic == pytest.approx(1 / 121, rel=1e-12)

    def test_parallel_prediction(self, inst20):
        sched = parallel_schedule(1.0, 4.7, inst20, r=8.0)
        pred = loss_prediction(sched)
        assert pred.exact is None
        assert pred.asymptotic == pytest.approx(0.005408727903601989, rel=1e-12)

    def test_linear_has_no_prediction(self, inst20):
        assert loss_prediction(linear_schedule(1.0, 10.0, inst20)) is None

    def test_erf_ramp_has_no_prediction(self):
        # sech^2(pi/gamma) is the tanh ramp's law; measured erf losses at
        # n = 1000 lie orders of magnitude off it on both sides
        sched = parallel_schedule(1.0, 3.1, SearchInstance(37, 5), r=6.5, shape=Shape.ERF)
        assert loss_prediction(sched) is None


class TestAdiabaticityCheck:
    def test_linear_at_matched_cost_holds(self, inst20):
        report = adiabaticity_check(linear_schedule(1.0, 440.0, inst20), EPS_REF)
        assert report.holds
        assert report.ratio == pytest.approx(0.9746794344808963, rel=1e-9)
        assert report.min_gap == pytest.approx(1 / math.sqrt(20), rel=1e-10)

    def test_local_fails_global_criterion(self, inst20):
        # saturating the local condition costs a factor sqrt(n) globally
        report = adiabaticity_check(local_schedule(1.0, EPS_REF, inst20))
        assert not report.holds
        assert report.ratio == pytest.approx(math.sqrt(20), rel=1e-6)

    def test_epsilon_default_from_schedule(self, inst20):
        sched = local_schedule(1.0, 0.2, inst20)
        assert adiabaticity_check(sched).ratio == pytest.approx(
            adiabaticity_check(sched, epsilon=0.2).ratio, rel=1e-12)

    def test_requires_epsilon_somewhere(self, inst20):
        with pytest.raises(InvalidParameter):
            adiabaticity_check(linear_schedule(1.0, 10.0, inst20))

    def test_local_rate_at_large_n(self):
        # 2*theta_dot = eps_s*gap peaks at the window ends, where the gap is alpha
        n = 10**12
        report = adiabaticity_check(local_schedule(1.0, EPS_REF, SearchInstance(n)), 0.2)
        assert report.max_theta_dot == pytest.approx(EPS_REF / 2, rel=1e-12, abs=0.0)
        assert report.ratio == pytest.approx(math.sqrt(n) * EPS_REF / 0.2, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("shape", [Shape.TANH, Shape.ERF])
    @pytest.mark.parametrize("r", [1.0, 8.0, 40.0])
    def test_parallel_gap_at_largest_n(self, r, shape):
        n = 2**53
        sched = parallel_schedule(1.3, 1.0, SearchInstance(n), r=r, shape=shape)
        report = adiabaticity_check(sched, EPS_REF)
        assert report.min_gap == pytest.approx(2 * 1.3 / math.sqrt(n), rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("build", [
        pytest.param(lambda inst: linear_schedule(1.3, 440.0, inst), id="linear"),
        pytest.param(lambda inst: local_schedule(1.3, EPS_REF, inst), id="local"),
        *[pytest.param(functools.partial(parallel_schedule, 1.3, 2.0, r=r, shape=shape),
                       id=f"{shape.value}-r{r:g}")
          for shape in Shape for r in (1.0, 8.0, 40.0)],
    ])
    @pytest.mark.parametrize("n", [2, 3, 20, 10**6])
    def test_against_dense_sample(self, n, build):
        sched = build(SearchInstance(n))
        a, b, a_dot, b_dot = sched.couplings(np.linspace(*sched.window, 40001))
        max_rate = coupling_rate(a, b, a_dot, b_dot, n).max()
        min_gap = energy_gap(a, b, n).min()
        report = adiabaticity_check(sched, 0.2)
        assert report.max_theta_dot == pytest.approx(max_rate, rel=1e-6)
        assert report.min_gap == pytest.approx(min_gap, rel=1e-6)
        assert report.ratio == pytest.approx(max_rate / (0.1 * min_gap), rel=1e-6)


class TestNumericAgainstClosedForm:
    @pytest.mark.parametrize("eps", [0.05, EPS_REF, 0.2])
    @pytest.mark.parametrize("n", [8, 20, 100])
    def test_local_loss_matches_prediction(self, eps, n):
        inst = SearchInstance(n)
        _, result = propagate(local_schedule(1.0, eps, inst), steps=120_000)
        assert result.p_loss == pytest.approx(local_loss_exact(eps, n), abs=1e-6)
