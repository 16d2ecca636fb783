"""End-to-end acceptance runs for the two-level search propagator.

Every numbered test prints one PASS or FAIL line with the measured
quantities, then asserts. The module fixture executes each schedule at
the baseline resolution and once more with the step size halved, so the
final test can bound the discretization error of every reported loss.
"""

import dataclasses
import json
import math
import time

import numpy as np
import pytest

from adiasearch.analytics import local_loss_exact, parallel_loss_asymptotic
from adiasearch.cli import main
from adiasearch.model import SearchInstance
from adiasearch.propagate import DEFAULT_STEPS, propagate
from adiasearch.schedules import (
    Strategy,
    cost,
    equal_cost_gamma,
    equal_cost_parallel_time,
    local_schedule,
    parallel_peak_reference,
    parallel_schedule,
)

from conftest import EPS_REF

BASE_STEPS = DEFAULT_STEPS
INV_GAMMA_GRID = np.linspace(1.0, 2.5, 12)
FLOOR_POINTS = (2.5, 3.0, 3.5)
SIZE_GRID = (10, 20, 50, 100, 300, 1000)
COST_GRID = (10, 20, 42, 100, 1000)


@dataclasses.dataclass(frozen=True)
class TimedRun:
    schedule: object
    trajectory: object
    result: object
    fine_p_loss: float
    seconds: float


def _execute(schedule):
    t0 = time.perf_counter()
    trajectory, result = propagate(schedule, steps=BASE_STEPS)
    seconds = time.perf_counter() - t0
    _, fine = propagate(schedule, steps=2 * BASE_STEPS)
    return TimedRun(schedule, trajectory, result, fine.p_loss, seconds)


@pytest.fixture(scope="module")
def runs():
    out = {}
    inst20 = SearchInstance(20)
    out["local_ref"] = _execute(local_schedule(1.0, EPS_REF, inst20))
    out["parallel_ref"] = _execute(parallel_schedule(1.0, 4.7, inst20, r=8.0))

    for x in INV_GAMMA_GRID:
        out[f"decay_r12@{x:.4f}"] = _execute(
            parallel_schedule(1.0, x * math.sqrt(20), inst20, r=12.0))
    for x in FLOOR_POINTS:
        slow = f"decay_r12@{x:.4f}"
        if slow not in out:
            out[slow] = _execute(
                parallel_schedule(1.0, x * math.sqrt(20), inst20, r=12.0))
        out[f"decay_r08@{x:.4f}"] = _execute(
            parallel_schedule(1.0, x * math.sqrt(20), inst20, r=8.0))

    gamma = equal_cost_gamma(EPS_REF, 12.0)
    for n in SIZE_GRID:
        inst = SearchInstance(n)
        out[f"scaling_local@{n}"] = _execute(local_schedule(1.0, EPS_REF, inst))
        out[f"scaling_par@{n}"] = _execute(
            parallel_schedule(1.0, math.sqrt(n) / gamma, inst, r=12.0))
    return out


def criterion(capsys, num, ok, detail):
    with capsys.disabled():
        print(f"\n[criterion {num:02d}] {'PASS' if ok else 'FAIL'} {detail}",
              flush=True)
    assert ok, f"criterion {num:02d}: {detail}"


def test_criterion_01_local_reference_run(runs, capsys):
    run = runs["local_ref"]
    t_total = run.schedule.t_char
    p_m = run.result.p_m_final
    ok = (abs(t_total - 95.89) < 0.01
          and abs(p_m - 0.995) < 1e-3
          and run.seconds < 2.0)
    criterion(capsys, 1, ok,
              f"local n=20 eps=1/11: T={t_total:.4f} (target 95.89), "
              f"p_m_final={p_m:.6f} (band 0.995 +- 0.001), "
              f"{run.seconds:.2f}s (limit 2s)")


def test_criterion_02_interference_loss_agreement(runs, capsys):
    run = runs["local_ref"]
    predicted = local_loss_exact(EPS_REF, 20)
    delta = abs(run.result.p_loss - predicted)
    near_quoted = abs(run.result.p_loss / 4.64e-3 - 1.0)
    ok = delta < 1e-6 and near_quoted < 0.01
    criterion(capsys, 2, ok,
              f"local n=20 loss={run.result.p_loss:.9e} vs closed form "
              f"{predicted:.9e}: |delta|={delta:.2e} (limit 1e-6); "
              f"within {near_quoted:.2%} of the quoted 4.64e-3")


def test_criterion_03_parallel_reference_run(runs, capsys):
    run = runs["parallel_ref"]
    p_m = run.result.p_m_final
    ok = abs(p_m - 0.995) < 1e-3 and run.seconds < 2.0
    criterion(capsys, 3, ok,
              f"parallel n=20 T=4.7 r=8: p_m_final={p_m:.6f} "
              f"(band 0.995 +- 0.001), {run.seconds:.2f}s (limit 2s)")


def test_criterion_04_loss_decay_and_truncation_floor(runs, capsys):
    losses = [runs[f"decay_r12@{x:.4f}"].result.p_loss for x in INV_GAMMA_GRID]
    predictions = [parallel_loss_asymptotic(1.0, x * math.sqrt(20), 20)
                   for x in INV_GAMMA_GRID]
    factors = [l / p for l, p in zip(losses, predictions)]
    factor_ok = all(0.5 <= f <= 2.0 for f in factors)
    decay_ok = all(a > b for a, b in zip(losses, losses[1:]))
    gamma_one = losses[0] / 7.4e-3
    gamma_one_ok = 0.5 <= gamma_one <= 2.0
    floor_pairs = [
        (runs[f"decay_r08@{x:.4f}"].result.p_loss,
         runs[f"decay_r12@{x:.4f}"].result.p_loss)
        for x in FLOOR_POINTS]
    floor_ok = all(short > long for short, long in floor_pairs)
    seconds = sum(run.seconds for key, run in runs.items()
                  if key.startswith("decay_"))
    ok = factor_ok and decay_ok and gamma_one_ok and floor_ok and seconds < 60
    criterion(capsys, 4, ok,
              f"constant-gap loss over 1/gamma in [1.0, 2.5] (12 points): "
              f"ratio to sech^2(pi/gamma) in "
              f"[{min(factors):.3f}, {max(factors):.3f}] (band [0.5, 2]); "
              f"strictly decaying={decay_ok}; gamma=1 loss at "
              f"{gamma_one:.3f}x of 7.4e-3; truncation floor r=8 above r=12 "
              f"at 1/gamma>=2.5: {floor_ok}; {seconds:.1f}s (limit 60s)")


def test_criterion_05_equal_cost_loss_ordering(runs, capsys):
    # The local loss eps^2/(1+eps^2) * sin^2(sqrt(1+eps^2)/eps * arctan
    # sqrt(n-1)) oscillates in n (it vanishes near n = 45.6 at eps = 1/11),
    # so the parallel loss is bounded against its n-independent amplitude.
    amplitude = EPS_REF ** 2 / (1.0 + EPS_REF ** 2)
    bar = 0.1 * amplitude
    losses = {n: runs[f"scaling_par@{n}"].result.p_loss for n in SIZE_GRID}
    ratios = {n: loss / runs[f"scaling_local@{n}"].result.p_loss
              for n, loss in losses.items()}
    bad = {n: loss for n, loss in losses.items() if not loss < bar}
    seconds = sum(run.seconds for key, run in runs.items()
                  if key.startswith("scaling_"))
    ok = not bad and seconds < 60
    loss_summary = ", ".join(f"n={n}: {loss:.2e}"
                             for n, loss in losses.items())
    ratio_summary = ", ".join(f"n={n}: {ratio:.2e}"
                              for n, ratio in ratios.items())
    detail = (f"equal-cost parallel loss (must be < 0.1 * eps^2/(1+eps^2) "
              f"= {bar:.2e}): {loss_summary}; parallel/local ratios "
              f"(information only): {ratio_summary}; {seconds:.1f}s "
              f"(limit 60s)")
    criterion(capsys, 5, ok, detail)


def test_criterion_06_constant_gap_property(runs, capsys):
    worst = 0.0
    where = ""
    for key, run in runs.items():
        if run.schedule.kind is not Strategy.PARALLEL:
            continue
        beta = run.schedule.alpha_or_beta
        gap = run.trajectory.lambda_plus - run.trajectory.lambda_minus
        target = 2.0 * beta / math.sqrt(run.schedule.n)
        dev = float(np.max(np.abs(gap - target))) / beta
        if dev > worst:
            worst, where = dev, key
    ok = worst < 1e-12
    criterion(capsys, 6, ok,
              f"constant-gap deviation across all parallel runs: "
              f"max |gap - 2 beta/sqrt(n)| = {worst:.2e} beta at {where} "
              f"(limit 1e-12 beta)")


def test_criterion_07_rate_saturation_property(runs, capsys):
    worst = 0.0
    where = ""
    for key, run in runs.items():
        if run.schedule.kind is not Strategy.LOCAL:
            continue
        traj = run.trajectory
        bound = 0.5 * run.schedule.epsilon * (traj.lambda_plus
                                              - traj.lambda_minus)
        dev = float(np.max(np.abs(traj.theta_dot - bound) / bound))
        if dev > worst:
            worst, where = dev, key
    ok = worst < 1e-9
    criterion(capsys, 7, ok,
              f"rate saturation across all local runs: "
              f"max |theta_dot - eps gap/2| = {worst:.2e} of eps gap/2 "
              f"at {where} (limit 1e-9)")


def test_criterion_08_oracle_equivalence_check(tmp_path, capsys):
    t0 = time.perf_counter()
    code = main(["check", "--output", str(tmp_path)])
    seconds = time.perf_counter() - t0
    report = json.loads((tmp_path / "check.json").read_text())
    ok = (code == 0 and report["pass"] is True
          and report["max_delta"] < 1e-7 and seconds < 30)
    sizes = sorted({entry["n"] for entry in report["entries"]})
    criterion(capsys, 8, ok,
              f"reduced vs full propagation on n={sizes}, all strategies, "
              f"random marked index: max |delta p_m| = "
              f"{report['max_delta']:.2e} (limit 1e-7), exit={code}, "
              f"{seconds:.1f}s (limit 30s)")


def test_criterion_09_cost_identities(capsys):
    local_exact_ok = True
    reference_ok = True
    ratio_ok = True
    worst_ref = 0.0
    for n in COST_GRID:
        inst = SearchInstance(n)
        c_local = cost(local_schedule(1.0, EPS_REF, inst)).cost
        expected = 2.0 * math.sqrt(n - 1) / EPS_REF
        local_exact_ok &= c_local == pytest.approx(expected, rel=1e-15)

        t_par = equal_cost_parallel_time(EPS_REF, 12.0, n)
        c_reference = parallel_peak_reference(1.0, n) * 12.0 * t_par
        worst_ref = max(worst_ref, abs(c_reference / c_local - 1.0))
        reference_ok &= abs(c_reference / c_local - 1.0) <= 0.05

        c_numeric = cost(parallel_schedule(1.0, t_par, inst, r=12.0)).cost
        ratio_ok &= abs(c_numeric / c_local - n / (n - 2)) < 1e-9
    ok = local_exact_ok and reference_ok and ratio_ok
    criterion(capsys, 9, ok,
              f"cost identities on n in {COST_GRID}: local cost = "
              f"2 sqrt(n-1)/eps to machine precision ({local_exact_ok}); "
              f"matched-cost parallel schedule under flat-peak accounting "
              f"within 5% (worst {worst_ref:.2e}); numerically integrated "
              f"peak raises the cost by exactly n/(n-2) ({ratio_ok})")


def test_criterion_10_step_halving_stability(runs, capsys):
    worst = 0.0
    where = ""
    for key, run in runs.items():
        delta = abs(run.result.p_loss - run.fine_p_loss)
        if delta > worst:
            worst, where = delta, key
    ok = worst < 1e-8
    criterion(capsys, 10, ok,
              f"halving the step size moves every reported loss by at most "
              f"{worst:.2e} (at {where}; limit 1e-8)")
