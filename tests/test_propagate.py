import math

import numpy as np
import pytest

from adiasearch.analytics import local_loss_exact, parallel_loss_asymptotic
from adiasearch.errors import (
    DegeneratePoint,
    InvalidParameter,
    NonUnit,
    OracleSizeExceeded,
)
from adiasearch.model import SearchInstance
from adiasearch.propagate import (
    DEFAULT_STEPS,
    TRAJECTORY_COLUMNS,
    propagate,
    propagate_full,
    write_trajectory_csv,
)
from adiasearch.schedules import (
    Strategy,
    linear_schedule,
    local_schedule,
    parallel_schedule,
)

from conftest import EPS_REF


class FrozenSchedule:
    """Duck-typed stand-in holding the couplings constant in time."""

    kind = Strategy.LINEAR

    def __init__(self, a, b, n, t_total=10.0):
        self._a = a
        self._b = b
        self.n = n
        self.alpha_or_beta = max(a, b)
        self.window = (0.0, t_total)
        self.t_char = t_total
        self.epsilon = None
        self.calls = 0

    def couplings(self, t):
        self.calls += 1
        t = np.asarray(t, dtype=float)
        ones = np.ones_like(t)
        return self._a * ones, self._b * ones, 0.0 * ones, 0.0 * ones


class TestStationaryEvolution:
    def test_reduced_populations_static(self):
        # |w> is an eigenstate of the frozen generator, so the upper-branch
        # weight and the basis populations must stay put
        inst = SearchInstance(20)
        traj, result = propagate(FrozenSchedule(1.0, 0.0, 20), inst, steps=2000)
        assert np.max(np.abs(traj.p_plus - 1.0)) <= 1e-12
        assert np.max(np.abs(traj.p_u - 19 / 20)) <= 1e-12
        assert np.max(np.abs(traj.p_m - 1 / 20)) <= 1e-12
        assert result.p_loss <= 1e-12

    def test_full_static_oracle_off(self):
        # with b = 0 the walk generator never favors the mark
        inst = SearchInstance(16, marked=3)
        [result] = propagate_full([FrozenSchedule(1.0, 0.0, 16)], [inst], steps=4000)
        assert result.p_m_final == pytest.approx(1 / 16, abs=1e-9)


class TestLocalRun:
    def test_final_population_band(self, inst20):
        _, result = propagate(local_schedule(1.0, EPS_REF, inst20), inst20)
        assert abs(result.p_m_final - 0.995) < 1e-3

    def test_matches_interference_form_along_the_way(self, inst20):
        # integrate gap/2 to get the dressed phase, then compare the
        # instantaneous lower-branch weight with the closed form
        eps = EPS_REF
        sched = local_schedule(1.0, eps, inst20)
        traj, _ = propagate(sched, inst20, steps=400_000)
        nodes, weights = np.polynomial.legendre.leggauss(8)
        t0, t1 = traj.t[:-1], traj.t[1:]
        half = 0.5 * (t1 - t0)
        mids = 0.5 * (t0 + t1)
        ts = mids[:, None] + half[:, None] * nodes[None, :]
        a, b, _, _ = sched.couplings(ts.ravel())
        from adiasearch.model import energy_gap

        gap = energy_gap(a, b, 20).reshape(ts.shape)
        seg = half * (gap @ weights)
        tau = np.concatenate([[0.0], np.cumsum(seg)]) / 2.0
        # p_minus(tau) = eps^2/(1+eps^2) sin^2(sqrt(1+eps^2) tau), exactly
        predicted = eps**2 / (1 + eps**2) * np.sin(np.sqrt(1 + eps**2) * tau) ** 2
        assert np.max(np.abs(traj.p_minus - predicted)) <= 1e-6

    def test_loss_has_interference_oscillations(self, inst20):
        traj, _ = propagate(local_schedule(1.0, EPS_REF, inst20), inst20)
        p = traj.p_minus
        interior_max = (p[1:-1] > p[:-2]) & (p[1:-1] > p[2:])
        assert int(np.sum(interior_max)) >= 3

    def test_marked_item_does_not_matter_reduced(self):
        results = []
        for m in (0, 7, 19):
            inst = SearchInstance(20, marked=m)
            _, res = propagate(local_schedule(1.0, 0.2, inst), inst, steps=20_000)
            results.append(res.p_m_final)
        assert max(results) - min(results) <= 1e-15

    def test_loss_complements_final_population(self, inst20):
        # oracle coupling vanishes at the end, so |-> coincides with |m>
        _, res = propagate(local_schedule(1.0, 0.15, inst20), inst20, steps=50_000)
        assert res.p_loss == pytest.approx(1 - res.p_m_final, abs=1e-9)


class TestParallelRun:
    def test_final_population_band(self, inst20):
        sched = parallel_schedule(1.0, 4.7, inst20, r=8.0)
        _, result = propagate(sched, inst20)
        assert abs(result.p_m_final - 0.995) < 1e-3

    def test_population_transfer_essentially_monotone(self, inst20):
        sched = parallel_schedule(1.0, 4.7, inst20, r=8.0)
        traj, _ = propagate(sched, inst20)
        assert np.min(np.diff(traj.p_m)) > -1e-3


@pytest.fixture(scope="module")
def run():
    inst = SearchInstance(20)
    return propagate(local_schedule(1.0, 0.2, inst), inst, steps=20_000)


class TestTrajectoryInvariants:
    def test_columns_and_length(self, run):
        traj, _ = run
        assert TRAJECTORY_COLUMNS[0] == "t"
        for name in TRAJECTORY_COLUMNS:
            assert len(getattr(traj, name)) == len(traj)

    def test_time_grid(self, run):
        traj, _ = run
        assert np.all(np.diff(traj.t) > 0)
        assert traj.t[0] == 0.0

    def test_norm_preserved(self, run):
        traj, result = run
        assert np.max(np.abs(traj.norm - 1.0)) <= 1e-9
        assert result.norm_drift <= 1e-9

    def test_population_sum_rules(self, run):
        traj, _ = run
        total = traj.norm**2
        assert np.max(np.abs(traj.p_u + traj.p_m - total)) <= 1e-12
        assert np.max(np.abs(traj.p_plus + traj.p_minus - total)) <= 1e-12

    def test_angle_monotone(self, run):
        traj, _ = run
        assert np.all(np.diff(traj.theta) >= -1e-12)
        assert traj.theta[-1] == pytest.approx(math.pi / 2, abs=1e-12)

    def test_loss_in_unit_interval(self, run):
        _, result = run
        assert 0.0 <= result.p_loss <= 1.0


class TestFullVersusReduced:
    def test_local_small_instance(self):
        inst = SearchInstance(4, marked=2)
        sched = local_schedule(1.0, 0.2, inst)
        _, reduced = propagate(sched, inst, steps=60_000)
        [full] = propagate_full([sched], [inst], steps=30_000)
        assert abs(full.p_m_final - reduced.p_m_final) < 1e-8

    def test_parallel_band_from_full(self, inst20):
        sched = parallel_schedule(1.0, 4.7, inst20, r=8.0)
        [result] = propagate_full([sched], [inst20], steps=50_000)
        assert abs(result.p_m_final - 0.995) < 1e-3

    def test_marked_item_does_not_matter_full(self):
        insts = [SearchInstance(12, marked=m) for m in (0, 11)]
        scheds = [local_schedule(1.0, 0.25, inst) for inst in insts]
        finals = [r.p_m_final for r in propagate_full(scheds, insts, steps=20_000)]
        assert abs(finals[0] - finals[1]) <= 1e-10

    def test_size_cap(self):
        inst = SearchInstance(513)
        sched = local_schedule(1.0, 0.3, inst)
        with pytest.raises(OracleSizeExceeded, match="n=513 exceeds"):
            propagate_full([sched], [inst], steps=2000)


def _mixed_batch():
    """Linear, local and parallel rows at n = 4, 20, 128 with their own windows."""
    scheds, insts = [], []
    for n, marked in ((4, 3), (20, 7), (128, 100)):
        inst = SearchInstance(n, marked)
        scheds += [linear_schedule(1.0, 40.0 + n / 4, inst),
                   local_schedule(1.0, 0.2, inst),
                   parallel_schedule(1.0, 0.6 * math.sqrt(n), inst, r=8.0)]
        insts += [inst] * 3
    return scheds, insts


class TestBatchOracle:
    STEPS = 2000

    @pytest.fixture(scope="class")
    def alone(self):
        scheds, insts = _mixed_batch()
        return [propagate_full([s], [i], steps=self.STEPS)[0] for s, i in zip(scheds, insts)]

    def test_rows_match_batches_of_one(self, alone):
        scheds, insts = _mixed_batch()
        batch = propagate_full(scheds, insts, steps=self.STEPS)
        assert len(batch) == len(alone) == 9
        for together, single in zip(batch, alone):
            assert abs(together.p_m_final - single.p_m_final) <= 1e-14
            assert abs(together.p_loss - single.p_loss) <= 1e-14

    def test_row_order_does_not_matter(self, alone):
        scheds, insts = _mixed_batch()
        backwards = propagate_full(scheds[::-1], insts[::-1], steps=self.STEPS)[::-1]
        for reversed_row, single in zip(backwards, alone):
            assert abs(reversed_row.p_m_final - single.p_m_final) <= 1e-14
            assert abs(reversed_row.p_loss - single.p_loss) <= 1e-14

    def test_drifting_row_is_named(self):
        scheds = [FrozenSchedule(1.0, 0.0, 16),
                  FrozenSchedule(1.0, 0.0, 16, t_total=1000.0)]
        insts = [SearchInstance(16, marked=2), SearchInstance(16)]
        with pytest.raises(NonUnit, match=r"row 1 \(n=16, linear\)"):
            propagate_full(scheds, insts, steps=1000)

    @pytest.mark.parametrize("case", ["cap", "size", "empty", "lengths"])
    def test_guards_run_before_stepping(self, case):
        good = FrozenSchedule(1.0, 0.0, 4)
        scheds, insts, error = {
            "cap": ([good, FrozenSchedule(1.0, 0.0, 513)],
                    [SearchInstance(4), SearchInstance(513)], OracleSizeExceeded),
            "size": ([good, FrozenSchedule(1.0, 0.0, 8)],
                     [SearchInstance(4), SearchInstance(9)], InvalidParameter),
            "empty": ([], [], InvalidParameter),
            "lengths": ([good, good], [SearchInstance(4)], InvalidParameter),
        }[case]
        with pytest.raises(error):
            propagate_full(scheds, insts, steps=1000)
        assert good.calls == 0


class TestValidation:
    def test_step_floor(self, inst20):
        with pytest.raises(InvalidParameter):
            propagate(local_schedule(1.0, 0.2, inst20), inst20, steps=500)

    def test_size_mismatch(self, inst20):
        sched = local_schedule(1.0, 0.2, inst20)
        with pytest.raises(InvalidParameter):
            propagate(sched, SearchInstance(21), steps=2000)

    def test_degenerate_schedule_rejected(self, inst20):
        # a = b = 0: the splitting vanishes and the eigenbasis is undefined
        with pytest.raises(DegeneratePoint):
            propagate(FrozenSchedule(0.0, 0.0, 20), inst20, steps=2000)

    def test_full_norm_drift_rejected(self):
        # RK4 at |H| dt = 1 loses norm on every step, far beyond 1e-7
        with pytest.raises(NonUnit):
            propagate_full([FrozenSchedule(1.0, 0.0, 16, t_total=1000.0)],
                           [SearchInstance(16)], steps=1000)


class TestTrajectoryCsv:
    def test_format_contract(self, inst20, tmp_path):
        sched = local_schedule(1.0, 0.3, inst20)
        traj, _ = propagate(sched, inst20, steps=2000)
        path = tmp_path / "traj.csv"
        write_trajectory_csv(traj, path)
        lines = path.read_text(encoding="ascii").splitlines()
        assert lines[0] == ",".join(TRAJECTORY_COLUMNS)
        assert len(lines) == len(traj) + 1
        first = lines[1].split(",")
        assert first[0] == "0"
        assert float(first[11]) == pytest.approx(1.0, abs=1e-9)
        # cells use shortest round-trip style, 12 significant digits
        assert all(len(cell) <= 19 for cell in lines[2].split(","))


class TestAccuracy:
    @pytest.mark.parametrize("n, tolerance", [(10**4, 1e-9), (10**6, 1e-9), (10**8, 1e-8)])
    def test_local_large_n_against_closed_form(self, n, tolerance):
        inst = SearchInstance(n)
        _, result = propagate(local_schedule(1.0, EPS_REF, inst), inst)
        error = abs(result.p_loss - local_loss_exact(EPS_REF, n))
        assert error < tolerance
        assert result.error_estimate >= error

    def test_estimate_follows_discretization_error(self, inst20):
        # at 2000 steps the Richardson part dominates the rounding term
        _, result = propagate(local_schedule(1.0, EPS_REF, inst20), inst20, steps=2000)
        error = abs(result.p_loss - local_loss_exact(EPS_REF, 20))
        assert error <= result.error_estimate <= 4.0 * error

    def test_parallel_against_mpmath(self, inst20):
        sched = parallel_schedule(1.0, 4.7, inst20, r=12.0)
        _, result = propagate(sched, inst20)
        p_m, p_loss = _mpmath_reference(sched, steps=500)
        for value, reference in ((result.p_m_final, p_m), (result.p_loss, p_loss)):
            assert abs(value - reference) <= 1e-12
            assert abs(value - reference) <= result.error_estimate


def _mpmath_reference(sched, steps):
    """Final (p_m, p_minus) of a parallel tanh run: sixth-order Magnus at 30 digits.

    With A = -i (v_z sigma_z + v_x sigma_x + v_y sigma_y) stored as the
    vector v = (v_x, v_y, v_z), [A(u), A(v)] = A(2 u x v).  The step is
    the three-Gauss-point formula of Blanes, Casas, Oteo & Ros, Phys. Rep.
    470 (2009), on a grid uniform in t.  Its error falls 64x per halving
    of the step here; at 500 steps it is ~1e-14 against `mpmath.odefun`
    at 1e-15 tolerance.
    """
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(30):
        n = mpmath.mpf(sched.n)
        t_par = mpmath.mpf(sched.t_char)
        sqrt_n = mpmath.sqrt(n)

        def field(t):
            f = mpmath.tanh(t / t_par)
            root = mpmath.sqrt(1 - (n - 1) / n * f * f)
            a = root - f / sqrt_n
            b = root + f / sqrt_n
            return [a * mpmath.sqrt(n - 1) / n, mpmath.mpf(0), (a - b) / 2 - a / n]

        def comm(u, v):
            return [2 * (u[1] * v[2] - u[2] * v[1]), 2 * (u[2] * v[0] - u[0] * v[2]),
                    2 * (u[0] * v[1] - u[1] * v[0])]

        def comb(*terms):
            return [sum(c * u[i] for c, u in terms) for i in range(3)]

        t_i, t_f = (mpmath.mpf(x) for x in sched.window)
        h = (t_f - t_i) / steps
        g = mpmath.sqrt(15) / 10
        half = mpmath.mpf(1) / 2
        c_u, c_m = mpmath.sqrt((n - 1) / n), 1 / sqrt_n
        for k in range(steps):
            t0 = t_i + k * h
            f1, f2, f3 = (field(t0 + (half + c) * h) for c in (-g, 0, g))
            b1 = comb((h, f2))
            b2 = comb((mpmath.sqrt(15) * h / 3, f3), (-mpmath.sqrt(15) * h / 3, f1))
            b3 = comb((10 * h / 3, f3), (-20 * h / 3, f2), (10 * h / 3, f1))
            c1 = comm(b1, b2)
            c2 = comb((-mpmath.mpf(1) / 60, comm(b1, comb((2, b3), (1, c1)))))
            x, y, z = comb((1, b1), (mpmath.mpf(1) / 12, b3), (mpmath.mpf(1) / 240, comm(
                comb((-20, b1), (-1, b3), (1, c1)), comb((1, b2), (1, c2)))))
            angle = mpmath.sqrt(x * x + y * y + z * z)
            sinc = mpmath.sin(angle) / angle
            alpha = mpmath.mpc(mpmath.cos(angle), -sinc * z)
            beta = mpmath.mpc(sinc * y, -sinc * x)
            c_u, c_m = (alpha * c_u - mpmath.conj(beta) * c_m,
                        beta * c_u + mpmath.conj(alpha) * c_m)
        x, _, z = field(t_f)
        theta = mpmath.atan2(x, z) / 2
        p_minus = abs(mpmath.sin(theta) * c_u - mpmath.cos(theta) * c_m) ** 2
        return float(abs(c_m) ** 2), float(p_minus)


class TestPaperClaim:
    """Constant-gap loss ~ sech^2(pi/gamma), whatever n, down to 1e-16."""

    @pytest.mark.parametrize("inv_gamma", [4.0, 5.0, 6.0])
    @pytest.mark.parametrize("n", [10, 1000])
    def test_loss_in_band(self, n, inv_gamma):
        inst = SearchInstance(n)
        sched = parallel_schedule(1.0, inv_gamma * math.sqrt(n), inst, r=24.0)
        _, result = propagate(sched, inst)
        ratio = result.p_loss / parallel_loss_asymptotic(1.0, inv_gamma * math.sqrt(n), n)
        assert 0.5 <= ratio <= 2.0

    def test_large_n(self):
        # At n = 1e6 an r = 24 window ends with boundary residual 1.5e-7,
        # and its loss, 1.84e-15, is the truncation floor: the same to four
        # digits at 4x the steps.  A window of r = 32 puts the floor below
        # sech^2(6 pi) = 1.7e-16.
        inst = SearchInstance(10**6)
        floor = [propagate(parallel_schedule(1.0, 6000.0, inst, r=24.0), inst,
                           steps=steps)[1].p_loss
                 for steps in (DEFAULT_STEPS, 4 * DEFAULT_STEPS)]
        assert abs(floor[1] - floor[0]) <= 1e-4 * floor[0]
        _, result = propagate(parallel_schedule(1.0, 6000.0, inst, r=32.0), inst)
        ratio = result.p_loss / parallel_loss_asymptotic(1.0, 6000.0, 10**6)
        assert 0.5 <= ratio <= 2.0


class TestTrajectoryContract:
    @pytest.mark.parametrize("steps", [4000, 6000, 8000, DEFAULT_STEPS])
    @pytest.mark.parametrize("build", [
        lambda inst: local_schedule(1.0, EPS_REF, inst),
        lambda inst: parallel_schedule(1.0, 3.1, inst, r=6.5, shape="erf"),
    ], ids=["local", "parallel"])
    def test_rows_and_endpoints(self, inst20, build, steps):
        sched = build(inst20)
        traj, result = propagate(sched, inst20, steps=steps)
        stride = max(1, steps // 2000)
        assert len(traj) == steps // stride + 1 + (1 if steps % stride else 0)
        assert np.all(np.diff(traj.t) > 0)
        assert (traj.t[0], traj.t[-1]) == sched.window
        assert traj.p_m[-1] == result.p_m_final
