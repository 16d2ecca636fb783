import copy
import dataclasses
import importlib
import math
import pickle
import tracemalloc

import numpy as np
import pytest

from adiasearch.analytics import local_loss_exact, parallel_loss_asymptotic
from adiasearch.errors import (
    DegeneratePoint,
    InvalidParameter,
    NonUnit,
    OracleSizeExceeded,
)
from adiasearch.model import SearchInstance, energy_gap
from adiasearch.propagate import (
    DEFAULT_STEPS,
    MAX_STEPS,
    MIN_STEPS,
    ORACLE_CAP,
    TRAJECTORY_COLUMNS,
    _compose,
    _cumulative_mass,
    _magnus_steps,
    _parallel_mass,
    _phase_grid,
    propagate,
    propagate_full,
    write_trajectory_csv,
)
from adiasearch.schedules import (
    Schedule,
    Strategy,
    linear_schedule,
    local_schedule,
    parallel_schedule,
)

from conftest import EPS_REF, dense_rk4, local_profile


class FrozenSchedule:
    """Duck-typed stand-in holding the couplings constant in time."""

    kind = Strategy.LINEAR
    marked = 0

    def __init__(self, a, b, n, t_total=10.0):
        self._a = a
        self._b = b
        self.n = n
        self.alpha_or_beta = max(a, b)
        self.window = (0.0, t_total)
        self.t_char = t_total
        self.epsilon = None
        self.calls = 0

    def levels(self, t):
        self.calls += 1
        ones = np.ones_like(np.asarray(t, dtype=float))
        return self._a * ones, self._b * ones

    def couplings(self, t):
        self.calls += 1
        t = np.asarray(t, dtype=float)
        ones = np.ones_like(t)
        return self._a * ones, self._b * ones, 0.0 * ones, 0.0 * ones


class TestStationaryEvolution:
    def test_reduced_populations_static(self):
        # |w> is an eigenstate of the frozen generator, so the upper-branch
        # weight and the basis populations must stay put
        traj, result = propagate(FrozenSchedule(1.0, 0.0, 20), steps=2000)
        assert np.max(np.abs(traj.p_plus - 1.0)) <= 1e-12
        assert np.max(np.abs(traj.p_u - 19 / 20)) <= 1e-12
        assert np.max(np.abs(traj.p_m - 1 / 20)) <= 1e-12
        assert result.p_loss <= 1e-12

    def test_full_static_oracle_off(self):
        # with b = 0 the walk generator never favors the mark
        [result] = propagate_full([FrozenSchedule(1.0, 0.0, 16)], steps=4000)
        assert result.p_m_final == pytest.approx(1 / 16, abs=1e-9)


class TestLocalRun:
    def test_final_population_band(self, inst20):
        _, result = propagate(local_schedule(1.0, EPS_REF, inst20))
        assert abs(result.p_m_final - 0.995) < 1e-3

    def test_matches_interference_form_along_the_way(self, inst20):
        # integrate gap/2 to get the dressed phase, then compare the
        # instantaneous lower-branch weight with the closed form
        eps = EPS_REF
        sched = local_schedule(1.0, eps, inst20)
        traj, _ = propagate(sched, steps=400_000)
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

    @pytest.mark.parametrize("steps", [4000, 16_000])
    @pytest.mark.parametrize("n", [20, 10**3, 10**8])
    def test_every_row_on_the_closed_form_profile(self, n, steps):
        traj, result = propagate(local_schedule(1.0, EPS_REF, SearchInstance(n)), steps=steps)
        profile = local_profile(EPS_REF, n, traj.theta)
        assert np.max(np.abs(traj.p_minus - profile)) <= max(1e-14, result.error_estimate)

    def test_loss_has_interference_oscillations(self, inst20):
        traj, _ = propagate(local_schedule(1.0, EPS_REF, inst20))
        p = traj.p_minus
        interior_max = (p[1:-1] > p[:-2]) & (p[1:-1] > p[2:])
        assert int(np.sum(interior_max)) >= 3

    def test_marked_item_does_not_matter_reduced(self):
        results = []
        for m in (0, 7, 19):
            inst = SearchInstance(20, marked=m)
            _, res = propagate(local_schedule(1.0, 0.2, inst), steps=20_000)
            results.append(res.p_m_final)
        assert max(results) - min(results) <= 1e-15

    def test_loss_complements_final_population(self, inst20):
        # oracle coupling vanishes at the end, so |-> coincides with |m>
        _, res = propagate(local_schedule(1.0, 0.15, inst20), steps=50_000)
        assert res.p_loss == pytest.approx(1 - res.p_m_final, abs=1e-9)


class TestParallelRun:
    def test_final_population_band(self, inst20):
        sched = parallel_schedule(1.0, 4.7, inst20, r=8.0)
        _, result = propagate(sched)
        assert abs(result.p_m_final - 0.995) < 1e-3

    def test_population_transfer_essentially_monotone(self, inst20):
        sched = parallel_schedule(1.0, 4.7, inst20, r=8.0)
        traj, _ = propagate(sched)
        assert np.min(np.diff(traj.p_m)) > -1e-3


@pytest.fixture(scope="module")
def run():
    inst = SearchInstance(20)
    return propagate(local_schedule(1.0, 0.2, inst), steps=20_000)


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
        sched = local_schedule(1.0, 0.2, SearchInstance(4, marked=2))
        _, reduced = propagate(sched, steps=60_000)
        [full] = propagate_full([sched], steps=30_000)
        assert abs(full.p_m_final - reduced.p_m_final) < 1e-8

    def test_parallel_band_from_full(self, inst20):
        sched = parallel_schedule(1.0, 4.7, inst20, r=8.0)
        [result] = propagate_full([sched], steps=50_000)
        assert abs(result.p_m_final - 0.995) < 1e-3

    def test_marked_item_does_not_matter_full(self):
        scheds = [local_schedule(1.0, 0.25, SearchInstance(12, marked=m)) for m in (0, 11)]
        finals = [r.p_m_final for r in propagate_full(scheds, steps=20_000)]
        assert abs(finals[0] - finals[1]) <= 1e-10

    def test_size_cap(self):
        sched = local_schedule(1.0, 0.3, SearchInstance(513))
        with pytest.raises(OracleSizeExceeded, match="n=513 exceeds"):
            propagate_full([sched], steps=2000)


def _mixed_batch():
    """Linear, local and parallel rows at n = 4, 20, 128 with their own windows."""
    scheds = []
    for n, marked in ((4, 3), (20, 7), (128, 100)):
        inst = SearchInstance(n, marked)
        scheds += [linear_schedule(1.0, 40.0 + n / 4, inst),
                   local_schedule(1.0, 0.2, inst),
                   parallel_schedule(1.0, 0.6 * math.sqrt(n), inst, r=8.0)]
    return scheds


class TestBatchOracle:
    STEPS = 2000

    @pytest.fixture(scope="class")
    def alone(self):
        return [propagate_full([s], steps=self.STEPS)[0] for s in _mixed_batch()]

    def test_rows_match_batches_of_one(self, alone):
        # each row touches only its own slice and sources, so batching
        # changes no bit
        batch = propagate_full(_mixed_batch(), steps=self.STEPS)
        assert len(batch) == len(alone) == 9
        assert batch == alone

    def test_row_order_does_not_matter(self, alone):
        backwards = propagate_full(_mixed_batch()[::-1], steps=self.STEPS)[::-1]
        assert backwards == alone

    def test_matches_dense_reference(self):
        # marks first, last and in the middle of their slices, so the gather
        # index is checked at every slice edge; 1,500 and 2,500 steps end on a
        # short block, whose coefficient rows are trimmed and whose grid ends
        # at the window's end
        scheds = []
        for n in (2, 3, 7):
            first, last, middle = (SearchInstance(n, m) for m in (0, n - 1, n // 2))
            scheds += [linear_schedule(1.0, 40.0 + n / 4, first),
                       local_schedule(1.0, 0.2, last),
                       parallel_schedule(1.0, 0.6 * math.sqrt(n), middle, r=8.0),
                       parallel_schedule(1.0, 0.6 * math.sqrt(n), first, r=8.0, shape="erf")]
        for steps in (self.STEPS, 1500, 2500):
            for sched, result in zip(scheds, propagate_full(scheds, steps=steps)):
                p_m, p_minus = dense_rk4(sched, steps)
                assert abs(result.p_m_final - p_m) <= 1e-13
                assert abs(result.p_loss - min(1.0, p_minus)) <= 1e-13

    @pytest.mark.parametrize("marked", [0, 19], ids=["mark-first", "mark-last"])
    def test_matches_dense_reference_at_n_20(self, marked):
        # a slice sum's read of a stage state weighs the head n times, which
        # the n <= 7 rows above check only at small n
        inst = SearchInstance(20, marked)
        scheds = [linear_schedule(1.0, 45.0, inst), local_schedule(1.0, 0.2, inst),
                  parallel_schedule(1.0, 0.6 * math.sqrt(20), inst, r=8.0)]
        for sched, result in zip(scheds, propagate_full(scheds, steps=1500)):
            p_m, p_minus = dense_rk4(sched, 1500)
            assert abs(result.p_m_final - p_m) <= 1e-13
            assert abs(result.p_loss - min(1.0, p_minus)) <= 1e-13

    @pytest.mark.parametrize("kind", ["linear", "parallel"])
    def test_cap_size_row_between_small_rows(self, kind):
        # a row at ORACLE_CAP beside two-entry rows: its slice sum spans most
        # of the flat state, and the small rows' reads sit on both sides of it;
        # the windows keep its drift under the guard at MIN_STEPS
        inst = SearchInstance(ORACLE_CAP, 300)
        big = (linear_schedule(1.0, 40.0, inst) if kind == "linear"
               else parallel_schedule(1.0, 10.0, inst, r=4.0))
        scheds = [local_schedule(1.0, 0.2, SearchInstance(2, 1)), big,
                  local_schedule(1.0, 0.2, SearchInstance(2, 0))]
        for sched, result in zip(scheds, propagate_full(scheds, steps=MIN_STEPS)):
            assert propagate_full([sched], steps=MIN_STEPS) == [result]

    def test_bits_of_every_kind(self):
        # float.hex of each RunResult field, recorded from the loop that reads
        # the state once per step and takes each stage's reads by linearity;
        # erf rows, which `check` never runs, included
        expected = [
            ("0x1.ffe137657ae14p-1", "0x1.ec8976dd78d2ap-13", "0x1.8ba3a00000000p-33"),
            ("0x1.f4a0e884f636ap-1", "0x1.6be2ef6134042p-6", "0x1.4b00000000000p-45"),
            ("0x1.b79edf2a4a4fbp-1", "0x1.21641d4822035p-3", "0x1.6b00000000000p-44"),
            ("0x1.9282bb8866194p-1", "0x1.b5f511a046b5ap-3", "0x1.4b80000000000p-44"),
            ("0x1.ff0bd3932a313p-1", "0x1.e858d50ab239ep-10", "0x1.283ae00000000p-33"),
            ("0x1.f904a4441a7c7p-1", "0x1.bed6eef82bb7fp-7", "0x1.3530000000000p-40"),
            ("0x1.a98fee5bcb19fp-1", "0x1.5953c4ee8aa7ap-3", "0x1.08c0000000000p-42"),
            ("0x1.6f9c3a446d97bp-1", "0x1.20c78b062909cp-2", "0x1.c340000000000p-43"),
            ("0x1.fcd97e3db5cf5p-2", "0x1.019340d8e8b4cp-1", "0x1.078c6c0000000p-31"),
            ("0x1.f0904a47cde64p-1", "0x1.edf6b568a67f8p-6", "0x1.9d9cb80000000p-31"),
            ("0x1.ccf4e0a82e445p-1", "0x1.9509771f682adp-4", "0x1.06aaa00000000p-34"),
            ("0x1.970de92a9963dp-1", "0x1.a3c8571669a1ep-3", "0x1.a0ff800000000p-35"),
        ]
        scheds = []
        for n in (2, 5, 64):
            inst = SearchInstance(n, n // 3)
            scheds += [linear_schedule(1.0, 40.0 + n / 4, inst),
                       local_schedule(1.0, 0.2, inst),
                       parallel_schedule(1.0, 0.6 * math.sqrt(n), inst, r=8.0),
                       parallel_schedule(1.0, 0.6 * math.sqrt(n), inst, r=8.0, shape="erf")]
        got = [(r.p_m_final.hex(), r.p_loss.hex(), r.norm_drift.hex())
               for r in propagate_full(scheds, steps=2500)]
        assert got == expected

    @pytest.mark.parametrize("layout", [
        ((2, 1), (2, 0)),
        ((5, 0),),
        ((5, 4),),
    ], ids=["n-2-marks-adjacent", "one-row-first", "one-row-last"])
    def test_read_layouts(self, layout):
        # one reduceat reads the marks, last row first, then the slice sums;
        # the layouts hold two-entry slices whose marks sit side by side in
        # the flat state (a row marked last, then a row marked first), read
        # index 0 twice (a one-row batch marked at 0) and end a batch on its
        # mark.  Each row, alone and between two other rows, gives the same
        # bits as in the batch, and agrees with the dense reference.
        builders = [lambda inst: linear_schedule(1.0, 40.0 + inst.n / 4, inst),
                    lambda inst: local_schedule(1.0, 0.2, inst),
                    lambda inst: parallel_schedule(1.0, 0.6 * math.sqrt(inst.n), inst, r=8.0),
                    lambda inst: parallel_schedule(1.0, 0.6 * math.sqrt(inst.n), inst, r=8.0,
                                                   shape="erf")]
        scheds = [builders[i % 4](SearchInstance(n, m)) for i, (n, m) in enumerate(layout)]
        pad = local_schedule(1.0, 0.2, SearchInstance(3, 1))
        batch = propagate_full(scheds, steps=self.STEPS)
        for sched, result in zip(scheds, batch):
            assert propagate_full([sched], steps=self.STEPS) == [result]
            assert propagate_full([pad, sched, pad], steps=self.STEPS)[1] == result
            p_m, p_minus = dense_rk4(sched, self.STEPS)
            assert abs(result.p_m_final - p_m) <= 1e-13
            assert abs(result.p_loss - min(1.0, p_minus)) <= 1e-13

    def test_drifting_row_is_named(self):
        scheds = [FrozenSchedule(1.0, 0.0, 16),
                  FrozenSchedule(1.0, 0.0, 16, t_total=1000.0)]
        with pytest.raises(NonUnit, match=r"row 1 \(n=16, linear\)"):
            propagate_full(scheds, steps=1000)

    @pytest.mark.parametrize("case", ["cap", "empty"])
    def test_guards_run_before_stepping(self, case):
        good = FrozenSchedule(1.0, 0.0, 4)
        scheds, error = {
            "cap": ([good, FrozenSchedule(1.0, 0.0, 513)], OracleSizeExceeded),
            "empty": ([], InvalidParameter),
        }[case]
        with pytest.raises(error):
            propagate_full(scheds, steps=1000)
        assert good.calls == 0


class TestValidation:
    def test_step_floor(self, inst20):
        with pytest.raises(InvalidParameter):
            propagate(local_schedule(1.0, 0.2, inst20), steps=500)

    def test_step_cap(self, inst20):
        # refused before any array is sized by the count
        sched = local_schedule(1.0, 0.2, inst20)
        message = f"^steps must be at most {MAX_STEPS}, got {MAX_STEPS + 1}$"
        with pytest.raises(InvalidParameter, match=message):
            propagate(sched, MAX_STEPS + 1)
        with pytest.raises(InvalidParameter, match=message):
            propagate_full([sched], MAX_STEPS + 1)

    @pytest.mark.parametrize("steps", [2000.5, math.nan, math.inf, "2000"])
    def test_non_integral_steps_rejected_by_name(self, inst20, steps):
        sched = local_schedule(1.0, 0.2, inst20)
        with pytest.raises(InvalidParameter, match="^steps must be an integer, got "):
            propagate(sched, steps)
        with pytest.raises(InvalidParameter, match="^steps must be an integer, got "):
            propagate_full([sched], steps)

    def test_integral_float_steps_accepted(self, inst4):
        sched = local_schedule(1.0, 0.2, inst4)
        assert propagate(sched, 2000.0)[1] == propagate(sched, 2000)[1]
        assert propagate_full([sched], 2000.0) == propagate_full([sched], np.int64(2000))

    def test_degenerate_schedule_rejected(self, inst20):
        # a = b = 0: the splitting vanishes and the eigenbasis is undefined
        with pytest.raises(DegeneratePoint):
            propagate(FrozenSchedule(0.0, 0.0, 20), steps=2000)

    @pytest.mark.parametrize("beta", [0.0, math.nan])
    def test_degenerate_parallel_rejected(self, inst20, beta):
        # the builder refuses such a scale; a schedule made without it meets
        # the guard of the closed-form grid, which samples no gap
        sched = dataclasses.replace(parallel_schedule(1.0, 4.7, inst20), alpha_or_beta=beta)
        with pytest.raises(DegeneratePoint):
            propagate(sched, steps=2000)

    def test_nan_gap_rejected(self):
        # a NaN coupling gives a NaN gap, which the guard refuses as it does a zero one
        with pytest.raises(DegeneratePoint):
            propagate(FrozenSchedule(math.nan, 0.0, 20), steps=2000)

    def test_nan_state_rejected(self):
        # a = 1e200 overflows the step exponentials (z*z) to NaN; the builders
        # refuse such scales, so only a stand-in schedule reaches the guard
        with pytest.warns(RuntimeWarning), pytest.raises(NonUnit, match="norm drifted by nan"):
            propagate(FrozenSchedule(1e200, 0.0, 20), steps=2000)

    def test_full_norm_drift_rejected(self):
        # RK4 at |H| dt = 1 loses norm on every step, far beyond 1e-7
        with pytest.raises(NonUnit):
            propagate_full([FrozenSchedule(1.0, 0.0, 16, t_total=1000.0)], steps=1000)


class TestTrajectoryCsv:
    def test_format_contract(self, inst20, tmp_path):
        sched = local_schedule(1.0, 0.3, inst20)
        traj, _ = propagate(sched, steps=2000)
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

    @staticmethod
    def _rendered(trajectory):
        """The file the contract asks for, rendered row by row through `str`."""
        columns = [getattr(trajectory, name) for name in TRAJECTORY_COLUMNS]
        rows = [",".join(f"{float(v):.12g}" for v in row) for row in zip(*columns)]
        return "\n".join([",".join(TRAJECTORY_COLUMNS), *rows, ""]).encode("ascii")

    @pytest.mark.parametrize("build, steps", [
        (lambda inst: linear_schedule(1.0, 300.0, inst), 4000),
        (lambda inst: local_schedule(1.0, 1 / 11, inst), 4000),
        (lambda inst: parallel_schedule(1.0, 4.7, inst, r=12.0), 6000),
        (lambda inst: parallel_schedule(1.0, 3.5, inst, r=9.5, shape="erf"), 8000),
        # the writer formats 341 rows (`_BLOCK` // 12 cells) at a time: 1,022,
        # 1,023 and 1,024 rows end one short of, at and one past a block edge
        (lambda inst: local_schedule(1.0, 1 / 11, inst), 1021),
        (lambda inst: local_schedule(1.0, 1 / 11, inst), 1022),
        (lambda inst: local_schedule(1.0, 1 / 11, inst), 1023),
        (lambda inst: local_schedule(1.0, 1 / 11, inst), 3999),
    ], ids=["linear", "local", "tanh", "erf", "edge-1", "edge", "edge+1", "4000-rows"])
    def test_bytes_match_per_row_rendering(self, inst20, tmp_path, build, steps):
        traj, _ = propagate(build(inst20), steps=steps)
        path = tmp_path / "traj.csv"
        write_trajectory_csv(traj, path)
        assert path.read_bytes() == self._rendered(traj)

    def test_bytes_at_format_switches(self, inst20, tmp_path):
        # %g switches to exponent form below 1e-4 and from 1e12 on; also a
        # signed zero, a subnormal and values that round at the 12th digit
        special = np.array([-0.0, 5e-324, 1e-5, 1e-4, 1e11, 1e12, 0.1 + 0.2, 1 - 2**-53])
        traj, _ = propagate(local_schedule(1.0, 0.3, inst20), steps=2000)
        for shift, name in enumerate(TRAJECTORY_COLUMNS):
            column = getattr(traj, name)
            column[:] = np.resize(np.roll(special, shift), len(column))
        path = tmp_path / "traj.csv"
        write_trajectory_csv(traj, path)
        data = path.read_bytes()
        assert data == self._rendered(traj)
        for cell in (b"-0", b"4.94065645841e-324", b"1e-05", b"0.0001", b"100000000000",
                     b"1e+12", b"0.3", b"1"):
            assert b"," + cell + b"," in data

    @pytest.mark.parametrize("steps, rows", [(4000, 2001), (3999, 4000)])
    def test_peak_memory_of_one_write(self, inst20, tmp_path, steps, rows):
        # the rows are formatted a block at a time, so the writer's traced
        # peak stays below 512 KiB whatever the row count (1.5 MiB at 2,001
        # rows and 3.0 MiB at 4,000 with the whole file formatted at once)
        traj, _ = propagate(local_schedule(1.0, 1 / 11, inst20), steps=steps)
        # build the deferred columns first: they belong to the trajectory
        assert len(traj.t) == rows
        tracemalloc.start()
        try:
            write_trajectory_csv(traj, tmp_path / "traj.csv")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 512 * 2**10


class TestParallelMass:
    @pytest.mark.parametrize("n", [2, 20, 10**3, 10**6, 10**8])
    @pytest.mark.parametrize("shape", ["tanh", "erf"])
    def test_closed_form_matches_sampled_mass(self, shape, n):
        # the phase g (t - t_i) plus the rotation 2 (psi(t_i) - psi(t)) is the
        # sampled phase plus rotation.  On a constant gap the sampled mass's
        # |d ln gap| term is rounding alone, summed in absolute value (up to
        # 5.9e-10 at n = 1e8 over these cells), so it is taken out
        for r in (6.5, 8.0, 24.0, 40.0):
            for inv_gamma in (0.6, 5.0):
                sched = parallel_schedule(1.0, inv_gamma * math.sqrt(n), SearchInstance(n),
                                          r=r, shape=shape)
                t = np.linspace(*sched.window, 2 * MIN_STEPS + 1)
                closed = _parallel_mass(sched, t)
                log_gap = np.log(energy_gap(*sched.levels(t), n))
                gap_change = np.concatenate(([0.0], np.cumsum(np.abs(np.diff(log_gap)))))
                total = closed[-1]
                assert gap_change[-1] <= 1e-9 * total
                sampled = _cumulative_mass(sched, t) - gap_change
                assert np.max(np.abs(closed - sampled)) <= 1e-12 * total, (r, inv_gamma)


class TestAccuracy:
    # n = 1e10 and 1e12 guard the coarse-first grid where the window ends
    # are 1/n narrow
    @pytest.mark.parametrize("n, tolerance", [
        (10**4, 1e-9), (10**6, 1e-9), (10**8, 1e-8), (10**10, 1e-8), (10**12, 1e-8)])
    def test_local_large_n_against_closed_form(self, n, tolerance):
        inst = SearchInstance(n)
        _, result = propagate(local_schedule(1.0, EPS_REF, inst))
        error = abs(result.p_loss - local_loss_exact(EPS_REF, n))
        assert error < tolerance
        assert result.error_estimate >= error

    def test_estimate_follows_discretization_error(self, inst20):
        # at 2000 steps the Richardson part dominates the rounding term
        _, result = propagate(local_schedule(1.0, EPS_REF, inst20), steps=2000)
        error = abs(result.p_loss - local_loss_exact(EPS_REF, 20))
        assert error <= result.error_estimate <= 4.0 * error

    def test_parallel_against_mpmath(self, inst20):
        sched = parallel_schedule(1.0, 4.7, inst20, r=12.0)
        _, result = propagate(sched)
        p_m, p_loss = _mpmath_reference(sched, steps=500)
        for value, reference in ((result.p_m_final, p_m), (result.p_loss, p_loss)):
            assert abs(value - reference) <= 1e-12
            assert abs(value - reference) <= result.error_estimate
        # `check`'s parallel entries (T = 0.6 sqrt(n), r = 8) at n = 4 and
        # 128: the grid of the closed-form mass reads 1.5e-14 and 3.7e-15 in
        # p_m, a grid uniform in t 6.9e-13 at n = 4
        for n in (4, 128):
            sched = parallel_schedule(1.0, 0.6 * math.sqrt(n), SearchInstance(n), r=8.0)
            _, result = propagate(sched)
            p_m, p_loss = _mpmath_reference(sched, steps=800)
            assert abs(result.p_m_final - p_m) <= min(5e-14, result.error_estimate)
            assert abs(result.p_loss - p_loss) <= min(1e-14, result.error_estimate)


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
        _, result = propagate(sched)
        ratio = result.p_loss / parallel_loss_asymptotic(1.0, inv_gamma * math.sqrt(n), n)
        assert 0.5 <= ratio <= 2.0

    def test_large_n(self):
        # At n = 1e6 an r = 24 window ends with boundary residual 1.5e-7,
        # and its loss, 1.84e-15, is the truncation floor: the same to four
        # digits at 4x the steps.  A window of r = 32 puts the floor below
        # sech^2(6 pi) = 1.7e-16.
        inst = SearchInstance(10**6)
        floor = [propagate(parallel_schedule(1.0, 6000.0, inst, r=24.0),
                           steps=steps)[1].p_loss
                 for steps in (DEFAULT_STEPS, 4 * DEFAULT_STEPS)]
        assert abs(floor[1] - floor[0]) <= 1e-4 * floor[0]
        _, result = propagate(parallel_schedule(1.0, 6000.0, inst, r=32.0))
        ratio = result.p_loss / parallel_loss_asymptotic(1.0, 6000.0, 10**6)
        assert 0.5 <= ratio <= 2.0


class TestTrajectoryContract:
    @pytest.mark.parametrize("steps", [1000, 4000, 4097, 6000, 8000, DEFAULT_STEPS])
    @pytest.mark.parametrize("build", [
        lambda inst: linear_schedule(1.0, 400.0, inst),
        lambda inst: local_schedule(1.0, EPS_REF, inst),
        lambda inst: parallel_schedule(1.0, 2.7, inst, r=12.0),
        lambda inst: parallel_schedule(1.0, 3.1, inst, r=6.5, shape="erf"),
    ], ids=["linear", "local", "tanh", "parallel"])
    def test_rows_and_endpoints(self, inst20, build, steps):
        sched = build(inst20)
        traj, result = propagate(sched, steps=steps)
        stride = max(1, steps // 2000)
        assert len(traj) == steps // stride + 1 + (1 if steps % stride else 0)
        assert np.all(np.diff(traj.t) > 0)
        assert (traj.t[0], traj.t[-1]) == sched.window
        # the result reads the last row from the last node alone, before the
        # rows are built; the rows' last entries carry the same bits
        assert result.p_m_final.hex() == min(1.0, float(traj.p_m[-1])).hex()
        assert result.p_loss.hex() == min(1.0, float(traj.p_minus[-1])).hex()


def _count_couplings(monkeypatch):
    """The sample counts of every `Schedule.couplings` call from now on."""
    calls = []
    couplings = Schedule.couplings

    def counted(self, t):
        calls.append(len(t))
        return couplings(self, t)

    monkeypatch.setattr(Schedule, "couplings", counted)
    return calls


class TestDeferredRows:
    def test_rows_built_once_on_first_read(self, monkeypatch, inst20):
        calls = _count_couplings(monkeypatch)
        traj, result = propagate(local_schedule(1.0, EPS_REF, inst20), steps=4000)
        # the result, its estimate and the eager columns sample no rates
        assert result.error_estimate > 0.0
        assert len(traj) == len(traj.p_u) == len(traj.p_m) == len(traj.norm) == 2001
        assert calls == []
        first = {name: getattr(traj, name) for name in TRAJECTORY_COLUMNS}
        assert calls == [2001]
        again = {name: getattr(traj, name) for name in TRAJECTORY_COLUMNS}
        assert calls == [2001]
        for name in TRAJECTORY_COLUMNS:
            assert again[name] is first[name]
        fresh, _ = propagate(local_schedule(1.0, EPS_REF, inst20), steps=4000)
        for name in reversed(TRAJECTORY_COLUMNS):  # built from any column first
            assert np.array_equal(getattr(fresh, name), first[name]), name

    def test_attribute_contract(self, monkeypatch, inst20):
        calls = _count_couplings(monkeypatch)
        traj, _ = propagate(parallel_schedule(1.0, 4.7, inst20, r=8.0), steps=4000)
        # a name that is no column is missing, and asking samples nothing
        assert not hasattr(traj, "p_zero")
        assert calls == []
        # an unread trajectory copies and pickles unbuilt, and builds the
        # same columns afterwards
        copies = [copy.copy(traj), pickle.loads(pickle.dumps(traj))]
        assert calls == []
        want = {name: getattr(traj, name) for name in TRAJECTORY_COLUMNS}
        assert calls == [2001]
        assert set(TRAJECTORY_COLUMNS) <= set(vars(traj))
        for other in copies:
            for name in TRAJECTORY_COLUMNS:
                assert getattr(other, name).tobytes() == want[name].tobytes(), name
        assert calls == [2001] * 3


class TestChunkScan:
    @pytest.mark.parametrize("build", [
        lambda inst: local_schedule(1.0, EPS_REF, inst),
        lambda inst: parallel_schedule(1.0, 4.7, inst, r=8.0),
    ], ids=["local", "parallel"])
    def test_rows_match_sequential_product(self, inst20, build):
        # reference: the same chunk products applied one after another
        sched = build(inst20)
        traj, _ = propagate(sched, steps=DEFAULT_STEPS)
        alpha, beta = _magnus_steps(sched, _phase_grid(sched, DEFAULT_STEPS), every=1)
        every = DEFAULT_STEPS // 2000
        chunk_alpha, chunk_beta = _compose(alpha.reshape(-1, every), beta.reshape(-1, every))
        c_u, c_m = complex(math.sqrt(19 / 20)), complex(1 / math.sqrt(20))
        p_u, p_m = [abs(c_u) ** 2], [abs(c_m) ** 2]
        for al, be in zip(chunk_alpha.tolist(), chunk_beta.tolist()):
            c_u, c_m = al * c_u - be.conjugate() * c_m, be * c_u + al.conjugate() * c_m
            p_u.append(abs(c_u) ** 2)
            p_m.append(abs(c_m) ** 2)
        assert len(traj) == len(p_u) == 2001
        assert np.max(np.abs(traj.p_u - np.array(p_u))) <= 1e-13
        assert np.max(np.abs(traj.p_m - np.array(p_m))) <= 1e-13


class TestBlocks:
    @pytest.mark.parametrize("steps", [8_193, 12_345, 16_000])
    @pytest.mark.parametrize("build", [
        lambda inst: local_schedule(1.0, EPS_REF, inst),
        lambda inst: parallel_schedule(1.0, 0.6 * math.sqrt(inst.n), inst, r=12.0),
    ], ids=["local", "parallel"])
    def test_blocked_run_matches_one_block(self, monkeypatch, build, steps):
        # ragged last block everywhere; at 12,345 steps the last chunk is short
        # too, and at 8,193 the last chunk and the half run's last block hold
        # one step each (3 and 4,095 identity pads)
        sched = build(SearchInstance(1000))
        traj, result = propagate(sched, steps=steps)
        # equality skips the estimate, and its half run steps on first read:
        # read it here at the default block, below at one block
        estimate = result.error_estimate
        monkeypatch.setattr(importlib.import_module("adiasearch.propagate"), "_BLOCK", 4 * steps)
        whole_traj, whole_result = propagate(sched, steps=steps)
        for name in TRAJECTORY_COLUMNS:
            assert np.array_equal(getattr(traj, name), getattr(whole_traj, name)), name
        assert result == whole_result
        assert estimate == whole_result.error_estimate

    def test_peak_memory_of_a_default_run(self):
        # the blocks keep every temporary small: the run peaks below 2 MiB
        # (3.1 MiB with one array per pass), and so does the run plus the half
        # run of its error estimate
        sched = local_schedule(1.0, EPS_REF, SearchInstance(1000))
        propagate(sched)[1].error_estimate
        peaks = []
        tracemalloc.start()
        try:
            for run in (lambda: propagate(sched), lambda: propagate(sched)[1].error_estimate):
                tracemalloc.reset_peak()
                run()
                peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert max(peaks) < 2 * 2**20


class TestRunResult:
    @pytest.mark.parametrize("build, steps, expected", [
        (lambda: local_schedule(1.0, EPS_REF, SearchInstance(20)), 2000,
         "0x1.8ec6811111111p-40"),
        (lambda: parallel_schedule(1.0, 0.6 * math.sqrt(1000), SearchInstance(1000), r=12.0),
         DEFAULT_STEPS, "0x1.f40b333333333p-39"),
    ], ids=["local", "parallel"])
    def test_estimate_stepped_on_first_read(self, monkeypatch, build, steps, expected):
        # one Magnus pass per run; the half run's pass comes with the first
        # read of the estimate, whose bits are those it had when every run
        # computed it
        passes = []

        def counted(schedule, nodes, every):
            passes.append(len(nodes) - 1)
            return _magnus_steps(schedule, nodes, every)

        monkeypatch.setattr(importlib.import_module("adiasearch.propagate"), "_magnus_steps",
                            counted)
        _, result = propagate(build(), steps=steps)
        assert passes == [steps]
        assert result.error_estimate.hex() == expected
        assert passes == [steps, steps // 2]
        assert result.error_estimate.hex() == expected
        assert passes == [steps, steps // 2]

    def test_runs_of_one_schedule_compare_equal(self, inst20):
        sched = local_schedule(1.0, EPS_REF, inst20)
        assert propagate(sched, steps=2000)[1] == propagate(sched, steps=2000)[1]

    def test_pickle_round_trips(self, inst20):
        _, result = propagate(parallel_schedule(1.0, 4.7, inst20, r=8.0), steps=2000)
        unread = pickle.loads(pickle.dumps(result))
        estimate = result.error_estimate
        read = pickle.loads(pickle.dumps(result))
        assert unread == result == read
        assert unread.error_estimate == estimate == read.error_estimate

    @pytest.mark.parametrize("run", [
        lambda: propagate(linear_schedule(1.0, 568.631, SearchInstance(17, 5)), steps=6000)[1],
        lambda: propagate_full([FrozenSchedule(1.0, 1.0, 2, t_total=math.pi * math.sqrt(2) / 2)],
                               steps=6000)[0],
    ], ids=["reduced", "full"])
    def test_p_m_final_is_a_probability(self, run):
        # each run's final norm rounds just above 1, and |c_m|^2 read
        # 1.0000000000000004 (reduced) and 0x1.0000000000038p+0 (full RK4:
        # constant couplings a = b = 1 carry |s> onto |m> at t = pi sqrt(n) / 2)
        # before it was clamped as p_loss is
        assert run().p_m_final <= 1.0

    def test_full_results_carry_no_estimate(self, inst4):
        [full] = propagate_full([local_schedule(1.0, 0.2, inst4)], steps=1000)
        assert full.error_estimate is None
