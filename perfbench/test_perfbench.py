"""Tests of the benchmark itself; not part of the package's test suite.

    PYTHONPATH=src python -m pytest perfbench -q

The smoke tests start the benchmark through its command line and take about a
minute; the tracer and statistics tests are instant.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

import run
import spans
from workloads import WORKLOADS, trajectory_rows

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _span(name, start, end, parent, counts=None):
    return [name, start, end, parent, 0, counts]


def test_self_time_subtracts_the_union_of_child_intervals():
    trace = [
        _span("a", 0.0, 10.0, -1),
        _span("b", 1.0, 3.0, 0),
        _span("b", 2.0, 5.0, 0),   # overlaps its sibling: [1, 5] counts once
        _span("c", 8.0, 12.0, 0),  # runs past its parent: only [8, 10] counts
        _span("d", 2.5, 2.75, 2),  # a grandchild is not subtracted from "a"
    ]
    assert spans.self_times(trace) == pytest.approx([4.0, 2.0, 2.75, 4.0, 0.25])


def test_layer_totals_sum_time_self_time_and_counts():
    trace = [
        _span("cli.main", 0.0, 4.0, -1),
        _span("propagate.propagate", 1.0, 3.0, 0, {"steps": 1000}),
        _span("model.kernels", 1.5, 2.0, 1, {"points": 7}),
        _span("propagate.propagate", 3.0, 3.5, 0, {"steps": 2000}),
    ]
    totals = spans.layer_totals(trace)
    assert totals["cli.main"] == pytest.approx({"s": 4.0, "self_s": 1.5, "calls": 1})
    prop = totals["propagate.propagate"]
    assert (prop["s"], prop["self_s"], prop["calls"], prop["steps"]) == pytest.approx(
        (2.5, 2.0, 2, 3000))
    assert totals["model.kernels"]["points"] == 7
    assert totals["propagate.propagate_full"] == {"s": 0.0, "self_s": 0.0, "calls": 0,
                                                  "steps": 0}


def test_tracer_nests_spans_and_keeps_same_layer_calls_inside():
    tracer = spans.Tracer()

    def inner(x):
        return x + 1

    def outer(x):
        return traced_inner(traced_inner(x))

    traced_inner = tracer.wrap("inner", inner, lambda a, k, r: {"points": a[0]})
    traced_outer = tracer.wrap("outer", outer)
    traced_self = tracer.wrap("outer", lambda x: traced_outer(x))
    tracer.command = 3
    assert traced_self(1) == 3
    names = [(s[0], s[3], s[4], s[5]) for s in tracer.spans]
    assert names == [("outer", -1, 3, None), ("inner", 0, 3, {"points": 1}),
                     ("inner", 0, 3, {"points": 2})]
    for name, start, end, *_ in tracer.spans:
        assert start <= end


def test_tracer_restores_what_it_patched():
    import adiasearch.cli as cli
    from adiasearch.schedules import Schedule

    before = (cli.propagate, Schedule.__dict__["couplings"])
    tracer = spans.Tracer()
    with tracer.installed(spans.package_targets()):
        assert cli.propagate is not before[0]
    assert (cli.propagate, Schedule.__dict__["couplings"]) == before


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    samples = [float(i) for i in range(1, 41)]
    assert run.tail(samples) == (30.0, 75.0, 10)
    assert run.tail([2.0, 1.0, 3.0]) == (3.0, 100.0, 0)


def test_reference_time_averages_the_samples_near_a_command():
    samples = [(0.0, 9.0), (8.5, 1.0), (10.0, 2.0), (12.5, 3.0), (20.0, 9.0)]
    assert run.reference_time(samples, 10.0, 10.5) == pytest.approx(2.0)
    assert run.reference_time(samples, 9.0, 11.0) == pytest.approx(2.0)
    assert run.reference_time(samples, 50.0, 51.0) == pytest.approx(4.8)


def test_trajectory_rows_follow_the_sampling_stride():
    assert trajectory_rows(4000) == 2001
    assert trajectory_rows(6000) == 2001
    assert trajectory_rows(4001) == 2002  # stride 2 misses the last step


def _bench(args, cwd=ROOT, timeout=180):
    proc = subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=timeout)
    return proc


def _contract():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="ascii") as fh:
        return json.load(fh)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_end_to_end(workload):
    proc = _bench(["--workload", workload, "--seed", "7", "--seconds", "1", "--trace", "0"])
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    wanted = {m["name"]: m["unit"] for m in _contract()["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == wanted
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_smoke_traced_run():
    proc = _bench(["--workload", "trajectory_runs", "--seed", "7", "--seconds", "1",
                   "--trace", "1"])
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0
    wanted = {m["name"]: m["unit"] for m in _contract()["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == wanted
    assert result["metrics"]["propagate.write_trajectory_csv.rows"]["value"] > 0


def test_refuses_to_run_without_the_package():
    bare = os.path.join(ROOT, ".perfbench_work", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(os.path.join(ROOT, "perfbench"), os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        proc = _bench(["--workload", "summary_sweep", "--seed", "1", "--seconds", "1"],
                      cwd=bare, timeout=60)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert proc.stdout == ""
