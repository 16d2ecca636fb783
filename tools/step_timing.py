"""Time `propagate_full` per step, and `propagate` and `write_trajectory_csv`
per call, on two source trees, in alternating processes; trace the peak of
one `propagate_full` and of one writer call.

Usage: python tools/step_timing.py SRC_A SRC_B

SRC_A and SRC_B are `src` directories (e.g. the parent's and the change's).
Each of PAIRS pairs starts one fresh interpreter per tree, A first in even
pairs and B first in odd ones, so a drift of the host's speed hits both sides
alike.  A process times three things:

* the batches that two `check` commands hand to `propagate_full`: the
  default one (n 4, 20, 128 at seed 0: nine rows) and the reference
  command `check_seed_words` (n 2, 3 and 512, the cap: three rows, so
  small step maps, and the longest state, which is read and written once
  per fold of steps): per batch one warm-up call, then one call under
  `tracemalloc` for its traced allocation peak in KiB, then CALLS calls
  of STEPS steps, the fastest in microseconds per step (call time over
  steps, so the tables of trees that step differently compare);
* `propagate` at the default steps on the fixed accuracy probes of the
  benchmark's `summary_sweep` workload (local n = 20, 1e3, 1e4, 1e6 at
  epsilon = 1/11; parallel n = 20, 1e3 at r = 12, T matched to the local
  cost as `sweep --variable n` sets it), and on the erf schedule of the
  reference command `run_parallel_erf` (n = 37, marked 5, T = 3.1,
  r = 6.5) at its 6,000 steps, so both ramp shapes are timed: one warm-up
  call per probe, then PROPAGATE_CALLS rounds over the probes, each
  probe's fastest call in milliseconds;
* `write_trajectory_csv` of three runs (WRITES: the fixed probe of the
  benchmark's `trajectory_runs` workload, local n = 20 at epsilon = 1/11
  and 4,000 steps, and an erf run at n = 50, T = 3.5, r = 9.5 and 8,000
  steps, 2,001 rows each; the same local run at 3,999 steps, 4,000 rows):
  one warm-up call per run, which also builds the rows, then one call
  under `tracemalloc` for the writer's traced allocation peak in KiB, then
  WRITE_CALLS rounds over the runs, each run's fastest call in
  milliseconds, each call into a new file of a temporary directory, as
  `run` writes one.

The script prints every pair and three tables: each side's median per step,
per probe call and per write, the median ratio B/A and the number of pairs
in which B was faster; the `propagate_full` and write tables also give
each side's traced peak of one call, which does not vary between
processes.  Perfbench's `--trace 1` layer times are raw wall seconds from
one run per side; this times the integrators and the writer alone, over
many pairs.
"""

import json
import os
import statistics
import subprocess
import sys

PAIRS = 20
STEPS = 5000
CALLS = 3
PROPAGATE_CALLS = 5
WRITE_CALLS = 10
# the probes' labels, in the order the child reports them
PROBES = ("local 20", "local 1e3", "local 1e4", "local 1e6", "parallel 20", "parallel 1e3",
          "erf 37 6k")
# the runs whose trajectory.csv is timed: a label and the `cli.RunConfig`
# fields of the run, as `run` would build it
WRITES = (("local 20 4k", dict(strategy="local", n=20, epsilon=1 / 11, steps=4000)),
          ("erf 50 8k", dict(strategy="parallel", n=50, T=3.5, r=9.5, shape="erf", steps=8000)),
          ("local 4k rows", dict(strategy="local", n=20, epsilon=1 / 11, steps=3999)))

# the `check` commands whose `propagate_full` batches are timed: a label and
# the arguments; the second is the reference command `check_seed_words`
CHECKS = (("check", ["check"]),
          ("seed words", ["check", "--seed", "12345678901234567890", "--n-list", "2", "3",
                          "512", "--steps", "1000", "--full-steps", "8000"]))

# each `check` is run with its `propagate_full` swapped for a recorder that
# keeps the batch and stops the command, so the timed batch is whatever
# `check` builds in that tree, before or after any change to its defaults
_CHILD = """
import json, math, os, sys, tempfile, time, tracemalloc
from adiasearch import cli
from adiasearch.model import SearchInstance
from adiasearch.propagate import DEFAULT_STEPS, propagate, propagate_full, write_trajectory_csv
from adiasearch.schedules import equal_cost_gamma, local_schedule, parallel_schedule
steps, calls, propagate_calls, write_calls = (int(arg) for arg in sys.argv[1:5])
checks, writes = json.loads(sys.argv[5]), json.loads(sys.argv[6])
batches = []

class Recorded(Exception):
    pass

def record(schedules, steps):
    batches.append(schedules)
    raise Recorded

cli.propagate_full = record
for _, argv in checks:
    try:
        cli.main(argv)
    except Recorded:
        pass
per_step, full_peaks = [], []
for batch in batches:
    propagate_full(batch, steps)
    tracemalloc.start()
    propagate_full(batch, steps)
    full_peaks.append(tracemalloc.get_traced_memory()[1] / 1024)
    tracemalloc.stop()
    best = float("inf")
    for _ in range(calls):
        start = time.perf_counter()
        propagate_full(batch, steps)
        best = min(best, time.perf_counter() - start)
    per_step.append(best / steps * 1e6)

epsilon, r = 1 / 11, 12.0
probes = [(local_schedule(1.0, epsilon, SearchInstance(n)), DEFAULT_STEPS)
          for n in (20, 1000, 10**4, 10**6)]
probes += [(parallel_schedule(1.0, math.sqrt(n) / equal_cost_gamma(epsilon, r),
                              SearchInstance(n), r=r), DEFAULT_STEPS) for n in (20, 1000)]
probes.append((parallel_schedule(1.0, 3.1, SearchInstance(37, 5), r=6.5, shape="erf"), 6000))
for schedule, probe_steps in probes:
    propagate(schedule, probe_steps)
fastest = [float("inf")] * len(probes)
for _ in range(propagate_calls):
    for k, (schedule, probe_steps) in enumerate(probes):
        start = time.perf_counter()
        propagate(schedule, probe_steps)
        fastest[k] = min(fastest[k], time.perf_counter() - start)

trajectories = []
for _, fields in writes:
    config = cli.RunConfig(**fields)
    trajectories.append(propagate(config.build(), config.steps)[0])
written = [float("inf")] * len(trajectories)
with tempfile.TemporaryDirectory() as tmp:
    for k, trajectory in enumerate(trajectories):
        write_trajectory_csv(trajectory, os.path.join(tmp, f"warm-up-{k}.csv"))
    peaks = []
    for k, trajectory in enumerate(trajectories):
        tracemalloc.start()
        write_trajectory_csv(trajectory, os.path.join(tmp, f"traced-{k}.csv"))
        peaks.append(tracemalloc.get_traced_memory()[1] / 1024)
        tracemalloc.stop()
    for call in range(write_calls):
        for k, trajectory in enumerate(trajectories):
            path = os.path.join(tmp, f"{call}-{k}.csv")
            start = time.perf_counter()
            write_trajectory_csv(trajectory, path)
            written[k] = min(written[k], time.perf_counter() - start)
print(json.dumps([per_step, full_peaks, [1e3 * s for s in fastest], [1e3 * s for s in written],
                  peaks]))
"""


def _time(src: str) -> list[list[float]]:
    """[`propagate_full` us per step and KiB of traced peak per call of each
    batch of CHECKS, `propagate` ms per call of each probe,
    `write_trajectory_csv` ms per call and KiB of traced peak per call of
    each run in WRITES]."""
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    argv = [sys.executable, "-c", _CHILD, str(STEPS), str(CALLS), str(PROPAGATE_CALLS),
            str(WRITE_CALLS), json.dumps(CHECKS), json.dumps(WRITES)]
    out = subprocess.run(argv, env=env, check=True, stdout=subprocess.PIPE, text=True).stdout
    return json.loads(out)


def _row(label: str, a: list[float], b: list[float], unit: str) -> str:
    """One table row: each side's median, the median ratio B/A and B's wins."""
    wins = sum(y < x for x, y in zip(a, b))
    ratio = statistics.median(y / x for x, y in zip(a, b))
    return (f"{label:<14} A {statistics.median(a):8.2f}  B {statistics.median(b):8.2f} {unit}"
            f"  B/A {ratio:.3f}  B faster {wins}/{len(a)}")


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    src_a, src_b = args

    runs_a, runs_b = [], []
    for pair in range(PAIRS):
        sides = [(src_a, runs_a), (src_b, runs_b)]
        for src, runs in (sides if pair % 2 == 0 else sides[::-1]):
            runs.append(_time(src))
        (full_a, _, call_a, write_a, _), (full_b, _, call_b, write_b, _) = runs_a[-1], runs_b[-1]
        print(f"pair {pair}: propagate_full A {full_a[0]:.2f}/{full_a[1]:.2f}"
              f"  B {full_b[0]:.2f}/{full_b[1]:.2f} us/step;"
              f" propagate A {sum(call_a):.2f}  B {sum(call_b):.2f} ms per probe round;"
              f" write A {sum(write_a):.2f}  B {sum(write_b):.2f} ms per round",
              flush=True)
    print(f"A = {src_a}\nB = {src_b}")
    ((full_a, full_peak_a, call_a, write_a, peak_a),
     (full_b, full_peak_b, call_b, write_b, peak_b)) = zip(*runs_a), zip(*runs_b)
    print("propagate_full, per step, the batches of `check` and `check_seed_words`,"
          " and its traced peak")
    for k, (label, _) in enumerate(CHECKS):
        print(_row(label, [f[k] for f in full_a], [f[k] for f in full_b], "us")
              + f"  peak A {full_peak_a[0][k]:.0f}  B {full_peak_b[0][k]:.0f} KiB")
    print("propagate, per call, summary_sweep probes at the default steps and the erf run")
    for k, label in enumerate(PROBES):
        print(_row(label, [c[k] for c in call_a], [c[k] for c in call_b], "ms"))
    print(_row(f"all {len(PROBES)}", [sum(c) for c in call_a], [sum(c) for c in call_b], "ms"))
    print("write_trajectory_csv, per call, and its traced peak")
    for k, (label, _) in enumerate(WRITES):
        print(_row(label, [w[k] for w in write_a], [w[k] for w in write_b], "ms")
              + f"  peak A {peak_a[0][k]:.0f}  B {peak_b[0][k]:.0f} KiB")
    print(_row("all three", [sum(w) for w in write_a], [sum(w) for w in write_b], "ms"))
    return 0


if __name__ == "__main__":
    sys.exit(main())
