"""Time `propagate_full` per step and `propagate` per call on two source trees,
in alternating processes.

Usage: python tools/step_timing.py SRC_A SRC_B

SRC_A and SRC_B are `src` directories (e.g. the parent's and the change's).
Each of PAIRS pairs starts one fresh interpreter per tree, A first in even
pairs and B first in odd ones, so a drift of the host's speed hits both sides
alike.  A process times two things:

* the batch that the default `check` command hands to `propagate_full`
  (n 4, 20, 128 at seed 0: nine rows): one warm-up call, then CALLS calls
  of STEPS steps, the fastest in microseconds per step;
* `propagate` at the default steps on the fixed accuracy probes of the
  benchmark's `summary_sweep` workload (local n = 20, 1e3, 1e4, 1e6 at
  epsilon = 1/11; parallel n = 20, 1e3 at r = 12, T matched to the local
  cost as `sweep --variable n` sets it): one warm-up call per probe, then
  PROPAGATE_CALLS rounds over the probes, each probe's fastest call in
  milliseconds.

The script prints every pair and two tables: each side's median per step
and per probe call, the median ratio B/A and the number of pairs in which B
was faster.  Perfbench's `--trace 1` layer times are raw wall seconds from
one run per side; this times the two integrators alone, over many pairs.
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
# the probes' labels, in the order the child reports them
PROBES = ("local 20", "local 1e3", "local 1e4", "local 1e6", "parallel 20", "parallel 1e3")

# `check` is run with its `propagate_full` swapped for a recorder that keeps
# the batch and stops the command, so the timed batch is whatever `check`
# builds in that tree, before or after any change to its defaults
_CHILD = """
import json, math, sys, time
from adiasearch import cli
from adiasearch.model import SearchInstance
from adiasearch.propagate import propagate, propagate_full
from adiasearch.schedules import equal_cost_gamma, local_schedule, parallel_schedule
steps, calls, propagate_calls = (int(arg) for arg in sys.argv[1:])
batch = []

class Recorded(Exception):
    pass

def record(schedules, steps):
    batch.extend(schedules)
    raise Recorded

cli.propagate_full = record
try:
    cli.main(["check"])
except Recorded:
    pass
propagate_full(batch, steps)
best = float("inf")
for _ in range(calls):
    start = time.perf_counter()
    propagate_full(batch, steps)
    best = min(best, time.perf_counter() - start)
per_step = best / steps * 1e6

epsilon, r = 1 / 11, 12.0
probes = [local_schedule(1.0, epsilon, SearchInstance(n)) for n in (20, 1000, 10**4, 10**6)]
probes += [parallel_schedule(1.0, math.sqrt(n) / equal_cost_gamma(epsilon, r),
                             SearchInstance(n), r=r) for n in (20, 1000)]
for schedule in probes:
    propagate(schedule)
fastest = [float("inf")] * len(probes)
for _ in range(propagate_calls):
    for k, schedule in enumerate(probes):
        start = time.perf_counter()
        propagate(schedule)
        fastest[k] = min(fastest[k], time.perf_counter() - start)
print(json.dumps([per_step, [1e3 * s for s in fastest]]))
"""


def _time(src: str) -> tuple[float, list[float]]:
    """(`propagate_full` us per step, `propagate` ms per call of each probe)."""
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    argv = [sys.executable, "-c", _CHILD, str(STEPS), str(CALLS), str(PROPAGATE_CALLS)]
    out = subprocess.run(argv, env=env, check=True, stdout=subprocess.PIPE, text=True).stdout
    per_step, per_call = json.loads(out)
    return per_step, per_call


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
        (full_a, call_a), (full_b, call_b) = runs_a[-1], runs_b[-1]
        print(f"pair {pair}: propagate_full A {full_a:.2f}  B {full_b:.2f} us/step;"
              f" propagate A {sum(call_a):.2f}  B {sum(call_b):.2f} ms per probe round",
              flush=True)
    print(f"A = {src_a}\nB = {src_b}")
    (full_a, call_a), (full_b, call_b) = zip(*runs_a), zip(*runs_b)
    print("propagate_full, per step, default check batch")
    print(_row("nine rows", full_a, full_b, "us"))
    print("propagate, per call, summary_sweep probes at the default steps")
    for k, label in enumerate(PROBES):
        print(_row(label, [c[k] for c in call_a], [c[k] for c in call_b], "ms"))
    print(_row("all six", [sum(c) for c in call_a], [sum(c) for c in call_b], "ms"))
    return 0


if __name__ == "__main__":
    sys.exit(main())
