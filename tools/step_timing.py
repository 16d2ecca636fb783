"""Time `propagate_full` per step on two source trees, in alternating processes.

Usage: python tools/step_timing.py SRC_A SRC_B

SRC_A and SRC_B are `src` directories (e.g. the parent's and the change's).
Each of PAIRS pairs starts one fresh interpreter per tree, A first in even
pairs and B first in odd ones, so a drift of the host's speed hits both sides
alike.  A process takes the batch that the default `check` command hands to
`propagate_full` (n 4, 20, 128 at seed 0: nine rows), makes one warm-up
call, then times CALLS calls of STEPS steps and reports the fastest, in
microseconds per step.  The script prints every pair, each side's median,
the median ratio B/A and the number of pairs in which B was faster.

Perfbench's `--trace 1` layer times are raw wall seconds from one run per
side; this times the oracle's step loop alone, over many pairs.
"""

import os
import statistics
import subprocess
import sys

PAIRS = 20
STEPS = 5000
CALLS = 3

# `check` is run with its `propagate_full` swapped for a recorder that keeps
# the batch and stops the command, so the timed batch is whatever `check`
# builds in that tree, before or after any change to its defaults
_CHILD = """
import sys, time
from adiasearch import cli
from adiasearch.propagate import propagate_full
steps, calls = int(sys.argv[1]), int(sys.argv[2])
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
print(best / steps * 1e6)
"""


def _time(src: str) -> float:
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    out = subprocess.run([sys.executable, "-c", _CHILD, str(STEPS), str(CALLS)],
                         env=env, check=True, stdout=subprocess.PIPE, text=True).stdout
    return float(out)


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    src_a, src_b = args

    times_a, times_b = [], []
    for pair in range(PAIRS):
        sides = [(src_a, times_a), (src_b, times_b)]
        for src, times in (sides if pair % 2 == 0 else sides[::-1]):
            times.append(_time(src))
        print(f"pair {pair}: A {times_a[-1]:.2f}  B {times_b[-1]:.2f} us/step", flush=True)
    wins = sum(b < a for a, b in zip(times_a, times_b))
    ratio = statistics.median(b / a for a, b in zip(times_a, times_b))
    print(f"A median {statistics.median(times_a):.2f} us/step  ({src_a})")
    print(f"B median {statistics.median(times_b):.2f} us/step  ({src_b})")
    print(f"median ratio B/A {ratio:.3f}; B faster in {wins}/{PAIRS} pairs")
    return 0


if __name__ == "__main__":
    sys.exit(main())
