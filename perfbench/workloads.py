"""Seeded CLI workloads of the benchmark and the checks on their outputs.

Each workload is an endless sequence of cycles; a cycle is a list of
`Command`s, each one `adiasearch` CLI invocation without `--output`.  The
measuring loop runs whole cycles until its time is up.  Inputs come only
from the workload seed (through `random.Random`), except the accuracy
probes, which are fixed so that the loss error they measure repeats
exactly from run to run.

Every command is validated after it ran; `validate` returns the number
of failed operations (an operation is a sweep point, a check entry, a
run command or a compare) and the local-strategy loss errors it found.
The closed-form local loss is recomputed here, never read back from the
program's output.
"""

from __future__ import annotations

import csv
import json
import math
import os
import random
from dataclasses import dataclass, field

WORKLOADS = ("summary_sweep", "oracle_check", "trajectory_runs")

EPSILON = 1 / 11
LOCAL_PROBES = (20, 1_000, 10_000, 1_000_000)
PARALLEL_PROBES = (20, 1_000)
SWEEP_R = 12.0
TRAJECTORY_PROBE = ("local", 20, EPSILON, 4_000)

# Output contracts of the CLI, written out here rather than imported.
RESULT_KEYS = frozenset(
    ("p_m_final", "p_loss", "cost", "t_eff", "boundary_residual", "analytic_loss"))
TRAJECTORY_HEADER = ("t,a,b,lambda_plus,lambda_minus,theta,theta_dot,"
                     "p_u,p_m,p_plus,p_minus,norm")
SWEEP_HEADER = ["x", "loss_numeric", "loss_analytic_exact",
                "loss_analytic_asymptotic", "cost", "error"]
COMPARE_KEYS = frozenset((
    "n", "epsilon", "r", "gamma", "t_parallel", "local", "parallel",
    "cost_ratio_numeric", "cost_ratio_reference", "loss_ratio"))
CHECK_N_LIST = (4, 20, 128)
CHECK_LOCAL_EPSILON = 0.2  # epsilon of the local schedule that `check` builds


def local_loss_exact(epsilon: float, n: float) -> float:
    """eps^2/(1+eps^2) * sin^2(sqrt(1+eps^2)/eps * arctan(sqrt(n-1)))."""
    kappa2 = 1.0 + epsilon * epsilon
    phase = math.sqrt(kappa2) / epsilon * math.atan(math.sqrt(n - 1.0))
    return epsilon * epsilon / kappa2 * math.sin(phase) ** 2


def trajectory_rows(steps: int) -> int:
    """Sampled rows of a run: every max(1, steps // 2000) steps plus the end."""
    stride = max(1, steps // 2000)
    return steps // stride + 1 + (1 if steps % stride else 0)


@dataclass
class Command:
    """One CLI invocation and what its outputs must satisfy."""

    argv: list[str]
    ops: int
    expect: dict = field(default_factory=dict)
    probe: bool = False


@dataclass
class Outcome:
    """Validation result of one command."""

    failed: int = 0
    problems: list[str] = field(default_factory=list)
    # (n, |p_loss - exact local loss|, is_probe)
    local_errors: list[tuple[float, float, bool]] = field(default_factory=list)
    check_max_delta: float | None = None


def _num(value: float) -> str:
    return repr(float(value))


def _log_grid(rng: random.Random, count: int, lo: float, hi: float,
              exclude=()) -> list[int]:
    values: set[int] = set()
    while len(values) < count:
        x = int(round(10 ** rng.uniform(math.log10(lo), math.log10(hi))))
        if x not in exclude:
            values.add(x)
    return sorted(values)


def summary_sweep_cycle(rng: random.Random) -> list[Command]:
    # Every sweep has 8 points, so that sweeps, 3/4 of the commands, take
    # about the same time and the command-time quantiles stay inside them.
    # The parallel sweep takes two more seeded sizes than the local one.
    probes = set(LOCAL_PROBES) | set(PARALLEL_PROBES)
    grid = _log_grid(rng, 4, 10, 1e6, exclude=probes)
    more = _log_grid(rng, 2, 10, 1e6, exclude=probes | set(grid))
    local_n = sorted(set(grid) | set(LOCAL_PROBES))
    parallel_n = sorted(set(grid) | set(more) | set(PARALLEL_PROBES))
    inv_gamma: set[float] = set()
    while len(inv_gamma) < 8:
        inv_gamma.add(round(rng.uniform(1.0, 3.5), 3))
    gamma_n = rng.randint(10, 1000)
    compare_n = rng.randint(10, 1000)
    eps = _num(EPSILON)

    def sweep(strategy, variable, values, flags, expect):
        argv = ["sweep", "--strategy", strategy, "--variable", variable,
                "--values", *[_num(v) for v in values], *flags, "--jobs", "1"]
        return Command(argv, len(values), dict(expect, values=list(values)))

    return [
        sweep("local", "n", local_n, ["--epsilon", eps],
              {"kind": "sweep", "strategy": "local", "epsilon": EPSILON,
               "probes": LOCAL_PROBES}),
        sweep("parallel", "n", parallel_n, ["--epsilon", eps, "--r", _num(SWEEP_R)],
              {"kind": "sweep", "strategy": "parallel"}),
        sweep("parallel", "inv_gamma", sorted(inv_gamma),
              ["--n", str(gamma_n), "--r", _num(SWEEP_R)],
              {"kind": "sweep", "strategy": "parallel"}),
        Command(["compare", "--epsilon", eps, "--r", _num(SWEEP_R), "--n", str(compare_n)],
                1, {"kind": "compare", "epsilon": EPSILON, "n": compare_n}),
    ]


def oracle_check_cycle(seed: int) -> list[Command]:
    return [Command(["check", "--seed", str(seed)], 3 * len(CHECK_N_LIST),
                    {"kind": "check"})]


def _run_command(strategy: str, n: int, marked: int, steps: int, params: dict,
                 probe: bool = False) -> Command:
    argv = ["run", "--strategy", strategy, "--n", str(n), "--marked", str(marked),
            "--steps", str(steps)]
    for key, value in params.items():
        argv += [f"--{key}", value if isinstance(value, str) else _num(value)]
    expect = {"kind": "run", "strategy": strategy, "n": n, "steps": steps,
              "epsilon": params.get("epsilon")}
    return Command(argv, 1, expect, probe=probe)


def trajectory_runs_cycle(rng: random.Random) -> list[Command]:
    strategy, n, eps, steps = TRAJECTORY_PROBE
    cycle = [_run_command(strategy, n, 0, steps, {"epsilon": eps}, probe=True)]
    for strategy in ("linear", "local", "parallel") * 2:
        n = rng.randint(4, 64)
        marked = rng.randrange(n)
        # every choice is sampled to 2001 rows, so row count does not vary by seed
        steps = rng.choice((4_000, 6_000, 8_000))
        if strategy == "linear":
            params = {"T": round(rng.uniform(10.0, 600.0), 3)}
        elif strategy == "local":
            params = {"epsilon": round(rng.uniform(0.05, 0.5), 4)}
        else:
            params = {"T": round(rng.uniform(0.5, 8.0), 3),
                      "r": round(rng.uniform(4.0, 12.0), 2),
                      "shape": rng.choice(("tanh", "erf"))}
        cycle.append(_run_command(strategy, n, marked, steps, params))
    return cycle


def cycles(workload: str, seed: int):
    """Endless seeded cycles of commands for `workload`."""
    rng = random.Random(seed)
    while True:
        if workload == "summary_sweep":
            yield summary_sweep_cycle(rng)
        elif workload == "oracle_check":
            yield oracle_check_cycle(seed)
        elif workload == "trajectory_runs":
            yield trajectory_runs_cycle(rng)
        else:
            raise ValueError(f"unknown workload {workload!r}")


# ----------------------------------------------------------------- checks


def _finite(value) -> bool:
    return isinstance(value, (int, float)) and math.isfinite(value)


def _probability(value) -> bool:
    return _finite(value) and 0.0 <= value <= 1.0


def _validate_run(cmd: Command, outdir: str, out: Outcome) -> None:
    with open(os.path.join(outdir, "result.json"), encoding="ascii") as fh:
        result = json.load(fh)
    if set(result) != RESULT_KEYS:
        out.problems.append(f"result.json keys {sorted(result)}")
        out.failed = 1
        return
    if not (_probability(result["p_loss"]) and _probability(result["p_m_final"])
            and _finite(result["cost"]) and result["cost"] > 0):
        out.problems.append(f"result.json values out of range: {result}")
        out.failed = 1
        return
    with open(os.path.join(outdir, "trajectory.csv"), encoding="ascii") as fh:
        header = fh.readline().rstrip("\n")
        rows = fh.read().splitlines()
    expected = trajectory_rows(cmd.expect["steps"])
    if header != TRAJECTORY_HEADER or len(rows) != expected:
        out.problems.append(
            f"trajectory.csv header ok={header == TRAJECTORY_HEADER}, "
            f"rows {len(rows)} != {expected}")
        out.failed = 1
        return
    last = [float(v) for v in rows[-1].split(",")]
    if len(last) != 12 or abs(last[8] - result["p_m_final"]) > 1e-11:
        out.problems.append("trajectory.csv last row disagrees with result.json")
        out.failed = 1
        return
    if cmd.expect["strategy"] == "local":
        eps = float(cmd.expect["epsilon"])
        n = cmd.expect["n"]
        out.local_errors.append(
            (n, abs(result["p_loss"] - local_loss_exact(eps, n)), cmd.probe))


def _validate_sweep(cmd: Command, outdir: str, out: Outcome) -> None:
    values = cmd.expect["values"]
    with open(os.path.join(outdir, "sweep.csv"), encoding="ascii", newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows or rows[0] != SWEEP_HEADER:
        out.problems.append(f"sweep.csv header {rows[:1]}")
        out.failed = len(values)
        return
    by_x = {row[0]: row for row in rows[1:] if len(row) == len(SWEEP_HEADER)}
    probes = set(cmd.expect.get("probes", ()))
    for x in values:
        row = by_x.get(f"{float(x):.12g}")
        if row is None:
            out.problems.append(f"sweep.csv has no row for x={x}")
            out.failed += 1
            continue
        if row[5]:
            out.problems.append(f"sweep point x={x}: {row[5]}")
            out.failed += 1
            continue
        loss, point_cost = float(row[1]), float(row[4])
        if not (_probability(loss) and _finite(point_cost) and point_cost > 0):
            out.problems.append(f"sweep point x={x} out of range: {row}")
            out.failed += 1
            continue
        if cmd.expect["strategy"] == "local":
            exact = local_loss_exact(cmd.expect["epsilon"], x)
            out.local_errors.append((x, abs(loss - exact), x in probes))
    if len(rows) - 1 != len(values):
        out.problems.append(f"sweep.csv has {len(rows) - 1} rows for {len(values)} values")
        out.failed = max(out.failed, abs(len(rows) - 1 - len(values)))


def _validate_compare(cmd: Command, outdir: str, out: Outcome) -> None:
    with open(os.path.join(outdir, "compare.json"), encoding="ascii") as fh:
        report = json.load(fh)
    numbers = [report.get(k) for k in ("gamma", "t_parallel", "cost_ratio_numeric",
                                       "cost_ratio_reference", "loss_ratio")]
    local = report.get("local", {})
    parallel = report.get("parallel", {})
    if (set(report) != COMPARE_KEYS or not all(_finite(v) for v in numbers)
            or not _probability(local.get("p_loss"))
            or not _probability(parallel.get("p_loss"))):
        out.problems.append(f"compare.json malformed: {sorted(report)}")
        out.failed = 1
        return
    n = cmd.expect["n"]
    out.local_errors.append(
        (n, abs(local["p_loss"] - local_loss_exact(cmd.expect["epsilon"], n)), False))


def _validate_check(cmd: Command, outdir: str, out: Outcome) -> None:
    with open(os.path.join(outdir, "check.json"), encoding="ascii") as fh:
        report = json.load(fh)
    entries = report.get("entries", [])
    if report.get("pass") is not True or len(entries) != cmd.ops:
        out.problems.append(f"check.json pass={report.get('pass')}, "
                            f"{len(entries)} entries, max_delta={report.get('max_delta')}")
        out.failed = cmd.ops
        return
    deltas = [abs(e["p_m_reduced"] - e["p_m_full"]) for e in entries]
    out.check_max_delta = max(deltas)
    for entry in entries:
        if entry["strategy"] == "local":
            # a = 0 at the end of the local window, so p_loss = 1 - p_m
            exact = local_loss_exact(CHECK_LOCAL_EPSILON, entry["n"])
            out.local_errors.append(
                (entry["n"], abs(1.0 - entry["p_m_reduced"] - exact), True))


_VALIDATORS = {
    "run": _validate_run,
    "sweep": _validate_sweep,
    "compare": _validate_compare,
    "check": _validate_check,
}


def validate(cmd: Command, outdir: str, exit_code: int | None) -> Outcome:
    """Check the files one command wrote; any defect fails its operations."""
    out = Outcome()
    if exit_code != 0:
        out.problems.append(f"exit code {exit_code}")
        out.failed = cmd.ops
        return out
    try:
        _VALIDATORS[cmd.expect["kind"]](cmd, outdir, out)
    except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
        out.problems.append(f"unreadable output: {type(exc).__name__}: {exc}")
        out.failed = cmd.ops
        out.local_errors.clear()
    return out
