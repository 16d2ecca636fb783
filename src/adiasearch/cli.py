"""Command-line front end.

Subcommands:

* ``run``     single propagation; writes ``trajectory.csv`` and ``result.json``
* ``sweep``   one run per value of a swept variable; writes ``sweep.csv``
* ``compare`` local strategy vs the equal-cost parallel schedule; ``compare.json``
* ``check``   reduced vs full-space propagation agreement; ``check.json``

Each subcommand handler takes the parsed arguments and builds every run
it makes through `RunConfig.build`, so the step bounds, the size floor
and each strategy's inputs and builder (`_INPUTS`) live in one place.

Outputs are plain CSV/JSON so plotting can happen anywhere; identical
configs (including seeds) produce byte-identical files.  Exit codes:
0 success, 2 configuration error, 3 failed check.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import json
import math
import os
import random
import sys
from dataclasses import dataclass

import numpy as np

from . import analytics, schedules
from .errors import AdiabaticSearchError, InvalidParameter, OracleSizeExceeded
from .model import SearchInstance, require_choice, require_integer, require_positive
from .propagate import (
    DEFAULT_FULL_STEPS,
    DEFAULT_STEPS,
    ORACLE_CAP,
    RunResult,
    Trajectory,
    _require_steps,
    propagate,
    propagate_full,
    write_trajectory_csv,
)
from .schedules import Schedule, Shape, Strategy

_STRATEGIES = tuple(s.value for s in Strategy)
_SHAPES = tuple(s.value for s in Shape)
# per strategy: its schedule builder, the optional inputs it takes, and the
# one of them it requires, which the builder takes after the coupling scale
_INPUTS = {
    "linear": (schedules.linear_schedule, ("alpha", "T"), "T"),
    "local": (schedules.local_schedule, ("alpha", "epsilon"), "epsilon"),
    "parallel": (schedules.parallel_schedule, ("beta", "T", "r", "shape"), "T"),
}
# per swept variable, in the order usage lists them: the flag its values set,
# and the one strategy it needs (None: any)
_SWEPT = {"inv_gamma": ("T", "parallel"), "n": ("n", None), "epsilon": ("epsilon", "local")}
# largest |delta p_m| between the reduced and the full-space run that passes
CHECK_TOLERANCE = 1e-7


@dataclass
class RunConfig:
    """One propagation request; also the per-point template for sweeps.

    Inputs that the strategy does not take (`_INPUTS`) must stay None; the
    build step rejects contradictions instead of silently ignoring them.
    An unset coupling scale takes its default where it is read, in `scale`;
    an unset r or shape takes `parallel_schedule`'s default.
    """

    strategy: str
    n: int = 0
    marked: int = 0
    alpha: float | None = None
    beta: float | None = None
    epsilon: float | None = None
    T: float | None = None
    r: float | None = None
    shape: str | None = None
    steps: int = DEFAULT_STEPS

    def __post_init__(self) -> None:
        # the plain value, not the member, which an f-string prints as Strategy.LOCAL
        self.strategy = require_choice("strategy", Strategy, self.strategy).value
        for field in ("n", "marked", "steps"):
            setattr(self, field, require_integer(field, getattr(self, field)))
        if self.shape is not None:
            self.shape = require_choice("shape", Shape, self.shape).value

    @property
    def scale(self) -> float:
        """The coupling scale: beta for parallel, alpha otherwise; 1 if unset.

        Raises InvalidParameter unless it is positive and finite, before a
        sweep divides by it.
        """
        name = "beta" if self.strategy == Strategy.PARALLEL else "alpha"
        value = getattr(self, name)
        return require_positive(name, 1.0 if value is None else value)

    @property
    def window_r(self) -> float:
        """The parallel window length in units of T; `schedules.DEFAULT_R` if unset."""
        return schedules.DEFAULT_R if self.r is None else self.r

    def _refuse_inputs_not_taken(self) -> None:
        """Raise InvalidParameter naming a set input the strategy does not take."""
        for field in ("beta", "alpha", "r", "shape", "epsilon", "T"):
            if field not in _INPUTS[self.strategy][1] and getattr(self, field) is not None:
                raise InvalidParameter(
                    f"--{field} does not apply to the {self.strategy} strategy")

    def build(self) -> Schedule:
        """Validate the config against its strategy and build its schedule."""
        if self.n < 2:
            raise InvalidParameter(f"--n must be at least 2, got {self.n}")
        _require_steps(self.steps, "--steps")
        inst = SearchInstance(self.n, self.marked)
        self._refuse_inputs_not_taken()
        builder, _, required = _INPUTS[self.strategy]
        if getattr(self, required) is None:
            raise InvalidParameter(
                f"--{required} is required for the {self.strategy} strategy")
        # r and shape only where set: their defaults live in parallel_schedule
        options = {f: getattr(self, f) for f in ("r", "shape") if getattr(self, f) is not None}
        return builder(self.scale, getattr(self, required), inst, **options)


def _propagate(config: RunConfig) -> tuple[Schedule, Trajectory, RunResult]:
    """Build the config's schedule and propagate it at the config's step count."""
    schedule = config.build()
    trajectory, result = propagate(schedule, steps=config.steps)
    return schedule, trajectory, result


def _summary(schedule: Schedule, result: RunResult) -> dict:
    """The `result.json` keys: the run's populations beside its schedule's cost,
    boundary residual and predicted loss (the exact one where there is one)."""
    report = schedules.cost(schedule)
    a, b = schedule.levels(schedule.window)
    prediction = analytics.loss_prediction(schedule)
    analytic = None if prediction is None else (
        prediction.exact if prediction.exact is not None else prediction.asymptotic)
    return {
        "p_m_final": result.p_m_final,
        "p_loss": result.p_loss,
        "cost": report.cost,
        "t_eff": report.t_eff,
        "boundary_residual": (abs(float(b[0])) + abs(float(a[1]))) / schedule.alpha_or_beta,
        "analytic_loss": analytic,
    }


def _write_json(path: str, payload: dict) -> str:
    text = json.dumps(payload, indent=2, sort_keys=True)
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(text + "\n")
    return text


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    # every RunConfig field is a flag of the same name; --n may be absent in a sweep
    values = {f.name: getattr(args, f.name) for f in dataclasses.fields(RunConfig)}
    return RunConfig(**{**values, "n": args.n or 0})


def cmd_run(args: argparse.Namespace) -> int:
    schedule, trajectory, result = _propagate(_config_from_args(args))
    os.makedirs(args.output, exist_ok=True)
    write_trajectory_csv(trajectory, os.path.join(args.output, "trajectory.csv"))
    print(_write_json(os.path.join(args.output, "result.json"), _summary(schedule, result)))
    return 0


def _sweep_point_config(variable: str, x: float, template: RunConfig) -> RunConfig:
    """Instantiate the template at one sweep value; `cmd_sweep` checked the strategy.

    T is derived only from a size of at least 2; below that the point is
    left for `build` to refuse in its own row.
    """
    if variable == "epsilon":
        return dataclasses.replace(template, epsilon=float(x))
    if variable == "inv_gamma":
        if template.n < 2:
            return template
        return dataclasses.replace(
            template, T=float(x) * math.sqrt(template.n) / template.scale)
    n_point = int(round(x))
    if abs(n_point - x) > 1e-9:
        raise InvalidParameter(f"an n sweep needs integer values, got {x!r}")
    if template.strategy == Strategy.PARALLEL and template.T is None:
        # gamma = eps*r/2 keeps the parallel cost tied to the local one
        if template.epsilon is None:
            raise InvalidParameter(
                "an n sweep over the parallel strategy needs --epsilon "
                "(sets T via gamma = epsilon*r/2) or an explicit --T")
        t_par = None
        if n_point >= 2:
            gamma = schedules.equal_cost_gamma(template.epsilon, template.window_r)
            t_par = math.sqrt(n_point) / (template.scale * gamma)
        return dataclasses.replace(template, n=n_point, T=t_par, epsilon=None)
    return dataclasses.replace(template, n=n_point)


def _sweep_row(task: tuple[float, RunConfig]) -> list[str]:
    """Worker for one sweep point: its CSV cells; never raises, errors land in the row."""
    x, config = task
    try:
        schedule, _, result = _propagate(config)
        prediction = analytics.loss_prediction(schedule)
        cost = schedules.cost(schedule).cost
    except AdiabaticSearchError as exc:
        return [f"{x:.12g}", "", "", "", "", f"{type(exc).__name__}: {exc}"]
    exact, asymptotic = ((None, None) if prediction is None
                         else (prediction.exact, prediction.asymptotic))
    values = (x, result.p_loss, exact, asymptotic, cost)
    return ["" if v is None else f"{v:.12g}" for v in values] + [""]


def _default_n_values() -> list[float]:
    return [float(v) for v in np.round(np.geomspace(10, 1000, 40)).astype(int)]


def cmd_sweep(args: argparse.Namespace) -> int:
    if args.n is None and args.variable != "n":
        raise InvalidParameter("--n is required unless sweeping over n")
    flag, strategy = _SWEPT[args.variable]
    if getattr(args, flag) is not None:
        raise InvalidParameter(
            f"--{flag} does not apply to an {args.variable} sweep; the values set it")
    template = _config_from_args(args)
    values = args.values
    if args.variable == "n" and not values:
        values = _default_n_values()
    if not values:
        raise InvalidParameter("--values is required unless sweeping over n")
    bad = [x for x in values if not math.isfinite(x)]
    if bad:
        raise InvalidParameter(f"--values must be finite, got {bad[0]!r}")
    if any(b <= a for a, b in zip(values, values[1:])):
        raise InvalidParameter("--values must be strictly increasing")
    if args.jobs < 1:
        raise InvalidParameter(f"--jobs must be at least 1, got {args.jobs}")
    if strategy not in (None, template.strategy):
        raise InvalidParameter(
            f"an {args.variable} sweep applies to the {strategy} strategy only")

    tasks = [(x, _sweep_point_config(args.variable, x, template)) for x in values]
    for _, config in tasks:  # build's own refusal, before any point runs
        config._refuse_inputs_not_taken()
    # increasing values give non-decreasing sizes and printed x: a repeat is adjacent
    for (x, config), (y, next_config) in zip(tasks, tasks[1:]):
        if args.variable == "n" and config.n == next_config.n:
            raise InvalidParameter(f"--values {x!r} and {y!r} both round to n = {config.n}")
        if f"{x:.12g}" == f"{y:.12g}":
            raise InvalidParameter(f"--values {x!r} and {y!r} both print as x = {x:.12g}")
    if args.jobs == 1:
        rows = [_sweep_row(task) for task in tasks]
    else:
        from concurrent.futures import ProcessPoolExecutor  # ~13 ms, only --jobs > 1

        # fork starts every worker at the first submit: no more than there are points
        with ProcessPoolExecutor(max_workers=min(args.jobs, len(tasks))) as pool:
            rows = list(pool.map(_sweep_row, tasks, chunksize=1))

    os.makedirs(args.output, exist_ok=True)
    path = os.path.join(args.output, "sweep.csv")
    with open(path, "w", encoding="ascii", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(("x", "loss_numeric", "loss_analytic_exact",
                         "loss_analytic_asymptotic", "cost", "error"))
        writer.writerows(rows)
    print(f"wrote {path} ({len(rows)} rows)")
    failed = sum(1 for row in rows if row[-1])
    if failed:
        print(f"{failed} point(s) failed; see the error column", file=sys.stderr)
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    epsilon, r, n = args.epsilon, args.r, args.n
    t_par = schedules.equal_cost_parallel_time(epsilon, r, n)
    # parallel first: its build refuses a t_par that overflowed before anything runs
    schedule, _, result = _propagate(
        RunConfig("parallel", n=n, T=t_par, r=r, steps=args.steps))
    parallel = _summary(schedule, result)
    schedule, _, result = _propagate(
        RunConfig("local", n=n, epsilon=epsilon, steps=args.steps))
    local = _summary(schedule, result)
    reference_cost = schedules.parallel_peak_reference(1.0, n) * parallel["t_eff"]

    report = {
        "n": n,
        "epsilon": epsilon,
        "r": r,
        "gamma": schedules.equal_cost_gamma(epsilon, r),
        "t_parallel": t_par,
        "local": {
            "t_total": local["t_eff"],  # the local window is [0, t_total]
            "cost": local["cost"],
            "p_loss": local["p_loss"],
            "analytic_loss": local["analytic_loss"],
        },
        "parallel": {
            "cost_numeric": parallel["cost"],
            "cost_reference": reference_cost,
            "p_loss": parallel["p_loss"],
            "analytic_loss": parallel["analytic_loss"],
            "boundary_residual": parallel["boundary_residual"],
        },
        "cost_ratio_numeric": parallel["cost"] / local["cost"],
        "cost_ratio_reference": reference_cost / local["cost"],
        "loss_ratio": parallel["p_loss"] / local["p_loss"],
    }
    os.makedirs(args.output, exist_ok=True)
    print(_write_json(os.path.join(args.output, "compare.json"), report))
    return 0


def cmd_check(args: argparse.Namespace) -> int:
    if min(args.n_list) < 2:
        raise InvalidParameter(f"--n-list values must be at least 2, got {min(args.n_list)}")
    if args.seed < 0:
        raise InvalidParameter(f"--seed must be non-negative, got {args.seed}")
    tolerance = require_positive("--tolerance", args.tolerance)
    _require_steps(args.full_steps, "--full-steps")
    for n in args.n_list:  # every size is refused before the first draw
        SearchInstance(n)  # a size above MAX_N exits 2 by its own message
        if n > ORACLE_CAP:
            raise OracleSizeExceeded(f"n={n} exceeds the full-propagation cap {ORACLE_CAP}")
    # the reduced run never reads the marked index, so any seeded spread serves
    rng = random.Random(args.seed)
    batch = []
    for n in args.n_list:
        marked = rng.randrange(n)
        # short windows keep the full-space RK4 cheap; equivalence must hold anyway
        batch += [config.build() for config in (
            RunConfig("linear", n=n, marked=marked, T=50.0, steps=args.steps),
            RunConfig("local", n=n, marked=marked, epsilon=0.2, steps=args.steps),
            RunConfig("parallel", n=n, marked=marked, T=0.6 * math.sqrt(n), r=8.0,
                      steps=args.steps),
        )]
    # one oracle call for every entry
    fulls = propagate_full(batch, steps=args.full_steps)
    entries = []
    for schedule, full in zip(batch, fulls):
        _, reduced = propagate(schedule, steps=args.steps)
        entries.append({
            "n": schedule.n,
            "marked": schedule.marked,
            "strategy": schedule.kind.value,
            "p_m_reduced": reduced.p_m_final,
            "p_m_full": full.p_m_final,
            "delta": abs(reduced.p_m_final - full.p_m_final),
        })
    max_delta = max(entry["delta"] for entry in entries)
    report = {
        "seed": args.seed,
        "steps": args.steps,
        "full_steps": args.full_steps,
        "tolerance": tolerance,
        "entries": entries,
        "max_delta": max_delta,
        "pass": bool(max_delta < tolerance),
    }
    os.makedirs(args.output, exist_ok=True)
    print(_write_json(os.path.join(args.output, "check.json"), report))
    return 0 if report["pass"] else 3


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="adiasearch",
        description="Adiabatic-search schedule simulator (linear, local, parallel).")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_config_flags(p: argparse.ArgumentParser, n_required: bool) -> None:
        p.add_argument("--strategy", required=True, choices=_STRATEGIES)
        p.add_argument("--n", type=int, required=n_required,
                       help="database size (>= 2)")
        p.add_argument("--marked", type=int, default=0, help="marked index")
        p.add_argument("--alpha", type=float, default=None,
                       help="coupling scale for linear/local (default 1)")
        p.add_argument("--beta", type=float, default=None,
                       help="coupling scale for parallel (default 1)")
        p.add_argument("--epsilon", type=float, default=None,
                       help="adiabaticity parameter")
        p.add_argument("--T", type=float, default=None,
                       help="total time (linear) or characteristic time (parallel)")
        p.add_argument("--r", type=float, default=None,
                       help="parallel window half-widths in units of T (default 8)")
        p.add_argument("--shape", choices=_SHAPES, default=None,
                       help="parallel switching profile (default tanh)")
        p.add_argument("--steps", type=int, default=DEFAULT_STEPS)
        p.add_argument("--output", default=".", help="output directory")

    run_p = sub.add_parser("run", help="single propagation")
    add_config_flags(run_p, n_required=True)
    run_p.set_defaults(handler=cmd_run)

    sweep_p = sub.add_parser("sweep", help="one run per swept value")
    add_config_flags(sweep_p, n_required=False)
    sweep_p.add_argument("--variable", required=True, choices=tuple(_SWEPT))
    sweep_p.add_argument("--values", type=float, nargs="+", default=None,
                         help="strictly increasing sweep values "
                              "(n sweeps default to 40 log-spaced in [10, 1000])")
    sweep_p.add_argument("--jobs", type=int, default=1,
                         help="concurrent worker processes")
    sweep_p.set_defaults(handler=cmd_sweep)

    compare_p = sub.add_parser(
        "compare", help="local vs equal-cost parallel at the same (epsilon, r, n)")
    compare_p.add_argument("--epsilon", type=float, required=True)
    compare_p.add_argument("--r", type=float, required=True)
    compare_p.add_argument("--n", type=int, required=True)
    compare_p.add_argument("--steps", type=int, default=DEFAULT_STEPS)
    compare_p.add_argument("--output", default=".")
    compare_p.set_defaults(handler=cmd_compare)

    check_p = sub.add_parser(
        "check", help="reduced vs full-space propagation agreement")
    check_p.add_argument("--n-list", type=int, nargs="+", default=[4, 20, 128])
    check_p.add_argument("--seed", type=int, default=0)
    check_p.add_argument("--steps", type=int, default=DEFAULT_STEPS,
                         help="reduced-propagation steps")
    check_p.add_argument("--full-steps", type=int, default=DEFAULT_FULL_STEPS,
                         help="full-space RK4 steps (the default --n-list needs ~2000)")
    check_p.add_argument("--tolerance", type=float, default=CHECK_TOLERANCE)
    check_p.add_argument("--output", default=".")
    check_p.set_defaults(handler=cmd_check)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # built once per process (~1 ms), not once per in-process command
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.handler(args)
    except AdiabaticSearchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
