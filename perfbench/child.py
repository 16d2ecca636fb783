"""One benchmark process: set up the CLI in a fresh interpreter, then run a workload.

Started by `run.py`, never by hand:

    python3 perfbench/child.py setup   WORKLOAD SEED SECONDS TRACE RESULT WORKDIR
    python3 perfbench/child.py measure WORKLOAD SEED SECONDS TRACE RESULT WORKDIR

Both modes time the set-up first: `import adiasearch.cli` plus one warm-up
command.  Nothing of the package or of NumPy is imported before that clock
starts.  `setup` stops there; `measure` then drives `adiasearch.cli.main`
in-process, one command at a time, until whole cycles of the workload have
filled SECONDS.  With TRACE = 1 it runs each command twice, once with
the span tracer installed, and reports the difference in wall time as
the tracing overhead.  The result is written as JSON to
RESULT; command outputs go to temporary directories under WORKDIR.
"""

from __future__ import annotations

import contextlib
import io
import os
import shutil
import sys
import tempfile
import time
import traceback

# Not imported from `workloads`: nothing but the package may load before set-up.
WARMUP_ARGV = ["run", "--strategy", "local", "--n", "4", "--epsilon", "0.5",
               "--steps", "1000"]


def _call(cli, argv, outdir):
    """Run one CLI command with its output captured; return the exit code."""
    sink = io.StringIO()
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            return cli.main(list(argv) + ["--output", outdir])
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2


def set_up(workdir: str):
    """Time `import adiasearch.cli` plus one warm-up command."""
    start = time.perf_counter()
    import adiasearch.cli as cli

    outdir = tempfile.mkdtemp(dir=workdir)
    code = _call(cli, WARMUP_ARGV, outdir)
    elapsed = time.perf_counter() - start
    shutil.rmtree(outdir)
    if code != 0:
        raise RuntimeError(f"warm-up command failed with exit code {code}")
    return cli, elapsed


def _deadline_commands(workload: str, seed: int, seconds: float):
    """Commands of whole cycles, until `seconds` have passed since the first."""
    from workloads import cycles

    start = time.perf_counter()
    for cycle in cycles(workload, seed):
        yield from cycle
        if time.perf_counter() - start >= seconds:
            return


def _run_one(cli, cmd, workdir: str, probe=None) -> dict:
    """Run one command, time it, check its outputs and delete them.

    With a `SpeedProbe`, the time its samples took is taken out of the
    command's time.
    """
    from workloads import validate

    outdir = tempfile.mkdtemp(dir=workdir)
    error = None
    spent = probe.spent if probe else 0.0
    start = time.perf_counter()
    try:
        code = _call(cli, cmd.argv, outdir)
    except Exception:  # a crashing command is a failed operation, not a crash
        code = None
        error = traceback.format_exc(limit=3)
    end = time.perf_counter()
    record = {"cmd": cmd, "s": end - start - ((probe.spent - spent) if probe else 0.0),
              "span": (start, end)}
    outcome = validate(cmd, outdir, code)
    shutil.rmtree(outdir)
    if error is not None:
        outcome.problems.append(error)
    record["outcome"] = outcome
    return record


def reference_loop() -> float:
    """Time a fixed ~2 ms mix of the kinds of work the CLI does: a Python
    complex-arithmetic loop, NumPy calls on short vectors and on a long
    array, and float formatting."""
    import numpy

    start = time.perf_counter()
    c_u, c_m = 0.6 + 0j, 0.8 + 0j
    a, b = complex(0.99, 0.01), complex(0.01, -0.02)
    for _ in range(1_500):
        c_u, c_m = a * c_u + b * c_m, b * c_u + a * c_m
    w = numpy.full(128, 128 ** -0.5)
    psi = w.astype(complex)
    for _ in range(60):
        psi = psi + 1e-3 * ((-1j * numpy.dot(w, psi)) * w)
    x = numpy.linspace(0.0, 1.0, 20_000)
    numpy.hypot(numpy.sin(x), numpy.cos(x)).sum()
    ",".join(f"{v:.12g}" for v in x[:600].tolist())
    return time.perf_counter() - start


class SpeedProbe:
    """Samples how fast the machine runs while the workload runs.

    The host's speed drifts by up to a factor of two over tens of seconds,
    which no amount of repetition averages out.  An interval timer
    interrupts the process every PERIOD_S seconds and times
    `reference_loop`, so each command can be expressed in reference
    seconds (see `run.py`).  The time spent in samples is kept in
    `spent` and is taken out of the command it interrupted.
    """

    PERIOD_S = 0.2

    def __init__(self) -> None:
        self.samples: list[tuple[float, float]] = []  # (start, reference time)
        self.spent = 0.0
        self._busy = False
        self._previous = None

    def _sample(self, *_args) -> None:
        if self._busy:
            return
        self._busy = True
        start = time.perf_counter()
        ref = reference_loop()
        self.samples.append((start, ref))
        self.spent += time.perf_counter() - start
        self._busy = False

    def __enter__(self):
        import signal

        self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.PERIOD_S, self.PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        import signal

        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)


def execute_paired(cli, commands, workdir: str, tracer, targets):
    """Run each command untraced and traced, alternating which goes first.

    Pairing puts both copies under the same machine conditions, so the
    difference of their summed times is the tracing overhead.
    """
    plain, traced = [], []
    for index, cmd in enumerate(commands):
        tracer.command = index
        for with_trace in ((False, True) if index % 2 == 0 else (True, False)):
            if with_trace:
                with tracer.installed(targets):
                    traced.append(_run_one(cli, cmd, workdir))
            else:
                plain.append(_run_one(cli, cmd, workdir))
    return plain, traced


def _summary(records: list[dict]) -> dict:
    errors = [e for r in records for e in r["outcome"].local_errors]
    deltas = [r["outcome"].check_max_delta for r in records
              if r["outcome"].check_max_delta is not None]
    problems = [p for r in records for p in r["outcome"].problems]
    return {
        "cmd_s": [r["s"] for r in records],
        "cmd_span": [r["span"] for r in records],
        "commands": [r["cmd"].argv[0] for r in records],
        "attempted": sum(r["cmd"].ops for r in records),
        "failed": sum(r["outcome"].failed for r in records),
        "problems": problems[:20],
        "loss_err_probe": [(n, err) for n, err, probe in errors if probe],
        "loss_err_all_max": max((err for _, err, _ in errors), default=None),
        "check_max_delta": max(deltas, default=None),
    }


def _command_defaults(cli) -> dict:
    """Default step counts of each subcommand, as its parser reports them."""
    parser = cli.build_parser()
    minimal = {
        "run": ["run", "--strategy", "local", "--n", "4"],
        "sweep": ["sweep", "--strategy", "local", "--variable", "n"],
        "compare": ["compare", "--epsilon", "0.1", "--r", "8", "--n", "4"],
        "check": ["check"],
    }
    defaults = {name: {"steps": parser.parse_args(argv).steps}
                for name, argv in minimal.items()}
    defaults["check"]["full_steps"] = parser.parse_args(["check"]).full_steps
    return defaults


def measure(cli, workload: str, seed: int, seconds: float, trace: bool,
            workdir: str, spans_path: str) -> dict:
    import json
    import platform
    import resource

    import numpy
    import scipy

    commands = _deadline_commands(workload, seed, seconds)
    if not trace:
        with SpeedProbe() as probe:
            records = [_run_one(cli, cmd, workdir, probe) for cmd in commands]
        result = {"run": _summary(records), "reference_samples": probe.samples}
    else:
        import spans

        tracer = spans.Tracer()
        plain, traced = execute_paired(cli, commands, workdir, tracer,
                                       spans.package_targets())
        result = {"run": _summary(plain), "traced": _summary(traced)}
        result["layers"] = spans.layer_totals(tracer.spans)
        result["trace_overhead_s"] = sum(result["traced"]["cmd_s"]) - sum(
            result["run"]["cmd_s"])
        with open(spans_path, "w", encoding="ascii") as fh:
            json.dump({"fields": ["layer", "start", "end", "parent", "command", "counts"],
                       "spans": tracer.spans}, fh)
    result["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    result["versions"] = {"python": platform.python_version(),
                          "numpy": numpy.__version__, "scipy": scipy.__version__}
    result["defaults"] = _command_defaults(cli)
    return result


def main(argv: list[str]) -> int:
    mode, workload, seed, seconds, trace, result_path, workdir = argv
    cli, setup_s = set_up(workdir)
    result = {"setup_s": setup_s}
    if mode == "measure":
        spans_path = os.path.splitext(result_path)[0] + ".spans.json"
        result.update(measure(cli, workload, int(seed), float(seconds), trace == "1",
                              workdir, spans_path))
    import json

    with open(result_path, "w", encoding="ascii") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
