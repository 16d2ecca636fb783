"""Benchmark of the adiasearch CLI: end-to-end metrics or a per-layer traced run.

    python3 perfbench/run.py --workload summary_sweep --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25 --trace 0

Run from the repository root.  The package is imported from `src/` the
way the test suite does.  Each run starts fresh interpreters (see
`child.py`): several that only set up, for the median `setup_s`, and one
that sets up and then drives `adiasearch.cli.main` in-process with
`--jobs 1` for whole workload cycles until `--seconds` have passed.
Every command's output is checked; a defect fails its operations.

`--trace 0` prints every end-to-end metric; `--trace 1` reruns the same
commands with spans around each layer's public entry points and prints
the per-layer metrics.  Human-readable lines come first, then the last
line is one JSON object {"correct", "attempted", "failed", "metrics"}.
The full record, with provenance, goes to `.perfbench_work/`.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

from spans import LAYER_COUNTS, LAYERS
from workloads import WORKLOADS

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKDIR = os.path.join(ROOT, ".perfbench_work")
CHILD = os.path.join(os.path.dirname(os.path.abspath(__file__)), "child.py")
SETUP_SAMPLES = 5
TIME_LIMIT_S = 170.0
# Largest accepted |p_loss - exact| of any local point; the known error at
# n = 1e6 and the default 200k steps is 1.2e-6.
LOSS_ERR_CEILING = 1e-4
TAIL_BEYOND = 10
# Nominal time of `child.reference_loop`: one reference second is the time
# the program would take on a machine that runs that loop in 2 ms.
REF_NOMINAL_S = 0.002
REFERENCE_MARGIN_S = 2.0


def _git_commit() -> str | None:
    """HEAD of the checkout, read from `.git` without starting a process."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="ascii") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path, encoding="ascii") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="ascii") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def _child(mode: str, workload: str, seed: int, seconds: int, trace: int,
           result_path: str, deadline: float) -> dict:
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    tmp = os.path.join(WORKDIR, "tmp")
    os.makedirs(tmp, exist_ok=True)
    argv = [sys.executable, CHILD, mode, workload, str(seed), str(seconds), str(trace),
            result_path, tmp]
    proc = subprocess.run(argv, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        raise RuntimeError(f"benchmark process failed ({proc.returncode}):\n{proc.stderr}")
    with open(result_path, encoding="ascii") as fh:
        return json.load(fh)


def tail(samples: list[float]) -> tuple[float, float, int]:
    """Highest percentile with at least TAIL_BEYOND samples beyond it.

    Returns (value, percentile, samples beyond).  With too few samples
    for any such percentile, the maximum is returned with 0 beyond.
    """
    ordered = sorted(samples)
    if len(ordered) <= TAIL_BEYOND:
        return ordered[-1], 100.0, 0
    index = len(ordered) - TAIL_BEYOND - 1
    return ordered[index], 100.0 * (index + 1) / len(ordered), TAIL_BEYOND


def reference_time(samples, start: float, end: float) -> float:
    """Mean reference-loop time sampled within REFERENCE_MARGIN_S of a command."""
    window = [ref for t, ref in samples
              if start - REFERENCE_MARGIN_S <= t <= end + REFERENCE_MARGIN_S]
    return statistics.fmean(window or [ref for _, ref in samples])


def end_to_end(workload: str, setup_samples: list[float], result: dict) -> tuple[dict, dict]:
    """(metrics for the result line, extra figures for the human report).

    Command times are reported in reference seconds: wall time scaled by
    REF_NOMINAL_S over the reference loop's time sampled during the
    command and up to 2 s before and after it (see `child.SpeedProbe`).  The raw wall-time figures are
    reported beside them.
    """
    run = result["run"]
    raw = run["cmd_s"]
    refs = [reference_time(result["reference_samples"], start, end)
            for start, end in run["cmd_span"]]
    scaled = [s * REF_NOMINAL_S / ref for s, ref in zip(raw, refs)]
    done = run["attempted"] - run["failed"]
    probe_errors = [err for _, err in run["loss_err_probe"]]
    tail_value, tail_pct, beyond = tail(scaled)
    metrics = {
        "setup_s": (statistics.median(setup_samples), "s"),
        "ops_per_s": (done / sum(scaled), "1/ref_s"),
        "cmd_s.p50": (statistics.median(scaled), "ref_s"),
        "cmd_s.tail": (tail_value, "ref_s"),
        "peak_rss_mb": (result["peak_rss_mib"], "MiB"),
        "loss_err_max": (max(probe_errors) if probe_errors else None, "prob"),
    }
    extra = {
        "ops_failed_frac": (run["failed"] / run["attempted"], "1"),
        "cmd_s.tail.percentile": (tail_pct, "%"),
        "cmd_s.tail.samples": (len(scaled), "count"),
        "cmd_s.tail.beyond": (beyond, "count"),
        "wall.ops_per_s": (done / sum(raw), "1/s"),
        "wall.cmd_s.p50": (statistics.median(raw), "s"),
        "wall.cmd_s.tail": (tail(raw)[0], "s"),
        "reference_loop_s.median": (statistics.median(refs), "s"),
        "loss_err_max.all_local": (run["loss_err_all_max"], "prob"),
        "ops_attempted": (run["attempted"], "count"),
    }
    if workload == "oracle_check":
        extra["check_max_delta"] = (run["check_max_delta"], "prob")
    return metrics, extra


def per_layer(result: dict) -> tuple[dict, dict]:
    layers = result["layers"]
    metrics = {}
    for name in LAYERS:
        entry = layers[name]
        metrics[f"{name}.s"] = (entry["s"], "s")
        metrics[f"{name}.self_s"] = (entry["self_s"], "s")
        for key in LAYER_COUNTS[name]:
            metrics[f"{name}.{key}"] = (entry[key], "B" if key == "bytes" else "count")
    metrics["trace.overhead_s"] = (result["trace_overhead_s"], "s")
    traced_s = sum(result["traced"]["cmd_s"])
    extra = {f"{name}.self_share": (100.0 * layers[name]["self_s"] / traced_s, "%")
             for name in LAYERS}
    extra["trace.traced_s"] = (traced_s, "s")
    extra["trace.untraced_s"] = (sum(result["run"]["cmd_s"]), "s")
    return metrics, extra


def run_workload(workload: str, seed: int, seconds: int, trace: int) -> dict:
    deadline = time.monotonic() + TIME_LIMIT_S
    tag = f"{workload}-seed{seed}-trace{trace}"
    result_path = os.path.join(WORKDIR, f"{tag}.json")
    setup_samples = []
    if not trace:
        for i in range(SETUP_SAMPLES - 1):
            probe = _child("setup", workload, seed, seconds, trace,
                           os.path.join(WORKDIR, f"{tag}.setup{i}.json"), deadline)
            setup_samples.append(probe["setup_s"])
    result = _child("measure", workload, seed, seconds, trace, result_path, deadline)
    setup_samples.append(result["setup_s"])

    if trace:
        metrics, extra = per_layer(result)
        runs = (result["run"], result["traced"])
    else:
        metrics, extra = end_to_end(workload, setup_samples, result)
        runs = (result["run"],)
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    all_local = [r["loss_err_all_max"] for r in runs if r["loss_err_all_max"] is not None]
    correct = failed == 0 and all(err < LOSS_ERR_CEILING for err in all_local)

    record = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "extra": {k: {"value": v, "unit": u} for k, (v, u) in extra.items()},
        "setup_samples_s": setup_samples,
        "cmd_s_samples": result["run"]["cmd_s"],
        "cmd_span": result["run"]["cmd_span"],
        "reference_samples": result.get("reference_samples", []),
        "commands": result["run"]["commands"],
        "loss_err_probes": result["run"]["loss_err_probe"],
        "problems": [p for r in runs for p in r["problems"]][:20],
        "provenance": {
            "commit": _git_commit(),
            "seed": seed,
            "nproc": os.cpu_count(),
            "versions": result["versions"],
            "default_steps": result["defaults"],
            "jobs": 1,
        },
    }
    with open(os.path.join(WORKDIR, f"{tag}.record.json"), "w", encoding="ascii") as fh:
        json.dump(record, fh, indent=1)
    return record


def print_report(record: dict) -> None:
    head = f"{record['workload']} (seed {record['seed']}, trace {record['trace']})"
    print(f"{head}: correct={record['correct']} attempted={record['attempted']} "
          f"failed={record['failed']}")
    for section in ("metrics", "extra"):
        for name, entry in record[section].items():
            print(f"  {name:40s} {entry['value']!s:>24} {entry['unit']}")
    for problem in record["problems"]:
        print(f"  problem: {problem}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not os.path.isfile(os.path.join(ROOT, "src", "adiasearch", "cli.py")):
        print(f"error: no adiasearch sources under {os.path.join(ROOT, 'src')}",
              file=sys.stderr)
        return 2

    os.makedirs(WORKDIR, exist_ok=True)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        records = [run_workload(name, args.seed, args.seconds, args.trace)
                   for name in names]
    except (RuntimeError, OSError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for record in records:
        print_report(record)

    if len(records) == 1:
        metrics = records[0]["metrics"]
    else:
        metrics = {f"{r['workload']}/{name}": entry
                   for r in records for name, entry in r["metrics"].items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in records),
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
