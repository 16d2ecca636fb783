"""Record what the eleven reference commands print and write.

Usage: PYTHONPATH=src python3 tools/reference_manifest.py

Runs every command of tests/reference_commands.txt in-process through
`adiasearch.cli.main`, each in a fresh temporary directory with the
relative `--output <name>`, and writes the manifest that
tests/test_reference_outputs.py compares against,
tests/reference_manifest.json.  Per command it keeps the exit code, and
for stdout, stderr and every output file the sha256 and the text, except
that a `trajectory.csv` keeps its header, row count and first and last
rows instead of its ~330 KB.  The manifest also records the NumPy and
Python versions: the digits depend on NumPy, and `check`'s marked indices
on CPython's `random`.

A change that moves output digits on purpose commits the manifest this
tool writes for it.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import platform
import tempfile

import numpy as np

from adiasearch import cli

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
COMMANDS = os.path.join(ROOT, "tests", "reference_commands.txt")
MANIFEST = os.path.join(ROOT, "tests", "reference_manifest.json")


def read_commands() -> dict[str, list[str]]:
    """Name -> argv of each command, in file order (without `--output`)."""
    commands = {}
    with open(COMMANDS, encoding="ascii") as fh:
        for line in fh:
            if line.strip() and not line.startswith("#"):
                name, *argv = line.split()
                commands[name] = argv
    return commands


def describe(text: str, ends_only: bool = False) -> dict:
    """The manifest record of one stream or file: its sha256, and its text
    or (`ends_only`, for a CSV) its header, row count and first and last rows."""
    record = {"sha256": hashlib.sha256(text.encode("utf-8")).hexdigest()}
    if ends_only:
        header, *rows = text.splitlines()
        record.update(header=header, rows=len(rows), first=rows[0], last=rows[-1])
    else:
        record["text"] = text
    return record


def run(name: str, argv: list[str]) -> dict:
    """Run one command in the current directory; its manifest entry."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main([*argv, "--output", name])
    files = {}
    if os.path.isdir(name):
        for file in sorted(os.listdir(name)):
            with open(os.path.join(name, file), encoding="utf-8", newline="") as fh:
                files[file] = describe(fh.read(), file == "trajectory.csv")
    return {"exit": code, "stdout": describe(out.getvalue()),
            "stderr": describe(err.getvalue()), "files": files}


def manifest() -> dict:
    """Every command's entry, each run in its own temporary directory."""
    entries = {}
    start = os.getcwd()
    for name, argv in read_commands().items():
        with tempfile.TemporaryDirectory() as work:
            os.chdir(work)
            try:
                entries[name] = {"argv": argv, **run(name, argv)}
            finally:
                os.chdir(start)
    return {"numpy": np.__version__, "python": platform.python_version(), "commands": entries}


if __name__ == "__main__":
    with open(MANIFEST, "w", encoding="utf-8") as fh:
        json.dump(manifest(), fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(MANIFEST)
