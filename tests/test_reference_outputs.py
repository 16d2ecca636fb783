"""The output contract in bytes: the eleven reference commands against the manifest.

Each command of tests/reference_commands.txt runs in-process in its own
directory, with the same relative `--output` as tools/reference_outputs.sh,
and must match tests/reference_manifest.json: exit code, sha256 of stdout,
stderr and every output file, and the recorded texts.  A change that moves
digits on purpose regenerates the manifest with tools/reference_manifest.py.
"""

import importlib.util
import json
import os
import platform

import numpy as np
import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_spec = importlib.util.spec_from_file_location(
    "reference_manifest", os.path.join(ROOT, "tools", "reference_manifest.py"))
reference = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(reference)

COMMANDS = reference.read_commands()
with open(reference.MANIFEST, encoding="utf-8") as _fh:
    MANIFEST = json.load(_fh)


def first_difference(where: str, expected, actual) -> str | None:
    """Where `actual` first departs from `expected`: the key, then for a text
    the line and comma-separated field; None if they are equal.  Hashes are
    compared last, so a text that differs is named first."""
    if expected == actual:
        return None
    if isinstance(expected, dict) and isinstance(actual, dict):
        for key in sorted(expected.keys() | actual.keys(), key=lambda key: (key == "sha256", key)):
            if key not in expected or key not in actual:
                return f"{where}/{key}: only in the {'manifest' if key in expected else 'run'}"
            found = first_difference(f"{where}/{key}", expected[key], actual[key])
            if found:
                return found
    if isinstance(expected, str) and isinstance(actual, str):
        old, new = expected.splitlines(), actual.splitlines()
        for line, (was, now) in enumerate(zip(old, new), 1):
            for column, (cell, got) in enumerate(zip(was.split(","), now.split(",")), 1):
                if cell != got:
                    return f"{where} line {line} field {column}: {cell!r} -> {got!r}"
            if was != now:
                return f"{where} line {line}: {was!r} -> {now!r}"
        return f"{where}: {len(old)} lines -> {len(new)}"
    return f"{where}: {expected!r} -> {actual!r}"


def test_manifest_covers_the_commands():
    assert len(COMMANDS) == 11
    assert {name: entry["argv"] for name, entry in MANIFEST["commands"].items()} == COMMANDS


@pytest.mark.parametrize("name", list(COMMANDS))
def test_reference_output(name, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    expected = {key: value for key, value in MANIFEST["commands"][name].items()
                if key != "argv"}
    found = first_difference(name, expected, reference.run(name, COMMANDS[name]))
    recorded = f"NumPy {MANIFEST['numpy']}, Python {MANIFEST['python']}"
    running = f"NumPy {np.__version__}, Python {platform.python_version()}"
    if found and recorded != running:
        found += f" (manifest written with {recorded}; this run uses {running})"
    if found:
        pytest.fail(found, pytrace=False)
