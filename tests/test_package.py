import ast
import collections
import glob
import importlib.util
import json
import os
import re
import subprocess
import sys

import adiasearch


def test_public_names_resolve():
    # a stale entry would break `from adiasearch import *`
    names = adiasearch.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert hasattr(adiasearch, name), name


SRC = os.path.dirname(os.path.dirname(os.path.abspath(adiasearch.__file__)))

# Fresh interpreter: import the CLI, run the benchmark's warm-up command,
# list the scipy modules loaded by then, then run an erf-ramp command and
# list them again.
START_UP = """
import contextlib, io, json, sys, tempfile
import adiasearch.cli as cli

def scipy_modules():
    return sorted(m for m in sys.modules if m.startswith("scipy"))

with tempfile.TemporaryDirectory() as out, contextlib.redirect_stdout(io.StringIO()):
    warm = cli.main(["run", "--strategy", "local", "--n", "4", "--epsilon", "0.5",
                     "--steps", "1000", "--output", out])
    loaded = scipy_modules()
    erf = cli.main(["run", "--strategy", "parallel", "--n", "20", "--T", "3.1",
                    "--shape", "erf", "--steps", "1000", "--output", out])
    with open(out + "/result.json") as fh:
        p_loss = json.load(fh)["p_loss"]
print(json.dumps({"warm": warm, "loaded": loaded, "erf": erf, "p_loss": p_loss,
                  "after": scipy_modules()}))
"""


def _python(args, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return subprocess.run([sys.executable, *args], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120)


def test_start_up_path_loads_no_scipy(tmp_path):
    proc = _python(["-c", START_UP], tmp_path)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["warm"] == 0
    assert report["loaded"] == []
    # nor does the erf ramp, whose erf is a NumPy kernel
    assert report["erf"] == 0
    assert 0.0 <= report["p_loss"] < 1.0
    assert report["after"] == []


# Fresh interpreter: run a small check and list the numpy.random modules
# loaded by then.
CHECK = """
import contextlib, io, json, sys, tempfile
import adiasearch.cli as cli

with tempfile.TemporaryDirectory() as out, contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(["check", "--n-list", "4", "20", "--steps", "1000",
                     "--full-steps", "4000", "--output", out])
print(json.dumps({"code": code,
                  "loaded": sorted(m for m in sys.modules if m.startswith("numpy.random"))}))
"""


def test_check_loads_no_numpy_random(tmp_path):
    # check draws its marked indices with the standard library's random, which
    # numpy already imports, so numpy.random (~6 MiB) stays unloaded
    proc = _python(["-c", CHECK], tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {"code": 0, "loaded": []}


def test_python_dash_m_entry_point(tmp_path):
    proc = _python(["-m", "adiasearch", "run", "--strategy", "local", "--n", "4",
                    "--epsilon", "0.5", "--steps", "1000", "--output", "out"], tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    assert (tmp_path / "out" / "result.json").exists()


README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                      "README.md")


def test_readme_library_example_runs(tmp_path):
    with open(README, encoding="utf-8") as fh:
        section = fh.read().split("\n## Library\n", 1)[1]
    example = section.split("```python\n", 1)[1].split("\n```", 1)[0]
    # the example may import only documented names, from the package top level
    imports = [node for node in ast.walk(ast.parse(example))
               if isinstance(node, ast.ImportFrom)
               and (node.module or "").split(".")[0] == "adiasearch"]
    assert imports
    for node in imports:
        assert node.module == "adiasearch"
        for alias in node.names:
            assert alias.name in adiasearch.__all__, alias.name
    proc = _python(["-c", example], tmp_path)
    assert proc.returncode == 0, proc.stderr


PACKAGE = os.path.dirname(os.path.abspath(adiasearch.__file__))
PERFBENCH = os.path.join(os.path.dirname(README), "perfbench")


def _defined_names(node):
    """Names that a top-level statement defines: def, class or constant."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, ast.Assign):
        return [target.id for target in node.targets if isinstance(target, ast.Name)]
    if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
        return [node.target.id]
    return []


def _identifiers(node):
    # names and attributes only, each with its count: docstrings and other
    # strings do not count
    return collections.Counter(sub.id if isinstance(sub, ast.Name) else sub.attr
                               for sub in ast.walk(node)
                               if isinstance(sub, (ast.Name, ast.Attribute)))


def test_every_public_name_has_a_user():
    # a public name in src must be used by other src code, or be named in
    # README.md or in a perfbench script; one that only tests use belongs
    # in the tests
    statements = []
    for path in sorted(glob.glob(os.path.join(PACKAGE, "*.py"))):
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        statements += [(os.path.basename(path), node, _identifiers(node))
                       for node in tree.body]
    texts = []
    for path in [README, *glob.glob(os.path.join(PERFBENCH, "*.py"))]:
        with open(path, encoding="utf-8") as fh:
            texts.append(fh.read())
    unused = []
    for module, definition, _ in statements:
        for name in _defined_names(definition):
            if name.startswith("_"):
                continue
            used = any(name in names for _, node, names in statements if node is not definition)
            named = any(re.search(rf"\b{re.escape(name)}\b", text) for text in texts)
            if not (used or named):
                unused.append(f"{module}:{name}")
    assert unused == []


def test_every_private_name_has_a_user():
    # a private function, class, method or module-level constant must be
    # referenced by other src code: one that only its own body or the tests
    # name is dead.  Dunders are exempt.
    trees = {}
    for path in sorted(glob.glob(os.path.join(PACKAGE, "*.py"))):
        with open(path, encoding="utf-8") as fh:
            trees[os.path.basename(path)] = ast.parse(fh.read())
    everywhere = sum((_identifiers(tree) for tree in trees.values()), collections.Counter())
    unused = []
    for module, tree in trees.items():
        methods = [node for cls in tree.body if isinstance(cls, ast.ClassDef)
                   for node in cls.body if isinstance(node, ast.FunctionDef)]
        for definition in [*tree.body, *methods]:
            own = _identifiers(definition)
            for name in _defined_names(definition):
                dunder = name.startswith("__") and name.endswith("__")
                if name.startswith("_") and not dunder and everywhere[name] <= own[name]:
                    unused.append(f"{module}:{name}")
    assert unused == []


def _load_by_path(monkeypatch, name, path):
    # under a name of the test's own: perfbench is not a package, and its
    # modules stay unimported elsewhere
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, name, module)  # dataclasses look it up
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # no __pycache__ there
    spec.loader.exec_module(module)
    return module


def test_benchmark_entry_points_resolve(monkeypatch):
    # the benchmark wraps these attributes by name and drives these commands;
    # a rename in src would break it only in the slower perfbench suite
    spans = _load_by_path(monkeypatch, "_guard_perfbench_spans",
                          os.path.join(PERFBENCH, "spans.py"))
    workloads = _load_by_path(monkeypatch, "_guard_perfbench_workloads",
                              os.path.join(PERFBENCH, "workloads.py"))
    targets = spans.package_targets()
    assert len(targets) == 12
    for owner, attr, _, _ in targets:
        assert attr in vars(owner), f"{owner.__name__}.{attr}"

    from adiasearch import cli

    parser = cli.build_parser()
    commands = [command for workload in workloads.WORKLOADS
                for command in next(workloads.cycles(workload, 0))]
    assert len(commands) == 12
    for command in commands:
        args = parser.parse_args([*command.argv, "--output", "out"])
        assert args.handler.__name__ == f"cmd_{command.argv[0]}"


def test_strategy_table_covers_the_enum():
    # one `cli._INPUTS` row per Strategy, built by that strategy's own
    # builder and requiring an input it takes, so the table cannot drift
    from adiasearch import cli, schedules

    assert set(cli._INPUTS) == {strategy.value for strategy in schedules.Strategy}
    for strategy, (builder, takes, required) in cli._INPUTS.items():
        assert builder is getattr(schedules, f"{strategy}_schedule"), strategy
        assert required in takes, strategy
