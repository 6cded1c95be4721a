"""Tests for the package's export surface."""

import ast
import builtins
import importlib
import inspect
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

MODULES = ["streamacq.agents", "streamacq.core", "streamacq.datagen",
           "streamacq.ensemble", "streamacq.harness", "streamacq.learner",
           "streamacq.theory"]


@pytest.mark.parametrize("module_name", MODULES)
def test_every_exported_name_resolves(module_name):
    module = importlib.import_module(module_name)
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert missing == []


@pytest.mark.parametrize("module_name", MODULES)
def test_every_public_class_and_function_is_exported(module_name):
    """A module's ``__all__`` is the only declaration of its public names."""
    module = importlib.import_module(module_name)
    tree = ast.parse(inspect.getsource(module))
    public = [node.name for node in tree.body
              if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
              and not node.name.startswith("_")]
    assert [name for name in public if name not in module.__all__] == []


SOURCES = sorted(Path(__file__).resolve().parents[1].glob("src/streamacq/*.py"))
# perfbench's tracer wraps these two by name in theory's namespace, which
# nothing in theory calls; they go when the tracer stops naming them
# (ROADMAP item 2)
TRACER_ONLY_IMPORTS = {"theory.py": ["fit_logistic", "local_sparsity"]}


@pytest.mark.parametrize("source", SOURCES, ids=lambda path: path.name)
def test_every_imported_name_is_used(source):
    """An import that a fold leaves behind fails here; no linter is installed."""
    tree = ast.parse(source.read_text(encoding="utf-8"))
    imported = {(alias.asname or alias.name).split(".")[0]
                for node in ast.walk(tree)
                if isinstance(node, (ast.Import, ast.ImportFrom))
                and getattr(node, "module", None) != "__future__"
                for alias in node.names}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert sorted(imported - used) == TRACER_ONLY_IMPORTS.get(source.name, [])


# every Agent override takes these from the runner, whether it reads them or not
AGENT_INTERFACE_PARAMETERS = {("propose", "ctx"), ("reinforce", "signed_reward")}


@pytest.mark.parametrize("source", SOURCES, ids=lambda path: path.name)
def test_every_parameter_is_used(source):
    """A parameter that a fold leaves behind fails here: each parameter of
    each function or lambda but a method's ``self`` is read in its body."""
    tree = ast.parse(source.read_text(encoding="utf-8"))
    unread = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        args = node.args
        params = [arg.arg for arg in (*args.posonlyargs, *args.args, *args.kwonlyargs,
                                      args.vararg, args.kwarg) if arg is not None]
        body = node.body if isinstance(node.body, list) else [node.body]
        read = {name.id for statement in body for name in ast.walk(statement)
                if isinstance(name, ast.Name) and isinstance(name.ctx, ast.Load)}
        function = getattr(node, "name", "<lambda>")
        unread += [(function, param) for param in params
                   if param not in read and param != "self"
                   and (function, param) not in AGENT_INTERFACE_PARAMETERS]
    assert unread == []


# argparse turns this one into a usage error before any command runs
USAGE_ERRORS = {"argparse.ArgumentTypeError"}


def test_every_raised_exception_is_one_the_cli_reports():
    """Each exception class that ``src/streamacq`` raises by name is one that
    ``cli.main`` reports as ``error: ...``, both read from the source, so the
    reported list and the raised classes cannot drift apart."""
    cli = ast.parse((SOURCES[0].parent / "cli.py").read_text(encoding="utf-8"))
    main = next(node for node in cli.body
                if isinstance(node, ast.FunctionDef) and node.name == "main")
    (handler,) = [node for node in ast.walk(main) if isinstance(node, ast.ExceptHandler)]
    reported = tuple(getattr(builtins, name.id) for name in handler.type.elts)
    unreported = []
    for source in SOURCES:
        module = importlib.import_module(
            "streamacq" if source.stem == "__init__" else f"streamacq.{source.stem}")
        for node in ast.walk(ast.parse(source.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.Raise) or node.exc is None:
                continue
            name = ast.unparse(node.exc.func if isinstance(node.exc, ast.Call) else node.exc)
            raised = getattr(module, name, getattr(builtins, name, None))
            if name not in USAGE_ERRORS and not (isinstance(raised, type)
                                                 and issubclass(raised, reported)):
                unreported.append(f"{source.name}:{node.lineno} {name}")
    assert unreported == []


def run_child(script, *args):
    """Run ``script`` in a fresh interpreter that imports this same package,
    installed or not; returns the finished process."""
    import streamacq
    package_root = os.path.dirname(os.path.dirname(streamacq.__file__))
    path = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-c", script, *args],
                          capture_output=True, text=True, timeout=300,
                          env={**os.environ, "PYTHONPATH": path})


def test_package_import_loads_no_submodule():
    result = run_child("import streamacq, sys\n"
                       "print(sorted(m for m in sys.modules if m.startswith('streamacq')))")
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "['streamacq']"


def test_readme_api_example_runs_as_written(capsys):
    readme = Path(__file__).resolve().parents[1] / "README.md"
    block = re.search(r"## Minimal API example\n+```python\n(.*?)```",
                      readme.read_text(encoding="utf-8"), re.S).group(1)
    exec(compile(block, "README.md", "exec"), {})
    final_accuracy, acquired, budget = capsys.readouterr().out.split()
    assert 0.0 <= float(final_accuracy) <= 1.0
    assert 0 < int(acquired) <= int(budget)


STREAM_PATH_SCRIPT = """
import os, sys
out = sys.argv[1]
import streamacq
from streamacq import cli
from streamacq.datagen import GeneratorConfig
from streamacq.harness import ExperimentConfig, run_experiment
assert "scipy" not in sys.modules, "import streamacq"
run_experiment(ExperimentConfig(strategy="ensemble6", generator=GeneratorConfig(n=120, p=4)), 0)
assert "scipy" not in sys.modules, "a short ensemble6 run"
config = os.path.join(out, "run.cfg")
with open(config, "w") as fh:
    fh.write("strategy = ensemble6\\nn = 120\\np = 4\\n")
assert cli.main(["run", "--config", config, "--seed", "0", "--out", out]) == 0
assert "scipy" not in sys.modules, "streamacq run"
assert cli.main(["verify-theory", "--out", os.path.join(out, "grid.csv"),
                 "--draws", "2000", "--grid-points", "2"]) == 0
assert "scipy.special" in sys.modules, "verify-theory"
"""


def test_only_verify_theory_loads_scipy(tmp_path):
    """The import, a stream run and ``streamacq run`` leave scipy unloaded,
    which keeps a run's memory to numpy's; ``verify-theory`` loads it."""
    result = run_child(STREAM_PATH_SCRIPT, str(tmp_path))
    assert result.returncode == 0, result.stderr
