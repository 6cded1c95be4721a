"""Tests for the package's export surface."""

import importlib
import os
import subprocess
import sys

import pytest

MODULES = ["streamacq", "streamacq.agents", "streamacq.core", "streamacq.datagen",
           "streamacq.ensemble", "streamacq.harness", "streamacq.learner",
           "streamacq.theory"]


@pytest.mark.parametrize("module_name", MODULES)
def test_every_exported_name_resolves(module_name):
    module = importlib.import_module(module_name)
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert missing == []



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
    # the child imports the same package as this process, installed or not
    import streamacq
    package_root = os.path.dirname(os.path.dirname(streamacq.__file__))
    path = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    result = subprocess.run([sys.executable, "-c", STREAM_PATH_SCRIPT, str(tmp_path)],
                            capture_output=True, text=True, timeout=300,
                            env={**os.environ, "PYTHONPATH": path})
    assert result.returncode == 0, result.stderr
