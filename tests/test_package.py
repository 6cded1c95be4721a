"""Tests for the package's export surface."""

import importlib

import pytest

MODULES = ["streamacq", "streamacq.agents", "streamacq.core", "streamacq.datagen",
           "streamacq.ensemble", "streamacq.harness", "streamacq.learner",
           "streamacq.theory"]


@pytest.mark.parametrize("module_name", MODULES)
def test_every_exported_name_resolves(module_name):
    module = importlib.import_module(module_name)
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert missing == []

