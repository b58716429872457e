"""Tests for the package's public names."""

import importlib

import pytest

MODULES = ["qmres", "qmres.exactnum", "qmres.resengine", "qmres.quasimap", "qmres.givode"]


@pytest.mark.parametrize("name", MODULES)
def test_every_public_name_resolves(name):
    # a name deleted from a module must leave its __all__ too
    module = importlib.import_module(name)
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert missing == []
    assert len(set(module.__all__)) == len(module.__all__)
