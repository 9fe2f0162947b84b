"""Every name a module exports exists, so no export outlives a deletion."""

import importlib
import pkgutil

import pytest

import nestquad

MODULES = ["nestquad"] + [f"nestquad.{info.name}" for info in
                          pkgutil.iter_modules(nestquad.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_export_resolves(name):
    module = importlib.import_module(name)
    exports = module.__all__
    assert len(set(exports)) == len(exports)
    assert [e for e in exports if not hasattr(module, e)] == []
