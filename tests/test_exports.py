"""Every name a module exports exists, so no export outlives a deletion."""

import importlib
import os
import pkgutil
import subprocess
import sys

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


PACKAGE_MODULES = ["errors", "gauss", "nested_optimizer", "orthopoly",
                   "rulestore", "sparse_grid"]


def test_package_exports_every_module_export():
    modules = [importlib.import_module(f"nestquad.{m}")
               for m in PACKAGE_MODULES]
    assert nestquad.__all__ == [e for m in modules for e in m.__all__]
    assert [(m.__name__, e) for m in modules for e in m.__all__
            if getattr(nestquad, e, None) is not getattr(m, e)] == []
    assert [m for m in MODULES if m.rsplit(".", 1)[-1]
            not in PACKAGE_MODULES + ["nestquad", "cli"]] == []


def test_import_leaves_cli_out():
    code = "import sys, nestquad; print('nestquad.cli' in sys.modules)"
    src = os.path.dirname(os.path.dirname(nestquad.__file__))
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, check=True,
                          env={**os.environ, "PYTHONPATH": src})
    assert done.stdout == "False\n"
