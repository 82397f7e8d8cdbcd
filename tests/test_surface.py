"""The names that other code looks up in the package.

perfbench's tracer finds each function it wraps by name, from the
TRACED table in perfbench/tracing.py, and raises when one is missing.
``from witt12 import *`` reads ``witt12.__all__``, which the package
derives from its own ``from .module import ...`` statements: every
public name they bind, and no submodule.  Both are checked here, so
deleting a helper cannot break the benchmark's tracer, and a star import
binds exactly the re-exports.
"""

import importlib
import importlib.util
import types
from pathlib import Path

import pytest

import witt12

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("tracing", ROOT / "perfbench" / "tracing.py")
tracing = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracing)


@pytest.mark.parametrize("module, attr", sorted(tracing.TRACED))
def test_every_traced_name_resolves(module, attr):
    owner = importlib.import_module(module)
    if "." in attr:  # a method, which the tracer reads from its class's own namespace
        cls_name, attr = attr.split(".")
        assert callable(vars(getattr(owner, cls_name))[attr])
    else:
        assert callable(getattr(owner, attr))


def test_every_export_is_an_attribute():
    assert [name for name in witt12.__all__ if not hasattr(witt12, name)] == []


def test_a_star_import_binds_exactly_the_exports():
    namespace = {}
    exec("from witt12 import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == witt12.__all__
    assert not [name for name, value in namespace.items() if isinstance(value, types.ModuleType)]
    # though the submodules the re-exports come from are package attributes
    assert {"checks", "design", "designfile", "plane", "quadrics", "symmetry"} <= set(vars(witt12))
