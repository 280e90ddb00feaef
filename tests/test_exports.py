"""Every public name a subpackage lists in ``__all__`` resolves, once.

A deleted module or function must take its exports with it; a stale
name would only show up at a caller's ``import *``.
"""

import importlib

import pytest

PACKAGES = ("timebase", "eventsync", "fusion", "edgesched", "services")


@pytest.mark.parametrize("name", PACKAGES)
def test_exports_resolve_once(name):
    module = importlib.import_module(f"sensorstack.{name}")
    # timebase is one module without __all__: its star import takes every public name
    exported = getattr(module, "__all__", [])
    assert sorted(n for n in set(exported) if exported.count(n) > 1) == []
    assert [n for n in exported if not hasattr(module, n)] == []
    namespace = {}
    exec(f"from sensorstack.{name} import *", namespace)
    assert set(exported) <= set(namespace)
