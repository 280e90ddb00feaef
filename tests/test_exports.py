"""Every public name a subpackage lists in ``__all__`` resolves, once,
and something in the stack reaches it.

A deleted module or function must take its exports with it; a stale
name would only show up at a caller's ``import *``. An export that
nothing in ``src/``, ``perfbench/`` or ``bench/`` uses is code only
tests run, unless it is listed with the reason it stays.
"""

import ast
import importlib
from pathlib import Path

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


ROOT = Path(__file__).resolve().parent.parent
# exported names that nothing in the stack calls, each kept for a reason
UNREACHED_BY_DESIGN = {
    "conservation_check": "tests state the scheduler's task-conservation property with it",
    "reprojection_errors": "tests state a fitted homography's residuals with it",
    "FileLog": "tests state that the activity log survives a reopen with it",
    "replay_log": "tests state that the activity log alone rebuilds the state with it",
    "serve": "the HTTP front end for clients outside the process",
    "butterworth_lowpass": "the definition that tests check the fine-tune filter against",
    "normalized_dtw_score": "the definition that tests and oracles.py check the batched detector's scores against",
    "suppress_overlaps": "the definition that tests and oracles.py check the detector's suppression against",
    "dtw_distance": "the one public form of the warp-path walk that dba runs on its batched tables; tests check the walk through it",
}


def referenced_names() -> set[str]:
    """Every name read, imported or taken as an attribute in src/, perfbench/ and bench/,
    outside the __init__.py files that only re-export."""
    names = set()
    for top in ("src", "perfbench", "bench"):
        for path in (ROOT / top).rglob("*.py"):
            if path.name == "__init__.py":
                continue
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Name):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    names.add(node.attr)
                elif isinstance(node, ast.alias):
                    names.add(node.name)
    return names


def test_every_export_is_reached_by_the_stack():
    referenced = referenced_names()
    unreached = {
        f"{name}.{export}"
        for name in PACKAGES
        for export in getattr(importlib.import_module(f"sensorstack.{name}"), "__all__", [])
        if export not in referenced and export not in UNREACHED_BY_DESIGN
    }
    assert sorted(unreached) == []
    # an allowlisted name that the stack now reaches no longer needs its entry
    assert sorted(set(UNREACHED_BY_DESIGN) & referenced) == []
