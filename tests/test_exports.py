"""Every public name a subpackage lists in ``__all__``, or a one-file
module defines at its top level, resolves, once, and something in the
stack reaches it.

A deleted module or function must take its exports with it; a stale
name would only show up at a caller's ``import *``. An export that
nothing in ``src/``, ``perfbench/`` or ``bench/`` uses is code only
tests run, unless it is listed with the reason it stays.
"""

import ast
import importlib
from pathlib import Path

import pytest

PACKAGES = ("eventsync", "fusion", "edgesched", "services")
# one-file modules without __all__: a star import takes every public name
MODULES = ("timebase", "scoring")
ROOT = Path(__file__).resolve().parent.parent


def public_names(name: str) -> list[str]:
    """A subpackage's ``__all__``, or the public names a one-file module
    defines at its top level: functions, classes and assigned constants."""
    if name in PACKAGES:
        return importlib.import_module(f"sensorstack.{name}").__all__
    tree = ast.parse((ROOT / "src" / "sensorstack" / f"{name}.py").read_text(encoding="utf-8"))
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, ast.Assign):
            names += [target.id for target in node.targets if isinstance(target, ast.Name)]
    return [n for n in names if not n.startswith("_")]


@pytest.mark.parametrize("name", PACKAGES + MODULES)
def test_exports_resolve_once(name):
    module = importlib.import_module(f"sensorstack.{name}")
    exported = public_names(name)
    assert exported
    assert sorted(n for n in set(exported) if exported.count(n) > 1) == []
    assert [n for n in exported if not hasattr(module, n)] == []
    namespace = {}
    exec(f"from sensorstack.{name} import *", namespace)
    assert set(exported) <= set(namespace)


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
    "buffer_size": "the definition that tests check align_streams' batched buffer limits (_buffer_limits) against",
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
        for name in PACKAGES + MODULES
        for export in public_names(name)
        if export not in referenced and export not in UNREACHED_BY_DESIGN
    }
    assert sorted(unreached) == []
    # an allowlisted name that the stack now reaches no longer needs its entry
    assert sorted(set(UNREACHED_BY_DESIGN) & referenced) == []
