"""Every public name a subpackage lists in ``__all__``, or a one-file
module defines at its top level, resolves, once, and something in the
stack reaches it.

A deleted module or function must take its exports with it; a stale
name would only show up at a caller's ``import *``. An export that
nothing in ``src/``, ``perfbench/`` or ``bench/`` uses is code only
tests run, unless it is listed with the reason it stays.

Every public callable with required arguments, given garbage for all
of them, raises a stack error and never a bare Python exception, unless
it is listed with the duck-typed record it reads unchecked.
"""

import ast
import importlib
import inspect
import math
from pathlib import Path

import pytest

from sensorstack.errors import SensorStackError
from sensorstack.services import FileLog

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


# one garbage value at a time goes to every required argument of a public callable
PROBE_VALUES = {
    "none": None,
    "text": "x",
    "nan": math.nan,
    "negative": -1,
    "fraction": 2.5,
    "empty-list": [],
    "empty-dict": {},
    "one-tuple": (1,),
    "bool": True,
    "bytes": b"\x00",
    "ragged": [[1.0, 2.0], [3.0]],
    "dict": {"a": 1},
}

# callables whose contract is a duck-typed record or log-record argument,
# read by attribute or key without a type check, so garbage there may
# surface as a bare AttributeError or TypeError; each with that argument
DUCK_TYPED = {
    "edgesched.TopologySpec": "nodes are NodeSpec records",
    "edgesched.WorkloadSpec": "stages are StageSpec records",
    "edgesched.compute_metrics": "records are simulator log records",
    "edgesched.conservation_check": "records are simulator log records",
    "edgesched.effective_urgency": "task is a Task record and config a SchedulerConfig",
    "edgesched.monitor_snapshot": "nodes are NodeState records",
    "edgesched.run_simulation": "workload, topology and config are spec records",
    "eventsync.apply_sync": "streams map ids to SampleStream records",
    "eventsync.butterworth_lowpass": "series is a TimeSeries record",
    "eventsync.coarse_align": "events are EventDetection records",
    "eventsync.fine_tune_event": "series_per_stream maps ids to TimeSeries records",
    "eventsync.normalized_dtw_score": "window is a TimeSeries and template a GestureTemplate",
    "eventsync.sliding_entropy": "series is a TimeSeries record",
    "eventsync.suppress_overlaps": "hits are EventDetection records",
    "fusion.deduplicate": "detections are Detection records",
    "fusion.evaluate_detections": "fused and ground_truth are detection and truth records",
    "fusion.fit_homography_dlt": "pairs are PointPair records",
    "fusion.project": "detections are Detection records and transform a PerspectiveTransform",
    "fusion.ransac_fit": "pairs are PointPair records",
    "fusion.reprojection_errors": "transform is a PerspectiveTransform and pairs PointPair records",
    "fusion.threshold_sweep": "detections are Detection records",
    "services.record_from_payload": "payload is a registration record, read by key",
    "services.replay_log": "records are activity log records",
    "services.serve": "router is a ServiceRouter, first read per request; a call binds a listening socket",
    "timebase.SampleStream": "descriptor is a StreamDescriptor and samples SensorSample records",
    "timebase.buffer_size": "policy is a BufferPolicy record",
    "timebase.correct_timestamp": "model is a ClockModel record",
}


def required_arguments(func) -> list[inspect.Parameter]:
    """The parameters a call must supply: no default, and not ``*args`` or ``**kwargs``."""
    return [
        p
        for p in inspect.signature(func).parameters.values()
        if p.default is p.empty and p.kind not in (p.VAR_POSITIONAL, p.VAR_KEYWORD)
    ]


def callables_with_required_arguments() -> dict[str, object]:
    found = {}
    for module in PACKAGES + MODULES:
        namespace = importlib.import_module(f"sensorstack.{module}")
        for name in public_names(module):
            func = getattr(namespace, name)
            if callable(func) and required_arguments(func):
                found[f"{module}.{name}"] = func
    return found


CALLABLES = callables_with_required_arguments()


def test_duck_typed_entries_name_callables_with_required_arguments():
    assert sorted(set(DUCK_TYPED) - set(CALLABLES)) == []


@pytest.mark.parametrize("name", sorted(set(CALLABLES) - set(DUCK_TYPED)))
def test_garbage_arguments_raise_only_stack_errors(name, tmp_path, monkeypatch):
    # FileLog("x") creates its file in the working directory
    monkeypatch.chdir(tmp_path)
    func = CALLABLES[name]
    params = required_arguments(func)
    leaks = []
    for label, value in PROBE_VALUES.items():
        args = [value for p in params if p.kind is not p.KEYWORD_ONLY]
        kwargs = {p.name: value for p in params if p.kind is p.KEYWORD_ONLY}
        try:
            result = func(*args, **kwargs)
        except SensorStackError:
            continue
        except Exception as exc:
            leaks.append(f"{label}: {type(exc).__name__}: {exc}")
        else:
            if isinstance(result, FileLog):
                result.close()
    assert leaks == []
