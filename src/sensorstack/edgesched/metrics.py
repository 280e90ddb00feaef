"""Rebuild SimMetrics from an event log alone.

This is a second, independent accounting path: the simulator keeps
live counters while it runs, and this module recomputes the same
numbers by replaying the log. Tests hold the two equal. Wall-clock
scheduling overhead is the one quantity a deterministic log cannot
carry, so it is reported as zero here.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..errors import IntegrityError
from ..timebase import NS_PER_SEC
from .types import ClassStats, SimMetrics


def compute_metrics(records: Sequence[dict]) -> SimMetrics:
    """Replay an event log into aggregate metrics.

    The log must be complete: it ends with an "end" record, every task
    arrives once, every dispatch refers to a logged arrival, and every
    completion refers to a logged dispatch. Anything else means the log
    was truncated or reordered and raises an integrity error, as do an
    end at time 0 and a record that lacks a field the replay reads.
    """
    records = list(records)
    try:
        return _replay(records)
    except KeyError as missing:
        raise IntegrityError(f"a log record lacks the field {missing}") from None


def _replay(records: list[dict]) -> SimMetrics:
    if not records or records[-1]["event"] != "end":
        raise IntegrityError("event log is truncated: no end record")
    duration_ns = records[-1]["t_ns"]
    if duration_ns <= 0:
        raise IntegrityError("the end record must come after time 0")

    p_initial: dict[str, float] = {}
    entry: dict[str, int] = {}
    queued: set[str] = set()
    queued_by_class: dict[float, int] = {}
    dispatched: set[str] = set()
    completions = 0
    dispatch_count = 0
    offload_count = 0
    inversion_count = 0
    waits_by_class: dict[float, list[int]] = {}
    latencies_by_class: dict[float, list[int]] = {}

    index = 0
    while index < len(records):
        record = records[index]
        event = record["event"]
        if event == "arrival":
            task_id = record["task_id"]
            if task_id in p_initial:
                raise IntegrityError(f"second arrival of task {task_id}")
            p_initial[task_id] = record["p_initial"]
            entry[task_id] = record["t_ns"]
            queued.add(task_id)
            queued_by_class[record["p_initial"]] = queued_by_class.get(record["p_initial"], 0) + 1
            index += 1
        elif event == "dispatch":
            group = [record]
            while (
                index + len(group) < len(records)
                and records[index + len(group)]["event"] == "dispatch"
                and records[index + len(group)]["t_ns"] == record["t_ns"]
            ):
                group.append(records[index + len(group)])
            for item in group:
                task_id = item["task_id"]
                if task_id not in queued:
                    raise IntegrityError(f"dispatch of unknown or finished task {task_id}")
                queued.discard(task_id)
                dispatched.add(task_id)
                p = p_initial[task_id]
                queued_by_class[p] -= 1
                if not queued_by_class[p]:
                    del queued_by_class[p]
            remaining_best = min(queued_by_class, default=np.inf)
            for item in group:
                dispatch_count += 1
                if item["node_kind"] == "computation_unit":
                    offload_count += 1
                if remaining_best < p_initial[item["task_id"]]:
                    inversion_count += 1
                waits_by_class.setdefault(p_initial[item["task_id"]], []).append(
                    item["t_ns"] - entry[item["task_id"]]
                )
            index += len(group)
        elif event == "complete":
            task_id = record["task_id"]
            if task_id not in dispatched:
                raise IntegrityError(f"completion of undispatched task {task_id}")
            dispatched.discard(task_id)
            completions += 1
            latencies_by_class.setdefault(p_initial[task_id], []).append(
                record["t_ns"] - entry[task_id]
            )
            index += 1
        elif event == "end":
            index += 1
        else:
            raise IntegrityError(f"unknown event type {event!r}")

    duration_s = duration_ns / NS_PER_SEC
    return SimMetrics(
        duration_s=duration_s,
        completed=completions,
        throughput_per_s=completions / duration_s,
        class_stats=ClassStats.by_class(waits_by_class, latencies_by_class),
        inversion_rate=inversion_count / dispatch_count if dispatch_count else 0.0,
        offload_fraction=offload_count / dispatch_count if dispatch_count else 0.0,
        overhead_ms_mean=0.0,
    )


def conservation_check(records: Sequence[dict]) -> dict[str, int]:
    """Count where every submitted task ended up.

    Returns arrivals, completions, in-flight, and still-queued counts;
    the caller can assert arrived == completed + in_flight + queued.
    """
    lifecycle: dict[str, set[str]] = {"arrival": set(), "dispatch": set(), "complete": set()}
    try:
        for record in records:
            if record["event"] in lifecycle:
                lifecycle[record["event"]].add(record["task_id"])
    except KeyError as missing:
        raise IntegrityError(f"a log record lacks the field {missing}") from None
    arrived, dispatched, completed = lifecycle.values()
    if not dispatched <= arrived or not completed <= dispatched:
        raise IntegrityError("log references tasks outside their lifecycle")
    return {
        "arrived": len(arrived),
        "completed": len(completed),
        "in_flight": len(dispatched - completed),
        "queued": len(arrived - dispatched),
    }
