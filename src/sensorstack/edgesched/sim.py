"""Deterministic discrete-event simulation of the scheduler.

Arrivals, dispatcher cycles, batch windows, and completions run off a
single event heap keyed by (time, kind rank, insertion order), so the
same workload, topology, config, and seed always produce the same
event log byte for byte. Wall-clock is touched only to time the
scheduling computation itself; that measurement goes into the metrics,
never into the log.
"""

from __future__ import annotations

import heapq
import math
import time
from dataclasses import dataclass

import numpy as np

from ..errors import ConfigError
from ..timebase import NS_PER_SEC
from .cycle import TaskQueue, schedule_cycle
from .routing import MonitorSnapshot, monitor_snapshot
from .types import (
    COMPUTE_CLASSES,
    ClassStats,
    NodeState,
    SchedulerConfig,
    SimMetrics,
    Task,
    TopologySpec,
)

RANK_ARRIVAL = 0
RANK_COMPLETE = 1
RANK_CYCLE = 2
RANK_BATCH_CLOSE = 3
RANK_END = 4


@dataclass(frozen=True)
class StageSpec:
    """One task population: what it costs and how often it arrives."""

    name: str
    compute_class: str
    service_demand_ns: int
    initial_priority: float
    arrival_rate_hz: float

    def __post_init__(self):
        if self.compute_class not in COMPUTE_CLASSES:
            raise ConfigError(f"unknown compute class {self.compute_class!r}")
        if self.service_demand_ns <= 0:
            raise ConfigError("service_demand_ns must be positive")
        if not math.isfinite(self.arrival_rate_hz) or self.arrival_rate_hz < 0:
            raise ConfigError("arrival_rate_hz must be finite and non-negative")
        if not math.isfinite(self.initial_priority):
            raise ConfigError("initial_priority must be finite")


@dataclass(frozen=True)
class WorkloadSpec:
    stages: tuple[StageSpec, ...]
    duration_ns: int

    def __post_init__(self):
        object.__setattr__(self, "stages", tuple(self.stages))
        if not self.stages:
            raise ConfigError("workload needs at least one stage")
        names = [s.name for s in self.stages]
        if len(set(names)) != len(names):
            raise ConfigError("stage names must be unique")
        if self.duration_ns <= 0:
            raise ConfigError("duration_ns must be positive")


@dataclass(frozen=True)
class SimResult:
    metrics: SimMetrics
    records: tuple[dict, ...]
    snapshots: tuple[MonitorSnapshot, ...]


def _generate_arrivals(workload: WorkloadSpec, rng: np.random.Generator) -> list[Task]:
    tasks = []
    for stage in workload.stages:
        if stage.arrival_rate_hz == 0:
            continue
        t = 0.0
        index = 0
        mean_gap = 1.0 / stage.arrival_rate_hz
        while True:
            t += rng.exponential(mean_gap)
            t_ns = int(round(t * NS_PER_SEC))
            if t_ns >= workload.duration_ns:
                break
            tasks.append(
                Task(
                    task_id=f"{stage.name}-{index:05d}",
                    compute_class=stage.compute_class,
                    initial_priority=stage.initial_priority,
                    entry_time_ns=t_ns,
                    service_demand_ns=stage.service_demand_ns,
                    stage=stage.name,
                )
            )
            index += 1
    tasks.sort(key=lambda task: (task.entry_time_ns, task.task_id))
    return tasks


def _validate_topology(workload: WorkloadSpec, topology: TopologySpec):
    kinds = {n.kind for n in topology.nodes}
    if any(s.compute_class == "heavy" for s in workload.stages) and "computation_unit" not in kinds:
        raise ConfigError("workload has heavy stages but topology has no computation unit")
    if any(s.compute_class == "light" for s in workload.stages) and "medium" not in kinds:
        raise ConfigError("workload has light stages but topology has no medium node")


def run_simulation(
    workload: WorkloadSpec,
    topology: TopologySpec,
    config: SchedulerConfig,
    seed: int = 0,
) -> SimResult:
    """Run the scheduler against a synthetic workload.

    Tasks arrive by seeded Poisson processes, the dispatcher runs every
    cycle period, medium nodes execute one task per slot, and
    computation units gather same-stage tasks into batch windows that
    then occupy one slot for the longest member demand. The returned
    metrics are kept by live counters during the run; the event log
    carries enough to recompute them all independently (except the
    wall-clock scheduling overhead).
    """
    _validate_topology(workload, topology)
    rng = np.random.default_rng(seed)
    arrivals = _generate_arrivals(workload, rng)

    nodes = [NodeState(spec=spec) for spec in sorted(topology.nodes, key=lambda s: s.node_id)]
    by_id = {n.node_id: n for n in nodes}

    heap: list[tuple[int, int, int, object]] = []
    seq = 0

    def push(t_ns: int, rank: int, payload):
        nonlocal seq
        heapq.heappush(heap, (t_ns, rank, seq, payload))
        seq += 1

    for task in arrivals:
        push(task.entry_time_ns, RANK_ARRIVAL, task)
    push(0, RANK_CYCLE, None)
    push(workload.duration_ns, RANK_END, None)

    queue = TaskQueue(config)
    records: list[dict] = []
    snapshots: list[MonitorSnapshot] = []

    completions = 0
    dispatch_count = 0
    offload_count = 0
    inversion_count = 0
    waits_by_class: dict[float, list[int]] = {}
    latencies_by_class: dict[float, list[int]] = {}
    overhead_samples: list[float] = []

    while heap:
        t_ns, rank, _, payload = heapq.heappop(heap)

        if rank == RANK_ARRIVAL:
            task = payload
            queue.append(task)
            records.append(
                {
                    "t_ns": t_ns,
                    "event": "arrival",
                    "task_id": task.task_id,
                    "node_id": None,
                    "p_eff": None,
                    "stage": task.stage,
                    "compute_class": task.compute_class,
                    "p_initial": task.initial_priority,
                    "demand_ns": task.service_demand_ns,
                }
            )

        elif rank == RANK_COMPLETE:
            node, tasks = payload
            for task in tasks:
                completions += 1
                latencies_by_class.setdefault(task.initial_priority, []).append(
                    t_ns - task.entry_time_ns
                )
                records.append(
                    {
                        "t_ns": t_ns,
                        "event": "complete",
                        "task_id": task.task_id,
                        "node_id": node.node_id,
                        "p_eff": None,
                    }
                )
            batch = node.release(len(tasks))
            if batch is not None:
                push(t_ns + batch.demand_ns, RANK_COMPLETE, (node, tuple(batch.tasks)))

        elif rank == RANK_CYCLE:
            started = time.perf_counter()
            dispatches = schedule_cycle(queue, nodes, t_ns)
            overhead_samples.append(time.perf_counter() - started)

            remaining_best = queue.best_priority()
            for item in dispatches:
                dispatch_count += 1
                node = by_id[item.node_id]
                if node.kind == "computation_unit":
                    offload_count += 1
                if remaining_best < item.task.initial_priority:
                    inversion_count += 1
                waits_by_class.setdefault(item.task.initial_priority, []).append(
                    t_ns - item.task.entry_time_ns
                )
                if node.kind == "medium":
                    push(t_ns + item.task.service_demand_ns, RANK_COMPLETE, (node, (item.task,)))
                if item.opened is not None:
                    push(item.opened.close_t_ns, RANK_BATCH_CLOSE, (node, item.opened))
                records.append(
                    {
                        "t_ns": t_ns,
                        "event": "dispatch",
                        "task_id": item.task.task_id,
                        "node_id": item.node_id,
                        "p_eff": item.p_eff,
                        "node_kind": node.kind,
                        "redirected": item.redirected,
                        "wait_ns": t_ns - item.task.entry_time_ns,
                        "p_initial": item.task.initial_priority,
                    }
                )
            snapshots.append(monitor_snapshot(nodes, t_ns))
            next_cycle = t_ns + config.cycle_period_ns
            if next_cycle < workload.duration_ns:
                push(next_cycle, RANK_CYCLE, None)

        elif rank == RANK_BATCH_CLOSE:
            node, batch = payload
            if node.close_batch(batch):
                push(t_ns + batch.demand_ns, RANK_COMPLETE, (node, tuple(batch.tasks)))

        else:
            records.append(
                {
                    "t_ns": t_ns,
                    "event": "end",
                    "task_id": None,
                    "node_id": None,
                    "p_eff": None,
                }
            )
            break

    duration_s = workload.duration_ns / NS_PER_SEC
    metrics = SimMetrics(
        duration_s=duration_s,
        completed=completions,
        throughput_per_s=completions / duration_s,
        class_stats=ClassStats.by_class(waits_by_class, latencies_by_class),
        inversion_rate=inversion_count / dispatch_count if dispatch_count else 0.0,
        offload_fraction=offload_count / dispatch_count if dispatch_count else 0.0,
        overhead_ms_mean=float(np.mean(overhead_samples)) * 1e3 if overhead_samples else 0.0,
    )
    return SimResult(metrics=metrics, records=tuple(records), snapshots=tuple(snapshots))
