"""Deterministic discrete-event simulation of the scheduler.

Events are ordered by (time, kind rank, insertion order). Arrivals are
drawn before the run starts, rank first, and are read off one sorted
run: the next event is the next arrival whenever its time is at or
before the earliest pending event. Dispatcher cycles, batch windows and
completions run off an event heap with that key. So the same workload,
topology, config, and seed always produce the same event log byte for
byte. Wall-clock is touched only to time the scheduling computation
itself; that measurement goes into the metrics, never into the log.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from heapq import heappop, heappush
from time import perf_counter

import numpy as np

from ..errors import ConfigError, UsageError, checked_int, checked_real
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

# ranks order events at equal times; arrivals, which never enter the
# heap, come before every ranked event
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
        # every field a Task takes from its stage is checked here as Task
        # checks it, so the simulator builds the stage's tasks unchecked
        if self.compute_class not in COMPUTE_CLASSES:
            raise ConfigError(f"unknown compute class {self.compute_class!r}")
        if checked_int(self.service_demand_ns, "service_demand_ns", ConfigError) <= 0:
            raise ConfigError("service_demand_ns must be positive")
        if not 0 <= checked_real(self.arrival_rate_hz, "arrival_rate_hz", ConfigError) < math.inf:
            raise ConfigError("arrival_rate_hz must be a finite non-negative number")
        if not math.isfinite(checked_real(self.initial_priority, "initial_priority", ConfigError)):
            raise ConfigError("initial_priority must be a finite number")


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
        if checked_int(self.duration_ns, "duration_ns", ConfigError) <= 0:
            raise ConfigError("duration_ns must be positive")


@dataclass(frozen=True)
class SimResult:
    metrics: SimMetrics
    records: tuple[dict, ...]
    snapshots: tuple[MonitorSnapshot, ...]


def _arrival_times(rate_hz: float, duration_ns: int, rng: np.random.Generator) -> list[int]:
    """One stage's Poisson arrival times before ``duration_ns``, in ns.

    The times, and the generator's state afterwards, are those of a clock
    that adds one ``rng.exponential(1 / rate_hz)`` gap at a time and rounds
    each sum to the nanosecond until a sum lands at or past the end. The
    gaps are drawn in blocks from a saved state: `np.cumsum` adds them in
    the clock's order and `np.rint` rounds half to even, as `round` does.
    Once the first late sum is found, the state is restored and exactly
    the gaps the clock would draw are drawn again.
    """
    mean_gap = 1.0 / rate_hz
    end = float(duration_ns)
    if end < duration_ns:  # the double next above, so "rounded sum >= end" stays exact
        end = math.nextafter(end, math.inf)
    saved = rng.bit_generator.state
    block = int(rate_hz * duration_ns / NS_PER_SEC) + 1  # the expected count; doubled while short
    clock = 0.0
    kept = 0
    while True:
        gaps = rng.exponential(mean_gap, block)
        gaps[0] += clock
        sums = np.cumsum(gaps)
        late = int(np.searchsorted(np.rint(sums * NS_PER_SEC), end))
        kept += late
        if late < block:
            break
        clock = float(sums[-1])
        block *= 2
    rng.bit_generator.state = saved
    sums = np.cumsum(rng.exponential(mean_gap, kept + 1)[:kept])
    return np.rint(sums * NS_PER_SEC).astype(np.int64).tolist()


def _generate_arrivals(workload: WorkloadSpec, rng: np.random.Generator) -> list[tuple[int, str, Task]]:
    """Every stage's arrivals as ``(entry_time_ns, task_id, task)``, sorted.

    Stages draw in workload order from ``rng``; task ids are unique, so
    the tuples sort without comparing tasks.
    """
    arrivals = []
    for stage in workload.stages:
        if stage.arrival_rate_hz == 0:
            continue
        name, compute_class = stage.name, stage.compute_class
        priority, demand = stage.initial_priority, stage.service_demand_ns
        for index, t_ns in enumerate(_arrival_times(stage.arrival_rate_hz, workload.duration_ns, rng)):
            task_id = f"{name}-{index:05d}"
            # StageSpec checked every field as Task would, and t_ns is an int
            task = object.__new__(Task)
            task.__dict__.update(
                task_id=task_id,
                compute_class=compute_class,
                initial_priority=priority,
                entry_time_ns=t_ns,
                service_demand_ns=demand,
                stage=name,
            )
            arrivals.append((t_ns, task_id, task))
    arrivals.sort()
    return arrivals


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
    if checked_int(seed, "seed", UsageError) < 0:
        raise UsageError("seed must be non-negative")
    _validate_topology(workload, topology)
    rng = np.random.default_rng(seed)
    # arrivals rank first, so the next arrival is the next event whenever
    # it is due no later than the heap's top; the sentinel never is, since
    # the end event pops first
    arrivals = iter(_generate_arrivals(workload, rng) + [(math.inf, None, None)])
    arrival_ns, _, arriving = next(arrivals)

    nodes = [NodeState(spec=spec) for spec in sorted(topology.nodes, key=lambda s: s.node_id)]
    by_id = {n.node_id: n for n in nodes}

    seq = itertools.count()
    heap: list[tuple[int, int, int, object]] = [
        (0, RANK_CYCLE, next(seq), None),
        (workload.duration_ns, RANK_END, next(seq), None),
    ]

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

    while True:
        next_ns = heap[0][0]
        while arrival_ns <= next_ns:
            queue.append(arriving)
            records.append(
                {
                    "t_ns": arrival_ns,
                    "event": "arrival",
                    "task_id": arriving.task_id,
                    "node_id": None,
                    "p_eff": None,
                    "stage": arriving.stage,
                    "compute_class": arriving.compute_class,
                    "p_initial": arriving.initial_priority,
                    "demand_ns": arriving.service_demand_ns,
                }
            )
            arrival_ns, _, arriving = next(arrivals)

        t_ns, rank, _, payload = heappop(heap)

        if rank == RANK_COMPLETE:
            node, tasks = payload
            node_id = node.spec.node_id
            completions += len(tasks)
            for task in tasks:
                latencies_by_class.setdefault(task.initial_priority, []).append(t_ns - task.entry_time_ns)
                records.append(
                    {
                        "t_ns": t_ns,
                        "event": "complete",
                        "task_id": task.task_id,
                        "node_id": node_id,
                        "p_eff": None,
                    }
                )
            batch = node.release(len(tasks))
            if batch is not None:
                heappush(heap, (t_ns + batch.demand_ns, RANK_COMPLETE, next(seq), (node, tuple(batch.tasks))))

        elif rank == RANK_CYCLE:
            started = perf_counter()
            dispatches = schedule_cycle(queue, nodes, t_ns)
            overhead_samples.append(perf_counter() - started)

            remaining_best = queue.best_priority()
            dispatch_count += len(dispatches)
            for item in dispatches:
                task = item.task
                node = by_id[item.node_id]
                kind = node.spec.kind
                priority = task.initial_priority
                wait_ns = t_ns - task.entry_time_ns
                if kind == "medium":
                    heappush(heap, (t_ns + task.service_demand_ns, RANK_COMPLETE, next(seq), (node, (task,))))
                else:
                    offload_count += 1
                if remaining_best < priority:
                    inversion_count += 1
                waits_by_class.setdefault(priority, []).append(wait_ns)
                if item.opened is not None:
                    heappush(heap, (item.opened.close_t_ns, RANK_BATCH_CLOSE, next(seq), (node, item.opened)))
                records.append(
                    {
                        "t_ns": t_ns,
                        "event": "dispatch",
                        "task_id": task.task_id,
                        "node_id": item.node_id,
                        "p_eff": item.p_eff,
                        "node_kind": kind,
                        "redirected": item.redirected,
                        "wait_ns": wait_ns,
                        "p_initial": priority,
                    }
                )
            snapshots.append(monitor_snapshot(nodes, t_ns))
            next_cycle = t_ns + config.cycle_period_ns
            if next_cycle < workload.duration_ns:
                heappush(heap, (next_cycle, RANK_CYCLE, next(seq), None))

        elif rank == RANK_BATCH_CLOSE:
            node, batch = payload
            if node.close_batch(batch):
                heappush(heap, (t_ns + batch.demand_ns, RANK_COMPLETE, next(seq), (node, tuple(batch.tasks))))

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
