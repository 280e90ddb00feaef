"""Task, node, and metric records for the decay-based scheduler."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from ..errors import ConfigError, UsageError
from ..timebase import NS_PER_SEC

COMPUTE_CLASSES = ("light", "heavy")
NODE_KINDS = ("medium", "computation_unit")


@dataclass(frozen=True)
class Task:
    """One schedulable unit of work.

    ``initial_priority`` follows the urgency convention used throughout
    this module: smaller means more urgent. ``entry_time_ns`` is stamped
    when the task joins the queue and drives the aging term.
    """

    task_id: str
    compute_class: str
    initial_priority: float
    entry_time_ns: int
    service_demand_ns: int
    stage: str = ""

    def __post_init__(self):
        if self.compute_class not in COMPUTE_CLASSES:
            raise UsageError(f"unknown compute class {self.compute_class!r}")
        if self.service_demand_ns <= 0:
            raise UsageError("service_demand_ns must be positive")


@dataclass(frozen=True)
class SchedulerConfig:
    """Aging strength, cycle cadence, and batching for the dispatcher.

    Equal urgencies are served first in, first out: by entry time, then
    task id.
    """

    alpha: float = 1.0
    cycle_period_ns: int = 100_000_000
    batch_window_ns: int = 100_000_000

    def __post_init__(self):
        if self.alpha < 0:
            raise ConfigError("alpha must be non-negative")
        if self.cycle_period_ns <= 0:
            raise ConfigError("cycle_period_ns must be positive")
        if self.batch_window_ns < 0:
            raise ConfigError("batch_window_ns must be non-negative")


@dataclass(frozen=True)
class NodeSpec:
    node_id: str
    kind: str
    capacity: int
    overload_threshold: float = 0.8

    def __post_init__(self):
        if self.kind not in NODE_KINDS:
            raise ConfigError(f"unknown node kind {self.kind!r}")
        if self.capacity < 1:
            raise ConfigError("capacity must be at least 1")
        if not 0.0 <= self.overload_threshold <= 1.0:
            raise ConfigError("overload_threshold must lie in [0, 1]")


@dataclass(frozen=True)
class TopologySpec:
    nodes: tuple[NodeSpec, ...]

    def __post_init__(self):
        object.__setattr__(self, "nodes", tuple(self.nodes))
        ids = [n.node_id for n in self.nodes]
        if len(set(ids)) != len(ids):
            raise ConfigError("node ids must be unique")


@dataclass
class NodeState:
    """Live occupancy of one node during a simulation or cycle.

    ``busy_slots`` counts occupied execution slots (one per running
    task on medium nodes, one per running batch on computation units);
    ``in_flight`` counts dispatched-but-not-completed tasks, which on a
    computation unit can exceed ``busy_slots`` while a batch is still
    filling.
    """

    spec: NodeSpec
    busy_slots: int = 0
    in_flight: int = 0
    queue_length: int = 0

    @property
    def node_id(self) -> str:
        return self.spec.node_id

    @property
    def kind(self) -> str:
        return self.spec.kind

    @property
    def capacity(self) -> int:
        return self.spec.capacity

    @property
    def utilization(self) -> float:
        return self.busy_slots / self.spec.capacity


@dataclass(frozen=True)
class ClassStats:
    """Latency and wait statistics for one initial-priority class."""

    count: int
    mean_latency_s: float
    wait_variance_s2: float

    def __post_init__(self):
        if self.wait_variance_s2 < 0:
            raise UsageError("variance cannot be negative")

    @classmethod
    def by_class(cls, waits: Mapping[float, Sequence[int]], latencies: Mapping[float, Sequence[int]]) -> dict:
        """Stats per initial priority, ascending, from dispatch waits and
        completion latencies in nanoseconds, both keyed by that priority.
        """
        stats = {}
        for p in sorted(set(waits) | set(latencies)):
            done = latencies.get(p, [])
            waited = waits.get(p, [])
            stats[p] = cls(
                count=len(done),
                mean_latency_s=float(np.mean(done) / NS_PER_SEC) if done else 0.0,
                wait_variance_s2=float(np.var(np.array(waited) / NS_PER_SEC)) if waited else 0.0,
            )
        return stats


@dataclass(frozen=True)
class SimMetrics:
    """Aggregate outcome of one simulation run.

    ``overhead_ms_mean`` is wall-clock time spent inside the scheduling
    computation per cycle; it is the one field that cannot be rebuilt
    from the (deterministic) event log.
    """

    duration_s: float
    completed: int
    throughput_per_s: float
    class_stats: dict[float, ClassStats] = field(default_factory=dict)
    inversion_rate: float = 0.0
    offload_fraction: float = 0.0
    overhead_ms_mean: float = 0.0

    def __post_init__(self):
        for name in ("inversion_rate", "offload_fraction"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise UsageError(f"{name} must lie in [0, 1]")
