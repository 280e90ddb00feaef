"""Task, node, and metric records for the decay-based scheduler."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from ..errors import ConfigError, UsageError, checked_int, checked_real
from ..timebase import NS_PER_SEC

COMPUTE_CLASSES = ("light", "heavy")
NODE_KINDS = ("medium", "computation_unit")


@dataclass(frozen=True)
class Task:
    """One schedulable unit of work.

    ``initial_priority`` follows the urgency convention used throughout
    this module: smaller means more urgent. ``entry_time_ns`` is stamped
    when the task joins the queue and drives the aging term. Both times
    are integers; anything else, or a non-finite priority, is a UsageError.
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
        if not math.isfinite(checked_real(self.initial_priority, "initial_priority", UsageError)):
            raise UsageError("initial_priority must be a finite number")
        if type(self.entry_time_ns) is not int or type(self.service_demand_ns) is not int:
            checked_int(self.entry_time_ns, "entry_time_ns", UsageError)
            checked_int(self.service_demand_ns, "service_demand_ns", UsageError)
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
        if not 0 <= checked_real(self.alpha, "alpha", ConfigError) < math.inf:
            raise ConfigError("alpha must be finite and non-negative")
        if checked_int(self.cycle_period_ns, "cycle_period_ns", ConfigError) <= 0:
            raise ConfigError("cycle_period_ns must be positive")
        if checked_int(self.batch_window_ns, "batch_window_ns", ConfigError) < 0:
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
        if checked_int(self.capacity, "capacity", ConfigError) < 1:
            raise ConfigError("capacity must be at least 1")
        if not 0.0 <= checked_real(self.overload_threshold, "overload_threshold", ConfigError) <= 1.0:
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
class Batch:
    """Same-stage tasks gathered on a computation unit until ``close_t_ns``."""

    stage: str
    close_t_ns: int
    tasks: list[Task]

    @property
    def demand_ns(self) -> int:
        """A batch holds its slot for its longest member's demand."""
        return max(t.service_demand_ns for t in self.tasks)


@dataclass
class NodeState:
    """Live occupancy of one node, and the rule for placing work on it.

    A medium node runs one task per slot. A computation unit gathers
    same-stage tasks into a batch that stays open until its window
    closes, then runs the batch in one slot, or keeps it waiting for
    one. ``busy_slots`` counts running tasks or batches; ``in_flight``
    counts dispatched-but-not-completed tasks and ``queue_length`` the
    tasks in open or waiting batches.
    """

    spec: NodeSpec
    busy_slots: int = 0
    in_flight: int = 0
    queue_length: int = 0
    open_batches: dict[str, Batch] = field(default_factory=dict)
    waiting_batches: list[Batch] = field(default_factory=list)

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

    def accepts(self, task: Task) -> bool:
        """Whether the node takes ``task`` now.

        A medium node needs a free slot. A computation unit takes a task
        whose stage has an open batch, or opens a batch while some slot
        is neither running nor promised to a waiting or open batch.
        Taking work never makes a node accept a task it refused.
        """
        spec = self.spec
        if spec.kind == "medium":
            return self.busy_slots < spec.capacity
        if task.stage in self.open_batches:
            return True
        return self.busy_slots + len(self.waiting_batches) + len(self.open_batches) < spec.capacity

    def occupy(self, task: Task, close_t_ns: int) -> Batch | None:
        """Take ``task``; returns the batch it opened, to close at ``close_t_ns``."""
        self.in_flight += 1
        if self.spec.kind == "medium":
            self.busy_slots += 1
            return None
        self.queue_length += 1
        batch = self.open_batches.get(task.stage)
        if batch is not None:
            batch.tasks.append(task)
            return None
        batch = self.open_batches[task.stage] = Batch(task.stage, close_t_ns, [task])
        return batch

    def close_batch(self, batch: Batch) -> bool:
        """Seal an open batch; returns whether it starts now rather than waits."""
        del self.open_batches[batch.stage]
        if self.busy_slots < self.capacity:
            self._start(batch)
            return True
        self.waiting_batches.append(batch)
        return False

    def release(self, count: int) -> Batch | None:
        """Free the slot that ``count`` completed tasks held; returns the
        waiting batch that starts in it, if any."""
        self.busy_slots -= 1
        self.in_flight -= count
        if self.waiting_batches and self.busy_slots < self.capacity:
            batch = self.waiting_batches.pop(0)
            self._start(batch)
            return batch
        return None

    def _start(self, batch: Batch):
        self.busy_slots += 1
        self.queue_length -= len(batch.tasks)


@dataclass(frozen=True)
class ClassStats:
    """Latency and wait statistics for one initial-priority class."""

    count: int
    mean_latency_s: float
    wait_variance_s2: float

    def __post_init__(self):
        checked_int(self.count, "count", UsageError)
        checked_real(self.mean_latency_s, "mean_latency_s", UsageError)
        if checked_real(self.wait_variance_s2, "wait_variance_s2", UsageError) < 0:
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
