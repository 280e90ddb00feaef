"""Aging-priority scheduler for a tiered edge topology.

Light tasks run on medium nodes, heavy tasks offload to computation
units that batch same-stage work, and queued tasks gain urgency as
alpha * ln(1 + wait) so nothing starves. A discrete-event simulator
drives the whole pipeline deterministically and records a replayable
event log.
"""

from .cycle import Dispatch, TaskQueue, schedule_cycle
from .metrics import compute_metrics, conservation_check
from .priority import effective_urgency
from .routing import MonitorSnapshot, NodeSnapshot, monitor_snapshot
from .sim import SimResult, StageSpec, WorkloadSpec, run_simulation
from .types import (
    COMPUTE_CLASSES,
    NODE_KINDS,
    ClassStats,
    NodeSpec,
    NodeState,
    SchedulerConfig,
    SimMetrics,
    Task,
    TopologySpec,
)

__all__ = [
    "COMPUTE_CLASSES",
    "NODE_KINDS",
    "ClassStats",
    "Dispatch",
    "MonitorSnapshot",
    "NodeSnapshot",
    "NodeSpec",
    "NodeState",
    "SchedulerConfig",
    "SimMetrics",
    "SimResult",
    "StageSpec",
    "Task",
    "TaskQueue",
    "TopologySpec",
    "WorkloadSpec",
    "compute_metrics",
    "conservation_check",
    "effective_urgency",
    "monitor_snapshot",
    "run_simulation",
    "schedule_cycle",
]
