"""Aging-priority scheduler for a tiered edge topology.

Light tasks run on medium nodes, heavy tasks offload to computation
units that batch same-stage work, and queued tasks gain urgency as
alpha * ln(1 + wait) so nothing starves. A discrete-event simulator
drives the whole pipeline deterministically and writes replayable
event logs.
"""

from .cycle import Dispatch, TaskQueue, schedule_cycle
from .io import (
    metrics_to_dict,
    read_event_log,
    scheduler_config_from_dict,
    topology_from_dict,
    topology_to_dict,
    workload_from_dict,
    workload_to_dict,
    write_event_log,
    write_metrics_csv,
    write_metrics_json,
)
from .metrics import compute_metrics, conservation_check
from .priority import crossover_wait_s, effective_urgency
from .routing import (
    MonitorSnapshot,
    NodeSnapshot,
    RouteDecision,
    classify_and_route,
    monitor_snapshot,
)
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
    "RouteDecision",
    "SchedulerConfig",
    "SimMetrics",
    "SimResult",
    "StageSpec",
    "Task",
    "TaskQueue",
    "TopologySpec",
    "WorkloadSpec",
    "classify_and_route",
    "compute_metrics",
    "conservation_check",
    "crossover_wait_s",
    "effective_urgency",
    "metrics_to_dict",
    "monitor_snapshot",
    "read_event_log",
    "run_simulation",
    "schedule_cycle",
    "scheduler_config_from_dict",
    "topology_from_dict",
    "topology_to_dict",
    "workload_from_dict",
    "workload_to_dict",
    "write_event_log",
    "write_metrics_csv",
    "write_metrics_json",
]
