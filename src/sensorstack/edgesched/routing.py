"""Task-to-node placement and the utilization monitor."""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Sequence

from ..errors import TopologyError
from .types import NodeState, Task


@dataclass(frozen=True)
class RouteDecision:
    node_id: str
    redirected: bool


class UtilizationIndex:
    """The least-``(utilization, node_id)`` node of one kind, kept as load grows.

    A heap of ``(utilization, node_id)`` entries. An entry whose node has
    since filled up is stale; it is refreshed when it reaches the top, so
    the answer is exact as long as no node's utilization falls while the
    index is in use, which holds within one dispatcher cycle.
    """

    def __init__(self, nodes: Sequence[NodeState], kind: str):
        self._by_id = {n.node_id: n for n in nodes if n.kind == kind}
        self._heap = [(n.utilization, node_id) for node_id, n in self._by_id.items()]
        heapq.heapify(self._heap)

    def least(self) -> NodeState | None:
        heap = self._heap
        while heap:
            utilization, node_id = heap[0]
            node = self._by_id[node_id]
            if node.utilization == utilization:
                return node
            heapq.heapreplace(heap, (node.utilization, node_id))
        return None


def route(task: Task, least_medium: NodeState | None, least_unit: NodeState | None) -> RouteDecision:
    """Pick a node by compute class, spilling over under load.

    Light tasks prefer the least-utilized medium node; if even that one
    sits above its overload threshold the task is redirected to a
    computation unit. Heavy tasks always go to the least-utilized
    computation unit. ``least_medium`` and ``least_unit`` are the
    least-``(utilization, node_id)`` node of each kind, or None when the
    topology has none.
    """
    if task.compute_class == "heavy":
        if least_unit is None:
            raise TopologyError("no computation unit available for a heavy task")
        return RouteDecision(least_unit.node_id, redirected=False)
    if least_medium is None:
        raise TopologyError("no medium node available for a light task")
    if least_medium.utilization > least_medium.spec.overload_threshold:
        if least_unit is None:
            raise TopologyError("medium nodes overloaded and no computation unit to redirect to")
        return RouteDecision(least_unit.node_id, redirected=True)
    return RouteDecision(least_medium.node_id, redirected=False)


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

    @property
    def total_in_flight(self) -> int:
        return sum(n.in_flight for n in self.nodes)


def monitor_snapshot(nodes: Sequence[NodeState], now_ns: int) -> MonitorSnapshot:
    """Point-in-time utilization and queue depth across the topology."""
    return MonitorSnapshot(
        taken_at_ns=now_ns,
        nodes=tuple(
            NodeSnapshot(
                node_id=n.node_id,
                kind=n.kind,
                utilization=n.utilization,
                busy_slots=n.busy_slots,
                in_flight=n.in_flight,
                queue_length=n.queue_length,
            )
            for n in sorted(nodes, key=lambda n: n.node_id)
        ),
    )
