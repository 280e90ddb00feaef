"""One dispatcher pass: pick queued tasks by urgency, route, and place them."""

from __future__ import annotations

import heapq
import math
from bisect import insort
from collections import deque
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

from ..errors import UsageError
from .priority import effective_urgency
from .routing import UtilizationIndex, route
from .types import NodeState, SchedulerConfig, Task


@dataclass(frozen=True)
class Dispatch:
    task: Task
    node_id: str
    p_eff: float
    redirected: bool


def _default_accepts(node: NodeState, task: Task) -> bool:
    return node.busy_slots < node.capacity


def _default_occupy(node: NodeState, task: Task):
    node.busy_slots += 1
    node.in_flight += 1


def _arrival(task: Task) -> tuple[int, str]:
    return task.entry_time_ns, task.task_id


class TaskQueue:
    """Queued tasks, in groups whose members never change order.

    A group holds the tasks of one ``(initial_priority, compute_class,
    stage)``. Aging ``alpha * ln(1 + W)`` is the same function of the
    wait for every task, so inside a group urgency never falls as entry
    time rises, and the group's dispatch order is fixed: arrival order
    ``(entry_time_ns, task_id)``, which also breaks urgency ties.
    """

    def __init__(self, config: SchedulerConfig, tasks: Iterable[Task] = ()):
        self.config = config
        self._groups: dict[tuple, deque[Task]] = {}
        self._latest_entry_ns = -math.inf
        for task in sorted(tasks, key=_arrival):
            self.append(task)

    def append(self, task: Task):
        self._latest_entry_ns = max(self._latest_entry_ns, task.entry_time_ns)
        key = (task.initial_priority, task.compute_class, task.stage)
        group = self._groups.get(key)
        if group is None:
            self._groups[key] = deque([task])
        elif _arrival(task) >= _arrival(group[-1]):
            group.append(task)
        else:
            insort(group, task, key=_arrival)

    def __len__(self) -> int:
        return sum(len(group) for group in self._groups.values())

    def best_priority(self) -> float:
        """The smallest initial priority still queued; inf when empty."""
        return min((key[0] for key in self._groups), default=math.inf)


def schedule_cycle(
    queue: TaskQueue,
    nodes: Sequence[NodeState],
    now_ns: int,
    config: SchedulerConfig,
    accepts: Callable[[NodeState, Task], bool] = _default_accepts,
    occupy: Callable[[NodeState, Task], None] = _default_occupy,
) -> list[Dispatch]:
    """Dispatch the most urgent queued tasks onto willing nodes.

    Tasks are taken in urgency order at ``now_ns``, equal urgencies in
    arrival order ``(entry_time_ns, task_id)``, and each is placed on the
    node the routing rule picks, provided that node still accepts work.
    Placed tasks leave the queue; occupancy is updated through
    ``occupy`` between placements so later routing sees the load added
    earlier in the same cycle. Callers with richer node semantics (such
    as batch buffers) substitute their own ``accepts``/``occupy``.

    Contract on ``accepts``/``occupy``: ``occupy`` only adds load to the
    node it is given, and once ``accepts`` refuses a task it refuses
    every later task of the same ``(initial_priority, compute_class,
    stage)`` in the cycle. A task's node depends only on its compute
    class and node occupancy, and occupancy only grows, so the default
    callables and the simulator's both keep it. A refusal therefore ends
    that group's turn, and the group is not routed again until the next
    cycle.

    Cost: O(N + G + D log(N + G)) for N nodes, G non-empty groups and D
    tasks placed, whatever the queue's length.
    """
    if not isinstance(queue, TaskQueue):
        raise UsageError("schedule_cycle takes a TaskQueue")
    if queue.config != config:
        raise UsageError("the task queue was built for another scheduler config")
    if now_ns < queue._latest_entry_ns:
        raise UsageError("now precedes the task's entry time")

    def head(group: deque[Task]):
        """The group's next task and its full sort key."""
        task = group[0]
        return (effective_urgency(task, now_ns, config), task.entry_time_ns, task.task_id), task

    groups = queue._groups
    heads = []
    for rank, (group_key, group) in enumerate(groups.items()):
        sort_key, task = head(group)
        heads.append((sort_key, rank, group_key, task))
    heapq.heapify(heads)

    by_id = {n.node_id: n for n in nodes}
    mediums = UtilizationIndex(nodes, "medium")
    units = UtilizationIndex(nodes, "computation_unit")
    dispatches: list[Dispatch] = []
    while heads:
        sort_key, rank, group_key, task = heads[0]
        decision = route(task, mediums.least(), units.least())
        node = by_id[decision.node_id]
        if not accepts(node, task):
            heapq.heappop(heads)
            continue
        occupy(node, task)
        dispatches.append(Dispatch(task, node.node_id, sort_key[0], decision.redirected))
        group = groups[group_key]
        group.popleft()
        if group:
            sort_key, task = head(group)
            heapq.heapreplace(heads, (sort_key, rank, group_key, task))
        else:
            heapq.heappop(heads)
            del groups[group_key]
    return dispatches
