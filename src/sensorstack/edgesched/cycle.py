"""One dispatcher pass: pick queued tasks by urgency, route, and place them."""

from __future__ import annotations

import heapq
import math
from bisect import insort
from collections import deque
from dataclasses import dataclass
from typing import Iterable, Sequence

from ..errors import TopologyError, UsageError
from .priority import effective_urgency
from .routing import UtilizationIndex, route
from .types import Batch, NodeState, SchedulerConfig, Task


@dataclass(frozen=True, slots=True)
class Dispatch:
    """A placed task; ``opened`` is the batch it opened on a computation unit."""

    task: Task
    node_id: str
    p_eff: float
    redirected: bool
    opened: Batch | None


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
        entry_ns = task.entry_time_ns
        if entry_ns > self._latest_entry_ns:
            self._latest_entry_ns = entry_ns
        key = (task.initial_priority, task.compute_class, task.stage)
        group = self._groups.get(key)
        if group is None:
            self._groups[key] = deque([task])
        elif (entry_ns, task.task_id) >= _arrival(group[-1]):
            group.append(task)
        else:
            insort(group, task, key=_arrival)

    def __len__(self) -> int:
        return sum(len(group) for group in self._groups.values())

    def best_priority(self) -> float:
        """The smallest initial priority still queued; inf when empty."""
        return min((key[0] for key in self._groups), default=math.inf)


def schedule_cycle(queue: TaskQueue, nodes: Sequence[NodeState], now_ns: int) -> list[Dispatch]:
    """Dispatch the most urgent queued tasks onto willing nodes.

    Tasks are taken in urgency order at ``now_ns`` under the queue's
    ``config``, equal urgencies in arrival order ``(entry_time_ns,
    task_id)``, and each is placed on the node the routing rule picks,
    provided that node still accepts work (``NodeState.accepts``).
    Placed tasks leave the queue; each placement occupies its node at
    once, so later routing sees the load added earlier in the same
    cycle. A batch opened on a computation unit is due to close the
    config's ``batch_window_ns`` from now; the caller closes it with
    ``NodeState.close_batch``.

    A task's node depends only on its compute class and node occupancy,
    occupancy only grows within a cycle, and a node that refused a task
    refuses every later one of the same ``(initial_priority,
    compute_class, stage)``. So when routing finds no node or the node
    refuses, that group's turn ends and its tasks wait for the next
    cycle. Every error is raised before anything is taken, leaving the
    queue and the nodes unchanged.

    Cost: O(N + G + D log(N + G)) for N nodes, G non-empty groups and D
    tasks placed, whatever the queue's length.
    """
    if not isinstance(queue, TaskQueue):
        raise UsageError("schedule_cycle takes a TaskQueue")
    config = queue.config
    if now_ns < queue._latest_entry_ns:
        raise UsageError("now precedes the task's entry time")
    groups = queue._groups
    classes = {compute_class for _, compute_class, _ in groups}
    mediums = UtilizationIndex(nodes, "medium")
    units = UtilizationIndex(nodes, "computation_unit")
    if "heavy" in classes and units.least() is None:
        raise TopologyError("no computation unit available for a heavy task")
    if "light" in classes and mediums.least() is None:
        raise TopologyError("no medium node available for a light task")

    def head(group: deque[Task]):
        """The group's next task and its full sort key."""
        task = group[0]
        return (effective_urgency(task, now_ns, config), task.entry_time_ns, task.task_id), task

    heads = []
    for rank, (group_key, group) in enumerate(groups.items()):
        sort_key, task = head(group)
        heads.append((sort_key, rank, group_key, task))
    heapq.heapify(heads)

    close_t_ns = now_ns + config.batch_window_ns
    dispatches: list[Dispatch] = []
    while heads:
        sort_key, rank, group_key, task = heads[0]
        placed = route(task, mediums, units)
        if placed is None or not placed[0].accepts(task):
            heapq.heappop(heads)
            continue
        node, redirected = placed
        opened = node.occupy(task, close_t_ns)
        dispatches.append(Dispatch(task, node.spec.node_id, sort_key[0], redirected, opened))
        group = groups[group_key]
        group.popleft()
        if group:
            sort_key, task = head(group)
            heapq.heapreplace(heads, (sort_key, rank, group_key, task))
        else:
            heapq.heappop(heads)
            del groups[group_key]
    return dispatches
