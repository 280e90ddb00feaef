"""Priority aging: waiting tasks gain urgency logarithmically."""

from __future__ import annotations

import math

from ..errors import UsageError
from ..timebase import NS_PER_SEC
from .types import SchedulerConfig, Task


def effective_urgency(task: Task, now_ns: int, config: SchedulerConfig) -> float:
    """Dispatch score P_initial - alpha * ln(1 + W): smaller is served first.

    W is the wait since the task entered the queue, in seconds. Smaller
    initial priority means more urgent, and waiting must help, so the
    aging term is subtracted. The logarithm makes early waiting count
    the most: the rate alpha / (1 + W) at which urgency grows keeps
    falling, so recently arrived tasks never leapfrog each other yet
    nothing waits forever. A task overtakes one that is ``delta`` levels
    more urgent once alpha * ln(1 + W) exceeds delta.
    """
    if now_ns < task.entry_time_ns:
        raise UsageError("now precedes the task's entry time")
    wait_s = (now_ns - task.entry_time_ns) / NS_PER_SEC
    return task.initial_priority - config.alpha * math.log1p(wait_s)

