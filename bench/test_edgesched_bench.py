"""Micro-benchmarks of the edge scheduler: a whole simulation and one cycle.

    PYTHONPATH=src python -m pytest bench                      # timed
    PYTHONPATH=src python -m pytest bench --benchmark-disable  # one call each

The simulation is the decomposed pipeline at x16, the intersection
scale: eight stages at 480 tasks/s each (six light filters, two heavy
steps) for 1 s on 64 medium nodes of 2 slots and 32 computation units
of 4. The cycle is one dispatcher pass over 10,000 queued tasks from
those eight stages, on the same nodes, idle.
"""

import pytest

from sensorstack.edgesched import (
    NodeSpec,
    NodeState,
    SchedulerConfig,
    StageSpec,
    Task,
    TaskQueue,
    TopologySpec,
    WorkloadSpec,
    run_simulation,
    schedule_cycle,
)

NS = 1_000_000_000
MS = 1_000_000
SCALE = 16
STAGES = tuple(
    [StageSpec(f"filter{i}", "light", 30 * MS, 2.0, 30.0 * SCALE) for i in range(6)]
    + [
        StageSpec("detect", "heavy", 45 * MS, 1.0, 30.0 * SCALE),
        StageSpec("fuse", "heavy", 200 * MS, 1.0, 30.0 * SCALE),
    ]
)
TOPOLOGY = TopologySpec(
    nodes=tuple(
        [NodeSpec(f"m{i}", "medium", 2) for i in range(4 * SCALE)]
        + [NodeSpec(f"cu{i}", "computation_unit", 4) for i in range(2 * SCALE)]
    )
)


def test_run_simulation(benchmark):
    workload = WorkloadSpec(stages=STAGES, duration_ns=NS)
    result = benchmark(run_simulation, workload, TOPOLOGY, SchedulerConfig(), seed=11)
    assert result.metrics.completed > 0


@pytest.fixture(scope="module")
def queued_tasks():
    # 10,000 tasks, stage after stage, one every 0.1 ms
    return [
        Task(f"t{i:05d}", stage.compute_class, stage.initial_priority, i * 100_000, stage.service_demand_ns, stage.name)
        for i, stage in ((i, STAGES[i % len(STAGES)]) for i in range(10_000))
    ]


def test_schedule_cycle(benchmark, queued_tasks):
    config = SchedulerConfig()
    now_ns = NS

    def fresh():
        nodes = [NodeState(spec) for spec in TOPOLOGY.nodes]
        return (TaskQueue(config, queued_tasks), nodes, now_ns), {}

    dispatches = benchmark.pedantic(schedule_cycle, setup=fresh, rounds=20)
    assert 0 < len(dispatches) < len(queued_tasks)
