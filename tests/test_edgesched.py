"""Tests for the aging-priority scheduler and its simulator."""

from __future__ import annotations

import copy
import dataclasses
import hashlib
import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import budget, generate_arrivals_scalar, schedule_cycle_sorted
from sensorstack.edgesched import (
    COMPUTE_CLASSES,
    ClassStats,
    MonitorSnapshot,
    NodeSnapshot,
    NodeSpec,
    NodeState,
    SchedulerConfig,
    SimMetrics,
    StageSpec,
    Task,
    TaskQueue,
    TopologySpec,
    WorkloadSpec,
    compute_metrics,
    conservation_check,
    effective_urgency,
    monitor_snapshot,
    run_simulation,
    schedule_cycle,
)
from sensorstack.edgesched.routing import UtilizationIndex, route
from sensorstack.edgesched.sim import _generate_arrivals
from sensorstack.edgesched.types import Batch
from sensorstack.errors import ConfigError, IntegrityError, SensorStackError, TopologyError, UsageError

NS = 1_000_000_000
MS = 1_000_000


def light(task_id, priority, entry_ns, demand_ns=10 * MS):
    return Task(task_id, "light", priority, entry_ns, demand_ns)


def heavy(task_id, priority, entry_ns, demand_ns=50 * MS, stage="detect"):
    return Task(task_id, "heavy", priority, entry_ns, demand_ns, stage=stage)


def medium_node(node_id="m0", capacity=1, threshold=0.8):
    return NodeState(spec=NodeSpec(node_id, "medium", capacity, threshold))


def unit_node(node_id="cu0", capacity=1):
    return NodeState(spec=NodeSpec(node_id, "computation_unit", capacity))


def route_over(task, nodes):
    """`route` over the least-utilized node of each kind, as a cycle calls it."""
    return route(task, UtilizationIndex(nodes, "medium"), UtilizationIndex(nodes, "computation_unit"))


def queued(queue):
    """The tasks a `TaskQueue` still holds, by task id."""
    return sorted((task for group in queue._groups.values() for task in group), key=lambda t: t.task_id)


def cycle(tasks, nodes, now_ns, config):
    """One `schedule_cycle` over a fresh queue of ``tasks``; returns its
    dispatches and the queue."""
    queue = TaskQueue(config, tasks)
    return schedule_cycle(queue, nodes, now_ns), queue


# -- workloads reused across the experiment tests --------------------------

def decomposed_pipeline(duration_ns=10 * NS, scale=1):
    """Eight stages at 30/s each (x scale): six light filters and two heavy steps."""
    rate = 30.0 * scale
    stages = tuple(
        [StageSpec(f"filter{i}", "light", 30 * MS, 2.0, rate) for i in range(6)]
        + [
            StageSpec("detect", "heavy", 45 * MS, 1.0, rate),
            StageSpec("fuse", "heavy", 200 * MS, 1.0, rate),
        ]
    )
    return WorkloadSpec(stages=stages, duration_ns=duration_ns)


def tiered_topology(scale=1):
    return TopologySpec(
        nodes=tuple(
            [NodeSpec(f"m{i}", "medium", 2) for i in range(4 * scale)]
            + [NodeSpec(f"cu{i}", "computation_unit", 4) for i in range(2 * scale)]
        )
    )


def monolithic_workload(duration_ns=10 * NS):
    """The same pipeline as one 425 ms task, run serially on one device."""
    return WorkloadSpec(
        stages=(StageSpec("monolith", "light", 425 * MS, 1.0, 30.0),),
        duration_ns=duration_ns,
    )


def single_device_topology():
    return TopologySpec(nodes=(NodeSpec("dev0", "medium", 1, overload_threshold=1.0),))


def two_priority_workload(duration_ns=20 * NS):
    """Two classes at the cycle-quantized capacity of the two-node tier."""
    return WorkloadSpec(
        stages=(
            StageSpec("urgent", "light", 80 * MS, 0.0, 40.0),
            StageSpec("relaxed", "light", 80 * MS, 1.0, 40.0),
        ),
        duration_ns=duration_ns,
    )


def two_priority_topology():
    return TopologySpec(
        nodes=(
            NodeSpec("m0", "medium", 4, overload_threshold=1.0),
            NodeSpec("m1", "medium", 4, overload_threshold=1.0),
        )
    )


def offload_mix_workload(duration_ns=10 * NS):
    """A 53/47 light-to-heavy arrival mix with headroom on the mediums."""
    return WorkloadSpec(
        stages=(
            StageSpec("light_sum", "light", 10 * MS, 2.0, 53.0),
            StageSpec("heavy_sum", "heavy", 60 * MS, 1.0, 47.0),
        ),
        duration_ns=duration_ns,
    )


def offload_mix_topology():
    return TopologySpec(
        nodes=tuple(
            [NodeSpec(f"m{i}", "medium", 4) for i in range(3)]
            + [NodeSpec("cu0", "computation_unit", 4)]
        )
    )


class TestPriorityAging:
    def test_zero_wait_returns_initial(self):
        task = light("t", 3.5, 42)
        config = SchedulerConfig(alpha=7.0)
        assert effective_urgency(task, 42, config) == 3.5

    def test_gap_one_closes_at_e_minus_one(self):
        task = light("t", 2.0, 0)
        config = SchedulerConfig(alpha=1.0)
        now = int(round((math.e - 1) * NS))
        assert effective_urgency(task, now, config) == pytest.approx(1.0, abs=1e-9)

    def test_alpha_two_nine_seconds(self):
        task = light("t", 1.0, 0)
        config = SchedulerConfig(alpha=2.0)
        expected = 1.0 - 2.0 * math.log(10.0)
        assert effective_urgency(task, 9 * NS, config) == pytest.approx(expected, rel=1e-12)
        assert expected == pytest.approx(-3.605170185988, rel=1e-10)

    def test_monotone_with_decreasing_growth(self):
        task = light("t", 0.0, 0)
        config = SchedulerConfig(alpha=1.0)
        values = [effective_urgency(task, w * NS, config) for w in range(0, 20)]
        diffs = np.diff(values)
        assert np.all(diffs < 0)
        assert np.all(np.diff(diffs) > 0)

    def test_overtake_exactly_past_crossover(self):
        config = SchedulerConfig(alpha=1.0)
        old = light("old", 1.0, 0)
        fresh_urgency = 0.0
        # aging closes a gap of 1 at alpha 1 once ln(1 + W) = 1
        w_star = math.e - 1
        just_before = int((w_star - 0.01) * NS)
        just_after = int((w_star + 0.01) * NS)
        assert effective_urgency(old, just_before, config) > fresh_urgency
        assert effective_urgency(old, just_after, config) < fresh_urgency

    def test_aging_is_unbounded(self):
        task = light("t", 10.0, 0)
        config = SchedulerConfig(alpha=1.0)
        assert effective_urgency(task, 10_000_000 * NS, config) < 0.0

    def test_now_before_entry_rejected(self):
        task = light("t", 0.0, 5 * NS)
        config = SchedulerConfig()
        with pytest.raises(UsageError):
            effective_urgency(task, 4 * NS, config)


class TestRouting:
    def test_light_goes_to_idle_medium(self):
        nodes = [medium_node("m0"), unit_node("cu0")]
        node, redirected = route_over(light("t", 0.0, 0), nodes)
        assert node.node_id == "m0"
        assert not redirected

    def test_heavy_goes_to_unit(self):
        nodes = [medium_node("m0"), unit_node("cu0")]
        node, redirected = route_over(heavy("t", 0.0, 0), nodes)
        assert node.node_id == "cu0"
        assert not redirected

    def test_least_utilized_medium_wins(self):
        busy = medium_node("m0", capacity=4)
        busy.busy_slots = 2
        idle = medium_node("m1", capacity=4)
        assert route_over(light("t", 0.0, 0), [busy, idle])[0].node_id == "m1"

    def test_utilization_tie_breaks_by_node_id(self):
        a = medium_node("mb", capacity=2)
        b = medium_node("ma", capacity=2)
        assert route_over(light("t", 0.0, 0), [a, b])[0].node_id == "ma"

    def test_overloaded_medium_redirects(self):
        full = medium_node("m0", capacity=1, threshold=0.8)
        full.busy_slots = 1
        node, redirected = route_over(light("t", 0.0, 0), [full, unit_node("cu0")])
        assert node.node_id == "cu0"
        assert redirected

    def test_exactly_at_threshold_stays(self):
        half = medium_node("m0", capacity=2, threshold=0.5)
        half.busy_slots = 1
        node, redirected = route_over(light("t", 0.0, 0), [half, unit_node("cu0")])
        assert node.node_id == "m0"
        assert not redirected

    def test_missing_node_kinds_rejected(self):
        with pytest.raises(TopologyError, match="computation unit"):
            cycle([heavy("t", 0.0, 0)], [medium_node("m0")], 0, SchedulerConfig())
        with pytest.raises(TopologyError, match="medium node"):
            cycle([light("t", 0.0, 0)], [unit_node("cu0")], 0, SchedulerConfig())

    def test_overloaded_mediums_without_unit_make_the_task_wait(self):
        full = medium_node("m0", capacity=1)
        full.busy_slots = 1
        assert route_over(light("t", 0.0, 0), [full]) is None
        out, queue = cycle([light("t", 0.0, 0)], [full], 0, SchedulerConfig())
        assert out == []
        assert [t.task_id for t in queued(queue)] == ["t"]

    def test_monitor_snapshot_shape(self):
        a = medium_node("m1", capacity=2)
        a.busy_slots = 2
        a.in_flight = 2
        b = unit_node("cu0", capacity=4)
        b.in_flight = 3
        b.queue_length = 3
        snap = monitor_snapshot([a, b], 77)
        assert snap.taken_at_ns == 77
        assert [n.node_id for n in snap.nodes] == ["cu0", "m1"]
        assert snap.nodes[1].utilization == 1.0
        assert snap.nodes[0].utilization == 0.0
        assert sum(n.in_flight for n in snap.nodes) == 5

    def test_monitor_snapshot_equals_its_dataclasses_built_by_init(self):
        """The snapshots filled in without ``__init__`` compare, hash and
        print as the frozen dataclasses built field by field, and stay frozen."""
        rng = np.random.default_rng(9)
        nodes = [medium_node(f"m{i}", capacity=int(rng.integers(1, 5))) for i in range(7)]
        nodes += [unit_node(f"cu{i}", capacity=int(rng.integers(1, 5))) for i in range(5)]
        for node in nodes:
            node.busy_slots, node.in_flight, node.queue_length = (int(v) for v in rng.integers(0, 9, 3))
        rng.shuffle(nodes)
        snap = monitor_snapshot(nodes, 123)
        built = MonitorSnapshot(taken_at_ns=123, nodes=tuple(
            NodeSnapshot(n.node_id, n.kind, n.utilization, n.busy_slots, n.in_flight, n.queue_length)
            for n in sorted(nodes, key=lambda n: n.node_id)
        ))
        assert snap == built
        assert hash(snap) == hash(built)
        assert repr(snap) == repr(built)
        assert [vars(n) for n in snap.nodes] == [vars(n) for n in built.nodes]
        with pytest.raises(dataclasses.FrozenInstanceError):
            snap.nodes[0].busy_slots = 0
        with pytest.raises(dataclasses.FrozenInstanceError):
            snap.taken_at_ns = 0


class TestScheduleCycle:
    def test_urgency_order(self):
        tasks = [light("a", 3.0, 0), light("b", 1.0, 0), light("c", 2.0, 0)]
        nodes = [medium_node("m0", capacity=3)]
        out, queue = cycle(tasks, nodes, 0, SchedulerConfig())
        assert [d.task.task_id for d in out] == ["b", "c", "a"]
        assert queued(queue) == []

    def test_zero_free_slots_dispatches_nothing(self):
        node = medium_node("m0", capacity=1, threshold=1.0)
        node.busy_slots = 1
        out, queue = cycle([light("a", 0.0, 0)], [node], 0, SchedulerConfig())
        assert out == []
        assert [t.task_id for t in queued(queue)] == ["a"]

    def test_greedy_skip_keeps_losers_queued(self):
        tasks = [light("a", 2.0, 0), light("b", 0.0, 0), light("c", 1.0, 0)]
        out, queue = cycle(tasks, [medium_node("m0", capacity=1, threshold=1.0)], 0, SchedulerConfig())
        assert [d.task.task_id for d in out] == ["b"]
        assert [t.task_id for t in queued(queue)] == ["a", "c"]

    def test_fifo_tie_break(self):
        config = SchedulerConfig(alpha=0.0)
        tasks = [light("late", 1.0, 2 * NS), light("early", 1.0, 1 * NS)]
        out, _ = cycle(tasks, [medium_node(capacity=2)], 3 * NS, config)
        assert [d.task.task_id for d in out] == ["early", "late"]

    def test_fifo_tie_break_across_groups(self):
        config = SchedulerConfig(alpha=0.0)
        tasks = [heavy("a", 1.0, 2 * NS, stage="fuse"), heavy("b", 1.0, 1 * NS)]
        out, _ = cycle(tasks, [unit_node(capacity=2)], 3 * NS, config)
        assert [d.task.task_id for d in out] == ["b", "a"]

    def test_rounded_urgency_ties_go_by_arrival(self):
        # at alpha 1e-12 entries a nanosecond apart age to one urgency, so
        # entry time orders them; half a second apart they do not tie
        config = SchedulerConfig(alpha=1e-12)
        tasks = [light("c", 1.0, 0), light("a", 1.0, 1), light("b", 1.0, 2), light("0", 1.0, NS // 2)]
        assert effective_urgency(tasks[0], NS, config) == effective_urgency(tasks[2], NS, config)
        out, _ = cycle(tasks, [medium_node(capacity=4, threshold=1.0)], NS, config)
        assert [d.task.task_id for d in out] == ["c", "a", "b", "0"]

    def test_now_before_a_queued_entry_rejected(self):
        full = medium_node(capacity=1)
        full.busy_slots = 1
        queue = TaskQueue(SchedulerConfig(), [light("a", 0.0, 0), light("b", 0.0, 2 * NS)])
        with pytest.raises(UsageError):
            schedule_cycle(queue, [full], NS)
        assert [t.task_id for t in queued(queue)] == ["a", "b"]

    def test_order_independent_of_queue_permutation(self):
        config = SchedulerConfig()
        tasks = [light(f"t{i}", float(i % 3), (i * 100) * MS) for i in range(5)]
        baseline = None
        for perm in itertools.permutations(tasks):
            nodes = [medium_node("m0", capacity=1, threshold=1.0),
                     medium_node("m1", capacity=1, threshold=1.0)]
            queue = TaskQueue(config)
            for task in perm:
                queue.append(task)
            out = schedule_cycle(queue, nodes, 1 * NS)
            ids = [d.task.task_id for d in out]
            if baseline is None:
                baseline = ids
            assert ids == baseline

    def test_overtake_happens_within_one_cycle_of_crossover(self):
        config = SchedulerConfig(alpha=1.0, cycle_period_ns=100 * MS)
        old = light("old", 1.0, 0)
        overtake_ns = None
        for k in range(1, 40):
            now = k * 100 * MS
            fresh = light(f"fresh-{k}", 0.0, now)
            out, _ = cycle([old, fresh], [medium_node(capacity=1, threshold=1.0)], now, config)
            assert len(out) == 1
            if out[0].task.task_id == "old":
                overtake_ns = now
                break
        assert overtake_ns is not None
        w_star = math.e - 1
        assert abs(overtake_ns / NS - w_star) <= config.cycle_period_ns / NS
        assert overtake_ns == 1_800 * MS

    def test_routing_load_updates_within_cycle(self):
        nodes = [medium_node("m0", capacity=1, threshold=1.0),
                 medium_node("m1", capacity=1, threshold=1.0)]
        out, _ = cycle([light("a", 0.0, 0), light("b", 1.0, 0)], nodes, 0, SchedulerConfig())
        assert {d.node_id for d in out} == {"m0", "m1"}


def outcome(run):
    """What one cycle returned, or the package error it raised."""
    try:
        return run(), None
    except SensorStackError as error:
        return None, (type(error), str(error))


@st.composite
def cycle_inputs(draw, alphas=(0.0, 1e-12, 1e-9, 0.5, 1.0, 3.0)):
    """A queue, a topology with some slots taken, a time and a config.

    Entry times sit on a few grid points a drawn unit apart, so tasks
    share entry times, and at alpha 1e-12 distinct entry times round to
    equal urgencies; task ids are drawn apart from entry order.
    """
    count = draw(st.integers(0, 30))
    ids = draw(st.lists(st.integers(0, 99), min_size=count, max_size=count, unique=True))
    unit = draw(st.sampled_from([1, 1_000, MS, 100 * MS]))
    tasks = [
        Task(
            f"t{i:02d}",
            draw(st.sampled_from(COMPUTE_CLASSES)),
            draw(st.sampled_from([0.0, 0.5, 1.0, 2.0])),
            draw(st.integers(0, 6)) * unit,
            10 * MS,
            stage=draw(st.sampled_from(["a", "b"])),
        )
        for i in ids
    ]
    nodes = []
    for kind, prefix, most in (("medium", "m", 3), ("computation_unit", "cu", 2)):
        for k in range(draw(st.integers(0, most))):
            capacity = draw(st.integers(1, 3))
            threshold = draw(st.sampled_from([0.0, 0.5, 0.8, 1.0]) | st.floats(0.0, 1.0))
            state = NodeState(spec=NodeSpec(f"{prefix}{k}", kind, capacity, threshold))
            state.busy_slots = draw(st.integers(0, capacity + 1))
            if kind == "computation_unit":
                # batches left open or waiting by earlier cycles
                for stage in draw(st.sets(st.sampled_from(["a", "b"]))):
                    state.open_batches[stage] = Batch(stage, 0, [heavy(f"open-{stage}", 0.0, 0, stage=stage)])
                for index in range(draw(st.integers(0, 1))):
                    state.waiting_batches.append(Batch("a", 0, [heavy(f"waiting-{index}", 0.0, 0, stage="a")]))
            nodes.append(state)
    nodes = draw(st.permutations(nodes))
    latest = max((t.entry_time_ns for t in tasks), default=0)
    now_ns = latest + draw(st.sampled_from([-1, 0, 1, unit, NS, 3 * NS]))
    config = SchedulerConfig(
        alpha=draw(st.sampled_from(alphas)),
        batch_window_ns=draw(st.sampled_from([0, SchedulerConfig().batch_window_ns])),
    )
    appended = draw(st.permutations(tasks))
    return tasks, nodes, now_ns, config, appended


class TestScheduleCycleMatchesSortedWalk:
    """Per-group queues dispatch exactly what the full sort dispatched."""

    @settings(max_examples=budget(300), deadline=None)
    @given(cycle_inputs())
    def test_identical_cycle(self, inputs):
        self.check(inputs)

    @settings(max_examples=budget(100), deadline=None)
    @given(cycle_inputs(alphas=(1e-12,)))
    def test_identical_cycle_when_urgencies_round_to_ties(self, inputs):
        self.check(inputs)

    @staticmethod
    def check(inputs):
        tasks, nodes, now_ns, config, appended = inputs
        expected_queue = list(tasks)
        expected_nodes = copy.deepcopy(nodes)
        expected = outcome(lambda: schedule_cycle_sorted(expected_queue, expected_nodes, now_ns, config))
        # a queue built from the tasks at once, and one filled in any
        # order, out-of-order appends included
        filled = TaskQueue(config)
        for task in appended:
            filled.append(task)
        for queue in (TaskQueue(config, tasks), filled):
            got_nodes = copy.deepcopy(nodes)
            assert outcome(lambda: schedule_cycle(queue, got_nodes, now_ns)) == expected
            assert got_nodes == expected_nodes
            assert queued(queue) == sorted(expected_queue, key=lambda t: t.task_id)
            assert len(queue) == len(expected_queue)
            assert queue.best_priority() == min((t.initial_priority for t in expected_queue), default=math.inf)
            if expected[1] is not None:
                # a cycle that raises takes nothing
                assert got_nodes == nodes
                assert len(queue) == len(tasks)

    def test_raising_cycle_leaves_queue_and_nodes_unchanged(self):
        # the light task would be placed first, but the heavy one has no unit
        tasks = [light("a", 0.0, 0), heavy("b", 1.0, 0)]
        nodes = [medium_node("m0", capacity=2)]
        before = copy.deepcopy(nodes)
        queue = TaskQueue(SchedulerConfig(), tasks)
        with pytest.raises(TopologyError):
            schedule_cycle(queue, nodes, NS)
        assert nodes == before
        assert queued(queue) == tasks

    def test_refusal_costs_one_accept_per_group(self, monkeypatch):
        # 10,000 tasks in 4 groups: two priorities times two compute classes
        config = SchedulerConfig()
        tasks = [
            Task(f"t{i:05d}", COMPUTE_CLASSES[i % 2], float(i // 2 % 2), i * MS, 10 * MS)
            for i in range(10_000)
        ]
        nodes = [medium_node(f"m{k}", capacity=2, threshold=1.0) for k in range(4)]
        nodes += [unit_node(f"cu{k}", capacity=4) for k in range(2)]
        for node in nodes:
            node.busy_slots = node.capacity
        calls = []
        accepts = NodeState.accepts

        def counted(node, task):
            calls.append(task.task_id)
            return accepts(node, task)

        monkeypatch.setattr(NodeState, "accepts", counted)
        queue = TaskQueue(config, tasks)
        now = 10 * NS
        assert schedule_cycle(queue, nodes, now) == []
        assert len(calls) <= 4

        # two medium slots free up; the units stay full
        nodes[0].busy_slots = 0
        calls.clear()
        out = schedule_cycle(queue, nodes, now + 100 * MS)
        assert [d.node_id for d in out] == ["m0", "m0"]
        assert len(calls) <= 2 + 4
        assert len(queue) == len(tasks) - 2

        # a free unit slot opens one batch that every heavy task joins
        nodes[4].busy_slots = 3
        calls.clear()
        out = schedule_cycle(queue, nodes, now + 200 * MS)
        assert len(out) == len(tasks) // 2
        assert {d.node_id for d in out} == {"cu0"}
        assert [d.opened is not None for d in out].count(True) == 1
        assert len(calls) <= len(out) + 4

    @pytest.mark.parametrize("alpha, order", [(0.0, ["new", "old"]), (1.0, ["old", "new"])])
    def test_cycle_ages_tasks_by_the_queues_config(self, alpha, order):
        # after 10 s the old task's urgency is 1 - alpha * ln(11): below the new one's 0.5 only when it ages
        queue = TaskQueue(SchedulerConfig(alpha=alpha), [light("old", 1.0, 0), light("new", 0.5, 10 * NS)])
        out = schedule_cycle(queue, [medium_node(capacity=2, threshold=1.0)], 10 * NS)
        assert [d.task.task_id for d in out] == order

    def test_plain_list_rejected(self):
        with pytest.raises(UsageError, match="TaskQueue"):
            schedule_cycle([light("a", 0.0, 0)], [medium_node()], 0)


class TestValidation:
    def test_task_rejects_bad_fields(self):
        with pytest.raises(UsageError):
            Task("t", "enormous", 0.0, 0, 1)
        with pytest.raises(UsageError):
            Task("t", "light", 0.0, 0, 0)

    @pytest.mark.parametrize(
        "priority, entry, demand",
        [
            (math.nan, 0, 5), (math.inf, 0, 5), (-math.inf, 0, 5), ("1", 0, 5), (None, 0, 5),
            (0.0, 1.5, 5), (0.0, "0", 5), (0.0, True, 5), (0.0, 0, "5"), (0.0, 0, 5.0), (0.0, 0, True),
        ],
    )
    def test_task_rejects_non_finite_priority_and_non_integer_times(self, priority, entry, demand):
        # a NaN priority compares false both ways, so a queue holding one
        # dispatched in an order that hung on the order of appends
        with pytest.raises(UsageError):
            Task("t", "light", priority, entry, demand)

    def test_task_takes_numpy_numbers(self):
        task = Task("t", "light", np.float64(1.0), np.int64(0), np.int64(5))
        assert task.initial_priority == 1.0 and task.service_demand_ns == 5

    def test_config_rejects_bad_fields(self):
        with pytest.raises(ConfigError):
            SchedulerConfig(alpha=-1.0)
        with pytest.raises(ConfigError):
            SchedulerConfig(alpha=math.nan)
        with pytest.raises(ConfigError):
            SchedulerConfig(alpha=math.inf)
        with pytest.raises(ConfigError):
            SchedulerConfig(cycle_period_ns=0)
        with pytest.raises(ConfigError):
            SchedulerConfig(batch_window_ns=-1)

    def test_node_spec_rejects_bad_fields(self):
        with pytest.raises(ConfigError):
            NodeSpec("n", "mainframe", 1)
        with pytest.raises(ConfigError):
            NodeSpec("n", "medium", 0)
        with pytest.raises(ConfigError):
            NodeSpec("n", "medium", 1, overload_threshold=1.5)

    def test_topology_rejects_duplicate_ids(self):
        with pytest.raises(ConfigError):
            TopologySpec(nodes=(NodeSpec("n", "medium", 1), NodeSpec("n", "medium", 2)))

    def test_stage_spec_rejects_bad_fields(self):
        with pytest.raises(ConfigError):
            StageSpec("s", "light", 0, 0.0, 1.0)
        with pytest.raises(ConfigError):
            StageSpec("s", "light", 1, 0.0, -1.0)
        with pytest.raises(ConfigError):
            StageSpec("s", "light", 1, math.nan, 1.0)
        with pytest.raises(ConfigError):
            StageSpec("s", "nuclear", 1, 0.0, 1.0)

    @pytest.mark.parametrize("priority", ["x", None, (1.0,)])
    def test_stage_spec_rejects_a_non_number_priority(self, priority):
        with pytest.raises(ConfigError, match="initial_priority"):
            StageSpec("s", "light", 10**6, priority, 5.0)

    @pytest.mark.parametrize("rate", ["x", None, (5.0,)])
    def test_stage_spec_rejects_a_non_number_rate(self, rate):
        with pytest.raises(ConfigError, match="arrival_rate_hz"):
            StageSpec("s", "light", 10**6, 1.0, rate)

    @pytest.mark.parametrize("demand", ["7", 1.5e6, 1e6, True, np.float64(1e6)])
    def test_stage_spec_rejects_a_demand_that_is_not_an_integer(self, demand):
        with pytest.raises(ConfigError, match="service_demand_ns"):
            StageSpec("s", "light", demand, 1.0, 5.0)

    def test_stage_spec_takes_numpy_numbers_and_its_tasks_pass_task_checks(self):
        """The simulator builds a stage's tasks without `Task`'s checks;
        every field a stage accepts must pass them."""
        stage = StageSpec("s", "heavy", np.int64(3 * MS), np.float32(1.5), np.float64(40.0))
        arrivals = _generate_arrivals(WorkloadSpec(stages=(stage,), duration_ns=NS), np.random.default_rng(3))
        assert arrivals
        for t_ns, task_id, task in arrivals:
            assert type(t_ns) is int and (t_ns, task_id) == (task.entry_time_ns, task.task_id)
            assert task == Task(task_id, "heavy", stage.initial_priority, t_ns, stage.service_demand_ns, "s")

    def test_workload_rejects_bad_shape(self):
        stage = StageSpec("s", "light", 1, 0.0, 1.0)
        with pytest.raises(ConfigError):
            WorkloadSpec(stages=(), duration_ns=1)
        with pytest.raises(ConfigError):
            WorkloadSpec(stages=(stage, stage), duration_ns=1)
        with pytest.raises(ConfigError):
            WorkloadSpec(stages=(stage,), duration_ns=0)

    def test_simulation_demands_matching_topology(self):
        heavy_only = WorkloadSpec(stages=(StageSpec("h", "heavy", 1 * MS, 0.0, 1.0),), duration_ns=NS)
        light_only = WorkloadSpec(stages=(StageSpec("l", "light", 1 * MS, 0.0, 1.0),), duration_ns=NS)
        mediums = TopologySpec(nodes=(NodeSpec("m0", "medium", 1),))
        units = TopologySpec(nodes=(NodeSpec("cu0", "computation_unit", 1),))
        with pytest.raises(ConfigError):
            run_simulation(heavy_only, mediums, SchedulerConfig())
        with pytest.raises(ConfigError):
            run_simulation(light_only, units, SchedulerConfig())

    def test_metrics_types_validate(self):
        with pytest.raises(UsageError):
            ClassStats(count=1, mean_latency_s=0.1, wait_variance_s2=-0.5)
        with pytest.raises(UsageError):
            SimMetrics(duration_s=1.0, completed=0, throughput_per_s=0.0, inversion_rate=1.5)

    def test_class_stats_by_class_worked_example(self):
        # live and replayed metrics share this builder, so their agreement
        # cannot catch an error in it; pin its arithmetic directly
        stats = ClassStats.by_class(
            waits={2.0: [0, 2 * NS], 0.5: [NS // 2]},
            latencies={2.0: [NS, 3 * NS], 1.0: [4 * NS]},
        )
        assert list(stats) == [0.5, 1.0, 2.0]
        assert stats[0.5] == ClassStats(count=0, mean_latency_s=0.0, wait_variance_s2=0.0)
        assert stats[1.0] == ClassStats(count=1, mean_latency_s=4.0, wait_variance_s2=0.0)
        assert stats[2.0] == ClassStats(count=2, mean_latency_s=2.0, wait_variance_s2=1.0)


class TestSimulation:
    def test_dispatches_land_on_cycle_boundaries(self):
        result = run_simulation(offload_mix_workload(2 * NS), offload_mix_topology(), SchedulerConfig(), seed=4)
        dispatches = [r for r in result.records if r["event"] == "dispatch"]
        assert dispatches
        for record in dispatches:
            assert record["t_ns"] % 100 * MS == 0

    def test_medium_completion_is_dispatch_plus_demand(self):
        result = run_simulation(offload_mix_workload(2 * NS), offload_mix_topology(), SchedulerConfig(), seed=4)
        dispatched_at = {}
        demand = {}
        for record in result.records:
            if record["event"] == "arrival":
                demand[record["task_id"]] = record["demand_ns"]
            elif record["event"] == "dispatch" and record["node_kind"] == "medium":
                dispatched_at[record["task_id"]] = record["t_ns"]
            elif record["event"] == "complete" and record["task_id"] in dispatched_at:
                expected = dispatched_at[record["task_id"]] + demand[record["task_id"]]
                assert record["t_ns"] == expected

    def test_same_stage_tasks_batch_and_finish_together(self):
        workload = WorkloadSpec(
            stages=(StageSpec("detect", "heavy", 45 * MS, 1.0, 20.0),),
            duration_ns=NS,
        )
        topology = TopologySpec(nodes=(NodeSpec("cu0", "computation_unit", 1),))
        result = run_simulation(workload, topology, SchedulerConfig(), seed=3)
        first_cycle = [r for r in result.records if r["event"] == "dispatch" and r["t_ns"] == 100 * MS]
        assert len(first_cycle) == 3
        finish = 100 * MS + 100 * MS + 45 * MS
        completes = {r["task_id"]: r["t_ns"] for r in result.records if r["event"] == "complete"}
        for record in first_cycle:
            assert completes[record["task_id"]] == finish

    def test_unit_completions_arrive_in_groups(self):
        workload = WorkloadSpec(
            stages=(StageSpec("detect", "heavy", 45 * MS, 1.0, 20.0),),
            duration_ns=5 * NS,
        )
        topology = TopologySpec(nodes=(NodeSpec("cu0", "computation_unit", 2),))
        result = run_simulation(workload, topology, SchedulerConfig(), seed=9)
        complete_times = [r["t_ns"] for r in result.records if r["event"] == "complete"]
        assert len(complete_times) > len(set(complete_times))

    def test_conservation_across_scenarios(self):
        scenarios = [
            (decomposed_pipeline(3 * NS), tiered_topology()),
            (offload_mix_workload(3 * NS), offload_mix_topology()),
            (two_priority_workload(3 * NS), two_priority_topology()),
        ]
        for workload, topology in scenarios:
            for seed in (0, 5):
                result = run_simulation(workload, topology, SchedulerConfig(), seed=seed)
                counts = conservation_check(result.records)
                assert counts["arrived"] == counts["completed"] + counts["in_flight"] + counts["queued"]
                arrivals = sum(1 for r in result.records if r["event"] == "arrival")
                assert counts["arrived"] == arrivals

    def test_snapshots_track_in_flight_exactly(self):
        result = run_simulation(offload_mix_workload(3 * NS), offload_mix_topology(), SchedulerConfig(), seed=8)
        for snap in result.snapshots:
            dispatched = sum(
                1 for r in result.records if r["event"] == "dispatch" and r["t_ns"] <= snap.taken_at_ns
            )
            completed = sum(
                1 for r in result.records if r["event"] == "complete" and r["t_ns"] <= snap.taken_at_ns
            )
            assert sum(n.in_flight for n in snap.nodes) == dispatched - completed

    def test_busy_medium_node_makes_tasks_wait(self):
        # one medium node over its 0.8 threshold and no unit to redirect to
        workload = WorkloadSpec(stages=(StageSpec("l", "light", 50 * MS, 0.0, 40.0),), duration_ns=2 * NS)
        topology = TopologySpec(nodes=(NodeSpec("m0", "medium", 2),))
        result = run_simulation(workload, topology, SchedulerConfig(), seed=0)
        counts = conservation_check(result.records)
        assert counts["arrived"] == counts["completed"] + counts["in_flight"] + counts["queued"]
        assert counts["queued"] > 0
        assert compute_metrics(result.records).completed == result.metrics.completed > 0
        assert max(n.busy_slots for snap in result.snapshots for n in snap.nodes) == 2

    def test_redirects_appear_under_load(self):
        result = run_simulation(decomposed_pipeline(3 * NS), tiered_topology(), SchedulerConfig(), seed=7)
        assert any(r.get("redirected") for r in result.records if r["event"] == "dispatch")

    def test_zero_rate_stage_never_arrives(self):
        workload = WorkloadSpec(
            stages=(
                StageSpec("on", "light", 10 * MS, 0.0, 20.0),
                StageSpec("off", "light", 10 * MS, 0.0, 0.0),
            ),
            duration_ns=2 * NS,
        )
        topology = TopologySpec(nodes=(NodeSpec("m0", "medium", 2, overload_threshold=1.0),))
        result = run_simulation(workload, topology, SchedulerConfig(), seed=1)
        stages = {r["stage"] for r in result.records if r["event"] == "arrival"}
        assert stages == {"on"}

    def test_arrivals_at_one_instant_go_in_task_id_order(self):
        """At 0.8 arrivals per ns per stage, stages share entry times; the
        log takes arrivals by (entry time, task id)."""
        stages = tuple(StageSpec(name, "light", MS, 0.0, 8e8) for name in ("b", "a"))
        result = run_simulation(WorkloadSpec(stages=stages, duration_ns=1_000), tiered_topology(), SchedulerConfig(), seed=2)
        arrivals = [(r["t_ns"], r["task_id"]) for r in result.records if r["event"] == "arrival"]
        assert arrivals == sorted(arrivals)
        stages_at = {}
        for t_ns, task_id in arrivals:
            stages_at.setdefault(t_ns, set()).add(task_id[0])
        assert any(len(names) == 2 for names in stages_at.values())

    def test_log_ends_with_end_record(self):
        result = run_simulation(offload_mix_workload(NS), offload_mix_topology(), SchedulerConfig(), seed=0)
        assert result.records[-1]["event"] == "end"
        assert result.records[-1]["t_ns"] == NS


def log_lines(records) -> list[str]:
    """A simulator log as JSON text, one record per line."""
    return [json.dumps(record) for record in records]


def output_digest(result) -> str:
    """sha256 of a run's event log, one JSON record per line, then its
    monitor snapshots as one JSON list."""
    digest = hashlib.sha256()
    for line in log_lines(result.records):
        digest.update(line.encode() + b"\n")
    digest.update(json.dumps([dataclasses.asdict(s) for s in result.snapshots]).encode())
    return digest.hexdigest()


PINNED_WORKLOADS = {
    "decomposed": (decomposed_pipeline, tiered_topology),
    "monolithic": (monolithic_workload, single_device_topology),
    "two_priority": (two_priority_workload, two_priority_topology),
    "offload_mix": (offload_mix_workload, offload_mix_topology),
}

# (workload, alpha, batch_window_ns) -> output_digest at seed 0
PINNED_DIGESTS = {
    ("decomposed", 0.0, 0): "c2f3dd782d4cbc0e09405ff0ea3e67a6fd8ec6cd5d83b25bc087e227795be4a6",
    ("decomposed", 0.0, 100 * MS): "e169a00970f2de1076a05a6ad9b094a41d4cb492d84786295a8bb5eea35bd586",
    ("decomposed", 1.0, 0): "320b3bddd5111e2496448b414361c0cbc9589d4cf705c49ac826dbf29c6312fd",
    ("decomposed", 1.0, 100 * MS): "c5a2b4af4450c08b6c4b5f8524d77596f9320629ad2e835929258dc5d542002d",
    ("monolithic", 0.0, 0): "8f1e4279f26b9a970c51ca0ce0f3302fa41d4b289c29f8953daf62151eb9f6de",
    ("monolithic", 0.0, 100 * MS): "8f1e4279f26b9a970c51ca0ce0f3302fa41d4b289c29f8953daf62151eb9f6de",
    ("monolithic", 1.0, 0): "a6311219cfcd3583ef18c7e3d723575059220b48786409e946103094f33e5bab",
    ("monolithic", 1.0, 100 * MS): "a6311219cfcd3583ef18c7e3d723575059220b48786409e946103094f33e5bab",
    ("two_priority", 0.0, 0): "29793399b94a453c07e8aa4174cd528d9cac36b3372f78a51353a4ed9bf350a0",
    ("two_priority", 0.0, 100 * MS): "29793399b94a453c07e8aa4174cd528d9cac36b3372f78a51353a4ed9bf350a0",
    ("two_priority", 1.0, 0): "79111a2e73666d73c656fa2333c25fb6601cba7714b2b03e43e027f4f427d21f",
    ("two_priority", 1.0, 100 * MS): "79111a2e73666d73c656fa2333c25fb6601cba7714b2b03e43e027f4f427d21f",
    ("offload_mix", 0.0, 0): "9f166c1eaa8bbd54d70eb0216abea22cf2ea8d2b5d92b5ec566f79d1ecf71cb0",
    ("offload_mix", 0.0, 100 * MS): "d7dc04bca5de570ba711a033d431519204e3024422bf978ab58e55a1ad3347b4",
    ("offload_mix", 1.0, 0): "1604357bebfbe44f5c754d2b956dc0ff31c0e8f2dc6a3add8fea8c3936f6ffb5",
    ("offload_mix", 1.0, 100 * MS): "5c85a81edf71377198a06a79f1a1cb57e2e6acda417f0d01ce77b69e719abbb8",
}


@st.composite
def arrival_workloads(draw):
    """One to four stages over a short or long run, each expecting 0-1,500
    arrivals; a run of a few hundred ns packs several arrivals into one
    nanosecond, within and across stages. (Below about 1e-290 Hz the
    scalar clock overflows; that is no workload.)"""
    duration_ns = draw(st.sampled_from([1, 300, 10_000, NS]) | st.integers(1, 3 * NS))
    stages = []
    for i in range(draw(st.integers(1, 4))):
        expected = draw(st.sampled_from([0.0, 0.5, 1.0]) | st.floats(1e-6, 1_500.0))
        stages.append(
            StageSpec(
                f"s{i}",
                draw(st.sampled_from(COMPUTE_CLASSES)),
                draw(st.integers(1, NS)),
                draw(st.sampled_from([0.0, 1.0, 2.5])),
                expected * NS / duration_ns,
            )
        )
    return WorkloadSpec(stages=tuple(stages), duration_ns=duration_ns)


class TestArrivalsMatchScalarLoop:
    """Gaps drawn in array calls give the scalar loop's tasks, and leave
    the generator where the loop leaves it."""

    @settings(max_examples=budget(100), deadline=None)
    @given(arrival_workloads(), st.integers(0, 2**32))
    def test_identical_arrivals_and_generator_state(self, workload, seed):
        rng, scalar_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        arrivals = _generate_arrivals(workload, rng)
        expected = generate_arrivals_scalar(workload, scalar_rng)
        assert [task for _, _, task in arrivals] == expected
        assert [(t_ns, task_id) for t_ns, task_id, _ in arrivals] == [(t.entry_time_ns, t.task_id) for t in expected]
        assert all(type(task.entry_time_ns) is int for _, _, task in arrivals)
        assert rng.bit_generator.state == scalar_rng.bit_generator.state


class TestDeterminism:
    def test_intersection_scale_output_matches_pinned_digest(self):
        """The x16 pipeline that bench/test_edgesched_bench.py times and
        perfbench's intersection runs: 3,800-odd arrivals in 1 s on 96
        nodes, seed 11. Pinned under numpy 2.4.6, as below."""
        result = run_simulation(decomposed_pipeline(NS, scale=16), tiered_topology(scale=16), SchedulerConfig(), seed=11)
        assert output_digest(result) == "e6f096a84d627d0c58bc173e2df2194ec20eb951d884f7081a426a50cacebdae"

    def test_outputs_match_pinned_digests(self):
        """Logs and snapshots stay byte-identical across scheduler changes.

        The arrivals come from numpy's PCG64 stream (``default_rng``);
        the digests were taken with numpy 2.4.6, and a numpy that
        changed that stream would change them without a scheduler fault.
        """
        for (name, alpha, window), expected in PINNED_DIGESTS.items():
            workload, topology = PINNED_WORKLOADS[name]
            config = SchedulerConfig(alpha=alpha, batch_window_ns=window)
            result = run_simulation(workload(), topology(), config, seed=0)
            assert output_digest(result) == expected, (name, alpha, window)

    def test_same_seed_gives_byte_identical_logs(self):
        logs = []
        for _ in range(2):
            result = run_simulation(decomposed_pipeline(2 * NS), tiered_topology(), SchedulerConfig(), seed=21)
            logs.append(log_lines(result.records))
        assert logs[0] == logs[1]

    def test_different_seeds_differ(self):
        logs = []
        for seed in (1, 2):
            result = run_simulation(decomposed_pipeline(2 * NS), tiered_topology(), SchedulerConfig(), seed=seed)
            logs.append(log_lines(result.records))
        assert logs[0] != logs[1]

    def test_log_round_trips_through_serialization(self):
        result = run_simulation(offload_mix_workload(2 * NS), offload_mix_topology(), SchedulerConfig(), seed=5)
        assert tuple(json.loads(line) for line in log_lines(result.records)) == result.records


class TestMetricsReplay:
    def test_replay_matches_live_counters(self):
        scenarios = [
            (decomposed_pipeline(3 * NS), tiered_topology()),
            (offload_mix_workload(3 * NS), offload_mix_topology()),
            (two_priority_workload(5 * NS), two_priority_topology()),
        ]
        for workload, topology in scenarios:
            for seed in (2, 17):
                live = run_simulation(workload, topology, SchedulerConfig(), seed=seed)
                replayed = compute_metrics(live.records)
                assert replayed.duration_s == live.metrics.duration_s
                assert replayed.completed == live.metrics.completed
                assert replayed.throughput_per_s == live.metrics.throughput_per_s
                assert replayed.inversion_rate == live.metrics.inversion_rate
                assert replayed.offload_fraction == live.metrics.offload_fraction
                assert replayed.class_stats == live.metrics.class_stats
                assert replayed.overhead_ms_mean == 0.0

    def test_replay_survives_json_round_trip(self):
        live = run_simulation(offload_mix_workload(2 * NS), offload_mix_topology(), SchedulerConfig(), seed=6)
        replayed = compute_metrics([json.loads(line) for line in log_lines(live.records)])
        assert replayed.class_stats == live.metrics.class_stats
        assert replayed.inversion_rate == live.metrics.inversion_rate

    def test_hand_built_log(self):
        records = [
            {"t_ns": 0, "event": "arrival", "task_id": "a", "node_id": None, "p_eff": None,
             "stage": "s", "compute_class": "light", "p_initial": 5.0, "demand_ns": 30 * MS},
            {"t_ns": 0, "event": "arrival", "task_id": "b", "node_id": None, "p_eff": None,
             "stage": "s", "compute_class": "heavy", "p_initial": 0.0, "demand_ns": 30 * MS},
            {"t_ns": 100 * MS, "event": "dispatch", "task_id": "a", "node_id": "cu0", "p_eff": 4.9,
             "node_kind": "computation_unit", "redirected": True, "wait_ns": 100 * MS, "p_initial": 5.0},
            {"t_ns": 200 * MS, "event": "dispatch", "task_id": "b", "node_id": "m0", "p_eff": -0.1,
             "node_kind": "medium", "redirected": False, "wait_ns": 200 * MS, "p_initial": 0.0},
            {"t_ns": 230 * MS, "event": "complete", "task_id": "b", "node_id": "m0", "p_eff": None},
            {"t_ns": 330 * MS, "event": "complete", "task_id": "a", "node_id": "cu0", "p_eff": None},
            {"t_ns": NS, "event": "end", "task_id": None, "node_id": None, "p_eff": None},
        ]
        metrics = compute_metrics(records)
        assert metrics.completed == 2
        assert metrics.throughput_per_s == 2.0
        assert metrics.inversion_rate == 0.5
        assert metrics.offload_fraction == 0.5
        assert metrics.class_stats[5.0].count == 1
        assert metrics.class_stats[5.0].mean_latency_s == pytest.approx(0.33)
        assert metrics.class_stats[0.0].mean_latency_s == pytest.approx(0.23)
        assert metrics.class_stats[0.0].wait_variance_s2 == 0.0

    def test_truncated_log_rejected(self):
        live = run_simulation(offload_mix_workload(NS), offload_mix_topology(), SchedulerConfig(), seed=0)
        with pytest.raises(IntegrityError, match="truncated"):
            compute_metrics(live.records[:-1])
        with pytest.raises(IntegrityError):
            compute_metrics([])

    def test_dispatch_of_unknown_task_rejected(self):
        records = [
            {"t_ns": 0, "event": "dispatch", "task_id": "ghost", "node_id": "m0", "p_eff": 0.0,
             "node_kind": "medium", "redirected": False, "wait_ns": 0, "p_initial": 0.0},
            {"t_ns": NS, "event": "end", "task_id": None, "node_id": None, "p_eff": None},
        ]
        with pytest.raises(IntegrityError, match="unknown"):
            compute_metrics(records)

    def test_completion_without_dispatch_rejected(self):
        records = [
            {"t_ns": 0, "event": "arrival", "task_id": "a", "node_id": None, "p_eff": None,
             "stage": "s", "compute_class": "light", "p_initial": 0.0, "demand_ns": 1},
            {"t_ns": 1, "event": "complete", "task_id": "a", "node_id": "m0", "p_eff": None},
            {"t_ns": NS, "event": "end", "task_id": None, "node_id": None, "p_eff": None},
        ]
        with pytest.raises(IntegrityError, match="undispatched"):
            compute_metrics(records)

    def test_unknown_event_rejected(self):
        records = [
            {"t_ns": 0, "event": "teleport", "task_id": "a", "node_id": None, "p_eff": None},
            {"t_ns": NS, "event": "end", "task_id": None, "node_id": None, "p_eff": None},
        ]
        with pytest.raises(IntegrityError, match="unknown event"):
            compute_metrics(records)

    def test_second_arrival_of_a_task_rejected(self):
        arrival = {"t_ns": 0, "event": "arrival", "task_id": "a", "node_id": None, "p_eff": None,
                   "stage": "s", "compute_class": "light", "p_initial": 0.0, "demand_ns": 1}
        records = [arrival, dict(arrival, t_ns=5), {"t_ns": NS, "event": "end", "task_id": None,
                                                     "node_id": None, "p_eff": None}]
        with pytest.raises(IntegrityError, match="second arrival"):
            compute_metrics(records)

    def test_end_at_time_zero_rejected(self):
        records = [{"t_ns": 0, "event": "end", "task_id": None, "node_id": None, "p_eff": None}]
        with pytest.raises(IntegrityError, match="time 0"):
            compute_metrics(records)

    @pytest.mark.parametrize("field", ["event", "t_ns", "task_id"])
    def test_record_without_a_field_rejected(self, field):
        live = run_simulation(offload_mix_workload(NS), offload_mix_topology(), SchedulerConfig(), seed=0)
        records = [dict(r) for r in live.records]
        del records[0][field]
        with pytest.raises(IntegrityError, match=field):
            compute_metrics(records)
        if field != "t_ns":
            with pytest.raises(IntegrityError, match=field):
                conservation_check(records)

    def test_conservation_check_rejects_lifecycle_violations(self):
        records = [
            {"t_ns": 0, "event": "dispatch", "task_id": "ghost", "node_id": "m0", "p_eff": 0.0,
             "node_kind": "medium", "redirected": False, "wait_ns": 0, "p_initial": 0.0},
        ]
        with pytest.raises(IntegrityError):
            conservation_check(records)


class TestExperiments:
    def test_decomposed_beats_monolithic_tenfold(self):
        config = SchedulerConfig()
        decomposed = run_simulation(decomposed_pipeline(), tiered_topology(), config, seed=7)
        monolithic = run_simulation(monolithic_workload(), single_device_topology(), config, seed=7)
        ratio = decomposed.metrics.throughput_per_s / monolithic.metrics.throughput_per_s
        assert ratio >= 10.0
        assert monolithic.metrics.throughput_per_s < 3.0

    def test_two_priority_inversion_rate_bounded(self):
        config = SchedulerConfig(alpha=1.0)
        for seed in (1, 7, 13):
            result = run_simulation(two_priority_workload(), two_priority_topology(), config, seed=seed)
            assert result.metrics.inversion_rate <= 0.05
            assert result.metrics.completed > 1000

    def test_offload_fraction_near_mix(self):
        config = SchedulerConfig()
        for seed in (1, 7, 13):
            result = run_simulation(offload_mix_workload(), offload_mix_topology(), config, seed=seed)
            assert abs(result.metrics.offload_fraction - 0.47) <= 0.05

    def test_scheduling_overhead_below_one_ms(self):
        """Wall-clock figure, so the gate is the median of five seeded runs:
        one run on a briefly loaded host can read past the bound."""
        overheads = [
            run_simulation(decomposed_pipeline(), tiered_topology(), SchedulerConfig(), seed=seed).metrics.overhead_ms_mean
            for seed in range(7, 12)
        ]
        assert 0.0 < float(np.median(overheads)) < 1.0

