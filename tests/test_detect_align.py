import math
import tracemalloc
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment

from oracles import (
    budget,
    coarse_align_loop,
    detect_gesture_per_window,
    dtw_backtrack,
    dtw_cost_exact,
    greedy_match_callable,
)
from sensorstack.errors import UsageError
from sensorstack.eventsync import detect as detect_module
from sensorstack.eventsync.align import SEARCH_HALF_WIDTH_NS
from sensorstack.eventsync import (
    EventDetection,
    GestureTemplate,
    TimeSeries,
    apply_sync,
    coarse_align,
    detect_gesture_video,
    fine_tune_event,
    normalized_dtw_score,
    suppress_overlaps,
)
from sensorstack.scoring import match_integers
from sensorstack.timebase import SampleStream, SensorSample, StreamDescriptor

RATE = 25.0
PERIOD_NS = 40_000_000


def raise_hold_drop(length):
    """Smooth rise, plateau, fall: a hand raised and lowered again."""
    x = np.linspace(0, 1, length)
    ramp = np.minimum(np.clip(x / 0.25, 0, 1), np.clip((1 - x) / 0.25, 0, 1))
    return 0.5 - 0.5 * np.cos(np.pi * ramp)


def series_with_gesture(embed_at, total=500, seed=0, noise=0.02, length=50, amp=1.0):
    rng = np.random.default_rng(seed)
    values = rng.normal(0, noise, size=total)
    values[embed_at : embed_at + length] += amp * raise_hold_drop(length)
    ts = np.arange(total, dtype=np.int64) * PERIOD_NS
    return TimeSeries(ts, values)


def gesture_template(length=50, threshold=0.8, amp=1.0):
    return GestureTemplate(amp * raise_hold_drop(length), RATE, threshold)


class TestDetection:
    def test_embedded_template_found_once(self):
        embed = 200
        series = series_with_gesture(embed)
        events = detect_gesture_video(series, gesture_template())
        assert len(events) == 1
        start_error = abs(events[0].start - embed * PERIOD_NS)
        assert start_error <= 250_000_000

    def test_two_separated_gestures_found_within_one_stride(self):
        series = series_with_gesture(100, total=800, seed=6)
        values = series.values.copy()
        values[500:550] += raise_hold_drop(50)
        series = TimeSeries(series.timestamps, values)
        events = detect_gesture_video(series, gesture_template())
        assert len(events) == 2
        assert abs(events[0].start - 100 * PERIOD_NS) <= 250_000_000
        assert abs(events[1].start - 500 * PERIOD_NS) <= 250_000_000

    def test_noise_only_series_stays_quiet(self):
        rng = np.random.default_rng(3)
        ts = np.arange(500, dtype=np.int64) * PERIOD_NS
        series = TimeSeries(ts, rng.normal(0, 0.02, size=500))
        events = detect_gesture_video(series, gesture_template())
        assert events == ()

    def test_flat_series_yields_nothing(self):
        ts = np.arange(300, dtype=np.int64) * PERIOD_NS
        series = TimeSeries(ts, np.zeros(300))
        assert detect_gesture_video(series, gesture_template()) == ()

    def test_joint_rescaling_leaves_detections_unchanged(self):
        # the score compares shapes on the template's own scale, so scaling
        # signal and template together must not change anything
        embed = 150
        base = series_with_gesture(embed, seed=1)
        scaled = TimeSeries(base.timestamps, base.values * 40.0)
        e1 = detect_gesture_video(base, gesture_template())
        e2 = detect_gesture_video(scaled, gesture_template(amp=40.0))
        assert len(e1) == len(e2) == 1
        assert e1[0].start == e2[0].start
        assert e1[0].score == pytest.approx(e2[0].score)

    def test_score_separates_gesture_from_quiet(self):
        rng = np.random.default_rng(7)
        template = gesture_template()
        hit = TimeSeries(
            np.arange(50, dtype=np.int64) * PERIOD_NS,
            raise_hold_drop(50) + rng.normal(0, 0.02, 50),
        )
        quiet = TimeSeries(
            np.arange(50, dtype=np.int64) * PERIOD_NS, rng.normal(0, 0.02, size=50)
        )
        assert normalized_dtw_score(hit, template) < 0.5
        assert normalized_dtw_score(quiet, template) > 0.8

    def test_series_shorter_than_window_rejected(self):
        ts = np.arange(10, dtype=np.int64) * PERIOD_NS
        with pytest.raises(UsageError):
            detect_gesture_video(TimeSeries(ts, np.ones(10)), gesture_template())

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_heights_rejected(self, bad):
        series = series_with_gesture(200)
        values = series.values.copy()
        values[300] = bad
        with pytest.raises(UsageError, match="finite"):
            detect_gesture_video(TimeSeries(series.timestamps, values), gesture_template())

    @pytest.mark.parametrize(
        "args",
        [
            {"window_ns": "x"},
            {"stride_ns": None},
            {"window_ns": 2.4e9},
            {"window_ns": True},
            {"stream_id": 5},
            {"z_series": None},
            {"z_series": np.zeros(500)},
            {"template": None},
            {"template": raise_hold_drop(50)},
        ],
        ids=["window-str", "stride-none", "window-float", "window-bool", "stream-id-int",
             "series-none", "series-ndarray", "template-none", "template-ndarray"],
    )
    def test_bad_arguments_rejected(self, args):
        call = {"z_series": series_with_gesture(200), "template": gesture_template(), **args}
        with pytest.raises(UsageError):
            detect_gesture_video(**call)

    def test_numpy_integer_times_accepted(self):
        series = series_with_gesture(200)
        expected = detect_gesture_video(series, gesture_template(), 4_000_000_000, 250_000_000)
        got = detect_gesture_video(series, gesture_template(), np.int64(4_000_000_000), np.int32(250_000_000))
        assert got == expected and len(got) == 1

    @pytest.mark.parametrize(
        "fields",
        [{"start": 1.5}, {"start": True}, {"end": "x"}, {"score": "0.1"}, {"score": math.nan}, {"score": None}],
        ids=repr,
    )
    def test_event_fields_of_the_wrong_kind_rejected(self, fields):
        with pytest.raises(UsageError, match=f"event {next(iter(fields))}"):
            EventDetection(**{"stream_id": "a", "start": 0, "end": 1, "score": 0.1, **fields})

    def test_suppression_keeps_best_of_overlapping_run(self):
        mk = lambda s, score: EventDetection("cam", s, s + 10, score)
        kept = suppress_overlaps((mk(0, 0.5), mk(5, 0.2), mk(8, 0.9), mk(30, 0.1)))
        assert [e.start for e in kept] == [5, 30]


def jittered_gesture_series(seed, total, jitter_ns, gap_at, gestures, amp):
    """Noisy series with gestures at random places and jittered timestamps.

    A non-zero ``gap_at`` opens a 1.5 s hole in the timestamps there, so
    some windows hold fewer than four samples.
    """
    rng = np.random.default_rng(seed)
    steps = PERIOD_NS + rng.integers(-jitter_ns, jitter_ns + 1, size=total)
    if gap_at:
        steps[gap_at] += 1_500_000_000
    ts = np.cumsum(steps) - steps[0]
    values = rng.normal(0, 0.02, size=total)
    for _ in range(gestures):
        length = int(rng.integers(25, 70))
        at = int(rng.integers(0, total - length))
        values[at : at + length] += amp * raise_hold_drop(length)
    return TimeSeries(ts, values)


# a window and a template for the range bound, drawn from one family of
# values: tied small integers, floats near +-1e150, or small floats. The
# row-scan tables lose small costs beside huge ones, so the families are
# not mixed within one draw.
BOUND_CASES = st.sampled_from(
    [
        st.integers(-3, 3).map(float),
        st.floats(0.999e150, 1.001e150) | st.floats(-1.001e150, -0.999e150),
        st.floats(-4.0, 4.0),
    ]
).flatmap(lambda values: st.tuples(st.lists(values, min_size=4, max_size=12), st.lists(values, min_size=2, max_size=8)))


class TestBatchedDetectionMatchesPerWindow:
    """The batched detector returns exactly what one DTW per window returns."""

    @settings(max_examples=budget(60), deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        total=st.integers(120, 360),
        jitter_ns=st.sampled_from([0, 4_000_000, 15_000_000]),
        gap_at=st.sampled_from([0, 0, 60, 100]),
        gestures=st.integers(0, 3),
        amp=st.sampled_from([0.3, 1.0, 2.5]),
        template_len=st.integers(20, 60),
        threshold=st.sampled_from([0.3, 0.8, 1.5]),
        window_stride=st.sampled_from(
            [(4_000_000_000, 250_000_000), (2_400_000_000, 250_000_000),
             (1_200_000_000, 100_000_000), (3_000_000_000, 700_000_000)]
        ),
        block_cells=st.sampled_from([1, 5_000, detect_module._BLOCK_CELLS]),
    )
    def test_identical_detections(
        self, seed, total, jitter_ns, gap_at, gestures, amp, template_len, threshold,
        window_stride, block_cells,
    ):
        series = jittered_gesture_series(seed, total, jitter_ns, gap_at, gestures, amp)
        template = gesture_template(template_len, threshold)
        window_ns, stride_ns = window_stride
        expected = detect_gesture_per_window(series, template, window_ns, stride_ns, "cam")
        with mock.patch.object(detect_module, "_BLOCK_CELLS", block_cells):
            got = detect_gesture_video(series, template, window_ns, stride_ns, "cam")
        assert got == expected

    @settings(max_examples=budget(100), deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        total=st.integers(9, 90),
        levels=st.integers(1, 3),
        template=st.lists(st.integers(-2, 2), min_size=2, max_size=4).filter(lambda v: len(set(v)) > 1),
        threshold=st.sampled_from([0.5, 1.0, 3.0]),
        window_stride=st.sampled_from([(4, 1), (4, 3), (6, 2), (9, 4)]),
        block_cells=st.sampled_from([1, 60, detect_module._BLOCK_CELLS]),
    )
    def test_short_integer_templates_on_integer_series(
        self, seed, total, levels, template, threshold, window_stride, block_cells
    ):
        # integer heights and templates of 2-4 points tie cells within a
        # table and scores across windows; on the exact period grid a
        # window of four periods holds exactly four samples
        rng = np.random.default_rng(seed)
        ts = np.arange(total, dtype=np.int64) * PERIOD_NS
        series = TimeSeries(ts, rng.integers(-levels, levels + 1, total).astype(float))
        gesture = GestureTemplate(np.array(template, dtype=float), RATE, threshold)
        window_ns, stride_ns = (k * PERIOD_NS for k in window_stride)
        expected = detect_gesture_per_window(series, gesture, window_ns, stride_ns, "cam")
        with mock.patch.object(detect_module, "_BLOCK_CELLS", block_cells):
            got = detect_gesture_video(series, gesture, window_ns, stride_ns, "cam")
        assert got == expected

    def test_tied_scores_go_by_start_not_window_order(self):
        # two windows tie on score, and the later window's warp path starts
        # earlier: suppression must try it first, as the oracle does
        values = np.array([2.0, 0.0, 0.0, -1.0, -2.0, -2.0, -1.0, 1.0])
        series = TimeSeries(np.arange(8, dtype=np.int64) * PERIOD_NS, values)
        gesture = GestureTemplate(np.array([1.0, -2.0, -1.0, 1.0]), RATE, 3.0)
        args = (series, gesture, 4 * PERIOD_NS, PERIOD_NS, "cam")
        expected = detect_gesture_per_window(*args)
        assert [e.start for e in expected] == [PERIOD_NS, 4 * PERIOD_NS]
        assert detect_gesture_video(*args) == expected

    def test_windows_too_sparse_to_score_yield_nothing(self):
        # one sample every 1.5 s: no 1 s window ever holds four samples
        ts = np.arange(20, dtype=np.int64) * 1_500_000_000
        series = TimeSeries(ts, np.ones(20))
        args = (series, gesture_template(), 1_000_000_000, 250_000_000)
        assert detect_gesture_per_window(*args) == detect_gesture_video(*args) == ()

    def test_two_channel_series_rejected_like_per_window(self):
        # a series holds one channel, so neither detector can be given two
        ts = np.arange(200, dtype=np.int64) * PERIOD_NS
        with pytest.raises(UsageError, match="one-dimensional"):
            TimeSeries(ts, np.zeros((200, 2)))


class TestPruning:
    """The range bound drops only windows that cannot be candidates, a block at a time."""

    @settings(max_examples=budget(300), deadline=None)
    @given(case=BOUND_CASES)
    # a float DTW table reads this cost as 1.52571e-11, below the exact bound
    # 1.52576e-11: its rounding is relative to the table's largest cost
    @example(case=([0.0, 0.0, 0.0, -4.0], [0.0, 1.5258e-11, -4.0]))
    def test_range_bound_never_exceeds_the_dtw_cost(self, case):
        x, t = map(np.array, case)
        (bound,) = detect_module._range_bounds(x.min(), x.max(), t[:, None])
        bound = Fraction(float(bound))
        cost = dtw_cost_exact(x.tolist(), t.tolist())
        # exact where the bound's terms add without rounding; otherwise within
        # the margin the detector allows for the bound's own rounding
        assert bound <= cost * (1 + Fraction(detect_module._PRUNE_MARGIN))
        if np.all(np.abs(x) <= 3) and np.all(x == np.round(x)) and np.all(t == np.round(t)):
            assert bound <= cost

    @pytest.mark.parametrize("seed", range(40))
    def test_threshold_at_a_window_score_is_not_a_candidate(self, seed):
        # the one window of a flat series of four samples holds one value and
        # fewer samples than the template has points, so its range bound is
        # its DTW cost, added up in another order: only the margin keeps the
        # window from being pruned when the threshold is just above its score
        rng = np.random.default_rng(seed)
        values = rng.normal(size=int(rng.integers(8, 40)))
        series = TimeSeries(np.arange(4, dtype=np.int64) * PERIOD_NS, np.full(4, rng.normal(0, 2)))
        args = (4 * PERIOD_NS, PERIOD_NS, "cam")
        (loose,) = detect_gesture_per_window(series, GestureTemplate(values, RATE, 1e9), *args)
        score = loose.score
        at_score = GestureTemplate(values, RATE, score)
        assert detect_gesture_video(series, at_score, *args) == detect_gesture_per_window(series, at_score, *args) == ()
        above = GestureTemplate(values, RATE, float(np.nextafter(score, np.inf)))
        expected = detect_gesture_per_window(series, above, *args)
        assert expected
        assert detect_gesture_video(series, above, *args) == expected

    @pytest.mark.parametrize(
        "stride_ns, threshold, count",
        [(250_000_000, 0.8, 1), (100_000_000_000, 1e9, 80)],
        ids=["one-gesture", "sparse-windows-all-candidates"],
    )
    def test_peak_memory_stays_within_a_few_blocks_on_a_long_series(self, stride_ns, threshold, count):
        # 80 min of a quiet 25 Hz series with one gesture: windows are pruned,
        # summed and scored a block at a time, never for the whole series,
        # also when a block's windows lie far apart
        series = series_with_gesture(120_000, total=200_000, seed=5)
        tracemalloc.start()
        try:
            events = detect_gesture_video(series, gesture_template(threshold=threshold), 2_400_000_000, stride_ns)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(events) == count
        assert peak <= 3 * detect_module._BLOCK_CELLS * 8


class TestBoundsWalk:
    """Onset and end rows read without a full path match `dtw_backtrack`'s path."""

    @settings(max_examples=budget(300), deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n_max=st.integers(2, 10),
        m=st.integers(2, 6),
        batch=st.integers(1, 4),
        levels=st.sampled_from([0, 1, 2, 3]),
    )
    def test_bounds_match_the_backtracked_path(self, seed, n_max, m, batch, levels):
        # any table defines a walk; small integers make ties between moves
        rng = np.random.default_rng(seed)
        shape = (n_max, m, batch)
        tables = rng.integers(0, levels + 1, shape).astype(float) if levels else rng.normal(size=shape)
        n_rows = rng.integers(2, n_max + 1, batch)
        ends = detect_module._end_rows(tables, n_rows)
        cells = memoryview(tables.reshape(-1))
        for w in range(batch):
            path = dtw_backtrack(tables[: n_rows[w], :, w])
            onset = max(i for i, j in path if j == 0)
            end = min(i for i, j in path if j == m - 1)
            assert ends[w] == end
            pos = (end * m + m - 1) * batch + w
            assert detect_module._onset_row(cells, pos, end, m - 1, m * batch, batch) == onset

    @settings(max_examples=budget(300), deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n_max=st.integers(2, 10),
        m=st.integers(2, 6),
        levels=st.sampled_from([0, 1, 2, 3]),
        stop=st.integers(-2, 11),
    )
    def test_walk_stops_below_the_stop_row(self, seed, n_max, m, levels, stop):
        rng = np.random.default_rng(seed)
        table = rng.integers(0, levels + 1, (n_max, m)).astype(float) if levels else rng.normal(size=(n_max, m))
        path = dtw_backtrack(table)
        onset = max(i for i, j in path if j == 0)
        cells = memoryview(table.reshape(-1))
        got = detect_module._onset_row(cells, table.size - 1, n_max - 1, m - 1, m, 1, stop)
        if onset >= stop:
            assert got == onset
        else:
            assert got < stop


class TestCoarseAlign:
    def test_pairs_within_tolerance(self):
        a = [EventDetection("a", t, t + 1, 0.1) for t in (0, 2_000_000_000)]
        b = [
            EventDetection("b", 100_000_000, 100_000_001, 0.1),
            EventDetection("b", 2_300_000_000, 2_300_000_001, 0.1),
            EventDetection("b", 9_000_000_000, 9_000_000_001, 0.1),
        ]
        pairs = coarse_align(a, b)
        assert [(p.a.start, p.b.start) for p in pairs] == [(0, 100_000_000), (2_000_000_000, 2_300_000_000)]

    def test_one_to_one_matching(self):
        a = [EventDetection("a", 0, 1, 0.1)]
        b = [
            EventDetection("b", 10, 11, 0.1),
            EventDetection("b", 20, 21, 0.1),
        ]
        pairs = coarse_align(a, b, tolerance_ns=100)
        assert len(pairs) == 1
        assert pairs[0].b.start == 10

    def test_match_count_brackets_optimal_assignment(self):
        # greedy pairing is a maximal matching: it cannot beat the optimal
        # assignment and cannot fall below half of it
        rng = np.random.default_rng(13)
        for _ in range(30):
            ta = np.sort(rng.integers(0, 10**10, size=rng.integers(1, 12)))
            tb = np.sort(rng.integers(0, 10**10, size=rng.integers(1, 12)))
            tol = int(rng.integers(1, 2 * 10**9))
            a = [EventDetection("a", int(t), int(t) + 1, 0.0) for t in ta]
            b = [EventDetection("b", int(t), int(t) + 1, 0.0) for t in tb]
            pairs = coarse_align(a, b, tolerance_ns=tol)
            assert len({p.a.start for p in pairs}) == len(pairs)
            assert len({p.b.start for p in pairs}) == len(pairs)
            assert all(abs(p.a.start - p.b.start) <= tol for p in pairs)
            cost = np.abs(ta[:, None] - tb[None, :]).astype(float)
            cost[cost > tol] = 1e18
            rows, cols = linear_sum_assignment(cost)
            optimal = int(np.sum(cost[rows, cols] <= tol))
            assert optimal / 2 <= len(pairs) <= optimal

    def test_empty_inputs(self):
        assert coarse_align([], []) == ()

    def test_shared_starts_at_zero_tolerance_match_the_loop(self):
        # equal starts on both sides tie on gap 0; the pairing and the
        # order within a shared start must follow the loop's index order
        a = [EventDetection("a", t, t + k, 0.1) for k, t in enumerate((5, 5, 0, 5))]
        b = [EventDetection("b", t, t + k, 0.1) for k, t in enumerate((5, 0, 5, 7))]
        expected = coarse_align_loop(a, b, 0)
        assert len(expected) == 3
        assert coarse_align(a, b, tolerance_ns=0) == expected

    @settings(max_examples=budget(300), deadline=None)
    @given(
        st.lists(st.integers(0, 12), max_size=9),
        st.lists(st.integers(0, 12), max_size=9),
        st.integers(0, 4),
    )
    def test_matches_the_candidate_loop(self, starts_a, starts_b, tolerance):
        # a narrow start range forces shared starts and tied gaps; distinct
        # ends make every event distinguishable in the output
        a = [EventDetection("a", t, t + k, 0.1) for k, t in enumerate(starts_a)]
        b = [EventDetection("b", t, t + k, 0.1) for k, t in enumerate(starts_b)]
        assert coarse_align(a, b, tolerance_ns=tolerance) == coarse_align_loop(a, b, tolerance)

    @settings(max_examples=budget(300), deadline=None)
    @given(st.data())
    def test_int64_extremes_match_the_loops(self, data):
        # starts cluster at the ends and the middle of the int64 range, so
        # gaps reach 2**64 - 1; tolerances straddle every width limit
        def start(anchor):
            return st.integers(-3, 3).map(lambda k: min(max(anchor + k, -(2**63)), 2**63 - 1))

        starts = st.sampled_from((-(2**63), -(2**62), 0, 2**62, 2**63 - 1)).flatmap(start)
        starts_a = data.draw(st.lists(starts, max_size=8))
        starts_b = data.draw(st.lists(starts, max_size=8))
        tolerance = data.draw(
            st.integers(0, 4)
            | st.sampled_from((2**62, 2**63 - 1, 2**63, 2**64 - 2, 2**64 - 1, 2**64, 2**70))
            | st.sampled_from((0.5, 2.5, 9.3e18, 1.9e19, math.inf))
        )
        a = [EventDetection("a", t, t + k, 0.1) for k, t in enumerate(starts_a)]
        b = [EventDetection("b", t, t + k, 0.1) for k, t in enumerate(starts_b)]
        assert coarse_align(a, b, tolerance_ns=tolerance) == coarse_align_loop(a, b, tolerance)
        expected = greedy_match_callable(starts_a, starts_b, tolerance, lambda x, y: abs(x - y))
        assert match_integers(starts_a, starts_b, tolerance) == expected

    def test_start_outside_int64_or_nan_tolerance_rejected(self):
        inside = EventDetection("a", 0, 1, 0.1)
        above = EventDetection("b", 2**63, 2**63, 0.1)
        below = EventDetection("b", -(2**63) - 1, -(2**63) - 1, 0.1)
        for args in (
            ([inside], [above], 5),
            ([below], [inside], 5),
            ([inside], [inside], math.nan),
            ([inside], [inside], -1),
        ):
            with pytest.raises(UsageError):
                coarse_align(*args)


def burst_series(onset_ns, rate_hz=100.0, total_s=6.0, seed=0, amplitude=3.0):
    """Magnitude of a quiet three-axis accelerometer-style stream with a
    sharp motion burst at onset_ns."""
    rng = np.random.default_rng(seed)
    period = int(round(1e9 / rate_hz))
    n = int(total_s * rate_hz)
    ts = np.arange(n, dtype=np.int64) * period
    values = rng.normal(0, 0.05, size=(n, 3))
    start = int(onset_ns // period)
    dur = int(1.0 * rate_hz)
    t = np.linspace(0, 6 * np.pi, dur)
    values[start : start + dur, 0] += amplitude * np.sin(t) * rng.uniform(0.8, 1.2, dur)
    values[start : start + dur, 1] += amplitude * np.cos(t) * rng.uniform(0.8, 1.2, dur)
    return TimeSeries(ts, np.linalg.norm(values, axis=1))


class TestFineTune:
    def test_refined_start_near_true_onset(self):
        onset = 3_000_000_000
        series = burst_series(onset, seed=4)
        coarse_guess = onset + 400_000_000
        refined = fine_tune_event({"imu": series}, {"imu": coarse_guess})
        assert set(refined) == {"imu"}
        out = refined["imu"]
        assert out.stream_id == "imu"
        assert not out.fallback
        assert abs(out.refined_ns - onset) < abs(coarse_guess - onset)
        assert abs(out.refined_ns - onset) < 250_000_000

    def test_refined_stays_inside_search_window(self):
        onset = 2_500_000_000
        series = burst_series(onset, seed=9)
        out = fine_tune_event({"imu": series}, {"imu": onset + 300_000_000})
        lo = onset + 300_000_000 - SEARCH_HALF_WIDTH_NS
        hi = onset + 300_000_000 + SEARCH_HALF_WIDTH_NS
        assert lo <= out["imu"].refined_ns <= hi

    def test_quiet_window_falls_back_to_coarse(self):
        rng = np.random.default_rng(1)
        ts = np.arange(600, dtype=np.int64) * 10_000_000
        series = TimeSeries(ts, np.linalg.norm(rng.normal(0, 0.05, size=(600, 3)), axis=1))
        out = fine_tune_event({"imu": series}, {"imu": 3_000_000_000})
        assert out["imu"].fallback
        assert out["imu"].refined_ns == 3_000_000_000

    def test_missing_stream_rejected(self):
        series = burst_series(2_000_000_000)
        with pytest.raises(UsageError):
            fine_tune_event({"imu": series}, {"imu": 2_000_000_000, "cam": 1})


def corrected_stream(device_id, series):
    """A corrected stream holding a series' timestamps and values."""
    samples = [
        SensorSample(device_id, "imu", t, (float(v),), corrected_ts=t)
        for t, v in zip(series.timestamps.tolist(), series.values)
    ]
    return SampleStream(StreamDescriptor(device_id, "imu", 100.0), samples)


class TestApplySync:
    def test_single_anchors_shift_to_reference(self):
        base = burst_series(2_000_000_000, seed=2)
        streams = {"ref": corrected_stream("ref", base), "lag": corrected_stream("lag", base).shifted(250_000_000)}
        anchors = {"ref": [2_000_000_000], "lag": [2_250_000_000]}
        out = apply_sync(streams, anchors, "ref")
        assert np.array_equal(out["ref"].corrected_timestamps(), base.timestamps)
        assert np.array_equal(out["lag"].corrected_timestamps(), base.timestamps)

    @pytest.mark.parametrize(
        "anchors",
        [
            {"ref": 0, "lag": [0]},
            {"ref": [0], "lag": 0},
            {"ref": [0], "lag": ["x"]},
            {"ref": [], "lag": []},
            {"ref": [2.9], "lag": [0.0]},
            {"ref": [True], "lag": [0]},
        ],
        ids=["scalar_reference", "scalar_stream", "non_integer", "empty", "float", "bool"],
    )
    def test_anchors_that_are_not_integer_sequences_rejected(self, anchors):
        base = burst_series(1_000_000_000)
        streams = {"ref": corrected_stream("ref", base), "lag": corrected_stream("lag", base)}
        with pytest.raises(UsageError, match="refined start"):
            apply_sync(streams, anchors, "ref")

    def test_list_anchors_use_median_difference(self):
        base = burst_series(1_000_000_000, seed=5)
        streams = {"ref": corrected_stream("ref", base), "lag": corrected_stream("lag", base).shifted(100)}
        anchors = {"ref": [0, 1_000, 2_000], "lag": [100, 1_100, 9_000]}
        out = apply_sync(streams, anchors, "ref")
        # per-event differences are (100, 100, 7000); the median ignores the outlier
        assert out["lag"].corrected_timestamps()[0] == base.timestamps[0]

    def test_unknown_reference_rejected(self):
        base = corrected_stream("a", burst_series(1_000_000_000))
        with pytest.raises(UsageError):
            apply_sync({"a": base}, {"a": [0]}, "nope")

