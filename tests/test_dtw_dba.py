from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import budget, dba_every_pass, dba_rows, dtw_backtrack, dtw_enumerate, dtw_table_rows
from sensorstack.errors import UsageError
from sensorstack.eventsync import GestureTemplate, TimeSeries, dba, dtw_distance
from sensorstack.eventsync import dtw
from sensorstack.eventsync.dtw import _cumulative, dtw_cost


def valid_warp_path(path, n, m):
    if path[0] != (0, 0) or path[-1] != (n - 1, m - 1):
        return False
    for (i0, j0), (i1, j1) in zip(path, path[1:]):
        if (i1 - i0, j1 - j0) not in {(1, 0), (0, 1), (1, 1)}:
            return False
    return True


class TestDtwDistance:
    def test_constant_step_example(self):
        result = dtw_distance([0.0, 0.0], [1.0, 1.0])
        assert result.cost == pytest.approx(2.0)

    def test_repeated_value_absorbed_for_free(self):
        result = dtw_distance([1.0, 2.0, 3.0], [1.0, 2.0, 2.0, 3.0])
        assert result.cost == 0.0

    def test_identical_sequences_diagonal_path(self):
        seq = [0.3, 1.7, -2.0, 0.4]
        result = dtw_distance(seq, seq)
        assert result.cost == 0.0
        assert list(result.path) == [(i, i) for i in range(len(seq))]

    def test_matches_exhaustive_enumeration(self):
        # every optimal cost agrees with brute-force search over all paths
        rng = np.random.default_rng(11)
        for _ in range(60):
            n = int(rng.integers(1, 7))
            m = int(rng.integers(1, 7))
            s = rng.normal(size=n).round(3)
            t = rng.normal(size=m).round(3)
            expected = dtw_enumerate(s, t, lambda a, b: abs(a - b))
            got = dtw_distance(s, t)
            assert got.cost == pytest.approx(expected, abs=1e-12)
            assert valid_warp_path(got.path, n, m)

    def test_cost_only_variant_agrees(self):
        rng = np.random.default_rng(3)
        s = rng.normal(size=40)
        t = rng.normal(size=55)
        assert dtw_cost(s, t) == pytest.approx(dtw_distance(s, t).cost)

    def test_empty_sequence_rejected(self):
        with pytest.raises(UsageError):
            dtw_distance([], [1.0])

    def test_mixed_dimensionality_rejected_by_both_variants(self):
        # sequences are one channel: 2-d input is rejected on either side
        for s, t in ((np.zeros((4, 2)), np.zeros(4)), (np.zeros(4), np.zeros((4, 2))), (np.zeros((4, 2)),) * 2):
            for dtw in (dtw_distance, dtw_cost):
                with pytest.raises(UsageError, match="1-d"):
                    dtw(s, t)

    @given(
        s=st.lists(st.floats(-5, 5), min_size=1, max_size=12),
        t=st.lists(st.floats(-5, 5), min_size=1, max_size=12),
    )
    @settings(max_examples=120, deadline=None)
    def test_symmetry_and_path_validity(self, s, t):
        fwd = dtw_distance(s, t)
        rev = dtw_distance(t, s)
        assert fwd.cost == pytest.approx(rev.cost, abs=1e-9)
        assert valid_warp_path(fwd.path, len(s), len(t))
        assert fwd.cost >= 0.0


BAD_SERIES_AND_TEMPLATES = {
    "series-text-values": lambda: TimeSeries([0, 1], ["a", "b"]),
    "series-ragged-values": lambda: TimeSeries([0, 1], [[1.0], [2.0, 3.0]]),
    "series-ragged-timestamps": lambda: TimeSeries([[0], [1, 2]], [1.0, 2.0]),
    "series-scalar-values": lambda: TimeSeries([0], 5),
    "series-two-channels": lambda: TimeSeries([0, 1], [[1.0, 2.0], [3.0, 4.0]]),
    "template-text-values": lambda: GestureTemplate(["a", "b"], 25.0),
    "template-text-rate": lambda: GestureTemplate([0.0, 1.0], "25"),
    "template-text-threshold": lambda: GestureTemplate([0.0, 1.0], 25.0, "0.8"),
}


@pytest.mark.parametrize("case", sorted(BAD_SERIES_AND_TEMPLATES))
def test_bad_values_raise_usage_error(case):
    with pytest.raises(UsageError):
        BAD_SERIES_AND_TEMPLATES[case]()


@pytest.mark.parametrize("field", ["sample_rate_hz", "dtw_threshold"])
@pytest.mark.parametrize(
    "bad",
    [True, np.inf, np.nan, 0.0, -1.0, None, 10**400],
    ids=["bool", "inf", "nan", "zero", "negative", "none", "huge"],
)
def test_template_rate_and_threshold_must_be_positive_finite_numbers(field, bad):
    with pytest.raises(UsageError, match="rate" if field == "sample_rate_hz" else "threshold"):
        GestureTemplate([0.0, 1.0], **{"sample_rate_hz": 25.0, field: bad})


def test_template_takes_numpy_numbers():
    template = GestureTemplate(np.array([0.0, 1.0], dtype=np.float32), np.int64(25), np.float32(0.8))
    assert template.values.dtype == float and template.sample_rate_hz == 25


def warped_pulse(rng, length=60):
    """A smooth pulse with a random time warp applied."""
    base = np.linspace(0, 1, length)
    warp = np.interp(base, [0, rng.uniform(0.3, 0.7), 1], [0, rng.uniform(0.3, 0.7), 1])
    return np.exp(-((warp - 0.5) ** 2) / 0.02)


class TestDba:
    def test_single_sequence_is_fixed_point(self):
        seq = np.array([0.0, 1.0, 3.0, 0.5])
        result = dba([seq], iterations=5)
        assert np.allclose(result.barycenter, seq)

    def test_two_constant_sequences_average(self):
        a = np.full(6, 2.0)
        b = np.full(6, 4.0)
        result = dba([a, b], iterations=3)
        assert np.allclose(result.barycenter, 3.0)

    def test_objective_never_increases_on_random_sets(self):
        for seed in range(10):
            rng = np.random.default_rng(seed)
            seqs = [rng.normal(size=rng.integers(20, 40)) for _ in range(5)]
            result = dba(seqs, iterations=8)
            diffs = np.diff(result.costs)
            assert np.all(diffs <= 1e-9), f"seed {seed}: {result.costs}"

    @pytest.mark.parametrize("iterations", [2.5, "3", True, None])
    def test_non_integer_iterations_rejected(self, iterations):
        with pytest.raises(UsageError, match="iterations"):
            dba([[1.0, 2.0]], iterations)

    def test_non_iterable_sequences_rejected(self):
        with pytest.raises(UsageError, match="iterable"):
            dba(5, 1)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_values_rejected(self, bad):
        with pytest.raises(UsageError, match="finite"):
            dba([[1.0, 2.0], [1.0, bad]], 2)
        for dtw in (dtw_distance, dtw_cost):
            with pytest.raises(UsageError, match="finite"):
                dtw([1.0, bad], [1.0, 2.0])
            with pytest.raises(UsageError, match="finite"):
                dtw([1.0, 2.0], [bad])

    @pytest.mark.parametrize("case", ["converging", "not_converging", "signed_zero"])
    def test_stopping_at_the_fixed_point_matches_every_pass(self, case):
        """Once a pass leaves the barycenter byte for byte as it was, the
        skipped passes would repeat its cost. A -0.0 that the mean turns
        into 0.0 is a change, so the run goes on past it."""
        rng = np.random.default_rng(5)
        iterations = 10
        if case == "converging":
            seqs = [warped_pulse(rng) for _ in range(5)]
        elif case == "not_converging":
            seqs, iterations = [rng.normal(size=30) for _ in range(6)], 1
        else:
            seqs = [np.array([-0.0, 1.0, -0.0, 2.0, -0.0])] * 3
        barycenter, costs = dba_every_pass(seqs, iterations)
        with mock.patch.object(dtw, "_aligned_mean", wraps=dtw._aligned_mean) as passes:
            result = dba(seqs, iterations)
        assert result.barycenter.tobytes() == barycenter.tobytes()
        assert result.costs == costs
        # the pulses settle after 7 passes; the zeros need a second pass to confirm 0.0
        assert passes.call_count == {"converging": 7, "not_converging": 1, "signed_zero": 2}[case]
        if case == "signed_zero":
            assert not np.signbit(result.barycenter).any()

    @settings(max_examples=budget(40), deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), count=st.integers(1, 5), levels=st.sampled_from([0, 1, 3]), iterations=st.integers(1, 12))
    def test_equals_every_pass(self, seed, count, levels, iterations):
        rng = np.random.default_rng(seed)
        seqs = [tied_or_random(rng, int(rng.integers(2, 12)), levels) for _ in range(count)]
        barycenter, costs = dba_every_pass(seqs, iterations)
        result = dba(seqs, iterations)
        assert result.barycenter.tobytes() == barycenter.tobytes()
        assert result.costs == costs

    def test_template_beats_arithmetic_mean_on_warped_pulses(self):
        rng = np.random.default_rng(5)
        seqs = [warped_pulse(rng) for _ in range(5)]
        result = dba(seqs, iterations=10)
        mean = np.mean(seqs, axis=0)
        dba_total = sum(dtw_cost(result.barycenter, s) for s in seqs)
        mean_total = sum(dtw_cost(mean, s) for s in seqs)
        assert dba_total <= mean_total


def tied_or_random(rng, size, levels):
    """Small integers when ``levels`` is set, so costs tie; normal values otherwise."""
    if levels:
        return rng.integers(0, levels + 1, size).astype(float)
    return rng.normal(size=size)


class TestKernelMatchesRowOracle:
    """The in-place batched kernel gives the row oracle's tables bit for bit."""

    @settings(max_examples=budget(150), deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 9),
        m=st.integers(1, 9),
        levels=st.sampled_from([0, 1, 2, 4]),
    )
    def test_distance_path_and_cost(self, seed, n, m, levels):
        rng = np.random.default_rng(seed)
        s, t = tied_or_random(rng, n, levels), tied_or_random(rng, m, levels)
        table = dtw_table_rows(np.abs(s[:, None] - t[None, :]))
        got = dtw_distance(s, t)
        assert got.cost == float(table[-1, -1])
        assert list(got.path) == dtw_backtrack(table)
        assert dtw_cost(s, t) == float(table[-1, -1])

    @settings(max_examples=budget(60), deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        shapes=st.lists(st.tuples(st.integers(1, 9), st.integers(1, 9)), min_size=1, max_size=6),
        levels=st.sampled_from([0, 1, 2, 4]),
    )
    def test_one_batch_of_tables_of_different_heights_and_widths(self, seed, shapes, levels):
        # each table's row sums sit at the top left of its entry; the padding
        # below and to its right holds arbitrary values the table must not read
        rng = np.random.default_rng(seed)
        n, m = max(h for h, _ in shapes), max(w for _, w in shapes)
        table = np.empty((n, m + 1, len(shapes)))
        table[:, 1:] = rng.normal(size=(n, m, len(shapes))) * 10
        costs = []
        for b, (h, w) in enumerate(shapes):
            costs.append(tied_or_random(rng, (h, w), levels) ** 2)
            table[:h, 1 : w + 1, b] = np.cumsum(costs[-1], axis=1)
        cum = _cumulative(table)
        for b, (h, w) in enumerate(shapes):
            assert cum[:h, :w, b].tobytes() == dtw_table_rows(costs[b]).tobytes()

    @settings(max_examples=budget(40), deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        count=st.integers(1, 4),
        levels=st.sampled_from([0, 1, 3]),
        iterations=st.integers(1, 3),
    )
    def test_dba(self, seed, count, levels, iterations):
        rng = np.random.default_rng(seed)
        seqs = [tied_or_random(rng, int(rng.integers(2, 9)), levels) for _ in range(count)]
        barycenter, costs = dba_rows(seqs, iterations)
        got = dba(seqs, iterations)
        assert np.array_equal(got.barycenter, barycenter)
        assert got.costs == costs
