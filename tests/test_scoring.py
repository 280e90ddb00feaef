import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import budget, greedy_match_callable
from sensorstack.errors import UsageError
from sensorstack.scoring import greedy_match, match_integers, prf_scores


class TestPrfScores:
    @pytest.mark.parametrize(
        "counts", [(-1, 0, 0), (0, -1, 0), (0, 0, -1), (1.0, 0, 0), (0, True, 0), (0, 0, "1"), (None, 0, 0)], ids=repr
    )
    def test_counts_that_are_not_non_negative_integers_rejected(self, counts):
        with pytest.raises(UsageError):
            prf_scores(*counts)

    def test_numpy_counts_score_as_ints_do(self):
        assert prf_scores(np.int64(3), np.int32(1), np.uint8(2)) == prf_scores(3, 1, 2)


class TestGreedyMatch:
    @settings(max_examples=budget(300), deadline=None)
    @given(st.data())
    def test_matches_the_callable_matcher(self, data):
        # few distinct distances force ties; the candidates arrive in a
        # drawn order, so only the sort key decides which tie goes first
        k, m = data.draw(st.integers(0, 7)), data.draw(st.integers(0, 7))
        table = data.draw(
            st.lists(st.lists(st.sampled_from((0.0, 0.5, 1.0, 2.0)), min_size=m, max_size=m), min_size=k, max_size=k)
        )
        max_distance = data.draw(st.sampled_from((0.0, 0.5, 1.0, math.inf)))
        order = data.draw(st.permutations(range(k * m)))
        i, j = (np.indices((k, m)).reshape(2, -1)[:, order])
        d = np.array(table, dtype=float).reshape(-1)[order]
        expected = greedy_match_callable(range(k), range(m), max_distance, lambda a, b: table[a][b])
        assert greedy_match(d, i, j, max_distance) == expected

    def test_nan_or_negative_max_distance_rejected(self):
        for bad in (math.nan, -1.0):
            with pytest.raises(UsageError):
                greedy_match(np.zeros(1), np.zeros(1, int), np.zeros(1, int), bad)


class TestMatchIntegers:
    def test_gaps_across_the_whole_int64_range_are_exact(self):
        low, high = -(2**63), 2**63 - 1
        assert match_integers([low, high], [high, low], 0) == [(0, 1), (1, 0)]
        # the gap 2**64 - 1 is beyond 2**64 - 2 and within anything larger
        assert match_integers([low], [high], 2**64 - 2) == []
        assert match_integers([low], [high], 2**64 - 1) == [(0, 0)]
        assert match_integers([low], [high], math.inf) == [(0, 0)]

    def test_fractional_tolerance_rounds_down(self):
        assert match_integers([0], [3], 2.999) == []
        assert match_integers([0], [3], 3.0) == [(0, 0)]

    # a fraction is not truncated, nor a bool taken for an integer
    @pytest.mark.parametrize("a", [2, 2.5, [[1, 2]], ["x"], [None], [2.9], [True]], ids=repr)
    def test_values_that_are_not_a_sequence_of_integers_rejected(self, a):
        with pytest.raises(UsageError, match="values"):
            match_integers(a, [1], 5)

    def test_values_outside_int64_or_nan_tolerance_rejected(self):
        # an unsigned array beyond int64 is not wrapped
        beyond = np.array([2**63], dtype=np.uint64)
        for a, b, tolerance in (([2**63], [0], 5), ([0], [-(2**63) - 1], 5), (beyond, [-(2**63)], 0), ([0], [0], math.nan)):
            with pytest.raises(UsageError):
                match_integers(a, b, tolerance)

    def test_numpy_integer_values_match_as_ints_do(self):
        expected = match_integers([5, 9, -3], [9, 5], 0)
        assert expected == [(0, 1), (1, 0)]
        assert match_integers(np.array([5, 9, -3], dtype=np.int32), [np.uint8(9), np.int64(5)], 0) == expected
        assert match_integers(np.array([5, 9], dtype=np.uint64), np.array([9, 5]), 0) == expected[:2]
