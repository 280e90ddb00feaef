import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.signal import freqz, lfilter

from oracles import (
    budget,
    butter_lowpass,
    lowpass_filtfilt,
    shannon_entropy,
    shannon_entropy_reference,
    sliding_entropy_per_window,
)
from sensorstack.errors import ConfigError, DomainError, UsageError
from sensorstack.eventsync import (
    TimeSeries,
    butterworth_lowpass,
    design_lowpass,
    sliding_entropy,
)
from sensorstack.eventsync.filters import _lowpass


class TestTimeSeries:
    def test_slice_is_a_read_only_view_with_the_same_samples(self):
        series = TimeSeries(np.arange(10, dtype=np.int64) * 5, np.arange(10.0))
        part = series.slice_time(10, 31)
        assert part.timestamps.tolist() == [10, 15, 20, 25, 30]
        assert part.values.tolist() == [2.0, 3.0, 4.0, 5.0, 6.0]
        assert part.timestamps.dtype == np.int64
        for column, whole in ((part.timestamps, series.timestamps), (part.values, series.values)):
            assert not column.flags.writeable and np.shares_memory(column, whole)
        with pytest.raises(UsageError):
            series.slice_time(11, 14)

    def test_non_integral_timestamps_rejected(self):
        for ts in (np.array([0.5, 1.7]), np.array([0.0, np.nan]), np.array([0.0, np.inf]), np.array([False, True])):
            with pytest.raises(UsageError, match="integral"):
                TimeSeries(ts, np.zeros(2))

    def test_timestamps_outside_int64_rejected(self):
        for ts in (np.array([0, 2**63]), np.array([-(2.0**64), 0.0]), [-(2**63) - 1, 0], [0, 2**70]):
            with pytest.raises(DomainError, match="int64"):
                TimeSeries(ts, np.zeros(2))

    def test_integral_values_of_any_dtype_become_int64(self):
        for ts in (
            [-(2**63), 0, 2**63 - 1],
            np.array([-(2**63), 0, 2**63 - 1], dtype=object),
            np.array([0, 2**63 - 1], dtype=np.uint64),
            np.array([-(2.0**63), 0.0, 2.0**62]),
            np.array([1, 2], dtype=np.int32),
        ):
            got = TimeSeries(ts, np.zeros(len(ts))).timestamps
            assert got.dtype == np.int64
            assert got.tolist() == [int(t) for t in ts]

    def test_gap_outside_int64_rejected(self):
        # np.diff wrapped these gaps to a median period of 0 and a bare ZeroDivisionError
        series = TimeSeries([-(2**63), 0, 2**63 - 1], np.zeros(3))
        with pytest.raises(DomainError, match="int64"):
            series.median_period_ns()
        with pytest.raises(DomainError, match="int64"):
            series.sample_rate_hz()
        widest = TimeSeries([-(2**62), 2**62 - 1, 2**63 - 1], np.zeros(3))
        assert widest.median_period_ns() == int(np.median([2**63 - 1, 2**62]))


class TestShannonEntropy:
    def test_two_equal_halves_one_bit(self):
        values = np.array([0.0, 0.0, 1.0, 1.0])
        assert shannon_entropy(values, bins=2) == pytest.approx(1.0)

    def test_constant_window_zero(self):
        assert shannon_entropy(np.full(50, 3.7)) == 0.0

    def test_uniform_over_16_bins_four_bits(self):
        # one sample per bin center: maximal entropy for the default bin count
        edges = np.linspace(0.0, 1.0, 17)
        centers = (edges[:-1] + edges[1:]) / 2
        assert shannon_entropy(centers) == pytest.approx(4.0)

    def test_matches_reference_loop(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            values = rng.normal(size=rng.integers(10, 200))
            assert shannon_entropy(values) == pytest.approx(
                shannon_entropy_reference(values), abs=1e-12
            )

    def test_rejects_empty_and_non_finite(self):
        with pytest.raises(UsageError):
            shannon_entropy(np.array([]))
        with pytest.raises(UsageError):
            shannon_entropy(np.array([1.0, np.nan]))


class TestSlidingEntropy:
    def test_constant_signal_yields_zeros(self):
        ts = np.arange(100, dtype=np.int64) * 10_000_000
        series = TimeSeries(ts, np.ones(100))
        out = sliding_entropy(series, window_ns=200_000_000, stride_ns=100_000_000)
        assert np.all(out.values == 0.0)

    def test_timestamps_are_window_centers(self):
        ts = np.arange(50, dtype=np.int64) * 10_000_000
        series = TimeSeries(ts, np.sin(np.arange(50.0)))
        window = 200_000_000
        out = sliding_entropy(series, window_ns=window, stride_ns=window)
        assert out.timestamps[0] == ts[0] + window // 2

    def test_burst_raises_entropy_above_quiet_floor(self):
        rng = np.random.default_rng(7)
        ts = np.arange(400, dtype=np.int64) * 10_000_000
        values = np.zeros(400)
        values[200:240] = rng.normal(0, 3.0, size=40)
        series = TimeSeries(ts, values)
        out = sliding_entropy(series, window_ns=300_000_000, stride_ns=50_000_000)
        quiet = out.values[:10].max()
        assert out.values.max() > quiet + 1.0

    def test_faint_noise_floor_scores_near_zero(self):
        # bins anchor to the series range, so a noisy but small baseline
        # stays in one cell instead of spreading across its own tiny span
        rng = np.random.default_rng(11)
        ts = np.arange(400, dtype=np.int64) * 10_000_000
        values = rng.normal(0, 0.01, size=400)
        values[200:300] += 5.0 * np.sin(np.linspace(0, 3 * np.pi, 100))
        series = TimeSeries(ts, values)
        out = sliding_entropy(series, window_ns=300_000_000, stride_ns=50_000_000)
        assert out.values[:8].max() < 0.5
        assert out.values.max() > 2.0

    def test_window_below_three_periods_rejected(self):
        ts = np.arange(20, dtype=np.int64) * 10_000_000
        series = TimeSeries(ts, np.ones(20))
        with pytest.raises(UsageError):
            sliding_entropy(series, window_ns=20_000_000, stride_ns=10_000_000)

    def test_windows_ending_past_int64_rejected(self):
        ts = 2**63 - 1 - np.arange(20, dtype=np.int64)[::-1] * 10
        series = TimeSeries(ts, np.arange(20.0))
        with pytest.raises(DomainError, match="int64"):
            sliding_entropy(series, window_ns=50, stride_ns=10)


@st.composite
def entropy_inputs(draw):
    """A jittered series, often on a coarse value grid so many values sit
    exactly on bin edges, the top edge (the series maximum) included."""
    n = draw(st.integers(4, 120))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    period = draw(st.sampled_from([7, 1_000, 40_000_000]))
    steps = rng.integers(max(1, period // 2), period * 3 // 2 + 1, n)
    ts = draw(st.integers(-(10**15), 10**15)) + np.cumsum(steps)
    grid = draw(st.sampled_from([None, 2, 4, 16, 17, 32]))
    values = rng.normal(size=n) if grid is None else rng.integers(0, grid + 1, n) / grid
    if grid is not None and draw(st.booleans()):
        values[rng.integers(0, n, max(1, n // 4))] = values.max()
    series = TimeSeries(ts, values)
    median = series.median_period_ns()
    window = draw(st.integers(3 * median, 40 * median))
    stride = draw(st.integers(max(1, median // 4), 4 * median))
    return series, window, stride


class TestSlidingEntropyMatchesPerWindow:
    """Cumulative bin counts give the per-window histograms' entropies."""

    @settings(max_examples=budget(300), deadline=None)
    @given(entropy_inputs())
    def test_same_windows_and_values(self, case):
        series, window, stride = case
        expected_ts, expected = sliding_entropy_per_window(series, window, stride)
        if len(expected_ts) == 0:
            with pytest.raises(UsageError, match="too short"):
                sliding_entropy(series, window, stride)
            return
        got = sliding_entropy(series, window, stride)
        assert np.array_equal(got.timestamps, expected_ts)
        # summation order differs from the per-window histogram's
        np.testing.assert_allclose(got.values, expected, rtol=0, atol=1e-12)

    def test_value_on_the_top_edge_counts_in_the_last_bin(self):
        ts = np.arange(8, dtype=np.int64) * 10
        series = TimeSeries(ts, np.array([0.0, 0.0, 0.0, 0.0, 1.0, 1.0, 1.0, 1.0]))
        got = sliding_entropy(series, window_ns=40, stride_ns=20)
        assert got.values.tolist() == pytest.approx([0.0, 1.0, 0.0])


class TestLowpass:
    def test_dc_signal_passes_unchanged(self):
        ts = np.arange(200, dtype=np.int64) * 10_000_000
        series = TimeSeries(ts, np.full(200, 5.0))
        out = butterworth_lowpass(series, order=4, cutoff_hz=5.0)
        assert np.allclose(out.values, 5.0, atol=1e-9)

    def test_high_frequency_attenuated_low_preserved(self):
        rate = 100.0
        n = 1000
        t = np.arange(n) / rate
        low = np.sin(2 * np.pi * 1.0 * t)
        high = np.sin(2 * np.pi * 40.0 * t)
        ts = (t * 1e9).round().astype(np.int64)
        out = butterworth_lowpass(TimeSeries(ts, low + high), order=4, cutoff_hz=5.0)
        residual_low = out.values[100:-100] - low[100:-100]
        assert np.abs(residual_low).max() < 0.05

    def test_half_power_at_cutoff(self):
        # the squared magnitude response of the designed filter is 1/2 at the cutoff
        b, a = design_lowpass(order=2, cutoff_hz=5.0, sample_rate_hz=100.0)
        w, h = freqz(b, a, worN=[5.0], fs=100.0)
        assert np.abs(h[0]) ** 2 == pytest.approx(0.5, abs=1e-9)

    def test_unit_gain_at_dc(self):
        b, a = design_lowpass(order=3, cutoff_hz=8.0, sample_rate_hz=100.0)
        assert np.sum(b) / np.sum(a) == pytest.approx(1.0)
        steady = lfilter(b, a, np.ones(500))[-1]
        assert steady == pytest.approx(1.0, abs=1e-6)

    def test_cutoff_at_or_above_nyquist_rejected(self):
        ts = np.arange(100, dtype=np.int64) * 10_000_000
        series = TimeSeries(ts, np.zeros(100))
        with pytest.raises(ConfigError):
            butterworth_lowpass(series, order=4, cutoff_hz=50.0)
        with pytest.raises(ConfigError):
            design_lowpass(order=0, cutoff_hz=5.0, sample_rate_hz=100.0)

    @pytest.mark.parametrize(
        "order, cutoff_hz, sample_rate_hz",
        [
            (2.5, 5.0, 100.0),
            ("4", 5.0, 100.0),
            (True, 5.0, 100.0),
            (None, 5.0, 100.0),
            (0, 5.0, 100.0),
            (4, math.nan, 100.0),
            (4, math.inf, 100.0),
            (4, "5", 100.0),
            (4, 5.0, math.nan),
            (4, 5.0, math.inf),
            (4, 5.0, -100.0),
            (4, 5.0, False),
        ],
    )
    def test_bad_design_input_is_a_config_error(self, order, cutoff_hz, sample_rate_hz):
        with pytest.raises(ConfigError):
            design_lowpass(order, cutoff_hz, sample_rate_hz)

    @pytest.mark.parametrize("order, cutoff_hz", [(2.5, 5.0), ("4", 5.0), (True, 5.0), (4, math.nan), (4, -math.inf)])
    def test_bad_filter_settings_are_a_config_error(self, order, cutoff_hz):
        series = TimeSeries(np.arange(100, dtype=np.int64) * 10_000_000, np.zeros(100))
        with pytest.raises(ConfigError):
            butterworth_lowpass(series, order=order, cutoff_hz=cutoff_hz)

    def test_numpy_scalars_design_like_python_numbers(self):
        b, a = design_lowpass(np.int64(4), np.float32(5.0), np.float64(24.7))
        expected_b, expected_a = design_lowpass(4, 5.0, 24.7)
        assert b.tobytes() == expected_b.tobytes() and a.tobytes() == expected_a.tobytes()


class TestLowpassMatchesScipy:
    """The numpy design and zero-phase pass give scipy's bits."""

    @settings(max_examples=budget(300), deadline=None)
    @given(order=st.integers(1, 8), sample_rate_hz=st.floats(11.0, 200.0), fraction=st.floats(1e-4, 0.4999))
    def test_design_is_butter_bit_for_bit(self, order, sample_rate_hz, fraction):
        cutoff_hz = fraction * sample_rate_hz
        b, a = design_lowpass(order, cutoff_hz, sample_rate_hz)
        expected_b, expected_a = butter_lowpass(order, cutoff_hz, sample_rate_hz)
        assert (b.dtype, a.dtype) == (expected_b.dtype, expected_a.dtype)
        assert b.tobytes() == expected_b.tobytes()
        assert a.tobytes() == expected_a.tobytes()

    def test_fine_tune_designs_at_jittered_rates_are_butter_bit_for_bit(self):
        # the fine-tune's cutoff, min(5 Hz, 0.45 rate), at rates a jittered 25 Hz stream gives
        for period_ns in range(39_000_000, 41_000_001, 997):
            rate = 1e9 / period_ns
            b, a = design_lowpass(4, min(5.0, 0.45 * rate), rate)
            expected_b, expected_a = butter_lowpass(4, min(5.0, 0.45 * rate), rate)
            assert b.tobytes() == expected_b.tobytes() and a.tobytes() == expected_a.tobytes()

    @settings(max_examples=budget(60), deadline=None)
    @given(
        order=st.integers(1, 8),
        sample_rate_hz=st.floats(11.0, 200.0),
        seed=st.integers(0, 2**32 - 1),
        scale=st.sampled_from([1e-6, 1.0, 1e6]),
    )
    def test_lowpass_is_filtfilt_at_every_padlen(self, order, sample_rate_hz, seed, scale):
        # lengths 1 .. 3 * order + 3 take the padding through every value from 0 to len - 1
        rng = np.random.default_rng(seed)
        cutoff_hz = min(5.0, 0.45 * sample_rate_hz)
        for n in range(1, 3 * order + 4):
            ts = np.cumsum(rng.integers(1, 10**8, n))
            series = TimeSeries(ts, rng.normal(0.0, scale, n) + rng.normal())
            got = _lowpass(series, order, cutoff_hz, sample_rate_hz)
            expected = lowpass_filtfilt(series, order, cutoff_hz, sample_rate_hz)
            assert got.values.tobytes() == np.ascontiguousarray(expected.values).tobytes()
            assert got.timestamps is series.timestamps
            assert not got.values.flags.writeable
