import copy
import dataclasses
import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    align_per_epoch,
    budget,
    full_sort_pairing,
    kalman_update_checked,
    ols_line_fit,
    shifted_per_sample,
    with_clock_per_sample,
)
from sensorstack.errors import ConfigError, DomainError, UsageError
from sensorstack import timebase as tb
from sensorstack.timebase import (
    AlignedFrame,
    BufferPolicy,
    ClockModel,
    NoiseConfig,
    SampleStream,
    SensorSample,
    StreamDescriptor,
    align_streams,
    buffer_size,
    correct_timestamp,
    kalman_update,
)

NS = tb.NS_PER_SEC


def make_stream(device, modality, ts_list, payloads=None, rate=100.0, corrected=True):
    payloads = payloads or [(float(i),) for i in range(len(ts_list))]
    samples = tuple(
        SensorSample(device, modality, int(t), p, corrected_ts=int(t) if corrected else None)
        for t, p in zip(ts_list, payloads)
    )
    return SampleStream(StreamDescriptor(device, modality, rate), samples)


def zero_model(anchor=0):
    """A clock model with no offset and no drift: corrected timestamps equal local ones."""
    return ClockModel(0.0, 0.0, anchor, np.zeros((2, 2)))


class TestCorrectTimestamp:
    def test_identity_model_is_noop(self):
        assert correct_timestamp(1234, zero_model()) == 1234

    def test_offset_and_drift_arithmetic(self):
        # 400 ms offset plus 1e-3 drift over 100 s adds exactly 500 ms
        anchor = 50 * NS
        model = ClockModel(0.4, 1e-3, anchor, np.zeros((2, 2)))
        local = anchor + 100 * NS
        assert correct_timestamp(local, model) == local + 500_000_000

    def test_sample_before_anchor_rejected(self):
        model = zero_model(anchor=10 * NS)
        with pytest.raises(DomainError, match="precedes sync anchor"):
            correct_timestamp(10 * NS - 1, model)

    @given(
        offset=st.floats(-10.0, 10.0),
        drift=st.floats(-0.09, 0.09),
        base=st.integers(0, 10**12),
        gap=st.integers(2, 10**9),
    )
    @settings(max_examples=200, deadline=None)
    def test_strictly_monotone_for_separated_samples(self, offset, drift, base, gap):
        model = ClockModel(offset, drift, 0, np.zeros((2, 2)))
        a = correct_timestamp(base, model)
        b = correct_timestamp(base + gap, model)
        assert b > a

    def test_drift_bound_enforced(self):
        with pytest.raises(DomainError):
            ClockModel(0.0, 0.2, 0, np.zeros((2, 2)))


def spaced_times(rng, count, period_s):
    """Jittered periodic probe times with a guaranteed minimum gap."""
    jitter = rng.uniform(-0.25 * period_s, 0.25 * period_s, size=count)
    return [round(((i + 1) * period_s + j) * NS) for i, j in enumerate(jitter)]


def linear_observations(offset, drift, times_ns, noise_s=None):
    obs = []
    for i, t in enumerate(times_ns):
        err = offset + drift * (t / NS)
        if noise_s is not None:
            err += noise_s[i]
        obs.append((int(t), int(t) + round(err * NS)))
    return obs


def run_filter(obs, model, noise):
    for pair in obs:
        model = kalman_update(model, pair, noise)
    return model


class TestKalmanUpdate:
    def test_noiseless_linear_clock_recovered(self):
        # exact linear clock: 250 ms offset, 5e-4 drift, 20 samples over 60 s.
        # Times are multiples of 2 ms so drift * t is a whole nanosecond count
        # and the observations carry no quantization error at all.
        truth_offset, truth_drift = 0.25, 5e-4
        times = [round(i * 60 / 19 * 500) * 2_000_000 for i in range(20)]
        obs = [(t, t + 250_000_000 + round(truth_drift * t)) for t in times]
        model = ClockModel(0.0, 0.0, 0, np.diag([1e8, 1e2]))
        noise = NoiseConfig(0.0, 0.0, 1e-12)
        model = run_filter(obs, model, noise)
        at_origin = model.at_anchor(0)
        assert abs(at_origin.offset - truth_offset) / truth_offset < 1e-9
        assert abs(at_origin.drift_rate - truth_drift) / truth_drift < 1e-9
        taus = [local / NS for local, _ in obs]
        zs = [(ref - local) / NS for local, ref in obs]
        intercept, slope = ols_line_fit(taus, zs)
        assert abs(at_origin.offset - intercept) < 1e-9 * abs(intercept)
        assert abs(at_origin.drift_rate - slope) < 1e-9 * abs(slope)

    def test_matches_least_squares_oracle_on_noisy_data(self):
        rng = np.random.default_rng(7)
        times = spaced_times(rng, count=100, period_s=1.2)
        noise = rng.normal(0.0, 0.005, size=100)
        obs = linear_observations(0.4, -2e-5, times, noise)
        model = ClockModel(0.0, 0.0, 0, np.diag([1e8, 1e2]))
        model = run_filter(obs, model, NoiseConfig(0.0, 0.0, 1e-4))
        taus = [(local / NS) for local, _ in obs]
        zs = [(ref - local) / NS for local, ref in obs]
        intercept, slope = ols_line_fit(taus, zs)
        at_origin = model.at_anchor(0)
        assert abs(at_origin.offset - intercept) <= 1e-6 * max(1.0, abs(intercept))
        assert abs(at_origin.drift_rate - slope) <= 1e-6 * max(1.0, abs(slope))

    def test_covariance_trace_non_increasing_for_repeated_observation(self):
        model = ClockModel.initial(0)
        noise = NoiseConfig()
        obs = (5 * NS, 5 * NS + 300_000_000)
        traces = []
        for _ in range(20):
            model = kalman_update(model, obs, noise)
            traces.append(float(np.trace(model.covariance)))
        diffs = np.diff(traces)
        assert np.all(diffs <= 1e-15)

    def test_offset_recovery_under_gaussian_noise(self):
        # mean |error at the centroid time| stays within 3*sigma/sqrt(n)
        sigma, n = 0.005, 50
        truth_offset, truth_drift = 0.3, 3e-5
        errors = []
        for seed in range(100):
            rng = np.random.default_rng(seed)
            times = spaced_times(rng, count=n, period_s=1.8)
            noise = rng.normal(0.0, sigma, size=n)
            obs = linear_observations(truth_offset, truth_drift, times, noise)
            model = ClockModel(0.0, 0.0, 0, np.diag([1e8, 1e2]))
            model = run_filter(obs, model, NoiseConfig(0.0, 0.0, sigma**2))
            centroid = int(np.mean([local for local, _ in obs]))
            est = model.at_anchor(centroid).offset
            truth_at_centroid = truth_offset + truth_drift * centroid / NS
            errors.append(abs(est - truth_at_centroid))
        assert float(np.mean(errors)) < 3 * sigma / math.sqrt(n)

    def test_identical_to_the_checked_constructor_on_benchmark_exchanges(self, perfbench_scenes):
        # the clock exchanges of perfbench's scenes, seeds 1-3 of both
        # workloads, folded in with its noise setting and the default one
        steps = 0
        for workload in ("parking_lot", "intersection"):
            for seed in (1, 2, 3):
                for session in perfbench_scenes.make_scene(workload, seed, 0).sessions:
                    for exchanges in session.exchanges.values():
                        for noise in (NoiseConfig(measurement_var=(2e-3) ** 2), NoiseConfig()):
                            fast = slow = ClockModel.initial(exchanges[0][0])
                            for observation in exchanges:
                                fast = kalman_update(fast, observation, noise)
                                slow = kalman_update_checked(slow, observation, noise)
                                assert (fast.offset, fast.drift_rate, fast.last_sync) == (
                                    slow.offset, slow.drift_rate, slow.last_sync
                                )
                                assert fast.covariance.tobytes() == slow.covariance.tobytes()
                                assert not fast.covariance.flags.writeable
                                steps += 1
        assert steps > 2000

    def test_anchor_moves_to_observation_time(self):
        model = ClockModel.initial(0)
        updated = kalman_update(model, (3 * NS, 3 * NS + 1000), NoiseConfig())
        assert updated.last_sync == 3 * NS

    def test_observation_before_anchor_rejected(self):
        with pytest.raises(DomainError):
            kalman_update(zero_model(anchor=NS), (NS - 5, NS), NoiseConfig())

    @pytest.mark.parametrize("observation", [None, 5, (NS,), (NS, NS, NS), "abc", {}], ids=repr)
    def test_observation_that_is_not_a_pair_rejected(self, observation):
        with pytest.raises(UsageError, match="pair"):
            kalman_update(zero_model(), observation)

    @pytest.mark.parametrize("observation", [(NS, "x"), ([NS], NS), (True, NS), (NS, math.nan)], ids=repr)
    def test_observation_timestamps_that_are_not_numbers_rejected(self, observation):
        with pytest.raises(UsageError, match="observation timestamp"):
            kalman_update(zero_model(), observation)

    def test_float_and_numpy_observations_update_as_ints_do(self):
        expected = kalman_update(zero_model(), (3 * NS, 3 * NS + 1000))
        for observation in ((3.0 * NS, 3 * NS + 1000), (np.int64(3 * NS), np.int64(3 * NS + 1000))):
            got = kalman_update(zero_model(), observation)
            assert (got.offset, got.drift_rate) == (expected.offset, expected.drift_rate)
            assert np.array_equal(got.covariance, expected.covariance)
        with pytest.raises(DomainError, match="finite"):
            kalman_update(zero_model(), (math.inf, NS))

    @settings(max_examples=budget(100), deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        steps=st.integers(1, 60),
        noise=st.sampled_from(
            [NoiseConfig(), NoiseConfig(measurement_var=(2e-3) ** 2), NoiseConfig(0.0, 0.0, 1e-12), NoiseConfig(1e-3, 0.0, 10.0)]
        ),
        prior=st.sampled_from(["initial", "wide", "zero", "random"]),
    )
    def test_identical_to_the_matmul_filter_on_random_runs(self, seed, steps, noise, prior):
        rng = np.random.default_rng(seed)
        local = int(rng.integers(-(10**15), 10**15))
        offset_ns, drift = rng.normal(0.0, 1e9), rng.uniform(-5e-4, 5e-4)
        if prior == "random":
            root = rng.normal(size=(2, 2)) * [[1.0], [1e-3]]
            model = ClockModel(rng.normal(), rng.uniform(-0.05, 0.05), local, root @ root.T)
        else:
            variances = {"initial": (1.0, 1e-4), "wide": (1e8, 1e2), "zero": (0.0, 0.0)}[prior]
            model = ClockModel(0.0, 0.0, local, np.diag(variances))
        fast = slow = model
        for _ in range(steps):
            local += int(rng.choice([0, rng.integers(1, 10**6), rng.integers(10**8, 3 * 10**9)]))
            observation = (local, local + round(offset_ns + drift * local + rng.normal(0.0, 2e6)))
            try:
                slow = kalman_update_checked(slow, observation, noise)
            except DomainError:
                with pytest.raises(DomainError):
                    kalman_update(fast, observation, noise)
                return
            fast = kalman_update(fast, observation, noise)
            assert (fast.offset, fast.drift_rate, fast.last_sync) == (slow.offset, slow.drift_rate, slow.last_sync)
            assert fast.covariance.tobytes() == slow.covariance.tobytes()

    def test_nonpositive_measurement_variance_rejected(self):
        with pytest.raises(ConfigError):
            NoiseConfig(measurement_var=0.0)
        with pytest.raises(ConfigError):
            NoiseConfig(process_offset_var=-1.0)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"measurement_var": math.nan},
            {"measurement_var": math.inf},
            {"process_offset_var": math.nan},
            {"process_drift_var": math.inf},
            {"measurement_var": "1e-4"},
            {"measurement_var": None},
            {"process_offset_var": True},
        ],
    )
    def test_non_finite_or_non_numeric_noise_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            NoiseConfig(**kwargs)

    @pytest.mark.parametrize(
        "fields",
        [
            {"offset": "0"},
            {"offset": True},
            {"offset": math.nan},
            {"drift_rate": None},
            {"last_sync": 1.5},
            {"last_sync": True},
            {"last_sync": "0"},
            {"covariance": "x"},
            {"covariance": [[1.0, 0.0], [0.0]]},
        ],
        ids=repr,
    )
    def test_model_fields_of_the_wrong_kind_rejected(self, fields):
        with pytest.raises(ConfigError, match=next(iter(fields))):
            ClockModel(**{"offset": 0.0, "drift_rate": 0.0, "last_sync": 0, "covariance": np.eye(2), **fields})

    def test_covariance_must_be_psd(self):
        with pytest.raises(ConfigError):
            ClockModel(0.0, 0.0, 0, np.array([[1.0, 2.0], [2.0, 1.0]]))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("cell", [(0, 0), (0, 1), (1, 0), (1, 1)])
    def test_non_finite_covariance_cell_rejected(self, cell, bad):
        cov = np.eye(2)
        cov[cell] = bad
        with pytest.raises(ConfigError, match="covariance must be finite"):
            ClockModel(0.0, 0.0, 0, cov)
        # kalman_update builds its result through _from_filter, which skips
        # only the symmetry and PSD tests
        with pytest.raises(ConfigError, match="covariance must be finite"):
            ClockModel._from_filter(0.0, 0.0, 0, cov)
        # a model carrying the cell past the constructor spreads it into the
        # estimate, so the update is refused before any model is built
        model = ClockModel.initial(0)
        object.__setattr__(model, "covariance", cov)
        with np.errstate(invalid="ignore"), pytest.raises(DomainError):
            kalman_update(model, (NS, NS))


class TestBufferSize:
    def test_floor_applies_when_jitter_small(self):
        policy = BufferPolicy(b_min=10_000_000, beta=3.0, window=50)
        constant = [10_000_000] * 20
        assert buffer_size(policy, constant) == 10_000_000

    def test_scaled_jitter_beats_floor(self):
        # deviations (+20,-20,+20,-20,0) ms give a sample std of exactly 20 ms
        policy = BufferPolicy(b_min=10_000_000, beta=3.0, window=50)
        ms = 1_000_000
        intervals = [70 * ms, 30 * ms, 70 * ms, 30 * ms, 50 * ms]
        assert buffer_size(policy, intervals) == 60 * ms

    def test_too_few_intervals_falls_back_to_floor(self):
        policy = BufferPolicy(b_min=7_000_000, beta=5.0, window=50)
        assert buffer_size(policy, []) == 7_000_000
        assert buffer_size(policy, [123]) == 7_000_000

    def test_only_recent_window_counts(self):
        policy = BufferPolicy(b_min=1, beta=1.0, window=4)
        noisy_then_steady = [0, 10**9, 0, 10**9] + [500] * 4
        assert buffer_size(policy, noisy_then_steady) == 1

    @given(
        intervals=st.lists(st.integers(0, 10**9), min_size=2, max_size=30),
        scale=st.integers(2, 5),
    )
    @settings(max_examples=100, deadline=None)
    def test_buffer_scales_linearly_with_beta(self, intervals, scale):
        base = BufferPolicy(b_min=1, beta=1.0, window=50)
        scaled = BufferPolicy(b_min=1, beta=float(scale), window=50)
        b1 = buffer_size(base, intervals)
        b2 = buffer_size(scaled, intervals)
        sd = float(np.std(np.asarray(intervals[-50:], dtype=float), ddof=1))
        assert b2 == max(1, round(scale * sd))
        assert b1 == max(1, round(sd))

    def test_policy_validation(self):
        with pytest.raises(ConfigError):
            BufferPolicy(b_min=0, beta=1.0)
        with pytest.raises(ConfigError):
            BufferPolicy(b_min=1, beta=-1.0)
        with pytest.raises(ConfigError):
            BufferPolicy(b_min=1, beta=1.0, window=1)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"b_min": 1, "beta": math.nan},
            {"b_min": 1, "beta": math.inf},
            {"b_min": 1, "beta": -math.inf},
            {"b_min": 1, "beta": "3"},
            {"b_min": 1, "beta": True},
            {"b_min": 1, "beta": 1.0, "window": 2.5},
            {"b_min": 1, "beta": 1.0, "window": True},
            {"b_min": 1.5, "beta": 1.0},
            {"b_min": 10.0, "beta": 1.0},
            {"b_min": 2**63, "beta": 1.0},
        ],
    )
    def test_non_finite_or_non_integer_settings_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            BufferPolicy(**kwargs)

    def test_numpy_settings_become_python_numbers(self):
        policy = BufferPolicy(b_min=np.int64(5), beta=np.float64(2.0), window=np.int32(10))
        assert type(policy.b_min) is int and type(policy.window) is int
        assert type(buffer_size(policy, [1, 2, 3])) is int

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("beta", [1e15, 1e300])
    def test_buffer_beyond_int64_saturates(self, beta):
        policy = BufferPolicy(b_min=1, beta=beta, window=2)
        assert buffer_size(policy, [0, 10**9, 0]) == 2**63 - 1
        stream = make_stream("d", "imu", [0, 10**9, 10**9, 3 * 10**9])
        frames = align_streams([stream], policy, epoch_ns=10**9)
        assert [f.slots["d/imu"].local_ts for f in frames] == [0, 10**9, 10**9, 3 * 10**9]


class TestAlignStreams:
    def test_two_steady_streams_pair_up(self):
        fast = make_stream("imu-1", "imu", [i * 10_000_000 for i in range(101)])
        slow = make_stream("cam-1", "camera_series", [i * 40_000_000 for i in range(26)])
        policy = BufferPolicy(b_min=50_000_000, beta=3.0, window=20)
        frames = align_streams([fast, slow], policy, epoch_ns=100_000_000)
        assert all(isinstance(f, AlignedFrame) for f in frames)
        times = [f.time for f in frames]
        assert times == sorted(times)
        interior = frames[1:-1]
        assert all(f.slots["imu-1/imu"] is not None for f in interior)
        assert all(f.slots["cam-1/camera_series"] is not None for f in interior)

    def test_delayed_stream_marked_absent(self):
        steady = make_stream("imu-1", "imu", [i * 10_000_000 for i in range(100)])
        # stalls after 200 ms, so later frames exceed any plausible buffer
        stalled = make_stream("cam-1", "camera_series", [i * 40_000_000 for i in range(6)])
        policy = BufferPolicy(b_min=50_000_000, beta=2.0, window=20)
        frames = align_streams([steady, stalled], policy, epoch_ns=100_000_000)
        last = frames[-1]
        assert last.slots["imu-1/imu"] is not None
        assert last.slots["cam-1/camera_series"] is None

    def test_uncorrected_stream_rejected(self):
        raw = make_stream("imu-1", "imu", [0, 10], corrected=False)
        with pytest.raises(UsageError, match="uncorrected"):
            align_streams([raw], BufferPolicy(b_min=1, beta=0.0), epoch_ns=10)

    @pytest.mark.parametrize("epoch", [10.0, 2.5, True, "10", None], ids=repr)
    def test_epoch_that_is_not_an_integer_rejected(self, epoch):
        stream = make_stream("imu-1", "imu", [0, 10])
        with pytest.raises(UsageError, match="epoch_ns"):
            align_streams([stream], BufferPolicy(b_min=1, beta=0.0), epoch_ns=epoch)

    def test_numpy_integer_epoch_gives_the_int_epochs_frames(self):
        stream = make_stream("imu-1", "imu", [0, 10, 25])
        policy = BufferPolicy(b_min=20, beta=0.0)
        assert align_streams([stream], policy, np.int64(10)) == align_streams([stream], policy, 10)

    def test_matches_full_sort_oracle_on_jittered_streams(self):
        rng = np.random.default_rng(42)
        policy = BufferPolicy(b_min=60_000_000, beta=3.0, window=30)
        epoch = 100_000_000

        def jittered(period_ns, count):
            ts = np.cumsum(rng.integers(period_ns // 2, period_ns * 3 // 2, size=count))
            return [int(t) for t in ts]

        cam_ts = jittered(33_000_000, 90)
        imu_ts = jittered(10_000_000, 300)
        cam = make_stream("cam-1", "camera_series", cam_ts)
        imu = make_stream("imu-1", "imu", imu_ts)
        frames = align_streams([cam, imu], policy, epoch)
        frame_times = [f.time for f in frames]

        for key, ts_list in [("cam-1/camera_series", cam_ts), ("imu-1/imu", imu_ts)]:
            def staleness(idx, ts_list=ts_list):
                lo = max(0, idx - policy.window)
                ivals = np.diff(ts_list[lo : idx + 1]).tolist()
                return buffer_size(policy, ivals)

            expected = full_sort_pairing(ts_list, frame_times, staleness)
            got = [
                None if f.slots[key] is None else ts_list.index(f.slots[key].corrected_ts)
                for f in frames
            ]
            assert got == expected


def random_stream(rng, device, start_ns, count, period_ns, repeat_share):
    """Jittered stream whose timestamps repeat with probability ``repeat_share``."""
    steps = rng.integers(period_ns // 3, period_ns * 2, size=count)
    steps[rng.random(count) < repeat_share] = 0
    steps[0] = 0
    ts = start_ns + np.cumsum(steps)
    return make_stream(device, "imu", ts.tolist())


class TestBatchedAlignmentMatchesPerEpoch:
    """Per-stream alignment returns the frames of the per-epoch loop."""

    @settings(max_examples=budget(80), deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        counts=st.lists(st.integers(1, 150), min_size=1, max_size=4),
        window=st.integers(2, 60),
        beta=st.sampled_from([0.0, 0.7, 3.0, 25.0, 1e15]),
        b_min=st.sampled_from([1, 5_000_000, 40_000_000]),
        epoch_ns=st.sampled_from([7_000_000, 20_000_000, 100_000_000]),
        repeat_share=st.sampled_from([0.0, 0.2, 0.6]),
    )
    def test_identical_frames(self, seed, counts, window, beta, b_min, epoch_ns, repeat_share):
        rng = np.random.default_rng(seed)
        streams = [
            random_stream(
                rng, f"dev-{k}", int(rng.integers(-500_000_000, 2_000_000_000)), count,
                int(rng.choice([5_000_000, 10_000_000, 33_000_000])), repeat_share,
            )
            for k, count in enumerate(counts)
        ]
        policy = BufferPolicy(b_min=b_min, beta=beta, window=window)
        expected = align_per_epoch(streams, policy, epoch_ns)
        got = align_streams(streams, policy, epoch_ns)
        assert [f.time for f in got] == [f.time for f in expected]
        for g, e in zip(got, expected):
            assert list(g.slots) == list(e.slots)
            assert all(g.slots[k] is e.slots[k] for k in e.slots)

    @settings(max_examples=budget(150), deadline=None)
    @given(
        steps=st.lists(st.integers(0, 10**9), min_size=1, max_size=120),
        window=st.integers(2, 50),
        beta=st.floats(0.0, 50.0),
        b_min=st.integers(1, 10**8),
    )
    def test_every_sample_limit_equals_buffer_size(self, steps, window, beta, b_min):
        ts = np.cumsum(np.array(steps, dtype=np.int64))
        policy = BufferPolicy(b_min=b_min, beta=beta, window=window)
        (limits,) = tb._buffer_limits([ts], policy)
        expected = [
            buffer_size(policy, np.diff(ts[max(0, k - window) : k + 1]).tolist())
            for k in range(len(ts))
        ]
        assert limits.tolist() == expected


class TestBatchedBufferLimits:
    """The limits of all of a session's streams, worked out together, are ``buffer_size``'s."""

    @settings(max_examples=budget(150), deadline=None)
    @given(
        streams=st.lists(st.lists(st.integers(0, 10**9), max_size=120), min_size=1, max_size=8),
        window=st.integers(2, 60),
        beta=st.one_of(st.floats(0.0, 50.0), st.sampled_from([1e6, 1e12, 1e15])),
        b_min=st.integers(1, 10**8),
    )
    def test_every_sample_of_every_stream_equals_buffer_size(self, streams, window, beta, b_min):
        # a stream of 1 sample has no interval; short ones never fill a window
        columns = [np.cumsum(np.array([0, *steps], dtype=np.int64)) for steps in streams]
        policy = BufferPolicy(b_min=b_min, beta=beta, window=window)
        limits = tb._buffer_limits(columns, policy)
        assert len(limits) == len(columns)
        for ts, got in zip(columns, limits):
            expected = [
                buffer_size(policy, np.diff(ts[max(0, k - window) : k + 1]).tolist())
                for k in range(len(ts))
            ]
            assert got.dtype == np.int64
            assert got.tolist() == expected


class TestStreamsAndIo:
    @pytest.mark.parametrize("rate", [math.inf, True, "x", None, math.nan, 0.0], ids=repr)
    def test_descriptor_rejects_a_rate_that_is_not_a_positive_finite_number(self, rate):
        with pytest.raises(ConfigError, match="rate"):
            StreamDescriptor("d", "imu", rate)

    def test_stream_validation(self):
        with pytest.raises(UsageError):
            make_stream("d", "imu", [10, 5])
        with pytest.raises(UsageError):
            SensorSample("d", "sonar", 0, (1.0,))
        s1 = SensorSample("d", "imu", 0, (1.0, 2.0))
        s2 = SensorSample("d", "imu", 1, (1.0,))
        with pytest.raises(UsageError, match="arity"):
            SampleStream(StreamDescriptor("d", "imu", 10.0), (s1, s2))

    def test_with_clock_fills_corrected(self):
        stream = make_stream("d", "imu", [0, 10_000_000], corrected=False)
        model = ClockModel(0.001, 0.0, 0, np.zeros((2, 2)))
        corrected = stream.with_clock(model)
        assert [s.corrected_ts for s in corrected.samples] == [1_000_000, 11_000_000]

    def test_timestamp_outside_int64_rejected_with_stream_name(self):
        samples = [SensorSample("imu-7", "imu", t, (0.0,)) for t in (5, 2**70)]
        with pytest.raises(DomainError, match="imu-7/imu"):
            SampleStream(StreamDescriptor("imu-7", "imu", 100.0), samples)

    def test_sample_device_id_must_be_a_string(self):
        # a list id would pass and then fail as an unhashable stream key
        for bad in (["d"], "", None):
            with pytest.raises(UsageError, match="device_id"):
                SensorSample(bad, "imu", 5, (1.0,))


class TestSampleTimestampTypes:
    @pytest.mark.parametrize("bad", [True, False, 1.5, 2.0, "7", None])
    def test_non_integral_local_ts_rejected(self, bad):
        with pytest.raises(UsageError, match="local_ts"):
            SensorSample("d", "imu", bad, (1.0,))

    @pytest.mark.parametrize("bad", [True, 1.5, np.float64(3.0), np.bool_(True)])
    def test_non_integral_corrected_ts_rejected(self, bad):
        with pytest.raises(UsageError, match="corrected_ts"):
            SensorSample("d", "imu", 0, (1.0,), corrected_ts=bad)

    @pytest.mark.parametrize("good", [7, np.int64(7), np.int32(7), np.uint64(7)])
    def test_integers_accepted_as_python_ints(self, good):
        sample = SensorSample("d", "imu", good, (1.0,), corrected_ts=good)
        assert sample.local_ts == 7 and type(sample.local_ts) is int
        assert sample.corrected_ts == 7 and type(sample.corrected_ts) is int

    def test_non_integral_shift_rejected(self):
        stream = make_stream("d", "imu", [0, 10])
        for bad in (1.5, True):
            with pytest.raises(UsageError, match="shift"):
                stream.shifted(bad)


class TestInt64Range:
    def test_correction_past_int64_max_rejected(self):
        stream = make_stream("d", "imu", [2**63 - 10], corrected=False)
        with pytest.raises(DomainError, match="int64"):
            stream.with_clock(ClockModel(1.0, 0.0, 0, np.zeros((2, 2))))

    def test_correction_far_past_the_anchor_rejected(self):
        # 2**62 ns past an anchor below int64: the scalar path checks the range too
        stream = make_stream("d", "imu", [2**62, 2**63 - 10], corrected=False)
        with pytest.raises(DomainError, match="int64"):
            stream.with_clock(ClockModel(1.0, 0.0, -(2**63) - 5, np.zeros((2, 2))))

    @pytest.mark.parametrize("field", ["local_ts", "corrected_ts"])
    @pytest.mark.parametrize("ts", [2**70, 2**63, -(2**63) - 1])
    def test_stream_construction_rejects_timestamps_outside_int64(self, field, ts):
        kwargs = {"local_ts": 0, "corrected_ts": 0, field: ts}
        sample = SensorSample("d", "imu", payload=(1.0,), **kwargs)
        with pytest.raises(DomainError, match="d/imu"):
            SampleStream(StreamDescriptor("d", "imu", 10.0), (sample,))

    @pytest.mark.parametrize("delta", [10, 2**63, -(2**64)])
    def test_shift_past_int64_rejected(self, delta):
        stream = make_stream("d", "imu", [0, 2**63 - 10] if delta > 0 else [-(2**63), 0])
        with pytest.raises(DomainError, match="int64"):
            stream.shifted(delta)

    def test_shift_of_an_uncorrected_stream_changes_nothing(self):
        stream = make_stream("d", "imu", [0, 10], corrected=False)
        assert stream.shifted(2**70) == stream


class TestColumnarStream:
    def test_columns_are_stored_read_only(self):
        stream = make_stream("d", "imu", [0, 10, 20], payloads=[(1.0, 2.0)] * 3)
        for column in (stream.local_timestamps(), stream.corrected_timestamps(), stream.payload_matrix()):
            assert column is not None and not column.flags.writeable
        assert stream.local_timestamps() is stream.local_timestamps()
        assert stream.payload_matrix().shape == (3, 2)

    def test_given_samples_are_kept_and_derived_ones_built_once(self):
        stream = make_stream("d", "imu", [0, 10], corrected=False)
        given = stream.samples
        assert SampleStream(stream.descriptor, given).samples is given
        corrected = stream.with_clock(zero_model())
        assert corrected.samples is corrected.samples
        assert [s.corrected_ts for s in corrected.samples] == [0, 10]

    @pytest.mark.parametrize("first_corrected", [True, False])
    def test_mixed_corrected_and_uncorrected_samples_rejected(self, first_corrected):
        corrected = [0, None] if first_corrected else [None, 10]
        with pytest.raises(UsageError, match="all be corrected or all uncorrected"):
            stream_of([0, 10], corrected)

    def test_stream_is_immutable(self):
        stream = make_stream("d", "imu", [0, 10])
        with pytest.raises(AttributeError):
            stream.descriptor = StreamDescriptor("e", "imu", 1.0)

    def test_equality_is_value_equality(self):
        a = make_stream("d", "imu", [0, 10])
        b = make_stream("d", "imu", [0, 10])
        assert a == b and hash(a) == hash(b)
        assert a != make_stream("d", "imu", [0, 11])
        assert a != make_stream("d", "imu", [0, 10], corrected=False)
        assert a != make_stream("d", "imu", [0, 10], payloads=[(0.0,), (2.0,)])
        assert a.shifted(5).shifted(-5) == a

    def test_nan_payloads_compare_equal(self):
        stream = make_stream("d", "imu", [0, 10], payloads=[(float("nan"),), (1.0,)])
        assert stream == stream
        assert stream == make_stream("d", "imu", [0, 10], payloads=[(float("nan"),), (1.0,)])
        assert stream != make_stream("d", "imu", [0, 10], payloads=[(0.0,), (1.0,)])

    @pytest.mark.parametrize("duplicate", [copy.copy, copy.deepcopy, lambda s: pickle.loads(pickle.dumps(s))])
    def test_copies_keep_read_only_columns(self, duplicate):
        stream = make_stream("d", "imu", [0, 10, 20], payloads=[(1.0, 2.0)] * 3).shifted(7)
        clone = duplicate(stream)
        assert clone == stream and hash(clone) == hash(stream)
        for column in (clone.local_timestamps(), clone.corrected_timestamps(), clone.payload_matrix()):
            assert not column.flags.writeable
        assert clone.samples == stream.samples
        with pytest.raises(AttributeError):
            clone.descriptor = StreamDescriptor("e", "imu", 1.0)


# timestamps near both ends of int64 and near zero, so corrections cross
# the range limits and the 2**53 ns exact-float span in both directions
EXTREME_TS = st.one_of(
    st.integers(-(2**63), 2**63 - 1),
    st.integers(2**63 - 10**12, 2**63 - 1),
    st.integers(-(2**63), -(2**63) + 10**12),
    st.integers(-(10**12), 10**12),
)
# (2j + 1) / 1024 s is (2j + 1) * 976562.5 ns: a rounding tie at every j
TIE_OFFSETS = st.integers(-(10**4), 10**4).map(lambda j: (2 * j + 1) / 1024)
OFFSETS = st.one_of(TIE_OFFSETS, st.floats(-10.0, 10.0), st.just(0.0))
DRIFTS = st.one_of(st.just(0.0), st.floats(-0.09, 0.09), st.integers(-90, 90).map(lambda j: j / 1024))


def outcome(fn, *args):
    """A call's result, or the DomainError it raised, for equivalence checks."""
    try:
        return fn(*args)
    except DomainError:
        return DomainError


def stream_of(local, corrected=None):
    corrected = corrected or [None] * len(local)
    return SampleStream(
        StreamDescriptor("d", "imu", 25.0),
        tuple(
            SensorSample("d", "imu", t, (float(i), -float(i)), corrected_ts=c)
            for i, (t, c) in enumerate(zip(local, corrected))
        ),
    )


class TestColumnarStreamMatchesPerSample:
    """``with_clock`` and ``shifted`` equal the per-sample loops they replaced."""

    @settings(max_examples=budget(300), deadline=None)
    @given(
        local=st.lists(EXTREME_TS, min_size=1, max_size=12).map(sorted),
        anchor_gap=st.one_of(st.integers(0, 10**10), st.integers(0, 2**65), st.integers(-(10**6), -1)),
        offset=OFFSETS,
        drift=DRIFTS,
    )
    def test_with_clock(self, local, anchor_gap, offset, drift):
        stream = stream_of(local)
        model = ClockModel(offset, drift, local[0] - anchor_gap, np.zeros((2, 2)))
        got = outcome(stream.with_clock, model)
        expected = outcome(with_clock_per_sample, stream, model)
        assert got == expected
        if expected is not DomainError:
            assert got.corrected_timestamps().tolist() == [s.corrected_ts for s in expected.samples]

    @settings(max_examples=budget(200), deadline=None)
    @given(
        local=st.lists(st.integers(0, 10**9), min_size=1, max_size=20).map(sorted),
        anchor=st.integers(-(10**9), 0),
        gap_days=st.integers(100, 110),
        offset=OFFSETS,
        drift=DRIFTS,
    )
    def test_with_clock_across_the_exact_float_span(self, local, anchor, gap_days, offset, drift):
        """Streams that start just before 2**53 ns past the anchor and end after it."""
        start = anchor + gap_days * 86_400 * NS
        stream = stream_of([start + t for t in local])
        model = ClockModel(offset, drift, anchor, np.zeros((2, 2)))
        assert outcome(stream.with_clock, model) == outcome(with_clock_per_sample, stream, model)

    @settings(max_examples=budget(300), deadline=None)
    @given(
        rows=st.lists(st.tuples(EXTREME_TS, EXTREME_TS), min_size=0, max_size=12),
        corrected=st.booleans(),
        delta=EXTREME_TS,
    )
    def test_shifted_corrected_or_uncorrected_stream(self, rows, corrected, delta):
        rows = sorted(rows)
        stream = stream_of([r[0] for r in rows], [r[1] if corrected else None for r in rows])
        got = outcome(stream.shifted, delta)
        expected = outcome(shifted_per_sample, stream, delta)
        assert got == expected
        if expected is not DomainError:
            assert got.samples == expected.samples

    @settings(max_examples=budget(100), deadline=None)
    @given(
        local=st.lists(st.integers(0, 10**12), min_size=1, max_size=30).map(sorted),
        offset=OFFSETS,
        delta=st.integers(-(10**9), 10**9),
    )
    def test_lazy_samples_equal_an_eager_streams(self, local, offset, delta):
        stream = stream_of(local)
        model = ClockModel(offset, 0.0, local[0], np.zeros((2, 2)))
        lazy = stream.with_clock(model).shifted(delta)
        eager = shifted_per_sample(with_clock_per_sample(stream, model), delta)
        assert lazy.samples == eager.samples
        assert lazy == eager and eager == lazy and hash(lazy) == hash(eager)
        assert all(type(s.corrected_ts) is int for s in lazy.samples)
        assert SampleStream(lazy.descriptor, lazy.samples) == lazy



def corrected_sample():
    return SensorSample("d", "imu", 5, (1.0, 2.0), corrected_ts=7)


def frame_of_samples():
    return AlignedFrame(time=10, slots={"d/imu": corrected_sample(), "e/imu": None})


class TestSlottedRecords:
    """Samples and frames are slotted frozen dataclasses without an instance dict."""

    @pytest.mark.parametrize("make", [corrected_sample, frame_of_samples])
    def test_no_instance_dict(self, make):
        record = make()
        assert not hasattr(record, "__dict__")
        with pytest.raises(AttributeError):
            object.__setattr__(record, "extra", 1)
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(record, dataclasses.fields(record)[0].name, None)

    @pytest.mark.parametrize(
        "duplicate",
        [lambda r: pickle.loads(pickle.dumps(r)), copy.deepcopy, dataclasses.replace],
        ids=["pickle", "deepcopy", "replace"],
    )
    @pytest.mark.parametrize("make", [corrected_sample, frame_of_samples])
    def test_copies_are_equal_and_slotted(self, make, duplicate):
        record = make()
        clone = duplicate(record)
        assert clone == record
        assert not hasattr(clone, "__dict__")

    @pytest.mark.parametrize("corrected", [None, [2, 5, 7, 9]])
    def test_derived_samples_equal_validated_ones(self, corrected):
        source = stream_of([0, 10, 10, 30], corrected)
        if corrected is None:
            derived = source.with_clock(ClockModel(0.5, 0.0, 0, np.zeros((2, 2)))).shifted(3)
            expected = [t + NS // 2 + 3 for t in source.local_timestamps().tolist()]
        else:
            derived = source.shifted(3)
            expected = [c + 3 for c in corrected]
        for sample, original, corrected_ts in zip(derived.samples, source.samples, expected, strict=True):
            assert not hasattr(sample, "__dict__")
            validated = SensorSample(
                original.device_id, original.modality, original.local_ts,
                list(original.payload), corrected_ts,
            )
            assert sample == validated
            for field in dataclasses.fields(SensorSample):
                assert type(getattr(sample, field.name)) is type(getattr(validated, field.name))
