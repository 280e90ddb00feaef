"""Clock correction, drift estimation, and arrival-jitter buffering.

Timestamps are integer nanoseconds throughout. The linear clock error
model maps a device-local timestamp to the reference timeline:

    corrected = local + offset + drift_rate * (local - last_sync)

with the drift term evaluated in double precision and rounded back to
whole nanoseconds. The offset itself is kept in float seconds so the
estimator can resolve below one nanosecond; only timestamps are forced
to integers.

The (offset, drift) pair is tracked by a two-state Kalman filter fed
with (local, reference) observation pairs. After every update the model
is re-anchored at the observation time, meaning the stored offset is
always "offset right now" and the drift term starts from zero again.

A ``SampleStream`` is stored as columns, not as one object per sample:
an int64 local-timestamp column, an int64 corrected-timestamp column
(None until a clock model has corrected the stream), and a float
payload matrix with one row per sample. Clock correction and
shifts are array operations on those columns, and a timestamp that
would leave the int64 range is a DomainError. ``SensorSample`` objects
are built only when ``.samples`` is read, once per stream.

``SensorSample`` and ``AlignedFrame`` are slotted frozen dataclasses
without an instance ``__dict__``, so a sample built from the columns
is one object for the garbage collector to walk, not an object and its
dict.
"""

from __future__ import annotations

import math
from dataclasses import FrozenInstanceError, dataclass, fields
from typing import Iterable, Mapping, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ConfigError, DomainError, UsageError, checked_int, checked_real

NS_PER_SEC = 1_000_000_000

MODALITIES = ("camera_series", "imu", "wearable", "detection")

MAX_DRIFT_RATE = 0.1

# the range of the int64 columns that timestamps are stored in
INT64_MIN = -(2**63)
INT64_MAX = 2**63 - 1
# the smallest float64 beyond the int64 range
_FLOAT_INT64_BOUND = 2.0**63


# ---------------------------------------------------------------------------
# clock model


@dataclass(frozen=True)
class NoiseConfig:
    """Kalman noise settings, all in seconds-squared units.

    ``process_offset_var`` and ``process_drift_var`` are added per update
    step; they may be zero, which yields the recursive-least-squares
    limit. The measurement variance must stay strictly positive.
    """

    process_offset_var: float = 1e-6
    process_drift_var: float = 1e-12
    measurement_var: float = 1e-4

    def __post_init__(self):
        for name in ("process_offset_var", "process_drift_var", "measurement_var"):
            if not 0 <= checked_real(getattr(self, name), name, ConfigError) < math.inf:
                raise ConfigError(f"{name} must be non-negative and finite")
        if self.measurement_var == 0:
            raise ConfigError("measurement variance must be positive")
        # the per-step process noise matrix, built once for every update
        q = np.diag([self.process_offset_var, self.process_drift_var])
        q.flags.writeable = False
        object.__setattr__(self, "_process_noise", q)


@dataclass(frozen=True)
class ClockModel:
    """Linear clock-error estimate for one device.

    offset      seconds to add to a local timestamp taken at ``last_sync``
    drift_rate  additional seconds of correction per elapsed second
    last_sync   anchor timestamp (ns) for the drift term
    covariance  2x2 uncertainty of (offset, drift), seconds^2 units
    """

    offset: float
    drift_rate: float
    last_sync: int
    covariance: np.ndarray

    def __post_init__(self):
        offset = checked_real(self.offset, "offset", ConfigError)
        drift_rate = checked_real(self.drift_rate, "drift_rate", ConfigError)
        checked_int(self.last_sync, "last_sync", ConfigError)
        try:
            cov = np.array(self.covariance, dtype=float)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"covariance must be a 2x2 matrix of numbers: {exc}") from None
        cov = self._checked(offset, drift_rate, cov)
        if not np.allclose(cov, cov.T, rtol=0.0, atol=1e-9 * (1 + np.abs(cov).max())):
            raise ConfigError("covariance must be symmetric")
        cov = 0.5 * (cov + cov.T)
        if np.linalg.eigvalsh(cov).min() < -1e-9 * (1 + np.abs(cov).max()):
            raise ConfigError("covariance must be positive semidefinite")
        cov.flags.writeable = False
        object.__setattr__(self, "covariance", cov)

    @staticmethod
    def _checked(offset: float, drift_rate: float, cov: np.ndarray) -> np.ndarray:
        if not math.isfinite(offset):
            raise DomainError("offset must be finite")
        if not abs(drift_rate) < MAX_DRIFT_RATE:
            raise DomainError("drift rate exceeds sanity bound of 0.1")
        if cov.shape != (2, 2):
            raise ConfigError("covariance must be a 2x2 matrix")
        if not all(map(math.isfinite, cov.flat)):
            raise ConfigError("covariance must be finite")
        return cov

    @classmethod
    def _from_filter(cls, offset: float, drift_rate: float, last_sync: int, cov: np.ndarray) -> "ClockModel":
        """A model from a Joseph-form update, built without the symmetry and PSD tests.

        The Joseph form maps a symmetric positive semidefinite covariance
        to one that is symmetric and positive semidefinite up to
        rounding, far inside the public constructor's tolerances, so
        those two tests cannot fail here. The symmetrisation, the
        read-only flag and every other check still apply.
        """
        cov = cls._checked(offset, drift_rate, cov)
        cov = 0.5 * (cov + cov.T)
        cov.flags.writeable = False
        model = object.__new__(cls)
        for name, value in (("offset", offset), ("drift_rate", drift_rate), ("last_sync", last_sync), ("covariance", cov)):
            object.__setattr__(model, name, value)
        return model

    @classmethod
    def initial(cls, anchor: int) -> "ClockModel":
        """A zero estimate with prior variances 1 s^2 on the offset and 1e-4 on the drift."""
        return cls(0.0, 0.0, anchor, np.diag([1.0, 1e-4]))

    def at_anchor(self, anchor: int) -> "ClockModel":
        """Re-express the same clock map with the drift term anchored at ``anchor``."""
        dt = (anchor - self.last_sync) / NS_PER_SEC
        f = np.array([[1.0, dt], [0.0, 1.0]])
        cov = f @ self.covariance @ f.T
        return ClockModel(self.offset + self.drift_rate * dt, self.drift_rate, anchor, cov)


def correct_timestamp(local_ts: int, model: ClockModel) -> int:
    """Map a device-local timestamp onto the reference timeline.

    Raises DomainError when the sample precedes the sync anchor, since
    the drift term is only calibrated forward from there.
    """
    if local_ts < model.last_sync:
        raise DomainError("sample precedes sync anchor")
    dt = (local_ts - model.last_sync) / NS_PER_SEC
    return local_ts + round((model.offset + model.drift_rate * dt) * NS_PER_SEC)


def kalman_update(
    model: ClockModel,
    observation: tuple[int, int],
    noise: NoiseConfig = NoiseConfig(),
) -> ClockModel:
    """Fold one (local, reference) timestamp pair into the clock estimate.

    Predicts the state forward to the observation time, applies a scalar
    measurement update in Joseph form, and returns a model re-anchored at
    the observation's local timestamp.
    """
    try:
        local, reference = observation
    except (TypeError, ValueError):
        raise UsageError("observation must be a (local, reference) pair") from None
    if type(local) is not int or type(reference) is not int:
        # the integer pairs the stack passes skip the shared check: an int is always finite
        for value in (local, reference):
            if not math.isfinite(checked_real(value, "an observation timestamp", UsageError)):
                raise DomainError("observation timestamps must be finite")
    if local < model.last_sync:
        raise DomainError("observation precedes sync anchor")

    dt = (local - model.last_sync) / NS_PER_SEC
    f = np.array([[1.0, dt], [0.0, 1.0]])
    p = f @ model.covariance @ f.T + noise._process_noise
    offset, drift = (f @ np.array([model.offset, model.drift_rate])).tolist()

    # The measurement row is h = (1, 0). Every product with it is exact:
    # h p h and p h pick out p[0, 0] and column 0 (a matmul sums from +0.0,
    # so p holds no -0.0 to lose), h x picks out the offset, and I - k h
    # is [[1 - k0, 0], [0 - k1, 1]]. The matmuls keep numpy's rounding.
    (p00, _), (p10, _) = p.tolist()
    r = noise.measurement_var
    s = p00 + r
    k0, k1 = p00 / s, p10 / s
    # measured discrepancy at the observation time, seconds
    innovation = (reference - local) / NS_PER_SEC - offset
    offset, drift = offset + k0 * innovation, drift + k1 * innovation
    ikh = np.array([[1.0 - k0, 0.0], [0.0 - k1, 1.0]])
    cross = r * (k0 * k1)
    p = ikh @ p @ ikh.T + np.array([[r * (k0 * k0), cross], [cross, r * (k1 * k1)]])

    if not abs(drift) < MAX_DRIFT_RATE:
        raise DomainError("drift rate exceeds sanity bound of 0.1, rejecting fit")
    return ClockModel._from_filter(offset, drift, local, p)


# ---------------------------------------------------------------------------
# jitter buffering


@dataclass(frozen=True)
class BufferPolicy:
    """Adaptive staleness bound: max(b_min, beta * arrival-interval std).

    b_min   floor on the buffer, ns
    beta    weight on the arrival-jitter estimate
    window  number of recent inter-arrival intervals used for the estimate
    """

    b_min: int
    beta: float
    window: int = 50

    def __post_init__(self):
        object.__setattr__(self, "b_min", checked_int(self.b_min, "b_min", ConfigError))
        object.__setattr__(self, "window", checked_int(self.window, "window", ConfigError))
        if not 0 < self.b_min <= INT64_MAX:
            raise ConfigError("b_min must be positive and fit in int64")
        if not 0 <= checked_real(self.beta, "beta", ConfigError) < math.inf:
            raise ConfigError("beta must be non-negative and finite")
        if self.window < 2:
            raise ConfigError("window must be at least 2")


def buffer_size(policy: BufferPolicy, arrival_intervals: Sequence[int]) -> int:
    """Buffer (ns) for the observed inter-arrival intervals.

    Uses the sample standard deviation of the most recent ``window``
    intervals. With fewer than two intervals there is no jitter estimate
    and the floor applies. A buffer beyond the int64 range saturates at
    its maximum, which no age between two int64 timestamps exceeds.
    """
    recent = np.asarray(arrival_intervals[-policy.window:], dtype=float)
    if recent.size < 2:
        return policy.b_min
    scaled = policy.beta * float(np.std(recent, ddof=1))
    if scaled >= _FLOAT_INT64_BOUND:
        return INT64_MAX
    return max(policy.b_min, round(scaled))


# ---------------------------------------------------------------------------
# samples and streams


@dataclass(frozen=True, slots=True)
class SensorSample:
    """One reading from one device.

    ``corrected_ts`` stays None until a clock model has been applied.
    Timestamps are stored as Python ints.
    """

    device_id: str
    modality: str
    local_ts: int
    payload: tuple[float, ...]
    corrected_ts: int | None = None

    def __post_init__(self):
        if self.modality not in MODALITIES:
            raise UsageError(f"unknown modality {self.modality!r}")
        if not isinstance(self.device_id, str) or not self.device_id:
            raise UsageError("device_id must be a non-empty string")
        if type(self.local_ts) is not int:
            object.__setattr__(self, "local_ts", checked_int(self.local_ts, "local_ts", UsageError))
        if self.corrected_ts is not None and type(self.corrected_ts) is not int:
            object.__setattr__(self, "corrected_ts", checked_int(self.corrected_ts, "corrected_ts", UsageError))
        object.__setattr__(self, "payload", tuple(map(float, self.payload)))


# the slot descriptors' setters, in field order, for samples built from
# checked columns without the validation of SensorSample's constructor
_SAMPLE_SETTERS = tuple(getattr(SensorSample, field.name).__set__ for field in fields(SensorSample))


@dataclass(frozen=True)
class StreamDescriptor:
    device_id: str
    modality: str
    nominal_rate_hz: float

    def __post_init__(self):
        if self.modality not in MODALITIES:
            raise UsageError(f"unknown modality {self.modality!r}")
        if not 0 < checked_real(self.nominal_rate_hz, "nominal_rate_hz", ConfigError) < math.inf:
            raise ConfigError("nominal rate must be positive and finite")

    @property
    def key(self) -> str:
        return f"{self.device_id}/{self.modality}"


def _timestamp_column(timestamps: list[int], key: str) -> np.ndarray:
    try:
        return np.array(timestamps, dtype=np.int64)
    except OverflowError:
        raise DomainError(f"stream {key} has a timestamp outside the int64 range") from None


def _checked_add(a: np.ndarray, b, what: str) -> np.ndarray:
    """int64 ``a + b``, raising DomainError where a sum leaves the int64 range.

    numpy wraps integer overflow silently; a wrapped sum is the one
    whose sign differs from the signs of both addends.
    """
    total = a + b
    if np.any(((a ^ total) & (b ^ total)) < 0):
        raise DomainError(f"{what} leaves the int64 range")
    return total


# int64 differences below 2**53 convert to float64 exactly
_EXACT_SPAN_NS = 2**53


def _corrected_column(local: np.ndarray, model: ClockModel) -> np.ndarray:
    """``correct_timestamp`` of every entry of a non-decreasing int64 column.

    The result equals the scalar function's entry for entry. Below
    2**53 ns (104 days) past the anchor, a sample's distance to it is
    exact in float64, so numpy's division rounds as Python's int / int
    does and ``np.rint`` rounds half to even as ``round`` does; later
    samples take the scalar function itself.
    """
    if len(local) == 0:
        return local
    anchor = model.last_sync
    head = int(local[0]) - anchor
    if head < 0:
        raise DomainError("sample precedes sync anchor")
    limit = anchor + _EXACT_SPAN_NS
    split = len(local) if limit > INT64_MAX else int(np.searchsorted(local, limit))
    parts = []
    if split:
        near = local[:split]
        # (local - first) + (first - anchor): both below 2**53, wherever the anchor lies
        dt = ((near - near[0]) + head) / NS_PER_SEC
        shift = np.rint((model.offset + model.drift_rate * dt) * NS_PER_SEC)
        if not np.all((shift >= -(2.0**63)) & (shift < 2.0**63)):
            raise DomainError("clock correction leaves the int64 range")
        parts.append(_checked_add(near, shift.astype(np.int64), "corrected timestamp"))
    if split < len(local):
        far = [correct_timestamp(t, model) for t in local[split:].tolist()]
        if not all(INT64_MIN <= t <= INT64_MAX for t in far):
            raise DomainError("corrected timestamp leaves the int64 range")
        parts.append(np.array(far, dtype=np.int64))
    return parts[0] if len(parts) == 1 else np.concatenate(parts)


class SampleStream:
    """An ordered run of samples from a single (device, modality).

    Stored as columns: ``local_timestamps()`` (int64, non-decreasing),
    ``corrected_timestamps()`` (int64) and ``payload_matrix()`` (float,
    one row per sample). A stream is corrected as a whole or not at
    all: its samples all carry a corrected timestamp or none does, and
    an uncorrected stream has no corrected column. The accessors return
    the stored arrays, which are read-only and shared between a stream
    and the streams ``with_clock`` and ``shifted`` derive from it.

    ``.samples`` is the tuple the stream was built from, or, for a
    derived stream, a tuple of slotted samples built from the columns
    on first use and kept. Two streams are equal when their descriptors
    and samples are; NaN payload entries compare equal to NaN, so a
    stream equals itself and its copies.
    Every timestamp must fit in int64; one that does not, at
    construction or after a correction or shift, is a DomainError.
    """

    def __init__(self, descriptor: StreamDescriptor, samples: Iterable[SensorSample]):
        samples = tuple(samples)
        arity = None
        prev = None
        for s in samples:
            if s.device_id != descriptor.device_id or s.modality != descriptor.modality:
                raise UsageError("sample does not belong to this stream")
            if arity is None:
                arity = len(s.payload)
            elif len(s.payload) != arity:
                raise UsageError("payload arity must be fixed within a stream")
            if prev is not None and s.local_ts < prev:
                raise UsageError("local timestamps must be non-decreasing")
            prev = s.local_ts
        corrected = [s.corrected_ts for s in samples]
        uncorrected = corrected.count(None)
        if 0 < uncorrected < len(samples):
            raise UsageError("a stream's samples must all be corrected or all uncorrected")
        self._set(
            descriptor,
            _timestamp_column([s.local_ts for s in samples], descriptor.key),
            None if uncorrected else _timestamp_column(corrected, descriptor.key),
            np.array([s.payload for s in samples], dtype=float),
            samples,
        )

    def _set(self, descriptor, local, corrected, payload, samples=None):
        for column in (local, corrected, payload):
            if column is not None:
                column.flags.writeable = False
        self.__dict__.update(
            descriptor=descriptor,
            _local=local,
            _corrected=corrected,
            _payload=payload,
            _samples=samples,
        )

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __reduce__(self):
        # rebuild through _set, so an unpickled or deep-copied stream's
        # columns are read-only too
        return _rebuild_stream, (self.descriptor, self._local, self._corrected, self._payload)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (
            self.descriptor == other.descriptor
            and np.array_equal(self._local, other._local)
            and np.array_equal(self._corrected, other._corrected)
            and np.array_equal(self._payload, other._payload, equal_nan=True)
        )

    def __hash__(self):
        corrected = None if self._corrected is None else self._corrected.tobytes()
        return hash((self.descriptor, self._local.tobytes(), corrected))

    def __repr__(self) -> str:
        return f"SampleStream(descriptor={self.descriptor!r}, samples=<{len(self)}>)"

    def __len__(self) -> int:
        return len(self._local)

    @property
    def key(self) -> str:
        return self.descriptor.key

    @property
    def samples(self) -> tuple[SensorSample, ...]:
        if self._samples is None:
            d = self.descriptor
            corrected = [None] * len(self) if self._corrected is None else self._corrected.tolist()
            set_device, set_modality, set_local, set_payload, set_corrected = _SAMPLE_SETTERS
            built = []
            for local, payload, ts in zip(self._local.tolist(), self._payload.tolist(), corrected):
                # every field comes from a checked column, so the sample
                # skips SensorSample's validation, which would triple its cost
                sample = object.__new__(SensorSample)
                set_device(sample, d.device_id)
                set_modality(sample, d.modality)
                set_local(sample, local)
                set_payload(sample, tuple(payload))
                set_corrected(sample, ts)
                built.append(sample)
            self.__dict__["_samples"] = tuple(built)
        return self._samples

    def local_timestamps(self) -> np.ndarray:
        return self._local

    def corrected_timestamps(self) -> np.ndarray:
        if self._corrected is None:
            raise UsageError(f"stream {self.key} has uncorrected samples")
        return self._corrected

    def payload_matrix(self) -> np.ndarray:
        return self._payload

    def with_clock(self, model: ClockModel) -> "SampleStream":
        """Apply a clock model, filling every sample's corrected timestamp."""
        return _rebuild_stream(self.descriptor, self._local, _corrected_column(self._local, model), self._payload)

    def shifted(self, delta_ns: int) -> "SampleStream":
        """Shift all corrected timestamps by delta_ns; an uncorrected stream stays as it is."""
        delta = checked_int(delta_ns, "shift", UsageError)
        if self._corrected is None:
            return self
        if not INT64_MIN <= delta <= INT64_MAX:
            raise DomainError("shift leaves the int64 range")
        moved = _checked_add(self._corrected, np.int64(delta), "shifted timestamp")
        return _rebuild_stream(self.descriptor, self._local, moved, self._payload)


def _rebuild_stream(descriptor, local, corrected, payload) -> SampleStream:
    stream = object.__new__(SampleStream)
    stream._set(descriptor, local, corrected, payload)
    return stream


# ---------------------------------------------------------------------------
# frame alignment


@dataclass(frozen=True, slots=True)
class AlignedFrame:
    """Per-epoch snapshot: latest fresh sample of every stream, or None."""

    time: int
    slots: Mapping[str, SensorSample | None]


_FRAME_SETTERS = tuple(getattr(AlignedFrame, field.name).__set__ for field in fields(AlignedFrame))


def _buffer_limits(columns: Sequence[np.ndarray], policy: BufferPolicy) -> list[np.ndarray]:
    """``buffer_size`` of the intervals leading up to every sample of every column.

    Sample k sees the intervals between samples max(0, k - window) and
    k. Before k = window those are the first k intervals of its column:
    for each such k, one standard deviation runs over the stacked
    prefixes of every column that has a sample k. From k = window on
    they are a full window, and a column's full windows share one
    standard deviation. Both reduce contiguous rows, which sum in the
    same order as ``buffer_size``'s 1-d std.
    """
    full = policy.window
    intervals = [np.diff(ts).astype(float) for ts in columns]
    heads = np.zeros((len(columns), full - 1))
    for row, iv in enumerate(intervals):
        head = iv[: full - 1]
        heads[row, : len(head)] = head
    # a jitter estimate of 0, as before two intervals, leaves the floor
    head_sd = np.zeros((len(columns), full))
    for k in range(2, full):
        rows = [row for row, iv in enumerate(intervals) if len(iv) >= k]
        if not rows:
            break
        head_sd[rows, k] = np.std(np.ascontiguousarray(heads[rows, :k]), axis=1, ddof=1)
    limits = []
    for row, iv in enumerate(intervals):
        sd = head_sd[row, : len(iv) + 1]
        if len(iv) >= full:
            windows = np.ascontiguousarray(sliding_window_view(iv, full))
            sd = np.concatenate((sd, np.std(windows, axis=1, ddof=1)))
        limits.append(_scaled_limits(sd, policy))
    return limits


def _scaled_limits(sd: np.ndarray, policy: BufferPolicy) -> np.ndarray:
    """``buffer_size`` for each jitter estimate: max(b_min, round(beta * sd)), saturated."""
    with np.errstate(over="ignore"):
        # a product past the float range is inf, which saturates like any past int64
        scaled = np.rint(policy.beta * sd)
    saturated = scaled >= _FLOAT_INT64_BOUND
    limits = np.where(saturated, 0.0, scaled).astype(np.int64)
    limits[saturated] = INT64_MAX
    return np.maximum(limits, policy.b_min)


def align_streams(
    streams: Sequence[SampleStream],
    policy: BufferPolicy,
    epoch_ns: int,
) -> list[AlignedFrame]:
    """Resample corrected streams onto a fixed epoch grid.

    Frames are emitted at every multiple of ``epoch_ns`` covering the
    corrected time span of the inputs. A slot holds the stream's latest
    sample at or before the frame time, provided its age does not exceed
    the stream's adaptive buffer (``buffer_size`` over the ``window``
    intervals leading up to that sample); otherwise the slot is None.

    Work is per stream, not per frame: every sample's buffer limit is
    computed once, for all streams together, one search places the
    whole epoch grid in the stream, and the freshness test runs over
    the grid as one array.
    The frames are then assembled from those per-stream columns.
    """
    epoch_ns = checked_int(epoch_ns, "epoch_ns", UsageError)
    if epoch_ns <= 0:
        raise ConfigError("epoch must be positive")
    if not streams:
        raise UsageError("at least one stream required")
    per_stream: dict[str, tuple[np.ndarray, SampleStream]] = {}
    for stream in streams:
        if len(stream) == 0:
            raise UsageError(f"stream {stream.key} has no samples")
        ts = stream.corrected_timestamps()
        if stream.key in per_stream:
            raise UsageError(f"duplicate stream key {stream.key}")
        per_stream[stream.key] = (ts, stream)

    t_min = min(int(ts[0]) for ts, _ in per_stream.values())
    t_max = max(int(ts[-1]) for ts, _ in per_stream.values())
    start = -(-t_min // epoch_ns) * epoch_ns  # ceil to the epoch grid
    grid = np.arange(start, t_max + 1, epoch_ns, dtype=np.int64)

    limits = _buffer_limits([ts for ts, _ in per_stream.values()], policy)
    columns = []
    for (ts, stream), limit in zip(per_stream.values(), limits):
        idx = np.searchsorted(ts, grid, side="right") - 1
        at = np.maximum(idx, 0)
        fresh = (idx >= 0) & (grid - ts[at] <= limit[at])
        samples = stream.samples
        columns.append(
            [samples[i] if ok else None for i, ok in zip(at.tolist(), fresh.tolist())]
        )
    keys = list(per_stream)
    set_time, set_slots = _FRAME_SETTERS
    frames = []
    for t, row in zip(grid.tolist(), zip(*columns)):
        # the time and the slots come from checked columns, as a sample's fields do
        frame = object.__new__(AlignedFrame)
        set_time(frame, t)
        set_slots(frame, dict(zip(keys, row)))
        frames.append(frame)
    return frames
