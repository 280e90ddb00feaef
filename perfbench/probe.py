"""Stage timing, operation accounting and optional span tracing.

The benchmark calls the program only through ``Probe.call`` and
``Probe.request``, so every timed call is counted as one operation and
a raise or a non-2xx status as one failure. ``Probe`` times whole
service stages. ``Tracer`` additionally records a span around every
call, nested under its stage span, Dapper-style: name, start, end,
parent and run id. Spans stay in memory until the run writes them out.

Around every stage, outside its timed region, the probe also times a
fixed reference burst (``host_gauge``) that does not touch the program.
On a shared host, core speed swings by up to 2x for tens of seconds at
a time and slows the program and the burst alike, so a stage time
divided by the burst time around it measures the program, not the host.
"""

from __future__ import annotations

import time
from contextlib import contextmanager

GAUGE_BURSTS = 6
# host_gauge() on a quiet core of the 2-vCPU Intel Xeon the reference
# figures were taken on; gauged times are rescaled to that speed
GAUGE_REF_S = 850e-6
_GAUGE_KEYS = tuple((i * 7919) % 100_003 for i in range(3000))


def _burst() -> float:
    """One fixed piece of work like the program's own, timed: build rows, sort them, read them."""
    started = time.perf_counter()
    rows = [{"ts": key, "value": (key, key + 1)} for key in _GAUGE_KEYS]
    rows.sort(key=lambda row: row["ts"])
    sum(row["value"][0] for row in rows[::3])
    return time.perf_counter() - started


def host_gauge() -> float:
    """The host's current speed, as the fastest of a few reference bursts (s)."""
    return min(_burst() for _ in range(GAUGE_BURSTS))


class RequestFailed(Exception):
    """A routed request answered with a non-2xx status."""

    def __init__(self, path: str, status: int, body: dict):
        super().__init__(f"{path} answered {status}: {body}")


class Probe:
    """Untraced: stage wall times plus attempted and failed operations.

    ``gauge_s`` holds, per stage, the mean of ``host_gauge`` taken just
    before and just after the stage.
    """

    def __init__(self):
        self.stage_s: dict[str, float] = {}
        self.gauge_s: dict[str, float] = {}
        self.attempted = 0
        self.failed = 0

    @contextmanager
    def stage(self, name: str):
        before = host_gauge()
        started = time.perf_counter()
        try:
            yield
        finally:
            self.stage_s[name] = time.perf_counter() - started
            self.gauge_s[name] = (before + host_gauge()) / 2

    def gauged_s(self, name: str) -> float:
        """A stage's time rescaled to the host speed at which host_gauge() reads GAUGE_REF_S."""
        return self.stage_s[name] / self.gauge_s[name] * GAUGE_REF_S

    def call(self, name: str, fn, *args, **kwargs):
        self.attempted += 1
        try:
            return fn(*args, **kwargs)
        except Exception:
            self.failed += 1
            raise

    def request(self, name: str, router, method: str, path: str, **kwargs) -> dict:
        status, body = self.call(name, router.handle, method, path, **kwargs)
        if not 200 <= status < 300:
            self.failed += 1
            raise RequestFailed(path, status, body)
        return body


class Tracer(Probe):
    """A probe that also records one span per stage and per call."""

    def __init__(self, run_id: str):
        super().__init__()
        self.run_id = run_id
        self.spans: list[dict] = []
        self._open: list[int] = []

    def _begin(self, name: str) -> dict:
        span = {
            "id": len(self.spans),
            "name": name,
            "parent": self._open[-1] if self._open else None,
            "run_id": self.run_id,
            "start": time.perf_counter(),
            "end": None,
        }
        self.spans.append(span)
        self._open.append(span["id"])
        return span

    def _end(self, span: dict):
        span["end"] = time.perf_counter()
        self._open.pop()

    @contextmanager
    def stage(self, name: str):
        with super().stage(name):
            span = self._begin(f"stage.{name}")
            try:
                yield
            finally:
                self._end(span)

    def call(self, name: str, fn, *args, **kwargs):
        span = self._begin(name)
        try:
            return super().call(name, fn, *args, **kwargs)
        finally:
            self._end(span)


def self_times(spans: list[dict]) -> None:
    """Set each span's ``self_s``: its duration less what its children cover.

    Children of one span never overlap (the benchmark is one thread), so
    their covered time is the sum of their durations.
    """
    child_total: dict[int, float] = {}
    for span in spans:
        if span["parent"] is not None:
            child_total[span["parent"]] = child_total.get(span["parent"], 0.0) + span["end"] - span["start"]
    for span in spans:
        span["self_s"] = span["end"] - span["start"] - child_total.get(span["id"], 0.0)


TAIL_CANDIDATES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def tail_percentile(n: int) -> float:
    """The highest candidate percentile with at least ten of n samples beyond it."""
    for q in TAIL_CANDIDATES:
        # in thousandths, so 99.9 leaves exactly ten of 10 000
        if n * (1000 - round(q * 10)) >= 10 * 1000:
            return q
    return 50.0
