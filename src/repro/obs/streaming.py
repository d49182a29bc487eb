"""Constant-memory streaming telemetry: sketches, windows, a recorder.

The paper's headline claims are about *tail* behaviour — deadline-miss
rates and tardiness distributions under load — but the exact quantile
path materialises every per-transaction outcome before it can rank
anything.  At 10⁶–10⁷ transactions that is exactly what blows the RSS
budget.  This module provides **online aggregates** whose memory cost is
independent of stream length, so tardiness / response-time quantiles can
be read off a million-transaction run without storing a single
per-transaction record:

:class:`QuantileSketch`
    A deterministic relative-error quantile sketch over logarithmic
    buckets (the DDSketch construction; the role P²/GK play in other
    systems).  For any quantile ``q`` the estimate ``x̂`` satisfies
    ``|x̂ − x_q| <= α·|x_q|`` where ``α`` is the configured
    ``relative_accuracy`` and ``x_q`` the exact ``q``-quantile of the
    ingested stream.  Memory is ``O(log(max/min)/α)`` buckets, however
    long the stream.  Merging adds integer bucket counts, so it is
    **exactly associative and commutative**: merged shards are
    byte-identical (:meth:`QuantileSketch.as_dict`) to single-stream
    ingestion, in any merge order or grouping.

:class:`TopK`
    A weighted Misra–Gries heavy-hitters summary ("count-min-free":
    no hashing, no probabilistic collisions) for the largest tardiness
    contributors.  Every stored estimate ``ĉ`` satisfies
    ``c − D <= ĉ <= c`` for the true weight ``c``, where ``D``
    (:attr:`TopK.undercount_bound`) is the total decremented mass,
    itself bounded by ``W / (capacity + 1)`` for total weight ``W``.
    The bound survives merging (Agarwal et al., *Mergeable Summaries*).

:class:`WindowAggregator`
    Tumbling windows over **simulated** time.  Each closed window emits
    one additive schema-1 ``window.snapshot`` event carrying arrivals,
    completions, throughput, miss rate, queue-depth stats and server
    utilization for that window — a bounded time-series where the
    :class:`~repro.obs.timeline.Timeline` would keep one sample per
    scheduling point.

:class:`RunTelemetry`
    The per-run bundle of the two sketches and the culprits, beside the
    run's :class:`~repro.sim.results.StreamSummary` (every count, total
    and maximum), with a :meth:`RunTelemetry.merge` the parallel sweep
    harness applies in grid order.

:class:`StreamingRecorder`
    An :class:`~repro.obs.hooks.Instrument` maintaining a
    :class:`RunTelemetry` (plus optional windows and an optional JSONL
    sink with sampling) in constant memory, and condensing the run into
    a quantile-bearing :class:`~repro.obs.summary.RunReport`.  The
    buffered :class:`~repro.obs.recorder.Recorder` is one of these
    whose sink is its own event list.

Everything here is deterministic — no wall clocks, no unseeded entropy —
and ``repro.obs.streaming`` is enforced as such by ``repro.lint``
(RL001/RL002 via ``DETERMINISTIC_PACKAGES``).  Wall-clock progress
heartbeats live in :mod:`repro.obs.progress` instead, outside the
deterministic boundary.  See ``docs/streaming.md`` for the guarantees
and formats in full.
"""

from __future__ import annotations

import math
import sys
from dataclasses import asdict
from typing import TYPE_CHECKING, Iterable, Iterator, Mapping

from repro.errors import ObservabilityError
from repro.obs.hooks import Instrument
from repro.obs.jsonl import SCHEMA_VERSION, EventSampler
from repro.obs.records import (
    abort_record,
    arrival_record,
    completion_record,
    crash_record,
    dispatch_record,
    overhead_record,
    preempt_record,
    recover_record,
    retry_record,
    run_end_record,
    run_start_record,
    sched_record,
    shed_record,
    stall_record,
)
from repro.sim.results import tardiness

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.transaction import Transaction
    from repro.obs.jsonl import EventSink
    from repro.obs.summary import RunReport
    from repro.sim.results import StreamSummary

__all__ = [
    "QuantileSketch",
    "TopK",
    "WindowAggregator",
    "RunTelemetry",
    "StreamingRecorder",
]

#: Magnitudes below this collapse into the sketch's exact zero bucket.
MIN_TRACKABLE = 1e-12


def _never(_txn_id: int = 0) -> bool:
    """The sampling predicate of a recorder without a sink."""
    return False


def _always(_txn_id: int = 0) -> bool:
    """The sampling predicate of an unsampled sink."""
    return True


def _scalar_state(obj: object, names: Iterable[str]) -> dict:
    """Checkpoint state of ``obj``'s scalar attributes ``names``, keyed
    without their leading underscore."""
    # Interned keys pickle as memo references, so checkpoints stay as
    # small as with literal keys.
    return {sys.intern(name.lstrip("_")): getattr(obj, name) for name in names}


def _restore_scalars(obj: object, state: Mapping, names: Iterable[str]) -> None:
    """Inverse of :func:`_scalar_state` on a freshly built ``obj``: each
    value is cast to the type of the attribute's initial value."""
    for name in names:
        setattr(obj, name, type(getattr(obj, name))(state[name.lstrip("_")]))


class QuantileSketch:
    """Deterministic relative-error quantile sketch (log buckets).

    Values are routed to geometric buckets with boundaries ``γ^k`` where
    ``γ = (1 + α) / (1 − α)``; bucket ``k`` covers ``(γ^(k−1), γ^k]``
    and reports the estimate ``2γ^k / (γ + 1)``, which is within
    relative error ``α`` of every value in the bucket.  Negative values
    get a mirrored bucket map; magnitudes below :data:`MIN_TRACKABLE`
    share one exact zero bucket (tardiness streams are mostly zeros).

    All counts are integers, so :meth:`merge` (bucket-wise addition) is
    exactly associative and commutative and :meth:`as_dict` of merged
    shards is byte-identical to single-stream ingestion.

    A run's :class:`RunTelemetry` feeds its sketches one sample per
    *completed* transaction: the population of Definition 4's averages
    and of :mod:`repro.metrics.distributions`.

    Examples
    --------
    >>> s = QuantileSketch(relative_accuracy=0.01)
    >>> for v in range(1, 1001):
    ...     s.add(float(v))
    >>> abs(s.quantile(0.5) - 500) <= 0.01 * 500 + 1
    True
    """

    __slots__ = (
        "relative_accuracy",
        "_log_gamma",
        "_positive",
        "_negative",
        "_zero",
        "count",
        "_min",
        "_max",
    )

    def __init__(self, relative_accuracy: float = 0.01) -> None:
        if not 0.0 < relative_accuracy < 1.0:
            raise ObservabilityError(
                f"relative_accuracy must be in (0, 1), got {relative_accuracy}"
            )
        self.relative_accuracy = relative_accuracy
        gamma = (1.0 + relative_accuracy) / (1.0 - relative_accuracy)
        self._log_gamma = math.log(gamma)
        self._positive: dict[int, int] = {}
        self._negative: dict[int, int] = {}
        self._zero = 0
        self.count = 0
        self._min = math.inf
        self._max = -math.inf

    # ------------------------------------------------------------------
    # Ingestion.
    # ------------------------------------------------------------------
    def _key(self, magnitude: float) -> int:
        return math.ceil(math.log(magnitude) / self._log_gamma)

    def _estimate(self, key: int) -> float:
        gamma_k = math.exp(key * self._log_gamma)
        alpha = self.relative_accuracy
        # Midpoint of (γ^(k-1), γ^k] in relative terms: 2γ^k / (γ + 1)
        # = γ^k (1 − α), within α of both bucket edges.
        return gamma_k * (1.0 - alpha)

    def add(self, value: float, count: int = 1) -> None:
        """Ingest ``value`` (``count`` times; counts stay integral)."""
        if count < 1:
            raise ObservabilityError(f"count must be >= 1, got {count}")
        if value > MIN_TRACKABLE:
            key = self._key(value)
            self._positive[key] = self._positive.get(key, 0) + count
        elif value < -MIN_TRACKABLE:
            key = self._key(-value)
            self._negative[key] = self._negative.get(key, 0) + count
        else:
            value = 0.0
            self._zero += count
        self.count += count
        if value < self._min:
            self._min = value
        if value > self._max:
            self._max = value

    # ------------------------------------------------------------------
    # Queries.
    # ------------------------------------------------------------------
    @property
    def min(self) -> float:
        """Exact minimum ingested value (0.0 on an empty sketch)."""
        return self._min if self.count else 0.0

    @property
    def max(self) -> float:
        """Exact maximum ingested value (0.0 on an empty sketch)."""
        return self._max if self.count else 0.0

    @property
    def sum(self) -> float:
        """Bucket-reconstructed sum; within relative ``α`` of the exact
        sum when all values share a sign (a run's exact totals are its
        :class:`~repro.sim.results.StreamSummary`)."""
        total = 0.0
        for key in sorted(self._negative):
            total -= self._estimate(key) * self._negative[key]
        for key in sorted(self._positive):
            total += self._estimate(key) * self._positive[key]
        return total

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """The ``q``-quantile estimate, within relative error ``α``.

        Guarantee: for the exact ``q``-quantile ``x_q`` (the value at
        rank ``max(0, ceil(q·n) − 1)`` of the sorted stream), the
        returned ``x̂`` satisfies ``|x̂ − x_q| <= α·|x_q|``; ``q`` of 0
        and 1 return the exact tracked min/max.
        """
        if not 0.0 <= q <= 1.0:
            raise ObservabilityError(f"quantile q must be in [0, 1], got {q}")
        if self.count == 0:
            return 0.0
        if q == 0.0:
            return self.min
        if q == 1.0:
            return self.max
        rank = max(0, math.ceil(q * self.count) - 1)
        # Ascending value order: negatives (large magnitude first), the
        # zero bucket, then positives (small magnitude first).
        cumulative = 0
        for key in sorted(self._negative, reverse=True):
            cumulative += self._negative[key]
            if cumulative > rank:
                return -self._estimate(key)
        cumulative += self._zero
        if cumulative > rank:
            return 0.0
        for key in sorted(self._positive):
            cumulative += self._positive[key]
            if cumulative > rank:
                return self._estimate(key)
        return self.max  # pragma: no cover - unreachable (counts add up)

    # ------------------------------------------------------------------
    # Merge and serialisation.
    # ------------------------------------------------------------------
    def merge(self, other: "QuantileSketch") -> None:
        """Fold ``other`` into this sketch (bucket-wise integer adds).

        Exactly associative and commutative; both sketches must share
        the same ``relative_accuracy`` (the bucket maps are only
        compatible at equal γ).
        """
        if other.relative_accuracy != self.relative_accuracy:
            raise ObservabilityError(
                "cannot merge sketches with different relative_accuracy "
                f"({self.relative_accuracy} vs {other.relative_accuracy})"
            )
        for key in sorted(other._positive):
            self._positive[key] = (
                self._positive.get(key, 0) + other._positive[key]
            )
        for key in sorted(other._negative):
            self._negative[key] = (
                self._negative.get(key, 0) + other._negative[key]
            )
        self._zero += other._zero
        self.count += other.count
        if other.count:
            if other._min < self._min:
                self._min = other._min
            if other._max > self._max:
                self._max = other._max

    def as_dict(self) -> dict:
        """JSON-ready snapshot; byte-stable under merge order/grouping."""
        return {
            "relative_accuracy": self.relative_accuracy,
            "count": self.count,
            "zero": self._zero,
            "min": self.min,
            "max": self.max,
            "positive": {str(k): self._positive[k] for k in sorted(self._positive)},
            "negative": {str(k): self._negative[k] for k in sorted(self._negative)},
        }

    @classmethod
    def from_dict(cls, state: Mapping) -> "QuantileSketch":
        sketch = cls(relative_accuracy=float(state["relative_accuracy"]))
        sketch._zero = int(state["zero"])
        sketch.count = int(state["count"])
        if sketch.count:
            sketch._min = float(state["min"])
            sketch._max = float(state["max"])
        sketch._positive = {
            int(k): int(v) for k, v in state["positive"].items()
        }
        sketch._negative = {
            int(k): int(v) for k, v in state["negative"].items()
        }
        return sketch

    def to_state(self) -> dict:
        """Checkpoint state; exact (integer counts, tracked min/max).

        :meth:`as_dict` already loses nothing — bucket counts are
        integers and min/max are stored floats — so the checkpoint
        state *is* the snapshot dict and ``from_state(to_state(s))``
        answers every quantile/sum/count query identically to ``s``.
        """
        return self.as_dict()

    @classmethod
    def from_state(cls, state: Mapping) -> "QuantileSketch":
        """Inverse of :meth:`to_state` (see there for the exactness)."""
        return cls.from_dict(state)

    def __repr__(self) -> str:
        return (
            f"QuantileSketch(alpha={self.relative_accuracy}, "
            f"count={self.count}, buckets="
            f"{len(self._positive) + len(self._negative) + bool(self._zero)})"
        )


class TopK:
    """Weighted Misra–Gries heavy-hitters summary (no hashing).

    Tracks at most ``capacity`` keys.  When a new key overflows the
    table, the minimum stored weight is subtracted from *every* counter
    (keys hitting zero are dropped) and added to the decrement total
    ``D``.  For every key the stored estimate ``ĉ`` satisfies
    ``c − D <= ĉ <= c`` against the true ingested weight ``c``, with
    ``D <= W / (capacity + 1)`` for total ingested weight ``W`` — and
    the same bound holds after any sequence of :meth:`merge` calls.

    Ties are broken deterministically (first-inserted evicts first),
    so the structure is fully reproducible.

    Internally the MG "subtract the floor from everyone" decrement is
    lazy: counters store ``estimate + offset`` and a trim only raises
    the shared ``offset`` and evicts keys at or below it — O(capacity)
    per eviction with no dict rebuild, which keeps the per-completion
    cost flat on runs where every tardy transaction is a fresh key.
    """

    __slots__ = ("capacity", "_counters", "_offset", "_shed", "total_weight")

    def __init__(self, capacity: int = 16) -> None:
        if capacity < 1:
            raise ObservabilityError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._counters: dict[int, float] = {}
        #: Shared lazy decrement: true estimate = stored − offset.
        self._offset = 0.0
        #: Total decremented mass D: per-key undercount is at most this.
        self._shed = 0.0
        self.total_weight = 0.0

    def add(self, key: int, weight: float = 1.0) -> None:
        if weight <= 0.0:
            if weight == 0.0:
                return
            raise ObservabilityError(f"weight must be >= 0, got {weight}")
        self.total_weight += weight
        counters = self._counters
        if key in counters:
            counters[key] += weight
        else:
            counters[key] = weight + self._offset
            if len(counters) > self.capacity:
                self._trim()

    def _trim(self) -> None:
        """Raise the offset until ``capacity`` keys fit again.

        Only the minimum key is evicted per pass; keys tied with the
        floor stay behind at estimate zero (``c == offset``, excluded
        from :meth:`items`) and fall out of the next trim.  The
        invariant ``c >= offset`` holds for every stored counter, so
        the offset never moves backwards and estimates never go
        negative.
        """
        counters = self._counters
        while len(counters) > self.capacity:
            min_key = min(counters, key=counters.__getitem__)
            floor = counters[min_key]
            self._shed += floor - self._offset
            self._offset = floor
            del counters[min_key]

    @property
    def undercount_bound(self) -> float:
        """Max possible undercount of any estimate (the decrement total)."""
        return self._shed

    def estimate(self, key: int) -> float:
        """Lower-bound weight estimate for ``key`` (0.0 if untracked)."""
        stored = self._counters.get(key)
        return 0.0 if stored is None else stored - self._offset

    def items(self) -> list[tuple[int, float]]:
        """Tracked keys, heaviest first (ties broken by key)."""
        offset = self._offset
        return sorted(
            ((k, c - offset) for k, c in self._counters.items() if c > offset),
            key=lambda kv: (-kv[1], kv[0]),
        )

    def top(self, k: int) -> list[tuple[int, float]]:
        return self.items()[:k]

    def merge(self, other: "TopK") -> None:
        """Fold ``other`` in; the MG error bound is preserved."""
        if other.capacity != self.capacity:
            raise ObservabilityError(
                "cannot merge TopK summaries with different capacities "
                f"({self.capacity} vs {other.capacity})"
            )
        offset = other._offset
        for key in sorted(other._counters):
            weight = other._counters[key] - offset
            if key in self._counters:
                self._counters[key] += weight
            else:
                self._counters[key] = weight + self._offset
        self._shed += other._shed
        self.total_weight += other.total_weight
        if len(self._counters) > self.capacity:
            self._trim()

    def as_dict(self) -> dict:
        return {
            "capacity": self.capacity,
            "total_weight": self.total_weight,
            "undercount_bound": self.undercount_bound,
            "items": [[k, w] for k, w in self.items()],
        }

    def to_state(self) -> dict:
        """Checkpoint state: raw counters in insertion order.

        :meth:`as_dict` bakes the lazy ``_offset`` into the reported
        estimates and re-sorts by weight; exact resume needs the stored
        counters verbatim (eviction tie-breaks depend on insertion
        order) plus the offset and decrement total, so those are kept
        raw here.
        """
        return {
            "capacity": self.capacity,
            "offset": self._offset,
            "shed": self._shed,
            "total_weight": self.total_weight,
            "counters": [[k, c] for k, c in self._counters.items()],
        }

    @classmethod
    def from_state(cls, state: Mapping) -> "TopK":
        topk = cls(capacity=int(state["capacity"]))
        topk._offset = float(state["offset"])
        topk._shed = float(state["shed"])
        topk.total_weight = float(state["total_weight"])
        topk._counters = {
            int(k): float(c) for k, c in state["counters"]
        }
        return topk

    def __len__(self) -> int:
        return len(self._counters)

    def __repr__(self) -> str:
        return (
            f"TopK(capacity={self.capacity}, tracked={len(self._counters)}, "
            f"undercount<={self._shed:g})"
        )


class WindowAggregator:
    """Tumbling windows over simulated time, emitting ``window.snapshot``.

    Window ``i`` covers ``[i·width, (i+1)·width)``.  Counters accumulate
    as the engine reports events; when simulated time crosses a window
    boundary the closed window(s) are emitted as additive schema-1
    records::

        {"kind": "window.snapshot", "t": <end>, "window": i,
         "start": ..., "end": ..., "arrivals": n, "completions": n,
         "tardy": n, "miss_rate": x, "throughput": x, "tardiness": x,
         "utilization": x, "queue_max": n, "queue_mean": x}

    ``utilization`` is busy-server time integrated over the window
    divided by ``servers × width`` (the engine's running count is
    piecewise constant between scheduling points, so the integral is
    exact).  The final, possibly partial window is emitted by
    :meth:`finish` with an extra ``"partial": true`` field.
    """

    __slots__ = (
        "width",
        "servers",
        "_index",
        "_arrivals",
        "_completions",
        "_tardy",
        "_tardiness",
        "_queue_samples",
        "_queue_sum",
        "_queue_max",
        "_busy",
        "_last_time",
        "_last_running",
        "snapshots_emitted",
    )

    def __init__(self, width: float, servers: int = 1) -> None:
        if width <= 0:
            raise ObservabilityError(f"window width must be > 0, got {width}")
        self.width = width
        self.servers = max(1, servers)
        self._index = 0
        self._reset_counters()
        self._last_time = 0.0
        self._last_running = 0
        self.snapshots_emitted = 0

    def _reset_counters(self) -> None:
        self._arrivals = 0
        self._completions = 0
        self._tardy = 0
        self._tardiness = 0.0
        self._queue_samples = 0
        self._queue_sum = 0
        self._queue_max = 0
        self._busy = 0.0

    def _snapshot(self, end: float, partial: bool) -> dict:
        start = self._index * self.width
        span = max(end - start, MIN_TRACKABLE)
        record = {
            "kind": "window.snapshot",
            "t": end,
            "window": self._index,
            "start": start,
            "end": end,
            "arrivals": self._arrivals,
            "completions": self._completions,
            "tardy": self._tardy,
            "miss_rate": (
                self._tardy / self._completions if self._completions else 0.0
            ),
            "throughput": self._completions / span,
            "tardiness": self._tardiness,
            "utilization": self._busy / (span * self.servers),
            "queue_max": self._queue_max,
            "queue_mean": (
                self._queue_sum / self._queue_samples
                if self._queue_samples
                else 0.0
            ),
        }
        if partial:
            record["partial"] = True
        self.snapshots_emitted += 1
        return record

    def _integrate(self, until: float) -> None:
        if until > self._last_time:
            self._busy += self._last_running * (until - self._last_time)
            self._last_time = until

    @property
    def end(self) -> float:
        """Where the open window ends: the next :meth:`advance` at or
        past this time closes it."""
        return (self._index + 1) * self.width

    def advance(self, now: float) -> list[dict]:
        """Close every window ending at or before ``now``; return their
        snapshot records (often empty, bounded by elapsed sim time)."""
        out: list[dict] = []
        boundary = self.end
        while now >= boundary:
            self._integrate(boundary)
            out.append(self._snapshot(boundary, partial=False))
            self._index += 1
            self._reset_counters()
            boundary = self.end
        return out

    def observe_arrival(self) -> None:
        self._arrivals += 1

    def observe_completion(self, tardiness: float) -> None:
        self._completions += 1
        self._tardiness += tardiness
        if tardiness > 0.0:
            self._tardy += 1

    def observe_point(self, now: float, ready: int, running: int) -> None:
        """One scheduling point: sample the queue, step the integral."""
        self._integrate(now)
        self._last_running = running
        self._queue_samples += 1
        self._queue_sum += ready
        if ready > self._queue_max:
            self._queue_max = ready

    def finish(self, now: float) -> list[dict]:
        """Flush at run end: close full windows, emit the partial tail."""
        out = self.advance(now)
        self._integrate(now)
        if now > self._index * self.width:
            out.append(self._snapshot(now, partial=True))
        return out

    def to_state(self) -> dict:
        """Checkpoint state: every accumulator of the open window."""
        return _scalar_state(self, self.__slots__)

    @classmethod
    def from_state(cls, state: Mapping) -> "WindowAggregator":
        windows = cls(float(state["width"]), servers=int(state["servers"]))
        _restore_scalars(windows, state, cls.__slots__)
        return windows


class RunTelemetry:
    """The constant-memory telemetry bundle of one (or many merged) runs.

    Carries what a :class:`~repro.sim.results.StreamSummary` cannot
    hold: quantile sketches of tardiness and response time over
    completed work, and a Misra–Gries summary of the heaviest tardiness
    contributors ("blame culprits").  Every count, total and maximum is
    ``summary``, the run's one tally, which the engine hands over at
    run end (``None`` until then).  :meth:`merge` folds another run's
    telemetry in; the parallel sweep harness merges per-cell telemetry
    in grid order, which makes ``jobs=N`` output byte-identical to
    ``jobs=1`` (:meth:`as_dict` compares equal, key for key).
    """

    __slots__ = (
        "quantile_accuracy",
        "tardiness",
        "response",
        "culprits",
        "summary",
    )

    def __init__(
        self, quantile_accuracy: float = 0.01, topk: int = 16
    ) -> None:
        self.quantile_accuracy = quantile_accuracy
        self.tardiness = QuantileSketch(quantile_accuracy)
        self.response = QuantileSketch(quantile_accuracy)
        self.culprits = TopK(topk)
        self.summary: StreamSummary | None = None

    def observe_completion(
        self, txn_id: int, tardiness: float, response: float
    ) -> None:
        self.tardiness.add(tardiness)
        self.response.add(response)
        self.culprits.add(txn_id, tardiness)

    def merge(self, other: "RunTelemetry") -> None:
        """Fold another run's telemetry in: sketches and culprits merge,
        summaries add (:meth:`~repro.sim.results.StreamSummary.merge`),
        so a fixed merge order gives byte-identical results."""
        self.tardiness.merge(other.tardiness)
        self.response.merge(other.response)
        self.culprits.merge(other.culprits)
        if self.summary is None:
            self.summary = other.summary
        elif other.summary is not None:
            self.summary = self.summary.merge(other.summary)

    def as_dict(self) -> dict:
        """JSON-ready snapshot; the unit of byte-identity tests."""
        return {
            "quantile_accuracy": self.quantile_accuracy,
            "summary": (
                None if self.summary is None else asdict(self.summary)
            ),
            "tardiness": self.tardiness.as_dict(),
            "response": self.response.as_dict(),
            "culprits": self.culprits.as_dict(),
        }

    def to_state(self) -> dict:
        """Checkpoint state: composed from the members' raw states."""
        return {
            "quantile_accuracy": self.quantile_accuracy,
            "topk_capacity": self.culprits.capacity,
            "tardiness": self.tardiness.to_state(),
            "response": self.response.to_state(),
            "culprits": self.culprits.to_state(),
            "summary": self.summary,
        }

    @classmethod
    def from_state(cls, state: Mapping) -> "RunTelemetry":
        telemetry = cls(
            float(state["quantile_accuracy"]),
            topk=int(state["topk_capacity"]),
        )
        telemetry.tardiness = QuantileSketch.from_state(state["tardiness"])
        telemetry.response = QuantileSketch.from_state(state["response"])
        telemetry.culprits = TopK.from_state(state["culprits"])
        telemetry.summary = state["summary"]
        return telemetry

    def __repr__(self) -> str:
        return (
            f"RunTelemetry(completed={self.tardiness.count}, "
            f"p99_tardiness={self.tardiness.quantile(0.99):g})"
        )


class StreamingRecorder(Instrument):
    """Constant-memory instrument: sketches + windows + optional sink.

    The one telemetry core of :mod:`repro.obs`: it retains **no
    per-transaction or per-event state**.  Completions feed the run's
    :class:`RunTelemetry` sketches; scheduling points feed the optional
    :class:`WindowAggregator`; and when a ``sink`` is given every event
    record is written to it immediately.  Hooks count no outcomes: the
    engine's :class:`~repro.sim.results.StreamSummary`, handed over in
    :meth:`on_run_end`, is the run's one tally.  Under sampling the recorder
    asks the :class:`~repro.obs.jsonl.EventSampler` before it builds a
    record, so an event the log drops costs no record at all.
    :class:`~repro.obs.recorder.Recorder` is this class with its sink
    set to an in-memory event list.

    Parameters
    ----------
    quantile_accuracy:
        Relative error ``α`` of the quantile sketches (default 0.01).
    window:
        Tumbling-window width in simulated time units; ``None`` (the
        default) disables the windowed time-series.
    sink:
        Optional event sink — a :class:`~repro.obs.jsonl.JsonlWriter` or
        :class:`~repro.obs.jsonl.RotatingJsonlWriter` — receiving every
        (sampled) event record as it happens.  The caller owns closing.
    sample:
        Per-transaction event sampling rate in ``(0, 1]`` applied to the
        sink (head/tail-biased: see
        :class:`~repro.obs.jsonl.EventSampler`).  Below 1 the header
        carries ``"sample"``.  Telemetry is always exact — sampling
        only thins the persisted log.
    topk:
        Capacity of the tardiness-culprit summary.
    """

    #: The run's scalar accumulators, checkpointed as they stand.
    _SCALARS = (
        "_policy", "_n", "_servers", "_started", "_sched_points",
        "_select_total", "_select_max", "_dispatches", "_overhead_paid",
        "_max_ready", "_ready_sum", "_crashes", "_stalls",
    )

    def __init__(
        self,
        quantile_accuracy: float = 0.01,
        window: float | None = None,
        sink: "EventSink | None" = None,
        sample: float = 1.0,
        topk: int = 16,
    ) -> None:
        self.telemetry = RunTelemetry(quantile_accuracy, topk=topk)
        self._window_width = window
        self._windows: WindowAggregator | None = None
        self._sampler = EventSampler(sample) if sample != 1.0 else None
        self._sink = sink
        # The sampling rule, resolved once: whether a transaction's
        # records, and whether the next ``sched`` point, reach the sink.
        if sink is None:
            self._keeps_txn = self._keeps_sched = _never
        elif self._sampler is None:
            self._keeps_txn = self._keeps_sched = _always
        else:
            self._keeps_txn = self._sampler.keeps_txn
            self._keeps_sched = self._sampler.keeps_sched
        #: The open window's end; no hook reaches the windows before it.
        self._window_end = math.inf
        self._policy = "?"
        self._n = 0
        self._servers = 1
        self._started = False
        self._sched_points = 0
        self._select_total = 0.0
        self._select_max = 0.0
        self._dispatches = 0
        self._overhead_paid = 0.0
        self._max_ready = 0
        self._ready_sum = 0
        self._crashes = 0
        self._stalls = 0

    def _close_windows(self, now: float) -> None:
        """Close the windows ending at or before ``now``; hooks call it
        only once ``now`` reaches :attr:`_window_end`."""
        windows = self._windows
        assert windows is not None
        # Window snapshots are aggregates: the sampler always keeps them.
        for snapshot in windows.advance(now):
            if self._sink is not None:
                self._sink.write(snapshot)
        self._window_end = windows.end

    # ------------------------------------------------------------------
    # Instrument callbacks.
    # ------------------------------------------------------------------
    def on_run_start(
        self, policy_name: str, n_transactions: int, servers: int
    ) -> None:
        if self._started:
            raise ObservabilityError(
                f"a {type(self).__name__} observes exactly one run; "
                "attach a fresh one"
            )
        self._started = True
        self._policy = policy_name
        self._n = n_transactions
        self._servers = servers
        if self._window_width is not None:
            self._windows = WindowAggregator(self._window_width, servers)
            self._window_end = self._windows.end
        if self._sink is not None:
            header = run_start_record(
                SCHEMA_VERSION, policy_name, n_transactions, servers
            )
            if self._sampler is not None:
                header["sample"] = self._sampler.rate
            if self._window_width is not None:
                header["window"] = self._window_width
            self._sink.write(header)

    def on_arrival(self, txn: "Transaction", now: float) -> None:
        if now >= self._window_end:
            self._close_windows(now)
        if self._windows is not None:
            self._windows.observe_arrival()
        if self._keeps_txn(txn.txn_id):
            self._sink.write(arrival_record(txn, now))

    def on_dispatch(self, txn: "Transaction", now: float, overhead: float) -> None:
        if now >= self._window_end:
            self._close_windows(now)
        self._dispatches += 1
        if self._keeps_txn(txn.txn_id):
            self._sink.write(dispatch_record(txn, now, overhead))

    def on_preempt(self, txn: "Transaction", now: float) -> None:
        if self._keeps_txn(txn.txn_id):
            self._sink.write(preempt_record(txn, now))

    def on_overhead(self, txn: "Transaction", amount: float, now: float) -> None:
        self._overhead_paid += amount
        if self._keeps_txn(txn.txn_id):
            self._sink.write(overhead_record(txn, amount, now))

    def on_completion(self, txn: "Transaction", now: float) -> None:
        if now >= self._window_end:
            self._close_windows(now)
        late = tardiness(now, txn.deadline)
        self.telemetry.observe_completion(txn.txn_id, late, now - txn.arrival)
        if self._windows is not None:
            self._windows.observe_completion(late)
        if self._keeps_txn(txn.txn_id):
            self._sink.write(completion_record(txn, now, late))
        elif self._sink is not None and EventSampler.keeps_unsampled(
            "completion", late
        ):
            record = completion_record(txn, now, late)
            record["sampled"] = False
            self._sink.write(record)

    def on_stall(self, txn: "Transaction", amount: float, now: float) -> None:
        self._stalls += 1
        if self._keeps_txn(txn.txn_id):
            self._sink.write(stall_record(txn, amount, now))

    def on_abort(
        self,
        txn: "Transaction",
        now: float,
        lost: float,
        attempt: int,
        exhausted: bool,
    ) -> None:
        if now >= self._window_end:
            self._close_windows(now)
        if self._keeps_txn(txn.txn_id):
            self._sink.write(abort_record(txn, now, lost, attempt, exhausted))

    def on_retry(
        self, txn: "Transaction", now: float, attempt: int, deadline: float
    ) -> None:
        if self._keeps_txn(txn.txn_id):
            self._sink.write(retry_record(txn, now, attempt, deadline))

    def on_crash(self, now: float, down: int) -> None:
        self._crashes += 1
        if self._sink is not None:
            self._sink.write(crash_record(now, down))

    def on_recover(self, now: float, down: int) -> None:
        if self._sink is not None:
            self._sink.write(recover_record(now, down))

    def on_shed(self, txn: "Transaction", now: float, reason: str) -> None:
        if now >= self._window_end:
            self._close_windows(now)
        if self._keeps_txn(txn.txn_id):
            self._sink.write(shed_record(txn, now, reason))

    def on_scheduling_point(
        self, now: float, ready: int, running: int, select_seconds: float
    ) -> None:
        self._sched_points += 1
        self._select_total += select_seconds
        if select_seconds > self._select_max:
            self._select_max = select_seconds
        self._ready_sum += ready
        if ready > self._max_ready:
            self._max_ready = ready
        if now >= self._window_end:
            self._close_windows(now)
        if self._windows is not None:
            self._windows.observe_point(now, ready, running)
        if self._keeps_sched():
            self._sink.write(sched_record(now, ready, running, select_seconds))

    def on_run_end(self, now: float, summary: "StreamSummary") -> None:
        self.telemetry.summary = summary
        if self._windows is not None:
            for snapshot in self._windows.finish(now):
                if self._sink is not None:
                    self._sink.write(snapshot)
        if self._sink is not None:
            self._sink.write(run_end_record(now, summary))

    # ------------------------------------------------------------------
    # Products.
    # ------------------------------------------------------------------
    def report(self) -> "RunReport":
        """Condense the run into a quantile-bearing :class:`RunReport`:
        outcomes from the run's summary, quantiles from the sketches,
        engine activity from this recorder's own counters."""
        summary = self.telemetry.summary
        if summary is None:
            raise ObservabilityError(
                f"{type(self).__name__} has not observed a run to its end"
            )
        from repro.obs.summary import RunReport

        t = self.telemetry
        return RunReport(
            policy=self._policy,
            n_transactions=self._n,
            servers=self._servers,
            makespan=summary.makespan,
            scheduling_points=self._sched_points,
            preemptions=summary.preemptions,
            arrivals=summary.n,
            dispatches=self._dispatches,
            completions=summary.completed,
            overhead_paid=self._overhead_paid,
            total_tardiness=summary.total_tardiness,
            max_ready_depth=self._max_ready,
            mean_ready_depth=(
                self._ready_sum / self._sched_points
                if self._sched_points
                else 0.0
            ),
            select_total_seconds=self._select_total,
            select_max=self._select_max,
            aborted=summary.aborted,
            shed=summary.shed,
            retries=summary.retries,
            crashes=self._crashes,
            stalls=self._stalls,
            quantile_accuracy=t.quantile_accuracy,
            tardiness_p50=t.tardiness.quantile(0.50),
            tardiness_p90=t.tardiness.quantile(0.90),
            tardiness_p99=t.tardiness.quantile(0.99),
            response_p50=t.response.quantile(0.50),
            response_p95=t.response.quantile(0.95),
            response_p99=t.response.quantile(0.99),
            miss_ratio=summary.tardy / (summary.completed or 1),
        )

    def to_state(self) -> dict:
        """Checkpoint state: telemetry, windows, sampler and counters.

        The sink is *not* part of the state — file handles cannot ride
        in a checkpoint.  :meth:`from_state` takes the (resumed) sink
        explicitly; the :class:`~repro.obs.jsonl.EventSampler` position
        (``_sched_seen``) is captured so sampled logs continue thinning
        at exactly the same stride phase.
        """
        return {
            "telemetry": self.telemetry.to_state(),
            "window_width": self._window_width,
            "windows": (
                self._windows.to_state() if self._windows is not None else None
            ),
            "sample": self._sampler.rate if self._sampler is not None else 1.0,
            "sched_seen": (
                self._sampler._sched_seen if self._sampler is not None else 0
            ),
            **_scalar_state(self, self._SCALARS),
        }

    @classmethod
    def from_state(
        cls, state: Mapping, sink: "EventSink | None" = None
    ) -> "StreamingRecorder":
        """Rebuild a mid-run recorder; ``sink`` is the resumed writer.

        Construction goes through ``__init__`` so the sampler is
        rebuilt from the restored configuration, then every accumulator
        is overwritten with the checkpointed values.
        """
        telemetry_state = state["telemetry"]
        recorder = cls(
            quantile_accuracy=float(telemetry_state["quantile_accuracy"]),
            window=state["window_width"],
            sink=sink,
            sample=float(state["sample"]),
            topk=int(telemetry_state["topk_capacity"]),
        )
        recorder._restore(state)
        return recorder

    def _restore(self, state: Mapping) -> None:
        """Overwrite every accumulator with the checkpointed values."""
        self.telemetry = RunTelemetry.from_state(state["telemetry"])
        if state["windows"] is not None:
            self._windows = WindowAggregator.from_state(state["windows"])
            self._window_end = self._windows.end
        if self._sampler is not None:
            self._sampler._sched_seen = int(state["sched_seen"])
        _restore_scalars(self, state, self._SCALARS)

    def __iter__(self) -> Iterator[None]:  # pragma: no cover - guard
        raise ObservabilityError(
            "StreamingRecorder keeps no event list; attach a sink to "
            "persist events"
        )

    def __repr__(self) -> str:
        return (
            f"StreamingRecorder(policy={self._policy!r}, "
            f"scheduling_points={self._sched_points})"
        )
