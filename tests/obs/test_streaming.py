"""Unit tests of the constant-memory telemetry structures.

Sketch *guarantees* (error bounds, merge identities) get the heavier
randomized treatment in ``tests/properties/test_sketch_properties.py``;
this module pins exact behavior on small, hand-checkable inputs.
"""

import math
import random

import pytest

from repro.errors import ObservabilityError
from repro.sim.results import StreamSummary, TransactionRecord
from repro.obs.streaming import (
    QuantileSketch,
    RunTelemetry,
    StreamingRecorder,
    TopK,
    WindowAggregator,
)


class TestQuantileSketch:
    def test_rejects_bad_accuracy(self):
        for alpha in (0.0, 1.0, -0.5, 2.0):
            with pytest.raises(ObservabilityError):
                QuantileSketch(alpha)

    def test_empty_sketch_answers_zero(self):
        s = QuantileSketch()
        assert s.count == 0
        assert s.quantile(0.5) == 0.0
        assert s.min == 0.0 and s.max == 0.0

    def test_min_max_are_exact(self):
        s = QuantileSketch(0.05)
        values = [3.7, 0.0, 812.5, 0.002, 41.0]
        for v in values:
            s.add(v)
        assert s.quantile(0.0) == min(values)
        assert s.quantile(1.0) == max(values)
        assert s.min == min(values) and s.max == max(values)

    def test_relative_error_bound_exponential_data(self):
        alpha = 0.01
        rng = random.Random(7)
        values = sorted(rng.expovariate(0.01) for _ in range(5000))
        s = QuantileSketch(alpha)
        for v in values:
            s.add(v)
        for q in (0.1, 0.25, 0.5, 0.9, 0.95, 0.99):
            exact = values[max(0, math.ceil(q * len(values)) - 1)]
            got = s.quantile(q)
            assert abs(got - exact) <= alpha * abs(exact) + 1e-12

    def test_zero_and_negative_values(self):
        s = QuantileSketch(0.01)
        for v in (-10.0, -1.0, 0.0, 0.0, 1.0, 10.0):
            s.add(v)
        assert s.count == 6
        # Ranks: ceil(q*6)-1 over [-10,-1,0,0,1,10].
        assert s.quantile(0.5) == pytest.approx(0.0, abs=1e-12)
        assert s.quantile(0.0) == -10.0
        q1 = s.quantile(1.0 / 6.0)
        assert abs(q1 - (-10.0)) <= 0.01 * 10.0 + 1e-12

    def test_counted_add_matches_repeated_add(self):
        a, b = QuantileSketch(0.02), QuantileSketch(0.02)
        for _ in range(5):
            a.add(3.25)
        b.add(3.25, count=5)
        assert a.as_dict() == b.as_dict()
        with pytest.raises(ObservabilityError):
            b.add(1.0, count=0)

    def test_merge_is_bucketwise_addition(self):
        rng = random.Random(3)
        values = [rng.uniform(0.001, 500.0) for _ in range(400)]
        whole = QuantileSketch(0.01)
        left, right = QuantileSketch(0.01), QuantileSketch(0.01)
        for i, v in enumerate(values):
            whole.add(v)
            (left if i % 2 else right).add(v)
        left.merge(right)
        assert left.as_dict() == whole.as_dict()

    def test_merge_rejects_mismatched_accuracy(self):
        with pytest.raises(ObservabilityError):
            QuantileSketch(0.01).merge(QuantileSketch(0.02))

    def test_dict_round_trip(self):
        s = QuantileSketch(0.03)
        for v in (-4.0, 0.0, 2.5, 2.5, 900.1):
            s.add(v)
        restored = QuantileSketch.from_dict(s.as_dict())
        assert restored.as_dict() == s.as_dict()
        assert restored.quantile(0.5) == s.quantile(0.5)


class TestTopK:
    def test_rejects_bad_capacity_and_weight(self):
        with pytest.raises(ObservabilityError):
            TopK(0)
        t = TopK(2)
        with pytest.raises(ObservabilityError):
            t.add(1, -0.5)
        t.add(1, 0.0)  # no-op, not an error
        assert len(t) == 0

    def test_exact_below_capacity(self):
        t = TopK(4)
        t.add(1, 5.0)
        t.add(2, 3.0)
        t.add(1, 1.0)
        assert t.items() == [(1, 6.0), (2, 3.0)]
        assert t.estimate(1) == 6.0
        assert t.undercount_bound == 0.0
        assert t.total_weight == 9.0

    def test_undercount_bound_under_eviction(self):
        t = TopK(3)
        true: dict[int, float] = {}
        rng = random.Random(5)
        for i in range(200):
            key = i % 11
            w = rng.uniform(0.1, 4.0)
            t.add(key, w)
            true[key] = true.get(key, 0.0) + w
        total = sum(true.values())
        assert t.undercount_bound <= total / (t.capacity + 1) + 1e-9
        for key, est in t.items():
            assert est <= true[key] + 1e-9
            assert est >= true[key] - t.undercount_bound - 1e-9

    def test_heaviest_first_with_key_tiebreak(self):
        t = TopK(8)
        t.add(5, 2.0)
        t.add(3, 2.0)
        t.add(1, 9.0)
        assert t.top(3) == [(1, 9.0), (3, 2.0), (5, 2.0)]

    def test_merge_preserves_bound(self):
        rng = random.Random(9)
        shards = [TopK(4) for _ in range(3)]
        true: dict[int, float] = {}
        for i in range(300):
            key = i % 13
            w = rng.uniform(0.1, 2.0)
            shards[i % 3].add(key, w)
            true[key] = true.get(key, 0.0) + w
        merged = shards[0]
        merged.merge(shards[1])
        merged.merge(shards[2])
        total = sum(true.values())
        assert merged.total_weight == pytest.approx(total, rel=1e-12)
        assert merged.undercount_bound <= total / 5 + 1e-9
        for key, est in merged.items():
            assert est <= true[key] + 1e-9
            assert est >= true[key] - merged.undercount_bound - 1e-9

    def test_merge_rejects_capacity_mismatch(self):
        with pytest.raises(ObservabilityError):
            TopK(2).merge(TopK(3))

    def test_as_dict_shape(self):
        t = TopK(2)
        t.add(7, 1.5)
        d = t.as_dict()
        assert d["capacity"] == 2
        assert d["items"] == [[7, 1.5]]
        assert d["undercount_bound"] == 0.0


class TestWindowAggregator:
    def test_rejects_bad_width(self):
        with pytest.raises(ObservabilityError):
            WindowAggregator(0.0, 1)

    def test_tumbling_boundaries_and_counts(self):
        agg = WindowAggregator(10.0, 1)
        snapshots = []
        agg.observe_arrival()
        agg.observe_point(0.0, 1, 0)
        snapshots += agg.advance(5.0)
        agg.observe_completion(0.0)
        assert snapshots == []
        snapshots += agg.advance(10.0)  # closes [0, 10)
        assert len(snapshots) == 1
        first = snapshots[0]
        assert first["kind"] == "window.snapshot"
        assert first["window"] == 0
        assert (first["start"], first["end"]) == (0.0, 10.0)
        assert first["arrivals"] == 1
        assert first["completions"] == 1
        assert first["tardy"] == 0
        assert first["miss_rate"] == 0.0

    def test_gap_emits_empty_windows(self):
        agg = WindowAggregator(10.0, 1)
        agg.advance(0.0)
        out = agg.advance(35.0)
        assert [w["window"] for w in out] == [0, 1, 2]
        assert all(w["completions"] == 0 for w in out)

    def test_partial_tail_flagged(self):
        agg = WindowAggregator(10.0, 1)
        agg.advance(0.0)
        agg.observe_completion(3.0)
        out = agg.finish(14.0)
        assert [w["window"] for w in out] == [0, 1]
        assert "partial" not in out[0]
        assert out[1]["partial"] is True
        assert out[1]["end"] == 14.0

    def test_utilization_integrates_busy_time(self):
        agg = WindowAggregator(10.0, 2)
        agg.observe_point(0.0, 0, 2)  # both servers busy over [0, 5)
        agg.observe_point(5.0, 0, 1)  # one busy over [5, 10)
        (snap,) = agg.advance(10.0)
        # (2*5 + 1*5) / (2 servers * 10) = 0.75
        assert snap["utilization"] == pytest.approx(0.75)


def _summary(*records):
    return StreamSummary.from_records(
        [TransactionRecord(*r, first_start=0.0, preemptions=0) for r in records]
    )


class TestRunTelemetry:
    def test_observe_and_properties(self):
        t = RunTelemetry(0.01)
        t.observe_completion(1, 0.0, 4.0)
        t.observe_completion(2, 6.0, 9.0)
        # Sketches and culprits only; the tally arrives at run end.
        assert t.summary is None
        assert t.tardiness.count == 2 and t.tardiness.max == 6.0
        assert t.response.count == 2 and t.response.max == 9.0
        assert t.culprits.items() == [(2, 6.0)]

    def test_merge_accumulates_and_as_dict_is_stable(self):
        a, b = RunTelemetry(0.01), RunTelemetry(0.01)
        a.observe_completion(1, 2.0, 3.0)
        b.observe_completion(2, 5.0, 6.0)
        # (txn_id, arrival, length, deadline, weight, finish)
        a.summary = _summary((1, 0.0, 1.0, 1.0, 1.0, 3.0))
        b.summary = _summary((2, 93.0, 1.0, 94.0, 2.0, 99.0))
        expected = a.summary.merge(b.summary)
        a.merge(b)
        assert a.summary == expected
        assert a.summary.completed == 2 and a.summary.tardy == 2
        assert a.summary.makespan == 99.0
        assert a.summary.max_weighted_tardiness == 10.0
        d = a.as_dict()
        assert d["summary"]["completed"] == 2
        assert d["tardiness"]["count"] == 2
        empty = RunTelemetry(0.01)
        empty.merge(a)
        assert empty.summary == a.summary
        assert empty.as_dict() == d


class TestStreamingRecorder:
    def test_observes_exactly_one_run(self):
        rec = StreamingRecorder()
        rec.on_run_start("edf", 10, 1)
        with pytest.raises(ObservabilityError):
            rec.on_run_start("edf", 10, 1)

    def test_report_requires_a_run(self):
        with pytest.raises(ObservabilityError):
            StreamingRecorder().report()

    def test_report_requires_the_run_end(self):
        rec = StreamingRecorder()
        rec.on_run_start("edf", 10, 1)
        with pytest.raises(ObservabilityError, match="to its end"):
            rec.report()
