"""Property-based tests of the streaming-sketch guarantees.

Three families of properties:

* **error bounds** — the quantile sketch's documented relative-error
  guarantee and the Misra–Gries undercount bound hold for arbitrary
  inputs, not just friendly distributions;
* **merge identities** — sketch merges are associative and commutative
  to the byte (integer bucket counts), and sharding a stream any way
  then merging reproduces the single-stream sketch exactly;
* **checkpoint states** — ``from_state(to_state(x))`` preserves every
  answer and continues the stream bit-for-bit (the resume contract),
  and ``to_state`` commutes with ``merge``: restoring two states then
  merging equals merging then snapshotting.
"""

import math

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.obs.streaming import (
    MIN_TRACKABLE,
    QuantileSketch,
    TopK,
)

finite = {"allow_nan": False, "allow_infinity": False}

values = st.floats(min_value=-1e9, max_value=1e9, **finite)
positive_values = st.floats(min_value=1e-6, max_value=1e9, **finite)
accuracies = st.sampled_from([0.005, 0.01, 0.05])
quantiles = st.floats(min_value=0.0, max_value=1.0, **finite)


def _exact_quantile(sorted_values, q):
    rank = max(0, math.ceil(q * len(sorted_values)) - 1)
    return sorted_values[rank]


@settings(max_examples=60, deadline=None)
@given(
    data=st.lists(values, min_size=1, max_size=300),
    alpha=accuracies,
    q=quantiles,
)
def test_quantile_relative_error_bound(data, alpha, q):
    sketch = QuantileSketch(alpha)
    for v in data:
        sketch.add(v)
    exact = _exact_quantile(sorted(data), q)
    got = sketch.quantile(q)
    if abs(exact) <= MIN_TRACKABLE:
        assert abs(got) <= MIN_TRACKABLE
    else:
        assert abs(got - exact) <= alpha * abs(exact) + 1e-12


@settings(max_examples=60, deadline=None)
@given(
    a=st.lists(values, max_size=120),
    b=st.lists(values, max_size=120),
    c=st.lists(values, max_size=120),
)
def test_sketch_merge_associative_and_commutative_to_the_byte(a, b, c):
    def sketch_of(data):
        s = QuantileSketch(0.01)
        for v in data:
            s.add(v)
        return s

    # (a ⊕ b) ⊕ c
    left = sketch_of(a)
    left.merge(sketch_of(b))
    left.merge(sketch_of(c))
    # a ⊕ (b ⊕ c)
    right_inner = sketch_of(b)
    right_inner.merge(sketch_of(c))
    right = sketch_of(a)
    right.merge(right_inner)
    # (c ⊕ b) ⊕ a — commuted order
    commuted = sketch_of(c)
    commuted.merge(sketch_of(b))
    commuted.merge(sketch_of(a))

    assert left.as_dict() == right.as_dict() == commuted.as_dict()


@settings(max_examples=60, deadline=None)
@given(
    data=st.lists(values, min_size=1, max_size=300),
    n_shards=st.integers(min_value=1, max_value=5),
)
def test_sharded_sketches_merge_to_the_single_stream(data, n_shards):
    whole = QuantileSketch(0.01)
    shards = [QuantileSketch(0.01) for _ in range(n_shards)]
    for i, v in enumerate(data):
        whole.add(v)
        shards[i % n_shards].add(v)
    merged = shards[0]
    for shard in shards[1:]:
        merged.merge(shard)
    assert merged.as_dict() == whole.as_dict()


@settings(max_examples=60, deadline=None)
@given(data=st.lists(values, min_size=1, max_size=300))
def test_sketch_dict_round_trip(data):
    s = QuantileSketch(0.01)
    for v in data:
        s.add(v)
    assert QuantileSketch.from_dict(s.as_dict()).as_dict() == s.as_dict()


@settings(max_examples=60, deadline=None)
@given(
    entries=st.lists(
        st.tuples(st.integers(min_value=0, max_value=20), positive_values),
        min_size=1,
        max_size=200,
    ),
    capacity=st.integers(min_value=1, max_value=8),
    n_shards=st.integers(min_value=1, max_value=4),
)
def test_topk_undercount_bound_holds_through_merges(
    entries, capacity, n_shards
):
    shards = [TopK(capacity) for _ in range(n_shards)]
    true: dict[int, float] = {}
    for i, (key, weight) in enumerate(entries):
        shards[i % n_shards].add(key, weight)
        true[key] = true.get(key, 0.0) + weight
    merged = shards[0]
    for shard in shards[1:]:
        merged.merge(shard)
    total = sum(true.values())
    tolerance = 1e-9 * max(1.0, total)
    assert merged.total_weight <= total + tolerance
    assert merged.undercount_bound <= total / (capacity + 1) + tolerance
    for key, estimate in merged.items():
        assert estimate <= true[key] + tolerance
        assert estimate >= true[key] - merged.undercount_bound - tolerance


# --------------------------------------------------------------------------
# checkpoint-state round trips: the resume contract of repro.ckpt
# --------------------------------------------------------------------------

splits = st.floats(min_value=0.0, max_value=1.0, **finite)

topk_entries = st.lists(
    st.tuples(st.integers(min_value=0, max_value=20), positive_values),
    max_size=200,
)


@settings(max_examples=60, deadline=None)
@given(data=st.lists(values, max_size=300), split=splits, alpha=accuracies)
def test_quantile_state_round_trip_continues_bit_for_bit(data, split, alpha):
    cut = int(split * len(data))
    whole = QuantileSketch(alpha)
    for v in data[:cut]:
        whole.add(v)
    restored = QuantileSketch.from_state(whole.to_state())
    assert restored.as_dict() == whole.as_dict()
    # a restored sketch is not just equal — it *continues* identically
    for v in data[cut:]:
        whole.add(v)
        restored.add(v)
    assert restored.as_dict() == whole.as_dict()


@settings(max_examples=60, deadline=None)
@given(
    entries=topk_entries,
    split=splits,
    capacity=st.integers(min_value=1, max_value=8),
)
def test_topk_state_round_trip_continues_bit_for_bit(entries, split, capacity):
    cut = int(split * len(entries))
    whole = TopK(capacity)
    for key, weight in entries[:cut]:
        whole.add(key, weight)
    restored = TopK.from_state(whole.to_state())
    assert restored.to_state() == whole.to_state()
    for key, weight in entries[cut:]:
        whole.add(key, weight)
        restored.add(key, weight)
    # insertion order (eviction tie-breaks) must survive the round trip
    assert restored.to_state() == whole.to_state()
    assert restored.as_dict() == whole.as_dict()


@settings(max_examples=60, deadline=None)
@given(a=st.lists(values, max_size=120), b=st.lists(values, max_size=120))
def test_quantile_state_commutes_with_merge(a, b):
    def sketch_of(data):
        s = QuantileSketch(0.01)
        for v in data:
            s.add(v)
        return s

    merged = sketch_of(a)
    merged.merge(sketch_of(b))
    via_state = QuantileSketch.from_state(sketch_of(a).to_state())
    via_state.merge(QuantileSketch.from_state(sketch_of(b).to_state()))
    assert via_state.to_state() == merged.to_state()


@settings(max_examples=60, deadline=None)
@given(
    a=topk_entries,
    b=topk_entries,
    capacity=st.integers(min_value=1, max_value=8),
)
def test_topk_state_commutes_with_merge(a, b, capacity):
    def topk_of(entries):
        t = TopK(capacity)
        for key, weight in entries:
            t.add(key, weight)
        return t

    merged = topk_of(a)
    merged.merge(topk_of(b))
    via_state = TopK.from_state(topk_of(a).to_state())
    via_state.merge(TopK.from_state(topk_of(b).to_state()))
    assert via_state.to_state() == merged.to_state()
