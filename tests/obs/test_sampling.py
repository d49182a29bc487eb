"""Event sampling: deterministic thinning with exact tardy accounting."""

import pytest

from repro.errors import ObservabilityError
from repro.experiments.config import PolicySpec
from repro.experiments.runner import run_policy_on, run_policy_streaming
from repro.obs.analyze import reconstruct
from repro.obs.jsonl import (
    KEEP_ALWAYS_KINDS,
    EventSampler,
    JsonlWriter,
    SampledSink,
    read_tolerant,
)
from repro.workload.generator import generate
from repro.workload.spec import WorkloadSpec


class TestEventSampler:
    def test_rejects_bad_rates(self):
        for rate in (0.0, -0.1, 1.5):
            with pytest.raises(ObservabilityError):
                EventSampler(rate)

    def test_rate_one_keeps_everything(self):
        s = EventSampler(1.0)
        record = {"kind": "dispatch", "t": 1.0, "txn": 5}
        assert s.filter(record) is record

    def test_txn_selection_is_deterministic(self):
        a, b = EventSampler(0.25), EventSampler(0.25)
        kept = [i for i in range(1000) if a.keeps_txn(i)]
        assert kept == [i for i in range(1000) if b.keeps_txn(i)]
        # Roughly rate-proportional coverage, exactly reproducible.
        assert 150 < len(kept) < 350

    def test_txn_selection_is_the_pinned_fibonacci_hash(self):
        # The kept ids (negative ids too) are the documented rule's:
        # (id * 2654435761) mod 2^32 below rate * 2^32, written here
        # with a mask instead of a modulo.
        for rate in (0.1, 0.25, 0.5, 0.9):
            s = EventSampler(rate)
            threshold = int(rate * 2**32)
            for i in range(-3000, 3000):
                expected = (i * 2654435761) & 0xFFFFFFFF < threshold
                assert s.keeps_txn(i) is expected, (rate, i)
        s = EventSampler(0.25)
        assert [i for i in range(-20, 21) if s.keeps_txn(i)] == [
            -16, -11, -8, -3, 0, 2, 5, 10, 13, 18,
        ]

    def test_keep_always_kinds_survive(self):
        s = EventSampler(0.01)
        for kind in sorted(KEEP_ALWAYS_KINDS):
            record = {"kind": kind, "t": 0.0}
            assert s.filter(record) is not None

    def test_unsampled_tardy_completion_kept_and_flagged(self):
        s = EventSampler(0.25)
        dropped_txn = next(i for i in range(1000) if not s.keeps_txn(i))
        tardy = {
            "kind": "completion",
            "t": 9.0,
            "txn": dropped_txn,
            "tardiness": 4.5,
        }
        kept = s.filter(tardy)
        assert kept is not None
        assert kept["sampled"] is False
        assert kept["tardiness"] == 4.5
        # The original record is not mutated.
        assert "sampled" not in tardy
        on_time = {
            "kind": "completion",
            "t": 9.0,
            "txn": dropped_txn,
            "tardiness": 0.0,
        }
        assert s.filter(on_time) is None

    def test_sampled_txn_events_pass_unmarked(self):
        s = EventSampler(0.25)
        kept_txn = next(i for i in range(1000) if s.keeps_txn(i))
        record = {"kind": "dispatch", "t": 1.0, "txn": kept_txn}
        out = s.filter(record)
        assert out is record  # passed through, no copy, no flag


@pytest.fixture(scope="module")
def sampled_log(tmp_path_factory):
    """One streaming run persisted at sample rate 0.25, plus the exact run."""
    tmp_path = tmp_path_factory.mktemp("sampled")
    spec = WorkloadSpec(
        n_transactions=150,
        utilization=0.9,
        weighted=True,
        with_workflows=True,
    )
    workload = generate(spec, seed=23)
    policy = PolicySpec.of("asets-star")
    exact = run_policy_on(workload, policy)
    path = tmp_path / "sampled.jsonl"
    with JsonlWriter(path) as sink:
        run_policy_streaming(workload, policy, sink=sink, sample=0.25)
    return path, exact


class _Log(list):
    write = list.append


class TestSampledSink:
    def test_header_gains_the_rate_ahead_of_the_window(self):
        log = _Log()
        sink = SampledSink(log, EventSampler(0.25))
        sink.write({"kind": "run_start", "t": 0.0, "window": 5.0})
        assert list(log[0]) == ["kind", "t", "sample", "window"]
        assert log[0]["sample"] == 0.25

    def test_other_records_pass_through_the_sampler(self):
        log = _Log()
        sink = SampledSink(log, EventSampler(0.25))
        reference = EventSampler(0.25)
        records = [
            {"kind": "sched", "t": float(i), "ready": 1, "running": 1}
            for i in range(8)
        ] + [{"kind": "arrival", "t": 9.0, "txn": i} for i in range(64)]
        for record in records:
            sink.write(record)
        assert log == [r for r in map(reference.filter, records) if r is not None]


class TestAnalyzeOverSampledLogs:
    def test_reconstruct_does_not_crash(self, sampled_log):
        path, _ = sampled_log
        records, truncated = read_tolerant(path)
        run = reconstruct(records, truncated)
        assert run.sample_rate == 0.25
        assert len(run) < 150  # thinned

    def test_tardy_accounting_is_exact(self, sampled_log):
        """Sampled lifecycles + unsampled counters == the true run."""
        path, exact = sampled_log
        records, truncated = read_tolerant(path)
        run = reconstruct(records, truncated)
        reconstructed_tardy = len(run.tardy()) + run.unsampled_tardy
        assert reconstructed_tardy == exact.tardy_count
        total = run.total_tardiness + run.unsampled_tardiness
        assert total == pytest.approx(exact.total_tardiness, rel=1e-9)

    def test_full_rate_log_has_no_sampling_fields(self, tmp_path):
        spec = WorkloadSpec(n_transactions=40, utilization=0.9)
        workload = generate(spec, seed=3)
        policy = PolicySpec.of("edf")
        path = tmp_path / "full.jsonl"
        with JsonlWriter(path) as sink:
            run_policy_streaming(workload, policy, sink=sink)
        records, truncated = read_tolerant(path)
        assert "sample" not in records[0]
        run = reconstruct(records, truncated)
        assert run.sample_rate == 1.0
        assert run.unsampled_tardy == 0
        assert len(run) == 40
