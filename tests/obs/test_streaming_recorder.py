"""Streaming mode must be a drop-in for the exact record-keeping path.

Every aggregate metric of a streaming run must equal the record-keeping
run's answer bit for bit (both read one ``StreamSummary``), for every
policy in the registry; report quantiles must respect the sketch's
documented relative-error bound; and the streamed event log must match
the buffered ``Recorder`` log record for record.
"""

import math

import pytest

from repro.experiments.config import PolicySpec
from repro.experiments.runner import run_policy_on, run_policy_streaming
from repro.obs.jsonl import read_tolerant
from repro.obs.recorder import Recorder
from repro.policies.registry import available_policies
from repro.workload.generator import generate
from repro.workload.spec import WorkloadSpec

# balance-aware is a wrapper needing an inner policy + rate argument;
# it cannot be built bare from the registry (same exclusion as the
# engine property tests).
POLICY_NAMES = sorted(n for n in available_policies() if n != "balance-aware")

AGGREGATES = (
    "n",
    "completed_count",
    "tardy_count",
    "aborted_count",
    "shed_count",
    "total_retries",
    "average_tardiness",
    "average_weighted_tardiness",
    "max_tardiness",
    "max_weighted_tardiness",
    "average_response_time",
    "deadline_miss_ratio",
    "total_tardiness",
    "total_weighted_tardiness",
    "makespan",
)


@pytest.fixture(scope="module")
def workload():
    spec = WorkloadSpec(
        n_transactions=120,
        utilization=0.9,
        weighted=True,
        with_workflows=True,
    )
    return generate(spec, seed=17)


@pytest.mark.parametrize("name", POLICY_NAMES)
def test_streaming_aggregates_match_exact_path(name, workload):
    policy = PolicySpec.of(name)
    exact = run_policy_on(workload, policy)
    streamed, _ = run_policy_streaming(workload, policy)
    assert streamed.records == ()
    assert streamed.stream_summary is not None
    for metric in AGGREGATES:
        a, b = getattr(exact, metric), getattr(streamed, metric)
        assert b == a, (name, metric)


@pytest.mark.parametrize("name", POLICY_NAMES)
def test_report_quantiles_within_sketch_bound(name, workload):
    alpha = 0.01
    policy = PolicySpec.of(name)
    exact = run_policy_on(workload, policy)
    _, recorder = run_policy_streaming(
        workload, policy, quantile_accuracy=alpha
    )
    report = recorder.report()
    assert report.quantile_accuracy == alpha
    tardies = sorted(r.tardiness for r in exact.records)
    for q, got in (
        (0.50, report.tardiness_p50),
        (0.90, report.tardiness_p90),
        (0.99, report.tardiness_p99),
    ):
        true = tardies[max(0, math.ceil(q * len(tardies)) - 1)]
        assert abs(got - true) <= alpha * abs(true) + 1e-9, (name, q)
    assert report.miss_ratio == pytest.approx(exact.deadline_miss_ratio)


def test_streamed_log_matches_buffered_recorder(workload, tmp_path):
    """Same run, sink-per-event vs buffer-then-write: same records.

    ``sched`` records carry a wall-clock ``select_s`` that legitimately
    differs between the two runs; every other field must be identical.
    """
    from repro.obs.jsonl import JsonlWriter

    policy = PolicySpec.of("asets-star")
    buffered = Recorder()
    run_policy_on(workload, policy, instrument=buffered)
    buffered_path = tmp_path / "buffered.jsonl"
    buffered.write_events(buffered_path)

    streamed_path = tmp_path / "streamed.jsonl"
    with JsonlWriter(streamed_path) as sink:
        run_policy_streaming(workload, policy, sink=sink)

    a, _ = read_tolerant(buffered_path)
    b, _ = read_tolerant(streamed_path)
    assert len(a) == len(b)
    for ra, rb in zip(a, b):
        ra.pop("select_s", None)
        rb.pop("select_s", None)
        assert ra == rb


def test_telemetry_counts_cover_the_run(workload):
    policy = PolicySpec.of("edf")
    result, recorder = run_policy_streaming(workload, policy)
    t = recorder.telemetry
    # One tally: the telemetry's summary is the result's own object.
    assert t.summary is result.stream_summary
    assert t.tardiness.count == t.response.count == result.completed_count
    assert t.tardiness.max == result.max_tardiness
    report = recorder.report()
    assert report.arrivals == result.n
    assert report.completions == result.completed_count
    assert report.makespan == result.makespan
    if result.tardy_count:
        worst_id, worst_est = t.culprits.items()[0]
        assert worst_est <= result.max_tardiness + 1e-9
