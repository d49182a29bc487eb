"""Integration: Recorder on real simulations, cross-checked against results.

This is the acceptance test of the instrumentation layer: a run with
``Simulator(..., instrument=Recorder())`` must produce (a) a JSONL event
log that round-trips through ``obs.jsonl.read()``, (b) a RunReport
whose scheduling-point and preemption counts match the
``SimulationResult``, and (c) the same report, field for field, as a
sinkless :class:`StreamingRecorder` on the same run — a ``Recorder`` is
that streaming core plus an in-memory log.
"""

import pytest

from repro.ckpt import Checkpointer, load_checkpoint
from repro.errors import ObservabilityError
from repro.experiments.config import PolicySpec
from repro.experiments.runner import run_policy_on
from repro.faults import parse_fault_spec
from repro.obs import Recorder, StreamingRecorder, jsonl
from repro.policies import EDF
from repro.policies.registry import available_policies, make_policy
from repro.sim.engine import Simulator
from repro.workload.generator import generate
from repro.workload.spec import WorkloadSpec
from tests.conftest import make_txn


@pytest.fixture(scope="module")
def recorded_run():
    workload = generate(
        WorkloadSpec(n_transactions=150, utilization=0.9), seed=23
    )
    recorder = Recorder()
    result = Simulator(
        workload.transactions, make_policy("asets"), instrument=recorder
    ).run()
    return recorder, result


def test_counts_match_simulation_result(recorded_run):
    recorder, result = recorded_run
    report = recorder.report()
    assert report.scheduling_points == result.scheduling_points
    assert report.preemptions == result.total_preemptions
    assert report.completions == result.n
    assert report.arrivals == result.n
    assert report.makespan == pytest.approx(result.makespan)
    assert report.total_tardiness == pytest.approx(result.total_tardiness)


def test_event_log_round_trips_through_jsonl(recorded_run, tmp_path):
    recorder, _ = recorded_run
    path = recorder.write_events(tmp_path / "run.jsonl")
    assert jsonl.read(path) == recorder.events
    header = recorder.events[0]
    assert header["kind"] == "run_start"
    assert header["schema"] == jsonl.SCHEMA_VERSION


def test_event_stream_is_consistent(recorded_run):
    recorder, result = recorded_run
    kinds = [e["kind"] for e in recorder.events]
    assert kinds[0] == "run_start"
    assert kinds[-1] == "run_end"
    assert kinds.count("arrival") == result.n
    assert kinds.count("completion") == result.n
    assert kinds.count("sched") == result.scheduling_points
    assert kinds.count("preempt") == result.total_preemptions
    times = [e["t"] for e in recorder.events]
    assert times == sorted(times), "events must be in chronological order"


def test_timeline_sampled_at_every_scheduling_point(recorded_run):
    recorder, result = recorded_run
    assert len(recorder.timeline) == result.scheduling_points
    tardiness = recorder.timeline.running_tardiness()
    assert tardiness == sorted(tardiness)  # cumulative, never decreases
    assert tardiness[-1] == pytest.approx(result.total_tardiness)


def test_select_latency_percentiles_populated(recorded_run):
    recorder, _ = recorded_run
    report = recorder.report()
    assert len(recorder.select_samples) == report.scheduling_points
    assert 0.0 <= report.select_p50 <= report.select_p90
    assert report.select_p90 <= report.select_p99 <= report.select_max
    assert report.select_total_seconds == pytest.approx(
        sum(recorder.select_samples)
    )


def test_recorder_observes_exactly_one_run():
    txns = [make_txn(1, arrival=0.0, length=1.0)]
    recorder = Recorder()
    Simulator(txns, EDF(), instrument=recorder).run()
    txns[0].reset()
    with pytest.raises(ObservabilityError):
        Simulator(txns, EDF(), instrument=recorder).run()


def test_report_requires_a_run():
    with pytest.raises(ObservabilityError):
        Recorder().report()


def test_overhead_paid_recorded(tmp_path):
    txns = [
        make_txn(1, arrival=0.0, length=2.0, deadline=50.0),
        make_txn(2, arrival=0.0, length=2.0, deadline=60.0),
    ]
    recorder = Recorder()
    Simulator(
        txns, EDF(), preemption_overhead=0.25, instrument=recorder
    ).run()
    report = recorder.report()
    assert report.overhead_paid == pytest.approx(0.5)  # two cold starts


CHAOS = parse_fault_spec(
    "seed=3,abort_prob=0.1,max_retries=2,stall_prob=0.1,stall_max=1.0,"
    "crash_count=1"
)


def _policy_spec(name, time_rate=50.0):
    if name == "balance-aware":
        return PolicySpec.of(name, time_rate=time_rate)
    return PolicySpec.of(name)


@pytest.mark.parametrize("name", available_policies())
@pytest.mark.parametrize("faulted", [False, True], ids=["clean", "chaos"])
def test_report_equals_streaming_report(name, faulted):
    """Every field the two reports share is equal; only the ``select()``
    wall-times differ between two runs, so they are left out."""
    workload = generate(
        WorkloadSpec(
            n_transactions=150,
            utilization=1.0,
            weighted=True,
            with_workflows=True,
        ),
        seed=19,
    )
    faults = CHAOS if faulted else None
    recorder, streaming = Recorder(), StreamingRecorder()
    run_policy_on(workload, _policy_spec(name), instrument=recorder, faults=faults)
    run_policy_on(
        workload, _policy_spec(name), instrument=streaming, faults=faults
    )
    a = recorder.report().as_dict()
    b = streaming.report().as_dict()
    assert a.keys() == b.keys()
    for key in a:
        if "select" not in key:
            assert a[key] == b[key], (name, key)


def test_telemetry_total_is_the_left_to_right_sum_of_the_log():
    """The report's ``total_tardiness`` is the result's, bit for bit: one
    tally per run.  The log's ``completion.tardiness`` values, added in
    log (completion) order, are what the timeline accrues; that sum runs
    in another order than the summary's ``txn_id`` fold, so it agrees
    with the total only to the last ulps."""
    workload = generate(
        WorkloadSpec(
            n_transactions=2000,
            utilization=1.0,
            weighted=True,
            with_workflows=True,
        ),
        seed=4,
    )
    recorder = Recorder()
    result = run_policy_on(
        workload, PolicySpec.of("asets-star"), instrument=recorder
    )
    total = 0.0
    for event in recorder.events:
        if event["kind"] == "completion":
            total += event["tardiness"]
    assert recorder.report().total_tardiness == result.total_tardiness
    assert recorder.timeline.running_tardiness()[-1] == total
    assert total == pytest.approx(result.total_tardiness, rel=1e-12)


#: The ``chaos`` target's default plan, plus admission control.
CHAOS_SHED = parse_fault_spec(
    "abort_prob=0.1,max_retries=2,stall_prob=0.1,stall_max=1.0,"
    "crash_count=1,backlog_limit=20"
)


def _identity_workload():
    return generate(
        WorkloadSpec(
            n_transactions=200,
            utilization=1.0,
            weighted=True,
            with_workflows=True,
        ),
        seed=7,
    )


@pytest.mark.parametrize("buffered", [True, False], ids=["buffered", "streaming"])
@pytest.mark.parametrize("faulted", [False, True], ids=["clean", "chaos"])
@pytest.mark.parametrize("name", available_policies())
def test_report_total_tardiness_is_the_results(name, faulted, buffered):
    """Report and result read one summary: totals agree bit for bit."""
    recorder = Recorder() if buffered else StreamingRecorder()
    result = run_policy_on(
        _identity_workload(),
        _policy_spec(name, time_rate=5.0),
        instrument=recorder,
        faults=CHAOS_SHED if faulted else None,
    )
    report = recorder.report()
    assert report.total_tardiness == result.total_tardiness
    assert report.miss_ratio == result.deadline_miss_ratio
    assert report.makespan == result.makespan


@pytest.mark.parametrize("buffered", [True, False], ids=["buffered", "streaming"])
@pytest.mark.parametrize("faulted", [False, True], ids=["clean", "chaos"])
@pytest.mark.parametrize("name", available_policies())
def test_resumed_report_total_tardiness_is_the_results(
    name, faulted, buffered, tmp_path
):
    """A resumed run's report totals the whole run, not its tail."""
    workload = _identity_workload()
    faults = CHAOS_SHED if faulted else None
    spec = _policy_spec(name, time_rate=5.0)
    golden = run_policy_on(workload, spec, faults=faults)
    observed = Recorder() if buffered else StreamingRecorder()
    run_policy_on(
        workload,
        spec,
        instrument=observed,
        faults=faults,
        checkpoint_every=150,
        checkpointer=Checkpointer(
            tmp_path / "run.ckpt", instrument=observed, max_saves=1
        ),
    )
    checkpoint = load_checkpoint(tmp_path / "run.ckpt")
    resumed = checkpoint.restore_instrument()
    result = Simulator.resume_from(checkpoint, instrument=resumed).run()
    assert result.total_tardiness == golden.total_tardiness
    assert resumed.report().total_tardiness == golden.total_tardiness


def test_checkpointed_recorder_resumes_its_log(tmp_path):
    """A Recorder rides in a checkpoint as state, events included; the
    resumed run finishes the same log an uninterrupted run writes."""
    workload = generate(
        WorkloadSpec(n_transactions=120, utilization=0.9), seed=5
    )
    golden = Recorder()
    run_policy_on(workload, PolicySpec.of("asets"), instrument=golden)

    observed = Recorder()
    checkpointer = Checkpointer(
        tmp_path / "run.ckpt", instrument=observed, max_saves=1
    )
    run_policy_on(
        workload,
        PolicySpec.of("asets"),
        instrument=observed,
        checkpoint_every=40,
        checkpointer=checkpointer,
    )
    checkpoint = load_checkpoint(tmp_path / "run.ckpt")
    resumed = checkpoint.restore_instrument()
    assert isinstance(resumed, Recorder)
    assert 0 < len(resumed.events) < len(golden.events)
    Simulator.resume_from(checkpoint, instrument=resumed).run()

    def strip(events):
        return [{k: v for k, v in e.items() if k != "select_s"} for e in events]

    assert strip(resumed.events) == strip(golden.events)
    a, b = resumed.report().as_dict(), golden.report().as_dict()
    assert {k: v for k, v in a.items() if "select" not in k} == {
        k: v for k, v in b.items() if "select" not in k
    }
