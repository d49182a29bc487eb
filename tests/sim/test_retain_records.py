"""Engine streaming mode: ``retain_records=False`` + ``StreamSummary``.

The aggregate surface of a streaming result must answer identically to
the exact record-backed result, while the per-transaction accessors —
whose data was never kept — must fail loudly with guidance rather than
silently return nothing.
"""

import pytest

from repro.errors import SimulationError
from repro.policies.asets_star import ASETSStar
from repro.sim.engine import Simulator
from repro.workload.generator import generate
from repro.workload.spec import WorkloadSpec

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
    "total_preemptions",
)


def _run(retain):
    workload = generate(
        WorkloadSpec(n_transactions=100, utilization=1.0, weighted=True),
        seed=31,
    )
    return Simulator(
        workload.transactions,
        ASETSStar(),
        workflow_set=workload.workflow_set,
        retain_records=retain,
    ).run()


@pytest.fixture(scope="module")
def both_modes():
    return _run(True), _run(False)


def test_streaming_result_keeps_no_records(both_modes):
    _, streamed = both_modes
    assert streamed.records == ()
    assert streamed.stream_summary is not None


def test_aggregates_equal_the_exact_run(both_modes):
    exact, streamed = both_modes
    assert len(exact.records) == exact.n
    assert exact.stream_summary == streamed.stream_summary
    for metric in AGGREGATES:
        a, b = getattr(exact, metric), getattr(streamed, metric)
        assert b == a, metric


def test_per_transaction_accessors_fail_with_guidance(both_modes):
    _, streamed = both_modes
    for call in (
        lambda: streamed.record_of(0),
        streamed.finish_order,
        streamed.tardy_records,
        streamed.tardiness_by_id,
    ):
        with pytest.raises(SimulationError, match="retain_records=False"):
            call()


def test_exact_run_accessors_still_work(both_modes):
    exact, _ = both_modes
    assert exact.record_of(0).txn_id == 0
    assert len(exact.finish_order()) == exact.completed_count


#: ``repr`` of the three averages of ASETS* on 200 weighted workflow
#: transactions (U=1.0, seed 2), taken from the streaming path's
#: left-to-right sums.  Python 3.12's compensated float ``sum()`` gives
#: different last bits for all three on this run, so both retention
#: modes must add through the one summary, never through ``sum()``.
PINNED = {
    "average_tardiness": "60.44892545432527",
    "average_weighted_tardiness": "272.43507118821833",
    "average_response_time": "99.78012421819962",
}


@pytest.mark.parametrize("retain", [True, False], ids=["records", "streaming"])
def test_averages_are_pinned_across_python_versions(retain):
    workload = generate(
        WorkloadSpec(
            n_transactions=200,
            utilization=1.0,
            weighted=True,
            with_workflows=True,
        ),
        seed=2,
    )
    result = Simulator(
        workload.transactions,
        ASETSStar(),
        workflow_set=workload.workflow_set,
        retain_records=retain,
    ).run()
    for metric, literal in PINNED.items():
        assert repr(getattr(result, metric)) == literal, metric
