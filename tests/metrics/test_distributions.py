"""Unit tests for percentiles, histograms and the Gini coefficient."""

import pytest

from repro.errors import SimulationError
from repro.experiments.config import PolicySpec
from repro.experiments.runner import run_policy_on
from repro.faults import parse_fault_spec
from repro.metrics.distributions import (
    gini,
    percentile,
    tardiness_histogram,
    tardiness_percentile,
    weighted_tardiness_percentile,
)
from repro.sim.results import StreamSummary, TransactionRecord
from repro.workload.generator import generate
from repro.workload.spec import WorkloadSpec


def rec(finish, deadline, weight=1.0, outcome="completed"):
    return TransactionRecord(
        1, 0.0, 1.0, deadline, weight, finish, 0.0, 0, outcome
    )


class TestPercentile:
    def test_extremes(self):
        data = [3.0, 1.0, 2.0]
        assert percentile(data, 0) == 1.0
        assert percentile(data, 100) == 3.0

    def test_median(self):
        assert percentile([1.0, 2.0, 3.0, 4.0], 50) == 2.5

    def test_linear_interpolation(self):
        # numpy.percentile([0, 10], 25) == 2.5.
        assert percentile([0.0, 10.0], 25) == pytest.approx(2.5)

    def test_single_value(self):
        assert percentile([7.0], 95) == 7.0

    def test_validation(self):
        with pytest.raises(SimulationError):
            percentile([], 50)
        with pytest.raises(SimulationError):
            percentile([1.0], 101)

    def test_matches_numpy(self):
        numpy = pytest.importorskip("numpy")
        data = [5.0, 1.5, 9.0, 2.25, 7.125, 0.0]
        for q in (0, 10, 37.5, 50, 90, 99, 100):
            assert percentile(data, q) == pytest.approx(
                float(numpy.percentile(data, q))
            )


class TestTardinessPercentiles:
    def test_tardiness_percentile(self):
        recs = [rec(finish=f, deadline=5.0) for f in (4.0, 6.0, 8.0)]
        # tardiness values: 0, 1, 3.
        assert tardiness_percentile(recs, 100) == 3.0
        assert tardiness_percentile(recs, 50) == 1.0

    def test_weighted_percentile(self):
        recs = [rec(6.0, 5.0, weight=10.0), rec(8.0, 5.0, weight=1.0)]
        # weighted tardiness values: 10, 3.
        assert weighted_tardiness_percentile(recs, 100) == 10.0


class TestFaultedRecords:
    """Aborted and shed records are outcome counts, not tardiness
    samples: the distributions take completed work, as Definition 4's
    averages and the streaming sketch do."""

    def test_a_shed_record_counts_as_zero(self):
        # Zero tardiness mass, in the record and in the run's totals.
        recs = [rec(9.0, 5.0), rec(9.0, 5.0, outcome="shed")]
        assert recs[1].tardiness == recs[1].weighted_tardiness == 0.0
        summary = StreamSummary.from_records(recs)
        assert summary.total_tardiness == 4.0 and summary.completed == 1

    def test_a_shed_record_is_not_a_sample(self):
        recs = [rec(9.0, 5.0), rec(9.0, 5.0, outcome="shed")]
        assert tardiness_percentile(recs, 0) == 4.0
        assert weighted_tardiness_percentile(recs, 0) == 4.0
        assert tardiness_histogram(recs, [1.0]) == [0, 1]

    def test_distributions_agree_with_the_records_of_a_shedding_run(self):
        workload = generate(
            WorkloadSpec(n_transactions=1000, utilization=0.9), seed=1
        )
        result = run_policy_on(
            workload,
            PolicySpec.of("edf"),
            faults=parse_fault_spec("backlog_limit=20,shed_policy=feasibility"),
        )
        assert result.shed_count > 0
        records = result.records
        completed = [r for r in records if r.outcome == "completed"]
        assert len(completed) == result.completed_count < len(records)
        values = [r.tardiness for r in completed]
        weighted = [r.weighted_tardiness for r in completed]
        for q in (50, 90, 99):
            assert tardiness_percentile(records, q) == percentile(values, q)
            assert weighted_tardiness_percentile(records, q) == percentile(
                weighted, q
            )
        # The median of the completed population; counting the shed
        # records as zero samples would give 58.81.
        assert round(tardiness_percentile(records, 50), 2) == 60.73
        edges = [1.0, 50.0, 200.0]
        expected = [0] * (len(edges) + 1)
        for value in values:
            expected[sum(value >= edge for edge in edges)] += 1
        assert tardiness_histogram(records, edges) == expected


class TestHistogram:
    def test_binning(self):
        recs = [rec(finish=5.0 + t, deadline=5.0) for t in (0.0, 0.5, 1.5, 9.0)]
        counts = tardiness_histogram(recs, [1.0, 5.0])
        assert counts == [2, 1, 1]  # [<1, 1-5, >=5]

    def test_validation(self):
        with pytest.raises(SimulationError):
            tardiness_histogram([rec(5.0, 5.0)], [])
        with pytest.raises(SimulationError):
            tardiness_histogram([rec(5.0, 5.0)], [2.0, 1.0])


class TestGini:
    def test_uniform_is_zero(self):
        assert gini([4.0, 4.0, 4.0]) == pytest.approx(0.0)

    def test_concentrated_is_high(self):
        value = gini([0.0] * 9 + [100.0])
        assert value == pytest.approx(0.9)

    def test_all_zero(self):
        assert gini([0.0, 0.0]) == 0.0

    def test_validation(self):
        with pytest.raises(SimulationError):
            gini([])
        with pytest.raises(SimulationError):
            gini([-1.0])

    def test_scale_invariant(self):
        data = [1.0, 3.0, 8.0]
        assert gini(data) == pytest.approx(gini([10 * v for v in data]))
