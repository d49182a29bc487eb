"""Unit tests for length-estimate noise and the believed-remaining channel."""

import random

import pytest

from repro.core.transaction import Transaction
from repro.errors import InvalidTransactionError, WorkloadError
from repro.policies import ASETS, SRPT
from repro.policies.ordering import latest_start, slack
from repro.sim.engine import Simulator
from repro.workload.estimates import sample_estimates
from repro.workload.generator import generate
from repro.workload.spec import WorkloadSpec
from tests.conftest import first_execution_order, run_segments


class TestSampleEstimates:
    def test_zero_error_is_identity(self):
        lengths = [1.0, 5.5, 30.0]
        assert sample_estimates(random.Random(0), lengths, 0.0) == lengths

    def test_error_bounds_respected(self):
        lengths = [10.0] * 500
        estimates = sample_estimates(random.Random(1), lengths, 0.5)
        assert all(5.0 <= e <= 15.0 for e in estimates)

    def test_floor_keeps_estimates_positive(self):
        lengths = [10.0] * 500
        estimates = sample_estimates(random.Random(2), lengths, 2.0)
        assert all(e >= 0.5 for e in estimates)

    def test_negative_error_rejected(self):
        with pytest.raises(WorkloadError):
            sample_estimates(random.Random(0), [1.0], -0.1)


class TestTransactionBelief:
    def test_default_estimate_equals_length(self):
        t = Transaction(1, arrival=0, length=5.0, deadline=20.0)
        assert t.length_estimate == 5.0
        assert t.scheduling_remaining == 5.0

    def test_invalid_estimate_rejected(self):
        with pytest.raises(InvalidTransactionError):
            Transaction(1, arrival=0, length=5.0, deadline=20.0,
                        length_estimate=0.0)
        with pytest.raises(InvalidTransactionError):
            Transaction(1, arrival=0, length=5.0, deadline=20.0,
                        length_estimate=float("inf"))

    def test_belief_charged_alongside_truth(self):
        t = Transaction(1, arrival=0, length=5.0, deadline=20.0,
                        length_estimate=3.0)
        t.mark_ready()
        t.mark_running(0.0)
        t.charge(2.0)
        assert t.remaining == 3.0
        assert t.scheduling_remaining == 1.0

    def test_underestimated_belief_floors_positive(self):
        # An under-estimate runs out of believed time before real time.
        t = Transaction(1, arrival=0, length=5.0, deadline=20.0,
                        length_estimate=1.0)
        t.mark_ready()
        t.mark_running(0.0)
        t.charge(3.0)
        assert t.remaining == 2.0
        assert 0 < t.scheduling_remaining <= 1e-6

    def test_completion_zeroes_belief(self):
        t = Transaction(1, arrival=0, length=2.0, deadline=20.0,
                        length_estimate=9.0)
        t.mark_ready()
        t.mark_running(0.0)
        t.charge(2.0)
        t.mark_completed(2.0)
        assert t.scheduling_remaining == 0.0

    def test_reset_restores_estimate(self):
        t = Transaction(1, arrival=0, length=5.0, deadline=20.0,
                        length_estimate=3.0)
        t.mark_ready()
        t.mark_running(0.0)
        t.charge(1.0)
        t.reset()
        assert t.scheduling_remaining == 3.0

    def test_slack_uses_belief(self):
        t = Transaction(1, arrival=0, length=5.0, deadline=20.0,
                        length_estimate=3.0)
        d, r = t.deadline, t.scheduling_remaining
        assert slack(d, r, now=0.0) == 17.0  # 20 - (0 + 3), not 15
        assert latest_start(d, r) == 17.0


class TestSchedulingWithEstimates:
    def test_srpt_follows_believed_order(self):
        # True lengths say run t1 first; estimates say t2.  SRPT must
        # follow the estimates (it cannot see the truth).
        t1 = Transaction(1, arrival=0.0, length=2.0, deadline=100.0,
                         length_estimate=9.0)
        t2 = Transaction(2, arrival=0.0, length=5.0, deadline=100.0,
                         length_estimate=1.0)
        _, segments = run_segments([t1, t2], SRPT())
        assert first_execution_order(segments) == [2, 1]

    def test_engine_completes_on_truth_not_belief(self):
        t = Transaction(1, arrival=0.0, length=5.0, deadline=100.0,
                        length_estimate=1.0)
        res = Simulator([t], SRPT()).run()
        assert res.record_of(1).finish == 5.0

    def test_generator_injects_noise(self):
        spec = WorkloadSpec(n_transactions=100, length_estimate_error=0.5)
        w = generate(spec, seed=1)
        diffs = [
            t.length_estimate != t.length for t in w.transactions
        ]
        assert any(diffs)
        for t in w.transactions:
            assert t.length_estimate >= 0.05 * t.length

    def test_noise_does_not_change_truth(self):
        clean = generate(WorkloadSpec(n_transactions=50), seed=9)
        noisy = generate(
            WorkloadSpec(n_transactions=50, length_estimate_error=0.8), seed=9
        )
        for a, b in zip(clean.transactions, noisy.transactions):
            assert a.length == b.length
            assert a.arrival == b.arrival
            assert a.deadline == b.deadline

    def test_spec_validation(self):
        with pytest.raises(WorkloadError):
            WorkloadSpec(length_estimate_error=-0.1)

    def test_asets_completes_under_heavy_noise(self):
        spec = WorkloadSpec(
            n_transactions=120, utilization=0.9, length_estimate_error=1.0
        )
        w = generate(spec, seed=3)
        res = Simulator(w.transactions, ASETS()).run()
        assert res.n == 120
