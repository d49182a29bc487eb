"""Tests for the non-preemptive wrapper."""

import pytest

from repro.experiments.config import PolicySpec
from repro.experiments.runner import run_policy_on
from repro.faults import parse_fault_spec
from repro.obs.profile import PhaseProfiler
from repro.policies import ASETS, EDF, NonPreemptive, SRPT, make_policy
from repro.sim.engine import Simulator
from repro.workload import WorkloadSpec, generate
from tests.conftest import first_execution_order, make_txn, run_segments


class TestBasics:
    def test_name_and_registry(self):
        assert NonPreemptive(SRPT()).name == "np-srpt"
        policy = make_policy("non-preemptive", inner="srpt")
        assert policy.name == "np-srpt"

    def test_inherits_workflow_requirement(self):
        assert make_policy("non-preemptive", inner="asets-star").requires_workflows
        assert not NonPreemptive(EDF()).requires_workflows


class TestPinning:
    def test_running_transaction_never_preempted(self):
        long = make_txn(1, arrival=0.0, length=10.0, deadline=100.0)
        short = make_txn(2, arrival=2.0, length=1.0, deadline=100.0)
        res = Simulator([long, short], NonPreemptive(SRPT())).run()
        # Plain SRPT would finish the short one at t=3; pinned SRPT must
        # run the long one to completion first.
        assert res.record_of(1).finish == 10.0
        assert res.record_of(1).preemptions == 0
        assert res.record_of(2).finish == 11.0

    def test_zero_preemptions_everywhere(self):
        w = generate(WorkloadSpec(n_transactions=120, utilization=0.9), seed=2)
        res = Simulator(w.transactions, NonPreemptive(ASETS())).run()
        assert all(r.preemptions == 0 for r in res.records)

    def test_decisions_at_completion_follow_inner(self):
        # At a completion boundary, the wrapper defers to the inner
        # policy: SRPT order among the queued transactions.
        txns = [
            make_txn(1, arrival=0.0, length=2.0, deadline=100.0),
            make_txn(2, arrival=0.5, length=5.0, deadline=100.0),
            make_txn(3, arrival=0.5, length=1.0, deadline=100.0),
        ]
        _, segments = run_segments(txns, NonPreemptive(SRPT()))
        assert first_execution_order(segments) == [1, 3, 2]

    def test_multiserver_pins_each_server(self):
        txns = [
            make_txn(1, arrival=0.0, length=6.0, deadline=100.0),
            make_txn(2, arrival=0.0, length=6.0, deadline=100.0),
            make_txn(3, arrival=1.0, length=1.0, deadline=2.5),
        ]
        res = Simulator(txns, NonPreemptive(EDF()), servers=2).run()
        # Both long transactions keep their servers; the urgent arrival
        # must wait despite its deadline.
        assert res.record_of(3).first_start == 6.0
        assert res.record_of(1).preemptions == 0
        assert res.record_of(2).preemptions == 0

    def test_preemption_usually_helps_srpt(self):
        w = generate(WorkloadSpec(n_transactions=300, utilization=0.9), seed=4)
        preemptive = Simulator(w.transactions, SRPT()).run()
        w.reset()
        pinned = Simulator(w.transactions, NonPreemptive(SRPT())).run()
        assert preemptive.average_tardiness < pinned.average_tardiness

    def test_completes_everything(self):
        w = generate(
            WorkloadSpec(
                n_transactions=80, utilization=1.0, with_workflows=True
            ),
            seed=5,
        )
        res = Simulator(
            w.transactions,
            make_policy("non-preemptive", inner="asets-star"),
            workflow_set=w.workflow_set,
        ).run()
        assert res.n == 80


class TestUnderFaults:
    """Aborts and stalls end or stretch a pin; they never hand the server
    to another transaction mid-run."""

    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("inner", ["edf", "srpt", "asets", "asets-star"])
    def test_aborts_and_stalls_make_no_preemption(self, inner, seed):
        workload = generate(WorkloadSpec(n_transactions=400), seed=seed)
        plan = parse_fault_spec(
            f"seed={seed},abort_prob=0.2,max_retries=2,stall_prob=0.2"
        )
        result = run_policy_on(
            workload, PolicySpec.of("non-preemptive", inner=inner), faults=plan
        )
        assert result.total_retries > 0
        assert result.total_preemptions == 0
        assert all(r.preemptions == 0 for r in result.records)

    def test_an_aborted_pin_is_released_and_forwarded(self):
        inner = EDF()
        policy = NonPreemptive(inner)
        t = make_txn(1)
        policy.bind([t], None)
        t.mark_ready()
        policy.on_arrival(t, 0.0)
        policy.on_ready(t, 0.0)
        assert policy.select(0.0) is t
        seen = []
        inner.on_fault = lambda txn, now: seen.append((txn, now))
        policy.on_fault(t, 1.0)
        assert policy._pinned == {}
        assert seen == [(t, 1.0)]

    def test_profiled_run_attributes_the_inner_stages(self):
        workload = generate(
            WorkloadSpec(n_transactions=60, with_workflows=True), seed=1
        )
        profiler = PhaseProfiler()
        run_policy_on(
            workload,
            PolicySpec.of("non-preemptive", inner="asets-star"),
            profiler=profiler,
        )
        assert "incremental" in profiler.snapshot().probes
