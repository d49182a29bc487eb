"""The engine's ready count against a full scan of the pool.

The engine keeps its ready set incrementally, and a re-selected
incumbent never enters it.  These checks recount READY transactions by
scanning every transaction's ``state`` at each scheduling point, with
no help from the engine's own bookkeeping.
"""

import pytest

from repro.core.transaction import TransactionState
from repro.experiments.config import PolicySpec
from repro.faults import parse_fault_spec, plan_faults
from repro.obs.hooks import Instrument
from repro.obs.profile import PhaseProfiler
from repro.policies.registry import available_policies
from repro.sim.engine import Simulator
from repro.workload.generator import generate
from repro.workload.spec import WorkloadSpec

#: The CLI ``chaos`` target's default fault plan.
CHAOS = "abort_prob=0.1,max_retries=2,stall_prob=0.1,stall_max=1.0,crash_count=1"

FAULTS = {
    "clean": None,
    "chaos": parse_fault_spec(CHAOS),
    # The chaos plan never sheds on its own; a backlog limit adds it.
    "chaos-shed": parse_fault_spec(CHAOS + ",backlog_limit=2"),
}


def _ready_scan(pool):
    return sum(1 for txn in pool if txn.state is TransactionState.READY)


class ReadyOracle(Instrument):
    """Asserts the reported backlog equals a scan for READY."""

    def __init__(self, pool):
        self.pool = pool
        self.points = 0

    def on_scheduling_point(self, now, ready, running, select_seconds):
        assert ready == _ready_scan(self.pool), now
        assert running == sum(
            1 for txn in self.pool if txn.state is TransactionState.RUNNING
        )
        self.points += 1


class DepthOracle(PhaseProfiler):
    """Asserts every ``select`` starts at the scanned READY depth.

    At a select the incumbents are suspended, so they count as READY.
    """

    def __init__(self, pool):
        super().__init__(calibrate=False)
        self.pool = pool
        self.selects = 0

    def select_begin(self, ready_depth):
        assert ready_depth == _ready_scan(self.pool)
        self.selects += 1
        super().select_begin(ready_depth)


@pytest.fixture(scope="module")
def workload():
    spec = WorkloadSpec(
        n_transactions=300, utilization=1.0, weighted=True, with_workflows=True
    )
    return generate(spec, seed=11)


@pytest.mark.parametrize("mode", sorted(FAULTS))
@pytest.mark.parametrize("servers", [1, 2])
@pytest.mark.parametrize("name", available_policies())
def test_ready_count_matches_a_pool_scan(workload, name, servers, mode):
    kwargs = {"time_rate": 0.5} if name == "balance-aware" else {}
    pool = workload.transactions
    workload.reset()
    faults = FAULTS[mode]
    plan = plan_faults(faults, pool) if faults is not None else None
    oracle, depths = ReadyOracle(pool), DepthOracle(pool)
    result = Simulator(
        pool,
        PolicySpec.of(name, **kwargs).make(),
        workflow_set=workload.workflow_set,
        servers=servers,
        instrument=oracle,
        profiler=depths,
        faults=plan,
    ).run()
    assert oracle.points == result.scheduling_points
    assert depths.selects > 0
    if mode == "chaos-shed":
        assert result.shed_count > 0
