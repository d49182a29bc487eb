"""Peak memory per transaction of generating and running a pool.

The pool is held once: generation builds dependency lists only for the
transactions that have dependencies, workflows keep no id-keyed copy of
their members, the event queue serves arrivals from a lane over the
pool's columns, and the engine's dependents map and the result's
columns hold nothing per transaction that is empty or copied.  These
guards bound the tracemalloc peak of each phase, per transaction, on
5,000 weighted workflow transactions under ASETS*.

Measured peaks, alike on CPython 3.11, 3.12 and 3.13: generation 927
bytes a transaction (1,312 with a dependency set for every transaction
and an id-keyed member copy per workflow); construct + run + result 360
bytes a transaction above the pool (462 with every arrival pushed up
front and an empty dependents list per transaction).  The bounds are
those measurements plus about 10%.
"""

import gc
import tracemalloc

import pytest

from repro.policies import ASETSStar
from repro.sim.engine import Simulator
from repro.workload.generator import generate
from repro.workload.spec import WorkloadSpec

N = 5000
SPEC = WorkloadSpec(
    n_transactions=N, utilization=0.9, weighted=True, with_workflows=True
)


@pytest.fixture(scope="module")
def peaks() -> tuple[float, float]:
    """(generation peak, construct + run + result peak above the pool),
    in bytes per transaction."""
    gc.collect()
    tracemalloc.start()
    try:
        workload = generate(SPEC, seed=1)
        generation = tracemalloc.get_traced_memory()[1]
        gc.collect()
        pool = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        result = Simulator(
            workload.transactions,
            ASETSStar(),
            workflow_set=workload.workflow_set,
        ).run()
        run = tracemalloc.get_traced_memory()[1] - pool
    finally:
        tracemalloc.stop()
    assert result.n == N
    return generation / N, run / N


def test_generation_peak_per_transaction(peaks):
    generation = peaks[0]
    assert generation <= 1020, f"{generation:.1f} B per transaction"


def test_construct_run_result_peak_per_transaction(peaks):
    run = peaks[1]
    assert run <= 395, f"{run:.1f} B per transaction"
