"""Independent reference for seed-averaged utilization sweeps.

Per utilization: one workload per seed; per policy: a fresh
:class:`~repro.sim.engine.Simulator` over each workload, seeds averaged
in seed order.  Nothing here comes from :mod:`repro.experiments`, so the
grid sweep and its executor are checked against code they do not share.
"""

import dataclasses
import math

from repro.faults import plan_faults
from repro.sim.engine import Simulator
from repro.workload.generator import generate


def oracle_sweep(spec, policies, metric, n, seeds, utilizations, faults=None):
    """``(rows, failures)``: rows laid out like ``MetricSeries.as_rows()``,
    failures as sorted ``(x, seed, policy display)`` of cells that raised."""
    means = {policy.display: [] for policy in policies}
    failures = []
    for util in utilizations:
        column = dataclasses.replace(spec, utilization=util, n_transactions=n)
        workloads = [generate(column, seed) for seed in seeds]
        for policy in policies:
            values = []
            for seed, workload in zip(seeds, workloads):
                workload.reset()
                plan = None
                if faults is not None and not faults.is_null:
                    plan = plan_faults(faults, workload.transactions)
                try:
                    result = Simulator(
                        workload.transactions,
                        policy.make(),
                        workflow_set=workload.workflow_set,
                        faults=plan,
                    ).run()
                except Exception:
                    failures.append((util, seed, policy.display))
                    continue
                values.append(getattr(result, metric))
            average = sum(values) / len(values) if values else math.nan
            means[policy.display].append(average)
    rows = [
        [x] + [column[i] for column in means.values()]
        for i, x in enumerate(utilizations)
    ]
    return rows, sorted(failures)
