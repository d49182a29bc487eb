"""repro — a full reproduction of *Adaptive Scheduling of Web Transactions*
(Guirguis, Sharaf, Chrysanthis, Labrinidis, Pruhs — ICDE 2009).

The package provides:

* the **ASETS\\*** adaptive scheduling policy and every baseline the paper
  compares against (:mod:`repro.policies`),
* the transaction/workflow model (:mod:`repro.core`),
* a discrete-event RTDBMS simulator and its per-run tardiness metrics
  (:mod:`repro.sim`),
* the synthetic workload generator of Table I (:mod:`repro.workload`),
* multi-run aggregation, tardiness distributions and reports
  (:mod:`repro.metrics`),
* engine observability — instrumentation hooks, metrics registry, JSONL
  event logs, run reports (:mod:`repro.obs`),
* a simulated web-database substrate — in-memory store, content
  fragments, dynamic pages, SLAs (:mod:`repro.webdb`), and
* an experiment harness regenerating every figure and table of the
  paper's evaluation (:mod:`repro.experiments`).

Quickstart::

    from repro import WorkloadSpec, generate, Simulator, make_policy

    workload = generate(WorkloadSpec(utilization=0.7), seed=42)
    result = Simulator(workload.transactions, make_policy("asets")).run()
    print(result.average_tardiness)
"""

from repro._version import __version__
from repro.core import Transaction, TransactionState, Workflow, WorkflowSet
from repro.errors import ReproError
from repro.policies import (
    ASETS,
    ASETSStar,
    BalanceAware,
    EDF,
    FCFS,
    HDF,
    HVF,
    LeastSlack,
    MIX,
    Ready,
    SRPT,
    Scheduler,
    available_policies,
    make_policy,
)
from repro.obs import Instrument, MultiInstrument, NullInstrument, Recorder, RunReport
from repro.sim import SimulationResult, Simulator, TransactionRecord
from repro.workload import Workload, WorkloadSpec, generate

__all__ = [
    "__version__",
    "ReproError",
    "Transaction",
    "TransactionState",
    "Workflow",
    "WorkflowSet",
    "Scheduler",
    "FCFS",
    "EDF",
    "SRPT",
    "LeastSlack",
    "HDF",
    "HVF",
    "MIX",
    "ASETS",
    "Ready",
    "ASETSStar",
    "BalanceAware",
    "make_policy",
    "available_policies",
    "Simulator",
    "SimulationResult",
    "TransactionRecord",
    "Instrument",
    "NullInstrument",
    "MultiInstrument",
    "Recorder",
    "RunReport",
    "Workload",
    "WorkloadSpec",
    "generate",
]
