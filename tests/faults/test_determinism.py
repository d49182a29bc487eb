"""Fault-injection determinism and the fault-free byte-identity contract.

Two guarantees are pinned here:

* **Byte identity without faults** — a run with no ``FaultSpec`` emits
  exactly the event stream recorded before :mod:`repro.faults` existed
  (``golden_seed_run.jsonl``), modulo the wall-clock ``select_s`` field,
  and its :class:`SimulationResult` differs only in the new zero-valued
  fault counters.
* **Replayable adversity** — the same ``FaultSpec`` seed produces the
  identical fault schedule and the identical event stream across
  repeated runs, across worker counts, and the abort/retry pressure is
  policy-independent (faults live in served-time space).
"""

import json
import pathlib

from repro.experiments.config import PolicySpec
from repro.experiments.runner import run_policy_on, utilization_sweep
from repro.experiments.config import ExperimentConfig
from repro.faults import FaultSpec, plan_faults
from repro.obs import Recorder
from repro.workload.generator import generate
from repro.workload.spec import WorkloadSpec
from tests.parallel.sweep_oracle import oracle_sweep
from tests.policies.asets_star_oracle import SCAN

GOLDEN = pathlib.Path(__file__).parent / "golden_seed_run.jsonl"

SPEC = WorkloadSpec(n_transactions=60, utilization=0.9)
FAULTS = FaultSpec(seed=3, abort_prob=0.2, stall_prob=0.1, crash_count=1)
STAR = PolicySpec.of("asets-star")


def norm(events):
    """Canonical JSON per event with the wall-clock field removed.

    ``select_s`` (scheduling-point wall time) is the one legitimately
    nondeterministic field of the schema; everything else must match to
    the byte.
    """
    out = []
    for event in events:
        event = dict(event)
        event.pop("select_s", None)
        out.append(json.dumps(event, sort_keys=True))
    return out


def record_run(faults=None, policy="asets", seed=11):
    workload = generate(SPEC, seed=seed)
    recorder = Recorder()
    result = run_policy_on(
        workload, PolicySpec.of(policy), instrument=recorder, faults=faults
    )
    return result, recorder.events


class TestFaultFreeByteIdentity:
    def test_event_stream_matches_golden_fixture(self):
        _, events = record_run(faults=None)
        golden = [
            json.loads(line)
            for line in GOLDEN.read_text().splitlines()
            if line.strip()
        ]
        assert norm(events) == norm(golden)

    def test_null_spec_is_byte_identical_to_no_spec(self):
        _, bare = record_run(faults=None)
        _, null = record_run(faults=FaultSpec())
        assert norm(bare) == norm(null)

    def test_new_result_counters_are_zero_without_faults(self):
        result, _ = record_run(faults=None)
        assert result.aborted_count == 0
        assert result.shed_count == 0
        assert result.total_retries == 0


class TestFaultDeterminism:
    def test_same_spec_same_events_across_runs(self):
        _, first = record_run(faults=FAULTS)
        _, second = record_run(faults=FAULTS)
        assert norm(first) == norm(second)

    def test_same_spec_same_plan(self):
        workload = generate(SPEC, seed=11)
        assert plan_faults(FAULTS, workload.transactions) == plan_faults(
            FAULTS, workload.transactions
        )

    def test_fault_pressure_is_policy_independent(self):
        # Faults trigger at served-time offsets, so every policy absorbs
        # the same aborts/retries on the same workload.
        results = [
            record_run(faults=FAULTS, policy=name)[0]
            for name in ("edf", "srpt", "asets", "fcfs")
        ]
        assert len({r.total_retries for r in results}) == 1
        assert len({r.aborted_count for r in results}) == 1

    def test_sweep_identical_across_jobs(self):
        config = ExperimentConfig().scaled(40, 2)
        policies = (PolicySpec.of("edf", "EDF"), PolicySpec.of("asets", "ASETS"))
        reference, _ = oracle_sweep(
            SPEC, policies, "average_tardiness", 40, config.seeds, (0.5, 0.9),
            faults=FAULTS,
        )
        for jobs in (1, 2):
            series = utilization_sweep(
                SPEC, policies, "average_tardiness", config, jobs=jobs,
                utilizations=(0.5, 0.9), fault_spec=FAULTS,
            )
            assert repr(series.as_rows()) == repr(reference)


class TestSelectImplementationIdentity:
    """ASETS* incremental heaps vs the reference rescan oracle.

    The incremental select path is an optimisation, not a policy change:
    on the golden workload its event stream must be byte-identical to
    the oracle's full rescan — with and without fault pressure.
    """

    @staticmethod
    def _star_stream(spec, faults=None):
        workload = generate(SPEC, seed=11)
        recorder = Recorder()
        run_policy_on(workload, spec, instrument=recorder, faults=faults)
        return norm(recorder.events)

    def test_byte_identical_without_faults(self):
        assert self._star_stream(STAR) == self._star_stream(SCAN)

    def test_byte_identical_under_faults(self):
        assert self._star_stream(STAR, FAULTS) == self._star_stream(
            SCAN, FAULTS
        )
