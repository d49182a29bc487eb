"""The checkpoint/resume identity contract, over the full policy matrix.

For every registry policy, with and without fault injection, in both
the buffered and the streaming engine modes:

* a run that checkpoints is **identical** to one that never does
  (checkpointing is observation-only);
* a run killed after a checkpoint and resumed from it produces the
  identical result, event log (modulo the wall-clock ``select_s``
  field — the one nondeterministic value, exactly as the golden-log
  determinism tests treat it) and telemetry as an uninterrupted run.

The "kill" is simulated deterministically: the checkpointer is capped
at ``max_saves=1`` to pin the resume point (the later-save matrix
resumes from the last of several saves instead), the finished log is cut
back past the snapshot with a torn tail appended (what a SIGKILL
leaves behind), and the run is resumed from the file.  The real-signal
version of this harness lives in ``test_kill_recover.py``.
"""

import json

import pytest

from repro.ckpt import Checkpointer, load_checkpoint, restore_writer
from repro.experiments.config import PolicySpec
from repro.experiments.runner import generate_workloads, run_policy_on
from repro.faults import parse_fault_spec, plan_faults
from repro.obs.jsonl import JsonlWriter
from repro.obs.streaming import StreamingRecorder
from repro.policies.registry import available_policies
from repro.sim.engine import Simulator
from repro.workload.spec import WorkloadSpec

SPEC = WorkloadSpec(n_transactions=120, utilization=0.9)
SEED = 5
EVERY = 40
FAULTS = parse_fault_spec(
    "abort_prob=0.1,stall_prob=0.1,stall_max=1.0,crash_count=1,max_retries=2"
)


def _spec_of(name):
    if name == "balance-aware":
        return PolicySpec.of(name, time_rate=50.0)
    return PolicySpec.of(name)


def _norm_log(path):
    """Parsed events with the wall-clock ``select_s`` field dropped."""
    out = []
    for line in path.read_text().splitlines():
        event = json.loads(line)
        event.pop("select_s", None)
        out.append(event)
    return out


def _norm_report(recorder):
    """Report rows minus the wall-clock select-latency entries."""
    return {
        k: v for k, v in recorder.report().as_dict().items() if "select" not in k
    }


def _workload():
    return generate_workloads(SPEC, [SEED])[0]


@pytest.mark.parametrize("name", available_policies())
@pytest.mark.parametrize("faulted", [False, True], ids=["clean", "faults"])
class TestIdentityMatrix:
    def test_buffered_checkpoint_and_resume(self, name, faulted, tmp_path):
        policy = _spec_of(name)
        faults = FAULTS if faulted else None
        workload = _workload()
        golden = run_policy_on(workload, policy, faults=faults)

        ckpt = Checkpointer(tmp_path / "run.ckpt", max_saves=1)
        observed = run_policy_on(
            workload,
            policy,
            faults=faults,
            checkpoint_every=EVERY,
            checkpointer=ckpt,
        )
        assert observed.records == golden.records
        assert observed.average_tardiness == golden.average_tardiness
        assert ckpt.saves == 1

        resumed = Simulator.resume_from(
            load_checkpoint(tmp_path / "run.ckpt")
        ).run()
        assert resumed.records == golden.records
        assert resumed.average_tardiness == golden.average_tardiness
        assert resumed.completed_count == golden.completed_count
        assert resumed.aborted_count == golden.aborted_count

    def test_streaming_kill_and_resume(self, name, faulted, tmp_path):
        policy = _spec_of(name)
        faults = FAULTS if faulted else None
        workload = _workload()

        def run(log, checkpointer=None, every=None):
            workload.reset()
            plan = (
                plan_faults(faults, workload.transactions) if faults else None
            )
            sink = JsonlWriter(log)
            recorder = StreamingRecorder(window=40.0, sink=sink)
            if checkpointer is not None:
                checkpointer.instrument = recorder
                checkpointer.writer = sink
            result = Simulator(
                workload.transactions,
                policy.make(),
                workflow_set=workload.workflow_set,
                instrument=recorder,
                faults=plan,
                retain_records=False,
                checkpoint_every=every,
                checkpointer=checkpointer,
            ).run()
            sink.close()
            return result, recorder

        golden_log = tmp_path / "golden.jsonl"
        golden_result, golden_recorder = run(golden_log)

        ckpt = Checkpointer(tmp_path / "run.ckpt", max_saves=1)
        killed_log = tmp_path / "killed.jsonl"
        observed_result, _ = run(killed_log, checkpointer=ckpt, every=EVERY)
        assert _norm_log(killed_log) == _norm_log(golden_log)
        assert observed_result.average_tardiness == golden_result.average_tardiness

        # Simulate the kill: cut the log a few records past the snapshot
        # and leave a torn line, then resume from the checkpoint.
        checkpoint = load_checkpoint(tmp_path / "run.ckpt")
        records = checkpoint.writer_state["records"]
        lines = killed_log.read_bytes().splitlines(keepends=True)
        killed_log.write_bytes(
            b"".join(lines[: min(records + 3, len(lines))]) + b'{"torn'
        )

        writer = restore_writer(checkpoint.writer_state)
        recorder = checkpoint.restore_instrument(sink=writer)
        resumed_result = Simulator.resume_from(
            checkpoint, instrument=recorder
        ).run()
        writer.close()

        assert _norm_log(killed_log) == _norm_log(golden_log)
        assert resumed_result.average_tardiness == golden_result.average_tardiness
        assert resumed_result.completed_count == golden_result.completed_count
        assert _norm_report(recorder) == _norm_report(golden_recorder)


#: Workloads for the later-save matrix: the identity workload, and a
#: weighted workflow pool whose length estimates are off by up to 40%
#: (so ``length_estimate`` and ``scheduling_remaining`` differ from the
#: true length and remaining time).
LATER_SPECS = {
    "plain": SPEC,
    "estimates": WorkloadSpec(
        n_transactions=120,
        utilization=0.9,
        weighted=True,
        with_workflows=True,
        length_estimate_error=0.4,
    ),
}

#: Aborts with retries: a retried transaction's deadline moves past its
#: submitted deadline, so the two must come back from the checkpoint
#: apart.
RETRY_FAULTS = parse_fault_spec("abort_prob=0.25,max_retries=2,stall_prob=0.1")


@pytest.mark.parametrize("name", available_policies())
@pytest.mark.parametrize("faulted", [False, True], ids=["clean", "faults"])
@pytest.mark.parametrize("spec", sorted(LATER_SPECS))
def test_resume_from_a_later_save(name, faulted, spec, tmp_path):
    """Resuming from the last of several saves, each written with the
    pool section the first save built, finishes as the uninterrupted run."""
    policy = _spec_of(name)
    faults = RETRY_FAULTS if faulted else None
    workload = generate_workloads(LATER_SPECS[spec], [SEED])[0]
    golden = run_policy_on(workload, policy, faults=faults)

    ckpt = Checkpointer(tmp_path / "run.ckpt")
    observed = run_policy_on(
        workload,
        policy,
        faults=faults,
        checkpoint_every=EVERY,
        checkpointer=ckpt,
    )
    assert observed.records == golden.records
    assert ckpt.saves >= 3

    checkpoint = load_checkpoint(tmp_path / "run.ckpt")
    txns = checkpoint.core["_txns"].values()
    assert checkpoint.events_processed >= (ckpt.saves - 1) * EVERY
    if faulted:
        assert any(t.deadline != t.submitted_deadline for t in txns)
    if spec == "estimates":
        assert any(t.length_estimate != t.length for t in txns)
    resumed = Simulator.resume_from(checkpoint).run()
    assert resumed.records == golden.records
    assert resumed.scheduling_points == golden.scheduling_points
    assert resumed.summary() == golden.summary()


class TestCheckpointIsObservationOnly:
    def test_requires_both_parameters(self):
        workload = _workload()
        with pytest.raises(Exception, match="together"):
            Simulator(workload.transactions, _spec_of("edf").make(),
                      checkpoint_every=10)

    def test_rejects_profiler_combination(self, tmp_path):
        from repro.errors import SimulationError
        from repro.obs.profile import PhaseProfiler

        workload = _workload()
        with pytest.raises(SimulationError, match="profiler"):
            Simulator(
                workload.transactions,
                _spec_of("edf").make(),
                profiler=PhaseProfiler(),
                checkpoint_every=10,
                checkpointer=Checkpointer(tmp_path / "x.ckpt"),
            )

    def test_resumed_run_can_checkpoint_again(self, tmp_path):
        """A resumed run keeps checkpointing and can itself be resumed."""
        workload = _workload()
        golden = run_policy_on(workload, _spec_of("asets-star"))

        first = Checkpointer(tmp_path / "a.ckpt", max_saves=1)
        run_policy_on(
            workload,
            _spec_of("asets-star"),
            checkpoint_every=30,
            checkpointer=first,
        )
        second = Checkpointer(tmp_path / "b.ckpt", max_saves=1)
        Simulator.resume_from(
            load_checkpoint(tmp_path / "a.ckpt"),
            checkpoint_every=30,
            checkpointer=second,
        ).run()
        assert second.saves == 1
        final = Simulator.resume_from(load_checkpoint(tmp_path / "b.ckpt")).run()
        assert final.records == golden.records
