"""Sampled event logs: one log whichever way the sampling is applied.

A streaming run decides sampling *before* it builds a record; a buffered
run's log is thinned after the run by a
:class:`~repro.obs.jsonl.SampledSink`.  Both must write the same bytes
(the wall-clock ``select_s`` values masked), under a fault plan that
emits every fault kind, with windows on.  A sampled streaming run
killed between two kept ``sched`` points and resumed must write the
same bytes as the uninterrupted run.
"""

import re

import pytest

from repro.ckpt import Checkpointer, load_checkpoint, restore_writer
from repro.experiments.config import PolicySpec
from repro.faults import parse_fault_spec, plan_faults
from repro.obs.jsonl import EventSampler, JsonlWriter, SampledSink
from repro.obs.recorder import Recorder
from repro.obs.streaming import StreamingRecorder
from repro.sim.engine import Simulator
from repro.workload.generator import generate
from repro.workload.spec import WorkloadSpec

RATE = 0.25
WINDOW = 40.0
FAULTS = parse_fault_spec(
    "seed=3,abort_prob=0.15,stall_prob=0.15,stall_max=1.0,crash_count=1,"
    "max_retries=2,backlog_limit=5,shed_policy=feasibility"
)
FAULT_KINDS = {
    "fault.stall",
    "fault.abort",
    "retry",
    "fault.crash",
    "fault.recover",
    "shed",
}


@pytest.fixture(scope="module")
def workload():
    return generate(WorkloadSpec(n_transactions=200, utilization=0.95), seed=7)


class _Log(list):
    write = list.append


def _masked(path):
    """The log's raw bytes with every ``select_s`` value zeroed."""
    return re.sub(rb'"select_s":[^,}]*', b'"select_s":0', path.read_bytes())


def _run(workload, recorder, checkpointer=None, every=None):
    workload.reset()
    return Simulator(
        workload.transactions,
        PolicySpec.of("asets").make(),
        instrument=recorder,
        faults=plan_faults(FAULTS, workload.transactions),
        retain_records=False,
        checkpoint_every=every,
        checkpointer=checkpointer,
    ).run()


@pytest.mark.parametrize("window", [None, WINDOW], ids=["plain", "windows"])
def test_streamed_log_equals_buffered_log_exported_sampled(
    workload, window, tmp_path
):
    # The buffered log: a Recorder, or (to carry windows, which a
    # Recorder takes no option for) the same core over a list sink.
    if window is None:
        buffered = Recorder()
        events = buffered.events
    else:
        events = _Log()
        buffered = StreamingRecorder(window=window, sink=events)
    _run(workload, buffered)
    kinds = {event["kind"] for event in events}
    assert FAULT_KINDS <= kinds
    exported = tmp_path / "exported.jsonl"
    with JsonlWriter(exported) as sink:
        out = SampledSink(sink, EventSampler(RATE))
        for event in events:
            out.write(event)

    streamed = tmp_path / "streamed.jsonl"
    with JsonlWriter(streamed) as sink:
        _run(workload, StreamingRecorder(window=window, sink=sink, sample=RATE))

    assert _masked(streamed) == _masked(exported)
    text = streamed.read_text()
    assert '"sampled":false' in text
    assert ('"kind":"window.snapshot"' in text) == (window is not None)


def test_sampled_kill_mid_stride_resumes_to_the_same_log(workload, tmp_path):
    stride = round(1 / RATE)

    def recorder(sink):
        return StreamingRecorder(window=WINDOW, sink=sink, sample=RATE)

    golden = tmp_path / "golden.jsonl"
    with JsonlWriter(golden) as sink:
        _run(workload, recorder(sink))

    # Pin the one snapshot at a point where the sampler is between two
    # kept sched points, so its stride phase must survive the resume.
    killed = tmp_path / "killed.jsonl"
    path = tmp_path / "run.ckpt"
    for every in range(30, 90):
        sink = JsonlWriter(killed)
        ckpt = Checkpointer(path, max_saves=1, writer=sink)
        ckpt.instrument = recorder(sink)
        _run(workload, ckpt.instrument, checkpointer=ckpt, every=every)
        sink.close()
        checkpoint = load_checkpoint(path)
        if checkpoint.restore_instrument().to_state()["sched_seen"] % stride:
            break
    else:
        pytest.fail("no snapshot landed between two kept sched points")
    assert _masked(killed) == _masked(golden)

    # The kill: the log runs a few records past the snapshot and ends
    # in a torn line.
    lines = killed.read_bytes().splitlines(keepends=True)
    records = checkpoint.writer_state["records"]
    killed.write_bytes(b"".join(lines[: records + 3]) + b'{"torn')

    writer = restore_writer(checkpoint.writer_state)
    Simulator.resume_from(
        checkpoint, instrument=checkpoint.restore_instrument(sink=writer)
    ).run()
    writer.close()
    assert _masked(killed) == _masked(golden)
