"""Observability for the simulation engine.

The paper's evaluation reads out end-state aggregates; this subpackage
opens the black box.  It provides:

* :mod:`repro.obs.hooks` — the :class:`Instrument` callback protocol the
  engine drives (``Simulator(..., instrument=...)``), with a no-op
  :class:`NullInstrument` and a fan-out :class:`MultiInstrument`;
* :mod:`repro.obs.jsonl` — a schema-versioned JSON-lines event-log
  writer/reader, so any run can be exported and analyzed offline;
* :mod:`repro.obs.timeline` — ready-queue depth, busy servers and
  running tardiness at every scheduling point;
* :mod:`repro.obs.summary` — the per-run :class:`RunReport`;
* :mod:`repro.obs.streaming` — the one telemetry core: mergeable
  quantile sketches, top-k culprits, tumbling-window
  time-series and the :class:`StreamingRecorder` instrument that keeps a
  10\\ :sup:`6`-transaction run in bounded memory;
* :mod:`repro.obs.records` — the event-record builders, one canonical
  dict per event kind;
* :mod:`repro.obs.recorder` — :class:`Recorder`, the standard
  instrument: a :class:`StreamingRecorder` whose sink is an in-memory
  event list, with the timeline and exact ``select()`` percentiles read
  off that list;
* :mod:`repro.obs.progress` — wall-clock :class:`Heartbeat` /
  :class:`SweepHeartbeat` progress lines (outside the deterministic
  boundary; armed by the CLI's ``--progress``);
* :mod:`repro.obs.profile` — the hot-path profiler
  (``Simulator(..., profiler=PhaseProfiler())``): engine phase timers,
  policy :class:`Probe` spans, cost-vs-depth scaling fits and
  collapsed-stack/speedscope flamegraph exports (docs/profiling.md);
* :mod:`repro.obs.analyze` — deadline-miss forensics over recorded
  event logs: lifecycle spans, tardiness blame attribution, Perfetto
  trace export and cross-run diffing (imported explicitly via
  ``from repro.obs import analyze`` — it is an offline analysis layer,
  not part of the recording hot path).

Quickstart::

    from repro.obs import Recorder
    recorder = Recorder()
    result = Simulator(txns, policy, instrument=recorder).run()
    print(recorder.report().render())
    recorder.write_events("run.jsonl")

With ``instrument=None`` (the default) the engine's hot path pays a
single ``is not None`` check per call site — enforced by an overhead
guard test.
"""

from repro.obs.hooks import Instrument, MultiInstrument, NullInstrument
from repro.obs.jsonl import (
    SCHEMA_VERSION,
    EventSampler,
    JsonlWriter,
    RotatingJsonlWriter,
    iter_records,
    read,
    read_tolerant,
    write,
)
from repro.obs.profile import (
    PhaseProfiler,
    PhaseStat,
    Probe,
    ProfileSnapshot,
    validate_speedscope,
)
from repro.obs.progress import Heartbeat, SweepHeartbeat
from repro.obs.recorder import Recorder
from repro.obs.streaming import (
    QuantileSketch,
    RunTelemetry,
    StreamingRecorder,
    TopK,
    WindowAggregator,
)
from repro.obs.summary import RunReport
from repro.obs.timeline import Timeline, TimelineSample

__all__ = [
    "Instrument",
    "NullInstrument",
    "MultiInstrument",
    "SCHEMA_VERSION",
    "JsonlWriter",
    "RotatingJsonlWriter",
    "EventSampler",
    "write",
    "read",
    "read_tolerant",
    "iter_records",
    "Timeline",
    "TimelineSample",
    "RunReport",
    "Recorder",
    "StreamingRecorder",
    "RunTelemetry",
    "QuantileSketch",
    "TopK",
    "WindowAggregator",
    "Heartbeat",
    "SweepHeartbeat",
    "PhaseProfiler",
    "PhaseStat",
    "Probe",
    "ProfileSnapshot",
    "validate_speedscope",
]
