"""The standard full-fidelity instrument.

:class:`Recorder` is a :class:`~repro.obs.streaming.StreamingRecorder`
whose event sink is its own in-memory ``events`` list: one telemetry
core (:class:`~repro.obs.streaming.RunTelemetry`, with the run's
:class:`~repro.sim.results.StreamSummary`) answers every aggregate,
and the retained log — one dict per engine event, in the
schema-versioned JSONL format of :mod:`repro.obs.jsonl` — answers the
rest.  ``select_samples`` (per-point ``select()`` wall-times) and
``timeline`` (a :class:`~repro.obs.timeline.Timeline` of ready-queue
depth, busy servers and running tardiness) are views over that log.

After the run, :meth:`Recorder.report` condenses everything into a
:class:`~repro.obs.summary.RunReport` (the streaming report, with exact
``select()`` percentiles taken from the log) and :meth:`write_events`
exports the log::

    recorder = Recorder()
    result = Simulator(txns, policy, instrument=recorder).run()
    print(recorder.report().render())
    recorder.write_events("run.jsonl")

A recorder observes exactly one run; attach a fresh one per run.
"""

from __future__ import annotations

import dataclasses
import pathlib
from typing import Mapping

from repro.errors import ObservabilityError
from repro.obs import jsonl
from repro.obs.streaming import StreamingRecorder
from repro.obs.summary import RunReport
from repro.obs.timeline import Timeline

__all__ = ["Recorder"]


class _EventLog(list):
    """A plain event list that is also an event sink."""

    __slots__ = ()
    write = list.append


class Recorder(StreamingRecorder):
    """Stream one run's events into an in-memory log, and report on it.

    Takes no options: the telemetry runs at the streaming defaults, and
    the log keeps every event (export it with :meth:`write_events`, or
    sampled through a :class:`~repro.obs.jsonl.SampledSink`).
    """

    def __init__(self) -> None:
        self.events: list[dict] = _EventLog()
        super().__init__(sink=self.events)

    @property
    def select_samples(self) -> list[float]:
        """Per-scheduling-point ``select()`` wall-times, in seconds."""
        return [e["select_s"] for e in self.events if e["kind"] == "sched"]

    @property
    def timeline(self) -> Timeline:
        """The log's scheduling points, with tardiness accrued so far."""
        timeline = Timeline()
        tardiness = 0.0
        for event in self.events:
            kind = event["kind"]
            if kind == "completion":
                tardiness += event["tardiness"]
            elif kind == "sched":
                timeline.append(
                    event["t"], event["ready"], event["running"], tardiness
                )
        return timeline

    def report(self) -> RunReport:
        """The streaming report, with exact ``select()`` percentiles."""
        p50, p90, p99, pmax = RunReport.select_percentiles(self.select_samples)
        return dataclasses.replace(
            super().report(),
            select_p50=p50,
            select_p90=p90,
            select_p99=p99,
            select_max=pmax,
        )

    def to_state(self) -> dict:
        """Checkpoint state: the streaming state plus the log so far."""
        return dict(super().to_state(), events=list(self.events))

    @classmethod
    def from_state(cls, state: Mapping, sink: object = None) -> "Recorder":
        """Rebuild a mid-run recorder; its sink is always its own log."""
        recorder = cls()
        recorder.events.extend(state["events"])
        recorder._restore(state)
        return recorder

    def write_events(self, path: str | pathlib.Path) -> pathlib.Path:
        """Export the event log as schema-versioned JSONL."""
        if not self.events:
            raise ObservabilityError("no events recorded; run a simulation first")
        return jsonl.write(self.events, path)

    def __repr__(self) -> str:
        return (
            f"Recorder(policy={self._policy!r}, events={len(self.events)}, "
            f"scheduling_points={self._sched_points})"
        )
