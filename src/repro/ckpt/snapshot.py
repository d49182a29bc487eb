"""The versioned run-checkpoint format: save, load, validate, restore.

File layout
-----------
A checkpoint is one binary file::

    b"REPROCKPT\\n"            -- magic, rejects alien files cheaply
    {"version": 4, ...}\\n      -- JSON header line (UTF-8)
    <pickle blob>              -- everything else, one object graph

The header carries only JSON-safe summary fields (version, policy name,
pool size, server count, events processed, simulated time, caller
metadata) so tooling can inspect a checkpoint without unpickling it.
The blob holds the engine core (one entry per
:data:`repro.sim.engine._CKPT_CORE_FIELDS` name), the policy type and
its :meth:`~repro.policies.base.Scheduler.snapshot` state, and the
optional instrument/writer states — all in a **single** pickle, so
every :class:`~repro.core.transaction.Transaction` shared between the
pool, the SoA table, the event queue, the running map and the policy's
internal structures keeps its object identity on load.  That shared
identity is what makes a resumed run decision-identical to an
uninterrupted one (lazy-heap tie-breaks included).

Writes are atomic (sibling temp file + ``os.replace``): a crash during
``save`` leaves the previous checkpoint intact, never a torn file.

Checkpoints are *trusted local artifacts* of your own runs: loading
unpickles arbitrary objects, exactly like any pickle file.  Validation
(magic, version, header keys, core-field schema) guards against
corruption and version skew, not against adversarial input.
"""

from __future__ import annotations

import json
import os
import pathlib
import pickle
from typing import TYPE_CHECKING, Mapping

from repro.errors import CheckpointError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.jsonl import EventSink
    from repro.policies.base import Scheduler
    from repro.sim.engine import Simulator

__all__ = [
    "CKPT_MAGIC",
    "CKPT_VERSION",
    "Checkpoint",
    "Checkpointer",
    "load_checkpoint",
    "restore_writer",
]

#: Leading bytes of every checkpoint file.
CKPT_MAGIC = b"REPROCKPT\n"

#: Current checkpoint format version; bumped on incompatible changes.
#: Version 2: the event heap holds plain ``Event`` tuples (version 1
#: wrapped dataclass events in ``(sort_key, event)`` pairs) and dispatch
#: records carry their pending ``completion_at``/``fault_at`` times.
#: Version 3: the pickled ``ASETSStar`` has a single select path (no
#: ``incremental`` flag, no active-workflow dict); a version-2 snapshot
#: of its old reference-scan mode carries empty heaps and would resume
#: with wrong decisions.
#: Version 4: every instrument rides as ``to_state`` state (a buffered
#: ``Recorder`` is a ``StreamingRecorder`` whose state carries its event
#: list; version 3 pickled it whole), and ``RunTelemetry`` state carries
#: exact running tardiness/response-time sums.
#: Version 5: ``ASETS`` and ``Ready`` are ``ASETSStar`` over a singleton
#: view (serials, placements, workflow heaps); a version-4 snapshot holds
#: their old transaction heaps, which today's select path cannot read.
#: Version 6: ``TxnTable`` keeps only its ``ids``/``arrival`` columns; a
#: version-5 table carries ``deadline``/``length``/``weight`` slots.
#: Version 7: ``RunTelemetry`` state keeps only its sketches, culprits
#: and run summary; a version-6 state carries outcome counters, sums
#: and moments that no longer exist, and lacks the summary.
CKPT_VERSION = 7

#: Keys every checkpoint header must carry.
_HEADER_FIELDS = frozenset(
    {
        "version",
        "policy",
        "n",
        "servers",
        "events_processed",
        "now",
        "metadata",
    }
)

#: Keys of the pickled blob.
_BLOB_FIELDS = frozenset(
    {"core", "policy_type", "policy_state", "instrument", "writer"}
)


class Checkpoint:
    """One loaded checkpoint: header summary plus the unpickled state.

    Built by :func:`load_checkpoint` (or by :class:`Checkpointer` in
    tests that skip the file round-trip).  Hand it to
    :meth:`repro.sim.engine.Simulator.resume_from` together with the
    instrument rebuilt by :meth:`restore_instrument` and the writer
    rebuilt by :func:`restore_writer`.
    """

    def __init__(self, header: dict, blob: dict) -> None:
        self.header = header
        self._blob = blob

    # -- header summary -------------------------------------------------
    @property
    def policy_name(self) -> str:
        return str(self.header["policy"])

    @property
    def n(self) -> int:
        return int(self.header["n"])

    @property
    def servers(self) -> int:
        return int(self.header["servers"])

    @property
    def events_processed(self) -> int:
        return int(self.header["events_processed"])

    @property
    def now(self) -> float:
        """Simulated time of the snapshot (exact: JSON floats round-trip)."""
        return float(self.header["now"])

    @property
    def metadata(self) -> dict:
        """Caller metadata (the CLI stores the full run configuration)."""
        return dict(self.header["metadata"])

    # -- pickled state --------------------------------------------------
    @property
    def core(self) -> dict:
        """Engine core state, one entry per ``_CKPT_CORE_FIELDS`` name."""
        return self._blob["core"]

    @property
    def writer_state(self) -> dict | None:
        """The JSONL writer's ``ckpt_state()``, or ``None``."""
        return self._blob["writer"]

    def restore_policy(self) -> "Scheduler":
        """Rebuild the live policy from its snapshotted state."""
        from repro.policies.base import Scheduler

        policy_type = self._blob["policy_type"]
        if not (
            isinstance(policy_type, type) and issubclass(policy_type, Scheduler)
        ):
            raise CheckpointError(
                f"checkpoint policy type {policy_type!r} is not a Scheduler"
            )
        return policy_type.restore(self._blob["policy_state"])

    def restore_instrument(
        self, sink: "EventSink | None" = None
    ) -> object | None:
        """Rebuild the checkpointed instrument, or ``None`` if none rode.

        The instrument (e.g. a
        :class:`~repro.obs.streaming.StreamingRecorder` or a buffered
        :class:`~repro.obs.recorder.Recorder`) is rebuilt via its
        ``from_state(state, sink)``.
        """
        entry = self._blob["instrument"]
        if entry is None:
            return None
        return entry["type"].from_state(entry["state"], sink)


class Checkpointer:
    """Persists run snapshots to one file, atomically, as the run goes.

    Attach the same telemetry ``instrument`` and event-log ``writer``
    the run itself uses (or ``None``): their positions are captured in
    the same snapshot as the engine, so a resume restores all three
    layers to the identical cut.  ``metadata`` must be JSON-safe — it
    lands in the inspectable header.  ``max_saves`` bounds how many
    snapshots are taken (the kill-and-recover tests use ``1`` to pin
    the resume point); ``None`` means every due snapshot is written.
    """

    def __init__(
        self,
        path: str | pathlib.Path,
        *,
        instrument: object | None = None,
        writer: object | None = None,
        metadata: Mapping | None = None,
        max_saves: int | None = None,
    ) -> None:
        if max_saves is not None and max_saves < 1:
            raise CheckpointError(
                f"max_saves must be >= 1 or None, got {max_saves}"
            )
        self.path = pathlib.Path(path)
        self.instrument = instrument
        self.writer = writer
        self.metadata = dict(metadata) if metadata is not None else {}
        self.max_saves = max_saves
        self.saves = 0

    def save(self, engine: "Simulator", now: float) -> pathlib.Path:
        """Snapshot ``engine`` (plus instrument/writer) at time ``now``.

        Reads state, never mutates it: a checkpointed run stays
        byte-identical to one that never checkpointed.  The file is
        replaced atomically; the previous snapshot survives a crash
        mid-save.
        """
        if self.max_saves is not None and self.saves >= self.max_saves:
            return self.path
        core = engine._checkpoint_payload()
        policy = engine._policy
        header = {
            "version": CKPT_VERSION,
            "policy": policy.name,
            "n": len(core["_txns"]),  # type: ignore[arg-type]
            "servers": core["_servers"],
            "events_processed": core["_events_processed"],
            "now": now,
            "metadata": self.metadata,
        }
        instrument_entry = None
        if self.instrument is not None:
            to_state = getattr(self.instrument, "to_state", None)
            if to_state is None:
                raise CheckpointError(
                    f"instrument {type(self.instrument).__name__} has no "
                    "to_state(); it cannot ride in a checkpoint"
                )
            instrument_entry = {
                "type": type(self.instrument),
                "state": to_state(),
            }
        blob = {
            "core": core,
            "policy_type": type(policy),
            "policy_state": policy.snapshot(),
            "instrument": instrument_entry,
            "writer": (
                self.writer.ckpt_state()  # type: ignore[attr-defined]
                if self.writer is not None
                else None
            ),
        }
        payload = pickle.dumps(blob, protocol=pickle.HIGHEST_PROTOCOL)
        tmp = self.path.with_name(self.path.name + ".tmp")
        with tmp.open("wb") as handle:
            handle.write(CKPT_MAGIC)
            handle.write(
                json.dumps(
                    header, separators=(",", ":"), sort_keys=True
                ).encode("utf-8")
            )
            handle.write(b"\n")
            handle.write(payload)
        os.replace(tmp, self.path)
        self.saves += 1
        return self.path


def load_checkpoint(path: str | pathlib.Path) -> Checkpoint:
    """Load and validate a checkpoint file.

    Raises :class:`~repro.errors.CheckpointError` on a missing file, a
    wrong magic, an unsupported version, a torn/corrupt payload, or a
    core-state schema that does not match this engine's
    ``_CKPT_CORE_FIELDS`` — version skew must fail loudly, not resume
    into a subtly different run.
    """
    path = pathlib.Path(path)
    if not path.exists():
        raise CheckpointError(f"{path}: no such checkpoint")
    data = path.read_bytes()
    if not data.startswith(CKPT_MAGIC):
        raise CheckpointError(f"{path}: not a repro checkpoint (bad magic)")
    header_end = data.find(b"\n", len(CKPT_MAGIC))
    if header_end < 0:
        raise CheckpointError(f"{path}: truncated checkpoint header")
    try:
        header = json.loads(data[len(CKPT_MAGIC) : header_end])
    except json.JSONDecodeError as exc:
        raise CheckpointError(
            f"{path}: corrupt checkpoint header: {exc}"
        ) from exc
    if not isinstance(header, dict) or set(header) != _HEADER_FIELDS:
        raise CheckpointError(
            f"{path}: checkpoint header fields "
            f"{sorted(header) if isinstance(header, dict) else header!r} "
            f"do not match {sorted(_HEADER_FIELDS)}"
        )
    version = header["version"]
    if version != CKPT_VERSION:
        raise CheckpointError(
            f"{path}: checkpoint version {version!r}, this reader "
            f"supports {CKPT_VERSION}"
        )
    try:
        blob = pickle.loads(data[header_end + 1 :])
    except Exception as exc:  # noqa: BLE001 - pickle raises many types
        raise CheckpointError(
            f"{path}: corrupt checkpoint payload: {exc!r}"
        ) from exc
    if not isinstance(blob, dict) or set(blob) != _BLOB_FIELDS:
        raise CheckpointError(
            f"{path}: checkpoint payload fields do not match "
            f"{sorted(_BLOB_FIELDS)}"
        )
    from repro.sim.engine import _CKPT_CORE_FIELDS

    core = blob["core"]
    if not isinstance(core, dict) or set(core) != set(_CKPT_CORE_FIELDS):
        raise CheckpointError(
            f"{path}: checkpoint core state does not match this engine's "
            "schema (version skew?)"
        )
    return Checkpoint(header, blob)


def restore_writer(state: Mapping | None) -> object | None:
    """Resume the event-log writer a checkpoint captured, if any.

    Dispatches on the state's ``writer`` tag to
    :meth:`~repro.obs.jsonl.JsonlWriter.resume` or
    :meth:`~repro.obs.jsonl.RotatingJsonlWriter.resume`: the log is
    truncated back to the snapshot's record count and reopened for
    append, so the finished file is byte-identical to an uninterrupted
    run's.
    """
    if state is None:
        return None
    from repro.obs.jsonl import JsonlWriter, RotatingJsonlWriter

    tag = state["writer"]
    if tag == "plain":
        return JsonlWriter.resume(state)
    if tag == "rotating":
        return RotatingJsonlWriter.resume(state)
    raise CheckpointError(f"unknown checkpointed writer type {tag!r}")
