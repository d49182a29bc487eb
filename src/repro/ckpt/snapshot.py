"""The versioned run-checkpoint format: save, load, validate, restore.

File layout
-----------
A checkpoint is one binary file::

    b"REPROCKPT\\n"            -- magic, rejects alien files cheaply
    {"version": 11, ...}\\n      -- JSON header line (UTF-8)
    <8-byte length>            -- little-endian size of the pool section
    <pool section>             -- the workload-static transaction pool
    <state section>            -- one pickle of what the run changed

The header carries only JSON-safe summary fields (version, policy name,
pool size, server count, events processed, simulated time, caller
metadata) so tooling can inspect a checkpoint without unpickling it.

The **pool section** holds, as flat columns, the fields the paper's
model never changes during a run (Definition 1): each transaction's id,
arrival, length, submitted deadline, weight, length estimate and
dependency list, plus whether the run has a workflow set.  A
:class:`Checkpointer` builds it at its first save of an
engine and writes the same bytes at every later save.  A load rebuilds
the pool objects from it with the engine's own constructors
(:class:`~repro.core.transaction.Transaction`,
:class:`~repro.core.workflow_set.WorkflowSet`,
:class:`~repro.sim.soa.TxnTable`, the engine's dependents index).

The **state section** is a single pickle of the rest: every
transaction's and pool workflow's mutable slots as columns, the engine
core outside the pool (one entry per
:data:`repro.sim.engine._CKPT_CORE_FIELDS` name outside
:data:`~repro.sim.engine._CKPT_POOL_FIELDS`), the table's ready set,
the policy type and its :meth:`~repro.policies.base.Scheduler.snapshot`
state, and the optional instrument/writer states.  Wherever a pool
transaction, a pool workflow, the workflow set or the SoA table appears
in that graph it is written as a *pool reference* (its index in the
pool), and the load resolves each reference to the rebuilt object.  So
every object shared between the pool, the event queue, the running map
and the policy's internal structures keeps its identity on load, which
is what makes a resumed run decision-identical to an uninterrupted one
(lazy-heap tie-breaks included), and no policy needs its own code.

Writes are atomic (sibling temp file + ``os.replace``): a crash during
``save`` leaves the previous checkpoint intact, never a torn file.

Checkpoints are *trusted local artifacts* of your own runs: loading
unpickles arbitrary objects, exactly like any pickle file.  Validation
(magic, version, header keys, section bounds, pool columns, pool
references, core-field schema) guards against corruption and version
skew, not against adversarial input.
"""

from __future__ import annotations

import copyreg
import io
import json
import os
import pathlib
import pickle
import weakref
from array import array
from itertools import accumulate, chain
from operator import attrgetter
from typing import TYPE_CHECKING, BinaryIO, Callable, Mapping

from repro.core.transaction import Transaction
from repro.core.workflow import AGGREGATE_SLOTS, Workflow
from repro.core.workflow_set import WorkflowSet
from repro.errors import CheckpointError
from repro.sim.soa import TxnTable

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
#: Version 8: the payload is a pool section of static transaction
#: columns followed by a state pickle that writes pool objects as
#: references; a version-7 payload is one pickle of the whole graph.
#: Version 9: the ``ASETS``/``Ready`` singleton view pickles as columns
#: and no policy keeps a copy of the pool; a version-8 state pickles
#: every singleton by value and every policy's id-to-transaction map.
#: Version 10: the engine core has no ``_trace`` field (who ran when is
#: read from the event log); a version-9 core carries it.
#: Version 11: the event queue serves arrivals from a lane over the
#: pool's columns and pickles the lane's cursor, not the pending
#: arrivals; a version-10 queue holds every pending arrival in its heap.
CKPT_VERSION = 11

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

#: Keys of the blob a :class:`Checkpoint` holds.
_BLOB_FIELDS = frozenset(
    {"core", "policy_type", "policy_state", "instrument", "writer"}
)

#: Keys of the state section: the blob's, with the core outside the
#: pool, plus the pool's mutable columns and the table's ready set.
_STATE_FIELDS = _BLOB_FIELDS | {"txns", "workflows", "ready"}

#: The static transaction columns of the pool section, with their array
#: type codes; dependency lists ride as ``dep_counts`` + ``depends_on``.
_POOL_COLUMNS = (
    ("txn_id", "q"),
    ("arrival", "d"),
    ("length", "d"),
    ("submitted_deadline", "d"),
    ("weight", "d"),
    ("length_estimate", "d"),
)

#: Keys of the pool section.
_POOL_FIELDS = frozenset(
    [name for name, _ in _POOL_COLUMNS]
    + ["dep_counts", "depends_on", "workflows"]
)

#: Transaction slots a run changes, written at every save.  With the
#: static columns (and ``depends_on``) they cover every slot.
_TXN_SLOTS = (
    "deadline",
    "remaining",
    "scheduling_remaining",
    "state",
    "finish_time",
    "first_start_time",
    "last_dispatch_time",
    "preemptions",
    "retries",
    "attempt_served",
)

#: Workflow slots a run changes, written at every save; membership and
#: order are rebuilt by the constructor.
_WORKFLOW_SLOTS = AGGREGATE_SLOTS

_TXN_GETTERS = tuple(map(attrgetter, _TXN_SLOTS))
_WORKFLOW_GETTERS = tuple(map(attrgetter, _WORKFLOW_SLOTS))

#: Width of the pool-section length that follows the header line.
_LENGTH_BYTES = 8


def _pool_ref(index: int) -> object:
    """Stands for a pool object inside a state section.

    A state section names this function as the constructor of every pool
    object, with the object's place in :func:`_pool_objects`;
    :func:`load_checkpoint` resolves it to the rebuilt pool of that load.
    Called any other way it has no pool to resolve against.
    """
    raise CheckpointError(f"pool reference {index} outside a checkpoint load")


def _pool_objects(
    txns: tuple[Transaction, ...],
    table: TxnTable,
    workflow_set: WorkflowSet | None,
) -> tuple[object, ...]:
    """Every object a pool reference can name, in reference order: the
    transactions, the workflows, the table, then the workflow set."""
    if workflow_set is None:
        return (*txns, table)
    return (*txns, *workflow_set, table, workflow_set)


class _Pool:
    """One engine's pool section and the pickler table of its references.

    Built at a :class:`Checkpointer`'s first save of an engine and kept
    for its later saves while that engine lives: the columns are
    workload-static, and the engine keeps its pool objects alive, so
    their ``id``-keyed references stay valid.  The engine is held
    weakly, since it already holds the checkpointer.
    """

    __slots__ = ("engine", "txns", "workflows", "section", "dispatch_table")

    def __init__(self, engine: "Simulator") -> None:
        table = engine._table
        workflow_set = engine._workflows
        txns = table.txns
        if any(type(txn) is not Transaction for txn in txns):
            raise CheckpointError(
                "a checkpoint rebuilds the pool as Transaction objects; "
                "this pool holds a subclass"
            )
        if workflow_set is not None and type(workflow_set) is not WorkflowSet:
            raise CheckpointError(
                f"a checkpoint rebuilds the workflow set as a WorkflowSet; "
                f"this run has a {type(workflow_set).__name__}"
            )
        self.engine = weakref.ref(engine)
        self.txns = txns
        self.workflows: tuple[Workflow, ...] = (
            () if workflow_set is None else tuple(workflow_set)
        )
        deps = [txn.depends_on for txn in txns]
        columns: dict[str, object] = {
            name: array(code, map(attrgetter(name), txns))
            for name, code in _POOL_COLUMNS
        }
        columns["dep_counts"] = array("q", map(len, deps))
        columns["depends_on"] = array("q", chain.from_iterable(deps))
        columns["workflows"] = workflow_set is not None
        self.section = pickle.dumps(columns, protocol=pickle.HIGHEST_PROTOCOL)
        self.dispatch_table = _reference_table(
            _pool_objects(txns, table, workflow_set)
        )


def _reference_table(objects: tuple[object, ...]) -> dict[type, object]:
    """A pickler ``dispatch_table`` writing each of ``objects`` as
    ``_pool_ref(index)``; other objects of their types pickle as usual.

    A table rather than a ``reducer_override``: the pickler calls it only
    for objects of the pool's types, not for every object it writes.
    The ``(index,)`` arguments are built once, because the pickler memo
    keeps every argument tuple it writes alive until the dump ends.
    """
    refs = {id(obj): (index,) for index, obj in enumerate(objects)}

    def reduce(obj: object) -> object:
        args = refs.get(id(obj))
        if args is None:
            return obj.__reduce_ex__(pickle.HIGHEST_PROTOCOL)
        return _pool_ref, args

    return {**copyreg.dispatch_table, **dict.fromkeys(map(type, objects), reduce)}


def _dump_state(file: BinaryIO, state: object, dispatch_table: dict) -> None:
    """Pickle a state section with pool objects as references."""
    pickler = pickle.Pickler(file, protocol=pickle.HIGHEST_PROTOCOL)
    pickler.dispatch_table = dispatch_table
    pickler.dump(state)


class _StateUnpickler(pickle.Unpickler):
    """Loads a state section against one load's rebuilt pool objects."""

    def __init__(self, data: bytes, objects: tuple[object, ...]) -> None:
        super().__init__(io.BytesIO(data))
        self._resolve = _resolver(objects)

    def find_class(self, module: str, name: str) -> object:
        if module == __name__ and name == "_pool_ref":
            return self._resolve
        return super().find_class(module, name)


def _resolver(objects: tuple[object, ...]) -> Callable[[int], object]:
    """The ``_pool_ref`` of one load.

    A closure, not an unpickler method: the unpickler memoizes what
    ``find_class`` returns, and a method bound to it would hold it, and
    its memo of every loaded object, in a reference cycle.
    """

    def resolve(index: int) -> object:
        if type(index) is not int or not 0 <= index < len(objects):
            raise CheckpointError(
                f"pool reference {index!r} is out of range for a pool of "
                f"{len(objects)} objects"
            )
        return objects[index]

    return resolve


class Checkpoint:
    """One loaded checkpoint: header summary plus the unpickled state.

    Built by :func:`load_checkpoint`, over the pool it rebuilt: the
    ``core`` holds every ``_CKPT_CORE_FIELDS`` entry.  Hand it to
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

    The pool section is built at the first save of an engine and its
    bytes are written again, unchanged, at every later save of that
    engine; only the state section is pickled per save.
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
        self._pool: _Pool | None = None

    def save(self, engine: "Simulator", now: float) -> pathlib.Path:
        """Snapshot ``engine`` (plus instrument/writer) at time ``now``.

        Reads state, never mutates it: a checkpointed run stays
        byte-identical to one that never checkpointed.  The file is
        replaced atomically; the previous snapshot survives a crash
        mid-save.
        """
        if self.max_saves is not None and self.saves >= self.max_saves:
            return self.path
        pool = self._pool
        if pool is None or pool.engine() is not engine:
            pool = self._pool = _Pool(engine)
        policy = engine._policy
        header = {
            "version": CKPT_VERSION,
            "policy": policy.name,
            "n": len(pool.txns),
            "servers": engine._servers,
            "events_processed": engine._events_processed,
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
        state = {
            "core": engine._checkpoint_payload(),
            "txns": [list(map(get, pool.txns)) for get in _TXN_GETTERS],
            "workflows": [
                list(map(get, pool.workflows)) for get in _WORKFLOW_GETTERS
            ],
            "ready": engine._table._ready,
            "policy_type": type(policy),
            "policy_state": policy.snapshot(),
            "instrument": instrument_entry,
            "writer": (
                self.writer.ckpt_state()  # type: ignore[attr-defined]
                if self.writer is not None
                else None
            ),
        }
        tmp = self.path.with_name(self.path.name + ".tmp")
        with tmp.open("wb") as handle:
            handle.write(CKPT_MAGIC)
            handle.write(
                json.dumps(
                    header, separators=(",", ":"), sort_keys=True
                ).encode("utf-8")
            )
            handle.write(b"\n")
            handle.write(len(pool.section).to_bytes(_LENGTH_BYTES, "little"))
            handle.write(pool.section)
            _dump_state(handle, state, pool.dispatch_table)
        os.replace(tmp, self.path)
        self.saves += 1
        return self.path


def load_checkpoint(path: str | pathlib.Path) -> Checkpoint:
    """Load and validate a checkpoint file.

    Raises :class:`~repro.errors.CheckpointError` on a missing file, a
    wrong magic, an unsupported version (before anything is unpickled),
    a torn/corrupt pool or state section, a pool reference out of range,
    or a core-state schema that does not match this engine's
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
    pool_at = header_end + 1 + _LENGTH_BYTES
    state_at = pool_at + int.from_bytes(data[header_end + 1 : pool_at], "little")
    if state_at > len(data):
        raise CheckpointError(
            f"{path}: corrupt checkpoint payload: the pool section is "
            "truncated"
        )
    try:
        objects, core = _rebuild_pool(data[pool_at:state_at], header["n"])
        state = _StateUnpickler(data[state_at:], objects).load()
        blob = _apply_state(state, objects, core)
    except Exception as exc:  # noqa: BLE001 - pickle raises many types
        raise CheckpointError(
            f"{path}: corrupt checkpoint payload: {exc!r}"
        ) from exc
    return Checkpoint(header, blob)


def _rebuild_pool(
    section: bytes, n: object
) -> tuple[tuple[object, ...], dict[str, object]]:
    """The pool objects of a pool section, in reference order, and the
    engine core fields built from them (``_CKPT_POOL_FIELDS``)."""
    from repro.sim.engine import _dependents_of

    columns = pickle.loads(section)
    if set(columns) != _POOL_FIELDS:
        raise CheckpointError("pool section fields do not match")
    counts = columns["dep_counts"]
    deps = columns["depends_on"].tolist()
    if min(counts, default=0) < 0 or sum(counts) != len(deps):
        raise CheckpointError("pool dependency lists do not add up")
    txns = tuple(
        Transaction(
            txn_id, arrival, length, deadline, weight,
            deps[end - count : end], estimate,
        )
        for txn_id, arrival, length, deadline, weight, estimate, count, end in zip(
            *(columns[name].tolist() for name, _ in _POOL_COLUMNS),
            counts,
            accumulate(counts),
            strict=True,
        )
    )
    if len(txns) != n:
        raise CheckpointError(
            f"the pool section holds {len(txns)} of {n} transactions"
        )
    pool = {txn.txn_id: txn for txn in txns}
    if len(pool) != len(txns):
        raise CheckpointError("duplicate transaction ids in the pool section")
    workflow_set = WorkflowSet(list(txns)) if columns["workflows"] else None
    table = TxnTable(txns)
    core = {
        "_txns": pool,
        "_table": table,
        "_workflows": workflow_set,
        "_dependents": _dependents_of(pool),
    }
    return _pool_objects(txns, table, workflow_set), core


def _apply_state(
    state: object, objects: tuple[object, ...], pool_core: dict[str, object]
) -> dict[str, object]:
    """Write a state section's mutable columns onto the rebuilt pool and
    return the :class:`Checkpoint` blob, its core whole again."""
    from repro.sim.engine import _CKPT_CORE_FIELDS

    if not isinstance(state, dict) or set(state) != _STATE_FIELDS:
        raise CheckpointError(
            f"checkpoint payload fields do not match {sorted(_STATE_FIELDS)}"
        )
    n = len(pool_core["_txns"])  # type: ignore[arg-type]
    end = n + len(pool_core["_workflows"] or ())  # type: ignore[arg-type]
    for targets, slots, key in (
        (objects[:n], _TXN_SLOTS, "txns"),
        (objects[n:end], _WORKFLOW_SLOTS, "workflows"),
    ):
        for slot, column in zip(slots, state[key], strict=True):
            for target, value in zip(targets, column, strict=True):
                setattr(target, slot, value)
    pool_core["_table"]._ready.update(state["ready"])  # type: ignore[attr-defined]
    core = state["core"]
    if (
        not isinstance(core, dict)
        or set(core) | set(pool_core) != set(_CKPT_CORE_FIELDS)
        or not set(core).isdisjoint(pool_core)
    ):
        raise CheckpointError(
            "checkpoint core state does not match this engine's schema "
            "(version skew?)"
        )
    blob = {name: state[name] for name in sorted(_BLOB_FIELDS)}
    blob["core"] = {**pool_core, **core}
    return blob


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
