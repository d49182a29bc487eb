"""The discrete-event RTDBMS engine.

Model (Section IV-A): a backend database server processes one transaction
at a time.  Scheduling points are transaction **arrivals** and
**completions** — "ASETS* needs only to be invoked in response to two
types of events, the arrival and the completion of a transaction" — plus
the optional periodic **activation** ticks of the balance-aware policy.
At every scheduling point the engine suspends the running transaction
(charging it the elapsed processing time; preempted work is never lost),
lets the policy choose among all ready transactions, and dispatches the
choice until the next event.  A transaction the policy re-selects keeps
its pending completion event whenever the recomputed completion time is
bit-identical to it, and never passes through the engine's ready set: its
suspension is a state flip, and only a transaction that loses its server
rejoins the set.

Precedence is enforced by the engine, not the policies: a dependent
transaction is reported ``ready`` only after everything in its dependency
list has completed (Section II-A).  Policies that operate at the workflow
level additionally receive the :class:`~repro.core.workflow_set.WorkflowSet`,
whose cached head/representative views the engine invalidates whenever a
member transaction arrives, completes, or accumulates processing time.

As an extension beyond the paper (whose conclusion notes ASETS* "could be
applied in any Real-Time system"), the engine also supports ``servers``
> 1: at each scheduling point every running transaction is suspended and
the policy is asked repeatedly until all servers are busy or no ready
transaction remains.  With ``servers=1`` (the default, used by the whole
reproduction) the behaviour is exactly the paper's single-server model.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from time import perf_counter
from typing import TYPE_CHECKING, Callable, Sequence

from repro.core.transaction import Transaction, TransactionState
from repro.core.workflow_set import WorkflowSet
from repro.errors import SchedulingError, SimulationError
from repro.policies.base import Scheduler
from repro.sim.event_queue import EventQueue
from repro.sim.events import Event, EventKind
# The result build is the only user of these names; ``TransactionRecord``
# stays bound here beside the other two so that callers rebinding the
# engine's result builders (perfbench's ledger) find all three.
from repro.sim.results import (  # noqa: F401
    SimulationResult,
    StreamSummary,
    TransactionRecord,
)
from repro.sim.soa import TxnTable

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.ckpt.snapshot import Checkpoint, Checkpointer
    from repro.faults.admission import ShedPolicy
    from repro.faults.plan import FaultPlan, TxnFaultSchedule
    from repro.obs.hooks import Instrument
    from repro.obs.profile import PhaseProfiler

__all__ = ["Simulator"]

#: Engine attributes captured by a run checkpoint (:mod:`repro.ckpt`).
#: The frozen tuple doubles as the snapshot schema: loads reject a
#: payload whose keys differ (:class:`~repro.errors.CheckpointError`).
_CKPT_CORE_FIELDS = (
    "_txns",
    "_table",
    "_workflows",
    "_dependents",
    "_events",
    "_seq",
    "_pending_deps",
    "_running",
    "_token_counter",
    "_completed",
    "_finished",
    "_down",
    "_fault_state",
    "_faults",
    "_shed_policy",
    "_shed_limit",
    "_overhead",
    "_servers",
    "_retain_records",
    "scheduling_points",
    "preemptions",
    "_events_processed",
)

#: The workload-static part of the core: built from the transaction pool
#: alone, so a checkpoint rebuilds it from its pool section with the
#: engine's own constructors instead of pickling it at every save.
_CKPT_POOL_FIELDS = ("_txns", "_table", "_workflows", "_dependents")

#: Tolerance for floating-point residues when a completion event fires.
_EPS = 1e-9

#: The two states a scheduling point flips incumbents between.
_READY = TransactionState.READY
_RUNNING = TransactionState.RUNNING

#: Event kinds charged to the ``faults`` profiling phase (the rest of the
#: batch loop is ``events``: arrivals, completions, activations).
_FAULT_KINDS = frozenset(
    (EventKind.FAULT, EventKind.CRASH, EventKind.RECOVER, EventKind.RETRY)
)


def _dependents_of(txns: dict[int, Transaction]) -> dict[int, list[int]]:
    """Reverse dependency lists: id -> ids that list it, in pool order.

    Only transactions that something depends on have an entry.
    """
    dependents: dict[int, list[int]] = {}
    for txn in txns.values():
        for dep in txn.depends_on:
            if dep not in txns:
                raise SimulationError(
                    f"transaction {txn.txn_id} depends on unknown id {dep}"
                )
            listed = dependents.get(dep)
            if listed is None:
                # A one-element literal: append on an empty list would
                # reserve four slots, and most lists stay at one.
                dependents[dep] = [txn.txn_id]
            else:
                listed.append(txn.txn_id)
    return dependents


@dataclass(slots=True)
class _Dispatch:
    """Book-keeping for one transaction currently holding a server."""

    txn: Transaction
    since: float
    token: int
    #: Context-switch overhead still to be served before real work
    #: resumes (0 unless the simulator models preemption costs).
    overhead_left: float = 0.0
    #: Time of the pending COMPLETION event issued under ``token``.
    completion_at: float = 0.0
    #: Time of the pending FAULT trigger issued under ``token``, or
    #: ``None`` when the attempt completes before its next planned fault.
    fault_at: float | None = None


@dataclass(slots=True)
class _FaultState:
    """Mutable per-transaction cursor over its planned fault schedule."""

    schedule: "TxnFaultSchedule"
    #: Index of the next unconsumed abort point (one per attempt).
    next_abort: int = 0
    #: A stall fires at most once per transaction, across all attempts.
    stall_fired: bool = False


class Simulator:
    """Simulate one workload under one policy.

    Parameters
    ----------
    transactions:
        The transaction pool.  The engine resets each transaction before
        the run, so a generated workload can be replayed under several
        policies (construct a fresh policy per run).
    policy:
        The scheduling policy deciding at every scheduling point.
    workflow_set:
        Optional pre-built workflow network over ``transactions``.  Built
        automatically when the policy requires workflows; always validated
        against the same transaction objects.
    servers:
        Number of identical servers (default 1 = the paper's model).
    preemption_overhead:
        Context-switch cost in time units (default 0 = the paper's free
        preemption).  Charged whenever a server starts a transaction
        that was not running at the previous scheduling point — including
        a transaction's first dispatch (cache warm-up); a transaction
        that merely continues across a scheduling point pays nothing and
        keeps any unfinished overhead from its own dispatch.
    instrument:
        Optional :class:`~repro.obs.hooks.Instrument` receiving engine
        hooks (arrivals, dispatches, preemptions, completions,
        scheduling points).  ``None`` (the default) keeps the hot path
        free of any instrumentation cost beyond one ``is not None``
        check per call site; ``policy.select`` wall-time is measured
        (``perf_counter``) only when an instrument is attached.
    profiler:
        Optional :class:`~repro.obs.profile.PhaseProfiler` splitting the
        main loop's wall time into named phases (``pop``, ``sync``,
        ``events``, ``faults``, ``select``, ``dispatch``, ``emit``) and
        handing the policy a :class:`~repro.obs.profile.Probe` at bind
        time so its internal select stages self-attribute.  ``None``
        (the default) keeps the hot path identical to the unprofiled
        engine — the same zero-cost contract as ``instrument``.
        Profiling is observation-only: the event schedule and every
        simulation output stay byte-identical with or without it.
    faults:
        Optional :class:`~repro.faults.plan.FaultPlan` enabling fault
        injection: planned aborts with bounded retries and exponential
        backoff, server crash/recovery windows (crashed servers drain
        their running transaction back to the ready pool), transient
        processing stalls, and — when the plan's spec sets
        ``backlog_limit`` — admission control shedding lowest-value
        ready work under overload.  ``None`` (the default) keeps every
        code path and event schedule byte-identical to the fault-free
        engine.
    retain_records:
        Every result answers its aggregates from a constant-size
        :class:`~repro.sim.results.StreamSummary`.  When True (default)
        it also carries the per-transaction outcomes, read from the pool
        into typed columns at run end
        (:class:`~repro.sim.results.RecordColumns`, a sequence of
        :class:`~repro.sim.results.TransactionRecord`).  ``False`` is
        streaming mode: no records, so per-transaction queries raise.
        Pair with a :class:`~repro.obs.streaming.StreamingRecorder`
        instrument for quantiles and windowed time-series at bounded
        memory.
    checkpoint_every:
        Event-count interval between run checkpoints; requires
        ``checkpointer`` (and vice versa).  After every batch of
        simultaneous events, once at least this many events have been
        processed since the last snapshot, the engine hands itself to
        the checkpointer at the post-reschedule safe point.  ``None``
        (the default) keeps the hot path free of any checkpoint cost
        beyond one ``is not None`` check per batch.  Incompatible with
        ``profiler``: wall-clock phase timings cannot survive a resume,
        and the byte-identity contract of :mod:`repro.ckpt` only covers
        simulation outputs.
    checkpointer:
        The :class:`~repro.ckpt.snapshot.Checkpointer` that persists
        snapshots (atomically, to one file).  A run killed between
        snapshots resumes from the last one via :meth:`resume_from`
        and finishes byte-identical to an uninterrupted run.

    Examples
    --------
    >>> from repro.policies import EDF
    >>> txns = [
    ...     Transaction(1, arrival=0, length=2, deadline=4),
    ...     Transaction(2, arrival=0, length=1, deadline=2),
    ... ]
    >>> result = Simulator(txns, EDF()).run()
    >>> result.average_tardiness
    0.0
    """

    def __init__(
        self,
        transactions: Sequence[Transaction],
        policy: Scheduler,
        workflow_set: WorkflowSet | None = None,
        servers: int = 1,
        preemption_overhead: float = 0.0,
        instrument: "Instrument | None" = None,
        faults: "FaultPlan | None" = None,
        retain_records: bool = True,
        profiler: "PhaseProfiler | None" = None,
        checkpoint_every: int | None = None,
        checkpointer: "Checkpointer | None" = None,
    ) -> None:
        if not transactions:
            raise SimulationError("cannot simulate an empty transaction pool")
        if servers < 1:
            raise SimulationError(f"servers must be >= 1, got {servers}")
        if preemption_overhead < 0:
            raise SimulationError(
                f"preemption_overhead must be >= 0, got {preemption_overhead}"
            )
        if (checkpoint_every is None) != (checkpointer is None):
            raise SimulationError(
                "checkpoint_every and checkpointer must be given together"
            )
        if checkpoint_every is not None:
            if checkpoint_every < 1:
                raise SimulationError(
                    f"checkpoint_every must be >= 1, got {checkpoint_every}"
                )
            if profiler is not None:
                raise SimulationError(
                    "checkpointing cannot be combined with a profiler: "
                    "wall-clock phase timings do not survive a resume"
                )
        self._checkpoint_every = checkpoint_every or 0
        self._checkpointer = checkpointer
        self._resume_pending = False
        self._resume_now = 0.0
        self._events_processed = 0
        self._ckpt_due = 0
        self._overhead = preemption_overhead
        self._instrument = instrument
        self._profiler = profiler
        self._retain_records = retain_records
        self._faults = faults
        self._shed_policy: "ShedPolicy | None" = None
        self._shed_limit: int | None = None
        if faults is not None and faults.spec.backlog_limit is not None:
            from repro.faults.admission import make_shed_policy

            self._shed_limit = faults.spec.backlog_limit
            self._shed_policy = make_shed_policy(faults.spec.shed_policy)
        self._txns = {txn.txn_id: txn for txn in transactions}
        if len(self._txns) != len(transactions):
            raise SimulationError("duplicate transaction ids in pool")
        # Struct-of-arrays view over the pool: dense pool-order indices,
        # flat hot-field columns, and the engine's ready set.
        self._table = TxnTable(transactions)
        self._policy = policy
        self._servers = servers
        if workflow_set is None and policy.requires_workflows:
            workflow_set = WorkflowSet(list(transactions))
        if workflow_set is not None:
            pool = workflow_set.transactions
            if pool.keys() != self._txns.keys():
                raise SimulationError(
                    "workflow_set was built over a different transaction pool"
                )
            for txn_id, txn in self._txns.items():
                if pool[txn_id] is not txn:
                    raise SimulationError(
                        "workflow_set was built over other transaction "
                        f"objects: transaction {txn_id} is not the pool's"
                    )
        self._workflows = workflow_set
        self._dependents = _dependents_of(self._txns)
        self._check_acyclic()
        # Run state (initialised in run()).
        self._events = EventQueue()
        self._seq = itertools.count()
        self._pending_deps: dict[int, int] = {}
        self._running: dict[int, _Dispatch] = {}
        self._token_counter = 0
        self._completed = 0
        #: Transactions in any terminal state (completed + aborted +
        #: shed); the run loop drains until every transaction finished.
        self._finished = 0
        self._down = 0
        self._fault_state: dict[int, _FaultState] = {}
        self.scheduling_points = 0
        self.preemptions = 0

    def _check_acyclic(self) -> None:
        indegree = {
            tid: len(txn.depends_on)
            for tid, txn in self._txns.items()
            if txn.depends_on
        }
        frontier = [
            tid for tid, txn in self._txns.items() if not txn.depends_on
        ]
        visited = 0
        while frontier:
            tid = frontier.pop()
            visited += 1
            for succ in self._dependents.get(tid, ()):
                indegree[succ] -= 1
                if indegree[succ] == 0:
                    frontier.append(succ)
        if visited != len(self._txns):
            raise SimulationError("dependency graph contains a cycle")

    # ------------------------------------------------------------------
    # Main loop.
    # ------------------------------------------------------------------
    def run(self) -> SimulationResult:
        """Execute the workload to completion and return the result.

        On a simulator built by :meth:`resume_from` the first call
        continues the checkpointed run instead of starting over: no
        reset, no ``on_run_start`` (the resumed instrument and log
        already carry the run's opening), picking up at the snapshot's
        simulated time.
        """
        n = len(self._txns)
        if self._resume_pending:
            self._resume_pending = False
            now = self._resume_now
        else:
            self._reset()
            if self._instrument is not None:
                self._instrument.on_run_start(
                    self._policy.name, n, self._servers
                )
            now = 0.0
        profiler = self._profiler
        ckpt = self._checkpointer
        events = self._events
        handlers = self._handlers()
        while self._finished < n:
            if not events:
                raise SimulationError(
                    f"event queue exhausted with {n - self._finished} "
                    "transactions unfinished"
                )
            if profiler is not None:
                # Profiled loop body: identical work, phase-timed.  Kept
                # as a separate branch so the unprofiled path below pays
                # nothing (the zero-cost-when-off contract, RL001).
                t_pop = perf_counter()
                batch = events.pop_batch()
                now = batch[0].time
                t_sync = perf_counter()
                profiler.engine_phase("pop", t_sync - t_pop)
                if self._running:
                    self._sync_running(now)
                t_events = perf_counter()
                profiler.engine_phase("sync", t_events - t_sync)
                for event in batch:
                    t_handle = perf_counter()
                    handlers[event.kind](event, now)
                    profiler.engine_phase(
                        "faults" if event.kind in _FAULT_KINDS else "events",
                        perf_counter() - t_handle,
                    )
            else:
                batch = events.pop_batch()
                now = batch[0].time
                if self._running:
                    self._sync_running(now)
                for event in batch:
                    handlers[event.kind](event, now)
            if self._finished >= n:
                break
            self._reschedule(now)
            if ckpt is not None:
                # Post-reschedule safe point: every event of the batch is
                # applied and the dispatch/event-queue state is exactly
                # what the next pop will see.  Event counting only runs
                # with a checkpointer attached (zero-cost-when-off).
                self._events_processed += len(batch)
                if self._events_processed >= self._ckpt_due:
                    self._ckpt_due = (
                        self._events_processed + self._checkpoint_every
                    )
                    ckpt.save(self, now)
        ordered = sorted(self._txns.values(), key=lambda t: t.txn_id)
        summary = StreamSummary.from_transactions(
            ordered, preemptions=self.preemptions
        )
        if self._instrument is not None:
            self._instrument.on_run_end(now, summary)
        return SimulationResult(
            self._policy.name,
            scheduling_points=self.scheduling_points,
            stream_summary=summary,
            transactions=ordered if self._retain_records else (),
        )

    def _reset(self) -> None:
        for txn in self._txns.values():
            txn.reset()
        if self._workflows is not None:
            for wf in self._workflows:
                wf.invalidate()
        # Arrivals come off the pool's columns through the queue's lane,
        # with seqs 0..n-1 in pool order; run-time events continue at n.
        self._events = EventQueue(self._table)
        self._seq = itertools.count(len(self._txns))
        self._pending_deps = {
            tid: len(txn.depends_on) for tid, txn in self._txns.items()
        }
        self._running = {}
        self._token_counter = 0
        self._completed = 0
        self._finished = 0
        self._down = 0
        self._table.reset()
        self.scheduling_points = 0
        self.preemptions = 0
        self._events_processed = 0
        self._ckpt_due = self._checkpoint_every
        self._policy.bind(list(self._txns.values()), self._workflows)
        # Probe attachment mirrors the instrument contract: without a
        # profiler the policy's stage methods stay unwrapped.
        self._policy.attach_probe(
            self._profiler.probe() if self._profiler is not None else None
        )
        if self._faults is not None:
            self._fault_state = {
                tid: _FaultState(schedule=sched)
                for tid, sched in sorted(self._faults.schedules.items())
            }
            for window in self._faults.crash_windows:
                self._events.push(
                    Event(window.start, EventKind.CRASH, next(self._seq))
                )
                self._events.push(
                    Event(window.end, EventKind.RECOVER, next(self._seq))
                )
        period = self._policy.activation_period
        if period is not None:
            if period <= 0:
                raise SchedulingError(
                    f"activation_period must be > 0, got {period}"
                )
            self._events.push(
                Event(period, EventKind.ACTIVATION, next(self._seq))
            )

    # ------------------------------------------------------------------
    # Checkpoint / resume (:mod:`repro.ckpt`).
    # ------------------------------------------------------------------
    def _checkpoint_payload(self) -> dict[str, object]:
        """The core engine state a run changes, for one checkpoint save.

        One entry per :data:`_CKPT_CORE_FIELDS` name outside
        :data:`_CKPT_POOL_FIELDS`; the checkpointer writes the pool once
        per run and rebuilds those four on load.  Reading attributes
        mutates nothing — taking a checkpoint must leave the run
        byte-identical to one that never checkpointed.
        """
        return {
            name: getattr(self, name)
            for name in _CKPT_CORE_FIELDS
            if name not in _CKPT_POOL_FIELDS
        }

    @classmethod
    def resume_from(
        cls,
        checkpoint: "Checkpoint",
        *,
        instrument: "Instrument | None" = None,
        checkpoint_every: int | None = None,
        checkpointer: "Checkpointer | None" = None,
    ) -> "Simulator":
        """Rebuild a mid-run simulator from a loaded checkpoint.

        The returned simulator continues the interrupted run: the next
        :meth:`run` call skips the reset and the ``on_run_start`` hook
        and resumes the event loop at the snapshot's simulated time.
        ``instrument`` must itself be the *resumed* instrument (e.g. a
        :class:`~repro.obs.streaming.StreamingRecorder` rebuilt via
        ``from_state``) or ``None``; pass ``checkpointer`` and
        ``checkpoint_every`` to keep checkpointing the resumed run.
        Profilers never survive a resume.
        """
        if (checkpoint_every is None) != (checkpointer is None):
            raise SimulationError(
                "checkpoint_every and checkpointer must be given together"
            )
        if checkpoint_every is not None and checkpoint_every < 1:
            raise SimulationError(
                f"checkpoint_every must be >= 1, got {checkpoint_every}"
            )
        sim = object.__new__(cls)
        for name, value in checkpoint.core.items():
            setattr(sim, name, value)
        sim._policy = checkpoint.restore_policy()
        sim._policy.attach_probe(None)
        sim._instrument = instrument
        sim._profiler = None
        sim._checkpoint_every = checkpoint_every or 0
        sim._checkpointer = checkpointer
        sim._ckpt_due = sim._events_processed + (checkpoint_every or 0)
        sim._resume_pending = True
        sim._resume_now = checkpoint.now
        return sim

    # ------------------------------------------------------------------
    # Event handling.
    # ------------------------------------------------------------------
    def _sync_running(self, now: float) -> None:
        """Charge every running transaction for time since its dispatch."""
        for dispatch in self._running.values():
            elapsed = now - dispatch.since
            if elapsed < 0:
                raise SimulationError(
                    f"time moved backwards: dispatch at {dispatch.since}, "
                    f"event at {now}"
                )
            txn = dispatch.txn
            if dispatch.overhead_left > 0.0:
                # Context-switch overhead is served before real work.
                overhead = min(elapsed, dispatch.overhead_left)
                dispatch.overhead_left -= overhead
                if overhead > 0.0 and self._instrument is not None:
                    self._instrument.on_overhead(txn, overhead, now)
                txn.charge(min(elapsed - overhead, txn.remaining))
            else:
                txn.charge(min(elapsed, txn.remaining))
            dispatch.since = now
            if elapsed > 0 and self._workflows is not None:
                # A charge only shrinks the believed remaining: the
                # workflow aggregates merge in O(1), no re-sweep.
                self._workflows.notify_changed(txn.txn_id, "shrunk")

    def _handlers(self) -> tuple[Callable[[Event, float], None], ...]:
        """The event handlers, indexed by :class:`EventKind` value.

        The run loop dispatches ``handlers[event.kind](event, now)``:
        one tuple index per event instead of a chain of kind tests.
        """
        return tuple(
            getattr(self, f"_handle_{kind.name.lower()}")
            for kind in sorted(EventKind)
        )

    def _handle_completion(self, event: Event, now: float) -> None:
        """Finish the running transaction the event was scheduled for.

        A COMPLETION is pushed per dispatch that changes the completion
        time (see :meth:`_dispatch`), so at most one event per dispatch
        record is live; the rest are stale and return without effect.  A
        stale event that fires alone in its batch still opens a
        scheduling point (the run loop reschedules after every batch).
        """
        dispatch = self._running.get(event.txn_id)
        if dispatch is None:
            return  # stale: that dispatch was preempted earlier
        if event.token != dispatch.token:
            # Usually stale (the dispatch this event was scheduled for was
            # preempted, or re-issued by a stall).  One exception: a
            # continuation whose recomputed completion time drifted by a
            # float ulp was re-issued under a fresh token, so the *old*
            # event can fire first with the work already fully charged —
            # that event IS the completion, a few ulps early.
            if dispatch.txn.remaining > _EPS:
                return
        txn = dispatch.txn
        if txn.remaining > _EPS:
            raise SimulationError(
                f"completion event fired with {txn.remaining} work left "
                f"on transaction {txn.txn_id}"
            )
        txn.remaining = 0.0
        txn.mark_completed(now)
        del self._running[event.txn_id]
        self._completed += 1
        self._finished += 1
        self._policy.on_completion(txn, now)
        if self._instrument is not None:
            self._instrument.on_completion(txn, now)
        if self._workflows is not None:
            self._workflows.notify_changed(txn.txn_id)
        self._release_dependents(txn, now)

    def _release_dependents(self, txn: Transaction, now: float) -> None:
        """Unblock dependents once ``txn`` reached a terminal state.

        Shared by completion and by the terminal fault outcomes
        (aborted-exhausted, shed): a dead dependency no longer gates its
        dependents — the page renders the fragment from a fallback, the
        dependent fragments still materialise (documented in
        ``docs/faults.md``).  A dependent parked in retry-wait is never
        touched here: its dependencies completed before it first ran, so
        its pending count is already zero.
        """
        for dep_id in self._dependents.get(txn.txn_id, ()):
            self._pending_deps[dep_id] -= 1
            dependent = self._txns[dep_id]
            if (
                self._pending_deps[dep_id] == 0
                and dependent.state is TransactionState.WAITING
            ):
                dependent.mark_ready()
                self._table.mark_ready(dep_id)
                self._policy.on_ready(dependent, now)

    def _handle_arrival(self, event: Event, now: float) -> None:
        txn = self._txns[event.txn_id]
        self._policy.on_arrival(txn, now)
        if self._instrument is not None:
            self._instrument.on_arrival(txn, now)
        if self._pending_deps[txn.txn_id] == 0:
            txn.mark_ready()
            self._table.mark_ready(txn.txn_id)
            self._policy.on_ready(txn, now)
        else:
            txn.mark_waiting()
        if self._workflows is not None:
            # A new pending member only improves the min/max aggregates.
            self._workflows.notify_changed(txn.txn_id, "arrived")

    def _handle_activation(self, event: Event, now: float) -> None:
        self._policy.on_activation(now)
        period = self._policy.activation_period
        if period is not None and self._finished < len(self._txns):
            self._events.push(
                Event(now + period, EventKind.ACTIVATION, next(self._seq))
            )

    # ------------------------------------------------------------------
    # Fault injection (:mod:`repro.faults`); no-ops without a fault plan.
    # ------------------------------------------------------------------
    def _pending_trigger(
        self, txn: Transaction, state: _FaultState
    ) -> tuple[str, float] | None:
        """The next planned fault of the current attempt, or ``None``.

        Thresholds are served-time positions within the attempt.  On a
        tie the stall fires first (it keeps the transaction running, so
        the subsequent abort still has something to interrupt).
        """
        sched = state.schedule
        best: tuple[str, float] | None = None
        if sched.stall_at is not None and not state.stall_fired:
            best = ("stall", sched.stall_at)
        if state.next_abort < len(sched.abort_points):
            abort_at = sched.abort_points[state.next_abort]
            if best is None or abort_at < best[1]:
                best = ("abort", abort_at)
        return best

    def _fault_trigger_time(
        self, txn: Transaction, now: float, overhead: float
    ) -> float | None:
        """When the attempt's next fault trigger fires, if before completion.

        Computed at dispatch (and after a stall re-issues the completion):
        the trigger fires once the attempt has served up to the planned
        threshold.  A preemption makes the event stale via its dispatch
        ``token`` — the work postpones, and so does the fault.
        """
        state = self._fault_state.get(txn.txn_id)
        if state is None:
            return None
        trigger = self._pending_trigger(txn, state)
        if trigger is None:
            return None
        delta = trigger[1] - txn.attempt_served
        if delta >= txn.remaining - 1e-12:
            return None  # the attempt completes before the fault lands
        return now + overhead + max(0.0, delta)

    def _handle_fault(self, event: Event, now: float) -> None:
        dispatch = self._running.get(event.txn_id)
        if dispatch is None or event.token != dispatch.token:
            return  # stale: that dispatch was preempted or re-issued
        txn = dispatch.txn
        state = self._fault_state[txn.txn_id]
        trigger = self._pending_trigger(txn, state)
        if trigger is None:  # pragma: no cover - defensive
            return
        if trigger[0] == "stall":
            self._fire_stall(dispatch, state, now)
        else:
            self._fire_abort(dispatch, state, now)

    def _fire_stall(
        self, dispatch: _Dispatch, state: _FaultState, now: float
    ) -> None:
        """Inflate the running attempt's true remaining work.

        The belief is untouched (a stall is invisible to the scheduler
        until the work out-lives its estimate), but the pending
        completion event is now premature: re-issue it under a fresh
        token and re-arm the next trigger of this attempt.
        """
        txn = dispatch.txn
        extra = state.schedule.stall_extra
        state.stall_fired = True
        txn.inflate(extra)
        if self._instrument is not None:
            self._instrument.on_stall(txn, extra, now)
        if self._workflows is not None:
            # Only engine-truth remaining moved; believed aggregates
            # are untouched (a stall is invisible to the scheduler).
            self._workflows.notify_changed(txn.txn_id, "truth")
        dispatch.completion_at = now + dispatch.overhead_left + txn.remaining
        dispatch.fault_at = self._fault_trigger_time(
            txn, now, dispatch.overhead_left
        )
        self._arm(dispatch)

    def _fire_abort(
        self, dispatch: _Dispatch, state: _FaultState, now: float
    ) -> None:
        """Abort the running attempt: retry with backoff, or give up."""
        assert self._faults is not None
        spec = self._faults.spec
        txn = dispatch.txn
        state.next_abort += 1
        attempt = txn.retries
        full_restart = spec.work_loss == "restart"
        lost = txn.attempt_served if full_restart else 0.0
        exhausted = txn.retries >= spec.max_retries
        del self._running[txn.txn_id]
        if exhausted:
            txn.mark_aborted(now)
            self._finished += 1
            self._policy.on_fault(txn, now)
            if self._instrument is not None:
                self._instrument.on_abort(txn, now, lost, attempt, True)
            if self._workflows is not None:
                self._workflows.notify_changed(txn.txn_id)
            self._release_dependents(txn, now)
            return
        txn.mark_retry_wait()
        txn.rollback(full=full_restart)
        self._policy.on_fault(txn, now)
        if self._instrument is not None:
            self._instrument.on_abort(txn, now, lost, attempt, False)
        if self._workflows is not None:
            self._workflows.notify_changed(txn.txn_id)
        delay = spec.retry_delay * spec.retry_backoff**txn.retries
        self._events.push(
            Event(now + delay, EventKind.RETRY, next(self._seq), txn.txn_id)
        )

    def _handle_retry(self, event: Event, now: float) -> None:
        """Re-submit an aborted transaction after its backoff elapsed.

        The re-submission deadline stretches the original *relative*
        deadline by the backoff factor: retry ``k`` (1-based) gets
        ``now + (d - a) * backoff**(k-1)`` — the SLA of a re-issued
        fragment is renegotiated from the moment of re-submission.
        """
        assert self._faults is not None
        txn = self._txns[event.txn_id]
        spec = self._faults.spec
        relative = txn.submitted_deadline - txn.arrival
        new_deadline = now + relative * spec.retry_backoff**txn.retries
        txn.resubmit(now, new_deadline)
        self._table.mark_ready(txn.txn_id)
        if self._instrument is not None:
            self._instrument.on_retry(txn, now, txn.retries, new_deadline)
        self._policy.on_ready(txn, now)
        if self._workflows is not None:
            self._workflows.notify_changed(txn.txn_id)

    def _handle_crash(self, event: Event, now: float) -> None:
        """A crash window opens: one server goes down.

        The dispatch drain is not special-cased: the universal
        suspend-and-reselect of :meth:`_reschedule` already returns every
        running transaction to the ready pool, and the reduced server
        count simply re-dispatches fewer of them (preempted work is
        never lost, so a drained transaction resumes where it stopped).
        """
        self._down += 1
        if self._instrument is not None:
            self._instrument.on_crash(now, self._down)

    def _handle_recover(self, event: Event, now: float) -> None:
        self._down = max(0, self._down - 1)
        if self._instrument is not None:
            self._instrument.on_recover(now, self._down)

    def _shed_overload(self, now: float) -> None:
        """Admission control: shed lowest-value ready work over the limit.

        Runs before the universal suspend, so running work is never a
        victim.  Shedding a transaction releases its dependents (they
        render from fallbacks), which can push the backlog back over the
        limit — hence the loop, which terminates because every pass
        sheds at least one transaction.
        """
        assert self._shed_policy is not None and self._shed_limit is not None
        instrument = self._instrument
        table = self._table
        while True:
            # The ready set is maintained incrementally; materialising it
            # costs O(k log k) of the *ready* population, not an O(pool)
            # state scan — and reproduces the old scan's pool order, so
            # victim enumeration is byte-identical.
            excess = table.ready_count - self._shed_limit
            if excess <= 0:
                return
            ready = table.ready_transactions()
            for txn in self._shed_policy.victims(ready, now, excess):
                txn.mark_shed(now)
                table.unmark_ready(txn.txn_id)
                self._finished += 1
                self._policy.on_fault(txn, now)
                if instrument is not None:
                    instrument.on_shed(txn, now, self._shed_policy.name)
                if self._workflows is not None:
                    self._workflows.notify_changed(txn.txn_id)
                self._release_dependents(txn, now)

    # ------------------------------------------------------------------
    # Dispatch.
    # ------------------------------------------------------------------
    def _reschedule(self, now: float) -> None:
        self.scheduling_points += 1
        instrument = self._instrument
        profiler = self._profiler
        policy = self._policy
        t_body = perf_counter() if profiler is not None else 0.0
        # Admission control runs before the universal suspend: only READY
        # work can be shed, never a transaction holding a server.
        if self._shed_limit is not None:
            self._shed_overload(now)
        table = self._table
        previous = self._running
        # Suspend every running transaction (RUNNING -> READY) and offer
        # it back to the policy.  The flip skips the ready set: an
        # incumbent enters it only if it loses its server (below), so
        # the common re-selection never round-trips through it.
        for dispatch in previous.values():
            txn = dispatch.txn
            if txn.state is not _RUNNING:
                txn._expect_state(_RUNNING)  # raises
            txn.state = _READY
            policy.on_requeue(txn, now)
        self._running = running = {}
        # Suspended incumbents not re-dispatched yet: READY, but outside
        # the ready set until they lose their server.
        suspended = len(previous)

        # Crashed servers accept no work until their window closes.
        available = (
            self._servers
            if self._faults is None
            else max(0, self._servers - self._down)
        )
        select_seconds = 0.0
        for _ in range(available):
            if profiler is not None:
                profiler.select_begin(table.ready_count + suspended)
                t0 = perf_counter()
                candidate = policy.select(now)
                dt = perf_counter() - t0
                select_seconds += dt
                profiler.select_end(dt)
            elif instrument is not None:
                t0 = perf_counter()
                candidate = policy.select(now)
                select_seconds += perf_counter() - t0
            else:
                candidate = policy.select(now)
            if candidate is None:
                break
            if candidate.state is not _READY:
                raise SchedulingError(
                    f"policy {policy.name} selected transaction "
                    f"{candidate.txn_id} in state {candidate.state}"
                )
            if candidate.remaining <= 0:
                raise SchedulingError(
                    f"policy {policy.name} selected finished "
                    f"transaction {candidate.txn_id}"
                )
            incumbent = previous.get(candidate.txn_id)
            if incumbent is not None:
                suspended -= 1
            self._dispatch(candidate, now, incumbent)

        if previous and not running and available > 0:
            raise SchedulingError(
                f"policy {policy.name} idled while "
                f"{sorted(previous)} were runnable"
            )
        if suspended:
            for txn_id, dispatch in previous.items():
                if txn_id not in running:
                    # Preempted: it stays READY and joins the ready set.
                    txn = dispatch.txn
                    table.mark_ready(txn_id)
                    txn.preemptions += 1
                    self.preemptions += 1
                    if instrument is not None:
                        instrument.on_preempt(txn, now)
        if profiler is not None:
            t_emit = perf_counter()
            if instrument is not None:
                instrument.on_scheduling_point(
                    now, table.ready_count, len(running), select_seconds
                )
            t_done = perf_counter()
            profiler.point_end(select_seconds, t_emit - t_body, t_done - t_emit)
        elif instrument is not None:
            instrument.on_scheduling_point(
                now, table.ready_count, len(running), select_seconds
            )

    def _dispatch(
        self, txn: Transaction, now: float, previous: _Dispatch | None
    ) -> None:
        """Hand ``txn`` a server; ``previous`` is its dispatch until now.

        A switch pays the full context-switch overhead and leaves the
        ready set; a continuation (a re-selected incumbent, never in the
        ready set) flips back to RUNNING and keeps the unfinished
        overhead of its own dispatch.  A continuation whose recomputed
        completion and fault-trigger times are bit-identical to its
        pending events keeps its dispatch record and token: those events
        are exactly the ones a re-dispatch would push, so nothing is
        re-issued.  Any drift (a float ulp from recharging work or
        serving leftover overhead, a moved fault trigger) issues fresh
        events under a new token.
        """
        if previous is None:
            txn.mark_running(now)
            self._table.unmark_ready(txn.txn_id)
            overhead = self._overhead
        else:
            if txn.state is not _READY:
                txn._expect_state(_READY)  # raises
            txn.state = _RUNNING
            txn.last_dispatch_time = now
            overhead = previous.overhead_left
        if self._instrument is not None:
            self._instrument.on_dispatch(txn, now, overhead)
        completion_at = now + overhead + txn.remaining
        fault_at = (
            self._fault_trigger_time(txn, now, overhead)
            if self._faults is not None
            else None
        )
        if (
            previous is not None
            and previous.completion_at == completion_at
            and previous.fault_at == fault_at
        ):
            self._running[txn.txn_id] = previous
            return
        dispatch = _Dispatch(
            txn=txn,
            since=now,
            token=0,  # issued by _arm
            overhead_left=overhead,
            completion_at=completion_at,
            fault_at=fault_at,
        )
        self._running[txn.txn_id] = dispatch
        self._arm(dispatch)

    def _arm(self, dispatch: _Dispatch) -> None:
        """Issue a fresh token and push the dispatch's pending events.

        Events pushed under an older token of the same transaction go
        stale; :meth:`_handle_completion` and :meth:`_handle_fault` skip
        them when they fire.
        """
        self._token_counter += 1
        token = dispatch.token = self._token_counter
        txn_id = dispatch.txn.txn_id
        self._events.push(
            Event(
                dispatch.completion_at,
                EventKind.COMPLETION,
                next(self._seq),
                txn_id,
                token,
            )
        )
        if dispatch.fault_at is not None:
            self._events.push(
                Event(
                    dispatch.fault_at,
                    EventKind.FAULT,
                    next(self._seq),
                    txn_id,
                    token,
                )
            )
