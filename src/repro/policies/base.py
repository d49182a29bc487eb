"""The scheduler interface and two reusable base implementations.

The simulator drives a policy through a small set of hooks:

* ``bind(transactions, workflow_set)`` — once, before the run starts;
* ``on_arrival(txn, now)`` — the transaction was submitted (it may still be
  waiting on dependencies);
* ``on_ready(txn, now)`` — all dependencies completed, the transaction is
  eligible to run;
* ``on_requeue(txn, now)`` — the transaction was suspended at a scheduling
  point (its remaining time may have changed) and is ready again;
* ``on_completion(txn, now)`` — the transaction finished;
* ``on_activation(now)`` — a periodic tick fired (only if the policy set
  :attr:`Scheduler.activation_period`);
* ``select(now)`` — return the transaction to run until the next
  scheduling point, or ``None`` to idle.

Two base classes cover the common shapes:

* :class:`ScanScheduler` keeps the ready set in a dict and picks the
  minimum of a key function — simple and exactly right for dynamic keys.
* :class:`HeapScheduler` keeps a lazy binary heap of ``(key, seq, txn)``
  entries, valid for policies whose key only changes when the transaction
  actually runs (deadline, remaining time, density): a fresh entry is
  pushed on every requeue and stale entries are dropped when popped.
"""

from __future__ import annotations

import abc
import heapq
import itertools
from typing import TYPE_CHECKING, Callable, ClassVar, Sequence

from repro.core.transaction import Transaction, TransactionState
from repro.errors import SchedulingError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.core.workflow_set import WorkflowSet
    from repro.obs.profile import Probe

__all__ = ["Scheduler", "ScanScheduler", "HeapScheduler"]


def _spanned(probe: "Probe", span: str, stage: Callable) -> Callable:
    """``stage`` run inside ``probe.span(span)``."""

    def spanned(*args: object) -> object:
        with probe.span(span):
            return stage(*args)

    return spanned


class Scheduler(abc.ABC):
    """Abstract scheduling policy.

    Subclasses must set :attr:`name` and implement :meth:`on_ready` and
    :meth:`select`; everything else has sensible defaults.
    """

    #: Registry name of the policy (e.g. ``"edf"``).
    name: str = "abstract"

    #: If True the simulator builds/propagates a
    #: :class:`~repro.core.workflow_set.WorkflowSet` for this policy.
    requires_workflows: bool = False

    #: If set, the simulator fires :meth:`on_activation` every this many
    #: time units (Section III-D, time-based activation).
    activation_period: float | None = None

    #: Select stages attributed to profiling spans: private method name ->
    #: span name.  :meth:`attach_probe` wraps each listed method in a span
    #: on the instance; a policy without a probe runs the plain methods.
    _stages: ClassVar[dict[str, str]] = {}

    def __init__(self) -> None:
        self._workflow_set: "WorkflowSet | None" = None

    # ------------------------------------------------------------------
    # Lifecycle hooks called by the engine.
    # ------------------------------------------------------------------
    def bind(
        self,
        transactions: Sequence[Transaction],
        workflow_set: "WorkflowSet | None",
    ) -> None:
        """Attach the policy to a run.  Called once before simulation.

        Raises :class:`~repro.errors.SchedulingError` on duplicate
        transaction ids: a policy keyed by id would silently drop all but
        the last duplicate, and its view of the pool would diverge from
        the engine's.  The policy keeps no copy of the pool itself, so a
        checkpoint of it holds only what the run changed.
        """
        # A dict, not a set: a set of the ids takes about twice the memory
        # and raised a 2x10^4-transaction run's peak RSS by half a MB.
        ids = dict.fromkeys(txn.txn_id for txn in transactions)
        if len(ids) != len(transactions):
            counts: dict[int, int] = {}
            for txn in transactions:
                counts[txn.txn_id] = counts.get(txn.txn_id, 0) + 1
            duplicates = sorted(tid for tid, c in counts.items() if c > 1)
            raise SchedulingError(
                f"duplicate transaction ids in bind(): {duplicates}"
            )
        self._workflow_set = workflow_set

    def attach_probe(self, probe: "Probe | None") -> None:
        """Attach (or with ``None`` detach) a profiling probe.

        Called by the engine right after :meth:`bind`.  Every method in
        :attr:`_stages` gets an instance attribute that runs it inside
        ``probe.span(name)``; detaching deletes those attributes, so the
        class methods run again with no probe plumbing at all.  Stages
        are private methods called from :meth:`select` only: spans must
        fire inside it (the profiler's overhead correction is per
        scheduling point), and public hooks stay free for callers that
        wrap them on the instance.
        """
        for method in self._stages:
            self.__dict__.pop(method, None)
        if probe is not None:
            for method, span in self._stages.items():
                setattr(self, method, _spanned(probe, span, getattr(self, method)))

    def on_arrival(self, txn: Transaction, now: float) -> None:
        """The transaction was submitted (possibly still waiting on deps)."""

    @abc.abstractmethod
    def on_ready(self, txn: Transaction, now: float) -> None:
        """The transaction became eligible to run."""

    def on_requeue(self, txn: Transaction, now: float) -> None:
        """A suspended transaction is ready again (remaining time changed).

        Defaults to treating the requeue like a fresh ready notification,
        which is correct for every policy in this package.
        """
        self.on_ready(txn, now)

    def on_completion(self, txn: Transaction, now: float) -> None:
        """The transaction finished.  Default: nothing (lazy removal)."""

    def on_fault(self, txn: Transaction, now: float) -> None:
        """Fault injection moved ``txn`` outside the normal lifecycle.

        Fired on abort (terminal or retry-and-rollback — the rollback
        resets the believed remaining time) and on load shedding.
        Policies with state keyed on believed values must invalidate it
        here; the lazy defaults filter by transaction state, so the base
        implementation does nothing.
        """

    def on_activation(self, now: float) -> None:
        """A periodic activation tick fired (balance-aware policies)."""

    @abc.abstractmethod
    def select(self, now: float) -> Transaction | None:
        """Return the transaction to dispatch, or ``None`` to idle."""

    # ------------------------------------------------------------------
    # Checkpoint hooks (crash-resilient runs, :mod:`repro.ckpt`).
    # ------------------------------------------------------------------
    def snapshot(self) -> object:
        """Opaque picklable scheduling state for a run checkpoint.

        The default returns the policy object itself: the checkpoint
        serialises engine and policy state in a *single* state pickle
        that writes pool objects as references, so every shared
        :class:`~repro.core.transaction.Transaction` reference (ready
        dicts, lazy heaps, workflow views) keeps its identity — which
        makes the default exact for every policy in this package, stale
        heap entries and tie-break history included.
        Subclasses whose derived structures are cheaper to rebuild than
        to serialise may return a reduced state instead, as long as
        :meth:`restore` reproduces *decision-identical* behaviour (the
        resumed run must stay byte-identical to an uninterrupted one).
        """
        return self

    @classmethod
    def restore(cls, state: object) -> "Scheduler":
        """Rebuild a live policy from :meth:`snapshot` output.

        Inverse of :meth:`snapshot`; override the two together.  The
        default expects the snapshotted policy object and hands it back
        after detaching any profiling probe (profilers never survive a
        resume).
        """
        if not isinstance(state, cls):
            raise SchedulingError(
                f"{cls.__name__}.restore() expected a {cls.__name__} "
                f"snapshot, got {type(state).__name__}"
            )
        state.attach_probe(None)
        return state

    # ------------------------------------------------------------------
    # Helpers for subclasses.
    # ------------------------------------------------------------------
    @property
    def workflow_set(self) -> "WorkflowSet | None":
        return self._workflow_set

    @staticmethod
    def _check_ready(txn: Transaction) -> None:
        if txn.state is not TransactionState.READY:
            raise SchedulingError(
                f"policy saw transaction {txn.txn_id} in state "
                f"{txn.state}, expected READY"
            )

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r})"


class ScanScheduler(Scheduler):
    """Keeps the ready set in a dict; :meth:`select` scans for the best key.

    Subclasses implement :meth:`sort_key`, returning a tuple whose smallest
    value identifies the highest-priority transaction.  Appropriate for
    keys that depend on the current time (e.g. slack) or for small ready
    sets; the static-key workhorses use :class:`HeapScheduler` instead.
    """

    _stages = {"_scan": "scan"}

    def __init__(self) -> None:
        super().__init__()
        self._ready: dict[int, Transaction] = {}

    def on_ready(self, txn: Transaction, now: float) -> None:
        self._ready[txn.txn_id] = txn

    def on_completion(self, txn: Transaction, now: float) -> None:
        self._ready.pop(txn.txn_id, None)

    def on_fault(self, txn: Transaction, now: float) -> None:
        # The state filter in select() would skip it anyway; dropping the
        # entry keeps the scan proportional to the live ready set.
        self._ready.pop(txn.txn_id, None)

    def select(self, now: float) -> Transaction | None:
        return self._scan(now)

    def _scan(self, now: float) -> Transaction | None:
        candidates = [
            t for t in self._ready.values() if t.state is TransactionState.READY
        ]
        if not candidates:
            return None
        return min(candidates, key=lambda t: self.sort_key(t, now))

    @abc.abstractmethod
    def sort_key(self, txn: Transaction, now: float) -> tuple:
        """Smallest key = highest priority; must break ties totally."""

    @property
    def ready_transactions(self) -> list[Transaction]:
        """Current ready set (a copy, for wrappers and tests)."""
        return list(self._ready.values())


class HeapScheduler(Scheduler):
    """A lazy-deletion binary heap of ready transactions.

    Valid for priority keys that change only while a transaction runs and
    move monotonically toward higher priority as work is done (remaining
    time shrinks) or never change at all.  Under that assumption the first
    popped entry whose stored key still matches the transaction's current
    key is the true maximum-priority transaction; entries invalidated by a
    requeue or completion are discarded when encountered.
    """

    _stages = {"_heap_pop": "heap-pop"}

    def __init__(self) -> None:
        super().__init__()
        self._heap: list[tuple[float, float, int, int, Transaction]] = []
        self._seq = itertools.count()

    @abc.abstractmethod
    def key(self, txn: Transaction) -> float:
        """Priority key: smallest value = highest priority."""

    def on_ready(self, txn: Transaction, now: float) -> None:
        # Ties break by (arrival, txn_id): a specified total order that
        # does not depend on insertion history, so a requeued transaction
        # keeps its place among equals.  The sequence number only guards
        # against comparing Transaction objects when the same transaction
        # has duplicate equal-key entries.
        heapq.heappush(
            self._heap,
            (self.key(txn), txn.arrival, txn.txn_id, next(self._seq), txn),
        )

    def select(self, now: float) -> Transaction | None:
        return self._heap_pop()

    def _heap_pop(self) -> Transaction | None:
        heap = self._heap
        while heap:
            stored_key, _, _, _, txn = heap[0]
            if txn.state is not TransactionState.READY:
                heapq.heappop(heap)
                continue
            if stored_key != self.key(txn):
                heapq.heappop(heap)  # superseded by a requeued entry
                continue
            return txn
        return None

    @property
    def pending_entries(self) -> int:
        """Number of heap entries, stale ones included (for tests)."""
        return len(self._heap)
