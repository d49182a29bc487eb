"""The transaction model of Definition 1.

A *web transaction* is the unit of scheduling: it materialises one content
fragment of a dynamic web page against the backend database.  Following the
paper, a transaction :math:`T_i` is characterised by

* an arrival time :math:`a_i` — when it was submitted to the database,
* a soft deadline :math:`d_i` — the SLA of the fragment it materialises,
* a length :math:`l_i` and remaining processing time :math:`r_i`,
* a weight :math:`w_i` — its importance, and
* a dependency list :math:`l_i` — the transactions that must complete first
  (held here as a tuple of transaction ids, ``depends_on``).

Instances are mutable because the simulator charges processing time to the
running transaction and moves it through its lifecycle; all *static*
characteristics are validated once at construction time.
"""

from __future__ import annotations

import enum
import math
from typing import Iterable

from repro.errors import InvalidTransactionError

__all__ = ["Transaction", "TransactionState"]


class TransactionState(enum.Enum):
    """Lifecycle of a transaction inside the simulator.

    The normal progression is ``CREATED -> WAITING -> READY -> RUNNING ->
    COMPLETED``, with possible ``RUNNING -> READY`` moves on preemption and
    a direct ``CREATED -> READY`` move for independent transactions whose
    dependency list is empty on arrival.

    Fault injection (:mod:`repro.faults`) adds two terminal failure states
    and one loop: an injected abort moves ``RUNNING -> WAITING`` (awaiting
    re-submission) and back to ``READY`` on retry, or ``RUNNING -> ABORTED``
    once the retry budget is exhausted; admission control moves
    ``READY -> SHED``.  Without a fault plan these transitions never occur.
    """

    CREATED = "created"
    WAITING = "waiting"
    READY = "ready"
    RUNNING = "running"
    COMPLETED = "completed"
    ABORTED = "aborted"
    SHED = "shed"


class Transaction:
    """A single web transaction (Definition 1 of the paper).

    Parameters
    ----------
    txn_id:
        Unique integer identifier within one workload.
    arrival:
        Arrival time :math:`a_i \\ge 0`.
    length:
        Total processing requirement :math:`l_i > 0`.
    deadline:
        Soft deadline :math:`d_i`; must not precede the arrival time.
    weight:
        Importance :math:`w_i > 0`; defaults to 1 (the unweighted case).
    depends_on:
        Ids of the transactions in the dependency list; empty for an
        independent transaction.

    Examples
    --------
    >>> from repro.policies.ordering import feasible_at, slack
    >>> t = Transaction(1, arrival=0.0, length=3.0, deadline=10.0)
    >>> slack(t.deadline, t.scheduling_remaining, now=0.0)
    7.0
    >>> feasible_at(t.deadline, t.scheduling_remaining, now=8.0)
    False
    """

    __slots__ = (
        "txn_id",
        "arrival",
        "length",
        "deadline",
        "weight",
        "depends_on",
        "length_estimate",
        "submitted_deadline",
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

    #: Floor for a positive believed remaining time: an under-estimated
    #: transaction that has out-lived its estimate still needs a valid
    #: (tiny) remaining time for density/SRPT priorities.
    _MIN_BELIEF = 1e-6

    def __init__(
        self,
        txn_id: int,
        arrival: float,
        length: float,
        deadline: float,
        weight: float = 1.0,
        depends_on: Iterable[int] = (),
        length_estimate: float | None = None,
    ) -> None:
        depends_on = tuple(depends_on)
        self._validate(txn_id, arrival, length, deadline, weight, depends_on)
        if length_estimate is None:
            length_estimate = length
        if not math.isfinite(length_estimate) or length_estimate <= 0:
            raise InvalidTransactionError(
                f"length_estimate must be finite and > 0, got {length_estimate}"
            )
        self.txn_id = txn_id
        self.arrival = float(arrival)
        self.length = float(length)
        self.deadline = float(deadline)
        self.weight = float(weight)
        self.depends_on = depends_on
        #: The scheduler's belief about the length ("computed by the
        #: system based on previous statistics and profiles", §II-A).
        #: Equal to the true length unless the workload injected
        #: estimation error.
        self.length_estimate = float(length_estimate)
        #: The deadline as originally submitted.  ``deadline`` itself is
        #: mutable only under fault injection (re-submission after an abort
        #: extends it with backoff); :meth:`reset` restores this value.
        self.submitted_deadline = float(deadline)
        # Mutable simulation state.  ``remaining`` is ground truth (the
        # engine's accounting); ``scheduling_remaining`` is the belief
        # policies rank by.  The two coincide when the length estimate is
        # exact (the default).
        self.remaining = float(length)
        self.scheduling_remaining = self.length_estimate
        self.state = TransactionState.CREATED
        self.finish_time: float | None = None
        self.first_start_time: float | None = None
        self.last_dispatch_time: float | None = None
        self.preemptions = 0
        self.retries = 0
        #: Processing time served during the *current* attempt; the fault
        #: layer consults it to decide when an abort trigger fires and how
        #: much work a full-restart abort loses.
        self.attempt_served = 0.0

    @staticmethod
    def _validate(
        txn_id: int,
        arrival: float,
        length: float,
        deadline: float,
        weight: float,
        depends_on: tuple[int, ...],
    ) -> None:
        if not isinstance(txn_id, int):
            raise InvalidTransactionError(f"txn_id must be an int, got {txn_id!r}")
        for name, value in (
            ("arrival", arrival),
            ("length", length),
            ("deadline", deadline),
            ("weight", weight),
        ):
            if not math.isfinite(value):
                raise InvalidTransactionError(f"{name} must be finite, got {value!r}")
        if arrival < 0:
            raise InvalidTransactionError(f"arrival must be >= 0, got {arrival}")
        if length <= 0:
            raise InvalidTransactionError(f"length must be > 0, got {length}")
        if weight <= 0:
            raise InvalidTransactionError(f"weight must be > 0, got {weight}")
        if deadline < arrival:
            raise InvalidTransactionError(
                f"deadline {deadline} precedes arrival {arrival}"
            )
        if txn_id in depends_on:
            raise InvalidTransactionError(f"transaction {txn_id} depends on itself")
        if len(set(depends_on)) != len(depends_on):
            raise InvalidTransactionError(
                f"duplicate ids in dependency list: {depends_on}"
            )

    # ------------------------------------------------------------------
    # Lifecycle predicates.  Slack and feasibility (Definitions 2, 6, 7)
    # are :mod:`repro.policies.ordering`'s; tardiness (Definitions 3-5)
    # is :class:`~repro.sim.results.TransactionRecord`'s.
    # ------------------------------------------------------------------
    @property
    def is_independent(self) -> bool:
        """True iff the dependency list is empty."""
        return not self.depends_on

    @property
    def is_completed(self) -> bool:
        return self.state is TransactionState.COMPLETED

    @property
    def is_finished(self) -> bool:
        """True iff the transaction reached any terminal state.

        Terminal states are COMPLETED, ABORTED (retry budget exhausted)
        and SHED (rejected by admission control); the latter two only
        occur under fault injection.
        """
        return self.state in (
            TransactionState.COMPLETED,
            TransactionState.ABORTED,
            TransactionState.SHED,
        )

    # ------------------------------------------------------------------
    # Lifecycle transitions, called by the simulation engine only.
    # ------------------------------------------------------------------
    def mark_waiting(self) -> None:
        self._expect_state(TransactionState.CREATED)
        self.state = TransactionState.WAITING

    def mark_ready(self) -> None:
        if self.state not in (TransactionState.CREATED, TransactionState.WAITING):
            raise InvalidTransactionError(
                f"cannot mark {self!r} ready from state {self.state}"
            )
        self.state = TransactionState.READY

    def mark_running(self, now: float) -> None:
        self._expect_state(TransactionState.READY)
        self.state = TransactionState.RUNNING
        if self.first_start_time is None:
            self.first_start_time = now
        self.last_dispatch_time = now

    def mark_suspended(self) -> None:
        """Move RUNNING -> READY without counting a preemption.

        The engine suspends the running transaction at *every* scheduling
        point so the policy can reconsider it; only when a different
        transaction is then dispatched does the suspension count as a real
        preemption (the engine bumps :attr:`preemptions` explicitly).
        """
        self._expect_state(TransactionState.RUNNING)
        self.state = TransactionState.READY

    def mark_preempted(self) -> None:
        """Move RUNNING -> READY and count a preemption."""
        self.mark_suspended()
        self.preemptions += 1

    def charge(self, amount: float) -> None:
        """Charge ``amount`` time units of processing to this transaction."""
        if amount < 0:
            raise InvalidTransactionError(f"cannot charge negative time {amount}")
        if amount > self.remaining + 1e-9:
            raise InvalidTransactionError(
                f"charge {amount} exceeds remaining {self.remaining} "
                f"of transaction {self.txn_id}"
            )
        self.remaining = max(0.0, self.remaining - amount)
        self.attempt_served += amount
        if self.remaining <= 0.0:
            self.scheduling_remaining = 0.0
        else:
            self.scheduling_remaining = max(
                self._MIN_BELIEF, self.scheduling_remaining - amount
            )

    def inflate(self, extra: float) -> None:
        """Add ``extra`` ground-truth work (a transient processing stall).

        The scheduler's belief is deliberately left untouched: a stall is
        invisible until the transaction out-lives its estimate, exactly
        like an under-estimated length (§II-A).
        """
        if extra < 0 or not math.isfinite(extra):
            raise InvalidTransactionError(
                f"stall amount must be finite and >= 0, got {extra}"
            )
        self.remaining += extra

    def mark_completed(self, now: float) -> None:
        self._expect_state(TransactionState.RUNNING)
        if self.remaining > 1e-9:
            raise InvalidTransactionError(
                f"transaction {self.txn_id} completed with {self.remaining} "
                "time units of work left"
            )
        self.remaining = 0.0
        self.scheduling_remaining = 0.0
        self.state = TransactionState.COMPLETED
        self.finish_time = now

    # ------------------------------------------------------------------
    # Fault-injection transitions (:mod:`repro.faults`), engine-driven.
    # ------------------------------------------------------------------
    def mark_retry_wait(self) -> None:
        """Move RUNNING -> WAITING after an injected abort, pending retry."""
        self._expect_state(TransactionState.RUNNING)
        self.state = TransactionState.WAITING

    def rollback(self, full: bool) -> None:
        """Discard the current attempt's progress after an abort.

        ``full`` restarts from scratch (work-loss ``"restart"``: both the
        ground truth and the belief return to their initial values);
        otherwise the attempt resumes from its checkpoint (work-loss
        ``"checkpoint"``: nothing is re-done).  Either way a new attempt
        begins, so :attr:`attempt_served` is zeroed.
        """
        if full:
            self.remaining = self.length
            self.scheduling_remaining = self.length_estimate
        self.attempt_served = 0.0

    def resubmit(self, now: float, deadline: float) -> None:
        """Re-enter the ready pool after the retry backoff elapsed."""
        self._expect_state(TransactionState.WAITING)
        if deadline < now:
            raise InvalidTransactionError(
                f"re-submission deadline {deadline} precedes retry time {now}"
            )
        self.deadline = float(deadline)
        self.retries += 1
        self.state = TransactionState.READY

    def mark_aborted(self, now: float) -> None:
        """Terminal abort: the retry budget is exhausted."""
        self._expect_state(TransactionState.RUNNING)
        self.state = TransactionState.ABORTED
        self.finish_time = now

    def mark_shed(self, now: float) -> None:
        """Terminal rejection by admission control (READY work only)."""
        self._expect_state(TransactionState.READY)
        self.state = TransactionState.SHED
        self.finish_time = now

    def reset(self) -> None:
        """Restore the transaction to its pre-simulation state.

        Lets a single generated workload be replayed under several
        policies without regenerating it.
        """
        self.deadline = self.submitted_deadline
        self.remaining = self.length
        self.scheduling_remaining = self.length_estimate
        self.state = TransactionState.CREATED
        self.finish_time = None
        self.first_start_time = None
        self.last_dispatch_time = None
        self.preemptions = 0
        self.retries = 0
        self.attempt_served = 0.0

    def _expect_state(self, expected: TransactionState) -> None:
        if self.state is not expected:
            raise InvalidTransactionError(
                f"transaction {self.txn_id}: expected state {expected}, "
                f"found {self.state}"
            )

    def __repr__(self) -> str:
        return (
            f"Transaction(id={self.txn_id}, a={self.arrival:g}, "
            f"l={self.length:g}, r={self.remaining:g}, d={self.deadline:g}, "
            f"w={self.weight:g}, deps={list(self.depends_on)}, "
            f"state={self.state.value})"
        )
