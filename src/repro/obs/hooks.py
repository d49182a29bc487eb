"""Engine instrumentation hooks.

The simulator accepts an optional *instrument* — an object implementing
the :class:`Instrument` callback protocol — and notifies it of every
interesting engine event: arrivals, dispatches, preemptions, completions
and scheduling points.  The design goals, in order:

1. **Zero cost when off.**  With ``instrument=None`` (the default) the
   engine's hot path pays a single ``is not None`` check per call site —
   no attribute lookups, no method calls, no ``perf_counter`` reads.
   A guard test (``tests/obs/test_overhead_guard.py``) enforces this.
2. **Small surface.**  Hooks receive the live
   :class:`~repro.core.transaction.Transaction` objects, not copies;
   instruments must treat them as read-only and must not retain them
   past the callback (the engine mutates them freely).
3. **Composability.**  :class:`MultiInstrument` fans every callback out
   to several instruments, so a metrics collector and an event logger
   can observe the same run without knowing about each other.

:class:`Instrument` is a concrete base class whose callbacks are all
no-ops; subclasses override only the events they care about.
:class:`NullInstrument` is an explicit do-nothing instrument, useful
when an API requires *some* instrument, and as the reference point for
the overhead guard.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Sequence

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.transaction import Transaction
    from repro.sim.results import StreamSummary

__all__ = ["Instrument", "NullInstrument", "MultiInstrument"]


class Instrument:
    """Base instrumentation protocol: every callback is a no-op.

    Callback order within one simulated instant: event handlers first
    (``on_arrival`` / ``on_completion`` in event order), then
    ``on_dispatch`` / ``on_preempt`` for the scheduling decision, and
    finally one ``on_scheduling_point`` closing the instant.
    """

    def on_run_start(
        self, policy_name: str, n_transactions: int, servers: int
    ) -> None:
        """The run is about to execute its first event."""

    def on_arrival(self, txn: "Transaction", now: float) -> None:
        """``txn`` was submitted (it may still wait on dependencies)."""

    def on_dispatch(self, txn: "Transaction", now: float, overhead: float) -> None:
        """``txn`` was handed a server; ``overhead`` is the context-switch
        cost it still has to serve before real work resumes."""

    def on_preempt(self, txn: "Transaction", now: float) -> None:
        """``txn`` lost its server to another transaction."""

    def on_overhead(self, txn: "Transaction", amount: float, now: float) -> None:
        """``txn`` actually paid ``amount`` time units of context-switch
        overhead (reported when charged, not when assigned)."""

    def on_completion(self, txn: "Transaction", now: float) -> None:
        """``txn`` finished all its work."""

    # ------------------------------------------------------------------
    # Fault-injection hooks (:mod:`repro.faults`); never called without
    # a fault plan.
    # ------------------------------------------------------------------
    def on_stall(self, txn: "Transaction", amount: float, now: float) -> None:
        """A transient stall inflated ``txn``'s true remaining work by
        ``amount`` time units (the scheduler's belief is untouched)."""

    def on_abort(
        self,
        txn: "Transaction",
        now: float,
        lost: float,
        attempt: int,
        exhausted: bool,
    ) -> None:
        """Attempt ``attempt`` (0-based) of ``txn`` was aborted.

        ``lost`` is the served work discarded by the rollback (0 under
        checkpoint-resume work loss).  ``exhausted`` marks the terminal
        abort: the retry budget is spent and ``txn`` will never run
        again."""

    def on_retry(
        self, txn: "Transaction", now: float, attempt: int, deadline: float
    ) -> None:
        """``txn`` was re-submitted as attempt ``attempt`` (1-based)
        with the backoff-extended ``deadline``."""

    def on_crash(self, now: float, down: int) -> None:
        """A server crash window opened; ``down`` servers are now down."""

    def on_recover(self, now: float, down: int) -> None:
        """A crash window closed; ``down`` servers remain down."""

    def on_shed(self, txn: "Transaction", now: float, reason: str) -> None:
        """Admission control rejected ready ``txn`` (overload);
        ``reason`` names the shed policy that picked it."""

    def on_scheduling_point(
        self, now: float, ready: int, running: int, select_seconds: float
    ) -> None:
        """The engine finished one scheduling point.

        Parameters
        ----------
        now:
            Simulated time of the scheduling point.
        ready:
            Transactions ready but *not* dispatched (the backlog).
        running:
            Servers busy after the dispatch decisions.
        select_seconds:
            Wall-clock seconds spent inside ``policy.select`` at this
            point (measured with ``perf_counter``; 0.0 only if the
            policy was never consulted).
        """

    def on_run_end(self, now: float, summary: "StreamSummary") -> None:
        """The last transaction finished at simulated time ``now``.

        ``summary`` is the run's one tally of outcomes (Definitions 3-5
        and the outcome counts), the same object the result reads;
        instruments report from it instead of counting again."""


class NullInstrument(Instrument):
    """An instrument that ignores everything (explicit no-op)."""

    __slots__ = ()


class MultiInstrument(Instrument):
    """Fan every callback out to several instruments, in order.

    Examples
    --------
    >>> from repro.obs.hooks import MultiInstrument, NullInstrument
    >>> multi = MultiInstrument([NullInstrument(), NullInstrument()])
    >>> len(multi.instruments)
    2
    """

    __slots__ = ("instruments",)

    def __init__(self, instruments: Iterable[Instrument]) -> None:
        self.instruments: Sequence[Instrument] = tuple(instruments)

    def on_run_start(
        self, policy_name: str, n_transactions: int, servers: int
    ) -> None:
        for ins in self.instruments:
            ins.on_run_start(policy_name, n_transactions, servers)

    def on_arrival(self, txn: "Transaction", now: float) -> None:
        for ins in self.instruments:
            ins.on_arrival(txn, now)

    def on_dispatch(self, txn: "Transaction", now: float, overhead: float) -> None:
        for ins in self.instruments:
            ins.on_dispatch(txn, now, overhead)

    def on_preempt(self, txn: "Transaction", now: float) -> None:
        for ins in self.instruments:
            ins.on_preempt(txn, now)

    def on_overhead(self, txn: "Transaction", amount: float, now: float) -> None:
        for ins in self.instruments:
            ins.on_overhead(txn, amount, now)

    def on_completion(self, txn: "Transaction", now: float) -> None:
        for ins in self.instruments:
            ins.on_completion(txn, now)

    def on_stall(self, txn: "Transaction", amount: float, now: float) -> None:
        for ins in self.instruments:
            ins.on_stall(txn, amount, now)

    def on_abort(
        self,
        txn: "Transaction",
        now: float,
        lost: float,
        attempt: int,
        exhausted: bool,
    ) -> None:
        for ins in self.instruments:
            ins.on_abort(txn, now, lost, attempt, exhausted)

    def on_retry(
        self, txn: "Transaction", now: float, attempt: int, deadline: float
    ) -> None:
        for ins in self.instruments:
            ins.on_retry(txn, now, attempt, deadline)

    def on_crash(self, now: float, down: int) -> None:
        for ins in self.instruments:
            ins.on_crash(now, down)

    def on_recover(self, now: float, down: int) -> None:
        for ins in self.instruments:
            ins.on_recover(now, down)

    def on_shed(self, txn: "Transaction", now: float, reason: str) -> None:
        for ins in self.instruments:
            ins.on_shed(txn, now, reason)

    def on_scheduling_point(
        self, now: float, ready: int, running: int, select_seconds: float
    ) -> None:
        for ins in self.instruments:
            ins.on_scheduling_point(now, ready, running, select_seconds)

    def on_run_end(self, now: float, summary: "StreamSummary") -> None:
        for ins in self.instruments:
            ins.on_run_end(now, summary)
