"""Simulation outputs.

:class:`SimulationResult` answers the aggregate metrics of Definitions
3–5 (tardiness, average tardiness, average weighted tardiness) and the
worst-case metric of Section IV-F (maximum weighted tardiness) from one
:class:`StreamSummary`, which the engine builds in every run.  The
per-transaction outcomes ride along as an optional attachment: one
typed ``array`` column per :class:`TransactionRecord` field (a
:class:`RecordColumns`), read as a sequence of records built on the
fly.  They are present by default, empty under
``retain_records=False``, and needed only by the per-transaction
queries.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass, fields
from operator import attrgetter
from typing import Any, Iterable, Iterator, NamedTuple, Sequence, overload

from repro.core.transaction import Transaction, TransactionState
from repro.errors import SimulationError

__all__ = [
    "OUTCOMES",
    "tardiness",
    "TransactionRecord",
    "RecordColumns",
    "StreamSummary",
    "SimulationResult",
]


#: Terminal outcomes a record can carry.  ``completed`` is the only one
#: reachable without fault injection; ``aborted`` means the retry budget
#: was exhausted, ``shed`` that admission control rejected the work.
OUTCOMES = ("completed", "aborted", "shed")

#: The transaction states behind :data:`OUTCOMES`, in the same order.
_TXN_OUTCOMES = (
    TransactionState.COMPLETED,
    TransactionState.ABORTED,
    TransactionState.SHED,
)
_STATE_TO_OUTCOME = dict(zip(_TXN_OUTCOMES, OUTCOMES))

#: The row shape :meth:`StreamSummary._fold` reads, from either source.
_TXN_FIELDS = attrgetter(
    "txn_id", "state", "finish_time", "deadline", "weight", "arrival", "retries"
)
_RECORD_FIELDS = attrgetter(
    "txn_id", "outcome", "finish", "deadline", "weight", "arrival", "retries"
)

#: The :class:`StreamSummary` fields a merge maxes; the others add.
_MAXED = frozenset({"max_tardiness", "max_weighted_tardiness", "makespan"})


def tardiness(finish: float, deadline: float) -> float:
    """Definition 3: :math:`t_i = \\max(0, f_i - d_i)`.

    The one spelling of a completed transaction's tardiness: records,
    instruments and event logs all call it.
    """
    return max(0.0, finish - deadline)


class TransactionRecord(NamedTuple):
    """Immutable per-transaction outcome of one simulation run.

    ``finish`` is the completion time for ``completed`` records and the
    abort/shed time otherwise.  ``first_start`` is ``None`` only for
    transactions shed before ever running.

    A plain tuple, like :class:`~repro.sim.events.Event`: a result's
    :class:`RecordColumns` builds one each time a record is read, and a
    tuple is several times cheaper to build than a frozen dataclass.
    Being a tuple, a record also compares equal to (and sorts like) the
    plain tuple of its fields.
    """

    txn_id: int
    arrival: float
    length: float
    deadline: float
    weight: float
    finish: float
    first_start: float | None
    preemptions: int
    outcome: str = "completed"
    retries: int = 0

    @property
    def tardiness(self) -> float:
        """Definition 3 (:func:`tardiness`); 0 unless completed.

        Tardiness is only defined for work that was actually delivered;
        aborted and shed transactions are accounted as outcome counts,
        not as tardiness mass.
        """
        if self.outcome != "completed":
            return 0.0
        return tardiness(self.finish, self.deadline)

    @property
    def weighted_tardiness(self) -> float:
        """Definition 5's summand: :math:`t_i w_i`."""
        return self.tardiness * self.weight

    @property
    def response_time(self) -> float:
        """Total time in system, :math:`f_i - a_i`."""
        return self.finish - self.arrival

    @property
    def met_deadline(self) -> bool:
        return self.outcome == "completed" and self.finish <= self.deadline

    @classmethod
    def from_transaction(cls, txn: Transaction) -> "TransactionRecord":
        outcome = _STATE_TO_OUTCOME.get(txn.state)
        if outcome is None or txn.finish_time is None:
            raise SimulationError(
                f"transaction {txn.txn_id} did not finish; cannot record"
            )
        if outcome == "completed" and txn.first_start_time is None:
            raise SimulationError(
                f"transaction {txn.txn_id} completed without ever starting"
            )
        # Positional, in field order: the run-end hot path.
        return cls(
            txn.txn_id,
            txn.arrival,
            txn.length,
            txn.deadline,
            txn.weight,
            txn.finish_time,
            txn.first_start_time,
            txn.preemptions,
            outcome,
            txn.retries,
        )


#: Array typecodes of the :class:`RecordColumns` columns, in
#: :class:`TransactionRecord` field order: ``first_start`` holds NaN for
#: ``None``, ``outcome`` the index into :data:`OUTCOMES`.
_TYPECODES = "qddddddiBi"

#: The :class:`~repro.core.transaction.Transaction` attribute behind
#: each :class:`TransactionRecord` field, in field order.
_TXN_ATTRS = (
    "txn_id", "arrival", "length", "deadline", "weight", "finish_time",
    "first_start_time", "preemptions", "state", "retries",
)


class RecordColumns(Sequence[TransactionRecord]):
    """A run's per-transaction outcomes, one typed ``array`` per
    :class:`TransactionRecord` field.

    About 65 bytes a transaction, where a list of record tuples and
    their boxed floats takes about 170.  Read-only: indexing and
    iteration build each record on the fly and keep none, a slice is
    another view, and the view equals any sequence of equal records.
    """

    __slots__ = ("_columns",)

    def __init__(self, columns: tuple[array, ...]) -> None:
        self._columns = columns

    @classmethod
    def from_transactions(cls, txns: Sequence[Transaction]) -> "RecordColumns":
        """The columns of a finished pool, in its order.

        Each column is one C-level attribute read over the pool, listed
        one column at a time: an ``array`` built from a list is sized
        exactly (one built from an iterator over-allocates, and a kept
        result holds its arrays).  A pool holding a transaction without
        an outcome or a start time takes the per-record path instead:
        :meth:`TransactionRecord.from_transaction` raises for an
        unfinished transaction or a completed one that never started,
        and a shed one keeps NaN as its start.
        """
        columns: list[Any] = [map(attrgetter(a), txns) for a in _TXN_ATTRS]
        columns[8] = map(_TXN_OUTCOMES.index, columns[8])
        try:
            return cls(
                tuple(array(t, list(c)) for t, c in zip(_TYPECODES, columns))
            )
        except (ValueError, TypeError):
            return cls.from_records(map(TransactionRecord.from_transaction, txns))

    @classmethod
    def from_records(cls, records: Iterable[TransactionRecord]) -> "RecordColumns":
        """The columns of built records, in their order."""
        columns: list[Any] = list(zip(*records)) or [()] * 10
        columns[6] = [math.nan if s is None else s for s in columns[6]]
        try:
            columns[8] = [OUTCOMES.index(o) for o in columns[8]]
        except ValueError:
            raise SimulationError(
                f"a record outcome is not one of {OUTCOMES}"
            ) from None
        return cls(tuple(array(t, c) for t, c in zip(_TYPECODES, columns)))

    @staticmethod
    def _record(*row: Any) -> TransactionRecord:
        """The record of one row of column values."""
        start = row[6]
        return TransactionRecord(
            *row[:6],
            None if math.isnan(start) else start,
            row[7],
            OUTCOMES[row[8]],
            row[9],
        )

    def __len__(self) -> int:
        return len(self._columns[0])

    @overload
    def __getitem__(self, index: int) -> TransactionRecord: ...

    @overload
    def __getitem__(self, index: slice) -> "RecordColumns": ...

    def __getitem__(
        self, index: int | slice
    ) -> "TransactionRecord | RecordColumns":
        if isinstance(index, slice):
            return RecordColumns(tuple(c[index] for c in self._columns))
        return self._record(*[c[index] for c in self._columns])

    def __iter__(self) -> Iterator[TransactionRecord]:
        return map(self._record, *self._columns)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Sequence) or isinstance(other, str):
            return NotImplemented
        return len(self) == len(other) and all(
            a == b for a, b in zip(self, other)
        )

    def record_of(self, txn_id: int) -> TransactionRecord:
        """The record of ``txn_id``: a bisection of the id column, which
        a run keeps in id order; a linear scan if the bisection misses
        (hand-built records may come in any order)."""
        from bisect import bisect_left

        ids = self._columns[0]
        i = bisect_left(ids, txn_id)
        if i == len(ids) or ids[i] != txn_id:
            try:
                i = ids.index(txn_id)
            except ValueError:
                raise KeyError(f"no record for transaction {txn_id}") from None
        return self[i]

    def finish_order(self) -> list[int]:
        """Transaction ids by finish time (stable)."""
        ids, _, _, _, _, finish, _, _, _, _ = self._columns
        return [ids[i] for i in sorted(range(len(ids)), key=finish.__getitem__)]

    def tardy_records(self) -> list[TransactionRecord]:
        """Records of completed transactions that missed their deadline."""
        _, _, _, deadline, _, finish, _, _, outcome, _ = self._columns
        # Outcome 0 is ``completed`` (:data:`OUTCOMES`).
        return [
            self[i]
            for i in range(len(outcome))
            if outcome[i] == 0 and finish[i] > deadline[i]
        ]

    def tardiness_by_id(self) -> dict[int, float]:
        """Each transaction's tardiness (0 unless completed), by id."""
        ids, _, _, deadline, _, finish, _, _, outcome, _ = self._columns
        return {
            txn_id: tardiness(f, d) if o == 0 else 0.0
            for txn_id, f, d, o in zip(ids, finish, deadline, outcome)
        }


@dataclass(frozen=True, slots=True)
class StreamSummary:
    """The constant-size aggregates of one run.

    The engine builds one in one pass over the transaction pool at run
    end, whether or not it keeps records; every aggregate a
    :class:`SimulationResult` exposes reads it.  Sums are added left to
    right in ``txn_id`` order, exactly as a ``sum()`` over the records
    would add them on Python ≤ 3.11.  Per-transaction queries are not
    answerable from it (use streaming telemetry's top-k for the
    heaviest culprits instead).
    """

    n: int
    completed: int
    tardy: int
    aborted: int
    shed: int
    retries: int
    preemptions: int
    total_tardiness: float
    total_weighted_tardiness: float
    max_tardiness: float
    max_weighted_tardiness: float
    total_response_time: float
    makespan: float

    @classmethod
    def from_transactions(
        cls, transactions: Iterable[Transaction], preemptions: int = 0
    ) -> "StreamSummary":
        return cls._fold(
            map(_TXN_FIELDS, transactions), _TXN_OUTCOMES, preemptions
        )

    @classmethod
    def from_records(
        cls,
        records: Sequence[TransactionRecord],
        preemptions: int | None = None,
    ) -> "StreamSummary":
        """Summarise built records; ``preemptions`` defaults to their sum."""
        if preemptions is None:
            preemptions = sum(r.preemptions for r in records)
        return cls._fold(map(_RECORD_FIELDS, records), OUTCOMES, preemptions)

    @classmethod
    def _fold(
        cls, rows: Iterable[tuple], outcomes: tuple, preemptions: int
    ) -> "StreamSummary":
        """One pass over ``(txn_id, state, finish, deadline, weight,
        arrival, retries)`` rows; ``outcomes`` holds the completed,
        aborted and shed states, in that order.

        A completion on time adds nothing: ``+ 0.0`` leaves a
        non-negative sum unchanged, so skipping it keeps every total bit
        for bit what adding ``max(0, f - d)`` per row would give.
        """
        done, aborted_state = outcomes[0], outcomes[1]
        n = completed = tardy = aborted = shed = retries = 0
        total_t = total_wt = max_t = max_wt = total_resp = makespan = 0.0
        for txn_id, state, finish, deadline, weight, arrival, tries in rows:
            if state not in outcomes or finish is None:
                raise SimulationError(
                    f"transaction {txn_id} did not finish; cannot record"
                )
            n += 1
            retries += tries
            if finish > makespan:
                makespan = finish
            if state != done:
                if state == aborted_state:
                    aborted += 1
                else:
                    shed += 1
                continue
            completed += 1
            total_resp += finish - arrival
            # Definition 3 (:func:`tardiness`) inline: calling it per
            # row roughly doubles the time of this loop.
            tardiness = finish - deadline
            if tardiness > 0.0:
                tardy += 1
                weighted = tardiness * weight
                total_t += tardiness
                total_wt += weighted
                if tardiness > max_t:
                    max_t = tardiness
                if weighted > max_wt:
                    max_wt = weighted
        return cls(
            n=n,
            completed=completed,
            tardy=tardy,
            aborted=aborted,
            shed=shed,
            retries=retries,
            preemptions=preemptions,
            total_tardiness=total_t,
            total_weighted_tardiness=total_wt,
            max_tardiness=max_t,
            max_weighted_tardiness=max_wt,
            total_response_time=total_resp,
            makespan=makespan,
        )

    def merge(self, other: "StreamSummary") -> "StreamSummary":
        """This summary and ``other`` as one: counts and totals added
        field by field (``self`` first), maxima and makespan maxed.

        Float totals depend on the order of the adds, so merge in a
        fixed order when bit-identity matters (sweeps merge in grid
        order).
        """
        merged: dict[str, Any] = {}
        for name in (f.name for f in fields(self)):
            a, b = getattr(self, name), getattr(other, name)
            merged[name] = max(a, b) if name in _MAXED else a + b
        return StreamSummary(**merged)


class SimulationResult:
    """Per-run metrics over a completed transaction set.

    Tardiness metrics — averages, maxima, miss ratio and the percentiles
    of :mod:`repro.metrics.distributions` over :attr:`records` — take
    the *completed* transactions; aborted and shed work is counted by
    outcome, never as a zero-tardiness sample.

    Parameters
    ----------
    policy_name:
        Name of the scheduling policy that produced the run.
    records:
        One :class:`TransactionRecord` per transaction, or empty when
        the run kept none (``retain_records=False``); then
        ``stream_summary`` is required.  Stored as a
        :class:`RecordColumns`, which :attr:`records` reads back.
    scheduling_points:
        How many scheduling points the engine executed (``None`` when the
        result was built outside the engine, e.g. in tests).
    preemptions:
        Total preemptions over the run.  Defaults to the summary's
        count, which for a summary built from records is the sum of the
        per-record preemption counts.
    stream_summary:
        The run's aggregates; every aggregate property answers from it.
        The engine always passes one.  ``None`` builds it from
        ``records``.  Without records the per-transaction queries
        (:meth:`record_of`, :meth:`finish_order`,
        :meth:`tardy_records`, :meth:`tardiness_by_id`) raise
        :class:`~repro.errors.SimulationError` since the data was never
        kept.
    transactions:
        The engine's form of ``records``: the finished pool in
        ``txn_id`` order, read into the same columns
        (:meth:`RecordColumns.from_transactions`).
    """

    def __init__(
        self,
        policy_name: str,
        records: Iterable[TransactionRecord] = (),
        scheduling_points: int | None = None,
        preemptions: int | None = None,
        stream_summary: StreamSummary | None = None,
        *,
        transactions: Sequence[Transaction] = (),
    ) -> None:
        self.records = (
            RecordColumns.from_transactions(transactions)
            if transactions
            else RecordColumns.from_records(records)
        )
        if stream_summary is None:
            if not self.records:
                raise SimulationError("a simulation result needs >= 1 record")
            stream_summary = StreamSummary.from_records(self.records)
        self.policy_name = policy_name
        self.stream_summary = stream_summary
        self.scheduling_points = scheduling_points
        self.total_preemptions = (
            stream_summary.preemptions if preemptions is None else preemptions
        )

    def _need_records(self, what: str) -> None:
        if not self.records:
            raise SimulationError(
                f"{what} needs per-transaction records, but this result "
                "was produced with retain_records=False (streaming mode); "
                "re-run with retention on, or use streaming telemetry's "
                "top-k/sketches for per-transaction questions"
            )

    # ------------------------------------------------------------------
    # Aggregates (Definitions 4 and 5, plus Section IV-F's worst case).
    #
    # Tardiness aggregates average over the *completed* transactions
    # (records carry zero tardiness otherwise); without fault injection
    # every record is completed and the definitions are the paper's.
    # Tardiness percentiles (repro.metrics.distributions, the streaming
    # sketches) take the same population.
    # ------------------------------------------------------------------
    @property
    def n(self) -> int:
        return self.stream_summary.n

    @property
    def _n_completed(self) -> int:
        # guard: an all-failed run averages to 0
        return self.stream_summary.completed or 1

    @property
    def average_tardiness(self) -> float:
        """Definition 4: :math:`\\frac{1}{N}\\sum t_i` over completed work."""
        return self.total_tardiness / self._n_completed

    @property
    def average_weighted_tardiness(self) -> float:
        """Definition 5: :math:`\\frac{1}{N}\\sum t_i w_i` over completed work."""
        return self.total_weighted_tardiness / self._n_completed

    @property
    def max_tardiness(self) -> float:
        return self.stream_summary.max_tardiness

    @property
    def max_weighted_tardiness(self) -> float:
        """Worst-case metric of Figure 16."""
        return self.stream_summary.max_weighted_tardiness

    @property
    def average_response_time(self) -> float:
        return self.stream_summary.total_response_time / self._n_completed

    @property
    def total_tardiness(self) -> float:
        return self.stream_summary.total_tardiness

    @property
    def total_weighted_tardiness(self) -> float:
        return self.stream_summary.total_weighted_tardiness

    @property
    def deadline_miss_ratio(self) -> float:
        """Fraction of completed transactions finishing past their deadline."""
        return self.stream_summary.tardy / self._n_completed

    @property
    def tardy_count(self) -> int:
        """How many transactions completed after their deadline."""
        return self.stream_summary.tardy

    # ------------------------------------------------------------------
    # Outcome taxonomy (fault injection; all-zero in fault-free runs).
    # ------------------------------------------------------------------
    @property
    def completed_count(self) -> int:
        """How many transactions ran to completion."""
        return self.stream_summary.completed

    @property
    def aborted_count(self) -> int:
        """How many transactions exhausted their retry budget."""
        return self.stream_summary.aborted

    @property
    def shed_count(self) -> int:
        """How many transactions admission control rejected."""
        return self.stream_summary.shed

    @property
    def total_retries(self) -> int:
        """Total re-submissions across the run."""
        return self.stream_summary.retries

    @property
    def makespan(self) -> float:
        """Completion time of the last transaction."""
        return self.stream_summary.makespan

    def record_of(self, txn_id: int) -> TransactionRecord:
        self._need_records("record_of()")
        return self.records.record_of(txn_id)

    def finish_order(self) -> list[int]:
        """Transaction ids sorted by completion time."""
        self._need_records("finish_order()")
        return self.records.finish_order()

    def tardy_records(self) -> list[TransactionRecord]:
        """Records of completed transactions that missed their deadline."""
        self._need_records("tardy_records()")
        return self.records.tardy_records()

    def tardiness_by_id(self) -> dict[int, float]:
        """Measured per-transaction tardiness, keyed by transaction id.

        The ground truth the forensics layer (:mod:`repro.obs.analyze`)
        must reproduce from the event log alone — blame components for a
        tardy transaction sum to exactly these values.
        """
        self._need_records("tardiness_by_id()")
        return self.records.tardiness_by_id()

    def summary(self) -> dict[str, float]:
        """A plain-dict summary, convenient for tabulation and JSON."""
        out = {
            "n": float(self.n),
            "average_tardiness": self.average_tardiness,
            "average_weighted_tardiness": self.average_weighted_tardiness,
            "max_tardiness": self.max_tardiness,
            "max_weighted_tardiness": self.max_weighted_tardiness,
            "deadline_miss_ratio": self.deadline_miss_ratio,
            "average_response_time": self.average_response_time,
            "makespan": self.makespan,
            "total_preemptions": float(self.total_preemptions),
            "completed": float(self.completed_count),
            "aborted": float(self.aborted_count),
            "shed": float(self.shed_count),
            "retries": float(self.total_retries),
        }
        if self.scheduling_points is not None:
            out["scheduling_points"] = float(self.scheduling_points)
        return out

    @staticmethod
    def mean_over_runs(
        results: Iterable["SimulationResult"], metric: str
    ) -> float:
        """Average one named metric over several runs (the paper's 5 seeds)."""
        values = [getattr(res, metric) for res in results]
        if not values:
            raise SimulationError("mean_over_runs needs >= 1 result")
        return sum(values) / len(values)

    def __repr__(self) -> str:
        return (
            f"SimulationResult(policy={self.policy_name!r}, n={self.n}, "
            f"avg_tardiness={self.average_tardiness:.3f}, "
            f"avg_weighted={self.average_weighted_tardiness:.3f})"
        )
