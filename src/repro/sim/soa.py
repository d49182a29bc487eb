"""Array-backed struct-of-arrays bookkeeping over the transaction pool.

The engine's per-transaction hot state historically lived only on the
:class:`~repro.core.transaction.Transaction` objects, which makes every
"which transactions are currently X" question an O(pool) scan over
attribute lookups.  At the million-transaction tier those scans dominate
(admission control re-enumerated the whole pool at every scheduling
point under a backlog limit).

:class:`TxnTable` is the first step of the struct-of-arrays refactor: it
pins each transaction to a dense index in **pool order** (the order the
pool was handed to the engine — also the iteration order of the engine's
``_txns`` dict, which older scan code relied on) and keeps

* the ``ids`` and ``arrival`` columns the event queue's arrival lane reads;
* the **ready set** as a set of dense indices, maintained by the engine
  at the exact sites that previously incremented/decremented its ready
  counter.  ``ready_count`` is O(1) and
  :meth:`ready_transactions` materialises the ready pool in pool order
  in O(k log k) of the *ready* population — replacing the O(pool) state
  scan, with a byte-identical resulting list.

Mutable believed/served quantities (``remaining``,
``scheduling_remaining``, dynamic deadlines across retries) intentionally
stay on the objects: they have a single writer (the engine) and many
low-frequency readers, so mirroring them here would buy nothing but a
dual-write invariant to maintain.
"""

from __future__ import annotations

from array import array
from typing import Sequence

from repro.core.transaction import Transaction

__all__ = ["TxnTable"]


class TxnTable:
    """Dense-index columns + ready-set over one transaction pool."""

    __slots__ = (
        "txns",
        "ids",
        "index_of",
        "arrival",
        "_ready",
    )

    def __init__(self, transactions: Sequence[Transaction]) -> None:
        #: Pool-order tuple; dense index ``i`` ↔ ``txns[i]``.
        self.txns: tuple[Transaction, ...] = tuple(transactions)
        self.ids = array("q", (txn.txn_id for txn in self.txns))
        self.index_of: dict[int, int] = {
            txn.txn_id: i for i, txn in enumerate(self.txns)
        }
        self.arrival = array("d", (txn.arrival for txn in self.txns))
        self._ready: set[int] = set()

    def reset(self) -> None:
        """Clear run state (the ready set); columns are workload-static."""
        self._ready.clear()

    # -- ready-set maintenance (engine-only writers) --------------------
    def mark_ready(self, txn_id: int) -> None:
        self._ready.add(self.index_of[txn_id])

    def unmark_ready(self, txn_id: int) -> None:
        self._ready.discard(self.index_of[txn_id])

    @property
    def ready_count(self) -> int:
        """Number of READY transactions, O(1)."""
        return len(self._ready)

    def ready_transactions(self) -> list[Transaction]:
        """The READY pool in pool order, O(k log k) of the ready count.

        Dense indices are pool-ordered, so sorting them reproduces the
        exact list the old ``for txn in pool: if READY`` scan built —
        shed-victim enumeration stays byte-identical.
        """
        txns = self.txns
        return [txns[i] for i in sorted(self._ready)]
