"""The *Ready* baseline for dependent transactions (Section III-B).

The naive way to extend ASETS to workflows: keep a third *Wait* queue for
transactions whose dependency lists are not yet satisfied, and schedule the
ready transactions with plain transaction-level ASETS, oblivious to
whatever valuable transactions hide in the Wait queue.

In this package the simulator itself enforces precedence — a transaction
reaches the policy only through ``on_ready`` once its dependency list has
completed — so *Ready* is exactly transaction-level ASETS run on a
dependent workload: ASETS* over one singleton workflow per transaction,
each invalidated by its own transaction's hooks (a dependent's singleton
becomes runnable at the ``on_ready`` that releases it).  The class exists
as an explicitly named policy so experiment configurations (Figure 14)
read like the paper.
"""

from __future__ import annotations

from repro.policies.asets import ASETS

__all__ = ["Ready"]


class Ready(ASETS):
    """Wait-queue ASETS: dependency-blind scheduling of ready transactions.

    Parameters
    ----------
    weighted:
        Forwarded to :class:`~repro.policies.asets.ASETS`; Figure 14 uses
        the unweighted form.
    """

    name = "ready"
