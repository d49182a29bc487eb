"""RL005 fixture: a policy rewriting the engine's belief."""

__all__ = ["Optimist"]


class Optimist:
    def on_ready(self, txn, now: float) -> None:
        txn.scheduling_remaining = 0.5 * txn.scheduling_remaining
