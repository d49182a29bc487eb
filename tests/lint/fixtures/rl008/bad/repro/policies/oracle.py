"""RL008 bad fixture: a policy ranking by ground-truth remaining time.

The feasibility test and density key reproduce the pre-fix ASETS* lines
the rule exists to keep out.
"""

__all__ = ["Oracle"]


class Oracle:
    def feasible(self, rep, now: float) -> bool:
        return now + rep.remaining <= rep.deadline

    def density(self, rep) -> float:
        return -(rep.weight / rep.remaining)

    def raw_truth(self, txn) -> float:
        return txn.remaining
