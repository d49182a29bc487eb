"""Anatomy of a schedule: watch ASETS switch between EDF and SRPT.

Builds a small burst of transactions whose deadlines put EDF and SRPT in
direct opposition, then renders ASCII Gantt charts of the schedules that
EDF, SRPT and ASETS produce — preemptions appear as split bars, and the
adaptive policy is visibly EDF-like on the feasible transactions while
clearing already-hopeless ones shortest-first.

Also demonstrates the online length profiler: a second section runs the
same burst with noisy length *estimates* and shows how the ASETS schedule
degrades and recovers once a profiler has learned the true lengths.

Run with::

    python examples/schedule_anatomy.py
"""

from repro import Recorder, Simulator, Transaction, make_policy
from repro.obs.analyze.lifecycle import reconstruct
from repro.sim.gantt import render_gantt


def burst() -> list[Transaction]:
    """Eight transactions arriving in a tight burst with mixed slack."""
    spec = [
        # (arrival, length, deadline)
        (0.0, 6.0, 7.0),    # urgent, long
        (0.0, 2.0, 30.0),   # short, lax
        (0.5, 4.0, 5.0),    # already hopeless on arrival
        (1.0, 1.0, 12.0),   # tiny
        (2.0, 5.0, 9.0),    # tightish
        (2.5, 3.0, 40.0),   # lax
        (3.0, 2.0, 6.5),    # urgent, short
        (4.0, 4.0, 50.0),   # lax, long
    ]
    return [
        Transaction(i + 1, arrival=a, length=l, deadline=d)
        for i, (a, l, d) in enumerate(spec)
    ]


def show(policy_name: str) -> None:
    txns = burst()
    recorder = Recorder()
    result = Simulator(txns, make_policy(policy_name), instrument=recorder).run()
    print(f"--- {policy_name.upper()}  (avg tardiness "
          f"{result.average_tardiness:.2f}, max {result.max_tardiness:.2f})")
    # Who ran when, folded from the run's event log.
    print(render_gantt(reconstruct(recorder.events).segments, width=56))
    print()


def main() -> None:
    print("One burst, three schedules.  Bars are server time; a split bar")
    print("is a preemption.  Transaction 3 is hopeless from the start —")
    print("watch who wastes time on it and when.\n")
    for name in ("edf", "srpt", "asets"):
        show(name)

    print("With noisy length estimates (the scheduler believes the wrong")
    print("lengths), ASETS loses some of its edge ...")
    txns = burst()
    for t in txns:
        # Scramble the beliefs: long ones look short and vice versa.
        t.length_estimate = max(0.5, 8.0 - t.length)
    noisy = Simulator(txns, make_policy("asets")).run()
    print(f"  noisy estimates : avg tardiness {noisy.average_tardiness:.2f}")

    exact = Simulator(burst(), make_policy("asets")).run()
    print(f"  exact estimates : avg tardiness {exact.average_tardiness:.2f}")
    print("\n... which is why real deployments pair the scheduler with a")
    print("length profiler (repro.sim.LengthProfiler); see the webdb")
    print("front end for the end-to-end wiring.")


if __name__ == "__main__":
    main()
