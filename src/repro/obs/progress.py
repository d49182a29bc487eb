"""Wall-clock progress heartbeats for long runs and sweeps.

This module deliberately lives *outside* the deterministic boundary
(``repro.lint``'s ``DETERMINISTIC_PACKAGES``): heartbeats read
``time.perf_counter`` and write to a terminal, neither of which belongs
anywhere near the engine or a pure sketch.  Nothing here ever feeds back
into simulation state — a heartbeat is a read-only observer, and a run
with one attached is event-for-event identical to a run without.

:class:`Heartbeat`
    An :class:`~repro.obs.hooks.Instrument` that prints one status line
    to ``stderr`` at most every ``interval`` wall-clock seconds:
    simulated time, backlog (ready-queue depth), completion throughput
    (txns per wall second) and running deadline-miss rate.  Compose it
    with another instrument through
    :class:`~repro.obs.hooks.MultiInstrument`.  Off by default
    everywhere; the CLI arms it via ``--progress[=seconds]`` (RL006
    conventions: the engine pays nothing when no instrument is
    attached).

:class:`SweepHeartbeat`
    A rate-limited progress callback for the sweep harness: counts
    finished (column, policy) settings and prints at most one line per
    interval, however chatty the sweep is.
"""

from __future__ import annotations

import sys
from time import perf_counter
from typing import IO, TYPE_CHECKING

from repro.errors import ObservabilityError
from repro.obs.hooks import Instrument
from repro.sim.results import tardiness

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.transaction import Transaction
    from repro.sim.results import StreamSummary

__all__ = ["Heartbeat", "SweepHeartbeat", "DEFAULT_INTERVAL"]

#: Heartbeat period (wall-clock seconds) when ``--progress`` is given
#: without a value.
DEFAULT_INTERVAL = 10.0


class Heartbeat(Instrument):
    """Periodic one-line run status on ``stderr`` (wall-clock paced).

    Parameters
    ----------
    interval:
        Minimum wall-clock seconds between lines (> 0).
    out:
        Output stream; defaults to ``sys.stderr`` so heartbeats never
        pollute piped report/JSON output.

    The clock is only consulted at scheduling points — between them the
    instrument costs two integer bumps per completion — and each line
    reports simulated time, backlog, cumulative wall-clock throughput
    and the running miss rate::

        [hb] t=1234.5 backlog=17 done=40000/100000 rate=52310/s miss=12.3%
    """

    def __init__(
        self, interval: float = DEFAULT_INTERVAL, out: IO[str] | None = None
    ) -> None:
        if interval <= 0:
            raise ObservabilityError(
                f"heartbeat interval must be > 0, got {interval}"
            )
        self.interval = interval
        self._out = out if out is not None else sys.stderr
        self._n = 0
        self._completed = 0
        self._tardy = 0
        self._started_at = 0.0
        self._last_beat = 0.0
        self.beats = 0

    def on_run_start(
        self, policy_name: str, n_transactions: int, servers: int
    ) -> None:
        self._n = n_transactions
        self._started_at = perf_counter()
        self._last_beat = self._started_at

    def on_completion(self, txn: "Transaction", now: float) -> None:
        self._completed += 1
        if tardiness(now, txn.deadline) > 0.0:
            self._tardy += 1

    def on_scheduling_point(
        self, now: float, ready: int, running: int, select_seconds: float
    ) -> None:
        wall = perf_counter()
        if wall - self._last_beat < self.interval:
            return
        self._last_beat = wall
        self.beats += 1
        elapsed = max(wall - self._started_at, 1e-9)
        rate = self._completed / elapsed
        miss = self._tardy / self._completed if self._completed else 0.0
        self._out.write(
            f"[hb] t={now:.1f} backlog={ready} "
            f"done={self._completed}/{self._n} "
            f"rate={rate:.0f}/s miss={miss:.1%}\n"
        )
        self._out.flush()

    def on_run_end(self, now: float, summary: "StreamSummary") -> None:
        # A final line so short runs (quieter than one interval) still
        # confirm liveness — but only if at least one beat fired or the
        # run outlived the interval; a fast run stays silent.  Its
        # counts are the run's summary, so a resumed run reports the
        # whole run, not only the completions this heartbeat saw.
        wall = perf_counter()
        if self.beats == 0 and wall - self._started_at < self.interval:
            return
        elapsed = max(wall - self._started_at, 1e-9)
        completed = summary.completed
        miss = summary.tardy / completed if completed else 0.0
        self._out.write(
            f"[hb] done t={now:.1f} completed={completed}/{summary.n} "
            f"rate={self._completed / elapsed:.0f}/s miss={miss:.1%} "
            f"wall={elapsed:.1f}s\n"
        )
        self._out.flush()


class SweepHeartbeat:
    """Rate-limited sweep progress: at most one line per interval.

    Usable anywhere the sweep harness accepts a ``progress`` callable.
    Every call counts one progress line — one finished (column, policy)
    setting with its seed mean; a line is printed only
    when ``interval`` wall-clock seconds have passed since the last one
    (plus a final line at 100% when ``total`` is known).
    """

    def __init__(
        self,
        interval: float = DEFAULT_INTERVAL,
        total: int | None = None,
        out: IO[str] | None = None,
    ) -> None:
        if interval <= 0:
            raise ObservabilityError(
                f"heartbeat interval must be > 0, got {interval}"
            )
        self.interval = interval
        self.total = total
        self._out = out if out is not None else sys.stderr
        self._seen = 0
        self._started_at = perf_counter()
        self._last_beat = self._started_at

    def __call__(self, line: str) -> None:
        self._seen += 1
        wall = perf_counter()
        final = self.total is not None and self._seen >= self.total
        if not final and wall - self._last_beat < self.interval:
            return
        self._last_beat = wall
        elapsed = max(wall - self._started_at, 1e-9)
        of_total = f"/{self.total}" if self.total is not None else ""
        self._out.write(
            f"[hb] {self._seen}{of_total} settings "
            f"({self._seen / elapsed:.2f}/s) last: {line}\n"
        )
        self._out.flush()
