"""Per-run reports: what the engine actually did, beyond tardiness.

A :class:`RunReport` condenses one instrumented run into the quantities
a scheduler engineer asks about first — how often the engine made a
decision, how much preemption churn the policy caused, how much
context-switch overhead was paid, and how long ``policy.select()`` took
(wall-clock percentiles).  It renders both as a plain dict (for JSON /
tabulation) and as aligned text (for terminals and CI logs).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

from repro.metrics.distributions import percentile

__all__ = ["RunReport"]


def _fmt_seconds(seconds: float) -> str:
    """Human scale for sub-second latencies."""
    if seconds >= 1.0:
        return f"{seconds:.3f} s"
    if seconds >= 1e-3:
        return f"{seconds * 1e3:.3f} ms"
    return f"{seconds * 1e6:.1f} us"


@dataclass(frozen=True, slots=True)
class RunReport:
    """Summary of one instrumented simulation run.

    Build one with :meth:`repro.obs.recorder.Recorder.report` or
    :meth:`repro.obs.streaming.StreamingRecorder.report`; both fill
    every field from the same streaming telemetry, so their reports
    render the same rows (a ``Recorder``'s ``select()`` percentiles are
    exact, read off its event log).  Every field is also reachable
    individually for assertions and dashboards.
    """

    policy: str
    n_transactions: int
    servers: int
    makespan: float
    #: Scheduling points the engine executed (arrival/completion/tick batches).
    scheduling_points: int
    #: Transactions that lost their server to another transaction.
    preemptions: int
    arrivals: int
    dispatches: int
    completions: int
    #: Context-switch overhead actually served, in simulated time units.
    overhead_paid: float
    #: Cumulative tardiness over all completed transactions.
    total_tardiness: float
    #: Peak ready-queue depth observed at a scheduling point.
    max_ready_depth: int
    #: Sample-mean ready-queue depth over scheduling points.
    mean_ready_depth: float
    #: Wall-clock seconds spent in ``policy.select`` over the whole run.
    select_total_seconds: float
    #: ``select()`` wall-time percentiles (seconds per scheduling point).
    select_p50: float = 0.0
    select_p90: float = 0.0
    select_p99: float = 0.0
    select_max: float = 0.0
    #: Fault-injection outcomes (:mod:`repro.faults`); all zero — and
    #: absent from the rendered report — in a fault-free run.
    aborted: int = 0
    shed: int = 0
    retries: int = 0
    crashes: int = 0
    stalls: int = 0
    #: Streaming-telemetry quantiles (:mod:`repro.obs.streaming`).
    #: ``quantile_accuracy`` is the sketch's relative-error bound α and
    #: doubles as the presence flag: ``None`` (a report built by hand,
    #: without telemetry) leaves these fields out of the rendered
    #: report.  Each estimate is within ``α × true value`` of the exact
    #: quantile of the **completed** transactions, the population of
    #: Definition 4's averages and of :mod:`repro.metrics.distributions`
    #: (aborted and shed work are the ``aborted``/``shed`` counts).
    quantile_accuracy: float | None = None
    tardiness_p50: float = 0.0
    tardiness_p90: float = 0.0
    tardiness_p99: float = 0.0
    response_p50: float = 0.0
    response_p95: float = 0.0
    response_p99: float = 0.0
    miss_ratio: float = 0.0
    extras: dict = field(default_factory=dict)

    @staticmethod
    def select_percentiles(
        samples: list[float],
    ) -> tuple[float, float, float, float]:
        """(p50, p90, p99, max) of per-point ``select()`` wall-times."""
        if not samples:
            return (0.0, 0.0, 0.0, 0.0)
        return (
            percentile(samples, 50),
            percentile(samples, 90),
            percentile(samples, 99),
            max(samples),
        )

    @property
    def preemptions_per_transaction(self) -> float:
        if self.n_transactions == 0:
            return 0.0
        return self.preemptions / self.n_transactions

    def as_dict(self) -> dict:
        """A JSON-ready dict of every field."""
        return asdict(self)

    def render(self) -> str:
        """Aligned text, suitable for terminals and CI logs."""
        rows: list[tuple[str, str]] = [
            ("policy", self.policy),
            ("transactions", str(self.n_transactions)),
            ("servers", str(self.servers)),
            ("makespan", f"{self.makespan:g}"),
            ("scheduling points", str(self.scheduling_points)),
            ("preemptions", f"{self.preemptions} "
                            f"({self.preemptions_per_transaction:.2f}/txn)"),
            ("arrivals", str(self.arrivals)),
            ("dispatches", str(self.dispatches)),
            ("completions", str(self.completions)),
            ("overhead paid", f"{self.overhead_paid:g}"),
            ("total tardiness", f"{self.total_tardiness:g}"),
            ("ready depth max/mean", f"{self.max_ready_depth} / "
                                     f"{self.mean_ready_depth:.1f}"),
            ("select total", _fmt_seconds(self.select_total_seconds)),
            ("select p50/p90/p99/max",
             " / ".join(_fmt_seconds(v) for v in (
                 self.select_p50, self.select_p90,
                 self.select_p99, self.select_max))),
        ]
        if self.quantile_accuracy is not None:
            rows.append((
                "tardiness p50/p90/p99",
                f"{self.tardiness_p50:g} / {self.tardiness_p90:g} / "
                f"{self.tardiness_p99:g} (±{self.quantile_accuracy:.0%} rel)",
            ))
            rows.append((
                "response p50/p95/p99",
                f"{self.response_p50:g} / {self.response_p95:g} / "
                f"{self.response_p99:g}",
            ))
            rows.append(("deadline miss ratio", f"{self.miss_ratio:.4f}"))
        if self.aborted or self.shed or self.retries or self.crashes or self.stalls:
            rows.append((
                "faults",
                f"aborted={self.aborted} shed={self.shed} "
                f"retries={self.retries} crashes={self.crashes} "
                f"stalls={self.stalls}",
            ))
        for key, value in sorted(self.extras.items()):
            rows.append((key, str(value)))
        width = max(len(label) for label, _ in rows)
        lines = [f"Run report — {self.policy}"]
        lines += [f"  {label:<{width}}  {value}" for label, value in rows]
        return "\n".join(lines)
