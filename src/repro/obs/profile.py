"""Hot-path profiling: engine phase timers, policy probes, depth scaling.

BENCH_engine.json has long shown *that* ASETS*'s ``select`` is ~20x
slower than the simple policies; this module shows *where* the time goes
and *how it scales*, which is the evidence the planned incremental-select
refactor (ROADMAP item 1) will be judged against.  Three layers:

**Engine phase timers.**  With a :class:`PhaseProfiler` attached
(``Simulator(..., profiler=...)``), the engine splits its main-loop wall
time into named phases instead of the single ``select_s`` lump:

========== ==========================================================
``pop``     event-queue ``pop_batch``
``sync``    charging running transactions (``_sync_running``)
``events``  arrival / completion / activation handling
``faults``  fault, crash, recover and retry handling
``select``  ``policy.select`` calls (overhead-corrected; see below)
``dispatch`` suspend/requeue/dispatch/preempt bookkeeping
``emit``    the per-scheduling-point instrument emission
========== ==========================================================

**Policy probes.**  Policies attribute their internal select stages via
a :class:`Probe` (``with probe.span("scan"): ...``).  The engine attaches
the probe at bind time only when a profiler is present, and
:meth:`~repro.policies.base.Scheduler.attach_probe` wraps the policy's
stage methods in spans only then, so the profiler-off hot path keeps
its zero-cost contract (RL001 / the overhead-guard test): the policy
runs its plain methods.  Spans may nest; a nested span records under the
joined path (``"scan/feasibility"``).  Probe spans are **select-scoped**
by convention — they must only fire inside ``select`` — because the
select overhead correction counts them per scheduling point.

**Cost vs depth.**  Every select sample (and every top-level probe span)
is bucketed by the ready-queue depth at the scheduling point
(power-of-two buckets, :func:`depth_bucket`); a least-squares fit of
log-cost against log-depth per phase yields the empirical scaling
exponent — the "is it O(n) or O(n log n), and which phase" table.

**Overhead correction.**  Timers measure themselves too.  The profiler
calibrates its own costs at construction (``timer_overhead_s`` for one
``perf_counter`` pair, ``span_overhead_s`` for a full empty probe span)
and subtracts the probe self-time from every select sample; the applied
correction is carried in the snapshot (``select_correction_s``) so
profiler-on/off BENCH comparisons stay honest.

A run's results freeze into a picklable, mergeable
:class:`ProfileSnapshot` with text (:meth:`ProfileSnapshot.render`),
JSON (:meth:`ProfileSnapshot.as_dict`), collapsed-stack
(:meth:`ProfileSnapshot.to_collapsed`) and speedscope
(:meth:`ProfileSnapshot.to_speedscope`) exports — see
``docs/profiling.md`` for the methodology and flamegraph how-to.

All wall-clock reads live behind ``self.enabled`` guards: disabling a
profiler turns every accumulation into a no-op, and lint rule RL001
(which covers this module) enforces that no ``perf_counter`` read ever
sits on an unguarded path.
"""

from __future__ import annotations

import math
from time import perf_counter
from typing import Any, Iterable, Mapping

__all__ = [
    "ENGINE_PHASES",
    "PhaseProfiler",
    "PhaseStat",
    "Probe",
    "ProfileSnapshot",
    "depth_bucket",
    "depth_bucket_range",
    "fit_depth_exponent",
    "depth_rows_from_samples",
    "validate_speedscope",
]

#: Canonical engine phase order (reports and flamegraphs render in it).
ENGINE_PHASES = ("pop", "sync", "events", "faults", "select", "dispatch", "emit")

#: Quarter-octave histogram resolution: 4 sub-buckets per power of two
#: of nanoseconds, so percentile estimates carry <= ~12% relative error.
_SUB_BUCKETS = 4
_N_BUCKETS = 256


def _bucket_index(ns: int) -> int:
    """Histogram bucket of a nanosecond duration (quarter-octave log scale)."""
    if ns < 1:
        return 0
    octave = ns.bit_length() - 1
    base = 1 << octave
    frac = ((ns - base) * _SUB_BUCKETS) // base
    index = octave * _SUB_BUCKETS + frac
    return index if index < _N_BUCKETS else _N_BUCKETS - 1


def _bucket_seconds(index: int) -> float:
    """Geometric midpoint of one histogram bucket, in seconds."""
    octave, frac = divmod(index, _SUB_BUCKETS)
    low = (1 << octave) * (1.0 + frac / _SUB_BUCKETS)
    high = (1 << octave) * (1.0 + (frac + 1) / _SUB_BUCKETS)
    return math.sqrt(low * high) * 1e-9


class PhaseStat:
    """Mergeable accumulator for one phase: count, total, max, quantiles.

    Durations land in a quarter-octave log histogram (constant memory,
    associative merge), from which :meth:`percentile` answers p50/p95
    with bounded relative error — the same constant-memory discipline as
    :mod:`repro.obs.streaming`.
    """

    __slots__ = ("count", "total_s", "max_s", "_hist")

    def __init__(self) -> None:
        self.count = 0
        self.total_s = 0.0
        self.max_s = 0.0
        self._hist: dict[int, int] = {}

    def add(self, seconds: float) -> None:
        self.count += 1
        self.total_s += seconds
        if seconds > self.max_s:
            self.max_s = seconds
        index = _bucket_index(int(seconds * 1e9))
        self._hist[index] = self._hist.get(index, 0) + 1

    def merge(self, other: "PhaseStat") -> None:
        self.count += other.count
        self.total_s += other.total_s
        if other.max_s > self.max_s:
            self.max_s = other.max_s
        for index, n in sorted(other._hist.items()):
            self._hist[index] = self._hist.get(index, 0) + n

    def copy(self) -> "PhaseStat":
        out = PhaseStat()
        out.merge(self)
        return out

    @property
    def mean_s(self) -> float:
        return self.total_s / self.count if self.count else 0.0

    def percentile(self, q: float) -> float:
        """Approximate q-th percentile (0 <= q <= 100) from the histogram."""
        if self.count == 0:
            return 0.0
        rank = max(1, math.ceil(self.count * q / 100.0))
        seen = 0
        for index in sorted(self._hist):
            seen += self._hist[index]
            if seen >= rank:
                return _bucket_seconds(index)
        return self.max_s  # pragma: no cover - defensive

    def as_dict(self) -> dict[str, Any]:
        return {
            "count": self.count,
            "total_s": self.total_s,
            "mean_s": self.mean_s,
            "max_s": self.max_s,
            "p50_s": self.percentile(50),
            "p95_s": self.percentile(95),
        }

    def __repr__(self) -> str:
        return (
            f"PhaseStat(count={self.count}, total_s={self.total_s:.6f}, "
            f"max_s={self.max_s:.6f})"
        )


# ----------------------------------------------------------------------
# Depth bucketing and scaling-exponent fits.
# ----------------------------------------------------------------------
def depth_bucket(depth: int) -> int:
    """Power-of-two bucket of a ready-queue depth (0 -> 0, 1 -> 1, 2-3 -> 2...)."""
    return depth.bit_length() if depth > 0 else 0


def depth_bucket_range(bucket: int) -> tuple[int, int]:
    """Inclusive ``(low, high)`` depth range covered by one bucket."""
    if bucket <= 0:
        return (0, 0)
    return (1 << (bucket - 1), (1 << bucket) - 1)


def fit_depth_exponent(
    rows: Iterable[tuple[float, float, int]],
) -> float | None:
    """Least-squares scaling exponent of cost against depth.

    ``rows`` yields ``(mean_depth, mean_cost_s, count)`` per depth
    bucket; the fit runs on ``log2`` of both axes, weighted by count.
    Returns ``None`` with fewer than two usable buckets (no slope to
    estimate).
    """
    points = [
        (math.log2(depth), math.log2(cost), float(n))
        for depth, cost, n in rows
        if depth >= 1.0 and cost > 0.0 and n > 0
    ]
    if len(points) < 2:
        return None
    total_w = sum(w for _, _, w in points)
    mean_x = sum(x * w for x, _, w in points) / total_w
    mean_y = sum(y * w for _, y, w in points) / total_w
    var_x = sum(w * (x - mean_x) ** 2 for x, _, w in points)
    if var_x <= 0.0:
        return None
    cov = sum(w * (x - mean_x) * (y - mean_y) for x, y, w in points)
    return cov / var_x


def depth_rows_from_samples(
    samples: Iterable[tuple[int, float]],
) -> list[tuple[int, int, float, float]]:
    """Bucket raw ``(depth, cost_s)`` samples into depth-table rows.

    Returns ``[(bucket, count, mean_depth, mean_cost_s), ...]`` sorted by
    bucket — the shape :func:`fit_depth_exponent` and the analyze
    report's depth section consume.
    """
    table: dict[int, list[float]] = {}
    for depth, cost in samples:
        cell = table.get(depth_bucket(depth))
        if cell is None:
            table[depth_bucket(depth)] = [1.0, float(depth), cost]
        else:
            cell[0] += 1.0
            cell[1] += float(depth)
            cell[2] += cost
    return [
        (bucket, int(n), depth_total / n, cost_total / n)
        for bucket, (n, depth_total, cost_total) in sorted(table.items())
    ]


# ----------------------------------------------------------------------
# The live profiler and its probe.
# ----------------------------------------------------------------------
class Probe:
    """Select-scoped span timer handed to a policy by the engine.

    ``with probe.span("scan"): ...`` attributes the block's wall time to
    the named probe phase.  The probe only exists while a profiler is
    attached; a policy without one runs its stage methods unwrapped
    (the zero-cost-when-off contract).
    """

    __slots__ = ("_profiler",)

    def __init__(self, profiler: "PhaseProfiler") -> None:
        self._profiler = profiler

    def span(self, name: str) -> "_SpanTimer":
        return _SpanTimer(self._profiler, name)


class _SpanTimer:
    """Context manager for one probe span; records on exit.

    Besides the span window itself (``_start`` .. the stop read), the
    timer measures its *own* bracketing work — stack push on enter, path
    join and stat recording on exit — and credits it to the profiler's
    per-point overhead accumulator, so the select overhead correction is
    a direct measurement rather than a calibration guess.  Only the span
    object construction, the ``with``-statement glue and the final
    ``perf_counter`` read escape measurement; that small residual is
    calibrated once per profiler (``span_residual_s``).
    """

    __slots__ = ("_profiler", "_name", "_enter", "_start")

    def __init__(self, profiler: "PhaseProfiler", name: str) -> None:
        self._profiler = profiler
        self._name = name
        self._enter = 0.0
        self._start = 0.0

    def __enter__(self) -> "_SpanTimer":
        profiler = self._profiler
        if profiler.enabled:
            self._enter = perf_counter()
            profiler._stack.append(self._name)
            self._start = perf_counter()
        else:
            profiler._stack.append(self._name)
        return self

    def __exit__(self, *exc_info: object) -> None:
        profiler = self._profiler
        if profiler.enabled:
            stop = perf_counter()
            path = "/".join(profiler._stack)
            profiler._stack.pop()
            profiler._record_span(path, stop - self._start)
            profiler._point_overhead_s += (
                (self._start - self._enter) + (perf_counter() - stop)
            )
        else:
            profiler._stack.pop()


class PhaseProfiler:
    """Collects phase timings for one run; attach via ``Simulator(profiler=...)``.

    The engine drives :meth:`engine_phase`, :meth:`select_begin`,
    :meth:`select_end` and :meth:`point_end`; policies drive spans
    through the :class:`Probe` from :meth:`probe`.  Setting
    :attr:`enabled` to ``False`` freezes accumulation (every wall-clock
    read is guarded on it).  :meth:`snapshot` freezes the collected data
    into a :class:`ProfileSnapshot`.
    """

    def __init__(self, calibrate: bool = True) -> None:
        #: Master switch guarding every ``perf_counter`` read (RL001).
        self.enabled = True
        #: Measured cost of one bare ``perf_counter()`` pair.
        self.timer_overhead_s = 0.0
        #: Measured cost of one full empty probe span (enter + exit + record).
        self.span_overhead_s = 0.0
        #: The per-span slice of that cost the span timer cannot measure
        #: about itself (construction, ``with`` glue, the last clock read).
        self.span_residual_s = 0.0
        self._phases: dict[str, PhaseStat] = {}
        self._probes: dict[str, PhaseStat] = {}
        #: phase -> depth bucket -> [count, depth_total, cost_total_s].
        self._depth: dict[str, dict[int, list[float]]] = {}
        self._stack: list[str] = []
        self._current_depth = 0
        self._point_spans = 0
        self._point_overhead_s = 0.0
        self._select_raw_s = 0.0
        self._select_correction_s = 0.0
        if calibrate:
            self._calibrate()

    # -- calibration ---------------------------------------------------
    def _calibrate(self) -> None:
        """Measure the profiler's own costs.

        The span timer measures most of its own overhead directly at run
        time (see :class:`_SpanTimer`); calibration pins down the two
        constants that direct measurement cannot see — the cost of a
        bare ``perf_counter`` pair and the per-span residual (batch wall
        time minus everything the spans accounted for themselves, min
        over batches).
        """
        if self.enabled:
            best = math.inf
            for _ in range(32):
                start = perf_counter()
                stop = perf_counter()
                delta = stop - start
                if delta < best:
                    best = delta
            self.timer_overhead_s = max(0.0, best)
            probe = Probe(self)
            reps = 64
            best_residual = math.inf
            best_full = math.inf
            for _ in range(8):
                self._probes.clear()
                self._depth.clear()
                self._point_spans = 0
                self._point_overhead_s = 0.0
                start = perf_counter()
                for _ in range(reps):
                    with probe.span("calibration"):
                        pass
                total = perf_counter() - start
                stat = self._probes.get("calibration")
                inner = stat.total_s if stat is not None else 0.0
                residual = (total - inner - self._point_overhead_s) / reps
                if residual < best_residual:
                    best_residual = residual
                if total / reps < best_full:
                    best_full = total / reps
            self.span_residual_s = max(0.0, best_residual)
            self.span_overhead_s = max(0.0, best_full)
        # Calibration spans must not pollute the run's data.
        self._probes.clear()
        self._depth.clear()
        self._point_spans = 0
        self._point_overhead_s = 0.0

    # -- engine-side hooks ---------------------------------------------
    def probe(self) -> Probe:
        """The span timer the engine hands to the policy at bind time."""
        return Probe(self)

    def engine_phase(self, phase: str, seconds: float) -> None:
        """Accumulate one measured duration under an engine phase."""
        if not self.enabled:
            return
        stat = self._phases.get(phase)
        if stat is None:
            stat = self._phases[phase] = PhaseStat()
        stat.add(seconds)

    def select_begin(self, ready_depth: int) -> None:
        """A ``policy.select`` call is starting at the given queue depth."""
        self._current_depth = ready_depth
        self._point_spans = 0
        self._point_overhead_s = 0.0

    def select_end(self, seconds: float) -> None:
        """A ``policy.select`` call took ``seconds`` (raw, probe-inflated).

        The probe self-time the spans measured about themselves during
        this call, plus the calibrated per-span residual, is subtracted
        before the sample is recorded; the total applied correction is
        carried in the snapshot so profiler-on/off comparisons stay
        honest.
        """
        if not self.enabled:
            return
        corrected = seconds - self._point_overhead_s
        corrected -= self._point_spans * self.span_residual_s
        if corrected < 0.0:
            corrected = 0.0
        self._select_raw_s += seconds
        self._select_correction_s += seconds - corrected
        self.engine_phase("select", corrected)
        self._record_depth("select", self._current_depth, corrected)

    def point_end(self, select_s: float, body_s: float, emit_s: float) -> None:
        """Close one scheduling point: emit and dispatch-bookkeeping phases.

        ``body_s`` is the whole reschedule body (which contains the
        select calls); the dispatch/preempt bookkeeping phase is the
        remainder after the measured select time.
        """
        if not self.enabled:
            return
        self.engine_phase("emit", emit_s)
        dispatch = body_s - select_s
        if dispatch < 0.0:
            dispatch = 0.0
        self.engine_phase("dispatch", dispatch)

    # -- probe plumbing ------------------------------------------------
    def _record_span(self, path: str, seconds: float) -> None:
        self._point_spans += 1
        stat = self._probes.get(path)
        if stat is None:
            stat = self._probes[path] = PhaseStat()
        stat.add(seconds)
        if "/" not in path:
            self._record_depth(path, self._current_depth, seconds)

    def _record_depth(self, phase: str, depth: int, seconds: float) -> None:
        table = self._depth.get(phase)
        if table is None:
            table = self._depth[phase] = {}
        bucket = depth_bucket(depth)
        cell = table.get(bucket)
        if cell is None:
            table[bucket] = [1.0, float(depth), seconds]
        else:
            cell[0] += 1.0
            cell[1] += float(depth)
            cell[2] += seconds

    # -- freezing ------------------------------------------------------
    def snapshot(self, policy: str = "") -> "ProfileSnapshot":
        """Freeze the collected data (copies; the profiler keeps counting)."""
        snap = ProfileSnapshot(policy=policy)
        snap.timer_overhead_s = self.timer_overhead_s
        snap.span_overhead_s = self.span_overhead_s
        snap.span_residual_s = self.span_residual_s
        snap.select_raw_s = self._select_raw_s
        snap.select_correction_s = self._select_correction_s
        for name, stat in sorted(self._phases.items()):
            snap.phases[name] = stat.copy()
        for name, stat in sorted(self._probes.items()):
            snap.probes[name] = stat.copy()
        for phase, table in sorted(self._depth.items()):
            snap.depth[phase] = {
                bucket: [cell[0], cell[1], cell[2]]
                for bucket, cell in sorted(table.items())
            }
        return snap


# ----------------------------------------------------------------------
# The frozen, mergeable result.
# ----------------------------------------------------------------------
class ProfileSnapshot:
    """Frozen profile of one run (or a deterministic merge of several).

    Picklable (plain data), so sweep workers ship snapshots home;
    :meth:`merge` is associative and commutative over the accumulators,
    and the sweep merges cells in fixed grid order, so a merged snapshot
    is independent of worker count and completion order.
    """

    __slots__ = (
        "policy",
        "phases",
        "probes",
        "depth",
        "select_raw_s",
        "select_correction_s",
        "timer_overhead_s",
        "span_overhead_s",
        "span_residual_s",
    )

    def __init__(self, policy: str = "") -> None:
        self.policy = policy
        self.phases: dict[str, PhaseStat] = {}
        self.probes: dict[str, PhaseStat] = {}
        self.depth: dict[str, dict[int, list[float]]] = {}
        self.select_raw_s = 0.0
        self.select_correction_s = 0.0
        self.timer_overhead_s = 0.0
        self.span_overhead_s = 0.0
        self.span_residual_s = 0.0

    # -- merging -------------------------------------------------------
    def merge(self, other: "ProfileSnapshot") -> None:
        """Fold another snapshot in (counts and totals sum; calibration
        keeps the conservative maximum)."""
        if not self.policy:
            self.policy = other.policy
        for name, stat in sorted(other.phases.items()):
            mine = self.phases.get(name)
            if mine is None:
                mine = self.phases[name] = PhaseStat()
            mine.merge(stat)
        for name, stat in sorted(other.probes.items()):
            mine = self.probes.get(name)
            if mine is None:
                mine = self.probes[name] = PhaseStat()
            mine.merge(stat)
        for phase, table in sorted(other.depth.items()):
            mine_table = self.depth.get(phase)
            if mine_table is None:
                mine_table = self.depth[phase] = {}
            for bucket, cell in sorted(table.items()):
                mine_cell = mine_table.get(bucket)
                if mine_cell is None:
                    mine_table[bucket] = [cell[0], cell[1], cell[2]]
                else:
                    mine_cell[0] += cell[0]
                    mine_cell[1] += cell[1]
                    mine_cell[2] += cell[2]
        self.select_raw_s += other.select_raw_s
        self.select_correction_s += other.select_correction_s
        if other.timer_overhead_s > self.timer_overhead_s:
            self.timer_overhead_s = other.timer_overhead_s
        if other.span_overhead_s > self.span_overhead_s:
            self.span_overhead_s = other.span_overhead_s
        if other.span_residual_s > self.span_residual_s:
            self.span_residual_s = other.span_residual_s

    # -- derived views -------------------------------------------------
    @property
    def select_total_s(self) -> float:
        stat = self.phases.get("select")
        return stat.total_s if stat is not None else 0.0

    def top_level_probes(self) -> list[tuple[str, PhaseStat]]:
        """Probe phases recorded at stack depth one, sorted by name."""
        return [
            (name, stat)
            for name, stat in sorted(self.probes.items())
            if "/" not in name
        ]

    def attribution(self) -> tuple[float, float]:
        """``(attributed_fraction, unattributed_s)`` of select wall time.

        The fraction of the (overhead-corrected) select total covered by
        top-level probe spans; the remainder is reported as
        ``unattributed``.  With no probes the whole select time is
        unattributed (fraction 0).
        """
        total = self.select_total_s
        if total <= 0.0:
            return (1.0, 0.0)
        covered = sum(stat.total_s for _, stat in self.top_level_probes())
        if covered > total:
            covered = total
        return (covered / total, total - covered)

    def depth_rows(self, phase: str) -> list[tuple[int, int, float, float]]:
        """``[(bucket, count, mean_depth, mean_cost_s), ...]`` for one phase."""
        table = self.depth.get(phase, {})
        return [
            (bucket, int(cell[0]), cell[1] / cell[0], cell[2] / cell[0])
            for bucket, cell in sorted(table.items())
            if cell[0] > 0
        ]

    def depth_exponent(self, phase: str) -> float | None:
        """Fitted cost-vs-depth scaling exponent for one phase."""
        return fit_depth_exponent(
            (mean_depth, mean_cost, count)
            for _, count, mean_depth, mean_cost in self.depth_rows(phase)
        )

    def _phase_order(self) -> list[str]:
        order = [name for name in ENGINE_PHASES if name in self.phases]
        order += sorted(set(self.phases) - set(ENGINE_PHASES))
        return order

    # -- exports -------------------------------------------------------
    def as_dict(self) -> dict[str, Any]:
        """JSON-ready view (the ``profile`` section of BENCH schema 3)."""
        attributed, unattributed_s = self.attribution()
        depth_scaling: dict[str, Any] = {}
        for phase in sorted(self.depth):
            rows = self.depth_rows(phase)
            depth_scaling[phase] = {
                "exponent": self.depth_exponent(phase),
                "buckets": [
                    {
                        "depth_range": list(depth_bucket_range(bucket)),
                        "count": count,
                        "mean_depth": mean_depth,
                        "mean_cost_s": mean_cost,
                    }
                    for bucket, count, mean_depth, mean_cost in rows
                ],
            }
        return {
            "policy": self.policy,
            "phases": {
                name: self.phases[name].as_dict()
                for name in self._phase_order()
            },
            "probes": {
                name: stat.as_dict()
                for name, stat in sorted(self.probes.items())
            },
            "depth_scaling": depth_scaling,
            "select_raw_s": self.select_raw_s,
            "select_correction_s": self.select_correction_s,
            "select_attributed_fraction": attributed,
            "select_unattributed_s": unattributed_s,
            "timer_overhead_s": self.timer_overhead_s,
            "span_overhead_s": self.span_overhead_s,
            "span_residual_s": self.span_residual_s,
        }

    def render(self) -> str:
        """Aligned text report: phase table, probes, depth scaling."""
        lines = [f"profile — {self.policy or '?'}"]
        total = sum(stat.total_s for stat in self.phases.values())
        lines.append(
            f"{'phase':<12} {'count':>9} {'total_s':>10} {'share':>6} "
            f"{'p50_us':>9} {'p95_us':>9} {'max_us':>9}"
        )
        for name in self._phase_order():
            stat = self.phases[name]
            share = stat.total_s / total if total > 0 else 0.0
            lines.append(
                f"{name:<12} {stat.count:>9} {stat.total_s:>10.4f} "
                f"{share:>6.1%} {stat.percentile(50) * 1e6:>9.2f} "
                f"{stat.percentile(95) * 1e6:>9.2f} {stat.max_s * 1e6:>9.2f}"
            )
        attributed, unattributed_s = self.attribution()
        if self.probes:
            lines.append("select probes (policy-internal stages):")
            for name, stat in sorted(self.probes.items()):
                lines.append(
                    f"  {name:<18} {stat.count:>9} {stat.total_s:>10.4f} "
                    f"p95={stat.percentile(95) * 1e6:.2f}us"
                )
            lines.append(
                f"  select attribution: {attributed:.1%} "
                f"({unattributed_s:.4f}s unattributed)"
            )
        if self.select_correction_s > 0.0:
            lines.append(
                f"probe self-time correction: -{self.select_correction_s:.4f}s "
                f"(span_overhead={self.span_overhead_s * 1e9:.0f}ns, "
                f"timer_overhead={self.timer_overhead_s * 1e9:.0f}ns)"
            )
        if self.depth:
            lines.append("select cost by ready-queue depth:")
            for phase in sorted(self.depth):
                exponent = self.depth_exponent(phase)
                fit = f"~depth^{exponent:.2f}" if exponent is not None else "n/a"
                lines.append(f"  {phase} ({fit}):")
                for bucket, count, mean_depth, mean_cost in self.depth_rows(
                    phase
                ):
                    low, high = depth_bucket_range(bucket)
                    span = f"{low}" if low == high else f"{low}-{high}"
                    lines.append(
                        f"    depth {span:>9}: n={count:<7} "
                        f"mean={mean_cost * 1e6:.2f}us "
                        f"(mean depth {mean_depth:.1f})"
                    )
        return "\n".join(lines)

    def _stacks(self) -> list[tuple[tuple[str, ...], float]]:
        """(frame stack, weight) leaves of the phase/probe tree."""
        stacks: list[tuple[tuple[str, ...], float]] = []
        for name in self._phase_order():
            if name == "select":
                continue
            stacks.append((("engine", name), self.phases[name].total_s))
        select_total = self.select_total_s
        covered = 0.0
        for name, stat in sorted(self.probes.items()):
            parts = tuple(name.split("/"))
            if len(parts) == 1:
                covered += stat.total_s
            stacks.append((("engine", "select") + parts, stat.total_s))
        if "select" in self.phases:
            remainder = select_total - covered
            if remainder < 0.0:
                remainder = 0.0
            stacks.append((("engine", "select", "(unattributed)"), remainder))
        return [(stack, weight) for stack, weight in stacks if weight > 0.0]

    def to_collapsed(self) -> str:
        """Brendan-Gregg collapsed-stack format (weights in nanoseconds)."""
        lines = [
            f"{';'.join(stack)} {max(1, round(weight * 1e9))}"
            for stack, weight in self._stacks()
        ]
        return "\n".join(lines) + ("\n" if lines else "")

    def to_speedscope(self) -> dict[str, Any]:
        """A speedscope.app 'sampled' profile of the phase/probe tree."""
        frames: list[dict[str, str]] = []
        index: dict[str, int] = {}

        def frame(name: str) -> int:
            if name not in index:
                index[name] = len(frames)
                frames.append({"name": name})
            return index[name]

        samples: list[list[int]] = []
        weights: list[float] = []
        for stack, weight in self._stacks():
            samples.append([frame(name) for name in stack])
            weights.append(weight)
        total = sum(weights)
        return {
            "$schema": "https://www.speedscope.app/file-format-schema.json",
            "name": f"repro engine profile — {self.policy or '?'}",
            "exporter": "repro.obs.profile",
            "activeProfileIndex": 0,
            "shared": {"frames": frames},
            "profiles": [
                {
                    "type": "sampled",
                    "name": self.policy or "engine",
                    "unit": "seconds",
                    "startValue": 0.0,
                    "endValue": total,
                    "samples": samples,
                    "weights": weights,
                }
            ],
        }


def validate_speedscope(payload: Mapping[str, Any]) -> str:
    """Structurally validate a speedscope export; raise ``ValueError``.

    Checks the invariants the speedscope file-format schema pins for
    ``sampled`` profiles: the frame table, per-profile sample/weight
    alignment, in-range frame indices and non-negative weights.  Returns
    a one-line summary on success (CI prints it).
    """
    schema = payload.get("$schema")
    if schema != "https://www.speedscope.app/file-format-schema.json":
        raise ValueError(f"not a speedscope file: $schema={schema!r}")
    shared = payload.get("shared")
    if not isinstance(shared, Mapping):
        raise ValueError("missing 'shared' section")
    frames = shared.get("frames")
    if not isinstance(frames, list) or not frames:
        raise ValueError("'shared.frames' must be a non-empty list")
    for i, entry in enumerate(frames):
        if not isinstance(entry, Mapping) or not isinstance(
            entry.get("name"), str
        ):
            raise ValueError(f"frame {i} lacks a string 'name'")
    profiles = payload.get("profiles")
    if not isinstance(profiles, list) or not profiles:
        raise ValueError("'profiles' must be a non-empty list")
    n_samples = 0
    for p, profile in enumerate(profiles):
        if not isinstance(profile, Mapping):
            raise ValueError(f"profile {p} is not an object")
        if profile.get("type") != "sampled":
            raise ValueError(f"profile {p}: expected type 'sampled'")
        samples = profile.get("samples")
        weights = profile.get("weights")
        if not isinstance(samples, list) or not isinstance(weights, list):
            raise ValueError(f"profile {p}: samples/weights must be lists")
        if len(samples) != len(weights):
            raise ValueError(
                f"profile {p}: {len(samples)} samples vs "
                f"{len(weights)} weights"
            )
        for s, stack in enumerate(samples):
            if not isinstance(stack, list) or not stack:
                raise ValueError(f"profile {p} sample {s}: empty stack")
            for frame_index in stack:
                if not isinstance(frame_index, int) or not (
                    0 <= frame_index < len(frames)
                ):
                    raise ValueError(
                        f"profile {p} sample {s}: frame index "
                        f"{frame_index!r} out of range"
                    )
        for w, weight in enumerate(weights):
            if not isinstance(weight, (int, float)) or weight < 0:
                raise ValueError(
                    f"profile {p} weight {w}: {weight!r} is not a "
                    "non-negative number"
                )
        n_samples += len(samples)
    return (
        f"speedscope export ok: {len(frames)} frame(s), "
        f"{len(profiles)} profile(s), {n_samples} sample(s)"
    )
