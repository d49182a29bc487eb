"""Command-line front end for the experiment harness.

Usage::

    python -m repro.experiments fig10
    python -m repro.experiments fig14 --n 500 --seeds 3
    python -m repro.experiments table1
    python -m repro.experiments claims
    repro-experiments all          # every figure, paper scale

Each figure command prints the series the corresponding paper figure
plots, as an aligned text table.

The ``run`` target executes one instrumented run and exposes the
observability layer (:mod:`repro.obs`)::

    python -m repro.experiments run --policy asets --n 2000 --report
    python -m repro.experiments run --events-out run.jsonl --trace-out t.json

The ``analyze`` and ``diff`` targets run the deadline-miss forensics of
:mod:`repro.obs.analyze` over recorded event logs::

    python -m repro.experiments analyze run.jsonl --top 10
    python -m repro.experiments analyze run.jsonl --format json
    python -m repro.experiments diff asets.jsonl asets_star.jsonl

The ``profile`` target attaches the hot-path profiler
(:mod:`repro.obs.profile`) to one run and prints the per-phase/probe
breakdown; ``--profile-out`` dumps the snapshot as JSON (also valid on
``run``) and ``--flame-out`` exports a flamegraph::

    python -m repro.experiments profile --policy asets-star --n 5000
    python -m repro.experiments profile --flame-out sel.speedscope.json
    python -m repro.experiments run --policy edf --profile-out prof.json

The ``chaos`` target reruns the transaction-level comparison under a
deterministic :mod:`repro.faults` plan (``--faults`` tunes it), and any
sweep accepts ``--cell-timeout`` to convert hung workers into reported
cell failures instead of blocking forever::

    python -m repro.experiments chaos --faults abort_prob=0.2,crash_count=2
    python -m repro.experiments fig8 --jobs 4 --cell-timeout 300

Crash resilience (:mod:`repro.ckpt`, docs/robustness.md): ``run`` can
checkpoint itself periodically and resume after a kill; every sweep
target can persist per-cell completions to a manifest and skip them on
restart.  SIGINT/SIGTERM interrupt gracefully (exit code 3; a second
signal hard-kills)::

    python -m repro.experiments run --checkpoint-every 10000 \\
        --checkpoint-out run.ckpt --streaming --events-out run.jsonl
    python -m repro.experiments run --resume run.ckpt
    python -m repro.experiments fig9 --jobs 4 --resume fig9.sweep
"""

from __future__ import annotations

import argparse
import difflib
import sys
from typing import Callable, Sequence

from repro.experiments import extensions, figures, tables
from repro.experiments.config import (
    DEFAULT_JOBS,
    DEFAULT_PROBE_UTILIZATION,
    DEFAULT_SEEDS,
    ExperimentConfig,
    PolicySpec,
)
from repro.metrics.aggregates import MetricSeries
from repro.metrics.report import format_series

__all__ = ["main", "build_parser"]

_FIGURES: dict[str, tuple[Callable[..., MetricSeries], str]] = {
    "fig8": (figures.figure8, "Avg tardiness, low utilization (Figure 8)"),
    "fig9": (figures.figure9, "Avg tardiness, high utilization (Figure 9)"),
    "fig10": (figures.figure10, "Normalized avg tardiness, k_max=3 (Figure 10)"),
    "fig11": (figures.figure11, "Normalized avg tardiness, k_max=1 (Figure 11)"),
    "fig12": (figures.figure12, "Normalized avg tardiness, k_max=2 (Figure 12)"),
    "fig13": (figures.figure13, "Normalized avg tardiness, k_max=4 (Figure 13)"),
    "fig14": (figures.figure14, "Workflow level: ASETS* vs Ready (Figure 14)"),
    "fig15": (figures.figure15, "General case: weighted tardiness (Figure 15)"),
    "fig16": (figures.figure16, "Balance-aware: max weighted tardiness (Figure 16)"),
    "fig17": (figures.figure17, "Balance-aware: avg weighted tardiness (Figure 17)"),
    "fig16c": (
        figures.figure16_count_based,
        "Balance-aware, count-based: max weighted tardiness",
    ),
    "fig17c": (
        figures.figure17_count_based,
        "Balance-aware, count-based: avg weighted tardiness",
    ),
    "ext-estimation": (
        extensions.estimation_robustness,
        "Extension: sensitivity to length-estimation error",
    ),
    "ext-servers": (
        extensions.multiserver_sweep,
        "Extension: multi-server scaling at constant per-server load",
    ),
}

#: Every valid positional target, figures included.
_TARGETS: tuple[str, ...] = tuple(
    sorted(_FIGURES)
    + [
        "alpha",
        "tail",
        "table1",
        "claims",
        "chaos",
        "all",
        "run",
        "profile",
        "analyze",
        "diff",
    ]
)

#: Flamegraph export formats of the ``profile`` target.
_FLAME_FORMATS = ("speedscope", "collapsed")

#: Default fault plan of the ``chaos`` target (overridden by --faults).
_DEFAULT_CHAOS_FAULTS = (
    "abort_prob=0.1,max_retries=2,stall_prob=0.1,stall_max=1.0,crash_count=1"
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description="Regenerate the tables and figures of "
        "'Adaptive Scheduling of Web Transactions' (ICDE 2009).",
    )
    # No argparse ``choices``: the target is validated in main() so an
    # unknown name gets a did-you-mean suggestion (still exit code 2).
    parser.add_argument(
        "target",
        metavar="TARGET",
        help="which experiment to run: "
        f"{', '.join(_TARGETS)} ('run' = one instrumented run; "
        "'profile' = one profiled run with a per-phase breakdown; "
        "'analyze'/'diff' = forensics over recorded event logs; "
        "'chaos' = fault-injection sweep)",
    )
    parser.add_argument(
        "paths",
        nargs="*",
        metavar="LOG.jsonl",
        help="event log(s): one for 'analyze', two for 'diff'",
    )
    parser.add_argument(
        "--n", type=int, default=1000, help="transactions per run (default 1000)"
    )
    parser.add_argument(
        "--seeds",
        type=int,
        default=len(DEFAULT_SEEDS),
        help=f"number of seeded runs to average (default {len(DEFAULT_SEEDS)})",
    )
    parser.add_argument(
        "--quiet", action="store_true", help="suppress per-setting progress lines"
    )
    parser.add_argument(
        "--progress",
        nargs="?",
        const=-1.0,  # sentinel: "flag given without a value"
        type=float,
        default=None,
        metavar="SECONDS",
        help="wall-clock heartbeat to stderr at most every SECONDS "
        "(default 10 when given without a value): sim-time, backlog and "
        "txns/s on 'run'/'chaos', finished groups on the sweeps; off by "
        "default and zero-cost when off",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=DEFAULT_JOBS,
        metavar="N",
        help="worker processes for the sweeps (default "
        f"{DEFAULT_JOBS} = in this process; 0 = one per core); results are "
        "byte-identical at any N",
    )
    parser.add_argument(
        "--cell-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="no-progress watchdog for the sweeps: if no cell finishes "
        "within SECONDS, pending cells become reported failures instead "
        "of hanging the sweep (forces the worker-pool path)",
    )
    parser.add_argument(
        "--faults",
        metavar="SPEC",
        default=None,
        help="fault-injection spec as 'key=value,...' (e.g. "
        "'seed=7,abort_prob=0.1,crash_count=2'); applies to 'run', "
        "'profile' and 'chaos'",
    )
    parser.add_argument(
        "--chart",
        action="store_true",
        help="also render the series as an ASCII chart",
    )
    parser.add_argument(
        "--log",
        action="store_true",
        help="use a log y-scale for --chart (tardiness spans decades)",
    )
    parser.add_argument(
        "--export",
        metavar="PATH",
        default=None,
        help="write the series to PATH (.csv or .json)",
    )
    group = parser.add_argument_group("run target (single instrumented run)")
    group.add_argument(
        "--policy",
        default="asets",
        help="policy registry name for 'run'/'profile' (default asets)",
    )
    group.add_argument(
        "--utilization",
        type=float,
        default=DEFAULT_PROBE_UTILIZATION,
        help="target utilization for 'run'/'profile' "
        f"(default {DEFAULT_PROBE_UTILIZATION})",
    )
    group.add_argument(
        "--seed",
        type=int,
        default=DEFAULT_SEEDS[0],
        help=f"workload seed for 'run'/'profile' (default {DEFAULT_SEEDS[0]})",
    )
    group.add_argument(
        "--events-out",
        metavar="FILE.jsonl",
        default=None,
        help="write the run's JSONL event log to FILE.jsonl",
    )
    group.add_argument(
        "--events-sample",
        type=float,
        default=1.0,
        metavar="RATE",
        help="keep only RATE (0 < RATE <= 1) of per-transaction events in "
        "--events-out; tardy completions and window snapshots are always "
        "kept and 'analyze' scale-corrects thinned totals (default 1.0 = "
        "everything)",
    )
    group.add_argument(
        "--events-rotate",
        type=int,
        default=None,
        metavar="BYTES",
        help="rotate --events-out into BYTES-sized parts "
        "(FILE-0001.jsonl, ... + FILE.manifest.json); 'analyze' and "
        "read_tolerant() accept the base path transparently",
    )
    group.add_argument(
        "--streaming",
        action="store_true",
        help="constant-memory run: per-transaction retention off, "
        "quantiles/top-k from online sketches (repro.obs.streaming); "
        "events stream straight to --events-out instead of buffering",
    )
    group.add_argument(
        "--window",
        type=float,
        default=None,
        metavar="WIDTH",
        help="with --streaming: emit window.snapshot time-series events "
        "per WIDTH simulated-time window (queue depth, utilization, "
        "throughput, miss rate)",
    )
    group.add_argument(
        "--report",
        action="store_true",
        help="print the full run report (scheduling points, preemptions, "
        "select-latency percentiles)",
    )
    forensics = parser.add_argument_group(
        "forensics (analyze / diff targets, and --trace-out on run)"
    )
    forensics.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        dest="fmt",
        help="report format for 'analyze' and 'diff' (default text)",
    )
    forensics.add_argument(
        "--top",
        type=int,
        default=5,
        help="how many transactions the text reports detail (default 5)",
    )
    forensics.add_argument(
        "--trace-out",
        metavar="FILE.json",
        default=None,
        help="export a Chrome trace-event / Perfetto JSON of the run "
        "(valid on 'run' and 'analyze')",
    )
    profiling = parser.add_argument_group(
        "profiling ('profile' target, and --profile-out on 'run')"
    )
    profiling.add_argument(
        "--profile-out",
        metavar="FILE.json",
        default=None,
        help="write the profile snapshot (phases, probes, depth scaling; "
        "the BENCH schema-3 'profile' section) to FILE.json",
    )
    profiling.add_argument(
        "--flame-out",
        metavar="FILE",
        default=None,
        help="export the select-time flamegraph to FILE "
        "('profile' target only; format from --flame-format)",
    )
    profiling.add_argument(
        "--flame-format",
        default="speedscope",
        metavar="FORMAT",
        help="flamegraph format for --flame-out: "
        f"{', '.join(_FLAME_FORMATS)} (default speedscope)",
    )
    robust = parser.add_argument_group(
        "crash resilience (checkpoint / resume; see docs/robustness.md)"
    )
    robust.add_argument(
        "--checkpoint-every",
        type=int,
        default=None,
        metavar="EVENTS",
        help="'run' only: snapshot engine + telemetry + event-log "
        "position to --checkpoint-out every EVENTS processed events "
        "(atomic replace; observation-only — results stay byte-identical "
        "to an uncheckpointed run)",
    )
    robust.add_argument(
        "--checkpoint-out",
        metavar="FILE.ckpt",
        default=None,
        help="checkpoint file for --checkpoint-every (required together)",
    )
    robust.add_argument(
        "--resume",
        metavar="PATH",
        default=None,
        help="on 'run': resume a killed run from its checkpoint file "
        "(run configuration comes from the checkpoint; the event log is "
        "truncated to the snapshot and continued, finishing "
        "byte-identical to an uninterrupted run).  On the sweep targets: "
        "per-cell completion manifest at PATH — completed cells are "
        "persisted as the sweep goes and skipped on restart",
    )
    return parser


def _config(args: argparse.Namespace) -> ExperimentConfig:
    return ExperimentConfig().scaled(args.n, args.seeds)


def _heartbeat_interval(args: argparse.Namespace) -> float | None:
    """The --progress interval in seconds, or ``None`` when off."""
    if args.progress is None:
        return None
    if args.progress == -1.0:  # bare --progress
        from repro.obs.progress import DEFAULT_INTERVAL

        return DEFAULT_INTERVAL
    return args.progress


def _progress(args: argparse.Namespace) -> Callable[[str], None] | None:
    interval = _heartbeat_interval(args)
    if interval is not None:
        from repro.obs.progress import SweepHeartbeat

        return SweepHeartbeat(interval)
    if args.quiet:
        return None
    return lambda line: print(f"  {line}", file=sys.stderr)


def _report_failures(failures: "list[object]") -> int:
    """Print captured sweep-cell failures to stderr; return the exit code."""
    if not failures:
        return 0
    print(f"\n{len(failures)} sweep cell(s) failed:", file=sys.stderr)
    for f in failures:
        print(
            f"  x={f.x:g} seed={f.seed} policy={f.policy}: {f.error}",  # type: ignore[attr-defined]
            file=sys.stderr,
        )
    print(
        "surviving cells were averaged; columns with no surviving seed "
        "report nan (first traceback follows)",
        file=sys.stderr,
    )
    print(failures[0].traceback, file=sys.stderr)  # type: ignore[attr-defined]
    return 1


def _unknown_name_error(
    parser: argparse.ArgumentParser, kind: str, value: str, valid: Sequence[str]
) -> None:
    """Exit 2 with a did-you-mean hint for a misspelled name."""
    close = difflib.get_close_matches(value, valid, n=3, cutoff=0.5)
    hint = f" — did you mean: {', '.join(close)}?" if close else ""
    parser.error(
        f"unknown {kind} {value!r}{hint} (choose from: {', '.join(valid)})"
    )


def _parse_faults(
    parser: argparse.ArgumentParser, args: argparse.Namespace, default: str | None = None
):
    """Parse --faults (or ``default``) into a FaultSpec, exiting 2 on errors."""
    text = args.faults if args.faults is not None else default
    if text is None:
        return None
    from repro.errors import FaultError
    from repro.faults import parse_fault_spec

    try:
        return parse_fault_spec(text)
    except FaultError as exc:
        parser.error(f"bad --faults spec: {exc}")


def _sweep_kwargs(args: argparse.Namespace, failures: list) -> dict:
    """Shared sweep kwargs: fan-out, watchdog, resume and failure capture.

    Every sweep target collects failed cells into ``failures`` so one bad
    cell is reported by :func:`_report_failures` instead of escaping as a
    traceback or killing a long sweep.
    """
    return {
        "jobs": args.jobs,
        "failures": failures,
        "cell_timeout": args.cell_timeout,
        "resume": args.resume,
    }


def _run_figure(name: str, args: argparse.Namespace) -> int:
    fn, title = _FIGURES[name]
    failures: list = []
    series = fn(_config(args), progress=_progress(args), **_sweep_kwargs(args, failures))
    print(format_series(series, title))
    if series.raw is not None:
        print()
        print(format_series(series.raw, "Underlying raw sweep"))
    if args.chart:
        from repro.metrics.charts import render_chart

        print()
        print(render_chart(series, log_scale=args.log))
    if args.export:
        from repro.experiments.export import write_series

        path = write_series(series, args.export)
        print(f"\nseries written to {path}", file=sys.stderr)
    return _report_failures(failures)


def _make_sink(events_out: str, events_rotate: int | None):
    """The --events-out sink: plain or rotating JSONL writer."""
    from repro.obs.jsonl import JsonlWriter, RotatingJsonlWriter

    if events_rotate is not None:
        return RotatingJsonlWriter(events_out, max_bytes=events_rotate)
    return JsonlWriter(events_out)


def _run_metadata(args: argparse.Namespace) -> dict:
    """JSON-safe run configuration stored in the checkpoint header.

    ``run --resume`` rebuilds the run from this — the command line at
    resume time does not have to repeat the original flags.
    """
    return {
        "target": "run",
        "policy": args.policy,
        "n": args.n,
        "seed": args.seed,
        "utilization": args.utilization,
        "streaming": bool(args.streaming),
        "window": args.window,
        "events_out": args.events_out,
        "events_rotate": args.events_rotate,
        "events_sample": args.events_sample,
        "faults": args.faults,
        "checkpoint_every": args.checkpoint_every,
        "checkpoint_out": args.checkpoint_out,
    }


def _export_events(recorder, meta: dict) -> tuple[object, int]:
    """Write a buffered run's log as ``meta`` configures it.

    Returns ``(path, records_written)``.  A sampled log goes through a
    :class:`~repro.obs.jsonl.SampledSink`, and its records are those a
    streaming run with the same rate writes.
    """
    from repro.obs.jsonl import EventSampler, SampledSink

    rate = float(meta.get("events_sample") or 1.0)
    with _make_sink(meta["events_out"], meta.get("events_rotate")) as sink:
        out = SampledSink(sink, EventSampler(rate)) if rate < 1.0 else sink
        for record in recorder.events:
            out.write(record)
    return sink.path, sink.records_written


def _summary_line(recorder, result, faulted: bool) -> str:
    """The one-line result of a ``run``, fresh or resumed.

    A buffered run reports its engine counts (plus the fault outcomes
    when a fault plan was given); a streaming run its sketch quantiles.
    """
    from repro.obs import Recorder

    if recorder is None:  # a checkpoint taken without telemetry
        return (
            f"{result.policy_name}: n={result.n} "
            f"avg_tardiness={result.average_tardiness:.3f}"
        )
    report = recorder.report()
    line = (
        f"{report.policy}: n={report.n_transactions} "
        f"avg_tardiness={result.average_tardiness:.3f} "
    )
    if not isinstance(recorder, Recorder):
        return line + (
            f"tardiness_p99={report.tardiness_p99:.3f} "
            f"miss_ratio={report.miss_ratio:.4f} "
            f"scheduling_points={report.scheduling_points}"
        )
    line += (
        f"scheduling_points={report.scheduling_points} "
        f"preemptions={report.preemptions}"
    )
    if faulted:
        line += (
            f" aborted={result.aborted_count} shed={result.shed_count} "
            f"retries={result.total_retries}"
        )
    return line


def _write_profile(snapshot, path: str) -> str:
    """Write one ProfileSnapshot as indented JSON; returns the path."""
    import json
    import pathlib

    pathlib.Path(path).write_text(
        json.dumps(snapshot.as_dict(), indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )
    return path


def _run_profile(args: argparse.Namespace, fault_spec=None) -> int:
    """One profiled run: phase/probe report plus JSON/flamegraph exports."""
    from repro.experiments.runner import run_policy_on
    from repro.obs.profile import PhaseProfiler
    from repro.workload.generator import generate
    from repro.workload.spec import WorkloadSpec

    # Warm-up: a small discarded profiled run lets the adaptive
    # interpreter specialize the hot loop first, so the measured run's
    # inter-span gaps reflect steady state, not first-pass bytecode.
    warmup = generate(
        WorkloadSpec(n_transactions=100, utilization=args.utilization), seed=1
    )
    run_policy_on(warmup, PolicySpec.of(args.policy), profiler=PhaseProfiler())

    spec = WorkloadSpec(n_transactions=args.n, utilization=args.utilization)
    workload = generate(spec, seed=args.seed)
    profiler = PhaseProfiler()
    result = run_policy_on(
        workload, PolicySpec.of(args.policy), faults=fault_spec, profiler=profiler
    )
    snapshot = profiler.snapshot(args.policy)
    print(snapshot.render())
    print(
        f"\n{args.policy}: n={result.n} "
        f"avg_tardiness={result.average_tardiness:.3f} "
        f"select_total_s={snapshot.select_total_s:.4f}"
    )
    if args.profile_out:
        print(
            "profile snapshot written to "
            f"{_write_profile(snapshot, args.profile_out)}",
            file=sys.stderr,
        )
    if args.flame_out:
        import json
        import pathlib

        if args.flame_format == "speedscope":
            text = json.dumps(snapshot.to_speedscope()) + "\n"
        else:
            text = snapshot.to_collapsed()
        pathlib.Path(args.flame_out).write_text(text, encoding="utf-8")
        print(
            f"flamegraph ({args.flame_format}) written to {args.flame_out}",
            file=sys.stderr,
        )
    return 0


def _run_single(args: argparse.Namespace, fault_spec=None) -> int:
    """One ``run``, fresh or resumed: summary, report, event log, trace.

    A fresh run reads its configuration from the command line, a resumed
    one from its checkpoint's metadata (the :func:`_run_metadata` of the
    original command line).  A resumed run's streamed log is truncated
    back to the snapshot and continued, and a buffered one is rewritten
    whole, so the finished artifacts are byte-identical to an
    uninterrupted run's.  Checkpointing continues at the original
    cadence (override with --checkpoint-every / --checkpoint-out), so a
    resumed run can itself be killed and resumed again.
    """
    from repro.ckpt import Checkpointer, load_checkpoint, restore_writer
    from repro.experiments.runner import _replay
    from repro.obs import Heartbeat, MultiInstrument, Recorder, StreamingRecorder

    checkpoint = profiler = None
    if args.resume is not None:
        checkpoint = load_checkpoint(args.resume)
        meta = checkpoint.metadata
        writer = restore_writer(checkpoint.writer_state)
        recorder = checkpoint.restore_instrument(sink=writer)
        every = args.checkpoint_every or meta.get("checkpoint_every")
        checkpoint_out = args.checkpoint_out or args.resume
    else:
        meta = _run_metadata(args)
        writer = None
        if args.streaming:
            if args.events_out:
                writer = _make_sink(args.events_out, args.events_rotate)
            recorder = StreamingRecorder(
                window=args.window, sink=writer, sample=args.events_sample
            )
        else:
            recorder = Recorder()
        every, checkpoint_out = args.checkpoint_every, args.checkpoint_out
        if args.profile_out:
            from repro.obs.profile import PhaseProfiler

            profiler = PhaseProfiler()
    checkpointer = None
    if every:
        # The checkpointer captures the recorder, not the heartbeat: that
        # holds wall-clock state and is rebuilt fresh on resume.  A
        # buffered log rides inside the Recorder's own state.
        checkpointer = Checkpointer(
            checkpoint_out, instrument=recorder, writer=writer, metadata=meta
        )
    instrument = recorder
    interval = _heartbeat_interval(args)
    if interval is not None and recorder is not None:
        heartbeat = Heartbeat(interval)
        if checkpoint is not None:
            # A resumed run fires no on_run_start: the heartbeat takes
            # the run's shape from the checkpoint and its wall epoch
            # from this process.
            heartbeat.on_run_start(
                checkpoint.policy_name, checkpoint.n, checkpoint.servers
            )
        instrument = MultiInstrument([recorder, heartbeat])
    try:
        if checkpoint is not None:
            from repro.sim.engine import Simulator

            result = Simulator.resume_from(
                checkpoint,
                instrument=instrument,
                checkpoint_every=every,
                checkpointer=checkpointer,
            ).run()
        else:
            from repro.workload.generator import generate
            from repro.workload.spec import WorkloadSpec

            spec = WorkloadSpec(n_transactions=args.n, utilization=args.utilization)
            result = _replay(
                generate(spec, seed=args.seed),
                PolicySpec.of(args.policy),
                fault_spec,
                instrument=instrument,
                profiler=profiler,
                retain_records=not args.streaming,
                checkpoint_every=every,
                checkpointer=checkpointer,
            )
    finally:
        if writer is not None:
            writer.close()
    if checkpoint is not None:
        print(
            f"resumed {args.resume} at event {checkpoint.events_processed} "
            f"(t={checkpoint.now:g})",
            file=sys.stderr,
        )
    if args.report and recorder is not None:
        print(recorder.report().render())
    else:
        print(_summary_line(recorder, result, meta.get("faults") is not None))
    if writer is not None:
        verb = "streamed to" if checkpoint is None else "continued at"
        print(
            f"event log ({writer.records_written} records) {verb} "
            f"{meta.get('events_out')}",
            file=sys.stderr,
        )
    elif meta.get("events_out") and isinstance(recorder, Recorder):
        path, written = _export_events(recorder, meta)
        print(f"event log ({written} records) written to {path}", file=sys.stderr)
    if args.trace_out and isinstance(recorder, Recorder):
        from repro.obs.analyze import reconstruct, write_trace

        trace_path = write_trace(reconstruct(recorder.events), args.trace_out)
        print(f"perfetto trace written to {trace_path}", file=sys.stderr)
    if profiler is not None:
        print(
            "profile snapshot written to "
            f"{_write_profile(profiler.snapshot(args.policy), args.profile_out)}",
            file=sys.stderr,
        )
    return 0


def _run_chaos(args: argparse.Namespace, fault_spec) -> int:
    """Fault-injection sweep: the transaction-level comparison under a
    deterministic fault plan (Figure 8/9 conditions plus adversity)."""
    from repro.experiments.config import TRANSACTION_LEVEL_POLICIES
    from repro.experiments.runner import utilization_sweep
    from repro.workload.spec import WorkloadSpec

    failures: list = []
    series = utilization_sweep(
        WorkloadSpec(),
        TRANSACTION_LEVEL_POLICIES,
        "average_tardiness",
        _config(args),
        progress=_progress(args),
        fault_spec=fault_spec,
        **_sweep_kwargs(args, failures),
    )
    print(
        format_series(
            series,
            f"Chaos sweep: avg tardiness under faults ({fault_spec.describe()})",
        )
    )
    if args.export:
        from repro.experiments.export import write_series

        path = write_series(series, args.export)
        print(f"\nseries written to {path}", file=sys.stderr)
    return _report_failures(failures)


def _run_analyze(args: argparse.Namespace) -> int:
    """Forensics report over one recorded event log."""
    from repro.obs.analyze import (
        attribute_all,
        reconstruct_file,
        render_analysis_json,
        render_analysis_text,
        write_trace,
    )

    run = reconstruct_file(args.paths[0])
    blames = attribute_all(run)
    if args.fmt == "json":
        print(render_analysis_json(run, blames))
    else:
        print(render_analysis_text(run, blames, top=args.top))
    if args.trace_out:
        trace_path = write_trace(run, args.trace_out)
        print(f"perfetto trace written to {trace_path}", file=sys.stderr)
    return 0


def _run_diff(args: argparse.Namespace) -> int:
    """Cross-run diff of two event logs of the same workload."""
    from repro.obs.analyze import (
        diff_runs,
        reconstruct_file,
        render_diff_json,
        render_diff_text,
    )

    diff = diff_runs(
        reconstruct_file(args.paths[0]), reconstruct_file(args.paths[1])
    )
    if args.fmt == "json":
        print(render_diff_json(diff))
    else:
        print(render_diff_text(diff, top=args.top))
    return 0


def _install_signal_handlers() -> None:
    """SIGINT/SIGTERM raise KeyboardInterrupt once, then revert to default.

    The first signal interrupts gracefully (sweeps drain their pool and
    persist the manifest; exit code 3); resetting to SIG_DFL means a
    second signal hard-kills a shutdown that is itself stuck.
    """
    import signal

    def _handler(signum: int, frame: object) -> None:
        signal.signal(signum, signal.SIG_DFL)
        raise KeyboardInterrupt

    for sig in (signal.SIGINT, signal.SIGTERM):
        try:
            signal.signal(sig, _handler)
        except (ValueError, OSError):  # pragma: no cover - non-main thread
            pass


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    _install_signal_handlers()
    from repro.errors import CheckpointError, SweepInterrupted

    try:
        return _dispatch(parser, args)
    except SweepInterrupted:
        # run_cell_groups already reported the cell counts to stderr.
        if getattr(args, "resume", None):
            print(
                "interrupted; completed cells are persisted — rerun the "
                "same command to continue",
                file=sys.stderr,
            )
        else:
            print(
                "interrupted; progress was not persisted (pass --resume "
                "PATH to make sweeps resumable)",
                file=sys.stderr,
            )
        return 3
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return 3
    except CheckpointError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def _dispatch(parser: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    if args.target not in _TARGETS:
        _unknown_name_error(parser, "target", args.target, _TARGETS)
    expected_paths = {"analyze": 1, "diff": 2}.get(args.target, 0)
    if len(args.paths) != expected_paths:
        parser.error(
            f"target '{args.target}' takes exactly {expected_paths} "
            f"event-log path(s), got {len(args.paths)}"
        )
    if args.profile_out and args.target not in ("run", "profile"):
        parser.error("--profile-out applies to the 'run' and 'profile' targets")
    if args.flame_out and args.target != "profile":
        parser.error("--flame-out/--flame-format apply to the 'profile' target")
    if args.checkpoint_every is not None or args.checkpoint_out is not None:
        if args.target != "run":
            parser.error(
                "--checkpoint-every/--checkpoint-out apply to the 'run' "
                "target (sweeps persist progress via --resume instead)"
            )
        if args.checkpoint_every is None or args.checkpoint_out is None:
            parser.error(
                "--checkpoint-every and --checkpoint-out must be given "
                "together"
            )
        if args.checkpoint_every < 1:
            parser.error(
                f"--checkpoint-every must be >= 1, got {args.checkpoint_every}"
            )
        if args.profile_out:
            parser.error(
                "checkpointing cannot be combined with --profile-out: "
                "wall-clock phase timings do not survive a resume"
            )
    if args.resume is not None:
        resumable = set(_FIGURES) | {"run", "chaos", "alpha"}
        if args.target not in resumable:
            parser.error(
                "--resume applies to 'run' (checkpoint file) and the "
                "sweep targets (completion manifest): "
                f"{', '.join(sorted(resumable))}"
            )
        if args.target == "run" and args.events_out:
            parser.error(
                "'run --resume' continues the event log recorded in the "
                "checkpoint; --events-out does not apply"
            )
    if args.target == "analyze":
        return _run_analyze(args)
    if args.target == "diff":
        return _run_diff(args)
    if args.target in ("run", "profile") and args.resume is None:
        from repro.policies.registry import available_policies

        if args.policy not in available_policies():
            _unknown_name_error(
                parser, "policy", args.policy, available_policies()
            )
    if args.target == "profile":
        if args.flame_format not in _FLAME_FORMATS:
            _unknown_name_error(
                parser, "flame format", args.flame_format, _FLAME_FORMATS
            )
        return _run_profile(args, fault_spec=_parse_faults(parser, args))
    if args.target == "run":
        if args.resume is not None:
            return _run_single(args)
        if not 0.0 < args.events_sample <= 1.0:
            parser.error(
                f"--events-sample must be in (0, 1], got {args.events_sample}"
            )
        if args.events_rotate is not None and args.events_rotate < 1:
            parser.error(
                f"--events-rotate must be >= 1 byte, got {args.events_rotate}"
            )
        if (
            args.events_sample < 1.0 or args.events_rotate is not None
        ) and not args.events_out:
            parser.error(
                "--events-sample/--events-rotate need --events-out"
            )
        if args.window is not None and not args.streaming:
            parser.error("--window needs --streaming")
        if args.streaming and args.trace_out:
            parser.error(
                "--trace-out needs buffered events; drop --streaming, or "
                "run 'analyze --trace-out' over the streamed --events-out log"
            )
        if args.streaming and args.profile_out:
            parser.error(
                "--profile-out needs the buffered engine path; drop "
                "--streaming, or use the 'profile' target"
            )
        return _run_single(args, fault_spec=_parse_faults(parser, args))
    if args.target == "chaos":
        return _run_chaos(
            args, _parse_faults(parser, args, default=_DEFAULT_CHAOS_FAULTS)
        )
    if args.target == "table1":
        print(tables.table1())
        return 0
    if args.target == "claims":
        results = tables.headline_claims(
            _config(args),
            _progress(args),
            jobs=args.jobs,
            cell_timeout=args.cell_timeout,
        )
        print(tables.format_claims(results))
        return 0 if all(r.holds for r in results) else 1
    if args.target == "tail":
        # Record-level statistics: always sequential (no cell grid).
        series = extensions.tail_analysis(_config(args), progress=_progress(args))
        print("Tardiness distribution per policy")
        print(extensions.format_tail_table(series))
        return 0
    if args.target == "alpha":
        failures: list = []
        sweeps = figures.alpha_sweep(
            config=_config(args),
            progress=_progress(args),
            **_sweep_kwargs(args, failures),
        )
        for alpha, series in sweeps.items():
            crossover = series.crossover("EDF", "SRPT")
            print(format_series(series, f"alpha={alpha} (EDF/SRPT crossover: {crossover})"))
            print()
        return _report_failures(failures)
    if args.target == "all":
        code = 0
        for name in sorted(_FIGURES):
            code = max(code, _run_figure(name, args))
            print()
        return code
    return _run_figure(args.target, args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
