"""Command-line workload tooling.

Three subcommands around saved workload traces::

    python -m repro.workload generate --n 500 --utilization 0.8 \\
        --workflows --weighted --seed 7 --out trace.json
    python -m repro.workload stats trace.json
    python -m repro.workload simulate trace.json --policy asets --gantt

``generate`` materialises a Table-I workload to JSON; ``stats`` prints
the diagnostics of :mod:`repro.workload.stats` (including the
deadline/precedence conflict rate); ``simulate`` replays the trace under
any registry policy, reports the tardiness metrics, and can render an
ASCII Gantt chart of the schedule.
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

from repro.errors import ReproError
from repro.metrics.report import format_table
from repro.obs.recorder import Recorder
from repro.policies.registry import available_policies, make_policy
from repro.sim.engine import Simulator
from repro.sim.gantt import render_gantt
from repro.workload.generator import generate
from repro.workload.io import load_workload, save_workload
from repro.workload.spec import WorkloadSpec
from repro.workload.stats import summarize

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-workload",
        description="Generate, inspect and replay workload traces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="generate a workload and save it")
    gen.add_argument("--n", type=int, default=1000, help="transactions")
    gen.add_argument("--utilization", type=float, default=0.5)
    gen.add_argument("--alpha", type=float, default=0.5, help="Zipf skew")
    gen.add_argument("--k-max", type=float, default=3.0, dest="k_max")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--weighted", action="store_true")
    gen.add_argument("--workflows", action="store_true")
    gen.add_argument(
        "--estimate-error",
        type=float,
        default=0.0,
        help="max relative length-estimation error",
    )
    gen.add_argument("--out", required=True, help="output JSON path")

    stats = sub.add_parser("stats", help="summarize a saved workload")
    stats.add_argument("path", help="workload JSON file")

    sim = sub.add_parser("simulate", help="replay a saved workload")
    sim.add_argument("path", help="workload JSON file")
    sim.add_argument(
        "--policy",
        default="asets",
        choices=available_policies(),
    )
    sim.add_argument("--servers", type=int, default=1)
    sim.add_argument(
        "--gantt", action="store_true", help="render an ASCII Gantt chart"
    )
    sim.add_argument(
        "--gantt-width", type=int, default=72, help="Gantt chart width"
    )
    return parser


def _cmd_generate(args: argparse.Namespace) -> int:
    spec = WorkloadSpec(
        n_transactions=args.n,
        utilization=args.utilization,
        zipf_alpha=args.alpha,
        k_max=args.k_max,
        weighted=args.weighted,
        with_workflows=args.workflows,
        length_estimate_error=args.estimate_error,
    )
    workload = generate(spec, seed=args.seed)
    path = save_workload(workload, args.out)
    print(
        f"wrote {workload.n} transactions "
        f"(utilization {spec.utilization}, seed {args.seed}) to {path}"
    )
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    workload = load_workload(args.path)
    stats = summarize(workload)
    print(format_table(["property", "value"], stats.as_rows()))
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    workload = load_workload(args.path)
    kwargs = {"time_rate": 0.01} if args.policy == "balance-aware" else {}
    # The chart is drawn from the run's event log, so only --gantt
    # attaches a recorder (and loads the log analysis).
    recorder = Recorder() if args.gantt else None
    result = Simulator(
        workload.transactions,
        make_policy(args.policy, **kwargs),
        workflow_set=workload.workflow_set,
        servers=args.servers,
        instrument=recorder,
    ).run()
    rows = [
        ("policy", args.policy),
        ("transactions", result.n),
        ("average tardiness", result.average_tardiness),
        ("average weighted tardiness", result.average_weighted_tardiness),
        ("max weighted tardiness", result.max_weighted_tardiness),
        ("deadline miss ratio", result.deadline_miss_ratio),
        ("makespan", result.makespan),
    ]
    print(format_table(["metric", "value"], rows))
    if recorder is not None:
        from repro.obs.analyze.lifecycle import reconstruct

        print()
        segments = reconstruct(recorder.events).segments
        print(render_gantt(segments, width=args.gantt_width))
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "generate":
            return _cmd_generate(args)
        if args.command == "stats":
            return _cmd_stats(args)
        return _cmd_simulate(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
