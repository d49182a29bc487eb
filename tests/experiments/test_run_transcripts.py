"""End-to-end transcripts of the ``run`` target, fresh and resumed.

The engine's ``select()`` timer and the heartbeat's wall clock are
replaced by deterministic ones, so every stdout/stderr line and every
byte of every event log is reproducible.  The golden transcripts pin the
CLI's output across buffered, streaming and resumed runs; the identity
tests check that a resumed run finishes exactly as the uninterrupted one
and that a buffered log goes through the same sampling and rotation as a
streamed one.
"""

from __future__ import annotations

import hashlib
import itertools

import pytest

from repro.experiments.cli import main

FAULTS = "seed=7,abort_prob=0.2,max_retries=1,stall_prob=0.1,crash_count=1"
BASE = ["run", "--policy", "asets", "--n", "300", "--seed", "2"]
SAMPLED = ["--events-sample", "0.25", "--events-rotate", "16384"]


@pytest.fixture
def clocks(monkeypatch):
    """``select()`` takes no time; the heartbeat clock ticks 1 s a read."""
    import repro.obs.progress as progress
    import repro.sim.engine as engine

    ticks = itertools.count()
    monkeypatch.setattr(engine, "perf_counter", lambda: 0.0)
    monkeypatch.setattr(progress, "perf_counter", lambda: float(next(ticks)))


def _run(argv, tmp_path, capsys):
    """Run the CLI once; returns ``(stdout lines, stderr lines)``."""
    capsys.readouterr()
    args = [a.replace("{tmp}", str(tmp_path)) for a in argv]
    assert main(args) == 0
    captured = capsys.readouterr()
    return (
        captured.out.replace(str(tmp_path), "<tmp>").splitlines(),
        captured.err.replace(str(tmp_path), "<tmp>").splitlines(),
    )


def _fold_heartbeats(lines):
    """Replace the per-point ``[hb]`` lines by their count and digest."""
    beats = [line for line in lines if line.startswith("[hb]")]
    rest = [line for line in lines if not line.startswith("[hb]")]
    if not beats:
        return rest
    digest = hashlib.sha256("\n".join(beats).encode()).hexdigest()[:16]
    return [f"[hb] x{len(beats)} {digest}"] + rest


def _artifacts(tmp_path):
    """Name and digest of every written file except checkpoints."""
    return [
        f"{path.name} {hashlib.sha256(path.read_bytes()).hexdigest()[:16]}"
        for path in sorted(tmp_path.iterdir())
        if path.suffix != ".ckpt"
    ]


def _transcript(steps, tmp_path, capsys):
    out = []
    for argv in steps:
        stdout, stderr = _run(argv, tmp_path, capsys)
        out.append(
            {
                "stdout": stdout,
                "stderr": _fold_heartbeats(stderr),
                "files": _artifacts(tmp_path),
            }
        )
    return out


CASES = {
    "buffered": [BASE],
    "buffered-faults": [BASE + ["--faults", FAULTS]],
    "buffered-report-faults": [BASE + ["--report", "--faults", FAULTS]],
    "buffered-events-trace": [
        BASE + ["--events-out", "{tmp}/a.jsonl", "--trace-out", "{tmp}/t.json"]
    ],
    "buffered-events-sampled": [
        BASE + ["--faults", FAULTS, "--events-out", "{tmp}/b.jsonl"] + SAMPLED
    ],
    "buffered-progress": [
        ["run", "--policy", "edf", "--n", "40", "--progress=0.5"]
    ],
    "streaming": [BASE + ["--streaming"]],
    "streaming-window-report": [
        BASE + ["--streaming", "--window", "100", "--report"]
    ],
    "streaming-events-faults": [
        BASE
        + ["--streaming", "--window", "100", "--faults", FAULTS]
        + ["--events-out", "{tmp}/s.jsonl"]
        + SAMPLED
    ],
    "streaming-progress": [
        ["run", "--policy", "edf", "--n", "40", "--streaming", "--progress"]
    ],
    "resume-buffered": [
        BASE
        + ["--faults", FAULTS, "--events-out", "{tmp}/r.jsonl"]
        + SAMPLED
        + ["--checkpoint-every", "400", "--checkpoint-out", "{tmp}/r.ckpt"],
        ["run", "--resume", "{tmp}/r.ckpt", "--progress=0.5"],
    ],
    "resume-buffered-report": [
        BASE
        + ["--checkpoint-every", "400", "--checkpoint-out", "{tmp}/q.ckpt"],
        ["run", "--resume", "{tmp}/q.ckpt", "--report"],
    ],
    "resume-streaming": [
        BASE
        + ["--streaming", "--window", "100", "--faults", FAULTS]
        + ["--events-out", "{tmp}/w.jsonl"]
        + SAMPLED
        + ["--checkpoint-every", "400", "--checkpoint-out", "{tmp}/w.ckpt"],
        ["run", "--resume", "{tmp}/w.ckpt", "--progress=0.5"],
    ],
}

#: Captured from the CLI with the clocks above.  A resumed run prints
#: the uninterrupted run's summary line, fault counts included, and its
#: heartbeat's final ``[hb] done`` line counts the whole run's summary.
#: A resumed heartbeat is primed from the checkpoint (``done=…/300``) and
#: reads its wall epoch at the resume: one clock read more than before.
GOLDEN = {
    "buffered": [
        {
            "stdout": [
                "asets: n=300 avg_tardiness=9.851 scheduling_points=702 preemptions=103",
            ],
            "stderr": [],
            "files": [],
        },
    ],
    "buffered-events-sampled": [
        {
            "stdout": [
                "asets: n=300 avg_tardiness=19.617 scheduling_points=977 preemptions=129 aborted=13 shed=0 retries=56",
            ],
            "stderr": [
                "event log (808 records) written to <tmp>/b.jsonl",
            ],
            "files": [
                "b-0001.jsonl ad3f3d6672630581",
                "b-0002.jsonl e5e905bce65f98d7",
                "b-0003.jsonl 73e13979e9853779",
                "b-0004.jsonl 229b69e30d563376",
                "b.manifest.json 734539de45a5ea92",
            ],
        },
    ],
    "buffered-events-trace": [
        {
            "stdout": [
                "asets: n=300 avg_tardiness=9.851 scheduling_points=702 preemptions=103",
            ],
            "stderr": [
                "event log (2072 records) written to <tmp>/a.jsonl",
                "perfetto trace written to <tmp>/t.json",
            ],
            "files": [
                "a.jsonl 2c8592ae41dfc279",
                "t.json 26821b9c6019c54b",
            ],
        },
    ],
    "buffered-faults": [
        {
            "stdout": [
                "asets: n=300 avg_tardiness=19.617 scheduling_points=977 preemptions=129 aborted=13 shed=0 retries=56",
            ],
            "stderr": [],
            "files": [],
        },
    ],
    "buffered-progress": [
        {
            "stdout": [
                "edf: n=40 avg_tardiness=18.730 scheduling_points=89 preemptions=10",
            ],
            "stderr": [
                "[hb] x90 8effe7e72558ab6c",
            ],
            "files": [],
        },
    ],
    "buffered-report-faults": [
        {
            "stdout": [
                "Run report — asets",
                "  policy                  asets",
                "  transactions            300",
                "  servers                 1",
                "  makespan                6357.99",
                "  scheduling points       977",
                "  preemptions             129 (0.43/txn)",
                "  arrivals                300",
                "  dispatches              949",
                "  completions             287",
                "  overhead paid           0",
                "  total tardiness         5630.22",
                "  ready depth max/mean    7 / 2.5",
                "  select total            0.0 us",
                "  select p50/p90/p99/max  0.0 us / 0.0 us / 0.0 us / 0.0 us",
                "  tardiness p50/p90/p99   0 / 49.903 / 314.235 (±1% rel)",
                "  response p50/p95/p99    26.3129 / 257.272 / 415.778",
                "  deadline miss ratio     0.4007",
                "  faults                  aborted=13 shed=0 retries=56 crashes=0 stalls=21",
            ],
            "stderr": [],
            "files": [],
        },
    ],
    "resume-buffered": [
        {
            "stdout": [
                "asets: n=300 avg_tardiness=19.617 scheduling_points=977 preemptions=129 aborted=13 shed=0 retries=56",
            ],
            "stderr": [
                "event log (808 records) written to <tmp>/r.jsonl",
            ],
            "files": [
                "r-0001.jsonl ad3f3d6672630581",
                "r-0002.jsonl e5e905bce65f98d7",
                "r-0003.jsonl 73e13979e9853779",
                "r-0004.jsonl 229b69e30d563376",
                "r.manifest.json aecef408cba0d7e6",
            ],
        },
        {
            "stdout": [
                "asets: n=300 avg_tardiness=19.617 scheduling_points=977 preemptions=129 aborted=13 shed=0 retries=56",
            ],
            "stderr": [
                "[hb] x178 b29426647e80efdc",
                "resumed <tmp>/r.ckpt at event 800 (t=5146.22)",
                "event log (808 records) written to <tmp>/r.jsonl",
            ],
            "files": [
                "r-0001.jsonl ad3f3d6672630581",
                "r-0002.jsonl e5e905bce65f98d7",
                "r-0003.jsonl 73e13979e9853779",
                "r-0004.jsonl 229b69e30d563376",
                "r.manifest.json aecef408cba0d7e6",
            ],
        },
    ],
    "resume-buffered-report": [
        {
            "stdout": [
                "asets: n=300 avg_tardiness=9.851 scheduling_points=702 preemptions=103",
            ],
            "stderr": [],
            "files": [],
        },
        {
            "stdout": [
                "Run report — asets",
                "  policy                  asets",
                "  transactions            300",
                "  servers                 1",
                "  makespan                6272.05",
                "  scheduling points       702",
                "  preemptions             103 (0.34/txn)",
                "  arrivals                300",
                "  dispatches              665",
                "  completions             300",
                "  overhead paid           0",
                "  total tardiness         2955.36",
                "  ready depth max/mean    5 / 1.7",
                "  select total            0.0 us",
                "  select p50/p90/p99/max  0.0 us / 0.0 us / 0.0 us / 0.0 us",
                "  tardiness p50/p90/p99   0 / 32.7881 / 132.969 (±1% rel)",
                "  response p50/p95/p99    22.8752 / 165.69 / 237.492",
                "  deadline miss ratio     0.3067",
            ],
            "stderr": [
                "resumed <tmp>/q.ckpt at event 400 (t=3393.45)",
            ],
            "files": [],
        },
    ],
    "resume-streaming": [
        {
            "stdout": [
                "asets: n=300 avg_tardiness=19.617 tardiness_p99=314.235 miss_ratio=0.4007 scheduling_points=977",
            ],
            "stderr": [
                "event log (872 records) streamed to <tmp>/w.jsonl",
            ],
            "files": [
                "w-0001.jsonl fb66c1379d62d707",
                "w-0002.jsonl a143154ec0ba4f00",
                "w-0003.jsonl a46c09e7e7875d42",
                "w-0004.jsonl e3cbaaefeaba88dd",
                "w-0005.jsonl 3238deac28dca84c",
                "w.manifest.json 1914301630d24343",
            ],
        },
        {
            "stdout": [
                "asets: n=300 avg_tardiness=19.617 tardiness_p99=314.235 miss_ratio=0.4007 scheduling_points=977",
            ],
            "stderr": [
                "[hb] x178 b29426647e80efdc",
                "resumed <tmp>/w.ckpt at event 800 (t=5146.22)",
                "event log (872 records) continued at <tmp>/w.jsonl",
            ],
            "files": [
                "w-0001.jsonl fb66c1379d62d707",
                "w-0002.jsonl a143154ec0ba4f00",
                "w-0003.jsonl a46c09e7e7875d42",
                "w-0004.jsonl e3cbaaefeaba88dd",
                "w-0005.jsonl 3238deac28dca84c",
                "w.manifest.json 1914301630d24343",
            ],
        },
    ],
    "streaming": [
        {
            "stdout": [
                "asets: n=300 avg_tardiness=9.851 tardiness_p99=132.969 miss_ratio=0.3067 scheduling_points=702",
            ],
            "stderr": [],
            "files": [],
        },
    ],
    "streaming-events-faults": [
        {
            "stdout": [
                "asets: n=300 avg_tardiness=19.617 tardiness_p99=314.235 miss_ratio=0.4007 scheduling_points=977",
            ],
            "stderr": [
                "event log (872 records) streamed to <tmp>/s.jsonl",
            ],
            "files": [
                "s-0001.jsonl fb66c1379d62d707",
                "s-0002.jsonl a143154ec0ba4f00",
                "s-0003.jsonl a46c09e7e7875d42",
                "s-0004.jsonl e3cbaaefeaba88dd",
                "s-0005.jsonl 3238deac28dca84c",
                "s.manifest.json 77f41cd1a4b96567",
            ],
        },
    ],
    "streaming-progress": [
        {
            "stdout": [
                "edf: n=40 avg_tardiness=18.730 tardiness_p99=94.642 miss_ratio=0.5500 scheduling_points=89",
            ],
            "stderr": [
                "[hb] x9 dc0d5f95d615fa05",
            ],
            "files": [],
        },
    ],
    "streaming-window-report": [
        {
            "stdout": [
                "Run report — asets",
                "  policy                  asets",
                "  transactions            300",
                "  servers                 1",
                "  makespan                6272.05",
                "  scheduling points       702",
                "  preemptions             103 (0.34/txn)",
                "  arrivals                300",
                "  dispatches              665",
                "  completions             300",
                "  overhead paid           0",
                "  total tardiness         2955.36",
                "  ready depth max/mean    5 / 1.7",
                "  select total            0.0 us",
                "  select p50/p90/p99/max  0.0 us / 0.0 us / 0.0 us / 0.0 us",
                "  tardiness p50/p90/p99   0 / 32.7881 / 132.969 (±1% rel)",
                "  response p50/p95/p99    22.8752 / 165.69 / 237.492",
                "  deadline miss ratio     0.3067",
            ],
            "stderr": [],
            "files": [],
        },
    ],
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_golden_transcript(case, clocks, tmp_path, capsys):
    assert _transcript(CASES[case], tmp_path, capsys) == GOLDEN[case]


def _without_select(lines):
    return [line for line in lines if "select" not in line]


def _log_records(directory):
    """Every record of every event log under ``directory``, sans ``select_s``."""
    from repro.obs.jsonl import read_tolerant

    records = []
    for path in sorted(directory.glob("*.jsonl")):
        for record in read_tolerant(path)[0]:
            record.pop("select_s", None)
            records.append(record)
    return records


@pytest.mark.parametrize("faults", [[], ["--faults", FAULTS]], ids=["clean", "faults"])
@pytest.mark.parametrize(
    "mode", [[], ["--streaming"]], ids=["buffered", "streaming"]
)
def test_resumed_run_prints_the_uninterrupted_transcript(
    mode, faults, tmp_path, capsys
):
    argv = BASE + mode + faults + ["--events-out", "{tmp}/e.jsonl"]
    plain, cut = tmp_path / "plain", tmp_path / "cut"
    plain.mkdir()
    cut.mkdir()
    golden, _ = _run(argv, plain, capsys)
    _run(
        argv + ["--checkpoint-every", "400", "--checkpoint-out", "{tmp}/e.ckpt"],
        cut,
        capsys,
    )
    resumed, stderr = _run(["run", "--resume", "{tmp}/e.ckpt"], cut, capsys)
    assert stderr[0].startswith("resumed <tmp>/e.ckpt at event ")
    assert _without_select(resumed) == _without_select(golden)
    assert _log_records(cut) == _log_records(plain)


def test_buffered_and_streamed_logs_share_one_sampling_path(
    clocks, tmp_path, capsys
):
    """A sampled, rotated log is the same whether it was buffered and
    exported after the run or streamed as the run went."""
    argv = [
        "run", "--policy", "asets", "--n", "800", "--seed", "3",
        "--faults",
        "seed=3,abort_prob=0.1,max_retries=2,stall_prob=0.1,stall_max=1.0,"
        "crash_count=1",
        "--events-out", "{tmp}/x.jsonl",
        "--events-sample", "0.25", "--events-rotate", "20000",
    ]
    buffered, streamed = tmp_path / "buffered", tmp_path / "streamed"
    buffered.mkdir()
    streamed.mkdir()
    _run(argv, buffered, capsys)
    _run(argv + ["--streaming"], streamed, capsys)
    names = sorted(path.name for path in buffered.iterdir())
    assert len(names) > 3 and "x.manifest.json" in names
    assert names == sorted(path.name for path in streamed.iterdir())
    for name in names:
        assert (buffered / name).read_bytes() == (streamed / name).read_bytes()


def test_resumed_heartbeat_counts_against_the_checkpointed_run(
    tmp_path, capsys, monkeypatch
):
    """A resumed run's beats read ``done=…/N`` with the checkpoint's ``N``
    and a positive rate, on a wall clock that starts at the resume."""
    import re

    import repro.obs.progress as progress

    ticks = itertools.count()
    # The process clock is far from zero, as perf_counter() usually is;
    # each read advances it by 1 ms.
    monkeypatch.setattr(
        progress, "perf_counter", lambda: 10_000.0 + next(ticks) / 1000
    )
    fresh = ["run", "--policy", "asets", "--n", "3000"]
    _run(
        fresh + ["--checkpoint-every", "2000", "--checkpoint-out", "{tmp}/hb.ckpt"],
        tmp_path,
        capsys,
    )
    _, stderr = _run(
        ["run", "--resume", "{tmp}/hb.ckpt", "--progress=0.5"], tmp_path, capsys
    )
    beats = [line for line in stderr if line.startswith("[hb] t=")]
    assert beats
    for line in beats:
        done, n = map(int, re.search(r"done=(\d+)/(\d+)", line).groups())
        assert n == 3000 and 0 < done <= n
        assert int(re.search(r"rate=(\d+)/s", line).group(1)) > 0
    (final,) = [line for line in stderr if line.startswith("[hb] done")]
    assert "completed=3000/3000" in final
    assert int(re.search(r"rate=(\d+)/s", final).group(1)) > 0
    assert float(re.search(r"wall=([\d.]+)s", final).group(1)) < len(beats) + 1
