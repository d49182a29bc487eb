"""Tests for the ASCII Gantt renderer."""

import pytest

from repro.errors import SimulationError
from repro.obs.analyze.lifecycle import Segment
from repro.policies import SRPT
from repro.sim.gantt import render_gantt
from tests.conftest import make_txn, run_segments


def _row(out, txn_id):
    return next(l for l in out.splitlines() if l.strip().startswith(f"{txn_id} |"))


def _bars(row):
    return [chunk for chunk in row.split("|")[1].split(" ") if "#" in chunk]


def test_empty_trace_rejected():
    with pytest.raises(SimulationError):
        render_gantt(())


def test_width_validated():
    with pytest.raises(SimulationError):
        render_gantt([Segment(1, 0.0, 1.0)], width=5)


def test_single_slice_fills_row():
    out = render_gantt([Segment(1, 0.0, 10.0)], width=20)
    assert _row(out, 1).count("#") == 20


def test_split_bars_show_preemption():
    long = make_txn(1, arrival=0.0, length=8.0, deadline=100.0)
    short = make_txn(2, arrival=4.0, length=2.0, deadline=100.0)
    _, segments = run_segments([long, short], SRPT())
    out = render_gantt(segments, width=40)
    # Two separate bars: work before and after the preemption.
    assert len(_bars(_row(out, 1))) == 2


def test_unpreempted_multiserver_transaction_is_one_bar():
    # On two servers T2's arrival is a scheduling point at which T1
    # keeps its server: T1 is one unbroken bar.
    t1 = make_txn(1, arrival=0.0, length=10.0, deadline=100.0)
    t2 = make_txn(2, arrival=1.0, length=1.0, deadline=100.0)
    _, segments = run_segments([t1, t2], SRPT(), servers=2)
    out = render_gantt(segments, width=40)
    assert _bars(_row(out, 1)) == ["#" * 40]


def test_rows_in_first_execution_order():
    out = render_gantt([Segment(7, 0.0, 1.0), Segment(3, 1.0, 2.0)])
    lines = [l for l in out.splitlines() if "|" in l]
    assert lines[0].strip().startswith("7")
    assert lines[1].strip().startswith("3")


def test_row_cap_with_footer():
    segments = [Segment(i, float(i), float(i) + 1.0) for i in range(10)]
    out = render_gantt(segments, max_rows=4)
    assert "... 6 more transactions not shown" in out


def test_header_mentions_span():
    assert "time 2 .. 12" in render_gantt([Segment(1, 2.0, 12.0)])
