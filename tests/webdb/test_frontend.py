"""Integration-level tests for the WebDatabase front end."""

import random

import pytest

from repro.errors import QueryError
from repro.policies import EDF
from repro.webdb import (
    ContentFragment,
    Database,
    DynamicPage,
    PageRequest,
    UserSession,
    WebDatabase,
)
from repro.webdb.query import Aggregate, Filter, Input, Scan
from repro.webdb.sla import GOLD, SILVER


@pytest.fixture
def db():
    db = Database()
    stocks = db.create_table("stocks", ["symbol", "price", "change_pct"])
    rng = random.Random(0)
    for i in range(20):
        stocks.insert(
            {
                "symbol": f"S{i}",
                "price": float(10 + i),
                "change_pct": rng.uniform(-10, 10),
            }
        )
    return db


@pytest.fixture
def page():
    return DynamicPage(
        "stocks",
        [
            ContentFragment("prices", Scan("stocks")),
            ContentFragment(
                "alerts",
                Filter(Input("prices"), lambda r: abs(r["change_pct"]) > 5),
                urgency=0.5,
                weight_boost=2.0,
            ),
            ContentFragment("count", Aggregate(Input("prices"), "count")),
        ],
    )


@pytest.fixture
def wdb(db, page):
    w = WebDatabase(db)
    w.register_page(page)
    return w


class TestSetup:
    def test_duplicate_page_rejected(self, wdb, page):
        with pytest.raises(QueryError):
            wdb.register_page(page)

    def test_unknown_page_lookup(self, wdb):
        with pytest.raises(QueryError):
            wdb.page("nope")

    def test_submit_unregistered_page_rejected(self, db, wdb):
        other = DynamicPage("other", [ContentFragment("a", Scan("stocks"))])
        with pytest.raises(QueryError):
            wdb.submit(PageRequest("u", other, GOLD, at=0.0))

    def test_run_without_requests_rejected(self, wdb):
        with pytest.raises(QueryError):
            wdb.run("edf")

    def test_clear_requests(self, wdb, page):
        wdb.submit(PageRequest("u", page, GOLD, at=0.0))
        assert wdb.pending_requests == 1
        wdb.clear_requests()
        assert wdb.pending_requests == 0


class TestCompilation:
    def test_one_transaction_per_fragment(self, wdb, page):
        wdb.submit(PageRequest("u", page, GOLD, at=3.0))
        txns, mappings = wdb.compile_requests()
        assert len(txns) == 3
        assert set(mappings[0]) == {"prices", "alerts", "count"}
        assert all(t.arrival == 3.0 for t in txns)

    def test_dependencies_follow_inputs(self, wdb, page):
        wdb.submit(PageRequest("u", page, GOLD, at=0.0))
        txns, mappings = wdb.compile_requests()
        mapping = mappings[0]
        alerts = txns[mapping["alerts"]]
        assert alerts.depends_on == (mapping["prices"],)

    def test_sla_tier_sets_weight_and_deadline(self, wdb, page):
        wdb.submit(PageRequest("u", page, GOLD, at=0.0))
        wdb.submit(PageRequest("v", page, SILVER, at=0.0))
        txns, mappings = wdb.compile_requests()
        gold_prices = txns[mappings[0]["prices"]]
        silver_prices = txns[mappings[1]["prices"]]
        assert gold_prices.weight > silver_prices.weight
        assert gold_prices.deadline < silver_prices.deadline

    def test_urgency_tightens_fragment_deadline(self, wdb, page):
        wdb.submit(PageRequest("u", page, GOLD, at=0.0))
        txns, mappings = wdb.compile_requests()
        alerts = txns[mappings[0]["alerts"]]
        # With urgency 0.5 the alerts deadline can precede the deadline of
        # the fragment it depends on when lengths allow; at minimum its
        # slack ratio must be halved.
        assert alerts.deadline == pytest.approx(
            alerts.arrival + alerts.length * (1 + GOLD.slack_factor * 0.5)
        )


class TestRun:
    def _submit_some(self, wdb, page, n=10):
        session = UserSession("u", GOLD, [page], mean_think_time=1.0)
        wdb.submit_all(session.requests(random.Random(2), n=n))

    def test_run_produces_page_results(self, wdb, page):
        self._submit_some(wdb, page)
        report = wdb.run("edf")
        assert report.policy_name == "edf"
        assert len(report.page_results) == 10
        first = report.page_results[0]
        assert set(first.fragment_records) == {"prices", "alerts", "count"}
        assert first.latency > 0
        assert "== prices ==" in first.content

    def test_dependent_content_materialised(self, wdb, page):
        self._submit_some(wdb, page, n=1)
        report = wdb.run("fcfs")
        content = report.page_results[0].content
        assert "== count ==" in content
        assert "count=20" in content

    def test_requests_stay_queued_for_replay(self, wdb, page):
        self._submit_some(wdb, page, n=5)
        a = wdb.run("fcfs")
        b = wdb.run("fcfs")
        assert [p.finish for p in a.page_results] == [
            p.finish for p in b.page_results
        ]

    def test_policy_instance_accepted(self, wdb, page):
        self._submit_some(wdb, page, n=3)
        report = wdb.run(EDF())
        assert report.policy_name == "edf"

    def test_workflow_policy_gets_workflow_set(self, wdb, page):
        self._submit_some(wdb, page, n=5)
        report = wdb.run("asets-star")
        assert report.policy_name == "asets-star"
        assert len(report.page_results) == 5

    def test_report_aggregates(self, wdb, page):
        self._submit_some(wdb, page, n=5)
        report = wdb.run("edf")
        assert report.average_page_latency > 0
        assert 0 <= report.pages_fully_on_time <= 5
        assert report.average_page_tardiness >= 0

    def test_page_result_properties(self, wdb, page):
        self._submit_some(wdb, page, n=1)
        report = wdb.run("edf")
        page_result = report.page_results[0]
        assert page_result.finish == max(
            r.finish for r in page_result.fragment_records.values()
        )
        assert page_result.weighted_tardiness >= page_result.tardiness * 0
        assert page_result.met_all_deadlines == (page_result.tardiness == 0)
