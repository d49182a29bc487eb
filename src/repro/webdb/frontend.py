"""The web-database front end: page requests in, scheduled pages out.

:class:`WebDatabase` is the glue of the substrate.  It compiles each
:class:`~repro.webdb.sessions.PageRequest` into one transaction per
fragment — lengths from the query cost model, deadlines and weights from
the SLA tier, dependencies from the fragments' ``Input`` references —
runs the whole request mix through the discrete-event simulator under a
chosen scheduling policy, and returns per-page results with rendered
content and tardiness accounting.

The content a fragment materialises depends only on the database, never
on the schedule, so fragments are executed once per request in
topological order and the simulator decides *when* each transaction
completed, i.e. what the user-perceived latency was.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.core.transaction import Transaction
from repro.core.workflow_set import WorkflowSet
from repro.errors import QueryError
from repro.policies.base import Scheduler
from repro.policies.registry import make_policy
from repro.sim.engine import Simulator
from repro.sim.profiler import LengthProfiler
from repro.sim.results import SimulationResult, TransactionRecord
from repro.webdb.cache import FragmentCache
from repro.webdb.database import Database, Row
from repro.webdb.pages import DynamicPage
from repro.webdb.sessions import PageRequest

__all__ = ["WebDatabase", "PageResult", "WebRunReport"]


@dataclass(slots=True)
class PageResult:
    """Outcome of one page request after simulation.

    ``fragment_records`` maps fragment name to its transaction record;
    ``content`` is the rendered page (fragments in topological order).
    """

    request: PageRequest
    fragment_records: dict[str, TransactionRecord]
    content: str

    @property
    def finish(self) -> float:
        """When the last fragment of the page completed."""
        return max(r.finish for r in self.fragment_records.values())

    @property
    def latency(self) -> float:
        """User-perceived latency: last completion minus request time."""
        return self.finish - self.request.at

    @property
    def tardiness(self) -> float:
        """Page-level tardiness: worst fragment tardiness."""
        return max(r.tardiness for r in self.fragment_records.values())

    @property
    def weighted_tardiness(self) -> float:
        """Sum of the fragments' weighted tardiness."""
        return sum(r.weighted_tardiness for r in self.fragment_records.values())

    @property
    def met_all_deadlines(self) -> bool:
        return all(r.met_deadline for r in self.fragment_records.values())


@dataclass(slots=True)
class WebRunReport:
    """Everything one :meth:`WebDatabase.run` produced."""

    policy_name: str
    page_results: list[PageResult]
    simulation: SimulationResult

    @property
    def average_page_latency(self) -> float:
        return sum(p.latency for p in self.page_results) / len(self.page_results)

    @property
    def average_page_tardiness(self) -> float:
        return sum(p.tardiness for p in self.page_results) / len(self.page_results)

    @property
    def pages_fully_on_time(self) -> int:
        return sum(1 for p in self.page_results if p.met_all_deadlines)


class WebDatabase:
    """Front end of the simulated web-database system.

    Examples
    --------
    See ``examples/stock_portal.py`` for a complete scenario; the basic
    flow is::

        wdb = WebDatabase(db)
        wdb.register_page(page)
        wdb.submit_all(session.requests(rng, n=20))
        report = wdb.run("asets-star")
    """

    def __init__(
        self,
        db: Database,
        cache: FragmentCache | None = None,
        profiler: LengthProfiler | None = None,
        cost_noise: float = 0.0,
        noise_seed: int = 0,
        optimize_queries: bool = False,
    ) -> None:
        """Create a front end over ``db``.

        ``cache`` enables fragment caching/materialization.  ``cost_noise``
        makes *actual* execution costs deviate from the cost model by up
        to the given relative factor (deterministically per request mix),
        and ``profiler`` — typically a
        :class:`~repro.sim.profiler.LengthProfiler` — then learns the
        true costs across runs and supplies the scheduler's estimates, as
        §II-A's "statistics and profiles" prescribe.  With
        ``optimize_queries`` every fragment's plan is rewritten by
        :func:`repro.webdb.optimizer.optimize` at registration.
        """
        if cost_noise < 0:
            raise QueryError(f"cost_noise must be >= 0, got {cost_noise}")
        self.db = db
        self.cache = cache
        self.profiler = profiler
        self.cost_noise = cost_noise
        self.noise_seed = noise_seed
        self.optimize_queries = optimize_queries
        self._pages: dict[str, DynamicPage] = {}
        self._requests: list[PageRequest] = []
        #: Transaction ids that were cache hits in the last compile; their
        #: lengths are the hit cost, not a materialisation, and must not
        #: feed the length profile.
        self._hit_txns: set[int] = set()

    # ------------------------------------------------------------------
    # Setup.
    # ------------------------------------------------------------------
    def register_page(self, page: DynamicPage) -> None:
        if page.name in self._pages:
            raise QueryError(f"page {page.name!r} already registered")
        if self.optimize_queries:
            from repro.webdb.fragments import ContentFragment
            from repro.webdb.optimizer import optimize

            page = DynamicPage(
                page.name,
                [
                    ContentFragment(
                        frag.name,
                        optimize(frag.query, self.db),
                        renderer=frag.renderer,
                        urgency=frag.urgency,
                        weight_boost=frag.weight_boost,
                        cache_key=frag.cache_key,
                    )
                    for frag in page.fragments()
                ],
            )
        self._pages[page.name] = page

    def page(self, name: str) -> DynamicPage:
        try:
            return self._pages[name]
        except KeyError:
            raise QueryError(
                f"unknown page {name!r}; registered: {sorted(self._pages)}"
            ) from None

    def submit(self, request: PageRequest) -> None:
        """Queue one page request for the next :meth:`run`."""
        if request.page.name not in self._pages:
            raise QueryError(
                f"request references unregistered page {request.page.name!r}"
            )
        self._requests.append(request)

    def submit_all(self, requests: list[PageRequest]) -> None:
        for request in requests:
            self.submit(request)

    def clear_requests(self) -> None:
        self._requests.clear()

    @property
    def pending_requests(self) -> int:
        return len(self._requests)

    # ------------------------------------------------------------------
    # Compilation and execution.
    # ------------------------------------------------------------------
    def compile_requests(self) -> tuple[list[Transaction], list[dict[str, int]]]:
        """Turn the queued requests into a transaction pool.

        Returns the pool plus, per request, the fragment-name → txn-id
        mapping (used to attribute records back to pages).
        """
        if not self._requests:
            raise QueryError("no page requests submitted")
        if self.cache is not None:
            # Replan from a cold cache on every compile so repeated runs
            # of the same request mix are identical.
            self.cache.reset()
        transactions: list[Transaction] = []
        mappings: list[dict[str, int] | None] = [None] * len(self._requests)
        next_id = 0
        # Compile in arrival order (the cache planner requires it) while
        # keeping the returned mappings aligned with submission order.
        order = sorted(
            range(len(self._requests)), key=lambda i: self._requests[i].at
        )
        noise_rng = random.Random(self.noise_seed)
        self._hit_txns = set()
        for index in order:
            request = self._requests[index]
            mapping: dict[str, int] = {}
            for frag in request.page.fragments():
                model_cost = frag.estimated_cost(self.db)
                hit = False
                if self.cache is not None and frag.cache_key is not None:
                    decision = self.cache.decide(
                        frag.cache_key, request.at, model_cost
                    )
                    hit = decision.hit
                    model_cost = decision.length
                    if hit:
                        self._hit_txns.add(next_id)
                if hit or self.cost_noise == 0:
                    # Cache hits read a materialised copy: predictable.
                    true_length = model_cost
                else:
                    factor = 1.0 + noise_rng.uniform(
                        -self.cost_noise, self.cost_noise
                    )
                    true_length = max(0.05 * model_cost, model_cost * factor)
                estimate = model_cost
                if self.profiler is not None and not hit:
                    estimate = self.profiler.estimate(
                        self._class_key(request, frag.name), model_cost
                    )
                # The SLA is published from the system's belief.
                deadline = request.tier.deadline_for(
                    request.at, estimate, frag.urgency
                )
                weight = request.tier.weight_for(frag.weight_boost)
                deps = [mapping[name] for name in sorted(frag.dependencies())]
                transactions.append(
                    Transaction(
                        txn_id=next_id,
                        arrival=request.at,
                        length=true_length,
                        deadline=deadline,
                        weight=weight,
                        depends_on=deps,
                        length_estimate=estimate,
                    )
                )
                mapping[frag.name] = next_id
                next_id += 1
            mappings[index] = mapping
        return transactions, [m for m in mappings if m is not None]

    @staticmethod
    def _class_key(request: PageRequest, fragment_name: str) -> str:
        """Profiling class of one fragment instance."""
        return f"{request.page.name}/{fragment_name}"

    def run(
        self,
        policy: str | Scheduler = "asets-star",
        servers: int = 1,
        **policy_kwargs,
    ) -> WebRunReport:
        """Simulate the queued requests under ``policy``.

        ``policy`` is a registry name (with ``policy_kwargs`` forwarded)
        or an already-constructed scheduler.  Requests stay queued, so
        the same mix can be re-run under several policies.  ``servers``
        scales the backend database (default 1, the paper's model).
        """
        scheduler = (
            make_policy(policy, **policy_kwargs)
            if isinstance(policy, str)
            else policy
        )
        transactions, mappings = self.compile_requests()
        workflow_set = (
            WorkflowSet(transactions) if scheduler.requires_workflows else None
        )
        result = Simulator(
            transactions,
            scheduler,
            workflow_set=workflow_set,
            servers=servers,
        ).run()
        if self.profiler is not None:
            # Feed the observed execution lengths back into the profile,
            # so the *next* run schedules on learned estimates.
            for request, mapping in zip(self._requests, mappings):
                for name, txn_id in mapping.items():
                    if txn_id in self._hit_txns:
                        continue  # hit costs are not materialisations
                    self.profiler.observe(
                        self._class_key(request, name),
                        result.record_of(txn_id).length,
                    )
        page_results = [
            self._page_result(request, mapping, result)
            for request, mapping in zip(self._requests, mappings)
        ]
        return WebRunReport(
            policy_name=result.policy_name,
            page_results=page_results,
            simulation=result,
        )

    def _page_result(
        self,
        request: PageRequest,
        mapping: dict[str, int],
        result: SimulationResult,
    ) -> PageResult:
        records = {
            name: result.record_of(txn_id) for name, txn_id in mapping.items()
        }
        bindings: dict[str, list[Row]] = {}
        chunks = []
        for frag in request.page.fragments():
            rows = frag.materialise(self.db, bindings)
            bindings[frag.name] = rows
            chunks.append(frag.render(rows))
        return PageResult(
            request=request,
            fragment_records=records,
            content="\n\n".join(chunks),
        )
