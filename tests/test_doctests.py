"""Run the doctests embedded in the public modules.

Keeps the usage examples in docstrings honest — they are the first thing
a new user copies.
"""

import doctest

import pytest

import repro.core.transaction
import repro.core.workflow_set
import repro.lint.findings
import repro.lint.suppress
import repro.policies.registry
import repro.sim.engine
import repro.sim.event_queue
import repro.sim.validation
import repro.webdb.cache
import repro.webdb.database
import repro.webdb.pages
import repro.webdb.sql
import repro.workload.generator
import repro.workload.zipf

MODULES = [
    repro.core.transaction,
    repro.core.workflow_set,
    repro.lint.findings,
    repro.lint.suppress,
    repro.policies.registry,
    repro.sim.engine,
    repro.sim.event_queue,
    repro.sim.validation,
    repro.webdb.cache,
    repro.webdb.database,
    repro.webdb.pages,
    repro.webdb.sql,
    repro.workload.generator,
    repro.workload.zipf,
]


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_doctests(module):
    result = doctest.testmod(module)
    assert result.attempted > 0, f"{module.__name__} lost its doctest examples"
    assert result.failed == 0
