"""Workload persistence: save and load generated traces as JSON.

Reproducibility artifact: a generated workload (or one captured from a
real system in the same shape) can be written to disk and replayed later
— or on another machine — without depending on the generator's RNG
remaining bit-identical across Python versions.  The file stores the
complete per-transaction record plus the generating spec and seed for
provenance.
"""

from __future__ import annotations

import json
import pathlib
from dataclasses import asdict

from repro.core.transaction import Transaction
from repro.core.workflow_set import WorkflowSet
from repro.errors import WorkloadError
from repro.workload.generator import Workload
from repro.workload.spec import WorkloadSpec

__all__ = ["save_workload", "load_workload", "workload_to_dict"]

#: Format marker for forward compatibility.
_FORMAT = "repro-workload-v1"


def workload_to_dict(workload: Workload) -> dict:
    """The JSON-ready representation of a workload."""
    return {
        "format": _FORMAT,
        "spec": asdict(workload.spec),
        "seed": workload.seed,
        "mean_length": workload.mean_length,
        "rate": workload.rate,
        "transactions": [
            {
                "id": t.txn_id,
                "arrival": t.arrival,
                "length": t.length,
                "deadline": t.deadline,
                "weight": t.weight,
                "depends_on": list(t.depends_on),
                "length_estimate": t.length_estimate,
            }
            for t in workload.transactions
        ],
    }


def save_workload(workload: Workload, path: str | pathlib.Path) -> pathlib.Path:
    """Write ``workload`` to ``path`` as JSON; returns the path."""
    path = pathlib.Path(path)
    path.write_text(json.dumps(workload_to_dict(workload), indent=2))
    return path


def load_workload(path: str | pathlib.Path) -> Workload:
    """Load a workload previously written by :func:`save_workload`.

    Transactions are rebuilt in a pre-simulation state; the workflow set
    is re-derived from the dependency lists when any exist.
    """
    path = pathlib.Path(path)
    try:
        payload = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise WorkloadError(f"cannot read workload file {path}: {exc}") from exc
    fmt = payload.get("format") if isinstance(payload, dict) else None
    if fmt != _FORMAT:
        raise WorkloadError(f"{path} is not a {_FORMAT} file (format={fmt!r})")
    for key in ("spec", "seed", "transactions"):
        if key not in payload:
            raise WorkloadError(f"workload file {path} missing key {key!r}")
    try:
        spec = WorkloadSpec(**payload["spec"])
    except TypeError as exc:
        raise WorkloadError(f"workload file {path} has a bad spec: {exc}") from exc
    try:
        transactions = [
            Transaction(
                txn_id=record["id"],
                arrival=record["arrival"],
                length=record["length"],
                deadline=record["deadline"],
                weight=record.get("weight", 1.0),
                depends_on=record.get("depends_on", ()),
                length_estimate=record.get("length_estimate"),
            )
            for record in payload["transactions"]
        ]
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        # A missing field, a record that is not an object, a
        # "transactions" that is not a list, or a non-numeric field.
        raise WorkloadError(
            f"workload file {path} has a bad transaction record: "
            f"{type(exc).__name__}: {exc}"
        ) from exc
    if len({t.txn_id for t in transactions}) != len(transactions):
        raise WorkloadError(f"workload file {path} repeats a transaction id")
    seed = payload["seed"]
    mean_length = payload.get("mean_length", 0.0)
    rate = payload.get("rate", 0.0)
    # JSON gives exact types: a bool or a string is not a number here.
    if type(seed) is not int:
        raise WorkloadError(f"workload file {path} has a bad seed {seed!r}")
    for key, value in (("mean_length", mean_length), ("rate", rate)):
        if type(value) not in (int, float):
            raise WorkloadError(f"workload file {path} has a bad {key} {value!r}")
    has_deps = any(t.depends_on for t in transactions)
    workflow_set = (
        WorkflowSet(transactions) if (spec.with_workflows or has_deps) else None
    )
    if workflow_set is not None:
        workflow_set.validate_acyclic()
    return Workload(
        spec=spec,
        seed=seed,
        transactions=transactions,
        workflow_set=workflow_set,
        mean_length=mean_length,
        rate=rate,
    )
