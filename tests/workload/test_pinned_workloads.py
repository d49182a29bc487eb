"""Generated workloads, pinned field by field.

Each digest covers every static field of every transaction (id,
arrival, length, deadline, weight, length estimate, dependency list) and
every workflow's member ids, with floats written exactly (``float.hex``).
A change to the generator that moves any of them, however slightly,
fails here: generation may get cheaper, never different.
"""

import hashlib

import pytest

from repro.workload.generator import generate
from repro.workload.spec import WorkloadSpec

SPECS = {
    "weighted-workflows": WorkloadSpec(
        n_transactions=400, utilization=0.9, weighted=True, with_workflows=True
    ),
    "independent": WorkloadSpec(n_transactions=400, utilization=0.9),
    "estimate-error": WorkloadSpec(
        n_transactions=400, utilization=0.9, length_estimate_error=0.4
    ),
}

#: sha256 of :func:`_canonical`, per (spec, seed).
DIGESTS = {
    ("estimate-error", 1): "edf0552a0ff5e8f2a6e6877597eb40015e4fb94dbce35f4fc46090397bbff511",
    ("estimate-error", 7): "e2fc533a5f87aa32a78c60f75be3d852fd9be76843a235e588908d7499a2717e",
    ("independent", 1): "6150337d4648f8395337c89b7fb5fa1b025b045757a54cb4d789cbca245d8ba2",
    ("independent", 7): "437da6a6cd4582cdf5df472cb4dd1e50d5de3bcb0700a5c3ec8bc68a1e1aca3a",
    ("weighted-workflows", 1): "a2c60565e6252573a0730d33eb9bea1c10b5920fb9b90d50ef70451b107c6574",
    ("weighted-workflows", 7): "e30dc63a3fa2f5746c482df91025dad242bcb6ab10086fe9964b38822888ca45",
}


def _canonical(workload) -> bytes:
    lines = [
        " ".join(
            (
                str(txn.txn_id),
                txn.arrival.hex(),
                txn.length.hex(),
                txn.deadline.hex(),
                txn.weight.hex(),
                txn.length_estimate.hex(),
                ",".join(map(str, txn.depends_on)),
            )
        )
        for txn in workload.transactions
    ]
    if workload.workflow_set is not None:
        lines.extend(
            "wf " + ",".join(map(str, wf.member_ids))
            for wf in workload.workflow_set
        )
    return "\n".join(lines).encode()


@pytest.mark.parametrize("seed", [1, 7])
@pytest.mark.parametrize("name", sorted(SPECS))
def test_generated_workload_is_pinned(name, seed):
    workload = generate(SPECS[name], seed)
    digest = hashlib.sha256(_canonical(workload)).hexdigest()
    assert digest == DIGESTS[name, seed]
