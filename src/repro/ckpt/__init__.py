"""Crash-resilient runs: deterministic checkpoint/resume.

A long simulation or sweep should survive a SIGKILL, an OOM kill, or a
Ctrl-C without losing hours of work.  This package provides the two
persistence layers that make that possible:

* :mod:`repro.ckpt.snapshot` — a versioned single-file snapshot of one
  *run*: the workload-static transaction pool as columns, written once
  per run, and one pickle of what the run changed (transaction and
  workflow slots, event queue, ready set, running-server book-keeping,
  fault cursors, the policy's state via
  :meth:`repro.policies.base.Scheduler.snapshot`, the streaming-telemetry
  accumulators, and the JSONL writer position).
  ``Simulator.resume_from`` rebuilds the run mid-flight; the contract is
  that a killed-and-resumed run produces **byte-identical** JSONL events
  and an equal :class:`~repro.sim.results.SimulationResult` to an
  uninterrupted run.
* :mod:`repro.ckpt.sweep` — an append-only per-cell completion manifest
  for :func:`repro.experiments.runner.grid_sweep`: completed
  ``(column, seed, policy)`` cells are skipped on restart and the merged
  series stays byte-identical to a fresh run.

Determinism is the design constraint throughout: saving a checkpoint
never mutates run state, resume restores raw accumulator fields (never
derived values), and pool references inside the state pickle keep
every shared object's identity, so every tie-break the live run would
have made is preserved.
"""

from __future__ import annotations

from repro.ckpt.snapshot import (
    CKPT_MAGIC,
    CKPT_VERSION,
    Checkpoint,
    Checkpointer,
    load_checkpoint,
    restore_writer,
)
from repro.ckpt.sweep import SweepManifest, grid_fingerprint

__all__ = [
    "CKPT_MAGIC",
    "CKPT_VERSION",
    "Checkpoint",
    "Checkpointer",
    "SweepManifest",
    "grid_fingerprint",
    "load_checkpoint",
    "restore_writer",
]
