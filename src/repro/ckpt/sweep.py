"""Resumable sweeps: the append-only per-cell completion manifest.

A grid sweep is hours of independent cells; losing all of them to one
interrupt is the binding cost of large grids.  The manifest is a JSONL
file next to the sweep:

* a header line ``{"kind": "sweep-manifest", "version": 1,
  "fingerprint": "<sha256>"}`` pinning the exact grid it belongs to;
* one line per completed cell, ``{"i": column, "s": seed, "p": policy,
  "v": value}``, appended and flushed the moment the cell's result is
  merged.

The fingerprint hashes the full grid definition (columns, specs, server
counts, policies, metric, seeds, fault spec), so resuming against a
*different* sweep fails loudly instead of silently mixing grids.  JSON
floats round-trip exactly (shortest-repr), so a resumed merge is
byte-identical to a fresh single-process run.  A torn final line —
the flush guarantees at most one — is dropped on open, exactly like
:func:`repro.obs.jsonl.read_tolerant`; that cell simply reruns.
"""

from __future__ import annotations

import hashlib
import json
import pathlib
from typing import IO, TYPE_CHECKING, Iterable, Sequence

from repro.errors import CheckpointError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.experiments.config import PolicySpec
    from repro.experiments.runner import SweepColumn
    from repro.faults import FaultSpec

__all__ = ["SweepManifest", "grid_fingerprint"]

#: Current sweep-manifest format version.
_MANIFEST_VERSION = 1


def grid_fingerprint(
    columns: "Sequence[SweepColumn]",
    policies: "Sequence[PolicySpec]",
    metric: str,
    seeds: Iterable[int],
    fault_spec: "FaultSpec | None",
) -> str:
    """A stable digest of one grid's full definition.

    Built from the dataclass reprs of the columns (x, servers, workload
    spec) and the fault spec, the policy display names, the metric and
    the seed list — everything that determines a cell's coordinates and
    value.  Two sweeps share a manifest iff they share this digest.
    """
    parts = [
        f"metric={metric}",
        "seeds=" + ",".join(str(seed) for seed in seeds),
        "policies=" + "|".join(policy.display for policy in policies),
        f"faults={fault_spec!r}",
    ]
    for column in columns:
        parts.append(
            f"column x={column.x!r} servers={column.servers} "
            f"spec={column.spec!r}"
        )
    return hashlib.sha256("\n".join(parts).encode("utf-8")).hexdigest()


class SweepManifest:
    """Append-only record of which sweep cells already completed.

    Create/resume via :meth:`open`; the sweep calls :meth:`record` per
    merged cell and :meth:`close` when done (also safe mid-interrupt:
    every record is flushed as written, so the file never lags the
    merge by more than the line being written).
    """

    def __init__(
        self,
        path: pathlib.Path,
        fingerprint: str,
        completed: dict[tuple[int, int, int], float],
        file: IO[str],
    ) -> None:
        self.path = path
        self.fingerprint = fingerprint
        #: Cells already completed by earlier attempts:
        #: ``(column_index, seed, policy_position) -> value``.
        self.completed = completed
        self._file: IO[str] | None = file

    @classmethod
    def open(
        cls, path: str | pathlib.Path, fingerprint: str
    ) -> "SweepManifest":
        """Open (or create) the manifest for the grid ``fingerprint``.

        A fresh path starts an empty manifest; an existing file is read
        back tolerantly (a torn final line is dropped — that cell just
        reruns), its fingerprint is checked against the grid's, and the
        file is reopened for append.
        """
        path = pathlib.Path(path)
        if not path.exists():
            file = path.open("w", encoding="utf-8")
            header = {
                "kind": "sweep-manifest",
                "version": _MANIFEST_VERSION,
                "fingerprint": fingerprint,
            }
            file.write(json.dumps(header, separators=(",", ":")) + "\n")
            file.flush()
            return cls(path, fingerprint, {}, file)
        completed, keep = cls._read(path, fingerprint)
        if keep < path.stat().st_size:
            # Cut the torn tail before appending: a new record written
            # after an unterminated fragment would concatenate onto it
            # and corrupt the line for the *next* resume.
            with path.open("r+b") as handle:
                handle.truncate(keep)
        return cls(path, fingerprint, completed, path.open("a", encoding="utf-8"))

    @staticmethod
    def _read(
        path: pathlib.Path, fingerprint: str
    ) -> tuple[dict[tuple[int, int, int], float], int]:
        data = path.read_bytes()
        lines: list[tuple[int, bytes]] = []
        offset = 0
        for piece in data.split(b"\n"):
            stripped = piece.strip()
            if stripped:
                lines.append((offset, stripped))
            offset += len(piece) + 1
        if not lines:
            raise CheckpointError(f"{path}: empty sweep manifest")
        keep = len(data)
        records: list[dict] = []
        for lineno, (start, line) in enumerate(lines, start=1):
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                if lineno == len(lines):
                    keep = start  # torn final line: truncated, cell reruns
                    break
                raise CheckpointError(
                    f"{path}:{lineno}: corrupt sweep manifest: {exc}"
                ) from exc
            if not isinstance(record, dict):
                raise CheckpointError(
                    f"{path}:{lineno}: corrupt sweep manifest entry"
                )
            records.append(record)
        if not records or records[0].get("kind") != "sweep-manifest":
            raise CheckpointError(
                f"{path}: first line must be a sweep-manifest header"
            )
        header = records[0]
        if header.get("version") != _MANIFEST_VERSION:
            raise CheckpointError(
                f"{path}: sweep manifest version {header.get('version')!r}, "
                f"this reader supports {_MANIFEST_VERSION}"
            )
        if header.get("fingerprint") != fingerprint:
            raise CheckpointError(
                f"{path}: sweep manifest belongs to a different grid "
                "(fingerprint mismatch) — pass a fresh --resume path or "
                "rerun the original sweep definition"
            )
        completed: dict[tuple[int, int, int], float] = {}
        for record in records[1:]:
            try:
                coord = (
                    int(record["i"]),
                    int(record["s"]),
                    int(record["p"]),
                )
                completed[coord] = float(record["v"])
            except (KeyError, TypeError, ValueError) as exc:
                raise CheckpointError(
                    f"{path}: corrupt sweep manifest cell {record!r}"
                ) from exc
        return completed, keep

    def record(self, index: int, seed: int, pos: int, value: float) -> None:
        """Persist one completed cell (flushed immediately)."""
        if self._file is None:
            raise CheckpointError(f"{self.path}: sweep manifest closed")
        self._file.write(
            json.dumps(
                {"i": index, "s": seed, "p": pos, "v": value},
                separators=(",", ":"),
            )
            + "\n"
        )
        self._file.flush()

    def close(self) -> None:
        if self._file is not None:
            self._file.close()
            self._file = None

    def __enter__(self) -> "SweepManifest":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
