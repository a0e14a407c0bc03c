"""Tamper-evident audit log: hash chain + Merkle epoch commitments.

The paper's disclosure guarantees (Section 6) only mean something after
the fact if a third party can check what was *actually* exchanged.
This module promotes the ``repro.obs`` event log to that canonical
append-only record:

- every event is chained — record ``i`` carries
  ``h_i = SHA-256(h_{i-1} || canonical-json(event_i))`` — so editing,
  dropping, or reordering any record breaks every hash after it;
- every ``epoch_every`` events an *epoch commitment* is appended: the
  Merkle root over that epoch's record hashes, itself chained.  An
  auditor who trusts one epoch root can verify membership of a single
  disclosure without replaying the whole log, and the roots give
  compact checkpoints to countersign or publish.

:class:`AuditLogSink` plugs into :class:`repro.obs.events.EventLog`
like any other sink; :func:`verify_audit_log` is the offline verifier
behind the ``repro audit`` CLI.
"""

from __future__ import annotations

import json
import os
import threading
from dataclasses import dataclass
from typing import Optional

from repro.crypto.digest import sha256

__all__ = [
    "AuditLogSink",
    "AuditReport",
    "GENESIS_HASH",
    "merkle_root",
    "verify_audit_log",
]

#: Chain anchor for the first record of a log.
GENESIS_HASH = "0" * 64


def _canonical_json(payload: dict) -> str:
    return json.dumps(payload, default=str, sort_keys=True)


def _chain_hash(prev_hash: str, body_json: str) -> str:
    return sha256((prev_hash + body_json).encode("utf-8")).hexdigest()


def merkle_root(leaf_hashes: list[str]) -> str:
    """Merkle root over hex-digest leaves (odd nodes promote)."""
    if not leaf_hashes:
        return GENESIS_HASH
    level = list(leaf_hashes)
    while len(level) > 1:
        paired = []
        for index in range(0, len(level) - 1, 2):
            paired.append(
                sha256(
                    (level[index] + level[index + 1]).encode("utf-8")
                ).hexdigest()
            )
        if len(level) % 2:
            paired.append(level[-1])
        level = paired
    return level[0]


class AuditLogSink:
    """Event sink that appends hash-chained JSONL records.

    Two record kinds share the file, distinguished by ``kind``::

        {"kind": "event", "body": {...}, "hash": "..."}
        {"kind": "epoch", "epoch": 1, "events": 256,
         "root": "...", "hash": "..."}

    ``hash`` extends the chain over the canonical JSON of the record
    *without* its own ``hash`` field, so epoch commitments are as
    tamper-evident as the events they commit to.
    """

    def __init__(self, path: str, epoch_every: int = 256) -> None:
        if epoch_every < 1:
            raise ValueError("epoch_every must be >= 1")
        self.path = path
        self.epoch_every = epoch_every
        self._lock = threading.Lock()
        self._prev_hash = GENESIS_HASH
        self._epoch = 0
        self._epoch_leaves: list[str] = []
        self.events_written = 0
        self.epochs_written = 0

    def _append(self, record: dict) -> None:
        body_json = _canonical_json(record)
        record_hash = _chain_hash(self._prev_hash, body_json)
        record = dict(record)
        record["hash"] = record_hash
        with open(self.path, "a", encoding="utf-8") as handle:
            handle.write(_canonical_json(record) + "\n")
        self._prev_hash = record_hash

    def __call__(self, event) -> None:
        with self._lock:
            self._append({"kind": "event", "body": event.to_dict()})
            self._epoch_leaves.append(self._prev_hash)
            self.events_written += 1
            if len(self._epoch_leaves) >= self.epoch_every:
                self._commit_epoch()

    def _commit_epoch(self) -> None:
        self._epoch += 1
        self._append({
            "kind": "epoch",
            "epoch": self._epoch,
            "events": len(self._epoch_leaves),
            "root": merkle_root(self._epoch_leaves),
        })
        self._epoch_leaves = []
        self.epochs_written += 1

    def close(self) -> None:
        """Commit a final partial epoch so the whole log is covered."""
        with self._lock:
            if self._epoch_leaves:
                self._commit_epoch()


@dataclass
class AuditReport:
    """Outcome of :func:`verify_audit_log`."""

    path: str
    ok: bool
    records: int = 0
    events: int = 0
    epochs: int = 0
    #: Events emitted after the last epoch commitment (uncommitted
    #: tail — chained, but not yet under a Merkle root).
    uncommitted_events: int = 0
    error: Optional[str] = None
    error_line: Optional[int] = None

    def to_dict(self) -> dict:
        return {
            "path": self.path,
            "ok": self.ok,
            "records": self.records,
            "events": self.events,
            "epochs": self.epochs,
            "uncommittedEvents": self.uncommitted_events,
            "error": self.error,
            "errorLine": self.error_line,
        }

    def summary(self) -> str:
        if self.ok:
            return (
                f"audit OK: {self.events} events in {self.epochs} "
                f"epochs ({self.uncommitted_events} uncommitted), "
                f"chain verified end-to-end"
            )
        return (
            f"audit FAILED at line {self.error_line}: {self.error}"
        )


def verify_audit_log(path: str) -> AuditReport:
    """Re-walk an audit log, recomputing the chain and every epoch root.

    Any flipped byte, dropped line, reordered record, or forged epoch
    commitment shows up as the first record whose recomputed hash (or
    Merkle root) disagrees with the file.
    """
    report = AuditReport(path=path, ok=False)
    if not os.path.exists(path):
        report.error = "no such file"
        return report
    prev_hash = GENESIS_HASH
    epoch_leaves: list[str] = []
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except ValueError:
                report.error = "record is not valid JSON"
                report.error_line = lineno
                return report
            if not isinstance(record, dict) or "hash" not in record:
                report.error = "record missing its hash field"
                report.error_line = lineno
                return report
            claimed = record.pop("hash")
            expected = _chain_hash(prev_hash, _canonical_json(record))
            if claimed != expected:
                report.error = (
                    "hash chain broken (record tampered with, or a "
                    "prior record dropped/reordered)"
                )
                report.error_line = lineno
                return report
            prev_hash = claimed
            report.records += 1
            kind = record.get("kind")
            if kind == "event":
                epoch_leaves.append(claimed)
                report.events += 1
            elif kind == "epoch":
                if record.get("events") != len(epoch_leaves):
                    report.error = (
                        f"epoch {record.get('epoch')} commits "
                        f"{record.get('events')} events but "
                        f"{len(epoch_leaves)} were chained"
                    )
                    report.error_line = lineno
                    return report
                root = merkle_root(epoch_leaves)
                if record.get("root") != root:
                    report.error = (
                        f"epoch {record.get('epoch')} Merkle root "
                        "mismatch"
                    )
                    report.error_line = lineno
                    return report
                report.epochs += 1
                epoch_leaves = []
            else:
                report.error = f"unknown record kind {kind!r}"
                report.error_line = lineno
                return report
    report.uncommitted_events = len(epoch_leaves)
    report.ok = True
    return report
