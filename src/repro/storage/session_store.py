"""Durable journals for negotiation-session checkpoints.

:class:`~repro.services.tn_service.TNWebService` checkpoints every
session transition as a ``<negotiationSession>`` XML element.  A
:class:`SessionStore` is the append-only durability substrate behind
that machinery: each checkpoint is journalled as one record, and after
a crash ``latest()`` replays the journal into the last-known state of
every session so a restarted (or failed-over) node can resume in-flight
negotiations deterministically.

Two backends share the interface:

- :class:`InMemorySessionStore` — a plain journal list of the
  checkpoint elements themselves, for tests and single-process runs;
- :class:`WALSessionStore` — an append-only JSONL write-ahead log on
  disk.  Each record carries an LSN and a content checksum; recovery
  tolerates a *torn* final record (power loss mid-append) by truncating
  it, but treats a bad checksum anywhere earlier as real corruption.

A real database backend can slot in later by implementing the same
four methods.
"""

from __future__ import annotations

import json
import os
from abc import ABC, abstractmethod
from typing import Iterator, Optional
from xml.etree import ElementTree as ET

from repro.crypto.digest import sha256
from repro.errors import StorageError, XMLError
from repro.xmlutil.canonical import canonicalize, parse_xml

__all__ = ["SessionStore", "InMemorySessionStore", "WALSessionStore"]


class SessionStore(ABC):
    """Append-only journal of session checkpoints.

    ``append`` is called by the checkpoint machinery on every session
    transition; ``latest`` is the recovery read path.  Implementations
    must preserve append order per session so that the last record for
    a session id is its most recent checkpoint.
    """

    name: str = "session-store"

    @abstractmethod
    def append(self, session_id: str, element: ET.Element) -> None:
        """Journal one checkpoint of ``session_id``."""

    @abstractmethod
    def latest(self) -> dict[str, ET.Element]:
        """Last journalled checkpoint per session id, parsed."""

    @abstractmethod
    def records(self) -> int:
        """Number of intact records in the journal."""

    def close(self) -> None:  # pragma: no cover - trivial default
        """Release any underlying resources (no-op by default)."""

    # -- fault hooks ---------------------------------------------------------------

    def tear_last_record(self) -> bool:
        """Simulate a torn write: damage the most recent record.

        Returns True when a record was damaged.  Backends that cannot
        express partial writes may drop the record instead; either way
        recovery must behave as if the append never completed.
        """
        return False


class InMemorySessionStore(SessionStore):
    """Journal kept in process memory.

    Survives a *service* crash (``TNWebService.crash()`` drops volatile
    session state but not the store object) — the moral equivalent of a
    database reachable from a restarted node — but not a process exit.

    The journal holds the appended elements themselves, unserialized:
    the checkpoint machinery builds a fresh element per append and
    never mutates it afterwards.  :class:`WALSessionStore` is the
    serializing backend.
    """

    def __init__(self, name: str = "session-journal") -> None:
        self.name = name
        self._journal: list[tuple[str, ET.Element]] = []
        self.torn_discarded = 0

    def append(self, session_id: str, element: ET.Element) -> None:
        self._journal.append((session_id, element))

    def latest(self) -> dict[str, ET.Element]:
        return dict(self._journal)

    def records(self) -> int:
        return len(self._journal)

    def tear_last_record(self) -> bool:
        """A torn in-memory append is simply an append that never
        happened: drop the final record."""
        if not self._journal:
            return False
        self._journal.pop()
        self.torn_discarded += 1
        return True


def _record_crc(lsn: int, session_id: str, xml: str) -> str:
    digest = sha256(f"{lsn}|{session_id}|{xml}".encode("utf-8"))
    return digest.hexdigest()[:16]


class WALSessionStore(SessionStore):
    """Append-only JSONL write-ahead log.

    One record per line::

        {"lsn": 7, "session": "tn-3", "xml": "<negotiationSession .../>",
         "crc": "9f2c..."}

    Opening an existing file replays it: every intact record is kept,
    and a damaged *final* record (truncated line, invalid JSON, or crc
    mismatch) is discarded and physically truncated away — the append
    it belonged to never committed.  Damage anywhere before the final
    record is not a torn write and raises :class:`StorageError`.

    Records live only on disk.  LSNs run contiguously from 1, so the
    last LSN is also the record count; ``latest()`` re-reads the
    committed bytes through the same crc-checked scan recovery uses.
    """

    def __init__(self, path: str | os.PathLike) -> None:
        self.path = os.fspath(path)
        self.name = f"wal:{os.path.basename(self.path)}"
        self.torn_discarded = 0
        self._lsn = 0
        self._committed_bytes = 0  # file offset past the last intact record
        self._recover()

    # -- recovery -----------------------------------------------------------------

    def _scan(self, raw: str) -> Iterator[tuple[int, str, str, int]]:
        """Yield ``(lsn, session, xml, end)`` for each intact record of
        ``raw``, where ``end`` is the byte offset just past its line.

        The scan stops at a damaged final record (a torn write); damage
        before the final record, or an LSN gap, raises
        :class:`StorageError`.
        """
        lines = raw.split("\n")
        # a fully committed file ends with a newline, so the final split
        # element is empty; a final line without its newline is torn,
        # however intact its JSON and crc read
        final = len(lines) - 1
        expected_lsn = 1
        end = 0
        for lineno, line in enumerate(lines):
            end += len(line.encode("utf-8")) + 1
            if line == "":
                continue
            record = None if lineno == final else self._parse_record(line)
            if record is None:
                if any(rest != "" for rest in lines[lineno + 1:]):
                    raise StorageError(
                        f"WAL {self.path!r} corrupt at record "
                        f"{lineno + 1} (not the final record)"
                    )
                return
            lsn, session_id, xml = record
            if lsn != expected_lsn:
                raise StorageError(
                    f"WAL {self.path!r} LSN gap: expected "
                    f"{expected_lsn}, found {lsn}"
                )
            expected_lsn += 1
            yield lsn, session_id, xml, end

    def _recover(self) -> None:
        if not os.path.exists(self.path):
            return
        with open(self.path, "r", encoding="utf-8") as handle:
            raw = handle.read()
        for lsn, _, _, end in self._scan(raw):
            self._lsn = lsn
            self._committed_bytes = end
        tail = raw.encode("utf-8")[self._committed_bytes:]
        if tail.strip(b"\n"):
            self.torn_discarded += 1
        if tail:
            # drop the torn tail so later appends start on a clean line
            with open(self.path, "r+", encoding="utf-8") as handle:
                handle.truncate(self._committed_bytes)

    @staticmethod
    def _parse_record(line: str) -> Optional[tuple[int, str, str]]:
        try:
            payload = json.loads(line)
        except (ValueError, TypeError):
            return None
        if not isinstance(payload, dict):
            return None
        try:
            lsn = int(payload["lsn"])
            session_id = payload["session"]
            xml = payload["xml"]
            crc = payload["crc"]
        except (KeyError, TypeError, ValueError):
            return None
        if not isinstance(session_id, str) or not isinstance(xml, str):
            return None
        if crc != _record_crc(lsn, session_id, xml):
            return None
        return lsn, session_id, xml

    # -- SessionStore interface ----------------------------------------------------

    def append(self, session_id: str, element: ET.Element) -> None:
        xml = canonicalize(element)
        lsn = self._lsn + 1
        record = {
            "lsn": lsn,
            "session": session_id,
            "xml": xml,
            "crc": _record_crc(lsn, session_id, xml),
        }
        data = (json.dumps(record, sort_keys=True) + "\n").encode("utf-8")
        # write at the committed offset, not the file end: a torn tail
        # left by a simulated power loss is overwritten, never extended
        mode = "r+b" if os.path.exists(self.path) else "wb"
        with open(self.path, mode) as handle:
            handle.truncate(self._committed_bytes)
            handle.seek(self._committed_bytes)
            handle.write(data)
        self._committed_bytes += len(data)
        self._lsn = lsn

    def latest(self) -> dict[str, ET.Element]:
        state: dict[str, ET.Element] = {}
        if not self._committed_bytes:
            return state
        with open(self.path, "rb") as handle:
            raw = handle.read(self._committed_bytes).decode("utf-8")
        for _, session_id, xml, _ in self._scan(raw):
            try:
                state[session_id] = parse_xml(xml)
            except XMLError as exc:  # crc guarantees this is unreachable
                raise StorageError(
                    f"WAL {self.path!r} holds unparseable XML for "
                    f"session {session_id!r}"
                ) from exc
        return state

    def records(self) -> int:
        return self._lsn

    @property
    def last_lsn(self) -> int:
        return self._lsn

    def tear_last_record(self) -> bool:
        """Chop the final record mid-line, as a power loss during the
        append would.  The LSN and committed offset rewind to match
        what a recovering reader will see."""
        if not self._lsn or not os.path.exists(self.path):
            return False
        # read only the committed records: a tail torn earlier is not
        # one of them, so a second tear damages the record before it
        with open(self.path, "rb") as handle:
            data = handle.read(self._committed_bytes)
        # strip the trailing newline, then cut the last line in half
        body = data[:-1]
        cut = body.rfind(b"\n") + 1  # start of the final record
        torn_at = cut + max(1, (len(body) - cut) // 2)
        with open(self.path, "r+b") as handle:
            handle.truncate(torn_at)
        self._lsn -= 1
        self._committed_bytes = cut
        self.torn_discarded += 1
        return True
