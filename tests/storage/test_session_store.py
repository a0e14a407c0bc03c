"""SessionStore backends: journal semantics, WAL recovery, torn writes."""

import gc
import tempfile
import warnings
from pathlib import Path
from xml.etree import ElementTree as ET

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import StorageError
from repro.storage.session_store import (
    InMemorySessionStore,
    WALSessionStore,
)


def checkpoint(session_id: str, phase: str) -> ET.Element:
    element = ET.Element("negotiationSession")
    element.set("id", session_id)
    element.set("phase", phase)
    return element


@pytest.fixture(params=["memory", "wal"])
def store(request, tmp_path):
    if request.param == "memory":
        yield InMemorySessionStore()
    else:
        wal = WALSessionStore(tmp_path / "sessions.wal")
        yield wal
        wal.close()


class TestJournalSemantics:
    def test_latest_returns_last_checkpoint_per_session(self, store):
        store.append("tn-1", checkpoint("tn-1", "started"))
        store.append("tn-2", checkpoint("tn-2", "started"))
        store.append("tn-1", checkpoint("tn-1", "policy"))
        latest = store.latest()
        assert set(latest) == {"tn-1", "tn-2"}
        assert latest["tn-1"].get("phase") == "policy"
        assert latest["tn-2"].get("phase") == "started"
        assert store.records() == 3

    def test_empty_store(self, store):
        assert store.latest() == {}
        assert store.records() == 0
        assert store.tear_last_record() is False

    def test_tear_discards_final_record(self, store):
        store.append("tn-1", checkpoint("tn-1", "started"))
        store.append("tn-1", checkpoint("tn-1", "policy"))
        assert store.tear_last_record() is True
        assert store.torn_discarded == 1
        assert store.latest()["tn-1"].get("phase") == "started"
        assert store.records() == 1

    def test_get_reads_one_session(self, store):
        store.append("tn-1", checkpoint("tn-1", "started"))
        store.append("tn-2", checkpoint("tn-2", "started"))
        store.append("tn-1", checkpoint("tn-1", "policy"))
        assert store.get("tn-1").get("phase") == "policy"
        assert store.get("tn-2").get("phase") == "started"
        assert store.get("tn-3") is None
        assert set(store.session_ids()) == {"tn-1", "tn-2"}

    def test_tear_repoints_get_at_the_record_before(self, store):
        store.append("tn-1", checkpoint("tn-1", "started"))
        store.append("tn-2", checkpoint("tn-2", "started"))
        store.append("tn-1", checkpoint("tn-1", "policy"))
        store.tear_last_record()
        assert store.get("tn-1").get("phase") == "started"
        store.tear_last_record()
        assert store.get("tn-2") is None
        assert set(store.session_ids()) == {"tn-1"}

    def test_append_after_tear_overwrites_torn_tail(self, store):
        store.append("tn-1", checkpoint("tn-1", "started"))
        store.append("tn-1", checkpoint("tn-1", "policy"))
        store.tear_last_record()
        store.append("tn-1", checkpoint("tn-1", "exchange"))
        assert store.latest()["tn-1"].get("phase") == "exchange"
        assert store.records() == 2


class TestWALReads:
    def test_get_parses_one_record_and_a_miss_none(self, tmp_path):
        wal = WALSessionStore(tmp_path / "sessions.wal")
        for index in range(20):
            wal.append(f"tn-{index}", checkpoint(f"tn-{index}", "started"))
        parsed = wal.records_parsed
        assert wal.get("tn-7").get("id") == "tn-7"
        assert wal.records_parsed == parsed + 1
        assert wal.get("__health_probe__") is None
        assert wal.records_parsed == parsed + 1
        wal.close()

    def test_reopened_index_reads_the_last_record(self, tmp_path):
        path = tmp_path / "sessions.wal"
        wal = WALSessionStore(path)
        wal.append("tn-1", checkpoint("tn-1", "started"))
        wal.append("tn-2", checkpoint("tn-2", "started"))
        wal.append("tn-1", checkpoint("tn-1", "exchange"))
        wal.close()
        reopened = WALSessionStore(path)
        assert reopened.get("tn-1").get("phase") == "exchange"
        assert reopened.get("tn-2").get("phase") == "started"

    def test_close_releases_the_append_handle(self, tmp_path):
        path = tmp_path / "sessions.wal"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            wal = WALSessionStore(path)
            wal.append("tn-1", checkpoint("tn-1", "started"))
            wal.close()
            # a closed store appends again through a fresh handle
            wal.append("tn-1", checkpoint("tn-1", "policy"))
            wal.close()
            del wal
            gc.collect()
        assert not [
            w for w in caught if issubclass(w.category, ResourceWarning)
        ]
        assert WALSessionStore(path).records() == 2


class TestWALRecovery:
    def test_reopen_replays_journal(self, tmp_path):
        path = tmp_path / "sessions.wal"
        wal = WALSessionStore(path)
        wal.append("tn-1", checkpoint("tn-1", "started"))
        wal.append("tn-1", checkpoint("tn-1", "policy"))
        wal.append("tn-2", checkpoint("tn-2", "started"))
        wal.close()

        reopened = WALSessionStore(path)
        assert reopened.records() == 3
        assert reopened.last_lsn == 3
        latest = reopened.latest()
        assert latest["tn-1"].get("phase") == "policy"
        assert latest["tn-2"].get("phase") == "started"

    def test_reopen_discards_torn_final_record(self, tmp_path):
        path = tmp_path / "sessions.wal"
        wal = WALSessionStore(path)
        wal.append("tn-1", checkpoint("tn-1", "started"))
        wal.append("tn-1", checkpoint("tn-1", "policy"))
        wal.close()
        # chop the final line in half, as a mid-append power loss would
        data = path.read_bytes()
        cut = data[:-1].rfind(b"\n") + 1
        path.write_bytes(data[: cut + (len(data) - cut) // 2])

        recovered = WALSessionStore(path)
        assert recovered.torn_discarded == 1
        assert recovered.records() == 1
        assert recovered.latest()["tn-1"].get("phase") == "started"
        # recovery physically truncated the torn tail
        assert path.read_bytes().endswith(b"\n")

    def test_final_record_missing_only_its_newline_is_torn(self, tmp_path):
        path = tmp_path / "sessions.wal"
        wal = WALSessionStore(path)
        for phase in ("started", "policy", "exchange"):
            wal.append("tn-1", checkpoint("tn-1", phase))
        wal.close()
        # the power loss cut only the final newline: the record's JSON
        # and crc are whole, but the append never completed
        path.write_bytes(path.read_bytes()[:-1])

        recovered = WALSessionStore(path)
        assert recovered.torn_discarded == 1
        assert recovered.records() == 2
        assert path.read_bytes().endswith(b"\n")
        recovered.append("tn-1", checkpoint("tn-1", "expired"))
        recovered.close()

        reopened = WALSessionStore(path)
        assert reopened.torn_discarded == 0
        assert reopened.records() == 3
        assert b"\x00" not in path.read_bytes()
        assert reopened.latest()["tn-1"].get("phase") == "expired"

    def test_append_after_torn_recovery_continues_lsn(self, tmp_path):
        path = tmp_path / "sessions.wal"
        wal = WALSessionStore(path)
        wal.append("tn-1", checkpoint("tn-1", "started"))
        wal.append("tn-1", checkpoint("tn-1", "policy"))
        wal.tear_last_record()
        wal.append("tn-1", checkpoint("tn-1", "expired"))
        wal.close()

        reopened = WALSessionStore(path)
        assert reopened.records() == 2
        assert reopened.last_lsn == 2
        assert reopened.latest()["tn-1"].get("phase") == "expired"

    def test_second_tear_damages_the_record_before(self, tmp_path):
        path = tmp_path / "sessions.wal"
        wal = WALSessionStore(path)
        for phase in ("started", "policy", "exchange"):
            wal.append("tn-1", checkpoint("tn-1", phase))
        assert wal.tear_last_record() and wal.tear_last_record()
        assert wal.records() == 1
        assert wal.latest()["tn-1"].get("phase") == "started"
        wal.close()

        reopened = WALSessionStore(path)
        assert reopened.records() == 1
        reopened.append("tn-1", checkpoint("tn-1", "expired"))
        assert reopened.last_lsn == 2
        assert reopened.latest()["tn-1"].get("phase") == "expired"
        reopened.close()

    def test_mid_file_corruption_is_not_a_torn_write(self, tmp_path):
        path = tmp_path / "sessions.wal"
        wal = WALSessionStore(path)
        wal.append("tn-1", checkpoint("tn-1", "started"))
        wal.append("tn-1", checkpoint("tn-1", "policy"))
        wal.append("tn-1", checkpoint("tn-1", "exchange"))
        wal.close()
        lines = path.read_bytes().splitlines(keepends=True)
        assert b"policy" in lines[1]
        lines[1] = lines[1].replace(b"policy", b"hacked", 1)
        path.write_bytes(b"".join(lines))

        with pytest.raises(StorageError, match="corrupt at record 2"):
            WALSessionStore(path)

    def test_lsn_gap_is_corruption(self, tmp_path):
        path = tmp_path / "sessions.wal"
        wal = WALSessionStore(path)
        wal.append("tn-1", checkpoint("tn-1", "started"))
        wal.append("tn-1", checkpoint("tn-1", "policy"))
        wal.append("tn-1", checkpoint("tn-1", "exchange"))
        wal.close()
        lines = path.read_bytes().splitlines(keepends=True)
        path.write_bytes(lines[0] + lines[2])

        with pytest.raises(StorageError, match="LSN gap"):
            WALSessionStore(path)

    def test_missing_file_is_an_empty_store(self, tmp_path):
        wal = WALSessionStore(tmp_path / "absent.wal")
        assert wal.records() == 0
        assert wal.latest() == {}


def _chop_final_record(path: Path) -> None:
    """Cut the WAL's final line in half, as a mid-append power loss
    would, behind the store's back."""
    data = path.read_bytes()
    cut = data[:-1].rfind(b"\n") + 1
    path.write_bytes(data[: cut + (len(data) - cut) // 2])


_WAL_OPS = st.lists(
    st.one_of(
        st.tuples(
            st.just("append"),
            st.sampled_from(["tn-1", "tn-2", "tn-3"]),
            st.sampled_from(["started", "policy", "exchange", "done"]),
        ),
        st.tuples(st.just("tear")),
        st.tuples(st.just("reopen")),
        st.tuples(st.just("torn-reopen")),
    ),
    max_size=24,
)


class TestWALViewsAgree:
    """``records()`` counts LSNs, ``latest()`` re-reads the file and
    ``get()`` reads one record through the index, so none keeps a copy
    of the journal: all must still agree with a plain list model through
    appends, tears, reopens and torn-tail recovery."""

    @settings(max_examples=60, deadline=None)
    @given(ops=_WAL_OPS)
    def test_latest_and_records_track_a_journal_model(self, ops):
        with tempfile.TemporaryDirectory() as directory:
            path = Path(directory) / "sessions.wal"
            wal = WALSessionStore(path)
            journal: list[tuple[str, str]] = []
            for op in ops:
                if op[0] == "append":
                    _, session_id, phase = op
                    wal.append(session_id, checkpoint(session_id, phase))
                    journal.append((session_id, phase))
                elif op[0] == "tear":
                    assert wal.tear_last_record() is bool(journal)
                    journal = journal[:-1]
                elif op[0] == "reopen":
                    wal.close()
                    wal = WALSessionStore(path)
                else:
                    wal.close()
                    # a tail torn by an earlier tear is not a record
                    if journal and path.read_bytes().endswith(b"\n"):
                        _chop_final_record(path)
                        journal = journal[:-1]
                    wal = WALSessionStore(path)
                expected = dict(journal)
                assert wal.records() == wal.last_lsn == len(journal)
                latest = wal.latest()
                assert {
                    sid: element.get("phase")
                    for sid, element in latest.items()
                } == expected
                assert {
                    sid: wal.get(sid).get("phase")
                    for sid in wal.session_ids()
                } == expected
            wal.close()

    def test_torn_tail_left_by_tear_is_invisible_to_latest(self, tmp_path):
        path = tmp_path / "sessions.wal"
        wal = WALSessionStore(path)
        wal.append("tn-1", checkpoint("tn-1", "started"))
        wal.append("tn-2", checkpoint("tn-2", "started"))
        wal.tear_last_record()
        # the half-written line is still on disk until the next append
        assert not path.read_bytes().endswith(b"\n")
        assert set(wal.latest()) == {"tn-1"}
        assert wal.records() == 1
        wal.close()
