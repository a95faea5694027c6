"""Crash points of the durable-file layer and of every log it keeps.

The properties cut NDJSON files at every byte offset and make the
publish step of an atomic write fail, then check what a reader and the
next writer see.  The directory-fsync tests record which descriptors
get fsync'd: a rename or create is only durable once its directory is.
"""

import json
import os
import stat
import tempfile
import threading
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.durable import (
    append_record,
    atomic_write,
    open_log,
    read_records,
)
from repro.obs.stitch import ActivitySink, read_worker_activity
from repro.prof.activity import ActivityRecord
from repro.resilience.fleet import _EventLog, _read_events
from repro.resilience.journal import RunJournal
from repro.sched.cache import ResultCache
from repro.serve.queue import DurableQueue
from repro.serve.request import parse_request

_values = st.one_of(
    st.integers(-1000, 1000),
    st.text(max_size=6),
    st.floats(allow_nan=False, allow_infinity=False),
)
_records = st.lists(
    st.dictionaries(st.text(max_size=4), _values, max_size=3),
    min_size=1,
    max_size=4,
)


def _ndjson(records):
    """The bytes of a log holding ``records`` and each record's end."""
    data = b""
    ends = []
    for rec in records:
        data += json.dumps(rec, separators=(",", ":")).encode()
        ends.append(len(data))
        data += b"\n"
    return data, ends


class TestReadAfterCrash:
    @settings(max_examples=25)
    @given(records=_records, extra=_records.map(lambda rs: rs[0]))
    def test_every_prefix_reads_then_appends(self, records, extra):
        data, ends = _ndjson(records)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "log.ndjson"
            for cut in range(len(data) + 1):
                path.write_bytes(data[:cut])
                complete = [r for r, end in zip(records, ends) if end <= cut]
                got, skipped = read_records(path)
                assert got == complete
                assert skipped <= 1
                with open_log(path) as fh:
                    append_record(fh, extra)
                got, skipped = read_records(path)
                assert got == complete + [extra]
                assert skipped <= 1

    def test_missing_file_is_empty(self, tmp_path):
        assert read_records(tmp_path / "ghost.ndjson") == ([], 0)

    def test_garbage_and_non_objects_are_counted(self, tmp_path):
        path = tmp_path / "log.ndjson"
        path.write_text('{"a":1}\n\nnot json\n[1,2]\n{"b":2}\n')
        assert read_records(path) == ([{"a": 1}, {"b": 2}], 2)

    def test_torn_multibyte_tail_is_skipped(self, tmp_path):
        path = tmp_path / "log.ndjson"
        path.write_bytes(b'{"a":1}\n' + '{"b":"é"}'.encode()[:-3])
        assert read_records(path) == ([{"a": 1}], 1)


class TestAtomicWrite:
    def test_replace_last_writer_wins(self, tmp_path):
        path = tmp_path / "doc.json"
        assert atomic_write(path, "one")
        assert atomic_write(path, b"two")
        assert path.read_bytes() == b"two"
        assert os.listdir(tmp_path) == ["doc.json"]

    def test_exclusive_first_writer_wins(self, tmp_path):
        path = tmp_path / "doc.json"
        assert atomic_write(path, "one", exclusive=True)
        assert not atomic_write(path, "two", exclusive=True)
        assert path.read_text() == "one"
        assert os.listdir(tmp_path) == ["doc.json"]

    @pytest.mark.parametrize("exclusive", [False, True])
    @pytest.mark.parametrize("old", [None, b"old"])
    def test_crash_before_publish_keeps_old_bytes(
        self, tmp_path, monkeypatch, exclusive, old
    ):
        path = tmp_path / "doc.json"
        if old is not None:
            path.write_bytes(old)

        def crash(*args, **kwargs):
            raise OSError("crash between fsync and publish")

        monkeypatch.setattr(os, "link" if exclusive else "replace", crash)
        with pytest.raises(OSError, match="crash"):
            atomic_write(path, b"new", exclusive=exclusive)
        if old is None:
            assert not path.exists()
        else:
            assert path.read_bytes() == old
        assert not list(tmp_path.glob("*.tmp"))

    def test_racing_exclusive_writes_have_one_winner(self, tmp_path):
        for round_ in range(20):
            path = tmp_path / f"doc{round_}.json"
            barrier = threading.Barrier(4)
            won = []

            def write(i):
                barrier.wait(timeout=10)
                won.append((atomic_write(path, f"w{i}", exclusive=True), i))

            threads = [
                threading.Thread(target=write, args=(i,)) for i in range(4)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=10)
                assert not t.is_alive()
            winners = [i for ok, i in won if ok]
            assert len(won) == 4 and len(winners) == 1
            assert path.read_text() == f"w{winners[0]}"
        assert not list(tmp_path.glob("*.tmp"))


@pytest.fixture
def fsynced(monkeypatch):
    """Record, for each fsync, whether the descriptor is a directory."""
    real = os.fsync
    seen = []

    def fsync(fd):
        seen.append(stat.S_ISDIR(os.fstat(fd).st_mode))
        real(fd)

    monkeypatch.setattr(os, "fsync", fsync)
    return seen


def _request(*values):
    return parse_request(
        {"kind": "sweep", "benchmark": "MemAlign", "values": list(values)}
    )


class TestDirectoryFsync:
    def test_result_cache_put(self, tmp_path, fsynced):
        ResultCache(tmp_path).put("ab" * 32, {"kind": "run"})
        assert True in fsynced

    def test_journal_create(self, tmp_path, fsynced):
        RunJournal.create(tmp_path, run_id="r1").close()
        assert True in fsynced

    def test_queue_state_write(self, tmp_path, fsynced):
        queue = DurableQueue(tmp_path)
        entry, _ = queue.submit(_request(4096))
        fsynced.clear()
        queue.requeue(entry)         # a state transition only
        queue.close()
        assert True in fsynced


def _tear_last_line(path):
    data = path.read_bytes()
    start = data.rstrip(b"\n").rfind(b"\n") + 1
    path.write_bytes(data[: start + (len(data) - start) // 2])


def _intake_append(root, i):
    queue = DurableQueue(root)
    queue.submit(_request(4096 + i))
    queue.close()


def _intake_read(root):
    return [
        line["request"]["values"][0] - 4096
        for line in DurableQueue._read_intake(root / "intake.ndjson")
    ]


def _activity_append(root, i):
    sink = ActivitySink(root / "activity" / "w0.ndjson", worker="w0")
    sink.begin(i)
    sink(ActivityRecord(kind="kernel", name="k"))
    sink.commit()
    sink.close()


def _activity_read(root):
    return [line["job"] for line in read_worker_activity(root).get("w0", [])]


def _event_append(root, i):
    (root / "events").mkdir(exist_ok=True)    # the manifest step makes it
    log = _EventLog(root / "events" / "w0.ndjson", "w0")
    log.emit("job-complete", job=i)
    log.close()


def _event_read(root):
    return [ev["job"] for ev in _read_events(root)]


@pytest.mark.parametrize("append,read", [
    (_intake_append, _intake_read),
    (_activity_append, _activity_read),
    (_event_append, _event_read),
], ids=["serve-intake", "activity-sink", "fleet-events"])
def test_append_after_torn_tail_is_kept(tmp_path, append, read):
    """A crash mid-append tears one record; the next writer's record
    must start on a line of its own instead of gluing onto the tear."""
    append(tmp_path, 0)
    append(tmp_path, 1)
    log = next(p for p in tmp_path.rglob("*.ndjson"))
    _tear_last_line(log)
    append(tmp_path, 2)
    assert read(tmp_path) == [0, 2]
