"""Persistence: snapshots, WAL replay, crash recovery, checkpointing."""

import base64
import io
import json
import os

import pytest

import repro.minidb as minidb


@pytest.fixture
def db_path(tmp_path):
    return str(tmp_path / "perf.db")


def make_db(path):
    c = minidb.connect(path)
    c.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, v TEXT)")
    c.execute("INSERT INTO t (v) VALUES ('one'), ('two')")
    c.commit()
    return c


class TestSnapshotRoundTrip:
    def test_close_and_reopen(self, db_path):
        make_db(db_path).close()
        c = minidb.connect(db_path)
        assert c.execute("SELECT v FROM t ORDER BY id").fetchall() == [("one",), ("two",)]
        c.close()

    def test_schema_survives(self, db_path):
        c = make_db(db_path)
        c.execute("CREATE UNIQUE INDEX uv ON t (v)")
        c.close()
        c = minidb.connect(db_path)
        with pytest.raises(minidb.IntegrityError):
            c.execute("INSERT INTO t (v) VALUES ('one')")
        c.close()

    def test_autoincrement_survives(self, db_path):
        make_db(db_path).close()
        c = minidb.connect(db_path)
        cur = c.execute("INSERT INTO t (v) VALUES ('three')")
        assert cur.lastrowid == 3
        c.close()

    def test_blob_round_trip(self, db_path):
        c = minidb.connect(db_path)
        c.execute("CREATE TABLE b (data BLOB)")
        c.execute("INSERT INTO b VALUES (?)", (b"\x00\x01\xfe",))
        c.commit()
        c.close()
        c = minidb.connect(db_path)
        assert c.execute("SELECT data FROM b").fetchall() == [(b"\x00\x01\xfe",)]
        c.close()


class TestWalReplay:
    def test_committed_wal_replayed_without_checkpoint(self, db_path):
        c = make_db(db_path)
        c.execute("INSERT INTO t (v) VALUES ('three')")
        c.commit()
        # Simulate a crash: no close/checkpoint, reopen from snapshot+WAL.
        c2 = minidb.connect(db_path)
        assert c2.execute("SELECT COUNT(*) FROM t").fetchall() == [(3,)]
        c2.close()
        c.close()

    def test_uncommitted_changes_not_in_wal(self, db_path):
        c = make_db(db_path)
        c.execute("INSERT INTO t (v) VALUES ('ghost')")
        # No commit: a new reader must not see it.
        c2 = minidb.connect(db_path)
        assert c2.execute("SELECT COUNT(*) FROM t").fetchall() == [(2,)]
        c2.close()
        c.rollback()
        c.close()

    def test_torn_tail_ignored(self, db_path):
        c = make_db(db_path)
        c.execute("INSERT INTO t (v) VALUES ('three')")
        c.commit()
        wal = db_path + ".wal"
        with open(wal, "a", encoding="utf-8") as fh:
            fh.write('{"op": "insert", "table": "t", "rowid": 99, "row": [99, "tor')
        c2 = minidb.connect(db_path)
        assert c2.execute("SELECT COUNT(*) FROM t").fetchall() == [(3,)]
        c2.close()
        c.close()

    def test_update_delete_in_wal(self, db_path):
        c = make_db(db_path)
        c.execute("UPDATE t SET v = 'uno' WHERE id = 1")
        c.execute("DELETE FROM t WHERE id = 2")
        c.commit()
        c2 = minidb.connect(db_path)
        assert c2.execute("SELECT v FROM t").fetchall() == [("uno",)]
        c2.close()
        c.close()

    def test_ddl_in_wal(self, db_path):
        c = make_db(db_path)
        c.execute("CREATE TABLE extra (x INTEGER)")
        c.execute("INSERT INTO extra VALUES (5)")
        c.commit()
        c2 = minidb.connect(db_path)
        assert c2.execute("SELECT x FROM extra").fetchall() == [(5,)]
        c2.close()
        c.close()


class TestCheckpoint:
    def test_checkpoint_truncates_wal(self, db_path):
        c = make_db(db_path)
        c.execute("INSERT INTO t (v) VALUES ('three')")
        c.commit()
        assert os.path.exists(db_path + ".wal")
        c.checkpoint()
        assert not os.path.exists(db_path + ".wal")
        c.close()
        c2 = minidb.connect(db_path)
        assert c2.execute("SELECT COUNT(*) FROM t").fetchall() == [(3,)]
        c2.close()

    def test_snapshot_is_valid_json(self, db_path):
        make_db(db_path).close()
        with open(db_path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
        assert doc["version"] == 1
        assert any(t["meta"]["name"] == "t" for t in doc["tables"])

    def test_corrupt_snapshot_raises_operational_error(self, db_path):
        with open(db_path, "w", encoding="utf-8") as fh:
            fh.write("this is not json")
        with pytest.raises(minidb.OperationalError):
            minidb.connect(db_path)


def _append_wal(path, text):
    with open(path + ".wal", "a", encoding="utf-8") as fh:
        fh.write(text)


def _wal_lines(path):
    with open(path + ".wal", "r", encoding="utf-8") as fh:
        return [json.loads(line) for line in fh]


class TestWalTailRecovery:
    """Two crashes in a row: the first leaves a tail past the last commit."""

    def _store(self, path):
        c = make_db(path)
        c.execute("CREATE TABLE u (id INTEGER PRIMARY KEY, v TEXT)")
        c.commit()
        c.close()

    def test_uncommitted_tail_not_applied_with_next_commit(self, db_path):
        self._store(db_path)
        # Crash 1: a complete record reached the WAL, its commit marker did not.
        _append_wal(db_path, json.dumps(
            {"op": "insert", "table": "u", "rowid": 7, "row": [7, "never committed"]}) + "\n")
        c = minidb.connect(db_path)
        assert c.execute("SELECT COUNT(*) FROM u").fetchall() == [(0,)]
        c.execute("INSERT INTO t (v) VALUES ('three')")
        c.commit()
        # Crash 2: c is abandoned without close().
        c2 = minidb.connect(db_path)
        assert c2.execute("SELECT v FROM u").fetchall() == []
        assert c2.execute("SELECT COUNT(*) FROM t").fetchall() == [(3,)]
        c2.close()
        c.close()

    def test_torn_tail_does_not_swallow_next_commit(self, db_path):
        self._store(db_path)
        # Crash 1: a partial line with no newline is left at the tail.
        _append_wal(db_path, '{"op": "insert", "table": "u", "rowid": 9, "row": [9, "tor')
        c = minidb.connect(db_path)
        c.execute("INSERT INTO u (id, v) VALUES (2, 'acknowledged')")
        c.commit()
        # Crash 2: c is abandoned without close().
        c2 = minidb.connect(db_path)
        assert c2.execute("SELECT id, v FROM u").fetchall() == [(2, "acknowledged")]
        c2.close()
        c.close()

    def test_replay_cuts_wal_back_to_last_commit(self, db_path):
        c = make_db(db_path)  # committed, never checkpointed
        committed = _wal_lines(db_path)
        assert committed[-1] == {"op": "commit"}
        _append_wal(db_path, json.dumps({"op": "delete", "table": "t", "rowid": 1}) + "\n")
        _append_wal(db_path, '{"op": "ins')
        c2 = minidb.connect(db_path)
        assert _wal_lines(db_path) == committed
        assert c2.execute("SELECT COUNT(*) FROM t").fetchall() == [(2,)]
        c2.close()
        c.close()

    def test_commit_line_torn_before_newline_kept(self, db_path):
        c = make_db(db_path)
        with open(db_path + ".wal", "rb+") as fh:
            fh.seek(-1, os.SEEK_END)
            assert fh.read() == b"\n"
            fh.seek(-1, os.SEEK_END)
            fh.truncate()
        c2 = minidb.connect(db_path)
        c2.execute("INSERT INTO t (v) VALUES ('three')")
        c2.commit()
        c3 = minidb.connect(db_path)
        assert c3.execute("SELECT COUNT(*) FROM t").fetchall() == [(3,)]
        c3.close()
        c2.close()
        c.close()

    def test_wal_without_commit_is_removed(self, db_path):
        make_db(db_path).close()
        _append_wal(db_path, json.dumps({"op": "delete", "table": "t", "rowid": 1}) + "\n")
        c = minidb.connect(db_path)
        assert not os.path.exists(db_path + ".wal")
        assert c.execute("SELECT COUNT(*) FROM t").fetchall() == [(2,)]
        c.close()


def _file_state(path):
    with open(path, "rb") as fh:
        return fh.read(), os.stat(path).st_mtime_ns


class TestReadOnlyClose:
    """A session that committed nothing leaves the database file alone."""

    def test_embedded_connection(self, db_path):
        make_db(db_path).close()
        before = _file_state(db_path)
        c = minidb.connect(db_path)
        assert c.execute("SELECT COUNT(*) FROM t").fetchall() == [(2,)]
        c.close()
        assert _file_state(db_path) == before
        assert not os.path.exists(db_path + ".wal")

    def test_rolled_back_write_is_read_only(self, db_path):
        make_db(db_path).close()
        before = _file_state(db_path)
        c = minidb.connect(db_path)
        c.execute("INSERT INTO t (v) VALUES ('ghost')")
        c.rollback()
        c.close()
        assert _file_state(db_path) == before
        assert not os.path.exists(db_path + ".wal")

    def test_engine_session(self, db_path):
        make_db(db_path).close()
        before = _file_state(db_path)
        engine = minidb.Engine(db_path)
        s = engine.connect()
        assert s.execute("SELECT v FROM t ORDER BY id").fetchall() == [("one",), ("two",)]
        s.close()
        engine.close()
        assert _file_state(db_path) == before
        assert not os.path.exists(db_path + ".wal")

    def test_datastore_open_query_close(self, db_path):
        from repro.core import PTDataStore

        data = os.path.join(os.path.dirname(__file__), "..", "..", "examples",
                            "data", "quickstart.ptdf")
        store = PTDataStore(database=db_path)
        store.load_file(data)
        store.commit()
        store.close()
        before = _file_state(db_path)
        store = PTDataStore(database=db_path, initialize=False)
        assert store.executions() == ["lin-2p", "lin-4p"]
        assert store.count_rows("performance_result") == 5
        store.close()
        assert _file_state(db_path) == before
        assert not os.path.exists(db_path + ".wal")

    def test_replay_only_session_folds_wal(self, db_path):
        c = make_db(db_path)
        c.execute("INSERT INTO t (v) VALUES ('three')")
        c.commit()  # crash: c is never closed
        c2 = minidb.connect(db_path)
        c2.close()
        assert not os.path.exists(db_path + ".wal")
        with open(db_path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
        (t,) = [t for t in doc["tables"] if t["meta"]["name"] == "t"]
        assert sorted(row[1] for row in t["rows"].values()) == ["one", "three", "two"]
        c.close()

    def test_new_path_writes_snapshot(self, db_path):
        assert not os.path.exists(db_path)
        minidb.connect(db_path).close()
        with open(db_path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
        assert doc["version"] == 1 and doc["tables"] == []


def _reference_snapshot(db) -> str:
    """The snapshot text as the streaming ``json.dump`` writer produced it."""
    from repro.minidb.wal import _table_meta_to_dict

    def enc(v):
        if isinstance(v, bytes):
            return {"__blob__": base64.b64encode(v).decode("ascii")}
        return v

    doc = {
        "version": 1,
        "tables": [],
        "indexes": [
            {"name": im.name, "table": im.table, "columns": im.columns, "unique": im.unique}
            for im in db.catalog.indexes.values()
            if not im.name.startswith("__")
        ],
    }
    for table in db.tables.values():
        doc["tables"].append({
            "meta": _table_meta_to_dict(table.meta),
            "next_rowid": table.next_rowid,
            "next_auto": table.next_auto,
            "rows": {str(rid): [enc(v) for v in row] for rid, row in table.rows.items()},
        })
    buf = io.StringIO()
    json.dump(doc, buf)
    return buf.getvalue()


def _table_state(db) -> dict:
    return {
        key: (t.next_rowid, t.next_auto, dict(t.rows))
        for key, t in db.tables.items()
    }


class TestSnapshotCodec:
    def _mixed_store(self, path):
        c = minidb.connect(path)
        # TEXT affinity decodes bytes to str, so the BLOB held outside a
        # BLOB column sits in the NUMERIC one (which keeps bytes as bytes).
        c.execute("CREATE TABLE m (id INTEGER PRIMARY KEY AUTOINCREMENT, "
                  "data BLOB, label TEXT, x REAL, n INTEGER, v NUMERIC)")
        c.execute("CREATE INDEX m_label ON m (label, n)")
        c.executemany("INSERT INTO m (data, label, x, n, v) VALUES (?, ?, ?, ?, ?)", [
            (b"\x00\x01\xfe", "plain", 1.5, -7, b"\xff in numeric"),
            (None, b"bytes in text", -0.25, None, 2.5),
            (b"", None, 1e-300, -(2 ** 40), None),
            (None, "caf\u00e9 \"q\"", None, 0, -3),
        ])
        c.execute("DELETE FROM m WHERE n = 0")
        c.commit()
        return c

    def test_bytes_identical_to_streaming_encoder(self, db_path):
        c = self._mixed_store(db_path)
        expected = _reference_snapshot(c.db)
        c.close()
        with open(db_path, "r", encoding="utf-8") as fh:
            assert fh.read() == expected

    def test_round_trip_table_rows(self, db_path):
        c = self._mixed_store(db_path)
        before = _table_state(c.db)
        c.close()
        c = minidb.connect(db_path)
        assert _table_state(c.db) == before
        assert c.execute("SELECT data, label, v FROM m ORDER BY id").fetchall() == [
            (b"\x00\x01\xfe", "plain", b"\xff in numeric"),
            (None, "bytes in text", 2.5),
            (b"", None, None),
        ]
        c.close()

    def test_reference_written_snapshot_opens_unchanged(self, db_path):
        c = self._mixed_store(db_path)
        text = _reference_snapshot(c.db)
        before = _table_state(c.db)
        c.close()
        with open(db_path, "w", encoding="utf-8") as fh:
            fh.write(text)
        c = minidb.connect(db_path)
        assert _table_state(c.db) == before
        assert c.execute("SELECT id FROM m WHERE label = 'plain' AND n = -7").fetchall() == [(1,)]
        c.close()
        with open(db_path, "r", encoding="utf-8") as fh:
            assert fh.read() == text
