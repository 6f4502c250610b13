"""Persistence: snapshots, WAL replay, crash recovery, checkpointing."""

import base64
import io
import json
import math
import os
import shutil
import struct
import zlib

import pytest
from hypothesis import given, settings, strategies as st

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

    def test_snapshot_layout(self, db_path):
        make_db(db_path).close()
        header, bodies = _read_v3(db_path)
        assert header["version"] == 3
        assert [t["meta"]["name"] for t in header["tables"]] == ["t"]
        assert bodies["t"] == [[1, 2], [1, 2], ["one", "two"]]

    def test_corrupt_snapshot_raises_operational_error(self, db_path):
        with open(db_path, "w", encoding="utf-8") as fh:
            fh.write("this is not json")
        with pytest.raises(minidb.OperationalError):
            minidb.connect(db_path)


#: A format-3 column block's head: kind byte, little-endian u64 length.
_BLOCK = struct.Struct("<cQ")
_ITEM_SIZES = {b"b": 1, b"h": 2, b"i": 4, b"q": 8, b"d": 8}


def _blob_hook(obj):
    return base64.b64decode(obj["__blob__"]) if "__blob__" in obj else obj


def _blocks(body):
    """``[(kind, values)]`` of one format-3 body, rowids first, read with
    ``struct`` from the documented layout."""
    blocks, pos = [], 0
    while pos < len(body):
        kind, size = _BLOCK.unpack_from(body, pos)
        payload = body[pos + _BLOCK.size:pos + _BLOCK.size + size]
        assert len(payload) == size
        pos += _BLOCK.size + size
        if kind in _ITEM_SIZES:
            count = size // _ITEM_SIZES[kind]
            values = list(struct.unpack(f"<{count}{kind.decode()}", payload))
        elif kind == b"s":
            n, code = len(blocks[0][1]), payload[:1]
            end = 1 + n * _ITEM_SIZES[code]
            names = json.loads(payload[end:])
            values = [names[c] for c in struct.unpack(f"<{n}{code.decode()}", payload[1:end])]
        else:
            assert kind == b"j"
            values = json.loads(payload, object_hook=_blob_hook)
        blocks.append((kind.decode(), values))
    return blocks


def _split(path):
    """A v2/v3 snapshot file as ``(header, [body bytes per table])``."""
    with open(path, "rb") as fh:
        data = fh.read()
    end = data.index(b"\n")
    header = json.loads(data[:end])
    offset, bodies = end + 1, []
    for t in header["tables"]:
        bodies.append(data[offset:offset + t["bytes"]])
        assert data[offset + t["bytes"]:offset + t["bytes"] + 1] == b"\n"
        offset += t["bytes"] + 1
    assert offset == len(data)
    return header, bodies


def _read_v3(path, kinds=False):
    """A format-3 snapshot as ``(header, {table name: body arrays})``, or
    ``{table name: column kinds}`` in place of the arrays with *kinds*."""
    header, bodies = _split(path)
    out = {}
    for t, body in zip(header["tables"], bodies):
        assert zlib.crc32(body) == t["crc32"]
        out[t["meta"]["name"]] = [b[0] if kinds else b[1] for b in _blocks(body)]
    return header, out


def _v2_snapshot(db) -> bytes:
    """*db* as a format-2 file: a JSON header line, then one JSON body
    line per table, ``[[rowid…], [col0…], …]``."""
    from repro.minidb.wal import _table_meta_to_dict

    def enc(v):
        if isinstance(v, bytes):
            return {"__blob__": base64.b64encode(v).decode("ascii")}
        raise TypeError(v)

    tables, bodies = [], []
    for table in db.tables.values():
        rows = db.table(table.meta.name).rows
        columns = list(zip(*rows.values())) or [()] * len(table.meta.columns)
        body = json.dumps([list(rows), *map(list, columns)], default=enc,
                          separators=(",", ":")).encode("ascii")
        bodies.append(body)
        tables.append({"meta": _table_meta_to_dict(table.meta), "next_rowid": table.next_rowid,
                       "next_auto": table.next_auto, "bytes": len(body)})
    indexes = [
        {"name": im.name, "table": im.table, "columns": im.columns, "unique": im.unique}
        for im in db.catalog.indexes.values()
        if not im.name.startswith("__")
    ]
    header = json.dumps({"version": 2, "indexes": indexes, "tables": tables}).encode("ascii")
    return b"\n".join([header, *bodies, b""])


def _json_blocks(arrays) -> bytes:
    """A valid format-3 body holding every array as a JSON block."""
    out = b""
    for values in arrays:
        payload = json.dumps(values).encode("ascii")
        out += _BLOCK.pack(b"j", len(payload)) + payload
    return out


def _body(path, name) -> bytes:
    """Table *name*'s body in the snapshot at *path*, as stored."""
    header, bodies = _split(path)
    return dict(zip((t["meta"]["name"] for t in header["tables"]), bodies))[name]


def _replace_body(path, name, body) -> None:
    """Swap table *name*'s body for *body*, with its length and CRC."""
    header, bodies = _split(path)
    for i, t in enumerate(header["tables"]):
        if t["meta"]["name"] == name:
            bodies[i] = body
            t["bytes"], t["crc32"] = len(body), zlib.crc32(body)
    with open(path, "wb") as fh:
        fh.write(b"\n".join([json.dumps(header).encode("ascii"), *bodies, b""]))


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
        _header, bodies = _read_v3(db_path)
        assert sorted(bodies["t"][2]) == ["one", "three", "two"]
        c.close()

    def test_new_path_writes_snapshot(self, db_path):
        assert not os.path.exists(db_path)
        minidb.connect(db_path).close()
        header, bodies = _read_v3(db_path)
        assert header["version"] == 3 and header["tables"] == [] and bodies == {}


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
    tables = {key: db.table(key) for key in db.tables}
    return {key: (t.next_rowid, t.next_auto, dict(t.rows)) for key, t in tables.items()}


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

    def test_round_trip_keeps_every_value(self, db_path):
        c = minidb.connect(db_path)
        c.execute("CREATE TABLE k (id INTEGER PRIMARY KEY, b BLOB, i INTEGER, "
                  "f REAL, s TEXT, v NUMERIC)")
        c.execute("CREATE INDEX k_s ON k (s, i)")
        rows = [
            (1, b"\x00\x01\xfe", 2 ** 53 + 1, 0.1, "caf\u00e9 \u2603 \"q\"\n", b""),
            (2, None, -(2 ** 63), -1e-300, None, 2 ** 64),
            (3, b"\xff" * 40, None, float("inf"), "\U0001f600", None),
            (4, None, 0, 1.5e308, "", "\x00 nul"),
        ]
        c.executemany("INSERT INTO k VALUES (?, ?, ?, ?, ?, ?)", rows)
        c.commit()
        before = _table_state(c.db)
        c.close()
        header, bodies = _read_v3(db_path)
        assert header["version"] == 3
        assert bodies["k"][0] == [1, 2, 3, 4]  # rowids, then one array per column
        c = minidb.connect(db_path)
        assert _table_state(c.db) == before
        assert c.execute("SELECT * FROM k ORDER BY id").fetchall() == rows
        assert c.execute("SELECT id FROM k WHERE i = ?", (2 ** 53 + 1,)).fetchall() == [(1,)]
        assert c.execute("SELECT id FROM k WHERE s = '\U0001f600'").fetchall() == [(3,)]
        c.close()

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


class TestBatchReplay:
    """WAL replay applies an ``insert_batch`` record the way the batch did."""

    @staticmethod
    def _state(db):
        # repr() keeps stored types apart (1 == 1.0) and bucket order.
        return {
            "tables": repr(_table_state(db)),
            "indexes": {
                name: repr(idx._map) for name, idx in sorted(db.indexes.items())
            },
        }

    def test_crash_after_two_batches_replays_like_a_clean_reopen(self, tmp_path):
        path = str(tmp_path / "live.db")
        c = minidb.connect(path)
        c.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, pid INTEGER REFERENCES t(id), "
                  "u TEXT UNIQUE, x REAL, g INTEGER)")
        c.execute("CREATE INDEX t_g ON t (g, x)")
        c.commit()
        journal = c.db.journal
        real_fsync = journal._do_fsync
        images = []

        def crash_image(fileno):
            real_fsync(fileno)
            files = {}
            for suffix in ("", ".wal"):
                if os.path.exists(path + suffix):
                    with open(path + suffix, "rb") as fh:
                        files[suffix] = fh.read()
            images.append(files)

        journal._do_fsync = crash_image
        c.executemany("INSERT INTO t (pid, u, x, g) VALUES (?, ?, ?, ?)",
                      [(None if i == 0 else 1 + i // 3, f"u{i}", i / 4, i % 5)
                       for i in range(40)])
        c.commit()
        c.executemany("INSERT INTO t (id, pid, u, x, g) VALUES (?, ?, ?, ?, ?)",
                      [(100 - i, 7, None, "2.5", i % 3) for i in range(30)])
        c.commit()
        journal._do_fsync = real_fsync
        assert [r["op"] for r in _wal_lines(path)].count("insert_batch") == 2

        # The crash: the files exactly as the second commit's fsync left them.
        crashed = str(tmp_path / "crashed.db")
        for suffix, data in images[-1].items():
            with open(crashed + suffix, "wb") as fh:
                fh.write(data)
        c.close()  # clean shutdown: checkpoint, WAL folded into the snapshot

        clean = minidb.connect(path)
        replayed = minidb.connect(crashed)
        assert self._state(replayed.db) == self._state(clean.db)
        assert replayed.execute("SELECT MAX(id), COUNT(*) FROM t").fetchall() == [(100, 70)]
        clean.close()
        replayed.close()


def _encoded(db):
    """Names of the tables a lazy open has not decoded yet."""
    return sorted(t.meta.name for t in db.tables.values() if t.encoded is not None)


def _index_state(db):
    return {name: repr(idx._map) for name, idx in sorted(db.indexes.items())}


class TestLazyOpen:
    """A v2 open reads the header only; a table is decoded, with all of
    its indexes, on first touch."""

    def _store(self, path):
        c = minidb.connect(path)
        c.execute("CREATE TABLE p (id INTEGER PRIMARY KEY, name TEXT UNIQUE)")
        c.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, pid INTEGER REFERENCES p(id), "
                  "sid INTEGER REFERENCES t(id), g INTEGER, x REAL, UNIQUE (g, x))")
        c.execute("CREATE INDEX t_g ON t (g)")
        c.execute("CREATE TABLE u (id INTEGER PRIMARY KEY, v TEXT)")
        c.executemany("INSERT INTO p VALUES (?, ?)", [(i, f"p{i}") for i in range(1, 6)])
        c.executemany("INSERT INTO t (pid, sid, g, x) VALUES (?, ?, ?, ?)",
                      [(1 + i % 5, None if i == 0 else i, i % 4, i / 8) for i in range(30)])
        c.executemany("INSERT INTO u (v) VALUES (?)", [("a",), ("b",)])
        c.commit()
        c.close()

    def _eager(self, path, eager_path):
        """The same store as a v1 file, which opens eagerly."""
        c = minidb.connect(path)
        _table_state(c.db)  # decode every table
        text = _reference_snapshot(c.db)
        c.close()
        with open(eager_path, "w", encoding="utf-8") as fh:
            fh.write(text)
        return minidb.connect(eager_path)

    def test_open_decodes_nothing_and_a_query_decodes_its_tables(self, db_path):
        self._store(db_path)
        c = minidb.connect(db_path)
        assert _encoded(c.db) == ["p", "t", "u"]
        assert c.execute("SELECT COUNT(*) FROM u").fetchall() == [(2,)]
        assert _encoded(c.db) == ["p", "t"]
        assert not hasattr(c.db.indexes["t_g"], "_map")  # unbuilt, not empty
        # Reaching an index decodes its table and builds every index on it.
        (idx,) = [i for i in c.db.indexes_on("t") if i.name == "t_g"]
        assert _encoded(c.db) == ["p"]
        assert idx.lookup((1,)) == [2, 6, 10, 14, 18, 22, 26, 30]
        assert all(hasattr(i, "_map") for i in c.db._indexes_of("t"))
        c.close()

    def test_count_only_query_leaves_untouched_tables_encoded(self, db_path):
        from repro.core import PTDataStore
        from repro.core.query import QueryEngine
        from repro.core import ByName, Expansion, PrFilter

        data = os.path.join(os.path.dirname(__file__), "..", "..", "examples",
                            "data", "quickstart.ptdf")
        store = PTDataStore(database=db_path)
        store.load_file(data)
        store.close()
        store = PTDataStore(database=db_path, initialize=False)
        db = store.backend.connection.db
        engine = QueryEngine(store)
        prf = PrFilter()
        prf.add(ByName("/lin-2p", Expansion("D")))
        families = store.resolve_prfilter(prf)
        assert engine.count_for_family(families[0]) == len(engine.result_ids(families)) > 0
        left = _encoded(db)
        assert "performance_result" in left and "resource_attribute" in left
        store.close()

    def test_writes_to_lazy_tables_match_an_eager_store(self, db_path, tmp_path):
        self._store(db_path)
        lazy = minidb.connect(db_path)
        eager = self._eager(db_path, str(tmp_path / "eager.db"))
        assert _encoded(lazy.db) == ["p", "t", "u"] and _encoded(eager.db) == []
        ops = [  # (statement, fails)
            ("INSERT INTO t (pid, sid, g, x) VALUES (2, 3, 9, 0.5)", False),
            ("INSERT INTO t (pid, sid, g, x) VALUES (2, 3, 1, 0.125)", True),  # UNIQUE (g, x)
            ("UPDATE t SET g = 7 WHERE id % 3 = 0", False),
            ("DELETE FROM t WHERE id = 30", False),
            ("DELETE FROM t WHERE id = 5", True),  # row 6 references it
            ("DELETE FROM p WHERE id = 1", True),
            ("INSERT INTO u (v) VALUES ('c')", False),
        ]
        for sql, fails in ops:
            for conn in (lazy, eager):
                if fails:
                    with pytest.raises(minidb.IntegrityError):
                        conn.execute(sql)
                else:
                    conn.execute(sql)
        for conn in (lazy, eager):
            conn.commit()
        assert _table_state(lazy.db) == _table_state(eager.db)
        assert _index_state(lazy.db) == _index_state(eager.db)
        for sql in ("SELECT id FROM t WHERE g = 7 ORDER BY id",
                    "SELECT id, x FROM t WHERE g = 1 AND x > 0.2",
                    "SELECT name FROM p WHERE id = 3"):
            assert lazy.execute(sql).fetchall() == eager.execute(sql).fetchall()
        lazy.close()
        eager.close()
        reopened = minidb.connect(db_path)
        assert _table_state(reopened.db) == _table_state(lazy.db)
        reopened.close()

    def test_wal_replay_decodes_only_the_tables_it_touches(self, db_path):
        self._store(db_path)
        c = minidb.connect(db_path)
        c.execute("INSERT INTO u (v) VALUES ('c')")
        c.commit()  # crash: never closed
        # ...and a record whose commit marker never made it.
        _append_wal(db_path, json.dumps({"op": "delete", "table": "t", "rowid": 1}) + "\n")
        _append_wal(db_path, '{"op": "ins')
        c2 = minidb.connect(db_path)
        assert _encoded(c2.db) == ["p", "t"]
        assert c2.execute("SELECT v FROM u ORDER BY id").fetchall() == [("a",), ("b",), ("c",)]
        assert c2.execute("SELECT COUNT(*) FROM t").fetchall() == [(30,)]
        c2.close()
        c.close()
        header, bodies = _read_v3(db_path)
        assert bodies["u"][2] == ["a", "b", "c"] and len(bodies["t"][0]) == 30

    def test_untouched_tables_are_copied_verbatim_at_checkpoint(self, db_path):
        self._store(db_path)
        header, bodies = _read_v3(db_path)
        # Re-spell table t's body as JSON blocks only: valid, but not what
        # the writer produces, so only a verbatim copy keeps it.
        respelled = _json_blocks(bodies["t"])
        _replace_body(db_path, "t", respelled)
        c = minidb.connect(db_path)
        c.execute("UPDATE u SET v = 'z' WHERE id = 1")
        c.commit()
        assert _encoded(c.db) == ["p", "t"]
        c.close()
        header, after = _read_v3(db_path)
        assert [t["meta"]["name"] for t in header["tables"]] == ["p", "t", "u"]
        assert _body(db_path, "t") == respelled  # byte for byte
        assert after["u"][2] == ["z", "b"] and after["t"] == bodies["t"]

    def test_engine_connect_after_lazy_open(self, db_path):
        self._store(db_path)
        engine = minidb.Engine(db_path)
        assert _encoded(engine.db) == ["p", "t", "u"]
        s = engine.connect()
        assert _encoded(engine.db) == []
        assert s.execute("SELECT COUNT(*) FROM t WHERE g = 1").fetchall() == [(8,)]
        s.execute("INSERT INTO u (v) VALUES ('c')")
        s.commit()
        s.close()
        engine.close()
        c = minidb.connect(db_path)
        assert c.execute("SELECT v FROM u ORDER BY id").fetchall() == [("a",), ("b",), ("c",)]
        c.close()

    def test_truncated_body_raises_at_open(self, db_path):
        self._store(db_path)
        with open(db_path, "rb+") as fh:
            fh.truncate(os.path.getsize(db_path) - 5)
        with pytest.raises(minidb.OperationalError, match="bytes of table data"):
            minidb.connect(db_path)

    def test_corrupt_body_raises_on_first_touch(self, db_path):
        self._store(db_path)
        body = _body(db_path, "t")
        flipped = bytearray(body)
        flipped[len(body) // 2] ^= 0x01  # one bit, same length
        with open(db_path, "rb") as fh:
            data = fh.read()
        with open(db_path, "wb") as fh:
            fh.write(data.replace(body, bytes(flipped)))
        c = minidb.connect(db_path)
        assert c.execute("SELECT COUNT(*) FROM u").fetchall() == [(2,)]
        for _ in range(2):  # still encoded after a failed decode
            with pytest.raises(minidb.OperationalError) as exc:
                c.execute("SELECT COUNT(*) FROM t")
            assert "table t" in str(exc.value) and db_path in str(exc.value)
            assert "CRC-32" in str(exc.value)
        assert _encoded(c.db) == ["p", "t"]
        c.close()

    @pytest.mark.parametrize("body", [
        b"12345",                                            # shorter than a block head
        _BLOCK.pack(b"b", 2) + b"\x01\x02",                  # one array of two
        _BLOCK.pack(b"b", 2) + b"\x01\x02" + _BLOCK.pack(b"b", 1) + b"\x01",
        _BLOCK.pack(b"b", 1) + b"\x01" + _BLOCK.pack(b"z", 1) + b"\x01",
        _BLOCK.pack(b"b", 1) + b"\x01" + _BLOCK.pack(b"j", 9) + b"[1]",
        (_BLOCK.pack(b"b", 1) + b"\x01") * 2 + _BLOCK.pack(b"j", 5) + b'["a"]' + b"xx",
        _BLOCK.pack(b"b", 1) + b"\x01" + _BLOCK.pack(b"s", 4) + b"b\x05[]",
        _BLOCK.pack(b"b", 1) + b"\x01" + _BLOCK.pack(b"s", 4) + b"b\x00{}",
        _BLOCK.pack(b"b", 1) + b"\x01" + _BLOCK.pack(b"s", 13) + b"d" + bytes(8) + b"[\"\"]",
        _BLOCK.pack(b"h", 3) + b"\x01\x00\x02" + _BLOCK.pack(b"j", 3) + b"[1]",
    ])
    def test_body_of_the_wrong_shape_raises_on_first_touch(self, db_path, body):
        c = minidb.connect(db_path)
        c.execute("CREATE TABLE u (id INTEGER PRIMARY KEY, v TEXT)")
        c.commit()
        c.close()
        _replace_body(db_path, "u", body)  # with a matching CRC
        c = minidb.connect(db_path)
        with pytest.raises(minidb.OperationalError, match="table u of database file"):
            c.execute("SELECT * FROM u")
        c.close()

    def test_materialise_is_counted_and_traced(self, db_path):
        from repro.obs.metrics import metrics
        from repro.obs.tracing import trace

        self._store(db_path)
        metrics.enable()
        metrics.reset()
        trace.enable()
        trace.clear()
        try:
            c = minidb.connect(db_path)
            c.execute("SELECT COUNT(*) FROM t").fetchall()
            c.close()
            count = metrics.snapshot()["minidb.wal.tables_materialised"]["value"]
            spans = [s for s in trace.spans() if s.name == "wal.materialise"]
        finally:
            metrics.disable()
            trace.disable()
            trace.clear()
        assert count == 1
        assert [(s.cat, s.args) for s in spans] == [("minidb", {"table": "t"})]


class TestFormat1Upgrade:
    def test_v1_file_opens_read_only_then_is_rewritten_as_v3(self, db_path):
        TestLazyOpen()._store(db_path)
        c = minidb.connect(db_path)
        state = _table_state(c.db)
        text = _reference_snapshot(c.db)
        c.close()
        with open(db_path, "w", encoding="utf-8") as fh:
            fh.write(text)
        before = _file_state(db_path)
        c = minidb.connect(db_path)
        assert _encoded(c.db) == [] and _table_state(c.db) == state
        c.close()
        assert _file_state(db_path) == before  # a read-only session writes nothing
        c = minidb.connect(db_path)
        c.execute("INSERT INTO u (v) VALUES ('c')")
        c.execute("DELETE FROM u WHERE v = 'c'")
        c.commit()
        c.close()
        header, _bodies = _read_v3(db_path)
        assert header["version"] == 3
        c = minidb.connect(db_path)
        assert _encoded(c.db) == ["p", "t", "u"]
        after = _table_state(c.db)
        c.close()
        assert {k: v[2] for k, v in after.items()} == {k: v[2] for k, v in state.items()}


# Ints drawn inside one typecode's range, so a column's narrowest code
# varies from column to column; the last range is past int64.
_INT_RANGES = [(-(2 ** 7), 2 ** 7 - 1), (-(2 ** 15), 2 ** 15 - 1),
               (-(2 ** 31), 2 ** 31 - 1), (-(2 ** 63), 2 ** 63 - 1), (-(2 ** 64), 2 ** 64)]
_INTS = st.sampled_from(_INT_RANGES).flatmap(
    lambda r: st.integers(*r) | st.sampled_from([r[0], r[1], r[0] + 1, r[1] - 1]))
_FLOATS = st.floats() | st.sampled_from([-0.0, 0.0, math.nan, math.inf, -math.inf, 1e-300])
_TEXTS = st.text(max_size=6) | st.sampled_from(["\n", "\0", "café", "a\nb\0c", "\U0001f600"])
_FEW_TEXTS = st.sampled_from(["x", "\0y", "z\n", "☃", ""])
_BYTES = st.binary(max_size=6)
_ANY = st.none() | st.booleans() | _INTS | _FLOATS | _TEXTS | _BYTES

#: One strategy of values per column of ``CREATE TABLE k (...)`` below.
_COLUMNS = {
    "i INTEGER": _INTS,
    "f REAL": _FLOATS,
    "s TEXT": _TEXTS | _FEW_TEXTS | _BYTES,  # bytes in TEXT decode to str
    "n NUMERIC": _ANY,
    "b BLOB": _BYTES,
    "t BOOLEAN": st.booleans(),
}


def _column_values(base):
    """A column's value strategy: plain, with NULLs, or all NULL."""
    return st.sampled_from([base, base | st.none(), st.none()])


def _index_entries(db):
    """Every index's (key, rowids) entries, in no particular key order."""
    return {name: sorted(map(repr, db.index_state(idx)._map.items()))
            for name, idx in db.indexes.items()}


class TestFormat3:
    def test_column_kinds(self, db_path):
        c = minidb.connect(db_path)
        c.execute("CREATE TABLE k (a, b, c, d, e, f, g, h, i, j, m)")
        rows = [
            (127, 128, 2 ** 31, 2 ** 63, 1.5, f"s{i % 3}", f"u{i}", None if i else 1,
             i == 1, b"\x00", -(2 ** 7) if i else -(2 ** 15))
            for i in range(40)
        ]
        c.executemany("INSERT INTO k VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?)", rows)
        c.execute("CREATE TABLE empty (x INTEGER, y TEXT)")
        c.commit()
        c.close()
        _header, kinds = _read_v3(db_path, kinds=True)
        assert kinds["k"] == ["b", "b", "h", "q", "j", "d", "s", "j", "j", "j", "j", "h"]
        assert kinds["empty"] == ["j", "j", "j"]
        c = minidb.connect(db_path)
        assert c.execute("SELECT * FROM k").fetchall() == rows
        assert c.execute("SELECT COUNT(*) FROM empty").fetchall() == [(0,)]
        c.close()

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_round_trip_over_the_value_domain(self, tmp_path_factory, data):
        path = str(tmp_path_factory.mktemp("v3") / "k.db")
        strategies = [data.draw(_column_values(base)) for base in _COLUMNS.values()]
        rows = data.draw(st.lists(st.tuples(*strategies), max_size=40))
        c = minidb.connect(path)
        c.execute(f"CREATE TABLE k (id INTEGER PRIMARY KEY, {', '.join(_COLUMNS)})")
        c.execute("CREATE INDEX k_s ON k (s)")
        c.execute("CREATE TABLE empty (x INTEGER)")
        c.executemany(f"INSERT INTO k ({', '.join(col.split()[0] for col in _COLUMNS)}) "
                      f"VALUES ({', '.join('?' * len(_COLUMNS))})", rows)
        c.execute("DELETE FROM k WHERE id % 3 = 0")
        c.commit()
        # repr() keeps 1, 1.0 and True apart, and -0.0 and NaN comparable.
        before = repr(_table_state(c.db))
        indexes = _index_entries(c.db)
        c.close()
        reopened = minidb.connect(path)
        assert repr(_table_state(reopened.db)) == before
        assert _index_entries(reopened.db) == indexes
        reopened.close()

    def test_rows_are_written_in_rowid_order(self, db_path):
        c = make_db(db_path)
        c.execute("INSERT INTO t (v) VALUES ('three')")
        c.commit()
        table = c.db.table("t")
        table.rows = dict(sorted(table.rows.items(), reverse=True))
        c.checkpoint()
        c.close()
        _header, bodies = _read_v3(db_path)
        assert bodies["t"] == [[1, 2, 3], [1, 2, 3], ["one", "two", "three"]]

    def test_format2_file_opens_read_only_then_is_transcoded(self, db_path):
        TestLazyOpen()._store(db_path)
        c = minidb.connect(db_path)
        state = _table_state(c.db)
        old = _v2_snapshot(c.db)
        c.close()
        with open(db_path, "wb") as fh:
            fh.write(old)
        before = _file_state(db_path)
        c = minidb.connect(db_path)
        assert _encoded(c.db) == ["p", "t", "u"]
        assert c.execute("SELECT COUNT(*) FROM t WHERE g = 1").fetchall() == [(8,)]
        c.close()
        assert _file_state(db_path) == before  # a read-only session writes nothing
        c = minidb.connect(db_path)
        c.execute("INSERT INTO u (v) VALUES ('c')")
        c.commit()
        c.checkpoint()
        # p and t were transcoded without being decoded: no index built.
        assert _encoded(c.db) == ["p", "t"]
        assert not any(hasattr(i, "_map") for i in c.db._indexes_of("t"))
        c.close()
        header, bodies = _read_v3(db_path)
        assert header["version"] == 3
        assert bodies["t"][0] == list(state["t"][2])
        c = minidb.connect(db_path)
        after = _table_state(c.db)
        c.close()
        state["u"][2][3] = (3, "c")
        assert {k: v[2] for k, v in after.items()} == {k: v[2] for k, v in state.items()}
        assert after["u"][:2] == (4, 4) and after["t"] == state["t"]

    def test_committed_format2_store_upgrades_on_the_first_load(self, tmp_path):
        from repro.cli import main

        fixture = os.path.join(os.path.dirname(__file__), "data", "quickstart_format2.db")
        path = str(tmp_path / "q.db")
        shutil.copyfile(fixture, path)
        with open(path, "rb") as fh:
            assert json.loads(fh.readline())["version"] == 2
        before = _file_state(path)
        query = ["query", "--db", path, "--count-only", "--name", "/lin-2p", "--relatives", "D"]
        assert main(query) == 0 and main(query) == 0
        assert _file_state(path) == before
        data = os.path.join(os.path.dirname(__file__), "..", "..", "examples",
                            "data", "quickstart.ptdf")
        assert main(["load", "--db", path, "--quiet", data]) == 0
        header, bodies = _read_v3(path)
        assert header["version"] == 3
        assert len(bodies["performance_result"][0]) == 10
