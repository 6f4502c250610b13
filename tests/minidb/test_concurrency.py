"""Concurrent multi-session engine: locks, snapshots, WAL group commit.

Covers the lock manager's ordered/timeout semantics, snapshot isolation
across engine sessions, the ColumnStore seqlock against torn snapshot
builds, crash-replay of group-committed WAL prefixes, structured
:class:`SessionError` lifetimes, and the socket server round trip.
"""

import json
import os
import shutil
import threading
import time

import pytest

from repro.minidb import Engine, LockTimeoutError, SessionError
from repro.minidb.errors import IntegrityError, InterfaceError, OperationalError
from repro.minidb.locks import SCHEMA_LOCK, LockManager
from repro.minidb.server import MiniDbClient, MiniDbServer
from repro.minidb.storage import Database


# ---------------------------------------------------------------------------
# Lock manager
# ---------------------------------------------------------------------------


class TestLockManager:
    def test_acquire_is_reentrant(self):
        lm = LockManager()
        lm.acquire("s1", "t")
        lm.acquire("s1", "t")  # same owner re-enters without blocking
        assert lm.held("s1", "t")
        lm.release_all("s1")
        assert lm.holder("t") is None

    def test_contended_acquire_times_out_with_context(self):
        lm = LockManager(timeout=0.05)
        lm.acquire("s1", "t")
        with pytest.raises(LockTimeoutError) as exc_info:
            lm.acquire("s2", "t")
        err = exc_info.value
        assert isinstance(err, OperationalError)
        assert err.resource == "t"
        assert err.owner == "s2"
        assert err.holder == "s1"
        assert err.waited > 0
        lm.release_all("s1")

    def test_acquire_many_takes_every_lock(self):
        lm = LockManager()
        lm.acquire_many("s1", ["b", "a", SCHEMA_LOCK])
        for name in ("a", "b", SCHEMA_LOCK):
            assert lm.held("s1", name)
        assert sorted(lm.held_by("s1")) == sorted(["a", "b", SCHEMA_LOCK])
        lm.release_all("s1")

    def test_acquire_many_timeout_releases_only_new_locks(self):
        lm = LockManager(timeout=0.05)
        lm.acquire("s1", "b")
        lm.acquire("s2", "a")  # s2 already holds 'a' before the batch
        with pytest.raises(LockTimeoutError) as exc_info:
            lm.acquire_many("s2", ["a", "b", "c"])
        assert exc_info.value.resource == "b"
        # The batch must give back 'c' (newly taken) but keep the
        # pre-existing 'a' — a retry loop still owns what it owned.
        assert lm.held("s2", "a")
        assert lm.holder("c") is None
        assert lm.holder("b") == "s1"
        lm.release_all("s1")
        lm.release_all("s2")

    def test_release_unblocks_waiter(self):
        lm = LockManager(timeout=5.0)
        lm.acquire("s1", "t")
        acquired = threading.Event()

        def waiter():
            lm.acquire("s2", "t")
            acquired.set()

        thread = threading.Thread(target=waiter)
        thread.start()
        time.sleep(0.02)
        assert not acquired.is_set()
        lm.release_all("s1")
        thread.join(timeout=2.0)
        assert acquired.is_set()
        assert lm.holder("t") == "s2"
        lm.release_all("s2")


# ---------------------------------------------------------------------------
# Multi-session snapshot isolation
# ---------------------------------------------------------------------------


@pytest.fixture
def engine():
    eng = Engine(":memory:")
    session = eng.connect()
    cur = session.cursor()
    cur.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, v TEXT)")
    cur.execute("INSERT INTO t (v) VALUES ('one'), ('two')")
    session.commit()
    cur.close()
    session.close()
    yield eng
    eng.close()


def _count(session, sql="SELECT COUNT(*) FROM t"):
    cur = session.cursor()
    cur.execute(sql)
    value = cur.fetchone()[0]
    cur.close()
    return value


class TestSessionIsolation:
    def test_uncommitted_write_invisible_to_other_session(self, engine):
        s1, s2 = engine.connect(), engine.connect()
        s1.execute("INSERT INTO t (v) VALUES ('three')")
        assert _count(s1) == 3  # read-your-writes
        assert _count(s2) == 2  # snapshot: not yet committed
        s1.commit()
        assert _count(s2) == 3  # new statement, new snapshot
        s1.close()
        s2.close()

    def test_rollback_restores_published_state(self, engine):
        s1, s2 = engine.connect(), engine.connect()
        s1.execute("DELETE FROM t")
        assert _count(s1) == 0
        s1.rollback()
        assert _count(s1) == 2
        assert _count(s2) == 2
        s1.close()
        s2.close()

    def test_open_transaction_pins_read_snapshot(self, engine):
        s1, s2 = engine.connect(), engine.connect()
        s2.execute("BEGIN")
        assert _count(s2) == 2
        s1.execute("INSERT INTO t (v) VALUES ('three')")
        s1.commit()
        # s2's transaction still reads the snapshot pinned at BEGIN.
        assert _count(s2) == 2
        s2.commit()
        assert _count(s2) == 3
        s1.close()
        s2.close()

    def test_writer_conflict_times_out_and_recovers(self, engine):
        engine.db.locks.timeout = 0.05
        s1, s2 = engine.connect(), engine.connect()
        s1.execute("UPDATE t SET v = 'held' WHERE id = 1")
        with pytest.raises(LockTimeoutError) as exc_info:
            s2.execute("UPDATE t SET v = 'blocked' WHERE id = 2")
        err = exc_info.value
        assert err.resource == "t"
        assert err.holder == s1.owner
        assert err.owner == s2.owner
        s2.rollback()
        s1.commit()  # releases the writer lock
        s2.execute("UPDATE t SET v = 'after' WHERE id = 2")
        s2.commit()
        assert _count(s1, "SELECT COUNT(*) FROM t WHERE v = 'after'") == 1
        s1.close()
        s2.close()

    def test_session_close_releases_locks_and_rolls_back(self, engine):
        engine.db.locks.timeout = 0.05
        s1, s2 = engine.connect(), engine.connect()
        s1.execute("INSERT INTO t (v) VALUES ('doomed')")
        s1.close()  # implicit rollback + lock release
        s2.execute("UPDATE t SET v = 'fine' WHERE id = 1")  # no timeout
        s2.commit()
        assert _count(s2, "SELECT COUNT(*) FROM t WHERE v = 'doomed'") == 0
        s2.close()

    def test_sql_transaction_control_routes_through_session(self, engine):
        s1, s2 = engine.connect(), engine.connect()
        s1.execute("BEGIN")
        s1.execute("INSERT INTO t (v) VALUES ('sql-txn')")
        assert _count(s2, "SELECT COUNT(*) FROM t WHERE v = 'sql-txn'") == 0
        s1.execute("COMMIT")
        assert _count(s2, "SELECT COUNT(*) FROM t WHERE v = 'sql-txn'") == 1
        s1.execute("BEGIN")
        s1.execute("INSERT INTO t (v) VALUES ('undone')")
        s1.execute("ROLLBACK")
        assert _count(s2, "SELECT COUNT(*) FROM t WHERE v = 'undone'") == 0
        s1.close()
        s2.close()

    def test_ddl_visible_to_existing_sessions(self, engine):
        s1, s2 = engine.connect(), engine.connect()
        s1.execute("CREATE TABLE u (id INTEGER PRIMARY KEY, w TEXT)")
        s2.execute("INSERT INTO u (w) VALUES ('x')")
        s2.commit()
        assert _count(s1, "SELECT COUNT(*) FROM u") == 1
        s1.close()
        s2.close()

    def test_concurrent_inserts_from_many_sessions(self, engine):
        n_threads, per_thread = 4, 25
        barrier = threading.Barrier(n_threads)
        errors = []

        def worker(i):
            session = engine.connect()
            cur = session.cursor()
            barrier.wait()
            try:
                for j in range(per_thread):
                    cur.execute(
                        "INSERT INTO t (v) VALUES (?)", (f"w{i}-{j}",)
                    )
                    session.commit()
            except Exception as exc:  # pragma: no cover - diagnostic
                errors.append(exc)
            finally:
                cur.close()
                session.close()

        threads = [
            threading.Thread(target=worker, args=(i,)) for i in range(n_threads)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert errors == []
        session = engine.connect()
        assert _count(session) == 2 + n_threads * per_thread
        session.close()


# ---------------------------------------------------------------------------
# ColumnStore torn-snapshot regression (seqlock)
# ---------------------------------------------------------------------------


def _take_rowid(table):
    """The next row id of *table*, advancing its counter (a bare writer)."""
    rowid = table.next_rowid
    table.next_rowid += 1
    return rowid


class _RacingRows(dict):
    """A row dict whose iteration hands control to a racing writer."""

    def __init__(self, data, on_items):
        super().__init__(data)
        self._on_items = on_items

    def items(self):
        self._on_items()
        return super().items()


class TestColumnStoreSeqlock:
    def _make_table(self):
        db = Database()

        class _Cols:
            def __init__(self, name):
                self.name = name
                self.not_null = False

        class _Meta:
            name = "t"
            columns = [_Cols("a")]
            primary_key = []
            unique_sets = []
            foreign_keys = []
            rowid_pk_column = None

            def column_index(self, _c):
                return 0

        from repro.minidb.storage import Table

        table = Table(_Meta())
        db.tables["t"] = table
        for i in range(10):
            table.rows[_take_rowid(table)] = (i,)
        table.bump_version()
        return db, table

    def test_build_waits_out_in_flight_mutation(self):
        _db, table = self._make_table()
        table.begin_mutation()  # epoch odd: a row mutation is in flight
        result = []
        builder = threading.Thread(
            target=lambda: result.append(table.column_store())
        )
        builder.start()
        builder.join(timeout=0.1)
        assert builder.is_alive()  # spinning until the epoch goes even
        table.rows[_take_rowid(table)] = (99,)
        table.bump_version()
        builder.join(timeout=2.0)
        assert not builder.is_alive()
        store = result[0]
        assert store.version == table.data_version
        assert store.nrows == len(table.rows) == 11

    def test_racing_mutation_forces_clean_rebuild(self):
        """A writer landing mid-copy must not produce a torn snapshot.

        The builder thread starts copying the row dict; at that exact
        point (synchronized through the ``items()`` hook) a writer runs a
        full epoch-bracketed mutation.  The first build pairs the *old*
        data_version with the *new* rows — exactly the torn state — so
        the version check must throw it away and rebuild.
        """
        _db, table = self._make_table()
        build_started = threading.Event()
        mutation_done = threading.Event()
        calls = []

        def on_items():
            calls.append(1)
            if len(calls) == 1:
                build_started.set()
                assert mutation_done.wait(timeout=5.0)

        table.rows = _RacingRows(table.rows, on_items)
        table._column_store = None

        def writer():
            assert build_started.wait(timeout=5.0)
            table.begin_mutation()
            dict.__setitem__(table.rows, _take_rowid(table), (99,))
            table.bump_version()
            mutation_done.set()

        writer_thread = threading.Thread(target=writer)
        writer_thread.start()
        store = table.column_store()
        writer_thread.join(timeout=5.0)
        assert len(calls) >= 2  # the torn first build was discarded
        assert store.version == table.data_version
        assert store.nrows == len(table.rows) == 11

    def test_snapshot_consistent_under_writer_stress(self):
        db, table = self._make_table()
        stop = threading.Event()
        errors = []

        def writer():
            while not stop.is_set():
                table.begin_mutation()
                table.rows[_take_rowid(table)] = (1,)
                table.bump_version()

        def reader():
            try:
                while not stop.is_set():
                    table._column_store = None
                    store = table.column_store()
                    # A clean snapshot decodes exactly nrows values.
                    total = 0
                    for i in range(store.num_segments):
                        seg = store.segment(i)
                        total += len(seg.slice(0, 0, seg.n)[0])
                    if total != store.nrows:
                        errors.append((total, store.nrows))
            except Exception as exc:  # pragma: no cover - diagnostic
                errors.append(exc)

        threads = [
            threading.Thread(target=writer),
            threading.Thread(target=reader),
        ]
        for t in threads:
            t.start()
        time.sleep(0.2)
        stop.set()
        for t in threads:
            t.join(timeout=5.0)
        assert errors == []


# ---------------------------------------------------------------------------
# WAL crash replay with concurrent group commits
# ---------------------------------------------------------------------------


def _batches_visible(path):
    """{batch: row_count} as seen by a fresh engine over *path*."""
    engine = Engine(path)
    session = engine.connect()
    cur = session.cursor()
    cur.execute("SELECT batch, COUNT(*) FROM m GROUP BY batch")
    out = dict(cur.fetchall())
    cur.close()
    session.close()
    engine.close()
    return out


def _committed_batches_in_wal(wal_path):
    """Reference replay: batch tags whose commit marker made the file."""
    committed, pending = set(), set()
    with open(wal_path, "r", encoding="utf-8") as fh:
        for line in fh:
            try:
                rec = json.loads(line)
            except ValueError:
                break  # torn tail
            if rec.get("op") == "commit":
                committed |= pending
                pending = set()
            elif rec.get("op") == "insert_batch":
                for _rowid, row in rec["rows"]:
                    pending.add(row[1])
    return committed


class TestWalCrashReplay:
    BATCH = 4

    def _run_workload(self, db_path, durable_lengths):
        engine = Engine(db_path)
        setup = engine.connect()
        setup.execute(
            "CREATE TABLE m (id INTEGER PRIMARY KEY, batch INTEGER)"
        )
        setup.close()

        journal = engine.db.journal
        real_fsync = journal._do_fsync
        record_lock = threading.Lock()

        def recording_fsync(fileno):
            real_fsync(fileno)
            with record_lock:
                durable_lengths.append(os.fstat(fileno).st_size)

        journal._do_fsync = recording_fsync

        committed = set()
        committed_lock = threading.Lock()
        n_threads, commits_each = 4, 6
        barrier = threading.Barrier(n_threads)

        def worker(i):
            session = engine.connect()
            cur = session.cursor()
            barrier.wait()
            for j in range(commits_each):
                tag = i * 100 + j
                cur.executemany(
                    "INSERT INTO m (batch) VALUES (?)",
                    [(tag,)] * self.BATCH,
                )
                session.commit()
                with committed_lock:
                    committed.add(tag)
            cur.close()
            session.close()

        threads = [
            threading.Thread(target=worker, args=(i,)) for i in range(n_threads)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        # Leave the WAL in place (no checkpoint): the "crash" is a copy of
        # the log file, not a clean shutdown.
        journal._do_fsync = real_fsync
        return engine, committed

    def test_replay_reconstructs_exactly_the_committed_prefix(self, tmp_path):
        db_path = str(tmp_path / "crash.db")
        durable_lengths = []
        engine, committed = self._run_workload(db_path, durable_lengths)
        wal_path = db_path + ".wal"
        assert durable_lengths, "group commit never fsynced"

        # Kill between group-commit flushes: the surviving log is the
        # file exactly as of some recorded fsync, mid-run.
        cut = sorted(durable_lengths)[len(durable_lengths) // 2]
        crash_path = str(tmp_path / "survivor.db")
        shutil.copyfile(wal_path, crash_path + ".wal")
        with open(crash_path + ".wal", "r+b") as fh:
            fh.truncate(cut)

        expected = _committed_batches_in_wal(crash_path + ".wal")
        visible = _batches_visible(crash_path)
        assert set(visible) == expected  # exactly the durable prefix
        assert expected <= committed
        assert all(count == self.BATCH for count in visible.values())
        engine.close()

    def test_full_wal_replays_every_concurrent_commit(self, tmp_path):
        db_path = str(tmp_path / "full.db")
        durable_lengths = []
        engine, committed = self._run_workload(db_path, durable_lengths)
        wal_path = db_path + ".wal"
        copy_path = str(tmp_path / "copy.db")
        shutil.copyfile(wal_path, copy_path + ".wal")
        visible = _batches_visible(copy_path)
        assert set(visible) == committed
        assert all(count == self.BATCH for count in visible.values())
        # Group commit: concurrent commits share fsyncs, so the log never
        # needs more flushes than commits (+1 for the CREATE TABLE).
        assert len(durable_lengths) <= len(committed) + 1
        engine.close()

    def test_torn_tail_is_ignored(self, tmp_path):
        db_path = str(tmp_path / "torn.db")
        durable_lengths = []
        engine, _committed = self._run_workload(db_path, durable_lengths)
        wal_path = db_path + ".wal"
        torn_path = str(tmp_path / "tail.db")
        shutil.copyfile(wal_path, torn_path + ".wal")
        size = os.path.getsize(torn_path + ".wal")
        with open(torn_path + ".wal", "r+b") as fh:
            fh.truncate(size - 7)  # rip through the last record
        expected = _committed_batches_in_wal(torn_path + ".wal")
        visible = _batches_visible(torn_path)
        assert set(visible) == expected
        assert all(count == self.BATCH for count in visible.values())
        engine.close()


# ---------------------------------------------------------------------------
# Session lifetime errors (structured SessionError)
# ---------------------------------------------------------------------------


class TestSessionErrors:
    def test_cursor_after_connection_close(self, engine):
        session = engine.connect()
        cur = session.cursor()
        session.close()
        with pytest.raises(SessionError) as exc_info:
            cur.execute("SELECT 1")
        err = exc_info.value
        assert isinstance(err, InterfaceError)
        assert err.code == "SES001"
        assert err.hint

    def test_closed_cursor(self, engine):
        session = engine.connect()
        cur = session.cursor()
        cur.close()
        with pytest.raises(SessionError) as exc_info:
            cur.fetchone()
        assert exc_info.value.code == "SES004"
        session.close()

    def test_connect_on_closed_engine(self):
        eng = Engine(":memory:")
        eng.close()
        with pytest.raises(SessionError) as exc_info:
            eng.connect()
        assert exc_info.value.code == "SES002"

    def test_streaming_cursor_invalidated_by_commit(self, engine):
        session = engine.connect()
        cur = session.cursor()
        cur.execute("INSERT INTO t (v) VALUES ('x')")  # opens the txn
        cur.execute("SELECT v FROM t")
        assert cur.fetchone() is not None
        session.commit()
        with pytest.raises(SessionError) as exc_info:
            cur.fetchone()
        err = exc_info.value
        assert err.code == "SES003"
        assert "re-execute" in err.hint
        session.close()

    def test_streaming_cursor_invalidated_by_rollback(self, engine):
        session = engine.connect()
        cur = session.cursor()
        cur.execute("INSERT INTO t (v) VALUES ('x')")
        cur.execute("SELECT v FROM t")
        session.rollback()
        with pytest.raises(SessionError) as exc_info:
            cur.fetchall()
        assert exc_info.value.code == "SES003"
        session.close()

    def test_cursor_without_transaction_survives_commit(self, engine):
        # No open transaction at execute time: the cursor streams from a
        # stable published snapshot and a later commit can't hurt it.
        session = engine.connect()
        cur = session.cursor()
        cur.execute("SELECT v FROM t ORDER BY id")
        session.commit()
        assert cur.fetchall() == [("one",), ("two",)]
        session.close()


# ---------------------------------------------------------------------------
# Socket server round trip
# ---------------------------------------------------------------------------


class TestServer:
    def test_round_trip_and_error_mapping(self):
        engine = Engine(":memory:")
        with MiniDbServer(engine, port=0) as server:
            client = MiniDbClient(server.host, server.port)
            client.execute(
                "CREATE TABLE kv (k INTEGER PRIMARY KEY, v TEXT)"
            )
            result = client.executemany(
                "INSERT INTO kv (k, v) VALUES (?, ?)",
                [(1, "a"), (2, "b")],
            )
            assert result["rowcount"] == 2
            result = client.execute("SELECT k, v FROM kv ORDER BY k")
            assert result["rows"] == [[1, "a"], [2, "b"]]
            assert result["columns"] == ["k", "v"]
            with pytest.raises(IntegrityError):
                client.execute(
                    "INSERT INTO kv (k, v) VALUES (?, ?)", (1, "dup")
                )
            # The failed statement did not kill the session.
            result = client.execute("SELECT COUNT(*) FROM kv")
            assert result["rows"] == [[2]]
            client.close()
        engine.close()

    def test_sessions_are_isolated_per_socket(self):
        engine = Engine(":memory:")
        with MiniDbServer(engine, port=0) as server:
            c1 = MiniDbClient(server.host, server.port)
            c2 = MiniDbClient(server.host, server.port)
            c1.execute("CREATE TABLE s (id INTEGER PRIMARY KEY, v TEXT)")
            c1.execute("INSERT INTO s (v) VALUES ('mine')")
            # c1 has not committed: c2's snapshot must not see the row.
            assert c2.execute("SELECT COUNT(*) FROM s")["rows"] == [[0]]
            c1.execute("COMMIT")
            assert c2.execute("SELECT COUNT(*) FROM s")["rows"] == [[1]]
            c1.close()
            c2.close()
        engine.close()

    def test_protocol_errors(self):
        engine = Engine(":memory:")
        with MiniDbServer(engine, port=0) as server:
            client = MiniDbClient(server.host, server.port)
            with pytest.raises(OperationalError) as exc_info:
                client._roundtrip({"op": "nonsense"})
            assert "ProtocolError" in str(exc_info.value)
            client.close()
        engine.close()


# ---------------------------------------------------------------------------
# Load-generator smoke (satellite of benchmarks/load_generator)
# ---------------------------------------------------------------------------


class TestLoadGeneratorSmoke:
    def test_small_mix_has_no_isolation_violations(self):
        import sys

        bench_dir = os.path.join(
            os.path.dirname(os.path.dirname(os.path.dirname(__file__))),
            "benchmarks",
        )
        if bench_dir not in sys.path:
            sys.path.insert(0, bench_dir)
        from load_generator.workload import Mix, run_mix

        report = run_mix(Mix("smoke", readers=2, writers=2, ops_per_client=15))
        assert report["violations"] == []
        assert report["total_ops"] > 0
        assert report["throughput_ops_per_s"] > 0
        assert 0 <= report["p50_seconds"] <= report["p95_seconds"]
