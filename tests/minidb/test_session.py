"""One session per store: what a session sees, and what survives it.

A file-backed store has one connection at a time (the lock file of
``test_lock.py``), so "another session" is the next connection to open
the store.  Covers read-your-writes against the next session, rollback
and SQL transaction control across sessions, many threads taking turns
on one store, cursor lifetimes across commit and close (``SES001``,
``SES004``), and the replay of exactly the WAL prefix that an fsync made
durable.
"""

import json
import os
import shutil
import threading

import pytest

import repro.minidb as minidb
from repro.minidb import SessionError, connection, vector
from repro.minidb.errors import InterfaceError


@pytest.fixture
def db_path(tmp_path):
    path = str(tmp_path / "store.db")
    c = minidb.connect(path)
    c.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, v TEXT)")
    c.execute("INSERT INTO t (v) VALUES ('one'), ('two')")
    c.commit()
    c.close()
    return path


@pytest.fixture
def short_wait(monkeypatch):
    monkeypatch.setattr(connection, "LOCK_TIMEOUT_S", 0.1)


def _count(path_or_conn, sql="SELECT COUNT(*) FROM t"):
    """*sql*'s single value, through an open connection or a new session."""
    if isinstance(path_or_conn, str):
        c = minidb.connect(path_or_conn)
        try:
            return _count(c, sql)
        finally:
            c.close()
    cur = path_or_conn.cursor()
    cur.execute(sql)
    value = cur.fetchone()[0]
    cur.close()
    return value


# ---------------------------------------------------------------------------
# What the next session sees
# ---------------------------------------------------------------------------


class TestSessionVisibility:
    def test_uncommitted_write_is_seen_only_by_its_session(self, db_path):
        s1 = minidb.connect(db_path)
        s1.execute("INSERT INTO t (v) VALUES ('three')")
        assert _count(s1) == 3  # read-your-writes
        s1.close()  # never committed
        assert _count(db_path) == 2
        s2 = minidb.connect(db_path)
        s2.execute("INSERT INTO t (v) VALUES ('three')")
        s2.commit()
        s2.close()
        assert _count(db_path) == 3

    def test_rollback_restores_committed_state(self, db_path):
        s1 = minidb.connect(db_path)
        s1.execute("DELETE FROM t")
        assert _count(s1) == 0
        s1.rollback()
        assert _count(s1) == 2
        s1.close()
        assert _count(db_path) == 2

    def test_sql_transaction_control_reaches_the_store(self, db_path):
        s1 = minidb.connect(db_path)
        s1.execute("BEGIN")
        s1.execute("INSERT INTO t (v) VALUES ('sql-txn')")
        s1.execute("COMMIT")
        s1.execute("BEGIN")
        s1.execute("INSERT INTO t (v) VALUES ('undone')")
        s1.execute("ROLLBACK")
        assert _count(s1, "SELECT COUNT(*) FROM t WHERE v = 'undone'") == 0
        s1.close()
        assert _count(db_path, "SELECT COUNT(*) FROM t WHERE v = 'sql-txn'") == 1
        assert _count(db_path, "SELECT COUNT(*) FROM t WHERE v = 'undone'") == 0

    def test_committed_ddl_is_seen_by_the_next_session(self, db_path):
        s1 = minidb.connect(db_path)
        s1.execute("CREATE TABLE u (id INTEGER PRIMARY KEY, w TEXT)")
        s1.execute("INSERT INTO u (w) VALUES ('x')")
        s1.commit()
        s1.close()
        s2 = minidb.connect(db_path)
        s2.execute("INSERT INTO u (w) VALUES ('y')")
        s2.commit()
        s2.close()
        assert _count(db_path, "SELECT COUNT(*) FROM u") == 2

    def test_the_lock_spans_the_session_not_the_transaction(self, db_path, short_wait):
        s1 = minidb.connect(db_path)
        s1.execute("INSERT INTO t (v) VALUES ('three')")
        s1.commit()
        with pytest.raises(minidb.OperationalError, match="database is locked"):
            minidb.connect(db_path)
        s1.execute("INSERT INTO t (v) VALUES ('four')")
        s1.rollback()
        with pytest.raises(minidb.OperationalError, match="database is locked"):
            minidb.connect(db_path)
        s1.close()
        assert _count(db_path) == 3

    def test_sessions_from_many_threads_take_turns(self, db_path):
        n_threads, sessions_each, per_session = 4, 5, 3
        barrier = threading.Barrier(n_threads)
        errors = []

        def worker(i):
            barrier.wait()
            try:
                for j in range(sessions_each):
                    s = minidb.connect(db_path)  # waits while another holds it
                    try:
                        for k in range(per_session):
                            s.execute("INSERT INTO t (v) VALUES (?)", (f"w{i}-{j}-{k}",))
                            s.commit()
                    finally:
                        s.close()
            except Exception as exc:  # pragma: no cover - diagnostic
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(60)
        assert not any(t.is_alive() for t in threads)
        assert errors == []
        assert _count(db_path) == 2 + n_threads * sessions_each * per_session
        assert _count(db_path, "SELECT COUNT(DISTINCT v) FROM t") == _count(db_path)


# ---------------------------------------------------------------------------
# Cursor and connection lifetimes
# ---------------------------------------------------------------------------


@pytest.fixture
def conn():
    c = minidb.connect()
    c.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, v TEXT)")
    c.execute("INSERT INTO t (v) VALUES ('one'), ('two')")
    c.commit()
    yield c
    c.close()


class TestLifetimes:
    def test_closed_cursor(self, conn):
        cur = conn.cursor()
        cur.close()
        with pytest.raises(SessionError) as exc_info:
            cur.fetchone()
        err = exc_info.value
        assert err.code == "SES004"
        assert err.hint

    def test_cursor_without_transaction_survives_commit(self, conn):
        cur = conn.cursor()
        cur.execute("SELECT v FROM t ORDER BY id")
        conn.commit()
        assert cur.fetchall() == [("one",), ("two",)]

    def test_cursor_opened_in_a_transaction_survives_its_commit(self, conn):
        cur = conn.cursor()
        cur.execute("INSERT INTO t (v) VALUES ('three')")  # opens the txn
        cur.execute("SELECT v FROM t ORDER BY id")
        assert cur.fetchone() == ("one",)
        conn.commit()
        assert cur.fetchall() == [("two",), ("three",)]

    def test_stream_stops_when_its_connection_closes(self, conn, monkeypatch):
        monkeypatch.setattr(vector, "BATCH_SIZE", 2)
        conn.executemany("INSERT INTO t (v) VALUES (?)", [(f"v{i}",) for i in range(8)])
        cur = conn.cursor()
        cur.execute("SELECT id FROM t WHERE id IN (1, 2, 3, 4, 5, 6)")
        rows = iter(cur)
        assert next(rows) == (1,)
        conn.close()
        with pytest.raises(SessionError) as exc_info:
            next(rows)
        assert exc_info.value.code == "SES001"

    @pytest.mark.parametrize("use", [
        lambda c: c.cursor(),
        lambda c: c.execute("SELECT 1"),
        lambda c: c.executemany("INSERT INTO t (v) VALUES (?)", [("x",)]),
        lambda c: c.executescript("SELECT 1; SELECT 2"),
        lambda c: c.commit(),
        lambda c: c.rollback(),
        lambda c: c.checkpoint(),
    ], ids=["cursor", "execute", "executemany", "executescript", "commit",
            "rollback", "checkpoint"])
    def test_closed_connection_raises_ses001(self, conn, use):
        conn.close()
        with pytest.raises(SessionError) as exc_info:
            use(conn)
        err = exc_info.value
        assert isinstance(err, InterfaceError)
        assert err.code == "SES001"
        assert err.hint

    def test_close_twice_is_a_no_op(self, db_path, short_wait):
        c = minidb.connect(db_path)
        c.execute("INSERT INTO t (v) VALUES ('three')")
        c.commit()
        c.close()
        other = minidb.connect(db_path)  # holds the lock now
        try:
            c.close()  # neither checkpoints again nor touches other's lock
            other.execute("INSERT INTO t (v) VALUES ('four')")
            other.commit()
        finally:
            other.close()
        assert _count(db_path) == 4


# ---------------------------------------------------------------------------
# WAL crash replay: exactly the durable prefix
# ---------------------------------------------------------------------------


def _batches_visible(path):
    """{batch: row_count} as seen by a new session over *path*."""
    c = minidb.connect(path)
    try:
        return dict(c.execute("SELECT batch, COUNT(*) FROM m GROUP BY batch").fetchall())
    finally:
        c.close()


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
    COMMITS = 24

    @pytest.fixture
    def workload(self, tmp_path):
        """Run COMMITS batch commits on one session, recording the WAL's
        size at each fsync; yields ``(wal_path, committed, durable_lengths)``
        with the session still open, so its WAL was never checkpointed."""
        db_path = str(tmp_path / "crash.db")
        c = minidb.connect(db_path)
        c.execute("CREATE TABLE m (id INTEGER PRIMARY KEY, batch INTEGER)")
        c.commit()
        journal = c.db.journal
        real_fsync = journal._do_fsync
        durable_lengths = []

        def recording_fsync(fileno):
            real_fsync(fileno)
            durable_lengths.append(os.fstat(fileno).st_size)

        journal._do_fsync = recording_fsync
        committed = set()
        cur = c.cursor()
        for tag in range(self.COMMITS):
            cur.executemany("INSERT INTO m (batch) VALUES (?)", [(tag,)] * self.BATCH)
            c.commit()
            committed.add(tag)
        journal._do_fsync = real_fsync
        yield db_path + ".wal", committed, durable_lengths
        c.close()

    def _survivor(self, tmp_path, wal_path, name, size=None):
        """A copy of the WAL (cut to *size* bytes) as a new store's log:
        what a crash leaves behind."""
        path = str(tmp_path / name)
        shutil.copyfile(wal_path, path + ".wal")
        if size is not None:
            with open(path + ".wal", "r+b") as fh:
                fh.truncate(size)
        return path

    def test_replay_reconstructs_exactly_the_committed_prefix(self, tmp_path, workload):
        wal_path, committed, durable_lengths = workload
        assert durable_lengths, "no commit was fsynced"
        # Crash between two commits: the surviving log is the file as of
        # some recorded fsync, mid-run.
        cut = durable_lengths[len(durable_lengths) // 2]
        path = self._survivor(tmp_path, wal_path, "survivor.db", cut)
        expected = _committed_batches_in_wal(path + ".wal")
        visible = _batches_visible(path)
        assert set(visible) == expected  # exactly the durable prefix
        assert expected < committed
        assert all(count == self.BATCH for count in visible.values())

    def test_full_wal_replays_every_commit(self, tmp_path, workload):
        wal_path, committed, durable_lengths = workload
        path = self._survivor(tmp_path, wal_path, "copy.db")
        visible = _batches_visible(path)
        assert set(visible) == committed
        assert all(count == self.BATCH for count in visible.values())
        # Every commit returns only once its own fsync covered it.
        assert len(durable_lengths) == len(committed)
        assert durable_lengths == sorted(set(durable_lengths))

    def test_torn_tail_is_ignored(self, tmp_path, workload):
        wal_path, committed, _durable = workload
        size = os.path.getsize(wal_path)
        path = self._survivor(tmp_path, wal_path, "tail.db", size - 7)  # rip the last record
        expected = _committed_batches_in_wal(path + ".wal")
        visible = _batches_visible(path)
        assert set(visible) == expected == committed - {self.COMMITS - 1}
        assert all(count == self.BATCH for count in visible.values())
