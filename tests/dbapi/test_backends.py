"""Backend abstraction tests: dialect smoothing and error normalisation."""

import pytest

from repro.dbapi import MinidbBackend, SqliteBackend, open_backend
from repro.minidb.errors import (
    DatabaseError,
    IntegrityError,
    OperationalError,
    ProgrammingError,
)


class TestOpenBackend:
    def test_minidb_default(self):
        b = open_backend()
        assert isinstance(b, MinidbBackend)
        assert b.name == "minidb"
        b.close()

    @pytest.mark.parametrize("alias", ["sqlite", "sqlite3", "SQLITE"])
    def test_sqlite_aliases(self, alias):
        b = open_backend(alias)
        assert isinstance(b, SqliteBackend)
        b.close()

    def test_unknown_backend(self):
        with pytest.raises(ProgrammingError):
            open_backend("oracle")


class TestExecutionHelpers:
    @pytest.fixture(autouse=True)
    def _table(self, backend):
        backend.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, v TEXT)")
        backend.executemany(
            "INSERT INTO t (v) VALUES (?)", [("a",), ("b",), ("c",)]
        )

    def test_query(self, backend):
        rows = backend.query("SELECT v FROM t ORDER BY id")
        assert rows == [("a",), ("b",), ("c",)]

    def test_query_one(self, backend):
        assert backend.query_one("SELECT v FROM t WHERE id = ?", (2,)) == ("b",)
        assert backend.query_one("SELECT v FROM t WHERE id = 99") is None

    def test_scalar(self, backend):
        assert backend.scalar("SELECT COUNT(*) FROM t") == 3
        assert backend.scalar("SELECT v FROM t WHERE id = 99") is None

    def test_insert_returns_key(self, backend):
        rid = backend.insert("INSERT INTO t (v) VALUES (?)", ("d",))
        assert rid == 4

    def test_has_table(self, backend):
        assert backend.has_table("t")
        assert backend.has_table("T")  # case-insensitive
        assert not backend.has_table("nope")

    def test_rollback(self, backend):
        backend.commit()
        backend.execute("INSERT INTO t (v) VALUES ('x')")
        backend.rollback()
        assert backend.scalar("SELECT COUNT(*) FROM t") == 3

    def test_db_size_bytes_positive(self, backend):
        backend.commit()
        assert backend.db_size_bytes() > 0


class TestErrorNormalisation:
    """Both backends raise the same PEP-249 classes for the same faults."""

    @pytest.fixture(autouse=True)
    def _table(self, backend):
        backend.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, v TEXT UNIQUE)")
        backend.execute("INSERT INTO t (v) VALUES ('a')")

    def test_unique_violation(self, backend):
        with pytest.raises(IntegrityError):
            backend.execute("INSERT INTO t (v) VALUES ('a')")

    def test_missing_table(self, backend):
        with pytest.raises((ProgrammingError, OperationalError)):
            backend.execute("SELECT * FROM no_such_table")

    def test_syntax_error(self, backend):
        with pytest.raises((ProgrammingError, OperationalError)):
            backend.execute("SELEKT broken")

    def test_all_errors_are_database_errors(self, backend):
        for sql in ("INSERT INTO t (v) VALUES ('a')", "SELECT * FROM nope", "SELEKT"):
            with pytest.raises(DatabaseError):
                backend.execute(sql)


class TestStream:
    """An engine cursor streams its rows lazily when it is iterated."""

    @pytest.fixture(autouse=True)
    def _table(self, backend):
        backend.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, v TEXT)")
        backend.executemany(
            "INSERT INTO t (v) VALUES (?)", [(f"v{i}",) for i in range(20)]
        )

    def test_streams_every_row_in_order(self, backend, monkeypatch):
        from repro.minidb import vector

        monkeypatch.setattr(vector, "BATCH_SIZE", 3)
        sql = "SELECT id, v FROM t WHERE id IN (2, 3, 5, 7, 11, 13, 17, 19)"
        assert list(backend.execute(sql)) == backend.query(sql)
        assert list(backend.execute("SELECT v FROM t ORDER BY id")) == [
            (f"v{i}",) for i in range(20)
        ]

    def test_abandoned_stream_stays_lazy(self, backend):
        cur = backend.execute("SELECT id FROM t ORDER BY id")
        rows = iter(cur)
        assert next(rows) == (1,)
        cur.close()
        assert backend.scalar("SELECT COUNT(*) FROM t") == 20


@pytest.mark.parametrize(
    "sql",
    [
        "SELECT id FROM t WHERE id IN (1, 2, 3, 4, 5, 6, 7, 8, 9, 10)",  # batched
        "SELECT id FROM t",  # row plan
    ],
    ids=["batched", "row"],
)
def test_commit_mid_stream_raises_ses003_on_next_row(monkeypatch, sql):
    from repro.dbapi.backends import Backend
    from repro.minidb import Engine, SessionError, vector

    monkeypatch.setattr(vector, "BATCH_SIZE", 4)
    eng = Engine(":memory:")
    session = eng.connect()
    try:
        session.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, v TEXT)")
        session.commit()
        backend = Backend(session)
        backend.executemany("INSERT INTO t (v) VALUES (?)", [("x",)] * 10)  # opens a txn
        rows = iter(backend.execute(sql))
        assert next(rows) == (1,)
        assert next(rows) == (2,)
        session.commit()
        with pytest.raises(SessionError) as exc_info:
            next(rows)
        assert exc_info.value.code == "SES003"
    finally:
        session.close()
        eng.close()


class _SpyCursor:
    """Wraps a DB-API cursor, recording ``close`` and optionally failing
    ``fetchall``."""

    def __init__(self, cursor, fail_fetch: bool) -> None:
        self._cursor = cursor
        self._fail_fetch = fail_fetch
        self.closed = False

    def execute(self, sql, params=()):
        return self._cursor.execute(sql, params)

    def fetchall(self):
        if self._fail_fetch:
            raise OperationalError("fetch failed")
        return self._cursor.fetchall()

    def close(self):
        self.closed = True
        self._cursor.close()


class _SpyConnection:
    def __init__(self, connection, fail_fetch: bool = False) -> None:
        self._connection = connection
        self._fail_fetch = fail_fetch
        self.cursors: list[_SpyCursor] = []

    def cursor(self):
        cur = _SpyCursor(self._connection.cursor(), self._fail_fetch)
        self.cursors.append(cur)
        return cur


class TestQueryClosesCursor:
    """Backend.query reads the whole result and closes its cursor, whether
    it returns or raises."""

    @pytest.fixture(autouse=True)
    def _table(self, backend):
        backend.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, v TEXT)")
        backend.executemany("INSERT INTO t (v) VALUES (?)", [("a",), ("b",)])

    def _spy(self, backend, monkeypatch, fail_fetch=False) -> _SpyConnection:
        spy = _SpyConnection(backend.connection, fail_fetch)
        monkeypatch.setattr(backend, "connection", spy)
        return spy

    def test_closed_after_return(self, backend, monkeypatch):
        spy = self._spy(backend, monkeypatch)
        assert backend.query("SELECT v FROM t ORDER BY id") == [("a",), ("b",)]
        assert [c.closed for c in spy.cursors] == [True]

    def test_closed_after_fetch_raises(self, backend, monkeypatch):
        spy = self._spy(backend, monkeypatch, fail_fetch=True)
        with pytest.raises(OperationalError, match="fetch failed"):
            backend.query("SELECT v FROM t")
        assert [c.closed for c in spy.cursors] == [True]

    def test_closed_after_execute_raises(self, backend, monkeypatch):
        spy = self._spy(backend, monkeypatch)
        with pytest.raises(DatabaseError):
            backend.query("SELECT v FROM no_such_table")
        assert [c.closed for c in spy.cursors] == [True]


def test_closed_cursor_iteration_raises_ses004(monkeypatch):
    import repro.minidb as minidb
    from repro.minidb import SessionError, vector

    monkeypatch.setattr(vector, "BATCH_SIZE", 4)
    conn = minidb.connect()
    conn.execute("CREATE TABLE t (id INTEGER PRIMARY KEY)")
    conn.executemany("INSERT INTO t VALUES (?)", [(i,) for i in range(1, 9)])
    cur = conn.cursor()
    cur.execute("SELECT id FROM t WHERE id IN (1, 2, 3, 4, 5, 6)")
    it = iter(cur)
    assert next(it) == (1,)
    cur.close()
    with pytest.raises(SessionError) as exc_info:
        next(it)
    assert exc_info.value.code == "SES004"
    conn.close()
