"""Concrete database backends for the PerfTrack data store.

A :class:`Backend` owns a DB-API connection and smooths over the dialect
differences the upper layers would otherwise see:

* parameter style (minidb and sqlite3 both take ``?``; a pyformat driver
  would override :meth:`Backend.sql`),
* error classes (normalised to minidb's PEP 249 hierarchy), and
* last-inserted-id retrieval.

PerfTrack's script interface did exactly this for cx_Oracle vs pyGreSQL.
"""

from __future__ import annotations

import os
import sqlite3
from typing import Any, Iterable, Optional, Sequence

from .. import minidb
from ..minidb.errors import DatabaseError, IntegrityError, OperationalError, ProgrammingError


class Backend:
    """Dialect-neutral facade over one DB-API connection."""

    name = "abstract"
    paramstyle = "qmark"

    def __init__(self, connection) -> None:
        self.connection = connection

    # -- dialect hooks -----------------------------------------------------------

    def sql(self, text: str) -> str:
        """Translate canonical (qmark) SQL into the backend dialect."""
        return text

    def translate_error(self, exc: Exception) -> Exception:
        return exc

    # -- statement execution -------------------------------------------------------

    def execute(self, sql: str, params: Sequence[Any] = ()) -> Any:
        cur = self.connection.cursor()
        try:
            cur.execute(self.sql(sql), tuple(params))
        except Exception as exc:  # noqa: BLE001 - normalised below
            cur.close()
            raise self.translate_error(exc) from exc
        return cur

    def executemany(self, sql: str, seq: Iterable[Sequence[Any]]) -> Any:
        cur = self.connection.cursor()
        try:
            cur.executemany(self.sql(sql), [tuple(p) for p in seq])
        except Exception as exc:  # noqa: BLE001
            raise self.translate_error(exc) from exc
        return cur

    def query(self, sql: str, params: Sequence[Any] = ()) -> list[tuple]:
        """Every row of a query, read in one ``fetchall``.

        One call drains the cursor without a Python frame per row, and
        the cursor is closed before the rows are returned.
        """
        cur = self.execute(sql, params)
        try:
            return cur.fetchall()
        finally:
            cur.close()

    def query_one(self, sql: str, params: Sequence[Any] = ()) -> Optional[tuple]:
        # fetchone, not fetchall: a streaming cursor stops after one row.
        cur = self.execute(sql, params)
        try:
            return cur.fetchone()
        finally:
            cur.close()

    def scalar(self, sql: str, params: Sequence[Any] = ()) -> Any:
        row = self.query_one(sql, params)
        return None if row is None else row[0]

    def insert(self, sql: str, params: Sequence[Any] = ()) -> int:
        """Execute an INSERT and return the assigned integer key."""
        cur = self.execute(sql, params)
        rid = getattr(cur, "lastrowid", None)
        if rid is None:
            raise OperationalError("backend did not report lastrowid")
        return rid

    # -- transactions ----------------------------------------------------------------

    def begin_write(self) -> bool:
        """Hold the store's write lock for the transaction about to write.

        True when what the caller read from the store before this call
        may be stale: another connection committed since the backend
        last looked.  False when nothing can have changed — the
        connection excludes every other writer (a minidb connection
        holds its store's lock from open to close), or no other
        connection committed.
        """
        return False

    def commit(self) -> None:
        self.connection.commit()

    def rollback(self) -> None:
        self.connection.rollback()

    def close(self) -> None:
        self.connection.close()

    # -- schema helpers ----------------------------------------------------------------

    def has_table(self, name: str) -> bool:
        raise NotImplementedError

    def max_value(self, table: str, column: str) -> Any:
        """Largest non-NULL value of one column (bulk-load id seeding)."""
        return self.scalar(  # noqa: PTL001 — internal schema identifiers
            f"SELECT MAX({column}) FROM {table}"
        )


class MinidbBackend(Backend):
    """Backend over :mod:`repro.minidb` (errors already normalised)."""

    name = "minidb"

    def __init__(self, database: str = ":memory:") -> None:
        super().__init__(minidb.connect(database))
        self.database = database

    def has_table(self, name: str) -> bool:
        return self.connection.db.catalog.has_table(name)

    def max_value(self, table: str, column: str) -> Any:
        # O(1) off a single-column index covering the column (the id
        # primary keys always have one); falls back to the aggregate scan.
        db = self.connection.db
        meta = db.catalog.table(table)
        col = column.lower()
        for idx in db.indexes_on(meta.name):
            if [c.lower() for c in idx.columns] == [col]:
                key = idx.max_key()
                return None if key is None else key[0]
        return super().max_value(table, column)

    def db_size_bytes(self) -> int:
        """Rough in-memory footprint: total stored cell count (see Table 1)."""
        db = self.connection.db
        total = 0
        for name in db.tables:
            for row in db.table(name).rows.values():
                total += sum(len(str(v)) + 9 for v in row)
        return total


class SqliteBackend(Backend):
    """Backend over the standard library's sqlite3."""

    name = "sqlite"

    def __init__(self, database: str = ":memory:") -> None:
        try:
            conn = sqlite3.connect(database)
            conn.execute("PRAGMA foreign_keys = ON")
            #: ``PRAGMA data_version`` when this connection last looked;
            #: it moves only when another connection commits
            self._data_version = conn.execute("PRAGMA data_version").fetchone()[0]
        except sqlite3.Error as exc:
            raise self.translate_error(exc) from exc
        super().__init__(conn)
        self.database = database

    def translate_error(self, exc: Exception) -> Exception:
        if isinstance(exc, sqlite3.IntegrityError):
            return IntegrityError(str(exc))
        if isinstance(exc, sqlite3.OperationalError):
            msg = str(exc)
            if "syntax" in msg or "no such" in msg:
                return ProgrammingError(msg)
            return OperationalError(msg)
        if isinstance(exc, sqlite3.ProgrammingError):
            return ProgrammingError(str(exc))
        if isinstance(exc, sqlite3.DatabaseError):
            return DatabaseError(str(exc))
        return exc

    def begin_write(self) -> bool:
        """``BEGIN IMMEDIATE``: take sqlite3's write lock now, waiting up
        to the connection's busy timeout, instead of at the first INSERT
        — so ids and names read after it cannot go stale.  The caller's
        earlier reads are stale when ``PRAGMA data_version`` moved since
        the last look (an already open transaction already holds the
        lock, or will take it at its next write)."""
        conn = self.connection
        if conn.in_transaction:
            return False
        try:
            conn.execute("BEGIN IMMEDIATE")
            version = conn.execute("PRAGMA data_version").fetchone()[0]
        except sqlite3.Error as exc:
            raise self.translate_error(exc) from exc
        stale = version != self._data_version
        self._data_version = version
        return stale

    def has_table(self, name: str) -> bool:
        row = self.query_one(
            "SELECT name FROM sqlite_master WHERE type = 'table' AND lower(name) = ?",
            (name.lower(),),
        )
        return row is not None

    def db_size_bytes(self) -> int:
        page_count = self.scalar("PRAGMA page_count")
        page_size = self.scalar("PRAGMA page_size")
        return int(page_count or 0) * int(page_size or 0)


_BACKENDS = {
    "minidb": MinidbBackend,
    "sqlite": SqliteBackend,
    "sqlite3": SqliteBackend,
}


def open_backend(kind: str = "minidb", database: str = ":memory:") -> Backend:
    """Open a backend by name (``"minidb"`` or ``"sqlite"``)."""
    try:
        cls = _BACKENDS[kind.lower()]
    except KeyError:
        raise ProgrammingError(
            f"unknown backend {kind!r}; expected one of {sorted(set(_BACKENDS))}"
        ) from None
    if os.path.isfile(os.path.join(database, "shards.json")):
        # The partitioned layout older releases wrote: a directory of one
        # catalog database plus N fact databases, described by shards.json.
        raise DatabaseError(
            f"{database}: sharded store directory written by "
            "`ptrack load --shards`, no longer supported; reload its PTdf "
            "files into one store"
        )
    return cls(database)
