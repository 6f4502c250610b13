"""minidb — an embedded relational database engine written in pure Python.

PerfTrack (SC'05) stored its data in Oracle or PostgreSQL behind Python's
DB-API 2.0.  minidb plays that role here: a from-scratch SQL engine with a
DB-API 2.0 front end, so the PerfTrack layers above it (`repro.core`,
`repro.ptdf`, ...) are written exactly as they would be against a real
server, and a second backend (stdlib sqlite3) can be swapped in unchanged.

Feature set (see `repro/minidb/parser.py` for the grammar):

* ``CREATE TABLE`` with column types, ``PRIMARY KEY`` (incl. composite),
  ``NOT NULL``, ``UNIQUE``, ``DEFAULT``, ``REFERENCES`` (enforced),
  auto-assigned integer primary keys.
* ``CREATE [UNIQUE] INDEX`` — hash + ordered access paths.
* ``INSERT`` (multi-row), ``UPDATE``, ``DELETE``.
* ``SELECT`` with joins (``INNER``/``LEFT``), ``WHERE``, ``GROUP BY`` /
  ``HAVING``, aggregates, ``DISTINCT``, ``ORDER BY``, ``LIMIT``/``OFFSET``,
  ``UNION [ALL]``, ``IN``/``EXISTS``/scalar subqueries.
* Transactions with rollback, plus write-ahead-log persistence.
* One session per file-backed database: a connection holds an exclusive
  ``flock`` on ``<path>.lock`` from open to close; a second opener waits
  up to ``connection.LOCK_TIMEOUT_S`` (5 s), then raises
  ``OperationalError("database is locked")``.

Entry point::

    import repro.minidb as minidb
    conn = minidb.connect(":memory:")
    cur = conn.cursor()
    cur.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, name TEXT)")
    cur.execute("INSERT INTO t (name) VALUES (?)", ("frost",))
    cur.execute("SELECT id, name FROM t WHERE name = ?", ("frost",))
    print(cur.fetchall())
"""

from .analyzer import Analysis, Diagnostic, analyze
from .connection import Connection, Cursor, connect
from .errors import (
    DatabaseError,
    DataError,
    Error,
    IntegrityError,
    InterfaceError,
    InternalError,
    NotSupportedError,
    OperationalError,
    ProgrammingError,
    SemanticError,
    SessionError,
    SqlSyntaxError,
    Warning,
)

#: DB-API 2.0 module globals.
apilevel = "2.0"
threadsafety = 1
paramstyle = "qmark"

__all__ = [
    "connect",
    "Connection",
    "Cursor",
    "SessionError",
    "Error",
    "Warning",
    "InterfaceError",
    "DatabaseError",
    "DataError",
    "OperationalError",
    "IntegrityError",
    "InternalError",
    "ProgrammingError",
    "NotSupportedError",
    "SemanticError",
    "SqlSyntaxError",
    "Analysis",
    "Diagnostic",
    "analyze",
    "apilevel",
    "threadsafety",
    "paramstyle",
]
