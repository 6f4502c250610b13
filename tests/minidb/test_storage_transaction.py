"""The implicit transaction of a minidb ``Database``.

Storage owns the one transaction: its row mutators join it (opening it
when none is open), its DDL mutators leave it alone, ``Database.undo``
unwinds it without ending it, and ``Database.insert_statements`` keeps
a multi-statement INSERT atomic.  These tests drive ``Database``
directly and read the outcome through SQL and the write-ahead log, not
through the transaction's fields.
"""

import inspect
import json

import pytest

import repro.minidb as minidb
from repro.minidb.executor import Executor
from repro.minidb.parser import parse
from repro.minidb.storage import Database


@pytest.fixture
def conn():
    c = minidb.connect()
    c.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, v INTEGER UNIQUE)")
    yield c
    c.close()


def _rows(conn):
    return conn.execute("SELECT id, v FROM t ORDER BY id").fetchall()


def _statement(*values):
    """One statement's ``(columns, pending)`` batch for ``t``: a fresh
    row id per value."""
    return [[None] * len(values), list(values)], None


def test_no_mutator_takes_a_transaction():
    mutators = [
        Database.create_table, Database.drop_table, Database.create_index,
        Database.drop_index, Database.insert_rows, Database.insert_statements,
        Database.update_row, Database.delete_row, Database.undo, Executor.__init__,
    ]
    taking = [f.__qualname__ for f in mutators if "txn" in inspect.signature(f).parameters]
    assert taking == []


def test_row_mutators_join_one_transaction(conn):
    db, t = conn.db, conn.db.table("t")
    assert not db.in_transaction
    db.insert_rows(t, [[None, None], [10, 20]])
    assert db.in_transaction
    txn = db.begin()
    db.update_row(t, 1, (1, 11))
    db.delete_row(t, 2)
    assert db.begin() is txn
    assert _rows(conn) == [(1, 11)]
    # One rollback unwinds all three: they ran in the same transaction.
    conn.rollback()
    assert not db.in_transaction
    assert _rows(conn) == []


def test_ddl_mutators_open_no_transaction(conn):
    db = conn.db
    db.create_table(parse("CREATE TABLE u (a INTEGER)"))
    db.create_index(parse("CREATE INDEX u_a ON u (a)"))
    db.drop_index("u_a")
    db.drop_table("u")
    assert not db.in_transaction
    assert not db.catalog.has_table("u")


def test_undo_keeps_the_transaction_open(conn):
    db, t = conn.db, conn.db.table("t")
    db.insert_rows(t, [[None], [1]])
    db.undo()
    assert db.in_transaction
    assert _rows(conn) == []
    db.insert_rows(t, [[None], [2]])
    conn.commit()
    conn.rollback()
    assert [v for _id, v in _rows(conn)] == [2]


def test_insert_statements_counts_rows_and_returns_the_last_lastrowid(conn):
    db, t = conn.db, conn.db.table("t")
    count, lastrowid = db.insert_statements(t, [_statement(1, 2), _statement(3)])
    assert (count, lastrowid) == (3, 3)
    assert _rows(conn) == [(1, 1), (2, 2), (3, 3)]


def test_insert_statements_with_no_statements(conn):
    db, t = conn.db, conn.db.table("t")
    assert db.insert_statements(t, iter(())) == (0, None)
    assert _rows(conn) == []


def test_insert_statements_builds_each_statement_after_the_one_before(conn):
    db, t = conn.db, conn.db.table("t")
    seen = []

    def statements():
        for v in (5, 6, 7):
            seen.append(len(t.rows))
            yield _statement(v)

    db.insert_statements(t, statements())
    assert seen == [0, 1, 2]


def test_insert_statements_failure_unwinds_the_call_only(conn):
    db, t = conn.db, conn.db.table("t")
    db.insert_rows(t, [[None], [1]])
    with pytest.raises(minidb.IntegrityError):
        db.insert_statements(t, [_statement(2, 3), _statement(4, 1)])
    # The call's first statement is gone; the work before the call is
    # still in the open transaction.
    assert db.in_transaction
    assert _rows(conn) == [(1, 1)]
    conn.rollback()
    assert _rows(conn) == []


def test_insert_statements_error_while_building_unwinds_the_call(conn):
    db, t = conn.db, conn.db.table("t")

    def statements():
        yield _statement(1)
        raise ValueError("builder failed")

    with pytest.raises(ValueError, match="builder failed"):
        db.insert_statements(t, statements())
    assert _rows(conn) == []


def test_insert_statements_logs_one_insert_batch(tmp_path):
    path = str(tmp_path / "s.json")
    conn = minidb.connect(path)
    conn.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, v INTEGER UNIQUE)")
    db, t = conn.db, conn.db.table("t")
    db.insert_statements(t, [_statement(1, 2), _statement(3)])
    with pytest.raises(minidb.IntegrityError):
        db.insert_statements(t, [_statement(4), _statement(1)])
    conn.commit()
    with open(path + ".wal", encoding="utf-8") as fh:
        records = [json.loads(line) for line in fh]
    batches = [r for r in records if r["op"] == "insert_batch"]
    assert [[row for _rowid, row in r["rows"]] for r in batches] == [[[1, 1], [2, 2], [3, 3]]]
    conn.close()
    reopened = minidb.connect(path)
    assert _rows(reopened) == [(1, 1), (2, 2), (3, 3)]
    reopened.close()
