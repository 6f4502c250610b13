"""Transaction semantics: rollback, autocommit boundaries, DDL behaviour."""

import pytest

import repro.minidb as minidb


@pytest.fixture
def conn():
    c = minidb.connect()
    c.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, v INTEGER)")
    yield c
    c.close()


def count(conn):
    return conn.execute("SELECT COUNT(*) FROM t").fetchall()[0][0]


class TestRollback:
    def test_rollback_undoes_insert(self, conn):
        conn.execute("INSERT INTO t (v) VALUES (1)")
        conn.rollback()
        assert count(conn) == 0

    def test_rollback_undoes_update(self, conn):
        conn.execute("INSERT INTO t (v) VALUES (1)")
        conn.commit()
        conn.execute("UPDATE t SET v = 99")
        conn.rollback()
        assert conn.execute("SELECT v FROM t").fetchall() == [(1,)]

    def test_rollback_undoes_delete(self, conn):
        conn.execute("INSERT INTO t (v) VALUES (1), (2)")
        conn.commit()
        conn.execute("DELETE FROM t")
        conn.rollback()
        assert count(conn) == 2

    def test_rollback_restores_indexes(self, conn):
        conn.execute("INSERT INTO t (v) VALUES (7)")
        conn.commit()
        conn.execute("DELETE FROM t WHERE id = 1")
        conn.rollback()
        # PK index must find the restored row.
        assert conn.execute("SELECT v FROM t WHERE id = 1").fetchall() == [(7,)]

    def test_rollback_interleaved_operations(self, conn):
        conn.execute("INSERT INTO t (v) VALUES (1)")
        conn.commit()
        conn.execute("INSERT INTO t (v) VALUES (2)")
        conn.execute("UPDATE t SET v = v * 10 WHERE v = 1")
        conn.execute("DELETE FROM t WHERE v = 2")
        conn.rollback()
        assert conn.execute("SELECT v FROM t ORDER BY v").fetchall() == [(1,)]

    @pytest.mark.parametrize("statements", [
        ["DELETE FROM t WHERE id IN (1, 2, 3)"],
        ["DELETE FROM t WHERE id = 4", "DELETE FROM t WHERE id IN (2, 5)",
         "UPDATE t SET v = -v WHERE id = 1", "INSERT INTO t (v) VALUES (60)"],
    ])
    def test_rollback_of_deletes_scans_in_rowid_order_as_sqlite3_does(self, conn, statements):
        import sqlite3

        oracle = sqlite3.connect(":memory:")
        oracle.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, v INTEGER)")
        answers = []
        for db in (conn, oracle):
            db.executemany("INSERT INTO t (v) VALUES (?)", [(v,) for v in (10, 20, 30, 40, 50)])
            db.commit()
            for sql in statements:
                db.execute(sql)
            db.rollback()
            answers.append(db.execute("SELECT id, v FROM t").fetchall())
        oracle.close()
        assert answers[0] == answers[1] == [(1, 10), (2, 20), (3, 30), (4, 40), (5, 50)]

    def test_failed_delete_keeps_rowid_order(self):
        c = minidb.connect()
        c.execute("CREATE TABLE p (id INTEGER PRIMARY KEY)")
        c.execute("CREATE TABLE ch (pid INTEGER REFERENCES p(id))")
        c.execute("INSERT INTO p VALUES (1), (2), (3)")
        c.execute("INSERT INTO ch VALUES (2)")
        with pytest.raises(minidb.IntegrityError):
            c.execute("DELETE FROM p WHERE id = 2")
        assert c.execute("SELECT id FROM p").fetchall() == [(1,), (2,), (3,)]
        c.close()

    def test_commit_makes_changes_durable_against_rollback(self, conn):
        conn.execute("INSERT INTO t (v) VALUES (1)")
        conn.commit()
        conn.rollback()  # nothing pending
        assert count(conn) == 1

    def test_explicit_begin_commit(self, conn):
        conn.execute("BEGIN")
        conn.execute("INSERT INTO t (v) VALUES (5)")
        conn.execute("COMMIT")
        conn.rollback()
        assert count(conn) == 1

    def test_explicit_rollback_statement(self, conn):
        conn.execute("BEGIN")
        conn.execute("INSERT INTO t (v) VALUES (5)")
        conn.execute("ROLLBACK")
        assert count(conn) == 0


class TestAutoincrementAfterRollback:
    def test_pk_counter_restored(self, conn):
        conn.execute("INSERT INTO t (v) VALUES (1)")
        conn.commit()
        conn.execute("INSERT INTO t (v) VALUES (2)")
        conn.rollback()
        cur = conn.execute("INSERT INTO t (v) VALUES (3)")
        conn.commit()
        assert cur.lastrowid == 2


class TestContextManager:
    def test_exception_rolls_back(self):
        with pytest.raises(RuntimeError):
            with minidb.connect() as c:
                c.execute("CREATE TABLE x (a INTEGER)")
                c.execute("INSERT INTO x VALUES (1)")
                raise RuntimeError("boom")

    def test_clean_exit_commits(self, tmp_path):
        path = str(tmp_path / "db.json")
        with minidb.connect(path) as c:
            c.execute("CREATE TABLE x (a INTEGER)")
            c.execute("INSERT INTO x VALUES (1)")
        with minidb.connect(path) as c:
            assert c.execute("SELECT a FROM x").fetchall() == [(1,)]

    def test_closed_connection_rejects_use(self, conn):
        conn.close()
        with pytest.raises(minidb.InterfaceError):
            conn.execute("SELECT 1")
