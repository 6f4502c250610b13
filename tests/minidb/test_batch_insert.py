"""``executemany`` INSERT ≡ a loop of single-row ``execute`` calls.

minidb checks, indexes and logs an ``executemany`` batch once per batch
(``Database.insert_rows``).  These tests pin that the batch behaves
exactly like inserting its rows one by one: on success the same rows,
row ids, counters, ``lastrowid``, ``rowcount`` and index contents; on
failure the error the row-by-row loop meets first (same type and text)
and no trace of the batch in the table, its indexes or its counters.
"""

import json
import sqlite3

import pytest
from hypothesis import given, settings, strategies as st

import repro.minidb as minidb
from repro.minidb.errors import ProgrammingError, SemanticError

SCHEMA = [
    "CREATE TABLE p (id INTEGER PRIMARY KEY, name TEXT UNIQUE)",
    "CREATE TABLE t (id INTEGER PRIMARY KEY, pid INTEGER REFERENCES p(id), "
    "sid INTEGER REFERENCES t(id), u TEXT UNIQUE, n INTEGER NOT NULL, x REAL, "
    "UNIQUE (u, n))",
    "CREATE INDEX t_x ON t (x)",
]
SEED = [
    ("INSERT INTO p VALUES (?, ?)", [(1, "p1"), (2, "p2"), (3, "p3")]),
    ("INSERT INTO t VALUES (?, ?, ?, ?, ?, ?)",
     [(1, 1, None, "a", 10, 1.0), (5, 2, 1, "m", 11, 2.5)]),
]
INSERT = "INSERT INTO t (id, pid, sid, u, n, x) VALUES (?, ?, ?, ?, ?, ?)"


def _connect():
    conn = minidb.connect()
    for ddl in SCHEMA:
        conn.execute(ddl)
    for sql, rows in SEED:
        conn.executemany(sql, rows)
    conn.commit()
    return conn


def _state(conn, cached_order=True):
    """Everything a batch may touch: rows, counters and every index.

    ``cached_order`` compares each index's sorted-key cache as it is;
    otherwise the key order it answers with (a rollback drops the cache
    and rebuilds it on the next ordered read).
    """
    table = conn.db.table("t")

    def order(idx):
        if cached_order:
            return idx._sorted_valid and list(idx._sorted)
        return list(idx.distinct_keys())

    # repr() tells stored types apart where == does not (1 == 1.0).
    return {
        "rows": repr(table.rows),
        "counters": (table.next_rowid, table.next_auto),
        "indexes": {
            idx.name: repr((idx._map, order(idx))) for idx in conn.db.indexes_on("t")
        },
    }


def _row_by_row(rows):
    """Insert *rows* one ``execute`` at a time; stop at the first error."""
    conn = _connect()
    cur = conn.cursor()
    lastrowid, count = None, 0
    for row in rows:
        try:
            cur.execute(INSERT, row)
        except minidb.Error as exc:
            return conn, exc, None, None
        lastrowid = cur.lastrowid
        count += cur.rowcount
    return conn, None, lastrowid, count


def _same_error(got, want):
    assert str(got) == str(want)
    if isinstance(want, SemanticError) and "parameters" in str(want):
        # A single-row execute counts its parameters in the analyzer
        # (SemanticError SQL010); the batch builder raises the plain
        # ProgrammingError with the same text.
        assert type(got) is ProgrammingError
    else:
        assert type(got) is type(want)


def _check_batch(rows):
    ref, want, lastrowid, count = _row_by_row(rows)
    conn = _connect()
    before = _state(conn)
    cur = conn.cursor()
    try:
        cur.executemany(INSERT, rows)
    except minidb.Error as got:
        assert want is not None, f"batch failed, rows one by one did not: {got!r}"
        _same_error(got, want)
        assert _state(conn) == before
        return want
    assert want is None, f"rows one by one failed, the batch did not: {want!r}"
    assert cur.rowcount == count == len(rows)
    if rows:
        assert cur.lastrowid == lastrowid
    assert _state(conn) == _state(ref)
    return None


_ids = st.one_of(st.none(), st.integers(0, 12))
_values = st.tuples(
    _ids,                                                      # id: PK clashes
    st.sampled_from([None, 1, 2, 3, 99, "2"]),                 # pid: FK to p
    st.one_of(st.none(), st.integers(0, 14)),                  # sid: self FK
    st.sampled_from([None, "a", "b", "c", "m", "z", 7]),       # u: UNIQUE
    st.sampled_from([None, 10, 11, 12, "13", "bad", 2.0]),     # n: NOT NULL
    st.sampled_from([None, 0.5, 1, "1.5", "zz", -3.25]),       # x: REAL
)
_rows = st.one_of(
    _values,
    _values.map(lambda r: r[:5]),  # a short parameter row
)


class TestBatchMatchesRowByRow:
    @settings(max_examples=300, deadline=None)
    @given(rows=st.lists(_rows, max_size=40))
    def test_executemany_matches_execute_loop(self, rows):
        _check_batch(rows)

    @settings(max_examples=100, deadline=None)
    @given(
        rows=st.lists(
            st.tuples(_ids, st.sampled_from([None, 1, 2]), st.none(),
                      st.text("abcdef", max_size=3).map(lambda s: s or None),
                      st.integers(0, 3), st.floats(-5, 5)),
            max_size=40,
        )
    )
    def test_mostly_valid_batches_match(self, rows):
        # Fewer violations per row: most batches succeed, which exercises
        # the bulk index insert and the sorted-key merge.
        _check_batch(rows)


class TestBatchCases:
    def test_self_fk_to_a_later_row_fails(self):
        rows = [(20, 1, 21, "q", 1, 0.0), (21, 1, None, "r", 1, 0.0)]
        err = _check_batch(rows)
        assert isinstance(err, minidb.IntegrityError)
        assert "FOREIGN KEY" in str(err)

    def test_self_fk_to_an_earlier_row_passes(self):
        rows = [(20, 1, None, "q", 1, 0.0), (21, 1, 20, "r", 1, 0.0)]
        assert _check_batch(rows) is None

    def test_self_fk_to_its_own_row_passes_like_row_by_row(self):
        # sqlite3 checks the key when the row's statement ends, by which
        # time the row itself is in the table.
        assert _check_batch([(20, 1, 20, "q", 1, 0.0)]) is None

    def test_in_batch_unique_duplicate(self):
        rows = [(20, 1, None, "q", 1, 0.0), (21, 1, None, "q", 2, 0.0)]
        err = _check_batch(rows)
        assert "UNIQUE" in str(err) and "__t_uq1" in str(err)

    def test_nulls_in_a_unique_key_are_allowed(self):
        rows = [(None, 1, None, None, 1, 0.0), (None, 2, None, None, 1, 0.0),
                (None, None, None, None, 1, None)]
        assert _check_batch(rows) is None

    def test_data_error_after_integrity_error(self):
        rows = [(20, 99, None, "q", 1, 0.0), (21, 1, None, "r", "bad", 0.0)]
        err = _check_batch(rows)
        assert type(err) is minidb.IntegrityError

    def test_integrity_error_after_data_error(self):
        rows = [(20, 1, None, "q", 1, "zz"), (21, 99, None, "r", 1, 0.0)]
        err = _check_batch(rows)
        assert type(err) is minidb.DataError

    def test_row_failing_two_checks_reports_the_first_kind(self):
        # NOT NULL comes before FOREIGN KEY and UNIQUE within a row.
        err = _check_batch([(1, 99, None, "a", None, 0.0)])
        assert "NOT NULL" in str(err)

    def test_short_parameter_row(self):
        rows = [(20, 1, None, "q", 1, 0.0), (21, 1, None, "r", 1)]
        err = _check_batch(rows)
        assert "requires at least 6 parameters, 5 supplied" in str(err)

    def test_fk_to_an_unindexed_parent_column(self):
        conn = minidb.connect()
        conn.execute("CREATE TABLE g (id INTEGER PRIMARY KEY, tag TEXT)")
        conn.execute("CREATE TABLE h (id INTEGER PRIMARY KEY, tag TEXT REFERENCES g(tag))")
        conn.executemany("INSERT INTO g (tag) VALUES (?)", [("a",), ("b",)])
        conn.executemany("INSERT INTO h (tag) VALUES (?)", [("a",), (None,), ("b",)])
        with pytest.raises(minidb.IntegrityError, match=r"FOREIGN KEY .* h\(tag\) -> g"):
            conn.executemany("INSERT INTO h (tag) VALUES (?)", [("a",), ("zz",)])
        assert conn.execute("SELECT * FROM h").fetchall() == [(1, "a"), (2, None), (3, "b")]

    def test_empty_batch(self):
        assert _check_batch([]) is None

    def test_failed_batch_keeps_earlier_uncommitted_work(self):
        conn = _connect()
        conn.execute(INSERT, (30, 1, None, "w", 1, 0.0))
        kept = _state(conn)
        with pytest.raises(minidb.IntegrityError):
            conn.executemany(INSERT, [(31, 1, None, "v", 1, 0.0), (30, 1, None, "y", 1, 0.0)])
        assert _state(conn) == kept
        conn.rollback()
        assert 30 not in conn.db.table("t").rows

    def test_rollback_unwinds_two_batches(self):
        conn = _connect()
        before = _state(conn, cached_order=False)
        conn.executemany(INSERT, [(None, 1, None, f"k{i}", i, i / 2) for i in range(50)])
        conn.executemany(INSERT, [(None, 2, 1, f"j{i}", i, None) for i in range(50)])
        assert len(conn.db.table("t").rows) == 102
        conn.rollback()
        assert _state(conn, cached_order=False) == before


class TestSubqueryTemplate:
    """A template whose subquery reads the target table sees the rows
    this ``executemany`` inserted before it, as in sqlite3."""

    COUNTING = "INSERT INTO s (v, seq) VALUES (?, (SELECT COUNT(*) FROM s))"

    @staticmethod
    def _pair():
        m, q = minidb.connect(), sqlite3.connect(":memory:")
        for conn in (m, q):
            conn.execute("CREATE TABLE s (v INTEGER, seq INTEGER UNIQUE)")
            conn.execute("INSERT INTO s VALUES (0, 0)")
        return m, q

    def test_each_row_sees_the_rows_before_it(self):
        m, q = self._pair()
        for conn in (m, q):
            cur = conn.cursor()
            cur.executemany(self.COUNTING, [(1,), (2,), (3,)])
            assert cur.rowcount == 3
        want = [(0, 0), (1, 1), (2, 2), (3, 3)]
        assert m.execute("SELECT * FROM s ORDER BY v").fetchall() == want
        assert q.execute("SELECT * FROM s ORDER BY v").fetchall() == want

    def test_a_failing_row_unwinds_the_call(self):
        m, _q = self._pair()
        m.executemany("INSERT INTO s (v, seq) VALUES (?, ?)", [(2, 4)])
        # The first row counts 2 rows and takes seq 3; the second counts
        # 3 and clashes with seq 4.
        with pytest.raises(minidb.IntegrityError, match=r"key \(4,\)"):
            m.executemany(
                "INSERT INTO s (v, seq) VALUES (?, 1 + (SELECT COUNT(*) FROM s))",
                [(5,), (6,)],
            )
        assert m.execute("SELECT * FROM s ORDER BY v").fetchall() == [(0, 0), (2, 4)]

    def test_one_wal_record_per_call(self, tmp_path):
        path = str(tmp_path / "s.json")
        conn = minidb.connect(path)
        conn.execute("CREATE TABLE s (v INTEGER, seq INTEGER UNIQUE)")
        conn.executemany(self.COUNTING, [(1,), (2,), (3,)])
        conn.commit()
        with open(path + ".wal", encoding="utf-8") as fh:
            records = [json.loads(line) for line in fh]
        batches = [r for r in records if r["op"] == "insert_batch"]
        assert [[row for _rowid, row in r["rows"]] for r in batches] == [
            [[1, 0], [2, 1], [3, 2]]
        ]
        conn.close()
        reopened = minidb.connect(path)
        assert reopened.execute("SELECT * FROM s").fetchall() == [(1, 0), (2, 1), (3, 2)]
        reopened.close()
