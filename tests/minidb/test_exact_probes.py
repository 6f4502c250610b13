"""Exact index probes: an equality or IN probe enforces what it consumes.

An ``IndexEquality`` or ``InProbe`` access path answers the conjuncts it
consumes itself, so no FILTER and no ON check re-evaluates them.  That
is sound because:

- a NULL probe value matches no row, as SQL ``=`` and ``IN`` require;
- on minidb's value domain (None, bool, int, float, str, bytes) the
  index map's ``==`` and hashing agree with ``sort_key`` equality;
- a gather that streams across ``yield``s re-checks a row's key once a
  write on the same connection has moved the table's ``data_version``.

DISTINCT keys by raw values for the same reason as the second point.
The oracle for every query here is the same query with the index
dropped, where full scans and hash joins keep the WHERE and ON re-check,
and sqlite3 for the shapes that involve no affinity conversion.
"""

import sqlite3

import pytest
from hypothesis import given, settings, strategies as st

import repro.minidb as minidb
from repro.minidb import ast_nodes as ast
from repro.minidb import operators as ops
from repro.minidb import optimizer, vector
from repro.minidb.parser import parse
from repro.minidb.planner import IndexEquality, IndexRange, InProbe
from repro.minidb.sqltypes import sort_key
from repro.minidb.verifier import PlanVerificationError

#: Values whose ``==`` classes differ from their types: 1, 1.0 and True
#: are one SQL value, and so are -0.0 and 0; '1' and b'1' are not 1.
MIXED = [1, 1.0, True, "1", b"1", None, -0.0, 0, "a", 2]

SCHEMA = [
    "CREATE TABLE t (id INTEGER PRIMARY KEY, k, v)",
    "CREATE TABLE u (id INTEGER PRIMARY KEY, k, w)",
    "CREATE TABLE s (id INTEGER PRIMARY KEY, k TEXT)",
]
INDEXES = [
    "CREATE INDEX t_k ON t (k)",
    "CREATE INDEX t_kv ON t (k, v)",
    "CREATE INDEX u_k ON u (k)",
    "CREATE INDEX s_k ON s (k)",
]

# (sql, number of parameters drawn from the probe list)
QUERIES = [
    ("SELECT id, k FROM t WHERE k = ?", 1),
    ("SELECT id, k, v FROM t WHERE k = ? AND v = ?", 2),
    ("SELECT id FROM t WHERE k IN (?, ?, ?, ?)", 4),
    ("SELECT id, v FROM t WHERE k IN (?, ?) AND v = ?", 3),
    ("SELECT id FROM t WHERE k IN (?)", 1),
    ("SELECT id, k FROM s WHERE k IN (?, ?, ?)", 3),
    ("SELECT t.id, u.id FROM t JOIN u ON u.k = t.k", 0),
    ("SELECT t.id, u.id, u.k FROM t LEFT JOIN u ON u.k = t.k", 0),
    ("SELECT t.id, u.id FROM t LEFT JOIN u ON u.k = t.v AND u.w IN (?, ?)", 2),
    ("SELECT t.id, u.id FROM t JOIN u ON u.k IN (t.k, t.v)", 0),
    ("SELECT t.id, u.id FROM t JOIN u ON u.k = t.k WHERE t.k IN (?, ?)", 2),
    ("SELECT DISTINCT k FROM t WHERE k IN (?, ?, ?, ?)", 4),
    ("SELECT DISTINCT k, v FROM t", 0),
    ("SELECT DISTINCT k FROM t ORDER BY v", 0),
    ("SELECT DISTINCT u.k, t.v FROM t JOIN u ON u.k = t.k", 0),
]

# DISTINCT statements and their row-for-row non-DISTINCT twins.
DISTINCT_TWINS = [
    ("SELECT DISTINCT k FROM t WHERE k IN (?, ?, ?, ?)", "SELECT k FROM t WHERE k IN (?, ?, ?, ?)"),
    ("SELECT DISTINCT k, v FROM t", "SELECT k, v FROM t"),
    (
        "SELECT DISTINCT u.k, t.v FROM t JOIN u ON u.k = t.k",
        "SELECT u.k, t.v FROM t JOIN u ON u.k = t.k",
    ),
]


def _canon(rows):
    """Rows as an exactly comparable multiset: ``repr`` tells 1, 1.0,
    True and -0.0 apart."""
    return sorted(map(repr, rows))


def _first_seen_by_sort_key(rows):
    """DISTINCT as the sort_key-keyed reference: first row per key."""
    seen, out = set(), []
    for row in rows:
        key = tuple(sort_key(v) for v in row)
        if key not in seen:
            seen.add(key)
            out.append(row)
    return out


def _store(t_rows, u_rows):
    conn = minidb.connect()
    for ddl in SCHEMA + INDEXES:
        conn.execute(ddl)
    conn.executemany("INSERT INTO t (k, v) VALUES (?, ?)", t_rows)
    conn.executemany("INSERT INTO u (k, w) VALUES (?, ?)", u_rows)
    conn.executemany("INSERT INTO s (k) VALUES (?)", [(k,) for k, _v in t_rows])
    return conn


def _answers(conn, probes):
    out = []
    for sql, nparams in QUERIES:
        params = (probes * nparams)[:nparams]
        out.append(conn.execute(sql, params).fetchall())
    return out


_rows = st.lists(st.tuples(st.sampled_from(MIXED), st.sampled_from(MIXED)), max_size=12)


class TestIndexMatchesNoIndex:
    @settings(max_examples=150, deadline=None)
    @given(
        t_rows=_rows,
        u_rows=_rows,
        probes=st.lists(st.sampled_from(MIXED), min_size=1, max_size=4),
        batch_size=st.sampled_from([1, 3, 4096]),
    )
    def test_probe_answers_equal_the_rechecked_scan(self, t_rows, u_rows, probes, batch_size):
        old = vector.BATCH_SIZE
        vector.BATCH_SIZE = batch_size
        try:
            conn = _store(t_rows, u_rows)
            indexed = _answers(conn, probes)
            for ddl in INDEXES:
                conn.execute(f"DROP INDEX {ddl.split()[2]}")
            scanned = _answers(conn, probes)
            conn.close()
        finally:
            vector.BATCH_SIZE = old
        for (sql, _n), got, want in zip(QUERIES, indexed, scanned):
            assert _canon(got) == _canon(want), sql

    @settings(max_examples=100, deadline=None)
    @given(
        t_rows=_rows,
        u_rows=_rows,
        probes=st.lists(st.sampled_from(MIXED), min_size=4, max_size=4),
    )
    def test_raw_value_distinct_equals_sort_key_distinct(self, t_rows, u_rows, probes):
        conn = _store(t_rows, u_rows)
        for distinct, twin in DISTINCT_TWINS:
            params = probes[: distinct.count("?")]
            got = conn.execute(distinct, params).fetchall()
            want = _first_seen_by_sort_key(conn.execute(twin, params).fetchall())
            assert [repr(r) for r in got] == [repr(r) for r in want], distinct
        conn.close()


# ---------------------------------------------------------------------------
# NULL-key shapes against sqlite3 (no affinity conversion involved: every
# comparison is INTEGER against INTEGER or NULL).

NULL_SCHEMA = [
    "CREATE TABLE a (id INTEGER PRIMARY KEY, k INTEGER, v INTEGER)",
    "CREATE TABLE b (id INTEGER PRIMARY KEY, k INTEGER, w INTEGER)",
    "CREATE INDEX a_k ON a (k)",
    "CREATE INDEX b_k ON b (k)",
    "CREATE INDEX b_kw ON b (k, w)",
]
A_ROWS = [(1, 1, 10), (2, None, 20), (3, 2, None), (4, None, None), (5, 1, 30), (6, 3, 10)]
B_ROWS = [(1, 1, 5), (2, None, 6), (3, 2, None), (4, None, 5), (5, 1, 7), (6, 4, 5)]

SHAPES = [
    ("SELECT id FROM a WHERE k = ?", (None,)),
    ("SELECT id FROM a WHERE k = NULL", ()),
    ("SELECT id FROM a WHERE k IN (NULL)", ()),
    ("SELECT id FROM a WHERE k IN (?, ?)", (1, None)),
    ("SELECT id FROM a WHERE k IN (NULL, 2, NULL)", ()),
    ("SELECT id FROM a WHERE k IN (?, ?) AND v IS NULL", (2, None)),
    ("SELECT id FROM b WHERE k = ? AND w = ?", (1, None)),
    ("SELECT id FROM b WHERE k = ? AND w = ?", (None, 5)),
    ("SELECT a.id, b.id FROM a JOIN b ON b.k = a.k", ()),
    ("SELECT a.id, b.id FROM a LEFT JOIN b ON b.k = a.k", ()),
    ("SELECT a.id, b.id FROM a LEFT JOIN b ON b.k = a.k AND b.w = a.v", ()),
    ("SELECT a.id, b.id FROM a LEFT JOIN b ON b.k = a.k AND b.w > 5", ()),
    ("SELECT a.id, b.id FROM a JOIN b ON b.k IN (a.k, a.v)", ()),
    ("SELECT a.id, b.id FROM a LEFT JOIN b ON b.k IN (a.v, NULL)", ()),
    ("SELECT a.id, b.id FROM a JOIN b ON b.k = a.k WHERE a.k IN (?, ?)", (None, 1)),
    ("SELECT DISTINCT k FROM a WHERE k IN (1, 2, NULL)", ()),
    ("SELECT DISTINCT a.k, b.w FROM a LEFT JOIN b ON b.k = a.k", ()),
    ("SELECT COUNT(*) FROM a WHERE k IN (?, ?, ?)", (None, 1, 3)),
]


@pytest.fixture(scope="module")
def null_pair():
    m = minidb.connect()
    s = sqlite3.connect(":memory:")
    for conn in (m, s):
        for ddl in NULL_SCHEMA:
            conn.execute(ddl)
        conn.executemany("INSERT INTO a VALUES (?, ?, ?)", A_ROWS)
        conn.executemany("INSERT INTO b VALUES (?, ?, ?)", B_ROWS)
        conn.commit()
    yield m, s
    m.close()
    s.close()


@pytest.mark.parametrize("batch_size", [1, 4096])
@pytest.mark.parametrize("sql,params", SHAPES, ids=[f"s{i}" for i in range(len(SHAPES))])
def test_null_key_shapes_agree_with_sqlite(null_pair, monkeypatch, sql, params, batch_size):
    monkeypatch.setattr(vector, "BATCH_SIZE", batch_size)
    m, s = null_pair
    assert sorted(m.execute(sql, params).fetchall(), key=repr) == sorted(
        s.execute(sql, params).fetchall(), key=repr
    )


# ---------------------------------------------------------------------------
# A write on the same connection while a probe streams.


@pytest.mark.parametrize(
    "select,params,update,expected",
    [
        # key 1's 20 rows stream first; key 2's rows leave the key
        ("SELECT id, k FROM t WHERE k IN (?, ?)", (1, 2), "UPDATE t SET k = 0 WHERE k = 2", 20),
        # only the first batch was read before its rows left the key
        ("SELECT id, k FROM t WHERE k = ?", (2,), "UPDATE t SET k = 0 WHERE k = 2", 4),
        # a probed key moves to the other probed key: still returned once
        ("SELECT id, k FROM t WHERE k IN (?, ?)", (2, 1), "UPDATE t SET k = 2 WHERE k = 1", 40),
    ],
)
def test_streaming_probe_keeps_only_rows_that_still_match(
    monkeypatch, select, params, update, expected
):
    monkeypatch.setattr(vector, "BATCH_SIZE", 4)
    conn = minidb.connect()
    conn.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, k INTEGER)")
    conn.execute("CREATE INDEX t_k ON t (k)")
    conn.executemany("INSERT INTO t VALUES (?, ?)", [(i, 1 + i % 2) for i in range(1, 41)])
    cur = conn.cursor()
    cur.execute(select, params)
    got = [cur.fetchone()]  # the gather is suspended after its first batch
    conn.execute(update)
    got += cur.fetchall()
    conn.close()
    assert all(k in params for _id, k in got), got
    assert len({i for i, _k in got}) == len(got) == expected


# ---------------------------------------------------------------------------
# Plan shapes.


@pytest.fixture
def plan_db():
    conn = minidb.connect()
    for ddl in NULL_SCHEMA:
        conn.execute(ddl)
    conn.executemany("INSERT INTO a VALUES (?, ?, ?)", A_ROWS)
    conn.executemany("INSERT INTO b VALUES (?, ?, ?)", B_ROWS)
    yield conn
    conn.close()


def _operators(root):
    out = [root]
    for child in root.children():
        out += _operators(child)
    return out


def _plan_ops(conn, sql):
    return _operators(optimizer.plan_select(conn.db, parse(sql)).root)


def _explain(conn, sql, params=()):
    return [r[0].strip() for r in conn.execute("EXPLAIN " + sql, params).fetchall()]


@pytest.mark.parametrize(
    "sql,path",
    [
        ("SELECT DISTINCT v FROM a WHERE k IN (?, ?)", InProbe),
        ("SELECT v FROM a WHERE k = ?", IndexEquality),
        ("SELECT id FROM b WHERE w = ? AND k = ?", IndexEquality),
        ("SELECT COUNT(*) FROM a WHERE k IN (1, 2)", InProbe),
    ],
)
def test_no_filter_over_a_fully_consumed_probe(plan_db, sql, path):
    nodes = _plan_ops(plan_db, sql)
    assert not any(isinstance(op, ops.VecFilter) for op in nodes)
    (scan,) = [op for op in nodes if isinstance(op, ops.VecScan)]
    assert isinstance(scan.path, path)
    lines = _explain(plan_db, sql, (1, 2)[: sql.count("?")])
    assert not any(line.startswith("FILTER") for line in lines), lines


def test_filter_holds_only_the_residual_conjunct(plan_db):
    nodes = _plan_ops(plan_db, "SELECT id FROM a WHERE k IN (?, ?) AND v > ?")
    (filt,) = [op for op in nodes if isinstance(op, ops.VecFilter)]
    cond = filt.condition
    assert isinstance(cond, ast.Binary) and cond.op == ">"
    assert isinstance(cond.left, ast.ColumnRef) and cond.left.name == "v"
    assert isinstance(filt.child.path, InProbe)


def test_range_paths_keep_their_filter(plan_db):
    nodes = _plan_ops(plan_db, "SELECT id FROM a WHERE k > ? AND k <= ?")
    (filt,) = [op for op in nodes if isinstance(op, ops.VecFilter)]
    assert isinstance(filt.child.path, IndexRange)
    assert filt.condition.op == "AND"  # both bounds still re-checked
    # an equality on a strict prefix of a composite index is a range too
    plan_db.execute("DROP INDEX b_k")
    nodes = _plan_ops(plan_db, "SELECT id FROM b WHERE k = ?")
    (filt,) = [op for op in nodes if isinstance(op, ops.VecFilter)]
    assert isinstance(filt.child.path, IndexRange)


def test_join_on_check_keeps_only_the_residual(plan_db):
    (join,) = [
        op
        for op in _plan_ops(plan_db, "SELECT a.id, b.id FROM a JOIN b ON b.k = a.k")
        if isinstance(op, ops.VecIndexJoin)
    ]
    assert isinstance(join.inner.path, IndexEquality)
    assert join.condition is None and join.on_kernel is None
    sql = "SELECT a.id, b.id FROM a LEFT JOIN b ON b.k = a.k AND b.w > 5"
    (join,) = [op for op in _plan_ops(plan_db, sql) if isinstance(op, ops.VecIndexJoin)]
    assert isinstance(join.condition, ast.Binary) and join.condition.op == ">"
    assert join.on_kernel is not None


def test_dml_scans_keep_their_filter(plan_db):
    root = optimizer.lower_dml_scan(plan_db.db, "a", parse("DELETE FROM a WHERE k = 1").where)
    assert isinstance(root, ops.VecFilter)
    assert isinstance(root.child.path, IndexEquality)


def test_unqualified_column_of_a_later_table_is_not_a_probe_key(plan_db):
    # `w` is b's column: a's access path cannot probe with it before b is
    # joined, so a is scanned and the WHERE checks the conjunct.
    sql = "SELECT a.id, b.id FROM a JOIN b ON b.id = a.id WHERE a.k = w - 4"
    nodes = _plan_ops(plan_db, sql)
    leaf = nodes[-2]  # the leading leaf, then the inner one
    assert isinstance(leaf, ops.VecScan) and not isinstance(leaf.path, IndexEquality)
    assert plan_db.execute(sql).fetchall() == [(1, 1)]
    assert plan_db.execute(sql.replace("= w", "= b.w")).fetchall() == [(1, 1)]


# ---------------------------------------------------------------------------
# The verifier still catches a predicate that no operator enforces.


def test_dropping_an_unconsumed_where_conjunct_raises_pln007(plan_db, monkeypatch):
    monkeypatch.setattr(optimizer, "_residual", lambda expr, enforced: None)
    # the consumed IN conjunct alone is enforced by the probe: no drift
    plan_db.execute("SELECT id FROM a WHERE k IN (1, 2)").fetchall()
    with pytest.raises(PlanVerificationError) as ei:
        plan_db.execute("SELECT id FROM a WHERE k IN (1, 2) AND v > 5").fetchall()
    assert ei.value.code == "PLN007"
    assert "v > 5" in str(ei.value)


def test_dropping_an_unconsumed_on_conjunct_raises_pln007(plan_db, monkeypatch):
    monkeypatch.setattr(optimizer, "_residual", lambda expr, enforced: None)
    plan_db.execute("SELECT a.id, b.id FROM a JOIN b ON b.k = a.k").fetchall()
    with pytest.raises(PlanVerificationError) as ei:
        plan_db.execute("SELECT a.id, b.id FROM a JOIN b ON b.k = a.k AND b.w > 5").fetchall()
    assert ei.value.code == "PLN007"
    assert "b.w > 5" in str(ei.value)


def test_dropping_a_range_paths_recheck_raises_pln007(plan_db, monkeypatch):
    # A range path only pre-filters: the conjuncts it uses are not enforced.
    monkeypatch.setattr(optimizer, "_residual", lambda expr, enforced: None)
    with pytest.raises(PlanVerificationError) as ei:
        plan_db.execute("SELECT id FROM a WHERE k > 1").fetchall()
    assert ei.value.code == "PLN007"


# ---------------------------------------------------------------------------
# The value domain those comparisons rely on.


class _Opaque:
    """A parameter type outside minidb's value domain (sqlite3 refuses it)."""

    def __eq__(self, other):
        return other == 1

    def __hash__(self):
        return hash(1)


def test_parameters_outside_the_value_domain_are_refused_like_sqlite3():
    conn = minidb.connect()
    conn.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, k)")
    conn.execute("CREATE INDEX t_k ON t (k)")
    conn.execute("INSERT INTO t (k) VALUES (1)")
    oracle = sqlite3.connect(":memory:")
    for sql in ("SELECT id FROM t WHERE k = ?", "SELECT id FROM t WHERE k IN (?)"):
        with pytest.raises(minidb.ProgrammingError, match="parameter 1"):
            conn.execute(sql, (_Opaque(),))
        with pytest.raises(sqlite3.ProgrammingError, match="parameter 1"):
            oracle.execute("SELECT ?", (_Opaque(),))
    # an executemany INSERT cannot store one either
    with pytest.raises(minidb.DataError):
        conn.executemany("INSERT INTO t (k) VALUES (?)", [(2,), (_Opaque(),)])
    # buffers bind as bytes, as in sqlite3
    conn.execute("INSERT INTO t (k) VALUES (?)", (bytearray(b"x"),))
    assert conn.execute("SELECT id, k FROM t WHERE k = ?", (memoryview(b"x"),)).fetchall() == [
        (2, b"x")
    ]
    conn.close()
    oracle.close()
