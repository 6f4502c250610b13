"""Differential testing: minidb must agree with sqlite3 on a query corpus.

This is the strongest correctness evidence for the engine: both backends
get identical schemas and rows, then every query in the corpus (and a
hypothesis-generated family of WHERE clauses) must return the same bag of
rows.
"""

import sqlite3

import pytest
from hypothesis import given, settings, strategies as st

import repro.minidb as minidb
from repro.minidb import vector

ROWS = [
    (1, "alice", "eng", 120.0, 1),
    (2, "bob", "eng", 100.0, 1),
    (3, "carol", "ops", 90.0, 2),
    (4, "dave", "ops", 95.0, 2),
    (5, "erin", "mgmt", 150.0, None),
    (6, "frank", None, None, 3),
]

DEPTS = [(1, "building-A"), (2, "building-B"), (3, "building-C")]

SCHEMA = [
    "CREATE TABLE emp (id INTEGER PRIMARY KEY, name TEXT, dept TEXT, salary REAL, loc INTEGER)",
    "CREATE TABLE loc (id INTEGER PRIMARY KEY, building TEXT)",
    "CREATE INDEX idx_dept ON emp (dept)",
]


def normalize(rows):
    out = []
    for row in rows:
        norm = []
        for v in row:
            if isinstance(v, float) and v.is_integer():
                v = int(v)
            norm.append(v)
        out.append(tuple(norm))
    return sorted(out, key=repr)


@pytest.fixture(scope="module")
def engines():
    m = minidb.connect()
    s = sqlite3.connect(":memory:")
    for conn in (m, s):
        cur = conn.cursor()
        for ddl in SCHEMA:
            cur.execute(ddl)
        cur.executemany("INSERT INTO emp VALUES (?, ?, ?, ?, ?)", ROWS)
        cur.executemany("INSERT INTO loc VALUES (?, ?)", DEPTS)
        conn.commit()
    yield m, s
    m.close()
    s.close()


def both(engines, sql, params=()):
    m, s = engines
    return (
        normalize(m.execute(sql, params).fetchall()),
        normalize(s.execute(sql, params).fetchall()),
    )


CORPUS = [
    "SELECT * FROM emp",
    "SELECT name, salary FROM emp WHERE salary > 95",
    "SELECT name FROM emp WHERE dept = 'eng' AND salary >= 100",
    "SELECT name FROM emp WHERE dept IS NULL",
    "SELECT name FROM emp WHERE salary IS NOT NULL AND salary < 100",
    "SELECT name FROM emp WHERE name LIKE '%a%'",
    "SELECT name FROM emp WHERE name NOT LIKE 'a%'",
    "SELECT name FROM emp WHERE salary BETWEEN 90 AND 120",
    "SELECT name FROM emp WHERE dept IN ('eng', 'mgmt')",
    "SELECT name FROM emp WHERE dept NOT IN ('eng')",
    "SELECT DISTINCT dept FROM emp",
    "SELECT COUNT(*), COUNT(dept), COUNT(DISTINCT dept) FROM emp",
    "SELECT SUM(salary), AVG(salary), MIN(salary), MAX(salary) FROM emp",
    "SELECT dept, COUNT(*) FROM emp GROUP BY dept",
    "SELECT dept, SUM(salary) FROM emp GROUP BY dept HAVING SUM(salary) > 100",
    "SELECT e.name, l.building FROM emp e JOIN loc l ON l.id = e.loc",
    "SELECT e.name, l.building FROM emp e LEFT JOIN loc l ON l.id = e.loc",
    "SELECT l.building, COUNT(e.id) FROM loc l LEFT JOIN emp e ON e.loc = l.id GROUP BY l.building",
    "SELECT name FROM emp WHERE loc IN (SELECT id FROM loc WHERE building LIKE '%B')",
    "SELECT name FROM emp e WHERE EXISTS (SELECT 1 FROM loc l WHERE l.id = e.loc)",
    "SELECT name, (SELECT building FROM loc l WHERE l.id = e.loc) FROM emp e",
    "SELECT name FROM emp WHERE salary = (SELECT MAX(salary) FROM emp)",
    "SELECT dept FROM emp UNION SELECT building FROM loc",
    "SELECT dept FROM emp UNION ALL SELECT dept FROM emp",
    "SELECT name, CASE WHEN salary >= 120 THEN 'high' WHEN salary >= 95 THEN 'mid' ELSE 'low' END FROM emp WHERE salary IS NOT NULL",
    "SELECT UPPER(name), LENGTH(name) FROM emp",
    "SELECT COALESCE(dept, 'unknown') FROM emp",
    "SELECT name || '-' || dept FROM emp WHERE dept IS NOT NULL",
    "SELECT salary * 2 + 1 FROM emp WHERE salary IS NOT NULL",
    "SELECT -salary FROM emp WHERE id = 1",
    "SELECT name FROM emp ORDER BY salary DESC LIMIT 3",
    "SELECT name FROM emp ORDER BY dept, salary LIMIT 2 OFFSET 1",
    "SELECT t.d, t.n FROM (SELECT dept AS d, COUNT(*) AS n FROM emp GROUP BY dept) t WHERE t.n > 1",
    "SELECT a.name, b.name FROM emp a JOIN emp b ON a.dept = b.dept AND a.id < b.id",
    "SELECT COUNT(*) FROM emp, loc",
    "SELECT MAX(salary) - MIN(salary) FROM emp",
    "SELECT dept FROM emp GROUP BY dept ORDER BY COUNT(*) DESC, dept",
    "SELECT name FROM emp WHERE id % 2 = 0",
]


@pytest.mark.parametrize("sql", CORPUS, ids=[f"q{i}" for i in range(len(CORPUS))])
def test_corpus_agreement(engines, sql):
    mine, theirs = both(engines, sql)
    assert mine == theirs, f"disagreement on: {sql}"


class TestParametrizedAgreement:
    @pytest.mark.parametrize(
        "sql,params",
        [
            ("SELECT name FROM emp WHERE salary > ?", (99,)),
            ("SELECT name FROM emp WHERE dept = ? OR dept = ?", ("eng", "ops")),
            ("SELECT ? + 1, ? || 'x'", (5, "a")),
            ("SELECT name FROM emp WHERE salary BETWEEN ? AND ?", (90, 110)),
        ],
    )
    def test_params(self, engines, sql, params):
        mine, theirs = both(engines, sql, params)
        assert mine == theirs


@settings(max_examples=120, deadline=None)
@given(
    column=st.sampled_from(["id", "salary", "loc"]),
    op=st.sampled_from(["=", "<>", "<", "<=", ">", ">="]),
    value=st.integers(-5, 160),
    order_col=st.sampled_from(["id", "name", "salary"]),
    limit=st.integers(1, 10),
)
def test_generated_where_clauses(column, op, value, order_col, limit):
    sql = (
        f"SELECT id, name FROM emp WHERE {column} {op} ? "
        f"ORDER BY {order_col}, id LIMIT {limit}"
    )
    m = minidb.connect()
    s = sqlite3.connect(":memory:")
    for conn in (m, s):
        cur = conn.cursor()
        cur.execute(SCHEMA[0])
        cur.executemany("INSERT INTO emp VALUES (?, ?, ?, ?, ?)", ROWS)
    mine = normalize(m.execute(sql, (value,)).fetchall())
    theirs = normalize(s.execute(sql, (value,)).fetchall())
    m.close()
    s.close()
    assert mine == theirs


class TestIntegersBeyondFloatPrecision:
    """Integers above 2**53 stay distinct, as in sqlite3; 1 and 1.0 still meet.

    Every value-identity path — DISTINCT, ``=``, ``IN``, GROUP BY, ORDER BY
    and join keys — runs on scans and on index probes, one row per batch
    ("row") and in full batches ("batch").
    """

    BIG = 2**53
    BIG_ROWS = [
        (1, BIG - 1),
        (2, BIG),
        (3, BIG + 1),
        (4, BIG + 2),
        (5, BIG + 1),
        (6, -(BIG + 1)),
        (7, -BIG),
    ]
    QUERIES = [
        ("SELECT DISTINCT v FROM big", ()),
        ("SELECT id FROM big WHERE v = ?", (BIG + 1,)),
        ("SELECT id FROM big WHERE v IN (?, ?)", (BIG + 1, -BIG)),
        ("SELECT id FROM big WHERE v > ?", (BIG,)),
        ("SELECT v, COUNT(*) FROM big GROUP BY v", ()),
        ("SELECT a.id, b.id FROM big a JOIN big b ON a.v = b.v", ()),
        ("SELECT DISTINCT v FROM mixed", ()),
        ("SELECT id FROM mixed WHERE v = ?", (1,)),
        ("SELECT id FROM mixed WHERE v IN (?)", (1.0,)),
    ]
    ORDERED = [
        "SELECT id, v FROM big ORDER BY v DESC, id",
        "SELECT id, v FROM big ORDER BY v, id LIMIT 4",
    ]

    @pytest.fixture(params=["scan", "index"])
    def pair(self, request):
        m = minidb.connect()
        s = sqlite3.connect(":memory:")
        for conn in (m, s):
            cur = conn.cursor()
            cur.execute("CREATE TABLE big (id INTEGER PRIMARY KEY, v INTEGER)")
            cur.execute("CREATE TABLE mixed (id INTEGER PRIMARY KEY, v NUMERIC)")
            if request.param == "index":
                cur.execute("CREATE INDEX idx_big_v ON big (v)")
                cur.execute("CREATE INDEX idx_mixed_v ON mixed (v)")
            cur.executemany("INSERT INTO big VALUES (?, ?)", self.BIG_ROWS)
            cur.executemany("INSERT INTO mixed VALUES (?, ?)", [(1, 1), (2, 1.0), (3, 2)])
            conn.commit()
        yield m, s
        m.close()
        s.close()

    @pytest.mark.parametrize("batch_size", [4096, 1], ids=["batch", "row"])
    def test_value_identity_agrees_with_sqlite(self, pair, monkeypatch, batch_size):
        monkeypatch.setattr(vector, "BATCH_SIZE", batch_size)
        m, s = pair
        for sql, params in self.QUERIES:
            mine = normalize(m.execute(sql, params).fetchall())
            assert mine == normalize(s.execute(sql, params).fetchall()), sql
        assert len(m.execute("SELECT DISTINCT v FROM big").fetchall()) == 6
        for sql in self.ORDERED:
            assert m.execute(sql).fetchall() == s.execute(sql).fetchall(), sql


class TestComparisonAffinityGap:
    """Known gap: sqlite3 applies a column's affinity to the other operand
    of a comparison (TEXT '2' meets INTEGER 2); minidb compares the raw
    values.  Fixing it changes ``compare`` for every plan, so these cases
    stay strict xfails until it is done, one row per batch ("row") and in
    full batches ("batch") alike.  sqlite3 is no reference for them, so
    ``MINIDB_ANSWERS`` pins the rows minidb returns today — the answer
    the retired row-at-a-time engine gave too.  The plan verifier is off
    here because it flags the mixed-affinity index probes as PLN002.
    """

    CASES = [
        # A TEXT literal against an INTEGER primary key.
        "SELECT id, y FROM b WHERE b.id = '2'",
        # An INTEGER literal against a TEXT column.
        "SELECT id, x FROM a WHERE a.x = 2",
        # Mixed IN items against an INTEGER primary key.
        "SELECT id, y FROM b WHERE id IN ('2', 3)",
        # A TEXT join key probing an INTEGER primary key.
        "SELECT a.id, b.y FROM a JOIN b ON b.id = a.x",
    ]
    IDS = ["int_pk_text_literal", "text_col_int_literal", "mixed_in_list", "text_join_key"]
    MINIDB_ANSWERS = [[], [], [(3, "r")], []]

    @pytest.fixture
    def pair(self, monkeypatch):
        from repro.minidb import verifier

        monkeypatch.setattr(verifier, "VERIFY_PLANS", False)
        m = minidb.connect()
        s = sqlite3.connect(":memory:")
        for conn in (m, s):
            cur = conn.cursor()
            cur.execute("CREATE TABLE a (id INTEGER PRIMARY KEY, x TEXT)")
            cur.execute("CREATE TABLE b (id INTEGER PRIMARY KEY, y TEXT)")
            cur.executemany("INSERT INTO a VALUES (?, ?)", [(1, "2"), (2, "3"), (3, None)])
            cur.executemany("INSERT INTO b VALUES (?, ?)", [(1, "p"), (2, "q"), (3, "r")])
            conn.commit()
        yield m, s
        m.close()
        s.close()

    @pytest.mark.xfail(
        strict=True,
        reason="comparison affinity gap: minidb compares raw values where "
        "sqlite3 converts the other operand to the column's affinity",
    )
    @pytest.mark.parametrize("batch_size", [4096, 1], ids=["batch", "row"])
    @pytest.mark.parametrize("sql", CASES, ids=IDS)
    def test_affinity_applied_like_sqlite(self, pair, monkeypatch, sql, batch_size):
        monkeypatch.setattr(vector, "BATCH_SIZE", batch_size)
        m, s = pair
        assert normalize(m.execute(sql).fetchall()) == normalize(s.execute(sql).fetchall())

    @pytest.mark.parametrize("batch_size", [4096, 1], ids=["batch", "row"])
    @pytest.mark.parametrize("sql,answer", list(zip(CASES, MINIDB_ANSWERS)), ids=IDS)
    def test_minidb_answer_is_pinned(self, pair, monkeypatch, sql, answer, batch_size):
        monkeypatch.setattr(vector, "BATCH_SIZE", batch_size)
        m, _s = pair
        assert m.execute(sql).fetchall() == answer


class TestInsertStatementAtomicity:
    """A failing INSERT leaves none of its rows behind, as in sqlite3."""

    SOURCE = [(1, "a"), (2, "b"), (3, "a")]

    @pytest.fixture
    def pair(self):
        m = minidb.connect()
        s = sqlite3.connect(":memory:")
        for conn in (m, s):
            conn.execute("CREATE TABLE t (k INTEGER PRIMARY KEY, v TEXT UNIQUE)")
            conn.execute("CREATE TABLE src (k INTEGER, v TEXT)")
            conn.executemany("INSERT INTO src VALUES (?, ?)", self.SOURCE)
            conn.commit()
        yield m, s
        m.close()
        s.close()

    @pytest.mark.parametrize(
        "sql",
        [
            "INSERT INTO t VALUES (1, 'a'), (2, 'b'), (3, 'a')",
            "INSERT INTO t SELECT k, v FROM src ORDER BY k",
        ],
        ids=["values", "select"],
    )
    def test_failing_row_undoes_the_statement(self, pair, sql):
        m, s = pair
        with pytest.raises(minidb.IntegrityError, match="UNIQUE"):
            m.execute(sql)
        with pytest.raises(sqlite3.IntegrityError, match="UNIQUE"):
            s.execute(sql)
        assert m.execute("SELECT * FROM t").fetchall() == []
        assert s.execute("SELECT * FROM t").fetchall() == []
        # The next statement starts from the pre-statement state.
        for conn in pair:
            conn.execute("INSERT INTO t VALUES (5, 'a')")
        assert both(pair, "SELECT * FROM t") == ([(5, "a")], [(5, "a")])


class TestSelfReferencingForeignKey:
    """A FOREIGN KEY to the same table is checked when its statement ends,
    as sqlite3 (``foreign_keys=ON``) checks it: one INSERT may reference
    any row it inserts, and ``executemany`` runs one statement per
    parameter row, so a row may reference itself and earlier rows only."""

    DDL = "CREATE TABLE t (id INTEGER PRIMARY KEY, pid INTEGER REFERENCES t(id))"

    @pytest.fixture
    def pair(self):
        m = minidb.connect()
        s = sqlite3.connect(":memory:")
        s.execute("PRAGMA foreign_keys = ON")
        for conn in (m, s):
            conn.execute(self.DDL)
            conn.execute("CREATE TABLE src (k INTEGER)")
            conn.executemany("INSERT INTO src VALUES (?)", [(1,), (2,)])
            conn.commit()
        yield m, s
        m.close()
        s.close()

    @staticmethod
    def _outcome(conn, call):
        try:
            call(conn)
        except (minidb.IntegrityError, sqlite3.IntegrityError):
            conn.rollback()
            return "IntegrityError", conn.execute("SELECT * FROM t ORDER BY id").fetchall()
        return "ok", conn.execute("SELECT * FROM t ORDER BY id").fetchall()

    def _agree(self, pair, call):
        m, s = pair
        got, want = self._outcome(m, call), self._outcome(s, call)
        assert got == want
        return got[0]

    @pytest.mark.parametrize(
        "sql, outcome",
        [
            ("INSERT INTO t VALUES (5, 5)", "ok"),
            ("INSERT INTO t VALUES (7, 8), (8, NULL)", "ok"),
            ("INSERT INTO t VALUES (7, 8), (8, 7)", "ok"),
            ("INSERT INTO t VALUES (7, 9), (8, NULL)", "IntegrityError"),
            ("INSERT INTO t (pid) VALUES (1), (2)", "ok"),
            ("INSERT INTO t SELECT k, 3 - k FROM src", "ok"),
            ("INSERT INTO t SELECT k, k + 1 FROM src", "IntegrityError"),
        ],
    )
    def test_one_statement_sees_its_own_rows(self, pair, sql, outcome):
        assert self._agree(pair, lambda conn: conn.execute(sql)) == outcome

    @pytest.mark.parametrize(
        "sql, params, outcome",
        [
            ("INSERT INTO t VALUES (?, ?)", [(1, 1), (2, 1), (3, 2)], "ok"),
            ("INSERT INTO t VALUES (?, ?)", [(1, 2), (2, None)], "IntegrityError"),
            ("INSERT INTO t VALUES (?, ?)", [(1, None), (2, 3), (3, 2)], "IntegrityError"),
            ("INSERT INTO t VALUES (?, ?), (?, ?)", [(1, 2, 2, None), (3, 4, 4, 1)], "ok"),
            ("INSERT INTO t VALUES (?, ?), (?, ?)", [(1, 3, 2, None), (3, 4, 4, 3)],
             "IntegrityError"),
            # A template with a subquery runs one parameter row at a
            # time, still as one statement each.
            ("INSERT INTO t VALUES (?, ?), (?, (SELECT ?))", [(1, 2, 2, None)], "ok"),
        ],
    )
    def test_executemany_is_one_statement_per_parameter_row(self, pair, sql, params, outcome):
        assert self._agree(pair, lambda conn: conn.executemany(sql, params)) == outcome

    def test_subqueries_see_the_table_before_their_statement(self, pair):
        def call(conn):
            conn.execute("DROP TABLE t")
            conn.execute(
                "CREATE TABLE t (id INTEGER PRIMARY KEY, "
                "pid INTEGER REFERENCES t(id), n INTEGER)"
            )
            conn.executemany("INSERT INTO t VALUES (?, ?, 0)", [(1, None), (2, 1), (3, 1)])
            conn.executemany(
                "INSERT INTO t VALUES (?, ?, (SELECT COUNT(*) FROM t)), (?, NULL, 0)",
                [(10, 11, 11), (20, 10, 21)],
            )

        assert self._agree(pair, call) == "ok"
        rows = pair[0].execute("SELECT * FROM t WHERE id >= 10 ORDER BY id").fetchall()
        assert rows == [(10, 11, 3), (11, None, 0), (20, 10, 5), (21, None, 0)]
