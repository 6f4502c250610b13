"""Physical-operator differential suite.

Every operator shape the planner can emit — full scans, IndexEquality,
IndexRange, InProbe and HashJoin leaves, INNER and LEFT joins, Filter,
Project, Aggregate, Distinct, Union, Sort, TopN, Limit, SubqueryScan,
ConstantRow — is exercised against randomized data, with (a) the EXPLAIN
tree pinned to contain that operator and (b) the rows compared against
sqlite3 on an identical database.  A second property asserts that
switching any single optimizer rule off never changes a query's result
multiset: the rules are pure plan transformations.
"""

import random
import sqlite3

import pytest

import repro.minidb as minidb
from repro.minidb import optimizer, vector
from repro.minidb.errors import SemanticError

SEED = 20260806
N_ITEMS = 120
N_CATS = 9


def _rand_rows(rng):
    cats = [(i, f"cat{i}", rng.randrange(0, 5)) for i in range(1, N_CATS + 1)]
    items = []
    for i in range(1, N_ITEMS + 1):
        items.append(
            (
                i,
                rng.randrange(1, N_CATS + 1) if rng.random() > 0.05 else None,
                rng.randrange(-50, 200),
                rng.choice(["red", "green", "blue", None]),
                round(rng.uniform(0, 100), 2),
            )
        )
    return cats, items


SCHEMA = [
    "CREATE TABLE cats (id INTEGER PRIMARY KEY, name TEXT, tier INTEGER)",
    "CREATE TABLE items (id INTEGER PRIMARY KEY, cat INTEGER, qty INTEGER, "
    "color TEXT, price REAL)",
    "CREATE INDEX idx_items_cat ON items (cat)",
    "CREATE INDEX idx_items_qty ON items (qty)",
]


def _populate(conn, cats, items):
    cur = conn.cursor()
    for ddl in SCHEMA:
        cur.execute(ddl)
    cur.executemany("INSERT INTO cats VALUES (?, ?, ?)", cats)
    cur.executemany("INSERT INTO items VALUES (?, ?, ?, ?, ?)", items)
    conn.commit()


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
def data():
    return _rand_rows(random.Random(SEED))


@pytest.fixture(scope="module")
def engines(data):
    cats, items = data
    m = minidb.connect()
    s = sqlite3.connect(":memory:")
    _populate(m, cats, items)
    _populate(s, cats, items)
    yield m, s
    m.close()
    s.close()


# (query, operator substring that must appear in its EXPLAIN tree)
SHAPES = [
    ("SELECT qty FROM items", "SCAN items"),
    ("SELECT id FROM items WHERE cat = 3", "USING INDEX idx_items_cat"),
    ("SELECT id FROM items WHERE qty > 150", "RANGE"),
    ("SELECT id FROM items WHERE cat IN (1, 2, 5)", "IN-PROBE"),
    (
        "SELECT i.id, c.name FROM items i JOIN cats c ON c.id = i.cat",
        "JOIN (INNER)",
    ),
    (
        "SELECT i.id, c.name FROM items i "
        "JOIN cats c ON c.name = i.color",  # no index on either side
        "HashJoin",
    ),
    ("SELECT id FROM items WHERE qty % 7 = 0", "FILTER"),
    ("SELECT id, qty * 2 FROM items WHERE color = 'red'", "PROJECT"),
    ("SELECT cat, COUNT(*), SUM(qty) FROM items GROUP BY cat", "AGGREGATE"),
    (
        "SELECT color, AVG(price) FROM items GROUP BY color "
        "HAVING COUNT(*) > 10",
        "AGGREGATE",
    ),
    ("SELECT DISTINCT color FROM items", "DISTINCT"),
    ("SELECT name FROM cats UNION SELECT color FROM items", "UNION"),
    ("SELECT id FROM cats UNION ALL SELECT tier FROM cats", "UNION ALL"),
    ("SELECT id, qty FROM items ORDER BY qty DESC, id", "ORDER BY"),
    ("SELECT id FROM items ORDER BY price DESC LIMIT 7", "TOP-N"),
    ("SELECT id FROM items ORDER BY qty LIMIT 5 OFFSET 3", "TOP-N"),
    ("SELECT id FROM items LIMIT 4", "LIMIT"),
    (
        "SELECT t.cat, t.n FROM (SELECT cat, COUNT(*) AS n FROM items "
        "GROUP BY cat) t WHERE t.n > 5",
        "SUBQUERY AS t",
    ),
    ("SELECT 1 + 2, 'x'", "CONSTANT ROW"),
    (
        "SELECT c.name FROM cats c LEFT JOIN items i "
        "ON i.cat = c.id AND i.qty > 190",
        "JOIN (LEFT)",
    ),
    (
        "SELECT id FROM items WHERE cat IN "
        "(SELECT id FROM cats WHERE tier >= 2)",
        "FILTER",
    ),
    (
        "SELECT id FROM items i WHERE EXISTS "
        "(SELECT 1 FROM cats c WHERE c.id = i.cat AND c.tier = 1)",
        "FILTER",
    ),
    # GROUP BY terms that name output columns, as sqlite3 resolves them:
    # a position, an alias, an alias of an expression, a position under
    # a star, and an input column that wins over a same-named alias.
    ("SELECT color, COUNT(*) FROM items GROUP BY 1", "AGGREGATE"),
    ("SELECT color AS k, COUNT(*) FROM items GROUP BY k", "AGGREGATE"),
    ("SELECT qty % 3 AS m, COUNT(*), SUM(qty) FROM items GROUP BY m", "AGGREGATE"),
    ("SELECT *, COUNT(*) FROM cats GROUP BY 2", "AGGREGATE"),
    ("SELECT cat % 2 AS cat, COUNT(*) FROM items GROUP BY cat", "AGGREGATE"),
]


@pytest.mark.parametrize(
    "sql,op", SHAPES, ids=[f"shape{i}" for i in range(len(SHAPES))]
)
def test_shape_plans_and_agrees_with_sqlite(engines, sql, op):
    m, s = engines
    plan = [r[0] for r in m.execute("EXPLAIN " + sql).fetchall()]
    assert any(op in line for line in plan), (op, plan)
    mine = normalize(m.execute(sql).fetchall())
    theirs = normalize(s.execute(sql).fetchall())
    if "LIMIT" in sql and "ORDER BY" not in sql:
        # Either engine may keep any N rows here; only the count is pinned.
        assert len(mine) == len(theirs), f"disagreement on: {sql}"
    else:
        assert mine == theirs, f"disagreement on: {sql}"


def test_ordered_results_agree_in_order(engines):
    """Fully-determined orderings must match row for row, not just as bags."""
    m, s = engines
    for sql in (
        "SELECT id, qty FROM items ORDER BY qty, id",
        "SELECT id FROM items ORDER BY price DESC, id LIMIT 11",
        "SELECT id FROM items ORDER BY qty LIMIT 9 OFFSET 4",
        "SELECT cat, COUNT(*) FROM items GROUP BY cat ORDER BY 2 DESC, cat",
    ):
        assert m.execute(sql).fetchall() == s.execute(sql).fetchall(), sql


RULES = (
    "ENABLE_CONSTANT_FOLDING",
    "ENABLE_PUSHDOWN",
    "ENABLE_JOIN_REORDER",
    "ENABLE_TOPN",
)


@pytest.mark.parametrize("rule", RULES)
def test_optimizer_rules_preserve_result_multisets(data, monkeypatch, rule):
    """Property: each rewrite rule is semantics-preserving on the corpus."""
    cats, items = data
    baseline = minidb.connect()
    _populate(baseline, cats, items)
    monkeypatch.setattr(optimizer, rule, False)
    disabled = minidb.connect()
    _populate(disabled, cats, items)
    for sql, _op in SHAPES:
        want = normalize(baseline.execute(sql).fetchall())
        got = normalize(disabled.execute(sql).fetchall())
        assert got == want, f"{rule}=False changes: {sql}"
    baseline.close()
    disabled.close()


def test_constant_folding_elides_true_filter():
    conn = minidb.connect()
    conn.execute("CREATE TABLE t (a INTEGER)")
    conn.execute("INSERT INTO t VALUES (1), (2)")
    plan = [
        r[0]
        for r in conn.execute("EXPLAIN SELECT a FROM t WHERE 1 + 1 = 2").fetchall()
    ]
    assert not any("FILTER" in line for line in plan), plan
    assert normalize(conn.execute("SELECT a FROM t WHERE 1 + 1 = 2").fetchall()) == [
        (1,),
        (2,),
    ]
    conn.close()


def test_streaming_cursor_interleaves_fetch(engines):
    """Two cursors over one connection stream independently."""
    m, _ = engines
    a = m.cursor()
    b = m.cursor()
    a.execute("SELECT id FROM items ORDER BY id")
    b.execute("SELECT id FROM items ORDER BY id DESC")
    pairs = [(a.fetchone()[0], b.fetchone()[0]) for _ in range(3)]
    assert pairs == [(1, N_ITEMS), (2, N_ITEMS - 1), (3, N_ITEMS - 2)]
    a.close()
    b.close()


@pytest.mark.parametrize(
    "sql,error",
    [
        ("SELECT color, COUNT(*) FROM items GROUP BY 3", "out of range"),
        ("SELECT color, COUNT(*) FROM items GROUP BY 0", "out of range"),
        ("SELECT color, COUNT(*) FROM items GROUP BY 2", "aggregate"),
        ("SELECT color, COUNT(*) AS n FROM items GROUP BY n", "aggregate"),
    ],
)
def test_bad_group_by_output_reference_raises_like_sqlite(engines, sql, error):
    m, s = engines
    with pytest.raises(sqlite3.OperationalError):
        s.execute(sql)
    with pytest.raises(SemanticError) as ei:
        m.execute(sql)
    assert error in str(ei.value)


@pytest.mark.parametrize("batch_size", [1, 7, 4096])
def test_vectorized_corpus_differential(data, monkeypatch, batch_size):
    """The batch pipeline agrees with sqlite3 at every batch size.

    Runs the full operator corpus at batch sizes 1 (degenerate: one row
    per batch, the row-at-a-time case), 7 (prime — every final batch is
    ragged) and 4096 (a whole segment per batch).  Ordered shapes must
    also match the batch-size-1 run row for row.
    """
    cats, items = data
    sq = sqlite3.connect(":memory:")
    _populate(sq, cats, items)
    runs = {}
    for size in (1, batch_size):
        monkeypatch.setattr(vector, "BATCH_SIZE", size)
        conn = minidb.connect()
        _populate(conn, cats, items)
        runs[size] = {sql: conn.execute(sql).fetchall() for sql, _op in SHAPES}
        conn.close()
    for sql, _op in SHAPES:
        got = runs[batch_size][sql]
        theirs = normalize(sq.execute(sql).fetchall())
        if "LIMIT" in sql and "ORDER BY" not in sql:
            assert len(got) == len(theirs), f"bs={batch_size}: {sql}"
        else:
            assert normalize(got) == theirs, f"bs={batch_size}: {sql}"
        if "ORDER BY" in sql:
            assert got == runs[1][sql], f"bs={batch_size}: {sql}"
    sq.close()


class TestPlanCacheInvalidation:
    def test_create_index_replans_cached_statement(self):
        """A cached SeqScan plan must be re-optimized after CREATE INDEX."""
        conn = minidb.connect()
        conn.execute("CREATE TABLE t (k INTEGER, v TEXT)")
        conn.executemany(
            "INSERT INTO t VALUES (?, ?)", [(i, f"v{i}") for i in range(64)]
        )
        sql = "SELECT v FROM t WHERE k = 17"
        assert conn.execute(sql).fetchall() == [("v17",)]
        plan = [r[0] for r in conn.execute("EXPLAIN " + sql).fetchall()]
        assert any("SCAN t" in line for line in plan), plan
        conn.execute("CREATE INDEX idx_t_k ON t (k)")
        # Same SQL text: the statement-cache entry must notice the catalog
        # generation bump, re-plan, and pick the new index.
        assert conn.execute(sql).fetchall() == [("v17",)]
        plan = [r[0] for r in conn.execute("EXPLAIN " + sql).fetchall()]
        assert any("USING INDEX idx_t_k" in line for line in plan), plan
        conn.close()

    def test_drop_index_replans_cached_statement(self):
        conn = minidb.connect()
        conn.execute("CREATE TABLE t (k INTEGER, v TEXT)")
        conn.execute("CREATE INDEX idx_t_k ON t (k)")
        conn.executemany(
            "INSERT INTO t VALUES (?, ?)", [(i, f"v{i}") for i in range(16)]
        )
        sql = "SELECT v FROM t WHERE k = 3"
        assert conn.execute(sql).fetchall() == [("v3",)]
        conn.execute("DROP INDEX idx_t_k")
        # The cached IndexLookup plan would probe a dropped index; the
        # version check must force a SeqScan re-plan instead.
        assert conn.execute(sql).fetchall() == [("v3",)]
        plan = [r[0] for r in conn.execute("EXPLAIN " + sql).fetchall()]
        assert any("SCAN t" in line for line in plan), plan
        conn.close()

    def test_table_growth_across_threshold_replans(self):
        """Hash-join eligibility appears once the build side reaches 4 rows."""
        conn = minidb.connect()
        conn.execute("CREATE TABLE l (a INTEGER)")
        conn.execute("CREATE TABLE r (b INTEGER)")
        conn.execute("INSERT INTO l VALUES (1), (2), (3), (4), (5)")
        conn.execute("INSERT INTO r VALUES (1)")
        sql = "SELECT l.a FROM l JOIN r ON r.b = l.a"
        assert conn.execute(sql).fetchall() == [(1,)]
        conn.executemany("INSERT INTO r VALUES (?)", [(i,) for i in range(2, 9)])
        # r grew 1 -> 8 rows (across the hash-join build minimum); the
        # cached full-scan join plan must be rebuilt, not reused.
        got = normalize(conn.execute(sql).fetchall())
        assert got == [(i,) for i in range(1, 6)]
        plan = [r[0] for r in conn.execute("EXPLAIN " + sql).fetchall()]
        assert any("HashJoin" in line for line in plan), plan
        conn.close()
