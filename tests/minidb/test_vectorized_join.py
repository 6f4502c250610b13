"""Batched joins: VecIndexJoin at several batch sizes and against sqlite3.

Every join runs on the batch pipeline: the leading leaf gathers column
batches, each :class:`~repro.minidb.operators.VecIndexJoin` probes its
inner side once per distinct key, checks the ON condition over the
merged batch and appends the inner table's columns (null-extended for an
unmatched LEFT-join row), and a VecFilter checks what the access paths
leave of the WHERE.  Every
shape here runs at batch sizes 1 (degenerate: one row per batch, the
row-at-a-time case), 7 and 4096, and on sqlite3.  The join emits rows in
nested-loop order (outer order, then inner order) at every batch size,
so batched results must match the batch-size-1 results row for row.
"""

import dataclasses
import random
import sqlite3

import pytest

import repro.minidb as minidb
from repro.core import ByName, Expansion, PrFilter, PTDataStore
from repro.core.query import QueryEngine
from repro.minidb import operators as ops
from repro.minidb import optimizer, vector, verifier
from repro.minidb.parser import parse
from repro.minidb.planner import IndexRange
from repro.minidb.verifier import PlanVerificationError
from repro.obs.metrics import metrics as obs_metrics

SEED = 20261017
N_RES = 240

SCHEMA = [
    "CREATE TABLE res (id INTEGER PRIMARY KEY, exec_id INTEGER, metric_id INTEGER, "
    "tool_id INTEGER, value REAL, tag TEXT)",
    "CREATE INDEX idx_res_exec ON res (exec_id)",
    "CREATE TABLE ex (id INTEGER PRIMARY KEY, name TEXT, grp INTEGER)",
    "CREATE TABLE met (id INTEGER PRIMARY KEY, name TEXT)",
    "CREATE TABLE tool (id INTEGER PRIMARY KEY, name TEXT)",
    "CREATE TABLE note (id INTEGER PRIMARY KEY, exec_id INTEGER, body TEXT)",
    "CREATE INDEX idx_note_exec ON note (exec_id)",
    "CREATE TABLE plain (k INTEGER, label TEXT)",
]


def _rows():
    rng = random.Random(SEED)
    ex = [(i, f"run{i % 9}", rng.randrange(0, 3)) for i in range(1, 31)]
    met = [(i, f"m{i}") for i in range(1, 6)]
    tool = [(i, f"t{i}") for i in range(1, 4)]
    res = [
        (
            i,
            # NULL and dangling (no ex row) outer keys
            rng.randrange(1, 34) if rng.random() > 0.08 else None,
            rng.randrange(1, 6),
            rng.randrange(1, 4),
            round(rng.uniform(0, 100), 2),
            rng.choice(["a", "b", None]),
        )
        for i in range(1, N_RES + 1)
    ]
    note = [
        (
            i,
            # several notes per execution, some with NULL keys
            rng.randrange(1, 31) if rng.random() > 0.1 else None,
            rng.choice(["alpha", "beta", "gamma"]),
        )
        for i in range(1, 91)
    ]
    plain = [(rng.randrange(1, 31), f"l{i}") for i in range(3000)]
    return {"res": res, "ex": ex, "met": met, "tool": tool, "note": note, "plain": plain}


def _populate(conn):
    cur = conn.cursor()
    for ddl in SCHEMA:
        cur.execute(ddl)
    for table, rows in _rows().items():
        marks = ", ".join("?" * len(rows[0]))
        cur.executemany(f"INSERT INTO {table} VALUES ({marks})", rows)
    conn.commit()


def normalize(rows):
    return sorted(rows, key=repr)


def _plan(conn, sql, params=()):
    return [r[0] for r in conn.execute("EXPLAIN " + sql, params).fetchall()]


IDS = tuple(range(3, 200, 4))
IN_IDS = "r.id IN (" + ", ".join(str(i) for i in IDS) + ")"

# (sql, params, number of joins expected in the plan)
SHAPES = [
    # 2- and 4-table chains (the second is the fetch statement's shape).
    (f"SELECT r.id, e.name FROM res r JOIN ex e ON e.id = r.exec_id WHERE {IN_IDS}", (), 1),
    (
        "SELECT r.id, e.name, m.name, t.name, r.value FROM res r "
        "JOIN ex e ON e.id = r.exec_id JOIN met m ON m.id = r.metric_id "
        f"JOIN tool t ON t.id = r.tool_id WHERE {IN_IDS}",
        (),
        3,
    ),
    # A non-unique inner index: several matches per key, NULL inner keys.
    (
        "SELECT r.id, n.id, n.body FROM res r JOIN note n ON n.exec_id = r.exec_id "
        f"WHERE {IN_IDS}",
        (),
        1,
    ),
    # Leading IndexEquality and IndexRange paths.
    ("SELECT r.id, n.body FROM res r JOIN note n ON n.exec_id = r.exec_id WHERE r.exec_id = ?", (7,), 1),
    (
        "SELECT r.id, e.grp FROM res r JOIN ex e ON e.id = r.exec_id "
        "WHERE r.id >= ? AND r.id < ?",
        (40, 90),
        1,
    ),
    # ON residuals beyond the key.
    (
        "SELECT r.id, e.name FROM res r JOIN ex e ON e.id = r.exec_id AND e.grp <> 1 "
        f"WHERE {IN_IDS}",
        (),
        1,
    ),
    (
        "SELECT r.id, n.id FROM res r JOIN note n ON n.exec_id = r.exec_id "
        f"AND n.body LIKE ? WHERE {IN_IDS}",
        ("%a",),
        1,
    ),
    # WHERE on inner columns.
    (
        "SELECT r.id, e.name, m.name FROM res r JOIN ex e ON e.id = r.exec_id "
        f"JOIN met m ON m.id = r.metric_id WHERE {IN_IDS} AND m.name <> 'm2' AND e.grp = 0",
        (),
        2,
    ),
    # Expression and constant keys.
    (
        f"SELECT r.id, e.name FROM res r JOIN ex e ON e.id = r.exec_id + 1 WHERE {IN_IDS}",
        (),
        1,
    ),
    (f"SELECT r.id, m.name FROM res r JOIN met m ON m.id = ? WHERE {IN_IDS}", (3,), 1),
    # Star projections.
    (f"SELECT t.* FROM res r JOIN tool t ON t.id = r.tool_id WHERE {IN_IDS}", (), 1),
    ("SELECT * FROM res r JOIN ex e ON e.id = r.exec_id WHERE r.id IN (?, ?, ?)", (5, 6, 7), 1),
    # DISTINCT, ORDER BY ... LIMIT, ORDER BY.
    (f"SELECT DISTINCT e.name FROM res r JOIN ex e ON e.id = r.exec_id WHERE {IN_IDS}", (), 1),
    (
        "SELECT r.id, e.name, r.value FROM res r JOIN ex e ON e.id = r.exec_id "
        f"WHERE {IN_IDS} ORDER BY e.name DESC, r.value LIMIT 7",
        (),
        1,
    ),
    (
        "SELECT r.id, n.body FROM res r JOIN note n ON n.exec_id = r.exec_id "
        f"WHERE {IN_IDS} ORDER BY n.body, r.id, n.id",
        (),
        1,
    ),
    # LEFT joins: ON checked inside the join, unmatched rows null-extended.
    (
        "SELECT r.id, n.id, n.body FROM res r LEFT JOIN note n "
        f"ON n.exec_id = r.exec_id AND n.body = 'alpha' WHERE {IN_IDS}",
        (),
        1,
    ),
    (
        "SELECT r.id, e.name, m.name FROM res r LEFT JOIN ex e ON e.id = r.exec_id "
        f"JOIN met m ON m.id = r.metric_id WHERE {IN_IDS} AND e.name IS NULL",
        (),
        2,
    ),
]

#: Statements whose subquery holds a join.
SUBQUERY_SHAPES = [
    # Correlated: the join runs once per outer row.
    "SELECT e.id FROM ex e WHERE EXISTS (SELECT 1 FROM res r JOIN met m "
    "ON m.id = r.metric_id WHERE r.exec_id = e.id AND m.name = 'm1')",
    "SELECT e.id, (SELECT COUNT(*) FROM res r JOIN note n ON n.exec_id = r.exec_id "
    "WHERE r.exec_id = e.id) FROM ex e",
    # Uncorrelated: the batched join plan serves every outer row.
    "SELECT id FROM ex WHERE id IN (SELECT r.exec_id FROM res r JOIN met m "
    f"ON m.id = r.metric_id WHERE {IN_IDS} AND m.name = 'm1')",
]


@pytest.fixture
def sq():
    s = sqlite3.connect(":memory:")
    _populate(s)
    yield s
    s.close()


def _minidb():
    conn = minidb.connect()
    _populate(conn)
    return conn


def _run(monkeypatch, batch_size, sql, params=()):
    """*sql*'s rows on a fresh database at *batch_size*."""
    monkeypatch.setattr(vector, "BATCH_SIZE", batch_size)
    conn = _minidb()
    rows = conn.execute(sql, params).fetchall()
    conn.close()
    return rows


@pytest.mark.parametrize("batch_size", [1, 7, 4096])
@pytest.mark.parametrize(
    "sql,params,njoins", SHAPES, ids=[f"shape{i}" for i in range(len(SHAPES))]
)
def test_join_shape_batched_vs_row_vs_sqlite(monkeypatch, sq, batch_size, sql, params, njoins):
    conn = _minidb()
    plan = _plan(conn, sql, params)
    conn.close()
    assert sum("JOIN (" in line for line in plan) == njoins, plan
    got = _run(monkeypatch, batch_size, sql, params)
    assert got, sql
    assert got == _run(monkeypatch, 1, sql, params), sql
    assert normalize(got) == normalize(sq.execute(sql, params).fetchall()), sql


@pytest.mark.parametrize("batch_size", [1, 7, 4096])
@pytest.mark.parametrize("sql", SUBQUERY_SHAPES)
def test_subquery_join_batched_vs_row_vs_sqlite(monkeypatch, sq, batch_size, sql):
    got = _run(monkeypatch, batch_size, sql)
    assert got == _run(monkeypatch, 1, sql), sql
    assert normalize(got) == normalize(sq.execute(sql).fetchall()), sql


def test_uncorrelated_subquery_runs_the_batched_join():
    conn = _minidb()
    inner = SUBQUERY_SHAPES[-1].split("IN (", 1)[1][:-1]
    plan = _plan(conn, inner)
    conn.close()
    assert any("JOIN (INNER)" in line for line in plan), plan
    assert any("SEARCH met AS m" in line for line in plan), plan


@pytest.mark.parametrize("batch_size", [1, 7, 4096])
def test_mixed_affinity_keys_batched_vs_row(monkeypatch, batch_size):
    """TEXT keys probing an INTEGER key and vice versa: every batch size
    gives the same rows (sqlite3 does not — see TestComparisonAffinityGap),
    pinned here as the answer minidb has always given."""
    # The verifier flags these mixed-affinity probes (PLN002) by design.
    monkeypatch.setattr(verifier, "VERIFY_PLANS", False)
    ddl = [
        "CREATE TABLE a (id INTEGER PRIMARY KEY, x TEXT, n INTEGER)",
        "CREATE TABLE b (id INTEGER PRIMARY KEY, y TEXT)",
        "CREATE INDEX idx_b_y ON b (y)",
    ]
    a = [(1, "2", 3), (2, "3", 1), (3, None, None), (4, "x", 2), (5, "1", 1)]
    b = [(1, "1"), (2, "2"), (3, "3"), (4, None)]
    queries = [
        "SELECT a.id, b.id FROM a JOIN b ON b.id = a.x WHERE a.id IN (1, 2, 3, 4, 5)",
        "SELECT a.id, b.id FROM a JOIN b ON b.y = a.n WHERE a.id IN (1, 2, 3, 4, 5)",
        "SELECT a.id, b.id FROM a JOIN b ON b.y = a.x WHERE a.id IN (1, 2, 3, 4, 5)",
    ]
    results = []
    for size in (batch_size, 1):
        monkeypatch.setattr(vector, "BATCH_SIZE", size)
        conn = minidb.connect()
        conn.executescript(";".join(ddl))
        conn.executemany("INSERT INTO a VALUES (?, ?, ?)", a)
        conn.executemany("INSERT INTO b VALUES (?, ?)", b)
        plans = [_plan(conn, q) for q in queries]
        assert all(any("JOIN (INNER)" in line for line in p) for p in plans), plans
        results.append([conn.execute(q).fetchall() for q in queries])
        conn.close()
    assert results[0] == results[1]
    assert results[0] == [[], [], [(1, 2), (2, 3), (5, 1)]]


def test_inner_row_deleted_mid_scan(monkeypatch):
    """Batches probed after a DELETE no longer see the deleted inner row."""
    monkeypatch.setattr(vector, "BATCH_SIZE", 3)
    conn = _minidb()
    outer = [r for r in _rows()["res"] if r[1] is not None and r[1] <= 30][:12]
    ids = ", ".join(str(r[0]) for r in outer)
    sql = f"SELECT r.id, e.id FROM res r JOIN ex e ON e.id = r.exec_id WHERE r.id IN ({ids})"
    everything = conn.execute(sql).fetchall()
    assert len(everything) == 12
    head_execs = {e for _r, e in everything[:3]}
    victim = next(e for _r, e in everything[3:] if e not in head_execs)
    cur = conn.cursor()
    cur.execute(sql)
    head = [cur.fetchone()]
    conn.execute("DELETE FROM ex WHERE id = ?", (victim,))
    got = head + cur.fetchall()
    cur.close()
    conn.close()
    # The first (prefetched) batch was joined before the DELETE.
    assert got == everything[:3] + [r for r in everything[3:] if r[1] != victim]


@pytest.mark.parametrize(
    "sql,marker",
    [
        (
            "SELECT r.id, e.name FROM res r LEFT JOIN ex e ON e.id = r.exec_id "
            f"WHERE {IN_IDS}",
            "JOIN (LEFT)",
        ),
        (
            f"SELECT r.id, p.label FROM res r JOIN plain p ON p.k = r.exec_id WHERE {IN_IDS}",
            "HashJoin plain AS p",
        ),
        (
            "SELECT r.id, n.id FROM res r JOIN note n ON n.exec_id > r.exec_id "
            f"WHERE {IN_IDS}",
            "RANGE",
        ),
        (
            f"SELECT COUNT(*) FROM res r JOIN ex e ON e.id = r.exec_id WHERE {IN_IDS}",
            "AGGREGATE",
        ),
        (
            "SELECT e.id, n.id FROM ex e JOIN note n ON n.exec_id = e.id",
            "SCAN ex",
        ),
    ],
    ids=["left", "hash", "range", "aggregate", "full_scan_lead"],
)
def test_other_joins_run_batched(monkeypatch, sq, sql, marker):
    """LEFT joins, hash and range inner paths, aggregates over joins and
    full-scan leads run on the same batched join."""
    conn = _minidb()
    plan = _plan(conn, sql)
    conn.close()
    assert any(marker in line for line in plan), plan
    assert any("JOIN (" in line for line in plan), plan
    got = _run(monkeypatch, 7, sql)
    assert got == _run(monkeypatch, 1, sql), sql
    assert normalize(got) == normalize(sq.execute(sql).fetchall())


def _fetch_and_resource_statements():
    """The join statements QueryEngine and PTDataStore issue on minidb."""
    store = PTDataStore()
    store.load_file("examples/data/quickstart.ptdf")
    seen = []
    real_query = store.backend.query
    real_query_one = store.backend.query_one

    def query(sql, params=()):
        seen.append((sql, tuple(params)))
        return real_query(sql, params)

    def query_one(sql, params=()):
        seen.append((sql, tuple(params)))
        return real_query_one(sql, params)

    store.backend.query = query
    store.backend.query_one = query_one
    qe = QueryEngine(store)
    results = qe.fetch(PrFilter([ByName("/lin-2p", Expansion.DESCENDANTS)]))
    store._resource_obj_cache.clear()
    qe.free_resources(results)  # one IN-probe lookup
    store.resource_by_id(1)  # one point lookup
    store.backend.query = real_query
    store.backend.query_one = real_query_one
    return store, results, [s for s in seen if " JOIN " in s[0]]


def test_fetch_and_resource_lookups_run_the_batched_join(monkeypatch):
    store, results, statements = _fetch_and_resource_statements()
    assert results
    conn = store.backend.connection
    kinds = {"fetch": 0, "resource": 0}
    for sql, params in statements:
        plan = _plan(conn, sql, params)
        joins = sum("JOIN (INNER)" in line for line in plan)
        if "FROM performance_result p" in sql:
            kinds["fetch"] += 1
            assert joins == 3, plan
        else:
            assert "resource_item r JOIN focus_framework f" in sql
            kinds["resource"] += 1
            assert joins == 1, plan
        # The plan verifies (VERIFY_PLANS is on in the suite) and returns
        # the batch-size-1 rows in the same order.
        got = conn.execute(sql, params).fetchall()
        monkeypatch.setattr(vector, "BATCH_SIZE", 1)
        assert conn.execute(sql, params).fetchall() == got
        monkeypatch.undo()
    assert kinds["fetch"] >= 1 and kinds["resource"] >= 2
    store.close()


def test_explain_analyze_counts_joined_rows(monkeypatch):
    monkeypatch.setattr(vector, "BATCH_SIZE", 7)
    conn = _minidb()
    data = _rows()
    notes_by_exec = {}
    for nid, exec_id, _body in data["note"]:
        notes_by_exec.setdefault(exec_id, []).append(nid)
    outer = [r for r in data["res"] if r[0] in IDS]
    pairs = sum(len(notes_by_exec.get(r[1], ())) for r in outer)
    matched = sum(len(notes_by_exec.get(r[1], ())) for r in outer if r[1] is not None)
    lines = [
        r[0]
        for r in conn.execute(
            "EXPLAIN ANALYZE SELECT r.id, n.id FROM res r "
            f"JOIN note n ON n.exec_id = r.exec_id WHERE {IN_IDS}"
        ).fetchall()
    ]
    conn.close()
    join = next(line for line in lines if "JOIN (INNER)" in line)
    leaf = next(line for line in lines if "IN-PROBE" in line)
    inner = next(line for line in lines if "SEARCH note AS n" in line)
    assert f"actual rows={len(outer)} batches={-(-len(outer) // 7)} loops=1" in leaf, lines
    # The inner side probes once per outer row and returns every live
    # match; a NULL outer key matches nothing, as SQL `=` requires, so
    # the equality probe that consumed the ON conjunct already drops the
    # NULL-key pairs and the join keeps every row it is handed.
    assert f"actual rows={matched} loops={len(outer)} " in inner, lines
    assert f"actual rows={matched} " in join and "loops=1" in join, lines
    assert pairs > matched
    assert lines[-1].startswith(f"ACTUAL: {matched} row(s) returned"), lines


def test_join_feeds_scan_and_lookup_counters(monkeypatch):
    conn = _minidb()
    monkeypatch.setattr(vector, "BATCH_SIZE", 7)
    data = _rows()
    exec_ids = {r[0] for r in data["ex"]}
    outer = [r for r in data["res"] if r[0] in IDS]
    live = [r for r in outer if r[1] in exec_ids]
    distinct_per_batch = sum(
        len({r[1] for r in outer[a : a + 7]}) for a in range(0, len(outer), 7)
    )
    obs_metrics.enable()
    obs_metrics.reset()
    try:
        got = conn.execute(
            f"SELECT r.id, e.name FROM res r JOIN ex e ON e.id = r.exec_id WHERE {IN_IDS}"
        ).fetchall()
        snap = obs_metrics.snapshot()
    finally:
        obs_metrics.disable()
        conn.close()
    assert len(got) == len(live)
    # One probe for the leading IN-probe, one per distinct key per batch.
    assert snap["minidb.access.index_lookups"]["value"] == 1 + distinct_per_batch
    # Scanned: the gathered outer rows plus one per (outer row, match).
    assert snap["minidb.rows.scanned"]["value"] == len(outer) + len(live)
    assert snap["minidb.vector.rows"]["value"] == len(outer) + len(live)


# ---------------------------------------------------------------------------
# Verifier contract


def _join_plan(conn, sql):
    plan = optimizer.plan_select(conn.db, parse(sql))
    op = plan.root
    stack = [op]
    while stack:
        op = stack.pop()
        if isinstance(op, ops.VecIndexJoin):
            return plan, op
        stack.extend(op.children())
    raise AssertionError("no VecIndexJoin in plan")


def _assert_pln(code, conn, plan):
    with pytest.raises(PlanVerificationError) as ei:
        verifier.verify_tree(conn.db, plan.root, names=list(plan.names))
    assert ei.value.code == code, str(ei.value)
    return ei.value


JOIN_SQL = f"SELECT r.id, e.name FROM res r JOIN ex e ON e.id = r.exec_id WHERE {IN_IDS}"


def test_join_plan_verifies_with_bindings_and_slots():
    conn = _minidb()
    plan, join = _join_plan(conn, JOIN_SQL)
    contract = verifier.verify_tree(conn.db, plan.root, names=list(plan.names))
    assert contract.width == 2
    assert set(contract.bindings) == {"r", "e"}
    # Slots are laid out table by table: the leaf's block, then the join's.
    scan = join.child
    assert isinstance(scan, ops.VecScan)
    assert join.key_kernels[0].slot < len(scan.slots)
    conn.close()


def test_pln002_bad_key_arity():
    conn = _minidb()
    plan, join = _join_plan(conn, JOIN_SQL)
    join.inner.path = dataclasses.replace(join.inner.path, key_exprs=[])
    err = _assert_pln("PLN002", conn, plan)
    assert "arity" in str(err)
    conn.close()


def test_pln003_bad_key_slot():
    conn = _minidb()
    plan, join = _join_plan(conn, JOIN_SQL)
    join.key_kernels = [vector._Kernel(lambda b, ctx: [], slot=99)]
    err = _assert_pln("PLN003", conn, plan)
    assert "slot 99" in str(err)
    conn.close()


def test_range_inner_path_needs_a_kernel_per_bound():
    conn = _minidb()
    plan, join = _join_plan(conn, JOIN_SQL)
    p = join.inner.path
    # A range probe with a low and a high bound consumes two values; the
    # join computes only one.
    key = p.key_exprs[0]
    join.inner.path = IndexRange(
        p.table, p.binding, p.index, [], low=(">=", key), high=("<=", key)
    )
    err = _assert_pln("PLN002", conn, plan)
    assert "key kernels" in str(err)
    conn.close()


def test_pln004_row_child():
    conn = _minidb()
    plan, join = _join_plan(conn, JOIN_SQL)
    # A row-batch producer cannot feed a join, which merges column batches.
    join.child = optimizer.plan_select(conn.db, parse("SELECT id FROM res")).root
    _assert_pln("PLN004", conn, plan)
    conn.close()
