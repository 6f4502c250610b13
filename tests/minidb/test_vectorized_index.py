"""Index-probe plans: the gather leaf at several batch sizes and against sqlite3.

Index access paths (IndexEquality, IndexRange, InProbe) feed the batch
pipeline through :class:`~repro.minidb.operators.VecScan`'s gather leaf,
which pulls row ids from :func:`~repro.minidb.operators.path_rowids`.
Every shape here runs at batch sizes 1 (degenerate: one row per batch,
the row-at-a-time case), 7 (prime, ragged final batches) and 4096 (one
batch), and on sqlite3.  The gather visits row ids in the same order at
every batch size, so the batched results must match the batch-size-1
results row for row, not just as bags.
"""

import random
import sqlite3

import pytest

import repro.minidb as minidb
from repro.minidb import optimizer, vector
from repro.minidb import operators as ops
from repro.minidb.parser import parse
from repro.obs.metrics import metrics as obs_metrics

SEED = 20261017
N_ROWS = 300

SCHEMA = [
    "CREATE TABLE fr (id INTEGER PRIMARY KEY, focus INTEGER, res INTEGER, "
    "kind TEXT)",
    "CREATE INDEX idx_fr_res ON fr (res)",
    "CREATE INDEX idx_fr_focus_kind ON fr (focus, kind)",
    "CREATE TABLE probe (id INTEGER PRIMARY KEY, r INTEGER)",
]


def _rows():
    rng = random.Random(SEED)
    fr = [
        (
            i,
            rng.randrange(0, 60),
            rng.randrange(0, 40) if rng.random() > 0.05 else None,
            rng.choice(["a", "b", "c", None]),
        )
        for i in range(1, N_ROWS + 1)
    ]
    probe = [(i, rng.randrange(0, 45)) for i in range(1, 21)]
    return fr, probe


def _populate(conn):
    fr, probe = _rows()
    cur = conn.cursor()
    for ddl in SCHEMA:
        cur.execute(ddl)
    cur.executemany("INSERT INTO fr VALUES (?, ?, ?, ?)", fr)
    cur.executemany("INSERT INTO probe VALUES (?, ?)", probe)
    conn.commit()


def normalize(rows):
    return sorted(rows, key=repr)


def _plan(conn, sql, params=()):
    return [r[0] for r in conn.execute("EXPLAIN " + sql, params).fetchall()]


# (sql, params, substring of the index leaf's EXPLAIN line)
SHAPES = [
    # IN-probe: duplicate items, a NULL item, no matches.
    ("SELECT id, focus FROM fr WHERE res IN (?, ?, ?, ?)", (3, 3, 7, 3), "IN-PROBE"),
    ("SELECT id, res FROM fr WHERE res IN (?, NULL, ?)", (5, 9), "IN-PROBE"),
    ("SELECT id FROM fr WHERE res IN (?, ?)", (1000, 1001), "IN-PROBE"),
    ("SELECT id FROM fr WHERE res IN (?, ?, ?) AND kind = ?", (1, 2, 4, "a"), "IN-PROBE"),
    # Composite index (focus, kind): equality, prefix and range probes.
    (
        "SELECT id, kind FROM fr WHERE focus = ? AND kind = ?",
        (12, "a"),
        "USING INDEX idx_fr_focus_kind (focus, kind)",
    ),
    ("SELECT id, kind FROM fr WHERE focus = ?", (12,), "RANGE (prefix)"),
    # Residual comparisons over NULL-bearing gathered columns.
    ("SELECT id FROM fr WHERE focus = ? AND res <> ?", (29, 7), "RANGE (prefix)"),
    ("SELECT id FROM fr WHERE res IN (?, ?) AND kind <> ?", (2, 3, "a"), "IN-PROBE"),
    ("SELECT id, focus FROM fr WHERE focus >= ? AND focus < ?", (10, 20), "RANGE"),
    ("SELECT id FROM fr WHERE res = ?", (6,), "USING INDEX idx_fr_res (res)"),
    # DISTINCT, ORDER BY ... LIMIT and GROUP BY over an IN-probe.
    ("SELECT DISTINCT focus FROM fr WHERE res IN (?, ?, ?, ?)", (1, 2, 3, 4), "IN-PROBE"),
    ("SELECT DISTINCT kind FROM fr WHERE res IN (?, ?, ?)", (5, 6, 7), "IN-PROBE"),
    (
        "SELECT id, res FROM fr WHERE res IN (?, ?, ?) ORDER BY res DESC, id LIMIT 5",
        (8, 9, 10),
        "IN-PROBE",
    ),
    (
        "SELECT id, focus FROM fr WHERE res IN (?, ?) ORDER BY focus, id",
        (11, 12),
        "IN-PROBE",
    ),
    (
        "SELECT res, COUNT(*), MAX(focus) FROM fr WHERE res IN (?, ?, ?) GROUP BY res",
        (13, 14, 15),
        "IN-PROBE",
    ),
]

#: Statements whose subquery runs an index probe once per outer row.
SUBQUERY_SHAPES = [
    # Correlated: the inner index key is the outer row's column r.
    "SELECT id FROM probe WHERE EXISTS (SELECT 1 FROM fr WHERE res = r)",
    "SELECT id FROM probe WHERE r IN (SELECT focus FROM fr WHERE res = r)",
    "SELECT id FROM probe WHERE NOT EXISTS (SELECT 1 FROM fr WHERE res = r AND kind = 'a')",
    # Uncorrelated: the batched subquery plan is reused across outer rows.
    "SELECT id FROM probe WHERE r IN (SELECT res FROM fr WHERE res IN (1, 2, 3, 30))",
    "SELECT id FROM probe WHERE EXISTS (SELECT 1 FROM fr WHERE res IN (38, 39))",
    # A single-row FROM-less query around the probes.
    "SELECT (SELECT COUNT(*) FROM fr WHERE res IN (1, 2, 3)), "
    "(SELECT MAX(id) FROM fr WHERE focus = 12)",
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
    "sql,params,leaf", SHAPES, ids=[f"shape{i}" for i in range(len(SHAPES))]
)
def test_index_shape_batched_vs_row_vs_sqlite(monkeypatch, sq, batch_size, sql, params, leaf):
    conn = _minidb()
    assert any(leaf in line for line in _plan(conn, sql, params)), sql
    conn.close()
    got = _run(monkeypatch, batch_size, sql, params)
    assert got == _run(monkeypatch, 1, sql, params), sql
    assert normalize(got) == normalize(sq.execute(sql, params).fetchall()), sql


@pytest.mark.parametrize("batch_size", [1, 7, 4096])
@pytest.mark.parametrize("sql", SUBQUERY_SHAPES)
def test_subquery_probe_batched_vs_row_vs_sqlite(monkeypatch, sq, batch_size, sql):
    got = _run(monkeypatch, batch_size, sql)
    assert got == _run(monkeypatch, 1, sql), sql
    assert normalize(got) == normalize(sq.execute(sql).fetchall()), sql


def test_in_probe_leaf_prints_batched():
    conn = _minidb()
    sql = "SELECT DISTINCT focus FROM fr WHERE res IN (?, ?)"
    plan = _plan(conn, sql, (1, 2))
    leaf = optimizer.plan_select(conn.db, parse(sql)).root
    conn.close()
    assert plan[0].startswith("DISTINCT"), plan
    assert plan[-1].strip().startswith(
        "SEARCH fr AS fr USING INDEX idx_fr_res IN-PROBE (2 keys)"
    ), plan
    while leaf.children():
        leaf = leaf.children()[0]
    assert isinstance(leaf, ops.VecScan) and leaf.BATCHED


def test_rows_deleted_mid_scan_are_skipped(monkeypatch):
    """Like the row scan: ids whose row is gone when gathered never surface."""
    monkeypatch.setattr(vector, "BATCH_SIZE", 3)
    conn = _minidb()
    sql = "SELECT id, res FROM fr WHERE res IN (3, 4, 5)"
    everything = conn.execute(sql).fetchall()
    cur = conn.cursor()
    cur.execute(sql)
    head = [cur.fetchone()]
    conn.execute("DELETE FROM fr WHERE res = 4")
    got = head + cur.fetchall()
    cur.close()
    conn.close()
    # The first (prefetched) batch is served as-is; later batches are
    # gathered after the DELETE and skip the deleted rows.
    first, rest = everything[:3], everything[3:]
    assert got == first + [r for r in rest if r[1] != 4]
    assert any(r[1] == 4 for r in rest)


def test_explain_analyze_counts_gathered_rows(monkeypatch):
    monkeypatch.setattr(vector, "BATCH_SIZE", 7)
    conn = _minidb()
    fr, _probe = _rows()
    keys = {1, 2, 3, 4, 5}
    n = sum(1 for row in fr if row[2] in keys)
    lines = [
        r[0]
        for r in conn.execute(
            "EXPLAIN ANALYZE SELECT id FROM fr WHERE res IN (1, 2, 3, 4, 5)"
        ).fetchall()
    ]
    conn.close()
    leaf = next(line for line in lines if "IN-PROBE" in line)
    assert f"actual rows={n} batches={-(-n // 7)} loops=1" in leaf, lines
    assert lines[-1].startswith(f"ACTUAL: {n} row(s) returned"), lines


def test_gather_feeds_vector_and_scan_counters(monkeypatch):
    conn = _minidb()
    monkeypatch.setattr(vector, "BATCH_SIZE", 7)
    fr, _probe = _rows()
    n = sum(1 for row in fr if row[2] in (6, 7))
    obs_metrics.enable()
    obs_metrics.reset()
    try:
        got = conn.execute("SELECT id FROM fr WHERE res IN (6, 7)").fetchall()
        snap = obs_metrics.snapshot()
    finally:
        obs_metrics.disable()
        conn.close()
    assert len(got) == n
    assert snap["minidb.vector.rows"]["value"] == n
    assert snap["minidb.vector.batches"]["value"] == -(-n // 7)
    assert snap["minidb.rows.scanned"]["value"] == n
    assert snap["minidb.access.index_lookups"]["value"] == 1
    assert snap.get("minidb.access.full_scans", {}).get("value", 0) == 0
