"""Cached SELECT plans run as they are: stateless operators, per-run state.

A statement-cache hit runs the cached operator tree itself, not a copy,
so everything one run needs lives in its own generator frames and its
own ``ExecStats``.  These tests drain one cached plan from two cursors
at once, interleave a write between their fetches, and check that the
metered actuals of one run never leak into the next.
"""

import re

import pytest

import repro.minidb as minidb
from repro.minidb import vector
from repro.obs.metrics import metrics as global_metrics
from repro.obs.profiler import profiler as global_profiler

BATCH_SIZES = [1, 7, 4096]
N_ROWS = 60
N_KEYS = 6

#: (SQL, parameters): exact index probes whose rows a write can move
#: off the probed key while a cursor is mid-stream.
GATHERS = [
    ("SELECT id, v FROM t WHERE k = ?", (2,)),
    ("SELECT id, v FROM t WHERE k IN (?, ?, ?)", (1, 3, 4)),
]


@pytest.fixture(params=BATCH_SIZES, ids=lambda b: f"batch{b}")
def batch_size(request, monkeypatch):
    monkeypatch.setattr(vector, "BATCH_SIZE", request.param)
    return request.param


@pytest.fixture
def conn():
    c = minidb.connect()
    c.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, k INTEGER, v TEXT)")
    c.execute("CREATE INDEX idx_t_k ON t (k)")
    c.executemany(
        "INSERT INTO t VALUES (?, ?, ?)",
        [(i, i % N_KEYS, f"v{i}") for i in range(1, N_ROWS + 1)],
    )
    c.commit()
    yield c
    c.close()


def _fetch(cur, n):
    out = []
    for _ in range(n):
        row = cur.fetchone()
        if row is None:
            break
        out.append(row)
    return out


def _drain(cur):
    out = []
    while True:
        row = cur.fetchone()
        if row is None:
            return out
        out.append(row)


def _interleave(a, b):
    """Alternate ``fetchone`` over cursors *a* and *b* until both end."""
    got_a, got_b = [], []
    live = {"a": True, "b": True}
    while live["a"] or live["b"]:
        for name, cur, got in (("a", a, got_a), ("b", b, got_b)):
            if live[name]:
                row = cur.fetchone()
                if row is None:
                    live[name] = False
                else:
                    got.append(row)
    return got_a, got_b


def _pulled(fetched, size):
    """Rows a cursor holds after *fetched* ``fetchone`` calls: it pulls
    its first batch at ``execute`` and the next one when the current
    batch runs out."""
    return max(1, -(-fetched // size)) * size


@pytest.mark.parametrize("sql, params", GATHERS)
def test_two_cursors_interleave_one_cached_plan(conn, batch_size, sql, params):
    want = conn.execute(sql, params).fetchall()
    assert want
    plan = conn._statement_cache[sql].plan
    a, b = conn.cursor(), conn.cursor()
    a.execute(sql, params)
    b.execute(sql, params)
    assert _interleave(a, b) == (want, want)
    # a re-executes while b is mid-stream: each run keeps its own state.
    a.execute(sql, params)
    b.execute(sql, params)
    head_b = _fetch(b, 5)
    head_a = _fetch(a, 3)
    a.execute(sql, params)
    got_a, rest_b = _interleave(a, b)
    assert head_a == want[:3]
    assert got_a == want
    assert head_b + rest_b == want
    # Every execution ran the one cached plan: no copy, no re-plan.
    assert conn._statement_cache[sql].plan is plan


@pytest.mark.parametrize("sql, params", GATHERS)
def test_update_between_fetches_of_two_cursors(conn, batch_size, sql, params):
    """A write between fetches: the cursor already mid-stream keeps the
    rows it pulled before the write, then only rows that still carry a
    probed key (the streaming gather's ``data_version`` guard); the
    cursor re-executed after the write sees the table as it is then."""
    keys = set(params)
    before = conn.execute(sql, params).fetchall()
    plan = conn._statement_cache[sql].plan
    a, b = conn.cursor(), conn.cursor()
    a.execute(sql, params)
    b.execute(sql, params)
    fetched = 2
    head_a = _fetch(a, fetched)
    head_b = _fetch(b, 1)
    # Move every other probed row off its key and rename the rest.
    moved = [row[0] for row in before[1::2]]
    conn.execute(
        f"UPDATE t SET k = -1 WHERE id IN ({', '.join('?' * len(moved))})", moved
    )
    conn.execute("UPDATE t SET v = v || '!' WHERE k >= 0")
    after = dict(
        (rid, (k, v)) for rid, k, v in conn.execute("SELECT id, k, v FROM t").fetchall()
    )
    fresh = conn.execute(sql, params).fetchall()
    assert fresh == [
        (rid, after[rid][1]) for rid, _v in before if after[rid][0] in keys
    ]
    b.execute(sql, params)  # re-executed while a is mid-stream
    rest_a, got_b = _interleave(a, b)
    assert got_b == fresh
    held = _pulled(fetched, batch_size)
    assert head_a + rest_a == before[:held] + [
        (rid, after[rid][1]) for rid, _v in before[held:] if after[rid][0] in keys
    ]
    assert head_b == before[:1]
    assert conn._statement_cache[sql].plan is plan


def test_sequential_runs_match_a_fresh_connection(batch_size):
    """The cached plan's answer equals a first (uncached) execution's."""
    sql = "SELECT DISTINCT k FROM t WHERE id > ? ORDER BY k DESC"
    rows = [(i, i % N_KEYS, f"v{i}") for i in range(1, N_ROWS + 1)]
    cached = minidb.connect()
    cached.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, k INTEGER, v TEXT)")
    cached.executemany("INSERT INTO t VALUES (?, ?, ?)", rows)
    runs = [cached.execute(sql, (n,)).fetchall() for n in (0, 10, 55, 0)]
    cached.close()
    for n, got in zip((0, 10, 55, 0), runs):
        fresh = minidb.connect()
        fresh.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, k INTEGER, v TEXT)")
        fresh.executemany("INSERT INTO t VALUES (?, ?, ?)", rows)
        assert got == fresh.execute(sql, (n,)).fetchall()
        fresh.close()


# ---------------------------------------------------------------------------
# Actuals belong to one execution.


@pytest.fixture
def prof():
    global_profiler.enable(slow_seconds=0.0, sample_every=0, max_statements=256,
                           flight_capacity=64)
    global_profiler.reset()
    yield global_profiler
    global_profiler.disable()
    global_profiler.reset()


def _actuals(flight):
    return [(n["op"], n["rows"], n["batches"], n["loops"]) for n in flight["nodes"]]


@pytest.mark.parametrize(
    "sql, params",
    GATHERS + [
        ("SELECT t.v, u.v FROM t JOIN t AS u ON u.id = t.k WHERE t.id > ?", (40,)),
        ("SELECT k, COUNT(*) FROM t GROUP BY k ORDER BY k", ()),
    ],
)
def test_profiled_runs_record_the_same_actuals(conn, prof, sql, params):
    for _ in range(5):
        conn.execute(sql, params).fetchall()
    flights = [f for f in prof.snapshot()["flights"] if f["fingerprint"].startswith("SELECT")]
    assert len(flights) == 5
    first = _actuals(flights[0])
    assert any(rows for _op, rows, _b, _l in first)
    for flight in flights[1:]:
        assert _actuals(flight) == first


def test_explain_analyze_actuals_do_not_accumulate(conn):
    sql = "EXPLAIN ANALYZE SELECT id, v FROM t WHERE k IN (1, 2)"
    strip = re.compile(r"time=\d+\.\d{3} ms")
    first = [strip.sub("", r[0]) for r in conn.execute(sql).fetchall()[:-1]]
    for _ in range(3):
        again = [strip.sub("", r[0]) for r in conn.execute(sql).fetchall()[:-1]]
        assert again == first


# ---------------------------------------------------------------------------
# EXPLAIN ANALYZE output shape.

_ANALYZED = re.compile(
    r"^(?P<indent>(  )*)(?P<describe>\S.*?)"
    r" \(actual rows=\d+( batches=\d+)? loops=\d+ time=\d+\.\d{3} ms\)$"
)
_ESTIMATE = re.compile(r"  \(~\d+ rows\)$")


@pytest.mark.parametrize(
    "stmt",
    [
        "SELECT v FROM t WHERE id = 7",
        "SELECT DISTINCT k FROM t WHERE k IN (1, 2, 3)",
        "SELECT t.v, u.v FROM t JOIN t AS u ON u.id = t.k WHERE t.id > 50",
        "SELECT k, COUNT(*) FROM t GROUP BY k ORDER BY k LIMIT 3",
    ],
)
def test_explain_analyze_shape(conn, stmt):
    """Every EXPLAIN line comes back with its actuals, in order, and a
    final ACTUAL line; the operator text is EXPLAIN's."""
    explain = [_ESTIMATE.sub("", r[0]) for r in conn.execute("EXPLAIN " + stmt).fetchall()]
    lines = [r[0] for r in conn.execute("EXPLAIN ANALYZE " + stmt).fetchall()]
    assert re.fullmatch(r"ACTUAL: \d+ row\(s\) returned in \d+\.\d{3} ms", lines[-1])
    body = lines[:-1]
    assert len(body) == len(explain)
    for line, plain in zip(body, explain):
        m = _ANALYZED.match(line)
        assert m, line
        assert m.group("indent") + m.group("describe") == plain


def test_explain_analyze_dml_shape(conn):
    lines = [r[0] for r in conn.execute("EXPLAIN ANALYZE DELETE FROM t WHERE k = 5").fetchall()]
    assert lines[-1].startswith("ACTUAL: 10 row(s) affected in ")
    assert all(_ANALYZED.match(line) for line in lines[:-1]), lines


def test_rows_returned_counts_cursor_and_explain_analyze(conn):
    """``minidb.rows.returned`` counts what a cursor drains and what the
    SELECT inside an EXPLAIN ANALYZE produces."""
    returned = global_metrics.counter("minidb.rows.returned", unit="rows")
    global_metrics.enable()
    global_metrics.reset()
    try:
        conn.execute("SELECT id FROM t WHERE k = 1").fetchall()
        assert returned.value == N_ROWS // N_KEYS
        conn.execute("EXPLAIN ANALYZE SELECT id FROM t WHERE k IN (1, 2)").fetchall()
        assert returned.value == 3 * N_ROWS // N_KEYS
    finally:
        global_metrics.disable()
        global_metrics.reset()
