"""Unit coverage for the batch execution path.

The differential corpus (test_operators.py) pins end-to-end agreement
with sqlite3 at several batch sizes; this module covers the pieces in
isolation — columnar segment encodings, snapshot invalidation,
mid-scan mutation fallback, kernel semantics on edge values, the row
kernel that serves expressions with no vector form, the batch cursor
contract and the observability counters.
"""

import pytest

import repro.minidb as minidb
from repro.minidb import optimizer, vector
from repro.minidb import operators as ops
from repro.minidb.errors import DataError, ProgrammingError
from repro.minidb.executor import Executor
from repro.minidb.parser import parse
from repro.minidb.storage import SEGMENT_ROWS, ColumnSegment
from repro.obs import metrics as obs_metrics


@pytest.fixture
def vec_conn():
    conn = minidb.connect()
    yield conn
    conn.close()


def _plan(conn, sql, params=()):
    return [r[0] for r in conn.execute("EXPLAIN " + sql, params).fetchall()]


# ---------------------------------------------------------------------------
# Columnar segments.


class TestColumnSegment:
    @pytest.mark.parametrize("values, typecode", [
        ((10, 20, 30), "b"),
        ((-128, 127, 0), "b"),
        ((128, 20, 30), "h"),
        ((-32769, 20, 30), "i"),
        ((2**31, 20, 30), "q"),
        ((-(2**63), 2**63 - 1, 0), "q"),
    ])
    def test_int_column_uses_the_narrowest_typed_array(self, values, typecode):
        seg = ColumnSegment([1, 2, 3], [(v,) for v in values])
        kind, payload = seg.column(0)
        assert kind == "i"
        assert payload.typecode == typecode
        assert seg.slice(0, 1, 3) == (list(values[1:]), "i")

    def test_float_column_uses_typed_array(self):
        seg = ColumnSegment([1, 2], [(1.5,), (2.5,)])
        kind, payload = seg.column(0)
        assert kind == "f"
        assert seg.slice(0, 0, 2) == ([1.5, 2.5], "f")

    def test_huge_int_falls_back_to_objects(self):
        seg = ColumnSegment([1, 2], [(2**70,), (1,)])
        kind, _payload = seg.column(0)
        assert kind == "o"
        assert seg.slice(0, 0, 2) == ([2**70, 1], "o")

    def test_repeated_strings_dictionary_encode(self):
        rows = [("a",), ("b",)] * 50
        seg = ColumnSegment(list(range(100)), rows)
        kind, (codes, values) = seg.column(0)
        assert kind == "sd"
        assert sorted(values) == ["a", "b"]
        vals, batch_kind = seg.slice(0, 0, 4)
        assert vals == ["a", "b", "a", "b"]
        assert batch_kind == "s"  # decoded: batch sees plain strings

    def test_high_cardinality_strings_stay_plain(self):
        rows = [(f"s{i}",) for i in range(100)]
        seg = ColumnSegment(list(range(100)), rows)
        kind, _payload = seg.column(0)
        assert kind == "s"

    def test_mixed_and_null_columns_are_objects(self):
        seg = ColumnSegment([1, 2, 3], [(1,), (None,), ("x",)])
        kind, _payload = seg.column(0)
        assert kind == "o"

    def test_bool_is_not_an_int_column(self):
        # type() exactness: bools must not silently become int64s.
        seg = ColumnSegment([1, 2], [(True,), (1,)])
        kind, _payload = seg.column(0)
        assert kind == "o"


class TestColumnStoreInvalidation:
    def test_mutation_bumps_version_and_drops_snapshot(self):
        conn = minidb.connect()
        conn.execute("CREATE TABLE t (a INTEGER)")
        conn.execute("INSERT INTO t VALUES (1)")
        table = conn.db.table("t")
        store = table.column_store()
        assert table.column_store() is store  # cached while unchanged
        conn.execute("UPDATE t SET a = 2")
        assert table.data_version != store.version
        fresh = table.column_store()
        assert fresh is not store
        assert fresh.nrows == 1
        conn.close()

    def test_rollback_restores_and_invalidates(self):
        conn = minidb.connect()
        conn.execute("CREATE TABLE t (a INTEGER)")
        conn.execute("INSERT INTO t VALUES (1)")
        conn.commit()
        v0 = conn.db.table("t").data_version
        conn.execute("INSERT INTO t VALUES (2)")
        conn.rollback()
        assert conn.db.table("t").data_version != v0  # undo also mutates
        assert conn.execute("SELECT COUNT(*) FROM t").fetchone() == (1,)
        conn.close()

    def test_mid_scan_mutation_serves_snapshot_keys_live(self, vec_conn):
        """Matches SeqScan: deleted rows vanish, the scan never crashes."""
        vec_conn.execute("CREATE TABLE t (a INTEGER)")
        vec_conn.executemany("INSERT INTO t VALUES (?)", [(i,) for i in range(50)])
        cur = vec_conn.cursor()
        monkey_bs = vector.BATCH_SIZE
        try:
            vector.BATCH_SIZE = 10
            cur.execute("SELECT a FROM t")
            first = cur.fetchone()
            assert first == (0,)
            vec_conn.execute("DELETE FROM t WHERE a >= 40")
            got = [first] + cur.fetchall()
        finally:
            vector.BATCH_SIZE = monkey_bs
        values = sorted(v for (v,) in got)
        # The prefetched batch (0..9) is served as-is; later batches come
        # from live lookups, so the deleted tail never surfaces.
        assert values[:10] == list(range(10))
        assert all(v < 40 for v in values[10:])
        cur.close()


# ---------------------------------------------------------------------------
# Kernel semantics.


class TestKernelSemantics:
    @pytest.fixture
    def conn(self, vec_conn):
        vec_conn.execute(
            "CREATE TABLE t (id INTEGER PRIMARY KEY, a INTEGER, s TEXT, f REAL)"
        )
        vec_conn.executemany(
            "INSERT INTO t VALUES (?, ?, ?, ?)",
            [
                (1, 10, "alpha", 1.5),
                (2, None, "beta", 2.5),
                (3, -3, None, None),
                (4, 0, "alpha", 0.0),
            ],
        )
        return vec_conn

    def test_three_valued_logic_matches_row_engine(self, conn):
        # Row 3 has s = NULL: FALSE OR NULL is NULL, NOT NULL is NULL,
        # so it is excluded -- only row 4 satisfies the predicate.
        sql = "SELECT id FROM t WHERE NOT (a > 0 OR s = 'beta')"
        assert conn.execute(sql).fetchall() == [(4,)]

    def test_null_propagation_in_arithmetic(self, conn):
        got = conn.execute("SELECT a + 1, f * 2 FROM t ORDER BY id").fetchall()
        assert got == [(11, 3.0), (None, 5.0), (-2, None), (1, 0.0)]

    def test_division_by_zero_yields_null(self, conn):
        # Integer division truncates toward zero; x / 0 and x / NULL are NULL.
        got = conn.execute("SELECT 10 / a FROM t ORDER BY id").fetchall()
        assert got == [(1,), (None,), (-3,), (None,)]

    def test_string_concat_and_like(self, conn):
        got = conn.execute(
            "SELECT id FROM t WHERE s || '!' LIKE 'alpha%'"
        ).fetchall()
        assert got == [(1,), (4,)]

    def test_in_list_with_null_semantics(self, conn):
        # NULL IN (...) is NULL, never TRUE.
        got = conn.execute("SELECT id FROM t WHERE s IN ('alpha', 'x')").fetchall()
        assert got == [(1,), (4,)]
        got = conn.execute(
            "SELECT id FROM t WHERE s NOT IN ('alpha', 'x')"
        ).fetchall()
        assert got == [(2,)]

    def test_scalar_subexpression_evaluated_once_per_batch(self, conn):
        got = conn.execute(
            "SELECT id FROM t WHERE a >= 1 + ?", (4,)
        ).fetchall()
        assert got == [(1,)]

    def test_function_error_matches_row_engine(self, conn):
        # The interpreter lets the scalar function's ValueError propagate;
        # the vector kernel must surface the same exception, and it must
        # do so at execute() (first-batch prefetch), not at fetch.
        with pytest.raises(ValueError):
            conn.execute("SELECT SUBSTR(s, 'x') FROM t")

    def test_cast_error_semantics(self, conn):
        got = conn.execute("SELECT CAST(s AS INTEGER) FROM t ORDER BY id").fetchall()
        row = minidb.connect()
        row.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, s TEXT)")
        row.executemany(
            "INSERT INTO t VALUES (?, ?)",
            [(1, "alpha"), (2, "beta"), (3, None), (4, "alpha")],
        )
        expect = row.execute("SELECT CAST(s AS INTEGER) FROM t ORDER BY id").fetchall()
        row.close()
        assert got == expect


# ---------------------------------------------------------------------------
# Plans, cursor contract, counters.


class TestBatchPlansAndCursor:
    def test_index_paths_beat_vectorization(self, vec_conn):
        vec_conn.execute("CREATE TABLE t (a INTEGER)")
        vec_conn.execute("CREATE INDEX idx_a ON t (a)")
        vec_conn.executemany("INSERT INTO t VALUES (?)", [(i,) for i in range(64)])
        plan = _plan(vec_conn, "SELECT a FROM t WHERE a = 3")
        assert any("USING INDEX idx_a" in l for l in plan), plan

    def test_fetchone_slices_batches(self, vec_conn):
        vec_conn.execute("CREATE TABLE t (a INTEGER)")
        vec_conn.executemany("INSERT INTO t VALUES (?)", [(i,) for i in range(10)])
        cur = vec_conn.execute("SELECT a FROM t ORDER BY a")
        assert [cur.fetchone() for _ in range(3)] == [(0,), (1,), (2,)]
        assert cur.fetchmany(4) == [(3,), (4,), (5,), (6,)]
        assert cur.fetchall() == [(7,), (8,), (9,)]
        assert cur.fetchone() is None
        cur.close()

    def test_two_cursors_stream_independently(self, vec_conn):
        vec_conn.execute("CREATE TABLE t (a INTEGER)")
        vec_conn.executemany("INSERT INTO t VALUES (?)", [(i,) for i in range(20)])
        a = vec_conn.cursor()
        b = vec_conn.cursor()
        a.execute("SELECT a FROM t ORDER BY a")
        b.execute("SELECT a FROM t ORDER BY a DESC")
        assert [(a.fetchone()[0], b.fetchone()[0]) for _ in range(3)] == [
            (0, 19),
            (1, 18),
            (2, 17),
        ]
        a.close()
        b.close()

    def test_execute_surfaces_first_batch_errors(self, vec_conn):
        vec_conn.execute("CREATE TABLE t (a INTEGER)")
        vec_conn.executemany("INSERT INTO t VALUES (?)", [(i,) for i in range(5)])
        cur = vec_conn.cursor()
        with pytest.raises(ProgrammingError):
            # The error comes from the prefetched batch at execute() time,
            # not from the first fetch.
            cur.execute("SELECT LENGTH(a, a) FROM t")
        cur.close()

    def test_explain_analyze_reports_batches(self, vec_conn, monkeypatch):
        monkeypatch.setattr(vector, "BATCH_SIZE", 8)
        vec_conn.execute("CREATE TABLE t (a INTEGER)")
        vec_conn.executemany("INSERT INTO t VALUES (?)", [(i,) for i in range(20)])
        lines = [
            r[0]
            for r in vec_conn.execute(
                "EXPLAIN ANALYZE SELECT a FROM t WHERE a >= 4"
            ).fetchall()
        ]
        text = "\n".join(lines)
        assert "batches=3" in text  # ceil(20 / 8)
        assert "ACTUAL: 16 row(s) returned" in text

    def test_vector_counters_and_store_builds(self, vec_conn):
        vec_conn.execute("CREATE TABLE t (a INTEGER)")
        vec_conn.executemany(
            "INSERT INTO t VALUES (?)", [(i,) for i in range(SEGMENT_ROWS + 10)]
        )
        obs_metrics.enable()
        obs_metrics.reset()
        try:
            vec_conn.execute("SELECT a FROM t").fetchall()
            snap = obs_metrics.snapshot()
        finally:
            obs_metrics.disable()
        assert snap["minidb.vector.rows"]["value"] == SEGMENT_ROWS + 10
        expected_batches = -(-(SEGMENT_ROWS) // vector.BATCH_SIZE) + 1
        assert snap["minidb.vector.batches"]["value"] == expected_batches
        assert snap["minidb.column_store.builds"]["value"] == 1
        assert snap["minidb.column_store.segments"]["value"] == 2

    def test_aggregate_plan_is_vectorized(self, vec_conn):
        vec_conn.execute("CREATE TABLE t (g TEXT, v INTEGER)")
        vec_conn.executemany(
            "INSERT INTO t VALUES (?, ?)",
            [("ab"[i % 2], i) for i in range(32)],
        )
        sql = "SELECT g, SUM(v) FROM t GROUP BY g ORDER BY g"
        plan = _plan(vec_conn, sql)
        assert any(l.strip().startswith("AGGREGATE") for l in plan), plan
        assert vec_conn.execute(sql).fetchall() == [
            ("a", sum(range(0, 32, 2))),
            ("b", sum(range(1, 32, 2))),
        ]

    def test_subquery_shapes_fall_back(self, vec_conn):
        vec_conn.execute("CREATE TABLE t (a INTEGER)")
        vec_conn.executemany("INSERT INTO t VALUES (?)", [(i,) for i in range(8)])
        sql = "SELECT a FROM t WHERE a IN (SELECT a FROM t WHERE a < 3)"
        # A subquery has no vector kernel: the WHERE falls back to one row
        # kernel over the batch, inside the batched plan.
        flt = optimizer.plan_select(vec_conn.db, parse(sql)).root.child
        assert isinstance(flt, ops.VecFilter)
        assert flt.kernel.slot is None and not flt.kernel.scalar
        assert vec_conn.execute(sql).fetchall() == [(0,), (1,), (2,)]


# ---------------------------------------------------------------------------
# Row kernels: expressions with no vector form keep interpreter semantics.


class TestRowKernels:
    @pytest.fixture
    def conn(self, vec_conn):
        vec_conn.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, a INTEGER, s TEXT)")
        vec_conn.executemany(
            "INSERT INTO t VALUES (?, ?, ?)",
            [(1, 10, "x"), (2, 0, "y"), (3, None, "x"), (4, 5, None)],
        )
        vec_conn.execute("CREATE TABLE u (id INTEGER PRIMARY KEY, t_id INTEGER)")
        vec_conn.executemany("INSERT INTO u VALUES (?, ?)", [(1, 1), (2, 1), (3, 4)])
        return vec_conn

    def test_short_circuit_skips_the_subquery(self, conn):
        # The whole OR is one row kernel, so the scalar subquery (which
        # returns several rows, an error) runs only where a <> 10.
        sql = "SELECT id FROM t WHERE a = 10 OR (SELECT id FROM u) = 1"
        with pytest.raises(ProgrammingError):
            conn.execute(sql)
        got = conn.execute(
            "SELECT id FROM t WHERE a IS NULL OR a >= 0 OR (SELECT id FROM u) = 1"
        ).fetchall()
        assert got == [(1,), (2,), (3,), (4,)]

    def test_join_on_with_subquery(self, conn):
        got = conn.execute(
            "SELECT t.id, u.id FROM t LEFT JOIN u ON u.t_id = t.id "
            "AND u.id IN (SELECT MAX(id) FROM u) ORDER BY t.id"
        ).fetchall()
        assert got == [(1, None), (2, None), (3, None), (4, 3)]


# ---------------------------------------------------------------------------
# EXISTS stops its pipeline after the first non-empty batch.


def test_correlated_exists_keeps_its_early_exit(monkeypatch):
    monkeypatch.setattr(vector, "BATCH_SIZE", 64)
    conn = minidb.connect()
    conn.execute("CREATE TABLE o (id INTEGER PRIMARY KEY, k INTEGER)")
    conn.execute("CREATE TABLE big (id INTEGER PRIMARY KEY, k INTEGER)")
    n_outer = 5
    inner = 10 * vector.BATCH_SIZE + 3
    conn.executemany("INSERT INTO o VALUES (?, ?)", [(i, 0) for i in range(n_outer)])
    # Every inner row matches, so the first probed row already answers.
    conn.executemany("INSERT INTO big VALUES (?, ?)", [(i, 0) for i in range(inner)])
    result = Executor(conn.db).execute(
        parse("SELECT id FROM o WHERE EXISTS (SELECT 1 FROM big WHERE big.k >= o.k)")
    )
    assert sum(len(batch) for batch in result.batches) == n_outer
    conn.close()
    # The outer scan reads n_outer rows; each EXISTS one inner batch.
    assert result.stats.rows_scanned <= n_outer + n_outer * vector.BATCH_SIZE
