"""Scalability of the data store (paper Section 1).

The paper motivates DBMS storage with scalability: "it is anticipated
that a production use data store will be quite large".  This bench loads
a growing number of IRS executions into one store and reports load time
and per-filter query time as functions of store size — the artifact shows
whether cost stays near-linear in data volume (load) and near-constant in
store size for indexed family probes (query).
"""

import json
import os
import random
import tempfile
import time

import pytest

import repro.minidb as minidb
from repro.core import ByName, Expansion, PTDataStore, PrFilter
from repro.core.bulkload import BulkLoader
from repro.minidb import optimizer as minidb_optimizer
from repro.minidb import vector as minidb_vector
from repro.core.query import QueryEngine
from repro.obs import metrics as obs_metrics
from repro.obs.profiler import profiler as obs_profiler
from repro.ptdf.parser import parse_file
from repro.ptdf.ptdfgen import IndexEntry, PTdfGen
from repro.synth.irs_gen import IRSRunSpec, generate_irs_run
from repro.synth.machines import MCR
from repro.tools import ALL_CONVERTERS

from baseline import merge_baseline  # noqa: E402  (benchmarks/ on sys.path)

SIZES = (1, 2, 4, 8)

_REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.fixture(scope="module")
def ptdf_records():
    """Pre-parsed PTdf for 8 executions (generation excluded from timing)."""
    d = tempfile.mkdtemp(prefix="scal-")
    entries = []
    for i in range(max(SIZES)):
        name = f"irs-scal-p{2 ** (i % 4 + 1):04d}-r{i}"
        generate_irs_run(IRSRunSpec(name, MCR, 2 ** (i % 4 + 1)), d + "/raw")
        entries.append(IndexEntry(name, "IRS", "MPI", 2 ** (i % 4 + 1), 1, "t", "t"))
    with open(d + "/i.index", "w") as fh:
        for e in entries:
            fh.write(" ".join(e.fields()) + "\n")
    gen = PTdfGen(ALL_CONVERTERS)
    reports = gen.generate(d + "/raw", d + "/i.index", out_dir=d + "/ptdf")
    return [parse_file(r.output_path) for r in reports]


def _load_n(records_list, n, bulk=True):
    """Load the first *n* executions into a fresh store.

    Without *bulk* this is the per-row ablation: the same loader,
    flushing after every record.
    """
    store = PTDataStore()
    total = 0
    for records in records_list[:n]:
        if bulk:
            stats = store.load_records(records)
        else:
            stats = BulkLoader(store, flush_every=1).load(records)
        total += stats.results
    return store, total


def _db_state(store):
    """Full physical state of a minidb-backed store, for identity checks."""
    db = store.backend.connection.db
    return {
        name: (
            dict(db.table(name).rows),
            db.table(name).next_rowid,
            db.table(name).next_auto,
        )
        for name in db.catalog.tables
    }


def _row_count(store):
    db = store.backend.connection.db
    return sum(len(db.table(name).rows) for name in db.catalog.tables)


class TestLoadScaling:
    @pytest.mark.parametrize("n", SIZES)
    def test_load_n_executions(self, benchmark, ptdf_records, n):
        store, total = benchmark.pedantic(
            _load_n, args=(ptdf_records, n), rounds=2, iterations=1
        )
        assert total > n * 1000

    def test_load_cost_roughly_linear(self, benchmark, ptdf_records, write_report):
        import time

        benchmark.pedantic(lambda: None, rounds=1, iterations=1)

        lines = [f"{'executions':>12}{'results':>10}{'load (s)':>10}{'s/exec':>8}"]
        times = {}
        for n in SIZES:
            t0 = time.perf_counter()
            _store, total = _load_n(ptdf_records, n)
            dt = time.perf_counter() - t0
            times[n] = dt
            lines.append(f"{n:>12}{total:>10}{dt:>10.3f}{dt / n:>8.3f}")
        write_report("scalability_load", "\n".join(lines))
        # Near-linear: per-execution cost at 8x data within 3x of at 1x.
        assert times[8] / 8 < times[1] * 3


class TestBulkVsPerRow:
    """Vectorized bulk load vs the per-row ablation (paper Section 4.3).

    The per-row path is the one loader flushing after every record
    (``BulkLoader(store, flush_every=1)``).

    Emits ``BENCH_scalability.json`` — the machine-readable perf baseline
    tracked across PRs: load rows/s for both paths, the speedup, family
    probe latency, and the access paths the planner picked.
    """

    ROUNDS = 3

    def test_bulk_speedup_and_identity(
        self, benchmark, ptdf_records, results_dir
    ):
        benchmark.pedantic(lambda: None, rounds=1, iterations=1)
        n = max(SIZES)

        def timed(bulk):
            best, store = None, None
            for _ in range(self.ROUNDS):
                t0 = time.perf_counter()
                store, _total = _load_n(ptdf_records, n, bulk=bulk)
                dt = time.perf_counter() - t0
                if best is None or dt < best:
                    best = dt
            return best, store

        bulk_s, bulk_store = timed(True)
        per_row_s, per_row_store = timed(False)

        # Byte-identical datastore contents under both paths: same rows,
        # same rowids, same id counters, table by table.
        assert _db_state(bulk_store) == _db_state(per_row_store)

        rows = _row_count(bulk_store)
        speedup = per_row_s / bulk_s

        engine = QueryEngine(bulk_store)
        families = bulk_store.resolve_prfilter(
            PrFilter([ByName("/IRS/src/matsolve", Expansion.NONE)])
        )
        q0 = time.perf_counter()
        reps = 5
        for _ in range(reps):
            count = engine.count_for_filter(families)
        query_s = (time.perf_counter() - q0) / reps
        assert count > 0

        backend = bulk_store.backend
        probe_plan = [
            r[0]
            for r in backend.query(
                "EXPLAIN SELECT DISTINCT focus_id FROM focus_has_resource "
                "WHERE resource_id IN (?, ?)",
                (1, 2),
            )
        ]
        join_plan = [
            r[0]
            for r in backend.query(
                "EXPLAIN SELECT COUNT(*) FROM resource_item r "
                "JOIN resource_attribute a ON a.value = r.name"
            )
        ]
        assert any("HashJoin" in line for line in join_plan)

        # Observability numbers: bulk loads with the metrics registry on,
        # harvesting loader throughput and engine counters straight from
        # the registry, plus the enabled-vs-disabled load time so the
        # instrumentation overhead is tracked across PRs.  Best-of-ROUNDS
        # like the uninstrumented timing, so the overhead figure compares
        # like with like instead of one cold run against three warm ones.
        obs_metrics.enable()
        try:
            instrumented_s = None
            for _ in range(self.ROUNDS):
                obs_metrics.reset()
                t0 = time.perf_counter()
                obs_store, _ = _load_n(ptdf_records, n)
                dt = time.perf_counter() - t0
                if instrumented_s is None or dt < instrumented_s:
                    instrumented_s = dt
            obs_engine = QueryEngine(obs_store)
            obs_families = obs_store.resolve_prfilter(
                PrFilter([ByName("/IRS/src/matsolve", Expansion.NONE)])
            )
            for _ in range(reps):
                obs_engine.count_for_filter(obs_families)
            snap = obs_metrics.snapshot()
        finally:
            obs_metrics.disable()

        def _metric(name, field="value", default=0):
            return snap.get(name, {}).get(field, default)

        prfilter_hist = snap.get("query.prfilter_seconds", {})
        observability = {
            "instrumented_load_seconds": round(instrumented_s, 4),
            "instrumented_rows_per_s": round(rows / instrumented_s, 1),
            "overhead_vs_disabled": round(instrumented_s / bulk_s - 1.0, 4),
            "loader_records_per_s": round(_metric("ptdf.load.records_per_s"), 1),
            "loader_records": _metric("ptdf.load.records"),
            "loader_batches_flushed": _metric("ptdf.load.batches_flushed"),
            "statements": _metric("minidb.statements"),
            "statement_cache_hits": _metric("minidb.statement_cache.hits"),
            "rows_written": _metric("minidb.rows.written"),
            "prfilter_evaluations": _metric("query.prfilter_evaluations"),
            "prfilter_mean_seconds": round(
                prfilter_hist.get("mean") or 0.0, 6
            ),
        }

        report = {
            "benchmark": "scalability",
            "executions": n,
            "load": {
                "rows": rows,
                "per_row_seconds": round(per_row_s, 4),
                "per_row_rows_per_s": round(rows / per_row_s, 1),
                "bulk_seconds": round(bulk_s, 4),
                "bulk_rows_per_s": round(rows / bulk_s, 1),
                "speedup": round(speedup, 2),
            },
            "query": {
                "filter": "/IRS/src/matsolve",
                "latency_seconds": round(query_s, 5),
                "results": count,
            },
            "plans": {
                "family_probe": probe_plan,
                "unindexed_join": join_plan,
            },
            "observability": observability,
        }
        merge_baseline(results_dir, report)
        print(f"\n--- BENCH_scalability ---\n{json.dumps(report, indent=2)}")

        # The acceptance target is >= 3x; assert 2x so CI noise cannot
        # flake the suite while still catching a real regression.
        assert speedup >= 2.0, f"bulk load only {speedup:.2f}x faster"


class TestQueryPathTopN:
    """Engine query-path section of ``BENCH_scalability.json``.

    Two artifacts of the Volcano refactor, measured over a 100k-row table:

    * ``ORDER BY ... LIMIT k`` runs through a bounded TopN heap instead of
      a full sort — the ablation times the same query with the rule off.
    * Cursors stream: the first row of a selective scan arrives without
      paying for the rest of the result set.
    """

    N = 100_000
    LIMIT = 10
    ROUNDS = 3

    def _timed(self, conn, sql):
        best, rows = None, None
        for _ in range(self.ROUNDS):
            t0 = time.perf_counter()
            rows = conn.execute(sql).fetchall()
            dt = time.perf_counter() - t0
            if best is None or dt < best:
                best = dt
        return best, rows

    def test_topn_and_streaming(self, benchmark, results_dir, write_report):
        benchmark.pedantic(lambda: None, rounds=1, iterations=1)
        rng = random.Random(13)
        conn = minidb.connect()
        conn.execute("CREATE TABLE pts (id INTEGER PRIMARY KEY, v REAL)")
        conn.executemany(
            "INSERT INTO pts VALUES (?, ?)",
            [(i, rng.random()) for i in range(self.N)],
        )
        sql = f"SELECT id FROM pts ORDER BY v LIMIT {self.LIMIT}"

        plan = [r[0] for r in conn.execute("EXPLAIN " + sql).fetchall()]
        assert any("TOP-N" in line for line in plan), plan
        topn_s, topn_rows = self._timed(conn, sql)

        # Ablation: same query, TopN fusion off -> full sort + limit.
        minidb_optimizer.ENABLE_TOPN = False
        conn._statement_cache.clear()  # drop the cached TopN plan
        try:
            plan = [r[0] for r in conn.execute("EXPLAIN " + sql).fetchall()]
            assert any("ORDER BY" in line for line in plan), plan
            assert not any("TOP-N" in line for line in plan), plan
            sort_s, sort_rows = self._timed(conn, sql)
        finally:
            minidb_optimizer.ENABLE_TOPN = True
            conn._statement_cache.clear()

        # Byte-identical output is part of the operator contract.
        assert topn_rows == sort_rows
        speedup = sort_s / topn_s

        # Streaming: first row of a selective scan vs draining it all.
        # Both figures are bench-guard keys, so take the best of ROUNDS to
        # keep single-run scheduler noise out of the committed baseline.
        probe = "SELECT id FROM pts WHERE v >= 0.5"
        first_row_s = drain_s = None
        for _ in range(self.ROUNDS):
            t0 = time.perf_counter()
            cur = conn.execute(probe)
            first = cur.fetchone()
            dt_first = time.perf_counter() - t0
            assert first is not None
            t0 = time.perf_counter()
            rest = cur.fetchall()
            dt_drain = dt_first + (time.perf_counter() - t0)
            assert len(rest) > self.N // 4
            if first_row_s is None or dt_first < first_row_s:
                first_row_s = dt_first
            if drain_s is None or dt_drain < drain_s:
                drain_s = dt_drain

        section = {
            "rows": self.N,
            "limit": self.LIMIT,
            "topn_seconds": round(topn_s, 5),
            "full_sort_seconds": round(sort_s, 5),
            "topn_speedup": round(speedup, 2),
            "stream_first_row_seconds": round(first_row_s, 6),
            "stream_full_drain_seconds": round(drain_s, 5),
        }
        merge_baseline(results_dir, {"query_path": section})
        write_report(
            "scalability_query_path",
            json.dumps(section, indent=2),
        )
        conn.close()

        # The heap must actually win at this scale; assert with slack so
        # CI noise cannot flake the suite.
        assert speedup > 1.1, f"TopN only {speedup:.2f}x over full sort"
        # Streaming: the first row must not pay for the full result set.
        assert first_row_s < drain_s / 5


class TestVectorizedExecution:
    """``vectorized`` section of ``BENCH_scalability.json``.

    Times the batch pipeline draining a selective 100k-row scan and
    checks the streaming contract: the first row comes out of one
    prefetched batch, not after the full drain.  The same drain at one
    row per batch must return byte-identical rows.
    """

    N = 100_000
    ROUNDS = 3

    def _fresh(self):
        rng = random.Random(13)
        conn = minidb.connect()
        conn.execute("CREATE TABLE pts (id INTEGER PRIMARY KEY, v REAL)")
        conn.executemany(
            "INSERT INTO pts VALUES (?, ?)",
            [(i, rng.random()) for i in range(self.N)],
        )
        return conn

    def _timed_drain(self, conn, sql):
        best, rows = None, None
        for _ in range(self.ROUNDS):
            t0 = time.perf_counter()
            rows = conn.execute(sql).fetchall()
            dt = time.perf_counter() - t0
            if best is None or dt < best:
                best = dt
        return best, rows

    def test_vectorized_drain_and_first_row(
        self, benchmark, results_dir, write_report
    ):
        benchmark.pedantic(lambda: None, rounds=1, iterations=1)
        sql = "SELECT id FROM pts WHERE v >= 0.5"
        conn = self._fresh()

        vec_s, vec_rows = self._timed_drain(conn, sql)

        first_row_s = None
        for _ in range(self.ROUNDS):
            t0 = time.perf_counter()
            cur = conn.execute(sql)
            first = cur.fetchone()
            dt = time.perf_counter() - t0
            assert first is not None
            cur.close()
            if first_row_s is None or dt < first_row_s:
                first_row_s = dt

        # Batch counters over one instrumented drain.
        obs_metrics.enable()
        obs_metrics.reset()
        try:
            conn.execute(sql).fetchall()
            snap = obs_metrics.snapshot()
        finally:
            obs_metrics.disable()
        batches = snap.get("minidb.vector.batches", {}).get("value", 0)
        rows_scanned = snap.get("minidb.vector.rows", {}).get("value", 0)
        assert batches > 0
        assert rows_scanned == self.N

        # Statement profiler cost over the same drain: enabled profiling
        # arms per-operator metering (the EXPLAIN ANALYZE machinery), so
        # this is the price of always-on statement statistics + flight
        # recording.  Best-of-ROUNDS against the untimed vec_s above; the
        # absolute drain time is a bench-guard key.
        obs_profiler.enable()
        obs_profiler.reset()
        try:
            prof_s, prof_rows = self._timed_drain(conn, sql)
        finally:
            obs_profiler.disable()
        assert prof_rows == vec_rows
        profile = obs_profiler.snapshot()
        assert profile["statements"], "profiled drain must be aggregated"
        obs_profiler.reset()

        # Byte-identical output at every batch size is part of the
        # operator contract: one row per batch is the degenerate case.
        default_size = minidb_vector.BATCH_SIZE
        minidb_vector.BATCH_SIZE = 1
        try:
            one_rows = conn.execute(sql).fetchall()
        finally:
            minidb_vector.BATCH_SIZE = default_size
        assert one_rows == vec_rows

        section = {
            "rows": self.N,
            "batch_size": minidb_vector.BATCH_SIZE,
            "drain_seconds": round(vec_s, 5),
            "first_row_seconds": round(first_row_s, 6),
            "drain_batches": batches,
            "rows_scanned": rows_scanned,
        }
        merge_baseline(results_dir, {"vectorized": section})
        merge_baseline(
            results_dir,
            {
                "observability": {
                    "profiler_enabled_drain_seconds": round(prof_s, 5),
                    "profiler_overhead_vs_disabled": round(prof_s / vec_s - 1.0, 4),
                }
            },
        )
        write_report("scalability_vectorized", json.dumps(section, indent=2))
        conn.close()

        # The first row must not pay for the full drain.
        assert first_row_s < vec_s / 2


class TestQueryScaling:
    @pytest.fixture(scope="class")
    def stores(self, ptdf_records):
        return {n: _load_n(ptdf_records, n)[0] for n in SIZES}

    def _query(self, store):
        engine = QueryEngine(store)
        prf = PrFilter([ByName("/IRS/src/matsolve", Expansion.NONE)])
        return engine.count_for_filter(store.resolve_prfilter(prf))

    @pytest.mark.parametrize("n", SIZES)
    def test_family_probe_at_size(self, benchmark, stores, n):
        count = benchmark(self._query, stores[n])
        assert count > 0

    def test_results_grow_with_store(self, benchmark, stores, write_report):
        benchmark.pedantic(lambda: None, rounds=1, iterations=1)
        counts = {n: self._query(stores[n]) for n in SIZES}
        write_report(
            "scalability_query",
            "\n".join(f"{n} executions -> {c} matsolve results" for n, c in counts.items()),
        )
        assert counts[8] > counts[1]

