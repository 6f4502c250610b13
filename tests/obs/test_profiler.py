"""Statement profiler: aggregation, flight recorder, drift, overhead."""

import time

import pytest

import repro.minidb as minidb
from repro.minidb import vector
from repro.core import PTDataStore
from repro.obs.export import profile_to_ptdf, render_flight_text, render_profile_text
from repro.obs.profiler import (
    MISESTIMATE_Q,
    StatementProfiler,
    plan_hash,
    profiler as global_profiler,
    qerror,
)
from repro.ptdf.lint import Linter


@pytest.fixture
def prof():
    """The global profiler, enabled for one test and always cleaned up."""
    global_profiler.enable(slow_seconds=0.0, sample_every=0,
                          max_statements=256)
    global_profiler.reset()
    yield global_profiler
    global_profiler.disable()
    global_profiler.reset()


def populated(n=50):
    conn = minidb.connect()
    cur = conn.cursor()
    cur.execute("CREATE TABLE t (a INTEGER, b TEXT)")
    cur.executemany("INSERT INTO t VALUES (?, ?)", [(i, f"s{i}") for i in range(n)])
    return conn, cur


# ---------------------------------------------------------------- aggregation


def test_statements_aggregate_per_fingerprint(prof):
    conn, cur = populated()
    cur.execute("SELECT a FROM t WHERE a > 10")
    cur.fetchall()
    cur.execute("SELECT a FROM t WHERE a > 40")  # different literal, same shape
    cur.fetchall()
    conn.close()
    by_fp = {s["fingerprint"]: s for s in prof.snapshot()["statements"]}
    sel = by_fp["SELECT a FROM t WHERE a > ?"]
    assert sel["calls"] == 2
    assert sel["rows_returned"] == 39 + 9
    assert sel["rows_scanned"] == 100  # two full scans of 50 rows
    assert sel["total_seconds"] > 0
    assert sel["p95_seconds"] >= sel["mean_seconds"] > 0
    assert sel["plan_hash"]


def test_cache_hits_counted_per_fingerprint(prof):
    conn, cur = populated(5)
    for _ in range(4):
        cur.execute("SELECT a FROM t WHERE a > ?", (1,))
        cur.fetchall()
    conn.close()
    by_fp = {s["fingerprint"]: s for s in prof.snapshot()["statements"]}
    sel = by_fp["SELECT a FROM t WHERE a > ?"]
    assert sel["calls"] == 4
    assert sel["cache_hits"] == 3  # first execution parses, the rest hit


def test_execution_errors_are_recorded(prof):
    conn = minidb.connect()
    cur = conn.cursor()
    cur.execute("CREATE TABLE u (a INTEGER PRIMARY KEY)")
    cur.execute("INSERT INTO u VALUES (1)")
    with pytest.raises(minidb.Error):
        cur.execute("INSERT INTO u VALUES (1)")  # runtime UNIQUE violation
    conn.close()
    by_fp = {s["fingerprint"]: s for s in prof.snapshot()["statements"]}
    bad = by_fp["INSERT INTO u VALUES ( ? )"]
    assert bad["calls"] == 2
    assert bad["errors"] == 1


def test_unfetched_stream_finalizes_on_cursor_close(prof, monkeypatch):
    monkeypatch.setattr(vector, "BATCH_SIZE", 8)
    conn, cur = populated()
    cur.execute("SELECT a FROM t WHERE a > 10")
    cur.close()  # drops the stream without draining it
    conn.close()
    by_fp = {s["fingerprint"]: s for s in prof.snapshot()["statements"]}
    sel = by_fp["SELECT a FROM t WHERE a > ?"]
    assert sel["calls"] == 1
    # Just the execute-time prefetch: the first non-empty batch, a = 11..15.
    assert sel["rows_returned"] == 5


def test_lru_evicts_least_recently_executed():
    # Literals normalize away, so distinct fingerprints need distinct
    # statement shapes; drive record() directly to test the table bounds.
    p = StatementProfiler(max_statements=4)
    p.enable(slow_seconds=60.0)
    for i in range(8):
        p.record(f"SELECT c{i} FROM t", f"SELECT c{i} FROM t", 0.001)
    p.record("SELECT c4 FROM t", "SELECT c4 FROM t", 0.001)  # refresh #4
    p.record("SELECT c9 FROM t", "SELECT c9 FROM t", 0.001)
    snap = p.snapshot()
    assert len(snap["statements"]) == 4
    assert snap["evicted"] == 5
    kept = {s["fingerprint"] for s in snap["statements"]}
    # 5 was the least recently executed once 4 was refreshed.
    assert kept == {"SELECT c4 FROM t", "SELECT c6 FROM t",
                    "SELECT c7 FROM t", "SELECT c9 FROM t"}


def test_disabled_profiler_records_nothing():
    p = StatementProfiler()
    p.record("SELECT ?", "SELECT 1", 0.1)
    assert p.snapshot()["statements"] == []


# ---------------------------------------------------------------- flight ring


def test_slow_statements_are_flight_recorded(prof):
    prof.slow_seconds = 0.0  # everything with a plan is "slow"
    conn, cur = populated()
    cur.execute("SELECT a FROM t WHERE a > 10")
    cur.fetchall()
    conn.close()
    flights = prof.snapshot()["flights"]
    assert flights, "metered SELECT must be recorded"
    flight = flights[-1]
    assert flight["trigger"] == "slow"
    assert flight["fingerprint"] == "SELECT a FROM t WHERE a > ?"
    ops = [n["op"] for n in flight["nodes"]]
    assert any("Scan" in op for op in ops)
    scan = next(n for n in flight["nodes"] if "Scan" in n["op"])
    # Per-node estimate AND actuals, captured without re-execution.
    assert scan["est_rows"] == 50
    assert scan["rows"] == 50
    assert scan["seconds"] is not None


def test_fast_statements_skip_the_recorder_without_sampling(prof):
    prof.slow_seconds = 60.0
    conn, cur = populated(3)
    cur.execute("SELECT a FROM t")
    cur.fetchall()
    conn.close()
    assert prof.snapshot()["flights"] == []


def test_sampling_records_every_nth(prof):
    prof.slow_seconds = 60.0
    prof.sample_every = 1
    conn, cur = populated(3)
    cur.execute("SELECT a FROM t")
    cur.fetchall()
    conn.close()
    flights = prof.snapshot()["flights"]
    assert flights and flights[-1]["trigger"] == "sample"


def test_flight_ring_is_bounded(prof):
    prof.enable(flight_capacity=3, slow_seconds=0.0)
    conn, cur = populated(2)
    for _ in range(10):
        cur.execute("SELECT a FROM t")
        cur.fetchall()
    conn.close()
    flights = prof.snapshot()["flights"]
    assert len(flights) == 3
    # Ring semantics: the survivors are the newest three.
    seqs = [f["seq"] for f in flights]
    assert seqs == sorted(seqs) and seqs[-1] > 3


def test_plan_hash_stable_across_executions():
    nodes = [
        {"depth": 0, "describe": "PROJECT"},
        {"depth": 1, "describe": "SCAN t AS t"},
    ]
    assert plan_hash(nodes) == plan_hash([dict(n) for n in nodes])
    assert plan_hash(nodes) != plan_hash(nodes[:1])


# ---------------------------------------------------------------- drift


def test_qerror_is_symmetric_and_floored():
    assert qerror(10, 10) == 1.0
    assert qerror(100, 10) == 10.0
    assert qerror(10, 100) == 10.0
    assert qerror(0, 0) == 1.0  # floor keeps empty results finite
    assert MISESTIMATE_Q > 1.0


def test_drift_tracks_per_operator_qerror(prof):
    conn, cur = populated(100)
    # The planner guesses 1/3 selectivity for a range predicate; a > 10
    # actually passes 89/100 rows, so FILTER drift is ~2.7 but below the
    # misestimate threshold.
    cur.execute("SELECT a FROM t WHERE a > 10")
    cur.fetchall()
    conn.close()
    drift = prof.snapshot()["drift"]
    assert drift["VecScan"]["count"] == 1
    assert drift["VecScan"]["mean_q"] == 1.0  # scan estimate is exact
    assert drift["VecFilter"]["count"] == 1
    assert 2.0 < drift["VecFilter"]["mean_q"] < 4.0
    assert drift["VecFilter"]["misestimates"] == 0


def test_misestimates_flagged_at_threshold(prof):
    conn, cur = populated(100)
    # Equality on a skewed non-indexed column: planner guesses ~10 rows,
    # zero match — q-error 10 >= 4 counts as a misestimate.
    cur.execute("SELECT a FROM t WHERE b = 'nope'")
    cur.fetchall()
    conn.close()
    drift = prof.snapshot()["drift"]
    assert drift["VecFilter"]["misestimates"] == 1
    assert drift["VecFilter"]["max_q"] >= MISESTIMATE_Q


# ---------------------------------------------------------------- renderers


def test_render_profile_text_ranks_and_summarizes(prof):
    conn, cur = populated()
    cur.execute("SELECT a FROM t WHERE a > 10")
    cur.fetchall()
    conn.close()
    text = render_profile_text(prof.snapshot(), top=5)
    assert "SELECT a FROM t WHERE a > ?" in text
    assert "statements tracked" in text
    assert "operator" in text  # the drift table


def test_render_flight_text_shows_est_vs_actual(prof):
    prof.slow_seconds = 0.0
    conn, cur = populated()
    cur.execute("SELECT a FROM t WHERE a > 10")
    cur.fetchall()
    conn.close()
    text = render_flight_text(prof.snapshot())
    assert "SCAN t AS t" in text
    assert "est=50 actual=50" in text


def test_render_profile_text_rejects_unknown_sort(prof):
    with pytest.raises(ValueError):
        render_profile_text(prof.snapshot(), sort="nope")


# ---------------------------------------------------------------- PTdf round trip


def test_profile_to_ptdf_lints_clean_and_loads(tmp_path, prof):
    conn, cur = populated()
    cur.execute("SELECT a FROM t WHERE a > 10")
    cur.fetchall()
    cur.execute("SELECT COUNT(*) FROM t")
    cur.fetchone()
    conn.close()
    profile = prof.snapshot()
    prof.disable()  # the store below runs its own minidb statements
    text = profile_to_ptdf("profile-test", profile=profile)
    diagnostics = Linter().lint_string(text)
    assert diagnostics == [], [str(d) for d in diagnostics]
    path = tmp_path / "profile.ptdf"
    path.write_text(text)
    store = PTDataStore()
    stats = store.load_file(str(path))
    assert stats.executions == 1
    assert store.executions() == ["profile-test"]
    statements = store.resources_of_type("execution/statement")
    assert len(statements) == len(profile["statements"])
    # Statement resources carry the fingerprint as an attribute.
    attrs = {a.name: a.value for a in store.attributes_of(statements[0].id)}
    assert "fingerprint" in attrs
    metric_names = set(store.metrics())
    assert "calls" in metric_names and "p95 time" in metric_names
    store.close()


# ---------------------------------------------------------------- overhead


def test_disabled_profiler_overhead_is_bounded():
    """A disabled record() exits on one predicate check — < 2 us/call."""
    p = StatementProfiler()
    n = 200_000
    t0 = time.perf_counter()
    for _ in range(n):
        p.record("SELECT ?", "SELECT 1", 0.0)
    elapsed = time.perf_counter() - t0
    assert p.snapshot()["calls"] == 0
    assert elapsed < n * 2e-6, f"{elapsed / n * 1e9:.0f} ns per disabled record"


def test_disabled_profiler_keeps_query_path_unchanged():
    """With the profiler off the connection takes the untimed fast path:
    results are plain streams, no stats recorded anywhere."""
    assert not global_profiler.enabled
    conn, cur = populated(10)
    cur.execute("SELECT a FROM t WHERE a > 2")
    assert len(cur.fetchall()) == 7
    conn.close()
    assert global_profiler.snapshot()["statements"] == []


def test_enabled_profiler_within_tolerance_of_disabled(prof):
    """Profiled execution (with per-operator metering) stays within a
    generous 5x of the untimed path on a small scan workload; the
    scalability bench tracks the precise ratio in BENCH_scalability.json.
    """
    conn, cur = populated(2000)

    def drain():
        t0 = time.perf_counter()
        cur.execute("SELECT a FROM t WHERE a >= 0")
        n = len(cur.fetchall())
        assert n == 2000
        return time.perf_counter() - t0

    drain()  # warm plan cache
    enabled = min(drain() for _ in range(3))
    global_profiler.disable()
    disabled = min(drain() for _ in range(3))
    conn.close()
    assert enabled < disabled * 5, f"{enabled:.4f}s vs {disabled:.4f}s disabled"
