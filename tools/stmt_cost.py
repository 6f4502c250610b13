"""Fixed cost of one cached statement on minidb and on sqlite3.

``python -m tools.stmt_cost`` builds the same in-memory table on both
engines, then times four read statements through the DB-API, each
executed and fetched whole (``execute(...).fetchall()``) on one cursor:

- ``pk``: a one-row primary-key ``SELECT``;
- ``in1``: ``IN (?)`` over the primary key with one key;
- ``in4``: ``IN (?,?,?,?)`` over the primary key;
- ``probe100``: an equality probe of a secondary index that returns
  100 rows.

Every statement is parsed and planned before timing starts, so the
numbers are the per-execution cost of a cached statement (sqlite3: a
prepared statement from its statement cache).  Each case reports the
minimum over ``REPEAT`` rounds of ``NUMBER`` executions on a ``ROWS``-row
table, in microseconds per statement.  The parameters cycle over the table's keys
so no two consecutive executions probe the same row.
"""

from __future__ import annotations

import sqlite3
import sys
from time import perf_counter
from typing import Any, Callable, Sequence

#: the measured workload: table rows, timed rounds per case, executions per round
ROWS, REPEAT, NUMBER = 10_000, 7, 2_000

#: rows per value of the secondary index column ``k`` (the ``probe100`` case)
PROBE_ROWS = 100

SCHEMA = (
    "CREATE TABLE t (id INTEGER PRIMARY KEY, k INTEGER, v TEXT)",
    "CREATE INDEX idx_t_k ON t (k)",
)

#: case name -> (SQL, parameters for the i-th execution given the row count)
CASES: dict[str, tuple[str, Callable[[int, int], tuple]]] = {
    "pk": (
        "SELECT v FROM t WHERE id = ?",
        lambda i, n: (i % n + 1,),
    ),
    "in1": (
        "SELECT v FROM t WHERE id IN (?)",
        lambda i, n: (i % n + 1,),
    ),
    "in4": (
        "SELECT v FROM t WHERE id IN (?, ?, ?, ?)",
        lambda i, n: tuple((4 * i + j) % n + 1 for j in range(4)),
    ),
    "probe100": (
        "SELECT v FROM t WHERE k = ?",
        lambda i, n: (i % max(1, n // PROBE_ROWS),),
    ),
}


def _connect(engine: str) -> Any:
    if engine == "sqlite3":
        return sqlite3.connect(":memory:")
    import repro.minidb as minidb

    return minidb.connect()


def _fill(conn: Any, rows: int) -> None:
    for ddl in SCHEMA:
        conn.execute(ddl)
    buckets = max(1, rows // PROBE_ROWS)
    conn.executemany(
        "INSERT INTO t VALUES (?, ?, ?)",
        [(i, (i - 1) % buckets, f"v{i}") for i in range(1, rows + 1)],
    )
    conn.commit()


def time_case(cur: Any, sql: str, params: Sequence[tuple], repeat: int) -> float:
    """Minimum seconds per ``execute(sql, p).fetchall()`` over *repeat*
    rounds, one round running every parameter tuple of *params* once."""
    execute = cur.execute
    best = float("inf")
    for _ in range(repeat):
        t0 = perf_counter()
        for p in params:
            execute(sql, p).fetchall()
        best = min(best, (perf_counter() - t0) / len(params))
    return best


def measure(rows: int, repeat: int, number: int) -> dict[str, dict[str, float]]:
    """``{case: {engine: microseconds per statement}}``."""
    out: dict[str, dict[str, float]] = {case: {} for case in CASES}
    for engine in ("minidb", "sqlite3"):
        conn = _connect(engine)
        try:
            _fill(conn, rows)
            cur = conn.cursor()
            for case, (sql, param_of) in CASES.items():
                params = [param_of(i, rows) for i in range(number)]
                want = PROBE_ROWS if case == "probe100" and rows >= PROBE_ROWS else None
                got = len(cur.execute(sql, params[0]).fetchall())
                if want is not None and got != want:
                    raise AssertionError(f"{case} on {engine}: {got} rows, expected {want}")
                out[case][engine] = time_case(cur, sql, params, repeat) * 1e6
        finally:
            conn.close()
    return out


def render(results: dict[str, dict[str, float]], rows: int, repeat: int, number: int) -> str:
    lines = [
        f"# us per statement, min of {repeat} x {number}, {rows}-row in-memory table",
        f"{'case':<10} {'minidb_us':>10} {'sqlite3_us':>10} {'ratio':>7}",
    ]
    for case, by_engine in results.items():
        mdb, sq = by_engine["minidb"], by_engine["sqlite3"]
        lines.append(f"{case:<10} {mdb:>10.2f} {sq:>10.2f} {mdb / sq:>7.2f}")
    return "\n".join(lines)


def main() -> int:
    print(render(measure(ROWS, REPEAT, NUMBER), ROWS, REPEAT, NUMBER))
    return 0


if __name__ == "__main__":
    sys.exit(main())
