"""DB-API 2.0 Connection and Cursor for minidb.

This mirrors the interface PerfTrack used through cx_Oracle and pyGreSQL:
``connect() -> Connection``, ``Connection.cursor() -> Cursor``,
``Cursor.execute(sql, params)`` with ``?`` (qmark) or ``%s`` (format)
placeholders, ``fetchone/fetchmany/fetchall``, ``description``,
``rowcount`` and ``lastrowid``.

Transaction semantics follow PEP 249: an implicit transaction opens on the
first data-modifying statement and is closed by ``commit()``/``rollback()``.
DDL statements commit implicitly (before and after), like Oracle.
"""

from __future__ import annotations

import os
import threading
from collections import OrderedDict
from typing import Any, Iterable, Iterator, Optional, Sequence

from ..obs.clock import now as _now
from ..obs.metrics import metrics as _M
from ..obs.profiler import profiler as _profiler
from ..obs.tracing import trace as _trace
from . import ast_nodes as ast
from . import optimizer
from .analyzer import Analyzer, Diagnostic
from .errors import InterfaceError, SemanticError, SessionError, SqlSyntaxError
from .executor import Executor, Result
from .locks import SCHEMA_LOCK
from .operators import plan_snapshot
from .parser import fingerprint as _fingerprint, parse
from .sqltypes import bind_params
from .storage import Database, Transaction
from .wal import Journal, load_snapshot

_DDL_NODES = (
    ast.CreateTable,
    ast.DropTable,
    ast.CreateIndex,
    ast.DropIndex,
)
_DML_NODES = (ast.Insert, ast.Update, ast.Delete)

# Connection-layer metrics (see docs/observability.md); no-ops while the
# process-wide registry is disabled.
_STATEMENTS = _M.counter("minidb.statements")
_STMT_SECONDS = _M.histogram("minidb.statement_seconds")
_CACHE_HITS = _M.counter("minidb.statement_cache.hits")
_CACHE_MISSES = _M.counter("minidb.statement_cache.misses")
_MEMO_HITS = _M.counter("minidb.analyzer.memo_hits")
_ANALYZE_RUNS = _M.counter("minidb.analyzer.runs")
_BATCHES = _M.counter("minidb.executemany_batches")
_PLAN_HITS = _M.counter("minidb.plan_cache.hits")
_PLAN_MISSES = _M.counter("minidb.plan_cache.misses")

#: Parsed-statement cache capacity per connection.  Eviction is LRU so a
#: burst of one-off statements cannot dump the hot loader statements.
STATEMENT_CACHE_SIZE = 512


class _CachedStatement:
    """A parsed statement plus its memoized semantic analysis and plan.

    ``version`` is the catalog generation the statement was last analyzed
    against; a DDL statement bumps it, forcing cached statements through
    the analyzer once more before their next execution.  SELECTs also
    cache their lowered physical plan: ``plan_version`` is the catalog
    generation the plan was built against (so CREATE/DROP INDEX — which
    bumps the generation — invalidates the plan, not just the analysis),
    and ``plan_stats`` fingerprints the size of every referenced table so
    a table growing past an optimizer threshold re-plans too.
    """

    __slots__ = (
        "stmt", "version", "required_params", "plan", "plan_version",
        "plan_stats", "fingerprint",
    )

    def __init__(self, stmt) -> None:
        self.stmt = stmt
        self.version = -1
        self.required_params = 0
        self.plan: Optional[optimizer.PhysicalPlan] = None
        self.plan_version = -1
        self.plan_stats: Optional[tuple] = None
        # Normalized statement text for the profiler, computed on first
        # profiled execution and cached with the parse.
        self.fingerprint: Optional[str] = None


class Engine:
    """A shared minidb engine: one database, many concurrent sessions.

    The engine owns the storage, the journal, the writer-lock manager
    (through the database) and the parsed-statement/plan cache every
    session shares.  ``Engine.connect()`` flips the database into shared
    mode — committed table versions are published for snapshot reads —
    and hands out an independent session :class:`Connection`.  The plain
    module-level ``connect()`` keeps the original embedded single-session
    shape by building a private engine per connection.
    """

    def __init__(self, database: str = ":memory:") -> None:
        self.db = Database()
        self.path: Optional[str] = None
        self._closed = False
        self._cache_lock = threading.RLock()
        self._statement_cache: OrderedDict[str, Any] = OrderedDict()
        self._session_seq = 0
        if database != ":memory:":
            self.path = os.fspath(database)
            if os.path.exists(self.path):
                load_snapshot(self.db, self.path)
            journal = Journal(self.db, self.path)
            journal.replay()
            self.db.journal = journal

    def connect(self) -> "Connection":
        """Open an independent session over the shared database."""
        if self._closed:
            raise SessionError(
                "engine is closed", code="SES002",
                hint="create a new Engine; sessions cannot outlive it",
            )
        self.db.enable_shared()
        with self._cache_lock:
            self._session_seq += 1
            owner = f"session-{self._session_seq}"
        return Connection(_engine=self, _owner=owner)

    def close(self) -> None:
        """Checkpoint the journal and refuse further sessions."""
        if self._closed:
            return
        if self.db.journal is not None:
            self.db.journal.checkpoint()
        self._closed = True

    def __enter__(self) -> "Engine":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def parse_cached(self, sql: str) -> _CachedStatement:
        """Parse *sql* through the shared LRU statement cache."""
        with self._cache_lock:
            entry = self._statement_cache.get(sql)
            if entry is None:
                _CACHE_MISSES.inc()
                with _trace.span("parse", cat="minidb"):
                    entry = _CachedStatement(parse(sql))
                while len(self._statement_cache) >= STATEMENT_CACHE_SIZE:
                    self._statement_cache.popitem(last=False)
                self._statement_cache[sql] = entry
            else:
                _CACHE_HITS.inc()
                self._statement_cache.move_to_end(sql)
            return entry


class Connection:
    """An open minidb database handle (one session).

    Created directly (or via ``connect()``) it embeds a private
    :class:`Engine` and behaves exactly like the original single-session
    connection.  Created via :meth:`Engine.connect` it is one session of
    a shared database: reads run against a committed snapshot, writes
    serialize through per-table writer locks, and the session's own
    transaction is kept on the connection instead of the database.
    """

    def __init__(
        self,
        database: str = ":memory:",
        *,
        _engine: Optional[Engine] = None,
        _owner: Optional[str] = None,
    ) -> None:
        if _engine is None:
            _engine = Engine(database)
        self.engine = _engine
        self.db = _engine.db
        self.path = _engine.path
        #: Lock-manager owner token; ``None`` means embedded single-session.
        self.owner = _owner
        self._closed = False
        self._txn: Optional[Transaction] = None
        # Bumped whenever this session's transaction ends; cursors that
        # captured an in-transaction read view refuse to stream past it.
        self._txn_epoch = 0

    @property
    def _statement_cache(self) -> "OrderedDict[str, Any]":
        return self.engine._statement_cache

    # -- PEP 249 interface ---------------------------------------------------------

    def cursor(self) -> "Cursor":
        self._check_open()
        return Cursor(self)

    def commit(self) -> None:
        self._check_open()
        if self.owner is None:
            self.db.commit()
            return
        if self._txn is not None and self._txn.active:
            self.db.commit(self._txn)
            self._txn_epoch += 1
        self._txn = None

    def rollback(self) -> None:
        self._check_open()
        if self.owner is None:
            self.db.rollback()
            return
        if self._txn is not None and self._txn.active:
            self.db.rollback(self._txn)
            self._txn_epoch += 1
        self._txn = None

    def close(self) -> None:
        if self._closed:
            return
        if self.owner is None:
            self.db.rollback()
            if self.db.journal is not None:
                self.db.journal.checkpoint()
        else:
            # A session rolls back its own work and drops its locks; the
            # shared journal is checkpointed by Engine.close(), not here.
            if self._txn is not None and self._txn.active:
                self.db.rollback(self._txn)
                self._txn_epoch += 1
            self._txn = None
            self.db.locks.release_all(self.owner)
        self._closed = True

    def __enter__(self) -> "Connection":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is None:
            self.commit()
        else:
            self.rollback()
        self.close()

    # -- convenience ----------------------------------------------------------------

    def execute(self, sql: str, params: Sequence[Any] = ()) -> "Cursor":
        cur = self.cursor()
        cur.execute(sql, params)
        return cur

    def executemany(self, sql: str, seq_of_params: Iterable[Sequence[Any]]) -> "Cursor":
        cur = self.cursor()
        cur.executemany(sql, seq_of_params)
        return cur

    def executescript(self, script: str) -> None:
        """Run multiple ``;``-separated statements (no parameters)."""
        for stmt_sql in _split_statements(script):
            self.execute(stmt_sql)

    def checkpoint(self) -> None:
        """Fold the WAL into the snapshot (no-op for :memory: databases)."""
        self._check_open()
        if self.db.journal is None:
            return
        if self.owner is None:
            self.db.commit()
            self.db.journal.checkpoint()
            return
        # Shared mode: quiesce writers first — the snapshot writer walks
        # live table state, so take every table lock plus the schema lock.
        self.commit()
        names = [SCHEMA_LOCK] + [key for key in self.db.tables]
        self.db.locks.acquire_many(self.owner, names)
        try:
            self.db.journal.checkpoint()
        finally:
            self.db.locks.release_all(self.owner)

    def _check_open(self) -> None:
        if self._closed:
            raise SessionError(
                "connection is closed",
                code="SES001",
                hint="open a new session with connect() or Engine.connect()",
            )

    # -- internals -----------------------------------------------------------------------

    def _parse_cached(self, sql: str) -> _CachedStatement:
        return self.engine.parse_cached(sql)

    def _begin(self) -> Optional[Transaction]:
        """Open (or join) this session's transaction.

        Embedded mode keeps the database's implicit transaction and
        returns ``None`` (executors then resolve it through storage);
        shared sessions get an explicit owner-tagged transaction pinned
        to a committed snapshot.
        """
        if self.owner is None:
            self.db.begin()
            return None
        if self._txn is None or not self._txn.active:
            self._txn = self.db.begin(owner=self.owner)
        return self._txn

    def _read_view(self):
        """What reads run against: the live database when embedded, this
        session's pinned (or a fresh) committed snapshot when shared."""
        if self.owner is None:
            return self.db
        txn = self._txn
        if txn is not None and txn.active and txn.snapshot is not None:
            return txn.snapshot
        return self.db.snapshot_view()

    def _ensure_analyzed(
        self, entry: _CachedStatement, params: Optional[Sequence[Any]]
    ) -> None:
        """Fail fast on semantic errors before any execution side effects.

        The analysis itself is memoized per cached statement and catalog
        generation; only the (cheap) placeholder-arity check runs per call.
        """
        if isinstance(entry.stmt, ast.Check):
            return  # CHECK reports diagnostics instead of failing
        catalog = self.db.catalog
        if entry.version != catalog.version:
            _ANALYZE_RUNS.inc()
            with _trace.span("analyze", cat="minidb"):
                analysis = Analyzer(catalog).analyze(entry.stmt)
            analysis.raise_first_error()
            entry.required_params = analysis.required_params
            entry.version = catalog.version
        else:
            _MEMO_HITS.inc()
        if params is not None and entry.required_params > len(params):
            raise SemanticError(
                f"statement requires at least {entry.required_params} parameters, "
                f"{len(params)} supplied",
                code="SQL010",
            )

    def check(self, sql: str) -> "list[Diagnostic]":
        """Statically analyze *sql* without executing it.

        Returns the full list of analyzer diagnostics (errors, warnings and
        an ``info`` entry for required parameters); an unparseable statement
        yields a single ``SQL000`` error diagnostic.
        """
        self._check_open()
        try:
            entry = self._parse_cached(sql)
        except SqlSyntaxError as exc:
            return [Diagnostic("error", "SQL000", str(exc))]
        except SemanticError as exc:
            # e.g. bare EXPLAIN ANALYZE, rejected at parse with a hint
            return [Diagnostic("error", exc.code, str(exc), exc.suggestion)]
        stmt = entry.stmt
        if isinstance(stmt, ast.Check):
            stmt = stmt.statement
        analysis = Analyzer(self.db.catalog).analyze(stmt)
        diagnostics = list(analysis.diagnostics)
        if analysis.required_params:
            diagnostics.append(
                Diagnostic(
                    "info",
                    "SQL010",
                    f"statement requires {analysis.required_params} parameters",
                )
            )
        return diagnostics

    def _execute(self, sql: str, params: Sequence[Any]) -> Result:
        self._check_open()
        prof = _profiler.enabled
        cache_hit = prof and sql in self._statement_cache
        entry = self._parse_cached(sql)
        stmt = entry.stmt
        self._ensure_analyzed(entry, params)
        if not (prof or _M.enabled or _trace.enabled):
            return self._dispatch(entry, sql, params)
        t0 = _now()
        try:
            with _trace.span("execute", cat="minidb", stmt=type(stmt).__name__):
                result = self._dispatch(entry, sql, params, meter=prof)
        except Exception:
            if prof:
                _profiler.record(
                    self._fingerprint_of(entry, sql), sql, _now() - t0, error=True
                )
            raise
        elapsed = _now() - t0
        _STMT_SECONDS.observe(elapsed)
        _STATEMENTS.inc()
        if prof:
            self._profile_result(entry, sql, result, elapsed, cache_hit)
        return result

    # -- statement profiling -----------------------------------------------------------

    def _fingerprint_of(self, entry: _CachedStatement, sql: str) -> str:
        if entry.fingerprint is None:
            entry.fingerprint = _fingerprint(sql)
        return entry.fingerprint

    def _profile_result(
        self,
        entry: _CachedStatement,
        sql: str,
        result: Result,
        elapsed: float,
        cache_hit: bool,
    ) -> None:
        """Route one execution into the statement profiler.

        Materialized results finalize immediately.  Streaming results are
        finalized by a wrapping generator once the stream drains or is
        closed, accumulating only *active* pull time (clock stopped while
        the caller holds the row) on top of the dispatch time.
        """
        fp = self._fingerprint_of(entry, sql)
        if result.batches is not None:
            result.batches = self._profiled_batches(fp, sql, result, elapsed, cache_hit)
        else:
            returned = len(result.rows) if result.rows else max(result.rowcount, 0)
            self._finalize_profiled(fp, sql, result, elapsed, returned, cache_hit)

    def _profiled_batches(
        self, fp: str, sql: str, result: Result, active0: float, cache_hit: bool
    ) -> Iterator[list[tuple]]:
        inner = result.batches

        def run() -> Iterator[list[tuple]]:
            active = active0
            returned = 0
            try:
                while True:
                    t = _now()
                    try:
                        batch = next(inner)
                    except StopIteration:
                        active += _now() - t
                        return
                    active += _now() - t
                    returned += len(batch)
                    yield batch
            finally:
                inner.close()
                self._finalize_profiled(fp, sql, result, active, returned, cache_hit)

        return run()

    def _finalize_profiled(
        self,
        fp: str,
        sql: str,
        result: Result,
        seconds: float,
        rows_returned: int,
        cache_hit: bool,
    ) -> None:
        plan = plan_snapshot(result.root) if result.root is not None else None
        scanned = result.stats.rows_scanned if result.stats is not None else 0
        _profiler.record(
            fp,
            sql,
            seconds,
            rows_returned=rows_returned,
            rows_scanned=scanned,
            plan=plan,
            cache_hit=cache_hit,
        )

    def _table_stats(self, tables: Sequence[str]) -> tuple:
        """Size fingerprint for the plan cache: one bucket per table.

        ``bit_length`` buckets row counts at power-of-two boundaries, so a
        table crossing an optimizer size threshold (hash-join build
        minimum, join-order swap) lands in a new bucket and forces a
        re-plan, while ordinary row churn inside a bucket keeps the plan.
        """
        db = self.db
        return tuple(len(db.table(t).rows).bit_length() for t in tables)

    def _plan_for(self, entry: _CachedStatement) -> "optimizer.PhysicalPlan":
        catalog = self.db.catalog
        if entry.plan is not None and entry.plan_version == catalog.version:
            if self._table_stats(entry.plan.tables) == entry.plan_stats:
                _PLAN_HITS.inc()
                return entry.plan.clone()
        _PLAN_MISSES.inc()
        with _trace.span("plan", cat="minidb"):
            plan = optimizer.plan_select(self.db, entry.stmt)
        entry.plan = plan
        entry.plan_version = catalog.version
        entry.plan_stats = self._table_stats(plan.tables)
        # Clone per execution: the cached tree must stay stateless so two
        # concurrently-draining cursors never share operator state.
        return plan.clone()

    def _dispatch(
        self, entry: _CachedStatement, sql: str, params: Sequence[Any],
        meter: bool = False,
    ) -> Result:
        stmt = entry.stmt
        if self.owner is not None and isinstance(
            stmt, (ast.Begin, ast.Commit, ast.Rollback)
        ):
            # Session transactions live on the connection, not the shared
            # database: route SQL transaction control through the session.
            if isinstance(stmt, ast.Begin):
                self._begin()
            elif isinstance(stmt, ast.Commit):
                self.commit()
            else:
                self.rollback()
            return Result(rowcount=0)
        if isinstance(stmt, _DDL_NODES):
            # DDL commits the open transaction and runs in its own.
            if self.owner is None:
                self.db.commit()
                txn = self.db.begin()
                result = Executor(self.db, params).execute(stmt)
                if self.db.journal is not None:
                    txn.log(("ddl", sql))
                self.db.commit()
                return result
            # Shared mode: exclude every writer while the catalog changes.
            self.commit()
            names = [SCHEMA_LOCK] + list(self.db.tables)
            self.db.locks.acquire_many(self.owner, names)
            txn = self.db.begin(owner=self.owner)
            try:
                result = Executor(self.db, params, txn=txn).execute(stmt)
                if self.db.journal is not None:
                    txn.log(("ddl", sql))
                self.db.commit(txn)
            except BaseException:
                self.db.rollback(txn)
                raise
            finally:
                self.db.locks.release_all(self.owner)
            return result
        if isinstance(stmt, _DML_NODES) or (
            isinstance(stmt, ast.ExplainAnalyze)
            and isinstance(stmt.statement, _DML_NODES)
        ):
            txn = self._begin()  # joins the open transaction if any
            return Executor(self.db, params, meter=meter, txn=txn).execute(stmt)
        if isinstance(stmt, ast.Select):
            return Executor(
                self._read_view(), params, plan=self._plan_for(entry), meter=meter
            ).execute(stmt)
        # Remaining statements (CHECK, EXPLAIN, EXPLAIN ANALYZE of a
        # SELECT, embedded BEGIN/COMMIT/ROLLBACK) are read-only or
        # transaction control; run them against the session's read view.
        return Executor(self._read_view(), params, meter=meter).execute(stmt)


class Cursor:
    """A PEP 249 cursor over one connection."""

    arraysize = 1

    def __init__(self, connection: Connection) -> None:
        self.connection = connection
        self._closed = False
        self.description: Optional[list[tuple]] = None
        self.rowcount: int = -1
        self.lastrowid: Optional[int] = None
        self._rows: list[tuple] = []
        self._pos = 0
        # SELECTs: an iterator of row batches plus the current batch being
        # sliced by fetchone/fetchmany.
        self._batches: Optional[Iterator[list[tuple]]] = None
        self._batch: list[tuple] = []
        self._bpos = 0
        # Shared-mode sessions: the connection's transaction epoch this
        # cursor's streaming read view belongs to (None = not pinned).
        self._epoch: Optional[int] = None

    # -- execution ---------------------------------------------------------------------

    def execute(self, sql: str, params: Sequence[Any] | dict = ()) -> "Cursor":
        self._check_open()
        if isinstance(params, dict):
            raise InterfaceError("minidb supports positional parameters only")
        self._close_stream()
        result = self.connection._execute(sql, bind_params(params))
        self.description = result.description
        self.rowcount = result.rowcount
        self.lastrowid = result.lastrowid
        self._rows = result.rows
        self._pos = 0
        self._batches = result.batches
        self._batch = []
        self._bpos = 0
        if self._batches is not None:
            # Prefetch the first batch so first-row evaluation errors
            # surface at execute() time (like sqlite3's first step) and
            # fetchone stays a slice; the rest of the plan stays lazy.
            first_batch = next(self._batches, None)
            if first_batch is None:
                self._batches = None
            else:
                self._batch = first_batch
        conn = self.connection
        if (
            conn.owner is not None
            and self._batches is not None
            and conn._txn is not None
            and conn._txn.active
        ):
            # An in-transaction streaming cursor reads through the live
            # tables this session touched; once the transaction ends that
            # view is gone, so pin the epoch and refuse stale fetches.
            self._epoch = conn._txn_epoch
        else:
            self._epoch = None
        return self

    def executemany(self, sql: str, seq_of_params: Iterable[Sequence[Any]]) -> "Cursor":
        self._check_open()
        self._close_stream()
        conn = self.connection
        prof = _profiler.enabled
        cache_hit = prof and sql in conn._statement_cache
        entry = conn._parse_cached(sql)
        stmt = entry.stmt
        if isinstance(stmt, ast.Insert) and stmt.select is None:
            # Vectorized fast path: parse/plan once, one journal batch.
            # Per-row parameter arity is checked by the batch builder.
            conn._ensure_analyzed(entry, None)
            txn = conn._begin()
            if prof or _M.enabled or _trace.enabled:
                t0 = _now()
                with _trace.span("executemany", cat="minidb", table=stmt.table):
                    result = Executor(conn.db, txn=txn).execute_insert_batch(
                        stmt, seq_of_params
                    )
                elapsed = _now() - t0
                _STMT_SECONDS.observe(elapsed)
                _STATEMENTS.inc()
                _BATCHES.inc()
                if prof:
                    conn._finalize_profiled(
                        conn._fingerprint_of(entry, sql), sql, result,
                        elapsed, max(result.rowcount, 0), cache_hit,
                    )
            else:
                result = Executor(conn.db, txn=txn).execute_insert_batch(
                    stmt, seq_of_params
                )
            self.description = None
            self.rowcount = result.rowcount
            self.lastrowid = result.lastrowid
            self._rows = []
            self._pos = 0
            return self
        total = 0
        last = None
        for params in seq_of_params:
            result = conn._execute(sql, bind_params(params))
            if result.rowcount > 0:
                total += result.rowcount
            last = result
        self.description = last.description if last else None
        self.rowcount = total
        self.lastrowid = last.lastrowid if last else None
        self._rows = []
        self._pos = 0
        return self

    # -- fetch --------------------------------------------------------------------------

    def fetchone(self) -> Optional[tuple]:
        self._check_open()
        self._check_snapshot()
        if self._pos < len(self._rows):
            row = self._rows[self._pos]
            self._pos += 1
            return row
        if self._bpos < len(self._batch):
            row = self._batch[self._bpos]
            self._bpos += 1
            return row
        if self._batches is not None:
            batch = next(self._batches, None)
            if batch is None:
                self._close_stream()
                return None
            self._batch = batch
            self._bpos = 1
            return batch[0]
        return None

    def fetchmany(self, size: Optional[int] = None) -> list[tuple]:
        self._check_open()
        n = size if size is not None else self.arraysize
        out: list[tuple] = []
        while len(out) < n:
            row = self.fetchone()
            if row is None:
                break
            out.append(row)
        return out

    def fetchall(self) -> list[tuple]:
        self._check_open()
        self._check_snapshot()
        out = self._rows[self._pos :]
        self._pos = len(self._rows)
        if self._bpos < len(self._batch) or self._batches is not None:
            out.extend(self._batch[self._bpos :])
            self._batch = []
            self._bpos = 0
            if self._batches is not None:
                for batch in self._batches:
                    out.extend(batch)
                self._batches = None
        return out

    def __iter__(self) -> Iterator[tuple]:
        conn = self.connection
        while True:
            batch = self._batch
            bpos = self._bpos
            if bpos >= len(batch) or self._pos < len(self._rows):
                row = self.fetchone()
                if row is None:
                    return
                yield row
                continue
            # Serve the rest of the current batch without a fetchone call
            # per row; the closed-cursor (SES004) and read-view (SES003)
            # checks stay per row.
            epoch = self._epoch
            while bpos < len(batch):
                if self._closed or conn._closed:
                    self._check_open()
                if epoch is not None and epoch != conn._txn_epoch:
                    self._check_snapshot()
                self._bpos = bpos + 1
                yield batch[bpos]
                if self._batch is not batch:
                    break  # the cursor was re-executed or drained meanwhile
                bpos = self._bpos

    # -- misc ----------------------------------------------------------------------------

    def setinputsizes(self, sizes) -> None:  # pragma: no cover - PEP 249 no-op
        pass

    def setoutputsize(self, size, column=None) -> None:  # pragma: no cover - no-op
        pass

    def close(self) -> None:
        self._close_stream()
        self._closed = True
        self._rows = []

    def _close_stream(self) -> None:
        if self._batches is not None:
            self._batches.close()
            self._batches = None
        self._batch = []
        self._bpos = 0

    def _check_open(self) -> None:
        if self._closed:
            raise SessionError(
                "cursor is closed",
                code="SES004",
                hint="create a new cursor from the connection",
            )
        self.connection._check_open()

    def _check_snapshot(self) -> None:
        if self._epoch is not None and self._epoch != self.connection._txn_epoch:
            self._close_stream()
            raise SessionError(
                "cursor read view ended with its transaction",
                code="SES003",
                hint=(
                    "fetch all rows before COMMIT/ROLLBACK, or re-execute "
                    "the query in the new transaction"
                ),
            )


def connect(database: str = ":memory:") -> Connection:
    """Open a minidb database (``":memory:"`` or a file path)."""
    return Connection(database)


def _split_statements(script: str) -> list[str]:
    """Split on ``;`` outside string literals/comments."""
    out: list[str] = []
    buf: list[str] = []
    i = 0
    n = len(script)
    while i < n:
        ch = script[i]
        if ch == "'":
            j = i + 1
            while j < n:
                if script[j] == "'":
                    if j + 1 < n and script[j + 1] == "'":
                        j += 2
                        continue
                    break
                j += 1
            buf.append(script[i : j + 1])
            i = j + 1
            continue
        if ch == "-" and script.startswith("--", i):
            j = script.find("\n", i)
            if j < 0:
                break
            i = j + 1
            buf.append("\n")
            continue
        if ch == ";":
            text = "".join(buf).strip()
            if text:
                out.append(text)
            buf = []
            i += 1
            continue
        buf.append(ch)
        i += 1
    text = "".join(buf).strip()
    if text:
        out.append(text)
    return out
