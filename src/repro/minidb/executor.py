"""Statement execution for minidb.

The executor is a thin dispatcher: SELECT is planned by
:mod:`repro.minidb.optimizer` into a batch operator tree
(:mod:`repro.minidb.operators`) and streamed batch by batch; DDL goes to
the catalog; every INSERT (and each ``executemany`` batch) builds its
rows into columns and hands storage one batch; UPDATE and DELETE drain a
scan(+filter) tree over the planner-chosen access path for the row ids
they mutate.  EXPLAIN and EXPLAIN ANALYZE render the real operator
tree — with per-operator ``actual rows/batches/loops/time`` hanging off
the operators in the ANALYZE case.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Any, Iterator, Optional, Sequence

from ..obs.clock import now as _now
from ..obs.metrics import metrics as _M
from . import ast_nodes as ast
from . import optimizer
from .analyzer import Analyzer
from .errors import ProgrammingError, SemanticError
from .expressions import Evaluator, Scope, _children
from .operators import (
    ExecContext,
    ExecStats,
    Operator,
    render_plan,
)
from .sqltypes import INTEGER, REAL, TEXT, coerce
from .storage import Database

# Engine metrics (see docs/observability.md).  Scan/access/hash-join
# counters live on the physical operators; the executor keeps the
# statement-level row counters.
_ROWS_RETURNED = _M.counter("minidb.rows.returned", unit="rows")
_ROWS_WRITTEN = _M.counter("minidb.rows.written", unit="rows")


def _build_rows(
    meta, columns: Optional[list[str]], sources: Sequence[Any], values_of=None,
) -> tuple[list[list[Any]], Optional[Exception]]:
    """Build INSERT rows in order, full width and coerced, given column-wise.

    ``values_of`` maps a source to its VALUES (default: the source is
    them).  Building stops at the first row that fails — a row of the
    wrong width (ProgrammingError) or a value its column cannot store
    (DataError, first in column order) — and returns that error beside
    the rows built before it; storage raises it unless one of those rows
    fails a constraint first.
    """
    src_of = meta.sources(columns)
    width = len(columns) if columns else len(src_of)
    defaults = meta.defaults
    affinities = meta.affinities
    built: list[list[Any]] = []
    pending = None
    try:
        for source in sources:
            values = source if values_of is None else values_of(source)
            if len(values) != width:
                raise ProgrammingError(
                    f"table {meta.name} expects {width} values, got {len(values)}"
                )
            built.append([
                coerce(values[s] if s is not None else defaults[i], affinities[i])
                for i, s in enumerate(src_of)
            ])
    except Exception as exc:
        pending = exc
    if not built:
        return [[] for _ in src_of], pending
    return list(map(list, zip(*built))), pending


def _has_subquery(expr: ast.Expr) -> bool:
    """True when *expr* holds a subquery (which may read any table)."""
    if isinstance(expr, (ast.InSelect, ast.Exists, ast.ScalarSelect)):
        return True
    return any(_has_subquery(child) for child in _children(expr))


#: Affinity -> the one type its coercion returns unchanged.  Columns whose
#: values all have it (or are None, which every affinity stores) skip
#: ``coerce``.
_STORED_AS = {INTEGER: int, TEXT: str, REAL: float}
_PASSES = {aff: {kind, type(None)} for aff, kind in _STORED_AS.items()}


def _placeholder_columns(meta, stmt: ast.Insert, template, rows: list):
    """``(columns, pending)`` for an all-placeholder INSERT template.

    Builds each destination column once from the parameter rows.  Any
    failure (a short row, a value its column cannot store) falls back to
    the row-by-row builder over the same rows, which stops at the first
    failing row with exactly the error a row-by-row insert raises.
    """
    param_of = [
        template[s].index if s is not None else None for s in meta.sources(stmt.columns)
    ]
    need = max((e.index for e in template), default=-1) + 1
    affinities = meta.affinities
    fixed = [
        None if p is not None else coerce(d, affinities[i])
        for i, (p, d) in enumerate(zip(param_of, meta.defaults))
    ]

    n = len(rows)
    try:
        if not n or min(map(len, rows)) >= need:
            columns: list[list[Any]] = []
            for i, p in enumerate(param_of):
                if p is None:
                    columns.append([fixed[i]] * n)
                    continue
                col = list(map(itemgetter(p), rows))
                aff = affinities[i]
                passes = _PASSES.get(aff)
                if passes is None or not passes.issuperset(map(type, col)):
                    kind = _STORED_AS.get(aff)
                    col = [v if type(v) is kind else coerce(v, aff) for v in col]
                columns.append(col)
            return columns, None
    except Exception:
        pass
    # Something failed: find the first failing row and its error the way
    # building the rows one at a time meets them.

    def values_of(params: Sequence[Any]) -> list[Any]:
        if len(params) < need:
            raise ProgrammingError(
                f"statement requires at least {need} parameters, "
                f"{len(params)} supplied"
            )
        return [params[e.index] for e in template]

    return _build_rows(meta, stmt.columns, rows, values_of)


class Result:
    """Outcome of one executed statement.

    SELECT results carry ``batches``: a generator of row lists pulled from
    the operator tree on demand, which the cursor slices for ``fetchone``
    so results stream; ``rowcount`` is -1 (PEP 249 allows this for
    statements whose affected-row count is unknown; sqlite3 does the
    same).  Everything else materialises ``rows`` eagerly.

    ``root`` is the physical operator tree that produced the result (when
    one exists: SELECT, UPDATE, DELETE) and ``stats`` the per-execution
    :class:`~repro.minidb.operators.ExecStats`; the statement profiler
    reads both when it finalizes a statement, after any stream drains.
    """

    __slots__ = (
        "description", "rows", "rowcount", "lastrowid", "batches", "root", "stats",
    )

    def __init__(
        self,
        description: Optional[list[tuple]] = None,
        rows: Optional[list[tuple]] = None,
        rowcount: int = -1,
        lastrowid: Optional[int] = None,
        batches: Optional[Iterator[list[tuple]]] = None,
    ) -> None:
        self.description = description
        self.rows = rows or []
        self.rowcount = rowcount
        self.lastrowid = lastrowid
        self.batches = batches
        self.root: Optional[Operator] = None
        self.stats: Optional[ExecStats] = None


class Executor:
    """Executes one statement; cheap to construct per call.

    ``plan`` is an optional pre-lowered (and already cloned)
    :class:`~repro.minidb.optimizer.PhysicalPlan` supplied by the
    connection's statement cache for top-level SELECTs.
    """

    def __init__(
        self,
        db: Database,
        params: Sequence[Any] = (),
        plan: Optional["optimizer.PhysicalPlan"] = None,
        meter: bool = False,
        txn=None,
    ) -> None:
        self.db = db
        # The session transaction mutations run under.  ``None`` in the
        # classic embedded mode (storage falls back to the database's
        # implicit transaction); engine sessions always pass theirs.
        self.txn = txn
        self.evaluator = Evaluator(params, subquery_runner=self._run_subquery)
        self.plan = plan
        self.stats = ExecStats()
        # Per-statement-execution caches shared by the main plan and every
        # expression subquery: hash-join builds and FROM-subquery rows.
        self._hash_builds: dict[int, dict] = {}
        self._subquery_rows: dict[int, list] = {}
        # Expression subqueries are planned once per execution, keyed by
        # the AST node identity — a correlated subquery re-run per outer
        # row reuses its plan (and its hash builds).
        self._subplans: dict[int, optimizer.PhysicalPlan] = {}
        # ``meter`` pre-arms per-operator actuals collection (the same
        # machinery EXPLAIN ANALYZE uses) so the flight recorder can read
        # a fully metered tree without re-executing the statement.
        self._analyze = meter
        # Operator tree of the last DML scan, for EXPLAIN ANALYZE rendering.
        self._dml_root: Optional[Operator] = None

    def _context(self, outer: Optional[Scope] = None) -> ExecContext:
        return ExecContext(
            self.db,
            self.evaluator,
            outer=outer,
            analyze=self._analyze,
            hash_builds=self._hash_builds,
            subquery_rows=self._subquery_rows,
            stats=self.stats,
        )

    # -- dispatch --------------------------------------------------------------

    def execute(self, stmt) -> Result:
        name = type(stmt).__name__
        handler = getattr(self, f"_exec_{name}", None)
        if handler is None:
            raise ProgrammingError(f"cannot execute {name}")
        result = handler(stmt)
        result.stats = self.stats
        if result.root is None:
            result.root = self._dml_root
        return result

    # -- DDL --------------------------------------------------------------------

    def _exec_CreateTable(self, stmt: ast.CreateTable) -> Result:
        if stmt.if_not_exists and self.db.catalog.has_table(stmt.name):
            return Result(rowcount=0)
        self.db.create_table(stmt, txn=self.txn)
        return Result(rowcount=0)

    def _exec_DropTable(self, stmt: ast.DropTable) -> Result:
        if stmt.if_exists and not self.db.catalog.has_table(stmt.name):
            return Result(rowcount=0)
        self.db.drop_table(stmt.name, txn=self.txn)
        return Result(rowcount=0)

    def _exec_CreateIndex(self, stmt: ast.CreateIndex) -> Result:
        if stmt.if_not_exists and self.db.catalog.has_index(stmt.name):
            return Result(rowcount=0)
        self.db.create_index(stmt, txn=self.txn)
        return Result(rowcount=0)

    def _exec_DropIndex(self, stmt: ast.DropIndex) -> Result:
        if stmt.if_exists and not self.db.catalog.has_index(stmt.name):
            return Result(rowcount=0)
        self.db.drop_index(stmt.name, txn=self.txn)
        return Result(rowcount=0)

    # -- SELECT -----------------------------------------------------------------

    def _plan_for_select(self, stmt: ast.Select) -> "optimizer.PhysicalPlan":
        if self.plan is not None:
            return self.plan
        return optimizer.plan_select(self.db, stmt)

    def _exec_Select(self, stmt: ast.Select) -> Result:
        plan = self._plan_for_select(stmt)
        result = Result(
            description=plan.description,
            rowcount=-1,
            batches=self._stream_batches(plan.root),
        )
        result.root = plan.root
        return result

    def _stream_batches(self, root: Operator) -> Iterator[list[tuple]]:
        returned = 0
        try:
            for batch in root.batches(self._context()):
                returned += len(batch)
                yield batch
        finally:
            _ROWS_RETURNED.add(returned)

    def _run_subquery(
        self, select: ast.Select, outer: Scope, limit_one: bool = False
    ) -> list[tuple]:
        """Expression-subquery runner handed to the :class:`Evaluator`.

        ``limit_one`` (EXISTS) stops the pipeline after its first
        non-empty batch.
        """
        plan = self._subplans.get(id(select))
        if plan is None:
            # correlated=True: the subquery may reference outer bindings
            # the static verifier cannot see at plan time.
            plan = optimizer.plan_select(self.db, select, correlated=True)
            self._subplans[id(select)] = plan
        rows: list[tuple] = []
        it = plan.root.batches(self._context(outer))
        try:
            for batch in it:
                rows.extend(batch)
                if limit_one and rows:
                    return rows[:1]
        finally:
            it.close()
        return rows

    def _select_rows(self, select: ast.Select) -> list[tuple]:
        return self._run_subquery(select, Scope())

    # -- DML ----------------------------------------------------------------------

    def _exec_Insert(self, stmt: ast.Insert) -> Result:
        """One INSERT statement (VALUES rows or a SELECT) as one batch.

        Every source row is evaluated first; then the rows are built
        (arity, coercion) and handed to storage together, so the statement
        is atomic: a failing row leaves none of them behind.
        """
        table = self.db.table(stmt.table)
        self.db.lock_for_write(self.txn, table.meta)
        if stmt.select is not None:
            source_rows = self._select_rows(stmt.select)
        else:
            scope = Scope()
            source_rows = [
                [self.evaluator.evaluate(e, scope) for e in row] for row in stmt.rows
            ]
        return self._insert(table, *_build_rows(table.meta, stmt.columns, source_rows))

    def _insert(self, table, columns: list[list[Any]], pending,
                statement_rows: Optional[int] = None) -> Result:
        applied, lastrowid = self.db.insert_rows(
            table, columns, txn=self.txn, pending=pending, statement_rows=statement_rows
        )
        _ROWS_WRITTEN.add(len(applied))
        return Result(rowcount=len(applied), lastrowid=lastrowid)

    def execute_insert_batch(self, stmt: ast.Insert, seq_of_params) -> Result:
        """Set-at-a-time INSERT for ``executemany``: plan once, apply once.

        The statement is analysed once (column positions, defaults) and
        the parameter rows are built into columns — for the all-placeholder
        template one list per destination column, coercing only the values
        whose type does not already match the column.  Storage then checks
        and applies the batch in one step (see ``Database.insert_rows``):
        it is statement-atomic, raises the error a row-by-row loop would
        meet first, and becomes a single journal record.
        """
        if stmt.select is not None:
            raise ProgrammingError("cannot batch-execute INSERT ... SELECT")
        db = self.db
        table = db.table(stmt.table)
        meta = table.meta
        db.lock_for_write(self.txn, meta)
        width = len(stmt.columns) if stmt.columns else len(meta.columns)
        for template in stmt.rows:
            if len(template) != width:
                raise ProgrammingError(
                    f"table {meta.name} expects {width} values, "
                    f"got {len(template)}"
                )
        rows = seq_of_params if isinstance(seq_of_params, list) else list(seq_of_params)
        single = stmt.rows[0] if len(stmt.rows) == 1 else None
        if single is not None and all(isinstance(e, ast.Parameter) for e in single):
            # All-placeholder template (the bulk-load shape): parameters
            # map straight to columns, no expression evaluator.
            return self._insert(table, *_placeholder_columns(meta, stmt, single, rows), 1)
        ev = self.evaluator
        scope = Scope()

        def values_of(source) -> list[Any]:
            params, k = source
            if k == 0:  # first template of a parameter row: bind it
                ev.params = list(params)
                ev._inlist_cache.clear()  # parameter-dependent, per-row
            return [ev.evaluate(e, scope) for e in stmt.rows[k]]

        sources = [(params, k) for params in rows for k in range(len(stmt.rows))]
        if any(_has_subquery(e) for template in stmt.rows for e in template):
            return self._insert_each(table, stmt.columns, sources, values_of, len(stmt.rows))
        return self._insert(table, *_build_rows(meta, stmt.columns, sources, values_of),
                            len(stmt.rows))

    def _insert_each(self, table, columns, sources, values_of, per: int) -> Result:
        """``executemany`` over a template with a subquery: one statement
        per parameter row, applied in order.

        A subquery may read the target table, so each parameter row's
        *per* VALUES rows are built only after the parameter rows before
        it are in, and all of them before any is inserted — as sqlite3
        runs it: subqueries see the table as their statement found it,
        and FOREIGN KEYs are checked at the statement's end.  The call
        stays atomic: a failing statement unwinds the rows this call
        already inserted, and a passing call still logs one
        ``insert_batch`` record.
        """
        db = self.db
        txn = self.txn if self.txn is not None else db.begin()
        undo_mark, wal_mark = len(txn.undo), len(txn.wal_records)
        count, lastrowid = 0, None
        try:
            for i in range(0, len(sources), per):
                built, pending = _build_rows(table.meta, columns, sources[i:i + per], values_of)
                applied, lastrowid = db.insert_rows(table, built, txn=txn, pending=pending)
                count += len(applied)
        except BaseException:
            db.undo(txn, undo_mark)
            del txn.wal_records[wal_mark:]
            raise
        logged = txn.wal_records[wal_mark:]
        if len(logged) > 1:
            txn.wal_records[wal_mark:] = [
                ("insert_batch", table.meta.name, [pair for rec in logged for pair in rec[2]])
            ]
        _ROWS_WRITTEN.add(count)
        return Result(rowcount=count, lastrowid=lastrowid)

    def _exec_Update(self, stmt: ast.Update) -> Result:
        table = self.db.table(stmt.table)
        meta = table.meta
        # Lock before the target scan so the rows we collect cannot move
        # under a concurrent writer between scan and mutation.
        self.db.lock_for_write(self.txn, meta)
        assignments = [(meta.column_index(c), e) for c, e in stmt.assignments]
        count = 0
        for rowid, row in self._dml_targets(stmt.table, stmt.where):
            scope = Scope()
            scope.bind(meta.name, meta.column_names, row)
            new_row = list(row)
            for pos, expr in assignments:
                new_row[pos] = self.evaluator.evaluate(expr, scope)
            new_row = self.db.coerce_row(meta, new_row)
            self.db.update_row(table, rowid, tuple(new_row), txn=self.txn)
            count += 1
        _ROWS_WRITTEN.add(count)
        return Result(rowcount=count)

    def _exec_Delete(self, stmt: ast.Delete) -> Result:
        table = self.db.table(stmt.table)
        # children=True: the dangling-reference check scans child tables.
        self.db.lock_for_write(self.txn, table.meta, children=True)
        targets = self._dml_targets(stmt.table, stmt.where)
        for rowid, _row in targets:
            self.db.delete_row(table, rowid, txn=self.txn)
        _ROWS_WRITTEN.add(len(targets))
        return Result(rowcount=len(targets))

    def _dml_targets(
        self, table_name: str, where: Optional[ast.Expr]
    ) -> list[tuple[int, tuple]]:
        """``(rowid, row)`` of every row of *table_name* matching *where*,
        collected in full before the caller mutates any of them."""
        root = optimizer.lower_dml_scan(self.db, table_name, where)
        self._dml_root = root
        get = self.db.table(table_name).rows.get
        targets = []
        for batch in root.batches(self._context()):
            for rowid in batch.rowids:
                row = get(rowid)
                if row is not None:
                    targets.append((rowid, row))
        return targets

    # -- transactions ------------------------------------------------------------------

    def _exec_Begin(self, stmt: ast.Begin) -> Result:
        self.db.begin()
        return Result(rowcount=0)

    def _exec_Commit(self, stmt: ast.Commit) -> Result:
        self.db.commit()
        return Result(rowcount=0)

    def _exec_Rollback(self, stmt: ast.Rollback) -> Result:
        self.db.rollback()
        return Result(rowcount=0)

    # -- EXPLAIN ----------------------------------------------------------------------

    def _exec_Check(self, stmt: ast.Check) -> Result:
        """``EXPLAIN [ANALYZE] CHECK <stmt>``: diagnostics, no execution."""
        analysis = Analyzer(self.db.catalog).analyze(stmt.statement)
        rows = [
            (d.severity, d.code, d.message, d.suggestion)
            for d in analysis.diagnostics
        ]
        if analysis.required_params:
            rows.append(
                (
                    "info",
                    "SQL010",
                    f"statement requires {analysis.required_params} parameters",
                    None,
                )
            )
        if not rows:
            rows = [("ok", "", "no issues found", None)]
        description = [
            (n, None, None, None, None, None, None)
            for n in ("severity", "code", "message", "suggestion")
        ]
        return Result(description=description, rows=rows, rowcount=len(rows))

    def _exec_Explain(self, stmt: ast.Explain) -> Result:
        lines = self._explain_lines(stmt.statement)
        return Result(
            description=[("plan", None, None, None, None, None, None)],
            rows=[(line,) for line in lines],
            rowcount=len(lines),
        )

    def _explain_lines(self, stmt) -> list[str]:
        if isinstance(stmt, ast.Select):
            plan = optimizer.plan_select(self.db, stmt)
            return render_plan(plan.root)
        if isinstance(stmt, (ast.Update, ast.Delete)):
            return render_plan(optimizer.lower_dml_scan(self.db, stmt.table, stmt.where))
        return [type(stmt).__name__.upper()]

    def _exec_ExplainAnalyze(self, stmt: ast.ExplainAnalyze) -> Result:
        """Execute the statement, then render the operator tree with actuals.

        Each operator line gets ``(actual rows=R loops=L time=T ms)`` where
        ``rows`` is the total rows the operator produced, ``batches`` the
        batches it emitted, ``loops`` how often it ran — a join's inner
        side counts one loop per distinct probe key — and ``time`` its
        inclusive elapsed time (children included).  A final summary line reports the
        statement's own row count and total wall time.
        """
        inner = stmt.statement
        if not isinstance(inner, (ast.Select, ast.Insert, ast.Update, ast.Delete)):
            raise SemanticError(
                f"EXPLAIN ANALYZE cannot execute {type(inner).__name__.upper()}",
                code="SQL022",
                location="EXPLAIN ANALYZE",
                suggestion=(
                    "EXPLAIN ANALYZE supports SELECT, INSERT, UPDATE and "
                    "DELETE; use EXPLAIN ANALYZE CHECK <statement> for "
                    "static analysis of anything else"
                ),
            )
        self._analyze = True
        self._dml_root = None
        root: Optional[Operator] = None
        t0 = _now()
        try:
            if isinstance(inner, ast.Select):
                plan = self._plan_for_select(inner)
                count = 0
                for batch in self._stream_batches(plan.root):
                    count += len(batch)
                root = plan.root
                verb = "returned"
            else:
                result = self.execute(inner)
                root = self._dml_root  # None for INSERT
                count = result.rowcount
                verb = "affected"
        finally:
            self._analyze = False
        total_ms = (_now() - t0) * 1000.0
        if root is not None:
            lines = render_plan(root, analyze=True)
        else:
            lines = [type(inner).__name__.upper()]
        lines.append(f"ACTUAL: {count} row(s) {verb} in {total_ms:.3f} ms")
        return Result(
            description=[("plan", None, None, None, None, None, None)],
            rows=[(line,) for line in lines],
            rowcount=len(lines),
        )
