"""Physical operators for minidb — the Volcano iterator layer.

Every operator exposes ``open(ctx, parent)/next()/close()`` and is built
once per statement by the optimizer (:mod:`repro.minidb.optimizer`), then
cloned per execution so cached plans can run concurrently.  Two item
shapes flow through a plan:

* **scope-level** operators (scans, joins, filters) yield
  :class:`~repro.minidb.expressions.Scope` objects binding table aliases
  to rows, and
* **row-level** operators (projection, aggregation, distinct, union,
  sort, top-N, limit) yield ``(row, context)`` pairs where ``context`` is
  ``(scope, aggregate_values)`` when ORDER BY may need to re-evaluate
  source expressions, or ``None`` after a UNION erased it.

Per-operator actuals (``actual_rows``/``loops``/``seconds``) hang off the
operator instances themselves; ``EXPLAIN ANALYZE`` renders them with
:func:`render_plan`.  Engine metrics (rows scanned, access-path counters,
hash-join build/probe activity) are flushed from the operator bodies.
"""

from __future__ import annotations

import heapq
from operator import itemgetter
from typing import Any, Iterator, Optional

from ..obs.clock import now as _now
from ..obs.metrics import metrics as _M
from . import ast_nodes as ast
from . import vector as _vector
from .errors import ProgrammingError
from .expressions import AggregateAccumulator, Evaluator, Scope
from .planner import (
    FullScan,
    HashJoin as HashJoinPath,
    IndexEquality,
    IndexRange as IndexRangePath,
    InProbe as InProbePath,
)
from .sqltypes import sort_key
from .storage import SEGMENT_ROWS
from .vector import ColumnBatch

# Engine metrics (see docs/observability.md).  Instruments no-op while the
# registry is disabled; hot loops aggregate into locals and flush once per
# operator open.
_ROWS_SCANNED = _M.counter("minidb.rows.scanned", unit="rows")
_FULL_SCANS = _M.counter("minidb.access.full_scans")
_INDEX_LOOKUPS = _M.counter("minidb.access.index_lookups")
_HJ_BUILDS = _M.counter("minidb.hash_join.builds")
_HJ_BUILD_ROWS = _M.counter("minidb.hash_join.build_rows", unit="rows")
_HJ_PROBES = _M.counter("minidb.hash_join.probes")
_VEC_BATCHES = _M.counter("minidb.vector.batches")
_VEC_ROWS = _M.counter("minidb.vector.rows", unit="rows")


class ExecStats:
    """Per-statement-execution totals the profiler reads at finalize.

    One instance is shared by every :class:`ExecContext` of a statement
    execution (subquery contexts included).  Scan operators add their
    local counts here at the same once-per-close flush points that feed
    the global registry counters, so the cost is per-open, not per-row,
    and the numbers exist even while the metrics registry is disabled.
    """

    __slots__ = ("rows_scanned",)

    def __init__(self) -> None:
        self.rows_scanned = 0


class ExecContext:
    """Per-execution state shared by every operator in one plan run."""

    __slots__ = (
        "db", "evaluator", "outer", "analyze", "hash_builds", "subquery_rows",
        "stats",
    )

    def __init__(
        self,
        db,
        evaluator: Evaluator,
        outer: Optional[Scope] = None,
        analyze: bool = False,
        hash_builds: Optional[dict] = None,
        subquery_rows: Optional[dict] = None,
        stats: Optional[ExecStats] = None,
    ) -> None:
        self.db = db
        self.evaluator = evaluator
        self.outer = outer if outer is not None else Scope()
        self.analyze = analyze
        # Hash-join build tables, keyed by id(access path): built on the
        # first probe of a statement execution, reused for every later one
        # (including re-runs of correlated subqueries).
        self.hash_builds = hash_builds if hash_builds is not None else {}
        # FROM-subquery materialisations, keyed by id(operator): FROM
        # subqueries are uncorrelated by construction, so one execution
        # computes them at most once even under a nested-loop reopen.
        self.subquery_rows = subquery_rows if subquery_rows is not None else {}
        self.stats = stats if stats is not None else ExecStats()

    def child(self, outer: Scope) -> "ExecContext":
        """A context for a sub-plan sharing this execution's caches."""
        return ExecContext(
            self.db,
            self.evaluator,
            outer=outer,
            analyze=self.analyze,
            hash_builds=self.hash_builds,
            subquery_rows=self.subquery_rows,
            stats=self.stats,
        )


class Operator:
    """Base physical operator: ``open()/next()/close()`` plus plan shape.

    Two pull protocols coexist.  The classic Volcano interface
    (``open/next/close``) moves one item per call; the batch interface
    (``open_batches/next_batch/close``) moves one *batch* per call — a
    :class:`~repro.minidb.vector.ColumnBatch` of column vectors below the
    projection boundary, a plain list of row tuples above it.  Operators
    whose native implementation is batch-at-a-time set ``BATCHED`` and
    override ``_produce_batches``; everything else inherits a generic
    chunker so any plan can be drained batchwise.
    """

    #: True when ``_produce_batches`` is the native (vectorized) path.
    BATCHED = False

    def __init__(self) -> None:
        self.actual_rows = 0
        self.actual_batches = 0
        self.loops = 0
        self.seconds = 0.0
        self.est_rows: Optional[int] = None
        self._gen: Optional[Iterator] = None
        self._bgen: Optional[Iterator] = None

    # -- plan shape ---------------------------------------------------------

    def children(self) -> tuple:
        return ()

    def clone(self) -> "Operator":
        raise NotImplementedError  # pragma: no cover

    def describe(self) -> str:
        raise NotImplementedError  # pragma: no cover

    def _copy_plan_attrs(self, fresh: "Operator") -> "Operator":
        fresh.est_rows = self.est_rows
        return fresh

    # -- volcano interface --------------------------------------------------

    def open(self, ctx: ExecContext, parent: Optional[Scope] = None) -> "Operator":
        self.loops += 1
        gen = self._produce(ctx, parent)
        if ctx.analyze:
            gen = self._metered(gen)
        self._gen = gen
        return self

    def next(self):
        gen = self._gen
        if gen is None:
            return None
        return next(gen, None)

    def close(self) -> None:
        gen, self._gen = self._gen, None
        if gen is not None:
            gen.close()
        bgen, self._bgen = self._bgen, None
        if bgen is not None:
            bgen.close()

    def rows(self, ctx: ExecContext, parent: Optional[Scope] = None) -> Iterator:
        """open/next/close as one generator — the internal pull loop."""
        self.open(ctx, parent)
        try:
            while True:
                item = self.next()
                if item is None:
                    return
                yield item
        finally:
            self.close()

    def _produce(self, ctx: ExecContext, parent: Optional[Scope]) -> Iterator:
        raise NotImplementedError  # pragma: no cover

    def _metered(self, it: Iterator) -> Iterator:
        t0 = _now()
        for item in it:
            self.seconds += _now() - t0
            self.actual_rows += 1
            yield item
            t0 = _now()
        self.seconds += _now() - t0

    # -- batch interface ------------------------------------------------------

    def open_batches(
        self, ctx: ExecContext, parent: Optional[Scope] = None
    ) -> "Operator":
        self.loops += 1
        bgen = self._produce_batches(ctx, parent)
        if ctx.analyze:
            bgen = self._metered_batches(bgen)
        self._bgen = bgen
        return self

    def next_batch(self):
        bgen = self._bgen
        if bgen is None:
            return None
        return next(bgen, None)

    def batches(self, ctx: ExecContext, parent: Optional[Scope] = None) -> Iterator:
        """open_batches/next_batch/close as one generator."""
        self.open_batches(ctx, parent)
        try:
            while True:
                batch = self.next_batch()
                if batch is None:
                    return
                yield batch
        finally:
            self.close()

    def _produce_batches(self, ctx: ExecContext, parent: Optional[Scope]) -> Iterator:
        """Generic chunker: group this operator's items into lists.

        Vectorized operators override this with a native batch pipeline;
        the fallback exists so *every* operator honours the batch
        protocol (``vector.BATCH_SIZE`` is read per call so tests can
        tune it).
        """
        size = _vector.BATCH_SIZE
        batch: list = []
        for item in self._produce(ctx, parent):
            batch.append(item)
            if len(batch) >= size:
                yield batch
                batch = []
        if batch:
            yield batch

    def _metered_batches(self, it: Iterator) -> Iterator:
        t0 = _now()
        for batch in it:
            self.seconds += _now() - t0
            self.actual_rows += batch.n if isinstance(batch, ColumnBatch) else len(batch)
            self.actual_batches += 1
            yield batch
            t0 = _now()
        self.seconds += _now() - t0


# ---------------------------------------------------------------------------
# Scope-level operators: scans, joins, filters.


class _ScanBase(Operator):
    """Table access through one planner access path."""

    #: metric bumped once per (re)open; overridden per subclass.
    _access_counter = _FULL_SCANS

    def __init__(self, path) -> None:
        super().__init__()
        self.path = path

    def clone(self) -> "Operator":
        return self._copy_plan_attrs(type(self)(self.path))

    def describe(self) -> str:
        return self.path.describe()

    def _rowids(self, ctx: ExecContext, table, eval_scope: Scope) -> Iterator[int]:
        raise NotImplementedError  # pragma: no cover

    def _produce(self, ctx: ExecContext, parent: Optional[Scope]) -> Iterator[Scope]:
        if _M.enabled:
            self._access_counter.inc()
        path = self.path
        table = ctx.db.table(path.table)
        columns = table.meta.column_names
        binding = path.binding
        base = parent if parent is not None else ctx.outer
        rows = table.rows
        scanned = 0
        try:
            for rowid in self._rowids(ctx, table, base):
                scanned += 1
                row = rows.get(rowid)
                if row is None:
                    continue
                scope = base.child()
                scope.bind(binding, columns, row)
                scope.rowid = rowid
                yield scope
        finally:
            _ROWS_SCANNED.add(scanned)
            ctx.stats.rows_scanned += scanned


class SeqScan(_ScanBase):
    """Full scan over a table's row store."""

    _access_counter = _FULL_SCANS

    def _rowids(self, ctx, table, eval_scope):
        # Snapshot the key list so DML callers may mutate during iteration.
        return iter(list(table.rows.keys()))


class IndexLookup(_ScanBase):
    """Exact-key probe of one index (equality on all index columns)."""

    _access_counter = _INDEX_LOOKUPS

    def _rowids(self, ctx, table, eval_scope):
        ev = ctx.evaluator
        key = tuple(ev.evaluate(e, eval_scope) for e in self.path.key_exprs)
        # Plans cache live Index objects; snapshot reads resolve them to
        # the pinned version's frozen copy (identity on a live database).
        return iter(ctx.db.index_state(self.path.index).lookup(key))


class IndexRange(_ScanBase):
    """Ordered index scan: equality prefix or leading-column bounds."""

    _access_counter = _INDEX_LOOKUPS

    def _rowids(self, ctx, table, eval_scope):
        ev = ctx.evaluator
        path = self.path
        index = ctx.db.index_state(path.index)
        prefix = tuple(ev.evaluate(e, eval_scope) for e in path.prefix_exprs)
        if prefix:
            return index.range_scan(low=prefix, high=prefix)
        low = high = None
        low_inc = high_inc = True
        if path.low is not None:
            op, expr = path.low
            low = (ev.evaluate(expr, eval_scope),)
            low_inc = op == ">="
        if path.high is not None:
            op, expr = path.high
            high = (ev.evaluate(expr, eval_scope),)
            high_inc = op == "<="
        return index.range_scan(low, high, low_inc, high_inc)


class InProbe(_ScanBase):
    """Multi-probe of an index: ``column IN (known values...)``."""

    _access_counter = _INDEX_LOOKUPS

    def _rowids(self, ctx, table, eval_scope):
        ev = ctx.evaluator
        path = self.path
        index = ctx.db.index_state(path.index)
        seen: set[int] = set()
        for item in path.items:
            key = (ev.evaluate(item, eval_scope),)
            for rowid in index.lookup(key):
                if rowid not in seen:
                    seen.add(rowid)
                    yield rowid


class HashJoin(_ScanBase):
    """Equi-join probe with no usable index: hash the build table once per
    execution (keys normalised through ``sort_key`` so ``1`` matches
    ``1.0``), then every outer row probes the map in O(1).  NULL keys are
    excluded on both sides, matching SQL equi-join semantics."""

    _access_counter = _INDEX_LOOKUPS  # probes counted below at the build

    def _produce(self, ctx, parent):  # skip the per-open access counter
        path = self.path
        table = ctx.db.table(path.table)
        columns = table.meta.column_names
        binding = path.binding
        base = parent if parent is not None else ctx.outer
        rows = table.rows
        scanned = 0
        try:
            for rowid in self._rowids(ctx, table, base):
                scanned += 1
                row = rows.get(rowid)
                if row is None:
                    continue
                scope = base.child()
                scope.bind(binding, columns, row)
                scope.rowid = rowid
                yield scope
        finally:
            _ROWS_SCANNED.add(scanned)
            ctx.stats.rows_scanned += scanned

    def _rowids(self, ctx, table, eval_scope):
        path = self.path
        build = ctx.hash_builds.get(id(path))
        if build is None:
            build = {}
            for rowid, row in table.rows.items():
                key = tuple(row[p] for p in path.build_positions)
                if any(v is None for v in key):
                    continue  # NULL never matches an equi-join key
                hkey = tuple(sort_key(v) for v in key)
                build.setdefault(hkey, []).append(rowid)
            ctx.hash_builds[id(path)] = build
            if _M.enabled:
                _HJ_BUILDS.inc()
                _HJ_BUILD_ROWS.add(len(table.rows))
        _HJ_PROBES.inc()
        ev = ctx.evaluator
        probe = tuple(ev.evaluate(e, eval_scope) for e in path.probe_exprs)
        if any(v is None for v in probe):
            return
        yield from build.get(tuple(sort_key(v) for v in probe), ())


def scan_for_path(path) -> _ScanBase:
    """The physical scan operator interpreting one planner access path."""
    if isinstance(path, FullScan):
        return SeqScan(path)
    if isinstance(path, IndexEquality):
        return IndexLookup(path)
    if isinstance(path, IndexRangePath):
        return IndexRange(path)
    if isinstance(path, InProbePath):
        return InProbe(path)
    if isinstance(path, HashJoinPath):
        return HashJoin(path)
    raise ProgrammingError(f"unknown access path {path!r}")  # pragma: no cover


class ConstantRow(Operator):
    """Source of a FROM-less SELECT: one empty scope."""

    def clone(self):
        return self._copy_plan_attrs(ConstantRow())

    def describe(self) -> str:
        return "CONSTANT ROW"

    def _produce(self, ctx, parent):
        base = parent if parent is not None else ctx.outer
        yield base.child()


class SubqueryScan(Operator):
    """FROM-clause subquery: materialise once per execution, rebind per
    parent row.  FROM subqueries are uncorrelated (they resolve against a
    fresh scope), so the result set is cached in the execution context."""

    def __init__(self, plan: Operator, alias: str, names: list[str]) -> None:
        super().__init__()
        self.plan = plan
        self.alias = alias
        self.names = names

    def children(self) -> tuple:
        return (self.plan,)

    def clone(self):
        return self._copy_plan_attrs(
            SubqueryScan(self.plan.clone(), self.alias, self.names)
        )

    def describe(self) -> str:
        return f"SUBQUERY AS {self.alias}"

    def _produce(self, ctx, parent):
        rows = ctx.subquery_rows.get(id(self))
        if rows is None:
            sub_ctx = ctx.child(Scope())
            rows = [row for row, _c in self.plan.rows(sub_ctx)]
            ctx.subquery_rows[id(self)] = rows
        base = parent if parent is not None else ctx.outer
        for row in rows:
            scope = base.child()
            scope.bind(self.alias, self.names, row)
            yield scope


class NestedLoopJoin(Operator):
    """Left-deep nested loop: reopen the inner side once per outer row.

    The inner side usually carries a pushed-down access path (index probe,
    hash-probe, ...), so 'nested loop' is the control structure, not the
    cost.  The join condition is re-evaluated in full on the merged scope
    — access paths only pre-filter.  LEFT joins null-extend the right-side
    schemas when no inner row matched."""

    def __init__(self, left, right, kind: str, condition, null_schemas) -> None:
        super().__init__()
        self.left = left
        self.right = right
        self.kind = kind
        self.condition = condition
        self.null_schemas = null_schemas  # [(binding, columns)] of right side

    def children(self) -> tuple:
        return (self.left, self.right)

    def clone(self):
        return self._copy_plan_attrs(
            NestedLoopJoin(
                self.left.clone(),
                self.right.clone(),
                self.kind,
                self.condition,
                self.null_schemas,
            )
        )

    def describe(self) -> str:
        strategy = " [hash probe]" if isinstance(self.right, HashJoin) else ""
        return f"NESTED LOOP ({self.kind}){strategy}"

    def _produce(self, ctx, parent):
        ev = ctx.evaluator
        cond = self.condition
        kind = self.kind
        for left_scope in self.left.rows(ctx, parent):
            matched = False
            for right_scope in self.right.rows(ctx, left_scope):
                if cond is None or ev.is_true(cond, right_scope):
                    matched = True
                    yield right_scope
            if kind == "LEFT" and not matched:
                scope = left_scope.child()
                for binding, columns in self.null_schemas:
                    scope.bind(binding, columns, tuple([None] * len(columns)))
                yield scope


class FilterOp(Operator):
    """Residual predicate: WHERE re-evaluated in full above the source."""

    def __init__(self, condition, child) -> None:
        super().__init__()
        self.condition = condition
        self.child = child

    def children(self) -> tuple:
        return (self.child,)

    def clone(self):
        return self._copy_plan_attrs(FilterOp(self.condition, self.child.clone()))

    def describe(self) -> str:
        return "FILTER"

    def _produce(self, ctx, parent):
        ev = ctx.evaluator
        cond = self.condition
        for scope in self.child.rows(ctx, parent):
            if ev.is_true(cond, scope):
                yield scope


# ---------------------------------------------------------------------------
# Row-level operators: projection, aggregation, shaping.


def project_row(
    ev: Evaluator, cols, scope: Scope, aggregates: Optional[dict] = None
) -> tuple:
    """Evaluate one select list against *scope*.

    ``cols`` is the plan-time projection: ``("expr", expr)`` entries or
    expanded ``("star", binding, columns)`` entries.
    """
    old_agg = ev.aggregates
    if aggregates is not None:
        ev.aggregates = aggregates
    try:
        out: list[Any] = []
        for entry in cols:
            if entry[0] == "expr":
                out.append(ev.evaluate(entry[1], scope))
            else:
                _kind, binding, columns = entry
                for col in columns:
                    out.append(scope.resolve(binding, col))
        return tuple(out)
    finally:
        ev.aggregates = old_agg


class ProjectOp(Operator):
    """Evaluate the select list; yields ``(row, (scope, None))``."""

    def __init__(self, cols, child) -> None:
        super().__init__()
        self.cols = cols
        self.child = child

    def children(self) -> tuple:
        return (self.child,)

    def clone(self):
        return self._copy_plan_attrs(ProjectOp(self.cols, self.child.clone()))

    def describe(self) -> str:
        return "PROJECT"

    def _produce(self, ctx, parent):
        ev = ctx.evaluator
        cols = self.cols
        for scope in self.child.rows(ctx, parent):
            yield project_row(ev, cols, scope), (scope, None)


class HashAggregate(Operator):
    """Group rows by GROUP BY keys and fold aggregate accumulators.

    Groups surface in first-seen order; an aggregate over an empty
    ungrouped input still yields one row (with NULL-bound source columns
    so stray column references resolve to NULL, as SQL requires)."""

    def __init__(self, select: ast.Select, calls, cols, schemas, child) -> None:
        super().__init__()
        self.select = select
        self.calls = calls  # aggregate FuncCall nodes (identity-keyed)
        self.cols = cols  # plan-time projection entries
        self.schemas = schemas  # [(binding, columns)] for the empty case
        self.child = child

    def children(self) -> tuple:
        return (self.child,)

    def clone(self):
        return self._copy_plan_attrs(
            HashAggregate(
                self.select, self.calls, self.cols, self.schemas, self.child.clone()
            )
        )

    def describe(self) -> str:
        return "AGGREGATE"

    def _produce(self, ctx, parent):
        ev = ctx.evaluator
        stmt = self.select
        calls = self.calls
        groups: dict[tuple, tuple] = {}
        order: list[tuple] = []
        for scope in self.child.rows(ctx, parent):
            if stmt.group_by:
                key = tuple(sort_key(ev.evaluate(e, scope)) for e in stmt.group_by)
            else:
                key = ()
            g = groups.get(key)
            if g is None:
                g = (scope, {id(c): AggregateAccumulator(c) for c in calls})
                groups[key] = g
                order.append(key)
            accs = g[1]
            for call in calls:
                acc = accs[id(call)]
                if call.star:
                    acc.add(None)
                else:
                    if len(call.args) != 1:
                        raise ProgrammingError(
                            f"aggregate {call.name}() takes exactly one argument"
                        )
                    acc.add(ev.evaluate(call.args[0], scope))
        if not groups and not stmt.group_by:
            # Aggregate over an empty input still yields one row.
            empty_scope = (parent if parent is not None else ctx.outer).child()
            for binding, columns in self.schemas:
                empty_scope.bind(binding, columns, tuple([None] * len(columns)))
            groups[()] = (
                empty_scope,
                {id(c): AggregateAccumulator(c) for c in calls},
            )
            order.append(())
        for key in order:
            scope, accs = groups[key]
            agg_values = {i: acc.result() for i, acc in accs.items()}
            if stmt.having is not None:
                old = ev.aggregates
                ev.aggregates = agg_values
                try:
                    ok = ev.is_true(stmt.having, scope)
                finally:
                    ev.aggregates = old
                if not ok:
                    continue
            yield project_row(ev, self.cols, scope, agg_values), (scope, agg_values)


class DistinctOp(Operator):
    """SELECT DISTINCT: first-seen wins, keyed through ``sort_key``."""

    def __init__(self, child) -> None:
        super().__init__()
        self.child = child

    def children(self) -> tuple:
        return (self.child,)

    def clone(self):
        return self._copy_plan_attrs(DistinctOp(self.child.clone()))

    def describe(self) -> str:
        return "DISTINCT"

    def _produce(self, ctx, parent):
        seen: set = set()
        for item in self.child.rows(ctx, parent):
            key = tuple(sort_key(v) for v in item[0])
            if key in seen:
                continue
            seen.add(key)
            yield item


class UnionOp(Operator):
    """Concatenate compound SELECT branches.

    ``dedup_until`` is the index of the last branch covered by a ``UNION``
    (as opposed to ``UNION ALL``); branches up to it stream through a
    shared first-seen filter, later ``UNION ALL`` branches pass raw.  Row
    contexts are erased — ORDER BY over a compound must use output names
    or positions (checked in :class:`SortOp`)."""

    def __init__(self, inputs, dedup_until: int) -> None:
        super().__init__()
        self.inputs = inputs
        self.dedup_until = dedup_until

    def children(self) -> tuple:
        return tuple(self.inputs)

    def clone(self):
        return self._copy_plan_attrs(
            UnionOp([op.clone() for op in self.inputs], self.dedup_until)
        )

    def describe(self) -> str:
        return "UNION" if self.dedup_until >= 0 else "UNION ALL"

    def _produce(self, ctx, parent):
        seen: Optional[set] = set() if self.dedup_until >= 0 else None
        for i, branch in enumerate(self.inputs):
            dedup = seen is not None and i <= self.dedup_until
            for row, _context in branch.rows(ctx, parent):
                if dedup:
                    key = tuple(sort_key(v) for v in row)
                    if key in seen:
                        continue
                    seen.add(key)
                yield row, None


class _Reversed:
    """Inverts comparison order for DESC sort keys."""

    __slots__ = ("key",)

    def __init__(self, key) -> None:
        self.key = key

    def __lt__(self, other: "_Reversed") -> bool:
        return other.key < self.key

    def __eq__(self, other: object) -> bool:
        return isinstance(other, _Reversed) and other.key == self.key


def order_value(ev: Evaluator, expr: ast.Expr, row: tuple, names, context) -> Any:
    """The value one ORDER BY term sorts a result row on.

    Output positions and output-name references read straight from the
    row; anything else re-evaluates against the row's source context
    (scope + aggregate values), which a compound SELECT no longer has.
    """
    if isinstance(expr, ast.Literal) and isinstance(expr.value, int) and not isinstance(
        expr.value, bool
    ):
        pos = expr.value - 1
        if pos < 0 or pos >= len(row):
            raise ProgrammingError(f"ORDER BY position {expr.value} out of range")
        return row[pos]
    if isinstance(expr, ast.ColumnRef) and expr.table is None and expr.name.lower() in names:
        return row[names.index(expr.name.lower())]
    if context is None:
        raise ProgrammingError(
            "ORDER BY in compound SELECT must use output column names or positions"
        )
    scope, aggregates = context
    old = ev.aggregates
    if aggregates is not None:
        ev.aggregates = aggregates
    try:
        return ev.evaluate(expr, scope)
    finally:
        ev.aggregates = old


class _OrderedOp(Operator):
    """Shared sort-key machinery for :class:`SortOp` and :class:`TopN`."""

    def __init__(self, order_by, names, child) -> None:
        super().__init__()
        self.order_by = order_by
        self.names = [n.lower() for n in names]
        self.child = child

    def children(self) -> tuple:
        return (self.child,)

    def _key_fn(self, ctx):
        ev = ctx.evaluator
        names = self.names
        order_by = self.order_by

        def key_for(item):
            row, context = item
            parts = []
            for oi in order_by:
                k = sort_key(order_value(ev, oi.expr, row, names, context))
                parts.append(_Reversed(k) if oi.descending else k)
            return tuple(parts)

        return key_for


class SortOp(_OrderedOp):
    """Full materialising sort (stable, so equal keys keep source order)."""

    def clone(self):
        return self._copy_plan_attrs(SortOp(self.order_by, self.names, self.child.clone()))

    def describe(self) -> str:
        return "ORDER BY"

    def _produce(self, ctx, parent):
        items = list(self.child.rows(ctx, parent))
        items.sort(key=self._key_fn(ctx))
        yield from items


class TopN(_OrderedOp):
    """Fused ORDER BY + LIMIT: keep the k smallest in a bounded heap.

    ``heapq.nsmallest`` is documented equivalent to a stable
    ``sorted(...)[:k]``, so the fusion is byte-identical to SortOp +
    LimitOp while holding only ``offset + limit`` rows.  A NULL or
    negative LIMIT degrades to the full sort (matching LimitOp)."""

    def __init__(self, order_by, names, limit, offset, child) -> None:
        super().__init__(order_by, names, child)
        self.limit = limit
        self.offset = offset

    def clone(self):
        return self._copy_plan_attrs(
            TopN(self.order_by, self.names, self.limit, self.offset, self.child.clone())
        )

    def describe(self) -> str:
        return "TOP-N (ORDER BY + LIMIT)"

    def _produce(self, ctx, parent):
        ev = ctx.evaluator
        offset = 0
        if self.offset is not None:
            offset = max(0, int(ev.evaluate(self.offset, ctx.outer) or 0))
        limit = ev.evaluate(self.limit, ctx.outer)
        key_for = self._key_fn(ctx)
        if limit is None or int(limit) < 0:
            items = list(self.child.rows(ctx, parent))
            items.sort(key=key_for)
            yield from items[offset:]
            return
        k = offset + int(limit)
        if k <= 0:
            # Drain nothing: LIMIT 0 returns no rows regardless of input.
            return
        top = heapq.nsmallest(k, self.child.rows(ctx, parent), key=key_for)
        yield from top[offset:]


class LimitOp(Operator):
    """LIMIT/OFFSET: skip, then stop pulling once the quota is reached."""

    def __init__(self, limit, offset, child) -> None:
        super().__init__()
        self.limit = limit
        self.offset = offset
        self.child = child

    def children(self) -> tuple:
        return (self.child,)

    def clone(self):
        return self._copy_plan_attrs(LimitOp(self.limit, self.offset, self.child.clone()))

    def describe(self) -> str:
        return "LIMIT"

    def _produce(self, ctx, parent):
        ev = ctx.evaluator
        offset = 0
        if self.offset is not None:
            offset = max(0, int(ev.evaluate(self.offset, ctx.outer) or 0))
        n: Optional[int] = None
        if self.limit is not None:
            limit = ev.evaluate(self.limit, ctx.outer)
            if limit is not None and int(limit) >= 0:
                n = int(limit)
        if n == 0:
            return
        emitted = 0
        skipped = 0
        for item in self.child.rows(ctx, parent):
            if skipped < offset:
                skipped += 1
                continue
            yield item
            emitted += 1
            if n is not None and emitted >= n:
                return


# ---------------------------------------------------------------------------
# Vectorized operators: batch-at-a-time pipeline over columnar segments.
#
# VecScan and VecFilter move ColumnBatch objects (column vectors); the
# operators above the projection boundary (VecProject, VecSort, VecTopN,
# VecDistinct, VecLimit) move lists of plain row tuples.  VecAggregate is
# the bridge back into the row engine: it consumes ColumnBatches but
# exposes the classic row interface so the ORDER BY/LIMIT tail and HAVING
# logic are shared verbatim with HashAggregate.


class VecScan(Operator):
    """Batch leaf over one access path.

    ``slots`` maps batch slot -> table column position (assigned by the
    :class:`~repro.minidb.vector.KernelCompiler`); only those columns are
    materialised.  A full scan reads the table's columnar segment store,
    keyed to ``Table.data_version`` — if the table mutates mid-scan the
    remaining rowids are served through live row lookups, matching
    SeqScan's snapshot-the-keys semantics.  An index path (IndexEquality,
    IndexRange, InProbe) is a *gather*: row ids come from the row scan's
    own ``_rowids`` generator for that path, each live row is read once
    from ``table.rows``, and ids whose row is gone are skipped exactly as
    :class:`_ScanBase` skips them.
    """

    BATCHED = True

    def __init__(self, path, slots) -> None:
        super().__init__()
        self.path = path
        self.slots = slots
        # The row scan whose _rowids the gather reuses (None: segments).
        self._probe = None if isinstance(path, FullScan) else scan_for_path(path)

    def clone(self) -> "Operator":
        return self._copy_plan_attrs(VecScan(self.path, self.slots))

    def describe(self) -> str:
        return self.path.describe() + " [batched]"

    def _produce(self, ctx, parent):
        raise ProgrammingError(
            "VecScan is batch-only; use the batch interface"
        )  # pragma: no cover

    def _produce_batches(self, ctx, parent):
        if self._probe is not None:
            return self._gather_batches(ctx, parent)
        return self._segment_batches(ctx)

    def _gather_batches(self, ctx, parent):
        if _M.enabled:
            self._probe._access_counter.inc()
        table = ctx.db.table(self.path.table)
        get = table.rows.get
        getters = [itemgetter(pos) for pos in self.slots]
        base = parent if parent is not None else ctx.outer
        size = _vector.BATCH_SIZE
        scanned = 0
        gathered = 0
        nbatches = 0
        picked: list = []
        ids: list = []
        try:
            for rowid in self._probe._rowids(ctx, table, base):
                scanned += 1
                row = get(rowid)
                if row is None:
                    continue
                picked.append(row)
                ids.append(rowid)
                if len(picked) >= size:
                    gathered += len(picked)
                    nbatches += 1
                    yield _gathered_batch(picked, ids, getters)
                    picked = []
                    ids = []
            if picked:
                gathered += len(picked)
                nbatches += 1
                yield _gathered_batch(picked, ids, getters)
        finally:
            _ROWS_SCANNED.add(scanned)
            ctx.stats.rows_scanned += scanned
            if _M.enabled:
                _VEC_BATCHES.add(nbatches)
                _VEC_ROWS.add(gathered)

    def _segment_batches(self, ctx):
        if _M.enabled:
            _FULL_SCANS.inc()
        table = ctx.db.table(self.path.table)
        store = table.column_store()
        slots = self.slots
        scanned = 0
        nbatches = 0
        row_index = 0
        try:
            while row_index < store.nrows:
                size = _vector.BATCH_SIZE
                if table.data_version == store.version:
                    si, a = divmod(row_index, SEGMENT_ROWS)
                    seg = store.segment(si)
                    b = min(a + size, seg.n)
                    cols = []
                    kinds = []
                    for pos in slots:
                        vals, kind = seg.slice(pos, a, b)
                        cols.append(vals)
                        kinds.append(kind)
                    n = b - a
                    batch = ColumnBatch(n, cols, kinds, seg.rowids[a:b])
                    row_index += n
                else:
                    # Mid-scan mutation: finish through live row lookups.
                    items = store._items
                    rows_map = table.rows
                    picked: list = []
                    ids: list = []
                    while row_index < store.nrows and len(picked) < size:
                        rid = items[row_index][0]
                        row_index += 1
                        row = rows_map.get(rid)
                        if row is None:
                            continue
                        picked.append(row)
                        ids.append(rid)
                    if not picked:
                        continue
                    batch = _gathered_batch(
                        picked, ids, [itemgetter(pos) for pos in slots]
                    )
                    n = batch.n
                scanned += n
                nbatches += 1
                yield batch
        finally:
            _ROWS_SCANNED.add(scanned)
            ctx.stats.rows_scanned += scanned
            if _M.enabled:
                _VEC_BATCHES.add(nbatches)
                _VEC_ROWS.add(scanned)


def _gathered_batch(picked: list, ids: list, getters: list) -> ColumnBatch:
    """Column vectors for gathered rows (kind ``'o'``: no type guarantee)."""
    cols = [list(map(g, picked)) for g in getters]
    return ColumnBatch(len(picked), cols, ["o"] * len(cols), ids)


class VecFilter(Operator):
    """Predicate over whole batches: one kernel call computes the mask."""

    BATCHED = True

    def __init__(self, condition, kernel, child) -> None:
        super().__init__()
        self.condition = condition
        self.kernel = kernel
        self.child = child

    def children(self) -> tuple:
        return (self.child,)

    def clone(self):
        return self._copy_plan_attrs(
            VecFilter(self.condition, self.kernel, self.child.clone())
        )

    def describe(self) -> str:
        return "FILTER [vectorized]"

    def _produce(self, ctx, parent):
        raise ProgrammingError(
            "VecFilter is batch-only; use the batch interface"
        )  # pragma: no cover

    def _produce_batches(self, ctx, parent):
        ev = ctx.evaluator
        kfn = self.kernel.fn
        for b in self.child.batches(ctx, parent):
            mask = kfn(b, ev)
            sel = [i for i, v in enumerate(mask) if v is not None and v]
            if not sel:
                continue
            if len(sel) == b.n:
                yield b
                continue
            cols = [[col[i] for i in sel] for col in b.columns]
            rowids = (
                [b.rowids[i] for i in sel] if b.rowids is not None else None
            )
            yield ColumnBatch(len(sel), cols, b.kinds, rowids)


class _VecRowOp(Operator):
    """Base for vectorized operators that move lists of row tuples."""

    BATCHED = True

    def _produce(self, ctx, parent):
        # Row-engine adapter: flatten batches into (row, context) items.
        for batch in self._produce_batches(ctx, parent):
            for row in batch:
                yield row, None


class VecProject(_VecRowOp):
    """Kernel-per-output-column projection: ColumnBatch in, row batch out."""

    def __init__(self, kernels, child) -> None:
        super().__init__()
        self.kernels = kernels
        self.child = child

    def children(self) -> tuple:
        return (self.child,)

    def clone(self):
        return self._copy_plan_attrs(VecProject(self.kernels, self.child.clone()))

    def describe(self) -> str:
        return "PROJECT [vectorized]"

    def _produce_batches(self, ctx, parent):
        ev = ctx.evaluator
        kfns = [k.fn for k in self.kernels]
        single = kfns[0] if len(kfns) == 1 else None
        for b in self.child.batches(ctx, parent):
            if single is not None:
                yield [(v,) for v in single(b, ev)]
            else:
                yield list(zip(*[kf(b, ev) for kf in kfns]))


class VecAggregate(Operator):
    """Batchwise grouping: key/argument columns come from kernels, the
    accumulate-and-emit machinery is shared with :class:`HashAggregate`
    (same accumulator semantics, HAVING handling, empty-input row and
    ``(row, (scope, agg_values))`` output contract)."""

    def __init__(
        self, select, calls, cols, schemas, child, key_kernels, arg_kernels,
        binding, columns, row_slots,
    ) -> None:
        super().__init__()
        self.select = select
        self.calls = calls
        self.cols = cols
        self.schemas = schemas
        self.child = child
        self.key_kernels = key_kernels
        self.arg_kernels = arg_kernels  # id(call) -> kernel for non-star calls
        self.binding = binding
        self.columns = columns
        self.row_slots = row_slots  # table column position -> batch slot

    def children(self) -> tuple:
        return (self.child,)

    def clone(self):
        return self._copy_plan_attrs(
            VecAggregate(
                self.select, self.calls, self.cols, self.schemas,
                self.child.clone(), self.key_kernels, self.arg_kernels,
                self.binding, self.columns, self.row_slots,
            )
        )

    def describe(self) -> str:
        return "AGGREGATE [vectorized]"

    def _produce(self, ctx, parent):
        ev = ctx.evaluator
        stmt = self.select
        base = parent if parent is not None else ctx.outer
        binding = self.binding
        columns = self.columns
        row_slots = self.row_slots
        kfns = [k.fn for k in self.key_kernels]
        plans = [
            (id(c), None if c.star else self.arg_kernels[id(c)].fn, c)
            for c in self.calls
        ]
        groups: dict[tuple, tuple] = {}
        order: list[tuple] = []
        for b in self.child.batches(ctx, parent):
            keycols = [kf(b, ev) for kf in kfns]
            argcols = {
                cid: (af(b, ev) if af is not None else None)
                for cid, af, _c in plans
            }
            bcols = b.columns
            rowids = b.rowids
            for i in range(b.n):
                key = tuple(sort_key(kc[i]) for kc in keycols) if keycols else ()
                g = groups.get(key)
                if g is None:
                    scope = base.child()
                    scope.bind(
                        binding, columns, tuple(bcols[s][i] for s in row_slots)
                    )
                    if rowids is not None:
                        scope.rowid = rowids[i]
                    g = (
                        scope,
                        {cid: AggregateAccumulator(c) for cid, _af, c in plans},
                    )
                    groups[key] = g
                    order.append(key)
                accs = g[1]
                for cid, af, c in plans:
                    if af is None:
                        accs[cid].add(None)  # COUNT(*): every row counts
                    else:
                        accs[cid].add(argcols[cid][i])
        if not groups and not stmt.group_by:
            # Aggregate over an empty input still yields one row.
            empty_scope = base.child()
            for sbinding, scolumns in self.schemas:
                empty_scope.bind(sbinding, scolumns, tuple([None] * len(scolumns)))
            groups[()] = (
                empty_scope,
                {cid: AggregateAccumulator(c) for cid, _af, c in plans},
            )
            order.append(())
        for key in order:
            scope, accs = groups[key]
            agg_values = {i: acc.result() for i, acc in accs.items()}
            if stmt.having is not None:
                old = ev.aggregates
                ev.aggregates = agg_values
                try:
                    ok = ev.is_true(stmt.having, scope)
                finally:
                    ev.aggregates = old
                if not ok:
                    continue
            yield project_row(ev, self.cols, scope, agg_values), (scope, agg_values)


def _key0(decorated: tuple) -> tuple:
    return decorated[0]


class _VecOrderedOp(_VecRowOp):
    """Shared projection + sort-key machinery for VecSort and VecTopN.

    ``spec`` entries are ``(kind, payload, descending)``: ``("pos", i)``
    sorts on projected output column *i*; ``("kernel", k)`` computes a
    separate sort column from the source batch.  Both reduce through
    ``sort_key`` (DESC via ``_Reversed``) exactly like the row engine.
    """

    def __init__(self, proj_kernels, spec, child) -> None:
        super().__init__()
        self.proj_kernels = proj_kernels
        self.spec = spec
        self.child = child

    def children(self) -> tuple:
        return (self.child,)

    def _decorated(self, ctx, parent):
        """Yields ``(key_tuple, row)`` for every source row."""
        ev = ctx.evaluator
        pfns = [k.fn for k in self.proj_kernels]
        spec = self.spec
        for b in self.child.batches(ctx, parent):
            pcols = [pf(b, ev) for pf in pfns]
            if len(pcols) == 1:
                rows = [(v,) for v in pcols[0]]
            else:
                rows = list(zip(*pcols))
            keyparts = []
            for kind, payload, desc in spec:
                vals = pcols[payload] if kind == "pos" else payload.fn(b, ev)
                if desc:
                    keyparts.append([_Reversed(sort_key(v)) for v in vals])
                else:
                    keyparts.append([sort_key(v) for v in vals])
            for i, row in enumerate(rows):
                yield tuple(kp[i] for kp in keyparts), row

    def _emit(self, rows):
        size = _vector.BATCH_SIZE
        for a in range(0, len(rows), size):
            yield rows[a : a + size]


class VecSort(_VecOrderedOp):
    """Full materialising sort over decorated rows (stable, like SortOp)."""

    def clone(self):
        return self._copy_plan_attrs(
            VecSort(self.proj_kernels, self.spec, self.child.clone())
        )

    def describe(self) -> str:
        return "ORDER BY [vectorized]"

    def _produce_batches(self, ctx, parent):
        decorated = list(self._decorated(ctx, parent))
        decorated.sort(key=_key0)
        yield from self._emit([row for _k, row in decorated])


class VecTopN(_VecOrderedOp):
    """Fused ORDER BY + LIMIT over batches, same heap bound as TopN."""

    def __init__(self, proj_kernels, spec, limit, offset, child) -> None:
        super().__init__(proj_kernels, spec, child)
        self.limit = limit
        self.offset = offset

    def clone(self):
        return self._copy_plan_attrs(
            VecTopN(
                self.proj_kernels, self.spec, self.limit, self.offset,
                self.child.clone(),
            )
        )

    def describe(self) -> str:
        return "TOP-N (ORDER BY + LIMIT) [vectorized]"

    def _produce_batches(self, ctx, parent):
        ev = ctx.evaluator
        offset = 0
        if self.offset is not None:
            offset = max(0, int(ev.evaluate(self.offset, ctx.outer) or 0))
        limit = ev.evaluate(self.limit, ctx.outer)
        if limit is None or int(limit) < 0:
            decorated = list(self._decorated(ctx, parent))
            decorated.sort(key=_key0)
            yield from self._emit([row for _k, row in decorated[offset:]])
            return
        k = offset + int(limit)
        if k <= 0:
            return
        top = heapq.nsmallest(k, self._decorated(ctx, parent), key=_key0)
        yield from self._emit([row for _k, row in top[offset:]])


class VecDistinct(_VecRowOp):
    """SELECT DISTINCT over row batches (same sort_key dedup as DistinctOp)."""

    def __init__(self, child) -> None:
        super().__init__()
        self.child = child

    def children(self) -> tuple:
        return (self.child,)

    def clone(self):
        return self._copy_plan_attrs(VecDistinct(self.child.clone()))

    def describe(self) -> str:
        return "DISTINCT [vectorized]"

    def _produce_batches(self, ctx, parent):
        seen: set = set()
        add = seen.add
        for batch in self.child.batches(ctx, parent):
            out = []
            for row in batch:
                key = tuple(sort_key(v) for v in row)
                if key not in seen:
                    add(key)
                    out.append(row)
            if out:
                yield out


class VecLimit(_VecRowOp):
    """LIMIT/OFFSET over row batches; stops pulling once the quota fills."""

    def __init__(self, limit, offset, child) -> None:
        super().__init__()
        self.limit = limit
        self.offset = offset
        self.child = child

    def children(self) -> tuple:
        return (self.child,)

    def clone(self):
        return self._copy_plan_attrs(
            VecLimit(self.limit, self.offset, self.child.clone())
        )

    def describe(self) -> str:
        return "LIMIT [vectorized]"

    def _produce_batches(self, ctx, parent):
        ev = ctx.evaluator
        offset = 0
        if self.offset is not None:
            offset = max(0, int(ev.evaluate(self.offset, ctx.outer) or 0))
        n: Optional[int] = None
        if self.limit is not None:
            limit = ev.evaluate(self.limit, ctx.outer)
            if limit is not None and int(limit) >= 0:
                n = int(limit)
        if n == 0:
            return
        skipped = 0
        emitted = 0
        for batch in self.child.batches(ctx, parent):
            if skipped < offset:
                take = min(len(batch), offset - skipped)
                skipped += take
                batch = batch[take:]
                if not batch:
                    continue
            if n is not None and emitted + len(batch) > n:
                batch = batch[: n - emitted]
            emitted += len(batch)
            if batch:
                yield batch
            if n is not None and emitted >= n:
                return


# ---------------------------------------------------------------------------
# Plan rendering.


def render_plan(root: Operator, analyze: bool = False) -> list[str]:
    """Indented operator-tree text for EXPLAIN / EXPLAIN ANALYZE."""
    lines: list[str] = []

    def walk(op: Operator, depth: int) -> None:
        line = "  " * depth + op.describe()
        if not analyze and op.est_rows is not None:
            line += f"  (~{op.est_rows} rows)"
        if analyze and op.loops:
            batches = f" batches={op.actual_batches}" if op.actual_batches else ""
            line += (
                f" (actual rows={op.actual_rows}{batches} loops={op.loops} "
                f"time={op.seconds * 1000.0:.3f} ms)"
            )
        lines.append(line)
        for child in op.children():
            walk(child, depth + 1)

    walk(root, 0)
    return lines


def plan_snapshot(root: Operator) -> list[dict]:
    """The operator tree as plain dicts, one node per operator (pre-order).

    This is the structured sibling of :func:`render_plan`, consumed by the
    statement profiler's plan flight recorder: each node carries the
    planner's estimate (``est_rows``) next to the metered actuals
    (``rows``/``batches``/``loops``/``seconds``), so estimate-vs-actual
    drift can be computed without re-executing or re-parsing EXPLAIN text.
    """
    nodes: list[dict] = []

    def walk(op: Operator, depth: int) -> None:
        nodes.append(
            {
                "depth": depth,
                "op": type(op).__name__,
                "describe": op.describe(),
                "est_rows": op.est_rows,
                "rows": op.actual_rows,
                "batches": op.actual_batches,
                "loops": op.loops,
                "seconds": op.seconds,
            }
        )
        for child in op.children():
            walk(child, depth + 1)

    walk(root, 0)
    return nodes
