"""Physical operators for minidb — one batch-at-a-time pipeline.

Every operator is built once per plan by the optimizer
(:mod:`repro.minidb.optimizer`) and is stateless: a cached plan runs as
it is, execution after execution, and two cursors may drain the same plan
at once, because each run keeps its state in its own generator frames and
its own :class:`ExecContext`.  Work that depends on the plan alone (column
getters, probe expressions, the access-path kind) is done when the
operator is built.  One pull protocol moves data: ``batches(ctx)``
returns a generator of batches.  Below the projection boundary (scans,
joins, filters) a batch is a :class:`~repro.minidb.vector.ColumnBatch` of
column vectors; above it (projection, aggregation, distinct, union, sort,
top-N, limit) a batch is a plain list of row tuples.  Expressions run as
:mod:`repro.minidb.vector` kernels, which fall back to the row interpreter
per expression, never per plan.

Per-operator actuals (rows, batches, loops, seconds) belong to one
execution: they live in its :class:`ExecStats`, keyed by operator, and
are collected only while ``ctx.analyze`` is on.  ``EXPLAIN ANALYZE``
renders them with :func:`render_plan`, the statement profiler reads them
with :func:`plan_snapshot`.  Engine metrics (rows scanned, access-path
counters, hash-join build/probe activity) are flushed from the operator
bodies.
"""

from __future__ import annotations

import heapq
from itertools import islice, repeat
from operator import itemgetter
from typing import Iterator, Optional

from ..obs.clock import now as _now
from ..obs.metrics import metrics as _M
from . import ast_nodes as ast
from . import vector as _vector
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
from .vector import ColumnBatch, bind_row

# Engine metrics (see docs/observability.md).  Instruments no-op while the
# registry is disabled; hot loops aggregate into locals and flush once per
# operator run.
_ROWS_SCANNED = _M.counter("minidb.rows.scanned", unit="rows")
_FULL_SCANS = _M.counter("minidb.access.full_scans")
_INDEX_LOOKUPS = _M.counter("minidb.access.index_lookups")
_HJ_BUILDS = _M.counter("minidb.hash_join.builds")
_HJ_BUILD_ROWS = _M.counter("minidb.hash_join.build_rows", unit="rows")
_HJ_PROBES = _M.counter("minidb.hash_join.probes")
_VEC_BATCHES = _M.counter("minidb.vector.batches")
_VEC_ROWS = _M.counter("minidb.vector.rows", unit="rows")


class Actuals:
    """What one operator did in one execution: rows and batches it
    produced, how often it ran (``loops``) and its inclusive time."""

    __slots__ = ("rows", "batches", "loops", "seconds")

    def __init__(self) -> None:
        self.rows = 0
        self.batches = 0
        self.loops = 0
        self.seconds = 0.0


class ExecStats:
    """Per-statement-execution numbers, read after the run.

    One instance is shared by every :class:`ExecContext` of a statement
    execution (subquery contexts included).  ``rows_scanned`` is always
    kept: scan operators add their local counts here at the same
    once-per-run flush points that feed the global registry counters, so
    the cost is per run, not per row, and the number exists even while
    the metrics registry is disabled.  ``actuals`` maps each operator
    that ran to its :class:`Actuals`; it is filled only while the run is
    analyzed (``EXPLAIN ANALYZE`` or the statement profiler).
    """

    __slots__ = ("rows_scanned", "actuals")

    def __init__(self) -> None:
        self.rows_scanned = 0
        self.actuals: dict = {}

    def actual(self, op: "Operator") -> Actuals:
        """*op*'s actuals in this execution, created on first use."""
        found = self.actuals.get(op)
        if found is None:
            found = self.actuals[op] = Actuals()
        return found


class ExecContext:
    """Per-execution state shared by every operator in one plan run.

    ``outer`` is the enclosing query's row for a correlated subquery
    (kernels that fall back to the interpreter chain their scopes to it).
    ``hash_builds`` holds hash-join build tables, keyed by id(access
    path): built on the first probe of a statement execution, reused for
    every later one (including re-runs of correlated subqueries).
    ``subquery_rows`` holds FROM-subquery materialisations, keyed by
    id(operator): FROM subqueries are uncorrelated by construction, so
    one execution computes them at most once even when a join probes
    them per batch.  A :meth:`child` context shares both caches and the
    execution's :class:`ExecStats`.
    """

    __slots__ = (
        "db", "evaluator", "stats", "analyze", "outer", "hash_builds", "subquery_rows",
    )

    def __init__(
        self,
        db,
        evaluator: Evaluator,
        stats: ExecStats,
        analyze: bool = False,
        outer: Optional[Scope] = None,
        hash_builds: Optional[dict] = None,
        subquery_rows: Optional[dict] = None,
    ) -> None:
        self.db = db
        self.evaluator = evaluator
        self.stats = stats
        self.analyze = analyze
        self.outer = Scope() if outer is None else outer
        self.hash_builds = {} if hash_builds is None else hash_builds
        self.subquery_rows = {} if subquery_rows is None else subquery_rows

    def child(self, outer: Scope) -> "ExecContext":
        """A context for a sub-plan sharing this execution's caches."""
        return ExecContext(
            self.db, self.evaluator, self.stats, self.analyze, outer,
            self.hash_builds, self.subquery_rows,
        )


class Operator:
    """Base physical operator: the batch pull protocol plus plan shape.

    ``batches(ctx)`` starts one run of the operator and returns its
    generator of batches; closing the generator (or dropping it) ends
    the run.  An operator keeps no run state of its own, so one instance
    serves every run of its plan.  ``BATCHED`` marks operators native to
    the pipeline — every concrete operator sets it, and the plan-shape
    test asserts it on every node of every plan.
    """

    #: True on every concrete pipeline operator.
    BATCHED = False

    #: the planner's row estimate, set by the optimizer (None: unknown)
    est_rows: Optional[int] = None

    # -- plan shape ---------------------------------------------------------

    def children(self) -> tuple:
        return ()

    def describe(self) -> str:
        raise NotImplementedError  # pragma: no cover

    # -- pull protocol --------------------------------------------------------

    def batches(self, ctx: ExecContext) -> Iterator:
        """One run of this operator: a generator of batches."""
        if ctx.analyze:
            actual = ctx.stats.actual(self)
            actual.loops += 1
            return _metered(actual, self._produce_batches(ctx))
        return self._produce_batches(ctx)

    def _produce_batches(self, ctx: ExecContext) -> Iterator:
        raise NotImplementedError  # pragma: no cover


def _metered(actual: Actuals, it: Iterator) -> Iterator:
    """*it*, adding the rows, batches and pull time it yields to *actual*."""
    t0 = _now()
    for batch in it:
        actual.seconds += _now() - t0
        actual.rows += batch.n if isinstance(batch, ColumnBatch) else len(batch)
        actual.batches += 1
        yield batch
        t0 = _now()
    actual.seconds += _now() - t0


# ---------------------------------------------------------------------------
# Access paths: which row ids one probe of a table visits.


def probe_exprs(path) -> list:
    """The expressions *path* evaluates to find its row ids, in the order
    its :func:`rowid_source` consumes their values (none for a full scan)."""
    if isinstance(path, IndexEquality):
        return list(path.key_exprs)
    if isinstance(path, IndexRangePath):
        bounds = [b[1] for b in (path.low, path.high) if b is not None]
        return list(path.prefix_exprs) + bounds
    if isinstance(path, InProbePath):
        return list(path.items)
    if isinstance(path, HashJoinPath):
        return list(path.probe_exprs)
    return []


def rowid_source(path, table):
    """``rowids(ctx, values)`` for one access path over *table*: the row
    ids one probe visits, given the values of the path's
    :func:`probe_exprs`.  The kind of path is resolved here, once per
    plan.  Ids may name rows deleted since the probe started; callers
    skip those.  Each probe bumps the access-path counters.

    An equality or IN probe never matches a NULL probe value, as SQL
    ``=`` and ``IN`` require: these paths enforce the conjuncts they
    consume (:func:`~repro.minidb.planner.enforced_conjuncts`), so no
    filter above them re-checks the rows."""
    if isinstance(path, FullScan):

        def full_scan(ctx: ExecContext, values) -> list:
            if _M.enabled:
                _FULL_SCANS.inc()
            # Snapshot the key list so DML callers may mutate during iteration.
            return list(table.rows.keys())

        return full_scan
    if isinstance(path, HashJoinPath):
        return lambda ctx, values: _hash_probe(ctx, path, table, values)
    index = path.index
    if isinstance(path, IndexEquality):
        lookup = index.rowids

        def equality(ctx: ExecContext, values):
            if _M.enabled:
                _INDEX_LOOKUPS.inc()
            return () if None in values else lookup(values)

        return equality
    if isinstance(path, InProbePath):  # always a one-column index
        lookup_in = index.rowids_in

        def in_probe(ctx: ExecContext, values):
            if _M.enabled:
                _INDEX_LOOKUPS.inc()
            if None in values:
                values = [v for v in values if v is not None]
            return lookup_in(values)  # probes each distinct key once

        return in_probe
    nprefix = len(path.prefix_exprs)
    low_inc = path.low is None or path.low[0] == ">="
    high_inc = path.high is None or path.high[0] == "<="

    def index_range(ctx: ExecContext, values):
        if _M.enabled:
            _INDEX_LOOKUPS.inc()
        if nprefix:
            prefix = tuple(values[:nprefix])
            return index.range_scan(low=prefix, high=prefix)
        bounds = iter(values)
        low = (next(bounds),) if path.low is not None else None
        high = (next(bounds),) if path.high is not None else None
        return index.range_scan(low, high, low_inc, high_inc)

    return index_range


def _probe_values(exprs: list):
    """``values(ctx)``: the values of one access path's probe
    expressions *exprs*, set up once per plan.  Placeholders read the
    bound parameters directly (the connection has already checked that
    every placeholder has one); any other expression is evaluated
    against the outer scope."""

    def evaluated(ctx: ExecContext) -> list:
        ev = ctx.evaluator
        outer = ctx.outer
        return [ev.evaluate(e, outer) for e in exprs]

    if not all(type(e) is ast.Parameter for e in exprs):
        return evaluated
    positions = [e.index for e in exprs]

    def parameters(ctx: ExecContext) -> list:
        bound = ctx.evaluator.params
        return [bound[i] for i in positions]

    return parameters


def _hash_probe(ctx: ExecContext, path, table, values):
    """Equi-join probe with no usable index: hash the build table once per
    execution (keys normalised through ``sort_key`` so ``1`` matches
    ``1.0``), then every probe is O(1).  NULL keys are excluded on both
    sides, matching SQL equi-join semantics."""
    build = ctx.hash_builds.get(id(path))
    if build is None:
        build = {}
        for rowid, row in table.rows.items():
            key = tuple(row[p] for p in path.build_positions)
            if any(v is None for v in key):
                continue  # NULL never matches an equi-join key
            build.setdefault(tuple(sort_key(v) for v in key), []).append(rowid)
        ctx.hash_builds[id(path)] = build
        if _M.enabled:
            _HJ_BUILDS.inc()
            _HJ_BUILD_ROWS.add(len(table.rows))
    _HJ_PROBES.inc()
    if any(v is None for v in values):
        return ()
    return build.get(tuple(sort_key(v) for v in values), ())


def _key_check(path, table, values):
    """``holds(row)``: whether *row* still carries a key that an exact
    *path* probed with *values* (always true for a path whose conjuncts
    a filter above re-checks anyway)."""
    if not isinstance(path, (IndexEquality, InProbePath)):
        return lambda row: True
    positions = [table.meta.column_index(c) for c in path.index.columns]
    if isinstance(path, InProbePath):
        keys = set(values)
        keys.discard(None)
        pos = positions[0]
        return lambda row: row[pos] in keys
    key = list(values)
    return lambda row: [row[p] for p in positions] == key


def column_reader(slots):
    """``columns(rows)``: the column vectors at the row positions *slots*
    of a list of row tuples, set up once per plan."""
    getters = [itemgetter(pos) for pos in slots]
    if len(getters) == 1:
        (get,) = getters
        return lambda rows: [list(map(get, rows))]
    return lambda rows: [list(map(g, rows)) for g in getters]


def _gathered_batch(picked: list, ids: Optional[list], columns) -> ColumnBatch:
    """A batch of gathered rows, read by the :func:`column_reader`
    *columns* (kind ``'o'``: no type guarantee)."""
    cols = columns(picked)
    return ColumnBatch(len(picked), cols, ["o"] * len(cols), ids)


# ---------------------------------------------------------------------------
# Leaves: the operators that start a column-batch pipeline.


class VecScan(Operator):
    """Batch leaf over one base-table access path.

    ``slots`` lists the table column positions a batch carries (the
    :class:`~repro.minidb.vector.KernelCompiler`'s block for this table).
    A full scan reads the table's columnar segment store, keyed to
    ``Table.data_version`` — if the table mutates mid-scan the remaining
    rowids are served through live row lookups, so deleted rows vanish.
    Any other path (IndexEquality, IndexRange, InProbe, HashJoin) is a
    *gather*: its probe values are evaluated against the outer scope,
    the path's :func:`rowid_source` gives the ids, and each batch's worth
    of ids is read from ``table.rows`` in one step, skipping ids whose
    row is gone.  A gather reads its rows across ``yield``s, so a write
    on the same connection can change a probed row's key before it is
    read; once ``data_version`` has moved, an exact path keeps only rows
    whose index columns still hold a probed key (see :func:`_key_check`).

    As the inner side of a :class:`VecIndexJoin` it is probed through
    :meth:`prober` once per distinct key instead.
    """

    BATCHED = True

    def __init__(self, path, slots, table) -> None:
        self.path = path
        self.slots = slots
        self.table = table
        # Set up once per plan: the access-path kind, the column reader
        # and kinds of a gathered batch, the probe values and the path's
        # row-id source.
        self.full = isinstance(path, FullScan)
        self.lazy = isinstance(path, IndexRangePath)  # ids come as an iterator
        self.columns = column_reader(slots)
        self.kinds = ["o"] * len(slots)
        self.probe_values = _probe_values(probe_exprs(path))
        self.rowids = rowid_source(path, table)

    def describe(self) -> str:
        return self.path.describe()

    def prober(self, ctx: ExecContext):
        """``probe(values) -> (ids visited, live rows)`` for one join run."""
        get = self.table.rows.get
        rowids = self.rowids
        lazy = self.lazy

        def probe(values: tuple) -> tuple[int, list]:
            ids = rowids(ctx, values)
            if lazy:
                ids = list(ids)
            return len(ids), [r for r in map(get, ids) if r is not None]

        return probe

    def _produce_batches(self, ctx):
        if self.full:
            return self._segment_batches(ctx)
        return self._gather_batches(ctx)

    def _gather_batches(self, ctx):
        table = self.table
        get = table.rows.get
        columns = self.columns
        values = self.probe_values(ctx)
        ids = self.rowids(ctx, values)
        size = _vector.BATCH_SIZE
        # The ids in batch-sized chunks; a range path's come lazily.
        if self.lazy:
            source = iter(ids)
            chunks = iter(lambda: list(islice(source, size)), [])
        elif len(ids) <= size:
            chunks = (ids,) if ids else ()
        else:
            chunks = [ids[a : a + size] for a in range(0, len(ids), size)]
        scanned = 0
        gathered = 0
        nbatches = 0
        version = table.data_version
        holds = None  # set once the table has changed since the probe
        try:
            for chunk in chunks:
                scanned += len(chunk)
                rows = list(map(get, chunk))
                if holds is not None or None in rows:
                    keep = [
                        i for i, row in enumerate(rows)
                        if row is not None and (holds is None or holds(row))
                    ]
                    rows = [rows[i] for i in keep]
                    chunk = [chunk[i] for i in keep]
                    if not rows:
                        continue
                n = len(rows)
                gathered += n
                nbatches += 1
                yield ColumnBatch(
                    n,
                    columns(rows),
                    self.kinds,
                    chunk if type(chunk) is list else list(chunk),
                )
                if holds is None and table.data_version != version:
                    holds = _key_check(self.path, table, values)
        finally:
            ctx.stats.rows_scanned += scanned
            if _M.enabled:
                _ROWS_SCANNED.add(scanned)
                _VEC_BATCHES.add(nbatches)
                _VEC_ROWS.add(gathered)

    def _segment_batches(self, ctx):
        if _M.enabled:
            _FULL_SCANS.inc()
        table = self.table
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
                    batch = _gathered_batch(picked, ids, self.columns)
                    n = batch.n
                scanned += n
                nbatches += 1
                yield batch
        finally:
            ctx.stats.rows_scanned += scanned
            if _M.enabled:
                _ROWS_SCANNED.add(scanned)
                _VEC_BATCHES.add(nbatches)
                _VEC_ROWS.add(scanned)


class ConstantRow(Operator):
    """Source of a FROM-less SELECT: one batch of one row and no columns."""

    BATCHED = True

    def describe(self) -> str:
        return "CONSTANT ROW"

    def _produce_batches(self, ctx):
        yield ColumnBatch(1, [], [])


class SubqueryScan(Operator):
    """FROM-clause subquery: materialise once per execution, then emit
    column batches of the output positions in ``slots``.  FROM subqueries
    are uncorrelated (they resolve against a fresh scope), so the rows are
    cached in the execution context; a join probes them whole."""

    BATCHED = True

    def __init__(self, plan: Operator, alias: str, names: list[str], slots) -> None:
        self.plan = plan
        self.alias = alias
        self.names = names
        self.slots = slots
        self.columns = column_reader(slots)

    def children(self) -> tuple:
        return (self.plan,)

    def describe(self) -> str:
        return f"SUBQUERY AS {self.alias}"

    def _rows(self, ctx: ExecContext) -> list:
        rows = ctx.subquery_rows.get(id(self))
        if rows is None:
            sub_ctx = ctx.child(Scope())
            rows = [row for batch in self.plan.batches(sub_ctx) for row in batch]
            ctx.subquery_rows[id(self)] = rows
        return rows

    def prober(self, ctx: ExecContext):
        rows = self._rows(ctx)
        return lambda values: (0, rows)

    def _produce_batches(self, ctx):
        rows = self._rows(ctx)
        size = _vector.BATCH_SIZE
        for a in range(0, len(rows), size):
            yield _gathered_batch(rows[a : a + size], None, self.columns)


# ---------------------------------------------------------------------------
# Column-batch operators: joins and filters.


class VecIndexJoin(Operator):
    """Batched join of the column-batch pipeline with one inner leaf.

    ``inner`` is a :class:`VecScan` over any access path or a
    :class:`SubqueryScan`.  For each outer batch the key kernels (one per
    :func:`probe_exprs` entry of the inner path, compiled over the outer
    columns) are evaluated once, the inner side is probed once per
    distinct key, and every (outer row, inner row) pair is checked
    against ``on_kernel`` over the merged batch.  ``condition`` is the
    part of ON that the inner path does not enforce (an equality or IN
    probe answers its consumed conjuncts, NULL keys included; see
    :func:`~repro.minidb.planner.enforced_conjuncts`), and both are None
    when nothing is left to check.  Output is in outer order, then inner
    order — the order a nested loop emits.  A LEFT join null-extends each
    outer row none of whose pairs passed ON.  ``slots`` (the inner
    leaf's) are appended after the outer slots.

    ``minidb.rows.scanned`` counts every (outer row, probed id) pair, and
    EXPLAIN ANALYZE one inner loop per outer row, as a per-outer-row
    probe would; ``minidb.vector.rows`` and ``batches`` count the joined
    rows and batches emitted.
    """

    BATCHED = True

    def __init__(self, inner, key_kernels, kind, condition, on_kernel, child) -> None:
        self.inner = inner
        self.key_kernels = key_kernels
        self.kind = kind
        self.condition = condition
        self.on_kernel = on_kernel
        self.child = child

    def children(self) -> tuple:
        return (self.child, self.inner)

    def describe(self) -> str:
        return f"JOIN ({self.kind})"

    def _produce_batches(self, ctx):
        inner = self.inner
        probe = inner.prober(ctx)
        columns = inner.columns
        kfns = [k.fn for k in self.key_kernels]
        on = self.on_kernel.fn if self.on_kernel is not None else None
        left = self.kind == "LEFT"
        # The inner leaf's actuals: one loop per outer row, as a
        # per-outer-row probe would run it.
        inner_actual = ctx.stats.actual(inner) if ctx.analyze else None
        size = _vector.BATCH_SIZE
        scanned = 0
        gathered = 0
        nbatches = 0
        try:
            for b in self.child.batches(ctx):
                # key -> (ids probed, live inner rows), one probe per key.
                hits: dict = {}
                sel: list = []
                picked: list = []
                one_each = True
                keys = zip(*[kf(b, ctx) for kf in kfns]) if kfns else repeat((), b.n)
                for i, key in enumerate(keys):
                    hit = hits.get(key)
                    if hit is None:
                        if inner_actual is None:
                            hit = hits[key] = probe(key)
                        else:
                            t0 = _now()
                            hit = hits[key] = probe(key)
                            inner_actual.seconds += _now() - t0
                    scanned += hit[0]
                    if inner_actual is not None:
                        inner_actual.loops += 1
                        inner_actual.rows += len(hit[1])
                    if len(hit[1]) != 1:
                        one_each = False
                    for row in hit[1]:
                        sel.append(i)
                        picked.append(row)
                if one_each:
                    outer = b.columns  # every outer row has exactly one pair
                else:
                    outer = [[col[i] for i in sel] for col in b.columns]
                kinds = b.kinds + ["o"] * len(inner.slots)
                merged = ColumnBatch(len(sel), outer + columns(picked), kinds)
                if on is not None and merged.n:
                    mask = on(merged, ctx)
                    keep = [j for j, v in enumerate(mask) if v]
                else:
                    keep = None
                if left:
                    merged = _null_extend(b, sel, keep, merged)
                elif keep is not None and len(keep) != merged.n:
                    merged = ColumnBatch(
                        len(keep), [[col[j] for j in keep] for col in merged.columns], kinds
                    )
                n = merged.n
                if not n:
                    continue
                gathered += n
                if n <= size:
                    nbatches += 1
                    yield merged
                    continue
                for a in range(0, n, size):
                    nbatches += 1
                    yield ColumnBatch(
                        min(size, n - a), [col[a : a + size] for col in merged.columns], kinds
                    )
        finally:
            ctx.stats.rows_scanned += scanned
            if _M.enabled:
                _ROWS_SCANNED.add(scanned)
                _VEC_BATCHES.add(nbatches)
                _VEC_ROWS.add(gathered)


def _null_extend(b: ColumnBatch, sel: list, keep: Optional[list], merged: ColumnBatch) -> ColumnBatch:
    """LEFT-join output of one outer batch: the ON-passing pairs *keep*
    (all pairs when None) of *merged*, in outer order, with every outer
    row of *b* that kept no pair null-extended in its place."""
    if keep is None:
        keep = range(merged.n)
    order: list = []  # pair index, or ~outer row for a null-extended row
    k = 0
    for i in range(b.n):
        start = len(order)
        while k < len(keep) and sel[keep[k]] == i:
            order.append(keep[k])
            k += 1
        if len(order) == start:
            order.append(~i)
    nouter = len(b.columns)
    cols = [
        [col[sel[j]] if j >= 0 else col[~j] for j in order] for col in b.columns
    ] + [
        [col[j] if j >= 0 else None for j in order] for col in merged.columns[nouter:]
    ]
    return ColumnBatch(len(order), cols, merged.kinds)


class VecFilter(Operator):
    """Predicate over whole batches: one kernel call computes the mask."""

    BATCHED = True

    def __init__(self, condition, kernel, child) -> None:
        self.condition = condition
        self.kernel = kernel
        self.child = child

    def children(self) -> tuple:
        return (self.child,)

    def describe(self) -> str:
        return "FILTER"

    def _produce_batches(self, ctx):
        kfn = self.kernel.fn
        for b in self.child.batches(ctx):
            mask = kfn(b, ctx)
            sel = [i for i, v in enumerate(mask) if v]
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


# ---------------------------------------------------------------------------
# Row-batch operators: projection, aggregation and the output tail.
#
# ORDER BY terms that are neither output positions nor output names are
# computed by the projection (or aggregate) as hidden trailing columns;
# VecSort/VecTopN sort on row positions and trim the hidden columns off,
# and VecDistinct under them deduplicates on the visible prefix only.


def _chunks(rows: list) -> Iterator[list]:
    size = _vector.BATCH_SIZE
    for a in range(0, len(rows), size):
        yield rows[a : a + size]


class VecProject(Operator):
    """Kernel-per-output-column projection: ColumnBatch in, row batch out."""

    BATCHED = True

    def __init__(self, kernels, child) -> None:
        self.kernels = kernels
        self.child = child
        # Set up once per plan: the kernel functions, and the one kernel
        # of a one-column projection.
        self.kfns = [k.fn for k in kernels]
        self.single = self.kfns[0] if len(self.kfns) == 1 else None

    def children(self) -> tuple:
        return (self.child,)

    def describe(self) -> str:
        return "PROJECT"

    def _produce_batches(self, ctx):
        single = self.single
        if single is not None:
            for b in self.child.batches(ctx):
                yield [(v,) for v in single(b, ctx)]
            return
        kfns = self.kfns
        for b in self.child.batches(ctx):
            yield list(zip(*[kf(b, ctx) for kf in kfns]))


def project_row(ev: Evaluator, cols, scope: Scope, aggregates: dict) -> list:
    """Evaluate one select list against *scope* with *aggregates* bound.

    ``cols`` is the plan-time projection: ``("expr", expr)`` entries or
    expanded ``("star", binding, columns)`` entries.
    """
    old_agg = ev.aggregates
    ev.aggregates = aggregates
    try:
        out: list = []
        for entry in cols:
            if entry[0] == "expr":
                out.append(ev.evaluate(entry[1], scope))
            else:
                _kind, binding, columns = entry
                for col in columns:
                    out.append(scope.resolve(binding, col))
        return out
    finally:
        ev.aggregates = old_agg


class VecAggregate(Operator):
    """Group column batches by the GROUP BY kernels and fold aggregates.

    Key and argument columns come from kernels, one call per batch.  The
    first row of each group is kept as its representative scope (every
    table of the source bound, see :func:`~repro.minidb.vector.bind_row`)
    against which HAVING, the select list and the ``hidden`` ORDER BY
    terms evaluate with the group's aggregate values bound.  Groups
    surface in first-seen order; an aggregate over an empty ungrouped
    input still yields one row, with every source column NULL.
    """

    BATCHED = True

    def __init__(
        self, select, group_by, calls, cols, hidden, child, key_kernels,
        arg_kernels, blocks,
    ) -> None:
        self.select = select
        self.group_by = group_by  # GROUP BY terms, output references resolved
        self.calls = calls  # aggregate FuncCall nodes (identity-keyed)
        self.cols = cols  # plan-time projection entries
        self.hidden = hidden  # ORDER BY expressions appended to each row
        self.child = child
        self.key_kernels = key_kernels
        self.arg_kernels = arg_kernels  # id(call) -> kernel for non-star calls
        self.blocks = blocks  # per table: (binding, lowered names, slots)

    def children(self) -> tuple:
        return (self.child,)

    def describe(self) -> str:
        return "AGGREGATE"

    def _produce_batches(self, ctx):
        groups: dict[tuple, tuple] = {}
        for b in self.child.batches(ctx):
            self._fold(ctx, b, groups)
        if not groups and not self.group_by:
            # Aggregate over an empty input still yields one row.
            nulls = [[None]] * sum(len(slots) for _b, _n, slots in self.blocks)
            groups[()] = (
                bind_row(ctx.outer, self.blocks, nulls, 0),
                {id(c): AggregateAccumulator(c) for c in self.calls},
            )
        yield from _chunks(self._emit(ctx, groups))

    def _fold(self, ctx, b: ColumnBatch, groups: dict) -> None:
        """Fold one batch into *groups* (key -> (scope, accumulators))."""
        keycols = [k.fn(b, ctx) for k in self.key_kernels]
        plans = [
            (id(c), c, self.arg_kernels[id(c)].fn(b, ctx) if not c.star else None)
            for c in self.calls
        ]
        cols = b.columns
        for i in range(b.n):
            key = tuple([sort_key(kc[i]) for kc in keycols])
            g = groups.get(key)
            if g is None:
                g = groups[key] = (
                    bind_row(ctx.outer, self.blocks, cols, i),
                    {cid: AggregateAccumulator(c) for cid, c, _v in plans},
                )
            accs = g[1]
            for cid, _c, values in plans:
                # COUNT(*) (no argument column): every row counts.
                accs[cid].add(None if values is None else values[i])

    def _emit(self, ctx, groups: dict) -> list:
        ev = ctx.evaluator
        having = self.select.having
        out = []
        for scope, accs in groups.values():
            agg_values = {i: acc.result() for i, acc in accs.items()}
            if having is not None:
                old = ev.aggregates
                ev.aggregates = agg_values
                try:
                    if not ev.is_true(having, scope):
                        continue
                finally:
                    ev.aggregates = old
            row = project_row(ev, self.cols, scope, agg_values)
            if self.hidden:
                row += project_row(
                    ev, [("expr", e) for e in self.hidden], scope, agg_values
                )
            out.append(tuple(row))
        return out


def _first_seen(batch: list, seen: set, width: Optional[int]) -> list:
    """Rows of *batch* whose key is not in *seen*, recording each new key.

    The key is the row's first *width* values (all when None) as raw
    values: the bare value for one column, the tuple otherwise.  On
    minidb's value domain (None, bool, int, float, str, bytes) ``==``
    and hashing agree with ``sort_key`` equality (``1 == 1.0 == True``,
    ``'1' != 1``, ``b'1' != '1'``), so no key is built per row."""
    if not batch:
        return []
    n = len(batch[0]) if width is None else width
    if n == 1:
        keys = [row[0] for row in batch]
    elif n == len(batch[0]):
        keys = batch
    else:
        keys = [row[:n] for row in batch]
    out = []
    add = seen.add
    for key, row in zip(keys, batch):
        if key not in seen:
            add(key)
            out.append(row)
    return out


class VecDistinct(Operator):
    """SELECT DISTINCT over row batches: first-seen wins, keyed by the raw
    values of the visible ``width`` columns (hidden ORDER BY columns ride
    along with the first-seen row)."""

    BATCHED = True

    def __init__(self, width, child) -> None:
        self.width = width
        self.child = child

    def children(self) -> tuple:
        return (self.child,)

    def describe(self) -> str:
        return "DISTINCT"

    def _produce_batches(self, ctx):
        seen: set = set()
        for batch in self.child.batches(ctx):
            out = _first_seen(batch, seen, self.width)
            if out:
                yield out


class VecUnion(Operator):
    """Concatenate compound SELECT branches.

    ``dedup_until`` is the index of the last branch covered by a ``UNION``
    (as opposed to ``UNION ALL``); branches up to it stream through a
    shared first-seen filter, later ``UNION ALL`` branches pass raw."""

    BATCHED = True

    def __init__(self, inputs, dedup_until: int) -> None:
        self.inputs = inputs
        self.dedup_until = dedup_until

    def children(self) -> tuple:
        return tuple(self.inputs)

    def describe(self) -> str:
        return "UNION" if self.dedup_until >= 0 else "UNION ALL"

    def _branch_batches(self, ctx) -> Iterator[tuple[int, list]]:
        """``(branch index, batch)`` over every branch in order."""
        for i, branch in enumerate(self.inputs):
            for batch in branch.batches(ctx):
                yield i, batch

    def _produce_batches(self, ctx):
        seen: set = set()
        for i, batch in self._branch_batches(ctx):
            if i <= self.dedup_until:
                batch = _first_seen(batch, seen, None)
            if batch:
                yield batch


class _Reversed:
    """Inverts comparison order for DESC sort keys."""

    __slots__ = ("key",)

    def __init__(self, key) -> None:
        self.key = key

    def __lt__(self, other: "_Reversed") -> bool:
        return other.key < self.key

    def __eq__(self, other: object) -> bool:
        return isinstance(other, _Reversed) and other.key == self.key


def _key0(decorated: tuple) -> tuple:
    return decorated[0]


class VecSort(Operator):
    """Full materialising sort over row batches (stable, so equal keys
    keep source order).

    ``spec`` lists ``(row position, descending)`` per ORDER BY term; keys
    reduce through ``sort_key`` (DESC via ``_Reversed``).  ``width`` trims
    the hidden ORDER BY columns off the output (None: nothing hidden).
    """

    BATCHED = True

    def __init__(self, spec, width, child) -> None:
        self.spec = spec
        self.width = width
        self.child = child

    def children(self) -> tuple:
        return (self.child,)

    def describe(self) -> str:
        return "ORDER BY"

    def _decorated(self, ctx) -> Iterator[tuple]:
        """``(key tuple, row)`` for every input row."""
        for batch in self.child.batches(ctx):
            parts = [
                [_Reversed(sort_key(r[pos])) for r in batch]
                if desc
                else [sort_key(r[pos]) for r in batch]
                for pos, desc in self.spec
            ]
            yield from zip(zip(*parts), batch)

    def _emit(self, decorated: list) -> Iterator[list]:
        width = self.width
        if width is None:
            rows = [row for _k, row in decorated]
        else:
            rows = [row[:width] for _k, row in decorated]
        return _chunks(rows)

    def _produce_batches(self, ctx):
        decorated = list(self._decorated(ctx))
        decorated.sort(key=_key0)
        yield from self._emit(decorated)


class VecTopN(VecSort):
    """Fused ORDER BY + LIMIT: keep the k smallest in a bounded heap.

    ``heapq.nsmallest`` is documented equivalent to a stable
    ``sorted(...)[:k]``, so the fusion is byte-identical to VecSort +
    VecLimit while holding only ``offset + limit`` rows.  A NULL or
    negative LIMIT degrades to the full sort (matching VecLimit)."""

    def __init__(self, spec, width, limit, offset, child) -> None:
        super().__init__(spec, width, child)
        self.limit = limit
        self.offset = offset

    def describe(self) -> str:
        return "TOP-N (ORDER BY + LIMIT)"

    def _produce_batches(self, ctx):
        ev = ctx.evaluator
        offset = 0
        if self.offset is not None:
            offset = max(0, int(ev.evaluate(self.offset, ctx.outer) or 0))
        limit = ev.evaluate(self.limit, ctx.outer)
        if limit is None or int(limit) < 0:
            decorated = list(self._decorated(ctx))
            decorated.sort(key=_key0)
            yield from self._emit(decorated[offset:])
            return
        k = offset + int(limit)
        if k <= 0:
            return
        top = heapq.nsmallest(k, self._decorated(ctx), key=_key0)
        yield from self._emit(top[offset:])


class VecLimit(Operator):
    """LIMIT/OFFSET over row batches; stops pulling once the quota fills."""

    BATCHED = True

    def __init__(self, limit, offset, child) -> None:
        self.limit = limit
        self.offset = offset
        self.child = child

    def children(self) -> tuple:
        return (self.child,)

    def describe(self) -> str:
        return "LIMIT"

    def _produce_batches(self, ctx):
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
        for batch in self.child.batches(ctx):
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


def render_plan(root: Operator, stats: Optional[ExecStats] = None) -> list[str]:
    """Indented operator-tree text for EXPLAIN, or for EXPLAIN ANALYZE
    when *stats* (the execution's :class:`ExecStats`) is given."""
    lines: list[str] = []
    actuals = stats.actuals if stats is not None else None

    def walk(op: Operator, depth: int) -> None:
        line = "  " * depth + op.describe()
        if actuals is None:
            if op.est_rows is not None:
                line += f"  (~{op.est_rows} rows)"
        else:
            a = actuals.get(op)
            if a is not None and a.loops:
                batches = f" batches={a.batches}" if a.batches else ""
                line += (
                    f" (actual rows={a.rows}{batches} loops={a.loops} "
                    f"time={a.seconds * 1000.0:.3f} ms)"
                )
        lines.append(line)
        for child in op.children():
            walk(child, depth + 1)

    walk(root, 0)
    return lines


def plan_snapshot(root: Operator, stats: ExecStats) -> list[dict]:
    """The operator tree as plain dicts, one node per operator (pre-order).

    This is the structured sibling of :func:`render_plan`, consumed by the
    statement profiler's plan flight recorder: each node carries the
    planner's estimate (``est_rows``) next to the actuals *stats* metered
    for it (``rows``/``batches``/``loops``/``seconds``; zero for an
    operator that did not run), so estimate-vs-actual drift can be
    computed without re-executing or re-parsing EXPLAIN text.
    """
    nodes: list[dict] = []
    none = Actuals()

    def walk(op: Operator, depth: int) -> None:
        a = stats.actuals.get(op, none)
        nodes.append(
            {
                "depth": depth,
                "op": type(op).__name__,
                "describe": op.describe(),
                "est_rows": op.est_rows,
                "rows": a.rows,
                "batches": a.batches,
                "loops": a.loops,
                "seconds": a.seconds,
            }
        )
        for child in op.children():
            walk(child, depth + 1)

    walk(root, 0)
    return nodes
