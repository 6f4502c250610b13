"""Physical operators for minidb — one batch-at-a-time pipeline.

Every operator is built once per statement by the optimizer
(:mod:`repro.minidb.optimizer`), then cloned per execution so cached plans
can run concurrently.  One pull protocol moves data: ``batches(ctx)``
returns a generator of batches.  Below the projection boundary (scans,
joins, filters) a batch is a :class:`~repro.minidb.vector.ColumnBatch` of
column vectors; above it (projection, aggregation, distinct, union, sort,
top-N, limit) a batch is a plain list of row tuples.  Expressions run as
:mod:`repro.minidb.vector` kernels, which fall back to the row interpreter
per expression, never per plan.

Per-operator actuals (``actual_rows``/``actual_batches``/``loops``/
``seconds``) hang off the operator instances themselves; ``EXPLAIN
ANALYZE`` renders them with :func:`render_plan`.  Engine metrics (rows
scanned, access-path counters, hash-join build/probe activity) are
flushed from the operator bodies.
"""

from __future__ import annotations

import heapq
from itertools import repeat
from operator import itemgetter
from typing import Iterator, Optional

from ..obs.clock import now as _now
from ..obs.metrics import metrics as _M
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


class ExecStats:
    """Per-statement-execution totals the profiler reads at finalize.

    One instance is shared by every :class:`ExecContext` of a statement
    execution (subquery contexts included).  Scan operators add their
    local counts here at the same once-per-run flush points that feed
    the global registry counters, so the cost is per-run, not per-row,
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
        # The enclosing query's row for a correlated subquery; kernels
        # that fall back to the interpreter chain their scopes to it.
        self.outer = outer if outer is not None else Scope()
        self.analyze = analyze
        # Hash-join build tables, keyed by id(access path): built on the
        # first probe of a statement execution, reused for every later one
        # (including re-runs of correlated subqueries).
        self.hash_builds = hash_builds if hash_builds is not None else {}
        # FROM-subquery materialisations, keyed by id(operator): FROM
        # subqueries are uncorrelated by construction, so one execution
        # computes them at most once even when a join probes them per batch.
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
    """Base physical operator: the batch pull protocol plus plan shape.

    ``batches(ctx)`` starts one run of the operator and returns its
    generator of batches; closing the generator (or dropping it) ends
    the run.  ``BATCHED`` marks operators native to the pipeline — every
    concrete operator sets it, and the plan-shape test asserts it on
    every node of every plan.
    """

    #: True on every concrete pipeline operator.
    BATCHED = False

    def __init__(self) -> None:
        self.actual_rows = 0
        self.actual_batches = 0
        self.loops = 0
        self.seconds = 0.0
        self.est_rows: Optional[int] = None

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

    # -- pull protocol --------------------------------------------------------

    def batches(self, ctx: ExecContext) -> Iterator:
        """One run of this operator: a generator of batches."""
        self.loops += 1
        it = self._produce_batches(ctx)
        if ctx.analyze:
            it = self._metered(it)
        return it

    def _produce_batches(self, ctx: ExecContext) -> Iterator:
        raise NotImplementedError  # pragma: no cover

    def _metered(self, it: Iterator) -> Iterator:
        t0 = _now()
        for batch in it:
            self.seconds += _now() - t0
            self.actual_rows += batch.n if isinstance(batch, ColumnBatch) else len(batch)
            self.actual_batches += 1
            yield batch
            t0 = _now()
        self.seconds += _now() - t0


# ---------------------------------------------------------------------------
# Access paths: which row ids one probe of a table visits.


def probe_exprs(path) -> list:
    """The expressions *path* evaluates to find its row ids, in the order
    :func:`path_rowids` consumes their values (none for a full scan)."""
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


def path_rowids(ctx: ExecContext, path, table, values):
    """Row ids one probe of *path* visits, given the values of its
    :func:`probe_exprs`.  Ids may name rows deleted since the probe
    started; callers skip those.  Bumps the access-path counters.

    An equality or IN probe never matches a NULL probe value, as SQL
    ``=`` and ``IN`` require: these paths enforce the conjuncts they
    consume (:func:`~repro.minidb.planner.enforced_conjuncts`), so no
    filter above them re-checks the rows."""
    if isinstance(path, FullScan):
        if _M.enabled:
            _FULL_SCANS.inc()
        # Snapshot the key list so DML callers may mutate during iteration.
        return list(table.rows.keys())
    if isinstance(path, HashJoinPath):
        return _hash_probe(ctx, path, table, values)
    if _M.enabled:
        _INDEX_LOOKUPS.inc()
    index = path.index
    if isinstance(path, IndexEquality):
        return () if None in values else index.rowids(values)
    if isinstance(path, InProbePath):  # always a one-column index
        keys = dict.fromkeys(values)
        keys.pop(None, None)
        return index.rowids_in(keys)
    nprefix = len(path.prefix_exprs)
    if nprefix:
        prefix = tuple(values[:nprefix])
        return index.range_scan(low=prefix, high=prefix)
    bounds = iter(values)
    low = high = None
    low_inc = high_inc = True
    if path.low is not None:
        low = (next(bounds),)
        low_inc = path.low[0] == ">="
    if path.high is not None:
        high = (next(bounds),)
        high_inc = path.high[0] == "<="
    return index.range_scan(low, high, low_inc, high_inc)


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


def _gathered_batch(picked: list, ids: Optional[list], getters: list) -> ColumnBatch:
    """Column vectors for gathered rows (kind ``'o'``: no type guarantee)."""
    cols = [list(map(g, picked)) for g in getters]
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
    :func:`path_rowids` yields the ids, each live row is read once from
    ``table.rows`` and ids whose row is gone are skipped.  A gather reads
    its rows across ``yield``s, so a write on the same connection can
    change a probed row's key before it is read; once ``data_version``
    has moved, an exact path keeps only rows whose index columns still
    hold a probed key (see :func:`_key_check`).

    As the inner side of a :class:`VecIndexJoin` it is probed through
    :meth:`prober` once per distinct key instead.
    """

    BATCHED = True

    def __init__(self, path, slots) -> None:
        super().__init__()
        self.path = path
        self.slots = slots

    def clone(self) -> "Operator":
        return self._copy_plan_attrs(VecScan(self.path, self.slots))

    def describe(self) -> str:
        return self.path.describe()

    def prober(self, ctx: ExecContext):
        """``probe(values) -> (ids visited, live rows)`` for one join run,
        with the table (and an equality path's index) resolved once."""
        path = self.path
        table = ctx.db.table(path.table)
        get = table.rows.get
        if isinstance(path, IndexEquality):
            rowids = path.index.rowids

            def probe(values: tuple) -> tuple[int, list]:
                if _M.enabled:
                    _INDEX_LOOKUPS.inc()
                if None in values:
                    return 0, []  # NULL never equals a key
                ids = rowids(values)
                return len(ids), [r for r in map(get, ids) if r is not None]

            return probe

        def probe(values: tuple) -> tuple[int, list]:
            ids = list(path_rowids(ctx, path, table, values))
            return len(ids), [r for r in map(get, ids) if r is not None]

        return probe

    def _produce_batches(self, ctx):
        if isinstance(self.path, FullScan):
            return self._segment_batches(ctx)
        return self._gather_batches(ctx)

    def _gather_batches(self, ctx):
        path = self.path
        table = ctx.db.table(path.table)
        get = table.rows.get
        getters = [itemgetter(pos) for pos in self.slots]
        ev = ctx.evaluator
        values = [ev.evaluate(e, ctx.outer) for e in probe_exprs(path)]
        size = _vector.BATCH_SIZE
        scanned = 0
        gathered = 0
        nbatches = 0
        picked: list = []
        ids: list = []
        version = table.data_version
        holds = None  # set once the table has changed since the probe
        try:
            for rowid in path_rowids(ctx, path, table, values):
                scanned += 1
                row = get(rowid)
                if row is None or (holds is not None and not holds(row)):
                    continue
                picked.append(row)
                ids.append(rowid)
                if len(picked) >= size:
                    gathered += len(picked)
                    nbatches += 1
                    yield _gathered_batch(picked, ids, getters)
                    picked = []
                    ids = []
                    if holds is None and table.data_version != version:
                        holds = _key_check(path, table, values)
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


class ConstantRow(Operator):
    """Source of a FROM-less SELECT: one batch of one row and no columns."""

    BATCHED = True

    def clone(self):
        return self._copy_plan_attrs(ConstantRow())

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
        super().__init__()
        self.plan = plan
        self.alias = alias
        self.names = names
        self.slots = slots

    def children(self) -> tuple:
        return (self.plan,)

    def clone(self):
        return self._copy_plan_attrs(
            SubqueryScan(self.plan.clone(), self.alias, self.names, self.slots)
        )

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
        getters = [itemgetter(pos) for pos in self.slots]
        size = _vector.BATCH_SIZE
        for a in range(0, len(rows), size):
            yield _gathered_batch(rows[a : a + size], None, getters)


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
        super().__init__()
        self.inner = inner
        self.key_kernels = key_kernels
        self.kind = kind
        self.condition = condition
        self.on_kernel = on_kernel
        self.child = child

    def children(self) -> tuple:
        return (self.child, self.inner)

    def clone(self):
        return self._copy_plan_attrs(
            VecIndexJoin(
                self.inner.clone(), self.key_kernels, self.kind, self.condition,
                self.on_kernel, self.child.clone(),
            )
        )

    def describe(self) -> str:
        return f"JOIN ({self.kind})"

    def _produce_batches(self, ctx):
        inner = self.inner
        probe = inner.prober(ctx)
        getters = [itemgetter(pos) for pos in inner.slots]
        kfns = [k.fn for k in self.key_kernels]
        on = self.on_kernel.fn if self.on_kernel is not None else None
        left = self.kind == "LEFT"
        analyze = ctx.analyze
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
                        t0 = _now() if analyze else 0.0
                        hit = hits[key] = probe(key)
                        if analyze:
                            inner.seconds += _now() - t0
                    scanned += hit[0]
                    if analyze:
                        inner.loops += 1
                        inner.actual_rows += len(hit[1])
                    if len(hit[1]) != 1:
                        one_each = False
                    for row in hit[1]:
                        sel.append(i)
                        picked.append(row)
                if one_each:
                    outer = b.columns  # every outer row has exactly one pair
                else:
                    outer = [[col[i] for i in sel] for col in b.columns]
                kinds = b.kinds + ["o"] * len(getters)
                merged = ColumnBatch(
                    len(sel), outer + [list(map(g, picked)) for g in getters], kinds
                )
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
            _ROWS_SCANNED.add(scanned)
            ctx.stats.rows_scanned += scanned
            if _M.enabled:
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
        super().__init__()
        self.kernels = kernels
        self.child = child

    def children(self) -> tuple:
        return (self.child,)

    def clone(self):
        return self._copy_plan_attrs(VecProject(self.kernels, self.child.clone()))

    def describe(self) -> str:
        return "PROJECT"

    def _produce_batches(self, ctx):
        kfns = [k.fn for k in self.kernels]
        single = kfns[0] if len(kfns) == 1 else None
        for b in self.child.batches(ctx):
            if single is not None:
                yield [(v,) for v in single(b, ctx)]
            else:
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
        super().__init__()
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

    def clone(self):
        return self._copy_plan_attrs(
            VecAggregate(
                self.select, self.group_by, self.calls, self.cols, self.hidden,
                self.child.clone(), self.key_kernels, self.arg_kernels, self.blocks,
            )
        )

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
        super().__init__()
        self.width = width
        self.child = child

    def children(self) -> tuple:
        return (self.child,)

    def clone(self):
        return self._copy_plan_attrs(VecDistinct(self.width, self.child.clone()))

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
        super().__init__()
        self.inputs = inputs
        self.dedup_until = dedup_until

    def children(self) -> tuple:
        return tuple(self.inputs)

    def clone(self):
        return self._copy_plan_attrs(
            VecUnion([op.clone() for op in self.inputs], self.dedup_until)
        )

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
        super().__init__()
        self.spec = spec
        self.width = width
        self.child = child

    def children(self) -> tuple:
        return (self.child,)

    def clone(self):
        return self._copy_plan_attrs(VecSort(self.spec, self.width, self.child.clone()))

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

    def clone(self):
        return self._copy_plan_attrs(
            VecTopN(self.spec, self.width, self.limit, self.offset, self.child.clone())
        )

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
