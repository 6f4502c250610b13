"""Batch kernels: the expression layer of minidb's one executor.

Every plan runs batch-at-a-time (:mod:`repro.minidb.operators`), so every
expression a plan evaluates is compiled here into a **kernel**: a closure
``fn(batch, ctx) -> list`` evaluated once per :class:`ColumnBatch`,
looping over whole column vectors with the per-node dispatch of the
expression interpreter (:mod:`repro.minidb.expressions`) hoisted out of
the loop.  ``ctx`` is the operator's
:class:`~repro.minidb.operators.ExecContext`: its ``evaluator`` holds the
statement's parameters and caches, its ``outer`` scope the enclosing
query's row for correlated subqueries.

:meth:`KernelCompiler.compile` never gives up.  An expression a vector
kernel cannot express — CASE over columns, a subquery, a reference that
resolves only in an outer scope — compiles *as a whole* into one **row
kernel**, which binds each batch row into a
:class:`~repro.minidb.expressions.Scope` chained to ``ctx.outer`` and
calls :meth:`Evaluator.evaluate`.  Such expressions therefore keep the
interpreter's short-circuit, error and correlation behaviour exactly.

Semantics contract: vector kernels reuse the interpreter's primitives
(``compare``/``sort_key``/``cast_value``/``arith_value``/the scalar
function table and LIKE/IN caches), so results are byte-identical to
row-at-a-time evaluation.  One documented divergence: a vector kernel
evaluates **eagerly** — an erroring subexpression behind a
short-circuiting ``AND``/``OR`` may raise where the interpreter would
have skipped it for some rows.  Truth values are unaffected (three-valued
logic is preserved exactly).
"""

from __future__ import annotations

import copy
import operator as _operator
from operator import itemgetter
from typing import Any, Callable, List, Optional

from . import ast_nodes as ast
from .errors import ProgrammingError
from .expressions import (
    SCALAR_FUNCTIONS,
    Scope,
    arith_value,
    cast_value,
    like_to_regex,
)
from .sqltypes import compare, sort_key

#: Rows per batch pulled through the operators (configurable).
BATCH_SIZE = 1024

#: Empty scope scalar (row-invariant) subexpressions evaluate against.
_SCALAR_SCOPE = Scope()


class ColumnBatch:
    """One batch of column vectors.

    ``columns[slot]`` is a list of ``n`` Python values for the slot's
    table column; ``kinds[slot]`` is the storage kind the values were
    decoded from (``'i'`` int, ``'f'`` float, ``'s'`` str, ``'o'``
    mixed/unknown) — kernels use it to pick raw-operator fast paths.
    ``rowids`` carries the storage row ids of a single-table batch (the
    rows UPDATE and DELETE address), None once a join merged tables.
    """

    __slots__ = ("n", "columns", "kinds", "rowids")

    def __init__(self, n: int, columns: List[list], kinds: List[str],
                 rowids: Optional[list] = None) -> None:
        self.n = n
        self.columns = columns
        self.kinds = kinds
        self.rowids = rowids


class Columns:
    """Column names of a batch binding that is not a base table (a FROM
    subquery's output): the slice of the ``TableMeta`` interface the
    compiler reads.  Duplicate names resolve to the first, as in a Scope."""

    def __init__(self, name: str, column_names: List[str]) -> None:
        self.name = name
        self.column_names = list(column_names)
        self._lower = [c.lower() for c in column_names]

    def has_column(self, name: str) -> bool:
        return name.lower() in self._lower

    def column_index(self, name: str) -> int:
        return self._lower.index(name.lower())


class _Kernel:
    """A compiled expression: ``fn(batch, ctx) -> list`` of n values."""

    __slots__ = ("fn", "scalar", "slot")

    def __init__(self, fn: Callable[[ColumnBatch, Any], list],
                 scalar: bool = False, slot: Optional[int] = None) -> None:
        self.fn = fn
        self.scalar = scalar  # row-invariant: same value for the whole batch
        self.slot = slot      # bare column reference: reads columns[slot]


def bind_row(outer: Scope, blocks: list, columns: List[list], i: int) -> Scope:
    """Row *i* of a batch as a scope chain over *outer*.

    ``blocks`` lists ``(binding, lowered column names, slots)`` per table
    in join order (see :meth:`KernelCompiler.row_blocks`); each table gets
    its own scope level, innermost last, so an unqualified name present
    in two tables resolves to the later one — the interpreter's rule.
    """
    scope = outer
    for binding, names, slots in blocks:
        scope = Scope(scope)
        scope.bindings[binding] = (names, tuple([columns[s][i] for s in slots]))
    return scope


def _scalar_safe(expr: ast.Expr) -> bool:
    """True when *expr* is row-invariant and safe to evaluate once per batch."""
    if isinstance(expr, (ast.Literal, ast.Parameter)):
        return True
    if isinstance(expr, ast.Unary):
        return _scalar_safe(expr.operand)
    if isinstance(expr, ast.Binary):
        return _scalar_safe(expr.left) and _scalar_safe(expr.right)
    if isinstance(expr, ast.Cast):
        return _scalar_safe(expr.operand)
    if isinstance(expr, ast.IsNull):
        return _scalar_safe(expr.operand)
    if isinstance(expr, ast.Between):
        return (
            _scalar_safe(expr.operand)
            and _scalar_safe(expr.low)
            and _scalar_safe(expr.high)
        )
    if isinstance(expr, ast.Like):
        return (
            _scalar_safe(expr.operand)
            and _scalar_safe(expr.pattern)
            and (expr.escape is None or _scalar_safe(expr.escape))
        )
    if isinstance(expr, ast.InList):
        return _scalar_safe(expr.operand) and all(
            _scalar_safe(i) for i in expr.items
        )
    if isinstance(expr, ast.Case):
        kids = list(expr.whens)
        if not all(_scalar_safe(c) and _scalar_safe(r) for c, r in kids):
            return False
        if expr.operand is not None and not _scalar_safe(expr.operand):
            return False
        return expr.default is None or _scalar_safe(expr.default)
    if isinstance(expr, ast.FuncCall):
        return (
            expr.name in SCALAR_FUNCTIONS
            and not expr.star
            and not expr.distinct
            and all(_scalar_safe(a) for a in expr.args)
        )
    return False


#: comparison op -> raw Python predicate (used on homogeneous fast paths)
_RAW_CMP: dict[str, Callable[[Any, Any], bool]] = {
    "=": lambda a, b: a == b,
    "<>": lambda a, b: a != b,
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
}

#: comparison op -> predicate over compare()'s -1/0/1
_CMP_ON_C: dict[str, Callable[[int], bool]] = {
    "=": lambda c: c == 0,
    "<>": lambda c: c != 0,
    "<": lambda c: c < 0,
    "<=": lambda c: c <= 0,
    ">": lambda c: c > 0,
    ">=": lambda c: c >= 0,
}

#: mirror of a comparison when its operands are swapped
_FLIP = {"=": "=", "<>": "<>", "<": ">", "<=": ">=", ">": "<", ">=": "<="}


class KernelCompiler:
    """Compiles expressions over one or more table bindings into batch kernels.

    ``tables`` lists the ``(meta, binding)`` pairs a batch carries, in
    join order (``meta`` is a ``TableMeta`` or a :class:`Columns`).  The
    compiler assigns a **slot** to every table column an expression
    touches; ``slots[i]`` is the ``(table, column position)`` pair behind
    batch slot *i*, and :meth:`block` lists one table's positions for the
    operator that decodes them (the leaf for table 0, each join for its
    inner table).

    :meth:`scoped` gives a view that sees only the first *n* tables (an
    ON condition sees the tables joined so far, a join key its outer
    side); a view shares the slot registry with its parent.
    """

    def __init__(self, tables: list) -> None:
        self.tables = [(meta, (binding or meta.name).lower()) for meta, binding in tables]
        self.visible = len(self.tables)
        self._slot_of: dict[tuple[int, int], int] = {}
        self.slots: List[tuple[int, int]] = []

    def scoped(self, ntables: int) -> "KernelCompiler":
        """A view resolving names against the first *ntables* tables only."""
        view = copy.copy(self)  # shares _slot_of and slots
        view.visible = ntables
        return view

    def laid_out(self) -> "KernelCompiler":
        """A fresh compiler with this one's slots pre-registered table by
        table, so every table's block is contiguous and in join order.
        Recompiling the same expressions against it registers no new
        slots."""
        fresh = KernelCompiler(self.tables)
        for table, position in sorted(self.slots, key=itemgetter(0)):
            fresh.slot_for(table, position)
        return fresh

    def block(self, table: int) -> List[int]:
        """Column positions of *table*'s slots, in slot order."""
        return [pos for t, pos in self.slots if t == table]

    def slot_for(self, table: int, position: int) -> int:
        """Slot carrying *table*'s column *position*, registering on demand."""
        key = (table, position)
        slot = self._slot_of.get(key)
        if slot is None:
            slot = len(self.slots)
            self._slot_of[key] = slot
            self.slots.append(key)
        return slot

    def row_blocks(self) -> list:
        """``(binding, lowered column names, slots)`` for every visible
        table, registering a slot for each of its columns — what
        :func:`bind_row` needs to rebuild a row's scope."""
        blocks = []
        for t, (meta, binding) in enumerate(self.tables[: self.visible]):
            names = [c.lower() for c in meta.column_names]
            blocks.append(
                (binding, names, [self.slot_for(t, p) for p in range(len(names))])
            )
        return blocks

    def column(self, table: Optional[str], name: str) -> Optional[int]:
        """Slot of a column reference, or None when it does not resolve
        to exactly one visible table (an outer-scope or ambiguous name,
        left to a row kernel's scope chain)."""
        lname = name.lower()
        visible = self.tables[: self.visible]
        if table is not None:
            ltable = table.lower()
            hits = [i for i, (_m, b) in enumerate(visible) if b == ltable]
            if len(hits) != 1 or not visible[hits[0]][0].has_column(lname):
                return None
        else:
            hits = [i for i, (m, _b) in enumerate(visible) if m.has_column(lname)]
            if len(hits) != 1:
                return None
        meta = visible[hits[0]][0]
        return self.slot_for(hits[0], meta.column_index(lname))

    def star_kernels(self, binding: str) -> List[_Kernel]:
        """One column kernel per column of *binding*, by position (star
        expansion)."""
        lbinding = binding.lower()
        t = next(i for i, (_m, b) in enumerate(self.tables) if b == lbinding)
        meta = self.tables[t][0]
        return [
            self._slot_kernel(self.slot_for(t, p))
            for p in range(len(meta.column_names))
        ]

    # -- public ------------------------------------------------------------

    def compile(self, expr: ast.Expr) -> _Kernel:
        """A kernel for *expr*: vectorized when every node has a vector
        form, otherwise one row kernel for the whole expression."""
        kernel = self._vec(expr)
        return kernel if kernel is not None else self._row_kernel(expr)

    def _vec(self, expr: ast.Expr) -> Optional[_Kernel]:
        if _scalar_safe(expr):
            def fn(b: ColumnBatch, ctx, expr=expr) -> list:
                return [ctx.evaluator.evaluate(expr, _SCALAR_SCOPE)] * b.n

            return _Kernel(fn, scalar=True)
        method = getattr(self, f"_c_{type(expr).__name__}", None)
        if method is None:
            return None
        return method(expr)

    def _row_kernel(self, expr: ast.Expr) -> _Kernel:
        blocks = self.row_blocks()

        def fn(b: ColumnBatch, ctx) -> list:
            evaluate = ctx.evaluator.evaluate
            outer = ctx.outer
            cols = b.columns
            return [evaluate(expr, bind_row(outer, blocks, cols, i)) for i in range(b.n)]

        return _Kernel(fn)

    @staticmethod
    def _slot_kernel(slot: int) -> _Kernel:
        def fn(b: ColumnBatch, ctx, slot=slot) -> list:
            return b.columns[slot]

        return _Kernel(fn, slot=slot)

    # -- node compilers ------------------------------------------------------

    def _c_ColumnRef(self, expr: ast.ColumnRef) -> Optional[_Kernel]:
        slot = self.column(expr.table, expr.name)
        return None if slot is None else self._slot_kernel(slot)

    def _c_Unary(self, expr: ast.Unary) -> Optional[_Kernel]:
        k = self._vec(expr.operand)
        if k is None:
            return None
        op = expr.op
        kf = k.fn
        if op == "NOT":
            def fn(b, ctx):
                return [None if v is None else not bool(v) for v in kf(b, ctx)]
        elif op == "-":
            def fn(b, ctx):
                return [None if v is None else -v for v in kf(b, ctx)]
        else:
            def fn(b, ctx):
                return [None if v is None else +v for v in kf(b, ctx)]
        return _Kernel(fn)

    def _c_Binary(self, expr: ast.Binary) -> Optional[_Kernel]:
        op = expr.op
        lk = self._vec(expr.left)
        if lk is None:
            return None
        rk = self._vec(expr.right)
        if rk is None:
            return None
        if op in ("AND", "OR"):
            return self._logic_kernel(op, lk, rk)
        if op in _CMP_ON_C:
            return self._compare_kernel(op, lk, rk)
        return self._arith_kernel(op, lk, rk)

    def _logic_kernel(self, op: str, lk: _Kernel, rk: _Kernel) -> _Kernel:
        lf, rf = lk.fn, rk.fn
        if op == "AND":
            def fn(b, ctx):
                out = []
                append = out.append
                for a, c in zip(lf(b, ctx), rf(b, ctx)):
                    if (a is not None and not a) or (c is not None and not c):
                        append(False)
                    elif a is None or c is None:
                        append(None)
                    else:
                        append(True)
                return out
        else:
            def fn(b, ctx):
                out = []
                append = out.append
                for a, c in zip(lf(b, ctx), rf(b, ctx)):
                    if (a is not None and a) or (c is not None and c):
                        append(True)
                    elif a is None or c is None:
                        append(None)
                    else:
                        append(False)
                return out
        return _Kernel(fn)

    def _compare_kernel(self, op: str, lk: _Kernel, rk: _Kernel) -> _Kernel:
        # Normalise "scalar OP column" to "column FLIP(OP) scalar".
        if lk.scalar and rk.slot is not None:
            lk, rk, op = rk, lk, _FLIP[op]
        cmpc = _CMP_ON_C[op]
        if rk.scalar and lk.slot is not None:
            raw = _RAW_CMP[op]
            slot = lk.slot
            rf = rk.fn

            def fn(b, ctx):
                col = b.columns[slot]
                rv = rf(b, ctx)[0] if b.n else None
                if rv is None:
                    return [None] * b.n
                kind = b.kinds[slot]
                # Typed segments hold no NULLs and exactly one Python
                # type, so the raw operator matches compare() bit for bit.
                if kind in "if" and type(rv) in (int, float):
                    return [raw(v, rv) for v in col]
                if kind == "s" and type(rv) is str:
                    return [raw(v, rv) for v in col]
                out = []
                for v in col:
                    c = compare(v, rv)
                    out.append(None if c is None else cmpc(c))
                return out

            return _Kernel(fn)
        lf, rf = lk.fn, rk.fn
        raw = _RAW_CMP[op]

        def fn(b, ctx):
            out = []
            append = out.append
            for a, c in zip(lf(b, ctx), rf(b, ctx)):
                # Two ints or two strs: the raw operator orders them
                # exactly as compare() does (join keys are mostly these).
                t = type(a)
                if t is type(c) and (t is int or t is str):
                    append(raw(a, c))
                else:
                    r = compare(a, c)
                    append(None if r is None else cmpc(r))
            return out

        return _Kernel(fn)

    def _arith_kernel(self, op: str, lk: _Kernel, rk: _Kernel) -> Optional[_Kernel]:
        if op not in ("||", "+", "-", "*", "/", "%"):
            return None
        lf, rf = lk.fn, rk.fn
        if op == "||":
            def fn(b, ctx):
                return [
                    None if a is None or c is None else f"{a}{c}"
                    for a, c in zip(lf(b, ctx), rf(b, ctx))
                ]

            return _Kernel(fn)
        if op in ("+", "-", "*") and lk.slot is not None and rk.scalar:
            slot = lk.slot
            fast = {"+": _operator.add, "-": _operator.sub, "*": _operator.mul}[op]

            def fn(b, ctx):
                col = b.columns[slot]
                rv = rf(b, ctx)[0] if b.n else None
                if rv is None:
                    return [None] * b.n
                if b.kinds[slot] in "if" and type(rv) in (int, float):
                    return [fast(v, rv) for v in col]
                return [
                    None if v is None else arith_value(op, v, rv) for v in col
                ]

            return _Kernel(fn)

        def fn(b, ctx, op=op):
            return [
                None if a is None or c is None else arith_value(op, a, c)
                for a, c in zip(lf(b, ctx), rf(b, ctx))
            ]

        return _Kernel(fn)

    def _c_IsNull(self, expr: ast.IsNull) -> Optional[_Kernel]:
        k = self._vec(expr.operand)
        if k is None:
            return None
        kf = k.fn
        if expr.negated:
            def fn(b, ctx):
                return [v is not None for v in kf(b, ctx)]
        else:
            def fn(b, ctx):
                return [v is None for v in kf(b, ctx)]
        return _Kernel(fn)

    def _c_Between(self, expr: ast.Between) -> Optional[_Kernel]:
        ok = self._vec(expr.operand)
        lo = self._vec(expr.low)
        hi = self._vec(expr.high)
        if ok is None or lo is None or hi is None:
            return None
        of, lof, hif = ok.fn, lo.fn, hi.fn
        neg = expr.negated

        def fn(b, ctx):
            out = []
            append = out.append
            for v, low, high in zip(of(b, ctx), lof(b, ctx), hif(b, ctx)):
                c1 = compare(v, low)
                c2 = compare(v, high)
                if c1 is None or c2 is None:
                    append(None)
                else:
                    r = c1 >= 0 and c2 <= 0
                    append(not r if neg else r)
            return out

        return _Kernel(fn)

    def _c_Like(self, expr: ast.Like) -> Optional[_Kernel]:
        k = self._vec(expr.operand)
        if k is None:
            return None
        if not _scalar_safe(expr.pattern):
            return None
        if expr.escape is not None and not _scalar_safe(expr.escape):
            return None
        kf = k.fn
        pattern_expr = expr.pattern
        escape_expr = expr.escape
        neg = expr.negated

        def fn(b, ctx):
            ev = ctx.evaluator
            pattern = ev.evaluate(pattern_expr, _SCALAR_SCOPE)
            if pattern is None:
                return [None] * b.n
            escape = None
            if escape_expr is not None:
                escape = ev.evaluate(escape_expr, _SCALAR_SCOPE)
            key = (str(pattern), escape)
            rx = ev._like_cache.get(key)
            if rx is None:
                rx = like_to_regex(str(pattern), escape)
                ev._like_cache[key] = rx
            m = rx.match
            out = []
            append = out.append
            for v in kf(b, ctx):
                if v is None:
                    append(None)
                else:
                    r = m(str(v)) is not None
                    append(not r if neg else r)
            return out

        return _Kernel(fn)

    def _c_InList(self, expr: ast.InList) -> Optional[_Kernel]:
        k = self._vec(expr.operand)
        if k is None:
            return None
        if not all(
            isinstance(i, (ast.Literal, ast.Parameter)) for i in expr.items
        ):
            return None
        kf = k.fn
        items = expr.items
        neg = expr.negated
        cache_id = id(expr)

        def fn(b, ctx):
            ev = ctx.evaluator
            cached = ev._inlist_cache.get(cache_id)
            if cached is None:
                keys: set = set()
                has_null = False
                for item in items:
                    iv = ev.evaluate(item, _SCALAR_SCOPE)
                    if iv is None:
                        has_null = True
                    else:
                        keys.add(sort_key(iv))
                cached = (keys, has_null)
                ev._inlist_cache[cache_id] = cached
            keys, has_null = cached
            out = []
            append = out.append
            for v in kf(b, ctx):
                if v is None:
                    append(None)
                elif sort_key(v) in keys:
                    append(not neg)
                elif has_null:
                    append(None)
                else:
                    append(neg)
            return out

        return _Kernel(fn)

    def _c_Cast(self, expr: ast.Cast) -> Optional[_Kernel]:
        k = self._vec(expr.operand)
        if k is None:
            return None
        kf = k.fn
        type_name = expr.type_name

        def fn(b, ctx):
            return [cast_value(v, type_name) for v in kf(b, ctx)]

        return _Kernel(fn)

    def _c_FuncCall(self, expr: ast.FuncCall) -> Optional[_Kernel]:
        if expr.star or expr.distinct:
            return None
        scalar_fn = SCALAR_FUNCTIONS.get(expr.name)
        if scalar_fn is None:
            return None
        arg_kernels = []
        for arg in expr.args:
            ak = self._vec(arg)
            if ak is None:
                return None
            arg_kernels.append(ak.fn)
        name = expr.name

        def fn(b, ctx):
            cols = [af(b, ctx) for af in arg_kernels]
            out = []
            append = out.append
            try:
                for vals in zip(*cols) if cols else ((),) * b.n:
                    append(scalar_fn(*vals))
            except TypeError as exc:
                raise ProgrammingError(
                    f"bad arguments to {name}(): {exc}"
                ) from None
            return out

        return _Kernel(fn)
