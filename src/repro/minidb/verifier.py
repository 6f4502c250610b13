"""Static plan verification for the minidb query engine.

The optimizer grew from "lower the AST" to a pipeline of rewrite rules
feeding two lowering backends (row Volcano operators and vectorized
``Vec*`` batch operators).  The runtime differential suite catches
miscompilations only after the fact; this module catches them *at plan
time* by walking any physical operator tree and propagating a typed
output contract — column names, affinities, nullability, ordering and
distinctness guarantees, and the batch-vs-row iteration protocol —
through every operator.

Violations raise :class:`PlanVerificationError` with a stable code:

========  ==================================================================
PLN001    unresolvable column reference (unknown binding or column)
PLN002    join/index key contract mismatch (arity, position, or affinity)
PLN003    vectorized operator without a usable kernel (None kernel,
          slot out of range, hash-join access path under VecScan)
PLN004    batch-vs-row protocol violation (a consumer wired to a child
          whose iteration protocol it cannot drain without an adapter)
PLN005    TopN fused over a plan-time negative LIMIT (the heap degrades
          to a full sort at run time; the optimizer must not fuse it)
PLN006    output arity drift (projection/aggregate width vs declared
          names, UNION branch widths, aggregate call-set drift)
PLN007    optimizer rule contract drift (a rewrite rule changed the
          verified schema / preserved-predicate set / ordering)
========  ==================================================================

The second half is the **optimizer-rule soundness harness**: a logical
:class:`Contract` is computed before any rule fires and re-checked after
each rewrite (and against the final physical tree) by
:func:`check_rule`.  Everything is gated behind :data:`VERIFY_PLANS`
(``MINIDB_VERIFY_PLANS`` in the environment, forced on by the test
suite, samplable in production via ``MINIDB_VERIFY_SAMPLE``) and
reported through ``minidb.verifier.*`` counters.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Any, Dict, FrozenSet, Iterator, List, Optional, Set, Tuple

from . import ast_nodes as ast
from .errors import InternalError
from .expressions import _children
from .planner import (
    FullScan,
    HashJoin,
    IndexEquality,
    IndexRange,
    InProbe,
    JoinNode,
    ScanNode,
    SubqueryNode,
    aggregate_calls,
    render_expr,
    split_conjuncts,
)
from .sqltypes import BOOLEAN, INTEGER, NUMERIC, REAL, TEXT, affinity_for
from ..obs.metrics import metrics as _metrics

__all__ = [
    "PlanVerificationError",
    "ColumnContract",
    "Contract",
    "VERIFY_PLANS",
    "should_verify",
    "verify_plan",
    "verify_tree",
    "logical_contract",
    "check_rule",
]


def _env_flag(name: str) -> bool:
    return os.environ.get(name, "") not in ("", "0", "false", "False", "no")


#: Master toggle: the optimizer verifies every plan it emits when true.
#: Off by default (production pays nothing); the test suite and CI force
#: it on, and ``MINIDB_VERIFY_PLANS=1`` enables it anywhere.
VERIFY_PLANS: bool = _env_flag("MINIDB_VERIFY_PLANS")

#: Verify every Nth plan (1 = all).  Lets production sample a fraction
#: of traffic: ``MINIDB_VERIFY_PLANS=1 MINIDB_VERIFY_SAMPLE=100``.
VERIFY_SAMPLE: int = int(os.environ.get("MINIDB_VERIFY_SAMPLE", "1") or "1")

_tick = 0


def should_verify() -> bool:
    """True when the current plan should be verified (toggle + sampling)."""
    global _tick
    if not VERIFY_PLANS:
        return False
    if VERIFY_SAMPLE <= 1:
        return True
    _tick = (_tick + 1) % VERIFY_SAMPLE
    return _tick == 0


_PLANS = _metrics.counter(
    "minidb.verifier.plans", description="physical plans statically verified"
)
_VIOLATIONS = _metrics.counter(
    "minidb.verifier.violations", description="plan verification failures (PLN*)"
)
_RULE_CHECKS = _metrics.counter(
    "minidb.verifier.rule_checks",
    description="optimizer rewrite rules checked for contract drift",
)
_RULE_DRIFT = _metrics.counter(
    "minidb.verifier.rule_drift",
    description="optimizer rewrite rules that changed the plan contract",
)


def _drift_counter(rule: str) -> Any:
    return _metrics.counter(
        f"minidb.verifier.rule_drift.{rule}",
        description=f"contract drift introduced by the {rule} rule",
    )


class PlanVerificationError(InternalError):
    """A physical plan (or a rewrite rule) violated its static contract.

    Carries ``.code`` (``PLN001``..) and ``.operator`` (the ``describe()``
    string of the operator the violation was detected at, when any).
    """

    def __init__(
        self, message: str, code: str = "PLN000", operator: Optional[str] = None
    ) -> None:
        self.code = code
        self.operator = operator
        if operator:
            message = f"{message} (at operator {operator})"
        super().__init__(f"{code}: {message}")


# ---------------------------------------------------------------------------
# Contracts


@dataclass(frozen=True)
class ColumnContract:
    """One column visible through a scope binding."""

    name: str
    affinity: Optional[str]
    nullable: bool


#: Iteration protocols an operator's output can follow.  ``scope``
#: operators yield :class:`~repro.minidb.expressions.Scope` objects;
#: ``row`` operators yield ``(row, context)`` pairs; ``column-batch``
#: producers yield :class:`~repro.minidb.vector.ColumnBatch`; and
#: ``row-batch`` producers yield lists of plain row tuples (and carry
#: the per-row adapter that lets row consumers drain them).
SCOPE = "scope"
ROW = "row"
COLUMN_BATCH = "column-batch"
ROW_BATCH = "row-batch"

#: Protocols a row-consuming operator can drain via ``rows()``:
#: ``row-batch`` producers subclass the row adapter, ``column-batch``
#: producers are batch-only and raise.
_ROWISH = (ROW, ROW_BATCH)


@dataclass
class Contract:
    """The verified output contract of an operator subtree (or of a
    logical plan, for the rule-soundness harness)."""

    protocol: str
    bindings: Dict[str, List[ColumnContract]] = field(default_factory=dict)
    width: Optional[int] = None
    ordering: Tuple[bool, ...] = ()
    distinct: bool = False
    nslots: int = 0
    predicates: FrozenSet[str] = frozenset()


# ---------------------------------------------------------------------------
# Expression helpers


def _column_refs(expr: Any) -> Iterator[ast.ColumnRef]:
    """Column references in *expr*, not descending into subquery bodies
    (those are planned — and verified — separately at execution time)."""
    if isinstance(expr, ast.ColumnRef):
        yield expr
        return
    for child in _children(expr):
        yield from _column_refs(child)


def _negative_literal_limit(expr: Any) -> bool:
    """True when *expr* is a LIMIT known negative at plan time."""
    if isinstance(expr, ast.Literal):
        v = expr.value
        return isinstance(v, (int, float)) and not isinstance(v, bool) and v < 0
    if isinstance(expr, ast.Unary) and expr.op == "-":
        operand = expr.operand
        if isinstance(operand, ast.Literal):
            v = operand.value
            return isinstance(v, (int, float)) and not isinstance(v, bool) and v > 0
    return False


_NUMERICISH = frozenset({INTEGER, REAL, NUMERIC, BOOLEAN})


def _affinity_conflict(a: Optional[str], b: Optional[str]) -> bool:
    """Only a definite TEXT-vs-numeric clash counts: NUMERIC bridges
    classes and unknown affinities stay silent, so legitimate mixed
    comparisons (the analyzer's SQL013 warning territory) never trip
    the verifier."""
    if a is None or b is None:
        return False
    return (a == TEXT and b in _NUMERICISH) or (b == TEXT and a in _NUMERICISH)


def _norm_conjuncts(expr: Any) -> FrozenSet[str]:
    """Normalized conjunct renderings of a predicate: constant-folded,
    const-TRUE (and bare literal) conjuncts dropped, rendered through
    the planner's expression renderer.  Folding is applied on both sides
    of every rule check, so constant folding itself normalizes away and
    only *dropped or invented* predicates register as drift."""
    # Deferred import: the optimizer imports this module for its hooks.
    from .optimizer import _is_const_true, fold_condition

    if expr is None:
        return frozenset()
    out: Set[str] = set()
    for conjunct in split_conjuncts(fold_condition(expr)):
        if _is_const_true(conjunct) or isinstance(conjunct, ast.Literal):
            continue
        out.add(render_expr(conjunct))
    return frozenset(out)


# ---------------------------------------------------------------------------
# Physical tree verification


class _TreeVerifier:
    """Walks a physical operator tree propagating :class:`Contract`s.

    ``strict`` is False for correlated expression subqueries, whose
    column references may legally resolve in an outer scope that does
    not exist until execution time.
    """

    def __init__(self, db: Any, strict: bool = True) -> None:
        self.db = db
        self.strict = strict
        self.predicates: Set[str] = set()

    # -- errors ---------------------------------------------------------------

    def _fail(self, code: str, message: str, op: Any = None) -> None:
        name = None
        if op is not None:
            try:
                name = op.describe()
            except Exception:
                name = type(op).__name__
        raise PlanVerificationError(message, code=code, operator=name)

    # -- expression resolution ------------------------------------------------

    def _resolve_ref(
        self, ref: ast.ColumnRef, env: Dict[str, List[ColumnContract]], op: Any
    ) -> Optional[ColumnContract]:
        if ref.table is not None:
            cols = env.get(ref.table.lower())
            if cols is None:
                if self.strict:
                    self._fail(
                        "PLN001",
                        f"unresolvable column reference {ref.table}.{ref.name}: "
                        f"no binding named {ref.table!r} is visible",
                        op,
                    )
                return None
            for col in cols:
                if col.name == ref.name.lower():
                    return col
            if self.strict:
                self._fail(
                    "PLN001",
                    f"unresolvable column reference {ref.table}.{ref.name}: "
                    f"binding {ref.table!r} has no column {ref.name!r}",
                    op,
                )
            return None
        name = ref.name.lower()
        for cols in env.values():
            for col in cols:
                if col.name == name:
                    return col
        if self.strict:
            self._fail(
                "PLN001",
                f"unresolvable column reference {ref.name}: not found in any "
                f"visible binding ({', '.join(sorted(env)) or 'none'})",
                op,
            )
        return None

    def _check_expr(
        self, expr: Any, env: Dict[str, List[ColumnContract]], op: Any
    ) -> None:
        if expr is None:
            return
        for ref in _column_refs(expr):
            self._resolve_ref(ref, env, op)

    def _expr_affinity(
        self, expr: Any, env: Dict[str, List[ColumnContract]]
    ) -> Optional[str]:
        if isinstance(expr, ast.ColumnRef):
            found = None
            if expr.table is not None:
                cols = env.get(expr.table.lower())
                if cols:
                    found = next(
                        (c for c in cols if c.name == expr.name.lower()), None
                    )
            else:
                for cols in env.values():
                    found = next(
                        (c for c in cols if c.name == expr.name.lower()), None
                    )
                    if found:
                        break
            return found.affinity if found else None
        if isinstance(expr, ast.Literal):
            v = expr.value
            if isinstance(v, bool) or isinstance(v, int):
                return INTEGER
            if isinstance(v, float):
                return REAL
            if isinstance(v, str):
                return TEXT
            return None
        if isinstance(expr, ast.Cast):
            return affinity_for(expr.type_name)
        if isinstance(expr, ast.Unary) and expr.op in ("-", "+"):
            return self._expr_affinity(expr.operand, env)
        return None

    # -- access-path (scan) verification --------------------------------------

    def _table_columns(self, table: str, op: Any) -> List[ColumnContract]:
        try:
            meta = self.db.catalog.table(table)
        except Exception:
            self._fail("PLN001", f"scan of unknown table {table!r}", op)
            raise AssertionError("unreachable")  # pragma: no cover
        return [
            ColumnContract(c.name.lower(), c.affinity, not c.not_null)
            for c in meta.columns
        ]

    def _check_index_keys(
        self,
        op: Any,
        cols: List[ColumnContract],
        index_columns: List[str],
        key_exprs: List[Any],
        env: Dict[str, List[ColumnContract]],
        prefix: bool = False,
    ) -> None:
        if prefix:
            if len(key_exprs) > len(index_columns):
                self._fail(
                    "PLN002",
                    f"index prefix of {len(key_exprs)} exprs over a "
                    f"{len(index_columns)}-column index",
                    op,
                )
        elif len(key_exprs) != len(index_columns):
            self._fail(
                "PLN002",
                f"index key arity mismatch: {len(key_exprs)} exprs for a "
                f"{len(index_columns)}-column index",
                op,
            )
        for col_name, expr in zip(index_columns, key_exprs):
            self._check_key_pair(op, cols, col_name, expr, env)

    def _check_key_pair(
        self,
        op: Any,
        cols: List[ColumnContract],
        col_name: str,
        expr: Any,
        env: Dict[str, List[ColumnContract]],
    ) -> None:
        col = next((c for c in cols if c.name == col_name.lower()), None)
        if col is None:
            self._fail(
                "PLN002",
                f"index column {col_name!r} is not a table column",
                op,
            )
            return
        self._check_expr(expr, env, op)
        if _affinity_conflict(col.affinity, self._expr_affinity(expr, env)):
            self._fail(
                "PLN002",
                f"index key affinity mismatch on {col_name!r}: "
                f"{col.affinity} column probed with a "
                f"{self._expr_affinity(expr, env)} key",
                op,
            )

    def _check_index_path(
        self,
        op: Any,
        path: Any,
        cols: List[ColumnContract],
        env: Dict[str, List[ColumnContract]],
    ) -> None:
        """PLN002 key arity/affinity checks shared by row and batch leaves."""
        if isinstance(path, IndexEquality):
            self._check_index_keys(op, cols, path.index.columns, path.key_exprs, env)
        elif isinstance(path, IndexRange):
            n_prefix = len(path.prefix_exprs)
            ranged = path.low is not None or path.high is not None
            if n_prefix + (1 if ranged else 0) > len(path.index.columns):
                self._fail(
                    "PLN002",
                    f"index range binds {n_prefix} prefix columns plus a range "
                    f"bound over a {len(path.index.columns)}-column index",
                    op,
                )
            for col_name, expr in zip(path.index.columns, path.prefix_exprs):
                self._check_key_pair(op, cols, col_name, expr, env)
            if ranged and n_prefix < len(path.index.columns):
                range_col = path.index.columns[n_prefix]
                for bound in (path.low, path.high):
                    if bound is not None:
                        self._check_key_pair(op, cols, range_col, bound[1], env)
        elif isinstance(path, InProbe):
            if len(path.index.columns) != 1:
                self._fail(
                    "PLN002",
                    f"IN probe over composite index {path.index.name!r} "
                    f"({len(path.index.columns)} columns)",
                    op,
                )
            self._check_index_keys(
                op,
                cols,
                list(path.index.columns) * len(path.items),
                path.items,
                env,
                prefix=True,
            )

    def _visit_scan(
        self, op: Any, env: Dict[str, List[ColumnContract]]
    ) -> Contract:
        path = op.path
        cols = self._table_columns(path.table, op)
        self._check_index_path(op, path, cols, env)
        if isinstance(path, HashJoin):
            n = len(path.build_cols)
            if n == 0 or n != len(path.build_positions) or n != len(path.probe_exprs):
                self._fail(
                    "PLN002",
                    f"hash-join key arity mismatch: {n} build columns, "
                    f"{len(path.build_positions)} positions, "
                    f"{len(path.probe_exprs)} probe exprs",
                    op,
                )
            by_name = {c.name: i for i, c in enumerate(cols)}
            for name, pos, probe in zip(
                path.build_cols, path.build_positions, path.probe_exprs
            ):
                if by_name.get(name.lower()) != pos:
                    self._fail(
                        "PLN002",
                        f"hash-join build column {name!r} does not live at "
                        f"position {pos}",
                        op,
                    )
                self._check_expr(probe, env, op)
                col = cols[pos] if 0 <= pos < len(cols) else None
                if col is not None and _affinity_conflict(
                    col.affinity, self._expr_affinity(probe, env)
                ):
                    self._fail(
                        "PLN002",
                        f"hash-join key affinity mismatch on {name!r}: "
                        f"{col.affinity} build column probed with a "
                        f"{self._expr_affinity(probe, env)} expression",
                        op,
                    )
        return Contract(protocol=SCOPE, bindings={path.binding.lower(): cols})

    # -- dispatcher -----------------------------------------------------------

    def visit(self, op: Any, env: Dict[str, List[ColumnContract]]) -> Contract:
        from . import operators as ops

        if isinstance(op, ops._ScanBase):
            return self._visit_scan(op, env)
        if isinstance(op, ops.ConstantRow):
            return Contract(protocol=SCOPE)
        if isinstance(op, ops.SubqueryScan):
            return self._visit_subquery_scan(op, env)
        if isinstance(op, ops.NestedLoopJoin):
            return self._visit_nested_loop(op, env)
        if isinstance(op, ops.FilterOp):
            return self._visit_filter(op, env)
        if isinstance(op, ops.HashAggregate):
            return self._visit_aggregate(op, env)
        if isinstance(op, ops.ProjectOp):
            return self._visit_project(op, env)
        if isinstance(op, ops.DistinctOp):
            return self._visit_distinct(op, env)
        if isinstance(op, ops.UnionOp):
            return self._visit_union(op, env)
        if isinstance(op, ops.TopN):
            return self._visit_ordered(op, env, limited=True)
        if isinstance(op, ops.SortOp):
            return self._visit_ordered(op, env, limited=False)
        if isinstance(op, ops.LimitOp):
            return self._visit_limit(op, env)
        if isinstance(op, ops.VecScan):
            return self._visit_vec_scan(op, env)
        if isinstance(op, ops.VecFilter):
            return self._visit_vec_filter(op, env)
        if isinstance(op, ops.VecProject):
            return self._visit_vec_project(op, env)
        if isinstance(op, ops.VecAggregate):
            return self._visit_vec_aggregate(op, env)
        if isinstance(op, ops.VecTopN):
            return self._visit_vec_ordered(op, env, limited=True)
        if isinstance(op, ops.VecSort):
            return self._visit_vec_ordered(op, env, limited=False)
        if isinstance(op, ops.VecDistinct):
            return self._visit_vec_distinct(op, env)
        if isinstance(op, ops.VecLimit):
            return self._visit_vec_limit(op, env)
        self._fail("PLN004", f"unknown operator {type(op).__name__}", op)
        raise AssertionError("unreachable")  # pragma: no cover

    # -- scope-protocol operators ---------------------------------------------

    def _require(self, contract: Contract, wanted: Tuple[str, ...], op: Any) -> None:
        if contract.protocol not in wanted:
            self._fail(
                "PLN004",
                f"protocol violation: consumes {' or '.join(wanted)} input "
                f"but child produces {contract.protocol}",
                op,
            )

    def _visit_subquery_scan(
        self, op: Any, env: Dict[str, List[ColumnContract]]
    ) -> Contract:
        # FROM subqueries are uncorrelated by construction (their row
        # cache is shared across outer rows), so the inner env is fresh.
        sub = self.visit(op.plan, {})
        self._require(sub, _ROWISH, op)
        if sub.width is not None and sub.width != len(op.names):
            self._fail(
                "PLN006",
                f"subquery yields {sub.width} columns but the scan exposes "
                f"{len(op.names)} names",
                op,
            )
        cols = [ColumnContract(n.lower(), None, True) for n in op.names]
        return Contract(protocol=SCOPE, bindings={op.alias.lower(): cols})

    def _visit_nested_loop(
        self, op: Any, env: Dict[str, List[ColumnContract]]
    ) -> Contract:
        left = self.visit(op.left, env)
        self._require(left, (SCOPE,), op)
        inner_env = dict(env)
        inner_env.update(left.bindings)
        right = self.visit(op.right, inner_env)
        self._require(right, (SCOPE,), op)
        bindings = dict(left.bindings)
        if op.kind == "LEFT":
            # The right side null-extends on no match.
            for name, cols in right.bindings.items():
                bindings[name] = [
                    ColumnContract(c.name, c.affinity, True) for c in cols
                ]
        else:
            bindings.update(right.bindings)
        if op.condition is not None:
            local = dict(env)
            local.update(bindings)
            self._check_expr(op.condition, local, op)
            self.predicates |= _norm_conjuncts(op.condition)
        return Contract(protocol=SCOPE, bindings=bindings)

    def _visit_filter(
        self, op: Any, env: Dict[str, List[ColumnContract]]
    ) -> Contract:
        child = self.visit(op.child, env)
        self._require(child, (SCOPE,), op)
        local = dict(env)
        local.update(child.bindings)
        self._check_expr(op.condition, local, op)
        self.predicates |= _norm_conjuncts(op.condition)
        return child

    def _projection_width(
        self,
        cols: List[Any],
        local: Dict[str, List[ColumnContract]],
        op: Any,
    ) -> int:
        width = 0
        for entry in cols:
            if entry[0] == "star":
                binding, names = entry[1], entry[2]
                visible = local.get(binding.lower()) if binding else None
                if visible is None:
                    if self.strict:
                        self._fail(
                            "PLN001",
                            f"star projection over unknown binding {binding!r}",
                            op,
                        )
                else:
                    have = {c.name for c in visible}
                    for name in names:
                        if name.lower() not in have:
                            self._fail(
                                "PLN001",
                                f"star projection column {name!r} missing from "
                                f"binding {binding!r}",
                                op,
                            )
                width += len(names)
            else:
                self._check_expr(entry[1], local, op)
                width += 1
        return width

    def _visit_project(
        self, op: Any, env: Dict[str, List[ColumnContract]]
    ) -> Contract:
        child = self.visit(op.child, env)
        self._require(child, (SCOPE,), op)
        local = dict(env)
        local.update(child.bindings)
        width = self._projection_width(op.cols, local, op)
        return Contract(protocol=ROW, bindings=child.bindings, width=width)

    def _check_call_set(self, op: Any, select: Any) -> None:
        known = {id(c) for c in op.calls}
        for call in aggregate_calls(select):
            if id(call) not in known:
                self._fail(
                    "PLN006",
                    f"aggregate call {call.name}() used by the statement is "
                    f"missing from the operator's call set "
                    f"({len(op.calls)} calls registered)",
                    op,
                )

    def _visit_aggregate(
        self, op: Any, env: Dict[str, List[ColumnContract]]
    ) -> Contract:
        child = self.visit(op.child, env)
        self._require(child, (SCOPE,), op)
        local = dict(env)
        local.update(child.bindings)
        stmt = op.select
        for expr in stmt.group_by:
            self._check_expr(expr, local, op)
        self._check_expr(stmt.having, local, op)
        self._check_call_set(op, stmt)
        width = self._projection_width(op.cols, local, op)
        return Contract(protocol=ROW, bindings=child.bindings, width=width)

    # -- row-protocol operators -----------------------------------------------

    def _visit_distinct(
        self, op: Any, env: Dict[str, List[ColumnContract]]
    ) -> Contract:
        child = self.visit(op.child, env)
        self._require(child, _ROWISH, op)
        return Contract(
            protocol=ROW,
            bindings=child.bindings,
            width=child.width,
            ordering=child.ordering,
            distinct=True,
        )

    def _visit_union(
        self, op: Any, env: Dict[str, List[ColumnContract]]
    ) -> Contract:
        widths: List[Optional[int]] = []
        for branch in op.inputs:
            contract = self.visit(branch, env)
            self._require(contract, _ROWISH, op)
            widths.append(contract.width)
        known = [w for w in widths if w is not None]
        if known and any(w != known[0] for w in known):
            self._fail(
                "PLN006",
                f"UNION branches yield different column counts: {widths}",
                op,
            )
        # Row contexts are erased: ORDER BY above must use names/positions.
        return Contract(
            protocol=ROW,
            width=known[0] if known else None,
            distinct=op.dedup_until == len(op.inputs) - 1,
        )

    def _check_order_terms(
        self,
        op: Any,
        order_by: List[Any],
        names: List[str],
        child: Contract,
        env: Dict[str, List[ColumnContract]],
    ) -> None:
        local = dict(env)
        local.update(child.bindings)
        for item in order_by:
            expr = item.expr
            if (
                isinstance(expr, ast.Literal)
                and isinstance(expr.value, int)
                and not isinstance(expr.value, bool)
            ):
                width = child.width if child.width is not None else len(names)
                if not 1 <= expr.value <= width:
                    self._fail(
                        "PLN001",
                        f"ORDER BY position {expr.value} out of range for a "
                        f"{width}-column output",
                        op,
                    )
                continue
            if (
                isinstance(expr, ast.ColumnRef)
                and expr.table is None
                and expr.name.lower() in names
            ):
                continue  # resolves against the output row
            # Anything else re-evaluates against the row's source context.
            self._check_expr(expr, local, op)

    def _visit_ordered(
        self, op: Any, env: Dict[str, List[ColumnContract]], limited: bool
    ) -> Contract:
        child = self.visit(op.child, env)
        self._require(child, _ROWISH, op)
        self._check_order_terms(op, op.order_by, op.names, child, env)
        if limited and _negative_literal_limit(op.limit):
            self._fail(
                "PLN005",
                "TopN fused over a plan-time negative LIMIT (degrades to a "
                "full sort; lower to Sort+Limit instead)",
                op,
            )
        return Contract(
            protocol=ROW,
            bindings=child.bindings,
            width=child.width,
            ordering=tuple(bool(i.descending) for i in op.order_by),
            distinct=child.distinct,
        )

    def _visit_limit(
        self, op: Any, env: Dict[str, List[ColumnContract]]
    ) -> Contract:
        child = self.visit(op.child, env)
        self._require(child, _ROWISH, op)
        return Contract(
            protocol=ROW,
            bindings=child.bindings,
            width=child.width,
            ordering=child.ordering,
            distinct=child.distinct,
        )

    # -- vectorized operators -------------------------------------------------

    def _check_kernel(self, op: Any, kernel: Any, nslots: int, what: str) -> None:
        if kernel is None:
            self._fail("PLN003", f"{what} did not compile to a kernel", op)
            return
        slot = getattr(kernel, "slot", None)
        if slot is not None and not 0 <= slot < nslots:
            self._fail(
                "PLN003",
                f"{what} reads batch slot {slot} but the scan decodes only "
                f"{nslots} slots",
                op,
            )

    def _visit_vec_scan(
        self, op: Any, env: Dict[str, List[ColumnContract]]
    ) -> Contract:
        path = op.path
        cols = self._table_columns(path.table, op)
        if not isinstance(path, (FullScan, IndexEquality, IndexRange, InProbe)):
            self._fail(
                "PLN003",
                f"VecScan over a {type(path).__name__} access path "
                f"(batches come from full scans and index paths only)",
                op,
            )
        self._check_index_path(op, path, cols, env)
        for position in op.slots:
            if not 0 <= position < len(cols):
                self._fail(
                    "PLN003",
                    f"VecScan slot decodes column position {position} but the "
                    f"table has {len(cols)} columns",
                    op,
                )
        return Contract(
            protocol=COLUMN_BATCH,
            bindings={path.binding.lower(): cols},
            nslots=len(op.slots),
        )

    def _visit_vec_filter(
        self, op: Any, env: Dict[str, List[ColumnContract]]
    ) -> Contract:
        child = self.visit(op.child, env)
        self._require(child, (COLUMN_BATCH,), op)
        local = dict(env)
        local.update(child.bindings)
        self._check_expr(op.condition, local, op)
        self._check_kernel(op, op.kernel, child.nslots, "WHERE kernel")
        self.predicates |= _norm_conjuncts(op.condition)
        return child

    def _visit_vec_project(
        self, op: Any, env: Dict[str, List[ColumnContract]]
    ) -> Contract:
        child = self.visit(op.child, env)
        self._require(child, (COLUMN_BATCH,), op)
        for i, kernel in enumerate(op.kernels):
            self._check_kernel(op, kernel, child.nslots, f"projection kernel {i}")
        return Contract(
            protocol=ROW_BATCH, bindings=child.bindings, width=len(op.kernels)
        )

    def _visit_vec_aggregate(
        self, op: Any, env: Dict[str, List[ColumnContract]]
    ) -> Contract:
        child = self.visit(op.child, env)
        self._require(child, (COLUMN_BATCH,), op)
        local = dict(env)
        local.update(child.bindings)
        for i, kernel in enumerate(op.key_kernels):
            self._check_kernel(op, kernel, child.nslots, f"GROUP BY kernel {i}")
        for call in op.calls:
            if call.star:
                continue
            kernel = op.arg_kernels.get(id(call))
            self._check_kernel(
                op, kernel, child.nslots, f"aggregate argument kernel {call.name}()"
            )
        for slot in op.row_slots:
            if slot is not None and not 0 <= slot < child.nslots:
                self._fail(
                    "PLN003",
                    f"representative-row slot {slot} out of range "
                    f"({child.nslots} decoded)",
                    op,
                )
        self._check_expr(op.select.having, local, op)
        self._check_call_set(op, op.select)
        width = self._projection_width(op.cols, local, op)
        return Contract(protocol=ROW, bindings=child.bindings, width=width)

    def _visit_vec_ordered(
        self, op: Any, env: Dict[str, List[ColumnContract]], limited: bool
    ) -> Contract:
        child = self.visit(op.child, env)
        self._require(child, (COLUMN_BATCH,), op)
        for i, kernel in enumerate(op.proj_kernels):
            self._check_kernel(op, kernel, child.nslots, f"projection kernel {i}")
        ordering: List[bool] = []
        for kind, payload, descending in op.spec:
            if kind == "pos":
                if not 0 <= payload < len(op.proj_kernels):
                    self._fail(
                        "PLN003",
                        f"sort key position {payload} out of range for a "
                        f"{len(op.proj_kernels)}-column projection",
                        op,
                    )
            elif kind == "kernel":
                self._check_kernel(op, payload, child.nslots, "sort-key kernel")
            else:
                self._fail("PLN003", f"unknown sort-key kind {kind!r}", op)
            ordering.append(bool(descending))
        if limited and _negative_literal_limit(op.limit):
            self._fail(
                "PLN005",
                "VecTopN fused over a plan-time negative LIMIT (degrades to a "
                "full sort; lower to VecSort+VecLimit instead)",
                op,
            )
        return Contract(
            protocol=ROW_BATCH,
            bindings=child.bindings,
            width=len(op.proj_kernels),
            ordering=tuple(ordering),
        )

    def _visit_vec_distinct(
        self, op: Any, env: Dict[str, List[ColumnContract]]
    ) -> Contract:
        child = self.visit(op.child, env)
        self._require(child, (ROW_BATCH,), op)
        return Contract(
            protocol=ROW_BATCH,
            bindings=child.bindings,
            width=child.width,
            ordering=child.ordering,
            distinct=True,
        )

    def _visit_vec_limit(
        self, op: Any, env: Dict[str, List[ColumnContract]]
    ) -> Contract:
        child = self.visit(op.child, env)
        self._require(child, (ROW_BATCH,), op)
        return Contract(
            protocol=ROW_BATCH,
            bindings=child.bindings,
            width=child.width,
            ordering=child.ordering,
            distinct=child.distinct,
        )


# ---------------------------------------------------------------------------
# Entry points


def verify_tree(
    db: Any,
    root: Any,
    names: Optional[List[str]] = None,
    correlated: bool = False,
) -> Contract:
    """Verify a physical operator tree; returns its output contract."""
    verifier = _TreeVerifier(db, strict=not correlated)
    contract = verifier.visit(root, {})
    if root.BATCHED and contract.protocol != ROW_BATCH:
        raise PlanVerificationError(
            f"batched root must produce row batches, not {contract.protocol}",
            code="PLN004",
            operator=root.describe(),
        )
    if contract.protocol not in _ROWISH:
        raise PlanVerificationError(
            f"plan root must yield rows, not {contract.protocol} items "
            f"(missing projection?)",
            code="PLN004",
            operator=root.describe(),
        )
    if (
        names is not None
        and contract.width is not None
        and contract.width != len(names)
    ):
        raise PlanVerificationError(
            f"plan yields {contract.width} columns but declares "
            f"{len(names)} output names",
            code="PLN006",
            operator=root.describe(),
        )
    contract.predicates = frozenset(verifier.predicates)
    return contract


def verify_plan(db: Any, plan: Any, correlated: bool = False) -> Contract:
    """Verify a :class:`~repro.minidb.optimizer.PhysicalPlan`."""
    _PLANS.inc()
    try:
        return verify_tree(db, plan.root, names=list(plan.names), correlated=correlated)
    except PlanVerificationError:
        _VIOLATIONS.inc()
        raise


# ---------------------------------------------------------------------------
# Optimizer-rule soundness harness


def logical_contract(db: Any, sp: Any) -> Contract:
    """The rule-invariant contract of a logical :class:`SelectPlan`:
    output width, normalized predicate set (WHERE + join conditions,
    including FROM-subquery plans), ordering guarantee, distinctness."""
    predicates: Set[str] = set()

    def walk_source(node: Any) -> None:
        if node is None or isinstance(node, ScanNode):
            return
        if isinstance(node, SubqueryNode):
            walk_plan(node.plan)
            return
        if isinstance(node, JoinNode):
            predicates.update(_norm_conjuncts(node.condition))
            walk_source(node.left)
            walk_source(node.right)

    def walk_plan(plan: Any) -> None:
        for branch in plan.branches:
            predicates.update(_norm_conjuncts(branch.where))
            walk_source(branch.source)

    walk_plan(sp)
    if len(sp.branches) == 1:
        distinct = bool(sp.branches[0].distinct)
    else:
        distinct = sp.dedup_until == len(sp.branches) - 1
    return Contract(
        protocol=ROW,
        width=len(sp.names),
        ordering=tuple(bool(i.descending) for i in sp.order_by),
        distinct=distinct,
        predicates=frozenset(predicates),
    )


def check_rule(rule: str, before: Contract, after: Contract) -> None:
    """Assert a rewrite rule preserved the plan contract.

    *before* is the contract computed before the rule fired; *after* is
    the re-verified contract of the rewritten plan (logical or physical).
    Equivalence means: same output width, no logical predicate dropped,
    the promised ordering unchanged, and distinctness not weakened.
    """
    _RULE_CHECKS.inc()
    problems: List[str] = []
    if (
        before.width is not None
        and after.width is not None
        and before.width != after.width
    ):
        problems.append(f"output width changed {before.width} -> {after.width}")
    dropped = before.predicates - after.predicates
    if dropped:
        problems.append(
            "predicates dropped: " + ", ".join(sorted(dropped))
        )
    if before.ordering and after.ordering != before.ordering:
        problems.append(
            f"ordering guarantee changed {before.ordering} -> {after.ordering}"
        )
    if before.distinct and not after.distinct:
        problems.append("distinctness guarantee lost")
    if problems:
        _RULE_DRIFT.inc()
        _drift_counter(rule).inc()
        _VIOLATIONS.inc()
        raise PlanVerificationError(
            f"optimizer rule {rule!r} changed the plan contract: "
            + "; ".join(problems),
            code="PLN007",
        )
