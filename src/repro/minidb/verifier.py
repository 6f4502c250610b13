"""Static plan verification for the minidb query engine.

The optimizer is a pipeline of rewrite rules feeding one lowering onto
the batch operators (:mod:`repro.minidb.operators`).  The runtime
differential suite catches miscompilations only after the fact; this
module catches them *at plan time* by walking any physical operator tree
and propagating a typed output contract — column names, affinities,
nullability, ordering and distinctness guarantees, and the
column-batch-vs-row-batch protocol — through every operator.

Violations raise :class:`PlanVerificationError` with a stable code:

========  ==================================================================
PLN001    unresolvable column reference (unknown binding or column, or an
          ORDER BY position outside the sorted rows)
PLN002    join/index key contract mismatch (arity, position, or affinity)
PLN003    operator without a usable kernel (None kernel, slot out of
          range, a leaf over an unknown access path)
PLN004    protocol violation (a consumer wired to a child whose batch
          protocol — column batches or row batches — it cannot drain)
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
(set by the test suite) and reported through ``minidb.verifier.*``
counters.
"""

from __future__ import annotations

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
    enforced_conjuncts,
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
    "verify_plan",
    "verify_tree",
    "logical_contract",
    "check_rule",
]


#: Master toggle: the optimizer verifies every plan it emits when true.
#: Off by default (production pays nothing); ``tests/conftest.py`` sets
#: it for the whole test suite.
VERIFY_PLANS: bool = False


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


#: Batch protocols an operator's output can follow: ``column-batch``
#: producers yield :class:`~repro.minidb.vector.ColumnBatch` (scans,
#: joins, filters); ``row-batch`` producers yield lists of plain row
#: tuples (projection and everything above it).
COLUMN_BATCH = "column-batch"
ROW_BATCH = "row-batch"


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

    # -- access paths -------------------------------------------------------

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

    def _check_path(
        self,
        op: Any,
        path: Any,
        cols: List[ColumnContract],
        env: Dict[str, List[ColumnContract]],
    ) -> None:
        """PLN002 key arity/affinity checks of one access path."""
        if isinstance(path, FullScan):
            return
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
        elif isinstance(path, HashJoin):
            self._check_hash_path(op, path, cols, env)
        else:
            self._fail("PLN003", f"leaf over an unknown access path {path!r}", op)

    def _check_hash_path(
        self,
        op: Any,
        path: Any,
        cols: List[ColumnContract],
        env: Dict[str, List[ColumnContract]],
    ) -> None:
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

    # -- dispatcher -----------------------------------------------------------

    def visit(self, op: Any, env: Dict[str, List[ColumnContract]]) -> Contract:
        from . import operators as ops

        visitor = {
            ops.VecScan: self._visit_scan,
            ops.ConstantRow: self._visit_constant_row,
            ops.SubqueryScan: self._visit_subquery_scan,
            ops.VecIndexJoin: self._visit_join,
            ops.VecFilter: self._visit_filter,
            ops.VecProject: self._visit_project,
            ops.VecAggregate: self._visit_aggregate,
            ops.VecSort: self._visit_ordered,
            ops.VecTopN: self._visit_ordered,
            ops.VecDistinct: self._visit_distinct,
            ops.VecLimit: self._visit_limit,
            ops.VecUnion: self._visit_union,
        }.get(type(op))
        if visitor is None:
            self._fail("PLN004", f"unknown operator {type(op).__name__}", op)
            raise AssertionError("unreachable")  # pragma: no cover
        return visitor(op, env)

    def _require(self, contract: Contract, wanted: str, op: Any) -> None:
        if contract.protocol != wanted:
            self._fail(
                "PLN004",
                f"protocol violation: consumes {wanted} input "
                f"but child produces {contract.protocol}",
                op,
            )

    def _check_kernel(self, op: Any, kernel: Any, nslots: int, what: str) -> None:
        if kernel is None:
            self._fail("PLN003", f"{what} did not compile to a kernel", op)
            return
        slot = getattr(kernel, "slot", None)
        if slot is not None and not 0 <= slot < nslots:
            self._fail(
                "PLN003",
                f"{what} reads batch slot {slot} but the batch carries only "
                f"{nslots} slots",
                op,
            )

    def _check_slots(self, op: Any, slots: List[int], ncols: int) -> None:
        for position in slots:
            if not 0 <= position < ncols:
                self._fail(
                    "PLN003",
                    f"{type(op).__name__} slot decodes column position "
                    f"{position} but the source has {ncols} columns",
                    op,
                )

    # -- column-batch operators -----------------------------------------------

    def _visit_scan(
        self, op: Any, env: Dict[str, List[ColumnContract]]
    ) -> Contract:
        path = op.path
        cols = self._table_columns(path.table, op)
        self._check_path(op, path, cols, env)
        self._check_slots(op, op.slots, len(cols))
        # An equality or IN probe enforces the conjuncts it consumes: no
        # filter above re-checks them, and they still count as kept.
        for conjunct in enforced_conjuncts(path):
            self.predicates |= _norm_conjuncts(conjunct)
        return Contract(
            protocol=COLUMN_BATCH,
            bindings={path.binding.lower(): cols},
            nslots=len(op.slots),
        )

    def _visit_constant_row(
        self, op: Any, env: Dict[str, List[ColumnContract]]
    ) -> Contract:
        return Contract(protocol=COLUMN_BATCH)

    def _visit_subquery_scan(
        self, op: Any, env: Dict[str, List[ColumnContract]]
    ) -> Contract:
        # FROM subqueries are uncorrelated by construction (their row
        # cache is shared across the whole execution), so the inner env
        # is fresh.
        sub = self.visit(op.plan, {})
        self._require(sub, ROW_BATCH, op)
        if sub.width is not None and sub.width != len(op.names):
            self._fail(
                "PLN006",
                f"subquery yields {sub.width} columns but the scan exposes "
                f"{len(op.names)} names",
                op,
            )
        self._check_slots(op, op.slots, len(op.names))
        cols = [ColumnContract(n.lower(), None, True) for n in op.names]
        return Contract(
            protocol=COLUMN_BATCH,
            bindings={op.alias.lower(): cols},
            nslots=len(op.slots),
        )

    def _visit_join(
        self, op: Any, env: Dict[str, List[ColumnContract]]
    ) -> Contract:
        from .operators import probe_exprs

        child = self.visit(op.child, env)
        self._require(child, COLUMN_BATCH, op)
        outer = dict(env)
        outer.update(child.bindings)
        inner = self.visit(op.inner, outer)
        self._require(inner, COLUMN_BATCH, op)
        nkeys = len(probe_exprs(op.inner.path)) if hasattr(op.inner, "path") else 0
        if len(op.key_kernels) != nkeys:
            self._fail(
                "PLN002",
                f"join key arity mismatch: {len(op.key_kernels)} key kernels "
                f"for {nkeys} probe exprs",
                op,
            )
        for i, kernel in enumerate(op.key_kernels):
            self._check_kernel(op, kernel, child.nslots, f"join key kernel {i}")
        bindings = dict(child.bindings)
        for name, cols in inner.bindings.items():
            if op.kind == "LEFT":
                # The inner side null-extends on no match.
                cols = [ColumnContract(c.name, c.affinity, True) for c in cols]
            bindings[name] = cols
        nslots = child.nslots + inner.nslots
        if op.condition is not None:
            local = dict(env)
            local.update(bindings)
            self._check_expr(op.condition, local, op)
            self.predicates |= _norm_conjuncts(op.condition)
        if op.on_kernel is not None:
            self._check_kernel(op, op.on_kernel, nslots, "ON kernel")
        return Contract(protocol=COLUMN_BATCH, bindings=bindings, nslots=nslots)

    def _visit_filter(
        self, op: Any, env: Dict[str, List[ColumnContract]]
    ) -> Contract:
        child = self.visit(op.child, env)
        self._require(child, COLUMN_BATCH, op)
        local = dict(env)
        local.update(child.bindings)
        self._check_expr(op.condition, local, op)
        self._check_kernel(op, op.kernel, child.nslots, "WHERE kernel")
        self.predicates |= _norm_conjuncts(op.condition)
        return child

    # -- row-batch operators --------------------------------------------------

    def _visit_project(
        self, op: Any, env: Dict[str, List[ColumnContract]]
    ) -> Contract:
        child = self.visit(op.child, env)
        self._require(child, COLUMN_BATCH, op)
        for i, kernel in enumerate(op.kernels):
            self._check_kernel(op, kernel, child.nslots, f"projection kernel {i}")
        return Contract(
            protocol=ROW_BATCH, bindings=child.bindings, width=len(op.kernels)
        )

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

    def _visit_aggregate(
        self, op: Any, env: Dict[str, List[ColumnContract]]
    ) -> Contract:
        child = self.visit(op.child, env)
        self._require(child, COLUMN_BATCH, op)
        local = dict(env)
        local.update(child.bindings)
        for expr in op.group_by:
            self._check_expr(expr, local, op)
        for i, kernel in enumerate(op.key_kernels):
            self._check_kernel(op, kernel, child.nslots, f"GROUP BY kernel {i}")
        known = {id(c) for c in op.calls}
        for call in aggregate_calls(op.select):
            if id(call) not in known:
                self._fail(
                    "PLN006",
                    f"aggregate call {call.name}() used by the statement is "
                    f"missing from the operator's call set "
                    f"({len(op.calls)} calls registered)",
                    op,
                )
        for call in op.calls:
            if not call.star:
                self._check_kernel(
                    op,
                    op.arg_kernels.get(id(call)),
                    child.nslots,
                    f"aggregate argument kernel {call.name}()",
                )
        for _binding, _names, slots in op.blocks:
            for slot in slots:
                if not 0 <= slot < child.nslots:
                    self._fail(
                        "PLN003",
                        f"representative-row slot {slot} out of range "
                        f"({child.nslots} decoded)",
                        op,
                    )
        self._check_expr(op.select.having, local, op)
        for expr in op.hidden:
            self._check_expr(expr, local, op)
        width = self._projection_width(op.cols, local, op) + len(op.hidden)
        return Contract(protocol=ROW_BATCH, bindings=child.bindings, width=width)

    def _visit_ordered(
        self, op: Any, env: Dict[str, List[ColumnContract]]
    ) -> Contract:
        from .operators import VecTopN

        child = self.visit(op.child, env)
        self._require(child, ROW_BATCH, op)
        for pos, _desc in op.spec:
            if child.width is not None and not 0 <= pos < child.width:
                self._fail(
                    "PLN001",
                    f"ORDER BY position {pos + 1} out of range for a "
                    f"{child.width}-column input",
                    op,
                )
        if isinstance(op, VecTopN) and _negative_literal_limit(op.limit):
            self._fail(
                "PLN005",
                "TopN fused over a plan-time negative LIMIT (degrades to a "
                "full sort; lower to Sort+Limit instead)",
                op,
            )
        return Contract(
            protocol=ROW_BATCH,
            bindings=child.bindings,
            width=op.width if op.width is not None else child.width,
            ordering=tuple(bool(desc) for _pos, desc in op.spec),
            distinct=child.distinct,
        )

    def _visit_distinct(
        self, op: Any, env: Dict[str, List[ColumnContract]]
    ) -> Contract:
        child = self.visit(op.child, env)
        self._require(child, ROW_BATCH, op)
        return Contract(
            protocol=ROW_BATCH,
            bindings=child.bindings,
            width=child.width,
            ordering=child.ordering,
            distinct=True,
        )

    def _visit_limit(
        self, op: Any, env: Dict[str, List[ColumnContract]]
    ) -> Contract:
        child = self.visit(op.child, env)
        self._require(child, ROW_BATCH, op)
        return Contract(
            protocol=ROW_BATCH,
            bindings=child.bindings,
            width=child.width,
            ordering=child.ordering,
            distinct=child.distinct,
        )

    def _visit_union(
        self, op: Any, env: Dict[str, List[ColumnContract]]
    ) -> Contract:
        widths: List[Optional[int]] = []
        for branch in op.inputs:
            contract = self.visit(branch, env)
            self._require(contract, ROW_BATCH, op)
            widths.append(contract.width)
        known = [w for w in widths if w is not None]
        if known and any(w != known[0] for w in known):
            self._fail(
                "PLN006",
                f"UNION branches yield different column counts: {widths}",
                op,
            )
        return Contract(
            protocol=ROW_BATCH,
            width=known[0] if known else None,
            distinct=op.dedup_until == len(op.inputs) - 1,
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
    if contract.protocol != ROW_BATCH:
        raise PlanVerificationError(
            f"plan root must yield row batches, not {contract.protocol} "
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
        protocol=ROW_BATCH,
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
