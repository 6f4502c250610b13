"""Rule-based optimizer for minidb.

Sits between the logical plan (:mod:`repro.minidb.planner`) and the
physical operators (:mod:`repro.minidb.operators`):

1. **Constant folding** — literal-only subtrees of WHERE and join
   conditions are evaluated once at plan time (with the same evaluator the
   engine uses at runtime, so NULL/division/type semantics are identical).
   Only new nodes are built; the analyzed AST is never mutated.
2. **Predicate pushdown** — AND-ed conjuncts are threaded down the join
   tree to each scan so :func:`~repro.minidb.planner.choose_access_path`
   can turn them into index probes or hash-join keys.  Pushdown is
   *access-only*: the full WHERE / join condition is still re-evaluated by
   FilterOp / NestedLoopJoin above, so paths may safely return supersets.
3. **Join-input reordering** — an INNER join of two base tables swaps its
   inputs when both orientations admit a hash join and the swap makes the
   *smaller* table the build side (bounding hash-map memory).
4. **TopN fusion** — ``ORDER BY ... LIMIT k`` becomes a bounded-heap TopN
   operator instead of a full sort followed by a limit.

Each rule has a module-level toggle so tests can verify that disabling any
rule never changes result multisets.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional

from . import ast_nodes as ast
from .errors import ProgrammingError
from .expressions import Evaluator, Scope
from .operators import (
    ConstantRow,
    DistinctOp,
    FilterOp,
    HashAggregate,
    LimitOp,
    NestedLoopJoin,
    Operator,
    ProjectOp,
    SortOp,
    SubqueryScan,
    TopN,
    UnionOp,
    VecAggregate,
    VecDistinct,
    VecFilter,
    VecIndexJoin,
    VecLimit,
    VecProject,
    VecScan,
    VecSort,
    VecTopN,
    scan_for_path,
)
from .planner import (
    BranchPlan,
    FullScan,
    HashJoin as HashJoinPath,
    IndexEquality,
    IndexRange as IndexRangePath,
    InProbe as InProbePath,
    JoinNode,
    ScanNode,
    SelectPlan,
    SubqueryNode,
    aggregate_calls,
    binding_columns,
    build_logical_plan,
    choose_access_path,
    split_conjuncts,
    star_names,
)
from .vector import KernelCompiler
from . import verifier
from .verifier import _negative_literal_limit

# Rule toggles — flipped by tests to prove rules are behavior-preserving.
ENABLE_CONSTANT_FOLDING = True
ENABLE_PUSHDOWN = True
ENABLE_JOIN_REORDER = True
ENABLE_TOPN = True

# Batch-at-a-time lowering: single-table statements and INNER index-join
# chains execute over column batches when every needed expression compiles
# to a vector kernel.  Index access paths always gather into batches; full
# scans do so only for single tables at or above VECTOR_MIN_ROWS rows
# (columnar segments).  The threshold is a power of two so crossing it
# lands on a plan-cache size-bucket boundary and cached row plans are
# re-planned.
ENABLE_VECTORIZATION = True
VECTOR_MIN_ROWS = 2048


@dataclass
class PhysicalPlan:
    """A lowered operator tree plus its statement-level output shape."""

    root: Operator
    names: list[str]
    description: list[tuple]
    #: tables whose row counts the access-path choices depended on — the
    #: statement cache keys plan reuse on their size buckets.
    tables: tuple[str, ...]

    def clone(self) -> "PhysicalPlan":
        """A fresh, stateless operator tree for one execution.

        Cached plans must be cloned per execution: two cursors may stream
        the same statement concurrently, and operator instances hold
        open-generator state.
        """
        return PhysicalPlan(self.root.clone(), self.names, self.description, self.tables)


def plan_select(db, stmt: ast.Select, correlated: bool = False) -> PhysicalPlan:
    """Logical plan → optimizer rules → physical operator tree.

    With :data:`~repro.minidb.verifier.VERIFY_PLANS` on, the contract of
    the plan (output width, preserved predicates, ordering, distinctness)
    is captured before any rule fires and re-checked after each rewrite
    and against the final physical tree — a broken rule raises
    ``PLN007`` at plan time instead of corrupting results at run time.
    *correlated* marks expression subqueries, whose column references may
    legally resolve in an outer scope the verifier cannot see.
    """
    logical = build_logical_plan(db, stmt)
    base = verifier.logical_contract(db, logical) if verifier.should_verify() else None
    if ENABLE_CONSTANT_FOLDING:
        _fold_plan(logical)
        if base is not None:
            verifier.check_rule(
                "constant_folding", base, verifier.logical_contract(db, logical)
            )
    _reorder_plan(db, logical)
    if base is not None:
        verifier.check_rule(
            "join_reorder", base, verifier.logical_contract(db, logical)
        )
    root = _lower_vectorized(db, logical) if ENABLE_VECTORIZATION else None
    vectorized = root is not None
    if root is None:
        root = lower_select_plan(db, logical)
    description = [(n, None, None, None, None, None, None) for n in logical.names]
    plan = PhysicalPlan(
        root=root,
        names=logical.names,
        description=description,
        tables=tuple(sorted(_plan_tables(logical))),
    )
    if base is not None:
        # Lowering subsumes predicate pushdown (access-path selection) and
        # TopN fusion; verifying the physical tree checks those rules too.
        physical = verifier.verify_plan(db, plan, correlated=correlated)
        verifier.check_rule("vectorize" if vectorized else "lowering", base, physical)
    return plan


def _plan_tables(sp: SelectPlan, out: Optional[set] = None) -> set:
    if out is None:
        out = set()
    for branch in sp.branches:
        _source_tables(branch.source, out)
    return out


def _source_tables(node, out: set) -> None:
    if node is None:
        return
    if isinstance(node, ScanNode):
        out.add(node.ref.name.lower())
        return
    if isinstance(node, SubqueryNode):
        _plan_tables(node.plan, out)
        return
    if isinstance(node, JoinNode):
        _source_tables(node.left, out)
        _source_tables(node.right, out)
        return
    raise ProgrammingError(f"unknown logical node {node!r}")


# ---------------------------------------------------------------------------
# Rule: constant folding.

_FOLD_EVALUATOR = Evaluator((), None)
_EMPTY_SCOPE = Scope()


def _is_literal_only(expr: ast.Expr) -> bool:
    """True when *expr* depends on nothing per-row or per-execution.

    Parameters are excluded — plans are cached across executions with
    different bindings — as are column references and subqueries.
    """
    if isinstance(expr, ast.Literal):
        return True
    if isinstance(expr, ast.Unary):
        return _is_literal_only(expr.operand)
    if isinstance(expr, ast.Binary):
        return _is_literal_only(expr.left) and _is_literal_only(expr.right)
    if isinstance(expr, ast.Cast):
        return _is_literal_only(expr.operand)
    if isinstance(expr, ast.IsNull):
        return _is_literal_only(expr.operand)
    if isinstance(expr, ast.Like):
        parts = [expr.operand, expr.pattern]
        if expr.escape is not None:
            parts.append(expr.escape)
        return all(_is_literal_only(p) for p in parts)
    if isinstance(expr, ast.Between):
        return all(_is_literal_only(p) for p in (expr.operand, expr.low, expr.high))
    if isinstance(expr, ast.InList):
        return _is_literal_only(expr.operand) and all(
            _is_literal_only(i) for i in expr.items
        )
    if isinstance(expr, ast.FuncCall):
        return (
            not expr.star
            and not expr.distinct
            and all(_is_literal_only(a) for a in expr.args)
        )
    if isinstance(expr, ast.Case):
        parts = [expr.operand] if expr.operand is not None else []
        for c, r in expr.whens:
            parts.extend([c, r])
        if expr.default is not None:
            parts.append(expr.default)
        return all(_is_literal_only(p) for p in parts)
    return False


def fold_condition(expr: Optional[ast.Expr]) -> Optional[ast.Expr]:
    """Fold literal-only subtrees of a WHERE/ON tree into Literal nodes.

    Evaluation goes through the runtime :class:`Evaluator`, so folded
    semantics (NULL propagation, division by zero → NULL, type coercions)
    match row-at-a-time evaluation exactly.  Anything that raises is left
    unfolded so the error still surfaces at execution time.  The input
    tree is never mutated — rewritten spines are new nodes.
    """
    if expr is None:
        return None
    if isinstance(expr, ast.Literal):
        return expr
    if _is_literal_only(expr):
        try:
            value = _FOLD_EVALUATOR.evaluate(expr, _EMPTY_SCOPE)
        except Exception:
            return expr
        return ast.Literal(value)
    if isinstance(expr, ast.Binary):
        left = fold_condition(expr.left)
        right = fold_condition(expr.right)
        if left is expr.left and right is expr.right:
            return expr
        return ast.Binary(expr.op, left, right)
    if isinstance(expr, ast.Unary):
        operand = fold_condition(expr.operand)
        if operand is expr.operand:
            return expr
        return ast.Unary(expr.op, operand)
    return expr


def _fold_plan(sp: SelectPlan) -> None:
    for branch in sp.branches:
        branch.where = fold_condition(branch.where)
        _fold_source(branch.source)


def _fold_source(node) -> None:
    if isinstance(node, JoinNode):
        node.condition = fold_condition(node.condition)
        _fold_source(node.left)
        _fold_source(node.right)
    elif isinstance(node, SubqueryNode):
        _fold_plan(node.plan)


def _is_const_true(expr: Optional[ast.Expr]) -> bool:
    return (
        isinstance(expr, ast.Literal)
        and expr.value is not None
        and bool(expr.value)
    )


# ---------------------------------------------------------------------------
# Rule: join-input reordering (build the smaller side of a hash join).


def _known_binding_fn(bound: set, meta, binding: str):
    bound_lower = {b.lower() for b in bound}

    def known(table: Optional[str], column: str) -> bool:
        if table is not None:
            return table.lower() != binding.lower() and table.lower() in bound_lower
        # Unqualified: only known when it is NOT a column of the probed
        # table (otherwise it refers to the row being scanned).
        return not meta.has_column(column)

    return known


def _reorder_plan(db, sp: SelectPlan) -> None:
    for branch in sp.branches:
        _reorder_source(db, branch.source, split_conjuncts(branch.where))


def _reorder_source(db, node, push: list) -> None:
    if isinstance(node, SubqueryNode):
        _reorder_plan(db, node.plan)
        return
    if not isinstance(node, JoinNode):
        return
    _reorder_source(db, node.left, push)
    right_push = list(split_conjuncts(node.condition))
    if node.kind == "INNER":
        right_push = right_push + push
    _reorder_source(db, node.right, right_push)
    if (
        ENABLE_JOIN_REORDER
        and node.kind == "INNER"
        and node.condition is not None
        and isinstance(node.left, ScanNode)
        and isinstance(node.right, ScanNode)
    ):
        _maybe_swap_inputs(db, node, right_push)


def _maybe_swap_inputs(db, node: JoinNode, conjuncts: list) -> None:
    """Swap an INNER join's inputs when that shrinks the hash-build side.

    Both orientations must independently choose a hash join — if the
    current one uses an index, or the swapped probe side is too small to
    amortise a build, the original order stands (and with it the original
    row order for index/scan plans).
    """
    left, right = node.left, node.right
    lsize = len(db.table(left.ref.name).rows)
    rsize = len(db.table(right.ref.name).rows)
    if lsize >= rsize:
        return  # the build side is already the smaller input
    rmeta = db.table(right.ref.name).meta
    orig = choose_access_path(
        db.indexes_on(rmeta.name),
        rmeta,
        right.ref.binding,
        conjuncts,
        known_binding=_known_binding_fn({left.ref.binding}, rmeta, right.ref.binding),
        table_size=rsize,
    )
    if not isinstance(orig, HashJoinPath):
        return
    lmeta = db.table(left.ref.name).meta
    swapped = choose_access_path(
        db.indexes_on(lmeta.name),
        lmeta,
        left.ref.binding,
        conjuncts,
        known_binding=_known_binding_fn({right.ref.binding}, lmeta, left.ref.binding),
        table_size=lsize,
    )
    if not isinstance(swapped, HashJoinPath):
        return
    node.left, node.right = right, left


# ---------------------------------------------------------------------------
# Lowering: logical nodes → physical operators.


def _node_bindings(node) -> list[str]:
    if node is None:
        return []
    if isinstance(node, ScanNode):
        return [node.ref.binding]
    if isinstance(node, SubqueryNode):
        return [node.ref.alias]
    if isinstance(node, JoinNode):
        return _node_bindings(node.left) + _node_bindings(node.right)
    raise ProgrammingError(f"unknown logical node {node!r}")


def _node_schemas(db, node) -> list[tuple[str, list[str]]]:
    """``(binding, columns)`` pairs for LEFT-join null extension."""
    if isinstance(node, ScanNode):
        return [(node.ref.binding, db.catalog.table(node.ref.name).column_names)]
    if isinstance(node, SubqueryNode):
        return [(node.ref.alias, node.plan.names)]
    if isinstance(node, JoinNode):
        return _node_schemas(db, node.left) + _node_schemas(db, node.right)
    raise ProgrammingError(f"unknown logical node {node!r}")


def _scan_path(db, node: ScanNode, push: list, bound: list[str]):
    """The access path of one base-table scan, given the conjuncts pushed
    to it and the bindings already bound to its left (shared by both
    lowerings, so a batched plan probes exactly as the row plan would)."""
    ref = node.ref
    table = db.table(ref.name)
    meta = table.meta
    return choose_access_path(
        db.indexes_on(meta.name),
        meta,
        ref.binding,
        push if ENABLE_PUSHDOWN else [],
        known_binding=_known_binding_fn(set(bound), meta, ref.binding),
        table_size=len(table.rows),
    )


def _lower_source(db, node, push: list, bound: list[str]) -> Operator:
    if node is None:
        return ConstantRow()
    if isinstance(node, ScanNode):
        op = scan_for_path(_scan_path(db, node, push, bound))
        op.est_rows = node.est_rows
        return op
    if isinstance(node, SubqueryNode):
        sub_root = lower_select_plan(db, node.plan)
        op = SubqueryScan(sub_root, node.ref.alias, node.plan.names)
        op.est_rows = node.est_rows
        return op
    if isinstance(node, JoinNode):
        left = _lower_source(db, node.left, push, bound)
        right_push = list(split_conjuncts(node.condition))
        if node.kind == "INNER":
            right_push = right_push + push
        right = _lower_source(
            db, node.right, right_push, list(bound) + _node_bindings(node.left)
        )
        op = NestedLoopJoin(
            left, right, node.kind, node.condition, _node_schemas(db, node.right)
        )
        op.est_rows = node.est_rows
        return op
    raise ProgrammingError(f"cannot lower source {node!r}")


def _projection_cols(catalog, stmt: ast.Select) -> list[tuple]:
    cols: list[tuple] = []
    for item in stmt.items:
        if isinstance(item.expr, ast.Star):
            star_names(catalog, stmt.source, item.expr.table)  # SQL018 check
            for binding, columns in binding_columns(catalog, stmt.source):
                if (
                    item.expr.table is None
                    or binding.lower() == item.expr.table.lower()
                ):
                    cols.append(("star", binding, columns))
        else:
            cols.append(("expr", item.expr))
    return cols


def _lower_branch(db, branch: BranchPlan) -> Operator:
    stmt = branch.select
    push = split_conjuncts(branch.where)
    child = _lower_source(db, branch.source, push, [])
    if branch.where is not None and not _is_const_true(branch.where):
        flt = FilterOp(branch.where, child)
        flt.est_rows = branch.est_rows if not branch.aggregate else None
        child = flt
    cols = _projection_cols(db.catalog, stmt)
    if branch.aggregate:
        op: Operator = HashAggregate(
            stmt,
            aggregate_calls(stmt),
            cols,
            binding_columns(db.catalog, stmt.source),
            child,
        )
    else:
        op = ProjectOp(cols, child)
    op.est_rows = branch.est_rows
    if branch.distinct:
        op = DistinctOp(op)
        op.est_rows = branch.est_rows
    return op


def _attach_order_limit(root: Operator, sp: SelectPlan) -> Operator:
    """Row-engine ORDER BY / LIMIT tail shared by both lowering paths.

    A LIMIT known negative at plan time never fuses into TopN: the heap
    would degrade to an unbounded sort at run time (and the verifier
    flags such plans as PLN005), so Sort+Limit — where a negative limit
    already means "no limit" — is the honest lowering.
    """
    if sp.order_by:
        if (
            sp.limit is not None
            and ENABLE_TOPN
            and not _negative_literal_limit(sp.limit)
        ):
            root = TopN(sp.order_by, sp.names, sp.limit, sp.offset, root)
            root.est_rows = sp.est_rows
        else:
            root = SortOp(sp.order_by, sp.names, root)
            root.est_rows = sp.est_rows
            if sp.limit is not None or sp.offset is not None:
                root = LimitOp(sp.limit, sp.offset, root)
                root.est_rows = sp.est_rows
    elif sp.limit is not None or sp.offset is not None:
        root = LimitOp(sp.limit, sp.offset, root)
        root.est_rows = sp.est_rows
    return root


def lower_select_plan(db, sp: SelectPlan) -> Operator:
    branch_ops = [_lower_branch(db, b) for b in sp.branches]
    root = branch_ops[0]
    if len(branch_ops) > 1:
        root = UnionOp(branch_ops, sp.dedup_until)
        root.est_rows = sp.est_rows
    return _attach_order_limit(root, sp)


# ---------------------------------------------------------------------------
# Vectorized lowering: scans, index probes and index-join chains over batches.


def _vector_order_spec(sp: SelectPlan, comp: KernelCompiler):
    """ORDER BY terms as ``(kind, payload, descending)`` triples.

    Mirrors :func:`~repro.minidb.operators.order_value`: integer literals
    and output-name references sort on the projected column; anything
    else compiles to a separate sort-key kernel over the source batch.
    Returns None (falling back to the row plan) when a term cannot be
    resolved at plan time.
    """
    names = [n.lower() for n in sp.names]
    spec = []
    for oi in sp.order_by:
        e = oi.expr
        if isinstance(e, ast.Literal) and isinstance(e.value, int) and not isinstance(
            e.value, bool
        ):
            pos = e.value - 1
            if pos < 0 or pos >= len(names):
                return None  # row path raises the proper error at run time
            spec.append(("pos", pos, oi.descending))
            continue
        if (
            isinstance(e, ast.ColumnRef)
            and e.table is None
            and e.name.lower() in names
        ):
            spec.append(("pos", names.index(e.name.lower()), oi.descending))
            continue
        k = comp.compile(e)
        if k is None:
            return None
        spec.append(("kernel", k, oi.descending))
    return spec


def _index_join_chain(db, branch: BranchPlan) -> Optional[list]:
    """The branch's source as ``[(scan node, access path, join node)]``
    in join order (the leading scan's join node is None), or None when it
    cannot feed batches.

    A single base-table scan qualifies with an index path, or with a full
    scan of at least VECTOR_MIN_ROWS rows (columnar segments).  A
    left-deep chain of INNER joins over base tables qualifies when its
    leading scan gathers through an index path and every inner side is
    an IndexEquality probe — each path chosen exactly as
    :func:`_lower_source` chooses it — and the branch does not aggregate.
    """
    joins = []
    node = branch.source
    while isinstance(node, JoinNode):
        if node.kind != "INNER" or not isinstance(node.right, ScanNode):
            return None
        joins.append(node)
        node = node.left
    if not isinstance(node, ScanNode):
        return None
    joins.reverse()
    push = split_conjuncts(branch.where)
    path = _scan_path(db, node, push, [])
    if isinstance(path, FullScan):
        if joins or len(db.table(node.ref.name).rows) < VECTOR_MIN_ROWS:
            return None
    elif not isinstance(path, (IndexEquality, IndexRangePath, InProbePath)):
        return None
    if joins and branch.aggregate:
        return None
    chain = [(node, path, None)]
    bound = [node.ref.binding]
    for join in joins:
        right_push = list(split_conjuncts(join.condition)) + push
        path = _scan_path(db, join.right, right_push, bound)
        if not isinstance(path, IndexEquality):
            return None
        chain.append((join.right, path, join))
        bound.append(join.right.ref.binding)
    return chain


def _lower_vectorized(db, sp: SelectPlan) -> Optional[Operator]:
    """Batch-at-a-time operator tree, or None when the shape or an
    expression does not vectorize (the row lowering then applies).

    Requirements: a single non-compound branch whose source
    :func:`_index_join_chain` accepts, and every key, ON, WHERE,
    projection, grouping and ordering expression must compile to a
    kernel.  A join chain compiles twice: the first pass finds the
    columns every expression reads, the second compiles against slots
    laid out table by table (the scan decodes the first block, each
    index join appends its own).
    """
    if len(sp.branches) != 1:
        return None
    branch = sp.branches[0]
    chain = _index_join_chain(db, branch)
    if chain is None:
        return None
    comp = KernelCompiler(
        [(db.table(node.ref.name).meta, node.ref.binding) for node, *_rest in chain]
    )
    root = _vector_tree(db, sp, branch, chain, comp)
    if root is None or len(chain) == 1:
        return root
    return _vector_tree(db, sp, branch, chain, comp.laid_out())


def _vector_tree(
    db, sp: SelectPlan, branch: BranchPlan, chain: list, comp: KernelCompiler
) -> Optional[Operator]:
    """The batch operator tree over *chain*, compiled with *comp*; None
    when an expression does not compile."""
    stmt = branch.select
    # Join i's key kernels see its outer side (tables < i); its ON
    # condition also sees the inner table.
    joins = []
    for i, (_node, path, join) in enumerate(chain[1:], start=1):
        condition = join.condition
        keys = []
        for e in path.key_exprs:
            k = comp.scoped(i).compile(e)
            if k is None:
                return None
            keys.append(k)
        on_kernel = None
        if condition is not None and not _is_const_true(condition):
            on_kernel = comp.scoped(i + 1).compile(condition)
            if on_kernel is None:
                return None
        joins.append((keys, on_kernel))
    where_kernel = None
    if branch.where is not None and not _is_const_true(branch.where):
        where_kernel = comp.compile(branch.where)
        if where_kernel is None:
            return None
    cols = _projection_cols(db.catalog, stmt)

    def scan_and_filter() -> Operator:
        # Built last: every kernel must be compiled first so the slot
        # blocks handed to the scan and the joins are final.
        node, path, _join = chain[0]
        child: Operator = VecScan(path, comp.block(0))
        child.est_rows = node.est_rows
        for i, (keys, on_kernel) in enumerate(joins, start=1):
            _node, jpath, join = chain[i]
            child = VecIndexJoin(jpath, comp.block(i), keys, child)
            child.est_rows = join.est_rows
            if on_kernel is not None:
                child = VecFilter(join.condition, on_kernel, child)
                child.est_rows = join.est_rows
        if where_kernel is not None:
            flt = VecFilter(branch.where, where_kernel, child)
            flt.est_rows = branch.est_rows if not branch.aggregate else None
            child = flt
        return child

    if branch.aggregate:
        meta, binding = comp.tables[0]
        calls = aggregate_calls(stmt)
        key_kernels = []
        for e in stmt.group_by:
            k = comp.compile(e)
            if k is None:
                return None
            key_kernels.append(k)
        arg_kernels = {}
        for c in calls:
            if c.star:
                continue
            if len(c.args) != 1:
                return None  # row engine raises the proper error
            k = comp.compile(c.args[0])
            if k is None:
                return None
            arg_kernels[id(c)] = k
        # HAVING and the projection run through the row evaluator against
        # a representative scope, so every table column must be decoded.
        row_slots = [comp.slot_for(0, i) for i in range(len(meta.columns))]
        op: Operator = VecAggregate(
            stmt,
            calls,
            cols,
            binding_columns(db.catalog, stmt.source),
            scan_and_filter(),
            key_kernels,
            arg_kernels,
            binding,
            meta.column_names,
            row_slots,
        )
        op.est_rows = branch.est_rows
        if branch.distinct:
            op = DistinctOp(op)
            op.est_rows = branch.est_rows
        return _attach_order_limit(op, sp)

    proj_kernels = []
    for entry in cols:
        if entry[0] == "star":
            for cname in entry[2]:
                k = comp.column_kernel(entry[1], cname)
                if k is None:
                    return None
                proj_kernels.append(k)
        else:
            k = comp.compile(entry[1])
            if k is None:
                return None
            proj_kernels.append(k)

    if sp.order_by:
        if branch.distinct:
            return None  # DISTINCT + ORDER BY: keep the row plan
        spec = _vector_order_spec(sp, comp)
        if spec is None:
            return None
        if (
            sp.limit is not None
            and ENABLE_TOPN
            and not _negative_literal_limit(sp.limit)
        ):
            root: Operator = VecTopN(
                proj_kernels, spec, sp.limit, sp.offset, scan_and_filter()
            )
            root.est_rows = sp.est_rows
            return root
        root = VecSort(proj_kernels, spec, scan_and_filter())
        root.est_rows = sp.est_rows
        if sp.limit is not None or sp.offset is not None:
            root = VecLimit(sp.limit, sp.offset, root)
            root.est_rows = sp.est_rows
        return root

    root = VecProject(proj_kernels, scan_and_filter())
    root.est_rows = branch.est_rows
    if branch.distinct:
        root = VecDistinct(root)
        root.est_rows = branch.est_rows
    if sp.limit is not None or sp.offset is not None:
        root = VecLimit(sp.limit, sp.offset, root)
        root.est_rows = sp.est_rows
    return root
