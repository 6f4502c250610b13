"""Rule-based optimizer for minidb.

Sits between the logical plan (:mod:`repro.minidb.planner`) and the
physical operators (:mod:`repro.minidb.operators`):

1. **Constant folding** — literal-only subtrees of WHERE and join
   conditions are evaluated once at plan time (with the same evaluator the
   engine uses at runtime, so NULL/division/type semantics are identical).
   Only new nodes are built; the analyzed AST is never mutated.
2. **Predicate pushdown** — AND-ed conjuncts are threaded down the join
   tree to each scan so :func:`~repro.minidb.planner.choose_access_path`
   can turn them into index probes or hash-join keys.  An equality or IN
   probe enforces the conjuncts it consumes
   (:func:`~repro.minidb.planner.enforced_conjuncts`), so only the rest of
   the WHERE and ON conditions compiles into the filter and the join
   above it — none at all when nothing is left.  Range, hash-join and
   full-scan paths may return supersets: their conjuncts stay in the
   filter.
3. **Join-input reordering** — an INNER join of two base tables swaps its
   inputs when both orientations admit a hash join and the swap makes the
   *smaller* table the build side (bounding hash-map memory).
4. **TopN fusion** — ``ORDER BY ... LIMIT k`` becomes a bounded-heap TopN
   operator instead of a full sort followed by a limit.

Each rule has a module-level toggle so tests can verify that disabling any
rule never changes result multisets.

Lowering (:func:`lower_plan`) emits one operator family: every statement
shape runs on the batch pipeline, with each expression compiled to a
:mod:`repro.minidb.vector` kernel.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from typing import Optional

from . import ast_nodes as ast
from .errors import ProgrammingError
from .expressions import Evaluator, Scope
from .operators import (
    ConstantRow,
    Operator,
    SubqueryScan,
    VecAggregate,
    VecDistinct,
    VecFilter,
    VecIndexJoin,
    VecLimit,
    VecProject,
    VecScan,
    VecSort,
    VecTopN,
    VecUnion,
    probe_exprs,
)
from .planner import (
    BranchPlan,
    HashJoin as HashJoinPath,
    JoinNode,
    ScanNode,
    SelectPlan,
    SubqueryNode,
    aggregate_calls,
    binding_columns,
    build_logical_plan,
    choose_access_path,
    enforced_conjuncts,
    split_conjuncts,
    star_names,
)
from .vector import Columns, KernelCompiler
from . import verifier
from .verifier import _negative_literal_limit

# Rule toggles — flipped by tests to prove rules are behavior-preserving.
ENABLE_CONSTANT_FOLDING = True
ENABLE_PUSHDOWN = True
ENABLE_JOIN_REORDER = True
ENABLE_TOPN = True


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
    root = lower_plan(db, logical)
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
        verifier.check_rule("lowering", base, physical)
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


def _known_binding_fn(bound: set, meta, binding: str, later: frozenset = frozenset()):
    """Whether a column reference is known before *binding*'s table is
    probed: a qualified one names a table bound to its left; an
    unqualified one names no column of the probed table or of the tables
    joined after it (*later*, lowered names), which the analyzer would
    bind it to first."""
    bound_lower = {b.lower() for b in bound}

    def known(table: Optional[str], column: str) -> bool:
        if table is not None:
            return table.lower() != binding.lower() and table.lower() in bound_lower
        return not meta.has_column(column) and column.lower() not in later

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
# Lowering: logical nodes -> batch operators.


def _scan_path(db, node: ScanNode, push: list, bound: list[str], later: frozenset):
    """The access path of one base-table scan, given the conjuncts pushed
    to it, the bindings already bound to its left and the column names
    of the tables joined after it."""
    ref = node.ref
    table = db.table(ref.name)
    meta = table.meta
    return choose_access_path(
        db.indexes_on(meta.name),
        meta,
        ref.binding,
        push if ENABLE_PUSHDOWN else [],
        known_binding=_known_binding_fn(set(bound), meta, ref.binding, later),
        table_size=len(table.rows),
    )


def _residual(expr: Optional[ast.Expr], enforced: list) -> Optional[ast.Expr]:
    """The part of a WHERE or ON condition that no access path enforces:
    its conjuncts minus *enforced* (matched by identity) and constant-TRUE
    ones, re-joined with AND.  *expr* itself when nothing drops out, None
    when nothing is left to check."""
    if expr is None or _is_const_true(expr):
        return None
    conjuncts = split_conjuncts(expr)
    done = {id(c) for c in enforced}
    rest = [c for c in conjuncts if id(c) not in done and not _is_const_true(c)]
    if len(rest) == len(conjuncts):
        return expr
    if not rest:
        return None
    return reduce(lambda a, b: ast.Binary("AND", a, b), rest)


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


def _order_spec(sp: SelectPlan) -> tuple[list, list]:
    """ORDER BY as ``(row position, descending)`` pairs plus the hidden
    expressions the projection must append for them.

    An integer literal names an output position and an unqualified name
    an output column; any other term is computed from the source row as
    a hidden column after the visible ones — which a compound SELECT has
    no single source row for.
    """
    names = [n.lower() for n in sp.names]
    spec: list = []
    hidden: list = []
    for oi in sp.order_by:
        e = oi.expr
        if isinstance(e, ast.Literal) and isinstance(e.value, int) and not isinstance(
            e.value, bool
        ):
            if not 1 <= e.value <= len(names):
                raise ProgrammingError(f"ORDER BY position {e.value} out of range")
            pos = e.value - 1
        elif isinstance(e, ast.ColumnRef) and e.table is None and e.name.lower() in names:
            pos = names.index(e.name.lower())
        elif len(sp.branches) > 1:
            raise ProgrammingError(
                "ORDER BY in compound SELECT must use output column names or positions"
            )
        else:
            pos = len(names) + len(hidden)
            hidden.append(e)
        spec.append((pos, oi.descending))
    return spec, hidden


def lower_plan(db, sp: SelectPlan) -> Operator:
    """The batch operator tree of one logical plan: its branches, the
    union of compound branches, then the ORDER BY / LIMIT tail.

    A LIMIT known negative at plan time never fuses into TopN: the heap
    would degrade to an unbounded sort at run time (and the verifier
    flags such plans as PLN005), so Sort+Limit — where a negative limit
    already means "no limit" — is the honest lowering.
    """
    spec, hidden = _order_spec(sp)
    width = len(sp.names) if hidden else None
    roots = [_lower_branch(db, b, hidden, width) for b in sp.branches]
    root = roots[0]
    if len(roots) > 1:
        root = VecUnion(roots, sp.dedup_until)
        root.est_rows = sp.est_rows
    if sp.order_by:
        if sp.limit is not None and ENABLE_TOPN and not _negative_literal_limit(sp.limit):
            root = VecTopN(spec, width, sp.limit, sp.offset, root)
            root.est_rows = sp.est_rows
            return root
        root = VecSort(spec, width, root)
        root.est_rows = sp.est_rows
    if sp.limit is not None or sp.offset is not None:
        root = VecLimit(sp.limit, sp.offset, root)
        root.est_rows = sp.est_rows
    return root


def _source_chain(node) -> list:
    """A left-deep source tree as ``[(leaf node, join node)]`` in join
    order (the leading leaf's join node is None); [] without FROM."""
    chain = []
    while isinstance(node, JoinNode):
        chain.append((node.right, node))
        node = node.left
    if node is not None:
        chain.append((node, None))
    chain.reverse()
    return chain


def _lower_branch(db, branch: BranchPlan, hidden: list, width: Optional[int]) -> Operator:
    """One SELECT core as a batch tree.

    A join chain compiles twice: the first pass finds the columns every
    expression reads, the second compiles against slots laid out table by
    table (the leaf decodes the first block, each join appends its own).
    """
    chain = _source_chain(branch.source)
    comp = KernelCompiler(
        [
            (db.table(n.ref.name).meta, n.ref.binding)
            if isinstance(n, ScanNode)
            else (Columns(n.ref.alias, n.plan.names), n.ref.alias)
            for n, _join in chain
        ]
    )
    root = _branch_tree(db, branch, chain, comp, hidden, width)
    if len(chain) < 2:
        return root
    return _branch_tree(db, branch, chain, comp.laid_out(), hidden, width)


def _branch_tree(
    db, branch: BranchPlan, chain: list, comp: KernelCompiler, hidden: list,
    width: Optional[int],
) -> Operator:
    stmt = branch.select
    push = split_conjuncts(branch.where)
    # Access paths, chosen left to right: a join's inner side sees its ON
    # conjuncts (plus the WHERE's on an INNER join) and the bindings to
    # its left.  An equality or IN probe enforces what it consumes; the
    # ON and WHERE kernels check only the remainder.
    later = _later_columns(db, chain)
    paths: list = []
    bound: list[str] = []
    for i, (node, join) in enumerate(chain):
        node_push = push
        if join is not None:
            node_push = split_conjuncts(join.condition)
            if join.kind == "INNER":
                node_push = node_push + push
        paths.append(
            _scan_path(db, node, node_push, bound, later[i])
            if isinstance(node, ScanNode)
            else None
        )
        bound.append(node.ref.binding if isinstance(node, ScanNode) else node.ref.alias)
    enforced = [enforced_conjuncts(p) for p in paths]
    # Join i's key kernels see its outer side (tables < i); its ON
    # condition also sees the inner table.
    joins = []
    for i, (_node, join) in enumerate(chain[1:], start=1):
        keys = [comp.scoped(i).compile(e) for e in probe_exprs(paths[i])]
        on = _residual(join.condition, enforced[i])
        joins.append((keys, on, comp.scoped(i + 1).compile(on) if on is not None else None))
    where = _residual(branch.where, [c for e in enforced for c in e])
    filt = (where, comp.compile(where)) if where is not None else None
    cols = _projection_cols(db.catalog, stmt)

    if branch.aggregate:
        calls = aggregate_calls(stmt)
        for c in calls:
            if not c.star and len(c.args) != 1:
                raise ProgrammingError(f"aggregate {c.name}() takes exactly one argument")
        key_kernels = [comp.compile(e) for e in branch.group_by]
        arg_kernels = {id(c): comp.compile(c.args[0]) for c in calls if not c.star}
        # HAVING, the select list and hidden ORDER BY terms evaluate per
        # group against a representative row with every column decoded.
        blocks = comp.row_blocks()
        op: Operator = VecAggregate(
            stmt, branch.group_by, calls, cols, hidden,
            _source_tree(db, branch, chain, paths, joins, filt, comp),
            key_kernels, arg_kernels, blocks,
        )
    else:
        kernels = []
        for entry in cols:
            if entry[0] == "star":
                kernels.extend(comp.star_kernels(entry[1]))
            else:
                kernels.append(comp.compile(entry[1]))
        kernels.extend(comp.compile(e) for e in hidden)
        op = VecProject(kernels, _source_tree(db, branch, chain, paths, joins, filt, comp))
    op.est_rows = branch.est_rows
    if branch.distinct:
        # Deduplicate on the visible columns: hidden ORDER BY values ride
        # along with the first-seen row.
        op = VecDistinct(width, op)
        op.est_rows = branch.est_rows
    return op


def _later_columns(db, chain: list) -> list[frozenset]:
    """For each leaf of *chain*, the lowered column names of the leaves
    joined after it."""
    out: list[frozenset] = []
    names: frozenset = frozenset()
    for node, _join in reversed(chain):
        out.append(names)
        columns = (
            db.table(node.ref.name).meta.column_names
            if isinstance(node, ScanNode)
            else node.plan.names
        )
        names = names | {c.lower() for c in columns}
    out.reverse()
    return out


def _source_tree(db, branch, chain, paths, joins, filt, comp) -> Operator:
    """Leaf, joins and WHERE filter (*filt*: the part of the WHERE no
    access path enforces and its kernel, None when nothing is left).
    Built after every kernel compiled, so the slot blocks handed to the
    leaves are final."""
    leaves = [_leaf(db, node, paths[i], comp.block(i)) for i, (node, _j) in enumerate(chain)]
    child = leaves[0] if leaves else ConstantRow()
    for i, (keys, on, on_kernel) in enumerate(joins, start=1):
        join = chain[i][1]
        child = VecIndexJoin(leaves[i], keys, join.kind, on, on_kernel, child)
        child.est_rows = join.est_rows
    if filt is not None:
        child = VecFilter(*filt, child)
        child.est_rows = branch.est_rows if not branch.aggregate else None
    return child


def _leaf(db, node, path, slots) -> Operator:
    if isinstance(node, ScanNode):
        op: Operator = VecScan(path, slots)
    else:
        op = SubqueryScan(lower_plan(db, node.plan), node.ref.alias, node.plan.names, slots)
    op.est_rows = node.est_rows
    return op


def lower_dml_scan(db, table_name: str, where: Optional[ast.Expr]) -> Operator:
    """The scan(+filter) tree driving one UPDATE/DELETE: its batches
    carry the row ids of the target rows."""
    meta = db.table(table_name).meta
    path = choose_access_path(
        db.indexes_on(meta.name),
        meta,
        meta.name,
        split_conjuncts(where),
        known_binding=lambda t, c: False,
    )
    comp = KernelCompiler([(meta, meta.name)])
    kernel = comp.compile(where) if where is not None else None
    root: Operator = VecScan(path, comp.block(0))
    if kernel is not None:
        root = VecFilter(where, kernel, root)
    return root
