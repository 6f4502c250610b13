"""Access-path selection for minidb.

The planner is intentionally simple: it recognises *sargable* conjuncts of
the form ``column = <known expr>`` (and range comparisons) and matches them
against available indexes.  Plans are small dataclasses the executor
interprets; ``EXPLAIN <stmt>`` renders them as text.

PerfTrack's hot queries — focus/resource lookups by id or name, pr-filter
family probes — are all equality probes, so index-equality is the path
that matters.  Equi-joins with no usable index get a hash join (build the
probed table's key map once, stream the outer side against it) instead of
O(n·m) nested loops; everything else falls back to a full scan.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Optional

from . import ast_nodes as ast
from .catalog import TableMeta
from .errors import ProgrammingError, SemanticError, closest
from .expressions import collect_aggregates
from .index import Index


#: Minimum row count of the build (probed) table before a hash join pays
#: for building its key map; below this a nested scan is cheaper.
HASH_JOIN_MIN_BUILD_ROWS = 4


def split_conjuncts(expr: Optional[ast.Expr]) -> list[ast.Expr]:
    """Flatten a WHERE tree into AND-ed conjuncts."""
    if expr is None:
        return []
    if isinstance(expr, ast.Binary) and expr.op == "AND":
        return split_conjuncts(expr.left) + split_conjuncts(expr.right)
    return [expr]


def expr_is_known(expr: ast.Expr, known_binding: Callable[[Optional[str], str], bool]) -> bool:
    """True when *expr* can be evaluated without scanning the target table.

    ``known_binding(table, column)`` reports whether a column reference is
    resolvable from an already-bound (outer) row; literals and parameters
    are always known.  Subqueries are conservatively treated as unknown.
    """
    if isinstance(expr, (ast.Literal, ast.Parameter)):
        return True
    if isinstance(expr, ast.ColumnRef):
        return known_binding(expr.table, expr.name)
    if isinstance(expr, ast.Unary):
        return expr_is_known(expr.operand, known_binding)
    if isinstance(expr, ast.Binary):
        return expr_is_known(expr.left, known_binding) and expr_is_known(
            expr.right, known_binding
        )
    if isinstance(expr, ast.Cast):
        return expr_is_known(expr.operand, known_binding)
    if isinstance(expr, ast.FuncCall):
        return all(expr_is_known(a, known_binding) for a in expr.args) and not expr.star
    if isinstance(expr, ast.Case):
        parts = [expr.operand] if expr.operand else []
        for c, r in expr.whens:
            parts.extend([c, r])
        if expr.default:
            parts.append(expr.default)
        return all(expr_is_known(p, known_binding) for p in parts)
    return False


@dataclass
class Sargable:
    """One usable predicate: ``column <op> value_expr``."""

    column: str
    op: str  # '=', '<', '<=', '>', '>='
    value: ast.Expr
    conjunct: ast.Expr  # original node (for residual elimination)


def extract_sargables(
    conjuncts: list[ast.Expr],
    binding: str,
    meta: TableMeta,
    known_binding: Callable[[Optional[str], str], bool],
) -> list[Sargable]:
    """Find predicates on *binding*'s columns comparable against known values."""
    flipped = {"<": ">", "<=": ">=", ">": "<", ">=": "<=", "=": "="}
    out: list[Sargable] = []
    for conj in conjuncts:
        if not isinstance(conj, ast.Binary) or conj.op not in flipped:
            continue
        for left, right, op in (
            (conj.left, conj.right, conj.op),
            (conj.right, conj.left, flipped[conj.op]),
        ):
            if (
                isinstance(left, ast.ColumnRef)
                and (left.table is None or left.table.lower() == binding.lower())
                and meta.has_column(left.name)
                and expr_is_known(right, known_binding)
            ):
                out.append(Sargable(left.name.lower(), op, right, conj))
                break
    return out


@dataclass
class InProbe:
    """Multi-probe of an index: ``column IN (known values...)``."""

    table: str
    binding: str
    index: "Index"
    items: list[ast.Expr]
    consumed: list[ast.Expr] = field(default_factory=list)

    def describe(self) -> str:
        return (
            f"SEARCH {self.table} AS {self.binding} USING INDEX "
            f"{self.index.name} IN-PROBE ({len(self.items)} keys)"
        )


@dataclass
class HashJoin:
    """Equi-join probe with no usable index: hash the table once, stream
    outer rows against it.

    ``build_positions[i]`` is the row position of ``build_cols[i]`` in the
    probed table; ``probe_exprs[i]`` is the matching outer-row expression.
    NULL keys are excluded on both sides (SQL equi-join semantics).
    """

    table: str
    binding: str
    build_cols: list[str]
    build_positions: list[int]
    probe_exprs: list[ast.Expr]
    consumed: list[ast.Expr] = field(default_factory=list)

    def describe(self) -> str:
        return (
            f"HashJoin {self.table} AS {self.binding} "
            f"(key: {', '.join(self.build_cols)})"
        )


@dataclass
class FullScan:
    table: str
    binding: str

    def describe(self) -> str:
        return f"SCAN {self.table} AS {self.binding}"


@dataclass
class IndexEquality:
    table: str
    binding: str
    index: Index
    key_exprs: list[ast.Expr]
    consumed: list[ast.Expr] = field(default_factory=list)

    def describe(self) -> str:
        return (
            f"SEARCH {self.table} AS {self.binding} USING INDEX "
            f"{self.index.name} ({', '.join(self.index.columns)})"
        )


@dataclass
class IndexRange:
    table: str
    binding: str
    index: Index
    prefix_exprs: list[ast.Expr]
    low: Optional[tuple[str, ast.Expr]] = None  # (op, expr)
    high: Optional[tuple[str, ast.Expr]] = None
    consumed: list[ast.Expr] = field(default_factory=list)

    def describe(self) -> str:
        bounds = []
        if self.low:
            bounds.append(f"{self.low[0]} low")
        if self.high:
            bounds.append(f"{self.high[0]} high")
        return (
            f"SEARCH {self.table} AS {self.binding} USING INDEX "
            f"{self.index.name} RANGE ({' AND '.join(bounds) or 'prefix'})"
        )


AccessPath = FullScan | IndexEquality | IndexRange | InProbe | HashJoin


def enforced_conjuncts(path) -> list[ast.Expr]:
    """The conjuncts *path* answers exactly, so no filter re-checks them.

    An equality or IN probe visits exactly the rows whose key equals a
    non-NULL probe value: on minidb's value domain (None, bool, int,
    float, str, bytes) the index map's ``==`` and hashing agree with
    ``sort_key`` equality, and the operators drop NULL probe values.  A
    range path, a hash join and a full scan only pre-filter: the WHERE
    and ON conditions above them keep every conjunct.
    """
    if isinstance(path, (IndexEquality, InProbe)):
        return path.consumed
    return []


def _contains_column_ref(expr: ast.Expr) -> bool:
    """True when *expr* references any column (i.e. varies per outer row)."""
    if isinstance(expr, ast.ColumnRef):
        return True
    if isinstance(expr, ast.Unary):
        return _contains_column_ref(expr.operand)
    if isinstance(expr, ast.Binary):
        return _contains_column_ref(expr.left) or _contains_column_ref(expr.right)
    if isinstance(expr, ast.Cast):
        return _contains_column_ref(expr.operand)
    if isinstance(expr, ast.FuncCall):
        return any(_contains_column_ref(a) for a in expr.args)
    return False


def choose_access_path(
    indexes: list[Index],
    meta: TableMeta,
    binding: str,
    conjuncts: list[ast.Expr],
    known_binding: Callable[[Optional[str], str], bool],
    table_size: Optional[int] = None,
) -> AccessPath:
    """Pick the best access path for one table given AND-ed conjuncts.

    Preference order: longest full-equality index match, then equality
    prefix + range, then — for equi-join conjuncts against outer-row
    values with no usable index and a build side of at least
    ``HASH_JOIN_MIN_BUILD_ROWS`` rows (*table_size*) — a hash join, then
    full scan.  Ties favour unique indexes.
    """
    # ``col IN (known items...)`` against a single-column index: multi-probe.
    # Checked first because pr-filter evaluation (PerfTrack's hot path) is
    # dominated by exactly this shape.
    if indexes:
        for conj in conjuncts:
            if (
                isinstance(conj, ast.InList)
                and not conj.negated
                and isinstance(conj.operand, ast.ColumnRef)
                and (
                    conj.operand.table is None
                    or conj.operand.table.lower() == binding.lower()
                )
                and meta.has_column(conj.operand.name)
                and all(expr_is_known(i, known_binding) for i in conj.items)
            ):
                col = conj.operand.name.lower()
                for idx in indexes:
                    if [c.lower() for c in idx.columns] == [col]:
                        return InProbe(
                            meta.name, binding, idx, list(conj.items), consumed=[conj]
                        )
    sargables = extract_sargables(conjuncts, binding, meta, known_binding)
    if not sargables:
        return FullScan(meta.name, binding)
    eq_by_col: dict[str, Sargable] = {}
    range_by_col: dict[str, list[Sargable]] = {}
    for s in sargables:
        if s.op == "=":
            eq_by_col.setdefault(s.column, s)
        else:
            range_by_col.setdefault(s.column, []).append(s)

    best: AccessPath | None = None
    best_score = (-1, False)  # (matched eq columns, unique)
    for idx in indexes:
        cols = [c.lower() for c in idx.columns]
        matched: list[Sargable] = []
        for c in cols:
            s = eq_by_col.get(c)
            if s is None:
                break
            matched.append(s)
        if len(matched) == len(cols):
            score = (len(matched) + 1, idx.unique)
            if score > best_score:
                best_score = score
                best = IndexEquality(
                    meta.name,
                    binding,
                    idx,
                    [s.value for s in matched],
                    consumed=[s.conjunct for s in matched],
                )
            continue
        if matched:
            score = (len(matched), idx.unique)
            if score > best_score:
                best_score = score
                # Equality on a strict prefix: range-scan the prefix.
                best = IndexRange(
                    meta.name,
                    binding,
                    idx,
                    [s.value for s in matched],
                    consumed=[],  # keep conjuncts as residual filters: prefix
                    # scan returns a superset when the index has more columns
                )
            continue
        # Pure range on leading column.
        ranges = range_by_col.get(cols[0])
        if ranges:
            low = high = None
            for s in ranges:
                if s.op in (">", ">="):
                    low = (s.op, s.value)
                else:
                    high = (s.op, s.value)
            score = (0, idx.unique)
            if best is None:
                best_score = score
                best = IndexRange(meta.name, binding, idx, [], low=low, high=high)
    if best is not None:
        return best
    hash_join = _maybe_hash_join(meta, binding, eq_by_col, table_size)
    if hash_join is not None:
        return hash_join
    return FullScan(meta.name, binding)


def _maybe_hash_join(
    meta: TableMeta,
    binding: str,
    eq_by_col: dict[str, Sargable],
    table_size: Optional[int],
) -> Optional[HashJoin]:
    """Build a hash-join plan from equality conjuncts, if worthwhile.

    At least one equality value must reference an outer-row column —
    constant probes gain nothing from hashing over a single residual
    scan — and the build side must be big enough to amortise the build.
    """
    if not eq_by_col:
        return None
    if table_size is not None and table_size < HASH_JOIN_MIN_BUILD_ROWS:
        return None
    if not any(_contains_column_ref(s.value) for s in eq_by_col.values()):
        return None
    cols = list(eq_by_col)
    return HashJoin(
        meta.name,
        binding,
        build_cols=cols,
        build_positions=[meta.column_index(c) for c in cols],
        probe_exprs=[eq_by_col[c].value for c in cols],
        consumed=[eq_by_col[c].conjunct for c in cols],
    )


# ---------------------------------------------------------------------------
# Output shape helpers — shared by the logical planner, the optimizer's
# physical lowering, and the executor's DML paths.


def render_expr(expr: ast.Expr) -> str:
    """Readable name for an unaliased select expression."""
    if isinstance(expr, ast.Literal):
        return repr(expr.value)
    if isinstance(expr, ast.ColumnRef):
        return f"{expr.table}.{expr.name}" if expr.table else expr.name
    if isinstance(expr, ast.FuncCall):
        inner = "*" if expr.star else ", ".join(render_expr(a) for a in expr.args)
        if expr.distinct:
            inner = f"DISTINCT {inner}"
        return f"{expr.name}({inner})"
    if isinstance(expr, ast.Binary):
        return f"{render_expr(expr.left)} {expr.op} {render_expr(expr.right)}"
    if isinstance(expr, ast.Unary):
        return f"{expr.op} {render_expr(expr.operand)}"
    return type(expr).__name__.lower()


def binding_columns(catalog, source) -> list[tuple[str, list[str]]]:
    """``(binding, column names)`` for every table the source binds."""
    if source is None:
        return []
    if isinstance(source, ast.TableRef):
        meta = catalog.table(source.name)
        return [(source.binding, meta.column_names)]
    if isinstance(source, ast.SubqueryRef):
        return [(source.alias, output_names(catalog, source.select))]
    if isinstance(source, ast.Join):
        return binding_columns(catalog, source.left) + binding_columns(
            catalog, source.right
        )
    raise ProgrammingError(f"unknown source {source!r}")


def star_names(catalog, source, table: Optional[str]) -> list[str]:
    names: list[str] = []
    for binding, columns in binding_columns(catalog, source):
        if table is None or binding.lower() == table.lower():
            names.extend(columns)
    if not names:
        target = table or "*"
        bindings = [b for b, _cols in binding_columns(catalog, source)]
        raise SemanticError(
            f"no columns for {target}",
            code="SQL018",
            suggestion=closest(table, bindings) if table else None,
        )
    return names


def output_names(catalog, stmt: ast.Select) -> list[str]:
    names: list[str] = []
    for item in stmt.items:
        if isinstance(item.expr, ast.Star):
            names.extend(star_names(catalog, stmt.source, item.expr.table))
        elif item.alias:
            names.append(item.alias)
        elif isinstance(item.expr, ast.ColumnRef):
            names.append(item.expr.name)
        else:
            names.append(render_expr(item.expr))
    return names


def aggregate_calls(stmt: ast.Select) -> list[ast.FuncCall]:
    """Aggregate FuncCall nodes of one SELECT, in evaluation order.

    Collected from the select list, HAVING and ORDER BY — identity-keyed
    (``id(node)``) so the same node shares one accumulator everywhere.
    """
    calls: list[ast.FuncCall] = []
    for item in stmt.items:
        if not isinstance(item.expr, ast.Star):
            collect_aggregates(item.expr, calls)
    collect_aggregates(stmt.having, calls)
    for oi in stmt.order_by:
        collect_aggregates(oi.expr, calls)
    return calls


def select_has_aggregates(stmt: ast.Select) -> bool:
    return bool(aggregate_calls(stmt))


def source_bindings(source) -> list[str]:
    if source is None:
        return []
    if isinstance(source, (ast.TableRef, ast.SubqueryRef)):
        return [source.binding]
    if isinstance(source, ast.Join):
        return source_bindings(source.left) + source_bindings(source.right)
    raise ProgrammingError(f"unknown source {source!r}")


# ---------------------------------------------------------------------------
# Logical plan — the relational-algebra shape of one SELECT, annotated with
# estimated cardinalities.  Built here from the analyzed AST; the optimizer
# (:mod:`repro.minidb.optimizer`) rewrites it and lowers it to physical
# operators.  Logical nodes never own execution state and never mutate the
# AST they reference.


@dataclass
class ScanNode:
    """One base-table access (access path chosen later, at lowering)."""

    ref: ast.TableRef
    est_rows: int = 0


@dataclass
class SubqueryNode:
    """A FROM-clause subquery with its own logical select plan."""

    ref: ast.SubqueryRef
    plan: "SelectPlan"
    est_rows: int = 0


@dataclass
class JoinNode:
    kind: str  # 'INNER', 'LEFT', 'CROSS'
    left: Any  # ScanNode | SubqueryNode | JoinNode
    right: Any
    condition: Optional[ast.Expr]
    est_rows: int = 0


@dataclass
class BranchPlan:
    """One SELECT core: source tree + filter + aggregate/project + distinct."""

    select: ast.Select
    source: Any  # ScanNode | SubqueryNode | JoinNode | None
    where: Optional[ast.Expr]
    aggregate: bool
    distinct: bool
    #: GROUP BY terms with output-column references resolved (see
    #: :func:`group_terms`)
    group_by: list = field(default_factory=list)
    est_rows: int = 0


@dataclass
class SelectPlan:
    """Logical plan for one (possibly compound) SELECT statement."""

    select: ast.Select
    branches: list[BranchPlan]
    #: branch index up to which UNION dedup applies (-1: pure UNION ALL)
    dedup_until: int
    order_by: list[ast.OrderItem]
    limit: Optional[ast.Expr]
    offset: Optional[ast.Expr]
    names: list[str]
    est_rows: int = 0


def _estimate_source(db, node) -> int:
    if node is None:
        return 1
    if isinstance(node, ScanNode):
        return node.est_rows
    if isinstance(node, SubqueryNode):
        return node.est_rows
    if isinstance(node, JoinNode):
        return node.est_rows
    raise ProgrammingError(f"unknown logical node {node!r}")


def _build_source(db, source) -> Any:
    if source is None:
        return None
    if isinstance(source, ast.TableRef):
        return ScanNode(source, est_rows=len(db.table(source.name).rows))
    if isinstance(source, ast.SubqueryRef):
        plan = build_logical_plan(db, source.select)
        return SubqueryNode(source, plan, est_rows=plan.est_rows)
    if isinstance(source, ast.Join):
        left = _build_source(db, source.left)
        right = _build_source(db, source.right)
        l_est = _estimate_source(db, left)
        r_est = _estimate_source(db, right)
        if source.kind == "CROSS" or source.condition is None:
            est = l_est * r_est
        else:
            # Equi-join heuristic: roughly one match per outer row.
            est = max(l_est, r_est)
        if source.kind == "LEFT":
            est = max(est, l_est)
        return JoinNode(source.kind, left, right, source.condition, est_rows=est)
    raise ProgrammingError(f"cannot plan source {source!r}")


_ORDINALS = {1: "st", 2: "nd", 3: "rd"}


def group_terms(catalog, select: ast.Select) -> list[ast.Expr]:
    """GROUP BY terms with output-column references resolved, as sqlite3
    resolves them.

    An integer literal *k* names the *k*-th output column; a bare
    identifier that names no input column but an output alias names that
    aliased expression (an input column of the same name wins).  A term
    out of range, or naming an aggregate, raises ``SemanticError``.
    """
    if not select.group_by:
        return []
    outputs: list[ast.Expr] = []
    aliases: dict[str, ast.Expr] = {}
    for item in select.items:
        if isinstance(item.expr, ast.Star):
            for binding, columns in binding_columns(catalog, select.source):
                if item.expr.table is None or binding.lower() == item.expr.table.lower():
                    outputs.extend(ast.ColumnRef(binding, c) for c in columns)
            continue
        outputs.append(item.expr)
        if item.alias:
            aliases.setdefault(item.alias.lower(), item.expr)
    inputs = {
        c.lower() for _b, cols in binding_columns(catalog, select.source) for c in cols
    }
    terms = []
    for n, term in enumerate(select.group_by, start=1):
        target = None
        if (
            isinstance(term, ast.Literal)
            and isinstance(term.value, int)
            and not isinstance(term.value, bool)
        ):
            if not 1 <= term.value <= len(outputs):
                nth = f"{n}{_ORDINALS.get(n if n < 20 else n % 10, 'th')}"
                raise SemanticError(
                    f"{nth} GROUP BY term out of range - should be between 1 "
                    f"and {len(outputs)}",
                    code="SQL019",
                )
            target = outputs[term.value - 1]
        elif (
            isinstance(term, ast.ColumnRef)
            and term.table is None
            and term.name.lower() not in inputs
        ):
            target = aliases.get(term.name.lower())
        if target is None:
            terms.append(term)
            continue
        found: list = []
        collect_aggregates(target, found)
        if found:
            raise SemanticError(
                "aggregate functions are not allowed in the GROUP BY clause",
                code="SQL007",
            )
        terms.append(target)
    return terms


def _build_branch(db, select: ast.Select) -> BranchPlan:
    source = _build_source(db, select.source)
    est = _estimate_source(db, source)
    if select.where is not None:
        est = max(1, est // 3)
    aggregate = bool(select.group_by) or select_has_aggregates(select)
    if aggregate:
        est = max(1, est // 10) if select.group_by else 1
    return BranchPlan(
        select=select,
        source=source,
        where=select.where,
        aggregate=aggregate,
        distinct=select.distinct,
        group_by=group_terms(db.catalog, select),
        est_rows=est,
    )


def build_logical_plan(db, stmt: ast.Select) -> SelectPlan:
    """Shape one SELECT (and its UNION chain) into a logical plan tree."""
    branches = [_build_branch(db, stmt)]
    dedup_until = -1
    for i, (op, sub) in enumerate(stmt.compounds):
        branches.append(_build_branch(db, sub))
        if op == "UNION":
            # Cumulative dedup: a UNION at position i dedups every branch
            # up to and including i+1.
            dedup_until = i + 1
    names = output_names(db.catalog, stmt)
    for branch in branches[1:]:
        if len(output_names(db.catalog, branch.select)) != len(names):
            raise ProgrammingError(
                "UNION selects must have the same number of columns"
            )
    est = sum(b.est_rows for b in branches)
    if stmt.limit is not None and isinstance(stmt.limit, ast.Literal) and isinstance(
        stmt.limit.value, int
    ):
        est = min(est, max(0, stmt.limit.value))
    return SelectPlan(
        select=stmt,
        branches=branches,
        dedup_until=dedup_until,
        order_by=stmt.order_by,
        limit=stmt.limit,
        offset=stmt.offset,
        names=names,
        est_rows=est,
    )
