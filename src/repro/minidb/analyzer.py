"""Static semantic analysis for minidb SQL statements.

The analyzer runs between parse and plan: it resolves every name against
the catalog (tables, columns, aliases — with did-you-mean suggestions),
type-checks expressions against column affinities, and verifies
placeholder arity and INSERT column/value counts.  A statement that would
fail mid-execution with a KeyError now fails *before* execution with a
structured :class:`~repro.minidb.errors.SemanticError` carrying a rule
code, and ``EXPLAIN [ANALYZE] CHECK <stmt>`` / ``Connection.check(sql)``
expose the full diagnostic list without executing anything.

Rule catalogue (``error`` unless noted):

========  ==================================================================
SQL000    syntax error (surfaced through ``check()`` only)
SQL001    unknown table (warning when a FOREIGN KEY references one)
SQL002    unknown column
SQL003    unknown table qualifier (alias not bound in any enclosing scope)
SQL004    ambiguous unqualified column (warning: the engine resolves it)
SQL005    unknown function
SQL006    wrong number of function arguments
SQL007    aggregate misuse (aggregate in WHERE/SET/ON, or nested aggregate)
SQL008    INSERT column/value count mismatch
SQL009    literal value cannot be stored in the target column's affinity
SQL010    too few parameters supplied (execute-time; ``info`` in check())
SQL011    duplicate table name/alias in one FROM clause
SQL012    UNION arms select a different number of columns
SQL013    cross-affinity comparison or arithmetic on TEXT/BLOB (warning)
SQL014    duplicate column (CREATE TABLE, INSERT list, UPDATE SET)
SQL015    schema conflict (object exists / does not exist)
SQL016    DEFAULT is not a literal
SQL017    IN/scalar subquery must select exactly one column
SQL018    '*' has no source columns / unknown ``t.*`` qualifier
SQL019    bad ORDER BY / GROUP BY (position out of range, or expression in compound)
SQL020    NOT NULL column without default omitted from INSERT (warning)
========  ==================================================================

Semantics were chosen to be *no stricter than the engine on statements
that can execute*: anything the executor would accept on some database
state is accepted (or warned about), anything it rejects on every row it
touches is an error here.  The differential guard in
``tests/minidb/test_analyzer.py`` holds the analyzer to that contract.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterator, List, Optional, Sequence, Tuple

from . import ast_nodes as ast
from .catalog import Catalog
from .errors import DataError, SemanticError, closest
from .expressions import SCALAR_FUNCTIONS
from .parser import AGGREGATE_NAMES
from .sqltypes import BLOB, BOOLEAN, INTEGER, REAL, TEXT, affinity_for, coerce

__all__ = ["Analyzer", "Analysis", "Diagnostic", "analyze"]


@dataclass(frozen=True)
class Diagnostic:
    """One finding of the semantic analyzer."""

    severity: str  # "error" | "warning" | "info"
    code: str
    message: str
    suggestion: Optional[str] = None

    def __str__(self) -> str:
        text = f"{self.severity} {self.code}: {self.message}"
        if self.suggestion:
            text += f"; did you mean {self.suggestion!r}?"
        return text


@dataclass
class Analysis:
    """Outcome of analyzing one statement."""

    diagnostics: List[Diagnostic]
    required_params: int

    @property
    def errors(self) -> List[Diagnostic]:
        return [d for d in self.diagnostics if d.severity == "error"]

    @property
    def ok(self) -> bool:
        return not self.errors

    def raise_first_error(self) -> None:
        for d in self.diagnostics:
            if d.severity == "error":
                raise SemanticError(d.message, code=d.code, suggestion=d.suggestion)


# Min/max argument counts of the built-in scalar functions (None = unbounded).
_SCALAR_ARITY: dict[str, Tuple[int, Optional[int]]] = {
    "LOWER": (1, 1), "UPPER": (1, 1), "LENGTH": (1, 1), "ABS": (1, 1),
    "ROUND": (1, 2), "COALESCE": (1, None), "IFNULL": (2, 2), "NULLIF": (2, 2),
    "SUBSTR": (2, 3), "SUBSTRING": (2, 3), "INSTR": (2, 2),
    "TRIM": (1, 1), "LTRIM": (1, 1), "RTRIM": (1, 1), "REPLACE": (3, 3),
    "TYPEOF": (1, 1), "MIN2": (2, 2), "MAX2": (2, 2),
    "CAST_INT": (1, 1), "CAST_REAL": (1, 1), "CAST_TEXT": (1, 1),
}

_FUNC_AFFINITY: dict[str, str] = {
    "LOWER": TEXT, "UPPER": TEXT, "SUBSTR": TEXT, "SUBSTRING": TEXT,
    "TRIM": TEXT, "LTRIM": TEXT, "RTRIM": TEXT, "REPLACE": TEXT,
    "CAST_TEXT": TEXT, "TYPEOF": TEXT, "GROUP_CONCAT": TEXT,
    "LENGTH": INTEGER, "INSTR": INTEGER, "COUNT": INTEGER, "CAST_INT": INTEGER,
    "CAST_REAL": REAL, "AVG": REAL, "TOTAL": REAL,
}

_ARITH_OPS = ("+", "-", "*", "/", "%")
_COMPARE_OPS = ("=", "<>", "<", "<=", ">", ">=")


def _type_class(affinity: Optional[str]) -> Optional[str]:
    """Cross-type comparison class per sqltypes.sort_key rank."""
    if affinity in (INTEGER, REAL, BOOLEAN):
        return "numeric"
    if affinity == TEXT:
        return "text"
    if affinity == BLOB:
        return "blob"
    return None  # NUMERIC / unknown: could hold anything


class _Binding:
    """One FROM-clause binding.  ``columns is None`` means "unknown shape"
    (the table itself was unresolved): accept any column to avoid cascades."""

    __slots__ = ("name", "columns", "affinities", "_lower")

    def __init__(
        self,
        name: str,
        columns: Optional[Sequence[str]],
        affinities: Optional[Sequence[Optional[str]]] = None,
    ) -> None:
        self.name = name
        self.columns = list(columns) if columns is not None else None
        self.affinities = (
            list(affinities)
            if affinities is not None
            else ([None] * len(self.columns) if self.columns is not None else None)
        )
        self._lower = (
            [c.lower() for c in self.columns] if self.columns is not None else None
        )

    def column_affinity(self, column: str) -> Optional[str]:
        if self._lower is None:
            return None
        try:
            return self.affinities[self._lower.index(column.lower())]
        except ValueError:
            return None

    def has_column(self, column: str) -> bool:
        return self._lower is not None and column.lower() in self._lower


class _Env:
    """Chained static scope: one level per SELECT, like the evaluator's
    Scope chains one level per enclosing (correlated) query."""

    __slots__ = ("bindings", "parent")

    def __init__(self, parent: Optional["_Env"] = None) -> None:
        self.bindings: List[_Binding] = []
        self.parent = parent

    def find_binding(self, name: str) -> Optional[_Binding]:
        low = name.lower()
        env: Optional[_Env] = self
        while env is not None:
            for b in env.bindings:
                if b.name.lower() == low:
                    return b
            env = env.parent
        return None

    def levels(self) -> Iterator["_Env"]:
        env: Optional[_Env] = self
        while env is not None:
            yield env
            env = env.parent

    def all_binding_names(self) -> List[str]:
        return [b.name for env in self.levels() for b in env.bindings]

    def all_column_names(self) -> List[str]:
        out: List[str] = []
        for env in self.levels():
            for b in env.bindings:
                if b.columns is not None:
                    out.extend(b.columns)
        return out


class Analyzer:
    """Analyzes one parsed statement against a catalog snapshot."""

    def __init__(self, catalog: Catalog) -> None:
        self.catalog = catalog
        self.diags: List[Diagnostic] = []
        self.max_param = -1

    # -- public ------------------------------------------------------------

    def analyze(self, stmt: Any) -> Analysis:
        self.diags = []
        self.max_param = -1
        self._stmt(stmt, _Env())
        return Analysis(self.diags, self.max_param + 1)

    # -- reporting ---------------------------------------------------------

    def _error(self, code: str, message: str, suggestion: Optional[str] = None) -> None:
        self.diags.append(Diagnostic("error", code, message, suggestion))

    def _warn(self, code: str, message: str, suggestion: Optional[str] = None) -> None:
        self.diags.append(Diagnostic("warning", code, message, suggestion))

    # -- statement dispatch --------------------------------------------------

    def _stmt(self, stmt: Any, env: _Env) -> None:
        handler = getattr(self, f"_an_{type(stmt).__name__}", None)
        if handler is not None:
            handler(stmt, env)
        # Begin/Commit/Rollback and unknown nodes: nothing to check.

    def _an_Explain(self, stmt: ast.Explain, env: _Env) -> None:
        self._stmt(stmt.statement, env)

    def _an_ExplainAnalyze(self, stmt: ast.ExplainAnalyze, env: _Env) -> None:
        # EXPLAIN ANALYZE executes its statement, so the inner statement
        # gets the full strict pass (unlike CHECK below).
        self._stmt(stmt.statement, env)

    def _an_Check(self, stmt: ast.Check, env: _Env) -> None:
        # CHECK never executes its statement; it cannot fail at run time,
        # so the strict pre-execution pass has nothing to reject.
        pass

    # -- SELECT ---------------------------------------------------------------

    def _an_Select(self, stmt: ast.Select, env: _Env) -> None:
        self._select(stmt, env if (env.bindings or env.parent) else None)

    def _select(
        self, stmt: ast.Select, outer: Optional[_Env]
    ) -> Tuple[List[str], List[Optional[str]], bool]:
        """Analyze one SELECT (with compounds/order/limit).

        Returns ``(output names, output affinities, width_known)``.
        """
        env = _Env(parent=outer)
        self._bind_source(stmt.source, env)

        seen_bindings: set[str] = set()
        for b in env.bindings:
            low = b.name.lower()
            if low in seen_bindings:
                self._error(
                    "SQL011", f"duplicate table name or alias in FROM: {b.name}"
                )
            seen_bindings.add(low)

        self._expr(stmt.where, env, agg=False)
        for e in stmt.group_by:
            if not self._names_output_alias(e, stmt, env):
                self._expr(e, env, agg=False)
        self._expr(stmt.having, env, agg=True)

        names: List[str] = []
        affinities: List[Optional[str]] = []
        width_known = True
        for item in stmt.items:
            if isinstance(item.expr, ast.Star):
                target = item.expr.table
                matched = [
                    b
                    for b in env.bindings
                    if target is None or b.name.lower() == target.lower()
                ]
                if not matched:
                    self._error(
                        "SQL018",
                        f"no columns for {target or '*'}",
                        closest(target, [b.name for b in env.bindings])
                        if target
                        else None,
                    )
                    width_known = False
                for b in matched:
                    if b.columns is None:
                        width_known = False
                    else:
                        names.extend(b.columns)
                        affinities.extend(b.affinities or [None] * len(b.columns))
                continue
            self._expr(item.expr, env, agg=True)
            if item.alias:
                names.append(item.alias)
            elif isinstance(item.expr, ast.ColumnRef):
                names.append(item.expr.name)
            else:
                names.append("")
            affinities.append(self._affinity(item.expr, env))

        for _op, sub in stmt.compounds:
            sub_names, _sub_aff, sub_ok = self._select(sub, outer)
            if width_known and sub_ok and len(sub_names) != len(names):
                self._error(
                    "SQL012", "UNION selects must have the same number of columns"
                )

        self._order_by(stmt, env, names, width_known)

        # LIMIT/OFFSET are evaluated against the *enclosing* scope only.
        limit_env = outer if outer is not None else _Env()
        self._expr(stmt.limit, limit_env, agg=False)
        self._expr(stmt.offset, limit_env, agg=False)
        return names, affinities, width_known

    @staticmethod
    def _names_output_alias(e: ast.Expr, stmt: ast.Select, env: _Env) -> bool:
        """A bare GROUP BY name that no input column has but an output
        alias does: the planner groups by the aliased expression."""
        if not isinstance(e, ast.ColumnRef) or e.table is not None:
            return False
        low = e.name.lower()
        if any(
            b.columns is None or low in (c.lower() for c in b.columns)
            for b in env.bindings
        ):
            return False
        return any(item.alias and item.alias.lower() == low for item in stmt.items)

    def _order_by(
        self, stmt: ast.Select, env: _Env, names: List[str], width_known: bool
    ) -> None:
        lowered = [n.lower() for n in names if n]
        compound = bool(stmt.compounds)
        for oi in stmt.order_by:
            e = oi.expr
            if (
                isinstance(e, ast.Literal)
                and isinstance(e.value, int)
                and not isinstance(e.value, bool)
            ):
                if width_known and not (1 <= e.value <= len(names)):
                    self._error(
                        "SQL019", f"ORDER BY position {e.value} out of range"
                    )
                continue
            if (
                isinstance(e, ast.ColumnRef)
                and e.table is None
                and e.name.lower() in lowered
            ):
                continue  # resolves against the output row
            if compound:
                self._error(
                    "SQL019",
                    "ORDER BY in compound SELECT must use output column names"
                    " or positions",
                )
                continue
            self._expr(e, env, agg=True)

    def _bind_source(self, node: Any, env: _Env) -> None:
        if node is None:
            return
        if isinstance(node, ast.TableRef):
            meta = self.catalog.tables.get(node.name.lower())
            if meta is None:
                self._error(
                    "SQL001",
                    f"no such table: {node.name}",
                    closest(node.name, [t.name for t in self.catalog.tables.values()]),
                )
                env.bindings.append(_Binding(node.binding, None))
            else:
                env.bindings.append(
                    _Binding(
                        node.binding,
                        [c.name for c in meta.columns],
                        [c.affinity for c in meta.columns],
                    )
                )
            return
        if isinstance(node, ast.SubqueryRef):
            # FROM-subqueries run uncorrelated: analyze with an empty scope.
            names, affs, ok = self._select(node.select, None)
            env.bindings.append(
                _Binding(node.alias, names if ok else None, affs if ok else None)
            )
            return
        if isinstance(node, ast.Join):
            self._bind_source(node.left, env)
            self._bind_source(node.right, env)
            # ON sees the bindings gathered so far (joins are left-deep).
            self._expr(node.condition, env, agg=False)
            return

    # -- DML --------------------------------------------------------------------

    def _an_Insert(self, stmt: ast.Insert, env: _Env) -> None:
        meta = self.catalog.tables.get(stmt.table.lower())
        if meta is None:
            self._error(
                "SQL001",
                f"no such table: {stmt.table}",
                closest(stmt.table, [t.name for t in self.catalog.tables.values()]),
            )
        width: Optional[int] = None
        positions: Optional[List[int]] = None
        if meta is not None:
            if stmt.columns:
                width = len(stmt.columns)
                positions = []
                seen: set[str] = set()
                for c in stmt.columns:
                    if not meta.has_column(c):
                        self._error(
                            "SQL002",
                            f"no such column: {meta.name}.{c}",
                            closest(c, meta.column_names),
                        )
                        positions = None
                    elif positions is not None:
                        positions.append(meta.column_index(c))
                    if c.lower() in seen:
                        self._warn(
                            "SQL014",
                            f"column {c} specified more than once in INSERT",
                        )
                        # Later duplicates are ignored by the engine; the
                        # value-to-column mapping is off, so skip SQL009.
                        positions = None
                    seen.add(c.lower())
                self._check_missing_not_null(meta, seen)
            else:
                width = len(meta.columns)
                positions = list(range(width))
        elif stmt.columns:
            width = len(stmt.columns)

        value_env = _Env()  # VALUES expressions see no columns
        for row in stmt.rows:
            for e in row:
                self._expr(e, value_env, agg=False)
            if width is not None and len(row) != width:
                self._error(
                    "SQL008",
                    f"table {stmt.table} expects {width} values, got {len(row)}",
                )
            elif meta is not None and positions is not None:
                for e, pos in zip(row, positions):
                    if isinstance(e, ast.Literal):
                        col = meta.columns[pos]
                        try:
                            coerce(e.value, col.affinity)
                        except DataError:
                            self._error(
                                "SQL009",
                                f"cannot store {e.value!r} in {col.affinity} "
                                f"column {meta.name}.{col.name}",
                            )
        if stmt.select is not None:
            sel_names, _affs, sel_ok = self._select(stmt.select, None)
            if width is not None and sel_ok and len(sel_names) != width:
                self._error(
                    "SQL008",
                    f"table {stmt.table} expects {width} values, "
                    f"got {len(sel_names)}",
                )

    def _check_missing_not_null(self, meta: Any, provided: set[str]) -> None:
        rowid_pk = meta.rowid_pk_column
        for i, col in enumerate(meta.columns):
            if (
                col.not_null
                and not col.has_default
                and i != rowid_pk
                and col.name.lower() not in provided
            ):
                self._warn(
                    "SQL020",
                    f"NOT NULL column {meta.name}.{col.name} has no default and"
                    " is not assigned by this INSERT",
                )

    def _an_Update(self, stmt: ast.Update, env: _Env) -> None:
        meta = self.catalog.tables.get(stmt.table.lower())
        table_env = _Env()
        if meta is None:
            self._error(
                "SQL001",
                f"no such table: {stmt.table}",
                closest(stmt.table, [t.name for t in self.catalog.tables.values()]),
            )
            table_env.bindings.append(_Binding(stmt.table, None))
        else:
            table_env.bindings.append(
                _Binding(
                    meta.name,
                    [c.name for c in meta.columns],
                    [c.affinity for c in meta.columns],
                )
            )
        seen: set[str] = set()
        for col, e in stmt.assignments:
            if meta is not None and not meta.has_column(col):
                self._error(
                    "SQL002",
                    f"no such column: {stmt.table}.{col}",
                    closest(col, meta.column_names),
                )
            if col.lower() in seen:
                self._warn("SQL014", f"column {col} assigned more than once in UPDATE")
            seen.add(col.lower())
            self._expr(e, table_env, agg=False)
            if meta is not None and meta.has_column(col) and isinstance(e, ast.Literal):
                cm = meta.column(col)
                try:
                    coerce(e.value, cm.affinity)
                except DataError:
                    self._error(
                        "SQL009",
                        f"cannot store {e.value!r} in {cm.affinity} "
                        f"column {meta.name}.{cm.name}",
                    )
        self._expr(stmt.where, table_env, agg=False)

    def _an_Delete(self, stmt: ast.Delete, env: _Env) -> None:
        meta = self.catalog.tables.get(stmt.table.lower())
        table_env = _Env()
        if meta is None:
            self._error(
                "SQL001",
                f"no such table: {stmt.table}",
                closest(stmt.table, [t.name for t in self.catalog.tables.values()]),
            )
            table_env.bindings.append(_Binding(stmt.table, None))
        else:
            table_env.bindings.append(
                _Binding(
                    meta.name,
                    [c.name for c in meta.columns],
                    [c.affinity for c in meta.columns],
                )
            )
        self._expr(stmt.where, table_env, agg=False)

    # -- DDL --------------------------------------------------------------------

    def _an_CreateTable(self, stmt: ast.CreateTable, env: _Env) -> None:
        if self.catalog.has_table(stmt.name):
            if not stmt.if_not_exists:
                self._error("SQL015", f"table {stmt.name} already exists")
            return
        colnames: List[str] = []
        seen: set[str] = set()
        pk = list(stmt.primary_key)
        for cd in stmt.columns:
            if cd.name.lower() in seen:
                self._error(
                    "SQL014",
                    f"duplicate column name in table {stmt.name}: {cd.name}",
                )
            seen.add(cd.name.lower())
            colnames.append(cd.name)
            if cd.default is not None and not isinstance(cd.default, ast.Literal):
                self._error("SQL016", "DEFAULT must be a literal value")
            if cd.primary_key:
                if pk and cd.name not in pk:
                    self._error("SQL014", "multiple PRIMARY KEY definitions")
                elif cd.name not in pk:
                    pk.append(cd.name)
            if cd.references is not None:
                ref_table = cd.references[0]
                if ref_table.lower() != stmt.name.lower() and not self.catalog.has_table(
                    ref_table
                ):
                    self._warn(
                        "SQL001",
                        f"foreign key references unknown table {ref_table}",
                        closest(
                            ref_table,
                            [t.name for t in self.catalog.tables.values()],
                        ),
                    )
        for group in [pk] + [list(u) for u in stmt.uniques] + [
            list(local) for local, _rt, _rc in stmt.foreign_keys
        ]:
            for c in group:
                if c.lower() not in seen:
                    self._error(
                        "SQL002",
                        f"no such column: {stmt.name}.{c}",
                        closest(c, colnames),
                    )
        for _local, ref_table, _ref_cols in stmt.foreign_keys:
            if ref_table.lower() != stmt.name.lower() and not self.catalog.has_table(
                ref_table
            ):
                self._warn(
                    "SQL001",
                    f"foreign key references unknown table {ref_table}",
                    closest(ref_table, [t.name for t in self.catalog.tables.values()]),
                )

    def _an_DropTable(self, stmt: ast.DropTable, env: _Env) -> None:
        if not self.catalog.has_table(stmt.name) and not stmt.if_exists:
            self._error(
                "SQL001",
                f"no such table: {stmt.name}",
                closest(stmt.name, [t.name for t in self.catalog.tables.values()]),
            )

    def _an_CreateIndex(self, stmt: ast.CreateIndex, env: _Env) -> None:
        if self.catalog.has_index(stmt.name):
            if not stmt.if_not_exists:
                self._error("SQL015", f"index {stmt.name} already exists")
            return
        meta = self.catalog.tables.get(stmt.table.lower())
        if meta is None:
            self._error(
                "SQL001",
                f"no such table: {stmt.table}",
                closest(stmt.table, [t.name for t in self.catalog.tables.values()]),
            )
            return
        for c in stmt.columns:
            if not meta.has_column(c):
                self._error(
                    "SQL002",
                    f"no such column: {meta.name}.{c}",
                    closest(c, meta.column_names),
                )

    def _an_DropIndex(self, stmt: ast.DropIndex, env: _Env) -> None:
        if not self.catalog.has_index(stmt.name) and not stmt.if_exists:
            self._error(
                "SQL015",
                f"no such index: {stmt.name}",
                closest(stmt.name, [i.name for i in self.catalog.indexes.values()]),
            )

    # -- expressions ---------------------------------------------------------

    def _expr(
        self,
        e: Optional[ast.Expr],
        env: _Env,
        agg: bool,
        in_agg: bool = False,
    ) -> None:
        if e is None:
            return
        t = type(e)
        if t is ast.Literal:
            return
        if t is ast.Parameter:
            if e.index > self.max_param:
                self.max_param = e.index
            return
        if t is ast.ColumnRef:
            self._column(e, env)
            return
        if t is ast.Star:
            self._error("SQL018", "'*' is not valid in this context")
            return
        if t is ast.Unary:
            self._expr(e.operand, env, agg, in_agg)
            return
        if t is ast.Binary:
            self._expr(e.left, env, agg, in_agg)
            self._expr(e.right, env, agg, in_agg)
            self._check_binary_types(e, env)
            return
        if t is ast.Like:
            self._expr(e.operand, env, agg, in_agg)
            self._expr(e.pattern, env, agg, in_agg)
            self._expr(e.escape, env, agg, in_agg)
            return
        if t is ast.Between:
            for child in (e.operand, e.low, e.high):
                self._expr(child, env, agg, in_agg)
            return
        if t is ast.InList:
            self._expr(e.operand, env, agg, in_agg)
            for item in e.items:
                self._expr(item, env, agg, in_agg)
            return
        if t is ast.InSelect:
            self._expr(e.operand, env, agg, in_agg)
            names, _affs, ok = self._select(e.select, env)
            if ok and len(names) != 1:
                self._error("SQL017", "IN subquery must return a single column")
            return
        if t is ast.Exists:
            self._select(e.select, env)
            return
        if t is ast.ScalarSelect:
            names, _affs, ok = self._select(e.select, env)
            if ok and len(names) != 1:
                self._error("SQL017", "scalar subquery must return a single column")
            return
        if t is ast.IsNull:
            self._expr(e.operand, env, agg, in_agg)
            return
        if t is ast.Case:
            self._expr(e.operand, env, agg, in_agg)
            for cond, result in e.whens:
                self._expr(cond, env, agg, in_agg)
                self._expr(result, env, agg, in_agg)
            self._expr(e.default, env, agg, in_agg)
            return
        if t is ast.Cast:
            self._expr(e.operand, env, agg, in_agg)
            return
        if t is ast.FuncCall:
            self._func_call(e, env, agg, in_agg)
            return

    def _func_call(self, e: ast.FuncCall, env: _Env, agg: bool, in_agg: bool) -> None:
        if e.name in AGGREGATE_NAMES:
            if not agg:
                self._error(
                    "SQL007",
                    f"misuse of aggregate function {e.name}() outside GROUP BY"
                    " context",
                )
            elif in_agg:
                self._error(
                    "SQL007", f"aggregate function {e.name}() cannot be nested"
                )
            if not e.star and len(e.args) != 1:
                self._error(
                    "SQL006", f"aggregate {e.name}() takes exactly one argument"
                )
            for a in e.args:
                self._expr(a, env, agg, in_agg=True)
            return
        fn = SCALAR_FUNCTIONS.get(e.name)
        if fn is None:
            self._error(
                "SQL005",
                f"no such function: {e.name}",
                closest(e.name, list(SCALAR_FUNCTIONS) + sorted(AGGREGATE_NAMES)),
            )
        else:
            lo, hi = _SCALAR_ARITY.get(e.name, (0, None))
            n = len(e.args)
            if n < lo or (hi is not None and n > hi):
                wants = str(lo) if hi == lo else f"{lo}..{hi if hi is not None else ''}"
                self._error(
                    "SQL006",
                    f"{e.name}() takes {wants} arguments, got {n}",
                )
        for a in e.args:
            self._expr(a, env, agg, in_agg)

    def _column(self, e: ast.ColumnRef, env: _Env) -> None:
        col = e.name.lower()
        if e.table is not None:
            binding = env.find_binding(e.table)
            if binding is None:
                self._error(
                    "SQL003",
                    f"no such column: {e.table}.{e.name}",
                    closest(e.table, env.all_binding_names()),
                )
                return
            if binding.columns is None or binding.has_column(col):
                return
            self._error(
                "SQL002",
                f"no such column: {e.table}.{e.name}",
                closest(e.name, binding.columns),
            )
            return
        any_opaque = False
        for level in env.levels():
            hits = 0
            for b in level.bindings:
                if b.columns is None:
                    any_opaque = True
                elif b.has_column(col):
                    hits += 1
            if hits == 1:
                return
            if hits > 1:
                # The engine resolves this silently (innermost scope wins),
                # so flag it without rejecting the statement.
                self._warn("SQL004", f"ambiguous column name: {e.name}")
                return
        if any_opaque:
            return
        self._error(
            "SQL002",
            f"no such column: {e.name}",
            closest(e.name, env.all_column_names()),
        )

    # -- type inference ------------------------------------------------------

    def _check_binary_types(self, e: ast.Binary, env: _Env) -> None:
        if e.op in _ARITH_OPS:
            for side in (e.left, e.right):
                a = self._affinity(side, env)
                if a in (TEXT, BLOB):
                    self._warn(
                        "SQL013",
                        f"arithmetic ({e.op}) on {a} operand {_describe(side)}",
                    )
            return
        if e.op in _COMPARE_OPS:
            lc = _type_class(self._affinity(e.left, env))
            rc = _type_class(self._affinity(e.right, env))
            if lc is not None and rc is not None and lc != rc:
                self._warn(
                    "SQL013",
                    f"cross-type comparison: {_describe(e.left)} is {lc} but"
                    f" {_describe(e.right)} is {rc} (never equal; ordering is"
                    " by type rank)",
                )

    def _affinity(self, e: ast.Expr, env: _Env) -> Optional[str]:
        if isinstance(e, ast.Literal):
            v = e.value
            if v is None:
                return None
            if isinstance(v, bool):
                return BOOLEAN
            if isinstance(v, int):
                return INTEGER
            if isinstance(v, float):
                return REAL
            if isinstance(v, str):
                return TEXT
            if isinstance(v, bytes):
                return BLOB
            return None
        if isinstance(e, ast.ColumnRef):
            if e.table is not None:
                b = env.find_binding(e.table)
                return b.column_affinity(e.name) if b is not None else None
            for level in env.levels():
                hits = [b for b in level.bindings if b.has_column(e.name)]
                if len(hits) == 1:
                    return hits[0].column_affinity(e.name)
                if hits:
                    return None
            return None
        if isinstance(e, ast.Cast):
            return affinity_for(e.type_name)
        if isinstance(e, ast.Unary):
            if e.op in ("-", "+"):
                a = self._affinity(e.operand, env)
                return a if a in (INTEGER, REAL, BOOLEAN) else None
            return BOOLEAN  # NOT
        if isinstance(e, ast.Binary):
            if e.op == "||":
                return TEXT
            return None
        if isinstance(e, ast.FuncCall):
            return _FUNC_AFFINITY.get(e.name)
        return None


def _describe(e: ast.Expr) -> str:
    if isinstance(e, ast.ColumnRef):
        return f"{e.table}.{e.name}" if e.table else e.name
    if isinstance(e, ast.Literal):
        return repr(e.value)
    if isinstance(e, ast.FuncCall):
        return f"{e.name}(...)"
    return type(e).__name__.lower()


def analyze(stmt: Any, catalog: Catalog) -> Analysis:
    """Convenience wrapper: analyze one parsed statement."""
    return Analyzer(catalog).analyze(stmt)
