"""Expression evaluation for minidb.

Expressions are evaluated against a :class:`Scope`, which binds table
aliases to (column-names, row-values) pairs and chains to a parent scope
for correlated subqueries.  SQL three-valued logic is honoured: comparisons
with NULL yield NULL, ``AND``/``OR`` propagate unknowns, and ``WHERE``
treats NULL as false.
"""

from __future__ import annotations

import re
from typing import Any, Callable, Optional, Sequence

from . import ast_nodes as ast
from .errors import DataError, ProgrammingError, SemanticError, closest
from .sqltypes import affinity_for, coerce, compare, sort_key


class Scope:
    """Chained name-resolution environment for expression evaluation."""

    __slots__ = ("bindings", "parent")

    def __init__(self, parent: Optional["Scope"] = None) -> None:
        # binding name (lowercased) -> (column names lowercased, values tuple)
        self.bindings: dict[str, tuple[list[str], tuple]] = {}
        self.parent = parent

    def bind(self, name: str, columns: Sequence[str], values: tuple) -> None:
        self.bindings[name.lower()] = ([c.lower() for c in columns], values)

    def child(self) -> "Scope":
        return Scope(parent=self)

    def resolve(self, table: Optional[str], column: str) -> Any:
        col = column.lower()
        scope: Optional[Scope] = self
        while scope is not None:
            if table is not None:
                entry = scope.bindings.get(table.lower())
                if entry is not None:
                    cols, values = entry
                    try:
                        return values[cols.index(col)]
                    except ValueError:
                        raise SemanticError(
                            f"no such column: {table}.{column}",
                            code="SQL002",
                            suggestion=closest(column, cols),
                        ) from None
            else:
                hits = []
                for cols, values in scope.bindings.values():
                    if col in cols:
                        hits.append(values[cols.index(col)])
                if len(hits) == 1:
                    return hits[0]
                if len(hits) > 1:
                    raise SemanticError(
                        f"ambiguous column name: {column}", code="SQL004"
                    )
            scope = scope.parent
        qual = f"{table}." if table else ""
        if table is not None and not self.has_binding(table):
            raise SemanticError(
                f"no such column: {qual}{column}",
                code="SQL003",
                suggestion=closest(table, self._visible_bindings()),
            )
        raise SemanticError(
            f"no such column: {qual}{column}",
            code="SQL002",
            suggestion=closest(column, self._visible_columns()),
        )

    def _visible_bindings(self) -> list[str]:
        names: list[str] = []
        scope: Optional[Scope] = self
        while scope is not None:
            names.extend(scope.bindings)
            scope = scope.parent
        return names

    def _visible_columns(self) -> list[str]:
        names: list[str] = []
        scope: Optional[Scope] = self
        while scope is not None:
            for cols, _values in scope.bindings.values():
                names.extend(cols)
            scope = scope.parent
        return names

    def has_binding(self, name: str) -> bool:
        scope: Optional[Scope] = self
        while scope is not None:
            if name.lower() in scope.bindings:
                return True
            scope = scope.parent
        return False


def _is_true(value: Any) -> bool:
    """WHERE-clause truthiness: NULL and false are both rejected."""
    return value is not None and bool(value)


def cast_value(value: Any, type_name: str) -> Any:
    """CAST semantics shared by the row evaluator and the vector kernels."""
    try:
        return coerce(value, affinity_for(type_name))
    except DataError:
        # SQL CAST is forgiving: uncastable text becomes 0 for numbers.
        affinity = affinity_for(type_name)
        if affinity in ("INTEGER", "REAL", "NUMERIC", "BOOLEAN"):
            return 0 if affinity != "REAL" else 0.0
        raise


def arith_value(op: str, left: Any, right: Any) -> Any:
    """Non-NULL arithmetic/concat semantics shared with the vector kernels.

    Callers have already handled NULL propagation and comparison operators;
    this is the ``||``/``+``/``-``/``*``/``/``/``%`` tail of the row
    evaluator, kept in one place so both execution paths stay identical.
    """
    if op == "||":
        return f"{left}{right}"
    try:
        if op == "+":
            return left + right
        if op == "-":
            return left - right
        if op == "*":
            return left * right
        if op == "/":
            if right == 0:
                return None  # SQL-style: division by zero yields NULL
            if isinstance(left, int) and isinstance(right, int):
                q = left // right
                # SQL integer division truncates toward zero.
                if q < 0 and q * right != left:
                    q += 1
                return q
            return left / right
        if op == "%":
            if right == 0:
                return None
            return left - right * int(left / right)
    except TypeError:
        raise DataError(
            f"invalid operands for {op}: {type(left).__name__}, {type(right).__name__}"
        ) from None
    raise ProgrammingError(f"unknown operator {op}")


def like_to_regex(pattern: str, escape: Optional[str] = None) -> re.Pattern:
    """Compile a SQL LIKE pattern to a case-insensitive regex."""
    out = []
    i = 0
    while i < len(pattern):
        ch = pattern[i]
        if escape and ch == escape and i + 1 < len(pattern):
            out.append(re.escape(pattern[i + 1]))
            i += 2
            continue
        if ch == "%":
            out.append(".*")
        elif ch == "_":
            out.append(".")
        else:
            out.append(re.escape(ch))
        i += 1
    return re.compile("".join(out) + r"\Z", re.IGNORECASE | re.DOTALL)


# ---------------------------------------------------------------------------
# Scalar functions

def _fn_coalesce(*args: Any) -> Any:
    for a in args:
        if a is not None:
            return a
    return None


def _fn_substr(s: Any, start: Any, length: Any = None) -> Any:
    if s is None or start is None:
        return None
    s = str(s)
    start = int(start)
    # SQL SUBSTR is 1-based; negative start counts from the end.
    if start > 0:
        begin = start - 1
    elif start < 0:
        begin = max(len(s) + start, 0)
    else:
        begin = 0
    if length is None:
        return s[begin:]
    n = int(length)
    if n < 0:
        return ""
    return s[begin : begin + n]


def _fn_instr(s: Any, needle: Any) -> Any:
    if s is None or needle is None:
        return None
    return str(s).find(str(needle)) + 1


def _fn_round(x: Any, digits: Any = 0) -> Any:
    if x is None:
        return None
    return round(float(x), int(digits or 0))


def _nullsafe(fn: Callable) -> Callable:
    def wrapped(*args: Any) -> Any:
        if any(a is None for a in args):
            return None
        return fn(*args)

    return wrapped


SCALAR_FUNCTIONS: dict[str, Callable] = {
    "LOWER": _nullsafe(lambda s: str(s).lower()),
    "UPPER": _nullsafe(lambda s: str(s).upper()),
    "LENGTH": _nullsafe(lambda s: len(str(s))),
    "ABS": _nullsafe(lambda x: abs(x)),
    "ROUND": _fn_round,
    "COALESCE": _fn_coalesce,
    "IFNULL": lambda a, b: b if a is None else a,
    "NULLIF": lambda a, b: None if a == b else a,
    "SUBSTR": _fn_substr,
    "SUBSTRING": _fn_substr,
    "INSTR": _fn_instr,
    "TRIM": _nullsafe(lambda s: str(s).strip()),
    "LTRIM": _nullsafe(lambda s: str(s).lstrip()),
    "RTRIM": _nullsafe(lambda s: str(s).rstrip()),
    "REPLACE": _nullsafe(lambda s, a, b: str(s).replace(str(a), str(b))),
    "TYPEOF": lambda v: (
        "null" if v is None
        else "integer" if isinstance(v, bool) or isinstance(v, int)
        else "real" if isinstance(v, float)
        else "text" if isinstance(v, str)
        else "blob"
    ),
    "MIN2": _nullsafe(min),
    "MAX2": _nullsafe(max),
    "CAST_INT": _nullsafe(lambda v: int(float(v))),
    "CAST_REAL": _nullsafe(lambda v: float(v)),
    "CAST_TEXT": _nullsafe(lambda v: str(v)),
}


class Evaluator:
    """Evaluates expression ASTs.

    ``subquery_runner`` is a callable ``(Select, Scope) -> list[tuple]``
    provided by the executor so that nested/correlated subqueries can run;
    ``aggregates`` maps ``id(FuncCall-node) -> value`` during the grouped
    phase of a SELECT.
    """

    #: node type -> ``_eval_<Node>`` function; one table per class, so a
    #: subclass's overrides never reach the base class's table.
    _handlers: dict[type, Callable] = {}

    def __init_subclass__(cls, **kwargs: Any) -> None:
        super().__init_subclass__(**kwargs)
        cls._handlers = {}

    def __init__(
        self,
        params: Sequence[Any] = (),
        subquery_runner: Optional[Callable] = None,
        aggregates: Optional[dict[int, Any]] = None,
    ) -> None:
        self.params = list(params)
        self.subquery_runner = subquery_runner
        self.aggregates = aggregates or {}
        self._like_cache: dict[tuple[str, Optional[str]], re.Pattern] = {}
        # Per-statement cache for constant IN lists: id(node) -> (keys, has_null).
        self._inlist_cache: dict[int, tuple[set, bool]] = {}

    # -- public ------------------------------------------------------------

    def evaluate(self, expr: ast.Expr, scope: Scope) -> Any:
        try:
            handler = self._handlers[type(expr)]
        except KeyError:
            handler = self._handler_for(type(expr))
        return handler(self, expr, scope)

    @classmethod
    def _handler_for(cls, node_type: type) -> Callable:
        """The ``_eval_<Node>`` function for *node_type*, entered in the
        class's dispatch table on first use (threads racing on a first use
        store the same function, so the table needs no lock)."""
        handler = getattr(cls, f"_eval_{node_type.__name__}", None)
        if handler is None:
            raise ProgrammingError(f"cannot evaluate {node_type.__name__}")
        cls._handlers[node_type] = handler
        return handler

    def is_true(self, expr: ast.Expr, scope: Scope) -> bool:
        return _is_true(self.evaluate(expr, scope))

    # -- node handlers -------------------------------------------------------

    def _eval_Literal(self, expr: ast.Literal, scope: Scope) -> Any:
        return expr.value

    def _eval_Parameter(self, expr: ast.Parameter, scope: Scope) -> Any:
        try:
            return self.params[expr.index]
        except IndexError:
            raise ProgrammingError(
                f"statement requires at least {expr.index + 1} parameters, "
                f"{len(self.params)} supplied"
            ) from None

    def _eval_ColumnRef(self, expr: ast.ColumnRef, scope: Scope) -> Any:
        return scope.resolve(expr.table, expr.name)

    def _eval_Unary(self, expr: ast.Unary, scope: Scope) -> Any:
        v = self.evaluate(expr.operand, scope)
        if expr.op == "NOT":
            if v is None:
                return None
            return not bool(v)
        if v is None:
            return None
        if expr.op == "-":
            return -v
        return +v

    def _eval_Binary(self, expr: ast.Binary, scope: Scope) -> Any:
        op = expr.op
        if op == "AND":
            left = self.evaluate(expr.left, scope)
            if left is not None and not left:
                return False
            right = self.evaluate(expr.right, scope)
            if right is not None and not right:
                return False
            if left is None or right is None:
                return None
            return True
        if op == "OR":
            left = self.evaluate(expr.left, scope)
            if left is not None and left:
                return True
            right = self.evaluate(expr.right, scope)
            if right is not None and right:
                return True
            if left is None or right is None:
                return None
            return False
        left = self.evaluate(expr.left, scope)
        right = self.evaluate(expr.right, scope)
        if op in ("=", "<>", "<", "<=", ">", ">="):
            c = compare(left, right)
            if c is None:
                return None
            return {
                "=": c == 0,
                "<>": c != 0,
                "<": c < 0,
                "<=": c <= 0,
                ">": c > 0,
                ">=": c >= 0,
            }[op]
        if left is None or right is None:
            return None
        return arith_value(op, left, right)

    def _eval_Like(self, expr: ast.Like, scope: Scope) -> Any:
        value = self.evaluate(expr.operand, scope)
        pattern = self.evaluate(expr.pattern, scope)
        if value is None or pattern is None:
            return None
        escape = None
        if expr.escape is not None:
            escape = self.evaluate(expr.escape, scope)
        key = (str(pattern), escape)
        rx = self._like_cache.get(key)
        if rx is None:
            rx = like_to_regex(str(pattern), escape)
            self._like_cache[key] = rx
        result = rx.match(str(value)) is not None
        return not result if expr.negated else result

    def _eval_Between(self, expr: ast.Between, scope: Scope) -> Any:
        v = self.evaluate(expr.operand, scope)
        low = self.evaluate(expr.low, scope)
        high = self.evaluate(expr.high, scope)
        c1 = compare(v, low)
        c2 = compare(v, high)
        if c1 is None or c2 is None:
            return None
        result = c1 >= 0 and c2 <= 0
        return not result if expr.negated else result

    def _eval_InList(self, expr: ast.InList, scope: Scope) -> Any:
        v = self.evaluate(expr.operand, scope)
        if v is None:
            return None
        # Constant item lists (literals/parameters) evaluate via a cached
        # set of sort keys: O(1) per row instead of O(items).
        cached = self._inlist_cache.get(id(expr))
        if cached is None and all(
            isinstance(i, (ast.Literal, ast.Parameter)) for i in expr.items
        ):
            keys: set = set()
            has_null = False
            for item in expr.items:
                iv = self.evaluate(item, scope)
                if iv is None:
                    has_null = True
                else:
                    keys.add(sort_key(iv))
            cached = (keys, has_null)
            self._inlist_cache[id(expr)] = cached
        if cached is not None:
            keys, has_null = cached
            if sort_key(v) in keys:
                return not expr.negated
            if has_null:
                return None
            return expr.negated
        saw_null = False
        for item in expr.items:
            iv = self.evaluate(item, scope)
            eq = compare(v, iv)
            if eq is None:
                saw_null = True
            elif eq == 0:
                return not expr.negated
        if saw_null:
            return None
        return expr.negated

    def _eval_InSelect(self, expr: ast.InSelect, scope: Scope) -> Any:
        v = self.evaluate(expr.operand, scope)
        if v is None:
            return None
        rows = self._run_subquery(expr.select, scope)
        saw_null = False
        for row in rows:
            if len(row) != 1:
                raise ProgrammingError("IN subquery must return a single column")
            eq = compare(v, row[0])
            if eq is None:
                saw_null = True
            elif eq == 0:
                return not expr.negated
        if saw_null:
            return None
        return expr.negated

    def _eval_Exists(self, expr: ast.Exists, scope: Scope) -> Any:
        rows = self._run_subquery(expr.select, scope, limit_one=True)
        result = bool(rows)
        return not result if expr.negated else result

    def _eval_ScalarSelect(self, expr: ast.ScalarSelect, scope: Scope) -> Any:
        rows = self._run_subquery(expr.select, scope)
        if not rows:
            return None
        if len(rows[0]) != 1:
            raise ProgrammingError("scalar subquery must return a single column")
        if len(rows) > 1:
            raise ProgrammingError("scalar subquery returned more than one row")
        return rows[0][0]

    def _eval_IsNull(self, expr: ast.IsNull, scope: Scope) -> Any:
        v = self.evaluate(expr.operand, scope)
        result = v is None
        return not result if expr.negated else result

    def _eval_Case(self, expr: ast.Case, scope: Scope) -> Any:
        if expr.operand is not None:
            base = self.evaluate(expr.operand, scope)
            for cond, result in expr.whens:
                cv = self.evaluate(cond, scope)
                if compare(base, cv) == 0:
                    return self.evaluate(result, scope)
        else:
            for cond, result in expr.whens:
                if _is_true(self.evaluate(cond, scope)):
                    return self.evaluate(result, scope)
        if expr.default is not None:
            return self.evaluate(expr.default, scope)
        return None

    def _eval_Cast(self, expr: ast.Cast, scope: Scope) -> Any:
        value = self.evaluate(expr.operand, scope)
        return cast_value(value, expr.type_name)

    def _eval_FuncCall(self, expr: ast.FuncCall, scope: Scope) -> Any:
        if id(expr) in self.aggregates:
            return self.aggregates[id(expr)]
        fn = SCALAR_FUNCTIONS.get(expr.name)
        if fn is None:
            from .parser import AGGREGATE_NAMES

            if expr.name in AGGREGATE_NAMES:
                raise ProgrammingError(
                    f"misuse of aggregate function {expr.name}() outside GROUP BY context"
                )
            raise ProgrammingError(f"no such function: {expr.name}")
        args = [self.evaluate(a, scope) for a in expr.args]
        try:
            return fn(*args)
        except TypeError as exc:
            raise ProgrammingError(f"bad arguments to {expr.name}(): {exc}") from None

    def _eval_Star(self, expr: ast.Star, scope: Scope) -> Any:
        raise ProgrammingError("'*' is not valid in this context")

    # -- helpers ------------------------------------------------------------

    def _run_subquery(self, select: ast.Select, scope: Scope, limit_one: bool = False):
        if self.subquery_runner is None:
            raise ProgrammingError("subqueries are not available in this context")
        return self.subquery_runner(select, scope, limit_one)


class AggregateAccumulator:
    """Streaming accumulator for one aggregate call over one group."""

    def __init__(self, call: ast.FuncCall) -> None:
        self.call = call
        self.count = 0
        self.total: Any = None
        self.min: Any = None
        self.max: Any = None
        self.values: list[Any] = []  # only for DISTINCT / GROUP_CONCAT
        self.distinct_seen: set = set()

    def add(self, value: Any) -> None:
        if self.call.star:
            self.count += 1
            return
        if value is None:
            return
        if self.call.distinct:
            marker = (type(value).__name__, value)
            if marker in self.distinct_seen:
                return
            self.distinct_seen.add(marker)
        self.count += 1
        if self.call.name in ("SUM", "AVG", "TOTAL"):
            self.total = value if self.total is None else self.total + value
        elif self.call.name == "MIN":
            if self.min is None or sort_key(value) < sort_key(self.min):
                self.min = value
        elif self.call.name == "MAX":
            if self.max is None or sort_key(value) > sort_key(self.max):
                self.max = value
        elif self.call.name == "GROUP_CONCAT":
            self.values.append(value)

    def result(self) -> Any:
        name = self.call.name
        if name == "COUNT":
            return self.count
        if name == "SUM":
            return self.total
        if name == "TOTAL":
            return float(self.total or 0.0)
        if name == "AVG":
            if self.count == 0:
                return None
            return self.total / self.count
        if name == "MIN":
            return self.min
        if name == "MAX":
            return self.max
        if name == "GROUP_CONCAT":
            if not self.values:
                return None
            return ",".join(str(v) for v in self.values)
        raise ProgrammingError(f"unknown aggregate {name}")


def collect_aggregates(expr: Optional[ast.Expr], out: list[ast.FuncCall]) -> None:
    """Collect aggregate FuncCall nodes (not descending into subqueries)."""
    if expr is None:
        return
    from .parser import is_aggregate_call

    if is_aggregate_call(expr):
        out.append(expr)  # arguments of an aggregate are per-row, stop here
        return
    for child in _children(expr):
        collect_aggregates(child, out)


def _children(expr: ast.Expr):
    if isinstance(expr, ast.Unary):
        return [expr.operand]
    if isinstance(expr, ast.Binary):
        return [expr.left, expr.right]
    if isinstance(expr, ast.Like):
        return [expr.operand, expr.pattern] + ([expr.escape] if expr.escape else [])
    if isinstance(expr, ast.Between):
        return [expr.operand, expr.low, expr.high]
    if isinstance(expr, ast.InList):
        return [expr.operand] + expr.items
    if isinstance(expr, (ast.InSelect,)):
        return [expr.operand]
    if isinstance(expr, ast.IsNull):
        return [expr.operand]
    if isinstance(expr, ast.Case):
        kids = []
        if expr.operand is not None:
            kids.append(expr.operand)
        for c, r in expr.whens:
            kids.extend([c, r])
        if expr.default is not None:
            kids.append(expr.default)
        return kids
    if isinstance(expr, ast.Cast):
        return [expr.operand]
    if isinstance(expr, ast.FuncCall):
        return expr.args
    return []
