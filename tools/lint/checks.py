"""AST + dataflow checkers behind ``python -m tools.lint`` (stdlib only).

PTL001/PTL002/PTL007 run on the reaching-definitions engine in
:mod:`tools.lint.dataflow`; the remaining checks are syntactic.
"""

from __future__ import annotations

import ast
import os
import re
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Union

from .dataflow import FunctionFacts, analyze, escaping_names

#: call-attribute names whose first argument is treated as SQL text
SQL_SINKS = frozenset(
    {
        "execute",
        "executemany",
        "executescript",
        "query",
        "query_one",
        "query_all",
        "insert",
        "scalar",
    }
)

_NOQA_RE = re.compile(r"#\s*noqa(?::\s*(?P<codes>[A-Z0-9, ]+))?", re.IGNORECASE)

#: batch-protocol method names scanned by PTL006
BATCH_METHODS = frozenset({"next_batch", "_produce_batches"})

#: classes whose batch methods legitimately loop per row (PTL006 allowlist):
#: VecScan falls back to per-row live lookups when the table mutates
#: mid-scan; VecDistinct probes its dedup set one row at a time by nature;
#: VecIndexJoin probes a hash index once per distinct key and fans each
#: outer row out to its matches.
#: Additions must be justified in docs/static_analysis.md.
PTL006_ALLOWED_CLASSES = frozenset({"VecScan", "VecDistinct", "VecIndexJoin"})

#: PTL007 — attribute names that are shared mutable engine state, by the
#: kind of object that owns them.  Writing them outside the owning module
#: bypasses WAL logging, undo bookkeeping and data_version bumps.
PTL007_TABLE_ATTRS = frozenset(
    {"rows", "next_rowid", "next_auto", "data_version", "_column_store"}
)
PTL007_CATALOG_ATTRS = frozenset({"tables", "indexes", "version"})
PTL007_STORE_ATTRS = frozenset({"version"})

#: modules that own the engine state and may mutate it directly: storage.py
#: defines Table/Catalog/ColumnStore, wal.py restores them during replay
#: and checkpoint.  Additions must be justified in docs/static_analysis.md.
PTL007_ALLOWED_MODULES = frozenset({"storage.py", "wal.py"})

#: method names that mutate their receiver in place
_PTL007_MUTATORS = frozenset(
    {
        "append",
        "extend",
        "insert",
        "remove",
        "pop",
        "popitem",
        "clear",
        "update",
        "setdefault",
        "add",
        "discard",
    }
)

#: PTL008 — Database mutators that take the writing transaction.  Called
#: without ``txn=`` they fall back to the database's implicit transaction,
#: so which transaction journals and undoes the mutation is no longer
#: visible at the call site.
PTL008_MUTATORS = frozenset(
    {
        "insert_rows",
        "update_row",
        "delete_row",
        "create_table",
        "drop_table",
        "create_index",
        "drop_index",
    }
)

#: modules that own the transaction plumbing and may use the implicit
#: fallback: storage.py defines the mutators (and resolves the implicit
#: transaction), wal.py replays already-committed records outside any
#: transaction.  Additions must be justified in docs/static_analysis.md.
PTL008_ALLOWED_MODULES = frozenset({"storage.py", "wal.py"})

@dataclass(frozen=True)
class Violation:
    path: str
    line: int
    code: str
    message: str

    def __str__(self) -> str:
        return f"{self.path}:{self.line}: {self.code} {self.message}"


def _noqa_lines(source: str) -> dict[int, Optional[set[str]]]:
    """Line -> suppressed codes (None = all) for ``# noqa`` comments."""
    out: dict[int, Optional[set[str]]] = {}
    for lineno, text in enumerate(source.splitlines(), start=1):
        m = _NOQA_RE.search(text)
        if not m:
            continue
        codes = m.group("codes")
        if codes is None:
            out[lineno] = None
        else:
            out[lineno] = {c.strip().upper() for c in codes.split(",") if c.strip()}
    return out


def _is_constant_name(node: ast.expr) -> bool:
    """True for UPPER_CASE names/attributes — module or class constants."""
    if isinstance(node, ast.Name):
        return node.id.isupper()
    if isinstance(node, ast.Attribute):
        return node.attr.isupper()
    return False


def _interpolated_sql(node: ast.expr) -> Optional[str]:
    """Why *node* is interpolation-built SQL, or None when it is safe."""
    if isinstance(node, ast.JoinedStr):
        for part in node.values:
            if isinstance(part, ast.FormattedValue) and not _is_constant_name(
                part.value
            ):
                return f"f-string interpolates {ast.unparse(part.value)!r}"
        return None
    if isinstance(node, ast.BinOp) and isinstance(node.op, (ast.Add, ast.Mod)):
        for side in (node.left, node.right):
            reason = _interpolated_sql(side)
            if reason is not None:
                return reason
        # `"..." % x` and `"..." + x` with a non-literal, non-constant side
        for side in (node.left, node.right):
            if not isinstance(side, (ast.Constant, ast.JoinedStr, ast.BinOp)):
                if not _is_constant_name(side):
                    return f"SQL concatenated with {ast.unparse(side)!r}"
        return None
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
        if node.func.attr == "format":
            return "SQL built with str.format()"
    return None


def _walk_no_nested(func: ast.AST) -> Iterator[ast.AST]:
    """Walk a function body without descending into nested defs/lambdas."""
    stack = list(ast.iter_child_nodes(func))
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        stack.extend(ast.iter_child_nodes(node))


class _Checker(ast.NodeVisitor):
    def __init__(self, path: str) -> None:
        self.path = path
        self.violations: list[Violation] = []
        self._class_stack: list[str] = []
        #: dataflow facts for the innermost enclosing scope (module,
        #: class body, or function) — consulted by the flow-aware checks
        self._facts_stack: list[FunctionFacts] = []

    @property
    def _facts(self) -> Optional[FunctionFacts]:
        return self._facts_stack[-1] if self._facts_stack else None

    def visit_Module(self, node: ast.Module) -> None:
        self._facts_stack.append(analyze(node))
        self.generic_visit(node)
        self._facts_stack.pop()

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        self._class_stack.append(node.name)
        self._facts_stack.append(analyze(node))
        self.generic_visit(node)
        self._facts_stack.pop()
        self._class_stack.pop()

    def _add(self, node: ast.AST, code: str, message: str) -> None:
        line = getattr(node, "lineno", 0)
        self.violations.append(Violation(self.path, line, code, message))

    # -- PTL001 / PTL004 / PTL007 ---------------------------------------------

    def _sql_taint(self, arg: ast.expr) -> Optional[str]:
        """Why *arg* carries interpolation-built SQL, or None.

        Checks the expression itself first; a bare name is then resolved
        through its reaching definitions, so SQL built in a variable and
        executed later is caught at the sink.
        """
        reason = _interpolated_sql(arg)
        if reason is not None:
            return reason
        facts = self._facts
        if isinstance(arg, ast.Name) and facts is not None:
            for origin in facts.origins(arg):
                reason = _interpolated_sql(origin)
                if reason is not None:
                    line = getattr(origin, "lineno", "?")
                    return f"{reason} (via {arg.id!r} assigned at line {line})"
        return None

    def visit_Call(self, node: ast.Call) -> None:
        if (
            isinstance(node.func, ast.Attribute)
            and node.func.attr in SQL_SINKS
            and node.args
        ):
            reason = self._sql_taint(node.args[0])
            if reason is not None:
                self._add(
                    node,
                    "PTL001",
                    f"string-interpolated SQL passed to .{node.func.attr}(): "
                    f"{reason}; use ? placeholders (or interpolate only "
                    f"UPPERCASE constants)",
                )
        if (
            isinstance(node.func, ast.Attribute)
            and node.func.attr == "time"
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id == "time"
        ):
            self._add(
                node,
                "PTL004",
                "direct time.time() call; use repro.obs.clock.now() for "
                "durations or repro.obs.clock.wall_clock() for timestamps "
                "so instrumentation stays on one clock",
            )
        if (
            isinstance(node.func, ast.Attribute)
            and node.func.attr in _PTL007_MUTATORS
            and isinstance(node.func.value, ast.Attribute)
        ):
            # e.g. table.rows.clear(), db.catalog.indexes.pop(name)
            self._check_state_write(node, node.func.value, node.func.attr)
        if (
            isinstance(node.func, ast.Attribute)
            and node.func.attr in PTL008_MUTATORS
            and self._is_database(node.func.value)
            and not any(k.arg == "txn" for k in node.keywords)
        ):
            self._add(
                node,
                "PTL008",
                f"Database.{node.func.attr}() called without txn=: it "
                f"falls back to the implicit transaction; pass the "
                f"transaction the mutation runs under "
                f"(or add the module to the PTL008 allowlist with a "
                f"justification in docs/static_analysis.md)",
            )
        self.generic_visit(node)

    def _is_database(self, expr: ast.expr, depth: int = 4) -> bool:
        """Heuristic: does *expr* evaluate to the engine ``Database``?

        True for any ``*.db`` attribute (the conventional handle on
        connections, engines and executors), a direct ``Database(...)``
        constructor call, or a bare name whose reaching definitions
        resolve to either.
        """
        if depth <= 0:
            return False
        if isinstance(expr, ast.Attribute) and expr.attr == "db":
            return True
        if isinstance(expr, ast.Name) and expr.id in ("db", "database"):
            return True
        if isinstance(expr, ast.Call):
            func = expr.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", "")
            if name == "Database":
                return True
        facts = self._facts
        if isinstance(expr, ast.Name) and facts is not None:
            for origin in facts.origins(expr):
                if self._is_database(origin, depth - 1):
                    return True
        return False

    # -- PTL007 ---------------------------------------------------------------

    def _receiver_kind(self, expr: ast.expr, depth: int = 4) -> Optional[str]:
        """Classify what engine object *expr* evaluates to.

        Returns ``"table"`` for ``db.table(...)`` / ``db.tables[...]``,
        ``"catalog"`` for ``*.catalog``, ``"store"`` for
        ``*.column_store()`` — resolving bare names through their
        reaching definitions.
        """
        if depth <= 0:
            return None
        if isinstance(expr, ast.Call) and isinstance(expr.func, ast.Attribute):
            if expr.func.attr == "table":
                return "table"
            if expr.func.attr == "column_store":
                return "store"
        if isinstance(expr, ast.Subscript):
            base = expr.value
            if isinstance(base, ast.Attribute) and base.attr == "tables":
                return "table"
        if isinstance(expr, ast.Attribute) and expr.attr == "catalog":
            return "catalog"
        facts = self._facts
        if isinstance(expr, ast.Name) and facts is not None:
            for origin in facts.origins(expr):
                kind = self._receiver_kind(origin, depth - 1)
                if kind is not None:
                    return kind
        return None

    def _check_state_write(
        self, site: ast.AST, attr_node: ast.Attribute, how: str
    ) -> None:
        """Flag *site* when *attr_node* is protected engine state."""
        kind = self._receiver_kind(attr_node.value)
        if kind == "table" and attr_node.attr in PTL007_TABLE_ATTRS:
            owner = "Table"
        elif kind == "catalog" and attr_node.attr in PTL007_CATALOG_ATTRS:
            owner = "Catalog"
        elif kind == "store" and attr_node.attr in PTL007_STORE_ATTRS:
            owner = "ColumnStore"
        else:
            return
        self._add(
            site,
            "PTL007",
            f"shared engine state {owner}.{attr_node.attr} mutated via "
            f"{how!r} outside its owning module; route the write through "
            f"the storage helpers so WAL logging, undo and data_version "
            f"stay consistent",
        )

    def _check_target_write(self, site: ast.AST, target: ast.expr, how: str) -> None:
        if isinstance(target, ast.Attribute):
            self._check_state_write(site, target, how)
        elif isinstance(target, ast.Subscript) and isinstance(
            target.value, ast.Attribute
        ):
            # e.g. table.rows[rowid] = row
            self._check_state_write(site, target.value, how)
        elif isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                self._check_target_write(site, element, how)

    def visit_Assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            self._check_target_write(node, target, "assignment")
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        self._check_target_write(node, node.target, "augmented assignment")
        self.generic_visit(node)

    def visit_Delete(self, node: ast.Delete) -> None:
        for target in node.targets:
            self._check_target_write(node, target, "del")
        self.generic_visit(node)

    # -- PTL003 ---------------------------------------------------------------

    def visit_ExceptHandler(self, node: ast.ExceptHandler) -> None:
        if node.type is None:
            self._add(
                node,
                "PTL003",
                "bare 'except:' swallows KeyboardInterrupt/SystemExit; "
                "catch a concrete exception class",
            )
        self.generic_visit(node)

    # -- PTL002 ---------------------------------------------------------------

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._visit_function(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._visit_function(node)

    def _visit_function(
        self, node: Union[ast.FunctionDef, ast.AsyncFunctionDef]
    ) -> None:
        facts = analyze(node)
        self._check_cursors(node, facts)
        if isinstance(node, ast.FunctionDef):
            self._check_batch_loops(node)
        self._facts_stack.append(facts)
        self.generic_visit(node)
        self._facts_stack.pop()

    def _check_cursors(self, func: ast.AST, facts: FunctionFacts) -> None:
        """Flag ``x = conn.cursor()`` whose alias group never escapes.

        Opens are collected without descending into nested defs (those get
        their own visit, avoiding double reports); escapes are collected
        from the whole body so a closure closing the cursor counts.  A
        name escapes when it is closed, managed by a ``with`` item, at an
        ownership-transfer position of a return/yield (whole value,
        container element, call argument or receiver — *not* a subscript
        index or arithmetic operand), stored into an attribute/subscript,
        or passed as a direct call argument.  Closing *any* alias of the
        cursor (``c2 = cur; c2.close()``) counts for the whole group.
        """
        opened: dict[str, ast.AST] = {}
        escaped: set[str] = set()

        for node in _walk_no_nested(func):
            if isinstance(node, ast.Assign) and len(node.targets) == 1:
                target = node.targets[0]
                if (
                    isinstance(target, ast.Name)
                    and isinstance(node.value, ast.Call)
                    and isinstance(node.value.func, ast.Attribute)
                    and node.value.func.attr == "cursor"
                ):
                    opened[target.id] = node

        for node in ast.walk(func):
            if isinstance(node, ast.withitem):
                # `with conn.cursor() as cur` or `with closing(cur)`
                escaped.update(escaping_names(node.context_expr))
                if isinstance(node.optional_vars, ast.Name):
                    escaped.add(node.optional_vars.id)
            elif isinstance(node, ast.Call):
                if (
                    isinstance(node.func, ast.Attribute)
                    and node.func.attr == "close"
                    and isinstance(node.func.value, ast.Name)
                ):
                    escaped.add(node.func.value.id)
                # ownership transfer: cursor passed to a helper whole
                for arg in list(node.args) + [k.value for k in node.keywords]:
                    if isinstance(arg, ast.Name):
                        escaped.add(arg.id)
            elif isinstance(node, (ast.Return, ast.Yield, ast.YieldFrom)):
                escaped.update(escaping_names(node.value))
            elif isinstance(node, ast.Assign):
                # stored into an attribute, subscript or container: the
                # object outlives the function
                if any(
                    isinstance(t, (ast.Attribute, ast.Subscript))
                    for t in node.targets
                ):
                    escaped.update(escaping_names(node.value))

        for name, site in opened.items():
            if facts.alias_group(name).isdisjoint(escaped):
                self._add(
                    site,
                    "PTL002",
                    f"cursor {name!r} is never closed, returned or used in a "
                    f"'with' block; wrap it in contextlib.closing() or call "
                    f".close()",
                )

    # -- PTL006 ---------------------------------------------------------------

    def _check_batch_loops(self, func: ast.FunctionDef) -> None:
        """Flag a loop nested inside another loop in a batch-protocol method.

        ``next_batch``/``_produce_batches`` implementations should move one
        batch per outer iteration via vectorized kernels; an inner For/While
        is a per-row Python loop defeating the point of batching.  Classes
        in PTL006_ALLOWED_CLASSES are exempt (justified per-row fallbacks).
        """
        if func.name not in BATCH_METHODS:
            return
        if self._class_stack and self._class_stack[-1] in PTL006_ALLOWED_CLASSES:
            return

        def scan(node: ast.AST, in_loop: bool) -> None:
            for child in ast.iter_child_nodes(node):
                if isinstance(
                    child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
                ):
                    continue
                if isinstance(child, (ast.For, ast.While)):
                    if in_loop:
                        self._add(
                            child,
                            "PTL006",
                            f"per-row loop inside {func.name}(): evaluate the "
                            f"batch with a vectorized kernel, or add the class "
                            f"to the PTL006 allowlist with a justification in "
                            f"docs/static_analysis.md",
                        )
                    scan(child, True)
                else:
                    scan(child, in_loop)

        scan(func, False)


def _is_test_path(path: str) -> bool:
    """Paths allowlisted for PTL007/PTL008 — tests poke engine internals
    legitimately."""
    parts = os.path.normpath(path).split(os.sep)
    if any(p in ("tests", "test") for p in parts[:-1]):
        return True
    base = parts[-1]
    return base.startswith("test_") or base == "conftest.py"


def check_file(path: str) -> list[Violation]:
    """Run every checker over one Python file."""
    with open(path, "r", encoding="utf-8") as fh:
        source = fh.read()
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        return [Violation(path, exc.lineno or 0, "PTL000", f"syntax error: {exc.msg}")]
    checker = _Checker(path)
    checker.visit(tree)
    noqa = _noqa_lines(source)
    is_test = _is_test_path(path)
    owns_engine_state = os.path.basename(path) in PTL007_ALLOWED_MODULES
    owns_txn_plumbing = os.path.basename(path) in PTL008_ALLOWED_MODULES
    out = []
    for v in checker.violations:
        if v.code == "PTL007" and (is_test or owns_engine_state):
            continue
        if v.code == "PTL008" and (is_test or owns_txn_plumbing):
            continue
        codes = noqa.get(v.line, False)
        if codes is False:
            out.append(v)
        elif codes is not None and v.code not in codes:
            out.append(v)
    return sorted(out, key=lambda v: (v.path, v.line, v.code))


def _python_files(paths: Iterable[str]) -> Iterator[str]:
    for path in paths:
        if os.path.isfile(path):
            yield path
            continue
        for root, dirs, files in os.walk(path):
            dirs[:] = [d for d in dirs if d not in ("__pycache__", ".git")]
            for name in sorted(files):
                if name.endswith(".py"):
                    yield os.path.join(root, name)


def check_paths(paths: Iterable[str]) -> list[Violation]:
    """Run every checker over files/directories in *paths*."""
    out: list[Violation] = []
    for path in _python_files(paths):
        out.extend(check_file(path))
    return out
