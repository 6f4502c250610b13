"""Recursive-descent SQL parser for minidb.

Grammar (informal)::

    statement   := select | insert | update | delete | create_table
                 | drop_table | create_index | drop_index
                 | begin | commit | rollback | explain
    select      := SELECT [DISTINCT|ALL] items [FROM source] [WHERE expr]
                   [GROUP BY exprs [HAVING expr]] [compound...]
                   [ORDER BY order_items] [LIMIT expr [OFFSET expr]]
    source      := table_or_sub (join)*
    join        := [INNER|LEFT [OUTER]|CROSS] JOIN table_or_sub [ON expr]
    expr        := or_expr  (standard precedence: OR < AND < NOT <
                   comparison/IN/LIKE/BETWEEN/IS < add < mul < unary < atom)

Expression parsing uses precedence climbing; parameters (``?``/``%s``) are
numbered left-to-right across the whole statement.
"""

from __future__ import annotations

from typing import Optional

from . import ast_nodes as ast
from .errors import SemanticError, SqlSyntaxError
from .lexer import EOF, IDENT, KEYWORD, NUMBER, OP, PARAM, STRING, BLOBLIT, Token, tokenize

_AGGREGATES = frozenset({"COUNT", "SUM", "AVG", "MIN", "MAX", "TOTAL", "GROUP_CONCAT"})


class Parser:
    """Parses one SQL statement (optionally ``;``-terminated)."""

    def __init__(self, sql: str) -> None:
        self.sql = sql
        self.tokens = tokenize(sql)
        self.i = 0
        self.param_count = 0

    # -- token helpers ------------------------------------------------------

    @property
    def cur(self) -> Token:
        return self.tokens[self.i]

    def advance(self) -> Token:
        tok = self.tokens[self.i]
        if tok.kind != EOF:
            self.i += 1
        return tok

    def at(self, kind: str, value: str | None = None) -> bool:
        return self.cur.matches(kind, value)

    def at_keyword(self, *words: str) -> bool:
        return self.cur.kind == KEYWORD and self.cur.value in words

    def accept(self, kind: str, value: str | None = None) -> Optional[Token]:
        if self.at(kind, value):
            return self.advance()
        return None

    def expect(self, kind: str, value: str | None = None) -> Token:
        if not self.at(kind, value):
            want = value or kind
            raise SqlSyntaxError(
                f"expected {want}, found {self.cur.value or 'end of input'!r}",
                self.sql,
                self.cur.pos,
            )
        return self.advance()

    def expect_ident(self) -> str:
        # Non-reserved keywords may be used as identifiers in a pinch; we keep
        # it strict except for a few common schema words.
        if self.cur.kind == IDENT:
            return self.advance().value
        if self.cur.kind == KEYWORD and self.cur.value in ("KEY", "INDEX", "ALL"):
            return self.advance().value.lower()
        raise SqlSyntaxError(
            f"expected identifier, found {self.cur.value or 'end of input'!r}",
            self.sql,
            self.cur.pos,
        )

    # -- entry point --------------------------------------------------------

    def parse(self):
        stmt = self._statement()
        self.accept(OP, ";")
        if not self.at(EOF):
            raise SqlSyntaxError(
                f"unexpected trailing input {self.cur.value!r}", self.sql, self.cur.pos
            )
        return stmt

    def _statement(self):
        if self.at_keyword("SELECT"):
            return self._select()
        if self.at_keyword("INSERT"):
            return self._insert()
        if self.at_keyword("UPDATE"):
            return self._update()
        if self.at_keyword("DELETE"):
            return self._delete()
        if self.at_keyword("CREATE"):
            return self._create()
        if self.at_keyword("DROP"):
            return self._drop()
        if self.at_keyword("BEGIN"):
            self.advance()
            self.accept(KEYWORD, "TRANSACTION")
            return ast.Begin()
        if self.at_keyword("COMMIT"):
            self.advance()
            self.accept(KEYWORD, "TRANSACTION")
            return ast.Commit()
        if self.at_keyword("ROLLBACK"):
            self.advance()
            self.accept(KEYWORD, "TRANSACTION")
            return ast.Rollback()
        if self.at_keyword("EXPLAIN"):
            self.advance()
            analyze = bool(self.accept(KEYWORD, "ANALYZE"))
            if self.accept(KEYWORD, "CHECK"):
                return ast.Check(self._statement())
            if analyze:
                if self.at(EOF) or self.at(OP, ";"):
                    raise SemanticError(
                        "EXPLAIN ANALYZE requires a statement to execute",
                        code="SQL021",
                        location="EXPLAIN ANALYZE",
                        suggestion=(
                            "EXPLAIN ANALYZE SELECT ... to execute and profile a "
                            "statement, or EXPLAIN ANALYZE CHECK <statement> for "
                            "static analysis without executing"
                        ),
                    )
                return ast.ExplainAnalyze(self._statement())
            return ast.Explain(self._statement())
        raise SqlSyntaxError(
            f"unsupported statement start {self.cur.value!r}", self.sql, self.cur.pos
        )

    # -- SELECT -------------------------------------------------------------

    def _select(self) -> ast.Select:
        sel = self._select_clause()
        while self.at_keyword("UNION"):
            self.advance()
            op = "UNION ALL" if self.accept(KEYWORD, "ALL") else "UNION"
            sel.compounds.append((op, self._select_clause()))
        if self.accept(KEYWORD, "ORDER"):
            self.expect(KEYWORD, "BY")
            sel.order_by.append(self._order_item())
            while self.accept(OP, ","):
                sel.order_by.append(self._order_item())
        if self.accept(KEYWORD, "LIMIT"):
            sel.limit = self._expr()
            if self.accept(KEYWORD, "OFFSET"):
                sel.offset = self._expr()
            elif self.accept(OP, ","):  # LIMIT offset, count
                sel.offset = sel.limit
                sel.limit = self._expr()
        return sel

    def _select_clause(self) -> ast.Select:
        self.expect(KEYWORD, "SELECT")
        distinct = False
        if self.accept(KEYWORD, "DISTINCT"):
            distinct = True
        else:
            self.accept(KEYWORD, "ALL")
        items = [self._select_item()]
        while self.accept(OP, ","):
            items.append(self._select_item())
        source = None
        if self.accept(KEYWORD, "FROM"):
            source = self._source()
        where = self._expr() if self.accept(KEYWORD, "WHERE") else None
        group_by: list[ast.Expr] = []
        having = None
        if self.accept(KEYWORD, "GROUP"):
            self.expect(KEYWORD, "BY")
            group_by.append(self._expr())
            while self.accept(OP, ","):
                group_by.append(self._expr())
            if self.accept(KEYWORD, "HAVING"):
                having = self._expr()
        return ast.Select(
            items=items,
            source=source,
            where=where,
            group_by=group_by,
            having=having,
            distinct=distinct,
        )

    def _select_item(self) -> ast.SelectItem:
        if self.at(OP, "*"):
            self.advance()
            return ast.SelectItem(ast.Star())
        # t.* lookahead
        if self.cur.kind == IDENT and self.tokens[self.i + 1].matches(OP, ".") and self.tokens[
            self.i + 2
        ].matches(OP, "*"):
            table = self.advance().value
            self.advance()
            self.advance()
            return ast.SelectItem(ast.Star(table))
        expr = self._expr()
        alias = None
        if self.accept(KEYWORD, "AS"):
            alias = self.expect_ident()
        elif self.cur.kind == IDENT:
            alias = self.advance().value
        return ast.SelectItem(expr, alias)

    def _order_item(self) -> ast.OrderItem:
        expr = self._expr()
        desc = False
        if self.accept(KEYWORD, "DESC"):
            desc = True
        else:
            self.accept(KEYWORD, "ASC")
        return ast.OrderItem(expr, desc)

    def _source(self):
        node = self._table_or_subquery()
        while True:
            kind = None
            if self.accept(KEYWORD, "CROSS"):
                self.expect(KEYWORD, "JOIN")
                kind = "CROSS"
            elif self.accept(KEYWORD, "INNER"):
                self.expect(KEYWORD, "JOIN")
                kind = "INNER"
            elif self.accept(KEYWORD, "LEFT"):
                self.accept(KEYWORD, "OUTER")
                self.expect(KEYWORD, "JOIN")
                kind = "LEFT"
            elif self.at_keyword("RIGHT", "FULL"):
                raise SqlSyntaxError(
                    "RIGHT/FULL OUTER JOIN not supported", self.sql, self.cur.pos
                )
            elif self.accept(KEYWORD, "JOIN"):
                kind = "INNER"
            elif self.accept(OP, ","):
                kind = "CROSS"
            else:
                break
            right = self._table_or_subquery()
            condition = None
            if kind != "CROSS" and self.accept(KEYWORD, "ON"):
                condition = self._expr()
            elif kind != "CROSS":
                raise SqlSyntaxError("JOIN requires ON clause", self.sql, self.cur.pos)
            node = ast.Join(kind, node, right, condition)
        return node

    def _table_or_subquery(self):
        if self.accept(OP, "("):
            sel = self._select()
            self.expect(OP, ")")
            self.accept(KEYWORD, "AS")
            alias = self.expect_ident()
            return ast.SubqueryRef(sel, alias)
        name = self.expect_ident()
        alias = None
        if self.accept(KEYWORD, "AS"):
            alias = self.expect_ident()
        elif self.cur.kind == IDENT:
            alias = self.advance().value
        return ast.TableRef(name, alias)

    # -- INSERT / UPDATE / DELETE --------------------------------------------

    def _insert(self) -> ast.Insert:
        self.expect(KEYWORD, "INSERT")
        self.expect(KEYWORD, "INTO")
        table = self.expect_ident()
        columns: list[str] = []
        if self.accept(OP, "("):
            columns.append(self.expect_ident())
            while self.accept(OP, ","):
                columns.append(self.expect_ident())
            self.expect(OP, ")")
        if self.at_keyword("SELECT"):
            return ast.Insert(table, columns, select=self._select())
        self.expect(KEYWORD, "VALUES")
        rows: list[list[ast.Expr]] = []
        while True:
            self.expect(OP, "(")
            row = [self._expr()]
            while self.accept(OP, ","):
                row.append(self._expr())
            self.expect(OP, ")")
            rows.append(row)
            if not self.accept(OP, ","):
                break
        return ast.Insert(table, columns, rows=rows)

    def _update(self) -> ast.Update:
        self.expect(KEYWORD, "UPDATE")
        table = self.expect_ident()
        self.expect(KEYWORD, "SET")
        assignments: list[tuple[str, ast.Expr]] = []
        while True:
            col = self.expect_ident()
            self.expect(OP, "=")
            assignments.append((col, self._expr()))
            if not self.accept(OP, ","):
                break
        where = self._expr() if self.accept(KEYWORD, "WHERE") else None
        return ast.Update(table, assignments, where)

    def _delete(self) -> ast.Delete:
        self.expect(KEYWORD, "DELETE")
        self.expect(KEYWORD, "FROM")
        table = self.expect_ident()
        where = self._expr() if self.accept(KEYWORD, "WHERE") else None
        return ast.Delete(table, where)

    # -- DDL ------------------------------------------------------------------

    def _create(self):
        self.expect(KEYWORD, "CREATE")
        unique = bool(self.accept(KEYWORD, "UNIQUE"))
        if self.accept(KEYWORD, "INDEX"):
            ine = self._if_not_exists()
            name = self.expect_ident()
            self.expect(KEYWORD, "ON")
            table = self.expect_ident()
            self.expect(OP, "(")
            cols = [self.expect_ident()]
            while self.accept(OP, ","):
                cols.append(self.expect_ident())
            self.expect(OP, ")")
            return ast.CreateIndex(name, table, cols, unique=unique, if_not_exists=ine)
        if unique:
            raise SqlSyntaxError("expected INDEX after CREATE UNIQUE", self.sql, self.cur.pos)
        self.expect(KEYWORD, "TABLE")
        ine = self._if_not_exists()
        name = self.expect_ident()
        self.expect(OP, "(")
        stmt = ast.CreateTable(name, [], if_not_exists=ine)
        while True:
            if self.at_keyword("PRIMARY"):
                self.advance()
                self.expect(KEYWORD, "KEY")
                self.expect(OP, "(")
                pk = [self.expect_ident()]
                while self.accept(OP, ","):
                    pk.append(self.expect_ident())
                self.expect(OP, ")")
                stmt.primary_key = pk
            elif self.at_keyword("UNIQUE"):
                self.advance()
                self.expect(OP, "(")
                uq = [self.expect_ident()]
                while self.accept(OP, ","):
                    uq.append(self.expect_ident())
                self.expect(OP, ")")
                stmt.uniques.append(uq)
            elif self.at_keyword("FOREIGN"):
                self.advance()
                self.expect(KEYWORD, "KEY")
                self.expect(OP, "(")
                local = [self.expect_ident()]
                while self.accept(OP, ","):
                    local.append(self.expect_ident())
                self.expect(OP, ")")
                self.expect(KEYWORD, "REFERENCES")
                ref_table = self.expect_ident()
                ref_cols: list[str] = []
                if self.accept(OP, "("):
                    ref_cols.append(self.expect_ident())
                    while self.accept(OP, ","):
                        ref_cols.append(self.expect_ident())
                    self.expect(OP, ")")
                stmt.foreign_keys.append((local, ref_table, ref_cols))
            elif self.at_keyword("CONSTRAINT"):
                self.advance()
                self.expect_ident()  # constraint name, then recurse on same loop
                continue
            else:
                stmt.columns.append(self._column_def())
            if not self.accept(OP, ","):
                break
        self.expect(OP, ")")
        return stmt

    def _if_not_exists(self) -> bool:
        if self.accept(KEYWORD, "IF"):
            self.expect(KEYWORD, "NOT")
            self.expect(KEYWORD, "EXISTS")
            return True
        return False

    def _column_def(self) -> ast.ColumnDef:
        name = self.expect_ident()
        type_parts = []
        # Type name: one or two identifiers/keywords (e.g. DOUBLE PRECISION),
        # optionally parenthesised size.
        while self.cur.kind == IDENT and not self._starts_column_constraint():
            type_parts.append(self.advance().value)
            if self.at(OP, "("):
                self.advance()
                size = [self.expect(NUMBER).value]
                while self.accept(OP, ","):
                    size.append(self.expect(NUMBER).value)
                self.expect(OP, ")")
                type_parts[-1] += f"({','.join(size)})"
                break
            if len(type_parts) == 2:
                break
        col = ast.ColumnDef(name, " ".join(type_parts) or "NUMERIC")
        while True:
            if self.accept(KEYWORD, "PRIMARY"):
                self.expect(KEYWORD, "KEY")
                col.primary_key = True
                if self.accept(KEYWORD, "AUTOINCREMENT"):
                    col.autoincrement = True
            elif self.accept(KEYWORD, "NOT"):
                self.expect(KEYWORD, "NULL")
                col.not_null = True
            elif self.accept(KEYWORD, "NULL"):
                pass
            elif self.accept(KEYWORD, "UNIQUE"):
                col.unique = True
            elif self.accept(KEYWORD, "DEFAULT"):
                col.default = self._atom()
            elif self.accept(KEYWORD, "REFERENCES"):
                ref_table = self.expect_ident()
                ref_col = None
                if self.accept(OP, "("):
                    ref_col = self.expect_ident()
                    self.expect(OP, ")")
                col.references = (ref_table, ref_col)
            elif self.accept(KEYWORD, "CHECK"):
                # Parse and discard (documented as unenforced).
                self.expect(OP, "(")
                depth = 1
                while depth:
                    tok = self.advance()
                    if tok.kind == EOF:
                        raise SqlSyntaxError("unterminated CHECK", self.sql, tok.pos)
                    if tok.matches(OP, "("):
                        depth += 1
                    elif tok.matches(OP, ")"):
                        depth -= 1
            else:
                break
        return col

    def _starts_column_constraint(self) -> bool:
        return self.at_keyword(
            "PRIMARY", "NOT", "NULL", "UNIQUE", "DEFAULT", "REFERENCES", "CHECK"
        )

    def _drop(self):
        self.expect(KEYWORD, "DROP")
        if self.accept(KEYWORD, "TABLE"):
            if_exists = self._if_exists()
            return ast.DropTable(self.expect_ident(), if_exists)
        if self.accept(KEYWORD, "INDEX"):
            if_exists = self._if_exists()
            return ast.DropIndex(self.expect_ident(), if_exists)
        raise SqlSyntaxError("expected TABLE or INDEX after DROP", self.sql, self.cur.pos)

    def _if_exists(self) -> bool:
        if self.accept(KEYWORD, "IF"):
            self.expect(KEYWORD, "EXISTS")
            return True
        return False

    # -- expressions ----------------------------------------------------------

    def _expr(self) -> ast.Expr:
        return self._or()

    def _or(self) -> ast.Expr:
        left = self._and()
        while self.accept(KEYWORD, "OR"):
            left = ast.Binary("OR", left, self._and())
        return left

    def _and(self) -> ast.Expr:
        left = self._not()
        while self.accept(KEYWORD, "AND"):
            left = ast.Binary("AND", left, self._not())
        return left

    def _not(self) -> ast.Expr:
        if self.accept(KEYWORD, "NOT"):
            return ast.Unary("NOT", self._not())
        return self._comparison()

    def _comparison(self) -> ast.Expr:
        left = self._additive()
        while True:
            negated = False
            if self.at_keyword("NOT") and self.tokens[self.i + 1].kind == KEYWORD and self.tokens[
                self.i + 1
            ].value in ("LIKE", "IN", "BETWEEN", "GLOB"):
                self.advance()
                negated = True
            if self.at(OP) and self.cur.value in ("=", "<>", "<", "<=", ">", ">="):
                op = self.advance().value
                left = ast.Binary(op, left, self._additive())
                continue
            if self.accept(KEYWORD, "LIKE"):
                pattern = self._additive()
                escape = None
                if self.accept(KEYWORD, "ESCAPE"):
                    escape = self._additive()
                left = ast.Like(left, pattern, negated, escape)
                continue
            if self.accept(KEYWORD, "BETWEEN"):
                low = self._additive()
                self.expect(KEYWORD, "AND")
                high = self._additive()
                left = ast.Between(left, low, high, negated)
                continue
            if self.accept(KEYWORD, "IN"):
                self.expect(OP, "(")
                if self.at_keyword("SELECT"):
                    sel = self._select()
                    self.expect(OP, ")")
                    left = ast.InSelect(left, sel, negated)
                else:
                    items: list[ast.Expr] = []
                    if not self.at(OP, ")"):
                        tokens = self.tokens
                        while True:
                            # A bare placeholder (the chunked IN (?, …)
                            # probes) skips the descent through the
                            # precedence levels.
                            nxt = tokens[self.i + 1] if tokens[self.i].kind == PARAM else None
                            if nxt is not None and nxt.kind == OP and nxt.value in (",", ")"):
                                self.i += 1
                                items.append(ast.Parameter(self.param_count))
                                self.param_count += 1
                            else:
                                items.append(self._expr())
                            if not self.accept(OP, ","):
                                break
                    self.expect(OP, ")")
                    left = ast.InList(left, items, negated)
                continue
            if self.accept(KEYWORD, "IS"):
                neg = bool(self.accept(KEYWORD, "NOT"))
                self.expect(KEYWORD, "NULL")
                left = ast.IsNull(left, neg)
                continue
            if negated:
                raise SqlSyntaxError(
                    "expected LIKE/IN/BETWEEN after NOT", self.sql, self.cur.pos
                )
            return left

    def _additive(self) -> ast.Expr:
        left = self._multiplicative()
        while self.at(OP) and self.cur.value in ("+", "-", "||"):
            op = self.advance().value
            left = ast.Binary(op, left, self._multiplicative())
        return left

    def _multiplicative(self) -> ast.Expr:
        left = self._unary()
        while self.at(OP) and self.cur.value in ("*", "/", "%"):
            op = self.advance().value
            left = ast.Binary(op, left, self._unary())
        return left

    def _unary(self) -> ast.Expr:
        if self.at(OP) and self.cur.value in ("-", "+"):
            op = self.advance().value
            return ast.Unary(op, self._unary())
        return self._atom()

    def _atom(self) -> ast.Expr:
        tok = self.cur
        if tok.kind == NUMBER:
            self.advance()
            text = tok.value
            if "." in text or "e" in text or "E" in text:
                return ast.Literal(float(text))
            return ast.Literal(int(text))
        if tok.kind == STRING:
            self.advance()
            return ast.Literal(tok.value)
        if tok.kind == BLOBLIT:
            self.advance()
            return ast.Literal(bytes.fromhex(tok.value))
        if tok.kind == PARAM:
            self.advance()
            p = ast.Parameter(self.param_count)
            self.param_count += 1
            return p
        if tok.matches(KEYWORD, "NULL"):
            self.advance()
            return ast.Literal(None)
        if tok.matches(KEYWORD, "TRUE"):
            self.advance()
            return ast.Literal(True)
        if tok.matches(KEYWORD, "FALSE"):
            self.advance()
            return ast.Literal(False)
        if tok.matches(KEYWORD, "CASE"):
            return self._case()
        if tok.matches(KEYWORD, "CAST"):
            self.advance()
            self.expect(OP, "(")
            operand = self._expr()
            self.expect(KEYWORD, "AS")
            type_parts = [self.expect_ident()]
            while self.cur.kind == IDENT:
                type_parts.append(self.advance().value)
            if self.accept(OP, "("):
                self.expect(NUMBER)
                while self.accept(OP, ","):
                    self.expect(NUMBER)
                self.expect(OP, ")")
            self.expect(OP, ")")
            return ast.Cast(operand, " ".join(type_parts))
        if tok.matches(KEYWORD, "EXISTS"):
            self.advance()
            self.expect(OP, "(")
            sel = self._select()
            self.expect(OP, ")")
            return ast.Exists(sel)
        if tok.matches(OP, "("):
            self.advance()
            if self.at_keyword("SELECT"):
                sel = self._select()
                self.expect(OP, ")")
                return ast.ScalarSelect(sel)
            expr = self._expr()
            self.expect(OP, ")")
            return expr
        if tok.kind == IDENT:
            name = self.advance().value
            if self.at(OP, "("):
                return self._func_call(name)
            if self.accept(OP, "."):
                if self.accept(OP, "*"):
                    return ast.Star(name)
                col = self.expect_ident()
                return ast.ColumnRef(name, col)
            return ast.ColumnRef(None, name)
        raise SqlSyntaxError(
            f"unexpected token {tok.value or 'end of input'!r} in expression",
            self.sql,
            tok.pos,
        )

    def _func_call(self, name: str) -> ast.Expr:
        self.expect(OP, "(")
        upper = name.upper()
        distinct = False
        star = False
        args: list[ast.Expr] = []
        if self.accept(OP, "*"):
            star = True
        elif not self.at(OP, ")"):
            if self.accept(KEYWORD, "DISTINCT"):
                distinct = True
            args.append(self._expr())
            while self.accept(OP, ","):
                args.append(self._expr())
        self.expect(OP, ")")
        if star and upper != "COUNT":
            raise SqlSyntaxError(f"{name}(*) is only valid for COUNT", self.sql, self.cur.pos)
        return ast.FuncCall(upper, args, distinct=distinct, star=star)

    def _case(self) -> ast.Expr:
        self.expect(KEYWORD, "CASE")
        operand = None
        if not self.at_keyword("WHEN"):
            operand = self._expr()
        whens: list[tuple[ast.Expr, ast.Expr]] = []
        while self.accept(KEYWORD, "WHEN"):
            cond = self._expr()
            self.expect(KEYWORD, "THEN")
            whens.append((cond, self._expr()))
        default = None
        if self.accept(KEYWORD, "ELSE"):
            default = self._expr()
        self.expect(KEYWORD, "END")
        if not whens:
            raise SqlSyntaxError("CASE requires at least one WHEN", self.sql, self.cur.pos)
        return ast.Case(operand, whens, default)


def parse(sql: str):
    """Parse a single SQL statement; returns an AST statement node."""
    return Parser(sql).parse()


def fingerprint(sql: str) -> str:
    """Normalized statement text for per-fingerprint profiling.

    The statement profiler (:mod:`repro.obs.profiler`) aggregates stats by
    fingerprint, so two executions of the "same" statement must normalize
    to the same string — a ``pg_stat_statements``-style queryid.  Rules:

    * number/string/blob literals and ``?``/``%s`` parameters all become
      ``?`` (so ``WHERE id = 7`` and ``WHERE id = ?`` aggregate together),
    * comma-separated runs of ``?`` inside parentheses collapse to one
      ``?`` (``IN (1, 2, 3)`` and ``IN (?)`` fingerprint identically, so
      loader-generated IN-lists of any width share one entry),
    * keywords uppercase, unquoted identifiers lowercase,
    * comments and whitespace differences disappear (tokens are re-joined
      with single spaces).

    Unparseable text falls back to whitespace-collapsed SQL so callers can
    fingerprint defensively.
    """
    try:
        tokens = tokenize(sql)
    except SqlSyntaxError:
        return " ".join(sql.split())
    out: list[str] = []
    for tok in tokens:
        if tok.kind == EOF:
            break
        if tok.kind in (NUMBER, STRING, BLOBLIT, PARAM):
            # Collapse "( ?, ?, ..." runs as they form: seeing "?" right
            # after "?" + "," where the run started at "(" drops the pair.
            if (
                len(out) >= 3
                and out[-1] == ","
                and out[-2] == "?"
                and (out[-3] == "(" or out[-3] == ",")
            ):
                out.pop()  # the "," — the new "?" merges into the run
                continue
            out.append("?")
        elif tok.kind == KEYWORD:
            out.append(tok.value.upper())
        elif tok.kind == IDENT:
            out.append(tok.value.lower())
        else:
            out.append(tok.value)
    return " ".join(out)


def is_aggregate_call(expr: ast.Expr) -> bool:
    return isinstance(expr, ast.FuncCall) and expr.name in _AGGREGATES


AGGREGATE_NAMES = _AGGREGATES
