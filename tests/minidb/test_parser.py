"""SQL parser tests: statement shapes and error reporting."""

import pytest

from repro.minidb import ast_nodes as ast
from repro.minidb.errors import SqlSyntaxError
from repro.minidb.parser import parse


class TestSelectParsing:
    def test_simple_select(self):
        stmt = parse("SELECT a, b FROM t")
        assert isinstance(stmt, ast.Select)
        assert len(stmt.items) == 2
        assert stmt.source.name == "t"

    def test_select_star(self):
        stmt = parse("SELECT * FROM t")
        assert isinstance(stmt.items[0].expr, ast.Star)

    def test_select_qualified_star(self):
        stmt = parse("SELECT t.* FROM t")
        assert stmt.items[0].expr.table == "t"

    def test_alias_with_and_without_as(self):
        stmt = parse("SELECT a AS x, b y FROM t")
        assert stmt.items[0].alias == "x"
        assert stmt.items[1].alias == "y"

    def test_table_alias(self):
        stmt = parse("SELECT r.id FROM resource_item r")
        assert stmt.source.alias == "r"

    def test_where_clause(self):
        stmt = parse("SELECT a FROM t WHERE a > 1 AND b = 'x'")
        assert isinstance(stmt.where, ast.Binary)
        assert stmt.where.op == "AND"

    def test_group_by_having(self):
        stmt = parse("SELECT a, COUNT(*) FROM t GROUP BY a HAVING COUNT(*) > 2")
        assert len(stmt.group_by) == 1
        assert stmt.having is not None

    def test_order_by_desc_and_limit_offset(self):
        stmt = parse("SELECT a FROM t ORDER BY a DESC, b LIMIT 5 OFFSET 3")
        assert stmt.order_by[0].descending is True
        assert stmt.order_by[1].descending is False
        assert stmt.limit.value == 5
        assert stmt.offset.value == 3

    def test_limit_comma_syntax(self):
        stmt = parse("SELECT a FROM t LIMIT 3, 5")
        assert stmt.offset.value == 3
        assert stmt.limit.value == 5

    def test_distinct(self):
        assert parse("SELECT DISTINCT a FROM t").distinct is True

    def test_union_and_union_all(self):
        stmt = parse("SELECT a FROM t UNION SELECT a FROM u UNION ALL SELECT a FROM v")
        assert [op for op, _s in stmt.compounds] == ["UNION", "UNION ALL"]

    def test_join_on(self):
        stmt = parse("SELECT * FROM a JOIN b ON a.id = b.aid LEFT JOIN c ON c.bid = b.id")
        assert isinstance(stmt.source, ast.Join)
        assert stmt.source.kind == "LEFT"
        assert stmt.source.left.kind == "INNER"

    def test_join_requires_on(self):
        with pytest.raises(SqlSyntaxError):
            parse("SELECT * FROM a JOIN b")

    def test_cross_join_comma(self):
        stmt = parse("SELECT * FROM a, b")
        assert stmt.source.kind == "CROSS"

    def test_subquery_in_from(self):
        stmt = parse("SELECT x FROM (SELECT a AS x FROM t) sub")
        assert isinstance(stmt.source, ast.SubqueryRef)
        assert stmt.source.alias == "sub"

    def test_right_join_rejected(self):
        with pytest.raises(SqlSyntaxError):
            parse("SELECT * FROM a RIGHT JOIN b ON a.x = b.x")


class TestExpressionParsing:
    def _expr(self, text):
        return parse(f"SELECT {text}").items[0].expr

    def test_precedence_mul_over_add(self):
        e = self._expr("1 + 2 * 3")
        assert e.op == "+"
        assert e.right.op == "*"

    def test_precedence_and_over_or(self):
        e = self._expr("a OR b AND c")
        assert e.op == "OR"
        assert e.right.op == "AND"

    def test_not(self):
        e = self._expr("NOT a = 1")
        assert isinstance(e, ast.Unary)
        assert e.op == "NOT"

    def test_between(self):
        e = self._expr("a BETWEEN 1 AND 5")
        assert isinstance(e, ast.Between)

    def test_not_between(self):
        e = self._expr("a NOT BETWEEN 1 AND 5")
        assert e.negated is True

    def test_in_list(self):
        e = self._expr("a IN (1, 2, 3)")
        assert isinstance(e, ast.InList)
        assert len(e.items) == 3

    @pytest.mark.parametrize(
        "items",
        ["?, 1, ?+1, ?", "?", "?, ?, ?", "1, ?", "? * 2, ?", "?, -?, ? || 'x'", "?, ? IS NULL, ?"],
    )
    def test_placeholder_items_parse_like_the_general_path(self, items):
        # A bare `?` item skips the descent through the precedence levels;
        # `(?)` parses through all of them.  The trees, parameter indices
        # included, must be equal.
        sql = f"SELECT * FROM t WHERE a IN ({items}) AND b = ? OR c NOT IN (?)"
        assert parse(sql) == parse(sql.replace("?", "(?)"))

    def test_not_in_subquery(self):
        e = self._expr("a NOT IN (SELECT b FROM t)")
        assert isinstance(e, ast.InSelect)
        assert e.negated is True

    def test_like_with_escape(self):
        e = self._expr("a LIKE 'x%' ESCAPE '!'")
        assert isinstance(e, ast.Like)
        assert e.escape is not None

    def test_is_null_and_is_not_null(self):
        assert self._expr("a IS NULL").negated is False
        assert self._expr("a IS NOT NULL").negated is True

    def test_case_searched(self):
        e = self._expr("CASE WHEN a > 1 THEN 'big' ELSE 'small' END")
        assert isinstance(e, ast.Case)
        assert e.operand is None

    def test_case_simple(self):
        e = self._expr("CASE a WHEN 1 THEN 'one' END")
        assert e.operand is not None

    def test_exists(self):
        e = self._expr("EXISTS (SELECT 1 FROM t)")
        assert isinstance(e, ast.Exists)

    def test_scalar_subquery(self):
        e = self._expr("(SELECT MAX(x) FROM t)")
        assert isinstance(e, ast.ScalarSelect)

    def test_count_star(self):
        e = self._expr("COUNT(*)")
        assert e.star is True

    def test_count_distinct(self):
        e = self._expr("COUNT(DISTINCT a)")
        assert e.distinct is True

    def test_star_only_valid_for_count(self):
        with pytest.raises(SqlSyntaxError):
            parse("SELECT SUM(*)")

    def test_parameters_numbered_left_to_right(self):
        stmt = parse("SELECT ? , ? FROM t WHERE a = ?")
        assert stmt.items[0].expr.index == 0
        assert stmt.items[1].expr.index == 1
        assert stmt.where.right.index == 2

    def test_unary_minus(self):
        e = self._expr("-5")
        assert isinstance(e, ast.Unary)

    def test_concat(self):
        e = self._expr("a || b")
        assert e.op == "||"


class TestDDLParsing:
    def test_create_table_with_constraints(self):
        stmt = parse(
            "CREATE TABLE t (id INTEGER PRIMARY KEY, name TEXT NOT NULL UNIQUE, "
            "v REAL DEFAULT 1.5, fk INTEGER REFERENCES u(id))"
        )
        assert stmt.columns[0].primary_key
        assert stmt.columns[1].not_null and stmt.columns[1].unique
        assert stmt.columns[2].default.value == 1.5
        assert stmt.columns[3].references == ("u", "id")

    def test_composite_primary_key(self):
        stmt = parse("CREATE TABLE t (a INTEGER, b INTEGER, PRIMARY KEY (a, b))")
        assert stmt.primary_key == ["a", "b"]

    def test_table_level_unique_and_fk(self):
        stmt = parse(
            "CREATE TABLE t (a INTEGER, b INTEGER, UNIQUE (a, b), "
            "FOREIGN KEY (a) REFERENCES u (x))"
        )
        assert stmt.uniques == [["a", "b"]]
        assert stmt.foreign_keys == [(["a"], "u", ["x"])]

    def test_if_not_exists(self):
        assert parse("CREATE TABLE IF NOT EXISTS t (a INTEGER)").if_not_exists

    def test_create_unique_index(self):
        stmt = parse("CREATE UNIQUE INDEX i ON t (a, b)")
        assert stmt.unique and stmt.columns == ["a", "b"]

    def test_drop_table_if_exists(self):
        stmt = parse("DROP TABLE IF EXISTS t")
        assert stmt.if_exists

    def test_varchar_size(self):
        stmt = parse("CREATE TABLE t (s VARCHAR(80))")
        assert stmt.columns[0].type_name == "VARCHAR(80)"


class TestDMLParsing:
    def test_insert_multi_row(self):
        stmt = parse("INSERT INTO t (a, b) VALUES (1, 2), (3, 4)")
        assert stmt.columns == ["a", "b"]
        assert len(stmt.rows) == 2

    def test_insert_select(self):
        stmt = parse("INSERT INTO t (a) SELECT b FROM u")
        assert stmt.select is not None

    def test_update(self):
        stmt = parse("UPDATE t SET a = 1, b = b + 1 WHERE id = 3")
        assert len(stmt.assignments) == 2
        assert stmt.where is not None

    def test_delete(self):
        stmt = parse("DELETE FROM t WHERE a < 0")
        assert stmt.table == "t"

    def test_transaction_statements(self):
        assert isinstance(parse("BEGIN"), ast.Begin)
        assert isinstance(parse("BEGIN TRANSACTION"), ast.Begin)
        assert isinstance(parse("COMMIT"), ast.Commit)
        assert isinstance(parse("ROLLBACK"), ast.Rollback)

    def test_explain(self):
        stmt = parse("EXPLAIN SELECT 1")
        assert isinstance(stmt, ast.Explain)


class TestParserErrors:
    def test_trailing_garbage(self):
        with pytest.raises(SqlSyntaxError):
            parse("SELECT 1 GARBAGE EXTRA")

    def test_unknown_statement(self):
        with pytest.raises(SqlSyntaxError):
            parse("FROBNICATE t")

    def test_missing_from_table(self):
        with pytest.raises(SqlSyntaxError):
            parse("SELECT a FROM")

    def test_empty_case(self):
        with pytest.raises(SqlSyntaxError):
            parse("SELECT CASE END")

    def test_semicolon_accepted(self):
        assert isinstance(parse("SELECT 1;"), ast.Select)
