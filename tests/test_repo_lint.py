"""Tests for the repo lint harness (tools/lint): the PTL001-PTL007 checkers."""

import textwrap

from tools.lint.checks import check_file, check_paths


def lint_source(tmp_path, source):
    path = tmp_path / "mod.py"
    path.write_text(textwrap.dedent(source))
    return check_file(str(path))


# ------------------------------------------------------------------- PTL001


def test_interpolated_sql_flagged(tmp_path):
    violations = lint_source(
        tmp_path,
        '''
        def bad(cur, name):
            cur.execute(f"SELECT * FROM emp WHERE name = '{name}'")
        ''',
    )
    assert [v.code for v in violations] == ["PTL001"]
    assert "name" in violations[0].message


def test_uppercase_constant_interpolation_allowed(tmp_path):
    violations = lint_source(
        tmp_path,
        '''
        COLS = "id, name"

        class Store:
            _FROM = "emp e JOIN dept d ON e.dept = d.id"

            def ok(self, cur, eid):
                cur.execute(f"SELECT {COLS} FROM {self._FROM} WHERE id = ?", (eid,))
        ''',
    )
    assert violations == []


def test_percent_and_format_sql_flagged(tmp_path):
    violations = lint_source(
        tmp_path,
        '''
        def bad(cur, table, name):
            cur.query("SELECT * FROM %s" % table)
            cur.query_one("SELECT * FROM {}".format(table))
        ''',
    )
    assert [v.code for v in violations] == ["PTL001", "PTL001"]


def test_noqa_suppresses_named_code(tmp_path):
    violations = lint_source(
        tmp_path,
        '''
        def audited(cur, marks):
            cur.execute(f"SELECT * FROM t WHERE id IN ({marks})")  # noqa: PTL001
        ''',
    )
    assert violations == []


def test_noqa_other_code_does_not_suppress(tmp_path):
    violations = lint_source(
        tmp_path,
        '''
        def audited(cur, marks):
            cur.execute(f"SELECT * FROM t WHERE id IN ({marks})")  # noqa: PTL999
        ''',
    )
    assert [v.code for v in violations] == ["PTL001"]


def test_plain_placeholder_sql_clean(tmp_path):
    violations = lint_source(
        tmp_path,
        '''
        def good(cur, name):
            cur.execute("SELECT * FROM emp WHERE name = ?", (name,))
        ''',
    )
    assert violations == []


# ------------------------------------------------- PTL001 (dataflow-aware)


def test_sql_built_in_variable_flagged_at_sink(tmp_path):
    violations = lint_source(
        tmp_path,
        '''
        def bad(cur, name):
            sql = f"SELECT * FROM emp WHERE name = '{name}'"
            cur.execute(sql)
        ''',
    )
    assert [v.code for v in violations] == ["PTL001"]
    # Reported at the sink (line 4 of the dedented source) so a
    # `# noqa: PTL001` on the execute call keeps working.
    assert violations[0].line == 4
    assert "'sql'" in violations[0].message


def test_sql_variable_flagged_through_copy_chain(tmp_path):
    violations = lint_source(
        tmp_path,
        '''
        def bad(cur, table):
            a = "SELECT * FROM " + table
            b = a
            cur.query(b)
        ''',
    )
    assert [v.code for v in violations] == ["PTL001"]


def test_sql_variable_rebound_to_literal_clean(tmp_path):
    # Flow-sensitivity: only the definition reaching the sink matters.
    violations = lint_source(
        tmp_path,
        '''
        def ok(cur, name):
            sql = f"SELECT {name}"
            sql = "SELECT * FROM emp WHERE name = ?"
            cur.execute(sql, (name,))
        ''',
    )
    assert violations == []


def test_sql_variable_tainted_in_one_branch_flagged(tmp_path):
    # Either branch may reach the sink: the tainted one flags.
    violations = lint_source(
        tmp_path,
        '''
        def bad(cur, name, fancy):
            if fancy:
                sql = f"SELECT * FROM emp WHERE name = '{name}'"
            else:
                sql = "SELECT * FROM emp"
            cur.execute(sql)
        ''',
    )
    assert [v.code for v in violations] == ["PTL001"]


def test_sql_variable_from_constant_interpolation_clean(tmp_path):
    violations = lint_source(
        tmp_path,
        '''
        COLS = "id, name"

        def ok(cur):
            sql = f"SELECT {COLS} FROM emp"
            cur.execute(sql)
        ''',
    )
    assert violations == []


def test_sql_variable_noqa_at_sink_suppresses(tmp_path):
    violations = lint_source(
        tmp_path,
        '''
        def audited(cur, marks):
            sql = f"SELECT * FROM t WHERE id IN ({marks})"
            cur.execute(sql)  # noqa: PTL001
        ''',
    )
    assert violations == []


# ------------------------------------------------------------------- PTL002


def test_unclosed_cursor_flagged(tmp_path):
    violations = lint_source(
        tmp_path,
        '''
        def leak(conn):
            cur = conn.cursor()
            cur.execute("SELECT 1")
            return cur.fetchall()
        ''',
    )
    # `cur` appears in the return expression, so it escapes -> clean; a
    # genuinely leaked cursor is flagged:
    violations = lint_source(
        tmp_path,
        '''
        def leak(conn):
            cur = conn.cursor()
            cur.execute("SELECT 1")
            rows = cur.fetchall()
            return rows
        ''',
    )
    assert [v.code for v in violations] == ["PTL002"]
    assert "cur" in violations[0].message


def test_closed_returned_or_with_cursor_clean(tmp_path):
    violations = lint_source(
        tmp_path,
        '''
        from contextlib import closing

        def a(conn):
            cur = conn.cursor()
            try:
                cur.execute("SELECT 1")
            finally:
                cur.close()

        def b(conn):
            cur = conn.cursor()
            return cur

        def c(conn):
            with closing(conn.cursor()) as cur:
                cur.execute("SELECT 1")

        def d(conn):
            cur = conn.cursor()
            with closing(cur):
                cur.execute("SELECT 1")
        ''',
    )
    assert violations == []


# -------------------------------------------------- PTL002 (alias-aware)


def test_cursor_closed_via_alias_clean(tmp_path):
    violations = lint_source(
        tmp_path,
        '''
        def ok(conn):
            cur = conn.cursor()
            c2 = cur
            c2.close()
        ''',
    )
    assert violations == []


def test_cursor_returned_via_alias_clean(tmp_path):
    violations = lint_source(
        tmp_path,
        '''
        def ok(conn):
            cur = conn.cursor()
            alias = cur
            return alias
        ''',
    )
    assert violations == []


def test_cursor_stored_on_self_clean(tmp_path):
    # Stored into an attribute: ownership moved to the object.
    violations = lint_source(
        tmp_path,
        '''
        class Holder:
            def open(self, conn):
                cur = conn.cursor()
                self._cur = cur
        ''',
    )
    assert violations == []


def test_cursor_passed_to_helper_clean(tmp_path):
    violations = lint_source(
        tmp_path,
        '''
        def ok(conn):
            cur = conn.cursor()
            register_for_cleanup(cur)
        ''',
    )
    assert violations == []


def test_cursor_name_in_subscript_index_still_flagged(tmp_path):
    # The shrunk escape heuristic: a name used only as data (an index,
    # an operand) does not transfer ownership of the cursor.
    violations = lint_source(
        tmp_path,
        '''
        def leak(conn, rows):
            cur = conn.cursor()
            cur.execute("SELECT 1")
            return rows[cur.rowcount]
        ''',
    )
    assert [v.code for v in violations] == ["PTL002"]


# ------------------------------------------------------------------- PTL003


def test_bare_except_flagged(tmp_path):
    violations = lint_source(
        tmp_path,
        '''
        def swallow():
            try:
                risky()
            except:
                pass
        ''',
    )
    assert [v.code for v in violations] == ["PTL003"]


def test_typed_except_clean(tmp_path):
    violations = lint_source(
        tmp_path,
        '''
        def ok():
            try:
                risky()
            except (KeyError, ValueError):
                pass
        ''',
    )
    assert violations == []


# ------------------------------------------------------------------ repo-wide


def test_repo_is_clean():
    """The gate CI enforces: src/repro and tools carry no PTL violations."""
    assert check_paths(["src/repro", "tools"]) == []


def test_syntax_error_reported_not_crashed(tmp_path):
    path = tmp_path / "broken.py"
    path.write_text("def broken(:\n")
    violations = check_file(str(path))
    assert [v.code for v in violations] == ["PTL000"]


# ------------------------------------------------------------------- PTL004


def test_time_time_flagged(tmp_path):
    violations = lint_source(
        tmp_path,
        """\
        import time

        def stamp():
            return time.time()
        """,
    )
    assert [v.code for v in violations] == ["PTL004"]
    assert "obs.clock" in violations[0].message


def test_time_time_noqa_suppressed(tmp_path):
    violations = lint_source(
        tmp_path,
        """\
        import time

        def stamp():
            return time.time()  # noqa: PTL004
        """,
    )
    assert violations == []


def test_perf_counter_and_other_attrs_clean(tmp_path):
    violations = lint_source(
        tmp_path,
        """\
        import time

        def tick(clock):
            return time.perf_counter() + time.monotonic() + clock.time_ms()
        """,
    )
    assert violations == []


# ------------------------------------------------------------------- PTL006


def test_per_row_loop_in_next_batch_flagged(tmp_path):
    violations = lint_source(
        tmp_path,
        """\
        class VecThing:
            def _produce_batches(self):
                for batch in self.child.batches():
                    out = []
                    for row in batch:
                        out.append(row)
                    yield out
        """,
    )
    assert [v.code for v in violations] == ["PTL006"]


def test_single_batch_loop_clean(tmp_path):
    # One loop over batches with kernel evaluation inside is the idiom.
    violations = lint_source(
        tmp_path,
        """\
        class VecThing:
            def _produce_batches(self):
                for batch in self.child.batches():
                    yield self.kernel(batch)
        """,
    )
    assert violations == []


def test_allowlisted_class_exempt(tmp_path):
    # VecScan's per-row live-lookup fallback is a documented exception.
    violations = lint_source(
        tmp_path,
        """\
        class VecScan:
            def _produce_batches(self):
                for chunk in self.segments():
                    for rowid in chunk:
                        yield self.table.rows.get(rowid)
        """,
    )
    assert violations == []


def test_loop_in_row_method_not_flagged(tmp_path):
    # PTL006 only inspects the batch-protocol methods.
    violations = lint_source(
        tmp_path,
        """\
        class RowOp:
            def _produce(self):
                for row in self.child.rows():
                    for cell in row:
                        use(cell)
        """,
    )
    assert violations == []


def test_nested_def_inside_batch_method_not_flagged(tmp_path):
    # A helper closure gets its own visit; its loops are not per-row work
    # of the batch method itself.
    violations = lint_source(
        tmp_path,
        """\
        class VecThing:
            def next_batch(self):
                def helper(batch):
                    for a in batch:
                        for b in a:
                            use(b)
                return helper
        """,
    )
    assert violations == []


# ------------------------------------------------------------------- PTL007


def test_table_state_write_flagged(tmp_path):
    violations = lint_source(
        tmp_path,
        """\
        def hack(db, row):
            tbl = db.table("emp")
            tbl.rows[7] = row
            tbl.next_rowid += 1
        """,
    )
    assert [v.code for v in violations] == ["PTL007", "PTL007"]
    assert "Table.rows" in violations[0].message
    assert "Table.next_rowid" in violations[1].message


def test_table_mutator_call_flagged(tmp_path):
    violations = lint_source(
        tmp_path,
        """\
        def hack(db):
            db.table("emp").rows.clear()
        """,
    )
    assert [v.code for v in violations] == ["PTL007"]
    assert "'clear'" in violations[0].message


def test_catalog_and_column_store_writes_flagged(tmp_path):
    violations = lint_source(
        tmp_path,
        """\
        def hack(db, t):
            db.catalog.tables["x"] = t
            store = db.table("emp").column_store()
            store.version = 0
        """,
    )
    assert [v.code for v in violations] == ["PTL007", "PTL007"]
    assert "Catalog.tables" in violations[0].message
    assert "ColumnStore.version" in violations[1].message


def test_tables_subscript_receiver_flagged(tmp_path):
    violations = lint_source(
        tmp_path,
        """\
        def hack(db):
            db.tables["emp"].data_version = 99
        """,
    )
    assert [v.code for v in violations] == ["PTL007"]


def test_owning_modules_exempt(tmp_path):
    source = (
        'def owner(db, row):\n'
        '    db.table("emp").rows[7] = row\n'
    )
    for allowed in ("storage.py", "wal.py"):
        path = tmp_path / allowed
        path.write_text(source)
        assert check_file(str(path)) == []
    flagged = tmp_path / "elsewhere.py"
    flagged.write_text(source)
    assert [v.code for v in check_file(str(flagged))] == ["PTL007"]


def test_non_table_receiver_not_flagged(tmp_path):
    # `stmt.rows` is an AST field, not engine state: the receiver never
    # resolves to a table, so the write is fine.
    violations = lint_source(
        tmp_path,
        """\
        def rewrite(stmt, literal):
            stmt.rows = [literal]
            stmt.version = 2
        """,
    )
    assert violations == []


def test_reading_engine_state_not_flagged(tmp_path):
    violations = lint_source(
        tmp_path,
        """\
        def count(db):
            return len(db.table("emp").rows)
        """,
    )
    assert violations == []


def test_ptl007_noqa_suppresses(tmp_path):
    violations = lint_source(
        tmp_path,
        """\
        def repair(db):
            db.table("emp").data_version += 1  # noqa: PTL007
        """,
    )
    assert violations == []

