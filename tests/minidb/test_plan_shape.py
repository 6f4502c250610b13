"""Plan-shape gate: every operator of every plan is a batch operator.

minidb has one executor.  This gate plans the differential SHAPES corpus,
an UPDATE, a DELETE and a correlated subquery, and asserts that every
node of every operator tree has ``BATCHED`` set — a plan that needed a
second operator family would fail here.  Like the rest of the suite it
runs with the plan verifier on (``tests/conftest.py``).
"""

import random

import pytest

import repro.minidb as minidb
from repro.minidb import ast_nodes as A
from repro.minidb import optimizer
from repro.minidb.operators import Operator
from repro.minidb.parser import parse

from tests.minidb.test_operators import SEED, SHAPES, _populate, _rand_rows


@pytest.fixture(scope="module")
def conn():
    c = minidb.connect()
    cats, items = _rand_rows(random.Random(SEED))
    _populate(c, cats, items)
    yield c
    c.close()


def non_batched(root: Operator) -> list[str]:
    """``describe()`` of every operator under *root* without BATCHED."""
    bad = []
    stack = [root]
    while stack:
        op = stack.pop()
        if not op.BATCHED:
            bad.append(op.describe())
        stack.extend(op.children())
    return bad


@pytest.mark.parametrize("sql", [sql for sql, _op in SHAPES])
def test_select_plans_are_all_batch(conn, sql):
    assert non_batched(optimizer.plan_select(conn.db, parse(sql)).root) == []


@pytest.mark.parametrize(
    "sql",
    [
        "UPDATE items SET qty = qty + 1 WHERE color = 'red'",
        "DELETE FROM items WHERE cat IN (SELECT id FROM cats WHERE tier = 0)",
    ],
)
def test_dml_scans_are_all_batch(conn, sql):
    stmt = parse(sql)
    assert non_batched(optimizer.lower_dml_scan(conn.db, stmt.table, stmt.where)) == []


def test_correlated_subquery_plan_is_all_batch(conn):
    stmt = parse(
        "SELECT id FROM items i WHERE EXISTS "
        "(SELECT 1 FROM cats c WHERE c.tier = i.qty % 5 AND c.name <> i.color)"
    )
    assert isinstance(stmt.where, A.Exists)
    plan = optimizer.plan_select(conn.db, stmt.where.select, correlated=True)
    assert non_batched(plan.root) == []
    assert non_batched(optimizer.plan_select(conn.db, stmt).root) == []
