"""Evaluator dispatch: one table per class, keyed by AST node type.

``Evaluator.evaluate`` looks a node's ``_eval_<Node>`` handler up by
``type(node)`` in a class-level table that fills on first use.  Every
expression node with a handler must reach that handler, an unknown node
must fail as it always did, and a subclass's overrides must stay in the
subclass's own table.
"""

from dataclasses import dataclass

import pytest

from repro.minidb import ast_nodes as ast
from repro.minidb.errors import ProgrammingError
from repro.minidb.expressions import Evaluator, Scope


def _expr_types() -> list[type]:
    out, todo = [], [ast.Expr]
    while todo:
        for sub in todo.pop().__subclasses__():
            if sub.__module__ == ast.__name__:
                out.append(sub)
                todo.append(sub)
    return out


EXPR_TYPES = _expr_types()


def test_every_expression_node_has_a_handler():
    assert EXPR_TYPES
    missing = [t.__name__ for t in EXPR_TYPES if not hasattr(Evaluator, f"_eval_{t.__name__}")]
    assert missing == []


@pytest.mark.parametrize("node_type", EXPR_TYPES, ids=lambda t: t.__name__)
def test_each_node_type_dispatches_to_its_handler(monkeypatch, node_type):
    calls = []

    def handler(self, expr, scope):
        calls.append((self, expr, scope))
        return "handled"

    monkeypatch.setattr(Evaluator, f"_eval_{node_type.__name__}", handler)
    monkeypatch.setattr(Evaluator, "_handlers", {})
    ev, node, scope = Evaluator(), object.__new__(node_type), Scope()
    assert ev.evaluate(node, scope) == "handled"
    assert ev.evaluate(node, scope) == "handled"  # second call: from the table
    assert calls == [(ev, node, scope)] * 2
    assert Evaluator._handlers == {node_type: handler}


def test_dispatch_evaluates_real_expressions():
    ev = Evaluator(params=[4, "x"])
    expr = ast.Binary(
        "AND",
        ast.InList(ast.Parameter(0), [ast.Literal(1), ast.Parameter(0)]),
        ast.Like(ast.Parameter(1), ast.Literal("x%")),
    )
    assert ev.evaluate(expr, Scope()) is True
    arith = ast.Binary("*", ast.Unary("-", ast.Literal(3)), ast.Parameter(0))
    assert ev.evaluate(arith, Scope()) == -12


@dataclass
class Unknown(ast.Expr):
    value: int = 0


def test_unknown_node_raises_the_same_error_every_time():
    ev = Evaluator()
    for _ in range(2):
        with pytest.raises(ProgrammingError, match=r"^cannot evaluate Unknown$"):
            ev.evaluate(Unknown(), Scope())
    assert Unknown not in Evaluator._handlers


def test_subclass_overrides_stay_in_the_subclass_table():
    class Doubling(Evaluator):
        def _eval_Literal(self, expr, scope):
            return expr.value * 2

    lit = ast.Literal(21)
    assert Doubling().evaluate(lit, Scope()) == 42
    assert Evaluator().evaluate(lit, Scope()) == 21
    assert Doubling().evaluate(lit, Scope()) == 42
    assert Doubling._handlers is not Evaluator._handlers
