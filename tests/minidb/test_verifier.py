"""Static plan verifier tests: a hand-broken negative plan per PLN code,
plus the property that every plan from the differential corpus (at
several batch sizes, and under every rule toggle) verifies with zero
violations.
"""

import random

import pytest

import repro.minidb as minidb
from repro.minidb import ast_nodes as A
from repro.minidb import operators as ops
from repro.minidb import optimizer, vector, verifier
from repro.minidb.parser import parse
from repro.minidb.verifier import ROW_BATCH, Contract, PlanVerificationError
from repro.obs.metrics import metrics as _obs_metrics

from tests.minidb.test_operators import RULES, SEED, SHAPES, _populate, _rand_rows


@pytest.fixture
def conn():
    c = minidb.connect()
    cats, items = _rand_rows(random.Random(SEED))
    _populate(c, cats, items)
    yield c
    c.close()


def plan_of(conn, sql):
    """Plan one statement directly (no statement cache in the way)."""
    return optimizer.plan_select(conn.db, parse(sql))


def find_op(root, cls):
    """First operator of type *cls* in a physical tree (depth-first)."""
    stack = [root]
    while stack:
        op = stack.pop()
        if isinstance(op, cls):
            return op
        stack.extend(op.children())
    raise AssertionError(f"no {cls.__name__} in plan")


def assert_pln(code, plan, db):
    with pytest.raises(PlanVerificationError) as ei:
        verifier.verify_tree(db, plan.root, names=list(plan.names))
    assert ei.value.code == code, str(ei.value)
    return ei.value


# ------------------------------------------------------------------- PLN001


def test_pln001_unknown_unqualified_column(conn):
    p = plan_of(conn, "SELECT id FROM items WHERE qty % 7 = 0")
    flt = find_op(p.root, ops.VecFilter)
    flt.condition = A.ColumnRef(None, "nonexistent")
    err = assert_pln("PLN001", p, conn.db)
    assert "nonexistent" in str(err)


def test_pln001_unknown_binding(conn):
    p = plan_of(conn, "SELECT id FROM items WHERE qty % 7 = 0")
    flt = find_op(p.root, ops.VecFilter)
    flt.condition = A.ColumnRef("zz", "qty")
    err = assert_pln("PLN001", p, conn.db)
    assert "zz" in str(err)


def test_pln001_order_by_position_out_of_range(conn):
    p = plan_of(conn, "SELECT id FROM items ORDER BY qty")
    sort = find_op(p.root, ops.VecSort)
    sort.spec = [(8, False)]
    assert_pln("PLN001", p, conn.db)


# ------------------------------------------------------------------- PLN002


def test_pln002_index_key_arity(conn):
    p = plan_of(conn, "SELECT id FROM items WHERE cat = 3")
    scan = find_op(p.root, ops.VecScan)
    scan.path.key_exprs = scan.path.key_exprs + [A.Literal(1)]
    err = assert_pln("PLN002", p, conn.db)
    assert "arity" in str(err)


def test_pln002_index_key_affinity(conn):
    # idx_items_cat indexes an INTEGER column; probing it with a TEXT
    # key silently returns nothing at run time.
    p = plan_of(conn, "SELECT id FROM items WHERE cat = 3")
    scan = find_op(p.root, ops.VecScan)
    scan.path.key_exprs = [A.Literal("red")]
    err = assert_pln("PLN002", p, conn.db)
    assert "affinity" in str(err)


def hash_join_plan(conn):
    """A plan with a hash-join inner leaf, and that leaf."""
    p = plan_of(
        conn,
        "SELECT i.id, c.name FROM items i JOIN cats c ON c.name = i.color",
    )
    join = find_op(p.root, ops.VecIndexJoin)
    assert hasattr(join.inner.path, "build_cols"), "expected a hash-join leaf"
    return p, join.inner


def test_pln002_hash_join_build_position(conn):
    p, hj = hash_join_plan(conn)
    hj.path.build_positions = [pos + 1 for pos in hj.path.build_positions]
    err = assert_pln("PLN002", p, conn.db)
    assert "position" in str(err)


# ------------------------------------------------------------------- PLN003


def test_pln003_missing_filter_kernel(conn):
    # `qty % 2 = 0` is not sargable, so it stays a filter.
    p = plan_of(conn, "SELECT qty FROM items WHERE qty % 2 = 0")
    vf = find_op(p.root, ops.VecFilter)
    vf.kernel = None
    err = assert_pln("PLN003", p, conn.db)
    assert "kernel" in str(err)


def test_pln003_scan_slot_out_of_range(conn):
    p = plan_of(conn, "SELECT qty FROM items")
    vs = find_op(p.root, ops.VecScan)
    vs.slots = [99]
    err = assert_pln("PLN003", p, conn.db)
    assert "slot" in str(err)


def test_pln003_vec_scan_over_unknown_path(conn):
    p = plan_of(conn, "SELECT qty FROM items")
    vs = find_op(p.root, ops.VecScan)
    vs.path = type("Bogus", (), {"table": "items", "binding": "items"})()
    err = assert_pln("PLN003", p, conn.db)
    assert "unknown access path" in str(err)


def test_pln002_vec_scan_over_in_probe_key_affinity(conn):
    # A batched IN-probe's items are checked against the index column.
    p = plan_of(conn, "SELECT id FROM items WHERE cat IN (1, 2)")
    vs = find_op(p.root, ops.VecScan)
    assert "IN-PROBE" in vs.describe()
    vs.path.items = [A.Literal(1), A.Literal("red")]
    err = assert_pln("PLN002", p, conn.db)
    assert "affinity" in str(err)


# ------------------------------------------------------------------- PLN004


def test_pln004_row_consumer_over_column_batch_child(conn):
    p = plan_of(conn, "SELECT qty FROM items")
    vs = find_op(p.root, ops.VecScan)
    broken = ops.VecDistinct(None, vs)  # row-batch consumer on a column-batch leaf
    with pytest.raises(PlanVerificationError) as ei:
        verifier.verify_tree(conn.db, broken)
    assert ei.value.code == "PLN004"
    assert "protocol" in str(ei.value)


def test_pln004_column_batch_root(conn):
    p = plan_of(conn, "SELECT qty FROM items")
    vs = find_op(p.root, ops.VecScan)
    with pytest.raises(PlanVerificationError) as ei:
        verifier.verify_tree(conn.db, vs)
    assert ei.value.code == "PLN004"


# ------------------------------------------------------------------- PLN005


def test_pln005_topn_with_negative_limit(conn):
    p = plan_of(conn, "SELECT id FROM items ORDER BY qty LIMIT 7")
    top = find_op(p.root, ops.VecTopN)
    top.limit = A.Literal(-3)
    err = assert_pln("PLN005", p, conn.db)
    assert "negative" in str(err)


def test_pln005_vec_topn_with_negative_limit(conn):
    p = plan_of(conn, "SELECT qty FROM items ORDER BY qty LIMIT 7")
    top = find_op(p.root, ops.VecTopN)
    top.limit = A.Unary("-", A.Literal(3))
    err = assert_pln("PLN005", p, conn.db)
    assert "negative" in str(err)


def test_negative_literal_limit_never_fuses_topn(conn):
    # The invariant behind PLN005: the optimizer lowers a plan-time
    # negative LIMIT (= unlimited) to Sort+Limit, so fused plans can
    # treat TopN limits as non-negative.  And it still verifies.
    p = plan_of(conn, "SELECT id FROM items ORDER BY qty LIMIT -3")
    described = "\n".join(ops.render_plan(p.root))
    assert "TOP-N" not in described and "ORDER BY" in described
    verifier.verify_tree(conn.db, p.root, names=list(p.names))
    rows = conn.execute("SELECT id FROM items ORDER BY qty LIMIT -3").fetchall()
    assert len(rows) > 0  # negative limit = unlimited


# ------------------------------------------------------------------- PLN006


def test_pln006_declared_name_arity_drift(conn):
    p = plan_of(conn, "SELECT id, qty FROM items")
    with pytest.raises(PlanVerificationError) as ei:
        verifier.verify_tree(conn.db, p.root, names=["id"])
    assert ei.value.code == "PLN006"


def test_pln006_union_branch_width_drift(conn):
    p = plan_of(conn, "SELECT id FROM cats UNION ALL SELECT tier FROM cats")
    union = find_op(p.root, ops.VecUnion)
    proj = find_op(union.inputs[0], ops.VecProject)
    proj.kernels = list(proj.kernels) + [proj.kernels[0]]
    err = assert_pln("PLN006", p, conn.db)
    assert "UNION" in str(err) or "column counts" in str(err)


def test_pln006_aggregate_call_set_drift(conn):
    p = plan_of(conn, "SELECT cat, COUNT(*), SUM(qty) FROM items GROUP BY cat")
    agg = find_op(p.root, ops.VecAggregate)
    agg.calls = agg.calls[:1]  # lose SUM(qty)
    err = assert_pln("PLN006", p, conn.db)
    assert "call set" in str(err) or "missing" in str(err)


# ------------------------------------------------------------------- PLN007


def _contract(**kw):
    base = dict(
        protocol=ROW_BATCH,
        width=2,
        ordering=(False,),
        distinct=True,
        predicates=frozenset({"a > 1"}),
    )
    base.update(kw)
    return Contract(**base)


@pytest.mark.parametrize(
    "after_kw,fragment",
    [
        ({"width": 3}, "width changed"),
        ({"predicates": frozenset()}, "predicates dropped"),
        ({"ordering": (True,)}, "ordering guarantee changed"),
        ({"distinct": False}, "distinctness guarantee lost"),
    ],
)
def test_pln007_each_drift_kind(after_kw, fragment):
    with pytest.raises(PlanVerificationError) as ei:
        verifier.check_rule("test_rule", _contract(), _contract(**after_kw))
    assert ei.value.code == "PLN007"
    assert fragment in str(ei.value)


def test_pln007_equal_contracts_pass():
    verifier.check_rule("test_rule", _contract(), _contract())
    # Gaining predicates (pushdown clones them downward) is not drift.
    verifier.check_rule(
        "test_rule",
        _contract(),
        _contract(predicates=frozenset({"a > 1", "b = 2"})),
    )


def test_pln007_sabotaged_rule_caught_end_to_end(monkeypatch):
    # A rewrite "rule" that drops the WHERE clause must be caught by the
    # soundness harness at plan time, before any wrong rows are produced.
    def sabotage(plan):
        for branch in plan.branches:
            branch.where = None

    c = minidb.connect()
    c.execute("CREATE TABLE t (a INTEGER)")
    c.execute("INSERT INTO t VALUES (1), (2), (3)")
    monkeypatch.setattr(optimizer, "_fold_plan", sabotage)
    with pytest.raises(PlanVerificationError) as ei:
        c.execute("SELECT a FROM t WHERE a > 1").fetchall()
    assert ei.value.code == "PLN007"
    assert "constant_folding" in str(ei.value)
    c.close()


# ------------------------------------------------------- toggle and counters


def _record_verify_plan(monkeypatch) -> list:
    """Replace ``verifier.verify_plan`` with a wrapper that records each
    call; the returned list grows by one per verified plan."""
    calls = []
    real = verifier.verify_plan

    def recording(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(verifier, "verify_plan", recording)
    return calls


def test_suite_runs_verified(conn, monkeypatch):
    # tests/conftest.py turns the verifier on for the whole suite, so the
    # differential corpus doubles as its property corpus; a suite that
    # ran unverified would pass every property test vacuously.
    calls = _record_verify_plan(monkeypatch)
    plan_of(conn, "SELECT id FROM items WHERE id > 3")
    assert len(calls) == 1


def test_verify_plans_off_skips(conn, monkeypatch):
    monkeypatch.setattr(verifier, "VERIFY_PLANS", False)
    calls = _record_verify_plan(monkeypatch)
    plan_of(conn, "SELECT id FROM items WHERE id > 3")
    assert calls == []


@pytest.fixture
def metrics_on():
    # The obs registry is disabled by default; the counter assertions
    # need it live.  reset() is not called so concurrent counters keep
    # their values — the tests assert on deltas only.
    _obs_metrics.enable()
    yield
    _obs_metrics.disable()


def test_counters_track_plans_and_violations(conn, metrics_on):
    plans0 = verifier._PLANS.value
    bad0 = verifier._VIOLATIONS.value
    p = plan_of(conn, "SELECT id FROM items")
    assert verifier._PLANS.value > plans0  # plan_select verified it
    assert verifier._VIOLATIONS.value == bad0
    bogus = A.ColumnRef(None, "bogus")
    flt = ops.VecFilter(bogus, p.root.kernels[0], p.root.child)
    broken_root = ops.VecProject(p.root.kernels, flt)
    with pytest.raises(PlanVerificationError):
        verifier.verify_plan(
            conn.db,
            optimizer.PhysicalPlan(broken_root, list(p.names), [], p.tables),
        )
    assert verifier._VIOLATIONS.value == bad0 + 1


def test_rule_drift_counters(metrics_on):
    checks0 = verifier._RULE_CHECKS.value
    drift0 = verifier._RULE_DRIFT.value
    verifier.check_rule("counted_rule", _contract(), _contract())
    with pytest.raises(PlanVerificationError):
        verifier.check_rule("counted_rule", _contract(), _contract(width=3))
    assert verifier._RULE_CHECKS.value == checks0 + 2
    assert verifier._RULE_DRIFT.value == drift0 + 1
    assert verifier._drift_counter("counted_rule").value >= 1


# ------------------------------------------------------------ property tests


def test_full_corpus_verifies_clean(conn):
    """Every differential-corpus plan satisfies the PLN contract."""
    bad0 = verifier._VIOLATIONS.value
    for sql, _op in SHAPES:
        p = plan_of(conn, sql)
        contract = verifier.verify_plan(conn.db, p)
        assert contract.protocol == ROW_BATCH, sql
        assert contract.width is None or contract.width == len(p.names), sql
    assert verifier._VIOLATIONS.value == bad0


@pytest.mark.parametrize("batch_size", [1, 7, 4096])
def test_vectorized_corpus_verifies_clean(conn, monkeypatch, batch_size):
    monkeypatch.setattr(vector, "BATCH_SIZE", batch_size)
    bad0 = verifier._VIOLATIONS.value
    for sql, _op in SHAPES:
        verifier.verify_plan(conn.db, plan_of(conn, sql))
    assert verifier._VIOLATIONS.value == bad0


@pytest.mark.parametrize("rule", RULES)
def test_rule_toggle_matrix_verifies_clean(conn, monkeypatch, rule):
    """With any single rule disabled, all corpus plans still verify and
    no rule-drift fires (the remaining rules stay sound on their own)."""
    monkeypatch.setattr(optimizer, rule, False)
    drift0 = verifier._RULE_DRIFT.value
    bad0 = verifier._VIOLATIONS.value
    for sql, _op in SHAPES:
        verifier.verify_plan(conn.db, plan_of(conn, sql))
    assert verifier._VIOLATIONS.value == bad0
    assert verifier._RULE_DRIFT.value == drift0
