"""Stateful property test: minidb vs a reference model under random
sequences of DML + transaction boundaries.

The reference keeps two plain dicts: ``committed`` (durable state) and
``pending`` (the open transaction's view).  After every operation the
engine's visible table must equal the reference's pending view, and after
rollback/commit it must equal the committed view.
"""

import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

import repro.minidb as minidb
from tests.minidb.crash import crash


class TransactionMachine(RuleBasedStateMachine):
    def __init__(self) -> None:
        super().__init__()
        self.conn = minidb.connect()
        self.conn.execute("CREATE TABLE t (k INTEGER PRIMARY KEY, v INTEGER)")
        self.committed: dict[int, int] = {}
        self.pending: dict[int, int] = {}

    keys = st.integers(0, 12)
    values = st.integers(-100, 100)

    def _engine_state(self) -> dict[int, int]:
        return dict(self.conn.execute("SELECT k, v FROM t").fetchall())

    @rule(k=keys, v=values)
    def upsert(self, k, v):
        if k in self.pending:
            self.conn.execute("UPDATE t SET v = ? WHERE k = ?", (v, k))
        else:
            self.conn.execute("INSERT INTO t (k, v) VALUES (?, ?)", (k, v))
        self.pending[k] = v

    @rule(k=keys)
    def delete(self, k):
        self.conn.execute("DELETE FROM t WHERE k = ?", (k,))
        self.pending.pop(k, None)

    @rule(lo=keys, hi=keys, dv=values)
    def bulk_update(self, lo, hi, dv):
        if lo > hi:
            lo, hi = hi, lo
        self.conn.execute(
            "UPDATE t SET v = v + ? WHERE k BETWEEN ? AND ?", (dv, lo, hi)
        )
        for k in list(self.pending):
            if lo <= k <= hi:
                self.pending[k] += dv

    @rule(items=st.lists(st.tuples(keys, values), min_size=1, max_size=6))
    def insert_batch(self, items):
        """Vectorized executemany: statement-atomic on duplicate keys."""
        try:
            self.conn.executemany("INSERT INTO t (k, v) VALUES (?, ?)", items)
        except minidb.IntegrityError:
            return  # failed batch must leave no partial rows
        for k, v in items:
            self.pending[k] = v

    @rule()
    def commit(self):
        self.conn.commit()
        self.committed = dict(self.pending)

    @rule()
    def rollback(self):
        self.conn.rollback()
        self.pending = dict(self.committed)

    @invariant()
    def engine_matches_pending_view(self):
        assert self._engine_state() == self.pending

    def teardown(self):
        self.conn.close()


TestTransactionStateMachine = TransactionMachine.TestCase
TestTransactionStateMachine.settings = settings(
    max_examples=40, stateful_step_count=30, deadline=None
)


class TestExecutemanyAtomicityProperty:
    @settings(max_examples=50, deadline=None)
    @given(
        committed=st.lists(
            st.tuples(st.integers(0, 20), st.integers(-50, 50)),
            unique_by=lambda t: t[0],
            min_size=1,
            max_size=8,
        ),
        fresh=st.lists(
            st.tuples(st.integers(21, 40), st.integers(-50, 50)),
            unique_by=lambda t: t[0],
            max_size=6,
        ),
        dup_at=st.integers(0, 6),
    )
    def test_failed_batch_then_rollback_leaves_no_partial_rows(
        self, committed, fresh, dup_at
    ):
        """A batch that dies mid-way applies nothing, even before rollback."""
        conn = minidb.connect()
        conn.execute("CREATE TABLE t (k INTEGER PRIMARY KEY, v INTEGER)")
        conn.executemany("INSERT INTO t (k, v) VALUES (?, ?)", committed)
        conn.commit()
        base = dict(conn.execute("SELECT k, v FROM t").fetchall())

        # Some uncommitted work, then a batch with a duplicate key planted
        # at a random position: the batch must fail statement-atomically.
        conn.execute("INSERT INTO t (k, v) VALUES (?, ?)", (99, 1))
        batch = list(fresh)
        batch.insert(min(dup_at, len(batch)), (committed[0][0], 0))
        with pytest.raises(minidb.IntegrityError):
            conn.executemany("INSERT INTO t (k, v) VALUES (?, ?)", batch)

        # Statement atomicity: only the pre-batch uncommitted row is there.
        state = dict(conn.execute("SELECT k, v FROM t").fetchall())
        assert state == {**base, 99: 1}

        # Transaction rollback: back to the committed snapshot exactly.
        conn.rollback()
        state = dict(conn.execute("SELECT k, v FROM t").fetchall())
        assert state == base
        conn.close()

    @settings(max_examples=50, deadline=None)
    @given(
        rows=st.lists(
            st.tuples(st.integers(0, 30), st.integers(-50, 50)),
            unique_by=lambda t: t[0],
            min_size=1,
            max_size=10,
        )
    )
    def test_successful_batch_commits_all_rows(self, rows):
        conn = minidb.connect()
        conn.execute("CREATE TABLE t (k INTEGER PRIMARY KEY, v INTEGER)")
        cur = conn.executemany("INSERT INTO t (k, v) VALUES (?, ?)", rows)
        assert cur.rowcount == len(rows)
        conn.commit()
        assert dict(conn.execute("SELECT k, v FROM t").fetchall()) == dict(rows)
        conn.close()


#: An ``executemany`` template with a subquery: storage inserts it one
#: statement per parameter row, each seeing the rows of the ones before.
SUBQUERY_INSERT = "INSERT INTO t (k, v) VALUES (?, (SELECT COUNT(*) FROM t))"


class TestWalDurabilityProperty:
    @settings(max_examples=25, deadline=None)
    @given(
        ops=st.lists(
            st.tuples(
                st.sampled_from(["upsert", "delete", "subquery_batch", "failing_subquery_batch"]),
                st.integers(0, 8),
                st.integers(-50, 50),
                st.booleans(),
            ),
            min_size=1,
            max_size=25,
        )
    )
    def test_reopen_sees_exactly_committed_state(self, tmp_path_factory, ops):
        """Commit-marked changes survive reopen; uncommitted ones never do,
        nor does any row of an ``executemany`` that failed partway."""
        path = str(tmp_path_factory.mktemp("walprop") / "db.json")
        conn = minidb.connect(path)
        conn.execute("CREATE TABLE t (k INTEGER PRIMARY KEY, v INTEGER)")
        conn.commit()
        committed: dict[int, int] = {}
        pending: dict[int, int] = {}
        for kind, k, v, do_commit in ops:
            if kind == "delete":
                conn.execute("DELETE FROM t WHERE k = ?", (k,))
                pending.pop(k, None)
            elif kind == "subquery_batch":
                fresh = [x for x in range(k, k + 9) if x not in pending][:2]
                conn.executemany(SUBQUERY_INSERT, [(x,) for x in fresh])
                for x in fresh:
                    pending[x] = len(pending)
            elif kind == "failing_subquery_batch":
                # Two statements go in, the third repeats the first key:
                # the call must leave none of them, in memory or in the WAL.
                with pytest.raises(minidb.IntegrityError):
                    conn.executemany(SUBQUERY_INSERT, [(100 + k,), (200 + k,), (100 + k,)])
            elif k in pending:
                conn.execute("UPDATE t SET v = ? WHERE k = ?", (v, k))
                pending[k] = v
            else:
                conn.execute("INSERT INTO t (k, v) VALUES (?, ?)", (k, v))
                pending[k] = v
            if do_commit:
                conn.commit()
                committed = dict(pending)
        # Crash: reopen without close/checkpoint.
        crash(conn)
        reopened = minidb.connect(path)
        state = dict(reopened.execute("SELECT k, v FROM t").fetchall())
        assert state == committed
        reopened.close()
