"""Sharded loading: differential identity against the plain store,
deterministic ids, the multi-file load pipeline and manifest behaviour."""

import os

import pytest

from repro.core.datastore import PTDataStore, load_files
from repro.core.filters import ByName, Expansion, PrFilter
from repro.core.query import QueryEngine
from repro.core.schema import SHARD_TABLE_NAMES, TABLE_NAMES
from repro.core.shards import ShardedPTDataStore, ShardRouter
from repro.minidb.errors import ProgrammingError
from repro.ptdf.format import ResourceSet
from repro.ptdf.lint import PTdfLintError
from repro.ptdf.parser import parse_string
from repro.ptdf.writer import PTdfWriter


def _corpus_writer(execs=range(6), procs=4):
    w = PTdfWriter()
    w.add_application("IRS")
    w.add_resource("/LLNL", "grid")
    w.add_resource("/LLNL/BGL", "grid/machine")
    w.add_resource("/LLNL/BGL/batch", "grid/machine/partition")
    for n in range(4):
        node = f"/LLNL/BGL/batch/n{n}"
        w.add_resource(node, "grid/machine/partition/node")
        w.add_resource_attribute(node, "memory MB", str(256 * (n + 1)))
    w.add_resource("/IRS", "build")
    w.add_resource("/IRS/src", "build/module")
    for fn in ("funcA", "funcB"):
        w.add_resource(f"/IRS/src/{fn}", "build/module/function")
    for e in execs:
        ename = f"irs-{e}"
        w.add_execution(ename, "IRS")
        w.add_resource(f"/{ename}", "execution", ename)
        for p in range(procs):
            pr = f"/{ename}/proc{p}"
            w.add_resource(pr, "execution/process", ename)
            for fn in ("funcA", "funcB"):
                node = f"/LLNL/BGL/batch/n{p % 4}"
                w.add_perf_result(
                    ename,
                    ResourceSet((f"/{ename}", pr, f"/IRS/src/{fn}", node)),
                    "testtool",
                    "CPU time",
                    e * 10.0 + p,
                    "seconds",
                )
        w.add_perf_result_series(
            ename,
            ResourceSet((f"/{ename}",)),
            "testtool",
            "mem",
            "MB",
            0.0,
            1.0,
            (1.0, None, 3.0),
        )
    return w


def _corpus():
    return _corpus_writer().render()


def _serial_rows(store, table):
    return {tuple(r) for r in store.backend.query(f"SELECT * FROM {table}")}


def assert_identical(serial, sharded):
    for table in TABLE_NAMES:
        assert sharded.table_rows(table) == _serial_rows(serial, table), table


class TestShardRouter:
    def test_deterministic_and_in_range(self):
        router = ShardRouter(7)
        for eid in range(1, 2000):
            s = router.shard_of(eid)
            assert 0 <= s < 7
            assert s == router.shard_of(eid)

    def test_spreads_consecutive_ids(self):
        router = ShardRouter(4)
        hits = {router.shard_of(eid) for eid in range(1, 40)}
        assert hits == {0, 1, 2, 3}

    def test_rejects_zero_shards(self):
        with pytest.raises(ValueError):
            ShardRouter(0)


class TestShardedDifferential:
    def test_union_identical_to_serial(self):
        text = _corpus()
        serial = PTDataStore(backend_kind="minidb")
        serial.load_string(text)
        sharded = ShardedPTDataStore(n_shards=3)
        sharded.load_records(parse_string(text))
        assert_identical(serial, sharded)

    def test_results_partitioned_not_duplicated(self):
        sharded = ShardedPTDataStore(n_shards=3)
        sharded.load_records(parse_string(_corpus()))
        per_shard = [
            {r[0] for r in b.query("SELECT id FROM performance_result")}
            for b in sharded.shard_backends
        ]
        all_ids = set().union(*per_shard)
        assert sum(len(s) for s in per_shard) == len(all_ids)
        assert len(all_ids) == sharded.count_rows("performance_result")
        # catalog holds no fact rows
        assert _serial_rows(sharded.catalog, "performance_result") == set()

    def test_incremental_load_extends_ids(self):
        sharded = ShardedPTDataStore(n_shards=2)
        sharded.load_records(parse_string(_corpus_writer(range(3)).render()))
        sharded.load_records(
            parse_string(_corpus_writer(range(3, 6)).render())
        )
        serial = PTDataStore(backend_kind="minidb")
        serial.load_string(_corpus_writer(range(3)).render())
        serial.load_string(_corpus_writer(range(3, 6)).render())
        assert_identical(serial, sharded)

    def test_rollback_on_bad_record_restores_state(self):
        sharded = ShardedPTDataStore(n_shards=2)
        sharded.load_records(parse_string(_corpus()))
        sharded.commit()
        before = {t: sharded.table_rows(t) for t in TABLE_NAMES}
        bad = _corpus_writer(range(6, 8)).render() + (
            "\nPerfResult irs-7 /missing-resource(primary) "
            "tool metric 1.0 seconds\n"
        )
        with pytest.raises(ProgrammingError):
            sharded.load_records(parse_string(bad))
        for table in TABLE_NAMES:
            assert sharded.table_rows(table) == before[table], table
        # replication bookkeeping rebuilt: a clean retry still works
        sharded.load_records(parse_string(_corpus_writer(range(6, 8)).render()))

    def test_add_result_lands_on_its_shard(self):
        serial = PTDataStore(backend_kind="minidb")
        sharded = ShardedPTDataStore(n_shards=3)
        prf = PrFilter([ByName("/irs-7", Expansion.DESCENDANTS)])
        for store, engine in ((serial, lambda: QueryEngine(serial)),
                              (sharded, sharded.query_engine)):
            store.load_records(parse_string(_corpus_writer(range(2)).render()))
            store.add_execution("irs-7", "IRS")
            store.add_resource("/irs-7", "execution", "irs-7")
            store.add_resource("/irs-7/proc0", "execution/process", "irs-7")
            # Evaluate first, so a stale per-shard evaluation index would show.
            assert engine().evaluate(prf) == set()
            store.add_perf_result(
                "irs-7", ResourceSet(("/irs-7/proc0", "/IRS/src/funcA")),
                "testtool", "CPU time", 7.5, "seconds",
            )
            store.add_vector_result(
                "irs-7", ResourceSet(("/irs-7",)), "testtool", "mem",
                [1.0, None, 2.0], "MB",
            )
        want = QueryEngine(serial).evaluate(prf)
        assert len(want) == 2
        assert sharded.query_engine().evaluate(prf) == want
        assert_identical(serial, sharded)
        assert _serial_rows(sharded.catalog, "performance_result") == set()

    def test_shard_indexes_built_after_load(self):
        sharded = ShardedPTDataStore(n_shards=2)
        sharded.load_records(parse_string(_corpus()))
        for backend in sharded.shard_backends:
            assert backend.has_index("idx_shard_pr_exec")
            assert backend.has_index("idx_shard_fhr_resource")

    def test_execution_details_counts_from_owning_shard(self):
        sharded = ShardedPTDataStore(n_shards=3)
        sharded.load_records(parse_string(_corpus()))
        details = sharded.execution_details("irs-2")
        assert details["results"] == 2 * 4 + 1  # scalar grid + one vector
        assert "CPU time" in details["metrics"]


class TestShardedDirectory:
    def test_persist_and_reopen(self, tmp_path):
        directory = str(tmp_path / "store")
        with ShardedPTDataStore(n_shards=2, directory=directory) as sharded:
            sharded.load_records(parse_string(_corpus()))
        assert os.path.exists(os.path.join(directory, "shards.json"))
        reopened = ShardedPTDataStore(directory=directory)
        assert reopened.n_shards == 2
        serial = PTDataStore(backend_kind="minidb")
        serial.load_string(_corpus())
        assert_identical(serial, reopened)

    def test_resharding_refused(self, tmp_path):
        directory = str(tmp_path / "store")
        ShardedPTDataStore(n_shards=2, directory=directory).close()
        with pytest.raises(ProgrammingError, match="resharding"):
            ShardedPTDataStore(n_shards=4, directory=directory)


class TestParallelLoad:
    """Multi-file ``load_files`` into sharded and plain stores."""

    def _write_files(self, tmp_path, parts=3):
        paths = []
        for i in range(parts):
            w = _corpus_writer(range(i * 2, i * 2 + 2)) if i == 0 else None
            if w is None:
                w = PTdfWriter()
                for e in range(i * 2, i * 2 + 2):
                    ename = f"irs-{e}"
                    w.add_execution(ename, "IRS")
                    w.add_resource(f"/{ename}", "execution", ename)
                    for p in range(4):
                        pr = f"/{ename}/proc{p}"
                        w.add_resource(pr, "execution/process", ename)
                        # cross-file refs to file 0's machine + build
                        w.add_perf_result(
                            ename,
                            ResourceSet(
                                (f"/{ename}", pr, "/IRS/src/funcA",
                                 f"/LLNL/BGL/batch/n{p % 4}")
                            ),
                            "testtool",
                            "CPU time",
                            float(e + p),
                            "seconds",
                        )
            path = str(tmp_path / f"part{i}.ptdf")
            w.write(path)
            paths.append(path)
        return paths

    def test_parallel_equals_serial(self, tmp_path):
        paths = self._write_files(tmp_path)
        serial = PTDataStore(backend_kind="minidb")
        for p in paths:
            serial.load_file(p)
        sharded = ShardedPTDataStore(n_shards=2)
        load_files(sharded, paths, lint=True)
        assert_identical(serial, sharded)

    def test_parallel_plain_store_equals_serial(self, tmp_path):
        paths = self._write_files(tmp_path)
        serial = PTDataStore(backend_kind="minidb")
        for p in paths:
            serial.load_file(p)
        parallel = PTDataStore(backend_kind="minidb")
        load_files(parallel, paths, lint=True)
        for table in TABLE_NAMES:
            assert _serial_rows(parallel, table) == _serial_rows(
                serial, table
            ), table

    def test_lint_gate_blocks_before_any_write(self, tmp_path):
        bad = tmp_path / "bad.ptdf"
        bad.write_text('Resource "/r1" "execution" "irs-none"\n')
        sharded = ShardedPTDataStore(n_shards=2)
        with pytest.raises(PTdfLintError) as excinfo:
            load_files(sharded, [str(bad)], lint=True)
        assert any(d.code == "PT006" for d in excinfo.value.diagnostics)
        assert sharded.count_rows("performance_result") == 0

    def test_parse_error_becomes_pt000_diagnostic(self, tmp_path):
        bad = tmp_path / "bad.ptdf"
        bad.write_text('PerfResult "e" too many fields here oops "x" 1 2 3\n')
        with pytest.raises(PTdfLintError) as excinfo:
            load_files(ShardedPTDataStore(n_shards=2), [str(bad)], lint=True)
        assert any(d.code == "PT000" for d in excinfo.value.diagnostics)


class TestShardSchema:
    def test_shard_tables_subset_of_schema(self):
        assert set(SHARD_TABLE_NAMES) <= set(TABLE_NAMES)

    def test_sharded_tables_have_no_fks_on_shards(self):
        sharded = ShardedPTDataStore(n_shards=1)
        sharded.load_records(parse_string(_corpus()))
        backend = sharded.shard_backends[0]
        # execution rows live only in the catalog; had the shard schema
        # kept its FK, these fact rows could never have been inserted
        assert backend.scalar("SELECT COUNT(*) FROM performance_result") > 0
        assert not backend.has_table("execution")
