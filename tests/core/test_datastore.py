"""PTDataStore tests: the Figure-6 load API, lookups, hierarchy expansion."""

import pytest

from repro.core import Expansion, PTDataStore
from repro.minidb.errors import ProgrammingError
from repro.ptdf.basetypes import BASE_HIERARCHIES, BASE_NONHIERARCHICAL
from repro.ptdf.format import ResourceSet


class TestTypeSystem:
    def test_base_types_loaded_on_init(self, store):
        names = {t.name for t in store.resource_types()}
        assert "grid/machine/partition/node/processor" in names
        assert "grid" in names  # prefixes too
        assert set(BASE_NONHIERARCHICAL) <= names

    def test_type_parents(self, store):
        machine = store.resource_type("grid/machine")
        grid = store.resource_type("grid")
        assert machine.parent_id == grid.id
        assert grid.parent_id is None

    def test_top_level_types(self, store):
        tops = {t.name for t in store.top_level_types()}
        assert {"grid", "build", "environment", "execution", "time"} <= tops

    def test_child_types(self, store):
        grid = store.resource_type("grid")
        kids = store.child_types(grid.id)
        assert [k.base for k in kids] == ["machine"]

    def test_type_extension(self, store):
        # "an analyst ... can add a brand new resource hierarchy"
        store.add_resource_type("syncObject/syncClass/syncInstance")
        t = store.resource_type("syncObject/syncClass")
        assert t is not None and t.base == "syncClass"

    def test_extend_existing_hierarchy(self, store):
        # "adding another level to the Time hierarchy"
        store.add_resource_type("time/interval/phase")
        t = store.resource_type("time/interval/phase")
        assert t.parent_id == store.resource_type("time/interval").id

    def test_add_type_idempotent(self, store):
        a = store.add_resource_type("grid/machine")
        b = store.add_resource_type("grid/machine")
        assert a == b

    def test_skip_base_types(self):
        ds = PTDataStore(load_base_types=False)
        assert ds.resource_types() == []


class TestResources:
    def test_add_and_lookup(self, store):
        rid = store.add_resource("/LLNL", "grid")
        res = store.resource_by_name("/LLNL")
        assert res.id == rid and res.type_name == "grid" and res.parent_id is None

    def test_ancestors_auto_created(self, store):
        store.add_resource("/LLNL/Frost/batch/n1/p0", "grid/machine/partition/node/processor")
        node = store.resource_by_name("/LLNL/Frost/batch/n1")
        assert node is not None and node.type_name == "grid/machine/partition/node"
        assert store.resource_by_name("/LLNL").type_name == "grid"

    def test_depth_mismatch_rejected(self, store):
        with pytest.raises(ValueError):
            store.add_resource("/a/b", "grid")

    def test_idempotent_add(self, store):
        a = store.add_resource("/LLNL", "grid")
        b = store.add_resource("/LLNL", "grid")
        assert a == b
        assert store.count_rows("resource_item") == 1

    def test_full_names_unique(self, store):
        store.add_resource("/M/batch", "grid/machine")
        store.add_resource("/N/batch", "grid/machine")
        batches = store.resources_with_base_name("batch")
        assert {r.name for r in batches} == {"/M/batch", "/N/batch"}

    def test_children_of(self, store):
        store.add_resource("/M/a", "grid/machine")
        store.add_resource("/M/b", "grid/machine")
        m = store.resource_by_name("/M")
        assert [c.base for c in store.children_of(m.id)] == ["a", "b"]

    def test_execution_binding(self, store):
        store.add_execution("e1", "app")
        store.add_resource("/e1", "execution", "e1")
        res = store.resource_by_name("/e1")
        assert res.execution_id == store.execution_id("e1")

    def test_unknown_execution_rejected(self, store):
        with pytest.raises(ProgrammingError):
            store.add_resource("/x", "execution", "nope")

    def test_unique_resource_name(self, store):
        store.add_resource("/r", "grid")
        assert store.unique_resource_name("/r") == "/r_1"
        assert store.unique_resource_name("/fresh") == "/fresh"


class TestAttributesAndConstraints:
    def test_attribute_round_trip(self, store):
        store.add_resource("/M/frost/b/n/p0", "grid/machine/partition/node/processor")
        store.add_resource_attribute("/M/frost/b/n/p0", "vendor", "IBM")
        store.add_resource_attribute("/M/frost/b/n/p0", "clock MHz", "375")
        rid = store.resource_id("/M/frost/b/n/p0")
        attrs = {a.name: a.value for a in store.attributes_of(rid)}
        assert attrs == {"vendor": "IBM", "clock MHz": "375"}
        assert store.attribute_value(rid, "vendor") == "IBM"

    def test_resource_valued_attribute_creates_constraint(self, store):
        # "Adding a resourceConstraint is equivalent to adding an attribute
        # of type resource."
        store.add_execution("e", "app")
        store.add_resource("/e/p8", "execution/process", "e")
        store.add_resource("/M/n16", "grid/machine")
        store.add_resource_attribute("/e/p8", "runs on", "/M/n16", attr_type="resource")
        constrained = store.constraints_of(store.resource_id("/e/p8"))
        assert [c.name for c in constrained] == ["/M/n16"]

    def test_explicit_constraint(self, store):
        store.add_resource("/a", "grid")
        store.add_resource("/b", "build")
        store.add_resource_constraint("/a", "/b")
        assert store.count_rows("resource_constraint") == 1

    def test_attribute_on_unknown_resource(self, store):
        with pytest.raises(ProgrammingError):
            store.add_resource_attribute("/nope", "a", "v")


class TestHierarchyExpansion:
    @pytest.fixture
    def tree(self, store):
        store.add_resource("/M/f/b/n0/p0", "grid/machine/partition/node/processor")
        store.add_resource("/M/f/b/n0/p1", "grid/machine/partition/node/processor")
        store.add_resource("/M/f/b/n1/p0", "grid/machine/partition/node/processor")
        return store

    def test_descendants(self, tree):
        m = tree.resource_id("/M/f")
        desc = tree.descendants_of(m)
        names = {tree.resource_by_id(d).name for d in desc}
        assert names == {
            "/M/f/b",
            "/M/f/b/n0",
            "/M/f/b/n0/p0",
            "/M/f/b/n0/p1",
            "/M/f/b/n1",
            "/M/f/b/n1/p0",
        }

    def test_ancestors(self, tree):
        p = tree.resource_id("/M/f/b/n0/p1")
        anc = {tree.resource_by_id(a).name for a in tree.ancestors_of(p)}
        assert anc == {"/M", "/M/f", "/M/f/b", "/M/f/b/n0"}

    def test_closure_and_walk_agree(self, backend_kind):
        ds_closure = PTDataStore(backend_kind=backend_kind, use_closure_tables=True)
        ds_walk = PTDataStore(backend_kind=backend_kind, use_closure_tables=False)
        for ds in (ds_closure, ds_walk):
            ds.add_resource("/M/f/b/n0/p0", "grid/machine/partition/node/processor")
            ds.add_resource("/M/f/b/n1/p0", "grid/machine/partition/node/processor")
        for name in ("/M", "/M/f/b", "/M/f/b/n1/p0"):
            a = ds_closure.resource_id(name)
            b = ds_walk.resource_id(name)
            assert {
                ds_closure.resource_by_id(x).name for x in ds_closure.descendants_of(a)
            } == {ds_walk.resource_by_id(x).name for x in ds_walk.descendants_of(b)}
            assert {
                ds_closure.resource_by_id(x).name for x in ds_closure.ancestors_of(a)
            } == {ds_walk.resource_by_id(x).name for x in ds_walk.ancestors_of(b)}

    def test_walk_mode_writes_no_closure_rows(self, backend_kind):
        ds = PTDataStore(backend_kind=backend_kind, use_closure_tables=False)
        ds.add_resource("/M/f", "grid/machine")
        assert ds.count_rows("resource_has_ancestor") == 0


class TestResults:
    @pytest.fixture
    def ds(self, store):
        store.add_execution("e1", "app")
        store.add_resource("/e1", "execution", "e1")
        store.add_resource("/e1/p0", "execution/process", "e1")
        return store

    def test_add_perf_result(self, ds):
        pr = ds.add_perf_result(
            "e1", ResourceSet(("/e1", "/e1/p0")), "tool", "CPU time", 1.25, "seconds"
        )
        assert pr == 1
        assert ds.count_rows("performance_result") == 1
        assert ds.count_rows("focus") == 1
        assert ds.count_rows("focus_has_resource") == 2

    def test_focus_dedup(self, ds):
        # "a single context can apply to multiple performance results"
        for i in range(3):
            ds.add_perf_result(
                "e1", ResourceSet(("/e1", "/e1/p0")), "tool", f"m{i}", float(i), "u"
            )
        assert ds.count_rows("focus") == 1
        assert ds.count_rows("performance_result_has_focus") == 3

    def test_multiple_resource_sets(self, ds):
        # the Section 4.2 caller/callee extension
        ds.add_perf_result(
            "e1",
            (ResourceSet(("/e1",)), ResourceSet(("/e1/p0",), "parent")),
            "mpiP",
            "time",
            9.0,
            "ms",
        )
        assert ds.count_rows("performance_result_has_focus") == 2
        rows = ds.backend.query(
            "SELECT focus_type FROM performance_result_has_focus ORDER BY focus_type"
        )
        assert [r[0] for r in rows] == ["parent", "primary"]

    def test_unknown_execution_rejected(self, ds):
        with pytest.raises(ProgrammingError):
            ds.add_perf_result("nope", ResourceSet(("/e1",)), "t", "m", 1.0, "u")

    def test_failed_add_writes_nothing(self, ds):
        # An unknown resource in the focus is found before any row of the
        # result, its metric or its tool is written; the caller's earlier
        # uncommitted writes stay.
        ds.add_resource("/e1/p1", "execution/process", "e1")
        before = ds.db_stats()
        with pytest.raises(ProgrammingError):
            ds.add_perf_result("e1", ResourceSet(("/e1", "/nope")), "t", "m", 1.0)
        ds.commit()
        assert ds.db_stats() == before
        assert ds.metrics() == [] and ds.tools() == []
        assert ds.resource_by_name("/e1/p1") is not None
        # The store keeps working: the same ids are handed out again.
        assert ds.add_perf_result("e1", ResourceSet(("/e1",)), "t", "m", 1.0) == 1

    def test_metrics_and_tools_registered(self, ds):
        ds.add_perf_result("e1", ResourceSet(("/e1",)), "mpiP", "MPI time", 1.0, "s")
        assert "MPI time" in ds.metrics()
        assert "mpiP" in ds.tools()

    def test_execution_details(self, ds):
        ds.add_perf_result("e1", ResourceSet(("/e1",)), "t", "m", 1.0, "u")
        d = ds.execution_details("e1")
        assert d["application"] == "app"
        assert d["results"] == 1
        assert d["metrics"] == ["m"]
        assert d["resources"] == 2


class TestLoading:
    def test_load_string_counts(self, store):
        stats = store.load_string(
            """
            Application IRS
            Execution e1 IRS
            Resource /e1 execution e1
            Resource /IRS build
            ResourceAttribute /IRS lang C
            PerfResult e1 /e1,/IRS(primary) tool "CPU time" 5.0 seconds
            """
        )
        assert stats.applications == 1
        assert stats.executions == 1
        assert stats.resources == 2
        assert stats.attributes == 1
        assert stats.results == 1
        assert stats.foci == 1

    def test_reload_is_idempotent_for_definitions(self, store):
        text = "Application A\nExecution e A\nResource /e execution e\n"
        store.load_string(text)
        stats = store.load_string(text)
        assert stats.applications == 0
        assert stats.executions == 0
        assert stats.resources == 0

    def test_cache_warm_on_reopen(self, tmp_path, backend_kind):
        if backend_kind == "sqlite":
            path = str(tmp_path / "pt.sqlite")
        else:
            path = str(tmp_path / "pt.minidb")
        ds = PTDataStore(backend_kind=backend_kind, database=path)
        ds.load_string("Application A\nExecution e A\nResource /e execution e\n")
        ds.backend.commit()
        ds.close()
        ds2 = PTDataStore(backend_kind=backend_kind, database=path)
        # Definitions are visible without reloading.
        assert ds2.executions() == ["e"]
        assert ds2.has_resource("/e")
        ds2.close()
