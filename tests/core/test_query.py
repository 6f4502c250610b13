"""QueryEngine tests: materialisation, counts, free resources."""

import pytest

from repro.core import ByName, ByType, Expansion, PrFilter
from repro.core.query import QueryEngine, _chunks


class TestChunks:
    def test_small_list_single_chunk(self):
        assert list(_chunks([1, 2, 3], 10)) == [[1, 2, 3]]

    def test_exact_boundary(self):
        chunks = list(_chunks(list(range(800)), 400))
        assert [len(c) for c in chunks] == [400, 400]

    def test_empty(self):
        assert list(_chunks([], 400)) == []


class TestFetchResults:
    def test_materialised_fields(self, tiny_store):
        qe = QueryEngine(tiny_store)
        results = qe.fetch(PrFilter([ByName("/irs-a", Expansion.DESCENDANTS)]))
        assert len(results) == 4
        r = results[0]
        assert r.execution == "irs-a"
        assert r.tool == "testtool"
        assert r.units == "seconds"
        assert r.metric == "CPU time"
        assert len(r.contexts) == 1
        assert len(r.contexts[0].resource_ids) == 4

    def test_fetch_empty(self, tiny_store):
        qe = QueryEngine(tiny_store)
        assert qe.fetch_results([]) == []
        assert qe.fetch_results([99999]) == []

    def test_context_focus_types(self, tiny_store):
        qe = QueryEngine(tiny_store)
        results = qe.fetch(PrFilter([ByName("/irs-a", Expansion.DESCENDANTS)]))
        assert all(c.focus_type == "primary" for r in results for c in r.contexts)

    def test_resource_ids_union(self, tiny_store):
        qe = QueryEngine(tiny_store)
        r = qe.fetch(PrFilter([ByName("/irs-a", Expansion.DESCENDANTS)]))[0]
        assert r.resource_ids == r.contexts[0].resource_ids

    def test_large_id_list_chunks(self, tiny_store):
        # Exercise the chunked-IN path with a fake large id list.
        qe = QueryEngine(tiny_store)
        ids = list(range(1, 1200))
        results = qe.fetch_results(ids)
        assert len(results) == 12  # only the real ids resolve


class TestCounts:
    def test_counts_shrink_with_conjunction(self, tiny_store):
        qe = QueryEngine(tiny_store)
        fam_fn = tiny_store.resolve_filter(ByName("/IRS/src/funcA", Expansion.NONE))
        fam_exec = tiny_store.resolve_filter(ByName("/irs-a", Expansion.DESCENDANTS))
        c_fn = qe.count_for_family(fam_fn)
        c_exec = qe.count_for_family(fam_exec)
        c_both = qe.count_for_filter([fam_fn, fam_exec])
        assert c_both <= min(c_fn, c_exec)
        assert (c_fn, c_exec, c_both) == (6, 4, 2)

    def test_empty_family_yields_zero(self, tiny_store):
        qe = QueryEngine(tiny_store)
        fam = tiny_store.resolve_filter(ByName("/nope"))
        assert qe.count_for_family(fam) == 0
        assert qe.count_for_filter([fam]) == 0


class TestFreeResources:
    def test_varying_types_listed(self, tiny_store):
        qe = QueryEngine(tiny_store)
        results = qe.fetch(PrFilter([ByName("/irs-a", Expansion.DESCENDANTS)]))
        free = qe.free_resources(results)
        # function and processor and process vary across the 4 results
        assert "build/module/function" in free
        assert "grid/machine/partition/node/processor" in free
        assert set(free["build/module/function"]) == {"/IRS/src/funcA", "/IRS/src/funcB"}

    def test_identical_type_hidden(self, tiny_store):
        qe = QueryEngine(tiny_store)
        results = qe.fetch(PrFilter([ByName("/irs-a", Expansion.DESCENDANTS)]))
        free = qe.free_resources(results)
        # every context includes /irs-a itself: identical -> hidden
        assert "execution" not in free

    def test_specified_ids_excluded(self, tiny_store):
        qe = QueryEngine(tiny_store)
        fam = tiny_store.resolve_filter(ByName("/IRS/src/funcA", Expansion.NONE))
        results = qe.fetch_results(qe.result_ids([fam]))
        free = qe.free_resources(results, specified_ids=set(fam.resource_ids))
        assert "build/module/function" not in free

    def test_names_of_type_for_result(self, tiny_store):
        qe = QueryEngine(tiny_store)
        r = qe.fetch(PrFilter([ByName("/irs-a", Expansion.DESCENDANTS)]))[0]
        fns = qe.resource_names_of_type_for_result(r, "build/module/function")
        assert len(fns) == 1 and fns[0].startswith("/IRS/src/func")
        assert qe.resource_names_of_type_for_result(r, "time") == []


class TestByTypeQueries:
    def test_machine_level_only(self, tiny_store):
        # "only those results that are machine-level measurements"
        from repro.ptdf.format import ResourceSet

        tiny_store.add_perf_result(
            "irs-a",
            ResourceSet(("/LLNL/Frost",)),
            "testtool",
            "Total power",
            42.0,
            "kW",
        )
        qe = QueryEngine(tiny_store)
        results = qe.fetch(PrFilter([ByType("grid/machine")]))
        assert [r.metric for r in results] == ["Total power"]


class TestFreeResourcesBatchedLookup:
    """free_resources fetches context resources with chunked IN lookups."""

    @staticmethod
    def _stores():
        from repro.core import PTDataStore
        from tests.core.corpus import corpus_writer

        text = corpus_writer(execs=range(110), procs=4).render()
        stores = {}
        for kind in ("minidb", "sqlite"):
            store = PTDataStore(backend_kind=kind)
            store.load_string(text)
            stores[kind] = (store, QueryEngine(store))
        return stores

    @staticmethod
    def _per_id_reference(store, results):
        """The free-resource rule evaluated with one lookup per id."""
        per_type: dict = {}
        per_result: dict = {}
        for pr in results:
            seen: dict = {}
            for rid in pr.resource_ids:
                res = store.resource_by_id(rid)
                seen.setdefault(res.type_name, set()).add(res.name)
                per_type.setdefault(res.type_name, set()).add(res.name)
            for t, names in seen.items():
                per_result.setdefault(t, []).append(names)
        return {
            t: sorted(names)
            for t, names in per_type.items()
            if not (len(per_result[t]) == len(results) and len(names) == 1)
        }

    def test_same_output_on_every_store(self):
        stores = self._stores()
        outputs = {}
        for kind, (store, qe) in stores.items():
            results = qe.fetch(PrFilter([ByName("/LLNL/BGL", Expansion.DESCENDANTS)]))
            assert results
            outputs[kind] = qe.free_resources(results)
            store._resource_obj_cache.clear()
            assert outputs[kind] == self._per_id_reference(store, results), kind
        assert outputs["minidb"] == outputs["sqlite"]
        assert "execution/process" in outputs["minidb"]

    def test_statements_per_call_bounded_by_chunks(self):
        for kind, (store, qe) in self._stores().items():
            results = qe.fetch(PrFilter([ByName("/LLNL/BGL", Expansion.DESCENDANTS)]))
            fam = store.resolve_filter(ByName("/IRS/src/funcA", Expansion.NONE))
            specified = set(fam.resource_ids)
            missing = {r for pr in results for r in pr.resource_ids} - specified
            assert len(missing) > 400  # more than one chunk
            backend = store.backend
            calls = []
            real_execute = backend.execute

            def counting_execute(sql, params=(), _real=real_execute):
                calls.append(sql)
                return _real(sql, params)

            backend.execute = counting_execute
            try:
                store._resource_obj_cache.clear()
                first = qe.free_resources(results, specified_ids=specified)
                cold = len(calls)
                second = qe.free_resources(results, specified_ids=specified)
            finally:
                del backend.execute
            assert 1 <= cold <= -(-len(missing) // 400), (kind, cold)
            assert len(calls) == cold, kind  # warm cache: no statements
            assert first == second
            assert first["build/module/function"] == ["/IRS/src/funcB"]  # funcA specified
