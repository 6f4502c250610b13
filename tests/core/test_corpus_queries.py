"""The query engine on the shared BG/L-shaped corpus, on both backends.

Every expectation here comes from an oracle built from the corpus
definition alone (resource names, types, attributes and the contexts each
result was written with), not from another run of the engine: filter
resolution, pr-filter evaluation, per-family counts and materialised
results must all agree with it on minidb and on sqlite3.
"""

import operator

import pytest

from repro.core import PTDataStore
from repro.core.filters import (
    AttributeClause,
    ByAttributes,
    ByName,
    ByType,
    Expansion,
    PrFilter,
)
from repro.core.query import QueryEngine
from repro.core.schema import TABLE_NAMES

from .corpus import corpus_writer

EXECS = range(6)
PROCS = 4
FUNCTIONS = ("funcA", "funcB")

#: Every resource of the corpus with its type path.
RESOURCES = {
    "/LLNL": "grid",
    "/LLNL/BGL": "grid/machine",
    "/LLNL/BGL/batch": "grid/machine/partition",
    "/IRS": "build",
    "/IRS/src": "build/module",
    **{f"/LLNL/BGL/batch/n{n}": "grid/machine/partition/node" for n in range(4)},
    **{f"/IRS/src/{fn}": "build/module/function" for fn in FUNCTIONS},
    **{f"/irs-{e}": "execution" for e in EXECS},
    **{f"/irs-{e}/proc{p}": "execution/process" for e in EXECS for p in range(PROCS)},
}

#: The one attribute of the corpus: node n has 256·(n+1) MB.
MEMORY_MB = {f"/LLNL/BGL/batch/n{n}": 256 * (n + 1) for n in range(4)}

#: (execution, metric, context resource names) -> value, for every result.
RESULTS = {
    **{
        (
            f"irs-{e}",
            "CPU time",
            frozenset(
                {f"/irs-{e}", f"/irs-{e}/proc{p}", f"/IRS/src/{fn}", f"/LLNL/BGL/batch/n{p % 4}"}
            ),
        ): e * 10.0 + p
        for e in EXECS
        for p in range(PROCS)
        for fn in FUNCTIONS
    },
    # the series (1.0, None, 3.0): the gap is not a bin, the value is the mean
    **{(f"irs-{e}", "mem", frozenset({f"/irs-{e}"})): 2.0 for e in EXECS},
}

_COMPARE = {">": operator.gt, "<=": operator.le}


def _family(f) -> set[str]:
    """The resource names a filter selects, expansion included."""
    if isinstance(f, ByName):
        if f.name.startswith("/"):
            base = {f.name} & RESOURCES.keys()
        else:
            base = {n for n in RESOURCES if n.rsplit("/", 1)[1] == f.name}
    elif isinstance(f, ByType):
        base = {n for n, t in RESOURCES.items() if t == f.type_path}
    else:
        base = set(MEMORY_MB)
        for c in f.clauses:
            assert c.name == "memory MB"
            base = {n for n in base if _COMPARE[c.comparator](MEMORY_MB[n], float(c.value))}
    out = set(base)
    for name in base:
        if f.expansion.include_ancestors:
            parts = name.split("/")
            out |= {"/".join(parts[:i]) for i in range(2, len(parts))}
        if f.expansion.include_descendants:
            out |= {n for n in RESOURCES if n.startswith(name + "/")}
    return out


def _expected(prf: PrFilter) -> set:
    """Result keys with a context that meets every family of *prf*."""
    families = [_family(f) for f in prf.filters]
    return {key for key in RESULTS if all(fam & key[2] for fam in families)}


#: Single resource filters, one per expansion and selection kind.
FILTERS = {
    "machine-descendants": ByName("/LLNL/BGL", Expansion.DESCENDANTS),
    "machine-exact": ByName("/LLNL/BGL", Expansion.NONE),
    "node-ancestors": ByName("/LLNL/BGL/batch/n2", Expansion.ANCESTORS),
    "node-both": ByName("/LLNL/BGL/batch/n1", Expansion.BOTH),
    "base-name": ByName("funcB", Expansion.NONE),
    "process-type-ancestors": ByType("execution/process", Expansion.ANCESTORS),
    "attribute": ByAttributes((AttributeClause("memory MB", ">", "512"),)),
    "unknown-name": ByName("/nowhere", Expansion.BOTH),
}

#: Whole pr-filters (a conjunction of families).
PRFILTERS = {
    "empty": PrFilter(),
    **{label: PrFilter([f]) for label, f in FILTERS.items()},
    "conjunction": PrFilter(
        [ByName("/IRS/src/funcB", Expansion.NONE), ByName("/irs-3", Expansion.DESCENDANTS)]
    ),
    "attribute-and-function": PrFilter(
        [
            ByAttributes((AttributeClause("memory MB", "<=", "512"),)),
            ByName("funcA", Expansion.NONE),
        ]
    ),
    "no-match": PrFilter(
        [ByName("/IRS/src/funcB", Expansion.NONE), ByName("/LLNL", Expansion.NONE)]
    ),
}


@pytest.fixture(scope="module", params=["minidb", "sqlite"])
def corpus(request):
    store = PTDataStore(backend_kind=request.param)
    store.load_string(corpus_writer(EXECS, PROCS).render())
    yield store, QueryEngine(store)
    store.close()


def _names(store, ids) -> set[str]:
    return {store.resource_by_id(i).name for i in ids}


def _key(store, result) -> tuple:
    return (result.execution, result.metric, frozenset(_names(store, result.resource_ids)))


def _keys(store, engine, ids) -> set:
    return {_key(store, r) for r in engine.fetch_results(ids)}


def _table_state(store) -> dict:
    return {
        t: sorted(store.backend.query(f"SELECT * FROM {t}"), key=repr)  # noqa: PTL001 — schema table names
        for t in TABLE_NAMES
    }


class TestOracle:
    def test_corpus_resources_are_the_oracles(self, corpus):
        store, _ = corpus
        names = {r[0] for r in store.backend.query("SELECT name FROM resource_item")}
        assert names == set(RESOURCES)
        for name, type_path in RESOURCES.items():
            assert store.resource_by_name(name).type_name == type_path, name


class TestResolveFilter:
    @pytest.mark.parametrize("label", sorted(FILTERS))
    def test_family_matches_oracle(self, corpus, label):
        store, _ = corpus
        family = store.resolve_filter(FILTERS[label])
        assert _names(store, family.resource_ids) == _family(FILTERS[label])


class TestEvaluate:
    @pytest.mark.parametrize("label", sorted(PRFILTERS))
    def test_evaluate_matches_oracle(self, corpus, label):
        store, engine = corpus
        prf = PRFILTERS[label]
        ids = engine.evaluate(prf)
        assert len(ids) == len(_expected(prf))
        assert _keys(store, engine, ids) == _expected(prf)

    @pytest.mark.parametrize("label", sorted(FILTERS))
    def test_count_for_family_matches_oracle(self, corpus, label):
        store, engine = corpus
        family = store.resolve_filter(FILTERS[label])
        want = len(_expected(PrFilter([FILTERS[label]])))
        assert engine.count_for_family(family) == want
        assert engine.count_for_filter([family]) == want

    @pytest.mark.parametrize("label", sorted(PRFILTERS))
    def test_live_counts_match_the_separate_evaluations(self, corpus, label):
        store, engine = corpus
        prf = PRFILTERS[label]
        families = store.resolve_prfilter(prf)
        counts, ids = engine.live_counts(families)
        assert counts == [len(_expected(PrFilter([f]))) for f in prf.filters]
        assert counts == [engine.count_for_family(fam) for fam in families]
        assert ids == engine.result_ids(families)
        assert _keys(store, engine, ids) == _expected(prf)


class TestFetch:
    def test_every_result_once_with_its_value(self, corpus):
        store, engine = corpus
        results = engine.fetch_results(engine.evaluate(PrFilter()))
        assert len(results) == store.count_rows("performance_result") == len(RESULTS)
        assert {_key(store, r): r.value for r in results} == RESULTS

    def test_vector_results_carry_their_series(self, corpus):
        store, engine = corpus
        results = engine.fetch_results(engine.evaluate(PrFilter()))
        vectors = [r for r in results if r.is_vector]
        assert len(vectors) == len(EXECS)
        for r in vectors:
            assert r.series == ((0, 0.0, 1.0, 1.0), (2, 2.0, 3.0, 3.0))
            assert r.series == tuple(store.vector_of(r.id))
        assert all(not r.series for r in results if not r.is_vector)


class TestLoad:
    def test_incremental_loads_match_one_load(self, backend_kind):
        split = PTDataStore(backend_kind=backend_kind)
        split.load_string(corpus_writer(range(3), PROCS).render())
        split.load_string(corpus_writer(range(3, 6), PROCS).render())
        whole = PTDataStore(backend_kind=backend_kind)
        whole.load_string(corpus_writer(EXECS, PROCS).render())
        try:
            # each document restates the four node attributes: the second
            # statement of an attribute writes nothing
            got, want = _table_state(split), _table_state(whole)
            assert got == want
            engine = QueryEngine(split)
            for prf in PRFILTERS.values():
                assert _keys(split, engine, engine.evaluate(prf)) == _expected(prf)
        finally:
            split.close()
            whole.close()

    def test_committed_store_reopens_with_the_same_answers(self, backend_kind, tmp_path):
        path = str(tmp_path / "corpus.db")
        store = PTDataStore(backend_kind=backend_kind, database=path)
        store.load_string(corpus_writer(EXECS, PROCS).render())
        store.commit()
        before = _table_state(store)
        store.close()
        reopened = PTDataStore(backend_kind=backend_kind, database=path)
        try:
            assert _table_state(reopened) == before
            engine = QueryEngine(reopened)
            prf = PRFILTERS["conjunction"]
            assert _keys(reopened, engine, engine.evaluate(prf)) == _expected(prf)
        finally:
            reopened.close()
