"""``QueryEngine.fetch_results`` materialises the same results on both
backends.

The fetch reads whole results, shares one :class:`Context` between the
results of one ``(focus_id, focus_type)``, and builds each
:class:`PerformanceResult` in one step.  None of that may show: minidb
and sqlite3 return equal lists, each result equals, hashes and prints as
one built through the public constructor, stays frozen, and keeps its
contexts in ``performance_result_has_focus`` row order.
"""

from dataclasses import FrozenInstanceError, fields

import pytest

from repro.core import PTDataStore
from repro.core.query import QueryEngine
from repro.core.results import Context, PerformanceResult

N_PROCS = 6
N_BULK = 450  # more ids than one IN (?, …) chunk of 400


def _ptdf() -> str:
    lines = [
        "Application app",
        "Execution run app",
        "Resource /run execution run",
        "Resource /code build",
        "Resource /code/main build/module",
        "Resource /code/main/solve build/module/function",
    ]
    lines += [f"Resource /run/p{p} execution/process run" for p in range(N_PROCS)]
    # Three results on one focus: {/run, /run/p0} as primary.
    for metric, value in (("CPU time", 1.5), ("Wall time", 2.0), ("Faults", 7.0)):
        lines.append(f'PerfResult run /run,/run/p0(primary) timer "{metric}" {value} seconds')
    # Message transit: sender and receiver contexts, in both orders.  The
    # sender focus is the primary focus above under another focus type.
    lines.append(
        'PerfResult run /run,/run/p0(sender):/run,/run/p1(receiver) '
        'tracer "Transit time" 0.0042 seconds'
    )
    lines.append(
        'PerfResult run /run,/run/p2(receiver):/run,/run/p1(sender) '
        'tracer "Transit time" 0.0051 seconds'
    )
    # Call-path results: parent and child contexts.
    lines.append(
        'PerfResult run /run/p3,/code/main(parent):/run/p3,/code/main/solve(child) '
        'profiler "Call count" 12 calls'
    )
    # Vector results, one of them on the shared primary focus.
    lines.append(
        "PerfResultSeries run /run,/run/p0(primary) sampler cpu_series percent "
        "0.0 0.5 1.0,nan,3.0,4.0"
    )
    lines.append(
        "PerfResultSeries run /run,/run/p1(primary) sampler cpu_series percent "
        "10.0 2.0 5.5,6.5"
    )
    # Enough scalar results to span two fetch chunks, four per focus.
    for i in range(N_BULK):
        p = i % N_PROCS
        lines.append(
            f'PerfResult run /run/p{p},/code/main/solve(primary) papi "m{i // N_PROCS}" '
            f"{i * 0.25} count"
        )
    return "\n".join(lines) + "\n"


def _loaded(kind: str) -> PTDataStore:
    store = PTDataStore(backend_kind=kind)
    store.load_string(_ptdf())
    return store


def _fetch_all(store: PTDataStore) -> list[PerformanceResult]:
    qe = QueryEngine(store)
    return qe.fetch_results(qe.result_ids([]))


@pytest.fixture
def fetched(store):
    store.load_string(_ptdf())
    return store, _fetch_all(store)


def test_minidb_and_sqlite3_fetch_equal_results():
    stores = [_loaded("minidb"), _loaded("sqlite")]
    try:
        mini, lite = (_fetch_all(s) for s in stores)
    finally:
        for s in stores:
            s.close()
    assert len(mini) == 3 + 2 + 1 + 2 + N_BULK
    assert mini == lite
    for a, b in zip(mini, lite):
        assert a.contexts == b.contexts  # same contexts in the same order
        assert a.series == b.series


def test_contexts_keep_row_order(fetched):
    store, results = fetched
    for result in results:
        rows = store.backend.query(
            "SELECT focus_id, focus_type FROM performance_result_has_focus "
            "WHERE performance_result_id = ?",
            (result.id,),
        )
        assert [(c.focus_id, c.focus_type) for c in result.contexts] == rows
    transit = [r for r in results if r.metric == "Transit time"]
    assert [[c.focus_type for c in r.contexts] for r in transit] == [
        ["sender", "receiver"],
        ["receiver", "sender"],
    ]
    (calls,) = [r for r in results if r.metric == "Call count"]
    assert [c.focus_type for c in calls.contexts] == ["parent", "child"]


def test_results_sharing_a_focus_share_its_context(fetched):
    store, results = fetched
    by_metric = {r.metric: r for r in results}
    cpu, wall, faults = (by_metric[m] for m in ("CPU time", "Wall time", "Faults"))
    assert cpu.contexts == wall.contexts == faults.contexts
    assert cpu.contexts[0] is wall.contexts[0] is faults.contexts[0]
    (primary,) = cpu.contexts
    names = {store.resource_by_id(rid).name for rid in primary.resource_ids}
    assert names == {"/run", "/run/p0"}
    # The same focus as a sender is a different context, same resources.
    first_transit = next(r for r in results if r.metric == "Transit time")
    sender = first_transit.contexts[0]
    assert sender.focus_type == "sender"
    assert sender.focus_id == primary.focus_id
    assert sender.resource_ids is primary.resource_ids
    assert sender != primary


def test_vector_results_carry_their_series(fetched):
    store, results = fetched
    vectors = [r for r in results if r.is_vector]
    assert [r.series_values() for r in vectors] == [[1.0, 3.0, 4.0], [5.5, 6.5]]
    for r in vectors:
        assert list(r.series) == [tuple(v) for v in store.vector_of(r.id)]
        assert r.value == pytest.approx(sum(r.series_values()) / len(r.series))
    assert all(r.series == () for r in results if not r.is_vector)


def test_results_match_the_public_constructor(fetched):
    _store, results = fetched
    for r in results:
        public = PerformanceResult(**{f.name: getattr(r, f.name) for f in fields(r)})
        assert r == public and public == r
        assert hash(r) == hash(public)
        assert repr(r) == repr(public)
        assert vars(r) == vars(public)
        assert list(vars(r)) == [f.name for f in fields(PerformanceResult)]
        assert all(isinstance(c, Context) for c in r.contexts)
    assert len(set(results)) == len(results)


def test_results_stay_frozen(fetched):
    _store, results = fetched
    result = results[0]
    with pytest.raises(FrozenInstanceError):
        result.value = 0.0
    with pytest.raises(FrozenInstanceError):
        del result.metric
    with pytest.raises(FrozenInstanceError):
        result.contexts[0].focus_type = "sender"
