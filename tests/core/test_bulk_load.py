"""How records reach the store must not change what it holds.

Byte-identity is the contract: a stream loaded in one batch, flushed
after every record, or written one ``add_*`` call at a time gives the
same rows, rowids, id counters and LoadStats — so snapshots, WALs and
every downstream query agree.  A failed load must leave the store
exactly as it was.
"""

import pytest

from repro.core import PTDataStore
from repro.core.bulkload import BulkLoader
from repro.minidb.errors import ProgrammingError
from repro.ptdf.format import (
    ApplicationRec,
    ExecutionRec,
    PerfResultRec,
    PerfResultSeriesRec,
    ResourceAttributeRec,
    ResourceConstraintRec,
    ResourceRec,
    ResourceSet,
    ResourceTypeRec,
)

MACHINE_TYPE = "grid/machine/node/processor"
CODE_TYPE = "application/module/function"


def sample_records(run: str = "run-1"):
    """One small but full-coverage PTdf stream (every record kind)."""
    recs = [
        ApplicationRec("irs"),
        ResourceTypeRec(MACHINE_TYPE),
        ResourceTypeRec(CODE_TYPE),
        ResourceTypeRec("execution"),
        ResourceTypeRec("time"),
        ExecutionRec(run, "irs"),
        ResourceRec(f"/grid/mcr/node3/cpu1-{run}", MACHINE_TYPE),
        ResourceRec(f"/grid/mcr/node3/cpu2-{run}", MACHINE_TYPE),
        ResourceRec("/irs/src/matsolve", CODE_TYPE),
        ResourceRec(f"/{run}", "execution", execution=run),
        ResourceRec("/all", "time"),
        ResourceAttributeRec(f"/{run}", "trial", "3", "string"),
        ResourceAttributeRec(
            f"/{run}", "ran-on", f"/grid/mcr/node3/cpu1-{run}", "resource"
        ),
        ResourceConstraintRec(f"/{run}", f"/grid/mcr/node3/cpu2-{run}"),
    ]
    for i, cpu in enumerate((f"cpu1-{run}", f"cpu2-{run}")):
        recs.append(
            PerfResultRec(
                execution=run,
                resource_sets=(
                    ResourceSet((f"/grid/mcr/node3/{cpu}", "/irs/src/matsolve")),
                ),
                tool="mpiP",
                metric="wall_time",
                value=10.5 + i,
                units="seconds",
            )
        )
    recs.append(
        PerfResultSeriesRec(
            execution=run,
            resource_sets=(ResourceSet((f"/grid/mcr/node3/cpu1-{run}", "/all"),)),
            tool="SvPablo",
            metric="flops",
            units="mflops",
            start_time=0.0,
            bin_width=0.5,
            values=(1.0, None, 3.0, 4.0),
        )
    )
    return recs


def full_state(store):
    db = store.backend.connection.db
    return {
        name: (
            dict(db.table(name).rows),
            db.table(name).next_rowid,
            db.table(name).next_auto,
        )
        for name in db.catalog.tables
    }


def test_bulk_and_per_row_paths_are_byte_identical():
    bulk, per_row = PTDataStore(), PTDataStore()
    stats_b = [bulk.load_records(sample_records(f"run-{i}")) for i in range(3)]
    stats_p = [
        BulkLoader(per_row, flush_every=1).load(sample_records(f"run-{i}"))
        for i in range(3)
    ]
    assert stats_b == stats_p
    assert full_state(bulk) == full_state(per_row)


def _add(store, rec):
    """Write one PTdf record through the public add_* API."""
    if isinstance(rec, ApplicationRec):
        store.add_application(rec.name)
    elif isinstance(rec, ResourceTypeRec):
        store.add_resource_type(rec.name)
    elif isinstance(rec, ExecutionRec):
        store.add_execution(rec.name, rec.application)
    elif isinstance(rec, ResourceRec):
        store.add_resource(rec.name, rec.type, rec.execution)
    elif isinstance(rec, ResourceAttributeRec):
        store.add_resource_attribute(rec.resource, rec.attribute, rec.value, rec.attr_type)
    elif isinstance(rec, ResourceConstraintRec):
        store.add_resource_constraint(rec.resource1, rec.resource2)
    elif isinstance(rec, PerfResultRec):
        store.add_perf_result(
            rec.execution, rec.resource_sets, rec.tool, rec.metric, rec.value, rec.units
        )
    else:
        store.add_vector_result(
            rec.execution, rec.resource_sets, rec.tool, rec.metric, rec.values,
            rec.units, rec.start_time, rec.bin_width,
        )


def test_add_calls_write_what_a_load_writes():
    loaded, added = PTDataStore(), PTDataStore()
    for i in range(3):
        loaded.load_records(sample_records(f"run-{i}"))
        for rec in sample_records(f"run-{i}"):
            _add(added, rec)
    added.commit()
    assert full_state(added) == full_state(loaded)


def test_stats_count_every_kind():
    stats = PTDataStore().load_records(sample_records())
    assert stats.applications == 1
    assert stats.executions == 1
    assert stats.results == 3
    assert stats.attributes == 2
    assert stats.constraints == 1
    assert stats.resources > 0
    assert stats.foci > 0


def test_failed_bulk_load_leaves_store_untouched():
    store = PTDataStore()
    store.load_records(sample_records("run-0"))
    before = full_state(store)
    bad = sample_records("run-1")
    # Unknown execution mid-stream: the whole load must be rolled back.
    bad.insert(
        len(bad) - 1,
        PerfResultRec(
            execution="never-loaded",
            resource_sets=(ResourceSet(("/all",)),),
            tool="mpiP",
            metric="wall_time",
            value=1.0,
            units="seconds",
        ),
    )
    with pytest.raises(ProgrammingError):
        store.load_records(bad)
    assert full_state(store) == before
    # The store is still usable and consistent after the failure.
    stats = store.load_records(sample_records("run-1"))
    assert stats.results == 3


def test_failed_bulk_load_rewinds_caches():
    store = PTDataStore()
    store.load_records(sample_records("run-0"))
    exec_ids = dict(store._exec_ids)
    bad = [
        ExecutionRec("ghost", "irs"),
        PerfResultRec(
            execution="missing",
            resource_sets=(ResourceSet(("/nowhere",)),),
            tool="t",
            metric="m",
            value=1.0,
            units="u",
        ),
    ]
    with pytest.raises(ProgrammingError):
        store.load_records(bad)
    assert store._exec_ids == exec_ids  # "ghost" did not survive the failure


def _attribute_rows(store):
    return sorted(store.backend.query(
        "SELECT id, resource_id, name, value, attr_type FROM resource_attribute"
    ))


def _restated(run: str = "run-1"):
    """The attribute statements of sample_records(run), once more."""
    return [r for r in sample_records(run) if isinstance(r, ResourceAttributeRec)]


@pytest.mark.parametrize("backend_kind", ["minidb", "sqlite"])
def test_restated_attributes_write_nothing(backend_kind):
    store = PTDataStore(backend_kind=backend_kind)
    store.load_records(sample_records())
    rows = _attribute_rows(store)
    constraints = store.backend.scalar("SELECT COUNT(*) FROM resource_constraint")
    # stored: a second load restating them, and add_* calls
    assert store.load_records(_restated()).attributes == 0
    for rec in _restated():
        aid = store.add_resource_attribute(rec.resource, rec.attribute, rec.value, rec.attr_type)
        assert aid in {r[0] for r in rows}
    # buffered: the same statement twice in one load
    recs = sample_records("run-2")
    stats = store.load_records(recs + _restated("run-2"))
    assert stats.attributes == 2
    assert len(_attribute_rows(store)) == len(rows) + 2
    assert store.backend.scalar("SELECT COUNT(*) FROM resource_constraint") == constraints * 2
    # a new value is a new row
    assert store.load_records(
        [ResourceAttributeRec("/run-1", "trial", "4", "string")]
    ).attributes == 1
    store.close()


def test_load_into_fresh_store_reads_no_attributes():
    store = PTDataStore()
    statements = []
    execute = store.backend.execute

    def spy(sql, params=()):
        statements.append(sql)
        return execute(sql, params)

    store.backend.execute = spy
    store.load_records(sample_records() + _restated())
    assert not [s for s in statements if s.lstrip().upper().startswith("SELECT")
                and "resource_attribute" in s]
    assert len(_attribute_rows(store)) == 2


def test_focus_cache_is_read_on_the_loaders_first_use(tmp_path):
    path = str(tmp_path / "store.db")
    store = PTDataStore(database=path)
    store.load_records(sample_records("run-0"))
    store.close()
    store = PTDataStore(database=path, initialize=False)
    db = store.backend.connection.db
    assert store._focus_ids is None and db.tables["focus"].encoded is not None
    # A failed load drops the cache; the next load reads it again and
    # reuses the stored foci.
    foci = store.backend.scalar("SELECT COUNT(*) FROM focus")
    with pytest.raises(ProgrammingError):
        store.load_records(sample_records("run-0") + [
            PerfResultRec("missing", (ResourceSet(("/all",)),), "t", "m", 1.0, "u")
        ])
    assert store._focus_ids is None
    stats = store.load_records(sample_records("run-0")[5:])
    assert stats.foci == 0 and stats.results == 3
    assert store.backend.scalar("SELECT COUNT(*) FROM focus") == foci
    assert len(store._focus_ids) == foci
    store.close()
