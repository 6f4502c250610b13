"""The one PTdf writer of :class:`~repro.core.datastore.PTDataStore`.

Records are resolved against the store's name→id caches, ids are
assigned client-side from per-table counters, and rows buffer in memory
until they are flushed via ``executemany`` in foreign-key dependency
order.  The closure tables (``resource_has_ancestor`` /
``resource_has_descendant``) are written alongside each new resource.

:meth:`BulkLoader.load` applies a whole record stream and commits it;
on any failure it rolls the backend transaction back and re-warms the
store's caches from the database, so a failed load leaves the store
exactly as it was.  A load takes the store's write lock before it reads
an id or a name (:meth:`~repro.dbapi.backends.Backend.begin_write`), so
two processes loading one sqlite3 store at once take turns instead of
assigning the same ids.  The store's ``add_*`` methods are single-record
writes: one handler call, one :meth:`BulkLoader.flush`, no commit, and
:meth:`BulkLoader.discard` on failure.  A record streamed through
:meth:`load` and the same record written through ``add_*`` produce the
same rows with the same ids (asserted by ``tests/core/test_bulk_load.py``).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Optional

from ..minidb.errors import ProgrammingError
from ..obs.metrics import metrics as _M
from ..ptdf.format import (
    ApplicationRec,
    ExecutionRec,
    PerfResultRec,
    PerfResultSeriesRec,
    Record,
    ResourceAttributeRec,
    ResourceConstraintRec,
    ResourceRec,
    ResourceSet,
    ResourceTypeRec,
    split_name,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .datastore import LoadStats, PTDataStore

#: Flush order = foreign-key dependency order (parents before children).
_FLUSH_ORDER: tuple[str, ...] = (
    "focus_framework",
    "application",
    "execution",
    "performance_tool",
    "metric",
    "resource_item",
    "resource_attribute",
    "resource_constraint",
    "resource_has_ancestor",
    "resource_has_descendant",
    "focus",
    "focus_has_resource",
    "performance_result",
    "performance_result_vector",
    "performance_result_has_focus",
)

#: Tables with a client-assigned integer primary key.
_ID_TABLES: tuple[str, ...] = (
    "focus_framework",
    "application",
    "execution",
    "performance_tool",
    "metric",
    "resource_item",
    "resource_attribute",
    "resource_constraint",
    "focus",
    "performance_result",
)

_INSERT_SQL: dict[str, str] = {
    "focus_framework": (
        "INSERT INTO focus_framework (id, name, base_name, parent_id) "
        "VALUES (?, ?, ?, ?)"
    ),
    "application": "INSERT INTO application (id, name) VALUES (?, ?)",
    "execution": (
        "INSERT INTO execution (id, name, application_id) VALUES (?, ?, ?)"
    ),
    "performance_tool": "INSERT INTO performance_tool (id, name) VALUES (?, ?)",
    "metric": "INSERT INTO metric (id, name) VALUES (?, ?)",
    "resource_item": (
        "INSERT INTO resource_item "
        "(id, name, base_name, parent_id, focus_framework_id, execution_id) "
        "VALUES (?, ?, ?, ?, ?, ?)"
    ),
    "resource_attribute": (
        "INSERT INTO resource_attribute (id, resource_id, name, value, attr_type) "
        "VALUES (?, ?, ?, ?, ?)"
    ),
    "resource_constraint": (
        "INSERT INTO resource_constraint (id, resource_id_1, resource_id_2) "
        "VALUES (?, ?, ?)"
    ),
    "resource_has_ancestor": (
        "INSERT INTO resource_has_ancestor (resource_id, ancestor_id) VALUES (?, ?)"
    ),
    "resource_has_descendant": (
        "INSERT INTO resource_has_descendant (resource_id, descendant_id) "
        "VALUES (?, ?)"
    ),
    "focus": "INSERT INTO focus (id, resource_hash) VALUES (?, ?)",
    "focus_has_resource": (
        "INSERT INTO focus_has_resource (focus_id, resource_id) VALUES (?, ?)"
    ),
    "performance_result": (
        "INSERT INTO performance_result "
        "(id, execution_id, metric_id, performance_tool_id, value, units, "
        "start_time, end_time, value_type) VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?)"
    ),
    "performance_result_vector": (
        "INSERT INTO performance_result_vector "
        "(performance_result_id, bin_index, bin_start, bin_end, value) "
        "VALUES (?, ?, ?, ?, ?)"
    ),
    "performance_result_has_focus": (
        "INSERT INTO performance_result_has_focus "
        "(performance_result_id, focus_id, focus_type) VALUES (?, ?, ?)"
    ),
}

# Loader metrics (no-ops while the registry is disabled; the record loop
# never touches them — per-type counts come from LoadStats after the fact).
_BATCHES_FLUSHED = _M.counter("ptdf.load.batches_flushed")
_ROWS_FLUSHED = _M.counter("ptdf.load.rows_flushed", unit="rows")

class BulkLoader:
    """One write: buffer rows per table, flush via ``executemany``.

    A loader is single-use.  :meth:`load` consumes a record stream and
    returns its :class:`LoadStats`; ``PTDataStore.add_*`` call one
    handler and :meth:`flush`.  *flush_every* bounds the buffered rows
    (``flush_every=1`` flushes after every record).
    """

    def __init__(self, store: "PTDataStore", flush_every: int = 50_000) -> None:
        self.store = store
        self.backend = store.backend
        self.flush_every = flush_every
        self._buffers: dict[str, list[tuple]] = {t: [] for t in _FLUSH_ORDER}
        self._buffered = 0
        # Lazy per-table id counters: probed on first use so untouched
        # tables never pay the MAX() lookup.
        self._next_ids: dict[str, int] = {}
        #: the first resource id this loader assigns (ids below it were stored before)
        self._first_resource_id: Optional[int] = None
        #: the store's focus cache, fetched by the first _focus_for
        self._foci: Optional[dict[str, int]] = None
        self._new_foci = 0
        #: (resource_id, name, value, attr_type) -> id of every attribute row
        #: buffered here or stored for a resource read in _stored_attributes
        self._attr_ids: dict[tuple, int] = {}
        self._attrs_read: set[int] = set()
        self._new_attrs = 0

    def _take_id(self, table: str) -> int:
        nid = self._next_ids.get(table)
        if nid is None:
            current = self.backend.max_value(table, "id")
            nid = int(current or 0) + 1
        self._next_ids[table] = nid + 1
        return nid

    def _put(self, table: str, row: tuple) -> None:
        self._buffers[table].append(row)
        self._buffered += 1

    # -- public ----------------------------------------------------------------

    def load(self, records: Iterable[Record]) -> "LoadStats":
        from .datastore import LoadStats

        store = self.store
        stats = LoadStats()
        try:
            if self.backend.begin_write():
                # Another writer may have committed since the store read
                # its caches: read them again, under the lock.
                self.discard()
            for rec in records:
                if isinstance(rec, ApplicationRec):
                    before = len(store._app_ids)
                    self._application(rec.name)
                    stats.applications += len(store._app_ids) - before
                elif isinstance(rec, ResourceTypeRec):
                    before = len(store._type_ids)
                    self._resource_type(rec.name)
                    stats.resource_types += len(store._type_ids) - before
                elif isinstance(rec, ExecutionRec):
                    before = len(store._exec_ids)
                    self._execution(rec.name, rec.application)
                    stats.executions += len(store._exec_ids) - before
                elif isinstance(rec, ResourceRec):
                    before = len(store._resource_ids)
                    self._resource(rec.name, rec.type, rec.execution)
                    stats.resources += len(store._resource_ids) - before
                elif isinstance(rec, ResourceAttributeRec):
                    self._resource_attribute(
                        rec.resource, rec.attribute, rec.value, rec.attr_type
                    )
                elif isinstance(rec, ResourceConstraintRec):
                    self._resource_constraint(rec.resource1, rec.resource2)
                    stats.constraints += 1
                elif isinstance(rec, PerfResultRec):
                    self._perf_result(rec)
                    stats.results += 1
                elif isinstance(rec, PerfResultSeriesRec):
                    self._vector_result(rec)
                    stats.results += 1
                else:
                    raise ProgrammingError(
                        f"unknown PTdf record {type(rec).__name__}"
                    )
                if self._buffered >= self.flush_every:
                    self.flush()
            self.flush()
        except BaseException:
            # Leave the store exactly as before the load.
            self.backend.rollback()
            self.discard()
            raise
        stats.foci = self._new_foci
        stats.attributes = self._new_attrs
        self.backend.commit()
        return stats

    def discard(self) -> None:
        """Rebuild the store's caches from the database, forgetting what
        this loader cached but did not flush, without rolling it back
        (the focus cache is read again on the next loader's first use)."""
        self.store._resource_obj_cache.clear()
        self.store._focus_ids = None
        self.store._warm_caches()

    def flush(self) -> None:
        """Apply all buffered rows in foreign-key dependency order."""
        if self._buffered and _M.enabled:
            _BATCHES_FLUSHED.inc()
            _ROWS_FLUSHED.add(self._buffered)
        for table in _FLUSH_ORDER:
            rows = self._buffers[table]
            if rows:
                self.backend.executemany(_INSERT_SQL[table], rows)
                self._buffers[table] = []
        self._buffered = 0

    # -- per-record handlers (also PTDataStore.add_*, one call each) -------------

    def _application(self, name: str) -> int:
        aid = self.store._app_ids.get(name)
        if aid is None:
            aid = self._take_id("application")
            self._put("application", (aid, name))
            self.store._app_ids[name] = aid
        return aid

    def _resource_type(self, type_path: str) -> int:
        segments = [s for s in type_path.split("/") if s]
        if not segments:
            raise ValueError(f"empty resource type path {type_path!r}")
        parent_id: Optional[int] = None
        tid = -1
        for depth in range(1, len(segments) + 1):
            path = "/".join(segments[:depth])
            tid = self.store._type_ids.get(path, -1)
            if tid < 0:
                tid = self._take_id("focus_framework")
                self._put(
                    "focus_framework", (tid, path, segments[depth - 1], parent_id)
                )
                self.store._type_ids[path] = tid
            parent_id = tid
        return tid

    def _execution(self, name: str, application: str) -> int:
        eid = self.store._exec_ids.get(name)
        if eid is None:
            aid = self._application(application)
            eid = self._take_id("execution")
            self._put("execution", (eid, name, aid))
            self.store._exec_ids[name] = eid
        return eid

    def _metric(self, name: str) -> int:
        mid = self.store._metric_ids.get(name)
        if mid is None:
            mid = self._take_id("metric")
            self._put("metric", (mid, name))
            self.store._metric_ids[name] = mid
        return mid

    def _tool(self, name: str) -> int:
        tid = self.store._tool_ids.get(name)
        if tid is None:
            tid = self._take_id("performance_tool")
            self._put("performance_tool", (tid, name))
            self.store._tool_ids[name] = tid
        return tid

    def _resource(
        self, name: str, type_path: str, execution: Optional[str] = None
    ) -> int:
        store = self.store
        rid = store._resource_ids.get(name)
        if rid is not None:
            return rid
        segments = split_name(name)
        type_segments = [s for s in type_path.split("/") if s]
        if len(segments) != len(type_segments):
            raise ValueError(
                f"resource {name!r} has depth {len(segments)} but type "
                f"{type_path!r} has depth {len(type_segments)}"
            )
        self._resource_type(type_path)
        exec_id = store._exec_ids.get(execution) if execution else None
        if execution and exec_id is None:
            raise ProgrammingError(f"unknown execution {execution!r}")
        parent_id: Optional[int] = None
        ancestor_ids: list[int] = []
        for depth in range(1, len(segments) + 1):
            partial = "/" + "/".join(segments[:depth])
            rid = store._resource_ids.get(partial)
            if rid is None:
                tpath = "/".join(type_segments[:depth])
                rid = self._take_id("resource_item")
                if self._first_resource_id is None:
                    self._first_resource_id = rid
                self._put(
                    "resource_item",
                    (
                        rid,
                        partial,
                        segments[depth - 1],
                        parent_id,
                        store._type_ids[tpath],
                        exec_id,
                    ),
                )
                store._resource_ids[partial] = rid
                if store.use_closure_tables and ancestor_ids:
                    for a in ancestor_ids:
                        self._put("resource_has_ancestor", (rid, a))
                    for a in ancestor_ids:
                        self._put("resource_has_descendant", (a, rid))
            parent_id = rid
            ancestor_ids.append(rid)
        return rid

    def _resource_attribute(
        self, resource: str, attribute: str, value: str, attr_type: str
    ) -> int:
        """Write one attribute row, unless the resource already has it
        (stored or buffered): a restated attribute writes nothing and
        returns the existing row's id."""
        rid = self.store.resource_id(resource)
        key = (rid, attribute, str(value), attr_type)
        if rid not in self._attrs_read and self._stored_before(rid):
            self._stored_attributes(rid)
        aid = self._attr_ids.get(key)
        if aid is not None:
            return aid
        if attr_type == "resource":
            self._resource_constraint(resource, value)
        aid = self._take_id("resource_attribute")
        self._put("resource_attribute", (aid, *key))
        self._attr_ids[key] = aid
        self._new_attrs += 1
        return aid

    def _stored_before(self, rid: int) -> bool:
        """Whether resource *rid* was stored before this loader ran."""
        first = self._first_resource_id
        return first is None or rid < first

    def _stored_attributes(self, rid: int) -> None:
        """Read the stored attribute rows of resource *rid* into the
        loader's attribute map (once per resource)."""
        self._attrs_read.add(rid)
        rows = self.backend.query(
            "SELECT id, name, value, attr_type FROM resource_attribute "
            "WHERE resource_id = ?",
            (rid,),
        )
        for aid, name, value, attr_type in rows:
            self._attr_ids.setdefault((rid, name, value, attr_type), aid)

    def _resource_constraint(self, resource1: str, resource2: str) -> int:
        r1 = self.store.resource_id(resource1)
        r2 = self.store.resource_id(resource2)
        cid = self._take_id("resource_constraint")
        self._put("resource_constraint", (cid, r1, r2))
        return cid

    def _focus_for(self, resource_ids) -> int:
        foci = self._foci
        if foci is None:
            foci = self._foci = self.store.focus_ids()
        ordered = sorted(set(resource_ids))
        canonical = ",".join(map(str, ordered))
        fid = foci.get(canonical)
        if fid is not None:
            return fid
        fid = self._take_id("focus")
        self._put("focus", (fid, canonical))
        for rid in ordered:
            self._put("focus_has_resource", (fid, rid))
        foci[canonical] = fid
        self._new_foci += 1
        return fid

    def _associate_foci(self, pr_id: int, resource_sets) -> None:
        for rs in resource_sets:
            ids = [self.store.resource_id(n) for n in rs.names]
            fid = self._focus_for(ids)
            self._put("performance_result_has_focus", (pr_id, fid, rs.set_type))

    def _result_header(self, execution: str, tool: str, metric: str):
        eid = self.store._exec_ids.get(execution)
        if eid is None:
            raise ProgrammingError(f"unknown execution {execution!r}")
        return eid, self._metric(metric), self._tool(tool)

    def _perf_result(self, rec: PerfResultRec) -> int:
        resource_sets = rec.resource_sets
        if isinstance(resource_sets, ResourceSet):
            resource_sets = (resource_sets,)
        eid, mid, tid = self._result_header(rec.execution, rec.tool, rec.metric)
        pr_id = self._take_id("performance_result")
        self._put(
            "performance_result",
            (pr_id, eid, mid, tid, rec.value, rec.units, None, None, "scalar"),
        )
        self._associate_foci(pr_id, resource_sets)
        return pr_id

    def _vector_result(self, rec: PerfResultSeriesRec) -> int:
        resource_sets = rec.resource_sets
        if isinstance(resource_sets, ResourceSet):
            resource_sets = (resource_sets,)
        eid, mid, tid = self._result_header(rec.execution, rec.tool, rec.metric)
        defined = [v for v in rec.values if v is not None]
        mean = sum(defined) / len(defined) if defined else None
        end_time = rec.start_time + rec.bin_width * len(rec.values)
        pr_id = self._take_id("performance_result")
        self._put(
            "performance_result",
            (
                pr_id,
                eid,
                mid,
                tid,
                mean,
                rec.units,
                repr(rec.start_time),
                repr(end_time),
                "vector",
            ),
        )
        for i, v in enumerate(rec.values):
            if v is None:
                continue
            self._put(
                "performance_result_vector",
                (
                    pr_id,
                    i,
                    rec.start_time + i * rec.bin_width,
                    rec.start_time + (i + 1) * rec.bin_width,
                    v,
                ),
            )
        self._associate_foci(pr_id, resource_sets)
        return pr_id

