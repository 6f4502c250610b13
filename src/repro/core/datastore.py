"""PTDataStore — PerfTrack's database-backed data store (paper Section 3).

The class exposes the Figure-6 load API (`add_application`,
`add_resource`, `add_perf_result`, ...), the lookup methods the script
interface offers ("requesting information about resources and their
attributes, details of individual executions, and performance results"),
and resolution of resource filters into resource families.

Every write goes through :class:`~repro.core.bulkload.BulkLoader`, the
store's one writer: :meth:`PTDataStore.load_records` applies a whole
record stream and commits it, and each ``add_*`` method is a
single-record write through the same handler, flushed but left
uncommitted in the caller's transaction.

Two behaviours match the paper's performance notes:

* the ``resource_has_ancestor`` / ``resource_has_descendant`` closure
  tables are maintained on insert so hierarchy expansion never walks
  ``parent_id`` chains (toggle with ``use_closure_tables=False`` for the
  ablation benchmark), and
* foci (contexts) are deduplicated through a canonical hash, because "a
  single context can apply to multiple performance results".
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Iterable, Optional, Sequence, Union

from ..dbapi.backends import Backend, open_backend
from ..minidb.errors import ProgrammingError
from ..obs.clock import now as _now
from ..obs.logsetup import get_logger
from ..obs.metrics import metrics as _M
from ..obs.tracing import trace as _trace
from ..ptdf import basetypes
from ..ptdf.format import PerfResultRec, PerfResultSeriesRec, Record, ResourceSet
from ..ptdf.lint import Diagnostic, load_gate
from ..ptdf.parser import parse_document, parse_document_file
from . import schema as schema_mod
from .bulkload import BulkLoader
from .filters import (
    ByAttributes,
    ByConstraint,
    ByName,
    ByType,
    PrFilter,
    ResourceFamily,
    ResourceFilter,
)
from .resources import Resource, ResourceAttribute, ResourceType


@dataclass
class LoadStats:
    """Counts of objects created by one load (Table 1 bookkeeping)."""

    applications: int = 0
    resource_types: int = 0
    executions: int = 0
    resources: int = 0
    attributes: int = 0
    constraints: int = 0
    results: int = 0
    foci: int = 0

    def __iadd__(self, other: "LoadStats") -> "LoadStats":
        for f in self.__dataclass_fields__:
            setattr(self, f, getattr(self, f) + getattr(other, f))
        return self


_log = get_logger("load")

# Loader and query-layer metrics (no-ops while the registry is disabled).
# The per-record-type counters are fed from LoadStats after each load, so
# the record loop itself carries no instrumentation.
_LOADS = _M.counter("ptdf.load.loads")
_LOAD_RECORDS = _M.counter("ptdf.load.records", unit="records")
_LOAD_SECONDS = _M.histogram("ptdf.load.seconds")
_LOAD_RATE = _M.gauge("ptdf.load.records_per_s", unit="records/s")
_LOAD_TYPE_COUNTS = {
    field: _M.counter(f"ptdf.load.{field}")
    for field in LoadStats.__dataclass_fields__
}
_FILTERS_RESOLVED = _M.counter("query.filters_resolved")
_FILTER_MATCHES = _M.counter("query.filter_matches", unit="resources")
_FOCUS_RESOLVE_SECONDS = _M.histogram("query.focus_resolution_seconds")
_CLOSURE_EXPANSIONS = _M.counter("query.closure_expansions")

_CHUNK = 400  # ids per IN (?,…) list: under sqlite's default 999-parameter limit


def _chunks(values: Sequence, size: int = _CHUNK):
    for i in range(0, len(values), size):
        yield values[i : i + size]


class _CountingIter:
    """Wraps a record stream to count records as the loader consumes them."""

    __slots__ = ("_it", "n")

    def __init__(self, it: Iterable[Record]) -> None:
        self._it = it
        self.n = 0

    def __iter__(self):
        for item in self._it:
            self.n += 1
            yield item


class PTDataStore:
    """An open PerfTrack data store."""

    def __init__(
        self,
        backend: Optional[Backend] = None,
        backend_kind: str = "minidb",
        database: str = ":memory:",
        initialize: bool = True,
        load_base_types: bool = True,
        use_closure_tables: bool = True,
        with_indexes: bool = True,
    ) -> None:
        self.backend = backend if backend is not None else open_backend(backend_kind, database)
        self.use_closure_tables = use_closure_tables
        try:
            self._open(initialize, load_base_types, with_indexes)
        except BaseException:
            if backend is None:  # close what this call opened (and locked)
                self.backend.close()
            raise

    def _open(self, initialize: bool, load_base_types: bool, with_indexes: bool) -> None:
        if initialize and not schema_mod.schema_is_present(self.backend):
            schema_mod.create_schema(self.backend, with_indexes=with_indexes)
        # Name -> id caches (loaded lazily; critical for Paradyn-scale loads).
        self._type_ids: dict[str, int] = {}
        self._resource_ids: dict[str, int] = {}
        self._app_ids: dict[str, int] = {}
        self._exec_ids: dict[str, int] = {}
        self._metric_ids: dict[str, int] = {}
        self._tool_ids: dict[str, int] = {}
        # resource_hash -> focus id: only the loader reads it, so it is
        # read on the loader's first use (see focus_ids), not at open.
        self._focus_ids: Optional[dict[str, int]] = None
        # Materialised Resource objects are immutable once created, so the
        # id -> Resource cache never needs invalidation.
        self._resource_obj_cache: dict[int, Resource] = {}
        self._warm_caches()
        if initialize and load_base_types and not self._type_ids:
            self.initialize_base_types()

    # ------------------------------------------------------------------ setup

    def _warm_caches(self) -> None:
        b = self.backend
        if not schema_mod.schema_is_present(b):
            return
        self._type_ids = {n: i for i, n in b.query("SELECT id, name FROM focus_framework")}
        self._app_ids = {n: i for i, n in b.query("SELECT id, name FROM application")}
        self._exec_ids = {n: i for i, n in b.query("SELECT id, name FROM execution")}
        self._metric_ids = {n: i for i, n in b.query("SELECT id, name FROM metric")}
        self._tool_ids = {n: i for i, n in b.query("SELECT id, name FROM performance_tool")}
        self._resource_ids = {n: i for i, n in b.query("SELECT id, name FROM resource_item")}

    def focus_ids(self) -> dict[str, int]:
        """The resource_hash -> focus id cache, read from the store on
        first use and kept up to date by the loader."""
        if self._focus_ids is None:
            rows = self.backend.query("SELECT id, resource_hash FROM focus")
            self._focus_ids = {h: i for i, h in rows}
        return self._focus_ids

    def initialize_base_types(self) -> None:
        """Load the Figure-2 base types through the type-extension interface."""
        self.load_records(basetypes.base_type_records())

    def close(self) -> None:
        self.backend.close()

    def commit(self) -> None:
        self.backend.commit()

    def __enter__(self) -> "PTDataStore":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is None:
            self.backend.commit()
        else:
            self.backend.rollback()
        self.close()

    # ------------------------------------------------------------------ writes
    # Each add_* writes the rows and ids a load of the same record would.

    def _write(self, handler: str, *args) -> int:
        """Run one loader handler, flush its rows and return its id.

        The transaction stays open: committing is the caller's.  Handlers
        check a record before any of its rows are flushed, so a rejected
        record writes nothing; the loader then drops what this call
        cached, leaving earlier uncommitted writes in place.
        """
        loader = BulkLoader(self)
        try:
            new_id = getattr(loader, handler)(*args)
            loader.flush()
        except BaseException:
            loader.discard()
            raise
        return new_id

    # --------------------------------------------------------------- type system

    def add_resource_type(self, type_path: str) -> int:
        """Declare a type path; every prefix becomes a type node.

        Returns the id of the deepest node.  Used both for base types and
        for user extensions ("users may add new hierarchies or new types
        within the base hierarchies").
        """
        return self._write("_resource_type", type_path)

    def resource_type(self, type_path: str) -> Optional[ResourceType]:
        row = self.backend.query_one(
            "SELECT id, name, parent_id FROM focus_framework WHERE name = ?",
            (type_path,),
        )
        return ResourceType(*row) if row else None

    def resource_types(self) -> list[ResourceType]:
        rows = self.backend.query(
            "SELECT id, name, parent_id FROM focus_framework ORDER BY name"
        )
        return [ResourceType(*r) for r in rows]

    def top_level_types(self) -> list[ResourceType]:
        rows = self.backend.query(
            "SELECT id, name, parent_id FROM focus_framework WHERE parent_id IS NULL ORDER BY name"
        )
        return [ResourceType(*r) for r in rows]

    def child_types(self, type_id: int) -> list[ResourceType]:
        rows = self.backend.query(
            "SELECT id, name, parent_id FROM focus_framework WHERE parent_id = ? ORDER BY name",
            (type_id,),
        )
        return [ResourceType(*r) for r in rows]

    def type_id(self, type_path: str) -> int:
        tid = self._type_ids.get(type_path)
        if tid is None:
            raise ProgrammingError(f"unknown resource type {type_path!r}")
        return tid

    # ------------------------------------------------------------ dimension tables

    def add_application(self, name: str) -> int:
        return self._write("_application", name)

    def add_execution(self, name: str, application: str) -> int:
        return self._write("_execution", name, application)

    def add_metric(self, name: str) -> int:
        return self._write("_metric", name)

    def add_tool(self, name: str) -> int:
        return self._write("_tool", name)

    # ----------------------------------------------------------------- resources

    def add_resource(
        self, name: str, type_path: str, execution: Optional[str] = None
    ) -> int:
        """Insert a resource (and any missing ancestors) by full name.

        The depth of *name* must match the depth of *type_path*; ancestors
        take the corresponding type-path prefixes, so loading
        ``/Frost/batch/n1/p0`` of type ``machine-less`` hierarchies stays
        consistent with Section 2.1's naming scheme.
        """
        return self._write("_resource", name, type_path, execution)

    def add_resource_attribute(
        self, resource: str, attribute: str, value: str, attr_type: str = "string"
    ) -> int:
        return self._write("_resource_attribute", resource, attribute, value, attr_type)

    def add_resource_constraint(self, resource1: str, resource2: str) -> int:
        return self._write("_resource_constraint", resource1, resource2)

    def resource_id(self, name: str) -> int:
        rid = self._resource_ids.get(name)
        if rid is None:
            raise ProgrammingError(f"unknown resource {name!r}")
        return rid

    def has_resource(self, name: str) -> bool:
        return name in self._resource_ids

    def unique_resource_name(self, prefix: str) -> str:
        """Generate a full resource name not yet present (script interface)."""
        if prefix not in self._resource_ids:
            return prefix
        for i in itertools.count(1):
            candidate = f"{prefix}_{i}"
            if candidate not in self._resource_ids:
                return candidate
        raise AssertionError("unreachable")

    # ------------------------------------------------------------------ results

    def add_perf_result(
        self,
        execution: str,
        resource_sets: Union[ResourceSet, Sequence[ResourceSet]],
        tool: str,
        metric: str,
        value: Optional[float],
        units: str = "",
    ) -> int:
        """Store one performance result with one or more contexts."""
        rec = PerfResultRec(execution, resource_sets, tool, metric, value, units)
        return self._write("_perf_result", rec)

    def add_vector_result(
        self,
        execution: str,
        resource_sets: Union[ResourceSet, Sequence[ResourceSet]],
        tool: str,
        metric: str,
        values: Sequence[Optional[float]],
        units: str = "",
        start_time: float = 0.0,
        bin_width: float = 1.0,
    ) -> int:
        """Store one array-valued performance result (Section-6 extension).

        The whole array is one ``performance_result`` row with
        ``value_type='vector'`` (its scalar ``value`` is the mean of the
        defined bins, so scalar-only consumers still see something
        sensible); per-bin values land in ``performance_result_vector``
        with their time bounds.  ``None`` entries (Paradyn's ``nan`` bins)
        are not stored, matching the scalar loader's behaviour.
        """
        rec = PerfResultSeriesRec(
            execution, resource_sets, tool, metric, units,
            start_time, bin_width, tuple(values),
        )
        return self._write("_vector_result", rec)

    def vector_of(self, result_id: int) -> list[tuple[int, float, float, float]]:
        """(bin_index, bin_start, bin_end, value) rows of a vector result."""
        return [
            tuple(r)
            for r in self.backend.query(
                "SELECT bin_index, bin_start, bin_end, value "
                "FROM performance_result_vector "
                "WHERE performance_result_id = ? ORDER BY bin_index",
                (result_id,),
            )
        ]

    # ------------------------------------------------------------------- loading

    def load_records(self, records: Iterable[Record]) -> LoadStats:
        """Load PTdf records (the PTdataStore load interface of Figure 6).

        One :class:`~repro.core.bulkload.BulkLoader` applies the whole
        stream and commits it; on failure it rolls the transaction back
        and the store is left as it was.
        """
        if not (_M.enabled or _trace.enabled):
            return BulkLoader(self).load(records)
        # Sized inputs (the common case: PTdf parsers return lists) are
        # counted with len(), so the record loop itself runs uninstrumented
        # — one add() per load, not one per record.  Only unsized streams
        # pay for the counting wrapper.
        try:
            sized_n: Optional[int] = len(records)  # type: ignore[arg-type]
        except TypeError:
            sized_n = None
        source = records if sized_n is not None else _CountingIter(records)
        t0 = _now()
        with _trace.span("load", cat="core"):
            stats = BulkLoader(self).load(source)
        elapsed = _now() - t0
        n = sized_n if sized_n is not None else source.n
        _LOADS.inc()
        _LOAD_RECORDS.add(n)
        _LOAD_SECONDS.observe(elapsed)
        if elapsed > 0:
            _LOAD_RATE.set(n / elapsed)
        for field, counter in _LOAD_TYPE_COUNTS.items():
            counter.add(getattr(stats, field))
        _log.info(
            "loaded %d record(s) in %.3fs (%.0f records/s)",
            n, elapsed, n / elapsed if elapsed > 0 else 0.0,
        )
        return stats

    def load_string(self, text: str, lint: bool = False) -> LoadStats:
        doc = parse_document(text.split("\n"))
        load_gate([doc], self, lint)
        return self.load_records(doc.records)

    def load_file(self, path: str, lint: bool = False) -> LoadStats:
        """Parse *path* once; with *lint*, refuse it on lint errors first."""
        return load_files(self, [path], lint)[0]

    # ------------------------------------------------------------------- lookups

    _RES_COLS = (
        "r.id, r.name, f.name, r.focus_framework_id, r.parent_id, r.execution_id"
    )
    _RES_FROM = "resource_item r JOIN focus_framework f ON f.id = r.focus_framework_id"

    def resource_by_name(self, name: str) -> Optional[Resource]:
        row = self.backend.query_one(
            f"SELECT {self._RES_COLS} FROM {self._RES_FROM} WHERE r.name = ?", (name,)
        )
        return Resource(*row) if row else None

    def resource_by_id(self, resource_id: int) -> Optional[Resource]:
        cached = self._resource_obj_cache.get(resource_id)
        if cached is not None:
            return cached
        row = self.backend.query_one(
            f"SELECT {self._RES_COLS} FROM {self._RES_FROM} WHERE r.id = ?", (resource_id,)
        )
        if row is None:
            return None
        res = Resource(*row)
        self._resource_obj_cache[resource_id] = res
        return res

    def resources_by_ids(self, ids: Iterable[int]) -> list[Resource]:
        """Resources for *ids*, in order (unknown ids are skipped).

        Ids missing from the resource cache are fetched together, one
        ``WHERE r.id IN (…)`` statement per 400 ids.
        """
        ids = list(ids)
        cache = self._resource_obj_cache
        missing = sorted({rid for rid in ids if rid not in cache})
        for chunk in _chunks(missing):
            marks = ",".join("?" * len(chunk))
            for row in self.backend.query(  # noqa: PTL001 — '?' marks only
                f"SELECT {self._RES_COLS} FROM {self._RES_FROM} "
                f"WHERE r.id IN ({marks})",
                chunk,
            ):
                cache[row[0]] = Resource(*row)
        return [cache[rid] for rid in ids if rid in cache]

    def resources_of_type(self, type_path: str) -> list[Resource]:
        rows = self.backend.query(
            f"SELECT {self._RES_COLS} FROM {self._RES_FROM} WHERE f.name = ? ORDER BY r.name",
            (type_path,),
        )
        return [Resource(*r) for r in rows]

    def resources_with_base_name(self, base: str) -> list[Resource]:
        rows = self.backend.query(
            f"SELECT {self._RES_COLS} FROM {self._RES_FROM} WHERE r.base_name = ? ORDER BY r.name",
            (base,),
        )
        return [Resource(*r) for r in rows]

    def children_of(self, resource_id: int) -> list[Resource]:
        rows = self.backend.query(
            f"SELECT {self._RES_COLS} FROM {self._RES_FROM} WHERE r.parent_id = ? ORDER BY r.name",
            (resource_id,),
        )
        return [Resource(*r) for r in rows]

    def top_level_resources(self) -> list[Resource]:
        rows = self.backend.query(
            f"SELECT {self._RES_COLS} FROM {self._RES_FROM} WHERE r.parent_id IS NULL ORDER BY r.name"
        )
        return [Resource(*r) for r in rows]

    def attributes_of(self, resource_id: int) -> list[ResourceAttribute]:
        rows = self.backend.query(
            "SELECT resource_id, name, value, attr_type FROM resource_attribute "
            "WHERE resource_id = ? ORDER BY name",
            (resource_id,),
        )
        return [ResourceAttribute(*r) for r in rows]

    def attribute_value(self, resource_id: int, name: str) -> Optional[str]:
        return self.backend.scalar(
            "SELECT value FROM resource_attribute WHERE resource_id = ? AND name = ?",
            (resource_id, name),
        )

    def constraints_of(self, resource_id: int) -> list[Resource]:
        rows = self.backend.query(
            "SELECT resource_id_2 FROM resource_constraint WHERE resource_id_1 = ?",
            (resource_id,),
        )
        return self.resources_by_ids([r[0] for r in rows])

    # -- hierarchy expansion (closure tables vs parent-chain walk) ---------------

    def ancestors_of(self, resource_id: int) -> set[int]:
        _CLOSURE_EXPANSIONS.inc()
        if self.use_closure_tables:
            rows = self.backend.query(
                "SELECT ancestor_id FROM resource_has_ancestor WHERE resource_id = ?",
                (resource_id,),
            )
            return {r[0] for r in rows}
        out: set[int] = set()
        current = resource_id
        while True:
            parent = self.backend.scalar(
                "SELECT parent_id FROM resource_item WHERE id = ?", (current,)
            )
            if parent is None:
                return out
            out.add(parent)
            current = parent

    def descendants_of(self, resource_id: int) -> set[int]:
        _CLOSURE_EXPANSIONS.inc()
        if self.use_closure_tables:
            rows = self.backend.query(
                "SELECT descendant_id FROM resource_has_descendant WHERE resource_id = ?",
                (resource_id,),
            )
            return {r[0] for r in rows}
        out: set[int] = set()
        frontier = [resource_id]
        while frontier:
            rows = []
            for rid in frontier:
                rows.extend(
                    r[0]
                    for r in self.backend.query(
                        "SELECT id FROM resource_item WHERE parent_id = ?", (rid,)
                    )
                )
            frontier = [r for r in rows if r not in out]
            out.update(rows)
        return out

    # -- dimensions -----------------------------------------------------------------

    def applications(self) -> list[str]:
        return [r[0] for r in self.backend.query("SELECT name FROM application ORDER BY name")]

    def executions(self, application: Optional[str] = None) -> list[str]:
        if application is None:
            rows = self.backend.query("SELECT name FROM execution ORDER BY name")
        else:
            rows = self.backend.query(
                "SELECT e.name FROM execution e JOIN application a "
                "ON a.id = e.application_id WHERE a.name = ? ORDER BY e.name",
                (application,),
            )
        return [r[0] for r in rows]

    def metrics(self) -> list[str]:
        return [r[0] for r in self.backend.query("SELECT name FROM metric ORDER BY name")]

    def tools(self) -> list[str]:
        return [
            r[0] for r in self.backend.query("SELECT name FROM performance_tool ORDER BY name")
        ]

    def execution_id(self, name: str) -> Optional[int]:
        return self._exec_ids.get(name)

    def execution_details(self, name: str) -> dict:
        """Details of one execution: application, resources, result count."""
        eid = self._exec_ids.get(name)
        if eid is None:
            raise ProgrammingError(f"unknown execution {name!r}")
        app = self.backend.scalar(
            "SELECT a.name FROM application a JOIN execution e "
            "ON e.application_id = a.id WHERE e.id = ?",
            (eid,),
        )
        n_resources = self.backend.scalar(
            "SELECT COUNT(*) FROM resource_item WHERE execution_id = ?", (eid,)
        )
        n_results = self.backend.scalar(
            "SELECT COUNT(*) FROM performance_result WHERE execution_id = ?", (eid,)
        )
        metrics = [
            r[0]
            for r in self.backend.query(
                "SELECT DISTINCT m.name FROM performance_result p "
                "JOIN metric m ON m.id = p.metric_id WHERE p.execution_id = ? "
                "ORDER BY m.name",
                (eid,),
            )
        ]
        return {
            "execution": name,
            "application": app,
            "resources": n_resources,
            "results": n_results,
            "metrics": metrics,
        }

    def count_rows(self, table: str) -> int:
        # table names come from schema.TABLE_NAMES, not user input
        return int(self.backend.scalar(f"SELECT COUNT(*) FROM {table}") or 0)  # noqa: PTL001

    def db_stats(self) -> dict[str, int]:
        return {t: self.count_rows(t) for t in schema_mod.TABLE_NAMES}

    # ------------------------------------------------------------- filter resolution

    def resolve_filter(self, f: ResourceFilter) -> ResourceFamily:
        """Apply one resource filter, including A/D/B/N expansion."""
        if not (_M.enabled or _trace.enabled):
            return self._resolve_filter_inner(f)
        t0 = _now()
        with _trace.span("resolve_filter", cat="query", filter=f.describe()):
            family = self._resolve_filter_inner(f)
        _FOCUS_RESOLVE_SECONDS.observe(_now() - t0)
        _FILTERS_RESOLVED.inc()
        _FILTER_MATCHES.add(len(family.resource_ids))
        return family

    def _resolve_filter_inner(self, f: ResourceFilter) -> ResourceFamily:
        ids = self._filter_base_ids(f)
        expanded = set(ids)
        if f.expansion.include_ancestors:
            for rid in ids:
                expanded |= self.ancestors_of(rid)
        if f.expansion.include_descendants:
            for rid in ids:
                expanded |= self.descendants_of(rid)
        return ResourceFamily(label=f.describe(), resource_ids=frozenset(expanded))

    def _filter_base_ids(self, f: ResourceFilter) -> set[int]:
        """The filter's direct matches, before A/D expansion."""
        if isinstance(f, ByType):
            ids = {
                r[0]
                for r in self.backend.query(
                    "SELECT r.id FROM resource_item r JOIN focus_framework t "
                    "ON t.id = r.focus_framework_id WHERE t.name = ?",
                    (f.type_path,),
                )
            }
        elif isinstance(f, ByName):
            if f.is_full_name:
                rid = self._resource_ids.get(f.name)
                ids = {rid} if rid is not None else set()
            else:
                ids = {
                    r[0]
                    for r in self.backend.query(
                        "SELECT id FROM resource_item WHERE base_name = ?", (f.name,)
                    )
                }
        elif isinstance(f, ByAttributes):
            ids = self._resolve_attributes(f)
        elif isinstance(f, ByConstraint):
            target = self._resource_ids.get(f.target)
            if target is None:
                ids = set()
            elif f.direction == "to":
                ids = {
                    r[0]
                    for r in self.backend.query(
                        "SELECT resource_id_1 FROM resource_constraint "
                        "WHERE resource_id_2 = ?",
                        (target,),
                    )
                }
            else:
                ids = {
                    r[0]
                    for r in self.backend.query(
                        "SELECT resource_id_2 FROM resource_constraint "
                        "WHERE resource_id_1 = ?",
                        (target,),
                    )
                }
        else:
            raise ProgrammingError(f"unknown resource filter {type(f).__name__}")
        return ids

    def _resolve_attributes(self, f: ByAttributes) -> set[int]:
        result: Optional[set[int]] = None
        for clause in f.clauses:
            rows = self.backend.query(
                "SELECT resource_id, value FROM resource_attribute WHERE name = ?",
                (clause.name,),
            )
            hit = {rid for rid, value in rows if clause.test(value)}
            result = hit if result is None else (result & hit)
            if not result:
                return set()
        assert result is not None
        if f.type_path is not None:
            type_ids = {
                r[0]
                for r in self.backend.query(
                    "SELECT r.id FROM resource_item r JOIN focus_framework t "
                    "ON t.id = r.focus_framework_id WHERE t.name = ?",
                    (f.type_path,),
                )
            }
            result &= type_ids
        return result

    def resolve_prfilter(self, prf: PrFilter) -> list[ResourceFamily]:
        return [self.resolve_filter(f) for f in prf.filters]


def load_files(
    store: PTDataStore,
    paths: Sequence[str],
    lint: bool = True,
    on_file: Optional[Callable[[str, LoadStats, int, float], None]] = None,
) -> tuple[LoadStats, list[Diagnostic]]:
    """Load PTdf files into *store*.

    Every file is parsed once, up front, and :func:`load_gate` checks
    those documents before anything is written: with *lint* it raises
    :class:`~repro.ptdf.lint.PTdfLintError` on any lint or parse error;
    without, on the first parse error.  The same records then apply in
    file order through ``store.load_records``, each document dropped once
    applied.  ``on_file(path, stats, records, seconds)`` runs after each
    file.  Returns the summed stats and the gate's warnings.
    """
    docs = [parse_document_file(path) for path in paths]
    warnings = load_gate(docs, store, lint)
    total = LoadStats()
    for i, path in enumerate(paths):
        doc, docs[i] = docs[i], None
        t0 = _now()
        with _trace.span("load.file", cat="core", file=path):
            stats = store.load_records(doc.records)
        total += stats
        if on_file is not None:
            on_file(path, stats, len(doc.records), _now() - t0)
    return total, warnings
