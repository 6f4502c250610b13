"""Sharded PerfTrack data store: catalog + hash-partitioned fact shards.

The paper's headline scenario is a 16k-node BlueGene/L partition; a
single embedded database ingests and queries that volume, but every
fact row funnels through one WAL and one set of secondary indexes.  This
module splits the store the way PerfTrack's own schema suggests:

* a **catalog** database holds the full schema — the dimension tables
  (``application``, ``execution``, ``metric``, ``performance_tool``),
  the resource hierarchy (``resource_item``, ``resource_attribute``,
  ``resource_constraint``, closure tables), the focus framework and the
  ``focus`` table.  Global id assignment happens here, so the union of
  all databases is **row-for-row identical** to what the serial
  single-store load would have produced — the PR 1 byte-identical
  contents guarantee is the correctness oracle for the whole design.
* **N fact shards**, each its own minidb database behind its own
  :class:`~repro.dbapi.backends.EngineBackend` (own engine, own
  group-commit WAL).  ``performance_result``,
  ``performance_result_vector`` and ``performance_result_has_focus``
  are hash-partitioned by ``execution_id`` through :class:`ShardRouter`;
  ``focus_has_resource`` rows replicate to every shard whose results
  reference the focus, and the ``resource_has_ancestor`` closure rows of
  the focus members replicate alongside (incremental per-shard closure
  maintenance), so a shard can evaluate a whole pr-filter — including
  descendant expansion — without touching the catalog.

Shard tables carry no foreign keys (their parents live in the catalog
database) and are created **without** secondary indexes; the indexes are
built once after a bulk load (:meth:`ShardedPTDataStore.ensure_shard_indexes`),
which is several times cheaper than maintaining them row by row.

Scatter-gather evaluation lives in
:class:`repro.core.query.ShardedQueryEngine`.  PTdf files load through
the same :func:`repro.core.datastore.load_files` pipeline as the plain
store: parse every file, lint-gate, then apply in file order.
"""

from __future__ import annotations

import json
import os
from typing import Iterable, Optional

from ..dbapi.backends import Backend, EngineBackend, open_backend
from ..minidb.errors import ProgrammingError
from ..obs.clock import now as _now
from ..obs.logsetup import get_logger
from ..obs.metrics import metrics as _M
from ..obs.tracing import trace as _trace
from ..ptdf.format import Record
from . import schema as schema_mod
from .bulkload import ShardedBulkLoader
from .datastore import LoadStats, PTDataStore
from .filters import FamilySpec, PrFilter

_log = get_logger("shards")

#: Manifest file a directory-backed sharded store keeps beside its
#: databases; reopening validates the shard count against it.
MANIFEST_NAME = "shards.json"

# Shard-layer metrics (no-ops while the registry is disabled); catalogued
# in docs/observability.md.  The routing/replication counters live with
# the loader in :mod:`repro.core.bulkload`.
_SHARD_LOADS = _M.counter("shard.loads")
_SHARD_LOAD_SECONDS = _M.histogram("shard.load_seconds")
_INDEX_BUILDS = _M.counter("shard.index_builds")
_INDEX_BUILD_SECONDS = _M.histogram("shard.index_build_seconds")


class ShardRouter:
    """Deterministic execution-id → shard mapping.

    A multiplicative (Fibonacci) hash spreads consecutive execution ids
    evenly and — unlike Python's ``hash`` on str — is stable across
    processes and runs, which reopening a directory-backed store
    depends on.
    """

    __slots__ = ("n_shards",)

    _MIX = 0x9E3779B97F4A7C15  # 64-bit golden-ratio multiplier
    _MASK = (1 << 64) - 1

    def __init__(self, n_shards: int) -> None:
        if n_shards < 1:
            raise ValueError(f"n_shards must be >= 1, got {n_shards}")
        self.n_shards = n_shards

    def shard_of(self, execution_id: int) -> int:
        """The shard index owning all fact rows of one execution."""
        return (((execution_id * self._MIX) & self._MASK) >> 17) % self.n_shards


def _shard_backend(kind: str, database: str) -> Backend:
    """Open one fact-shard backend (minidb shards get their own engine)."""
    if kind.lower() == "minidb":
        return EngineBackend(database)
    return open_backend(kind, database)


class ShardedPTDataStore:
    """A PerfTrack store partitioned across a catalog and N fact shards.

    Construction mirrors :class:`PTDataStore`; pass ``directory`` for a
    persistent store (``catalog.db`` + ``shard-NNNN.db`` + a manifest
    recording the shard count) or leave it ``None`` for in-memory shards.
    Every write goes through the sharded bulk loader:
    :meth:`load_records`, and :meth:`add_perf_result` /
    :meth:`add_vector_result`, which route the fact rows to their shard.
    Lookup and filter-resolution methods not defined here, and the
    dimension ``add_*`` writes, delegate to the catalog store, which
    holds every dimension row.
    """

    def __init__(
        self,
        n_shards: Optional[int] = None,
        backend_kind: str = "minidb",
        directory: Optional[str] = None,
        initialize: bool = True,
        load_base_types: bool = True,
    ) -> None:
        self.backend_kind = backend_kind
        self.directory = directory
        if directory is not None:
            os.makedirs(directory, exist_ok=True)
            manifest = self._read_manifest(directory)
            if manifest is not None:
                if n_shards is not None and n_shards != manifest["n_shards"]:
                    raise ProgrammingError(
                        f"sharded store at {directory!r} has "
                        f"{manifest['n_shards']} shard(s); refusing to open "
                        f"with n_shards={n_shards} (resharding is not "
                        f"supported)"
                    )
                n_shards = manifest["n_shards"]
                backend_kind = self.backend_kind = manifest["backend"]
            else:
                n_shards = n_shards if n_shards is not None else 4
                self._write_manifest(directory, n_shards, backend_kind)
            catalog_db = os.path.join(directory, "catalog.db")
            shard_dbs = [
                os.path.join(directory, f"shard-{i:04d}.db")
                for i in range(n_shards)
            ]
        else:
            n_shards = n_shards if n_shards is not None else 4
            catalog_db = ":memory:"
            shard_dbs = [":memory:"] * n_shards
        self.n_shards = n_shards
        self.router = ShardRouter(n_shards)
        self.catalog = PTDataStore(
            backend_kind=backend_kind,
            database=catalog_db,
            initialize=initialize,
            load_base_types=load_base_types,
        )
        if not self.catalog.use_closure_tables:  # pragma: no cover - config guard
            raise ProgrammingError(
                "sharded stores require closure tables (per-shard closure "
                "replicas are maintained from them)"
            )
        self.shard_backends: list[Backend] = []
        for db in shard_dbs:
            backend = _shard_backend(backend_kind, db)
            if not schema_mod.shard_schema_is_present(backend):
                schema_mod.create_shard_schema(backend, with_indexes=False)
            self.shard_backends.append(backend)
        #: per-shard focus ids already replicated (focus_has_resource rows
        #: present on the shard)
        self._shard_foci: list[set[int]] = []
        #: per-shard resource ids whose closure rows are replicated
        self._shard_resources: list[set[int]] = []
        self._warm_shard_state()

    # ------------------------------------------------------------------ manifest

    @staticmethod
    def _read_manifest(directory: str) -> Optional[dict]:
        path = os.path.join(directory, MANIFEST_NAME)
        if not os.path.exists(path):
            return None
        with open(path, "r", encoding="utf-8") as fh:
            manifest = json.load(fh)
        if not isinstance(manifest, dict) or "n_shards" not in manifest:
            raise ProgrammingError(f"malformed shard manifest {path!r}")
        return manifest

    @staticmethod
    def _write_manifest(directory: str, n_shards: int, backend: str) -> None:
        path = os.path.join(directory, MANIFEST_NAME)
        tmp = path + ".tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump({"version": 1, "n_shards": n_shards, "backend": backend}, fh)
            fh.write("\n")
        os.replace(tmp, path)

    # ------------------------------------------------------------------ state

    def _warm_shard_state(self) -> None:
        """Rebuild the per-shard replication bookkeeping from the shards."""
        #: lazily built per-shard in-memory evaluation indexes; any
        #: content change (load, rollback) drops the whole set
        self._eval_indexes: dict[int, object] = {}
        self._shard_foci = []
        self._shard_resources = []
        for backend in self.shard_backends:
            self._shard_foci.append(
                {
                    r[0]
                    for r in backend.query(
                        "SELECT DISTINCT focus_id FROM focus_has_resource"
                    )
                }
            )
            self._shard_resources.append(
                {
                    r[0]
                    for r in backend.query(
                        "SELECT DISTINCT resource_id FROM resource_has_ancestor"
                    )
                }
            )

    # ------------------------------------------------------------------ loading

    def load_records(self, records: Iterable[Record]) -> LoadStats:
        """Bulk-load PTdf records, routing fact rows across the shards."""
        t0 = _now()
        with _trace.span("shard.load", cat="core", shards=self.n_shards):
            stats = self._loader().load(records)
            self.ensure_shard_indexes()
        if _M.enabled:
            _SHARD_LOADS.inc()
            _SHARD_LOAD_SECONDS.observe(_now() - t0)
        return stats

    # Parse, lint-gate and apply through load_records above.
    load_string = PTDataStore.load_string
    load_file = PTDataStore.load_file

    def _loader(self) -> ShardedBulkLoader:
        return ShardedBulkLoader(self)

    # Single-record fact writes: one handler of _loader() per call, the
    # fact rows routed to their execution's shard.
    _write = PTDataStore._write
    add_perf_result = PTDataStore.add_perf_result
    add_vector_result = PTDataStore.add_vector_result

    def ensure_shard_indexes(self) -> None:
        """Build the deferred per-shard secondary indexes where missing.

        Bulk loads insert into index-free shard tables and call this once
        at the end; a post-hoc build is several times cheaper than
        incremental maintenance.  Incremental loads into an already
        indexed shard simply find the indexes present and pay the normal
        per-row maintenance instead.
        """
        t0 = _now()
        built = 0
        for backend in self.shard_backends:
            for ddl in schema_mod.SHARD_INDEXES:
                name = ddl.split()[2]
                if not backend.has_index(name):
                    backend.execute(ddl)
                    built += 1
            backend.commit()
        if built and _M.enabled:
            _INDEX_BUILDS.add(built)
            _INDEX_BUILD_SECONDS.observe(_now() - t0)

    # ------------------------------------------------------------------ queries

    def query_engine(self):
        """A scatter-gather :class:`~repro.core.query.ShardedQueryEngine`."""
        from .query import ShardedQueryEngine

        return ShardedQueryEngine(self)

    def shard_eval_index(self, shard: int):
        """One shard's in-memory evaluation index, built on first use.

        Indexes are shared by every engine over this store and dropped
        whenever a load or rollback changes shard contents.
        """
        index = self._eval_indexes.get(shard)
        if index is None:
            from .query import ShardEvalIndex

            index = ShardEvalIndex(self.shard_backends[shard])
            self._eval_indexes[shard] = index
        return index

    def resolve_prfilter_specs(self, prf: PrFilter) -> list[FamilySpec]:
        """Resolve a pr-filter into shard-pushable family specs.

        Base ids and ancestor expansion resolve once against the catalog
        (ancestors are few); descendant expansion stays a flag, pushed
        down per shard against its closure replica by the scatter-gather
        engine.
        """
        return [self.catalog.resolve_filter_spec(f) for f in prf.filters]

    # ------------------------------------------------------------------ lookups

    def count_rows(self, table: str) -> int:
        """Total rows of one table across the catalog and every shard.

        Replicated tables (``focus_has_resource``,
        ``resource_has_ancestor``) count every copy; use
        :meth:`table_rows` for the deduplicated logical contents.
        """
        total = self.catalog.count_rows(table)
        if table in schema_mod.SHARD_TABLE_NAMES:
            for backend in self.shard_backends:
                total += int(
                    backend.scalar(f"SELECT COUNT(*) FROM {table}")  # noqa: PTL001
                    or 0
                )
        return total

    def db_stats(self) -> dict[str, int]:
        return {t: self.count_rows(t) for t in schema_mod.TABLE_NAMES}

    def table_rows(self, table: str) -> set[tuple]:
        """The logical contents of one table, as a set of value tuples.

        For sharded tables this is the union across shards (replicated
        ``focus_has_resource`` copies collapse); for everything else it
        reads the catalog.  The sharded-vs-serial differential test
        compares these against the serial store table by table.
        """
        rows: set[tuple] = {
            tuple(r)
            for r in self.catalog.backend.query(f"SELECT * FROM {table}")  # noqa: PTL001
        }
        if table in schema_mod.SHARD_TABLE_NAMES:
            for backend in self.shard_backends:
                rows.update(
                    tuple(r)
                    for r in backend.query(f"SELECT * FROM {table}")  # noqa: PTL001
                )
        return rows

    def execution_details(self, name: str) -> dict:
        """Like :meth:`PTDataStore.execution_details`, counting across shards."""
        details = self.catalog.execution_details(name)
        eid = self.catalog.execution_id(name)
        shard = self.router.shard_of(eid)
        backend = self.shard_backends[shard]
        details["results"] = int(
            backend.scalar(
                "SELECT COUNT(*) FROM performance_result WHERE execution_id = ?",
                (eid,),
            )
            or 0
        )
        details["metrics"] = sorted(
            self._metric_names_by_id()[r[0]]
            for r in backend.query(
                "SELECT DISTINCT metric_id FROM performance_result "
                "WHERE execution_id = ?",
                (eid,),
            )
        )
        return details

    def vector_of(self, result_id: int) -> list[tuple[int, float, float, float]]:
        """(bin_index, bin_start, bin_end, value) rows of a vector result."""
        for backend in self.shard_backends:
            rows = backend.query(
                "SELECT bin_index, bin_start, bin_end, value "
                "FROM performance_result_vector "
                "WHERE performance_result_id = ? ORDER BY bin_index",
                (result_id,),
            )
            if rows:
                return [tuple(r) for r in rows]
        return []

    def _metric_names_by_id(self) -> dict[int, str]:
        return {i: n for n, i in self.catalog._metric_ids.items()}

    # ------------------------------------------------------------------ lifecycle

    def commit(self) -> None:
        self.catalog.commit()
        for backend in self.shard_backends:
            backend.commit()

    def close(self) -> None:
        self.catalog.close()
        for backend in self.shard_backends:
            backend.close()

    def __enter__(self) -> "ShardedPTDataStore":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is None:
            self.commit()
        else:
            self.catalog.backend.rollback()
            for backend in self.shard_backends:
                backend.rollback()
        self.close()

    def __getattr__(self, name: str):
        # Dimension lookups, filter resolution and the name→id caches all
        # live on the catalog store; anything not overridden above
        # delegates there.  (Only called for attributes missing on self.)
        return getattr(self.catalog, name)
