"""Row storage and the Database object for minidb.

A :class:`Table` stores rows as ``rowid -> tuple`` with monotonically
increasing row ids; secondary indexes live alongside.  :class:`Database`
owns the catalog, all tables and indexes, the per-transaction undo logs,
and (when opened on a file) the write-ahead log.

Concurrency model (see docs/minidb.md "Concurrency model"):

* Mutations run inside a :class:`Transaction`.  In the classic embedded
  mode there is a single implicit transaction (``db.begin()`` with no
  owner) and nothing below changes shape or cost.
* In *shared* mode (``Database.enable_shared()``, used by the session
  engine) tables are copy-on-write: a writer's first touch of a table
  acquires its writer lock and detaches the row dict and index
  structures, so the previously published snapshot stays immutable.
  Commit publishes a new :class:`TableVersion` per touched table under
  ``_publish_lock`` — an O(tables-touched) pointer swap.
* Readers never lock.  ``snapshot_view()`` hands out a
  :class:`SnapshotView` pinning the last published version of every
  table; views duck-type the read-side ``Database`` API (``table()``,
  ``indexes_on()``, ``catalog``, ``index_state()``) so the planner and
  operators run against either unchanged.
"""

from __future__ import annotations

import array as _array
import threading
import time
from typing import Any, Iterator, Optional, Sequence

from ..obs.metrics import metrics as _M
from .catalog import Catalog, IndexMeta, TableMeta
from .errors import IntegrityError, InternalError
from .index import Index
from .locks import SCHEMA_LOCK, LockManager
from .sqltypes import coerce

# Column-store metrics (no-ops while the registry is disabled).
_CS_BUILDS = _M.counter("minidb.column_store.builds")
_CS_SEGMENTS = _M.counter("minidb.column_store.segments")

# Transaction metrics (see docs/observability.md).
_TXN_BEGUN = _M.counter("minidb.txn.begun")
_TXN_COMMITTED = _M.counter("minidb.txn.committed")
_TXN_ROLLED_BACK = _M.counter("minidb.txn.rolled_back")
_TXN_SNAPSHOTS = _M.counter("minidb.txn.snapshots")
_TXN_DETACHES = _M.counter("minidb.txn.cow_detaches")

#: Rows per column segment.  Power of two so batch slicing stays aligned.
SEGMENT_ROWS = 4096


class ColumnSegment:
    """One horizontal slice of a table, encoded column-at-a-time on demand.

    Columns encode lazily (first touch) into the tightest representation
    the values allow: ``array('q')`` for all-int, ``array('d')`` for
    all-float, dictionary codes for low-cardinality strings, plain lists
    otherwise.  ``slice`` decodes back to Python lists batch-at-a-time —
    the typed arrays exist to keep the *segment* compact and the decode
    loop free of per-value type dispatch.
    """

    __slots__ = ("rowids", "rows", "n", "_encoded")

    def __init__(self, rowids: list, rows: list) -> None:
        self.rowids = rowids
        self.rows = rows
        self.n = len(rows)
        self._encoded: dict[int, tuple[str, Any]] = {}

    def column(self, pos: int) -> tuple[str, Any]:
        """``(kind, payload)`` for column *pos*; kinds: i/f/s/sd/o."""
        enc = self._encoded.get(pos)
        if enc is None:
            enc = self._encode(pos)
            self._encoded[pos] = enc
        return enc

    def _encode(self, pos: int) -> tuple[str, Any]:
        vals = [row[pos] for row in self.rows]
        if not vals:
            return ("o", vals)
        all_int = all_float = all_str = True
        for v in vals:
            t = type(v)
            if t is not int:
                all_int = False
            if t is not float:
                all_float = False
            if t is not str:
                all_str = False
            if not (all_int or all_float or all_str):
                return ("o", vals)
        if all_int:
            try:
                return ("i", _array.array("q", vals))
            except OverflowError:
                return ("o", vals)  # beyond int64: keep Python objects
        if all_float:
            return ("f", _array.array("d", vals))
        # Dictionary-encode repeated strings (resource names, hostnames);
        # fall back to a plain list once cardinality gets too high to pay.
        limit = max(16, self.n // 4)
        codes = _array.array("i")
        values: list[str] = []
        index: dict[str, int] = {}
        for v in vals:
            c = index.get(v)
            if c is None:
                if len(values) >= limit:
                    return ("s", vals)
                c = len(values)
                index[v] = c
                values.append(v)
            codes.append(c)
        return ("sd", (codes, values))

    def slice(self, pos: int, a: int, b: int) -> tuple[list, str]:
        """Decoded values ``[a:b)`` of column *pos* plus their batch kind."""
        kind, payload = self.column(pos)
        if kind == "i" or kind == "f":
            return payload[a:b].tolist(), kind
        if kind == "sd":
            codes, values = payload
            return [values[c] for c in codes[a:b]], "s"
        return payload[a:b], kind  # 's' plain list or 'o' objects


class ColumnStore:
    """Lazily-segmented columnar snapshot of one table's rows.

    Built on first use past the optimizer's row-count threshold and keyed
    to ``Table.data_version``: any committed mutation invalidates it, so
    scans never serve stale values.  Segments materialise on first touch,
    which keeps time-to-first-row flat — a LIMIT 10 query encodes one
    segment, not the table.
    """

    __slots__ = ("version", "nrows", "_items", "_segments")

    def __init__(self, table: "Table") -> None:
        self.version = table.data_version
        items = list(table.rows.items())
        self.nrows = len(items)
        self._items = items
        nseg = (self.nrows + SEGMENT_ROWS - 1) // SEGMENT_ROWS
        self._segments: list[Optional[ColumnSegment]] = [None] * nseg
        if _M.enabled:
            _CS_BUILDS.inc()

    @property
    def num_segments(self) -> int:
        return len(self._segments)

    def segment(self, i: int) -> ColumnSegment:
        seg = self._segments[i]
        if seg is None:
            a = i * SEGMENT_ROWS
            chunk = self._items[a : a + SEGMENT_ROWS]
            seg = ColumnSegment(
                [rid for rid, _row in chunk], [row for _rid, row in chunk]
            )
            self._segments[i] = seg
            if _M.enabled:
                _CS_SEGMENTS.inc()
        return seg


class Table:
    """Physical storage for one table.

    Rows (``rowid -> tuple``) stay the write path; ``column_store()``
    derives a columnar read snapshot for vectorized scans, invalidated by
    ``data_version`` which every mutation bumps.
    """

    def __init__(self, meta: TableMeta) -> None:
        self.meta = meta
        self.rows: dict[int, tuple] = {}
        self.next_rowid = 1
        self.next_auto = 1  # next auto-assigned integer primary key
        self.data_version = 0
        # Seqlock parity bit for column-store builds: odd while a row
        # mutation is in flight, even when at rest.  ``data_version``
        # bumps at the *end* of a mutation, so the epoch is what lets a
        # snapshot build detect that it started mid-mutation.
        self.mutation_epoch = 0
        self._column_store: Optional[ColumnStore] = None
        #: Last committed copy-on-write version (shared mode only).
        self.published: Optional[TableVersion] = None

    def __len__(self) -> int:
        return len(self.rows)

    def begin_mutation(self) -> None:
        """Mark a row mutation in flight (epoch goes odd)."""
        if not (self.mutation_epoch & 1):
            self.mutation_epoch += 1

    def bump_version(self) -> None:
        """Record a row mutation; drops any cached columnar snapshot.

        Always lands the mutation epoch on an even value so an unpaired
        ``bump_version`` (replay paths) cannot wedge snapshot builds.
        """
        self.data_version += 1
        self.mutation_epoch = (self.mutation_epoch | 1) + 1
        self._column_store = None

    def column_store(self) -> ColumnStore:
        store = self._column_store
        if store is not None and store.version == self.data_version:
            return store
        # Version-stable build: a writer bumping data_version (or holding
        # the epoch odd mid-mutation) while we copy must never yield a
        # torn snapshot — rows from version N+1 filed under version N.
        while True:
            epoch = self.mutation_epoch
            if epoch & 1:  # mutation in flight; let the writer finish
                time.sleep(0)
                continue
            try:
                store = ColumnStore(self)
            except RuntimeError:  # rows dict resized mid-copy
                continue
            if self.mutation_epoch == epoch and store.version == self.data_version:
                break
        self._column_store = store
        return store

    def scan(self) -> Iterator[tuple[int, tuple]]:
        return iter(self.rows.items())


class TableVersion:
    """One immutable published version of a table (shared mode).

    Duck-types the read side of :class:`Table` — ``meta``, ``rows``,
    ``data_version``, ``scan()``, ``column_store()`` and frozen
    ``indexes`` — so scan operators run against either.  Publishing is a
    pointer swap: the live table's row dict and index structures are
    adopted as-is, which is safe because the next writer detaches
    (copies) them before mutating.
    """

    __slots__ = (
        "meta", "rows", "data_version", "indexes", "_column_store", "_cs_lock"
    )

    def __init__(self, table: "Table", indexes: dict[str, Index]) -> None:
        self.meta = table.meta
        self.rows = table.rows
        self.data_version = table.data_version
        self.indexes = indexes  # lower-cased index name -> frozen Index
        self._column_store: Optional[ColumnStore] = None
        self._cs_lock = threading.Lock()

    def __len__(self) -> int:
        return len(self.rows)

    def scan(self) -> Iterator[tuple[int, tuple]]:
        return iter(self.rows.items())

    def column_store(self) -> ColumnStore:
        store = self._column_store
        if store is None:
            with self._cs_lock:
                store = self._column_store
                if store is None:
                    store = self._column_store = ColumnStore(self)
        return store


def _keys(columns: Sequence[Sequence], positions: tuple[int, ...]) -> list[tuple]:
    """Index keys of a batch given column-wise (one tuple per row)."""
    return list(zip(*map(columns.__getitem__, positions)))


class TablePlan:
    """Cached per-table mutation metadata.

    Row mutation re-resolves the same schema facts for every row — which
    indexes cover the table, where their key columns live, which foreign
    keys apply and what index (if any) serves the referenced key.  This
    plan hoists all of it so bulk loads pay the resolution once per table
    instead of once per row.  Any DDL invalidates every plan.
    """

    __slots__ = ("indexes", "not_null", "fks")

    def __init__(
        self,
        indexes: list[tuple[Index, tuple[int, ...]]],
        not_null: list[tuple[int, str]],
        fks: list[tuple],
    ) -> None:
        self.indexes = indexes
        self.not_null = not_null
        #: each entry: (fk, local_positions, ref_meta, ref_index, ref_positions)
        self.fks = fks


class UndoEntry:
    """One reversible storage mutation."""

    __slots__ = ("kind", "table", "rowid", "row", "old_row", "rows", "counters")

    def __init__(self, kind: str, table: str, rowid: int = 0, row: tuple = (),
                 old_row: tuple = (), rows: Sequence[tuple[int, tuple]] = (),
                 counters: tuple[int, int] = (0, 0)) -> None:
        self.kind = kind  # 'insert_batch' | 'delete' | 'update'
        self.table = table
        self.rowid = rowid
        self.row = row
        self.old_row = old_row
        #: insert_batch: the batch's (rowid, row) pairs and the counters
        #: (next_rowid, next_auto) it started from
        self.rows = rows
        self.counters = counters


class Transaction:
    """One unit of work against a :class:`Database`.

    Owns the undo log for rollback, the WAL record buffer flushed as one
    group at commit, and the set of tables touched (= copy-on-write
    detached and, in shared mode, writer-locked).  ``owner`` is ``None``
    for the classic embedded implicit transaction and a session id
    (``"session-<n>"``) for engine sessions; the owner string is what
    the lock manager keys on.
    """

    __slots__ = ("db", "owner", "undo", "touched", "wal_records", "active", "snapshot")

    def __init__(self, db: "Database", owner: Optional[str] = None) -> None:
        self.db = db
        self.owner = owner
        self.undo: list[UndoEntry] = []
        self.touched: set[str] = set()
        #: pending WAL records as plain tuples, encoded at commit:
        #: ("insert_batch", table, applied)
        #: | ("update", table, rowid, row) | ("delete", table, rowid)
        #: | ("ddl", sql)
        self.wal_records: list[tuple] = []
        self.active = True
        #: reader snapshot pinned at begin (shared mode only)
        self.snapshot: Optional["SnapshotView"] = None

    def log(self, record: tuple) -> None:
        self.wal_records.append(record)


class SnapshotView:
    """A consistent, read-only view over the last published versions.

    Duck-types the read-side :class:`Database` API used by the analyzer,
    planner and operators: ``catalog``, ``table()``, ``indexes_on()``
    and ``index_state()``.  When built for a writer transaction, tables
    that transaction already touched resolve to the *live* table so a
    session reads its own uncommitted writes.
    """

    __slots__ = ("_db", "_versions", "_txn", "catalog")

    def __init__(
        self,
        db: "Database",
        versions: "dict[str, Table | TableVersion]",
        txn: Optional[Transaction] = None,
    ) -> None:
        self._db = db
        self._versions = versions
        self._txn = txn
        self.catalog = db.catalog

    def table(self, name: str):
        meta = self.catalog.table(name)  # raises ProgrammingError if absent
        key = meta.name.lower()
        txn = self._txn
        if txn is not None and key in txn.touched:
            return self._db.tables[key]
        version = self._versions.get(key)
        if version is None:
            # Created after this snapshot was pinned (DDL is schema-locked
            # and self-committing, so the published version is complete).
            table = self._db.tables[key]
            return table.published or table
        return version

    def indexes_on(self, table: str) -> list[Index]:
        version = self.table(table)
        if isinstance(version, TableVersion):
            return list(version.indexes.values())
        return self._db.indexes_on(table)

    def index_state(self, index: Index) -> Index:
        """The snapshot's frozen counterpart of a live planner index.

        Cached plans embed live :class:`Index` objects; execution against
        a snapshot resolves them by name into the pinned version's frozen
        copies (falling back to the live index for touched tables).
        """
        version = self.table(index.table)
        if isinstance(version, TableVersion):
            return version.indexes.get(index.name.lower(), index)
        return index


class Database:
    """An open minidb database: schema + data + transaction state.

    The write-ahead log (see :mod:`repro.minidb.wal`) is attached by the
    connection layer via the ``journal`` attribute; the Database calls its
    hooks on committed mutations so that durability stays decoupled from
    execution.
    """

    def __init__(self) -> None:
        self.catalog = Catalog()
        self.tables: dict[str, Table] = {}
        self.indexes: dict[str, Index] = {}
        self._plans: dict[str, TablePlan] = {}
        self.journal = None  # set by connection/engine when file-backed
        #: the classic embedded implicit transaction (owner None)
        self._txn: Optional[Transaction] = None
        #: shared (multi-session) mode switches on copy-on-write publishing
        self.shared = False
        self.locks = LockManager()
        self._publish_lock = threading.Lock()

    @property
    def in_transaction(self) -> bool:
        return self._txn is not None

    # -- shared (multi-session) mode --------------------------------------------

    def enable_shared(self) -> None:
        """Switch on copy-on-write publishing for multi-session use."""
        with self._publish_lock:
            if self.shared:
                return
            self.shared = True
            for table in self.tables.values():
                self._publish_table(table)

    def _publish_table(self, table: Table) -> None:
        """Publish the live table state as the committed version.

        Caller holds ``_publish_lock`` (or is the sole thread, at
        ``enable_shared`` time).
        """
        frozen = {
            idx.name.lower(): idx.freeze()
            for idx in self.indexes_on(table.meta.name)
        }
        table.published = TableVersion(table, frozen)

    def snapshot_view(self, txn: Optional[Transaction] = None) -> SnapshotView:
        """A consistent read view over the last committed versions."""
        with self._publish_lock:
            versions: dict[str, Any] = {}
            for key, table in self.tables.items():
                versions[key] = table.published if table.published is not None else table
        if _M.enabled:
            _TXN_SNAPSHOTS.inc()
        return SnapshotView(self, versions, txn)

    def index_state(self, index: Index) -> Index:
        """Live databases resolve planner indexes to themselves."""
        return index

    def _touch(self, table: Table, txn: Optional[Transaction]) -> None:
        """First-mutation hook: lock, then copy-on-write detach (shared).

        Re-touching a table the transaction already detached is free, so
        every mutation path calls this unconditionally.
        """
        if txn is None:
            return
        key = table.meta.name.lower()
        if key in txn.touched:
            return
        if self.shared:
            if txn.owner is not None:
                self.locks.acquire(txn.owner, key)
            self._detach(table)
        txn.touched.add(key)

    def _detach(self, table: Table) -> None:
        """Split the live table from its published snapshot before writes."""
        table.rows = dict(table.rows)
        for idx in self.indexes_on(table.meta.name):
            idx.detach()
        table._column_store = None
        if _M.enabled:
            _TXN_DETACHES.inc()

    def lock_for_write(
        self, txn: Optional[Transaction], meta: TableMeta, children: bool = False
    ) -> None:
        """Acquire a DML statement's full lock set up front (ordered).

        The set is the target table, its FK-referenced parents (their
        indexes are read during constraint checks), and — for DELETE —
        the child tables scanned for dangling references.  Acquiring the
        whole set sorted keeps single-statement writers deadlock-free.
        """
        if not self.shared or txn is None or txn.owner is None:
            return
        names = {meta.name.lower()}
        for _fk, _pos, ref_meta, _ref_index, _ref_pos in self._plan(meta).fks:
            names.add(ref_meta.name.lower())
        if children:
            for other in self.catalog.tables.values():
                for fk in other.foreign_keys:
                    if fk.ref_table.lower() == meta.name.lower():
                        names.add(other.name.lower())
        self.locks.acquire_many(txn.owner, names)

    # -- schema operations -----------------------------------------------------

    def create_table(self, meta_stmt, txn: Optional[Transaction] = None) -> TableMeta:
        self._invalidate_plans()
        meta = self.catalog.create_table(meta_stmt)
        self.tables[meta.name.lower()] = Table(meta)
        # Implicit indexes for PK and UNIQUE sets.
        if meta.primary_key:
            self._make_internal_index(meta, meta.primary_key, unique=True, tag="pk")
        for i, uq in enumerate(meta.unique_sets):
            self._make_internal_index(meta, uq, unique=True, tag=f"uq{i}")
        txn = txn if txn is not None else self._txn
        if txn is not None:
            txn.touched.add(meta.name.lower())  # publish at commit
        return meta

    def _make_internal_index(self, meta: TableMeta, cols: list[str], unique: bool, tag: str) -> None:
        name = f"__{meta.name.lower()}_{tag}"
        if self.catalog.has_index(name):
            return
        imeta = IndexMeta(name, meta.name, list(cols), unique=unique)
        self.catalog.indexes[name.lower()] = imeta
        self.indexes[name.lower()] = Index(name, meta.name, cols, unique=unique)

    def drop_table(self, name: str, txn: Optional[Transaction] = None) -> None:
        self._invalidate_plans()
        meta = self.catalog.drop_table(name)
        del self.tables[meta.name.lower()]
        for iname in [n for n, idx in self.indexes.items() if idx.table.lower() == meta.name.lower()]:
            del self.indexes[iname]
        txn = txn if txn is not None else self._txn
        if txn is not None:
            # Mark touched: the commit-time publish loop skips tables that
            # no longer exist, and new snapshots simply omit the table.
            txn.touched.add(meta.name.lower())

    def create_index(self, stmt, txn: Optional[Transaction] = None) -> None:
        self._invalidate_plans()
        imeta = self.catalog.create_index(stmt)
        idx = Index(imeta.name, imeta.table, imeta.columns, unique=imeta.unique)
        table = self.table(imeta.table)
        positions = [table.meta.column_index(c) for c in imeta.columns]
        try:
            idx.rebuild(table.scan(), lambda row: tuple(row[p] for p in positions))
        except IntegrityError:
            # Existing data violates the new UNIQUE index: undo registration.
            self.catalog.drop_index(imeta.name)
            raise
        self.indexes[imeta.name.lower()] = idx
        txn = txn if txn is not None else self._txn
        if txn is not None:
            txn.touched.add(imeta.table.lower())  # republish with the index

    def drop_index(self, name: str, txn: Optional[Transaction] = None) -> None:
        self._invalidate_plans()
        imeta = self.catalog.drop_index(name)
        self.indexes.pop(imeta.name.lower(), None)
        txn = txn if txn is not None else self._txn
        if txn is not None:
            txn.touched.add(imeta.table.lower())

    def table(self, name: str) -> Table:
        meta = self.catalog.table(name)  # raises ProgrammingError if absent
        return self.tables[meta.name.lower()]

    def indexes_on(self, table: str) -> list[Index]:
        return [
            self.indexes[m.name.lower()]
            for m in self.catalog.indexes_on(table)
            if m.name.lower() in self.indexes
        ]

    # -- cached mutation plans ------------------------------------------------------

    def _plan(self, meta: TableMeta) -> TablePlan:
        key = meta.name.lower()
        plan = self._plans.get(key)
        if plan is None:
            plan = self._build_plan(meta)
            self._plans[key] = plan
        return plan

    def _build_plan(self, meta: TableMeta) -> TablePlan:
        idxs = [
            (idx, tuple(meta.column_index(c) for c in idx.columns))
            for idx in self.indexes_on(meta.name)
        ]
        not_null = [(i, c.name) for i, c in enumerate(meta.columns) if c.not_null]
        fks: list[tuple] = []
        for fk in meta.foreign_keys:
            if not self.catalog.has_table(fk.ref_table):
                continue  # forward reference during schema creation
            ref_meta = self.catalog.table(fk.ref_table)
            ref_cols = fk.ref_columns or ref_meta.primary_key
            if not ref_cols:
                continue
            positions = tuple(meta.column_index(c) for c in fk.columns)
            want = [c.lower() for c in ref_cols]
            ref_index = None
            for idx in self.indexes_on(ref_meta.name):
                if [c.lower() for c in idx.columns] == want:
                    ref_index = idx
                    break
            ref_positions = tuple(ref_meta.column_index(c) for c in ref_cols)
            fks.append((fk, positions, ref_meta, ref_index, ref_positions))
        return TablePlan(idxs, not_null, fks)

    def _invalidate_plans(self) -> None:
        self._plans.clear()

    # -- transactions -------------------------------------------------------------

    def begin(self, owner: Optional[str] = None) -> Transaction:
        """Open (or join) a transaction.

        With no *owner* this is the classic embedded implicit
        transaction: idempotent, tracked on the database itself.  With an
        owner (engine sessions) every call opens an independent
        transaction the caller threads through the executor; in shared
        mode it pins the session's read snapshot.
        """
        if owner is None:
            if self._txn is not None:
                return self._txn
            txn = self._txn = Transaction(self, None)
        else:
            txn = Transaction(self, owner)
        if self.shared:
            txn.snapshot = self.snapshot_view(txn)
        if _M.enabled:
            _TXN_BEGUN.inc()
        return txn

    def commit(self, txn: Optional[Transaction] = None) -> None:
        """Commit: WAL append + group fsync, then publish, then unlock.

        Ordering is what gives both durability and isolation: records
        reach the log before the new versions become visible, and the
        versions are published before the writer locks release.
        """
        txn = txn if txn is not None else self._txn
        if txn is None or not txn.active:
            return
        if self.journal is not None and txn.wal_records:
            self.journal.commit_records(txn.wal_records)
        if self.shared and txn.touched:
            with self._publish_lock:
                for key in txn.touched:
                    table = self.tables.get(key)
                    if table is not None:
                        self._publish_table(table)
        self._finish(txn)
        if _M.enabled:
            _TXN_COMMITTED.inc()

    def rollback(self, txn: Optional[Transaction] = None) -> None:
        txn = txn if txn is not None else self._txn
        if txn is None or not txn.active:
            return
        for entry in reversed(txn.undo):
            self._apply_undo(entry)
        self._finish(txn)
        if _M.enabled:
            _TXN_ROLLED_BACK.inc()

    def _finish(self, txn: Transaction) -> None:
        txn.undo.clear()
        txn.wal_records.clear()
        txn.touched.clear()
        txn.snapshot = None
        txn.active = False
        if txn is self._txn:
            self._txn = None
        if txn.owner is not None:
            self.locks.release_all(txn.owner)

    def _apply_undo(self, entry: UndoEntry) -> None:
        table = self.tables.get(entry.table.lower())
        if table is None:
            raise InternalError(f"undo references missing table {entry.table}")
        if entry.kind == "insert_batch":
            table.begin_mutation()
            rows = table.rows
            for rowid, row in reversed(entry.rows):
                self._unindex_row(table, rowid, row)
                rows.pop(rowid, None)
            table.next_rowid, table.next_auto = entry.counters
            table.bump_version()
        elif entry.kind == "delete":
            table.begin_mutation()
            table.rows[entry.rowid] = entry.old_row
            self._index_row(table, entry.rowid, entry.old_row, check=False)
            table.bump_version()
        elif entry.kind == "update":
            table.begin_mutation()
            self._unindex_row(table, entry.rowid, entry.row)
            table.rows[entry.rowid] = entry.old_row
            self._index_row(table, entry.rowid, entry.old_row, check=False)
            table.bump_version()
        else:  # pragma: no cover - defensive
            raise InternalError(f"unknown undo kind {entry.kind}")

    # -- row mutation (used by executor) -------------------------------------------

    def _index_row(self, table: Table, rowid: int, row: tuple, check: bool = True) -> None:
        entries = self._plan(table.meta).indexes
        if check:
            for idx, positions in entries:
                idx.check_insert(tuple(row[p] for p in positions))
        for idx, positions in entries:
            idx.insert(tuple(row[p] for p in positions), rowid)

    def _unindex_row(self, table: Table, rowid: int, row: tuple) -> None:
        for idx, positions in self._plan(table.meta).indexes:
            idx.delete(tuple(row[p] for p in positions), rowid)

    def index_rows(self, table: Table, rowids: Sequence[int], columns: Sequence[Sequence]) -> None:
        """Add a batch of rows, given column-wise, to every index of *table*
        (no uniqueness check: inserts check first, WAL replay has none)."""
        for idx, positions in self._plan(table.meta).indexes:
            idx.insert_many(_keys(columns, positions), rowids)

    def insert_rows(
        self,
        table: Table,
        columns: list[list[Any]],
        txn: Optional[Transaction] = None,
        pending: Optional[Exception] = None,
    ) -> tuple[list[tuple[int, tuple]], Optional[Any]]:
        """Insert a batch of coerced full-width rows, given column-wise.

        The one INSERT path: every INSERT statement and ``executemany``
        lands here once.  The whole batch is checked before anything is
        mutated — NOT NULL once per column, each distinct FOREIGN KEY once
        against the parent index, UNIQUE with one set over the batch — and
        the error raised is the one inserting the rows one by one would
        meet first: the first failing row, and within it NOT NULL, then
        FOREIGN KEY, then UNIQUE in plan order.  *pending* is the error
        that stopped the caller's row builder at the row after the last
        one given (arity, coercion); it is raised when no given row fails
        first.  A failed batch mutates nothing.

        A passing batch is applied in one step — bulk index inserts, one
        ``dict.update`` of the rows, one ``insert_batch`` undo entry and
        one ``insert_batch`` WAL record.  Returns ``(applied, lastrowid)``.
        """
        meta = table.meta
        plan = self._plan(meta)
        n = len(columns[0]) if columns else 0
        first_rowid = table.next_rowid
        first_auto = next_auto = table.next_auto
        auto_col = meta.rowid_pk_column
        if auto_col is not None:
            col = columns[auto_col]
            for r, v in enumerate(col):
                if v is None:
                    col[r] = v = next_auto
                if isinstance(v, int) and v >= next_auto:
                    next_auto = v + 1
        # Index keys, one tuple per row, by key positions.
        keys = {}
        for _idx, positions in plan.indexes:
            keys[positions] = _keys(columns, positions)

        # Only a row before the current first failure can replace it, and
        # at the same row the earlier check kind wins.
        stop, error = n, pending
        for i, name in plan.not_null:
            col = columns[i]
            if None in col:
                r = col.index(None)
                if r < stop:
                    stop, error = r, IntegrityError(
                        f"NOT NULL constraint failed: {meta.name}.{name}"
                    )
        for fk, positions, ref_meta, ref_index, ref_positions in plan.fks:
            fk_keys = keys.get(positions)
            if fk_keys is None:
                fk_keys = keys[positions] = _keys(columns, positions)
            if stop < n:
                fk_keys = fk_keys[:stop]
            if ref_index is not None:
                missing = ref_index.missing(fk_keys)
            else:
                missing = self._unreferenced(fk_keys, ref_meta, ref_positions)
            if missing:
                r = self._first_dangling(meta, fk_keys, missing, columns, ref_meta, ref_positions)
                if r is not None:
                    stop, error = r, IntegrityError(
                        f"FOREIGN KEY constraint failed: {meta.name}"
                        f"({', '.join(fk.columns)}) -> {fk.ref_table}"
                    )
        for idx, positions in plan.indexes:
            if idx.unique:
                batch_keys = keys[positions] if stop == n else keys[positions][:stop]
                r = idx.first_conflict(batch_keys)
                if r is not None:
                    stop, error = r, idx.unique_error(batch_keys[r])
        if error is not None:
            raise error
        if not n:
            return [], None
        txn = txn if txn is not None else self._txn
        if txn is None:
            txn = self.begin()
        self._touch(table, txn)
        # One int object per row id, shared by the row dict and every index.
        rowids = list(range(first_rowid, first_rowid + n))
        applied = list(zip(rowids, zip(*columns)))
        table.begin_mutation()
        try:
            for idx, positions in plan.indexes:
                idx.insert_many(keys[positions], rowids)
            table.rows.update(applied)
            table.next_rowid = first_rowid + n
            table.next_auto = next_auto
        finally:
            table.bump_version()
        txn.undo.append(
            UndoEntry("insert_batch", meta.name, rows=applied,
                      counters=(first_rowid, first_auto))
        )
        if self.journal is not None:
            txn.log(("insert_batch", meta.name, applied))
        lastrowid = columns[auto_col][-1] if auto_col is not None else rowids[-1]
        return applied, lastrowid

    def update_row(
        self, table: Table, rowid: int, new_row: tuple,
        txn: Optional[Transaction] = None,
    ) -> None:
        meta = table.meta
        txn = txn if txn is not None else self._txn
        if txn is None:
            txn = self.begin()
        self._touch(table, txn)
        old_row = table.rows[rowid]
        for i, col in enumerate(meta.columns):
            if new_row[i] is None and col.not_null:
                raise IntegrityError(
                    f"NOT NULL constraint failed: {meta.name}.{col.name}"
                )
        self._check_foreign_keys(meta, new_row)
        table.begin_mutation()
        try:
            self._unindex_row(table, rowid, old_row)
            try:
                self._index_row(table, rowid, new_row, check=True)
            except IntegrityError:
                self._index_row(table, rowid, old_row, check=False)
                raise
            table.rows[rowid] = new_row
        finally:
            table.bump_version()
        txn.undo.append(UndoEntry("update", meta.name, rowid, new_row, old_row))
        if self.journal is not None:
            txn.log(("update", meta.name, rowid, new_row))

    def delete_row(
        self, table: Table, rowid: int, txn: Optional[Transaction] = None
    ) -> None:
        meta = table.meta
        txn = txn if txn is not None else self._txn
        if txn is None:
            txn = self.begin()
        self._touch(table, txn)
        table.begin_mutation()
        try:
            old_row = table.rows.pop(rowid)
            self._unindex_row(table, rowid, old_row)
            try:
                self._check_foreign_keys_delete(meta, old_row)
            except IntegrityError:
                table.rows[rowid] = old_row
                self._index_row(table, rowid, old_row, check=False)
                raise
        finally:
            table.bump_version()
        txn.undo.append(UndoEntry("delete", meta.name, rowid, old_row=old_row))
        if self.journal is not None:
            txn.log(("delete", meta.name, rowid))

    # -- referential integrity ---------------------------------------------------------

    def _unreferenced(
        self, keys: list[tuple], ref_meta: TableMeta, ref_positions: tuple[int, ...],
    ) -> set[tuple]:
        """The distinct non-NULL keys of *keys* no row of the (unindexed)
        parent has."""
        ref_rows = self.tables[ref_meta.name.lower()].rows.values()
        return {
            key for key in set(keys)
            if None not in key
            and not any(all(r[p] == v for p, v in zip(ref_positions, key)) for r in ref_rows)
        }

    def _first_dangling(
        self, meta: TableMeta, keys: list[tuple], missing: set[tuple],
        columns: Sequence[Sequence], ref_meta: TableMeta, ref_positions: tuple[int, ...],
    ) -> Optional[int]:
        """Position of the first FK key of a batch with no parent row.

        *missing* holds the batch's keys its parent table lacks.  NULL
        keys pass (SQL MATCH SIMPLE).  A self-referencing key may also
        point at a row of the same batch (given column-wise), but only at
        an *earlier* one — the row it names must already be there when it
        is inserted.
        """
        missing = {key for key in missing if None not in key}
        if not missing:
            return None
        earlier: dict[tuple, int] = {}
        if ref_meta is meta:
            for i, key in enumerate(_keys(columns, ref_positions)):
                earlier.setdefault(key, i)
        for i, key in enumerate(keys):
            if key in missing and earlier.get(key, i) >= i:
                return i
        return None

    def _check_foreign_keys(self, meta: TableMeta, row: tuple) -> None:
        for fk, positions, ref_meta, ref_index, ref_positions in self._plan(meta).fks:
            values = tuple(row[p] for p in positions)
            if any(v is None for v in values):
                continue  # NULL FK values pass (SQL MATCH SIMPLE)
            if ref_index is not None:
                if ref_index.lookup(values):
                    continue
            else:
                ref_table = self.tables[ref_meta.name.lower()]
                if any(
                    all(r[p] == v for p, v in zip(ref_positions, values))
                    for r in ref_table.rows.values()
                ):
                    continue
            raise IntegrityError(
                f"FOREIGN KEY constraint failed: {meta.name}"
                f"({', '.join(fk.columns)}) -> {fk.ref_table}"
            )

    def _check_foreign_keys_delete(self, meta: TableMeta, row: tuple) -> None:
        # Scan every table whose FKs reference `meta` and ensure no child
        # row still points at the deleted key.
        for other in self.catalog.tables.values():
            for fk in other.foreign_keys:
                if fk.ref_table.lower() != meta.name.lower():
                    continue
                ref_cols = fk.ref_columns or meta.primary_key
                if not ref_cols:
                    continue
                key = tuple(row[meta.column_index(c)] for c in ref_cols)
                if any(v is None for v in key):
                    continue
                child = self.tables[other.name.lower()]
                if self._key_exists(other, fk.columns, key, table=child):
                    raise IntegrityError(
                        f"FOREIGN KEY constraint failed: {other.name}"
                        f"({', '.join(fk.columns)}) still references {meta.name}"
                    )

    def _key_exists(
        self, meta: TableMeta, columns: list[str], values: tuple, table: Optional[Table] = None
    ) -> bool:
        table = table or self.tables[meta.name.lower()]
        # Prefer an index whose leading columns match.
        for idx in self.indexes_on(meta.name):
            if [c.lower() for c in idx.columns] == [c.lower() for c in columns]:
                return bool(idx.lookup(tuple(values)))
        positions = [meta.column_index(c) for c in columns]
        for row in table.rows.values():
            if all(row[p] == v for p, v in zip(positions, values)):
                return True
        return False

    # -- coercion helper -------------------------------------------------------------------

    def coerce_row(self, meta: TableMeta, values: list[Any]) -> list[Any]:
        return [coerce(v, c.affinity) for v, c in zip(values, meta.columns)]
