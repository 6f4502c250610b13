"""Row storage and the Database object for minidb.

A :class:`Table` stores rows as ``rowid -> tuple`` with monotonically
increasing row ids; secondary indexes live alongside.  :class:`Database`
owns the catalog, all tables and indexes, its one implicit transaction
(undo log and pending WAL records: no other module touches them), and
(when opened on a file) the write-ahead log.
"""

from __future__ import annotations

import array as _array
from typing import Any, Callable, Iterable, Iterator, Optional, Sequence

from ..obs.metrics import metrics as _M
from .catalog import Catalog, IndexMeta, TableMeta
from .errors import IntegrityError, InternalError
from .index import Index, batch_keys, has_null, row_keys
from .sqltypes import coerce

# Column-store metrics (no-ops while the registry is disabled).
_CS_BUILDS = _M.counter("minidb.column_store.builds")
_CS_SEGMENTS = _M.counter("minidb.column_store.segments")

# Transaction metrics (see docs/observability.md).
_TXN_BEGUN = _M.counter("minidb.txn.begun")
_TXN_COMMITTED = _M.counter("minidb.txn.committed")
_TXN_ROLLED_BACK = _M.counter("minidb.txn.rolled_back")

#: Rows per column segment.  Power of two so batch slicing stays aligned.
SEGMENT_ROWS = 4096

#: Signed array typecodes from narrowest to widest, with their ranges.
_INT_CODES = tuple(
    (tc, -(1 << (8 * size - 1)), (1 << (8 * size - 1)) - 1)
    for tc, size in (("b", 1), ("h", 2), ("i", 4), ("q", 8))
)


def _int_array(vals: Sequence[int]) -> Optional[_array.array]:
    """*vals* in the narrowest of ``b/h/i/q`` that holds them all, or
    ``None`` past int64.  Empty *vals* give an empty ``'b'`` array."""
    lo, hi = (min(vals), max(vals)) if vals else (0, 0)
    for tc, least, most in _INT_CODES:
        if least <= lo and hi <= most:
            return _array.array(tc, vals)
    return None


def encode_column(vals: Sequence) -> tuple[str, Any]:
    """The tightest typed form of one column's values, as ``(kind, payload)``.

    Kinds: ``'i'`` all-int (:func:`_int_array`), ``'f'`` all-float
    (``array('d')``), ``'sd'`` repeated strings as ``(codes, values)``
    with ``codes`` an :func:`_int_array` into the distinct ``values``,
    ``'s'`` strings with too many distinct values to pay (more than
    ``max(16, n // 4)``), and ``'o'`` anything else as the plain list:
    mixed types, NULLs, bools, bytes, ints past int64, no values.  The
    column-store segments and the snapshot file both encode through it.
    """
    if not vals or type(vals[0]) not in (int, float, str):
        return ("o", vals)  # decided without a pass over the values
    types = set(map(type, vals))
    if len(types) != 1:
        return ("o", vals)
    (t,) = types
    if t is int:
        ints = _int_array(vals)
        return ("o", vals) if ints is None else ("i", ints)
    if t is float:
        return ("f", _array.array("d", vals))
    values = list(dict.fromkeys(vals))
    if len(values) > max(16, len(vals) // 4):
        return ("s", vals)
    codes = dict(zip(values, range(len(values))))
    return ("sd", (_int_array(list(map(codes.__getitem__, vals))), values))


class ColumnSegment:
    """One horizontal slice of a table, encoded column-at-a-time on demand.

    Columns encode lazily (first touch) through :func:`encode_column`
    into the tightest representation the values allow.  ``slice``
    decodes back to Python lists batch-at-a-time — the typed arrays
    exist to keep the *segment* compact and the decode loop free of
    per-value type dispatch.
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
            enc = encode_column([row[pos] for row in self.rows])
            self._encoded[pos] = enc
        return enc

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
    ``data_version`` which every mutation bumps.  A lazy open leaves a
    table *encoded* (:meth:`defer`): ``rows`` is unset until the table is
    first reached through ``Database.table()`` or ``indexes_on()``.
    """

    def __init__(self, meta: TableMeta) -> None:
        self.meta = meta
        self.rows: dict[int, tuple] = {}
        self.next_rowid = 1
        self.next_auto = 1  # next auto-assigned integer primary key
        self.data_version = 0
        self._column_store: Optional[ColumnStore] = None
        #: the snapshot body the rows are still encoded in, as the
        #: snapshot reader keeps it (see defer); ``None`` once decoded
        self.encoded: Any = None
        self._load: Optional[Callable[[], None]] = None

    def __len__(self) -> int:
        return len(self.rows)

    def defer(self, body: Any, load: Callable[[], None]) -> None:
        """Leave the rows encoded as *body*, ``rows`` unset, until the
        first touch through ``Database.table()`` or ``indexes_on()``
        calls :meth:`materialise`.  *load* decodes them and builds the
        table's indexes; until then a checkpoint writes *body* back
        (``wal.write_snapshot``).
        """
        del self.rows
        self.encoded = body
        self._load = load

    def materialise(self) -> None:
        """Decode a table :meth:`defer` left encoded (no-op once decoded)."""
        if self.encoded is not None:
            self._load()

    def bump_version(self) -> None:
        """Record a row mutation; drops any cached columnar snapshot."""
        self.data_version += 1
        self._column_store = None

    def column_store(self) -> ColumnStore:
        store = self._column_store
        if store is None or store.version != self.data_version:
            store = self._column_store = ColumnStore(self)
        return store

    def scan(self) -> Iterator[tuple[int, tuple]]:
        return iter(self.rows.items())


def _rowid_order(table: Table) -> None:
    """Re-sort *table*'s rows into rowid order, in place (a row put back
    after a delete lands at the end of the dict)."""
    rows = table.rows
    ordered = sorted(rows.items())
    rows.clear()
    rows.update(ordered)
    table.bump_version()


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
    """The implicit unit of work of a :class:`Database` (one at a time).

    Owns the undo log for rollback and the WAL record buffer written as
    one batch at commit.  Only this module reads or writes them; the
    connection journals a DDL statement through :meth:`log`.
    """

    __slots__ = ("undo", "wal_records")

    def __init__(self) -> None:
        self.undo: list[UndoEntry] = []
        #: pending WAL records as plain tuples, encoded at commit:
        #: ("insert_batch", table, applied)
        #: | ("update", table, rowid, row) | ("delete", table, rowid)
        #: | ("ddl", sql)
        self.wal_records: list[tuple] = []

    def log(self, record: tuple) -> None:
        self.wal_records.append(record)


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
        self.journal = None  # set by the connection when file-backed
        #: the open implicit transaction, if any
        self._txn: Optional[Transaction] = None

    @property
    def in_transaction(self) -> bool:
        return self._txn is not None

    # -- schema operations -----------------------------------------------------
    # The DDL mutators neither open nor log to the transaction: the
    # connection runs each DDL statement in a transaction of its own and
    # journals the statement text, and WAL replay re-runs that text
    # outside any transaction.

    def create_table(self, meta_stmt) -> TableMeta:
        self._invalidate_plans()
        meta = self.catalog.create_table(meta_stmt)
        self.tables[meta.name.lower()] = Table(meta)
        # Implicit indexes for PK and UNIQUE sets.
        if meta.primary_key:
            self._make_internal_index(meta, meta.primary_key, unique=True, tag="pk")
        for i, uq in enumerate(meta.unique_sets):
            self._make_internal_index(meta, uq, unique=True, tag=f"uq{i}")
        return meta

    def _make_internal_index(self, meta: TableMeta, cols: list[str], unique: bool, tag: str) -> None:
        name = f"__{meta.name.lower()}_{tag}"
        if self.catalog.has_index(name):
            return
        imeta = IndexMeta(name, meta.name, list(cols), unique=unique)
        self.catalog.indexes[name.lower()] = imeta
        self.indexes[name.lower()] = Index(name, meta.name, cols, unique=unique)

    def drop_table(self, name: str) -> None:
        self._invalidate_plans()
        meta = self.catalog.drop_table(name)
        del self.tables[meta.name.lower()]
        for iname in [n for n, idx in self.indexes.items() if idx.table.lower() == meta.name.lower()]:
            del self.indexes[iname]

    def create_index(self, stmt) -> None:
        self._invalidate_plans()
        imeta = self.catalog.create_index(stmt)
        idx = Index(imeta.name, imeta.table, imeta.columns, unique=imeta.unique)
        table = self.table(imeta.table)
        positions = [table.meta.column_index(c) for c in imeta.columns]
        rows = table.rows
        try:
            idx.rebuild(row_keys(rows.values(), positions), list(rows))
        except IntegrityError:
            # Existing data violates the new UNIQUE index: undo registration.
            self.catalog.drop_index(imeta.name)
            raise
        self.indexes[imeta.name.lower()] = idx

    def drop_index(self, name: str) -> None:
        self._invalidate_plans()
        imeta = self.catalog.drop_index(name)
        self.indexes.pop(imeta.name.lower(), None)

    def table(self, name: str) -> Table:
        """The table *name*, decoded first if a lazy open left it encoded."""
        meta = self.catalog.table(name)  # raises ProgrammingError if absent
        table = self.tables[meta.name.lower()]
        if table.encoded is not None:
            table.materialise()
        return table

    def indexes_on(self, table: str) -> list[Index]:
        """The indexes on *table*, built first if it is still encoded."""
        live = self.tables.get(table.lower())
        if live is not None and live.encoded is not None:
            live.materialise()
        return self._indexes_of(table)

    def _indexes_of(self, table: str) -> list[Index]:
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

    def begin(self) -> Transaction:
        """Open (or join) the implicit transaction: idempotent, tracked
        on the database itself."""
        if self._txn is not None:
            return self._txn
        txn = self._txn = Transaction()
        if _M.enabled:
            _TXN_BEGUN.inc()
        return txn

    def commit(self) -> None:
        """Commit: append the records to the WAL and fsync, then end
        the transaction."""
        txn = self._txn
        if txn is None:
            return
        if self.journal is not None and txn.wal_records:
            self.journal.commit_records(txn.wal_records)
        self._finish(txn)
        if _M.enabled:
            _TXN_COMMITTED.inc()

    def rollback(self) -> None:
        txn = self._txn
        if txn is None:
            return
        self.undo()
        self._finish(txn)
        if _M.enabled:
            _TXN_ROLLED_BACK.inc()

    def undo(self, mark: int = 0) -> None:
        """Reverse the mutations the open transaction logged past undo
        position *mark*, newest first, and drop them from its log.  A
        table that gets deleted rows back is put in rowid order once at
        the end, not per row: a scan returns rows in rowid order, as
        sqlite3 does."""
        txn = self._txn
        restored = set()
        for entry in reversed(txn.undo[mark:]):
            self._apply_undo(entry)
            if entry.kind == "delete":
                restored.add(entry.table.lower())
        del txn.undo[mark:]
        for key in restored:
            _rowid_order(self.tables[key])

    def _finish(self, txn: Transaction) -> None:
        txn.undo.clear()
        txn.wal_records.clear()
        self._txn = None

    def _apply_undo(self, entry: UndoEntry) -> None:
        table = self.tables.get(entry.table.lower())
        if table is None:
            raise InternalError(f"undo references missing table {entry.table}")
        if entry.kind == "insert_batch":
            rows = table.rows
            for rowid, row in reversed(entry.rows):
                self._unindex_row(table, rowid, row)
                rows.pop(rowid, None)
            table.next_rowid, table.next_auto = entry.counters
            table.bump_version()
        elif entry.kind == "delete":
            table.rows[entry.rowid] = entry.old_row
            self._index_row(table, entry.rowid, entry.old_row, check=False)
            table.bump_version()
        elif entry.kind == "update":
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

    def fill(self, table: Table, rowids: list[int], columns: Sequence[Sequence]) -> None:
        """Set the rows of a table read from a snapshot, given column-wise,
        and rebuild every index on it from the columns (a one-column
        index straight from its decoded column)."""
        meta = table.meta
        for idx in self._indexes_of(meta.name):
            positions = tuple(map(meta.column_index, idx.columns))
            idx.rebuild(batch_keys(columns, positions), rowids)
        table.rows = dict(zip(rowids, zip(*columns)))
        table.encoded = table._load = None
        table.bump_version()

    def index_rows(self, table: Table, rowids: Sequence[int], columns: Sequence[Sequence]) -> None:
        """Add a batch of rows, given column-wise, to every index of *table*
        (no uniqueness check: inserts check first, WAL replay has none)."""
        for idx, positions in self._plan(table.meta).indexes:
            idx.insert_many(batch_keys(columns, positions), rowids)

    def insert_rows(
        self,
        table: Table,
        columns: list[list[Any]],
        pending: Optional[Exception] = None,
        statement_rows: Optional[int] = None,
    ) -> tuple[list[tuple[int, tuple]], Optional[Any]]:
        """Insert a batch of coerced full-width rows, given column-wise.

        The one INSERT path: every INSERT statement and ``executemany``
        lands here once.  The whole batch is checked before anything is
        mutated — NOT NULL once per column, each distinct FOREIGN KEY once
        against the parent index, UNIQUE with one set over the batch — and
        the error raised is the one sqlite3 would meet first running the
        batch: NOT NULL and UNIQUE at the failing row, FOREIGN KEY at the
        end of the failing row's statement (which is how sqlite3 checks
        it, so a row may name a parent its own statement inserts).
        *statement_rows* is the number of rows per statement —
        ``executemany`` runs one statement per parameter row — and
        ``None`` makes the whole batch one statement.  *pending* is the
        error that stopped the caller's row builder at the row after the
        last one given (arity, coercion); it is raised when no given row
        fails first.  A failed batch mutates nothing.

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
        # Native index keys, by key positions.
        keys = {}
        for _idx, positions in plan.indexes:
            keys[positions] = batch_keys(columns, positions)

        # Errors rank by when sqlite3 would raise them: 2*r for a row
        # error at row r (*pending* is one at row n), 2*end - 1 for a
        # FOREIGN KEY error of a statement ending before row end.  Only a
        # lower rank replaces the current first failure, and only rows
        # before ``limit`` can produce one.
        rank, error = (2 * n if pending is not None else 2 * n + 2), pending
        for i, name in plan.not_null:
            col = columns[i]
            if None in col:
                r = col.index(None)
                if 2 * r < rank:
                    rank, error = 2 * r, IntegrityError(
                        f"NOT NULL constraint failed: {meta.name}.{name}"
                    )
        for fk, positions, ref_meta, ref_index, ref_positions in plan.fks:
            fk_keys = keys.get(positions)
            if fk_keys is None:
                fk_keys = keys[positions] = batch_keys(columns, positions)
            limit = (rank + 1) // 2
            if limit < n:
                fk_keys = fk_keys[:limit]
            if ref_index is not None:
                missing = ref_index.missing(fk_keys)
            else:
                missing = self._unreferenced(fk_keys, ref_meta, ref_positions)
            if missing:
                end = self._first_dangling(
                    meta, fk_keys, missing, columns, ref_meta, ref_positions, statement_rows
                )
                if end is not None and 2 * end - 1 < rank:
                    rank, error = 2 * end - 1, IntegrityError(
                        f"FOREIGN KEY constraint failed: {meta.name}"
                        f"({', '.join(fk.columns)}) -> {fk.ref_table}"
                    )
        for idx, positions in plan.indexes:
            if idx.unique:
                limit = (rank + 1) // 2
                checked = keys[positions] if limit >= n else keys[positions][:limit]
                r = idx.first_conflict(checked)
                if r is not None:
                    rank, error = 2 * r, idx.unique_error(checked[r])
        if error is not None:
            raise error
        if not n:
            return [], None
        txn = self.begin()
        # One int object per row id, shared by the row dict and every index.
        rowids = list(range(first_rowid, first_rowid + n))
        applied = list(zip(rowids, zip(*columns)))
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

    def insert_statements(
        self, table: Table, statements: Iterable[tuple[list[list[Any]], Optional[Exception]]],
    ) -> tuple[int, Optional[Any]]:
        """Insert one ``(columns, pending)`` batch per statement, in order,
        as one atomic call (see :meth:`insert_rows` for each batch).

        *statements* may be lazy: a statement's rows are built only after
        the statements before it are in, so a subquery in it sees their
        rows.  A failing statement — or an error building one — undoes the
        rows of every statement before it and drops their WAL records; a
        passing call leaves one ``insert_batch`` WAL record.  Returns the
        row count and the last statement's ``lastrowid``.
        """
        txn = self.begin()
        undo_mark, wal_mark = len(txn.undo), len(txn.wal_records)
        count, lastrowid = 0, None
        try:
            for columns, pending in statements:
                applied, lastrowid = self.insert_rows(table, columns, pending=pending)
                count += len(applied)
        except BaseException:
            self.undo(undo_mark)
            del txn.wal_records[wal_mark:]
            raise
        logged = txn.wal_records[wal_mark:]
        if len(logged) > 1:
            txn.wal_records[wal_mark:] = [
                ("insert_batch", table.meta.name, [pair for rec in logged for pair in rec[2]])
            ]
        return count, lastrowid

    def update_row(self, table: Table, rowid: int, new_row: tuple) -> None:
        meta = table.meta
        txn = self.begin()
        old_row = table.rows[rowid]
        for i, col in enumerate(meta.columns):
            if new_row[i] is None and col.not_null:
                raise IntegrityError(
                    f"NOT NULL constraint failed: {meta.name}.{col.name}"
                )
        self._check_foreign_keys(meta, new_row)
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

    def delete_row(self, table: Table, rowid: int) -> None:
        meta = table.meta
        txn = self.begin()
        try:
            old_row = table.rows.pop(rowid)
            self._unindex_row(table, rowid, old_row)
            try:
                self._check_foreign_keys_delete(meta, old_row)
            except IntegrityError:
                table.rows[rowid] = old_row
                _rowid_order(table)
                self._index_row(table, rowid, old_row, check=False)
                raise
        finally:
            table.bump_version()
        txn.undo.append(UndoEntry("delete", meta.name, rowid, old_row=old_row))
        if self.journal is not None:
            txn.log(("delete", meta.name, rowid))

    # -- referential integrity ---------------------------------------------------------

    def _unreferenced(
        self, keys: Sequence, ref_meta: TableMeta, ref_positions: tuple[int, ...],
    ) -> set:
        """The distinct non-NULL native keys of *keys* no row of the
        (unindexed) parent has."""
        ref_keys = row_keys(self.table(ref_meta.name).rows.values(), ref_positions)
        width = len(ref_positions)
        return {key for key in set(keys).difference(ref_keys) if not has_null(key, width)}

    def _first_dangling(
        self, meta: TableMeta, keys: Sequence, missing: set,
        columns: Sequence[Sequence], ref_meta: TableMeta, ref_positions: tuple[int, ...],
        statement_rows: Optional[int],
    ) -> Optional[int]:
        """End (exclusive row position) of the first statement of a batch
        that leaves an FK key with no parent row.

        *keys* and *missing* are native index keys; *missing* holds the
        batch's keys its parent table lacks.  NULL
        keys pass (SQL MATCH SIMPLE).  A self-referencing key may also
        point at a row of the same batch (given column-wise) that its own
        statement or an earlier one inserts: the key is checked when its
        statement ends.  ``None`` *statement_rows* makes the batch (and
        any rows past it) one statement, ending after the last row.
        """
        width = len(ref_positions)
        missing = {key for key in missing if not has_null(key, width)}
        if not missing:
            return None
        first: dict = {}
        if ref_meta is meta:
            for j, key in enumerate(batch_keys(columns, ref_positions)):
                first.setdefault(key, j)
        k = statement_rows
        for i, key in enumerate(keys):
            if key in missing:
                end = (i // k + 1) * k if k else len(columns[0]) + 1
                if first.get(key, end) >= end:
                    return end
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
                ref_table = self.table(ref_meta.name)
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
                child = self.table(other.name)
                if self._key_exists(other, fk.columns, key, table=child):
                    raise IntegrityError(
                        f"FOREIGN KEY constraint failed: {other.name}"
                        f"({', '.join(fk.columns)}) still references {meta.name}"
                    )

    def _key_exists(
        self, meta: TableMeta, columns: list[str], values: tuple, table: Optional[Table] = None
    ) -> bool:
        table = table or self.table(meta.name)
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
