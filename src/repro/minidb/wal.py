"""Durability for minidb: snapshot files plus a write-ahead log.

A file-backed database ``<path>`` consists of:

* ``<path>`` — a JSON snapshot of the catalog and all rows, written by
  :func:`write_snapshot` (on checkpoint/close), and
* ``<path>.wal`` — a JSON-lines log of committed mutations since the last
  snapshot.  On open the snapshot is loaded and the WAL replayed, so a
  crash between checkpoints loses nothing that was committed.  Replay cuts
  the WAL back to its last commit marker, so an uncommitted or torn tail
  never ends up in front of a later commit.

A checkpoint with nothing to fold (no commit since the last one, no WAL
on disk, a snapshot already written) writes nothing, so a read-only
session closes without touching the file.  Open decodes the snapshot and
rebuilds every index in one pass over its table's rows.

Mutation records accumulate on the :class:`~repro.minidb.storage.Transaction`
(as plain tuples) and reach the WAL file only at commit, so rollback
leaves no trace on disk.  Commits from concurrent sessions serialize
through a single append point — each commit's records plus its commit
marker are written contiguously under the append lock — and the fsync is
*group committed*: a committer whose bytes were already covered by a
neighbour's fsync skips its own (``minidb.wal.piggybacked_fsyncs``).
"""

from __future__ import annotations

import base64
import json
import os
import threading
from operator import itemgetter
from typing import Any

from ..obs.logsetup import get_logger
from ..obs.metrics import metrics as _M
from .catalog import ColumnMeta, ForeignKeyMeta, IndexMeta, TableMeta
from .errors import OperationalError
from .index import Index
from .storage import Database, Table

_FORMAT_VERSION = 1

_log = get_logger("minidb.wal")

# WAL metrics (no-ops while the registry is disabled).
_WAL_RECORDS = _M.counter("minidb.wal.records")
_WAL_BYTES = _M.counter("minidb.wal.bytes", unit="bytes")
_WAL_FSYNCS = _M.counter("minidb.wal.fsyncs")
_WAL_COMMITS = _M.counter("minidb.wal.commits")
_WAL_REPLAYED = _M.counter("minidb.wal.replayed_records")
_WAL_GROUP_COMMITS = _M.counter("minidb.wal.group_commits")
_WAL_PIGGYBACKED = _M.counter("minidb.wal.piggybacked_fsyncs")


# BLOBs travel as {"__blob__": "<base64>"}.  The codec hooks run inside
# the C encoder/decoder only for bytes values and JSON objects, so rows and
# WAL records are handed to json as they are (tuples encode as lists).


def _encode_blob(v: Any) -> dict:
    if isinstance(v, bytes):
        return {"__blob__": base64.b64encode(v).decode("ascii")}
    raise TypeError(f"Object of type {type(v).__name__} is not JSON serializable")


def _decode_blob(obj: dict) -> Any:
    if "__blob__" in obj:
        return base64.b64decode(obj["__blob__"])
    return obj


_encode = json.JSONEncoder(default=_encode_blob).encode
_decode = json.JSONDecoder(object_hook=_decode_blob).decode


def _key_getter(positions: list[int]):
    """Row -> index key tuple, without a per-row generator."""
    if len(positions) == 1:
        (p,) = positions
        return lambda row: (row[p],)
    return itemgetter(*positions)


def _table_meta_to_dict(meta: TableMeta) -> dict:
    return {
        "name": meta.name,
        "columns": [
            {
                "name": c.name,
                "type_name": c.type_name,
                "affinity": c.affinity,
                "not_null": c.not_null,
                "primary_key": c.primary_key,
                "autoincrement": c.autoincrement,
                "unique": c.unique,
                "default": c.default,
                "has_default": c.has_default,
                "references": list(c.references) if c.references else None,
            }
            for c in meta.columns
        ],
        "primary_key": meta.primary_key,
        "unique_sets": meta.unique_sets,
        "foreign_keys": [
            {"columns": fk.columns, "ref_table": fk.ref_table, "ref_columns": fk.ref_columns}
            for fk in meta.foreign_keys
        ],
    }


def _table_meta_from_dict(d: dict) -> TableMeta:
    columns = [
        ColumnMeta(
            name=c["name"],
            type_name=c["type_name"],
            affinity=c["affinity"],
            not_null=c["not_null"],
            primary_key=c["primary_key"],
            autoincrement=c["autoincrement"],
            unique=c["unique"],
            default=c["default"],
            has_default=c["has_default"],
            references=tuple(c["references"]) if c["references"] else None,
        )
        for c in d["columns"]
    ]
    meta = TableMeta(d["name"], columns, primary_key=list(d["primary_key"]))
    meta.unique_sets = [list(u) for u in d["unique_sets"]]
    meta.foreign_keys = [
        ForeignKeyMeta(list(fk["columns"]), fk["ref_table"], list(fk["ref_columns"]))
        for fk in d["foreign_keys"]
    ]
    return meta


def write_snapshot(db: Database, path: str) -> None:
    """Write the full database state atomically (tmp file + rename)."""
    doc = {
        "version": _FORMAT_VERSION,
        "tables": [],
        "indexes": [
            {
                "name": im.name,
                "table": im.table,
                "columns": im.columns,
                "unique": im.unique,
            }
            for im in db.catalog.indexes.values()
            if not im.name.startswith("__")
        ],
    }
    for key, table in db.tables.items():
        doc["tables"].append(
            {
                "meta": _table_meta_to_dict(table.meta),
                "next_rowid": table.next_rowid,
                "next_auto": table.next_auto,
                "rows": table.rows,  # int rowids encode as their str()
            }
        )
    data = _encode(doc)  # one shot through the C encoder
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.write(data)
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)


def load_snapshot(db: Database, path: str) -> None:
    """Populate an empty Database from a snapshot file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = _decode(fh.read())
    except (OSError, ValueError) as exc:
        raise OperationalError(f"cannot read database file {path}: {exc}") from exc
    if doc.get("version") != _FORMAT_VERSION:
        raise OperationalError(
            f"unsupported database format version {doc.get('version')!r}"
        )
    for tdoc in doc["tables"]:
        meta = _table_meta_from_dict(tdoc["meta"])
        db.catalog.tables[meta.name.lower()] = meta
        table = Table(meta)
        table.next_rowid = tdoc["next_rowid"]
        table.next_auto = tdoc["next_auto"]
        rows = tdoc["rows"]
        table.rows = dict(zip(map(int, rows), map(tuple, rows.values())))
        table.bump_version()
        db.tables[meta.name.lower()] = table
        if meta.primary_key:
            db._make_internal_index(meta, meta.primary_key, unique=True, tag="pk")
        for i, uq in enumerate(meta.unique_sets):
            db._make_internal_index(meta, uq, unique=True, tag=f"uq{i}")
    for idoc in doc["indexes"]:
        imeta = IndexMeta(idoc["name"], idoc["table"], list(idoc["columns"]), idoc["unique"])
        db.catalog.indexes[imeta.name.lower()] = imeta
        db.indexes[imeta.name.lower()] = Index(
            imeta.name, imeta.table, imeta.columns, imeta.unique
        )
    # Rebuild all index contents from rows.
    for key, table in db.tables.items():
        for idx in db.indexes_on(table.meta.name):
            positions = [table.meta.column_index(c) for c in idx.columns]
            idx.rebuild(table.scan(), _key_getter(positions))


class Journal:
    """Concurrent-safe WAL writer: one append point, group-commit fsync.

    Transactions buffer their records as plain tuples (see
    ``Transaction.wal_records``); :meth:`commit_records` encodes them and
    writes records + commit marker contiguously under the append lock, so
    interleaved commits from other sessions can never split a batch.
    Durability is group-committed: after appending, a committer checks
    whether a neighbour's fsync already covered its sequence number and
    skips the syscall when it did.
    """

    def __init__(self, db: Database, path: str) -> None:
        self.db = db
        self.path = path
        self.wal_path = path + ".wal"
        self._fh = None
        self._append_lock = threading.Lock()
        self._fsync_lock = threading.Lock()
        self._written_seq = 0  # commits fully appended (buffered)
        self._durable_seq = 0  # commits covered by an fsync

    # -- transaction boundary -------------------------------------------------------

    def _encode_record(self, rec: tuple) -> dict:
        op = rec[0]
        if op == "insert_batch":
            _, table, rows = rec
            return {"op": "insert_batch", "table": table, "rows": rows}
        if op == "update":
            _, table, rowid, row = rec
            return {"op": "update", "table": table, "rowid": rowid, "row": row}
        if op == "delete":
            _, table, rowid = rec
            return {"op": "delete", "table": table, "rowid": rowid}
        if op == "ddl":
            return {"op": "ddl", "sql": rec[1]}
        raise OperationalError(f"unknown journal record {op!r}")

    def _handle(self):
        if self._fh is None or self._fh.closed:
            self._fh = open(self.wal_path, "a", encoding="utf-8")
        return self._fh

    def _do_fsync(self, fileno: int) -> None:
        """Seam for crash tests (override to observe/kill between flushes)."""
        os.fsync(fileno)

    def commit_records(self, records: "list[tuple]") -> None:
        """Append one transaction's records + commit marker, durably.

        Returns only once the commit marker is covered by an fsync —
        ours, or a concurrent committer's that flushed past us (group
        commit).  Encoding happens outside the locks.
        """
        if not records:
            return
        lines = [_encode(self._encode_record(rec)) for rec in records]
        lines.append(_encode({"op": "commit"}))
        data = "\n".join(lines) + "\n"
        with self._append_lock:
            fh = self._handle()
            fh.write(data)
            fh.flush()
            self._written_seq += 1
            my_seq = self._written_seq
        with self._fsync_lock:
            if self._durable_seq < my_seq:
                # Any commit fully appended before this point rides along:
                # its bytes are on the file, our fsync makes them durable.
                covered = self._written_seq
                self._do_fsync(fh.fileno())
                if covered > self._durable_seq:
                    self._durable_seq = covered
                if _M.enabled:
                    _WAL_FSYNCS.inc()
            elif _M.enabled:
                _WAL_PIGGYBACKED.inc()
        if _M.enabled:
            _WAL_RECORDS.add(len(records))
            _WAL_BYTES.add(len(data))
            _WAL_COMMITS.inc()
            _WAL_GROUP_COMMITS.inc()

    # -- recovery / checkpoint ----------------------------------------------------------

    def replay(self) -> int:
        """Apply committed WAL records to the database; returns count applied.

        Whatever follows the last commit marker — an uncommitted batch or
        a torn line — is cut off before any new commit can be appended
        behind it (see :meth:`_cut_tail`).
        """
        if not os.path.exists(self.wal_path):
            return 0
        applied = 0
        batch: list[dict] = []
        offset = committed_end = 0
        newline_missing = False
        with open(self.wal_path, "rb") as fh:
            for raw in fh:
                offset += len(raw)
                line = raw.strip()
                if not line:
                    continue
                try:
                    rec = _decode(line.decode("utf-8"))
                except ValueError:
                    break  # torn write at the tail: ignore the partial batch
                if rec.get("op") == "commit":
                    for r in batch:
                        self._apply(r)
                        applied += 1
                    batch.clear()
                    committed_end = offset
                    newline_missing = not raw.endswith(b"\n")
                else:
                    batch.append(rec)
        self._cut_tail(committed_end, newline_missing)
        if applied:
            _WAL_REPLAYED.add(applied)
            _log.info("replayed %d WAL record(s) from %s", applied, self.wal_path)
        return applied

    def _cut_tail(self, end: int, newline_missing: bool) -> None:
        """Truncate the WAL to *end* bytes (just past its last commit marker).

        Left in place, an uncommitted record would be replayed as part of
        the next commit appended after it, and a torn line would swallow
        that commit's first record.  A WAL with no commit is removed.
        """
        size = os.path.getsize(self.wal_path)
        if end == 0:
            os.remove(self.wal_path)
        elif end < size or newline_missing:
            with open(self.wal_path, "r+b") as fh:
                fh.truncate(end)
                if newline_missing:  # a commit line torn just before its newline
                    fh.seek(end)
                    fh.write(b"\n")
                fh.flush()
                os.fsync(fh.fileno())
        if end < size:
            _log.info("cut %s back to its last commit marker (%d of %d bytes kept)",
                      self.wal_path, end, size)

    def _apply(self, rec: dict) -> None:
        op = rec["op"]
        if op == "ddl":
            from .parser import parse
            from .executor import Executor

            Executor(self.db).execute(parse(rec["sql"]))
            return
        table = self.db.tables.get(rec["table"].lower())
        if table is None:
            raise OperationalError(f"WAL references missing table {rec['table']}")
        if op == "insert":  # written by versions that logged row by row
            self._apply_insert_batch(table, [(rec["rowid"], rec["row"])])
        elif op == "insert_batch":
            self._apply_insert_batch(table, rec["rows"])
        elif op == "update":
            rowid = rec["rowid"]
            old = table.rows.get(rowid)
            if old is not None:
                self.db._unindex_row(table, rowid, old)
            row = tuple(rec["row"])
            table.rows[rowid] = row
            table.bump_version()
            self.db._index_row(table, rowid, row, check=False)
        elif op == "delete":
            rowid = rec["rowid"]
            old = table.rows.pop(rowid, None)
            table.bump_version()
            if old is not None:
                self.db._unindex_row(table, rowid, old)
        elif op == "counters":
            table.next_rowid = rec["next_rowid"]
            table.next_auto = rec["next_auto"]
        else:
            raise OperationalError(f"unknown WAL record {op!r}")

    def _apply_insert_batch(self, table: Table, pairs: list) -> None:
        """Replay one committed batch: bulk index insert, one version bump."""
        if not pairs:
            return
        rowids = [rowid for rowid, _row in pairs]
        rows = [tuple(row) for _rowid, row in pairs]
        table.rows.update(zip(rowids, rows))
        self.db.index_rows(table, rowids, list(zip(*rows)))
        table.bump_version()
        table.next_rowid = max(table.next_rowid, max(rowids) + 1)
        pk = table.meta.rowid_pk_column
        if pk is not None:
            ints = [row[pk] for row in rows if isinstance(row[pk], int)]
            if ints:
                table.next_auto = max(table.next_auto, max(ints) + 1)

    def checkpoint(self) -> None:
        """Fold the WAL into a fresh snapshot and truncate it.

        Taken under both commit locks so an in-flight commit can never
        append to a WAL that is about to be removed.  Returns without
        writing when there is nothing to fold: no commit since the last
        checkpoint, no WAL on disk and a snapshot already in place.
        """
        with self._append_lock, self._fsync_lock:
            if (
                self._written_seq == 0
                and not os.path.exists(self.wal_path)
                and os.path.exists(self.path)
            ):
                return
            if self._fh is not None and not self._fh.closed:
                self._fh.close()
            self._fh = None
            write_snapshot(self.db, self.path)
            try:
                os.remove(self.wal_path)
            except FileNotFoundError:
                pass
            self._written_seq = 0
            self._durable_seq = 0
