"""Durability for minidb: snapshot files plus a write-ahead log.

A file-backed database ``<path>`` consists of:

* ``<path>`` — a snapshot of the catalog and all rows, written by
  :func:`write_snapshot` (on checkpoint/close), and
* ``<path>.wal`` — a JSON-lines log of committed mutations since the last
  snapshot.  On open the snapshot is loaded and the WAL replayed, so a
  crash between checkpoints loses nothing that was committed.  Replay cuts
  the WAL back to its last commit marker, so an uncommitted or torn tail
  never ends up in front of a later commit.

The snapshot (format version 3) is one JSON header line — catalog, index
definitions, and per table its counters, the byte length of its body
and the body's CRC-32 — then one binary body per table, each followed
by a newline.  A body holds the table column-wise, rowids first, one
block per column: a kind byte, the payload length (``<Q``), then the
payload, typed as :func:`~repro.minidb.storage.encode_column` (the
column store's encoder) finds it: a little-endian ``b/h/i/q`` or ``d``
array, dictionary codes plus a JSON list of the distinct strings, or
compact JSON for anything else (:func:`_encode_body`).  Open reads the
header and leaves each table encoded; its first touch
(``Database.table()`` or ``indexes_on()``) checks the CRC, decodes the
body and builds all of its indexes (:func:`_defer`).  A checkpoint
copies the body of a table still encoded byte for byte.  Formats 1 (one
JSON document, opened eagerly) and 2 (JSON body lines, opened lazily)
still open; the next checkpoint that writes rewrites them as format 3,
transcoding a format-2 body still encoded without building its indexes.

A checkpoint with nothing to fold (no commit since the last one, no WAL
on disk, a snapshot already written) writes nothing, so a read-only
session closes without touching the file.

Mutation records accumulate on the :class:`~repro.minidb.storage.Transaction`
(as plain tuples) and reach the WAL file only at commit, so rollback
leaves no trace on disk.  Each commit writes its records and its commit
marker in one append and fsyncs the file before it returns.  Only one
connection has the files open at a time: it holds ``<path>.lock``
(see ``connection._lock``).
"""

from __future__ import annotations

import array
import base64
import json
import os
import struct
import sys
import zlib
from typing import Any, NamedTuple, Optional, Sequence

from ..obs.logsetup import get_logger
from ..obs.metrics import metrics as _M
from ..obs.tracing import trace as _trace
from .catalog import ColumnMeta, ForeignKeyMeta, IndexMeta, TableMeta
from .errors import OperationalError
from .index import Index
from .storage import Database, Table, encode_column

_FORMAT_VERSION = 3

_log = get_logger("minidb.wal")

# WAL metrics (no-ops while the registry is disabled).
_WAL_RECORDS = _M.counter("minidb.wal.records")
_WAL_BYTES = _M.counter("minidb.wal.bytes", unit="bytes")
_WAL_FSYNCS = _M.counter("minidb.wal.fsyncs")
_WAL_COMMITS = _M.counter("minidb.wal.commits")
_WAL_REPLAYED = _M.counter("minidb.wal.replayed_records")
_TABLES_MATERIALISED = _M.counter("minidb.wal.tables_materialised")


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
_encode_compact = json.JSONEncoder(default=_encode_blob, separators=(",", ":")).encode
_decode = json.JSONDecoder(object_hook=_decode_blob).decode


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


#: A format-3 column block's head: kind byte, payload length.
_BLOCK = struct.Struct("<cQ")
#: The typed-array kinds and their item widths in the file; the int
#: kinds also code a dictionary block.
_CODE_WIDTHS = {b"b": 1, b"h": 2, b"i": 4, b"q": 8}
_WIDTHS = {**_CODE_WIDTHS, b"d": 8}
_BIG_ENDIAN = sys.byteorder == "big"


def _little_endian(arr: array.array) -> bytes:
    if _BIG_ENDIAN:
        arr = array.array(arr.typecode, arr)
        arr.byteswap()
    return arr.tobytes()


def _encode_body(rowids: Sequence[int], columns: Sequence[Sequence]) -> bytes:
    """One table's rows as a format-3 body: a block per column, rowids
    first, each typed as :func:`encode_column` finds it."""
    out = []
    for vals in (rowids, *columns):
        kind, payload = encode_column(vals)
        if kind == "i" or kind == "f":
            tag, data = payload.typecode.encode("ascii"), _little_endian(payload)
        elif kind == "sd":
            codes, values = payload
            tag = b"s"
            data = b"".join((codes.typecode.encode("ascii"), _little_endian(codes),
                             _encode_compact(values).encode("ascii")))
        else:  # 's' and 'o': compact JSON
            tag, data = b"j", _encode_compact(payload).encode("ascii")
        out.append(_BLOCK.pack(tag, len(data)))
        out.append(data)
    return b"".join(out)


def _typed(tag: bytes, data: memoryview) -> array.array:
    arr = array.array(tag.decode("ascii"))
    arr.frombytes(data)
    if _BIG_ENDIAN:
        arr.byteswap()
    return arr


def _decode_body(body: bytes, width: int) -> list[list]:
    """The *width* arrays (rowids, then each column) of a format-3 body."""
    view = memoryview(body)
    arrays: list[list] = []
    offset = 0
    for _ in range(width):
        if offset + _BLOCK.size > len(body):
            raise ValueError(f"body ends inside column {len(arrays)}")
        tag, size = _BLOCK.unpack_from(body, offset)
        offset += _BLOCK.size
        data = view[offset:offset + size]
        offset += size
        if len(data) != size:
            raise ValueError(f"body ends inside column {len(arrays)}")
        if tag in _WIDTHS:
            vals = _typed(tag, data).tolist()
        elif tag == b"s" and arrays and bytes(data[:1]) in _CODE_WIDTHS:
            code = bytes(data[:1])
            end = 1 + len(arrays[0]) * _CODE_WIDTHS[code]
            values = _decode(str(data[end:], "ascii"))
            if not isinstance(values, list):
                raise ValueError(f"no list of strings in column {len(arrays)}")
            vals = list(map(values.__getitem__, _typed(code, data[1:end])))
        elif tag == b"j":
            vals = _decode(str(data, "ascii"))
        else:
            raise ValueError(f"unknown kind {tag!r} of column {len(arrays)}")
        if not isinstance(vals, list) or (arrays and len(vals) != len(arrays[0])):
            raise ValueError(f"expected {width} arrays of equal length")
        arrays.append(vals)
    if offset != len(body):
        raise ValueError(f"{len(body) - offset} bytes past the last column")
    return arrays


def _decode_v2(body: bytes, width: int) -> list[list]:
    """The *width* arrays of a format-2 body line: ``[[rowid…], [col0…], …]``."""
    arrays = _decode(body.decode("ascii"))
    if not (isinstance(arrays, list) and len(arrays) == width and all(
            isinstance(a, list) and len(a) == len(arrays[0]) for a in arrays)):
        raise ValueError(f"expected {width} arrays of equal length")
    return arrays


class _Encoded(NamedTuple):
    """A table body as the file holds it, kept until the table's first
    touch: a checkpoint copies a format-3 body and transcodes a format-2 one."""

    body: bytes
    version: int
    crc: Optional[int]

    def arrays(self, table: Table, path: str) -> list[list]:
        """Rowids and columns; ``OperationalError`` if the body is corrupt."""
        width = len(table.meta.columns) + 1
        try:
            if self.version == 2:
                return _decode_v2(self.body, width)
            crc = zlib.crc32(self.body)
            if crc != self.crc:
                raise ValueError(f"CRC-32 {crc} of the body, the header lists {self.crc}")
            return _decode_body(self.body, width)
        except (ValueError, IndexError) as exc:
            raise OperationalError(
                f"cannot read table {table.meta.name} of database file {path}: {exc}"
            ) from exc


def write_snapshot(db: Database, path: str) -> None:
    """Write the full database state atomically (tmp file + rename).

    A table still encoded since a lazy open is written as the body it
    was read from, byte for byte, unless that body is format 2: it is
    transcoded, and its indexes stay unbuilt.  Rows are written in
    rowid order.
    """
    tables = []
    bodies = []
    for table in db.tables.values():
        enc = table.encoded
        if enc is not None and enc.version == _FORMAT_VERSION:
            body, crc = enc.body, enc.crc
        else:
            if enc is not None:
                rowids, *columns = enc.arrays(table, path)
            else:
                rows = table.rows
                rowids = sorted(rows)
                columns = list(zip(*map(rows.__getitem__, rowids)))
                columns = columns or [()] * len(table.meta.columns)
            body = _encode_body(rowids, columns)
            crc = zlib.crc32(body)
        bodies.append(body)
        tables.append({
            "meta": _table_meta_to_dict(table.meta),
            "next_rowid": table.next_rowid,
            "next_auto": table.next_auto,
            "bytes": len(body),
            "crc32": crc,
        })
    indexes = [
        {"name": im.name, "table": im.table, "columns": im.columns, "unique": im.unique}
        for im in db.catalog.indexes.values()
        if not im.name.startswith("__")
    ]
    header = {"version": _FORMAT_VERSION, "indexes": indexes, "tables": tables}
    tmp = path + ".tmp"
    with open(tmp, "wb") as fh:
        fh.write(_encode_compact(header).encode("ascii"))
        fh.write(b"\n")
        for body in bodies:
            fh.write(body)
            fh.write(b"\n")
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)


def _register(db: Database, tdoc: dict) -> Table:
    """Add one snapshot table (empty) and its implicit indexes to *db*."""
    meta = _table_meta_from_dict(tdoc["meta"])
    db.catalog.tables[meta.name.lower()] = meta
    table = Table(meta)
    table.next_rowid = tdoc["next_rowid"]
    table.next_auto = tdoc["next_auto"]
    db.tables[meta.name.lower()] = table
    if meta.primary_key:
        db._make_internal_index(meta, meta.primary_key, unique=True, tag="pk")
    for i, uq in enumerate(meta.unique_sets):
        db._make_internal_index(meta, uq, unique=True, tag=f"uq{i}")
    return table


def load_snapshot(db: Database, path: str) -> None:
    """Populate an empty Database from a snapshot file.

    A v2 or v3 file is read up to its header: each table stays encoded
    until it is first touched (see :func:`_defer`).
    A v1 file is decoded whole, with every index, as it always was.
    """
    try:
        with open(path, "rb") as fh:
            data = fh.read()
        head_end = data.find(b"\n")
        if head_end < 0:  # format 1: one document, no newline
            head_end = len(data)
        doc = _decode(data[:head_end].decode("utf-8"))
        version = doc.get("version")
    except (OSError, ValueError, AttributeError) as exc:
        raise OperationalError(f"cannot read database file {path}: {exc}") from exc
    if version not in (1, 2, _FORMAT_VERSION):
        raise OperationalError(f"unsupported database format version {version!r}")
    tables = [_register(db, tdoc) for tdoc in doc["tables"]]
    for idoc in doc["indexes"]:
        imeta = IndexMeta(idoc["name"], idoc["table"], list(idoc["columns"]), idoc["unique"])
        db.catalog.indexes[imeta.name.lower()] = imeta
        db.indexes[imeta.name.lower()] = Index(
            imeta.name, imeta.table, imeta.columns, imeta.unique
        )
    if version == 1:
        for table, tdoc in zip(tables, doc["tables"]):
            rows = tdoc["rows"]
            columns = list(zip(*rows.values())) or [()] * len(table.meta.columns)
            db.fill(table, list(map(int, rows)), columns)
        return
    sizes = [tdoc["bytes"] for tdoc in doc["tables"]]
    offset = head_end + 1
    if len(data) - offset != sum(sizes) + len(sizes):
        raise OperationalError(
            f"cannot read database file {path}: {len(data) - offset} bytes of table "
            f"data, the header lists {sum(sizes) + len(sizes)}"
        )
    for table, tdoc, size in zip(tables, doc["tables"], sizes):
        enc = _Encoded(data[offset:offset + size], version, tdoc.get("crc32"))
        _defer(db, path, table, enc)
        offset += size + 1


def _defer(db: Database, path: str, table: Table, enc: _Encoded) -> None:
    """Leave *table* encoded as *enc*; its first touch through
    ``Database.table()`` or ``indexes_on()`` decodes it and builds all of
    its indexes at once."""

    def load() -> None:
        with _trace.span("wal.materialise", cat="minidb", table=table.meta.name):
            rowids, *columns = enc.arrays(table, path)
            db.fill(table, rowids, columns)
        _TABLES_MATERIALISED.inc()

    table.defer(enc, load)
    for idx in db._indexes_of(table.meta.name):
        idx.defer()


class Journal:
    """The WAL writer: one append and one fsync per commit.

    Transactions buffer their records as plain tuples (see
    ``Transaction.wal_records``); :meth:`commit_records` encodes them and
    writes records + commit marker in one append.
    """

    def __init__(self, db: Database, path: str) -> None:
        self.db = db
        self.path = path
        self.wal_path = path + ".wal"
        self._fh = None
        self._commits = 0  # commits appended since the last checkpoint

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
        if self._fh is None:
            self._fh = open(self.wal_path, "a", encoding="utf-8")
        return self._fh

    def _do_fsync(self, fileno: int) -> None:
        """Seam for crash tests (override to observe/kill between flushes)."""
        os.fsync(fileno)

    def commit_records(self, records: "list[tuple]") -> None:
        """Append one transaction's records + commit marker, durably:
        returns once an fsync covers the commit marker."""
        if not records:
            return
        lines = [_encode(self._encode_record(rec)) for rec in records]
        lines.append(_encode({"op": "commit"}))
        data = "\n".join(lines) + "\n"
        fh = self._handle()
        fh.write(data)
        fh.flush()
        self._commits += 1
        self._do_fsync(fh.fileno())
        if _M.enabled:
            _WAL_FSYNCS.inc()
            _WAL_RECORDS.add(len(records))
            _WAL_BYTES.add(len(data))
            _WAL_COMMITS.inc()

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
        if rec["table"].lower() not in self.db.tables:
            raise OperationalError(f"WAL references missing table {rec['table']}")
        table = self.db.table(rec["table"])
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

        Returns without writing when there is nothing to fold: no commit
        since the last checkpoint, no WAL on disk and a snapshot already
        in place.
        """
        if (
            self._commits == 0
            and not os.path.exists(self.wal_path)
            and os.path.exists(self.path)
        ):
            return
        self.close()
        write_snapshot(self.db, self.path)
        try:
            os.remove(self.wal_path)
        except FileNotFoundError:
            pass
        self._commits = 0

    def close(self) -> None:
        """Close the WAL file handle (it reopens on the next commit)."""
        if self._fh is not None:
            self._fh.close()
            self._fh = None
