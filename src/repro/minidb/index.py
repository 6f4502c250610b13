"""In-memory index structures for minidb.

An :class:`Index` maps a key to the row ids carrying it, in a hash map
(O(1) equality probes — the access path pr-filter evaluation leans on)
plus a lazily built sorted key list for range scans and ordered
iteration.

The map keeps the cyclic garbage collector's work small:

- A one-column index (every PerfTrack index) keys its map by the bare
  column value, a composite index by the tuple of values.
- A key carried by one row maps to that bare rowid ``int``, a key
  carried by several to an ``array('q')`` of their rowids in ascending
  order, as a (key, rowid) B-tree keeps them: a probe answers in the
  same order however the rows got there (a ROLLBACK re-adds deleted
  rows in reverse).  The layout is canonical: a DELETE that leaves one
  row turns the array back into an ``int``.

So a one-column index holds one GC-tracked object per multi-row key
(``array`` is a GC type, with nothing to traverse) and none per other
key, and while every key has one row its map is not tracked at all.

Single-key calls (:meth:`Index.insert`, :meth:`~Index.delete`,
:meth:`~Index.check_insert`, :meth:`~Index.lookup`, :meth:`~Index.rowids`
and the :meth:`~Index.range_scan` bounds) take keys as tuples.  Batch
calls (:meth:`~Index.rebuild`, :meth:`~Index.insert_many`,
:meth:`~Index.missing`, :meth:`~Index.first_conflict`) and the IN-probe
:meth:`~Index.rowids_in` take *native* keys — the bare value for a
one-column index — so storage can hand a decoded column straight over
and an IN-probe builds no key per value.  :func:`batch_keys`,
:func:`row_keys` and :func:`has_null` are the width rule for callers
that hold rows or columns.

The sorted key list is built on the first ordered access and kept in
order by later inserts; a DELETE that drops a key invalidates it.  An
index on a table a lazy open left encoded (:meth:`Index.defer`) has
neither structure until the table is first touched.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left, bisect_right, insort
from operator import itemgetter
from typing import Any, Iterable, Iterator, Sequence, Union

from .errors import IntegrityError
from .sqltypes import sort_key

#: A key's row ids: one bare rowid, or several in an ``array('q')``.
Bucket = Union[int, array]

#: Appended to an ordered key prefix, sorts after every key it prefixes.
_PAST = ((9, "￿"),)


def _ordered(key: tuple) -> tuple:
    return tuple(map(sort_key, key))


def batch_keys(columns: Sequence[Sequence], positions: Sequence[int]) -> Sequence:
    """Native keys at *positions* of a batch given column-wise: the column
    itself for one position (not copied; callers only read it), one tuple
    per row otherwise."""
    if len(positions) == 1:
        return columns[positions[0]]
    return list(zip(*map(columns.__getitem__, positions)))


def row_keys(rows: Iterable[Sequence], positions: Sequence[int]) -> list:
    """Native keys at *positions* of each of *rows*."""
    return list(map(itemgetter(*positions), rows))  # one position: the bare value


def has_null(key: Any, width: int) -> bool:
    """Whether the native *key* of *width* columns has a NULL."""
    return key is None if width == 1 else None in key


def _buckets(keys: Sequence, rowids: Sequence[int], unique: bool) -> dict:
    """Native key -> bucket for a batch of rows given in step, buckets in
    the canonical layout.  *rowids* are distinct.

    A UNIQUE index's keys are usually distinct: one C-level ``dict``
    build.  Otherwise one pass grows a ``list`` per repeated key
    (``list.append`` is cheaper than ``array.append``) and turns it into
    a sorted array at the end (rows a ROLLBACK re-added reach a snapshot
    out of rowid order).
    """
    if unique:
        distinct = dict(zip(keys, rowids))
        if len(distinct) == len(keys):
            return distinct
    m: dict = {}
    groups: dict = {}  # the keys seen twice so far -> their rowids
    group = groups.get
    first = m.setdefault
    for key, rowid in zip(keys, rowids):
        rows = group(key)
        if rows is not None:
            rows.append(rowid)
        else:
            seen = first(key, rowid)
            if seen != rowid:  # rowids are distinct: the key was seen
                groups[key] = [seen, rowid]
    for key, rows in groups.items():
        rows.sort()
        m[key] = array("q", rows)
    return m


class Index:
    """A secondary index over one table (one or more key columns)."""

    def __init__(self, name: str, table: str, columns: list[str], unique: bool = False) -> None:
        self.name = name
        self.table = table
        self.columns = list(columns)
        self.unique = unique
        self._one = len(self.columns) == 1
        #: the sort order of native keys (``sort_key`` of a bare value)
        self._order = sort_key if self._one else _ordered
        self._map: dict[Any, Bucket] = {}
        #: the map's native keys in ``_order``, while ``_sorted_valid``
        self._sorted: list = []
        self._sorted_valid = False

    def __len__(self) -> int:
        return sum(1 if type(b) is int else len(b) for b in self._map.values())

    def defer(self) -> None:
        """Drop the (empty) structures while the index's table is still
        encoded: they reappear when :meth:`rebuild` runs on its first
        touch, and a read that bypasses ``Database.indexes_on()`` fails
        loudly instead of answering from an empty index."""
        del self._map, self._sorted, self._sorted_valid

    # -- maintenance ------------------------------------------------------------

    def insert(self, key: tuple, rowid: int) -> None:
        """Add *rowid* under *key*; enforces uniqueness for non-NULL keys."""
        k = key[0] if self._one else key
        m = self._map
        bucket = m.get(k)
        if bucket is None:
            m[k] = rowid
            if self._sorted_valid:
                insort(self._sorted, k, key=self._order)
            return
        if self.unique and None not in key:
            raise self.unique_error(k)
        if type(bucket) is int:
            m[k] = array("q", (bucket, rowid) if bucket < rowid else (rowid, bucket))
        elif rowid > bucket[-1]:
            bucket.append(rowid)
        else:  # an UPDATE or a ROLLBACK re-adds an older row
            insort(bucket, rowid)

    def insert_many(self, keys: Sequence, rowids: Sequence[int]) -> None:
        """Add each rowid under its native key, in order; the caller has
        checked uniqueness (see :meth:`first_conflict`).

        The batch is grouped first (:func:`_buckets`), so a key costs one
        merge however many of the batch's rows carry it, and new keys are
        merged into a valid sorted list once per call, never one
        ``insort`` per key.
        """
        m = self._map
        batch = _buckets(keys, rowids, self.unique)
        new = [k for k in batch if k not in m] if self._sorted_valid else ()
        if m.keys().isdisjoint(batch):
            m.update(batch)
        else:
            get = m.get
            for key, add in batch.items():
                bucket = get(key)
                if bucket is None:
                    m[key] = add
                    continue
                if type(bucket) is int:
                    m[key] = bucket = array("q", (bucket,))
                if type(add) is int:
                    if add > bucket[-1]:
                        bucket.append(add)
                    else:
                        insort(bucket, add)
                elif add[0] > bucket[-1]:
                    bucket += add
                else:
                    m[key] = array("q", sorted(bucket + add))
        if new:
            self._merge_sorted(new)

    def _merge_sorted(self, keys: list) -> None:
        """Merge *keys* (absent from the sorted list) into it in order."""
        order = self._order
        new = sorted(keys, key=order)
        old = self._sorted
        if not old or order(old[-1]) < order(new[0]):
            old.extend(new)  # the common append-at-the-end case
            return
        merged: list = []
        lo = 0
        for key in new:
            hi = bisect_left(old, order(key), lo, key=order)
            merged += old[lo:hi]
            merged.append(key)
            lo = hi
        merged += old[lo:]
        self._sorted = merged

    def missing(self, keys: Iterable) -> set:
        """The native keys of *keys* that no row carries."""
        return set(keys).difference(self._map)  # a mapped key has rowids

    def first_conflict(self, keys: Sequence) -> int | None:
        """Position of the first native key of *keys* that a UNIQUE index
        rejects.

        A key conflicts when it has no NULL and is already indexed or
        repeats an earlier key of *keys*, which is what inserting them one
        by one would raise on.  ``None`` when every key can be inserted.
        """
        if not self.unique:
            return None
        batch = set(keys)
        if len(batch) == len(keys) and self._map.keys().isdisjoint(batch):
            return None
        return self._repeat(keys, self._map)

    def _repeat(self, keys: Sequence, indexed: dict) -> int | None:
        """Position of the first non-NULL key of *keys* that is in
        *indexed* or repeats an earlier one."""
        width = len(self.columns)
        seen: set = set()
        for i, key in enumerate(keys):
            if has_null(key, width):
                continue
            if key in seen or key in indexed:
                return i
            seen.add(key)
        return None

    def check_insert(self, key: tuple) -> None:
        """Raise if inserting *key* would violate uniqueness (no mutation)."""
        if not self.unique or None in key:
            return
        k = key[0] if self._one else key
        if k in self._map:
            raise self.unique_error(k)

    def unique_error(self, key: Any) -> IntegrityError:
        """The error for a repeat of the native *key*, which it names as a
        tuple whatever the index's width."""
        return IntegrityError(
            f"UNIQUE constraint failed: index {self.name} "
            f"({', '.join(self.columns)}) key {(key,) if self._one else key!r}"
        )

    def delete(self, key: tuple, rowid: int) -> None:
        k = key[0] if self._one else key
        m = self._map
        bucket = m.get(k)
        if bucket is None:
            return
        if type(bucket) is int:
            if bucket == rowid:
                del m[k]
                self._sorted_valid = False  # lazy removal
            return
        try:
            bucket.remove(rowid)
        except ValueError:
            return
        if len(bucket) == 1:
            m[k] = bucket[0]

    def rebuild(self, keys: Sequence, rowids: Sequence[int]) -> None:
        """Recreate from scratch given each row's native key and rowid, in
        step.

        The map is built by :func:`_buckets` (one C-level ``dict`` build
        for a UNIQUE index's distinct keys); the sorted key list is left
        invalid and built once by :meth:`_ensure_sorted` on the first
        ordered access.  On a UNIQUE violation the index keeps its
        previous contents.
        """
        new_map = _buckets(keys, rowids, self.unique)
        if self.unique and len(new_map) != len(keys):
            r = self._repeat(keys, {})
            if r is not None:
                raise self.unique_error(keys[r])
        self._map = new_map
        self._sorted = []
        self._sorted_valid = False

    # -- lookups ------------------------------------------------------------------

    def lookup(self, key: tuple) -> list[int]:
        """Row ids with exactly *key* (empty list when absent)."""
        return list(self.rowids(key))

    def rowids(self, values: Sequence) -> Sequence[int]:
        """Row ids with exactly the key whose column *values* are given,
        as a sequence the caller may keep across later writes: ``()`` when
        absent, ``(rowid,)``, or a copy of the key's array."""
        bucket = self._map.get(values[0] if self._one else tuple(values), ())
        return (bucket,) if type(bucket) is int else bucket[:]

    def rowids_in(self, keys: Iterable) -> list[int]:
        """Row ids with any of the native *keys* (an IN-probe), key by
        key in first-seen order, each distinct key probed once.  A row
        carries one key, so no id repeats."""
        # Not _iter_rowids: extending by a whole array bucket is 25-55 %
        # faster per probe than yielding its ids one at a time.
        get = self._map.get
        out: list[int] = []
        for key in dict.fromkeys(keys):
            bucket = get(key)
            if type(bucket) is int:
                out.append(bucket)
            elif bucket is not None:
                out += bucket
        return out

    def _ensure_sorted(self) -> None:
        if not self._sorted_valid:
            self._sorted = sorted(self._map, key=self._order)
            self._sorted_valid = True

    def _iter_rowids(self, keys: Iterable) -> Iterator[int]:
        get = self._map.get
        for key in keys:
            bucket = get(key)
            if type(bucket) is int:
                yield bucket
            elif bucket is not None:
                yield from bucket

    def range_scan(
        self,
        low: tuple | None = None,
        high: tuple | None = None,
        low_inclusive: bool = True,
        high_inclusive: bool = True,
    ) -> Iterator[int]:
        """Yield row ids whose keys fall within [low, high] in key order.

        Bounds may be prefixes of the full composite key; ``None`` means
        unbounded on that side.  NULL keys sort lowest and are *excluded*
        from bounded scans (SQL comparisons with NULL are unknown).
        """
        self._ensure_sorted()
        arr = self._sorted
        order = self._order
        one = self._one
        lo_i = 0
        hi_i = len(arr)
        if low is not None:
            probe = sort_key(low[0]) if one else _ordered(low)
            if low_inclusive:
                lo_i = bisect_left(arr, probe, key=order)
            else:
                # advance past all keys whose prefix equals `low`
                lo_i = bisect_right(arr, probe if one else probe + _PAST, key=order)
        if high is not None:
            probe = sort_key(high[0]) if one else _ordered(high)
            if high_inclusive:
                hi_i = bisect_right(arr, probe if one else probe + _PAST, key=order)
            else:
                hi_i = bisect_left(arr, probe, key=order)
        keys = arr[lo_i:hi_i]
        width = len(low or high or ())
        if width:
            if one:
                keys = [k for k in keys if k is not None]
            else:
                keys = [k for k in keys if None not in k[:width]]
        return self._iter_rowids(keys)

    def iter_ordered(self, descending: bool = False) -> Iterator[int]:
        """Yield all row ids in key order."""
        self._ensure_sorted()
        return self._iter_rowids(reversed(self._sorted) if descending else iter(self._sorted))

    def distinct_keys(self) -> Iterator[tuple]:
        """Every key, as a tuple, in key order."""
        self._ensure_sorted()
        if self._one:
            return ((k,) for k in self._sorted)
        return iter(self._sorted)

    def max_key(self) -> tuple | None:
        """Largest fully non-NULL key, or ``None`` (SQL MAX ignores NULLs).

        Builds the sorted key list on the first call; later writes keep
        it in order, so the next call (the loader's id probe) is O(1).
        """
        self._ensure_sorted()
        width = len(self.columns)
        for key in reversed(self._sorted):
            if not has_null(key, width):
                return (key,) if self._one else key
        return None
