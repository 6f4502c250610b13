"""In-memory index structures for minidb.

An :class:`Index` maps a tuple of column values (the *key*) to the set of
row ids carrying that key.  It maintains both a hash map (O(1) equality
probes — the access path pr-filter evaluation leans on) and a lazily
rebuilt sorted key list for range scans and ordered iteration.  A bulk
:meth:`Index.rebuild` fills only the hash map; the sorted list is built on
the first ordered access.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right, insort
from typing import Iterable, Iterator, Sequence

from .errors import IntegrityError
from .sqltypes import sort_key


def _ordered(key: tuple) -> tuple:
    return tuple(map(sort_key, key))


class Index:
    """A composite-key secondary index over one table."""

    def __init__(self, name: str, table: str, columns: list[str], unique: bool = False) -> None:
        self.name = name
        self.table = table
        self.columns = list(columns)
        self.unique = unique
        self._map: dict[tuple, list[int]] = {}
        # Sorted list of (ordered_key, key) pairs for range scans.
        self._sorted: list[tuple[tuple, tuple]] = []
        self._sorted_valid = True

    def __len__(self) -> int:
        return sum(len(v) for v in self._map.values())

    # -- maintenance ------------------------------------------------------------

    def insert(self, key: tuple, rowid: int) -> None:
        """Add *rowid* under *key*; enforces uniqueness for non-NULL keys."""
        bucket = self._map.get(key)
        if bucket is None:
            self._map[key] = [rowid]
            if self._sorted_valid:
                insort(self._sorted, (_ordered(key), key))
            return
        if self.unique and not any(v is None for v in key):
            raise self.unique_error(key)
        bucket.append(rowid)

    def insert_many(self, keys: Sequence[tuple], rowids: Sequence[int]) -> None:
        """Add each rowid under its key, in order; the caller has checked
        uniqueness (see :meth:`first_conflict`).

        New keys are merged into a valid sorted list once per call, never
        one ``insort`` per key.
        """
        m = self._map
        if self.unique:
            # A checked UNIQUE batch usually holds only new, distinct keys.
            fresh = dict(zip(keys, map(list, zip(rowids))))
            if len(fresh) == len(keys) and m.keys().isdisjoint(fresh):
                m.update(fresh)
                if keys and self._sorted_valid:
                    self._merge_sorted(keys)
                return
        get = m.get
        new: list[tuple] = []
        for key, rowid in zip(keys, rowids):
            bucket = get(key)
            if bucket is None:
                m[key] = [rowid]
                new.append(key)
            else:
                bucket.append(rowid)
        if new and self._sorted_valid:
            self._merge_sorted(new)

    def _merge_sorted(self, keys: list[tuple]) -> None:
        """Merge *keys* (absent from the sorted list) into it in order."""
        new = [(_ordered(k), k) for k in keys]
        new.sort()
        old = self._sorted
        if not old or old[-1] < new[0]:
            old.extend(new)  # the common append-at-the-end case
            return
        merged: list[tuple[tuple, tuple]] = []
        lo = 0
        for item in new:
            hi = bisect_left(old, item, lo)
            merged += old[lo:hi]
            merged.append(item)
            lo = hi
        merged += old[lo:]
        self._sorted = merged

    def missing(self, keys: Iterable[tuple]) -> set[tuple]:
        """The keys of *keys* that no row carries."""
        return set(keys).difference(self._map)  # a mapped key has rowids

    def first_conflict(self, keys: Sequence[tuple]) -> int | None:
        """Position of the first key of *keys* that a UNIQUE index rejects.

        A key conflicts when it has no NULL and is already indexed or
        repeats an earlier key of *keys*, which is what inserting them one
        by one would raise on.  ``None`` when every key can be inserted.
        """
        if not self.unique:
            return None
        batch = set(keys)
        if len(batch) == len(keys) and self._map.keys().isdisjoint(batch):
            return None
        seen: set[tuple] = set()
        indexed = self._map
        for i, key in enumerate(keys):
            if None in key:
                continue
            if key in seen or key in indexed:
                return i
            seen.add(key)
        return None

    def check_insert(self, key: tuple) -> None:
        """Raise if inserting *key* would violate uniqueness (no mutation)."""
        if not self.unique or any(v is None for v in key):
            return
        if self._map.get(key):
            raise self.unique_error(key)

    def unique_error(self, key: tuple) -> IntegrityError:
        return IntegrityError(
            f"UNIQUE constraint failed: index {self.name} "
            f"({', '.join(self.columns)}) key {key!r}"
        )

    def delete(self, key: tuple, rowid: int) -> None:
        bucket = self._map.get(key)
        if not bucket:
            return
        try:
            bucket.remove(rowid)
        except ValueError:
            return
        if not bucket:
            del self._map[key]
            self._sorted_valid = False  # lazy removal

    def rebuild(self, rows: Iterable[tuple[int, tuple]], key_of) -> None:
        """Recreate from scratch given an iterable of (rowid, row).

        One pass over the rows fills a fresh hash map; the sorted key list
        is left invalid and built once by :meth:`_ensure_sorted` on the
        first ordered access.  On a UNIQUE violation the index keeps its
        previous contents.
        """
        new_map: dict[tuple, list[int]] = {}
        get = new_map.get
        unique = self.unique
        for rowid, row in rows:
            key = key_of(row)
            bucket = get(key)
            if bucket is None:
                new_map[key] = [rowid]
            elif unique and not any(v is None for v in key):
                raise self.unique_error(key)
            else:
                bucket.append(rowid)
        self._map = new_map
        self._sorted = []
        self._sorted_valid = False

    # -- copy-on-write snapshots ---------------------------------------------------

    def freeze(self) -> "Index":
        """A read-only snapshot sharing this index's current structures.

        O(1): the frozen copy aliases ``_map``/``_sorted``.  Safe because
        every writer calls :meth:`detach` (replacing those objects on the
        live index) before its first mutation, and lazy re-sorting
        *reassigns* ``_sorted`` rather than mutating it in place.
        """
        snap = Index.__new__(Index)
        snap.name = self.name
        snap.table = self.table
        snap.columns = self.columns
        snap.unique = self.unique
        snap._map = self._map
        snap._sorted = self._sorted
        snap._sorted_valid = self._sorted_valid
        return snap

    def detach(self) -> None:
        """Copy-on-write split before the first mutation in a transaction.

        Copies the outer map, each rowid bucket, and the sorted key list
        so frozen snapshots handed to readers keep the old objects.
        """
        self._map = {k: list(v) for k, v in self._map.items()}
        self._sorted = list(self._sorted)

    # -- lookups ------------------------------------------------------------------

    def lookup(self, key: tuple) -> list[int]:
        """Row ids with exactly *key* (empty list when absent)."""
        return list(self._map.get(key, ()))

    def _ensure_sorted(self) -> None:
        if not self._sorted_valid:
            self._sorted = sorted((_ordered(k), k) for k in self._map)
            self._sorted_valid = True

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
        lo_i = 0
        hi_i = len(arr)
        if low is not None:
            probe = _ordered(low)
            if low_inclusive:
                lo_i = bisect_left(arr, (probe,))
            else:
                # advance past all keys whose prefix equals `low`
                lo_i = bisect_right(arr, ((probe + ((9, "￿"),)),))
        if high is not None:
            probe = _ordered(high)
            if high_inclusive:
                hi_i = bisect_right(arr, ((probe + ((9, "￿"),)),))
            else:
                hi_i = bisect_left(arr, (probe,))
        for _okey, key in arr[lo_i:hi_i]:
            if any(v is None for v in key[: len(low or high or ())]):
                continue
            yield from self._map.get(key, ())

    def iter_ordered(self, descending: bool = False) -> Iterator[int]:
        """Yield all row ids in key order."""
        self._ensure_sorted()
        seq = reversed(self._sorted) if descending else iter(self._sorted)
        for _okey, key in seq:
            yield from self._map.get(key, ())

    def distinct_keys(self) -> Iterator[tuple]:
        self._ensure_sorted()
        for _okey, key in self._sorted:
            yield key

    def max_key(self) -> tuple | None:
        """Largest fully non-NULL key, or ``None`` (SQL MAX ignores NULLs)."""
        self._ensure_sorted()
        for _okey, key in reversed(self._sorted):
            if not any(v is None for v in key):
                return key
        return None
