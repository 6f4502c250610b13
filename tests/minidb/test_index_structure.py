"""Index data-structure unit tests (hash + ordered access paths)."""

import gc
from array import array

import pytest
from hypothesis import given, settings, strategies as st

from repro.minidb.errors import IntegrityError
from repro.minidb.index import Index


class TestBasicOperations:
    def test_insert_lookup(self):
        idx = Index("i", "t", ["a"])
        idx.insert((1,), 100)
        idx.insert((1,), 101)
        idx.insert((2,), 102)
        assert sorted(idx.lookup((1,))) == [100, 101]
        assert idx.lookup((3,)) == []

    def test_delete(self):
        idx = Index("i", "t", ["a"])
        idx.insert((1,), 100)
        idx.insert((1,), 101)
        idx.delete((1,), 100)
        assert idx.lookup((1,)) == [101]
        idx.delete((1,), 101)
        assert idx.lookup((1,)) == []

    def test_delete_missing_is_noop(self):
        idx = Index("i", "t", ["a"])
        idx.delete((1,), 999)

    def test_len(self):
        idx = Index("i", "t", ["a"])
        for i in range(5):
            idx.insert((i % 2,), i)
        assert len(idx) == 5

    def test_unique_violation(self):
        idx = Index("i", "t", ["a"], unique=True)
        idx.insert((1,), 100)
        with pytest.raises(IntegrityError):
            idx.insert((1,), 101)

    def test_unique_allows_null_keys(self):
        idx = Index("i", "t", ["a"], unique=True)
        idx.insert((None,), 1)
        idx.insert((None,), 2)

    def test_buckets_hold_rowids_in_ascending_order(self):
        """A bucket answers in rowid order however its rows arrived: an
        UPDATE or a ROLLBACK re-adds an older row, and a snapshot taken
        after a ROLLBACK lists rows out of rowid order."""
        idx = Index("i", "t", ["a"])
        for rowid in (5, 3, 9, 1):
            idx.insert((1,), rowid)
        assert idx.lookup((1,)) == [1, 3, 5, 9]
        idx.insert_many([1, 1, 2], [4, 12, 7])
        idx.insert_many([2], [6])
        assert idx.lookup((1,)) == [1, 3, 4, 5, 9, 12]
        assert idx.lookup((2,)) == [6, 7]
        idx.rebuild([1, 2, 1, 1], [8, 2, 3, 1])
        assert idx.lookup((1,)) == [1, 3, 8]

    def test_check_insert_does_not_mutate(self):
        idx = Index("i", "t", ["a"], unique=True)
        idx.insert((1,), 100)
        with pytest.raises(IntegrityError):
            idx.check_insert((1,))
        idx.check_insert((2,))
        assert idx.lookup((2,)) == []


class TestOrderedScans:
    def _make(self):
        idx = Index("i", "t", ["a"])
        for i, key in enumerate([5, 1, 3, 2, 4]):
            idx.insert((key,), i)
        return idx

    def test_iter_ordered(self):
        idx = self._make()
        keys = [k[0] for k in idx.distinct_keys()]
        assert keys == [1, 2, 3, 4, 5]

    def test_iter_descending(self):
        idx = self._make()
        rowids = list(idx.iter_ordered(descending=True))
        assert rowids[0] == 0  # key 5 inserted as rowid 0

    def test_range_inclusive(self):
        idx = self._make()
        got = sorted(idx.range_scan((2,), (4,)))
        keys = sorted(k[0] for k in idx.distinct_keys())
        assert len(got) == 3

    def test_range_exclusive_low(self):
        idx = self._make()
        got = list(idx.range_scan((2,), (4,), low_inclusive=False))
        assert len(got) == 2

    def test_range_exclusive_high(self):
        idx = self._make()
        got = list(idx.range_scan((2,), (4,), high_inclusive=False))
        assert len(got) == 2

    def test_range_unbounded_high(self):
        idx = self._make()
        assert len(list(idx.range_scan((3,), None))) == 3

    def test_range_after_deletions(self):
        idx = self._make()
        idx.delete((3,), 2)
        assert len(list(idx.range_scan((1,), (5,)))) == 4

    def test_composite_prefix_range(self):
        idx = Index("i", "t", ["a", "b"])
        for rid, (a, b) in enumerate([(1, "x"), (1, "y"), (2, "x"), (3, "z")]):
            idx.insert((a, b), rid)
        got = sorted(idx.range_scan((1,), (1,)))
        assert got == [0, 1]

    def test_null_keys_excluded_from_bounded_range(self):
        idx = Index("i", "t", ["a"])
        idx.insert((None,), 0)
        idx.insert((1,), 1)
        assert list(idx.range_scan((0,), (9,))) == [1]


class TestPropertyBased:
    @settings(max_examples=50, deadline=None)
    @given(
        ops=st.lists(
            st.tuples(
                st.sampled_from(["insert", "delete"]),
                st.integers(0, 9),   # key
                st.integers(0, 30),  # rowid
            ),
            max_size=80,
        )
    )
    def test_matches_reference_dict(self, ops):
        idx = Index("i", "t", ["k"])
        ref: dict[int, list[int]] = {}
        for op, key, rowid in ops:
            if op == "insert":
                idx.insert((key,), rowid)
                ref.setdefault(key, []).append(rowid)
            else:
                idx.delete((key,), rowid)
                bucket = ref.get(key, [])
                if rowid in bucket:
                    bucket.remove(rowid)
                if not bucket:
                    ref.pop(key, None)
        for key in range(10):
            assert sorted(idx.lookup((key,))) == sorted(ref.get(key, []))
            assert sorted(idx.rowids((key,))) == sorted(ref.get(key, []))
        # an IN-probe: each distinct key once, key by key
        probe = [3, 1, 3, 11, 1.0, 0]
        assert idx.rowids_in(probe) == [r for k in (3, 1, 11, 0) for r in idx.lookup((k,))]
        # ordered iteration covers exactly the reference contents
        all_ref = sorted(r for bucket in ref.values() for r in bucket)
        assert sorted(idx.iter_ordered()) == all_ref


_values = st.one_of(
    st.none(),
    st.integers(-3, 3),
    st.floats(-3, 3, allow_nan=False).map(lambda f: round(f, 1)),
    st.text("ab", max_size=2),
)


@st.composite
def _index_cases(draw, min_width=1, max_width=3):
    width = draw(st.integers(min_width, max_width))
    key = st.tuples(*[_values] * width)
    keys = draw(st.lists(key, max_size=40))
    unique = draw(st.booleans())
    if unique:  # keep NULL-bearing duplicates, drop other repeats
        seen, kept = set(), []
        for k in keys:
            if None in k or k not in seen:
                kept.append(k)
                seen.add(k)
        keys = kept
    probes = draw(st.lists(key, min_size=2, max_size=4))
    return width, unique, keys, probes


def _observe(idx: Index, width: int, probes: list) -> list:
    """Everything the read side of an index can say, in one comparable list."""
    out = [
        [idx.lookup(p) for p in probes],
        list(idx.iter_ordered()),
        list(idx.iter_ordered(descending=True)),
        list(idx.distinct_keys()),
        idx.max_key(),
        len(idx),
    ]
    low, high = probes[0], probes[1]
    for lo, hi in ((low, high), (low, None), (None, high), (low[:1], low[:1])):
        for lo_inc in (True, False):
            for hi_inc in (True, False):
                out.append(list(idx.range_scan(lo, hi, lo_inc, hi_inc)))
    if width > 1:
        out.append(list(idx.range_scan(low[:1], high[:1])))
    return out


def _native(width: int, keys: list) -> list:
    """*keys* (tuples) as the batch API takes them: bare values at width 1."""
    return [k[0] for k in keys] if width == 1 else keys


class TestRebuildEquivalence:
    """``rebuild`` (one pass, lazy sort) answers exactly like ``insert``."""

    @staticmethod
    def _pair(width, unique, keys):
        cols = [f"c{i}" for i in range(width)]
        built = Index("i", "t", cols, unique=unique)
        built.rebuild(_native(width, keys), range(len(keys)))
        inserted = Index("i", "t", cols, unique=unique)
        for rid, k in enumerate(keys):
            inserted.insert(k, rid)
        return built, inserted

    @pytest.mark.parametrize("widths", [(1, 1), (2, 3)], ids=["width1", "composite"])
    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_rebuild_matches_inserts(self, widths, data):
        width, unique, keys, probes = data.draw(_index_cases(*widths))
        built, inserted = self._pair(width, unique, keys)
        assert built._map == inserted._map
        assert _observe(built, width, probes) == _observe(inserted, width, probes)

    @pytest.mark.parametrize("widths", [(1, 1), (2, 3)], ids=["width1", "composite"])
    @settings(max_examples=75, deadline=None)
    @given(data=st.data())
    def test_rebuild_matches_inserts_after_freeze_detach(self, widths, data):
        width, unique, keys, probes = data.draw(_index_cases(*widths))
        built, inserted = self._pair(width, unique, keys)
        expected = _observe(inserted, width, probes)
        snap = built.freeze()
        built.detach()
        assert _observe(snap, width, probes) == expected
        assert _observe(built, width, probes) == expected
        # Writes to the detached index leave the frozen snapshot alone,
        # array buckets included.
        built.insert(tuple([None] * width), len(keys))
        for rid, k in enumerate(keys):
            if not unique:
                built.insert(k, len(keys) + 1 + rid)
            built.delete(k, rid)
        assert _observe(snap, width, probes) == expected

    @pytest.mark.parametrize("keys, unique", [
        ([i // 4 for i in range(300)], False),             # runs of equal keys
        ([i % 7 for i in range(300)], False),              # scattered repeats
        (list(range(200)) + [5, 77, 5], False),            # repeats late
        (list(range(200)), True),                          # UNIQUE: one dict build
        ([None] * 3 + list(range(100)) + [None], True),    # UNIQUE with NULL repeats
    ], ids=["runs", "scattered", "late-repeats", "unique", "unique-nulls"])
    def test_rebuild_paths_give_the_insert_layout(self, keys, unique):
        built = Index("i", "t", ["a"], unique=unique)
        built.rebuild(keys, range(len(keys)))
        inserted = Index("i", "t", ["a"], unique=unique)
        for rid, k in enumerate(keys):
            inserted.insert((k,), rid)
        assert list(built._map.items()) == list(inserted._map.items())
        batched = Index("i", "t", ["a"], unique=unique)
        for a in range(0, len(keys), 64):
            batched.insert_many(keys[a:a + 64], range(a, min(a + 64, len(keys))))
        assert list(batched._map.items()) == list(inserted._map.items())

    def test_rebuild_unique_violation_names_index(self):
        keys = [("a", 1), (None, 1), (None, 1), ("a", 1)]
        idx = Index("uq_ab", "t", ["a", "b"], unique=True)
        with pytest.raises(IntegrityError, match="index uq_ab") as exc:
            idx.rebuild(keys, [1, 2, 3, 4])
        ref = Index("uq_ab", "t", ["a", "b"], unique=True)
        ref.insert(("a", 1), 1)
        with pytest.raises(IntegrityError) as ref_exc:
            ref.insert(("a", 1), 4)
        assert str(exc.value) == str(ref_exc.value)

    def test_width1_unique_violation_names_the_tuple_key(self):
        idx = Index("uq_a", "t", ["a"], unique=True)
        idx.rebuild([7], [1])
        with pytest.raises(IntegrityError, match=r"key \(5,\)$"):
            idx.rebuild([5, None, None, 5], [1, 2, 3, 4])
        assert idx.lookup((7,)) == [1]  # a failed rebuild keeps the index
        assert str(idx.unique_error(5)).endswith("index uq_a (a) key (5,)")

    def test_rebuild_sorts_lazily(self):
        idx = Index("i", "t", ["a"])
        idx.rebuild([3, 1, 2], [1, 2, 3])
        assert idx._sorted == [] and not idx._sorted_valid
        assert list(idx.iter_ordered()) == [2, 3, 1]
        assert idx._sorted_valid and idx._sorted == [1, 2, 3]

    def test_max_key_keeps_the_sorted_list(self):
        # The loader probes max_key once per table and write; after the
        # first call, later writes keep the sorted list, so it is not rebuilt.
        idx = Index("i", "t", ["a"])
        idx.rebuild([3, None, 1, 2], [1, 2, 3, 4])
        assert idx.max_key() == (3,) and idx._sorted_valid
        idx.insert_many([9, 5], [5, 6])
        idx.insert((7,), 7)
        assert idx._sorted_valid and idx._sorted == [None, 1, 2, 3, 5, 7, 9]
        assert idx.max_key() == (9,)


class TestInsertManyEquivalence:
    """``insert_many`` over batches answers exactly like one ``insert`` per key."""

    @pytest.mark.parametrize("widths", [(1, 1), (2, 3)], ids=["width1", "composite"])
    @settings(max_examples=150, deadline=None)
    @given(
        data=st.data(),
        cuts=st.lists(st.integers(0, 40), max_size=4),
        sorted_valid=st.booleans(),
    )
    def test_insert_many_matches_inserts(self, widths, data, cuts, sorted_valid):
        width, unique, keys, probes = data.draw(_index_cases(*widths))
        cols = [f"c{i}" for i in range(width)]
        batched = Index("i", "t", cols, unique=unique)
        inserted = Index("i", "t", cols, unique=unique)
        if sorted_valid:  # an ordered read builds the sorted list early
            list(batched.distinct_keys())
            list(inserted.distinct_keys())
        native = _native(width, keys)
        bounds = sorted({0, len(keys), *(c for c in cuts if c <= len(keys))})
        for a, b in zip(bounds, bounds[1:]):
            batched.insert_many(native[a:b], list(range(a, b)))
        for rid, k in enumerate(keys):
            inserted.insert(k, rid)
        assert batched._map == inserted._map
        assert batched._sorted_valid == inserted._sorted_valid == sorted_valid
        if sorted_valid:  # the merged list is the one insort maintained
            assert batched._sorted == inserted._sorted
        assert _observe(batched, width, probes) == _observe(inserted, width, probes)

    @pytest.mark.parametrize("width", [1, 2])
    @settings(max_examples=150, deadline=None)
    @given(
        existing=st.lists(st.tuples(_values, _values), max_size=10),
        keys=st.lists(st.tuples(_values, _values), max_size=20),
    )
    def test_first_conflict_is_where_inserts_fail(self, width, existing, keys):
        existing = [k[:width] for k in existing]
        keys = [k[:width] for k in keys]
        cols = ["a", "b"][:width]
        idx = Index("u", "t", cols, unique=True)
        ref = Index("u", "t", cols, unique=True)
        for rid, k in enumerate(existing):
            if None in k or not idx.lookup(k):
                idx.insert(k, rid)
                ref.insert(k, rid)
        expected = None
        for i, k in enumerate(keys):
            try:
                ref.insert(k, 100 + i)
            except IntegrityError as exc:
                expected = i
                assert str(exc) == str(idx.unique_error(_native(width, [k])[0]))
                break
        assert idx.first_conflict(_native(width, keys)) == expected


def _layout_faults(db) -> list:
    """Where the built indexes of *db* break the bucket layout.

    Every bucket is an ``int`` or an ``array('q')`` of two or more rowids
    in ascending order.
    A one-column index holds no object the cyclic collector tracks but
    its multi-row arrays (``array`` is a GC type in CPython), and a map
    whose buckets are all ints is not tracked at all.
    """
    faults = []
    for idx in db.indexes.values():
        if not hasattr(idx, "_map"):  # table still encoded
            continue
        for key, bucket in idx._map.items():
            if type(bucket) is int:
                continue
            if type(bucket) is not array or bucket.typecode != "q" or len(bucket) < 2:
                faults.append((idx.name, key, bucket))
            elif bucket.tolist() != sorted(bucket):
                faults.append((idx.name, key, "out of rowid order"))
        if len(idx.columns) == 1:
            held = [o for o in gc.get_referents(idx._map) if gc.is_tracked(o)]
            if any(type(o) is not array for o in held):
                faults.append((idx.name, "tracked key or bucket"))
            if not held and gc.is_tracked(idx._map):
                faults.append((idx.name, "map tracked"))
    return faults


class TestBucketLayout:
    """A PerfTrack store keeps the off-heap bucket layout through its life."""

    @pytest.mark.parametrize("opening", ["lazy", "eager"])
    def test_layout_holds_through_a_store_life(self, opening, tmp_path):
        from repro.core import ByName, Expansion, PrFilter, PTDataStore
        from repro.core.query import QueryEngine
        from tests.core.corpus import corpus_writer
        from tests.minidb.test_wal import _reference_snapshot

        path = str(tmp_path / "store.db")
        store = PTDataStore(database=path)
        store.load_string(corpus_writer(range(3)).render())  # load + commit
        assert _layout_faults(store.backend.connection.db) == []
        store.close()
        if opening == "eager":  # the same store as a v1 file opens whole
            reader = PTDataStore(database=path, initialize=False)
            db = reader.backend.connection.db
            for name in db.tables:
                db.table(name)
            text = _reference_snapshot(db)
            reader.close()
            path = str(tmp_path / "eager.db")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
        store = PTDataStore(database=path, initialize=False)
        db = store.backend.connection.db
        encoded = [t for t in db.tables.values() if t.encoded is not None]
        assert bool(encoded) == (opening == "lazy")
        assert _layout_faults(db) == []

        prf = PrFilter()
        prf.add(ByName("/irs-1", Expansion("D")))
        assert len(QueryEngine(store).result_ids(store.resolve_prfilter(prf))) == 9
        assert _layout_faults(db) == []

        # Four nodes carry 'memory MB': deleting three leaves a one-row key.
        (by_name,) = [i for i in db.indexes_on("resource_attribute") if i.name == "idx_ra_name"]
        before = by_name._map["memory MB"]
        assert type(before) is array and len(before) == 4
        before = before.tolist()
        rows = db.table("resource_attribute").rows
        backend = store.backend
        backend.execute("DELETE FROM resource_attribute WHERE id IN (?, ?, ?)",
                        tuple(rows[rid][0] for rid in before[:3]))
        assert by_name._map["memory MB"] == before[3]
        gc.collect()  # a dict that held an array stays tracked until then
        assert not gc.is_tracked(by_name._map)
        assert _layout_faults(db) == []
        backend.rollback()
        # The undo log re-adds the rows in reverse; the bucket stays in
        # ascending rowid order, as before the transaction.
        assert by_name._map["memory MB"].tolist() == before
        assert _layout_faults(db) == []
        for name in db.tables:  # every index built, none broken
            db.indexes_on(name)
        assert all(hasattr(i, "_map") for i in db.indexes.values())
        assert _layout_faults(db) == []

        # A write after detach() leaves a frozen snapshot's arrays alone.
        for idx in db.indexes.values():
            multi = {k: b.tolist() for k, b in idx._map.items() if type(b) is array}
            snap = idx.freeze()
            idx.detach()
            for key, rowids in multi.items():
                tkey = (key,) if len(idx.columns) == 1 else key
                idx.delete(tkey, rowids[0])
                idx.insert(tkey, 10**9)
            assert {k: snap._map[k].tolist() for k in multi} == multi
        store.close()
