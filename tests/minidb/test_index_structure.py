"""Index data-structure unit tests (hash + ordered access paths)."""

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
def _index_cases(draw):
    width = draw(st.integers(1, 3))
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


class TestRebuildEquivalence:
    """``rebuild`` (one pass, lazy sort) answers exactly like ``insert``."""

    @staticmethod
    def _pair(width, unique, keys):
        cols = [f"c{i}" for i in range(width)]
        built = Index("i", "t", cols, unique=unique)
        built.rebuild(((rid, k) for rid, k in enumerate(keys)), lambda row: row)
        inserted = Index("i", "t", cols, unique=unique)
        for rid, k in enumerate(keys):
            inserted.insert(k, rid)
        return built, inserted

    @settings(max_examples=150, deadline=None)
    @given(case=_index_cases())
    def test_rebuild_matches_inserts(self, case):
        width, unique, keys, probes = case
        built, inserted = self._pair(width, unique, keys)
        assert _observe(built, width, probes) == _observe(inserted, width, probes)

    @settings(max_examples=75, deadline=None)
    @given(case=_index_cases())
    def test_rebuild_matches_inserts_after_freeze_detach(self, case):
        width, unique, keys, probes = case
        built, inserted = self._pair(width, unique, keys)
        expected = _observe(inserted, width, probes)
        snap = built.freeze()
        built.detach()
        assert _observe(snap, width, probes) == expected
        assert _observe(built, width, probes) == expected
        # Writes to the detached index leave the frozen snapshot alone.
        built.insert(tuple([None] * width), len(keys))
        assert _observe(snap, width, probes) == expected

    def test_rebuild_unique_violation_names_index(self):
        rows = [(1, ("a", 1)), (2, (None, 1)), (3, (None, 1)), (4, ("a", 1))]
        idx = Index("uq_ab", "t", ["a", "b"], unique=True)
        with pytest.raises(IntegrityError, match="index uq_ab") as exc:
            idx.rebuild(iter(rows), lambda row: row)
        ref = Index("uq_ab", "t", ["a", "b"], unique=True)
        ref.insert(("a", 1), 1)
        with pytest.raises(IntegrityError) as ref_exc:
            ref.insert(("a", 1), 4)
        assert str(exc.value) == str(ref_exc.value)

    def test_rebuild_sorts_lazily(self):
        idx = Index("i", "t", ["a"])
        idx.rebuild(iter([(1, (3,)), (2, (1,)), (3, (2,))]), lambda row: row)
        assert idx._sorted == [] and not idx._sorted_valid
        assert list(idx.iter_ordered()) == [2, 3, 1]
        assert idx._sorted_valid


class TestInsertManyEquivalence:
    """``insert_many`` over batches answers exactly like one ``insert`` per key."""

    @settings(max_examples=150, deadline=None)
    @given(
        case=_index_cases(),
        cuts=st.lists(st.integers(0, 40), max_size=4),
        sorted_valid=st.booleans(),
    )
    def test_insert_many_matches_inserts(self, case, cuts, sorted_valid):
        width, unique, keys, probes = case
        cols = [f"c{i}" for i in range(width)]
        batched = Index("i", "t", cols, unique=unique)
        if not sorted_valid:
            batched.rebuild(iter(()), lambda row: row)  # sorted list built lazily
        bounds = sorted({0, len(keys), *(c for c in cuts if c <= len(keys))})
        for a, b in zip(bounds, bounds[1:]):
            batched.insert_many(keys[a:b], list(range(a, b)))
        inserted = Index("i", "t", cols, unique=unique)
        for rid, k in enumerate(keys):
            inserted.insert(k, rid)
        assert batched._map == inserted._map
        assert batched._sorted_valid == sorted_valid
        if sorted_valid:  # the merged list is the one insort maintained
            assert batched._sorted == inserted._sorted
        assert _observe(batched, width, probes) == _observe(inserted, width, probes)

    @settings(max_examples=150, deadline=None)
    @given(
        existing=st.lists(st.tuples(_values), max_size=10),
        keys=st.lists(st.tuples(_values), max_size=20),
    )
    def test_first_conflict_is_where_inserts_fail(self, existing, keys):
        idx = Index("u", "t", ["a"], unique=True)
        ref = Index("u", "t", ["a"], unique=True)
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
                assert str(exc) == str(idx.unique_error(k))
                break
        assert idx.first_conflict(keys) == expected
