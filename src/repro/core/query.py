"""Query evaluation: pr-filters over stored performance results.

Semantics (paper Section 2.2): a pr-filter matches a context ``C`` iff
every resource family intersects ``C``.  A performance result is selected
when **some** context of that result matches the whole filter.  The
implementation works focus-first:

1. per family, find the focus ids that contain at least one family member
   (an indexed probe on ``focus_has_resource``),
2. intersect the focus-id sets across families, and
3. map surviving foci to performance-result ids.

This is exactly the ∃-context ∀-family semantics, and it is also the shape
that makes the GUI's live match counts cheap (Figure 3: per-family count
and whole-filter count as the query is built).
"""

from __future__ import annotations

from operator import itemgetter
from typing import Callable, Iterable, Optional, Sequence

from ..obs.clock import now as _now
from ..obs.metrics import metrics as _M
from ..obs.tracing import trace as _trace
from .datastore import PTDataStore, _chunks
from .filters import PrFilter, ResourceFamily
from .results import Context, PerformanceResult, _new_result

# Query-layer metrics (no-ops while the registry is disabled).
_PRFILTER_EVALS = _M.counter("query.prfilter_evaluations")
_PRFILTER_SECONDS = _M.histogram("query.prfilter_seconds")
_RESULTS_MATCHED = _M.counter("query.results_matched", unit="results")
_RESULTS_FETCHED = _M.counter("query.results_fetched", unit="results")
_FETCH_SECONDS = _M.histogram("query.fetch_seconds")

_first = itemgetter(0)


class QueryEngine:
    """Evaluates pr-filters and materialises result objects."""

    def __init__(self, store: PTDataStore) -> None:
        self.store = store

    # -- family / filter matching -------------------------------------------------

    def matching_focus_ids(self, family: ResourceFamily) -> set[int]:
        """Focus ids whose resource set intersects *family*."""
        ids = sorted(family.resource_ids)
        out: set[int] = set()
        for chunk in _chunks(ids):
            marks = ",".join("?" * len(chunk))
            rows = self.store.backend.query(  # noqa: PTL001 — '?' marks only
                f"SELECT DISTINCT focus_id FROM focus_has_resource "
                f"WHERE resource_id IN ({marks})",
                chunk,
            )
            out.update(map(_first, rows))
        return out

    def _result_ids_for_focus_ids(
        self, focus_ids: Iterable[int], focus_type: Optional[str] = None
    ) -> set[int]:
        ids = sorted(focus_ids)
        out: set[int] = set()
        for chunk in _chunks(ids):
            marks = ",".join("?" * len(chunk))
            sql = (
                f"SELECT DISTINCT performance_result_id "
                f"FROM performance_result_has_focus "
                f"WHERE focus_id IN ({marks})"
            )
            params = list(chunk)
            if focus_type is not None:
                sql += " AND focus_type = ?"
                params.append(focus_type)
            rows = self.store.backend.query(sql, params)  # noqa: PTL001 — '?' marks only
            out.update(map(_first, rows))
        return out

    def result_ids(
        self,
        families: Sequence[ResourceFamily],
        focus_type: Optional[str] = None,
    ) -> set[int]:
        """Performance-result ids matching the whole pr-filter.

        An empty filter matches everything (vacuous ∀) — the GUI uses that
        as the starting count.  ``focus_type`` restricts matching to
        contexts of one kind (e.g. ``"sender"`` to find message-transit
        results by their sending side).
        """
        if not (_M.enabled or _trace.enabled):
            return self._result_ids_inner(families, focus_type)
        return self._observed(
            len(families), lambda: self._result_ids_inner(families, focus_type))

    def _observed(self, n_families: int, evaluate: Callable[[], set[int]]) -> set[int]:
        """The result ids *evaluate* returns, timed as one
        ``query.evaluate`` span with the pr-filter metrics."""
        if not (_M.enabled or _trace.enabled):
            return evaluate()
        t0 = _now()
        with _trace.span("query.evaluate", cat="query", families=n_families):
            out = evaluate()
        _PRFILTER_SECONDS.observe(_now() - t0)
        _PRFILTER_EVALS.inc()
        _RESULTS_MATCHED.add(len(out))
        return out

    def _result_ids_inner(
        self,
        families: Sequence[ResourceFamily],
        focus_type: Optional[str] = None,
    ) -> set[int]:
        if not families:
            if focus_type is None:
                rows = self.store.backend.query("SELECT id FROM performance_result")
                return set(map(_first, rows))
            rows = self.store.backend.query(  # noqa: PTL001 — '?' marks only
                "SELECT DISTINCT performance_result_id "
                "FROM performance_result_has_focus WHERE focus_type = ?",
                (focus_type,),
            )
            return set(map(_first, rows))
        # Intersect incrementally, smallest family first: the moment the
        # surviving set goes empty no further family needs to be probed
        # (∀-family semantics short-circuit on the first empty meet).
        surviving: Optional[set[int]] = None
        for fam in sorted(families, key=lambda f: len(f.resource_ids)):
            matched = self.matching_focus_ids(fam)
            surviving = matched if surviving is None else surviving & matched
            if not surviving:
                return set()
        if not surviving:
            return set()
        return self._result_ids_for_focus_ids(surviving, focus_type)

    def count_for_family(self, family: ResourceFamily) -> int:
        """How many results match this family alone (Figure 3's per-row count)."""
        return len(self._result_ids_for_focus_ids(self.matching_focus_ids(family)))

    def live_counts(
        self, families: Sequence[ResourceFamily]
    ) -> tuple[list[int], set[int]]:
        """Figure 3's counts in one pass: how many results each family
        matches alone, and the result ids of the whole filter.

        Each family's focus set is probed once; the whole filter is the
        intersection of those sets (with one family, its own results).
        """
        if not families:
            return [], self.result_ids(families)
        counts: list[int] = []

        def evaluate() -> set[int]:
            focus_sets = [self.matching_focus_ids(fam) for fam in families]
            alone = [self._result_ids_for_focus_ids(ids) for ids in focus_sets]
            counts.extend(map(len, alone))
            if len(families) == 1:
                return alone[0]
            surviving = set.intersection(*focus_sets)
            return self._result_ids_for_focus_ids(surviving) if surviving else set()

        return counts, self._observed(len(families), evaluate)

    def count_for_filter(self, families: Sequence[ResourceFamily]) -> int:
        """How many results match the whole filter (Figure 3's total count)."""
        return len(self.result_ids(families))

    def evaluate(self, prf: PrFilter) -> set[int]:
        return self.result_ids(self.store.resolve_prfilter(prf))

    # -- materialisation -------------------------------------------------------------

    def fetch_results(self, result_ids: Iterable[int]) -> list[PerformanceResult]:
        """Materialise PerformanceResult objects (with contexts) by id."""
        if not (_M.enabled or _trace.enabled):
            return self._fetch_results_inner(result_ids)
        t0 = _now()
        with _trace.span("query.fetch", cat="query"):
            out = self._fetch_results_inner(result_ids)
        _FETCH_SECONDS.observe(_now() - t0)
        _RESULTS_FETCHED.add(len(out))
        return out

    def _fetch_results_inner(
        self, result_ids: Iterable[int]
    ) -> list[PerformanceResult]:
        ids = sorted(set(result_ids))
        if not ids:
            return []
        backend = self.store.backend
        base: dict[int, tuple] = {}
        for chunk in _chunks(ids):
            marks = ",".join("?" * len(chunk))
            rows = backend.query(  # noqa: PTL001 — '?' marks only
                f"SELECT p.id, e.name, m.name, t.name, p.value, p.units, "
                f"p.start_time, p.end_time, p.value_type "
                f"FROM performance_result p "
                f"JOIN execution e ON e.id = p.execution_id "
                f"JOIN metric m ON m.id = p.metric_id "
                f"JOIN performance_tool t ON t.id = p.performance_tool_id "
                f"WHERE p.id IN ({marks})",
                chunk,
            )
            base.update(zip(map(_first, rows), rows))
        # Contexts: result -> [(focus_id, focus_type)] in row order,
        # focus -> resource ids.
        assoc: dict[int, list[tuple[int, str]]] = {rid: [] for rid in ids}
        for chunk in _chunks(ids):
            marks = ",".join("?" * len(chunk))
            rows = backend.query(  # noqa: PTL001 — '?' marks only
                f"SELECT performance_result_id, focus_id, focus_type "
                f"FROM performance_result_has_focus "
                f"WHERE performance_result_id IN ({marks})",
                chunk,
            )
            for pr_id, fid, ftype in rows:
                assoc[pr_id].append((fid, ftype))
        focus_keys = {key for keys in assoc.values() for key in keys}
        # Vector payloads for array-valued results (Section-6 extension).
        vector_ids = [rid for rid, row in base.items() if row[8] == "vector"]
        vectors: dict[int, list[tuple[int, float, float, float]]] = {
            rid: [] for rid in vector_ids
        }
        for chunk in _chunks(sorted(vector_ids)):
            marks = ",".join("?" * len(chunk))
            rows = backend.query(  # noqa: PTL001 — '?' marks only
                f"SELECT performance_result_id, bin_index, bin_start, bin_end, value "
                f"FROM performance_result_vector "
                f"WHERE performance_result_id IN ({marks})",
                chunk,
            )
            for pr_id, bi, bs, be, v in rows:
                vectors[pr_id].append((bi, bs, be, v))
        for rows_ in vectors.values():
            rows_.sort()
        focus_resources: dict[int, list[int]] = {fid: [] for fid, _t in focus_keys}
        for chunk in _chunks(sorted(focus_resources)):
            marks = ",".join("?" * len(chunk))
            rows = backend.query(  # noqa: PTL001 — '?' marks only
                f"SELECT focus_id, resource_id FROM focus_has_resource "
                f"WHERE focus_id IN ({marks})",
                chunk,
            )
            for fid, rid in rows:
                focus_resources[fid].append(rid)
        # One Context per (focus_id, focus_type), shared by every result
        # that has it.
        members = {fid: frozenset(rids) for fid, rids in focus_resources.items()}
        contexts = {
            key: Context(key[0], members[key[0]], key[1]) for key in focus_keys
        }
        context_of = contexts.__getitem__
        out: list[PerformanceResult] = []
        for rid in ids:
            row = base.get(rid)
            if row is None:
                continue
            out.append(
                _new_result(
                    row[0], row[1], row[2], row[3], row[4], row[5] or "",
                    tuple(map(context_of, assoc[rid])),
                    row[6], row[7], row[8],
                    tuple(vectors.get(rid, ())),
                )
            )
        return out

    def fetch(self, prf: PrFilter) -> list[PerformanceResult]:
        """One-shot: resolve, evaluate and materialise a pr-filter."""
        return self.fetch_results(self.evaluate(prf))

    # -- free resources (Figure 4's two-step Add Columns) -----------------------------

    def free_resources(
        self,
        results: Sequence[PerformanceResult],
        specified_ids: Optional[set[int]] = None,
    ) -> dict[str, list[str]]:
        """Free resources of *results*, grouped by type.

        Free resources are context resources the user's pr-filter did not
        specify; types whose resource names are identical across all
        results are dropped ("if all the selected results came from ...
        Linux, the resource type 'operating system' would not be shown").
        Returns ``{type path: sorted resource names}`` for offering as
        addable columns.
        """
        specified = specified_ids or set()
        per_type_names: dict[str, set[str]] = {}
        per_type_per_result: dict[str, list[set[str]]] = {}
        # One chunked lookup for every context resource, not one each.
        wanted = {rid for pr in results for rid in pr.resource_ids} - specified
        resources = {r.id: r for r in self.store.resources_by_ids(wanted)}
        for pr in results:
            seen_types: dict[str, set[str]] = {}
            for rid in pr.resource_ids:
                res = resources.get(rid)
                if res is None:
                    continue
                name, type_name = res.name, res.type_name
                seen_types.setdefault(type_name, set()).add(name)
                per_type_names.setdefault(type_name, set()).add(name)
            for t, names in seen_types.items():
                per_type_per_result.setdefault(t, []).append(names)
        out: dict[str, list[str]] = {}
        for type_name, names in per_type_names.items():
            appearances = per_type_per_result.get(type_name, [])
            # Identical for all results (and present in all) -> not interesting.
            if (
                len(appearances) == len(results)
                and len(names) == 1
            ):
                continue
            out[type_name] = sorted(names)
        return out

    def resource_names_of_type_for_result(
        self, result: PerformanceResult, type_name: str
    ) -> list[str]:
        """Names of a result's context resources having *type_name* (cell value)."""
        return [
            res.name
            for res in self.store.resources_by_ids(sorted(result.resource_ids))
            if res.type_name == type_name
        ]

