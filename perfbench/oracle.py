"""Independent answers for every timed operation.

Nothing here imports ``repro``.  The PTdf files the benchmark feeds to
PerfTrack are read back by a small tokenizer of our own, and pr-filters
are evaluated over those records by the paper's law::

    PRF matches C  <=>  for all R in PRF: there is r in C with r in R

A result is expected when *some* context of it matches every family.

Store ids are assigned by the program, so an answer is compared through a
mapping from store ids to record keys that is rebuilt (and checked against
the records written) after every load: see :func:`check_rows`.
"""

from __future__ import annotations

import bisect
import re
from collections import Counter, defaultdict
from dataclasses import dataclass, field

# A quoted field (backslash escapes inside), a '#' comment, or a bare run.
_TOKEN = re.compile(r'"((?:[^"\\]|\\.)*)"|(#.*)|([^\s"#]+)')
_UNESCAPE = re.compile(r"\\(.)")


def tokenize(line: str) -> list[str]:
    out = []
    for quoted, comment, bare in _TOKEN.findall(line):
        if comment:
            break
        out.append(_UNESCAPE.sub(r"\1", quoted) if bare == "" else bare)
    return out


def _ancestors_and_self(name: str) -> list[str]:
    parts = [p for p in name.split("/") if p]
    return ["/" + "/".join(parts[: i + 1]) for i in range(len(parts))]


def _resource_sets(text: str) -> tuple[frozenset, ...]:
    sets = []
    for chunk in text.split(":"):
        chunk = chunk.strip()
        if chunk.endswith(")") and "(" in chunk:
            chunk = chunk[: chunk.rindex("(")]
        sets.append(frozenset(n.strip() for n in chunk.split(",") if n.strip()))
    return tuple(sets)


def _numeric_or_text_equal(actual: str, expected: str) -> bool:
    try:
        return float(actual) == float(expected)
    except ValueError:
        return actual == expected


@dataclass
class Model:
    """The records of a corpus prefix, indexed for pr-filter evaluation."""

    names: set = field(default_factory=set)
    types: dict = field(default_factory=dict)  # resource name -> type path
    attributes: list = field(default_factory=list)  # (resource, attr, value)
    #: per result: (key, contexts); a key is (execution, metric, tool, value,
    #: frozenset of contexts) -- identical records share a key and always
    #: match the same filters
    results: list = field(default_factory=list)
    #: each distinct key -> its one stored instance, so that id maps built
    #: from store rows share the model's objects instead of copying them
    canonical: dict = field(default_factory=dict)
    records: int = 0
    _postings: dict = field(default_factory=lambda: defaultdict(set))
    _sorted: list = field(default_factory=list)
    _cache: dict = field(default_factory=dict)

    def add_file(self, path: str) -> int:
        """Read one PTdf file; returns the number of records in it."""
        n = 0
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                f = tokenize(line)
                if not f:
                    continue
                n += 1
                kind = f[0]
                if kind == "Resource":
                    tparts = [t for t in f[2].split("/") if t]
                    for depth, name in enumerate(_ancestors_and_self(f[1]), 1):
                        self.names.add(name)
                        self.types.setdefault(name, "/".join(tparts[:depth]))
                elif kind == "ResourceAttribute":
                    self.attributes.append((f[1], f[2], f[3]))
                elif kind == "PerfResult":
                    contexts = _resource_sets(f[2])
                    key = (f[1], f[4], f[3], float(f[5]), frozenset(contexts))
                    key = self.canonical.setdefault(key, key)
                    idx = len(self.results)
                    self.results.append((key, contexts))
                    for ci, ctx in enumerate(contexts):
                        for name in ctx:
                            self._postings[name].add((idx, ci))
                elif kind == "PerfResultSeries":
                    raise ValueError("the oracle does not model PerfResultSeries")
        self.records += n
        self._sorted = sorted(self.names)
        self._cache.clear()
        return n

    # -- families -----------------------------------------------------------

    def family(self, spec: tuple) -> set:
        """Resource names of one filter spec.

        ``("name", full_name, "N" | "D")`` selects a resource, with its
        descendants for ``"D"``; ``("attr", attribute, value)`` selects the
        resources whose attribute equals ``value`` (numerically when both
        sides are numbers, as the pr-filter comparator does).
        """
        kind = spec[0]
        if kind == "name":
            _, name, expansion = spec
            if name not in self.names:
                return set()
            out = {name}
            if expansion == "D":
                prefix = name + "/"
                i = bisect.bisect_left(self._sorted, prefix)
                while i < len(self._sorted) and self._sorted[i].startswith(prefix):
                    out.add(self._sorted[i])
                    i += 1
            return out
        if kind == "attr":
            _, attr, value = spec
            return {
                r for r, a, v in self.attributes
                if a == attr and _numeric_or_text_equal(v, value)
            }
        raise ValueError(f"unknown filter spec {spec!r}")

    def expected_keys(self, specs: tuple) -> Counter:
        """Keys (with multiplicity) of the results the pr-filter selects."""
        hit = self._cache.get(specs)
        if hit is not None:
            return hit
        surviving = None
        for spec in specs:
            pairs = set()
            for name in self.family(spec):
                pairs |= self._postings.get(name, set())
            surviving = pairs if surviving is None else surviving & pairs
        rows = {idx for idx, _ in surviving or ()}
        out = Counter(self.results[i][0] for i in rows)
        self._cache[specs] = out
        return out

    def key_counts(self) -> Counter:
        return Counter(key for key, _ in self.results)

    def columns(self, keys: list) -> dict:
        """``QueryEngine.free_resources`` for results with these keys.

        Context resources grouped by type; a type with one name shared by
        every result is dropped, as the GUI does.
        """
        names = defaultdict(set)
        appearances = Counter()
        for key in keys:
            seen = set()
            for ctx in key[4]:
                for name in ctx:
                    t = self.types[name]
                    names[t].add(name)
                    seen.add(t)
            appearances.update(seen)
        return {
            t: sorted(n) for t, n in names.items()
            if not (appearances[t] == len(keys) and len(n) == 1)
        }

    def names_of_type(self, key: tuple, type_path: str) -> list:
        """One GUI column cell: a result's context resources of one type."""
        return sorted({n for ctx in key[4] for n in ctx if self.types[n] == type_path})


class Mismatch(AssertionError):
    """The program's answer disagrees with the oracle."""


@dataclass
class IdMap:
    """Store id <-> record key, built from the rows a load left behind."""

    key_of: dict
    ids_of: dict

    def expected_ids(self, keys: Counter) -> set:
        out = set()
        for key in keys:
            out.update(self.ids_of[key])
        return out


def check_rows(model: Model, rows: dict) -> IdMap:
    """Check loaded rows against the records written; return the id map.

    ``rows`` holds plain tuples read from the store's tables:
    ``performance_result`` (id, execution_id, metric_id, tool_id, value),
    ``performance_result_has_focus`` (result_id, focus_id),
    ``focus_has_resource`` (focus_id, resource_id) and the name tables
    ``resource_item``, ``execution``, ``metric``, ``performance_tool``
    as (id, name).
    """
    res_name = dict(rows["resource_item"])
    exe, met, tool = (dict(rows[t]) for t in ("execution", "metric", "performance_tool"))
    focus_members = defaultdict(set)
    for fid, rid in rows["focus_has_resource"]:
        focus_members[fid].add(res_name[rid])
    contexts = defaultdict(set)
    for pr_id, fid in rows["performance_result_has_focus"]:
        contexts[pr_id].add(frozenset(focus_members[fid]))
    key_of = {}
    ids_of = defaultdict(list)
    for pr_id, eid, mid, tid, value in rows["performance_result"]:
        key = (exe[eid], met[mid], tool[tid], float(value), frozenset(contexts[pr_id]))
        key = model.canonical.get(key, key)
        key_of[pr_id] = key
        ids_of[key].append(pr_id)
    got = Counter({k: len(v) for k, v in ids_of.items()})
    want = model.key_counts()
    if got != want:
        missing = sum((want - got).values())
        extra = sum((got - want).values())
        raise Mismatch(
            f"loaded rows differ from the records written: {missing} record(s) "
            f"missing, {extra} unexpected row(s)"
        )
    return IdMap(key_of, {k: tuple(v) for k, v in ids_of.items()})
