"""Resource filters, resource families and pr-filters (paper Section 2.2).

A *resource filter* selects a set of resources by type, by name, or by
attribute-value-comparator tuples, optionally expanded to ancestors and/or
descendants (the GUI's A/D/B/N "Relatives" flag).  Applying a resource
filter yields a *resource family* — a set of resources from one type
hierarchy.  A *pr-filter* is a set of families; it matches a context C iff
every family contains at least one resource of C::

    PRF matches C  ⇔  ∀ R ∈ PRF: ∃ r ∈ C: r ∈ R

Filter objects here are declarative; the data store resolves them to
id sets (:meth:`repro.core.datastore.PTDataStore.resolve_filter`) and the
query layer (:mod:`repro.core.query`) evaluates matches against foci.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Iterable, Optional, Sequence, Union


class Expansion(str, Enum):
    """Ancestor/descendant expansion flag for a resource filter.

    The GUI defaults name selections to DESCENDANTS (paper: *"choosing the
    resource 'Frost' defines a resource subset that also includes Frost's
    partitions, all of their nodes, and all of their processors"*).
    """

    NONE = "N"
    ANCESTORS = "A"
    DESCENDANTS = "D"
    BOTH = "B"

    @property
    def include_ancestors(self) -> bool:
        return self in (Expansion.ANCESTORS, Expansion.BOTH)

    @property
    def include_descendants(self) -> bool:
        return self in (Expansion.DESCENDANTS, Expansion.BOTH)


#: Comparators usable in attribute clauses.
COMPARATORS: dict[str, Callable[[str, str], bool]] = {}


def _numeric_or_text(fn_num, fn_text):
    def cmp(actual: str, expected: str) -> bool:
        try:
            return fn_num(float(actual), float(expected))
        except (TypeError, ValueError):
            if actual is None:
                return False
            return fn_text(str(actual), str(expected))

    return cmp


COMPARATORS["="] = _numeric_or_text(lambda a, b: a == b, lambda a, b: a == b)
COMPARATORS["!="] = _numeric_or_text(lambda a, b: a != b, lambda a, b: a != b)
COMPARATORS["<"] = _numeric_or_text(lambda a, b: a < b, lambda a, b: a < b)
COMPARATORS["<="] = _numeric_or_text(lambda a, b: a <= b, lambda a, b: a <= b)
COMPARATORS[">"] = _numeric_or_text(lambda a, b: a > b, lambda a, b: a > b)
COMPARATORS[">="] = _numeric_or_text(lambda a, b: a >= b, lambda a, b: a >= b)
COMPARATORS["contains"] = lambda actual, expected: (
    actual is not None and str(expected) in str(actual)
)


@dataclass(frozen=True)
class AttributeClause:
    """One attribute-value-comparator tuple."""

    name: str
    comparator: str
    value: str

    def __post_init__(self) -> None:
        if self.comparator not in COMPARATORS:
            raise ValueError(
                f"unknown comparator {self.comparator!r}; "
                f"expected one of {sorted(COMPARATORS)}"
            )

    def test(self, actual: Optional[str]) -> bool:
        return COMPARATORS[self.comparator](actual, self.value)


@dataclass(frozen=True)
class ByType:
    """Select all resources of one type (paper: machine-level-only queries)."""

    type_path: str
    expansion: Expansion = Expansion.NONE

    def describe(self) -> str:
        return f"type={self.type_path} [{self.expansion.value}]"


@dataclass(frozen=True)
class ByName:
    """Select resources by full name (``/Frost/batch``) or base name (``batch``)."""

    name: str
    expansion: Expansion = Expansion.DESCENDANTS

    @property
    def is_full_name(self) -> bool:
        return self.name.startswith("/")

    def describe(self) -> str:
        return f"name={self.name} [{self.expansion.value}]"


@dataclass(frozen=True)
class ByAttributes:
    """Select resources matching all attribute clauses (optionally one type)."""

    clauses: tuple[AttributeClause, ...]
    type_path: Optional[str] = None
    expansion: Expansion = Expansion.NONE

    def __post_init__(self) -> None:
        if not self.clauses:
            raise ValueError("ByAttributes requires at least one clause")

    def describe(self) -> str:
        parts = ", ".join(f"{c.name}{c.comparator}{c.value}" for c in self.clauses)
        scope = f" of {self.type_path}" if self.type_path else ""
        return f"attrs({parts}){scope} [{self.expansion.value}]"


@dataclass(frozen=True)
class ByConstraint:
    """Select resources constrained to (resource-valued-attributed by) a
    target resource — e.g. all processes that ran on node ``/M/n16``.

    ``direction`` picks which side of the ``resource_constraint`` pair is
    matched: ``"to"`` selects resources whose constraint points at
    *target* (the common case), ``"from"`` the reverse.
    """

    target: str  # full resource name
    direction: str = "to"
    expansion: Expansion = Expansion.NONE

    def __post_init__(self) -> None:
        if self.direction not in ("to", "from"):
            raise ValueError(f"direction must be 'to' or 'from', got {self.direction!r}")

    def describe(self) -> str:
        arrow = "->" if self.direction == "to" else "<-"
        return f"constraint{arrow}{self.target} [{self.expansion.value}]"


ResourceFilter = Union[ByType, ByName, ByAttributes, ByConstraint]


@dataclass(frozen=True)
class ResourceFamily:
    """A resolved resource family: ids plus provenance for display."""

    label: str
    resource_ids: frozenset[int]

    def __len__(self) -> int:
        return len(self.resource_ids)

    def __contains__(self, resource_id: int) -> bool:
        return resource_id in self.resource_ids


@dataclass
class PrFilter:
    """An (unresolved) pr-filter: an ordered set of resource filters."""

    filters: list[ResourceFilter] = field(default_factory=list)

    def add(self, f: ResourceFilter) -> "PrFilter":
        self.filters.append(f)
        return self

    def remove(self, index: int) -> ResourceFilter:
        return self.filters.pop(index)

    def describe(self) -> str:
        return " AND ".join(f.describe() for f in self.filters) or "<empty>"

    def __len__(self) -> int:
        return len(self.filters)


def matches(families: Sequence[frozenset[int] | set[int]], context: Iterable[int]) -> bool:
    """Pure Section-2.2 match: every family intersects the context.

    An empty pr-filter matches every context (vacuous ∀).
    """
    ctx = set(context)
    return all(bool(ctx & set(fam)) for fam in families)


def filter_results(
    families: Sequence[frozenset[int]],
    results: Iterable,
) -> list:
    """Reference in-memory implementation of applying a pr-filter.

    ``results`` are objects with a ``contexts`` attribute (tuples of
    :class:`repro.core.results.Context`).  A result is kept when *some*
    single context matches all families — the same semantics the SQL path
    in :mod:`repro.core.query` implements via focus-set intersection.
    """
    kept = []
    for pr in results:
        for ctx in pr.contexts:
            if matches(families, ctx.resource_ids):
                kept.append(pr)
                break
    return kept
