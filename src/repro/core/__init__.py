"""PerfTrack core: the resource/result model, data store, and queries.

Public surface:

* :class:`~repro.core.datastore.PTDataStore` — the database-backed store
  with the Figure-6 load API and lookup/query methods.
* :func:`~repro.core.datastore.load_files` — the one PTdf file load
  pipeline (parse every file, lint-gate, apply in file order).
* :class:`~repro.core.query.QueryEngine` — pr-filter evaluation and
  result materialisation over one store.
* :mod:`~repro.core.filters` — resource filters, resource families and
  pr-filters (Section 2.2 semantics).
* :mod:`~repro.core.comparison` / :mod:`~repro.core.diagnosis` — the
  multi-execution comparison operators the paper lists as in-progress
  future work (Section 6), in the PPerfDB lineage.
"""

from .datastore import LoadStats, PTDataStore, load_files
from .filters import (
    AttributeClause,
    ByAttributes,
    ByConstraint,
    ByName,
    ByType,
    Expansion,
    PrFilter,
    ResourceFamily,
)
from .query import QueryEngine
from .results import PerformanceResult
from .resources import Resource, ResourceType

__all__ = [
    "PTDataStore",
    "LoadStats",
    "load_files",
    "QueryEngine",
    "PrFilter",
    "ResourceFamily",
    "ByType",
    "ByName",
    "ByAttributes",
    "ByConstraint",
    "AttributeClause",
    "Expansion",
    "Resource",
    "ResourceType",
    "PerformanceResult",
]
