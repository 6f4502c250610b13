"""PerfTrack core: the resource/result model, data store, and queries.

Public surface:

* :class:`~repro.core.datastore.PTDataStore` — the database-backed store
  with the Figure-6 load API and lookup/query methods.
* :func:`~repro.core.datastore.load_files` — the one PTdf file load
  pipeline (parse every file, lint-gate, apply in file order) for both
  store kinds.
* :class:`~repro.core.shards.ShardedPTDataStore` — the catalog + N fact
  shards deployment for BG/L-scale corpora, with
  :class:`~repro.core.query.ShardedQueryEngine` for scatter-gather
  pr-filter evaluation.
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
    FamilySpec,
    PrFilter,
    ResourceFamily,
)
from .query import QueryEngine, ShardedQueryEngine
from .results import PerformanceResult
from .resources import Resource, ResourceType
from .shards import ShardedPTDataStore, ShardRouter

__all__ = [
    "PTDataStore",
    "ShardedPTDataStore",
    "ShardRouter",
    "LoadStats",
    "load_files",
    "QueryEngine",
    "ShardedQueryEngine",
    "PrFilter",
    "ResourceFamily",
    "FamilySpec",
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
