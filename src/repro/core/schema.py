"""PerfTrack database schema (paper Figure 1).

Tables, keys and the performance-motivated denormalisations follow the
figure:

* ``focus_framework`` — the resource type system (one row per type path
  node, self-referential parent).
* ``resource_item`` — one row per resource: name, base name, parent,
  ``focus_framework_id`` (its type), and the owning execution when the
  resource is execution-specific.
* ``resource_attribute`` — string attributes of resources.
* ``resource_constraint`` — resource-valued attributes (paper Section 3:
  *"resource attributes that are themselves resources are stored as
  'resource constraints' in a separate table"*).
* ``resource_has_ancestor`` / ``resource_has_descendant`` — transitive
  closure tables *"added for performance reasons ... to avoid needing to
  traverse the resource hierarchy and follow the chain of parent_id's"*.
* ``focus`` + ``focus_has_resource`` — contexts; a focus is a set of
  resources, deduplicated via a canonical hash.
* ``performance_result`` + ``performance_result_has_focus`` — measured
  values and their contexts; the association carries the focus type
  (primary/parent/child/sender/receiver).
* ``application``, ``execution``, ``metric``, ``performance_tool`` —
  dimension tables.
* ``performance_result_vector`` — **extension** (paper Section 6 future
  work): complex, array-valued performance results, so a whole Paradyn
  histogram is one result instead of one result per bin.  Scalar results
  leave it empty; ``performance_result.value_type`` distinguishes.
"""

from __future__ import annotations

from ..dbapi.backends import Backend

#: DDL statements in dependency order.  The dialect is the common subset of
#: minidb and sqlite3.
SCHEMA_DDL: tuple[str, ...] = (
    """
    CREATE TABLE focus_framework (
        id INTEGER PRIMARY KEY,
        name TEXT NOT NULL UNIQUE,
        base_name TEXT NOT NULL,
        parent_id INTEGER REFERENCES focus_framework(id)
    )
    """,
    """
    CREATE TABLE application (
        id INTEGER PRIMARY KEY,
        name TEXT NOT NULL UNIQUE
    )
    """,
    """
    CREATE TABLE execution (
        id INTEGER PRIMARY KEY,
        name TEXT NOT NULL UNIQUE,
        application_id INTEGER NOT NULL REFERENCES application(id)
    )
    """,
    """
    CREATE TABLE performance_tool (
        id INTEGER PRIMARY KEY,
        name TEXT NOT NULL UNIQUE
    )
    """,
    """
    CREATE TABLE metric (
        id INTEGER PRIMARY KEY,
        name TEXT NOT NULL UNIQUE
    )
    """,
    """
    CREATE TABLE resource_item (
        id INTEGER PRIMARY KEY,
        name TEXT NOT NULL UNIQUE,
        base_name TEXT NOT NULL,
        parent_id INTEGER REFERENCES resource_item(id),
        focus_framework_id INTEGER NOT NULL REFERENCES focus_framework(id),
        execution_id INTEGER REFERENCES execution(id)
    )
    """,
    """
    CREATE TABLE resource_attribute (
        id INTEGER PRIMARY KEY,
        resource_id INTEGER NOT NULL REFERENCES resource_item(id),
        name TEXT NOT NULL,
        value TEXT,
        attr_type TEXT NOT NULL DEFAULT 'string'
    )
    """,
    """
    CREATE TABLE resource_constraint (
        id INTEGER PRIMARY KEY,
        resource_id_1 INTEGER NOT NULL REFERENCES resource_item(id),
        resource_id_2 INTEGER NOT NULL REFERENCES resource_item(id)
    )
    """,
    """
    CREATE TABLE resource_has_ancestor (
        resource_id INTEGER NOT NULL REFERENCES resource_item(id),
        ancestor_id INTEGER NOT NULL REFERENCES resource_item(id)
    )
    """,
    """
    CREATE TABLE resource_has_descendant (
        resource_id INTEGER NOT NULL REFERENCES resource_item(id),
        descendant_id INTEGER NOT NULL REFERENCES resource_item(id)
    )
    """,
    """
    CREATE TABLE focus (
        id INTEGER PRIMARY KEY,
        resource_hash TEXT NOT NULL UNIQUE
    )
    """,
    """
    CREATE TABLE focus_has_resource (
        focus_id INTEGER NOT NULL REFERENCES focus(id),
        resource_id INTEGER NOT NULL REFERENCES resource_item(id)
    )
    """,
    """
    CREATE TABLE performance_result (
        id INTEGER PRIMARY KEY,
        execution_id INTEGER NOT NULL REFERENCES execution(id),
        metric_id INTEGER NOT NULL REFERENCES metric(id),
        performance_tool_id INTEGER NOT NULL REFERENCES performance_tool(id),
        value REAL,
        units TEXT,
        start_time TEXT,
        end_time TEXT,
        value_type TEXT NOT NULL DEFAULT 'scalar'
    )
    """,
    """
    CREATE TABLE performance_result_vector (
        performance_result_id INTEGER NOT NULL REFERENCES performance_result(id),
        bin_index INTEGER NOT NULL,
        bin_start REAL,
        bin_end REAL,
        value REAL
    )
    """,
    """
    CREATE TABLE performance_result_has_focus (
        performance_result_id INTEGER NOT NULL REFERENCES performance_result(id),
        focus_id INTEGER NOT NULL REFERENCES focus(id),
        focus_type TEXT NOT NULL DEFAULT 'primary'
    )
    """,
)

#: Secondary indexes for the hot paths: name lookups during load, family
#: probes and focus joins during pr-filter evaluation, closure expansion.
SCHEMA_INDEXES: tuple[str, ...] = (
    "CREATE INDEX idx_ff_base ON focus_framework (base_name)",
    "CREATE INDEX idx_ri_base ON resource_item (base_name)",
    "CREATE INDEX idx_ri_type ON resource_item (focus_framework_id)",
    "CREATE INDEX idx_ri_parent ON resource_item (parent_id)",
    "CREATE INDEX idx_ri_exec ON resource_item (execution_id)",
    "CREATE INDEX idx_ra_resource ON resource_attribute (resource_id)",
    "CREATE INDEX idx_ra_name ON resource_attribute (name)",
    "CREATE INDEX idx_rc_r1 ON resource_constraint (resource_id_1)",
    "CREATE INDEX idx_rc_r2 ON resource_constraint (resource_id_2)",
    "CREATE INDEX idx_rha_resource ON resource_has_ancestor (resource_id)",
    "CREATE INDEX idx_rha_ancestor ON resource_has_ancestor (ancestor_id)",
    "CREATE INDEX idx_rhd_resource ON resource_has_descendant (resource_id)",
    "CREATE INDEX idx_rhd_descendant ON resource_has_descendant (descendant_id)",
    "CREATE INDEX idx_fhr_focus ON focus_has_resource (focus_id)",
    "CREATE INDEX idx_fhr_resource ON focus_has_resource (resource_id)",
    "CREATE INDEX idx_pr_exec ON performance_result (execution_id)",
    "CREATE INDEX idx_pr_metric ON performance_result (metric_id)",
    "CREATE INDEX idx_prv_result ON performance_result_vector (performance_result_id)",
    "CREATE INDEX idx_prf_result ON performance_result_has_focus (performance_result_id)",
    "CREATE INDEX idx_prf_focus ON performance_result_has_focus (focus_id)",
)

#: Table names in creation order (used by reports and tests).
TABLE_NAMES: tuple[str, ...] = (
    "focus_framework",
    "application",
    "execution",
    "performance_tool",
    "metric",
    "resource_item",
    "resource_attribute",
    "resource_constraint",
    "resource_has_ancestor",
    "resource_has_descendant",
    "focus",
    "focus_has_resource",
    "performance_result",
    "performance_result_vector",
    "performance_result_has_focus",
)


def create_schema(backend: Backend, with_indexes: bool = True) -> None:
    """Create all PerfTrack tables (and, optionally, secondary indexes)."""
    for ddl in SCHEMA_DDL:
        backend.execute(ddl)
    if with_indexes:
        for ddl in SCHEMA_INDEXES:
            backend.execute(ddl)
    backend.commit()


def schema_is_present(backend: Backend) -> bool:
    """True when the PerfTrack schema exists in the connected database."""
    return all(backend.has_table(t) for t in TABLE_NAMES)


def describe_schema() -> list[str]:
    """Human-readable table listing (regenerates paper Figure 1 as text)."""
    lines: list[str] = []
    for ddl in SCHEMA_DDL:
        body = " ".join(ddl.split())
        name = body.split("(", 1)[0].replace("CREATE TABLE", "").strip()
        cols = body.split("(", 1)[1].rsplit(")", 1)[0]
        lines.append(f"{name}:")
        depth = 0
        col = []
        for ch in cols:
            if ch == "(":
                depth += 1
            elif ch == ")":
                depth -= 1
            if ch == "," and depth == 0:
                lines.append("    " + "".join(col).strip())
                col = []
            else:
                col.append(ch)
        if col:
            lines.append("    " + "".join(col).strip())
    return lines
