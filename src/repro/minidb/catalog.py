"""Schema catalog for minidb: table, column, and index metadata."""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Any, Optional

from . import ast_nodes as ast
from .errors import ProgrammingError, SemanticError, closest
from .sqltypes import INTEGER, affinity_for


@dataclass
class ColumnMeta:
    """Metadata for one table column."""

    name: str
    type_name: str
    affinity: str
    not_null: bool = False
    primary_key: bool = False
    autoincrement: bool = False
    unique: bool = False
    default: Any = None
    has_default: bool = False
    references: Optional[tuple[str, str]] = None  # (table, column)


@dataclass
class ForeignKeyMeta:
    """A (possibly composite) foreign-key constraint."""

    columns: list[str]
    ref_table: str
    ref_columns: list[str]


@dataclass
class TableMeta:
    """Metadata for one table."""

    name: str
    columns: list[ColumnMeta]
    primary_key: list[str] = field(default_factory=list)
    foreign_keys: list[ForeignKeyMeta] = field(default_factory=list)
    unique_sets: list[list[str]] = field(default_factory=list)

    def __post_init__(self) -> None:
        self._index_of = {c.name.lower(): i for i, c in enumerate(self.columns)}
        if len(self._index_of) != len(self.columns):
            raise ProgrammingError(f"duplicate column name in table {self.name}")
        self._sources: dict[Optional[tuple[str, ...]], tuple[Optional[int], ...]] = {}

    def column_index(self, name: str) -> int:
        try:
            return self._index_of[name.lower()]
        except KeyError:
            raise SemanticError(
                f"no such column: {self.name}.{name}",
                code="SQL002",
                suggestion=closest(name, self.column_names),
            ) from None

    def has_column(self, name: str) -> bool:
        return name.lower() in self._index_of

    def column(self, name: str) -> ColumnMeta:
        return self.columns[self.column_index(name)]

    @property
    def column_names(self) -> list[str]:
        return [c.name for c in self.columns]

    def sources(self, columns: Optional[list[str]]) -> tuple[Optional[int], ...]:
        """Per column: its position in an INSERT column list, ``None`` when
        the list omits it (no list names every column in order)."""
        key = tuple(columns) if columns else None
        got = self._sources.get(key)
        if got is None:
            src_of: list[Optional[int]] = [None] * len(self.columns)
            for src_i, name in enumerate(columns or self.column_names):
                src_of[self.column_index(name)] = src_i
            got = self._sources[key] = tuple(src_of)
        return got

    @cached_property
    def affinities(self) -> list[str]:
        return [c.affinity for c in self.columns]

    @cached_property
    def defaults(self) -> list[Any]:
        """Per column: the value an INSERT that omits it stores (uncoerced)."""
        return [c.default if c.has_default else None for c in self.columns]

    @cached_property
    def rowid_pk_column(self) -> Optional[int]:
        """Index of a single INTEGER PRIMARY KEY column, if the table has one.

        Such a column gets auto-assigned ascending values on NULL insert,
        mirroring SQLite rowid aliasing — which is how the PerfTrack schema's
        ``*_id`` sequence columns are realised without a server.
        """
        if len(self.primary_key) != 1:
            return None
        i = self.column_index(self.primary_key[0])
        if self.columns[i].affinity == INTEGER:
            return i
        return None


@dataclass
class IndexMeta:
    """Metadata for one secondary index."""

    name: str
    table: str
    columns: list[str]
    unique: bool = False


class Catalog:
    """All schema objects in one database."""

    def __init__(self) -> None:
        self.tables: dict[str, TableMeta] = {}
        self.indexes: dict[str, IndexMeta] = {}
        #: Monotonic schema generation, bumped on every DDL mutation.  The
        #: connection keys its per-statement analysis memo on this so cached
        #: statements are re-checked after a CREATE/DROP.
        self.version = 0

    # -- tables ---------------------------------------------------------------

    def create_table(self, stmt: ast.CreateTable) -> TableMeta:
        key = stmt.name.lower()
        if key in self.tables:
            raise SemanticError(f"table {stmt.name} already exists", code="SQL015")
        columns: list[ColumnMeta] = []
        pk = list(stmt.primary_key)
        for cd in stmt.columns:
            default_val = None
            has_default = False
            if cd.default is not None:
                if not isinstance(cd.default, ast.Literal):
                    raise SemanticError("DEFAULT must be a literal value", code="SQL016")
                default_val = cd.default.value
                has_default = True
            references = None
            if cd.references is not None:
                references = (cd.references[0], cd.references[1] or "")
            columns.append(
                ColumnMeta(
                    name=cd.name,
                    type_name=cd.type_name,
                    affinity=affinity_for(cd.type_name),
                    not_null=cd.not_null or cd.primary_key,
                    primary_key=cd.primary_key,
                    autoincrement=cd.autoincrement,
                    unique=cd.unique,
                    default=default_val,
                    has_default=has_default,
                    references=references,
                )
            )
            if cd.primary_key:
                if pk and cd.name not in pk:
                    raise SemanticError("multiple PRIMARY KEY definitions", code="SQL014")
                if cd.name not in pk:
                    pk.append(cd.name)
        meta = TableMeta(stmt.name, columns, primary_key=pk)
        for colname in pk:
            meta.column_index(colname)  # validate
            meta.column(colname).not_null = True
        for uq in stmt.uniques:
            for c in uq:
                meta.column_index(c)
            meta.unique_sets.append(list(uq))
        for col in columns:
            if col.unique:
                meta.unique_sets.append([col.name])
        for local, ref_table, ref_cols in stmt.foreign_keys:
            for c in local:
                meta.column_index(c)
            meta.foreign_keys.append(ForeignKeyMeta(list(local), ref_table, list(ref_cols)))
        for col in columns:
            if col.references is not None:
                meta.foreign_keys.append(
                    ForeignKeyMeta([col.name], col.references[0], [col.references[1]] if col.references[1] else [])
                )
        self.tables[key] = meta
        self.version += 1
        return meta

    def drop_table(self, name: str) -> TableMeta:
        key = name.lower()
        try:
            meta = self.tables.pop(key)
        except KeyError:
            raise SemanticError(
                f"no such table: {name}",
                code="SQL001",
                suggestion=closest(name, [t.name for t in self.tables.values()]),
            ) from None
        for iname in [i for i, im in self.indexes.items() if im.table.lower() == key]:
            del self.indexes[iname]
        self.version += 1
        return meta

    def table(self, name: str) -> TableMeta:
        try:
            return self.tables[name.lower()]
        except KeyError:
            raise SemanticError(
                f"no such table: {name}",
                code="SQL001",
                suggestion=closest(name, [t.name for t in self.tables.values()]),
            ) from None

    def has_table(self, name: str) -> bool:
        return name.lower() in self.tables

    # -- indexes ----------------------------------------------------------------

    def create_index(self, stmt: ast.CreateIndex) -> IndexMeta:
        key = stmt.name.lower()
        if key in self.indexes:
            raise SemanticError(f"index {stmt.name} already exists", code="SQL015")
        table = self.table(stmt.table)
        for c in stmt.columns:
            table.column_index(c)
        meta = IndexMeta(stmt.name, table.name, list(stmt.columns), unique=stmt.unique)
        self.indexes[key] = meta
        self.version += 1
        return meta

    def drop_index(self, name: str) -> IndexMeta:
        try:
            meta = self.indexes.pop(name.lower())
        except KeyError:
            raise SemanticError(
                f"no such index: {name}",
                code="SQL015",
                suggestion=closest(name, [i.name for i in self.indexes.values()]),
            ) from None
        self.version += 1
        return meta

    def has_index(self, name: str) -> bool:
        return name.lower() in self.indexes

    def indexes_on(self, table: str) -> list[IndexMeta]:
        t = table.lower()
        return [im for im in self.indexes.values() if im.table.lower() == t]
