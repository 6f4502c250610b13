"""DB-API 2.0 exception hierarchy for minidb.

The hierarchy mirrors PEP 249 so that code written against minidb keeps
working when pointed at another DB-API driver (and vice versa) — the same
property PerfTrack relied on to support both Oracle and PostgreSQL.
"""

from __future__ import annotations


class Warning(Exception):  # noqa: A001 - PEP 249 mandates the name
    """Important warnings such as data truncation on insert."""


class Error(Exception):
    """Base class of all minidb errors."""


class InterfaceError(Error):
    """Errors related to the database interface rather than the database."""


class DatabaseError(Error):
    """Errors related to the database."""


class DataError(DatabaseError):
    """Errors due to problems with the processed data (bad values, ranges)."""


class OperationalError(DatabaseError):
    """Errors related to the database's operation (I/O, missing file, ...)."""


class IntegrityError(DatabaseError):
    """Relational integrity violations (duplicate key, FK violation, ...)."""


class InternalError(DatabaseError):
    """The database encountered an internal inconsistency."""


class ProgrammingError(DatabaseError):
    """SQL syntax errors, wrong parameter counts, missing tables, ..."""


class NotSupportedError(DatabaseError):
    """A method or SQL feature that minidb does not implement."""


class SqlSyntaxError(ProgrammingError):
    """Raised by the lexer/parser with position information."""

    def __init__(self, message: str, sql: str = "", pos: int = 0) -> None:
        self.sql = sql
        self.pos = pos
        if sql:
            line = sql.count("\n", 0, pos) + 1
            col = pos - (sql.rfind("\n", 0, pos) + 1) + 1
            message = f"{message} (line {line}, column {col})"
        super().__init__(message)


class SemanticError(ProgrammingError):
    """A statement rejected by static semantic analysis.

    Carries a machine-readable rule ``code`` (``"SQL001"``, ...), an
    optional ``location`` (free-form, e.g. ``"WHERE clause"``) and an
    optional did-you-mean ``suggestion`` so that callers — the CLI, the
    GUI, a test harness — can explain the rejection instead of surfacing
    a mid-execution KeyError.
    """

    def __init__(
        self,
        message: str,
        code: str = "SQL000",
        location: "str | None" = None,
        suggestion: "str | None" = None,
    ) -> None:
        self.code = code
        self.location = location
        self.suggestion = suggestion
        text = message
        if location:
            text = f"{text} (in {location})"
        if suggestion:
            text = f"{text}; did you mean {suggestion!r}?"
        super().__init__(text)


class SessionError(InterfaceError):
    """A cursor or connection was used after it was closed.

    Raised when a connection (``SES001``) or a cursor (``SES004``) is
    touched after ``close()``.  Carries the machine-readable ``code`` and
    a ``hint`` describing how to recover, mirroring
    :class:`SemanticError`'s shape so callers can render both the same way.
    """

    def __init__(
        self,
        message: str,
        code: str = "SES000",
        hint: "str | None" = None,
    ) -> None:
        self.code = code
        self.hint = hint
        text = f"{code}: {message}"
        if hint:
            text = f"{text}; {hint}"
        super().__init__(text)


def closest(name: str, candidates) -> "str | None":
    """Closest-match suggestion for an unresolved identifier, or None."""
    from difflib import get_close_matches

    pool: dict[str, str] = {}
    for cand in candidates:
        pool.setdefault(str(cand).lower(), str(cand))
    matches = get_close_matches(name.lower(), list(pool), n=1, cutoff=0.6)
    return pool[matches[0]] if matches else None
