"""SQL value types and coercion rules for minidb.

minidb follows a light "type affinity" model similar to SQLite: every
column declares an affinity (INTEGER, REAL, TEXT, BLOB, BOOLEAN, NUMERIC)
and stored values are coerced toward that affinity where the coercion is
lossless; otherwise the value is stored as given.  NULL is represented by
Python ``None`` throughout.
"""

from __future__ import annotations

from typing import Any

from .errors import DataError

# Canonical affinity names.
INTEGER = "INTEGER"
REAL = "REAL"
TEXT = "TEXT"
BLOB = "BLOB"
BOOLEAN = "BOOLEAN"
NUMERIC = "NUMERIC"

_AFFINITY_KEYWORDS: dict[str, str] = {
    "INT": INTEGER,
    "INTEGER": INTEGER,
    "BIGINT": INTEGER,
    "SMALLINT": INTEGER,
    "TINYINT": INTEGER,
    "SERIAL": INTEGER,
    "REAL": REAL,
    "FLOAT": REAL,
    "DOUBLE": REAL,
    "NUMERIC": NUMERIC,
    "DECIMAL": NUMERIC,
    "NUMBER": NUMERIC,
    "TEXT": TEXT,
    "CHAR": TEXT,
    "VARCHAR": TEXT,
    "VARCHAR2": TEXT,
    "CLOB": TEXT,
    "STRING": TEXT,
    "BLOB": BLOB,
    "BYTEA": BLOB,
    "BOOLEAN": BOOLEAN,
    "BOOL": BOOLEAN,
    "DATE": TEXT,
    "TIMESTAMP": TEXT,
}


def affinity_for(type_name: str) -> str:
    """Map a declared SQL type name to a storage affinity.

    Unknown type names get NUMERIC affinity (store-as-given), matching the
    forgiving behaviour of SQLite that made PerfTrack's schema portable.
    """
    base = type_name.split("(", 1)[0].strip().upper()
    # "DOUBLE PRECISION" and friends: look at the first word.
    first = base.split()[0] if base else ""
    return _AFFINITY_KEYWORDS.get(base, _AFFINITY_KEYWORDS.get(first, NUMERIC))


def coerce(value: Any, affinity: str) -> Any:
    """Coerce *value* toward *affinity*; raise DataError on impossible casts.

    ``None`` always passes through unchanged.
    """
    if value is None:
        return None
    if affinity == INTEGER:
        if isinstance(value, bool):
            return int(value)
        if isinstance(value, int):
            return value
        if isinstance(value, float):
            if value.is_integer():
                return int(value)
            return value  # keep fractional floats intact (sqlite-like)
        if isinstance(value, str):
            try:
                return int(value)
            except ValueError:
                try:
                    f = float(value)
                except ValueError:
                    raise DataError(
                        f"cannot store {value!r} in INTEGER column"
                    ) from None
                return int(f) if f.is_integer() else f
        raise DataError(f"cannot store {type(value).__name__} in INTEGER column")
    if affinity == REAL:
        if isinstance(value, bool):
            return float(value)
        if isinstance(value, (int, float)):
            return float(value)
        if isinstance(value, str):
            try:
                return float(value)
            except ValueError:
                raise DataError(f"cannot store {value!r} in REAL column") from None
        raise DataError(f"cannot store {type(value).__name__} in REAL column")
    if affinity == TEXT:
        if isinstance(value, str):
            return value
        if isinstance(value, bool):
            return "1" if value else "0"
        if isinstance(value, (int, float)):
            return str(value)
        if isinstance(value, bytes):
            return value.decode("utf-8", "replace")
        raise DataError(f"cannot store {type(value).__name__} in TEXT column")
    if affinity == BOOLEAN:
        if isinstance(value, bool):
            return value
        if isinstance(value, int):
            return bool(value)
        if isinstance(value, str):
            low = value.strip().lower()
            if low in ("t", "true", "1", "yes", "on"):
                return True
            if low in ("f", "false", "0", "no", "off"):
                return False
            raise DataError(f"cannot store {value!r} in BOOLEAN column")
        raise DataError(f"cannot store {type(value).__name__} in BOOLEAN column")
    if affinity == BLOB:
        if isinstance(value, (bytes, bytearray, memoryview)):
            return bytes(value)
        if isinstance(value, str):
            return value.encode("utf-8")
        raise DataError(f"cannot store {type(value).__name__} in BLOB column")
    # NUMERIC: numbers stay numbers, numeric-looking strings become numbers.
    if isinstance(value, (bool, int, float, bytes)):
        return value
    if isinstance(value, str):
        try:
            return int(value)
        except ValueError:
            try:
                return float(value)
            except ValueError:
                return value
    return value


#: Sort-ordering rank per cross-type class.  Mirrors SQLite's ordering:
#: NULL < numbers < text < blobs.  Booleans sort with numbers.
def sort_key(value: Any) -> tuple[int, Any]:
    """Total-order key usable across mixed-type columns."""
    if value is None:
        return (0, 0)
    if isinstance(value, (bool, int, float)):
        # Python compares and hashes int/float exactly (1 == 1.0, but
        # 2**53 + 1 != 2**53), so numbers need no float() normalisation.
        return (1, value)
    if isinstance(value, str):
        return (2, value)
    if isinstance(value, bytes):
        return (3, value)
    return (4, repr(value))


def compare(a: Any, b: Any) -> int | None:
    """Three-way SQL comparison; returns None when either side is NULL."""
    if a is None or b is None:
        return None
    ka, kb = sort_key(a), sort_key(b)
    if ka < kb:
        return -1
    if ka > kb:
        return 1
    return 0


def values_equal(a: Any, b: Any) -> bool | None:
    """SQL equality with NULL propagation."""
    c = compare(a, b)
    return None if c is None else c == 0
