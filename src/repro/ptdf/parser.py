"""PTdf parser: text lines -> record objects.

Lines are whitespace-separated fields; fields containing whitespace are
double-quoted with backslash escapes.  ``#`` starts a comment (full-line
or trailing, when not inside quotes).  Blank lines are ignored.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional

from .format import (
    ApplicationRec,
    ExecutionRec,
    PerfResultRec,
    PerfResultSeriesRec,
    Record,
    ResourceSet,
    ResourceAttributeRec,
    ResourceConstraintRec,
    ResourceRec,
    ResourceTypeRec,
    parse_resource_set_field,
)


class PTdfParseError(ValueError):
    """A malformed PTdf line, with file/line (and column/field) context.

    ``col`` is the 1-based column of the offending character, when known
    (e.g. the opening quote of an unterminated quoted field); ``field`` is
    the 1-based index of the offending field, counting the record kind as
    field 1.  Both are ``None`` when the error concerns the whole line.
    """

    def __init__(
        self,
        message: str,
        source: str = "<string>",
        lineno: int = 0,
        col: Optional[int] = None,
        field: Optional[int] = None,
    ) -> None:
        where = f"{source}:{lineno}"
        if col is not None:
            where = f"{where}:{col}"
        text = f"{where}: {message}"
        if field is not None:
            text = f"{text} (field {field})"
        super().__init__(text)
        self.message = message
        self.source = source
        self.lineno = lineno
        self.col = col
        self.field = field


class _FieldError(ValueError):
    """Internal: a tokenise/record error that knows where on the line it is.

    ``_numbered_records`` promotes these to :class:`PTdfParseError`, preserving
    the column/field position alongside the file/line context.
    """

    def __init__(
        self, message: str, col: Optional[int] = None, field: Optional[int] = None
    ) -> None:
        super().__init__(message)
        self.col = col
        self.field = field


def split_fields(line: str) -> list[str]:
    """Tokenise one PTdf line honouring quotes, escapes and # comments.

    A line with no quote and no ``#`` splits exactly as ``str.split()``
    would (both break on ``str.isspace`` characters).  A line with no
    backslash whose quotes all close splits at its quotes
    (:func:`_split_quoted`); only lines with escapes or an unterminated
    quote walk the characters.
    """
    if '"' not in line and "#" not in line:
        return line.split()
    if "\\" not in line:
        parts = line.split('"')
        if len(parts) % 2:
            return _split_quoted(parts)
    return _split_chars(line)


def _split_quoted(parts: list[str]) -> list[str]:
    """The fields of a line given split at its (even number of) quotes.

    Even parts lie outside quotes: ``str.split()`` up to a ``#``.  Odd
    parts are quoted text, taken literally.  Pieces with no whitespace
    between them glue into one field, and a quoted part always makes
    one, empty or not.
    """
    fields: list[str] = []
    open_field: Optional[str] = None  # the field still being glued
    for i, part in enumerate(parts):
        if i % 2:
            open_field = part if open_field is None else open_field + part
            continue
        comment = part.find("#")
        if comment >= 0:
            part = part[:comment]
        if part[:1].isspace() and open_field is not None:
            fields.append(open_field)
            open_field = None
        words = part.split()
        if words:
            if open_field is not None:
                words[0] = open_field + words[0]
            open_field = None if part[-1].isspace() else words.pop()
            fields.extend(words)
        if comment >= 0:
            break
    if open_field is not None:
        fields.append(open_field)
    return fields


def _split_chars(line: str) -> list[str]:
    """:func:`split_fields` character by character: escapes and errors."""
    fields: list[str] = []
    buf: list[str] = []
    in_quotes = False
    in_field = False
    quote_col = 0  # 1-based column of the last opening quote
    i = 0
    n = len(line)
    while i < n:
        ch = line[i]
        if in_quotes:
            if ch == "\\" and i + 1 < n:
                buf.append(line[i + 1])
                i += 2
                continue
            if ch == '"':
                in_quotes = False
                i += 1
                continue
            buf.append(ch)
            i += 1
            continue
        if ch == '"':
            in_quotes = True
            in_field = True
            quote_col = i + 1
            i += 1
            continue
        if ch == "#":
            break
        if ch.isspace():
            if in_field:
                fields.append("".join(buf))
                buf = []
                in_field = False
            i += 1
            continue
        buf.append(ch)
        in_field = True
        i += 1
    if in_quotes:
        raise _FieldError(
            f"unterminated quoted field (quote opened at column {quote_col})",
            col=quote_col,
            field=len(fields) + 1,
        )
    if in_field:
        fields.append("".join(buf))
    return fields


def _parse_record(fields: list[str], memo: dict) -> Record:
    kind = fields[0]
    args = fields[1:]
    if kind == "Application":
        _need(args, 1, kind)
        return ApplicationRec(args[0])
    if kind == "ResourceType":
        _need(args, 1, kind)
        return ResourceTypeRec(args[0])
    if kind == "Execution":
        _need(args, 2, kind)
        return ExecutionRec(args[0], args[1])
    if kind == "Resource":
        if len(args) not in (2, 3):
            raise ValueError(f"Resource takes 2 or 3 fields, got {len(args)}")
        return ResourceRec(args[0], args[1], args[2] if len(args) == 3 else None)
    if kind == "ResourceAttribute":
        if len(args) not in (3, 4):
            raise ValueError(
                f"ResourceAttribute takes 3 or 4 fields, got {len(args)}"
            )
        attr_type = args[3] if len(args) == 4 else "string"
        return ResourceAttributeRec(args[0], args[1], args[2], attr_type)
    if kind == "PerfResult":
        _need(args, 6, kind)
        sets = _resource_sets(args[1], memo)
        try:
            value = float(args[4])
        except ValueError:
            raise _FieldError(
                f"bad PerfResult value {args[4]!r}", field=6
            ) from None
        return PerfResultRec(args[0], sets, args[2], args[3], value, args[5])
    if kind == "PerfResultSeries":
        _need(args, 8, kind)
        sets = _resource_sets(args[1], memo)
        try:
            start_time = float(args[5])
            bin_width = float(args[6])
        except ValueError:
            raise _FieldError("bad PerfResultSeries start/width", field=7) from None
        values: list = []
        for tok in args[7].split(","):
            tok = tok.strip()
            if not tok:
                continue
            if tok.lower() == "nan":
                values.append(None)
            else:
                try:
                    values.append(float(tok))
                except ValueError:
                    raise _FieldError(
                        f"bad PerfResultSeries value {tok!r}", field=9
                    ) from None
        return PerfResultSeriesRec(
            args[0], sets, args[2], args[3], args[4], start_time, bin_width,
            tuple(values),
        )
    if kind == "ResourceConstraint":
        _need(args, 2, kind)
        return ResourceConstraintRec(args[0], args[1])
    raise _FieldError(f"unknown PTdf record kind {kind!r}", field=1)


def _resource_sets(text: str, memo: dict) -> tuple[ResourceSet, ...]:
    """Parse a resourceSet field, pinning errors to field 3 of the line.

    *memo* maps field text to its parsed sets for one document: a focus
    repeats once per metric, and the sets are immutable, so repeats share
    one tuple.
    """
    sets = memo.get(text)
    if sets is None:
        try:
            sets = parse_resource_set_field(text)
        except ValueError as exc:
            raise _FieldError(str(exc), field=3) from None
        memo[text] = sets
    return sets


def _need(args: list[str], count: int, kind: str) -> None:
    if len(args) != count:
        raise ValueError(f"{kind} takes {count} fields, got {len(args)}")


def _numbered_records(
    lines: Iterable[str],
    source: str,
    errors: Optional[list[PTdfParseError]] = None,
) -> Iterator[tuple[int, Record]]:
    """The one tokenise -> record loop: yield ``(lineno, record)`` pairs.

    A malformed line raises :class:`PTdfParseError`, or, when *errors* is
    a list, is appended to it and skipped so the remaining lines are
    still parsed.
    """
    memo: dict[str, tuple[ResourceSet, ...]] = {}
    for lineno, raw in enumerate(lines, start=1):
        try:
            fields = split_fields(raw)
            if not fields:
                continue
            record = _parse_record(fields, memo)
        except ValueError as exc:
            error = PTdfParseError(
                str(exc), source, lineno,
                col=getattr(exc, "col", None), field=getattr(exc, "field", None),
            )
            if errors is None:
                raise error from None
            errors.append(error)
            continue
        yield lineno, record


@dataclass
class ParsedDocument:
    """A whole PTdf document: its records, their line numbers, its errors.

    This is what a load reads a file into, once: the lint gate checks
    ``zip(linenos, records)`` and the loader applies ``records``.
    """

    source: str
    records: list[Record]
    linenos: list[int]
    errors: list[PTdfParseError]


def parse_document(lines: Iterable[str], source: str = "<string>") -> ParsedDocument:
    """Parse every line of a document, collecting (not raising) errors."""
    doc = ParsedDocument(source, [], [], [])
    for lineno, record in _numbered_records(lines, source, doc.errors):
        doc.linenos.append(lineno)
        doc.records.append(record)
    return doc


def parse_document_file(path: str) -> ParsedDocument:
    """Parse one PTdf file from disk into a :class:`ParsedDocument`."""
    with open(path, "r", encoding="utf-8") as fh:
        return parse_document(fh, source=os.fspath(path))


def parse_lines(lines: Iterable[str], source: str = "<string>") -> Iterator[Record]:
    """Parse an iterable of PTdf lines, yielding records lazily."""
    for _, record in _numbered_records(lines, source):
        yield record


def parse_string(text: str, source: str = "<string>") -> list[Record]:
    """Parse a PTdf document held in a string."""
    return list(parse_lines(text.split("\n"), source))


def parse_file(path: str) -> list[Record]:
    """Parse one PTdf file from disk."""
    with open(path, "r", encoding="utf-8") as fh:
        return list(parse_lines(fh, source=os.fspath(path)))
