"""The PTdf tokenizer against a reference character loop, and record round trips.

``split_fields`` answers unquoted, comment-free lines with ``str.split``,
splits a line with no backslash and closed quotes at its quotes, and
walks the characters otherwise.  ``reference_split`` below is the plain
character loop every line used to take; all must agree on every line,
errors included.
"""

from typing import Optional

import pytest
from hypothesis import given, settings, strategies as st

from repro.ptdf.format import (
    ApplicationRec,
    ExecutionRec,
    PerfResultRec,
    PerfResultSeriesRec,
    ResourceAttributeRec,
    ResourceConstraintRec,
    ResourceRec,
    ResourceSet,
    ResourceTypeRec,
    render_record,
)
from repro.ptdf.parser import PTdfParseError, parse_string, split_fields


class ReferenceSplitError(ValueError):
    def __init__(self, col: Optional[int], field: Optional[int]) -> None:
        super().__init__(col, field)
        self.col = col
        self.field = field


def reference_split(line: str) -> list[str]:
    """The character loop: quotes, backslash escapes, # comments."""
    fields: list[str] = []
    buf: list[str] = []
    in_quotes = False
    in_field = False
    quote_col = 0
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
        raise ReferenceSplitError(quote_col, len(fields) + 1)
    if in_field:
        fields.append("".join(buf))
    return fields


# Whitespace str.isspace accepts beyond ASCII: no-break space, em space,
# ideographic space, NEL, line separator, and two ASCII control separators.
AWKWARD = ' \t\u00a0\u2003\u3000\u0085\u2028\x1f\x0b"\\#'
LINE_ALPHABET = st.sampled_from(list(AWKWARD + "ab/,:()é1."))


# Line pieces for the quote-split path: bare words, Unicode whitespace,
# '#', and quoted text (empty, or holding whitespace and '#').  A stray
# piece, a backslash or a lone quote, sends a line to the loop instead.
QUOTED_TEXT = st.text(alphabet=st.sampled_from(list(" \t\u00a0\u3000#aé")), max_size=5)
PIECE = st.one_of(
    st.text(alphabet=st.sampled_from(list("ab/é1")), min_size=1, max_size=4),
    st.sampled_from([" ", "\t", "\u00a0", "\u2003", "\u2028", "\x1f", "#", "# c"]),
    QUOTED_TEXT.map(lambda t: f'"{t}"'),
)
STRAY = st.sampled_from(['"', "\\", '\\"'])


def outcome(fn, line):
    try:
        return ("ok", fn(line))
    except ValueError as exc:
        return ("error", getattr(exc, "col", None), getattr(exc, "field", None))


class TestSplitFieldsMatchesReference:
    @settings(max_examples=600, deadline=None)
    @given(line=st.text(alphabet=LINE_ALPHABET, max_size=40))
    def test_awkward_lines(self, line):
        assert outcome(split_fields, line) == outcome(reference_split, line)

    @settings(max_examples=300, deadline=None)
    @given(line=st.text(max_size=40))
    def test_arbitrary_text(self, line):
        assert outcome(split_fields, line) == outcome(reference_split, line)

    @pytest.mark.parametrize(
        "line",
        [
            "a\u00a0b\u3000c",
            "a\tb \\ c",
            'a "b\\" c" d # e',
            'x "unterminated',
            "a # b",
            "#",
            "",
            '""',
        ],
    )
    def test_examples(self, line):
        assert outcome(split_fields, line) == outcome(reference_split, line)

    @settings(max_examples=600, deadline=None)
    @given(pieces=st.lists(PIECE, max_size=12))
    def test_quote_split_lines(self, pieces):
        line = "".join(pieces)
        assert outcome(split_fields, line) == outcome(reference_split, line)

    @settings(max_examples=300, deadline=None)
    @given(pieces=st.lists(PIECE | STRAY, max_size=12))
    def test_quote_split_lines_with_strays(self, pieces):
        line = "".join(pieces)
        assert outcome(split_fields, line) == outcome(reference_split, line)

    @pytest.mark.parametrize(
        "line",
        [
            'a"b c"d e',
            '"" "" x""y',
            '"a""b"',
            '  "x"  # "y',
            '"a"#b',
            'k "#" v#"',
            'a "b" "c\\" d"',
            '\u00a0"a\u2028b"\u3000c\u0085',
            'Resource "/a b" grid  # "/c d"',
        ],
    )
    def test_quote_split_examples(self, line):
        assert outcome(split_fields, line) == outcome(reference_split, line)

    def test_parse_error_keeps_column_and_field(self):
        with pytest.raises(PTdfParseError) as exc:
            parse_string('Application ok\nResource /a "b grid')
        assert (exc.value.lineno, exc.value.col, exc.value.field) == (2, 13, 3)


# Field text that forces quoting: whitespace of every kind, quotes,
# backslashes and '#'; never a newline (PTdf is line-based).
FIELD = st.text(
    alphabet=st.sampled_from(list(AWKWARD + "xyé")),
    min_size=1,
    max_size=12,
)
NAME = st.lists(st.sampled_from(["a", "b c", "d#e"]), min_size=1, max_size=3).map(
    lambda parts: "/" + "/".join(parts)
)
VALUE = st.floats(allow_nan=False, allow_infinity=False)
RESOURCE_SETS = st.lists(
    st.builds(
        ResourceSet,
        st.lists(st.sampled_from(["/a", "/a/b", "/c/d/e"]), min_size=1,
                 max_size=3, unique=True).map(tuple),
        st.sampled_from(["primary", "parent", "child", "sender", "receiver"]),
    ),
    min_size=1,
    max_size=2,
).map(tuple)

EVERY_KIND = st.one_of(
    st.builds(ApplicationRec, FIELD),
    st.builds(ResourceTypeRec, FIELD),
    st.builds(ExecutionRec, FIELD, FIELD),
    st.builds(ResourceRec, NAME, FIELD, st.none() | FIELD),
    st.builds(ResourceAttributeRec, NAME, FIELD, FIELD,
              st.sampled_from(["string", "resource"])),
    st.builds(PerfResultRec, FIELD, RESOURCE_SETS, FIELD, FIELD, VALUE, FIELD),
    st.builds(
        PerfResultSeriesRec, FIELD, RESOURCE_SETS, FIELD, FIELD, FIELD, VALUE,
        VALUE, st.lists(st.none() | VALUE, max_size=5).map(tuple),
    ),
    st.builds(ResourceConstraintRec, NAME, NAME),
)


class TestRecordRoundTrip:
    @settings(max_examples=400, deadline=None)
    @given(record=EVERY_KIND)
    def test_parse_render_parse(self, record):
        line = render_record(record)
        (parsed,) = parse_string(line)
        assert parsed == record
        assert render_record(parsed) == line
        assert parse_string(render_record(parsed)) == [parsed]

    @pytest.mark.parametrize(
        "record",
        [
            ApplicationRec("I R#S"),
            ResourceTypeRec("grid/machine"),
            ExecutionRec('run "1"', "IRS"),
            ResourceRec("/a b/c", "grid/machine"),
            ResourceRec("/run1", "execution", "run\\1"),
            ResourceAttributeRec("/a", "total\u3000nodes", "", "string"),
            PerfResultRec("run1", (ResourceSet(("/a", "/b")),), "t", "CPU time",
                          1e-300, "s"),
            PerfResultSeriesRec("run1", (ResourceSet(("/a",), "parent"),), "t",
                                "m", "s", 0.0, 0.5, (1.0, None, -2.5)),
            ResourceConstraintRec("/a", "/b #c"),
        ],
        ids=lambda r: type(r).__name__,
    )
    def test_every_kind(self, record):
        line = render_record(record)
        assert parse_string(line) == [record]
        assert render_record(parse_string(line)[0]) == line
