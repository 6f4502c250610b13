"""SQL tokenizer for minidb.

Produces a flat list of :class:`Token` objects.  The lexer understands:

* keywords and identifiers (optionally ``"quoted"`` or ``[bracketed]``),
* integer/float literals, ``'string'`` literals with ``''`` escapes,
* hex blob literals ``x'ABCD'``,
* operators (including multi-char ``<=``, ``>=``, ``<>``, ``!=``, ``||``),
* positional parameters ``?`` and pyformat ``%s`` (both map to qmark), and
* ``--`` line comments and ``/* */`` block comments.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import SqlSyntaxError

# Token kinds.
KEYWORD = "KEYWORD"
IDENT = "IDENT"
NUMBER = "NUMBER"
STRING = "STRING"
BLOBLIT = "BLOB"
OP = "OP"
PARAM = "PARAM"
EOF = "EOF"

KEYWORDS = frozenset(
    """
    ALL ANALYZE AND AS ASC AUTOINCREMENT BEGIN BETWEEN BY CASE CASCADE CAST CHECK COMMIT
    CONSTRAINT CREATE CROSS DEFAULT DELETE DESC DISTINCT DROP ELSE END ESCAPE
    EXISTS EXPLAIN FALSE FOREIGN FROM FULL GLOB GROUP HAVING IF IN INDEX INNER
    INSERT INTO IS JOIN KEY LEFT LIKE LIMIT NOT NULL OFFSET ON OR ORDER OUTER
    PRIMARY REFERENCES RIGHT ROLLBACK SELECT SET TABLE THEN TRANSACTION TRUE
    UNION UNIQUE UPDATE VALUES WHEN WHERE
    """.split()
)

_OPERATORS = (
    "<=",
    ">=",
    "<>",
    "!=",
    "||",
    "==",
    "(",
    ")",
    ",",
    ".",
    "*",
    "/",
    "%",
    "+",
    "-",
    "=",
    "<",
    ">",
    ";",
)


@dataclass(frozen=True)
class Token:
    kind: str
    value: str
    pos: int

    def matches(self, kind: str, value: str | None = None) -> bool:
        if self.kind != kind:
            return False
        return value is None or self.value == value


def tokenize(sql: str) -> list[Token]:
    """Tokenize *sql*; raises :class:`SqlSyntaxError` on malformed input."""
    tokens: list[Token] = []
    i = 0
    n = len(sql)
    while i < n:
        ch = sql[i]
        if ch in " \t\r\n":
            i += 1
            continue
        if ch == "-" and sql.startswith("--", i):
            nl = sql.find("\n", i)
            i = n if nl < 0 else nl + 1
            continue
        if ch == "/" and sql.startswith("/*", i):
            end = sql.find("*/", i + 2)
            if end < 0:
                raise SqlSyntaxError("unterminated block comment", sql, i)
            i = end + 2
            continue
        if ch == "?":
            tokens.append(Token(PARAM, "?", i))
            i += 1
            continue
        if ch in ",()":  # no longer operator starts with these
            tokens.append(Token(OP, ch, i))
            i += 1
            continue
        if ch == "%" and sql.startswith("%s", i):
            tokens.append(Token(PARAM, "?", i))
            i += 2
            continue
        if ch == "'":
            if tokens and tokens[-1].kind == IDENT and tokens[-1].value.lower() == "x":
                # could be a blob literal only when written as x'...' with no
                # space; we only treat it as such if adjacent.
                pass
            j = i + 1
            parts: list[str] = []
            while True:
                if j >= n:
                    raise SqlSyntaxError("unterminated string literal", sql, i)
                if sql[j] == "'":
                    if j + 1 < n and sql[j + 1] == "'":
                        parts.append("'")
                        j += 2
                        continue
                    break
                parts.append(sql[j])
                j += 1
            tokens.append(Token(STRING, "".join(parts), i))
            i = j + 1
            continue
        if ch in ('"', "`"):
            close = ch
            j = sql.find(close, i + 1)
            if j < 0:
                raise SqlSyntaxError("unterminated quoted identifier", sql, i)
            tokens.append(Token(IDENT, sql[i + 1 : j], i))
            i = j + 1
            continue
        if ch == "[":
            j = sql.find("]", i + 1)
            if j < 0:
                raise SqlSyntaxError("unterminated bracketed identifier", sql, i)
            tokens.append(Token(IDENT, sql[i + 1 : j], i))
            i = j + 1
            continue
        if ch.isdigit() or (ch == "." and i + 1 < n and sql[i + 1].isdigit()):
            j = i
            seen_dot = False
            seen_exp = False
            while j < n:
                c = sql[j]
                if c.isdigit():
                    j += 1
                elif c == "." and not seen_dot and not seen_exp:
                    seen_dot = True
                    j += 1
                elif c in "eE" and not seen_exp and j > i:
                    seen_exp = True
                    j += 1
                    if j < n and sql[j] in "+-":
                        j += 1
                else:
                    break
            tokens.append(Token(NUMBER, sql[i:j], i))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (sql[j].isalnum() or sql[j] in "_$"):
                j += 1
            word = sql[i:j]
            upper = word.upper()
            if upper == "X" and j < n and sql[j] == "'":
                end = sql.find("'", j + 1)
                if end < 0:
                    raise SqlSyntaxError("unterminated blob literal", sql, i)
                hexdigits = sql[j + 1 : end]
                try:
                    bytes.fromhex(hexdigits)
                except ValueError:
                    raise SqlSyntaxError("invalid blob literal", sql, i) from None
                tokens.append(Token(BLOBLIT, hexdigits, i))
                i = end + 1
                continue
            if upper in KEYWORDS:
                tokens.append(Token(KEYWORD, upper, i))
            else:
                tokens.append(Token(IDENT, word, i))
            i = j
            continue
        matched = False
        for op in _OPERATORS:
            if sql.startswith(op, i):
                tokens.append(Token(OP, "<>" if op == "!=" else ("=" if op == "==" else op), i))
                i += len(op)
                matched = True
                break
        if not matched:
            raise SqlSyntaxError(f"unexpected character {ch!r}", sql, i)
    tokens.append(Token(EOF, "", n))
    return tokens
