"""Tokenizer for the SPJGA SQL dialect.

Produces a flat token stream for the recursive-descent parser.  Keywords
are case-insensitive; identifiers keep their original spelling but compare
case-insensitively during binding.  One compiled master pattern does the
lexing: each alternative is one token kind, tried in order at the current
position, and the catch-all ``bad`` alternative turns any character no
other kind accepts into a :class:`ParseError` at its position.
"""

from __future__ import annotations

import enum
import re
from typing import Iterator, NamedTuple, Tuple

from ..errors import ParseError

KEYWORDS = {
    "SELECT", "FROM", "WHERE", "GROUP", "ORDER", "BY", "AS", "AND", "OR",
    "NOT", "BETWEEN", "IN", "LIKE", "ASC", "DESC", "LIMIT", "COUNT", "SUM",
    "AVG", "MIN", "MAX", "DISTINCT", "NULL",
}


class TokenType(enum.Enum):
    KEYWORD = "keyword"
    IDENT = "ident"
    NUMBER = "number"
    STRING = "string"
    OPERATOR = "operator"
    COMMA = "comma"
    LPAREN = "lparen"
    RPAREN = "rparen"
    DOT = "dot"
    STAR = "star"
    EOF = "eof"


class Token(NamedTuple):
    """One lexical token with its source position (for error messages)."""

    type: TokenType
    value: str
    position: int

    def is_keyword(self, *names: str) -> bool:
        return self.type == TokenType.KEYWORD and self.value in names


#: The master pattern: one match per token, skipping the whitespace,
#: ``--`` line comments and ``;`` before it.  A string runs to the first
#: quote not followed by another (``''`` is an escaped quote inside it).
#: Group names are :class:`TokenType` values where the kind maps one to
#: one; ``\Z`` ends the text after trailing whitespace with no token.
_TOKEN = re.compile(r"""
    (?:\s+|--[^\n]*\n?|;)*
    (?:(?P<string>'(?:[^']|'')*'(?!'))
      | (?P<number>\d+(?:\.\d*)?|\.\d+)
      | (?P<word>[^\W\d]\w*)
      | (?P<operator><>|!=|[<>]=?|[=+\-/%])
      | (?P<comma>,) | (?P<lparen>\() | (?P<rparen>\)) | (?P<dot>\.)
      | (?P<star>\*)
      | (?P<bad>.)
      | \Z)
""", re.VERBOSE | re.DOTALL)

_TYPES = {kind.value: kind for kind in TokenType}


def lex(sql: str) -> Iterator[Tuple[TokenType, str, int]]:
    """The tokens of *sql* as ``(type, value, position)`` triples, no EOF
    (:func:`tokenize` and the parser's statement shapes both read them)."""
    for match in _TOKEN.finditer(sql):
        kind = match.lastgroup
        if kind is None:  # trailing whitespace or comments
            continue
        text = match[kind]
        position = match.start(kind)
        if kind == "word":
            upper = text.upper()
            if upper in KEYWORDS:
                yield TokenType.KEYWORD, upper, position
            else:
                yield TokenType.IDENT, text, position
        elif kind == "string":
            yield TokenType.STRING, text[1:-1].replace("''", "'"), position
        elif kind == "bad":
            if text == "'":
                raise ParseError("unterminated string literal", position)
            raise ParseError(f"unexpected character {text!r}", position)
        else:
            yield _TYPES[kind], "<>" if text == "!=" else text, position


def tokenize(sql: str) -> list[Token]:
    """Convert *sql* into a token list ending with an EOF token."""
    tokens = list(map(Token._make, lex(sql)))
    tokens.append(Token(TokenType.EOF, "", len(sql)))
    return tokens
