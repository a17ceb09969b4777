"""Lexical analysis for the kernel language.

The kernel language ("Kernel-C") is the small C subset in which the
Powerstone / EEMBC-style benchmark kernels of :mod:`repro.apps` are
written.  The lexer produces a flat list of :class:`Token` objects; all the
syntax the parser understands is built from the token kinds defined here.
"""

from __future__ import annotations

import re
from typing import List, NamedTuple

from .errors import LexerError

#: Reserved words of the kernel language.
KEYWORDS = frozenset({
    "int", "void", "if", "else", "while", "for", "return", "do", "break", "continue",
})

#: Multi-character operators, longest first so that the scanner is greedy.
_OPERATORS = [
    "<<", ">>", "<=", ">=", "==", "!=", "&&", "||",
    "+", "-", "*", "/", "%", "&", "|", "^", "~", "!", "<", ">", "=",
    "(", ")", "{", "}", "[", "]", ",", ";",
]

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<comment>//[^\n]*|/\*.*?\*/)
  | (?P<number>0[xX][0-9a-fA-F]+|\d+)
  | (?P<ident>[A-Za-z_]\w*)
  | (?P<op>""" + "|".join(re.escape(op) for op in _OPERATORS) + r""")
  | (?P<error>.)
    """,
    re.VERBOSE | re.DOTALL,
)


class Token(NamedTuple):
    """One lexical token.

    ``kind`` is one of ``"number"``, ``"ident"``, ``"keyword"``, ``"op"`` or
    ``"eof"``; ``text`` is the matched source text and ``value`` the numeric
    value for number tokens.
    """

    kind: str
    text: str
    line: int
    value: int = 0

    def is_op(self, text: str) -> bool:
        return self.kind == "op" and self.text == text

    def is_keyword(self, text: str) -> bool:
        return self.kind == "keyword" and self.text == text

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"Token({self.kind}, {self.text!r}, line {self.line})"


def tokenize(source: str) -> List[Token]:
    """Tokenize ``source`` into a list of tokens terminated by an EOF token.

    One ``finditer`` pass: every character belongs to some match (a
    character no token can start with matches ``error``), and only
    whitespace and comments can span lines.
    """
    tokens: List[Token] = []
    append = tokens.append
    line = 1
    for match in _TOKEN_RE.finditer(source):
        kind = match.lastgroup
        text = match.group()
        if kind == "ws" or kind == "comment":
            line += text.count("\n")
        elif kind == "op":
            append(Token("op", text, line))
        elif kind == "ident":
            append(Token("keyword" if text in KEYWORDS else "ident", text, line))
        elif kind == "number":
            append(Token("number", text, line, int(text, 0)))
        else:
            start = match.start()
            snippet = source[start:start + 10]
            raise LexerError(f"unexpected character sequence {snippet!r}", line)
    append(Token("eof", "", line))
    return tokens
