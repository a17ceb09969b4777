"""Compiler front end equivalence: byte-identical output, identical ASTs.

The tokenizer, the expression parser and the assembler are tuned for
speed; their output must not move.  Two references pin them:

* the original tokenizer (one anchored ``match`` per token, kept verbatim
  as :func:`reference_tokenize`) and the original recursive-descent
  ``_binary`` (one recursion level per precedence level, kept verbatim in
  :class:`ReferenceParser`) must give the same tokens and ASTs as the
  production front end;
* the compiled programs (assembly text, instruction words, data image,
  symbols, entry point) must hash to the digests recorded from the
  compiler before the rewrite.

Corpora: the paper's six benchmarks (full and small) and two fresh-program
epochs, each compiled for the paper and the minimal configuration.
"""

from __future__ import annotations

import hashlib
import re
from typing import List

import pytest

from repro.apps import build_suite
from repro.compiler import compile_source, tokenize
from repro.compiler.ast_nodes import BinaryOp, Expr
from repro.compiler.errors import LexerError
from repro.compiler.lexer import KEYWORDS, Token, _OPERATORS
from repro.compiler.parser import Parser
from repro.microblaze import MINIMAL_CONFIG, PAPER_CONFIG

_REFERENCE_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<comment>//[^\n]*|/\*.*?\*/)
  | (?P<number>0[xX][0-9a-fA-F]+|\d+)
  | (?P<ident>[A-Za-z_]\w*)
  | (?P<op>""" + "|".join(re.escape(op) for op in _OPERATORS) + r""")
    """,
    re.VERBOSE | re.DOTALL,
)


def reference_tokenize(source: str) -> List[Token]:
    """The original tokenizer."""
    tokens: List[Token] = []
    position = 0
    line = 1
    length = len(source)
    while position < length:
        match = _REFERENCE_TOKEN_RE.match(source, position)
        if match is None:
            snippet = source[position:position + 10]
            raise LexerError(f"unexpected character sequence {snippet!r}", line)
        text = match.group(0)
        line += text.count("\n")
        position = match.end()
        if match.lastgroup in ("ws", "comment"):
            continue
        token_line = line - text.count("\n")
        if match.lastgroup == "number":
            value = int(text, 0)
            tokens.append(Token("number", text, token_line, value))
        elif match.lastgroup == "ident":
            kind = "keyword" if text in KEYWORDS else "ident"
            tokens.append(Token(kind, text, token_line))
        else:
            tokens.append(Token("op", text, token_line))
    tokens.append(Token("eof", "", line))
    return tokens


#: Binary operator precedence levels, lowest binding first.
_REFERENCE_BINARY_LEVELS = [
    ["||"],
    ["&&"],
    ["|"],
    ["^"],
    ["&"],
    ["==", "!="],
    ["<", "<=", ">", ">="],
    ["<<", ">>"],
    ["+", "-"],
    ["*", "/", "%"],
]


class ReferenceParser(Parser):
    """The parser with the original one-level-per-call ``_binary``."""

    def _binary(self, level: int) -> Expr:
        if level >= len(_REFERENCE_BINARY_LEVELS):
            return self._unary()
        left = self._binary(level + 1)
        while self.current.kind == "op" \
                and self.current.text in _REFERENCE_BINARY_LEVELS[level]:
            op = self.advance()
            right = self._binary(level + 1)
            left = BinaryOp(line=op.line, op=op.text, left=left, right=right)
        return left


def _fields(tokens):
    return [(t.kind, t.text, t.line, t.value) for t in tokens]


def _corpus_digest(sources, config) -> str:
    """One SHA-256 over every compiled program of a corpus: its assembly,
    instruction words, data image, symbols and entry point."""
    digest = hashlib.sha256()
    for index, source in enumerate(sources):
        result = compile_source(source, name=f"p{index}", config=config)
        program = result.program
        digest.update(result.assembly.encode())
        digest.update(b"".join(word.to_bytes(4, "little")
                               for word in program.text))
        digest.update(bytes(program.data))
        for name, symbol in sorted(program.symbols.items()):
            digest.update(f"{name}={symbol.address}:{symbol.section};"
                          .encode())
        digest.update(f"entry={program.entry_point};"
                      f"size={program.data_size}".encode())
    return digest.hexdigest()


def _corpora(fresh_epochs):
    return {
        "suite": [bench.source for bench in build_suite()],
        "suite-small": [bench.source for bench in build_suite(small=True)],
        "fresh-1": [bench.source for bench in fresh_epochs[0]],
        "fresh-2": [bench.source for bench in fresh_epochs[1]],
    }


#: ``(corpus, configuration) -> digest`` recorded from the compiler before
#: the tokenizer, parser and assembler were rewritten.
RECORDED_DIGESTS = {
    ("suite", "paper"):
        "e419abb6bb21212917fb6f3b42e0955da034d93b83a1508fc49b298d227577cb",
    ("suite", "minimal"):
        "0af419e07e76f4dbda8b188da384d71eb0dfcd7887f83ba5dae35db4988b8e5e",
    ("suite-small", "paper"):
        "4ee0accb385bb4170fbb65bb2b883a1fae2754e2ea59af370ce4087eae0957e2",
    ("suite-small", "minimal"):
        "6bb1da0e1affc291edf17dbedf8d77eb686797d0fce41c64ba68a5b614353133",
    ("fresh-1", "paper"):
        "c19c4ca7d7c33647af498b1149be23d8c68c4ef3a9b89147e819232f5c0a5d1f",
    ("fresh-1", "minimal"):
        "07d1d4d2400063d5c926c8c32b95306cbf8cf7056a6605567c65cc8679dc062f",
    ("fresh-2", "paper"):
        "5fe245a5ef582ee065988417a776160807a5174b07766b63308f2a8e9c5c2e0b",
    ("fresh-2", "minimal"):
        "aa387ad9598074d7bd8281d855eb5c5ae0ac8a525d0d66730d057432b313751c",
}

CONFIGS = {"paper": PAPER_CONFIG, "minimal": MINIMAL_CONFIG}


@pytest.fixture(scope="module")
def corpora(fresh_epochs):
    return _corpora(fresh_epochs)


@pytest.mark.parametrize("corpus,label", sorted(RECORDED_DIGESTS))
def test_compiled_output_is_byte_identical(corpora, corpus, label):
    assert _corpus_digest(corpora[corpus], CONFIGS[label]) \
        == RECORDED_DIGESTS[(corpus, label)]


@pytest.mark.parametrize("corpus", ["suite", "suite-small", "fresh-1",
                                    "fresh-2"])
def test_tokens_and_ast_match_the_reference(corpora, corpus):
    for source in corpora[corpus]:
        tokens = tokenize(source)
        assert _fields(tokens) == _fields(reference_tokenize(source))
        assert Parser(tokenize(source)).parse() \
            == ReferenceParser(reference_tokenize(source)).parse()


EXPRESSIONS = [
    "a - b - c", "a / b * c % d", "a << b >> c", "a < b == c > d",
    "a || b && c | d ^ e & f == g < h << i + j * k",
    "a * b + c * d - e / f", "-a * ~b + !c", "(a + b) * (c - d)",
    "a + -b", "+a - +b", "f(a + b, c * d) & g[h | i]", "a != b != c",
    "a & b & c | d | e ^ f ^ g", "a <= b >= c < d > e",
    "((a))", "x[i + 1] * y[i - 1] + z[(i << 2) >> 1]",
]


@pytest.mark.parametrize("expression", EXPRESSIONS)
def test_expression_ast_matches_the_reference(expression):
    source = f"int main() {{ return {expression}; }}"
    assert Parser(tokenize(source)).parse() \
        == ReferenceParser(reference_tokenize(source)).parse()


LEXER_EDGES = [
    "int x = 0x1F; // comment\n x = x + 2;",
    "a/*multi\nline*/b\n\n/* two */ c",
    "/* unterminated",
    "x = 1 // comment at end",
    "int\tx\r\n=\f3;",
    "a<<=b>>c<=d>=e==f!=g&&h||i",
    "",
    "\n\n\n",
]


@pytest.mark.parametrize("source", LEXER_EDGES)
def test_tokens_match_the_reference_on_edges(source):
    assert _fields(tokenize(source)) == _fields(reference_tokenize(source))


@pytest.mark.parametrize("source", ["int x = @;", "a\n\nb $ c",
                                    "x = 'c';", "\n#include"])
def test_lexer_errors_match_the_reference(source):
    with pytest.raises(LexerError) as expected:
        reference_tokenize(source)
    with pytest.raises(LexerError) as actual:
        tokenize(source)
    assert str(actual.value) == str(expected.value)
