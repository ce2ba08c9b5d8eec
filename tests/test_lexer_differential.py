"""Differential properties: the regex lexer against the char-loop oracle.

``tokenize`` keeps no token inside a body: a brace block opened at
parenthesis depth 0 that no type keyword announced. The first property
applies that rule, written out again below over whole tokens, to the
oracle's full token stream; the result must agree with ``tokenize`` on
every token's kind, text, line and offsets, and the diagnostics must
agree exactly. The second property is the parser's side of the rule: it
never reads inside such a block, so parsing the oracle's full tokens and
parsing ``tokenize``'s gives the same declarations and diagnostics.

Texts exclude the two inputs the regex lexer changed on purpose: Java
text blocks (``\"\"\"``) and a leading byte-order mark.
"""

from __future__ import annotations

import re
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import reference_lexer
from aometrics.lexer import TokenKind, tokenize
from aometrics.parser import parse_source, parse_unit
from helpers import MINI_UAS, REPO_ROOT, TEST_FIXTURES

# Fragments that exercise every rule, plus the known traps: non-ASCII
# letters, Unicode whitespace, numerics that ``\d``/``\w`` and the ``str``
# predicates classify differently (superscript two is ``isdigit`` but not
# ``\d``; one half is ``\w`` but not ``isalpha``), quotes, escapes and
# comment delimiters. The declaration words and heads give the parser
# members, initializers and pointcuts to work on.
_FRAGMENTS = [
    "class", "aspect", "pointcut", "A", "x", "_", "$", "é", "1", "0.5", ".",
    " ", "\t", "\n", "\r", "\x0b", "\x1c", "\xa0", "\u2028", "\ufeff",
    "²", "½", "\\", '"', "'", "/*", "//", "*/", "*", "/", "\\\n",
    "{", "}", "(", ")", ";", ",", ":", "::", "&&", "||", "!", "<<", ">>=",
    "->", "-", "=", "+", "@", "[", "]", "#",
    "interface", "enum", "void", "int", "new", "abstract", "throws",
    "before", "after", "around", "declare", "returning", "<", ">", ">>",
    "class A {", "void f() {", "int x = ", "int a, b", "pointcut p(): ",
    "before(): p() {", "call(* *(..))", "new B() {", "static {", "} ",
]

_texts = st.one_of(
    st.lists(st.sampled_from(_FRAGMENTS), max_size=40).map("".join),
    st.text(alphabet="".join(sorted(set("".join(_FRAGMENTS)))), max_size=60),
).filter(lambda t: '"""' not in t and not t.startswith("\ufeff"))

_TYPE_WORDS = {"class", "interface", "enum", "aspect"}


def _elide_bodies(tokens):
    """Drop every token inside a body, keeping its outer braces.

    Track the parenthesis depth (clamped at 0) and whether a type keyword
    awaits its body; a ';' or '{' at depth 0 ends the wait, and a '{' at
    depth 0 with no wait opens a body.
    """
    kept = []
    depth = 0
    awaiting_type_body = False
    i = 0
    while i < len(tokens):
        tok = tokens[i]
        kept.append(tok)
        i += 1
        if tok.kind is TokenKind.KEYWORD and tok.text in _TYPE_WORDS:
            awaiting_type_body = True
        elif tok.kind is TokenKind.PAREN_OPEN:
            depth += 1
        elif tok.kind is TokenKind.PAREN_CLOSE:
            depth = max(0, depth - 1)
        elif depth == 0 and tok.kind is TokenKind.SEMICOLON:
            awaiting_type_body = False
        elif depth == 0 and tok.kind is TokenKind.BRACE_OPEN:
            if awaiting_type_body:
                awaiting_type_body = False
                continue
            nesting = 1
            while tokens[i].kind is not TokenKind.END:
                inner = tokens[i]
                i += 1
                if inner.kind is TokenKind.BRACE_OPEN:
                    nesting += 1
                elif inner.kind is TokenKind.BRACE_CLOSE:
                    nesting -= 1
                    if nesting == 0:
                        kept.append(inner)
                        break
    return kept


def _observed(tokens, diagnostics):
    return (
        [(t.kind, t.text, t.line, t.start, t.end) for t in tokens],
        [str(d) for d in diagnostics],
    )


@settings(max_examples=1000, deadline=None)
@given(_texts)
@example('class A { String s = "abc\\')  # trailing backslash, unterminated
@example('a "x\\\ny" b\nc')  # backslash-newline inside a closed literal
@example("'q\\\n\nr")  # ... and inside an unterminated one
@example("x²y ²z 1.² ½w v½ 3.5f")
@example("é\xa0\u2028\x1c\x0bb /* a\n*/ c // d\n e")
@example("a /*/ b */ c /* open\n\n")
@example("class A { void f() {\n  x = 1;\n  y(\"{\\\n\");\n}\n int z; }")  # newlines in runs
@example("class A { void f() { 'x\n /* }\n")  # diagnostics inside an unclosed body
@example("f(class) { a } g() { b } class B extends C { c }")
def test_regex_lexer_matches_char_loop_oracle(text):
    full, full_diagnostics = reference_lexer.tokenize(text, file="F.java")
    assert _observed(*tokenize(text, file="F.java")) == _observed(
        _elide_bodies(full), full_diagnostics
    )


def _declarations(unit):
    return unit.classes, unit.aspects, [str(d) for d in unit.parse_diagnostics]


def _parsed_from_full_tokens(text: str, file: str):
    tokens, diagnostics = reference_lexer.tokenize(text, file=file)
    return _declarations(parse_unit(tokens, file, text, lex_diagnostics=diagnostics))


@settings(max_examples=1000, deadline=None)
@given(_texts)
@example("class A { int x = { ( } ; int y; }")  # initializer holding a body
@example("class A { int a, b { c; d } int e; }")  # body after a later declarator
@example("aspect A { pointcut p(): a()) { ( } ; int y; }")  # body past a stray ')'
@example("class A { int x = a[ { ( } ]; int y; }")  # body inside brackets
@example("aspect A { before(): a() { ( } int y; }")
def test_parser_never_reads_inside_a_body(text):
    assert _declarations(parse_source(text, "F.java")) == _parsed_from_full_tokens(
        text, "F.java"
    )


# The oracle predates byte-order marks and text blocks. Both fixture
# files that hold one are compared with the mark blanked out and each text
# block blanked out but for its newlines; offsets and lines are unchanged.
_TEXT_BLOCK = re.compile(r'"""[ \t\f]*\r?\n[\s\S]*?"""')


def _blank_for_oracle(text: str) -> str:
    if text.startswith("\ufeff"):
        text = " " + text[1:]
    return _TEXT_BLOCK.sub(lambda m: re.sub(r"[^\n]", " ", m.group()), text)


_FIXTURE_FILES = sorted(
    p for root in (MINI_UAS, TEST_FIXTURES) for p in root.rglob("*") if p.suffix in (".java", ".aj")
)


@pytest.mark.parametrize("path", _FIXTURE_FILES, ids=lambda p: p.relative_to(REPO_ROOT).as_posix())
def test_parser_never_reads_inside_a_body_on_fixtures(path: Path):
    text = path.read_text(encoding="utf-8", errors="replace")
    tokens, diagnostics = reference_lexer.tokenize(_blank_for_oracle(text), file="F.java")
    full = _declarations(parse_unit(tokens, "F.java", text, lex_diagnostics=diagnostics))
    assert _declarations(parse_source(text, "F.java")) == full
