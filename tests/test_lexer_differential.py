"""Differential properties: the regex lexer against the char-loop oracle.

``tokenize`` keeps the tokens of a brace block opened at parenthesis
depth 0 when no kept block is open, or when a type keyword not glued to a
'.' before it has come since the last '{' or ';' at depth 0, and no token
inside a body: any other brace block opened at depth 0. It also makes one
DESIGNATOR token of each pattern designator read in expression mode. The first property applies
both rules, written out again below over whole tokens, to the oracle's
full token stream; the result must agree with ``tokenize`` on every
token's kind, text, line and offsets, and the diagnostics must agree
exactly. The second property is the parser's side of the rule: it never
reads inside a body the lexer elides, so parsing the oracle's full tokens
and parsing ``tokenize``'s gives the same declarations and diagnostics.

Texts exclude the two inputs the regex lexer changed on purpose: Java
text blocks (``\"\"\"``) and a leading byte-order mark. Where an example
holds a closed text block, the oracle reads it blanked out but for its
newlines (see ``_blank_for_oracle``).
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
# members, initializers and pointcuts to work on; the designators, some
# glued to a '.' or '@', nested too deep or holding a type keyword, give
# expression mode its edges.
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
    "?", "within(A)", "get(int[] x)", "set(", "this(class)", "args(a, b)",
    "call(a(b(c(d))))", "X.", "declare warning: ",
]

_texts = st.one_of(
    st.lists(st.sampled_from(_FRAGMENTS), max_size=40).map("".join),
    st.text(alphabet="".join(sorted(set("".join(_FRAGMENTS)))), max_size=60),
).filter(lambda t: '"""' not in t and not t.startswith("\ufeff"))

_PATTERN_WORDS = {
    "call", "execution", "get", "set", "handler", "within", "withincode", "this",
    "target", "args", "initialization", "preinitialization", "staticinitialization",
}


def _designator_end(tokens, i, source):
    """Index past the pattern designator at ``tokens[i]``, or None if there is none.

    The word is a pattern word, the character before it is not '.' or
    '@', and '(' follows it with no gap. The source from the word through
    the matching ')' holds no newline, quote, '/', ';' or brace, no square
    bracket outside an adjacent '[]' pair, and at most three levels of
    parentheses.
    """
    kind, word, _, start, end = tokens[i]
    if kind not in (TokenKind.IDENTIFIER, TokenKind.KEYWORD) or word not in _PATTERN_WORDS:
        return None
    if source[start - 1 : start] in (".", "@") or tokens[i + 1][1:4:2] != ("(", end):
        return None
    depth = 0
    for j in range(i + 1, len(tokens)):
        kind = tokens[j][0]
        if kind is TokenKind.PAREN_OPEN:
            depth += 1
            if depth > 3:
                return None
        elif kind is TokenKind.PAREN_CLOSE:
            depth -= 1
            if depth == 0:
                text = source[start : tokens[j][4]]
                if any(ch in text for ch in "\n\"'/;{}"):
                    return None
                if "[" in text.replace("[]", "") or "]" in text.replace("[]", ""):
                    return None
                return j + 1
    return None


def _apply_tokenize_rules(tokens, source):
    """Drop every token inside a body, keeping its outer braces, and join designators.

    Track the parenthesis depth (clamped at 0), a count of the kept brace
    blocks open at depth 0, and a flag: a type keyword sets it unless a '.'
    comes right before it (``X.class``), and a '{' or ';' at depth 0
    clears it. A '{' at depth 0 opens a kept block if
    none is open or the flag is set, and a body otherwise; a '}' at depth
    0 closes a kept block, if one is open.

    A ':' at depth 0 inside a kept block opens expression
    mode, and the next ',', ';', '{' or '}' at any depth closes it. In that mode, the tokens of each pattern
    designator (see ``_designator_end``) become one DESIGNATOR token with
    the word's line.
    """
    kept = []
    depth = 0
    open_blocks = 0
    typed = False
    expression = False
    i = 0
    while i < len(tokens):
        tok = tokens[i]
        kind, text, line, start, _ = tok
        after = _designator_end(tokens, i, source) if expression else None
        if after is not None:
            end = tokens[after - 1][4]
            kept.append((TokenKind.DESIGNATOR, source[start:end], line, start, end))
            i = after
            continue
        kept.append(tok)
        i += 1
        if expression and (text == "," or text in (";", "{", "}")):
            expression = False
        elif text == ":" and depth == 0 and open_blocks:
            expression = True
        if kind is TokenKind.KEYWORD and text in ("class", "interface", "enum", "aspect"):
            typed = typed or source[start - 1] != "."
        elif kind is TokenKind.PAREN_OPEN:
            depth += 1
        elif kind is TokenKind.PAREN_CLOSE:
            depth = max(0, depth - 1)
        elif depth == 0 and kind is TokenKind.BRACE_CLOSE:
            open_blocks = max(0, open_blocks - 1)
        elif depth == 0 and kind is TokenKind.SEMICOLON:
            typed = False
        elif depth == 0 and kind is TokenKind.BRACE_OPEN:
            if not open_blocks or typed:
                open_blocks += 1
                typed = False
                continue
            nesting = 1
            while tokens[i][0] is not TokenKind.END:
                inner = tokens[i]
                i += 1
                if inner[0] is TokenKind.BRACE_OPEN:
                    nesting += 1
                elif inner[0] is TokenKind.BRACE_CLOSE:
                    nesting -= 1
                    if nesting == 0:
                        kept.append(inner)
                        break
    return kept


def _observed(tokens, diagnostics):
    return (
        [(kind, text, line, start, end) for kind, text, line, start, end in tokens],
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
# Inside a body one match passes over everything up to the next brace or
# event, so every form that holds or hides a brace, or starts like one
# that does, must be passed over whole or stop the match.
@example("class A { void f() { x; // {\n y; } int z; }")
@example("class A { void f() { /* } */ x; } int z; }")
@example('class A { void f() { s = "}"; } int z; }')
@example("class A { void f() { c = '{'; } int z; }")
@example('class A { void f() {\n s = """\n  }\n  """; } int z; }')  # a text block
@example("class A { void f() { x = a / b /c /} int z; /}")  # a lone '/'
@example('class A { void f() { s = "a\\\n}"; }\n int z; }')  # backslash-newline literal
@example("class A { void f() { /* }\n int z; }")  # unterminated comment
@example('class A { void f() { s = "}\n } int z; }')  # unterminated literals
@example("class A { void f() { c = '{ x\\\n } int z; }")
@example("class A { void f() " + "{\n" * 50 + "x;\n" + "}\n" * 50 + "int z; }")
@example("class A { void f() { if (x) { y; } // }\n\n")  # unclosed
@example("class O { @Test(expected = E.class) void t() { int y; } @R(X .class) class I { int q; } }")
def test_regex_lexer_matches_char_loop_oracle(text):
    full, full_diagnostics = reference_lexer.tokenize(_blank_for_oracle(text), file="F.java")
    assert _observed(*tokenize(text, file="F.java")) == _observed(
        _apply_tokenize_rules(full, text), full_diagnostics
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
# A ':' where the parser reads word by word, which ends the member there:
# the designator token after it is never read as words.
@example("class A { x : call(* *(..)) ; }")
@example("x : within(class) A { int y; }")
@example("class A { int a b : call(x, y) ; }")
@example("class A { int a = b, c : call(x, y) ; }")
@example("class A { x : void f(call( y )) {} }")
@example("aspect A { : pointcut call(y) : call(z); }")
@example("aspect A { after) throwing: within(A) { } int y; }")  # an advice missing its '('
# Where expression mode must close early: a ',' or ';' inside parentheses,
# a '}' at any depth.
@example("aspect A { declare x : ( a ; call(b) ) ; int q; }")
@example("class A { int a = b ? c : ( d ] , call(x) ) ; int e; }")
@example("aspect A { declare x : ( } call(b) class B { int z; }")
@example("aspect A { before(): within(class) { int x; } int y; }")
@example("aspect A { pointcut p(): call(* f()) }\nclass B { int x; void m() {} }\n")
@example("aspect A { before(): call(* f()) }\nclass B { int x; }\n")
# Nested type bodies, each read in place by the parser.
@example("class A { class B { class C { int x; void m() {} } int y; } int z; }")
@example("class A { void m() { class L { int q; } } int z; }")  # a local class
@example("aspect A { class B\n{ int x;\n pointcut p(): call(* f(..)); }\nint z; }")  # a later line
@example("class A { class B { int x; void m() {")  # unclosed
@example("class A { class B { /* open\n int x; }")  # reported once
@example('class A {\n class B { String s = "x\n; int y; } int z; }')
@example("class A { class B { x : call(* *(..)) ; int y; } int z; }")
@example("class A { interface I { int x; } enum E { R; } @interface N { int v(); } aspect S { int q; } int z; }")
@example("class C { class B } class D { int y; }")  # a nested head ends at the '}'
@example("class C { @interface A } class D { int y; }")
# A nested body ends at its matching '}', as the lexer ends it, whatever
# its parentheses hold.
@example("class A { class B { void m(}) {} } int z; }")
@example("class A { class B { void m( } int z; }")
# The edges of the lexer's rule for which blocks keep their tokens. A '}'
# does not clear the type-keyword flag: a top-level head does not end there.
@example("class O { class I { int x = f( } } ) ; class A } { int y; }")
@example("class A { Object o = X.class; { int y; } int z; }")
@example("class A { @interface N { int v(); } int z; }")
@example("enum E { A { void f() {} }, B; class N { int y; } }")
# A '(' inside a brace block that the lexer elides ends nothing.
@example("class A {within(A)class A {(} class")
# The edges of the members read in one step. With full tokens a body that
# holds a statement keeps its tokens and is read by ``parse_member_tail``,
# so these compare the one-step read with the general one.
@example("class A { int f()[] { x; } int y; }")
@example("class A { T f(int... a) { x; } int y; }")
@example("class A { T f() throws E { x; } int y; }")
@example("class A { T f(@A int a) { x; } int y; }")
@example("class A { T f(int a) {")  # unclosed
@example("aspect A { void around(int a) { x; } int around(); int y; }")
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
