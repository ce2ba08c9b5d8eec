"""Comment- and string-aware tokenizer for Java/AspectJ source text.

Line comments, block comments, string and character literals, and Java 15
text blocks are elided so that keywords mentioned inside them can never
reach the declaration parser.

A token is a plain tuple ``(kind, text, line, start, end)``, built inline
in ``tokenize``'s loop with no constructor call. ``start`` and ``end``
are offsets into the text, and ``text[start:end]`` is always the token's
text, so callers can slice raw text back out, as the pointcut parser does
for a designator's argument.

A ':' at parenthesis depth 0 inside a kept brace block opens
expression mode: it starts every pointcut, advice and ``declare``
expression, each of which sits in a type body (in Java only a ternary in
a field initializer puts one there; outside a type body none is valid).
The next ',', ';', '{' or '}', at any depth, closes it. In that mode
each pattern designator, ``call``, ``execution``, ``get``, ``set``,
``handler``, ``within``, ``withincode``, ``this``, ``target``, ``args``
or an ``initialization`` form not glued to a '.' or '@' before it,
becomes one DESIGNATOR token together with its argument, such as
``call(void A.g())``: the pointcut parser reads that argument only as
text. ``cflow``, ``cflowbelow``, ``if`` and named references keep their
tokens. The argument is read by a bounded match; an argument it cannot
read, such as one holding a comment, a literal or a newline, falls back
to plain tokens, so the declaration and pointcut parsers see the same
program either way, and a failed match costs linear time (see
``_GROUP``).

One compiled alternation does the whole scan. Each match is the blanks,
comments and closed literals before a token (the skipped prefix) followed
by one named alternative; ``tokenize`` dispatches on ``m.lastgroup`` and
recovers line numbers by counting newlines between matches. Newlines
escaped inside a literal are not counted, so a line cannot be recovered
later from a plain table of newline offsets; each token carries its own.
A designator's argument is matched by a second, small pattern right
after its word, and the scan resumes behind it.

The declaration parser never reads a statement, so only a brace block
that may be a type body keeps its tokens (see ``tokenize``), and the
parser reads every type body from this one token list. The inside of
every other body is scanned by a second pattern that builds no token: one
match per brace or event. Each match passes over the plain characters,
closed comments and closed literals before it, so a body costs one match
per brace it holds.
"""

from __future__ import annotations

import re
from enum import Enum
from functools import lru_cache

from .diagnostics import Diagnostic, error

KEYWORDS = frozenset(
    {
        "abstract", "aspect", "assert", "boolean", "break", "byte", "case",
        "catch", "char", "class", "const", "continue", "default", "do",
        "double", "else", "enum", "extends", "final", "finally", "float",
        "for", "goto", "if", "implements", "import", "instanceof", "int",
        "interface", "long", "native", "new", "package", "pointcut",
        "private", "privileged", "protected", "public", "return", "short",
        "static", "strictfp", "super", "switch", "synchronized", "this",
        "throw", "throws", "transient", "try", "void", "volatile", "while",
    }
)
TYPE_KEYWORDS = frozenset({"class", "interface", "enum", "aspect"})  # each starts a type head


class TokenKind(Enum):
    IDENTIFIER = "identifier"
    KEYWORD = "keyword"
    PUNCT = "punct"
    BRACE_OPEN = "brace_open"
    BRACE_CLOSE = "brace_close"
    PAREN_OPEN = "paren_open"
    PAREN_CLOSE = "paren_close"
    SEMICOLON = "semicolon"
    OPERATOR = "operator"
    DESIGNATOR = "designator"
    END = "end"


#: ``(kind, text, line, start, end)``; see the module docstring.
Token = tuple[TokenKind, str, int, int, int]


_BLANKS_EOL = r"[ \t\f]*\r?\n"  # after a text block's opening quotes

# Comments and closed literals whose escapes include no newline: the
# skipped prefix before every token, and inside a body the forms a match
# passes over. The rest are events below, because a backslash-newline
# inside a literal does not count as a line.
_CLOSED = (
    r"//[^\n]*"
    r"|/\*[^*]*\*+(?:[^/*][^*]*\*+)*/"
    rf'|"""{_BLANKS_EOL}[^"\\]*(?:(?:\\[\s\S]|"(?!""))[^"\\]*)*"""'
    rf'|"(?!""{_BLANKS_EOL})[^"\\\n]*(?:\\.[^"\\\n]*)*"'
    r"|'[^'\\\n]*(?:\\.[^'\\\n]*)*'"
)
_SKIP = rf"\s*(?:(?:{_CLOSED})\s*)*"

# The four events that need Python code: a closed literal whose escapes
# span a newline (those newlines are not counted), and the unterminated
# comment, text block and literal, each reported.
_EVENTS = (
    r"(?P<BLOCK_COMMENT>/\*[\s\S]*)"  # unterminated: runs to the end
    rf'|(?P<TEXT_BLOCK>"""{_BLANKS_EOL}[\s\S]*)'  # unterminated: runs to the end
    r'|(?P<LITERAL>"[^"\\\n]*(?:\\[\s\S][^"\\\n]*)*"'
    r"|'[^'\\\n]*(?:\\[\s\S][^'\\\n]*)*')"
    r'|(?P<OPEN_LITERAL>"(?:\\[\s\S]|[^"\\\n])*\\?'
    r"|'(?:\\[\s\S]|[^'\\\n])*\\?)"
)

# Every pattern-designator word: its argument is a pattern, which the
# pointcut parser reads as text. ``cflow``, ``cflowbelow`` and ``if`` take
# a pointcut or an expression and are not among them.
PATTERN_DESIGNATORS = frozenset(
    {
        "call", "execution", "get", "set", "handler", "within", "withincode",
        "this", "target", "args", "initialization", "preinitialization",
        "staticinitialization",
    }
)
# A designator's argument, matched right after its word and read only
# when it is cheap to read: no newline, comment, literal, ';' or brace;
# square brackets only as '[]' pairs; at most three levels of parentheses,
# counting its own. Every run is unrolled, so an attempt backtracks over
# each character once. An attempt still open at a character holds a '('
# open there for every later one, so at most three attempts pass any
# character, and time stays linear.
_RUN = r"[^()\[\]{};\"'/\n]*(?:\[\][^()\[\]{};\"'/\n]*)*"
_GROUP = rf"\({_RUN}\)"
for _ in range(2):
    _GROUP = rf"\({_RUN}(?:{_GROUP}{_RUN})*\)"

# ``MODE`` marks switch expression mode: ':' may open it, ',' closes it.
_TOKENS = (
    r"(?P<NUMBER>{digit}(?:[\w$]|\.{digit})*)"
    r"|(?P<WORD>{word_start}[\w$]+)"
    r"|(?P<SINGLE>[{{}}();])"
    rf"|{_EVENTS}"
    r"|(?P<OPERATOR>&&|\|\||[=!<>+\-*/%&|^]=|<<|>>|\+\+|--|->|::|[&|!<>=+\-*/%^~?])"
    r"|(?P<MODE>[:,])"
    r"|(?P<PUNCT>.)"
    r"|(?P<END>\Z)"
)

# Inside a body only braces and the events matter. One match passes over
# everything up to the next brace, event or end: runs of other
# characters, closed forms, and a '/' that opens no comment. Unrolled, as
# ``_GROUP`` is: the passed part always ends where the next alternative
# matches, so a match never backtracks into it.
_BODY_RUN = r"[^{}\"'/]*"
_scan_body = re.compile(
    rf"{_BODY_RUN}(?:(?:{_CLOSED}|/(?!\*)){_BODY_RUN})*"
    rf"(?:(?P<BRACE>[{{}}])|{_EVENTS}|(?P<END>\Z))"
).match

_SINGLE = {
    "{": TokenKind.BRACE_OPEN,
    "}": TokenKind.BRACE_CLOSE,
    "(": TokenKind.PAREN_OPEN,
    ")": TokenKind.PAREN_CLOSE,
    ";": TokenKind.SEMICOLON,
}
_IDENTIFIER = TokenKind.IDENTIFIER
_KEYWORD = TokenKind.KEYWORD
_PUNCT = TokenKind.PUNCT
_OPERATOR = TokenKind.OPERATOR
_BRACE_CLOSE = TokenKind.BRACE_CLOSE
_DESIGNATOR = TokenKind.DESIGNATOR


@lru_cache(maxsize=32)
def _scanner(odd_digits: str = "", odd_numerics: str = ""):
    """Compile the scanner, widening its classes for a few odd characters.

    Returns its ``finditer`` and the ``match`` of a designator's argument.

    ``\\d`` is ``str.isdecimal`` but numbers start at ``str.isdigit``, so
    ``odd_digits`` (digits that are not decimal, e.g. superscript two)
    join the digit class. ``\\w`` also matches numeric characters that are
    not ``str.isalpha``; ``odd_numerics`` (e.g. one half) may continue a
    word but never start one.
    """
    digit = rf"[\d{re.escape(odd_digits)}]" if odd_digits else r"\d"
    word_start = rf"(?![{re.escape(odd_numerics)}])" if odd_numerics else ""
    tokens = _TOKENS.format(digit=digit, word_start=word_start)
    return re.compile(f"{_SKIP}(?:{tokens})").finditer, re.compile(_GROUP).match


def _scanner_for(text: str):
    if text.isascii():
        return _scanner()
    odd = {
        ch for ch in set(text)
        if ch.isnumeric() and not ch.isdecimal() and not ch.isalpha()
    }
    if not odd:
        return _scanner()
    digits = "".join(sorted(ch for ch in odd if ch.isdigit()))
    numerics = "".join(sorted(ch for ch in odd if not ch.isdigit()))
    return _scanner(digits, numerics)


_UNTERMINATED = frozenset({"BLOCK_COMMENT", "TEXT_BLOCK", "OPEN_LITERAL"})


def _report(
    group: str, text: str, start: int, end: int, file: str, line: int, diagnostics: list[Diagnostic]
) -> int:
    """Report an unterminated comment or literal; return where line counting resumes."""
    if group == "OPEN_LITERAL":
        kind_name = "string" if text[start] == '"' else "character"
        diagnostics.append(error(file, line, f"unterminated {kind_name} literal"))
        return end  # its escaped newlines are not counted
    what = "block comment" if group == "BLOCK_COMMENT" else "text block"
    diagnostics.append(error(file, line, f"unterminated {what}"))
    return start  # it runs to the end; its newlines still count toward END


def tokenize(text: str, *, file: str = "<source>") -> tuple[list[Token], list[Diagnostic]]:
    """Tokenize ``text``, eliding comments, string/char literals and bodies.

    A brace block at parenthesis depth 0 keeps its tokens if no kept block
    is open (a top-level type or module body) or a type keyword not glued
    to a '.' before it (``X.class`` is a literal) has come since the last
    '{' or ';' at depth 0 (a nested type body). Every other
    one (a method, advice, initializer or enum constant body, or an array
    or anonymous-class initializer) keeps only its ``{`` and matching
    ``}``; its inside is scanned for braces, comments and literals only, so
    its diagnostics still come out, but no token is built for it. An
    unclosed body drops the rest of the text.

    In expression mode (see the module docstring) a pattern designator is
    one DESIGNATOR token.

    A byte-order mark at offset 0 is skipped; offsets still index ``text``.
    The returned list always ends with exactly one END token.
    """
    tokens: list[Token] = []
    diagnostics: list[Diagnostic] = []
    append = tokens.append
    count = text.count
    scan, argument = _scanner_for(text)
    line = 1
    last = 0  # newlines before ``last`` are already in ``line``
    pos = 1 if text.startswith("\ufeff") else 0
    depth = 0  # parentheses open, clamped at 0
    kept = 0  # brace blocks open at depth 0 whose tokens are kept
    typed = False  # a type keyword since the last '{' or ';' at depth 0
    expression = False  # after ':' at depth 0 in a kept block, up to ',', ';', '{' or '}'

    while True:
        body = False
        for m in scan(text, pos):
            group = m.lastgroup
            start, end = m.span(group)
            if start != last:
                line += count("\n", last, start)
            last = end
            if group == "WORD":
                word = text[start:end]
                if expression and word in PATTERN_DESIGNATORS and text[start - 1] not in ".@":
                    arg = argument(text, end)
                    if arg:
                        last = end = arg.end()
                        word = text[start:end]
                        append((_DESIGNATOR, word, line, start, end))
                        break  # the scan resumes after the argument
                if word in KEYWORDS:
                    append((_KEYWORD, word, line, start, end))
                    typed = typed or (word in TYPE_KEYWORDS and text[start - 1] != ".")
                else:
                    append((_IDENTIFIER, word, line, start, end))
            elif group == "SINGLE":
                word = text[start]
                append((_SINGLE[word], word, line, start, end))
                if word == "(":
                    depth += 1
                elif word == ")":
                    if depth:
                        depth -= 1
                else:
                    expression = False
                    if depth == 0 and word != "}":
                        if word == "{":
                            if kept and not typed:
                                body = True
                                break  # a body
                            kept += 1
                        typed = False
                    elif depth == 0 and kept:
                        kept -= 1
            elif group == "OPERATOR":
                append((_OPERATOR, text[start:end], line, start, end))
            elif group == "PUNCT" or group == "NUMBER":
                append((_PUNCT, text[start:end], line, start, end))
            elif group == "MODE":
                word = text[start]
                append((_PUNCT, word, line, start, end))
                expression = word == ":" and kept > 0 and (expression or depth == 0)
            elif group in _UNTERMINATED:
                last = _report(group, text, start, end, file, line, diagnostics)
            # else LITERAL (closed, but spans a backslash-newline: not
            # counted) or END, the last match
        else:
            break
        pos = end
        if not body:
            continue

        nesting = 1
        while nesting:
            m = _scan_body(text, end)
            group = m.lastgroup
            start, end = m.span(group)
            if start != last:
                line += count("\n", last, start)
            last = end
            if group == "BRACE":
                nesting += 1 if text[start] == "{" else -1
            elif group in _UNTERMINATED:
                last = _report(group, text, start, end, file, line, diagnostics)
            elif group == "END":
                break
        if nesting:
            break  # an unclosed body runs to the end
        append((_BRACE_CLOSE, "}", line, start, end))
        pos = end

    n = len(text)
    append((TokenKind.END, "", line, n, n))
    return tokens, diagnostics

