"""Comment- and string-aware tokenizer for Java/AspectJ source text.

Line comments, block comments, string and character literals, and Java 15
text blocks are elided so that keywords mentioned inside them can never
reach the declaration parser. Tokens keep their source offsets so callers
can slice raw text back out, as the pointcut parser does for a
designator's argument.

One compiled alternation does the whole scan. Each match is the blanks,
comments and closed literals before a token (the skipped prefix) followed
by one named alternative; ``tokenize`` dispatches on ``m.lastgroup`` and
recovers line numbers by counting newlines between matches.

The declaration parser never reads a statement, so the inside of a body
(a brace block at parenthesis depth 0 that no type keyword announced) is
scanned by a second alternation that matches only braces, comments,
literals and runs of other characters, and builds no token.
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

# Keywords that announce a type body. The lexer keeps every token of such
# a body; the parser recognises the same words. Which '{' opens a type body
# is decided twice, by the ``pending`` rule in ``tokenize`` and by the
# parser's header and member logic: a new type-introducing construct (a
# ``record``, an enum constant with a body) must change both together.
TYPE_KEYWORDS = frozenset({"class", "interface", "enum", "aspect"})


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
    END = "end"


class Token:
    __slots__ = ("kind", "text", "line", "start", "end")

    def __init__(self, kind: TokenKind, text: str, line: int, start: int = 0, end: int = 0):
        self.kind = kind
        self.text = text
        self.line = line
        self.start = start
        self.end = end

    def __repr__(self) -> str:
        return f"Token({self.kind}, {self.text!r}, {self.line}, {self.start}, {self.end})"


_BLANKS_EOL = r"[ \t\f]*\r?\n"  # after a text block's opening quotes

# Skipped before every token. Closed literals whose escapes include no
# newline go here; the rest are alternatives below, because a
# backslash-newline inside a literal does not count as a line.
_SKIP = (
    r"\s*(?:(?:"
    r"//[^\n]*"
    r"|/\*[^*]*\*+(?:[^/*][^*]*\*+)*/"
    rf'|"""{_BLANKS_EOL}[^"\\]*(?:(?:\\[\s\S]|"(?!""))[^"\\]*)*"""'
    rf'|"(?!""{_BLANKS_EOL})[^"\\\n]*(?:\\.[^"\\\n]*)*"'
    r"|'[^'\\\n]*(?:\\.[^'\\\n]*)*'"
    r")\s*)*"
)

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

_TOKENS = (
    r"(?P<NUMBER>{digit}(?:[\w$]|\.{digit})*)"
    r"|(?P<WORD>{word_start}[\w$]+)"
    r"|(?P<SINGLE>[{{}}();])"
    rf"|{_EVENTS}"
    r"|(?P<OPERATOR>&&|\|\||[=!<>+\-*/%&|^]=|<<|>>|\+\+|--|->|::|[&|!<>=+\-*/%^~?])"
    r"|(?P<PUNCT>.)"
    r"|(?P<END>\Z)"
)

# Inside a body only braces and the events matter. A run stops before
# every character that can open a brace, comment or literal.
_scan_body = re.compile(
    rf"{_SKIP}(?:(?P<BRACE>[{{}}])|{_EVENTS}|(?P<RUN>[^{{}}\"'/]+|/)|(?P<END>\Z))"
).finditer

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


@lru_cache(maxsize=32)
def _scanner(odd_digits: str = "", odd_numerics: str = ""):
    """Compile the scanner, widening its classes for a few odd characters.

    ``\\d`` is ``str.isdecimal`` but numbers start at ``str.isdigit``, so
    ``odd_digits`` (digits that are not decimal, e.g. superscript two)
    join the digit class. ``\\w`` also matches numeric characters that are
    not ``str.isalpha``; ``odd_numerics`` (e.g. one half) may continue a
    word but never start one.
    """
    digit = rf"[\d{re.escape(odd_digits)}]" if odd_digits else r"\d"
    word_start = rf"(?![{re.escape(odd_numerics)}])" if odd_numerics else ""
    tokens = _TOKENS.format(digit=digit, word_start=word_start)
    return re.compile(f"{_SKIP}(?:{tokens})").finditer


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

    A brace block opened at parenthesis depth 0 that no type keyword
    announced (a method, advice or initializer body, or an array or
    anonymous-class initializer) keeps only its outer ``{`` and matching
    ``}``; its inside is scanned for braces, comments and literals only,
    so its diagnostics still come out, but no token is built for it. A
    type keyword announces the next ``{`` at depth 0 unless a ``;`` at
    depth 0 comes first. An unclosed body drops the rest of the text.

    A byte-order mark at offset 0 is skipped; offsets still index ``text``.
    The returned list always ends with exactly one END token.
    """
    tokens: list[Token] = []
    diagnostics: list[Diagnostic] = []
    append = tokens.append
    count = text.count
    scan = _scanner_for(text)
    line = 1
    last = 0  # newlines before ``last`` are already in ``line``
    pos = 1 if text.startswith("\ufeff") else 0
    depth = 0  # parentheses open, clamped at 0
    pending = False  # a type keyword awaits its body

    while True:
        for m in scan(text, pos):
            group = m.lastgroup
            start, end = m.span(group)
            if start != last:
                line += count("\n", last, start)
            last = end
            if group == "WORD":
                word = text[start:end]
                if word in KEYWORDS:
                    append(Token(_KEYWORD, word, line, start, end))
                    if word in TYPE_KEYWORDS:
                        pending = True
                else:
                    append(Token(_IDENTIFIER, word, line, start, end))
            elif group == "SINGLE":
                word = text[start]
                append(Token(_SINGLE[word], word, line, start, end))
                if word == "(":
                    depth += 1
                elif word == ")":
                    if depth:
                        depth -= 1
                elif depth == 0 and word != "}":
                    if word == "{" and not pending:
                        break  # a body
                    pending = False
            elif group == "OPERATOR":
                append(Token(_OPERATOR, text[start:end], line, start, end))
            elif group == "PUNCT" or group == "NUMBER":
                append(Token(_PUNCT, text[start:end], line, start, end))
            elif group in _UNTERMINATED:
                last = _report(group, text, start, end, file, line, diagnostics)
            # else LITERAL (closed, but spans a backslash-newline: not
            # counted) or END, the last match
        else:
            break

        nesting = 1
        for m in _scan_body(text, end):
            group = m.lastgroup
            if group == "RUN":
                continue  # a run's newlines are counted at the next event
            start, end = m.span(group)
            if start != last:
                line += count("\n", last, start)
            last = end
            if group == "BRACE":
                if text[start] == "{":
                    nesting += 1
                else:
                    nesting -= 1
                    if nesting == 0:
                        append(Token(_BRACE_CLOSE, "}", line, start, end))
                        break
            elif group in _UNTERMINATED:
                last = _report(group, text, start, end, file, line, diagnostics)
        else:
            break  # an unclosed body runs to the end
        pos = end

    n = len(text)
    append(Token(TokenKind.END, "", line, n, n))
    return tokens, diagnostics
