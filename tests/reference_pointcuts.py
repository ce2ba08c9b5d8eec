"""Test-only oracle: the original character-cursor pointcut parser.

``aometrics.pointcuts.parse_pointcut_expression`` now parses the lexer's
tokens of an expression. This module keeps the parser it replaced, which
scanned the expression's source text a second time, one character at a
time. The differential property in ``test_pointcuts_differential.py``
checks that both give the same trees and diagnostics. Nothing under
``src/`` imports this module.
"""

from __future__ import annotations

import re

from aometrics.diagnostics import Diagnostic, warning
from aometrics.lexer import KEYWORDS
from aometrics.pointcuts import DESIGNATORS, And, NamedRef, Not, Or, PointcutExpr, Primitive


class _Malformed(Exception):
    pass


_WS_RE = re.compile(r"\s+")
_LINE_COMMENT_RE = re.compile(r"//[^\n]*")
_BLOCK_COMMENT_RE = re.compile(r"/\*.*?\*/", re.DOTALL)


def _normalize(text: str) -> str:
    text = _BLOCK_COMMENT_RE.sub(" ", text)
    text = _LINE_COMMENT_RE.sub(" ", text)
    return _WS_RE.sub(" ", text).strip()


class _Cursor:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def skip_blanks(self) -> None:
        n = len(self.text)
        while self.pos < n:
            ch = self.text[self.pos]
            if ch.isspace():
                self.pos += 1
            elif self.text.startswith("//", self.pos):
                nl = self.text.find("\n", self.pos)
                self.pos = len(self.text) if nl < 0 else nl
            elif self.text.startswith("/*", self.pos):
                close = self.text.find("*/", self.pos + 2)
                if close < 0:
                    raise _Malformed("unterminated comment in pointcut expression")
                self.pos = close + 2
            else:
                return

    def peek(self) -> str:
        self.skip_blanks()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def startswith(self, s: str) -> bool:
        self.skip_blanks()
        return self.text.startswith(s, self.pos)

    def take(self, s: str) -> bool:
        if self.startswith(s):
            self.pos += len(s)
            return True
        return False

    def read_name(self) -> str:
        """Read a possibly dotted identifier (keywords allowed as segments)."""
        self.skip_blanks()
        start = self.pos
        text, n = self.text, len(self.text)

        def segment() -> bool:
            nonlocal_start = self.pos
            if self.pos < n and (text[self.pos].isalpha() or text[self.pos] in "_$"):
                self.pos += 1
                while self.pos < n and (text[self.pos].isalnum() or text[self.pos] in "_$"):
                    self.pos += 1
            return self.pos > nonlocal_start

        if not segment():
            raise _Malformed("expected a designator or pointcut name")
        while self.pos < n and text[self.pos] == "." and self.pos + 1 < n and (
            text[self.pos + 1].isalpha() or text[self.pos + 1] in "_$"
        ):
            self.pos += 1
            segment()
        return text[start:self.pos]

    def read_balanced_argument(self) -> str:
        """Consume '( ... )' with balanced parens, returning the inner text."""
        self.skip_blanks()
        if self.pos >= len(self.text) or self.text[self.pos] != "(":
            raise _Malformed("expected '('")
        depth = 0
        start = self.pos + 1
        text, n = self.text, len(self.text)
        i = self.pos
        while i < n:
            ch = text[i]
            if ch in "\"'":
                quote = ch
                i += 1
                while i < n and text[i] != quote:
                    i += 2 if text[i] == "\\" else 1
                i += 1
                continue
            if ch == "(":
                depth += 1
            elif ch == ")":
                depth -= 1
                if depth == 0:
                    self.pos = i + 1
                    return _normalize(text[start:i])
            i += 1
        raise _Malformed("unbalanced parentheses")

    def at_end(self) -> bool:
        self.skip_blanks()
        return self.pos >= len(self.text)


def _parse_or(cur: _Cursor, diags: list[Diagnostic], file: str, line: int) -> PointcutExpr:
    expr = _parse_and(cur, diags, file, line)
    while cur.take("||"):
        expr = Or(expr, _parse_and(cur, diags, file, line))
    return expr


def _parse_and(cur: _Cursor, diags: list[Diagnostic], file: str, line: int) -> PointcutExpr:
    expr = _parse_unary(cur, diags, file, line)
    while True:
        cur.skip_blanks()
        if cur.text.startswith("&&", cur.pos):
            cur.pos += 2
            expr = And(expr, _parse_unary(cur, diags, file, line))
        else:
            return expr


def _parse_unary(cur: _Cursor, diags: list[Diagnostic], file: str, line: int) -> PointcutExpr:
    cur.skip_blanks()
    if cur.startswith("!") and not cur.startswith("!="):
        cur.pos += 1
        return Not(_parse_unary(cur, diags, file, line))
    return _parse_atom(cur, diags, file, line)


def _parse_atom(cur: _Cursor, diags: list[Diagnostic], file: str, line: int) -> PointcutExpr:
    cur.skip_blanks()
    if cur.peek() == "(":
        if cur.text[cur.pos] != "(":
            raise _Malformed("expected '('")
        cur.pos += 1
        expr = _parse_or(cur, diags, file, line)
        cur.skip_blanks()
        if not cur.take(")"):
            raise _Malformed("expected ')'")
        return expr

    name = cur.read_name()
    argument = cur.read_balanced_argument()
    if "." not in name and name in DESIGNATORS:
        return Primitive(name, argument)
    if "." not in name and name in KEYWORDS:
        diags.append(warning(file, line, f"unknown pointcut designator '{name}'"))
        return Primitive(name, argument, known=False)
    return NamedRef(name)


def parse_pointcut_expression(
    text: str,
    *,
    diagnostics: list[Diagnostic] | None = None,
    file: str = "<pointcut>",
    line: int = 1,
) -> PointcutExpr:
    """Parse the text after ':' in a pointcut or advice declaration.

    Malformed input yields a warning diagnostic and an unknown primitive so
    downstream metrics degrade gracefully instead of failing.
    """
    diags = diagnostics if diagnostics is not None else []
    cur = _Cursor(text)
    try:
        expr = _parse_or(cur, diags, file, line)
        if not cur.at_end():
            raise _Malformed(f"unexpected trailing text at offset {cur.pos}")
        return expr
    except _Malformed as exc:
        diags.append(warning(file, line, f"malformed pointcut expression: {exc}"))
        return Primitive("", _normalize(text), known=False)
