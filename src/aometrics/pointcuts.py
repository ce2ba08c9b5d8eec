"""Pointcut expression parsing and join-point signature extraction.

Expressions follow the usual boolean grammar with precedence
``!`` > ``&&`` > ``||`` and parenthesised grouping. Leaves are either
primitive designators such as ``execution(...)`` or references to named
pointcuts (``someName()``). Designator arguments are kept as raw text;
nested pointcuts inside e.g. ``cflow(...)`` are deliberately not expanded.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Union

from .diagnostics import Diagnostic, warning
from .lexer import KEYWORDS

DESIGNATORS = frozenset(
    {
        "execution", "call", "get", "set", "handler", "within", "withincode",
        "cflow", "cflowbelow", "adviceexecution", "this", "target", "args",
        "initialization", "preinitialization", "staticinitialization",
    }
)

#: Designators that carry a member signature inside their argument.
KINDED_DESIGNATORS = frozenset({"execution", "call", "get", "set", "handler"})

#: Modifiers a member signature may carry; skipped when reading one.
SIGNATURE_MODIFIERS = frozenset(
    {"public", "private", "protected", "static", "final", "abstract",
     "synchronized", "native", "strictfp", "transient", "volatile"}
)


@dataclass(frozen=True)
class Primitive:
    designator: str
    argument_text: str
    known: bool = True


@dataclass(frozen=True)
class And:
    left: "PointcutExpr"
    right: "PointcutExpr"


@dataclass(frozen=True)
class Or:
    left: "PointcutExpr"
    right: "PointcutExpr"


@dataclass(frozen=True)
class Not:
    child: "PointcutExpr"


@dataclass(frozen=True)
class NamedRef:
    name: str


PointcutExpr = Union[Primitive, And, Or, Not, NamedRef]


@dataclass(frozen=True)
class SignaturePattern:
    """Return/type/name/parameter patterns of a kinded designator.

    Absent components (e.g. params for get/set, everything but the type for
    handler) are empty strings.
    """

    return_pattern: str = ""
    declaring_type_pattern: str = ""
    name_pattern: str = ""
    params_pattern: str = ""


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


def render_expression(expr: PointcutExpr) -> str:
    """Render an expression back to canonical text.

    Parentheses are emitted only where needed to re-parse to the same
    tree: lower-precedence children, and same-precedence right children
    (the grammar is left-associative). The tree is walked with an explicit
    stack of nodes and pending text, so a wide ``||`` chain needs no
    recursion.
    """

    def prec(node: PointcutExpr) -> int:
        if isinstance(node, Or):
            return 1
        if isinstance(node, And):
            return 2
        if isinstance(node, Not):
            return 3
        return 4

    parts: list[str] = []
    # Items are (node, parent precedence, is right child) or literal text.
    stack: list = [(expr, 0, False)]
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            parts.append(item)
            continue
        node, parent_prec, is_right = item
        own = prec(node)
        if own < parent_prec or (own == parent_prec and is_right):
            parts.append("(")
            stack.append(")")
        if isinstance(node, Primitive):
            parts.append(f"{node.designator}({node.argument_text})")
        elif isinstance(node, NamedRef):
            parts.append(f"{node.name}()")
        elif isinstance(node, Not):
            parts.append("!")
            stack.append((node.child, own, False))
        else:
            op = " && " if isinstance(node, And) else " || "
            stack.extend(((node.right, own, True), op, (node.left, own, False)))
    return "".join(parts)


def _split_member_name(token: str) -> tuple[str, str]:
    """Split 'pkg.Type.name' into (type pattern, name pattern).

    The split point is the last single '.' (never part of a '..' wildcard).
    A token without a dot has an empty (unqualified) type pattern.
    """
    for i in range(len(token) - 1, -1, -1):
        if token[i] != ".":
            continue
        before = token[i - 1] if i > 0 else ""
        after = token[i + 1] if i + 1 < len(token) else ""
        if before != "." and after != ".":
            return token[:i], token[i + 1 :]
    return "", token


def _join_return_pattern(parts: list[str]) -> str:
    joined = " ".join(parts)
    return re.sub(r"\s*\|\|\s*", "||", joined)


def extract_signature_pattern(
    p: Primitive,
    *,
    diagnostics: list[Diagnostic] | None = None,
    file: str = "<pointcut>",
    line: int = 1,
) -> SignaturePattern | None:
    """Extract the member signature from a kinded designator, else None."""
    if not p.known or p.designator not in KINDED_DESIGNATORS:
        return None
    diags = diagnostics if diagnostics is not None else []
    arg = p.argument_text.strip()

    def malformed(reason: str) -> None:
        diags.append(warning(file, line, f"malformed {p.designator} signature: {reason}"))

    if not arg:
        malformed("empty argument")
        return None

    if p.designator == "handler":
        if "(" in arg:
            malformed("unexpected parameter list")
            return None
        return SignaturePattern(declaring_type_pattern=arg)

    if p.designator in ("get", "set"):
        if "(" in arg:
            malformed("unexpected parameter list")
            return None
        words = [w for w in arg.split() if w not in SIGNATURE_MODIFIERS]
        if not words:
            malformed("no field pattern")
            return None
        type_pat, name_pat = _split_member_name(words[-1])
        return SignaturePattern(
            return_pattern=_join_return_pattern(words[:-1]),
            declaring_type_pattern=type_pat,
            name_pattern=name_pat,
        )

    # execution / call: ReturnPattern Declaring.name(Params)
    open_idx = arg.find("(")
    if open_idx < 0:
        malformed("missing parameter list")
        return None
    close_idx = arg.rfind(")")
    if close_idx < open_idx:
        malformed("unbalanced parameter list")
        return None
    header = arg[:open_idx].strip()
    params = arg[open_idx + 1 : close_idx].strip()
    words = [w for w in header.split() if w not in SIGNATURE_MODIFIERS]
    if not words:
        malformed("no method pattern")
        return None
    type_pat, name_pat = _split_member_name(words[-1])
    return SignaturePattern(
        return_pattern=_join_return_pattern(words[:-1]),
        declaring_type_pattern=type_pat,
        name_pattern=name_pat,
        params_pattern=params,
    )


def walk_primitives(expr: PointcutExpr):
    """Yield every leaf (Primitive or NamedRef) of an expression, left to right.

    An explicit stack replaces recursion, so a wide ``||`` chain is safe.
    """
    stack = [expr]
    while stack:
        node = stack.pop()
        if isinstance(node, (Primitive, NamedRef)):
            yield node
        elif isinstance(node, Not):
            stack.append(node.child)
        else:  # And / Or
            stack.append(node.right)
            stack.append(node.left)


def is_combined(expr: PointcutExpr) -> bool:
    """True when the expression contains any boolean operator."""
    return isinstance(expr, (And, Or, Not))
