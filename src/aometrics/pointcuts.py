"""Pointcut expression parsing and join-point signature extraction.

Expressions follow the usual boolean grammar with precedence
``!`` > ``&&`` > ``||`` and parenthesised grouping. Leaves are either
primitive designators such as ``execution(...)`` or references to named
pointcuts (``someName()``). Designator arguments are kept as raw text;
nested pointcuts inside e.g. ``cflow(...)`` are deliberately not expanded.
"""

from __future__ import annotations

import re

from .diagnostics import Diagnostic, FrozenRecord, warning
from .lexer import KEYWORDS, PATTERN_DESIGNATORS, Token, TokenKind

#: Every designator: the pattern designators, and those whose argument is a
#: pointcut or empty.
DESIGNATORS = PATTERN_DESIGNATORS | {"cflow", "cflowbelow", "adviceexecution"}

#: Designators that carry a member signature inside their argument.
KINDED_DESIGNATORS = frozenset({"execution", "call", "get", "set", "handler"})

#: Modifiers a member signature may carry; skipped when reading one.
SIGNATURE_MODIFIERS = frozenset(
    {"public", "private", "protected", "static", "final", "abstract",
     "synchronized", "native", "strictfp", "transient", "volatile"}
)


class Primitive(FrozenRecord):
    __slots__ = ("designator", "argument_text", "known")

    def __init__(self, designator: str, argument_text: str, known: bool = True):
        object.__setattr__(self, "designator", designator)
        object.__setattr__(self, "argument_text", argument_text)
        object.__setattr__(self, "known", known)


class And(FrozenRecord):
    __slots__ = ("left", "right")

    def __init__(self, left: PointcutExpr, right: PointcutExpr):
        object.__setattr__(self, "left", left)
        object.__setattr__(self, "right", right)


class Or(FrozenRecord):
    __slots__ = ("left", "right")

    def __init__(self, left: PointcutExpr, right: PointcutExpr):
        object.__setattr__(self, "left", left)
        object.__setattr__(self, "right", right)


class Not(FrozenRecord):
    __slots__ = ("child",)

    def __init__(self, child: PointcutExpr):
        object.__setattr__(self, "child", child)


class NamedRef(FrozenRecord):
    __slots__ = ("name",)

    def __init__(self, name: str):
        object.__setattr__(self, "name", name)


PointcutExpr = Primitive | And | Or | Not | NamedRef


class SignaturePattern(FrozenRecord):
    """Return/type/name/parameter patterns of a kinded designator.

    Absent components (e.g. params for get/set, everything but the type for
    handler) are empty strings.
    """

    __slots__ = ("return_pattern", "declaring_type_pattern", "name_pattern", "params_pattern")

    def __init__(
        self,
        return_pattern: str = "",
        declaring_type_pattern: str = "",
        name_pattern: str = "",
        params_pattern: str = "",
    ):
        object.__setattr__(self, "return_pattern", return_pattern)
        object.__setattr__(self, "declaring_type_pattern", declaring_type_pattern)
        object.__setattr__(self, "name_pattern", name_pattern)
        object.__setattr__(self, "params_pattern", params_pattern)


class _Malformed(Exception):
    pass


_LINE_COMMENT_RE = re.compile(r"//[^\n]*")
_BLOCK_COMMENT_RE = re.compile(r"/\*.*?\*/", re.DOTALL)


def _normalize(text: str) -> str:
    if "/" in text:  # both comment forms start with '/'
        text = _BLOCK_COMMENT_RE.sub(" ", text)
        text = _LINE_COMMENT_RE.sub(" ", text)
    return " ".join(text.split())


_WORDS = (TokenKind.IDENTIFIER, TokenKind.KEYWORD)
_PAREN_OPEN = TokenKind.PAREN_OPEN
_PAREN_CLOSE = TokenKind.PAREN_CLOSE
_DESIGNATOR = TokenKind.DESIGNATOR

# Binding levels of the pending entries on the parser's stack. An entry
# is (level, left operand); '(' and '!' have no left operand.
_GROUP, _OR, _AND, _NOT = 0, 1, 2, 3


def _reduce(stack: list, expr: PointcutExpr, floor: int) -> PointcutExpr:
    """Apply the pending operators on top of ``stack`` that bind at ``floor`` or tighter."""
    while stack and stack[-1][0] >= floor:
        level, left = stack.pop()
        if level == _NOT:
            expr = Not(expr)
        elif level == _AND:
            expr = And(left, expr)
        else:
            expr = Or(left, expr)
    return expr


def _read_atom(
    tokens: list[Token], i: int, source: str, diags: list[Diagnostic], file: str, line: int
) -> tuple[PointcutExpr, int]:
    """Read ``name(argument)`` at ``tokens[i]``; return it and the index past it.

    A DESIGNATOR token is the whole atom. Otherwise the name may be
    dotted: words joined by '.' with no gap between them.
    """
    kind, text, _, start, end = tokens[i]
    if kind is _DESIGNATOR:
        open_at = text.index("(")
        return Primitive(text[:open_at], _normalize(text[open_at + 1 : -1])), i + 1
    if kind not in _WORDS:
        raise _Malformed("expected a designator or pointcut name")
    i += 1
    # The stop token is never '.', so a '.' is followed by another token.
    while (
        tokens[i][1] == "."
        and tokens[i][3] == end
        and tokens[i + 1][0] in _WORDS
        and tokens[i + 1][3] == end + 1
    ):
        end = tokens[i + 1][4]
        i += 2
    name = source[start:end]
    if tokens[i][0] is not _PAREN_OPEN:
        raise _Malformed("expected '('")
    argument_start = tokens[i][4]
    last = len(tokens) - 1
    depth = 1
    while depth:
        i += 1
        if i == last:
            raise _Malformed("unbalanced parentheses")
        kind = tokens[i][0]
        if kind is _PAREN_OPEN:
            depth += 1
        elif kind is _PAREN_CLOSE:
            depth -= 1
    argument = _normalize(source[argument_start : tokens[i][3]])
    if "." not in name and name in DESIGNATORS:
        return Primitive(name, argument), i + 1
    if "." not in name and name in KEYWORDS:
        diags.append(warning(file, line, f"unknown pointcut designator '{name}'"))
        return Primitive(name, argument, known=False), i + 1
    return NamedRef(name), i + 1


def parse_pointcut_expression(
    tokens: list[Token],
    source: str,
    *,
    diagnostics: list[Diagnostic] | None = None,
    file: str = "<pointcut>",
    line: int = 1,
) -> PointcutExpr:
    """Parse the tokens of the expression after ':' in a pointcut or advice.

    ``tokens`` holds the expression's tokens and then one stop token
    (``;``, ``{``, ``}`` or END); their offsets index ``source``. Operators are
    applied by precedence climbing over one explicit stack, so neither
    ``(`` nor ``!`` recurses, however deep it nests.

    Malformed input yields a warning diagnostic and an unknown primitive so
    downstream metrics degrade gracefully instead of failing.
    """
    diags = diagnostics if diagnostics is not None else []
    stack: list[tuple[int, PointcutExpr | None]] = []
    groups = 0  # '(' entries on the stack
    i = 0
    try:
        while True:
            kind, text, _, _, _ = tokens[i]
            while True:
                if kind is _PAREN_OPEN:
                    stack.append((_GROUP, None))
                    groups += 1
                elif text == "!":
                    stack.append((_NOT, None))
                else:
                    break
                i += 1
                kind, text, _, _, _ = tokens[i]
            expr, i = _read_atom(tokens, i, source, diags, file, line)
            kind, text, _, start, _ = tokens[i]
            while groups and kind is _PAREN_CLOSE:
                expr = _reduce(stack, expr, _OR)
                stack.pop()
                groups -= 1
                i += 1
                kind, text, _, start, _ = tokens[i]
            if text == "&&":
                level = _AND
            elif text == "||":
                level = _OR
            else:
                break
            stack.append((level, _reduce(stack, expr, level)))
            i += 1
        if groups:
            raise _Malformed("expected ')'")
        if i != len(tokens) - 1:
            raise _Malformed(f"unexpected trailing text at offset {start - tokens[0][3]}")
        return _reduce(stack, expr, _OR)
    except _Malformed as exc:
        diags.append(warning(file, line, f"malformed pointcut expression: {exc}"))
        return Primitive("", _normalize(source[tokens[0][3] : tokens[-1][3]]), known=False)


_PRECEDENCE = {Or: 1, And: 2, Not: 3, Primitive: 4, NamedRef: 4}


def render_expression(expr: PointcutExpr) -> str:
    """Render an expression back to canonical text.

    Parentheses are emitted only where needed to re-parse to the same
    tree: lower-precedence children, and same-precedence right children
    (the grammar is left-associative). The tree is walked with an explicit
    stack of nodes and pending text, so a wide ``||`` chain needs no
    recursion.
    """

    root = type(expr)
    if root is Primitive:
        return f"{expr.designator}({expr.argument_text})"
    if root is NamedRef:
        return f"{expr.name}()"
    parts: list[str] = []
    # Items are (node, parent precedence, is right child) or literal text.
    stack: list = [(expr, 0, False)]
    while stack:
        item = stack.pop()
        if type(item) is str:
            parts.append(item)
            continue
        node, parent_prec, is_right = item
        node_type = type(node)
        own = _PRECEDENCE[node_type]
        if own < parent_prec or (own == parent_prec and is_right):
            parts.append("(")
            stack.append(")")
        if node_type is Primitive:
            parts.append(f"{node.designator}({node.argument_text})")
        elif node_type is NamedRef:
            parts.append(f"{node.name}()")
        elif node_type is Not:
            parts.append("!")
            stack.append((node.child, own, False))
        else:
            op = " && " if node_type is And else " || "
            stack.extend(((node.right, own, True), op, (node.left, own, False)))
    return "".join(parts)


def _split_member_name(token: str) -> tuple[str, str]:
    """Split 'pkg.Type.name' into (type pattern, name pattern).

    The split point is the last single '.' (never part of a '..' wildcard).
    A token without a dot has an empty (unqualified) type pattern.
    """
    i = token.rfind(".")
    while i >= 0:
        if (i == 0 or token[i - 1] != ".") and token[i + 1 : i + 2] != ".":
            return token[:i], token[i + 1 :]
        i = token.rfind(".", 0, i)
    return "", token


_OR_SPACING_RE = re.compile(r"\s*\|\|\s*")


def _join_return_pattern(parts: list[str]) -> str:
    joined = " ".join(parts)
    return _OR_SPACING_RE.sub("||", joined) if "||" in joined else joined


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

    if p.designator in ("handler", "get", "set"):
        if "(" in arg:
            malformed("unexpected parameter list")
            return None
        if p.designator == "handler":
            return SignaturePattern(declaring_type_pattern=arg)
        header, params, empty = arg, "", "no field pattern"
    else:  # execution / call: ReturnPattern Declaring.name(Params)
        open_idx = arg.find("(")
        if open_idx < 0:
            malformed("missing parameter list")
            return None
        close_idx = arg.rfind(")")
        if close_idx < open_idx:
            malformed("unbalanced parameter list")
            return None
        header, params = arg[:open_idx], arg[open_idx + 1 : close_idx].strip()
        empty = "no method pattern"
    words = [w for w in header.split() if w not in SIGNATURE_MODIFIERS]
    if not words:
        malformed(empty)
        return None
    type_pat, name_pat = _split_member_name(words[-1])
    return SignaturePattern(
        return_pattern=_join_return_pattern(words[:-1]),
        declaring_type_pattern=type_pat,
        name_pattern=name_pat,
        params_pattern=params,
    )
