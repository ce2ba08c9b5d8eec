"""Declaration-level parser for Java and AspectJ source files.

The parser walks the token stream produced by :mod:`aometrics.lexer` and
extracts signatures only: classes, aspects, methods, fields, named
pointcuts, and advice. The lexer keeps only the outer braces of a method,
advice or initializer body, and the parser passes every brace block it
does not parse as a type body with ``skip_balanced_braces``, never token
by token. So statement-level constructs never influence the result, and
parsing the full token stream gives the same result as parsing the
lexer's.

Parsing never raises for bad input. Structural problems become
diagnostics on the returned SourceUnit; a unit with error-severity
diagnostics can be excluded from measurement (non-strict mode) or abort
the run (strict mode).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Union

from .diagnostics import Diagnostic, error, warning
from .lexer import TYPE_KEYWORDS, Token, TokenKind, tokenize
from .pointcuts import SIGNATURE_MODIFIERS, PointcutExpr, parse_pointcut_expression

MODIFIER_WORDS = SIGNATURE_MODIFIERS | {"privileged", "default"}

_TYPE_KEYWORDS = TYPE_KEYWORDS - {"aspect"}

_IDENTIFIER = TokenKind.IDENTIFIER
_KEYWORD = TokenKind.KEYWORD
_PUNCT = TokenKind.PUNCT
_OPERATOR = TokenKind.OPERATOR
_BRACE_OPEN = TokenKind.BRACE_OPEN
_BRACE_CLOSE = TokenKind.BRACE_CLOSE
_PAREN_OPEN = TokenKind.PAREN_OPEN
_PAREN_CLOSE = TokenKind.PAREN_CLOSE
_SEMICOLON = TokenKind.SEMICOLON
_END = TokenKind.END


class AdviceKind(Enum):
    BEFORE = "before"
    AFTER = "after"
    AFTER_RETURNING = "after_returning"
    AFTER_THROWING = "after_throwing"
    AROUND = "around"


@dataclass
class MethodDecl:
    name: str
    signature_text: str
    is_constructor: bool = False
    is_intertype: bool = False
    line: int = 0


@dataclass
class AttributeDecl:
    name: str
    declared_type: str
    line: int = 0


@dataclass
class PointcutDecl:
    name: str | None
    expression: PointcutExpr
    source_line: int


@dataclass
class AdviceDecl:
    kind: AdviceKind
    expression: PointcutExpr
    source_line: int


@dataclass
class ClassDecl:
    name: str
    kind: str = "class"  # class | interface | enum
    methods: list[MethodDecl] = field(default_factory=list)
    attributes: list[AttributeDecl] = field(default_factory=list)
    pointcuts: list[PointcutDecl] = field(default_factory=list)
    nested: list["ClassDecl"] = field(default_factory=list)
    line: int = 0


@dataclass
class AspectDecl:
    name: str
    pointcuts: list[PointcutDecl] = field(default_factory=list)
    advices: list[AdviceDecl] = field(default_factory=list)
    methods: list[MethodDecl] = field(default_factory=list)
    attributes: list[AttributeDecl] = field(default_factory=list)
    nested: list[ClassDecl] = field(default_factory=list)
    line: int = 0


UnitDecl = Union[ClassDecl, AspectDecl]


@dataclass
class SourceUnit:
    file: object
    classes: list[ClassDecl] = field(default_factory=list)
    aspects: list[AspectDecl] = field(default_factory=list)
    parse_diagnostics: list[Diagnostic] = field(default_factory=list)

    @property
    def has_errors(self) -> bool:
        from .diagnostics import Severity

        return any(d.severity is Severity.ERROR for d in self.parse_diagnostics)


def file_label(file: object) -> str:
    """The path a unit's diagnostics and reports name: ``file.path`` or ``file``."""
    return str(getattr(file, "path", file))


def _normalize_tokens(tokens: list[Token]) -> str:
    no_space_before = {".", ",", "(", ")", "<", ">", "[", "]", ";"}
    no_space_after = {".", "(", "<", "["}
    parts: list[str] = []
    prev = ""
    for tok in tokens:
        text = tok.text
        if parts and text not in no_space_before and prev not in no_space_after:
            parts.append(" ")
        parts.append(text)
        prev = text
    return "".join(parts)


class _DeclParser:
    def __init__(self, tokens: list[Token], file: object, source: str):
        # ``tokens`` ends with two END tokens. No cursor moves past the
        # first, so ``peek(1)`` and ``tokens[pos + 1]`` can index without a
        # bounds check.
        self.tokens = tokens
        self.pos = 0
        self.source = source
        self.file = file
        self.label = file_label(file)
        self.diagnostics: list[Diagnostic] = []

    # -- cursor helpers -------------------------------------------------

    def peek(self, offset: int = 0) -> Token:
        return self.tokens[self.pos + offset]

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind is not _END:
            self.pos += 1
        return tok

    def at_end(self) -> bool:
        return self.tokens[self.pos].kind is _END

    def warn(self, line: int, message: str) -> None:
        self.diagnostics.append(warning(self.label, line, message))

    def err(self, line: int, message: str) -> None:
        self.diagnostics.append(error(self.label, line, message))

    def skip_balanced_braces(self) -> bool:
        """Consume tokens of an already-opened brace block; True if closed.

        This is the only way the parser passes a brace block it does not
        parse as a type body: the lexer keeps no token inside a method,
        advice or initializer body but the outer braces.
        """
        depth = 1
        while not self.at_end():
            tok = self.advance()
            if tok.kind is _BRACE_OPEN:
                depth += 1
            elif tok.kind is _BRACE_CLOSE:
                depth -= 1
                if depth == 0:
                    return True
        return False

    def skip_balanced_parens(self) -> list[Token]:
        """Consume '( ... )' starting at the current '(' token."""
        tokens = self.tokens
        start = pos = self.pos
        if tokens[pos].kind is not _PAREN_OPEN:
            return []
        depth = 0
        while True:
            kind = tokens[pos].kind
            if kind is _END:
                break
            pos += 1
            if kind is _PAREN_OPEN:
                depth += 1
            elif kind is _PAREN_CLOSE:
                depth -= 1
                if depth == 0:
                    break
        self.pos = pos
        return tokens[start:pos]

    def skip_to_semicolon(self) -> None:
        depth = 0
        while not self.at_end():
            tok = self.advance()
            if tok.kind is _BRACE_OPEN:
                depth += 1
            elif tok.kind is _BRACE_CLOSE:
                if depth == 0:
                    self.pos -= 1
                    return
                depth -= 1
            elif tok.kind is _SEMICOLON and depth == 0:
                return

    def skip_annotation(self) -> None:
        self.advance()  # '@'
        if self.peek().kind is _KEYWORD and self.peek().text == "interface":
            # Annotation type declaration: skip name and body wholesale.
            self.advance()
            while not self.at_end() and self.peek().kind is not _BRACE_OPEN:
                self.advance()
            if self.peek().kind is _BRACE_OPEN:
                self.advance()
                self.skip_balanced_braces()
            return
        while self.peek().kind is _IDENTIFIER:
            self.advance()
            if self.peek().kind is _PUNCT and self.peek().text == ".":
                self.advance()
            else:
                break
        if self.peek().kind is _PAREN_OPEN:
            self.skip_balanced_parens()

    def collect_modifiers(self) -> set[str]:
        mods: set[str] = set()
        while True:
            tok = self.peek()
            if tok.kind is _PUNCT and tok.text == "@":
                if self.peek(1).kind is _KEYWORD and self.peek(1).text == "interface":
                    return mods
                self.skip_annotation()
                continue
            if tok.kind is _KEYWORD and tok.text in MODIFIER_WORDS:
                mods.add(tok.text)
                self.advance()
                continue
            return mods

    # -- expression capture ----------------------------------------------

    def capture_expression(self, stop_kinds: tuple[TokenKind, ...]) -> list[Token]:
        """The tokens from here up to a stop token at paren depth 0, stop token last.

        The depth is clamped at 0, as in the lexer, so an unmatched ')'
        does not hide the stop token behind it.
        """
        tokens = self.tokens
        start = pos = self.pos
        depth = 0
        while True:
            kind = tokens[pos].kind
            if kind is _END:
                break
            if kind is _PAREN_OPEN:
                depth += 1
            elif kind is _PAREN_CLOSE:
                if depth:
                    depth -= 1
            elif depth == 0 and kind in stop_kinds:
                break
            pos += 1
        self.pos = pos
        return tokens[start : pos + 1]

    # -- declarations ----------------------------------------------------

    def parse_unit_body(self, unit: SourceUnit) -> None:
        while not self.at_end():
            tok = self.peek()
            if tok.kind is _SEMICOLON:
                self.advance()
                continue
            if tok.kind is _KEYWORD and tok.text in ("package", "import"):
                self.skip_to_semicolon()
                continue
            if tok.kind is _PUNCT and tok.text == "@":
                self.skip_annotation()
                continue
            self.collect_modifiers()
            tok = self.peek()
            if tok.kind is _KEYWORD and tok.text in _TYPE_KEYWORDS:
                unit.classes.append(self.parse_class())
            elif tok.kind is _KEYWORD and tok.text == "aspect":
                unit.aspects.append(self.parse_aspect())
            elif tok.kind is _END:
                break
            else:
                self.err(tok.line, f"unexpected token at top level: {tok.text!r}")
                self.recover_to_type_keyword()

    def recover_to_type_keyword(self) -> None:
        depth = 0
        while not self.at_end():
            tok = self.peek()
            if depth == 0 and tok.kind is _KEYWORD and tok.text in TYPE_KEYWORDS:
                return
            if tok.kind is _BRACE_OPEN:
                depth += 1
            elif tok.kind is _BRACE_CLOSE:
                depth = max(0, depth - 1)
            self.advance()

    def _parse_type_header(self) -> tuple[str, int]:
        kw = self.advance()
        if self.peek().kind is _IDENTIFIER:
            name = self.advance().text
        else:
            self.err(kw.line, f"missing name after '{kw.text}'")
            name = "<anonymous>"
        # extends/implements/generics/per-clauses: everything up to the body.
        while not self.at_end() and self.peek().kind not in (
            _BRACE_OPEN,
            _SEMICOLON,
        ):
            if self.peek().kind is _PAREN_OPEN:
                self.skip_balanced_parens()
                continue
            self.advance()
        return name, kw.line

    def parse_class(self) -> ClassDecl:
        kind_word = self.peek().text
        name, line = self._parse_type_header()
        decl = ClassDecl(name=name, kind=kind_word, line=line)
        if self.peek().kind is _BRACE_OPEN:
            self.advance()
            self.parse_members(decl, is_aspect=False)
        else:
            if self.peek().kind is _SEMICOLON:
                self.advance()
        return decl

    def parse_aspect(self) -> AspectDecl:
        name, line = self._parse_type_header()
        decl = AspectDecl(name=name, line=line)
        if self.peek().kind is _BRACE_OPEN:
            self.advance()
            self.parse_members(decl, is_aspect=True)
        else:
            if self.peek().kind is _SEMICOLON:
                self.advance()
        return decl

    def parse_members(self, container: UnitDecl, is_aspect: bool) -> None:
        tokens = self.tokens
        while True:
            pos = self.pos
            tok = tokens[pos]
            kind = tok.kind
            if kind is _SEMICOLON:
                self.pos = pos + 1
                continue
            if kind is _BRACE_CLOSE:
                self.pos = pos + 1
                return
            if kind is _END:
                self.err(tok.line, f"unexpected end of file inside '{container.name}'")
                return
            if kind is _PUNCT and tok.text == "@":
                self.skip_annotation()
                continue

            mods = self.collect_modifiers()
            pos = self.pos
            tok = tokens[pos]
            kind = tok.kind

            if kind is _KEYWORD:
                if tok.text in _TYPE_KEYWORDS:
                    container.nested.append(self.parse_class())
                    continue
                if tok.text == "pointcut":
                    self.parse_pointcut_member(container, "abstract" in mods)
                    continue
            elif kind is _IDENTIFIER and is_aspect:
                text = tok.text
                if (text == "before" or text == "after") and tokens[pos + 1].kind is _PAREN_OPEN:
                    self.parse_advice(container)
                    continue
                if text == "declare":
                    self.skip_to_semicolon()
                    continue
            elif kind is _BRACE_OPEN:
                # Instance or static initializer block.
                self.pos = pos + 1
                if not self.skip_balanced_braces():
                    self.err(tok.line, "unclosed initializer block")
                continue

            self.parse_member_tail(container, is_aspect)

    def parse_pointcut_member(self, container: UnitDecl, is_abstract: bool) -> None:
        kw = self.advance()  # 'pointcut'
        name = None
        if self.peek().kind is _IDENTIFIER:
            name = self.advance().text
        else:
            self.err(kw.line, "missing pointcut name")
        if self.peek().kind is _PAREN_OPEN:
            self.skip_balanced_parens()
        tok = self.peek()
        if tok.kind is _SEMICOLON:
            # Abstract pointcut: a declaration without an expression selects
            # nothing by itself, so it is not recorded.
            self.advance()
            return
        if not (tok.kind is _PUNCT and tok.text == ":"):
            self.err(kw.line, f"malformed pointcut declaration '{name}'")
            self.skip_to_semicolon()
            return
        self.advance()  # ':'
        expression = self.capture_expression((_SEMICOLON, _BRACE_OPEN))
        stop = expression[-1]
        if stop.kind is _SEMICOLON:
            self.advance()
        else:
            self.err(kw.line, f"missing ';' after pointcut '{name}'")
        if is_abstract:
            return
        expr = parse_pointcut_expression(
            expression, self.source, diagnostics=self.diagnostics, file=self.label, line=kw.line
        )
        container.pointcuts.append(PointcutDecl(name=name, expression=expr, source_line=kw.line))

    def parse_advice(self, container: UnitDecl, head_word: Token | None = None) -> None:
        first = head_word if head_word is not None else self.advance()
        line = first.line
        if first.text == "around":
            kind = AdviceKind.AROUND
        elif first.text == "before":
            kind = AdviceKind.BEFORE
        else:
            kind = AdviceKind.AFTER
        if self.peek().kind is _PAREN_OPEN:
            self.skip_balanced_parens()
        if kind is AdviceKind.AFTER and self.peek().kind is _IDENTIFIER:
            if self.peek().text == "returning":
                kind = AdviceKind.AFTER_RETURNING
                self.advance()
            elif self.peek().text == "throwing":
                kind = AdviceKind.AFTER_THROWING
                self.advance()
            if self.peek().kind is _PAREN_OPEN:
                self.skip_balanced_parens()
        if self.peek().kind is _KEYWORD and self.peek().text == "throws":
            while not self.at_end() and not (
                self.peek().kind is _PUNCT and self.peek().text == ":"
            ):
                if self.peek().kind in (_BRACE_OPEN, _SEMICOLON):
                    break
                self.advance()
        tok = self.peek()
        if not (tok.kind is _PUNCT and tok.text == ":"):
            self.err(line, f"malformed {first.text} advice (missing ':')")
            self.skip_to_semicolon()
            return
        self.advance()  # ':'
        expression = self.capture_expression((_BRACE_OPEN, _SEMICOLON))
        stop = expression[-1]
        if stop.kind is _BRACE_OPEN:
            self.advance()
            if not self.skip_balanced_braces():
                self.err(line, "unclosed advice body")
        else:
            self.warn(line, f"{first.text} advice without a body")
            if stop.kind is _SEMICOLON:
                self.advance()
        expr = parse_pointcut_expression(
            expression, self.source, diagnostics=self.diagnostics, file=self.label, line=line
        )
        container.advices.append(AdviceDecl(kind=kind, expression=expr, source_line=line))

    def _looks_like_around_advice(self, pos: int) -> bool:
        """Bounded lookahead from an 'around' identifier at ``pos``."""
        idx = pos + 1
        if self.tokens[idx].kind is not _PAREN_OPEN:
            return False
        depth = 0
        while idx < len(self.tokens):
            kind = self.tokens[idx].kind
            if kind is _PAREN_OPEN:
                depth += 1
            elif kind is _PAREN_CLOSE:
                depth -= 1
                if depth == 0:
                    idx += 1
                    break
            elif kind is _END:
                return False
            idx += 1
        while idx < len(self.tokens):
            tok = self.tokens[idx]
            if tok.kind is _PUNCT and tok.text == ":":
                return True
            if tok.kind in (
                _BRACE_OPEN,
                _SEMICOLON,
                _BRACE_CLOSE,
                _END,
            ):
                return False
            idx += 1
        return False

    def parse_member_tail(self, container: UnitDecl, is_aspect: bool) -> None:
        tokens = self.tokens
        start = pos = self.pos
        angle_depth = 0
        while True:
            tok = tokens[pos]
            kind = tok.kind
            if kind is _OPERATOR:
                text = tok.text
                if text == "<":
                    angle_depth += 1
                elif text == ">":
                    angle_depth = max(0, angle_depth - 1)
                elif text == ">>":
                    # Closing of nested generics lexes as one shift token.
                    angle_depth = max(0, angle_depth - 2)
                elif text == "=" and angle_depth == 0:
                    break
            elif kind is _IDENTIFIER:
                if is_aspect and tok.text == "around" and self._looks_like_around_advice(pos):
                    # Preceding head tokens are the advice return type; drop them.
                    self.pos = pos + 1
                    self.parse_advice(container, head_word=tok)
                    return
            elif kind is _PAREN_OPEN:
                if angle_depth == 0:
                    self.pos = pos
                    self.finish_method(container, tokens[start:pos])
                    return
            elif kind is _SEMICOLON or (kind is _PUNCT and tok.text == ","):
                if angle_depth == 0:
                    break
            elif kind is _BRACE_OPEN:
                self.warn(tok.line, "unexpected '{' in member declaration")
                self.pos = pos + 1
                self.skip_balanced_braces()
                return
            elif kind is _BRACE_CLOSE or kind is _END:
                if pos > start:
                    self.err(tok.line, "dangling member declaration")
                self.pos = pos
                return
            pos += 1
        self.pos = pos
        self.finish_field(container, tokens[start:pos])

    def _split_member_name(self, head: list[Token]) -> tuple[list[Token], list[Token]]:
        """Split head tokens into (type tokens, trailing dotted-name tokens)."""
        idx = len(head)
        want_name = True
        while idx > 0:
            tok = head[idx - 1]
            if want_name and (
                tok.kind is _IDENTIFIER
                or (tok.kind is _KEYWORD and tok.text == "new")
            ):
                idx -= 1
                want_name = False
            elif not want_name and tok.kind is _PUNCT and tok.text == ".":
                idx -= 1
                want_name = True
            else:
                break
        if want_name:
            # Trailing '.' without a segment; treat everything as type text.
            return head, []
        return head[:idx], head[idx:]

    def finish_method(self, container: UnitDecl, head: list[Token]) -> None:
        paren_tok = self.peek()
        type_tokens, name_tokens = self._split_member_name(head)
        if not name_tokens:
            self.err(paren_tok.line, "method declaration without a name")
            self.skip_balanced_parens()
            self.skip_to_semicolon()
            return
        name = "".join(t.text for t in name_tokens)
        simple = name.rsplit(".", 1)[-1]
        is_intertype = "." in name
        is_constructor = simple == "new" or (not type_tokens and simple == container.name)
        params = self.skip_balanced_parens()
        # C-style array return: ``int f()[]`` is ``int[] f()``.
        tokens = self.tokens
        pos = self.pos
        while tokens[pos].text == "[" and tokens[pos + 1].text == "]":
            pos += 2
        params += tokens[self.pos : pos]
        self.pos = pos
        signature = _normalize_tokens(type_tokens + name_tokens + params)
        line = name_tokens[0].line

        if self.peek().kind is _KEYWORD and self.peek().text == "throws":
            while not self.at_end() and self.peek().kind not in (
                _BRACE_OPEN,
                _SEMICOLON,
                _BRACE_CLOSE,
            ):
                self.advance()
        tok = self.peek()
        if tok.kind is _BRACE_OPEN:
            self.advance()
            if not self.skip_balanced_braces():
                self.err(line, f"unclosed body of '{name}'")
        elif tok.kind is _SEMICOLON:
            self.advance()
        elif tok.kind is _PUNCT and tok.text == ":":
            self.warn(line, f"unexpected ':' after member '{name}'")
            self.skip_to_semicolon()
            return
        else:
            self.err(line, f"malformed declaration of '{name}'")
            self.skip_to_semicolon()
            return
        container.methods.append(
            MethodDecl(
                name=name,
                signature_text=signature,
                is_constructor=is_constructor,
                is_intertype=is_intertype,
                line=line,
            )
        )

    def finish_field(self, container: UnitDecl, head: list[Token]) -> None:
        tokens = self.tokens
        pos = self.pos
        if not head or head[-1].kind is not _IDENTIFIER:
            self.warn(tokens[pos].line, "unrecognized member declaration")
            self.skip_to_semicolon()
            return
        declared_type = _normalize_tokens(head[:-1])
        names: list[tuple[str, int]] = [(head[-1].text, head[-1].line)]
        while True:
            tok = tokens[pos]
            kind = tok.kind
            if kind is _SEMICOLON:
                pos += 1
                break
            if kind is _OPERATOR and tok.text == "=":
                pos = self._skip_initializer(pos + 1)
                continue
            if kind is _PUNCT and tok.text == ",":
                nxt = tokens[pos + 1]
                if nxt.kind is _IDENTIFIER:
                    names.append((nxt.text, nxt.line))
                    pos += 2
                    continue
                self.pos = pos + 1
                self.warn(tok.line, "missing declarator after ','")
                self.skip_to_semicolon()
                pos = self.pos
                break
            if kind is _BRACE_OPEN:
                self.warn(tok.line, "unexpected '{' in member declaration")
                self.pos = pos + 1
                self.skip_balanced_braces()
                pos = self.pos
                break
            if kind is _BRACE_CLOSE or kind is _END:
                self.warn(tok.line, "unterminated field declaration")
                break
            # Array brackets and other trailing tokens on the declarator.
            pos += 1
        self.pos = pos
        for name, line in names:
            container.attributes.append(
                AttributeDecl(name=name, declared_type=declared_type, line=line)
            )

    def _skip_initializer(self, pos: int) -> int:
        """Position of the ',', ';' or '}' that ends the initializer at ``pos``."""
        tokens = self.tokens
        depth = 0
        while True:
            tok = tokens[pos]
            kind = tok.kind
            if kind is _BRACE_OPEN:
                self.pos = pos + 1
                self.skip_balanced_braces()
                pos = self.pos
                continue
            if kind is _PAREN_OPEN or tok.text == "[":
                depth += 1
            elif kind is _BRACE_CLOSE and depth == 0:
                return pos
            elif kind is _PAREN_CLOSE or kind is _BRACE_CLOSE or tok.text == "]":
                depth = max(0, depth - 1)
            elif kind is _END or (
                depth == 0 and (kind is _SEMICOLON or (kind is _PUNCT and tok.text == ","))
            ):
                return pos
            pos += 1


def parse_unit(
    tokens: list[Token],
    file: object,
    source: str,
    lex_diagnostics: list[Diagnostic] | None = None,
) -> SourceUnit:
    """Parse a token stream into a SourceUnit of declaration signatures.

    ``tokens`` ends with one END token, as ``tokenize`` returns it.
    """
    parser = _DeclParser([*tokens, tokens[-1]], file, source)
    unit = SourceUnit(file=file)
    if lex_diagnostics:
        parser.diagnostics.extend(lex_diagnostics)
    parser.parse_unit_body(unit)

    class_names = {c.name for c in unit.classes}
    for aspect in unit.aspects:
        if aspect.name in class_names:
            parser.warn(
                aspect.line, f"'{aspect.name}' declared as both class and aspect"
            )
    unit.parse_diagnostics = parser.diagnostics
    return unit


def parse_source(text: str, file: object) -> SourceUnit:
    """Tokenize and parse one file's text."""
    tokens, lex_diags = tokenize(text, file=file_label(file))
    return parse_unit(tokens, file, text, lex_diagnostics=lex_diags)


def walk_classes(unit_or_decl, prefix: str = ""):
    """Yield (qualified name, ClassDecl) pairs, nested classes included."""
    if isinstance(unit_or_decl, SourceUnit):
        for cls in unit_or_decl.classes:
            yield from walk_classes(cls, "")
        for aspect in unit_or_decl.aspects:
            for cls in aspect.nested:
                yield from walk_classes(cls, aspect.name + ".")
        return
    decl = unit_or_decl
    qualified = prefix + decl.name
    yield qualified, decl
    for inner in decl.nested:
        yield from walk_classes(inner, qualified + ".")
