"""Declaration-level parser for Java and AspectJ source files.

The parser walks the token stream produced by :mod:`aometrics.lexer` and
extracts signatures only: classes, aspects, methods, fields, named
pointcuts, and advice. The file is lexed once: the lexer keeps the tokens
of every brace block that may be a type body, and the parser reads each
type body in place (``parse_type``). ``walk_to`` is the one walk that
takes it past the code it does not measure, and it passes every other
brace block outside parentheses whole, never token by token, with
``brace_end``. So statement-level constructs never influence the result,
and parsing the full token stream gives the same result as parsing the
lexer's.

Parsing never raises for bad input. Structural problems become
diagnostics on the returned SourceUnit; a unit with error-severity
diagnostics can be excluded from measurement (non-strict mode) or abort
the run (strict mode).
"""

from __future__ import annotations

from enum import Enum

from .diagnostics import Diagnostic, Record, Severity, error, warning
from .lexer import TYPE_KEYWORDS, Token, TokenKind, tokenize
from .pointcuts import SIGNATURE_MODIFIERS, PointcutExpr, parse_pointcut_expression

MODIFIER_WORDS = SIGNATURE_MODIFIERS | {"privileged", "default", "sealed"}

_CLASS_KEYWORDS = TYPE_KEYWORDS - {"aspect"}

_IDENTIFIER = TokenKind.IDENTIFIER
_KEYWORD = TokenKind.KEYWORD
_OPERATOR = TokenKind.OPERATOR
_BRACE_OPEN = TokenKind.BRACE_OPEN
_BRACE_CLOSE = TokenKind.BRACE_CLOSE
_PAREN_OPEN = TokenKind.PAREN_OPEN
_PAREN_CLOSE = TokenKind.PAREN_CLOSE
_SEMICOLON = TokenKind.SEMICOLON
_END = TokenKind.END

# The texts that end each walk of ``_DeclParser.walk_to``. Each set holds
# '', the text of END, which ends every walk.
_AT_END = frozenset({""})
_PAREN_CLOSE_ENDS = frozenset({"", ")"})  # the ')' that closes a '(', at depth 0
_PARENS = ("(", ")")  # the brackets a walk nests: the opening ones, then the closing ones
_HEAD_ENDS = frozenset({"", "{", ";"})  # a type or annotation type head at top level
_DECLARATION_ENDS = frozenset({"", ";", "}"})  # a skipped declaration, at any depth
_SKIP_ENDS = _DECLARATION_ENDS | {"{"}  # ... and outside parentheses
# A method's 'throws' clause; a type head inside a type body; a pointcut or
# advice expression, which ends at a '}' as the lexer's expression mode does.
_MEMBER_ENDS = frozenset({"", "{", ";", "}"})
_ADVICE_HEAD_ENDS = _MEMBER_ENDS | {":"}  # an advice's 'throws' clause, the 'around' lookahead
_INITIALIZER_ENDS = frozenset({"", ";", ",", "}"})
_ENUM_CONSTANTS_ENDS = frozenset({";", "}"})
_RECOVERY_ENDS = TYPE_KEYWORDS | {""}

# Besides words, the tokens a parameter list read in one step may hold.
_PARAMETER_MARKS = frozenset({",", ".", "[", "]"})


class AdviceKind(Enum):
    BEFORE = "before"
    AFTER = "after"
    AFTER_RETURNING = "after_returning"
    AFTER_THROWING = "after_throwing"
    AROUND = "around"


class MethodDecl(Record):
    __slots__ = ("name", "signature_text", "is_constructor", "is_intertype", "line")

    def __init__(
        self, name: str, signature_text: str, is_constructor: bool, is_intertype: bool, line: int
    ):
        self.name = name
        self.signature_text = signature_text
        self.is_constructor = is_constructor
        self.is_intertype = is_intertype
        self.line = line


class AttributeDecl(Record):
    __slots__ = ("name", "declared_type", "line")

    def __init__(self, name: str, declared_type: str, line: int):
        self.name = name
        self.declared_type = declared_type
        self.line = line


class PointcutDecl(Record):
    __slots__ = ("name", "expression", "source_line")

    def __init__(self, name: str | None, expression: PointcutExpr, source_line: int):
        self.name = name
        self.expression = expression
        self.source_line = source_line


class AdviceDecl(Record):
    __slots__ = ("kind", "expression", "source_line")

    def __init__(self, kind: AdviceKind, expression: PointcutExpr, source_line: int):
        self.kind = kind
        self.expression = expression
        self.source_line = source_line


class TypeDecl(Record):
    """A class, interface, enum or aspect; only an aspect's ``advices`` can be non-empty."""

    __slots__ = ("name", "kind", "methods", "attributes", "pointcuts", "advices", "nested", "line")

    def __init__(self, name: str, kind: str, line: int):
        self.name = name
        self.kind = kind  # class | interface | enum | aspect
        self.methods: list[MethodDecl] = []
        self.attributes: list[AttributeDecl] = []
        self.pointcuts: list[PointcutDecl] = []
        self.advices: list[AdviceDecl] = []
        self.nested: list[TypeDecl] = []
        self.line = line


class UnitCache:
    """What is derived from a unit's declarations, shared by each unit holding them.

    ``metrics.classify_joinpoint_categories`` keeps its result in
    ``classification``. A cache is not part of a unit's value: any two
    compare equal, and a copied or unpickled one starts empty, because what
    it holds is keyed by the ``id`` of the declarations it came from.
    """

    __slots__ = ("classification",)

    def __init__(self) -> None:
        self.classification = None

    def __eq__(self, other: object) -> bool:
        return other.__class__ is UnitCache

    def __reduce__(self) -> tuple:
        return UnitCache, ()

    def __repr__(self) -> str:
        return "UnitCache()"


class SourceUnit(Record):
    __slots__ = ("file", "classes", "aspects", "parse_diagnostics", "cache")

    def __init__(
        self,
        file: str,
        classes: list[TypeDecl] | None = None,
        aspects: list[TypeDecl] | None = None,
        parse_diagnostics: list[Diagnostic] | None = None,
        cache: UnitCache | None = None,
    ):
        self.file = file
        self.classes = [] if classes is None else classes
        self.aspects = [] if aspects is None else aspects
        self.parse_diagnostics = [] if parse_diagnostics is None else parse_diagnostics
        self.cache = UnitCache() if cache is None else cache

    @property
    def has_errors(self) -> bool:
        return any(d.severity is Severity.ERROR for d in self.parse_diagnostics)


# Tokens whose text takes no blank before or after it in a signature. The
# '>>' that closes nested generics is one token, and '>>>' lexes as '>>' '>'.
_NO_SPACE_BEFORE = frozenset({".", ",", "(", ")", "<", ">", ">>", "[", "]", ";"})
_NO_SPACE_AFTER = frozenset({".", "(", "<", "["})

_ADVICE_KINDS = {"before": AdviceKind.BEFORE, "after": AdviceKind.AFTER, "around": AdviceKind.AROUND}


def _normalize_tokens(tokens: list[Token]) -> str:
    parts: list[str] = []
    prev = ""
    for tok in tokens:
        text = tok[1]
        # A blank follows the last '.' of a varargs '...', as javac prints it.
        if parts and text not in _NO_SPACE_BEFORE and (
            prev not in _NO_SPACE_AFTER or parts[-2:] == [".", "."]
        ):
            parts.append(" ")
        parts.append(text)
        prev = text
    return "".join(parts)


def _split_member_name(head: list[Token]) -> tuple[list[Token], list[Token]]:
    """Split head tokens into (type tokens, trailing dotted-name tokens)."""
    idx = len(head)
    want_name = True
    while idx > 0:
        kind, text, _, _, _ = head[idx - 1]
        if want_name and (kind is _IDENTIFIER or text == "new"):
            idx -= 1
            want_name = False
        elif not want_name and text == ".":
            idx -= 1
            want_name = True
        else:
            break
    if want_name:
        # Trailing '.' without a segment; treat everything as type text.
        return head, []
    return head[:idx], head[idx:]


class _DeclParser:
    """One pass over a file's declaration tokens, with no recursion and no cursor.

    Every method that moves through the tokens takes the position it
    starts at and returns the position it stops at. Each way past code the
    parser does not measure (a skipped declaration, top-level recovery, an
    initializer, a pointcut expression, a type head, a 'throws' clause, a
    parenthesized list) calls ``walk_to`` with stop sets of its own.

    ``self.stack`` holds the open type bodies, innermost last, as
    ``(decl, restore)``: ``restore`` is None for a top-level body, else
    the position past a nested body and the token there, for which an END
    token stands until the body pops, so no walk inside passes its '}'.

    Every keyword and punctuation mark has a single token kind, so a token
    is tested by its text alone wherever the text is fixed.
    """

    def __init__(self, tokens: list[Token], file: str, source: str, diagnostics: list[Diagnostic]):
        # A second END token is added. No walk moves past the first, so
        # ``tokens[pos + 1]`` can index without a bounds check.
        self.tokens = [*tokens, tokens[-1]]
        self.source = source
        self.label = file
        self.diagnostics = diagnostics
        self.stack: list[tuple[TypeDecl, tuple | None]] = []
        self.brace_ends: dict[int, int] = {}  # '{' position -> position past its '}'

    def warn(self, line: int, message: str) -> None:
        self.diagnostics.append(warning(self.label, line, message))

    def err(self, line: int, message: str) -> None:
        self.diagnostics.append(error(self.label, line, message))

    # -- look-ahead helpers ----------------------------------------------

    def paren_end(self, pos: int) -> int:
        """Position past the ')' matching a '(' at ``pos``; ``pos`` if none is there.

        An unclosed '(' ends at the END token.
        """
        if self.tokens[pos][0] is not _PAREN_OPEN:
            return pos
        pos = self.walk_to(pos + 1, _PAREN_CLOSE_ENDS, _PARENS, braces=False)
        return pos + 1 if self.tokens[pos][0] is _PAREN_CLOSE else pos

    def annotation_end(self, pos: int) -> int:
        """Position past the annotation ``@Name`` or ``@Name(...)`` whose '@' is at ``pos``."""
        tokens = self.tokens
        pos += 1
        while tokens[pos][0] is _IDENTIFIER:
            pos += 1
            # A '.' with no name after it is not the annotation's: ``int @X ... r``.
            if tokens[pos][1] != "." or tokens[pos + 1][0] is not _IDENTIFIER:
                break
            pos += 1
        return self.paren_end(pos)

    def without_annotations(self, start: int, end: int) -> list[Token]:
        """``tokens[start:end]`` without the annotations among them.

        A signature leaves annotations out: ``int @X [] a`` declares
        ``int[] a``, ``java.util.@X List<T> f()`` returns ``java.util.List<T>``
        and ``void f(@X int a)`` logs ``void f(int a)``.
        """
        tokens = self.tokens
        if self.source.find("@", tokens[start][3], tokens[end - 1][4]) < 0:
            return tokens[start:end]
        kept: list[Token] = []
        resume = pos = start
        while pos < end:
            if tokens[pos][1] == "@":
                kept.extend(tokens[resume:pos])
                pos = resume = self.annotation_end(pos)
            else:
                pos += 1
        kept.extend(tokens[resume:end])
        return kept

    # -- skipping ----------------------------------------------------------

    def walk_to(
        self, pos: int, stops: frozenset, nests: tuple = ("", ""), anywhere: frozenset = _AT_END,
        braces: bool = True,
    ) -> int:
        """Position of the first token from ``pos`` whose text is in ``stops`` at depth 0.

        ``nests`` is ``(opens, closes)``, as ``_PARENS``: an opening bracket
        adds one to the depth, a closing one takes one off, clamped at 0 as
        in the lexer, so an unmatched ')' does not hide the stop behind it.
        At a depth above 0 only a text in ``anywhere``, a subset of
        ``stops``, ends the walk. A '{' that ends nothing is passed whole,
        with ``brace_end``, or read as a plain token if ``braces`` is
        False, as the lexer reads a '{' inside parentheses.
        """
        tokens = self.tokens
        opens, closes = nests
        depth = 0
        while True:
            text = tokens[pos][1]
            if text in (anywhere if depth else stops):
                return pos
            if text == "{" and braces:
                pos, _ = self.brace_end(pos)
                continue
            if text in opens:
                depth += 1
            elif depth and text in closes:
                depth -= 1
            pos += 1

    def brace_end(self, pos: int) -> tuple[int, bool]:
        """Position past the brace block whose '{' is at ``pos``, and False if it is unclosed.

        An unclosed block ends at the END token. Every brace block outside
        parentheses that the parser does not parse as a type body is passed
        with this, directly or through ``walk_to``, and a nested type body
        ends where this says. The walk records the end of every closed block
        it passes, and a recorded block is answered without one: an outer
        body is walked before the bodies in it, so no block is walked twice.
        Most blocks are bodies the lexer elided to '{' '}', answered first.
        """
        tokens = self.tokens
        if tokens[pos + 1][0] is _BRACE_CLOSE:
            return pos + 2, True
        ends = self.brace_ends
        end = ends.get(pos)
        if end is not None:
            return end, True
        opened: list[int] = []
        while True:
            kind = tokens[pos][0]
            if kind is _BRACE_OPEN:
                opened.append(pos)
            elif kind is _BRACE_CLOSE:
                ends[opened.pop()] = pos + 1
                if not opened:
                    return pos + 1, True
            elif kind is _END:
                return pos, False
            pos += 1

    def skip_declaration(self, pos: int) -> int:
        """Where the declaration at ``pos`` ends: past it, or at the '}' that closes the block.

        A declaration ends after a ';', or at a '}', at any depth of
        parentheses; or after a brace block outside them, such as the body
        of a malformed method. A brace block inside them, as in '@A({1})',
        ends nothing.
        """
        pos = self.walk_to(pos, _SKIP_ENDS, _PARENS, _DECLARATION_ENDS)
        text = self.tokens[pos][1]
        if text == "{":
            return self.brace_end(pos)[0]
        return pos + 1 if text == ";" else pos

    def skip_annotation(self, pos: int) -> int:
        """Position past the annotation, or the annotation type, whose '@' is at ``pos``.

        An annotation type's head ends as ``parse_type`` ends a type head.
        """
        tokens = self.tokens
        if tokens[pos + 1][1] != "interface":
            return self.annotation_end(pos)
        end = self.walk_to(pos, _MEMBER_ENDS if self.stack else _HEAD_ENDS, _PARENS, braces=False)
        kind = tokens[end][0]
        if kind is _BRACE_OPEN:
            return self.brace_end(end)[0]
        self.warn(tokens[pos][2], "annotation type without a body")
        return end + 1 if kind is _SEMICOLON else end

    def skip_modifiers(self, pos: int) -> tuple[int, bool]:
        """Position past modifiers, 'non-sealed' too, and annotations, and whether 'abstract' is one."""
        tokens = self.tokens
        is_abstract = False
        while True:
            text = tokens[pos][1]
            if text == "@":
                # The modifiers before an annotation type are its own.
                is_abstract = is_abstract and tokens[pos + 1][1] != "interface"
                pos = self.skip_annotation(pos)
            elif text in MODIFIER_WORDS:
                is_abstract = is_abstract or text == "abstract"
                pos += 1
            elif text == "non" and tokens[pos + 1][1] == "-" and tokens[pos + 2][1] == "sealed":
                pos += 3
            else:
                return pos, is_abstract

    # -- declarations ----------------------------------------------------

    def parse_unit_body(self, unit: SourceUnit) -> None:
        tokens = self.tokens
        pos = 0
        while True:
            kind, text, _, _, _ = tokens[pos]
            if kind is _END:
                return
            if kind is _SEMICOLON:
                pos += 1
                continue
            if text == "package" or text == "import":
                pos = self.skip_declaration(pos)
                continue
            if text == "@":
                pos = self.skip_annotation(pos)
                continue
            pos, _ = self.skip_modifiers(pos)
            kind, text, line, _, _ = tokens[pos]
            if text in TYPE_KEYWORDS:
                decl, pos = self.parse_type(pos)
                (unit.aspects if text == "aspect" else unit.classes).append(decl)
                pos = self.parse_members(pos)
            elif kind is _END:
                return
            else:
                end = self.module_end(pos)
                if end == pos:
                    self.err(line, f"unexpected token at top level: {text!r}")
                    # Recover at the next type keyword, at any depth of parentheses.
                    end = self.walk_to(pos, _RECOVERY_ENDS)
                pos = end

    def module_end(self, pos: int) -> int:
        """Position past ``[open] module a.b { ... }`` at ``pos``; ``pos`` if none is there.

        A module declaration, the content of ``module-info.java``, declares
        no type. An unclosed one is an error.
        """
        tokens = self.tokens
        end = pos + 1 if tokens[pos][1] == "open" else pos
        if tokens[end][1] != "module" or tokens[end + 1][0] is not _IDENTIFIER:
            return pos
        line = tokens[end][2]
        end += 2
        while tokens[end][1] == "." and tokens[end + 1][0] is _IDENTIFIER:
            end += 2
        if tokens[end][0] is not _BRACE_OPEN:
            return pos
        end, closed = self.brace_end(end)
        if not closed:
            self.err(line, "unclosed module declaration")
        return end

    def parse_type(self, pos: int) -> tuple[TypeDecl, int]:
        """Read the head of the type whose keyword is at ``pos``, and push its body.

        Returns the type and the position of its first member. The head
        ends at a '{' or ';' outside parentheses, or, inside a type body, at
        the '}' that closes that body, which is left to it. A head that ends
        anywhere but at a '{', the end of the file included, is warned
        about and the type is kept with no members. Every body is read in
        place from the file's one token list: the lexer keeps the tokens of
        each block after a type keyword. A top-level body ends where its
        members end. A nested one ends at its matching '}', as the lexer
        ends a body: what a member leaves open inside it ends there.
        """
        tokens = self.tokens
        _, word, line, _, _ = tokens[pos]
        kind, name, _, _, _ = tokens[pos + 1]
        if kind is _IDENTIFIER:
            pos += 2
        else:
            self.err(line, f"missing name after '{word}'")
            name = "<anonymous>"
            pos += 1
        # extends/implements/generics/per-clauses: everything up to the body.
        pos = self.walk_to(pos, _MEMBER_ENDS if self.stack else _HEAD_ENDS, _PARENS, braces=False)
        kind = tokens[pos][0]
        decl = TypeDecl(name=name, kind=word, line=line)
        if kind is not _BRACE_OPEN:
            self.warn(line, f"{word} without a body")
            return decl, pos + 1 if kind is _SEMICOLON else pos
        restore = None
        if self.stack:
            after, closed = self.brace_end(pos)
            restore = (after, tokens[after])
            if closed:
                _, _, close_line, _, end = tokens[after - 1]
                tokens[after] = (_END, "", close_line, end, end)
        self.stack.append((decl, restore))
        pos += 1  # past its '{'
        if word == "enum":
            pos = self.parse_enum_constants(pos, decl)
        return decl, pos

    def parse_enum_constants(self, pos: int, decl: TypeDecl) -> int:
        """Read the constants that open the body of the enum ``decl`` at ``pos``.

        Each constant is one attribute, as javac lists it: annotations, a
        name, an optional argument list and an optional body, which is
        passed whole. The list may end in a ','. It ends at a ';', which it
        takes, or at the '}' of the body. Returns where the members after
        it start. A list of any other shape is not read: ``pos`` comes
        back, and the member loop reads what is there as it reads members.
        """
        tokens = self.tokens
        constants: list[AttributeDecl] = []
        end = pos
        while True:
            while tokens[end][1] == "@":
                end = self.annotation_end(end)
            kind, name, line, _, _ = tokens[end]
            if kind is not _IDENTIFIER:
                return pos
            end = self.paren_end(end + 1)
            if tokens[end][0] is _BRACE_OPEN:
                end, closed = self.brace_end(end)
                if not closed:
                    return pos
            constants.append(AttributeDecl(name, decl.name, line))
            if tokens[end][1] == ",":
                end += 1
                if tokens[end][1] not in _ENUM_CONSTANTS_ENDS:
                    continue
            elif tokens[end][1] not in _ENUM_CONSTANTS_ENDS:
                return pos
            break
        decl.attributes += constants
        return end + 1 if tokens[end][0] is _SEMICOLON else end

    def parse_members(self, pos: int) -> int:
        """Read the members of the open type bodies, innermost first, until none is open.

        Returns the position past the outermost body.
        """
        tokens = self.tokens
        stack = self.stack
        while stack:
            container, restore = stack[-1]
            kind, text, line, _, _ = tokens[pos]
            if kind is _SEMICOLON:
                pos += 1
                continue
            if kind is _BRACE_CLOSE or kind is _END:
                if kind is _END:
                    self.err(line, f"unexpected end of file inside '{container.name}'")
                else:
                    pos += 1
                stack.pop()
                if restore is not None:
                    pos, saved = restore
                    tokens[pos] = saved
                continue
            if text == "@":
                pos = self.skip_annotation(pos)
                continue

            start = pos
            is_abstract = False
            while text in MODIFIER_WORDS:
                is_abstract = is_abstract or text == "abstract"
                pos += 1
                text = tokens[pos][1]
            if text == "@" or text == "non":  # from the member's start: '@interface', 'non-sealed'
                pos, is_abstract = self.skip_modifiers(start)
            kind, text, line, _, _ = tokens[pos]

            if kind is _KEYWORD:
                if text in _CLASS_KEYWORDS:
                    decl, pos = self.parse_type(pos)
                    container.nested.append(decl)
                    continue
                if text == "pointcut":
                    pos = self.parse_pointcut_member(pos, container, is_abstract)
                    continue
            elif kind is _IDENTIFIER and container.kind == "aspect":
                if (text == "before" or text == "after") and tokens[pos + 1][0] is _PAREN_OPEN:
                    pos = self.parse_advice(pos, container)
                    continue
                if text == "declare":
                    pos = self.skip_declaration(pos)
                    continue
            elif kind is _BRACE_OPEN:
                # Instance or static initializer block.
                pos, closed = self.brace_end(pos)
                if not closed:
                    self.err(line, "unclosed initializer block")
                continue

            # One step for the commonest shapes, ``T x;`` and ``T f(A a)`` with ``;``
            # or ``{}``, read as ``parse_member_tail`` reads them. A method named
            # 'around' needs no test: it is an advice only if a ':' follows its ')'.
            name_kind, name, name_line, _, _ = tokens[pos + 1]
            if (kind is _IDENTIFIER or kind is _KEYWORD) and name_kind is _IDENTIFIER:
                after = tokens[pos + 2][0]
                if after is _SEMICOLON:
                    container.attributes.append(AttributeDecl(name, text, name_line))
                    pos += 3
                    continue
                if after is _PAREN_OPEN:
                    close = pos + 3
                    kind, text, _, _, _ = tokens[close]
                    while kind is _IDENTIFIER or kind is _KEYWORD or text in _PARAMETER_MARKS:
                        close += 1
                        kind, text, _, _, _ = tokens[close]
                    after = tokens[close + 1][0]
                    if kind is _PAREN_CLOSE and (
                        after is _SEMICOLON or after is _BRACE_OPEN and tokens[close + 2][0] is _BRACE_CLOSE
                    ):
                        signature = _normalize_tokens(tokens[pos : close + 1])
                        container.methods.append(MethodDecl(name, signature, False, False, name_line))
                        pos = close + 2 if after is _SEMICOLON else close + 3
                        continue

            pos = self.parse_member_tail(pos, container)
        return pos

    def parse_pointcut_member(self, pos: int, container: TypeDecl, is_abstract: bool) -> int:
        tokens = self.tokens
        line = tokens[pos][2]  # 'pointcut'
        kind, name, _, _, _ = tokens[pos + 1]
        if kind is _IDENTIFIER:
            pos += 2
        else:
            self.err(line, "missing pointcut name")
            name = None
            pos += 1
        pos = self.paren_end(pos)
        text = tokens[pos][1]
        if text == ";":
            # Abstract pointcut: a declaration without an expression selects
            # nothing by itself, so it is not recorded.
            return pos + 1
        if text != ":":
            self.err(line, f"malformed pointcut declaration '{name}'")
            return self.skip_declaration(pos)
        start = pos + 1
        stop = self.walk_to(start, _MEMBER_ENDS, _PARENS, braces=False)
        if tokens[stop][0] is _SEMICOLON:
            pos = stop + 1
        else:
            pos = stop
            self.err(line, f"missing ';' after pointcut '{name}'")
        if not is_abstract:
            expr = parse_pointcut_expression(
                tokens[start : stop + 1], self.source, diagnostics=self.diagnostics, file=self.label, line=line
            )
            container.pointcuts.append(PointcutDecl(name=name, expression=expr, source_line=line))
        return pos

    def parse_advice(self, pos: int, container: TypeDecl) -> int:
        """Parse the advice whose 'before', 'after' or 'around' is at ``pos``."""
        tokens = self.tokens
        _, word, line, _, _ = tokens[pos]
        kind = _ADVICE_KINDS[word]
        pos = self.paren_end(pos + 1)
        if kind is AdviceKind.AFTER and tokens[pos][0] is _IDENTIFIER:
            text = tokens[pos][1]
            if text == "returning":
                kind = AdviceKind.AFTER_RETURNING
                pos += 1
            elif text == "throwing":
                kind = AdviceKind.AFTER_THROWING
                pos += 1
            pos = self.paren_end(pos)
        if tokens[pos][1] == "throws":
            pos = self.walk_to(pos, _ADVICE_HEAD_ENDS)
        if tokens[pos][1] != ":":
            self.err(line, f"malformed {word} advice (missing ':')")
            return self.skip_declaration(pos)
        start = pos + 1
        stop = self.walk_to(start, _MEMBER_ENDS, _PARENS, braces=False)
        stop_kind = tokens[stop][0]
        if stop_kind is _BRACE_OPEN:
            pos, closed = self.brace_end(stop)
            if not closed:
                self.err(line, "unclosed advice body")
        else:
            self.warn(line, f"{word} advice without a body")
            pos = stop + 1 if stop_kind is _SEMICOLON else stop
        expr = parse_pointcut_expression(
            tokens[start : stop + 1], self.source, diagnostics=self.diagnostics, file=self.label, line=line
        )
        container.advices.append(AdviceDecl(kind=kind, expression=expr, source_line=line))
        return pos

    def parse_member_tail(self, pos: int, container: TypeDecl) -> int:
        tokens = self.tokens
        start = pos
        angle_depth = 0
        while True:
            kind, text, line, _, _ = tokens[pos]
            if kind is _OPERATOR:
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
                if container.kind == "aspect" and text == "around" and tokens[pos + 1][0] is _PAREN_OPEN:
                    # An advice if a ':' follows; the head tokens before are its return type.
                    if tokens[self.walk_to(self.paren_end(pos + 1), _ADVICE_HEAD_ENDS)][1] == ":":
                        return self.parse_advice(pos, container)
            elif kind is _PAREN_OPEN:
                if angle_depth == 0:
                    return self.finish_method(pos, container, self.without_annotations(start, pos))
            elif kind is _SEMICOLON or text == ",":
                if angle_depth == 0:
                    break
            elif text == "@":
                pos = self.annotation_end(pos)
                continue
            elif kind is _BRACE_OPEN:
                self.warn(line, "unexpected '{' in member declaration")
                return self.brace_end(pos)[0]
            elif kind is _BRACE_CLOSE or kind is _END:
                if pos > start:
                    self.err(line, "dangling member declaration")
                return pos
            elif text == ":":
                self.warn(line, "unexpected ':' in member declaration")
                return self.skip_declaration(pos)
            pos += 1
        return self.finish_field(pos, container, self.without_annotations(start, pos))

    def finish_method(self, pos: int, container: TypeDecl, head: list[Token]) -> int:
        """Finish the method or constructor whose parameter list opens at ``pos``."""
        tokens = self.tokens
        type_tokens, name_tokens = _split_member_name(head)
        if not name_tokens:
            self.err(tokens[pos][2], "method declaration without a name")
            return self.skip_declaration(self.paren_end(pos))
        name = "".join(tok[1] for tok in name_tokens)
        simple = name.rsplit(".", 1)[-1]
        is_intertype = "." in name
        is_constructor = simple == "new" or (not type_tokens and simple == container.name)
        end = self.paren_end(pos)
        # C-style array return: ``int f()[]`` is ``int[] f()``.
        while tokens[end][1] == "[" and tokens[end + 1][1] == "]":
            end += 2
        params = self.without_annotations(pos, end)
        signature = _normalize_tokens(type_tokens + name_tokens + params)
        line = name_tokens[0][2]
        pos = end
        if tokens[pos][1] == "throws":
            pos = self.walk_to(pos, _MEMBER_ENDS)
        kind, text, _, _, _ = tokens[pos]
        if kind is _BRACE_OPEN:
            pos, closed = self.brace_end(pos)
            if not closed:
                self.err(line, f"unclosed body of '{name}'")
        elif kind is _SEMICOLON:
            pos += 1
        else:
            if text == ":":
                self.warn(line, f"unexpected ':' after member '{name}'")
            else:
                self.err(line, f"malformed declaration of '{name}'")
            return self.skip_declaration(pos)
        container.methods.append(
            MethodDecl(
                name=name,
                signature_text=signature,
                is_constructor=is_constructor,
                is_intertype=is_intertype,
                line=line,
            )
        )
        return pos

    def finish_field(self, pos: int, container: TypeDecl, head: list[Token]) -> int:
        tokens = self.tokens
        # C-style array declarators, as javac reads them: ``int c[][], d;``
        # declares ``int[][] c`` and ``int d``.
        dims = 0
        while len(head) > 2 and head[-1][1] == "]" and head[-2][1] == "[":
            head = head[:-2]
            dims += 1
        if not head or head[-1][0] is not _IDENTIFIER:
            self.warn(tokens[pos][2], "unrecognized member declaration")
            return self.skip_declaration(pos)
        declared_type = _normalize_tokens(head[:-1])
        names: list[tuple[str, int, int]] = [(head[-1][1], head[-1][2], dims)]
        while True:
            kind, text, line, _, _ = tokens[pos]
            if kind is _SEMICOLON:
                pos += 1
                break
            if text == "=":
                # '{' is passed whole, so a '}' closes only a '(' or '[' left open.
                pos = self.walk_to(pos + 1, _INITIALIZER_ENDS, ("([{", ")]}"))
                continue
            if text == ",":
                nxt = tokens[pos + 1]
                if nxt[0] is _IDENTIFIER:
                    pos += 2
                    dims = 0
                    while True:
                        if tokens[pos][1] == "@":
                            pos = self.annotation_end(pos)
                        elif tokens[pos][1] == "[" and tokens[pos + 1][1] == "]":
                            pos += 2
                            dims += 1
                        else:
                            break
                    names.append((nxt[1], nxt[2], dims))
                    continue
                self.warn(line, "missing declarator after ','")
                pos = self.skip_declaration(pos + 1)
                break
            if kind is _BRACE_OPEN:
                self.warn(line, "unexpected '{' in member declaration")
                pos, _ = self.brace_end(pos)
                break
            if kind is _BRACE_CLOSE or kind is _END:
                self.warn(line, "unterminated field declaration")
                break
            if text == ":":
                self.warn(line, "unexpected ':' in member declaration")
                pos = self.skip_declaration(pos)
                break
            # Other trailing tokens on the declarator.
            pos += 1
        for name, line, dims in names:
            container.attributes.append(
                AttributeDecl(name=name, declared_type=declared_type + "[]" * dims, line=line)
            )
        return pos


def parse_unit(
    tokens: list[Token],
    file: str,
    source: str,
    lex_diagnostics: list[Diagnostic] | None = None,
) -> SourceUnit:
    """Parse a token stream into a SourceUnit of declaration signatures.

    ``tokens`` ends with one END token, as ``tokenize`` returns it.
    """
    parser = _DeclParser(tokens, file, source, [*(lex_diagnostics or ())])
    unit = SourceUnit(file=file)
    parser.parse_unit_body(unit)

    class_names = {c.name for c in unit.classes}
    for aspect in unit.aspects:
        if aspect.name in class_names:
            parser.warn(
                aspect.line, f"'{aspect.name}' declared as both class and aspect"
            )
    unit.parse_diagnostics = parser.diagnostics
    return unit


def parse_source(text: str, file: str) -> SourceUnit:
    """Tokenize and parse one file's text; ``file`` is the path its diagnostics name."""
    tokens, lex_diags = tokenize(text, file=file)
    return parse_unit(tokens, file, text, lex_diagnostics=lex_diags)


def walk_classes(unit: SourceUnit):
    """Yield (qualified name, TypeDecl) pairs for every type but the top-level aspects.

    Depth first in source order: each top-level class and the classes in it,
    then those in each aspect.
    """
    stack = [(aspect.name + ".", cls) for aspect in reversed(unit.aspects) for cls in reversed(aspect.nested)]
    stack += [("", cls) for cls in reversed(unit.classes)]
    while stack:
        prefix, decl = stack.pop()
        qualified = prefix + decl.name
        yield qualified, decl
        stack += [(qualified + ".", inner) for inner in reversed(decl.nested)]


def walk_types(unit: SourceUnit):
    """Yield (qualified name, TypeDecl) pairs for every type: the top-level
    aspects, then what ``walk_classes`` yields."""
    for aspect in unit.aspects:
        yield aspect.name, aspect
    yield from walk_classes(unit)
