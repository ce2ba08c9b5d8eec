"""Test-only oracle: the original char-by-char Java/AspectJ tokenizer.

``aometrics.lexer.tokenize`` replaced this loop with one compiled regular
expression. The differential property in ``test_lexer_differential.py``
checks that both give the same tokens, lines, offsets and diagnostics.
Nothing under ``src/`` imports this module.
"""

from __future__ import annotations

from dataclasses import dataclass

from aometrics.diagnostics import Diagnostic, error
from aometrics.lexer import KEYWORDS, TokenKind

_TWO_CHAR_OPERATORS = {
    "&&", "||", "==", "!=", "<=", ">=", "+=", "-=", "*=", "/=", "%=",
    "&=", "|=", "^=", "<<", ">>", "++", "--", "->", "::",
}


@dataclass(frozen=True)
class Token:
    kind: TokenKind
    text: str
    line: int
    start: int = 0
    end: int = 0


def _is_ident_start(ch: str) -> bool:
    return ch.isalpha() or ch in "_$"


def _is_ident_part(ch: str) -> bool:
    return ch.isalnum() or ch in "_$"


def tokenize(text: str, *, file: str = "<source>") -> tuple[list[Token], list[Diagnostic]]:
    """Tokenize ``text``, eliding comments and string/char literals."""
    tokens: list[Token] = []
    diagnostics: list[Diagnostic] = []
    i = 0
    line = 1
    n = len(text)

    def emit(kind: TokenKind, start: int, end: int, at_line: int) -> None:
        tokens.append(Token(kind, text[start:end], at_line, start, end))

    while i < n:
        ch = text[i]

        if ch == "\n":
            line += 1
            i += 1
            continue
        if ch.isspace():
            i += 1
            continue

        if ch == "/" and i + 1 < n and text[i + 1] == "/":
            while i < n and text[i] != "\n":
                i += 1
            continue

        if ch == "/" and i + 1 < n and text[i + 1] == "*":
            start_line = line
            i += 2
            closed = False
            while i < n:
                if text[i] == "\n":
                    line += 1
                elif text[i] == "*" and i + 1 < n and text[i + 1] == "/":
                    i += 2
                    closed = True
                    break
                i += 1
            if not closed:
                diagnostics.append(error(file, start_line, "unterminated block comment"))
            continue

        if ch == '"' or ch == "'":
            quote = ch
            start_line = line
            i += 1
            closed = False
            while i < n:
                c = text[i]
                if c == "\\" and i + 1 < n:
                    i += 2
                    continue
                if c == quote:
                    i += 1
                    closed = True
                    break
                if c == "\n":
                    # Recover at the next line; the literal is invalid anyway.
                    break
                i += 1
            if not closed:
                kind_name = "string" if quote == '"' else "character"
                diagnostics.append(error(file, start_line, f"unterminated {kind_name} literal"))
            continue

        if _is_ident_start(ch):
            start = i
            while i < n and _is_ident_part(text[i]):
                i += 1
            word = text[start:i]
            kind = TokenKind.KEYWORD if word in KEYWORDS else TokenKind.IDENTIFIER
            emit(kind, start, i, line)
            continue

        if ch.isdigit():
            start = i
            i += 1
            while i < n and (_is_ident_part(text[i]) or (text[i] == "." and i + 1 < n and text[i + 1].isdigit())):
                i += 1
            emit(TokenKind.PUNCT, start, i, line)
            continue

        if ch == "{":
            emit(TokenKind.BRACE_OPEN, i, i + 1, line)
            i += 1
            continue
        if ch == "}":
            emit(TokenKind.BRACE_CLOSE, i, i + 1, line)
            i += 1
            continue
        if ch == "(":
            emit(TokenKind.PAREN_OPEN, i, i + 1, line)
            i += 1
            continue
        if ch == ")":
            emit(TokenKind.PAREN_CLOSE, i, i + 1, line)
            i += 1
            continue
        if ch == ";":
            emit(TokenKind.SEMICOLON, i, i + 1, line)
            i += 1
            continue

        pair = text[i : i + 2]
        if pair in _TWO_CHAR_OPERATORS:
            emit(TokenKind.OPERATOR, i, i + 2, line)
            i += 2
            continue
        if ch in "&|!<>=+-*/%^~?":
            emit(TokenKind.OPERATOR, i, i + 1, line)
            i += 1
            continue

        # ., ,, :, @, [, ] and anything exotic
        emit(TokenKind.PUNCT, i, i + 1, line)
        i += 1

    tokens.append(Token(TokenKind.END, "", line, n, n))
    return tokens, diagnostics
