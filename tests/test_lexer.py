from __future__ import annotations

import reference_lexer
from aometrics.diagnostics import Severity
from aometrics.lexer import TokenKind, tokenize
from helpers import TEST_FIXTURES


def kinds_and_texts(tokens):
    return [(t.kind, t.text) for t in tokens if t.kind is not TokenKind.END]


def test_line_comment_elided():
    tokens, diags = tokenize("// class Fake\nclass Real {}")
    words = [t.text for t in tokens if t.kind is TokenKind.KEYWORD]
    assert words == ["class"]
    assert not diags


def test_string_elided():
    tokens, _ = tokenize('String s = "aspect";')
    assert all(t.text != "aspect" for t in tokens)


def test_block_comment_spanning_lines():
    tokens, diags = tokenize("/* aspect A {\n pointcut p(); } */ class B {}")
    keywords = [t.text for t in tokens if t.kind is TokenKind.KEYWORD]
    assert keywords == ["class"]
    assert not diags


def test_char_literal_elided():
    tokens, _ = tokenize("char c = 'x';")
    assert "x" not in [t.text for t in tokens]


def test_line_numbers_non_decreasing():
    tokens, _ = tokenize("class A {\n  int x;\n}\n")
    lines = [t.line for t in tokens]
    assert lines == sorted(lines)
    assert tokens[0].line == 1
    assert any(t.text == "x" and t.line == 2 for t in tokens)


def test_unterminated_string_reports_and_continues():
    tokens, diags = tokenize('class A { String s = "oops\n int x; }')
    assert any(d.severity is Severity.ERROR and "string" in d.message for d in diags)
    # Tokenization resumed on the next line.
    assert any(t.text == "x" for t in tokens)


def test_unterminated_block_comment_reports():
    _, diags = tokenize("class A {} /* never closed")
    assert any("comment" in d.message for d in diags)


def test_offsets_slice_source():
    src = "pointcut p(): call(void A.g());"
    tokens, _ = tokenize(src)
    for tok in tokens:
        if tok.kind is not TokenKind.END:
            assert src[tok.start : tok.end] == tok.text


def test_fixture_token_count_matches_hand_count():
    # Hand-tokenized once: 41 tokens before the end-of-stream marker, 6 of
    # them inside the advice body, which ``tokenize`` elides.
    text = (TEST_FIXTURES / "one_aspect" / "V1" / "Logging.aj").read_text(encoding="utf-8")
    full, full_diags = reference_lexer.tokenize(text)
    assert not full_diags
    assert len(full) == 42  # 41 + END
    tokens, diags = tokenize(text)
    assert not diags
    assert len(tokens) == 36  # 35 + END
    assert tokens[-1].kind is TokenKind.END
    body = [t.text for t in tokens if t.line in (6, 7, 8)]
    assert body == ["before", "(", ")", ":", "loginFlow", "(", ")", "{", "}"]


def test_byte_order_mark_skipped_and_offsets_slice_source():
    text = (TEST_FIXTURES / "bom" / "V" / "Account.java").read_text(encoding="utf-8")
    assert text.startswith("\ufeff")
    tokens, diags = tokenize(text)
    assert not diags
    assert (tokens[0].text, tokens[0].line, tokens[0].start) == ("package", 1, 1)
    for tok in tokens[:-1]:
        assert text[tok.start : tok.end] == tok.text


def test_byte_order_mark_only_skipped_at_offset_zero():
    tokens, _ = tokenize("class A {}\ufeff")
    assert tokens[-2].text == "\ufeff"


def test_text_block_elided_and_its_newlines_counted():
    text = (TEST_FIXTURES / "text_block" / "V" / "Banner.java").read_text(encoding="utf-8")
    tokens, diags = tokenize(text)
    assert not diags
    texts = [t.text for t in tokens]
    assert "aspect" not in texts and "pointcut" not in texts and "Fake" not in texts
    assert texts.count("{") == texts.count("}") == 2
    lines = {}
    for tok in tokens:
        lines.setdefault(tok.text, tok.line)
    assert (lines["art"], lines["render"], lines["width"]) == (2, 7, 8)


def test_text_block_escaped_quote_does_not_close_it():
    tokens, diags = tokenize('s = """\n  a \\""" b\n  """; int x;')
    assert not diags
    assert [t.text for t in tokens[:-1]] == ["s", "=", ";", "int", "x", ";"]
    assert tokens[-2].line == 3


def test_unterminated_text_block_is_one_error_at_its_opening_line():
    tokens, diags = tokenize('class A {\n  String s = """\n  x\n  "\n}\n')
    assert [(d.line, d.message) for d in diags] == [(2, "unterminated text block")]
    assert [t.text for t in tokens[:-1]] == ["class", "A", "{", "String", "s", "="]
    assert tokens[-1].line == 6
