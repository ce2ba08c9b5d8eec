from __future__ import annotations

import reference_lexer
from aometrics.diagnostics import Severity
from aometrics.lexer import TokenKind, tokenize
from helpers import TEST_FIXTURES


def kinds_and_texts(tokens):
    return [(kind, text) for kind, text, _, _, _ in tokens if kind is not TokenKind.END]


def _designators(tokens):
    return [text for kind, text, _, _, _ in tokens if kind is TokenKind.DESIGNATOR]


def test_line_comment_elided():
    tokens, diags = tokenize("// class Fake\nclass Real {}")
    words = [text for kind, text, _, _, _ in tokens if kind is TokenKind.KEYWORD]
    assert words == ["class"]
    assert not diags


def test_string_elided():
    tokens, _ = tokenize('String s = "aspect";')
    assert all(text != "aspect" for _, text, _, _, _ in tokens)


def test_block_comment_spanning_lines():
    tokens, diags = tokenize("/* aspect A {\n pointcut p(); } */ class B {}")
    keywords = [text for kind, text, _, _, _ in tokens if kind is TokenKind.KEYWORD]
    assert keywords == ["class"]
    assert not diags


def test_char_literal_elided():
    tokens, _ = tokenize("char c = 'x';")
    assert "x" not in [text for _, text, _, _, _ in tokens]


def test_line_numbers_non_decreasing():
    tokens, _ = tokenize("class A {\n  int x;\n}\n")
    lines = [line for _, _, line, _, _ in tokens]
    assert lines == sorted(lines)
    assert tokens[0][2] == 1
    assert any(text == "x" and line == 2 for _, text, line, _, _ in tokens)


def test_unterminated_string_reports_and_continues():
    tokens, diags = tokenize('class A { String s = "oops\n int x; }')
    assert any(d.severity is Severity.ERROR and "string" in d.message for d in diags)
    # Tokenization resumed on the next line.
    assert any(text == "x" for _, text, _, _, _ in tokens)


def test_unterminated_block_comment_reports():
    _, diags = tokenize("class A {} /* never closed")
    assert any("comment" in d.message for d in diags)


def test_offsets_slice_source():
    src = "pointcut p(): call(void A.g());"
    tokens, _ = tokenize(src)
    for kind, text, _, start, end in tokens:
        if kind is not TokenKind.END:
            assert src[start:end] == text


def test_fixture_token_count_matches_hand_count():
    # Hand-tokenized once: 41 tokens before the end-of-stream marker, 6 of
    # them inside the advice body, which ``tokenize`` elides. The pointcut's
    # ``execution(* *.login(..))`` is one DESIGNATOR token in place of 11
    # (execution ( * * . login ( . . ) )), so 41 - 6 - 10 = 25 remain.
    text = (TEST_FIXTURES / "one_aspect" / "V1" / "Logging.aj").read_text(encoding="utf-8")
    full, full_diags = reference_lexer.tokenize(text)
    assert not full_diags
    assert len(full) == 42  # 41 + END
    tokens, diags = tokenize(text)
    assert not diags
    assert len(tokens) == 26  # 25 + END
    assert _designators(tokens) == ["execution(* *.login(..))"]
    assert tokens[-1][0] is TokenKind.END
    body = [text for _, text, line, _, _ in tokens if line in (6, 7, 8)]
    assert body == ["before", "(", ")", ":", "loginFlow", "(", ")", "{", "}"]


def test_byte_order_mark_skipped_and_offsets_slice_source():
    text = (TEST_FIXTURES / "bom" / "V" / "Account.java").read_text(encoding="utf-8")
    assert text.startswith("\ufeff")
    tokens, diags = tokenize(text)
    assert not diags
    assert tokens[0][1:4] == ("package", 1, 1)
    for _, word, _, start, end in tokens[:-1]:
        assert text[start:end] == word


def test_byte_order_mark_only_skipped_at_offset_zero():
    tokens, _ = tokenize("class A {}\ufeff")
    assert tokens[-2][1] == "\ufeff"


def test_text_block_elided_and_its_newlines_counted():
    text = (TEST_FIXTURES / "text_block" / "V" / "Banner.java").read_text(encoding="utf-8")
    tokens, diags = tokenize(text)
    assert not diags
    texts = [word for _, word, _, _, _ in tokens]
    assert "aspect" not in texts and "pointcut" not in texts and "Fake" not in texts
    assert texts.count("{") == texts.count("}") == 2
    lines = {}
    for _, word, line, _, _ in tokens:
        lines.setdefault(word, line)
    assert (lines["art"], lines["render"], lines["width"]) == (2, 7, 8)


def test_text_block_escaped_quote_does_not_close_it():
    tokens, diags = tokenize('s = """\n  a \\""" b\n  """; int x;')
    assert not diags
    assert [text for _, text, _, _, _ in tokens[:-1]] == ["s", "=", ";", "int", "x", ";"]
    assert tokens[-2][2] == 3


def test_unterminated_text_block_is_one_error_at_its_opening_line():
    tokens, diags = tokenize('class A {\n  String s = """\n  x\n  "\n}\n')
    assert [(d.line, d.message) for d in diags] == [(2, "unterminated text block")]
    assert [text for _, text, _, _, _ in tokens[:-1]] == ["class", "A", "{", "String", "s", "="]
    assert tokens[-1][2] == 6


def test_pattern_designators_in_expression_mode_are_one_token_each():
    src = (
        "aspect A {\n  pointcut p(): call(void A.g()) && !within(a..*) || this(T)\n"
        "    && cflow(execution(* *(int[], ..))) && args(a, b) && staticinitialization(B);\n"
        "  before(): get(int *.x) { set(y); }\n}"
    )
    tokens, diags = tokenize(src)
    assert not diags
    assert _designators(tokens) == [
        "call(void A.g())", "within(a..*)", "this(T)", "execution(* *(int[], ..))",
        "args(a, b)", "staticinitialization(B)", "get(int *.x)",
    ]
    for kind, text, line, start, end in tokens[:-1]:
        assert src[start:end] == text
        assert line == src.count("\n", 0, start) + 1


def test_words_glued_to_a_dot_or_at_sign_and_other_designators_keep_their_tokens():
    tokens, _ = tokenize(
        "aspect A { pointcut p(): Base.call() && X.within() && @within(A) && cflow(p()) && if(x > 0); }"
    )
    assert _designators(tokens) == []
    tokens, _ = tokenize("aspect A { pointcut p(): cflow(call(* f())) && if(x > 0); }")
    assert _designators(tokens) == ["call(* f())"]
    assert [text for _, text, _, _, _ in tokens][-9:-2] == ["if", "(", "x", ">", "0", ")", ";"]


def test_expression_mode_opens_at_a_colon_at_depth_0_and_closes_at_a_separator():
    cases = {
        "int y = c ? a : get(b); void set(int v) {}": ["get(b)"],
        "f(c ? a : get(b)) set(x)": [],  # the ':' is inside parentheses
        "x : a, call(b)": [],  # a ',' closes it
        "x : (a; call(b))": [],  # so does a ';', '{' or '}' at any depth
        "x : ({ call(b)": [],
        'declare warning: call(* *(..)) : "m"; call(x)': ["call(* *(..))"],
        "before(): call(a) { } call(b)": ["call(a)"],
    }
    for src, expected in cases.items():
        tokens, _ = tokenize(f"aspect A {{ {src} }}")
        assert _designators(tokens) == expected, src
    # Outside a type body no ':' at depth 0 is valid, and none opens it.
    tokens, _ = tokenize("x : call(b)")
    assert _designators(tokens) == []


def test_arguments_a_bounded_match_cannot_read_keep_their_tokens():
    for argument in ("* f(/* c */ int)", '"x"', "* f(int,\n long)", "* f(g(h(x)))", "a[0]", "* f() // c\n"):
        src = f"aspect A {{ pointcut p(): call({argument}) && within(A); }}"
        full, _ = reference_lexer.tokenize(src)
        tokens, _ = tokenize(src)
        assert _designators(tokens) == (["within(A)"] if "," not in argument else []), argument
        call = [tok for tok in tokens if tok[3] < src.index(" && ")]
        assert call == [tok for tok in full if tok[3] < src.index(" && ")], argument


def test_blocks_after_a_type_keyword_keep_their_tokens():
    # A nested class body keeps its tokens. The body after 'within(class)'
    # is '{' '}': the keyword is inside the DESIGNATOR token.
    tokens, _ = tokenize("aspect A { class B { int y; } before(): within(class) { int x; } }")
    assert _designators(tokens) == ["within(class)"]
    assert [text for _, text, _, _, _ in tokens][:-1] == [
        "aspect", "A", "{", "class", "B", "{", "int", "y", ";", "}",
        "before", "(", ")", ":", "within(class)", "{", "}", "}",
    ]


def test_only_type_bodies_keep_their_tokens_inside_a_type_body():
    def texts(member):
        tokens, _ = tokenize(f"class O {{ {member} int z; }}")
        return [text for _, text, _, _, _ in tokens][3:-5]  # between "class O {" and "int z; }"

    for head in ("class N", "interface N", "enum N", "aspect N", "@interface N", "static final class N<T>"):
        assert texts(f"{head} {{ int y; }}")[-5:] == ["{", "int", "y", ";", "}"], head
    elided = {
        "void f() { int y; }": ["void", "f", "(", ")", "{", "}"],  # a method body
        "enum E { A { int y; }, B; }": ["enum", "E", "{", "A", "{", "}", ",", "B", ";", "}"],
        "Object o = new Object() { int y; };": ["Object", "o", "=", "new", "Object", "(", ")", "{", "}", ";"],
        "Object o = X.class; { int y; }": ["Object", "o", "=", "X", ".", "class", ";", "{", "}"],
    }
    for member, expected in elided.items():
        assert texts(member) == expected, member


def test_a_class_literal_opens_no_type_body():
    # 'E.class' is a class literal, so the body of t is '{' '}'; a type
    # keyword after it still opens the nested body that follows.
    tokens, _ = tokenize("class O { @Test(expected = E.class) void t() { int y = 1; g(); } int z; }")
    assert [text for _, text, _, _, _ in tokens][3:-5] == [
        "@", "Test", "(", "expected", "=", "E", ".", "class", ")", "void", "t", "(", ")", "{", "}",
    ]
    tokens, _ = tokenize("class O { @RunWith(X.class) static class I { int q; } }")
    assert [text for _, text, _, _, _ in tokens][-9:-2] == ["class", "I", "{", "int", "q", ";", "}"]
