"""No input makes parsing, measuring or logging raise.

Each input goes through ``parse_source``, ``measure_version`` and
``write_log``: token soup over a Java/AspectJ vocabulary, fixture files
cut short or with one character deleted at drawn offsets, and forms
nested thousands deep. ``test_metrics.py`` covers the other deep forms:
parentheses and '!' in pointcuts (``test_deeply_nested_pointcuts_*``)
and type declarations (``test_classes_nested_1000_deep_are_each_measured``).
A long unclosed body must also lex in linear time.
"""

from __future__ import annotations

import time

from hypothesis import given, settings
from hypothesis import strategies as st

from aometrics import default_weights, measure_version, parse_source
from aometrics.lexer import TokenKind, tokenize
from aometrics.report import write_log
from helpers import MINI_UAS, TEST_FIXTURES

W = default_weights()


def _measure_and_log(text: str):
    """The metrics of ``text`` as one file; its log is written and dropped."""
    unit = parse_source(text, "F.aj")
    metrics = measure_version("v", [unit], W)
    write_log([unit], metrics)
    return metrics


_VOCABULARY = [
    "class", "interface", "enum", "aspect", "@interface", "privileged", "abstract",
    "static", "final", "public", "private", "extends", "implements", "throws",
    "package", "import", "module", "open", "new", "void", "int", "String", "A", "B",
    "x", "f", "pointcut", "before", "after", "around", "returning", "throwing",
    "declare", "warning", "parents", "call", "execution", "within", "withincode",
    "get", "set", "args", "this", "target", "cflow", "cflowbelow", "handler",
    "{", "}", "(", ")", "[", "]", "<", ">", ">>", ";", ",", ":", ".", "..", "*",
    "+", "=", "?", "!", "&&", "||", "@", "//", "/*", "*/", '"', "'", "\n",
    "call(* *(..))", "within(A)", "p()", "int[] a",
]

_soup = st.lists(st.sampled_from(_VOCABULARY), max_size=60).map(" ".join)


@settings(max_examples=1500, deadline=None)
@given(_soup)
def test_token_soup_never_raises(text):
    _measure_and_log(text)


_FIXTURE_TEXTS = [
    path.read_text(encoding="utf-8", errors="replace")
    for root in (MINI_UAS, TEST_FIXTURES)
    for path in sorted(root.rglob("*"))
    if path.suffix in (".java", ".aj")
]


@settings(max_examples=1000, deadline=None)
@given(st.sampled_from(_FIXTURE_TEXTS), st.floats(0, 1, exclude_max=True), st.booleans())
def test_cut_or_damaged_fixture_files_never_raise(text, where, delete_one):
    offset = int(where * len(text))
    _measure_and_log(text[:offset] + text[offset + 1 :] if delete_one else text[:offset])


_DEPTH = 3000


def _deep_forms() -> dict[str, str]:
    refs = "".join(f"  pointcut p{i}(): p{i - 1}();\n" for i in range(1, _DEPTH))
    return {
        "&& and || chain": "aspect S { pointcut p(): "
        + " || ".join(f"within(A{i}) && call(* f{i}(..))" for i in range(_DEPTH))
        + "; before(): p() {} }",
        "cflow nest": "aspect S { before(): "
        + "cflow(" * _DEPTH + "call(* f(..))" + ")" * _DEPTH
        + " {} }",
        "named reference chain": "aspect S {\n  pointcut p0(): call(* f(..));\n"
        + refs + f"  before(): p{_DEPTH - 1}() {{}}\n}}",
        "nested annotations": "class C { " + "@A(" * _DEPTH + ")" * _DEPTH + " int x; }",
        "generics": "class C { " + "List<" * _DEPTH + "T" + ">" * _DEPTH + " x; }",
        "initializer blocks": "class C { " + "{ " * _DEPTH + "}" * _DEPTH + " int x; }",
        "array dimensions": "class C { int" + "[]" * _DEPTH + " x; int y" + "[]" * _DEPTH + "; }",
        "anonymous classes": "class C { Object o = "
        + "new Object() { Object o = " * 300 + "null" + "; }" * 300
        + "; int x; }",
    }


def test_deeply_nested_forms_are_measured_without_a_diagnostic():
    for name, text in _deep_forms().items():
        assert _measure_and_log(text).diagnostics == [], name


def test_an_unclosed_body_of_hidden_braces_lexes_in_linear_time():
    # Every line hides braces in a literal, a character, a closed comment
    # and a line comment, and the body never closes, so its scan runs to
    # the end of the text. It takes about 0.04 s; a scan that backtracks
    # over earlier lines would take minutes.
    line = "x = f(\"a}b\", '{') /* } */ + g(); // {\n"
    text = "class A { void f() {\n" + line * 20_000
    start = time.perf_counter()
    tokens, diagnostics = tokenize(text, file="F.java")
    assert time.perf_counter() - start < 2.0
    assert diagnostics == []
    assert [tok[1] for tok in tokens] == ["class", "A", "{", "void", "f", "(", ")", "{", ""]
    assert tokens[-1][0] is TokenKind.END and tokens[-1][2] == 20_002
