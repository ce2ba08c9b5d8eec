from __future__ import annotations

import json

from aometrics import AdviceKind, default_weights, measure_version, parse_source
from aometrics.diagnostics import Severity
from aometrics.parser import walk_classes
from aometrics.pointcuts import NamedRef, Primitive
from aometrics.report import write_log
from helpers import MINI_UAS


def test_simple_class():
    unit = parse_source("class A { int x; void f() {} }", "A.java")
    assert len(unit.classes) == 1
    cls = unit.classes[0]
    assert cls.name == "A"
    assert [a.name for a in cls.attributes] == ["x"]
    assert [m.name for m in cls.methods] == ["f"]
    assert not unit.parse_diagnostics


def test_one_line_aspect():
    unit = parse_source(
        "aspect L { pointcut p(): execution(* *.login(..)); before(): p() {} }",
        "L.aj",
    )
    assert len(unit.aspects) == 1
    aspect = unit.aspects[0]
    assert [pc.name for pc in aspect.pointcuts] == ["p"]
    assert [ad.kind for ad in aspect.advices] == [AdviceKind.BEFORE]
    assert aspect.methods == []


def test_multi_declarator_fields():
    unit = parse_source("class A { int a, b; String s = \"x\", t; }", "A.java")
    names = [a.name for a in unit.classes[0].attributes]
    assert names == ["a", "b", "s", "t"]
    assert unit.classes[0].attributes[0].declared_type == "int"


def test_constructor_flagged():
    unit = parse_source("class A { A() {} void f() {} }", "A.java")
    methods = unit.classes[0].methods
    assert [(m.name, m.is_constructor) for m in methods] == [("A", True), ("f", False)]


def test_intertype_method():
    unit = parse_source(
        "aspect T { public void pkg.Target.extra() {} }", "T.aj"
    )
    method = unit.aspects[0].methods[0]
    assert method.name == "pkg.Target.extra"
    assert method.is_intertype
    assert not method.is_constructor


def test_intertype_constructor_excluded_from_methods_count():
    unit = parse_source("aspect T { pkg.Target.new(int a) {} }", "T.aj")
    method = unit.aspects[0].methods[0]
    assert method.is_constructor


def test_nested_class():
    unit = parse_source(
        "class Outer { int x; class Inner { void f() {} } void g() {} }",
        "O.java",
    )
    outer = unit.classes[0]
    assert [m.name for m in outer.methods] == ["g"]
    assert [c.name for c in outer.nested] == ["Inner"]
    assert [m.name for m in outer.nested[0].methods] == ["f"]


def test_interface_and_enum_count_as_classes():
    unit = parse_source(
        "interface I { void f(); int g(); } enum E { A, B; void h() {} }",
        "IE.java",
    )
    assert [c.name for c in unit.classes] == ["I", "E"]
    iface, enum = unit.classes
    assert iface.kind == "interface"
    assert len(iface.methods) == 2
    assert enum.kind == "enum"
    # Enum constants are recorded as attributes.
    assert [a.name for a in enum.attributes] == ["A", "B"]
    assert [m.name for m in enum.methods] == ["h"]


def _types(source: str) -> dict:
    unit = parse_source(source, "E.java")
    assert unit.parse_diagnostics == []
    return {
        name: ([a.name for a in decl.attributes], [m.name for m in decl.methods])
        for name, decl in walk_classes(unit)
    }


def test_each_enum_constant_is_one_attribute_whatever_follows_its_name():
    assert _types("enum E { RED(1), GREEN(2); }") == {"E": (["RED", "GREEN"], [])}
    assert _types("class C { enum In { X(1), Y(2); In(int v) {} } int q; }") == {
        "C": (["q"], []),
        "C.In": (["X", "Y"], ["In"]),
    }
    # A constant's body is passed whole: its members are not the enum's.
    assert _types("enum E { A { void f() {} }, B; }") == {"E": (["A", "B"], [])}
    assert _types("enum E { A(1); E(int x){} }") == {"E": (["A"], ["E"])}
    assert _types("enum E { @Deprecated A, @X(1) B() {}, }") == {"E": (["A", "B"], [])}
    assert _types("enum E { A, B, ; void m() {} }") == {"E": (["A", "B"], ["m"])}
    assert _types("enum E { A, B }") == {"E": (["A", "B"], [])}
    assert _types("enum E { ; int x; }") == {"E": (["x"], [])}


def test_each_enum_constant_is_typed_as_its_enum():
    # javac types each constant as its enum: ``public static final E A``.
    unit = parse_source(
        "enum Planet { MERCURY(1), EARTH { }; int mass; }\n"
        "class C { enum Level { LOW, HIGH, } interface I { enum Kind { BOOK } } }",
        "E.java",
    )
    assert unit.parse_diagnostics == []
    assert {
        name: [(a.declared_type, a.name) for a in decl.attributes] for name, decl in walk_classes(unit)
    } == {
        "Planet": [("Planet", "MERCURY"), ("Planet", "EARTH"), ("int", "mass")],
        "C": [],
        "C.Level": [("Level", "LOW"), ("Level", "HIGH")],
        "C.I": [],
        "C.I.Kind": [("Kind", "BOOK")],
    }


def test_a_malformed_enum_constant_list_is_read_as_members():
    unit = parse_source("enum E { A(1) B; int x; }\nenum F { A, int y; }", "E.java")
    e, f = unit.classes
    assert [a.name for a in e.attributes] == ["x"]
    assert [a.name for a in f.attributes] == ["A"]
    assert [str(d) for d in unit.parse_diagnostics] == [
        "E.java:1: error: malformed declaration of 'A'",
        "E.java:2: warning: missing declarator after ','",
    ]


def test_annotations_skipped():
    unit = parse_source(
        "@Entity @Table(name = \"t\") class A { @Deprecated void f() {} }",
        "A.java",
    )
    assert [m.name for m in unit.classes[0].methods] == ["f"]


def test_abstract_before_an_annotation_type_is_its_own():
    # The annotation type is skipped whole; its modifiers do not reach ``p``.
    unit = parse_source(
        "aspect X { abstract @interface J {} pointcut p(): call(* f()); }", "X.aj"
    )
    assert unit.parse_diagnostics == []
    assert [pc.name for pc in unit.aspects[0].pointcuts] == ["p"]


def test_generics_in_members():
    unit = parse_source(
        "class A { java.util.Map<String, Integer> cache; <T> T pick(java.util.List<T> items) { return null; } }",
        "A.java",
    )
    cls = unit.classes[0]
    assert [a.name for a in cls.attributes] == ["cache"]
    assert [m.name for m in cls.methods] == ["pick"]


def test_nested_generics_field():
    # '>>' closes two generics as one token, '>>>' lexes as '>>' '>': no blank before either.
    unit = parse_source(
        "class A { java.util.Map<String, java.util.List<Integer>> index; int n;"
        " Map<A, List<List<B>>> deep;"
        " <K, V extends Comparable<V>> java.util.List<K> f(Map<K, List<V>> m) { return null; } }",
        "A.java",
    )
    cls = unit.classes[0]
    assert [(a.name, a.declared_type) for a in cls.attributes] == [
        ("index", "java.util.Map<String, java.util.List<Integer>>"),
        ("n", "int"),
        ("deep", "Map<A, List<List<B>>>"),
    ]
    assert [m.signature_text for m in cls.methods] == [
        "<K, V extends Comparable<V>> java.util.List<K> f(Map<K, List<V>> m)"
    ]


def test_an_annotation_type_without_a_body_is_warned_and_skipped_alone():
    top = parse_source("@interface A; class B { int x; }", "A.java")
    assert [c.name for c in top.classes] == ["B"]
    assert [a.name for a in top.classes[0].attributes] == ["x"]
    assert _diagnostics(top) == ["A.java:1: warning: annotation type without a body"]

    nested = parse_source("class C { @interface A; int y; void m() {} }", "C.java")
    cls = nested.classes[0]
    assert ([a.name for a in cls.attributes], [m.name for m in cls.methods]) == (["y"], ["m"])
    assert _diagnostics(nested) == ["C.java:1: warning: annotation type without a body"]


def test_an_annotation_type_head_ends_outside_parentheses():
    # As in a type head, a '{' or ';' inside parentheses ends nothing.
    unit = parse_source("class C { @interface A (x{;}) { int v(); } int y; }", "C.java")
    assert unit.parse_diagnostics == []
    assert [a.name for a in unit.classes[0].attributes] == ["y"]


def test_fields_in_an_aspect_and_a_name_on_the_next_line():
    # ``declare`` starts a declaration in an aspect; the other words are types.
    unit = parse_source("aspect A {\n around x; before y; declare z; new w;\n int\n v; }", "A.aj")
    assert unit.parse_diagnostics == []
    assert [(a.name, a.declared_type, a.line) for a in unit.aspects[0].attributes] == [
        ("x", "around", 2),
        ("y", "before", 2),
        ("w", "new", 2),
        ("v", "int", 4),
    ]


def test_methods_without_a_body_keep_their_signatures():
    unit = parse_source(
        "aspect A { T f(int... a); T g(@X int a); int around(); int[] h()[]; }", "A.aj"
    )
    assert unit.parse_diagnostics == []
    assert [(m.name, m.signature_text) for m in unit.aspects[0].methods] == [
        ("f", "T f(int... a)"),
        ("g", "T g(int a)"),
        ("around", "int around()"),
        ("h", "int[] h()[]"),
    ]


def test_advice_kinds():
    unit = parse_source(
        """
        aspect A {
            pointcut p(): call(* *(..));
            before(): p() {}
            after(): p() {}
            after() returning: p() {}
            after() throwing(Exception e): p() {}
            Object around(): p() { return proceed(); }
        }
        """,
        "A.aj",
    )
    kinds = [ad.kind for ad in unit.aspects[0].advices]
    assert kinds == [
        AdviceKind.BEFORE,
        AdviceKind.AFTER,
        AdviceKind.AFTER_RETURNING,
        AdviceKind.AFTER_THROWING,
        AdviceKind.AROUND,
    ]


def test_method_named_around_is_not_advice():
    unit = parse_source("aspect A { Object around(int x) { return null; } }", "A.aj")
    aspect = unit.aspects[0]
    assert [m.name for m in aspect.methods] == ["around"]
    assert aspect.advices == []


def test_advice_with_inline_expression():
    unit = parse_source(
        "aspect A { after() throwing: execution(* uas.Database.store(..)) {} }",
        "A.aj",
    )
    advice = unit.aspects[0].advices[0]
    assert advice.kind is AdviceKind.AFTER_THROWING
    assert advice.expression == Primitive("execution", "* uas.Database.store(..)")


def test_bare_named_ref_advice():
    unit = parse_source(
        "aspect A { pointcut p(): within(X); before(): p() {} }", "A.aj"
    )
    assert unit.aspects[0].advices[0].expression == NamedRef("p")


def test_abstract_pointcut_not_recorded():
    # 'abstract' counts among plain modifiers and among modifiers and annotations.
    unit = parse_source(
        "abstract aspect S { abstract pointcut guarded(); before(): guarded() {}"
        " public abstract pointcut g(): call(* f()); abstract @A pointcut h(): call(* f()); }",
        "S.aj",
    )
    aspect = unit.aspects[0]
    assert aspect.pointcuts == []
    assert len(aspect.advices) == 1


def test_aspect_with_extends_and_declare():
    unit = parse_source(
        """
        aspect Child extends Parent {
            declare parents: uas.Notification implements java.io.Serializable;
            pointcut p(): get(int uas.A.x);
        }
        """,
        "C.aj",
    )
    aspect = unit.aspects[0]
    assert aspect.name == "Child"
    assert [pc.name for pc in aspect.pointcuts] == ["p"]
    assert aspect.attributes == []


def test_pointcut_in_class():
    unit = parse_source(
        "class G { public pointcut update(): call(void G.f()); void f() {} }",
        "G.java",
    )
    cls = unit.classes[0]
    assert [pc.name for pc in cls.pointcuts] == ["update"]
    assert [m.name for m in cls.methods] == ["f"]


def test_unbalanced_braces_produce_error():
    unit = parse_source("class A { void f() {", "A.java")
    assert unit.has_errors
    assert any(d.severity is Severity.ERROR for d in unit.parse_diagnostics)


def test_recovery_after_top_level_garbage():
    unit = parse_source(";;; ??? class A { void f() {} }", "A.java")
    assert [c.name for c in unit.classes] == ["A"]
    assert unit.parse_diagnostics  # garbage reported
    # Recovery does not count parentheses: an unclosed '(' hides nothing.
    unit = parse_source("( class A { int x; }", "A.java")
    assert [str(d) for d in unit.parse_diagnostics] == [
        "A.java:1: error: unexpected token at top level: '('"
    ]
    assert [[a.name for a in c.attributes] for c in unit.classes] == [["x"]]


def test_parse_is_deterministic():
    text = (MINI_UAS / "AJ1.1" / "aspects" / "RequestLogging.aj").read_text(encoding="utf-8")
    first = parse_source(text, "RequestLogging.aj")
    second = parse_source(text, "RequestLogging.aj")
    assert repr(first) == repr(second)


def test_fixture_declaration_counts_match_manifest():
    for version_dir in sorted(MINI_UAS.iterdir()):
        manifest = json.loads((version_dir / "MANIFEST.json").read_text(encoding="utf-8"))
        for rel, counts in manifest["files"].items():
            path = version_dir / rel
            unit = parse_source(path.read_text(encoding="utf-8"), rel)
            assert not unit.parse_diagnostics, (rel, unit.parse_diagnostics)

            classes = list(_walk(unit))
            total_methods = sum(len(c.methods) for c in classes) + sum(
                len(a.methods) for a in unit.aspects
            )
            ctors = sum(
                sum(1 for m in c.methods if m.is_constructor) for c in classes
            ) + sum(sum(1 for m in a.methods if m.is_constructor) for a in unit.aspects)
            attrs = sum(len(c.attributes) for c in classes) + sum(
                len(a.attributes) for a in unit.aspects
            )
            pointcuts = sum(len(c.pointcuts) for c in classes) + sum(
                len(a.pointcuts) for a in unit.aspects
            )
            advices = sum(len(a.advices) for a in unit.aspects)
            for decl in (*classes, *unit.aspects):
                assert decl.kind == "aspect" or decl.advices == [], (rel, decl.name)

            assert len(classes) == counts["classes"], rel
            assert len(unit.aspects) == counts["aspects"], rel
            assert total_methods - ctors == counts["methods"], rel
            assert ctors == counts["constructors"], rel
            assert attrs == counts["attributes"], rel
            assert pointcuts == counts["pointcuts"], rel
            assert advices == counts["advices"], rel


def _walk(unit):
    for _, cls in walk_classes(unit):
        yield cls


def test_duplicate_class_and_aspect_name_warned():
    unit = parse_source("class A { } aspect A { }", "A.java")
    assert any("both class and aspect" in d.message for d in unit.parse_diagnostics)
    assert not unit.has_errors


def test_comment_keyword_immunity_pairs():
    plain = parse_source("class A { void f() {} }", "A.java")
    noisy = parse_source(
        "// aspect Ghost { pointcut p(): call(* *(..)); }\n"
        "class A { void f() {\n    String s = \"pointcut advice\";\n} }",
        "A.java",
    )
    assert [c.name for c in plain.classes] == [c.name for c in noisy.classes]
    assert not noisy.aspects
    assert len(noisy.classes[0].methods) == 1


def test_c_style_array_return():
    unit = parse_source(
        "class A {\n int f()[] { return null; }\n int g() { return 1; } }\n"
        "interface I { String[] h(int n)[][] throws E; }",
        "A.java",
    )
    assert not unit.parse_diagnostics
    a, i = unit.classes
    assert [(m.name, m.signature_text, m.line) for m in a.methods] == [
        ("f", "int f()[]", 2),
        ("g", "int g()", 3),
    ]
    assert [m.signature_text for m in i.methods] == ["String[] h(int n)[][]"]


def test_advice_throws_clause_stops_at_a_closing_brace():
    unit = parse_source(
        "aspect A { before() throws E }\nclass B { int y; }\n"
        "aspect C { before() throws E, F: call(* *(..)) {} }",
        "A.aj",
    )
    assert [str(d) for d in unit.parse_diagnostics] == [
        "A.aj:1: error: malformed before advice (missing ':')"
    ]
    assert _members(unit) == [["B", "y"], ["A"], ["C"]]
    assert [len(a.advices) for a in unit.aspects] == [0, 1]


def _members(unit):
    return [
        [d.name, *(a.name for a in d.attributes), *(m.name for m in d.methods)]
        for d in (*unit.classes, *unit.aspects)
    ]


def test_brace_block_in_initializer_is_passed_whole():
    # javac rejects both; a '(' or '[' inside the block no longer hides
    # the next field.
    for text in ("class A { int x = { ( } ; int y; }", "class A { int x = a[ { ( } ]; int y; }"):
        unit = parse_source(text, "A.java")
        assert _members(unit) == [["A", "x", "y"]]
        assert not unit.parse_diagnostics


def test_a_comma_inside_brackets_does_not_end_an_initializer():
    unit = parse_source("class A { int a = m[1, 2], b; }", "A.java")
    assert _members(unit) == [["A", "a", "b"]]
    assert not unit.parse_diagnostics


def test_brace_block_after_a_later_declarator_ends_the_field():
    unit = parse_source("class A { int a, b { c; d } int e; }", "A.java")
    assert _members(unit) == [["A", "a", "b", "e"]]
    assert [str(d) for d in unit.parse_diagnostics] == [
        "A.java:1: warning: unexpected '{' in member declaration"
    ]


def test_brace_block_past_a_stray_paren_in_a_pointcut_is_passed_whole():
    # An unmatched ')' does not hide the stop token behind it: the '{'
    # ends the expression, and the block is passed whole as an
    # initializer.
    unit = parse_source("aspect A { pointcut p(): a()) { ; } ; int y; }", "A.aj")
    assert [str(d) for d in unit.parse_diagnostics] == [
        "A.aj:1: error: missing ';' after pointcut 'p'",
        "A.aj:1: warning: malformed pointcut expression: unexpected trailing text at offset 3",
    ]
    assert _members(unit) == [["A", "y"]]

    unit = parse_source("aspect A { pointcut p(): a()) ; int y; void g() {} }", "A.aj")
    assert [str(d) for d in unit.parse_diagnostics] == [
        "A.aj:1: warning: malformed pointcut expression: unexpected trailing text at offset 3",
    ]
    assert _members(unit) == [["A", "y", "g"]]
    assert [pc.name for pc in unit.aspects[0].pointcuts] == ["p"]


def test_a_brace_inside_parentheses_of_an_expression_or_a_type_head_ends_nothing():
    # A parenthesized group is passed to its matching ')', whatever braces
    # it holds, as the lexer reads it.
    unit = parse_source("aspect A { pointcut p(): a( { ) ; int y; }", "A.aj")
    assert _diagnostics(unit) == []
    assert [pc.name for pc in unit.aspects[0].pointcuts] == ["p"]
    assert _members(unit) == [["A", "y"]]
    unit = parse_source("class A ( { ) { int x; }", "A.java")
    assert _diagnostics(unit) == []
    assert _members(unit) == [["A", "x"]]


def _diagnostics(unit):
    return [str(d) for d in unit.parse_diagnostics]


def test_pointcut_without_a_name_is_kept_nameless():
    unit = parse_source("aspect A { pointcut (): within(A); int y; }", "A.aj")
    assert _diagnostics(unit) == ["A.aj:1: error: missing pointcut name"]
    assert [pc.name for pc in unit.aspects[0].pointcuts] == [None]
    assert _members(unit) == [["A", "y"]]


def test_pointcut_without_a_colon_is_skipped_to_its_semicolon():
    unit = parse_source("aspect A { pointcut p() within(A); int y; }", "A.aj")
    assert _diagnostics(unit) == ["A.aj:1: error: malformed pointcut declaration 'p'"]
    assert unit.aspects[0].pointcuts == []
    assert _members(unit) == [["A", "y"]]


def test_unclosed_advice_body_runs_to_the_end_of_the_file():
    unit = parse_source(
        "aspect A { int y; before(): within(A) { int x;\n int z; void g() {}\n", "A.aj"
    )
    assert _diagnostics(unit) == [
        "A.aj:1: error: unclosed advice body",
        "A.aj:3: error: unexpected end of file inside 'A'",
    ]
    assert [ad.kind for ad in unit.aspects[0].advices] == [AdviceKind.BEFORE]
    assert _members(unit) == [["A", "y"]]


def test_missing_declarator_after_a_comma_keeps_both_fields():
    unit = parse_source("class A { int a, ; int b; }", "A.java")
    assert _diagnostics(unit) == ["A.java:1: warning: missing declarator after ','"]
    assert _members(unit) == [["A", "a", "b"]]


def test_field_ended_by_a_closing_brace_is_kept():
    unit = parse_source("class A { int a = 1 }\nclass B { int y; }", "A.java")
    assert _diagnostics(unit) == ["A.java:1: warning: unterminated field declaration"]
    assert _members(unit) == [["A", "a"], ["B", "y"]]


def test_pointcut_or_advice_ended_by_a_closing_brace_keeps_the_next_type():
    unit = parse_source("aspect A { pointcut p(): call(* f()) }\nclass B { int x; void m() {} }\n", "A.aj")
    assert _diagnostics(unit) == ["A.aj:1: error: missing ';' after pointcut 'p'"]
    assert [pc.name for pc in unit.aspects[0].pointcuts] == ["p"]
    assert _members(unit) == [["B", "x", "m"], ["A"]]
    unit = parse_source("aspect A { before(): call(* f()) }\nclass B { int x; }\n", "A.aj")
    assert _diagnostics(unit) == ["A.aj:1: warning: before advice without a body"]
    assert [ad.kind for ad in unit.aspects[0].advices] == [AdviceKind.BEFORE]
    assert _members(unit) == [["B", "x"], ["A"]]


def test_colon_after_a_method_header_drops_only_that_member():
    unit = parse_source("class A { void f() : x; int b; }", "A.java")
    assert _diagnostics(unit) == ["A.java:1: warning: unexpected ':' after member 'f'"]
    assert _members(unit) == [["A", "b"]]


def test_recovery_after_a_colon_stops_after_a_brace_block():
    cases = [
        ("class C { void f() : x { } int b; }", "warning: unexpected ':' after member 'f'"),
        (
            "class C { before(): call(* *(..)) {} int b; }",
            "warning: unexpected ':' after member 'before'",
        ),
        (
            "class C { Object around(): call(* *(..)) {} int b; }",
            "warning: unexpected ':' after member 'around'",
        ),
    ]
    for source, message in cases:
        unit = parse_source(source, "C.java")
        assert _diagnostics(unit) == [f"C.java:1: {message}"], source
        assert _members(unit) == [["C", "b"]], source
        assert unit.classes[0].advices == [], source


def test_a_class_nested_in_an_aspect_takes_no_advice():
    unit = parse_source(
        "aspect A { class N { before(): call(* *(..)) {} int b; } before(): call(* *(..)) {} }", "A.aj"
    )
    assert _diagnostics(unit) == ["A.aj:1: warning: unexpected ':' after member 'before'"]
    (aspect,) = unit.aspects
    (nested,) = aspect.nested
    assert [(nested.kind, [a.name for a in nested.attributes], nested.advices)] == [("class", ["b"], [])]
    assert [advice.kind for advice in aspect.advices] == [AdviceKind.BEFORE]
    assert [name for name, _ in walk_classes(unit)] == ["A.N"]


def test_colon_inside_a_member_declaration_ends_that_member():
    # What follows the ':' is never read as a head or a declarator; the
    # declarators read before it are kept.
    unit = parse_source("class A { x : call(* *(..)) ; int y; }", "A.java")
    assert _diagnostics(unit) == ["A.java:1: warning: unexpected ':' in member declaration"]
    assert _members(unit) == [["A", "y"]]
    unit = parse_source("class A { int a = b, c : call(x, y) ; int d; }", "A.java")
    assert _diagnostics(unit) == ["A.java:1: warning: unexpected ':' in member declaration"]
    assert _members(unit) == [["A", "a", "c", "d"]]
    # An advice with its '(' deleted.
    unit = parse_source("aspect A {\n  pointcut p(): get(* *);\n  after) throwing: p() {\n  }\n  int y;\n}\n", "A.aj")
    assert _diagnostics(unit) == ["A.aj:3: warning: unexpected ':' in member declaration"]
    assert [pc.name for pc in unit.aspects[0].pointcuts] == ["p"]
    assert unit.aspects[0].advices == []
    assert _members(unit) == [["A", "y"]]


def test_a_nested_type_head_without_a_body_ends_at_the_closing_brace():
    # The '}' closes the container, and the next type is declared.
    unit = parse_source("class C { class B } class D { int y; }", "C.java")
    assert _diagnostics(unit) == ["C.java:1: warning: class without a body"]
    assert _members(unit) == [["C"], ["D", "y"]]
    assert [b.name for b in unit.classes[0].nested] == ["B"]
    unit = parse_source("class C { @interface A } class D { int y; }", "C.java")
    assert _diagnostics(unit) == ["C.java:1: warning: annotation type without a body"]
    assert _members(unit) == [["C"], ["D", "y"]]


def test_a_type_head_without_a_body_is_warned_and_still_recorded():
    # A ';' ends the head and is consumed; javac rejects both heads.
    unit = parse_source("class C { class B; int y; }\nclass D;\n", "C.java")
    assert _diagnostics(unit) == [
        "C.java:1: warning: class without a body",
        "C.java:2: warning: class without a body",
    ]
    assert _members(unit) == [["C", "y"], ["D"]]
    assert [b.name for b in unit.classes[0].nested] == ["B"]
    unit = parse_source("interface I;\naspect A;\nenum E", "I.aj")
    assert _diagnostics(unit) == [
        "I.aj:1: warning: interface without a body",
        "I.aj:2: warning: aspect without a body",
        "I.aj:3: warning: enum without a body",
    ]
    assert [c.name for c in unit.classes] == ["I", "E"]
    assert [a.name for a in unit.aspects] == ["A"]
    # The end of the file cuts the head off as a ';' would.
    for source in ("class A { int x; }\nclass D", "class A { int x; }\nclass D extends"):
        unit = parse_source(source, "A.java")
        assert _diagnostics(unit) == ["A.java:2: warning: class without a body"], source
        assert _members(unit) == [["A", "x"], ["D"]], source
    unit = parse_source("class A { int x; }\n@interface N", "A.java")
    assert _diagnostics(unit) == ["A.java:2: warning: annotation type without a body"]
    assert _members(unit) == [["A", "x"]]


def test_a_nested_body_ends_at_its_matching_brace_whatever_it_leaves_open():
    # A nested body ends at the '}' that matches its '{': an unclosed '('
    # inside ends there, not at the container's end.
    unit = parse_source("class A { class B { void f( } int y; }", "A.java")
    assert _diagnostics(unit) == [
        "A.java:1: error: malformed declaration of 'f'",
        "A.java:1: error: unexpected end of file inside 'B'",
    ]
    assert _members(unit) == [["A", "y"]]
    assert [b.name for b in unit.classes[0].nested] == ["B"]
    unit = parse_source("class A { class B { int a; class C { void g( } } int y; } class D { int z; }", "A.java")
    assert _diagnostics(unit) == [
        "A.java:1: error: malformed declaration of 'g'",
        "A.java:1: error: unexpected end of file inside 'C'",
    ]
    assert _members(unit) == [["A", "y"], ["D", "z"]]
    assert [[b.name, *(a.name for a in b.attributes)] for b in unit.classes[0].nested] == [["B", "a"]]


def test_sealed_and_non_sealed_are_modifiers():
    # javac --release 17 accepts each source.
    unit = parse_source("sealed interface S permits A {}\nfinal class A implements S {}\n", "S.java")
    assert _diagnostics(unit) == []
    assert [c.name for c in unit.classes] == ["S", "A"]
    unit = parse_source(
        "class C { sealed interface I permits J {} non-sealed interface J extends I {} int z; }", "C.java"
    )
    assert _diagnostics(unit) == []
    assert _members(unit) == [["C", "z"]]
    assert [(b.name, b.kind) for b in unit.classes[0].nested] == [("I", "interface"), ("J", "interface")]
    unit = parse_source(
        "public abstract sealed class T permits B {}\nnon-sealed class B extends T { int x; void f() {} }\n",
        "T.java",
    )
    assert _diagnostics(unit) == []
    assert _members(unit) == [["T"], ["B", "x", "f"]]


def test_pointcut_without_a_colon_is_skipped_past_its_brace_block():
    unit = parse_source("aspect A { pointcut p() within(A) { } int y; }", "A.aj")
    assert _diagnostics(unit) == ["A.aj:1: error: malformed pointcut declaration 'p'"]
    assert unit.aspects[0].pointcuts == []
    assert _members(unit) == [["A", "y"]]


def test_braces_inside_parentheses_do_not_end_a_skipped_declaration():
    unit = parse_source("aspect A { declare @method: * *(..) : @Foo({1, 2}); int y; }", "A.aj")
    assert _diagnostics(unit) == []
    assert _members(unit) == [["A", "y"]]
    # A ';' or '}' ends it at any depth of parentheses.
    unit = parse_source("import a(b; class C { int y; }", "C.java")
    assert _diagnostics(unit) == []
    assert _members(unit) == [["C", "y"]]
    unit = parse_source("import a(b } class C { int y; }", "C.java")
    assert _diagnostics(unit) == ["C.java:1: error: unexpected token at top level: '}'"]
    assert _members(unit) == [["C", "y"]]


def test_type_annotations_in_a_method_head_are_left_out_of_its_signature():
    unit = parse_source(
        "class A { java.util.@X List<String> f() { return null; }\n"
        " int @X [] g() { return null; }\n"
        " <T> java.util.@X(1) Map<T, @Y String> h() { return null; } }",
        "A.java",
    )
    assert _diagnostics(unit) == []
    assert [(m.name, m.signature_text) for m in unit.classes[0].methods] == [
        ("f", "java.util.List<String> f()"),
        ("g", "int[] g()"),
        ("h", "<T> java.util.Map<T, String> h()"),
    ]


def test_a_module_declaration_declares_nothing():
    for source in (
        "module a.b { requires java.base; exports a.b to c.d; }",
        "import x.Y;\n@Deprecated\nopen module a { opens a; provides x.Y with a.Z; }\nclass B {}",
    ):
        unit = parse_source(source, "module-info.java")
        assert _diagnostics(unit) == [], source
        assert unit.aspects == [], source
        assert [c.name for c in unit.classes] == (["B"] if "class B" in source else []), source


def test_a_malformed_module_declaration_is_an_error():
    unit = parse_source("open module a.b {", "module-info.java")
    assert _diagnostics(unit) == ["module-info.java:1: error: unclosed module declaration"]
    for source in ("module a.b; class A {}", "module class A {}", "module a. { }"):
        unit = parse_source(source, "module-info.java")
        assert _diagnostics(unit) == [
            "module-info.java:1: error: unexpected token at top level: 'module'"
        ], source


def test_a_declare_statement_with_a_designator_is_skipped_whole():
    unit = parse_source('aspect A { declare warning: call(* *(..)) : "m"; int z; }', "A.aj")
    assert _diagnostics(unit) == []
    assert unit.aspects[0].pointcuts == [] and unit.aspects[0].advices == []
    assert _members(unit) == [["A", "z"]]


def test_a_parenthesis_inside_a_skipped_brace_block_ends_nothing():
    # The import is skipped up to its brace block, which is passed whole:
    # the '(' inside it must not hold the skip open past 'class B'.
    unit = parse_source("import A.f()) , { ( } class B {}", "A.java")
    assert _diagnostics(unit) == []
    assert _members(unit) == [["B"]]


def test_walk_classes_yields_depth_first_in_source_order():
    # The aspect sits between the two top-level classes; the classes nested
    # in it still come after every top-level class and its nest.
    unit = parse_source(
        "class A { class B { class C {} } interface D { enum E {} } }\n"
        "aspect S { class T { class U {} } int s; }\n"
        "class F { class G { class H {} class I {} } }\n",
        "A.aj",
    )
    assert _diagnostics(unit) == []
    names = ["A", "A.B", "A.B.C", "A.D", "A.D.E", "F", "F.G", "F.G.H", "F.G.I", "S.T", "S.T.U"]
    assert [name for name, _ in walk_classes(unit)] == names
    log = write_log([unit], measure_version("v", [unit], default_weights()))
    assert [line for line in log.splitlines() if line.startswith("CLASS ")] == [
        f"CLASS {name}" for name in names
    ]
