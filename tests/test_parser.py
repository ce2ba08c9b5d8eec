from __future__ import annotations

import json

from aometrics import AdviceKind, parse_source
from aometrics.diagnostics import Severity
from aometrics.pointcuts import NamedRef, Primitive
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


def test_annotations_skipped():
    unit = parse_source(
        "@Entity @Table(name = \"t\") class A { @Deprecated void f() {} }",
        "A.java",
    )
    assert [m.name for m in unit.classes[0].methods] == ["f"]


def test_generics_in_members():
    unit = parse_source(
        "class A { java.util.Map<String, Integer> cache; <T> T pick(java.util.List<T> items) { return null; } }",
        "A.java",
    )
    cls = unit.classes[0]
    assert [a.name for a in cls.attributes] == ["cache"]
    assert [m.name for m in cls.methods] == ["pick"]


def test_nested_generics_field():
    unit = parse_source(
        "class A { java.util.Map<String, java.util.List<Integer>> index; int n; }",
        "A.java",
    )
    assert [a.name for a in unit.classes[0].attributes] == ["index", "n"]


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
    unit = parse_source(
        "abstract aspect S { abstract pointcut guarded(); before(): guarded() {} }",
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

            assert len(classes) == counts["classes"], rel
            assert len(unit.aspects) == counts["aspects"], rel
            assert total_methods - ctors == counts["methods"], rel
            assert ctors == counts["constructors"], rel
            assert attrs == counts["attributes"], rel
            assert pointcuts == counts["pointcuts"], rel
            assert advices == counts["advices"], rel


def _walk(unit):
    from aometrics.parser import walk_classes

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
