from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aometrics import (
    JoinPointCategory,
    StrictModeParseFailure,
    classify_joinpoint_categories,
    default_weights,
    measure_version,
    parse_source,
    waa_aspect,
    wmca_unit,
)
from aometrics.cli import main
from aometrics.diagnostics import Diagnostic, Severity
from helpers import MINI_UAS, TEST_FIXTURES, measure_dir, parse_version_dir

W = default_weights()


def aspect_of(src: str):
    return parse_source(src, "A.aj").aspects[0]


def categories_of(expression: str) -> frozenset[JoinPointCategory]:
    """Categories of one pointcut declared with ``expression`` in a small aspect."""
    unit = parse_source(f"aspect A {{ pointcut p(): {expression}; }}", "A.aj")
    return classify_joinpoint_categories(unit)[id(unit.aspects[0].pointcuts[0])].categories


def measure_source(src: str):
    return measure_version("v", [parse_source(src, "A.aj")], W)


def test_classify_execution_wildcards():
    assert categories_of("execution(* *.f(..))") == {JoinPointCategory.METHOD_EXECUTION}


def test_classify_combined_particular():
    assert categories_of("call(void pkg.A.g()) && within(pkg.A)") == {
        JoinPointCategory.PARTICULAR_METHOD,
        JoinPointCategory.PARTICULAR_CLASS,
        JoinPointCategory.BOOLEAN_OR_COMBINED,
    }


def test_classify_handler():
    assert categories_of("handler(java.io.IOException)") == {
        JoinPointCategory.EXCEPTION_HANDLING
    }


def test_classify_package_vs_class_within():
    assert categories_of("within(uas.test..*)") == {JoinPointCategory.PARTICULAR_PACKAGE}
    assert categories_of("within(uas.LoginService)") == {JoinPointCategory.PARTICULAR_CLASS}


def test_classify_cflow_adviceexecution_get_set():
    assert categories_of(
        "cflow(p()) && adviceexecution() && get(int A.x) && set(int A.x)"
    ) == {
        JoinPointCategory.CONTROL_FLOW,
        JoinPointCategory.WITHIN_ADVICE,
        JoinPointCategory.ATTRIBUTE,
        JoinPointCategory.BOOLEAN_OR_COMBINED,
    }


def test_classify_args_this_target_contribute_nothing():
    assert categories_of("args(x) && this(A) && target(B)") == {
        JoinPointCategory.BOOLEAN_OR_COMBINED
    }


def test_classify_named_ref_resolution_and_warning():
    unit = parse_source(
        """
        aspect A {
            pointcut base(): handler(java.io.IOException);
            pointcut uses(): base() && within(X);
            before(): missing() && within(X) {}
        }
        """,
        "A.aj",
    )
    aspect = unit.aspects[0]
    diags = []
    facts = classify_joinpoint_categories(unit, diags)
    assert facts[id(aspect.pointcuts[1])].categories == {
        JoinPointCategory.EXCEPTION_HANDLING,
        JoinPointCategory.PARTICULAR_CLASS,
        JoinPointCategory.BOOLEAN_OR_COMBINED,
    }
    assert diags == [
        Diagnostic("A.aj", 5, Severity.WARNING, "unresolved pointcut reference 'missing'")
    ]


def test_classify_cyclic_references_terminate():
    unit = parse_source(
        """
        aspect A {
            pointcut p(): q() || handler(E);
            pointcut q(): p();
        }
        """,
        "A.aj",
    )
    p, q = unit.aspects[0].pointcuts
    facts = classify_joinpoint_categories(unit)
    # Every member of a cycle gets the cycle's union.
    assert facts[id(p)].categories == facts[id(q)].categories == {
        JoinPointCategory.EXCEPTION_HANDLING,
        JoinPointCategory.BOOLEAN_OR_COMBINED,
    }


def test_wpa_single_pointcut():
    m = measure_source("aspect A { pointcut p(): execution(* *.login(..)); }")
    assert m.per_aspect[0].wpa.render() == "0.6"


def test_wpa_empty_aspect():
    assert measure_source("aspect A { }").per_aspect[0].wpa.render() == "0.0"


def test_wpa_two_pointcuts():
    m = measure_source(
        """
        aspect A {
            pointcut a(): call(void pkg.A.save(int));
            pointcut b(): handler(*Exception);
        }
        """
    )
    assert m.per_aspect[0].wpa.render() == "1.3"


def test_wpa_counts_every_table_designator_occurrence():
    m = measure_source(
        "aspect A { pointcut p(): call(* uas.D.store(..)) || execution(* *.register(..)); }"
    )
    # 0.2 + 0.3 (call + wildcard-return sig) + 0.1 + 0.5 (execution + wildcard-class sig)
    assert m.per_aspect[0].wpa.render() == "1.1"


def test_waa_kinds():
    aspect = aspect_of(
        """
        aspect A {
            pointcut p(): within(X);
            before(): p() {}
            Object around(): p() { return proceed(); }
            after() throwing: p() {}
        }
        """
    )
    assert waa_aspect(aspect, W).render() == "0.4"


def test_waa_empty():
    assert waa_aspect(aspect_of("aspect A { }"), W).render() == "0.0"


def test_wmca_counts_non_constructor_methods():
    unit = parse_source("class A { A() {} void f() {} int g() { return 0; } }", "A.java")
    assert wmca_unit(unit.classes[0]) == 2


def test_wmca_aspect_counts_itds_not_advices():
    aspect = aspect_of(
        """
        aspect A {
            pointcut p(): within(X);
            before(): p() {}
            after(): p() {}
            public void pkg.T.helper() {}
        }
        """
    )
    assert wmca_unit(aspect) == 1


def test_wmca_empty_class():
    unit = parse_source("class A { }", "A.java")
    assert wmca_unit(unit.classes[0]) == 0


def test_nac_direct_ratio():
    units = [
        parse_source("class A { int a; int b; int c; }", "A.java"),
        parse_source("class B { int a; int b; int c; int d; }", "B.java"),
    ]
    assert measure_version("v", units, W).nac == Fraction(7, 2)


def test_nac_not_applicable():
    units = [parse_source("aspect A { int x; }", "A.aj")]
    assert measure_version("v", units, W).nac is None


def test_nac_excludes_aspect_fields():
    units = [parse_source("class A { int a; } aspect B { int z; }", "M.java")]
    assert measure_version("v", units, W).nac == Fraction(1, 1)


def test_wjp_split_between_aspects_and_classes():
    units = [
        parse_source(
            "aspect A { pointcut p(): execution(* *.f(..)); }", "A.aj"
        ),
        parse_source(
            "class C { pointcut q(): call(void uas.C.g()); }", "C.java"
        ),
    ]
    m = measure_version("v", units, W)
    assert m.wjp.render() == "0.7"  # 0.1 method_execution + 0.6 particular_method
    assert [(a.aspect_name, a.wjp.render()) for a in m.per_aspect] == [("A", "0.1")]
    assert [(c.class_name, c.wjp_contribution.render()) for c in m.per_class] == [("C", "0.6")]


def test_wjp_bare_named_ref_not_double_counted():
    with_ref = measure_source("aspect A { pointcut p(): handler(E); before(): p() {} }")
    without_advice = measure_source("aspect A { pointcut p(): handler(E); }")
    assert with_ref.wjp == without_advice.wjp
    assert with_ref.wjp.render() == "0.3"


def test_wjp_inline_advice_counts():
    m = measure_source("aspect A { after() throwing: execution(* uas.D.store(..)) {} }")
    assert m.wjp.render() == "0.1"


def test_wjp_diamond_of_named_references_is_linear():
    # Each link references the next twice: 2**60 paths, 61 declarations.
    lines = [f"pointcut p{i}(): p{i + 1}() || p{i + 1}();" for i in range(60)]
    lines.append("pointcut p60(): execution(* uas.A.f(..));")
    m = measure_source("aspect A { " + " ".join(lines) + " }")
    # 60 x (1.0 combined + 0.1 method_execution) + 0.1
    assert m.wjp.render() == "66.1"
    assert m.diagnostics == []


def test_nested_reference_resolves_in_its_declaring_scope():
    unit = parse_source(
        """
        aspect A {
            pointcut r(): handler(E);
            pointcut uses(): B.q();
        }
        aspect B {
            pointcut r(): get(int X.y);
            pointcut q(): r();
        }
        """,
        "S.aj",
    )
    facts = classify_joinpoint_categories(unit)
    uses = unit.aspects[0].pointcuts[1]
    assert facts[id(uses)].categories == {JoinPointCategory.ATTRIBUTE}
    m = measure_version("v", [unit], W)
    # 0.3 exception_handling (A.r) + 0.5 attribute (uses, through B.q and B.r)
    assert [(a.aspect_name, a.wjp.render()) for a in m.per_aspect] == [
        ("A", "0.8"), ("B", "1.0")
    ]


def test_categories_are_the_union_over_every_reached_declaration():
    primitives = ["handler(E)", "within(x.Y)", "get(int x.Y.f)", "cflow(q())", "args(a)"]
    rng = random.Random(11)
    for _ in range(150):
        n = rng.randint(1, 8)
        leaves = [rng.choice(primitives) for _ in range(n)]
        refs = [[rng.randrange(n) for _ in range(rng.randint(0, 3))] for _ in range(n)]
        decls = " ".join(
            f"pointcut p{i}(): {' || '.join([leaves[i], *(f'p{j}()' for j in refs[i])])};"
            for i in range(n)
        )
        unit = parse_source(f"aspect A {{ {decls} }}", "A.aj")
        facts = classify_joinpoint_categories(unit)
        for i, decl in enumerate(unit.aspects[0].pointcuts):
            reached, todo = {i}, [i]
            while todo:
                for j in refs[todo.pop()]:
                    if j not in reached:
                        reached.add(j)
                        todo.append(j)
            expected = set().union(*(categories_of(leaves[j]) for j in reached))
            if any(refs[j] for j in reached):
                expected.add(JoinPointCategory.BOOLEAN_OR_COMBINED)
            assert facts[id(decl)].categories == expected, (decls, i)


def test_fault_in_referenced_pointcut_is_reported_once_at_its_line():
    m = measure_source(
        """aspect A {
            pointcut p(): execution(* );
            pointcut q(): p();
            before(): p() && within(uas.A) {}
        }"""
    )
    assert [(d.line, d.message) for d in m.diagnostics] == [
        (2, "malformed execution signature: missing parameter list")
    ]


def test_signature_of_every_kinded_primitive_is_checked_once():
    unit = parse_source(
        """aspect A {
            before(): get() && handler(E(int)) {}
        }
        class C {
            pointcut f(): set(static);
        }""",
        "A.aj",
    )
    m = measure_version("v", [unit], W)
    assert [(d.line, d.message) for d in m.diagnostics] == [
        (2, "malformed get signature: empty argument"),
        (2, "malformed handler signature: unexpected parameter list"),
        (5, "malformed set signature: no field pattern"),
    ]


def test_measure_zero_aspect_version():
    units = [parse_source("class A { int x; void f() {} }", "A.java")]
    m = measure_version("v", units, W)
    assert m.aspect_free
    assert m.wpa.is_zero() and m.waa.is_zero() and m.wjp.is_zero()
    assert m.wmca == 1
    assert m.nac == Fraction(1, 1)


def test_measure_single_aspect_version_totals():
    units = [
        parse_source(
            "aspect A { pointcut p(): execution(* *.f(..)); before(): p() {} }",
            "A.aj",
        )
    ]
    m = measure_version("v", units, W)
    assert m.wpa.render() == "0.6"  # execution 0.1 + wildcard-class signature 0.5
    assert m.per_aspect[0].wpa == m.wpa
    assert m.per_aspect[0].aspect_name == "A"
    assert m.nac is None
    assert m.nac_rendered() == "NA"


def test_strict_mode_raises():
    units = [parse_source("class Broken {", "Broken.java")]
    with pytest.raises(StrictModeParseFailure):
        measure_version("v", units, W, strict=True)


def test_non_strict_excludes_broken_unit():
    broken = parse_source("class Broken { void f() {", "Broken.java")
    good = parse_source("class Good { void g() {} }", "Good.java")
    m = measure_version("v", [broken, good], W)
    assert m.wmca == 1
    assert m.class_count == 1
    assert any("excluded" in d.message for d in m.diagnostics)


def test_additivity_over_fixture_partitions():
    _, units = parse_version_dir(MINI_UAS / "AJ1.4")
    rng = random.Random(7)
    whole = measure_version("all", units, W)
    for _ in range(25):
        left = [u for u in units if rng.random() < 0.5]
        right = [u for u in units if u not in left]
        a = measure_version("a", left, W)
        b = measure_version("b", right, W)
        assert a.wpa + b.wpa == whole.wpa
        assert a.waa + b.waa == whole.waa
        assert a.wjp + b.wjp == whole.wjp
        assert a.wmca + b.wmca == whole.wmca
        assert a.class_attribute_count + b.class_attribute_count == whole.class_attribute_count
        assert a.class_count + b.class_count == whole.class_count


def test_permutation_invariance_of_measure():
    _, units = parse_version_dir(MINI_UAS / "AJ1.3")
    base = measure_version("v", units, W)
    rng = random.Random(3)
    for _ in range(10):
        shuffled = units[:]
        rng.shuffle(shuffled)
        again = measure_version("v", shuffled, W)
        assert again == base


def test_monotonic_wpa_when_pointcut_added():
    base_src = "aspect A { pointcut p(): handler(E); }"
    more_src = "aspect A { pointcut p(): handler(E); pointcut q(): call(void x.Y.g()); }"
    base = measure_version("v", [parse_source(base_src, "A.aj")], W)
    more = measure_version("v", [parse_source(more_src, "A.aj")], W)
    # call 0.2 + fully qualified signature 0.1
    assert more.wpa.units - base.wpa.units == 3
    assert more.waa == base.waa


_CLASS_BODIES = st.lists(
    st.tuples(st.integers(min_value=0, max_value=5), st.integers(min_value=0, max_value=5)),
    min_size=1,
    max_size=4,
)


@given(_CLASS_BODIES)
@settings(max_examples=60, deadline=None)
def test_java_only_versions_have_zero_aspect_metrics(bodies):
    units = []
    for i, (n_methods, n_attrs) in enumerate(bodies):
        members = "".join(f"int f{j}() {{ return {j}; }} " for j in range(n_methods))
        members += "".join(f"int a{j}; " for j in range(n_attrs))
        units.append(parse_source(f"class C{i} {{ {members}}}", f"C{i}.java"))
    m = measure_version("v", units, W)
    assert m.aspect_free
    assert m.wpa.is_zero() and m.waa.is_zero() and m.wjp.is_zero()
    assert m.wmca == sum(n for n, _ in bodies)
    assert m.class_attribute_count == sum(a for _, a in bodies)


def test_byte_order_mark_file_is_measured():
    m = measure_dir(TEST_FIXTURES / "bom" / "V")
    assert m.diagnostics == []
    assert [(c.class_name, c.wmca, c.attribute_count) for c in m.per_class] == [("Account", 3, 2)]
    assert (m.wmca, m.class_attribute_count, m.class_count) == (3, 2, 1)
    assert m.nac_rendered() == "2.000"


def test_text_block_contents_never_reach_the_parser():
    m = measure_dir(TEST_FIXTURES / "text_block" / "V")
    assert m.diagnostics == []
    assert m.aspect_count == 0 and m.aspect_free
    assert [(c.class_name, c.wmca, c.attribute_count) for c in m.per_class] == [("Banner", 1, 2)]


def test_c_style_array_returns_are_measured():
    m = measure_dir(TEST_FIXTURES / "array_return" / "V")
    assert m.diagnostics == []
    assert [(c.class_name, c.wmca, c.attribute_count) for c in m.per_class] == [("Grid", 3, 1)]


_DEPTH = 3000  # well past Python's default recursion limit of 1000
_DEEP_AND_SHALLOW = [
    ("(" * _DEPTH + "within(A)" + ")" * _DEPTH, "within(A)"),
    ("!" * _DEPTH + "within(A)", "!!within(A)"),
]


def _aspect_with(expression: str) -> str:
    return (
        f"aspect A {{ pointcut p(): {expression};\n"
        f"  before(): p() && {expression} {{}}\n"
        f"  after(): {expression} {{}} }}\n"
        "class B { void f() {} }"
    )


def test_deeply_nested_pointcuts_measure_like_their_shallow_form():
    # Metrics are compared, never the trees: dataclass __eq__ recurses.
    for deep, shallow in _DEEP_AND_SHALLOW:
        m = measure_source(_aspect_with(deep))
        assert m.diagnostics == []
        assert m == measure_source(_aspect_with(shallow))


def test_deeply_nested_pointcuts_measure_through_the_cli(tmp_path, capsys):
    for i, (deep, _) in enumerate(_DEEP_AND_SHALLOW):
        version = tmp_path / f"V{i}"
        version.mkdir()
        (version / "A.aj").write_text(_aspect_with(deep), encoding="utf-8")
        code = main(["measure", str(version), "--out", str(tmp_path / "out")])
        captured = capsys.readouterr()
        assert code == 0
        assert "Traceback" not in captured.err
        assert (tmp_path / "out" / f"V{i}.log").is_file()
