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
    nac_version,
    parse_source,
    waa_aspect,
    wjp_version,
    wmca_unit,
    wpa_aspect,
)
from aometrics.pointcuts import parse_pointcut_expression
from helpers import MINI_UAS, TEST_FIXTURES, measure_dir, parse_version_dir

W = default_weights()


def aspect_of(src: str):
    return parse_source(src, "A.aj").aspects[0]


def test_classify_execution_wildcards():
    expr = parse_pointcut_expression("execution(* *.f(..))")
    assert classify_joinpoint_categories(expr) == {JoinPointCategory.METHOD_EXECUTION}


def test_classify_combined_particular():
    expr = parse_pointcut_expression("call(void pkg.A.g()) && within(pkg.A)")
    assert classify_joinpoint_categories(expr) == {
        JoinPointCategory.PARTICULAR_METHOD,
        JoinPointCategory.PARTICULAR_CLASS,
        JoinPointCategory.BOOLEAN_OR_COMBINED,
    }


def test_classify_handler():
    expr = parse_pointcut_expression("handler(java.io.IOException)")
    assert classify_joinpoint_categories(expr) == {JoinPointCategory.EXCEPTION_HANDLING}


def test_classify_package_vs_class_within():
    pkg = parse_pointcut_expression("within(uas.test..*)")
    cls = parse_pointcut_expression("within(uas.LoginService)")
    assert classify_joinpoint_categories(pkg) == {JoinPointCategory.PARTICULAR_PACKAGE}
    assert classify_joinpoint_categories(cls) == {JoinPointCategory.PARTICULAR_CLASS}


def test_classify_cflow_adviceexecution_get_set():
    expr = parse_pointcut_expression(
        "cflow(p()) && adviceexecution() && get(int A.x) && set(int A.x)"
    )
    assert classify_joinpoint_categories(expr) == {
        JoinPointCategory.CONTROL_FLOW,
        JoinPointCategory.WITHIN_ADVICE,
        JoinPointCategory.ATTRIBUTE,
        JoinPointCategory.BOOLEAN_OR_COMBINED,
    }


def test_classify_args_this_target_contribute_nothing():
    expr = parse_pointcut_expression("args(x) && this(A) && target(B)")
    assert classify_joinpoint_categories(expr) == {JoinPointCategory.BOOLEAN_OR_COMBINED}


def test_classify_named_ref_resolution_and_warning():
    unit = parse_source(
        """
        aspect A {
            pointcut base(): handler(java.io.IOException);
            pointcut uses(): base() && within(X);
        }
        """,
        "A.aj",
    )
    from aometrics.metrics import _PointcutIndex

    aspect = unit.aspects[0]
    index = _PointcutIndex(unit)
    resolve = index.resolver_for(aspect)
    cats = classify_joinpoint_categories(aspect.pointcuts[1].expression, resolve=resolve)
    assert cats == {
        JoinPointCategory.EXCEPTION_HANDLING,
        JoinPointCategory.PARTICULAR_CLASS,
        JoinPointCategory.BOOLEAN_OR_COMBINED,
    }

    diags = []
    unknown = parse_pointcut_expression("missing() && within(X)")
    classify_joinpoint_categories(unknown, resolve=resolve, diagnostics=diags)
    assert any("unresolved" in d.message for d in diags)


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
    from aometrics.metrics import _PointcutIndex

    aspect = unit.aspects[0]
    resolve = _PointcutIndex(unit).resolver_for(aspect)
    cats = classify_joinpoint_categories(aspect.pointcuts[0].expression, resolve=resolve)
    assert JoinPointCategory.EXCEPTION_HANDLING in cats


def test_wpa_single_pointcut():
    aspect = aspect_of("aspect A { pointcut p(): execution(* *.login(..)); }")
    assert wpa_aspect(aspect, W).render() == "0.6"


def test_wpa_empty_aspect():
    aspect = aspect_of("aspect A { }")
    assert wpa_aspect(aspect, W).render() == "0.0"


def test_wpa_two_pointcuts():
    aspect = aspect_of(
        """
        aspect A {
            pointcut a(): call(void pkg.A.save(int));
            pointcut b(): handler(*Exception);
        }
        """
    )
    assert wpa_aspect(aspect, W).render() == "1.3"


def test_wpa_counts_every_table_designator_occurrence():
    aspect = aspect_of(
        "aspect A { pointcut p(): call(* uas.D.store(..)) || execution(* *.register(..)); }"
    )
    # 0.2 + 0.3 (call + wildcard-return sig) + 0.1 + 0.5 (execution + wildcard-class sig)
    assert wpa_aspect(aspect, W).render() == "1.1"


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
    assert nac_version(units) == Fraction(7, 2)


def test_nac_not_applicable():
    units = [parse_source("aspect A { int x; }", "A.aj")]
    assert nac_version(units) is None


def test_nac_excludes_aspect_fields():
    units = [parse_source("class A { int a; } aspect B { int z; }", "M.java")]
    assert nac_version(units) == Fraction(1, 1)


def test_wjp_split_between_aspects_and_classes():
    units = [
        parse_source(
            "aspect A { pointcut p(): execution(* *.f(..)); }", "A.aj"
        ),
        parse_source(
            "class C { pointcut q(): call(void uas.C.g()); }", "C.java"
        ),
    ]
    total, aspect_parts, class_parts = wjp_version(units, W)
    assert total.render() == "0.7"  # 0.1 method_execution + 0.6 particular_method
    assert [(n, p.render()) for n, p in aspect_parts] == [("A", "0.1")]
    assert [(n, p.render()) for n, p in class_parts] == [("C", "0.6")]


def test_wjp_bare_named_ref_not_double_counted():
    with_ref = parse_source(
        "aspect A { pointcut p(): handler(E); before(): p() {} }", "A.aj"
    )
    without_advice = parse_source(
        "aspect A { pointcut p(): handler(E); }", "A.aj"
    )
    assert wjp_version([with_ref], W)[0] == wjp_version([without_advice], W)[0]


def test_wjp_inline_advice_counts():
    unit = parse_source(
        "aspect A { after() throwing: execution(* uas.D.store(..)) {} }", "A.aj"
    )
    total, _, _ = wjp_version([unit], W)
    assert total.render() == "0.1"


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
    assert m.wpa == wpa_aspect(units[0].aspects[0], W)
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
