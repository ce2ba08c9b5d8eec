from __future__ import annotations

import random
import time
from pathlib import Path

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
import aometrics.metrics
import aometrics.parser
from aometrics.cli import main
from aometrics.diagnostics import Diagnostic, Severity
from aometrics.lexer import tokenize
from aometrics.report import write_log
from aometrics.pointcuts import extract_signature_pattern
from helpers import MINI_UAS, TEST_FIXTURES, kinded_primitives, measure_dir, parse_version_dir

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
    m = measure_version("v", units, W)
    assert (m.class_attribute_count, m.class_count) == (7, 2)


def test_nac_not_applicable():
    units = [parse_source("aspect A { int x; }", "A.aj")]
    m = measure_version("v", units, W)
    assert m.class_count == 0
    assert m.nac_rendered() == "NA"


def test_nac_excludes_aspect_fields():
    units = [parse_source("class A { int a; } aspect B { int z; }", "M.java")]
    m = measure_version("v", units, W)
    assert (m.class_attribute_count, m.class_count) == (1, 1)


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
    assert [(a.name, a.wjp.render()) for a in m.per_aspect] == [("A", "0.1")]
    assert [(c.name, c.wjp.render()) for c in m.per_class] == [("C", "0.6")]


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
    assert [(a.name, a.wjp.render()) for a in m.per_aspect] == [
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


def test_name_declared_in_two_containers_resolves_only_locally():
    unit = parse_source(
        "aspect A {\n"
        "    pointcut p(): handler(E);\n"
        "    pointcut a(): p();\n"
        "}\n"
        "aspect B {\n"
        "    pointcut p(): get(int x.Y.f);\n"
        "    pointcut b(): p();\n"
        "}\n"
        "class C {\n"
        "    pointcut c(): p() || within(x.Y);\n"
        "}\n",
        "S.aj",
    )
    diags = []
    facts = classify_joinpoint_categories(unit, diags)
    (_, a), (_, b) = (aspect.pointcuts for aspect in unit.aspects)
    (c,) = unit.classes[0].pointcuts
    assert facts[id(a)].categories == {JoinPointCategory.EXCEPTION_HANDLING}
    assert facts[id(b)].categories == {JoinPointCategory.ATTRIBUTE}
    assert facts[id(c)].categories == {
        JoinPointCategory.PARTICULAR_CLASS,
        JoinPointCategory.BOOLEAN_OR_COMBINED,
    }
    assert diags == [Diagnostic("S.aj", 10, Severity.WARNING, "unresolved pointcut reference 'p'")]


def test_name_repeated_in_one_container_resolves_to_its_last_declaration():
    unit = parse_source(
        "aspect A {\n"
        "    pointcut p(): handler(E);\n"
        "    pointcut p(): within(X);\n"
        "    pointcut a(): p();\n"
        "}\n"
        "class C { pointcut c(): p(); }\n",
        "S.aj",
    )
    diags = []
    facts = classify_joinpoint_categories(unit, diags)
    (_, _, a), (c,) = unit.aspects[0].pointcuts, unit.classes[0].pointcuts
    assert facts[id(a)].categories == {JoinPointCategory.PARTICULAR_CLASS}
    assert facts[id(c)].categories == {JoinPointCategory.PARTICULAR_CLASS}
    assert diags == [
        Diagnostic(
            "S.aj", 3, Severity.WARNING,
            "duplicate pointcut 'p' in 'A'; references resolve to the last one",
        )
    ]


# Resolution oracle. Each container is (qualified name, keyword, enclosing
# container); every pointcut and advice sits on a line of its own.
_CONTAINERS = (
    ("A", "aspect", None),
    ("A.K", "class", "A"),
    ("B", "aspect", None),
    ("C", "class", None),
    ("C.N", "class", "C"),
    ("C.N.M", "class", "C.N"),
    ("D", "class", None),
    ("D.N", "class", "D"),
)
_NAMES = ("p", "q", "r")
_LEAF_CATEGORIES = {
    "handler(E)": {JoinPointCategory.EXCEPTION_HANDLING},
    "within(x.Y)": {JoinPointCategory.PARTICULAR_CLASS},
    "within(x..*)": {JoinPointCategory.PARTICULAR_PACKAGE},
    "get(int x.Y.f)": {JoinPointCategory.ATTRIBUTE},
    "call(void x.Y.f())": {JoinPointCategory.PARTICULAR_METHOD},
    "execution(* *(..))": {JoinPointCategory.METHOD_EXECUTION},
    "adviceexecution()": {JoinPointCategory.WITHIN_ADVICE},
    "args(a)": set(),
}
_leaf = st.one_of(
    st.sampled_from(sorted(_LEAF_CATEGORIES)),
    st.sampled_from([*_NAMES, "zz"]).map(lambda name: f"{name}()"),
    st.builds(
        lambda owner, name: f"{owner}.{name}()",
        st.sampled_from([q for q, _, _ in _CONTAINERS] + ["N", "Z"]),
        st.sampled_from(_NAMES),
    ),
)


def unit_models(leaf=_leaf, repeat_names: bool = False):
    """Models of one unit: per container, its (name, leaves) pointcuts, its
    advices' leaves and its number of fields.

    Each leaf list is joined with ``||``. A name occurs at most once per
    container unless ``repeat_names`` is set.
    """
    expression = st.lists(leaf, min_size=1, max_size=3)
    return st.fixed_dictionaries(
        {
            qualified: st.tuples(
                st.lists(
                    st.tuples(st.sampled_from(_NAMES), expression),
                    max_size=3,
                    unique_by=None if repeat_names else (lambda pointcut: pointcut[0]),
                ),
                st.lists(expression, max_size=2) if keyword == "aspect" else st.just([]),
                st.integers(min_value=0, max_value=2),
            )
            for qualified, keyword, _ in _CONTAINERS
        }
    )


def render_model(model) -> tuple[str, dict]:
    """Source of ``model`` and the line of each (container, kind, index)."""
    lines: list[str] = []
    at: dict = {}

    def emit(qualified: str, keyword: str) -> None:
        lines.append(f"{keyword} {qualified.rsplit('.', 1)[-1]} {{")
        pointcuts, advices, fields = model[qualified]
        lines.extend(f"int f{i};" for i in range(fields))
        for i, (name, leaves) in enumerate(pointcuts):
            lines.append(f"pointcut {name}(): {' || '.join(leaves)};")
            at[qualified, "pointcut", i] = len(lines)
        for i, leaves in enumerate(advices):
            lines.append(f"before(): {' || '.join(leaves)} {{}}")
            at[qualified, "advice", i] = len(lines)
        for inner, inner_keyword, outer in _CONTAINERS:
            if outer == qualified:
                emit(inner, inner_keyword)
        lines.append("}")

    for qualified, keyword, outer in _CONTAINERS:
        if outer is None:
            emit(qualified, keyword)
    return "\n".join(lines) + "\n", at


def _expected_resolution(model, at):
    """README's three rules, then a breadth-first union over every reached pointcut.

    A name repeated in one container names its last declaration there, and
    the container still counts once for rule 3.
    """
    declared = {q: {name: leaves for name, leaves in model[q][0]} for q in model}
    owners_of: dict[str, list[str]] = {}
    for q, names in declared.items():
        for name in names:
            owners_of.setdefault(name, []).append(q)

    def resolve(q: str, ref: str):
        if ref in declared[q]:
            return q, ref
        if "." in ref:
            owner, _, name = ref.rpartition(".")
            return (owner, name) if name in declared.get(owner, {}) else None
        owners = owners_of.get(ref, [])
        return (owners[0], ref) if len(owners) == 1 else None

    def own(leaves):
        cats = set().union(*(_LEAF_CATEGORIES.get(leaf, set()) for leaf in leaves))
        if len(leaves) > 1:
            cats.add(JoinPointCategory.BOOLEAN_OR_COMBINED)
        return cats

    def refs(leaves):
        return [leaf[:-2] for leaf in leaves if leaf not in _LEAF_CATEGORIES]

    categories, warnings = {}, []
    for q, (pointcuts, *_) in model.items():
        for i, (name, _) in enumerate(pointcuts):
            if any(earlier == name for earlier, _ in pointcuts[:i]):
                warnings.append(
                    (
                        at[q, "pointcut", i],
                        f"duplicate pointcut '{name}' in '{q}'; references resolve to the last one",
                    )
                )
    for (q, kind, i), line in at.items():
        leaves = model[q][0][i][1] if kind == "pointcut" else model[q][1][i]
        if kind == "advice" and len(leaves) == 1 and leaves[0] not in _LEAF_CATEGORIES:
            categories[q, kind, i] = set()  # bound to a bare named pointcut
            continue
        warnings.extend(
            (line, f"unresolved pointcut reference '{ref}'")
            for ref in refs(leaves)
            if resolve(q, ref) is None
        )
        cats = own(leaves)
        queue, seen = [(q, leaves)], set()
        while queue:
            owner, owner_leaves = queue.pop(0)
            for ref in refs(owner_leaves):
                target = resolve(owner, ref)
                if target is not None and target not in seen:
                    seen.add(target)
                    target_leaves = declared[target[0]][target[1]]
                    cats |= own(target_leaves)
                    queue.append((target[0], target_leaves))
        categories[q, kind, i] = cats
    return categories, sorted(warnings)


def _container(unit, qualified: str):
    top, *inner = qualified.split(".")
    decl = next(d for d in (*unit.aspects, *unit.classes) if d.name == top)
    for name in inner:
        decl = next(c for c in decl.nested if c.name == name)
    return decl


@settings(max_examples=300, deadline=None)
@given(unit_models(repeat_names=True))
def test_resolution_and_union_match_an_independent_oracle(model):
    source, at = render_model(model)
    unit = parse_source(source, "S.aj")
    assert unit.parse_diagnostics == []
    diags = []
    facts = classify_joinpoint_categories(unit, diags)
    expected, warnings = _expected_resolution(model, at)
    for (q, kind, i), cats in expected.items():
        container = _container(unit, q)
        decl = (container.pointcuts if kind == "pointcut" else container.advices)[i]
        assert decl.source_line == at[q, kind, i]
        assert facts[id(decl)].categories == cats, (source, q, kind, i)
    assert sorted((d.line, d.message) for d in diags) == warnings, source


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
    assert m.wpa.units == 0 and m.waa.units == 0 and m.wjp.units == 0
    assert m.wmca == 1
    assert (m.class_attribute_count, m.class_count) == (1, 1)


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
    assert m.per_aspect[0].name == "A"
    assert m.class_count == 0
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
    assert m.wpa.units == 0 and m.waa.units == 0 and m.wjp.units == 0
    assert m.wmca == sum(n for n, _ in bodies)
    assert m.class_attribute_count == sum(a for _, a in bodies)


def test_byte_order_mark_file_is_measured():
    m = measure_dir(TEST_FIXTURES / "bom" / "V")
    assert m.diagnostics == []
    assert [(c.name, c.wmca, c.attribute_count) for c in m.per_class] == [("Account", 3, 2)]
    assert (m.wmca, m.class_attribute_count, m.class_count) == (3, 2, 1)
    assert m.nac_rendered() == "2.000"


def test_text_block_contents_never_reach_the_parser():
    m = measure_dir(TEST_FIXTURES / "text_block" / "V")
    assert m.diagnostics == []
    assert m.aspect_count == 0 and m.aspect_free
    assert [(c.name, c.wmca, c.attribute_count) for c in m.per_class] == [("Banner", 1, 2)]


def test_c_style_array_returns_are_measured():
    m = measure_dir(TEST_FIXTURES / "array_return" / "V")
    assert m.diagnostics == []
    assert [(c.name, c.wmca, c.attribute_count) for c in m.per_class] == [("Grid", 3, 1)]


def test_c_style_array_fields_are_measured():
    version, units = parse_version_dir(TEST_FIXTURES / "array_field" / "V")
    m = measure_version(version, units, W)
    assert m.diagnostics == []
    assert [(c.name, c.wmca, c.attribute_count) for c in m.per_class] == [("Matrix", 1, 5)]
    assert m.nac_rendered() == "5.000"
    assert [line for line in write_log(units, m).splitlines() if "ATTRIBUTE" in line] == [
        "  ATTRIBUTE int[] c",
        "  ATTRIBUTE int[][] d",
        "  ATTRIBUTE int e",
        "  ATTRIBUTE int[] f",
        "  ATTRIBUTE String[][] rows",
    ]


def test_type_annotations_inside_field_types_are_skipped():
    # javac 17 accepts the fixture; X is a TYPE_USE annotation.
    version, units = parse_version_dir(TEST_FIXTURES / "type_annotation" / "V")
    m = measure_version(version, units, W)
    assert m.diagnostics == []
    assert [(c.name, c.wmca, c.attribute_count) for c in m.per_class] == [("Dims", 1, 6)]
    assert [line for line in write_log(units, m).splitlines() if "ATTRIBUTE" in line] == [
        "  ATTRIBUTE int[] a",
        "  ATTRIBUTE int[] b",
        "  ATTRIBUTE int[][] c",
        "  ATTRIBUTE int d",
        "  ATTRIBUTE int[] f",
        "  ATTRIBUTE java.lang.String e",
    ]


def test_measure_and_log_extract_each_signature_once(monkeypatch):
    calls = []

    def counting_extract(primitive, **kwargs):
        calls.append(primitive)
        return extract_signature_pattern(primitive, **kwargs)

    monkeypatch.setattr(aometrics.metrics, "extract_signature_pattern", counting_extract)
    version, units = parse_version_dir(MINI_UAS / "AJ1.4")
    m = measure_version(version, units, W)
    write_log(units, m)
    assert len(calls) == kinded_primitives(units) > 0


def test_type_annotations_inside_method_heads_are_skipped():
    # javac 17 accepts the fixture; X is a TYPE_USE annotation.
    version, units = parse_version_dir(TEST_FIXTURES / "method_annotation" / "V")
    m = measure_version(version, units, W)
    assert m.diagnostics == []
    assert [(c.name, c.wmca, c.attribute_count) for c in m.per_class] == [("Heads", 4, 1)]
    assert [line for line in write_log(units, m).splitlines() if "METHOD" in line] == [
        "  METHOD java.util.List<String> names()",
        "  METHOD int[] sizes()",
        "  METHOD <T> java.util.Map<T, String> index(T key)",
        "  METHOD String[][] grid()",
    ]


def test_parameter_annotations_are_left_out_of_the_logged_signature():
    # javac 17 accepts the fixture; X applies to parameters and type uses.
    version, units = parse_version_dir(TEST_FIXTURES / "param_annotation" / "V")
    m = measure_version(version, units, W)
    assert m.diagnostics == []
    assert [(c.name, c.wmca, c.attribute_count) for c in m.per_class] == [("Params", 3, 0)]
    assert [line for line in write_log(units, m).splitlines() if "METHOD" in line] == [
        "  METHOD void f(int a)",
        "  METHOD Params(final String s, int n)",
        "  METHOD int g(List<String> names, long count)",
        "  METHOD <T> void h(T t, int[] b)",
    ]


def test_varargs_keep_their_blank_in_the_logged_signature():
    # javac 17 accepts each method, X being a TYPE_USE annotation.
    source = (
        "class A { void f(int... rest) {} void g(String[]... a) {}"
        " void k(final int @X ... r) {} void m(@X String @X ... s) {} }"
    )
    unit = parse_source(source, "A.java")
    m = measure_version("v", [unit], W)
    assert m.diagnostics == []
    assert m.wmca == 4
    assert [line for line in write_log([unit], m).splitlines() if "METHOD" in line] == [
        "  METHOD void f(int... rest)",
        "  METHOD void g(String[]... a)",
        "  METHOD void k(final int... r)",
        "  METHOD void m(String... s)",
    ]


def test_annotation_types_are_not_measured_with_or_without_modifiers():
    # javac 17 compiles the fixture: top-level and nested annotation types,
    # after modifiers, after an annotation and bare, each followed by a class
    # or a member that counts.
    version, units = parse_version_dir(TEST_FIXTURES / "annotation_type" / "V")
    m = measure_version(version, units, W)
    assert m.diagnostics == []
    assert [(c.name, c.wmca, c.attribute_count) for c in m.per_class] == [
        ("Holder", 1, 1),
        ("Plain", 1, 1),
    ]


def test_a_designator_after_a_ternary_leaves_the_next_member_alone():
    # ``get(b)`` after the ternary's ':' is one token; ``set`` after the ';' is not.
    unit = parse_source("class C { int y = c ? a : get(b);\n void set(int v) {} }", "C.java")
    m = measure_version("v", [unit], W)
    assert m.diagnostics == []
    assert [line for line in write_log([unit], m).splitlines() if "METHOD" in line or "ATTRIBUTE" in line] == [
        "  METHOD void set(int v)",
        "  ATTRIBUTE int y",
    ]


def test_module_info_is_a_declaration_free_unit():
    # javac 17 compiles the fixture's module-info.java and Main.java together.
    version, units = parse_version_dir(TEST_FIXTURES / "module_info" / "V")
    assert sorted(Path(path).name for path in version.files) == ["Main.java", "module-info.java"]
    m = measure_version(version, units, W)
    assert m.diagnostics == []
    assert [(c.name, c.wmca, c.attribute_count) for c in m.per_class] == [("Main", 2, 1)]
    log = write_log(units, m)
    assert f"FILE {TEST_FIXTURES / 'module_info' / 'V' / 'module-info.java'}\n" in log


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


def test_unclosed_and_too_deep_designators_stay_linear(tmp_path, capsys):
    # Each 'call(' starts a bounded match that fails: the first 20k never
    # close, the next 20k nest four deep, and the last runs 60k characters
    # into the ';'. None may rescan the text.
    source = (
        "aspect A {\n  pointcut p(): "
        + "call(" * 20_000
        + "call((((x" * 20_000
        + "call(" + "a, " * 20_000
        + ";\n}\n"
    )
    started = time.perf_counter()
    unit = parse_source(source, "A.aj")
    assert [str(d) for d in unit.parse_diagnostics] == [
        "A.aj:2: error: missing ';' after pointcut 'p'",
        "A.aj:2: warning: malformed pointcut expression: unbalanced parentheses",
        "A.aj:4: error: unexpected end of file inside 'A'",
    ]
    (tmp_path / "V").mkdir()
    (tmp_path / "V" / "A.aj").write_text(source, encoding="utf-8")
    code = main(["measure", str(tmp_path / "V"), "--out", str(tmp_path / "out")])
    captured = capsys.readouterr()
    assert time.perf_counter() - started < 20
    assert code == 0
    assert "Traceback" not in captured.err


def test_classes_nested_1000_deep_are_each_measured(tmp_path, capsys, monkeypatch):
    # The nest sits in an aspect and holds an interface and an enum partway
    # down; the aspect's members after it are still read as an aspect's.
    # The file is lexed once: every nested body is read from its tokens,
    # and each brace block is walked once, so the parser reads each token a
    # few times, not once per level of the nest around it.
    depth = 1000
    words = ["class"] * depth
    words[300], words[600] = "interface", "enum"
    src = (
        "aspect Outer {\n"
        + "".join(f"{word} C{i} {{ int f; void m() {{}} " for i, word in enumerate(words))
        + "}" * depth
        + "\n  pointcut p(): within(C0);\n  before(): p() {}\n}\n"
    )
    lexed = []

    def counting_tokenize(text, file):
        lexed.append(len(text))
        return tokenize(text, file=file)

    class CountingTokens(list):
        reads = 0

        def __getitem__(self, index):
            CountingTokens.reads += 1
            return super().__getitem__(index)

    init = aometrics.parser._DeclParser.__init__

    def counting_init(self, *args):
        init(self, *args)
        self.tokens = CountingTokens(self.tokens)

    monkeypatch.setattr(aometrics.parser, "tokenize", counting_tokenize)
    monkeypatch.setattr(aometrics.parser._DeclParser, "__init__", counting_init)
    (tmp_path / "V").mkdir()
    (tmp_path / "V" / "Deep.aj").write_text(src, encoding="utf-8")
    code = main(["measure", str(tmp_path / "V"), "--out", str(tmp_path / "out")])
    captured = capsys.readouterr()
    assert (code, captured.err) == (0, "")
    assert len(lexed) == 1
    assert CountingTokens.reads < 4 * len(tokenize(src, file="Deep.aj")[0])
    log = (tmp_path / "out" / "V.log").read_text(encoding="utf-8").splitlines()
    names = ["Outer"]
    for i in range(depth):
        names.append(f"{names[-1]}.C{i}")
    assert [line for line in log if line.startswith("CLASS ")] == [f"CLASS {n}" for n in names[1:]]
    assert [line for line in log if line.startswith(("ASPECT", "  POINTCUT", "  ADVICE"))] == [
        "ASPECT Outer",
        "  POINTCUT p: within(C0)",
        "  ADVICE before: p()",
    ]
    assert log[-2:] == [f"METRIC WMCA {depth}", "METRIC NAC 1.000"]
