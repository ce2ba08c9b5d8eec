from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from aometrics import measure_version, parse_source
from aometrics.diagnostics import Severity
from aometrics.lexer import PATTERN_DESIGNATORS, tokenize
from aometrics.pointcuts import (
    DESIGNATORS,
    And,
    NamedRef,
    Not,
    Or,
    Primitive,
    extract_signature_pattern,
    parse_pointcut_expression,
    render_expression,
)
from aometrics.weights import SpecificityLevel, default_weights, signature_specificity


def _parse(text: str, **kwargs):
    """Tokenize ``text`` and parse all of it as one pointcut expression."""
    tokens, _ = tokenize(text)
    return parse_pointcut_expression(tokens, text, **kwargs)


def _declared(text: str):
    """Parse ``text`` as a pointcut's expression, where the lexer reads each designator whole."""
    unit = parse_source(f"aspect A {{ pointcut p(): {text}; }}", "A.aj")
    return unit.aspects[0].pointcuts[0].expression, [str(d) for d in unit.parse_diagnostics]


def test_designator_lists():
    # The lexer joins a pattern designator with its argument; the pointcut
    # parser knows those and three whose argument is a pointcut or empty.
    assert PATTERN_DESIGNATORS == {
        "call", "execution", "get", "set", "handler", "within", "withincode",
        "this", "target", "args", "initialization", "preinitialization",
        "staticinitialization",
    }
    assert DESIGNATORS == PATTERN_DESIGNATORS | {"cflow", "cflowbelow", "adviceexecution"}


def test_single_primitive():
    expr = _parse("execution(* *.f(..))")
    assert expr == Primitive("execution", "* *.f(..)")


def test_and_of_primitives():
    expr = _parse("call(void A.g()) && within(A)")
    assert isinstance(expr, And)
    assert expr.left == Primitive("call", "void A.g()")
    assert expr.right == Primitive("within", "A")


def test_precedence_not_over_or():
    expr = _parse("!cflow(p()) || handler(java.io.IOException)")
    assert isinstance(expr, Or)
    assert isinstance(expr.left, Not)
    assert expr.left.child == Primitive("cflow", "p()")
    assert expr.right == Primitive("handler", "java.io.IOException")


def test_parentheses_group():
    expr = _parse("execution(* f()) && (within(A) || within(B))")
    assert isinstance(expr, And)
    assert isinstance(expr.right, Or)


def test_named_reference():
    expr = _parse("loginFlow()")
    assert expr == NamedRef("loginFlow")


def test_dotted_named_reference():
    expr = _parse("Other.loginFlow()")
    assert expr == NamedRef("Other.loginFlow")


def test_keyword_designator_flagged_unknown():
    diags = []
    expr = _parse("if(enabled)", diagnostics=diags)
    assert expr == Primitive("if", "enabled", known=False)
    assert diags and diags[0].severity is Severity.WARNING


def test_malformed_expression_degrades():
    diags = []
    expr = _parse("execution(* f() && ", diagnostics=diags)
    assert isinstance(expr, Primitive)
    assert not expr.known
    assert any("malformed" in d.message for d in diags)


def test_whitespace_and_comments_inside_expression():
    expr = _parse("call(void A.g())   /* glue */  && within(A)")
    assert isinstance(expr, And)


def test_literals_and_comments_are_read_as_the_lexer_reads_them():
    # A literal outside every argument is skipped like a comment, and a
    # parenthesis inside a comment within an argument does not count.
    diags = []
    expr = _parse('within(A) "x" && call(a /* ) */ b)', diagnostics=diags)
    assert expr == And(Primitive("within", "A"), Primitive("call", "a b"))
    assert not diags


def test_a_slash_that_opens_no_comment_is_kept():
    assert _parse("args( x /y/ z )") == Primitive("args", "x /y/ z")
    assert _parse("args(a/ /*c*/ b // d\n e)") == Primitive("args", "a/ b e")

def test_render_round_trip_structure():
    source = "!cflow(p()) || handler(java.io.IOException) && within(A)"
    expr = _parse(source)
    rendered = render_expression(expr)
    assert _parse(rendered) == expr


_leaves = st.sampled_from(
    [
        Primitive("execution", "* *.f(..)"),
        Primitive("within", "uas.test..*"),
        Primitive("handler", "java.io.IOException"),
        NamedRef("p"),
        NamedRef("Other.q"),
    ]
)
_expr_trees = st.recursive(
    _leaves,
    lambda inner: st.one_of(
        st.builds(Not, inner),
        st.builds(And, inner, inner),
        st.builds(Or, inner, inner),
    ),
    max_leaves=12,
)


@given(_expr_trees)
def test_render_parse_round_trip_random_trees(expr):
    rendered = render_expression(expr)
    diags = []
    assert _parse(rendered, diagnostics=diags) == expr
    assert not diags


# -- signature extraction -------------------------------------------------


def test_extract_execution_pattern():
    pat = extract_signature_pattern(Primitive("execution", "void||int *.func(..)"))
    assert pat.return_pattern == "void||int"
    assert pat.declaring_type_pattern == "*"
    assert pat.name_pattern == "func"
    assert pat.params_pattern == ".."


def test_extract_call_fully_qualified():
    pat = extract_signature_pattern(Primitive("call", "public void pkg.A.save(int)"))
    assert pat.return_pattern == "void"
    assert pat.declaring_type_pattern == "pkg.A"
    assert pat.name_pattern == "save"
    assert pat.params_pattern == "int"


def test_extract_handler_type_only():
    pat = extract_signature_pattern(Primitive("handler", "java.io.IOException"))
    assert pat.declaring_type_pattern == "java.io.IOException"
    assert pat.name_pattern == ""
    assert pat.params_pattern == ""


def test_extract_get_set():
    pat = extract_signature_pattern(Primitive("set", "* uas.Student.email"))
    assert pat.return_pattern == "*"
    assert pat.declaring_type_pattern == "uas.Student"
    assert pat.name_pattern == "email"


def test_non_kinded_returns_none():
    assert extract_signature_pattern(Primitive("within", "A")) is None
    assert extract_signature_pattern(Primitive("cflow", "p()")) is None


def test_malformed_signature_returns_none():
    diags = []
    pat = extract_signature_pattern(
        Primitive("execution", "nonsense"), diagnostics=diags
    )
    assert pat is None
    assert diags


@pytest.mark.parametrize(
    ("primitive", "reason"),
    [
        (Primitive("get", "int a.B.f()"), "unexpected parameter list"),
        (Primitive("set", "int a.B.f()"), "unexpected parameter list"),
        (Primitive("execution", "public (..)"), "no method pattern"),
        (Primitive("execution", ") x ("), "unbalanced parameter list"),
    ],
)
def test_malformed_signature_warning(primitive, reason):
    diags = []
    assert extract_signature_pattern(primitive, diagnostics=diags, file="A.aj", line=3) is None
    assert [(d.severity, d.file, d.line, d.message) for d in diags] == [
        (Severity.WARNING, "A.aj", 3, f"malformed {primitive.designator} signature: {reason}")
    ]


def test_malformed_signature_warnings_at_their_pointcut_lines():
    unit = parse_source(
        """aspect A {
            pointcut g(): get(int a.B.f());
            pointcut s(): set(int a.B.f());

            pointcut e(): execution(public (..));
        }""",
        "A.aj",
    )
    m = measure_version("v", [unit], default_weights())
    assert [(d.line, d.message) for d in m.diagnostics] == [
        (2, "malformed get signature: unexpected parameter list"),
        (3, "malformed set signature: unexpected parameter list"),
        (5, "malformed execution signature: no method pattern"),
    ]


def test_package_wildcard_type_split():
    pat = extract_signature_pattern(Primitive("call", "* uas..*.save(..)"))
    assert pat.declaring_type_pattern == "uas..*"
    assert pat.name_pattern == "save"


# -- specificity levels ----------------------------------------------------


def test_signature_weight_levels():
    table = default_weights()
    cases = [
        ("void||int *.func(..)", "0.5"),
        ("public void pkg.A.save(int)", "0.1"),
        ("* pkg.A.save(..)", "0.3"),
        ("void pkg.A.sa*(int)", "0.4"),
        ("void pkg.A.save(..)", "0.2"),
    ]
    for arg, expected in cases:
        pat = extract_signature_pattern(Primitive("execution", arg))
        assert table.signature_level_weights[signature_specificity(pat)].render() == expected, arg


def test_unqualified_class_is_highest():
    pat = extract_signature_pattern(Primitive("call", "void Database.persist(String)"))
    assert signature_specificity(pat) is SpecificityLevel.WILDCARD_OR_UNQUALIFIED_CLASS


_types = st.sampled_from(["pkg.A", "other.deep.B"])
_names = st.sampled_from(["save", "load"])
_returns = st.sampled_from(["void", "int"])
_params = st.sampled_from(["", "int", "int, long"])


@given(_types, _names, _returns, _params)
def test_adding_wildcards_never_decreases_level(type_pat, name_pat, ret_pat, params):
    def level(t, n, r, p):
        pat = extract_signature_pattern(Primitive("execution", f"{r} {t}.{n}({p})"))
        return signature_specificity(pat)

    base = level(type_pat, name_pat, ret_pat, params)
    assert level("*", name_pat, ret_pat, params) >= base
    assert level(type_pat, name_pat + "*", ret_pat, params) >= base
    assert level(type_pat, name_pat, "*", params) >= base
    assert level(type_pat, name_pat, ret_pat, "..") >= base


_MALFORMED_NAME = "A.aj:1: warning: malformed pointcut expression: expected a designator or pointcut name"


def test_designator_edges_read_as_their_plain_tokens_did():
    cases = {
        "Base.call() && X.within()": (And(NamedRef("Base.call"), NamedRef("X.within")), []),
        "@within(A)": (Primitive("", "@within(A)", known=False), [_MALFORMED_NAME]),
        "cflow(call(* f()))": (Primitive("cflow", "call(* f())"), []),
        "if(x > 0)": (
            Primitive("if", "x > 0", known=False),
            ["A.aj:1: warning: unknown pointcut designator 'if'"],
        ),
        "call (* f())": (Primitive("call", "* f()"), []),
        "call(\tvoid  A.g( ) )": (Primitive("call", "void A.g( )"), []),
        "within(a.b) && get(int[] A.x)": (
            And(Primitive("within", "a.b"), Primitive("get", "int[] A.x")),
            [],
        ),
        # Arguments the lexer leaves to the fallback: a comment, a string, a
        # newline, nesting four deep, a bracket that is not '[]'.
        "call(* f(/* c */ int))": (Primitive("call", "* f( int)"), []),
        'args("x")': (Primitive("args", '"x"'), []),
        "call(* f(int,\n long))": (Primitive("call", "* f(int, long)"), []),
        "call(* f(g(h(x))))": (Primitive("call", "* f(g(h(x)))"), []),
        "get(int A.[x])": (Primitive("get", "int A.[x]"), []),
    }
    for text, expected in cases.items():
        assert _declared(text) == expected, text
