"""Differential property: the token pointcut parser against the text oracle.

``parse_pointcut_expression`` parses the lexer's tokens of an expression;
``reference_pointcuts`` scans the expression's text a second time, one
character at a time. For every text the lexer accepts without a
diagnostic, both must give the same tree and the same diagnostics.

The two differ on purpose where the lexer knows better than the old
scan, and the texts below avoid those inputs: a string or character
literal outside every designator argument (the lexer skips it like a
comment), and a comment inside an argument that holds a parenthesis or a
quote (the lexer does not count it). So every literal here sits inside
the argument of the fragment that holds it, and every comment holds
neither.
"""

from __future__ import annotations

from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import reference_pointcuts
from aometrics.lexer import tokenize
from aometrics.pointcuts import parse_pointcut_expression

# The known traps: '!=' next to '!', runs of '&' and '|', spaced and
# broken dots, keywords as names, a number glued to a name, closed
# literals holding parentheses, quotes and comment openers, comments,
# newlines, and the stop tokens ';' and '{' in the middle of the text.
_FRAGMENTS = [
    "execution", "call", "within", "cflow", "handler", "p", "a", "B", "x1",
    "if", "this", "class", "new", "é", "_", "$",
    "(", ")", "!", "!=", "&&", "||", "&&&", "|||", "&", "|", ".", "..",
    "*", "+", "@", ",", ";", "{", "}", "=", "1", "1x()",
    " ", "  ", "\n", "\t", "\xa0",
    "/* */", "/* c */", "// c\n",
    "within(A)", "call(* *.f(..))", "p()", "Other.q()", "a . b()", "a.b()", "a. b()",
    'args(")")', "within('(')", 'call(void f("/*", "*/"))', 'h("a\\"b(")', "if(x)",
]

_SEPARATORS = st.sampled_from(["", " ", "\n", "/* */", "// c\n", "\t"])
_LEAVES = st.sampled_from(
    ["within(A)", "call(* *.f(..))", 'args(")")', "p()", "a.b()", "if(x)", "this(T)"]
)


def _combine(inner):
    return st.one_of(
        st.tuples(inner, _SEPARATORS, st.sampled_from(["&&", "||"]), _SEPARATORS, inner).map(
            "".join
        ),
        st.tuples(st.just("!"), _SEPARATORS, inner).map("".join),
        st.tuples(st.just("("), _SEPARATORS, inner, _SEPARATORS, st.just(")")).map("".join),
    )


# Fragment soup reaches every error; the grammar-shaped texts reach deep
# well-formed trees, where precedence and grouping decide the result.
_texts = st.one_of(
    st.lists(st.sampled_from(_FRAGMENTS), max_size=30).map("".join),
    st.recursive(_LEAVES, _combine, max_leaves=10),
)


@settings(max_examples=1000, deadline=None)
@given(_texts)
@example("a() || b() && c()")
@example("!!a() && !(b() || c()) || d()")
@example("a() &&& b()")
@example("a() ||| b()")
@example("!= a()")
@example("a . b()")
@example("1x()")
@example("call(void f(\"(\" /* */ )) // c\n && class()")
@example("((a()) ; b()")
@example("a() { b() }")
@example("  \n")
def test_token_parser_matches_text_oracle(text):
    tokens, lex_diagnostics = tokenize(text, file="A.aj")
    assume(not lex_diagnostics)
    diagnostics, oracle_diagnostics = [], []
    expr = parse_pointcut_expression(
        tokens, text, diagnostics=diagnostics, file="A.aj", line=3
    )
    oracle = reference_pointcuts.parse_pointcut_expression(
        text[tokens[0].start :], diagnostics=oracle_diagnostics, file="A.aj", line=3
    )
    assert expr == oracle
    assert [str(d) for d in diagnostics] == [str(d) for d in oracle_diagnostics]
