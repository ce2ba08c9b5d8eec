"""Differential property: the regex lexer against the char-loop oracle.

The two must agree on every token's kind, text, line and offsets and on
every diagnostic, for any text except the two inputs the regex lexer
changed on purpose: Java text blocks (``\"\"\"``) and a leading byte-order
mark.
"""

from __future__ import annotations

from hypothesis import example, given, settings
from hypothesis import strategies as st

import reference_lexer
from aometrics.lexer import tokenize

# Fragments that exercise every rule, plus the known traps: non-ASCII
# letters, Unicode whitespace, numerics that ``\d``/``\w`` and the ``str``
# predicates classify differently (superscript two is ``isdigit`` but not
# ``\d``; one half is ``\w`` but not ``isalpha``), quotes, escapes and
# comment delimiters.
_FRAGMENTS = [
    "class", "aspect", "pointcut", "A", "x", "_", "$", "é", "1", "0.5", ".",
    " ", "\t", "\n", "\r", "\x0b", "\x1c", "\xa0", "\u2028", "\ufeff",
    "²", "½", "\\", '"', "'", "/*", "//", "*/", "*", "/", "\\\n",
    "{", "}", "(", ")", ";", ",", ":", "::", "&&", "||", "!", "<<", ">>=",
    "->", "-", "=", "+", "@", "[", "]", "#",
]

_texts = st.one_of(
    st.lists(st.sampled_from(_FRAGMENTS), max_size=40).map("".join),
    st.text(alphabet="".join(sorted(set("".join(_FRAGMENTS)))), max_size=60),
)


def _observed(lexer, text: str):
    tokens, diagnostics = lexer(text, file="F.java")
    return (
        [(t.kind, t.text, t.line, t.start, t.end) for t in tokens],
        [str(d) for d in diagnostics],
    )


@settings(max_examples=1000, deadline=None)
@given(_texts.filter(lambda t: '"""' not in t and not t.startswith("\ufeff")))
@example('class A { String s = "abc\\')  # trailing backslash, unterminated
@example('a "x\\\ny" b\nc')  # backslash-newline inside a closed literal
@example("'q\\\n\nr")  # ... and inside an unterminated one
@example("x²y ²z 1.² ½w v½ 3.5f")
@example("é\xa0 \x1c\x0bb /* a\n*/ c // d\n e")
@example("a /*/ b */ c /* open\n\n")
def test_regex_lexer_matches_char_loop_oracle(text):
    assert _observed(tokenize, text) == _observed(reference_lexer.tokenize, text)
