"""Fixed reference work that calibrates the benchmark's timings.

Runs a constant amount of pure-Python work of the kind the CLI does
(regular-expression scanning, string slicing, dict and list churn, small
objects) and exits. It imports nothing from aometrics, so no change to the
program under test changes its time; only the speed the host lends the
benchmark at that moment does. ``run.py`` runs it as a fresh process next
to every timed CLI run and divides by its time.
"""

import re

_TOKEN = re.compile(r"[A-Za-z_$][\w$]*|[0-9]+|&&|\|\||\S")
_TEXT = (
    "public aspect Ref { pointcut p(int a): execution(* uas.Ref.m(..)) && args(a);\n"
    "  before(int a): p(a) { audit(\"ref\", a + 1); }\n"
    "  private int hits = 0; public void tally() { hits = hits + 1; } }\n"
) * 60


class _Tok:
    __slots__ = ("kind", "text", "pos")

    def __init__(self, kind, text, pos):
        self.kind = kind
        self.text = text
        self.pos = pos


def work(rounds: int) -> int:
    total = 0
    for _ in range(rounds):
        toks = [_Tok(m.group()[0].isalpha(), m.group(), m.start()) for m in _TOKEN.finditer(_TEXT)]
        counts: dict[str, int] = {}
        for tok in toks:
            if tok.kind:
                counts[tok.text] = counts.get(tok.text, 0) + 1
            else:
                total += tok.pos & 7
        total += sum(len(k) * v for k, v in sorted(counts.items()))
    return total


if __name__ == "__main__":
    work(30)
