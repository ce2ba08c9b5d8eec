"""One digest pins what the parser makes of a fixed corpus of malformed input.

The corpus is token soup drawn with a fixed seed over
``test_never_raises._VOCABULARY``; soup from a second seed, each text the
body of a class nested in another, ahead of a field of the outer class;
and every Java/AspectJ fixture cut at, and with one character deleted at,
every 11th offset. The nested soup pins where a nested body ends: what it
leaves unclosed must not take the outer class's field. Each parse result
is read field by field (names, signatures, lines, pointcut expressions,
advice kinds, the text of each diagnostic), never through ``repr``, so
the digest is the same on every supported Python version.

A change to how the parser recovers from malformed code moves the digest
in ``parse_digest_malformed.json``; such a change updates that file on
purpose and says how many inputs moved (``malformed_results`` yields the
results one by one). To print the digest of the code at hand, or to
write one JSON line ``[text, result]`` per input to FILE::

    PYTHONPATH=src:tests python tests/test_parse_digest.py [--dump FILE]

Two trees' dumps diff line by line: each differing line is one moved input.
To count them against a dump that another tree wrote, printing how many
inputs moved, how many of those had no error there, and the first few
moved texts::

    PYTHONPATH=src:tests python tests/test_parse_digest.py --compare OLD_DUMP
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
from pathlib import Path

from aometrics import parse_source
from aometrics.pointcuts import And, NamedRef, Not, Or
from test_never_raises import _FIXTURE_TEXTS, _VOCABULARY

DIGEST = Path(__file__).resolve().parent / "parse_digest_malformed.json"

_SEED = 22
_SOUP_TEXTS = 20_000
_NESTED_SEED = 25
_NESTED_TEXTS = 5_000
_SOUP_MAX_TOKENS = 60
_FIXTURE_STEP = 11


def _soup(seed: int, count: int):
    rng = random.Random(seed)
    for _ in range(count):
        yield " ".join(rng.choice(_VOCABULARY) for _ in range(rng.randrange(_SOUP_MAX_TOKENS + 1)))


def _corpus():
    yield from _soup(_SEED, _SOUP_TEXTS)
    for soup in _soup(_NESTED_SEED, _NESTED_TEXTS):
        yield f"class O {{\n  class I {{\n{soup}\n  }}\n  int y;\n}}\n"
    for text in dict.fromkeys(_FIXTURE_TEXTS):  # each text once: versions share files
        for offset in range(0, len(text), _FIXTURE_STEP):
            yield text[:offset]
            yield text[:offset] + text[offset + 1 :]


def _expression(expr) -> str:
    if isinstance(expr, (And, Or)):
        return f"{type(expr).__name__}({_expression(expr.left)}, {_expression(expr.right)})"
    if isinstance(expr, Not):
        return f"Not({_expression(expr.child)})"
    if isinstance(expr, NamedRef):
        return f"Ref({expr.name})"
    return f"{expr.designator}({expr.argument_text}){'' if expr.known else '?'}"


def _type(decl) -> list:
    fields = [
        decl.name,
        decl.line,
        decl.kind,
        [[m.name, m.signature_text, m.is_constructor, m.is_intertype, m.line] for m in decl.methods],
        [[a.name, a.declared_type, a.line] for a in decl.attributes],
        [[p.name, p.source_line, _expression(p.expression)] for p in decl.pointcuts],
        [_type(inner) for inner in decl.nested],
    ]
    if decl.kind == "aspect":
        fields.append([[a.kind.value, a.source_line, _expression(a.expression)] for a in decl.advices])
    return fields


def malformed_results():
    """Yield ``(text, result)`` for each corpus input, ``result`` as compact JSON."""
    for text in _corpus():
        unit = parse_source(text, "F.aj")
        result = [
            [_type(c) for c in unit.classes],
            [_type(a) for a in unit.aspects],
            [str(d) for d in unit.parse_diagnostics],
        ]
        yield text, json.dumps(result, separators=(",", ":"))


def malformed_digest(dump=None) -> tuple[int, str]:
    """The input count and SHA-256 of the results; each ``[text, result]`` line goes to ``dump`` too."""
    digest = hashlib.sha256()
    count = 0
    for text, result in malformed_results():
        digest.update(result.encode("utf-8"))
        digest.update(b"\n")
        count += 1
        if dump is not None:
            dump.write(f"[{json.dumps(text)},{result}]\n")
    return count, digest.hexdigest()


def test_parse_results_on_malformed_input_match_the_committed_digest():
    count, digest = malformed_digest()
    assert {"inputs": count, "sha256": digest} == json.loads(DIGEST.read_text(encoding="utf-8"))


def compare(old_dump: str, shown: int = 5) -> None:
    """Print how many inputs parse unlike in ``old_dump``, a dump of the same corpus."""
    moved = clean = 0
    with open(old_dump, encoding="utf-8") as old:
        for (text, result), line in zip(malformed_results(), old, strict=True):
            old_text, old_result = json.loads(line)
            assert old_text == text, "the dump was written over another corpus"
            if json.loads(result) == old_result:
                continue
            moved += 1
            # Each diagnostic reads "F.aj:LINE: SEVERITY: message".
            if all(d.split(": ", 2)[1] != "error" for d in old_result[2]):
                clean += 1
            if moved <= shown:
                print(f"moved: {json.dumps(text)}")
    print(f"{moved} inputs moved, {clean} of them with no error in {old_dump}")


def _main() -> None:
    parser = argparse.ArgumentParser(description="Print the parse digest of the malformed corpus.")
    parser.add_argument("--dump", metavar="FILE", help="also write one JSON line [text, result] per input")
    parser.add_argument("--compare", metavar="OLD_DUMP", help="count the inputs that parse unlike in OLD_DUMP")
    args = parser.parse_args()
    if args.compare:
        compare(args.compare)
        return
    if args.dump:
        with open(args.dump, "w", encoding="utf-8") as dump:
            count, digest = malformed_digest(dump)
    else:
        count, digest = malformed_digest()
    print(json.dumps({"inputs": count, "sha256": digest}, indent=2))


if __name__ == "__main__":
    _main()
