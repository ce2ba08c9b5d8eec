"""Shared test utilities: fixture paths, measurement shortcuts, and an
independent brute-force method counter used as an oracle.

The brute counter deliberately shares no code with the production parser:
it is a character/line-level pass (no regular expressions either) tuned to
the disciplined layout of the bundled fixtures.
"""

from __future__ import annotations

from pathlib import Path

from aometrics import (
    And,
    Not,
    Or,
    Primitive,
    ScanMode,
    default_weights,
    measure_version,
    parse_source,
    scan_corpus,
)
from aometrics.parser import walk_classes
from aometrics.pointcuts import KINDED_DESIGNATORS

REPO_ROOT = Path(__file__).resolve().parent.parent
MINI_UAS = REPO_ROOT / "fixtures" / "mini-uas"
TEST_FIXTURES = Path(__file__).resolve().parent / "fixtures"
GOLDEN = Path(__file__).resolve().parent / "golden"

MINI_UAS_ORDER = ["J1.0", "AJ1.1", "AJ1.2", "AJ1.3", "AJ1.4"]


def parse_version_dir(path: Path):
    (version,) = scan_corpus(path, ScanMode.SINGLE_VERSION)
    units = [parse_source(Path(path).read_text(encoding="utf-8"), path) for path in version.files]
    return version, units


def measure_dir(path: Path, table=None, strict: bool = False):
    version, units = parse_version_dir(path)
    return measure_version(version, units, table or default_weights(), strict=strict)


def kinded_primitives(units) -> int:
    """How many known kinded primitives the units' pointcuts and advice hold."""
    count = 0
    for unit in units:
        owners = [*unit.aspects, *(cls for _, cls in walk_classes(unit))]
        for owner in owners:
            stack = [d.expression for d in (*owner.pointcuts, *owner.advices)]
            while stack:
                node = stack.pop()
                if isinstance(node, Primitive):
                    count += node.known and node.designator in KINDED_DESIGNATORS
                elif isinstance(node, Not):
                    stack.append(node.child)
                elif isinstance(node, (And, Or)):
                    stack.extend((node.left, node.right))
    return count


# -- independent method-header counter -----------------------------------


def _blank_comments_and_strings(text: str) -> str:
    out = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "/" and i + 1 < n and text[i + 1] == "/":
            while i < n and text[i] != "\n":
                i += 1
            continue
        if ch == "/" and i + 1 < n and text[i + 1] == "*":
            i += 2
            while i + 1 < n and not (text[i] == "*" and text[i + 1] == "/"):
                if text[i] == "\n":
                    out.append("\n")
                i += 1
            i += 2
            continue
        if ch in "\"'":
            quote = ch
            i += 1
            while i < n and text[i] != quote:
                if text[i] == "\\":
                    i += 1
                i += 1
            i += 1
            continue
        out.append(ch)
        i += 1
    return "".join(out)


def brute_force_method_counts(text: str) -> tuple[int, int]:
    """Count (non-constructor methods, constructors) by line inspection."""
    cleaned = _blank_comments_and_strings(text)
    stack: list[tuple[str, str]] = []  # (frame kind, type name)
    methods = 0
    constructors = 0

    for raw in cleaned.split("\n"):
        line = raw.strip()
        if not line:
            continue

        first_open = line.find("{")
        header = line[:first_open].strip() if first_open >= 0 else None
        header_frame = ("code", "")

        if header is not None:
            words = header.replace("(", " ( ").split()
            type_kw = next(
                (w for w in ("class", "interface", "enum", "aspect") if w in words), None
            )
            if type_kw is not None:
                idx = words.index(type_kw)
                type_name = words[idx + 1] if idx + 1 < len(words) else "?"
                header_frame = ("type", type_name)
            elif stack and stack[-1][0] == "type" and "(" in words:
                name = words[words.index("(") - 1]
                simple = name.rsplit(".", 1)[-1]
                if "pointcut" not in words and simple not in ("before", "after", "around"):
                    if simple == "new" or simple == stack[-1][1]:
                        constructors += 1
                    else:
                        methods += 1

        # Headless abstract/interface method headers end in ';'.
        if (
            header is None
            and line.endswith(";")
            and stack
            and stack[-1][0] == "type"
            and "(" in line
            and "=" not in line.split("(")[0]
        ):
            words = line[:-1].replace("(", " ( ").split()
            if "pointcut" not in words and "(" in words:
                name = words[words.index("(") - 1]
                simple = name.rsplit(".", 1)[-1]
                if simple not in ("before", "after", "around"):
                    if simple == "new" or simple == stack[-1][1]:
                        constructors += 1
                    else:
                        methods += 1

        first = True
        for ch in line:
            if ch == "{":
                stack.append(header_frame if first else ("code", ""))
                first = False
            elif ch == "}":
                if stack:
                    stack.pop()

    return methods, constructors
