"""Seeded corpus generator and independent metric oracle for the benchmark.

Every corpus is built from ``fixtures/mini-uas`` alone. Each copy of a
fixture version gets its own package, class and aspect names and a set of
edits that cannot change any metric: Javadoc and line comments, and
statements (with string and character literals) inside method and advice
bodies. The ``pointcut-dense`` workload also adds generated aspects whose
weights are computed here from the README weight tables.

The expected values of every version come from the ``MANIFEST.json``
oracles of the fixture (scaled by copy counts) plus the hand-derived
weights of generated pointcuts; nothing here imports or runs aometrics.
The same seed always gives a byte-identical corpus.
"""

from __future__ import annotations

import hashlib
import json
import random
import re
from dataclasses import dataclass, field
from pathlib import Path

STAGES = ("J1.0", "AJ1.1", "AJ1.2", "AJ1.3", "AJ1.4")
SOURCE_SUFFIXES = (".java", ".aj")

# README weight tables, in tenths.
ADVICE_TENTHS = {"before": 1, "after": 1, "after_returning": 1, "after_throwing": 1, "around": 2}
CATEGORY_TENTHS = {
    "method_execution": 1,
    "method_call": 2,
    "exception_handling": 3,
    "within_advice": 4,
    "attribute": 5,
    "particular_method": 6,
    "particular_class": 7,
    "particular_package": 8,
    "control_flow": 9,
    "boolean_or_combined": 10,
}
KINDED = ("execution", "call", "get", "set", "handler")

#: Workload sizes, chosen so that one CLI run takes about a second on a
#: 2-core machine, which leaves room for 20 to 30 runs, each with its
#: reference run, in a 35 s window.
HISTORY_MODULES = 2
HISTORY_VERSIONS = 32
HISTORY_EDIT_RATE = 0.3
DISTINCT_COPIES = 60
DENSE_COPIES = 4
DENSE_ASPECTS_PER_COPY = 24
DENSE_POINTCUTS = 12
DENSE_ADVICES = 10


# -- fixture templates -----------------------------------------------------


@dataclass(frozen=True)
class Template:
    relpath: str
    text: str
    kinded: int  # kinded primitives in its pointcut and advice expressions
    pointcuts: int
    advices: int


def is_source(relpath: str) -> bool:
    """Whether the scanner reads the file: hidden directories are pruned."""
    return relpath.endswith(SOURCE_SUFFIXES) and not any(
        part.startswith(".") for part in relpath.split("/")
    )


@dataclass(frozen=True)
class Stage:
    name: str
    templates: tuple[Template, ...]
    expected: dict
    names: frozenset[str]  # class and aspect simple names to rename


def _kinded_in_expression(expr: str) -> int:
    """Designators of kinded primitives at parenthesis depth 0."""
    count = 0
    depth = 0
    for m in re.finditer(r"[A-Za-z_$][\w$.]*|[()]", expr):
        tok = m.group()
        if tok == "(":
            depth += 1
        elif tok == ")":
            depth -= 1
        elif depth == 0 and tok in KINDED:
            count += 1
    return count


_POINTCUT_LINE = re.compile(r"^\s*(?:public\s+|private\s+|protected\s+)*pointcut\s+\w+\s*\([^)]*\)\s*:(.*);\s*$")
_ADVICE_LINE = re.compile(r"^\s*(?:\w+\s+)?(?:before|after|around)\s*\(.*?\)\s*(?:returning|throwing)?\s*(?:\([^)]*\))?\s*:(.*)\{\s*$")


def _declaration_counts(text: str) -> tuple[int, int, int]:
    """(kinded primitives, pointcuts, advices) of a fixture file, line based."""
    kinded = pointcuts = advices = 0
    for line in text.splitlines():
        m = _POINTCUT_LINE.match(line)
        if m:
            pointcuts += 1
            kinded += _kinded_in_expression(m.group(1))
            continue
        m = _ADVICE_LINE.match(line)
        if m:
            advices += 1
            kinded += _kinded_in_expression(m.group(1))
    return kinded, pointcuts, advices


def load_stages(fixture_root: Path) -> dict[str, Stage]:
    stages = {}
    for name in STAGES:
        root = fixture_root / name
        manifest = json.loads((root / "MANIFEST.json").read_text(encoding="utf-8"))
        templates = []
        for path in sorted(root.rglob("*")):
            if not path.is_file() or path.name == "MANIFEST.json":
                continue
            relpath = path.relative_to(root).as_posix()
            text = path.read_text(encoding="utf-8")
            templates.append(Template(relpath, text, *_declaration_counts(text)))
        expected = manifest["expected"]
        names = {seg for c in expected["per_class"] for seg in c["name"].split(".")}
        names.update(a["name"] for a in expected["per_aspect"])
        sources = [t for t in templates if is_source(t.relpath)]
        if len(sources) != len(manifest["files"]):
            raise ValueError(f"{name}: manifest lists {len(manifest['files'])} files, found {len(sources)}")
        for entry, tpl in zip(sorted(manifest["files"].items()), sources):
            if entry[0] != tpl.relpath or entry[1]["pointcuts"] != tpl.pointcuts or entry[1]["advices"] != tpl.advices:
                raise ValueError(f"{name}/{tpl.relpath}: manifest and line scan disagree")
        stages[name] = Stage(name, tuple(templates), expected, frozenset(names))
    return stages


# -- renaming and metric-neutral edits ------------------------------------

_WORDS = (
    "audit trail ledger cache grade roster term credit session notice quota "
    "batch window retry policy window threshold backlog archive journal index "
    "report course student staff login register result faculty campus record"
).split()
# Keyword and brace text that must stay inert inside comments and strings.
# None contains "*/", so each is safe inside a block comment too.
_TRAPS = (
    "class Ghost { void haunt() {} }",
    "pointcut p(): call(* *(..));",
    "aspect Shadow { before(): execution(* *.*(..)) {} }",
    "} } { ;",
    "/* not a comment",
    "// not a comment either",
)


class Renamer:
    """Maps package root, class and aspect names to per-copy names."""

    def __init__(self, suffix: str, names: frozenset[str]):
        self.suffix = suffix
        self.package = "uas" + suffix
        self.mapping = {n: n + suffix for n in names}
        self.mapping["uas"] = self.package
        pattern = "|".join(sorted(map(re.escape, self.mapping), key=len, reverse=True))
        self._re = re.compile(rf"\b({pattern})\b")

    def text(self, text: str) -> str:
        return self._re.sub(lambda m: self.mapping[m.group(1)], text)

    def name(self, dotted: str) -> str:
        return ".".join(self.mapping.get(seg, seg) for seg in dotted.split("."))

    def path(self, relpath: str) -> str:
        parent, _, leaf = relpath.rpartition("/")
        stem, dot, ext = leaf.partition(".")
        leaf = self.mapping.get(stem, stem) + dot + ext
        return f"{self.package}/{parent + '/' if parent else ''}{leaf}"


def _phrase(rng: random.Random, n: int) -> str:
    return " ".join(rng.choice(_WORDS) for _ in range(n))


_TYPE_HEAD = re.compile(r"^(?:(?:public|abstract|final|privileged)\s+)*(?:class|aspect|interface|enum)\b")
_MEMBER_HEAD = re.compile(r"^(?:public|private|protected)\b.*\)\s*\{$")


def _block_state(line: str, in_block: bool) -> bool:
    """Whether a block comment is open after ``line`` (fixture lines only)."""
    pos = 0
    while True:
        if in_block:
            end = line.find("*/", pos)
            if end < 0:
                return True
            in_block, pos = False, end + 2
        else:
            start = line.find("/*", pos)
            line_comment = line.find("//", pos)
            if start < 0 or 0 <= line_comment < start:
                return False
            in_block, pos = True, start + 2


def _opens_body(stripped: str) -> bool:
    return (
        stripped.endswith("{")
        and ")" in stripped
        and not stripped.startswith(("//", "*", "@"))
        and not re.search(r"\b(class|aspect|interface|enum)\b", stripped)
    )


def neutral_edits(text: str, rng: random.Random) -> str:
    """Insert comments and body statements that no metric can see."""
    out: list[str] = []
    in_block = False
    for line in text.split("\n"):
        stripped = line.strip()
        indent = line[: len(line) - len(line.lstrip())]
        if not in_block:
            if _TYPE_HEAD.match(stripped) or _MEMBER_HEAD.match(stripped):
                out.append(f"{indent}/**")
                out.append(f"{indent} * {_phrase(rng, 6).capitalize()}.")
                out.append(f"{indent} * {rng.choice(_TRAPS)}")
                out.append(f"{indent} */")
            elif stripped and rng.random() < 0.2:
                out.append(f"{indent}// {_phrase(rng, 5)}")
        out.append(line)
        if not in_block and _opens_body(stripped):
            lit = rng.choice(_TRAPS).replace("\\", "\\\\").replace('"', '\\"')
            out.append(f'{indent}    audit("{_phrase(rng, 3)}: {lit}", \'{rng.choice("{};")}\');')
        in_block = _block_state(line, in_block)
    return "\n".join(out)


def _suffixes(rng: random.Random, n: int) -> list[str]:
    seen: set[str] = set()
    out = []
    while len(out) < n:
        s = "_" + "".join(rng.choice("abcdefghijkmnpqrstuvwxyz23456789") for _ in range(5))
        if s not in seen:
            seen.add(s)
            out.append(s)
    return out


# -- expected values -------------------------------------------------------


def _tenths(text: str) -> int:
    whole, _, frac = text.partition(".")
    return int(whole) * 10 + int(frac or 0)


@dataclass
class VersionExpect:
    """Oracle for one version: the report fields, in tenths where weighted."""

    version_id: str
    wpa: int = 0
    waa: int = 0
    wjp: int = 0
    wmca: int = 0
    class_attributes: int = 0
    class_count: int = 0
    aspect_count: int = 0
    method_count: int = 0
    attribute_count: int = 0
    files: int = 0
    pointcuts: int = 0
    advices: int = 0
    per_aspect: list = field(default_factory=list)  # (name, wpa, waa, wjp, wmca)
    per_class: list = field(default_factory=list)  # (name, wmca, attributes, wjp)

    def add_stage(self, stage: Stage, renamer: Renamer) -> None:
        e = stage.expected
        self.wpa += _tenths(e["wpa"])
        self.waa += _tenths(e["waa"])
        self.wjp += _tenths(e["wjp"])
        self.wmca += e["wmca"]
        self.class_attributes += e["nac"]["num"]
        self.class_count += e["class_count"]
        self.aspect_count += e["aspect_count"]
        self.method_count += e["method_count"]
        self.attribute_count += e["attribute_count"]
        for t in stage.templates:
            if is_source(t.relpath):
                self.files += 1
                self.pointcuts += t.pointcuts
                self.advices += t.advices
        for a in e["per_aspect"]:
            self.per_aspect.append(
                (renamer.name(a["name"]), _tenths(a["wpa"]), _tenths(a["waa"]), _tenths(a["wjp"]), a["wmca"])
            )
        for c in e["per_class"]:
            self.per_class.append((renamer.name(c["name"]), c["wmca"], c["attributes"], _tenths(c["wjp"])))


# -- generated aspects (pointcut-dense) -------------------------------------


@dataclass(frozen=True)
class Node:
    """A pointcut expression with its hand-derived weights."""

    text: str
    wpa: int  # designator + signature weight, tenths
    cats: frozenset[str]
    kinded: int
    combined: bool
    is_ref: bool = False


#: Primitive designators with weights derived by hand from the README
#: tables: (template, designator + signature level weight in tenths,
#: join-point categories, kinded primitives). Designators: execution 1,
#: call 2, get 3, set 4, handler 5. Signature levels: fully qualified 1,
#: wildcard params 2, wildcard return 3, wildcard name 4, wildcard or
#: unqualified class 5; the highest level present wins.
_ATOMS = (
    ("execution(void {c}.{m}(int))", 1 + 1, ("particular_method",), 1),
    ("execution(* {c}.{m}(..))", 1 + 3, ("method_execution",), 1),
    ("call(String {c}.get*(..))", 2 + 4, ("method_call",), 1),
    ("call(void {c}.{m}(String, ..))", 2 + 2, ("method_call",), 1),
    ("execution(* *.{m}(..))", 1 + 5, ("method_execution",), 1),
    ("call(public int {c}.{m}())", 2 + 1, ("particular_method",), 1),
    ("get(int {c}.{f})", 3 + 1, ("attribute",), 1),
    ("set(* {c}.{f})", 4 + 3, ("attribute",), 1),
    ("handler(java.io.IOException)", 5 + 1, ("exception_handling",), 1),
    ("handler(*Exception)", 5 + 5, ("exception_handling",), 1),
    ("within({c})", 0, ("particular_class",), 0),
    ("within({p}..*)", 0, ("particular_package",), 0),
    ("cflow(execution(* {c}.{m}(..)))", 0, ("control_flow",), 0),
    ("cflowbelow(call(* *.*(..)))", 0, ("control_flow",), 0),
    ("adviceexecution()", 0, ("within_advice",), 0),
    ("this({c})", 0, (), 0),
)


def _atom(rng: random.Random, pkg: str, classes: list[str]) -> Node:
    template, wpa, cats, kinded = rng.choice(_ATOMS)
    text = template.format(
        p=pkg,
        c=f"{pkg}.{rng.choice(classes)}",
        m=rng.choice(("update", "store", "persist", "publish", "login", "register", "lookup")),
        f=rng.choice(("revision", "term", "credits", "email", "status")),
    )
    return Node(text, wpa, frozenset(cats), kinded, False)


def _expression(rng: random.Random, depth: int, pkg: str, classes: list[str], refs: dict[str, Node]) -> Node:
    """A random boolean combination, at most ``depth`` operators deep."""
    if depth == 0 or rng.random() < 0.3:
        if refs and rng.random() < 0.25:
            name = rng.choice(sorted(refs))
            ref = refs[name]
            return Node(f"{name}()", 0, ref.cats, 0, False, is_ref=True)
        return _atom(rng, pkg, classes)

    def wrap(n: Node) -> str:
        return f"({n.text})" if n.combined and not n.text.startswith("!") else n.text

    if rng.random() < 0.2:
        child = _expression(rng, depth - 1, pkg, classes, refs)
        return Node(
            "!" + wrap(child), child.wpa, child.cats | {"boolean_or_combined"}, child.kinded, True
        )
    left = _expression(rng, depth - 1, pkg, classes, refs)
    right = _expression(rng, depth - 1, pkg, classes, refs)
    op = rng.choice(("&&", "||"))
    return Node(
        f"{wrap(left)} {op} {wrap(right)}",
        left.wpa + right.wpa,
        left.cats | right.cats | {"boolean_or_combined"},
        left.kinded + right.kinded,
        True,
    )


def _cats_weight(cats: frozenset[str]) -> int:
    return sum(CATEGORY_TENTHS[c] for c in cats)


_ADVICE_FORMS = (
    ("before", "before(): {expr} {{"),
    ("after", "after(): {expr} {{"),
    ("after_returning", "after() returning(Object result): {expr} {{"),
    ("after_throwing", "after() throwing(Exception failure): {expr} {{"),
    ("around", "Object around(): {expr} {{"),
)


def generated_aspect(
    rng: random.Random, index: int, renamer: Renamer, classes: list[str]
) -> tuple[str, str, tuple, int, int]:
    """(relpath, text, per-aspect oracle, kinded primitives, pointcuts)."""
    pkg = renamer.package
    name = f"Dense{index:03d}{renamer.suffix}"
    lines = [f"package {pkg}.aspects;", "", f"public aspect {name} {{", "    private int hits;", ""]
    refs: dict[str, Node] = {}
    wpa = wjp = kinded = 0
    for i in range(DENSE_POINTCUTS):
        node = _expression(rng, 3, pkg, classes, refs)
        pc = f"p{i}"
        if i % 4 == 3:
            lines.append(f"    pointcut {pc}(int id): ({node.text}) && args(id);")
            node = Node(
                f"({node.text}) && args(id)", node.wpa, node.cats | {"boolean_or_combined"}, node.kinded, True
            )
        else:
            lines.append(f"    pointcut {pc}(): {node.text};")
            refs[pc] = node
        wpa += node.wpa
        wjp += _cats_weight(node.cats)
        kinded += node.kinded
    lines.append("")
    waa = 0
    for i in range(DENSE_ADVICES):
        kind, form = _ADVICE_FORMS[i % len(_ADVICE_FORMS)]
        if refs and rng.random() < 0.4:
            expr = sorted(refs)[rng.randrange(len(refs))] + "()"
        else:
            node = _expression(rng, 2, pkg, classes, refs)
            expr = node.text
            if not node.is_ref:
                wjp += _cats_weight(node.cats)
            kinded += node.kinded
        waa += ADVICE_TENTHS[kind]
        lines.append("    " + form.format(expr=expr))
        lines.append("        hits = hits + 1;")
        if kind == "around":
            lines.append("        return proceed();")
        lines.append("    }")
        lines.append("")
    target = f"{pkg}.{rng.choice(classes)}"
    lines.append(f'    declare warning: call(* {target}.*(..)) && within({pkg}..*): "dense {index}";')
    lines.append("")
    lines.append(f"    public void {target}.touch{index}() {{")
    lines.append("        hits = 0;")
    lines.append("    }")
    lines.append("")
    lines.append("    private void tally() {")
    lines.append("        hits = hits + 1;")
    lines.append("    }")
    lines.append("}")
    lines.append("")
    oracle = (name, wpa, waa, wjp, 2)
    return f"{pkg}/aspects/{name}.aj", "\n".join(lines), oracle, kinded, DENSE_POINTCUTS


# -- corpora ----------------------------------------------------------------


@dataclass
class Corpus:
    """Generated files (relative path -> bytes) plus the oracle per version."""

    command: str  # "measure" or "compare"
    files: dict[str, bytes] = field(default_factory=dict)
    versions: list[VersionExpect] = field(default_factory=list)
    kinded: int = 0  # kinded primitives over all parsed units

    def digest(self) -> str:
        h = hashlib.sha256()
        for rel in sorted(self.files):
            h.update(rel.encode() + b"\0" + hashlib.sha256(self.files[rel]).digest())
        return h.hexdigest()

    def cli_args(self, corpus_dir: Path, out_dir: Path) -> list[str]:
        if self.command == "compare":
            return ["compare", "--versions-root", str(corpus_dir), "--out", str(out_dir)]
        (version,) = self.versions
        return ["measure", str(corpus_dir / version.version_id), "--out", str(out_dir)]

    def write(self, corpus_dir: Path) -> None:
        for rel in sorted(self.files):
            path = corpus_dir / rel
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_bytes(self.files[rel])

    def properties(self) -> dict:
        sources = {rel: data for rel, data in self.files.items() if is_source(rel)}
        distinct: dict[bytes, int] = {}
        for data in sources.values():
            key = hashlib.sha256(data).digest()
            if key not in distinct:
                distinct[key] = count_tokens(data.decode("utf-8"))
        tokens = sum(distinct[hashlib.sha256(d).digest()] for d in sources.values())
        return {
            "versions": len(self.versions),
            "files": len(sources),
            "ignored_files": len(self.files) - len(sources),
            "bytes": sum(len(d) for d in sources.values()),
            "tokens": tokens,
            "kinded_primitives": self.kinded,
            "distinct_content_share": round(len(distinct) / len(sources), 4),
            "digest": self.digest(),
        }


def _add(corpus: Corpus, rel: str, text: str) -> None:
    corpus.files[rel] = text.encode("utf-8")


def _copy_stage(corpus: Corpus, version_dir: str, stage: Stage, renamer: Renamer, rng_key: str, revs=None) -> None:
    for t in stage.templates:
        rev = 0 if revs is None else revs.get(t.relpath, 0)
        text = renamer.text(t.text)
        if is_source(t.relpath):
            text = neutral_edits(text, random.Random(f"{rng_key}:{t.relpath}:{rev}"))
            corpus.kinded += t.kinded
        _add(corpus, f"{version_dir}/{renamer.path(t.relpath)}", text)


def _history(seed: int, stages: dict[str, Stage]) -> Corpus:
    """A version sequence where each module grows from J1.0 to AJ1.4."""
    rng = random.Random(f"history:{seed}")
    corpus = Corpus("compare")
    suffixes = _suffixes(rng, HISTORY_MODULES)
    # Modules advance one stage at a time, round robin, at evenly spaced
    # versions, so every seed gives the same amount of work.
    events = (len(STAGES) - 1) * HISTORY_MODULES
    steps: list[list[int]] = [[] for _ in suffixes]
    for e in range(events):
        steps[e % HISTORY_MODULES].append(1 + e * (HISTORY_VERSIONS - 1) // events)
    revs: list[dict[str, int]] = [{} for _ in suffixes]
    renamers = [Renamer(suffix, _all_names(stages)) for suffix in suffixes]
    for v in range(HISTORY_VERSIONS):
        vid = f"v{v:03d}"
        expect = VersionExpect(vid)
        for k, suffix in enumerate(suffixes):
            stage = stages[STAGES[sum(1 for s in steps[k] if s <= v)]]
            if v > 0:
                for t in stage.templates:
                    if rng.random() < HISTORY_EDIT_RATE:
                        revs[k][t.relpath] = revs[k].get(t.relpath, 0) + 1
            renamer = renamers[k]
            _copy_stage(corpus, vid, stage, renamer, f"history:{seed}:{k}", revs[k])
            expect.add_stage(stage, renamer)
        corpus.versions.append(expect)
    return corpus


def _all_names(stages: dict[str, Stage]) -> frozenset[str]:
    return frozenset().union(*(s.names for s in stages.values()))


def _distinct(seed: int, stages: dict[str, Stage]) -> Corpus:
    """One large version of renamed, edited copies: every file is unique."""
    rng = random.Random(f"distinct:{seed}")
    corpus = Corpus("measure")
    expect = VersionExpect("release")
    names = _all_names(stages)
    for k, suffix in enumerate(_suffixes(rng, DISTINCT_COPIES)):
        stage = stages[STAGES[k % len(STAGES)]]
        renamer = Renamer(suffix, names)
        _copy_stage(corpus, expect.version_id, stage, renamer, f"distinct:{seed}:{k}")
        expect.add_stage(stage, renamer)
    corpus.versions.append(expect)
    return corpus


def _dense(seed: int, stages: dict[str, Stage]) -> Corpus:
    """AJ1.4 copies plus many generated aspects with combined pointcuts."""
    rng = random.Random(f"dense:{seed}")
    corpus = Corpus("measure")
    expect = VersionExpect("aspects")
    stage = stages["AJ1.4"]
    classes = sorted(c["name"] for c in stage.expected["per_class"] if "." not in c["name"])
    for k, suffix in enumerate(_suffixes(rng, DENSE_COPIES)):
        renamer = Renamer(suffix, stage.names)
        _copy_stage(corpus, expect.version_id, stage, renamer, f"dense:{seed}:{k}")
        expect.add_stage(stage, renamer)
        local = [renamer.mapping[c] for c in classes]
        for i in range(DENSE_ASPECTS_PER_COPY):
            rel, text, oracle, kinded, pointcuts = generated_aspect(rng, i, renamer, local)
            text = neutral_edits(text, random.Random(f"dense:{seed}:{k}:{rel}"))
            _add(corpus, f"{expect.version_id}/{rel}", text)
            corpus.kinded += kinded
            name, wpa, waa, wjp, wmca = oracle
            expect.per_aspect.append(oracle)
            expect.wpa += wpa
            expect.waa += waa
            expect.wjp += wjp
            expect.wmca += wmca
            expect.aspect_count += 1
            expect.method_count += wmca
            expect.attribute_count += 1
            expect.files += 1
            expect.pointcuts += pointcuts
            expect.advices += DENSE_ADVICES
    corpus.versions.append(expect)
    return corpus


WORKLOADS = {
    "history-compare": _history,
    "distinct-measure": _distinct,
    "pointcut-dense": _dense,
}


def generate(workload: str, seed: int, fixture_root: Path) -> Corpus:
    return WORKLOADS[workload](seed, load_stages(fixture_root))


# -- independent token count --------------------------------------------------

_ELIDED = re.compile(
    r"//[^\n]*|/\*.*?\*/|\"(?:\\.|[^\"\\\n])*\"|'(?:\\.|[^'\\\n])*'", re.DOTALL
)
_TOKEN = re.compile(
    r"[A-Za-z_$][\w$]*|[0-9](?:[\w$]|\.(?=[0-9]))*"
    r"|&&|\|\||==|!=|<=|>=|\+=|-=|\*=|/=|%=|&=|\|=|\^=|<<|>>|\+\+|--|->|::|\S"
)


def count_tokens(text: str) -> int:
    """Declaration-parser tokens: comments and literals elided, END excluded."""
    return len(_TOKEN.findall(_ELIDED.sub(" ", text)))
