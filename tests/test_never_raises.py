"""No input makes parsing, measuring or logging raise.

Each input goes through ``parse_source``, ``measure_version`` and
``write_log``: token soup over a Java/AspectJ vocabulary, fixture files
cut short or with one character deleted at drawn offsets, and forms
nested thousands deep. ``test_metrics.py`` covers the other deep forms:
parentheses and '!' in pointcuts (``test_deeply_nested_pointcuts_*``)
and type declarations (``test_classes_nested_1000_deep_are_each_measured``).
A long unclosed body must also lex in linear time.

The command line keeps the same promise for every other input: drawn
argument lists and weight override files end in an exit code that README
lists, within a deadline.
"""

from __future__ import annotations

import io
import itertools
import time
from contextlib import redirect_stderr, redirect_stdout
from datetime import timedelta

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from aometrics import default_weights, measure_version, parse_source
from aometrics.cli import main
from aometrics.lexer import TokenKind, tokenize
from aometrics.report import write_log
from aometrics.weights import _SECTIONS
from helpers import MINI_UAS, MINI_UAS_ORDER, TEST_FIXTURES

W = default_weights()


def _measure_and_log(text: str):
    """The metrics of ``text`` as one file; its log is written and dropped."""
    unit = parse_source(text, "F.aj")
    metrics = measure_version("v", [unit], W)
    write_log([unit], metrics)
    return metrics


_VOCABULARY = [
    "class", "interface", "enum", "aspect", "@interface", "privileged", "abstract",
    "static", "final", "public", "private", "extends", "implements", "throws",
    "package", "import", "module", "open", "new", "void", "int", "String", "A", "B",
    "x", "f", "pointcut", "before", "after", "around", "returning", "throwing",
    "declare", "warning", "parents", "call", "execution", "within", "withincode",
    "get", "set", "args", "this", "target", "cflow", "cflowbelow", "handler",
    "{", "}", "(", ")", "[", "]", "<", ">", ">>", ";", ",", ":", ".", "..", "*",
    "+", "=", "?", "!", "&&", "||", "@", "//", "/*", "*/", '"', "'", "\n",
    "call(* *(..))", "within(A)", "p()", "int[] a",
]

_soup = st.lists(st.sampled_from(_VOCABULARY), max_size=60).map(" ".join)


@settings(max_examples=1500, deadline=None)
@given(_soup)
def test_token_soup_never_raises(text):
    _measure_and_log(text)


_FIXTURE_TEXTS = [
    path.read_text(encoding="utf-8", errors="replace")
    for root in (MINI_UAS, TEST_FIXTURES)
    for path in sorted(root.rglob("*"))
    if path.suffix in (".java", ".aj")
]


@settings(max_examples=1000, deadline=None)
@given(st.sampled_from(_FIXTURE_TEXTS), st.floats(0, 1, exclude_max=True), st.booleans())
def test_cut_or_damaged_fixture_files_never_raise(text, where, delete_one):
    offset = int(where * len(text))
    _measure_and_log(text[:offset] + text[offset + 1 :] if delete_one else text[:offset])


_DEPTH = 3000


def _deep_forms() -> dict[str, str]:
    refs = "".join(f"  pointcut p{i}(): p{i - 1}();\n" for i in range(1, _DEPTH))
    return {
        "&& and || chain": "aspect S { pointcut p(): "
        + " || ".join(f"within(A{i}) && call(* f{i}(..))" for i in range(_DEPTH))
        + "; before(): p() {} }",
        "cflow nest": "aspect S { before(): "
        + "cflow(" * _DEPTH + "call(* f(..))" + ")" * _DEPTH
        + " {} }",
        "named reference chain": "aspect S {\n  pointcut p0(): call(* f(..));\n"
        + refs + f"  before(): p{_DEPTH - 1}() {{}}\n}}",
        "nested annotations": "class C { " + "@A(" * _DEPTH + ")" * _DEPTH + " int x; }",
        "generics": "class C { " + "List<" * _DEPTH + "T" + ">" * _DEPTH + " x; }",
        "initializer blocks": "class C { " + "{ " * _DEPTH + "}" * _DEPTH + " int x; }",
        "array dimensions": "class C { int" + "[]" * _DEPTH + " x; int y" + "[]" * _DEPTH + "; }",
        "anonymous classes": "class C { Object o = "
        + "new Object() { Object o = " * 300 + "null" + "; }" * 300
        + "; int x; }",
    }


def test_deeply_nested_forms_are_measured_without_a_diagnostic():
    for name, text in _deep_forms().items():
        assert _measure_and_log(text).diagnostics == [], name


def test_an_unclosed_body_of_hidden_braces_lexes_in_linear_time():
    # Every line hides braces in a literal, a character, a closed comment
    # and a line comment, and the body never closes, so its scan runs to
    # the end of the text. It takes about 0.04 s; a scan that backtracks
    # over earlier lines would take minutes.
    line = "x = f(\"a}b\", '{') /* } */ + g(); // {\n"
    text = "class A { void f() {\n" + line * 20_000
    start = time.perf_counter()
    tokens, diagnostics = tokenize(text, file="F.java")
    assert time.perf_counter() - start < 2.0
    assert diagnostics == []
    assert [tok[1] for tok in tokens] == ["class", "A", "{", "void", "f", "(", ")", "{", ""]
    assert tokens[-1][0] is TokenKind.END and tokens[-1][2] == 20_002


# Override values as JSON text: numbers with long mantissas and extreme
# exponents, the constants Python's json reads, and values of other types.
# A repeated choice is drawn more often, so that most documents get past
# the name checks to the values.
_DIGITS = st.text("0123456789", min_size=1, max_size=120)
_EXPONENTS = st.one_of(
    st.integers(-(10**9), 10**9),
    st.sampled_from([-999999999, -5000, -3, -2, 99, 100, 400, 4300, 5000, 999990]),
)


@st.composite
def _numbers(draw) -> str:
    text = draw(_DIGITS).lstrip("0") or "0"
    if draw(st.booleans()):
        text += "." + draw(_DIGITS)
    if draw(st.booleans()):
        text += f"e{draw(_EXPONENTS)}"
    return "-" + text if draw(st.integers(0, 9)) == 0 else text


_VALUES = st.one_of(
    _numbers(),
    _numbers(),
    _numbers(),
    st.sampled_from(["NaN", "Infinity", "-Infinity", '"0.3"', "true", "null", "[0.1]", "{}"]),
)


# Nested past any interpreter's recursion limit.
_DEEP = '{"advice": ' + "[" * 100_000 + "]" * 100_000 + "}"


@st.composite
def _weight_documents(draw) -> str:
    if draw(st.integers(0, 9)) == 0:
        return draw(st.sampled_from(["", "{", "[1, 2]", "0.5", '{"advice": [0.3]}', _DEEP]))
    sections = []
    for section in draw(st.lists(st.sampled_from([*_SECTIONS] * 4 + ["designators"]), max_size=3)):
        if draw(st.integers(0, 9)) == 0:
            body = draw(_VALUES)
        else:
            known = list(_SECTIONS[section][1]) if section in _SECTIONS else []
            names = st.sampled_from(known * 4 + ["befor"])
            entries = draw(st.lists(st.tuples(names, _VALUES), max_size=3))
            body = "{" + ", ".join(f'"{name}": {value}' for name, value in entries) + "}"
        sections.append(f'"{section}": {body}')
    return "{" + ", ".join(sections) + "}"


# Roots: missing, a file, an empty directory, one version, a version with
# a parse error, and the five mini-uas versions; --out: an existing
# directory, a new one, a file, and a path under a file.
_ROOTS = ["missing", "file", "empty", "version", "corrupt", "versions"]
_OUTS = ["existing", "new", "file", "under file"]


@st.composite
def _argvs(draw) -> tuple[str, list[str], str | None, str]:
    """A command, its arguments, a weights document (or None) and an --out shape."""
    command = draw(st.sampled_from(["scan", "measure", "measure", "compare", "compare"]))
    if command == "scan":
        return command, [draw(st.sampled_from(_ROOTS))], None, "existing"
    choices = ["log", "json", "csv", "table"]
    if command == "compare":  # rarely "log", which compare rejects, so most runs get past argparse
        choices = choices[1:] * 3 + ["log"]
    formats = draw(st.lists(st.sampled_from(choices), max_size=3))
    options = [arg for name in formats for arg in ("--format", name)]
    if draw(st.booleans()):
        options.append("--strict")
    if command == "measure":
        roots = [draw(st.sampled_from(["version"] * 3 + _ROOTS))]
    elif draw(st.booleans()):
        roots = ["--versions-root", draw(st.sampled_from(["versions"] * 3 + _ROOTS))]
        order = draw(st.lists(st.sampled_from([*MINI_UAS_ORDER, "X"]), max_size=3))
        options += ["--order", *order] if order else []
    else:
        roots = draw(st.lists(st.sampled_from(["version"] * 3 + _ROOTS), min_size=1, max_size=3))
    weights = draw(st.one_of(st.none(), _weight_documents()))
    return command, roots + options, weights, draw(st.sampled_from(_OUTS))


@pytest.fixture(scope="module")
def cli_paths(tmp_path_factory):
    base = tmp_path_factory.mktemp("cli")
    (base / "empty").mkdir()
    (base / "existing").mkdir()
    (base / "file").write_text("", encoding="utf-8")
    return base, {
        "missing": base / "missing",
        "file": base / "file",
        "empty": base / "empty",
        "version": MINI_UAS / "AJ1.1",
        "corrupt": TEST_FIXTURES / "corrupt" / "V",
        "versions": MINI_UAS,
    }


_RUNS = itertools.count()


@settings(max_examples=300, deadline=timedelta(seconds=5))
@given(case=_argvs())
@example(case=("measure", ["version"], '{"advice": {"around": 1e5000}}', "new"))
@example(case=("measure", ["version"], '{"advice": {"around": 1e400}}', "new"))
@example(case=("measure", ["version"], '{"advice": {"around": 1e999990}}', "new"))
@example(case=("measure", ["version"], '{"advice": {"around": 1e-999999999}}', "new"))
@example(case=("compare", ["--versions-root", "versions", "--format", "log"], None, "new"))
def test_cli_inputs_never_raise(cli_paths, case):
    base, roots = cli_paths
    command, args, weights, out_shape = case
    argv = [command] + [str(roots[arg]) if arg in roots else arg for arg in args]
    if command != "scan":
        if weights is not None:
            config = base / "weights.json"
            config.write_text(weights, encoding="utf-8")
            argv += ["--weights", str(config)]
        out = {
            "existing": base / "existing",
            "new": base / "new" / str(next(_RUNS)),
            "file": base / "file",
            "under file": base / "file" / "out",
        }[out_shape]
        argv += ["--out", str(out)]
    stderr = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(stderr):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's usage errors only
            code = exc.code
            assert code == 2, argv
    err = stderr.getvalue()
    assert code in (0, 1, 2), argv
    assert "Traceback" not in err
    if code == 1:
        assert err.splitlines()[-1].startswith("error: "), err
