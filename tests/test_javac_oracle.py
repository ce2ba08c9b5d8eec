"""javac as an oracle for the Java half of the metrics: WMCA and attribute counts.

``DeclCount.java`` parses files with javac only (``JavacTask.parse()``, no
attribution) and prints every class, interface, enum and record with its
non-constructor methods and its fields. One JVM reads every ``.java`` file
under ``fixtures/`` and ``tests/fixtures/``. For each file javac accepts,
``walk_classes`` must yield the same types, keyed by qualified name
(``Outer.Inner``), each with WMCA equal to javac's method count and as many
attributes as javac has fields, and the unit must carry no error. See
README "Tests" for how javac's trees map to the metric rules.
"""

from __future__ import annotations

import shutil
import subprocess

import pytest

from aometrics import parse_source, wmca_unit
from aometrics.parser import walk_classes
from helpers import REPO_ROOT

# Files javac rejects, each for a reason the metrics do not share.
REJECTED = {
    # AspectJ: a class may declare a named pointcut.
    "fixtures/mini-uas/AJ1.3/ResultService.java",
    "fixtures/mini-uas/AJ1.4/ResultService.java",
    # javac reads a byte-order mark as an illegal character.
    "tests/fixtures/bom/V/Account.java",
    # Its closing braces are missing on purpose.
    "tests/fixtures/corrupt/V/Broken.java",
    # Latin-1 bytes that are not UTF-8.
    "tests/fixtures/latin1/V/Legacy.java",
}


def _javac_counts(tmp_path, files: list[str]) -> tuple[dict, set[str]]:
    """({file: {qualified name: (methods, fields)}}, rejected files), from one JVM."""
    classes = tmp_path / "classes"
    subprocess.run(
        ["javac", "-d", str(classes), str(REPO_ROOT / "tests" / "DeclCount.java")],
        check=True,
        capture_output=True,
    )
    run = subprocess.run(
        ["java", "-cp", str(classes), "DeclCount", *(str(REPO_ROOT / f) for f in files)],
        check=True,
        capture_output=True,
        text=True,
        encoding="utf-8",
    )
    prefix = str(REPO_ROOT) + "/"
    types: dict[str, dict[str, tuple[int, int]]] = {f: {} for f in files}
    rejected: set[str] = set()
    for line in run.stdout.splitlines():
        kind, path, *rest = line.split("\t")
        rel = path.removeprefix(prefix)
        if kind == "ERROR":
            rejected.add(rel)
        else:
            name, methods, fields = rest
            types[rel][name] = (int(methods), int(fields))
    return types, rejected


@pytest.mark.skipif(
    shutil.which("javac") is None or shutil.which("java") is None,
    reason="javac and java are not on PATH: the oracle needs a JDK (17 in CI)",
)
def test_walk_classes_counts_what_javac_parses(tmp_path):
    files = sorted(
        p.relative_to(REPO_ROOT).as_posix()
        for root in ("fixtures", "tests/fixtures")
        for p in (REPO_ROOT / root).rglob("*.java")
    )
    assert len(files) > len(REJECTED)
    javac, rejected = _javac_counts(tmp_path, files)
    assert rejected == REJECTED
    for rel in files:
        if rel in REJECTED:
            continue
        unit = parse_source((REPO_ROOT / rel).read_text(encoding="utf-8"), rel)
        assert not unit.has_errors, (rel, unit.parse_diagnostics)
        ours = {name: (wmca_unit(cls), len(cls.attributes)) for name, cls in walk_classes(unit)}
        assert ours == javac[rel], rel
