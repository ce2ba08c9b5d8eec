from __future__ import annotations

import copy
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

from aometrics import (
    And,
    FileKind,
    NamedRef,
    Not,
    Or,
    Primitive,
    ScanMode,
    SignaturePattern,
    SourceFileRef,
    VersionRef,
    Weight,
    classify_joinpoint_categories,
    parse_source,
    scan_corpus,
)
from aometrics.diagnostics import Diagnostic, Severity
from aometrics.parser import SourceUnit, TypeDecl
from helpers import MINI_UAS, measure_dir, parse_version_dir

SRC = Path(__file__).resolve().parent.parent / "src"

X = Primitive("within", "A")
Y = Primitive("call", "* *(..)")

FROZEN = [
    (Weight(3, 10), "units"),
    (Diagnostic("A.java", 1, Severity.WARNING, "w"), "message"),
    (X, "designator"),
    (SignaturePattern("void", "a.B", "f", ".."), "name_pattern"),
    (VersionRef("V", Path("V"), ()), "files"),
    (SourceFileRef("V/A.java", FileKind.JAVA), "label"),
]


@pytest.mark.parametrize("record, name", FROZEN, ids=[type(r).__name__ for r, _ in FROZEN])
def test_frozen_records_refuse_assignment_and_deletion(record, name):
    before = getattr(record, name)
    with pytest.raises(AttributeError):
        setattr(record, name, before)
    with pytest.raises(AttributeError):
        delattr(record, name)
    assert getattr(record, name) == before


def test_equality_is_per_class():
    assert And(X, Y) == And(X, Y)
    assert And(X, Y) != Or(X, Y)
    assert Primitive("within", "A") != Primitive("within", "A", known=False)
    assert Weight(1, 10) != Weight(10, 100)
    assert NamedRef("p") != "p"
    assert X != ("within", "A", True)


def test_equal_frozen_records_hash_equal_and_mutable_ones_are_unhashable():
    assert hash(And(X, Y)) == hash(And(Primitive("within", "A"), Primitive("call", "* *(..)")))
    assert hash(Weight(2, 10)) == hash(Weight(1, 10) + Weight(1, 10))
    assert len({Weight(1, 10), Weight(1, 10), Weight(2, 10)}) == 2
    for record in (TypeDecl(name="A", kind="class", line=1), SourceUnit("A.java")):
        with pytest.raises(TypeError):
            hash(record)


def test_mutable_records_take_fresh_lists_per_instance():
    a = TypeDecl(name="A", kind="class", line=1)
    b = TypeDecl(name="B", kind="class", line=2)
    a.methods.append("m")
    assert b.methods == []
    assert SourceUnit("A.java").classes is not SourceUnit("B.java").classes


def test_parsed_units_and_metrics_survive_deepcopy_and_pickle():
    version, units = parse_version_dir(MINI_UAS / "AJ1.4")
    metrics = measure_dir(MINI_UAS / "AJ1.4")
    assert any(u.aspects for u in units) and metrics.per_aspect
    for value in (version, units, metrics):
        for clone in (copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
            assert clone == value


def test_a_source_file_ref_is_its_path_string_and_kind():
    ref = SourceFileRef("V/p/A.java", FileKind.JAVA)
    same = SourceFileRef("/".join(("V", "p", "A.java")), FileKind.JAVA)
    assert ref == same and hash(ref) == hash(same)
    assert ref != SourceFileRef("V/p/A.java", FileKind.ASPECTJ)
    assert ref != SourceFileRef("V/p/B.java", FileKind.JAVA)
    for clone in (copy.deepcopy(ref), pickle.loads(pickle.dumps(ref))):
        assert clone == ref and hash(clone) == hash(ref)
        assert (clone.label, clone.kind) == ("V/p/A.java", FileKind.JAVA)
    assert repr(ref) == "SourceFileRef(label='V/p/A.java', kind=<FileKind.JAVA: 'java'>)"


def test_a_scanned_files_path_is_the_path_of_that_file():
    (version,) = scan_corpus(MINI_UAS / "AJ1.4", ScanMode.SINGLE_VERSION)
    found = sorted(
        (p for p in version.root.rglob("*") if p.suffix in (".java", ".aj")), key=str
    )
    assert len(found) > 1
    assert [ref.path for ref in version.files] == found
    assert all(isinstance(ref.path, Path) for ref in version.files)
    assert [ref.label for ref in version.files] == [str(p) for p in found]


def test_a_units_cache_is_not_part_of_its_value():
    source = "aspect A { pointcut p(): call(* f); before(): p() {} }"
    unit = parse_source(source, "A.aj")
    facts = classify_joinpoint_categories(unit)
    assert unit.cache.classification is not None
    assert unit == parse_source(source, "A.aj")
    for clone in (copy.deepcopy(unit), pickle.loads(pickle.dumps(unit))):
        assert clone == unit
        assert clone.cache.classification is None
        diags = []
        cloned = classify_joinpoint_categories(clone, diags)
        assert list(cloned.values()) == list(facts.values())
        assert set(cloned) == {id(clone.aspects[0].pointcuts[0]), id(clone.aspects[0].advices[0])}
        assert [str(d) for d in diags] == [
            "A.aj:1: warning: malformed call signature: missing parameter list"
        ]


def test_repr_names_the_class_and_its_fields():
    assert repr(Weight(3, 10)) == "Weight(units=3, scale=10)"
    assert repr(Not(X)) == (
        "Not(child=Primitive(designator='within', argument_text='A', known=True))"
    )
    (attribute,) = parse_source("class A { int x; }", "A.java").classes[0].attributes
    assert repr(attribute) == "AttributeDecl(name='x', declared_type='int', line=1)"


def test_importing_the_cli_loads_neither_dataclasses_nor_inspect():
    # Both modules cost start-up that every run pays; see README, "Records".
    env = dict(os.environ, PYTHONPATH=str(SRC))
    code = (
        "import sys, aometrics.cli, aometrics.weights; aometrics.weights.default_weights(); "
        "print(sorted(m for m in ('dataclasses', 'inspect') if m in sys.modules))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"


def test_importing_the_cli_without_site_loads_no_typing():
    # -S skips the site step, whose .pth hooks may import typing before
    # aometrics does, so the import chain of the CLI alone is seen.
    env = dict(os.environ, PYTHONPATH=str(SRC))
    code = (
        "import sys, aometrics.cli; print(sorted(m for m in "
        "('typing', 'dataclasses', 'inspect', 'ast') if m in sys.modules))"
    )
    out = subprocess.run(
        [sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"
