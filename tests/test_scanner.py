from __future__ import annotations

import os
from pathlib import Path

import pytest

from aometrics import EmptyCorpus, FileKind, RootNotFound, ScanMode, classify_file, scan_corpus
from helpers import MINI_UAS


def test_classify_by_extension():
    assert classify_file(Path("Login.java")) is FileKind.JAVA
    assert classify_file(Path("Logging.AJ")) is FileKind.ASPECTJ
    assert classify_file(Path("README.md")) is FileKind.IGNORED
    assert classify_file(Path("dir/Weird.Java")) is FileKind.JAVA
    assert classify_file(Path(".java")) is FileKind.IGNORED


def test_single_version_filters_extensions(tmp_path: Path):
    (tmp_path / "A.java").write_text("class A {}")
    (tmp_path / "B.aj").write_text("aspect B {}")
    (tmp_path / "notes.txt").write_text("not source")
    (version,) = scan_corpus(tmp_path, ScanMode.SINGLE_VERSION)
    assert version.id == tmp_path.name
    assert [Path(f).name for f in version.files] == ["A.java", "B.aj"]
    assert all(classify_file(f) is not FileKind.IGNORED for f in version.files)


def test_versions_root_orders_children(tmp_path: Path):
    for name in ("v1.1", "v1.0"):
        child = tmp_path / name
        child.mkdir()
        (child / "A.java").write_text("class A {}")
    versions = scan_corpus(tmp_path, ScanMode.VERSIONS_ROOT)
    assert [v.id for v in versions] == ["v1.0", "v1.1"]


def test_hidden_directories_skipped(tmp_path: Path):
    (tmp_path / "A.java").write_text("class A {}")
    hidden = tmp_path / ".git"
    hidden.mkdir()
    (hidden / "B.java").write_text("class B {}")
    (version,) = scan_corpus(tmp_path, ScanMode.SINGLE_VERSION)
    assert [Path(f).name for f in version.files] == ["A.java"]


def test_files_sorted_recursively(tmp_path: Path):
    (tmp_path / "z").mkdir()
    (tmp_path / "z" / "A.java").write_text("class A {}")
    (tmp_path / "B.java").write_text("class B {}")
    (version,) = scan_corpus(tmp_path, ScanMode.SINGLE_VERSION)
    paths = list(version.files)
    assert paths == sorted(paths)
    assert len(paths) == 2


def test_missing_root():
    with pytest.raises(RootNotFound):
        scan_corpus(Path("/nonexistent/corpus"), ScanMode.SINGLE_VERSION)


def test_empty_corpus(tmp_path: Path):
    (tmp_path / "notes.txt").write_text("no sources here")
    with pytest.raises(EmptyCorpus):
        scan_corpus(tmp_path, ScanMode.SINGLE_VERSION)


def test_empty_versions_root(tmp_path: Path):
    (tmp_path / "v1").mkdir()
    (tmp_path / "v2").mkdir()
    with pytest.raises(EmptyCorpus):
        scan_corpus(tmp_path, ScanMode.VERSIONS_ROOT)


def test_versions_root_keeps_fileless_child(tmp_path: Path):
    (tmp_path / "v1").mkdir()
    v2 = tmp_path / "v2"
    v2.mkdir()
    (v2 / "A.java").write_text("class A {}")
    versions = scan_corpus(tmp_path, ScanMode.VERSIONS_ROOT)
    assert [(v.id, len(v.files)) for v in versions] == [("v1", 0), ("v2", 1)]


def test_rescan_is_identical():
    first = scan_corpus(MINI_UAS, ScanMode.VERSIONS_ROOT)
    second = scan_corpus(MINI_UAS, ScanMode.VERSIONS_ROOT)
    assert first == second
    assert repr(first) == repr(second)


def test_mini_uas_has_five_versions():
    versions = scan_corpus(MINI_UAS, ScanMode.VERSIONS_ROOT)
    assert [v.id for v in versions] == ["AJ1.1", "AJ1.2", "AJ1.3", "AJ1.4", "J1.0"]
    # J1.0 bundles an ignored text file and a hidden decoy directory.
    j10 = next(v for v in versions if v.id == "J1.0")
    names = {Path(f).name for f in j10.files}
    assert "notes.txt" not in names
    assert "Decoy.java" not in names
    assert len(j10.files) == 9


def _scan_both_modes(tmp_path: Path, build) -> tuple[list[str], list[str]]:
    """Build one tree as a single version and as the only child of a versions root.

    Returns the paths each mode found, relative to the version directory.
    """
    single = tmp_path / "single"
    single.mkdir()
    build(single)
    (version,) = scan_corpus(single, ScanMode.SINGLE_VERSION)
    single_paths = [Path(f).relative_to(version.root).as_posix() for f in version.files]
    child = tmp_path / "root" / "v1"
    child.mkdir(parents=True)
    build(child)
    (version,) = scan_corpus(tmp_path / "root", ScanMode.VERSIONS_ROOT)
    root_paths = [Path(f).relative_to(version.root).as_posix() for f in version.files]
    return single_paths, root_paths


def test_symlinks_are_skipped_in_both_modes(tmp_path: Path):
    outside = tmp_path / "outside"
    (outside / "pkg").mkdir(parents=True)
    (outside / "Real.java").write_text("class Real {}")
    (outside / "pkg" / "Inner.java").write_text("class Inner {}")

    def build(root: Path) -> None:
        (root / "A.java").write_text("class A {}")
        (root / "Linked.java").symlink_to(outside / "Real.java")
        (root / "linkdir").symlink_to(outside / "pkg", target_is_directory=True)
        (root / "Broken.java").symlink_to(root / "missing.java")

    assert _scan_both_modes(tmp_path, build) == (["A.java"], ["A.java"])


def test_hidden_directories_pruned_at_depth_but_hidden_files_kept(tmp_path: Path):
    def build(root: Path) -> None:
        deep = root / "a" / "b"
        (deep / ".cache").mkdir(parents=True)
        (deep / ".cache" / "Gone.java").write_text("class Gone {}")
        (deep / "C.java").write_text("class C {}")
        (root / ".B.java").write_text("class B {}")

    expected = [".B.java", "a/b/C.java"]
    assert _scan_both_modes(tmp_path, build) == (expected, expected)


def test_extensions_match_case_insensitively(tmp_path: Path):
    def build(root: Path) -> None:
        (root / "Upper.JAVA").write_text("class Upper {}")
        (root / "Mixed.Aj").write_text("aspect Mixed {}")
        (root / "Other.jav").write_text("class Other {}")
        (root / ".java").write_text("class Bare {}")

    single, root_mode = _scan_both_modes(tmp_path, build)
    assert single == root_mode == ["Mixed.Aj", "Upper.JAVA"]
    (version,) = scan_corpus(tmp_path / "single", ScanMode.SINGLE_VERSION)
    assert [classify_file(f) for f in version.files] == [FileKind.ASPECTJ, FileKind.JAVA]


def test_files_sort_by_full_path_string(tmp_path: Path):
    for name in ("a", "a.b", "a-b"):
        (tmp_path / name).mkdir()
        (tmp_path / name / "X.java").write_text("class X {}")
    (version,) = scan_corpus(tmp_path, ScanMode.SINGLE_VERSION)
    assert [Path(f).relative_to(tmp_path).as_posix() for f in version.files] == [
        "a-b/X.java",
        "a.b/X.java",
        "a/X.java",
    ]


def test_unreadable_directory_is_skipped_silently(tmp_path: Path, monkeypatch):
    (tmp_path / "A.java").write_text("class A {}")
    (tmp_path / "locked").mkdir()
    (tmp_path / "locked" / "B.java").write_text("class B {}")
    real_scandir = os.scandir

    def scandir(path):
        if os.fspath(path).endswith("locked"):
            raise PermissionError(13, "Permission denied", os.fspath(path))
        return real_scandir(path)

    monkeypatch.setattr(os, "scandir", scandir)
    (version,) = scan_corpus(tmp_path, ScanMode.SINGLE_VERSION)
    assert [Path(f).name for f in version.files] == ["A.java"]


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no FIFOs on this platform")
def test_a_fifo_named_like_a_source_file_is_skipped(tmp_path: Path):
    # Only scanned: reading a FIFO with no writer would block.
    (tmp_path / "A.java").write_text("class A {}")
    os.mkfifo(tmp_path / "F.java")
    (version,) = scan_corpus(tmp_path, ScanMode.SINGLE_VERSION)
    assert [Path(f).name for f in version.files] == ["A.java"]
