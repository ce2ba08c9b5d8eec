"""Source-tree discovery: locate .java/.aj files and group them into versions.

A version is a directory. In single-version mode the given root is the one
version; in versions-root mode every immediate subdirectory is a version.
File lists are always sorted lexicographically by path so a rescan of an
unchanged tree is byte-identical regardless of directory enumeration order.
"""

from __future__ import annotations

import os
from enum import Enum
from pathlib import Path

from .diagnostics import FrozenRecord
from .errors import EmptyCorpus, RootNotFound


class FileKind(Enum):
    JAVA = "java"
    ASPECTJ = "aspectj"
    IGNORED = "ignored"


class ScanMode(Enum):
    SINGLE_VERSION = "single"
    VERSIONS_ROOT = "versions-root"


class VersionRef(FrozenRecord):
    __slots__ = ("id", "root", "files")

    def __init__(self, id: str, root: Path, files: tuple[str, ...]):
        object.__setattr__(self, "id", id)
        object.__setattr__(self, "root", root)
        object.__setattr__(self, "files", files)


_EXTENSIONS = {".java": FileKind.JAVA, ".aj": FileKind.ASPECTJ}


def _kind_of_name(name: str) -> FileKind:
    """Classify a file name by its suffix, as ``Path.suffix`` reads it, case-insensitively."""
    dot = name.rfind(".")
    if dot <= 0:  # no suffix, or a dot file such as '.java'
        return FileKind.IGNORED
    return _EXTENSIONS.get(name[dot:].lower(), FileKind.IGNORED)


def classify_file(path: Path | str) -> FileKind:
    """Classify a path purely by extension, case-insensitively."""
    return _kind_of_name(Path(path).name)


def _collect_files(root: Path) -> list[str]:
    """The path string of every source file under ``root``, sorted.

    Only regular files and directories are visited, never a symlink; hidden
    directories (VCS metadata etc.) are pruned, but hidden files are kept. A
    directory that cannot be read is skipped silently, as ``os.walk`` skips it.
    """
    found: list[str] = []
    todo = [str(root)]
    while todo:
        try:
            with os.scandir(todo.pop()) as entries:
                for entry in entries:
                    name = entry.name
                    if entry.is_dir(follow_symlinks=False):
                        if not name.startswith("."):
                            todo.append(entry.path)
                    elif entry.is_file(follow_symlinks=False):
                        if _kind_of_name(name) is not FileKind.IGNORED:
                            found.append(entry.path)
        except OSError:
            pass
    found.sort()
    return found


def scan_corpus(root: Path | str, mode: ScanMode) -> list[VersionRef]:
    """Discover versions under ``root`` and their source files.

    Raises RootNotFound if root is missing or not a directory, and
    EmptyCorpus if no .java/.aj file exists anywhere in the scan.
    """
    root = Path(root).resolve()
    if not root.is_dir():
        raise RootNotFound(f"not a directory: {root}")

    versions: list[VersionRef] = []
    if mode is ScanMode.SINGLE_VERSION:
        files = _collect_files(root)
        versions.append(VersionRef(id=root.name, root=root, files=tuple(files)))
    else:
        children = sorted(
            (
                child
                for child in root.iterdir()
                if child.is_dir() and not child.is_symlink() and not child.name.startswith(".")
            ),
            key=lambda p: p.name,
        )
        for child in children:
            files = _collect_files(child)
            versions.append(VersionRef(id=child.name, root=child, files=tuple(files)))

    if not any(version.files for version in versions):
        raise EmptyCorpus(f"no .java or .aj files under {root}")
    return versions
