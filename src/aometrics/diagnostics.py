"""Record base classes, and the diagnostics shared by the lexer, parser and metric passes."""

from __future__ import annotations

from enum import Enum


class Record:
    """A plain record whose fields are its class's ``__slots__``, in order.

    Records of the same class compare equal when their fields do; records
    of different classes never do. A mutable record is unhashable. Each
    record writes its own ``__init__``: generating records at import time
    costs start-up, which every CLI run pays (see README, "Records").
    """

    __slots__ = ()
    __hash__ = None

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"


class FrozenRecord(Record):
    """An immutable, hashable record.

    ``__init__`` sets each field with ``object.__setattr__`` and takes
    every field positionally, in slot order: ``__reduce__`` relies on that,
    so ``copy`` and ``pickle`` rebuild the record through ``__init__``.
    """

    __slots__ = ()

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r} of {type(self).__qualname__}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r} of {type(self).__qualname__}")

    def __hash__(self) -> int:
        return hash(self._values())

    def __reduce__(self) -> tuple:
        return type(self), self._values()


class Severity(Enum):
    WARNING = "warning"
    ERROR = "error"


class Diagnostic(FrozenRecord):
    __slots__ = ("file", "line", "severity", "message")

    def __init__(self, file: str, line: int, severity: Severity, message: str):
        object.__setattr__(self, "file", file)
        object.__setattr__(self, "line", line)
        object.__setattr__(self, "severity", severity)
        object.__setattr__(self, "message", message)

    def __str__(self) -> str:
        return f"{self.file}:{self.line}: {self.severity.value}: {self.message}"


def warning(file: str, line: int, message: str) -> Diagnostic:
    return Diagnostic(file, line, Severity.WARNING, message)


def error(file: str, line: int, message: str) -> Diagnostic:
    return Diagnostic(file, line, Severity.ERROR, message)


def relabeled(
    diagnostics: list[Diagnostic] | tuple[Diagnostic, ...], file: str
) -> list[Diagnostic]:
    """``diagnostics`` as reported for ``file``, in the same order."""
    return [Diagnostic(file, d.line, d.severity, d.message) for d in diagnostics]
