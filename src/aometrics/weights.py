"""Cognitive-weight tables with exact fixed-point arithmetic.

Weights are stored as integer counts of a fixed fraction of 1.0 (tenths by
default), so sums are exact and associative; there is no floating point
anywhere in the metric pipeline. A user override file may introduce values
with two decimals, in which case the whole table is built on hundredths
instead. One table always uses one denominator.
"""

from __future__ import annotations

import json
from decimal import Decimal, InvalidOperation
from enum import Enum, IntEnum
from pathlib import Path

from .diagnostics import FrozenRecord
from .errors import ConfigNotFound, MalformedConfig, NegativeWeight, UnknownWeightKey
from .parser import AdviceKind
from .pointcuts import SignaturePattern


def render_fixed(num: int, den: int, places: int, signed: bool = False) -> str:
    """``num / den`` (``den > 0``) to ``places`` decimals, ties to even, in integers only.

    The sign is the exact value's: ``-`` when negative, even when it rounds
    to zero (``-0.000``), and ``+`` when positive and ``signed``.
    """
    if num < 0:
        sign, num = "-", -num
    else:
        sign = "+" if signed and num else ""
    digits, rest = divmod(num * 10**places, den)
    if 2 * rest > den or (2 * rest == den and digits & 1):
        digits += 1
    if not places:
        return sign + str(digits)
    text = str(digits).rjust(places + 1, "0")
    return f"{sign}{text[:-places]}.{text[-places:]}"


class Weight(FrozenRecord):
    """A non-negative weight: ``units / scale`` with scale 10 or 100."""

    __slots__ = ("units", "scale")

    def __init__(self, units: int, scale: int):
        object.__setattr__(self, "units", units)
        object.__setattr__(self, "scale", scale)

    def __add__(self, other: "Weight") -> "Weight":
        if self.scale != other.scale:
            raise ValueError(f"mixed weight scales: {self.scale} vs {other.scale}")
        return Weight(self.units + other.units, self.scale)

    @property
    def places(self) -> int:
        return 1 if self.scale == 10 else 2

    def render(self) -> str:
        return render_fixed(self.units, self.scale, self.places)


class JoinPointCategory(Enum):
    METHOD_EXECUTION = "method_execution"
    METHOD_CALL = "method_call"
    EXCEPTION_HANDLING = "exception_handling"
    WITHIN_ADVICE = "within_advice"
    ATTRIBUTE = "attribute"
    PARTICULAR_METHOD = "particular_method"
    PARTICULAR_CLASS = "particular_class"
    PARTICULAR_PACKAGE = "particular_package"
    CONTROL_FLOW = "control_flow"
    BOOLEAN_OR_COMBINED = "boolean_or_combined"


class SpecificityLevel(IntEnum):
    """Join-point signature specificity, ordered by increasing weight."""

    FULLY_QUALIFIED = 1
    WILDCARD_PARAMS = 2
    WILDCARD_RETURN = 3
    WILDCARD_NAME = 4
    WILDCARD_OR_UNQUALIFIED_CLASS = 5


class WeightTable(FrozenRecord):
    __slots__ = (
        "designator_weights", "advice_weights", "joinpoint_type_weights",
        "signature_level_weights", "scale",
    )

    def __init__(
        self,
        designator_weights: dict,
        advice_weights: dict,
        joinpoint_type_weights: dict,
        signature_level_weights: dict,
        scale: int,
    ):
        object.__setattr__(self, "designator_weights", designator_weights)
        object.__setattr__(self, "advice_weights", advice_weights)
        object.__setattr__(self, "joinpoint_type_weights", joinpoint_type_weights)
        object.__setattr__(self, "signature_level_weights", signature_level_weights)
        object.__setattr__(self, "scale", scale)


# One entry per override-file section, in WeightTable's field order: how an
# entry name becomes the table's key, and the default tenths by entry name,
# as README lists them.
_SECTIONS = {
    "designator": (str, {"execution": 1, "call": 2, "get": 3, "set": 4, "handler": 5}),
    "advice": (AdviceKind, {
        "before": 1, "after": 1, "after_returning": 1, "after_throwing": 1, "around": 2,
    }),
    "joinpoint_type": (JoinPointCategory, {
        "method_execution": 1, "method_call": 2, "exception_handling": 3, "within_advice": 4,
        "attribute": 5, "particular_method": 6, "particular_class": 7,
        "particular_package": 8, "control_flow": 9, "boolean_or_combined": 10,
    }),
    "signature_level": (lambda name: SpecificityLevel[name.upper()], {
        "fully_qualified": 1, "wildcard_params": 2, "wildcard_return": 3,
        "wildcard_name": 4, "wildcard_or_unqualified_class": 5,
    }),
}


def _build_table(scale: int, overrides: dict[str, dict[str, int]]) -> WeightTable:
    """The defaults at ``scale``, with each overridden entry, in hundredths, replaced."""
    sections = []
    for section, (key_of, tenths) in _SECTIONS.items():
        given = overrides.get(section, {})
        sections.append({
            key_of(name): Weight(given[name] * scale // 100 if name in given else units * scale // 10, scale)
            for name, units in tenths.items()
        })
    return WeightTable(*sections, scale)


def default_weights() -> WeightTable:
    """The built-in weight tables, in exact tenths."""
    return _build_table(10, {})


def signature_specificity(pat: SignaturePattern) -> SpecificityLevel:
    if "*" in pat.declaring_type_pattern or "." not in pat.declaring_type_pattern:
        return SpecificityLevel.WILDCARD_OR_UNQUALIFIED_CLASS
    if "*" in pat.name_pattern:
        return SpecificityLevel.WILDCARD_NAME
    if "*" in pat.return_pattern or "||" in pat.return_pattern:
        return SpecificityLevel.WILDCARD_RETURN
    if ".." in pat.params_pattern or "*" in pat.params_pattern:
        return SpecificityLevel.WILDCARD_PARAMS
    return SpecificityLevel.FULLY_QUALIFIED


# An override must be below 10**100, so every sum of weights renders far
# inside Python's 4,300-digit limit on converting an int to a string.
_BOUND = 10**100


def _hundredths(section: str, key: str, value: object) -> int:
    """An override's ``value``, an int or a Decimal, in exact hundredths.

    A Decimal is checked from its digits and exponent as written, and
    bounded before any product is formed, so no check costs more than the
    text of the value.
    """
    if isinstance(value, bool) or not isinstance(value, (int, Decimal)):
        raise MalformedConfig(f"{section}.{key}: expected a number, got {value!r}")
    if value < 0:
        raise NegativeWeight(f"{section}.{key}: negative weight {value}")
    if isinstance(value, Decimal):
        _, digits, exponent = value.as_tuple()
        shift = exponent + 2  # value == int(digits) * 10**shift hundredths
        if shift < 0:
            if any(digits[shift:]):
                raise MalformedConfig(f"{section}.{key}: at most two decimal places supported")
            digits, shift = digits[:shift], 0
    if value >= _BOUND:
        raise MalformedConfig(f"{section}.{key}: weight must be below 1e100")
    if isinstance(value, int):
        return value * 100
    if not value:  # a zero may carry any exponent
        return 0
    return int("".join(map(str, digits))) * 10**shift


def load_weight_overrides(config_path: Path | str) -> WeightTable:
    """Defaults with per-entry replacements from a JSON override file.

    Top-level keys: "designator", "advice", "joinpoint_type",
    "signature_level"; each maps entry names to decimal weights. Unknown
    keys are rejected. If any override needs two decimals the whole table
    is rebuilt on hundredths.
    """
    path = Path(config_path)
    if not path.is_file():
        raise ConfigNotFound(f"weight config not found: {path}")
    try:
        raw = json.loads(path.read_text(encoding="utf-8"), parse_float=Decimal)
    except (ValueError, InvalidOperation, RecursionError) as exc:  # or nested too deep
        raise MalformedConfig(f"invalid JSON in {path}: {exc}") from None
    if not isinstance(raw, dict):
        raise MalformedConfig(f"{path}: top level must be an object")

    overrides: dict[str, dict[str, int]] = {}
    for section, entries in raw.items():
        if section not in _SECTIONS:
            raise UnknownWeightKey(f"unknown section {section!r}")
        if not isinstance(entries, dict):
            raise MalformedConfig(f"{section}: expected an object of name -> weight")
        overrides[section] = {
            key: _hundredths(section, key, value) for key, value in entries.items()
        }

    for section, entries in overrides.items():
        for key in entries:
            if key not in _SECTIONS[section][1]:
                raise UnknownWeightKey(f"unknown {section} name {key!r}")

    needs_hundredths = any(h % 10 for entries in overrides.values() for h in entries.values())
    return _build_table(100 if needs_hundredths else 10, overrides)
