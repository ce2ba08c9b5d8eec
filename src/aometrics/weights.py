"""Cognitive-weight tables with exact fixed-point arithmetic.

Weights are stored as integer counts of a fixed fraction of 1.0 (tenths by
default), so sums are exact and associative; there is no floating point
anywhere in the metric pipeline. A user override file may introduce values
with two decimals, in which case the whole table is built on hundredths
instead. One table always uses one denominator.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from decimal import Decimal, InvalidOperation
from enum import Enum, IntEnum
from pathlib import Path

from .errors import ConfigNotFound, MalformedConfig, NegativeWeight, UnknownWeightKey
from .parser import AdviceKind
from .pointcuts import SignaturePattern


@dataclass(frozen=True, order=True)
class Weight:
    """A non-negative weight: ``units / scale`` with scale 10 or 100."""

    units: int
    scale: int = 10

    def __add__(self, other: "Weight") -> "Weight":
        if self.scale != other.scale:
            raise ValueError(f"mixed weight scales: {self.scale} vs {other.scale}")
        return Weight(self.units + other.units, self.scale)

    def render(self) -> str:
        decimals = 1 if self.scale == 10 else 2
        whole, frac = divmod(self.units, self.scale)
        return f"{whole}.{frac:0{decimals}d}"

    def is_zero(self) -> bool:
        return self.units == 0

    @classmethod
    def from_decimal(cls, value: Decimal, scale: int) -> "Weight":
        units = value * scale
        if units != units.to_integral_value():
            raise MalformedConfig(f"weight {value} is not representable in 1/{scale} steps")
        return cls(int(units), scale)


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


_DESIGNATOR_TENTHS = {"execution": 1, "call": 2, "get": 3, "set": 4, "handler": 5}

_ADVICE_TENTHS = {
    AdviceKind.BEFORE: 1,
    AdviceKind.AFTER: 1,
    AdviceKind.AFTER_RETURNING: 1,
    AdviceKind.AFTER_THROWING: 1,
    AdviceKind.AROUND: 2,
}

_JOINPOINT_TENTHS = {
    JoinPointCategory.METHOD_EXECUTION: 1,
    JoinPointCategory.METHOD_CALL: 2,
    JoinPointCategory.EXCEPTION_HANDLING: 3,
    JoinPointCategory.WITHIN_ADVICE: 4,
    JoinPointCategory.ATTRIBUTE: 5,
    JoinPointCategory.PARTICULAR_METHOD: 6,
    JoinPointCategory.PARTICULAR_CLASS: 7,
    JoinPointCategory.PARTICULAR_PACKAGE: 8,
    JoinPointCategory.CONTROL_FLOW: 9,
    JoinPointCategory.BOOLEAN_OR_COMBINED: 10,
}

_SIGNATURE_TENTHS = {
    SpecificityLevel.FULLY_QUALIFIED: 1,
    SpecificityLevel.WILDCARD_PARAMS: 2,
    SpecificityLevel.WILDCARD_RETURN: 3,
    SpecificityLevel.WILDCARD_NAME: 4,
    SpecificityLevel.WILDCARD_OR_UNQUALIFIED_CLASS: 5,
}


@dataclass(frozen=True)
class WeightTable:
    designator_weights: dict
    advice_weights: dict
    joinpoint_type_weights: dict
    signature_level_weights: dict
    scale: int = 10

    def zero(self) -> Weight:
        return Weight(0, self.scale)

    def designator(self, name: str) -> Weight | None:
        return self.designator_weights.get(name)

    def advice(self, kind: AdviceKind) -> Weight:
        return self.advice_weights[kind]

    def joinpoint(self, category: JoinPointCategory) -> Weight:
        return self.joinpoint_type_weights[category]

    def signature_level(self, level: SpecificityLevel) -> Weight:
        return self.signature_level_weights[level]


def _build_table(scale: int) -> WeightTable:
    factor = scale // 10
    return WeightTable(
        designator_weights={k: Weight(v * factor, scale) for k, v in _DESIGNATOR_TENTHS.items()},
        advice_weights={k: Weight(v * factor, scale) for k, v in _ADVICE_TENTHS.items()},
        joinpoint_type_weights={k: Weight(v * factor, scale) for k, v in _JOINPOINT_TENTHS.items()},
        signature_level_weights={k: Weight(v * factor, scale) for k, v in _SIGNATURE_TENTHS.items()},
        scale=scale,
    )


def default_weights() -> WeightTable:
    """The built-in weight tables, in exact tenths."""
    return _build_table(10)


def signature_weight(pat: SignaturePattern, table: WeightTable) -> Weight:
    """Weight of the highest specificity level the pattern triggers."""
    return table.signature_level(signature_specificity(pat))


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


_ADVICE_BY_NAME = {kind.value: kind for kind in AdviceKind}
_CATEGORY_BY_NAME = {cat.value: cat for cat in JoinPointCategory}
_LEVEL_BY_NAME = {level.name.lower(): level for level in SpecificityLevel}

_SECTIONS = ("designator", "advice", "joinpoint_type", "signature_level")


def _coerce_decimal(section: str, key: str, value: object) -> Decimal:
    if isinstance(value, bool) or not isinstance(value, (int, Decimal)):
        raise MalformedConfig(f"{section}.{key}: expected a number, got {value!r}")
    dec = Decimal(value) if isinstance(value, int) else value
    if dec < 0:
        raise NegativeWeight(f"{section}.{key}: negative weight {dec}")
    if dec * 100 != (dec * 100).to_integral_value():
        raise MalformedConfig(f"{section}.{key}: at most two decimal places supported")
    return dec


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
    except (ValueError, InvalidOperation) as exc:
        raise MalformedConfig(f"invalid JSON in {path}: {exc}") from None
    if not isinstance(raw, dict):
        raise MalformedConfig(f"{path}: top level must be an object")

    overrides: dict[str, dict[str, Decimal]] = {}
    for section, entries in raw.items():
        if section not in _SECTIONS:
            raise UnknownWeightKey(f"unknown section {section!r}")
        if not isinstance(entries, dict):
            raise MalformedConfig(f"{section}: expected an object of name -> weight")
        overrides[section] = {
            key: _coerce_decimal(section, key, value) for key, value in entries.items()
        }

    known = {
        "designator": set(_DESIGNATOR_TENTHS),
        "advice": set(_ADVICE_BY_NAME),
        "joinpoint_type": set(_CATEGORY_BY_NAME),
        "signature_level": set(_LEVEL_BY_NAME),
    }
    for section, entries in overrides.items():
        for key in entries:
            if key not in known[section]:
                raise UnknownWeightKey(f"unknown {section} name {key!r}")

    needs_hundredths = any(
        dec * 10 != (dec * 10).to_integral_value()
        for entries in overrides.values()
        for dec in entries.values()
    )
    scale = 100 if needs_hundredths else 10
    base = _build_table(scale)

    def merged(weights: dict, section: str, by_name: dict | None = None) -> dict:
        out = dict(weights)
        for key, dec in overrides.get(section, {}).items():
            out[by_name[key] if by_name else key] = Weight.from_decimal(dec, scale)
        return out

    return WeightTable(
        designator_weights=merged(base.designator_weights, "designator"),
        advice_weights=merged(base.advice_weights, "advice", _ADVICE_BY_NAME),
        joinpoint_type_weights=merged(
            base.joinpoint_type_weights, "joinpoint_type", _CATEGORY_BY_NAME
        ),
        signature_level_weights=merged(
            base.signature_level_weights, "signature_level", _LEVEL_BY_NAME
        ),
        scale=scale,
    )
