from __future__ import annotations

import json
from decimal import ROUND_HALF_EVEN, Decimal, localcontext
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from aometrics import (
    AdviceKind,
    ConfigNotFound,
    JoinPointCategory,
    MalformedConfig,
    NegativeWeight,
    SpecificityLevel,
    UnknownWeightKey,
    Weight,
    default_weights,
    load_weight_overrides,
)
from aometrics.weights import render_fixed


def test_default_designator_weights():
    table = default_weights()
    expected = {"execution": "0.1", "call": "0.2", "get": "0.3", "set": "0.4", "handler": "0.5"}
    assert {k: w.render() for k, w in table.designator_weights.items()} == expected


def test_default_advice_weights():
    table = default_weights()
    assert table.advice_weights[AdviceKind.BEFORE].render() == "0.1"
    assert table.advice_weights[AdviceKind.AFTER].render() == "0.1"
    assert table.advice_weights[AdviceKind.AFTER_RETURNING].render() == "0.1"
    assert table.advice_weights[AdviceKind.AFTER_THROWING].render() == "0.1"
    assert table.advice_weights[AdviceKind.AROUND].render() == "0.2"


def test_default_joinpoint_weights():
    table = default_weights()
    rendered = {c.value: table.joinpoint_type_weights[c].render() for c in JoinPointCategory}
    assert rendered == {
        "method_execution": "0.1",
        "method_call": "0.2",
        "exception_handling": "0.3",
        "within_advice": "0.4",
        "attribute": "0.5",
        "particular_method": "0.6",
        "particular_class": "0.7",
        "particular_package": "0.8",
        "control_flow": "0.9",
        "boolean_or_combined": "1.0",
    }


def test_default_signature_levels_ascend():
    table = default_weights()
    values = [table.signature_level_weights[level].units for level in SpecificityLevel]
    assert values == sorted(values)
    assert table.signature_level_weights[SpecificityLevel.FULLY_QUALIFIED].render() == "0.1"
    widest = table.signature_level_weights[SpecificityLevel.WILDCARD_OR_UNQUALIFIED_CLASS]
    assert widest.render() == "0.5"


def test_defaults_are_constant():
    assert default_weights() == default_weights()


def test_exact_sum_of_thousand_tenths():
    total = Weight(0, 10)
    tenth = Weight(1, 10)
    for _ in range(1000):
        total = total + tenth
    assert total.render() == "100.0"


def test_associativity_bit_for_bit():
    a, b, c = Weight(1, 10), Weight(2, 10), Weight(3, 10)
    assert (a + b) + c == a + (b + c)


@given(st.lists(st.integers(min_value=0, max_value=50), min_size=1, max_size=30))
def test_sum_order_independent(units):
    forward = Weight(0, 10)
    for u in units:
        forward = forward + Weight(u, 10)
    backward = Weight(0, 10)
    for u in reversed(units):
        backward = backward + Weight(u, 10)
    assert forward == backward
    assert forward.units == sum(units)


def test_mixed_scales_rejected():
    with pytest.raises(ValueError):
        Weight(1, 10) + Weight(1, 100)


def _decimal_render(num: int, den: int, places: int, signed: bool) -> str:
    """Decimal's banker's rounding of ``num / den``, in a context wide enough to be exact here."""
    with localcontext() as context:
        context.prec = 200
        dec = (Decimal(num) / Decimal(den)).quantize(Decimal(10) ** -places, rounding=ROUND_HALF_EVEN)
    return f"+{dec}" if signed and num > 0 else str(dec)


@settings(max_examples=1000, deadline=None)
@given(
    st.integers(min_value=-(10**40), max_value=10**40) | st.integers(min_value=-2000, max_value=2000),
    st.integers(min_value=1, max_value=10**30) | st.integers(min_value=1, max_value=64),
    st.integers(min_value=0, max_value=3),
    st.booleans(),
)
@example(1, 16, 3, False)  # a tie rounds down to the even 0.062
@example(5, 16, 3, False)  # ... and 0.3125 to 0.312
@example(-1, 2550, 3, True)  # -0.000
@example(1, 2550, 3, True)  # +0.000
@example(0, 7, 3, True)  # 0.000: zero takes no sign
@example(-5, 2, 0, False)  # -2.5 to -2
@example(7, 2, 0, True)  # 3.5 to +4
def test_render_fixed_equals_decimal_half_even(num, den, places, signed):
    assert render_fixed(num, den, places, signed) == _decimal_render(num, den, places, signed)


@pytest.mark.parametrize("scale", [10, 100])
def test_weight_renders_whole_and_padded_fraction(scale):
    places = 1 if scale == 10 else 2
    for units in range(0, 100_001, 7):
        whole, frac = divmod(units, scale)
        assert Weight(units, scale).render() == f"{whole}.{frac:0{places}d}"


# -- overrides --------------------------------------------------------------


def write_config(tmp_path: Path, payload) -> Path:
    path = tmp_path / "weights.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    return path


def test_empty_config_equals_defaults(tmp_path: Path):
    path = write_config(tmp_path, {})
    assert load_weight_overrides(path) == default_weights()


def test_single_override(tmp_path: Path):
    path = write_config(tmp_path, {"designator": {"call": 0.3}})
    table = load_weight_overrides(path)
    assert table.designator_weights["call"].render() == "0.3"
    assert table.designator_weights["execution"].render() == "0.1"


def test_loading_overrides_leaves_the_default_table_unchanged(tmp_path: Path):
    fresh = default_weights()
    path = write_config(
        tmp_path,
        {
            "designator": {"call": 0.3},
            "advice": {"around": 0.5},
            "joinpoint_type": {"attribute": 0.9},
            "signature_level": {"fully_qualified": 0.2},
        },
    )
    defaults = default_weights()
    table = load_weight_overrides(path)
    assert table != fresh
    assert defaults == fresh
    assert default_weights() == fresh
    assert table.designator_weights["call"].render() == "0.3"
    assert table.advice_weights[AdviceKind.AROUND].render() == "0.5"
    assert table.joinpoint_type_weights[JoinPointCategory.ATTRIBUTE].render() == "0.9"
    assert table.signature_level_weights[SpecificityLevel.FULLY_QUALIFIED].render() == "0.2"


# Every entry name README lists, with the key and the default tenths it
# stands for, section by section.
_README_ENTRIES = [
    ("designator", "designator_weights", name, name, tenths)
    for name, tenths in [("execution", 1), ("call", 2), ("get", 3), ("set", 4), ("handler", 5)]
] + [
    ("advice", "advice_weights", name, kind, tenths)
    for name, kind, tenths in [
        ("before", AdviceKind.BEFORE, 1),
        ("after", AdviceKind.AFTER, 1),
        ("after_returning", AdviceKind.AFTER_RETURNING, 1),
        ("after_throwing", AdviceKind.AFTER_THROWING, 1),
        ("around", AdviceKind.AROUND, 2),
    ]
] + [
    ("joinpoint_type", "joinpoint_type_weights", name, category, tenths)
    for name, category, tenths in [
        ("method_execution", JoinPointCategory.METHOD_EXECUTION, 1),
        ("method_call", JoinPointCategory.METHOD_CALL, 2),
        ("exception_handling", JoinPointCategory.EXCEPTION_HANDLING, 3),
        ("within_advice", JoinPointCategory.WITHIN_ADVICE, 4),
        ("attribute", JoinPointCategory.ATTRIBUTE, 5),
        ("particular_method", JoinPointCategory.PARTICULAR_METHOD, 6),
        ("particular_class", JoinPointCategory.PARTICULAR_CLASS, 7),
        ("particular_package", JoinPointCategory.PARTICULAR_PACKAGE, 8),
        ("control_flow", JoinPointCategory.CONTROL_FLOW, 9),
        ("boolean_or_combined", JoinPointCategory.BOOLEAN_OR_COMBINED, 10),
    ]
] + [
    ("signature_level", "signature_level_weights", name, level, tenths)
    for name, level, tenths in [
        ("fully_qualified", SpecificityLevel.FULLY_QUALIFIED, 1),
        ("wildcard_params", SpecificityLevel.WILDCARD_PARAMS, 2),
        ("wildcard_return", SpecificityLevel.WILDCARD_RETURN, 3),
        ("wildcard_name", SpecificityLevel.WILDCARD_NAME, 4),
        ("wildcard_or_unqualified_class", SpecificityLevel.WILDCARD_OR_UNQUALIFIED_CLASS, 5),
    ]
]


def _readme_tables(scale: int) -> dict:
    """README's defaults at ``scale``, by WeightTable field."""
    tables: dict = {}
    for _, field, _, key, tenths in _README_ENTRIES:
        tables.setdefault(field, {})[key] = Weight(tenths * scale // 10, scale)
    return tables


def test_readme_entries_are_the_default_tables():
    table = default_weights()
    for field, weights in _readme_tables(10).items():
        assert getattr(table, field) == weights


@pytest.mark.parametrize(("section", "field", "name", "key"), [e[:4] for e in _README_ENTRIES])
@pytest.mark.parametrize(("value", "scale"), [(0.7, 10), (0.07, 100)])
def test_every_override_name_lands_on_its_key(tmp_path: Path, section, field, name, key, value, scale):
    table = load_weight_overrides(write_config(tmp_path, {section: {name: value}}))
    assert table.scale == scale
    expected = _readme_tables(scale)
    expected[field][key] = Weight(7, scale)
    for other, weights in expected.items():
        assert getattr(table, other) == weights


def test_two_decimal_override_switches_scale(tmp_path: Path):
    path = write_config(tmp_path, {"advice": {"around": 0.25}})
    table = load_weight_overrides(path)
    assert table.scale == 100
    assert table.advice_weights[AdviceKind.AROUND].render() == "0.25"
    # Defaults carried over exactly at the new denominator.
    assert table.designator_weights["execution"].render() == "0.10"


def test_negative_weight_rejected(tmp_path: Path):
    path = write_config(tmp_path, {"advice": {"around": -1}})
    with pytest.raises(NegativeWeight):
        load_weight_overrides(path)


def test_unknown_section_rejected(tmp_path: Path):
    path = write_config(tmp_path, {"designators": {"call": 0.1}})
    with pytest.raises(UnknownWeightKey):
        load_weight_overrides(path)


def test_unknown_name_rejected(tmp_path: Path):
    path = write_config(tmp_path, {"designator": {"cal": 0.1}})
    with pytest.raises(UnknownWeightKey):
        load_weight_overrides(path)


def test_three_decimals_rejected(tmp_path: Path):
    path = write_config(tmp_path, {"designator": {"call": 0.125}})
    with pytest.raises(MalformedConfig):
        load_weight_overrides(path)


def test_bad_json_rejected(tmp_path: Path):
    path = tmp_path / "weights.json"
    path.write_text("{not json", encoding="utf-8")
    with pytest.raises(MalformedConfig):
        load_weight_overrides(path)


def test_document_nested_too_deep_rejected(tmp_path: Path):
    # json raises RecursionError, not a ValueError, past the depth limit.
    path = tmp_path / "weights.json"
    path.write_text('{"advice": ' + "[" * 100_000 + "]" * 100_000 + "}", encoding="utf-8")
    with pytest.raises(MalformedConfig) as info:
        load_weight_overrides(path)
    assert str(info.value).startswith(f"invalid JSON in {path}: ")


def test_non_number_rejected(tmp_path: Path):
    path = write_config(tmp_path, {"designator": {"call": "0.3"}})
    with pytest.raises(MalformedConfig):
        load_weight_overrides(path)


def test_missing_config():
    with pytest.raises(ConfigNotFound):
        load_weight_overrides("/nonexistent/weights.json")


def test_zero_override_allowed(tmp_path: Path):
    path = write_config(tmp_path, {"joinpoint_type": {"control_flow": 0}})
    table = load_weight_overrides(path)
    assert table.joinpoint_type_weights[JoinPointCategory.CONTROL_FLOW].units == 0


def test_thirty_one_digit_override_with_a_third_decimal_rejected(tmp_path: Path):
    # Read exactly: Decimal's 28 significant digits would round it to 0.1.
    path = tmp_path / "weights.json"
    path.write_text('{"designator": {"execution": 0.1000000000000000000000000000001}}', encoding="utf-8")
    with pytest.raises(MalformedConfig) as info:
        load_weight_overrides(path)
    assert str(info.value) == "designator.execution: at most two decimal places supported"


@pytest.mark.parametrize(
    ("value", "message"),
    [
        ("1e5000", "advice.around: weight must be below 1e100"),
        ("1e400", "advice.around: weight must be below 1e100"),
        ("1e999990", "advice.around: weight must be below 1e100"),
        ("1" + "0" * 100, "advice.around: weight must be below 1e100"),
        ("1e-999999999", "advice.around: at most two decimal places supported"),
    ],
)
def test_override_of_extreme_size_rejected_at_once(tmp_path: Path, value, message):
    # Each is decided from the digits and the exponent as written: 1e5000
    # used to fail in rendering with a traceback, 1e400 to render 401
    # digits, and 1e-999999999 and 1e999990 to run on for minutes.
    path = tmp_path / "weights.json"
    path.write_text(f'{{"advice": {{"around": {value}}}}}', encoding="utf-8")
    with pytest.raises(MalformedConfig) as info:
        load_weight_overrides(path)
    assert str(info.value) == message


@pytest.mark.parametrize(
    ("value", "rendered"),
    [
        ("9" * 100, "9" * 100 + ".0"),
        ("9.99e99", "999" + "0" * 97 + ".0"),
        ("1." + "0" * 1000, "1.0"),
        ("0e999999999", "0.0"),
        ("0e-999999999", "0.0"),
    ],
)
def test_override_below_the_bound_kept_exactly(tmp_path: Path, value, rendered):
    path = tmp_path / "weights.json"
    path.write_text(f'{{"advice": {{"around": {value}}}}}', encoding="utf-8")
    table = load_weight_overrides(path)
    assert table.scale == 10
    assert table.advice_weights[AdviceKind.AROUND].render() == rendered


def test_thirty_one_digit_override_kept_exactly(tmp_path: Path):
    path = tmp_path / "weights.json"
    path.write_text('{"advice": {"around": 123456789012345678901234567890.5}}', encoding="utf-8")
    table = load_weight_overrides(path)
    assert table.scale == 10
    assert table.advice_weights[AdviceKind.AROUND].render() == "123456789012345678901234567890.5"
