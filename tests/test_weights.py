from __future__ import annotations

import json
from pathlib import Path

import pytest
from hypothesis import given
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


def test_default_designator_weights():
    table = default_weights()
    expected = {"execution": "0.1", "call": "0.2", "get": "0.3", "set": "0.4", "handler": "0.5"}
    assert {k: w.render() for k, w in table.designator_weights.items()} == expected


def test_default_advice_weights():
    table = default_weights()
    assert table.advice(AdviceKind.BEFORE).render() == "0.1"
    assert table.advice(AdviceKind.AFTER).render() == "0.1"
    assert table.advice(AdviceKind.AFTER_RETURNING).render() == "0.1"
    assert table.advice(AdviceKind.AFTER_THROWING).render() == "0.1"
    assert table.advice(AdviceKind.AROUND).render() == "0.2"


def test_default_joinpoint_weights():
    table = default_weights()
    rendered = {c.value: table.joinpoint(c).render() for c in JoinPointCategory}
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
    values = [table.signature_level(level).units for level in SpecificityLevel]
    assert values == sorted(values)
    assert table.signature_level(SpecificityLevel.FULLY_QUALIFIED).render() == "0.1"
    assert table.signature_level(SpecificityLevel.WILDCARD_OR_UNQUALIFIED_CLASS).render() == "0.5"


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
    assert table.advice(AdviceKind.AROUND).render() == "0.5"
    assert table.joinpoint(JoinPointCategory.ATTRIBUTE).render() == "0.9"
    assert table.signature_level(SpecificityLevel.FULLY_QUALIFIED).render() == "0.2"


def test_two_decimal_override_switches_scale(tmp_path: Path):
    path = write_config(tmp_path, {"advice": {"around": 0.25}})
    table = load_weight_overrides(path)
    assert table.scale == 100
    assert table.advice(AdviceKind.AROUND).render() == "0.25"
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
    assert table.joinpoint(JoinPointCategory.CONTROL_FLOW).is_zero()
