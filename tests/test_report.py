from __future__ import annotations

import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from aometrics import (
    TooFewVersions,
    compare_versions,
    default_weights,
    load_weight_overrides,
    measure_version,
    parse_source,
)
from aometrics.metrics import VersionMetrics
from aometrics.report import _json, render_table, render_trends, write_csv, write_json, write_log
from helpers import GOLDEN, MINI_UAS, MINI_UAS_ORDER, TEST_FIXTURES, measure_dir, parse_version_dir

W = default_weights()


def _empty_version(version_id="empty"):
    return measure_version(version_id, [], W)


def _metrics_with(version_id: str, wmca: int, na: int = 0, nc: int = 0) -> VersionMetrics:
    units = []
    for i in range(nc):
        attrs = "".join(f"int a{j}; " for j in range(na // nc if nc else 0))
        methods = "".join(f"void m{j}() {{}} " for j in range(wmca // nc if nc else 0))
        units.append(parse_source(f"class K{i} {{ {attrs}{methods}}}", f"K{i}.java"))
    m = measure_version(version_id, units, W)
    return m


def test_log_empty_version():
    log = write_log([], _empty_version())
    assert log == (
        "METRIC WPA 0.0\n"
        "METRIC WAA 0.0\n"
        "METRIC WJP 0.0\n"
        "METRIC WMCA 0\n"
        "METRIC NAC NA\n"
    )


def test_log_matches_golden_one_aspect():
    version, units = parse_version_dir(TEST_FIXTURES / "one_aspect" / "V1")
    metrics = measure_version(version, units, W)
    log = write_log(units, metrics)
    golden = (GOLDEN / "one_aspect.log").read_text(encoding="utf-8")
    expected = golden.replace("{ROOT}", str(version.root))
    assert log == expected


def test_log_inline_advice_lists_joinpoints():
    unit = parse_source(
        "aspect A { after() throwing: execution(* uas.D.store(..)) && within(uas.D) {} }",
        "A.aj",
    )
    metrics = measure_version("v", [unit], W)
    log = write_log([unit], metrics)
    assert "  ADVICE after_throwing: execution(* uas.D.store(..)) && within(uas.D)" in log
    assert "    JOINPOINT method_execution" in log
    assert "    JOINPOINT particular_class" in log
    assert "    JOINPOINT boolean_or_combined" in log


def test_log_values_equal_metrics_fields():
    version, units = parse_version_dir(MINI_UAS / "J1.0")
    metrics = measure_version(version, units, W)
    log = write_log(units, metrics)
    assert "METRIC WPA 0.0" in log
    assert "METRIC NAC 9.583" in log
    assert f"METRIC WMCA {metrics.wmca}" in log


def test_json_deterministic():
    m = measure_dir(MINI_UAS / "AJ1.2")
    assert write_json(m) == write_json(m)


def test_json_round_trip():
    m = measure_dir(MINI_UAS / "AJ1.3")
    text = write_json(m)
    assert json.dumps(json.loads(text), indent=2) + "\n" == text


_JSON_TEXT = st.text(
    st.characters(exclude_categories=())  # lone surrogates included
    | st.sampled_from('"\\\x7f\x00\x1f\n\ud800\udcfe\U0001f600\u00e9'),
    max_size=8,
)
_JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.sampled_from([2**64, 2**64 + 1, -(2**64) - 1, 10**40])
    | _JSON_TEXT,
    lambda children: st.lists(children, max_size=4) | st.dictionaries(_JSON_TEXT, children, max_size=4),
    max_leaves=16,
)


@settings(max_examples=300, deadline=None)
@given(_JSON_VALUES)
@example({"a": [], "b": {}, "c": [{}, []], "": [[{"d": None}]]})
def test_json_emitter_equals_json_dumps_indent_2(value):
    assert _json(value, "\n") == json.dumps(value, indent=2)


@pytest.mark.parametrize("value", [1.5, (1, 2), {"a": [0.0]}, [{"b": ("x",)}]])
def test_json_emitter_rejects_floats_and_tuples(value):
    with pytest.raises(TypeError):
        _json(value, "\n")


def test_json_aspect_free_flags():
    m = measure_dir(MINI_UAS / "J1.0")
    payload = json.loads(write_json(m))
    assert payload["aspect_free"] is True
    assert payload["wpa"] == "0.0"
    assert payload["nac"] == {"num": 115, "den": 12, "rendered": "9.583"}


def test_json_matches_golden_aj11():
    m = measure_dir(MINI_UAS / "AJ1.1")
    golden = (GOLDEN / "AJ1.1.json").read_text(encoding="utf-8")
    assert write_json(m) == golden


def test_table_shows_na_for_aspect_free():
    table = render_table([measure_dir(MINI_UAS / "J1.0")])
    lines = table.splitlines()
    assert lines[0].split() == ["Version", "WMCA", "NAC", "WPA", "WAA", "WJP"]
    assert lines[1].split() == ["J1.0", "31", "9.583", "NA", "NA", "NA"]


def test_table_row_count():
    reports = [measure_dir(MINI_UAS / v) for v in ("J1.0", "AJ1.1")]
    table = render_table(reports)
    assert len(table.splitlines()) == 3


def test_table_matches_golden_five_versions():
    reports = [measure_dir(MINI_UAS / v) for v in ("J1.0", "AJ1.1", "AJ1.2", "AJ1.3", "AJ1.4")]
    golden = (GOLDEN / "mini_uas_table.txt").read_text(encoding="utf-8")
    assert render_table(reports) == golden


def test_csv_shape():
    m = measure_dir(MINI_UAS / "AJ1.1")
    csv_text = write_csv([m])
    lines = csv_text.splitlines()
    assert lines[0] == "version,wmca,nac,wpa,waa,wjp"
    assert lines[1] == "AJ1.1,29,9.333,2.0,0.5,3.7"


def test_csv_na_literals():
    csv_text = write_csv([measure_dir(MINI_UAS / "J1.0")])
    assert csv_text.splitlines()[1] == "J1.0,31,9.583,NA,NA,NA"


def test_compare_requires_two():
    with pytest.raises(TooFewVersions):
        compare_versions([_empty_version()])


def test_compare_delta_and_trend_increasing():
    a = _metrics_with("v1", wmca=14, nc=2, na=2)
    b = _metrics_with("v2", wmca=20, nc=2, na=2)
    report = compare_versions([a, b])
    entries = report.deltas["wmca"]
    assert entries[0]["delta"] is None
    assert entries[1]["delta"] == "+6"
    assert report.trends["wmca"] == "increasing"


def test_compare_identical_versions_flat():
    a = _metrics_with("v1", wmca=4, nc=2, na=4)
    b = _metrics_with("v2", wmca=4, nc=2, na=4)
    report = compare_versions([a, b])
    assert all(e["delta"] in (None, "0", "0.0", "0.000") for entries in report.deltas.values() for e in entries)
    assert set(report.trends.values()) == {"flat"}


def test_compare_mini_uas_deltas_match_manifests():
    reports = [measure_dir(MINI_UAS / v) for v in ("J1.0", "AJ1.1", "AJ1.2", "AJ1.3", "AJ1.4")]
    report = compare_versions(reports)
    wmca = [e["delta"] for e in report.deltas["wmca"]]
    assert wmca == [None, "-2", "+2", "+2", "+2"]
    assert report.trends["wmca"] == "mixed"
    wpa = [e["delta"] for e in report.deltas["wpa"]]
    assert wpa == [None, "+2.0", "+1.6", "+0.2", "+2.2"]
    assert report.trends["wpa"] == "increasing"
    nac = [e["delta"] for e in report.deltas["nac"]]
    assert nac == [None, "-0.250", "-0.256", "-0.291", "-0.319"]
    assert report.trends["nac"] == "decreasing"


def test_comparison_json_round_trip():
    reports = [measure_dir(MINI_UAS / v) for v in ("J1.0", "AJ1.1")]
    text = write_json(compare_versions(reports))
    assert json.dumps(json.loads(text), indent=2) + "\n" == text
    payload = json.loads(text)
    assert payload["schema"] == "ao-metrics-comparison@1"
    assert [v["version_id"] for v in payload["versions"]] == ["J1.0", "AJ1.1"]


def test_trend_rendering():
    reports = [measure_dir(MINI_UAS / v) for v in ("J1.0", "AJ1.1")]
    text = render_trends(compare_versions(reports))
    assert "TREND WMCA decreasing" in text
    assert "TREND WPA increasing" in text


# -- number formats --------------------------------------------------------


def _version(version_id: str, attributes=0, classes=0, methods=0, advices=0) -> VersionMetrics:
    """``classes`` classes, the first holding the attributes and methods; one aspect of ``advices`` advices."""
    units = []
    if classes:
        first = "".join(f"int a{j}; " for j in range(attributes))
        first += "".join(f"void m{j}() {{}} " for j in range(methods))
        rest = "".join(f" class K{i} {{}}" for i in range(1, classes))
        units.append(parse_source(f"class K0 {{ {first}}}{rest}", "K.java"))
    if advices:
        units.append(parse_source("aspect A { " + "before(): execution(* a.B.m()) {} " * advices + "}", "A.aj"))
    return measure_version(version_id, units, W)


def _series(reports: list[VersionMetrics], metric: str, field: str) -> list:
    payload = json.loads(write_json(compare_versions(reports)))
    return [entry[field] for entry in payload["deltas"][metric]]


def _seven_versions() -> list[VersionMetrics]:
    # (attributes, classes): 1/16 and 5/16 are ties, 3/16 and 7/16 are not,
    # 1/50 and 1/51 differ by less than half a thousandth.
    return [
        _version("v1", 1, 16, methods=3, advices=1),
        _version("v2", 3, 16, methods=5, advices=5),
        _version("v3", 1, 50, methods=5, advices=5),
        _version("v4", 1, 51, methods=4, advices=1),
        _version("v5"),
        _version("v6", 5, 16, methods=2),
        _version("v7", 7, 16, methods=2, advices=2),
    ]


def test_nac_values_round_ties_to_even_and_deltas_keep_the_sign_of_the_exact_value():
    reports = _seven_versions()
    assert _series(reports, "nac", "value") == ["0.062", "0.188", "0.020", "0.020", "NA", "0.312", "0.438"]
    assert _series(reports, "nac", "delta") == [None, "+0.125", "-0.168", "-0.000", None, None, "+0.125"]
    reports[2], reports[3] = reports[3], reports[2]
    assert _series(reports, "nac", "delta") == [None, "+0.125", "-0.168", "+0.000", None, None, "+0.125"]
    assert [m.nac_rendered() for m in reports] == ["0.062", "0.188", "0.020", "0.020", "NA", "0.312", "0.438"]


def test_equal_nac_ratios_of_different_counts_give_a_zero_delta_and_a_flat_trend():
    reports = [_version("v1", attributes=2, classes=4), _version("v2", attributes=1, classes=2)]
    assert [(m.class_attribute_count, m.class_count) for m in reports] == [(2, 4), (1, 2)]
    assert _series(reports, "nac", "value") == ["0.500", "0.500"]
    assert _series(reports, "nac", "delta") == [None, "0.000"]
    assert compare_versions(reports).trends["nac"] == "flat"


def test_wmca_and_weight_deltas_sign_only_a_nonzero_value():
    reports = _seven_versions()
    assert _series(reports, "wmca", "value") == ["3", "5", "5", "4", "0", "2", "2"]
    assert _series(reports, "wmca", "delta") == [None, "+2", "0", "-1", "-4", "+2", "0"]
    for metric in ("waa", "wjp"):
        assert _series(reports, metric, "value") == ["0.1", "0.5", "0.5", "0.1", "0.0", "0.0", "0.2"]
        assert _series(reports, metric, "delta") == [None, "+0.4", "0.0", "-0.4", "-0.1", "0.0", "+0.2"]
    assert _series(reports, "wpa", "delta") == [None, *["0.0"] * 6]
    report = compare_versions(reports)
    assert report.trends == {"wmca": "mixed", "nac": "mixed", "wpa": "flat", "waa": "mixed", "wjp": "mixed"}


def test_hundredths_compare_of_mini_uas_renders_two_decimal_deltas(tmp_path):
    config = tmp_path / "hundredths.json"
    config.write_text(
        '{"designator": {"execution": 0.15}, "advice": {"around": 0.25},'
        ' "joinpoint_type": {"boolean_or_combined": 1.05},'
        ' "signature_level": {"wildcard_or_unqualified_class": 0.45}}',
        encoding="utf-8",
    )
    table = load_weight_overrides(config)
    reports = [measure_dir(MINI_UAS / v, table) for v in MINI_UAS_ORDER]
    assert _series(reports, "wpa", "value") == ["0.00", "2.00", "3.65", "3.90", "6.05"]
    assert _series(reports, "wpa", "delta") == [None, "+2.00", "+1.65", "+0.25", "+2.15"]
    assert _series(reports, "waa", "delta") == [None, "+0.55", "+0.45", "+0.20", "+0.10"]
    assert _series(reports, "wjp", "delta") == [None, "+3.80", "+4.60", "+6.10", "+1.75"]
    assert _series(reports, "wmca", "delta") == [None, "-2", "+2", "+2", "+2"]
    assert _series(reports, "nac", "delta") == [None, "-0.250", "-0.256", "-0.291", "-0.319"]
