from __future__ import annotations

import copy
import json
import shutil
from pathlib import Path

import pytest

import aometrics.cli as cli
from aometrics import ScanMode, default_weights, measure_version, parse_source, scan_corpus
from aometrics.cli import _decode_source, main
from aometrics.report import write_json, write_log
from helpers import MINI_UAS, MINI_UAS_ORDER, TEST_FIXTURES


def test_scan_lists_files(capsys):
    code = main(["scan", str(MINI_UAS / "J1.0")])
    out = capsys.readouterr().out
    assert code == 0
    assert "VERSION J1.0 (9 files)" in out
    assert "Course.java [java]" in out


def test_scan_versions_root(capsys):
    code = main(["scan", str(MINI_UAS), "--versions-root"])
    out = capsys.readouterr().out
    assert code == 0
    for vid in MINI_UAS_ORDER:
        assert f"VERSION {vid}" in out


def test_measure_writes_reports(tmp_path: Path, capsys):
    code = main(["measure", str(MINI_UAS / "J1.0"), "--out", str(tmp_path)])
    out = capsys.readouterr().out
    assert code == 0
    assert (tmp_path / "J1.0.log").is_file()
    assert (tmp_path / "J1.0.json").is_file()
    assert (tmp_path / "J1.0.csv").is_file()
    assert "J1.0" in out and "NA" in out
    payload = json.loads((tmp_path / "J1.0.json").read_text(encoding="utf-8"))
    assert payload["wmca"] == 31


def test_measure_missing_root(tmp_path: Path, capsys):
    code = main(["measure", str(tmp_path / "nope"), "--out", str(tmp_path)])
    err = capsys.readouterr().err
    assert code == 1
    assert "error:" in err


def test_measure_reruns_byte_identical(tmp_path: Path):
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    main(["measure", str(MINI_UAS / "AJ1.2"), "--out", str(out1)])
    main(["measure", str(MINI_UAS / "AJ1.2"), "--out", str(out2)])
    for name in ("AJ1.2.log", "AJ1.2.json", "AJ1.2.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_measure_strict_exits_1_on_corrupt(tmp_path: Path, capsys):
    corrupt = TEST_FIXTURES / "corrupt" / "V"
    code = main(["measure", str(corrupt), "--strict", "--out", str(tmp_path)])
    captured = capsys.readouterr()
    assert code == 1
    assert "parse errors" in captured.err


def test_measure_non_strict_excludes_corrupt(tmp_path: Path, capsys):
    corrupt = TEST_FIXTURES / "corrupt" / "V"
    code = main(["measure", str(corrupt), "--out", str(tmp_path)])
    captured = capsys.readouterr()
    assert code == 0
    assert "excluded" in captured.err
    payload = json.loads((tmp_path / "V.json").read_text(encoding="utf-8"))
    assert payload["wmca"] == 2  # Good.java only
    assert payload["class_count"] == 1


def test_measure_format_selection(tmp_path: Path):
    code = main(
        [
            "measure",
            str(MINI_UAS / "AJ1.1"),
            "--out",
            str(tmp_path),
            "--format",
            "json",
            "--format",
            "table",
        ]
    )
    assert code == 0
    assert (tmp_path / "AJ1.1.json").is_file()
    assert (tmp_path / "AJ1.1.txt").is_file()
    assert not (tmp_path / "AJ1.1.log").exists()
    assert not (tmp_path / "AJ1.1.csv").exists()


def test_measure_with_weight_overrides(tmp_path: Path, capsys):
    config = tmp_path / "weights.json"
    config.write_text(json.dumps({"advice": {"before": 0.3}}), encoding="utf-8")
    code = main(
        [
            "measure",
            str(TEST_FIXTURES / "one_aspect" / "V1"),
            "--weights",
            str(config),
            "--out",
            str(tmp_path),
        ]
    )
    out = capsys.readouterr().out
    assert code == 0
    payload = json.loads((tmp_path / "V1.json").read_text(encoding="utf-8"))
    assert payload["waa"] == "0.3"
    assert "0.3" in out


def test_measure_bad_weight_config(tmp_path: Path, capsys):
    config = tmp_path / "weights.json"
    config.write_text(json.dumps({"advice": {"befor": 0.3}}), encoding="utf-8")
    code = main(
        [
            "measure",
            str(MINI_UAS / "J1.0"),
            "--weights",
            str(config),
            "--out",
            str(tmp_path),
        ]
    )
    assert code == 1
    assert "befor" in capsys.readouterr().err


def test_compare_versions_root_with_order(tmp_path: Path, capsys):
    code = main(
        [
            "compare",
            "--versions-root",
            str(MINI_UAS),
            "--order",
            *MINI_UAS_ORDER,
            "--out",
            str(tmp_path),
        ]
    )
    out = capsys.readouterr().out
    assert code == 0
    lines = out.splitlines()
    assert lines[1].startswith("J1.0")
    assert lines[5].startswith("AJ1.4")
    assert "TREND WPA increasing" in out
    assert (tmp_path / "comparison.json").is_file()
    assert (tmp_path / "comparison.csv").is_file()
    payload = json.loads((tmp_path / "comparison.json").read_text(encoding="utf-8"))
    assert [v["version_id"] for v in payload["versions"]] == MINI_UAS_ORDER


def test_compare_explicit_roots(tmp_path: Path, capsys):
    code = main(
        [
            "compare",
            str(MINI_UAS / "J1.0"),
            str(MINI_UAS / "AJ1.1"),
            "--out",
            str(tmp_path),
        ]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert out.splitlines()[1].startswith("J1.0")


def test_compare_too_few_roots_is_usage_error(tmp_path: Path):
    with pytest.raises(SystemExit) as exc:
        main(["compare", str(MINI_UAS / "J1.0"), "--out", str(tmp_path)])
    assert exc.value.code == 2


def test_compare_unknown_order_id(tmp_path: Path, capsys):
    code = main(
        [
            "compare",
            "--versions-root",
            str(MINI_UAS),
            "--order",
            "J1.0",
            "nope",
            "--out",
            str(tmp_path),
        ]
    )
    assert code == 1
    assert "nope" in capsys.readouterr().err


def test_usage_error_is_exit_2():
    with pytest.raises(SystemExit) as exc:
        main(["measure"])  # missing root
    assert exc.value.code == 2


def test_compare_reruns_byte_identical(tmp_path: Path):
    args = [
        "compare",
        "--versions-root",
        str(MINI_UAS),
        "--order",
        *MINI_UAS_ORDER,
    ]
    main(args + ["--out", str(tmp_path / "a")])
    main(args + ["--out", str(tmp_path / "b")])
    for name in ("comparison.json", "comparison.csv"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_measure_warns_once_on_invalid_utf8_and_still_measures(tmp_path: Path, capsys):
    legacy = TEST_FIXTURES / "latin1" / "V"
    with pytest.raises(UnicodeDecodeError):
        (legacy / "Legacy.java").read_bytes().decode("utf-8")
    code = main(["measure", str(legacy), "--out", str(tmp_path)])
    err = capsys.readouterr().err
    assert code == 0
    assert err.splitlines() == [
        f"{legacy / 'Legacy.java'}:0: warning: invalid UTF-8 replaced with U+FFFD"
    ]
    payload = json.loads((tmp_path / "V.json").read_text(encoding="utf-8"))
    assert payload["wmca"] == 1


def test_read_source_decodes_like_read_text(tmp_path: Path):
    path = tmp_path / "Mixed.java"
    path.write_bytes("class Café {\r\n int a;\r int b;\n}".encode("utf-8"))
    assert _decode_source(path.read_bytes()) == (path.read_text(encoding="utf-8"), False)
    path.write_bytes(b"class A {\r\n // \xe9\r}")
    assert _decode_source(path.read_bytes()) == ("class A {\n // \ufffd\n}", True)


_TRACING_ASPECT = """\
aspect Tracing {
    pointcut broken(): execution(* );
    after(): broken();
}
"""


def _shared_content_tree(root: Path) -> list[Path]:
    """Two versions sharing three byte-identical files, each with a diagnostic.

    ``Legacy.java`` gets the invalid-UTF-8 warning, ``Broken.java`` is
    excluded for parse errors and ``Tracing.aj`` draws a parse warning and
    a metric warning. One more file differs between the versions.
    """
    versions = [root / "V1", root / "V2"]
    for version in versions:
        version.mkdir(parents=True)
        shutil.copy(TEST_FIXTURES / "latin1" / "V" / "Legacy.java", version)
        shutil.copy(TEST_FIXTURES / "corrupt" / "V" / "Broken.java", version)
        (version / "Tracing.aj").write_text(_TRACING_ASPECT, encoding="utf-8")
    shutil.copy(TEST_FIXTURES / "corrupt" / "V" / "Good.java", versions[0])
    (versions[1] / "Other.java").write_text("class Other { int a; void f() {} }\n")
    return versions


def test_compare_parses_each_distinct_content_once(tmp_path: Path, monkeypatch):
    roots = _shared_content_tree(tmp_path / "corpus")
    calls = []

    def counting_parse_source(text, file):
        calls.append(file.path.name)
        return parse_source(text, file)

    monkeypatch.setattr(cli, "parse_source", counting_parse_source)
    code = main(["compare", *map(str, roots), "--out", str(tmp_path / "out")])
    assert code == 0
    assert sorted(calls) == [
        "Broken.java", "Good.java", "Legacy.java", "Other.java", "Tracing.aj"
    ]


def test_compare_reports_shared_diagnostics_once_per_version(tmp_path: Path, capsys):
    roots = _shared_content_tree(tmp_path / "corpus")
    expected = []
    for root in roots:
        assert main(["measure", str(root), "--out", str(tmp_path / root.name)]) == 0
        expected.extend(capsys.readouterr().err.splitlines())

    assert main(["compare", *map(str, roots), "--out", str(tmp_path / "out")]) == 0
    err = capsys.readouterr().err.splitlines()
    assert err == expected
    for root in roots:
        for line in (
            f"{root / 'Legacy.java'}:0: warning: invalid UTF-8 replaced with U+FFFD",
            f"{root / 'Broken.java'}:0: warning: file excluded from metrics (parse errors)",
            f"{root / 'Tracing.aj'}:3: warning: after advice without a body",
            f"{root / 'Tracing.aj'}:2: warning: malformed execution signature: "
            "missing parameter list",
        ):
            assert err.count(line) == 1, line
    assert "Traceback" not in "\n".join(err)


def test_compare_payloads_match_fresh_single_version_parses(tmp_path: Path, capsys):
    roots = _shared_content_tree(tmp_path / "corpus")
    assert main(["compare", *map(str, roots), "--out", str(tmp_path / "out")]) == 0
    capsys.readouterr()
    payload = json.loads((tmp_path / "out" / "comparison.json").read_text(encoding="utf-8"))
    for root, reported in zip(roots, payload["versions"]):
        (version,) = scan_corpus(root, ScanMode.SINGLE_VERSION)
        units = [
            parse_source(_decode_source(ref.path.read_bytes())[0], ref) for ref in version.files
        ]
        fresh = measure_version(version, units, default_weights())
        assert reported == json.loads(write_json(fresh))


def test_shared_declarations_survive_measuring_and_logging(tmp_path: Path):
    roots = _shared_content_tree(tmp_path / "corpus")
    versions = [scan_corpus(root, ScanMode.SINGLE_VERSION)[0] for root in roots]
    parsed = {}
    first = cli._parse_version(versions[0], parsed)
    snapshot = copy.deepcopy([(u.classes, u.aspects, u.parse_diagnostics) for u in first])
    second = cli._parse_version(versions[1], parsed)

    shared = {u.file.path.name: u for u in first}
    for unit in second:
        if unit.file.path.name in ("Legacy.java", "Broken.java", "Tracing.aj"):
            original = shared[unit.file.path.name]
            assert unit.classes is original.classes
            assert unit.aspects is original.aspects
            assert [d.file for d in unit.parse_diagnostics] == [
                str(unit.file.path)
            ] * len(original.parse_diagnostics)

    for version, units in zip(versions, (first, second)):
        metrics = measure_version(version, units, default_weights())
        write_log([u for u in units if not u.has_errors], metrics)
    assert [(u.classes, u.aspects, u.parse_diagnostics) for u in first] == snapshot


def test_wide_or_pointcut_measures_without_traceback(tmp_path: Path, capsys):
    width = 1200
    primitives = [f"call(void app.Service.m{i}(int))" for i in range(width)]
    expression = " || ".join(primitives)
    version = tmp_path / "V"
    version.mkdir()
    (version / "Wide.aj").write_text(
        "aspect Wide {\n"
        f"    pointcut wide(): {expression};\n"
        "    before(): wide() { }\n"
        "}\n",
        encoding="utf-8",
    )
    code = main(["measure", str(version), "--out", str(tmp_path / "out")])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.err == ""
    payload = json.loads((tmp_path / "out" / "V.json").read_text(encoding="utf-8"))
    # Each primitive: call 0.2 + fully qualified signature 0.1.
    assert payload["wpa"] == f"{width * 3 // 10}.0"
    # One declared pointcut: particular_method 0.6 + boolean_or_combined 1.0.
    assert payload["wjp"] == "1.6"
    log = (tmp_path / "out" / "V.log").read_text(encoding="utf-8")
    assert f"  POINTCUT wide: {expression}\n" in log


def test_chain_of_named_pointcuts_measures_without_traceback(tmp_path: Path, capsys):
    length = 1000
    links = [f"    pointcut p{i}(): p{i + 1}();\n" for i in range(length)]
    version = tmp_path / "V"
    version.mkdir()
    (version / "Chain.aj").write_text(
        "aspect Chain {\n"
        + "".join(links)
        + f"    pointcut p{length}(): execution(* uas.A.f(..));\n"
        "}\n",
        encoding="utf-8",
    )
    code = main(["measure", str(version), "--out", str(tmp_path / "out")])
    captured = capsys.readouterr()
    assert code == 0
    assert "Traceback" not in captured.err
    payload = json.loads((tmp_path / "out" / "V.json").read_text(encoding="utf-8"))
    # Only the last pointcut has a designator: execution 0.1 + wildcard return 0.3.
    assert payload["wpa"] == "0.4"
    # Every one of the 1001 pointcuts reaches method_execution 0.1.
    assert payload["wjp"] == "100.1"


def test_fault_in_referenced_pointcut_is_reported_once(tmp_path: Path, capsys):
    version = tmp_path / "V"
    version.mkdir()
    (version / "A.aj").write_text(
        "aspect A {\n"
        "    pointcut p(): execution(* );\n"
        "    pointcut q(): p();\n"
        "    before(): p() && within(uas.A) {}\n"
        "}\n",
        encoding="utf-8",
    )
    assert main(["measure", str(version), "--out", str(tmp_path / "out")]) == 0
    assert capsys.readouterr().err.splitlines() == [
        f"{version / 'A.aj'}:2: warning: malformed execution signature: missing parameter list"
    ]
