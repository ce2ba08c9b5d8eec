from __future__ import annotations

import json
from pathlib import Path

import pytest

from aometrics.cli import _read_source, main
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
    assert _read_source(path) == (path.read_text(encoding="utf-8"), False)
    path.write_bytes(b"class A {\r\n // \xe9\r}")
    assert _read_source(path) == ("class A {\n // \ufffd\n}", True)
