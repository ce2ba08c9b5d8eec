from __future__ import annotations

import copy
import gc
import importlib
import json
import os
import shutil
import socket
import subprocess
import sys
from pathlib import Path

import pytest

import aometrics.cli as cli
import aometrics.metrics
from aometrics import (
    ScanMode,
    VersionRef,
    default_weights,
    load_weight_overrides,
    measure_version,
    parse_source,
    scan_corpus,
)
from aometrics.cli import _decode_source, main
from aometrics.pointcuts import extract_signature_pattern
from aometrics.report import write_json, write_log
from helpers import (
    MINI_UAS,
    MINI_UAS_ORDER,
    REPO_ROOT,
    TEST_FIXTURES,
    kinded_primitives,
    parse_version_dir,
)


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


def test_compare_table_format_writes_the_table_it_prints(tmp_path: Path, capsys):
    args = ["compare", "--versions-root", str(MINI_UAS), "--order", *MINI_UAS_ORDER]
    code = main([*args, "--format", "table", "--out", str(tmp_path)])
    out = capsys.readouterr().out
    assert code == 0
    assert [p.name for p in tmp_path.iterdir()] == ["comparison.txt"]
    table = (tmp_path / "comparison.txt").read_text(encoding="utf-8")
    assert table.splitlines() == out.splitlines()[: 1 + len(MINI_UAS_ORDER)]
    assert out.startswith(table)


def test_compare_format_log_is_a_usage_error(tmp_path: Path, capsys):
    # compare writes no log, so it does not accept the format.
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main(["compare", "--versions-root", str(MINI_UAS), "--format", "log", "--out", str(out)])
    captured = capsys.readouterr()
    assert exc.value.code == 2
    assert "argument --format: invalid choice: 'log'" in captured.err
    assert captured.out == ""
    assert not out.exists()


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
        calls.append(Path(file).name)
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
            parse_source(_decode_source(ref.path.read_bytes())[0], ref.label) for ref in version.files
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

    shared = {Path(u.file).name: u for u in first}
    for unit in second:
        if Path(unit.file).name in ("Legacy.java", "Broken.java", "Tracing.aj"):
            original = shared[Path(unit.file).name]
            assert unit.classes is original.classes
            assert unit.aspects is original.aspects
            assert [d.file for d in unit.parse_diagnostics] == [
                str(Path(unit.file))
            ] * len(original.parse_diagnostics)

    for version, units in zip(versions, (first, second)):
        metrics = measure_version(version, units, default_weights())
        write_log([u for u in units if not u.has_errors], metrics)
    assert [(u.classes, u.aspects, u.parse_diagnostics) for u in first] == snapshot


def test_compare_extracts_signatures_of_repeated_contents_once(tmp_path: Path, monkeypatch):
    roots = [tmp_path / "V1", tmp_path / "V2"]
    for root in roots:
        shutil.copytree(MINI_UAS / "AJ1.4", root)
    calls = []

    def counting_extract(primitive, **kwargs):
        calls.append(primitive)
        return extract_signature_pattern(primitive, **kwargs)

    monkeypatch.setattr(aometrics.metrics, "extract_signature_pattern", counting_extract)
    assert main(["compare", *map(str, roots), "--out", str(tmp_path / "out")]) == 0
    _, units = parse_version_dir(roots[0])
    assert len(calls) == kinded_primitives(units) > 0


_WARNING_ASPECT = """\
aspect W {
    pointcut p(): handler(E);
    pointcut p(): within(X);
    pointcut q(): call(* f);
    before(): missing() && p() {}
}
"""


def test_classification_warnings_of_a_repeated_content_name_each_file(
    tmp_path: Path, capsys
):
    roots = [tmp_path / "V1", tmp_path / "V2"]
    for root in roots:
        for sub in ("a", "b"):
            (root / sub).mkdir(parents=True)
            (root / sub / "W.aj").write_text(_WARNING_ASPECT, encoding="utf-8")
    assert main(["compare", *map(str, roots), "--out", str(tmp_path / "out")]) == 0
    expected = []
    for root in roots:
        for sub in ("a", "b"):
            path = root / sub / "W.aj"
            expected += [
                f"{path}:3: warning: duplicate pointcut 'p' in 'W'; references resolve"
                " to the last one",
                f"{path}:4: warning: malformed call signature: missing parameter list",
                f"{path}:5: warning: unresolved pointcut reference 'missing'",
            ]
    assert capsys.readouterr().err.splitlines() == expected


def test_shared_units_measure_under_each_table(tmp_path: Path):
    roots = _shared_content_tree(tmp_path / "corpus")
    (roots[0] / "Copy.aj").write_text(_TRACING_ASPECT, encoding="utf-8")
    weights = tmp_path / "hundredths.json"
    weights.write_text('{"designator": {"execution": 0.15}}', encoding="utf-8")
    tables = [default_weights(), load_weight_overrides(weights)]
    versions = [scan_corpus(root, ScanMode.SINGLE_VERSION)[0] for root in roots]
    parsed = {}
    shared = [cli._parse_version(version, parsed) for version in versions]
    results = []
    for version, units in zip(versions, shared):
        # Each file alone: no unit shares declarations or a cache with another.
        fresh = [
            cli._parse_version(VersionRef(version.id, version.root, (ref,)), {})[0]
            for ref in version.files
        ]
        for table in tables:
            metrics = measure_version(version, units, table)
            expected = measure_version(version, fresh, table)
            assert write_json(metrics) == write_json(expected)
            assert metrics.diagnostics == expected.diagnostics
            results.append(metrics)
    # V1 holds two copies of a pointcut whose only weight is execution.
    assert [m.wpa.render() for m in results] == ["0.2", "0.30", "0.1", "0.15"]


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


def test_compare_rejects_a_repeated_order_id(tmp_path: Path, capsys):
    code = main(
        [
            "compare",
            "--versions-root",
            str(MINI_UAS),
            "--order",
            "J1.0",
            "AJ1.1",
            "J1.0",
            "AJ1.1",
            "J1.0",
            "--out",
            str(tmp_path / "out"),
        ]
    )
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err == "error: repeated version id(s) in --order: J1.0, AJ1.1\n"
    assert captured.out == ""
    assert not (tmp_path / "out").exists()


def _one_version(root: Path) -> Path:
    version = root / "V"
    version.mkdir(parents=True)
    (version / "A.java").write_text("class A { int x; }\n", encoding="utf-8")
    return version


def test_out_naming_an_existing_file_is_exit_1(tmp_path: Path, capsys):
    version = _one_version(tmp_path)
    out = tmp_path / "taken"
    out.write_text("", encoding="utf-8")
    code = main(["measure", str(version), "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith(f"error: cannot write {out / 'V.log'}: ")
    assert len(err.splitlines()) == 1
    assert "Traceback" not in err


def test_compare_with_versions_root_and_explicit_roots_is_usage_error(tmp_path: Path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(
            [
                "compare",
                str(MINI_UAS / "J1.0"),
                str(MINI_UAS / "AJ1.1"),
                "--versions-root",
                str(MINI_UAS),
                "--out",
                str(tmp_path),
            ]
        )
    err = capsys.readouterr().err
    assert exc.value.code == 2
    assert "give either --versions-root or explicit version roots, not both" in err
    assert "Traceback" not in err


def test_versions_root_with_a_single_version_is_exit_1(tmp_path: Path, capsys):
    _one_version(tmp_path / "versions")
    code = main(["compare", "--versions-root", str(tmp_path / "versions"), "--out", str(tmp_path)])
    err = capsys.readouterr().err
    assert code == 1
    assert err == "error: need at least 2 versions, found 1\n"


@pytest.mark.parametrize(
    ("payload", "message"),
    [
        ([1, 2], "top level must be an object"),
        ({"advice": [0.3]}, "advice: expected an object of name -> weight"),
    ],
)
def test_weight_file_of_the_wrong_shape_is_exit_1(tmp_path: Path, capsys, payload, message):
    config = tmp_path / "weights.json"
    config.write_text(json.dumps(payload), encoding="utf-8")
    version = _one_version(tmp_path)
    code = main(["measure", str(version), "--weights", str(config), "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: ") and message in err
    assert len(err.splitlines()) == 1
    assert not (tmp_path / "o").exists()


def test_measure_skips_a_socket_named_like_a_source_file(tmp_path: Path, capsys):
    version = tmp_path / "V"
    version.mkdir()
    (version / "A.java").write_text("class A { int x; }")
    if not hasattr(socket, "AF_UNIX"):
        pytest.skip("no UNIX sockets on this platform")
    sock = socket.socket(socket.AF_UNIX)
    try:
        sock.bind(str(version / "B.java"))
    except OSError as exc:
        sock.close()
        pytest.skip(f"cannot bind a UNIX socket here: {exc}")
    try:
        code = main(["measure", str(version), "--out", str(tmp_path / "out")])
    finally:
        sock.close()
    assert (code, capsys.readouterr().err) == (0, "")
    assert json.loads((tmp_path / "out" / "V.json").read_text(encoding="utf-8"))["class_count"] == 1


def test_a_file_that_cannot_be_read_is_an_error_at_line_0(tmp_path: Path, capsys, monkeypatch):
    version = tmp_path / "V"
    version.mkdir()
    (version / "A.java").write_text("class A { int x; }")
    (version / "B.java").write_text("class B { int y; }")

    def failing_open(file, *args, **kwargs):
        if Path(file).name == "B.java":
            raise PermissionError(13, "Permission denied", str(file))
        return open(file, *args, **kwargs)

    monkeypatch.setattr(cli, "open", failing_open, raising=False)
    code = main(["measure", str(version), "--out", str(tmp_path / "out")])
    assert code == 0
    assert capsys.readouterr().err.splitlines() == [
        f"{version / 'B.java'}:0: error: cannot read file: Permission denied",
        f"{version / 'B.java'}:0: warning: file excluded from metrics (parse errors)",
    ]
    assert json.loads((tmp_path / "out" / "V.json").read_text(encoding="utf-8"))["class_count"] == 1
    code = main(["measure", str(version), "--strict", "--out", str(tmp_path / "out")])
    assert code == 1
    assert capsys.readouterr().err.splitlines()[-1] == (
        f"error: parse errors in strict mode: {version / 'B.java'}"
    )


def _not_utf8(raw: bytes, make) -> str:
    """The name of bytes ``raw`` after ``make(name)`` made it; skips where that cannot be done."""
    name = os.fsdecode(raw)
    if os.fsencode(name) != raw or name == raw.decode("latin-1"):
        pytest.skip("the file system encoding decodes this name")
    try:
        make(name)
    except (OSError, UnicodeError) as exc:
        pytest.skip(f"cannot create a name that is not UTF-8: {exc}")
    return name


def test_the_log_keeps_a_file_name_that_is_not_utf8(tmp_path: Path):
    version = tmp_path / "V"
    version.mkdir()
    _not_utf8(b"\xff.java", lambda name: (version / name).write_text("class A { int x; }"))
    assert main(["measure", str(version), "--out", str(tmp_path / "out")]) == 0
    assert b"/V/\xff.java" in (tmp_path / "out" / "V.log").read_bytes()


def test_the_csv_keeps_a_version_name_that_is_not_utf8(tmp_path: Path):
    root = tmp_path / "root"
    (root / "v1").mkdir(parents=True)
    for version in (root / "v1", root / _not_utf8(b"v\xfe1", lambda name: (root / name).mkdir())):
        (version / "A.java").write_text("class A { int x; }")
    assert main(["compare", "--versions-root", str(root), "--out", str(tmp_path / "out")]) == 0
    assert b"\nv\xfe1,0,1.000," in (tmp_path / "out" / "comparison.csv").read_bytes()


def test_stdout_keeps_a_version_name_that_is_not_utf8(tmp_path: Path):
    # PYTHONIOENCODING=utf-8 makes stdout strict, as most UTF-8 locales do.
    root = tmp_path / "root"
    (root / "v1").mkdir(parents=True)
    odd = root / _not_utf8(b"v\xfe1", lambda name: (root / name).mkdir())
    for version in (root / "v1", odd):
        (version / "A.java").write_text("class A { int x; }")
    env = dict(os.environ, PYTHONIOENCODING="utf-8", PYTHONPATH=str(REPO_ROOT / "src"))
    out = str(tmp_path / "out")
    row = b"\nv\xfe1      0     1.000  NA   NA   NA\n"
    for argv, expected in (
        (["compare", "--versions-root", str(root), "--out", out], row),
        (["measure", str(odd), "--out", out], row),
        (["scan", str(root), "--versions-root"], b"VERSION v\xfe1 (1 files)\n"),
    ):
        done = subprocess.run(
            [sys.executable, "-m", "aometrics.cli", *argv], env=env, capture_output=True
        )
        assert (done.returncode, done.stderr) == (0, b""), argv
        assert expected in done.stdout, argv


def _cycles_after(argv: list[str]) -> int:
    """Objects in reference cycles that one in-process run left behind."""
    gc.collect()
    assert main(argv) == 0
    return gc.collect()


def test_a_run_builds_no_reference_cycles(tmp_path: Path, monkeypatch, capsys):
    # main() turns the cyclic collector off for the run, which is safe only
    # while nothing a run builds per file, unit or version sits in a cycle.
    # The cycles left are argparse's and the same for every input.
    monkeypatch.syspath_prepend(str(REPO_ROOT / "bench"))
    corpus = importlib.import_module("corpus").generate("history-compare", 1, MINI_UAS)
    corpus.write(tmp_path / "history")
    one = tmp_path / "one" / "V"
    one.mkdir(parents=True)
    (one / "A.java").write_text("class A { int x; void f() {} }")
    runs = {
        "one file": ["measure", str(one), "--out", str(tmp_path / "out1")],
        "32 versions": corpus.cli_args(tmp_path / "history", tmp_path / "out2"),
    }
    _cycles_after(runs["one file"])  # warm up: first-use caches and lazy imports
    counts = {name: _cycles_after(argv) for name, argv in runs.items()}
    assert counts["32 versions"] == counts["one file"], counts


@pytest.mark.parametrize("enabled", [True, False])
def test_main_gives_back_the_collector_state_it_found(tmp_path: Path, enabled: bool, capsys):
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        assert main(["measure", str(MINI_UAS / "AJ1.1"), "--out", str(tmp_path)]) == 0
        assert gc.isenabled() is enabled
        assert main(["measure", str(tmp_path / "missing")]) == 1
        assert gc.isenabled() is enabled
        with pytest.raises(SystemExit):
            main(["no-such-command"])
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()
