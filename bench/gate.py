"""Correctness gate: check one CLI run's reports against the corpus oracle.

The expected values come from :mod:`corpus` (fixture manifests and hand-
derived pointcut weights), never from aometrics. Delta, trend and NAC
strings are rendered here from those expected values. Each run also gets
a digest of every report it wrote, with the corpus root replaced by a
placeholder because the log embeds absolute paths.
"""

from __future__ import annotations

import hashlib
import json
from decimal import ROUND_HALF_EVEN, Decimal
from fractions import Fraction
from pathlib import Path

from corpus import Corpus, VersionExpect

CORPUS_PLACEHOLDER = "<CORPUS>"


def _weight(tenths: int) -> str:
    return f"{tenths // 10}.{tenths % 10}"


def _ratio(value: Fraction) -> str:
    dec = Decimal(value.numerator) / Decimal(value.denominator)
    return str(dec.quantize(Decimal("0.001"), rounding=ROUND_HALF_EVEN))


def _nac(v: VersionExpect) -> Fraction | None:
    return Fraction(v.class_attributes, v.class_count) if v.class_count else None


def expected_payload(v: VersionExpect) -> dict:
    """The ``ao-metrics-version@1`` fields of one version, schema aside."""
    nac = _nac(v)
    return {
        "version_id": v.version_id,
        "aspect_free": v.aspect_count == 0,
        "wpa": _weight(v.wpa),
        "waa": _weight(v.waa),
        "wjp": _weight(v.wjp),
        "wmca": v.wmca,
        "nac": None
        if nac is None
        else {"num": v.class_attributes, "den": v.class_count, "rendered": _ratio(nac)},
        "aspect_count": v.aspect_count,
        "class_count": v.class_count,
        "method_count": v.method_count,
        "attribute_count": v.attribute_count,
        "per_aspect": [
            {"name": n, "wpa": _weight(p), "waa": _weight(a), "wjp": _weight(j), "wmca": m}
            for n, p, a, j, m in sorted(v.per_aspect)
        ],
        "per_class": [
            {"name": n, "wmca": m, "attributes": at, "wjp": _weight(j)}
            for n, m, at, j in sorted(v.per_class)
        ],
    }


def _csv_row(v: VersionExpect) -> str:
    nac = _nac(v)
    aspects = ["NA"] * 3 if v.aspect_count == 0 else [_weight(v.wpa), _weight(v.waa), _weight(v.wjp)]
    return ",".join([v.version_id, str(v.wmca), "NA" if nac is None else _ratio(nac), *aspects])


def _trend(deltas: list) -> str:
    present = [d for d in deltas if d is not None]
    if all(d == 0 for d in present):
        return "flat"
    if all(d >= 0 for d in present):
        return "increasing"
    if all(d <= 0 for d in present):
        return "decreasing"
    return "mixed"


def expected_deltas(versions: list[VersionExpect]) -> tuple[dict, dict]:
    """Per-metric value/delta series and trend verdicts of a comparison."""

    def signed_weight(d: int) -> str:
        sign = "-" if d < 0 else "+" if d > 0 else ""
        return sign + _weight(abs(d))

    def signed_ratio(d: Fraction) -> str:
        return ("+" if d > 0 else "") + _ratio(d)

    series = {
        "wmca": ([v.wmca for v in versions], str, lambda d: str(d) if d == 0 else f"{d:+d}"),
        "nac": ([_nac(v) for v in versions], lambda x: "NA" if x is None else _ratio(x), signed_ratio),
        "wpa": ([v.wpa for v in versions], _weight, signed_weight),
        "waa": ([v.waa for v in versions], _weight, signed_weight),
        "wjp": ([v.wjp for v in versions], _weight, signed_weight),
    }
    deltas, trends = {}, {}
    for metric, (values, render, render_delta) in series.items():
        entries, raw = [], []
        for i, (v, value) in enumerate(zip(versions, values)):
            if i == 0:
                entries.append({"version": v.version_id, "value": render(value), "delta": None})
                continue
            prev = values[i - 1]
            diff = None if value is None or prev is None else value - prev
            raw.append(diff)
            entries.append(
                {"version": v.version_id, "value": render(value), "delta": None if diff is None else render_delta(diff)}
            )
        deltas[metric] = entries
        trends[metric] = _trend(raw)
    return deltas, trends


def _diff(label: str, got, want, problems: list[str]) -> None:
    if got != want:
        problems.append(f"{label}: got {json.dumps(got)[:200]}, expected {json.dumps(want)[:200]}")


def _check_payload(got: dict, v: VersionExpect, problems: list[str]) -> None:
    for key, want in expected_payload(v).items():
        _diff(f"{v.version_id}.{key}", got.get(key), want, problems)


def _check_log(text: str, v: VersionExpect, problems: list[str]) -> None:
    lines = text.splitlines()
    counts = {}
    for line in lines:
        head = line.split(None, 1)[0] if line.strip() else ""
        counts[head] = counts.get(head, 0) + 1
    nac = _nac(v)
    want_counts = {
        "FILE": v.files,
        "CLASS": v.class_count,
        "ASPECT": v.aspect_count,
        "METHOD": v.method_count,
        "ATTRIBUTE": v.attribute_count,
        "POINTCUT": v.pointcuts,
        "ADVICE": v.advices,
    }
    for head, want in want_counts.items():
        _diff(f"{v.version_id}.log {head} lines", counts.get(head, 0), want, problems)
    tail = [
        f"METRIC WPA {_weight(v.wpa)}",
        f"METRIC WAA {_weight(v.waa)}",
        f"METRIC WJP {_weight(v.wjp)}",
        f"METRIC WMCA {v.wmca}",
        f"METRIC NAC {'NA' if nac is None else _ratio(nac)}",
    ]
    _diff(f"{v.version_id}.log metrics", lines[-5:], tail, problems)


def _read(path: Path, problems: list[str]) -> str:
    try:
        return path.read_text(encoding="utf-8")
    except OSError as exc:
        problems.append(f"missing report {path.name}: {exc.strerror}")
        return ""


def _load_json(path: Path, problems: list[str]) -> dict:
    text = _read(path, problems)
    try:
        return json.loads(text) if text else {}
    except ValueError:
        problems.append(f"{path.name} is not valid JSON")
        return {}


def check_run(corpus: Corpus, out_dir: Path, exit_code: int, stdout: str, stderr: str) -> list[str]:
    """Problems found in one run's exit code, streams and reports."""
    problems: list[str] = []
    if exit_code != 0:
        problems.append(f"exit code {exit_code}")
    if "Traceback" in stderr:
        problems.append("traceback on stderr")
    if "excluded" in stderr:
        problems.append("a file was excluded from the metrics")
    versions = corpus.versions
    if corpus.command == "compare":
        report = _load_json(out_dir / "comparison.json", problems)
        got_versions = report.get("versions", [])
        _diff("comparison version count", len(got_versions), len(versions), problems)
        for got, v in zip(got_versions, versions):
            _check_payload(got, v, problems)
        deltas, trends = expected_deltas(versions)
        _diff("comparison.deltas", report.get("deltas"), deltas, problems)
        _diff("comparison.trends", report.get("trends"), trends, problems)
        csv_name = "comparison.csv"
    else:
        (v,) = versions
        _check_payload(_load_json(out_dir / f"{v.version_id}.json", problems), v, problems)
        _check_log(_read(out_dir / f"{v.version_id}.log", problems), v, problems)
        csv_name = f"{v.version_id}.csv"
    csv_lines = _read(out_dir / csv_name, problems).splitlines()
    _diff(csv_name, csv_lines, ["version,wmca,nac,wpa,waa,wjp", *map(_csv_row, versions)], problems)
    rows = stdout.splitlines()[1 : 1 + len(versions)]
    _diff("stdout table versions", [r.split()[0] if r else "" for r in rows], [v.version_id for v in versions], problems)
    return problems


def report_digest(out_dir: Path, corpus_dir: Path, stdout: str) -> str:
    """sha256 of every report and the table, corpus root made portable."""
    root = str(corpus_dir)
    h = hashlib.sha256()
    for path in sorted(out_dir.rglob("*")):
        if path.is_file():
            h.update(path.relative_to(out_dir).as_posix().encode() + b"\0")
            h.update(path.read_text(encoding="utf-8").replace(root, CORPUS_PLACEHOLDER).encode() + b"\0")
    h.update(stdout.replace(root, CORPUS_PLACEHOLDER).encode())
    return h.hexdigest()
