"""Command-line front-end: scan, measure, and compare source trees.

Exit codes: 0 on success, 1 for analysis errors (missing root, empty
corpus, strict-mode parse failures, bad weight config), 2 for usage
errors. Reports are written under --out; the rendered table always goes
to standard output and diagnostics to standard error.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .diagnostics import Diagnostic, warning
from .errors import AnalysisError, TooFewVersions, WriteFailure
from .metrics import VersionMetrics, measure_version
from .parser import SourceUnit, file_label, parse_source
from .report import (
    compare_versions,
    render_table,
    render_trends,
    write_csv,
    write_json,
    write_log,
)
from .scanner import ScanMode, VersionRef, scan_corpus
from .weights import WeightTable, default_weights, load_weight_overrides

_FORMATS = ("log", "json", "csv", "table")
_DEFAULT_FORMATS = ("log", "json", "csv")


def build_arg_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="aometrics",
        description="Compute WPA, WAA, WJP, WMCA and NAC complexity metrics "
        "for Java/AspectJ source trees.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    scan = sub.add_parser("scan", help="list discovered versions and source files")
    scan.add_argument("root", type=Path)
    scan.add_argument(
        "--versions-root",
        action="store_true",
        help="treat each immediate subdirectory as one version",
    )

    measure = sub.add_parser("measure", help="measure one version directory")
    measure.add_argument("root", type=Path)
    _add_common(measure)

    compare = sub.add_parser("compare", help="measure and compare several versions")
    compare.add_argument("roots", nargs="*", type=Path, metavar="root")
    compare.add_argument(
        "--versions-root",
        type=Path,
        help="directory whose immediate subdirectories are the versions",
    )
    compare.add_argument(
        "--order",
        nargs="+",
        metavar="ID",
        help="explicit version ids in comparison order (subset allowed)",
    )
    _add_common(compare)
    return parser


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--weights", type=Path, help="JSON weight override file")
    sub.add_argument(
        "--format",
        action="append",
        choices=_FORMATS,
        dest="formats",
        help="report format to write (repeatable; default: log json csv)",
    )
    sub.add_argument("--out", type=Path, default=Path("."), help="output directory")
    sub.add_argument(
        "--strict",
        action="store_true",
        help="abort instead of skipping files with parse errors",
    )


def _load_table(path: Path | None) -> WeightTable:
    if path is None:
        return default_weights()
    return load_weight_overrides(path)


def _decode_source(data: bytes) -> tuple[str, bool]:
    """Decode UTF-8 with universal newlines, as ``read_text`` does.

    Undecodable bytes become U+FFFD; the flag says whether any did.
    """
    try:
        text, lossy = data.decode("utf-8"), False
    except UnicodeDecodeError:
        text, lossy = data.decode("utf-8", errors="replace"), True
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    return text, lossy


def _parse_version(
    version: VersionRef, parsed: dict[bytes, SourceUnit]
) -> list[SourceUnit]:
    """Parse a version's files, each distinct file content only once.

    ``parsed`` maps raw file bytes to the unit first parsed from them and
    lives for the whole run. A parse depends on the path only through its
    diagnostics' labels, so a repeated content gets a new unit for its own
    path that shares the parsed declarations (which nothing mutates) and
    carries the diagnostics relabeled.
    """
    units = []
    for ref in version.files:
        data = ref.path.read_bytes()
        label = file_label(ref)
        first = parsed.get(data)
        if first is None:
            text, lossy = _decode_source(data)
            unit = parse_source(text, ref)
            if lossy:
                unit.parse_diagnostics.insert(
                    0, warning(label, 0, "invalid UTF-8 replaced with U+FFFD")
                )
            parsed[data] = unit
        else:
            unit = SourceUnit(
                file=ref,
                classes=first.classes,
                aspects=first.aspects,
                parse_diagnostics=[
                    Diagnostic(label, d.line, d.severity, d.message)
                    for d in first.parse_diagnostics
                ],
            )
        units.append(unit)
    return units


def _report_diagnostics(metrics: VersionMetrics) -> None:
    for diag in metrics.diagnostics:
        print(str(diag), file=sys.stderr)


def _write(path: Path, text: str) -> None:
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8")
    except OSError as exc:
        raise WriteFailure(f"cannot write {path}: {exc}") from None


def _measure_one(
    version: VersionRef,
    table: WeightTable,
    strict: bool,
    parsed: dict[bytes, SourceUnit],
) -> tuple[VersionMetrics, list[SourceUnit]]:
    units = _parse_version(version, parsed)
    metrics = measure_version(version, units, table, strict=strict)
    _report_diagnostics(metrics)
    return metrics, units


def _cmd_scan(args: argparse.Namespace) -> int:
    mode = ScanMode.VERSIONS_ROOT if args.versions_root else ScanMode.SINGLE_VERSION
    versions = scan_corpus(args.root, mode)
    for version in versions:
        print(f"VERSION {version.id} ({len(version.files)} files)")
        for ref in version.files:
            print(f"  {ref.path} [{ref.kind.value}]")
    return 0


def _cmd_measure(args: argparse.Namespace) -> int:
    formats = set(args.formats or _DEFAULT_FORMATS)
    table = _load_table(args.weights)
    (version,) = scan_corpus(args.root, ScanMode.SINGLE_VERSION)
    metrics, units = _measure_one(version, table, args.strict, {})

    out = args.out
    if "log" in formats:
        usable = [u for u in units if not u.has_errors]
        _write(out / f"{metrics.version_id}.log", write_log(usable, metrics))
    if "json" in formats:
        _write(out / f"{metrics.version_id}.json", write_json(metrics))
    if "csv" in formats:
        _write(out / f"{metrics.version_id}.csv", write_csv([metrics]))
    if "table" in formats:
        _write(out / f"{metrics.version_id}.txt", render_table([metrics]))
    sys.stdout.write(render_table([metrics]))
    return 0


def _ordered_versions(versions: list[VersionRef], order: list[str] | None) -> list[VersionRef]:
    if order is None:
        return versions
    by_id = {v.id: v for v in versions}
    missing = [vid for vid in order if vid not in by_id]
    if missing:
        raise TooFewVersions(f"unknown version id(s) in --order: {', '.join(missing)}")
    return [by_id[vid] for vid in order]


def _cmd_compare(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    if args.versions_root and args.roots:
        parser.error("give either --versions-root or explicit version roots, not both")
    if not args.versions_root and len(args.roots) < 2:
        parser.error("compare needs --versions-root or at least two version roots")

    formats = set(args.formats or _DEFAULT_FORMATS)
    table = _load_table(args.weights)

    if args.versions_root:
        versions = scan_corpus(args.versions_root, ScanMode.VERSIONS_ROOT)
    else:
        versions = [scan_corpus(root, ScanMode.SINGLE_VERSION)[0] for root in args.roots]
    versions = _ordered_versions(versions, args.order)
    if len(versions) < 2:
        raise TooFewVersions(f"need at least 2 versions, found {len(versions)}")

    parsed: dict[bytes, SourceUnit] = {}
    all_metrics = [_measure_one(v, table, args.strict, parsed)[0] for v in versions]
    report = compare_versions(all_metrics)

    out = args.out
    if "json" in formats:
        _write(out / "comparison.json", write_json(report))
    if "csv" in formats:
        _write(out / "comparison.csv", write_csv(all_metrics))
    if "table" in formats:
        _write(out / "comparison.txt", render_table(all_metrics))
    sys.stdout.write(render_table(all_metrics))
    sys.stdout.write(render_trends(report))
    return 0


def run(argv: list[str]) -> int:
    parser = build_arg_parser()
    args = parser.parse_args(argv)
    if args.command == "scan":
        return _cmd_scan(args)
    if args.command == "measure":
        return _cmd_measure(args)
    return _cmd_compare(args, parser)


def main(argv: list[str] | None = None) -> int:
    try:
        return run(list(sys.argv[1:]) if argv is None else list(argv))
    except AnalysisError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
