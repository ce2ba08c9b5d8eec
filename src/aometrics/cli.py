"""Command-line front-end: scan, measure, and compare source trees.

Exit codes: 0 on success, 1 for analysis errors (missing root, empty
corpus, strict-mode parse failures, bad weight config), 2 for usage
errors. Reports are written under --out; the rendered table always goes
to standard output and diagnostics to standard error.
"""

from __future__ import annotations

import argparse
import gc
import re
import sys
from pathlib import Path

from .diagnostics import error, relabeled, warning
from .errors import AnalysisError, TooFewVersions, WriteFailure
from .metrics import measure_version
from .parser import SourceUnit, parse_source
from .report import (
    compare_versions,
    render_table,
    render_trends,
    write_csv,
    write_json,
    write_log,
)
from .scanner import ScanMode, VersionRef, classify_file, scan_corpus
from .weights import default_weights, load_weight_overrides

# The report formats each subcommand accepts: compare writes no log.
_FORMATS = {"measure": ("log", "json", "csv", "table"), "compare": ("json", "csv", "table")}
# The bytes of a name that is not valid UTF-8, as the file system decodes them.
_UNDECODED = re.compile("([\udc80-\udcff]+)")


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
    _add_common(measure, _FORMATS["measure"])

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
    _add_common(compare, _FORMATS["compare"])
    return parser


def _default_formats(formats: tuple[str, ...]) -> list[str]:
    """The formats written when no --format is given: all but the table,
    which goes to standard output anyway."""
    return [fmt for fmt in formats if fmt != "table"]


def _add_common(sub: argparse.ArgumentParser, formats: tuple[str, ...]) -> None:
    sub.add_argument("--weights", type=Path, help="JSON weight override file")
    sub.add_argument(
        "--format",
        action="append",
        choices=formats,
        dest="formats",
        help=f"report format to write (repeatable; default: {' '.join(_default_formats(formats))})",
    )
    sub.add_argument("--out", type=Path, default=Path("."), help="output directory")
    sub.add_argument(
        "--strict",
        action="store_true",
        help="abort instead of skipping files with parse errors",
    )


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
    their cache, and carries the diagnostics relabeled. So the pointcuts of
    a content are classified once per run, too.
    """
    units = []
    for label in version.files:
        try:
            # Unbuffered: readall sizes its one buffer from fstat.
            with open(label, "rb", buffering=0) as handle:
                data = handle.readall()
        except OSError as exc:
            message = f"cannot read file: {exc.strerror or exc}"
            units.append(SourceUnit(file=label, parse_diagnostics=[error(label, 0, message)]))
            continue
        first = parsed.get(data)
        if first is None:
            text, lossy = _decode_source(data)
            unit = parse_source(text, label)
            if lossy:
                unit.parse_diagnostics.insert(
                    0, warning(label, 0, "invalid UTF-8 replaced with U+FFFD")
                )
            parsed[data] = unit
        else:
            unit = SourceUnit(
                file=label,
                classes=first.classes,
                aspects=first.aspects,
                parse_diagnostics=relabeled(first.parse_diagnostics, label),
                cache=first.cache,
            )
        units.append(unit)
    return units


def _write(path: Path, text: str) -> None:
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        # A path name that is not valid UTF-8 is written back as its own bytes.
        path.write_text(text, encoding="utf-8", errors="surrogateescape")
    except OSError as exc:
        raise WriteFailure(f"cannot write {path}: {exc}") from None


def _echo(text: str) -> None:
    """Write ``text`` to stdout. A name that is not valid UTF-8 keeps its own
    bytes; a character the stream cannot encode is escaped, as on stderr."""
    try:
        sys.stdout.write(text)
    except UnicodeEncodeError:  # a strict stream, e.g. under PYTHONIOENCODING=ascii
        sys.stdout.flush()
        encoding, out = sys.stdout.encoding, sys.stdout.buffer
        for i, part in enumerate(_UNDECODED.split(text)):  # the undecoded runs at odd places
            out.write(part.encode(encoding, "surrogateescape" if i % 2 else "backslashreplace"))


def _cmd_scan(args: argparse.Namespace) -> int:
    mode = ScanMode.VERSIONS_ROOT if args.versions_root else ScanMode.SINGLE_VERSION
    lines = []
    for version in scan_corpus(args.root, mode):
        lines.append(f"VERSION {version.id} ({len(version.files)} files)\n")
        lines.extend(f"  {path} [{classify_file(path).value}]\n" for path in version.files)
    _echo("".join(lines))
    return 0


def _compared_versions(args: argparse.Namespace) -> list[VersionRef]:
    """The versions ``compare`` measures, in the order it reports them."""
    if args.versions_root:
        versions = scan_corpus(args.versions_root, ScanMode.VERSIONS_ROOT)
    else:
        versions = [scan_corpus(root, ScanMode.SINGLE_VERSION)[0] for root in args.roots]
    order = args.order
    if order is not None:
        by_id = {v.id: v for v in versions}
        missing = [vid for vid in order if vid not in by_id]
        if missing:
            raise TooFewVersions(f"unknown version id(s) in --order: {', '.join(missing)}")
        repeated = sorted({vid for vid in order if order.count(vid) > 1}, key=order.index)
        if repeated:
            raise TooFewVersions(f"repeated version id(s) in --order: {', '.join(repeated)}")
        versions = [by_id[vid] for vid in order]
    if len(versions) < 2:
        raise TooFewVersions(f"need at least 2 versions, found {len(versions)}")
    return versions


def _cmd_measure_or_compare(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    """Measure one version (measure) or several (compare), write the reports
    asked for, and print the table (and for compare the trends)."""
    if args.command == "compare":
        if args.versions_root and args.roots:
            parser.error("give either --versions-root or explicit version roots, not both")
        if not args.versions_root and len(args.roots) < 2:
            parser.error("compare needs --versions-root or at least two version roots")
    formats = args.formats or _default_formats(_FORMATS[args.command])
    # Loaded before any scan, so a bad override file wins over a missing root.
    weights = default_weights() if args.weights is None else load_weight_overrides(args.weights)
    if args.command == "measure":
        versions = scan_corpus(args.root, ScanMode.SINGLE_VERSION)
    else:
        versions = _compared_versions(args)

    parsed: dict[bytes, SourceUnit] = {}
    all_metrics = []
    for version in versions:
        units = _parse_version(version, parsed)
        metrics = measure_version(version, units, weights, strict=args.strict)
        for diag in metrics.diagnostics:
            print(str(diag), file=sys.stderr)
        all_metrics.append(metrics)

    shown = rendered = render_table(all_metrics)
    if args.command == "measure":  # one version: ``metrics`` and ``units`` are its own
        stem, report = metrics.version_id, metrics
    else:
        stem, report = "comparison", compare_versions(all_metrics)
        shown += render_trends(report)
    # Each report's file suffix and text; a text is built only if asked for.
    reports = {
        "log": (".log", lambda: write_log([u for u in units if not u.has_errors], metrics)),
        "json": (".json", lambda: write_json(report)),
        "csv": (".csv", lambda: write_csv(all_metrics)),
        "table": (".txt", lambda: rendered),
    }
    for fmt, (suffix, build) in reports.items():
        if fmt in formats:
            _write(args.out / f"{stem}{suffix}", build())
    _echo(shown)
    return 0


def run(argv: list[str]) -> int:
    parser = build_arg_parser()
    args = parser.parse_args(argv)
    if args.command == "scan":
        return _cmd_scan(args)
    return _cmd_measure_or_compare(args, parser)


def main(argv: list[str] | None = None) -> int:
    """Run the CLI with the cyclic garbage collector off, then restore its state.

    A run builds no reference cycles (``tests/test_cli.py`` checks), so
    collections would only walk the live tokens and units again and again.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        return run(list(sys.argv[1:]) if argv is None else list(argv))
    except AnalysisError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        if enabled:
            gc.enable()


def entry_point() -> None:
    """The ``aometrics`` console script and ``python -m aometrics.cli``.

    Freezing moves every live object out of the collector's reach, so the
    collections at interpreter exit do not walk all that the imports built.
    """
    code = main()
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    entry_point()
