"""Deterministic report emission: sequential log, JSON, CSV, and tables.

All writers are pure text producers; identical inputs give byte-identical
output. The JSON schema keeps a fixed key order and serializes weight sums
as decimal strings so no consumer is exposed to floating point.
"""

from __future__ import annotations

from json.encoder import encode_basestring_ascii

from .diagnostics import Record
from .errors import TooFewVersions
from .metrics import PointcutFacts, VersionMetrics, classify_joinpoint_categories
from .parser import SourceUnit, walk_classes
from .pointcuts import render_expression
from .weights import JoinPointCategory, render_fixed

VERSION_SCHEMA = "ao-metrics-version@1"
COMPARISON_SCHEMA = "ao-metrics-comparison@1"

_CATEGORY_ORDER = {cat: i for i, cat in enumerate(JoinPointCategory)}


# -- sequential log ------------------------------------------------------


def write_log(units: list[SourceUnit], metrics: VersionMetrics) -> str:
    """Three-phase log: file inventory, declaration signatures, metrics."""
    lines: list[str] = []
    ordered = sorted(units, key=lambda u: u.file)

    for unit in ordered:
        lines.append(f"FILE {unit.file}")

    # JOINPOINT lines per category set. Facts share one frozenset per
    # distinct set, so each set is sorted and formatted once.
    joinpoints: dict[frozenset, list[str]] = {}
    for unit in ordered:
        facts = classify_joinpoint_categories(unit)
        for name, cls in walk_classes(unit):
            lines.append(f"CLASS {name}")
            _emit_members(lines, cls, facts, joinpoints)
        for aspect in unit.aspects:
            lines.append(f"ASPECT {aspect.name}")
            _emit_members(lines, aspect, facts, joinpoints)

    lines.append(f"METRIC WPA {metrics.wpa.render()}")
    lines.append(f"METRIC WAA {metrics.waa.render()}")
    lines.append(f"METRIC WJP {metrics.wjp.render()}")
    lines.append(f"METRIC WMCA {metrics.wmca}")
    lines.append(f"METRIC NAC {metrics.nac_rendered()}")
    return "\n".join(lines) + "\n"


def _emit_members(
    lines: list[str],
    decl,
    facts: dict[int, PointcutFacts],
    joinpoints: dict[frozenset, list[str]],
) -> None:
    for method in decl.methods:
        lines.append(f"  METHOD {method.signature_text}")
    for attr in decl.attributes:
        lines.append(f"  ATTRIBUTE {attr.declared_type or '?'} {attr.name}")
    for pc in decl.pointcuts:
        lines.append(f"  POINTCUT {pc.name}: {render_expression(pc.expression)}")
        _emit_joinpoints(lines, facts[id(pc)], joinpoints)
    for advice in decl.advices:
        lines.append(f"  ADVICE {advice.kind.value}: {render_expression(advice.expression)}")
        _emit_joinpoints(lines, facts[id(advice)], joinpoints)


def _emit_joinpoints(
    lines: list[str], facts: PointcutFacts, joinpoints: dict[frozenset, list[str]]
) -> None:
    categories = facts.categories
    block = joinpoints.get(categories)
    if block is None:
        block = joinpoints[categories] = [
            f"    JOINPOINT {category.value}"
            for category in sorted(categories, key=_CATEGORY_ORDER.get)
        ]
    lines.extend(block)


# -- JSON ----------------------------------------------------------------


def _version_payload(metrics: VersionMetrics) -> dict:
    nac = None
    if metrics.class_count > 0:
        nac = {
            "num": metrics.class_attribute_count,
            "den": metrics.class_count,
            "rendered": metrics.nac_rendered(),
        }
    return {
        "schema": VERSION_SCHEMA,
        "version_id": metrics.version_id,
        "aspect_free": metrics.aspect_free,
        "wpa": metrics.wpa.render(),
        "waa": metrics.waa.render(),
        "wjp": metrics.wjp.render(),
        "wmca": metrics.wmca,
        "nac": nac,
        "aspect_count": metrics.aspect_count,
        "class_count": metrics.class_count,
        "method_count": metrics.method_count,
        "attribute_count": metrics.attribute_count,
        "per_aspect": [
            {
                "name": m.name,
                "wpa": m.wpa.render(),
                "waa": m.waa.render(),
                "wjp": m.wjp.render(),
                "wmca": m.wmca,
            }
            for m in metrics.per_aspect
        ],
        "per_class": [
            {
                "name": m.name,
                "wmca": m.wmca,
                "attributes": m.attribute_count,
                "wjp": m.wjp.render(),
            }
            for m in metrics.per_class
        ],
    }


def write_json(report: "VersionMetrics | ComparisonReport") -> str:
    if isinstance(report, ComparisonReport):
        payload = _comparison_payload(report)
    else:
        payload = _version_payload(report)
    return _json(payload, "\n") + "\n"


def _json(value, indent: str) -> str:
    """``json.dumps(value, indent=2)`` with ``indent`` the newline and current indentation.

    ``json.dumps`` falls back to its pure-Python encoder whenever ``indent``
    is set; this emitter quotes strings with the same C function. It takes
    exact dicts with str keys, lists, strs, ints, bools and None; any other
    type, a float or a tuple included, raises ``TypeError``.
    """
    kind = type(value)
    if kind is str:
        return encode_basestring_ascii(value)
    if kind is dict:
        if not value:
            return "{}"
        inner = indent + "  "
        items = [encode_basestring_ascii(k) + ": " + _json(v, inner) for k, v in value.items()]
        return "{" + inner + ("," + inner).join(items) + indent + "}"
    if kind is list:
        if not value:
            return "[]"
        inner = indent + "  "
        return "[" + inner + ("," + inner).join([_json(v, inner) for v in value]) + indent + "]"
    if value is None:
        return "null"
    if kind is bool:
        return "true" if value else "false"
    if kind is int:
        return str(value)
    raise TypeError(f"Object of type {kind.__name__} is not JSON serializable")


# -- table / CSV ----------------------------------------------------------

_COLUMNS = ("Version", "WMCA", "NAC", "WPA", "WAA", "WJP")


def _row_values(m: VersionMetrics) -> tuple[str, str, str, str, str, str]:
    if m.aspect_free:
        wpa = waa = wjp = "NA"
    else:
        wpa, waa, wjp = m.wpa.render(), m.waa.render(), m.wjp.render()
    return (m.version_id, str(m.wmca), m.nac_rendered(), wpa, waa, wjp)


def render_table(reports: list[VersionMetrics]) -> str:
    """Aligned plain-text table, one row per version."""
    rows = [_row_values(m) for m in reports]
    widths = [
        max(len(_COLUMNS[i]), *(len(row[i]) for row in rows)) if rows else len(_COLUMNS[i])
        for i in range(len(_COLUMNS))
    ]

    def fmt(values) -> str:
        cells = [value.ljust(widths[i]) for i, value in enumerate(values)]
        return "  ".join(cells).rstrip()

    lines = [fmt(_COLUMNS)]
    lines.extend(fmt(row) for row in rows)
    return "\n".join(lines) + "\n"


def write_csv(reports: list[VersionMetrics]) -> str:
    lines = ["version,wmca,nac,wpa,waa,wjp"]
    for m in reports:
        version, wmca, nac, wpa, waa, wjp = _row_values(m)
        lines.append(f"{version},{wmca},{nac},{wpa},{waa},{wjp}")
    return "\n".join(lines) + "\n"


# -- comparison -----------------------------------------------------------


class ComparisonReport(Record):
    __slots__ = ("versions", "deltas", "trends")

    def __init__(
        self,
        versions: list[VersionMetrics],
        deltas: dict[str, list[dict]],  # per metric, comparison.json's {"version", "value", "delta"}
        trends: dict[str, str],
    ):
        self.versions = versions
        self.deltas = deltas
        self.trends = trends


def _trend(deltas: list[tuple[int, int] | None]) -> str:
    present = [d[0] for d in deltas if d is not None]
    if not present or all(n == 0 for n in present):
        return "flat"
    if all(n >= 0 for n in present):
        return "increasing"
    if all(n <= 0 for n in present):
        return "decreasing"
    return "mixed"


def compare_versions(reports: list[VersionMetrics]) -> ComparisonReport:
    """Per-metric deltas across consecutive versions plus a trend verdict.

    Each column holds ``(num, den)`` pairs with ``den > 0`` (None for a NAC
    with no class), and each value and delta is ``render_fixed`` of one.
    """
    if len(reports) < 2:
        raise TooFewVersions(f"need at least 2 versions, got {len(reports)}")

    weight_places = reports[0].wpa.places
    columns = [
        ("wmca", [(m.wmca, 1) for m in reports], 0),
        ("nac", [(m.class_attribute_count, m.class_count) if m.class_count else None for m in reports], 3),
        ("wpa", [(m.wpa.units, m.wpa.scale) for m in reports], weight_places),
        ("waa", [(m.waa.units, m.waa.scale) for m in reports], weight_places),
        ("wjp", [(m.wjp.units, m.wjp.scale) for m in reports], weight_places),
    ]
    deltas: dict[str, list[dict]] = {}
    trends: dict[str, str] = {}
    for metric, values, places in columns:
        diffs = [None] + [
            None if old is None or new is None else (new[0] * old[1] - old[0] * new[1], old[1] * new[1])
            for old, new in zip(values, values[1:])
        ]
        deltas[metric] = [
            {
                "version": m.version_id,
                "value": "NA" if x is None else render_fixed(*x, places),
                "delta": None if d is None else render_fixed(*d, places, True),
            }
            for m, x, d in zip(reports, values, diffs)
        ]
        trends[metric] = _trend(diffs)
    return ComparisonReport(versions=list(reports), deltas=deltas, trends=trends)


def _comparison_payload(report: ComparisonReport) -> dict:
    return {
        "schema": COMPARISON_SCHEMA,
        "versions": [_version_payload(m) for m in report.versions],
        "deltas": report.deltas,
        "trends": report.trends,
    }


def render_trends(report: ComparisonReport) -> str:
    lines = [f"TREND {metric.upper()} {verdict}" for metric, verdict in report.trends.items()]
    return "\n".join(lines) + "\n"
