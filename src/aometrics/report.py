"""Deterministic report emission: sequential log, JSON, CSV, and tables.

All writers are pure text producers; identical inputs give byte-identical
output. The JSON schema keeps a fixed key order and serializes weight sums
as decimal strings so no consumer is exposed to floating point.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction

from .errors import TooFewVersions
from .metrics import PointcutFacts, VersionMetrics, classify_joinpoint_categories, render_ratio
from .parser import SourceUnit, file_label, walk_classes
from .pointcuts import render_expression
from .weights import JoinPointCategory, Weight

VERSION_SCHEMA = "ao-metrics-version@1"
COMPARISON_SCHEMA = "ao-metrics-comparison@1"

_CATEGORY_ORDER = {cat: i for i, cat in enumerate(JoinPointCategory)}


# -- sequential log ------------------------------------------------------


def write_log(units: list[SourceUnit], metrics: VersionMetrics) -> str:
    """Three-phase log: file inventory, declaration signatures, metrics."""
    lines: list[str] = []
    ordered = sorted(units, key=lambda u: file_label(u.file))

    for unit in ordered:
        lines.append(f"FILE {file_label(unit.file)}")

    for unit in ordered:
        facts = classify_joinpoint_categories(unit)
        for name, cls in walk_classes(unit):
            lines.append(f"CLASS {name}")
            _emit_members(lines, cls, facts, has_advice=False)
        for aspect in unit.aspects:
            lines.append(f"ASPECT {aspect.name}")
            _emit_members(lines, aspect, facts, has_advice=True)

    lines.append(f"METRIC WPA {metrics.wpa.render()}")
    lines.append(f"METRIC WAA {metrics.waa.render()}")
    lines.append(f"METRIC WJP {metrics.wjp.render()}")
    lines.append(f"METRIC WMCA {metrics.wmca}")
    lines.append(f"METRIC NAC {metrics.nac_rendered()}")
    return "\n".join(lines) + "\n"


def _emit_members(
    lines: list[str], decl, facts: dict[int, PointcutFacts], has_advice: bool
) -> None:
    for method in decl.methods:
        lines.append(f"  METHOD {method.signature_text}")
    for attr in decl.attributes:
        lines.append(f"  ATTRIBUTE {attr.declared_type or '?'} {attr.name}")
    for pc in decl.pointcuts:
        lines.append(f"  POINTCUT {pc.name}: {render_expression(pc.expression)}")
        _emit_joinpoints(lines, facts[id(pc)])
    if has_advice:
        for advice in decl.advices:
            lines.append(
                f"  ADVICE {advice.kind.value}: {render_expression(advice.expression)}"
            )
            _emit_joinpoints(lines, facts[id(advice)])


def _emit_joinpoints(lines: list[str], facts: PointcutFacts) -> None:
    for category in sorted(facts.categories, key=_CATEGORY_ORDER.get):
        lines.append(f"    JOINPOINT {category.value}")


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
                "name": m.aspect_name,
                "wpa": m.wpa.render(),
                "waa": m.waa.render(),
                "wjp": m.wjp.render(),
                "wmca": m.wmca,
            }
            for m in metrics.per_aspect
        ],
        "per_class": [
            {
                "name": m.class_name,
                "wmca": m.wmca,
                "attributes": m.attribute_count,
                "wjp": m.wjp_contribution.render(),
            }
            for m in metrics.per_class
        ],
    }


def write_json(report: "VersionMetrics | ComparisonReport") -> str:
    if isinstance(report, ComparisonReport):
        payload = _comparison_payload(report)
    else:
        payload = _version_payload(report)
    return json.dumps(payload, indent=2) + "\n"


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


@dataclass
class DeltaEntry:
    version_id: str
    value: str
    delta: str | None


@dataclass
class ComparisonReport:
    versions: list[VersionMetrics]
    deltas: dict[str, list[DeltaEntry]]
    trends: dict[str, str]


def _trend(deltas: list[int | Fraction | None]) -> str:
    present = [d for d in deltas if d is not None]
    if not present or all(d == 0 for d in present):
        return "flat"
    if all(d >= 0 for d in present):
        return "increasing"
    if all(d <= 0 for d in present):
        return "decreasing"
    return "mixed"


def compare_versions(reports: list[VersionMetrics]) -> ComparisonReport:
    """Per-metric deltas across consecutive versions plus a trend verdict."""
    if len(reports) < 2:
        raise TooFewVersions(f"need at least 2 versions, got {len(reports)}")

    deltas: dict[str, list[DeltaEntry]] = {}
    trends: dict[str, str] = {}

    def series(metric: str, values, render, render_delta):
        entries: list[DeltaEntry] = []
        raw_deltas: list = []
        previous = None
        for m, value in zip(reports, values):
            if previous is None:
                entries.append(DeltaEntry(m.version_id, render(value), None))
            else:
                diff = None if value is None or previous is None else value - previous
                raw_deltas.append(diff)
                entries.append(
                    DeltaEntry(
                        m.version_id,
                        render(value),
                        None if diff is None else render_delta(diff),
                    )
                )
            previous = value
        deltas[metric] = entries
        trends[metric] = _trend(raw_deltas)

    scale = reports[0].wpa.scale
    series(
        "wmca",
        [m.wmca for m in reports],
        str,
        lambda d: str(d) if d == 0 else f"{d:+d}",
    )
    series(
        "nac",
        [m.nac for m in reports],
        lambda v: "NA" if v is None else render_ratio(v),
        lambda d: render_ratio(d, signed=True),
    )
    for metric in ("wpa", "waa", "wjp"):
        series(
            metric,
            [getattr(m, metric).units for m in reports],
            lambda units: Weight(units, scale).render(),
            lambda d: ("-" if d < 0 else "+" if d > 0 else "") + Weight(abs(d), scale).render(),
        )
    return ComparisonReport(versions=list(reports), deltas=deltas, trends=trends)


def _comparison_payload(report: ComparisonReport) -> dict:
    return {
        "schema": COMPARISON_SCHEMA,
        "versions": [_version_payload(m) for m in report.versions],
        "deltas": {
            metric: [
                {"version": e.version_id, "value": e.value, "delta": e.delta}
                for e in entries
            ]
            for metric, entries in report.deltas.items()
        },
        "trends": dict(report.trends),
    }


def render_trends(report: ComparisonReport) -> str:
    lines = [f"TREND {metric.upper()} {verdict}" for metric, verdict in report.trends.items()]
    return "\n".join(lines) + "\n"
