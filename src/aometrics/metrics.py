"""The five complexity metrics over parsed source units.

WPA  weighted pointcuts per aspect: designator weight plus join-point
     signature weight, summed over an aspect's declared pointcuts.
WAA  weighted advices per aspect: advice-kind weights summed.
WJP  weighted join points: every declared pointcut (in aspects and in
     classes) contributes the summed weights of its join-point categories;
     inline advice expressions contribute directly, while advice bound to
     a bare named pointcut does not (the declaration already counted).
WMCA unit weight of 1 per non-constructor method, summed over classes and
     aspects.
NAC  class attributes divided by class count (nested classes included,
     aspect fields excluded).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from decimal import ROUND_HALF_EVEN, Decimal
from fractions import Fraction

from .diagnostics import Diagnostic, warning
from .errors import StrictModeParseFailure
from .parser import (
    AspectDecl,
    ClassDecl,
    PointcutDecl,
    SourceUnit,
    file_label,
    walk_classes,
)
from .pointcuts import (
    KINDED_DESIGNATORS,
    NamedRef,
    Not,
    PointcutExpr,
    Primitive,
    extract_signature_pattern,
    is_combined,
    walk_primitives,
)
from .scanner import VersionRef
from .weights import (
    JoinPointCategory,
    SpecificityLevel,
    Weight,
    WeightTable,
    signature_specificity,
    signature_weight,
)


@dataclass
class AspectMetrics:
    aspect_name: str
    wpa: Weight
    waa: Weight
    wjp: Weight
    wmca: int


@dataclass
class ClassMetrics:
    class_name: str
    wmca: int
    attribute_count: int
    wjp_contribution: Weight


@dataclass
class VersionMetrics:
    version_id: str
    wpa: Weight
    waa: Weight
    wjp: Weight
    wmca: int
    class_attribute_count: int  # NAC numerator: attributes declared in classes
    class_count: int  # NAC denominator: classes, nested included
    aspect_count: int
    method_count: int
    attribute_count: int
    per_aspect: list[AspectMetrics] = field(default_factory=list)
    per_class: list[ClassMetrics] = field(default_factory=list)
    aspect_free: bool = True
    diagnostics: list[Diagnostic] = field(default_factory=list)

    @property
    def nac(self) -> Fraction | None:
        if self.class_count == 0:
            return None
        return Fraction(self.class_attribute_count, self.class_count)

    def nac_rendered(self) -> str:
        if self.class_count == 0:
            return "NA"
        return render_ratio(self.nac)


def render_ratio(value: Fraction, signed: bool = False) -> str:
    """Exact three-decimal rendering of a ratio (banker's rounding).

    ``signed`` prefixes a positive value with ``+``, as deltas are shown.
    """
    dec = (Decimal(value.numerator) / Decimal(value.denominator)).quantize(
        Decimal("0.001"), rounding=ROUND_HALF_EVEN
    )
    return f"+{dec}" if signed and value > 0 else str(dec)


class _PointcutIndex:
    """Named-pointcut lookup within one source unit."""

    def __init__(self, unit: SourceUnit):
        self._by_container: dict[int, dict[str, PointcutDecl]] = {}
        self._qualified: dict[str, PointcutDecl] = {}
        self._simple: dict[str, PointcutDecl | None] = {}
        containers: list[tuple[str, object]] = [(a.name, a) for a in unit.aspects]
        containers.extend((name, cls) for name, cls in walk_classes(unit))
        for owner_name, owner in containers:
            local: dict[str, PointcutDecl] = {}
            for decl in owner.pointcuts:
                if decl.name is None:
                    continue
                local[decl.name] = decl
                self._qualified[f"{owner_name}.{decl.name}"] = decl
                if decl.name in self._simple:
                    self._simple[decl.name] = None  # ambiguous across containers
                else:
                    self._simple[decl.name] = decl
            self._by_container[id(owner)] = local

    def resolver_for(self, container: object):
        local = self._by_container.get(id(container), {})

        def resolve(name: str) -> PointcutDecl | None:
            if name in local:
                return local[name]
            if "." in name:
                return self._qualified.get(name)
            return self._simple.get(name)

        return resolve


def classify_joinpoint_categories(
    expr: PointcutExpr,
    *,
    resolve=None,
    diagnostics: list[Diagnostic] | None = None,
    file: str = "<unit>",
    line: int = 0,
    _seen: frozenset[int] = frozenset(),
) -> frozenset[JoinPointCategory]:
    """Map an expression to the set of join-point categories it selects.

    Leaves are visited left to right with an explicit stack, so a wide
    ``||`` chain needs no recursion; a named reference recurses once per
    declaration it resolves to.
    """
    cats: set[JoinPointCategory] = set()
    diags = diagnostics if diagnostics is not None else []
    stack = [expr]
    while stack:
        node = stack.pop()
        if isinstance(node, Primitive):
            cats.update(_primitive_categories(node, diags, file, line))
        elif isinstance(node, NamedRef):
            decl = resolve(node.name) if resolve is not None else None
            if decl is None:
                diags.append(
                    warning(file, line, f"unresolved pointcut reference '{node.name}'")
                )
            elif id(decl) not in _seen:
                cats.update(
                    classify_joinpoint_categories(
                        decl.expression,
                        resolve=resolve,
                        diagnostics=diags,
                        file=file,
                        line=line,
                        _seen=_seen | {id(decl)},
                    )
                )
        elif isinstance(node, Not):
            stack.append(node.child)
        else:  # And / Or
            stack.append(node.right)
            stack.append(node.left)
    if is_combined(expr):
        cats.add(JoinPointCategory.BOOLEAN_OR_COMBINED)
    return frozenset(cats)


def _primitive_categories(
    p: Primitive, diags: list[Diagnostic], file: str, line: int
) -> set[JoinPointCategory]:
    if not p.known:
        return set()
    d = p.designator
    if d in ("execution", "call"):
        pat = extract_signature_pattern(p, diagnostics=diags, file=file, line=line)
        if pat is not None and signature_specificity(pat) is SpecificityLevel.FULLY_QUALIFIED:
            return {JoinPointCategory.PARTICULAR_METHOD}
        if d == "execution":
            return {JoinPointCategory.METHOD_EXECUTION}
        return {JoinPointCategory.METHOD_CALL}
    if d in ("get", "set"):
        return {JoinPointCategory.ATTRIBUTE}
    if d == "handler":
        return {JoinPointCategory.EXCEPTION_HANDLING}
    if d == "adviceexecution":
        return {JoinPointCategory.WITHIN_ADVICE}
    if d == "within":
        if p.argument_text.endswith("..*"):
            return {JoinPointCategory.PARTICULAR_PACKAGE}
        return {JoinPointCategory.PARTICULAR_CLASS}
    if d in ("cflow", "cflowbelow"):
        return {JoinPointCategory.CONTROL_FLOW}
    # this/target/args/initialization variants and anything else: no category.
    return set()


def _pointcut_weight(
    expr: PointcutExpr,
    table: WeightTable,
    diags: list[Diagnostic],
    file: str,
    line: int,
) -> Weight:
    """CW of one pointcut: designator weights plus signature weights."""
    total = table.zero()
    for prim in walk_primitives(expr):
        if not prim.known:
            continue
        designator_weight = table.designator(prim.designator)
        if designator_weight is not None:
            total = total + designator_weight
        if prim.designator in KINDED_DESIGNATORS:
            pat = extract_signature_pattern(prim, diagnostics=diags, file=file, line=line)
            if pat is not None:
                total = total + signature_weight(pat, table)
    return total


def _expression_joinpoint_weight(
    expr: PointcutExpr,
    table: WeightTable,
    resolve,
    diags: list[Diagnostic],
    file: str,
    line: int,
) -> Weight:
    total = table.zero()
    categories = classify_joinpoint_categories(
        expr, resolve=resolve, diagnostics=diags, file=file, line=line
    )
    for category in sorted(categories, key=lambda c: c.value):
        total = total + table.joinpoint(category)
    return total


def wpa_aspect(
    a: AspectDecl,
    w: WeightTable,
    diagnostics: list[Diagnostic] | None = None,
    file: str = "<unit>",
) -> Weight:
    diags = diagnostics if diagnostics is not None else []
    total = w.zero()
    for decl in a.pointcuts:
        total = total + _pointcut_weight(decl.expression, w, diags, file, decl.source_line)
    return total


def waa_aspect(a: AspectDecl, w: WeightTable) -> Weight:
    total = w.zero()
    for advice in a.advices:
        total = total + w.advice(advice.kind)
    return total


def wmca_unit(u: ClassDecl | AspectDecl) -> int:
    """Methods weighted 1 each; constructors excluded, intertype included."""
    return sum(1 for m in u.methods if not m.is_constructor)


def _aspect_wjp(
    aspect: AspectDecl,
    table: WeightTable,
    resolve,
    diags: list[Diagnostic],
    file: str,
) -> Weight:
    total = table.zero()
    for decl in aspect.pointcuts:
        total = total + _expression_joinpoint_weight(
            decl.expression, table, resolve, diags, file, decl.source_line
        )
    for advice in aspect.advices:
        if isinstance(advice.expression, NamedRef):
            # Bound to a named pointcut: already counted at its declaration.
            continue
        total = total + _expression_joinpoint_weight(
            advice.expression, table, resolve, diags, file, advice.source_line
        )
    return total


def _class_wjp(
    cls: ClassDecl, table: WeightTable, resolve, diags: list[Diagnostic], file: str
) -> Weight:
    total = table.zero()
    for decl in cls.pointcuts:
        total = total + _expression_joinpoint_weight(
            decl.expression, table, resolve, diags, file, decl.source_line
        )
    return total


def wjp_version(
    units: list[SourceUnit], w: WeightTable, diagnostics: list[Diagnostic] | None = None
) -> tuple[Weight, list[tuple[str, Weight]], list[tuple[str, Weight]]]:
    """Version WJP plus the per-aspect and per-class parts."""
    diags = diagnostics if diagnostics is not None else []
    aspect_parts: list[tuple[str, Weight]] = []
    class_parts: list[tuple[str, Weight]] = []
    total = w.zero()
    for unit in units:
        label = file_label(unit.file)
        index = _PointcutIndex(unit)
        for aspect in unit.aspects:
            part = _aspect_wjp(aspect, w, index.resolver_for(aspect), diags, label)
            aspect_parts.append((aspect.name, part))
            total = total + part
        for qname, cls in walk_classes(unit):
            part = _class_wjp(cls, w, index.resolver_for(cls), diags, label)
            class_parts.append((qname, part))
            total = total + part
    return total, aspect_parts, class_parts


def nac_version(units: list[SourceUnit]) -> Fraction | None:
    """Attributes per class as an exact ratio; None when there is no class."""
    na, nc = _count_nac(units)
    if nc == 0:
        return None
    return Fraction(na, nc)


def _count_nac(units: list[SourceUnit]) -> tuple[int, int]:
    na = 0
    nc = 0
    for unit in units:
        for _, cls in walk_classes(unit):
            nc += 1
            na += len(cls.attributes)
    return na, nc


def measure_version(
    v: VersionRef | str,
    units: list[SourceUnit],
    w: WeightTable,
    strict: bool = False,
) -> VersionMetrics:
    """Aggregate the five metrics for one version's parsed units.

    Units carrying error diagnostics abort the measurement in strict mode
    and are excluded from it otherwise.
    """
    version_id = v if isinstance(v, str) else v.id
    failed = [u for u in units if u.has_errors]
    if strict and failed:
        raise StrictModeParseFailure(sorted(file_label(u.file) for u in failed))

    usable = sorted((u for u in units if not u.has_errors), key=lambda u: file_label(u.file))
    diags: list[Diagnostic] = []
    for unit in units:
        diags.extend(unit.parse_diagnostics)
    for unit in failed:
        diags.append(
            warning(file_label(unit.file), 0, "file excluded from metrics (parse errors)")
        )

    per_aspect: list[AspectMetrics] = []
    per_class: list[ClassMetrics] = []
    wpa = w.zero()
    waa = w.zero()
    wjp = w.zero()
    method_count = 0
    attribute_count = 0

    for unit in usable:
        label = file_label(unit.file)
        index = _PointcutIndex(unit)
        for aspect in unit.aspects:
            resolve = index.resolver_for(aspect)
            a_wpa = wpa_aspect(aspect, w, diags, label)
            a_waa = waa_aspect(aspect, w)
            a_wjp = _aspect_wjp(aspect, w, resolve, diags, label)
            per_aspect.append(
                AspectMetrics(aspect.name, a_wpa, a_waa, a_wjp, wmca_unit(aspect))
            )
            wpa = wpa + a_wpa
            waa = waa + a_waa
            wjp = wjp + a_wjp
            method_count += len(aspect.methods)
            attribute_count += len(aspect.attributes)
        for qname, cls in walk_classes(unit):
            resolve = index.resolver_for(cls)
            c_wjp = _class_wjp(cls, w, resolve, diags, label)
            per_class.append(
                ClassMetrics(qname, wmca_unit(cls), len(cls.attributes), c_wjp)
            )
            wjp = wjp + c_wjp
            method_count += len(cls.methods)
            attribute_count += len(cls.attributes)

    per_aspect.sort(key=lambda m: m.aspect_name)
    per_class.sort(key=lambda m: m.class_name)
    na = sum(m.attribute_count for m in per_class)
    wmca = sum(m.wmca for m in per_class) + sum(m.wmca for m in per_aspect)

    return VersionMetrics(
        version_id=version_id,
        wpa=wpa,
        waa=waa,
        wjp=wjp,
        wmca=wmca,
        class_attribute_count=na,
        class_count=len(per_class),
        aspect_count=len(per_aspect),
        method_count=method_count,
        attribute_count=attribute_count,
        per_aspect=per_aspect,
        per_class=per_class,
        aspect_free=not per_aspect,
        diagnostics=diags,
    )
