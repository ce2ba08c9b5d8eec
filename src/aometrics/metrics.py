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
    AdviceDecl,
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
    """Named-pointcut lookup over one source unit's (name, container) pairs."""

    def __init__(self, containers: list[tuple[str, object]]):
        self._by_container: dict[int, dict[str, PointcutDecl]] = {}
        self._qualified: dict[str, PointcutDecl] = {}
        self._simple: dict[str, PointcutDecl | None] = {}
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


@dataclass(frozen=True)
class PointcutFacts:
    """What WPA, WJP and the log read from one pointcut or advice.

    Advice bound to a bare named pointcut gets an empty record: it selects
    through that declaration, which already counts (and may be abstract,
    which the parser does not record).
    """

    designators: tuple[str, ...]  # each known primitive's, left to right
    levels: tuple[SpecificityLevel, ...]  # each well-formed signature's
    categories: frozenset[JoinPointCategory]  # resolved through references

    def pointcut_weight(self, table: WeightTable) -> Weight:
        """CW of a pointcut: designator weights plus signature weights."""
        total = table.zero()
        for designator in self.designators:
            weight = table.designator(designator)
            if weight is not None:
                total = total + weight
        for level in self.levels:
            total = total + table.signature_level(level)
        return total

    def joinpoint_weight(self, table: WeightTable) -> Weight:
        total = table.zero()
        for category in self.categories:
            total = total + table.joinpoint(category)
        return total


# execution/call with a fully qualified signature and within are decided in
# the builder; this/target/args/withincode/*initialization select nothing.
_CATEGORY_BY_DESIGNATOR = {
    "execution": JoinPointCategory.METHOD_EXECUTION,
    "call": JoinPointCategory.METHOD_CALL,
    "get": JoinPointCategory.ATTRIBUTE,
    "set": JoinPointCategory.ATTRIBUTE,
    "handler": JoinPointCategory.EXCEPTION_HANDLING,
    "adviceexecution": JoinPointCategory.WITHIN_ADVICE,
    "cflow": JoinPointCategory.CONTROL_FLOW,
    "cflowbelow": JoinPointCategory.CONTROL_FLOW,
}


def classify_joinpoint_categories(
    unit: SourceUnit, diagnostics: list[Diagnostic] | None = None
) -> dict[int, PointcutFacts]:
    """One facts record per pointcut and advice of a unit, keyed by ``id(decl)``.

    Each declaration's own leaves are classified once, and each diagnostic
    is reported at the line of the declaration that holds the fault. A
    named reference resolves in the scope of the declaration making it.
    A declaration's categories are the union over every declaration it
    reaches; an iterative Tarjan pass over the reference graph gives every
    member of a cycle the cycle's union.
    """
    containers: list[tuple[str, object]] = [(a.name, a) for a in unit.aspects]
    containers.extend(walk_classes(unit))
    if not any(owner.pointcuts or getattr(owner, "advices", None) for _, owner in containers):
        return {}
    diags = diagnostics if diagnostics is not None else []
    label = file_label(unit.file)
    index = _PointcutIndex(containers)

    own: dict[int, tuple[tuple[str, ...], tuple[SpecificityLevel, ...]]] = {}
    local: dict[int, set[JoinPointCategory]] = {}
    edges: dict[int, list[int]] = {}
    for _, owner in containers:
        resolve = index.resolver_for(owner)
        for decl in (*owner.pointcuts, *getattr(owner, "advices", ())):
            key = id(decl)
            cats: set[JoinPointCategory] = set()
            refs: list[int] = []
            designators: list[str] = []
            levels: list[SpecificityLevel] = []
            line = decl.source_line
            bound = isinstance(decl, AdviceDecl) and isinstance(decl.expression, NamedRef)
            for leaf in () if bound else walk_primitives(decl.expression):
                if isinstance(leaf, NamedRef):
                    target = resolve(leaf.name)
                    if target is None:
                        diags.append(
                            warning(label, line, f"unresolved pointcut reference '{leaf.name}'")
                        )
                    else:
                        refs.append(id(target))
                    continue
                if not leaf.known:
                    continue
                d = leaf.designator
                designators.append(d)
                level = None
                if d in KINDED_DESIGNATORS:
                    pat = extract_signature_pattern(leaf, diagnostics=diags, file=label, line=line)
                    if pat is not None:
                        level = signature_specificity(pat)
                        levels.append(level)
                if level is SpecificityLevel.FULLY_QUALIFIED and d in ("execution", "call"):
                    cats.add(JoinPointCategory.PARTICULAR_METHOD)
                elif d == "within":
                    cats.add(
                        JoinPointCategory.PARTICULAR_PACKAGE
                        if leaf.argument_text.endswith("..*")
                        else JoinPointCategory.PARTICULAR_CLASS
                    )
                elif d in _CATEGORY_BY_DESIGNATOR:
                    cats.add(_CATEGORY_BY_DESIGNATOR[d])
            if is_combined(decl.expression):
                cats.add(JoinPointCategory.BOOLEAN_OR_COMBINED)
            local[key] = cats
            edges[key] = refs
            own[key] = (tuple(designators), tuple(levels))

    reached = _reached_union(local, edges)
    return {
        key: PointcutFacts(designators, levels, reached[key])
        for key, (designators, levels) in own.items()
    }


def _reached_union(
    local: dict[int, set[JoinPointCategory]], edges: dict[int, list[int]]
) -> dict[int, frozenset[JoinPointCategory]]:
    """Union of ``local`` over every node each node reaches (itself included).

    Iterative Tarjan: strongly connected components complete in reverse
    topological order, so a component's successors outside it are done
    when it is popped. Each node and each edge is visited once.
    """
    order: dict[int, int] = {}
    low: dict[int, int] = {}
    stack: list[int] = []
    on_stack: set[int] = set()
    work: list[tuple[int, object]] = []  # (node, iterator over its edges)
    done: dict[int, frozenset[JoinPointCategory]] = {}

    def enter(node: int) -> None:
        order[node] = low[node] = len(order)
        stack.append(node)
        on_stack.add(node)
        work.append((node, iter(edges[node])))

    for root in local:
        if root not in order:
            enter(root)
        while work:
            node, successors = work[-1]
            for succ in successors:
                if succ not in order:
                    enter(succ)
                    break
                if succ in on_stack:
                    low[node] = min(low[node], order[succ])
            else:
                work.pop()
                if work:
                    parent = work[-1][0]
                    low[parent] = min(low[parent], low[node])
                if low[node] != order[node]:
                    continue
                at = len(stack) - 1
                while stack[at] != node:  # the component is the stack above node
                    at -= 1
                members = stack[at:]
                del stack[at:]
                on_stack.difference_update(members)
                cats: set[JoinPointCategory] = set()
                for member in members:
                    cats.update(local[member])
                    for succ in edges[member]:
                        cats.update(done.get(succ, ()))
                union = frozenset(cats)
                for member in members:
                    done[member] = union
    return done


def waa_aspect(a: AspectDecl, w: WeightTable) -> Weight:
    total = w.zero()
    for advice in a.advices:
        total = total + w.advice(advice.kind)
    return total


def wmca_unit(u: ClassDecl | AspectDecl) -> int:
    """Methods weighted 1 each; constructors excluded, intertype included."""
    return sum(1 for m in u.methods if not m.is_constructor)


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
        facts = classify_joinpoint_categories(unit, diags)
        for aspect in unit.aspects:
            a_wpa = sum((facts[id(pc)].pointcut_weight(w) for pc in aspect.pointcuts), w.zero())
            a_waa = waa_aspect(aspect, w)
            a_wjp = sum(
                (facts[id(d)].joinpoint_weight(w) for d in (*aspect.pointcuts, *aspect.advices)),
                w.zero(),
            )
            per_aspect.append(
                AspectMetrics(aspect.name, a_wpa, a_waa, a_wjp, wmca_unit(aspect))
            )
            wpa = wpa + a_wpa
            waa = waa + a_waa
            wjp = wjp + a_wjp
            method_count += len(aspect.methods)
            attribute_count += len(aspect.attributes)
        for qname, cls in walk_classes(unit):
            c_wjp = sum((facts[id(pc)].joinpoint_weight(w) for pc in cls.pointcuts), w.zero())
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
