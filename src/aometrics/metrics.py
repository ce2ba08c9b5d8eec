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

from fractions import Fraction

from .diagnostics import Diagnostic, FrozenRecord, Record, relabeled, warning
from .errors import StrictModeParseFailure
from .parser import AdviceDecl, PointcutDecl, SourceUnit, TypeDecl, walk_classes
from .pointcuts import (
    KINDED_DESIGNATORS,
    And,
    NamedRef,
    Not,
    Or,
    Primitive,
    extract_signature_pattern,
)
from .scanner import VersionRef
from .weights import (
    JoinPointCategory,
    SpecificityLevel,
    Weight,
    WeightTable,
    render_fixed,
    signature_specificity,
)


class AspectMetrics(Record):
    __slots__ = ("aspect_name", "wpa", "waa", "wjp", "wmca")

    def __init__(self, aspect_name: str, wpa: Weight, waa: Weight, wjp: Weight, wmca: int):
        self.aspect_name = aspect_name
        self.wpa = wpa
        self.waa = waa
        self.wjp = wjp
        self.wmca = wmca


class ClassMetrics(Record):
    __slots__ = ("class_name", "wmca", "attribute_count", "wjp_contribution")

    def __init__(self, class_name: str, wmca: int, attribute_count: int, wjp_contribution: Weight):
        self.class_name = class_name
        self.wmca = wmca
        self.attribute_count = attribute_count
        self.wjp_contribution = wjp_contribution


class VersionMetrics(Record):
    """One version's metrics. Every total is summed here from the rows, at
    ``scale``, so no total can disagree with its rows."""

    __slots__ = (
        "version_id", "wpa", "waa", "wjp", "wmca", "class_attribute_count", "class_count",
        "aspect_count", "method_count", "attribute_count", "per_aspect", "per_class",
        "aspect_free", "diagnostics",
    )

    def __init__(
        self,
        version_id: str,
        scale: int,
        method_count: int,
        attribute_count: int,
        per_aspect: list[AspectMetrics],
        per_class: list[ClassMetrics],
        diagnostics: list[Diagnostic],
    ):
        aspect_wjp = sum([a.wjp.units for a in per_aspect])
        self.version_id = version_id
        self.wpa = Weight(sum([a.wpa.units for a in per_aspect]), scale)
        self.waa = Weight(sum([a.waa.units for a in per_aspect]), scale)
        self.wjp = Weight(aspect_wjp + sum([c.wjp_contribution.units for c in per_class]), scale)
        self.wmca = sum([c.wmca for c in per_class]) + sum([a.wmca for a in per_aspect])
        self.class_attribute_count = sum([c.attribute_count for c in per_class])
        self.class_count = len(per_class)
        self.aspect_count = len(per_aspect)
        self.method_count = method_count
        self.attribute_count = attribute_count
        self.per_aspect = per_aspect
        self.per_class = per_class
        self.aspect_free = not per_aspect
        self.diagnostics = diagnostics

    @property
    def nac(self) -> Fraction | None:
        if self.class_count == 0:
            return None
        return Fraction(self.class_attribute_count, self.class_count)

    def nac_rendered(self) -> str:
        if self.class_count == 0:
            return "NA"
        return render_fixed(self.class_attribute_count, self.class_count, 3)


class PointcutFacts(FrozenRecord):
    """What WPA, WJP and the log read from one pointcut or advice.

    Advice bound to a bare named pointcut gets an empty record: it selects
    through that declaration, which already counts (and may be abstract,
    which the parser does not record).
    """

    __slots__ = ("designators", "levels", "categories")

    def __init__(
        self,
        designators: tuple[str, ...],  # each known primitive's, left to right
        levels: tuple[SpecificityLevel, ...],  # each well-formed signature's
        categories: frozenset[JoinPointCategory],  # resolved through references
    ):
        object.__setattr__(self, "designators", designators)
        object.__setattr__(self, "levels", levels)
        object.__setattr__(self, "categories", categories)


def _pointcut_units(facts: PointcutFacts, table: WeightTable) -> int:
    """CW of a pointcut in table units: designator plus signature weights."""
    designator_weights = table.designator_weights
    level_weights = table.signature_level_weights
    units = 0
    for designator in facts.designators:
        weight = designator_weights.get(designator)
        if weight is not None:
            units += weight.units
    for level in facts.levels:
        units += level_weights[level].units
    return units


def _joinpoint_units(facts: PointcutFacts, table: WeightTable) -> int:
    weights = table.joinpoint_type_weights
    return sum([weights[category].units for category in facts.categories])


# Categories are collected as bit masks: bit i stands for the i-th member
# of JoinPointCategory, so a union is an ``|`` on ints and hashes no enum.
_BIT = {category: 1 << i for i, category in enumerate(JoinPointCategory)}
_PARTICULAR_METHOD = _BIT[JoinPointCategory.PARTICULAR_METHOD]
_PARTICULAR_CLASS = _BIT[JoinPointCategory.PARTICULAR_CLASS]
_PARTICULAR_PACKAGE = _BIT[JoinPointCategory.PARTICULAR_PACKAGE]
_COMBINED = _BIT[JoinPointCategory.BOOLEAN_OR_COMBINED]
_FULLY_QUALIFIED = SpecificityLevel.FULLY_QUALIFIED

# execution/call with a fully qualified signature and within are decided in
# the builder; this/target/args/withincode/*initialization select nothing.
_BIT_BY_DESIGNATOR = {
    "execution": _BIT[JoinPointCategory.METHOD_EXECUTION],
    "call": _BIT[JoinPointCategory.METHOD_CALL],
    "get": _BIT[JoinPointCategory.ATTRIBUTE],
    "set": _BIT[JoinPointCategory.ATTRIBUTE],
    "handler": _BIT[JoinPointCategory.EXCEPTION_HANDLING],
    "adviceexecution": _BIT[JoinPointCategory.WITHIN_ADVICE],
    "cflow": _BIT[JoinPointCategory.CONTROL_FLOW],
    "cflowbelow": _BIT[JoinPointCategory.CONTROL_FLOW],
}

# One shared frozenset per mask that has occurred, filled on first use. It
# holds at most 2 ** len(JoinPointCategory) = 1,024 entries.
_CATEGORY_SETS: dict[int, frozenset[JoinPointCategory]] = {}


def _category_set(mask: int) -> frozenset[JoinPointCategory]:
    categories = _CATEGORY_SETS.get(mask)
    if categories is None:
        categories = frozenset(category for category, bit in _BIT.items() if mask & bit)
        _CATEGORY_SETS[mask] = categories
    return categories


def classify_joinpoint_categories(
    unit: SourceUnit, diagnostics: list[Diagnostic] | None = None
) -> dict[int, PointcutFacts]:
    """One facts record per pointcut and advice of a unit, keyed by ``id(decl)``.

    The unit's declarations are classified on the first call only. Their
    facts and diagnostics, the latter with no file label, are kept in
    ``unit.cache``, which every unit sharing those declarations shares (see
    ``cli._parse_version``). Each call appends the diagnostics, labeled
    with the unit's own path, to ``diagnostics`` and returns the same dict,
    which callers must not change.
    """
    cache = unit.cache
    stored = cache.classification
    if stored is None:
        found: list[Diagnostic] = []
        stored = cache.classification = (_classify(unit, found), tuple(found))
    facts, found = stored
    if found and diagnostics is not None:
        diagnostics.extend(relabeled(found, unit.file))
    return facts


def _classify(unit: SourceUnit, diags: list[Diagnostic]) -> dict[int, PointcutFacts]:
    """Classify a unit's pointcuts and advice; diagnostics get an empty file label.

    Each declaration's own leaves are classified once, and each diagnostic
    is reported at the line of the declaration that holds the fault. A
    named reference resolves in the scope of the declaration making it.
    A declaration's categories are the union over every declaration it
    reaches. A worklist pushes each grown set back along the reversed
    references. A set only grows, so each declaration is pushed at most
    once more than there are categories: the work is linear in the
    references, and cycles need no special case.
    """
    containers: list[tuple[str, TypeDecl]] = [(a.name, a) for a in unit.aspects]
    containers.extend(walk_classes(unit))
    if not any(owner.pointcuts or owner.advices for _, owner in containers):
        return {}
    qualified: dict[str, PointcutDecl] = {}
    simple: dict[str, PointcutDecl | None] = {}  # None: declared by two containers
    local_names: list[dict[str, PointcutDecl]] = []  # per container, its last declarations
    for owner_name, owner in containers:
        local: dict[str, PointcutDecl] = {}
        for decl in owner.pointcuts:
            name = decl.name
            if name is not None:
                if name in local:
                    diags.append(
                        warning(
                            "",
                            decl.source_line,
                            f"duplicate pointcut '{name}' in '{owner_name}';"
                            " references resolve to the last one",
                        )
                    )
                local[name] = decl
        for name, decl in local.items():
            qualified[f"{owner_name}.{name}"] = decl
            simple[name] = None if name in simple else decl
        local_names.append(local)

    own: dict[int, tuple[tuple[str, ...], tuple[SpecificityLevel, ...]]] = {}
    reached: dict[int, int] = {}  # declaration -> category mask
    referrers: dict[int, list[int]] = {}  # target -> each declaration naming it
    for (_, owner), local in zip(containers, local_names):
        for decl in (*owner.pointcuts, *owner.advices):
            key = id(decl)
            mask = 0
            designators: list[str] = []
            levels: list[SpecificityLevel] = []
            line = decl.source_line
            expr = decl.expression
            root = type(expr)
            if root is And or root is Or or root is Not:
                mask = _COMBINED
            # Leaves left to right; advice bound to a bare name walks nothing.
            stack = [] if root is NamedRef and type(decl) is AdviceDecl else [expr]
            while stack:
                node = stack.pop()
                node_type = type(node)
                if node_type is Primitive:
                    if not node.known:
                        continue
                    d = node.designator
                    designators.append(d)
                    if d in KINDED_DESIGNATORS:
                        pat = extract_signature_pattern(node, diagnostics=diags, file="", line=line)
                        if pat is not None:
                            level = signature_specificity(pat)
                            levels.append(level)
                            if level is _FULLY_QUALIFIED and (d == "execution" or d == "call"):
                                mask |= _PARTICULAR_METHOD
                                continue
                    elif d == "within":
                        if node.argument_text.endswith("..*"):
                            mask |= _PARTICULAR_PACKAGE
                        else:
                            mask |= _PARTICULAR_CLASS
                        continue
                    mask |= _BIT_BY_DESIGNATOR.get(d, 0)
                elif node_type is NamedRef:
                    name = node.name
                    if name in local:
                        target = local[name]
                    elif "." in name:
                        target = qualified.get(name)
                    else:
                        target = simple.get(name)
                    if target is None:
                        diags.append(
                            warning("", line, f"unresolved pointcut reference '{name}'")
                        )
                    else:
                        referrers.setdefault(id(target), []).append(key)
                elif node_type is Not:
                    stack.append(node.child)
                else:  # And / Or
                    stack.append(node.right)
                    stack.append(node.left)
            reached[key] = mask
            own[key] = (tuple(designators), tuple(levels))

    work = list(referrers)
    while work:
        target = work.pop()
        mask = reached[target]
        for referrer in referrers.get(target, ()):
            grown = mask & ~reached[referrer]
            if grown:
                reached[referrer] |= grown
                work.append(referrer)
    return {
        key: PointcutFacts(designators, levels, _category_set(reached[key]))
        for key, (designators, levels) in own.items()
    }


def waa_aspect(a: TypeDecl, w: WeightTable) -> Weight:
    weights = w.advice_weights
    return Weight(sum([weights[advice.kind].units for advice in a.advices]), w.scale)


def wmca_unit(u: TypeDecl) -> int:
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
        raise StrictModeParseFailure(sorted(u.file for u in failed))

    usable = sorted((u for u in units if not u.has_errors), key=lambda u: u.file)
    diags: list[Diagnostic] = []
    for unit in units:
        diags.extend(unit.parse_diagnostics)
    for unit in failed:
        diags.append(warning(unit.file, 0, "file excluded from metrics (parse errors)"))

    per_aspect: list[AspectMetrics] = []
    per_class: list[ClassMetrics] = []
    scale = w.scale
    method_count = 0
    attribute_count = 0

    for unit in usable:
        facts = classify_joinpoint_categories(unit, diags)
        for aspect in unit.aspects:
            a_wpa = 0
            for pc in aspect.pointcuts:
                a_wpa += _pointcut_units(facts[id(pc)], w)
            a_wjp = 0
            for decl in (*aspect.pointcuts, *aspect.advices):
                a_wjp += _joinpoint_units(facts[id(decl)], w)
            per_aspect.append(
                AspectMetrics(
                    aspect.name,
                    Weight(a_wpa, scale),
                    waa_aspect(aspect, w),
                    Weight(a_wjp, scale),
                    wmca_unit(aspect),
                )
            )
            method_count += len(aspect.methods)
            attribute_count += len(aspect.attributes)
        for qname, cls in walk_classes(unit):
            c_wjp = 0
            for pc in cls.pointcuts:
                c_wjp += _joinpoint_units(facts[id(pc)], w)
            per_class.append(
                ClassMetrics(qname, wmca_unit(cls), len(cls.attributes), Weight(c_wjp, scale))
            )
            method_count += len(cls.methods)
            attribute_count += len(cls.attributes)

    per_aspect.sort(key=lambda m: m.aspect_name)
    per_class.sort(key=lambda m: m.class_name)
    return VersionMetrics(
        version_id, scale, method_count, attribute_count, per_aspect, per_class, diags
    )
