"""Test-only oracle: the set-based pointcut classification and weight sums.

``aometrics.metrics`` now collects join-point categories as bit masks and
adds up integer weight units, building one ``Weight`` per total. This
module keeps the code it replaced: categories in Python sets, a generator
walk over each expression, and one ``Weight`` per addition. The
differential property in ``test_metrics_differential.py`` checks that both
give the same facts, diagnostics and version metrics. Nothing under
``src/`` imports this module.

It resolves names as the code did when it was replaced, where a name
declared twice in one container counts as declared by two. The
differential therefore generates each name at most once per container.
"""

from __future__ import annotations

from aometrics.diagnostics import Diagnostic, warning
from aometrics.errors import StrictModeParseFailure
from aometrics.metrics import (
    PointcutFacts,
    TypeMetrics,
    VersionMetrics,
    wmca_unit,
)
from aometrics.parser import (
    AdviceDecl,
    PointcutDecl,
    SourceUnit,
    TypeDecl,
    walk_classes,
)
from aometrics.pointcuts import (
    KINDED_DESIGNATORS,
    And,
    NamedRef,
    Not,
    Or,
    PointcutExpr,
    Primitive,
    extract_signature_pattern,
)
from aometrics.scanner import VersionRef
from aometrics.weights import (
    JoinPointCategory,
    SpecificityLevel,
    Weight,
    WeightTable,
    signature_specificity,
)


def walk_primitives(expr: PointcutExpr):
    """Yield every leaf (Primitive or NamedRef) of an expression, left to right.

    An explicit stack replaces recursion, so a wide ``||`` chain is safe.
    """
    stack = [expr]
    while stack:
        node = stack.pop()
        if isinstance(node, (Primitive, NamedRef)):
            yield node
        elif isinstance(node, Not):
            stack.append(node.child)
        else:  # And / Or
            stack.append(node.right)
            stack.append(node.left)


def is_combined(expr: PointcutExpr) -> bool:
    """True when the expression contains any boolean operator."""
    return isinstance(expr, (And, Or, Not))


def pointcut_weight(facts: PointcutFacts, table: WeightTable) -> Weight:
    """CW of a pointcut: designator weights plus signature weights."""
    total = Weight(0, table.scale)
    for designator in facts.designators:
        weight = table.designator_weights.get(designator)
        if weight is not None:
            total = total + weight
    for level in facts.levels:
        total = total + table.signature_level_weights[level]
    return total


def joinpoint_weight(facts: PointcutFacts, table: WeightTable) -> Weight:
    total = Weight(0, table.scale)
    for category in facts.categories:
        total = total + table.joinpoint_type_weights[category]
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
    reaches. A worklist pushes each grown set back along the reversed
    references. A set only grows, so each declaration is pushed at most
    once more than there are categories: the work is linear in the
    references, and cycles need no special case.
    """
    containers: list[tuple[str, object]] = [(a.name, a) for a in unit.aspects]
    containers.extend(walk_classes(unit))
    if not any(owner.pointcuts or getattr(owner, "advices", None) for _, owner in containers):
        return {}
    diags = diagnostics if diagnostics is not None else []
    label = unit.file
    qualified: dict[str, PointcutDecl] = {}
    simple: dict[str, PointcutDecl | None] = {}  # None: declared more than once
    for owner_name, owner in containers:
        for decl in owner.pointcuts:
            if decl.name is not None:
                qualified[f"{owner_name}.{decl.name}"] = decl
                simple[decl.name] = None if decl.name in simple else decl

    own: dict[int, tuple[tuple[str, ...], tuple[SpecificityLevel, ...]]] = {}
    reached: dict[int, set[JoinPointCategory]] = {}
    referrers: dict[int, list[int]] = {}  # target -> each declaration naming it
    for _, owner in containers:
        local = {decl.name: decl for decl in owner.pointcuts if decl.name is not None}
        for decl in (*owner.pointcuts, *getattr(owner, "advices", ())):
            key = id(decl)
            cats: set[JoinPointCategory] = set()
            designators: list[str] = []
            levels: list[SpecificityLevel] = []
            line = decl.source_line
            bound = isinstance(decl, AdviceDecl) and isinstance(decl.expression, NamedRef)
            for leaf in () if bound else walk_primitives(decl.expression):
                if isinstance(leaf, NamedRef):
                    name = leaf.name
                    if name in local:
                        target = local[name]
                    elif "." in name:
                        target = qualified.get(name)
                    else:
                        target = simple.get(name)
                    if target is None:
                        diags.append(
                            warning(label, line, f"unresolved pointcut reference '{name}'")
                        )
                    else:
                        referrers.setdefault(id(target), []).append(key)
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
            reached[key] = cats
            own[key] = (tuple(designators), tuple(levels))

    work = list(referrers)
    while work:
        target = work.pop()
        cats = reached[target]
        for referrer in referrers.get(target, ()):
            if not cats <= reached[referrer]:
                reached[referrer] |= cats
                work.append(referrer)
    return {
        key: PointcutFacts(designators, levels, frozenset(reached[key]))
        for key, (designators, levels) in own.items()
    }


def waa_aspect(a: TypeDecl, w: WeightTable) -> Weight:
    total = Weight(0, w.scale)
    for advice in a.advices:
        total = total + w.advice_weights[advice.kind]
    return total


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
        diags.append(
            warning(unit.file, 0, "file excluded from metrics (parse errors)")
        )

    per_aspect: list[TypeMetrics] = []
    per_class: list[TypeMetrics] = []
    wpa = waa = wjp = zero = Weight(0, w.scale)
    method_count = 0
    attribute_count = 0

    for unit in usable:
        facts = classify_joinpoint_categories(unit, diags)
        for aspect in unit.aspects:
            a_wpa = sum((pointcut_weight(facts[id(pc)], w) for pc in aspect.pointcuts), zero)
            a_waa = waa_aspect(aspect, w)
            a_wjp = sum(
                (joinpoint_weight(facts[id(d)], w) for d in (*aspect.pointcuts, *aspect.advices)),
                zero,
            )
            per_aspect.append(
                TypeMetrics(
                    aspect.name, a_wpa, a_waa, a_wjp, wmca_unit(aspect),
                    len(aspect.methods), len(aspect.attributes),
                )
            )
            wpa = wpa + a_wpa
            waa = waa + a_waa
            wjp = wjp + a_wjp
            method_count += len(aspect.methods)
            attribute_count += len(aspect.attributes)
        for qname, cls in walk_classes(unit):
            c_wjp = sum((joinpoint_weight(facts[id(pc)], w) for pc in cls.pointcuts), zero)
            per_class.append(
                TypeMetrics(
                    qname, zero, zero, c_wjp, wmca_unit(cls), len(cls.methods), len(cls.attributes)
                )
            )
            wjp = wjp + c_wjp
            method_count += len(cls.methods)
            attribute_count += len(cls.attributes)

    per_aspect.sort(key=lambda m: m.name)
    per_class.sort(key=lambda m: m.name)
    na = sum(m.attribute_count for m in per_class)
    wmca = sum(m.wmca for m in per_class) + sum(m.wmca for m in per_aspect)

    # Every field is set from the sums above, not by VersionMetrics.__init__,
    # so the differential compares the totals it derives from the rows with
    # the per-addition sums.
    record = VersionMetrics.__new__(VersionMetrics)
    for name, value in dict(
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
    ).items():
        setattr(record, name, value)
    return record
