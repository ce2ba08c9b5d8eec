"""Differential properties: bit-mask classification and unit sums against the oracle.

``classify_joinpoint_categories`` collects categories as bit masks and
``measure_version`` adds up integer weight units; ``reference_metrics``
keeps the set-based classification and the per-addition ``Weight`` sums
they replaced. On units built by the resolution oracle's generator, both
must give the same facts, diagnostics and version metrics, under the
default tenths table and under a table an override file moves to
hundredths.

The leaves add what the resolution oracle's generator leaves out: every
kinded designator at several specificity levels, malformed signatures,
``cflow``, ``!`` and ``&&`` inside one leaf, and an unknown designator.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_metrics
from aometrics.metrics import (
    _joinpoint_units,
    _pointcut_units,
    classify_joinpoint_categories,
    measure_version,
)
from aometrics.parser import parse_source
from aometrics.pointcuts import _split_member_name
from aometrics.weights import Weight, default_weights, load_weight_overrides
from test_metrics import _leaf, render_model, unit_models

_EXTRA_LEAVES = [
    "execution(public void x.Y.f(int))",
    "execution(* x.Y.f(..))",
    "call(int || long x.Y.*())",
    "call(* f())",
    "execution(* )",
    "get(* x.Y.*)",
    "set(static)",
    "handler(E(int))",
    "cflow(p())",
    "cflowbelow(execution(* *(..)))",
    "!within(x..*)",
    "(within(x.Y) && p())",
    "!(handler(E) && !q())",
    "withincode(* f())",
    "staticinitialization(x.Y)",
    "if(true)",
]
_leaves = st.one_of(_leaf, st.sampled_from(_EXTRA_LEAVES))

# Two decimals anywhere move the whole table to hundredths.
_HUNDREDTHS = """{
  "designator": {"execution": 0.15, "set": 0.05},
  "advice": {"around": 0.35},
  "joinpoint_type": {"particular_class": 0.75, "boolean_or_combined": 1.05},
  "signature_level": {"wildcard_name": 0.45}
}"""


@pytest.fixture(scope="module")
def tables(tmp_path_factory):
    path = tmp_path_factory.mktemp("weights") / "hundredths.json"
    path.write_text(_HUNDREDTHS, encoding="utf-8")
    hundredths = load_weight_overrides(path)
    assert hundredths.scale == 100
    return [default_weights(), hundredths]


@settings(max_examples=200, deadline=None)
@given(st.lists(unit_models(_leaves), min_size=1, max_size=2))
def test_facts_diagnostics_and_metrics_match_the_reference(tables, models):
    units = [parse_source(render_model(model)[0], f"S{i}.aj") for i, model in enumerate(models)]
    for unit in units:
        diags, reference_diags = [], []
        facts = classify_joinpoint_categories(unit, diags)
        reference = reference_metrics.classify_joinpoint_categories(unit, reference_diags)
        assert facts == reference
        assert diags == reference_diags
        for record in facts.values():
            for table in tables:
                assert Weight(
                    _pointcut_units(record, table), table.scale
                ) == reference_metrics.pointcut_weight(record, table)
                assert Weight(
                    _joinpoint_units(record, table), table.scale
                ) == reference_metrics.joinpoint_weight(record, table)
    for table in tables:
        assert measure_version("v", units, table) == reference_metrics.measure_version(
            "v", units, table
        )


def _split_member_name_by_characters(token: str) -> tuple[str, str]:
    """The character loop ``_split_member_name`` replaced."""
    for i in range(len(token) - 1, -1, -1):
        if token[i] != ".":
            continue
        before = token[i - 1] if i > 0 else ""
        after = token[i + 1] if i + 1 < len(token) else ""
        if before != "." and after != ".":
            return token[:i], token[i + 1 :]
    return "", token


@settings(max_examples=1000, deadline=None)
@given(st.text(alphabet="a.* ", max_size=12))
def test_split_member_name_matches_the_character_loop(token):
    assert _split_member_name(token) == _split_member_name_by_characters(token)
