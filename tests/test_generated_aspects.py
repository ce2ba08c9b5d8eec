"""The bench's generated aspects, measured against the bench's own oracle.

``bench/corpus.py`` ``generated_aspect`` writes one aspect of combined and
named pointcuts and every advice kind, and returns the WPA, WAA and WJP it
holds in tenths, computed from the README weight tables by code that shares
nothing with ``src/``. ``neutral_edits`` then adds comments and body
statements that no metric can see. The single aspect row must match that
oracle exactly, so this is the ``pointcut-dense`` gate's check on every
interpreter, over drawn seeds.
"""

from __future__ import annotations

import importlib
import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aometrics import default_weights, measure_version, parse_source
from helpers import MINI_UAS, REPO_ROOT


@pytest.fixture(scope="module")
def dense():
    """``bench/corpus.py``, the AJ1.4 names it renames and the classes aspects target."""
    bench = str(REPO_ROOT / "bench")
    sys.path.insert(0, bench)
    try:
        corpus = importlib.import_module("corpus")
    finally:
        sys.path.remove(bench)
    stage = corpus.load_stages(MINI_UAS)["AJ1.4"]
    classes = sorted(c["name"] for c in stage.expected["per_class"] if "." not in c["name"])
    return corpus, stage.names, classes


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1), index=st.integers(0, 999))
def test_generated_aspect_matches_the_bench_oracle(dense, seed, index):
    corpus, names, classes = dense
    rng = random.Random(seed)
    renamer = corpus.Renamer(f"_{rng.randrange(16**5):05x}", names)
    local = [renamer.mapping[c] for c in classes]
    rel, text, oracle, _, _ = corpus.generated_aspect(rng, index, renamer, local)
    text = corpus.neutral_edits(text, random.Random(f"{seed}:{rel}"))
    table = default_weights()
    assert table.scale == 10  # the oracle is in tenths
    m = measure_version("v", [parse_source(text, rel)], table)
    (row,) = m.per_aspect
    assert (row.name, row.wpa.units, row.waa.units, row.wjp.units, row.wmca) == oracle
    assert oracle[-1] == 2
    assert (m.method_count, m.attribute_count, m.per_class, m.diagnostics) == (2, 1, [], [])
