"""The traced counters of the seed-1 bench corpora, on this interpreter.

Each workload's corpus is generated by ``bench/corpus.py``, written to a
temporary directory and run through ``cli.main`` in-process, with every
function in ``bench/trace_run.py`` ``TARGETS`` wrapped by its ``Tracer``
as a traced bench run wraps it. ``bench/run.py`` ``layer_values`` then
sums the spans. No wrapped name may be missing, and each counter in
``tests/traced_counts_seed1.json`` must come out exactly, as the traced
bench step checks with ``tests/check_traced_counts.py``. So every
interpreter that runs tier-1 catches a renamed traced function, or work
that is repeated or lost, not only the one that runs the bench.
"""

from __future__ import annotations

import importlib
import json

import pytest

import aometrics.cli as cli
from helpers import MINI_UAS, REPO_ROOT

COUNTS = json.loads((REPO_ROOT / "tests" / "traced_counts_seed1.json").read_text("utf-8"))


@pytest.fixture
def bench(monkeypatch):
    """The bench's own ``corpus``, ``trace_run`` and ``run`` modules, imported from ``bench/``."""
    monkeypatch.syspath_prepend(str(REPO_ROOT / "bench"))
    return tuple(importlib.import_module(name) for name in ("corpus", "trace_run", "run"))


@pytest.mark.parametrize("workload", sorted(COUNTS))
def test_seed_1_traced_counts_match_the_committed_counts(workload, tmp_path, bench, monkeypatch, capsys):
    corpus_mod, trace_run, run = bench
    tracer = trace_run.Tracer()
    missing = []
    for module_name, attr, span, counter in trace_run.TARGETS:
        module = importlib.import_module(module_name)
        fn = getattr(module, attr, None)
        if fn is None:
            missing.append(f"{module_name}.{attr}")
        else:
            monkeypatch.setattr(module, attr, tracer.wrap(fn, span, counter))
    assert missing == []

    corpus = corpus_mod.generate(workload, 1, MINI_UAS)
    corpus_dir, out_dir = (tmp_path / "corpus").resolve(), (tmp_path / "out").resolve()
    corpus.write(corpus_dir)
    assert cli.main(corpus.cli_args(corpus_dir, out_dir)) == 0
    capsys.readouterr()

    spans = tmp_path / "spans.json"
    spans.write_text(json.dumps({"spans": tracer.spans, "missing": missing}), encoding="utf-8")
    values, gone = run.layer_values(spans, corpus.kinded, 1.0)
    assert gone == []
    assert {name: values[name] for name in COUNTS[workload]} == COUNTS[workload]
    if workload == "pointcut-dense":
        assert values["pointcuts.signature_calls_per_kinded_primitive"] == 1.0
