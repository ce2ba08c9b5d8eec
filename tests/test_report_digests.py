"""Every report of the seed-1 and seed-7 bench corpora, byte for byte, on this interpreter.

Each workload's corpus is generated by ``bench/corpus.py`` at each seed,
written to a temporary directory and run through ``cli.main`` in-process.
The run must pass the bench gate (``bench/gate.py`` ``check_run``: exit
code, the oracle's values in every report and the stdout table), and the
digest of its reports and stdout must be the one committed in
``tests/report_digests_seed<seed>.json``, which the bench CI step also
checks. So every interpreter that runs tier-1 checks that the reports are
byte-identical, not only the one that runs the bench.
"""

from __future__ import annotations

import importlib
import json

import pytest

from aometrics.cli import main
from helpers import MINI_UAS, REPO_ROOT

SEEDS = (1, 7)
DIGESTS = {
    seed: json.loads((REPO_ROOT / "tests" / f"report_digests_seed{seed}.json").read_text("utf-8"))
    for seed in SEEDS
}


@pytest.fixture
def bench(monkeypatch):
    """The bench's own ``corpus`` and ``gate`` modules, imported from ``bench/``."""
    monkeypatch.syspath_prepend(str(REPO_ROOT / "bench"))
    return importlib.import_module("corpus"), importlib.import_module("gate")


@pytest.mark.parametrize(
    ("seed", "workload"), [(seed, workload) for seed in SEEDS for workload in sorted(DIGESTS[seed])]
)
def test_reports_pass_the_gate_with_the_committed_digest(seed, workload, tmp_path, bench, capsys):
    corpus_mod, gate = bench
    corpus = corpus_mod.generate(workload, seed, MINI_UAS)
    corpus_dir, out_dir = (tmp_path / "corpus").resolve(), (tmp_path / "out").resolve()
    corpus.write(corpus_dir)
    code = main(corpus.cli_args(corpus_dir, out_dir))
    stdout, stderr = capsys.readouterr()
    assert gate.check_run(corpus, out_dir, code, stdout, stderr) == []
    assert gate.report_digest(out_dir, corpus_dir, stdout) == DIGESTS[seed][workload]
