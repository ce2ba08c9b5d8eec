"""Check one untraced bench result against the committed report digests of its seed.

Usage:
    python3 bench/run.py --workload W --seed N --seconds 5 --trace 0 \\
        | tail -n 2 | python3 tests/check_report_digest.py W N

Of the two lines read, the first holds ``detail.digest``: the digest of
every report and of the stdout table, with the corpus root made portable.
The second is the result. The check fails unless every run passed the
gate and the digest is the workload's entry in
``report_digests_seed<N>.json`` (seeds 1 and 7 are committed). The corpus
is a pure function of the seed, so another digest means a report's bytes
changed; a change that moves a report on purpose updates the files and
says why.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main() -> int:
    workload, seed = sys.argv[1:3]
    detail_line, result_line = sys.stdin.read().splitlines()
    digest = json.loads(detail_line)["detail"]["digest"]
    result = json.loads(result_line)
    digests = HERE / f"report_digests_seed{seed}.json"
    expected = json.loads(digests.read_text(encoding="utf-8"))[workload]
    print(result)
    print(f"{workload} seed {seed}: report digest {digest}, expected {expected}")
    passed = result.get("correct") is True and result.get("failed") == 0 and digest == expected
    return int(not passed)


if __name__ == "__main__":
    sys.exit(main())
