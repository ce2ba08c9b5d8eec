"""Check one traced bench result against the committed seed-1 counts.

Usage:
    python3 bench/run.py --workload W --seed 1 --seconds 5 --trace 1 \\
        | tail -n 1 | python3 tests/check_traced_counts.py W

The traced counters are exact for a seed, so any difference from
``traced_counts_seed1.json`` is repeated or lost work, never timing
noise; a change that moves a count on purpose updates the file and says
why. The check also fails when a traced layer is missing (a wrapped
function was renamed or moved) and, on ``pointcut-dense``, unless every
kinded primitive's signature is extracted exactly once.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

COUNTS = Path(__file__).resolve().parent / "traced_counts_seed1.json"


def main() -> int:
    workload = sys.argv[1]
    metrics = json.load(sys.stdin)["metrics"]
    expected = json.loads(COUNTS.read_text(encoding="utf-8"))[workload]
    missing = sorted(name for name, metric in metrics.items() if metric.get("missing"))
    counts = {name: metrics[name].get("value") for name in expected}
    ratio = metrics["pointcuts.signature_calls_per_kinded_primitive"].get("value")
    print(f"{workload}: missing {missing}, counts {counts}")
    print(f"signature calls per kinded primitive: {ratio}")
    failed = bool(missing)
    for name, value in expected.items():
        if counts[name] != value:
            print(f"{name}: {counts[name]}, expected {value}")
            failed = True
    if workload == "pointcut-dense" and ratio != 1.0:
        failed = True
    return int(failed)


if __name__ == "__main__":
    sys.exit(main())
