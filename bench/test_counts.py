"""The exact per-layer counts repeat across two traced runs at a fixed seed.

    python3 -m pytest bench/test_counts.py

Later changes may quote these counts as counts. Each traced run is a fresh
interpreter running one untraced and one traced unit (about 25 s for
`tables`, 10 s for `audit`).
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
from workloads import AUDIT_TRIALS  # noqa: E402

EXACT = {
    "tables": ["codes.erasure_correctable.calls",
               "optimizer.compute_erasure_pattern_list.patterns"],
    "audit": ["protocol1.p1_plan.calls", "codes.encode.calls"],
}


def traced(workload: str, seed: int) -> dict:
    out = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "0", "--trace", "1"],
        capture_output=True, text=True, check=True, timeout=300,
        env=dict(os.environ, PYTHONHASHSEED="0"))
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert result["failed"] == 0
    return {k: v["value"] for k, v in result["metrics"].items()}


@pytest.mark.parametrize("workload", sorted(EXACT))
def test_exact_counts_repeat(workload):
    first, second = traced(workload, 0), traced(workload, 0)
    for name in EXACT[workload]:
        assert first[name] == second[name] > 0, name
        assert isinstance(first[name], int), name
    if workload == "audit":
        # one plan per file for the structural audit, then one per trial and file
        assert first["protocol1.p1_plan.calls"] == 2 * AUDIT_TRIALS + 2
