#!/usr/bin/env python3
"""Measure the false-alarm rate of the statistical privacy audits.

Runs each of the five statistical audits of the benchmark's `audit` workload
(its `p1_stat_*`, `p2_stat_*` and `p3_stat_*` cases, with their stores,
configs and trial counts) for audit seeds 0 .. SEEDS-1 and prints, per audit,
the share of seeds on which it flags, with a 95% Wilson interval. The protocols
are private by construction, so every flag is a false alarm; each audit's
designed rate is at most 1%.

Run from the repository root: python tools/audit_false_alarms.py
"""

import math
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import codedpir  # noqa: E402
from workloads import Audit  # noqa: E402

SEEDS = 2000


def wilson(hits: int, n: int) -> tuple[float, float]:
    """95% Wilson score interval of a binomial proportion."""
    p, z = hits / n, 1.959964
    centre = (p + z * z / (2 * n)) / (1 + z * z / n)
    half = z * math.sqrt(p * (1 - p) / n + z * z / (4 * n * n)) / (1 + z * z / n)
    return max(0.0, centre - half), min(1.0, centre + half)


def main() -> int:
    cases = Audit(codedpir, 0, time.perf_counter).cases
    print(f"{'audit':<14} {'flagged':>9} {'rate':>7}  95% interval   seconds")
    for name, (protocol, dss, config, kwargs, _) in cases.items():
        if "_stat_" not in name:
            continue
        t0 = time.perf_counter()
        flagged = sum(not codedpir.privacy_audit(protocol, dss, config,
                                                 **dict(kwargs, seed=seed)).passed
                      for seed in range(SEEDS))
        lo, hi = wilson(flagged, SEEDS)
        print(f"{name:<14} {flagged:>4}/{SEEDS:<4} {flagged / SEEDS:>7.2%}"
              f"  [{lo:.2%}, {hi:.2%}]  {time.perf_counter() - t0:7.1f}",
              flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
