"""Run one benchmark workload in a fresh interpreter.

    python3 bench/worker.py --workload NAME --seed N --seconds S --trace 0|1 [--setup-only]

Imports codedpir from the checkout's `src/`, sets the workload up, prints
`ready <scale>` (the parent times set-up from process start to that line and
multiplies it by the scale), then runs whole units of work until S seconds
have passed and prints one JSON line. Timings are scaled to the nominal host
speed that bench/probe.py measures while they run.

With --trace 1 the units run twice: S/2 seconds untraced, then S/2 seconds
with every layer wrapped by the span recorder (bench/spans.py). Per-layer
numbers are per unit of the traced half; the tracing overhead is the traced
median unit time minus the untraced one.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path

from probe import Probe

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
perf = time.perf_counter


def percentile(values: list[float], pct: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * pct // 100))
    return ordered[int(rank) - 1]


def run_units(workload, seconds: float, probe: Probe, rec=None):
    """Whole units for about `seconds` (at least one, overrunning by at most
    half a unit): the unit times and (kind, latency, ok) per operation.

    Every operation's time is scaled to the nominal host speed measured
    around it; a unit's time is the sum of its operations' plus the rest of
    the unit scaled as a whole.
    """
    def timed(start, end):
        return (end - start) * probe.scale(start, end)

    units, ops = [], []
    clock = workload.clock
    begin = clock()
    while True:
        t0 = clock()
        unit_ops = workload.run_unit(rec)
        t1 = clock()
        scaled = [(kind, timed(a, b), ok) for kind, a, b, ok in unit_ops]
        rest = (t1 - t0) - sum(b - a for _, a, b, _ in unit_ops)
        units.append(sum(s for _, s, _ in scaled) + rest * probe.scale(t0, t1))
        ops.extend(scaled)
        if t1 - begin + (t1 - t0) / 2 >= seconds:
            return units, ops


def end_to_end(units, ops, repeats: bool) -> tuple[dict, dict]:
    """The end-to-end metrics, and details for the info line.

    When every unit repeats the same operations, an operation's latency is
    the median of its repeats, and the percentiles are taken over those.
    """
    stores = [s for kind, s, _ in ops if kind == "store"]
    if repeats:
        by_kind: dict[str, list[float]] = {}
        for kind, s, _ in ops:
            by_kind.setdefault(kind, []).append(s)
        latencies = [statistics.median(v) for v in by_kind.values()]
    else:
        latencies = [s for kind, s, _ in ops if kind != "store"]
    metrics = {
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "pass_s": (statistics.median(units), "s"),
        "op_ms_p50": (statistics.median(latencies) * 1e3, "ms"),
        "op_ms_p95": (percentile(latencies, 95) * 1e3, "ms"),
    }
    # p99 is not bounded: on retrieve it sits on the edge of the ~1% of
    # retrievals that pay a full garbage collection, so it jumps between runs
    info = {"units": len(units), "op_samples": len(latencies),
            "op_ms_p99": percentile(latencies, 99) * 1e3,
            "ops_per_s": sum(1 for kind, _, _ in ops if kind != "store") / sum(units)}
    if stores:
        info["stores"] = len(stores)
        info["store_ms_p50"] = statistics.median(stores) * 1e3
    return metrics, info


def per_layer(spans, workloads, setup_stats, stats, units: int,
              import_s: float, overhead_s: float, untraced_s: float) -> dict:
    def stat(name, key):
        return stats.get(name, {}).get(key, 0)

    def per_unit(x):
        x = x / units
        return int(x) if x == int(x) else x

    out = {}
    for _, _, name in spans.TARGETS:
        out[f"{name}.calls"] = (per_unit(stat(name, "calls")), "count")
        if name not in ("dss.Dss.node_content", "rng.rng_for"):
            out[f"{name}.self_s"] = (per_unit(stat(name, "self_s")), "s")
    ec, pl, cm = ("codes.erasure_correctable",
                  "optimizer.compute_erasure_pattern_list", "optimizer.compute_matrix")
    out[f"{ec}.hit_ratio"] = (stat(ec, "hits") / max(stat(ec, "calls"), 1), "ratio")
    out[f"{pl}.patterns"] = (per_unit(stat(pl, "patterns")), "count")
    out[f"{cm}.feasible_ratio"] = (stat(cm, "feasible") / max(stat(cm, "calls"), 1), "ratio")
    ext = "fields.FiniteField.extension"
    out[f"{ext}.setup_s"] = (setup_stats.get(ext, {}).get("self_s", 0.0), "s")
    for case in workloads.AUDIT_CASES:
        name = f"audit.privacy_audit.{case}"
        out[f"{name}.wall_s"] = (per_unit(stat(name, "wall_s")), "s")
    for layer, fixtures in (("reports.noncolluding_row", workloads.TABLE_I_II),
                            ("reports.colluding_row", workloads.TABLE_III)):
        for fx in fixtures:
            name = f"{layer}.{fx}"
            out[f"{name}.wall_s"] = (per_unit(stat(name, "wall_s")), "s")
    out["import_s"] = (import_s, "s")
    out["trace_overhead_ms"] = (overhead_s * 1e3, "ms")
    out["trace_overhead_share"] = (overhead_s / untraced_s, "ratio")
    return out


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--spans", help="write the traced spans to this file")
    args = ap.parse_args()

    with Probe().running() as probe:
        codedpir, import_s = import_package()
        import workloads
        make = workloads.WORKLOADS[args.workload]
        if not args.trace:
            workload = make(codedpir, args.seed, probe.clock)
            # the parent scales its set-up time by the host speed seen so far
            print(f"ready {probe.scale(0.0, probe.clock())}", flush=True)
            if args.setup_only:
                return 0
            units, ops = run_units(workload, args.seconds, probe)
            metrics, info = end_to_end(units, ops, workload.repeats)
            info.update(import_s=import_s, probe_samples=len(probe.samples))
            return finish(workload, ops, metrics, info)

        import spans
        rec = spans.Recorder(probe.clock)
        with rec.installed(codedpir):
            workload = make(codedpir, args.seed, probe.clock)
        setup_stats = rec.summary(probe.scale)
        rec.clear()
        print(f"ready {probe.scale(0.0, probe.clock())}", flush=True)
        half = args.seconds / 2
        plain_units, plain_ops = run_units(workload, half, probe)
        with rec.installed(codedpir):
            units, ops = run_units(workload, half, probe, rec)
        stats = rec.summary(probe.scale)
    untraced = statistics.median(plain_units)
    metrics = per_layer(spans, workloads, setup_stats, stats, len(units), import_s,
                        statistics.median(units) - untraced, untraced)
    info = {"units": len(units), "untraced_units": len(plain_units),
            "spans": len(rec.starts)}
    if args.spans:
        rec.write(Path(args.spans))
    return finish(workload, plain_ops + ops, metrics, info)


def import_package():
    """codedpir from this checkout's src/, and the seconds the import took."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    t0 = perf()
    import codedpir
    import_s = perf() - t0
    if not Path(codedpir.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"codedpir imported from {codedpir.__file__}, not {src}")
    return codedpir, import_s


def finish(workload, ops, metrics: dict, info: dict) -> int:
    """Print the result line: operation counts, metrics and run details."""
    info["unit"] = workload.unit
    info.update(workload.details())
    failed = sum(1 for _, _, ok in ops if not ok)
    print(json.dumps({"attempted": len(ops), "failed": failed, "info": info,
                      "metrics": {k: {"value": v, "unit": u}
                                  for k, (v, u) in metrics.items()}}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
