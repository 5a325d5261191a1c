"""codedpir benchmark: one workload, one seed, one JSON result line.

    python3 bench/run.py --workload tables|audit|retrieve --seed N --seconds S --trace 0|1

Run it from the root of a checkout; the package is imported from `src/`. The
workload runs in a fresh interpreter (bench/worker.py). With --trace 0, set-up
is also timed in SETUP_RUNS further fresh interpreters and `setup_s` is the
median; the metrics are the `end_to_end` list of BENCHMARK.json. With
--trace 1 they are the `per_layer` list, and the spans are written to
bench/out/. The last line of standard output is the result object; a run
that cannot complete exits non-zero without printing one.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_RUNS = 2           # set-up-only interpreters besides the measured one
TIME_LIMIT_S = 170.0     # whole run, all interpreters together


class RunError(Exception):
    pass


def child(args, extra: list[str], deadline: float) -> tuple[float, str]:
    """Start a worker; return its set-up time (until it printed `ready`, scaled
    by the host speed it reports) and its last line of output."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), *extra]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                            env=dict(os.environ, PYTHONHASHSEED="0"))
    timer = threading.Timer(max(deadline - time.monotonic(), 0.0), proc.kill)
    timer.start()
    try:
        first = proc.stdout.readline()
        setup_s = time.perf_counter() - t0
        rest = proc.stdout.read()
        code = proc.wait()
    finally:
        timer.cancel()
        proc.stdout.close()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    words = first.split()
    if code != 0 or len(words) != 2 or words[0] != "ready":
        raise RunError(f"worker exited with {code} (first line {first.strip()!r})")
    setup_s *= float(words[1])
    lines = [ln for ln in rest.splitlines() if ln.strip()]
    return setup_s, lines[-1] if lines else ""


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=("tables", "audit", "retrieve"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    deadline = time.monotonic() + TIME_LIMIT_S

    if not (ROOT / "src" / "codedpir" / "__init__.py").is_file():
        print(f"no codedpir sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]

    try:
        setups = []
        extra = []
        if args.trace:
            extra = ["--spans", str(HERE / "out" / f"spans-{args.workload}-{args.seed}.tsv.gz")]
        else:
            for _ in range(SETUP_RUNS):
                setups.append(child(args, ["--setup-only"], deadline)[0])
        setup_s, line = child(args, extra, deadline)
        result = json.loads(line)
    except (RunError, json.JSONDecodeError) as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 1

    metrics = result["metrics"]
    if not args.trace:
        setups.append(setup_s)
        metrics["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
        result["info"]["setup_runs_s"] = setups
    if sorted(metrics) != sorted(wanted):
        missing = sorted(set(wanted) - set(metrics))
        extra_names = sorted(set(metrics) - set(wanted))
        print(f"metric names disagree with BENCHMARK.json: missing {missing}, "
              f"unexpected {extra_names}", file=sys.stderr)
        return 1
    attempted, failed = result["attempted"], result["failed"]
    info = dict(result["info"], failed_ratio=f"{failed}/{attempted}")
    print(json.dumps({"workload": args.workload, "seed": args.seed, "info": info}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": {k: metrics[k] for k in wanted}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
