"""Run one workload over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload large_dim --seeds 1 2 3 4 5 --seconds 25

Spread is the distance between the first and third quartile of the values,
as `statistics.quantiles(values, n=4)` gives them, over their median.  Runs
are sequential, one child at a time.  With --out the raw values are saved.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"


def spread(values: list[float]) -> float:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med if med else 0.0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--out")
    args = parser.parse_args()
    runs = []
    for seed in args.seeds:
        cmd = [sys.executable, str(RUN), "--workload", args.workload, "--seed", str(seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        start = time.perf_counter()
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
        elapsed = time.perf_counter() - start
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return proc.returncode
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        runs.append({"seed": seed, "elapsed_s": elapsed, **result})
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} failed={result['failed']}"
              f" elapsed={elapsed:.1f}s", flush=True)
    names = list(runs[0]["metrics"])
    print(f"{'metric':34s} {'median':>14s} {'min':>14s} {'max':>14s} {'iqr/median':>10s}")
    for name in names:
        values = [r["metrics"][name]["value"] for r in runs]
        s = spread(values) if len(values) > 1 else 0.0
        print(f"{name:34s} {statistics.median(values):14.6g} {min(values):14.6g} {max(values):14.6g} {s:10.4f}")
    if args.out:
        Path(args.out).write_text(json.dumps(runs, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
