"""Repeat the benchmark over seeds and report each metric's spread.

    python3 perfbench/spread.py --workload plan --seeds 1-10

Each run is the command in BENCHMARK.json with the arguments every
benchmark run takes (--workload, --seed, --seconds run_seconds,
--trace 0).  For every metric it prints the median, the first and
third quartiles (statistics.quantiles(values, n=4)) and the spread
(Q3 - Q1) / median, plus the share of failed operations.  Runs are sequential, so the
numbers describe this machine at the time of the runs.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def seed_list(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    args = ap.parse_args(argv)
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    runs = []
    for seed in args.seeds:
        proc = subprocess.run(
            [*bench["command"], "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(bench["run_seconds"]), "--trace", "0"],
            capture_output=True, text=True, check=True, cwd=HERE.parent,
        )
        res = json.loads(proc.stdout.strip().splitlines()[-1])
        runs.append(res)
        print(f"seed {seed}: correct={res['correct']} attempted={res['attempted']} failed={res['failed']} "
              + " ".join(f"{k}={v['value']:.6g}" for k, v in res["metrics"].items()), flush=True)
    shares = {r["failed"] / r["attempted"] for r in runs}
    print(f"{args.workload}: correct in {sum(r['correct'] for r in runs)}/{len(runs)} runs, failed shares {sorted(shares)}")
    for metric in runs[0]["metrics"]:
        values = [r["metrics"][metric]["value"] for r in runs]
        q1, med, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / med if med else 0.0
        print(f"{args.workload} {metric}: median {med:.6g} q1 {q1:.6g} q3 {q3:.6g} spread {spread:.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
