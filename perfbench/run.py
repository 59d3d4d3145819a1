"""modeswitch benchmark: one command for every workload and metric.

    python3 perfbench/run.py [--workload plan|simulate|verify|maps|all]
                             [--seed N] [--seconds S] [--trace 0|1]

Run it from the root of a checkout through the command in BENCHMARK.json,
which pins the BLAS/OpenMP thread pools to one thread; it imports
modeswitch from src/.  --seconds defaults to BENCHMARK.json's
run_seconds.  Each workload runs as a closed loop with one client in its
own process, calling modeswitch.cli.main in-process (see README.md).
With --trace 0 it prints the end-to-end metrics, with --trace 1 the
per-layer metrics of a traced pass.  The last stdout line is one JSON
object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from tracing import unit  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

WALL_LIMIT_S = 170.0
# Timings are scaled to a host on which one worker.calibration_call takes
# this long (see README.md, "Host speed").
CAL_REF_S = 1.0e-3
UNITS = {
    "setup_s": "s",
    "throughput_ops_s": "1/s",
    "latency_p50_s": "s",
    "rss_peak_mb": "MB",
    "protocol_wt": "rad",
}


def spawn(workload: str, mode: str, seed: int, seconds: float, out: Path, deadline: float) -> dict:
    """Run one worker in its own process group; returns its result."""
    env = dict(os.environ, TMPDIR=str(out / "tmp"))
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--mode", mode, "--out", str(out),
           "--budget", f"{deadline - time.perf_counter():.3f}"]
    # The worker starts set-up processes of its own; killing the group ends them too.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT,
                            start_new_session=True)
    watchdog = threading.Timer(max(1.0, deadline - time.perf_counter()), os.killpg,
                               (proc.pid, signal.SIGKILL))
    watchdog.start()
    try:
        lines = proc.stdout.read().strip().splitlines()
        code = proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
    if not lines or lines[0] != "READY" or code != 0:
        raise RuntimeError(f"{workload} worker ({mode}) exited with code {code}")
    return json.loads(lines[-1])


def tail_percentile(latencies: list[float], speed: float) -> str:
    """Highest standard percentile with at least ten samples beyond it, scaled."""
    n = len(latencies)
    best = None
    for p in (75, 90, 95, 99, 99.9):
        if n * (1 - p / 100) >= 10:
            best = p
    if best is None:
        return f"latency: median only ({n} samples)"
    value = statistics.quantiles(latencies, n=1000, method="inclusive")[int(best * 10) - 1] * speed
    return f"latency: p{best:g} {value:.6g} s over {n} samples"


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    out = HERE / "out" / f"{workload}-s{seed}-{os.getpid()}"
    (out / "tmp").mkdir(parents=True, exist_ok=True)
    deadline = time.perf_counter() + WALL_LIMIT_S
    try:
        if trace:
            res = spawn(workload, "trace", seed, seconds, out, deadline)
            metrics = {k: {"value": v, "unit": unit(k)} for k, v in res["per_layer"].items()}
            notes = [f"trace: untraced pass {res['untraced_s']:.4f} s, traced {res['traced_s']:.4f} s, "
                     f"overhead {res['traced_s'] - res['untraced_s']:.4f} s; spans in {res['trace_file']}"]
        else:
            res = spawn(workload, "run", seed, seconds, out, deadline)
            lat = res["latencies"]
            # A slow spell of the shared host stretches every time alike;
            # the calibration loop, run between requests, measures it.
            speed = CAL_REF_S / statistics.fmean(res["calibration"])
            values = {
                "setup_s": statistics.median(res["setups"]) * speed,
                "throughput_ops_s": res["completed"] / (res["measured_s"] * speed),
                "latency_p50_s": statistics.median(lat) * speed,
                "rss_peak_mb": res["rss_peak_mb"],
                "protocol_wt": res["protocol_wt"],
            }
            metrics = {k: {"value": v, "unit": UNITS[k]} for k, v in values.items()}
            notes = [
                tail_percentile(lat, speed),
                f"passes: {res['passes']}, host speed factor {speed:.4f} "
                f"(calibration mean {statistics.fmean(res['calibration']) * 1e3:.4f} ms "
                f"over {len(res['calibration'])} calls)",
                f"unscaled: setup_s {statistics.median(res['setups']):.4f}, "
                f"throughput_ops_s {res['completed'] / res['measured_s']:.4f}, "
                f"latency_p50_s {statistics.median(lat):.4f}; set-ups "
                + ", ".join(f"{x:.4f}" for x in res["setups"]) + " s",
            ]
    finally:
        shutil.rmtree(out, ignore_errors=True)
    return {
        "correct": not res["problems"],
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": metrics,
        "notes": notes + [f"problem: {p}" for p in res["problems"]]
        + [f"failed: {f}" for f in dict.fromkeys(res["failures"])],
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="all", choices=(*WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=None, help="default: BENCHMARK.json run_seconds")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "modeswitch" / "__init__.py").is_file():
        print(f"perfbench: no modeswitch sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    seconds = args.seconds or json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        try:
            res = run_workload(name, args.seed, seconds, bool(args.trace))
        except RuntimeError as err:
            print(f"perfbench: {err}", file=sys.stderr)
            return 1
        for note in res.pop("notes"):
            print(f"{name}: {note}")
        for metric, m in res["metrics"].items():
            print(f"{name}: {metric} {m['value']:.6g} {m['unit']}")
        results[name] = res
    print(json.dumps(results[names[0]] if len(names) == 1 else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
