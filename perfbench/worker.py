"""One workload process: set up modeswitch, then time and check requests.

Started by run.py, never by hand.  It imports modeswitch from the
checkout's src/, runs one untimed warm-up request and prints READY.
--mode setup stops there: the process that started it times set-up up
to that line.  In --mode run it then cycles the request list in whole
passes until the timed requests add up to --seconds, and times SETUPS
fresh set-up processes spread through the run.  After every request and
every set-up it runs the calibration loop for a fixed share of the time
just spent, so run.py can scale the times to a reference host speed.
In --mode trace it runs one pass untraced and the same pass traced.
Every output is checked against checks.py.  The last line of stdout is
a JSON object for the parent.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import resource
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

import checks  # noqa: E402  (sits next to this file)
import workloads  # noqa: E402

MAX_PROBLEMS = 10
SETUPS = 7  # fresh set-up processes timed per run
CAL_SHARE = 0.05  # calibration time per second of work just done
CAL_MIN_CALLS = 2


def calibration_call() -> float:
    """Wall time of one fixed loop of small numpy products and Python math.

    The loop mixes interpreter work and small-array numpy calls, as the
    workloads do, and never touches modeswitch, so a change to the
    program cannot change its time; only the host's speed can.
    """
    t0 = time.perf_counter()
    m = np.array([[0.9, 0.1j], [0.1j, 0.9]])
    a = np.eye(2, dtype=complex)
    s = 0.0
    for i in range(400):
        a = m @ a
        s += math.sin(i * 0.1)
    return time.perf_counter() - t0


def import_cli():
    sys.path.insert(0, str(SRC))
    import modeswitch.cli as cli

    if not Path(cli.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"modeswitch imported from {cli.__file__}, not from {SRC}")
    return cli


class Runner:
    """Runs requests through cli.main in-process and checks each output."""

    def __init__(self, cli, out: Path):
        self.cli = cli
        self.out = out
        self.hashes: dict[str, dict] = {}  # first verified output per request
        self.codes: dict[str, int] = {}
        self.wt: dict[str, float] = {}
        self.latencies: list[float] = []  # timed requests only
        self.completed = 0  # timed requests that did not fail
        self.attempted = 0
        self.failed = 0
        self.calibration: list[float] = []
        self.problems: list[str] = []  # wrong outputs of operations that did not fail
        self.failures: list[str] = []
        self.tracer = None

    def argv(self, req: dict) -> list[str]:
        argv = [req["command"], *req["flags"], "--out", str(self.out / req["key"])]
        if req["config"] is not None:
            path = self.out / f"{req['key']}.config.json"
            if not path.exists():
                path.write_text(json.dumps(req["config"]), encoding="utf-8")
            argv += ["--config", str(path)]
        return argv

    def call(self, argv: list[str]) -> tuple[int | None, float, str]:
        sink_out, sink_err = io.StringIO(), io.StringIO()
        span = self.tracer.request_span() if self.tracer else contextlib.nullcontext()
        t0 = time.perf_counter()
        try:
            with span, contextlib.redirect_stdout(sink_out), contextlib.redirect_stderr(sink_err):
                code = self.cli.main(argv)
        except Exception as err:  # an operation that raises counts as failed
            code, sink_err = None, io.StringIO(f"{type(err).__name__}: {err}")
        return code, time.perf_counter() - t0, sink_err.getvalue()

    def calibrate(self, busy_s: float) -> None:
        """Sample the host's speed for CAL_SHARE of the time just spent."""
        calls = max(CAL_MIN_CALLS, round(busy_s * CAL_SHARE / 1e-3))
        self.calibration += [calibration_call() for _ in range(calls)]

    def run(self, req: dict) -> float:
        """Run and check one request; returns its wall time.

        A request marked untimed counts as attempted (and as failed when
        it fails) but adds nothing to the latencies.
        """
        code, dt, err = self.call(self.argv(req))
        self.attempted += 1
        timed = not req.get("untimed")
        if timed:
            self.latencies.append(dt)
        # A fault-injected battery must exit 1; whether it did is a check.
        if not (code == 0 or (code == 1 and req.get("inject_fault"))):
            self.failed += 1
            if len(self.failures) < MAX_PROBLEMS:
                self.failures.append(f"{req['key']}: exit code {code}: {err.strip()[:200]}")
            return dt
        self.completed += timed
        canon = req.get("same_as", req["key"])
        out = self.out / req["key"]
        if canon in self.hashes:
            if code != self.codes[canon] or checks.file_hashes(out) != self.hashes[canon]:
                self.note(f"{req['key']}: output differs from the first run of {canon}")
        else:
            for problem in checks.check_output(req, out, code):
                self.note(f"{req['key']}: {problem}")
            self.hashes[canon] = checks.file_hashes(out)
            self.codes[canon] = code
            self.wt[canon] = checks.protocol_wt(req, out)
        return dt

    def run_pass(self, reqs: list[dict]) -> float:
        return sum(self.run(req) for req in reqs)

    def note(self, problem: str) -> None:
        if len(self.problems) < MAX_PROBLEMS:
            self.problems.append(problem)

    def protocol_wt(self, reqs: list[dict]) -> float:
        return sum(self.wt.get(req.get("same_as", req["key"]), 0.0) for req in reqs)


def time_setup(args) -> float:
    """Seconds from starting a fresh set-up process to its READY line."""
    cmd = [sys.executable, __file__, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--mode", "setup", "--out", args.out, "--budget", "0"]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - t0
        proc.stdout.read()
    finally:
        proc.stdout.close()
        proc.wait()
    if ready.strip() != "READY" or proc.returncode != 0:
        raise SystemExit(f"set-up process exited with code {proc.returncode}")
    return setup_s


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--budget", type=float, required=True, help="wall seconds left for this process")
    args = ap.parse_args(argv)
    deadline = time.perf_counter() + args.budget

    cli = import_cli()
    out = Path(args.out)
    warmup = Runner(cli, out / f"warmup-{args.mode}")
    warmup.out.mkdir(parents=True, exist_ok=True)
    # Unchecked here: a broken program should still reach the timed loop and report correct=false.
    warmup_req = workloads.WARMUPS[args.workload]
    warmup.call(warmup.argv(warmup_req))
    print("READY", flush=True)
    if args.mode == "setup":
        return 0

    reqs = workloads.build(args.workload, args.seed)
    runner = Runner(cli, out / args.mode)
    runner.out.mkdir(parents=True, exist_ok=True)
    result: dict = {}
    if args.mode == "run":
        setups: list[float] = []
        measured, passes = 0.0, 0

        def next_setup() -> None:
            setup_s = time_setup(args)
            setups.append(setup_s)
            runner.calibrate(setup_s)

        while True:
            t_pass = time.perf_counter()
            for req in reqs:
                # Set-ups are spread evenly over the timed work, one per gap at most.
                if len(setups) < SETUPS and measured >= len(setups) * args.seconds / SETUPS:
                    next_setup()
                dt = runner.run(req)
                measured += 0.0 if req.get("untimed") else dt
                runner.calibrate(dt)
            passes += 1
            pass_wall = time.perf_counter() - t_pass
            if measured >= args.seconds or time.perf_counter() + pass_wall > deadline:
                break
        while len(setups) < SETUPS:
            next_setup()
        result.update(measured_s=measured, passes=passes, setups=setups)
    else:
        from tracing import Tracer

        import modeswitch

        untraced = runner.run_pass(reqs)
        tracer = Tracer(modeswitch)
        tracer.install()
        runner.tracer = tracer
        try:
            traced = runner.run_pass(reqs)
        finally:
            tracer.uninstall()
            runner.tracer = None
        overhead = traced - untraced
        trace_path = HERE / "out" / f"trace-{args.workload}-s{args.seed}.json"
        tracer.write(trace_path, {"workload": args.workload, "seed": args.seed,
                                  "untraced_s": untraced, "traced_s": traced})
        result.update(per_layer=tracer.metrics(overhead), untraced_s=untraced, traced_s=traced,
                      trace_file=str(trace_path))

    for problem in checks.check_output(warmup_req, warmup.out / warmup_req["key"], 0):
        runner.note(f"warm-up: {problem}")
    wt = runner.protocol_wt(reqs)
    if args.workload == "verify":
        # Every battery's output_determinism check simulates the warm-up
        # request twice; report.json holds no protocol of its own.
        wt = 2 * len(reqs) * checks.protocol_wt(warmup_req, warmup.out / warmup_req["key"])
    result.update(
        attempted=runner.attempted,
        failed=runner.failed,
        completed=runner.completed,
        problems=runner.problems,
        failures=runner.failures,
        latencies=runner.latencies,
        calibration=runner.calibration,
        protocol_wt=wt,
        rss_peak_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    )
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
