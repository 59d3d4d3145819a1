"""Byte-for-byte repeat: the README runs, a sub-1 threshold plan, a capped
plan, a negative exponent flag, the isolator and the fast and full batteries
give the same exit codes, stdout, stderr and file bytes in two fresh
interpreters with different hash seeds."""

import json
import os
import subprocess
import sys
from pathlib import Path

import modeswitch

# Each interpreter runs these through modeswitch.cli.main in order, from
# its own working directory; {cfg} and {cap} name the shared config files.
INVOCATIONS = (
    "simulate --delta 0.5 --kappa 1 --out sim",
    "simulate --config {cfg} --out part",
    "feasibility --grid 64 --out feas",
    "transfer-map --delta 0.5 --phi 3.14159265 --out map",
    "plan --delta 2 --threshold 0.99 --out plan",
    "plan --delta -3 --kappa 1 --threshold 0.9 --out subone",
    "plan --config {cap} --out capped",
    "simulate --delta -1e-5 --kappa 1 --out negexp",
    "isolator --delta 0.5 --out iso",
    "verify --fast --out verify",
    "verify --out full",
)

RUNNER = """\
import contextlib, io, json, sys
from modeswitch.cli import main

records = []
for line in json.loads(sys.argv[1]):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(line.split())
    records.append([line, code, out.getvalue(), err.getvalue()])
print(json.dumps(records))
"""


def _files(root: Path) -> dict:
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


def test_cli_runs_repeat_byte_for_byte(tmp_path):
    cfg, cap = tmp_path / "cfg.json", tmp_path / "cap.json"
    cfg.write_text('{"target": 0.6}\n')
    cap.write_text('{"delta": 3, "max_segments": 2}\n')
    lines = json.dumps([i.format(cfg=cfg, cap=cap) for i in INVOCATIONS])
    src = str(Path(modeswitch.__file__).parents[1])
    runs = []
    for seed in ("0", "1"):
        cwd = tmp_path / f"run{seed}"
        cwd.mkdir()
        env = dict(os.environ, PYTHONHASHSEED=seed,
                   PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        proc = subprocess.Popen([sys.executable, "-c", RUNNER, lines], cwd=cwd, env=env,
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        runs.append((cwd, proc))
    (a, first), (b, second) = [(cwd, proc.communicate()) for cwd, proc in runs]
    assert first[1] == second[1] == ""
    records = json.loads(first[0])
    assert records == json.loads(second[0])
    codes = {line: code for line, code, _, _ in records}
    assert codes.pop("plan --config {cap} --out capped".format(cap=cap)) == 3
    assert set(codes.values()) == {0}
    files = _files(a)
    assert len(files) >= len(INVOCATIONS)
    assert files == _files(b)
