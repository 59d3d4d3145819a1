"""The benchmark's checkers must reject corrupted outputs.

Each test writes a genuine output with the CLI, confirms the checker
accepts it, corrupts one thing and confirms the checker rejects it.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
from workloads import request  # noqa: E402

from modeswitch.cli import main as cli_main  # noqa: E402


def produce(req: dict, out: Path) -> int:
    argv = [req["command"], *req["flags"], "--out", str(out)]
    if req["config"] is not None:
        path = out.with_suffix(".config.json")
        path.write_text(json.dumps(req["config"]))
        argv += ["--config", str(path)]
    with contextlib.redirect_stdout(io.StringIO()):
        return cli_main(argv)


def test_simulate_rejects_sign_flipped_delta(tmp_path):
    req = request("sim", "simulate", delta=0.5, kappa=1.0, phi=3.0, samples=256, kind="feasible")
    flipped = request("flip", "simulate", delta=-0.5, kappa=1.0, phi=3.0, samples=256, kind="feasible")
    assert produce(req, tmp_path / "sim") == 0
    assert produce(flipped, tmp_path / "flip") == 0
    assert checks.check_output(req, tmp_path / "sim", 0) == []
    shutil.copy(tmp_path / "flip" / "trajectory.csv", tmp_path / "sim" / "trajectory.csv")
    problems = checks.check_output(req, tmp_path / "sim", 0)
    assert any("trajectory row" in p for p in problems)


def test_plan_rejects_a_dropped_segment(tmp_path):
    req = request("plan", "plan", delta=1.5, kappa=1.0, threshold=0.99)
    out = tmp_path / "plan"
    assert produce(req, out) == 0
    assert checks.check_output(req, out, 0) == []
    plan = json.loads((out / "plan.json").read_text())
    del plan["segments"][1]
    (out / "plan.json").write_text(json.dumps(plan))
    problems = checks.check_output(req, out, 0)
    assert any("segments" in p for p in problems)
    assert any("achieved vs reference" in p for p in problems)


def test_feasibility_rejects_a_flipped_cell(tmp_path):
    req = request("feas", "feasibility", grid=16)
    out = tmp_path / "feas"
    assert produce(req, out) == 0
    assert checks.check_output(req, out, 0) == []
    path = out / "feasibility.csv"
    lines = path.read_text().splitlines()
    row = 1 + 16 * 15 + 3  # ratio 1.2, phi 0.63: infeasible, far from the boundary
    ratio, phi, flag = lines[row].split(",")
    assert flag == "0"
    lines[row] = f"{ratio},{phi},1"
    path.write_text("\n".join(lines) + "\n")
    problems = checks.check_output(req, out, 0)
    assert any("disagree with the criterion" in p for p in problems)


def _report(out: Path, failing: set[str]) -> None:
    names = [f"check{i}" for i in range(checks.VERIFY_CHECKS - 1)] + [checks.FAULT_CHECK]
    rows = [{"name": n, "passed": n not in failing, "residual": 1.0 if n in failing else 0.0,
             "tolerance": 0.5, "detail": ""} for n in names]
    out.mkdir(parents=True, exist_ok=True)
    (out / "report.json").write_text(json.dumps({"passed": not failing, "checks": rows}))


@pytest.mark.parametrize(
    ("inject_fault", "failing", "code", "accepted"),
    [
        (False, set(), 0, True),
        (True, {checks.FAULT_CHECK}, 1, True),
        (True, {checks.FAULT_CHECK}, 0, False),  # wrong exit code
        (True, set(), 0, False),  # the fault went unnoticed
        (True, {checks.FAULT_CHECK, "check3"}, 1, False),  # another check failed too
        (False, {"check3"}, 1, False),
    ],
)
def test_verify_checker(tmp_path, inject_fault, failing, code, accepted):
    req = request("v", "verify", seed=1, fast=True, inject_fault=inject_fault)
    _report(tmp_path / "v", failing)
    assert (checks.check_output(req, tmp_path / "v", code) == []) is accepted
