"""Independent output checks for the benchmark.

Nothing here imports modeswitch.  Every reference is rebuilt from the
physics: the 2x2 Hamiltonian H = [[delta, kappa e^{i phi}],
[kappa e^{-i phi}, -delta]], its propagator expm(-i H t) per segment
(scipy), and the paper's closed forms (two-segment criterion and
ceiling, per-count descent bound, push-pull stage).  Each checker takes
a request and the directory the CLI wrote, and returns a list of problem
strings; an empty list means the output is correct.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import numpy as np
from scipy.linalg import expm

VERIFY_CHECKS = 19
FAULT_CHECK = "propagator_vs_expm"
# Cells this close to the feasibility boundary may classify either way.
BOUNDARY_BAND = 1e-9
SAMPLED_CELLS = 48
SAMPLED_ROWS = 24


def hamiltonian(delta: float, kappa: float, phi: float) -> np.ndarray:
    k = kappa * complex(math.cos(phi), math.sin(phi))
    return np.array([[delta, k], [k.conjugate(), -delta]], dtype=complex)


def segment_matrix(delta: float, kappa: float, phi: float, t: float) -> np.ndarray:
    return expm(-1j * t * hamiltonian(delta, kappa, phi))


def protocol_matrix(delta: float, kappa: float, segments) -> np.ndarray:
    """Ordered product of segment propagators; segments are (phase, duration)."""
    m = np.eye(2, dtype=complex)
    for phase, duration in segments:
        m = segment_matrix(delta, kappa, phase, duration) @ m
    return m


def state_at(delta: float, kappa: float, segments, t: float) -> np.ndarray:
    """Amplitudes (a1, a2) at time t, starting from mode 1."""
    m = np.eye(2, dtype=complex)
    elapsed = 0.0
    for phase, duration in segments:
        if t <= elapsed:
            break
        step = min(duration, t - elapsed)
        m = segment_matrix(delta, kappa, phase, step) @ m
        elapsed += duration
    return m[:, 0]


def transfer(m: np.ndarray) -> float:
    """|a2|^2 reached from mode 1."""
    return float(abs(m[1, 0]) ** 2)


def two_step_ceiling(delta: float, kappa: float, phi: float) -> float:
    """cos^2(psi - Theta/2): the best two-segment transfer when infeasible."""
    psi = math.atan(abs(delta) / kappa)
    cos_theta = (kappa**2 * math.cos(phi) + delta**2) / (delta**2 + kappa**2)
    theta = math.acos(max(-1.0, min(1.0, cos_theta)))
    return math.cos(psi - theta / 2.0) ** 2


def min_segments(delta: float, kappa: float, threshold: float) -> int:
    """Smallest k with (1 - cos(min(k (pi - 2 psi), pi))) / 2 >= threshold."""
    psi = math.atan(abs(delta) / kappa)
    step = math.pi - 2.0 * psi
    k = 1
    while (1.0 - math.cos(min(k * step, math.pi))) / 2.0 < threshold:
        k += 1
    return k


def pushpull_stage(delta: float, kappa: float) -> tuple[float, np.ndarray]:
    """First push-pull segment: W t1 = arctan(W / sqrt(kappa^2 - delta^2))."""
    w = math.hypot(delta, kappa)
    t1 = math.atan(w / math.sqrt(kappa**2 - delta**2)) / w
    return t1, segment_matrix(delta, kappa, 0.0, t1)


def cascade_powers(delta, kappa, theta1, theta2, offset) -> tuple[float, float]:
    """Forward and backward cross power of stage, phase section, offset stage."""
    t1, stage = pushpull_stage(delta, kappa)
    shifted = segment_matrix(delta, kappa, -offset, t1)
    section = np.diag([np.exp(1j * theta1), np.exp(1j * theta2)])
    forward = shifted @ section @ stage
    backward = stage @ section @ shifted
    return transfer(forward), transfer(backward)


def load_json(path: Path):
    return json.loads(path.read_text(encoding="utf-8"))


def load_csv(path: Path) -> np.ndarray:
    """Numeric CSV body (header skipped) as a 2-D float array."""
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def file_hashes(out: Path) -> dict[str, str]:
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out.iterdir())
        if p.is_file()
    }


def _sample(n: int, k: int, key: str) -> np.ndarray:
    """Deterministic row sample that always includes the first and last row."""
    rng = np.random.default_rng(int(hashlib.sha256(key.encode()).hexdigest()[:8], 16))
    picks = rng.choice(n, size=min(k, n), replace=False)
    return np.unique(np.concatenate([picks, [0, n - 1]]))


def _close(problems: list, label: str, got: float, want: float, tol: float) -> None:
    if not abs(got - want) <= tol:
        problems.append(f"{label}: got {got!r}, want {want!r} (tol {tol:g})")


def check_plan(req: dict, out: Path) -> list[str]:
    delta, kappa, threshold = req["delta"], req["kappa"], req["threshold"]
    plan = load_json(out / "plan.json")
    problems: list[str] = []
    if plan.get("threshold_met") is not True:
        problems.append("plan.json does not report threshold_met")
    segments = [(s["phase"], s["duration"]) for s in plan["segments"]]
    want_k = min_segments(delta, kappa, threshold)
    if len(segments) != want_k:
        problems.append(f"{len(segments)} segments, the descent bound needs {want_k}")
    reached = transfer(protocol_matrix(delta, kappa, segments))
    _close(problems, "plan.json achieved vs reference", plan["achieved"], reached, 1e-9)
    if reached < threshold - 1e-9:
        problems.append(f"reference transfer {reached!r} below threshold {threshold}")
    return problems


def check_simulate(req: dict, out: Path) -> list[str]:
    delta, kappa = req["delta"], req["kappa"]
    summary = load_json(out / "summary.json")
    problems: list[str] = []
    segments = [(s["phase"], s["duration"]) for s in summary["protocol"]]
    reached = transfer(protocol_matrix(delta, kappa, segments))
    got = summary["transfer"]
    _close(problems, "transfer vs reference", got, reached, 1e-9)

    rows = load_csv(out / "trajectory.csv")
    if len(rows) != req["samples"] + 1:
        problems.append(f"{len(rows)} trajectory rows, want {req['samples'] + 1}")
    norms = np.sqrt((rows[:, 1:5] ** 2).sum(axis=1))
    worst = float(np.abs(norms - 1.0).max())
    if worst > 1e-12:
        problems.append(f"trajectory norm off by {worst:.3e}")
    for i in _sample(len(rows), SAMPLED_ROWS, out.name):
        a = state_at(delta, kappa, segments, rows[i, 0])
        ref = np.array([a[0].real, a[0].imag, a[1].real, a[1].imag])
        err = float(np.abs(rows[i, 1:5] - ref).max())
        if err > 1e-9:
            problems.append(f"trajectory row {i} off the reference by {err:.3e}")
            break

    kind = req["kind"]
    if kind == "target":
        _close(problems, "transfer vs target", got, req["target"], 1e-9)
    elif kind == "feasible":
        if got < 1.0 - 1e-9:
            problems.append(f"feasible request reached only {got!r}")
    elif kind == "infeasible":
        want = two_step_ceiling(delta, kappa, req["phi"])
        _close(problems, "transfer vs cos^2(psi - Theta/2)", got, want, 1e-7)
    return problems


def check_feasibility(req: dict, out: Path) -> list[str]:
    n = req["grid"]
    rows = load_csv(out / "feasibility.csv")
    problems: list[str] = []
    if len(rows) != n * n:
        return [f"{len(rows)} feasibility rows, want {n * n}"]
    ratio, phi, flag = rows[:, 0], rows[:, 1], rows[:, 2]
    margin = (1.0 - 2.0 * ratio**2) - np.cos(phi)
    decided = np.abs(margin) > BOUNDARY_BAND
    wrong = decided & ((margin >= 0) != (flag == 1))
    if wrong.any():
        i = int(np.argmax(wrong))
        problems.append(
            f"{int(wrong.sum())} feasibility cells disagree with the criterion, "
            f"first at ratio {ratio[i]!r}, phi {phi[i]!r}"
        )
    boundary = load_csv(out / "boundary.csv")
    want = np.arccos(1.0 - 2.0 * boundary[:, 0] ** 2)
    err = float(np.abs(boundary[:, 1] - want).max()) if len(boundary) else 0.0
    if err > 1e-12:
        problems.append(f"critical phase off by {err:.3e}")
    return problems


def check_transfer_map(req: dict, out: Path) -> list[str]:
    n, delta, kappa, phi = req["grid"], req["delta"], req["kappa"], req["phi"]
    rows = load_csv(out / "transfer_map.csv")
    if len(rows) != n * n:
        return [f"{len(rows)} transfer-map rows, want {n * n}"]
    problems: list[str] = []
    w = math.hypot(delta, kappa)
    for i in _sample(len(rows), SAMPLED_CELLS, out.name):
        t1, t2 = rows[i, 0] * math.pi / w, rows[i, 1] * math.pi / w
        want = transfer(protocol_matrix(delta, kappa, [(0.0, t1), (phi, t2)]))
        if abs(rows[i, 2] - want) > 1e-12:
            problems.append(f"transfer-map cell {i}: {rows[i, 2]!r} vs {want!r}")
            break
    summary = load_json(out / "summary.json")
    _close(problems, "summary peak vs table max", summary["peak"], float(rows[:, 2].max()), 0.0)
    return problems


def check_isolator(req: dict, out: Path) -> list[str]:
    n, delta, kappa = req["grid"], req["delta"], req["kappa"]
    theta1, theta2, offset = req["theta1"], req["theta2"], req["rf_offset"]
    summary = load_json(out / "summary.json")
    problems: list[str] = []
    fwd, bwd = cascade_powers(delta, kappa, theta1, theta2, offset)
    _close(problems, "forward power", summary["forward_power"], fwd, 1e-12)
    _close(problems, "backward power", summary["backward_power"], bwd, 1e-12)
    rows = load_csv(out / "sweep.csv")
    if len(rows) != n * n:
        return problems + [f"{len(rows)} isolator rows, want {n * n}"]
    for i in _sample(len(rows), SAMPLED_CELLS, out.name):
        f, b = cascade_powers(delta, kappa, rows[i, 0], 0.0, rows[i, 1])
        err = max(abs(rows[i, 2] - f), abs(rows[i, 3] - b))
        if err > 1e-12:
            problems.append(f"isolator sweep row {i} off the 2x2 product by {err:.3e}")
            break
    return problems


def check_verify(req: dict, out: Path, code: int) -> list[str]:
    report = load_json(out / "report.json")
    checks = report["checks"]
    problems: list[str] = []
    if len(checks) != VERIFY_CHECKS or len({c["name"] for c in checks}) != VERIFY_CHECKS:
        problems.append(f"report.json holds {len(checks)} checks, want {VERIFY_CHECKS}")
    for c in checks:
        within = isinstance(c["residual"], (int, float)) and c["residual"] <= c["tolerance"]
        if within != c["passed"]:
            problems.append(f"{c['name']}: passed={c['passed']} but residual {c['residual']}")
    failing = sorted(c["name"] for c in checks if not c["passed"])
    want = [FAULT_CHECK] if req["inject_fault"] else []
    if failing != want:
        problems.append(f"failing checks {failing}, want {want}")
    want_code = 1 if req["inject_fault"] else 0
    if code != want_code:
        problems.append(f"exit code {code}, want {want_code}")
    return problems


CHECKERS = {
    "plan": check_plan,
    "simulate": check_simulate,
    "feasibility": check_feasibility,
    "transfer-map": check_transfer_map,
    "isolator": check_isolator,
}


def check_output(req: dict, out: Path, code: int) -> list[str]:
    """All problems with one request's output; [] when it is correct."""
    if req["command"] == "verify":
        return check_verify(req, out, code)
    if code != 0:
        return [f"exit code {code}, want 0"]
    return CHECKERS[req["command"]](req, out)


def protocol_wt(req: dict, out: Path) -> float:
    """W*T of the protocol a request's output describes.

    plan and simulate: the planned or solved protocol (explicit simulate
    protocols are inputs, not outputs, and count 0).  isolator: both
    stages of the cascade, 2 W t1, with W t1 = acos(Re D) read off the
    stage.  transfer-map, feasibility and verify write no protocol and
    count 0.
    """
    command = req["command"]
    if command in ("feasibility", "transfer-map", "verify"):
        return 0.0
    summary = load_json(out / ("plan.json" if command == "plan" else "summary.json"))
    if command == "isolator":
        return 2.0 * math.acos(summary["stage"]["d_re"])
    if command == "simulate" and summary["protocol_source"] == "config":
        return 0.0
    return math.hypot(req["delta"], req["kappa"]) * summary["total_duration"]
