"""Acceptance gate: end-to-end checks with explicit tolerances and budgets.

Each test prints one PASS/FAIL line (visible even under capture) so a
full run reads as a seven-line scorecard.  Budgets are wall-clock
seconds; tolerances are stated inline next to each assertion.
"""

import math
import time

import numpy as np
import pytest

from modeswitch import (
    BACKWARD,
    FORWARD,
    CouplerParams,
    CouplingSegment,
    IntegrationConfig,
    IsolatorSpec,
    ModeState,
    TransferMatrix,
    cross_power,
    integrate,
    minimal_plan_search,
    optimal_phases,
    protocol_propagator,
    pushpull_times,
    reciprocity_defect,
    segment_propagator,
    solve_two_step,
    static_max_transfer,
    tilt_angle,
    two_step_ceiling,
    two_step_feasible,
)
from modeswitch.verify import (
    check_criterion_vs_brute,
    check_isolator_identity,
    check_rk4_convergence,
    run_battery,
)

RHALF = math.sqrt(0.5)


def announce(capsys, index: int, label: str, ok: bool, detail: str, elapsed: float, budget: float):
    line = (
        f"acceptance {index}/7 {label}: {'PASS' if ok else 'FAIL'} "
        f"({detail}; {elapsed:.2f} s of {budget:g} s budget)"
    )
    with capsys.disabled():
        print(line)


def test_static_transfer_bound(capsys):
    t0 = time.perf_counter()
    worst = 0.0
    for ratio in (0.25, 0.5, 1.0, 2.0):
        params = CouplerParams(ratio, 1.0)
        w = params.rabi
        times = np.linspace(0.0, math.pi, 2001) / w
        peak = max(
            segment_propagator(params, CouplingSegment(0.0, float(t))).transfer
            for t in times
        )
        bound = 1.0 / (1.0 + ratio * ratio)  # kappa^2 / (delta^2 + kappa^2)
        assert static_max_transfer(params) == pytest.approx(bound, abs=1e-15)
        worst = max(worst, abs(peak - bound))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-9 and elapsed < 1.0
    announce(capsys, 1, "single-segment transfer bound", ok, f"residual {worst:.2e}", elapsed, 1.0)
    assert worst <= 1e-9
    assert elapsed < 1.0


def test_pushpull_switch_times(capsys):
    t0 = time.perf_counter()
    params = CouplerParams(0.5, 1.0)
    w = params.rabi
    sol = pushpull_times(params)
    x1 = w * sol.t1 / math.pi
    x2 = w * sol.t2 / math.pi
    achieved = protocol_propagator(params, sol.protocol()).transfer
    oracle = integrate(params, sol.protocol(), ModeState.mode1(), IntegrationConfig())
    mismatch = abs(oracle.transfer - achieved)
    elapsed = time.perf_counter() - t0
    ok = (
        abs(x1 - 0.29) <= 0.005
        and abs(x2 - 0.71) <= 0.005
        and achieved >= 1.0 - 1e-9
        and mismatch <= 1e-8
        and elapsed < 1.0
    )
    announce(
        capsys, 2, "push-pull switch times", ok,
        f"Wt/pi = {x1:.5f}, {x2:.5f}; transfer {achieved:.12f}; oracle gap {mismatch:.1e}",
        elapsed, 1.0,
    )
    assert abs(x1 - 0.29) <= 0.005
    assert abs(x2 - 0.71) <= 0.005
    assert achieved >= 1.0 - 1e-9
    assert mismatch <= 1e-8
    assert elapsed < 1.0


def test_feasibility_classification(capsys):
    t0 = time.perf_counter()
    res = check_criterion_vs_brute(50)
    agreement = 1.0 - res.residual
    params = CouplerParams(0.5, 1.0)
    quarter_feasible = two_step_feasible(params, math.pi / 4.0)
    half_feasible = two_step_feasible(params, math.pi / 2.0)
    ceiling = two_step_ceiling(params, math.pi / 4.0)
    best_quarter = solve_two_step(params, math.pi / 4.0)
    best_half = solve_two_step(params, math.pi / 2.0)
    elapsed = time.perf_counter() - t0
    ok = (
        agreement >= 0.99
        and not quarter_feasible
        and half_feasible
        and abs(best_quarter.achieved - ceiling) <= 1e-6
        and best_half.achieved >= 1.0 - 1e-9
        and elapsed < 120.0
    )
    announce(
        capsys, 3, "two-segment feasibility criterion", ok,
        f"agreement {agreement:.4f} off-band", elapsed, 120.0,
    )
    with capsys.disabled():
        print(
            f"  adjudication at ratio 0.5: phase pi/4 infeasible "
            f"(ceiling {ceiling:.10f}, best found {best_quarter.achieved:.10f}); "
            f"phase pi/2 feasible (best found {best_half.achieved:.12f})"
        )
    assert agreement >= 0.99
    assert not quarter_feasible
    assert half_feasible
    assert abs(best_quarter.achieved - ceiling) <= 1e-6
    assert best_half.achieved >= 1.0 - 1e-9
    assert elapsed < 120.0


def test_isolator_extremes(capsys):
    t0 = time.perf_counter()
    stage = TransferMatrix(RHALF, -1j * RHALF)  # balanced, real diagonal
    dtheta, offset = optimal_phases(stage)
    spec = IsolatorSpec(stage, dtheta, 0.0, offset)
    fwd = cross_power(spec, FORWARD)
    bwd = cross_power(spec, BACKWARD)
    rec_offset = reciprocity_defect(IsolatorSpec(stage, dtheta, 0.0, 0.0))
    rec_dtheta = reciprocity_defect(IsolatorSpec(stage, 0.0, 0.0, offset))
    rng = np.random.default_rng(20240817)
    res = check_isolator_identity(rng, 1000)
    elapsed = time.perf_counter() - t0
    ok = (
        fwd <= 1e-12
        and abs(bwd - 1.0) <= 1e-12
        and rec_offset <= 1e-12
        and rec_dtheta <= 1e-12
        and res.passed
        and elapsed < 5.0
    )
    announce(
        capsys, 4, "isolator interference extremes", ok,
        f"forward {fwd:.1e}, backward {bwd:.15f}, closed-form residual {res.residual:.1e}",
        elapsed, 5.0,
    )
    assert fwd <= 1e-12
    assert abs(bwd - 1.0) <= 1e-12
    assert rec_offset <= 1e-12
    assert rec_dtheta <= 1e-12
    assert res.passed
    assert elapsed < 5.0


def test_staircase_switch_scaling(capsys):
    t0 = time.perf_counter()
    thr = 0.99
    target_angle = math.acos(1.0 - 2.0 * thr)
    ratios = [1.0 + 0.5 * k for k in range(11)]
    rows = []
    for ratio in ratios:
        params = CouplerParams(ratio, 1.0)
        search = minimal_plan_search(params)
        segments = len(search.plan.protocol.segments)
        step = math.pi - 2.0 * abs(tilt_angle(params))
        expected = math.ceil(target_angle / step - 1e-9)
        cycles = math.ceil(segments / 2)
        # The estimate is the paper's bound for full transfer, so at
        # threshold 1 the plan's periods equal it exactly.
        full = math.ceil(len(minimal_plan_search(params, 1.0).plan.protocol.segments) / 2)
        rows.append(
            (ratio, segments, expected, cycles, search.estimate, search.plan.achieved, full)
        )
    elapsed = time.perf_counter() - t0

    seg_counts = [r[1] for r in rows]
    cyc_counts = [r[3] for r in rows]
    ok = (
        all(r[5] >= thr for r in rows)
        and all(r[1] == r[2] for r in rows)
        and seg_counts == sorted(seg_counts)
        and cyc_counts == sorted(cyc_counts)
        and all(abs(r[3] - r[4]) <= 1 for r in rows if r[0] >= 4.0)
        and all(r[6] == r[4] for r in rows)
        and elapsed < 600.0
    )
    announce(
        capsys, 5, "staircase switch scaling", ok,
        f"segments {seg_counts} over ratios 1..6", elapsed, 600.0,
    )
    with capsys.disabled():
        at2 = rows[2]
        print(
            f"  finding: at ratio 2 the search uses {at2[1]} segments = "
            f"{at2[3]} full modulation periods ({at2[1] - 1} raw switch events); "
            f"the reference count of 2 holds in full-period units, not raw switches"
        )
        gaps = [(r[0], r[3] - r[4]) for r in rows]
        print(f"  finding: (ratio, periods - estimate) pairs: {gaps}")
    for ratio, segments, expected, cycles, estimate, achieved, full in rows:
        assert achieved >= thr, f"ratio {ratio}: achieved {achieved}"
        assert segments == expected, f"ratio {ratio}: {segments} != {expected}"
        if ratio >= 4.0:
            assert abs(cycles - estimate) <= 1
        assert full == estimate, f"ratio {ratio}: {full} periods at threshold 1 != {estimate}"
    assert seg_counts == sorted(seg_counts)
    assert cyc_counts == sorted(cyc_counts)
    assert elapsed < 600.0


def test_oracle_convergence_order(capsys):
    t0 = time.perf_counter()
    rng = np.random.default_rng(20240817)
    res = check_rk4_convergence(rng, 20)
    elapsed = time.perf_counter() - t0
    ok = res.passed and elapsed < 60.0
    announce(capsys, 6, "integrator convergence order", ok, res.detail, elapsed, 60.0)
    assert res.passed, res.detail
    assert elapsed < 60.0


def test_invariant_battery(capsys):
    t0 = time.perf_counter()
    results = run_battery()
    elapsed = time.perf_counter() - t0
    failed = [r.name for r in results if not r.passed]
    names = {r.name for r in results}
    expected = {
        "segment_unitarity",
        "norm_conservation",
        "cone_floor",
        "bloch_consistency",
        "output_determinism",
    }
    ok = not failed and expected <= names and elapsed < 300.0
    announce(
        capsys, 7, "invariant battery", ok,
        f"{len(results) - len(failed)}/{len(results)} checks passed",
        elapsed, 300.0,
    )
    assert not failed, f"failed checks: {failed}"
    assert expected <= names
    assert elapsed < 300.0
