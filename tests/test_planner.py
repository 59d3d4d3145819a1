import math
from collections import Counter

import numpy as np
import pytest

from modeswitch import dynamics, planner
from modeswitch import (
    CouplerParams,
    ModeState,
    PlanSearchError,
    descent_bound,
    dive_plan,
    min_switches_estimate,
    minimal_plan_search,
    propagate,
    segment_propagator,
    static_max_transfer,
    tilt_angle,
    to_bloch,
)


def test_min_switches_estimate_values():
    assert min_switches_estimate(1.0) == 1
    assert min_switches_estimate(2.0) == 2
    assert min_switches_estimate(10.0) == 8
    with pytest.raises(ValueError):
        min_switches_estimate(0.0)
    with pytest.raises(ValueError):
        min_switches_estimate(-1.0)


def test_min_switches_estimate_large_ratio_asymptote():
    # For large ratios the estimate approaches pi * ratio / 4.
    for ratio in (4.0, 6.0, 10.0, 25.0, 100.0):
        est = min_switches_estimate(ratio)
        assert abs(est - math.pi * ratio / 4.0) <= 1.0


def test_descent_bound_shape():
    params = CouplerParams(1.0, 1.0)
    # step is pi/2, so two segments reach the south pole exactly.
    assert descent_bound(params, 1) == pytest.approx(0.5)
    assert descent_bound(params, 2) == pytest.approx(1.0)
    assert descent_bound(params, 5) == pytest.approx(1.0)
    prev = 0.0
    p2 = CouplerParams(3.0, 1.0)
    for k in range(1, 12):
        b = descent_bound(p2, k)
        assert b >= prev - 1e-15
        prev = b


def test_descent_bound_first_step_is_static_max():
    for ratio in (0.5, 1.5, 4.0):
        params = CouplerParams(ratio, 1.0)
        assert descent_bound(params, 1) == pytest.approx(static_max_transfer(params))


def test_dive_plan_attains_bound():
    for ratio, k in ((2.0, 2), (3.0, 3), (6.0, 5)):
        params = CouplerParams(ratio, 1.0)
        plan = dive_plan(params, k)
        assert len(plan.protocol.segments) == k
        assert plan.achieved == pytest.approx(descent_bound(params, k), abs=1e-12)


def test_dive_plan_exact_landing():
    for ratio in (0.5, 1.0, 2.0, 4.0):
        params = CouplerParams(ratio, 1.0)
        psi = abs(tilt_angle(params))
        k_full = math.ceil(math.pi / (math.pi - 2.0 * psi))
        plan = dive_plan(params, k_full)
        assert plan.achieved == pytest.approx(1.0, abs=1e-12)
        assert len(plan.protocol.segments) == k_full


def test_greedy_reproduces_two_step():
    params = CouplerParams(0.5, 1.0)
    plan = dive_plan(params, 2)
    assert len(plan.protocol.segments) == 2
    assert plan.achieved == pytest.approx(1.0, abs=1e-6)


def test_greedy_exact_at_ratio_two():
    params = CouplerParams(2.0, 1.0)
    plan = dive_plan(params, 4)
    assert plan.achieved == pytest.approx(1.0, abs=1e-9)
    assert plan.switches == 3


def test_dive_plan_zero_detuning_single_segment():
    plan = dive_plan(CouplerParams(0.0, 1.0), 5)
    assert len(plan.protocol.segments) == 1
    assert plan.achieved == pytest.approx(1.0, abs=1e-12)


def test_dive_plan_descent_is_monotone():
    params = CouplerParams(3.0, 1.0)
    plan = dive_plan(params, 5)
    traj = propagate(params, plan.protocol, ModeState.mode1(), 512)
    # Per-segment running minima of w must strictly decrease.
    boundaries = np.cumsum([s.duration for s in plan.protocol.segments])
    minima = []
    idx = 0
    current = math.inf
    for t, w in zip(traj.t.tolist(), to_bloch(traj).w.tolist()):
        current = min(current, w)
        while idx < len(boundaries) and t >= boundaries[idx] - 1e-12:
            minima.append(current)
            idx += 1
    assert len(minima) == len(plan.protocol.segments)
    for a, b in zip(minima, minima[1:]):
        assert b < a - 1e-6


def test_minimal_search_ratio_two():
    params = CouplerParams(2.0, 1.0)
    search = minimal_plan_search(params)
    assert search.plan.achieved >= 0.99
    assert len(search.plan.protocol.segments) == 4
    assert search.plan.switches == 3
    assert search.estimate == 2
    counts = [k for k, _ in search.curve]
    assert counts == sorted(counts)
    values = [a for _, a in search.curve]
    for a, b in zip(values, values[1:]):
        assert b >= a - 1e-9
    for k, a in search.curve:
        assert a <= descent_bound(params, k) + 1e-9


@pytest.mark.parametrize("delta", [1.0, -1.0])
def test_minimal_search_builds_one_plan(monkeypatch, delta):
    calls = Counter()

    def spy(module, name):
        real = getattr(module, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        return counted

    for module, name in ((planner, "dive_plan"), (dynamics, "segment_propagator")):
        monkeypatch.setattr(module, name, spy(module, name))
    search = minimal_plan_search(CouplerParams(delta, 0.003), 0.9)
    assert len(search.plan.protocol.segments) == 417
    # One plan, propagated once: one propagator per segment.
    assert calls == {"dive_plan": 1, "segment_propagator": 417}


def test_minimal_search_cap_raises_with_best():
    params = CouplerParams(3.0, 1.0)
    with pytest.raises(PlanSearchError) as exc:
        minimal_plan_search(params, max_segments=2)
    err = exc.value
    assert err.best.achieved < 0.99
    assert err.best.achieved == pytest.approx(descent_bound(params, 2), abs=1e-6)
    assert len(err.curve) == 2
    # psi rounds to pi/2: no count descends, so only a cap ends the search.
    flat = CouplerParams(1.0, 1e-300)
    with pytest.raises(ValueError, match="too large"):
        minimal_plan_search(flat)
    with pytest.raises(PlanSearchError):
        minimal_plan_search(flat, max_segments=3)


@pytest.mark.parametrize(
    "ratio, wt",
    [(0.5, 1.8235), (1.5, 3.3689), (2.0, 4.1077), (3.0, 6.7842), (5.5, 11.9540)],
)
@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_threshold_one_plans_are_equal_segments(ratio, wt, sign):
    # W*T of k equal segments with a constant phase step; at ratios 1.5, 2
    # and 3 a constrained numerical search found no shorter k-segment plan.
    params = CouplerParams(sign * ratio, 1.0)
    protocol = minimal_plan_search(params, 1.0).plan.protocol
    assert params.rabi * protocol.total_duration == pytest.approx(wt, abs=1e-4)
    assert max(protocol.durations) - min(protocol.durations) <= 1e-15
    steps = np.diff(protocol.phases) % (2.0 * math.pi)
    assert np.ptp(np.cos(steps)) <= 1e-12 and np.ptp(np.sin(steps)) <= 1e-12


def test_minimal_plan_wt_before_the_plan_is_built():
    # delta 1, kappa0 0.000246: 6,386 equal landing segments take W*T
    # 9,940, though 6,385 half turns alone would take 10,030.
    params = CouplerParams(1.0, 0.000246)
    plan = minimal_plan_search(params, 1.0).plan
    wt = params.rabi * plan.protocol.total_duration
    assert planner.minimal_plan_wt(params, 1.0, None) == pytest.approx(wt, rel=1e-12)
    assert 9940.0 < wt < 9941.0
    # A cap sets the count; with a flat tilt only a cap gives one.
    assert planner.minimal_plan_wt(CouplerParams(3.0, 1.0), 0.99, 2) == pytest.approx(math.pi)
    flat = CouplerParams(1.0, 1e-300)
    assert planner.minimal_plan_wt(flat, 0.9, 3) == pytest.approx(1.5 * math.pi)
    with pytest.raises(ValueError, match="too large"):
        planner.minimal_plan_wt(flat, 0.9, None)


def test_negative_detuning_mirrors():
    pos = minimal_plan_search(CouplerParams(2.0, 1.0))
    neg = minimal_plan_search(CouplerParams(-2.0, 1.0))
    assert len(neg.plan.protocol.segments) == len(pos.plan.protocol.segments)
    assert neg.plan.achieved >= 0.99


def test_plan_switch_points_match_propagation():
    params = CouplerParams(1.5, 1.0)
    plan = dive_plan(params, 3)
    acc_state = ModeState.mode1()
    for seg, point in zip(plan.protocol.segments, plan.switch_points):
        acc_state = segment_propagator(params, seg).apply(acc_state)
        assert to_bloch(acc_state).as_array() == pytest.approx(
            point.as_array(), abs=1e-12
        )
